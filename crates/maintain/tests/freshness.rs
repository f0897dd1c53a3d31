//! Acceptance: under a write workload, `StrictFresh` matching never
//! serves a substitute whose data epochs trail the current table epochs —
//! including the window *between* a base write and its maintenance round,
//! and for recompute-fallback views that lag until refreshed. The
//! bounded and stale-tolerant policies relax admission monotonically and
//! always stamp honestly. The batch restamp (`mark_views_maintained`) must
//! leave exactly the state one restamp per view leaves, in one snapshot
//! publication.

use mv_catalog::schema::TableBuilder;
use mv_catalog::{Catalog, ColumnType, TableId, Value};
use mv_core::{FreshnessPolicy, MatchConfig, MatchingEngine};
use mv_data::{Database, Row};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_maintain::{audit_serving, MaintainStrategy, Maintainer, TableDelta};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef, ViewId};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn schema() -> (Catalog, TableId) {
    let mut cat = Catalog::new();
    let r = cat.add_table(
        TableBuilder::new("r")
            .col("pk", ColumnType::Int)
            .nullable_col("x", ColumnType::Int)
            .primary_key(&["pk"])
            .build(),
    );
    (cat, r)
}

fn setup(policy: FreshnessPolicy) -> (MatchingEngine, Maintainer, SpjgExpr, TableId) {
    let (cat, r) = schema();
    let mut db = Database::new(cat.clone());
    db.load(
        r,
        (0..6)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect::<Vec<Row>>(),
    );
    let engine = MatchingEngine::new(
        cat,
        MatchConfig {
            freshness: policy,
            ..MatchConfig::default()
        },
    );
    let mut maintainer = Maintainer::new(db);
    let expr = SpjgExpr::spj(
        vec![r],
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "pk"),
            NamedExpr::new(S::col(cr(0, 1)), "x"),
        ],
    );
    let id = engine
        .add_view(ViewDef::new("v_r", expr.clone()))
        .expect("view registers");
    let strategy = maintainer.register(id, &ViewDef::new("v_r", expr.clone()));
    assert_eq!(strategy, MaintainStrategy::Incremental);
    (engine, maintainer, expr, r)
}

fn delta(r: TableId, round: i64) -> TableDelta {
    TableDelta::insert(r, vec![vec![Value::Int(100 + round), Value::Int(7)]])
}

#[test]
fn strict_fresh_never_serves_trailing_epochs() {
    let (engine, mut maintainer, query, r) = setup(FreshnessPolicy::StrictFresh);
    for round in 0..5 {
        // Window 1: write recorded, maintenance not yet run. StrictFresh
        // must refuse the view outright.
        engine.record_base_write(r);
        maintainer.apply(&delta(r, round));
        assert_eq!(engine.view_staleness(ViewId(0)), Some(1));
        assert!(
            engine.find_substitutes(&query).is_empty(),
            "round {round}: StrictFresh served a view with trailing epochs"
        );

        // Window 2: maintenance caught up and restamped; serving resumes
        // with a hard Fresh guarantee verified end-to-end.
        engine.mark_view_maintained(ViewId(0));
        let subs = engine.find_substitutes(&query);
        assert_eq!(subs.len(), 1, "round {round}");
        assert!(subs[0].1.freshness.is_fresh());
        assert_eq!(engine.view_staleness(subs[0].0), Some(0));
        let diags = audit_serving(&engine, &maintainer, std::slice::from_ref(&query));
        assert!(diags.is_empty(), "round {round}: {diags:?}");
    }
}

#[test]
fn bounded_staleness_admits_up_to_its_bound() {
    let (engine, mut maintainer, query, r) = setup(FreshnessPolicy::BoundedStaleness(2));
    // Two unmaintained writes: lag 2, still admissible — stamped Stale.
    for round in 0..2 {
        engine.record_base_write(r);
        maintainer.apply(&delta(r, round));
    }
    let subs = engine.find_substitutes(&query);
    assert_eq!(subs.len(), 1);
    assert_eq!(subs[0].1.freshness.lag(), 2);
    // A third write exceeds the bound.
    engine.record_base_write(r);
    maintainer.apply(&delta(r, 2));
    assert!(engine.find_substitutes(&query).is_empty());
    // Maintenance restores admission at lag zero.
    engine.mark_view_maintained(ViewId(0));
    let subs = engine.find_substitutes(&query);
    assert_eq!(subs.len(), 1);
    assert!(subs[0].1.freshness.is_fresh());
}

#[test]
fn stale_ok_always_serves_with_honest_lag() {
    let (engine, mut maintainer, query, r) = setup(FreshnessPolicy::StaleOk);
    for round in 0..4 {
        engine.record_base_write(r);
        maintainer.apply(&delta(r, round));
        let subs = engine.find_substitutes(&query);
        assert_eq!(subs.len(), 1, "round {round}");
        assert_eq!(subs[0].1.freshness.lag(), round as u64 + 1);
    }
}

/// Two tables and four views over them: two over `r` alone, one over `s`
/// alone, one joining both — so a batch restamp's table union differs
/// from each view's own tables.
fn two_table_engine() -> (MatchingEngine, TableId, TableId, Vec<ViewId>) {
    let (mut cat, r) = schema();
    let s = cat.add_table(
        TableBuilder::new("s")
            .col("pk", ColumnType::Int)
            .nullable_col("y", ColumnType::Int)
            .primary_key(&["pk"])
            .build(),
    );
    let engine = MatchingEngine::new(
        cat,
        MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..MatchConfig::default()
        },
    );
    let scan = |t: TableId, lo: i64| {
        SpjgExpr::spj(
            vec![t],
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(lo)),
            vec![NamedExpr::new(S::col(cr(0, 1)), "v")],
        )
    };
    let join = SpjgExpr::spj(
        vec![r, s],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![NamedExpr::new(S::col(cr(1, 1)), "y")],
    );
    let ids = [scan(r, 0), scan(r, 3), scan(s, 0), join]
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            engine
                .add_view(ViewDef::new(format!("v{i}"), e))
                .expect("view registers")
        })
        .collect();
    (engine, r, s, ids)
}

#[test]
fn batch_restamp_equals_one_restamp_per_view() {
    let (batch, r, s, ids) = two_table_engine();
    let (single, ..) = two_table_engine();
    for engine in [&batch, &single] {
        engine.record_base_write(r);
        engine.record_base_write(s);
        engine.record_base_write(r);
    }
    // Restamp all but one view over `r`: it must stay two rounds stale.
    let maintained = [ids[1], ids[2], ids[3]];
    assert_eq!(batch.mark_views_maintained(&maintained), 3);
    for &id in &maintained {
        assert!(single.mark_view_maintained(id));
    }
    for &id in &ids {
        assert_eq!(
            batch.view_data_epochs(id),
            single.view_data_epochs(id),
            "view {}",
            id.0
        );
        assert_eq!(
            batch.view_staleness(id),
            single.view_staleness(id),
            "view {}",
            id.0
        );
    }
    assert_eq!(batch.view_staleness(ids[0]), Some(2));
    assert_eq!(batch.view_staleness(ids[3]), Some(0));
}

#[test]
fn batch_restamp_skips_removed_and_out_of_range_ids() {
    let (engine, r, _, ids) = two_table_engine();
    engine.record_base_write(r);
    assert!(engine.remove_view(ids[0]));
    let stale = engine.view_staleness(ids[1]);
    assert_eq!(stale, Some(1));
    let restamped = engine.mark_views_maintained(&[ids[0], ViewId(999), ids[1]]);
    assert_eq!(restamped, 1, "only the live, in-range id is restamped");
    assert_eq!(engine.view_staleness(ids[0]), None);
    assert_eq!(engine.view_data_epochs(ids[0]), None);
    assert_eq!(engine.view_staleness(ids[1]), Some(0));
    // Nothing valid: nothing restamped and nothing published.
    let epoch = engine.snapshot_epoch();
    assert_eq!(engine.mark_views_maintained(&[ids[0], ViewId(999)]), 0);
    assert_eq!(engine.snapshot_epoch(), epoch);
}

#[test]
fn batch_restamp_publishes_one_snapshot() {
    let (engine, r, s, ids) = two_table_engine();
    engine.record_base_write(r);
    engine.record_base_write(s);
    let epoch = engine.snapshot_epoch();
    assert_eq!(engine.mark_views_maintained(&ids), ids.len());
    assert_eq!(engine.snapshot_epoch(), epoch + 1);
    for &id in &ids {
        assert_eq!(engine.view_staleness(id), Some(0));
    }
}

#[test]
fn apply_with_engine_publishes_once_per_restamp_set() {
    let (engine, r, s, ids) = two_table_engine();
    let mut db = Database::new(engine.catalog().clone());
    for t in [r, s] {
        db.load(
            t,
            (0..6)
                .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
                .collect::<Vec<Row>>(),
        );
    }
    let mut maintainer = Maintainer::new(db);
    for (&id, (def_id, def)) in ids.iter().zip(engine.views().iter()) {
        assert_eq!(id, def_id);
        assert_eq!(maintainer.register(id, def), MaintainStrategy::Incremental);
    }
    // Three views read `r`: one publication records the write, one
    // restamps all three.
    let epoch = engine.snapshot_epoch();
    let report = maintainer.apply_with_engine(&delta(r, 0), &engine);
    assert_eq!(report.maintained, 3);
    assert_eq!(engine.snapshot_epoch(), epoch + 2);
    for &id in &ids {
        assert_eq!(engine.view_staleness(id), Some(0));
    }
    assert!(maintainer.audit().is_empty());
}
