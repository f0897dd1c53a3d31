//! Linearizability harness for the online catalog, run under the
//! `mv-model` schedule explorer (`RUSTFLAGS="--cfg mv_model"`).
//!
//! Each model program builds a fresh [`MatchingEngine`] over a three-table
//! slice of TPC-H (part / orders / lineitem, six base range views), then
//! races writer threads (`add_view` / `remove_view`, or a base write and
//! its restamp) against matcher threads (`find_substitutes`). Every schedule the explorer generates is
//! checked against sequential reference executions computed *outside* the
//! explorer:
//!
//! * **Window check** — writers publish a `started` bit before their
//!   registration and a `done` bit after it; a matcher records
//!   `before = done` at invocation and `after = started` at return. The
//!   observed substitute set must equal the reference result of *some*
//!   catalog state `M` with `before ⊆ M ⊆ after` — i.e. each
//!   `find_substitutes` call takes effect atomically at some point between
//!   invocation and return.
//! * **Quiescence** — after all threads join, results equal the
//!   all-writers-applied reference, and the stats invariant
//!   `cache_hits + cache_misses == invocations` holds exactly.
//!
//! The corruption suite in `model_corruption.rs` proves these checks have
//! teeth: weakening any edge of the engine's concurrency protocol makes
//! the same programs fail with a replayable schedule seed.
#![cfg(mv_model)]

use std::collections::BTreeSet;
use std::sync::Arc;

use mv_catalog::tpch::tpch_catalog;
use mv_catalog::Catalog;
use mv_core::{FreshnessPolicy, MatchConfig, MatchingEngine};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_model::{explore, replay, Config, Ordering};
use mv_plan::{Freshness, NamedExpr, SpjgExpr, Substitute, ViewDef, ViewId};

/// A three-table catalog slice with two range views per table, two
/// pending registrations, and one probe query per pending view.
struct Fixture {
    catalog: Catalog,
    base: Vec<ViewDef>,
    pending: [ViewDef; 2],
    queries: [SpjgExpr; 2],
}

/// `SELECT proj FROM table WHERE col < bound`.
fn range_expr(table: mv_catalog::TableId, col: u32, bound: i64, proj: &[(u32, &str)]) -> SpjgExpr {
    SpjgExpr::spj(
        vec![table],
        BoolExpr::cmp(S::col(ColRef::new(0, col)), CmpOp::Lt, S::lit(bound)),
        proj.iter()
            .map(|&(c, n)| NamedExpr::new(S::col(ColRef::new(0, c)), n))
            .collect(),
    )
}

fn fixture() -> Fixture {
    let (catalog, t) = tpch_catalog();
    let part_proj: &[(u32, &str)] = &[(0, "p_partkey"), (5, "p_size")];
    let ord_proj: &[(u32, &str)] = &[(0, "o_orderkey"), (1, "o_custkey")];
    let li_proj: &[(u32, &str)] = &[(0, "l_orderkey"), (2, "l_suppkey")];
    Fixture {
        base: vec![
            ViewDef::new("part_wide", range_expr(t.part, 5, 100, part_proj)),
            ViewDef::new("part_mid", range_expr(t.part, 5, 80, part_proj)),
            ViewDef::new("orders_wide", range_expr(t.orders, 1, 100, ord_proj)),
            ViewDef::new("orders_mid", range_expr(t.orders, 1, 80, ord_proj)),
            ViewDef::new("lineitem_wide", range_expr(t.lineitem, 2, 100, li_proj)),
            ViewDef::new("lineitem_mid", range_expr(t.lineitem, 2, 80, li_proj)),
        ],
        pending: [
            ViewDef::new("part_new", range_expr(t.part, 5, 60, part_proj)),
            ViewDef::new("orders_new", range_expr(t.orders, 1, 60, ord_proj)),
        ],
        queries: [
            range_expr(t.part, 5, 50, &[(0, "p_partkey")]),
            range_expr(t.orders, 1, 50, &[(0, "o_orderkey")]),
        ],
        catalog,
    }
}

/// Engine configuration for the modeled runs: no clock reads, serial
/// matching, and a single cache stripe so the schedule space stays
/// focused on the synchronization that matters.
fn model_config() -> MatchConfig {
    MatchConfig {
        timing: false,
        parallel_threshold: usize::MAX,
        substitute_cache_capacity: 16,
        substitute_cache_shards: 1,
        ..MatchConfig::default()
    }
}

/// Reference engines run outside the explorer (plain std primitives) with
/// the cache disabled — the uncached path is the semantic ground truth.
fn reference_config() -> MatchConfig {
    MatchConfig {
        timing: false,
        parallel_threshold: usize::MAX,
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    }
}

fn names_of(engine: &MatchingEngine, subs: &[(ViewId, Substitute)]) -> BTreeSet<String> {
    let views = engine.views();
    subs.iter()
        .map(|(id, _)| views.get(*id).name.clone())
        .collect()
}

/// Sequential reference: the substitute name-sets for both probe queries
/// with the pending registrations in `mask` applied.
fn reference_names(fx: &Fixture, mask: u64) -> [BTreeSet<String>; 2] {
    let engine = MatchingEngine::new(fx.catalog.clone(), reference_config());
    engine
        .add_views(fx.base.clone())
        .expect("base views register");
    for (i, w) in fx.pending.iter().enumerate() {
        if mask & (1 << i) != 0 {
            engine.add_view(w.clone()).expect("pending view registers");
        }
    }
    [0, 1].map(|qi| names_of(&engine, &engine.find_substitutes(&fx.queries[qi])))
}

type Expected = [[BTreeSet<String>; 2]; 4];

fn expected_tables(fx: &Fixture) -> Arc<Expected> {
    let expected = Arc::new([0u64, 1, 2, 3].map(|m| reference_names(fx, m)));
    // The fixture is only a fixture if each pending view visibly changes
    // its probe query's answer.
    assert_ne!(
        expected[0][0], expected[1][0],
        "pending part view must affect q0"
    );
    assert_ne!(
        expected[0][1], expected[2][1],
        "pending orders view must affect q1"
    );
    expected
}

/// The add-window program: two writers race two matchers on one engine.
fn program_adds(fx: &Fixture, expected: &Expected) {
    let engine = Arc::new(MatchingEngine::new(fx.catalog.clone(), model_config()));
    engine
        .add_views(fx.base.clone())
        .expect("base views register");

    let started = Arc::new(mv_model::AtomicU64::new(0));
    let done = Arc::new(mv_model::AtomicU64::new(0));
    let mut handles = Vec::new();

    for (i, view) in fx.pending.iter().cloned().enumerate() {
        let engine = Arc::clone(&engine);
        let started = Arc::clone(&started);
        let done = Arc::clone(&done);
        handles.push(mv_model::thread::spawn(move || {
            started.fetch_or(1 << i, Ordering::SeqCst);
            engine.add_view(view).expect("racing registration succeeds");
            done.fetch_or(1 << i, Ordering::SeqCst);
        }));
    }
    for (qi, query) in fx.queries.iter().cloned().enumerate() {
        let engine = Arc::clone(&engine);
        let started = Arc::clone(&started);
        let done = Arc::clone(&done);
        let expected = expected.clone();
        handles.push(mv_model::thread::spawn(move || {
            let before = done.load(Ordering::SeqCst);
            let got = names_of(&engine, &engine.find_substitutes(&query));
            let after = started.load(Ordering::SeqCst);
            let linearizable = (0u64..4).any(|m| {
                m & before == before && m | after == after && expected[m as usize][qi] == got
            });
            assert!(
                linearizable,
                "find_substitutes(q{qi}) = {got:?} matches no catalog state in \
                 its window (before={before:#b}, after={after:#b})"
            );
        }));
    }
    for handle in handles {
        handle.join().expect("model thread joins");
    }

    // Quiescence: the final answers are the all-registered reference and
    // the cache counters balance exactly.
    for (qi, query) in fx.queries.iter().enumerate() {
        let got = names_of(&engine, &engine.find_substitutes(query));
        assert_eq!(got, expected[3][qi], "quiescent result for q{qi}");
    }
    let stats = engine.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.invocations,
        "every invocation is exactly one cache hit or miss"
    );
    assert_eq!(
        stats.registrations,
        fx.base.len() as u64 + 2,
        "no registration lost"
    );
}

/// The remove-window program: one writer drops a cached-and-matching view
/// while a matcher probes it. Ids are fixed before the race, so the
/// matcher resolves names through a prebuilt table instead of a guard.
fn program_remove(fx: &Fixture, expected: &Expected) {
    let engine = Arc::new(MatchingEngine::new(fx.catalog.clone(), model_config()));
    engine
        .add_views(fx.base.clone())
        .expect("base views register");
    let doomed = engine
        .add_view(fx.pending[0].clone())
        .expect("pending part view registers");
    let names: Arc<Vec<(ViewId, String)>> = {
        let views = engine.views();
        Arc::new(
            views
                .iter()
                .map(|(id, def)| (id, def.name.clone()))
                .collect(),
        )
    };
    // Warm the cache so a stale entry naming the doomed view exists.
    let warm = names_of(&engine, &engine.find_substitutes(&fx.queries[0]));
    assert_eq!(
        warm, expected[1][0],
        "warmed result includes the doomed view"
    );

    let started = Arc::new(mv_model::AtomicU64::new(0));
    let done = Arc::new(mv_model::AtomicU64::new(0));

    let writer = {
        let engine = Arc::clone(&engine);
        let started = Arc::clone(&started);
        let done = Arc::clone(&done);
        mv_model::thread::spawn(move || {
            started.fetch_or(1, Ordering::SeqCst);
            assert!(engine.remove_view(doomed), "doomed view is live");
            done.fetch_or(1, Ordering::SeqCst);
        })
    };
    let matchers: Vec<_> = (0..2)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let started = Arc::clone(&started);
            let done = Arc::clone(&done);
            let names = Arc::clone(&names);
            let query = fx.queries[0].clone();
            // Mask 0 = view still present, mask 1 = view removed.
            let with = expected[1][0].clone();
            let without = expected[0][0].clone();
            mv_model::thread::spawn(move || {
                let before = done.load(Ordering::SeqCst);
                let got: BTreeSet<String> = engine
                    .find_substitutes(&query)
                    .iter()
                    .map(|(id, _)| {
                        names
                            .iter()
                            .find(|(nid, _)| nid == id)
                            .expect("result id predates the race")
                            .1
                            .clone()
                    })
                    .collect();
                let after = started.load(Ordering::SeqCst);
                let admissible = [(0u64, &with), (1u64, &without)]
                    .into_iter()
                    .any(|(m, want)| m & before == before && m | after == after && *want == got);
                assert!(
                    admissible,
                    "find_substitutes(q0) = {got:?} matches neither side of the \
                     removal window (before={before:#b}, after={after:#b})"
                );
            })
        })
        .collect();
    writer.join().expect("writer joins");
    for matcher in matchers {
        matcher.join().expect("matcher joins");
    }

    let got = names_of(&engine, &engine.find_substitutes(&fx.queries[0]));
    assert_eq!(
        got, expected[0][0],
        "quiescent result excludes the removed view"
    );
    let stats = engine.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.invocations,
        "every invocation is exactly one cache hit or miss"
    );
    assert_eq!(stats.removals, 1, "exactly one removal recorded");
}

/// The freshness-window program: a writer records a base write to `part`
/// and then restamps every view, while a StrictFresh matcher with the
/// cache on probes `q0` twice. The writer's two steps are the two bits of
/// the window masks; the catalog never changes, so every probe after the
/// first is answered from the cache and only the freshness gate tells the
/// three states apart: before the write the part views are served Fresh,
/// between write and restamp nothing is served, after the restamp they
/// are served Fresh again.
fn program_freshness(fx: &Fixture, expected: &Expected) {
    let (_, t) = tpch_catalog();
    let engine = Arc::new(MatchingEngine::new(
        fx.catalog.clone(),
        MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..model_config()
        },
    ));
    let ids = engine
        .add_views(fx.base.clone())
        .expect("base views register");
    let served = expected[0][0].clone();
    // Mask 0b01 (written, not yet restamped) serves nothing; masks 0b00
    // and 0b11 serve the part views. The restamp follows the write in
    // program order, so 0b10 is not a state.
    let states = [
        (0b00u64, served.clone()),
        (0b01, BTreeSet::new()),
        (0b11, served.clone()),
    ];

    let started = Arc::new(mv_model::AtomicU64::new(0));
    let done = Arc::new(mv_model::AtomicU64::new(0));
    let writer = {
        let engine = Arc::clone(&engine);
        let started = Arc::clone(&started);
        let done = Arc::clone(&done);
        mv_model::thread::spawn(move || {
            started.fetch_or(0b01, Ordering::SeqCst);
            engine.record_base_write(t.part);
            done.fetch_or(0b01, Ordering::SeqCst);
            started.fetch_or(0b10, Ordering::SeqCst);
            assert_eq!(engine.mark_views_maintained(&ids), ids.len());
            done.fetch_or(0b10, Ordering::SeqCst);
        })
    };
    let matcher = {
        let engine = Arc::clone(&engine);
        let started = Arc::clone(&started);
        let done = Arc::clone(&done);
        let query = fx.queries[0].clone();
        mv_model::thread::spawn(move || {
            for probe in 0..2 {
                let before = done.load(Ordering::SeqCst);
                let subs = engine.find_substitutes(&query);
                let after = started.load(Ordering::SeqCst);
                let got = names_of(&engine, &subs);
                assert!(
                    subs.iter()
                        .all(|(_, sub)| sub.freshness == Freshness::Fresh),
                    "StrictFresh served a stale substitute on probe {probe}"
                );
                assert!(
                    states.iter().any(|(m, want)| m & before == before
                        && m | after == after
                        && *want == got),
                    "probe {probe}: find_substitutes(q0) = {got:?} matches no \
                     freshness state in its window (before={before:#b}, after={after:#b})"
                );
            }
        })
    };
    writer.join().expect("writer joins");
    matcher.join().expect("matcher joins");

    // Quiescence: every view is restamped, so the part views are served
    // Fresh, and the cache counters balance exactly.
    let subs = engine.find_substitutes(&fx.queries[0]);
    assert_eq!(names_of(&engine, &subs), served, "quiescent result for q0");
    assert!(
        subs.iter()
            .all(|(_, sub)| sub.freshness == Freshness::Fresh),
        "quiescent substitutes are Fresh"
    );
    let stats = engine.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.invocations,
        "every invocation is exactly one cache hit or miss"
    );
}

fn harness_config() -> Config {
    Config {
        preemption_bound: 2,
        max_schedules: 60_000,
        ..Config::default()
    }
}

#[test]
fn concurrent_adds_are_linearizable() {
    let fx = fixture();
    let expected = expected_tables(&fx);
    let report = explore(&harness_config(), || program_adds(&fx, &expected));
    eprintln!(
        "add-window program: {} schedules ({} pruned, max depth {}, budget exhausted: {})",
        report.schedules, report.pruned, report.max_depth, report.budget_exhausted
    );
    report.assert_pass("concurrent add_view vs find_substitutes");
    assert!(
        report.schedules >= 10_000,
        "expected at least 10k distinct schedules, explored {}",
        report.schedules
    );
}

#[test]
fn concurrent_removal_is_linearizable() {
    let fx = fixture();
    let expected = expected_tables(&fx);
    // The remove program has fewer threads than the add program, so its
    // preemption-bound-2 space is small; a deeper bound keeps the
    // explored-schedule floor meaningful.
    let cfg = Config {
        preemption_bound: 4,
        ..harness_config()
    };
    let report = explore(&cfg, || program_remove(&fx, &expected));
    eprintln!(
        "remove-window program: {} schedules ({} pruned, max depth {}, budget exhausted: {})",
        report.schedules, report.pruned, report.max_depth, report.budget_exhausted
    );
    report.assert_pass("remove_view vs find_substitutes");
    assert!(
        report.schedules >= 10_000,
        "expected at least 10k distinct schedules, explored {}",
        report.schedules
    );
}

#[test]
fn freshness_gate_is_linearizable() {
    let fx = fixture();
    let expected = expected_tables(&fx);
    // Two threads only, like the remove program: a deeper bound keeps
    // the explored-schedule floor meaningful.
    let cfg = Config {
        preemption_bound: 4,
        ..harness_config()
    };
    let report = explore(&cfg, || program_freshness(&fx, &expected));
    eprintln!(
        "freshness-window program: {} schedules ({} pruned, max depth {}, budget exhausted: {})",
        report.schedules, report.pruned, report.max_depth, report.budget_exhausted
    );
    report.assert_pass("record_base_write + mark_views_maintained vs find_substitutes");
    assert!(
        report.schedules >= 10_000,
        "expected at least 10k distinct schedules, explored {}",
        report.schedules
    );
}

/// A passing schedule's seed replays to the same (passing) outcome.
#[test]
fn first_schedule_replays_clean() {
    let fx = fixture();
    let expected = expected_tables(&fx);
    // The empty seed is the explorer's first schedule (run every thread
    // as long as it stays runnable, always picking the first choice).
    let outcome = replay(&harness_config(), "", || program_adds(&fx, &expected));
    assert!(outcome.is_none(), "first schedule fails: {outcome:?}");
}
