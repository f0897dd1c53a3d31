//! Incremental maintenance of materialized views, with a freshness audit.
//!
//! The matcher treats a substitute as an *equivalent* rewrite, which is
//! only true while the view's stored contents reflect the base tables. This
//! crate keeps them reflecting: base-table deltas (bags of inserted and
//! deleted rows) are propagated through each registered view's SPJ plan and
//! rolled up through its aggregates, so view contents track writes without
//! recomputation.
//!
//! Propagation rules (single-occurrence views — a table appearing once):
//!
//! * **SPJ**: the view is linear in each base table, so
//!   `V(T − Δ⁻ + Δ⁺) = V(T) − V[T↦Δ⁻] + V[T↦Δ⁺]` as bags, where
//!   `V[T↦X]` evaluates the view with `T`'s rows replaced by `X` and every
//!   other table at its current state. Both delta joins run the view's
//!   compiled [`PlanProgram`].
//! * **Aggregates** (`COUNT(*)`/`SUM` over integer arguments): the same
//!   delta joins run over the view's SPJ core (group-by expressions plus
//!   sum arguments), then fold into counting state — per-group row count
//!   and per-sum (non-null count, exact integer total). Inserts increment,
//!   deletes decrement; a group whose count reaches zero is deleted.
//!   `SUM` yields NULL when its non-null count is zero, matching
//!   [`mv_exec::agg::SumAcc`].
//!
//! Self-joins (a table occurring twice) and float-typed sums fall back to
//! recompute-from-scratch: the former needs quadratic delta terms, and the
//! latter cannot reproduce `SumAcc`'s order-dependent float accumulation
//! by adding and subtracting deltas. Such views are marked *dirty* by a
//! relevant delta and recomputed by [`Maintainer::refresh`].
//!
//! [`Maintainer::register`] compiles one [`PlanProgram`] per view — the
//! view's own plan, or for an incremental aggregate view its SPJ core — and
//! that program is the only evaluator the maintainer runs: initial
//! materialization, refresh and every delta join. Its hash-indexed joins
//! keep the interpreter's tuple order, so recomputed float sums are
//! bit-identical to [`execute_spjg`], which stays only as the audit oracle.
//!
//! The audit side ([`Maintainer::audit`], [`audit_serving`]) checks the
//! MV4xx invariants: maintained contents equal recompute-from-scratch as
//! row bags (MV401), `Fresh`-stamped substitutes really are fresh and
//! execute to the query's rows (MV402), no zombie groups survive at count
//! zero (MV403), and no view's data-epoch stamp leads its tables (MV404).

use mv_catalog::{ColumnType, TableId, Value};
use mv_core::MatchingEngine;
use mv_data::{Database, Row};
use mv_exec::{bag_diff, execute_spjg, execute_substitute_with, ExecScratch, PlanProgram, RowBag};
use mv_plan::{AggFunc, NamedExpr, OutputList, SpjgExpr, ViewDef, ViewId};
use mv_verify::{Diagnostic, RuleId, Severity};
use std::collections::HashMap;

/// One write round against a base table: a bag of inserted rows and a bag
/// of deleted rows (each delete removes one matching stored copy).
#[derive(Debug, Clone)]
pub struct TableDelta {
    /// The written table.
    pub table: TableId,
    /// Rows appended this round.
    pub inserts: Vec<Row>,
    /// Rows removed this round (must currently exist in the table).
    pub deletes: Vec<Row>,
}

impl TableDelta {
    /// An insert-only delta.
    pub fn insert(table: TableId, rows: Vec<Row>) -> Self {
        TableDelta {
            table,
            inserts: rows,
            deletes: Vec::new(),
        }
    }

    /// A delete-only delta.
    pub fn delete(table: TableId, rows: Vec<Row>) -> Self {
        TableDelta {
            table,
            inserts: Vec::new(),
            deletes: rows,
        }
    }
}

/// How a registered view is kept current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainStrategy {
    /// Delta joins applied in place after every write round.
    Incremental,
    /// A relevant write marks the view dirty; [`Maintainer::refresh`]
    /// recomputes it from the base tables.
    Recompute,
}

/// What one [`Maintainer::apply`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Views updated in place by delta propagation.
    pub maintained: usize,
    /// Views marked dirty (recompute strategy, or already dirty).
    pub marked_dirty: usize,
    /// Base rows actually removed (shortfall against `deletes.len()` means
    /// the delta named rows the table did not contain).
    pub rows_deleted: usize,
}

/// Exact integer SUM state: NULLs are skipped (`nonnull` counts the rest),
/// and the total uses the same wrapping arithmetic as
/// [`mv_exec::agg::SumAcc`], so adding then subtracting a delta restores
/// the previous state bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
struct SumState {
    nonnull: i64,
    total: i64,
}

impl SumState {
    fn fold(&mut self, v: &Value, sign: i64) {
        if let Value::Int(i) = v {
            self.nonnull += sign;
            self.total = if sign >= 0 {
                self.total.wrapping_add(*i)
            } else {
                self.total.wrapping_sub(*i)
            };
        }
    }

    fn finish(&self, zero_default: bool) -> Value {
        if self.nonnull == 0 {
            if zero_default {
                Value::Int(0)
            } else {
                Value::Null
            }
        } else {
            Value::Int(self.total)
        }
    }
}

/// Counting state for one group.
#[derive(Debug, Clone)]
struct GroupState {
    count: i64,
    sums: Vec<SumState>,
}

/// Which core-output slot feeds each aggregate of the view.
#[derive(Debug, Clone, Copy)]
enum AggSpec {
    CountStar,
    Sum { slot: usize, zero_default: bool },
}

/// The counting rollup of an aggregate view. The view's program evaluates
/// its SPJ core: the group-by expressions followed by every sum argument.
#[derive(Debug)]
struct AggCore {
    n_keys: usize,
    aggs: Vec<AggSpec>,
    groups: HashMap<Vec<Value>, GroupState>,
}

impl AggCore {
    fn n_sums(&self) -> usize {
        self.aggs
            .iter()
            .filter(|a| matches!(a, AggSpec::Sum { .. }))
            .count()
    }

    /// Fold one bag of core rows with the given sign (+1 insert, −1
    /// delete). Groups this fold emptied are dropped; no other group is
    /// visited.
    fn fold(&mut self, rows: &RowBag, sign: i64) {
        let n_sums = self.n_sums();
        let mut emptied: Vec<Vec<Value>> = Vec::new();
        for row in rows.rows() {
            let key = &row[..self.n_keys];
            let g = match self.groups.get_mut(key) {
                Some(g) => g,
                None => self
                    .groups
                    .entry(key.to_vec())
                    .or_insert_with(|| GroupState {
                        count: 0,
                        sums: vec![SumState::default(); n_sums],
                    }),
            };
            g.count += sign;
            let mut si = 0;
            for spec in &self.aggs {
                if let AggSpec::Sum { slot, .. } = spec {
                    g.sums[si].fold(&row[*slot], sign);
                    si += 1;
                }
            }
            if g.count <= 0 {
                emptied.push(key.to_vec());
            }
        }
        for key in emptied {
            if self.groups.get(&key).is_some_and(|g| g.count <= 0) {
                self.groups.remove(&key);
            }
        }
    }

    /// The finished aggregate rows: group key columns, then aggregate
    /// values in declaration order. A scalar aggregate (no group-by) over
    /// an emptied view still yields its one row, like the executor.
    fn finish(&self) -> Vec<Row> {
        let mut out: Vec<Row> = self
            .groups
            .iter()
            .map(|(key, g)| {
                let mut row = key.clone();
                let mut si = 0;
                for spec in &self.aggs {
                    match spec {
                        AggSpec::CountStar => row.push(Value::Int(g.count)),
                        AggSpec::Sum { zero_default, .. } => {
                            row.push(g.sums[si].finish(*zero_default));
                            si += 1;
                        }
                    }
                }
                row
            })
            .collect();
        if out.is_empty() && self.n_keys == 0 {
            let empty = GroupState {
                count: 0,
                sums: vec![SumState::default(); self.n_sums()],
            };
            let mut row = Vec::new();
            let mut si = 0;
            for spec in &self.aggs {
                match spec {
                    AggSpec::CountStar => row.push(Value::Int(0)),
                    AggSpec::Sum { zero_default, .. } => {
                        row.push(empty.sums[si].finish(*zero_default));
                        si += 1;
                    }
                }
            }
            out.push(row);
        }
        out
    }
}

/// One registered view and its maintained state.
struct MaintainedView {
    id: ViewId,
    name: String,
    expr: SpjgExpr,
    strategy: MaintainStrategy,
    /// The view's compiled plan — for incremental aggregate views, its SPJ
    /// core — run for materialization, refresh and the delta joins.
    prog: PlanProgram,
    /// Incremental aggregate views: the counting rollup.
    agg: Option<AggCore>,
    /// The served contents (for aggregate views, the finished rows — kept
    /// current after every fold).
    rows: Vec<Row>,
    /// Recompute pending: a relevant write happened and the view has not
    /// been refreshed since.
    dirty: bool,
}

impl MaintainedView {
    /// Recompute the contents from the current base tables and clear the
    /// dirty flag. `bag` is scratch for the program's output.
    fn recompute(&mut self, db: &Database, scratch: &mut ExecScratch, bag: &mut RowBag) {
        self.prog.execute(db, scratch, bag);
        self.rows = match &mut self.agg {
            Some(agg) => {
                agg.groups.clear();
                agg.fold(bag, 1);
                agg.finish()
            }
            None => bag.to_rows(),
        };
        self.dirty = false;
    }
}

/// The maintenance driver: owns the base data and every registered view's
/// materialized state, and applies write rounds to both.
pub struct Maintainer {
    db: Database,
    views: Vec<MaintainedView>,
    /// Position of each registered view in `views`.
    slots: HashMap<ViewId, usize>,
    scratch: ExecScratch,
    /// Output scratch for the delete and insert delta joins.
    minus: RowBag,
    plus: RowBag,
}

impl Maintainer {
    /// Wrap a loaded database. Views are registered separately so their
    /// initial materialization sees the data.
    pub fn new(db: Database) -> Self {
        Maintainer {
            db,
            views: Vec::new(),
            slots: HashMap::new(),
            scratch: ExecScratch::new(),
            minus: RowBag::new(),
            plus: RowBag::new(),
        }
    }

    /// The current base data (deltas applied so far included).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Materialize and register a view for maintenance under the id the
    /// matching engine knows it by. Returns the chosen strategy:
    /// incremental when every base table occurs once and (for aggregate
    /// views) every aggregate is `COUNT(*)` or an integer-typed `SUM`;
    /// recompute otherwise. Re-registering an id replaces its state.
    pub fn register(&mut self, id: ViewId, def: &ViewDef) -> MaintainStrategy {
        let expr = def.expr.clone();
        let strategy = self.classify(&expr);
        let (prog, agg) = if strategy == MaintainStrategy::Incremental && expr.is_aggregate() {
            let (core, agg) = build_agg_core(&expr);
            (PlanProgram::compile(&self.db.catalog, &core), Some(agg))
        } else {
            (PlanProgram::compile(&self.db.catalog, &expr), None)
        };
        let mut view = MaintainedView {
            id,
            name: def.name.clone(),
            expr,
            strategy,
            prog,
            agg,
            rows: Vec::new(),
            dirty: false,
        };
        view.recompute(&self.db, &mut self.scratch, &mut self.plus);
        match self.slots.get(&id) {
            Some(&i) => self.views[i] = view,
            None => {
                self.slots.insert(id, self.views.len());
                self.views.push(view);
            }
        }
        strategy
    }

    fn classify(&self, expr: &SpjgExpr) -> MaintainStrategy {
        let mut tables: Vec<TableId> = expr.tables.clone();
        tables.sort_unstable();
        let single_occurrence = tables.windows(2).all(|w| w[0] != w[1]);
        if !single_occurrence {
            return MaintainStrategy::Recompute;
        }
        if let OutputList::Aggregate { aggregates, .. } = &expr.output {
            for agg in aggregates {
                if let Some(arg) = agg.func.argument() {
                    let ty = arg.infer_type(&|c| expr.col_type(&self.db.catalog, c));
                    if ty != Some(ColumnType::Int) {
                        // Float sums accumulate order-dependently; an
                        // add-then-subtract round trip need not restore
                        // the recompute value, so only exact integer sums
                        // self-maintain.
                        return MaintainStrategy::Recompute;
                    }
                }
            }
        }
        MaintainStrategy::Incremental
    }

    fn view(&self, id: ViewId) -> Option<&MaintainedView> {
        self.slots.get(&id).map(|&i| &self.views[i])
    }

    fn view_mut(&mut self, id: ViewId) -> Option<&mut MaintainedView> {
        self.slots.get(&id).map(|&i| &mut self.views[i])
    }

    /// The strategy a registered view runs under.
    pub fn strategy(&self, id: ViewId) -> Option<MaintainStrategy> {
        self.view(id).map(|v| v.strategy)
    }

    /// The maintained contents of a registered view (the rows a substitute
    /// scanning the view reads). `None` for unregistered ids.
    pub fn contents(&self, id: ViewId) -> Option<&[Row]> {
        self.view(id).map(|v| v.rows.as_slice())
    }

    /// Is the view waiting for a [`Maintainer::refresh`]?
    pub fn is_dirty(&self, id: ViewId) -> bool {
        self.view(id).is_some_and(|v| v.dirty)
    }

    /// Apply one write round: propagate the delta into every registered
    /// view that references the table (or mark it dirty), then apply it to
    /// the base table.
    pub fn apply(&mut self, delta: &TableDelta) -> DeltaReport {
        let mut report = DeltaReport::default();
        let Maintainer {
            db,
            views,
            scratch,
            minus,
            plus,
            ..
        } = self;
        // The delta joins evaluate against the *current* base state with
        // only the written table overridden, so propagation runs before
        // the base apply.
        for view in views.iter_mut() {
            if !view.expr.tables.contains(&delta.table) {
                continue;
            }
            if view.strategy == MaintainStrategy::Recompute || view.dirty {
                view.dirty = true;
                report.marked_dirty += 1;
                continue;
            }
            eval_delta(db, scratch, &view.prog, delta.table, &delta.deletes, minus);
            eval_delta(db, scratch, &view.prog, delta.table, &delta.inserts, plus);
            if let Some(agg) = &mut view.agg {
                agg.fold(minus, -1);
                agg.fold(plus, 1);
                view.rows = agg.finish();
            } else {
                bag_remove(&mut view.rows, minus);
                view.rows.extend(plus.rows().map(<[Value]>::to_vec));
            }
            report.maintained += 1;
        }
        report.rows_deleted = self.db.delete_rows(delta.table, &delta.deletes);
        self.db.insert_rows(delta.table, &delta.inserts);
        report
    }

    /// [`Maintainer::apply`] plus engine bookkeeping: records the write
    /// round ([`MatchingEngine::record_base_write`]) and restamps every
    /// view updated in place in one snapshot publication
    /// ([`MatchingEngine::mark_views_maintained`]), so freshness-aware
    /// matching sees exactly the views whose contents track the new data.
    /// Dirty views stay stale until [`Maintainer::refresh_with_engine`].
    pub fn apply_with_engine(
        &mut self,
        delta: &TableDelta,
        engine: &MatchingEngine,
    ) -> DeltaReport {
        engine.record_base_write(delta.table);
        let report = self.apply(delta);
        let maintained: Vec<ViewId> = self
            .views
            .iter()
            .filter(|v| v.expr.tables.contains(&delta.table) && !v.dirty)
            .map(|v| v.id)
            .collect();
        engine.mark_views_maintained(&maintained);
        report
    }

    /// Recompute a view from the base tables, in place, and clear its
    /// dirty flag. Returns `false` for unregistered ids.
    pub fn refresh(&mut self, id: ViewId) -> bool {
        let Some(&i) = self.slots.get(&id) else {
            return false;
        };
        self.views[i].recompute(&self.db, &mut self.scratch, &mut self.plus);
        true
    }

    /// [`Maintainer::refresh`] plus a
    /// [`MatchingEngine::mark_view_maintained`] restamp.
    pub fn refresh_with_engine(&mut self, id: ViewId, engine: &MatchingEngine) -> bool {
        if !self.refresh(id) {
            return false;
        }
        engine.mark_view_maintained(id);
        true
    }

    /// Recompute every dirty view.
    pub fn refresh_all(&mut self) {
        for view in &mut self.views {
            if view.dirty {
                view.recompute(&self.db, &mut self.scratch, &mut self.plus);
            }
        }
    }

    /// The MV4xx state audit: every registered, non-dirty view's
    /// maintained contents must equal recompute-from-scratch as row bags
    /// (MV401 `maintained-drift`), and no aggregate rollup may hold a
    /// group at count ≤ 0 (MV403 `zombie-group`). Dirty views are exempt
    /// from MV401 — they are *declared* stale, not wrong.
    pub fn audit(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for view in &self.views {
            if let Some(agg) = &view.agg {
                for (key, g) in &agg.groups {
                    if g.count <= 0 {
                        out.push(
                            Diagnostic::new(
                                RuleId::ZombieGroup,
                                Severity::Error,
                                format!(
                                    "group {key:?} held at count {} after maintenance",
                                    g.count
                                ),
                            )
                            .with_view(&view.name),
                        );
                    }
                }
            }
            if view.dirty {
                continue;
            }
            let want = execute_spjg(&self.db, &view.expr);
            if let Some(diff) = bag_diff(&view.rows, &want) {
                out.push(
                    Diagnostic::new(
                        RuleId::MaintainedDrift,
                        Severity::Error,
                        format!("maintained contents differ from recompute: {diff}"),
                    )
                    .with_view(&view.name),
                );
            }
        }
        out
    }

    /// Corruption hook for the audit suite: drop one row from a view's
    /// maintained contents, simulating a skipped insert delta. Never call
    /// outside tests.
    #[doc(hidden)]
    pub fn corrupt_drop_row_for_audit(&mut self, id: ViewId) -> bool {
        let Some(view) = self.view_mut(id) else {
            return false;
        };
        if view.rows.is_empty() {
            return false;
        }
        view.rows.remove(0);
        true
    }

    /// Corruption hook for the audit suite: re-insert a group at count
    /// zero into an aggregate view's rollup (and its finished rows),
    /// simulating a counting bug that forgets to delete emptied groups.
    /// Never call outside tests.
    #[doc(hidden)]
    pub fn corrupt_zombie_group_for_audit(&mut self, id: ViewId, key: Vec<Value>) -> bool {
        let Some(view) = self.view_mut(id) else {
            return false;
        };
        let Some(agg) = &mut view.agg else {
            return false;
        };
        let n_sums = agg.n_sums();
        agg.groups.insert(
            key,
            GroupState {
                count: 0,
                sums: vec![SumState::default(); n_sums],
            },
        );
        view.rows = finish_with_zombies(agg);
        true
    }
}

/// Like [`AggCore::finish`] but keeping count-zero groups — only the
/// zombie corruption hook wants this, to make the forged group visible in
/// the served rows as well as the rollup.
fn finish_with_zombies(agg: &AggCore) -> Vec<Row> {
    let mut out = agg.finish();
    for (key, g) in &agg.groups {
        if g.count <= 0 {
            let mut row = key.clone();
            let mut si = 0;
            for spec in &agg.aggs {
                match spec {
                    AggSpec::CountStar => row.push(Value::Int(g.count)),
                    AggSpec::Sum { zero_default, .. } => {
                        row.push(g.sums[si].finish(*zero_default));
                        si += 1;
                    }
                }
            }
            out.push(row);
        }
    }
    out
}

/// Build the counting rollup for an aggregate view, with the SPJ core it
/// folds: the core projects the group-by expressions, then one column per
/// `SUM` argument.
fn build_agg_core(expr: &SpjgExpr) -> (SpjgExpr, AggCore) {
    let OutputList::Aggregate {
        group_by,
        aggregates,
    } = &expr.output
    else {
        unreachable!("agg core over an SPJ view");
    };
    let n_keys = group_by.len();
    let mut outputs: Vec<NamedExpr> = group_by.clone();
    let mut aggs = Vec::with_capacity(aggregates.len());
    for na in aggregates {
        match &na.func {
            AggFunc::CountStar => aggs.push(AggSpec::CountStar),
            AggFunc::Sum(arg) => {
                aggs.push(AggSpec::Sum {
                    slot: outputs.len(),
                    zero_default: false,
                });
                outputs.push(NamedExpr::new(arg.clone(), &na.name));
            }
            AggFunc::SumZero(arg) => {
                aggs.push(AggSpec::Sum {
                    slot: outputs.len(),
                    zero_default: true,
                });
                outputs.push(NamedExpr::new(arg.clone(), &na.name));
            }
        }
    }
    let core = SpjgExpr {
        tables: expr.tables.clone(),
        conjuncts: expr.conjuncts.clone(),
        output: OutputList::Spj(outputs),
    };
    let agg = AggCore {
        n_keys,
        aggs,
        groups: HashMap::new(),
    };
    (core, agg)
}

/// Evaluate a view's delta join into `out`: its program with `table`'s
/// rows replaced by `delta_rows`. `swap_rows` lends the override to the
/// database and takes it back without copying the table.
fn eval_delta(
    db: &mut Database,
    scratch: &mut ExecScratch,
    prog: &PlanProgram,
    table: TableId,
    delta_rows: &[Row],
    out: &mut RowBag,
) {
    if delta_rows.is_empty() {
        out.clear();
        return;
    }
    let mut override_rows: Vec<Row> = delta_rows.to_vec();
    db.swap_rows(table, &mut override_rows);
    prog.execute(db, scratch, out);
    db.swap_rows(table, &mut override_rows);
}

/// Remove each row of `minus` from `rows` once, bag-style. Returns the
/// number actually removed (a shortfall means the delta join produced rows
/// the maintained bag did not hold — drift the audit will flag).
fn bag_remove(rows: &mut Vec<Row>, minus: &RowBag) -> usize {
    if minus.is_empty() {
        return 0;
    }
    let mut pending: Vec<&[Value]> = minus.rows().collect();
    let before = rows.len();
    rows.retain(|r| {
        if let Some(pos) = pending.iter().position(|p| *p == r.as_slice()) {
            pending.swap_remove(pos);
            false
        } else {
            true
        }
    });
    before - rows.len()
}

/// The MV4xx serving audit: run every query through the engine and check
/// each substitute's freshness claim against the engine's epoch
/// bookkeeping and the maintainer's contents.
///
/// * A substitute stamped `Fresh` from a view whose data epochs trail the
///   current table epochs is MV402 `stale-serving` — the freshness gate
///   leaked a stale view.
/// * A `Fresh` substitute whose execution against the maintained contents
///   differs from the query against base data (row-bag comparison, the
///   `--exec-check` discipline) is also MV402: whatever the stamp says,
///   the rewrite served wrong rows.
/// * A view stamp *ahead* of a current table epoch is MV404
///   `stamp-regression` — stamps may only trail.
pub fn audit_serving(
    engine: &MatchingEngine,
    maintainer: &Maintainer,
    queries: &[SpjgExpr],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for view in &maintainer.views {
        if let Some(stamp) = engine.view_data_epochs(view.id) {
            for (t, stamped) in stamp {
                let cur = engine.data_epoch(t);
                if stamped > cur {
                    out.push(
                        Diagnostic::new(
                            RuleId::StampRegression,
                            Severity::Error,
                            format!(
                                "data-epoch stamp {stamped} for table {} leads current epoch {cur}",
                                t.0
                            ),
                        )
                        .with_view(&view.name),
                    );
                }
            }
        }
    }
    for (qi, query) in queries.iter().enumerate() {
        let want = execute_spjg(maintainer.db(), query);
        for (id, sub) in engine.find_substitutes(query) {
            if !sub.freshness.is_fresh() {
                continue;
            }
            let label = || format!("q{qi}");
            match engine.view_staleness(id) {
                Some(0) => {}
                lag => {
                    out.push(
                        Diagnostic::new(
                            RuleId::StaleServing,
                            Severity::Error,
                            format!(
                                "substitute stamped Fresh from view {} at staleness {lag:?}",
                                id.0
                            ),
                        )
                        .with_query(label()),
                    );
                }
            }
            let Some(rows) = maintainer.contents(id) else {
                continue;
            };
            let got = execute_substitute_with(maintainer.db(), rows, &sub);
            if let Some(diff) = bag_diff(&got, &want) {
                out.push(
                    Diagnostic::new(
                        RuleId::StaleServing,
                        Severity::Error,
                        format!("Fresh substitute served wrong rows: {diff}"),
                    )
                    .with_query(label()),
                );
            }
        }
    }
    out
}
