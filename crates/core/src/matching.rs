//! The view-matching tests of section 3 and substitute construction.
//!
//! Given a query SPJG block and one candidate view, [`match_view`] decides
//! whether the query can be computed from the view alone and, if so, builds
//! the [`Substitute`]. The pipeline follows the paper:
//!
//! 1. table correspondence (query tables ⊆ view tables, occurrence-aware),
//! 2. extra-table elimination through cardinality-preserving joins (§3.2),
//! 3. equijoin subsumption test + compensating equality predicates (§3.1.2,
//!    §3.1.3 type 1),
//! 4. range subsumption test + compensating range predicates (type 2),
//! 5. residual subsumption test + compensating residual predicates (type 3),
//! 6. output-expression mapping (§3.1.4) and aggregation handling (§3.3).

use crate::descriptor::{occurrences_by_table, PreparedView};
use crate::fkgraph::{build_fk_graph, eliminate};
use crate::summary::{remap_col, ExprSummary};
use mv_catalog::{Catalog, TableId};
use mv_expr::{BoolExpr, ClassIndex, ColRef, EquivClasses, Interval, OccId, ScalarExpr, Template};
use mv_plan::{
    AggFunc, Freshness, NamedAgg, NamedExpr, OutputList, SpjgExpr, Substitute, ViewDef, ViewId,
};
use std::collections::HashMap;

/// When may a view whose materialized state trails the current base data
/// substitute for a query? Enforced against the per-table *data epochs*
/// the engine tracks (bumped by
/// [`crate::MatchingEngine::record_base_write`], restamped per view by
/// [`crate::MatchingEngine::mark_view_maintained`]) by one gate that runs
/// after the substitute cache, on the snapshot the match pinned: the
/// §3 tests and the cache see the catalog only. Every returned
/// [`Substitute`] carries the [`Freshness`] the policy admitted it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FreshnessPolicy {
    /// Only views whose data epochs match the current table epochs may
    /// substitute: every substitute is an exact rewrite over current data.
    StrictFresh,
    /// Views may lag the current data epochs by at most `n` write rounds
    /// (per table); `BoundedStaleness(0)` behaves like
    /// [`FreshnessPolicy::StrictFresh`].
    BoundedStaleness(u64),
    /// Any registered view may substitute regardless of staleness; the
    /// substitute still reports its actual [`Freshness`]. The default —
    /// and exactly the paper's static-catalog behavior.
    #[default]
    StaleOk,
}

impl FreshnessPolicy {
    /// Does the policy admit a view lagging the current data epochs by
    /// `lag` write rounds?
    pub fn admits(&self, lag: u64) -> bool {
        match self {
            FreshnessPolicy::StrictFresh => lag == 0,
            FreshnessPolicy::BoundedStaleness(n) => lag <= *n,
            FreshnessPolicy::StaleOk => true,
        }
    }
}

/// Tunables for the matcher and the filter tree.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Enable the section 3.2 extension: a *nullable* foreign-key column
    /// still supports a cardinality-preserving join when the query carries
    /// a null-rejecting predicate on that column (Example 5). The paper's
    /// prototype left this unimplemented; we provide it behind this flag.
    pub null_rejecting_fk: bool,
    /// Enable the section 4.2.2 hub refinement: tables carrying a range or
    /// residual predicate on a column outside every non-trivial equivalence
    /// class stay in the hub, strengthening the hub filter condition.
    pub refined_hubs: bool,
    /// Use the filter tree to narrow candidates (section 4). With this off
    /// the engine checks every view — the "No Filter" series of Figure 2.
    pub use_filter_tree: bool,
    /// Upper bound on occurrence bijections tried for self-join table
    /// correspondence (factorial blow-up guard; the paper's workload never
    /// repeats a table, so one mapping is the overwhelmingly common case).
    pub max_table_mappings: usize,
    /// Enable base-table backjoins (the section 7 extension): when a view
    /// covers all tables and rows but lacks some columns, and it outputs a
    /// non-null unique key of one of its tables, the matcher may join the
    /// view back to that base table to pull the missing columns in.
    pub allow_backjoins: bool,
    /// Fold declared check constraints into the query's antecedent
    /// (section 3.1.2): a view predicate that is implied by a check
    /// constraint no longer blocks matching. Constraints are registered
    /// with [`crate::MatchingEngine::add_check_constraint`].
    pub use_check_constraints: bool,
    /// Keep the paper's conservative output/grouping-expression filter
    /// conditions (sections 4.2.7/4.2.8), which "ignore the possibility of
    /// computing an expression from scratch using plain columns": a query
    /// whose complex output expression could only be *recomputed* from a
    /// view's simple columns is filtered out before the full tests run,
    /// exactly as in the SQL Server prototype. Disable to drop those two
    /// conditions (weaker pruning, never misses a recomputable rewrite).
    pub strict_expression_filter: bool,
    /// Candidate count at or above which `find_substitutes` fans the
    /// per-candidate `match_view` loop out across threads. Below the
    /// threshold the loop stays serial: on the paper's workload the filter
    /// tree leaves a handful of candidates (< 0.4 % of views), where
    /// thread spawn costs more than the matching itself. Results are
    /// deterministic either way — substitutes come back ordered by
    /// [`mv_plan::ViewId`], byte-identical to the serial path. Set to
    /// `usize::MAX` to pin matching fully serial.
    pub parallel_threshold: usize,
    /// Worker cap for parallel matching and for
    /// `find_substitutes_many`'s per-group fan-out. `0` (the default)
    /// means use the machine's available parallelism.
    pub parallel_workers: usize,
    /// Capacity (entries) of the fingerprint-keyed substitute cache on
    /// [`crate::MatchingEngine::find_substitutes`]: repeated query shapes
    /// skip the filter tree and the matching tests entirely and return the
    /// cached substitute list (output names re-stamped from the probing
    /// query). `0` disables the cache. Entries are invalidated lazily on
    /// catalog changes (view registration/removal, check constraints) via
    /// per-table epochs; base writes and view restamps never invalidate
    /// them, because the freshness gate runs after the cache.
    pub substitute_cache_capacity: usize,
    /// Mutex stripes of the substitute cache; concurrent matchers only
    /// contend when their fingerprints share a stripe. Clamped to
    /// `[1, capacity]`.
    pub substitute_cache_shards: usize,
    /// Record wall-clock filter/match durations in [`crate::MatchStats`].
    /// With this off, `find_substitutes` performs zero clock reads — on
    /// the cached hot path the only work left is the fingerprint render
    /// and a shard probe.
    pub timing: bool,
    /// Database budget for the debug-build bounded-equivalence oracle:
    /// when nonzero (and `debug_assertions` are on), every substitute
    /// `find_substitutes` produces is additionally run through the
    /// `mv-prove` bounded model checker (DESIGN.md §15) at bound k = 2,
    /// visiting at most this many enumerated databases per pair, and any
    /// refutation (MV301/MV302) panics with the rendered witness. `0`
    /// disables the oracle; release builds never prove. Since the
    /// compiled-program prover (DESIGN.md §16) the oracle is cheap enough
    /// to default **on** in debug builds (2 000 databases per pair);
    /// release builds still default to `0`.
    pub prove_budget: usize,
    /// Freshness policy for substitute serving (see [`FreshnessPolicy`]):
    /// which views may substitute when base-table writes have outpaced
    /// their incremental maintenance. Defaults to
    /// [`FreshnessPolicy::StaleOk`], the static-catalog behavior.
    pub freshness: FreshnessPolicy,
}

impl MatchConfig {
    /// Workers to use for a candidate loop of `n_items`, honoring the
    /// threshold and cap; `1` means run serially. In auto mode
    /// (`parallel_workers == 0`) the fan-out is additionally sized so each
    /// worker gets at least [`MIN_CANDIDATES_PER_WORKER`] candidates —
    /// per-candidate matching runs a few microseconds, so a thinner split
    /// spends more on thread spawns than it saves (the bench trajectory
    /// recorded parallel *losing* to serial at 10k views for exactly this
    /// reason). An explicit worker count is honored as given.
    ///
    /// [`MIN_CANDIDATES_PER_WORKER`]: MatchConfig::MIN_CANDIDATES_PER_WORKER
    pub(crate) fn match_workers(&self, n_items: usize) -> usize {
        if n_items < self.parallel_threshold.max(2) {
            return 1;
        }
        let workers = self.batch_workers(n_items);
        if self.parallel_workers == 0 {
            // Auto mode falls back to serial whenever the fan-out cannot
            // pay for itself: a single effective worker (one core, or a
            // nested call from inside a batch worker) or a per-worker
            // share below the floor.
            let sized = workers.min(n_items / Self::MIN_CANDIDATES_PER_WORKER);
            if sized <= 1 {
                1
            } else {
                sized
            }
        } else {
            workers
        }
    }

    /// Smallest per-worker candidate share the auto-sized candidate-loop
    /// fan-out will accept (see [`MatchConfig::match_workers`]).
    pub const MIN_CANDIDATES_PER_WORKER: usize = 32;

    /// Workers for an unconditional fan-out over `n_items` (the batch
    /// entry point, which exists precisely to parallelize). In auto mode
    /// `mv_parallel::workers_for` already declines nested fan-outs and
    /// single-core machines, so a batch on one CPU runs the plain serial
    /// loop instead of paying per-call thread spawns for nothing.
    pub(crate) fn batch_workers(&self, n_items: usize) -> usize {
        if self.parallel_workers == 0 {
            mv_parallel::workers_for(n_items)
        } else {
            self.parallel_workers.min(n_items).max(1)
        }
    }
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            null_rejecting_fk: false,
            refined_hubs: true,
            use_filter_tree: true,
            max_table_mappings: 64,
            allow_backjoins: false,
            use_check_constraints: true,
            strict_expression_filter: true,
            parallel_threshold: 256,
            parallel_workers: 0,
            substitute_cache_capacity: 1024,
            substitute_cache_shards: 8,
            timing: true,
            prove_budget: if cfg!(debug_assertions) { 2_000 } else { 0 },
            freshness: FreshnessPolicy::default(),
        }
    }
}

/// A query prepared for matching against many candidate views: the
/// expression, its predicate summary, and the occurrences grouped by base
/// table — computed once per `find_substitutes` instead of per candidate.
pub struct PreparedQuery<'a> {
    /// The query block.
    pub expr: &'a SpjgExpr,
    /// Its predicate analysis (with check constraints folded in, when the
    /// engine has any).
    pub summary: &'a ExprSummary,
    /// Occurrences grouped by base table, sorted by table id.
    pub by_table: Vec<(TableId, Vec<OccId>)>,
    /// The summary's equivalence classes materialized once — the
    /// substitute-construction lookups probe classes per column per
    /// accepted candidate, which a per-probe scan made the hot spot.
    pub ec_index: ClassIndex,
}

impl<'a> PreparedQuery<'a> {
    /// Prepare a query for a candidate loop.
    pub fn new(expr: &'a SpjgExpr, summary: &'a ExprSummary) -> PreparedQuery<'a> {
        PreparedQuery {
            expr,
            summary,
            by_table: occurrences_by_table(expr),
            ec_index: summary.ec.class_index(),
        }
    }
}

/// Decide whether `query` can be computed from `view` and build the
/// substitute. `qsum`/`vsum` are the precomputed predicate summaries.
///
/// Convenience wrapper over [`match_view_prepared`] that builds the
/// prepared forms on the fly; a candidate loop should prepare once and
/// call [`match_view_prepared`] directly.
pub fn match_view(
    catalog: &Catalog,
    config: &MatchConfig,
    query: &SpjgExpr,
    qsum: &ExprSummary,
    view_id: ViewId,
    view: &ViewDef,
    vsum: &ExprSummary,
) -> Option<Substitute> {
    let pq = PreparedQuery::new(query, qsum);
    let pv = PreparedView::prepare(catalog, config, &view.expr, vsum.clone(), Vec::new());
    match_view_prepared(catalog, config, &pq, view_id, view, &pv)
}

/// Decide whether the prepared query can be computed from the prepared
/// view and build the substitute.
pub fn match_view_prepared(
    catalog: &Catalog,
    config: &MatchConfig,
    pq: &PreparedQuery<'_>,
    view_id: ViewId,
    view: &ViewDef,
    pv: &PreparedView,
) -> Option<Substitute> {
    // An SPJ query cannot be computed from an aggregation view: the view
    // is "more aggregated" (section 3.3, requirement 3).
    if !pq.expr.is_aggregate() && view.expr.is_aggregate() {
        return None;
    }

    // Table correspondence: the query's table multiset must be a subset of
    // the view's (requirement: "There is no need to consider views with
    // fewer tables than the query").
    for (t, qoccs) in &pq.by_table {
        let available = pv
            .by_table
            .binary_search_by_key(t, |(vt, _)| *vt)
            .map(|i| pv.by_table[i].1.len())
            .unwrap_or(0);
        if available < qoccs.len() {
            return None;
        }
    }

    // Enumerate injective assignments of query occurrences to view
    // occurrences, per base table. With no self-joins this is a single
    // mapping. Both grouping lists are sorted by table id, so the
    // enumeration order — and therefore which of several valid mappings
    // wins — is deterministic.
    let mappings = enumerate_mappings(
        view.expr.tables.len(),
        &pq.by_table,
        &pv.by_table,
        config.max_table_mappings,
    );
    mappings
        .into_iter()
        .find_map(|assign| try_match(catalog, config, pq, view_id, view, pv, &assign))
}

/// Build all injective mappings `view occurrence -> query occurrence`
/// (as `assign[view_occ] = Some(query_occ)`, `None` = extra table).
/// Both grouping lists are sorted by table id (see
/// [`occurrences_by_table`]); the caller has verified the query tables
/// are a subset of the view's.
fn enumerate_mappings(
    n_view_occs: usize,
    q_by_table: &[(TableId, Vec<OccId>)],
    v_by_table: &[(TableId, Vec<OccId>)],
    cap: usize,
) -> Vec<Vec<Option<OccId>>> {
    // Fast path: when no shared table repeats on either side the single
    // injective mapping is forced — skip the placement product and its
    // nested allocations. This is the overwhelmingly common case (the
    // paper's workload never repeats a table).
    if cap > 0 && q_by_table.iter().all(|(_, q)| q.len() == 1) {
        let mut m: Vec<Option<OccId>> = vec![None; n_view_occs];
        let mut forced = true;
        for (t, qoccs) in q_by_table {
            let voccs = &v_by_table[v_by_table
                .binary_search_by_key(t, |(vt, _)| *vt)
                .expect("table correspondence checked by the caller")]
            .1;
            if voccs.len() != 1 {
                forced = false;
                break;
            }
            m[voccs[0].0 as usize] = Some(qoccs[0]);
        }
        if forced {
            return vec![m];
        }
    }
    let mut result: Vec<Vec<Option<OccId>>> = vec![vec![None; n_view_occs]];
    for (t, qoccs) in q_by_table {
        let voccs = &v_by_table[v_by_table
            .binary_search_by_key(t, |(vt, _)| *vt)
            .expect("table correspondence checked by the caller")]
        .1;
        // All injective placements of `qoccs` into `voccs`.
        let placements = injections(qoccs, voccs);
        let mut next = Vec::new();
        for base in &result {
            for placement in &placements {
                if next.len() >= cap {
                    break;
                }
                let mut m = base.clone();
                for (q, v) in placement {
                    m[v.0 as usize] = Some(*q);
                }
                next.push(m);
            }
        }
        result = next;
    }
    result
}

/// All injective assignments of each query occurrence to a distinct view
/// occurrence (both of the same base table).
fn injections(qoccs: &[OccId], voccs: &[OccId]) -> Vec<Vec<(OccId, OccId)>> {
    fn rec(
        qoccs: &[OccId],
        voccs: &[OccId],
        used: &mut Vec<bool>,
        acc: &mut Vec<(OccId, OccId)>,
        out: &mut Vec<Vec<(OccId, OccId)>>,
    ) {
        if acc.len() == qoccs.len() {
            out.push(acc.clone());
            return;
        }
        let q = qoccs[acc.len()];
        for (i, &v) in voccs.iter().enumerate() {
            if !used[i] {
                used[i] = true;
                acc.push((q, v));
                rec(qoccs, voccs, used, acc, out);
                acc.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(
        qoccs,
        voccs,
        &mut vec![false; voccs.len()],
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// Per-candidate accessor over the precomputed [`PreparedOutputs`]: the
/// view-space output maps of the descriptor plus this match's occurrence
/// translation and the backjoins it activates. Probes arrive in query
/// space and are translated through `inv`; the maps themselves are never
/// rebuilt — building them (plus a per-accept union-find and template
/// re-render) per accepted candidate was the accept-path hot spot.
struct OutputCtx<'a> {
    pv: &'a PreparedView,
    /// View occurrence index → query-space occurrence (the fixed
    /// assignment; extras carry the trailing fresh ids).
    occ_map: &'a [OccId],
    /// Query-space occurrence → view occurrence index. The inverse of
    /// `occ_map`, total over query space: every query occurrence is
    /// assigned and the extras' fresh ids are contiguous behind them.
    inv: Vec<u32>,
    /// Backjoins actually used by this match, in activation order:
    /// (view occurrence, base position of its columns in the extended
    /// space).
    backjoin_active: std::cell::RefCell<Vec<(OccId, usize)>>,
}

impl OutputCtx<'_> {
    /// Translate a query-space column into view space.
    fn to_view(&self, c: ColRef) -> ColRef {
        ColRef {
            occ: OccId(self.inv[c.occ.0 as usize]),
            col: c.col,
        }
    }

    /// Translate a view-space column into query space.
    fn to_query(&self, c: ColRef) -> ColRef {
        ColRef {
            occ: self.occ_map[c.occ.0 as usize],
            col: c.col,
        }
    }

    /// Output position of view-space column `v`, exact.
    fn vpos(&self, v: ColRef) -> Option<usize> {
        self.pv.outputs.col_pos.get(&v).copied()
    }

    /// Position of query-space `c` rerouting through the *view's*
    /// equivalence classes; no backjoins.
    fn direct_position_v(&self, c: ColRef) -> Option<usize> {
        let v = self.to_view(c);
        if let Some(p) = self.vpos(v) {
            return Some(p);
        }
        let i = *self.pv.ec_class.get(&v)? as usize;
        self.pv.nontrivial_ecs[i].iter().find_map(|m| self.vpos(*m))
    }

    /// Position of query-space `c` rerouting through the *view's*
    /// equivalence classes, backjoins allowed (the type-1 compensation
    /// routes here — section 3.1.3).
    fn find_position_v(&self, c: ColRef) -> Option<usize> {
        if let Some(p) = self.direct_position_v(c) {
            return Some(p);
        }
        if self.pv.outputs.backjoins.is_empty() {
            return None;
        }
        let v = self.to_view(c);
        let class: &[ColRef] = match self.pv.ec_class.get(&v) {
            Some(&i) => &self.pv.nontrivial_ecs[i as usize],
            None => &[],
        };
        std::iter::once(v)
            .chain(class.iter().copied())
            .find_map(|m| self.backjoin_position(m))
    }

    /// Map a query column to an output position, rerouting through the
    /// query equivalence classes ("we exploit equalities among columns by
    /// considering each column reference to refer to the equivalence class
    /// containing the column", section 3.1.3). `ix` is `ec`'s prebuilt
    /// [`ClassIndex`].
    fn find_position(&self, c: ColRef, ec: &EquivClasses, ix: &ClassIndex) -> Option<usize> {
        if let Some(p) = self.direct_position(c, ec, ix) {
            return Some(p);
        }
        // Section 7 extension: reach the column through a backjoin.
        if self.pv.outputs.backjoins.is_empty() {
            return None;
        }
        let class = ix.members(ec.find(c)).unwrap_or(&[]);
        std::iter::once(c)
            .chain(class.iter().copied())
            .find_map(|m| self.backjoin_position(self.to_view(m)))
    }

    /// Like [`OutputCtx::find_position`] but restricted to the view's own
    /// output columns (no backjoins).
    fn direct_position(&self, c: ColRef, ec: &EquivClasses, ix: &ClassIndex) -> Option<usize> {
        if let Some(p) = self.vpos(self.to_view(c)) {
            return Some(p);
        }
        ix.members(ec.find(c))?
            .iter()
            .find_map(|m| self.vpos(self.to_view(*m)))
    }

    /// Like [`OutputCtx::find_position`], but *representative-blind*: the
    /// whole class is scanned in sorted order with no shortcut for `c`
    /// itself, so every member of a class resolves to the same position.
    /// Used where the probed column is a class representative (whose
    /// choice depends on predicate fold order) rather than a semantically
    /// pinned column — fingerprint-equal queries must produce
    /// byte-identical substitutes (see `crate::cache`).
    fn canonical_position(&self, c: ColRef, ec: &EquivClasses, ix: &ClassIndex) -> Option<usize> {
        // Sorted members, or just `[c]` for a column outside every class —
        // the same set `EquivClasses::class_of` returns.
        let class: &[ColRef] = ix.members(ec.find(c)).unwrap_or(std::slice::from_ref(&c));
        if let Some(p) = class.iter().find_map(|m| self.vpos(self.to_view(*m))) {
            return Some(p);
        }
        if self.pv.outputs.backjoins.is_empty() {
            return None;
        }
        class
            .iter()
            .find_map(|&m| self.backjoin_position(self.to_view(m)))
    }

    /// Position of view-space `v` through an active (or newly activated)
    /// backjoin.
    fn backjoin_position(&self, v: ColRef) -> Option<usize> {
        self.pv.outputs.backjoins.get(&v.occ)?;
        let mut active = self.backjoin_active.borrow_mut();
        let base = match active.iter().find(|(o, _)| *o == v.occ) {
            Some((_, base)) => *base,
            None => {
                let base = self.pv.outputs.arity
                    + active
                        .iter()
                        .map(|(o, _)| self.pv.outputs.backjoins[o].n_columns)
                        .sum::<usize>();
                active.push((v.occ, base));
                base
            }
        };
        Some(base + v.col.0 as usize)
    }

    /// The backjoins this match activated, ready for the substitute.
    fn take_backjoins(&self) -> Vec<mv_plan::BackJoin> {
        self.backjoin_active
            .borrow()
            .iter()
            .map(|(occ, _)| {
                let offer = &self.pv.outputs.backjoins[occ];
                mv_plan::BackJoin {
                    table: offer.table,
                    key: offer.key.clone(),
                }
            })
            .collect()
    }
}

/// Reference to view output column `pos`.
fn out_col(pos: usize) -> ScalarExpr {
    ScalarExpr::Column(ColRef::new(0, pos as u32))
}

/// Map a scalar expression onto the view's outputs (section 3.1.4):
/// constants copy through; simple columns reroute through `ec`; complex
/// expressions first try an exact template match against a view output,
/// then recomputation from simple output columns.
fn map_scalar(
    e: &ScalarExpr,
    ec: &EquivClasses,
    ix: &ClassIndex,
    ctx: &OutputCtx<'_>,
) -> Option<ScalarExpr> {
    if e.is_constant() {
        return Some(e.clone());
    }
    if let Some(c) = e.as_column() {
        return ctx.find_position(c, ec, ix).map(out_col);
    }
    let t = Template::of_scalar(e);
    // The stored view template is in view space; translate its columns to
    // query space on compare (template text is column-blind, so equality
    // of the rendered strings is unaffected).
    let same = |a: ColRef, b: ColRef| {
        let aq = ctx.to_query(a);
        aq == b || ec.same(aq, b)
    };
    for (vt, pos) in &ctx.pv.outputs.complex {
        if vt.matches(&t, &same) {
            return Some(out_col(*pos));
        }
    }
    e.try_map_columns(&mut |c| {
        ctx.find_position(c, ec, ix)
            .map(|p| ColRef::new(0, p as u32))
    })
}

/// Is `c` covered by a null-rejecting predicate in the query (other than
/// an equijoin)? Used by the nullable-FK relaxation of section 3.2.
fn is_null_rejecting(qsum: &ExprSummary, c: ColRef) -> bool {
    if qsum.is_range_constrained(c) {
        return true;
    }
    let same = |x: ColRef| x == c || qsum.ec.same(x, c);
    qsum.residual_bools.iter().any(|p| match p {
        BoolExpr::Compare { .. } | BoolExpr::Like { .. } => p.columns().into_iter().any(same),
        BoolExpr::IsNull {
            negated: true,
            expr,
        } => expr.columns().into_iter().any(same),
        _ => false,
    })
}

/// Attempt a match under one fixed occurrence assignment.
fn try_match(
    catalog: &Catalog,
    config: &MatchConfig,
    pq: &PreparedQuery<'_>,
    view_id: ViewId,
    view: &ViewDef,
    pv: &PreparedView,
    assign: &[Option<OccId>],
) -> Option<Substitute> {
    let query = pq.expr;
    let qsum = pq.summary;
    let nq = query.tables.len() as u32;

    // §3.2 precheck from the prepared descriptor: an extra view table can
    // only be eliminated if some cardinality-preserving FK edge points at
    // it, and the descriptor's edge set is a superset of any per-query
    // graph's. A mapping leaving an edge-less occurrence unassigned can
    // never survive elimination — reject before building the graph.
    if assign
        .iter()
        .enumerate()
        .any(|(i, a)| a.is_none() && !pv.fk_incoming[i])
    {
        return None;
    }

    // View occurrence → query-space occurrence; extra tables get fresh
    // occurrence ids nq, nq+1, ...
    let mut occ_map: Vec<OccId> = Vec::with_capacity(assign.len());
    let mut extras: Vec<OccId> = Vec::new();
    let mut next = nq;
    for a in assign {
        match a {
            Some(q) => occ_map.push(*q),
            None => {
                occ_map.push(OccId(next));
                extras.push(OccId(next));
                next += 1;
            }
        }
    }
    let mapf = |o: OccId| occ_map[o.0 as usize];

    // Extended query equivalence classes (section 3.2: "we merely simulate
    // the addition of extra tables by updating query equivalence classes").
    // Cloning the query's union-find per candidate is pure overhead when
    // the view brings no extra tables — the common case borrows it. The
    // view's classes rebased into query space (needed for the FK graph)
    // are likewise only built on this rare path: the occurrence
    // substitution is injective, so distinct view classes stay distinct.
    let mut qec_owned: Option<EquivClasses> = None;
    if !extras.is_empty() {
        let mut vec_q = EquivClasses::new();
        for class in &pv.nontrivial_ecs {
            for pair in class.windows(2) {
                vec_q.union(remap_col(pair[0], &mapf), remap_col(pair[1], &mapf));
            }
        }
        let occs: Vec<(OccId, TableId)> =
            view.expr.occurrences().map(|(o, t)| (mapf(o), t)).collect();
        let nullable_ok =
            |c: ColRef| config.null_rejecting_fk && c.occ.0 < nq && is_null_rejecting(qsum, c);
        let graph = build_fk_graph(catalog, &occs, &vec_q, &nullable_ok);
        let elim = eliminate(&graph, &|o| extras.contains(&o));
        if elim.remaining.iter().any(|o| extras.contains(o)) {
            return None;
        }
        // Replay the join conditions of the deleted edges into the query's
        // equivalence classes.
        let mut q = qsum.ec.clone();
        for e in &elim.deleted_edges {
            for (f, c) in &e.col_pairs {
                q.union(*f, *c);
            }
        }
        qec_owned = Some(q);
    }
    let qec: &EquivClasses = qec_owned.as_ref().unwrap_or(&qsum.ec);

    // The three subsumption *tests* run before any substitute
    // construction: most candidates the filter tree lets through die in
    // one of them, and none of the tests needs the view-output maps or a
    // template remap. Rejected-is-rejected, so running the tests ahead of
    // the type-1 compensation (which can also reject, on an unmappable
    // output) leaves the accept set and the built substitutes unchanged.

    // ---- Equijoin subsumption test (section 3.1.2) ----
    // Every non-trivial view equivalence class must be a subset of some
    // query equivalence class.
    for class in &pv.nontrivial_ecs {
        let root = qec.find(remap_col(class[0], &mapf));
        if class[1..]
            .iter()
            .any(|&c| qec.find(remap_col(c, &mapf)) != root)
        {
            return None;
        }
    }

    // ---- Range subsumption test (type 2) ----
    // Rebase the query ranges onto the extended equivalence classes. With
    // no extra tables the rebase is the identity — the summary keys its
    // range maps by canonical class roots of the query's own classes —
    // so the common case borrows the summary's maps.
    let qranges_owned: Option<HashMap<ColRef, Interval>> = if extras.is_empty() {
        None
    } else {
        Some(rebase_ranges(&qsum.ranges, qec)?)
    };
    let qranges: &HashMap<ColRef, Interval> = qranges_owned.as_ref().unwrap_or(&qsum.ranges);
    // Every view range must contain the corresponding query range. The
    // prepared range list is sorted by class representative, so `veff`
    // accumulates in a deterministic order.
    let mut veff: HashMap<ColRef, Interval> = HashMap::new();
    for (vroot, iv) in &pv.ranges {
        let c = remap_col(*vroot, &mapf);
        let qroot = qec.find(c);
        let qiv = qranges.get(&qroot).cloned().unwrap_or_default();
        if iv.contains(&qiv) != Some(true) {
            return None;
        }
        let eff = veff.remove(&qroot).unwrap_or_default();
        veff.insert(qroot, eff.intersect(iv)?);
    }

    // ---- Residual subsumption test (type 3) ----
    // Matching the remapped view template in place avoids cloning every
    // template's text per candidate (`remap_template` allocates).
    let same = |a: ColRef, b: ColRef| a == b || qec.same(a, b);
    let v_matches_q = |vt: &Template, qt: &Template| {
        vt.text == qt.text
            && vt.cols.len() == qt.cols.len()
            && vt
                .cols
                .iter()
                .zip(&qt.cols)
                .all(|(&a, &b)| same(remap_col(a, &mapf), b))
    };
    // Every view residual must match a query residual, else the view may
    // lack required rows.
    for vt in &pv.summary.residuals {
        if !qsum.residuals.iter().any(|qt| v_matches_q(vt, qt)) {
            return None;
        }
    }

    // All tests passed — invert the occurrence assignment and build the
    // compensations against the precomputed view-space output maps.
    let inv = {
        let mut inv = vec![0u32; occ_map.len()];
        for (vi, q) in occ_map.iter().enumerate() {
            inv[q.0 as usize] = vi as u32;
        }
        inv
    };
    let ctx = OutputCtx {
        pv,
        occ_map: &occ_map,
        inv,
        backjoin_active: std::cell::RefCell::new(Vec::new()),
    };
    let qix_owned: Option<ClassIndex> = if extras.is_empty() {
        None
    } else {
        Some(qec.class_index())
    };
    let qix: &ClassIndex = qix_owned.as_ref().unwrap_or(&pq.ec_index);
    let mut predicates: Vec<BoolExpr> = Vec::new();

    // ---- Compensating column-equality predicates (section 3.1.3 type 1) --
    // "Whenever some view equivalence classes E1..En map to the same query
    // equivalence class E, we create a column-equality predicate between
    // any column in Ei and any column in Ei+1." These reroute through the
    // VIEW equivalence classes; a query column outside every view class is
    // its own singleton. (Each class contributes an independent predicate
    // group and the list is sorted below, so iterating classes by root
    // instead of by smallest member changes nothing observable.)
    for qclass in qix.nontrivial() {
        let mut parts: Vec<(VClassKey, ColRef)> = Vec::new(); // (view class, representative)
        for &c in qclass {
            let v = ctx.to_view(c);
            let key = match pv.ec_class.get(&v) {
                Some(&i) => VClassKey::Class(i),
                None => VClassKey::Solo(v),
            };
            if !parts.iter().any(|(k, _)| *k == key) {
                parts.push((key, c));
            }
        }
        for w in parts.windows(2) {
            let a = ctx.find_position_v(w[0].1)?;
            let b = ctx.find_position_v(w[1].1)?;
            predicates.push(BoolExpr::cmp(out_col(a), mv_expr::CmpOp::Eq, out_col(b)));
        }
    }

    // ---- Range compensation (type 2) ----
    // Enforce the query bounds that the view does not already guarantee —
    // only the *genuine* bounds: check-derived bounds hold on every view
    // row. Deterministic order for reproducible substitutes.
    let gen_owned: Option<HashMap<ColRef, Interval>> = if extras.is_empty() {
        None
    } else {
        Some(rebase_ranges(&qsum.genuine_ranges, qec)?)
    };
    let gen_ranges: &HashMap<ColRef, Interval> = gen_owned.as_ref().unwrap_or(&qsum.genuine_ranges);
    let mut qrange_list: Vec<(&ColRef, &Interval)> = gen_ranges.iter().collect();
    qrange_list.sort_by_key(|(c, _)| **c);
    for (qroot, qiv) in qrange_list {
        let viv = veff.get(qroot).cloned().unwrap_or_default();
        let comps = viv.compensation(qiv);
        if comps.is_empty() {
            continue;
        }
        // Route through QUERY equivalence classes (section 3.1.3 point 2).
        // `qroot` is a class *representative*, which depends on the
        // union-fold order — canonical_position scans the sorted class so
        // the emitted predicate does not (fingerprint-equal queries must
        // produce byte-identical substitutes; see `crate::cache`).
        let pos = ctx.canonical_position(*qroot, qec, qix)?;
        for (op, value) in comps {
            predicates.push(BoolExpr::cmp(out_col(pos), op, ScalarExpr::Literal(value)));
        }
    }

    // ---- Residual compensation (type 3) ----
    // Query residuals missing from the view must be enforced on top.
    // Check-constraint-derived residuals (beyond `genuine_residuals`) hold
    // on every view row already and are never compensated.
    for (qt, qb) in qsum
        .residuals
        .iter()
        .zip(&qsum.residual_bools)
        .take(qsum.genuine_residuals)
    {
        if pv.summary.residuals.iter().any(|vt| v_matches_q(vt, qt)) {
            continue;
        }
        let mapped = qb.try_map_columns(&mut |c| {
            ctx.find_position(c, qec, qix)
                .map(|p| ColRef::new(0, p as u32))
        })?;
        predicates.push(mapped);
    }

    // ---- Output expressions (sections 3.1.4 and 3.3) ----
    let output = build_output(query, view.expr.is_aggregate(), qec, qix, &ctx)?;

    // Canonical predicate order: the compensations above are emitted in
    // an order that can follow the query's conjunct order (residuals) or
    // class representatives (ranges) — both of which differ between
    // fingerprint-equal queries. Sorting by rendered text makes the
    // substitute depend only on the predicate *set*.
    predicates.sort_by_cached_key(|p| p.to_string());

    Some(Substitute {
        view: view_id,
        backjoins: ctx.take_backjoins(),
        predicates,
        output,
        // The engine's freshness gate overrides this per substitute;
        // direct `match_view` callers see the static-catalog default.
        freshness: Freshness::Fresh,
    })
}

/// Type-1 compensation key: the view equivalence class a query column
/// lands in, or the (translated) column itself when it is outside every
/// view class. Distinct keys need a compensating equality; see
/// `try_match`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VClassKey {
    Class(u32),
    Solo(ColRef),
}

/// Rebase a summary range map onto extended equivalence classes: entries
/// whose roots collapse into one class under the extension intersect
/// (`None` when an intersection comes up empty — no row satisfies the
/// extended query, so no substitute exists under this mapping).
fn rebase_ranges(
    src: &HashMap<ColRef, Interval>,
    qec: &EquivClasses,
) -> Option<HashMap<ColRef, Interval>> {
    let mut out: HashMap<ColRef, Interval> = HashMap::with_capacity(src.len());
    for (root, iv) in src {
        let r = qec.find(*root);
        match out.remove(&r) {
            Some(prev) => {
                out.insert(r, prev.intersect(iv)?);
            }
            None => {
                out.insert(r, iv.clone());
            }
        }
    }
    Some(out)
}

/// Construct the substitute's output list.
fn build_output(
    query: &SpjgExpr,
    view_is_aggregate: bool,
    qec: &EquivClasses,
    qix: &ClassIndex,
    ctx: &OutputCtx<'_>,
) -> Option<OutputList> {
    // Cross-space relation for SUM-argument templates: the stored view
    // template columns translate to query space before the equivalence
    // probe.
    let same = |a: ColRef, b: ColRef| {
        let aq = ctx.to_query(a);
        aq == b || qec.same(aq, b)
    };
    match &query.output {
        OutputList::Spj(items) => {
            // The caller already rejected (SPJ query, aggregate view).
            let mapped = items
                .iter()
                .map(|ne| {
                    map_scalar(&ne.expr, qec, qix, ctx).map(|e| NamedExpr::new(e, ne.name.clone()))
                })
                .collect::<Option<Vec<_>>>()?;
            Some(OutputList::Spj(mapped))
        }
        OutputList::Aggregate {
            group_by,
            aggregates,
        } if !view_is_aggregate => {
            // Aggregation query over an SPJ view: group the view directly.
            let gb = group_by
                .iter()
                .map(|ne| {
                    map_scalar(&ne.expr, qec, qix, ctx).map(|e| NamedExpr::new(e, ne.name.clone()))
                })
                .collect::<Option<Vec<_>>>()?;
            let aggs = aggregates
                .iter()
                .map(|na| {
                    let func = match &na.func {
                        AggFunc::CountStar => AggFunc::CountStar,
                        AggFunc::Sum(e) => AggFunc::Sum(map_scalar(e, qec, qix, ctx)?),
                        AggFunc::SumZero(e) => AggFunc::SumZero(map_scalar(e, qec, qix, ctx)?),
                    };
                    Some(NamedAgg::new(func, na.name.clone()))
                })
                .collect::<Option<Vec<_>>>()?;
            Some(OutputList::Aggregate {
                group_by: gb,
                aggregates: aggs,
            })
        }
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => {
            // Aggregation query over an aggregation view (section 3.3):
            // the view must be no more aggregated than the query, i.e.
            // every query grouping expression maps onto the view's
            // grouping outputs.
            let gb_mapped = group_by
                .iter()
                .map(|ne| map_scalar(&ne.expr, qec, qix, ctx))
                .collect::<Option<Vec<_>>>()?;
            // Positions of directly-matched view grouping outputs.
            let direct: Vec<Option<usize>> = gb_mapped
                .iter()
                .map(|e| {
                    e.as_column()
                        .map(|c| c.col.0 as usize)
                        .filter(|&p| p < ctx.pv.outputs.scalar_len)
                })
                .collect();
            // No further aggregation is needed exactly when the query
            // grouping list covers every view grouping output.
            let no_regroup = direct.iter().all(|d| d.is_some())
                && (0..ctx.pv.outputs.scalar_len).all(|p| direct.contains(&Some(p)));
            if no_regroup {
                let mut items: Vec<NamedExpr> = group_by
                    .iter()
                    .zip(&gb_mapped)
                    .map(|(ne, e)| NamedExpr::new(e.clone(), ne.name.clone()))
                    .collect();
                for na in aggregates {
                    let e = match &na.func {
                        AggFunc::CountStar => out_col(ctx.pv.outputs.count_pos?),
                        AggFunc::Sum(arg) | AggFunc::SumZero(arg) => {
                            out_col(find_sum(ctx, arg, &same)?)
                        }
                    };
                    items.push(NamedExpr::new(e, na.name.clone()));
                }
                Some(OutputList::Spj(items))
            } else {
                let gb = group_by
                    .iter()
                    .zip(&gb_mapped)
                    .map(|(ne, e)| NamedExpr::new(e.clone(), ne.name.clone()))
                    .collect();
                let aggs = aggregates
                    .iter()
                    .map(|na| {
                        let func = match &na.func {
                            // count(*) rolls up as a zero-defaulting SUM
                            // over the view's count column.
                            AggFunc::CountStar => {
                                AggFunc::SumZero(out_col(ctx.pv.outputs.count_pos?))
                            }
                            AggFunc::Sum(arg) => AggFunc::Sum(out_col(find_sum(ctx, arg, &same)?)),
                            AggFunc::SumZero(arg) => {
                                AggFunc::SumZero(out_col(find_sum(ctx, arg, &same)?))
                            }
                        };
                        Some(NamedAgg::new(func, na.name.clone()))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(OutputList::Aggregate {
                    group_by: gb,
                    aggregates: aggs,
                })
            }
        }
    }
}

/// Find a view `SUM(E')` output whose argument matches `arg` exactly,
/// taking column equivalences into account (section 3.3: "If the query
/// output contains a SUM(E) ... we require that the view contain an output
/// column that matches exactly").
fn find_sum(
    ctx: &OutputCtx<'_>,
    arg: &ScalarExpr,
    same: &impl Fn(ColRef, ColRef) -> bool,
) -> Option<usize> {
    let t = Template::of_scalar(arg);
    ctx.pv
        .outputs
        .sum_args
        .iter()
        .find(|(vt, _)| vt.matches(&t, same))
        .map(|(_, pos)| *pos)
}
