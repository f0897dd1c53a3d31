//! The matching engine: view registration, filter-tree maintenance, and
//! the `find_substitutes` entry point that a transformation-based optimizer
//! invokes as its view-matching rule.

use crate::cache::{fingerprint, CacheLookup, SubstituteCache};
use crate::descriptor::{PackedCatalog, PackedProbe, PreparedView};
use crate::filter::{FilterTree, LevelSearch};
use crate::fkgraph::{build_fk_graph, compute_hub};
use crate::matching::{match_view_prepared, MatchConfig, PreparedQuery};
use crate::stats::{AtomicMatchStats, MatchStats};
use crate::summary::ExprSummary;
use mv_catalog::{Catalog, ColumnId, TableId};
use mv_expr::{classify, BoolExpr, ColRef, Conjunct, OccId, Template};
use mv_parallel::sync::{lock_or_recover, Arc, Mutex, MutexGuard};
use mv_parallel::Published;
use mv_plan::{AggFunc, Freshness, OutputList, SpjgExpr, Substitute, ViewDef, ViewId, ViewSet};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Number of filter-tree levels for SPJ views (hub, source tables, output
/// expressions, output columns, residual predicates, range-constrained
/// columns).
pub const SPJ_LEVELS: usize = 6;
/// Aggregation views add grouping expressions and grouping columns.
pub const AGG_LEVELS: usize = 8;

/// Human-readable names of the filter-tree levels, in key order (the
/// first [`SPJ_LEVELS`] apply to the SPJ tree). Diagnostics use these to
/// say *which* partitioning condition wrongly pruned a view.
pub const LEVEL_NAMES: [&str; AGG_LEVELS] = [
    "hub",
    "source-tables",
    "output-exprs",
    "output-cols",
    "residuals",
    "range-cols",
    "grouping-exprs",
    "grouping-cols",
];

/// Filter-tree levels at which the paper-faithful strict expression
/// filter ([`MatchConfig::strict_expression_filter`], section 4.2.7) is
/// *deliberately* incomplete: the matcher can recompute a complex output
/// expression from a view's plain columns, but the strict filter requires
/// the rendered template to appear in the view's output-expression key.
/// A view pruned *only* at these levels while the matcher accepts it is
/// documented conservatism, not an index fault; any other rejecting level
/// is a genuine completeness violation (rule MV102).
pub fn strict_filter_exempt_levels(is_aggregate_view: bool) -> &'static [usize] {
    if is_aggregate_view {
        &[2, 6]
    } else {
        &[2]
    }
}

/// String interner mapping template texts to filter-key tokens.
///
/// Tokens are minted only on the **write path** (`add_view`), which
/// builds the next immutable catalog snapshot; the query-side read path
/// uses [`Interner::lookup`] against its pinned snapshot, which never
/// allocates or mutates. This is what lets the interner live lock-free
/// inside [`CatalogSnapshot`], and it also keeps the map's size
/// proportional to the registered views instead of growing with every
/// distinct query ever matched.
#[derive(Debug, Default, Clone)]
struct Interner {
    map: HashMap<String, u64>,
}

/// Query-side token for a template text no registered view ever produced.
/// Real tokens are minted sequentially from 0, so this value cannot
/// collide. In a superset-level search an unknown token correctly empties
/// the result (no view key contains it); in a subset-level search it
/// merely widens the allowed set, which is equally harmless.
pub const UNKNOWN_TOKEN: u64 = u64::MAX;

impl Interner {
    /// Token for `s`, minting one only if the text was never seen —
    /// lookup first, so the common already-interned case allocates
    /// nothing.
    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&t) = self.map.get(s) {
            return t;
        }
        let next = self.map.len() as u64;
        self.map.insert(s.to_string(), next);
        next
    }

    /// Read-only token lookup for the query path.
    fn lookup(&self, s: &str) -> u64 {
        self.map.get(s).copied().unwrap_or(UNKNOWN_TOKEN)
    }
}

/// Token for a base table. Public so `mv-audit` can decode and rebuild
/// level keys when validating the stored index entries.
pub fn table_token(t: TableId) -> u64 {
    t.0 as u64
}

/// Token for a base-qualified column. The filter tree compares columns at
/// the base-table level (not per occurrence), which is exact for
/// expressions without self-joins and conservative (never drops a valid
/// candidate) with them.
pub fn col_token(table: TableId, col: ColumnId) -> u64 {
    ((table.0 as u64) << 32) | col.0 as u64
}

/// Inverse of [`col_token`]: the `(table, column)` pair a column-level
/// key token denotes. Meaningful only for tokens taken from a
/// column-keyed filter level.
pub fn decode_col_token(token: u64) -> (TableId, ColumnId) {
    (TableId((token >> 32) as u32), ColumnId(token as u32))
}

fn base_col_token(expr: &SpjgExpr, c: ColRef) -> u64 {
    col_token(expr.table_of(c.occ), c.col)
}

/// One immutable catalog state: the view registry, the prepared match
/// descriptors, both filter trees, the interner, the check constraints and
/// the removal set, published as a unit.
///
/// Every field a reader touches lives here, so a matcher that pins one
/// snapshot sees one coherent catalog for its whole match — never a
/// half-registered view (say, a registry entry whose filter-tree keys are
/// not filed yet). Writers clone the snapshot (cheap: the registry stores
/// `Arc`'d definitions, descriptors are `Arc`'d, and the filter trees
/// share untouched subtrees structurally), apply their change to the
/// clone, and publish it atomically.
#[derive(Debug, Clone)]
struct CatalogSnapshot {
    /// The registered views (slots and names of removed views stay
    /// reserved).
    views: ViewSet,
    /// The arena-packed match descriptors, parallel to `views`: the
    /// candidate scan's prefilter reads the packed spans, survivors read
    /// the `Arc`'d cold descriptors behind them.
    packed: PackedCatalog,
    spj_tree: Arc<FilterTree>,
    agg_tree: Arc<FilterTree>,
    interner: Arc<Interner>,
    /// Check constraints per table, pre-classified, with column references
    /// in table space (`occ = 0`).
    checks: Arc<HashMap<TableId, Vec<Conjunct>>>,
    /// Views dropped with `remove_view`. Matching skips them.
    removed: Arc<HashSet<ViewId>>,
    /// Per-table invalidation epochs, indexed by `TableId`. A catalog
    /// change (never a base write or restamp) bumps exactly the tables it
    /// can affect (the view's tables, or the constraint's table); cached
    /// results are stamped with the epochs of their query's tables and go
    /// stale only when one of *those* moves.
    table_epochs: Vec<u64>,
    /// Per-table *data* epochs, indexed by `TableId`: how many base-table
    /// write rounds [`MatchingEngine::record_base_write`] has recorded.
    /// Distinct from `table_epochs` (which counts *catalog* changes —
    /// registrations, removals, constraints — for cache invalidation):
    /// data epochs measure how far a view's materialized state may trail
    /// the base data, and never touch the substitute cache.
    data_epochs: Vec<u64>,
    /// Per-view data-epoch stamp: the data epochs of the view's distinct
    /// base tables (ascending by table) as of the view's registration or
    /// last [`MatchingEngine::mark_view_maintained`]. The gap between a
    /// stamp and `data_epochs` is the view's staleness lag, which the
    /// freshness gate reads on the pinned snapshot.
    view_stamps: Arc<HashMap<ViewId, Vec<(TableId, u64)>>>,
    /// Monotone publication counter (diagnostics; every write bumps it).
    epoch: u64,
}

impl CatalogSnapshot {
    fn empty(catalog: &Catalog) -> CatalogSnapshot {
        CatalogSnapshot {
            views: ViewSet::new(),
            packed: PackedCatalog::new(),
            spj_tree: Arc::new(FilterTree::new(SPJ_LEVELS)),
            agg_tree: Arc::new(FilterTree::new(AGG_LEVELS)),
            interner: Arc::new(Interner::default()),
            checks: Arc::new(HashMap::new()),
            removed: Arc::new(HashSet::new()),
            table_epochs: vec![0; catalog.table_count()],
            data_epochs: vec![0; catalog.table_count()],
            view_stamps: Arc::new(HashMap::new()),
            epoch: 0,
        }
    }

    /// Bump the invalidation epoch of every given table.
    fn bump_tables(&mut self, tables: impl IntoIterator<Item = TableId>) {
        for t in tables {
            if let Some(e) = self.table_epochs.get_mut(t.0 as usize) {
                *e += 1;
            }
        }
        self.epoch += 1;
    }

    /// The per-table epoch stamp of a query: the epochs of its distinct
    /// source tables, ascending. Cached results carry the stamp they were
    /// computed under; equal renders reference equal table sets, so two
    /// stamps for the same fingerprint compare positionally.
    fn table_stamp(&self, query: &SpjgExpr) -> Vec<u64> {
        let mut tables: Vec<TableId> = query.tables.clone();
        tables.sort_unstable();
        tables.dedup();
        tables
            .iter()
            .map(|t| {
                self.table_epochs
                    .get(t.0 as usize)
                    .copied()
                    .unwrap_or(u64::MAX)
            })
            .collect()
    }

    fn live_view_count(&self) -> usize {
        self.views.len() - self.removed.len()
    }

    /// The current data epochs of a view's base tables, in stamp order.
    fn current_epochs_for(&self, stamp: &[(TableId, u64)]) -> Vec<(TableId, u64)> {
        stamp
            .iter()
            .map(|&(t, _)| (t, self.data_epochs.get(t.0 as usize).copied().unwrap_or(0)))
            .collect()
    }

    /// How many write rounds the view's materialized state trails the
    /// current base data: the largest per-table gap between the current
    /// data epochs and the view's stamp. Unstamped views (never possible
    /// for a registered view) count as fresh.
    fn view_lag(&self, id: ViewId) -> u64 {
        let Some(stamp) = self.view_stamps.get(&id) else {
            return 0;
        };
        stamp
            .iter()
            .map(|&(t, stamped)| {
                let cur = self.data_epochs.get(t.0 as usize).copied().unwrap_or(0);
                cur.saturating_sub(stamped)
            })
            .max()
            .unwrap_or(0)
    }
}

/// The engine owning the published catalog snapshot, the substitute cache
/// and the instrumentation counters.
///
/// # Concurrency
///
/// The engine is an *online catalog*: every method — registration
/// (`add_view`, `add_views`, `remove_view`, `add_check_constraint`) as
/// well as the whole matching path (`find_substitutes`,
/// `find_substitutes_many`, `candidates`, `match_one`) — takes `&self`,
/// so writers run concurrently with matchers. Writers serialize among
/// themselves on an internal mutex, build the next immutable
/// [`CatalogSnapshot`] by copy-on-write, and publish it with one atomic
/// pointer swap; readers pin the current snapshot once per match and
/// never observe a half-applied change. A multi-threaded optimizer host
/// can therefore share one engine behind an `Arc`, match queries from any
/// number of threads, and register views mid-traffic; see also
/// [`MatchConfig::parallel_threshold`] for the intra-query fan-out of the
/// candidate loop.
#[derive(Debug)]
pub struct MatchingEngine {
    catalog: Catalog,
    config: MatchConfig,
    /// The atomically published catalog snapshot.
    shared: Published<CatalogSnapshot>,
    /// Serializes snapshot builders; never held by readers.
    writer: Mutex<()>,
    stats: AtomicMatchStats,
    /// Fingerprint-keyed cache of catalog-only `find_substitutes` results
    /// (before the freshness gate), invalidated per table via the
    /// snapshot's `table_epochs`.
    cache: SubstituteCache,
}

// Compile-time guarantee that the engine stays shareable across threads:
// a reintroduced `RefCell`/`Rc` anywhere in its fields breaks the build
// here, not in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MatchingEngine>()
};

impl MatchingEngine {
    /// Create an engine over a schema.
    pub fn new(catalog: Catalog, config: MatchConfig) -> Self {
        let cache = SubstituteCache::new(
            config.substitute_cache_capacity,
            config.substitute_cache_shards,
        );
        let shared = Published::new(CatalogSnapshot::empty(&catalog));
        MatchingEngine {
            catalog,
            config,
            shared,
            writer: Mutex::new(()),
            stats: AtomicMatchStats::default(),
            cache,
        }
    }

    /// Pin the current catalog snapshot.
    fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.shared.load()
    }

    /// Serialize snapshot builders. Every clone-modify-publish sequence
    /// holds this guard for its whole duration; under the model checker
    /// the `SKIP_WRITER_LOCK` mutation drops it so the checker can prove
    /// the serialization is load-bearing.
    fn writer_guard(&self) -> Option<MutexGuard<'_, ()>> {
        #[cfg(mv_model)]
        if crate::mutation::active(crate::mutation::SKIP_WRITER_LOCK) {
            return None;
        }
        Some(lock_or_recover(&self.writer))
    }

    /// Drop a view from matching: it is removed from its filter tree and
    /// never considered again. The definition (and its name) stay
    /// registered — this mirrors dropping a cached query result, the
    /// intro's "cached results can be treated as temporary materialized
    /// views" scenario, where entries come and go. Runs concurrently with
    /// matching: in-flight matchers keep their pinned snapshot, new
    /// matches see the removal.
    pub fn remove_view(&self, id: ViewId) -> bool {
        let _writer = self.writer_guard();
        let cur = self.snapshot();
        if cur.removed.contains(&id) || (id.0 as usize) >= cur.views.len() {
            return false;
        }
        let mut next = (*cur).clone();
        drop(cur);
        let (keys, is_agg, tables) = {
            let def = next.views.get(id);
            let pv = next.packed.prepared(id);
            // Read-only token lookup: every text of a registered view was
            // interned when it was added.
            let keys = Self::view_keys(
                &self.catalog,
                &self.config,
                &mut |s| next.interner.lookup(s),
                &def.expr,
                &pv.summary,
            );
            let tables: Vec<TableId> = pv.tables().collect();
            (keys, def.expr.is_aggregate(), tables)
        };
        let in_tree = if is_agg {
            Arc::make_mut(&mut next.agg_tree).remove(&keys, id)
        } else {
            Arc::make_mut(&mut next.spj_tree).remove(&keys[..SPJ_LEVELS], id)
        };
        debug_assert!(in_tree, "registered view must be present in its tree");
        Arc::make_mut(&mut next.removed).insert(id);
        Arc::make_mut(&mut next.view_stamps).remove(&id);
        // Invalidate lazily and precisely: only entries whose query
        // touches one of the removed view's tables can have included it.
        #[cfg(mv_model)]
        let tables = if crate::mutation::active(crate::mutation::SKIP_EPOCH_BUMP_ON_REMOVE) {
            Vec::new()
        } else {
            tables
        };
        next.bump_tables(tables);
        self.shared.store(Arc::new(next));
        self.stats.record_removal();
        true
    }

    /// Number of live (non-removed) views.
    pub fn live_view_count(&self) -> usize {
        self.snapshot().live_view_count()
    }

    /// The publication count of the current snapshot (diagnostics: every
    /// registration, removal or constraint declaration bumps it).
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Declare a check constraint on a base table. The predicate uses
    /// `occ = 0` column references into the table. During matching, check
    /// constraints are folded into the query's antecedent (section 3.1.2:
    /// "check constraints on the tables of a query can be added to the
    /// where-clause without changing the query result"), so view
    /// predicates implied by a constraint no longer block matching.
    pub fn add_check_constraint(&self, table: TableId, predicate: BoolExpr) -> Result<(), String> {
        let n_cols = self.catalog.table(table).columns.len() as u32;
        for c in predicate.columns() {
            if c.occ != OccId(0) || c.col.0 >= n_cols {
                return Err(format!(
                    "check constraint column {c} out of range for table {}",
                    self.catalog.table(table).name
                ));
            }
        }
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        Arc::make_mut(&mut next.checks)
            .entry(table)
            .or_default()
            .extend(classify(predicate));
        // Only queries referencing `table` fold this constraint into their
        // effective summary, so only their cached results can change — and
        // with constraint folding disabled no summary changes at all, so
        // bumping would spuriously invalidate every cached result over
        // `table`. (The constraint is still recorded: a later engine with
        // folding enabled sees it.)
        if self.config.use_check_constraints {
            next.bump_tables([table]);
        } else {
            next.epoch += 1;
        }
        self.shared.store(Arc::new(next));
        Ok(())
    }

    /// Record a write round against a base table: bump its *data epoch*,
    /// so every view over it becomes one round stale until
    /// [`MatchingEngine::mark_view_maintained`] restamps it. Leaves the
    /// substitute cache alone: cached results depend on the catalog only,
    /// and the freshness gate reads the new epoch on the next match.
    pub fn record_base_write(&self, table: TableId) {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        if let Some(e) = next.data_epochs.get_mut(table.0 as usize) {
            *e += 1;
        }
        next.epoch += 1;
        self.shared.store(Arc::new(next));
    }

    /// Stamp a view's materialized state as maintained up to the current
    /// data epochs of its base tables (the maintenance side calls this
    /// after applying deltas to the view's contents). Returns `false` for
    /// removed or out-of-range ids. The one-view case of
    /// [`MatchingEngine::mark_views_maintained`].
    pub fn mark_view_maintained(&self, id: ViewId) -> bool {
        self.mark_views_maintained(&[id]) == 1
    }

    /// Restamp a set of views as maintained up to the current data epochs,
    /// in one clone-modify-publish, so a write round that maintained many
    /// views publishes one snapshot. Like a base write, a restamp leaves
    /// the substitute cache alone. Removed and out-of-range ids are
    /// skipped; nothing is published when none remain. Returns how many
    /// views were restamped.
    pub fn mark_views_maintained(&self, ids: &[ViewId]) -> usize {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        let restamps: Vec<(ViewId, Vec<(TableId, u64)>)> = ids
            .iter()
            .filter(|id| !next.removed.contains(id) && (id.0 as usize) < next.views.len())
            .filter_map(|&id| {
                let stamp = next.view_stamps.get(&id)?;
                Some((id, next.current_epochs_for(stamp)))
            })
            .collect();
        if restamps.is_empty() {
            return 0;
        }
        let n = restamps.len();
        Arc::make_mut(&mut next.view_stamps).extend(restamps);
        next.epoch += 1;
        self.shared.store(Arc::new(next));
        n
    }

    /// The current data epoch of a base table (write rounds recorded via
    /// [`MatchingEngine::record_base_write`]).
    pub fn data_epoch(&self, table: TableId) -> u64 {
        self.snapshot()
            .data_epochs
            .get(table.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// How many write rounds a view's materialized state trails the
    /// current base data (the maximum per-table data-epoch gap). `None`
    /// for removed or out-of-range ids.
    pub fn view_staleness(&self, id: ViewId) -> Option<u64> {
        let snap = self.snapshot();
        if snap.removed.contains(&id) || (id.0 as usize) >= snap.views.len() {
            return None;
        }
        Some(snap.view_lag(id))
    }

    /// The per-table data-epoch stamp of a view's materialized state
    /// (ascending by table), for the maintenance auditor. `None` for
    /// removed or out-of-range ids.
    pub fn view_data_epochs(&self, id: ViewId) -> Option<Vec<(TableId, u64)>> {
        self.snapshot().view_stamps.get(&id).cloned()
    }

    /// Corruption hook for the maintenance audit suite: overwrite a
    /// view's data-epoch stamp with epochs `lead` rounds *ahead* of the
    /// current table epochs — a stamp no correct maintenance schedule can
    /// produce. Never call outside tests.
    #[doc(hidden)]
    pub fn corrupt_view_stamp_for_audit(&self, id: ViewId, lead: u64) -> bool {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        let Some(stamp) = next.view_stamps.get(&id) else {
            return false;
        };
        let forged: Vec<(TableId, u64)> = next
            .current_epochs_for(stamp)
            .into_iter()
            .map(|(t, e)| (t, e + lead))
            .collect();
        Arc::make_mut(&mut next.view_stamps).insert(id, forged);
        next.epoch += 1;
        self.shared.store(Arc::new(next));
        true
    }

    /// Analyze a query, folding in check constraints when enabled.
    pub fn query_summary(&self, query: &SpjgExpr) -> ExprSummary {
        self.query_summary_in(&self.snapshot(), query)
    }

    /// [`MatchingEngine::query_summary`] against a pinned snapshot — the
    /// matching pipeline calls this so one match sees one constraint set.
    fn query_summary_in(&self, snap: &CatalogSnapshot, query: &SpjgExpr) -> ExprSummary {
        if !self.config.use_check_constraints || snap.checks.is_empty() {
            return ExprSummary::analyze(query);
        }
        let mut extras = Vec::new();
        for (occ, table) in query.occurrences() {
            if let Some(conjs) = snap.checks.get(&table) {
                for conj in conjs {
                    // The closure is total, so the remap cannot fail; if a
                    // future edit breaks that, dropping the conjunct only
                    // weakens the antecedent (safe direction) — flag it in
                    // debug builds instead of panicking in release.
                    let mapped = conj.try_map_columns(&mut |c| Some(ColRef { occ, col: c.col }));
                    debug_assert!(mapped.is_some(), "total column remap cannot fail");
                    extras.extend(mapped);
                }
            }
        }
        ExprSummary::analyze_with_extras(query, &extras)
    }

    /// The schema.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The configuration.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The registered views, pinned at the current snapshot. The guard
    /// derefs to [`ViewSet`], so existing `engine.views().get(id)` call
    /// sites keep working; hold it across several reads to see one
    /// coherent registry while writers keep publishing.
    pub fn views(&self) -> ViewsGuard {
        ViewsGuard {
            snap: self.snapshot(),
        }
    }

    /// The declared check constraints, pre-classified per table, with
    /// column references in table space (`occ = 0`), pinned at the
    /// current snapshot. Exposed so external analyzers (`mv-verify`,
    /// `mv-lint`) can reason from the same constraint knowledge the
    /// matcher uses.
    pub fn check_constraints(&self) -> ChecksGuard {
        ChecksGuard {
            snap: self.snapshot(),
        }
    }

    /// Snapshot of the instrumentation counters.
    pub fn stats(&self) -> MatchStats {
        self.stats.snapshot()
    }

    /// Reset the instrumentation counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Register a materialized view: validates it, computes its summary
    /// and filter keys, inserts it into the appropriate filter tree, and
    /// publishes the next snapshot. Runs concurrently with matching.
    pub fn add_view(&self, def: ViewDef) -> Result<ViewId, String> {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        let id = self.register_into(&mut next, def)?;
        self.shared.store(Arc::new(next));
        self.stats.record_registrations(1);
        Ok(id)
    }

    /// Register a batch of views with one snapshot clone and one
    /// publication — all-or-nothing: if any definition is rejected,
    /// nothing is published and the catalog is unchanged. Building a
    /// 100k-view catalog this way costs one copy-on-write pass instead of
    /// one per view.
    pub fn add_views(&self, defs: Vec<ViewDef>) -> Result<Vec<ViewId>, String> {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        let n = defs.len();
        let mut ids = Vec::with_capacity(n);
        for def in defs {
            ids.push(self.register_into(&mut next, def)?);
        }
        self.shared.store(Arc::new(next));
        self.stats.record_registrations(n);
        Ok(ids)
    }

    /// Validate, prepare and file one view into a snapshot under
    /// construction. Shared by `add_view` and `add_views`; the caller
    /// holds the writer lock and publishes (or discards) `next`.
    fn register_into(&self, next: &mut CatalogSnapshot, def: ViewDef) -> Result<ViewId, String> {
        def.expr.validate(&self.catalog)?;
        let vsum = ExprSummary::analyze(&def.expr);
        let interner = Arc::make_mut(&mut next.interner);
        let keys = Self::view_keys(
            &self.catalog,
            &self.config,
            &mut |s| interner.intern(s),
            &def.expr,
            &vsum,
        );
        // Level 5 of the filter keys is exactly the view's interned
        // residual tokens; the prepared descriptor reuses them for the
        // per-candidate token-subset prefilter.
        let prepared = PreparedView::prepare(
            &self.catalog,
            &self.config,
            &def.expr,
            vsum,
            keys[4].clone(),
        );
        let is_agg = def.expr.is_aggregate();
        let tables: Vec<TableId> = prepared.tables().collect();
        let id = next.views.add(def)?;
        // A freshly registered view is materialized from current base
        // data: stamp it with the current data epochs of its tables.
        let stamp: Vec<(TableId, u64)> = tables
            .iter()
            .map(|&t| (t, next.data_epochs.get(t.0 as usize).copied().unwrap_or(0)))
            .collect();
        Arc::make_mut(&mut next.view_stamps).insert(id, stamp);
        next.packed
            .push(Arc::new(prepared), &next.views.get(id).expr);
        if is_agg {
            Arc::make_mut(&mut next.agg_tree).insert(&keys, id);
        } else {
            Arc::make_mut(&mut next.spj_tree).insert(&keys[..SPJ_LEVELS], id);
        }
        // A new view can only change results of queries over (a subset
        // of) its own tables.
        #[cfg(mv_model)]
        let tables = if crate::mutation::active(crate::mutation::SKIP_EPOCH_BUMP_ON_ADD) {
            Vec::new()
        } else {
            tables
        };
        next.bump_tables(tables);
        Ok(id)
    }

    /// Is an occurrence "anchored" for the hub refinement of section
    /// 4.2.2: does it carry a range or residual predicate on a column that
    /// participates in no non-trivial equivalence class?
    fn is_anchored(vsum: &ExprSummary, occ: OccId) -> bool {
        vsum.ranges
            .keys()
            .any(|r| r.occ == occ && vsum.ec.is_trivial(*r))
            || vsum
                .residuals
                .iter()
                .flat_map(|t| t.cols.iter())
                .any(|c| c.occ == occ && vsum.ec.is_trivial(*c))
    }

    /// Compute the 8 per-level filter keys for a view (the first 6 are
    /// used for SPJ views). An associated function over explicit fields —
    /// not a method — so the write-path callers can borrow the interner
    /// mutably while the view registry stays immutably borrowed.
    ///
    /// Template texts go through the `token` closure: the write path
    /// passes [`Interner::intern`] (minting), while the audit path passes
    /// the read-only [`Interner::lookup`] — for a registered view the two
    /// agree, because every one of its texts was interned at `add_view`
    /// time. That agreement is exactly what lets `mv-audit` re-derive a
    /// view's keys without mutating the engine.
    fn view_keys(
        catalog: &Catalog,
        config: &MatchConfig,
        token: &mut dyn FnMut(&str) -> u64,
        expr: &SpjgExpr,
        vsum: &ExprSummary,
    ) -> Vec<Vec<u64>> {
        let occs: Vec<(OccId, TableId)> = expr.occurrences().collect();

        // Level 1: hub condition key.
        let graph = build_fk_graph(catalog, &occs, &vsum.ec, &|_| config.null_rejecting_fk);
        let refined = config.refined_hubs;
        let hub = compute_hub(&graph, &|o| refined && Self::is_anchored(vsum, o));
        let k_hub: Vec<u64> = hub.into_iter().map(table_token).collect();

        // Level 2: source tables.
        let k_tables: Vec<u64> = expr.tables.iter().copied().map(table_token).collect();

        // Level 3: textual output expressions (complex scalar outputs plus
        // SUM argument templates).
        let mut k_exprs: Vec<u64> = Vec::new();
        for ne in expr.scalar_outputs() {
            if ne.expr.as_column().is_none() && !ne.expr.is_constant() {
                k_exprs.push(token(&Template::of_scalar(&ne.expr).text));
            }
        }
        for agg in expr.aggregate_outputs() {
            if let AggFunc::Sum(e) = &agg.func {
                k_exprs.push(token(&Template::of_scalar(e).text));
            }
        }

        // Level 4: extended output column list — every column equivalent
        // to a simple-column output (section 4.2.3).
        let mut k_outcols: Vec<u64> = Vec::new();
        for ne in expr.scalar_outputs() {
            if let Some(c) = ne.expr.as_column() {
                for m in vsum.ec.class_of(c) {
                    k_outcols.push(base_col_token(expr, m));
                }
            }
        }
        // With the backjoin extension, every column of a table whose
        // non-null unique key the view outputs is reachable too — the
        // filter must not prune views the matcher could still use.
        if config.allow_backjoins {
            k_outcols.extend(Self::backjoin_reachable_tokens(catalog, expr, vsum));
        }

        // Level 5: residual predicate texts.
        let k_residuals: Vec<u64> = vsum.residuals.iter().map(|t| token(&t.text)).collect();

        // Level 6: reduced range constraint list — constrained columns in
        // trivial equivalence classes (section 4.2.5).
        let k_ranges: Vec<u64> = vsum
            .ranges
            .keys()
            .filter(|r| vsum.ec.is_trivial(**r))
            .map(|r| base_col_token(expr, *r))
            .collect();

        // Level 7 (aggregation views): textual grouping expressions.
        let mut k_gexprs: Vec<u64> = Vec::new();
        // Level 8: extended grouping column list.
        let mut k_gcols: Vec<u64> = Vec::new();
        if expr.is_aggregate() {
            for ne in expr.scalar_outputs() {
                if let Some(c) = ne.expr.as_column() {
                    for m in vsum.ec.class_of(c) {
                        k_gcols.push(base_col_token(expr, m));
                    }
                } else if !ne.expr.is_constant() {
                    k_gexprs.push(token(&Template::of_scalar(&ne.expr).text));
                }
            }
            if config.allow_backjoins {
                k_gcols.extend(Self::backjoin_reachable_tokens(catalog, expr, vsum));
            }
        }

        vec![
            k_hub,
            k_tables,
            k_exprs,
            k_outcols,
            k_residuals,
            k_ranges,
            k_gexprs,
            k_gcols,
        ]
    }

    /// Base-qualified column tokens reachable through backjoins: for each
    /// occurrence whose base table has a non-null unique key fully covered
    /// by the view's simple outputs (through the view's equivalence
    /// classes), every column of that table.
    fn backjoin_reachable_tokens(
        catalog: &Catalog,
        expr: &SpjgExpr,
        vsum: &ExprSummary,
    ) -> Vec<u64> {
        let mut simple_outputs: HashMap<ColRef, ()> = HashMap::new();
        for ne in expr.scalar_outputs() {
            if let Some(c) = ne.expr.as_column() {
                simple_outputs.insert(c, ());
            }
        }
        let covered = |c: ColRef| {
            simple_outputs.contains_key(&c)
                || vsum
                    .ec
                    .class_of(c)
                    .into_iter()
                    .any(|m| simple_outputs.contains_key(&m))
        };
        let mut out = Vec::new();
        for (occ, table) in expr.occurrences() {
            let def = catalog.table(table);
            let joinable = def.keys.iter().any(|key| {
                key.columns
                    .iter()
                    .all(|&c| def.column(c).not_null && covered(ColRef { occ, col: c }))
            });
            if joinable {
                for c in 0..def.columns.len() as u32 {
                    out.push(col_token(table, ColumnId(c)));
                }
            }
        }
        out
    }

    /// Render and look up every query-side filter token exactly once.
    /// Both trees' search conditions are assembled from this one pass, so
    /// an aggregate query no longer renders its output templates twice.
    /// Lookups go through the read-only [`Interner::lookup`] — the query
    /// path mints no tokens and performs no interner writes.
    fn query_tokens(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
    ) -> QueryTokens {
        let source: Vec<u64> = query.tables.iter().copied().map(table_token).collect();

        // Textual output expressions. With the paper-faithful strict
        // filter these must all appear in the view; recomputation from
        // plain columns is ignored (section 4.2.7 calls this
        // "conservative"). Against aggregation views every SUM argument
        // must match a view SUM output; against SPJ views a simple column
        // argument is recomputable and is covered by the output-column
        // condition instead — so simple SUM arguments are kept apart.
        let mut scalar_exprs: Vec<u64> = Vec::new();
        let mut sum_exprs_complex: Vec<u64> = Vec::new();
        let mut sum_exprs_simple: Vec<u64> = Vec::new();
        if self.config.strict_expression_filter {
            for ne in query.scalar_outputs() {
                if ne.expr.as_column().is_none() && !ne.expr.is_constant() {
                    scalar_exprs.push(snap.interner.lookup(&Template::of_scalar(&ne.expr).text));
                }
            }
            for agg in query.aggregate_outputs() {
                if let AggFunc::Sum(e) = &agg.func {
                    let token = snap.interner.lookup(&Template::of_scalar(e).text);
                    if e.as_column().is_none() && !e.is_constant() {
                        sum_exprs_complex.push(token);
                    } else {
                        sum_exprs_simple.push(token);
                    }
                }
            }
        }

        // Output-column hitting classes.
        let class_of = |c: ColRef| {
            let mut cl: Vec<u64> = qsum
                .ec
                .class_of(c)
                .into_iter()
                .map(|m| base_col_token(query, m))
                .collect();
            cl.sort();
            cl.dedup();
            cl
        };
        let out_classes: Vec<Vec<u64>> = query
            .scalar_outputs()
            .iter()
            .filter_map(|ne| ne.expr.as_column())
            .map(class_of)
            .collect();
        let sum_classes: Vec<Vec<u64>> = query
            .aggregate_outputs()
            .iter()
            .filter_map(|agg| match &agg.func {
                AggFunc::Sum(e) => e.as_column(),
                _ => None,
            })
            .map(class_of)
            .collect();

        // Residual texts of the query.
        let residuals: Vec<u64> = qsum
            .residuals
            .iter()
            .map(|t| snap.interner.lookup(&t.text))
            .collect();

        // Extended range constraint list — every column of every
        // constrained equivalence class.
        let mut range_cols: Vec<u64> = Vec::new();
        for root in qsum.ranges.keys() {
            for m in qsum.ec.class_of(*root) {
                range_cols.push(base_col_token(query, m));
            }
        }

        QueryTokens {
            source,
            scalar_exprs,
            sum_exprs_complex,
            sum_exprs_simple,
            out_classes,
            sum_classes,
            residuals,
            range_cols,
        }
    }

    /// The candidate views for a query: filter-tree search, or every view
    /// when the filter tree is disabled.
    pub fn candidates(&self, query: &SpjgExpr, qsum: &ExprSummary) -> Vec<ViewId> {
        let mut out = Vec::new();
        self.candidates_into(query, qsum, &mut out);
        out
    }

    /// [`MatchingEngine::candidates`] into a caller-owned buffer (cleared
    /// first), so a driver probing many queries reuses one allocation.
    /// Both trees append into the same buffer, which is then sorted and
    /// deduplicated once.
    pub fn candidates_into(&self, query: &SpjgExpr, qsum: &ExprSummary, out: &mut Vec<ViewId>) {
        self.candidates_into_in(&self.snapshot(), query, qsum, out)
    }

    /// [`MatchingEngine::candidates_into`] against a pinned snapshot.
    fn candidates_into_in(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        out: &mut Vec<ViewId>,
    ) {
        out.clear();
        if !self.config.use_filter_tree {
            out.extend(
                snap.views
                    .iter()
                    .map(|(id, _)| id)
                    .filter(|id| !snap.removed.contains(id)),
            );
            return;
        }
        let tokens = self.query_tokens(snap, query, qsum);
        snap.spj_tree.search_into(&tokens.spj_searches(), out);
        if query.is_aggregate() && !snap.agg_tree.is_empty() {
            snap.agg_tree.search_into(&tokens.agg_searches(), out);
        }
        // Removed views are already gone from the trees; the retain is a
        // cheap second line of defense for the matching invariant.
        out.retain(|id| !snap.removed.contains(id));
        out.sort_unstable();
        // Each view lives in exactly one partition of exactly one tree, so
        // the merged result must already be duplicate-free.
        debug_assert!(
            out.windows(2).all(|w| w[0] != w[1]),
            "spj and agg filter trees must hold disjoint view sets"
        );
        out.dedup();
    }

    /// Run the full matching tests over a filtered candidate list,
    /// serially or fanned out across threads per
    /// [`MatchConfig::parallel_threshold`]. Each `match_view` call is pure
    /// in the engine's shared state, and results keep candidate order
    /// (ascending `ViewId`), so both paths return byte-identical lists.
    fn match_candidates(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        candidates: &[ViewId],
    ) -> Vec<(ViewId, Substitute)> {
        let pq = PreparedQuery::new(query, qsum);
        // The packed probe drives the per-candidate prechecks: residual
        // token subset, table correspondence, aggregation compatibility
        // and the §3.2 edge-less-extra rejection — all as sorted-slice
        // scans over the arena, before any descriptor access.
        let q_res_tokens: Vec<u64> = qsum
            .residuals
            .iter()
            .map(|t| snap.interner.lookup(&t.text))
            .collect();
        let probe = PackedProbe::new(query.is_aggregate(), &q_res_tokens, &pq.by_table);
        let try_candidate = |&id: &ViewId| -> Option<(ViewId, Substitute)> {
            if !snap.packed.precheck(id, &probe) {
                return None;
            }
            let view = snap.views.get(id);
            let pv = snap.packed.prepared(id);
            match_view_prepared(&self.catalog, &self.config, &pq, id, view, pv).map(|sub| (id, sub))
        };
        let workers = self.config.match_workers(candidates.len());
        if workers > 1 {
            // With the packed prechecks most candidates cost well under a
            // microsecond, so chunks claimed from the shared cursor are
            // kept coarse (64 candidates) to amortize the bookkeeping.
            mv_parallel::par_map_min_chunk(candidates, workers, 64, try_candidate)
                .into_iter()
                .flatten()
                .collect()
        } else {
            candidates.iter().filter_map(try_candidate).collect()
        }
    }

    /// The freshness gate, the one place [`MatchConfig::freshness`] is
    /// applied: drop every substitute whose view lags the pinned
    /// snapshot's data epochs by more than the policy admits, and stamp
    /// the lag onto the rest. Runs after the substitute cache, so cached
    /// results stay catalog-only and base writes never invalidate them.
    fn gate_freshness(&self, snap: &CatalogSnapshot, results: &mut Vec<(ViewId, Substitute)>) {
        results.retain_mut(|(id, sub)| {
            let lag = snap.view_lag(*id);
            sub.freshness = Freshness::from_lag(lag);
            self.config.freshness.admits(lag)
        });
    }

    /// Filter, match and debug-verify — the uncached matching pipeline.
    /// Returns the catalog-only substitutes (freshness not yet gated), the
    /// candidate count, and the filter time.
    fn compute_substitutes(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
    ) -> (Vec<(ViewId, Substitute)>, usize, Duration) {
        let qsum = self.query_summary_in(snap, query);

        let filter_started = self.config.timing.then(Instant::now);
        let mut candidates = Vec::new();
        self.candidates_into_in(snap, query, &qsum, &mut candidates);
        let filter_time = elapsed(filter_started);

        let out = self.match_candidates(snap, query, &qsum, &candidates);
        #[cfg(debug_assertions)]
        {
            self.debug_verify(snap, query, &out);
            self.debug_prove(snap, query, &out);
            self.debug_assert_filter_complete(snap, query, &qsum, &candidates);
        }
        (out, candidates.len(), filter_time)
    }

    /// The view-matching rule: find every view from which `query` can be
    /// computed and build the substitutes. Updates the instrumentation
    /// counters. Callable concurrently from any number of threads sharing
    /// the engine, including while other threads register or remove
    /// views: the whole match runs against one pinned snapshot.
    ///
    /// With the substitute cache enabled (see
    /// [`MatchConfig::substitute_cache_capacity`]), a repeated query shape
    /// returns the cached result — byte-identical to a fresh computation,
    /// which debug builds prove with a differential assertion on every
    /// hit. Entries hold what the catalog alone determines, stamped with
    /// the invalidation epochs of the query's tables: a registration over
    /// disjoint tables, a base write or a restamp leaves them valid, and
    /// [`MatchConfig::freshness`] is applied after the cache. Hits replay
    /// the original candidate count into the stats so counter totals stay
    /// path-independent.
    pub fn find_substitutes(&self, query: &SpjgExpr) -> Vec<(ViewId, Substitute)> {
        let snap = self.snapshot();
        self.find_substitutes_in(&snap, query).0
    }

    /// [`MatchingEngine::find_substitutes`] against a pinned snapshot,
    /// also returning the candidate count (the batch path records it for
    /// replayed group members). Records stats and drives the substitute
    /// cache exactly like the public entry point.
    fn find_substitutes_in(
        &self,
        snap: &Arc<CatalogSnapshot>,
        query: &SpjgExpr,
    ) -> (Vec<(ViewId, Substitute)>, usize) {
        let started = self.config.timing.then(Instant::now);
        let (mut out, n_candidates, filter_time) = if self.cache.is_enabled() {
            self.cached_substitutes(snap, query)
        } else {
            self.compute_substitutes(snap, query)
        };
        self.gate_freshness(snap, &mut out);
        self.stats.record(
            n_candidates,
            snap.live_view_count(),
            out.len(),
            filter_time,
            elapsed(started),
        );
        (out, n_candidates)
    }

    /// The catalog-only result through the substitute cache: a hit
    /// replays the stored result, a miss computes and stores it.
    fn cached_substitutes(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
    ) -> (Vec<(ViewId, Substitute)>, usize, Duration) {
        let fp = fingerprint(query);
        let stamp = snap.table_stamp(query);
        match self.cache.lookup(fp.hash, &fp.render, &stamp) {
            CacheLookup::Hit {
                mut results,
                candidates,
            } => {
                // Output names are the one query-specific part of a
                // substitute the fingerprint deliberately ignores.
                restamp_output_names(&mut results, query);
                #[cfg(debug_assertions)]
                {
                    self.debug_verify(snap, query, &results);
                    let (fresh, _, _) = self.compute_substitutes(snap, query);
                    assert_eq!(
                        results, fresh,
                        "cached substitutes must be byte-identical to a fresh \
                         computation for the probing query"
                    );
                }
                self.stats.record_cache_hit();
                return (results, candidates, Duration::ZERO);
            }
            CacheLookup::Stale => self.stats.record_cache_invalidation(),
            CacheLookup::Miss | CacheLookup::Disabled => {}
        }
        let (out, n_candidates, filter_time) = self.compute_substitutes(snap, query);
        #[cfg(mv_model)]
        let skip_miss_stat = crate::mutation::active(crate::mutation::SKIP_CACHE_MISS_STAT);
        #[cfg(not(mv_model))]
        let skip_miss_stat = false;
        if !skip_miss_stat {
            self.stats.record_cache_miss();
        }
        // The entry MUST carry the stamp of the pinned snapshot the
        // results were computed from. Re-deriving it from the currently
        // published snapshot (the STAMP_AFTER_PUBLISH mutation) stamps
        // pre-registration results with post-registration epochs,
        // making a stale entry look fresh forever.
        #[cfg(mv_model)]
        let stamp = if crate::mutation::active(crate::mutation::STAMP_AFTER_PUBLISH) {
            self.snapshot().table_stamp(query)
        } else {
            stamp
        };
        // The entry MUST hold the ungated result. Gating before the insert
        // (the CACHE_GATED_RESULTS mutation) caches a stale view's
        // absence, which outlives the view's restamp: no catalog epoch
        // moves when a view is maintained.
        #[cfg(mv_model)]
        let out = if crate::mutation::active(crate::mutation::CACHE_GATED_RESULTS) {
            let mut gated = out;
            self.gate_freshness(snap, &mut gated);
            gated
        } else {
            out
        };
        self.cache
            .insert(fp.hash, fp.render, stamp, n_candidates, out.clone());
        (out, n_candidates, filter_time)
    }

    /// Drop every cached `find_substitutes` result (capacity unchanged).
    pub fn clear_substitute_cache(&self) {
        self.cache.clear();
    }

    /// Number of live entries in the substitute cache.
    pub fn substitute_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Batched matching for bursts of queries, the one batch entry point:
    /// pins **one** catalog snapshot for the whole batch and groups
    /// identical queries, so a repeated query — the common case in a
    /// workload replay — pays one match per distinct query instead of one
    /// per arrival. Groups fan out through `mv-parallel`. Grouping hashes
    /// the expressions ([`BatchKey`]), far cheaper than a fingerprint
    /// render, so a batch of distinct queries costs about what matching
    /// them one by one does; α-equivalent variants are matched separately
    /// and, with the cache on, share its entry like any repeated shape.
    ///
    /// Results arrive in query order, each entry byte-identical to what
    /// [`MatchingEngine::find_substitutes`] returns for that query, and
    /// the per-query instrumentation counters accumulate exactly as if
    /// every query had been matched individually (replayed group members
    /// record the representative's candidate count, like a cache hit).
    pub fn find_substitutes_many(&self, queries: &[SpjgExpr]) -> Vec<Vec<(ViewId, Substitute)>> {
        let snap = self.snapshot();
        // Groups in order of first arrival; the first member is the
        // representative.
        let mut index: HashMap<BatchKey, usize> = HashMap::with_capacity(queries.len());
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let g = *index.entry(BatchKey(q)).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }
        let workers = self.config.batch_workers(groups.len());
        let matched = mv_parallel::par_map(&groups, workers, |group| {
            let started = self.config.timing.then(Instant::now);
            let (results, n_candidates) = self.find_substitutes_in(&snap, &queries[group[0]]);
            // A replay is served from the representative's result exactly
            // as a cache hit serves a repeated query, so it moves the
            // counters the way the per-query path would (the
            // representative already recorded its own hit or miss).
            for _ in &group[1..] {
                if self.cache.is_enabled() {
                    self.stats.record_cache_hit();
                }
                self.stats.record(
                    n_candidates,
                    snap.live_view_count(),
                    results.len(),
                    Duration::ZERO,
                    elapsed(started),
                );
            }
            results
        });
        let mut out: Vec<Vec<(ViewId, Substitute)>> = vec![Vec::new(); queries.len()];
        for (group, results) in groups.iter().zip(matched) {
            for &qi in &group[1..] {
                out[qi] = results.clone();
            }
            out[group[0]] = results;
        }
        out
    }

    /// Match the query against one specific view (bypassing the filter).
    /// Returns `None` for removed and out-of-range view ids rather than
    /// panicking — an id is data here, not a proven-valid handle.
    pub fn match_one(&self, query: &SpjgExpr, view: ViewId) -> Option<Substitute> {
        let snap = self.snapshot();
        if snap.removed.contains(&view) || (view.0 as usize) >= snap.views.len() {
            return None;
        }
        let qsum = self.query_summary_in(&snap, query);
        self.match_one_in(&snap, query, &qsum, view)
    }

    /// [`MatchingEngine::match_one`] with a caller-supplied query summary,
    /// so a driver probing many views against one query (the `mv-audit`
    /// differential pass) analyzes the query once instead of per probe.
    pub fn match_one_prepared(
        &self,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        view: ViewId,
    ) -> Option<Substitute> {
        self.match_one_in(&self.snapshot(), query, qsum, view)
    }

    fn match_one_in(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        view: ViewId,
    ) -> Option<Substitute> {
        if snap.removed.contains(&view) || (view.0 as usize) >= snap.views.len() {
            return None;
        }
        let pq = PreparedQuery::new(query, qsum);
        let sub = match_view_prepared(
            &self.catalog,
            &self.config,
            &pq,
            view,
            snap.views.get(view),
            snap.packed.prepared(view),
        )?;
        // Same freshness gate as `find_substitutes`, so a single probe and
        // the full match never disagree on admissibility or stamp.
        let mut result = vec![(view, sub)];
        self.gate_freshness(snap, &mut result);
        #[cfg(debug_assertions)]
        self.debug_verify(snap, query, &result);
        result.pop().map(|(_, sub)| sub)
    }

    // ------------------------------------------------------------------
    // Audit API: read-only views into the filter index for `mv-audit`.
    // ------------------------------------------------------------------

    /// Has this view been dropped with [`MatchingEngine::remove_view`]?
    pub fn is_removed(&self, id: ViewId) -> bool {
        self.snapshot().removed.contains(&id)
    }

    /// Re-derive the per-level filter keys of a registered live view,
    /// read-only: template texts resolve through [`Interner::lookup`], so
    /// no tokens are minted and the engine is not mutated. For a live view
    /// this reproduces exactly the keys `add_view` computed (every text
    /// was interned then). Returns `None` for removed or out-of-range ids.
    pub fn view_filter_keys(&self, id: ViewId) -> Option<Vec<Vec<u64>>> {
        self.view_filter_keys_in(&self.snapshot(), id)
    }

    fn view_filter_keys_in(&self, snap: &CatalogSnapshot, id: ViewId) -> Option<Vec<Vec<u64>>> {
        if snap.removed.contains(&id) || (id.0 as usize) >= snap.views.len() {
            return None;
        }
        let def = snap.views.get(id);
        let vsum = &snap.packed.prepared(id).summary;
        Some(Self::view_keys(
            &self.catalog,
            &self.config,
            &mut |s| snap.interner.lookup(s),
            &def.expr,
            vsum,
        ))
    }

    /// Every `(view, stored per-level keys)` entry across both filter
    /// trees, exactly as the index holds them (normalized). SPJ entries
    /// carry [`SPJ_LEVELS`] keys, aggregation entries [`AGG_LEVELS`].
    pub fn filter_entries(&self) -> Vec<(ViewId, Vec<Vec<u64>>)> {
        let snap = self.snapshot();
        let mut out = snap.spj_tree.entries();
        out.extend(snap.agg_tree.entries());
        out
    }

    /// Is the view filed in its tree under exactly the keys a fresh
    /// derivation produces? `false` means the index lost the view or
    /// holds it under stale keys — either way a search may never reach it.
    pub fn view_in_tree(&self, id: ViewId) -> bool {
        let snap = self.snapshot();
        let Some(keys) = self.view_filter_keys_in(&snap, id) else {
            return false;
        };
        if snap.views.get(id).expr.is_aggregate() {
            snap.agg_tree.contains(&keys, id)
        } else {
            snap.spj_tree.contains(&keys[..SPJ_LEVELS], id)
        }
    }

    /// The per-level search conditions a query poses against the SPJ and
    /// aggregation trees, in that order. Read-only (unknown template
    /// texts resolve to the reserved [`UNKNOWN_TOKEN`]).
    pub fn query_searches(
        &self,
        query: &SpjgExpr,
        qsum: &ExprSummary,
    ) -> (Vec<LevelSearch>, Vec<LevelSearch>) {
        let tokens = self.query_tokens(&self.snapshot(), query, qsum);
        (tokens.spj_searches(), tokens.agg_searches())
    }

    /// Number of template-text tokens ever minted. Tokens are issued
    /// sequentially from 0, so any stored text token `>= known_token_count`
    /// (other than unreachable [`UNKNOWN_TOKEN`] query tokens) denotes a
    /// corrupted index entry.
    pub fn known_token_count(&self) -> u64 {
        self.snapshot().interner.map.len() as u64
    }

    /// Corruption hook for the `mv-audit` test suite: silently drop `id`
    /// from its filter tree while the engine still believes it is live.
    /// Simulates an index that lost an entry. Never call outside tests.
    /// Bumps every table epoch: a corrupted index invalidates all cached
    /// results, by design.
    #[doc(hidden)]
    pub fn evict_view_for_audit(&self, id: ViewId) -> bool {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        let Some(keys) = self.view_filter_keys_in(&next, id) else {
            return false;
        };
        let evicted = if next.views.get(id).expr.is_aggregate() {
            Arc::make_mut(&mut next.agg_tree).remove(&keys, id)
        } else {
            Arc::make_mut(&mut next.spj_tree).remove(&keys[..SPJ_LEVELS], id)
        };
        if !evicted {
            return false;
        }
        let all_tables: Vec<TableId> = (0..next.table_epochs.len())
            .map(|i| TableId(i as u32))
            .collect();
        next.bump_tables(all_tables);
        self.shared.store(Arc::new(next));
        true
    }

    /// Corruption hook for the `mv-audit` test suite: re-file `id` under
    /// caller-chosen per-level keys (arity must match the view's tree).
    /// Simulates an index whose stored keys drifted from the definition.
    /// Never call outside tests.
    #[doc(hidden)]
    pub fn refile_view_for_audit(&self, id: ViewId, keys: &[Vec<u64>]) -> bool {
        if !self.evict_view_for_audit(id) {
            return false;
        }
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        if next.views.get(id).expr.is_aggregate() {
            Arc::make_mut(&mut next.agg_tree).insert(keys, id);
        } else {
            Arc::make_mut(&mut next.spj_tree).insert(keys, id);
        }
        next.epoch += 1;
        self.shared.store(Arc::new(next));
        true
    }

    /// Pinned view of the packed descriptor arena — `mv-audit` walks it
    /// to validate spans against re-derived descriptors. Derefs to
    /// [`PackedCatalog`]; hold it across several reads to see one
    /// coherent arena while writers keep publishing.
    pub fn packed(&self) -> PackedGuard {
        PackedGuard {
            snap: self.snapshot(),
        }
    }

    /// Bytes reserved by the packed descriptor arenas of the current
    /// snapshot. The bench harness divides this by the live view count
    /// for its `bytes_per_view_arena` column.
    pub fn arena_bytes(&self) -> usize {
        self.snapshot().packed.arena_bytes()
    }

    /// Corruption hook for the `mv-audit` test suite: overwrite `id`'s
    /// residual-token span with an out-of-bounds `(offset, len)` while
    /// the rest of the catalog stays intact. Simulates a torn arena
    /// page. Never call outside tests. Bumps every table epoch: a
    /// corrupted arena invalidates all cached results, by design.
    #[doc(hidden)]
    pub fn corrupt_packed_span_for_audit(&self, id: ViewId) -> bool {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        if next.removed.contains(&id) || (id.0 as usize) >= next.views.len() {
            return false;
        }
        next.packed.corrupt_span_for_audit(id);
        let all_tables: Vec<TableId> = (0..next.table_epochs.len())
            .map(|i| TableId(i as u32))
            .collect();
        next.bump_tables(all_tables);
        self.shared.store(Arc::new(next));
        true
    }

    /// Debug-mode completeness oracle, the dual of
    /// [`MatchingEngine::debug_verify`]: after every filtered
    /// `find_substitutes`, exhaustively re-match each live view the filter
    /// tree pruned and panic if one of them actually matches — unless the
    /// only rejecting levels are the documented strict-expression-filter
    /// conservatism ([`strict_filter_exempt_levels`], section 4.2.7).
    /// Every test exercising the matching path in a debug build therefore
    /// doubles as a proof obligation that filter-tree candidates ⊇
    /// exhaustive matches. Capped at a modest catalog size so large debug
    /// workload tests stay fast; compiled out of release builds.
    #[cfg(debug_assertions)]
    fn debug_assert_filter_complete(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        candidates: &[ViewId],
    ) {
        const DEBUG_COMPLETENESS_CAP: usize = 512;
        if !self.config.use_filter_tree || snap.live_view_count() > DEBUG_COMPLETENESS_CAP {
            return;
        }
        let tokens = self.query_tokens(snap, query, qsum);
        let (spj, agg) = (tokens.spj_searches(), tokens.agg_searches());
        let pq = PreparedQuery::new(query, qsum);
        for (id, view) in snap.views.iter() {
            // `candidates` is sorted (see `candidates_into`).
            if snap.removed.contains(&id) || candidates.binary_search(&id).is_ok() {
                continue;
            }
            let pv = snap.packed.prepared(id);
            if match_view_prepared(&self.catalog, &self.config, &pq, id, view, pv).is_none() {
                continue;
            }
            let is_agg = view.expr.is_aggregate();
            assert!(
                !is_agg || query.is_aggregate(),
                "matcher accepted aggregation view `{}` for a non-aggregate \
                 query — invalid per section 3.3",
                view.name
            );
            let keys = self
                .view_filter_keys_in(snap, id)
                .expect("live view has derivable keys");
            let searches = if is_agg { &agg } else { &spj };
            let rejecting: Vec<usize> = searches
                .iter()
                .enumerate()
                .filter(|(lvl, s)| !s.accepts(&keys[*lvl]))
                .map(|(lvl, _)| lvl)
                .collect();
            let exempt = strict_filter_exempt_levels(is_agg);
            if self.config.strict_expression_filter
                && !rejecting.is_empty()
                && rejecting.iter().all(|l| exempt.contains(l))
            {
                continue;
            }
            let levels: Vec<&str> = rejecting.iter().map(|&l| LEVEL_NAMES[l]).collect();
            panic!(
                "filter tree dropped matching view `{}` (rejecting levels {levels:?}; \
                 an empty list means the view is missing from its tree)",
                view.name
            );
        }
    }

    /// Debug-mode oracle: run the independent `mv-verify` analyzer over
    /// every substitute the matcher just produced and panic on any
    /// ERROR-severity diagnostic. Because the analyzer shares no logic
    /// with the matcher, every test exercising the matching path doubles
    /// as a soundness test for both sides. Compiled out of release builds.
    #[cfg(debug_assertions)]
    fn debug_verify(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        results: &[(ViewId, Substitute)],
    ) {
        let ctx = mv_verify::VerifyContext::new(&self.catalog, &snap.checks);
        for (id, sub) in results {
            let view = snap.views.get(*id);
            let diags =
                mv_verify::verify_substitute(&ctx, query, &view.expr, sub, &view.name, "query");
            let errors: Vec<String> = diags
                .iter()
                .filter(|d| d.severity == mv_verify::Severity::Error)
                .map(|d| d.to_json())
                .collect();
            assert!(
                errors.is_empty(),
                "mv-verify rejected a matcher-produced substitute for view `{}`:\n{}",
                view.name,
                errors.join("\n"),
            );
        }
    }

    /// Debug-mode semantic oracle: run the `mv-prove` bounded model
    /// checker (DESIGN.md §15) over every substitute the matcher just
    /// produced and panic on a refutation, rendering the witness
    /// database. Off unless [`MatchConfig::prove_budget`] is nonzero —
    /// proving enumerates databases and executes both plans, so it is
    /// opt-in even for debug builds. Compiled out of release builds.
    #[cfg(debug_assertions)]
    fn debug_prove(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        results: &[(ViewId, Substitute)],
    ) {
        // Cap mirrors DEBUG_COMPLETENESS_CAP: proving is for functional
        // tests, not the scale benchmarks.
        const DEBUG_PROVE_CAP: usize = 64;
        if self.config.prove_budget == 0 || snap.views.len() > DEBUG_PROVE_CAP {
            return;
        }
        let ctx = mv_prove::ProveCtx::new(&self.catalog, &snap.checks);
        let cfg = mv_prove::ProveConfig {
            max_databases: self.config.prove_budget as u64,
            ..mv_prove::ProveConfig::default()
        };
        for (id, sub) in results {
            let view = snap.views.get(*id);
            let outcome = mv_prove::prove(&ctx, query, &view.expr, sub, &cfg);
            if outcome.is_refuted() {
                let tables = mv_prove::pair_tables(query, &view.expr, sub);
                let diags: Vec<String> =
                    mv_prove::prove_diagnostics(&outcome, &view.name, "query", &tables, &cfg)
                        .iter()
                        .map(|d| d.to_json())
                        .collect();
                panic!(
                    "mv-prove refuted a matcher-produced substitute for view `{}`:\n{}",
                    view.name,
                    diags.join("\n"),
                );
            }
        }
    }
}

/// A pinned, read-only handle on the registered views: derefs to
/// [`ViewSet`] and keeps the underlying [`CatalogSnapshot`] alive, so the
/// registry it exposes stays coherent (and valid) however many writers
/// publish while the guard is held. Returned by
/// [`MatchingEngine::views`].
#[derive(Debug, Clone)]
pub struct ViewsGuard {
    snap: Arc<CatalogSnapshot>,
}

impl std::ops::Deref for ViewsGuard {
    type Target = ViewSet;
    fn deref(&self) -> &ViewSet {
        &self.snap.views
    }
}

/// A pinned, read-only handle on the packed descriptor arena: derefs to
/// [`PackedCatalog`]. Writers publishing new snapshots never mutate the
/// arena this guard sees. Returned by [`MatchingEngine::packed`].
#[derive(Debug, Clone)]
pub struct PackedGuard {
    snap: Arc<CatalogSnapshot>,
}

impl std::ops::Deref for PackedGuard {
    type Target = PackedCatalog;
    fn deref(&self) -> &PackedCatalog {
        &self.snap.packed
    }
}

/// A pinned, read-only handle on the declared check constraints: derefs
/// to the per-table conjunct map. Returned by
/// [`MatchingEngine::check_constraints`].
#[derive(Debug, Clone)]
pub struct ChecksGuard {
    snap: Arc<CatalogSnapshot>,
}

impl std::ops::Deref for ChecksGuard {
    type Target = HashMap<TableId, Vec<Conjunct>>;
    fn deref(&self) -> &HashMap<TableId, Vec<Conjunct>> {
        &self.snap.checks
    }
}

/// [`MatchingEngine::find_substitutes_many`]'s grouping key: equal keys
/// are equal queries. The hash skips output names, the costliest part to
/// hash, so queries that differ only in names share a bucket and
/// equality tells them apart.
#[derive(PartialEq, Eq)]
struct BatchKey<'a>(&'a SpjgExpr);

impl Hash for BatchKey<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.0.tables.hash(h);
        self.0.conjuncts.hash(h);
        for ne in self.0.scalar_outputs() {
            ne.expr.hash(h);
        }
        for na in self.0.aggregate_outputs() {
            na.func.hash(h);
        }
    }
}

/// `Instant::elapsed` for a gated timer: `Duration::ZERO` when timing is
/// off ([`MatchConfig::timing`] = false).
fn elapsed(started: Option<Instant>) -> Duration {
    started.map_or(Duration::ZERO, |t| t.elapsed())
}

/// Overwrite the output names of cached substitutes with the probing
/// query's names. The fingerprint deliberately ignores names (α-equivalent
/// queries share an entry), and substitute outputs are positional with the
/// query's outputs, so restamping by position restores byte identity with
/// a fresh computation for this exact query.
fn restamp_output_names(results: &mut [(ViewId, Substitute)], query: &SpjgExpr) {
    let names = query.output_names();
    for (_, sub) in results.iter_mut() {
        match &mut sub.output {
            OutputList::Spj(items) => {
                for (item, name) in items.iter_mut().zip(&names) {
                    if item.name != *name {
                        item.name = (*name).to_string();
                    }
                }
            }
            OutputList::Aggregate {
                group_by,
                aggregates,
            } => {
                let (g_names, a_names) = names.split_at(group_by.len());
                for (item, name) in group_by.iter_mut().zip(g_names) {
                    if item.name != *name {
                        item.name = (*name).to_string();
                    }
                }
                for (item, name) in aggregates.iter_mut().zip(a_names) {
                    if item.name != *name {
                        item.name = (*name).to_string();
                    }
                }
            }
        }
    }
}

/// Query-side filter tokens, rendered once and shared by both trees'
/// search conditions.
struct QueryTokens {
    /// Source-table tokens (levels 1 and 2).
    source: Vec<u64>,
    /// Complex scalar output templates (level 3, and level 7 on the
    /// aggregation tree).
    scalar_exprs: Vec<u64>,
    /// Complex `SUM` argument templates — required from both view kinds.
    sum_exprs_complex: Vec<u64>,
    /// Simple-column `SUM` argument templates — required from aggregation
    /// views; against SPJ views the column condition covers them instead.
    sum_exprs_simple: Vec<u64>,
    /// Hitting classes of simple-column scalar outputs (level 4, and
    /// level 8 on the aggregation tree).
    out_classes: Vec<Vec<u64>>,
    /// Hitting classes of simple-column `SUM` arguments (SPJ tree only).
    sum_classes: Vec<Vec<u64>>,
    /// Residual predicate texts (level 5).
    residuals: Vec<u64>,
    /// Extended range-constrained column list (level 6).
    range_cols: Vec<u64>,
}

impl QueryTokens {
    /// Search conditions for the 6-level SPJ-view tree.
    fn spj_searches(&self) -> Vec<LevelSearch> {
        let exprs: Vec<u64> = self
            .scalar_exprs
            .iter()
            .chain(&self.sum_exprs_complex)
            .copied()
            .collect();
        let classes: Vec<Vec<u64>> = self
            .out_classes
            .iter()
            .chain(&self.sum_classes)
            .cloned()
            .collect();
        vec![
            LevelSearch::Subset(self.source.clone()),
            LevelSearch::Superset(self.source.clone()),
            LevelSearch::Superset(exprs),
            LevelSearch::Hitting(classes),
            LevelSearch::Subset(self.residuals.clone()),
            LevelSearch::Subset(self.range_cols.clone()),
        ]
    }

    /// Search conditions for the 8-level aggregation-view tree.
    fn agg_searches(&self) -> Vec<LevelSearch> {
        let exprs: Vec<u64> = self
            .scalar_exprs
            .iter()
            .chain(&self.sum_exprs_complex)
            .chain(&self.sum_exprs_simple)
            .copied()
            .collect();
        vec![
            LevelSearch::Subset(self.source.clone()),
            LevelSearch::Superset(self.source.clone()),
            LevelSearch::Superset(exprs),
            LevelSearch::Hitting(self.out_classes.clone()),
            LevelSearch::Subset(self.residuals.clone()),
            LevelSearch::Subset(self.range_cols.clone()),
            LevelSearch::Superset(self.scalar_exprs.clone()),
            LevelSearch::Hitting(self.out_classes.clone()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::FreshnessPolicy;
    use mv_catalog::tpch::tpch_catalog;
    use mv_expr::{BoolExpr, CmpOp, ScalarExpr as S};
    use mv_plan::{NamedAgg, NamedExpr};

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    fn part_view(lo: i64, hi: i64, name: &str) -> (String, SpjgExpr) {
        let (_, t) = tpch_catalog();
        let pred = BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(lo)),
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(hi)),
        ]);
        (
            name.to_string(),
            SpjgExpr::spj(
                vec![t.part],
                pred,
                vec![
                    NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
                    NamedExpr::new(S::col(cr(0, 5)), "p_size"),
                ],
            ),
        )
    }

    fn engine_with_views(config: MatchConfig) -> MatchingEngine {
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(cat, config);
        for (name, v) in [
            part_view(0, 1000, "parts_low"),
            part_view(500, 2000, "parts_mid"),
            part_view(5000, 9000, "parts_high"),
        ] {
            engine.add_view(ViewDef::new(name, v)).unwrap();
        }
        // An unrelated orders aggregate.
        let agg = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
        );
        engine
            .add_view(ViewDef::new("orders_by_cust", agg))
            .unwrap();
        engine
    }

    fn part_query(lo: i64, hi: i64) -> SpjgExpr {
        let (_, t) = tpch_catalog();
        let pred = BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(lo)),
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(hi)),
        ]);
        SpjgExpr::spj(
            vec![t.part],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")],
        )
    }

    #[test]
    fn finds_all_containing_views() {
        let engine = engine_with_views(MatchConfig::default());
        // Query range [600, 900) is contained in parts_low and parts_mid.
        let subs = engine.find_substitutes(&part_query(600, 900));
        assert_eq!(subs.len(), 2);
        // Range [400, 900) only fits parts_low.
        let subs = engine.find_substitutes(&part_query(400, 900));
        assert_eq!(subs.len(), 1);
        assert_eq!(engine.views().get(subs[0].0).name, "parts_low");
    }

    #[test]
    fn filter_and_no_filter_agree() {
        let with = engine_with_views(MatchConfig::default());
        let without = engine_with_views(MatchConfig {
            use_filter_tree: false,
            ..MatchConfig::default()
        });
        for (lo, hi) in [(600, 900), (400, 900), (0, 10_000), (5500, 6000)] {
            let q = part_query(lo, hi);
            let mut a: Vec<ViewId> = with
                .find_substitutes(&q)
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            let mut b: Vec<ViewId> = without
                .find_substitutes(&q)
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "range [{lo},{hi})");
        }
    }

    #[test]
    fn filter_narrows_candidates() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        let qsum = ExprSummary::analyze(&q);
        let candidates = engine.candidates(&q, &qsum);
        // The orders aggregate must never be a candidate for a part query.
        assert!(candidates.len() <= 3);
        let (_, t) = tpch_catalog();
        for id in candidates {
            assert_eq!(engine.views().get(id).expr.tables, vec![t.part]);
        }
    }

    #[test]
    fn stats_accumulate() {
        let engine = engine_with_views(MatchConfig::default());
        engine.find_substitutes(&part_query(600, 900));
        engine.find_substitutes(&part_query(400, 900));
        let stats = engine.stats();
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.substitutes, 3);
        assert_eq!(stats.views_available, 8);
        assert!(stats.candidates <= 8);
        engine.reset_stats();
        assert_eq!(engine.stats().invocations, 0);
    }

    #[test]
    fn aggregate_query_sees_both_trees() {
        let engine = engine_with_views(MatchConfig::default());
        let (_, t) = tpch_catalog();
        // Aggregate query over orders: answered by the aggregation view.
        let q = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::CountStar, "n")],
        );
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 1);
        assert_eq!(engine.views().get(subs[0].0).name, "orders_by_cust");
    }

    #[test]
    fn match_one_bypasses_filter() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        assert!(engine.match_one(&q, ViewId(0)).is_some());
        assert!(engine.match_one(&q, ViewId(2)).is_none());
    }

    #[test]
    fn removed_views_stop_matching() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        assert_eq!(engine.find_substitutes(&q).len(), 2);
        // Drop parts_low (ViewId 0).
        assert!(engine.remove_view(ViewId(0)));
        assert!(!engine.remove_view(ViewId(0)), "double remove is a no-op");
        assert_eq!(engine.live_view_count(), 3);
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 1);
        assert_eq!(engine.views().get(subs[0].0).name, "parts_mid");
        assert!(engine.match_one(&q, ViewId(0)).is_none());
        // The same holds with the filter tree disabled.
        let engine = engine_with_views(MatchConfig {
            use_filter_tree: false,
            ..MatchConfig::default()
        });
        engine.remove_view(ViewId(0));
        assert_eq!(engine.find_substitutes(&q).len(), 1);
        // Aggregation-tree removal works too.
        let engine = engine_with_views(MatchConfig::default());
        assert!(engine.remove_view(ViewId(3))); // orders_by_cust
        let (_, t) = tpch_catalog();
        let agg = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::CountStar, "n")],
        );
        assert!(engine.find_substitutes(&agg).is_empty());
    }

    #[test]
    fn audit_api_reports_index_state() {
        let engine = engine_with_views(MatchConfig::default());
        for id in 0..4 {
            assert!(engine.view_in_tree(ViewId(id)));
            assert!(!engine.is_removed(ViewId(id)));
        }
        assert!(engine.view_filter_keys(ViewId(99)).is_none());
        assert!(engine
            .match_one(&part_query(600, 900), ViewId(99))
            .is_none());
        let entries = engine.filter_entries();
        assert_eq!(entries.len(), 4);
        // Stored keys equal a fresh read-only derivation, up to the
        // normalization the lattice applies on insert.
        for (id, stored) in &entries {
            let derived = engine.view_filter_keys(*id).unwrap();
            assert!(stored.len() <= derived.len());
            for (s, d) in stored.iter().zip(derived.iter()) {
                let mut d = d.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(s, &d);
            }
        }
        // Evicting drops the view from the index but not from the engine.
        assert!(engine.evict_view_for_audit(ViewId(0)));
        assert!(!engine.view_in_tree(ViewId(0)));
        assert_eq!(engine.filter_entries().len(), 3);
        assert_eq!(engine.live_view_count(), 4);
        // Removed views have no keys and cannot be corrupted.
        let engine = engine_with_views(MatchConfig::default());
        engine.remove_view(ViewId(1));
        assert!(engine.view_filter_keys(ViewId(1)).is_none());
        assert!(!engine.evict_view_for_audit(ViewId(1)));
        assert!(!engine.refile_view_for_audit(ViewId(1), &[]));
    }

    #[test]
    fn refile_moves_the_index_entry() {
        let engine = engine_with_views(MatchConfig::default());
        let mut keys = engine.view_filter_keys(ViewId(0)).unwrap();
        keys.truncate(SPJ_LEVELS);
        keys[4].push(999_999); // bogus residual token
        assert!(engine.refile_view_for_audit(ViewId(0), &keys));
        assert!(!engine.view_in_tree(ViewId(0)), "stored keys are stale now");
        assert_eq!(engine.filter_entries().len(), 4);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "filter tree dropped matching view")]
    fn debug_hook_catches_evicted_view() {
        let engine = engine_with_views(MatchConfig::default());
        engine.evict_view_for_audit(ViewId(0));
        engine.find_substitutes(&part_query(600, 900));
    }

    #[test]
    fn rejects_invalid_view() {
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(cat, MatchConfig::default());
        let bad = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(5, 0)), "oops")],
        );
        assert!(engine.add_view(ViewDef::new("bad", bad)).is_err());
    }

    #[test]
    fn add_views_bulk_is_all_or_nothing() {
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(cat, MatchConfig::default());
        let (n1, v1) = part_view(0, 100, "a");
        let (n2, v2) = part_view(100, 200, "b");
        let ids = engine
            .add_views(vec![ViewDef::new(n1, v1), ViewDef::new(n2, v2)])
            .unwrap();
        assert_eq!(ids, vec![ViewId(0), ViewId(1)]);
        assert_eq!(engine.live_view_count(), 2);
        assert_eq!(engine.stats().registrations, 2);
        let epoch_before = engine.snapshot_epoch();
        // A batch with an invalid member registers nothing at all.
        let (n3, v3) = part_view(200, 300, "c");
        let bad = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(5, 0)), "oops")],
        );
        assert!(engine
            .add_views(vec![ViewDef::new(n3, v3), ViewDef::new("bad", bad)])
            .is_err());
        assert_eq!(engine.live_view_count(), 2);
        assert_eq!(engine.stats().registrations, 2);
        assert_eq!(engine.snapshot_epoch(), epoch_before, "nothing published");
    }

    #[test]
    fn disjoint_writes_preserve_cache_entries() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        let first = engine.find_substitutes(&q);
        // Removing the orders aggregate touches no table of the cached
        // part query, so its entry must survive.
        assert!(engine.remove_view(ViewId(3)));
        let again = engine.find_substitutes(&q);
        assert_eq!(first, again);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1, "disjoint removal must not evict");
        assert_eq!(stats.cache_invalidations, 0);
        assert_eq!(stats.removals, 1);
        // A check constraint on a table the query never references keeps
        // the entry valid too.
        let (_, t) = tpch_catalog();
        engine
            .add_check_constraint(
                t.orders,
                BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
            )
            .unwrap();
        engine.find_substitutes(&q);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_invalidations, 0);
    }

    #[test]
    fn overlapping_writes_invalidate_cache_entries() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        engine.find_substitutes(&q);
        // Registering another part view overlaps the cached query's
        // tables: the entry must go stale and the new view must appear.
        let (name, v) = part_view(0, 10_000, "parts_all");
        engine.add_view(ViewDef::new(name, v)).unwrap();
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 3, "the freshly registered view matches too");
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_invalidations, 1);
        assert_eq!(stats.registrations, 5, "4 initial + 1");
        // A check constraint on the query's own table invalidates as well.
        let (_, t) = tpch_catalog();
        engine
            .add_check_constraint(
                t.part,
                BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
            )
            .unwrap();
        engine.find_substitutes(&q);
        assert_eq!(engine.stats().cache_invalidations, 2);
    }

    #[test]
    fn disabled_constraint_folding_preserves_cache_entries() {
        // With `use_check_constraints` off, a registered constraint never
        // reaches any query summary, so registration must not invalidate —
        // even on the query's own table.
        let engine = engine_with_views(MatchConfig {
            use_check_constraints: false,
            ..MatchConfig::default()
        });
        let q = part_query(600, 900);
        let first = engine.find_substitutes(&q);
        let (_, t) = tpch_catalog();
        engine
            .add_check_constraint(
                t.part,
                BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
            )
            .unwrap();
        let again = engine.find_substitutes(&q);
        assert_eq!(first, again);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1, "unfolded constraint must not evict");
        assert_eq!(stats.cache_invalidations, 0);
    }

    #[test]
    fn strict_fresh_excludes_stale_views() {
        let engine = engine_with_views(MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..MatchConfig::default()
        });
        let (_, t) = tpch_catalog();
        let q = part_query(600, 900);
        assert_eq!(engine.find_substitutes(&q).len(), 2);
        // A write round against part makes both part views stale.
        engine.record_base_write(t.part);
        assert!(engine.find_substitutes(&q).is_empty());
        assert_eq!(engine.view_staleness(ViewId(0)), Some(1));
        // `match_one` agrees with the batch path.
        assert!(engine.match_one(&q, ViewId(0)).is_none());
        // Maintenance restamps parts_low; it alone serves again, Fresh.
        assert!(engine.mark_view_maintained(ViewId(0)));
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].0, ViewId(0));
        assert!(subs[0].1.freshness.is_fresh());
        // The orders aggregate never referenced part: still fresh.
        assert_eq!(engine.view_staleness(ViewId(3)), Some(0));
    }

    #[test]
    fn bounded_staleness_admits_and_stamps_lag() {
        let engine = engine_with_views(MatchConfig {
            freshness: FreshnessPolicy::BoundedStaleness(2),
            ..MatchConfig::default()
        });
        let (_, t) = tpch_catalog();
        let q = part_query(600, 900);
        engine.record_base_write(t.part);
        engine.record_base_write(t.part);
        // Two rounds behind: admitted at the bound, stamped with the lag.
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 2);
        for (_, sub) in &subs {
            assert_eq!(sub.freshness, Freshness::Stale { lag: 2 });
        }
        // A third round exceeds the bound.
        engine.record_base_write(t.part);
        assert!(engine.find_substitutes(&q).is_empty());
    }

    #[test]
    fn stale_ok_serves_everything_with_honest_stamps() {
        let engine = engine_with_views(MatchConfig::default());
        let (_, t) = tpch_catalog();
        let q = part_query(600, 900);
        let fresh = engine.find_substitutes(&q);
        assert!(fresh.iter().all(|(_, s)| s.freshness.is_fresh()));
        engine.record_base_write(t.part);
        // StaleOk (the default) still serves, but the stamp says stale.
        // The write leaves the cached entry valid: the hit is replayed and
        // the freshness gate stamps it from the current data epochs.
        let stale = engine.find_substitutes(&q);
        assert_eq!(stale.len(), fresh.len());
        assert!(stale
            .iter()
            .all(|(_, s)| s.freshness == Freshness::Stale { lag: 1 }));
        let stats = engine.stats();
        assert!(stats.cache_hits == 1 && stats.cache_invalidations == 0);
    }

    #[test]
    fn write_to_eliminated_table_stamps_cached_hit_stale() {
        // A view may cover more tables than the queries it serves (e.g.
        // after FK elimination). A write to such a table never touches the
        // query's cache stamp, yet the served substitute must carry the
        // view's new lag: the freshness gate after the cache reads the
        // view's own stamp, not the query's tables.
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(cat, MatchConfig::default());
        // View joining orders to customer; queries over orders alone can
        // be served from it via FK elimination.
        let v = SpjgExpr::spj(
            vec![t.orders, t.customer],
            BoolExpr::col_eq(cr(0, 1), cr(1, 0)),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "o_orderkey"),
                NamedExpr::new(S::col(cr(0, 1)), "o_custkey"),
            ],
        );
        engine.add_view(ViewDef::new("orders_cust", v)).unwrap();
        let q = SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
        );
        let before = engine.find_substitutes(&q);
        assert_eq!(
            before.len(),
            1,
            "FK elimination serves orders from the join view"
        );
        // Writing *customer* — a table the query never references — still
        // changes the view's freshness, so the cached hit must carry the
        // new stamp.
        engine.record_base_write(t.customer);
        let after = engine.find_substitutes(&q);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].1.freshness, Freshness::Stale { lag: 1 });
        let stats = engine.stats();
        assert!(stats.cache_hits == 1 && stats.cache_invalidations == 0);
    }

    #[test]
    fn strict_fresh_cache_serves_a_restamped_view_again() {
        // The cache must hold the catalog-only result: a StrictFresh miss
        // that drops a stale view caches the view anyway, so once the view
        // is restamped the very next probe is a hit that serves it Fresh.
        // A cache of gated results would keep replaying the empty answer.
        let engine = engine_with_views(MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..MatchConfig::default()
        });
        let (_, t) = tpch_catalog();
        let q = part_query(400, 900);
        engine.record_base_write(t.part);
        assert!(
            engine.find_substitutes(&q).is_empty(),
            "stale: nothing served"
        );
        let stats = engine.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        assert_eq!(engine.substitute_cache_len(), 1, "the miss is cached");
        assert!(engine.mark_view_maintained(ViewId(0)));
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].0, ViewId(0));
        assert_eq!(subs[0].1.freshness, Freshness::Fresh);
        let stats = engine.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.cache_invalidations, 0);
    }

    #[test]
    fn view_registered_after_writes_starts_fresh() {
        let engine = engine_with_views(MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..MatchConfig::default()
        });
        let (_, t) = tpch_catalog();
        engine.record_base_write(t.part);
        // A view materialized *now* reflects the current data: its stamp
        // must equal the current epochs, not zero.
        let (name, v) = part_view(0, 10_000, "parts_all");
        let id = engine.add_view(ViewDef::new(name, v)).unwrap();
        assert_eq!(engine.view_staleness(id), Some(0));
        let subs = engine.find_substitutes(&part_query(600, 900));
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].0, id);
    }
}
