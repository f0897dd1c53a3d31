//! The packed catalog must be invisible: under any interleaving of
//! `add_view` / `remove_view` / `find_substitutes`, the engine — whose
//! hot path runs the arena-backed precheck, the filter tree, and the
//! prepared matcher — returns byte-identical results to a brute-force
//! oracle that calls the legacy `match_view` entry point on every live
//! view. The sorted-slice kernels backing the precheck are additionally
//! checked against a `HashSet` model, and `find_substitutes_many` must
//! agree with query-at-a-time matching under arbitrary batches.

use mv_catalog::tpch::tpch_catalog;
use mv_core::{
    match_view, sorted_intersects, sorted_subset, ExprSummary, MatchConfig, MatchingEngine,
};
use mv_plan::{OutputList, SpjgExpr, ViewDef, ViewId};
use mv_workload::{Generator, WorkloadParams};
use proptest::prelude::*;
use std::collections::HashSet;

const VIEW_SEED: u64 = 0x5EED_CAFE;
const QUERY_SEED: u64 = 0x00DD_BA11;

fn pools(n_views: usize, n_queries: usize) -> (Vec<ViewDef>, Vec<SpjgExpr>) {
    let (catalog, _) = tpch_catalog();
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(n_views);
    let queries =
        Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(n_queries);
    (views, queries)
}

fn uncached_config() -> MatchConfig {
    MatchConfig {
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    }
}

fn engine() -> MatchingEngine {
    let (catalog, _) = tpch_catalog();
    MatchingEngine::new(catalog, uncached_config())
}

/// One step of the interleaving, decoded from a `(kind, index)` pair
/// (the vendored proptest stand-in has no `prop_oneof`).
#[derive(Debug, Clone, Copy)]
enum Op {
    AddView(usize),
    RemoveView(usize),
    Find(usize),
}

fn decode(kind: usize, idx: usize) -> Op {
    match kind {
        0 => Op::AddView(idx),
        1 => Op::RemoveView(idx),
        _ => Op::Find(idx),
    }
}

/// Brute-force oracle: match every live view with the unprepared entry
/// point (no filter tree, no packed precheck, no residual-token spans),
/// in ascending `ViewId` order — the order the engine reports.
fn oracle(
    catalog: &mv_catalog::Catalog,
    config: &MatchConfig,
    live: &[(ViewId, ViewDef)],
    query: &SpjgExpr,
) -> Vec<(ViewId, mv_plan::Substitute)> {
    let qsum = ExprSummary::analyze(query);
    let mut out = Vec::new();
    for (id, def) in live {
        let vsum = ExprSummary::analyze(&def.expr);
        if let Some(sub) = match_view(catalog, config, query, &qsum, *id, def, &vsum) {
            out.push((*id, sub));
        }
    }
    out.sort_by_key(|(id, _)| *id);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Apply an arbitrary op sequence; every `find_substitutes` must
    /// agree byte-for-byte with the brute-force oracle. This pins down
    /// three things at once: the packed precheck rejects no true match,
    /// the filter tree loses no candidate, and the prepared matcher
    /// (spans, interned tokens, precomputed outputs) produces the same
    /// substitutes as the legacy per-view path.
    #[test]
    fn packed_engine_equals_bruteforce_oracle(
        ops in prop::collection::vec((0usize..3, 0usize..16), 1..40),
    ) {
        let (views, queries) = pools(16, 8);
        let (catalog, _) = tpch_catalog();
        let config = uncached_config();
        let engine = engine();
        let mut live: Vec<(ViewId, ViewDef)> = Vec::new();

        for (kind, idx) in ops {
            match decode(kind, idx) {
                Op::AddView(i) => {
                    // Re-adding a live view fails (duplicate name); the
                    // oracle only tracks successful registrations.
                    let def = views[i % views.len()].clone();
                    if let Ok(id) = engine.add_view(def.clone()) {
                        live.push((id, def));
                    }
                }
                Op::RemoveView(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, _) = live.remove(i % live.len());
                    prop_assert!(engine.remove_view(id));
                }
                Op::Find(i) => {
                    let q = &queries[i % queries.len()];
                    let mut got = engine.find_substitutes(q);
                    got.sort_by_key(|(id, _)| *id);
                    let want = oracle(&catalog, &config, &live, q);
                    prop_assert_eq!(got, want);
                }
            }
        }

        // Every arena span the interleaving produced must still be
        // in bounds and sorted, including spans of removed views
        // (slots stay sealed in their segment).
        let packed = engine.packed();
        for id in 0..packed.len() {
            prop_assert!(packed.validate_spans(ViewId(id as u32)).is_ok());
        }
    }

    /// The sorted-slice kernels against a `HashSet` model. Inputs are
    /// sorted but deliberately not deduplicated: the kernels promise
    /// set semantics over multisets.
    #[test]
    fn sorted_kernels_match_hashset_model(
        a in prop::collection::vec(0u32..48, 0..24),
        b in prop::collection::vec(0u32..48, 0..24),
    ) {
        let mut sa = a.clone();
        let mut sb = b.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        let set_a: HashSet<u32> = a.into_iter().collect();
        let set_b: HashSet<u32> = b.into_iter().collect();
        prop_assert_eq!(sorted_subset(&sa, &sb), set_a.is_subset(&set_b));
        prop_assert_eq!(sorted_intersects(&sa, &sb), !set_a.is_disjoint(&set_b));
        // Degenerate slices behave like the empty set.
        prop_assert!(sorted_subset(&[], &sa));
        prop_assert!(!sorted_intersects(&[], &sa));
    }

    /// Batched matching must be a pure reordering optimization:
    /// `find_substitutes_many` over an arbitrary multiset of queries
    /// (duplicates make groups of size > 1) returns exactly
    /// what query-at-a-time calls return, in input order.
    #[test]
    fn batch_equals_query_at_a_time(
        picks in prop::collection::vec(0usize..16, 1..24),
    ) {
        let (views, queries) = pools(16, 8);
        let engine = engine();
        for v in &views {
            engine.add_view(v.clone()).expect("generated views are valid");
        }
        let batch: Vec<SpjgExpr> = picks
            .iter()
            .map(|&i| queries[i % queries.len()].clone())
            .collect();
        let got = engine.find_substitutes_many(&batch);
        prop_assert_eq!(got.len(), batch.len());
        for (q, got_q) in batch.iter().zip(&got) {
            prop_assert_eq!(got_q, &engine.find_substitutes(q));
        }
    }

    /// With the cache enabled, batching must also be invisible in the
    /// *statistics*: a replayed duplicate is served from the group
    /// representative exactly as a repeated query is served from the
    /// cache, so every count-type counter (invocations, candidates,
    /// substitutes, cache hits/misses/invalidations) must come out equal
    /// to query-at-a-time matching — both cold and after a warm-up pass
    /// that makes the representatives themselves cache hits.
    #[test]
    fn batch_matches_per_query_counters(
        picks in prop::collection::vec(0usize..16, 1..24),
    ) {
        let (views, queries) = pools(16, 8);
        let batched = MatchingEngine::new(tpch_catalog().0, MatchConfig::default());
        let one_by_one = MatchingEngine::new(tpch_catalog().0, MatchConfig::default());
        for v in &views {
            batched.add_view(v.clone()).expect("generated views are valid");
            one_by_one.add_view(v.clone()).expect("generated views are valid");
        }
        let batch: Vec<SpjgExpr> = picks
            .iter()
            .map(|&i| queries[i % queries.len()].clone())
            .collect();
        for pass in ["cold", "warm"] {
            let got = batched.find_substitutes_many(&batch);
            let mut want = Vec::with_capacity(batch.len());
            for q in &batch {
                want.push(one_by_one.find_substitutes(q));
            }
            prop_assert_eq!(&got, &want, "{} pass results", pass);
            let (a, b) = (batched.stats(), one_by_one.stats());
            prop_assert_eq!(a.invocations, b.invocations, "{} invocations", pass);
            prop_assert_eq!(a.candidates, b.candidates, "{} candidates", pass);
            prop_assert_eq!(a.views_available, b.views_available, "{} views_available", pass);
            prop_assert_eq!(a.substitutes, b.substitutes, "{} substitutes", pass);
            prop_assert_eq!(a.cache_hits, b.cache_hits, "{} cache_hits", pass);
            prop_assert_eq!(a.cache_misses, b.cache_misses, "{} cache_misses", pass);
            prop_assert_eq!(
                a.cache_invalidations, b.cache_invalidations,
                "{} cache_invalidations", pass
            );
        }
    }
}

/// α-renamed duplicates differ only in output names; the batch path must
/// serve each member with the output names of its own query, not those
/// of another member.
#[test]
fn batch_restamps_renamed_duplicates() {
    let (views, queries) = pools(16, 8);
    let engine = engine();
    for v in &views {
        engine
            .add_view(v.clone())
            .expect("generated views are valid");
    }
    let q = queries
        .iter()
        .find(|q| !engine.find_substitutes(q).is_empty())
        .expect("workload produced at least one matching query");

    let mut renamed = q.clone();
    match &mut renamed.output {
        OutputList::Spj(items) => {
            for (i, item) in items.iter_mut().enumerate() {
                item.name = format!("r{i}");
            }
        }
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => {
            for (i, item) in group_by.iter_mut().enumerate() {
                item.name = format!("g{i}");
            }
            for (i, item) in aggregates.iter_mut().enumerate() {
                item.name = format!("a{i}");
            }
        }
    }

    let batch = vec![q.clone(), renamed.clone(), q.clone()];
    let got = engine.find_substitutes_many(&batch);
    assert_eq!(got[0], engine.find_substitutes(q));
    assert_eq!(got[1], engine.find_substitutes(&renamed));
    assert_eq!(got[2], got[0]);
    assert_ne!(
        got[0], got[1],
        "renamed outputs must restamp differently from the original"
    );
}
