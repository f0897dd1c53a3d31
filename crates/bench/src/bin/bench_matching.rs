//! Serial vs parallel view-matching throughput across view-set sizes,
//! persisted as a machine-readable trajectory at the repo root.
//!
//! ```text
//! cargo run -p mv-bench --release --bin bench_matching
//! ```
//!
//! appends to `BENCH_matching.json` a trajectory entry with one record
//! per (view count, mode, workload): view count, query count, worker
//! threads, p50/p95/p99 per-query match latency in microseconds, matching
//! throughput in queries/second, the filter-tree pruning ratio
//! (candidates examined / catalog size), and the substitute-cache hit
//! rate (`null` for cache-off runs). Earlier entries in the file are
//! kept, so the file accumulates a performance trajectory across runs —
//! and because earlier revisions of this bench emitted drifted field
//! sets, every prior entry is re-parsed and migrated to the current
//! uniform schema on append (missing `unix_time` becomes 0, redundant
//! per-entry header fields are dropped, missing run fields become `null`
//! or their documented defaults), so every row of the written file parses
//! identically. A file in the pre-trajectory single-run format is
//! absorbed as the first entry.
//!
//! Serial records drive `find_substitutes` one query at a time on an
//! engine pinned to the serial path; parallel records drive
//! `find_substitutes_many` (one snapshot pin, identical queries grouped,
//! groups fanned out) over the same queries sharing the
//! engine across worker threads. Uniform-workload engines run with the
//! substitute cache off (the measurement loop repeats each query, which
//! would otherwise measure pure cache hits); the `zipf` records measure
//! exactly that repeated-template regime instead — a skewed stream over
//! ~50 query templates, cold (cache off) vs warm (default cache,
//! primed). The `zipf-churn` record is the online-catalog measurement:
//! matcher threads replay the warm skewed stream while a registration
//! thread concurrently adds views over a table disjoint from every
//! template, so per-table cache invalidation must leave the warm entries
//! alone — the record carries throughput under churn and the retained
//! hit rate (the engine's global-epoch ancestor scored ~0% here).
//!
//! ```text
//! cargo run -p mv-bench --release --bin bench_matching -- \
//!     [--sizes 100,1000,10000,100000] [--queries N] [--threads N] \
//!     [--out PATH] [--strict] [--prove-smoke N]
//! ```
//!
//! `--prove-smoke N` additionally runs the `mv-prove` bounded
//! equivalence checker over the first N substitutes the matcher
//! produces at the largest scale point (k=2) and records the outcome
//! counts and wall time in the trajectory entry's `note` field, so the
//! prove cost rides along with the matching trajectory.
//!
//! Every run also emits one `mode: "maintain"` / `workload:
//! "churn-writes"` row: the views (capped at 1000) are registered with
//! the `mv-maintain` incremental-maintenance driver over tiny generated
//! data, insert/delete delta rounds stream through the base tables, and
//! the row records the mean maintenance cost per delta
//! (`maintain_us_per_delta`, the `apply_with_engine` wall clock) and the
//! fraction of substitutes served with a `Fresh` stamp when the skewed
//! query stream replays right after each maintenance round
//! (`fresh_serving_rate` — recompute-fallback views are stale at that
//! point and drag the rate below 1.0 honestly; they refresh between
//! rounds). Under `--strict`, `maintain_us_per_delta` ratchets against
//! the best prior maintain row at the same scale (2x tolerance).
//!
//! Each scale point also emits a `batched` record driving
//! `find_substitutes_many` over the skewed stream (cache off): the
//! duplicate-heavy batch forms groups of identical queries, so the record
//! measures what one-snapshot-pin, one-descent-per-group batching buys
//! over the serial cold stream. Uniform-serial rows additionally carry
//! `rss_bytes_per_view` (resident-set growth of the bulk registration,
//! Linux only) and `bytes_per_view_arena` (the packed descriptor
//! arena's deterministic share); both are `null` on rows that do not
//! measure registration.
//!
//! `--strict` turns the built-in regression assertions into the exit
//! code: the run fails if the parallel auto mode regresses serial
//! throughput by more than 10 % at any scale point, if the warm hit
//! rate retained across the disjoint-table churn drops below 90 %, or
//! — ratcheting against the best prior trajectory entry at the same
//! scale — if memory per view (arena or RSS) exceeds 1.25x the prior
//! best or the serial p50 exceeds 2x the prior best.

use mv_bench::json::Json;
use mv_bench::{build_workload, engine_with, Workload, DATA_SEED};
use mv_catalog::TableId;
use mv_core::{MatchConfig, MatchingEngine};
use mv_data::{generate_tpch, TpchScale};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_maintain::{MaintainStrategy, Maintainer, TableDelta};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct Args {
    sizes: Vec<usize>,
    queries: usize,
    threads: usize,
    out: String,
    strict: bool,
    prove_smoke: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        sizes: vec![100, 1000, 10_000, 100_000],
        queries: 200,
        threads: 0, // 0 = auto (available parallelism)
        out: concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matching.json").to_string(),
        strict: false,
        prove_smoke: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{} requires a value", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--sizes" => {
                args.sizes = value(i)
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            eprintln!("--sizes takes a comma-separated list of view counts");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                i += 2;
            }
            "--queries" => {
                args.queries = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("--queries requires a positive number");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--threads" => {
                args.threads = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("--threads requires a number (0 = auto)");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--out" => {
                args.out = value(i);
                i += 2;
            }
            "--strict" => {
                args.strict = true;
                i += 1;
            }
            "--prove-smoke" => {
                args.prove_smoke = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("--prove-smoke requires a number of substitutes");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if args.sizes.is_empty() || args.queries == 0 {
        eprintln!("--sizes and --queries must be non-empty");
        std::process::exit(2);
    }
    args
}

/// One measured (view count, mode, workload) record.
struct Record {
    views: usize,
    mode: &'static str,
    threads: usize,
    queries: usize,
    /// `uniform`: the full distinct-query list, cache off. `zipf-cold` /
    /// `zipf-warm`: the skewed repeated-template stream, cache off vs on.
    /// `zipf-churn`: the warm stream with a concurrent registration
    /// thread churning a disjoint table.
    workload: &'static str,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    throughput_qps: f64,
    /// Filter-tree pruning ratio: candidates examined / views available,
    /// averaged over every `find_substitutes` call of the run (the paper
    /// reports ~0.3 % — §5.2).
    candidate_fraction: f64,
    /// Substitute-cache hit rate over the measured run; `None` when the
    /// cache is off.
    cache_hit_rate: Option<f64>,
    /// Resident-set growth of registering the catalog, per view (from
    /// `/proc/self/status`; `None` off Linux or on non-registration
    /// rows). Carried by the uniform-serial row of each scale point.
    rss_bytes_per_view: Option<f64>,
    /// Packed-descriptor arena footprint per view
    /// (`MatchingEngine::arena_bytes` / views) — deterministic, unlike
    /// RSS, so the strict memory gate leans on it.
    bytes_per_view_arena: Option<f64>,
}

/// Current VmRSS in bytes, `None` where `/proc` is unavailable.
fn rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line
        .trim_start_matches("VmRSS:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0)
}

fn percentile_us(latencies: &mut [Duration], q: f64) -> f64 {
    latencies.sort_unstable();
    let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
    latencies[idx].as_secs_f64() * 1e6
}

/// Repetitions that keep one measurement loop around `target` wall-clock,
/// from a single calibration run.
fn calibrate_reps(once: Duration, target: Duration) -> usize {
    if once.is_zero() {
        return 1000;
    }
    (target.as_secs_f64() / once.as_secs_f64()).ceil() as usize
}

const MEASURE_TARGET: Duration = Duration::from_millis(300);

/// Drive `find_substitutes` one query at a time; per-query latencies and
/// end-to-end throughput.
fn run_serial(engine: &MatchingEngine, queries: &[SpjgExpr]) -> (Vec<Duration>, f64) {
    let once = {
        let t = Instant::now();
        for q in queries {
            std::hint::black_box(engine.find_substitutes(q));
        }
        t.elapsed()
    };
    let reps = calibrate_reps(once, MEASURE_TARGET);
    let mut latencies = Vec::with_capacity(queries.len() * reps);
    let started = Instant::now();
    for _ in 0..reps {
        for q in queries {
            let t = Instant::now();
            std::hint::black_box(engine.find_substitutes(q));
            latencies.push(t.elapsed());
        }
    }
    let total = started.elapsed();
    let qps = (queries.len() * reps) as f64 / total.as_secs_f64();
    (latencies, qps)
}

/// Drive `find_substitutes_many` over the whole query list; throughput
/// from the batch entry point, latencies from an identically-shaped timed
/// fan-out over the same shared engine.
fn run_parallel(
    engine: &MatchingEngine,
    queries: &[SpjgExpr],
    workers: usize,
) -> (Vec<Duration>, f64) {
    let once = {
        let t = Instant::now();
        std::hint::black_box(engine.find_substitutes_many(queries));
        t.elapsed()
    };
    let reps = calibrate_reps(once, MEASURE_TARGET);
    let started = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(engine.find_substitutes_many(queries));
    }
    let total = started.elapsed();
    let qps = (queries.len() * reps) as f64 / total.as_secs_f64();
    let latencies = mv_parallel::par_map(queries, workers, |q| {
        let t = Instant::now();
        std::hint::black_box(engine.find_substitutes(q));
        t.elapsed()
    });
    (latencies, qps)
}

fn measure(w: &Workload, args: &Args, views: usize, workers: usize) -> (Record, Record) {
    // The serial engine never fans out, whatever the candidate count; the
    // parallel engine uses the default threshold plus the requested
    // worker cap for batch calls. Both run with the substitute cache off:
    // the measurement loop repeats each distinct query, so an enabled
    // cache would turn the uniform records into cache-hit benchmarks (the
    // zipf records measure that regime deliberately).
    let serial_cfg = MatchConfig {
        parallel_threshold: usize::MAX,
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    };
    let parallel_cfg = MatchConfig {
        parallel_workers: args.threads,
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    };

    // Registration cost per view: RSS growth around the bulk add (noisy,
    // allocator-reuse-dependent, but what an operator sees) plus the
    // deterministic packed-arena share.
    let rss_before = rss_bytes();
    let engine = engine_with(w, views, serial_cfg);
    let rss_per_view = rss_before
        .zip(rss_bytes())
        .map(|(before, after)| ((after - before).max(0.0)) / views as f64);
    let arena_per_view = Some(engine.arena_bytes() as f64 / views as f64);
    let (mut lat, qps) = run_serial(&engine, &w.queries);
    let serial = Record {
        views,
        mode: "serial",
        threads: 1,
        queries: w.queries.len(),
        workload: "uniform",
        p50_us: percentile_us(&mut lat, 0.50),
        p95_us: percentile_us(&mut lat, 0.95),
        p99_us: percentile_us(&mut lat, 0.99),
        throughput_qps: qps,
        candidate_fraction: engine.stats().candidate_fraction(),
        cache_hit_rate: None,
        rss_bytes_per_view: rss_per_view,
        bytes_per_view_arena: arena_per_view,
    };

    let engine = engine_with(w, views, parallel_cfg);
    let (mut lat, qps) = run_parallel(&engine, &w.queries, workers);
    let parallel = Record {
        views,
        mode: "parallel",
        threads: workers,
        queries: w.queries.len(),
        workload: "uniform",
        p50_us: percentile_us(&mut lat, 0.50),
        p95_us: percentile_us(&mut lat, 0.95),
        p99_us: percentile_us(&mut lat, 0.99),
        throughput_qps: qps,
        candidate_fraction: engine.stats().candidate_fraction(),
        cache_hit_rate: None,
        rss_bytes_per_view: None,
        bytes_per_view_arena: arena_per_view,
    };
    (serial, parallel)
}

/// Drive `find_substitutes_many` over the skewed stream, cache off: the
/// duplicate-heavy batch makes real groups of identical queries, so the record
/// measures the amortization the batched entry point buys (one snapshot
/// pin, one tree descent per group). Per-query latency is the batch
/// wall-clock divided evenly — individual queries are not timed inside
/// the batch — so the percentiles describe batch-call variance.
fn measure_batched(w: &Workload, views: usize, stream: &[SpjgExpr], workers: usize) -> Record {
    let cfg = MatchConfig {
        parallel_workers: workers,
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    };
    let engine = engine_with(w, views, cfg);
    let once = {
        let t = Instant::now();
        std::hint::black_box(engine.find_substitutes_many(stream));
        t.elapsed()
    };
    let reps = calibrate_reps(once, MEASURE_TARGET);
    let mut per_query = Vec::with_capacity(reps);
    let started = Instant::now();
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(engine.find_substitutes_many(stream));
        per_query.push(t.elapsed() / stream.len() as u32);
    }
    let total = started.elapsed();
    Record {
        views,
        mode: "batched",
        threads: workers,
        queries: stream.len(),
        workload: "zipf-cold",
        p50_us: percentile_us(&mut per_query, 0.50),
        p95_us: percentile_us(&mut per_query, 0.95),
        p99_us: percentile_us(&mut per_query, 0.99),
        throughput_qps: (stream.len() * reps) as f64 / total.as_secs_f64(),
        candidate_fraction: engine.stats().candidate_fraction(),
        cache_hit_rate: None,
        rss_bytes_per_view: None,
        bytes_per_view_arena: Some(engine.arena_bytes() as f64 / views as f64),
    }
}

/// Number of distinct query templates in the skewed stream.
const ZIPF_TEMPLATES: usize = 50;

/// Views the registration thread adds during the churn measurement.
const CHURN_VIEWS: usize = 48;

/// Matcher threads racing the registration thread.
const CHURN_MATCHERS: usize = 2;

/// Deterministic splitmix64 step — the standard 64-bit mixer, inlined so
/// the bench needs no external RNG crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A zipf-like skewed stream of `len` queries drawn from `templates`
/// with weight `1 / (rank + 1)` — the repeated-template regime of a
/// parameterized production workload, where a handful of hot shapes
/// dominate.
fn zipf_stream(templates: &[SpjgExpr], len: usize) -> Vec<SpjgExpr> {
    let weights: Vec<f64> = (0..templates.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut state: u64 = 0x5EED_0F21_D15C_0B41;
    (0..len)
        .map(|_| {
            let mut x = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut pick = templates.len() - 1;
            for (i, wgt) in weights.iter().enumerate() {
                if x < *wgt {
                    pick = i;
                    break;
                }
                x -= wgt;
            }
            templates[pick].clone()
        })
        .collect()
}

/// Measure the skewed repeated-template stream cold (cache off) and warm
/// (default cache, primed with one pass over the templates), serial path
/// both times so the two records differ only in the cache.
fn measure_zipf(w: &Workload, views: usize, stream: &[SpjgExpr]) -> (Record, Record) {
    let record = |mode: &'static str,
                  workload: &'static str,
                  lat: &mut [Duration],
                  qps: f64,
                  engine: &MatchingEngine,
                  hit_rate: Option<f64>| Record {
        views,
        mode,
        threads: 1,
        queries: stream.len(),
        workload,
        p50_us: percentile_us(lat, 0.50),
        p95_us: percentile_us(lat, 0.95),
        p99_us: percentile_us(lat, 0.99),
        throughput_qps: qps,
        candidate_fraction: engine.stats().candidate_fraction(),
        cache_hit_rate: hit_rate,
        rss_bytes_per_view: None,
        bytes_per_view_arena: Some(engine.arena_bytes() as f64 / views as f64),
    };

    let cold_cfg = MatchConfig {
        parallel_threshold: usize::MAX,
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    };
    let engine = engine_with(w, views, cold_cfg);
    let (mut lat, qps) = run_serial(&engine, stream);
    let cold = record("serial", "zipf-cold", &mut lat, qps, &engine, None);

    let warm_cfg = MatchConfig {
        parallel_threshold: usize::MAX,
        ..MatchConfig::default()
    };
    let engine = engine_with(w, views, warm_cfg);
    for q in &w.queries[..ZIPF_TEMPLATES.min(w.queries.len())] {
        std::hint::black_box(engine.find_substitutes(q));
    }
    engine.reset_stats();
    let (mut lat, qps) = run_serial(&engine, stream);
    let hit_rate = engine.stats().cache_hit_rate();
    let warm = record(
        "serial",
        "zipf-warm",
        &mut lat,
        qps,
        &engine,
        Some(hit_rate),
    );
    (cold, warm)
}

/// Pick a churn table plus zipf templates disjoint from it: the table the
/// workload's queries reference least, and the first [`ZIPF_TEMPLATES`]
/// queries that never touch it. Registering views over that table while
/// those templates sit warm in the cache is exactly the disjoint-write
/// case per-table invalidation must not evict. Returns the templates and
/// the views the registration thread will add; `None` if every query
/// references every table (impossible for any real workload, but the
/// bench degrades gracefully rather than panicking).
fn churn_setup(w: &Workload) -> Option<(Vec<SpjgExpr>, Vec<ViewDef>)> {
    let n_tables = w.catalog.table_count();
    let mut refs = vec![0usize; n_tables];
    for q in &w.queries {
        let mut seen = vec![false; n_tables];
        for t in &q.tables {
            let i = t.0 as usize;
            if !seen[i] {
                seen[i] = true;
                refs[i] += 1;
            }
        }
    }
    let table = TableId(refs.iter().enumerate().min_by_key(|(_, c)| **c)?.0 as u32);
    let templates: Vec<SpjgExpr> = w
        .queries
        .iter()
        .filter(|q| !q.tables.contains(&table))
        .take(ZIPF_TEMPLATES)
        .cloned()
        .collect();
    if templates.is_empty() {
        return None;
    }
    // Column 0 exists in every TPC-H table; vary the range bound so each
    // registration is a distinct view over the churn table.
    let views = (0..CHURN_VIEWS)
        .map(|k| {
            let expr = SpjgExpr::spj(
                vec![table],
                BoolExpr::cmp(S::col(ColRef::new(0, 0)), CmpOp::Ge, S::lit(k as i64)),
                vec![NamedExpr::new(S::col(ColRef::new(0, 0)), "k0")],
            );
            ViewDef::new(format!("churn_{k}"), expr)
        })
        .collect();
    Some((templates, views))
}

/// The online-catalog measurement: [`CHURN_MATCHERS`] threads replay the
/// warm skewed stream against a primed engine while one registration
/// thread concurrently adds the disjoint-table views, paced a couple of
/// milliseconds apart so the publications land mid-stream. Throughput is
/// queries matched per wall-clock second across the whole churn window;
/// the hit rate is what the cache *retained* — with per-table
/// invalidation the disjoint registrations must not evict the warm
/// entries, so anything much below 1.0 is a regression.
fn measure_churn(
    w: &Workload,
    views: usize,
    templates: &[SpjgExpr],
    stream: &[SpjgExpr],
    churn: &[ViewDef],
) -> Record {
    let warm_cfg = MatchConfig {
        parallel_threshold: usize::MAX,
        ..MatchConfig::default()
    };
    let engine = engine_with(w, views, warm_cfg);
    for q in templates {
        std::hint::black_box(engine.find_substitutes(q));
    }
    engine.reset_stats();

    let done = AtomicBool::new(false);
    let matched = AtomicU64::new(0);
    let started = Instant::now();
    let mut lat = std::thread::scope(|scope| {
        scope.spawn(|| {
            for v in churn {
                engine.add_view(v.clone()).expect("churn views are valid");
                std::thread::sleep(Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        });
        let matchers: Vec<_> = (0..CHURN_MATCHERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut lat = Vec::new();
                    // Keep replaying until the writer finishes, then one
                    // final full pass over the settled catalog.
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        for q in stream {
                            let t = Instant::now();
                            std::hint::black_box(engine.find_substitutes(q));
                            lat.push(t.elapsed());
                        }
                        matched.fetch_add(stream.len() as u64, Ordering::Relaxed);
                        if finished {
                            break;
                        }
                    }
                    lat
                })
            })
            .collect();
        let mut all = Vec::new();
        for m in matchers {
            all.extend(m.join().expect("matcher thread panicked"));
        }
        all
    });
    let total = started.elapsed();
    let stats = engine.stats();
    Record {
        views,
        mode: "mixed",
        threads: CHURN_MATCHERS,
        queries: matched.load(Ordering::Relaxed) as usize,
        workload: "zipf-churn",
        p50_us: percentile_us(&mut lat, 0.50),
        p95_us: percentile_us(&mut lat, 0.95),
        p99_us: percentile_us(&mut lat, 0.99),
        throughput_qps: matched.load(Ordering::Relaxed) as f64 / total.as_secs_f64(),
        candidate_fraction: stats.candidate_fraction(),
        cache_hit_rate: Some(stats.cache_hit_rate()),
        rss_bytes_per_view: None,
        bytes_per_view_arena: Some(engine.arena_bytes() as f64 / views as f64),
    }
}

fn round(v: f64, digits: u32) -> f64 {
    let m = 10f64.powi(digits as i32);
    (v * m).round() / m
}

/// The uniform run-row schema every written row conforms to, new and
/// migrated alike. Field order is fixed so the file diffs cleanly.
const RUN_FIELDS: [&str; 19] = [
    "views",
    "mode",
    "workload",
    "threads",
    "queries",
    "p50_match_latency_us",
    "p95_match_latency_us",
    "p99_match_latency_us",
    "throughput_qps",
    "candidate_fraction",
    "cache_hit_rate",
    "rss_bytes_per_view",
    "bytes_per_view_arena",
    "prove_wall_ms",
    "proved",
    "refuted",
    "inconclusive",
    "maintain_us_per_delta",
    "fresh_serving_rate",
];

fn record_json(r: &Record) -> Json {
    Json::Obj(vec![
        ("views".into(), Json::Num(r.views as f64)),
        ("mode".into(), Json::Str(r.mode.into())),
        ("workload".into(), Json::Str(r.workload.into())),
        ("threads".into(), Json::Num(r.threads as f64)),
        ("queries".into(), Json::Num(r.queries as f64)),
        ("p50_match_latency_us".into(), Json::Num(round(r.p50_us, 2))),
        ("p95_match_latency_us".into(), Json::Num(round(r.p95_us, 2))),
        ("p99_match_latency_us".into(), Json::Num(round(r.p99_us, 2))),
        (
            "throughput_qps".into(),
            Json::Num(round(r.throughput_qps, 1)),
        ),
        (
            "candidate_fraction".into(),
            Json::Num(round(r.candidate_fraction, 5)),
        ),
        (
            "cache_hit_rate".into(),
            r.cache_hit_rate
                .map(|h| Json::Num(round(h, 4)))
                .unwrap_or(Json::Null),
        ),
        (
            "rss_bytes_per_view".into(),
            r.rss_bytes_per_view
                .map(|b| Json::Num(round(b, 1)))
                .unwrap_or(Json::Null),
        ),
        (
            "bytes_per_view_arena".into(),
            r.bytes_per_view_arena
                .map(|b| Json::Num(round(b, 1)))
                .unwrap_or(Json::Null),
        ),
        // Prove columns belong to the dedicated `mode: "prove"` row,
        // maintenance columns to the `mode: "maintain"` row.
        ("prove_wall_ms".into(), Json::Null),
        ("proved".into(), Json::Null),
        ("refuted".into(), Json::Null),
        ("inconclusive".into(), Json::Null),
        ("maintain_us_per_delta".into(), Json::Null),
        ("fresh_serving_rate".into(), Json::Null),
    ])
}

/// What one `--prove-smoke N` pass measured (structured, not prose: the
/// trajectory's `mode: "prove"` row and the strict wall-time ratchet
/// both read these fields).
struct ProveSmoke {
    views: usize,
    threads: usize,
    k: usize,
    proved: usize,
    refuted: usize,
    inconclusive: usize,
    wall_ms: u128,
}

/// The dedicated prove run row: matching-latency columns are `null`,
/// the four prove columns carry the measurements. `queries` records the
/// substitutes examined.
fn prove_run_json(s: &ProveSmoke) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::with_capacity(RUN_FIELDS.len());
    for &key in &RUN_FIELDS {
        let v = match key {
            "views" => Json::Num(s.views as f64),
            "mode" => Json::Str("prove".into()),
            "workload" => Json::Str("uniform".into()),
            "threads" => Json::Num(s.threads as f64),
            "queries" => Json::Num((s.proved + s.refuted + s.inconclusive) as f64),
            "prove_wall_ms" => Json::Num(s.wall_ms as f64),
            "proved" => Json::Num(s.proved as f64),
            "refuted" => Json::Num(s.refuted as f64),
            "inconclusive" => Json::Num(s.inconclusive as f64),
            _ => Json::Null,
        };
        fields.push((key.to_string(), v));
    }
    Json::Obj(fields)
}

/// Migrate one legacy run row to the uniform schema: known fields are
/// copied, absent measurements become `null`, absent `workload` becomes
/// `"uniform"` (the only workload older revisions ran).
fn migrate_run(run: &Json) -> Json {
    let fields = RUN_FIELDS
        .iter()
        .map(|&key| {
            let v = match run.get(key) {
                Some(v) => v.clone(),
                None if key == "workload" => Json::Str("uniform".into()),
                None => Json::Null,
            };
            (key.to_string(), v)
        })
        .collect();
    Json::Obj(fields)
}

/// Migrate one legacy trajectory entry: `unix_time` defaults to 0 (the
/// first revision never recorded it), the redundant per-entry
/// `benchmark`/`command` copies are dropped, `note` (engine tuning in
/// effect for the run) defaults to `null`, and every run row is
/// normalized.
fn migrate_entry(entry: &Json) -> Json {
    let num = |key: &str| {
        entry
            .get(key)
            .and_then(Json::as_f64)
            .map(Json::Num)
            .unwrap_or(Json::Num(0.0))
    };
    let runs = entry
        .get("runs")
        .and_then(Json::as_arr)
        .map(|rs| rs.iter().map(migrate_run).collect())
        .unwrap_or_default();
    Json::Obj(vec![
        ("unix_time".into(), num("unix_time")),
        ("queries".into(), num("queries")),
        ("threads".into(), num("threads")),
        (
            "note".into(),
            entry.get("note").cloned().unwrap_or(Json::Null),
        ),
        ("runs".into(), Json::Arr(runs)),
    ])
}

/// Parse and migrate whatever trajectory the existing file holds. A
/// `"trajectory"` document yields its entries; the pre-trajectory format
/// (one top-level object with a `"runs"` array) yields that object as a
/// single entry; anything unparseable yields nothing, with a warning —
/// the bench never loses a run to a corrupt file silently.
fn prior_entries(old: &str) -> Vec<Json> {
    let doc = match Json::parse(old) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("warning: existing trajectory file is not valid JSON ({e}); starting fresh");
            return Vec::new();
        }
    };
    if let Some(entries) = doc.get("trajectory").and_then(Json::as_arr) {
        entries.iter().map(migrate_entry).collect()
    } else if doc.get("runs").is_some() {
        vec![migrate_entry(&doc)]
    } else {
        eprintln!("warning: existing file holds no trajectory; starting fresh");
        Vec::new()
    }
}

/// Best (smallest positive) prior value of `field` across every prior
/// entry's uniform-serial row at this scale point — the baseline the
/// strict memory and latency gates ratchet against. `None` when no
/// prior entry ever recorded the field at this scale (first run at a
/// new scale passes trivially and becomes the baseline). Zero readings
/// are excluded: a 0 B/view RSS delta is allocator reuse, not a real
/// floor any future run could stay under.
fn best_prior(entries: &[Json], views: usize, field: &str) -> Option<f64> {
    best_prior_mode(entries, views, "serial", "uniform", field)
}

/// [`best_prior`] for an explicit run `mode` and `workload` — the prove
/// wall-time ratchet reads the `mode: "prove"` rows, the maintenance
/// ratchet the `mode: "maintain"` / `workload: "churn-writes"` rows.
fn best_prior_mode(
    entries: &[Json],
    views: usize,
    mode: &str,
    workload: &str,
    field: &str,
) -> Option<f64> {
    entries
        .iter()
        .filter_map(|e| e.get("runs").and_then(Json::as_arr))
        .flatten()
        .filter(|r| {
            r.get("views").and_then(Json::as_f64) == Some(views as f64)
                && r.get("mode").and_then(Json::as_str) == Some(mode)
                && r.get("workload").and_then(Json::as_str) == Some(workload)
        })
        .filter_map(|r| r.get(field).and_then(Json::as_f64))
        .filter(|&v| v > 0.0)
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.min(v)))
        })
}

/// The full trajectory document, oldest entry first.
fn trajectory_json(entries: Vec<Json>) -> Json {
    Json::Obj(vec![
        (
            "benchmark".into(),
            Json::Str("view-matching serial vs parallel".into()),
        ),
        (
            "command".into(),
            Json::Str("cargo run -p mv-bench --release --bin bench_matching".into()),
        ),
        ("trajectory".into(), Json::Arr(entries)),
    ])
}

fn entry_json(records: &[Record], args: &Args, workers: usize, extra_runs: Vec<Json>) -> Json {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let note = String::from(
        "parallel tuning: packed candidate scan min_chunk=64, auto mode falls back \
         to serial below 32 candidates/worker; parallel and batched rows drive \
         find_substitutes_many (one snapshot pin, identical queries grouped); prove \
         smoke runs the compiled-program prover (structured prove row)",
    );
    let mut runs: Vec<Json> = records.iter().map(record_json).collect();
    runs.extend(extra_runs);
    Json::Obj(vec![
        ("unix_time".into(), Json::Num(unix_time as f64)),
        ("queries".into(), Json::Num(args.queries as f64)),
        ("threads".into(), Json::Num(workers as f64)),
        ("note".into(), Json::Str(note)),
        ("runs".into(), Json::Arr(runs)),
    ])
}

/// Run the `mv-prove` bounded equivalence checker over the first `n`
/// substitutes the matcher produces at the `views` scale point. The
/// result lands in the trajectory as a dedicated `mode: "prove"` row
/// (the four structured prove columns); earlier revisions wrote a
/// free-text `note` line instead, which migration leaves as prose.
fn prove_smoke(w: &Workload, views: usize, n: usize) -> ProveSmoke {
    let engine = engine_with(
        w,
        views,
        MatchConfig {
            parallel_threshold: usize::MAX,
            substitute_cache_capacity: 0,
            prove_budget: 0,
            ..MatchConfig::default()
        },
    );
    let checks = engine.check_constraints();
    let ctx = mv_prove::ProveCtx::new(&w.catalog, &checks);
    // A smoke, not a gate: a modest per-proof budget keeps the wall time
    // proportionate (mv-lint --prove carries the exhaustive budget).
    let cfg = mv_prove::ProveConfig {
        max_databases: 500_000,
        ..mv_prove::ProveConfig::default()
    };
    let threads = mv_parallel::workers_for(usize::MAX);
    let views_guard = engine.views();
    let mut smoke = ProveSmoke {
        views,
        threads,
        k: cfg.k,
        proved: 0,
        refuted: 0,
        inconclusive: 0,
        wall_ms: 0,
    };
    let started = Instant::now();
    'outer: for query in &w.queries {
        for (id, sub) in engine.find_substitutes(query) {
            if smoke.proved + smoke.refuted + smoke.inconclusive == n {
                break 'outer;
            }
            let outcome = mv_prove::prove(&ctx, query, &views_guard.get(id).expr, &sub, &cfg);
            if outcome.is_proved() {
                smoke.proved += 1;
            } else if outcome.is_refuted() {
                smoke.refuted += 1;
            } else {
                smoke.inconclusive += 1;
            }
        }
    }
    smoke.wall_ms = started.elapsed().as_millis();
    smoke
}

/// Delta rounds the maintenance measurement drives.
const MAINTAIN_ROUNDS: usize = 32;

/// View-count cap for the maintenance row: registration materializes
/// every view over the tiny generated data, so the row measures a fixed
/// modest catalog rather than scaling with `--sizes`.
const MAINTAIN_VIEW_CAP: usize = 1000;

/// What the churn-with-writes maintenance measurement produced.
struct MaintainRun {
    views: usize,
    deltas: usize,
    serving_probes: usize,
    us_per_delta: f64,
    fresh_serving_rate: f64,
    incremental: usize,
    recompute: usize,
}

/// Register the first `views` workload views with the incremental-
/// maintenance driver over tiny generated base data, then stream
/// [`MAINTAIN_ROUNDS`] one-in/one-out delta rounds through the base
/// tables the views read. Per round: `apply_with_engine` is the timed
/// maintenance cost; the skewed query stream then replays against the
/// freshness-stamping engine (incremental views restamped by the round
/// are `Fresh`, recompute-fallback views are still stale) before the
/// dirty views refresh for the next round.
fn measure_maintain(w: &Workload, views: usize, stream: &[SpjgExpr]) -> MaintainRun {
    let engine = engine_with(
        w,
        views,
        MatchConfig {
            parallel_threshold: usize::MAX,
            ..MatchConfig::default()
        },
    );
    let (db, _) = generate_tpch(&TpchScale::tiny(), DATA_SEED);
    let mut maintainer = Maintainer::new(db);
    let guard = engine.views();
    let mut tables: Vec<TableId> = Vec::new();
    let (mut incremental, mut recompute) = (0usize, 0usize);
    for (id, def) in guard.iter() {
        match maintainer.register(id, def) {
            MaintainStrategy::Incremental => incremental += 1,
            MaintainStrategy::Recompute => recompute += 1,
        }
        tables.extend(def.expr.tables.iter().copied());
    }
    tables.sort_unstable();
    tables.dedup();
    let mut maintain_wall = Duration::ZERO;
    let mut deltas = 0usize;
    let (mut fresh, mut served) = (0u64, 0u64);
    let mut serving_probes = 0usize;
    for round in 0..MAINTAIN_ROUNDS {
        let Some(&table) = tables.get(round % tables.len().max(1)) else {
            break;
        };
        let rows = maintainer.db().rows(table);
        if rows.is_empty() {
            continue;
        }
        let delta = TableDelta {
            table,
            inserts: vec![rows[(round + 1) % rows.len()].clone()],
            deletes: vec![rows[round % rows.len()].clone()],
        };
        let t = Instant::now();
        maintainer.apply_with_engine(&delta, &engine);
        maintain_wall += t.elapsed();
        deltas += 1;
        for q in stream {
            serving_probes += 1;
            for (_, sub) in engine.find_substitutes(q) {
                served += 1;
                if sub.freshness.is_fresh() {
                    fresh += 1;
                }
            }
        }
        for (id, _) in guard.iter() {
            if maintainer.is_dirty(id) {
                maintainer.refresh_with_engine(id, &engine);
            }
        }
    }
    MaintainRun {
        views,
        deltas,
        serving_probes,
        us_per_delta: if deltas == 0 {
            0.0
        } else {
            maintain_wall.as_secs_f64() * 1e6 / deltas as f64
        },
        fresh_serving_rate: if served == 0 {
            1.0
        } else {
            fresh as f64 / served as f64
        },
        incremental,
        recompute,
    }
}

/// The dedicated maintenance run row: matching-latency and prove columns
/// are `null`, `queries` records the serving probes driven between
/// rounds, and the two maintenance columns carry the measurements.
fn maintain_run_json(m: &MaintainRun) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::with_capacity(RUN_FIELDS.len());
    for &key in &RUN_FIELDS {
        let v = match key {
            "views" => Json::Num(m.views as f64),
            "mode" => Json::Str("maintain".into()),
            "workload" => Json::Str("churn-writes".into()),
            "threads" => Json::Num(1.0),
            "queries" => Json::Num(m.serving_probes as f64),
            "maintain_us_per_delta" => Json::Num(round(m.us_per_delta, 2)),
            "fresh_serving_rate" => Json::Num(round(m.fresh_serving_rate, 4)),
            _ => Json::Null,
        };
        fields.push((key.to_string(), v));
    }
    Json::Obj(fields)
}

fn main() {
    let args = parse_args();
    let max_views = args.sizes.iter().copied().max().unwrap();
    let workers = if args.threads == 0 {
        mv_parallel::workers_for(usize::MAX)
    } else {
        args.threads
    };
    eprintln!(
        "building workload: {max_views} views, {} queries ...",
        args.queries
    );
    let w = build_workload(max_views, args.queries);

    let stream = zipf_stream(
        &w.queries[..ZIPF_TEMPLATES.min(w.queries.len())],
        args.queries,
    );
    let churn = churn_setup(&w);
    let churn_stream = churn
        .as_ref()
        .map(|(templates, _)| zipf_stream(templates, args.queries));

    // Prior entries serve double duty: the strict gates ratchet against
    // their best recorded values, and the new entry appends after them.
    let prior = std::fs::read_to_string(&args.out)
        .map(|old| prior_entries(&old))
        .unwrap_or_default();

    let mut records = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    println!(
        "| views | workload | mode | threads | p50 (us) | p95 (us) | p99 (us) | \
         throughput (q/s) | cand. frac | hit rate | arena B/view | speedup |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    let print_record = |r: &Record, speedup: Option<f64>| {
        println!(
            "| {} | {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.0} | {:.3}% | {} | {} | {} |",
            r.views,
            r.workload,
            r.mode,
            r.threads,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.throughput_qps,
            r.candidate_fraction * 100.0,
            r.cache_hit_rate
                .map(|h| format!("{:.1}%", h * 100.0))
                .unwrap_or_else(|| "-".to_string()),
            r.bytes_per_view_arena
                .map(|b| format!("{b:.0}"))
                .unwrap_or_else(|| "-".to_string()),
            speedup
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".to_string()),
        );
    };
    for &views in &args.sizes {
        let (serial, parallel) = measure(&w, &args, views, workers);
        let speedup = parallel.throughput_qps / serial.throughput_qps;
        // The regression assertion behind `--strict`: auto mode must fall
        // back to the serial path when fan-out cannot pay for itself, so
        // losing to serial by >10 % at any scale point is a bug, not a
        // tuning matter.
        if parallel.throughput_qps < 0.9 * serial.throughput_qps {
            failures.push(format!(
                "at {views} views the parallel auto mode ({:.0} q/s) regresses the serial \
                 path ({:.0} q/s) by more than 10%",
                parallel.throughput_qps, serial.throughput_qps
            ));
        }
        // Memory-per-view gates: the packed arena share is deterministic
        // (tight 1.25x tolerance); RSS is allocator- and noise-dependent
        // but is what actually bounds catalog scale, so it gets the same
        // tolerance against the *best* prior run.
        if let (Some(base), Some(now)) = (
            best_prior(&prior, views, "bytes_per_view_arena"),
            serial.bytes_per_view_arena,
        ) {
            if now > 1.25 * base {
                failures.push(format!(
                    "at {views} views the packed arena costs {now:.0} B/view, more than \
                     1.25x the best prior run ({base:.0} B/view)"
                ));
            }
        }
        // RSS only gates scale points with enough registrations for the
        // reading to rise above page granularity and allocator reuse: at
        // 100 views the whole delta is a few hundred KB, and the prior
        // trajectory shows it oscillating well past the tolerance on an
        // unchanged build.
        if let (Some(base), Some(now)) = (
            best_prior(&prior, views, "rss_bytes_per_view"),
            serial.rss_bytes_per_view.filter(|_| views >= 1000),
        ) {
            if now > 1.25 * base {
                failures.push(format!(
                    "at {views} views registration grows RSS by {now:.0} B/view, more than \
                     1.25x the best prior run ({base:.0} B/view)"
                ));
            }
        }
        // Latency gate: generous 2x tolerance against the best prior p50
        // — wide enough for scheduler noise, tight enough to catch the
        // kind of structural regression the packed layout exists to
        // prevent.
        if let Some(base) = best_prior(&prior, views, "p50_match_latency_us") {
            if serial.p50_us > 2.0 * base {
                failures.push(format!(
                    "at {views} views the serial p50 is {:.1} us, more than 2x the best \
                     prior run ({base:.1} us)",
                    serial.p50_us
                ));
            }
        }
        print_record(&serial, None);
        print_record(&parallel, Some(speedup));
        records.push(serial);
        records.push(parallel);

        let (cold, warm) = measure_zipf(&w, views, &stream);
        let cold_qps = cold.throughput_qps;
        let warm_speedup = warm.throughput_qps / cold_qps;
        print_record(&cold, None);
        print_record(&warm, Some(warm_speedup));
        records.push(cold);
        records.push(warm);

        let batched = measure_batched(&w, views, &stream, workers);
        print_record(&batched, Some(batched.throughput_qps / cold_qps));
        records.push(batched);

        if let (Some((templates, churn_views)), Some(churn_stream)) = (&churn, &churn_stream) {
            let under_churn = measure_churn(&w, views, templates, churn_stream, churn_views);
            let retained = under_churn.cache_hit_rate.unwrap_or(0.0);
            if retained < 0.9 {
                failures.push(format!(
                    "at {views} views the warm hit rate retained across a disjoint-table \
                     registration is {:.1}% (floor: 90%)",
                    retained * 100.0
                ));
            }
            print_record(&under_churn, None);
            records.push(under_churn);
        }
    }

    let mut extra_runs = Vec::new();
    if args.prove_smoke > 0 {
        let smoke = prove_smoke(&w, max_views, args.prove_smoke);
        eprintln!(
            "prove smoke at {} views: {} proved / {} refuted / {} inconclusive at k={} \
             in {} ms ({} threads)",
            smoke.views,
            smoke.proved,
            smoke.refuted,
            smoke.inconclusive,
            smoke.k,
            smoke.wall_ms,
            smoke.threads
        );
        // Prove wall-time ratchet: 1.5x the best prior prove row. Wall
        // clocks are noisier than the deterministic memory gates, but a
        // >1.5x slide means the prover lost an optimization, not jitter.
        if let Some(base) = best_prior_mode(&prior, max_views, "prove", "uniform", "prove_wall_ms")
        {
            if smoke.wall_ms as f64 > 1.5 * base {
                failures.push(format!(
                    "at {} views the prove smoke took {} ms, more than 1.5x the best \
                     prior run ({base:.0} ms)",
                    smoke.views, smoke.wall_ms
                ));
            }
        }
        extra_runs.push(prove_run_json(&smoke));
    }

    // The churn-with-writes maintenance row: one per run, at a capped
    // scale so registration stays proportionate.
    let m_views = max_views.min(MAINTAIN_VIEW_CAP);
    let maintain = measure_maintain(&w, m_views, &stream);
    eprintln!(
        "maintenance at {} views ({} incremental / {} recompute): {:.1} us/delta over {} \
         deltas, {:.1}% of substitutes served fresh",
        maintain.views,
        maintain.incremental,
        maintain.recompute,
        maintain.us_per_delta,
        maintain.deltas,
        maintain.fresh_serving_rate * 100.0
    );
    // Maintenance-cost ratchet: 2x the best prior maintain row at this
    // scale — per-delta costs are microseconds, so scheduler noise is
    // proportionally large; 2x still catches an algorithmic slide (e.g.
    // falling off the incremental path back to recompute).
    if let Some(base) = best_prior_mode(
        &prior,
        m_views,
        "maintain",
        "churn-writes",
        "maintain_us_per_delta",
    ) {
        if maintain.us_per_delta > 2.0 * base {
            failures.push(format!(
                "at {} views maintenance costs {:.1} us/delta, more than 2x the best \
                 prior run ({base:.1} us/delta)",
                maintain.views, maintain.us_per_delta
            ));
        }
    }
    extra_runs.push(maintain_run_json(&maintain));

    if failures.is_empty() {
        eprintln!("regression check: PASS (parallel auto mode and churn hit-rate retention)");
    } else {
        for f in &failures {
            eprintln!("regression check: FAIL — {f}");
        }
    }

    let mut entries = prior;
    let appended = !entries.is_empty();
    entries.push(entry_json(&records, &args, workers, extra_runs));
    let body = trajectory_json(entries).to_pretty();
    std::fs::write(&args.out, &body).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    eprintln!(
        "{} {}",
        if appended { "appended to" } else { "wrote" },
        args.out
    );
    if args.strict && !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entry 1 of the real legacy file: no `unix_time`, redundant nested
    /// `benchmark`/`command`, rows without `workload`, `p99`, or
    /// `candidate_fraction`.
    const LEGACY: &str = r#"{
      "benchmark": "view-matching serial vs parallel",
      "command": "cargo run -p mv-bench --release --bin bench_matching",
      "trajectory": [
        {
          "benchmark": "view-matching serial vs parallel",
          "command": "cargo run -p mv-bench --release --bin bench_matching",
          "queries": 200,
          "threads": 4,
          "runs": [
            {"views": 100, "mode": "serial", "threads": 1, "queries": 200,
             "p50_match_latency_us": 21.07, "p95_match_latency_us": 43.05,
             "throughput_qps": 40343.2}
          ]
        },
        {
          "unix_time": 1754250000,
          "queries": 200,
          "threads": 4,
          "runs": [
            {"views": 100, "mode": "parallel", "workload": "zipf-warm", "threads": 4,
             "queries": 200, "p50_match_latency_us": 10.0, "p95_match_latency_us": 20.0,
             "p99_match_latency_us": 30.0, "throughput_qps": 90000.0,
             "candidate_fraction": 0.004, "cache_hit_rate": 0.98}
          ]
        }
      ]
    }"#;

    #[test]
    fn migration_produces_uniform_rows() {
        let entries = prior_entries(LEGACY);
        assert_eq!(entries.len(), 2);
        for entry in &entries {
            // Entry schema: exactly these four fields, in order.
            match entry {
                Json::Obj(fields) => {
                    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, ["unix_time", "queries", "threads", "note", "runs"]);
                }
                other => panic!("entry is not an object: {other:?}"),
            }
            for run in entry.get("runs").unwrap().as_arr().unwrap() {
                match run {
                    Json::Obj(fields) => {
                        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                        assert_eq!(keys, RUN_FIELDS, "every row parses uniformly");
                    }
                    other => panic!("run is not an object: {other:?}"),
                }
            }
        }
        // The first entry's gaps got their documented defaults.
        assert_eq!(entries[0].get("unix_time").unwrap().as_u64(), Some(0));
        assert_eq!(entries[0].get("note"), Some(&Json::Null));
        let first_run = &entries[0].get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(first_run.get("rss_bytes_per_view"), Some(&Json::Null));
        assert_eq!(first_run.get("bytes_per_view_arena"), Some(&Json::Null));
        let first_run = &entries[0].get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(first_run.get("workload").unwrap().as_str(), Some("uniform"));
        assert_eq!(first_run.get("p99_match_latency_us"), Some(&Json::Null));
        assert_eq!(first_run.get("candidate_fraction"), Some(&Json::Null));
        assert_eq!(first_run.get("cache_hit_rate"), Some(&Json::Null));
        // Rows from before the structured prove columns null them.
        assert_eq!(first_run.get("prove_wall_ms"), Some(&Json::Null));
        assert_eq!(first_run.get("proved"), Some(&Json::Null));
        assert_eq!(first_run.get("refuted"), Some(&Json::Null));
        assert_eq!(first_run.get("inconclusive"), Some(&Json::Null));
        // Likewise rows from before the maintenance columns.
        assert_eq!(first_run.get("maintain_us_per_delta"), Some(&Json::Null));
        assert_eq!(first_run.get("fresh_serving_rate"), Some(&Json::Null));
        // Present measurements survive untouched.
        let second_run = &entries[1].get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            second_run.get("cache_hit_rate").unwrap().as_f64(),
            Some(0.98)
        );
        assert_eq!(
            entries[1].get("unix_time").unwrap().as_u64(),
            Some(1754250000)
        );
    }

    #[test]
    fn migrated_document_roundtrips() {
        let doc = trajectory_json(prior_entries(LEGACY));
        let reparsed = Json::parse(&doc.to_pretty()).expect("written file parses");
        assert_eq!(reparsed, doc);
        // A second migration pass is the identity: the schema is a fixed point.
        let again = prior_entries(&doc.to_pretty());
        assert_eq!(
            Json::Arr(again),
            reparsed.get("trajectory").unwrap().clone()
        );
    }

    #[test]
    fn gate_baseline_is_best_prior_uniform_serial_row() {
        let entries = prior_entries(
            r#"{"trajectory": [
                {"queries": 10, "threads": 1, "runs": [
                    {"views": 100, "mode": "serial", "workload": "uniform",
                     "p50_match_latency_us": 40.0, "rss_bytes_per_view": 900.0},
                    {"views": 100, "mode": "parallel", "workload": "uniform",
                     "p50_match_latency_us": 10.0}]},
                {"queries": 10, "threads": 1, "runs": [
                    {"views": 100, "mode": "serial", "workload": "uniform",
                     "p50_match_latency_us": 25.0},
                    {"views": 100, "mode": "serial", "workload": "zipf-cold",
                     "p50_match_latency_us": 5.0}]}
            ]}"#,
        );
        // Best across entries, uniform-serial rows only — the parallel
        // 10.0 and the zipf 5.0 must not become the baseline.
        assert_eq!(
            best_prior(&entries, 100, "p50_match_latency_us"),
            Some(25.0)
        );
        assert_eq!(best_prior(&entries, 100, "rss_bytes_per_view"), Some(900.0));
        // Unmeasured field / unseen scale: no baseline, gate passes.
        assert_eq!(best_prior(&entries, 100, "bytes_per_view_arena"), None);
        assert_eq!(best_prior(&entries, 1000, "p50_match_latency_us"), None);
    }

    #[test]
    fn prove_row_is_uniform_and_feeds_the_ratchet() {
        let smoke = ProveSmoke {
            views: 1000,
            threads: 4,
            k: 2,
            proved: 9,
            refuted: 0,
            inconclusive: 1,
            wall_ms: 450,
        };
        let row = prove_run_json(&smoke);
        match &row {
            Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, RUN_FIELDS, "the prove row is schema-uniform");
            }
            other => panic!("prove row is not an object: {other:?}"),
        }
        assert_eq!(row.get("mode").unwrap().as_str(), Some("prove"));
        assert_eq!(row.get("queries").unwrap().as_u64(), Some(10));
        assert_eq!(row.get("prove_wall_ms").unwrap().as_u64(), Some(450));
        assert_eq!(row.get("p50_match_latency_us"), Some(&Json::Null));
        // The ratchet baseline reads prove rows and ignores serial ones
        // (and vice versa: the latency gate must not see the prove row).
        let entry = Json::Obj(vec![("runs".into(), Json::Arr(vec![row]))]);
        let entries = vec![entry];
        assert_eq!(
            best_prior_mode(&entries, 1000, "prove", "uniform", "prove_wall_ms"),
            Some(450.0)
        );
        assert_eq!(best_prior(&entries, 1000, "prove_wall_ms"), None);
        assert_eq!(best_prior(&entries, 1000, "p50_match_latency_us"), None);
    }

    #[test]
    fn maintain_row_is_uniform_and_feeds_the_ratchet() {
        let run = MaintainRun {
            views: 1000,
            deltas: 32,
            serving_probes: 6400,
            us_per_delta: 12.5,
            fresh_serving_rate: 0.97,
            incremental: 700,
            recompute: 300,
        };
        let row = maintain_run_json(&run);
        match &row {
            Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, RUN_FIELDS, "the maintain row is schema-uniform");
            }
            other => panic!("maintain row is not an object: {other:?}"),
        }
        assert_eq!(row.get("mode").unwrap().as_str(), Some("maintain"));
        assert_eq!(row.get("workload").unwrap().as_str(), Some("churn-writes"));
        assert_eq!(
            row.get("maintain_us_per_delta").unwrap().as_f64(),
            Some(12.5)
        );
        assert_eq!(row.get("fresh_serving_rate").unwrap().as_f64(), Some(0.97));
        assert_eq!(row.get("p50_match_latency_us"), Some(&Json::Null));
        // The maintenance ratchet reads exactly these rows; the latency
        // and prove gates must not see them.
        let entry = Json::Obj(vec![("runs".into(), Json::Arr(vec![row]))]);
        let entries = vec![entry];
        assert_eq!(
            best_prior_mode(
                &entries,
                1000,
                "maintain",
                "churn-writes",
                "maintain_us_per_delta"
            ),
            Some(12.5)
        );
        assert_eq!(best_prior(&entries, 1000, "maintain_us_per_delta"), None);
        assert_eq!(best_prior(&entries, 1000, "p50_match_latency_us"), None);
    }

    #[test]
    fn pre_trajectory_file_is_absorbed() {
        let old = r#"{"queries": 100, "threads": 2, "runs": [
            {"views": 10, "mode": "serial", "threads": 1, "queries": 100,
             "p50_match_latency_us": 5.0, "p95_match_latency_us": 9.0,
             "throughput_qps": 1000.0}]}"#;
        let entries = prior_entries(old);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("queries").unwrap().as_u64(), Some(100));
        let run = &entries[0].get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(run.get("workload").unwrap().as_str(), Some("uniform"));
    }
}
