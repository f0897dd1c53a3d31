//! End-to-end benchmark: SQL text to rows over maintained views, with
//! writers keeping the views fresh. See `README.md` for the workloads, the
//! metrics and what each layer metric should move.
//!
//! Usage:
//!
//! ```text
//! mv-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--ops <n>]
//! ```
//!
//! One process runs one workload with one client thread in a closed loop.
//! The last stdout line is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; a human-readable breakdown goes to stderr. The
//! exit code is 0 only when no operation failed.

mod trace;
mod writes;

use mv_catalog::TableId;
use mv_core::{FreshnessPolicy, MatchConfig, MatchStats, MatchingEngine};
use mv_data::{generate_tpch, Row, TpchScale};
use mv_exec::{bag_eq, execute_plan, execute_spjg, ViewStore};
use mv_maintain::{audit_serving, Maintainer};
use mv_optimizer::{Optimized, Optimizer, OptimizerConfig};
use mv_plan::{PhysicalPlan, SpjgExpr, ViewId};
use mv_workload::{Generator, WorkloadParams};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use writes::WriteGen;

const USAGE: &str = "usage: mv-e2ebench --workload <views10k-adhoc|hot-templates|writes-strict> \
                     --seed <n> --seconds <s> --trace <0|1> [--ops <n>]";

/// One read in this many is cross-checked against base-table execution on
/// a read-only workload. With writes every read is checked: a stale view
/// shows only on the reads that scan it after a write, and those are few.
const CHECK_EVERY: usize = 10;

/// splitmix64: a small seeded generator for streams and writes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seeds of the fixed catalog every run uses: the section 5 data, view
/// and query seeds of the repository's other harnesses (`mv-bench`). The
/// run's `--seed` drives the order of reads and the write rounds, so runs
/// with different seeds measure the same catalog under different streams.
const DATA_SEED: u64 = 0x5EED_0003;
const VIEW_SEED: u64 = 0x5EED_0001;
const QUERY_SEED: u64 = 0x5EED_0002;

/// Derive an independent seed for one input stream from the run's `--seed`.
fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// How a workload picks the query of each read.
#[derive(Clone, Copy)]
enum Stream {
    /// Cycle through this many distinct generated queries.
    Distinct(usize),
    /// Cycle through this many generated templates, weighted `1 / rank`.
    Zipf(usize),
}

/// A workload's fixed shape; the seed picks the read order and write rows.
struct Spec {
    name: &'static str,
    views: usize,
    scale: TpchScale,
    stream: Stream,
    /// One write round after every this many reads; `None` is read-only.
    reads_per_write: Option<usize>,
    freshness: FreshnessPolicy,
}

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "views10k-adhoc" => Spec {
            name: "views10k-adhoc",
            views: 10_000,
            scale: TpchScale::tiny(),
            stream: Stream::Distinct(2048),
            reads_per_write: None,
            freshness: FreshnessPolicy::default(),
        },
        "hot-templates" => Spec {
            name: "hot-templates",
            views: 200,
            // About half of `TpchScale::small()` (8k base rows). At
            // `small()` one generated view's FROM-order materialization
            // takes several GB (see README.md), too much for a shared host.
            scale: TpchScale {
                customers: 250,
                suppliers: 25,
                parts: 300,
                orders_per_customer: 6,
                max_lineitems_per_order: 5,
            },
            stream: Stream::Zipf(50),
            reads_per_write: None,
            freshness: FreshnessPolicy::default(),
        },
        "writes-strict" => Spec {
            name: "writes-strict",
            views: 250,
            scale: TpchScale::tiny(),
            stream: Stream::Zipf(50),
            reads_per_write: Some(8),
            freshness: FreshnessPolicy::StrictFresh,
        },
        _ => return None,
    })
}

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run exactly this many operations instead of for `seconds`.
    ops: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut ops) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(spec(&value).ok_or(bad("a workload name"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--ops" => ops = Some(value.parse::<usize>().map_err(|_| bad("an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        ops,
    })
}

/// Everything a run needs, built from the seed.
struct World {
    engine: Arc<MatchingEngine>,
    optimizer: Optimizer<Arc<MatchingEngine>>,
    maintainer: Maintainer,
    store: ViewStore,
    /// The registered views that read each base table.
    by_table: HashMap<TableId, Arc<[ViewId]>>,
    queries: Vec<SpjgExpr>,
    /// `sql_of` renderings of `queries`: the reads' input.
    texts: Vec<String>,
    writes: WriteGen,
    /// Every registered view.
    views: Vec<ViewId>,
    /// data.generate, workload.generate, core.register, maintain.register.
    splits: [f64; 4],
}

fn build_world(spec: &Spec, seed: u64) -> World {
    let t = Instant::now();
    let (db, _) = generate_tpch(&spec.scale, DATA_SEED);
    let data_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let catalog = db.catalog.clone();
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(spec.views);
    let n_queries = match spec.stream {
        Stream::Distinct(n) | Stream::Zipf(n) => n,
    };
    let queries =
        Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(n_queries);
    let texts: Vec<String> = queries
        .iter()
        .map(|q| mv_plan::display::sql_of(q, &catalog))
        .collect();
    let workload_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let engine = Arc::new(MatchingEngine::new(
        catalog,
        MatchConfig {
            freshness: spec.freshness,
            ..MatchConfig::default()
        },
    ));
    let ids = engine
        .add_views(views.clone())
        .expect("generated views register");
    let register_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut maintainer = Maintainer::new(db);
    let mut store = ViewStore::new();
    let mut by_table: HashMap<TableId, Vec<ViewId>> = HashMap::new();
    for (&id, def) in ids.iter().zip(&views) {
        maintainer.register(id, def);
        let rows = maintainer.contents(id).expect("registered view");
        store.put(id, rows.to_vec());
        let mut tables = def.expr.tables.clone();
        tables.sort_unstable();
        tables.dedup();
        for t in tables {
            by_table.entry(t).or_default().push(id);
        }
    }
    let materialize_s = t.elapsed().as_secs_f64();

    let writes = WriteGen::new(maintainer.db(), derive(seed, 1));
    World {
        optimizer: Optimizer::new(Arc::clone(&engine), OptimizerConfig::default()),
        engine,
        maintainer,
        store,
        by_table: by_table.into_iter().map(|(t, v)| (t, v.into())).collect(),
        queries,
        texts,
        writes,
        views: ids,
        splits: [data_s, workload_s, register_s, materialize_s],
    }
}

/// Picks the query of each read by cycling one seeded shuffle of a fixed
/// multiset of query indices: every query of a distinct pool once, or the
/// template of rank `r` (from 1) `round(n / r)` times out of `n`. The
/// mix is the same in every run and only the order follows the seed, so
/// the runs of one workload differ by their order and the machine, not by
/// how often each query was drawn.
struct QueryStream {
    order: Vec<usize>,
    next: usize,
}

impl QueryStream {
    fn new(stream: Stream, seed: u64) -> Self {
        let mut order: Vec<usize> = match stream {
            Stream::Distinct(n) => (0..n).collect(),
            Stream::Zipf(n) => (0..n)
                .flat_map(|i| std::iter::repeat_n(i, (n as f64 / (i + 1) as f64).round() as usize))
                .collect(),
        };
        let mut rng = Rng::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        QueryStream { order, next: 0 }
    }

    fn next(&mut self) -> usize {
        let i = self.order[self.next % self.order.len()];
        self.next += 1;
        i
    }

    /// Has every read so far belonged to a complete cycle?
    fn at_cycle_end(&self) -> bool {
        self.next.is_multiple_of(self.order.len())
    }
}

fn plan_uses_view(plan: &PhysicalPlan) -> bool {
    match plan {
        PhysicalPlan::ViewScan { .. } => true,
        PhysicalPlan::TableScan { .. } => false,
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::HashAggregate { input, .. } => plan_uses_view(input),
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::NestedLoopJoin { left, right, .. } => {
            plan_uses_view(left) || plan_uses_view(right)
        }
    }
}

/// Sums of `MatchStats` counters over a set of reads.
#[derive(Default)]
struct MatchTotals {
    invocations: u64,
    candidates: u64,
    views_available: u64,
    substitutes: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
    match_ns: u64,
    filter_ns: u64,
}

impl MatchTotals {
    fn add_delta(&mut self, before: &MatchStats, after: &MatchStats) {
        self.invocations += after.invocations - before.invocations;
        self.candidates += after.candidates - before.candidates;
        self.views_available += after.views_available - before.views_available;
        self.substitutes += after.substitutes - before.substitutes;
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.cache_misses += after.cache_misses - before.cache_misses;
        self.cache_invalidations += after.cache_invalidations - before.cache_invalidations;
        self.match_ns += (after.match_time - before.match_time).as_nanos() as u64;
        self.filter_ns += (after.filter_time - before.filter_time).as_nanos() as u64;
    }
}

/// What the measured phase recorded.
#[derive(Default)]
struct Measured {
    attempted: u64,
    failed: u64,
    /// Latency of every read, and separately of traced and untraced reads
    /// in the traced run.
    read_ns: Vec<u64>,
    traced_read_ns: Vec<u64>,
    untraced_read_ns: Vec<u64>,
    reads_using_views: u64,
    groups: u64,
    alternatives: u64,
    rows_out: u64,
    /// Phase times of every read, measured with or without spans.
    parse_ns: u64,
    optimize_ns: u64,
    execute_ns: u64,
    matching: MatchTotals,
    /// Sampled reads: plan execution time vs base-table execution time.
    sampled_plan_ns: u64,
    sampled_base_ns: u64,
    checked: u64,
    write_ns: Vec<u64>,
    deltas: u64,
    maintained: u64,
    dirtied: u64,
    refreshes: u64,
    rows_copied: u64,
    apply_ns: u64,
    refresh_ns: u64,
    copy_ns: u64,
}

/// One client thread's closed loop over a world.
struct Client<'w> {
    world: &'w mut World,
    tracer: Option<Tracer>,
    m: Measured,
    request: u64,
}

impl Client<'_> {
    fn begin(&mut self, name: &'static str) -> Option<trace::SpanId> {
        let request = self.request;
        self.tracer.as_mut().map(|t| t.begin(name, request))
    }

    fn end(&mut self, id: Option<trace::SpanId>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.end(id);
        }
    }

    fn fail(&mut self, what: std::fmt::Arguments) {
        self.m.failed += 1;
        eprintln!("FAILED: {what}");
    }

    /// One read: SQL text to rows. In the traced run, `traced` reads
    /// record spans and the others do not.
    fn read(&mut self, qi: usize, traced: bool, check: bool) {
        self.m.attempted += 1;
        let parked = if traced { None } else { self.tracer.take() };
        let before = self.world.engine.stats();
        let t0 = Instant::now();
        let root = self.begin("read");
        let served = self.serve(qi);
        self.end(root);
        let t3 = Instant::now();
        let after = self.world.engine.stats();
        if parked.is_some() {
            self.tracer = parked;
        }
        let (optimized, rows, t1, t2) = match served {
            Ok(s) => s,
            Err(e) => return self.fail(format_args!("q{qi}: {e}")),
        };
        black_box(&rows);
        let m = &mut self.m;
        let total = (t3 - t0).as_nanos() as u64;
        m.read_ns.push(total);
        if self.tracer.is_some() {
            if traced {
                m.traced_read_ns.push(total);
            } else {
                m.untraced_read_ns.push(total);
            }
        }
        m.parse_ns += (t1 - t0).as_nanos() as u64;
        m.optimize_ns += (t2 - t1).as_nanos() as u64;
        m.execute_ns += (t3 - t2).as_nanos() as u64;
        m.matching.add_delta(&before, &after);
        m.groups += optimized.stats.groups as u64;
        m.alternatives += optimized.stats.alternatives as u64;
        m.rows_out += rows.len() as u64;
        m.reads_using_views += plan_uses_view(&optimized.plan) as u64;
        if check {
            let t = Instant::now();
            let want = execute_spjg(self.world.maintainer.db(), &self.world.queries[qi]);
            m.sampled_base_ns += t.elapsed().as_nanos() as u64;
            m.sampled_plan_ns += (t3 - t2).as_nanos() as u64;
            m.checked += 1;
            if !bag_eq(&rows, &want) {
                let (got, want) = (rows.len(), want.len());
                self.fail(format_args!(
                    "q{qi}: served {got} rows, base execution gives {want} (not bag-equal)"
                ));
            }
        }
    }

    /// Parse, optimize and execute one query text, returning the plan, its
    /// rows and the instants that end parsing and optimizing.
    fn serve(&mut self, qi: usize) -> Result<(Optimized, Vec<Row>, Instant, Instant), String> {
        let s = self.begin("sql.parse");
        let parsed = mv_sql::parse_query(&self.world.texts[qi], self.world.engine.catalog());
        self.end(s);
        let t1 = Instant::now();
        let expr = parsed.map_err(|e| format!("parse error: {e}"))?;
        let s = self.begin("optimizer.optimize");
        let optimized = self.world.optimizer.try_optimize(&expr);
        self.end(s);
        let t2 = Instant::now();
        let optimized = optimized.map_err(|e| format!("optimize error: {e}"))?;
        let s = self.begin("exec.execute");
        let rows = execute_plan(
            self.world.maintainer.db(),
            &self.world.store,
            &optimized.plan,
        );
        self.end(s);
        Ok((optimized, rows, t1, t2))
    }

    /// One write round: every delta is applied, every affected view that
    /// is now dirty is refreshed, and the touched views' contents are
    /// copied into the executor's store. Timed from the first call until
    /// the last copy, when every affected view is fresh and servable.
    fn write(&mut self) {
        self.m.attempted += 1;
        let (kind, deltas) = self.world.writes.next_round(self.world.maintainer.db());
        let t0 = Instant::now();
        let root = self.begin("write");
        let mut short_deletes = 0;
        for delta in &deltas {
            let t = Instant::now();
            let s = self.begin("maintain.apply");
            let report = self
                .world
                .maintainer
                .apply_with_engine(delta, &self.world.engine);
            self.end(s);
            let t_apply = Instant::now();
            let affected = self
                .world
                .by_table
                .get(&delta.table)
                .cloned()
                .unwrap_or_else(|| Arc::from([]));
            let s = self.begin("maintain.refresh");
            let mut refreshes = 0;
            for &id in affected.iter() {
                if self.world.maintainer.is_dirty(id) {
                    self.world
                        .maintainer
                        .refresh_with_engine(id, &self.world.engine);
                    refreshes += 1;
                }
            }
            self.end(s);
            let t_refresh = Instant::now();
            let s = self.begin("publish.copy");
            let mut copied = 0;
            for &id in affected.iter() {
                let rows: &[Row] = self.world.maintainer.contents(id).expect("registered view");
                copied += rows.len() as u64;
                self.world.store.put(id, rows.to_vec());
            }
            self.end(s);
            let t_copy = Instant::now();
            let m = &mut self.m;
            m.deltas += 1;
            m.maintained += report.maintained as u64;
            m.dirtied += report.marked_dirty as u64;
            m.refreshes += refreshes;
            m.rows_copied += copied;
            m.apply_ns += (t_apply - t).as_nanos() as u64;
            m.refresh_ns += (t_refresh - t_apply).as_nanos() as u64;
            m.copy_ns += (t_copy - t_refresh).as_nanos() as u64;
            short_deletes += delta.deletes.len() - report.rows_deleted;
        }
        self.end(root);
        self.m.write_ns.push(t0.elapsed().as_nanos() as u64);
        if short_deletes > 0 {
            self.fail(format_args!(
                "{kind:?} write named {short_deletes} rows the base tables did not hold"
            ));
        }
    }
}

/// Value at quantile `q` (nearest rank) of an ascending slice.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mv-e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = &args.spec;

    // Set-up runs several times; the run keeps the last world and reports
    // the median of each split, so one slow set-up does not move setup_s.
    let mut setup_s = Vec::new();
    let mut splits: [Vec<f64>; 4] = Default::default();
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let t = Instant::now();
        let w = build_world(spec, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        for (acc, v) in splits.iter_mut().zip(w.splits) {
            acc.push(v);
        }
        world = Some(w);
    }
    let mut world = world.expect("at least one set-up");
    eprintln!(
        "{}: seed {}, {} views, {} queries; set-ups {:.2?} s",
        spec.name,
        args.seed,
        spec.views,
        world.queries.len(),
        setup_s
    );

    let mut stream = QueryStream::new(spec.stream, derive(args.seed, 2));
    let mut client = Client {
        world: &mut world,
        tracer: args.trace.then(Tracer::new),
        m: Measured::default(),
        request: 0,
    };
    // The traced run traces a seeded half of the reads; the rest give the
    // untraced latency the tracing overhead is measured against.
    let mut coin = Rng::new(derive(args.seed, 3));
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut reads = 0usize;
    let check_every = if spec.reads_per_write.is_some() {
        1
    } else {
        CHECK_EVERY
    };
    loop {
        let op = client.request as usize;
        let write_turn = spec.reads_per_write.is_some_and(|k| op % (k + 1) == k);
        // A timed run ends on a whole cycle of the query stream, so every
        // run measures the same mix of queries.
        match args.ops {
            Some(n) if op >= n => break,
            None if !write_turn && stream.at_cycle_end() && start.elapsed() >= budget => break,
            _ => {}
        }
        if write_turn {
            client.write();
        } else {
            let qi = stream.next();
            client.read(qi, coin.below(2) == 0, reads.is_multiple_of(check_every));
            reads += 1;
        }
        client.request += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();

    // Maintenance audits, outside the measured phase: every non-dirty
    // view equals recompute (MV401/MV403), every Fresh substitute is
    // really fresh and serves base-equal rows (MV402/MV404), and the
    // executor's store holds what the maintainer holds.
    if spec.reads_per_write.is_some() {
        let world = &client.world;
        let mut diags: Vec<String> = world
            .maintainer
            .audit()
            .into_iter()
            .chain(audit_serving(
                &world.engine,
                &world.maintainer,
                &world.queries,
            ))
            .map(|d| format!("audit {} {}", d.rule.code(), d.message))
            .collect();
        for &id in &world.views {
            let maintained = world.maintainer.contents(id).expect("registered view");
            if !bag_eq(world.store.rows(id), maintained) {
                diags.push(format!("view {} is served from stale contents", id.0));
            }
        }
        client.m.attempted += 1;
        for d in diags {
            client.fail(format_args!("{d}"));
        }
    }

    let Client { tracer, mut m, .. } = client;
    let n_reads = m.read_ns.len() as f64;
    let n_writes = m.write_ns.len() as f64;
    m.read_ns.sort_unstable();
    m.write_ns.sort_unstable();
    let read_total_s = m.read_ns.iter().sum::<u64>() as f64 / 1e9;
    let write_total_s = m.write_ns.iter().sum::<u64>() as f64 / 1e9;

    let mut out = Metrics(Vec::new());
    if !args.trace {
        out.put("setup_s", median(&mut setup_s), "s");
        out.put("read_p50_us", quantile(&m.read_ns, 0.50) / 1e3, "us");
        out.put("read_p99_us", quantile(&m.read_ns, 0.99) / 1e3, "us");
        out.put("read_qps", ratio(n_reads, read_total_s), "1/s");
        out.put(
            "ops_per_s",
            ratio(n_reads + n_writes, read_total_s + write_total_s),
            "1/s",
        );
        out.put(
            "view_use_rate",
            ratio(m.reads_using_views as f64, n_reads),
            "ratio",
        );
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        let mt = &m.matching;
        let per_read = |ns: u64| ratio(ns as f64 / 1e3, n_reads);
        out.put("sql.parse_us", per_read(m.parse_ns), "us");
        out.put("optimizer.optimize_us", per_read(m.optimize_ns), "us");
        out.put(
            "optimizer.self_us",
            per_read(m.optimize_ns.saturating_sub(mt.match_ns)),
            "us",
        );
        out.put(
            "optimizer.groups_per_read",
            ratio(m.groups as f64, n_reads),
            "count",
        );
        out.put(
            "optimizer.alternatives_per_read",
            ratio(m.alternatives as f64, n_reads),
            "count",
        );
        out.put("core.match_us", per_read(mt.match_ns), "us");
        out.put("core.filter_us", per_read(mt.filter_ns), "us");
        out.put(
            "core.invocations_per_read",
            ratio(mt.invocations as f64, n_reads),
            "count",
        );
        out.put(
            "core.candidate_fraction",
            ratio(mt.candidates as f64, mt.views_available as f64),
            "ratio",
        );
        out.put(
            "core.pass_fraction",
            ratio(mt.substitutes as f64, mt.candidates as f64),
            "ratio",
        );
        out.put(
            "core.cache_hit_rate",
            ratio(
                mt.cache_hits as f64,
                (mt.cache_hits + mt.cache_misses) as f64,
            ),
            "ratio",
        );
        out.put(
            "core.cache_invalidations",
            mt.cache_invalidations as f64,
            "count",
        );
        out.put("exec.execute_us", per_read(m.execute_ns), "us");
        out.put(
            "exec.rows_out_per_read",
            ratio(m.rows_out as f64, n_reads),
            "count",
        );
        out.put(
            "exec.base_over_plan",
            ratio(m.sampled_base_ns as f64, m.sampled_plan_ns as f64),
            "ratio",
        );
        let per_delta = |x: u64| ratio(x as f64, m.deltas as f64);
        let per_round = |x: u64| ratio(x as f64, n_writes);
        out.put("write_p50_ms", quantile(&m.write_ns, 0.50) / 1e6, "ms");
        out.put("write_p90_ms", quantile(&m.write_ns, 0.90) / 1e6, "ms");
        out.put("maintain.apply_us", per_delta(m.apply_ns) / 1e3, "us");
        out.put(
            "maintain.maintained_per_delta",
            per_delta(m.maintained),
            "count",
        );
        out.put("maintain.dirtied_per_delta", per_delta(m.dirtied), "count");
        out.put("maintain.refresh_us", per_round(m.refresh_ns) / 1e3, "us");
        out.put(
            "maintain.refreshes_per_round",
            per_round(m.refreshes),
            "count",
        );
        out.put("publish.copy_us", per_round(m.copy_ns) / 1e3, "us");
        out.put(
            "publish.rows_copied_per_round",
            per_round(m.rows_copied),
            "count",
        );
        let names = [
            "data.generate_s",
            "workload.generate_s",
            "core.register_s",
            "maintain.register_s",
        ];
        for (name, vals) in names.iter().zip(splits.iter_mut()) {
            out.put(name, median(vals), "s");
        }

        let tracer = tracer.expect("traced run");
        let totals = tracer.totals();
        let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns);
        let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
        // Self-time shares of the traced reads and write rounds. The
        // optimizer span contains the matching rule; its share is split
        // by the matcher's own clock, scaled to the traced reads.
        let read_ns = total_ns("read") as f64;
        let traced_reads = totals.get("read").map_or(0, |t| t.count) as f64;
        let match_traced = mt.match_ns as f64 * ratio(traced_reads, n_reads);
        out.put(
            "read.share.sql",
            ratio(self_ns("sql.parse") as f64, read_ns),
            "ratio",
        );
        out.put(
            "read.share.optimizer",
            ratio(self_ns("optimizer.optimize") as f64 - match_traced, read_ns),
            "ratio",
        );
        out.put("read.share.core", ratio(match_traced, read_ns), "ratio");
        out.put(
            "read.share.exec",
            ratio(self_ns("exec.execute") as f64, read_ns),
            "ratio",
        );
        out.put(
            "read.share.harness",
            ratio(self_ns("read") as f64, read_ns),
            "ratio",
        );
        let write_ns = total_ns("write") as f64;
        for (metric, span) in [
            ("write.share.maintain_apply", "maintain.apply"),
            ("write.share.maintain_refresh", "maintain.refresh"),
            ("write.share.publish", "publish.copy"),
            ("write.share.harness", "write"),
        ] {
            out.put(metric, ratio(self_ns(span) as f64, write_ns), "ratio");
        }
        m.traced_read_ns.sort_unstable();
        m.untraced_read_ns.sort_unstable();
        let traced_p50 = quantile(&m.traced_read_ns, 0.5) / 1e3;
        out.put("trace.read_p50_us", traced_p50, "us");
        out.put(
            "trace.overhead_us",
            traced_p50 - quantile(&m.untraced_read_ns, 0.5) / 1e3,
            "us",
        );
        out.put("trace.spans", tracer.len() as f64, "count");
        out.put("trace.span_ns", trace::span_cost_ns(), "ns");

        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/trace");
        let path = format!("{dir}/{}-seed{}.tsv", spec.name, args.seed);
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.to_tsv())) {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("could not write spans to {path}: {e}"),
        }
        eprintln!("span totals (count, total ms, self ms):");
        for (name, t) in &totals {
            eprintln!(
                "  {name:<20} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }

    eprintln!(
        "measured {measured_s:.2} s: {} reads ({} cross-checked), {} write rounds, \
         {} deltas; failed {} of {} attempted (failed_op_rate {})",
        m.read_ns.len(),
        m.checked,
        m.write_ns.len(),
        m.deltas,
        m.failed,
        m.attempted,
        ratio(m.failed as f64, m.attempted as f64)
    );
    for (name, value, unit) in &out.0 {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        out.to_json()
    );
    if m.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
