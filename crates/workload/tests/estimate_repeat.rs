//! The cardinality estimator must repeat bit for bit. The §5 generator
//! tunes every range predicate against it, so an estimate that wobbles
//! between calls changes the generated query set between processes, and
//! the optimizer's cost model picks different plans for one query.
use mv_data::{generate_tpch, TpchScale};
use mv_plan::card::estimate_spj_rows;
use mv_plan::display::sql_of;
use mv_plan::SpjgExpr;
use mv_workload::{Generator, WorkloadParams};

const DATA_SEED: u64 = 0x5EED_0003;
const QUERY_SEED: u64 = 0x5EED_0002;

#[test]
fn estimates_and_generated_queries_repeat_exactly() {
    let (db, _) = generate_tpch(&TpchScale::tiny(), DATA_SEED);
    let catalog = &db.catalog;
    let generate = || Generator::new(catalog, WorkloadParams::queries(), QUERY_SEED).queries(2048);
    let queries = generate();
    for (i, q) in queries.iter().enumerate() {
        let first = estimate_spj_rows(q, catalog).to_bits();
        for _ in 0..50 {
            assert_eq!(
                estimate_spj_rows(q, catalog).to_bits(),
                first,
                "estimate of q{i} differs between calls"
            );
        }
    }
    let sql = |qs: &[SpjgExpr]| -> Vec<String> { qs.iter().map(|q| sql_of(q, catalog)).collect() };
    let (a, b) = (sql(&queries), sql(&generate()));
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "two generators with one seed differ at q{i}");
    }
}
