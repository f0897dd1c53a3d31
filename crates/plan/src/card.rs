//! Cardinality estimation over SPJG blocks.
//!
//! A deliberately simple System-R style estimator: uniformity within
//! columns, independence between predicates, and the containment assumption
//! for equijoins. It exists for two consumers:
//!
//! * the workload generator of section 5, which tunes range predicates
//!   "until the estimated cardinality of the SPJ part of the result was
//!   within 25-75% of the largest table included", and
//! * the optimizer's cost model, which ranks substitutes and join orders.
//!
//! View matching itself never consults cardinalities.

use crate::spjg::{OutputList, SpjgExpr};
use mv_catalog::{Catalog, ColumnStats};
use mv_expr::{BoolExpr, Bound, CmpOp, ColRef, Conjunct, Interval};
use std::collections::BTreeMap;

/// Default selectivity for predicates we cannot interpret (LIKE, complex
/// residuals). The classic System-R guess.
pub const DEFAULT_RESIDUAL_SELECTIVITY: f64 = 0.25;

/// Default row count assumed for tables without statistics.
pub const DEFAULT_TABLE_ROWS: f64 = 1000.0;

/// Column statistics for a reference inside an expression.
fn col_stats<'a>(expr: &SpjgExpr, catalog: &'a Catalog, c: ColRef) -> Option<&'a ColumnStats> {
    let table = expr.table_of(c.occ);
    catalog
        .stats(table)
        .and_then(|s| s.columns.get(c.col.0 as usize))
}

/// Row count of a table occurrence.
fn table_rows(expr: &SpjgExpr, catalog: &Catalog, occ: usize) -> f64 {
    catalog
        .stats(expr.tables[occ])
        .map(|s| s.rows as f64)
        .unwrap_or(DEFAULT_TABLE_ROWS)
}

/// Number of distinct values of a column (≥ 1).
fn col_ndv(expr: &SpjgExpr, catalog: &Catalog, c: ColRef) -> f64 {
    col_stats(expr, catalog, c)
        .map(|s| (s.ndv as f64).max(1.0))
        .unwrap_or(100.0)
}

/// Selectivity of the accumulated interval on one column.
fn interval_selectivity(stats: Option<&ColumnStats>, iv: &Interval) -> f64 {
    if iv.is_empty() {
        return 0.0;
    }
    let Some(stats) = stats else {
        return DEFAULT_RESIDUAL_SELECTIVITY;
    };
    // Point interval: equality selectivity.
    if iv.lo == iv.hi && matches!(iv.lo, Bound::Incl(_)) {
        return stats.eq_selectivity();
    }
    let lo = iv.lo.value().cloned().unwrap_or_else(|| stats.min.clone());
    let hi = iv.hi.value().cloned().unwrap_or_else(|| stats.max.clone());
    stats
        .range_selectivity(&lo, &hi)
        .unwrap_or(DEFAULT_RESIDUAL_SELECTIVITY)
        .max(1e-9)
}

/// Estimate the number of rows produced by the select-project-join part of
/// `expr` (ignoring any final group-by).
pub fn estimate_spj_rows(expr: &SpjgExpr, catalog: &Catalog) -> f64 {
    let mut rows: f64 = (0..expr.tables.len())
        .map(|i| table_rows(expr, catalog, i))
        .product();
    if expr.tables.is_empty() {
        return 1.0;
    }

    // Accumulate range predicates into per-column intervals so that a
    // BETWEEN pair is costed once, then apply equijoin and residual
    // selectivities independently. Ordered by column, so the float
    // product below — and every estimate — repeats bit for bit.
    let mut intervals: BTreeMap<ColRef, Interval> = BTreeMap::new();
    for conj in &expr.conjuncts {
        match conj {
            Conjunct::ColumnEq(a, b) => {
                let ndv = col_ndv(expr, catalog, *a).max(col_ndv(expr, catalog, *b));
                rows /= ndv;
            }
            Conjunct::Range { col, op, value } => {
                let iv = intervals.entry(*col).or_default();
                if !iv.apply(*op, value) {
                    rows *= DEFAULT_RESIDUAL_SELECTIVITY;
                }
            }
            Conjunct::Residual(p) => {
                rows *= residual_selectivity(p);
            }
        }
    }
    for (col, iv) in &intervals {
        rows *= interval_selectivity(col_stats(expr, catalog, *col), iv);
    }
    rows.max(if intervals.values().any(|iv| iv.is_empty()) {
        0.0
    } else {
        1.0
    })
}

/// Heuristic selectivity of a residual predicate.
fn residual_selectivity(p: &BoolExpr) -> f64 {
    match p {
        BoolExpr::IsNull { negated: true, .. } => 0.9,
        BoolExpr::IsNull { negated: false, .. } => 0.1,
        BoolExpr::Compare { op: CmpOp::Ne, .. } => 0.9,
        BoolExpr::Literal(true) => 1.0,
        BoolExpr::Literal(false) => 0.0,
        _ => DEFAULT_RESIDUAL_SELECTIVITY,
    }
}

/// Estimate the output row count of the whole block, including the final
/// group-by if present: `min(spj_rows, Π ndv(group column))`.
pub fn estimate_rows(expr: &SpjgExpr, catalog: &Catalog) -> f64 {
    let spj = estimate_spj_rows(expr, catalog);
    match &expr.output {
        OutputList::Spj(_) => spj,
        OutputList::Aggregate { group_by, .. } => {
            if group_by.is_empty() {
                return 1.0;
            }
            let mut groups = 1.0f64;
            for g in group_by {
                let ndv = match g.expr.as_column() {
                    Some(c) => col_ndv(expr, catalog, c),
                    None => {
                        // Expression grouping: bounded by the product of the
                        // source columns' NDVs, capped to keep it sane.
                        g.expr
                            .columns()
                            .iter()
                            .map(|c| col_ndv(expr, catalog, *c))
                            .product::<f64>()
                            .min(1e6)
                    }
                };
                groups *= ndv;
            }
            groups.min(spj).max(if spj == 0.0 { 0.0 } else { 1.0 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spjg::{AggFunc, NamedAgg, NamedExpr};
    use mv_catalog::tpch::tpch_catalog;
    use mv_catalog::{TableStats, Value as V};
    use mv_expr::{BoolExpr, ScalarExpr as S};

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    /// Catalog with made-up stats: orders 10k rows, o_orderkey ndv 10k in
    /// [0, 10000); lineitem 40k rows, l_orderkey ndv 10k.
    fn stat_catalog() -> (Catalog, mv_catalog::tpch::TpchTables) {
        let (mut cat, t) = tpch_catalog();
        let mut orders = TableStats::with_unknown_columns(10_000, 9);
        orders.columns[0] = ColumnStats {
            min: V::Int(0),
            max: V::Int(10_000),
            ndv: 10_000,
            null_fraction: 0.0,
        };
        orders.columns[1] = ColumnStats {
            min: V::Int(0),
            max: V::Int(1_000),
            ndv: 1_000,
            null_fraction: 0.0,
        };
        cat.set_stats(t.orders, orders);
        let mut li = TableStats::with_unknown_columns(40_000, 16);
        li.columns[0] = ColumnStats {
            min: V::Int(0),
            max: V::Int(10_000),
            ndv: 10_000,
            null_fraction: 0.0,
        };
        cat.set_stats(t.lineitem, li);
        (cat, t)
    }

    #[test]
    fn single_table_scan() {
        let (cat, t) = stat_catalog();
        let e = SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        assert!((estimate_rows(&e, &cat) - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn range_predicate_interpolates() {
        let (cat, t) = stat_catalog();
        // o_orderkey between 0 and 1000 → ~10%.
        let pred = BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Le, S::lit(1000i64)),
        ]);
        let e = SpjgExpr::spj(
            vec![t.orders],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let est = estimate_rows(&e, &cat);
        assert!((900.0..=1100.0).contains(&est), "est={est}");
    }

    #[test]
    fn equality_uses_ndv() {
        let (cat, t) = stat_catalog();
        let pred = BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Eq, S::lit(42i64));
        let e = SpjgExpr::spj(
            vec![t.orders],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let est = estimate_rows(&e, &cat);
        assert!((9.0..=11.0).contains(&est), "est={est}"); // 10k / 1k ndv
    }

    #[test]
    fn fk_join_preserves_child_cardinality() {
        let (cat, t) = stat_catalog();
        // lineitem join orders on orderkey: 40k * 10k / max(ndv)=10k = 40k.
        let pred = BoolExpr::col_eq(cr(0, 0), cr(1, 0));
        let e = SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let est = estimate_rows(&e, &cat);
        assert!((39_000.0..=41_000.0).contains(&est), "est={est}");
    }

    #[test]
    fn group_by_caps_at_ndv() {
        let (cat, t) = stat_catalog();
        let e = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
        );
        let est = estimate_rows(&e, &cat);
        assert!((990.0..=1010.0).contains(&est), "est={est}");
        // Scalar aggregate → one row.
        let e = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![],
            vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
        );
        assert_eq!(estimate_rows(&e, &cat), 1.0);
    }

    #[test]
    fn contradictory_range_estimates_zero() {
        let (cat, t) = stat_catalog();
        let pred = BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Gt, S::lit(5000i64)),
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(1000i64)),
        ]);
        let e = SpjgExpr::spj(
            vec![t.orders],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        assert_eq!(estimate_rows(&e, &cat), 0.0);
    }

    #[test]
    fn missing_stats_fall_back() {
        let (cat, t) = tpch_catalog(); // no stats at all
        let e = SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        assert_eq!(estimate_rows(&e, &cat), DEFAULT_TABLE_ROWS);
    }
}
