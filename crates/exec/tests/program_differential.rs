//! Differential property test: the compiled [`PlanProgram`] /
//! [`SubstituteProgram`] path must produce byte-identical row bags to the
//! tree-walking interpreter over random SPJG plans × enumerated databases.
//! The enumerated databases hold at most two rows per table, below the
//! hash-join cutoff, so two more tests run at real scale: the whole §5
//! view workload over TPC-H data, and a directed hash-path case.
//!
//! The generator is a hand-rolled splitmix64 stream (no external crates):
//! deterministic, so every failure names the plan seed that reproduces it.

use mv_catalog::schema::{ForeignKey, TableBuilder};
use mv_catalog::{Catalog, ColumnId, ColumnType, TableId, Value};
use mv_data::{ColumnDomain, Database, EnumSpec, Enumerator, TableSpec};
use mv_exec::{
    bag_diff, bag_eq, execute_spjg, execute_substitute_with, ExecScratch, PlanProgram, RowBag,
    SubstituteProgram,
};
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, Conjunct, ScalarExpr};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, OutputList, SpjgExpr, Substitute, ViewId};
use std::collections::HashMap;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

struct Fixture {
    catalog: Catalog,
    r: TableId,
    t: TableId,
}

/// Two tables with a key, a nullable FK, strings, floats and NULLs — every
/// value shape the executor distinguishes.
fn fixture() -> Fixture {
    let mut catalog = Catalog::new();
    let r = catalog.add_table(
        TableBuilder::new("r")
            .col("pk", ColumnType::Int)
            .nullable_col("a", ColumnType::Int)
            .nullable_col("s", ColumnType::Str)
            .primary_key(&["pk"])
            .build(),
    );
    let t = catalog.add_table(
        TableBuilder::new("t")
            .nullable_col("fk", ColumnType::Int)
            .nullable_col("b", ColumnType::Int)
            .col("c", ColumnType::Float)
            .build(),
    );
    catalog.add_foreign_key(ForeignKey {
        name: "t_fk".into(),
        from_table: t,
        from_columns: vec![ColumnId(0)],
        to_table: r,
        to_columns: vec![ColumnId(0)],
    });
    Fixture { catalog, r, t }
}

fn enum_spec(f: &Fixture) -> EnumSpec {
    let ints = |vals: &[i64], with_null: bool| ColumnDomain {
        values: vals.iter().map(|&v| Value::Int(v)).collect(),
        with_null,
    };
    EnumSpec {
        tables: vec![
            TableSpec {
                table: f.r,
                columns: vec![
                    ints(&[1, 2], false),
                    ints(&[0, 7], true),
                    ColumnDomain {
                        values: vec![Value::Str("steel wire".into())],
                        with_null: true,
                    },
                ],
            },
            TableSpec {
                table: f.t,
                columns: vec![
                    ints(&[1, 2], true),
                    ints(&[0], true),
                    ColumnDomain {
                        values: vec![Value::Float(1.5)],
                        with_null: false,
                    },
                ],
            },
        ],
        max_rows: 2,
    }
}

/// A random scalar expression over the given wide arity.
fn gen_scalar(rng: &mut Rng, occs: &[(u32, u32)], depth: u32) -> ScalarExpr {
    if depth == 0 || rng.chance(50) {
        if rng.chance(70) {
            let &(occ, arity) = &occs[rng.below(occs.len() as u64) as usize];
            ScalarExpr::col(ColRef::new(occ, rng.below(arity as u64) as u32))
        } else {
            match rng.below(3) {
                0 => ScalarExpr::lit(rng.below(5) as i64 - 1),
                1 => ScalarExpr::lit(Value::Float(rng.below(4) as f64 / 2.0)),
                _ => ScalarExpr::lit(Value::Null),
            }
        }
    } else {
        let op = match rng.below(4) {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            _ => BinOp::Div,
        };
        gen_scalar(rng, occs, depth - 1).binary(op, gen_scalar(rng, occs, depth - 1))
    }
}

fn gen_bool(rng: &mut Rng, occs: &[(u32, u32)], depth: u32) -> BoolExpr {
    if depth == 0 || rng.chance(40) {
        match rng.below(4) {
            0 => {
                let op = match rng.below(6) {
                    0 => CmpOp::Lt,
                    1 => CmpOp::Le,
                    2 => CmpOp::Eq,
                    3 => CmpOp::Ge,
                    4 => CmpOp::Gt,
                    _ => CmpOp::Ne,
                };
                BoolExpr::cmp(gen_scalar(rng, occs, 1), op, gen_scalar(rng, occs, 1))
            }
            1 => BoolExpr::Like {
                expr: gen_scalar(rng, occs, 0),
                pattern: if rng.chance(50) { "%steel%" } else { "a%" }.into(),
                negated: rng.chance(30),
            },
            2 => BoolExpr::IsNull {
                expr: gen_scalar(rng, occs, 1),
                negated: rng.chance(50),
            },
            _ => BoolExpr::cmp(
                gen_scalar(rng, occs, 0),
                CmpOp::Le,
                ScalarExpr::lit(rng.below(4) as i64),
            ),
        }
    } else {
        let parts = vec![
            gen_bool(rng, occs, depth - 1),
            gen_bool(rng, occs, depth - 1),
        ];
        match rng.below(3) {
            0 => BoolExpr::and(parts),
            1 => BoolExpr::or(parts),
            _ => BoolExpr::Not(Box::new(gen_bool(rng, occs, depth - 1))),
        }
    }
}

fn gen_plan(rng: &mut Rng, f: &Fixture) -> SpjgExpr {
    // 1–2 occurrences drawn from {r, t}; arities 3 each.
    let n_occ = 1 + rng.below(2) as usize;
    let mut tables = Vec::new();
    let mut occs: Vec<(u32, u32)> = Vec::new();
    for i in 0..n_occ {
        let t = if rng.chance(50) { f.r } else { f.t };
        tables.push(t);
        occs.push((i as u32, 3));
    }
    let mut preds = Vec::new();
    if n_occ == 2 {
        // An equijoin between int columns keeps join cardinality sane and
        // exercises the key-consumption schedule.
        preds.push(BoolExpr::col_eq(
            ColRef::new(0, rng.below(2) as u32),
            ColRef::new(1, rng.below(2) as u32),
        ));
    }
    for _ in 0..rng.below(3) {
        preds.push(gen_bool(rng, &occs, 2));
    }
    let pred = BoolExpr::and(preds);
    if rng.chance(60) {
        let n_out = 1 + rng.below(3) as usize;
        let items = (0..n_out)
            .map(|i| NamedExpr::new(gen_scalar(rng, &occs, 2), format!("o{i}")))
            .collect();
        SpjgExpr::spj(tables, pred, items)
    } else {
        let n_keys = rng.below(3) as usize;
        let group_by = (0..n_keys)
            .map(|i| NamedExpr::new(gen_scalar(rng, &occs, 1), format!("g{i}")))
            .collect();
        let mut aggs = vec![NamedAgg::new(AggFunc::CountStar, "cnt")];
        for i in 0..rng.below(3) {
            let arg = gen_scalar(rng, &occs, 1);
            let func = if rng.chance(50) {
                AggFunc::Sum(arg)
            } else {
                AggFunc::SumZero(arg)
            };
            aggs.push(NamedAgg::new(func, format!("s{i}")));
        }
        SpjgExpr::aggregate(tables, pred, group_by, aggs)
    }
}

const PLANS: u64 = 60;
const DBS_PER_PLAN: u64 = 150;

#[test]
fn compiled_plan_matches_interpreter_over_enumerated_databases() {
    let f = fixture();
    let spec = enum_spec(&f);
    let checks: HashMap<TableId, Vec<Conjunct>> = HashMap::new();
    let enumerator = Enumerator::new(&f.catalog, &checks, &spec);
    let mut rng = Rng(0x5EED_D1FF);
    let mut scratch = ExecScratch::new();
    let mut bag = RowBag::new();
    let mut checked = 0u64;
    for plan_idx in 0..PLANS {
        let plan = gen_plan(&mut rng, &f);
        let prog = PlanProgram::compile(&f.catalog, &plan);
        // Stride through the space so later (fuller) databases are hit too.
        let stride = 1 + plan_idx % 7;
        enumerator.for_each(DBS_PER_PLAN * stride, |seed, db| {
            if seed % stride != 0 {
                return true;
            }
            let want = execute_spjg(db, &plan);
            prog.execute(db, &mut scratch, &mut bag);
            let got = bag.to_rows();
            assert!(
                bag_eq(&got, &want),
                "plan {plan_idx} seed {seed}: {:?}\nplan: {plan:?}",
                bag_diff(&got, &want)
            );
            checked += 1;
            true
        });
    }
    assert!(checked > 2000, "differential coverage too thin: {checked}");
}

#[test]
fn compiled_substitute_matches_interpreter_over_enumerated_databases() {
    let f = fixture();
    let spec = enum_spec(&f);
    let checks: HashMap<TableId, Vec<Conjunct>> = HashMap::new();
    let enumerator = Enumerator::new(&f.catalog, &checks, &spec);
    let mut rng = Rng(0xBAC_0FF);
    let mut scratch = ExecScratch::new();
    let mut vbag = RowBag::new();
    let mut sbag = RowBag::new();
    // View: r's three columns verbatim; substitutes compensate over the
    // view outputs, optionally backjoining r through the pk in output 0.
    let view = SpjgExpr::spj(
        vec![f.r],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(ScalarExpr::col(ColRef::new(0, 0)), "pk"),
            NamedExpr::new(ScalarExpr::col(ColRef::new(0, 1)), "a"),
            NamedExpr::new(ScalarExpr::col(ColRef::new(0, 2)), "s"),
        ],
    );
    let vprog = PlanProgram::compile(&f.catalog, &view);
    let mut checked = 0u64;
    for sub_idx in 0..40u64 {
        let backjoin = rng.chance(50);
        // Substitute column space: 3 view outputs (+3 backjoined r cols).
        let occs: Vec<(u32, u32)> = vec![(0, if backjoin { 6 } else { 3 })];
        let backjoins = if backjoin {
            vec![mv_plan::BackJoin {
                table: f.r,
                key: vec![(0, ColumnId(0))],
            }]
        } else {
            vec![]
        };
        let mut predicates = Vec::new();
        for _ in 0..rng.below(3) {
            predicates.push(gen_bool(&mut rng, &occs, 2));
        }
        let output = if rng.chance(60) {
            OutputList::Spj(
                (0..1 + rng.below(2))
                    .map(|i| NamedExpr::new(gen_scalar(&mut rng, &occs, 2), format!("o{i}")))
                    .collect(),
            )
        } else {
            OutputList::Aggregate {
                group_by: (0..rng.below(2))
                    .map(|i| NamedExpr::new(gen_scalar(&mut rng, &occs, 1), format!("g{i}")))
                    .collect(),
                aggregates: vec![
                    NamedAgg::new(AggFunc::CountStar, "cnt"),
                    NamedAgg::new(AggFunc::Sum(gen_scalar(&mut rng, &occs, 1)), "s"),
                ],
            }
        };
        let sub = Substitute {
            view: ViewId(0),
            backjoins,
            predicates,
            output,
            freshness: mv_plan::Freshness::Fresh,
        };
        let sprog = SubstituteProgram::compile(&f.catalog, &sub);
        enumerator.for_each(120, |seed, db| {
            let view_rows = execute_spjg(db, &view);
            let want = execute_substitute_with(db, &view_rows, &sub);
            vprog.execute(db, &mut scratch, &mut vbag);
            sprog.execute(db, &vbag, &mut scratch, &mut sbag);
            let got = sbag.to_rows();
            assert!(
                bag_eq(&got, &want),
                "sub {sub_idx} seed {seed}: {:?}\nsub: {sub:?}",
                bag_diff(&got, &want)
            );
            checked += 1;
            true
        });
    }
    assert!(checked > 2000, "differential coverage too thin: {checked}");
}

/// Directed SQL-semantics pin: `SUM` over an all-NULL group is NULL (not
/// 0), a group emptied by the predicate vanishes entirely, and a *scalar*
/// aggregate over empty input still yields its one row with `COUNT(*)` 0,
/// `SUM` NULL and `SumZero` 0 — identically in the tree-walk interpreter
/// and the compiled program, whose `arg_col` fast path (bare-column sum
/// argument) and `fast_cmp` predicate path both fire here. Incremental
/// maintenance makes emptied and all-NULL groups common, so these cases
/// are pinned directly instead of hoping the random sweep hits them.
#[test]
fn sum_null_semantics_match_between_paths() {
    let f = fixture();
    let mut db = Database::new(f.catalog.clone());
    // t(fk, b, c): three groups keyed on fk.
    //   fk=1 — both b NULL: COUNT(*)=2, SUM(b)=NULL.
    //   fk=2 — b ∈ {5, NULL}: COUNT(*)=2, SUM(b)=5.
    //   fk=3 — its only row rejected by the b < 10 predicate: no group.
    db.load(
        f.t,
        vec![
            vec![Value::Int(1), Value::Null, Value::Float(0.0)],
            vec![Value::Int(1), Value::Null, Value::Float(0.0)],
            vec![Value::Int(2), Value::Int(5), Value::Float(0.0)],
            vec![Value::Int(2), Value::Null, Value::Float(0.0)],
            vec![Value::Int(3), Value::Int(50), Value::Float(0.0)],
        ],
    );
    let col = |c: u32| ScalarExpr::col(ColRef::new(0, c));
    let grouped_all = SpjgExpr::aggregate(
        vec![f.t],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(col(0), "fk")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(col(1)), "sum_b"),
        ],
    );
    let grouped_filtered = SpjgExpr::aggregate(
        vec![f.t],
        BoolExpr::cmp(col(1), CmpOp::Lt, ScalarExpr::lit(10i64)),
        vec![NamedExpr::new(col(0), "fk")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(col(1)), "sum_b"),
        ],
    );
    let scalar_empty = SpjgExpr::aggregate(
        vec![f.t],
        BoolExpr::cmp(col(1), CmpOp::Lt, ScalarExpr::lit(-100i64)),
        vec![],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(col(1)), "sum_b"),
            NamedAgg::new(AggFunc::SumZero(col(1)), "sum0_b"),
        ],
    );
    let mut scratch = ExecScratch::new();
    let mut bag = RowBag::new();
    let mut check = |plan: &SpjgExpr, want: &[Vec<Value>], label: &str| {
        let interp = execute_spjg(&db, plan);
        assert!(
            bag_eq(&interp, want),
            "{label} interpreter: {:?}",
            bag_diff(&interp, want)
        );
        let prog = PlanProgram::compile(&f.catalog, plan);
        prog.execute(&db, &mut scratch, &mut bag);
        let got = bag.to_rows();
        assert!(
            bag_eq(&got, want),
            "{label} compiled: {:?}",
            bag_diff(&got, want)
        );
    };
    check(
        &grouped_all,
        &[
            vec![Value::Int(1), Value::Int(2), Value::Null],
            vec![Value::Int(2), Value::Int(2), Value::Int(5)],
            vec![Value::Int(3), Value::Int(1), Value::Int(50)],
        ],
        "all-NULL group",
    );
    check(
        &grouped_filtered,
        // fk=1 gone (NULL b fails b < 10), fk=3 gone (50 fails): only the
        // fk=2 row with b=5 survives its group.
        &[vec![Value::Int(2), Value::Int(1), Value::Int(5)]],
        "emptied groups",
    );
    check(
        &scalar_empty,
        &[vec![Value::Int(0), Value::Null, Value::Int(0)]],
        "scalar aggregate over empty input",
    );
}

/// Rows rendered cell by cell with floats as raw bits, sorted: two results
/// are equal under this key exactly when they are equal as bags *and*
/// every float cell (a `SUM` over floats in particular) is bit-identical.
fn bit_exact_bag(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("f{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

/// Run `plan` both ways and require identical results: the same row
/// sequence for SPJ outputs (the order guarantee: per prefix, matches in
/// ascending scan index, hash path or not), and bit-exact bags for
/// aggregates (whose group order the interpreter's hash map scrambles).
fn assert_compiled_equals_oracle(
    db: &Database,
    plan: &SpjgExpr,
    scratch: &mut ExecScratch,
    bag: &mut RowBag,
    label: &str,
) -> usize {
    let want = execute_spjg(db, plan);
    PlanProgram::compile(&db.catalog, plan).execute(db, scratch, bag);
    let got = bag.to_rows();
    if plan.is_aggregate() {
        assert_eq!(
            bit_exact_bag(&got),
            bit_exact_bag(&want),
            "{label}: {:?}\nplan: {plan:?}",
            bag_diff(&got, &want)
        );
    } else {
        assert_eq!(got, want, "{label}: row sequence differs\nplan: {plan:?}");
    }
    want.len()
}

/// The whole §5 view workload at TPC-H scale: every join step of a
/// multi-table view runs far above the hash cutoff, the catalog includes
/// float sums, and every view must come out of the compiled program
/// exactly as the interpreter computes it. (The §5 generator joins along
/// foreign keys to tables not yet in the view, so it never emits a
/// self-join; the directed test below covers those.)
#[test]
fn compiled_plan_matches_interpreter_over_section5_views() {
    use mv_data::{generate_tpch, TpchScale};
    use mv_workload::{Generator, WorkloadParams};

    let (db, _) = generate_tpch(&TpchScale::tiny(), 0x5EED_0003);
    let views = Generator::new(&db.catalog, WorkloadParams::views(), 0x5EED_0001).views(250);
    assert_eq!(views.len(), 250);
    let mut scratch = ExecScratch::new();
    let mut bag = RowBag::new();
    let (mut joins, mut float_sums, mut rows) = (0, 0, 0);
    for (i, view) in views.iter().enumerate() {
        let expr = &view.expr;
        joins += usize::from(expr.tables.len() > 1);
        if let OutputList::Aggregate { aggregates, .. } = &expr.output {
            float_sums += usize::from(aggregates.iter().any(|a| {
                a.func.argument().is_some_and(|arg| {
                    arg.infer_type(&|c| expr.col_type(&db.catalog, c)) == Some(ColumnType::Float)
                })
            }));
        }
        rows += assert_compiled_equals_oracle(
            &db,
            expr,
            &mut scratch,
            &mut bag,
            &format!("view {i} ({})", view.name),
        );
    }
    assert!(joins > 50, "too few join views: {joins}");
    assert!(float_sums > 0, "workload has no float-sum view");
    assert!(rows > 10_000, "workload produced too few rows: {rows}");
}

/// Directed hash-path case above the cutoff: join keys with NULLs (which
/// never join) and duplicates on both sides, an Int = Float key (equal
/// values must hash alike), a cartesian step, self-joins, more groups than
/// the group table scans linearly, and float sums whose result depends on
/// the accumulation order.
#[test]
fn hash_join_steps_match_interpreter_above_cutoff() {
    let f = fixture();
    let mut db = Database::new(f.catalog.clone());
    // r(pk, a, s): a repeats every 4 rows and is NULL every 5th row.
    db.load(
        f.r,
        (0..24i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 4)
                    },
                    Value::Str(format!("s{}", i % 3).into()),
                ]
            })
            .collect(),
    );
    // t(fk, b, c): fk repeats every 7 rows and is NULL every 6th row; c
    // mixes magnitudes so that a reordered float sum changes its bits.
    db.load(
        f.t,
        (0..40i64)
            .map(|i| {
                let c = match i % 4 {
                    0 => 1e16,
                    1 => 1.0,
                    2 => -1e16,
                    _ => (i % 3) as f64,
                };
                vec![
                    if i % 6 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 7)
                    },
                    if i % 9 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 3)
                    },
                    Value::Float(c),
                ]
            })
            .collect(),
    );
    let col = |occ: u32, c: u32| ScalarExpr::col(ColRef::new(occ, c));
    let r_a_eq_t_fk = BoolExpr::col_eq(ColRef::new(0, 1), ColRef::new(1, 0));
    let plans = [
        // Duplicate and NULL keys on both sides, projected.
        SpjgExpr::spj(
            vec![f.r, f.t],
            r_a_eq_t_fk.clone(),
            vec![
                NamedExpr::new(col(0, 0), "pk"),
                NamedExpr::new(col(1, 1), "b"),
                NamedExpr::new(col(1, 2), "c"),
            ],
        ),
        // The same join grouped finely (more groups than the linear
        // scan holds) with order-sensitive float sums.
        SpjgExpr::aggregate(
            vec![f.r, f.t],
            r_a_eq_t_fk.clone(),
            vec![NamedExpr::new(col(0, 0), "pk")],
            vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(col(1, 2)), "sum_c"),
                NamedAgg::new(AggFunc::SumZero(col(1, 1)), "sum_b"),
            ],
        ),
        // Coarse groups: long float accumulations per group.
        SpjgExpr::aggregate(
            vec![f.r, f.t],
            r_a_eq_t_fk,
            vec![NamedExpr::new(col(1, 1), "b")],
            vec![NamedAgg::new(AggFunc::Sum(col(1, 2)), "sum_c")],
        ),
        // Int = Float join key: Int(1) joins Float(1.0).
        SpjgExpr::spj(
            vec![f.t, f.r],
            BoolExpr::col_eq(ColRef::new(0, 2), ColRef::new(1, 1)),
            vec![
                NamedExpr::new(col(0, 2), "c"),
                NamedExpr::new(col(1, 0), "pk"),
            ],
        ),
        // Cartesian step between two hash steps, with a self-join: r ⋈ t,
        // then r again with no key, filtered after the fact.
        SpjgExpr::aggregate(
            vec![f.r, f.t, f.r],
            BoolExpr::and(vec![
                BoolExpr::col_eq(ColRef::new(0, 0), ColRef::new(1, 0)),
                BoolExpr::cmp(col(2, 0), CmpOp::Lt, ScalarExpr::lit(12i64)),
            ]),
            vec![NamedExpr::new(col(2, 2), "s")],
            vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(col(1, 2)), "sum_c"),
            ],
        ),
        // A two-column key, the second column of which is NULL-bearing.
        SpjgExpr::spj(
            vec![f.t, f.t],
            BoolExpr::and(vec![
                BoolExpr::col_eq(ColRef::new(0, 0), ColRef::new(1, 0)),
                BoolExpr::col_eq(ColRef::new(0, 1), ColRef::new(1, 1)),
            ]),
            vec![
                NamedExpr::new(col(0, 2), "c0"),
                NamedExpr::new(col(1, 2), "c1"),
            ],
        ),
    ];
    let mut scratch = ExecScratch::new();
    let mut bag = RowBag::new();
    let sizes: Vec<usize> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            assert_compiled_equals_oracle(
                &db,
                plan,
                &mut scratch,
                &mut bag,
                &format!("directed plan {i}"),
            )
        })
        .collect();
    // Pinned result sizes: every join is well above the cutoff, and plan 1
    // holds more groups than the group table scans linearly.
    assert_eq!(sizes, [95, 19, 4, 96, 3, 55]);
}
