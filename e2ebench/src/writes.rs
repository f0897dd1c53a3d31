//! Write rounds that keep the TPC-H constraints intact.
//!
//! A write round is one logical write, made of one or two table deltas:
//!
//! * insert a new order under a fresh `o_orderkey`, then its lineitems;
//! * retire the oldest order this generator inserted, deleting its
//!   lineitems first and then the order;
//! * update a non-key, non-foreign-key column of one `customer` or
//!   `partsupp` row, as a delete plus an insert of the same key in one
//!   delta.
//!
//! Every primary key stays unique and every foreign key stays valid: new
//! rows copy their foreign-key values from existing rows, and deletes only
//! remove rows the generator inserted itself. Re-inserting a copy of an
//! existing row would duplicate a primary key, and the matcher's
//! foreign-key reasoning relies on keys being unique.

use crate::Rng;
use mv_catalog::{ColumnId, TableId, Value};
use mv_data::{Database, Row};
use mv_maintain::TableDelta;

/// The kinds of successive rounds, repeated: every kind is a third of the
/// writes in every run, and the retired order is the one inserted two
/// rounds before.
const CYCLE: [WriteKind; 3] = [WriteKind::Insert, WriteKind::Update, WriteKind::Retire];
/// Lineitems per inserted order are drawn from `1..=MAX_LINES`.
const MAX_LINES: usize = 4;

/// The columns of a table an update may rewrite.
struct Updatable {
    table: TableId,
    columns: Vec<ColumnId>,
}

/// The order this generator inserted last, kept until it is retired.
struct LiveOrder {
    order: Row,
    lines: Vec<Row>,
}

/// Deterministic write-round generator over a live database.
pub struct WriteGen {
    rng: Rng,
    orders: TableId,
    lineitem: TableId,
    orderkey_col: usize,
    l_orderkey_col: usize,
    l_linenumber_col: usize,
    next_orderkey: i64,
    rounds: usize,
    live: Option<LiveOrder>,
    updatable: [Updatable; 2],
}

/// What kind of write a round is.
#[derive(Clone, Copy, Debug)]
pub enum WriteKind {
    Insert,
    Retire,
    Update,
}

impl WriteGen {
    pub fn new(db: &Database, seed: u64) -> Self {
        let cat = &db.catalog;
        let table = |name: &str| cat.table_by_name(name).expect("TPC-H table");
        let col = |t: TableId, name: &str| {
            cat.table(t)
                .column_by_name(name)
                .expect("TPC-H column")
                .0
                 .0 as usize
        };
        let (orders, lineitem) = (table("orders"), table("lineitem"));
        let orderkey_col = col(orders, "o_orderkey");
        let next_orderkey = db
            .rows(orders)
            .iter()
            .filter_map(|r| match r[orderkey_col] {
                Value::Int(k) => Some(k),
                _ => None,
            })
            .max()
            .unwrap_or(0)
            + 1;
        let updatable = |t: TableId| {
            let def = cat.table(t);
            let mut fixed: Vec<ColumnId> = def
                .keys
                .iter()
                .flat_map(|k| k.columns.iter().copied())
                .collect();
            for fk in cat.foreign_keys_from(t) {
                fixed.extend(cat.foreign_key(fk).from_columns.iter().copied());
            }
            let columns = (0..def.columns.len() as u32)
                .map(ColumnId)
                .filter(|c| !fixed.contains(c))
                .collect();
            Updatable { table: t, columns }
        };
        WriteGen {
            rng: Rng::new(seed),
            orders,
            lineitem,
            orderkey_col,
            l_orderkey_col: col(lineitem, "l_orderkey"),
            l_linenumber_col: col(lineitem, "l_linenumber"),
            next_orderkey,
            rounds: 0,
            live: None,
            updatable: [updatable(table("customer")), updatable(table("partsupp"))],
        }
    }

    /// The next write round against the database's current state.
    pub fn next_round(&mut self, db: &Database) -> (WriteKind, Vec<TableDelta>) {
        let kind = CYCLE[self.rounds % CYCLE.len()];
        self.rounds += 1;
        let deltas = match kind {
            WriteKind::Insert => self.insert_order(db),
            WriteKind::Retire => self.retire_order(),
            WriteKind::Update => vec![self.update_row(db)],
        };
        (kind, deltas)
    }

    fn pick<'d>(&mut self, rows: &'d [Row]) -> &'d Row {
        &rows[self.rng.below(rows.len())]
    }

    fn insert_order(&mut self, db: &Database) -> Vec<TableDelta> {
        let key = self.next_orderkey;
        self.next_orderkey += 1;
        let mut order = self.pick(db.rows(self.orders)).clone();
        order[self.orderkey_col] = Value::Int(key);
        let n = 1 + self.rng.below(MAX_LINES);
        let lines: Vec<Row> = (0..n)
            .map(|i| {
                let mut line = self.pick(db.rows(self.lineitem)).clone();
                line[self.l_orderkey_col] = Value::Int(key);
                line[self.l_linenumber_col] = Value::Int(i as i64 + 1);
                line
            })
            .collect();
        self.live = Some(LiveOrder {
            order: order.clone(),
            lines: lines.clone(),
        });
        vec![
            TableDelta::insert(self.orders, vec![order]),
            TableDelta::insert(self.lineitem, lines),
        ]
    }

    fn retire_order(&mut self) -> Vec<TableDelta> {
        let LiveOrder { order, lines } = self.live.take().expect("CYCLE inserts before it retires");
        vec![
            TableDelta::delete(self.lineitem, lines),
            TableDelta::delete(self.orders, vec![order]),
        ]
    }

    fn update_row(&mut self, db: &Database) -> TableDelta {
        let which = self.rng.below(self.updatable.len());
        let table = self.updatable[which].table;
        let rows = db.rows(table);
        let old = self.pick(rows).clone();
        let donor = self.pick(rows);
        let cols = &self.updatable[which].columns;
        let col = cols[self.rng.below(cols.len())].0 as usize;
        let mut new = old.clone();
        new[col] = donor[col].clone();
        TableDelta {
            table,
            inserts: vec![new],
            deletes: vec![old],
        }
    }
}
