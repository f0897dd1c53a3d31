//! A row-oriented in-memory execution engine.
//!
//! Execution paths, all operating on [`mv_data::Database`] rows:
//!
//! * [`program::PlanProgram`] (with [`program::SubstitutePipeline`])
//!   evaluates a compiled SPJG block — the production evaluator behind
//!   view materialization, refresh and delta joins in `mv-maintain`, and
//!   the prover's hot loop;
//! * [`physical::execute_plan`] interprets an optimizer-produced
//!   [`mv_plan::PhysicalPlan`] — the read path;
//! * [`spjg::execute_spjg`] evaluates an SPJG block directly against base
//!   tables — the *correctness oracle* the other paths (and the MV4xx
//!   maintenance audits) are checked against, not a production path;
//! * [`substitute::execute_substitute`] evaluates a matcher-produced
//!   [`mv_plan::Substitute`] against a materialized view's rows.
//!
//! Bag semantics throughout: duplicates are preserved exactly, and
//! [`compare::bag_eq`] provides multiset equality for tests. The central
//! soundness property of the whole reproduction is checked on top of this
//! crate: *whenever the matcher produces a substitute, executing it against
//! the materialized view returns exactly the same bag of rows as executing
//! the query against base data.*

pub mod agg;
pub mod compare;
pub mod physical;
pub mod program;
pub mod spjg;
pub mod substitute;

pub use compare::{bag_diff, bag_eq};
pub use physical::{execute_plan, ViewStore};
pub use program::{
    rowbag_eq, ExecScratch, PlanProgram, RowBag, SubstitutePipeline, SubstituteProgram,
};
pub use spjg::execute_spjg;
pub use substitute::{execute_substitute, execute_substitute_with, materialize_view};
