//! `fix-bench`: regenerates every table and figure in the paper's
//! evaluation.
//!
//! One module per experiment; the `figures` binary prints them, and the
//! Criterion benches under `benches/` measure the real-runtime pieces.
//! See EXPERIMENTS.md for paper-vs-measured comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt_table;
pub mod calibrate;
pub mod comparators;
pub mod ext_billing;
pub mod ext_gc;
pub mod fig10;
pub mod fig7a;
pub mod fig7b;
pub mod fig8a;
pub mod fig8b;
pub mod fig9;
pub mod ledger;
pub mod recover;
pub mod route;
pub mod serve_report;
pub mod trace;
