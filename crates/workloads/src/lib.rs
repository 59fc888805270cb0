//! `fix-workloads`: the paper's evaluation workloads, end to end.
//!
//! Every application the paper measures is implemented here twice over:
//! once *for real* against the Fixpoint runtime (guest codelets, Fix
//! trees, selections, encodes), and once as a [`fix_cluster::JobGraph`]
//! generator for the simulated 10-node cluster:
//!
//! * [`corpus`] / [`wordcount`] — the Wikipedia count-string map-reduce
//!   (Fig. 8b) and the one-off-function workload (Fig. 8a);
//! * [`titles`] / [`bptree`] — the B+-tree key-value store over Fix
//!   trees (Fig. 9 and Table 2);
//! * [`compile`] — the burst-parallel compilation job with a real lexer
//!   and linker (Fig. 10);
//! * [`template`] / [`archive`] / [`sebs`] — the SeBS `dynamic-html` and
//!   `compression` functions ported through Flatware (§5.6);
//! * [`guests`] — the shared FixVM guest fixtures (`fib`/`add`).
//!
//! Since the One Fix API refactor every real-runtime entry point here is
//! generic over the `fix_core::api` traits, so the same workload runs
//! unchanged on `fixpoint::Runtime` or on `fix_cluster::ClusterClient`
//! under Fixpoint's profile or a comparator's
//! (`fix_baselines::profiles`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod bptree;
pub mod compile;
pub mod corpus;
#[cfg(test)]
#[path = "../../../tests/support/gen.rs"]
mod gen;
pub mod guests;
pub mod mapreduce;
pub mod sebs;
pub mod template;
pub mod titles;
pub mod wordcount;
