//! `flatware`: a Unix-like filesystem layer over Fix Trees.
//!
//! The paper's Flatware (§4.1.4) implements the WASI interface in terms
//! of the Fixpoint API, treating a Thunk's arguments as a Unix-like
//! filesystem so off-the-shelf POSIX programs (CPython, clang) run on
//! Fix. This crate reproduces that layer for the reproduction's guests:
//!
//! * [`FsBuilder`] — directories as nested Trees with inode-info blobs
//!   (Fig. 4's representation);
//! * [`register_get_file`] / [`get_file`] — the lazy path-walk procedure
//!   of Algorithm 3, whose minimum repository stays O(one directory);
//! * [`run_program`] / [`register_posix_program`] — argv/stdout
//!   conventions so "computational" Unix programs port directly
//!   (used by the SeBS ports in `fix-workloads`, §5.6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fs;
#[cfg(test)]
#[path = "../../../tests/support/gen.rs"]
mod gen;
mod getfile;
mod program;

pub use fs::{DirEntry, DirInfo, EntryKind, FsBuilder};
pub use getfile::{get_file, register_get_file};
pub use program::{encode_argv, register_posix_program, run_program, PosixWorld};
