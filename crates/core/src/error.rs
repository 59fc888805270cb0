//! Error types shared across the Fix implementation.

use crate::handle::Handle;
use std::fmt;

/// Errors that can arise while manipulating or evaluating Fix objects.
///
/// Fix semantics are total for well-formed programs; most of these errors
/// correspond to *guest faults* (a procedure violating its contract, e.g.
/// touching data behind a Ref) or to *platform faults* (an object missing
/// from storage).
///
/// The enum is non-exhaustive: it is the shared error surface of every
/// [`crate::api`] backend, and backends may grow fault classes (cluster
/// transport, admission control, ...) without breaking downstream
/// matches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The referenced object is not present in (local) storage.
    NotFound(Handle),
    /// A procedure attempted to access the data behind an inaccessible
    /// reference (a Ref). Refs expose only type and size.
    Inaccessible(Handle),
    /// A handle had the wrong type for the requested operation.
    TypeMismatch {
        /// The offending handle.
        handle: Handle,
        /// What the operation required (e.g. "blob object").
        expected: &'static str,
    },
    /// A tree that encodes an invocation or selection is structurally
    /// invalid (wrong arity, wrong slot types, ...).
    MalformedTree {
        /// The malformed tree.
        handle: Handle,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A selection index or byte range is out of bounds.
    BadSelection {
        /// The selection target.
        target: Handle,
        /// First selected index / byte.
        begin: u64,
        /// One past the last selected index / byte.
        end: u64,
        /// The actual length of the target.
        len: u64,
    },
    /// The function slot of an application does not name a runnable
    /// procedure (not registered natively and not a VM module).
    UnknownProcedure(Handle),
    /// A guest procedure exhausted its fuel allowance.
    OutOfFuel {
        /// The fuel limit that was exceeded.
        limit: u64,
    },
    /// A guest procedure exceeded its memory allowance.
    MemoryLimit {
        /// The memory limit in bytes.
        limit: u64,
        /// The attempted allocation size in bytes.
        requested: u64,
    },
    /// A guest procedure faulted (VM trap, invalid API use, panic, ...).
    Trap(String),
    /// Evaluation recursion exceeded the configured depth bound.
    DepthExceeded {
        /// The configured bound.
        limit: usize,
    },
    /// A fault specific to one execution backend (e.g. a cluster client
    /// with no worker nodes). Semantic faults use the shared variants
    /// above so they stay comparable across backends; this variant is
    /// for failures of the *substrate*, not of the program.
    Backend {
        /// Which backend failed (e.g. `"cluster"`).
        backend: &'static str,
        /// Human-readable description of the failure.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFound(h) => write!(f, "object not found in storage: {h}"),
            Error::Inaccessible(h) => {
                write!(
                    f,
                    "attempted to access data behind an inaccessible Ref: {h}"
                )
            }
            Error::TypeMismatch { handle, expected } => {
                write!(f, "type mismatch: expected {expected}, got {handle}")
            }
            Error::MalformedTree { handle, reason } => {
                write!(f, "malformed tree {handle}: {reason}")
            }
            Error::BadSelection {
                target,
                begin,
                end,
                len,
            } => write!(
                f,
                "selection [{begin}, {end}) out of bounds for {target} of length {len}"
            ),
            Error::UnknownProcedure(h) => write!(f, "unknown procedure: {h}"),
            Error::OutOfFuel { limit } => write!(f, "guest exhausted fuel limit of {limit}"),
            Error::MemoryLimit { limit, requested } => write!(
                f,
                "guest exceeded memory limit ({requested} requested, {limit} allowed)"
            ),
            Error::Trap(msg) => write!(f, "guest trap: {msg}"),
            Error::DepthExceeded { limit } => {
                write!(f, "evaluation depth exceeded the bound of {limit}")
            }
            Error::Backend { backend, message } => {
                write!(f, "{backend} backend fault: {message}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenient alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;
