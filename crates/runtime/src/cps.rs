//! Continuation capture: suspendable computations as a library.
//!
//! Fix functions run to completion without blocking (paper §3); a
//! computation that needs more data mid-flight must instead *return* a
//! new Thunk whose input tree carries (a) its serialized state and
//! (b) Encodes of the data it needs next — the continuation-passing
//! pattern the paper's B+-tree lookup and `get-file` (Fig. 4) build by
//! hand, and that §6 proposes automating ("lightweight continuation
//! capture, where existing programs are automatically split at I/O
//! operations").
//!
//! This module is that automation at the library level. A *stepper* is
//! an ordinary function of `(state, data...) → outcome`; the plumbing —
//! rebuilding the application tree, wrapping requests in Strict or
//! Shallow encodes, threading the state blob — is generated once in
//! [`register_stepper`]. Each suspension costs one Fix invocation, so
//! programs split at I/O keep the paper's fine-grained footprint: the
//! platform sees exactly what each resumption needs before it runs.
//!
//! ```
//! use fixpoint::{Runtime, StepOutcome};
//! use fixpoint::cps::{register_stepper, start};
//! use fix_core::api::{Evaluator, ObjectApi};
//! use fix_core::data::Blob;
//! use fix_core::handle::EncodeStyle;
//! use std::sync::Arc;
//!
//! // Sum a chain of numbers linked as [value, next] pairs, one hop
//! // (one invocation, one fetched node) per step.
//! let rt = Runtime::builder().build();
//! let a = rt.put_tree(fix_core::data::Tree::from_handles(vec![
//!     rt.put_blob(Blob::from_u64(1)),
//! ]));
//! let b = rt.put_tree(fix_core::data::Tree::from_handles(vec![
//!     rt.put_blob(Blob::from_u64(2)), a.as_ref_handle(),
//! ]));
//! let sum = register_stepper(&rt, "sum-chain", Arc::new(|ctx| {
//!     let acc = u64::from_le_bytes(ctx.state[..8].try_into().unwrap());
//!     let node = ctx.host.load_tree(ctx.args[0])?;
//!     let v = ctx.host.load_blob(node.get(0).unwrap())?.as_u64().unwrap();
//!     Ok(match node.get(1) {
//!         Some(next) => StepOutcome::suspend((acc + v).to_le_bytes().to_vec())
//!             .request(next.identification()?, EncodeStyle::Strict),
//!         None => StepOutcome::Done(Blob::from_u64(acc + v).handle()),
//!     })
//! }));
//! let thunk = start(&rt, sum, &0u64.to_le_bytes(), &[b]).unwrap();
//! assert_eq!(rt.get_u64(rt.eval(thunk).unwrap()).unwrap(), 3);
//! ```

use crate::runtime::Runtime;
use fix_core::api::{InvocationApi, NativeFn, ObjectApi};
use fix_core::data::Blob;
use fix_core::error::{Error, Result};
use fix_core::handle::{EncodeStyle, Handle};
use fix_core::invocation::Invocation;
use fix_core::limits::ResourceLimits;
use fix_vm::HostApi;
use std::sync::Arc;

/// One data request a suspending step makes for its resumption.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// What to evaluate (a Thunk — e.g. a Selection into a Ref).
    pub target: Handle,
    /// Strict: resume with the accessible result. Shallow: resume with
    /// a Ref (name and size only) — the Fig. 4 pattern for descending
    /// structures without fetching them.
    pub style: EncodeStyle,
}

/// What one step decides.
#[derive(Debug, Clone)]
pub enum StepOutcome {
    /// Finished. The handle may itself be a Thunk (a tail call).
    Done(Handle),
    /// Suspend with serialized `state`; the runtime evaluates every
    /// request and re-invokes the stepper with the results as `args`.
    Suspend {
        /// Serialized continuation state (the stepper's "locals").
        state: Vec<u8>,
        /// Data needed before resumption, in `args` order.
        requests: Vec<Request>,
    },
}

impl StepOutcome {
    /// Starts a suspension with no requests yet.
    pub fn suspend(state: Vec<u8>) -> StepOutcome {
        StepOutcome::Suspend {
            state,
            requests: Vec::new(),
        }
    }

    /// Adds a request (builder style).
    ///
    /// # Panics
    ///
    /// Panics if called on [`StepOutcome::Done`] (a programming error).
    pub fn request(mut self, target: Handle, style: EncodeStyle) -> StepOutcome {
        match &mut self {
            StepOutcome::Suspend { requests, .. } => requests.push(Request { target, style }),
            // invariant: builder misuse by the stepper's author, documented under `# Panics`.
            StepOutcome::Done(_) => panic!("request() on a finished step"),
        }
        self
    }
}

/// What a step sees when it runs.
pub struct StepCtx<'a, 'b> {
    /// The state the previous step serialized (empty on the first step).
    pub state: &'a [u8],
    /// The resolved results of the previous step's requests (the start
    /// arguments on the first step). Strict requests appear accessible;
    /// Shallow requests appear as Refs.
    pub args: &'a [Handle],
    /// Host services (load accessible data, create new data).
    pub host: &'a mut dyn HostApi,
    /// The invocation's resource limits handle (threads to children).
    pub limits: Handle,
    _marker: std::marker::PhantomData<&'b ()>,
}

impl StepCtx<'_, '_> {
    /// Builds a Selection thunk `target[index]` (works on Refs: the
    /// runtime performs the extraction).
    pub fn select(&mut self, target: Handle, index: u64) -> Result<Handle> {
        let tree = fix_core::invocation::Selection::index(target, index).to_tree();
        self.host.create_tree(tree.entries().to_vec())?.selection()
    }
}

/// The signature of a stepper.
pub type StepFn = Arc<dyn Fn(&mut StepCtx<'_, '_>) -> Result<StepOutcome> + Send + Sync>;

/// Registers `step` as a suspendable procedure; returns its handle.
///
/// Protocol (generated here, invisible to the stepper): the application
/// tree is `[limits, self, state-blob, args...]`. A suspension becomes
/// `application([limits, self, new-state, encode(request)...])` — the
/// runtime resolves the encodes (performing exactly the I/O the step
/// declared) and re-invokes.
pub fn register_stepper(rt: &Runtime, name: &str, step: StepFn) -> Handle {
    let f: NativeFn = Arc::new(move |ctx| {
        let input = ctx.input_tree()?;
        let limits = input.get(0).ok_or(Error::MalformedTree {
            handle: ctx.input,
            reason: "missing limits slot".into(),
        })?;
        let self_proc = input.get(1).ok_or(Error::MalformedTree {
            handle: ctx.input,
            reason: "missing procedure slot".into(),
        })?;
        let state_blob = ctx.arg_blob(0)?;
        let args: Vec<Handle> = input.entries()[3..].to_vec();
        let mut sctx = StepCtx {
            state: state_blob.as_slice(),
            args: &args,
            host: ctx.host,
            limits,
            _marker: std::marker::PhantomData,
        };
        match step(&mut sctx)? {
            StepOutcome::Done(h) => Ok(h),
            StepOutcome::Suspend { state, requests } => {
                if requests.is_empty() {
                    return Err(Error::Trap(
                        "stepper suspended without requesting anything: \
                         it could never make progress"
                            .into(),
                    ));
                }
                let state_h = ctx.host.create_blob(state)?;
                let mut slots = vec![limits, self_proc, state_h];
                for r in &requests {
                    slots.push(r.target.encode(r.style)?);
                }
                ctx.host.create_tree(slots)?.application()
            }
        }
    });
    rt.register_native(name, f)
}

/// Builds the initial invocation of a stepper: state plus start args.
/// Returns the (unevaluated) Application Thunk.
pub fn start(rt: &Runtime, stepper: Handle, state: &[u8], args: &[Handle]) -> Result<Handle> {
    start_with_limits(rt, ResourceLimits::default_limits(), stepper, state, args)
}

/// [`start`] with explicit resource limits.
fn start_with_limits(
    rt: &Runtime,
    limits: ResourceLimits,
    stepper: Handle,
    state: &[u8],
    args: &[Handle],
) -> Result<Handle> {
    let mut all_args = vec![rt.put_blob(Blob::from_slice(state))];
    all_args.extend_from_slice(args);
    let inv = Invocation {
        limits,
        procedure: stepper,
        args: all_args,
    };
    rt.put_tree(inv.to_tree()).application()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::api::Evaluator;
    use fix_core::data::Tree;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Builds a Fix linked list `[value-blob, next-ref]`; returns the
    /// head. Values are 40-byte blobs so data access is observable.
    fn linked_list(rt: &Runtime, values: &[u64]) -> Handle {
        let mut next: Option<Handle> = None;
        for &v in values.iter().rev() {
            let mut bytes = vec![0u8; 40];
            bytes[..8].copy_from_slice(&v.to_le_bytes());
            let val = rt.put_blob(Blob::from_vec(bytes));
            let mut slots = vec![val.as_ref_handle()];
            if let Some(n) = next {
                slots.push(n.as_ref_handle());
            }
            next = Some(rt.put_tree(Tree::from_handles(slots)));
        }
        next.expect("nonempty list")
    }

    /// The paper's Listing-3 `get(head, i)`, one node hop per step.
    fn register_get(rt: &Runtime) -> Handle {
        register_stepper(
            rt,
            "list/get",
            Arc::new(|ctx| {
                let i = u64::from_le_bytes(ctx.state[..8].try_into().expect("state"));
                let node = ctx.args[0];
                if i == 0 {
                    // Tail-call the value selection; only this blob is
                    // ever fetched.
                    return Ok(StepOutcome::Done(ctx.select(node, 0)?));
                }
                let next = ctx.select(node, 1)?;
                Ok(StepOutcome::suspend((i - 1).to_le_bytes().to_vec())
                    // Shallow: hop to the next node *by name*.
                    .request(next, EncodeStyle::Shallow))
            }),
        )
    }

    #[test]
    fn listing3_get_walks_by_name_and_fetches_one_value() {
        let rt = Runtime::builder().build();
        let head = linked_list(&rt, &[10, 11, 12, 13, 14]);
        let get = register_get(&rt);
        for i in 0..5u64 {
            let thunk = start(&rt, get, &i.to_le_bytes(), &[head]).unwrap();
            let out = rt.eval(thunk).unwrap();
            let blob = rt.get_blob(out).unwrap();
            assert_eq!(
                u64::from_le_bytes(blob.as_slice()[..8].try_into().unwrap()),
                10 + i
            );
        }
    }

    #[test]
    fn one_invocation_per_hop() {
        let rt = Runtime::builder().build();
        let head = linked_list(&rt, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let get = register_get(&rt);
        let before = rt.procedures_run();
        let thunk = start(&rt, get, &6u64.to_le_bytes(), &[head]).unwrap();
        rt.eval(thunk).unwrap();
        // i+1 stepper invocations: hops 6..0.
        assert_eq!(rt.procedures_run() - before, 7);
    }

    #[test]
    fn multi_request_steps_resume_with_all_results() {
        // Sum every value in the list: each step strictly requests the
        // value blob and shallowly requests the next node.
        let rt = Runtime::builder().build();
        let head = linked_list(&rt, &[5, 6, 7, 8]);
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let sum = register_stepper(
            &rt,
            "list/sum",
            Arc::new(move |ctx| {
                c.fetch_add(1, Ordering::SeqCst);
                let acc = u64::from_le_bytes(ctx.state[..8].try_into().expect("state"));
                if ctx.args.len() == 2 {
                    // Resumed with [value, next-node-ref].
                    let v = ctx.host.load_blob(ctx.args[0])?;
                    let v = u64::from_le_bytes(v.as_slice()[..8].try_into().expect("u64"));
                    let node = ctx.args[1];
                    let value_sel = ctx.select(node, 0)?;
                    let node_tree_len = ctx.args[1].size();
                    let out = StepOutcome::suspend((acc + v).to_le_bytes().to_vec())
                        .request(value_sel, EncodeStyle::Strict);
                    return Ok(if node_tree_len == 2 {
                        out.request(ctx.select(node, 1)?, EncodeStyle::Shallow)
                    } else {
                        out
                    });
                }
                if ctx.args.len() == 1 && ctx.state.len() == 8 && !ctx.args[0].is_thunk() {
                    match ctx.args[0].kind() {
                        fix_core::handle::Kind::Object(fix_core::handle::DataType::Blob)
                        | fix_core::handle::Kind::Ref(fix_core::handle::DataType::Blob) => {
                            // Last value arrived alone (tail of list).
                            let v = ctx.host.load_blob(ctx.args[0])?;
                            let v = u64::from_le_bytes(v.as_slice()[..8].try_into().expect("u64"));
                            return Ok(StepOutcome::Done(Blob::from_u64(acc + v).handle()));
                        }
                        _ => {}
                    }
                }
                // First step: args[0] is the head node.
                let node = ctx.args[0];
                let value_sel = ctx.select(node, 0)?;
                let next_sel = ctx.select(node, 1)?;
                Ok(StepOutcome::suspend(acc.to_le_bytes().to_vec())
                    .request(value_sel, EncodeStyle::Strict)
                    .request(next_sel, EncodeStyle::Shallow))
            }),
        );
        let thunk = start(&rt, sum, &0u64.to_le_bytes(), &[head]).unwrap();
        let out = rt.eval(thunk).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), 5 + 6 + 7 + 8);
        assert!(counter.load(Ordering::SeqCst) >= 4);
    }

    #[test]
    fn suspension_without_requests_is_rejected() {
        let rt = Runtime::builder().build();
        let bad = register_stepper(
            &rt,
            "bad/spin",
            Arc::new(|_| Ok(StepOutcome::suspend(vec![1]))),
        );
        let thunk = start(&rt, bad, &[], &[Blob::from_u64(0).handle()]).unwrap();
        let err = rt.eval(thunk).unwrap_err();
        assert!(err.to_string().contains("without requesting"), "{err}");
    }

    #[test]
    fn footprint_per_step_is_constant() {
        // The resumption tree names only: limits, proc, state, encodes —
        // independent of list length (the paper's O(1) footprint claim
        // for continuation-passing walks).
        let rt = Runtime::builder().build();
        let get = register_get(&rt);
        let short = linked_list(&rt, &[1, 2]);
        let long = linked_list(&rt, &(0..200).collect::<Vec<u64>>());
        let fp_short = rt
            .footprint(start(&rt, get, &1u64.to_le_bytes(), &[short]).unwrap())
            .unwrap();
        let fp_long = rt
            .footprint(start(&rt, get, &199u64.to_le_bytes(), &[long]).unwrap())
            .unwrap();
        assert_eq!(fp_short.objects.len(), fp_long.objects.len());
    }
}
