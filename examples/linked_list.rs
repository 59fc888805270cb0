//! The paper's linked-list example (Listings 2 & 3), on Fix.
//!
//! A list node is a pair `[value, next]` of Refs. Getting entry `i`
//! means descending `i` nodes. The paper contrasts two styles:
//!
//! * **blocking** (Listing 2, Ray `ray.get`): the running function
//!   pulls each node's data to itself — it occupies its slice while
//!   I/O happens, and its footprint grows with every hop;
//! * **continuation-passing** (Listing 3, and Fix's native style): each
//!   hop is a fresh invocation that *names* the next node; nothing is
//!   fetched except the one value the query is actually for.
//!
//! Fix's cps module generates the continuation plumbing; this example
//! measures what each style touches.
//!
//! Run with: `cargo run --example linked_list`

use fix::prelude::*;
use fix::runtime::cps::{register_stepper, start};
use fix::runtime::StepOutcome;
use std::sync::Arc;

/// Builds the list; every value is a 4 KiB blob (so fetching one is
/// visible in the byte counts). Returns the head node.
fn build_list(rt: &Runtime, n: usize) -> Handle {
    let mut next: Option<Handle> = None;
    for i in (0..n).rev() {
        let mut value = vec![0u8; 4096];
        value[..8].copy_from_slice(&(i as u64).to_le_bytes());
        let v = rt.put_blob(Blob::from_vec(value));
        let mut slots = vec![v.as_ref_handle()];
        if let Some(nx) = next {
            slots.push(nx.as_ref_handle());
        }
        next = Some(rt.put_tree(Tree::from_handles(slots)));
    }
    next.expect("nonempty")
}

/// Listing 2, "blocking style": the caller walks the list itself,
/// loading every node and value on the way (what `ray.get` does).
fn get_blocking(rt: &Runtime, head: Handle, i: u64) -> Result<(u64, u64)> {
    let mut bytes_accessed = 0u64;
    let mut node = rt.get_tree(head)?;
    bytes_accessed += 32 * node.len() as u64;
    for _ in 0..i {
        let next = node.get(1).expect("has next").as_object_handle();
        node = rt.get_tree(next)?;
        bytes_accessed += 32 * node.len() as u64;
        // Blocking style materializes the value of every visited node
        // (a Ray Node holds its ObjectRefs' data once fetched).
        bytes_accessed += rt
            .get_blob(node.get(0).expect("value").as_object_handle())?
            .len() as u64;
    }
    let value = rt.get_blob(node.get(0).expect("value").as_object_handle())?;
    bytes_accessed += value.len() as u64;
    let v = u64::from_le_bytes(value.as_slice()[..8].try_into().expect("u64"));
    Ok((v, bytes_accessed))
}

fn main() -> Result<()> {
    let rt = Runtime::builder().build();
    let n = 256;
    let head = build_list(&rt, n);
    println!("list of {n} nodes, 4 KiB per value\n");

    // Listing 3 on Fix: one invocation per hop, nothing fetched but the
    // final value.
    let get = register_stepper(
        &rt,
        "list/get",
        Arc::new(|ctx| {
            let i = u64::from_le_bytes(ctx.state[..8].try_into().expect("state"));
            let node = ctx.args[0];
            if i == 0 {
                return Ok(StepOutcome::Done(ctx.select(node, 0)?));
            }
            let next = ctx.select(node, 1)?;
            Ok(StepOutcome::suspend((i - 1).to_le_bytes().to_vec())
                .request(next, EncodeStyle::Shallow))
        }),
    );

    println!(
        "{:>6} {:>22} {:>24} {:>20}",
        "i", "cps (invocations)", "cps bytes fetched", "blocking bytes"
    );
    for i in [0u64, 15, 63, 255] {
        let before = rt.procedures_run();
        let thunk = start(&rt, get, &i.to_le_bytes(), &[head])?;
        let out = rt.eval(thunk)?;
        let value = rt.get_blob(out)?;
        let got = u64::from_le_bytes(value.as_slice()[..8].try_into().expect("u64"));
        assert_eq!(got, i);
        let invocations = rt.procedures_run() - before;

        let (got_b, blocking_bytes) = get_blocking(&rt, head, i)?;
        assert_eq!(got_b, i);
        // CPS touches: the final value, plus each hop's node entry list
        // (32 B/handle, read by the runtime to perform the selection).
        let cps_bytes = value.len() as u64 + invocations * 64;
        println!("{i:>6} {invocations:>22} {cps_bytes:>22} B {blocking_bytes:>18} B");
    }

    println!(
        "\nthe continuation-passing walk names nodes without fetching them\n\
         (Shallow encodes); the blocking walk pulls every node's value to\n\
         the caller — {}x the data at the tail of the list.",
        (256 * 4096 + 256 * 64) / (4096 + 256 * 64)
    );
    Ok(())
}
