//! Smoke tests of the front-page API beside the `src/lib.rs` doctest
//! (which `cargo test` runs as the quickstart round trip): a blob
//! round-trips through the store, and a second `eval` of one thunk is a
//! relation-cache hit.

use fix::prelude::*;
use std::sync::Arc;

#[test]
fn blob_round_trips_through_the_store() {
    let rt = Runtime::builder().build();
    let payload: Vec<u8> = (0u8..=255).collect();
    let h = rt.put_blob(Blob::from_vec(payload.clone()));
    assert_eq!(rt.get_blob(h).unwrap().as_slice(), payload.as_slice());
    // Content addressing: the same bytes name the same handle.
    assert_eq!(rt.put_blob(Blob::from_vec(payload)), h);
}

#[test]
fn eval_is_memoized_across_calls() {
    let rt = Runtime::builder().build();
    let inc = rt.register_native(
        "inc",
        Arc::new(|ctx| {
            let x = ctx.arg_blob(0)?.as_u64().unwrap();
            ctx.host.create_blob((x + 1).to_le_bytes().to_vec())
        }),
    );
    let thunk = rt
        .apply(
            ResourceLimits::default_limits(),
            inc,
            &[rt.put_blob(Blob::from_u64(1))],
        )
        .unwrap();
    let first = rt.eval(thunk).unwrap();
    let runs_after_first = rt.procedures_run();
    let second = rt.eval(thunk).unwrap();
    let runs_after_second = rt.procedures_run();
    assert_eq!(first, second, "determinism: same thunk, same handle");
    assert_eq!(
        runs_after_first, runs_after_second,
        "second eval must be a pure relation-cache hit"
    );
}
