//! `fix-vm`: a deterministic, sandboxed bytecode VM for Fix guest
//! procedures.
//!
//! The paper compiles guests to WebAssembly and then, via a trusted
//! toolchain (wasm2c + libclang + liblld), to native x86-64 codelets that
//! run inside Fixpoint's address space (paper §4.1). This crate plays the
//! same architectural role with a from-scratch substrate:
//!
//! * guest code is a content-addressed Blob (the [`module::Module`]
//!   format), black-box from the runtime's perspective;
//! * execution is memory-safe, deterministic, and resource-bounded
//!   (fuel + memory limits from the invocation's `ResourceLimits`);
//! * an invocation costs what the guest does: linear memory is
//!   zero-fill-on-first-write and the interpreter's own state is reused
//!   per thread (see [`vm`] for the memory model), so fine-grained
//!   codelets that never touch memory pay for none;
//! * the only world interface is the Fixpoint host API (paper Listing 1):
//!   attach/create blobs and trees, build Thunks and Encodes, query
//!   handle metadata — there are no clocks, no randomness, no sockets;
//! * handles are opaque table entries (like Wasm `externref`), so the
//!   capability set of a guest is exactly what it was given plus what it
//!   created.
//!
//! See [`asm::assemble`] for the guest assembly dialect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod isa;
pub mod module;
pub mod vm;

pub use asm::assemble;
pub use module::{Function, Module, MAGIC};
pub use vm::{run, testing, HostApi, Outcome, VmConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::data::{Blob, Tree};
    use fix_core::error::Error;
    use fix_core::handle::{EncodeStyle, Kind, ThunkKind};
    use vm::testing::TestHost;

    fn exec(source: &str, host: &mut TestHost, input: fix_core::handle::Handle) -> Outcome {
        let module = assemble(source).unwrap();
        run(&module, host, input, VmConfig::default()).unwrap()
    }

    fn exec_err(
        source: &str,
        host: &mut TestHost,
        input: fix_core::handle::Handle,
        config: VmConfig,
    ) -> Error {
        let module = assemble(source).unwrap();
        run(&module, host, input, config).unwrap_err()
    }

    fn empty_input(host: &mut TestHost) -> fix_core::handle::Handle {
        host.insert_tree(Tree::from_handles(vec![]))
    }

    #[test]
    fn add_two_u64_blobs() {
        // The canonical trivial function from the paper's Fig. 7a: read two
        // numbers from the input tree, add them, return a new blob.
        let mut host = TestHost::default();
        let a = host.insert_blob(Blob::from_u64(30));
        let b = host.insert_blob(Blob::from_u64(12));
        let input = host.insert_tree(Tree::from_handles(vec![a, b]));
        let out = exec(
            r#"
            func apply args=0 locals=0
              const 0       ; input tree
              const 0
              tree.get      ; arg a
              const 0
              blob.read_u64
              const 0
              const 1
              tree.get      ; arg b
              const 0
              blob.read_u64
              add
              blob.create_u64
              ret_handle
            end
            "#,
            &mut host,
            input,
        );
        let blob = fix_core::data::literal_blob(out.result).unwrap();
        assert_eq!(blob.as_u64(), Some(42));
    }

    #[test]
    fn countdown_loop_and_locals() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let out = exec(
            r#"
            func apply args=0 locals=2
              const 1000
              local.set 0
            loop:
              local.get 0
              eqz
              jump_if done
              local.get 1
              const 2
              add
              local.set 1
              local.get 0
              const 1
              sub
              local.set 0
              jump loop
            done:
              local.get 1
              blob.create_u64
              ret_handle
            end
            "#,
            &mut host,
            input,
        );
        let blob = fix_core::data::literal_blob(out.result).unwrap();
        assert_eq!(blob.as_u64(), Some(2000));
        assert!(out.fuel_used > 8000, "loop must consume fuel");
    }

    #[test]
    fn function_calls_compute_in_guest() {
        // Recursion fully inside the VM (not Fix-level recursion).
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let out = exec(
            r#"
            func apply args=0 locals=0
              const 10
              call fib
              blob.create_u64
              ret_handle
            end
            func fib args=1 locals=1
              local.get 0
              const 2
              lt_u
              jump_if base
              local.get 0
              const 1
              sub
              call fib
              local.get 0
              const 2
              sub
              call fib
              add
              return
            base:
              local.get 0
              return
            end
            "#,
            &mut host,
            input,
        );
        let blob = fix_core::data::literal_blob(out.result).unwrap();
        assert_eq!(blob.as_u64(), Some(55));
    }

    #[test]
    fn memory_round_trip_and_blob_creation() {
        let mut host = TestHost::default();
        let data = host.insert_blob(Blob::from_vec((0u8..64).collect()));
        let input = host.insert_tree(Tree::from_handles(vec![data]));
        // Copy the blob into memory, then re-create it and return it.
        let out = exec(
            r#"
            func apply args=0 locals=1
              const 0
              const 0
              tree.get
              local.set 0
              local.get 0   ; handle
              const 0       ; blob offset
              const 128     ; memory offset
              const 64      ; length
              blob.read
              const 128
              const 64
              blob.create
              ret_handle
            end
            "#,
            &mut host,
            input,
        );
        assert_eq!(
            out.result,
            Blob::from_vec((0u8..64).collect()).handle(),
            "re-created blob must be content-identical"
        );
        assert_eq!(host.created.len(), 1);
    }

    #[test]
    fn thunk_and_encode_construction() {
        let mut host = TestHost::default();
        let limits = fix_core::limits::ResourceLimits::default_limits();
        let code = host.insert_blob(Blob::from_vec(vec![0u8; 40]));
        let input = host.insert_tree(Tree::from_handles(vec![limits.handle(), code]));
        // Build: strict(application(input-tree)) and return it.
        let out = exec(
            r#"
            func apply args=0 locals=0
              const 0
              application
              strict
              ret_handle
            end
            "#,
            &mut host,
            input,
        );
        assert_eq!(
            out.result.kind(),
            Kind::Encode(EncodeStyle::Strict, ThunkKind::Application)
        );
        assert_eq!(
            out.result
                .encoded_thunk()
                .unwrap()
                .thunk_definition()
                .unwrap(),
            input
        );
    }

    #[test]
    fn selection_creates_definition_tree() {
        let mut host = TestHost::default();
        let a = host.insert_blob(Blob::from_vec(vec![1u8; 40]));
        let input = host.insert_tree(Tree::from_handles(vec![a]));
        let out = exec(
            r#"
            func apply args=0 locals=0
              const 0
              const 0
              selection.idx
              shallow
              ret_handle
            end
            "#,
            &mut host,
            input,
        );
        assert_eq!(
            out.result.kind(),
            Kind::Encode(EncodeStyle::Shallow, ThunkKind::Selection)
        );
        // The guest's selection stored a definition tree [target, 0].
        assert_eq!(host.created.len(), 1);
        let def = out
            .result
            .encoded_thunk()
            .unwrap()
            .thunk_definition()
            .unwrap();
        use vm::HostApi;
        let tree = host.load_tree(def).unwrap();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.get(0), Some(input));
    }

    #[test]
    fn refs_expose_metadata_but_not_data() {
        let mut host = TestHost::default();
        let secret = host.insert_blob(Blob::from_vec(vec![7u8; 1000]));
        let input = host.insert_tree(Tree::from_handles(vec![secret.as_ref_handle()]));
        // size_of on a Ref works:
        let out = exec(
            r#"
            func apply args=0 locals=0
              const 0
              const 0
              tree.get
              size_of
              blob.create_u64
              ret_handle
            end
            "#,
            &mut host,
            input,
        );
        assert_eq!(
            fix_core::data::literal_blob(out.result).unwrap().as_u64(),
            Some(1000)
        );
        // ...but reading its data traps.
        let err = exec_err(
            r#"
            func apply args=0 locals=0
              const 0
              const 0
              tree.get
              const 0
              blob.read_u64
              drop
              const 0
              ret_handle
            end
            "#,
            &mut host,
            input,
            VmConfig::default(),
        );
        assert!(matches!(err, Error::Inaccessible(_)), "{err}");
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let config = VmConfig {
            fuel: 100,
            ..VmConfig::default()
        };
        let err = exec_err(
            r#"
            func apply args=0 locals=0
            loop:
              jump loop
            end
            "#,
            &mut host,
            input,
            config,
        );
        assert!(matches!(err, Error::OutOfFuel { limit: 100 }), "{err}");
    }

    #[test]
    fn memory_limit_enforced() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let config = VmConfig {
            memory_limit: 128 * 1024,
            ..VmConfig::default()
        };
        let err = exec_err(
            r#"
            func apply args=0 locals=0
              const 1048576
              mem.grow
              drop
              const 0
              ret_handle
            end
            "#,
            &mut host,
            input,
            config,
        );
        assert!(matches!(err, Error::MemoryLimit { .. }), "{err}");
    }

    #[test]
    fn memory_grow_works_within_limit() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let out = exec(
            r#"
            func apply args=0 locals=0
              const 65536
              mem.grow
              drop
              mem.size
              blob.create_u64
              ret_handle
            end
            "#,
            &mut host,
            input,
        );
        assert_eq!(
            fix_core::data::literal_blob(out.result).unwrap().as_u64(),
            Some(131072)
        );
    }

    #[test]
    fn out_of_bounds_memory_traps() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let err = exec_err(
            "func apply args=0 locals=0\n const 0xFFFFFFFF\n mem.load64\n drop\n const 0\n ret_handle\nend",
            &mut host,
            input,
            VmConfig::default(),
        );
        assert!(matches!(err, Error::Trap(_)), "{err}");
    }

    #[test]
    fn stack_discipline_across_calls() {
        // A callee cannot pop values belonging to its caller.
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let err = exec_err(
            r#"
            func apply args=0 locals=0
              const 99
              call thief
              drop
              drop
              const 0
              ret_handle
            end
            func thief args=0 locals=0
              drop        ; tries to pop the caller's 99
              const 0
              return
            end
            "#,
            &mut host,
            input,
            VmConfig::default(),
        );
        assert!(err.to_string().contains("underflow"), "{err}");
    }

    #[test]
    fn division_by_zero_traps() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let err = exec_err(
            "func apply args=0 locals=0\n const 1\n const 0\n div_u\n drop\n const 0\n ret_handle\nend",
            &mut host,
            input,
            VmConfig::default(),
        );
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn tree_get_out_of_bounds() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        // The index is guest-controlled: u64::MAX must be an error like
        // any other, not an overflow while building that error.
        for (index, end) in [("5", 6), ("0xFFFFFFFFFFFFFFFF", u64::MAX)] {
            let err = exec_err(
                &format!(
                    "func apply args=0 locals=0\n const 0\n const {index}\n tree.get\n ret_handle\nend"
                ),
                &mut host,
                input,
                VmConfig::default(),
            );
            assert!(
                matches!(err, Error::BadSelection { end: e, len: 0, .. } if e == end),
                "{err}"
            );
        }
    }

    #[test]
    fn entry_without_ret_handle_traps() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let err = exec_err(
            "func apply args=0 locals=0\n const 1\n drop\nend",
            &mut host,
            input,
            VmConfig::default(),
        );
        assert!(err.to_string().contains("ret_handle"), "{err}");
    }

    #[test]
    fn call_depth_limit() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let err = exec_err(
            r#"
            func apply args=0 locals=0
              call rec
              drop
              const 0
              ret_handle
            end
            func rec args=0 locals=0
              call rec
              return
            end
            "#,
            &mut host,
            input,
            VmConfig::default(),
        );
        assert!(err.to_string().contains("call depth"), "{err}");
    }

    /// Regression: locals were unmetered, so 512 frames × 65 535 locals
    /// × 8 B let 512 fuel allocate 268 MB under a 64 KiB memory limit,
    /// trapping on call depth only afterwards.
    #[test]
    fn live_locals_are_bounded_by_the_stack_limit() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let greedy = r#"
            func apply args=0 locals=0
              call rec
              drop
              const 0
              ret_handle
            end
            func rec args=0 locals=65535
              call rec
              return
            end
        "#;
        let config = VmConfig {
            memory_limit: 64 * 1024,
            ..VmConfig::default()
        };
        let err = exec_err(greedy, &mut host, input, config);
        assert_eq!(err, Error::Trap("locals overflow".into()));
        // The entry frame is metered like any other.
        let config = VmConfig {
            stack_limit: 3,
            ..VmConfig::default()
        };
        let entry = "func apply args=0 locals=4\n const 0\n ret_handle\nend";
        let err = exec_err(entry, &mut host, input, config);
        assert_eq!(err, Error::Trap("locals overflow".into()));
    }

    /// The interpreter parks its stack, locals, frames and handle table
    /// per thread between runs; nothing of one run may reach the next,
    /// whether it returned or trapped.
    #[test]
    fn runs_on_one_thread_share_no_state() {
        let mut host = TestHost::default();
        let input = empty_input(&mut host);
        let dirty = r#"
            func apply args=0 locals=2
              const 7
              local.set 1
              const 11
              const 12
              const 13
              blob.create_u64
              call leaves_a_frame
            end
            func leaves_a_frame args=1 locals=3
              const 5
              local.set 2
              const 0
              ret_handle
            end
        "#;
        let trapping =
            "func apply args=0 locals=2\n const 9\n local.set 0\n const 1\n unreachable\nend";
        for (leave_behind, returns) in [(dirty, true), (trapping, false)] {
            let module = assemble(leave_behind).unwrap();
            let outcome = run(&module, &mut host, input, VmConfig::default());
            assert_eq!(outcome.is_ok(), returns, "{outcome:?}");
            // Locals start zeroed.
            let out = exec(
                "func apply args=0 locals=2\n local.get 0\n local.get 1\n add\n blob.create_u64\n ret_handle\nend",
                &mut host,
                input,
            );
            let sum = fix_core::data::literal_blob(out.result).unwrap().as_u64();
            assert_eq!(sum, Some(0));
            // The handle table holds the input and nothing else.
            let err = exec_err(
                "func apply args=0 locals=0\n const 1\n size_of\n drop\n const 0\n ret_handle\nend",
                &mut host,
                input,
                VmConfig::default(),
            );
            assert_eq!(err, Error::Trap("handle index 1 out of bounds".into()));
            // The operand stack is empty.
            let err = exec_err(
                "func apply args=0 locals=0\n drop\n const 0\n ret_handle\nend",
                &mut host,
                input,
                VmConfig::default(),
            );
            assert_eq!(err, Error::Trap("operand stack underflow".into()));
        }
    }

    #[test]
    fn determinism_same_input_same_result() {
        let mut host = TestHost::default();
        let a = host.insert_blob(Blob::from_u64(5));
        let input = host.insert_tree(Tree::from_handles(vec![a]));
        let src = r#"
            func apply args=0 locals=0
              const 0
              const 0
              tree.get
              const 0
              blob.read_u64
              const 3
              mul
              blob.create_u64
              ret_handle
            end
        "#;
        let module = assemble(src).unwrap();
        let r1 = run(&module, &mut host, input, VmConfig::default()).unwrap();
        let r2 = run(&module, &mut host, input, VmConfig::default()).unwrap();
        assert_eq!(r1.result, r2.result);
        assert_eq!(r1.fuel_used, r2.fuel_used);
    }
}

#[cfg(test)]
#[path = "../../../tests/support/gen.rs"]
mod gen;

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::gen::check;
    use fix_core::data::{Blob, Tree};
    use vm::testing::TestHost;

    /// Assembling then serializing then reparsing is the identity.
    #[test]
    fn module_bytes_round_trip() {
        check("module_bytes_round_trip", 64, |rng| {
            let n = rng.range(1u64..2000);
            let src = format!(
                "func apply args=0 locals=1\n const {n}\n local.set 0\n const 0\n ret_handle\nend"
            );
            let m = assemble(&src).unwrap();
            let rt = Module::from_bytes(&m.to_bytes()).unwrap();
            assert_eq!(rt, m);
        });
    }

    /// The guest add function agrees with native addition (wrapping).
    #[test]
    fn guest_add_matches_native() {
        check("guest_add_matches_native", 64, |rng| {
            let (a, b) = (rng.next(), rng.next());
            let mut host = TestHost::default();
            let ha = host.insert_blob(Blob::from_u64(a));
            let hb = host.insert_blob(Blob::from_u64(b));
            let input = host.insert_tree(Tree::from_handles(vec![ha, hb]));
            let module = assemble(
                r#"
                func apply args=0 locals=0
                  const 0
                  const 0
                  tree.get
                  const 0
                  blob.read_u64
                  const 0
                  const 1
                  tree.get
                  const 0
                  blob.read_u64
                  add
                  blob.create_u64
                  ret_handle
                end
            "#,
            )
            .unwrap();
            let out = run(&module, &mut host, input, VmConfig::default()).unwrap();
            let blob = fix_core::data::literal_blob(out.result).unwrap();
            assert_eq!(blob.as_u64(), Some(a.wrapping_add(b)));
        });
    }

    /// Fuel accounting is monotone in loop iterations.
    #[test]
    fn fuel_scales_with_work() {
        check("fuel_scales_with_work", 64, |rng| {
            let n = rng.range(1u64..500);
            let mut host = TestHost::default();
            let input = host.insert_tree(Tree::from_handles(vec![]));
            let src = format!(
                r#"
                func apply args=0 locals=1
                  const {n}
                  local.set 0
                loop:
                  local.get 0
                  eqz
                  jump_if done
                  local.get 0
                  const 1
                  sub
                  local.set 0
                  jump loop
                done:
                  const 0
                  ret_handle
                end
            "#
            );
            let module = assemble(&src).unwrap();
            let out = run(&module, &mut host, input, VmConfig::default()).unwrap();
            // 2 setup + 8 per iteration + 5 exit epilogue.
            assert!(out.fuel_used >= 8 * n);
            assert!(out.fuel_used <= 8 * n + 8);
        });
    }
}
