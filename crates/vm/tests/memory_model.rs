//! The guest-visible contract of FixVM linear memory and fuel, pinned at
//! the VM level.
//!
//! Memory is zero-fill-on-first-write (see `fix_vm::vm`): nothing is
//! allocated until a guest stores. These tests fix everything a guest —
//! or a bill — can observe about that: sizes, zero reads, bounds, the
//! exact trap texts, and the exact fuel the shared guests burn.

use fix_core::data::{literal_blob, Blob, Tree};
use fix_core::error::Error;
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use fix_vm::testing::TestHost;
use fix_vm::{assemble, run, VmConfig};

const ADD_FVM: &str = include_str!("../../../tests/guests/add.fvm");
const FIB_FVM: &str = include_str!("../../../tests/guests/fib.fvm");
/// The benchmark's dispatch-cost guest (`vm.ns_per_instr` divides wall
/// time by its `fuel_used`).
const LOOP_FVM: &str = include_str!("../../../fixbench/guests/loop.fvm");

fn with_memory(memory_limit: u64) -> VmConfig {
    VmConfig {
        memory_limit,
        ..VmConfig::default()
    }
}

/// Runs `body` as the entry function over an empty input tree; the guest
/// returns its answer as a `blob.create_u64` literal.
fn eval_u64(body: &str, config: VmConfig) -> u64 {
    let mut host = TestHost::default();
    let input = host.insert_tree(Tree::from_handles(vec![]));
    let src = format!("func apply args=0 locals=2\n{body}\n blob.create_u64\n ret_handle\nend");
    let out = run(&assemble(&src).unwrap(), &mut host, input, config).unwrap();
    literal_blob(out.result).unwrap().as_u64().unwrap()
}

fn eval_err(body: &str, config: VmConfig) -> Error {
    let mut host = TestHost::default();
    let data = host.insert_blob(Blob::from_vec(vec![7u8; 64]));
    let input = host.insert_tree(Tree::from_handles(vec![data]));
    let src = format!("func apply args=0 locals=2\n{body}\n const 0\n ret_handle\nend");
    run(&assemble(&src).unwrap(), &mut host, input, config).unwrap_err()
}

fn trap_text(body: &str, config: VmConfig) -> String {
    match eval_err(body, config) {
        Error::Trap(msg) => msg,
        other => panic!("expected a trap, got {other}"),
    }
}

#[test]
fn untouched_memory_reads_zero() {
    let cfg = VmConfig::default();
    for addr in [0u64, 1, 4096, 65_528] {
        assert_eq!(eval_u64(&format!("const {addr}\n mem.load64"), cfg), 0);
    }
    assert_eq!(eval_u64("const 65532\n mem.load32", cfg), 0);
    assert_eq!(eval_u64("const 65535\n mem.load8", cfg), 0);
    // A store elsewhere does not disturb the zeros around it.
    let body = "const 32768\n const 0xFFFFFFFFFFFFFFFF\n mem.store64\n const 32760\n mem.load64\n \
                const 32776\n mem.load64\n add";
    assert_eq!(eval_u64(body, cfg), 0);
    // ...and reads back itself, byte-addressed little-endian.
    let body = "const 100\n const 0x0102030405060708\n mem.store64\n const 101\n mem.load32";
    assert_eq!(eval_u64(body, cfg), 0x0405_0607);
}

#[test]
fn mem_size_is_64k_or_the_limit_before_any_store() {
    assert_eq!(eval_u64("mem.size", VmConfig::default()), 65_536);
    assert_eq!(eval_u64("mem.size", with_memory(1 << 30)), 65_536);
    assert_eq!(eval_u64("mem.size", with_memory(1000)), 1000);
    assert_eq!(eval_u64("mem.size", with_memory(0)), 0);
    // A store does not change what the guest is told.
    let body = "const 0\n const 1\n mem.store8\n mem.size";
    assert_eq!(eval_u64(body, VmConfig::default()), 65_536);
    assert_eq!(eval_u64(body, with_memory(1000)), 1000);
    // The smaller memory is really that small.
    assert_eq!(eval_u64("const 992\n mem.load64", with_memory(1000)), 0);
    assert_eq!(
        trap_text("const 993\n mem.load64\n drop", with_memory(1000)),
        "memory access [993, 1001) out of bounds (size 1000)"
    );
}

#[test]
fn grow_then_store_at_the_new_tail() {
    // grow returns the old size; the new tail is addressable, zero, and
    // writable; the byte past it is not.
    let body = "const 4096\n mem.grow\n local.set 0\n \
                const 69624\n mem.load64\n local.set 1\n \
                const 69624\n const 0xABCD\n mem.store64\n \
                const 69624\n mem.load64\n local.get 0\n add\n local.get 1\n add";
    assert_eq!(eval_u64(body, VmConfig::default()), 0xABCD + 65_536);
    assert_eq!(
        eval_u64(
            "const 4096\n mem.grow\n drop\n mem.size",
            VmConfig::default()
        ),
        69_632
    );
    assert_eq!(
        trap_text(
            "const 4096\n mem.grow\n drop\n const 69625\n const 1\n mem.store64",
            VmConfig::default()
        ),
        "memory access [69625, 69633) out of bounds (size 69632)"
    );
    // Growing a never-touched memory and storing only at the far end.
    let body = "const 1048576\n mem.grow\n drop\n const 1114111\n const 9\n mem.store8\n \
                const 1114111\n mem.load8\n const 0\n mem.load8\n add";
    assert_eq!(eval_u64(body, VmConfig::default()), 9);
}

#[test]
fn out_of_bounds_trap_texts_are_unchanged() {
    let cfg = VmConfig::default();
    assert_eq!(
        trap_text("const 0xFFFFFFFF\n mem.load64\n drop", cfg),
        "memory access [4294967295, 4294967303) out of bounds (size 65536)"
    );
    assert_eq!(
        trap_text("const 65536\n mem.load8\n drop", cfg),
        "memory access [65536, 65537) out of bounds (size 65536)"
    );
    assert_eq!(
        trap_text("const 65533\n mem.load32\n drop", cfg),
        "memory access [65533, 65537) out of bounds (size 65536)"
    );
    assert_eq!(
        trap_text("const 65536\n const 1\n mem.store8", cfg),
        "memory access [65536, 65537) out of bounds (size 65536)"
    );
    assert_eq!(
        trap_text("const 65534\n const 1\n mem.store32", cfg),
        "memory access [65534, 65538) out of bounds (size 65536)"
    );
    assert_eq!(
        trap_text("const 65529\n const 1\n mem.store64", cfg),
        "memory access [65529, 65537) out of bounds (size 65536)"
    );
    assert_eq!(
        trap_text("const 0xFFFFFFFFFFFFFFFF\n mem.load64\n drop", cfg),
        "address overflow"
    );
    assert_eq!(
        trap_text("const 0xFFFFFFFFFFFFFFFF\n const 1\n mem.store8", cfg),
        "address overflow"
    );
    // Host calls that touch memory: blob.read (idx, blob_off, mem_off, len)
    // and blob.create (mem_off, len). Input tree entry 0 is a 64-byte blob.
    let blob = "const 0\n const 0\n tree.get\n local.set 0\n local.get 0";
    assert_eq!(
        trap_text(
            &format!("{blob}\n const 0\n const 65500\n const 64\n blob.read"),
            cfg
        ),
        "memory access [65500, 65564) out of bounds (size 65536)"
    );
    assert_eq!(
        trap_text(
            &format!("{blob}\n const 8\n const 0\n const 64\n blob.read"),
            cfg
        ),
        "blob read [8, 72) out of bounds (len 64)"
    );
    assert_eq!(
        trap_text("const 65530\n const 8\n blob.create\n drop", cfg),
        "memory access [65530, 65538) out of bounds (size 65536)"
    );
    assert_eq!(
        trap_text(
            "const 0xFFFFFFFFFFFFFFF0\n const 64\n blob.create\n drop",
            cfg
        ),
        "address overflow"
    );
    // Growth: past the limit is a typed error carrying both numbers, and
    // an overflowing request is a trap; neither allocates.
    let err = eval_err("const 1048576\n mem.grow\n drop", with_memory(128 * 1024));
    assert!(
        matches!(
            err,
            Error::MemoryLimit {
                limit: 131_072,
                requested: 1_114_112
            }
        ),
        "{err}"
    );
    assert_eq!(
        trap_text(
            "const 0xFFFFFFFFFFFFFFFF\n mem.grow\n drop",
            with_memory(u64::MAX)
        ),
        "grow overflow"
    );
    // Growth is paid for in fuel before anything is committed.
    let err = eval_err(
        "const 1048576\n mem.grow\n drop",
        VmConfig {
            fuel: 1000,
            ..VmConfig::default()
        },
    );
    assert!(matches!(err, Error::OutOfFuel { limit: 1000 }), "{err}");
}

#[test]
fn blob_create_of_untouched_memory_is_zeros() {
    let mut host = TestHost::default();
    let input = host.insert_tree(Tree::from_handles(vec![]));
    let src = "func apply args=0 locals=0\n const 1000\n const 100\n blob.create\n ret_handle\nend";
    let out = run(
        &assemble(src).unwrap(),
        &mut host,
        input,
        VmConfig::default(),
    )
    .unwrap();
    assert_eq!(out.result, Blob::from_vec(vec![0u8; 100]).handle());
    // A zero-length blob at the very end of memory is in bounds.
    let src = "func apply args=0 locals=0\n const 65536\n const 0\n blob.create\n ret_handle\nend";
    let out = run(
        &assemble(src).unwrap(),
        &mut host,
        input,
        VmConfig::default(),
    )
    .unwrap();
    assert_eq!(out.result, Blob::from_vec(vec![]).handle());
}

/// `[limits, proc, args...]` as the runtime would hand it to a guest.
fn invocation(host: &mut TestHost, args: &[Handle]) -> Handle {
    let proc = host.insert_blob(Blob::from_vec(vec![0u8; 40]));
    let mut entries = vec![ResourceLimits::default_limits().handle(), proc];
    entries.extend_from_slice(args);
    host.insert_tree(Tree::from_handles(entries))
}

/// Fuel is what gets billed: a cheaper interpreter must not change it.
#[test]
fn fuel_of_the_shared_guests_is_pinned() {
    let fuel = |src: &str, args: &[u64]| {
        let mut host = TestHost::default();
        let args: Vec<Handle> = args
            .iter()
            .map(|&v| host.insert_blob(Blob::from_u64(v)))
            .collect();
        let input = invocation(&mut host, &args);
        run(
            &assemble(src).unwrap(),
            &mut host,
            input,
            VmConfig::default(),
        )
        .unwrap()
        .fuel_used
    };
    assert_eq!(fuel(ADD_FVM, &[30, 12]), 13);
    // fib's arguments are [add, n]; the add slot is only passed along.
    assert_eq!(fuel(FIB_FVM, &[0, 1]), 25, "base case");
    assert_eq!(fuel(FIB_FVM, &[0, 12]), 73, "recursive case");
    assert_eq!(fuel(LOOP_FVM, &[]), 160_007);
}
