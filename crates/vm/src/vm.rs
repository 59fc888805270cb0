//! The FixVM interpreter.
//!
//! Runs one guest procedure to completion (paper §3, goal 3: "a function
//! will always run to completion without blocking"). Every interaction
//! with Fix data goes through a [`HostApi`] implemented by the runtime;
//! the interpreter enforces:
//!
//! * **capability discipline** — the guest names handles only by table
//!   index, and the table starts with just the input tree;
//! * **accessibility** — data behind Refs cannot be read (only type and
//!   size are visible);
//! * **resource limits** — fuel (instruction budget) and memory, from the
//!   invocation's [`ResourceLimits`]; plus static stack and call-depth
//!   caps (the live locals of all frames count against the stack cap).
//!
//! # Linear memory
//!
//! A guest starts with `min(64 KiB, memory_bytes)` of byte-addressed
//! memory (`mem.size`), all zero, and may extend it with `mem.grow` up to
//! `memory_bytes`, paying one fuel per 64 bytes. Every access is checked
//! against that size. The memory is *zero-fill-on-first-write*: the
//! interpreter keeps only the written prefix — up to the highest byte a
//! store, `blob.read` or `blob.create` has touched — and loads beyond it
//! read zero, so a guest that never touches memory (the common case for
//! codelets that only rearrange handles) allocates and clears none, and
//! `mem.grow` itself commits nothing. None of this is observable to the
//! guest or the bill: sizes, bounds, trap texts and fuel are those of an
//! eagerly zeroed memory (`crates/vm/tests/memory_model.rs` pins them).
//!
//! # Cost of an invocation
//!
//! [`run`] is meant to cost what the guest does. Besides the lazy memory,
//! the operand stack, locals, frames and handle table are parked per
//! thread between runs (capacity-capped), so a run-to-completion codelet
//! on a warm worker allocates only for the data it creates.

use crate::isa::{kind_code, Instr};
use crate::module::Module;
use fix_core::data::{Blob, Tree};
use fix_core::error::{Error, Result};
use fix_core::handle::{DataType, Handle, Kind};
use fix_core::limits::ResourceLimits;
use std::cell::Cell;

// The host interface lives in `fix_core::api` since the One Fix API
// refactor (every backend and the native-codelet registry share it);
// re-exported here because the VM is its primary consumer.
pub use fix_core::api::HostApi;

/// Execution limits for one guest run.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Instruction/fuel budget.
    pub fuel: u64,
    /// Linear memory cap in bytes.
    pub memory_limit: u64,
    /// Operand stack cap (values).
    pub stack_limit: usize,
    /// Call depth cap (frames).
    pub call_depth: usize,
    /// Handle table cap (entries).
    pub table_limit: usize,
}

impl VmConfig {
    /// Derives a configuration from an invocation's resource limits.
    pub fn from_limits(limits: &ResourceLimits) -> VmConfig {
        VmConfig {
            fuel: limits.fuel,
            memory_limit: limits.memory_bytes,
            stack_limit: 1 << 16,
            call_depth: 512,
            table_limit: 1 << 20,
        }
    }
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig::from_limits(&ResourceLimits::default_limits())
    }
}

/// Result of a completed guest run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The handle the guest returned from `_fix_apply`.
    pub result: Handle,
    /// Fuel consumed (for accounting and the invocation-overhead bench).
    pub fuel_used: u64,
}

/// Linear memory size a guest starts with (capped by its memory limit).
const INITIAL_MEMORY: u64 = 64 * 1024;

struct Frame {
    func: usize,
    ip: usize,
    locals_base: usize,
    stack_floor: usize,
}

/// Runs `module`'s entry function against `input` (the application tree).
///
/// # Examples
///
/// ```
/// use fix_vm::{assemble, run, VmConfig};
/// use fix_vm::testing::TestHost;
/// use fix_core::data::Tree;
///
/// let module = assemble("func apply args=0 locals=0\n const 0\n ret_handle\nend").unwrap();
/// let mut host = TestHost::default();
/// let input = Tree::from_handles(vec![]);
/// let input_handle = host.insert_tree(input);
/// let out = run(&module, &mut host, input_handle, VmConfig::default()).unwrap();
/// assert_eq!(out.result, input_handle); // The guest returned its input.
/// ```
pub fn run(
    module: &Module,
    host: &mut dyn HostApi,
    input: Handle,
    config: VmConfig,
) -> Result<Outcome> {
    let mut interp = Interp::new(module, host, input, config, SCRATCH.take());
    let outcome = interp.run();
    SCRATCH.set(interp.into_scratch());
    outcome
}

/// The interpreter's bookkeeping vectors, parked per thread between runs
/// so an invocation allocates only what it outgrows. (A run nested inside
/// a host call on the same thread simply starts from empty ones.)
#[derive(Default)]
struct Scratch {
    stack: Vec<u64>,
    locals: Vec<u64>,
    frames: Vec<Frame>,
    handles: Vec<Handle>,
}

/// Capacity (in elements) a parked vector may keep: one greedy guest
/// must not pin its high-water mark on the thread forever.
const SCRATCH_KEEP: usize = 1024;

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

struct Interp<'a> {
    module: &'a Module,
    host: &'a mut dyn HostApi,
    config: VmConfig,
    stack: Vec<u64>,
    locals: Vec<u64>,
    frames: Vec<Frame>,
    /// The guest-visible size of linear memory (`mem.size`); every bounds
    /// check is against this.
    mem_size: u64,
    /// The written prefix of linear memory: `memory.len() <= mem_size`,
    /// and every byte past it reads as zero.
    memory: Vec<u8>,
    handles: Vec<Handle>,
    builder: Vec<Handle>,
    fuel: u64,
}

fn trap(msg: impl Into<String>) -> Error {
    Error::Trap(msg.into())
}

impl<'a> Interp<'a> {
    fn new(
        module: &'a Module,
        host: &'a mut dyn HostApi,
        input: Handle,
        config: VmConfig,
        scratch: Scratch,
    ) -> Interp<'a> {
        let Scratch {
            stack,
            locals,
            mut frames,
            mut handles,
        } = scratch;
        frames.push(Frame {
            func: 0,
            ip: 0,
            locals_base: 0,
            stack_floor: 0,
        });
        handles.push(input);
        Interp {
            module,
            host,
            config,
            stack,
            locals,
            frames,
            mem_size: INITIAL_MEMORY.min(config.memory_limit),
            memory: Vec::new(),
            handles,
            builder: Vec::new(),
            fuel: config.fuel,
        }
    }

    /// Empties the bookkeeping vectors for the next run on this thread.
    fn into_scratch(self) -> Scratch {
        fn recycle<T>(mut v: Vec<T>) -> Vec<T> {
            v.clear();
            v.shrink_to(SCRATCH_KEEP);
            v
        }
        Scratch {
            stack: recycle(self.stack),
            locals: recycle(self.locals),
            frames: recycle(self.frames),
            handles: recycle(self.handles),
        }
    }

    fn burn(&mut self, amount: u64) -> Result<()> {
        if self.fuel < amount {
            self.fuel = 0;
            return Err(Error::OutOfFuel {
                limit: self.config.fuel,
            });
        }
        self.fuel -= amount;
        Ok(())
    }

    fn push(&mut self, v: u64) -> Result<()> {
        if self.stack.len() >= self.config.stack_limit {
            return Err(trap("operand stack overflow"));
        }
        self.stack.push(v);
        Ok(())
    }

    /// The innermost frame.
    #[inline(always)]
    fn frame(&self) -> &Frame {
        // invariant: `new` pushes the entry frame and `Return` never pops the last one.
        self.frames.last().expect("the entry frame is never popped")
    }

    /// The innermost frame, to move its instruction pointer.
    #[inline(always)]
    fn frame_mut(&mut self) -> &mut Frame {
        // invariant: `new` pushes the entry frame and `Return` never pops the last one.
        self.frames
            .last_mut()
            .expect("the entry frame is never popped")
    }

    fn pop(&mut self) -> Result<u64> {
        if self.stack.len() <= self.frame().stack_floor {
            return Err(trap("operand stack underflow"));
        }
        // invariant: the stack is longer than the frame's floor, checked just above.
        Ok(self.stack.pop().expect("length checked"))
    }

    /// Reserves `n` zeroed locals for a new frame and returns their base.
    /// Live locals of all frames together are capped like the operand
    /// stack, so call depth × locals cannot outgrow the guest's limits.
    fn push_locals(&mut self, n: usize) -> Result<usize> {
        let base = self.locals.len();
        if base + n > self.config.stack_limit {
            return Err(trap("locals overflow"));
        }
        self.locals.resize(base + n, 0);
        Ok(base)
    }

    fn handle_at(&self, idx: u64) -> Result<Handle> {
        self.handles
            .get(idx as usize)
            .copied()
            .ok_or_else(|| trap(format!("handle index {idx} out of bounds")))
    }

    fn push_handle(&mut self, h: Handle) -> Result<u64> {
        if self.handles.len() >= self.config.table_limit {
            return Err(trap("handle table overflow"));
        }
        self.handles.push(h);
        Ok((self.handles.len() - 1) as u64)
    }

    fn mem_range(&self, addr: u64, len: u64) -> Result<std::ops::Range<usize>> {
        let end = addr
            .checked_add(len)
            .ok_or_else(|| trap("address overflow"))?;
        if end > self.mem_size {
            return Err(trap(format!(
                "memory access [{addr}, {end}) out of bounds (size {})",
                self.mem_size
            )));
        }
        Ok(addr as usize..end as usize)
    }

    /// Reads `N` bytes at `addr`; bytes never written read as zero.
    fn load<const N: usize>(&self, addr: u64) -> Result<[u8; N]> {
        let r = self.mem_range(addr, N as u64)?;
        let mut b = [0u8; N];
        if let Some(written) = self.memory.get(r.start..) {
            let n = written.len().min(N);
            b[..n].copy_from_slice(&written[..n]);
        }
        Ok(b)
    }

    /// The bytes `[addr, addr + len)` for writing (or copying out),
    /// extending the written prefix — zero-filled — to cover them.
    fn mem_mut(&mut self, addr: u64, len: u64) -> Result<&mut [u8]> {
        let r = self.mem_range(addr, len)?;
        if r.is_empty() {
            // In bounds, but possibly past the written prefix.
            return Ok(&mut []);
        }
        if r.end > self.memory.len() {
            self.memory.resize(r.end, 0);
        }
        Ok(&mut self.memory[r])
    }

    fn accessible_blob(&self, h: Handle) -> Result<()> {
        match h.kind() {
            Kind::Object(DataType::Blob) => Ok(()),
            Kind::Ref(DataType::Blob) => Err(Error::Inaccessible(h)),
            _ => Err(Error::TypeMismatch {
                handle: h,
                expected: "accessible blob",
            }),
        }
    }

    fn accessible_tree(&self, h: Handle) -> Result<()> {
        match h.kind() {
            Kind::Object(DataType::Tree) => Ok(()),
            Kind::Ref(DataType::Tree) => Err(Error::Inaccessible(h)),
            _ => Err(Error::TypeMismatch {
                handle: h,
                expected: "accessible tree",
            }),
        }
    }

    fn run(&mut self) -> Result<Outcome> {
        self.push_locals(self.module.functions[0].nlocals as usize)?;
        loop {
            let frame = self.frame();
            let func = &self.module.functions[frame.func];
            let Some(&instr) = func.code.get(frame.ip) else {
                // Fell off the end of the function body.
                if self.frames.len() == 1 {
                    return Err(trap("entry function ended without ret_handle"));
                }
                return Err(trap("function ended without return"));
            };
            self.burn(1)?;
            // Advance the ip before executing; jumps overwrite it.
            self.frame_mut().ip += 1;

            use Instr::*;
            match instr {
                Nop => {}
                Unreachable => return Err(trap("unreachable executed")),
                Const(v) => self.push(v)?,
                LocalGet(i) => {
                    let base = self.frame().locals_base;
                    let v = self.locals[base + i as usize];
                    self.push(v)?;
                }
                LocalSet(i) => {
                    let v = self.pop()?;
                    let base = self.frame().locals_base;
                    self.locals[base + i as usize] = v;
                }
                Drop => {
                    self.pop()?;
                }
                Dup => {
                    let v = self.pop()?;
                    self.push(v)?;
                    self.push(v)?;
                }
                Swap => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(b)?;
                    self.push(a)?;
                }

                Add => self.binop(|a, b| Ok(a.wrapping_add(b)))?,
                Sub => self.binop(|a, b| Ok(a.wrapping_sub(b)))?,
                Mul => self.binop(|a, b| Ok(a.wrapping_mul(b)))?,
                DivU => {
                    self.binop(|a, b| a.checked_div(b).ok_or_else(|| trap("division by zero")))?
                }
                RemU => {
                    self.binop(|a, b| a.checked_rem(b).ok_or_else(|| trap("remainder by zero")))?
                }
                And => self.binop(|a, b| Ok(a & b))?,
                Or => self.binop(|a, b| Ok(a | b))?,
                Xor => self.binop(|a, b| Ok(a ^ b))?,
                Shl => self.binop(|a, b| Ok(a.wrapping_shl(b as u32)))?,
                ShrU => self.binop(|a, b| Ok(a.wrapping_shr(b as u32)))?,
                Eq => self.binop(|a, b| Ok((a == b) as u64))?,
                Ne => self.binop(|a, b| Ok((a != b) as u64))?,
                LtU => self.binop(|a, b| Ok((a < b) as u64))?,
                GtU => self.binop(|a, b| Ok((a > b) as u64))?,
                LeU => self.binop(|a, b| Ok((a <= b) as u64))?,
                GeU => self.binop(|a, b| Ok((a >= b) as u64))?,
                Eqz => {
                    let v = self.pop()?;
                    self.push((v == 0) as u64)?;
                }

                Jump(t) => self.frame_mut().ip = t as usize,
                JumpIf(t) => {
                    if self.pop()? != 0 {
                        self.frame_mut().ip = t as usize;
                    }
                }
                JumpIfZero(t) => {
                    if self.pop()? == 0 {
                        self.frame_mut().ip = t as usize;
                    }
                }
                Call(f) => {
                    if self.frames.len() >= self.config.call_depth {
                        return Err(trap("call depth exceeded"));
                    }
                    let callee = &self.module.functions[f as usize];
                    let nargs = callee.nargs as usize;
                    let locals_base = self.push_locals(callee.nlocals as usize)?;
                    // Pop arguments; the first-pushed value becomes local 0.
                    for slot in (0..nargs).rev() {
                        let v = self.pop()?;
                        self.locals[locals_base + slot] = v;
                    }
                    let stack_floor = self.stack.len();
                    self.frames.push(Frame {
                        func: f as usize,
                        ip: 0,
                        locals_base,
                        stack_floor,
                    });
                }
                Return => {
                    if self.frames.len() == 1 {
                        return Err(trap("entry function must finish with ret_handle"));
                    }
                    let v = self.pop()?;
                    // invariant: two frames or more; a lone entry frame errs just above.
                    let frame = self.frames.pop().expect("length checked");
                    self.stack.truncate(frame.stack_floor);
                    self.locals.truncate(frame.locals_base);
                    self.push(v)?;
                }

                MemLoad8 => {
                    let addr = self.pop()?;
                    let [v] = self.load::<1>(addr)?;
                    self.push(v as u64)?;
                }
                MemLoad32 => {
                    let addr = self.pop()?;
                    let b = self.load::<4>(addr)?;
                    self.push(u32::from_le_bytes(b) as u64)?;
                }
                MemLoad64 => {
                    let addr = self.pop()?;
                    let b = self.load::<8>(addr)?;
                    self.push(u64::from_le_bytes(b))?;
                }
                MemStore8 => {
                    let v = self.pop()?;
                    let addr = self.pop()?;
                    self.mem_mut(addr, 1)?[0] = v as u8;
                }
                MemStore32 => {
                    let v = self.pop()?;
                    let addr = self.pop()?;
                    self.mem_mut(addr, 4)?
                        .copy_from_slice(&(v as u32).to_le_bytes());
                }
                MemStore64 => {
                    let v = self.pop()?;
                    let addr = self.pop()?;
                    self.mem_mut(addr, 8)?.copy_from_slice(&v.to_le_bytes());
                }
                MemSize => self.push(self.mem_size)?,
                MemGrow => {
                    let bytes = self.pop()?;
                    let old = self.mem_size;
                    let new = old
                        .checked_add(bytes)
                        .ok_or_else(|| trap("grow overflow"))?;
                    if new > self.config.memory_limit {
                        return Err(Error::MemoryLimit {
                            limit: self.config.memory_limit,
                            requested: new,
                        });
                    }
                    self.burn(bytes / 64)?;
                    self.mem_size = new;
                    self.push(old)?;
                }

                BlobLen => {
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    self.accessible_blob(h)?;
                    self.push(h.size())?;
                }
                BlobRead => {
                    let len = self.pop()?;
                    let mem_off = self.pop()?;
                    let blob_off = self.pop()?;
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    self.accessible_blob(h)?;
                    self.burn(len / 8)?;
                    let blob = self.host.load_blob(h)?;
                    let bend = blob_off
                        .checked_add(len)
                        .ok_or_else(|| trap("blob offset overflow"))?;
                    if bend > blob.len() as u64 {
                        return Err(trap(format!(
                            "blob read [{blob_off}, {bend}) out of bounds (len {})",
                            blob.len()
                        )));
                    }
                    self.mem_mut(mem_off, len)?
                        .copy_from_slice(&blob.as_slice()[blob_off as usize..bend as usize]);
                }
                BlobReadU64 => {
                    let off = self.pop()?;
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    self.accessible_blob(h)?;
                    let blob = self.host.load_blob(h)?;
                    let end = off.checked_add(8).ok_or_else(|| trap("offset overflow"))?;
                    if end > blob.len() as u64 {
                        return Err(trap(format!(
                            "blob read_u64 at {off} out of bounds (len {})",
                            blob.len()
                        )));
                    }
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&blob.as_slice()[off as usize..end as usize]);
                    self.push(u64::from_le_bytes(b))?;
                }
                CreateBlob => {
                    let len = self.pop()?;
                    let mem_off = self.pop()?;
                    self.burn(len / 8)?;
                    let data = self.mem_mut(mem_off, len)?.to_vec();
                    let h = self.host.create_blob(data)?;
                    let idx = self.push_handle(h)?;
                    self.push(idx)?;
                }
                CreateBlobU64 => {
                    let v = self.pop()?;
                    let h = self.host.create_blob(v.to_le_bytes().to_vec())?;
                    let idx = self.push_handle(h)?;
                    self.push(idx)?;
                }
                TreeLen => {
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    self.accessible_tree(h)?;
                    self.push(h.size())?;
                }
                TreeGet => {
                    let i = self.pop()?;
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    self.accessible_tree(h)?;
                    let tree = self.host.load_tree(h)?;
                    let entry = usize::try_from(i).ok().and_then(|i| tree.get(i)).ok_or(
                        Error::BadSelection {
                            target: h,
                            begin: i,
                            end: i.saturating_add(1),
                            len: tree.len() as u64,
                        },
                    )?;
                    let idx = self.push_handle(entry)?;
                    self.push(idx)?;
                }
                TbPush => {
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    if self.builder.len() >= self.config.table_limit {
                        return Err(trap("tree builder overflow"));
                    }
                    self.builder.push(h);
                }
                TbBuild => {
                    let entries = std::mem::take(&mut self.builder);
                    self.burn(entries.len() as u64)?;
                    let h = self.host.create_tree(entries)?;
                    let idx = self.push_handle(h)?;
                    self.push(idx)?;
                }
                Application => {
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    let thunk = h.application()?;
                    let idx = self.push_handle(thunk)?;
                    self.push(idx)?;
                }
                Identification => {
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    let thunk = h.identification()?;
                    let idx = self.push_handle(thunk)?;
                    self.push(idx)?;
                }
                SelectionIdx => {
                    let i = self.pop()?;
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    let def = fix_core::invocation::Selection::index(h, i).to_tree();
                    let def_h = self.host.create_tree(def.entries().to_vec())?;
                    let thunk = def_h.selection()?;
                    let idx = self.push_handle(thunk)?;
                    self.push(idx)?;
                }
                SelectionRange => {
                    let end = self.pop()?;
                    let begin = self.pop()?;
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    let def = fix_core::invocation::Selection::range(h, begin, end).to_tree();
                    let def_h = self.host.create_tree(def.entries().to_vec())?;
                    let thunk = def_h.selection()?;
                    let idx = self.push_handle(thunk)?;
                    self.push(idx)?;
                }
                Strict => {
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    let e = h.strict()?;
                    let idx = self.push_handle(e)?;
                    self.push(idx)?;
                }
                Shallow => {
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    let e = h.shallow()?;
                    let idx = self.push_handle(e)?;
                    self.push(idx)?;
                }
                KindOf => {
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    let code = match h.kind() {
                        Kind::Object(DataType::Blob) => kind_code::BLOB_OBJECT,
                        Kind::Object(DataType::Tree) => kind_code::TREE_OBJECT,
                        Kind::Ref(DataType::Blob) => kind_code::BLOB_REF,
                        Kind::Ref(DataType::Tree) => kind_code::TREE_REF,
                        Kind::Thunk(_) => kind_code::THUNK,
                        Kind::Encode(..) => kind_code::ENCODE,
                    };
                    self.push(code)?;
                }
                SizeOf => {
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    self.push(h.size())?;
                }
                EqHandle => {
                    let bi = self.pop_idx()?;
                    let b = self.handle_at(bi)?;
                    let ai = self.pop_idx()?;
                    let a = self.handle_at(ai)?;
                    self.push((a == b) as u64)?;
                }
                RetHandle => {
                    let idx = self.pop_idx()?;
                    let h = self.handle_at(idx)?;
                    return Ok(Outcome {
                        result: h,
                        fuel_used: self.config.fuel - self.fuel,
                    });
                }
            }
        }
    }

    fn pop_idx(&mut self) -> Result<u64> {
        self.pop()
    }

    fn binop(&mut self, f: impl FnOnce(u64, u64) -> Result<u64>) -> Result<()> {
        let b = self.pop()?;
        let a = self.pop()?;
        let r = f(a, b)?;
        self.push(r)
    }
}

/// Test utilities: an in-memory [`HostApi`] backed by a hash map.
pub mod testing {
    use super::*;
    use std::collections::HashMap;

    /// A [`HostApi`] for unit tests and doc tests. Keeps every created or
    /// inserted object in a map keyed by payload.
    #[derive(Default)]
    pub struct TestHost {
        objects: HashMap<[u8; 32], fix_core::data::Node>,
        /// Handles of every object the guest created, in creation order.
        pub created: Vec<Handle>,
    }

    fn key(h: Handle) -> [u8; 32] {
        let mut k = *h.raw();
        k[30] = 0;
        k
    }

    impl TestHost {
        /// Registers a blob and returns its handle.
        pub fn insert_blob(&mut self, blob: Blob) -> Handle {
            let h = blob.handle();
            self.objects
                .insert(key(h), fix_core::data::Node::Blob(blob));
            h
        }

        /// Registers a tree and returns its handle.
        pub fn insert_tree(&mut self, tree: Tree) -> Handle {
            let h = tree.handle();
            self.objects
                .insert(key(h), fix_core::data::Node::Tree(tree));
            h
        }
    }

    impl HostApi for TestHost {
        fn load_blob(&mut self, handle: Handle) -> Result<Blob> {
            if let Some(b) = fix_core::data::literal_blob(handle) {
                return Ok(b);
            }
            self.objects
                .get(&key(handle))
                .ok_or(Error::NotFound(handle))?
                .as_blob()
                .cloned()
        }

        fn load_tree(&mut self, handle: Handle) -> Result<Tree> {
            self.objects
                .get(&key(handle))
                .ok_or(Error::NotFound(handle))?
                .as_tree()
                .cloned()
        }

        fn create_blob(&mut self, data: Vec<u8>) -> Result<Handle> {
            let blob = Blob::from_vec(data);
            let h = self.insert_blob(blob);
            self.created.push(h);
            Ok(h)
        }

        fn create_tree(&mut self, entries: Vec<Handle>) -> Result<Handle> {
            let tree = Tree::from_handles(entries);
            let h = self.insert_tree(tree);
            self.created.push(h);
            Ok(h)
        }
    }
}
