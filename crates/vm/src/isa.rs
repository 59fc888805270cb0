//! The FixVM instruction set.
//!
//! FixVM is a small deterministic stack machine that plays the role the
//! paper assigns to WebAssembly: a sandboxed intermediate representation
//! for guest procedures, with no ambient authority — the only way a guest
//! touches the world is through the Fixpoint host API, and the only data
//! it can name are Handles it was given or created (capability-style,
//! like Wasm `externref`).
//!
//! Values on the operand stack are `u64`. Handles are referred to by
//! *table index*: the handle table starts with the input tree at index 0
//! and grows as the guest traverses trees or creates objects.

/// One decoded FixVM instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Does nothing.
    Nop,
    /// Traps unconditionally.
    Unreachable,
    /// Pushes an immediate constant.
    Const(u64),
    /// Pushes the value of a local.
    LocalGet(u16),
    /// Pops into a local.
    LocalSet(u16),
    /// Pops and discards the top of stack.
    Drop,
    /// Duplicates the top of stack.
    Dup,
    /// Swaps the top two stack values.
    Swap,

    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; traps on a zero divisor.
    DivU,
    /// Unsigned remainder; traps on a zero divisor.
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (modulo 64).
    Shl,
    /// Logical right shift (modulo 64).
    ShrU,
    /// Pushes 1 if equal else 0.
    Eq,
    /// Pushes 1 if unequal else 0.
    Ne,
    /// Unsigned less-than.
    LtU,
    /// Unsigned greater-than.
    GtU,
    /// Unsigned less-or-equal.
    LeU,
    /// Unsigned greater-or-equal.
    GeU,
    /// Pushes 1 if zero else 0.
    Eqz,

    /// Unconditional jump to an instruction index.
    Jump(u32),
    /// Pops a condition; jumps if nonzero.
    JumpIf(u32),
    /// Pops a condition; jumps if zero.
    JumpIfZero(u32),
    /// Calls a function by index; pops the callee's arguments.
    Call(u16),
    /// Returns from the current function with the top of stack.
    Return,

    /// Pops an address; pushes the byte there (zero extended).
    MemLoad8,
    /// Pops an address; pushes the little-endian u32 there.
    MemLoad32,
    /// Pops an address; pushes the little-endian u64 there.
    MemLoad64,
    /// Pops value then address; stores the low byte.
    MemStore8,
    /// Pops value then address; stores as little-endian u32.
    MemStore32,
    /// Pops value then address; stores as little-endian u64.
    MemStore64,
    /// Pushes the current linear-memory size in bytes.
    MemSize,
    /// Pops a byte count; grows memory, pushing the old size, or traps if
    /// the guest's memory limit would be exceeded.
    MemGrow,

    /// Pops a handle index; pushes the referent's length (blob bytes).
    BlobLen,
    /// Pops `len`, `mem_off`, `blob_off`, `handle`; copies blob bytes into
    /// linear memory.
    BlobRead,
    /// Pops `blob_off` then `handle`; pushes the little-endian u64 at that
    /// offset of the blob (convenience, avoids a memory round trip).
    BlobReadU64,
    /// Pops `len` then `mem_off`; creates a blob from linear memory and
    /// pushes its handle index.
    CreateBlob,
    /// Pops a u64; creates an 8-byte little-endian blob.
    CreateBlobU64,
    /// Pops a handle index; pushes the tree's entry count.
    TreeLen,
    /// Pops `index` then `handle`; pushes the handle index of that entry.
    TreeGet,
    /// Pops a handle index and appends it to the tree builder.
    TbPush,
    /// Builds a tree from the builder's contents (clearing it); pushes the
    /// new tree's handle index.
    TbBuild,
    /// Pops a tree handle index; pushes an Application thunk handle index.
    Application,
    /// Pops a handle index; pushes an Identification thunk handle index.
    Identification,
    /// Pops `index` then `handle`; pushes a Selection thunk handle index.
    SelectionIdx,
    /// Pops `end`, `begin`, `handle`; pushes a range-Selection thunk.
    SelectionRange,
    /// Pops a thunk handle index; pushes a Strict encode handle index.
    Strict,
    /// Pops a thunk handle index; pushes a Shallow encode handle index.
    Shallow,
    /// Pops a handle index; pushes its kind code (see [`kind_code`]).
    KindOf,
    /// Pops a handle index; pushes the handle's size field.
    SizeOf,
    /// Pops two handle indices; pushes 1 if they name the same handle.
    EqHandle,
    /// Pops a handle index and finishes `_fix_apply` with that handle.
    RetHandle,
}

/// Kind codes returned by [`Instr::KindOf`].
pub mod kind_code {
    /// Accessible blob.
    pub const BLOB_OBJECT: u64 = 0;
    /// Accessible tree.
    pub const TREE_OBJECT: u64 = 1;
    /// Inaccessible blob.
    pub const BLOB_REF: u64 = 2;
    /// Inaccessible tree.
    pub const TREE_REF: u64 = 3;
    /// Any thunk.
    pub const THUNK: u64 = 4;
    /// Any encode.
    pub const ENCODE: u64 = 5;
}

impl Instr {
    /// The opcode byte for this instruction.
    fn opcode(&self) -> u8 {
        use Instr::*;
        match self {
            Nop => 0x00,
            Unreachable => 0x01,
            Const(_) => 0x02,
            LocalGet(_) => 0x03,
            LocalSet(_) => 0x04,
            Drop => 0x05,
            Dup => 0x06,
            Swap => 0x07,
            Add => 0x10,
            Sub => 0x11,
            Mul => 0x12,
            DivU => 0x13,
            RemU => 0x14,
            And => 0x15,
            Or => 0x16,
            Xor => 0x17,
            Shl => 0x18,
            ShrU => 0x19,
            Eq => 0x1A,
            Ne => 0x1B,
            LtU => 0x1C,
            GtU => 0x1D,
            LeU => 0x1E,
            GeU => 0x1F,
            Eqz => 0x20,
            Jump(_) => 0x30,
            JumpIf(_) => 0x31,
            JumpIfZero(_) => 0x32,
            Call(_) => 0x33,
            Return => 0x34,
            MemLoad8 => 0x40,
            MemLoad32 => 0x41,
            MemLoad64 => 0x42,
            MemStore8 => 0x43,
            MemStore32 => 0x44,
            MemStore64 => 0x45,
            MemSize => 0x46,
            MemGrow => 0x47,
            BlobLen => 0x50,
            BlobRead => 0x51,
            BlobReadU64 => 0x52,
            CreateBlob => 0x53,
            CreateBlobU64 => 0x54,
            TreeLen => 0x55,
            TreeGet => 0x56,
            TbPush => 0x57,
            TbBuild => 0x58,
            Application => 0x59,
            Identification => 0x5A,
            SelectionIdx => 0x5B,
            SelectionRange => 0x5C,
            Strict => 0x5D,
            Shallow => 0x5E,
            KindOf => 0x5F,
            SizeOf => 0x60,
            EqHandle => 0x61,
            RetHandle => 0x62,
        }
    }

    /// Serializes this instruction (opcode + immediates, little endian).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.opcode());
        match self {
            Instr::Const(v) => out.extend_from_slice(&v.to_le_bytes()),
            Instr::LocalGet(i) | Instr::LocalSet(i) | Instr::Call(i) => {
                out.extend_from_slice(&i.to_le_bytes())
            }
            Instr::Jump(t) | Instr::JumpIf(t) | Instr::JumpIfZero(t) => {
                out.extend_from_slice(&t.to_le_bytes())
            }
            _ => {}
        }
    }

    /// Decodes one instruction from `code[pos..]`, returning it and the
    /// number of bytes consumed.
    pub fn decode(code: &[u8], pos: usize) -> Option<(Instr, usize)> {
        use Instr::*;
        let op = *code.get(pos)?;
        let u16_at = |p: usize| -> Option<u16> {
            Some(u16::from_le_bytes([*code.get(p)?, *code.get(p + 1)?]))
        };
        let u32_at = |p: usize| -> Option<u32> {
            Some(u32::from_le_bytes([
                *code.get(p)?,
                *code.get(p + 1)?,
                *code.get(p + 2)?,
                *code.get(p + 3)?,
            ]))
        };
        let u64_at = |p: usize| -> Option<u64> {
            let mut b = [0u8; 8];
            for (i, slot) in b.iter_mut().enumerate() {
                *slot = *code.get(p + i)?;
            }
            Some(u64::from_le_bytes(b))
        };
        let simple = |i: Instr| Some((i, 1));
        match op {
            0x00 => simple(Nop),
            0x01 => simple(Unreachable),
            0x02 => Some((Const(u64_at(pos + 1)?), 9)),
            0x03 => Some((LocalGet(u16_at(pos + 1)?), 3)),
            0x04 => Some((LocalSet(u16_at(pos + 1)?), 3)),
            0x05 => simple(Drop),
            0x06 => simple(Dup),
            0x07 => simple(Swap),
            0x10 => simple(Add),
            0x11 => simple(Sub),
            0x12 => simple(Mul),
            0x13 => simple(DivU),
            0x14 => simple(RemU),
            0x15 => simple(And),
            0x16 => simple(Or),
            0x17 => simple(Xor),
            0x18 => simple(Shl),
            0x19 => simple(ShrU),
            0x1A => simple(Eq),
            0x1B => simple(Ne),
            0x1C => simple(LtU),
            0x1D => simple(GtU),
            0x1E => simple(LeU),
            0x1F => simple(GeU),
            0x20 => simple(Eqz),
            0x30 => Some((Jump(u32_at(pos + 1)?), 5)),
            0x31 => Some((JumpIf(u32_at(pos + 1)?), 5)),
            0x32 => Some((JumpIfZero(u32_at(pos + 1)?), 5)),
            0x33 => Some((Call(u16_at(pos + 1)?), 3)),
            0x34 => simple(Return),
            0x40 => simple(MemLoad8),
            0x41 => simple(MemLoad32),
            0x42 => simple(MemLoad64),
            0x43 => simple(MemStore8),
            0x44 => simple(MemStore32),
            0x45 => simple(MemStore64),
            0x46 => simple(MemSize),
            0x47 => simple(MemGrow),
            0x50 => simple(BlobLen),
            0x51 => simple(BlobRead),
            0x52 => simple(BlobReadU64),
            0x53 => simple(CreateBlob),
            0x54 => simple(CreateBlobU64),
            0x55 => simple(TreeLen),
            0x56 => simple(TreeGet),
            0x57 => simple(TbPush),
            0x58 => simple(TbBuild),
            0x59 => simple(Application),
            0x5A => simple(Identification),
            0x5B => simple(SelectionIdx),
            0x5C => simple(SelectionRange),
            0x5D => simple(Strict),
            0x5E => simple(Shallow),
            0x5F => simple(KindOf),
            0x60 => simple(SizeOf),
            0x61 => simple(EqHandle),
            0x62 => simple(RetHandle),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_simple() -> Vec<Instr> {
        use Instr::*;
        vec![
            Nop,
            Unreachable,
            Drop,
            Dup,
            Swap,
            Add,
            Sub,
            Mul,
            DivU,
            RemU,
            And,
            Or,
            Xor,
            Shl,
            ShrU,
            Eq,
            Ne,
            LtU,
            GtU,
            LeU,
            GeU,
            Eqz,
            Return,
            MemLoad8,
            MemLoad32,
            MemLoad64,
            MemStore8,
            MemStore32,
            MemStore64,
            MemSize,
            MemGrow,
            BlobLen,
            BlobRead,
            BlobReadU64,
            CreateBlob,
            CreateBlobU64,
            TreeLen,
            TreeGet,
            TbPush,
            TbBuild,
            Application,
            Identification,
            SelectionIdx,
            SelectionRange,
            Strict,
            Shallow,
            KindOf,
            SizeOf,
            EqHandle,
            RetHandle,
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut instrs = all_simple();
        instrs.extend([
            Instr::Const(0),
            Instr::Const(u64::MAX),
            Instr::LocalGet(3),
            Instr::LocalSet(65535),
            Instr::Jump(0),
            Instr::JumpIf(12345),
            Instr::JumpIfZero(u32::MAX),
            Instr::Call(7),
        ]);
        let mut code = Vec::new();
        for i in &instrs {
            i.encode(&mut code);
        }
        let mut pos = 0;
        for expect in &instrs {
            let (got, used) = Instr::decode(&code, pos).unwrap();
            assert_eq!(got, *expect);
            pos += used;
        }
        assert_eq!(pos, code.len());
    }

    #[test]
    fn opcodes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        let mut instrs = all_simple();
        instrs.extend([
            Instr::Const(0),
            Instr::LocalGet(0),
            Instr::LocalSet(0),
            Instr::Jump(0),
            Instr::JumpIf(0),
            Instr::JumpIfZero(0),
            Instr::Call(0),
        ]);
        for i in &instrs {
            assert!(
                seen.insert(i.opcode()),
                "duplicate opcode {:#x}",
                i.opcode()
            );
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        assert!(Instr::decode(&[0xFF], 0).is_none());
        // Truncated immediate.
        assert!(Instr::decode(&[0x02, 1, 2], 0).is_none());
    }
}
