//! FixVM module format: serialization, deserialization, and validation.
//!
//! A module is a Blob in storage, so guest code is content addressed like
//! any other data — the paper's "code can be represented as black-box
//! machine code" design goal (§3, goal 1). The format is:
//!
//! ```text
//! [ magic "FIXVM01\0" ][ u16 fn_count ]
//! per function: [ u16 nargs ][ u16 nlocals ][ u32 code_len ][ code ]
//! ```
//!
//! Function 0 is the entry point (`_fix_apply`); it must take no
//! arguments (its input is the application tree at handle-table slot 0).
//! Validation decodes every instruction and checks all static properties
//! so the interpreter can trust them.

use crate::isa::Instr;
use fix_core::error::{Error, Result};

/// The 8-byte module magic.
pub const MAGIC: &[u8; 8] = b"FIXVM01\0";

/// A function header's size: `nargs`, `nlocals` and `code_len`.
const FUNCTION_HEADER: usize = 8;

/// One function body after decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Number of arguments (popped from the caller's stack into locals).
    pub nargs: u16,
    /// Total local slots, including arguments. `nlocals >= nargs`.
    pub nlocals: u16,
    /// Decoded instructions.
    pub code: Vec<Instr>,
}

/// A validated FixVM module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// The module's functions; index 0 is `_fix_apply`.
    pub functions: Vec<Function>,
}

fn malformed(reason: impl Into<String>) -> Error {
    Error::Trap(format!("invalid FixVM module: {}", reason.into()))
}

impl Module {
    /// Returns true if a blob starts with the FixVM magic.
    pub fn is_module(bytes: &[u8]) -> bool {
        bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
    }

    /// Serializes the module to its canonical byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.functions.len() as u16).to_le_bytes());
        for f in &self.functions {
            out.extend_from_slice(&f.nargs.to_le_bytes());
            out.extend_from_slice(&f.nlocals.to_le_bytes());
            let mut code = Vec::new();
            for i in &f.code {
                i.encode(&mut code);
            }
            out.extend_from_slice(&(code.len() as u32).to_le_bytes());
            out.extend_from_slice(&code);
        }
        out
    }

    /// Parses and fully validates a module.
    pub fn from_bytes(bytes: &[u8]) -> Result<Module> {
        if !Self::is_module(bytes) {
            return Err(malformed("bad magic"));
        }
        let mut pos = MAGIC.len();
        let read_u16 = |bytes: &[u8], pos: &mut usize| -> Result<u16> {
            let v = bytes
                .get(*pos..*pos + 2)
                .ok_or_else(|| malformed("truncated header"))?;
            *pos += 2;
            Ok(u16::from_le_bytes([v[0], v[1]]))
        };
        let read_u32 = |bytes: &[u8], pos: &mut usize| -> Result<u32> {
            let v = bytes
                .get(*pos..*pos + 4)
                .ok_or_else(|| malformed("truncated header"))?;
            *pos += 4;
            Ok(u32::from_le_bytes([v[0], v[1], v[2], v[3]]))
        };

        let fn_count = read_u16(bytes, &mut pos)? as usize;
        if fn_count == 0 {
            return Err(malformed("module has no functions"));
        }
        // Every function has a header, so the count is checked against
        // the bytes left before anything is reserved for it.
        if fn_count > (bytes.len() - pos) / FUNCTION_HEADER {
            return Err(malformed(format!(
                "{fn_count} functions cannot fit in {} bytes",
                bytes.len() - pos
            )));
        }
        let mut functions = Vec::with_capacity(fn_count);
        for idx in 0..fn_count {
            let nargs = read_u16(bytes, &mut pos)?;
            let nlocals = read_u16(bytes, &mut pos)?;
            let code_len = read_u32(bytes, &mut pos)? as usize;
            let code_bytes = bytes
                .get(pos..pos + code_len)
                .ok_or_else(|| malformed(format!("function {idx}: truncated code")))?;
            pos += code_len;

            let mut code = Vec::new();
            let mut cp = 0;
            while cp < code_bytes.len() {
                let (instr, used) = Instr::decode(code_bytes, cp).ok_or_else(|| {
                    malformed(format!("function {idx}: bad instruction at byte {cp}"))
                })?;
                code.push(instr);
                cp += used;
            }
            functions.push(Function {
                nargs,
                nlocals,
                code,
            });
        }
        if pos != bytes.len() {
            return Err(malformed("trailing bytes after last function"));
        }
        let module = Module { functions };
        module.validate()?;
        Ok(module)
    }

    /// Checks all static properties the interpreter relies on.
    ///
    /// Note: jump targets in the decoded form are *instruction indices*
    /// (the assembler emits them that way); they must be in bounds.
    pub fn validate(&self) -> Result<()> {
        if self.functions.is_empty() {
            return Err(malformed("module has no functions"));
        }
        if self.functions[0].nargs != 0 {
            return Err(malformed("entry function must take no arguments"));
        }
        for (idx, f) in self.functions.iter().enumerate() {
            if f.nlocals < f.nargs {
                return Err(malformed(format!(
                    "function {idx}: nlocals ({}) < nargs ({})",
                    f.nlocals, f.nargs
                )));
            }
            let n = f.code.len() as u32;
            for (ip, instr) in f.code.iter().enumerate() {
                match instr {
                    Instr::Jump(t) | Instr::JumpIf(t) | Instr::JumpIfZero(t) if *t >= n => {
                        return Err(malformed(format!(
                            "function {idx}: jump target {t} out of bounds at {ip}"
                        )));
                    }
                    Instr::LocalGet(l) | Instr::LocalSet(l) if *l >= f.nlocals => {
                        return Err(malformed(format!(
                            "function {idx}: local {l} out of bounds at {ip}"
                        )));
                    }
                    Instr::Call(target) if *target as usize >= self.functions.len() => {
                        return Err(malformed(format!(
                            "function {idx}: call target {target} out of bounds at {ip}"
                        )));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// A disassembly listing for debugging and tests.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (idx, f) in self.functions.iter().enumerate() {
            out.push_str(&format!(
                "func {idx} args={} locals={}\n",
                f.nargs, f.nlocals
            ));
            for (ip, instr) in f.code.iter().enumerate() {
                out.push_str(&format!("  {ip:4}: {instr}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial() -> Module {
        Module {
            functions: vec![Function {
                nargs: 0,
                nlocals: 1,
                code: vec![Instr::Const(0), Instr::RetHandle],
            }],
        }
    }

    #[test]
    fn round_trip() {
        let m = Module {
            functions: vec![
                Function {
                    nargs: 0,
                    nlocals: 2,
                    code: vec![
                        Instr::Const(5),
                        Instr::LocalSet(0),
                        Instr::LocalGet(0),
                        Instr::Call(1),
                        Instr::RetHandle,
                    ],
                },
                Function {
                    nargs: 1,
                    nlocals: 1,
                    code: vec![Instr::LocalGet(0), Instr::Return],
                },
            ],
        };
        let bytes = m.to_bytes();
        assert!(Module::is_module(&bytes));
        let parsed = Module::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(Module::from_bytes(b"NOTAVM00rest").is_err());
        assert!(!Module::is_module(b"short"));
    }

    #[test]
    fn rejects_entry_with_args() {
        let mut m = trivial();
        m.functions[0].nargs = 1;
        m.functions[0].nlocals = 1;
        assert!(Module::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_jump() {
        let mut m = trivial();
        m.functions[0].code = vec![Instr::Jump(99)];
        assert!(Module::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_local() {
        let mut m = trivial();
        m.functions[0].code = vec![Instr::LocalGet(5), Instr::RetHandle];
        assert!(Module::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_call() {
        let mut m = trivial();
        m.functions[0].code = vec![Instr::Call(3), Instr::RetHandle];
        assert!(Module::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = trivial().to_bytes();
        bytes.push(0xEE);
        assert!(Module::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_locals_fewer_than_args() {
        let m = Module {
            functions: vec![
                Function {
                    nargs: 0,
                    nlocals: 0,
                    code: vec![Instr::Const(0), Instr::RetHandle],
                },
                Function {
                    nargs: 3,
                    nlocals: 1,
                    code: vec![Instr::Const(0), Instr::Return],
                },
            ],
        };
        assert!(Module::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn disassembly_is_readable() {
        let text = trivial().disassemble();
        assert!(text.contains("func 0 args=0 locals=1"));
        assert!(text.contains("const 0"));
        assert!(text.contains("rethandle"));
    }
}
