//! A small text assembler for FixVM modules.
//!
//! Guest procedures in the examples, tests, and workloads are written in
//! this assembly dialect (the paper writes its guests in C/Rust compiled
//! to Wasm; our equivalent toolchain step is this assembler).
//!
//! Syntax:
//!
//! ```text
//! ;; line comment (also "#")
//! func apply args=0 locals=2     ; first function is the entry point
//!   const 10
//!   local.set 0
//! loop:                          ; labels end with ':'
//!   local.get 0
//!   eqz
//!   jump_if done
//!   local.get 0
//!   const 1
//!   sub
//!   local.set 0
//!   jump loop
//! done:
//!   const 0                      ; handle-table index 0 = the input tree
//!   ret_handle
//! end
//! ```
//!
//! Operands may be decimal, hex (`0x2A`), or a single-quoted byte (`'a'`).
//! `call` takes a function name; jumps take label names.

use crate::isa::Instr;
use crate::module::{Function, Module};
use fix_core::error::{Error, Result};
use std::collections::HashMap;

fn err(line_no: usize, msg: impl Into<String>) -> Error {
    Error::Trap(format!("asm error at line {line_no}: {}", msg.into()))
}

fn parse_num(tok: &str, line_no: usize) -> Result<u64> {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|e| err(line_no, format!("bad hex '{tok}': {e}")))
    } else if tok.len() == 3 && tok.starts_with('\'') && tok.ends_with('\'') {
        Ok(tok.as_bytes()[1] as u64)
    } else {
        tok.parse::<u64>()
            .map_err(|e| err(line_no, format!("bad number '{tok}': {e}")))
    }
}

/// An unresolved instruction: either final, or a jump/call by name.
enum Pending {
    Done(Instr),
    Jump(&'static str, String, usize), // (kind, label, line)
    Call(String, usize),
}

struct FnBuilder {
    name: String,
    nargs: u16,
    nlocals: u16,
    pending: Vec<Pending>,
    labels: HashMap<String, u32>,
}

/// Assembles FixVM source text into a validated [`Module`].
///
/// # Examples
///
/// ```
/// let module = fix_vm::assemble(r#"
///     func apply args=0 locals=0
///       const 0
///       ret_handle
///     end
/// "#).unwrap();
/// assert_eq!(module.functions.len(), 1);
/// ```
pub fn assemble(source: &str) -> Result<Module> {
    let mut fns: Vec<FnBuilder> = Vec::new();
    let mut current: Option<FnBuilder> = None;

    for (i, raw_line) in source.lines().enumerate() {
        let line_no = i + 1;
        // Strip comments.
        let line = raw_line
            .split(';')
            .next()
            .unwrap_or("")
            .split('#')
            .next()
            .unwrap_or("")
            .trim();
        let mut tokens = line.split_whitespace();
        let Some(head) = tokens.next() else {
            continue; // A blank or comment-only line.
        };

        if head == "func" {
            if current.is_some() {
                return Err(err(line_no, "nested 'func' (missing 'end'?)"));
            }
            let name = tokens
                .next()
                .ok_or_else(|| err(line_no, "func needs a name"))?
                .to_string();
            let mut nargs = 0u16;
            let mut nlocals = 0u16;
            for tok in tokens {
                if let Some(v) = tok.strip_prefix("args=") {
                    nargs = v.parse().map_err(|_| err(line_no, "bad args="))?;
                } else if let Some(v) = tok.strip_prefix("locals=") {
                    nlocals = v.parse().map_err(|_| err(line_no, "bad locals="))?;
                } else {
                    return Err(err(line_no, format!("unknown func attribute '{tok}'")));
                }
            }
            // Locals always include the arguments.
            nlocals = nlocals.max(nargs);
            current = Some(FnBuilder {
                name,
                nargs,
                nlocals,
                pending: Vec::new(),
                labels: HashMap::new(),
            });
            continue;
        }

        if head == "end" {
            let f = current
                .take()
                .ok_or_else(|| err(line_no, "'end' outside of a function"))?;
            fns.push(f);
            continue;
        }

        let f = current
            .as_mut()
            .ok_or_else(|| err(line_no, "instruction outside of a function"))?;

        if let Some(label) = head.strip_suffix(':') {
            if f.labels
                .insert(label.to_string(), f.pending.len() as u32)
                .is_some()
            {
                return Err(err(line_no, format!("duplicate label '{label}'")));
            }
            continue;
        }

        let operand = tokens.next();
        if tokens.next().is_some() {
            return Err(err(line_no, "too many operands"));
        }
        let need = |op: Option<&str>| -> Result<String> {
            op.map(str::to_string)
                .ok_or_else(|| err(line_no, format!("'{head}' needs an operand")))
        };
        let no_operand = |instr: Instr| -> Result<Pending> {
            if operand.is_some() {
                Err(err(line_no, format!("'{head}' takes no operand")))
            } else {
                Ok(Pending::Done(instr))
            }
        };

        let pending = match head {
            "nop" => no_operand(Instr::Nop)?,
            "unreachable" => no_operand(Instr::Unreachable)?,
            "const" => Pending::Done(Instr::Const(parse_num(&need(operand)?, line_no)?)),
            "local.get" => {
                Pending::Done(Instr::LocalGet(parse_num(&need(operand)?, line_no)? as u16))
            }
            "local.set" => {
                Pending::Done(Instr::LocalSet(parse_num(&need(operand)?, line_no)? as u16))
            }
            "drop" => no_operand(Instr::Drop)?,
            "dup" => no_operand(Instr::Dup)?,
            "swap" => no_operand(Instr::Swap)?,
            "add" => no_operand(Instr::Add)?,
            "sub" => no_operand(Instr::Sub)?,
            "mul" => no_operand(Instr::Mul)?,
            "div_u" => no_operand(Instr::DivU)?,
            "rem_u" => no_operand(Instr::RemU)?,
            "and" => no_operand(Instr::And)?,
            "or" => no_operand(Instr::Or)?,
            "xor" => no_operand(Instr::Xor)?,
            "shl" => no_operand(Instr::Shl)?,
            "shr_u" => no_operand(Instr::ShrU)?,
            "eq" => no_operand(Instr::Eq)?,
            "ne" => no_operand(Instr::Ne)?,
            "lt_u" => no_operand(Instr::LtU)?,
            "gt_u" => no_operand(Instr::GtU)?,
            "le_u" => no_operand(Instr::LeU)?,
            "ge_u" => no_operand(Instr::GeU)?,
            "eqz" => no_operand(Instr::Eqz)?,
            "jump" => Pending::Jump("jump", need(operand)?, line_no),
            "jump_if" => Pending::Jump("jump_if", need(operand)?, line_no),
            "jump_if_zero" => Pending::Jump("jump_if_zero", need(operand)?, line_no),
            "call" => Pending::Call(need(operand)?, line_no),
            "return" => no_operand(Instr::Return)?,
            "mem.load8" => no_operand(Instr::MemLoad8)?,
            "mem.load32" => no_operand(Instr::MemLoad32)?,
            "mem.load64" => no_operand(Instr::MemLoad64)?,
            "mem.store8" => no_operand(Instr::MemStore8)?,
            "mem.store32" => no_operand(Instr::MemStore32)?,
            "mem.store64" => no_operand(Instr::MemStore64)?,
            "mem.size" => no_operand(Instr::MemSize)?,
            "mem.grow" => no_operand(Instr::MemGrow)?,
            "blob.len" => no_operand(Instr::BlobLen)?,
            "blob.read" => no_operand(Instr::BlobRead)?,
            "blob.read_u64" => no_operand(Instr::BlobReadU64)?,
            "blob.create" => no_operand(Instr::CreateBlob)?,
            "blob.create_u64" => no_operand(Instr::CreateBlobU64)?,
            "tree.len" => no_operand(Instr::TreeLen)?,
            "tree.get" => no_operand(Instr::TreeGet)?,
            "tb.push" => no_operand(Instr::TbPush)?,
            "tb.build" => no_operand(Instr::TbBuild)?,
            "application" => no_operand(Instr::Application)?,
            "identification" => no_operand(Instr::Identification)?,
            "selection.idx" => no_operand(Instr::SelectionIdx)?,
            "selection.range" => no_operand(Instr::SelectionRange)?,
            "strict" => no_operand(Instr::Strict)?,
            "shallow" => no_operand(Instr::Shallow)?,
            "kind_of" => no_operand(Instr::KindOf)?,
            "size_of" => no_operand(Instr::SizeOf)?,
            "eq_handle" => no_operand(Instr::EqHandle)?,
            "ret_handle" => no_operand(Instr::RetHandle)?,
            other => return Err(err(line_no, format!("unknown instruction '{other}'"))),
        };
        f.pending.push(pending);
    }

    if current.is_some() {
        return Err(err(source.lines().count(), "missing final 'end'"));
    }
    if fns.is_empty() {
        return Err(err(0, "no functions defined"));
    }

    // Resolve names.
    let fn_index: HashMap<String, u16> = fns
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i as u16))
        .collect();
    if fn_index.len() != fns.len() {
        return Err(err(0, "duplicate function name"));
    }

    let mut functions = Vec::with_capacity(fns.len());
    for f in &fns {
        let mut code = Vec::with_capacity(f.pending.len());
        for p in &f.pending {
            code.push(match p {
                Pending::Done(i) => *i,
                Pending::Jump(kind, label, line) => {
                    let target = *f
                        .labels
                        .get(label)
                        .ok_or_else(|| err(*line, format!("unknown label '{label}'")))?;
                    match *kind {
                        "jump" => Instr::Jump(target),
                        "jump_if" => Instr::JumpIf(target),
                        _ => Instr::JumpIfZero(target),
                    }
                }
                Pending::Call(name, line) => {
                    let target = *fn_index
                        .get(name)
                        .ok_or_else(|| err(*line, format!("unknown function '{name}'")))?;
                    Instr::Call(target)
                }
            });
        }
        functions.push(Function {
            nargs: f.nargs,
            nlocals: f.nlocals,
            code,
        });
    }

    let module = Module { functions };
    module.validate()?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_minimal_module() {
        let m = assemble("func apply args=0 locals=0\n const 0\n ret_handle\nend").unwrap();
        assert_eq!(m.functions[0].code, vec![Instr::Const(0), Instr::RetHandle]);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let m = assemble(
            r#"
            func apply args=0 locals=1
            top:
              const 1
              jump_if done
              jump top
            done:
              const 0
              ret_handle
            end
            "#,
        )
        .unwrap();
        assert_eq!(m.functions[0].code[1], Instr::JumpIf(3));
        assert_eq!(m.functions[0].code[2], Instr::Jump(0));
    }

    #[test]
    fn calls_resolve_by_name() {
        let m = assemble(
            r#"
            func apply args=0 locals=0
              const 7
              call helper
              drop
              const 0
              ret_handle
            end
            func helper args=1 locals=1
              local.get 0
              return
            end
            "#,
        )
        .unwrap();
        assert_eq!(m.functions[0].code[1], Instr::Call(1));
        assert_eq!(m.functions[1].nargs, 1);
    }

    #[test]
    fn numeric_formats() {
        let m = assemble(
            "func apply args=0 locals=0\n const 0x2A\n drop\n const 'a'\n drop\n const 0\n ret_handle\nend",
        )
        .unwrap();
        assert_eq!(m.functions[0].code[0], Instr::Const(42));
        assert_eq!(m.functions[0].code[2], Instr::Const(97));
    }

    #[test]
    fn comments_are_stripped() {
        let m = assemble(
            ";; header\nfunc apply args=0 locals=0 ; trailing\n const 0 # note\n ret_handle\nend",
        )
        .unwrap();
        assert_eq!(m.functions[0].code.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("func apply args=0 locals=0\n bogus_op\n end").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn unknown_label_is_an_error() {
        assert!(assemble("func apply args=0 locals=0\n jump nowhere\nend").is_err());
    }

    #[test]
    fn unknown_function_is_an_error() {
        assert!(assemble("func apply args=0 locals=0\n call missing\nend").is_err());
    }

    #[test]
    fn duplicate_label_is_an_error() {
        assert!(
            assemble("func apply args=0 locals=0\nx:\nx:\n const 0\n ret_handle\nend").is_err()
        );
    }

    #[test]
    fn locals_include_args() {
        let m = assemble(
            "func apply args=0 locals=0\n const 0\n ret_handle\nend\nfunc f args=3 locals=1\n const 0\n return\nend",
        )
        .unwrap();
        assert_eq!(m.functions[1].nlocals, 3);
    }

    #[test]
    fn round_trips_through_module_bytes() {
        let m = assemble(
            r#"
            func apply args=0 locals=2
              const 5
              local.set 1
            loop:
              local.get 1
              eqz
              jump_if out
              local.get 1
              const 1
              sub
              local.set 1
              jump loop
            out:
              const 0
              ret_handle
            end
            "#,
        )
        .unwrap();
        let rt = Module::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(rt, m);
    }
}
