//! The burst-parallel software-compilation workload (paper §5.5, Fig. 10).
//!
//! The paper compiles ≈2000 C files with a Fix-ported libclang and links
//! them with liblld. The substitute is a real (small) compilation
//! pipeline: a deterministic C-like source generator, a real lexer whose
//! token stream is reduced to a symbol table ("compilation"), and a link
//! step that merges object files and resolves symbol references. The
//! fan-out/reduce structure, per-file data sizes, and shared-header
//! dependencies match the paper's job.

use fix_cluster::{JobGraph, JobGraphBuilder, TaskSpec};
use fix_core::api::{Evaluator, InvocationApi};
use fix_core::data::Blob;
use fix_core::error::{Error, Result};
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use fix_netsim::{NodeId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

// ----------------------------------------------------------------------
// Source generation.
// ----------------------------------------------------------------------

/// Generates a deterministic C-like translation unit.
///
/// File `i` defines `fn_i_*` functions and calls into file `i-1`'s
/// (extern) symbols, giving the link step real cross-file references.
pub fn generate_source(seed: u64, index: u32, functions: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ (index as u64) << 20);
    let mut out = String::new();
    out.push_str("#include \"common.h\"\n\n");
    if index > 0 {
        out.push_str(&format!("extern int fn_{}_0(int x);\n\n", index - 1));
    }
    for f in 0..functions {
        out.push_str(&format!("int fn_{index}_{f}(int x) {{\n"));
        out.push_str(&format!("    int acc = {};\n", rng.gen_range(1..100)));
        for _ in 0..rng.gen_range(2..6) {
            match rng.gen_range(0..3) {
                0 => out.push_str(&format!("    acc = acc * {} + x;\n", rng.gen_range(2..9))),
                1 => out.push_str(&format!(
                    "    if (x > {}) {{ acc = acc - x; }}\n",
                    rng.gen_range(0..50)
                )),
                _ => out.push_str(&format!(
                    "    while (acc > {}) {{ acc = acc / 2; }}\n",
                    rng.gen_range(100..1000)
                )),
            }
        }
        if index > 0 && f == 0 {
            out.push_str(&format!("    acc = acc + fn_{}_0(x);\n", index - 1));
        }
        out.push_str("    return acc;\n}\n\n");
    }
    out
}

// ----------------------------------------------------------------------
// The "compiler": a real lexer + symbol extraction.
// ----------------------------------------------------------------------

/// Token classes produced by the lexer.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Number(u64),
    /// Any punctuation/operator character sequence.
    Punct(char),
    /// String literal (e.g. include paths).
    Str(String),
}

/// Lexes C-like source into tokens. Rejects unterminated strings.
fn lex(source: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
        } else if c == '#' {
            // Preprocessor directives: take the word after '#'.
            i += 1;
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_alphanumeric() {
                i += 1;
            }
            tokens.push(Token::Ident(format!("#{}", &source[start..i])));
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            tokens.push(Token::Ident(source[start..i].to_string()));
        } else if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let n = source[start..i]
                .parse()
                .map_err(|_| Error::Trap("number too large".into()))?;
            tokens.push(Token::Number(n));
        } else if c == '"' {
            let start = i + 1;
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err(Error::Trap("unterminated string literal".into()));
            }
            tokens.push(Token::Str(source[start..i].to_string()));
            i += 1;
        } else {
            tokens.push(Token::Punct(c));
            i += 1;
        }
    }
    Ok(tokens)
}

/// An "object file": defined and referenced symbols plus a size proxy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectFile {
    /// Symbols defined in this unit.
    pub defined: Vec<String>,
    /// Symbols referenced but not defined here.
    pub referenced: Vec<String>,
    /// Token count (a stand-in for code size).
    pub tokens: u64,
}

impl ObjectFile {
    /// Serializes: `defined\n...\n--\nreferenced\n...\n--\ntokens`.
    pub fn to_blob(&self) -> Blob {
        let mut out = String::new();
        for d in &self.defined {
            out.push_str(d);
            out.push('\n');
        }
        out.push_str("--\n");
        for r in &self.referenced {
            out.push_str(r);
            out.push('\n');
        }
        out.push_str("--\n");
        out.push_str(&self.tokens.to_string());
        Blob::from_vec(out.into_bytes())
    }

    /// Parses the serialization.
    pub fn from_blob(blob: &Blob) -> Result<ObjectFile> {
        let text = std::str::from_utf8(blob.as_slice())
            .map_err(|_| Error::Trap("object file not UTF-8".into()))?;
        let mut sections = text.split("--\n");
        let defined = sections
            .next()
            .unwrap_or("")
            .lines()
            .map(str::to_string)
            .collect();
        let referenced = sections
            .next()
            .unwrap_or("")
            .lines()
            .map(str::to_string)
            .collect();
        let tokens = sections
            .next()
            .unwrap_or("0")
            .trim()
            .parse()
            .map_err(|_| Error::Trap("bad token count".into()))?;
        Ok(ObjectFile {
            defined,
            referenced,
            tokens,
        })
    }
}

/// "Compiles" one translation unit: lex, then extract function
/// definitions (ident before '(' following `int` at statement start)
/// and extern references.
pub fn compile_unit(source: &str) -> Result<ObjectFile> {
    let tokens = lex(source)?;
    let mut obj = ObjectFile {
        tokens: tokens.len() as u64,
        ..ObjectFile::default()
    };
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            Token::Ident(kw) if kw == "extern" => {
                // extern int NAME (
                if let (Some(Token::Ident(_)), Some(Token::Ident(name))) =
                    (tokens.get(i + 1), tokens.get(i + 2))
                {
                    obj.referenced.push(name.clone());
                    i += 3;
                    continue;
                }
                i += 1;
            }
            Token::Ident(kw) if kw == "int" => {
                // int NAME ( ... ) { — a definition.
                if let (Some(Token::Ident(name)), Some(Token::Punct('('))) =
                    (tokens.get(i + 1), tokens.get(i + 2))
                {
                    obj.defined.push(name.clone());
                    i += 3;
                    continue;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    Ok(obj)
}

/// Links object files: merges symbol tables and checks that every
/// reference resolves. Returns the "executable" (a summary blob).
fn link(objects: &[ObjectFile]) -> Result<Blob> {
    let mut defined = BTreeMap::new();
    let mut total_tokens = 0u64;
    for (i, o) in objects.iter().enumerate() {
        total_tokens += o.tokens;
        for d in &o.defined {
            if defined.insert(d.clone(), i).is_some() {
                return Err(Error::Trap(format!("duplicate symbol '{d}'")));
            }
        }
    }
    for o in objects {
        for r in &o.referenced {
            if !defined.contains_key(r) {
                return Err(Error::Trap(format!("undefined reference to '{r}'")));
            }
        }
    }
    let out = format!(
        "FIXLINK01\nunits={}\nsymbols={}\ntokens={}\n",
        objects.len(),
        defined.len(),
        total_tokens
    );
    Ok(Blob::from_vec(out.into_bytes()))
}

// ----------------------------------------------------------------------
// Fix codelets + real end-to-end build.
// ----------------------------------------------------------------------

/// Registers the compile codelet: `[rl, proc, source] -> object blob`.
fn register_compile<R: InvocationApi>(rt: &R) -> Handle {
    rt.register_native(
        "compile/cc",
        Arc::new(|ctx| {
            let src = ctx.arg_blob(0)?;
            let text = std::str::from_utf8(src.as_slice())
                .map_err(|_| Error::Trap("source not UTF-8".into()))?;
            let obj = compile_unit(text)?;
            ctx.host.create_blob(obj.to_blob().as_slice().to_vec())
        }),
    )
}

/// Registers the link codelet: `[rl, proc, objects-tree] -> executable`.
fn register_link<R: InvocationApi>(rt: &R) -> Handle {
    rt.register_native(
        "compile/ld",
        Arc::new(|ctx| {
            let tree_h = ctx.arg(0)?;
            let tree = ctx.host.load_tree(tree_h)?;
            let mut objects = Vec::with_capacity(tree.len());
            for entry in tree.entries() {
                let blob = ctx.host.load_blob(entry.as_object_handle())?;
                objects.push(ObjectFile::from_blob(&blob)?);
            }
            let exe = link(&objects)?;
            ctx.host.create_blob(exe.as_slice().to_vec())
        }),
    )
}

/// Builds a whole project for real on the runtime: compiles `n_files`
/// generated sources in parallel (as lazy applications) and links the
/// results. Returns the executable blob handle.
pub fn build_project_fix<R: InvocationApi + Evaluator>(
    rt: &R,
    seed: u64,
    n_files: u32,
) -> Result<Handle> {
    let cc = register_compile(rt);
    let ld = register_link(rt);
    let limits = ResourceLimits::default_limits();
    let mut object_encodes = Vec::with_capacity(n_files as usize);
    for i in 0..n_files {
        let src = rt.put_blob(Blob::from_vec(generate_source(seed, i, 4).into_bytes()));
        object_encodes.push(rt.apply(limits, cc, &[src])?.strict()?);
    }
    // The link consumes a tree of (to-be-compiled) objects.
    let objects_tree = rt.put_tree(fix_core::data::Tree::from_handles(object_encodes));
    let thunk = rt.apply(limits, ld, &[objects_tree])?;
    rt.eval_strict(thunk)
}

// ----------------------------------------------------------------------
// The Fig. 10 cluster graph.
// ----------------------------------------------------------------------

/// Parameters for the Fig. 10 compile job.
#[derive(Debug, Clone)]
pub struct Fig10Params {
    /// Number of C files (paper: ≈2000).
    pub n_files: usize,
    /// Worker nodes.
    pub nodes: Vec<NodeId>,
    /// Where sources and headers start (client for Fixpoint, MinIO for
    /// the baselines — pass the right node).
    pub source_home: NodeId,
    /// Average source size in bytes.
    pub source_size: u64,
    /// Shared system + clang headers, needed by every compile.
    pub headers_size: u64,
    /// Per-file compile time.
    pub compile_us: Time,
    /// Link time.
    pub link_us: Time,
    /// Object file size.
    pub object_size: u64,
}

impl Default for Fig10Params {
    fn default() -> Self {
        Fig10Params {
            n_files: 2000,
            nodes: (0..10).map(NodeId).collect(),
            source_home: NodeId(10),
            source_size: 8 << 10,
            // System + clang headers pulled by every translation unit.
            headers_size: 64 << 20,
            // Real clang on these units runs seconds per file: 2000 files
            // × 4 s over 320 cores ≈ 25 s of pure compute, which is the
            // bulk of the paper's 39.5 s Fixpoint result.
            compile_us: 4_000_000,
            link_us: 10_000_000,
            object_size: 32 << 10,
        }
    }
}

/// Builds the Fig. 10 job graph: N parallel compiles (each needs its
/// source + the shared headers), one link over all objects.
pub fn fig10_graph(p: &Fig10Params) -> JobGraph {
    let mut b = JobGraphBuilder::new();
    let headers = b.shared_object(p.headers_size, "headers", &[p.source_home]);
    let mut compiles = Vec::with_capacity(p.n_files);
    for _ in 0..p.n_files {
        let src = b.object_at(p.source_size, &[p.source_home]);
        compiles.push(b.task(TaskSpec {
            inputs: vec![src, headers],
            deps: vec![],
            compute_us: p.compile_us,
            cores: 1,
            ram: 512 << 20,
            output_size: p.object_size,
            output_hint: Some(p.object_size),
            func: 1, // libclang
        }));
    }
    b.task(TaskSpec {
        inputs: vec![],
        deps: compiles,
        compute_us: p.link_us,
        cores: 1,
        ram: 4 << 30,
        output_size: 4 << 20,
        output_hint: Some(4 << 20),
        func: 2, // liblld
    });
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::api::ObjectApi;
    use fixpoint::Runtime;

    #[test]
    fn lexer_handles_the_generated_language() {
        let src = generate_source(1, 3, 4);
        let tokens = lex(&src).unwrap();
        assert!(tokens.len() > 50);
        assert!(tokens.contains(&Token::Ident("#include".into())));
        assert!(tokens.contains(&Token::Str("common.h".into())));
    }

    #[test]
    fn lexer_rejects_unterminated_strings() {
        assert!(lex("int x = \"oops").is_err());
    }

    #[test]
    fn compile_extracts_symbols() {
        let src = generate_source(1, 2, 3);
        let obj = compile_unit(&src).unwrap();
        assert_eq!(
            obj.defined,
            vec!["fn_2_0", "fn_2_1", "fn_2_2"],
            "one symbol per generated function"
        );
        assert_eq!(obj.referenced, vec!["fn_1_0"]);
        assert!(obj.tokens > 0);
    }

    #[test]
    fn object_file_round_trip() {
        let obj = compile_unit(&generate_source(2, 5, 2)).unwrap();
        let rt = ObjectFile::from_blob(&obj.to_blob()).unwrap();
        assert_eq!(rt, obj);
    }

    #[test]
    fn link_resolves_cross_file_references() {
        let objects: Vec<ObjectFile> = (0..10)
            .map(|i| compile_unit(&generate_source(3, i, 3)).unwrap())
            .collect();
        let exe = link(&objects).unwrap();
        let text = String::from_utf8(exe.as_slice().to_vec()).unwrap();
        assert!(text.contains("units=10"));
        assert!(text.contains("symbols=30"));
    }

    #[test]
    fn link_detects_undefined_references() {
        // File 5 references fn_4_0, which is missing without file 4.
        let objects = vec![compile_unit(&generate_source(3, 5, 2)).unwrap()];
        let err = link(&objects).unwrap_err();
        assert!(err.to_string().contains("undefined reference"), "{err}");
    }

    #[test]
    fn link_detects_duplicate_symbols() {
        let o = compile_unit(&generate_source(3, 0, 2)).unwrap();
        let err = link(&[o.clone(), o]).unwrap_err();
        assert!(err.to_string().contains("duplicate symbol"), "{err}");
    }

    #[test]
    fn real_end_to_end_build_on_fixpoint() {
        let rt = Runtime::builder().workers(4).build();
        let exe = build_project_fix(&rt, 4, 25).unwrap();
        let text = String::from_utf8(rt.get_blob(exe).unwrap().as_slice().to_vec()).unwrap();
        assert!(text.starts_with("FIXLINK01"), "{text}");
        assert!(text.contains("units=25"));
        // 25 compiles + 1 link.
        assert_eq!(rt.procedures_run(), 26);
    }

    #[test]
    fn fig10_graph_shape() {
        let p = Fig10Params {
            n_files: 100,
            ..Fig10Params::default()
        };
        let g = fig10_graph(&p);
        assert_eq!(g.tasks.len(), 101);
        assert_eq!(g.sinks().len(), 1);
        // Every compile shares ONE headers object (content addressing).
        let headers = g
            .objects
            .iter()
            .filter(|o| o.size == p.headers_size)
            .count();
        assert_eq!(headers, 1);
    }
}
