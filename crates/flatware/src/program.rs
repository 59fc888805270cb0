//! Program conventions for POSIX-style guests (paper Fig. 5 / Fig. 11).
//!
//! Flatware lets Unix-shaped programs run on Fix by mapping their world
//! onto Fix objects:
//!
//! * the invocation is `[rlimits, program, argv, fs-root]` where `argv`
//!   is a NUL-separated argument blob and `fs-root` a Flatware
//!   directory;
//! * the result is a Tree `[exit-code, stdout]`.
//!
//! From Fixpoint's perspective this is "an ordinary unprivileged part of
//! the procedure": the runtime sees only data dependencies.

use crate::fs::DirEntry;
use fix_core::api::{Evaluator, InvocationApi, NativeCtx, ObjectApi};
use fix_core::data::{Blob, Tree};
use fix_core::error::{Error, Result};
use fix_core::handle::Handle;
use fix_core::invocation::Invocation;
use fix_core::limits::ResourceLimits;
use std::sync::Arc;

/// Encodes an argv list as a NUL-separated blob.
pub fn encode_argv(args: &[&str]) -> Blob {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push(0);
        }
        out.extend_from_slice(a.as_bytes());
    }
    Blob::from_vec(out)
}

/// Decodes a NUL-separated argv blob.
pub fn decode_argv(blob: &Blob) -> Result<Vec<String>> {
    if blob.is_empty() {
        return Ok(Vec::new());
    }
    blob.as_slice()
        .split(|b| *b == 0)
        .map(|part| {
            String::from_utf8(part.to_vec()).map_err(|_| Error::Trap("argv is not UTF-8".into()))
        })
        .collect()
}

/// The world a ported POSIX-style program sees: argv + a read-only
/// filesystem + collected stdout.
pub struct PosixWorld<'a, 'b> {
    ctx: &'a mut NativeCtx<'b>,
    fs_root: Handle,
    /// Collected standard output.
    pub stdout: Vec<u8>,
}

impl<'a, 'b> PosixWorld<'a, 'b> {
    /// Builds the world from a Flatware-convention invocation.
    fn from_ctx(ctx: &'a mut NativeCtx<'b>) -> Result<(Vec<String>, PosixWorld<'a, 'b>)> {
        let argv = decode_argv(&ctx.arg_blob(0)?)?;
        let fs_root = ctx.arg(1)?;
        Ok((
            argv,
            PosixWorld {
                ctx,
                fs_root,
                stdout: Vec::new(),
            },
        ))
    }

    /// Reads a whole file from the filesystem.
    pub fn read_file(&mut self, path: &str) -> Result<Blob> {
        let h = self.walk(path)?;
        self.ctx.host.load_blob(h.as_object_handle())
    }

    /// Lists a directory.
    pub fn read_dir(&mut self, path: &str) -> Result<Vec<DirEntry>> {
        let h = self.walk(path)?;
        let tree = self.ctx.host.load_tree(h.as_object_handle())?;
        let info = self.ctx.host.load_blob(
            tree.get(0)
                .ok_or(Error::Trap("directory has no info slot".into()))?
                .as_object_handle(),
        )?;
        Ok(crate::fs::DirInfo::from_blob(&info)?.entries)
    }

    fn walk(&mut self, path: &str) -> Result<Handle> {
        let mut current = self.fs_root;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            let tree = self.ctx.host.load_tree(current.as_object_handle())?;
            let info_blob = self.ctx.host.load_blob(
                tree.get(0)
                    .ok_or(Error::Trap("directory has no info slot".into()))?
                    .as_object_handle(),
            )?;
            let info = crate::fs::DirInfo::from_blob(&info_blob)?;
            let idx = info
                .index_of(part)
                .ok_or_else(|| Error::Trap(format!("'{part}': no such file or directory")))?;
            current = tree.get(idx + 1).ok_or_else(|| Error::MalformedTree {
                handle: current,
                reason: format!("info lists entry {idx} but tree is too short"),
            })?;
        }
        Ok(current)
    }

    /// Appends to standard output.
    pub fn print(&mut self, text: &str) {
        self.stdout.extend_from_slice(text.as_bytes());
    }

    /// Appends raw bytes to standard output.
    pub fn write(&mut self, bytes: &[u8]) {
        self.stdout.extend_from_slice(bytes);
    }

    /// Finishes the program, producing the `[exit-code, stdout]` tree.
    pub fn exit(self, code: u8) -> Result<Handle> {
        let code_h = Blob::from_slice(&[code]).handle();
        let out = self.ctx.host.create_blob(self.stdout)?;
        self.ctx.host.create_tree(vec![code_h, out])
    }
}

/// The entry point of a Flatware POSIX-style program: argv in, exit
/// status out, the world reachable through [`PosixWorld`].
pub type ProgramMain = Arc<dyn Fn(&[String], &mut PosixWorld<'_, '_>) -> Result<u8> + Send + Sync>;

/// Registers a POSIX-style program as a native codelet under Flatware
/// conventions, on any [`InvocationApi`] backend.
pub fn register_posix_program<R: InvocationApi>(rt: &R, name: &str, main: ProgramMain) -> Handle {
    rt.register_native(
        name,
        Arc::new(move |ctx| {
            let (argv, mut world) = PosixWorld::from_ctx(ctx)?;
            let code = main(&argv, &mut world)?;
            world.exit(code)
        }),
    )
}

/// Invokes a Flatware program on any One-Fix-API backend and returns
/// `(exit_code, stdout)`.
pub fn run_program<R: InvocationApi + Evaluator>(
    rt: &R,
    program: Handle,
    args: &[&str],
    fs_root: Handle,
) -> Result<(u8, Blob)> {
    let argv = rt.put_blob(encode_argv(args));
    let inv = Invocation {
        limits: ResourceLimits::default_limits(),
        procedure: program,
        args: vec![argv, fs_root],
    };
    let tree = rt.put_tree(inv.to_tree());
    let result = rt.eval_strict(tree.application()?)?;
    parse_program_result(rt, result)
}

/// Parses the `[exit-code, stdout]` result tree.
pub fn parse_program_result<A: ObjectApi>(store: &A, result: Handle) -> Result<(u8, Blob)> {
    let tree: Tree = store.get_tree(result)?;
    let code_blob = store.get_blob(tree.get(0).ok_or(Error::MalformedTree {
        handle: result,
        reason: "missing exit code".into(),
    })?)?;
    let code = *code_blob.as_slice().first().unwrap_or(&0);
    let stdout = store.get_blob(tree.get(1).ok_or(Error::MalformedTree {
        handle: result,
        reason: "missing stdout".into(),
    })?)?;
    Ok((code, stdout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FsBuilder;
    use fixpoint::Runtime;

    #[test]
    fn argv_round_trip() {
        let args = ["prog", "--flag", "value with spaces"];
        let blob = encode_argv(&args);
        let decoded = decode_argv(&blob).unwrap();
        assert_eq!(decoded, args);
        assert!(decode_argv(&Blob::from_slice(b"")).unwrap().is_empty());
    }

    fn cat_program(rt: &Runtime) -> Handle {
        register_posix_program(
            rt,
            "cat",
            Arc::new(|argv, world| {
                if argv.len() < 2 {
                    world.print("usage: cat FILE\n");
                    return Ok(1);
                }
                let contents = world.read_file(&argv[1])?;
                world.write(contents.as_slice());
                Ok(0)
            }),
        )
    }

    #[test]
    fn cat_reads_through_flatware() {
        let rt = Runtime::builder().build();
        let mut fs = FsBuilder::new();
        fs.add_file("etc/motd", b"hello from flatware\n".to_vec())
            .unwrap();
        let root = fs.build(rt.store());
        let cat = cat_program(&rt);
        let (code, out) = run_program(&rt, cat, &["cat", "etc/motd"], root).unwrap();
        assert_eq!(code, 0);
        assert_eq!(out.as_slice(), b"hello from flatware\n");
    }

    #[test]
    fn missing_file_is_a_guest_error() {
        let rt = Runtime::builder().build();
        let root = FsBuilder::new().build(rt.store());
        let cat = cat_program(&rt);
        let err = run_program(&rt, cat, &["cat", "nope"], root).unwrap_err();
        assert!(err.to_string().contains("no such file"), "{err}");
    }

    #[test]
    fn a_directory_shorter_than_its_info_is_malformed() {
        let rt = Runtime::builder().build();
        let info = crate::fs::DirInfo {
            entries: vec![DirEntry {
                name: "ghost".into(),
                kind: crate::fs::EntryKind::File,
                size: 1,
            }],
        };
        let short = rt.put_tree(Tree::from_handles(vec![rt.put_blob(info.to_blob())]));
        let cat = cat_program(&rt);
        let err = run_program(&rt, cat, &["cat", "ghost"], short).unwrap_err();
        assert!(
            matches!(&err, Error::MalformedTree { handle, reason }
                if *handle == short && reason.contains("entry 0 but tree is too short")),
            "{err:?}"
        );
    }

    #[test]
    fn ls_like_listing() {
        let rt = Runtime::builder().build();
        let mut fs = FsBuilder::new();
        fs.add_file("a.txt", b"1".to_vec()).unwrap();
        fs.add_file("sub/b.txt", b"22".to_vec()).unwrap();
        let root = fs.build(rt.store());
        let ls = register_posix_program(
            &rt,
            "ls",
            Arc::new(|argv, world| {
                let path = argv.get(1).map(String::as_str).unwrap_or("");
                for e in world.read_dir(path)? {
                    world.print(&format!("{} {}\n", e.name, e.size));
                }
                Ok(0)
            }),
        );
        let (code, out) = run_program(&rt, ls, &["ls"], root).unwrap();
        assert_eq!(code, 0);
        assert_eq!(
            String::from_utf8(out.as_slice().to_vec()).unwrap(),
            "a.txt 1\nsub 2\n"
        );
        let (_, out2) = run_program(&rt, ls, &["ls", "sub"], root).unwrap();
        assert_eq!(
            String::from_utf8(out2.as_slice().to_vec()).unwrap(),
            "b.txt 2\n"
        );
    }

    #[test]
    fn identical_invocations_are_memoized() {
        let rt = Runtime::builder().build();
        let mut fs = FsBuilder::new();
        fs.add_file("x", b"data".to_vec()).unwrap();
        let root = fs.build(rt.store());
        let cat = cat_program(&rt);
        let (_, a) = run_program(&rt, cat, &["cat", "x"], root).unwrap();
        let before = rt.procedures_run();
        let (_, b) = run_program(&rt, cat, &["cat", "x"], root).unwrap();
        let after = rt.procedures_run();
        assert_eq!(a, b);
        assert_eq!(before, after, "second run must hit the relation cache");
    }
}
