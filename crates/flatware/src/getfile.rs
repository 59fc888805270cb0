//! The lazy `get-file` procedure (paper Fig. 4 / Algorithm 3).
//!
//! Descends a Flatware directory structure one level per invocation
//! *without* fetching directory contents: each step's minimum repository
//! contains only the codelet, the remaining path, and the current
//! directory's inode info. The child directory is carried as a
//! shallowly-encoded Selection (a Ref); the child's info is a strictly-
//! encoded Selection (the one piece of data genuinely needed next).

use crate::fs::DirInfo;
use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
use fix_core::data::Blob;
use fix_core::error::{Error, Result};
use fix_core::handle::{EncodeStyle, Handle};
use fix_core::invocation::Invocation;
use fix_core::limits::ResourceLimits;
use std::sync::Arc;

/// Registers the `get-file` native codelet on any [`InvocationApi`]
/// backend, returning its procedure handle.
///
/// Input layout: `[rlimits, get-file, path, info, dir]` where `path` is
/// the remaining '/'-separated path, `info` is the current directory's
/// inode-info blob (accessible), and `dir` is the current directory tree
/// (typically a Ref). Returns either the selected entry or an
/// application thunk for the next level.
pub fn register_get_file<R: InvocationApi>(rt: &R) -> Handle {
    rt.register_native(
        "flatware/get-file",
        Arc::new(|ctx| {
            let input = ctx.input_tree()?;
            // invariant: a codelet runs on an application tree: [limits, procedure, ..].
            let rlimit = input.get(0).expect("limits slot");
            let self_proc = input.get(1).expect("procedure slot");
            let path_blob = ctx.arg_blob(0)?;
            let info_blob = ctx.arg_blob(1)?;
            let dir = ctx.arg(2)?; // Slot 4: the current directory tree.

            let path = String::from_utf8(path_blob.as_slice().to_vec())
                .map_err(|_| Error::Trap("path is not UTF-8".into()))?;
            let info = DirInfo::from_blob(&info_blob)?;

            let (head, rest) = match path.split_once('/') {
                Some((h, r)) => (h.to_string(), r.to_string()),
                None => (path.clone(), String::new()),
            };
            let idx = info
                .index_of(&head)
                .ok_or_else(|| Error::Trap(format!("'{head}' not found")))?;

            // child = selection(dir, idx + 1): slot 0 is the info blob.
            let sel_def = fix_core::invocation::Selection::index(dir, idx as u64 + 1).to_tree();
            let sel_def_h = ctx.host.create_tree(sel_def.entries().to_vec())?;
            let child = sel_def_h.selection()?;

            if rest.is_empty() {
                // Found: hand back the (lazy) selection of the entry.
                return Ok(child);
            }

            // info_new = strict(selection(child, 0)).
            let info_sel = fix_core::invocation::Selection::index(child, 0).to_tree();
            let info_sel_h = ctx.host.create_tree(info_sel.entries().to_vec())?;
            let x0 = info_sel_h.selection()?.encode(EncodeStyle::Strict)?;
            // x1 = shallow(child): the subdirectory as a Ref.
            let x1 = child.encode(EncodeStyle::Shallow)?;

            let rest_blob = ctx.host.create_blob(rest.into_bytes())?;
            let next = ctx
                .host
                .create_tree(vec![rlimit, self_proc, rest_blob, x0, x1])?;
            next.application()
        }),
    )
}

/// Looks a path up through the Fix-level `get-file` procedure: builds
/// the initial invocation against `root` and evaluates it.
///
/// Returns the entry's handle: for a file, the blob (as stored); for a
/// directory, the directory tree.
pub fn get_file<R: ObjectApi + Evaluator>(
    rt: &R,
    get_file_proc: Handle,
    root: Handle,
    path: &str,
) -> Result<Handle> {
    let root_tree = rt.get_tree(root)?;
    let info = root_tree.get(0).ok_or(Error::MalformedTree {
        handle: root,
        reason: "root has no info slot".into(),
    })?;
    let path_blob = rt.put_blob(Blob::from_slice(path.as_bytes()));
    let inv = Invocation {
        limits: ResourceLimits::default_limits(),
        procedure: get_file_proc,
        args: vec![path_blob, info, root.as_ref_handle()],
    };
    let tree = rt.put_tree(inv.to_tree());
    let thunk = tree.application()?;
    rt.eval(thunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FsBuilder;
    use fixpoint::Runtime;

    fn runtime_with_fs() -> (Runtime, Handle, Handle) {
        let rt = Runtime::builder().build();
        let mut fs = FsBuilder::new();
        fs.add_file("dir0/file1", b"contents of file1".to_vec())
            .unwrap();
        fs.add_file("dir0/deeper/file3", vec![9u8; 5000]).unwrap();
        fs.add_file("file0", b"top-level".to_vec()).unwrap();
        fs.add_file("dir1/unrelated", vec![1u8; 100_000]).unwrap();
        let root = fs.build(rt.store());
        let proc_h = register_get_file(&rt);
        (rt, root, proc_h)
    }

    #[test]
    fn finds_top_level_file() {
        let (rt, root, p) = runtime_with_fs();
        let h = get_file(&rt, p, root, "file0").unwrap();
        assert_eq!(rt.get_blob(h).unwrap().as_slice(), b"top-level");
    }

    #[test]
    fn descends_directories_lazily() {
        let (rt, root, p) = runtime_with_fs();
        let h = get_file(&rt, p, root, "dir0/deeper/file3").unwrap();
        assert_eq!(rt.get_blob(h).unwrap().len(), 5000);
    }

    #[test]
    fn missing_file_errors() {
        let (rt, root, p) = runtime_with_fs();
        let err = get_file(&rt, p, root, "dir0/nope").unwrap_err();
        assert!(err.to_string().contains("not found"), "{err}");
    }

    #[test]
    fn footprint_excludes_unrelated_subtrees() {
        // The heart of Fig. 4: each step's minimum repository holds the
        // path, the codelet, and ONE directory's info — never the
        // 100 KB file in dir1 or even dir0's file contents.
        let (rt, root, p) = runtime_with_fs();
        let root_tree = rt.get_tree(root).unwrap();
        let info = root_tree.get(0).unwrap();
        let path_blob = rt.put_blob(Blob::from_slice(b"dir0/file1"));
        let inv = Invocation {
            limits: ResourceLimits::default_limits(),
            procedure: p,
            args: vec![path_blob, info, root.as_ref_handle()],
        };
        let tree = rt.put_tree(inv.to_tree());
        let thunk = tree.application().unwrap();
        let fp = rt.footprint(thunk).unwrap();
        // Footprint: the application tree + the info blob (the path and
        // codelet marker are literals). The root dir itself is a Ref.
        assert!(fp.total_bytes < 1000, "footprint too big: {fp:?}");
        assert_eq!(fp.refs.len(), 1);
        // And evaluation still works afterward.
        let h = rt.eval(thunk).unwrap();
        assert_eq!(rt.get_blob(h).unwrap().as_slice(), b"contents of file1");
    }
}
