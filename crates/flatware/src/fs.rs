//! The Flatware filesystem representation: directories as nested Trees.
//!
//! Following the paper's Fig. 4, a directory is a Tree whose slot 0 is an
//! "inode info" Blob (mapping entry indices to names, kinds, and sizes)
//! and whose remaining slots are the entries themselves — file Blobs and
//! subdirectory Trees, stored as *Refs* so that holding a directory never
//! implies fetching its contents.
//!
//! ```text
//! dir := Tree [ info-blob, entry_1, entry_2, ... ]     (entry i ↔ info i-1)
//! info-blob := u32 count, then per entry:
//!              u8 kind (0 file, 1 dir), u48 size, u16 name-len, name
//! ```

use fix_core::api::ObjectApi;
use fix_core::data::{Blob, Tree};
use fix_core::error::{Error, Result};
use fix_core::handle::Handle;
use std::collections::BTreeMap;

/// The kind of a directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A regular file (a Blob).
    File,
    /// A subdirectory (a nested Tree).
    Dir,
}

/// One entry in a directory's inode-info blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (no '/' allowed).
    pub name: String,
    /// File or directory.
    pub kind: EntryKind,
    /// Size: bytes for files, entry count for directories.
    pub size: u64,
}

/// The parsed inode-info blob of one directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirInfo {
    /// Entries, in tree-slot order (slot `i + 1` holds entry `i`).
    pub entries: Vec<DirEntry>,
}

impl DirInfo {
    /// Serializes to the canonical info-blob format.
    pub fn to_blob(&self) -> Blob {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.push(match e.kind {
                EntryKind::File => 0,
                EntryKind::Dir => 1,
            });
            out.extend_from_slice(&e.size.to_le_bytes()[..6]);
            let name = e.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
        }
        Blob::from_vec(out)
    }

    /// Parses an info blob.
    pub fn from_blob(blob: &Blob) -> Result<DirInfo> {
        let data = blob.as_slice();
        let fail = |reason: &str| Error::Trap(format!("malformed dir info: {reason}"));
        if data.len() < 4 {
            return Err(fail("too short"));
        }
        let count = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
        let mut pos = 4;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            if pos + 9 > data.len() {
                return Err(fail("truncated entry"));
            }
            let kind = match data[pos] {
                0 => EntryKind::File,
                1 => EntryKind::Dir,
                _ => return Err(fail("bad entry kind")),
            };
            let mut size_bytes = [0u8; 8];
            size_bytes[..6].copy_from_slice(&data[pos + 1..pos + 7]);
            let size = u64::from_le_bytes(size_bytes);
            let name_len = u16::from_le_bytes([data[pos + 7], data[pos + 8]]) as usize;
            pos += 9;
            if pos + name_len > data.len() {
                return Err(fail("truncated name"));
            }
            let name = String::from_utf8(data[pos..pos + name_len].to_vec())
                .map_err(|_| fail("name is not UTF-8"))?;
            pos += name_len;
            entries.push(DirEntry { name, kind, size });
        }
        if pos != data.len() {
            return Err(fail("trailing bytes"));
        }
        Ok(DirInfo { entries })
    }

    /// The index of `name` among the entries.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }
}

enum NodeBuilder {
    File(Vec<u8>),
    Dir(BTreeMap<String, NodeBuilder>),
}

/// Builds a Flatware filesystem from paths, then stores it.
///
/// # Examples
///
/// ```
/// use fix_core::api::ObjectApi;
/// use fixpoint::Runtime;
/// use flatware::{get_file, register_get_file, FsBuilder};
///
/// let rt = Runtime::builder().build();
/// let mut fs = FsBuilder::new();
/// fs.add_file("src/main.rs", b"fn main() {}".to_vec()).unwrap();
/// fs.add_file("README.md", b"# hi".to_vec()).unwrap();
/// let root = fs.build(&rt);
/// let file = get_file(&rt, register_get_file(&rt), root, "src/main.rs").unwrap();
/// assert_eq!(rt.get_blob(file).unwrap().as_slice(), b"fn main() {}");
/// ```
pub struct FsBuilder {
    root: BTreeMap<String, NodeBuilder>,
}

impl Default for FsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FsBuilder {
    /// Creates an empty filesystem.
    pub fn new() -> FsBuilder {
        FsBuilder {
            root: BTreeMap::new(),
        }
    }

    /// Adds a file at `path` (components separated by '/'). Intermediate
    /// directories are created; adding over an existing directory fails.
    pub fn add_file(&mut self, path: &str, contents: Vec<u8>) -> Result<()> {
        let mut parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        let Some(file) = parts.pop() else {
            return Err(Error::Trap("empty path".into()));
        };
        let mut dir = &mut self.root;
        for part in parts {
            let next = dir
                .entry(part.to_string())
                .or_insert_with(|| NodeBuilder::Dir(BTreeMap::new()));
            match next {
                NodeBuilder::Dir(children) => dir = children,
                NodeBuilder::File(_) => {
                    return Err(Error::Trap(format!(
                        "path component '{part}' is a file, not a directory"
                    )))
                }
            }
        }
        if matches!(dir.get(file), Some(NodeBuilder::Dir(_))) {
            return Err(Error::Trap(format!("'{file}' is already a directory")));
        }
        dir.insert(file.to_string(), NodeBuilder::File(contents));
        Ok(())
    }

    /// Stores the filesystem into any [`ObjectApi`] backend (a bare
    /// store, a runtime, a cluster client); returns the root directory's
    /// Tree handle (as an accessible Object — demote with
    /// `as_ref_handle` to model a remote filesystem).
    pub fn build<A: ObjectApi>(&self, store: &A) -> Handle {
        build_dir(&self.root, store)
    }
}

fn build_dir<A: ObjectApi>(dir: &BTreeMap<String, NodeBuilder>, store: &A) -> Handle {
    let mut info = DirInfo::default();
    let mut entries: Vec<Handle> = Vec::with_capacity(dir.len());
    for (name, node) in dir {
        match node {
            NodeBuilder::File(contents) => {
                let h = store.put_blob(Blob::from_slice(contents));
                info.entries.push(DirEntry {
                    name: name.clone(),
                    kind: EntryKind::File,
                    size: contents.len() as u64,
                });
                // Entries are Refs: naming a file must not fetch it.
                entries.push(h.as_ref_handle());
            }
            NodeBuilder::Dir(children) => {
                let h = build_dir(children, store);
                info.entries.push(DirEntry {
                    name: name.clone(),
                    kind: EntryKind::Dir,
                    size: h.size(),
                });
                entries.push(h.as_ref_handle());
            }
        }
    }
    let slots = std::iter::once(store.put_blob(info.to_blob())).chain(entries);
    store.put_tree(Tree::from_handles(slots.collect()))
}

/// Trusted path resolution, the oracle the builder's tests compare
/// against: walks the directory trees directly. Returns the entry's
/// handle (a Ref, as stored).
#[cfg(test)]
fn resolve<A: ObjectApi>(store: &A, root: Handle, path: &str) -> Result<Handle> {
    use fix_core::handle::{DataType, Kind};
    let mut current = root;
    let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
    if parts.is_empty() {
        return Ok(root);
    }
    for (i, part) in parts.iter().enumerate() {
        if !matches!(
            current.kind(),
            Kind::Object(DataType::Tree) | Kind::Ref(DataType::Tree)
        ) {
            return Err(Error::TypeMismatch {
                handle: current,
                expected: "a directory tree",
            });
        }
        let tree = store.get_tree(current)?;
        let info =
            DirInfo::from_blob(&store.get_blob(tree.get(0).ok_or(Error::MalformedTree {
                handle: current,
                reason: "directory has no info slot".into(),
            })?)?)?;
        let idx = info
            .index_of(part)
            .ok_or_else(|| Error::Trap(format!("path component '{part}' not found")))?;
        let entry = tree.get(idx + 1).ok_or(Error::MalformedTree {
            handle: current,
            reason: format!("info lists entry {idx} but tree is too short"),
        })?;
        let is_last = i + 1 == parts.len();
        if !is_last && info.entries[idx].kind == EntryKind::File {
            return Err(Error::Trap(format!("'{part}' is a file, not a directory")));
        }
        current = entry;
    }
    Ok(current.as_object_handle())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_storage::Store;

    fn sample() -> (Store, Handle) {
        let store = Store::new();
        let mut fs = FsBuilder::new();
        fs.add_file("dir0/file1", b"one".to_vec()).unwrap();
        fs.add_file("dir0/nested/file2", b"two".to_vec()).unwrap();
        fs.add_file("file0", b"zero".to_vec()).unwrap();
        let root = fs.build(&store);
        (store, root)
    }

    /// Lists a directory's entries (trusted path).
    fn list_dir<A: ObjectApi>(store: &A, dir: Handle) -> Result<Vec<DirEntry>> {
        let tree = store.get_tree(dir)?;
        let info_handle = tree.get(0).ok_or(Error::MalformedTree {
            handle: dir,
            reason: "directory has no info slot".into(),
        })?;
        Ok(DirInfo::from_blob(&store.get_blob(info_handle)?)?.entries)
    }

    #[test]
    fn info_blob_round_trip() {
        let info = DirInfo {
            entries: vec![
                DirEntry {
                    name: "a".into(),
                    kind: EntryKind::File,
                    size: 3,
                },
                DirEntry {
                    name: "βeta".into(),
                    kind: EntryKind::Dir,
                    size: 2,
                },
            ],
        };
        let rt = DirInfo::from_blob(&info.to_blob()).unwrap();
        assert_eq!(rt, info);
        assert_eq!(rt.index_of("βeta"), Some(1));
        assert_eq!(rt.index_of("nope"), None);
    }

    #[test]
    fn malformed_info_rejected() {
        assert!(DirInfo::from_blob(&Blob::from_slice(b"xx")).is_err());
        let mut bad = DirInfo {
            entries: vec![DirEntry {
                name: "a".into(),
                kind: EntryKind::File,
                size: 1,
            }],
        }
        .to_blob()
        .as_slice()
        .to_vec();
        bad.push(0xFF); // Trailing garbage.
        assert!(DirInfo::from_blob(&Blob::from_vec(bad)).is_err());
    }

    #[test]
    fn resolve_files_at_multiple_depths() {
        let (store, root) = sample();
        let f0 = resolve(&store, root, "file0").unwrap();
        assert_eq!(store.get_blob(f0).unwrap().as_slice(), b"zero");
        let f1 = resolve(&store, root, "dir0/file1").unwrap();
        assert_eq!(store.get_blob(f1).unwrap().as_slice(), b"one");
        let f2 = resolve(&store, root, "dir0/nested/file2").unwrap();
        assert_eq!(store.get_blob(f2).unwrap().as_slice(), b"two");
    }

    #[test]
    fn resolve_errors() {
        let (store, root) = sample();
        assert!(resolve(&store, root, "missing").is_err());
        assert!(resolve(&store, root, "file0/inside-a-file").is_err());
        // Resolving the empty path gives the root back.
        assert_eq!(resolve(&store, root, "").unwrap(), root);
    }

    #[test]
    fn entries_are_stored_as_refs() {
        let (store, root) = sample();
        let tree = store.get_tree(root).unwrap();
        for entry in tree.entries().iter().skip(1) {
            assert!(!entry.is_accessible(), "{entry} should be a Ref");
        }
        let dirs = list_dir(&store, root).unwrap();
        assert_eq!(dirs.len(), 2);
        assert_eq!(dirs[0].name, "dir0");
        assert_eq!(dirs[0].kind, EntryKind::Dir);
        assert_eq!(dirs[1].name, "file0");
        assert_eq!(dirs[1].size, 4);
    }

    #[test]
    fn builder_rejects_conflicts() {
        let mut fs = FsBuilder::new();
        fs.add_file("a/b", b"x".to_vec()).unwrap();
        assert!(fs.add_file("a/b/c", b"y".to_vec()).is_err());
        assert!(fs.add_file("a", b"z".to_vec()).is_err());
        assert!(fs.add_file("", b"w".to_vec()).is_err());
    }

    #[test]
    fn identical_content_shares_storage() {
        let store = Store::new();
        let mut fs = FsBuilder::new();
        let big = vec![7u8; 10_000];
        fs.add_file("a/copy1.bin", big.clone()).unwrap();
        fs.add_file("b/copy2.bin", big.clone()).unwrap();
        fs.build(&store);
        // Content addressing: one 10 KB blob, not two.
        let big_handles = store
            .inventory()
            .into_iter()
            .filter(|h| h.size() == 10_000)
            .count();
        assert_eq!(big_handles, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::gen::{check, Rng, LOWER};
    use fix_storage::Store;
    use std::collections::HashMap;

    /// A plausible path segment (no '/', nonempty): `[a-z][a-z0-9_.]{0,8}`.
    fn segment(rng: &mut Rng) -> String {
        let mut segment = rng.string(LOWER, 1..2);
        segment.push_str(&rng.string(b"abcdefghijklmnopqrstuvwxyz0123456789_.", 0..9));
        segment
    }

    /// Any set of added files resolves back byte-identically; adds
    /// that conflict (file vs directory) fail without corrupting
    /// prior structure.
    #[test]
    fn random_trees_resolve_every_file() {
        check("random_trees_resolve_every_file", 32, |rng| {
            let files = rng.vec(1..20, |rng| {
                (rng.vec(1..4, segment), rng.vec(0..64, Rng::byte))
            });
            let store = Store::new();
            let mut fs = FsBuilder::new();
            // Last successful write wins, like the builder's map insert.
            let mut oracle: HashMap<String, Vec<u8>> = HashMap::new();
            for (segments, contents) in &files {
                let path = segments.join("/");
                if fs.add_file(&path, contents.clone()).is_ok() {
                    // A file add may shadow nothing or overwrite the
                    // same path; directories it created may have
                    // invalidated an earlier file's prefix? No: adds
                    // fail instead of replacing files with directories.
                    // (The entry is reinserted just below.)
                    oracle.retain(|p, _| p != &path);
                    oracle.insert(path, contents.clone());
                }
            }
            let root = fs.build(&store);
            for (path, contents) in &oracle {
                let h = resolve(&store, root, path).unwrap();
                let got = store.get_blob(h).unwrap();
                assert_eq!(got.as_slice(), contents.as_slice());
            }
        });
    }

    /// The filesystem handle is canonical: insertion order of files
    /// never changes the root handle (content addressing).
    #[test]
    fn build_is_order_independent() {
        check("build_is_order_independent", 32, |rng| {
            let files = rng.map(1..10, segment, |rng| rng.vec(0..32, Rng::byte));
            let forward: Vec<(String, Vec<u8>)> = files.into_iter().collect();
            let mut reverse = forward.clone();
            reverse.reverse();
            let build_root = |list: &[(String, Vec<u8>)]| {
                let store = Store::new();
                let mut fs = FsBuilder::new();
                for (p, c) in list {
                    fs.add_file(p, c.clone()).unwrap();
                }
                fs.build(&store)
            };
            assert_eq!(build_root(&forward), build_root(&reverse));
        });
    }
}
