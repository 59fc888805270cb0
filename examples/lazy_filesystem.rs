//! The Fig. 4 demo: descending a directory structure lazily with the
//! `get-file` procedure — each step's minimum repository holds one
//! directory's inode info, never the contents of siblings or files not
//! on the path.
//!
//! Run with: `cargo run --example lazy_filesystem`

use fix::prelude::*;
use flatware::{get_file, register_get_file, FsBuilder};

fn main() {
    let rt = Runtime::builder().build();

    // A filesystem with a deep path and some heavy bystanders.
    let mut fs = FsBuilder::new();
    fs.add_file("dir0/file1", b"the one we want".to_vec())
        .unwrap();
    fs.add_file("dir0/sibling.bin", vec![1u8; 5 << 20]).unwrap();
    fs.add_file("dir1/huge-irrelevant.bin", vec![2u8; 20 << 20])
        .unwrap();
    fs.add_file("dir2/also-huge.bin", vec![3u8; 20 << 20])
        .unwrap();
    let root = fs.build(rt.store());
    println!(
        "filesystem stored: {} objects, {:.1} MiB",
        rt.store().object_count(),
        rt.store().total_bytes() as f64 / (1 << 20) as f64
    );

    let proc_h = register_get_file(&rt);

    // Build the first-step invocation by hand so we can inspect its
    // minimum repository before evaluating.
    let root_tree = rt.get_tree(root).unwrap();
    let info = root_tree.get(0).unwrap();
    let inv = Invocation {
        limits: ResourceLimits::default_limits(),
        procedure: proc_h,
        args: vec![
            rt.put_blob(Blob::from_slice(b"dir0/file1")),
            info,
            root.as_ref_handle(),
        ],
    };
    let thunk = rt.put_tree(inv.to_tree()).application().unwrap();

    let fp = rt.footprint(thunk).unwrap();
    println!(
        "\nminimum repository of get-file(\"dir0/file1\"): {} objects, {} bytes",
        fp.objects.len(),
        fp.total_bytes
    );
    println!(
        "  ({} Refs named but NOT fetched — 45 MiB of bystanders stay put)",
        fp.refs.len()
    );

    let result = rt.eval(thunk).unwrap();
    println!(
        "\nresolved to: {:?}",
        String::from_utf8_lossy(rt.get_blob(result).unwrap().as_slice())
    );

    // The convenience wrapper does the same in one call.
    let again = get_file(&rt, proc_h, root, "dir0/file1").unwrap();
    assert_eq!(again, result);
    println!("get_file helper agrees ✓");
}
