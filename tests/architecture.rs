//! Architecture guards: structure the design has given up, checked by
//! reading the source tree, so a name that comes back fails a test.

use std::fs;
use std::path::Path;

/// Whether `text` holds `name` as a whole name, not as the head of a
/// longer identifier (`fn indexed` is not `fn indexed_objects`).
fn holds(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        let next = text[at + name.len()..].chars().next();
        !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

/// A logged object has one name and one entry: its payload key in the
/// node's table, `fix_storage::Store`, which keeps the object's location
/// in the log beside its bytes. The durable tier keeps no index of its
/// own, no slot copying the handle, and no key-keyed map in its store;
/// the backing-tier hook has no `knows`.
#[test]
fn one_name_per_object() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for dir in ["crates/durable/src", "crates/storage/src"] {
        for entry in fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            let text = fs::read_to_string(&path).unwrap();
            for name in ["struct Index", "struct Slot", "fn knows", "fn indexed"] {
                if holds(&text, name) {
                    found.push(format!("{}: {name}", path.display()));
                }
            }
        }
    }
    let store = "crates/durable/src/store.rs";
    if fs::read_to_string(root.join(store))
        .unwrap()
        .contains("HandleMap<[u8; 32]")
    {
        found.push(format!("{store}: HandleMap<[u8; 32]"));
    }
    assert!(
        found.is_empty(),
        "a second name for a logged object: {found:?}"
    );
}
