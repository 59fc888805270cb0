//! The `figures` binary's command line: a subcommand it does not know
//! is refused, so a typo cannot print nothing and exit 0.

use std::process::Command;

#[test]
fn an_unknown_subcommand_prints_the_usage_line_and_exits_2() {
    let source = include_str!("../src/bin/figures.rs");
    let documented = source
        .lines()
        .find_map(|line| line.strip_prefix("//! figures ["))
        .expect("the module docs give a usage line");
    for name in ["fig7", "extdensity"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg(name)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "figures {name}");
        assert!(out.stdout.is_empty(), "figures {name} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let usage = stderr
            .lines()
            .find_map(|line| line.strip_prefix("usage: figures ["))
            .unwrap_or_else(|| panic!("no usage line: {stderr}"));
        assert_eq!(usage, documented, "the docs list what main accepts");
    }
}
