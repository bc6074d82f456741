//! The text-mode EXPLAIN and the handling of a closed standard output.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Three components, {lonely}, {a, b} and {c, d, e}: two late cross
/// products.
const DISCONNECTED: &str = r#"{
  "relations": [
    { "name": "lonely", "cardinality": 3 },
    { "name": "a", "cardinality": 500 },
    { "name": "b", "cardinality": 40 },
    { "name": "c", "cardinality": 9000 },
    { "name": "d", "cardinality": 70 },
    { "name": "e", "cardinality": 1200 }
  ],
  "joins": [
    { "left": "a", "right": "b", "selectivity": 0.01 },
    { "left": "c", "right": "d", "selectivity": 0.002 },
    { "left": "d", "right": "e", "selectivity": 0.05 }
  ]
}"#;

fn write_query(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ljqo-text-{}-{name}.json", std::process::id()));
    std::fs::write(&path, DISCONNECTED).expect("temp file is writable");
    path
}

/// The EXPLAIN lines (after the blank line that ends the header).
fn explain(path: &PathBuf, extra: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_ljqo-opt"))
        .arg(path)
        .args(extra)
        .output()
        .expect("CLI binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let (_, plan) = text
        .split_once("\n\n")
        .expect("a blank line ends the header");
    plan.lines().map(str::to_string).collect()
}

/// The relation names in a rendered tree such as `((e ⋈ d) ⋈ c)`.
fn names(rendered: &str) -> BTreeSet<String> {
    rendered
        .split(|c: char| c == '(' || c == ')' || c.is_whitespace() || c == '⋈')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// The plan the CLI explains is the plan it priced: each component is
/// joined whole, and each late cross product takes a whole component as
/// its inner, in either search space.
#[test]
fn disconnected_plans_explain_their_cross_products_in_both_spaces() {
    let path = write_query("both");
    let components: Vec<BTreeSet<String>> = [vec!["lonely"], vec!["a", "b"], vec!["c", "d", "e"]]
        .iter()
        .map(|c| c.iter().map(|s| s.to_string()).collect())
        .collect();
    for space in [
        ["--space", "linear"].as_slice(),
        ["--space", "bushy", "--method", "BUSHYII"].as_slice(),
    ] {
        let lines = explain(&path, space);
        let count = |op: &str| {
            lines
                .iter()
                .filter(|l| l.trim_start().starts_with(op))
                .count()
        };
        assert_eq!(count("Scan "), 6, "{space:?}: {lines:#?}");
        assert_eq!(count("HashJoin "), 3, "{space:?}: {lines:#?}");
        assert_eq!(count("CrossProduct "), 2, "{space:?}: {lines:#?}");
        // The cross products sit at the root, one above the other, and
        // their inners are whole components.
        assert!(lines[0].starts_with("CrossProduct (inner="), "{lines:#?}");
        assert!(lines[1].starts_with("  CrossProduct (inner="), "{lines:#?}");
        let mut covered: Vec<BTreeSet<String>> = Vec::new();
        for line in lines.iter().filter(|l| l.contains("CrossProduct")) {
            let inner = line
                .split_once("(inner=")
                .and_then(|(_, rest)| rest.strip_suffix(')'))
                .expect("a join names its inner");
            let inner = names(inner);
            assert!(components.contains(&inner), "{space:?}: inner {inner:?}");
            covered.push(inner);
        }
        // The outer of the lower cross product is the third component.
        let outer = lines[2].trim_start();
        let first = components
            .iter()
            .find(|c| !covered.contains(c))
            .expect("one component is never an inner");
        if first.len() == 1 {
            assert!(outer.starts_with("Scan lonely"), "{space:?}: {lines:#?}");
        } else {
            assert!(outer.starts_with("HashJoin"), "{space:?}: {lines:#?}");
        }
    }
    let _ = std::fs::remove_file(path);
}

/// A reader that goes away (`ljqo-opt … | head`) ends the run quietly
/// with exit code 7, in text and in JSON mode. The binary's standard
/// output is a pipe whose read end is closed before it starts, so every
/// write fails with `EPIPE` whatever the timing.
#[cfg(unix)]
#[test]
fn a_closed_stdout_exits_quietly() {
    use std::os::fd::{FromRawFd, OwnedFd};

    // libc is always linked on unix targets; declaring `pipe` directly
    // avoids an external crate dependency.
    extern "C" {
        fn pipe(fds: *mut i32) -> i32;
    }

    let path = write_query("pipe");
    for mode in [[].as_slice(), ["--json"].as_slice()] {
        let mut fds = [0i32; 2];
        assert_eq!(unsafe { pipe(fds.as_mut_ptr()) }, 0, "pipe(2) failed");
        // SAFETY: `pipe` just returned these two descriptors, unowned.
        let (read, write) = unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) };
        drop(read);
        let out = Command::new(env!("CARGO_BIN_EXE_ljqo-opt"))
            .arg(&path)
            .args(mode)
            .stdout(Stdio::from(write))
            .output()
            .expect("CLI binary runs");
        assert_eq!(out.status.code(), Some(7), "{mode:?}");
        assert!(
            out.stderr.is_empty(),
            "{mode:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(path);
}
