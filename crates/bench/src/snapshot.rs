//! Output of the snapshot benches under `benches/`.
//!
//! Each snapshot bench writes one `BENCH_<name>.json`. Two environment
//! variables steer all of them:
//!
//! * `BENCH_SMOKE` (any value) selects the seconds-long configuration
//!   CI runs;
//! * `BENCH_OUT_DIR` names the directory the snapshot is written to
//!   (created if missing). Unset, it is the workspace root, where the
//!   committed snapshots live.

use std::path::PathBuf;

/// Whether `BENCH_SMOKE` asks for the smoke configuration.
pub fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// Write `report` as `file_name` into `BENCH_OUT_DIR` (the workspace
/// root when unset) and print where it went. Panics when the file cannot
/// be written: a bench has no caller to report to.
pub fn write_snapshot(file_name: &str, report: &ljqo_json::Value) {
    let dir = std::env::var_os("BENCH_OUT_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
        PathBuf::from,
    );
    let path = dir.join(file_name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, report.to_string_pretty() + "\n"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
