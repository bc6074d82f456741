//! Router persistence contract: a save/load cycle is an exact identity,
//! and *every* corrupt-file shape degrades to a fresh uniform router
//! with a counted reset — never an error, never a crash.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use ljqo_cache::{BanditRouter, QueryClass, RouterConfig, ShapeClass};

const ARMS: [&str; 4] = ["II", "SA", "AGI", "KBI"];

/// A unique scratch path per test (no tempdir crate in the image).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ljqo_router_state_tests");
    fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}_{}.state", tag, std::process::id()))
}

fn class(shape: ShapeClass, n_bucket: u8) -> QueryClass {
    QueryClass {
        shape,
        n_bucket,
        components: 1,
        density_bucket: 1,
    }
}

/// A router with two warm classes and one barely-touched one, using
/// rewards that exercise non-trivial float values.
fn trained_router() -> BanditRouter {
    let router = BanditRouter::new(&ARMS, RouterConfig::default());
    let star = class(ShapeClass::Star, 3);
    let chain = class(ShapeClass::Chain, 4);
    let dense = class(ShapeClass::DenseCyclic, 2);
    for i in 0..12u64 {
        let base = 100.0 + i as f64 * 0.37;
        router.record_outcome(
            &star,
            &[
                Some(base),
                Some(base * 1.7 + 0.001),
                Some(base * 2.3),
                Some(base * 3.1),
            ],
            &[50, 50, 50, 50],
            Some(0),
        );
        router.record_outcome(
            &chain,
            &[Some(base * 2.0), Some(base), None, Some(base * 1.01)],
            &[40, 40, 0, 40],
            Some(1),
        );
    }
    router.record_outcome(
        &dense,
        &[Some(9.0), Some(3.0), Some(6.0), None],
        &[7, 7, 7, 0],
        Some(1),
    );
    router
}

#[test]
fn save_then_load_is_a_bitwise_identity() {
    let path = scratch("roundtrip");
    let router = trained_router();
    router.save(&path).unwrap();
    let reloaded = BanditRouter::load(&path, &ARMS, RouterConfig::default());
    // `{:?}` float formatting round-trips exactly, so the snapshots —
    // including mean rewards and share vectors — must be *equal*, not
    // merely close.
    assert_eq!(router.snapshot(), reloaded.snapshot());
    assert_eq!(reloaded.resets(), 0);
    fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_a_fresh_start_not_a_reset() {
    let path = scratch("missing");
    fs::remove_file(&path).ok();
    let router = BanditRouter::load(&path, &ARMS, RouterConfig::default());
    assert_eq!(router.resets(), 0, "first boot is normal, not a reset");
    assert!(router.snapshot().classes.is_empty());
}

#[test]
fn truncated_file_degrades_to_uniform_with_a_counted_reset() {
    let path = scratch("truncated");
    trained_router().save(&path).unwrap();
    let full = fs::read_to_string(&path).unwrap();
    // Cut mid-way through the class table: header (and its resets line)
    // still readable, body incomplete.
    let cut = full.len() * 2 / 3;
    fs::write(&path, &full[..cut]).unwrap();
    let router = BanditRouter::load(&path, &ARMS, RouterConfig::default());
    assert_eq!(router.resets(), 1, "prior resets 0, salvaged, plus one");
    assert!(
        router.snapshot().classes.is_empty(),
        "no partial state survives a truncated load"
    );
    fs::remove_file(&path).ok();
}

#[test]
fn garbage_file_degrades_to_uniform_with_a_counted_reset() {
    let path = scratch("garbage");
    fs::write(&path, b"\x00\xffnot a router state at all\nrandom lines\n").unwrap();
    let router = BanditRouter::load(&path, &ARMS, RouterConfig::default());
    assert_eq!(router.resets(), 1);
    assert!(router.snapshot().classes.is_empty());
    fs::remove_file(&path).ok();
}

#[test]
fn version_bump_invalidates_the_file_but_preserves_the_reset_count() {
    let path = scratch("version");
    let router = trained_router();
    router.save(&path).unwrap();
    let text = fs::read_to_string(&path)
        .unwrap()
        .replacen("ljqo-router v1", "ljqo-router v999", 1)
        .replacen("resets 0", "resets 5", 1);
    fs::write(&path, text).unwrap();
    let reloaded = BanditRouter::load(&path, &ARMS, RouterConfig::default());
    assert_eq!(
        reloaded.resets(),
        6,
        "cumulative: the salvaged prior count plus this reset"
    );
    assert!(reloaded.snapshot().classes.is_empty());
    fs::remove_file(&path).ok();
}

#[test]
fn arm_set_mismatch_is_treated_as_corruption() {
    let path = scratch("arms");
    trained_router().save(&path).unwrap();
    let reloaded = BanditRouter::load(&path, &["II", "SA", "AGI"], RouterConfig::default());
    assert_eq!(reloaded.resets(), 1);
    assert_eq!(reloaded.n_arms(), 3, "the *requested* arm set wins");
    assert!(reloaded.snapshot().classes.is_empty());
    fs::remove_file(&path).ok();
}

#[test]
fn reset_count_itself_round_trips_through_save() {
    let path = scratch("resets_roundtrip");
    // Boot 1: corrupt file => resets 1.
    fs::write(&path, "junk").unwrap();
    let r1 = BanditRouter::load(&path, &ARMS, RouterConfig::default());
    assert_eq!(r1.resets(), 1);
    r1.save(&path).unwrap();
    // Boot 2: clean load keeps the historical count.
    let r2 = BanditRouter::load(&path, &ARMS, RouterConfig::default());
    assert_eq!(r2.resets(), 1);
    // Boot 3: corrupt again => cumulative 2.
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, text + "trailing garbage that breaks the trailer\n").unwrap();
    let r3 = BanditRouter::load(&path, &ARMS, RouterConfig::default());
    assert_eq!(r3.resets(), 2);
    fs::remove_file(&path).ok();
}

#[test]
fn save_is_atomic_enough_to_never_leave_a_half_written_primary() {
    let path = scratch("atomic");
    let router = trained_router();
    router.save(&path).unwrap();
    // The temp sibling must not linger after a successful save.
    assert!(!path.with_extension("tmp").exists());
    // Saving over an existing file replaces it wholesale.
    router.record_outcome(
        &class(ShapeClass::Tree, 5),
        &[Some(1.0), Some(2.0), Some(3.0), Some(4.0)],
        &[9, 9, 9, 9],
        Some(0),
    );
    router.save(&path).unwrap();
    let reloaded = BanditRouter::load(&path, &ARMS, RouterConfig::default());
    assert_eq!(router.snapshot(), reloaded.snapshot());
    fs::remove_file(&path).ok();
}

/// Set in the child process of
/// `a_killed_saver_never_leaves_a_reset_state`: the path to save to.
const SAVER_ENV: &str = "LJQO_ROUTER_SAVER_PATH";

#[test]
fn a_killed_saver_never_leaves_a_reset_state() {
    // Child mode: save the trained state in a loop until killed.
    if let Some(path) = std::env::var_os(SAVER_ENV) {
        let router = trained_router();
        loop {
            router.save(Path::new(&path)).unwrap();
        }
    }
    let path = scratch("killed_saver");
    let trained = trained_router();
    trained.save(&path).unwrap();
    for (round, delay_ms) in [0u64, 3, 10, 25, 40].into_iter().enumerate() {
        // Re-run this test binary, filtered to this test, as the saver.
        let mut child = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "a_killed_saver_never_leaves_a_reset_state"])
            .env(SAVER_ENV, &path)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        // Wait until the saver has replaced the primary at least once,
        // so the kill lands inside the save loop.
        let before = fs::metadata(&path).unwrap().modified().unwrap();
        let started = std::time::Instant::now();
        while fs::metadata(&path).unwrap().modified().unwrap() == before {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "round {round}: no save"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(delay_ms));
        child.kill().unwrap(); // SIGKILL: no destructors, no flush
        let status = child.wait().unwrap();
        assert!(
            !status.success(),
            "round {round}: the saver exited on its own"
        );
        let loaded = BanditRouter::load(&path, &ARMS, RouterConfig::default());
        assert_eq!(
            loaded.resets(),
            0,
            "round {round}: a killed save reset the router"
        );
        assert_eq!(loaded.snapshot(), trained.snapshot(), "round {round}");
    }
    fs::remove_file(&path).ok();
    fs::remove_file(path.with_extension("tmp")).ok();
}
