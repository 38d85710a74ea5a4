//! The `experiments` binary's argument and output handling, run as a
//! subprocess.

use std::process::Command;

#[test]
fn degenerate_scale_exits_2_without_panicking() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["regret", "--scale", "0"])
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--scale"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// A path whose parent is a regular file, so no directory can be made
/// there on any Unix.
fn unwritable(name: &str) -> std::path::PathBuf {
    let file = std::env::temp_dir().join(format!("busbw-cli-{}-{name}", std::process::id()));
    std::fs::write(&file, b"").expect("temp file");
    file.join("sub")
}

#[test]
fn unwritable_out_dir_exits_1_without_panicking() {
    let out = unwritable("out");
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig2a", "--scale", "0.02", "--out"])
        .arg(&out)
        .output()
        .expect("experiments binary runs");
    let _ = std::fs::remove_file(out.parent().unwrap());
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot write output"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    // The figure itself was computed and printed before the write failed.
    assert!(String::from_utf8_lossy(&run.stdout).contains("== fig2a"));
}

#[test]
fn unusable_cache_dir_warns_and_runs_in_memory() {
    let cache = unwritable("cache");
    let out = std::env::temp_dir().join(format!("busbw-cli-{}-cache-out", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1a", "--scale", "0.02", "--out"])
        .arg(&out)
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .expect("experiments binary runs");
    let _ = std::fs::remove_file(cache.parent().unwrap());
    let _ = std::fs::remove_dir_all(&out);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("warning: --cache-dir"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn open_manifest_carries_the_managerd_counters() {
    let out = std::env::temp_dir().join(format!("busbw-cli-{}-open", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["open", "--arrivals", "poisson:small", "--duration", "short"])
        .args(["--scale", "0.2", "--out"])
        .arg(&out)
        .output()
        .expect("experiments binary runs");
    let manifest = std::fs::read_to_string(out.join("open.manifest.json"));
    let _ = std::fs::remove_dir_all(&out);
    assert_eq!(
        run.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let manifest =
        busbw_trace::json::parse(&manifest.expect("manifest written")).expect("manifest parses");
    let counters = manifest
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("manifest has counters");
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("manifest lacks {name}"))
    };
    let (arrived, shed, served) = (
        counter("managerd.arrived"),
        counter("managerd.shed"),
        counter("managerd.served"),
    );
    assert!(arrived > 0.0);
    assert!(
        shed + served <= arrived,
        "{shed} shed + {served} served > {arrived} arrived"
    );
    assert!(counter("managerd.overhead_us") > 0.0);
    // 12 cells, each serving the 10 s `short` horizon at scale 0.2.
    assert_eq!(counter("managerd.served_us"), 12.0 * 2_000_000.0);
}
