//! The `experiments` binary's argument handling, run as a subprocess.

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
