//! Usage errors of the `isrec` binary surface at startup, before any work.

use std::process::Command;

#[test]
fn malformed_ist_threads_is_a_usage_error_before_any_work() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("isrec-cli-threads");
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_isrec"))
        .args(["generate", "--world", "beauty", "--scale", "0.05", "--out"])
        .arg(&out_dir)
        .env("IST_THREADS", "abc")
        .output()
        .expect("run isrec");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("IST_THREADS must be a positive integer, got \"abc\""),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: isrec"), "stderr: {stderr}");
    assert!(!out_dir.exists(), "the command ran despite the usage error");
}
