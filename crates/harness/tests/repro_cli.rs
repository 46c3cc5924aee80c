//! The `repro` binary's error surface: an unknown benchmark name is a
//! located error with exit status 1, never a panic.

use std::process::Command;

#[test]
fn unknown_benchmark_exits_1_without_panicking() {
    for sub in ["bench", "targets"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([sub, "nosuch"])
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "repro {sub} nosuch: {stderr}");
        assert!(
            stderr.contains("nosuch: unknown benchmark"),
            "repro {sub} nosuch: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "repro {sub} nosuch: {stderr}");
    }
}
