//! The machine half of every result's descriptor: parallelism, CPU
//! model, compiler, and which commit was measured.

use spillopt_driver::Json;
use std::process::Command;

/// Runs `program args…` and returns its trimmed standard output.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, `rustc -V` and the git commit (when the working
/// directory is a git checkout; parent directories are not searched).
pub fn machine() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let text = |v: Option<String>| Json::str(v.unwrap_or_else(|| "unknown".to_string()));
    Json::obj()
        .with("nproc", Json::UInt(nproc as u64))
        .with("cpu_model", Json::str(cpu_model()))
        .with("rustc", text(output_of("rustc", &["-V"])))
        .with(
            "commit",
            text(output_of("git", &["--git-dir=.git", "rev-parse", "HEAD"])),
        )
}
