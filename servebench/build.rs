//! Records the host facts every run prints: the compiler that built the
//! benchmark and the CPU model of the machine that built it (the benchmark
//! is built in the checkout it runs from).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=SERVEBENCH_RUSTC={version}");
    println!("cargo:rustc-env=SERVEBENCH_CPU={cpu}");
    println!("cargo:rerun-if-changed=build.rs");
}
