//! Records the build settings that change speed without changing code, so a
//! run can print them and refuse a mismatched profile.

use std::process::Command;

fn main() {
    for (out, var) in [
        ("TPU_PERF_PROFILE", "PROFILE"),
        ("TPU_PERF_OPT_LEVEL", "OPT_LEVEL"),
        ("TPU_PERF_TARGET", "TARGET"),
    ] {
        let value = std::env::var(var).unwrap_or_default();
        println!("cargo:rustc-env={out}={value}");
    }
    // Flags are separated by 0x1f in CARGO_ENCODED_RUSTFLAGS.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    println!("cargo:rustc-env=TPU_PERF_RUSTFLAGS={flags}");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=TPU_PERF_RUSTC={}", version.trim());
    println!("cargo:rerun-if-changed=build.rs");
}
