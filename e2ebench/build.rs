//! Records the compiler that built the benchmark, for the host block every
//! result carries (`rustc -V`).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=E2EBENCH_RUSTC_VERSION={version}");
    // A compiler change rebuilds everything anyway; nothing else here can
    // go stale.
    println!("cargo:rerun-if-changed=build.rs");
}
