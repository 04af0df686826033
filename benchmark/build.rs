//! Records the toolchain and source revision the benchmark binary was built
//! from, so every result line can carry them.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");

    // Only a `.git` directory at the repository root counts: a checkout
    // without one (an exported tree) reports "unknown" rather than letting
    // git search the parent directories for some other repository.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git_dir = Path::new(&manifest).join("..").join(".git");
    let mut commit = "unknown".to_string();
    if git_dir.is_dir() {
        for watched in ["HEAD", "refs/heads", "packed-refs"] {
            if git_dir.join(watched).exists() {
                println!("cargo:rerun-if-changed={}", git_dir.join(watched).display());
            }
        }
        if let Some(out) = Command::new("git")
            .arg("--git-dir")
            .arg(&git_dir)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
        {
            commit = String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    println!("cargo:rustc-env=BENCH_GIT_COMMIT={commit}");
}
