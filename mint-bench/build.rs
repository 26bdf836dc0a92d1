//! Stamps the binary with what its results depend on: the compiler, the git
//! commit when there is one, and a fingerprint of every source file built
//! into it, so results from different code are never compared silently.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Sources compiled into the benchmark, relative to this package.
const SOURCES: [&str; 7] = [
    "src",
    "Cargo.toml",
    "build.rs",
    "../crates/mint-core",
    "../crates/trace-model",
    "../crates/workload",
    "../crates/mint-bloom",
];

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = command_output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    // Only a repository rooted at the parent directory describes this tree.
    let root = fs::canonicalize("..").ok();
    let toplevel = command_output("git", &["-C", "..", "rev-parse", "--show-toplevel"]);
    let commit = toplevel
        .filter(|top| fs::canonicalize(top).ok() == root)
        .and_then(|_| command_output("git", &["-C", "..", "rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());

    let mut files = Vec::new();
    for source in SOURCES {
        println!("cargo:rerun-if-changed={source}");
        collect(Path::new(source), &mut files);
    }
    files.sort();
    // 64-bit FNV-1a over every path and its contents.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let contents = fs::read(file).unwrap_or_default();
        for byte in file.to_string_lossy().bytes().chain(contents) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    println!("cargo:rustc-env=MINT_BENCH_RUSTC={version}");
    println!("cargo:rustc-env=MINT_BENCH_COMMIT={commit}");
    println!("cargo:rustc-env=MINT_BENCH_SOURCE={hash:016x}");
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    (output.status.success() && !text.trim().is_empty()).then(|| text.trim().to_owned())
}

/// Every regular file under `path` (or `path` itself), skipping build output.
fn collect(path: &Path, files: &mut Vec<PathBuf>) {
    if path.is_file() {
        files.push(path.to_owned());
    } else if let Ok(entries) = fs::read_dir(path) {
        for entry in entries.flatten() {
            let child = entry.path();
            if child.file_name().is_some_and(|n| n != "target") {
                collect(&child, files);
            }
        }
    }
}
