//! End-to-end checks of the `ecl-cc` binary's output contract.

use std::path::PathBuf;
use std::process::{Command, Stdio};

const ECL: &str = env!("CARGO_BIN_EXE_ecl-cc");

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecl-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a path 0-1-…-(n-1) plus the isolated edge (n, n+1): two
/// components on n + 2 vertices.
fn two_component_graph(dir: &std::path::Path, n: u32) -> PathBuf {
    let mut text = String::new();
    for v in 1..n {
        text.push_str(&format!("{} {v}\n", v - 1));
    }
    text.push_str(&format!("{n} {}\n", n + 1));
    let path = dir.join("g.el");
    std::fs::write(&path, text).unwrap();
    path
}

/// `--algo auto` prints the component count of the certificate the
/// fallback ladder issued.
#[test]
fn auto_prints_certified_component_count() {
    let dir = scratch("auto");
    let g = two_component_graph(&dir, 50);
    let out = Command::new(ECL)
        .args(["components", g.to_str().unwrap(), "--algo", "auto"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("52 vertices, 50 edges, 2 components (auto:gpu-sim, ")
            && stdout.contains("certified)"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A closed stdout (as under `| head -1`) is not a failure: no panic,
/// exit 0, and the labels file is still written in full.
#[test]
fn closed_stdout_still_writes_labels_and_exits_zero() {
    let dir = scratch("closed-stdout");
    let n = 2000;
    let g = two_component_graph(&dir, n);
    let labels = dir.join("g.labels");
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(ECL)
        .args(["components", g.to_str().unwrap(), "--labels"])
        .arg(&labels)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{stderr}");
    let text = std::fs::read_to_string(&labels).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), n as usize + 2);
    assert_eq!(lines[0], "0 0");
    assert_eq!(lines[n as usize - 1], format!("{} 0", n - 1));
    assert_eq!(lines[n as usize + 1], format!("{} {n}", n + 1));
    let _ = std::fs::remove_dir_all(&dir);
}
