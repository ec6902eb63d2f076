//! Golden safety of `repro`'s output directory: a `--quick` run writes
//! its CSVs under `target/repro-quick/` unless told otherwise, and
//! refuses an `--out` that resolves to the golden directory, so quick
//! figures can never overwrite the paper goldens in `results/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh working directory holding a stand-in golden `results/`.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpvar-out-dir-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("results")).expect("create results/");
    std::fs::write(dir.join("results/table1.csv"), "golden\n").expect("write golden");
    dir
}

fn repro(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("run repro")
}

fn golden(cwd: &Path) -> String {
    std::fs::read_to_string(cwd.join("results/table1.csv")).expect("golden still readable")
}

#[test]
fn quick_run_without_out_leaves_the_goldens_alone() {
    let dir = workdir("default");
    let out = repro(&dir, &["--quick", "table1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.join("target/repro-quick/table1.csv"))
        .expect("quick CSV under target/repro-quick/");
    assert!(!written.is_empty());
    assert_eq!(golden(&dir), "golden\n", "results/ untouched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quick_run_into_the_golden_directory_is_refused_by_name() {
    let dir = workdir("refused");
    std::fs::create_dir_all(dir.join("sub")).expect("create sub/");
    for out_arg in ["results", "./results/", "sub/../results"] {
        let out = repro(&dir, &["--quick", "--out", out_arg, "table1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--out {out_arg} must fail");
        assert!(
            stderr.contains("QuickOverGoldens"),
            "--out {out_arg}: {stderr}"
        );
        assert_eq!(
            golden(&dir),
            "golden\n",
            "--out {out_arg}: results/ untouched"
        );
    }
    // Any other explicit directory is honoured.
    let out = repro(&dir, &["--quick", "--out", "elsewhere", "table1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("elsewhere/table1.csv").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}
