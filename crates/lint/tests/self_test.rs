//! End-to-end self-tests: run the built `softrep-lint` binary on the real
//! workspace (must be clean) and on fixture trees with seeded violations
//! (must fail with file:line diagnostics).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lint_binary() -> &'static str {
    env!("CARGO_BIN_EXE_softrep-lint")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

fn run_on(root: &Path) -> Output {
    Command::new(lint_binary()).arg(root).output().expect("spawn softrep-lint")
}

fn write(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().expect("rel paths have parents")).expect("mkdir");
    std::fs::write(path, contents).expect("write fixture");
}

fn fixture_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("softrep-lint-bin-{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean fixture");
    }
    std::fs::create_dir_all(&dir).expect("mkdir fixture");
    dir
}

#[test]
fn real_workspace_is_clean() {
    let out = run_on(&workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "softrep-lint flagged the workspace:\n{stdout}\n{stderr}");
    assert!(stdout.trim().is_empty(), "clean run printed diagnostics:\n{stdout}");
}

/// An fsync under a lock guard: a `guard-io` finding on line 3.
const GUARD_IO: &str =
    "impl Wal {\n    fn append(&self) { let q = self.queue.lock();\n        q.file.sync_all();\n    }\n}\n";

#[test]
fn seeded_guard_io_fails_with_file_and_line() {
    let root = fixture_root("guard-io");
    write(&root, "crates/storage/src/wal.rs", GUARD_IO);
    let out = run_on(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(
        stdout.contains("crates/storage/src/wal.rs:3: [guard-io]"),
        "missing guard-io diagnostic:\n{stdout}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn allow_directive_turns_failure_into_clean_exit() {
    let root = fixture_root("allow");
    let allowed = GUARD_IO.replace(
        "sync_all();",
        "sync_all(); // lint: allow(guard-io, \"the flush orders the queue\")",
    );
    write(&root, "crates/storage/src/wal.rs", &allowed);
    let out = run_on(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "allow directive ignored:\n{stdout}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn unknown_argument_exits_with_driver_error() {
    let out = Command::new(lint_binary()).arg("--bogus").output().expect("spawn softrep-lint");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "stderr:\n{stderr}");
}
