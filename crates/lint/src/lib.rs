//! `softrep-lint` — a workspace-local dataflow pass.
//!
//! The reputation system's correctness arguments (DESIGN.md §7 and §11)
//! lean on invariants that neither the type system nor clippy can check,
//! because they follow values and lock guards through a function. Over a
//! per-function CFG with def-use chains ([`cfg`]) this crate runs:
//!
//! 1. **taint** — privacy-sensitive values (peer addresses, credentials)
//!    must pass through a pseudonymizing sanitizer before reaching any
//!    output sink ([`taint`]).
//! 2. **lockorder** — the workspace-wide lock-acquisition graph stays
//!    acyclic and multi-guard acquisition is provably ascending
//!    ([`lockorder`]).
//! 3. **guard-io** — no guard is held across blocking I/O ([`guardio`]).
//! 4. **suppression** — every inline suppression carries a written
//!    reason ([`rules`]).
//!
//! The request-path no-panic rule, clock discipline, trust bounds and
//! `Request` exhaustiveness are enforced by clippy lints, the root
//! `clippy.toml` and `TrustRecord`'s private fields instead.
//!
//! Findings can be suppressed per line with
//! `// lint: allow(<rule>, "reason")`. Run it with
//! `cargo run -p softrep-lint` from the workspace root; see [`report`]
//! for the JSON/baseline machinery the CI shard uses.

pub mod cfg;
pub mod guardio;
pub mod lexer;
pub mod lockorder;
pub mod report;
pub mod rules;
pub mod taint;

use std::path::{Path, PathBuf};

pub use rules::{Diagnostic, FileCheck, RULES};

/// The outcome of a full run: diagnostics plus coverage counters.
pub struct LintReport {
    /// All unsuppressed findings, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of source files lexed and checked.
    pub files_scanned: usize,
}

/// Errors from driving the lint over a directory tree.
#[derive(Debug)]
pub enum LintError {
    /// An I/O failure reading the tree or a source file.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// Run every rule over the workspace rooted at `root`.
///
/// Scans `crates/*/src/**/*.rs` and `src/**/*.rs`; `vendor/`, test
/// targets, benches, and examples are out of scope. Diagnostics come
/// back sorted by file, then line.
pub fn run_lint(root: &Path) -> Result<Vec<Diagnostic>, LintError> {
    run_lint_report(root).map(|r| r.diagnostics)
}

/// [`run_lint`], with coverage counters for `--stats`.
pub fn run_lint_report(root: &Path) -> Result<LintReport, LintError> {
    let mut out = Vec::new();
    let mut checks = Vec::new();
    let mut lock_edges = Vec::new();

    for path in source_files(root)? {
        let rel = relative_slash_path(root, &path);
        let source = std::fs::read_to_string(&path).map_err(|e| LintError::Io(path.clone(), e))?;
        let check = FileCheck::new(rel.clone(), &source);
        check.check_suppressions(&mut out);
        let funcs = check.functions();
        taint::check(&check, &funcs, &mut out);
        lock_edges.extend(lockorder::check(&check, &funcs, &mut out));
        guardio::check(&check, &funcs, &mut out);
        checks.push(check);
    }

    lockorder::check_cycles(&lock_edges, &checks, &mut out);

    out.sort();
    Ok(LintReport { diagnostics: out, files_scanned: checks.len() })
}

/// Collect the `.rs` files in scope, deterministically ordered.
fn source_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut roots = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in read_dir_sorted(&crates_dir)? {
            let src = entry.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let top_src = root.join("src");
    if top_src.is_dir() {
        roots.push(top_src);
    }

    let mut files = Vec::new();
    for dir in roots {
        collect_rs(&dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let iter = std::fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    let mut entries = Vec::new();
    for entry in iter {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

/// Workspace-relative path with `/` separators regardless of platform,
/// so rule scoping and diagnostics are stable.
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(root: &Path, rel: &str, contents: &str) {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("rel paths have parents")).expect("mkdir");
        std::fs::write(path, contents).expect("write fixture");
    }

    fn fixture_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("softrep-lint-lib-{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clean fixture");
        }
        std::fs::create_dir_all(&dir).expect("mkdir fixture");
        dir
    }

    /// An fsync under a lock guard: a `guard-io` finding on line 3.
    const GUARD_IO: &str =
        "impl Wal { fn append(&self) {\n    let q = self.queue.lock();\n    q.file.sync_all();\n} }\n";

    #[test]
    fn clean_fixture_yields_no_diagnostics() {
        let root = fixture_root("clean");
        write(&root, "crates/core/src/db.rs", "fn f(v: &[u8]) -> Option<&u8> { v.get(0) }");
        let diags = run_lint(&root).expect("lint runs");
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn seeded_violations_are_found_with_paths_and_lines() {
        let root = fixture_root("seeded");
        write(&root, "crates/storage/src/wal.rs", GUARD_IO);
        write(
            &root,
            "crates/server/src/tcp.rs",
            "fn serve(peer: SocketAddr) {\n    println!(\"{peer}\");\n}\n",
        );
        let diags = run_lint(&root).expect("lint runs");
        let lines: Vec<_> = diags.iter().map(|d| (d.file.as_str(), d.line, d.rule)).collect();
        assert!(lines.contains(&("crates/storage/src/wal.rs", 3, "guard-io")), "{lines:?}");
        assert!(lines.contains(&("crates/server/src/tcp.rs", 2, "taint")), "{lines:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn vendor_and_tests_dirs_are_out_of_scope() {
        let root = fixture_root("scope");
        write(&root, "vendor/rand/src/lib.rs", GUARD_IO);
        write(&root, "crates/core/tests/it.rs", GUARD_IO);
        write(&root, "crates/core/src/db.rs", "fn ok() {}");
        let diags = run_lint(&root).expect("lint runs");
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let root = fixture_root("cfg-test");
        write(
            &root,
            "crates/storage/src/wal.rs",
            &format!("fn ok() {{}}\n#[cfg(test)]\nmod tests {{\n{GUARD_IO}}}\n"),
        );
        let diags = run_lint(&root).expect("lint runs");
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn allow_directive_suppresses_only_its_line_and_rule() {
        let run = |name: &str, src: &str| {
            let root = fixture_root(name);
            write(&root, "crates/storage/src/wal.rs", src);
            let diags = run_lint(&root).expect("lint runs");
            std::fs::remove_dir_all(&root).ok();
            diags
        };
        let same_line =
            GUARD_IO.replace("sync_all();", "sync_all(); // lint: allow(guard-io, \"test\")");
        assert!(run("allow-same", &same_line).is_empty());
        let wrong_rule =
            GUARD_IO.replace("sync_all();", "sync_all(); // lint: allow(taint, \"test\")");
        assert_eq!(run("allow-wrong", &wrong_rule).len(), 1);
        let too_early = GUARD_IO.replace("let q", "// lint: allow(guard-io, \"test\")\n    let q");
        assert_eq!(run("allow-early", &too_early).len(), 1);
    }
}
