//! Rule `guard-io` — no lock guard may be held across blocking I/O.
//!
//! The WAL group-commit design (DESIGN.md §9) gets its throughput from
//! `fsync` running *outside* the commit lock; the worker pool's shutdown
//! joins threads without holding registry locks; the TCP front end never
//! sleeps under a guard. Those properties previously relied on review
//! discipline. This pass reuses the `lockorder` guard-liveness model and
//! flags any blocking call — fsync/`sync_*`, socket frame and stream
//! reads/writes, `flush`, `accept`/`connect`, `thread::sleep`, thread
//! `join` — whose statement falls inside a guard's live interval.
//!
//! Deliberate holds (a flush that must be covered by the commit lock for
//! ordering, say) are suppressed inline with a written reason, which the
//! `suppression` rule audits.

use crate::cfg::Function;
use crate::lexer::TokenKind;
use crate::lockorder;
use crate::rules::{Diagnostic, FileCheck};

/// Calls that block the calling thread.
const BLOCKING: &[&str] = &[
    "sync",
    "sync_all",
    "sync_data",
    "fsync",
    "sleep",
    "read_frame",
    "write_frame",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "write_all",
    "flush",
    "accept",
    "connect",
    "recv",
    "join",
    "join_all",
];

/// Run the pass over every function in the file.
pub fn check(fc: &FileCheck, funcs: &[Function], out: &mut Vec<Diagnostic>) {
    let toks = fc.tokens();
    let owners = lockorder::impl_ranges(toks, "");
    for func in funcs {
        let guards = lockorder::guards(fc, func, &owners);
        if guards.is_empty() {
            continue;
        }
        for (id, stmt) in func.stmts.iter().enumerate() {
            let hi = stmt.hi.min(toks.len());
            for k in stmt.lo..hi {
                let t = &toks[k];
                if t.kind != TokenKind::Ident
                    || !BLOCKING.contains(&t.text.as_str())
                    || fc.in_test(k)
                {
                    continue;
                }
                // A call: `.name(` or `path::name(`; not `fn name(`.
                let prev = k.checked_sub(1).map(|p| toks[p].text.as_str()).unwrap_or("");
                let next = toks.get(k + 1).map(|n| n.text.as_str()).unwrap_or("");
                if next != "(" || prev == "fn" {
                    continue;
                }
                if !(prev == "." || prev == "::") {
                    continue;
                }
                // `join`/`recv` block only as the zero-argument thread/
                // channel methods; `Path::join(p)` and `recv_timeout(d)`
                // relatives take arguments.
                if matches!(t.text.as_str(), "join" | "recv")
                    && toks.get(k + 2).is_none_or(|n| n.text != ")")
                {
                    continue;
                }
                for g in &guards {
                    let (lo, hi_stmt) = g.live;
                    // The guard acquisition itself chains into the
                    // blocking call's receiver only when it is the same
                    // expression; same-statement cases require the lock to
                    // come first.
                    let held = (lo..=hi_stmt).contains(&id) && (id != g.stmt || k > g.token);
                    if held {
                        fc.push(
                            out,
                            "guard-io",
                            t.line,
                            format!(
                                "blocking `{}` called while `{}` guard is held (fn {}); \
                                 release the guard before I/O",
                                t.text, g.family, func.name
                            ),
                        );
                        break; // one finding per blocking call site
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let fc = FileCheck::new(path, src);
        let funcs = fc.functions();
        let mut out = Vec::new();
        check(&fc, &funcs, &mut out);
        out
    }

    #[test]
    fn fsync_under_guard_is_flagged() {
        let src = "impl Wal { fn append(&self) {\n    let file = self.file.lock();\n    file.sync_all();\n} }";
        let d = diags("crates/storage/src/wal.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "guard-io");
        assert!(d[0].message.contains("sync_all"), "{}", d[0].message);
    }

    #[test]
    fn fsync_after_drop_is_clean() {
        let src = "impl Wal { fn append(&self) {\n    let buf = { let q = self.queue.lock(); q.take() };\n    self.file_handle().sync_all();\n} }";
        assert!(diags("crates/storage/src/wal.rs", src).is_empty());
    }

    #[test]
    fn explicit_drop_before_io_is_clean() {
        let src = "impl Wal { fn append(&self) {\n    let q = self.queue.lock();\n    drop(q);\n    self.file_handle().sync_all();\n} }";
        assert!(diags("crates/storage/src/wal.rs", src).is_empty());
    }

    #[test]
    fn sleep_under_guard_is_flagged() {
        let src = "impl Pool { fn tick(&self) {\n    let s = self.state.lock();\n    thread::sleep(Duration::from_millis(5));\n} }";
        let d = diags("crates/server/src/pool.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn temporary_guard_does_not_cover_later_statements() {
        let src = "impl S { fn f(&self) {\n    let n = self.counter.lock().len();\n    self.out_handle().flush();\n} }";
        assert!(diags("crates/storage/src/store.rs", src).is_empty());
    }

    #[test]
    fn fn_definitions_named_like_blocking_calls_are_ignored() {
        let src = "impl S { fn flush(&self) { let g = self.inner.lock(); g.clear(); } }";
        assert!(diags("crates/storage/src/store.rs", src).is_empty());
    }

    #[test]
    fn path_join_under_guard_is_not_blocking() {
        let src = "impl S { fn f(&self) {\n    let g = self.state.lock();\n    let p = self.dir.join(\"WAL\");\n    g.note(p);\n} }";
        assert!(diags("crates/storage/src/store.rs", src).is_empty());
    }

    #[test]
    fn thread_join_under_guard_is_flagged() {
        let src = "impl S { fn f(&self, h: JoinHandle<()>) {\n    let g = self.state.lock();\n    h.join();\n} }";
        assert_eq!(diags("crates/server/src/pool.rs", src).len(), 1);
    }

    #[test]
    fn suppression_with_reason_is_honored() {
        let src = "impl Wal { fn append(&self) {\n    let file = self.file.lock();\n    // lint: allow(guard-io, \"ordering requires the flush under the lock\")\n    file.write_all(b\"x\");\n} }";
        assert!(diags("crates/storage/src/wal.rs", src).is_empty());
    }
}
