//! The shared per-file state of `softrep-lint`, and the `suppression` rule.
//!
//! [`FileCheck`] lexes one file once and records which token ranges are
//! `#[cfg(test)]` items and which `// lint: allow(<rule>, "reason")`
//! directives it carries; the dataflow passes ([`crate::taint`],
//! [`crate::lockorder`], [`crate::guardio`]) read both. A directive
//! suppresses a finding on its own line, or on the next code line when it
//! sits on a comment-only line.
//!
//! The token rules this crate once ran (no panic on the request path, no
//! raw OS clock, trust writes through `trust.rs`, no wildcard arm over
//! `Request`) are now compiler and clippy checks; DESIGN.md §7 maps each
//! to its replacement.

use std::collections::BTreeSet;

use crate::lexer::{lex, AllowDirective, Lexed, Token};

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path using `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name (`taint`, `lockorder`, `guard-io`, `suppression`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Every rule the lint enforces, for directive validation and `--stats`.
pub const RULES: &[&str] = &["taint", "lockorder", "guard-io", "suppression"];

/// A lexed file plus the derived facts the rules share.
pub struct FileCheck {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    lexed: Lexed,
    /// Token-index ranges belonging to `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
    /// Lines that contain at least one code token.
    code_lines: BTreeSet<usize>,
}

impl FileCheck {
    /// Lex `source` as the file at `path` (workspace-relative).
    pub fn new(path: impl Into<String>, source: &str) -> Self {
        let lexed = lex(source);
        let test_ranges = find_test_ranges(&lexed.tokens);
        let code_lines = lexed.tokens.iter().map(|t| t.line).collect();
        FileCheck { path: path.into(), lexed, test_ranges, code_lines }
    }

    /// The file's code tokens (comments and whitespace removed).
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// Is the token at `idx` inside a `#[cfg(test)]` item?
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| idx >= lo && idx < hi)
    }

    /// The `// lint: allow(…)` directives found in the file.
    pub fn allows(&self) -> &[AllowDirective] {
        &self.lexed.allows
    }

    /// Every function body in the file, excluding `#[cfg(test)]` items.
    pub fn functions(&self) -> Vec<crate::cfg::Function> {
        crate::cfg::functions(self.tokens(), &|i| self.in_test(i))
    }

    /// Is `rule` suppressed on `line`? A directive suppresses its own line;
    /// a directive on a comment-only line suppresses the next code line.
    pub(crate) fn allowed(&self, rule: &str, line: usize) -> bool {
        self.lexed.allows.iter().any(|a| {
            a.rule == rule
                && (a.line == line || (a.line < line && !self.code_lines.contains(&a.line)))
                && (a.line == line || a.line + 1 == line)
        })
    }

    pub(crate) fn push(
        &self,
        out: &mut Vec<Diagnostic>,
        rule: &'static str,
        line: usize,
        message: String,
    ) {
        if !self.allowed(rule, line) {
            out.push(Diagnostic { file: self.path.clone(), line, rule, message });
        }
    }

    /// Rule `suppression`: every `// lint: allow(rule)` must carry a
    /// written reason — `// lint: allow(rule, "why")` — so suppressions
    /// stay auditable. This meta-rule cannot itself be suppressed.
    /// Directives naming something other than a known rule are prose
    /// (docs describing the syntax), not suppressions, and are skipped.
    pub fn check_suppressions(&self, out: &mut Vec<Diagnostic>) {
        for a in self
            .lexed
            .allows
            .iter()
            .filter(|a| a.reason.is_none() && RULES.contains(&a.rule.as_str()))
        {
            out.push(Diagnostic {
                file: self.path.clone(),
                line: a.line,
                rule: "suppression",
                message: format!(
                    "lint: allow({0}) has no reason; write lint: allow({0}, \"why\") so the \
                     suppression is auditable",
                    a.rule
                ),
            });
        }
    }
}

/// Token-index ranges covered by `#[cfg(test)]` items (usually
/// `mod tests { … }`): from the attribute through the item's closing
/// brace or terminating semicolon.
fn find_test_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            let start = i;
            // Skip to the end of this attribute's `]`.
            let mut j = i + 2; // after `#` `[`
            let mut depth = 1;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            // Skip any further attributes between cfg(test) and the item.
            while j < toks.len() && toks[j].text == "#" {
                j += 1; // `#`
                let mut d = 0;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // The item body: through a balanced `{ … }` or a bare `;`.
            let mut brace = 0i32;
            let mut entered = false;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "{" => {
                        brace += 1;
                        entered = true;
                    }
                    "}" => {
                        brace -= 1;
                        if entered && brace == 0 {
                            j += 1;
                            break;
                        }
                    }
                    ";" if !entered => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            ranges.push((start, j));
            i = j;
        } else {
            i += 1;
        }
    }
    ranges
}

fn is_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.text == "#")
        && toks.get(i + 1).is_some_and(|t| t.text == "[")
        && toks.get(i + 2).is_some_and(|t| t.text == "cfg")
        && toks.get(i + 3).is_some_and(|t| t.text == "(")
        && toks.get(i + 4).is_some_and(|t| t.text == "test")
        && toks.get(i + 5).is_some_and(|t| t.text == ")")
        && toks.get(i + 6).is_some_and(|t| t.text == "]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        FileCheck::new(path, src).check_suppressions(&mut out);
        out
    }

    #[test]
    fn reasonless_allow_is_flagged_by_the_suppression_rule() {
        let src = "fn f() { g.sync_all(); } // lint: allow(guard-io)\n";
        let d = diags("crates/storage/src/wal.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "suppression");
        assert_eq!(d[0].line, 1);
        let ok = "fn f() { g.sync_all(); } // lint: allow(guard-io, \"ordering\")\n";
        assert!(diags("crates/storage/src/wal.rs", ok).is_empty());
    }

    #[test]
    fn directives_naming_no_rule_are_prose() {
        let src = "// lint: allow(clock) was a rule; clippy.toml carries it now\n";
        assert!(diags("crates/bench/src/lib.rs", src).is_empty());
    }
}
