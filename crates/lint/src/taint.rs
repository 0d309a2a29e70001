//! Rule `taint` — privacy-sensitive values must not reach output sinks
//! unpseudonymized.
//!
//! The paper's server is only defensible if it is *less* invasive than
//! the software it polices (PAPER.md §2.2): transport identities and
//! account credentials may be observed transiently but must never be
//! displayed, logged, counted, or encoded raw. This pass tracks two
//! taint classes through each function body's CFG:
//!
//! * **net** — peer transport identity: parameters typed `SocketAddr`/
//!   `IpAddr` and names like `peer`/`peer_ip`/`remote_addr`, tracked in
//!   `crates/server/` where sockets live.
//! * **cred** — account identity: `email`/`password` bindings and
//!   `.author`/`.email`/`.password` field reads, tracked everywhere.
//!
//! Taint propagates through `let` bindings, reassignment, `for`/match
//! patterns, and closure parameters (flow-sensitively, to a fixpoint over
//! the successor edges). Passing a value through a registered sanitizer —
//! the `crypto` digests (`email_digest`, `hmac_sha256`, `PasswordHash`)
//! or the pseudonymizing tag helpers (`pseudonym_tag`, `pseudonymize`) —
//! clears it. Sinks:
//!
//! * print/log macros (`println!`, `eprintln!`, `write!`, …) everywhere,
//!   and `format!` in `crates/server/src/web.rs` (HTML response bodies);
//! * `.insert(`/`.entry(` keyed by a **net** value in `crates/server/`
//!   (identity-keyed maps such as flood buckets outlive the connection);
//! * `write_frame(` — wire encoding outside `proto`'s own framing.

use std::collections::BTreeMap;

use crate::cfg::Function;
use crate::lexer::{Token, TokenKind};
use crate::rules::{Diagnostic, FileCheck};

/// Taint class bitmask: peer transport identity.
const NET: u8 = 1;
/// Taint class bitmask: account credential / user id.
const CRED: u8 = 2;

/// Names that carry peer transport identity wherever they appear.
const NET_NAMES: &[&str] =
    &["peer", "peer_ip", "peer_addr", "peer_tag_raw", "remote_addr", "remote_ip", "client_ip"];

/// Parameter types that carry peer transport identity.
const NET_TYPES: &[&str] = &["SocketAddr", "IpAddr", "Ipv4Addr", "Ipv6Addr"];

/// Names that carry account credentials wherever they appear.
const CRED_NAMES: &[&str] = &["email", "password", "raw_email", "plaintext_password"];

/// Field reads (`x.field`) that yield credential taint.
const CRED_FIELDS: &[&str] = &["author", "email", "password"];

/// Calls that clear taint from everything inside their argument list.
const SANITIZERS: &[&str] = &[
    "email_digest",
    "email_digest_unpeppered",
    "hmac_sha256",
    "pseudonym_tag",
    "pseudonymize",
    "create",        // PasswordHash::create
    "verify",        // PasswordHash::verify (constant-time compare)
    "salted_digest", // SaltedDigest construction
];

/// Print/log macros that are sinks everywhere.
const PRINT_MACROS: &[&str] = &[
    "println", "print", "eprintln", "eprint", "write", "writeln", "log", "info", "warn", "error",
    "debug", "trace",
];

/// The one file where `format!` itself is a sink (HTML response bodies).
const FORMAT_SINK_FILE: &str = "crates/server/src/web.rs";

/// Run the taint pass over every function in the file.
pub fn check(fc: &FileCheck, funcs: &[Function], out: &mut Vec<Diagnostic>) {
    let in_server = fc.path.starts_with("crates/server/");
    let mut findings = std::collections::BTreeSet::new();
    for func in funcs {
        check_function(fc, func, in_server, &mut findings);
    }
    for (line, message) in findings {
        fc.push(out, "taint", line, message);
    }
}

fn net_name(text: &str, in_server: bool) -> bool {
    in_server && NET_NAMES.contains(&text)
}

fn cred_name(text: &str) -> bool {
    CRED_NAMES.contains(&text)
}

fn class_names(mask: u8) -> &'static str {
    match (mask & NET != 0, mask & CRED != 0) {
        (true, true) => "peer-identity+credential",
        (true, false) => "peer-identity",
        _ => "credential",
    }
}

fn check_function(
    fc: &FileCheck,
    func: &Function,
    in_server: bool,
    findings: &mut std::collections::BTreeSet<(usize, String)>,
) {
    let toks = fc.tokens();
    let n = func.stmts.len();

    // Entry state: tainted parameters.
    let mut entry: BTreeMap<String, u8> = BTreeMap::new();
    for p in &func.params {
        let mut mask = 0u8;
        if in_server && p.ty.iter().any(|t| NET_TYPES.contains(&t.as_str())) {
            mask |= NET;
        }
        if net_name(&p.name, in_server) {
            mask |= NET;
        }
        if cred_name(&p.name) {
            mask |= CRED;
        }
        if mask != 0 {
            entry.insert(p.name.clone(), mask);
        }
    }

    if n == 0 {
        return;
    }

    // Flow-sensitive fixpoint: `states[i]` is the in-state of statement i.
    let mut states: Vec<Option<BTreeMap<String, u8>>> = vec![None; n];
    states[0] = Some(entry);
    let mut worklist = vec![0usize];
    let mut visits = 0usize;
    while let Some(id) = worklist.pop() {
        visits += 1;
        if visits > 16 * n + 64 {
            break; // fixpoint safety valve; state only grows, so rare
        }
        let state = states[id].clone().unwrap_or_default();
        let out_state = transfer(fc, func, id, &state, in_server);
        for &s in &func.succ[id] {
            let merged = match &states[s] {
                None => out_state.clone(),
                Some(prev) => {
                    let mut m = prev.clone();
                    let mut changed = false;
                    for (k, v) in &out_state {
                        let slot = m.entry(k.clone()).or_insert(0);
                        if *slot | *v != *slot {
                            *slot |= *v;
                            changed = true;
                        }
                    }
                    if !changed {
                        continue;
                    }
                    m
                }
            };
            states[s] = Some(merged);
            worklist.push(s);
        }
    }

    // Sink scan with the final in-states.
    for (id, state) in states.iter().enumerate() {
        let state = state.clone().unwrap_or_default();
        scan_sinks(fc, func, id, &state, in_server, findings);
    }
    let _ = toks;
}

/// Compute the out-state of statement `id` given its in-state.
fn transfer(
    fc: &FileCheck,
    func: &Function,
    id: usize,
    state: &BTreeMap<String, u8>,
    in_server: bool,
) -> BTreeMap<String, u8> {
    let stmt = &func.stmts[id];
    let toks = fc.tokens();
    let rhs_lo = stmt.rhs_lo.max(stmt.lo);
    let rhs = &toks[rhs_lo..stmt.hi.min(toks.len())];
    let (rhs_mask, _) = expr_mask(rhs, state, in_server);
    let mut out = state.clone();
    for def in &stmt.defs {
        let mut mask = rhs_mask;
        if net_name(def, in_server) {
            mask |= NET;
        }
        if cred_name(def) {
            mask |= CRED;
        }
        if mask == 0 {
            out.remove(def); // clean reassignment kills the taint
        } else {
            out.insert(def.clone(), mask);
        }
    }
    out
}

/// Taint mask of an expression token slice, with sanitizer calls'
/// argument subtrees skipped. Returns the mask and a witness token text.
fn expr_mask(
    toks: &[Token],
    state: &BTreeMap<String, u8>,
    in_server: bool,
) -> (u8, Option<String>) {
    let mut mask = 0u8;
    let mut witness = None;
    let mut k = 0usize;
    while k < toks.len() {
        let t = &toks[k];
        if t.kind == TokenKind::Ident {
            // Sanitizer call: skip its whole argument list.
            if SANITIZERS.contains(&t.text.as_str())
                && toks.get(k + 1).is_some_and(|n| n.text == "(")
            {
                k = close_of(toks, k + 1).map(|c| c + 1).unwrap_or(toks.len());
                continue;
            }
            let prev = k.checked_sub(1).map(|p| toks[p].text.as_str()).unwrap_or("");
            let mut m = 0u8;
            if prev == "." {
                if CRED_FIELDS.contains(&t.text.as_str()) {
                    m |= CRED;
                }
                if net_name(&t.text, in_server) {
                    m |= NET;
                }
            } else if prev != "::" {
                if let Some(&s) = state.get(&t.text) {
                    m |= s;
                }
                if net_name(&t.text, in_server) {
                    m |= NET;
                }
                if cred_name(&t.text) {
                    m |= CRED;
                }
            }
            if m != 0 {
                mask |= m;
                if witness.is_none() {
                    witness = Some(t.text.clone());
                }
            }
        }
        k += 1;
    }
    (mask, witness)
}

/// Index of the token closing the group opened at `open` within `toks`.
fn close_of(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Report tainted values reaching sinks inside statement `id`.
fn scan_sinks(
    fc: &FileCheck,
    func: &Function,
    id: usize,
    state: &BTreeMap<String, u8>,
    in_server: bool,
    findings: &mut std::collections::BTreeSet<(usize, String)>,
) {
    let toks = fc.tokens();
    let stmt = &func.stmts[id];
    let hi = stmt.hi.min(toks.len());
    for k in stmt.lo..hi {
        if fc.in_test(k) {
            continue;
        }
        let t = &toks[k];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next = toks.get(k + 1).map(|n| n.text.as_str()).unwrap_or("");
        let prev = k.checked_sub(1).map(|p| toks[p].text.as_str()).unwrap_or("");

        // Print/log macro sink — and `format!` in the web front end.
        let is_macro_sink = next == "!"
            && toks.get(k + 2).is_some_and(|n| n.text == "(")
            && (PRINT_MACROS.contains(&t.text.as_str())
                || (t.text == "format" && fc.path == FORMAT_SINK_FILE));
        if is_macro_sink {
            let open = k + 2;
            if let Some(close) = close_of(toks, open) {
                let args = &toks[open + 1..close];
                let (mut mask, mut witness) = expr_mask(args, state, in_server);
                // Inline captures in the format string: `{name}`.
                if let Some(lit) = args.iter().find(|t| t.kind == TokenKind::Literal) {
                    for name in inline_captures(&lit.text) {
                        let mut m = state.get(&name).copied().unwrap_or(0);
                        if net_name(&name, in_server) {
                            m |= NET;
                        }
                        if cred_name(&name) {
                            m |= CRED;
                        }
                        if m != 0 {
                            mask |= m;
                            witness.get_or_insert(name);
                        }
                    }
                }
                if mask != 0 {
                    let w = witness.unwrap_or_default();
                    findings.insert((
                        t.line,
                        format!(
                            "{} value `{}` reaches `{}!` output unpseudonymized; route it \
                             through pseudonym_tag/email_digest first (fn {})",
                            class_names(mask),
                            w,
                            t.text,
                            func.name
                        ),
                    ));
                }
            }
        }

        // Identity-keyed map sink: `.insert(tainted…)` / `.entry(tainted…)`.
        if in_server && prev == "." && (t.text == "insert" || t.text == "entry") && next == "(" {
            if let Some(close) = close_of(toks, k + 1) {
                let args = &toks[k + 2..close];
                let (mask, witness) = expr_mask(args, state, in_server);
                if mask & NET != 0 {
                    findings.insert((
                        t.line,
                        format!(
                            "peer-identity value `{}` used as a `.{}()` map key outlives the \
                             connection; key the map by a pseudonymized tag (fn {})",
                            witness.unwrap_or_default(),
                            t.text,
                            func.name
                        ),
                    ));
                }
            }
        }

        // Wire-encoding sink outside proto's own framing.
        if t.text == "write_frame" && next == "(" && !fc.path.starts_with("crates/proto/") {
            if let Some(close) = close_of(toks, k + 1) {
                let args = &toks[k + 2..close];
                let (mask, witness) = expr_mask(args, state, in_server);
                if mask != 0 {
                    findings.insert((
                        t.line,
                        format!(
                            "{} value `{}` written to the wire unpseudonymized (fn {})",
                            class_names(mask),
                            witness.unwrap_or_default(),
                            func.name
                        ),
                    ));
                }
            }
        }
    }
}

/// Identifiers captured inline by a format string literal: `{name}` and
/// `{name:spec}`; `{{` escapes and positional `{}`/`{0}` are ignored.
fn inline_captures(literal: &str) -> Vec<String> {
    let chars: Vec<char> = literal.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '{' {
            if chars.get(i + 1) == Some(&'{') {
                i += 2;
                continue;
            }
            let mut name = String::new();
            let mut j = i + 1;
            while j < chars.len() && chars[j] != '}' && chars[j] != ':' {
                name.push(chars[j]);
                j += 1;
            }
            if !name.is_empty()
                && name.chars().all(|c| c.is_alphanumeric() || c == '_')
                && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                out.push(name);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
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
    fn peer_param_printed_is_flagged() {
        let src = "fn serve(peer: SocketAddr) { println!(\"conn from {}\", peer); }";
        let d = diags("crates/server/src/tcp.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "taint");
        assert!(d[0].message.contains("peer-identity"), "{}", d[0].message);
    }

    #[test]
    fn taint_propagates_through_let_chains() {
        let src = "fn serve(peer: SocketAddr) {\n    let ip = peer.ip();\n    let s = ip.to_string();\n    eprintln!(\"{s}\");\n}";
        let d = diags("crates/server/src/tcp.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn sanitizer_clears_the_taint() {
        let src = "fn serve(db: &Db, peer: SocketAddr) {\n    let tag = db.pseudonym_tag(\"peer\", &peer.ip().to_string());\n    println!(\"conn {tag}\");\n}";
        assert!(diags("crates/server/src/tcp.rs", src).is_empty());
    }

    #[test]
    fn net_names_are_scoped_to_the_server_crate() {
        let src = "fn sim(peer: u64) { println!(\"agent {peer}\"); }";
        assert!(diags("crates/sim/src/lib.rs", src).is_empty());
    }

    #[test]
    fn author_field_in_web_format_is_flagged() {
        let src = "fn page(c: &Comment) -> String { format!(\"<li>{}</li>\", c.author) }";
        let d = diags("crates/server/src/web.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("credential"), "{}", d[0].message);
    }

    #[test]
    fn format_is_not_a_sink_outside_web_rs() {
        // Key construction in storage legitimately embeds the author.
        let src = "fn key(c: &Comment) -> String { format!(\"{}:{}\", c.software_id, c.author) }";
        assert!(diags("crates/storage/src/table.rs", src).is_empty());
    }

    #[test]
    fn net_keyed_map_insert_is_flagged() {
        let src = "fn note(m: &mut Map, peer_ip: String) { m.entry(peer_ip).or_default(); }";
        let d = diags("crates/server/src/flood.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("map key"), "{}", d[0].message);
    }

    #[test]
    fn clean_reassignment_kills_taint() {
        let src = "fn f(db: &Db, mut email: String) {\n    email = db.email_digest(&email).to_hex();\n    println!(\"{email}\");\n}";
        // The reassigned value went through a sanitizer, but the *name*
        // `email` stays a credential source: still flagged. Renaming to a
        // digest-named binding is the clean pattern.
        let d = diags("crates/core/src/db.rs", src);
        assert_eq!(d.len(), 1);
        let renamed = "fn f(db: &Db, email: String) {\n    let digest = db.email_digest(&email).to_hex();\n    println!(\"{digest}\");\n}";
        assert!(diags("crates/core/src/db.rs", renamed).is_empty());
    }

    #[test]
    fn inline_captures_parse() {
        assert_eq!(inline_captures("\"{peer} and {x:?} not {{esc}} or {}\""), ["peer", "x"]);
    }

    #[test]
    fn suppression_with_reason_silences_a_finding() {
        let src = "fn serve(peer: SocketAddr) {\n    // lint: allow(taint, \"operator debug log, gated off in release\")\n    println!(\"conn from {}\", peer);\n}";
        assert!(diags("crates/server/src/tcp.rs", src).is_empty());
    }
}
