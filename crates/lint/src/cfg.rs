//! A lightweight control-flow model over the token stream.
//!
//! The dataflow passes (`taint`, `lockorder`, `guard-io`) need more
//! structure than flat tokens but far less than a real Rust parse: which
//! statements make up a function, how its blocks nest, what each
//! statement defines and uses, and which statement can execute after
//! which. This module recovers exactly that, heuristically, from
//! [`crate::lexer`] output:
//!
//! * **Functions** — every `fn name(params) { body }` with its parameter
//!   names and type tokens.
//! * **Statements** — token ranges split on `;`, with nested `{}` blocks
//!   attached as child scopes (block expressions, loop/if/match bodies,
//!   closure bodies). Struct literals are recognised by their leading
//!   context and kept inline rather than opened as scopes.
//! * **Def-use** — `let` patterns, `for` bindings, match-arm patterns,
//!   closure parameters, and plain `x = …` reassignments define names;
//!   everything else that mentions a name uses it.
//! * **CFG edges** — successor edges in pre-order statement numbering,
//!   with loop back-edges, so a pass can run a worklist to fixpoint.
//!
//! The model is deliberately conservative: when brace disambiguation
//! guesses wrong the result is a coarser statement, never a missed token,
//! so downstream passes degrade toward over-approximation (more taint,
//! longer guard scopes) rather than silence.

use crate::lexer::{Token, TokenKind};

/// Keywords that can start a block-bearing statement.
const CONTROL_KEYWORDS: &[&str] = &["if", "for", "while", "loop", "match", "unsafe", "else"];

/// One function body, flattened for dataflow.
pub struct Function {
    /// Function name.
    pub name: String,
    /// Declared parameters, in order.
    pub params: Vec<Param>,
    /// Statements in pre-order; `stmts[0]` is the entry.
    pub stmts: Vec<Stmt>,
    /// Successor edges: `succ[i]` lists statement ids reachable after `i`.
    pub succ: Vec<Vec<usize>>,
    /// Token index (into the file's token stream) of the `fn` keyword.
    pub fn_token: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

/// One declared parameter.
pub struct Param {
    /// Binding name (`_`-prefixed names included; `self` excluded).
    pub name: String,
    /// The tokens of the declared type, as text.
    pub ty: Vec<String>,
}

/// One statement: a token range plus derived dataflow facts.
pub struct Stmt {
    /// Inclusive start token index (into the file's token stream).
    pub lo: usize,
    /// Exclusive end token index.
    pub hi: usize,
    /// 1-based line of the first token.
    pub line: usize,
    /// Names this statement binds (let/for/arm patterns, closure params,
    /// plain reassignment targets).
    pub defs: Vec<String>,
    /// Token index (absolute) where the statement's value expression
    /// starts: after `=` for `let`, after `in` for `for`, after `=>` for
    /// arms; `lo` otherwise.
    pub rhs_lo: usize,
    /// Pre-order id of the parent statement (the header whose block this
    /// statement lives in), if any.
    pub parent: Option<usize>,
    /// Last pre-order id in this statement's subtree (itself when it has
    /// no children). `[id, subtree_end]` is the contiguous id range of
    /// the statement plus everything nested under it.
    pub subtree_end: usize,
    /// Last pre-order id of the *enclosing scope's* subtree: the point at
    /// which bindings introduced by this statement go out of scope.
    pub scope_end: usize,
    /// True when the statement is a loop header (`for`/`while`/`loop`).
    pub is_loop: bool,
}

impl Stmt {
    /// The statement's tokens within `toks` (the file's token stream).
    pub fn tokens<'t>(&self, toks: &'t [Token]) -> &'t [Token] {
        &toks[self.lo..self.hi.min(toks.len())]
    }
}

/// Extract every function body from `toks`. `skip` receives the token
/// index of each `fn` keyword and returns true to skip that function
/// (used to exempt `#[cfg(test)]` ranges).
pub fn functions(toks: &[Token], skip: &dyn Fn(usize) -> bool) -> Vec<Function> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident && toks[i].text == "fn" && !skip(i) {
            if let Some((func, next)) = parse_function(toks, i) {
                i = next;
                out.push(func);
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parse `fn name …(params) … { body }` starting at the `fn` keyword.
/// Returns the function and the index just past its closing brace.
fn parse_function(toks: &[Token], fn_idx: usize) -> Option<(Function, usize)> {
    let name_tok = toks.get(fn_idx + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    // Find the parameter list's `(`, skipping a generic parameter list.
    let mut i = fn_idx + 2;
    let mut angle = 0i32;
    loop {
        let t = toks.get(i)?;
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2, // `Vec<Vec<u8>>` closes two levels at once
            "(" if angle <= 0 => break,
            ";" | "{" => return None, // malformed or not a normal fn
            _ => {}
        }
        i += 1;
    }
    let params_lo = i + 1;
    let params_hi = matching_close(toks, i)?;
    let params = parse_params(&toks[params_lo..params_hi]);

    // Body: the next `{` at angle depth 0 before a `;` (a `;` first means
    // a trait method declaration without a body).
    let mut j = params_hi + 1;
    loop {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "{" => break,
            ";" => return None,
            _ => {}
        }
        j += 1;
    }

    let mut b = Builder { toks, stmts: Vec::new() };
    let body_end = b.parse_scope(j + 1, None);
    let mut func = Function {
        name: name_tok.text.clone(),
        params,
        stmts: b.stmts,
        succ: Vec::new(),
        fn_token: fn_idx,
        line: toks[fn_idx].line,
    };
    finalize(&mut func);
    Some((func, body_end))
}

/// Split a parameter token slice on top-level commas; each parameter is
/// `pattern [: type]`. `self` receivers are dropped.
fn parse_params(toks: &[Token]) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut pieces = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            ">>" => depth -= 2,
            "," if depth == 0 => {
                pieces.push(&toks[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        pieces.push(&toks[start..]);
    }
    for piece in pieces {
        let colon = piece.iter().position(|t| t.text == ":");
        let (pat, ty) = match colon {
            Some(c) => (&piece[..c], &piece[c + 1..]),
            None => (piece, &piece[piece.len()..]),
        };
        let Some(name) =
            pat.iter().rev().find(|t| t.kind == TokenKind::Ident && !is_pattern_keyword(&t.text))
        else {
            continue;
        };
        if name.text == "self" {
            continue;
        }
        params.push(Param {
            name: name.text.clone(),
            ty: ty.iter().map(|t| t.text.clone()).collect(),
        });
    }
    params
}

fn is_pattern_keyword(s: &str) -> bool {
    matches!(s, "mut" | "ref" | "dyn" | "impl" | "move")
}

/// Index of the token closing the delimiter opened at `open` (matching
/// `(`/`[`/`{` nesting as one family).
fn matching_close(toks: &[Token], open: usize) -> Option<usize> {
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

struct Builder<'t> {
    toks: &'t [Token],
    stmts: Vec<Stmt>,
}

impl Builder<'_> {
    /// Parse statements from `i` until the scope's closing `}`. Returns
    /// the index just past that `}`. Appends statements in pre-order;
    /// `parent` is the id of the header statement owning this scope.
    fn parse_scope(&mut self, mut i: usize, parent: Option<usize>) -> usize {
        while i < self.toks.len() {
            if self.toks[i].text == "}" {
                return i + 1;
            }
            i = self.parse_stmt(i, parent);
        }
        i
    }

    /// Parse one statement starting at `i`; returns the index just past
    /// it. Child scopes recurse, keeping pre-order ids.
    fn parse_stmt(&mut self, start: usize, parent: Option<usize>) -> usize {
        let id = self.stmts.len();
        let first = self.toks[start].text.clone();
        let is_control = CONTROL_KEYWORDS.contains(&first.as_str());
        self.stmts.push(Stmt {
            lo: start,
            hi: start, // patched below
            line: self.toks[start].line,
            defs: Vec::new(),
            rhs_lo: start,
            parent,
            subtree_end: id,
            scope_end: id,
            is_loop: matches!(first.as_str(), "for" | "while" | "loop"),
        });

        let mut i = start;
        let mut depth = 0i32; // ( [ nesting and inline (struct-literal) braces
        let mut header_tokens_hi = None; // set when the first child opens
        let mut saw_arrow = false; // a top-level `=>`: this is a match arm
        while i < self.toks.len() {
            let text = self.toks[i].text.as_str();
            match text {
                ";" if depth == 0 => {
                    i += 1;
                    break;
                }
                "=>" if depth == 0 => {
                    saw_arrow = true;
                    i += 1;
                }
                "," if depth == 0 && saw_arrow => {
                    // End of an expression-bodied match arm.
                    i += 1;
                    break;
                }
                "(" | "[" => {
                    depth += 1;
                    i += 1;
                }
                ")" | "]" => {
                    if depth == 0 {
                        break; // closes an enclosing delimiter; not ours
                    }
                    depth -= 1;
                    i += 1;
                }
                "{" => {
                    if self.opens_scope(start, i, is_control, depth) {
                        if header_tokens_hi.is_none() {
                            header_tokens_hi = Some(i);
                        }
                        i = self.parse_scope(i + 1, Some(id));
                        if depth == 0 && saw_arrow {
                            // Block-bodied match arm: done (skip a
                            // trailing comma so the next arm starts clean).
                            if self.toks.get(i).is_some_and(|t| t.text == ",") {
                                i += 1;
                            }
                            break;
                        }
                        // A control statement ends right after its block
                        // unless an `else`/`else if` chain continues it.
                        if depth == 0
                            && is_control
                            && self.toks.get(i).is_none_or(|t| t.text != "else")
                        {
                            break;
                        }
                    } else {
                        // Struct literal (or similar): swallow it inline.
                        match matching_close(self.toks, i) {
                            Some(close) => i = close + 1,
                            None => i = self.toks.len(),
                        }
                    }
                }
                "}" => break, // end of enclosing scope
                _ => i += 1,
            }
        }

        let stmt = &mut self.stmts[id];
        stmt.hi = header_tokens_hi.unwrap_or(i).max(start + 1);
        let subtree_end = self.stmts.len() - 1;
        self.stmts[id].subtree_end = subtree_end;
        self.derive_defs(id);
        i
    }

    /// Should the `{` at `brace` open a child scope? Block expressions,
    /// control bodies, and closure bodies do; struct literals do not.
    fn opens_scope(&self, stmt_start: usize, brace: usize, is_control: bool, depth: i32) -> bool {
        if brace == stmt_start {
            return true; // bare block statement
        }
        let prev = &self.toks[brace - 1].text;
        if matches!(
            prev.as_str(),
            "=" | "=>"
                | "("
                | ","
                | "{"
                | ";"
                | "||"
                | "|"
                | "else"
                | "return"
                | "->"
                | "unsafe"
                | "move"
                | "loop"
                | "try"
                | "async"
                | "&&"
        ) {
            return true;
        }
        // `if cond {`, `for x in xs {`, `while c {`, `match v {`: the first
        // brace of a control statement at top level is its body even though
        // the preceding token is an expression.
        is_control && depth == 0
    }

    /// Populate `defs` and `rhs_lo` for statement `id` from its tokens.
    fn derive_defs(&mut self, id: usize) {
        let (lo, hi) = (self.stmts[id].lo, self.stmts[id].hi);
        let toks = &self.toks[lo..hi];
        let mut defs = Vec::new();
        let mut rhs_lo = lo;

        let first = toks.first().map(|t| t.text.as_str()).unwrap_or("");
        if first == "let" || ((first == "if" || first == "while") && nth_text(toks, 1) == "let") {
            let pat_start = if first == "let" { 1 } else { 2 };
            if let Some(eq) = top_level_position(toks, "=") {
                defs.extend(pattern_defs(&toks[pat_start..eq]));
                rhs_lo = lo + eq + 1;
            } else {
                defs.extend(pattern_defs(&toks[pat_start..]));
            }
        } else if first == "for" {
            if let Some(in_pos) = top_level_position(toks, "in") {
                defs.extend(pattern_defs(&toks[1..in_pos]));
                rhs_lo = lo + in_pos + 1;
            }
        } else if let Some(arrow) = top_level_position(toks, "=>") {
            // A match arm: pattern before `=>`, expression after.
            defs.extend(pattern_defs(&toks[..arrow]));
            rhs_lo = lo + arrow + 1;
        } else if toks.len() >= 2
            && toks[0].kind == TokenKind::Ident
            && matches!(toks[1].text.as_str(), "=" | "+=" | "-=" | "*=" | "/=" | "%=")
        {
            // Plain reassignment `x = …`: redefines x (kill or re-gen).
            defs.push(toks[0].text.clone());
            rhs_lo = lo + 2;
        }

        // Closure parameters bind inside this statement: `|a, b|` after an
        // opening context. They scope to the closure only, but treating
        // them as statement-level defs keeps the model simple and errs
        // toward propagating taint, not hiding it.
        let mut k = 0usize;
        while k + 1 < toks.len() {
            if toks[k].text == "|"
                && (k == 0
                    || matches!(toks[k - 1].text.as_str(), "(" | "," | "=" | "move" | "=>" | "{"))
            {
                if let Some(close) = toks[k + 1..].iter().position(|t| t.text == "|") {
                    defs.extend(pattern_defs(&toks[k + 1..k + 1 + close]));
                    k += close + 1;
                }
            }
            k += 1;
        }

        self.stmts[id].defs = defs;
        self.stmts[id].rhs_lo = rhs_lo;
    }
}

fn nth_text(toks: &[Token], n: usize) -> &str {
    toks.get(n).map(|t| t.text.as_str()).unwrap_or("")
}

/// Position of `needle` at delimiter depth 0 within `toks`.
fn top_level_position(toks: &[Token], needle: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            s if s == needle && depth == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// Names bound by a pattern token slice. At depth 0, `name: Type` keeps
/// `name` and skips the type; at depth > 0 (struct patterns) an ident
/// followed by `:` is a field name, not a binding. Path segments
/// (`Some(…)`, `Request::Ping`) and keywords never bind.
fn pattern_defs(toks: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_type = false;
    for (k, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            ":" if depth == 0 => in_type = true,
            "," if depth == 0 => in_type = false,
            _ => {
                if in_type || t.kind != TokenKind::Ident {
                    continue;
                }
                let text = t.text.as_str();
                if is_pattern_keyword(text) || text == "self" || text == "_" {
                    continue;
                }
                let next = toks.get(k + 1).map(|t| t.text.as_str()).unwrap_or("");
                let prev = k.checked_sub(1).map(|p| toks[p].text.as_str()).unwrap_or("");
                // `Foo(` / `Foo::` / `foo!` are paths or macros, not
                // bindings; `field: x` inside braces binds x, not field.
                if next == "(" || next == "::" || next == "!" || prev == "::" {
                    continue;
                }
                if depth > 0 && next == ":" {
                    continue;
                }
                out.push(t.text.clone());
            }
        }
    }
    out
}

/// Fill in `scope_end` and the successor edges once all statements exist.
fn finalize(func: &mut Function) {
    let n = func.stmts.len();
    // Group statements by (parent, direct membership): a statement's
    // siblings share its parent and are not nested inside an intermediate
    // statement's subtree.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n + 1]; // index n = root
    for id in 0..n {
        let slot = func.stmts[id].parent.unwrap_or(n);
        // Only direct statements of the scope: their parent matches and no
        // sibling's subtree already contains them (pre-order guarantees a
        // direct child follows its parent before any other scope closes).
        children[slot].push(id);
    }
    // The `children` lists currently include *every* descendant that names
    // `slot` as parent — which is exactly the set of direct statements of
    // that statement's child scopes (nested statements name their own
    // header as parent), so they are siblings already.

    // scope_end: last id of the enclosing scope's subtree.
    for members in &children {
        if members.is_empty() {
            continue;
        }
        let scope_last = members
            .iter()
            .map(|&m| func.stmts[m].subtree_end)
            .max()
            .unwrap_or_else(|| members[members.len() - 1]);
        for &m in members {
            func.stmts[m].scope_end = scope_last;
        }
    }

    // Successor edges.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for members in &children {
        for (k, &m) in members.iter().enumerate() {
            if let Some(&next) = members.get(k + 1) {
                succ[m].push(next);
            }
        }
    }
    for id in 0..n {
        // Header → first statement of its block(s); block tails → after
        // the header (and back to the header for loops).
        let kids: Vec<usize> = children[id].clone();
        if kids.is_empty() {
            continue;
        }
        let first = kids[0];
        succ[id].push(first);
        let last = *kids.last().unwrap_or(&first);
        let tail = func.stmts[last].subtree_end.max(last);
        let after: Option<usize> = {
            // The statement executed after this header completes: its
            // sibling successor, found in the already-built edges.
            succ[id].iter().copied().find(|&s| s != first)
        };
        if func.stmts[id].is_loop {
            succ[tail].push(id); // back edge
        } else if let Some(after) = after {
            if tail != id {
                succ[tail].push(after);
            }
        }
    }
    func.succ = succ;
}

/// The nearest statement at or before `id` (searching backward in
/// pre-order) that defines `name` — the def a use at `id` resolves to.
pub fn resolve_def(func: &Function, name: &str, id: usize) -> Option<usize> {
    (0..=id).rev().find(|&d| func.stmts[d].defs.iter().any(|n| n == name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Function> {
        let lexed = lex(src);
        functions(&lexed.tokens, &|_| false)
    }

    #[test]
    fn finds_functions_and_params() {
        let fns = parse("fn a(x: u32, peer: SocketAddr) {} fn b(&self, s: &str) -> u8 { 0 }");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        let names: Vec<_> = fns[0].params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["x", "peer"]);
        assert_eq!(fns[0].params[1].ty, ["SocketAddr"]);
        assert_eq!(fns[1].params.len(), 1, "self receiver is dropped");
    }

    #[test]
    fn statements_split_on_semicolons_and_blocks_nest() {
        let fns = parse("fn f() { let a = 1; if a > 0 { let b = a; } let c = 2; }");
        let f = &fns[0];
        // let a; if-header; let b (child); let c.
        assert_eq!(f.stmts.len(), 4);
        assert_eq!(f.stmts[2].parent, Some(1));
        assert_eq!(f.stmts[0].defs, ["a"]);
        assert_eq!(f.stmts[2].defs, ["b"]);
        assert_eq!(f.stmts[3].defs, ["c"]);
    }

    #[test]
    fn struct_literals_do_not_open_scopes() {
        let fns = parse("fn f() { let p = Point { x: 1, y: 2 }; let q = 3; }");
        let f = &fns[0];
        assert_eq!(f.stmts.len(), 2);
        assert_eq!(f.stmts[0].defs, ["p"]);
    }

    #[test]
    fn block_expression_assignment_opens_a_scope() {
        let fns = parse("fn f() { let v = { let g = a.lock(); g.len() }; use_it(v); }");
        let f = &fns[0];
        // let v (header) → let g, g.len() expr; then use_it.
        assert!(f.stmts.len() >= 3);
        assert_eq!(f.stmts[0].defs, ["v"]);
        assert_eq!(f.stmts[1].parent, Some(0));
        assert_eq!(f.stmts[1].defs, ["g"]);
        // g's scope ends inside the block, before use_it runs.
        let use_it = f.stmts.iter().position(|s| s.parent.is_none() && s.lo > f.stmts[0].lo);
        let use_it = use_it.expect("top-level statement after the block");
        assert!(f.stmts[1].scope_end < use_it);
    }

    #[test]
    fn for_loops_bind_their_pattern_and_back_edge() {
        let fns = parse(
            "fn f(xs: Vec<u32>) { for (i, x) in xs.iter().enumerate() { touch(x); } done(); }",
        );
        let f = &fns[0];
        let header = &f.stmts[0];
        assert!(header.is_loop);
        assert_eq!(header.defs, ["i", "x"]);
        // Back edge from the loop body tail to the header.
        assert!(f.succ[1].contains(&0), "succ of body: {:?}", f.succ);
    }

    #[test]
    fn match_arms_bind_patterns() {
        let fns = parse(
            "fn f(r: Res) { match r { Ok((stream, peer)) => { use2(stream, peer); } Err(e) => drop(e), } }",
        );
        let f = &fns[0];
        let arm = f.stmts.iter().find(|s| s.defs.contains(&"peer".to_string()));
        let arm = arm.expect("arm pattern binds peer");
        assert!(arm.defs.contains(&"stream".to_string()));
        let err_arm = f.stmts.iter().find(|s| s.defs.contains(&"e".to_string()));
        assert!(err_arm.is_some(), "second arm binds e");
    }

    #[test]
    fn closure_params_are_defs() {
        let fns = parse(
            "fn f(v: Vec<L>) { let g: Vec<_> = v.iter().map(|lock| lock.write()).collect(); }",
        );
        let f = &fns[0];
        assert!(f.stmts[0].defs.contains(&"g".to_string()));
        assert!(f.stmts[0].defs.contains(&"lock".to_string()));
    }

    #[test]
    fn reassignment_is_a_def() {
        let fns = parse("fn f() { let mut x = taint(); x = clean(); }");
        let f = &fns[0];
        assert_eq!(f.stmts[1].defs, ["x"]);
    }

    #[test]
    fn resolve_def_finds_nearest_earlier_binding() {
        let fns = parse("fn f() { let x = 1; let y = x; let x = 2; let z = x; }");
        let f = &fns[0];
        assert_eq!(resolve_def(f, "x", 1), Some(0));
        assert_eq!(resolve_def(f, "x", 3), Some(2));
        assert_eq!(resolve_def(f, "nope", 3), None);
    }

    #[test]
    fn else_chain_stays_one_statement() {
        let fns = parse("fn f(a: u32) { if a > 1 { one(); } else if a > 0 { two(); } else { three(); } after(); }");
        let f = &fns[0];
        let top: Vec<usize> = (0..f.stmts.len()).filter(|&i| f.stmts[i].parent.is_none()).collect();
        assert_eq!(top.len(), 2, "if-else chain plus after(): {:?}", top);
    }

    #[test]
    fn closure_body_inside_call_is_a_child_scope() {
        let fns = parse("fn f(p: P) { pool.spawn(p, move || { work(); more(); }); tail(); }");
        let f = &fns[0];
        assert!(f.stmts.iter().any(|s| s.parent == Some(0)), "closure body statements nest");
        let tail = f.stmts.iter().find(|s| s.parent.is_none() && s.lo > f.stmts[0].lo);
        assert!(tail.is_some(), "tail() is a top-level statement");
    }
}
