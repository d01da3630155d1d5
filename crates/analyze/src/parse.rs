//! A lightweight block-tree parser over the lexer's token stream: the
//! structural layer between [`crate::lexer`] (flat tokens) and
//! [`crate::flow`] (dataflow). It recovers just enough shape for the
//! flow-sensitive rules — functions with parameter-list and body spans,
//! nested brace scopes, and statement spans within each scope — without
//! attempting real Rust parsing (no AST, no dependencies).
//!
//! Guarantees:
//!
//! * Never panics and always terminates, on arbitrary input — including
//!   unbalanced braces and byte soup (the lexer already guarantees the
//!   same; a proptest pins both). Unterminated scopes close at
//!   end-of-file.
//! * Every `{…}` pair becomes a [`Scope`]; `fn name` items at any
//!   nesting depth become [`Function`]s pointing at their body scope.
//!   Struct literals and match bodies also read as scopes — harmless
//!   over-approximation for guard-lifetime tracking (a guard bound in a
//!   brace region does die at its `}`).

use crate::lexer::{Tok, Token};

/// One `fn` item recovered from the token stream.
#[derive(Debug)]
pub struct Function {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub kw: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `true` when the `fn` keyword sits in a `#[cfg(test)]`/`#[test]`
    /// region — flow analysis skips these functions entirely.
    pub in_test: bool,
    /// Token index range of the parameter list, *inside* the parens
    /// (`params.0..params.1`, exclusive of the parens themselves).
    pub params: (usize, usize),
    /// Index into [`BlockTree::scopes`] of the body scope, or `None`
    /// for bodyless declarations (trait methods, `extern` items).
    pub body: Option<usize>,
}

/// One brace scope: `tokens[start] == '{'`, `tokens[end] == '}'` (or
/// `end == tokens.len()` when the file ends inside the scope).
#[derive(Debug)]
pub struct Scope {
    /// Token index of the opening `{`.
    pub start: usize,
    /// Token index of the matching `}` (or `tokens.len()` if unclosed).
    pub end: usize,
    /// Indices into [`BlockTree::scopes`] of directly nested scopes, in
    /// source order.
    pub children: Vec<usize>,
    /// Statement spans `lo..hi` (token indices, `hi` exclusive) at this
    /// scope's direct level: split at `;` and at child-scope closes.
    /// Child-scope interiors are not included in any parent statement.
    pub stmts: Vec<(usize, usize)>,
}

/// The parsed structure of one file: a scope arena plus the functions
/// found at any depth.
#[derive(Debug, Default)]
pub struct BlockTree {
    /// All scopes, in opening order. Index 0 onwards; scopes reference
    /// each other (and functions reference scopes) by index.
    pub scopes: Vec<Scope>,
    /// All `fn` items, in source order.
    pub functions: Vec<Function>,
}

fn is_punct(t: Option<&Token>, ch: char) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Punct(c)) if *c == ch)
}

/// Parses the token stream of one file into its block tree.
pub fn parse(tokens: &[Token]) -> BlockTree {
    let mut tree = BlockTree::default();
    build_scopes(tokens, &mut tree);
    find_functions(tokens, &mut tree);
    tree
}

/// Builds the scope arena with an explicit stack (no recursion), and
/// fills each scope's direct statement spans.
fn build_scopes(tokens: &[Token], tree: &mut BlockTree) {
    // Stack of (scope id, current statement start).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.tok {
            Tok::Punct('{') => {
                let id = tree.scopes.len();
                tree.scopes.push(Scope {
                    start: i,
                    end: tokens.len(),
                    children: Vec::new(),
                    stmts: Vec::new(),
                });
                if let Some(&(parent, stmt_lo)) = stack.last() {
                    tree.scopes[parent].children.push(id);
                    // The tokens before the `{` head the child scope
                    // (an `if cond {`, a `match x {`, …): close that
                    // partial span so it never swallows the child.
                    if stmt_lo < i {
                        tree.scopes[parent].stmts.push((stmt_lo, i));
                    }
                }
                stack.push((id, i + 1));
            }
            Tok::Punct('}') => {
                if let Some((id, stmt_lo)) = stack.pop() {
                    if stmt_lo < i {
                        tree.scopes[id].stmts.push((stmt_lo, i));
                    }
                    tree.scopes[id].end = i;
                    // A child close is a statement boundary in the parent.
                    if let Some(top) = stack.last_mut() {
                        top.1 = i + 1;
                    }
                }
                // Stray `}` with no open scope: ignored (unbalanced input).
            }
            Tok::Punct(';') => {
                if let Some(top) = stack.last_mut() {
                    if top.1 <= i {
                        let span = (top.1, i + 1);
                        tree.scopes[top.0].stmts.push(span);
                        top.1 = i + 1;
                    }
                }
            }
            _ => {}
        }
    }
    // Unterminated scopes: flush their trailing partial statement.
    while let Some((id, stmt_lo)) = stack.pop() {
        if stmt_lo < tokens.len() {
            tree.scopes[id].stmts.push((stmt_lo, tokens.len()));
        }
    }
}

/// Finds every `fn name` item and attaches its parameter span and body
/// scope. Skips the signature (generics, parameters, return type,
/// `where` clause) structurally rather than grammatically — good enough
/// to land on the body `{` for real Rust, and merely lossy on soup.
fn find_functions(tokens: &[Token], tree: &mut BlockTree) {
    // `{`-index → scope id, for body attachment.
    let by_start: std::collections::BTreeMap<usize, usize> = tree
        .scopes
        .iter()
        .enumerate()
        .map(|(id, s)| (s.start, id))
        .collect();
    let mut i = 0;
    while i < tokens.len() {
        let Tok::Ident(kw) = &tokens[i].tok else {
            i += 1;
            continue;
        };
        if kw != "fn" {
            i += 1;
            continue;
        }
        let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) else {
            i += 1;
            continue;
        };
        let line = tokens[i].line;
        let in_test = tokens[i].in_test;
        let mut j = i + 2;
        // Generic parameters: skip `<…>`, treating `->`'s `>` as an
        // arrow, not a closer (bounds like `F: Fn() -> u32` appear here).
        if is_punct(tokens.get(j), '<') {
            let mut angle = 0i32;
            while j < tokens.len() {
                match tokens[j].tok {
                    Tok::Punct('<') => angle += 1,
                    Tok::Punct('>') if !is_punct(tokens.get(j.wrapping_sub(1)), '-') => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !is_punct(tokens.get(j), '(') {
            i += 1;
            continue;
        }
        // Parameter list: to the matching `)`.
        let params_lo = j + 1;
        let mut paren = 0i32;
        while j < tokens.len() {
            match tokens[j].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => {
                    paren -= 1;
                    if paren == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let params_hi = j.min(tokens.len());
        // Return type / where clause: scan to the body `{` or a `;`
        // (bodyless declaration) at zero paren/bracket nesting.
        let mut body = None;
        let mut nest = 0i32;
        let mut k = params_hi.saturating_add(1);
        while k < tokens.len() {
            match tokens[k].tok {
                Tok::Punct('(' | '[') => nest += 1,
                Tok::Punct(')' | ']') => nest -= 1,
                Tok::Punct('{') if nest <= 0 => {
                    body = by_start.get(&k).copied();
                    break;
                }
                Tok::Punct(';') if nest <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        tree.functions.push(Function {
            name: name.clone(),
            kw: i,
            line,
            in_test,
            params: (params_lo, params_hi),
            body,
        });
        i = params_hi.max(i + 2);
    }
}
