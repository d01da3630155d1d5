//! A small hand-rolled Rust lexer — tokens, string literals, comment and
//! `#[cfg(test)]` tracking — sufficient for the pattern-matching lints in
//! [`crate::rules`]. No AST: the toolchain is pinned stable with no
//! crates-io access, so there is no syn to lean on, and none of the rules
//! need more than token sequences plus brace-scope bookkeeping.
//!
//! Guarantees the rules rely on:
//!
//! * Comments and string/char literals never leak into `Ident`/`Punct`
//!   tokens, so `unwrap` inside a doc comment is not a finding.
//! * String literal *contents* are preserved as [`Tok::Str`] (the
//!   metric-name-discipline rule reads them).
//! * Every token carries `in_test`: `true` inside an item gated by
//!   `#[cfg(test)]` or `#[test]`. Test regions are balanced brace
//!   blocks, so a rule that skips `in_test` tokens keeps consistent
//!   brace-depth bookkeeping.
//! * `// rms-analyze: allow(<rule>, "<reason>")` pragma comments are
//!   parsed out (malformed ones are reported, not ignored).

/// One lexed token's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (numbers are folded in here too — the
    /// rules only ever match known names, so the conflation is harmless).
    Ident(String),
    /// The raw contents of a string literal (escapes unresolved).
    Str(String),
    /// Any other single character.
    Punct(char),
}

/// One lexed token with its source position and test-code flag.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token payload.
    pub tok: Tok,
    /// 1-based line the token starts on.
    pub line: u32,
    /// `true` inside `#[cfg(test)]` / `#[test]` items.
    pub in_test: bool,
}

/// A parsed `// rms-analyze: allow(<rule>, "<reason>")` comment.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// The rule id being allowed.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// `true` when the comment is alone on its line (it then covers the
    /// next line instead of its own).
    pub own_line: bool,
}

/// One entry of a `// rms-analyze: atomic-policy(name: A|B, …)`
/// declaration: the atomic's field/binding name and the memory
/// orderings its accesses are allowed to use.
#[derive(Debug, Clone)]
pub struct AtomicPolicy {
    /// 1-based line of the declaring comment.
    pub line: u32,
    /// The atomic's receiver name (`state`, `shutdown`, …).
    pub name: String,
    /// The sanctioned `Ordering::` variants.
    pub orderings: Vec<String>,
}

/// The `std::sync::atomic::Ordering` variant names a policy may grant.
pub const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Everything the lexer extracted from one source file.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// The token stream, in source order.
    pub tokens: Vec<Token>,
    /// Well-formed suppression pragmas.
    pub pragmas: Vec<Pragma>,
    /// Malformed pragma comments: `(line, what is wrong)`.
    pub pragma_errors: Vec<(u32, String)>,
    /// Per-file atomic ordering policy entries, in declaration order.
    pub atomic_policies: Vec<AtomicPolicy>,
}

const PRAGMA_MARKER: &str = "rms-analyze:";

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes one Rust source file. Never fails: unterminated constructs are
/// consumed to end-of-file (the workspace compiles, so real inputs are
/// well-formed; fixtures may be fragments).
pub fn lex(src: &str) -> LexOutput {
    Lexer {
        c: src.chars().collect(),
        i: 0,
        line: 1,
        line_has_code: false,
        out: LexOutput::default(),
    }
    .run()
}

struct Lexer {
    c: Vec<char>,
    i: usize,
    line: u32,
    /// Whether a token was emitted on the current line (decides whether a
    /// pragma comment is `own_line`).
    line_has_code: bool,
    out: LexOutput,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.c.get(self.i + ahead).copied()
    }

    fn run(mut self) -> LexOutput {
        while let Some(ch) = self.peek(0) {
            match ch {
                '\n' => {
                    self.line += 1;
                    self.line_has_code = false;
                    self.i += 1;
                }
                _ if ch.is_whitespace() => self.i += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                'r' if matches!(self.peek(1), Some('"' | '#')) => self.raw_string(1),
                'b' if self.peek(1) == Some('"') => {
                    self.i += 1;
                    self.string_literal();
                }
                'b' if self.peek(1) == Some('r') && matches!(self.peek(2), Some('"' | '#')) => {
                    self.raw_string(2);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.i += 1;
                    self.char_or_lifetime();
                }
                '\'' => self.char_or_lifetime(),
                _ if is_ident_start(ch) || ch.is_ascii_digit() => self.ident(),
                _ => {
                    self.emit(Tok::Punct(ch));
                    self.i += 1;
                }
            }
        }
        mark_tests(&mut self.out.tokens);
        self.out
    }

    fn emit(&mut self, tok: Tok) {
        self.line_has_code = true;
        self.out.tokens.push(Token {
            tok,
            line: self.line,
            in_test: false,
        });
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.i += 1;
        }
        let text: String = self.c[start..self.i].iter().collect();
        self.scan_pragma(&text);
    }

    fn block_comment(&mut self) {
        self.i += 2;
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (None, _) => return,
                (Some('\n'), _) => {
                    self.line += 1;
                    self.i += 1;
                }
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.i += 2;
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.i += 2;
                }
                _ => self.i += 1,
            }
        }
    }

    /// A `"…"` literal with escapes; `self.i` is on the opening quote.
    fn string_literal(&mut self) {
        let start_line = self.line;
        self.i += 1;
        let mut content = String::new();
        while let Some(ch) = self.peek(0) {
            match ch {
                '"' => {
                    self.i += 1;
                    break;
                }
                '\\' => {
                    // Keep the escape verbatim; rules treat contents as
                    // raw text. `\u{…}` may contain braces — skip them.
                    content.push(ch);
                    self.i += 1;
                    if let Some(esc) = self.peek(0) {
                        content.push(esc);
                        self.i += 1;
                        if esc == 'u' && self.peek(0) == Some('{') {
                            while self.peek(0).is_some_and(|c| c != '}') {
                                content.push(self.c[self.i]);
                                self.i += 1;
                            }
                        }
                    }
                }
                '\n' => {
                    content.push(ch);
                    self.line += 1;
                    self.i += 1;
                }
                _ => {
                    content.push(ch);
                    self.i += 1;
                }
            }
        }
        self.line_has_code = true;
        self.out.tokens.push(Token {
            tok: Tok::Str(content),
            line: start_line,
            in_test: false,
        });
    }

    /// A raw (possibly byte) string; `skip` is the prefix length before
    /// the `#`*/`"` run (`1` for `r`, `2` for `br`).
    fn raw_string(&mut self, skip: usize) {
        let start_line = self.line;
        self.i += skip;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.i += 1;
        }
        if self.peek(0) != Some('"') {
            // `r#ident` (raw identifier), not a raw string: back out and
            // lex the identifier after the hash.
            self.ident();
            return;
        }
        self.i += 1;
        let mut content = String::new();
        'outer: while let Some(ch) = self.peek(0) {
            if ch == '"' {
                let mut matched = 0;
                while matched < hashes {
                    if self.peek(1 + matched) != Some('#') {
                        break;
                    }
                    matched += 1;
                }
                if matched == hashes {
                    self.i += 1 + hashes;
                    break 'outer;
                }
            }
            if ch == '\n' {
                self.line += 1;
            }
            content.push(ch);
            self.i += 1;
        }
        self.line_has_code = true;
        self.out.tokens.push(Token {
            tok: Tok::Str(content),
            line: start_line,
            in_test: false,
        });
    }

    /// Disambiguates `'a'` (char literal) from `'a` (lifetime); `self.i`
    /// is on the quote. Lifetimes emit nothing — no rule needs them.
    fn char_or_lifetime(&mut self) {
        match self.peek(1) {
            Some('\\') => {
                // Escaped char literal: skip to the closing quote.
                self.i += 2;
                if self.peek(0).is_some() {
                    self.i += 1; // the escaped char (or `u` of \u{…})
                }
                if self.peek(0) == Some('{') {
                    while self.peek(0).is_some_and(|c| c != '}') {
                        self.i += 1;
                    }
                    self.i += 1;
                }
                if self.peek(0) == Some('\'') {
                    self.i += 1;
                }
            }
            Some(n) if is_ident_char(n) => {
                let mut j = self.i + 1;
                while self.c.get(j).copied().is_some_and(is_ident_char) {
                    j += 1;
                }
                if self.c.get(j) == Some(&'\'') {
                    self.i = j + 1; // 'a' — char literal
                } else {
                    self.i = j; // 'a — lifetime
                }
            }
            Some(_) => {
                // Punctuation char literal like '('.
                self.i += 2;
                if self.peek(0) == Some('\'') {
                    self.i += 1;
                }
            }
            None => self.i += 1,
        }
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.peek(0).is_some_and(is_ident_char) {
            self.i += 1;
        }
        let word: String = self.c[start..self.i].iter().collect();
        self.emit(Tok::Ident(word));
    }

    /// Parses a pragma out of one line comment, if it carries the
    /// marker. The marker must be the first thing in the comment body
    /// (after the `//`/`///`/`//!` head) — prose that merely *mentions*
    /// `rms-analyze:` mid-sentence, e.g. docs describing the pragma
    /// syntax, is not a pragma.
    fn scan_pragma(&mut self, comment: &str) {
        let body = comment
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim_start();
        let Some(rest) = body.strip_prefix(PRAGMA_MARKER) else {
            return;
        };
        let own_line = !self.line_has_code;
        let line = self.line;
        let rest = rest.trim();
        let malformed = |why: &str| {
            (
                line,
                format!(
                    "{why} — expected `rms-analyze: allow(<rule>, \"<reason>\")` or \
                     `rms-analyze: atomic-policy(<name>: <Ordering>|…, …)`"
                ),
            )
        };
        if let Some(args) = rest
            .strip_prefix("atomic-policy(")
            .and_then(|r| r.strip_suffix(')'))
        {
            self.scan_atomic_policy(line, args);
            return;
        }
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.strip_suffix(')'))
        else {
            self.out.pragma_errors.push(malformed("malformed pragma"));
            return;
        };
        let Some((rule, reason)) = args.split_once(',') else {
            self.out
                .pragma_errors
                .push(malformed("pragma has no reason argument"));
            return;
        };
        let reason = reason.trim();
        let Some(reason) = reason
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .filter(|r| !r.trim().is_empty())
        else {
            self.out
                .pragma_errors
                .push(malformed("pragma reason must be a non-empty quoted string"));
            return;
        };
        self.out.pragmas.push(Pragma {
            line,
            rule: rule.trim().to_string(),
            reason: reason.to_string(),
            own_line,
        });
    }

    /// Parses the argument list of one
    /// `rms-analyze: atomic-policy(name: A|B, …)` declaration. Each
    /// comma-separated entry grants one atomic's accesses a `|`-joined
    /// set of `Ordering::` variants; anything else is a pragma error.
    fn scan_atomic_policy(&mut self, line: u32, args: &str) {
        let malformed = |why: String| {
            (
                line,
                format!("{why} — expected `rms-analyze: atomic-policy(<name>: <Ordering>|…, …)`"),
            )
        };
        for entry in args.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((name, orders)) = entry.split_once(':') else {
                self.out.pragma_errors.push(malformed(format!(
                    "atomic-policy entry `{entry}` has no `:`"
                )));
                continue;
            };
            let name = name.trim();
            if name.is_empty() || !name.chars().all(is_ident_char) {
                self.out.pragma_errors.push(malformed(format!(
                    "atomic-policy entry has a malformed atomic name `{name}`"
                )));
                continue;
            }
            let mut orderings = Vec::new();
            let mut bad = false;
            for o in orders.split('|') {
                let o = o.trim();
                if ATOMIC_ORDERINGS.contains(&o) {
                    orderings.push(o.to_string());
                } else {
                    self.out.pragma_errors.push(malformed(format!(
                        "`{o}` is not a memory ordering (known: {})",
                        ATOMIC_ORDERINGS.join(", ")
                    )));
                    bad = true;
                }
            }
            if !bad && !orderings.is_empty() {
                self.out.atomic_policies.push(AtomicPolicy {
                    line,
                    name: name.to_string(),
                    orderings,
                });
            }
        }
    }
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` items. An attribute is
/// test-gating when its content is exactly `test` or starts with
/// `cfg(test` — deliberately *not* matching `cfg(not(test))`. The gated
/// region is the next balanced `{…}` block (an attribute reaching `;`
/// first — e.g. `#[cfg(test)] mod tests;` — gates nothing in this file).
fn mark_tests(tokens: &mut [Token]) {
    let mut depth = 0u32;
    let mut test_regions: Vec<u32> = Vec::new();
    let mut pending_gate = false;
    let mut i = 0;
    while i < tokens.len() {
        let in_test = !test_regions.is_empty();
        match &tokens[i].tok {
            Tok::Punct('#') => {
                tokens[i].in_test = in_test;
                // `#[…]` (or inner `#![…]`): collect the attribute's
                // tokens to its matching `]`.
                let mut j = i + 1;
                if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('!'))) {
                    j += 1;
                }
                if !matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('['))) {
                    i = j;
                    continue;
                }
                let mut brackets = 0u32;
                let mut content: Vec<Tok> = Vec::new();
                while j < tokens.len() {
                    tokens[j].in_test = in_test;
                    match tokens[j].tok {
                        Tok::Punct('[') => brackets += 1,
                        Tok::Punct(']') => {
                            brackets -= 1;
                            if brackets == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if brackets == 1 && !matches!(tokens[j].tok, Tok::Punct('[')) {
                        content.push(tokens[j].tok.clone());
                    }
                    j += 1;
                }
                if is_test_gate(&content) {
                    pending_gate = true;
                }
                i = j + 1;
                continue;
            }
            Tok::Punct('{') => {
                depth += 1;
                if pending_gate {
                    test_regions.push(depth);
                    pending_gate = false;
                }
                tokens[i].in_test = !test_regions.is_empty();
            }
            Tok::Punct('}') => {
                tokens[i].in_test = !test_regions.is_empty();
                if test_regions.last() == Some(&depth) {
                    test_regions.pop();
                }
                depth = depth.saturating_sub(1);
            }
            Tok::Punct(';') if pending_gate => {
                // `#[cfg(test)] mod tests;` — the gated code lives in
                // another file; nothing to mark here.
                pending_gate = false;
                tokens[i].in_test = in_test;
            }
            _ => tokens[i].in_test = in_test,
        }
        i += 1;
    }
}

fn is_test_gate(content: &[Tok]) -> bool {
    match content {
        [Tok::Ident(test)] => test == "test",
        [Tok::Ident(cfg), Tok::Punct('('), Tok::Ident(test), rest @ ..] => {
            cfg == "cfg"
                && test == "test"
                && matches!(rest.first(), Some(Tok::Punct(')' | ',')) | None)
        }
        _ => false,
    }
}
