//! The rule implementations. Each rule is a pure function from a lexed
//! token stream to findings; scoping (which files a rule runs over) and
//! pragma suppression live in [`crate`].
//!
//! All rules skip tokens marked `in_test` — test code may unwrap, hold
//! guards across asserts, and spell malformed wire lines on purpose.

use crate::lexer::{AtomicPolicy, Tok, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One rule violation (or pragma-hygiene problem), printable as
/// `file:line rule-id message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule id (`guard-across-blocking`, `lock-order`, …, or `pragma`).
    pub rule: &'static str,
    /// What is wrong and what to do about it.
    pub msg: String,
}

impl Finding {
    /// A finding at `file:line` under `rule`.
    pub fn new(file: &Path, line: u32, rule: &'static str, msg: String) -> Self {
        Finding {
            file: file.to_path_buf(),
            line,
            rule,
            msg,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// Rule id for [`crate::flow::guard_across_blocking`].
pub const RULE_GUARD: &str = "guard-across-blocking";
/// Rule id for [`unwrap_nontest`].
pub const RULE_UNWRAP: &str = "unwrap-nontest";
/// Rule id for [`lock_poison_policy`].
pub const RULE_POISON: &str = "lock-poison-policy";
/// Rule id for [`index_no_box_node`].
pub const RULE_BOXNODE: &str = "index-no-box-node";
/// Rule id for [`metric_name_discipline`].
pub const RULE_METRIC: &str = "metric-name-discipline";
/// Rule id for [`crate::flow::lock_order`].
pub const RULE_LOCKORDER: &str = "lock-order";
/// Rule id for [`atomic_ordering_discipline`].
pub const RULE_ATOMIC: &str = "atomic-ordering-discipline";
/// Rule id for [`crate::flow::reactor_no_block`].
pub const RULE_REACTOR: &str = "reactor-no-block";
/// Pseudo-rule id for pragma hygiene findings (malformed, unknown rule,
/// unused) — not allowable by pragma, on purpose.
pub const RULE_PRAGMA: &str = "pragma";

/// Every real (pragma-allowable) rule id.
pub const ALL_RULES: &[&str] = &[
    RULE_GUARD,
    RULE_UNWRAP,
    RULE_POISON,
    RULE_BOXNODE,
    RULE_METRIC,
    RULE_LOCKORDER,
    RULE_ATOMIC,
    RULE_REACTOR,
];

/// One-line description per rule, in [`ALL_RULES`] order — the source
/// of truth behind `--list-rules` and the README rule table (a
/// doc-drift test pins the two together). Keep these single-line and
/// free of `|` so they can sit in a Markdown table cell.
pub const RULE_DESCRIPTIONS: &[(&str, &str)] = &[
    (
        RULE_GUARD,
        "a `let`-bound lock guard must not stay alive across a blocking call — directly, \
         or through a local function the may-block fixpoint marks blocking; unbounded \
         `Sender::send` is exempt",
    ),
    (
        RULE_UNWRAP,
        "no `.unwrap()` / `.expect(…)` / `panic!`-family macros in non-test code; the \
         serving layer degrades, it does not die",
    ),
    (
        RULE_POISON,
        "lock-acquisition results go through `recover_poisoned`, never ad-hoc \
         `.unwrap()`-style poison handling",
    ),
    (
        RULE_BOXNODE,
        "no `Box<…>` / `Box::new(…)` in index code; the trees are flat struct-of-arrays \
         layouts",
    ),
    (
        RULE_METRIC,
        "metric names are string literals, `rms_<subsystem>_` snake_case, each family \
         registered from exactly one site",
    ),
    (
        RULE_LOCKORDER,
        "the global lock-acquisition-order graph over `crates/serve/src` must stay \
         acyclic; a cycle is a potential deadlock, reported with each edge's witness \
         sites",
    ),
    (
        RULE_ATOMIC,
        "every `Ordering::` use in serve and metrics code must match the file's declared \
         `atomic-policy(…)` table; undeclared atomics and undeclared `SeqCst` are \
         findings",
    ),
    (
        RULE_REACTOR,
        "reactor dispatch code (the `rms-net` event loop and the serve-side handler) \
         must not call blocking functions at all; unbounded `Sender::send` is exempt, \
         anything else needs a pragma naming why it cannot park the loop",
    ),
];

/// Method/function names whose calls block (or may block arbitrarily
/// long): channel sends/receives, fsyncs, socket accepts, buffered IO,
/// thread joins/sleeps, condition-variable waits. Holding a lock guard
/// across any of these is the PR-4/PR-5 bug class. `try_send`/`try_recv`
/// are absent: they never block. A `Condvar` wait releases only the
/// guard it is handed, so any other guard alive across it is a finding,
/// and a wait on the one guard it releases carries a pragma saying so.
pub(crate) const BLOCKING_CALLS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "sync_all",
    "sync_data",
    "write_all",
    "flush",
    "accept",
    "sleep",
    "join",
    "read_line",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "park",
];

/// Guard-acquiring method names: `.lock()`, `.read()`, `.write()` called
/// with no arguments (the empty-parens requirement is what keeps
/// `io::Read::read(&mut buf)` and `io::Write::write(&buf)` out).
pub(crate) const GUARD_CALLS: &[&str] = &["lock", "read", "write"];

pub(crate) fn ident(t: Option<&Token>) -> Option<&str> {
    match t.map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn punct(t: Option<&Token>, ch: char) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Punct(c)) if *c == ch)
}

/// Does `toks[i..]` start with `.name(` or `::name(` for some `name`
/// in `set`? Returns the matched name.
pub(crate) fn call_of<'a>(toks: &'a [Token], i: usize, set: &[&'static str]) -> Option<&'a str> {
    let name_at = if punct(toks.get(i), '.') {
        i + 1
    } else if punct(toks.get(i), ':') && punct(toks.get(i + 1), ':') {
        i + 2
    } else {
        return None;
    };
    let name = ident(toks.get(name_at))?;
    if !set.contains(&name) {
        return None;
    }
    // Must actually be a call. (Turbofish between name and parens is
    // not used by any matched name in this codebase.)
    if !punct(toks.get(name_at + 1), '(') {
        return None;
    }
    Some(name)
}

/// Is `toks[i..]` the sequence `.name()` (empty parens) for `name` in
/// `GUARD_CALLS`?
pub(crate) fn guard_acquisition(toks: &[Token], i: usize) -> bool {
    punct(toks.get(i), '.')
        && ident(toks.get(i + 1)).is_some_and(|n| GUARD_CALLS.contains(&n))
        && punct(toks.get(i + 2), '(')
        && punct(toks.get(i + 3), ')')
}

/// **R1 — `guard-across-blocking`.** A `let` binding whose initializer
/// acquires a `Mutex`/`RwLock` guard must not stay alive across a
/// blocking call. Since PR 9 this is the dataflow analysis in
/// [`crate::flow`]: guard lifetimes follow nested scopes, `drop()` and
/// shadowing; calls into same-file functions that (transitively) block
/// count as blocking sites; and an unbounded `Sender::send` does not.
pub fn guard_across_blocking(file: &Path, toks: &[Token]) -> Vec<Finding> {
    crate::flow::guard_across_blocking(file, toks)
}

/// **R11 — `reactor-no-block`.** Reactor dispatch code must not call
/// blocking functions at all, guard held or not: a parked reactor
/// thread stalls every connection it multiplexes. Implemented in
/// [`crate::flow`], sharing R1's channel classifier so an unbounded
/// `Sender::send` stays exempt.
pub fn reactor_no_block(file: &Path, toks: &[Token]) -> Vec<Finding> {
    crate::flow::reactor_no_block(file, toks)
}

/// **R2 — `unwrap-nontest`.** `.unwrap()` / `.expect(…)` (and their
/// `_err` variants) plus `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!` in non-test code: the serving layer must degrade, not
/// die — propagate the error or justify with a pragma.
pub fn unwrap_nontest(file: &Path, toks: &[Token]) -> Vec<Finding> {
    const PANICKY_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
    const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        let flagged = if PANICKY_METHODS.contains(&name.as_str()) {
            i > 0 && punct(toks.get(i - 1), '.') && punct(toks.get(i + 1), '(')
        } else if PANICKY_MACROS.contains(&name.as_str()) {
            punct(toks.get(i + 1), '!')
        } else {
            false
        };
        if flagged {
            let call = if punct(toks.get(i + 1), '!') {
                format!("{name}!")
            } else {
                format!(".{name}()")
            };
            findings.push(Finding::new(
                file,
                t.line,
                RULE_UNWRAP,
                format!(
                    "`{call}` in non-test code; propagate the error (or justify with \
                     `// rms-analyze: allow({RULE_UNWRAP}, \"…\")`)"
                ),
            ));
        }
    }
    findings
}

/// **R4 — `lock-poison-policy`.** `lock()`/`read()`/`write()` results
/// must go through the sanctioned recovery helper
/// (`rms_serve::sync::recover_poisoned`), not ad-hoc
/// `.unwrap()`/`.expect(…)`/`.unwrap_or_else(…)` — one audited place
/// decides what lock poisoning means for this project.
pub fn lock_poison_policy(file: &Path, toks: &[Token]) -> Vec<Finding> {
    const ADHOC: &[&str] = &[
        "unwrap",
        "expect",
        "unwrap_or_else",
        "unwrap_or_default",
        "unwrap_or",
    ];
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        if toks[i].in_test {
            continue;
        }
        if !guard_acquisition(toks, i) {
            continue;
        }
        // toks[i..i+4] is `.lock()`; what follows the empty parens?
        if punct(toks.get(i + 4), '.') {
            if let Some(next) = ident(toks.get(i + 5)) {
                if ADHOC.contains(&next) && punct(toks.get(i + 6), '(') {
                    let Some(Tok::Ident(which)) = toks.get(i + 1).map(|t| &t.tok) else {
                        continue;
                    };
                    findings.push(Finding::new(
                        file,
                        toks[i + 1].line,
                        RULE_POISON,
                        format!(
                            "`.{which}().{next}(…)` handles lock poisoning ad hoc; route the \
                             result through `recover_poisoned(…)` (crates/serve/src/sync.rs), \
                             the project's one audited poison-recovery point"
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// **R5 — `index-no-box-node`.** The index trees (`crates/index/src`)
/// are flat struct-of-arrays structures: nodes live in contiguous `Vec`s
/// addressed by index, never behind per-node heap allocations. Any
/// `Box<…>` or `Box::new(…)` in non-test index code reintroduces the
/// pointer-chasing layout the flat refactor removed, so it is flagged.
pub fn index_no_box_node(file: &Path, toks: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        if name != "Box" {
            continue;
        }
        // `Box<…>` (a boxed field or alias) or `Box::new(…)` (an
        // allocation); a bare `Box` ident in any other position is not
        // a layout decision.
        let usage = if punct(toks.get(i + 1), '<') {
            "Box<…>"
        } else if punct(toks.get(i + 1), ':') && punct(toks.get(i + 2), ':') {
            "Box::…"
        } else {
            continue;
        };
        findings.push(Finding::new(
            file,
            t.line,
            RULE_BOXNODE,
            format!(
                "`{usage}` in index code; the trees are flat struct-of-arrays layouts — \
                 store nodes in contiguous `Vec`s addressed by index (or justify with \
                 `// rms-analyze: allow({RULE_BOXNODE}, \"…\")`)"
            ),
        ));
    }
    findings
}

/// The `rms-metrics` registration methods R6 audits. Their first
/// argument is the metric family name.
const METRIC_REGISTER_CALLS: &[&str] = &[
    "register_counter",
    "register_gauge",
    "register_histogram",
    "register_histogram_values",
];

/// The naming discipline `rms_metrics::validate_metric_name` enforces at
/// runtime, restated here so the analyzer catches violations at lint
/// time: ASCII `snake_case` over `[a-z0-9_]`, no empty `_`-separated
/// segment, and an `rms_<subsystem>_` prefix (≥ 3 segments).
fn metric_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        && name.split('_').all(|s| !s.is_empty())
        && name.split('_').next() == Some("rms")
        && name.split('_').count() >= 3
}

/// **R6 — `metric-name-discipline`.** Cross-file: every
/// `register_counter`/`register_gauge`/`register_histogram`/
/// `register_histogram_values` call must pass its metric name as a
/// string literal (so the catalog is statically auditable) that is
/// `snake_case` with an `rms_<subsystem>_` prefix, and each family name
/// must be registered from exactly one source location — one site owns
/// each family, so STATS/METRICS/README can never disagree about where
/// a number comes from. (One site may execute many times: per-shard or
/// per-verb loops register many series from their one call.)
pub fn metric_name_discipline(files: &[(&Path, &[Token])]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // family name → first registration site
    let mut sites: BTreeMap<String, (PathBuf, u32)> = BTreeMap::new();
    for (path, toks) in files {
        for i in 0..toks.len() {
            if toks[i].in_test {
                continue;
            }
            let Some(method) = call_of(toks, i, METRIC_REGISTER_CALLS) else {
                continue;
            };
            // `call_of` matched `.name(` or `::name(` starting at i;
            // the first argument follows the open paren.
            let arg_at = if punct(toks.get(i), '.') {
                i + 3
            } else {
                i + 4
            };
            let line = toks[arg_at - 2].line;
            let Some(Tok::Str(name)) = toks.get(arg_at).map(|t| &t.tok) else {
                findings.push(Finding::new(
                    path,
                    line,
                    RULE_METRIC,
                    format!(
                        "`{method}(…)` takes a non-literal metric name; pass a string \
                         literal so the metric catalog stays statically auditable"
                    ),
                ));
                continue;
            };
            if !metric_name_ok(name) {
                findings.push(Finding::new(
                    path,
                    line,
                    RULE_METRIC,
                    format!(
                        "metric name `{name}` violates the naming discipline: snake_case \
                         over [a-z0-9_] with an `rms_<subsystem>_` prefix"
                    ),
                ));
                continue;
            }
            match sites.get(name.as_str()) {
                None => {
                    sites.insert(name.clone(), (path.to_path_buf(), line));
                }
                Some((first_file, first_line)) => {
                    findings.push(Finding::new(
                        path,
                        line,
                        RULE_METRIC,
                        format!(
                            "metric `{name}` is registered more than once (first at {}:{}); \
                             one call site owns each family — share the instrument handle \
                             instead",
                            first_file.display(),
                            first_line
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// The receiver of the atomic access whose argument list contains the
/// `Ordering` ident at `i`: walks back to the enclosing `(`, expects
/// `recv.method(`, and resolves `recv` over one index expression and
/// tuple-field hops (`self.cells[i].0.fetch_add(…)` → `cells`).
fn atomic_receiver(toks: &[Token], i: usize) -> Option<&str> {
    let mut j = i;
    let mut nest = 0i32;
    loop {
        j = j.checked_sub(1)?;
        match toks[j].tok {
            Tok::Punct(')' | ']') => nest += 1,
            Tok::Punct('(' | '[') => {
                nest -= 1;
                if nest < 0 {
                    break;
                }
            }
            _ => {}
        }
    }
    ident(toks.get(j.checked_sub(1)?))?; // the method name
    if !punct(toks.get(j.checked_sub(2)?), '.') {
        return None;
    }
    let mut k = j.checked_sub(3)?;
    loop {
        if punct(toks.get(k), ']') {
            let mut bn = 1i32;
            while k > 0 && bn > 0 {
                k -= 1;
                match toks[k].tok {
                    Tok::Punct(']') => bn += 1,
                    Tok::Punct('[') => bn -= 1,
                    _ => {}
                }
            }
            k = k.checked_sub(1)?;
            continue;
        }
        let name = ident(toks.get(k))?;
        // Tuple-field hop: `pair.0.store(…)` — the receiver is `pair`.
        if name.bytes().all(|b| b.is_ascii_digit()) && punct(toks.get(k.wrapping_sub(1)), '.') {
            k = k.checked_sub(2)?;
            continue;
        }
        return Some(name);
    }
}

/// **R10 — `atomic-ordering-discipline`.** Every `Ordering::<variant>`
/// use in non-test code must be covered by the file's declared policy
/// table (`// rms-analyze: atomic-policy(name: Ordering|…, …)` comments,
/// one entry per atomic receiver). Undeclared atomics are findings —
/// including `SeqCst`, which is never grandfathered in: paying for the
/// strongest ordering must be a written-down decision. Unused policy
/// entries are findings too (same hygiene as unused pragmas).
pub fn atomic_ordering_discipline(
    file: &Path,
    toks: &[Token],
    policies: &[AtomicPolicy],
) -> Vec<Finding> {
    let mut table: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for p in policies {
        table
            .entry(p.name.as_str())
            .or_default()
            .extend(p.orderings.iter().map(String::as_str));
    }
    let mut used: BTreeSet<&str> = BTreeSet::new();
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        if toks[i].in_test {
            continue;
        }
        if ident(toks.get(i)) != Some("Ordering")
            || !punct(toks.get(i + 1), ':')
            || !punct(toks.get(i + 2), ':')
        {
            continue;
        }
        let Some(variant) = ident(toks.get(i + 3)) else {
            continue;
        };
        if !crate::lexer::ATOMIC_ORDERINGS.contains(&variant) {
            continue; // `std::cmp::Ordering::Less` and friends
        }
        let line = toks[i].line;
        let Some(recv) = atomic_receiver(toks, i) else {
            findings.push(Finding::new(
                file,
                line,
                RULE_ATOMIC,
                format!(
                    "`Ordering::{variant}` here cannot be attributed to an atomic \
                     receiver (fence or free-function form); rewrite as a method call \
                     on a declared atomic, or justify with \
                     `// rms-analyze: allow({RULE_ATOMIC}, \"…\")`"
                ),
            ));
            continue;
        };
        match table.get(recv) {
            None => {
                let seqcst_hint = if variant == "SeqCst" {
                    " (`SeqCst` is the strongest, most expensive ordering — paying for \
                     it must be a declared decision)"
                } else {
                    ""
                };
                findings.push(Finding::new(
                    file,
                    line,
                    RULE_ATOMIC,
                    format!(
                        "atomic `{recv}` uses `Ordering::{variant}` but has no \
                         atomic-policy entry{seqcst_hint}; declare it with \
                         `// rms-analyze: atomic-policy({recv}: {variant}|…)`"
                    ),
                ));
            }
            Some(allowed) => {
                used.insert(table.get_key_value(recv).map(|(k, _)| *k).unwrap_or(recv));
                if !allowed.contains(variant) {
                    let list = allowed.iter().copied().collect::<Vec<_>>().join("|");
                    findings.push(Finding::new(
                        file,
                        line,
                        RULE_ATOMIC,
                        format!(
                            "atomic `{recv}` uses `Ordering::{variant}` but its declared \
                             policy allows only `{list}`; use a declared ordering or \
                             widen the `atomic-policy({recv}: …)` entry deliberately"
                        ),
                    ));
                }
            }
        }
    }
    for p in policies {
        if !used.contains(p.name.as_str()) {
            findings.push(Finding::new(
                file,
                p.line,
                RULE_ATOMIC,
                format!(
                    "atomic-policy entry `{}` matches no atomic use in this file; \
                     delete the stale entry",
                    p.name
                ),
            ));
        }
    }
    findings
}
