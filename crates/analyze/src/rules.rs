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
    /// Stable identity for `--format json` / `--baseline`: FNV-1a over
    /// rule + workspace-relative path + trimmed line text + occurrence
    /// index. Filled in by the driver after rules run; empty until then.
    pub fingerprint: String,
}

impl Finding {
    /// A finding with an (as yet) empty fingerprint.
    pub fn new(file: &Path, line: u32, rule: &'static str, msg: String) -> Self {
        Finding {
            file: file.to_path_buf(),
            line,
            rule,
            msg,
            fingerprint: String::new(),
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
/// Rule id for [`wire_grammar`].
pub const RULE_WIRE: &str = "wire-grammar";
/// Rule id for [`lock_poison_policy`].
pub const RULE_POISON: &str = "lock-poison-policy";
/// Rule id for [`index_no_box_node`].
pub const RULE_BOXNODE: &str = "index-no-box-node";
/// Rule id for [`metric_name_discipline`].
pub const RULE_METRIC: &str = "metric-name-discipline";
/// Rule id for [`crate::flow::lock_order`].
pub const RULE_LOCKORDER: &str = "lock-order";
/// Rule id for [`wal_tag_coverage`].
pub const RULE_WALTAG: &str = "wal-tag-coverage";
/// Rule id for [`epoch_monotonic_publish`].
pub const RULE_EPOCH: &str = "epoch-monotonic-publish";
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
    RULE_WIRE,
    RULE_POISON,
    RULE_BOXNODE,
    RULE_METRIC,
    RULE_LOCKORDER,
    RULE_WALTAG,
    RULE_EPOCH,
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
        RULE_WIRE,
        "the server and client wire vocabularies (ALL-CAPS verbs and reply heads in \
         string literals) must match exactly",
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
        RULE_WALTAG,
        "every WAL record tag has an encode use and a replay arm, and every `Op::` \
         variant has a WAL tag — an op cannot silently skip durability",
    ),
    (
        RULE_EPOCH,
        "deref-writes through a fresh `.write()` guard happen only inside sanctioned \
         publish helpers (`store` / `publish*`), pinning epoch-monotone snapshot \
         publication",
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

/// The wire vocabulary of one file set: every leading ALL-CAPS word of a
/// non-test string literal (`"INSERT {id} …"` → `INSERT`, `"OK queued"`
/// → `OK`), mapped to its first occurrence.
pub fn wire_vocabulary(files: &[(PathBuf, Vec<Token>)]) -> BTreeMap<String, (PathBuf, u32)> {
    let mut vocab = BTreeMap::new();
    for (path, toks) in files {
        for t in toks {
            if t.in_test {
                continue;
            }
            let Tok::Str(s) = &t.tok else { continue };
            let word: String = s.chars().take_while(char::is_ascii_uppercase).collect();
            if word.len() < 2 {
                continue;
            }
            // The run must end the literal or be followed by a
            // non-word character (`"OKish"` is not the verb `OK`).
            if s[word.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                continue;
            }
            vocab.entry(word).or_insert_with(|| (path.clone(), t.line));
        }
    }
    vocab
}

/// **R3 — `wire-grammar`.** The serve-side protocol implementation and
/// the `rms-client` re-implementation each define the wire vocabulary
/// (verbs plus the `OK`/`ERR`/`DELTA` reply heads) in string literals;
/// this rule extracts both sets and reports every word one side speaks
/// and the other does not — the two in-tree grammars cannot drift
/// silently.
pub fn wire_grammar(
    server: &[(PathBuf, Vec<Token>)],
    client: &[(PathBuf, Vec<Token>)],
) -> Vec<Finding> {
    let sv = wire_vocabulary(server);
    let cv = wire_vocabulary(client);
    let mut findings = Vec::new();
    let mut drift = |word: &str,
                     present: &(PathBuf, u32),
                     absent_side: &[(PathBuf, Vec<Token>)],
                     side: &str| {
        let Some((absent_file, _)) = absent_side.first() else {
            return;
        };
        findings.push(Finding::new(
            absent_file,
            1,
            RULE_WIRE,
            format!(
                "wire word `{word}` (spoken at {}:{}) has no {side} occurrence — the two \
                 protocol implementations have drifted",
                present.0.display(),
                present.1
            ),
        ));
    };
    for (word, at) in &sv {
        if !cv.contains_key(word) {
            drift(word, at, client, "client-side");
        }
    }
    for (word, at) in &cv {
        if !sv.contains_key(word) {
            drift(word, at, server, "server-side");
        }
    }
    findings
}

/// **R8 — `wal-tag-coverage`.** Cross-file, in the spirit of
/// `wire-grammar`: the WAL record tags (`const TAG_*` in `wal.rs`) and
/// the op vocabulary must stay symmetric. Concretely:
///
/// * every declared tag must be *encoded* somewhere (a use that is not a
///   match arm — frames with it are actually written), and
/// * every declared tag must have a *replay* match arm (`TAG_X =>` or
///   `TAG_X | …` — recovery understands it), and
/// * every `Op::Variant` referenced in non-test wal/wire code must have
///   a `TAG_<VARIANT>` declaration — a new op cannot silently skip
///   durability.
///
/// Tag-from-variant derivation is `TAG_` + the variant name uppercased
/// (`Op::Insert` → `TAG_INSERT`); multi-word variants must pick tag
/// names accordingly.
pub fn wal_tag_coverage(
    wal: &[(PathBuf, Vec<Token>)],
    wire: &[(PathBuf, Vec<Token>)],
) -> Vec<Finding> {
    struct TagInfo {
        file: PathBuf,
        line: u32,
        encode: bool,
        replay: bool,
    }
    let mut tags: BTreeMap<String, TagInfo> = BTreeMap::new();
    // Declarations: `const TAG_X`.
    for (path, toks) in wal {
        for (i, t) in toks.iter().enumerate() {
            if t.in_test {
                continue;
            }
            let Tok::Ident(name) = &t.tok else { continue };
            if name.starts_with("TAG_") && ident(toks.get(i.wrapping_sub(1))) == Some("const") {
                tags.entry(name.clone()).or_insert(TagInfo {
                    file: path.clone(),
                    line: t.line,
                    encode: false,
                    replay: false,
                });
            }
        }
    }
    // Uses: `TAG_X =>` / `TAG_X | …` is a replay match arm; any other
    // non-declaration mention encodes (frame construction, equality
    // guards fold in here too — over-approximation on the safe side:
    // a tag that is *only* compared still has no real encode arm only
    // if nothing constructs it, which the fixture pins).
    for (_, toks) in wal {
        for (i, t) in toks.iter().enumerate() {
            if t.in_test {
                continue;
            }
            let Tok::Ident(name) = &t.tok else { continue };
            let Some(info) = tags.get_mut(name.as_str()) else {
                continue;
            };
            if ident(toks.get(i.wrapping_sub(1))) == Some("const") {
                continue;
            }
            if (punct(toks.get(i + 1), '=') && punct(toks.get(i + 2), '>'))
                || punct(toks.get(i + 1), '|')
            {
                info.replay = true;
            } else {
                info.encode = true;
            }
        }
    }
    // Op vocabulary: `Op::Variant` path references across wal + wire.
    let mut ops: BTreeMap<String, (PathBuf, u32)> = BTreeMap::new();
    for (path, toks) in wal.iter().chain(wire) {
        for i in 0..toks.len() {
            if toks[i].in_test {
                continue;
            }
            if ident(toks.get(i)) != Some("Op")
                || !punct(toks.get(i + 1), ':')
                || !punct(toks.get(i + 2), ':')
            {
                continue;
            }
            if let Some(v) = ident(toks.get(i + 3)) {
                if v.starts_with(char::is_uppercase) {
                    ops.entry(v.to_string())
                        .or_insert((path.clone(), toks[i].line));
                }
            }
        }
    }
    let mut findings = Vec::new();
    for (name, info) in &tags {
        if !info.encode {
            findings.push(Finding::new(
                &info.file,
                info.line,
                RULE_WALTAG,
                format!(
                    "WAL tag `{name}` is declared but never encoded — no frame with this \
                     tag is ever written; wire it into the encode path or delete it"
                ),
            ));
        }
        if !info.replay {
            findings.push(Finding::new(
                &info.file,
                info.line,
                RULE_WALTAG,
                format!(
                    "WAL tag `{name}` has no replay match arm — frames with this tag \
                     would be rejected on recovery; add its arm to the replay dispatch"
                ),
            ));
        }
    }
    for (variant, (path, line)) in &ops {
        let expect = format!("TAG_{}", variant.to_uppercase());
        if !tags.contains_key(&expect) {
            findings.push(Finding::new(
                path,
                *line,
                RULE_WALTAG,
                format!(
                    "`Op::{variant}` has no WAL record tag `{expect}` — every op must \
                     carry a WAL tag with encode and replay arms so it cannot silently \
                     skip durability"
                ),
            ));
        }
    }
    findings
}

/// **R9 — `epoch-monotonic-publish`.** A statement of the shape
/// `*… .write() … = …;` — a deref-write through a freshly acquired
/// `RwLock` write guard — is how the snapshot cell publishes. Publishing
/// anywhere except the sanctioned helpers (`fn store`, `fn publish*`)
/// bypasses the epoch-monotonicity bookkeeping those helpers pin, so any
/// other site is a finding.
pub fn epoch_monotonic_publish(file: &Path, toks: &[Token]) -> Vec<Finding> {
    let tree = crate::parse::parse(toks);
    let mut findings = Vec::new();
    for scope in &tree.scopes {
        for &(lo, hi) in &scope.stmts {
            if toks.get(lo).is_none_or(|t| t.in_test) || !punct(toks.get(lo), '*') {
                continue;
            }
            let mut has_write = false;
            let mut assign = false;
            let mut nest = 0i32;
            for i in lo..hi.min(toks.len()) {
                match toks[i].tok {
                    Tok::Punct('(' | '[') => nest += 1,
                    Tok::Punct(')' | ']') => nest -= 1,
                    _ => {}
                }
                if guard_acquisition(toks, i) && ident(toks.get(i + 1)) == Some("write") {
                    has_write = true;
                }
                // A bare `=` (not `==`, `=>`, or a compound assign) at
                // the statement's top nesting level.
                if nest == 0
                    && punct(toks.get(i), '=')
                    && !punct(toks.get(i + 1), '=')
                    && !punct(toks.get(i + 1), '>')
                    && !matches!(
                        toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                        Some(Tok::Punct(
                            '=' | '!' | '<' | '>' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'
                        ))
                    )
                {
                    assign = true;
                }
            }
            if !(has_write && assign) {
                continue;
            }
            let sanctioned = tree
                .enclosing_function(lo)
                .is_some_and(|f| f.name == "store" || f.name.starts_with("publish"));
            if sanctioned {
                continue;
            }
            findings.push(Finding::new(
                file,
                toks[lo].line,
                RULE_EPOCH,
                format!(
                    "deref-write through a fresh `.write()` guard outside a sanctioned \
                     publish helper; snapshot publication must go through \
                     `SnapshotCell::store` or a `publish*` helper so epoch monotonicity \
                     is enforced in one place (or justify with \
                     `// rms-analyze: allow({RULE_EPOCH}, \"…\")`)"
                ),
            ));
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
