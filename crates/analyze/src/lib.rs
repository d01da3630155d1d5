//! `rms-analyze` — project-specific static analysis for the krms
//! workspace: a hand-rolled lexer, a lightweight block-tree parser, and
//! an intraprocedural dataflow layer (no full AST, no dependencies)
//! behind eight lint rules encoding the concurrency and memory-layout
//! invariants of the serving tier that no test can pin: a deadlock or a
//! parked reactor shows only under an interleaving a test may never
//! schedule.
//!
//! Rules (see [`rules::RULE_DESCRIPTIONS`] / `--list-rules` for the
//! authoritative catalog):
//!
//! | id | checks |
//! |----|--------|
//! | `guard-across-blocking` | no lock guard alive across a blocking call, through scopes/`drop()`/may-block local calls; unbounded `Sender::send` exempt |
//! | `unwrap-nontest` | no `.unwrap()`/`.expect(…)`/`panic!`-family in non-test serve/client/metrics code |
//! | `lock-poison-policy` | lock results go through `recover_poisoned`, not ad-hoc unwraps |
//! | `index-no-box-node` | no per-node `Box` allocations in `crates/index/src` |
//! | `metric-name-discipline` | literal `rms_<subsystem>_` snake_case names, one owning call site per family |
//! | `lock-order` | the serve-layer lock-acquisition-order graph stays acyclic |
//! | `atomic-ordering-discipline` | every `Ordering::` use matches the file's declared atomic-policy table |
//! | `reactor-no-block` | reactor dispatch code calls nothing that blocks |
//!
//! Any finding can be suppressed in place with
//! `// rms-analyze: allow(<rule-id>, "<reason>")` — on the offending
//! line, or on its own line covering the next line. The reason is
//! mandatory; unused or malformed pragmas are findings themselves
//! (rule id `pragma`). Atomic policies are declared per file with
//! `// rms-analyze: atomic-policy(<name>: <Ordering>|…, …)`.

pub mod flow;
pub mod lexer;
pub mod parse;
pub mod rules;

use lexer::{LexOutput, Token};
use rules::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use rules::{
    ALL_RULES, RULE_ATOMIC, RULE_BOXNODE, RULE_DESCRIPTIONS, RULE_GUARD, RULE_LOCKORDER,
    RULE_METRIC, RULE_POISON, RULE_PRAGMA, RULE_UNWRAP,
};

/// The outcome of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, in file-then-line order. Nonzero ⇒ exit 1.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a pragma, with the pragma's reason —
    /// reported (to stderr) but not fatal.
    pub suppressed: Vec<(Finding, String)>,
    /// Total number of well-formed `allow` pragmas seen.
    pub pragma_count: usize,
    /// Number of files lexed.
    pub files_scanned: usize,
}

/// A lexed source file ready for rule application.
struct SourceFile {
    path: PathBuf,
    rel: PathBuf,
    lex: LexOutput,
}

fn read_and_lex(path: PathBuf, rel: PathBuf) -> std::io::Result<SourceFile> {
    let lex = lexer::lex(&std::fs::read_to_string(&path)?);
    Ok(SourceFile { path, rel, lex })
}

/// Collects the `.rs` files under `dir` (recursively), as paths
/// relative to `root`. Sorted for deterministic output.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let abs = root.join(dir);
    if !abs.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(&abs)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        let rel = dir.join(p.file_name().unwrap_or_default());
        if p.is_dir() {
            collect_rs(root, &rel, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// The workspace file set `--workspace` scans: every crate's `src/`
/// plus `examples/` and `benches/`, and the root binary's `src/`.
/// `vendor/` (vendored stand-in dependencies) is deliberately excluded
/// — we lint our code, not our stand-ins. Fixture trees under
/// `tests/fixtures/` are likewise excluded (they violate rules on
/// purpose), but regular integration tests are scanned.
fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs(root, Path::new("src"), &mut files)?;
    collect_rs(root, Path::new("examples"), &mut files)?;
    collect_rs(root, Path::new("benches"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<_> = std::fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for m in members {
            let Some(name) = m.file_name().map(std::ffi::OsStr::to_os_string) else {
                continue;
            };
            let base = Path::new("crates").join(&name);
            collect_rs(root, &base.join("src"), &mut files)?;
            collect_rs(root, &base.join("examples"), &mut files)?;
            collect_rs(root, &base.join("benches"), &mut files)?;
            // Integration tests, but never tests/fixtures/.
            let tests = base.join("tests");
            if root.join(&tests).is_dir() {
                let mut sub = Vec::new();
                collect_rs(root, &tests, &mut sub)?;
                files.extend(
                    sub.into_iter()
                        .filter(|p| !p.starts_with(tests.join("fixtures"))),
                );
            }
        }
    }
    Ok(files)
}

/// Per-rule file scoping for a workspace run. Paths are relative,
/// `/`-separated as produced by [`workspace_files`].
fn rule_applies(rule: &str, rel: &Path) -> bool {
    let in_serve_src = rel.starts_with("crates/serve/src");
    let in_client_src = rel.starts_with("crates/client/src");
    let in_metrics_src = rel.starts_with("crates/metrics/src");
    let in_net_src = rel.starts_with("crates/net/src");
    match rule {
        // The PR-4/PR-5 bug class lives in the serving layer — and,
        // since PR 10, in the evented network layer under it.
        rules::RULE_GUARD => in_serve_src || in_net_src,
        // The reactor dispatch path: the event loop itself plus the
        // serve-side handler its callbacks drive. The orchestration
        // half (tcp.rs) legitimately blocks and stays out of scope.
        rules::RULE_REACTOR => in_net_src || rel == Path::new("crates/serve/src/net.rs"),
        // Burn-down scope: the hot serving path, the client library,
        // and (since PR 9) the metrics registry the serving path calls
        // into. CLI/bench/example code may still unwrap.
        rules::RULE_UNWRAP => in_serve_src || in_client_src || in_metrics_src,
        // Everything scanned must follow the one poison policy, and
        // every metric family in the workspace has one owning site.
        rules::RULE_POISON | rules::RULE_METRIC => true,
        // The flat-layout guarantee is an index-crate invariant.
        rules::RULE_BOXNODE => rel.starts_with("crates/index/src"),
        // Atomics policy covers the serving layer and the metrics
        // hot-path counters.
        rules::RULE_ATOMIC => in_serve_src || in_metrics_src,
        // The lock-order graph spans the serving layer's files.
        rules::RULE_LOCKORDER => in_serve_src,
        _ => false,
    }
}

/// Options for an analysis run.
pub struct Options {
    /// Rule ids to run (defaults to all).
    pub rules: Vec<&'static str>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            rules: ALL_RULES.to_vec(),
        }
    }
}

/// Analyzes the workspace rooted at `root`, each rule over the files
/// its row of the scoping table (`rule_applies`) names.
///
/// # Errors
/// Propagates I/O errors from walking or reading the source tree.
pub fn analyze_workspace(root: &Path, opts: &Options) -> std::io::Result<Report> {
    let mut sources = Vec::new();
    for rel in workspace_files(root)? {
        sources.push(read_and_lex(root.join(&rel), rel)?);
    }
    Ok(analyze(&sources, opts, |rule, sf| {
        rule_applies(rule, &sf.rel)
    }))
}

/// Analyzes an explicit list of files (paths used verbatim in output).
/// Every requested rule runs on every file — the cross-file rules over
/// the whole set — except `reactor-no-block`: it bans calls that are
/// ordinary outside the reactor dispatch path, so it only runs on files
/// whose name contains `reactor`.
///
/// # Errors
/// Propagates I/O errors from reading the files.
pub fn analyze_files(paths: &[PathBuf], opts: &Options) -> std::io::Result<Report> {
    let mut sources = Vec::with_capacity(paths.len());
    for p in paths {
        sources.push(read_and_lex(p.clone(), p.clone())?);
    }
    Ok(analyze(&sources, opts, |rule, sf| {
        rule != rules::RULE_REACTOR
            || sf
                .rel
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains("reactor"))
    }))
}

/// Runs each requested rule over the sources `applies` scopes it to —
/// the per-file rules file by file, `lock-order` and
/// `metric-name-discipline` over the scoped set at once — then applies
/// the pragmas. Workspace and explicit-file runs differ only in
/// `applies`.
fn analyze(
    sources: &[SourceFile],
    opts: &Options,
    applies: impl Fn(&str, &SourceFile) -> bool,
) -> Report {
    let mut raw: Vec<Finding> = Vec::new();
    for &rule in &opts.rules {
        let scoped: Vec<&SourceFile> = sources.iter().filter(|sf| applies(rule, sf)).collect();
        let files: Vec<(&Path, &[Token])> = scoped
            .iter()
            .map(|sf| (sf.path.as_path(), sf.lex.tokens.as_slice()))
            .collect();
        match rule {
            rules::RULE_LOCKORDER => raw.extend(flow::lock_order(&files)),
            rules::RULE_METRIC => raw.extend(rules::metric_name_discipline(&files)),
            _ => {
                for sf in scoped {
                    raw.extend(run_rule(rule, &sf.path, &sf.lex));
                }
            }
        }
    }
    apply_pragmas(sources, raw, &opts.rules)
}

fn run_rule(rule: &str, path: &Path, lex: &LexOutput) -> Vec<Finding> {
    match rule {
        rules::RULE_GUARD => rules::guard_across_blocking(path, &lex.tokens),
        rules::RULE_UNWRAP => rules::unwrap_nontest(path, &lex.tokens),
        rules::RULE_POISON => rules::lock_poison_policy(path, &lex.tokens),
        rules::RULE_BOXNODE => rules::index_no_box_node(path, &lex.tokens),
        rules::RULE_ATOMIC => {
            rules::atomic_ordering_discipline(path, &lex.tokens, &lex.atomic_policies)
        }
        rules::RULE_REACTOR => rules::reactor_no_block(path, &lex.tokens),
        _ => Vec::new(),
    }
}

/// Applies `allow` pragmas to the raw findings: a pragma on the finding
/// line (or an own-line pragma covering the next line) with a matching
/// rule id suppresses the finding. Unknown-rule and unused pragmas,
/// plus the lexer's malformed-pragma notes, become `pragma` findings.
/// A pragma for a known rule that is not in `active` (e.g. under
/// `--rules lock-order`) is left alone: its rule never ran, so whether
/// it suppresses anything cannot be judged on this pass.
fn apply_pragmas(sources: &[SourceFile], raw: Vec<Finding>, active: &[&str]) -> Report {
    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };
    // (path, rule, covered-line) → (pragma index within file, reason)
    let mut allow: BTreeMap<(PathBuf, String, u32), (usize, String)> = BTreeMap::new();
    let mut used: BTreeMap<(PathBuf, usize), bool> = BTreeMap::new();
    for sf in sources {
        for (idx, p) in sf.lex.pragmas.iter().enumerate() {
            report.pragma_count += 1;
            if !ALL_RULES.contains(&p.rule.as_str()) {
                report.findings.push(Finding::new(
                    &sf.path,
                    p.line,
                    rules::RULE_PRAGMA,
                    format!(
                        "pragma names unknown rule `{}` (known: {})",
                        p.rule,
                        ALL_RULES.join(", ")
                    ),
                ));
                continue;
            }
            if !active.contains(&p.rule.as_str()) {
                continue;
            }
            used.insert((sf.path.clone(), idx), false);
            let covered = if p.own_line { p.line + 1 } else { p.line };
            allow.insert(
                (sf.path.clone(), p.rule.clone(), covered),
                (idx, p.reason.clone()),
            );
        }
        for (line, msg) in &sf.lex.pragma_errors {
            report.findings.push(Finding::new(
                &sf.path,
                *line,
                rules::RULE_PRAGMA,
                msg.clone(),
            ));
        }
    }
    for f in raw {
        let key = (f.file.clone(), f.rule.to_string(), f.line);
        if let Some((idx, reason)) = allow.get(&key) {
            used.insert((f.file.clone(), *idx), true);
            report.suppressed.push((f, reason.clone()));
        } else {
            report.findings.push(f);
        }
    }
    for ((path, idx), was_used) in &used {
        if !was_used {
            // Recover the pragma for its line/rule.
            if let Some(sf) = sources.iter().find(|s| &s.path == path) {
                let p = &sf.lex.pragmas[*idx];
                report.findings.push(Finding::new(
                    path,
                    p.line,
                    rules::RULE_PRAGMA,
                    format!(
                        "unused pragma: allow({}) suppresses nothing on its line — remove it",
                        p.rule
                    ),
                ));
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}
