//! End-to-end tests for the `rms-analyze` binary: each rule's fixture
//! pair (violating ⇒ exit 1 with the right findings, clean ⇒ exit 0),
//! pragma suppression and hygiene, and the pin that the checked-in
//! workspace itself is finding-free.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .display()
        .to_string()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rms-analyze"))
        .args(args)
        .output()
        .expect("spawn rms-analyze")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn count_rule(out: &Output, rule: &str) -> usize {
    stdout(out)
        .lines()
        .filter(|l| l.split_whitespace().nth(1) == Some(rule))
        .count()
}

#[test]
fn workspace_is_finding_free() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let out = run(&["--workspace", &root.display().to_string()]);
    assert!(
        out.status.success(),
        "checked-in workspace has findings:\n{}",
        stdout(&out)
    );
    assert!(stdout(&out).is_empty(), "stdout: {}", stdout(&out));
}

/// The four PR-9 rules plus PR-10's reactor rule, pinned individually
/// against the checked-in workspace: a regression in any one of them
/// surfaces under its own name instead of hiding inside the all-rules
/// pin above.
#[test]
fn new_rules_are_workspace_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    for rule in [
        "lock-order",
        "wal-tag-coverage",
        "epoch-monotonic-publish",
        "atomic-ordering-discipline",
        "reactor-no-block",
    ] {
        let out = run(&["--rules", rule, "--workspace", &root.display().to_string()]);
        assert!(
            out.status.success(),
            "workspace has `{rule}` findings:\n{}",
            stdout(&out)
        );
    }
}

#[test]
fn r1_guard_across_blocking() {
    let out = run(&[&fixture("r1_violating.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert_eq!(
        count_rule(&out, "guard-across-blocking"),
        5,
        "expected the sync send, the fsync, the may-block helper call and the two \
         condvar waits:\n{text}"
    );
    for wait in ["wait_while", "wait_timeout_while"] {
        assert!(
            text.contains(&format!("blocking call `{wait}(…)`")),
            "the guard across `{wait}` was missed:\n{text}"
        );
    }
    assert!(
        text.contains("`persist(…)`, which may block"),
        "may-block fixpoint did not reach the helper call:\n{text}"
    );

    let out = run(&[&fixture("r1_clean.rs")]);
    assert!(
        out.status.success(),
        "clean fixture flagged (unbounded send misclassified?):\n{}",
        stdout(&out)
    );
}

#[test]
fn r2_unwrap_nontest() {
    let out = run(&[&fixture("r2_violating.rs")]);
    assert!(!out.status.success());
    assert_eq!(
        count_rule(&out, "unwrap-nontest"),
        3,
        "expected unwrap + expect + panic!:\n{}",
        stdout(&out)
    );

    let out = run(&[&fixture("r2_clean.rs")]);
    assert!(
        out.status.success(),
        "clean fixture flagged:\n{}",
        stdout(&out)
    );
}

#[test]
fn r3_wire_grammar() {
    let out = run(&[
        &fixture("r3_protocol_drift.rs"),
        &fixture("r3_client_drift.rs"),
    ]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert_eq!(
        count_rule(&out, "wire-grammar"),
        3,
        "expected ERR, METRICS, and NACK drift:\n{text}"
    );
    assert!(text.contains("`ERR`"), "missing ERR drift:\n{text}");
    assert!(text.contains("`NACK`"), "missing NACK drift:\n{text}");
    assert!(text.contains("`METRICS`"), "missing METRICS drift:\n{text}");

    let out = run(&[&fixture("r3_protocol_ok.rs"), &fixture("r3_client_ok.rs")]);
    assert!(
        out.status.success(),
        "consistent pair flagged:\n{}",
        stdout(&out)
    );
}

#[test]
fn r4_lock_poison_policy() {
    let out = run(&["--rules", "lock-poison-policy", &fixture("r4_violating.rs")]);
    assert!(!out.status.success());
    assert_eq!(
        count_rule(&out, "lock-poison-policy"),
        3,
        "expected unwrap + expect + inline unwrap_or_else:\n{}",
        stdout(&out)
    );

    let out = run(&[&fixture("r4_clean.rs")]);
    assert!(
        out.status.success(),
        "clean fixture flagged:\n{}",
        stdout(&out)
    );
}

#[test]
fn r5_index_no_box_node() {
    let out = run(&[&fixture("r5_violating.rs")]);
    assert!(!out.status.success());
    assert_eq!(
        count_rule(&out, "index-no-box-node"),
        3,
        "expected the boxed field, boxed child, and Box::new:\n{}",
        stdout(&out)
    );

    let out = run(&[&fixture("r5_clean.rs")]);
    assert!(
        out.status.success(),
        "clean fixture flagged:\n{}",
        stdout(&out)
    );
}

#[test]
fn r6_metric_name_discipline() {
    let out = run(&[&fixture("r6_violating.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert_eq!(
        count_rule(&out, "metric-name-discipline"),
        4,
        "expected unprefixed + camelCase + duplicate + non-literal:\n{text}"
    );
    assert!(text.contains("`requests_total` violates"), "{text}");
    assert!(
        text.contains("`rms_tcp_activeSubscribers` violates"),
        "{text}"
    );
    assert!(text.contains("registered more than once"), "{text}");
    assert!(text.contains("non-literal metric name"), "{text}");

    let out = run(&[&fixture("r6_clean.rs")]);
    assert!(
        out.status.success(),
        "clean fixture flagged:\n{}",
        stdout(&out)
    );
}

#[test]
fn r7_lock_order() {
    let out = run(&[&fixture("r7_violating.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert_eq!(
        count_rule(&out, "lock-order"),
        1,
        "expected one cycle finding for the alpha/beta inversion:\n{text}"
    );
    assert!(text.contains("potential deadlock"), "{text}");
    assert!(
        text.contains("`alpha`") && text.contains("`beta`"),
        "cycle chain does not name both locks:\n{text}"
    );

    let out = run(&[&fixture("r7_clean.rs")]);
    assert!(
        out.status.success(),
        "consistently-ordered fixture flagged:\n{}",
        stdout(&out)
    );
}

#[test]
fn r8_wal_tag_coverage() {
    let out = run(&[&fixture("r8_wal_drift.rs"), &fixture("r8_protocol_ok.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert_eq!(
        count_rule(&out, "wal-tag-coverage"),
        3,
        "expected never-encoded, no-replay-arm, and tagless-op:\n{text}"
    );
    assert!(
        text.contains("`TAG_STALE` is declared but never encoded"),
        "{text}"
    );
    assert!(
        text.contains("`TAG_DELETE` has no replay match arm"),
        "{text}"
    );
    assert!(
        text.contains("`Op::Update` has no WAL record tag `TAG_UPDATE`"),
        "{text}"
    );

    let out = run(&[&fixture("r8_wal_ok.rs"), &fixture("r8_protocol_ok.rs")]);
    assert!(
        out.status.success(),
        "fully-covered pair flagged:\n{}",
        stdout(&out)
    );
}

#[test]
fn r9_epoch_monotonic_publish() {
    let out = run(&[&fixture("r9_violating.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert_eq!(
        count_rule(&out, "epoch-monotonic-publish"),
        1,
        "expected the unsanctioned deref-write:\n{text}"
    );
    assert!(text.contains("sanctioned publish helper"), "{text}");

    let out = run(&[&fixture("r9_clean.rs")]);
    assert!(
        out.status.success(),
        "sanctioned helpers flagged:\n{}",
        stdout(&out)
    );
}

#[test]
fn r10_atomic_ordering_discipline() {
    let out = run(&[&fixture("r10_violating.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert_eq!(
        count_rule(&out, "atomic-ordering-discipline"),
        3,
        "expected undeclared, out-of-policy, and stale-entry:\n{text}"
    );
    assert!(
        text.contains("atomic `flag` uses `Ordering::Release` but has no"),
        "{text}"
    );
    assert!(
        text.contains("atomic `count` uses `Ordering::SeqCst` but its declared"),
        "{text}"
    );
    assert!(
        text.contains("atomic-policy entry `ghost` matches no atomic use"),
        "{text}"
    );

    let out = run(&[&fixture("r10_clean.rs")]);
    assert!(
        out.status.success(),
        "policy-conforming fixture flagged:\n{}",
        stdout(&out)
    );
}

#[test]
fn r11_reactor_no_block() {
    let out = run(&[&fixture("r11_reactor_violating.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert_eq!(
        count_rule(&out, "reactor-no-block"),
        3,
        "expected the bounded send, the recv, and the sleep (the \
         unbounded send is exempt):\n{text}"
    );
    assert!(
        text.contains("`recv(…)` can park a reactor thread"),
        "{text}"
    );

    let out = run(&[&fixture("r11_reactor_clean.rs")]);
    assert!(
        out.status.success(),
        "clean fixture flagged (unbounded send misclassified, or the \
         pragma on the sanctioned wait misread?):\n{}",
        stdout(&out)
    );
}

/// The real wire implementations both speak the `METRICS` verb: the
/// workspace pin above proves the two vocabularies *match*, this proves
/// the verb this PR added is actually *in* them (matching-by-omission
/// would pass the pin).
#[test]
fn wire_vocabulary_includes_metrics_verb() {
    use rms_analyze::lexer::lex;
    use rms_analyze::rules::wire_vocabulary;
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for rel in ["crates/serve/src/protocol.rs", "crates/client/src/lib.rs"] {
        let path = root.join(rel);
        let src = std::fs::read_to_string(&path).expect("read wire file");
        let files = vec![(path.clone(), lex(&src).tokens)];
        let vocab = wire_vocabulary(&files);
        assert!(
            vocab.contains_key("METRICS"),
            "{rel} does not speak METRICS; vocabulary: {:?}",
            vocab.keys().collect::<Vec<_>>()
        );
    }
}

#[test]
fn pragmas_suppress_with_reason() {
    let out = run(&[&fixture("pragma_suppressed.rs")]);
    assert!(
        out.status.success(),
        "pragma-covered violations still fatal:\n{}",
        stdout(&out)
    );
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("2 suppressed by 2 pragma(s)"),
        "suppressions not reported: {err}"
    );
    assert!(
        err.contains("demonstrates same-line suppression")
            && err.contains("demonstrates own-line suppression"),
        "pragma reasons not echoed: {err}"
    );
}

#[test]
fn pragma_hygiene_is_enforced() {
    let out = run(&[&fixture("pragma_bad.rs")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert_eq!(
        count_rule(&out, "pragma"),
        4,
        "expected reason-less, unquoted, unknown-rule, unused:\n{text}"
    );
    assert!(text.contains("no reason argument"), "{text}");
    assert!(text.contains("non-empty quoted string"), "{text}");
    assert!(text.contains("unknown rule `no-such-rule`"), "{text}");
    assert!(text.contains("unused pragma"), "{text}");
    // The broken pragmas must not have suppressed the real findings.
    assert_eq!(count_rule(&out, "unwrap-nontest"), 3, "{text}");
}

#[test]
fn unknown_rule_flag_is_rejected() {
    let out = run(&["--rules", "no-such-rule", &fixture("r2_clean.rs")]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}

#[test]
fn json_output_carries_fingerprints() {
    let out = run(&["--format", "json", &fixture("r2_violating.rs")]);
    assert!(!out.status.success(), "violations still exit 1 under json");
    let json = stdout(&out);
    assert!(json.contains("\"findings\":["), "{json}");
    assert!(json.contains("\"rule\":\"unwrap-nontest\""), "{json}");
    assert!(json.contains("\"files_scanned\":1"), "{json}");
    assert_eq!(
        json.matches("\"fingerprint\":\"").count(),
        3,
        "one fingerprint per finding:\n{json}"
    );
}

/// A baseline built from fixture A's JSON output silences exactly A's
/// findings — fixture B's finding, scanned in the same run, survives.
#[test]
fn baseline_round_trips_through_json() {
    let out = run(&["--format", "json", &fixture("r2_violating.rs")]);
    let json = stdout(&out);
    let pat = "\"fingerprint\":\"";
    let prints: Vec<&str> = json
        .match_indices(pat)
        .map(|(i, _)| &json[i + pat.len()..i + pat.len() + 16])
        .collect();
    assert_eq!(prints.len(), 3, "{json}");
    let path = std::env::temp_dir().join(format!("rms-analyze-baseline-{}", std::process::id()));
    std::fs::write(&path, prints.join("\n")).expect("write baseline");

    let out = run(&[
        "--baseline",
        &path.display().to_string(),
        &fixture("r2_violating.rs"),
        &fixture("r9_violating.rs"),
    ]);
    std::fs::remove_file(&path).ok();
    assert!(
        !out.status.success(),
        "non-baselined finding must stay fatal"
    );
    assert_eq!(
        count_rule(&out, "unwrap-nontest"),
        0,
        "baselined findings leaked into stdout:\n{}",
        stdout(&out)
    );
    assert_eq!(
        count_rule(&out, "epoch-monotonic-publish"),
        1,
        "the baseline silenced more than fixture A:\n{}",
        stdout(&out)
    );
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        err.matches("rms-analyze: baselined").count(),
        3,
        "baselined findings not reported on stderr: {err}"
    );
}

#[test]
fn list_rules_matches_readme_table() {
    let out = run(&["--list-rules"]);
    assert!(out.status.success());
    let listing = stdout(&out);
    let rules: Vec<(&str, &str)> = listing
        .lines()
        .map(|l| l.split_once('\t').expect("rule\\tdescription"))
        .collect();
    assert_eq!(rules.len(), 11, "rule catalog size changed:\n{listing}");

    let readme = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(readme).expect("read README.md");
    for (rule, desc) in rules {
        let row = format!("| `{rule}` | {desc} |");
        assert!(
            readme.contains(&row),
            "README rule table is out of date — missing row:\n{row}\n\
             (regenerate from `rms-analyze --list-rules`)"
        );
    }
}
