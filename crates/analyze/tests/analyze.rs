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

/// The lock-order, atomic-policy and reactor rules, pinned
/// individually against the checked-in workspace: a regression in any
/// one of them surfaces under its own name instead of hiding inside the
/// all-rules pin above.
#[test]
fn new_rules_are_workspace_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    for rule in [
        "lock-order",
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
fn json_output_lists_findings() {
    let out = run(&["--format", "json", &fixture("r2_violating.rs")]);
    assert!(!out.status.success(), "violations still exit 1 under json");
    let json = stdout(&out);
    assert!(json.contains("\"findings\":["), "{json}");
    assert!(json.contains("\"rule\":\"unwrap-nontest\""), "{json}");
    assert!(json.contains("\"files_scanned\":1"), "{json}");
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
    assert_eq!(rules.len(), 8, "rule catalog size changed:\n{listing}");

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
