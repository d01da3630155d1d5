//! CLI for `rms-analyze`.
//!
//! ```text
//! rms-analyze --workspace [ROOT]       # scan the whole workspace tree
//! rms-analyze [--rules r1,r2] FILE...  # scan explicit files (every rule; reactor-no-block on *reactor* files only)
//! rms-analyze --list-rules             # print the rule catalog and exit
//! ```
//!
//! Options:
//!
//! * `--format text|json` — `text` (default) prints findings to stdout
//!   as `file:line rule-id message`; `json` prints one machine-readable
//!   object with the same findings.
//!
//! The summary (counts, suppressions) goes to stderr. Exit 0 ⇔ no
//! surviving findings.

use rms_analyze::{
    analyze_files, analyze_workspace, Options, Report, ALL_RULES, RULE_DESCRIPTIONS,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: rms-analyze --workspace [ROOT]\n       rms-analyze [--rules LIST] FILE...\n       \
         rms-analyze --list-rules\n\noptions: --format text|json\n\n\
         rules: {}",
        ALL_RULES.join(", ")
    );
    std::process::exit(2);
}

fn parse_rules(list: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    for name in list.split(',') {
        let name = name.trim();
        match ALL_RULES.iter().find(|r| **r == name) {
            Some(r) => out.push(*r),
            None => {
                eprintln!(
                    "rms-analyze: unknown rule `{name}` (known: {})",
                    ALL_RULES.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    out
}

/// Escapes a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as one JSON object on stdout. Shape:
/// `{"findings":[{"file","line","rule","message"}…],
///   "files_scanned":N,"suppressed":N}`.
fn print_json(report: &Report) {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&f.file.display().to_string()),
            f.line,
            json_escape(f.rule),
            json_escape(&f.msg),
        ));
    }
    out.push_str(&format!(
        "],\"files_scanned\":{},\"suppressed\":{}}}",
        report.files_scanned,
        report.suppressed.len(),
    ));
    println!("{out}");
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mut workspace = false;
    let mut root: Option<PathBuf> = None;
    let mut rules: Vec<&'static str> = ALL_RULES.to_vec();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut json = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--rules" => match args.next() {
                Some(list) => rules = parse_rules(&list),
                None => usage(),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                _ => usage(),
            },
            "--list-rules" => {
                for (rule, desc) in RULE_DESCRIPTIONS {
                    println!("{rule}\t{desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => usage(),
            _ if a.starts_with("--") => usage(),
            _ => {
                if workspace && root.is_none() && files.is_empty() {
                    root = Some(PathBuf::from(a));
                } else {
                    files.push(PathBuf::from(a));
                }
            }
        }
    }

    let opts = Options { rules };
    let result = if workspace {
        if !files.is_empty() {
            usage();
        }
        let root = root
            .or_else(|| std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from))
            .map(|p| {
                // When invoked via `cargo run -p rms-analyze`, the
                // manifest dir is crates/analyze — hop to the root.
                if p.join("Cargo.toml").is_file() && p.ends_with("crates/analyze") {
                    p.parent()
                        .and_then(std::path::Path::parent)
                        .map_or(p.clone(), std::path::Path::to_path_buf)
                } else {
                    p
                }
            })
            .unwrap_or_else(|| PathBuf::from("."));
        analyze_workspace(&root, &opts)
    } else {
        if files.is_empty() {
            usage();
        }
        analyze_files(&files, &opts)
    };

    let report: Report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rms-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print_json(&report);
    } else {
        for f in &report.findings {
            println!("{f}");
        }
    }
    for (f, reason) in &report.suppressed {
        eprintln!("rms-analyze: suppressed {f} (allowed: {reason})");
    }
    eprintln!(
        "rms-analyze: {} file(s), {} finding(s), {} suppressed by {} pragma(s)",
        report.files_scanned,
        report.findings.len(),
        report.suppressed.len(),
        report.pragma_count,
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
