// Operational entry point: exempt from the library panic-freedom,
// console and determinism floor (DESIGN.md §7).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods
)]
//! `cargo xtask lint` — the *flower-lint* static-analysis pass.
//!
//! It enforces the repo-specific invariants that clippy cannot check:
//! literal and float-loop indexing, fixed-step clock loops, crate
//! layering, seed provenance and exact comparison against zero. Every
//! other determinism, NaN-safety and panic-freedom invariant is a clippy
//! lint (`clippy.toml` and the workspace `Cargo.toml`). See `DESIGN.md`
//! § "Static analysis & determinism invariants". Files are scanned in
//! path-sorted order, so the output is byte-identical run to run.
//!
//! ```text
//! cargo xtask lint            # human-readable diagnostics
//! cargo xtask lint --json     # machine-readable, for CI
//! cargo xtask lint --rules    # list the enforced invariant classes
//! ```
//!
//! Exit codes: 0 = clean, 1 = violations found, 2 = usage/IO error.

mod lexer;
mod lints;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lints::{analyze, count_by_rule, AllowEntry, Violation, RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("lint") => {
            let mut json = false;
            let mut list_rules = false;
            let mut root = default_root();
            while let Some(arg) = it.next() {
                match arg {
                    "--json" => json = true,
                    "--rules" => list_rules = true,
                    "--root" => match it.next() {
                        Some(path) => root = PathBuf::from(path),
                        None => {
                            eprintln!("--root requires a path");
                            return usage();
                        }
                    },
                    other => {
                        eprintln!("unknown argument `{other}`");
                        return usage();
                    }
                }
            }
            if list_rules {
                for (name, desc) in RULES {
                    println!("{name:<18} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            run_lint(&root, json)
        }
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask lint [--json] [--rules] [--root <path>]");
    ExitCode::from(2)
}

/// Workspace root: the ancestor of this binary's manifest dir, or cwd.
fn default_root() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from);
    manifest
        .and_then(|m| m.parent().and_then(Path::parent).map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// What one pass over the workspace found.
struct Report {
    violations: Vec<Violation>,
    allows: Vec<AllowEntry>,
    scanned: usize,
}

fn run_lint(root: &Path, json: bool) -> ExitCode {
    let report = match lint_workspace(root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!(
            "{}",
            render_json(&report.violations, &report.allows, report.scanned)
        );
    } else {
        print_human(&report.violations, &report.allows, report.scanned);
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Lint every `.rs` file under `<root>/crates/*/src`, in path order.
fn lint_workspace(root: &Path) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    crate_dirs.sort();
    let mut files: Vec<(String, PathBuf)> = Vec::new(); // (crate name, file)
    for dir in crate_dirs {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        collect_rs_files(&src, &name, &mut files);
    }
    files.sort();

    let mut report = Report {
        violations: Vec::new(),
        allows: Vec::new(),
        scanned: files.len(),
    };
    for (crate_name, path) in &files {
        let source =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned();
        let file_report = analyze(&rel, crate_name, &source);
        report.violations.extend(file_report.violations);
        report.allows.extend(file_report.allows_used);
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, crate_name: &str, out: &mut Vec<(String, PathBuf)>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, crate_name, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((crate_name.to_owned(), path));
        }
    }
}

fn print_human(violations: &[Violation], allows: &[AllowEntry], scanned: usize) {
    for v in violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    let counts = count_by_rule(violations);
    if !counts.is_empty() {
        println!();
        for (rule, n) in &counts {
            println!("  {n:>4}  {rule}");
        }
    }
    println!(
        "flower-lint: {} violation(s) across {} file(s); {} justified suppression(s)",
        violations.len(),
        scanned,
        allows.len()
    );
}

/// The `--json` report document.
fn render_json(violations: &[Violation], allows: &[AllowEntry], scanned: usize) -> String {
    let mut s = String::from("{\n  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
            json_str(v.rule),
            json_str(&v.file),
            v.line,
            json_str(&v.message)
        ));
    }
    s.push_str("\n  ],\n  \"allows\": [");
    for (i, a) in allows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"justification\": {}}}",
            json_str(&a.rule),
            json_str(&a.file),
            a.line,
            json_str(&a.justification)
        ));
    }
    s.push_str("\n  ],\n  \"summary\": {");
    s.push_str(&format!(
        "\"files_scanned\": {scanned}, \"total\": {}, \"by_rule\": {{",
        violations.len()
    ));
    let counts = count_by_rule(violations);
    for (i, (rule, n)) in counts.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{}: {n}", json_str(rule)));
    }
    s.push_str("}}\n}");
    s
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_round_trips_specials() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    /// The real workspace lints clean: no violation, and every
    /// suppression is a justified, used `lint:allow`.
    #[test]
    fn workspace_lints_clean() {
        let report = lint_workspace(&default_root()).expect("workspace is readable");
        assert!(
            report.scanned >= 80,
            "workspace walker found {} files",
            report.scanned
        );
        let found: Vec<String> = report
            .violations
            .iter()
            .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message))
            .collect();
        assert!(
            found.is_empty(),
            "workspace violations:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn json_report_renders_violations_and_allows_exactly() {
        let violations = [Violation {
            rule: "index-literal",
            file: "crates/core/src/x.rs".into(),
            line: 3,
            message: "`xs[0]` says \"hi\" \\ twice\nthen stops".into(),
        }];
        let allows = [AllowEntry {
            rule: "float-eq-zero".into(),
            file: "crates/sim/src/y.rs".into(),
            line: 9,
            justification: "exact-zero sentinel".into(),
        }];
        let expected = r#"{
  "violations": [
    {"rule": "index-literal", "file": "crates/core/src/x.rs", "line": 3, "message": "`xs[0]` says \"hi\" \\ twice\nthen stops"}
  ],
  "allows": [
    {"rule": "float-eq-zero", "file": "crates/sim/src/y.rs", "line": 9, "justification": "exact-zero sentinel"}
  ],
  "summary": {"files_scanned": 2, "total": 1, "by_rule": {"index-literal": 1}}
}"#;
        assert_eq!(render_json(&violations, &allows, 2), expected);
        let empty = "{\n  \"violations\": [\n  ],\n  \"allows\": [\n  ],\n  \"summary\": \
                     {\"files_scanned\": 0, \"total\": 0, \"by_rule\": {}}\n}";
        assert_eq!(render_json(&[], &[], 0), empty);
    }
}
