//! The `flower-lint` rule engine.
//!
//! Rules operate on the token stream produced by [`crate::lexer`] plus
//! the comment trivia (for `lint:allow` directives), and cover only what
//! clippy cannot check. The determinism bans, panic freedom, console
//! output and float comparison against non-zero values are clippy lints
//! set in the workspace `Cargo.toml` and `clippy.toml` (DESIGN.md §7).
//! Test code — `#[cfg(test)]` / `#[test]` items inside library sources —
//! is masked out before rules run, and the exempt crates are not scanned.

use std::collections::BTreeMap;

use crate::lexer::{lex, Comment, TokKind, Token};

/// Machine identifier for each invariant class the pass enforces.
pub const RULES: &[(&str, &str)] = &[
    (
        "index-literal",
        "slice indexing by integer literal, or by a for-loop variable on a Vec<f64>/\
         &[f64], in library code: panics when the slice is short; use \
         .first()/.get(..)/.iter().zip(..) or destructuring",
    ),
    (
        "fixed-step-loop",
        "a while/loop/for body advances SimTime by a constant step every iteration (the \
         retired tick-loop shape): quiet windows cost one iteration per step; schedule \
         discrete events on flower_sim::Scheduler and let run_until jump the clock",
    ),
    (
        "crate-layering",
        "reference to flower_serve or flower_fleet in a deterministic library crate: the \
         live daemon is an I/O shell *over* the deterministic core and the fleet manager \
         is an orchestrator *over* single-flow episodes; depending on either from below \
         inverts the layering (and, for serve, drags sockets and wall clocks into \
         replayable code)",
    ),
    (
        "rng-provenance",
        "SimRng::seed with a literal-derived seed in library code: every stream must trace \
         to a seed parameter, config field, or parent fork so replay stays reproducible",
    ),
    (
        "float-eq-zero",
        "exact ==/!= against a zero float literal, the one float comparison \
         clippy::float_cmp exempts: NaN-unsafe and rounding-brittle; use \
         flower_stats::float::near_zero, or justify an exact-zero sentinel",
    ),
    (
        "allow-invalid",
        "malformed lint:allow directive: unknown rule name or missing justification",
    ),
    (
        "allow-unused",
        "stale lint:allow directive: its line produces no violation of the named rule, so \
         the suppression is dead weight and hides intent — remove it",
    ),
];

/// Front-end and harness crates (cli, bench, serve, xtask): they talk to
/// the real world, so no rule applies to them.
const EXEMPT_CRATES: &[&str] = &["cli", "bench", "serve", "xtask"];

/// One diagnostic produced by the pass.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Path as given to [`analyze`].
    pub file: String,
    /// 1-indexed source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// A used `lint:allow` suppression, reported for audit in `--json`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule being suppressed.
    pub rule: String,
    /// Path as given to [`analyze`].
    pub file: String,
    /// 1-indexed line of the suppressed violation.
    pub line: u32,
    /// The justification text.
    pub justification: String,
}

/// Result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations found (after applying justified suppressions).
    pub violations: Vec<Violation>,
    /// Suppressions that matched a violation.
    pub allows_used: Vec<AllowEntry>,
}

/// A parsed `// lint:allow(rule): justification` directive.
#[derive(Debug, Clone)]
struct AllowDirective {
    rule: String,
    justification: String,
    line: u32,
}

/// Parse every `lint:allow` directive out of the comment trivia.
/// Malformed directives are returned as violations immediately.
fn parse_allows(comments: &[Comment], file: &str) -> (Vec<AllowDirective>, Vec<Violation>) {
    let mut directives = Vec::new();
    let mut violations = Vec::new();
    for c in comments {
        // A directive must *start* the comment (after the `//`/`/*`
        // markers); prose that merely mentions the syntax mid-sentence —
        // e.g. documentation describing the allowlist — is not one.
        let trimmed = c.text.trim_start_matches(['/', '*', '!', ' ', '\t']);
        let Some(rest) = trimmed.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            violations.push(Violation {
                rule: "allow-invalid",
                file: file.to_owned(),
                line: c.line,
                message: "unterminated lint:allow directive".to_owned(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_owned();
        let known = RULES.iter().any(|(r, _)| *r == rule);
        if !known {
            violations.push(Violation {
                rule: "allow-invalid",
                file: file.to_owned(),
                line: c.line,
                message: format!("lint:allow names unknown rule `{rule}`"),
            });
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let justification = after
            .strip_prefix(':')
            .map(str::trim)
            .unwrap_or("")
            .to_owned();
        if justification.len() < 10 {
            violations.push(Violation {
                rule: "allow-invalid",
                file: file.to_owned(),
                line: c.line,
                message: format!(
                    "lint:allow({rule}) has no justification — write \
                     `// lint:allow({rule}): <why this is sound>`"
                ),
            });
            continue;
        }
        directives.push(AllowDirective {
            rule,
            justification,
            line: c.line,
        });
    }
    (directives, violations)
}

/// Mark tokens belonging to `#[cfg(test)]` / `#[test]` items so rules
/// skip them. Returns a mask parallel to `tokens`.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_test_attribute(tokens, i) {
            let attr_start = i;
            // Skip this attribute and any further attributes.
            let mut j = skip_attribute(tokens, i);
            while j < tokens.len() && tokens[j].text == "#" {
                j = skip_attribute(tokens, j);
            }
            // Skip the annotated item: to the matching `}` of its first
            // top-level brace, or to `;` if none appears first.
            let mut depth = 0i64;
            let mut k = j;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        k += 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            for m in mask.iter_mut().take(k).skip(attr_start) {
                *m = true;
            }
            i = k;
        } else {
            i += 1;
        }
    }
    mask
}

/// Does an attribute starting at index `i` (`#`) mark test code?
/// Matches `#[test]`, `#[cfg(test)]`, and `#[cfg(all(test, ...))]` but
/// not `#[cfg(not(test))]`.
fn is_test_attribute(tokens: &[Token], i: usize) -> bool {
    if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
        return false;
    }
    let inner: Vec<&str> = tokens[i + 2..]
        .iter()
        .take_while(|t| t.text != "]")
        .map(|t| t.text.as_str())
        .collect();
    match inner.as_slice() {
        ["test"] => true,
        ["cfg", "(", "test", ")"] => true,
        ["cfg", "(", "all", "(", "test", rest @ ..] => !rest.is_empty(),
        _ => false,
    }
}

/// Index just past the `]` closing the attribute starting at `i`.
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i + 1;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Analyze one file's source.
///
/// `crate_name` is the workspace member directory name (`core`,
/// `nsga2`, ...); files of the exempt crates yield an empty report.
pub fn analyze(file: &str, crate_name: &str, src: &str) -> FileReport {
    // Exempt crates are not scanned at all — their comments may
    // legitimately *describe* the directive syntax (this file does), so
    // allow parsing is skipped there too.
    if EXEMPT_CRATES.contains(&crate_name) {
        return FileReport::default();
    }
    let (tokens, comments) = lex(src);
    let (allows, mut pre_violations) = parse_allows(&comments, file);
    let mask = test_mask(&tokens);
    let mut raw = Vec::new();
    scan_tokens(file, &tokens, &mask, &mut raw);

    let mut report = FileReport::default();
    report.violations.append(&mut pre_violations);

    // Apply suppressions: a directive on the violation's line or the
    // line immediately above it suppresses that rule there.
    let mut used = vec![false; allows.len()];
    for v in raw {
        let suppressed = allows
            .iter()
            .position(|a| a.rule == v.rule && (a.line == v.line || a.line + 1 == v.line));
        if let Some(i) = suppressed {
            used[i] = true;
            let a = &allows[i];
            report.allows_used.push(AllowEntry {
                rule: a.rule.clone(),
                file: file.to_owned(),
                line: v.line,
                justification: a.justification.clone(),
            });
        } else {
            report.violations.push(v);
        }
    }
    // Stale-allow detection: a well-formed directive that suppressed
    // nothing is itself a violation.
    for (i, a) in allows.iter().enumerate() {
        if !used[i] {
            report.violations.push(Violation {
                rule: "allow-unused",
                file: file.to_owned(),
                line: a.line,
                message: format!(
                    "lint:allow({}) matched no violation of that rule — remove the \
                     stale directive",
                    a.rule
                ),
            });
        }
    }
    report
}

/// Names annotated as `Vec<f64>` or `&[f64]` (including `&mut [f64]`
/// and lifetime-qualified references) anywhere in the file. The
/// indexed-loop extension of `index-literal` only fires on these: a
/// lexical pass cannot infer types, but float-slice annotations on
/// `let` bindings and parameters are where the hot numeric loops live.
fn f64_sequence_names(tokens: &[Token]) -> Vec<String> {
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    let mut names: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || text(i + 1) != ":" {
            continue;
        }
        // Skip reference/mut/lifetime prefixes in the type position.
        let mut j = i + 2;
        while text(j) == "&"
            || text(j) == "mut"
            || tokens.get(j).is_some_and(|t| t.kind == TokKind::Lifetime)
        {
            j += 1;
        }
        let slice = text(j) == "[" && text(j + 1) == "f64" && text(j + 2) == "]";
        let vec =
            text(j) == "Vec" && text(j + 1) == "<" && text(j + 2) == "f64" && text(j + 3) == ">";
        if (slice || vec) && !names.contains(&t.text) {
            names.push(t.text.clone());
        }
    }
    names
}

/// Names bound to a literal-argument `SimDuration` constructor —
/// `let step = SimDuration::from_secs(1)` or `const STEP: SimDuration =
/// SimDuration::from_mins(5)`. The `fixed-step-loop` rule treats
/// `t += step` inside a loop the same as the inline constructor: both
/// advance the clock by a compile-time constant per iteration.
fn const_duration_names(tokens: &[Token]) -> Vec<String> {
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    let mut names: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.text != "let" && t.text != "const" {
            continue;
        }
        let mut j = i + 1;
        if text(j) == "mut" {
            j += 1;
        }
        let Some(name) = tokens.get(j).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let mut k = j + 1;
        if text(k) == ":" && text(k + 1) == "SimDuration" {
            k += 2;
        }
        if text(k) == "=" && is_const_duration_call(tokens, k + 1) && !names.contains(&name.text) {
            names.push(name.text.clone());
        }
    }
    names
}

/// Does a `SimDuration::from_*(<numeric literal>)` call start at `i`?
fn is_const_duration_call(tokens: &[Token], i: usize) -> bool {
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    text(i) == "SimDuration"
        && text(i + 1) == "::"
        && text(i + 2).starts_with("from_")
        && text(i + 3) == "("
        && tokens
            .get(i + 4)
            .is_some_and(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
        && text(i + 5) == ")"
}

/// Is `toks` an expression of numeric literals alone: literals joined by
/// operators, parentheses and `as` casts (`42`, `7 ^ 13`, `(1 << 8) as u64`)?
fn is_literal_expr(toks: &[Token]) -> bool {
    const OPS: &[&str] = &[
        "(", ")", "+", "-", "*", "/", "%", "^", "&", "|", "!", "<<", ">>",
    ];
    let mut saw_literal = false;
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            TokKind::Int | TokKind::Float => saw_literal = true,
            TokKind::Punct if OPS.contains(&t.text.as_str()) => {}
            // `as <type>`: skip the cast's target type.
            TokKind::Ident
                if t.text == "as" && toks.get(k + 1).is_some_and(|n| n.kind == TokKind::Ident) =>
            {
                k += 1;
            }
            _ => return false,
        }
        k += 1;
    }
    saw_literal
}

/// The initialiser tokens of the nearest `let <name> = ..;` before `at`
/// in the enclosing fn (from its last `fn` keyword), if any.
fn nearest_let_init<'t>(tokens: &'t [Token], at: usize, name: &str) -> Option<&'t [Token]> {
    let fn_start = tokens[..at].iter().rposition(|t| t.text == "fn")?;
    let mut found = None;
    let mut i = fn_start;
    while i < at {
        if tokens[i].text != "let" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        if tokens.get(j).map(|t| t.text.as_str()) != Some(name) {
            i = j;
            continue;
        }
        // Skip a type annotation up to the `=`.
        let Some(eq) = tokens[j..at].iter().position(|t| t.text == "=") else {
            break;
        };
        let init_start = j + eq + 1;
        // The initialiser runs to the `;` at its own bracket depth.
        let mut depth = 0i64;
        let mut end = init_start;
        while end < at {
            match tokens[end].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        found = Some(&tokens[init_start..end]);
        i = end;
    }
    found
}

/// Is the token at `i` a float literal equal to zero (`0.0`, `0.`,
/// `0f64`, `0.0e3`, `-0.0` after its sign)?
fn is_zero_float(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| {
        t.kind == TokKind::Float
            && t.text
                .split(['e', 'E', 'f'])
                .next()
                .is_some_and(|mantissa| mantissa.chars().all(|c| matches!(c, '0' | '.' | '_')))
    })
}

/// Operators that bind tighter than `==`: a zero literal next to one is
/// part of a larger operand, not the operand itself.
const TIGHTER_THAN_EQ: &[&str] = &[".", "+", "-", "*", "/", "%"];

/// Does the token at `i` end a value, so that a `-` after it is binary?
fn ends_value(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| match t.kind {
        TokKind::Punct => t.text == ")" || t.text == "]",
        _ => true,
    })
}

/// Is one operand of the `==` / `!=` at `op` a zero float literal?
fn compares_with_zero(tokens: &[Token], op: usize) -> bool {
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    // Right operand: `x == 0.0`, `x != -0.0`.
    let mut r = op + 1;
    if text(r) == "-" {
        r += 1;
    }
    if is_zero_float(tokens, r) && !TIGHTER_THAN_EQ.contains(&text(r + 1)) {
        return true;
    }
    // Left operand: `0.0 == x`, `-0.0 != x`.
    let Some(l) = op.checked_sub(1).filter(|&l| is_zero_float(tokens, l)) else {
        return false;
    };
    let mut before = l.wrapping_sub(1);
    if text(before) == "-" && !ends_value(tokens, before.wrapping_sub(1)) {
        before = before.wrapping_sub(1);
    }
    !TIGHTER_THAN_EQ.contains(&text(before))
}

/// Run every token-pattern rule over non-test tokens.
fn scan_tokens(file: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Violation>) {
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    let kind = |i: usize| tokens.get(i).map(|t| t.kind.clone());
    let emit = |out: &mut Vec<Violation>, rule: &'static str, line: u32, message: String| {
        out.push(Violation {
            rule,
            file: file.to_owned(),
            line,
            message,
        });
    };

    let f64_seqs = f64_sequence_names(tokens);
    let const_durs = const_duration_names(tokens);
    // `for`-loop variables currently in scope, each with the brace depth
    // of its loop body. A `for i in ..` records a pending variable that
    // activates at the next `{` and retires when that brace closes.
    // Masked (test) spans are brace-balanced and skipped wholesale, so
    // depth stays consistent across them.
    let mut loop_vars: Vec<(String, i64)> = Vec::new();
    let mut pending_loop_var: Option<String> = None;
    // Brace depths of `while`/`loop`/`for` bodies currently open, for
    // the `fixed-step-loop` rule: the keyword arms a pending marker
    // that lands at the next `{` and retires when that brace closes.
    let mut loop_depths: Vec<i64> = Vec::new();
    let mut pending_loop = false;
    let mut depth = 0i64;

    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        let t = &tokens[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    if let Some(name) = pending_loop_var.take() {
                        loop_vars.push((name, depth));
                    }
                    if pending_loop {
                        pending_loop = false;
                        loop_depths.push(depth);
                    }
                }
                "}" => {
                    loop_vars.retain(|(_, d)| *d < depth);
                    loop_depths.retain(|d| *d < depth);
                    depth -= 1;
                }
                // --- NaN safety: the comparison clippy exempts ---
                "==" | "!=" if compares_with_zero(tokens, i) => {
                    emit(
                        out,
                        "float-eq-zero",
                        t.line,
                        format!(
                            "exact `{}` against a zero float literal; use \
                             flower_stats::float::near_zero",
                            t.text
                        ),
                    );
                }
                _ => {}
            }
        }
        // --- event discipline: fixed-step clock advances in loops ---
        // `t += SimDuration::from_secs(1)` or `t = t + step` (with
        // `step` a literal-constructed SimDuration) inside a loop body
        // is the retired tick-loop shape.
        if t.kind == TokKind::Ident && !loop_depths.is_empty() {
            let plus_assign = text(i + 1) == "+=";
            let self_add = text(i + 1) == "=" && text(i + 2) == t.text && text(i + 3) == "+";
            let rhs = if plus_assign { i + 2 } else { i + 4 };
            if (plus_assign || self_add)
                && (is_const_duration_call(tokens, rhs)
                    || (kind(rhs) == Some(TokKind::Ident)
                        && text(rhs + 1) == ";"
                        && const_durs.iter().any(|n| n == text(rhs))))
            {
                emit(
                    out,
                    "fixed-step-loop",
                    t.line,
                    format!(
                        "`{}` advances by a constant duration every loop iteration; \
                         schedule an event on flower_sim::Scheduler instead of \
                         stepping the clock on a fixed grid",
                        t.text
                    ),
                );
            }
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                // --- layering: the daemon shell and the fleet
                // orchestrator are downstream-only ---
                "flower_serve" | "flower_fleet" => {
                    emit(
                        out,
                        "crate-layering",
                        t.line,
                        format!("`{}` referenced from deterministic library code", t.text),
                    );
                }
                // --- seed provenance: no hard-coded streams ---
                "SimRng" if text(i + 1) == "::" && text(i + 2) == "seed" && text(i + 3) == "(" => {
                    let Some(close) = matching_paren(tokens, i + 3) else {
                        continue;
                    };
                    let arg = &tokens[i + 4..close];
                    let literal = is_literal_expr(arg)
                        || matches!(arg, [name] if name.kind == TokKind::Ident
                            && nearest_let_init(tokens, i, &name.text).is_some_and(is_literal_expr));
                    if literal {
                        emit(
                            out,
                            "rng-provenance",
                            t.line,
                            "`SimRng::seed` with a hard-coded literal seed: seeds must trace \
                             to a seed parameter, config field, or parent stream fork"
                                .to_owned(),
                        );
                    }
                }
                // --- panic freedom: indexed loops over float slices ---
                "for" if kind(i + 1) == Some(TokKind::Ident) && text(i + 2) == "in" => {
                    pending_loop_var = Some(text(i + 1).to_owned());
                    pending_loop = true;
                }
                // --- event discipline: arm the loop-body marker ---
                // (`for<'a>` higher-ranked bounds are not loops)
                "while" | "loop" | "for" if text(i + 1) != "<" => {
                    pending_loop = true;
                }
                // --- panic freedom: indexing by literal or loop var ---
                _ => {
                    if text(i + 1) == "["
                        && kind(i + 2) == Some(TokKind::Int)
                        && text(i + 3) == "]"
                        && t.text != "self"
                    {
                        emit(
                            out,
                            "index-literal",
                            t.line,
                            format!("`{}[{}]` indexes by literal", t.text, text(i + 2)),
                        );
                    } else if text(i + 1) == "["
                        && kind(i + 2) == Some(TokKind::Ident)
                        && text(i + 3) == "]"
                        && loop_vars.iter().any(|(n, _)| n == text(i + 2))
                        && f64_seqs.iter().any(|n| n == &t.text)
                    {
                        emit(
                            out,
                            "index-literal",
                            t.line,
                            format!(
                                "`{0}[{1}]` subscripts a float sequence by its loop \
                                 variable; iterate with .iter().zip(..) or use .get({1})",
                                t.text,
                                text(i + 2)
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Aggregate per-rule counts for the summary line.
pub fn count_by_rule(violations: &[Violation]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for v in violations {
        *counts.entry(v.rule).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str) -> Vec<&'static str> {
        analyze("fixture.rs", "core", src)
            .violations
            .iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn forbids_layering_inversions_in_deterministic_crates() {
        // The inverted layering the rule exists to catch: a
        // deterministic crate importing the daemon shell or the fleet
        // orchestrator.
        let src =
            "use flower_serve::Daemon;\nfn f() { let d = flower_serve::ServeConfig::default(); }";
        assert_eq!(rules_hit(src), vec!["crate-layering", "crate-layering"]);
        let fleet_src = "use flower_fleet::Fleet;\nfn f(s: flower_fleet::FleetSpec) {}";
        assert_eq!(
            rules_hit(fleet_src),
            vec!["crate-layering", "crate-layering"]
        );
        // Mentioning either crate in a comment is fine.
        assert!(rules_hit("// flower_serve is downstream of this crate\nfn f() {}").is_empty());
        assert!(rules_hit("// flower_fleet merges per-flow traces\nfn f() {}").is_empty());
        // And the fleet crate's own deterministic sources stay clean:
        // internal references go through `crate::`, never the package
        // name, so the rule holds for the orchestrator itself too.
        assert!(
            analyze("fixture.rs", "fleet", "fn f() { crate::broker::noop(); }")
                .violations
                .is_empty()
        );
    }

    #[test]
    fn catches_literal_indexing() {
        let src = r#"
            fn f(xs: &[u64]) -> u64 {
                let c = xs[0];
                xs.get(1).copied().unwrap_or(c)
            }
        "#;
        assert_eq!(rules_hit(src), vec!["index-literal"]);
    }

    #[test]
    fn literal_seed_violates_provenance() {
        assert_eq!(
            rules_hit("fn f() { let rng = SimRng::seed(42); }"),
            vec!["rng-provenance"]
        );
        // Operators, parentheses and casts keep a seed literal-only.
        assert_eq!(
            rules_hit("fn f() { let rng = SimRng::seed((1 << 8) as u64 ^ 0xFF); }"),
            vec!["rng-provenance"]
        );
    }

    #[test]
    fn literal_seed_through_binding_violates_provenance() {
        let src = "fn f() { let s = 7 ^ 13; let rng = SimRng::seed(s); }";
        assert_eq!(rules_hit(src), vec!["rng-provenance"]);
        let typed = "fn f() { let mut s: u64 = 7; s += 1; let rng = SimRng::seed(s); }";
        assert_eq!(rules_hit(typed), vec!["rng-provenance"]);
    }

    #[test]
    fn seed_from_parameter_is_clean() {
        let src = r#"
            fn a(seed: u64) -> SimRng { SimRng::seed(seed) }
            fn b(seed: u64) -> SimRng { SimRng::seed(seed ^ 0x9E37_79B9_7F4A_7C15) }
            fn c(config: &Config) -> SimRng { SimRng::seed(config.seed) }
            fn d(seed: u64) -> SimRng { let s = seed ^ 7; SimRng::seed(s) }
        "#;
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn provenance_binding_lookup_stays_in_its_fn() {
        // `seed` is a literal binding in `a` but a parameter in `b`: the
        // nearest `let` is looked up only inside the enclosing fn, and
        // the nearest one wins.
        let src = r#"
            fn a() -> u64 { let seed = 3; seed }
            fn b(seed: u64) -> SimRng { SimRng::seed(seed) }
            fn c(x: u64) -> SimRng { let s = 3; let s = s ^ x; SimRng::seed(s) }
        "#;
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn provenance_flags_only_the_literal_seed() {
        // Three seeds in one library file, one hard-coded: exactly one
        // finding, on the literal's line.
        let src = r#"
pub fn from_config(config: &Config) -> SimRng {
    let s = config.seed + 1;
    SimRng::seed(s)
}

pub fn literal_seed() -> SimRng {
    SimRng::seed(42)
}

pub fn good_seed(seed: u64) -> SimRng {
    SimRng::seed(seed)
}
"#;
        let report = analyze("fixture.rs", "core", src);
        let lines: Vec<(&str, u32)> = report.violations.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(lines, vec![("rng-provenance", 8)]);
    }

    #[test]
    fn float_eq_zero_catches_zero_literals() {
        let src = r#"
            fn f(x: f64, y: f64) -> bool {
                let a = x == 0.0;
                let b = 0.0 != y;
                let c = x == -0.0;
                let d = -0.0 == y;
                let e = x != 0f64;
                let g = x == 0.0_f32 as f64;
                a && b && c && d && e && g
            }
        "#;
        assert_eq!(rules_hit(src), vec!["float-eq-zero"; 6]);
    }

    #[test]
    fn nonzero_float_eq_is_left_to_clippy() {
        // `clippy::float_cmp` owns every comparison but the zero one.
        let src = r#"
            fn f(x: f64, y: f64) -> bool {
                x == 0.5 || 1.0e-3 != y || x == y
                    || x == 0.0 + y || y - 0.0 == x || x == 0.0.max(y)
            }
        "#;
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn integer_eq_is_clean() {
        let src = "fn f(a: u64, b: u64) -> bool { a == b || a == 0 || 0 != b || a == 0x0 }";
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            fn lib() -> u64 { 1 }

            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let rng = SimRng::seed(42);
                    let xs = [1u64, 2];
                    assert_eq!(xs[0], 1);
                    assert!(0.5 * 0.0 == 0.0);
                    let _ = flower_serve::Daemon::new();
                }
            }

            #[test]
            fn lone() { let rng = SimRng::seed(7); }
        "#;
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn test_code_is_exempt_from_provenance() {
        // A literal seed is how a test pins its fixture, whether it is
        // passed straight in or through a binding.
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let rng = SimRng::seed(42); }

                #[test]
                fn through_binding() { let s = 7 ^ 13; let rng = SimRng::seed(s); }
            }
        "#;
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
        // The same bodies outside test code are findings.
        let lib = "fn t() { let rng = SimRng::seed(42); }\n\
                   fn through_binding() { let s = 7 ^ 13; let rng = SimRng::seed(s); }";
        assert_eq!(rules_hit(lib), vec!["rng-provenance"; 2]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = r#"
            #[cfg(not(test))]
            fn lib(xs: &[u64]) -> u64 { xs[0] }
        "#;
        assert_eq!(rules_hit(src), vec!["index-literal"]);
    }

    #[test]
    fn exempt_profile_skips_determinism_rules() {
        let src = "use flower_serve::Daemon;\n\
                   fn f(xs: &[u64], x: f64) -> u64 { let r = SimRng::seed(1); \
                   if x == 0.0 { xs[0] } else { 0 } }";
        assert_eq!(rules_hit(src).len(), 4, "{:?}", rules_hit(src));
        for exempt in ["serve", "cli", "bench", "xtask"] {
            let report = analyze("fixture.rs", exempt, src);
            assert!(report.violations.is_empty(), "`{exempt}` must be exempt");
        }
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"
            // SimRng::seed(42) and xs[0] in a comment
            /* x == 0.0 and flower_serve too */
            fn f() -> &'static str { "SimRng::seed(42) xs[0] == 0.0 flower_fleet" }
        "#;
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn justified_allow_suppresses() {
        let src = r#"
            fn f(x: f64) -> bool {
                // lint:allow(float-eq-zero): exact-zero sentinel, never computed
                x == 0.0
            }
        "#;
        let report = analyze("fixture.rs", "core", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used.len(), 1);
        assert_eq!(report.allows_used[0].rule, "float-eq-zero");
        assert_eq!(report.allows_used[0].line, 4);
    }

    #[test]
    fn same_line_allow_suppresses() {
        let src = "fn f() { let r = SimRng::seed(7); } // lint:allow(rng-provenance): fixed demo stream, documented\n";
        let report = analyze("fixture.rs", "core", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used.len(), 1);
    }

    #[test]
    fn unjustified_allow_is_a_violation() {
        let src = r#"
            // lint:allow(index-literal)
            fn f(xs: &[u64]) -> u64 { xs[0] }
        "#;
        let report = analyze("fixture.rs", "core", src);
        // An unjustified allow must not silence the underlying finding:
        // both the bad allow and the real violation are reported.
        assert_eq!(
            report.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec!["allow-invalid", "index-literal"]
        );
    }

    #[test]
    fn prose_mention_of_allow_syntax_is_not_a_directive() {
        let src = "//! Suppress with a justified `lint:allow(float-eq-zero)` comment.\nfn f() {}\n";
        let report = analyze("fixture.rs", "core", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.allows_used.is_empty());
    }

    #[test]
    fn unknown_rule_allow_is_a_violation() {
        // Rules clippy now carries are unknown here: their suppressions
        // are `#[expect(clippy::..)]` attributes.
        for rule in [
            "no-such-rule",
            "panic-unwrap",
            "nondet-flow",
            "float-eq-typed",
        ] {
            let src =
                format!("// lint:allow({rule}): this rule is not flower-lint's\nfn f() {{}}\n");
            let report = analyze("fixture.rs", "core", &src);
            assert_eq!(report.violations.len(), 1, "{rule}");
            assert_eq!(report.violations[0].rule, "allow-invalid", "{rule}");
        }
    }

    #[test]
    fn stale_allow_is_a_violation() {
        let src = r#"
            // lint:allow(float-eq-zero): stale — nothing on the next line compares floats
            pub fn add(a: u64, b: u64) -> u64 {
                a + b
            }
        "#;
        let report = analyze("fixture.rs", "core", src);
        assert_eq!(
            report.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec!["allow-unused"]
        );
        let clean = "pub fn add(a: u64, b: u64) -> u64 {\n    a + b\n}\n";
        assert!(rules_hit(clean).is_empty());
    }

    #[test]
    fn allow_does_not_leak_to_other_lines() {
        let src = r#"
            // lint:allow(index-literal): only suppresses the next line
            fn a(xs: &[u64]) -> u64 { xs[0] }
            fn b(xs: &[u64]) -> u64 { xs[0] }
        "#;
        let report = analyze("fixture.rs", "core", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].line, 4);
        assert_eq!(report.allows_used.len(), 1);
    }

    #[test]
    fn catches_loop_variable_indexing_of_float_slices() {
        let src = r#"
            fn dot(xs: &[f64], ys: &'a mut [f64], zs: Vec<f64>) -> f64 {
                let mut acc = 0.0;
                for i in 0..xs.len() {
                    acc += xs[i] * ys[i] + zs[i];
                }
                acc
            }
        "#;
        let hits = rules_hit(src);
        assert_eq!(
            hits.iter().filter(|r| **r == "index-literal").count(),
            3,
            "hits: {hits:?}"
        );
    }

    #[test]
    fn loop_indexing_requires_a_float_sequence_and_a_loop_var() {
        let src = r#"
            fn f(ids: &[u64], ws: Vec<f64>) -> f64 {
                for i in 0..ids.len() {
                    let _ = ids[i]; // not f64: clean
                }
                let j = 2usize;
                ws[j] // not a loop variable: clean
            }
        "#;
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn loop_variable_scope_ends_with_the_loop_body() {
        let src = r#"
            fn f(xs: Vec<f64>, i: usize) -> f64 {
                for i in 0..3 {
                    let _ = i;
                }
                xs[i]
            }
        "#;
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn self_indexing_is_not_flagged() {
        // Tuple-struct field access `self.0` and newtype indexing look
        // different at token level; only `ident [ int ]` fires.
        assert!(rules_hit("impl X { fn g(&self) -> u64 { self.0 } }").is_empty());
    }

    #[test]
    fn catches_fixed_step_loops() {
        // The retired tick-loop shape, in each spelling the rule knows.
        let src = r#"
            fn run(end: SimTime) {
                let mut now = SimTime::ZERO;
                while now < end {
                    step(now);
                    now += SimDuration::from_secs(1);
                }
            }
            fn drain(mut t: SimTime, end: SimTime) {
                let dt = SimDuration::from_millis(500);
                loop {
                    if t >= end { break; }
                    t += dt;
                }
            }
            fn sweep(mut t: SimTime) {
                for _round in 0..60 {
                    t = t + SimDuration::from_mins(1);
                }
            }
        "#;
        let hits = rules_hit(src);
        assert_eq!(
            hits.iter().filter(|r| **r == "fixed-step-loop").count(),
            3,
            "hits: {hits:?}"
        );
    }

    #[test]
    fn event_driven_advances_are_not_fixed_step_loops() {
        // Negative fixtures: advancing to a *computed* instant, constant
        // steps outside any loop, and non-time arithmetic in loops.
        let src = r#"
            fn run_until(sched: &mut Scheduler, until: SimTime) {
                while let Some(at) = sched.next_event_time() {
                    if at > until { break; }
                    sched.step();
                }
            }
            fn schedule_next(t: SimTime) -> SimTime {
                t + SimDuration::from_secs(1)
            }
            fn vary(mut t: SimTime, period: SimDuration, end: SimTime) {
                while t < end {
                    t += period;
                }
            }
            fn count(mut n: u64) {
                for _ in 0..4 {
                    n += 1;
                }
            }
        "#;
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn justified_allow_suppresses_fixed_step_loop() {
        let src = r#"
            fn roll_day(day_start: &mut SimTime, now: SimTime) {
                while now.since(*day_start) >= SimDuration::from_hours(24) {
                    // lint:allow(fixed-step-loop): day-boundary catch-up, bounded by elapsed days
                    *day_start += SimDuration::from_hours(24);
                }
            }
        "#;
        let report = analyze("fixture.rs", "cloud", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used.len(), 1);
        assert_eq!(report.allows_used[0].rule, "fixed-step-loop");
    }

    #[test]
    fn every_rule_has_distinct_name_and_description() {
        let names: Vec<&str> = RULES.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "index-literal",
                "fixed-step-loop",
                "crate-layering",
                "rng-provenance",
                "float-eq-zero",
                "allow-invalid",
                "allow-unused"
            ]
        );
        assert!(RULES.iter().all(|(_, desc)| desc.len() > 40));
    }
}
