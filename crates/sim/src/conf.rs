//! The TOML-subset line reader shared by the fleet, fault-plan and
//! wizard files.
//!
//! The formats are `[[section]]` headers plus `key = value` lines (the
//! wizard file rejects sections). A `#` outside quotes starts a comment.
//! A value is either bare or a single `"…"` string with no quote inside
//! it (there are no escapes). Which sections and keys exist, and what
//! the values mean, is the caller's business; [`parse_u64`] and
//! [`parse_f64`] are the two number rules every caller shares.

/// One meaningful line of a TOML-subset file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Line<'a> {
    /// A `[[name]]` section header.
    Section(&'a str),
    /// A `key = value` line, the value without its quotes.
    Pair {
        /// The trimmed key.
        key: &'a str,
        /// The trimmed, unquoted value.
        value: &'a str,
    },
}

/// The meaningful lines of `text`, each with its 1-based line number.
/// Blank and comment-only lines are skipped.
///
/// An item is an error naming its line when the line has no `=`, an
/// unbalanced quote, or a quote anywhere but around the whole value.
pub fn lines(text: &str) -> impl Iterator<Item = Result<(usize, Line<'_>), String>> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let lineno = i + 1;
        match read_line(raw) {
            Ok(line) => line.map(|line| Ok((lineno, line))),
            Err(e) => Some(Err(format!("line {lineno}: {e}"))),
        }
    })
}

fn read_line(raw: &str) -> Result<Option<Line<'_>>, String> {
    let mut quoted = false;
    let mut end = raw.len();
    for (i, c) in raw.char_indices() {
        match c {
            '"' => quoted = !quoted,
            '#' if !quoted => {
                end = i;
                break;
            }
            _ => {}
        }
    }
    if quoted {
        return Err(format!("unbalanced quote: {}", raw.trim()));
    }
    let line = raw[..end].trim();
    if line.is_empty() {
        return Ok(None);
    }
    if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
        return Ok(Some(Line::Section(name.trim())));
    }
    let Some((key, value)) = line.split_once('=') else {
        return Err(format!("expected `key = value`: {line}"));
    };
    let value = value.trim();
    let value = match value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
        Some(inner) if !inner.contains('"') => inner,
        None if !value.contains('"') => value,
        _ => return Err(format!("a quoted value must be one `\"…\"` string: {line}")),
    };
    Ok(Some(Line::Pair {
        key: key.trim(),
        value,
    }))
}

/// Read `value` as the non-negative integer `key` requires.
///
/// # Errors
///
/// Names `key` and echoes `value` when it is not one.
pub fn parse_u64(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("`{key}` must be a non-negative integer, got `{value}`"))
}

/// Read `value` as the finite number `key` requires.
///
/// # Errors
///
/// Names `key` and echoes `value` when it is not one.
pub fn parse_f64(key: &str, value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("`{key}` must be a finite number, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(text: &str) -> Result<Vec<(usize, Line<'_>)>, String> {
        lines(text).collect()
    }

    #[test]
    fn sections_pairs_and_comments() {
        // Inside quotes `#` is part of the value, not a comment.
        let text = "# header\nseed = 7  # trailing\n\n[[fault]]\nlayer = \"shard#2\" # a comment\n";
        let got = read(text).unwrap();
        assert_eq!(
            got,
            vec![
                (
                    2,
                    Line::Pair {
                        key: "seed",
                        value: "7"
                    }
                ),
                (4, Line::Section("fault")),
                (
                    5,
                    Line::Pair {
                        key: "layer",
                        value: "shard#2"
                    }
                ),
            ]
        );
    }

    #[test]
    fn malformed_lines_name_their_line() {
        for (text, needle) in [
            ("ok = 1\nnonsense", "line 2: expected `key = value`"),
            ("id = \"abc", "line 1: unbalanced quote"),
            ("id = \"a\" \"b\"", "one `\"…\"` string"),
            ("id = abc\"", "unbalanced quote"),
            ("id = a\"b\"", "one `\"…\"` string"),
        ] {
            let err = read(text).unwrap_err();
            assert!(err.contains(needle), "`{text}` → `{err}`");
        }
    }

    #[test]
    fn number_rules() {
        assert_eq!(parse_u64("n", "42"), Ok(42));
        assert!(parse_u64("n", "-4")
            .unwrap_err()
            .contains("non-negative integer"));
        assert!(parse_u64("n", "1.5").is_err());
        assert_eq!(parse_f64("x", "2.5"), Ok(2.5));
        assert!(parse_f64("x", "inf").unwrap_err().contains("finite number"));
        assert!(parse_f64("x", "lots").is_err());
    }
}
