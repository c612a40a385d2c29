//! Suppression pragmas: `// anlz:allow(rule-id): reason`.
//!
//! A pragma suppresses its rule on the line it sits on, and — when the
//! pragma is the only thing on its line — on the next source line as
//! well, so both styles work:
//!
//! ```text
//! let x = map[&k]; // anlz:allow(panic-in-hot-path): key inserted above
//!
//! // anlz:allow(panic-in-hot-path): key inserted above
//! let x = map[&k];
//! ```
//!
//! The reason is mandatory: a pragma without one is itself reported
//! (as `malformed-pragma`), so suppressions stay auditable. Every parsed
//! pragma is retained and printed by `--list-allows`.
//!
//! Only plain comments (`//`, `/* */`) are pragmas. A doc comment
//! (`///`, `//!`, `/** */`, `/*! */`) documents code, and may quote the
//! syntax — as this one does — without suppressing anything.

use crate::lexer::{Token, TokenKind};

/// One parsed `anlz:allow` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule id being suppressed, e.g. `panic-in-hot-path`.
    pub rule: String,
    /// The human justification after the trailing `:`.
    pub reason: String,
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// Lines the suppression covers (the pragma line, plus the next
    /// line when the pragma stands alone).
    pub covers: Vec<u32>,
}

/// A pragma-shaped comment that failed to parse (missing rule or
/// reason). Reported as a diagnostic so typos can't silently disable
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedPragma {
    /// 1-based line of the offending comment.
    pub line: u32,
    /// What is wrong with it.
    pub detail: String,
}

/// All suppressions found in one file.
#[derive(Debug, Default)]
pub struct AllowSet {
    /// Parsed pragmas in source order.
    pub allows: Vec<Allow>,
    /// Pragma-shaped comments that did not parse.
    pub malformed: Vec<MalformedPragma>,
}

impl AllowSet {
    /// True if `rule` is suppressed on `line`.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.covers.contains(&line))
    }

    /// True if any pragma for `rule` exists anywhere in the file.
    /// Used by file-granularity rules (missing-crate-hygiene).
    pub fn is_allowed_anywhere(&self, rule: &str) -> bool {
        self.allows.iter().any(|a| a.rule == rule)
    }
}

const MARKER: &str = "anlz:allow(";

/// Scans the token stream for pragma comments.
pub fn collect_allows(tokens: &[Token], src: &str) -> AllowSet {
    let mut set = AllowSet::default();
    for (i, tok) in tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = tok.text(src);
        if is_doc_comment(text) {
            continue;
        }
        let Some(at) = text.find(MARKER) else {
            continue;
        };
        let rest = &text[at + MARKER.len()..];
        let Some(close) = rest.find(')') else {
            set.malformed.push(MalformedPragma {
                line: tok.line,
                detail: "unclosed rule list in anlz:allow(...)".to_string(),
            });
            continue;
        };
        let rule = rest[..close].trim();
        if rule.is_empty() || !rule.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
            set.malformed.push(MalformedPragma {
                line: tok.line,
                detail: format!("invalid rule id {rule:?} in anlz:allow"),
            });
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after
            .strip_prefix(':')
            .map(|r| r.trim().trim_end_matches("*/").trim())
            .unwrap_or("");
        if reason.is_empty() {
            set.malformed.push(MalformedPragma {
                line: tok.line,
                detail: format!("anlz:allow({rule}) is missing a `: reason`"),
            });
            continue;
        }
        let mut covers = vec![tok.line];
        if standalone(tokens, i) {
            covers.extend(next_statement_lines(tokens, src, i));
        }
        set.allows.push(Allow {
            rule: rule.to_string(),
            reason: reason.to_string(),
            line: tok.line,
            covers,
        });
    }
    set
}

/// True if the comment `text` is a doc comment: `///` (not `////`),
/// `//!`, `/**` (not `/***` or the empty `/**/`) or `/*!` — the forms
/// rustc reads as documentation.
fn is_doc_comment(text: &str) -> bool {
    let outer_line = text.starts_with("///") && !text.starts_with("////");
    let outer_block = text.starts_with("/**") && !text.starts_with("/***") && text != "/**/";
    outer_line || outer_block || text.starts_with("//!") || text.starts_with("/*!")
}

/// True if the comment at `idx` has no code earlier on its line (i.e.
/// it is a standalone pragma line, not a trailing comment).
fn standalone(tokens: &[Token], idx: usize) -> bool {
    let line = tokens[idx].line;
    tokens[..idx]
        .iter()
        .rev()
        .take_while(|t| t.line == line)
        .all(|t| {
            matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
}

/// Lines of the statement following the pragma at `idx`: from the next
/// code token through the `;` or block-opening `{` that ends it
/// (bracket depth tracked so closure bodies don't cut it short). A
/// standalone pragma thereby covers a whole multi-line chain (rustfmt
/// loves to put `.expect(…)` on its own line), capped at 12 lines so a
/// missing semicolon cannot silently blanket half a file.
fn next_statement_lines(tokens: &[Token], src: &str, idx: usize) -> Vec<u32> {
    let mut lines = Vec::new();
    let mut depth = 0i32;
    for t in &tokens[idx + 1..] {
        if matches!(
            t.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        ) {
            continue;
        }
        if lines.last() != Some(&t.line) {
            if lines.len() >= 12 {
                break;
            }
            lines.push(t.line);
        }
        if t.kind == TokenKind::Punct {
            match t.text(src) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                "{" => depth += 1,
                "}" => depth -= 1,
                ";" if depth <= 0 => break,
                _ => {}
            }
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn allows(src: &str) -> AllowSet {
        collect_allows(&lex(src), src)
    }

    #[test]
    fn trailing_pragma_covers_its_line() {
        let src = "let x = m[&k]; // anlz:allow(panic-in-hot-path): key inserted above";
        let set = allows(src);
        assert_eq!(set.allows.len(), 1);
        assert!(set.is_allowed("panic-in-hot-path", 1));
        assert!(!set.is_allowed("panic-in-hot-path", 2));
        assert_eq!(set.allows[0].reason, "key inserted above");
    }

    #[test]
    fn standalone_pragma_covers_next_code_line() {
        let src = "\
// anlz:allow(nondeterministic-iteration): order folded by max below
// an unrelated comment line between pragma and code is fine
let best = map.values().fold(0, i64::max);";
        let set = allows(src);
        assert!(set.is_allowed("nondeterministic-iteration", 1));
        assert!(set.is_allowed("nondeterministic-iteration", 3));
        assert!(!set.is_allowed("nondeterministic-iteration", 2));
    }

    #[test]
    fn standalone_pragma_covers_whole_next_statement() {
        let src = "\
// anlz:allow(panic-in-hot-path): sealing is infallible here
self.seal_range(start, end, false)
    .expect(\"cheap sealing is infallible\");
other();";
        let set = allows(src);
        assert!(set.is_allowed("panic-in-hot-path", 2));
        assert!(set.is_allowed("panic-in-hot-path", 3));
        assert!(!set.is_allowed("panic-in-hot-path", 4));
    }

    #[test]
    fn statement_coverage_is_capped() {
        let body = (0..30)
            .map(|i| format!("    arg{i},\n"))
            .collect::<String>();
        let src = format!("// anlz:allow(panic-in-hot-path): capped\ncall(\n{body});\nx.unwrap();");
        let set = allows(&src);
        // 12-line cap: the pragma cannot blanket the 30-line call, let
        // alone the statement after it.
        assert!(set.is_allowed("panic-in-hot-path", 2));
        assert!(!set.is_allowed("panic-in-hot-path", 34));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let set = allows("// anlz:allow(some-rule)\nlet x = 1;");
        assert!(set.allows.is_empty());
        assert_eq!(set.malformed.len(), 1);
        assert!(set.malformed[0].detail.contains("missing"));
    }

    #[test]
    fn bad_rule_id_is_malformed() {
        let set = allows("// anlz:allow(bad id!): why");
        assert!(set.allows.is_empty());
        assert_eq!(set.malformed.len(), 1);
    }

    #[test]
    fn block_comment_pragma_parses() {
        let src = "/* anlz:allow(atomic-ordering-audit): counter is telemetry-only */\nc.fetch_add(1, Ordering::Relaxed);";
        let set = allows(src);
        assert_eq!(set.allows.len(), 1);
        assert!(set.is_allowed("atomic-ordering-audit", 2));
        assert_eq!(set.allows[0].reason, "counter is telemetry-only");
    }

    #[test]
    fn doc_comments_are_not_pragmas() {
        for doc in [
            "/// anlz:allow(panic-in-hot-path): quoted",
            "//! anlz:allow(panic-in-hot-path): quoted",
            "/** anlz:allow(panic-in-hot-path): quoted */",
            "/*! anlz:allow(panic-in-hot-path): quoted */",
            "/// anlz:allow(no reason)",
        ] {
            let set = allows(&format!("{doc}\nx.unwrap();"));
            assert!(set.allows.is_empty(), "{doc}");
            assert!(set.malformed.is_empty(), "{doc}");
        }
        // Four or more slashes, or `/***`, are plain comments again.
        for plain in [
            "//// anlz:allow(panic-in-hot-path): plain",
            "/*** anlz:allow(panic-in-hot-path): plain */",
        ] {
            let set = allows(&format!("{plain}\nx.unwrap();"));
            assert!(set.is_allowed("panic-in-hot-path", 2), "{plain}");
        }
    }

    #[test]
    fn pragma_inside_string_is_ignored() {
        let set = allows("let s = \"// anlz:allow(x): y\";");
        assert!(set.allows.is_empty());
        assert!(set.malformed.is_empty());
    }

    #[test]
    fn wrong_rule_not_suppressed() {
        let src = "x.unwrap(); // anlz:allow(nondeterministic-iteration): mismatched";
        let set = allows(src);
        assert!(!set.is_allowed("panic-in-hot-path", 1));
        assert!(set.is_allowed("nondeterministic-iteration", 1));
    }
}
