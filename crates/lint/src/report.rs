//! Findings, deterministic ordering, and the two renderings: human
//! `file:line:col` diagnostics and the `vc-lint-report/v1` JSON document.

use std::fmt;
use vc_json::{obj, Json};

/// One lint finding with a full span anchor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative, `/`-separated path.
    pub file: String,
    /// 1-indexed line of the triggering token.
    pub line: u32,
    /// 1-indexed byte column of the triggering token.
    pub col: u32,
    /// Stable rule code (`VC001`…).
    pub code: &'static str,
    /// Human rule name (`no-panic-paths`, …).
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} [{}] {}",
            self.file, self.line, self.col, self.code, self.rule, self.message
        )
    }
}

/// The outcome of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, sorted (file, line, code, col, message).
    pub findings: Vec<Finding>,
    /// How many findings were silenced by suppression pragmas.
    pub suppressed: usize,
    /// How many files were scanned.
    pub files_scanned: usize,
}

/// The schema identifier of the JSON rendering.
pub const REPORT_SCHEMA: &str = "vc-lint-report/v1";

impl Report {
    /// Sorts findings deterministically — file path, then line, then
    /// rule code (column and message break remaining ties) — so rendered
    /// output and the JSON document are diffable and independent of
    /// filesystem iteration order and rule execution order.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.code, a.col, &a.message)
                .cmp(&(&b.file, b.line, b.code, b.col, &b.message))
        });
    }

    /// Renders the `vc-lint-report/v1` JSON document (a single object,
    /// findings in sorted order, parseable by `xtask check-json`).
    pub fn to_json(&self) -> String {
        vc_json::document(&obj! {
            "schema": REPORT_SCHEMA, "files_scanned": self.files_scanned,
            "suppressed": self.suppressed, "total": self.findings.len(),
            "findings": Json::arr(self.findings.iter().map(|f| obj! {
                "file": &f.file, "line": f.line, "col": f.col, "code": f.code, "rule": f.rule,
                "message": &f.message,
            })),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, col: u32, code: &'static str) -> Finding {
        Finding {
            file: file.into(),
            line,
            col,
            code,
            rule: "r",
            message: "m".into(),
        }
    }

    #[test]
    fn sort_is_file_then_line_then_code() {
        let mut r = Report {
            findings: vec![
                finding("b.rs", 1, 1, "VC002"),
                finding("a.rs", 9, 1, "VC001"),
                finding("a.rs", 2, 5, "VC009"),
                finding("a.rs", 2, 1, "VC001"),
            ],
            ..Report::default()
        };
        r.sort();
        let order: Vec<(String, u32, &str)> = r
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line, f.code))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".into(), 2, "VC001"),
                ("a.rs".into(), 2, "VC009"),
                ("a.rs".into(), 9, "VC001"),
                ("b.rs".into(), 1, "VC002"),
            ]
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let r = Report {
            findings: vec![
                Finding {
                    message: "a\"b\\c\nd\u{1}".into(),
                    ..finding("a\\b \"c\".rs", 1, 1, "VC001")
                },
                finding("z.rs", 2, 3, "VC009"),
            ],
            files_scanned: 7,
            suppressed: 2,
        };
        assert_eq!(
            r.to_json(),
            r#"{
  "schema": "vc-lint-report/v1",
  "files_scanned": 7,
  "suppressed": 2,
  "total": 2,
  "findings": [
    {"file": "a\\b \"c\".rs", "line": 1, "col": 1, "code": "VC001", "rule": "r", "message": "a\"b\\c\nd\u0001"},
    {"file": "z.rs", "line": 2, "col": 3, "code": "VC009", "rule": "r", "message": "m"}
  ]
}
"#
        );
    }

    #[test]
    fn empty_report_renders_an_empty_findings_array() {
        assert_eq!(
            Report::default().to_json(),
            "{\n  \"schema\": \"vc-lint-report/v1\",\n  \"files_scanned\": 0,\n  \
             \"suppressed\": 0,\n  \"total\": 0,\n  \"findings\": []\n}\n"
        );
    }
}
