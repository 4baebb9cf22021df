//! Diagnostic records and rendering (aligned table + JSON).
//!
//! Output is an aligned human-readable table whose column widths adapt to
//! the data, and a hand-rolled JSON array whose strings go through
//! [`rh_obs::json_escape`] — the hermetic build (README §"Hermetic build")
//! has no serde.

use std::fmt;

use rh_obs::json_escape;

/// One lint finding, anchored to a `file:line` location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Rule name (kebab-case, e.g. `wall-clock`).
    pub rule: &'static str,
    /// Human explanation of this specific finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A collection of diagnostics with table/JSON rendering.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Findings in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Sorts findings by (file, line, rule) for deterministic output.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Renders the findings as an aligned table.
    pub fn render_table(&self) -> String {
        if self.diagnostics.is_empty() {
            return "no lint findings\n".to_string();
        }
        let loc_w = self
            .diagnostics
            .iter()
            .map(|d| d.file.len() + 1 + digits(d.line))
            .max()
            .unwrap_or(8)
            .max("location".len());
        let rule_w = self
            .diagnostics
            .iter()
            .map(|d| d.rule.len())
            .max()
            .unwrap_or(4)
            .max("rule".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:<loc_w$}  {:<rule_w$}  message\n",
            "location", "rule"
        ));
        out.push_str(&format!("{:-<loc_w$}  {:-<rule_w$}  -------\n", "", ""));
        for d in &self.diagnostics {
            let loc = format!("{}:{}", d.file, d.line);
            out.push_str(&format!(
                "{loc:<loc_w$}  {:<rule_w$}  {}\n",
                d.rule, d.message
            ));
        }
        out
    }

    /// Serializes the findings as a JSON array (hand-rolled, matching the
    /// `rh-bench` report format conventions).
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                    json_escape(&d.file),
                    d.line,
                    json_escape(d.rule),
                    json_escape(&d.message)
                )
            })
            .collect();
        format!("[{}]", entries.join(","))
    }
}

/// Renders a model-checker violation as a JSON object for the CLI's
/// `--json` mode: the failed invariant, the detail line, and the typed
/// counterexample trace in event order. Shared by the `protocol` and
/// `fleet` subcommands so both emit the same shape (callers print the
/// literal `null` when there is no violation).
pub fn violation_json(invariant: &str, detail: &str, trace: &[rh_obs::Event]) -> String {
    let events: Vec<String> = trace
        .iter()
        .map(|e| {
            format!(
                "{{\"category\":\"{}\",\"kind\":\"{}\",\"message\":\"{}\"}}",
                json_escape(e.category()),
                e.kind(),
                json_escape(&e.message())
            )
        })
        .collect();
    format!(
        "{{\"invariant\":\"{}\",\"detail\":\"{}\",\"trace\":[{}]}}",
        json_escape(invariant),
        json_escape(detail),
        events.join(",")
    )
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            diagnostics: vec![
                Diagnostic {
                    file: "crates/sim/src/engine.rs".into(),
                    line: 42,
                    rule: "wall-clock",
                    message: "Instant::now() outside rh-bench".into(),
                },
                Diagnostic {
                    file: "src/lib.rs".into(),
                    line: 7,
                    rule: "float-eq",
                    message: "float compared with ==".into(),
                },
            ],
        }
    }

    #[test]
    fn table_is_aligned() {
        let t = sample().render_table();
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with("location"));
        assert!(lines[2].contains("crates/sim/src/engine.rs:42"));
        // Rule column starts at the same offset on both data rows.
        let off2 = lines[2].find("wall-clock").unwrap_or(0);
        let off3 = lines[3].find("float-eq").unwrap_or(1);
        assert_eq!(off2, off3);
    }

    #[test]
    fn empty_report_renders_clean() {
        assert_eq!(Report::default().render_table(), "no lint findings\n");
        assert_eq!(Report::default().to_json(), "[]");
    }

    #[test]
    fn json_escapes_specials() {
        let r = Report {
            diagnostics: vec![Diagnostic {
                file: "f.rs".into(),
                line: 1,
                rule: "unwrap-panic",
                message: "uses \"expect\"".into(),
            }],
        };
        assert!(r.to_json().contains("\\\"expect\\\""));
    }

    #[test]
    fn sort_orders_by_file_then_line() {
        let mut r = sample();
        r.sort();
        assert_eq!(r.diagnostics[0].file, "crates/sim/src/engine.rs");
        assert_eq!(r.diagnostics[1].file, "src/lib.rs");
    }

    #[test]
    fn violation_json_carries_invariant_detail_and_trace() {
        let trace = vec![
            rh_obs::Event::HostDown { host: 0 },
            rh_obs::Event::note("fleet", "a \"quoted\" note"),
        ];
        let json = violation_json("I7 single-recovery", "host 0 overlapped", &trace);
        assert!(json.starts_with("{\"invariant\":\"I7 single-recovery\""));
        assert!(json.contains("\"detail\":\"host 0 overlapped\""));
        assert!(json.contains("\"kind\":\"HostDown\""));
        assert!(json.contains("\\\"quoted\\\""));
    }
}
