//! The ratcheted baseline.
//!
//! `lint-baseline.txt` (workspace root) records, per `(rule, file)`, how
//! many findings existed when the lint was introduced. The gate compares
//! fresh counts against it:
//!
//! * count **above** baseline → **fail** (a new violation slipped in),
//! * count **below** baseline → pass, with a reminder to ratchet the file
//!   down via `--update-baseline` so the debt can never grow back,
//! * pairs absent from the baseline default to **zero** — new files start
//!   clean.
//!
//! The file format is one `<rule> <count> <path>` triple per line, sorted,
//! `#` comments allowed — trivially diffable in review.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Baseline counts keyed by `(rule, file)`.
pub type Counts = BTreeMap<(String, String), u64>;

/// The baseline file name at the workspace root.
const BASELINE_FILE: &str = "lint-baseline.txt";

/// Parses a baseline file's contents.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse(text: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        let (Some(rule), Some(count), Some(path)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "baseline line {}: expected `<rule> <count> <path>`",
                idx + 1
            ));
        };
        let count: u64 = count
            .parse()
            .map_err(|e| format!("baseline line {}: bad count: {e}", idx + 1))?;
        counts.insert((rule.to_string(), path.to_string()), count);
    }
    Ok(counts)
}

/// Loads the baseline from `root`, treating a missing file as empty.
///
/// # Errors
///
/// Propagates parse errors and non-`NotFound` I/O errors.
pub fn load(root: &Path) -> Result<Counts, String> {
    let path = root.join(BASELINE_FILE);
    match fs::read_to_string(&path) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Counts::new()),
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

/// Serializes counts into the baseline file format (zero entries dropped).
pub fn render(counts: &Counts) -> String {
    let mut out = String::from(
        "# rh-lint ratcheted baseline: pre-existing findings, per rule and file.\n\
         # Counts may only shrink; `cargo run -p rh-lint -- --update-baseline`\n\
         # after a burn-down. New violations fail the gate regardless.\n",
    );
    for ((rule, path), count) in counts {
        if *count > 0 {
            let _ = writeln!(out, "{rule} {count} {path}");
        }
    }
    out
}

/// Writes the baseline to `root`.
///
/// # Errors
///
/// Propagates I/O errors as strings.
pub fn store(root: &Path, counts: &Counts) -> Result<(), String> {
    let path = root.join(BASELINE_FILE);
    fs::write(&path, render(counts)).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One `(rule, file)` pair whose fresh count differs from the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Rule name.
    pub rule: String,
    /// Repo-relative file.
    pub file: String,
    /// Baseline count.
    pub baseline: u64,
    /// Fresh count.
    pub current: u64,
}

/// The outcome of comparing fresh counts to the baseline.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Pairs above baseline — these fail the gate.
    pub regressions: Vec<Delta>,
    /// Pairs below baseline — eligible for a ratchet.
    pub improvements: Vec<Delta>,
}

impl Comparison {
    /// True when nothing exceeds the baseline.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares fresh counts against the baseline.
pub fn compare(baseline: &Counts, current: &Counts) -> Comparison {
    let mut cmp = Comparison::default();
    let keys: std::collections::BTreeSet<&(String, String)> =
        baseline.keys().chain(current.keys()).collect();
    for key in keys {
        let base = baseline.get(key).copied().unwrap_or(0);
        let cur = current.get(key).copied().unwrap_or(0);
        let delta = Delta {
            rule: key.0.clone(),
            file: key.1.clone(),
            baseline: base,
            current: cur,
        };
        if cur > base {
            cmp.regressions.push(delta);
        } else if cur < base {
            cmp.improvements.push(delta);
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, &str, u64)]) -> Counts {
        entries
            .iter()
            .map(|(r, f, c)| ((r.to_string(), f.to_string()), *c))
            .collect()
    }

    #[test]
    fn round_trip() {
        let c = counts(&[
            ("unwrap-panic", "crates/vmm/src/host.rs", 66),
            ("unwrap-panic", "crates/memory/src/p2m.rs", 2),
        ]);
        let text = render(&c);
        assert_eq!(parse(&text).unwrap(), c);
    }

    #[test]
    fn zero_entries_dropped_on_render() {
        let c = counts(&[("float-eq", "src/lib.rs", 0)]);
        assert!(!render(&c).contains("float-eq"));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse("unwrap-panic notanumber src/lib.rs").is_err());
        assert!(parse("justtwo fields").is_err());
        assert!(parse("# comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn paths_with_spaces_survive() {
        // splitn(3) keeps everything after the count as the path.
        let c = parse("unwrap-panic 1 crates/odd name/src/lib.rs").unwrap();
        assert_eq!(
            c.get(&("unwrap-panic".into(), "crates/odd name/src/lib.rs".into())),
            Some(&1)
        );
    }

    #[test]
    fn compare_classifies_deltas() {
        let base = counts(&[("unwrap-panic", "a.rs", 5), ("unwrap-panic", "b.rs", 2)]);
        let cur = counts(&[
            ("unwrap-panic", "a.rs", 7),
            ("unwrap-panic", "b.rs", 1),
            ("wall-clock", "c.rs", 1),
        ]);
        let cmp = compare(&base, &cur);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions.len(), 2, "a.rs grew and c.rs is new");
        assert_eq!(cmp.improvements.len(), 1);
        assert_eq!(cmp.improvements[0].file, "b.rs");
    }

    #[test]
    fn absent_pairs_default_to_zero() {
        let cmp = compare(&Counts::new(), &counts(&[("float-eq", "x.rs", 1)]));
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].baseline, 0);
    }
}
