//! `rh-lint`: the in-repo static-analysis pass and warm-VM reboot
//! protocol checker.
//!
//! The hermetic build policy (no registry dependencies, see README) rules
//! out clippy plugins and external analyzers, so the project carries its
//! own: a lightweight Rust tokenizer ([`tokenizer`]) feeding a rule engine
//! ([`rules`]) over every `crates/**/*.rs` and `src/**/*.rs` file, with a
//! ratcheted baseline ([`baseline`]) for pre-existing debt — plus a small
//! explicit-state model-checking engine ([`explore`]: parallel
//! deterministic BFS with symmetry and partial-order reduction) driving
//! four models: the suspend → xexec → resume lifecycle of the warm-VM
//! reboot ([`protocol`], paper §4.2–4.3), the cluster-level rolling
//! rejuvenation campaign ([`fleet`], invariants I6/I7), the post-copy
//! page-serving fault path of the streamed reboot ([`postcopy`],
//! invariants P1/P2), and the balloon / warm-reboot interaction of the
//! serverless cell ([`balloon`], invariants I8/I9). The engine owns the
//! result of every check: each model's `explore` returns an
//! [`explore::Run`] whose [`explore::Counterexample`] carries the event
//! path, its typed trace (the model's [`explore::Model::trace`]) and one
//! rendering, and [`explore::replay`] walks any single path through a
//! model's guards and invariants.
//!
//! Run it via the binary:
//!
//! ```text
//! cargo run -p rh-lint -- --check          # the verify-gate entry point
//! cargo run -p rh-lint -- --json           # findings as JSON
//! cargo run -p rh-lint -- --update-baseline
//! cargo run -p rh-lint -- protocol --domains 3
//! cargo run -p rh-lint -- protocol --buggy # must find the §4.3 hazard
//! cargo run -p rh-lint -- fleet            # campaign invariants I6/I7
//! cargo run -p rh-lint -- fleet --driver buggy-overlap # must find I7
//! cargo run -p rh-lint -- postcopy         # stream-in invariants P1/P2
//! cargo run -p rh-lint -- postcopy --buggy # must find the early serve
//! cargo run -p rh-lint -- balloon          # cell invariants I8/I9
//! cargo run -p rh-lint -- balloon --buggy  # must find the torn image
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod balloon;
pub mod baseline;
pub mod diagnostics;
pub mod explore;
pub mod fleet;
pub mod postcopy;
pub mod protocol;
pub mod rules;
pub mod tokenizer;
pub mod walk;

use std::fs;
use std::path::Path;

use diagnostics::Report;

/// The outcome of linting the whole workspace.
#[derive(Debug)]
pub struct LintOutcome {
    /// Every finding, including baseline-covered ones, sorted.
    pub report: Report,
    /// Baseline comparison.
    pub comparison: baseline::Comparison,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintOutcome {
    /// True when no finding exceeds the baseline.
    pub fn passed(&self) -> bool {
        self.comparison.passed()
    }

    /// The findings in `(rule, file)` pairs that regressed — what the gate
    /// prints when failing.
    pub fn regressed_diagnostics(&self) -> Report {
        let mut out = Report::default();
        for d in &self.report.diagnostics {
            if self
                .comparison
                .regressions
                .iter()
                .any(|r| r.rule == d.rule && r.file == d.file)
            {
                out.diagnostics.push(d.clone());
            }
        }
        out
    }
}

/// Lints every workspace source file under `root` and compares the counts
/// against the committed baseline.
///
/// # Errors
///
/// Returns a message on I/O or baseline-parse failure.
pub fn lint_workspace(root: &Path) -> Result<LintOutcome, String> {
    let files = walk::discover(root)?;
    let mut report = Report::default();
    for file in &files {
        let src = fs::read_to_string(&file.abs_path)
            .map_err(|e| format!("read {}: {e}", file.abs_path.display()))?;
        let lexed = tokenizer::tokenize(&src);
        report
            .diagnostics
            .extend(rules::check_file(&file.rel_path, &lexed));
    }
    report.sort();
    let base = baseline::load(root)?;
    let current = rules::count_by_rule_file(&report.diagnostics);
    let comparison = baseline::compare(&base, &current);
    Ok(LintOutcome {
        report,
        comparison,
        files_scanned: files.len(),
    })
}

/// Rewrites the baseline to the current finding counts.
///
/// # Errors
///
/// Propagates lint and I/O failures.
pub fn update_baseline(root: &Path) -> Result<LintOutcome, String> {
    let outcome = lint_workspace(root)?;
    let counts = rules::count_by_rule_file(&outcome.report.diagnostics);
    baseline::store(root, &counts)?;
    // Reload so the returned comparison reflects the new baseline.
    lint_workspace(root)
}
