//! The project lint rules.
//!
//! Each rule scans the token stream of one file (see [`crate::tokenizer`])
//! and emits [`Diagnostic`]s. Rules the compiler cannot express:
//!
//! | rule              | enforces                                                      |
//! |-------------------|---------------------------------------------------------------|
//! | `wall-clock`      | no `Instant::now` / `SystemTime::now` outside `rh-bench`      |
//! | `unwrap-panic`    | no `unwrap()`/`expect()`/`panic!` family in library code      |
//! | `todo-dbg`        | no `todo!`/`unimplemented!`/`dbg!` stubs in library code      |
//! | `float-eq`        | no `==` / `!=` against float literals                         |
//! | `truncating-cast` | no narrowing `as` casts of `Pfn`/`Mfn`/frame-count values     |
//! | `hashmap-iter`    | no `HashMap`/`HashSet` (iteration order would leak into       |
//! |                   | reports and digests); use `BTreeMap`/`BTreeSet`               |
//! | `allow-attr`      | no `#[allow(...)]` without an adjacent                        |
//! |                   | `// lint:allow(allow-attr): reason` justification             |
//!
//! # Allowlist syntax
//!
//! A finding can be acknowledged in place with a comment on the same line
//! or the line directly above:
//!
//! ```text
//! // lint:allow(wall-clock): benchmark timing is the one permitted use
//! let start = Instant::now();
//! ```
//!
//! The reason after the colon is mandatory — a directive without one is
//! itself reported (`lint-directive`). `lint:allow-file(rule): reason`
//! anywhere in a file suppresses the rule for the whole file. Broader
//! burn-down debt lives in `lint-baseline.txt` (see [`crate::baseline`]).

use std::collections::BTreeMap;

use crate::diagnostics::Diagnostic;
use crate::tokenizer::{Lexed, Token, TokenKind};

/// Names of all rules, in reporting order.
pub const RULE_NAMES: [&str; 8] = [
    "wall-clock",
    "unwrap-panic",
    "todo-dbg",
    "float-eq",
    "truncating-cast",
    "hashmap-iter",
    "allow-attr",
    "lint-directive",
];

/// Integer types an `as` cast can truncate a frame number into.
const NARROW_INTS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize"];

/// Identifier fragments marking a value as frame-number-ish.
const FRAME_HINTS: [&str; 3] = ["pfn", "mfn", "frame"];

/// The panicking macro names `unwrap-panic` rejects (the method names —
/// `unwrap`, `expect`, … — are matched by call shape in `check_file`).
/// `todo!`/`unimplemented!` are the separate `todo-dbg` rule: they panic
/// too, but the finding is "a stub shipped", not "error handling gave up",
/// and the fix differs (finish the code vs. propagate an error).
const PANICKY_MACROS: [&str; 2] = ["panic", "unreachable"];

/// Development leftovers `todo-dbg` rejects in library code: unfinished
/// stubs and the `dbg!` print-to-stderr aid (which would interleave with
/// report output nondeterministically).
const STUB_MACROS: [&str; 3] = ["todo", "unimplemented", "dbg"];

/// Parsed `lint:allow` directives for one file.
#[derive(Debug, Default)]
struct Allows {
    /// `(rule, comment line)` — suppresses that rule on the comment's own
    /// line and the line below it.
    line: Vec<(String, u32)>,
    /// Rules suppressed for the entire file.
    file: Vec<String>,
}

impl Allows {
    fn permits(&self, rule: &str, line: u32) -> bool {
        self.file.iter().any(|r| r == rule)
            || self
                .line
                .iter()
                .any(|(r, l)| r == rule && (line == *l || line == *l + 1))
    }
}

/// Runs every rule over one lexed file. `rel_path` picks the per-crate
/// exemptions (e.g. `crates/bench` may read the wall clock).
pub fn check_file(rel_path: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let allows = parse_allows(rel_path, lexed, &mut out);
    let toks = &lexed.tokens;
    let test_regions = test_regions(toks);
    let in_tests_dir = rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/");

    let push = |out: &mut Vec<Diagnostic>, rule: &'static str, line: u32, message: String| {
        if !allows.permits(rule, line) {
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    for i in 0..toks.len() {
        let t = &toks[i];

        // wall-clock: `Instant::now` / `SystemTime::now` anywhere but rh-bench.
        if !rel_path.starts_with("crates/bench/")
            && t.kind == TokenKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
            && matches_seq(toks, i + 1, &["::", "now"])
        {
            push(
                &mut out,
                "wall-clock",
                t.line,
                format!(
                    "{}::now() reads the wall clock; simulated components must take \
                     time from the event engine (only rh-bench may time real execution)",
                    t.text
                ),
            );
        }

        // unwrap-panic: library (non-test) code only.
        if !in_tests_dir && !in_regions(&test_regions, i) {
            // `.unwrap()` / `.unwrap_err()` are zero-argument calls, and
            // `.expect("…")` / `.expect_err("…")` take a message literal —
            // shapes that distinguish the std panicking methods from
            // project methods that happen to share the name (e.g. the
            // state-machine guard `self.expect(&[state], "verb")`).
            let is_panicky_call = t.kind == TokenKind::Ident
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
                && match t.text.as_str() {
                    "unwrap" | "unwrap_err" => toks.get(i + 2).is_some_and(|n| n.text == ")"),
                    "expect" | "expect_err" => toks
                        .get(i + 2)
                        .is_some_and(|n| n.kind == TokenKind::Literal),
                    _ => false,
                };
            if is_panicky_call {
                push(
                    &mut out,
                    "unwrap-panic",
                    t.line,
                    format!(
                        ".{}() can panic; propagate an error or add a lint:allow \
                         with the invariant that makes it unreachable",
                        t.text
                    ),
                );
            }
            if t.kind == TokenKind::Ident
                && PANICKY_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.text == "!")
            {
                push(
                    &mut out,
                    "unwrap-panic",
                    t.line,
                    format!("{}! aborts the simulation; return an error instead", t.text),
                );
            }

            // todo-dbg: development stubs and debug prints in library code.
            if t.kind == TokenKind::Ident
                && STUB_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.text == "!")
            {
                let why = if t.text == "dbg" {
                    "prints to stderr nondeterministically"
                } else {
                    "is an unfinished stub"
                };
                push(
                    &mut out,
                    "todo-dbg",
                    t.line,
                    format!("{}! {why}; it must not ship in library code", t.text),
                );
            }
        }

        // allow-attr: `#[allow(...)]` / `#![allow(...)]` silences a
        // compiler or clippy diagnostic with no recorded reason. Justify
        // it with an adjacent `// lint:allow(allow-attr): reason` (which
        // this rule's own allowlist mechanism then honors) or fix the
        // underlying lint.
        if t.kind == TokenKind::Punct
            && t.text == "#"
            && (matches_seq(toks, i + 1, &["[", "allow", "("])
                || matches_seq(toks, i + 1, &["!", "[", "allow", "("]))
        {
            push(
                &mut out,
                "allow-attr",
                t.line,
                "#[allow(...)] hides a diagnostic without saying why; add \
                 `// lint:allow(allow-attr): reason` or fix the lint"
                    .to_string(),
            );
        }

        // float-eq: a float literal on either side of `==` / `!=`.
        if t.kind == TokenKind::Punct && (t.text == "==" || t.text == "!=") {
            let float_adjacent = (i > 0 && toks[i - 1].kind == TokenKind::Float)
                || toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Float);
            if float_adjacent {
                push(
                    &mut out,
                    "float-eq",
                    t.line,
                    "exact float comparison; compare against an epsilon or use \
                     integer arithmetic"
                        .to_string(),
                );
            }
        }

        // truncating-cast: `<frame-ish expr> as <narrow int>`.
        if t.kind == TokenKind::Ident
            && t.text == "as"
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokenKind::Ident && NARROW_INTS.contains(&n.text.as_str())
            })
        {
            if let Some(hint) = frame_hint_before(toks, i) {
                let target = &toks[i + 1].text;
                push(
                    &mut out,
                    "truncating-cast",
                    t.line,
                    format!(
                        "`{hint} as {target}` can truncate a frame number; keep \
                         Pfn/Mfn/frame counts in u64 (use try_from at true boundaries)"
                    ),
                );
            }
        }

        // hashmap-iter: any HashMap/HashSet use.
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                &mut out,
                "hashmap-iter",
                t.line,
                format!(
                    "{} iteration order is nondeterministic and would leak into \
                     reports/digests; use BTreeMap/BTreeSet",
                    t.text
                ),
            );
        }
    }
    out
}

/// Scans back from the `as` at `toks[as_idx]` for an identifier that marks
/// the cast source as a frame number. Stops at statement-ish boundaries.
fn frame_hint_before(toks: &[Token], as_idx: usize) -> Option<String> {
    let lo = as_idx.saturating_sub(6);
    for t in toks[lo..as_idx].iter().rev() {
        if t.kind == TokenKind::Punct
            && matches!(t.text.as_str(), ";" | "{" | "}" | "," | "=" | "(")
        {
            break;
        }
        if t.kind == TokenKind::Ident {
            let lower = t.text.to_ascii_lowercase();
            if FRAME_HINTS.iter().any(|h| lower.contains(h)) {
                return Some(t.text.clone());
            }
        }
    }
    None
}

/// True when `toks[start..]` begins with the given token texts.
fn matches_seq(toks: &[Token], start: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(j, want)| toks.get(start + j).is_some_and(|t| t.text == *want))
}

/// Finds `#[cfg(test)] … { … }` regions as token-index ranges so
/// `unwrap-panic` skips test modules embedded in library files.
fn test_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "cfg" && matches_seq(toks, i + 1, &["(", "test", ")"]) {
            // Skip forward to the block the attribute gates.
            let mut j = i + 4;
            while j < toks.len() && toks[j].text != "{" {
                j += 1;
            }
            if j < toks.len() {
                let mut depth = 0usize;
                let start = j;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                regions.push((start, j));
                i = j;
            }
        }
        i += 1;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| s <= idx && idx <= e)
}

/// Extracts `lint:allow` directives from the file's comments; malformed
/// directives (no rule, unknown rule, or missing reason) are reported.
///
/// A directive must *start* its comment (`// lint:allow(rule): reason`) —
/// mid-sentence mentions of the syntax in prose are not directives.
fn parse_allows(rel_path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) -> Allows {
    let mut allows = Allows::default();
    for c in &lexed.comments {
        let Some(mut rest) = c.text.strip_prefix("lint:allow") else {
            continue;
        };
        let file_scope = rest.starts_with("-file");
        if file_scope {
            rest = &rest["-file".len()..];
        }
        let Some(open) = rest.find('(') else {
            report_bad(rel_path, c.line, "missing (rule)", out);
            continue;
        };
        let Some(close) = rest[open..].find(')') else {
            report_bad(rel_path, c.line, "unclosed (rule)", out);
            continue;
        };
        let rule = rest[open + 1..open + close].trim().to_string();
        let after = rest[open + close + 1..].trim_start();
        if !RULE_NAMES.contains(&rule.as_str()) {
            report_bad(rel_path, c.line, &format!("unknown rule `{rule}`"), out);
        } else if !after.starts_with(':') || after[1..].trim().is_empty() {
            report_bad(
                rel_path,
                c.line,
                "missing `: reason` — every allow must say why",
                out,
            );
        } else if file_scope {
            allows.file.push(rule);
        } else {
            allows.line.push((rule, c.line));
        }
    }
    allows
}

fn report_bad(rel_path: &str, line: u32, why: &str, out: &mut Vec<Diagnostic>) {
    out.push(Diagnostic {
        file: rel_path.to_string(),
        line,
        rule: "lint-directive",
        message: format!("malformed lint:allow directive: {why}"),
    });
}

/// Per-(rule, file) finding counts — the unit the baseline ratchets on.
pub fn count_by_rule_file(diags: &[Diagnostic]) -> BTreeMap<(String, String), u64> {
    let mut counts = BTreeMap::new();
    for d in diags {
        *counts
            .entry((d.rule.to_string(), d.file.clone()))
            .or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(path, &tokenize(src))
    }

    #[test]
    fn wall_clock_flagged_outside_bench() {
        let d = run("crates/sim/src/engine.rs", "let t = Instant::now();");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "wall-clock");
        let d = run("crates/sim/src/engine.rs", "let t = SystemTime::now();");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn wall_clock_allowed_in_bench() {
        let d = run("crates/bench/src/core.rs", "let t = Instant::now();");
        assert!(d.is_empty());
    }

    #[test]
    fn unwrap_and_panic_family_flagged() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); unreachable!(); }";
        let d = run("crates/vmm/src/host.rs", src);
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["unwrap-panic"; 4]);
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_fine() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        assert!(run("crates/vmm/src/host.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_tests_dir_is_fine() {
        let d = run("crates/vmm/tests/reboot.rs", "fn t() { x.unwrap(); }");
        assert!(d.is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let d = run("crates/vmm/src/host.rs", "let x = o.unwrap_or(0);");
        assert!(d.is_empty());
    }

    #[test]
    fn project_methods_named_expect_are_not_flagged() {
        // The guest state machines have a guard helper named `expect` that
        // returns a Result — only the std shape (string-literal message)
        // counts.
        let d = run(
            "crates/guest/src/kernel.rs",
            "fn f(&mut self) -> R { self.expect(&[State::Off], \"begin boot\")?; Ok(()) }",
        );
        assert!(d.is_empty());
        // And `.expect("msg")` still is flagged.
        let d = run("crates/guest/src/kernel.rs", "let x = o.expect(\"msg\");");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn stub_macros_flagged_in_lib_code() {
        let src =
            "fn f() { todo!(); }\nfn g() { unimplemented!(\"later\"); }\nfn h(x: u8) { dbg!(x); }";
        let d = run("crates/vmm/src/host.rs", src);
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["todo-dbg"; 3]);
        assert!(d[0].message.contains("unfinished stub"));
        assert!(d[2].message.contains("stderr"));
    }

    #[test]
    fn stub_macros_fine_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { dbg!(1); todo!(); }\n}";
        assert!(run("crates/vmm/src/host.rs", src).is_empty());
        assert!(run("crates/vmm/tests/x.rs", "fn t() { dbg!(1); }").is_empty());
    }

    #[test]
    fn stub_idents_without_bang_are_fine() {
        // Plain identifiers that share the macro names.
        let d = run("crates/vmm/src/host.rs", "let todo = 1; f(dbg, todo);");
        assert!(d.is_empty());
    }

    #[test]
    fn allow_attr_flagged_without_justification() {
        let d = run("src/lib.rs", "#[allow(dead_code)]\nfn f() {}");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "allow-attr");
        // Inner form too.
        let d = run("src/lib.rs", "#![allow(clippy::all)]");
        assert_eq!(d.len(), 1);
        // Other attributes are not allow.
        assert!(run("src/lib.rs", "#[derive(Debug)]\nstruct S;").is_empty());
    }

    #[test]
    fn allow_attr_with_adjacent_justification_is_fine() {
        let src = "// lint:allow(allow-attr): signature mirrors the paper's table\n\
                   #[allow(clippy::too_many_arguments)]\nfn f() {}";
        assert!(run("src/lib.rs", src).is_empty());
    }

    #[test]
    fn float_eq_flagged() {
        let d = run("src/lib.rs", "if x == 1.0 { }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-eq");
        assert!(run("src/lib.rs", "if 2.5 != y { }").len() == 1);
        assert!(run("src/lib.rs", "if x == 1 { }").is_empty());
    }

    #[test]
    fn truncating_cast_needs_frame_context() {
        let d = run("src/lib.rs", "let x = pfn.0 as u32;");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "truncating-cast");
        let d = run("src/lib.rs", "let x = mfn_start as usize;");
        assert_eq!(d.len(), 1);
        // Widening is fine; unrelated values are fine.
        assert!(run("src/lib.rs", "let x = pfn.0 as u128;").is_empty());
        assert!(run("src/lib.rs", "let x = color as u8;").is_empty());
        // A statement boundary resets the context.
        assert!(run("src/lib.rs", "let p = pfn; let x = c as u32;").is_empty());
    }

    #[test]
    fn hashmap_flagged() {
        let d = run("src/lib.rs", "use std::collections::HashMap;");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "hashmap-iter");
    }

    #[test]
    fn allow_on_same_or_previous_line() {
        let src = "// lint:allow(wall-clock): calibration needs real time\nlet t = Instant::now();";
        assert!(run("crates/sim/src/x.rs", src).is_empty());
        let src = "let t = Instant::now(); // lint:allow(wall-clock): calibration";
        assert!(run("crates/sim/src/x.rs", src).is_empty());
        // Two lines below: not covered.
        let src = "// lint:allow(wall-clock): too far\n\nlet t = Instant::now();";
        assert_eq!(run("crates/sim/src/x.rs", src).len(), 1);
    }

    #[test]
    fn allow_file_suppresses_whole_file() {
        let src = "// lint:allow-file(hashmap-iter): scratch tool, no digests\n\
                   use std::collections::HashMap;\nfn f(m: HashMap<u8, u8>) {}";
        assert!(run("src/tool.rs", src).is_empty());
    }

    #[test]
    fn allow_inside_macro_body_suppresses() {
        // Directives keep working when the flagged code sits inside a
        // macro invocation — comments in macro bodies are ordinary
        // comments to the tokenizer.
        let src = "fn f() -> u64 {\n    my_macro!(\n        // lint:allow(hashmap-iter): keys are sorted before reporting\n        HashMap::new()\n    )\n}";
        assert!(run("crates/sim/src/x.rs", src).is_empty());
        // Without the directive the same code is flagged.
        let src = "fn f() -> u64 {\n    my_macro!(\n        HashMap::new()\n    )\n}";
        assert_eq!(run("crates/sim/src/x.rs", src).len(), 1);
    }

    #[test]
    fn malformed_directives_reported() {
        let d = run("src/lib.rs", "// lint:allow(wall-clock) no colon reason");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lint-directive");
        let d = run("src/lib.rs", "// lint:allow(not-a-rule): whatever");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn strings_never_trigger_rules() {
        let src = r#"let s = "Instant::now() x.unwrap() HashMap";"#;
        assert!(run("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn counts_group_by_rule_and_file() {
        let d = run(
            "crates/vmm/src/host.rs",
            "fn f() { a.unwrap(); b.unwrap(); let t = Instant::now(); }",
        );
        let counts = count_by_rule_file(&d);
        assert_eq!(
            counts.get(&(
                "unwrap-panic".to_string(),
                "crates/vmm/src/host.rs".to_string()
            )),
            Some(&2)
        );
        assert_eq!(
            counts.get(&(
                "wall-clock".to_string(),
                "crates/vmm/src/host.rs".to_string()
            )),
            Some(&1)
        );
    }
}
