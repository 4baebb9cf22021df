//! Self-test of the benchmark at tiny sizes: every metric BENCHMARK.json
//! names prints with its unit, the seed reaches the fleet and cell
//! configs, and traced runs reproduce the untraced outputs exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["host-rejuv", "fleet-campaign", "cell-churn"];

/// Runs the benchmark at tiny size and returns its standard output.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn last_line(out: &str) -> &str {
    out.lines().last().expect("some output")
}

fn fingerprint(out: &str) -> &str {
    out.lines()
        .find_map(|l| l.strip_prefix("fingerprint "))
        .expect("a fingerprint line")
}

/// The (name, unit) pairs of one metric list in BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    let field = |chunk: &str, key: &str| -> String {
        let at = chunk.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        chunk[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
        .collect()
}

fn assert_prints(out: &str, metrics: &[(String, String)]) {
    let line = last_line(out);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    for (name, unit) in metrics {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        let rest = &line[at..];
        let entry = &rest[..rest.find('}').expect("entry closes")];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{name} unit: {entry}"
        );
    }
    assert_eq!(line.matches("\"value\"").count(), metrics.len(), "{line}");
}

#[test]
fn every_metric_prints_with_its_unit_and_traced_outputs_match() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 3);
    assert!(per_layer.len() > 30);
    for w in WORKLOADS {
        let untraced = run(w, 7, false);
        assert_prints(&untraced, &end_to_end);
        assert!(
            untraced.contains("fail_ratio 0 (failed 0 of ops "),
            "{untraced}"
        );
        let traced = run(w, 7, true);
        assert_prints(&traced, &per_layer);
        assert_eq!(fingerprint(&traced), fingerprint(&untraced), "{w}");
        assert!(
            traced.contains("traced outputs equal untraced outputs"),
            "{traced}"
        );
    }
}

#[test]
fn the_seed_reaches_the_fleet_and_cell_configs() {
    for w in ["fleet-campaign", "cell-churn"] {
        let a = run(w, 1, false);
        let b = run(w, 2, false);
        assert_ne!(
            fingerprint(&a),
            fingerprint(&b),
            "{w}: seeds 1 and 2 gave one output"
        );
        assert_eq!(
            fingerprint(&a),
            fingerprint(&run(w, 1, false)),
            "{w}: one seed, two outputs"
        );
    }
}
