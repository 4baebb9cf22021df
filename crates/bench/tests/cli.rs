//! Every experiment binary rejects an unknown flag: exit status 2 and a
//! usage line that names the binary and exactly the flags it accepts.

use std::process::{Command, Output};

fn run(path: &str, args: &[&str]) -> Output {
    Command::new(path).args(args).output().unwrap()
}

#[test]
fn unknown_flag_exits_2_with_the_usage_line() {
    let grid = " [--jobs N] [--quick] [--json PATH]";
    let all = " [--jobs N] [--max-n N] [--quick] [--json PATH] [--trace-jsonl PATH]";
    for (bin, path, flags) in [
        ("all", env!("CARGO_BIN_EXE_all"), all),
        ("frontier", env!("CARGO_BIN_EXE_frontier"), grid),
        ("fleetbench", env!("CARGO_BIN_EXE_fleetbench"), grid),
        ("cellbench", env!("CARGO_BIN_EXE_cellbench"), grid),
        (
            "faults",
            env!("CARGO_BIN_EXE_faults"),
            " [--jobs N] [--quick]",
        ),
        ("fig4", env!("CARGO_BIN_EXE_fig4"), " [--jobs N]"),
        ("fig5", env!("CARGO_BIN_EXE_fig5"), " [--jobs N]"),
        ("fig6", env!("CARGO_BIN_EXE_fig6"), " [--jobs N]"),
        ("sec56", env!("CARGO_BIN_EXE_sec56"), " [--jobs N]"),
        ("ablations", env!("CARGO_BIN_EXE_ablations"), " [--jobs N]"),
        ("fig2", env!("CARGO_BIN_EXE_fig2"), ""),
        ("fig7", env!("CARGO_BIN_EXE_fig7"), ""),
        ("fig8", env!("CARGO_BIN_EXE_fig8"), ""),
        ("fig9", env!("CARGO_BIN_EXE_fig9"), ""),
        ("sec52", env!("CARGO_BIN_EXE_sec52"), ""),
        ("sec53", env!("CARGO_BIN_EXE_sec53"), ""),
        ("reliability", env!("CARGO_BIN_EXE_reliability"), ""),
    ] {
        let out = run(path, &["--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let usage = format!("{bin}: unknown argument \"--bogus\"; usage: {bin}{flags}\n");
        assert_eq!(String::from_utf8_lossy(&out.stderr), usage);
        assert!(out.stdout.is_empty(), "{bin} printed before rejecting");
    }
}

#[test]
fn corebench_rejects_a_nan_tolerance() {
    let out = run(env!("CARGO_BIN_EXE_corebench"), &["--tolerance", "NaN"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn an_unwritable_json_path_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("rh-bench-missing-{}", std::process::id()));
    assert!(!dir.exists(), "{} exists", dir.display());
    let path = dir.join("x.json");
    let path = path.to_string_lossy();
    let out = run(
        env!("CARGO_BIN_EXE_frontier"),
        &["--quick", "--json", &path],
    );
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let names_path = format!("frontier: failed to write {path}: ");
    assert!(stderr.starts_with(&names_path), "{stderr}");
    assert!(!out.stdout.is_empty(), "the sweep still ran");
}
