//! Smoke test of the whole benchmark: every workload at a few simulated
//! seconds, both passes, every output and consistency check.

use std::process::Command;

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dles-perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn smoke_run_checks_every_workload() {
    let out = perfbench(&["--workload", "all", "--smoke", "--seconds", "0"]);
    assert!(out.status.success(), "exit status {}", out.status);
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(!text.contains("CHECK FAILED"), "{text}");
    for w in ["exp2c_kibam", "exp2c_ideal", "mc2b_lossy", "exp2c_jsonl"] {
        assert!(
            text.contains(&format!("== {w} (end to end)")),
            "{w} end to end"
        );
        assert!(
            text.contains(&format!("== {w} (traced pass)")),
            "{w} traced"
        );
        for metric in ["wall_s", "setup_s", "sim.events", "par.efficiency"] {
            assert!(text.contains(&format!("\"{w}/{metric}\"")), "{w}/{metric}");
        }
    }
    let last = text.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
}

#[test]
fn a_non_default_seed_checks_agreement_within_the_run() {
    let out = perfbench(&[
        "--workload",
        "mc2b_lossy",
        "--smoke",
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        "1",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = text.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{text}");
    assert!(last.contains("\"par.efficiency\""), "{last}");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "exp2c_kibam", "--trace", "2"],
        &["--workload", "exp2c_kibam", "--short"],
        &[],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
