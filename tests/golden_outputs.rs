//! Golden-output regression tests for the typed-quantities migration.
//!
//! The units refactor (`dles-units`) must be observationally invisible:
//! every serialized trace line and report byte must be identical before
//! and after wrapping the `f64` hot paths in newtypes. These tests pin
//! the seeded EXP-2C trace and the 16-trial Monte Carlo report against
//! goldens captured from the pre-migration tree (`tests/goldens/`).
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! cargo test -p dles-tests --test golden_outputs -- --ignored regen
//! ```
//!
//! then inspect the diff before committing — an unexpected diff here
//! means simulation arithmetic changed, not just types.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dles_core::experiment::Experiment;
use dles_core::faults::FaultProfile;
use dles_core::montecarlo::{render_montecarlo, run_monte_carlo, MonteCarloConfig};
use dles_core::pipeline::run_pipeline_with;
use dles_core::rotation::RotationConfig;
use dles_sim::trace::SCHEMA;
use dles_sim::{JsonlRecorder, SimTime};
use dles_tests::conformance::check_jsonl;

/// A `Write` target the test can read back after the recorder is dropped.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(name)
}

/// 230 s of seeded EXP-2C with rotation every 10 frames — the same window
/// `trace_observability.rs` uses, so every record kind appears.
fn exp2c_trace_bytes() -> Vec<u8> {
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let out = buf.clone();
    let mut cfg = Experiment::Exp2C.config();
    cfg.jitter_seed = Some(0x5EED);
    cfg.rotation = Some(RotationConfig::every(10));
    cfg.horizon = SimTime::from_secs(230);
    let _ = run_pipeline_with(cfg, Box::new(JsonlRecorder::to_writer(Box::new(out))));
    let bytes = buf.0.lock().unwrap().clone();
    bytes
}

/// 16-trial Monte Carlo study over a lossy link, master seed 42, bounded
/// to a 3600 s horizon (the CI smoke setting) so the test stays fast.
fn mc16_report_text() -> String {
    let mut base = Experiment::Exp2B.config();
    base.horizon = SimTime::from_secs(3600);
    let report = run_monte_carlo(&MonteCarloConfig {
        base,
        trials: 16,
        master_seed: 42,
        profile: FaultProfile::lossy_link(),
        threads: 0,
    });
    render_montecarlo(&report)
}

#[test]
fn exp2c_trace_matches_golden() {
    let golden = std::fs::read(golden_path("exp2c_trace_230s.jsonl"))
        .expect("golden missing — run the ignored `regen` test once");
    let actual = exp2c_trace_bytes();
    assert!(
        actual == golden,
        "seeded EXP-2C trace diverged from tests/goldens/exp2c_trace_230s.jsonl \
         ({} vs {} bytes) — simulation output changed, not just types",
        actual.len(),
        golden.len()
    );
}

#[test]
fn mc16_report_matches_golden() {
    let golden = std::fs::read_to_string(golden_path("mc16_report_3600s.txt"))
        .expect("golden missing — run the ignored `regen` test once");
    let actual = mc16_report_text();
    assert_eq!(
        actual, golden,
        "16-trial Monte Carlo report diverged from tests/goldens/mc16_report_3600s.txt"
    );
}

/// Every committed `tests/goldens/*.jsonl` record must conform to the
/// declared trace schema: known kind, known fields, value classes the
/// JSONL writer can produce, required fields present.
#[test]
fn committed_goldens_conform_to_the_trace_schema() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/goldens/ must be readable")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no JSONL goldens under {dir:?}");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("golden is UTF-8");
        let problems = check_jsonl(SCHEMA, &text);
        assert!(
            problems.is_empty(),
            "{} no longer conforms to the trace schema:\n{}",
            path.display(),
            problems
                .iter()
                .take(25)
                .map(|(line, p)| format!("line {line}: {p}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Rewrites both goldens in place. Ignored by default: regeneration is an
/// explicit, reviewed act, never a side effect of `cargo test`.
#[test]
#[ignore = "rewrites tests/goldens/ — run explicitly and review the diff"]
fn regen_goldens() {
    std::fs::write(golden_path("exp2c_trace_230s.jsonl"), exp2c_trace_bytes()).unwrap();
    std::fs::write(golden_path("mc16_report_3600s.txt"), mc16_report_text()).unwrap();
}
