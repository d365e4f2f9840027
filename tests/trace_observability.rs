//! Integration tests for the observability subsystem: the structured
//! event trace must be byte-for-byte deterministic under a fixed seed,
//! and the monotonic event counters must agree with the metrics the
//! experiment runner reports.

use std::io::Write;
use std::sync::{Arc, Mutex};

use dles_core::experiment::Experiment;
use dles_core::pipeline::{run_pipeline, run_pipeline_with};
use dles_core::rotation::RotationConfig;
use dles_sim::trace::SCHEMA;
use dles_sim::{JsonlRecorder, SimTime};

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

/// Run 100 frame slots of experiment 2C (rotating every 10 frames so
/// rotation events land inside the window) with a JSONL recorder attached
/// and return the raw bytes it wrote.
fn traced_2c_jsonl(seed: u64) -> Vec<u8> {
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let out = buf.clone();
    let mut cfg = Experiment::Exp2C.config();
    cfg.jitter_seed = Some(seed);
    cfg.rotation = Some(RotationConfig::every(10));
    cfg.horizon = SimTime::from_secs(230);
    let _ = run_pipeline_with(cfg, Box::new(JsonlRecorder::to_writer(Box::new(out))));
    let bytes = buf.0.lock().unwrap().clone();
    bytes
}

#[test]
fn seeded_exp2c_traces_are_byte_identical() {
    let a = traced_2c_jsonl(0x5EED);
    let b = traced_2c_jsonl(0x5EED);
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same-seed traces must be byte-identical");
}

#[test]
fn trace_lines_are_ordered_structured_jsonl() {
    let text = String::from_utf8(traced_2c_jsonl(7)).expect("trace is UTF-8");
    let mut last_t = 0u64;
    let mut kinds = std::collections::BTreeSet::new();
    for line in text.lines() {
        assert!(line.starts_with("{\"t_us\": "), "bad line start: {line}");
        assert!(line.ends_with('}'), "bad line end: {line}");
        let t: u64 = line["{\"t_us\": ".len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("t_us not an integer in {line}"));
        assert!(t >= last_t, "time went backwards: {t} < {last_t}");
        last_t = t;
        let kind = line
            .split("\"kind\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("no kind field in {line}"));
        kinds.insert(kind.to_owned());
    }
    for expected in [
        "state_transition",
        "power_segment",
        "transaction",
        "io",
        "frame_complete",
        "rotation",
    ] {
        assert!(
            kinds.contains(expected),
            "missing kind {expected}; saw {kinds:?}"
        );
    }
}

#[test]
fn counters_match_result_metrics_for_fig10_series() {
    // 100 frame slots of each I/O-bound experiment: the counters must
    // equal the metrics the result carries, because both are incremented
    // at the same event sites.
    for exp in Experiment::FIG10 {
        let mut cfg = exp.config();
        cfg.horizon = SimTime::from_secs(230);
        let r = run_pipeline(cfg);
        let c = |name: &str| r.counters.get(name);
        assert_eq!(
            c("frames_completed"),
            r.frames_completed,
            "{}: frames_completed counter",
            exp.label()
        );
        assert_eq!(
            c("deadline_misses"),
            r.deadline_misses,
            "{}: deadline_misses counter",
            exp.label()
        );
        assert!(
            c("frames_emitted") >= r.frames_completed,
            "{}: emitted {} < completed {}",
            exp.label(),
            c("frames_emitted"),
            r.frames_completed
        );
        assert!(
            c("state_transitions") > 0 && c("transfers_data") > 0,
            "{}: transitions {} transfers {}",
            exp.label(),
            c("state_transitions"),
            c("transfers_data")
        );
    }
}

#[test]
fn untraced_and_traced_runs_report_the_same_metrics() {
    // The recorder must be pure observation: attaching one cannot change
    // the simulation outcome.
    let mut cfg = Experiment::Exp2.config();
    cfg.horizon = SimTime::from_secs(230);
    let plain = run_pipeline(cfg.clone());
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let traced = run_pipeline_with(cfg, Box::new(JsonlRecorder::to_writer(Box::new(buf))));
    assert_eq!(plain.frames_completed, traced.frames_completed);
    assert_eq!(plain.deadline_misses, traced.deadline_misses);
    assert_eq!(plain.lifetime, traced.lifetime);
    assert_eq!(
        plain.counters.iter().collect::<Vec<_>>(),
        traced.counters.iter().collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------------
// Pinned traces for the kinds the EXP-2C golden never emits
// ---------------------------------------------------------------------------

/// FNV-1a (64-bit) over a byte stream: a dependency-free digest, enough
/// to pin a trace byte-for-byte without committing it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn traced_jsonl(cfg: dles_core::pipeline::PipelineConfig) -> Vec<u8> {
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let out = buf.clone();
    let _ = run_pipeline_with(cfg, Box::new(JsonlRecorder::to_writer(Box::new(out))));
    let bytes = buf.0.lock().unwrap().clone();
    bytes
}

/// Short seeded runs that reach the trace kinds and optional fields the
/// EXP-2C golden never emits: link faults and brownouts under recovery,
/// the adaptive policy's decisions, and a node death with the survivor's
/// migration.
fn pinned_scenarios() -> Vec<(&'static str, dles_core::pipeline::PipelineConfig)> {
    use dles_core::faults::{FaultPlan, FaultProfile};
    use dles_core::policy::SchedulingPolicy;

    let mut harsh = Experiment::Exp2B.config();
    harsh.jitter_seed = Some(11);
    harsh.faults = Some(FaultPlan::new(
        FaultProfile {
            brownout_mean_interval: SimTime::from_secs(120),
            ..FaultProfile::harsh()
        },
        11,
    ));
    harsh.horizon = SimTime::from_secs(600);

    let adaptive_policy = SchedulingPolicy::by_name("adaptive").expect("known policy");
    let mut adaptive = dles_core::policy_config(adaptive_policy);
    adaptive.jitter_seed = Some(7);
    adaptive.horizon = SimTime::from_secs(600);

    let mut migration = Experiment::Exp2B.config();
    migration.jitter_seed = Some(3);
    migration.battery_scales = Some(vec![1.0, 0.01]);
    migration.horizon = SimTime::from_secs(900);

    vec![
        ("2b_harsh_recovery", harsh),
        ("2c_adaptive", adaptive),
        ("2b_migration", migration),
    ]
}

/// Line count and FNV-1a digest of each scenario's JSONL trace, captured
/// before the emit sites moved onto the declared `dles_sim::trace` kinds.
/// Any byte of difference in these traces fails the pin.
const PINNED: [(&str, usize, u64); 3] = [
    ("2b_harsh_recovery", 15_233, 0x42a7_9169_6374_674e),
    ("2c_adaptive", 7_468, 0x731a_0902_5b04_ce62),
    ("2b_migration", 14_549, 0x045b_8de8_79ac_d2a8),
];

#[test]
fn pinned_traces_are_byte_identical() {
    let scenarios = pinned_scenarios();
    assert_eq!(scenarios.len(), PINNED.len());
    for ((name, cfg), (pin_name, lines, digest)) in scenarios.into_iter().zip(PINNED) {
        assert_eq!(name, pin_name);
        let bytes = traced_jsonl(cfg);
        let got_lines = bytes.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(
            (got_lines, fnv1a(&bytes)),
            (lines, digest),
            "{name}: trace changed (lines, FNV-1a digest)"
        );
    }
}

#[test]
fn pinned_traces_emit_every_declared_field() {
    use dles_tests::conformance::{check_jsonl, parse_jsonl_record};
    let mut seen = std::collections::BTreeSet::new();
    for (name, cfg) in pinned_scenarios() {
        let text = String::from_utf8(traced_jsonl(cfg)).expect("trace is UTF-8");
        let problems = check_jsonl(SCHEMA, &text);
        assert!(
            problems.is_empty(),
            "{name}: {:?}",
            &problems[..problems.len().min(5)]
        );
        for line in text.lines() {
            let fields = parse_jsonl_record(line).expect("checked above");
            let kind = fields
                .iter()
                .find_map(|(k, v)| match (k.as_str(), v) {
                    ("kind", dles_tests::conformance::JsonValue::Str(kind)) => Some(kind.clone()),
                    _ => None,
                })
                .expect("checked above");
            for (key, _) in fields {
                seen.insert((kind.clone(), key));
            }
        }
    }
    let missing: Vec<String> = SCHEMA
        .iter()
        .flat_map(|k| k.fields.iter().map(move |f| (k.kind, f.name)))
        .filter(|&(kind, field)| !seen.contains(&(kind.to_owned(), field.to_owned())))
        .map(|(kind, field)| format!("{kind}.{field}"))
        .collect();
    assert!(
        missing.is_empty(),
        "never emitted by the pinned scenarios: {missing:?}"
    );
}
