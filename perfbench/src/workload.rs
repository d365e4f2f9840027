//! The four workloads, their untraced studies, and the output checks.
//!
//! A *study* is one simulation a user runs: EXP-2C to first death, or the
//! 16-trial Monte Carlo of 2B. The benchmark runs studies one at a time
//! (closed loop) and checks every output it produces.

use std::time::{Duration, Instant};

use dles_battery::packs::itsy_pack_b;
use dles_core::experiment::Experiment;
use dles_core::faults::FaultProfile;
use dles_core::montecarlo::{render_montecarlo, run_monte_carlo, trial_config, MonteCarloConfig};
use dles_core::node::BatterySpec;
use dles_core::pipeline::{build_engine_with, run_pipeline_with, PipelineConfig};
use dles_core::report::{render_counters, render_experiment_detail};
use dles_core::ExperimentResult;
use dles_sim::{par_map, CounterSet, JsonlRecorder, NullRecorder, Recorder, SimTime};

use crate::digest::{digest, DigestWriter};

/// The Monte Carlo master seed of the committed goldens. At this seed the
/// EXP-2C studies keep their nominal (unjittered) start-up latencies.
pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Exp2cKibam,
    Exp2cIdeal,
    Mc2bLossy,
    Exp2cJsonl,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Exp2cKibam,
        Workload::Exp2cIdeal,
        Workload::Mc2bLossy,
        Workload::Exp2cJsonl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Exp2cKibam => "exp2c_kibam",
            Workload::Exp2cIdeal => "exp2c_ideal",
            Workload::Mc2bLossy => "mc2b_lossy",
            Workload::Exp2cJsonl => "exp2c_jsonl",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The Monte Carlo workload runs many trials per study.
    pub fn is_monte_carlo(self) -> bool {
        self == Workload::Mc2bLossy
    }

    /// The one workload whose study streams a JSONL trace.
    pub fn writes_jsonl(self) -> bool {
        self == Workload::Exp2cJsonl
    }
}

/// How much each study simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The studies users run: EXP-2C to first death; 16 MC trials of 1 h.
    Full,
    /// Seconds of simulated time, for the smoke test of every code path.
    Smoke,
}

/// One workload at one seed, size and worker count.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub size: Size,
    /// Monte Carlo worker threads (single studies always use one).
    pub workers: usize,
    /// Cut every study at [`Plan::short_horizon`] (the short run of the
    /// memory slope) instead of the size's own horizon.
    pub short: bool,
}

const SMOKE_HORIZON: SimTime = SimTime::from_secs(120);
const MC_TRIALS: usize = 16;
const MC_SMOKE_TRIALS: usize = 2;
const MC_HORIZON: SimTime = SimTime::from_secs(3600);

impl Plan {
    /// The horizon of the short run behind the memory slope: 1 h of a
    /// lifetime run, half of a horizon-capped one.
    pub fn short_horizon(&self) -> SimTime {
        match (self.size, self.workload.is_monte_carlo()) {
            (Size::Full, false) => SimTime::from_secs(3600),
            (Size::Full, true) => SimTime::from_secs(1800),
            (Size::Smoke, _) => SimTime::from_secs(60),
        }
    }

    /// Worker threads a study of this plan occupies.
    pub fn workers_used(&self) -> usize {
        if self.workload.is_monte_carlo() {
            dles_sim::par::resolve_workers(self.workers, self.trials())
        } else {
            1
        }
    }

    /// Pipelines per study: the MC trial count, else one.
    pub fn trials(&self) -> usize {
        match (self.workload.is_monte_carlo(), self.size) {
            (false, _) => 1,
            (true, Size::Full) => MC_TRIALS,
            (true, Size::Smoke) => MC_SMOKE_TRIALS,
        }
    }

    /// The EXP-2C configuration of the single-study workloads.
    pub fn pipeline_config(&self) -> PipelineConfig {
        let mut cfg = Experiment::Exp2C.config();
        if self.workload == Workload::Exp2cIdeal {
            cfg.battery = BatterySpec::Ideal {
                capacity_mah: itsy_pack_b().kibam.capacity_mah,
            };
        }
        if self.seed != DEFAULT_SEED {
            cfg.jitter_seed = Some(self.seed);
        }
        if self.size == Size::Smoke {
            cfg.horizon = SMOKE_HORIZON;
        }
        if self.short {
            cfg.horizon = self.short_horizon();
        }
        cfg
    }

    /// The Monte Carlo study: 2B with §5.4 recovery over a lossy link.
    pub fn mc_config(&self) -> MonteCarloConfig {
        let mut base = Experiment::Exp2B.config();
        base.horizon = match self.size {
            Size::Full => MC_HORIZON,
            Size::Smoke => SMOKE_HORIZON,
        };
        if self.short {
            base.horizon = self.short_horizon();
        }
        MonteCarloConfig {
            base,
            trials: self.trials(),
            master_seed: self.seed,
            profile: FaultProfile::lossy_link(),
            threads: self.workers,
        }
    }

    /// Pipeline configuration of trial `i` (the single study for `i = 0`
    /// outside the Monte Carlo workload).
    pub fn unit_config(&self, i: usize) -> PipelineConfig {
        if self.workload.is_monte_carlo() {
            let mc = self.mc_config();
            trial_config(&mc.base, mc.profile, mc.master_seed, i)
        } else {
            self.pipeline_config()
        }
    }
}

/// What one untraced study produced.
pub struct StudyRun {
    pub wall: Duration,
    /// Simulated hours, summed over the trials of a Monte Carlo study.
    pub sim_hours: f64,
    /// The rendered output the checks compare.
    pub output: String,
    /// The run's event counters (merged over trials).
    pub counters: CounterSet,
}

/// Run one study with tracing off (or, for `exp2c_jsonl`, with its JSONL
/// trace streaming into a digesting sink) and time it.
pub fn run_study(plan: &Plan) -> StudyRun {
    if plan.workload.is_monte_carlo() {
        let start = Instant::now();
        let report = run_monte_carlo(&plan.mc_config());
        let wall = start.elapsed();
        return StudyRun {
            wall,
            sim_hours: report.trials.iter().map(|t| t.lifetime_h.get()).sum(),
            output: render_montecarlo(&report),
            counters: report.counters,
        };
    }
    let sink = DigestWriter::default();
    let recorder: Box<dyn Recorder> = if plan.workload.writes_jsonl() {
        Box::new(JsonlRecorder::to_writer(Box::new(sink.clone())))
    } else {
        Box::new(NullRecorder)
    };
    let start = Instant::now();
    let r = run_pipeline_with(plan.pipeline_config(), recorder);
    let wall = start.elapsed();
    let mut output = render_single(plan.workload, &r);
    if plan.workload.writes_jsonl() {
        let d = sink.stream();
        output.push_str(&trace_summary(d.lines, d.bytes, d.digest.value()));
    }
    StudyRun {
        wall,
        sim_hours: r.life_hours(),
        output,
        counters: r.counters,
    }
}

/// Time from the start of a study to its first dispatched event: config
/// construction, `build_engine` with its initial death predictions, and
/// for the Monte Carlo study the spawning of its workers, up to the first
/// event any worker dispatches.
pub fn setup_once(plan: &Plan) -> Duration {
    if plan.workload.is_monte_carlo() {
        let start = Instant::now();
        let mc = plan.mc_config();
        let workers = plan.workers_used();
        let first_events = par_map(workers, workers, |i| {
            let mut engine =
                dles_core::build_engine(trial_config(&mc.base, mc.profile, mc.master_seed, i));
            engine.step();
            Instant::now()
        });
        let first = first_events.into_iter().min().expect("at least one worker");
        return first.duration_since(start);
    }
    let recorder: Box<dyn Recorder> = if plan.workload.writes_jsonl() {
        Box::new(JsonlRecorder::to_writer(Box::new(DigestWriter::default())))
    } else {
        Box::new(NullRecorder)
    };
    let start = Instant::now();
    let mut engine = build_engine_with(plan.pipeline_config(), recorder);
    engine.step();
    let elapsed = start.elapsed();
    drop(engine);
    elapsed
}

/// The checked output of a single EXP-2C study. With the KiBaM battery it
/// is `repro --exp 2C --counters`; the ideal-battery ablation pins its
/// lifetime, frames and counters.
fn render_single(workload: Workload, r: &ExperimentResult) -> String {
    if workload == Workload::Exp2cIdeal {
        format!(
            "lifetime_us {}\nframes_completed {}\n{}",
            r.lifetime.as_micros(),
            r.frames_completed,
            render_counters(&r.label, &r.counters)
        )
    } else {
        render_experiment_detail(Experiment::Exp2C, r) + &render_counters(&r.label, &r.counters)
    }
}

/// The JSONL trace's line count, size and digest, appended to the report.
pub fn trace_summary(lines: u64, bytes: u64, digest: u64) -> String {
    format!("trace_lines {lines}\ntrace_bytes {bytes}\ntrace_digest {digest:016x}\n")
}

/// What a study's output must equal.
pub enum Expected {
    /// Byte for byte.
    Text(&'static str),
    /// [`digest`] of the output.
    Digest(u64),
}

const EXP2C_GOLDEN: &str = include_str!("../../tests/goldens/exp2c_report.txt");
const MC16_GOLDEN: &str = include_str!("../../tests/goldens/mc16_report_3600s.txt");

/// EXP-2C under the ideal battery (`repro --ablations`, ablation 1).
const EXP2C_IDEAL_PIN: &str = "\
lifetime_us 74592583618
frames_completed 32430
Event counters (2C)
----------------------------------------
  frames_emitted                    32432
  transfers_data                    96969
  state_transitions                323337
  frames_completed                  32430
  rotations                           324
  node_deaths                           1
";

/// `exp2c_jsonl` renders the EXP-2C golden plus its trace summary.
const EXP2C_JSONL_PIN: &str = concat!(
    include_str!("../../tests/goldens/exp2c_report.txt"),
    "trace_lines 794260\ntrace_bytes 112477979\ntrace_digest 6c8eec77bfb0553e\n"
);

/// Pinned digests of the smoke-size outputs at the default seed, in
/// [`Workload::ALL`] order.
const SMOKE_PINS: [u64; 4] = [
    0xa2d8_d8e1_b3fc_5437,
    0xd036_8b98_f52e_a50a,
    0x958f_af0d_f31c_be08,
    0x385e_e238_ee62_4f5f,
];

/// The pinned output of `plan`, if its seed has one (only the default
/// seed does; other seeds are checked for agreement within a run).
pub fn expected(plan: &Plan) -> Option<Expected> {
    if plan.seed != DEFAULT_SEED || plan.short {
        return None;
    }
    Some(match plan.size {
        Size::Full => Expected::Text(match plan.workload {
            Workload::Exp2cKibam => EXP2C_GOLDEN,
            Workload::Exp2cIdeal => EXP2C_IDEAL_PIN,
            Workload::Mc2bLossy => MC16_GOLDEN,
            Workload::Exp2cJsonl => EXP2C_JSONL_PIN,
        }),
        Size::Smoke => {
            let i = Workload::ALL
                .iter()
                .position(|&w| w == plan.workload)
                .expect("every workload is in ALL");
            Expected::Digest(SMOKE_PINS[i])
        }
    })
}

/// Output and consistency checks of one run; their tally is the
/// `attempted` / `failed` pair of the result.
pub struct Checker {
    expected: Option<Expected>,
    first: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(plan: &Plan) -> Checker {
        Checker {
            expected: expected(plan),
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one study's output: against the pin where the seed has one,
    /// and against the first output of this run in every case.
    pub fn output(&mut self, what: &str, output: &str) {
        let digest = digest(output.as_bytes());
        let pinned = match &self.expected {
            Some(Expected::Text(text)) => {
                if output != *text {
                    report_diff(what, text, output);
                }
                output == *text
            }
            Some(Expected::Digest(d)) => *d == digest,
            None => true,
        };
        let first = *self.first.get_or_insert(digest);
        self.require(
            what,
            pinned && first == digest,
            format!("output digest {digest:016x} (first of run {first:016x})"),
        );
    }

    /// Count one check; print it when it fails.
    pub fn require(&mut self, what: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}: {detail}");
        }
    }
}

/// Print the first line where `actual` departs from `expected`.
fn report_diff(what: &str, expected: &str, actual: &str) {
    let mut exp = expected.lines();
    let mut act = actual.lines();
    for line in 1.. {
        match (exp.next(), act.next()) {
            (None, None) => break,
            (e, a) if e != a => {
                println!("CHECK FAILED: {what}: line {line}: expected {e:?}, got {a:?}");
                break;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, size: Size) -> Plan {
        Plan {
            workload: Workload::Exp2cKibam,
            seed,
            size,
            workers: 1,
            short: false,
        }
    }

    #[test]
    fn pinned_text_must_match_byte_for_byte() {
        let mut c = Checker::new(&plan(DEFAULT_SEED, Size::Full));
        c.output("golden", EXP2C_GOLDEN);
        c.output("changed", &EXP2C_GOLDEN.replace("17.55 h", "17.56 h"));
        assert_eq!((c.attempted, c.failed), (2, 1));
    }

    #[test]
    fn unpinned_seeds_must_agree_within_a_run() {
        let mut c = Checker::new(&plan(7, Size::Full));
        c.output("first", "a");
        c.output("same", "a");
        c.output("different", "b");
        assert_eq!((c.attempted, c.failed), (3, 1));
    }

    #[test]
    fn only_the_default_seed_at_its_own_horizon_is_pinned() {
        assert!(expected(&plan(DEFAULT_SEED, Size::Smoke)).is_some());
        assert!(expected(&plan(1, Size::Full)).is_none());
        let cut = Plan {
            short: true,
            ..plan(DEFAULT_SEED, Size::Full)
        };
        assert!(expected(&cut).is_none());
    }
}
