//! The traced pass: per-layer numbers measured from outside the engine.
//!
//! The study is re-run once as `trial_config` + `build_engine_with` +
//! `Engine::run_until` inside `par_map` (one trial for the single-study
//! workloads), with a recorder that keeps a compact copy of the
//! `power_segment` and `state_transition` streams. Those streams are then
//! replayed into fresh instances of each layer's public types, one call
//! at a time, under a timer:
//!
//! * `battery` — per state transition, `Battery::discharge` for the
//!   segment it settles and `Battery::time_to_exhaustion` for the draw
//!   that follows, as `SimNode::transition` calls them;
//! * `node` — `SimNode::transition` per state transition;
//! * `counters` — `CounterSet::incr` per counted increment;
//! * `trace` — `JsonlRecorder::record`, timed in the run on the workload
//!   that streams JSONL, and on a replayed sample of the run's own records
//!   elsewhere.
//!
//! Every call is wrapped in a span kept in memory and written out at the
//! end; the engine itself carries no probe.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use dles_core::faults::FaultState;
use dles_core::node::{BatterySpec, SimNode};
use dles_core::pipeline::{build_engine_with, PipelineConfig};
use dles_power::{CurrentModel, DvsTable, FreqLevel, Mode, PowerState};
use dles_sim::{par_map, CounterSet, FieldValue, JsonlRecorder, Recorder, SimTime, TraceRecord};
use dles_units::{Hertz, MilliAmps};

use crate::digest::{DigestWriter, StreamDigest};
use crate::spans::SpanLog;
use crate::stats;
use crate::workload::{Checker, Plan};
use crate::Metric;

/// Records kept for the trace-layer replay on workloads that do not
/// stream JSONL themselves, shared out over the study's trials.
const TRACE_SAMPLE: usize = 20_000;

/// One node's replay inputs.
struct NodeStreams {
    spec: BatterySpec,
    idle: FreqLevel,
    /// Settled constant-draw segments: duration and current.
    segments: Vec<(SimTime, MilliAmps)>,
    /// State transitions: when, to which mode, at which level.
    transitions: Vec<(SimTime, Mode, FreqLevel)>,
}

/// The recorder's view of a traced run.
struct Tap {
    dvs: DvsTable,
    nodes: Vec<NodeStreams>,
    /// Records the streams could not attribute (unknown node or level).
    unparsed: u64,
    sample: Vec<TraceRecord>,
    sample_cap: usize,
    jsonl: Option<JsonlRecorder>,
    jsonl_calls: u64,
    jsonl_ns: u64,
    timer_ns: u64,
}

impl Tap {
    fn observe(&mut self, rec: &TraceRecord) {
        let node = rec
            .component
            .strip_prefix("node")
            .and_then(|k| k.parse::<usize>().ok())
            .and_then(|k| k.checked_sub(1))
            .filter(|&k| k < self.nodes.len());
        let parsed = match (rec.kind, node) {
            ("power_segment", Some(k)) => rec
                .u64_field("duration_us")
                .zip(f64_field(rec, "current_ma"))
                .map(|(us, ma)| {
                    self.nodes[k]
                        .segments
                        .push((SimTime::from_micros(us), MilliAmps::new(ma)))
                }),
            ("state_transition", Some(k)) => {
                let mode = rec.str_field("mode").and_then(mode_by_name);
                let level =
                    f64_field(rec, "freq_mhz").and_then(|f| self.dvs.by_freq(Hertz::from_mhz(f)));
                mode.zip(level)
                    .map(|(m, l)| self.nodes[k].transitions.push((rec.time, m, l)))
            }
            _ => Some(()),
        };
        if parsed.is_none() {
            self.unparsed += 1;
        }
    }
}

fn f64_field(rec: &TraceRecord, name: &str) -> Option<f64> {
    match rec.field(name)? {
        FieldValue::F64(v) => Some(*v),
        _ => None,
    }
}

fn mode_by_name(name: &str) -> Option<Mode> {
    [Mode::Idle, Mode::Communication, Mode::Computation]
        .into_iter()
        .find(|m| m.name() == name)
}

/// Feeds every record to the [`Tap`]; on the JSONL workload also streams
/// it through the workload's own `JsonlRecorder`, timing each call.
struct TapRecorder(Rc<RefCell<Tap>>);

impl Recorder for TapRecorder {
    fn record(&mut self, record: TraceRecord) {
        let tap = &mut *self.0.borrow_mut();
        tap.observe(&record);
        if let Some(jsonl) = tap.jsonl.as_mut() {
            let start = Instant::now();
            jsonl.record(record);
            let ns = start.elapsed().as_nanos() as u64;
            tap.jsonl_ns += ns.saturating_sub(tap.timer_ns);
            tap.jsonl_calls += 1;
        } else if tap.sample.len() < tap.sample_cap {
            tap.sample.push(record);
        }
    }
}

/// Battery spec and idle level of each node, as `PipelineWorld` builds
/// them (capacity scales from the config and the fault plan).
fn node_setups(cfg: &PipelineConfig) -> Vec<(BatterySpec, FreqLevel)> {
    let n = cfg.n_nodes();
    let variance = cfg
        .faults
        .as_ref()
        .map(|plan| FaultState::battery_scales(plan, n));
    (0..n)
        .map(|i| {
            let idle = cfg.scheduling.dvs_policy(cfg.policy).level_for(
                Mode::Idle,
                cfg.levels[i],
                &cfg.sys.dvs,
            );
            let mut scale = cfg.battery_scales.as_ref().map_or(1.0, |s| s[i]);
            if let Some(v) = &variance {
                scale *= v[i];
            }
            let spec = if scale == 1.0 {
                cfg.battery
            } else {
                cfg.battery.scaled(scale)
            };
            (spec, idle)
        })
        .collect()
}

/// One traced pipeline run (a trial, or the whole single study).
struct UnitTrace {
    start: Instant,
    built: Instant,
    end: Instant,
    processed: u64,
    counters: CounterSet,
    model: CurrentModel,
    nodes: Vec<NodeStreams>,
    unparsed: u64,
    sample: Vec<TraceRecord>,
    jsonl_calls: u64,
    jsonl_ns: u64,
    jsonl_lines: u64,
    jsonl_digest: StreamDigest,
}

fn trace_unit(plan: &Plan, i: usize, timer_ns: u64) -> UnitTrace {
    let start = Instant::now();
    let cfg = plan.unit_config(i);
    let horizon = cfg.horizon;
    let model = cfg.current_model.clone();
    let sink = DigestWriter::default();
    let nodes = node_setups(&cfg)
        .into_iter()
        .map(|(spec, idle)| NodeStreams {
            spec,
            idle,
            segments: Vec::new(),
            transitions: Vec::new(),
        })
        .collect();
    let tap = Rc::new(RefCell::new(Tap {
        dvs: cfg.sys.dvs.clone(),
        nodes,
        unparsed: 0,
        sample: Vec::new(),
        sample_cap: TRACE_SAMPLE / plan.trials(),
        jsonl: plan
            .workload
            .writes_jsonl()
            .then(|| JsonlRecorder::to_writer(Box::new(sink.clone()))),
        jsonl_calls: 0,
        jsonl_ns: 0,
        timer_ns,
    }));
    let mut engine = build_engine_with(cfg, Box::new(TapRecorder(Rc::clone(&tap))));
    let built = Instant::now();
    engine.run_until(horizon);
    let end = Instant::now();
    let processed = engine.processed();
    let counters = engine.world().counters().clone();
    drop(engine);
    let mut tap = Rc::into_inner(tap)
        .expect("the engine owned the only other handle")
        .into_inner();
    let jsonl_lines = tap.jsonl.as_mut().map_or(0, |j| {
        let _ = j.flush();
        j.lines()
    });
    UnitTrace {
        start,
        built,
        end,
        processed,
        counters,
        model,
        nodes: tap.nodes,
        unparsed: tap.unparsed,
        sample: tap.sample,
        jsonl_calls: tap.jsonl_calls,
        jsonl_ns: tap.jsonl_ns,
        jsonl_lines,
        jsonl_digest: sink.stream(),
    }
}

/// Calls made and time spent in them, timer cost removed.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    calls: u64,
    ns: u64,
}

impl Tally {
    fn ns_per_call(self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }

    fn seconds(self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Median cost of an `Instant::now` + `elapsed` pair, subtracted from
/// every per-call timing.
fn timer_overhead_ns() -> u64 {
    let mut v: Vec<u64> = (0..4001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Time one call, minus the timer's own cost.
macro_rules! timed {
    ($tally:expr, $timer:expr, $call:expr) => {{
        let start = Instant::now();
        let out = black_box($call);
        let ns = start.elapsed().as_nanos() as u64;
        $tally.ns += ns.saturating_sub($timer);
        $tally.calls += 1;
        out
    }};
}

/// What the battery replay called, and how far it agreed with the run.
struct BatteryReplay {
    predict: Tally,
    discharge: Tally,
    /// Segments settled by the replay that differ from (or are missing
    /// in) the recorded `power_segment` stream.
    mismatched: u64,
}

/// Replay each node's state transitions into a fresh battery, as
/// `SimNode::transition` drives it: settle the elapsed segment when it
/// lasted, then predict exhaustion under the new draw. The first
/// prediction is `build_engine`'s, for the initial idle draw. Recorded
/// segments left after the last transition (the settle at death or at the
/// horizon) are discharged too.
fn replay_battery(units: &[UnitTrace], timer_ns: u64) -> BatteryReplay {
    let (mut predict, mut discharge, mut mismatched) = (Tally::default(), Tally::default(), 0);
    for unit in units {
        for node in &unit.nodes {
            let mut battery = node.spec.build();
            let mut power = PowerState::new(unit.model.clone(), Mode::Idle, node.idle);
            timed!(
                predict,
                timer_ns,
                battery.time_to_exhaustion(power.current_ma())
            );
            let mut recorded = node.segments.iter();
            for &(now, mode, level) in &node.transitions {
                let (dur, current) = power.transition(now, mode, level);
                if dur > SimTime::ZERO {
                    if recorded.next() != Some(&(dur, current)) {
                        mismatched += 1;
                    }
                    timed!(discharge, timer_ns, battery.discharge(dur, current));
                }
                timed!(
                    predict,
                    timer_ns,
                    battery.time_to_exhaustion(power.current_ma())
                );
            }
            for &(dur, current) in recorded {
                timed!(discharge, timer_ns, battery.discharge(dur, current));
            }
        }
    }
    BatteryReplay {
        predict,
        discharge,
        mismatched,
    }
}

/// Replay each node's state transitions through a fresh `SimNode`.
fn replay_nodes(units: &[UnitTrace]) -> Tally {
    let mut tally = Tally::default();
    for unit in units {
        for node in &unit.nodes {
            let mut sim = SimNode::new(&node.spec, unit.model.clone(), node.idle);
            let start = Instant::now();
            for &(now, mode, level) in &node.transitions {
                black_box(sim.transition(now, mode, level));
            }
            tally.ns += start.elapsed().as_nanos() as u64;
            tally.calls += node.transitions.len() as u64;
        }
    }
    tally
}

/// Replay every counted increment of each run through a fresh set.
fn replay_counters(units: &[UnitTrace]) -> Tally {
    let mut tally = Tally::default();
    for unit in units {
        let mut set = CounterSet::new();
        let start = Instant::now();
        for (name, n) in unit.counters.iter() {
            for _ in 0..n {
                set.incr(black_box(name));
            }
        }
        tally.ns += start.elapsed().as_nanos() as u64;
        tally.calls += unit.counters.iter().map(|(_, n)| n).sum::<u64>();
        black_box(&set);
    }
    tally
}

/// Replay the sampled records into a `JsonlRecorder` over a digesting
/// sink: the per-record cost tracing would add to this workload.
fn replay_trace_sample(units: &[UnitTrace], timer_ns: u64) -> Tally {
    let mut tally = Tally::default();
    let mut jsonl = JsonlRecorder::to_writer(Box::new(DigestWriter::default()));
    for rec in units.iter().flat_map(|u| u.sample.iter().cloned()) {
        timed!(tally, timer_ns, jsonl.record(rec));
    }
    let _ = jsonl.flush();
    tally
}

/// What the untraced runs of the same `--trace 1` invocation measured.
pub struct Baseline {
    /// Median untraced wall time of one study, seconds.
    pub wall_s: f64,
    /// Counters of the untraced study (merged over trials).
    pub counters: CounterSet,
    /// Checked output of the untraced study.
    pub output: String,
    /// Peak-RSS slope between a short and the full horizon, MB per
    /// simulated hour.
    pub rss_mb_per_sim_h: f64,
}

/// Run the traced pass and its replays; return the per-layer metrics and
/// the spans.
pub fn traced_pass(plan: &Plan, base: &Baseline, checks: &mut Checker) -> (Vec<Metric>, SpanLog) {
    let timer_ns = timer_overhead_ns();
    let workers = plan.workers_used();
    // The traced pass is the run's one traced study.
    let mut log = SpanLog::new(1);
    let study = log.open(None, "study");

    let par_start = Instant::now();
    let units = par_map(plan.trials(), workers, |i| trace_unit(plan, i, timer_ns));
    let par_end = Instant::now();
    let par = log.push(
        Some(study),
        "par.map",
        par_start,
        par_end,
        units.len() as u64,
        0,
    );
    let mut trial_s = Vec::new();
    let (mut jsonl, mut events) = (Tally::default(), 0u64);
    for u in &units {
        let busy = u.end.duration_since(u.start);
        trial_s.push(busy.as_secs_f64());
        let trial = log.push(
            Some(par),
            "par.trial",
            u.start,
            u.end,
            1,
            busy.as_nanos() as u64,
        );
        log.push(Some(trial), "sim.build_engine", u.start, u.built, 1, 0);
        let run = log.push(Some(trial), "sim.run_until", u.built, u.end, u.processed, 0);
        if u.jsonl_calls > 0 {
            // Interleaved with the run: an aggregate marker, not an interval.
            log.push(
                Some(run),
                "trace.record",
                u.end,
                u.end,
                u.jsonl_calls,
                u.jsonl_ns,
            );
        }
        jsonl.calls += u.jsonl_calls;
        jsonl.ns += u.jsonl_ns;
        events += u.processed;
    }

    let replay = |log: &mut SpanLog, name: &'static str, f: &mut dyn FnMut() -> Tally| {
        let start = Instant::now();
        let t = f();
        log.push(Some(study), name, start, Instant::now(), t.calls, t.ns);
        t
    };
    let mut battery = None;
    replay(&mut log, "battery.replay", &mut || {
        let b = replay_battery(&units, timer_ns);
        let t = Tally {
            calls: b.predict.calls + b.discharge.calls,
            ns: b.predict.ns + b.discharge.ns,
        };
        battery = Some(b);
        t
    });
    let BatteryReplay {
        predict,
        discharge,
        mismatched,
    } = battery.expect("the battery replay ran");
    let node = replay(&mut log, "node.replay", &mut || replay_nodes(&units));
    let incr = replay(&mut log, "counters.replay", &mut || replay_counters(&units));
    let record = if plan.workload.writes_jsonl() {
        jsonl
    } else {
        replay(&mut log, "trace.replay", &mut || {
            replay_trace_sample(&units, timer_ns)
        })
    };
    log.close(study);

    // Simulated statistics: the traced run must repeat the untraced one.
    let mut counters = CounterSet::new();
    for u in &units {
        counters.merge(&u.counters);
    }
    checks.require(
        "traced run counters equal the untraced run's",
        counters == base.counters,
        format!("{counters:?} vs {:?}", base.counters),
    );
    let transitions = counters.get("state_transitions");
    checks.require(
        "node.transition.calls equals state_transitions",
        node.calls == transitions,
        format!("{} replayed vs {transitions} counted", node.calls),
    );
    let initial: u64 = units.iter().map(|u| u.nodes.len() as u64).sum();
    checks.require(
        "battery.predict.calls equals state_transitions plus one initial prediction per node",
        predict.calls == transitions + initial,
        format!(
            "{} replayed vs {transitions} transitions + {initial} nodes",
            predict.calls
        ),
    );
    let segments: u64 = units
        .iter()
        .flat_map(|u| &u.nodes)
        .map(|n| n.segments.len() as u64)
        .sum();
    checks.require(
        "the battery replay settles exactly the recorded power_segment stream",
        mismatched == 0 && discharge.calls == segments,
        format!(
            "{mismatched} settled segments differ; {} discharged vs {segments} recorded",
            discharge.calls
        ),
    );
    let unparsed: u64 = units.iter().map(|u| u.unparsed).sum();
    checks.require(
        "every segment and transition record was attributed",
        unparsed == 0,
        format!("{unparsed} records unattributed"),
    );
    let lines: u64 = units.iter().map(|u| u.jsonl_lines).sum();
    checks.require(
        "trace.records equals JsonlRecorder::lines()",
        jsonl.calls == lines,
        format!("{} records timed vs {lines} lines", jsonl.calls),
    );
    if plan.workload.writes_jsonl() {
        let d = units[0].jsonl_digest;
        let output = crate::workload::trace_summary(d.lines, d.bytes, d.digest.value());
        checks.require(
            "traced JSONL stream equals the untraced one",
            base.output.ends_with(&output),
            output,
        );
    }
    // Core time of the untraced study: the workers it occupies times its
    // wall time. The disjoint replayed layers (node, which contains the
    // battery, counters and trace) must fit in it. Both sides are host
    // timings taken seconds apart, so a breach is printed and reported as
    // `bench.layer_sum_frac` > 1 rather than counted as a failed output.
    let core_s = base.wall_s * workers as f64;
    let battery_s = predict.seconds() + discharge.seconds();
    let layer_sum_frac = (node.seconds() + incr.seconds() + jsonl.seconds()) / core_s;
    println!(
        "consistency: replayed node {:.3} s + counters {:.3} s + trace {:.3} s = {:.3} of the untraced core time {core_s:.3} s{}",
        node.seconds(),
        incr.seconds(),
        jsonl.seconds(),
        layer_sum_frac,
        if layer_sum_frac <= 1.0 { "" } else { " — EXCEEDS the run it was replayed from" }
    );

    let mut sorted_trials = trial_s.clone();
    sorted_trials.sort_by(f64::total_cmp);
    let busy_s: f64 = trial_s.iter().sum();
    let par_wall_s = par_end.duration_since(par_start).as_secs_f64();
    let c = |k: &str| counters.get(k) as f64;
    let transfers = c("transfers_data") + c("transfers_ack");
    let wasted = c("transfers_lost") + c("transfers_lost_offline") + c("duplicate_frames_dropped");
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_owned(),
        value,
        unit,
    };
    let metrics = vec![
        m("battery.predict.calls", predict.calls as f64, "count"),
        m("battery.predict.ns_per_call", predict.ns_per_call(), "ns"),
        m("battery.discharge.calls", discharge.calls as f64, "count"),
        m(
            "battery.discharge.ns_per_call",
            discharge.ns_per_call(),
            "ns",
        ),
        m("battery.busy_frac", battery_s / core_s, "fraction"),
        m("node.transition.calls", node.calls as f64, "count"),
        m("node.transition.ns_per_call", node.ns_per_call(), "ns"),
        m("sim.events", events as f64, "count"),
        m(
            "sim.ns_per_event",
            core_s * 1e9 / events.max(1) as f64,
            "ns",
        ),
        m(
            "sim.residual_frac",
            (core_s - battery_s - jsonl.seconds()) / core_s,
            "fraction",
        ),
        m("sim.rss_mb_per_sim_h", base.rss_mb_per_sim_h, "MB/h"),
        m("counters.incr.calls", incr.calls as f64, "count"),
        m("counters.incr.ns_per_call", incr.ns_per_call(), "ns"),
        m("trace.records", jsonl.calls as f64, "count"),
        m(
            "trace.bytes",
            units.iter().map(|u| u.jsonl_digest.bytes).sum::<u64>() as f64,
            "bytes",
        ),
        m("trace.record.ns_per_call", record.ns_per_call(), "ns"),
        m("trace.busy_frac", jsonl.seconds() / core_s, "fraction"),
        m("par.trial_s.p50", stats::median(&sorted_trials), "s"),
        m(
            "par.trial_s.max",
            sorted_trials.last().copied().unwrap_or(0.0),
            "s",
        ),
        m(
            "par.efficiency",
            busy_s / (workers as f64 * par_wall_s),
            "fraction",
        ),
        m("net.transfers", transfers, "count"),
        m("net.retransmissions", c("retransmissions"), "count"),
        m(
            "net.useful_frac",
            (transfers - wasted) / transfers.max(1.0),
            "fraction",
        ),
        m(
            "core.frame_yield",
            c("frames_completed") / c("frames_emitted").max(1.0),
            "fraction",
        ),
        m("bench.trace_overhead_s", par_wall_s - base.wall_s, "s"),
        m("bench.layer_sum_frac", layer_sum_frac, "fraction"),
    ];
    (metrics, log)
}
