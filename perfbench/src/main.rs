//! `dles-perfbench` — the end-to-end benchmark of the dles lifetime
//! simulator, with per-layer numbers from a separate traced pass.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload exp2c_kibam --seed 42 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures an untraced baseline, then runs the traced pass
//! and prints the per-layer metrics. `--workload all` does both for every
//! workload in one process. `--smoke` shrinks every study to seconds of
//! simulated time and exercises every workload and check. The last line
//! of standard output is the result as one JSON object.

#![forbid(unsafe_code)]

mod digest;
mod layers;
mod rss;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use stats::Summary;
use workload::{run_study, setup_once, Checker, Plan, Size, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: dles-perfbench --workload <exp2c_kibam|exp2c_ideal|mc2b_lossy|exp2c_jsonl|all> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// Set-up samples taken before each timed study; `setup_s` is the median
/// of all of a run's samples.
const SETUPS_PER_STUDY: usize = 25;
/// Fresh processes whose highest peak RSS a multi-threaded study reports.
const RSS_CHILDREN_PARALLEL: usize = 5;
/// Studies timed per run at the least, however short `--seconds` is.
const MIN_STUDIES: usize = 3;
/// Share of a `--trace 1` run's seconds spent on its untraced baseline.
const BASELINE_SHARE: f64 = 0.5;
/// Monte Carlo workers, capped by the cores available.
const MAX_WORKERS: usize = 2;
/// Where the traced pass writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".perfbench";

/// One named result value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Internal: run one study in this fresh process and report its peak
    /// resident memory.
    rss_child: bool,
    /// Internal, with `rss_child` only: run the short horizon of the
    /// memory slope.
    short: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        smoke: false,
        rss_child: false,
        short: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a finite non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--short" => args.short = true,
            "--rss-child" => args.rss_child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.short && !args.rss_child {
        return Err("--short is internal to --rss-child".into());
    }
    if (args.workload != "all" || args.rss_child) && Workload::by_name(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan_for = |workload| Plan {
        workload,
        seed: args.seed,
        size: if args.smoke { Size::Smoke } else { Size::Full },
        workers: cores.min(MAX_WORKERS),
        short: args.short,
    };
    if args.rss_child {
        let w = Workload::by_name(&args.workload).expect("checked by parse_args");
        return rss_child(&plan_for(w));
    }
    let workloads: Vec<Workload> = match Workload::by_name(&args.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    println!(
        "env: cores={cores} workers={} rustc={:?} commit={:?} seed={} seconds={} size={:?}",
        cores.min(MAX_WORKERS),
        command_line("rustc", &["--version"]),
        command_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"]),
        args.seed,
        args.seconds,
        plan_for(workloads[0]).size,
    );
    let all = workloads.len() > 1;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut run = |trace: bool, w: Workload| {
        let plan = plan_for(w);
        let mut checks = Checker::new(&plan);
        println!(
            "== {} ({})",
            w.name(),
            if trace { "traced pass" } else { "end to end" }
        );
        let got = if trace {
            per_layer(&plan, args.seconds, &mut checks)
        } else {
            end_to_end(&plan, args.seconds, &mut checks)
        };
        println!(
            "failed_frac: {}/{} = {}",
            checks.failed,
            checks.attempted,
            checks.failed as f64 / checks.attempted.max(1) as f64
        );
        attempted += checks.attempted;
        failed += checks.failed;
        for mut m in got {
            if all {
                m.name = format!("{}/{}", w.name(), m.name);
            }
            metrics.push(m);
        }
    };
    if all {
        for &w in &workloads {
            run(false, w);
        }
        for &w in &workloads {
            run(true, w);
        }
    } else {
        run(args.trace, workloads[0]);
    }
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        println!("CHECK FAILED: metric {} is not a finite number", m.name);
        m.value = 0.0;
        failed += 1;
    }
    println!("{}", result_json(attempted.max(1), failed, &metrics));
    ExitCode::SUCCESS
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Print a metric's median, quartiles, spread, tail and sample count;
/// return its median.
fn summarize(name: &str, unit: &'static str, values: &[f64]) -> Metric {
    let s = Summary::of(values).expect("at least one sample");
    let tail = s
        .tail
        .map_or("no tail percentile (<20 samples)".to_owned(), |(p, v)| {
            format!("p{p} {v:.6}")
        });
    println!(
        "{name}: median {:.6} {unit} (q1 {:.6}, q3 {:.6}, spread {:.4}, {tail}; n={})",
        s.median,
        s.q1,
        s.q3,
        s.spread(),
        s.n
    );
    Metric {
        name: name.to_owned(),
        value: s.median,
        unit,
    }
}

/// What a fresh child process measured for one study.
struct ChildRun {
    vmhwm_kb: u64,
    sim_hours: f64,
    output: String,
}

/// Run one study in a fresh process of this executable and read back its
/// peak resident memory: `VmHWM` never falls within a process, so only a
/// process that ran nothing else reports the study's own peak.
fn spawn_rss_child(plan: &Plan) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rss-child", "--workload", plan.workload.name()]);
    cmd.args(["--seed", &plan.seed.to_string()]);
    if plan.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    if plan.short {
        cmd.arg("--short");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let mut parts = text.splitn(3, '\n');
    let mut field = |key: &str| {
        parts
            .next()
            .and_then(|l| l.strip_prefix(key))
            .map(str::to_owned)
            .ok_or(format!("child output lacks {key}"))
    };
    let vmhwm_kb = field("vmhwm_kb ")?.parse().map_err(|e| format!("{e}"))?;
    let sim_hours = field("sim_hours ")?.parse().map_err(|e| format!("{e}"))?;
    let output = parts.next().unwrap_or_default().to_owned();
    Ok(ChildRun {
        vmhwm_kb,
        sim_hours,
        output,
    })
}

fn rss_child(plan: &Plan) -> ExitCode {
    let run = run_study(plan);
    let Some(kb) = rss::self_vmhwm_kb() else {
        eprintln!("cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };
    print!("vmhwm_kb {kb}\nsim_hours {}\n{}", run.sim_hours, run.output);
    ExitCode::SUCCESS
}

/// Peak RSS of a fresh child running `plan`, MB; the child's output is
/// checked like any other study's.
fn child_rss_mb(plan: &Plan, checks: &mut Checker) -> (f64, f64) {
    match spawn_rss_child(plan) {
        Ok(c) => {
            if !plan.short {
                checks.output("peak-RSS child study", &c.output);
            }
            (c.vmhwm_kb as f64 / 1024.0, c.sim_hours)
        }
        Err(e) => {
            checks.require("peak-RSS child", false, e);
            (f64::NAN, f64::NAN)
        }
    }
}

/// What a run of back-to-back studies measured.
struct Timed {
    walls: Vec<f64>,
    rates: Vec<f64>,
    setups: Vec<f64>,
    last: workload::StudyRun,
}

/// Run checked studies back to back until `seconds` have passed (and at
/// least [`MIN_STUDIES`] ran), taking `setups_per_study` set-up samples
/// before each, so set-up and study times see the same machine state.
fn timed_studies(
    plan: &Plan,
    seconds: f64,
    setups_per_study: usize,
    checks: &mut Checker,
) -> Timed {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut walls, mut rates, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        setups.extend((0..setups_per_study).map(|_| setup_once(plan).as_secs_f64()));
        let run = run_study(plan);
        checks.output("study", &run.output);
        let wall = run.wall.as_secs_f64();
        walls.push(wall);
        rates.push(run.sim_hours / wall);
        if walls.len() >= MIN_STUDIES && Instant::now() >= deadline {
            return Timed {
                walls,
                rates,
                setups,
                last: run,
            };
        }
    }
}

/// The end-to-end metrics, tracing off.
fn end_to_end(plan: &Plan, seconds: f64, checks: &mut Checker) -> Vec<Metric> {
    // A study on several threads reaches a scheduling-dependent peak, so
    // it takes the highest of several fresh processes.
    let children = if plan.workers_used() > 1 {
        RSS_CHILDREN_PARALLEL
    } else {
        1
    };
    let peak_rss_mb = (0..children)
        .map(|_| child_rss_mb(plan, checks).0)
        .fold(f64::NEG_INFINITY, f64::max);
    let t = timed_studies(plan, seconds, SETUPS_PER_STUDY, checks);
    let metrics = vec![
        summarize("wall_s", "s", &t.walls),
        summarize("sim_h_per_s", "h/s", &t.rates),
        Metric {
            name: "peak_rss_mb".into(),
            value: peak_rss_mb,
            unit: "MB",
        },
        summarize("setup_s", "s", &t.setups),
    ];
    println!("peak_rss_mb: {peak_rss_mb:.3} MB (highest of {children} fresh processes)");
    metrics
}

/// The per-layer metrics: an untraced baseline, then the traced pass.
fn per_layer(plan: &Plan, seconds: f64, checks: &mut Checker) -> Vec<Metric> {
    let (full_mb, full_h) = child_rss_mb(plan, checks);
    let short = Plan {
        short: true,
        ..*plan
    };
    let (short_mb, short_h) = child_rss_mb(&short, checks);
    let t = timed_studies(plan, seconds * BASELINE_SHARE, 0, checks);
    let wall = summarize("untraced wall_s", "s", &t.walls);
    let base = layers::Baseline {
        wall_s: wall.value,
        counters: t.last.counters,
        output: t.last.output,
        rss_mb_per_sim_h: (full_mb - short_mb) / (full_h - short_h),
    };
    let (metrics, log) = layers::traced_pass(plan, &base, checks);
    for m in &metrics {
        println!("{}: {} {}", m.name, m.value, m.unit);
    }
    let path = format!(
        "{SPAN_DIR}/spans-{}-seed{}.jsonl",
        plan.workload.name(),
        plan.seed
    );
    match std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, log.to_jsonl())) {
        Ok(()) => println!("spans: {} written to {path}", log.spans().len()),
        Err(e) => println!("spans: cannot write {path}: {e}"),
    }
    metrics
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_shape() {
        let metrics = [
            Metric {
                name: "wall_s".into(),
                value: 1.25,
                unit: "s",
            },
            Metric {
                name: "sim.events".into(),
                value: 246902.0,
                unit: "count",
            },
        ];
        assert_eq!(
            result_json(3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"sim.events\": {\"value\": 246902, \"unit\": \"count\"}}}"
        );
        assert!(result_json(1, 1, &[]).starts_with("{\"correct\": false"));
    }
}
