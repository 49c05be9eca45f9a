//! `lcpbench` — the repository's one benchmark: campaigns and the serve
//! daemon, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path lcpbench/Cargo.toml -- \
//!     --workload campaign-static --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Every run sets up its workload several times (the reported `setup_s`
//! is the median), then measures steady-state operations for
//! `--seconds`, checks every output, and prints one JSON object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reruns the timed phase with spans recorded
//! around the calls into each layer and reports the per-layer metrics
//! (see `lcpbench/README.md` for the full vocabulary).

mod campaign;
mod layers;
mod obs;
mod serve;
mod stats;
mod trace;

use stats::{percentile, Metric, Stopwatch};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The four workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "campaign-static",
    "campaign-churn",
    "serve-mixed",
    "serve-restart",
];

/// Set-ups measured per run; `setup_s` is their median. All but the
/// first run in fresh child processes, because the campaigns' one-time
/// lazy state (the Beineke enumeration) is paid once per process.
/// Cheaper set-ups get more samples; the churn set-up is a whole ~4 s
/// pass, so it gets the fewest.
fn setup_samples(workload: &str) -> usize {
    match workload {
        "campaign-churn" => 3,
        "campaign-static" => 5,
        "serve-restart" => 7,
        _ => 9,
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Child mode: run the workload's set-up once, print its duration,
    /// exit.
    pub setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds out of range: {}", args.seconds));
    }
    Ok(args)
}

/// Outcome of one workload's measurement.
#[derive(Default)]
pub struct Outcome {
    /// Whether every output matched its check.
    pub correct: bool,
    /// Operations attempted and failed (see README: a checked cell or
    /// growth fit, a mutation, a request, or a restart).
    pub attempted: u64,
    pub failed: u64,
    /// Time of each timed operation net of CPU steal (see
    /// [`stats::Stopwatch`]), and its raw wall time, nanoseconds.
    pub op_ns: Vec<u64>,
    pub raw_op_ns: Vec<u64>,
    /// Time of the whole timed phase net of CPU steal, nanoseconds.
    pub timed_ns: u64,
    /// Process CPU time over the timed phase, nanoseconds.
    pub cpu_ns: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Human-readable check failures, printed to stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn record_op(&mut self, t: &stats::Stopwatch) {
        self.op_ns.push(t.net_ns());
        self.raw_op_ns.push(t.wall_ns());
    }

    /// Records a failed check without aborting the run.
    pub fn problem(&mut self, what: String) {
        self.correct = false;
        self.problems.push(what);
    }
}

/// Where the benchmark writes traces and temporary artifact
/// directories: inside its own directory of the checkout.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("lcpbench").join("out")
}

/// One workload's set-up, measured from process start; returns the
/// state its timed phase continues from.
enum Prepared {
    Static(campaign::StaticState),
    Churn(campaign::ChurnState),
    Mixed(serve::MixedState),
    Restart(serve::RestartState),
}

fn set_up(args: &Args, process_start: Stopwatch) -> (Prepared, f64) {
    let prepared = match args.workload.as_str() {
        "campaign-static" => Prepared::Static(campaign::StaticState::set_up(args.seed)),
        "campaign-churn" => Prepared::Churn(campaign::ChurnState::set_up(args.seed)),
        "serve-mixed" => Prepared::Mixed(serve::MixedState::set_up(args.seed)),
        "serve-restart" => Prepared::Restart(serve::RestartState::set_up(args.seed)),
        _ => unreachable!("workload validated by parse_args"),
    };
    (prepared, process_start.net_ns() as f64 / 1e9)
}

/// Runs one set-up in a fresh child process of this binary and returns
/// its duration in seconds.
fn probe_setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("set-up probe printed no duration: {stdout}"))
}

fn main() -> ExitCode {
    let process_start = Stopwatch::start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lcpbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let (prepared, secs) = set_up(&args, process_start);
        drop(prepared);
        println!("setup_s {secs}");
        return ExitCode::SUCCESS;
    }
    match run(&args, process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lcpbench: {} failed to measure: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, process_start: Stopwatch) -> Result<(), String> {
    // Traced runs report no set-up time, so a traced campaign first times
    // the one-time line-graph initialisation in this fresh process.
    // Otherwise the in-process set-up runs first, timed from process
    // start like the child probes.
    if args.trace && args.workload.starts_with("campaign") {
        campaign::probe_line_graph_init();
    }
    let (prepared, own_setup) = set_up(args, process_start);
    let mut setups = vec![own_setup];
    if !args.trace {
        for _ in 1..setup_samples(&args.workload) {
            setups.push(probe_setup_in_child(args)?);
        }
    }
    let seconds = Duration::from_secs_f64(args.seconds);
    let measured = Stopwatch::start();
    let outcome = match prepared {
        Prepared::Static(state) => state.measure(args, seconds),
        Prepared::Churn(state) => state.measure(args, seconds),
        Prepared::Mixed(state) => state.measure(args, seconds),
        Prepared::Restart(state) => state.measure(args, seconds),
    };
    for p in &outcome.problems {
        eprintln!("lcpbench: check failed: {p}");
    }
    if outcome.op_ns.is_empty() || outcome.timed_ns == 0 {
        return Err("no operation completed in the timed phase".into());
    }

    let machine = stats::machine_descriptor(args.seed);
    println!("machine {machine}");
    // Steal time is the host's, not the program's: printed so a noisy
    // run can be told apart from a slow program.
    println!(
        "cpu steal during measurement: {:.1}%",
        100.0 * (1.0 - measured.net_ns() as f64 / measured.wall_ns() as f64)
    );
    for (what, ns) in [("net", &outcome.op_ns), ("raw wall", &outcome.raw_op_ns)] {
        let mut sorted = stats::ms(ns);
        println!(
            "op ms ({what}): min {:.3} p25 {:.3} p50 {:.3} p75 {:.3} max {:.3} (n = {})",
            percentile(&mut sorted, 0.0),
            percentile(&mut sorted, 0.25),
            percentile(&mut sorted, 0.5),
            percentile(&mut sorted, 0.75),
            percentile(&mut sorted, 1.0),
            sorted.len()
        );
    }
    let metrics = if args.trace {
        outcome.layers.clone()
    } else {
        end_to_end(&outcome, &mut setups)
    };
    for m in &metrics {
        println!(
            "{:<40} {:>16.6} {:<6} (samples: {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let attempted = outcome.attempted.max(1);
    println!(
        "{}",
        stats::result_line(outcome.correct, attempted, outcome.failed, &metrics)
    );
    Ok(())
}

/// The end-to-end metrics every workload reports (`--trace 0`).
fn end_to_end(outcome: &Outcome, setups: &mut [f64]) -> Vec<Metric> {
    let mut op_ms = stats::ms(&outcome.op_ns);
    let ops = op_ms.len();
    vec![
        Metric::new("setup_s", stats::median(setups), "s", setups.len()),
        Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB", 1),
        Metric::new("op_ms_p50", percentile(&mut op_ms, 0.50), "ms", ops),
        Metric::new("op_ms_p90", percentile(&mut op_ms, 0.90), "ms", ops),
        Metric::new(
            "ops_per_s",
            ops as f64 / (outcome.timed_ns as f64 / 1e9),
            "1/s",
            ops,
        ),
        Metric::new(
            "cpu_ms_per_op",
            outcome.cpu_ns as f64 / 1e6 / ops as f64,
            "ms",
            ops,
        ),
    ]
}
