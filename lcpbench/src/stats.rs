//! Order statistics, process probes, the machine descriptor, and the
//! result line.

use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

/// One reported metric with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        }
    }
}

/// The `q`-quantile by linear interpolation between closest ranks
/// (sorts `xs`); 0 for an empty sample.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e6).collect()
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// `a / b`, or 0 when `b` is 0 (a layer idle on this workload).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process (all threads), in
/// nanoseconds. `/proc` reports clock ticks of the fixed user-space
/// `USER_HZ` of 100 per second.
pub fn cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line; `rest`
    // starts at field 3.
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    ticks * 10_000_000
}

/// Cumulative steal ticks of all CPUs (`/proc/stat`): time the host
/// ran something else while this machine's virtual CPUs wanted to run.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Wall-clock stopwatch that also reports time net of CPU steal: the
/// time the host ran other machines while this one's virtual CPUs
/// wanted to run. Steal is noise from outside the program; an
/// operation's net time is its wall time less the steal over the same
/// interval, averaged over the CPUs.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
    steal: u64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
            steal: steal_ticks(),
        }
    }

    pub fn wall_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Wall nanoseconds less the steal since [`Self::start`]; at least 1.
    pub fn net_ns(&self) -> u64 {
        let wall = self.wall_ns();
        // `/proc/stat` counts steal in ticks of 10 ms, summed over CPUs.
        let stolen = steal_ticks().saturating_sub(self.steal) * 10_000_000 / cpus();
        wall.saturating_sub(stolen).max(1)
    }
}

pub fn cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as u64
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the current directory, when it is the top
/// of a git work tree.
fn git_commit() -> String {
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().and_then(std::fs::canonicalize);
    match (std::fs::canonicalize(&top), here) {
        (Ok(top), Ok(here)) if top == here => command_line("git", &["rev-parse", "HEAD"]),
        _ => "unknown".into(),
    }
}

/// nproc, CPU model, rustc version, git commit, and seed, as a JSON
/// object (the commit is `unknown` outside a git checkout).
pub fn machine_descriptor(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {seed}}}",
        json_str(&cpu),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&git_commit()),
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final stdout line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints every digit f64 needs to round-trip.
        let _ = write!(
            out,
            "{}: {{\"value\": {:?}, \"unit\": {}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut xs, 0.0), 1.0);
        assert_eq!(percentile(&mut xs, 1.0), 4.0);
        assert_eq!(percentile(&mut xs, 0.5), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[Metric::new("a", 1.5, "ms", 2)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
