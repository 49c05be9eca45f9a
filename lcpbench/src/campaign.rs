//! `campaign-static` and `campaign-churn`: the full-profile conformance
//! matrix, run back to back in one process.
//!
//! The untraced timed phase calls the production runners
//! (`run_campaign`, `run_churn_campaign`). The traced phase replays the
//! same matrix cell by cell through the public layer APIs, with a span
//! around every call, and checks that the replay reaches the production
//! report's verdicts; a divergence fails the run, so the per-layer
//! numbers always describe the work the production runner does. The
//! replay mirrors the runner's matrix enumeration and cell seeds, which
//! `lcp-conformance` keeps crate-private; that check is what catches
//! the two drifting apart.

use crate::obs::Snapshot;
use crate::stats::{self, ratio, Metric, Stopwatch};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};
use lcp_conformance::churn::{default_steps, ChurnReport};
use lcp_conformance::{
    campaign_registry, run_campaign, CampaignConfig, CellStatus, Profile, Report,
};
use lcp_core::harness::{classify_growth, GrowthClass, SizePoint, Soundness};
use lcp_core::{
    ArtifactSource, BatchPolicy, CoreProvenance, DynScheme, SkeletonCache, TamperProbe,
};
use lcp_dynamic::churn::{ChurnConfig, ChurnStream};
use lcp_dynamic::{DynamicInstance, Mutation};
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::{CellRequest, Polarity, SchemeEntry};
use rayon::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 2;

fn full_config(seed: u64) -> CampaignConfig {
    CampaignConfig::for_profile(Profile::Full, seed)
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/// Operations of one static pass: checked cells plus growth fits.
/// Failed: cells that failed, crashed or timed out, and fits whose
/// measured class exceeds the claimed bound.
fn tally_static(report: &Report, out: &mut Outcome) -> u64 {
    let mut fit_failures = 0;
    for s in &report.schemes {
        for c in &s.cells {
            if c.status == CellStatus::Skip {
                continue;
            }
            out.attempted += 1;
            if c.status != CellStatus::Pass {
                out.failed += 1;
            }
        }
        if s.measured_growth.is_some() {
            out.attempted += 1;
        }
        if s.bound_ok == Some(false) {
            out.failed += 1;
            fit_failures += 1;
        }
    }
    fit_failures
}

/// Operations of one churn pass: mutations applied, plus cells that
/// crashed or timed out; failed: diverged cross-checks and those cells.
fn tally_churn(report: &ChurnReport, out: &mut Outcome) {
    for c in &report.cells {
        out.attempted += c.steps as u64;
        out.failed += c.mismatches as u64;
        if matches!(c.status, CellStatus::Crashed | CellStatus::TimedOut) {
            out.attempted += 1;
            out.failed += 1;
        }
    }
}

// ---------------------------------------------------------------------
// The matrix, replayed through the public layer APIs
// ---------------------------------------------------------------------

/// One cell coordinate, enumerated in the campaign's order.
struct Coord {
    index: usize,
    entry_idx: usize,
    family: GraphFamily,
    n: usize,
    polarity: Polarity,
}

/// The campaign's matrix enumeration: families × sizes × polarities per
/// entry, sizes clamped by `max_n`, collapsed duplicates once.
fn coords(entries: &[SchemeEntry], config: &CampaignConfig) -> Vec<Coord> {
    let mut out = Vec::new();
    for (entry_idx, entry) in entries.iter().enumerate() {
        let mut seen = BTreeSet::new();
        for &family in entry.families {
            for &n in &config.sizes {
                for polarity in [Polarity::Yes, Polarity::No] {
                    if seen.insert((family, n.min(entry.max_n), polarity)) {
                        out.push(Coord {
                            index: out.len(),
                            entry_idx,
                            family,
                            n,
                            polarity,
                        });
                    }
                }
            }
        }
    }
    out
}

/// The campaign's per-cell seed: splitmix64 over the cell coordinates
/// after FNV-1a over the scheme id.
fn cell_seed(seed: u64, scheme_id: &str, family: GraphFamily, n: usize, polarity: Polarity) -> u64 {
    let id_hash = scheme_id.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15;
    for salt in [id_hash, family as u64, n as u64, polarity as u64 + 1] {
        z = z.wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// The campaign's adversarial size budget for a claimed bound at `n`.
fn adversarial_budget(class: GrowthClass, n: usize) -> usize {
    match class {
        GrowthClass::Zero => 1,
        GrowthClass::Constant => 2,
        GrowthClass::Logarithmic => n.max(2).ilog2() as usize + 2,
        GrowthClass::Linear => n.min(24),
        GrowthClass::Quadratic => (n * n).min(48),
    }
}

fn request(config: &CampaignConfig, entry: &SchemeEntry, c: &Coord) -> CellRequest {
    CellRequest {
        family: c.family,
        n: c.n,
        seed: cell_seed(config.seed, entry.id, c.family, c.n, c.polarity),
        polarity: c.polarity,
    }
}

/// Work counted by the benchmark where the program has no counter.
#[derive(Default)]
struct Work {
    nodes_prepared: AtomicU64,
    views_swept: AtomicU64,
    tamper_trials: AtomicU64,
    cell_busy_ns: AtomicU64,
    /// The current pass's yes cells, kept for the `prove` probe.
    yes_cells: Mutex<Vec<DynScheme>>,
}

impl Work {
    fn add(counter: &AtomicU64, v: usize) {
        counter.fetch_add(v as u64, Ordering::Relaxed);
    }
}

/// What the replay of one static cell decided.
#[derive(Debug, PartialEq)]
struct StaticVerdict {
    status: &'static str,
    check: &'static str,
    proof_bits: Option<usize>,
    tamper: Option<TamperProbe>,
    n: usize,
}

fn replay_static_cell(
    entries: &[SchemeEntry],
    config: &CampaignConfig,
    c: &Coord,
    source: &ArtifactSource,
    tracer: &Tracer,
    work: &Work,
    corr: u64,
) -> StaticVerdict {
    let entry = &entries[c.entry_idx];
    let req = request(config, entry, c);
    let mut v = StaticVerdict {
        status: CellStatus::Skip.name(),
        check: "inapplicable",
        proof_bits: None,
        tamper: None,
        n: 0,
    };
    let Some(cell) = tracer.span("schemes.build", corr, None, || entry.build(&req)) else {
        return v;
    };
    let cell = cell
        .with_source(source.clone())
        .with_batch(if config.batch {
            BatchPolicy::Auto
        } else {
            BatchPolicy::Scalar
        });
    v.n = cell.n();
    let provenance = tracer.span("engine.prepare", corr, None, || cell.prepare_skeletons());
    if provenance == CoreProvenance::Built {
        Work::add(&work.nodes_prepared, cell.n());
    }
    if cell.holds() {
        v.check = "completeness";
        let checked = tracer.span("harness.completeness", corr, None, || {
            cell.check_completeness()
        });
        Work::add(&work.views_swept, cell.n());
        match checked {
            Ok(Some(bits)) => {
                v.status = CellStatus::Pass.name();
                v.proof_bits = Some(bits);
                v.tamper = tracer.span("harness.tamper", corr, None, || {
                    cell.tamper_probe(config.tamper_trials, req.seed ^ 0xa5a5)
                });
                Work::add(&work.tamper_trials, config.tamper_trials);
            }
            _ => v.status = CellStatus::Fail.name(),
        }
        work.yes_cells
            .lock()
            .expect("yes-cell list lock")
            .push(cell);
    } else {
        let space = 3u128.checked_pow(cell.n() as u32);
        if space.is_some_and(|s| s <= config.exhaustive_limit) {
            v.check = "soundness-exhaustive";
            let verdict = tracer.span("harness.exhaustive", corr, None, || {
                cell.check_soundness_exhaustive(1)
            });
            v.status = match verdict {
                Ok(Soundness::Holds(_)) => CellStatus::Pass.name(),
                Ok(Soundness::Violated(_)) => CellStatus::Fail.name(),
                Err(_) => CellStatus::Skip.name(),
            };
        } else {
            v.check = "soundness-adversarial";
            let budget = adversarial_budget(entry.claimed_growth, cell.n());
            let forged = tracer.span("harness.adversarial", corr, None, || {
                cell.adversarial_search(budget, config.adversarial_iterations, req.seed ^ 0x5a5a)
            });
            v.status = if forged.is_none() {
                CellStatus::Pass.name()
            } else {
                CellStatus::Fail.name()
            };
        }
    }
    v
}

/// Fits each scheme's `(n, bits)` points like the campaign does and
/// returns the number of fits above the claimed bound.
fn replay_growth_fits(
    entries: &[SchemeEntry],
    coords: &[Coord],
    verdicts: &[StaticVerdict],
) -> u64 {
    let mut points: Vec<Vec<SizePoint>> = vec![Vec::new(); entries.len()];
    for (c, v) in coords.iter().zip(verdicts) {
        if let (true, Some(bits)) = (v.status == "pass", v.proof_bits) {
            points[c.entry_idx].push(SizePoint { n: v.n, bits });
        }
    }
    let mut failures = 0;
    for (entry, mut pts) in entries.iter().zip(points) {
        pts.sort_by_key(|p| (p.n, p.bits));
        pts.dedup();
        let lo = pts.iter().map(|p| p.n).min().unwrap_or(0);
        let hi = pts.iter().map(|p| p.n).max().unwrap_or(0);
        if pts.len() >= 3 && lo > 0 && hi >= 3 * lo && classify_growth(&pts) > entry.claimed_growth
        {
            failures += 1;
        }
    }
    failures
}

// ---------------------------------------------------------------------
// campaign-static
// ---------------------------------------------------------------------

pub struct StaticState {
    config: CampaignConfig,
    /// The first pass's report: every later pass must match it byte for
    /// byte (timing excluded), and the traced replay cell for cell.
    first: Report,
    first_json: String,
}

impl StaticState {
    /// Set-up is the first full pass of a fresh process: it pays the
    /// one-time lazy initialisation every campaign process pays.
    pub fn set_up(seed: u64) -> StaticState {
        let config = full_config(seed);
        let first = run_campaign(&config);
        let first_json = first.to_json(false);
        StaticState {
            config,
            first,
            first_json,
        }
    }

    /// Untraced passes for at least `budget`; returns growth-fit
    /// failures per pass.
    fn timed_passes(&self, budget: Duration, out: &mut Outcome) -> f64 {
        let (cpu0, started) = (stats::cpu_ns(), Stopwatch::start());
        let mut fit_failures = 0;
        while out.op_ns.len() < MIN_PASSES || started.elapsed() < budget {
            let t = Stopwatch::start();
            let report = run_campaign(&self.config);
            out.record_op(&t);
            fit_failures += tally_static(&report, out);
            if report.to_json(false) != self.first_json {
                out.problem(format!(
                    "static pass {} report differs from the first pass",
                    out.op_ns.len()
                ));
            }
        }
        out.timed_ns = started.net_ns();
        out.cpu_ns = stats::cpu_ns() - cpu0;
        fit_failures as f64 / out.op_ns.len() as f64
    }

    pub fn measure(self, args: &Args, seconds: Duration) -> Outcome {
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        if !args.trace {
            self.timed_passes(seconds, &mut out);
            return out;
        }
        let fit_failures = self.timed_passes(seconds / 2, &mut out);
        let untraced_ms = stats::median(&mut stats::ms(&out.op_ns));

        let entries = campaign_registry();
        let coords = coords(&entries, &self.config);
        let tracer = Tracer::new();
        let work = Work::default();
        let before = Snapshot::take();
        let mut traced_ns = Vec::new();
        let started = Instant::now();
        while traced_ns.len() < MIN_PASSES || started.elapsed() < seconds / 2 {
            let pass = traced_ns.len() as u64;
            work.yes_cells.lock().expect("yes-cell list lock").clear();
            let t = Stopwatch::start();
            let verdicts = tracer.span_with_id("run.pass", pass, None, |root| {
                let source = ArtifactSource::Cache(Arc::new(SkeletonCache::new()));
                let verdicts: Vec<StaticVerdict> = coords
                    .par_iter()
                    .map(|c| {
                        let corr = (pass << 32) | c.index as u64;
                        let t = Instant::now();
                        let v = tracer.span("conformance.cell", corr, Some(root), || {
                            replay_static_cell(
                                &entries,
                                &self.config,
                                c,
                                &source,
                                &tracer,
                                &work,
                                corr,
                            )
                        });
                        Work::add(&work.cell_busy_ns, t.elapsed().as_nanos() as usize);
                        v
                    })
                    .collect();
                let fits = tracer.span("harness.growth_fit", pass << 32, None, || {
                    replay_growth_fits(&entries, &coords, &verdicts)
                });
                (verdicts, fits)
            });
            traced_ns.push(t.net_ns());
            self.check_replay(&verdicts.0, verdicts.1, fit_failures, &mut out);
        }
        let delta = Snapshot::take().since(&before);
        let spans = tracer.take();

        // `DynScheme::prove` runs inside the completeness check; time it
        // on its own over the last pass's yes cells, outside the passes.
        let probe = Tracer::new();
        let yes_cells = std::mem::take(&mut *work.yes_cells.lock().expect("yes-cell list lock"));
        for (i, cell) in yes_cells.iter().enumerate() {
            probe.span("schemes.prove", i as u64, None, || cell.prove());
        }
        let probe_spans = probe.take();
        let t = trace::self_times(&spans);
        let (builds, build_ns) = t.mean_ns("schemes.build");
        let (_, prove_ns) = trace::self_times(&probe_spans).mean_ns("schemes.prove");
        let per_trial = ratio(
            t.total_s("harness.tamper") * 1e9,
            work.tamper_trials.load(Ordering::Relaxed) as f64,
        );
        crate::layers::write_trace(args, &[spans.as_slice(), &probe_spans].concat());

        let mut m = campaign_layers(&t, &delta, &work, &traced_ns);
        m.extend([
            Metric::new("schemes.build_us", build_ns / 1e3, "us", builds as usize),
            Metric::new("schemes.prove_us", prove_ns / 1e3, "us", probe_spans.len()),
            Metric::new(
                "harness.tamper_us_per_trial",
                per_trial / 1e3,
                "us",
                traced_ns.len(),
            ),
            Metric::new(
                "harness.adversarial_steps_per_s",
                ratio(
                    delta.adversarial_steps as f64,
                    t.total_s("harness.adversarial"),
                ),
                "1/s",
                traced_ns.len(),
            ),
            Metric::new(
                "harness.exhaustive_candidates_per_s",
                ratio(
                    delta.exhaustive_candidates as f64,
                    t.total_s("harness.exhaustive"),
                ),
                "1/s",
                traced_ns.len(),
            ),
            Metric::new(
                "conformance.growth_fit_failures",
                fit_failures,
                "count",
                out.op_ns.len(),
            ),
            Metric::new("campaign_pass_s", untraced_ms / 1e3, "s", out.op_ns.len()),
            crate::layers::overhead(untraced_ms, &traced_ns),
        ]);
        out.layers = crate::layers::complete(m, &out);
        out
    }

    /// The traced replay must reach the production verdict on every
    /// cell and the same number of growth-fit failures.
    fn check_replay(
        &self,
        verdicts: &[StaticVerdict],
        fits: u64,
        per_pass: f64,
        out: &mut Outcome,
    ) {
        if verdicts.len() != self.first.cell_count() {
            out.problem(format!(
                "traced replay visited {} cells, the campaign {}",
                verdicts.len(),
                self.first.cell_count()
            ));
        }
        let production = self.first.schemes.iter().flat_map(|s| &s.cells);
        for (v, c) in verdicts.iter().zip(production) {
            let expected = (c.status.name(), c.check, c.proof_bits, c.tamper);
            if (v.status, v.check, v.proof_bits, v.tamper) != expected {
                out.problem(format!(
                    "traced replay of {} on {}/n={}/{} gave {v:?}, the campaign {expected:?}",
                    c.scheme,
                    c.family.name(),
                    c.n,
                    c.polarity.name()
                ));
            }
        }
        if fits as f64 != per_pass {
            out.problem(format!(
                "traced replay found {fits} growth-fit failures, the campaign {per_pass}"
            ));
        }
    }
}

// ---------------------------------------------------------------------
// campaign-churn
// ---------------------------------------------------------------------

pub struct ChurnState {
    config: CampaignConfig,
    steps: usize,
    first: ChurnReport,
    first_json: String,
}

/// What the replay of one churn cell counted.
#[derive(Debug, Default, PartialEq)]
struct ChurnVerdict {
    steps: usize,
    kinds: (usize, usize, usize),
    checks: usize,
    mismatches: usize,
    total_reverified: usize,
}

impl ChurnState {
    /// Set-up is the first full churn pass of a fresh process.
    pub fn set_up(seed: u64) -> ChurnState {
        let config = full_config(seed);
        let steps = default_steps(Profile::Full);
        let first = lcp_conformance::churn::run_churn_campaign(&config, steps);
        let first_json = first.to_json(false);
        ChurnState {
            config,
            steps,
            first,
            first_json,
        }
    }

    fn timed_passes(&self, budget: Duration, out: &mut Outcome) {
        let (cpu0, started) = (stats::cpu_ns(), Stopwatch::start());
        while out.op_ns.len() < MIN_PASSES || started.elapsed() < budget {
            let t = Stopwatch::start();
            let report = lcp_conformance::churn::run_churn_campaign(&self.config, self.steps);
            out.record_op(&t);
            tally_churn(&report, out);
            if report.mismatches() != 0 {
                out.problem(format!(
                    "churn pass {}: {} incremental-vs-full mismatches",
                    out.op_ns.len(),
                    report.mismatches()
                ));
            }
            if report.to_json(false) != self.first_json {
                out.problem(format!(
                    "churn pass {} report differs from the first pass",
                    out.op_ns.len()
                ));
            }
        }
        out.timed_ns = started.net_ns();
        out.cpu_ns = stats::cpu_ns() - cpu0;
    }

    fn replay_cell(
        &self,
        entries: &[SchemeEntry],
        c: &Coord,
        source: &ArtifactSource,
        tracer: &Tracer,
        work: &Work,
        corr: u64,
    ) -> ChurnVerdict {
        let entry = &entries[c.entry_idx];
        let req = request(&self.config, entry, c);
        let mut v = ChurnVerdict::default();
        let Some(cell) = tracer.span("schemes.build", corr, None, || entry.build(&req)) else {
            return v;
        };
        let mut inst = tracer.span("dynamic.open", corr, None, || {
            DynamicInstance::from_cell(cell.with_source(source.clone()).dynamic_cell())
        });
        Work::add(&work.nodes_prepared, inst.n());
        tracer.span("dynamic.reverify", corr, None, || inst.reverify());
        let mut stream = ChurnStream::new(ChurnConfig::new(req.seed ^ 0xd1_5ea5e));
        for _ in 0..self.steps {
            let Some(mutation) = stream.propose(&inst) else {
                break;
            };
            let applied = tracer.span("dynamic.apply_verified", corr, None, || {
                inst.apply_verified(&mutation)
            });
            v.checks += 1;
            let Ok(applied) = applied else {
                v.mismatches += 1;
                continue;
            };
            let full = tracer.span("dynamic.full_check", corr, None, || inst.full_check());
            Work::add(&work.nodes_prepared, inst.n());
            Work::add(&work.views_swept, inst.n());
            if inst.cached_verdict().as_ref() != Some(&full) {
                v.mismatches += 1;
            }
            v.steps += 1;
            v.total_reverified += applied.outcome.reverified;
            match mutation {
                Mutation::EdgeInsert(..) => v.kinds.0 += 1,
                Mutation::EdgeDelete(..) => v.kinds.1 += 1,
                Mutation::ProofRewrite(..) => v.kinds.2 += 1,
                Mutation::NodeLabelChange(..) => {}
            }
        }
        v
    }

    pub fn measure(self, args: &Args, seconds: Duration) -> Outcome {
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        if !args.trace {
            self.timed_passes(seconds, &mut out);
            return out;
        }
        self.timed_passes(seconds / 2, &mut out);
        let untraced_ms = stats::median(&mut stats::ms(&out.op_ns));

        let entries = campaign_registry();
        let coords = coords(&entries, &self.config);
        let tracer = Tracer::new();
        let work = Work::default();
        let before = Snapshot::take();
        let mut traced_ns = Vec::new();
        // One churn pass records ~3·10⁵ spans; a single traced pass
        // keeps the trace file to tens of megabytes.
        let pass = 0u64;
        let t = Stopwatch::start();
        let verdicts = tracer.span_with_id("run.pass", pass, None, |root| {
            let source = ArtifactSource::Cache(Arc::new(SkeletonCache::new()));
            coords
                .par_iter()
                .map(|c| {
                    let corr = c.index as u64;
                    let t = Instant::now();
                    let v = tracer.span("conformance.cell", corr, Some(root), || {
                        self.replay_cell(&entries, c, &source, &tracer, &work, corr)
                    });
                    Work::add(&work.cell_busy_ns, t.elapsed().as_nanos() as usize);
                    v
                })
                .collect::<Vec<ChurnVerdict>>()
        });
        traced_ns.push(t.net_ns());
        if verdicts.len() != self.first.cells.len() {
            out.problem(format!(
                "traced replay visited {} churn cells, the campaign {}",
                verdicts.len(),
                self.first.cells.len()
            ));
        }
        for (v, c) in verdicts.iter().zip(&self.first.cells) {
            let expected = ChurnVerdict {
                steps: c.steps,
                kinds: c.kinds,
                checks: c.checks,
                mismatches: c.mismatches,
                total_reverified: c.total_reverified,
            };
            if *v != expected {
                out.problem(format!(
                    "traced replay of churn cell {} on {}/n={} gave {v:?}, the campaign {expected:?}",
                    c.scheme,
                    c.family.name(),
                    c.n
                ));
            }
        }
        let delta = Snapshot::take().since(&before);
        let spans = tracer.take();
        let t = trace::self_times(&spans);
        crate::layers::write_trace(args, &spans);
        let (builds, build_ns) = t.mean_ns("schemes.build");
        let (checks, full_check_ns) = t.mean_ns("dynamic.full_check");
        let mutations = t.mean_ns("dynamic.apply_verified").0 as f64;

        let mut m = campaign_layers(&t, &delta, &work, &traced_ns);
        m.extend([
            Metric::new("schemes.build_us", build_ns / 1e3, "us", builds as usize),
            Metric::new(
                "dynamic.full_check_us",
                full_check_ns / 1e3,
                "us",
                checks as usize,
            ),
            Metric::new(
                "dynamic.reverify_us_p50",
                delta.reverify_ns.quantile(0.5) / 1e3,
                "us",
                delta.reverify_ns.count() as usize,
            ),
            Metric::new(
                "dynamic.reverified_nodes_per_mutation",
                ratio(delta.reverified_nodes as f64, mutations),
                "count",
                mutations as usize,
            ),
            Metric::new("campaign_pass_s", untraced_ms / 1e3, "s", out.op_ns.len()),
            crate::layers::overhead(untraced_ms, &traced_ns),
        ]);
        out.layers = crate::layers::complete(m, &out);
        out
    }
}

// ---------------------------------------------------------------------
// Shared per-layer arithmetic
// ---------------------------------------------------------------------

static LINE_GRAPH_INIT_MS: OnceLock<f64> = OnceLock::new();

/// Times the process's first request for the nine Beineke graphs (the
/// line-graph verifier's forbidden subgraphs), which enumerates every
/// graph on up to six nodes. Traced runs call it before anything else,
/// so the process is fresh.
pub fn probe_line_graph_init() {
    let t = Instant::now();
    std::hint::black_box(lcp_graph::line_graph::beineke_graphs());
    let _ = LINE_GRAPH_INIT_MS.set(t.elapsed().as_secs_f64() * 1e3);
}

/// `graph.line_graph_init_ms`, 0 when not probed.
fn line_graph_init_ms() -> f64 {
    LINE_GRAPH_INIT_MS.get().copied().unwrap_or(0.0)
}

fn campaign_layers(
    t: &trace::SelfTimes,
    d: &Snapshot,
    work: &Work,
    traced_ns: &[u64],
) -> Vec<Metric> {
    let passes = traced_ns.len() as f64;
    let traced_wall_ns: u64 = traced_ns.iter().sum();
    let mut m = crate::layers::shares(t);
    m.extend(crate::layers::engine(
        d,
        work.nodes_prepared.load(Ordering::Relaxed),
        work.views_swept.load(Ordering::Relaxed),
        traced_ns.len(),
    ));
    m.extend([
        Metric::new("graph.line_graph_init_ms", line_graph_init_ms(), "ms", 1),
        Metric::new(
            "harness.memo_hit_ratio",
            ratio(d.memo_hits as f64, (d.memo_hits + d.memo_misses) as f64),
            "ratio",
            (d.memo_hits + d.memo_misses) as usize,
        ),
        Metric::new(
            "batch.kernel_fill_share",
            ratio(
                d.fills_kernel as f64,
                (d.fills_kernel + d.fills_scalar) as f64,
            ),
            "ratio",
            (d.fills_kernel + d.fills_scalar) as usize,
        ),
        Metric::new(
            "batch.adversarial_batched_share",
            ratio(
                d.adversarial_batched as f64,
                (d.adversarial_batched + d.adversarial_scalar) as f64,
            ),
            "ratio",
            (d.adversarial_batched + d.adversarial_scalar) as usize,
        ),
        Metric::new(
            "conformance.core_busy_share",
            ratio(
                work.cell_busy_ns.load(Ordering::Relaxed) as f64,
                traced_wall_ns as f64 * stats::cpus() as f64,
            ),
            "ratio",
            passes as usize,
        ),
    ]);
    m
}
