//! `serve-mixed` and `serve-restart`: the `lcp-serve` daemon, run
//! in-process on an ephemeral loopback port and driven through
//! `lcp_serve::Client`.

use crate::obs::Snapshot;
use crate::stats::{self, percentile, ratio, Metric, Stopwatch};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};
use lcp_core::json::Json;
use lcp_core::{FrozenCore, PortableLabel};
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::Polarity;
use lcp_schemes::{ArcDir, StMark};
use lcp_serve::{CellCoord, Client, ClientError, Request, Server, ServerConfig, ServerHandle};
use lcp_serve::{InstanceTable, WireMutation};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients: daemon callers wait for each reply, and sessions
/// are per connection. Two matches the two cores the workloads were
/// sized on.
const CLIENTS: usize = 2;
/// Insert/delete pairs per resident cell in one client iteration.
const MUTATE_PAIRS: usize = 4;
/// Single-bit flips per `tamper-probe`.
const TAMPER_TRIALS: usize = 16;

fn coord(scheme: &str, family: GraphFamily, n: usize, seed: u64) -> CellCoord {
    CellCoord {
        scheme: scheme.into(),
        family,
        n,
        seed,
        polarity: Polarity::Yes,
    }
}

/// splitmix64: distinct, reproducible cell seeds from the run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The resident set of `serve-mixed`: yes-cells at n ≈ 4096 on cycles,
/// grids and trees, at radius 1 and 2. The first is the churn session's
/// cell: an even cycle, where edge (0, 2) closes a triangle.
fn resident_cells(seed: u64) -> Vec<CellCoord> {
    [
        ("bipartite", GraphFamily::Cycle),
        ("co-maximal-matching", GraphFamily::Grid),
        ("spanning-tree", GraphFamily::Tree),
        ("st-reachability-directed", GraphFamily::Grid),
        ("leader-election", GraphFamily::Cycle),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(scheme, family))| coord(scheme, family, 4096, mix(seed, i as u64 + 1)))
    .collect()
}

/// The artifact-backed set of `serve-restart`: yes-cells at n ≈ 16384,
/// each on its own core (no two share a graph and a radius).
fn restart_cells(seed: u64) -> Vec<CellCoord> {
    [
        ("bipartite", GraphFamily::Cycle),
        ("maximal-matching", GraphFamily::Cycle),
        ("spanning-tree", GraphFamily::Tree),
        ("co-maximal-matching", GraphFamily::Grid),
        ("leader-election", GraphFamily::Tree),
        ("st-reachability-directed", GraphFamily::Grid),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(scheme, family))| coord(scheme, family, 16384, mix(seed, 100 + i as u64)))
    .collect()
}

fn payload(op: &str, coord: &CellCoord, extra: &str) -> String {
    format!("{{\"op\":\"{op}\",{}{extra}}}", coord.render_fields())
}

fn field_bool(doc: &Json, key: &str) -> Option<bool> {
    doc.get(key).and_then(Json::as_bool)
}

fn field_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

/// Sends one request, optionally inside `serve.parse` and `serve.<op>`
/// spans, and returns the response with its round-trip time.
fn send(
    client: &mut Client,
    tracer: Option<&Tracer>,
    span: &'static str,
    corr: u64,
    body: &str,
) -> (Result<Json, ClientError>, u64) {
    let t = Instant::now();
    let res = match tracer {
        None => client.request(body),
        Some(tr) => {
            // The daemon's own first step, repeated here so its cost is
            // measured where the benchmark can see it.
            tr.span("serve.parse", corr, None, || Request::parse(body).is_ok());
            tr.span(span, corr, None, || client.request(body))
        }
    };
    (res, t.elapsed().as_nanos() as u64)
}

/// Removes a temporary directory when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = crate::out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a temporary directory in lcpbench/out");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------

pub struct MixedState {
    seed: u64,
    handle: ServerHandle,
    table: Arc<InstanceTable>,
    clients: Vec<Client>,
    resident: Vec<CellCoord>,
    /// `n` of each resident cell, from its `prepare` response.
    resident_n: Vec<u64>,
}

/// Latencies and counts of one client, by op.
#[derive(Default)]
struct ClientLog {
    /// Net of steal (see [`Stopwatch`]), and raw wall time.
    iterations: Vec<u64>,
    raw_iterations: Vec<u64>,
    mutate: Vec<u64>,
    verify: Vec<u64>,
    tamper: Vec<u64>,
    cold: Vec<u64>,
    all: Vec<u64>,
    views_swept: u64,
    nodes_prepared: u64,
    requests: u64,
    failed: u64,
    problems: Vec<String>,
}

impl ClientLog {
    fn merge(&mut self, o: ClientLog) {
        self.iterations.extend(o.iterations);
        self.raw_iterations.extend(o.raw_iterations);
        self.mutate.extend(o.mutate);
        self.verify.extend(o.verify);
        self.tamper.extend(o.tamper);
        self.cold.extend(o.cold);
        self.all.extend(o.all);
        self.views_swept += o.views_swept;
        self.nodes_prepared += o.nodes_prepared;
        self.requests += o.requests;
        self.failed += o.failed;
        self.problems.extend(o.problems);
    }

    /// Counts one request; a wrong or failed answer is a failed
    /// operation.
    fn check(&mut self, what: &str, ok: bool, res: &Result<Json, ClientError>) {
        self.requests += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems
                    .push(format!("{what}: unexpected answer {res:?}"));
            }
        }
    }
}

impl MixedState {
    /// Set-up: start the daemon, connect the clients, load the resident
    /// set, and open one churn session per client.
    pub fn set_up(seed: u64) -> MixedState {
        let server =
            Server::bind(ServerConfig::default()).expect("bind an ephemeral loopback port");
        let table = server.table();
        let handle = server.spawn().expect("spawn the daemon");
        let resident = resident_cells(seed);
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect(handle.addr()).expect("connect to the daemon"))
            .collect();
        let resident_n = resident
            .iter()
            .map(|c| {
                let r = clients[0].prepare(c).expect("prepare a resident cell");
                assert_eq!(
                    field_bool(&r, "holds"),
                    Some(true),
                    "{c:?} must be a yes-cell"
                );
                field_u64(&r, "n").expect("prepare reports n")
            })
            .collect();
        for client in &mut clients {
            let r = client
                .session_open(&resident[0])
                .expect("open a churn session");
            assert_eq!(
                field_bool(&r, "accepted"),
                Some(true),
                "session starts accepted"
            );
        }
        MixedState {
            seed,
            handle,
            table,
            clients,
            resident,
            resident_n,
        }
    }

    /// One client's closed loop until `budget` elapses. An iteration
    /// visits every resident cell in turn (4 insert/delete pairs in the
    /// client's session, then `verify` and `tamper-probe` on the cell)
    /// and ends with a `prepare` of a never-seen cell, so every
    /// iteration does the same mix of work.
    fn client_loop(
        &self,
        client: &mut Client,
        id: usize,
        first_iteration: usize,
        budget: Duration,
        tracer: Option<&Tracer>,
    ) -> ClientLog {
        let mut log = ClientLog::default();
        let started = Instant::now();
        let mut i = first_iteration;
        while started.elapsed() < budget {
            let corr = ((id as u64) << 40) | i as u64;
            let t = Stopwatch::start();
            let body = |log: &mut ClientLog, client: &mut Client| {
                for (k, cell) in self.resident.iter().enumerate() {
                    for _ in 0..MUTATE_PAIRS {
                        for (m, accepted) in [
                            (WireMutation::EdgeInsert(0, 2), false),
                            (WireMutation::EdgeDelete(0, 2), true),
                        ] {
                            let body = format!("{{\"op\":\"mutate\",{}}}", m.render_fields());
                            let (res, ns) = send(client, tracer, "serve.mutate", corr, &body);
                            let ok = res
                                .as_ref()
                                .is_ok_and(|r| field_bool(r, "accepted") == Some(accepted));
                            log.check("mutate", ok, &res);
                            log.mutate.push(ns);
                            log.all.push(ns);
                        }
                    }
                    let body = payload("verify", cell, "");
                    let (res, ns) = send(client, tracer, "serve.verify", corr, &body);
                    let ok = res
                        .as_ref()
                        .is_ok_and(|r| field_bool(r, "accepted") == Some(true));
                    log.check(&format!("verify {}", cell.scheme), ok, &res);
                    log.views_swept += self.resident_n[k];
                    log.verify.push(ns);
                    log.all.push(ns);

                    let extra = format!(",\"trials\":{TAMPER_TRIALS},\"seed\":{i}");
                    let body = payload("tamper-probe", cell, &extra);
                    let (res, ns) = send(client, tracer, "serve.tamper", corr, &body);
                    let ok = res.as_ref().is_ok_and(|r| {
                        field_u64(r, "trials") == Some(TAMPER_TRIALS as u64)
                            && field_u64(r, "detected")
                                .zip(field_u64(r, "undetected"))
                                .is_some_and(|(d, u)| d + u == TAMPER_TRIALS as u64)
                    });
                    log.check(&format!("tamper-probe {}", cell.scheme), ok, &res);
                    log.tamper.push(ns);
                    log.all.push(ns);
                }

                let salt = 1_000_000 + ((id as u64) << 32) + i as u64;
                let cold = coord(
                    "bipartite",
                    GraphFamily::Bipartite,
                    4096,
                    mix(self.seed, salt),
                );
                let body = payload("prepare", &cold, "");
                let (res, ns) = send(client, tracer, "serve.prepare", corr, &body);
                let ok = res
                    .as_ref()
                    .is_ok_and(|r| field_bool(r, "holds") == Some(true));
                log.check("cold prepare", ok, &res);
                log.nodes_prepared += res.ok().and_then(|r| field_u64(&r, "n")).unwrap_or(0);
                log.cold.push(ns);
                log.all.push(ns);
            };
            match tracer {
                None => body(&mut log, client),
                Some(tr) => tr.span("run.iteration", corr, None, || body(&mut log, client)),
            }
            log.iterations.push(t.net_ns());
            log.raw_iterations.push(t.wall_ns());
            i += 1;
        }
        log
    }

    /// Runs every client for `budget`; returns the merged log and the
    /// phase's wall time.
    fn phase(
        &mut self,
        budget: Duration,
        first_iteration: usize,
        tracer: Option<&Tracer>,
    ) -> (ClientLog, u64) {
        let started = Stopwatch::start();
        let mut clients = std::mem::take(&mut self.clients);
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let this = &*self;
            let workers: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(id, client)| {
                    s.spawn(move || this.client_loop(client, id, first_iteration, budget, tracer))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        self.clients = clients;
        let wall = started.net_ns();
        let mut merged = ClientLog::default();
        for l in logs {
            merged.merge(l);
        }
        (merged, wall)
    }

    fn record(out: &mut Outcome, log: &mut ClientLog) {
        out.attempted += log.requests;
        out.failed += log.failed;
        for p in log.problems.drain(..) {
            out.problem(p);
        }
    }

    fn shut_down(mut self, out: &mut Outcome) {
        for client in &mut self.clients {
            if let Err(e) = client.session_close() {
                out.problem(format!("session-close: {e}"));
            }
        }
        drop(self.clients);
        if let Err(e) = self.handle.stop() {
            out.problem(format!("daemon drain: {e}"));
        }
    }

    pub fn measure(mut self, args: &Args, seconds: Duration) -> Outcome {
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        let budget = if args.trace { seconds / 2 } else { seconds };
        let cpu0 = stats::cpu_ns();
        let (mut log, wall) = self.phase(budget, 0, None);
        out.cpu_ns = stats::cpu_ns() - cpu0;
        out.timed_ns = wall;
        out.op_ns = log.iterations.clone();
        out.raw_op_ns = log.raw_iterations.clone();
        Self::record(&mut out, &mut log);
        if !args.trace {
            self.shut_down(&mut out);
            return out;
        }

        let tracer = Tracer::new();
        let evictions0 = self.table.stats().evictions;
        let before = Snapshot::take();
        let (mut traced, _) = self.phase(budget, 1 << 20, Some(&tracer));
        let delta = Snapshot::take().since(&before);
        let evictions = self.table.stats().evictions - evictions0;
        Self::record(&mut out, &mut traced);
        self.shut_down(&mut out);
        let spans = tracer.take();
        let t = trace::self_times(&spans);
        crate::layers::write_trace(args, &spans);

        let pct = |v: &[u64], q| percentile(&mut stats::ms(v), q);
        let mutations = traced.mutate.len() as f64;
        let server_p50_us = delta.requests_pooled().quantile(0.5) / 1e3;
        let prepare = delta.request("prepare");
        let tamper = delta.request("tamper-probe");
        let (parses, parse_ns) = t.mean_ns("serve.parse");
        let untraced_p50 = pct(&log.iterations, 0.5);

        let mut m = crate::layers::shares(&t);
        m.extend(crate::layers::engine(
            &delta,
            traced.nodes_prepared,
            traced.views_swept,
            traced.iterations.len(),
        ));
        m.extend([
            Metric::new(
                "harness.tamper_us_per_trial",
                ratio(
                    tamper.sum as f64 / 1e3,
                    (tamper.count() * TAMPER_TRIALS as u64) as f64,
                ),
                "us",
                tamper.count() as usize,
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
                traced.mutate.len(),
            ),
            Metric::new("serve.parse_us", parse_ns / 1e3, "us", parses as usize),
            Metric::new(
                "serve.server_us_p50",
                server_p50_us,
                "us",
                delta.requests_pooled().count() as usize,
            ),
            Metric::new(
                "serve.wire_us_p50",
                pct(&traced.all, 0.5) * 1e3 - server_p50_us,
                "us",
                traced.all.len(),
            ),
            Metric::new(
                "serve.table_load_ms",
                ratio(prepare.sum as f64 / 1e6, prepare.count() as f64),
                "ms",
                prepare.count() as usize,
            ),
            Metric::new(
                "serve.table_evictions",
                evictions as f64,
                "count",
                traced.iterations.len(),
            ),
            Metric::new(
                "serve.busy_rejections",
                delta.busy_rejections as f64,
                "count",
                traced.all.len(),
            ),
            crate::layers::overhead(untraced_p50, &traced.iterations),
            Metric::new(
                "serve_rps",
                log.all.len() as f64 / (wall as f64 / 1e9),
                "1/s",
                log.all.len(),
            ),
            Metric::new(
                "mutate_ms_p50",
                pct(&log.mutate, 0.5),
                "ms",
                log.mutate.len(),
            ),
            Metric::new(
                "mutate_ms_p99",
                pct(&log.mutate, 0.99),
                "ms",
                log.mutate.len(),
            ),
            Metric::new(
                "verify_ms_p50",
                pct(&log.verify, 0.5),
                "ms",
                log.verify.len(),
            ),
            Metric::new(
                "verify_ms_p99",
                pct(&log.verify, 0.99),
                "ms",
                log.verify.len(),
            ),
            Metric::new(
                "tamper_ms_p50",
                pct(&log.tamper, 0.5),
                "ms",
                log.tamper.len(),
            ),
            Metric::new(
                "tamper_ms_p99",
                pct(&log.tamper, 0.99),
                "ms",
                log.tamper.len(),
            ),
            Metric::new(
                "cold_prepare_ms_p50",
                pct(&log.cold, 0.5),
                "ms",
                log.cold.len(),
            ),
            Metric::new(
                "cold_prepare_ms_p90",
                pct(&log.cold, 0.9),
                "ms",
                log.cold.len(),
            ),
        ]);
        out.layers = crate::layers::complete(m, &out);
        out
    }
}

// ---------------------------------------------------------------------
// serve-restart
// ---------------------------------------------------------------------

pub struct RestartState {
    dir: TempDir,
    cells: Vec<CellCoord>,
}

impl RestartState {
    /// Set-up: warm a fresh artifact directory with every cell's core
    /// through a daemon started with `preload` on it.
    pub fn set_up(seed: u64) -> RestartState {
        let dir = TempDir::new("artifacts");
        let cells = restart_cells(seed);
        let config = ServerConfig {
            preload: Some(dir.0.clone()),
            ..ServerConfig::default()
        };
        let handle = Server::bind(config)
            .expect("bind a daemon on the artifact directory")
            .spawn()
            .expect("spawn the daemon");
        let mut client = Client::connect(handle.addr()).expect("connect to the daemon");
        for c in &cells {
            let r = client.prepare(c).expect("prepare a restart cell");
            assert_eq!(
                field_bool(&r, "holds"),
                Some(true),
                "{c:?} must be a yes-cell"
            );
        }
        drop(client);
        handle.stop().expect("daemon drains");
        RestartState { dir, cells }
    }

    /// One restart: start a daemon on the warmed directory, `prepare`
    /// and `verify` every cell, stop it. Returns the views swept.
    fn restart(&self, out: &mut Outcome, tracer: Option<&Tracer>, corr: u64) -> u64 {
        let config = ServerConfig {
            preload: Some(self.dir.0.clone()),
            ..ServerConfig::default()
        };
        out.attempted += 1;
        let started = timed(tracer, "serve.bind", corr, || Server::bind(config))
            .and_then(|server| timed(tracer, "serve.spawn", corr, || server.spawn()));
        let handle = match started {
            Ok(h) => h,
            Err(e) => {
                out.failed += 1;
                out.problem(format!("restart {corr}: daemon did not start: {e}"));
                return 0;
            }
        };
        let mut ok = true;
        let mut views = 0;
        match timed(tracer, "serve.connect", corr, || {
            Client::connect(handle.addr())
        }) {
            Ok(mut client) => {
                for c in &self.cells {
                    let body = payload("prepare", c, "");
                    let (res, _) = send(&mut client, tracer, "serve.prepare", corr, &body);
                    views += res
                        .as_ref()
                        .ok()
                        .and_then(|r| field_u64(r, "n"))
                        .unwrap_or(0);
                    ok &= res.is_ok_and(|r| field_bool(&r, "holds") == Some(true));
                    let body = payload("verify", c, "");
                    let (res, _) = send(&mut client, tracer, "serve.verify", corr, &body);
                    ok &= res.is_ok_and(|r| field_bool(&r, "accepted") == Some(true));
                }
            }
            Err(_) => ok = false,
        }
        if let Err(e) = timed(tracer, "serve.stop", corr, || handle.stop()) {
            out.problem(format!("restart {corr}: daemon drain: {e}"));
            ok = false;
        }
        if !ok {
            out.failed += 1;
            out.problem(format!(
                "restart {corr}: a cell was not served as a yes-cell"
            ));
        }
        views
    }

    fn phase(
        &self,
        budget: Duration,
        out: &mut Outcome,
        tracer: Option<&Tracer>,
    ) -> (Vec<u64>, u64) {
        let started = Instant::now();
        let mut times = Vec::new();
        let mut views = 0;
        while times.len() < 2 || started.elapsed() < budget {
            let corr = times.len() as u64;
            let t = Stopwatch::start();
            views += match tracer {
                None => self.restart(out, None, corr),
                Some(tr) => tr.span("run.restart", corr, None, || {
                    self.restart(out, Some(tr), corr)
                }),
            };
            times.push(t.net_ns());
            if tracer.is_none() {
                out.raw_op_ns.push(t.wall_ns());
            }
        }
        (times, views)
    }

    pub fn measure(self, args: &Args, seconds: Duration) -> Outcome {
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        let budget = if args.trace { seconds / 2 } else { seconds };
        let (cpu0, started) = (stats::cpu_ns(), Stopwatch::start());
        let (times, _) = self.phase(budget, &mut out, None);
        out.timed_ns = started.net_ns();
        out.cpu_ns = stats::cpu_ns() - cpu0;
        out.op_ns = times.clone();
        if !args.trace {
            return out;
        }

        let tracer = Tracer::new();
        let before = Snapshot::take();
        let (traced, views) = self.phase(budget, &mut out, Some(&tracer));
        let delta = Snapshot::take().since(&before);
        let restarts = traced.len() as f64;

        // `FrozenCore::open` runs inside the daemon; open each artifact
        // here too, outside the restarts, to time it per word.
        let probe = Tracer::new();
        let mut words = 0u64;
        for (i, entry) in std::fs::read_dir(&self.dir.0)
            .into_iter()
            .flatten()
            .flatten()
            .enumerate()
        {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "lcpc") {
                continue;
            }
            let opened = probe.span("frozen.open", i as u64, None, || open_artifact(&path));
            match opened {
                Ok(w) => words += w,
                Err(e) => out.problem(format!("artifact {} does not open: {e}", path.display())),
            }
        }
        let probe_spans = probe.take();
        let spans = tracer.take();
        let t = trace::self_times(&spans);
        crate::layers::write_trace(args, &[spans, probe_spans.clone()].concat());
        let open_s = trace::self_times(&probe_spans).total_s("frozen.open");
        let prepare = delta.request("prepare");
        let ms = stats::ms;

        let mut m = crate::layers::shares(&t);
        // Cores come off disk: nothing is prepared, so no nodes.
        m.extend(crate::layers::engine(&delta, 0, views, traced.len()));
        m.extend([
            Metric::new(
                "frozen.open_ns_per_word",
                ratio(open_s * 1e9, words as f64),
                "ns",
                probe_spans.len(),
            ),
            Metric::new(
                "artifact.loads_per_restart",
                delta.artifact_loads as f64 / restarts,
                "count",
                traced.len(),
            ),
            Metric::new(
                "serve.table_load_ms",
                ratio(prepare.sum as f64 / 1e6, prepare.count() as f64),
                "ms",
                prepare.count() as usize,
            ),
            Metric::new(
                "serve.server_us_p50",
                delta.requests_pooled().quantile(0.5) / 1e3,
                "us",
                delta.requests_pooled().count() as usize,
            ),
            Metric::new(
                "serve.parse_us",
                t.mean_ns("serve.parse").1 / 1e3,
                "us",
                t.mean_ns("serve.parse").0 as usize,
            ),
            Metric::new(
                "serve.busy_rejections",
                delta.busy_rejections as f64,
                "count",
                traced.len(),
            ),
            crate::layers::overhead(percentile(&mut ms(&times), 0.5), &traced),
            Metric::new(
                "restart_ms_p50",
                percentile(&mut ms(&times), 0.5),
                "ms",
                times.len(),
            ),
            Metric::new(
                "restart_ms_p90",
                percentile(&mut ms(&times), 0.9),
                "ms",
                times.len(),
            ),
        ]);
        out.layers = crate::layers::complete(m, &out);
        out
    }
}

/// Opens an artifact with the label types its header names, returning
/// its size in words.
fn open_artifact(path: &std::path::Path) -> Result<u64, String> {
    fn open<N: PortableLabel, E: PortableLabel>(path: &std::path::Path) -> Result<u64, String> {
        FrozenCore::<N, E>::open(path, None)
            .map(|_| std::fs::metadata(path).map_or(0, |m| m.len() / 8))
            .map_err(|e| e.to_string())
    }
    let mut header = [0u8; 80];
    std::fs::File::open(path)
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut header))
        .map_err(|e| e.to_string())?;
    let word = |i: usize| u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    match (word(8), word(9)) {
        (1, 1) => open::<(), ()>(path),
        (2, 1) => open::<bool, ()>(path),
        (3, 1) => open::<u8, ()>(path),
        (4, 1) => open::<u32, ()>(path),
        (5, 1) => open::<u64, ()>(path),
        (6, 1) => open::<usize, ()>(path),
        (1, 2) => open::<(), bool>(path),
        (100, 101) => open::<StMark, ArcDir>(path),
        tags => Err(format!("no label types known for tags {tags:?}")),
    }
}

/// Runs `f`, inside a span when tracing.
fn timed<R>(tracer: Option<&Tracer>, name: &'static str, corr: u64, f: impl FnOnce() -> R) -> R {
    match tracer {
        None => f(),
        Some(tr) => tr.span(name, corr, None, f),
    }
}
