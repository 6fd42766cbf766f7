//! `ip-serve`: a long-running pool-controller daemon.
//!
//! The daemon has two halves:
//!
//! 1. A **controller event loop** on its own thread. It replays a workload
//!    trace against the platform simulator at wall-clock (or
//!    `speedup`-accelerated) logical time, periodically re-running the
//!    recommendation pipeline with the §6 autotuned `α'`, enforcing the
//!    §7.5 guardrails (prediction-accuracy gate, stale-recommendation TTL
//!    with fallback to the default config), sweeping the §7.6 Arbitrator
//!    worker lease, and refreshing a live dashboard snapshot + alert set
//!    each tick.
//! 2. A **hand-rolled HTTP/1.1 control plane** over `std::net` (no async
//!    runtime): a non-blocking accept loop round-robining persistent
//!    (keep-alive) connections across per-worker queues. Each worker owns
//!    a queue shard; siblings steal from it when theirs is empty, so
//!    handoff never contends on one lock. Idle keep-alive connections are
//!    parked back on the queue instead of pinning a worker thread.
//!    `POST /requests` accepts a JSON **array** body that is validated
//!    entry-by-entry lock-free and then applied under a single controller
//!    lock acquisition ([`Controller::inject_batch`]).
//!
//! | Endpoint          | Method | Purpose                                     |
//! |-------------------|--------|---------------------------------------------|
//! | `/metrics`        | GET    | Prometheus text exposition (`ip-obs`)       |
//! | `/healthz`        | GET    | liveness — 200 while the process runs       |
//! | `/readyz`         | GET    | readiness — 200 once the controller started |
//! | `/status`         | GET    | JSON dashboard snapshot + active alerts     |
//! | `/pools`          | GET    | the fleet: per-pool specs and progress      |
//! | `/fleet`          | GET    | fleet economics: borrows, COGS roll-ups     |
//! | `/slo`            | GET    | per-pool SLO burn rates (PR 8, §7.5)        |
//! | `/debug/requests` | GET    | recent slow requests, phase-timed           |
//! | `/debug/flight`   | GET    | the flight recorder (`ip-flight/1` JSON)    |
//! | `/requests`       | POST   | inject arrivals into a pool's live replay   |
//! | `/reload`         | POST   | swap a pool's recommendation model / `α'`   |
//! | `/shutdown`       | POST   | graceful drain and exit                     |
//!
//! The daemon controls a **fleet**: N first-class pools, each with its own
//! demand trace, simulator config, recommendation pipeline, and α′ loop,
//! advanced in one merged logical-time event order
//! ([`ip_sim::FleetSim`]). A single-pool daemon is a fleet of one
//! anonymous pool, whose metric series carry no `pool` label. On a fleet,
//! `POST /requests` and `POST /reload` name their pool in the body and
//! `/metrics` series carry a `pool` label.
//!
//! Because every state mutation and RNG draw happens inside the
//! incrementally-steppable simulators in event order — never in pacing
//! order — the daemon's recommendations are **bit-identical** to offline
//! [`ip_sim::Simulation`] runs over the same effective traces, no
//! matter how the wall clock slices the ticks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ip_core::{evaluate_alerts, merge_snapshots, AlertRule, CostModel, Dashboard};
use ip_obs::export::render_prometheus;
use ip_sim::SimReport;
use ip_timeseries::TimeSeries;
use serde::Content;

mod controller;
pub mod http;

pub use controller::{build_provider, ControlError, Controller, PoolServeConfig};
use http::{Connection, ReadOutcome, Request, Response};

/// How long a worker sits on a quiet keep-alive connection per
/// `read_next` call before re-checking the daemon phase and its queue —
/// short slices keep drain responsive and let idle connections yield the
/// worker to queued work.
const IDLE_SLICE: Duration = Duration::from_millis(50);

/// Daemon lifecycle phase, stored in an [`AtomicU8`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// Threads are being spawned.
    Starting = 0,
    /// The controller is replaying the trace.
    Running = 1,
    /// The trace has been fully processed; the control plane stays up.
    Completed = 2,
    /// `/shutdown` received: draining connections, threads exiting.
    Draining = 3,
    /// All threads joined.
    Stopped = 4,
}

impl Phase {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Phase::Starting,
            1 => Phase::Running,
            2 => Phase::Completed,
            3 => Phase::Draining,
            _ => Phase::Stopped,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Phase::Starting => "starting",
            Phase::Running => "running",
            Phase::Completed => "completed",
            Phase::Draining => "draining",
            Phase::Stopped => "stopped",
        }
    }
}

/// Configuration for [`Daemon::start`]: the fleet of pools plus the
/// daemon-wide settings. A single-pool daemon is a fleet of one —
/// [`ServeConfig::new`] builds it with an anonymous pool, whose metric
/// series carry no `pool` label.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The fleet: one entry per pool, in registration order. Must not be
    /// empty.
    pub pools: Vec<PoolServeConfig>,
    /// Cross-pool compatibility matrix (PR 10): which pools may hand warm
    /// clusters to which on a miss. `None` (or an empty matrix) keeps
    /// every pool fully isolated — bit-identical to the pre-borrowing
    /// daemon.
    pub matrix: Option<ip_sim::CompatibilityMatrix>,
    /// Logical seconds advanced per wall-clock second. `1.0` is real time.
    pub speedup: f64,
    /// TCP port to bind on 127.0.0.1 (`0` picks an ephemeral port).
    pub port: u16,
    /// Alert rules evaluated against each tick's merged snapshot.
    pub alert_rules: Vec<AlertRule>,
    /// HTTP worker threads (each owns one queue shard). `0` sizes
    /// automatically from `IP_THREADS`/the host, clamped to 2–4.
    pub workers: usize,
    /// Allow persistent connections. `false` forces `Connection: close`
    /// on every response (the pre-PR-7 transport; kept as the bench
    /// baseline and an operational escape hatch).
    pub keep_alive: bool,
    /// SLO objectives every pool is evaluated against (PR 8): hit-rate
    /// and wait targets, window lengths, and burn-rate thresholds.
    pub slo: ip_obs::SloSpec,
    /// Write the flight-recorder dump (`ip-flight/1` JSON) to this path
    /// when the daemon drains.
    pub flight_out: Option<String>,
    /// A request whose total service time (queue wait + parse + handle +
    /// write) is at least this many microseconds lands in the bounded
    /// slow-request ring served at `GET /debug/requests`. `0` records
    /// every request (tests); `u64::MAX` effectively disables the ring.
    pub slow_request_micros: u64,
}

impl ServeConfig {
    /// A one-pool daemon over `demand`: one anonymous static pool
    /// ([`PoolServeConfig::new`]) and sensible defaults elsewhere.
    pub fn new(demand: TimeSeries) -> Self {
        Self::with_pools(vec![PoolServeConfig::new(demand)])
    }

    /// A fleet config over explicit per-pool entries. Errors on an empty
    /// fleet.
    pub fn fleet(pools: Vec<PoolServeConfig>) -> Result<Self, String> {
        if pools.is_empty() {
            return Err("fleet has no pools".to_string());
        }
        Ok(Self::with_pools(pools))
    }

    fn with_pools(pools: Vec<PoolServeConfig>) -> Self {
        Self {
            pools,
            matrix: None,
            speedup: 1.0,
            port: 0,
            alert_rules: default_alert_rules(),
            workers: 0,
            keep_alive: true,
            slo: ip_obs::SloSpec::default(),
            flight_out: None,
            slow_request_micros: 1_000,
        }
    }
}

/// The §7.5 production alert set: hit rate below 50 %, more than half of
/// IP runs failing, and any Arbitrator worker replacement.
pub fn default_alert_rules() -> Vec<AlertRule> {
    vec![
        AlertRule::HitRateBelow(50.0),
        AlertRule::PipelineFailureRateAbove(0.5),
        AlertRule::WorkerReplaced,
    ]
}

/// Result of a full daemon run, returned by [`Daemon::join`].
#[derive(Debug)]
pub struct ServeOutcome {
    /// Every pool's finalized report, in registration order (bit-identical
    /// to offline runs over each pool's effective trace).
    pub pool_reports: Vec<(String, SimReport)>,
    /// Requests injected over HTTP during the run, fleet-wide.
    pub injected: u64,
    /// Provider reloads served, fleet-wide.
    pub reloads: u64,
    /// Controller lease lapses observed by the Arbitrator heartbeat.
    pub lapsed_leases: u64,
}

/// A connection waiting for (or parked between) requests, plus the
/// wall-clock moment it stops being worth keeping open.
struct PendingConn {
    conn: Connection,
    idle_deadline: Instant,
    /// Request-scoped trace id, minted at accept time (PR 8). Every
    /// request served off this connection carries it through the worker
    /// shard into the slow-request ring and log records.
    trace_id: u64,
    /// When the connection was last pushed onto a shard queue; the first
    /// request served after a dequeue reports `now - enqueued` as its
    /// queue-wait phase.
    enqueued: Instant,
}

/// One worker's slice of the connection queue. The accept loop
/// round-robins new connections across shards and each worker drains its
/// own shard first, so handoff of concurrent connections never meets on a
/// single lock; stealing from sibling shards keeps a burst on one shard
/// from idling the other workers.
#[derive(Default)]
struct Shard {
    queue: Mutex<VecDeque<PendingConn>>,
    available: Condvar,
    /// Connections this shard's worker has stolen from siblings (PR 8
    /// observability; published as `ip_serve_worker_steals_total`).
    steals: AtomicU64,
    /// Idle keep-alive connections parked back on this shard's queue
    /// (published as `ip_serve_worker_idle_requeues_total`).
    requeues: AtomicU64,
}

/// One entry of the bounded slow-request ring (`GET /debug/requests`).
struct SlowRequest {
    trace_id: u64,
    method: String,
    path: String,
    status: u16,
    queue_us: u64,
    parse_us: u64,
    handle_us: u64,
    write_us: u64,
    total_us: u64,
    body_bytes: u64,
}

impl SlowRequest {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("trace_id".to_string(), Content::U64(self.trace_id)),
            ("method".to_string(), Content::Str(self.method.clone())),
            ("path".to_string(), Content::Str(self.path.clone())),
            ("status".to_string(), Content::U64(u64::from(self.status))),
            ("queue_us".to_string(), Content::U64(self.queue_us)),
            ("parse_us".to_string(), Content::U64(self.parse_us)),
            ("handle_us".to_string(), Content::U64(self.handle_us)),
            ("write_us".to_string(), Content::U64(self.write_us)),
            ("total_us".to_string(), Content::U64(self.total_us)),
            ("body_bytes".to_string(), Content::U64(self.body_bytes)),
        ])
    }
}

/// Retained slow requests.
const SLOW_RING_CAP: usize = 128;

/// State shared by the controller, accept, and worker threads.
struct Inner {
    phase: AtomicU8,
    ctl: Mutex<Controller>,
    shards: Vec<Shard>,
    keep_alive: bool,
    alert_rules: Vec<AlertRule>,
    speedup: f64,
    interval_secs: u64,
    /// Monotonic trace-id source (PR 8); `fetch_add` at accept time.
    next_trace_id: AtomicU64,
    /// Currently open control-plane connections (accepted, not yet
    /// closed; parked idle connections count as open).
    open_conns: AtomicI64,
    /// Bounded ring of recent slow requests, newest at the back.
    slow_ring: Mutex<VecDeque<SlowRequest>>,
    /// Threshold for the ring, in microseconds of total service time.
    slow_request_micros: u64,
    /// Where to write the flight dump on drain, if anywhere.
    flight_out: Option<String>,
}

impl Inner {
    fn phase(&self) -> Phase {
        Phase::from_u8(self.phase.load(Ordering::Acquire))
    }

    fn transition(&self, from: Phase, to: Phase) -> bool {
        self.phase
            .compare_exchange(from as u8, to as u8, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn begin_drain(&self) {
        // Whatever phase we are in (Running or Completed), move to
        // Draining; never move backwards out of Draining/Stopped.
        loop {
            let cur = self.phase();
            if cur >= Phase::Draining {
                return;
            }
            if self.transition(cur, Phase::Draining) {
                // t=0: the drain request arrives off the logical clock;
                // the controller's final notes carry the real watermark.
                ip_obs::flight::note(0, "drain", "drain requested");
                self.wake_all_workers();
                return;
            }
        }
    }

    fn wake_all_workers(&self) {
        for shard in &self.shards {
            shard.available.notify_all();
        }
    }
}

/// A running daemon: bound listener plus its thread handles.
pub struct Daemon {
    inner: Arc<Inner>,
    addr: std::net::SocketAddr,
    controller: JoinHandle<()>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the control plane, spawns the controller/accept/worker
    /// threads, and transitions to [`Phase::Running`].
    pub fn start(config: ServeConfig) -> Result<Self, String> {
        let ServeConfig {
            pools,
            matrix,
            speedup,
            port,
            alert_rules,
            workers: worker_config,
            keep_alive,
            slo,
            flight_out,
            slow_request_micros,
        } = config;
        if !(speedup.is_finite() && speedup > 0.0) {
            return Err(format!(
                "--speedup must be a positive number, got {speedup}"
            ));
        }
        describe_serve_metrics();
        // The controller ticks at the granularity of the fastest pool.
        let interval_secs = pools
            .iter()
            .map(|p| p.demand.interval_secs().max(1))
            .min()
            .unwrap_or(1);
        // The controller heartbeat runs on the wall clock but the lease is
        // measured in logical seconds, so scale the Arbitrator's lease by
        // the speedup to keep its wall-clock horizon constant. A fleet
        // takes the longest lease across pools.
        let lease_secs = pools
            .iter()
            .map(|p| ((p.sim.arbitrator.lease_secs as f64 * speedup).ceil() as u64).max(1))
            .max()
            .unwrap_or(1);
        let mut ctl = Controller::with_matrix(pools, lease_secs, matrix)?;
        ctl.set_slo_spec(slo);

        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;

        let worker_count = match worker_config {
            0 => ip_par::num_threads().clamp(2, 4),
            n => n.min(64),
        };
        let inner = Arc::new(Inner {
            phase: AtomicU8::new(Phase::Starting as u8),
            ctl: Mutex::new(ctl),
            shards: (0..worker_count).map(|_| Shard::default()).collect(),
            keep_alive,
            alert_rules,
            speedup,
            interval_secs,
            next_trace_id: AtomicU64::new(1),
            open_conns: AtomicI64::new(0),
            slow_ring: Mutex::new(VecDeque::new()),
            slow_request_micros,
            flight_out,
        });

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ip-serve-http-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .map_err(|e| format!("spawn worker: {e}"))?,
            );
        }
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ip-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &inner))
                .map_err(|e| format!("spawn acceptor: {e}"))?
        };
        let controller = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ip-serve-controller".to_string())
                .spawn(move || controller_loop(&inner))
                .map_err(|e| format!("spawn controller: {e}"))?
        };
        inner.transition(Phase::Starting, Phase::Running);
        ip_obs::log::info(
            "serve.daemon",
            &format!("listening on http://{addr}"),
            &[("workers", worker_count as f64)],
        );
        Ok(Self {
            inner,
            addr,
            controller,
            acceptor,
            workers,
        })
    }

    /// The bound control-plane address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Initiates a graceful drain, exactly as `POST /shutdown` would.
    pub fn request_shutdown(&self) {
        self.inner.begin_drain();
    }

    /// Blocks until the daemon drains (a `/shutdown` arrives or
    /// [`Daemon::request_shutdown`] is called), then joins every thread
    /// and returns the run's outcome.
    pub fn join(self) -> ServeOutcome {
        let Daemon {
            inner,
            addr: _,
            controller,
            acceptor,
            workers,
        } = self;
        // The acceptor only exits on drain; it is the natural "daemon is
        // done" signal.
        let _ = acceptor.join();
        inner.wake_all_workers();
        for w in workers {
            let _ = w.join();
        }
        let _ = controller.join();
        let mut ctl = inner.ctl.lock().expect("controller poisoned");
        ctl.finalize();
        ctl.feed_slo();
        ip_obs::flight::note(
            ctl.watermark(),
            "shutdown",
            "daemon drained; threads joined",
        );
        ip_obs::log::info(
            "serve.daemon",
            "drained; threads joined",
            &[("injected", ctl.injected() as f64)],
        );
        if let Some(path) = &inner.flight_out {
            let dump = ip_obs::flight::dump_with(&flight_sections(&ctl, &inner));
            if let Err(e) = std::fs::write(path, dump) {
                ip_obs::log::error(
                    "serve.flight",
                    &format!("failed to write flight dump to {path}: {e}"),
                    &[],
                );
            }
        }
        let pool_reports = ctl
            .take_reports()
            .into_iter()
            .map(|(id, r)| (id.as_str().to_string(), r))
            .collect();
        let outcome = ServeOutcome {
            pool_reports,
            injected: ctl.injected(),
            reloads: ctl.reloads(),
            lapsed_leases: ctl.lapsed_leases(),
        };
        drop(ctl);
        inner.phase.store(Phase::Stopped as u8, Ordering::Release);
        outcome
    }
}

/// HELP text for the daemon's metric families (rendered on `/metrics`).
fn describe_serve_metrics() {
    ip_obs::describe(
        "ip_serve_ticks_total",
        "Controller event-loop ticks executed.",
    );
    ip_obs::describe(
        "ip_serve_http_requests_total",
        "Control-plane HTTP requests, by path and method.",
    );
    ip_obs::describe(
        "ip_serve_injected_requests_total",
        "Arrivals injected into the live replay via POST /requests.",
    );
    ip_obs::describe(
        "ip_serve_reloads_total",
        "Recommendation-provider reloads served via POST /reload.",
    );
    ip_obs::describe(
        "ip_serve_request_seconds",
        "Control-plane request service time (queue+parse+handle+write), by endpoint, method, and status.",
    );
    ip_obs::describe(
        "ip_serve_request_phase_seconds",
        "Control-plane request time split by phase (queue, parse, handle, write).",
    );
    ip_obs::describe(
        "ip_serve_response_bytes",
        "Control-plane response body sizes, by endpoint.",
    );
    ip_obs::describe(
        "ip_serve_worker_queue_depth",
        "Pending connections per worker shard, sampled each controller tick.",
    );
    ip_obs::describe(
        "ip_serve_worker_steals_total",
        "Connections a worker stole from sibling shards.",
    );
    ip_obs::describe(
        "ip_serve_worker_idle_requeues_total",
        "Idle keep-alive connections parked back on a shard queue.",
    );
    ip_obs::describe(
        "ip_serve_open_connections",
        "Currently open control-plane connections (parked idle ones included).",
    );
}

/// Histogram bounds for request/phase latencies, in seconds: 100 µs up to
/// 2.5 s, roughly ×2.5 per step.
const LATENCY_BUCKETS: [f64; 12] = [
    0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 2.5,
];

/// Histogram bounds for response body sizes, in bytes.
const BODY_BUCKETS: [f64; 8] = [
    64.0,
    256.0,
    1_024.0,
    4_096.0,
    16_384.0,
    65_536.0,
    262_144.0,
    1_048_576.0,
];

/// Collapses a request path onto the daemon's known endpoints, so metric
/// label cardinality is bounded no matter what clients send.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/status" => "/status",
        "/pools" => "/pools",
        "/fleet" => "/fleet",
        "/slo" => "/slo",
        "/debug/requests" => "/debug/requests",
        "/debug/flight" => "/debug/flight",
        "/requests" => "/requests",
        "/reload" => "/reload",
        "/shutdown" => "/shutdown",
        _ => "other",
    }
}

/// Collapses a request method the same way (clients control the string).
fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        _ => "other",
    }
}

/// Status code as a static label (the daemon emits a closed set).
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        409 => "409",
        413 => "413",
        500 => "500",
        503 => "503",
        _ => "other",
    }
}

/// How long the controller sleeps between ticks: one demand interval of
/// logical time, converted to wall clock and clamped to 5–200 ms so a
/// huge `--speedup` still yields a responsive loop and a real-time run
/// still ticks several times per interval.
fn tick_duration(interval_secs: u64, speedup: f64) -> Duration {
    let millis = (interval_secs as f64 * 1_000.0 / speedup).clamp(5.0, 200.0);
    Duration::from_millis(millis as u64)
}

fn controller_loop(inner: &Inner) {
    let dashboard = Dashboard::new(CostModel::default());
    let pool_count = inner.ctl.lock().expect("controller poisoned").pool_count();
    // One dashboard stream per pool: each pool's snapshot integrates only
    // its own interval stats, exactly as a dedicated single-pool daemon
    // would compute it.
    let mut streams: Vec<_> = (0..pool_count).map(|_| dashboard.stream()).collect();
    let mut fed = vec![0usize; pool_count];
    // Delta watermarks for the always-incremented shard atomics, so the
    // obs counters see exactly the increments since the last tick.
    let mut published_steals = vec![0u64; inner.shards.len()];
    let mut published_requeues = vec![0u64; inner.shards.len()];
    // Severity transitions (Ok <-> Warning/Page) land as flight notes;
    // this remembers the last severity to note only the edges.
    let mut last_severity = vec![ip_obs::Severity::Ok; pool_count];
    // Chaos-plane faults land as flight notes exactly once; this
    // remembers how many of each pool's records were already noted.
    let mut noted_faults = vec![0usize; pool_count];
    let started = Instant::now();
    let tick = tick_duration(inner.interval_secs, inner.speedup);
    loop {
        let logical = (started.elapsed().as_secs_f64() * inner.speedup) as u64;
        let done = {
            let mut ctl = inner.ctl.lock().expect("controller poisoned");
            let _span = ip_obs::span("serve.tick");
            ctl.step_to(logical);
            if ctl.is_done() {
                // Every last interval is in and injects are refused: run
                // out the events before the trace end so the final reports
                // do not depend on where the wall clock stopped.
                ctl.step_to(u64::MAX);
            }
            for i in 0..pool_count {
                {
                    let stats = ctl.interval_stats_of(i);
                    for stat in &stats[fed[i]..] {
                        streams[i].observe(stat);
                    }
                    fed[i] = stats.len();
                }
                ctl.snapshots[i] = streams[i].snapshot();
            }
            ctl.feed_slo();
            let mut alerts = evaluate_alerts(&merge_snapshots(&ctl.snapshots), &inner.alert_rules);
            alerts.extend(ctl.slo_alerts());
            ctl.alerts = alerts;
            let now = ctl.watermark().max(logical);
            ctl.tick_lease(now);
            record_tick_flight(inner, &ctl, now, &mut last_severity, &mut noted_faults);
            ip_obs::counter_inc("ip_serve_ticks_total", &[]);
            ctl.is_done()
        };
        publish_worker_metrics(inner, &mut published_steals, &mut published_requeues);
        if done || inner.phase() >= Phase::Draining {
            break;
        }
        std::thread::sleep(tick);
    }
    // Close the integrals: the finalized reports recompute the snapshots
    // so `/status` after completion matches `Dashboard::snapshot` on the
    // full per-pool reports exactly.
    let mut ctl = inner.ctl.lock().expect("controller poisoned");
    ctl.finalize();
    ctl.feed_slo();
    let mut alerts = evaluate_alerts(&merge_snapshots(&ctl.snapshots), &inner.alert_rules);
    alerts.extend(ctl.slo_alerts());
    ctl.alerts = alerts;
    ip_obs::flight::note(ctl.watermark(), "completed", "trace fully processed");
    drop(ctl);
    // Running → Completed; if a drain already started, leave it be.
    inner.transition(Phase::Running, Phase::Completed);
}

/// Appends one controller tick to the flight recorder: a compact numeric
/// snapshot plus notes on SLO severity *transitions* (edges, not levels,
/// so a long incident is one note, not a note per tick) and on every
/// fault the chaos plane injected since the previous tick (each fault is
/// noted exactly once).
fn record_tick_flight(
    inner: &Inner,
    ctl: &Controller,
    now: u64,
    last_severity: &mut [ip_obs::Severity],
    noted_faults: &mut [usize],
) {
    let queue_depth: usize = inner
        .shards
        .iter()
        .map(|s| s.queue.lock().expect("shard poisoned").len())
        .sum();
    ip_obs::flight::record_snapshot(
        now,
        &[
            ("intervals_processed", ctl.processed_intervals() as f64),
            ("injected_requests", ctl.injected() as f64),
            ("alerts", ctl.alerts.len() as f64),
            (
                "open_connections",
                inner.open_conns.load(Ordering::Relaxed) as f64,
            ),
            ("queue_depth", queue_depth as f64),
        ],
    );
    for (i, last) in last_severity.iter_mut().enumerate() {
        let severity = ctl.slo_status_of(i).severity;
        if severity != *last {
            ip_obs::flight::note(
                now,
                "slo_severity",
                &format!(
                    "pool {:?}: {} -> {}",
                    ctl.pool_names()[i],
                    last.as_str(),
                    severity.as_str()
                ),
            );
            *last = severity;
        }
    }
    for (i, noted) in noted_faults.iter_mut().enumerate() {
        let records = ctl.fault_records_of(i);
        for r in &records[*noted..] {
            ip_obs::flight::note(
                now,
                "fault",
                &format!("pool {:?}: {} at t={}s ({})", r.pool, r.kind, r.t, r.detail),
            );
        }
        *noted = records.len();
    }
}

/// Publishes the sharded-worker internals as metrics (PR 8 satellite):
/// per-shard queue-depth gauges and steal/idle-requeue counter deltas,
/// plus the open-connection gauge. The shard atomics are always
/// incremented (relaxed, uncontended); this converts them to registry
/// series once per tick, so the per-request hot path never touches the
/// registry for them.
fn publish_worker_metrics(
    inner: &Inner,
    published_steals: &mut [u64],
    published_requeues: &mut [u64],
) {
    if !ip_obs::enabled() {
        return;
    }
    for (i, shard) in inner.shards.iter().enumerate() {
        let label = i.to_string();
        let labels = [("shard", label.as_str())];
        let depth = shard.queue.lock().expect("shard poisoned").len();
        ip_obs::gauge_set("ip_serve_worker_queue_depth", &labels, depth as f64);
        let steals = shard.steals.load(Ordering::Relaxed);
        ip_obs::counter_add(
            "ip_serve_worker_steals_total",
            &labels,
            (steals - published_steals[i]) as f64,
        );
        published_steals[i] = steals;
        let requeues = shard.requeues.load(Ordering::Relaxed);
        ip_obs::counter_add(
            "ip_serve_worker_idle_requeues_total",
            &labels,
            (requeues - published_requeues[i]) as f64,
        );
        published_requeues[i] = requeues;
    }
    ip_obs::gauge_set(
        "ip_serve_open_connections",
        &[],
        inner.open_conns.load(Ordering::Relaxed) as f64,
    );
}

fn accept_loop(listener: &TcpListener, inner: &Inner) {
    // Round-robin handoff: each accepted connection goes to the next
    // shard, so concurrent accepts never pile onto one queue lock.
    let mut next = 0usize;
    loop {
        if inner.phase() >= Phase::Draining {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shard = &inner.shards[next % inner.shards.len()];
                next = next.wrapping_add(1);
                let now = Instant::now();
                let pending = PendingConn {
                    conn: Connection::new(stream),
                    idle_deadline: now + http::IDLE_TIMEOUT,
                    trace_id: inner.next_trace_id.fetch_add(1, Ordering::Relaxed),
                    enqueued: now,
                };
                inner.open_conns.fetch_add(1, Ordering::Relaxed);
                let mut queue = shard.queue.lock().expect("shard poisoned");
                queue.push_back(pending);
                drop(queue);
                shard.available.notify_one();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                ip_obs::log::warn("serve.accept", &format!("accept failed: {e}"), &[]);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    inner.wake_all_workers();
}

/// Pops the next pending connection for worker `me`: own shard first,
/// then steal from siblings, then park on the own shard's condvar.
/// `None` once the daemon drains.
fn next_conn(inner: &Inner, me: usize) -> Option<PendingConn> {
    let n = inner.shards.len();
    loop {
        {
            let mut queue = inner.shards[me].queue.lock().expect("shard poisoned");
            if let Some(pending) = queue.pop_front() {
                return Some(pending);
            }
        }
        for k in 1..n {
            let mut queue = inner.shards[(me + k) % n]
                .queue
                .lock()
                .expect("shard poisoned");
            if let Some(pending) = queue.pop_front() {
                drop(queue);
                inner.shards[me].steals.fetch_add(1, Ordering::Relaxed);
                return Some(pending);
            }
        }
        if inner.phase() >= Phase::Draining {
            return None;
        }
        let queue = inner.shards[me].queue.lock().expect("shard poisoned");
        let (mut queue, _) = inner.shards[me]
            .available
            .wait_timeout(queue, Duration::from_millis(50))
            .expect("shard poisoned");
        if let Some(pending) = queue.pop_front() {
            return Some(pending);
        }
    }
}

fn worker_loop(inner: &Inner, me: usize) {
    while let Some(pending) = next_conn(inner, me) {
        if !serve_connection(inner, me, pending) {
            inner.open_conns.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Serves requests off one connection until it closes, errors, exhausts
/// its idle deadline, or yields the worker (an idle connection is parked
/// back on the shard whenever other connections are waiting, so a quiet
/// keep-alive client never pins a worker thread). Returns `true` when the
/// connection was parked back on a queue (still open), `false` when it
/// closed.
fn serve_connection(inner: &Inner, me: usize, mut pending: PendingConn) -> bool {
    // Queue wait applies to the first request served after this dequeue;
    // later requests on the held connection never sat on a queue.
    let mut dequeued = Some(Instant::now());
    loop {
        if inner.phase() >= Phase::Draining {
            return false;
        }
        match pending.conn.read_next(IDLE_SLICE) {
            Ok(ReadOutcome::Request(request)) => {
                let obs = ip_obs::enabled();
                let queue_wait = dequeued.take().map_or(Duration::ZERO, |at| {
                    at.saturating_duration_since(pending.enqueued)
                });
                let served_at = Instant::now();
                let keep = request.keep_alive && inner.keep_alive;
                let endpoint = endpoint_label(&request.path);
                let method = method_label(&request.method);
                let (response, handle_dur) = {
                    // The request span stays open across the phase records
                    // below, so they parent under it in the trace tree.
                    let _req = ip_obs::span("http.request");
                    if obs {
                        ip_obs::counter_inc(
                            "ip_serve_http_requests_total",
                            &[("path", endpoint), ("method", method)],
                        );
                        if !queue_wait.is_zero() {
                            ip_obs::span_timed(
                                "http.queue_wait",
                                served_at.checked_sub(queue_wait).unwrap_or(served_at),
                                queue_wait,
                            );
                        }
                        if request.parse_nanos > 0 {
                            let parse = Duration::from_nanos(request.parse_nanos);
                            ip_obs::span_timed(
                                "http.parse",
                                served_at.checked_sub(parse).unwrap_or(served_at),
                                parse,
                            );
                        }
                    }
                    let handle_start = Instant::now();
                    let response = {
                        let _handle = ip_obs::span("http.handle");
                        route(inner, &request)
                    };
                    (response, handle_start.elapsed())
                };
                let write_start = Instant::now();
                let write_ok = pending.conn.respond(&response, keep).is_ok();
                let write_dur = write_start.elapsed();
                if obs {
                    ip_obs::span_timed("http.write", write_start, write_dur);
                    let status = status_label(response.status);
                    let parse = Duration::from_nanos(request.parse_nanos);
                    let total = queue_wait + parse + handle_dur + write_dur;
                    ip_obs::observe_with(
                        "ip_serve_request_seconds",
                        &[("path", endpoint), ("method", method), ("status", status)],
                        &LATENCY_BUCKETS,
                        total.as_secs_f64(),
                    );
                    ip_obs::observe_with(
                        "ip_serve_request_phase_seconds",
                        &[("phase", "queue")],
                        &LATENCY_BUCKETS,
                        queue_wait.as_secs_f64(),
                    );
                    ip_obs::observe_with(
                        "ip_serve_request_phase_seconds",
                        &[("phase", "parse")],
                        &LATENCY_BUCKETS,
                        parse.as_secs_f64(),
                    );
                    ip_obs::observe_with(
                        "ip_serve_request_phase_seconds",
                        &[("phase", "handle")],
                        &LATENCY_BUCKETS,
                        handle_dur.as_secs_f64(),
                    );
                    ip_obs::observe_with(
                        "ip_serve_request_phase_seconds",
                        &[("phase", "write")],
                        &LATENCY_BUCKETS,
                        write_dur.as_secs_f64(),
                    );
                    ip_obs::observe_with(
                        "ip_serve_response_bytes",
                        &[("path", endpoint)],
                        &BODY_BUCKETS,
                        response.body.len() as f64,
                    );
                }
                record_slow_request(
                    inner,
                    &pending,
                    &request,
                    &response,
                    SlowPhases {
                        queue: queue_wait,
                        parse: Duration::from_nanos(request.parse_nanos),
                        handle: handle_dur,
                        write: write_dur,
                    },
                );
                if !write_ok {
                    ip_obs::log::warn(
                        "serve.http",
                        &format!(
                            "write failed on {} {} (client gone?)",
                            request.method, request.path
                        ),
                        &[("trace_id", pending.trace_id as f64)],
                    );
                    return false;
                }
                if !keep {
                    return false;
                }
                pending.idle_deadline = Instant::now() + http::IDLE_TIMEOUT;
            }
            Ok(ReadOutcome::IdleClosed) => {
                if Instant::now() >= pending.idle_deadline {
                    return false; // idle timeout: close quietly, not an error
                }
                // If other connections wait on this worker's shard, park
                // the idle one at the back instead of burning the slot.
                let mut queue = inner.shards[me].queue.lock().expect("shard poisoned");
                if !queue.is_empty() {
                    pending.enqueued = Instant::now();
                    queue.push_back(pending);
                    drop(queue);
                    inner.shards[me].requeues.fetch_add(1, Ordering::Relaxed);
                    inner.shards[me].available.notify_one();
                    return true;
                }
            }
            Ok(ReadOutcome::Eof) => return false,
            Err(e) => {
                ip_obs::log::warn(
                    "serve.http",
                    &format!("bad request ({}): {e}", e.status()),
                    &[("trace_id", pending.trace_id as f64)],
                );
                let _ = pending
                    .conn
                    .respond(&Response::json_error(e.status(), &e.to_string()), false);
                return false;
            }
        }
    }
}

/// The four timed phases of one served request.
struct SlowPhases {
    queue: Duration,
    parse: Duration,
    handle: Duration,
    write: Duration,
}

/// Pushes the request onto the slow ring when its total service time
/// clears the configured threshold. Always on (like the flight recorder):
/// the ring is bounded and only touched for requests already slow enough
/// to have paid orders of magnitude more than this lock.
fn record_slow_request(
    inner: &Inner,
    pending: &PendingConn,
    request: &Request,
    response: &Response,
    phases: SlowPhases,
) {
    let total = phases.queue + phases.parse + phases.handle + phases.write;
    let total_us = total.as_micros() as u64;
    if total_us < inner.slow_request_micros {
        return;
    }
    let entry = SlowRequest {
        trace_id: pending.trace_id,
        method: request.method.clone(),
        path: request.path.clone(),
        status: response.status,
        queue_us: phases.queue.as_micros() as u64,
        parse_us: phases.parse.as_micros() as u64,
        handle_us: phases.handle.as_micros() as u64,
        write_us: phases.write.as_micros() as u64,
        total_us,
        body_bytes: response.body.len() as u64,
    };
    let mut ring = inner.slow_ring.lock().expect("slow ring poisoned");
    if ring.len() >= SLOW_RING_CAP {
        ring.pop_front();
    }
    ring.push_back(entry);
}

/// Dispatches one request against the controller.
fn route(inner: &Inner, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => Response::prometheus(render_prometheus(ip_obs::global())),
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => match inner.phase() {
            Phase::Running | Phase::Completed => Response::text(200, "ready\n"),
            phase => Response::text(503, format!("{}\n", phase.as_str())),
        },
        ("GET", "/status") => {
            // Build the document under the lock, serialize outside it so a
            // big status body never stalls POST /requests.
            let doc = {
                let ctl = inner.ctl.lock().expect("controller poisoned");
                ctl.status_doc(inner.phase().as_str())
            };
            match serde_json::to_string(&doc) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::json_error(500, &format!("status document: {e:?}")),
            }
        }
        ("GET", "/pools") => {
            let doc = {
                let ctl = inner.ctl.lock().expect("controller poisoned");
                ctl.pools_doc()
            };
            match serde_json::to_string(&doc) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::json_error(500, &format!("pools document: {e:?}")),
            }
        }
        ("GET", "/fleet") => {
            let doc = {
                let ctl = inner.ctl.lock().expect("controller poisoned");
                ctl.fleet_doc()
            };
            match serde_json::to_string(&doc) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::json_error(500, &format!("fleet document: {e:?}")),
            }
        }
        ("GET", "/slo") => {
            let doc = {
                let ctl = inner.ctl.lock().expect("controller poisoned");
                ctl.slo_doc()
            };
            match serde_json::to_string(&doc) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::json_error(500, &format!("slo document: {e:?}")),
            }
        }
        ("GET", "/debug/requests") => {
            let doc = slow_requests_doc(inner);
            match serde_json::to_string(&doc) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::json_error(500, &format!("requests document: {e:?}")),
            }
        }
        ("GET", "/debug/flight") => {
            // Build the pre-serialized sections under the controller lock,
            // render the (independently-locked) flight rings outside it.
            let sections = {
                let ctl = inner.ctl.lock().expect("controller poisoned");
                flight_sections(&ctl, inner)
            };
            Response::json(200, ip_obs::flight::dump_with(&sections))
        }
        ("POST", "/requests") => post_requests(inner, &request.body),
        ("POST", "/reload") => post_reload(inner, &request.body),
        ("POST", "/shutdown") => {
            inner.begin_drain();
            Response::json(200, "{\"state\":\"draining\"}")
        }
        (
            _,
            "/metrics" | "/healthz" | "/readyz" | "/status" | "/pools" | "/fleet" | "/slo"
            | "/debug/requests" | "/debug/flight",
        ) => Response::json_error(405, "use GET"),
        (_, "/requests" | "/reload" | "/shutdown") => Response::json_error(405, "use POST"),
        _ => Response::json_error(404, "unknown path"),
    }
}

/// The `GET /debug/requests` document: the slow-request ring, oldest
/// first, plus the threshold in force.
fn slow_requests_doc(inner: &Inner) -> Content {
    let requests = {
        let ring = inner.slow_ring.lock().expect("slow ring poisoned");
        ring.iter().map(SlowRequest::to_content).collect()
    };
    Content::Map(vec![
        (
            "slow_threshold_us".to_string(),
            Content::U64(inner.slow_request_micros),
        ),
        ("requests".to_string(), Content::Seq(requests)),
    ])
}

/// Pre-serializes the serve stack's sections of a flight dump: the SLO
/// statuses, the slow-request ring, and the chaos plane's injected
/// faults. Needs the controller lock held by the caller (passed as
/// `ctl`).
fn flight_sections(ctl: &Controller, inner: &Inner) -> Vec<(&'static str, String)> {
    let slo = ctl
        .slo_json()
        .unwrap_or_else(|e| format!("{{\"error\":{:?}}}", e));
    let slow = serde_json::to_string(&slow_requests_doc(inner))
        .unwrap_or_else(|e| format!("{{\"error\":\"{e:?}\"}}"));
    let faults = ctl
        .faults_json()
        .unwrap_or_else(|e| format!("{{\"error\":{:?}}}", e));
    let mut sections = vec![("slo", slo), ("slow_requests", slow), ("faults", faults)];
    // The borrows section exists only on borrowing fleets, so a
    // matrix-free daemon's dump stays byte-identical to the pre-borrowing
    // format.
    if ctl.borrowing_enabled() {
        let borrows = ctl
            .borrows_json()
            .unwrap_or_else(|e| format!("{{\"error\":{:?}}}", e));
        sections.push(("borrows", borrows));
    }
    sections
}

/// Pulls the optional `"pool"` string out of a request body. `Ok(None)`
/// when absent or JSON `null`; `Err` when present but not a string.
fn pool_field(doc: &Content) -> Result<Option<String>, String> {
    match doc.field("pool") {
        None | Some(Content::Null) => Ok(None),
        Some(Content::Str(name)) => Ok(Some(name.clone())),
        Some(_) => Err("\"pool\" must be a string".to_string()),
    }
}

/// One parsed (but not yet pool-resolved) injection entry.
struct InjectEntry {
    count: u64,
    interval: Option<usize>,
    pool: Option<String>,
}

/// Parses one injection object: `{"count": <u64 >= 1>,
/// "interval": <usize>?, "pool": "<name>"?}`. Pure parsing — no locks.
fn parse_inject_entry(doc: &Content) -> Result<InjectEntry, String> {
    if !matches!(doc, Content::Map(_)) {
        return Err("injection entry must be a JSON object".to_string());
    }
    let count = match doc.field("count").and_then(Content::as_u64) {
        Some(count) if count >= 1 => count,
        _ => return Err("body must carry a numeric \"count\" >= 1".to_string()),
    };
    let interval = match doc.field("interval") {
        None | Some(Content::Null) => None,
        Some(v) => match v.as_u64() {
            Some(idx) => Some(idx as usize),
            None => return Err("\"interval\" must be a non-negative integer".to_string()),
        },
    };
    let pool = pool_field(doc)?;
    Ok(InjectEntry {
        count,
        interval,
        pool,
    })
}

/// `POST /requests` body: either one injection object (back-compat; the
/// response keeps its original shape) or a JSON **array** of them. The
/// pool is required on a fleet (>1 pools), optional on a single-pool
/// daemon. A batch is parsed and validated without any lock, then applied
/// under a single controller-lock acquisition; any bad entry rejects the
/// whole batch with nothing injected.
fn post_requests(inner: &Inner, body: &str) -> Response {
    let doc: Content = match serde_json::from_str(body) {
        Ok(doc) => doc,
        Err(e) => return Response::json_error(400, &format!("invalid JSON body: {e:?}")),
    };
    match doc {
        Content::Seq(entries) => post_requests_batch(inner, &entries),
        doc => post_requests_single(inner, &doc),
    }
}

fn post_requests_single(inner: &Inner, doc: &Content) -> Response {
    let entry = match parse_inject_entry(doc) {
        Ok(entry) => entry,
        Err(message) => return Response::json_error(400, &message),
    };
    let mut ctl = inner.ctl.lock().expect("controller poisoned");
    let idx = match ctl.resolve(entry.pool.as_deref()) {
        Ok(idx) => idx,
        Err(e) => return Response::json_error(e.status, &e.message),
    };
    match ctl.inject(idx, entry.count, entry.interval) {
        Ok(landed) => Response::json(
            200,
            format!(
                "{{\"injected\":{},\"interval\":{landed},\"pool\":{}}}",
                entry.count,
                serde_json::to_string(&Content::Str(ctl.pool_names()[idx].to_string()))
                    .unwrap_or_else(|_| "null".into())
            ),
        ),
        Err(e) => Response::json_error(e.status, &e.message),
    }
}

fn post_requests_batch(inner: &Inner, entries: &[Content]) -> Response {
    if entries.is_empty() {
        return Response::json_error(400, "batch must carry at least one injection entry");
    }
    // Parse every entry lock-free; any malformed entry rejects the batch.
    let mut parsed = Vec::with_capacity(entries.len());
    for (k, doc) in entries.iter().enumerate() {
        match parse_inject_entry(doc) {
            Ok(entry) => parsed.push(entry),
            Err(message) => {
                return Response::json_error(400, &format!("batch entry {k}: {message}"))
            }
        }
    }
    // One lock acquisition: resolve every pool, then one deterministic
    // placement pass (validate-all-then-apply inside `inject_batch`).
    let body = {
        let mut ctl = inner.ctl.lock().expect("controller poisoned");
        let mut items = Vec::with_capacity(parsed.len());
        for (k, entry) in parsed.iter().enumerate() {
            match ctl.resolve(entry.pool.as_deref()) {
                Ok(idx) => items.push((idx, entry.count, entry.interval)),
                Err(e) => {
                    return Response::json_error(
                        e.status,
                        &format!("batch entry {k}: {}", e.message),
                    )
                }
            }
        }
        let landings = match ctl.inject_batch(&items) {
            Ok(landings) => landings,
            Err(e) => return Response::json_error(e.status, &e.message),
        };
        let names = ctl.pool_names();
        let total: u64 = items.iter().map(|(_, count, _)| *count).sum();
        let results = items
            .iter()
            .zip(&landings)
            .map(|(&(idx, count, _), &landed)| {
                Content::Map(vec![
                    ("pool".to_string(), Content::Str(names[idx].to_string())),
                    ("injected".to_string(), Content::U64(count)),
                    ("interval".to_string(), Content::U64(landed as u64)),
                ])
            })
            .collect();
        Content::Map(vec![
            ("injected".to_string(), Content::U64(total)),
            ("results".to_string(), Content::Seq(results)),
        ])
    };
    // Serialize outside the lock.
    match serde_json::to_string(&body) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::json_error(500, &format!("batch response: {e:?}")),
    }
}

/// `POST /reload` body: `{"model": "<name>", "alpha": <f64>?,
/// "pool": "<name>"?}`. The pool is required on a fleet (>1 pools),
/// optional on a single-pool daemon.
fn post_reload(inner: &Inner, body: &str) -> Response {
    let doc: Content = match serde_json::from_str(body) {
        Ok(doc) => doc,
        Err(e) => return Response::json_error(400, &format!("invalid JSON body: {e:?}")),
    };
    let Some(Content::Str(model)) = doc.field("model") else {
        return Response::json_error(400, "body must carry a string \"model\"");
    };
    let pool = match pool_field(&doc) {
        Ok(pool) => pool,
        Err(message) => return Response::json_error(400, &message),
    };
    let mut ctl = inner.ctl.lock().expect("controller poisoned");
    let idx = match ctl.resolve(pool.as_deref()) {
        Ok(idx) => idx,
        Err(e) => return Response::json_error(e.status, &e.message),
    };
    let alpha = match doc.field("alpha") {
        None | Some(Content::Null) => ctl.alpha_of(idx),
        Some(v) => match v.as_f64() {
            Some(a) if (0.0..=1.0).contains(&a) => a,
            _ => return Response::json_error(400, "\"alpha\" must be a number in [0, 1]"),
        },
    };
    match ctl.reload(idx, model, alpha) {
        Ok(()) => Response::json(
            200,
            format!(
                "{{\"model\":\"{model}\",\"alpha\":{alpha},\"reloads\":{}}}",
                ctl.reloads()
            ),
        ),
        Err(e) => Response::json_error(e.status, &e.message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_round_trip_and_order() {
        for p in [
            Phase::Starting,
            Phase::Running,
            Phase::Completed,
            Phase::Draining,
            Phase::Stopped,
        ] {
            assert_eq!(Phase::from_u8(p as u8), p);
        }
        assert!(Phase::Draining > Phase::Completed);
    }

    #[test]
    fn tick_duration_clamps() {
        assert_eq!(tick_duration(30, 1.0), Duration::from_millis(200));
        assert_eq!(tick_duration(30, 1_000_000.0), Duration::from_millis(5));
        assert_eq!(tick_duration(30, 600.0), Duration::from_millis(50));
    }

    #[test]
    fn begin_drain_is_sticky() {
        let inner = Inner {
            phase: AtomicU8::new(Phase::Running as u8),
            ctl: Mutex::new(
                Controller::new(
                    vec![PoolServeConfig::new(
                        TimeSeries::new(30, vec![1.0; 4]).unwrap(),
                    )],
                    300,
                )
                .unwrap(),
            ),
            shards: (0..2).map(|_| Shard::default()).collect(),
            keep_alive: true,
            alert_rules: Vec::new(),
            speedup: 1.0,
            interval_secs: 30,
            next_trace_id: AtomicU64::new(1),
            open_conns: AtomicI64::new(0),
            slow_ring: Mutex::new(VecDeque::new()),
            slow_request_micros: 1_000,
            flight_out: None,
        };
        inner.begin_drain();
        assert_eq!(inner.phase(), Phase::Draining);
        inner.phase.store(Phase::Stopped as u8, Ordering::Release);
        inner.begin_drain();
        assert_eq!(inner.phase(), Phase::Stopped);
    }
}
