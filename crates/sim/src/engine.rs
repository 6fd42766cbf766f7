//! The discrete-event engine wiring clusters, workers, stores and the
//! recommendation pipeline together.
//!
//! The event loop lives in [`SimStepper`], which processes events strictly
//! in `(time, seq)` order but can be advanced *incrementally* with
//! [`SimStepper::step_until`]. [`Simulation::run`] drives the stepper to
//! the end of the demand trace in one call (the batch oracle); the
//! `ip-serve` daemon drives the same stepper paced by (accelerated)
//! wall-clock time. Because every state mutation and RNG draw happens in
//! event order — never in pacing order — a live run over a demand trace is
//! bit-identical to the offline simulation of the same trace.

use crate::borrow::{BorrowRecord, BORROW_BUCKETS};
use crate::cluster::{Cluster, ClusterState};
use crate::fault::{FaultEntry, FaultKind, FaultRecord};
use crate::lease::Lease;
use crate::stores::{CosmosLite, KustoLite, RecommendationFile};
use crate::{PoolId, RecommendationProvider, Result, SimError};
use ip_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Intelligent Pooling Worker schedule (§7.6: "generating recommendations
/// for the next hour for each run, while executing the algorithm at more
/// frequent intervals, e.g., 30 min").
#[derive(Debug, Clone)]
pub struct IpWorkerConfig {
    /// Seconds between pipeline runs.
    pub run_every_secs: u64,
    /// Horizon covered by each recommendation file.
    pub horizon_secs: u64,
    /// Indices of runs that fail (fault injection).
    pub failing_runs: Vec<usize>,
}

impl Default for IpWorkerConfig {
    fn default() -> Self {
        Self {
            run_every_secs: 1800,
            horizon_secs: 3600,
            failing_runs: Vec::new(),
        }
    }
}

/// Arbitrator configuration (§7.6 lease/health-check machinery).
#[derive(Debug, Clone, Copy)]
pub struct ArbitratorConfig {
    /// Lease duration; a silent worker is replaced after this lapses.
    pub lease_secs: u64,
    /// Seconds between health checks.
    pub check_every_secs: u64,
}

impl Default for ArbitratorConfig {
    fn default() -> Self {
        Self {
            lease_secs: 300,
            check_every_secs: 60,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Telemetry/recommendation interval (paper: 30 s).
    pub interval_secs: u64,
    /// Mean cluster creation latency τ (paper: 60–120 s).
    pub tau_secs: u64,
    /// Uniform jitter applied to each creation (`±jitter`).
    pub tau_jitter_secs: u64,
    /// Pre-defined pooled-cluster lifespan after which it is recycled
    /// (`None` = unlimited). §2: pooled resources fail "due to exceeding a
    /// pre-defined lifespan or unexpected system failures".
    pub cluster_lifespan_secs: Option<u64>,
    /// Probability a pooled cluster fails in any given hour.
    pub cluster_failure_prob_per_hour: f64,
    /// Default target used before the first recommendation and whenever the
    /// latest file is stale (§7.6: "the inferencing reverts to default
    /// configurable values").
    pub default_pool_target: u32,
    /// Intelligent Pooling Worker schedule; `None` = pure static pooling at
    /// the default target.
    pub ip_worker: Option<IpWorkerConfig>,
    /// Arbitrator (lease) configuration.
    pub arbitrator: ArbitratorConfig,
    /// Pooling-worker outage windows `(start, end)` in seconds. During an
    /// outage no re-hydration happens until the Arbitrator replaces the
    /// worker or the window ends.
    pub pooling_worker_outages: Vec<(u64, u64)>,
    /// Hedged on-demand requests (§2 cites hedged/tied requests as the
    /// tail-latency mitigation pre-dating pooling): on a pool miss, launch
    /// this many parallel creations, hand the first one to the customer and
    /// discard the rest. `1` disables hedging.
    pub on_demand_hedging: u32,
    /// RNG seed.
    pub seed: u64,
    /// Pool identity in a fleet. `None` (the default) keeps every metric
    /// series unlabeled — bit-identical to the pre-fleet single-pool
    /// output; `Some` adds a `pool` label to every `ip_sim_*` series.
    pub pool: Option<PoolId>,
    /// Chaos fault schedule ([`FaultEntry`] per fault, fired in event
    /// order). Empty (the default) schedules nothing and leaves the run
    /// bit-identical to a chaos-free build.
    pub faults: Vec<FaultEntry>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            interval_secs: 30,
            tau_secs: 90,
            tau_jitter_secs: 20,
            cluster_lifespan_secs: None,
            cluster_failure_prob_per_hour: 0.0,
            default_pool_target: 3,
            ip_worker: None,
            arbitrator: ArbitratorConfig::default(),
            pooling_worker_outages: Vec::new(),
            on_demand_hedging: 1,
            seed: 0,
            pool: None,
            faults: Vec::new(),
        }
    }
}

/// The `pool` metric label set for a stepper: empty for an anonymous
/// (pre-fleet) pool, `[("pool", name)]` inside a fleet. Free function over
/// the field path so call sites keep disjoint field borrows.
fn pool_labels(pool: &Option<PoolId>) -> Option<(&str, &str)> {
    pool.as_ref().map(|p| ("pool", p.as_str()))
}

/// Per-interval telemetry record — the §7.5 dashboard stream.
///
/// One record is emitted per demand interval, in order. Per-interval
/// fields (`requests`, `hits`, `misses`, …) cover exactly that interval's
/// arrivals; `cum_*` fields are run-to-date totals *as of this record*,
/// with the final record fixed up to the end-of-window totals, so folding
/// the stream reproduces the aggregate [`SimReport`] exactly (the
/// `DashboardStream` in `ip-core` asserts this equivalence in tests).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalStat {
    /// Interval index (position in the demand trace).
    pub index: usize,
    /// Interval start time, seconds.
    pub time_secs: u64,
    /// Requests that arrived in this interval.
    pub requests: u64,
    /// Of which served instantly from the pool.
    pub hits: u64,
    /// Of which missed and went on-demand.
    pub misses: u64,
    /// Pool-size target applied for this interval.
    pub applied_target: u32,
    /// Whether the target fell back to the default (stale/missing
    /// recommendation while an IP worker is configured).
    pub fallback: bool,
    /// Ready pooled clusters after this interval's arrivals + enforcement.
    pub ready: usize,
    /// Clusters provisioning after this interval's arrivals + enforcement.
    pub provisioning: usize,
    /// Run-to-date idle cluster·seconds.
    pub cum_idle_cluster_seconds: f64,
    /// Run-to-date provisioning cluster·seconds.
    pub cum_provisioning_cluster_seconds: f64,
    /// Run-to-date total wait seconds.
    pub cum_wait_secs: f64,
    /// Run-to-date clusters created.
    pub cum_clusters_created: u64,
    /// Run-to-date on-demand creations.
    pub cum_on_demand_created: u64,
    /// Run-to-date cancelled re-hydrations.
    pub cum_cancelled_provisioning: u64,
    /// Run-to-date expiries/failures of pooled clusters.
    pub cum_expired: u64,
    /// Run-to-date IP pipeline runs.
    pub cum_ip_runs: u64,
    /// Run-to-date IP pipeline failures.
    pub cum_ip_failures: u64,
    /// Run-to-date Arbitrator worker replacements.
    pub cum_worker_replacements: u64,
}

impl IntervalStat {
    /// This interval as an SLO sample for the `ip_obs::slo` burn-rate
    /// engine. Wait is cumulative in the stream, so the caller supplies
    /// the previous record's `cum_wait_secs` (0.0 for the first) to get
    /// the interval's own wait; `interval_secs` stamps the sample at the
    /// interval's *end*, the moment its outcomes are known.
    pub fn slo_sample(
        &self,
        prev_cum_wait_secs: f64,
        interval_secs: u64,
    ) -> ip_obs::slo::SloSample {
        ip_obs::slo::SloSample {
            t: self.time_secs + interval_secs,
            requests: self.requests,
            hits: self.hits,
            wait_secs: (self.cum_wait_secs - prev_cum_wait_secs).max(0.0),
        }
    }
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Requests processed.
    pub total_requests: u64,
    /// Requests served instantly from the pool.
    pub hits: u64,
    /// Requests that had to wait for a cluster.
    pub misses: u64,
    /// `hits / total_requests` (1.0 when idle).
    pub hit_rate: f64,
    /// Sum of per-request waits, seconds.
    pub total_wait_secs: f64,
    /// Mean wait per request, seconds.
    pub mean_wait_secs: f64,
    /// Ready-but-unused cluster time (the COGS driver), cluster·seconds.
    pub idle_cluster_seconds: f64,
    /// Time clusters spent provisioning, cluster·seconds.
    pub provisioning_cluster_seconds: f64,
    /// Clusters created in total (re-hydration + on-demand + initial).
    pub clusters_created: u64,
    /// Of which created on-demand after pool misses.
    pub on_demand_created: u64,
    /// Hedged on-demand creations discarded because a sibling won the race.
    pub hedges_discarded: u64,
    /// Re-hydration requests cancelled by pool downsizing.
    pub cancelled_provisioning: u64,
    /// Ready clusters retired by pool downsizing.
    pub retired_for_downsize: u64,
    /// Pooled clusters lost to lifespan expiry or failure.
    pub expired: u64,
    /// Intelligent Pooling pipeline runs attempted.
    pub ip_runs: u64,
    /// Of which failed (fault injection).
    pub ip_failures: u64,
    /// Intervals where the target fell back to the default because the
    /// latest recommendation was missing or stale.
    pub fallback_intervals: u64,
    /// Workers replaced by the Arbitrator after lease lapse.
    pub worker_replacements: u64,
    /// Warm clusters borrowed *into* this pool from fleet siblings (0
    /// outside a borrowing fleet).
    pub borrowed_in: u64,
    /// Warm clusters this pool donated to fleet siblings.
    pub borrowed_out: u64,
    /// Every borrow this pool received, in resolution order (empty
    /// outside a borrowing fleet).
    pub borrow_records: Vec<BorrowRecord>,
    /// Chaos faults injected over the run, in firing order (empty without
    /// a fault schedule).
    pub fault_records: Vec<FaultRecord>,
    /// The pool-size target actually applied at each interval.
    pub applied_target_timeline: Vec<u32>,
    /// Per-interval telemetry stream (one record per demand interval, last
    /// record carries the end-of-window totals).
    pub interval_stats: Vec<IntervalStat>,
    /// Final telemetry store. `requests`, `pool_hit` and `pool_miss` hold
    /// per-interval counts (a zero hit or miss count writes no point);
    /// borrow and fallback resolutions add one point each.
    pub telemetry: KustoLite,
    /// Final config store (recommendation file history).
    pub config_store: CosmosLite,
}

/// Wait-time histogram bucket bounds, seconds (hits observe 0; misses wait
/// on the order of τ = 60–120 s).
const WAIT_BUCKETS: [f64; 8] = [0.0, 30.0, 60.0, 90.0, 120.0, 180.0, 300.0, 600.0];

/// Per-interval idle cluster·seconds bucket bounds.
const IDLE_BUCKETS: [f64; 7] = [0.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0];

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// Interval boundary: deliver arrivals, refresh applied target.
    Interval(usize),
    ClusterReady(u64),
    ClusterExpire(u64),
    IpRun(usize),
    ArbCheck,
    WorkerFail(usize),
    WorkerRecover(usize),
    /// A chaos fault (index into `SimConfig::faults`) fires.
    Fault(usize),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Queued {
    time: u64,
    seq: u64,
    ev: Ev,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first.
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An on-demand creation request raised by a pool miss.
#[derive(Debug, Clone)]
struct OdRequest {
    arrival: u64,
    served: bool,
}

/// The platform event loop, advanced explicitly.
///
/// Construct with [`SimStepper::new`] (this schedules every static event
/// and provisions the initial pool), then call
/// [`step_until`](SimStepper::step_until) with a non-decreasing logical
/// time; each call processes every queued event at or before that time.
/// [`finalize`](SimStepper::finalize) closes the integrals and produces
/// the [`SimReport`]. State only ever changes inside event processing, so
/// the pacing of `step_until` calls cannot change any outcome.
pub struct SimStepper {
    cfg: SimConfig,
    end_time: u64,
    /// Logical time the stepper has processed through (grows with each
    /// `step_until`, capped at `end_time`).
    watermark: u64,
    done: bool,
    rng: StdRng,
    heap: BinaryHeap<Queued>,
    seq: u64,
    /// Clusters under pool management: provisioning (re-hydration or
    /// on-demand) or ready. A cluster leaves the map when it is handed to
    /// a request, loses a hedge race, is cancelled, retired, expires or is
    /// donated, so the map is bounded by the pool, not by the requests.
    /// Ids are never reused, so an event for a departed id finds nothing.
    clusters: HashMap<u64, Cluster>,
    next_cluster_id: u64,
    ready_queue: VecDeque<u64>,
    provisioning_pool: Vec<u64>,
    od_requests: Vec<OdRequest>,
    od_request_of: HashMap<u64, usize>,
    hedges_discarded: u64,
    telemetry: KustoLite,
    config_store: CosmosLite,
    /// §7.6 worker liveness: `Some` holds the lapsed-pending lease of a
    /// silent worker (granted at failure time); cleared on recovery or
    /// Arbitrator replacement.
    dead_worker: Option<Lease>,
    /// Chaos: Arbitrator health checks no-op while `time <` this.
    arb_partition_until: u64,
    /// Chaos: pipeline runs see a lagged telemetry store while `time <`
    /// this.
    telemetry_lag_until: u64,
    /// Chaos: how far behind the store trails during a lag window.
    telemetry_lag_secs: u64,
    /// Chaos: interval request telemetry is dropped while `time <` this.
    telemetry_dropout_until: u64,
    /// Every chaos fault that fired, in firing order.
    fault_records: Vec<FaultRecord>,
    /// Cross-pool borrowing (DESIGN.md §17): when set by the fleet driver,
    /// a pool miss records a pending request instead of creating hedged
    /// on-demand clusters; the fleet resolves it at the epoch boundary
    /// (borrow from a sibling, or [`resolve_miss_fallback`]).
    defer_misses: bool,
    /// Arrival times of misses awaiting epoch-boundary resolution.
    pending_misses: Vec<u64>,
    borrowed_in: u64,
    borrowed_out: u64,
    borrow_records: Vec<BorrowRecord>,
    hits: u64,
    misses: u64,
    total_requests: u64,
    total_wait: f64,
    idle_cs: f64,
    prov_cs: f64,
    clusters_created: u64,
    on_demand_created: u64,
    cancelled: u64,
    retired_downsize: u64,
    expired: u64,
    ip_runs: u64,
    ip_failures: u64,
    fallback_intervals: u64,
    worker_replacements: u64,
    applied_targets: Vec<u32>,
    interval_stats: Vec<IntervalStat>,
    last_time: u64,
    obs_on: bool,
}

impl SimStepper {
    /// Validates the configuration against `demand`, schedules every static
    /// event (intervals, IP runs, Arbitrator checks, outage windows) and
    /// provisions the initial pool.
    pub fn new(cfg: SimConfig, demand: &TimeSeries) -> Result<Self> {
        if demand.is_empty() {
            return Err(SimError::InvalidDemand("empty demand".into()));
        }
        if demand.interval_secs() != cfg.interval_secs {
            return Err(SimError::InvalidConfig(format!(
                "demand interval {} != sim interval {}",
                demand.interval_secs(),
                cfg.interval_secs
            )));
        }
        if cfg.interval_secs == 0 || cfg.tau_secs == 0 {
            return Err(SimError::InvalidConfig(
                "interval and tau must be > 0".into(),
            ));
        }
        let end_time = demand.len() as u64 * cfg.interval_secs;
        let rng = StdRng::seed_from_u64(cfg.seed);

        // Observability: gate once per run; pre-register the §7.5 counter
        // families so a quiet run still exposes them at zero.
        let obs_on = ip_obs::enabled();
        if obs_on {
            let pl = pool_labels(&cfg.pool);
            for name in [
                "ip_sim_requests_total",
                "ip_sim_pool_hits_total",
                "ip_sim_pool_misses_total",
                "ip_sim_fallback_intervals_total",
                "ip_sim_worker_replacements_total",
                "ip_sim_clusters_created_total",
                "ip_sim_on_demand_created_total",
                "ip_sim_cancelled_provisioning_total",
                "ip_sim_retired_for_downsize_total",
                "ip_sim_expired_total",
                "ip_sim_ip_runs_total",
                "ip_sim_ip_failures_total",
            ] {
                ip_obs::counter_add(name, pl.as_slice(), 0.0);
            }
            ip_obs::declare_histogram("ip_sim_request_wait_seconds", pl.as_slice(), &WAIT_BUCKETS);
            ip_obs::declare_histogram(
                "ip_sim_interval_idle_cluster_seconds",
                pl.as_slice(),
                &IDLE_BUCKETS,
            );
            // Registered only under a chaos schedule, so fault-free runs
            // keep byte-identical Prometheus output.
            if !cfg.faults.is_empty() {
                ip_obs::counter_add("ip_sim_faults_injected_total", pl.as_slice(), 0.0);
            }
        }

        let mut stepper = Self {
            end_time,
            watermark: 0,
            done: false,
            rng,
            heap: BinaryHeap::new(),
            seq: 0,
            clusters: HashMap::new(),
            next_cluster_id: 0,
            ready_queue: VecDeque::new(),
            provisioning_pool: Vec::new(),
            od_requests: Vec::new(),
            od_request_of: HashMap::new(),
            hedges_discarded: 0,
            telemetry: KustoLite::new(),
            config_store: CosmosLite::new(),
            dead_worker: None,
            arb_partition_until: 0,
            telemetry_lag_until: 0,
            telemetry_lag_secs: 0,
            telemetry_dropout_until: 0,
            fault_records: Vec::new(),
            defer_misses: false,
            pending_misses: Vec::new(),
            borrowed_in: 0,
            borrowed_out: 0,
            borrow_records: Vec::new(),
            hits: 0,
            misses: 0,
            total_requests: 0,
            total_wait: 0.0,
            idle_cs: 0.0,
            prov_cs: 0.0,
            clusters_created: 0,
            on_demand_created: 0,
            cancelled: 0,
            retired_downsize: 0,
            expired: 0,
            ip_runs: 0,
            ip_failures: 0,
            fallback_intervals: 0,
            worker_replacements: 0,
            applied_targets: Vec::with_capacity(demand.len()),
            interval_stats: Vec::with_capacity(demand.len()),
            last_time: 0,
            obs_on,
            cfg,
        };
        stepper.schedule_static_events(demand.len());
        stepper.provision_initial_pool();
        Ok(stepper)
    }

    fn schedule_static_events(&mut self, intervals: usize) {
        for i in 0..intervals {
            self.push(i as u64 * self.cfg.interval_secs, Ev::Interval(i));
        }
        if let Some(ipc) = self.cfg.ip_worker.clone() {
            let mut k = 0usize;
            let mut t = 0u64;
            while t < self.end_time {
                self.push(t, Ev::IpRun(k));
                k += 1;
                t += ipc.run_every_secs;
            }
        }
        {
            let mut t = self.cfg.arbitrator.check_every_secs;
            while t < self.end_time {
                self.push(t, Ev::ArbCheck);
                t += self.cfg.arbitrator.check_every_secs;
            }
        }
        for (i, &(s, e)) in self.cfg.pooling_worker_outages.clone().iter().enumerate() {
            if s < self.end_time {
                self.push(s, Ev::WorkerFail(i));
                self.push(e.min(self.end_time.saturating_sub(1)), Ev::WorkerRecover(i));
            }
        }
        for (i, f) in self.cfg.faults.clone().iter().enumerate() {
            if f.at < self.end_time {
                self.push(f.at, Ev::Fault(i));
            }
        }
    }

    /// Initial pool: provisioned immediately ready at t=0 (pool creation
    /// precedes the measurement window).
    fn provision_initial_pool(&mut self) {
        let (t0, _) = self.current_target(0);
        for _ in 0..t0 {
            let id = self.next_cluster_id;
            self.next_cluster_id += 1;
            let expiry = self.sample_expiry(0);
            let mut c = Cluster::provisioning(id, 0, expiry, false);
            c.state = ClusterState::Ready { since: 0 };
            self.clusters.insert(id, c);
            self.ready_queue.push_back(id);
            self.clusters_created += 1;
            if self.obs_on {
                let pl = pool_labels(&self.cfg.pool);
                ip_obs::counter_inc("ip_sim_clusters_created_total", pl.as_slice());
            }
            if expiry < self.end_time {
                self.push(expiry, Ev::ClusterExpire(id));
            }
        }
    }

    fn push(&mut self, time: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Queued {
            time,
            seq: self.seq,
            ev,
        });
    }

    fn sample_tau(&mut self) -> u64 {
        if self.cfg.tau_jitter_secs == 0 {
            self.cfg.tau_secs
        } else {
            let lo = self.cfg.tau_secs.saturating_sub(self.cfg.tau_jitter_secs);
            let hi = self.cfg.tau_secs + self.cfg.tau_jitter_secs;
            self.rng.gen_range(lo..=hi)
        }
    }

    fn sample_expiry(&mut self, ready_at: u64) -> u64 {
        let mut expiry = self
            .cfg
            .cluster_lifespan_secs
            .map_or(u64::MAX, |l| ready_at + l);
        if self.cfg.cluster_failure_prob_per_hour > 0.0 {
            // Geometric over hours → exponential-ish failure time.
            let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let hours = -u.ln() / self.cfg.cluster_failure_prob_per_hour;
            let fail_at = ready_at + (hours * 3600.0) as u64;
            expiry = expiry.min(fail_at);
        }
        expiry
    }

    /// The pool-size target in force at `now` and whether it is a fallback
    /// (stale or missing recommendation).
    pub fn current_target(&self, now: u64) -> (u32, bool) {
        if self.cfg.ip_worker.is_none() {
            return (self.cfg.default_pool_target, false);
        }
        match self
            .config_store
            .get_latest::<RecommendationFile>("pool-recommendation")
        {
            Some(rec) => match rec.target_at(now) {
                Some(t) => (t, false),
                None => (self.cfg.default_pool_target, true), // stale file
            },
            None => (self.cfg.default_pool_target, true), // nothing yet
        }
    }

    /// The Pooling Worker's target enforcement: grow by re-hydration,
    /// shrink by cancelling in-flight creations first. No-op while the
    /// worker is dead (§7.6 outage semantics).
    fn enforce_target(&mut self, now: u64) {
        if self.dead_worker.is_some() {
            return;
        }
        let (target, _stale) = self.current_target(now);
        let have = self.ready_queue.len() + self.provisioning_pool.len();
        let target = target as usize;
        if have < target {
            for _ in 0..(target - have) {
                let id = self.next_cluster_id;
                self.next_cluster_id += 1;
                let ready_at = now + self.sample_tau();
                let expiry = self.sample_expiry(ready_at);
                self.clusters
                    .insert(id, Cluster::provisioning(id, ready_at, expiry, false));
                self.provisioning_pool.push(id);
                self.clusters_created += 1;
                if self.obs_on {
                    let pl = pool_labels(&self.cfg.pool);
                    ip_obs::counter_inc("ip_sim_clusters_created_total", pl.as_slice());
                }
                self.push(ready_at, Ev::ClusterReady(id));
            }
        } else if have > target {
            let mut excess = have - target;
            // Cancel in-flight re-hydrations first ("decreasing the pool
            // size will also result in cancellation of re-hydration
            // requests", §7.1).
            while excess > 0 {
                if let Some(id) = self.provisioning_pool.pop() {
                    // Its ready event still fires and finds no cluster.
                    self.clusters.remove(&id);
                    self.cancelled += 1;
                    if self.obs_on {
                        let pl = pool_labels(&self.cfg.pool);
                        ip_obs::counter_inc("ip_sim_cancelled_provisioning_total", pl.as_slice());
                    }
                    excess -= 1;
                } else {
                    break;
                }
            }
            while excess > 0 {
                if let Some(id) = self.ready_queue.pop_back() {
                    self.clusters.remove(&id);
                    self.retired_downsize += 1;
                    if self.obs_on {
                        let pl = pool_labels(&self.cfg.pool);
                        ip_obs::counter_inc("ip_sim_retired_for_downsize_total", pl.as_slice());
                    }
                    excess -= 1;
                } else {
                    break;
                }
            }
        }
    }

    /// Processes every queued event with `time <= until` (and strictly
    /// before the end of the trace). `until` values beyond the trace end
    /// are clamped; calls with a lower `until` than a previous call only
    /// process events already due. Returns the number of demand intervals
    /// processed by this call.
    pub fn step_until(
        &mut self,
        demand: &TimeSeries,
        mut provider: Option<&mut dyn RecommendationProvider>,
        until: u64,
    ) -> usize {
        let until = until.min(self.end_time);
        let before = self.interval_stats.len();
        while let Some(queued) = self.heap.peek() {
            if queued.time >= self.end_time {
                self.done = true;
                break;
            }
            if queued.time > until {
                break;
            }
            let Queued { time, ev, .. } = self.heap.pop().expect("peeked event");
            // Advance the idle/provisioning integrals.
            let dt = (time - self.last_time) as f64;
            self.idle_cs += dt * self.ready_queue.len() as f64;
            self.prov_cs += dt * self.provisioning_pool.len() as f64;
            self.last_time = time;
            self.handle_event(time, ev, demand, &mut provider);
        }
        if self.heap.is_empty() {
            self.done = true;
        }
        // Once no event below end_time remains, the stepper has effectively
        // processed the whole trace — the watermark jumps to its end so
        // `finalize` closes the integrals exactly where a one-shot run does.
        self.watermark = if self.done {
            self.end_time
        } else {
            self.watermark.max(until)
        };
        self.interval_stats.len() - before
    }

    fn handle_event(
        &mut self,
        time: u64,
        ev: Ev,
        demand: &TimeSeries,
        provider: &mut Option<&mut dyn RecommendationProvider>,
    ) {
        match ev {
            Ev::Interval(i) => self.on_interval(time, i, demand),
            Ev::ClusterReady(id) => self.on_cluster_ready(time, id),
            Ev::ClusterExpire(id) => self.on_cluster_expire(time, id),
            Ev::IpRun(k) => self.on_ip_run(time, k, provider),
            Ev::ArbCheck => self.on_arb_check(time),
            Ev::WorkerFail(_) => {
                if self.dead_worker.is_none() {
                    self.dead_worker = Some(Lease::new(time, self.cfg.arbitrator.lease_secs));
                    self.telemetry.append("worker_failed", time, 1.0);
                    if self.obs_on {
                        ip_obs::event("sim.worker_failed", time, &[]);
                    }
                }
            }
            Ev::WorkerRecover(_) => {
                if self.dead_worker.is_some() {
                    self.dead_worker = None;
                    self.telemetry.append("worker_recovered", time, 1.0);
                    if self.obs_on {
                        ip_obs::event("sim.worker_recovered", time, &[]);
                    }
                    self.enforce_target(time);
                }
            }
            Ev::Fault(i) => self.on_fault(time, i),
        }
    }

    /// Fires one scheduled chaos fault: flips the matching failure mode,
    /// records it, and emits the obs event + warn log.
    fn on_fault(&mut self, time: u64, idx: usize) {
        let entry = self.cfg.faults[idx].clone();
        let detail = match entry.kind {
            FaultKind::WorkerLeaseExpiry => {
                let lapse_at = time + self.cfg.arbitrator.lease_secs;
                if self.dead_worker.is_none() {
                    self.dead_worker = Some(Lease::new(time, self.cfg.arbitrator.lease_secs));
                    self.telemetry.append("worker_failed", time, 1.0);
                }
                format!("pooling worker silent mid-rehydration; lease lapses at t={lapse_at}")
            }
            FaultKind::ArbitratorPartition { until_secs } => {
                self.arb_partition_until = self.arb_partition_until.max(until_secs);
                format!("arbitrator health checks suppressed until t={until_secs}")
            }
            FaultKind::ConfigCorruption => {
                let version = self.config_store.put(
                    "pool-recommendation",
                    &"chaos: corrupt recommendation payload",
                );
                format!(
                    "corrupt recommendation written as version {version}; \
                     inferencing reverts to the default target"
                )
            }
            FaultKind::ConfigStale => {
                let rec = RecommendationFile {
                    generated_at: 0,
                    interval_secs: self.cfg.interval_secs,
                    targets: vec![self.cfg.default_pool_target],
                };
                let version = self.config_store.put("pool-recommendation", &rec);
                format!(
                    "stale recommendation (generated_at=0, one interval) written as \
                     version {version}; target lookups miss"
                )
            }
            FaultKind::TelemetryLag {
                until_secs,
                lag_secs,
            } => {
                self.telemetry_lag_until = self.telemetry_lag_until.max(until_secs);
                self.telemetry_lag_secs = lag_secs;
                format!("telemetry store trails {lag_secs}s behind until t={until_secs}")
            }
            FaultKind::TelemetryDropout { until_secs } => {
                self.telemetry_dropout_until = self.telemetry_dropout_until.max(until_secs);
                format!("interval request telemetry dropped until t={until_secs}")
            }
        };
        let kind = entry.kind.name();
        let pool = self
            .cfg
            .pool
            .as_ref()
            .map_or("default", |p| p.as_str())
            .to_string();
        if self.obs_on {
            let pl = pool_labels(&self.cfg.pool);
            ip_obs::counter_inc("ip_sim_faults_injected_total", pl.as_slice());
            ip_obs::event("chaos.fault", time, &[("fault", idx as f64)]);
        }
        ip_obs::log::warn(
            "chaos.fault",
            &format!("{pool}: {kind}: {detail}"),
            &[("t", time as f64)],
        );
        self.fault_records.push(FaultRecord {
            t: time,
            pool,
            kind: kind.to_string(),
            detail,
        });
    }

    fn on_interval(&mut self, time: u64, i: usize, demand: &TimeSeries) {
        let count = demand.get(i).round().max(0.0) as u64;
        // A telemetry dropout loses the store write; the arrivals below
        // are still delivered and served.
        if time >= self.telemetry_dropout_until {
            self.telemetry.append("requests", time, count as f64);
        }
        let (target, stale) = self.current_target(time);
        self.applied_targets.push(target);
        let fallback = stale && self.cfg.ip_worker.is_some();
        if fallback {
            self.fallback_intervals += 1;
            if self.obs_on {
                let pl = pool_labels(&self.cfg.pool);
                ip_obs::counter_inc("ip_sim_fallback_intervals_total", pl.as_slice());
                ip_obs::event("sim.fallback", time, &[("target", f64::from(target))]);
            }
        }
        let (pre_hits, pre_misses) = (self.hits, self.misses);
        for _ in 0..count {
            self.total_requests += 1;
            if let Some(id) = self.ready_queue.pop_front() {
                self.hits += 1;
                if self.obs_on {
                    let pl = pool_labels(&self.cfg.pool);
                    ip_obs::observe_with(
                        "ip_sim_request_wait_seconds",
                        pl.as_slice(),
                        &WAIT_BUCKETS,
                        0.0,
                    );
                }
                // Handed to the request: it leaves pool management.
                self.clusters.remove(&id);
            } else if self.defer_misses {
                // Borrowing fleet: classification (borrowed hit vs
                // on-demand miss) waits for epoch-boundary resolution, so
                // this request counts in neither tally yet.
                self.pending_misses.push(time);
            } else {
                self.misses += 1;
                // On-demand creation goes straight to the job service (it
                // happens even during worker outages) and is dedicated to
                // this request; with hedging several creations race for it.
                let request_idx = self.od_requests.len();
                self.od_requests.push(OdRequest {
                    arrival: time,
                    served: false,
                });
                for _ in 0..self.cfg.on_demand_hedging.max(1) {
                    let id = self.next_cluster_id;
                    self.next_cluster_id += 1;
                    let ready_at = time + self.sample_tau();
                    self.clusters
                        .insert(id, Cluster::provisioning(id, ready_at, u64::MAX, true));
                    self.od_request_of.insert(id, request_idx);
                    self.clusters_created += 1;
                    self.on_demand_created += 1;
                    if self.obs_on {
                        let pl = pool_labels(&self.cfg.pool);
                        ip_obs::counter_inc("ip_sim_clusters_created_total", pl.as_slice());
                        ip_obs::counter_inc("ip_sim_on_demand_created_total", pl.as_slice());
                    }
                    self.push(ready_at, Ev::ClusterReady(id));
                }
            }
        }
        self.enforce_target(time);
        let (ihits, imisses) = (self.hits - pre_hits, self.misses - pre_misses);
        // One point per interval and outcome: the store grows with the
        // trace, not with the requests.
        if ihits > 0 {
            self.telemetry.append("pool_hit", time, ihits as f64);
        }
        if imisses > 0 {
            self.telemetry.append("pool_miss", time, imisses as f64);
        }
        let prev_idle = self
            .interval_stats
            .last()
            .map_or(0.0, |s: &IntervalStat| s.cum_idle_cluster_seconds);
        if self.obs_on {
            let pl = pool_labels(&self.cfg.pool);
            ip_obs::counter_add("ip_sim_requests_total", pl.as_slice(), count as f64);
            ip_obs::counter_add("ip_sim_pool_hits_total", pl.as_slice(), ihits as f64);
            ip_obs::counter_add("ip_sim_pool_misses_total", pl.as_slice(), imisses as f64);
            ip_obs::gauge_set(
                "ip_sim_pool_ready",
                pl.as_slice(),
                self.ready_queue.len() as f64,
            );
            ip_obs::gauge_set(
                "ip_sim_pool_provisioning",
                pl.as_slice(),
                self.provisioning_pool.len() as f64,
            );
            ip_obs::gauge_set("ip_sim_pool_target", pl.as_slice(), f64::from(target));
            ip_obs::observe_with(
                "ip_sim_interval_idle_cluster_seconds",
                pl.as_slice(),
                &IDLE_BUCKETS,
                self.idle_cs - prev_idle,
            );
            ip_obs::event(
                "sim.interval",
                time,
                &[
                    ("index", i as f64),
                    ("requests", count as f64),
                    ("hits", ihits as f64),
                    ("misses", imisses as f64),
                    ("target", f64::from(target)),
                    ("ready", self.ready_queue.len() as f64),
                    ("provisioning", self.provisioning_pool.len() as f64),
                    ("fallback", f64::from(u8::from(fallback))),
                ],
            );
        }
        self.interval_stats.push(IntervalStat {
            index: i,
            time_secs: time,
            requests: count,
            hits: ihits,
            misses: imisses,
            applied_target: target,
            fallback,
            ready: self.ready_queue.len(),
            provisioning: self.provisioning_pool.len(),
            cum_idle_cluster_seconds: self.idle_cs,
            cum_provisioning_cluster_seconds: self.prov_cs,
            cum_wait_secs: self.total_wait,
            cum_clusters_created: self.clusters_created,
            cum_on_demand_created: self.on_demand_created,
            cum_cancelled_provisioning: self.cancelled,
            cum_expired: self.expired,
            cum_ip_runs: self.ip_runs,
            cum_ip_failures: self.ip_failures,
            cum_worker_replacements: self.worker_replacements,
        });
    }

    fn on_cluster_ready(&mut self, time: u64, id: u64) {
        // A cluster cancelled while provisioning has already left the map.
        let Some(cluster) = self.clusters.get_mut(&id) else {
            return;
        };
        if cluster.on_demand {
            // Hand it to the request that triggered it; hedge losers are
            // discarded. Either way it never joins the pool.
            self.clusters.remove(&id);
            let request_idx = self
                .od_request_of
                .remove(&id)
                .expect("on-demand has a request");
            let request = &mut self.od_requests[request_idx];
            if request.served {
                self.hedges_discarded += 1;
            } else {
                request.served = true;
                let wait = (time - request.arrival) as f64;
                self.total_wait += wait;
                if self.obs_on {
                    let pl = pool_labels(&self.cfg.pool);
                    ip_obs::observe_with(
                        "ip_sim_request_wait_seconds",
                        pl.as_slice(),
                        &WAIT_BUCKETS,
                        wait,
                    );
                }
            }
        } else {
            self.provisioning_pool.retain(|&p| p != id);
            cluster.state = ClusterState::Ready { since: time };
            let expiry = cluster.expires_at;
            self.ready_queue.push_back(id);
            if expiry < self.end_time {
                self.push(expiry, Ev::ClusterExpire(id));
            }
            self.enforce_target(time); // may now exceed target
        }
    }

    fn on_cluster_expire(&mut self, time: u64, id: u64) {
        // Expiry is scheduled when a cluster turns ready, so one still in
        // the map is sitting in the ready queue; one handed off, donated or
        // retired has already left.
        let Some(cluster) = self.clusters.remove(&id) else {
            return;
        };
        debug_assert!(cluster.is_ready(), "expiring a cluster that is not pooled");
        self.ready_queue.retain(|&r| r != id);
        self.expired += 1;
        self.telemetry.append("cluster_expired", time, 1.0);
        if self.obs_on {
            let pl = pool_labels(&self.cfg.pool);
            ip_obs::counter_inc("ip_sim_expired_total", pl.as_slice());
        }
        self.enforce_target(time);
    }

    fn on_ip_run(
        &mut self,
        time: u64,
        k: usize,
        provider: &mut Option<&mut dyn RecommendationProvider>,
    ) {
        let Some(ipc) = self.cfg.ip_worker.clone() else {
            return;
        };
        let _ip_span = ip_obs::span("sim.ip_run");
        self.ip_runs += 1;
        if self.obs_on {
            let pl = pool_labels(&self.cfg.pool);
            ip_obs::counter_inc("ip_sim_ip_runs_total", pl.as_slice());
        }
        if ipc.failing_runs.contains(&k) {
            self.ip_failures += 1;
            self.telemetry.append("ip_run_failed", time, 1.0);
            if self.obs_on {
                let pl = pool_labels(&self.cfg.pool);
                ip_obs::counter_inc("ip_sim_ip_failures_total", pl.as_slice());
                ip_obs::event("sim.ip_run", time, &[("ok", 0.0)]);
            }
        } else if let Some(provider) = provider.as_deref_mut() {
            // §6 feedback: surface the realized mean wait so self-tuning
            // providers can steer α' before recommending.
            let mean_wait = if self.total_requests == 0 {
                0.0
            } else {
                self.total_wait / self.total_requests as f64
            };
            provider.observe_wait(time, mean_wait);
            // Under a telemetry-lag fault the pipeline only sees points
            // older than the lag horizon.
            let visible_until = if time < self.telemetry_lag_until {
                time.saturating_sub(self.telemetry_lag_secs)
            } else {
                time
            };
            let observed = self.telemetry.bucketed_sum(
                "requests",
                self.cfg.interval_secs,
                visible_until.max(self.cfg.interval_secs),
            );
            let observed = TimeSeries::new(self.cfg.interval_secs, observed).expect("interval > 0");
            let horizon = (ipc.horizon_secs / self.cfg.interval_secs) as usize;
            match provider.recommend(time, &observed, horizon) {
                Some(targets) => {
                    let rec = RecommendationFile {
                        generated_at: time,
                        interval_secs: self.cfg.interval_secs,
                        targets,
                    };
                    self.config_store.put("pool-recommendation", &rec);
                    self.telemetry.append("ip_run_succeeded", time, 1.0);
                    if self.obs_on {
                        ip_obs::event("sim.ip_run", time, &[("ok", 1.0)]);
                    }
                }
                None => {
                    self.ip_failures += 1;
                    self.telemetry.append("ip_run_failed", time, 1.0);
                    if self.obs_on {
                        let pl = pool_labels(&self.cfg.pool);
                        ip_obs::counter_inc("ip_sim_ip_failures_total", pl.as_slice());
                        ip_obs::event("sim.ip_run", time, &[("ok", 0.0)]);
                    }
                }
            }
        }
        self.enforce_target(time);
    }

    fn on_arb_check(&mut self, time: u64) {
        // A partitioned Arbitrator cannot observe the lapse, let alone
        // replace the worker.
        if time < self.arb_partition_until {
            return;
        }
        if let Some(lease) = &self.dead_worker {
            if lease.expired(time) {
                // Lease lapsed: replace the worker.
                self.dead_worker = None;
                self.worker_replacements += 1;
                self.telemetry.append("worker_replaced", time, 1.0);
                if self.obs_on {
                    let pl = pool_labels(&self.cfg.pool);
                    ip_obs::counter_inc("ip_sim_worker_replacements_total", pl.as_slice());
                    ip_obs::event("sim.worker_replaced", time, &[]);
                }
                self.enforce_target(time);
            }
        }
    }

    /// `true` once every event strictly before the end of the trace has
    /// been processed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// End of the demand trace, seconds.
    pub fn end_time(&self) -> u64 {
        self.end_time
    }

    /// Logical time processed through so far.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Demand intervals processed so far. Interval `processed_intervals()`
    /// is the earliest one whose arrivals have not been delivered yet —
    /// the earliest index live injection can still reach.
    pub fn processed_intervals(&self) -> usize {
        self.interval_stats.len()
    }

    /// Per-interval telemetry records emitted so far.
    pub fn interval_stats(&self) -> &[IntervalStat] {
        &self.interval_stats
    }

    /// The recommendation-file store (version history of every pipeline
    /// run's output).
    pub fn config_store(&self) -> &CosmosLite {
        &self.config_store
    }

    /// The telemetry store.
    pub fn telemetry(&self) -> &KustoLite {
        &self.telemetry
    }

    /// Chaos faults injected so far, in firing order.
    pub fn fault_records(&self) -> &[FaultRecord] {
        &self.fault_records
    }

    /// `(ready, provisioning)` pooled-cluster counts right now.
    pub fn pool_counts(&self) -> (usize, usize) {
        (self.ready_queue.len(), self.provisioning_pool.len())
    }

    /// Time of the earliest still-pending event strictly before the end of
    /// the trace, or `None` when no such event remains. This is the peek a
    /// fleet interleaver uses to merge several steppers' event streams into
    /// one global logical-time order without advancing any of them.
    pub fn next_event_time(&self) -> Option<u64> {
        self.heap
            .peek()
            .map(|q| q.time)
            .filter(|&t| t < self.end_time)
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Warm clusters borrowed into this pool so far.
    pub fn borrowed_in(&self) -> u64 {
        self.borrowed_in
    }

    /// Warm clusters this pool donated so far.
    pub fn borrowed_out(&self) -> u64 {
        self.borrowed_out
    }

    /// Borrows received so far, in resolution order.
    pub fn borrow_records(&self) -> &[BorrowRecord] {
        &self.borrow_records
    }

    /// Run-to-date idle cluster·seconds as of the last processed event
    /// (the live COGS driver; [`finalize`](SimStepper::finalize) closes it
    /// exactly at the watermark).
    pub fn idle_cluster_seconds(&self) -> f64 {
        self.idle_cs
    }

    /// Start time of the earliest demand interval not yet delivered, or
    /// `None` when the trace is exhausted. Intervals are the only events
    /// that can raise a pool miss, so this bounds the next possible
    /// cross-pool interaction — the epoch length a borrowing fleet driver
    /// may safely advance every pool by (DESIGN.md §17).
    pub fn next_interval_time(&self) -> Option<u64> {
        let t = self.interval_stats.len() as u64 * self.cfg.interval_secs;
        (t < self.end_time).then_some(t)
    }

    /// Switches the miss path to epoch-boundary deferral (set by the fleet
    /// driver when a compatibility matrix is in force).
    pub(crate) fn set_defer_misses(&mut self, on: bool) {
        self.defer_misses = on;
    }

    /// Drains the misses awaiting resolution (arrival times, in order).
    pub(crate) fn take_pending_misses(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_misses)
    }

    /// Advances the idle/provisioning integrals to `t` without processing
    /// any event — the bookkeeping an out-of-band fleet mutation (donate /
    /// receive / fallback at an epoch boundary) needs so inventory changes
    /// at `t` charge cluster·seconds exactly up to `t`. Clamped to the
    /// trace end; a no-op when the stepper already advanced past `t`.
    fn sync_integrals(&mut self, t: u64) {
        let t = t.min(self.end_time);
        if t <= self.last_time {
            return;
        }
        let dt = (t - self.last_time) as f64;
        self.idle_cs += dt * self.ready_queue.len() as f64;
        self.prov_cs += dt * self.provisioning_pool.len() as f64;
        self.last_time = t;
    }

    /// Donor side of a borrow: surrender the oldest ready cluster unless
    /// that would drop the ready pool to or below `floor`. Re-hydration
    /// kicks in immediately (the donor's target enforcement runs at `t`).
    pub(crate) fn try_donate(&mut self, t: u64, floor: usize) -> bool {
        if self.ready_queue.len() <= floor {
            return false;
        }
        self.sync_integrals(t);
        let id = self.ready_queue.pop_front().expect("checked non-empty");
        self.clusters.remove(&id);
        self.borrowed_out += 1;
        self.telemetry.append("borrow_donated", t, 1.0);
        self.enforce_target(t);
        true
    }

    /// Requester side of a borrow: the pending miss at `t` is served by a
    /// sibling's warm cluster after `latency_secs` of transfer latency —
    /// counted as a pool hit (the fleet served it warm), with the latency
    /// charged as its wait. The transferred cluster goes straight to the
    /// request and never enters this pool's inventory.
    pub(crate) fn receive_borrow(&mut self, t: u64, latency_secs: u64, from: &str) {
        self.sync_integrals(t);
        let wait = latency_secs as f64;
        self.hits += 1;
        self.total_wait += wait;
        self.borrowed_in += 1;
        self.telemetry.append("pool_hit", t, 1.0);
        self.telemetry.append("borrow_received", t, 1.0);
        if self.obs_on {
            let pl = pool_labels(&self.cfg.pool);
            let name = self.cfg.pool.as_ref().map_or("default", |p| p.as_str());
            let bl = [("pool", name), ("from", from)];
            ip_obs::counter_inc("ip_sim_borrows_total", &bl);
            ip_obs::observe_with("ip_sim_borrow_latency_seconds", &bl, &BORROW_BUCKETS, wait);
            ip_obs::counter_inc("ip_sim_pool_hits_total", pl.as_slice());
            ip_obs::observe_with(
                "ip_sim_request_wait_seconds",
                pl.as_slice(),
                &WAIT_BUCKETS,
                wait,
            );
            ip_obs::event("sim.borrow", t, &[("latency", wait)]);
        }
        self.borrow_records.push(BorrowRecord {
            t,
            from: from.to_string(),
            latency_secs,
        });
        // Resolution happens at the same logical time as the interval that
        // raised the miss, so its record is the last one pushed — fold it
        // back in as the hit it turned out to be.
        if let Some(last) = self.interval_stats.last_mut() {
            debug_assert_eq!(last.time_secs, t, "resolution past the raising interval");
            last.hits += 1;
            last.cum_wait_secs = self.total_wait;
        }
    }

    /// Fallback for a pending miss no sibling could serve: the exact
    /// hedged on-demand creation the inline miss path performs, executed
    /// at resolution time with the original arrival time `t`.
    pub(crate) fn resolve_miss_fallback(&mut self, t: u64) {
        self.sync_integrals(t);
        self.misses += 1;
        self.telemetry.append("pool_miss", t, 1.0);
        let request_idx = self.od_requests.len();
        self.od_requests.push(OdRequest {
            arrival: t,
            served: false,
        });
        for _ in 0..self.cfg.on_demand_hedging.max(1) {
            let id = self.next_cluster_id;
            self.next_cluster_id += 1;
            let ready_at = t + self.sample_tau();
            self.clusters
                .insert(id, Cluster::provisioning(id, ready_at, u64::MAX, true));
            self.od_request_of.insert(id, request_idx);
            self.clusters_created += 1;
            self.on_demand_created += 1;
            if self.obs_on {
                let pl = pool_labels(&self.cfg.pool);
                ip_obs::counter_inc("ip_sim_clusters_created_total", pl.as_slice());
                ip_obs::counter_inc("ip_sim_on_demand_created_total", pl.as_slice());
            }
            self.push(ready_at, Ev::ClusterReady(id));
        }
        if self.obs_on {
            let pl = pool_labels(&self.cfg.pool);
            ip_obs::counter_inc("ip_sim_pool_misses_total", pl.as_slice());
        }
        if let Some(last) = self.interval_stats.last_mut() {
            debug_assert_eq!(last.time_secs, t, "resolution past the raising interval");
            last.misses += 1;
            last.cum_clusters_created = self.clusters_created;
            last.cum_on_demand_created = self.on_demand_created;
        }
    }

    /// Closes the integrals at the watermark, charges still-unserved
    /// on-demand requests their wait so far, fixes up the last interval
    /// record to the end-of-window totals, and produces the report.
    ///
    /// After a full run (`step_until(..., end_time)` until
    /// [`is_done`](SimStepper::is_done)) this is exactly the report
    /// [`Simulation::run`] returns; finalizing earlier reports on the
    /// trace processed so far.
    pub fn finalize(mut self) -> SimReport {
        let horizon = self.watermark;
        let dt = (horizon - self.last_time) as f64;
        self.idle_cs += dt * self.ready_queue.len() as f64;
        self.prov_cs += dt * self.provisioning_pool.len() as f64;
        for request in self.od_requests.iter().filter(|r| !r.served) {
            self.total_wait += (horizon - request.arrival) as f64;
            if self.obs_on {
                let pl = pool_labels(&self.cfg.pool);
                ip_obs::observe_with(
                    "ip_sim_request_wait_seconds",
                    pl.as_slice(),
                    &WAIT_BUCKETS,
                    (horizon - request.arrival) as f64,
                );
            }
        }

        // The last interval record carries the end-of-window totals
        // (integrals and counters kept moving after its interval event), so
        // folding the stream reproduces this report's aggregates exactly.
        if let Some(last) = self.interval_stats.last_mut() {
            last.ready = self.ready_queue.len();
            last.provisioning = self.provisioning_pool.len();
            last.cum_idle_cluster_seconds = self.idle_cs;
            last.cum_provisioning_cluster_seconds = self.prov_cs;
            last.cum_wait_secs = self.total_wait;
            last.cum_clusters_created = self.clusters_created;
            last.cum_on_demand_created = self.on_demand_created;
            last.cum_cancelled_provisioning = self.cancelled;
            last.cum_expired = self.expired;
            last.cum_ip_runs = self.ip_runs;
            last.cum_ip_failures = self.ip_failures;
            last.cum_worker_replacements = self.worker_replacements;
        }

        let hit_rate = if self.total_requests == 0 {
            1.0
        } else {
            self.hits as f64 / self.total_requests as f64
        };
        SimReport {
            total_requests: self.total_requests,
            hits: self.hits,
            misses: self.misses,
            hit_rate,
            total_wait_secs: self.total_wait,
            mean_wait_secs: if self.total_requests == 0 {
                0.0
            } else {
                self.total_wait / self.total_requests as f64
            },
            idle_cluster_seconds: self.idle_cs,
            provisioning_cluster_seconds: self.prov_cs,
            clusters_created: self.clusters_created,
            on_demand_created: self.on_demand_created,
            hedges_discarded: self.hedges_discarded,
            cancelled_provisioning: self.cancelled,
            retired_for_downsize: self.retired_downsize,
            expired: self.expired,
            ip_runs: self.ip_runs,
            ip_failures: self.ip_failures,
            fallback_intervals: self.fallback_intervals,
            worker_replacements: self.worker_replacements,
            borrowed_in: self.borrowed_in,
            borrowed_out: self.borrowed_out,
            borrow_records: self.borrow_records,
            fault_records: self.fault_records,
            applied_target_timeline: self.applied_targets,
            interval_stats: self.interval_stats,
            telemetry: self.telemetry,
            config_store: self.config_store,
        }
    }
}

/// The simulation itself. Construct, then [`run`](Simulation::run).
pub struct Simulation<'p> {
    config: SimConfig,
    provider: Option<&'p mut dyn RecommendationProvider>,
}

impl<'p> Simulation<'p> {
    /// Creates a simulation; `provider` feeds the Intelligent Pooling Worker
    /// (ignored when `config.ip_worker` is `None`).
    pub fn new(config: SimConfig, provider: Option<&'p mut dyn RecommendationProvider>) -> Self {
        Self { config, provider }
    }

    /// Runs the simulation over a demand trace of per-interval request
    /// counts: a [`SimStepper`] advanced to the end of the trace in one
    /// call.
    pub fn run(self, demand: &TimeSeries) -> Result<SimReport> {
        let _run_span = ip_obs::span("sim.run");
        let Simulation { config, provider } = self;
        let mut stepper = SimStepper::new(config, demand)?;
        let end = stepper.end_time();
        stepper.step_until(demand, provider, end);
        Ok(stepper.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(vals: Vec<f64>) -> TimeSeries {
        TimeSeries::new(30, vals).unwrap()
    }

    #[test]
    fn stepwise_equals_single_shot_for_any_pacing() {
        // The same trace stepped in 1 s, 37 s, and one-shot increments
        // must produce identical reports — the invariant the live daemon
        // relies on for oracle equality.
        let vals: Vec<f64> = (0..80).map(|i| f64::from(i % 5)).collect();
        let cfg = SimConfig {
            default_pool_target: 3,
            cluster_lifespan_secs: Some(900),
            cluster_failure_prob_per_hour: 0.3,
            ip_worker: Some(IpWorkerConfig {
                run_every_secs: 300,
                horizon_secs: 600,
                failing_runs: vec![1],
            }),
            pooling_worker_outages: vec![(600, 1200)],
            seed: 7,
            ..Default::default()
        };
        let mut provider = crate::StaticProvider(4);
        let oracle = Simulation::new(cfg.clone(), Some(&mut provider))
            .run(&demand(vals.clone()))
            .unwrap();

        for stride in [1u64, 37, 211] {
            let d = demand(vals.clone());
            let mut provider = crate::StaticProvider(4);
            let mut stepper = SimStepper::new(cfg.clone(), &d).unwrap();
            let mut t = 0;
            while !stepper.is_done() {
                t += stride;
                stepper.step_until(&d, Some(&mut provider), t);
            }
            let report = stepper.finalize();
            assert_eq!(report.hits, oracle.hits, "stride {stride}");
            assert_eq!(report.misses, oracle.misses);
            assert_eq!(report.total_wait_secs, oracle.total_wait_secs);
            assert_eq!(report.idle_cluster_seconds, oracle.idle_cluster_seconds);
            assert_eq!(report.clusters_created, oracle.clusters_created);
            assert_eq!(report.expired, oracle.expired);
            assert_eq!(report.worker_replacements, oracle.worker_replacements);
            assert_eq!(
                report.applied_target_timeline,
                oracle.applied_target_timeline
            );
            assert_eq!(report.interval_stats, oracle.interval_stats);
        }
    }

    #[test]
    fn step_until_is_idempotent_at_the_same_watermark() {
        let d = demand(vec![2.0; 20]);
        let mut stepper = SimStepper::new(SimConfig::default(), &d).unwrap();
        assert_eq!(stepper.step_until(&d, None, 120), 5); // t=0,30,60,90,120
        assert_eq!(stepper.step_until(&d, None, 120), 0);
        assert_eq!(stepper.processed_intervals(), 5);
        // A lower watermark processes nothing and does not regress.
        assert_eq!(stepper.step_until(&d, None, 60), 0);
        assert_eq!(stepper.watermark(), 120);
    }

    #[test]
    fn lease_expiry_on_the_exact_recovery_tick_resolves_to_replacement() {
        // Outage (60, 360) with the default Arbitrator (lease 300 s,
        // checks every 60 s): the lease granted at the failure lapses at
        // exactly t=360, the same second the outage's own recovery event
        // fires. Pinned order: the Arbitrator's check is scheduled first
        // (lower seq), so the **replacement wins** and the coincident
        // recovery is a no-op — deterministically, at any pacing.
        let cfg = SimConfig {
            default_pool_target: 2,
            tau_jitter_secs: 0,
            pooling_worker_outages: vec![(60, 360)],
            ..Default::default()
        };
        let report = Simulation::new(cfg.clone(), None)
            .run(&demand(vec![1.0; 20]))
            .unwrap();
        assert_eq!(report.worker_replacements, 1);
        assert_eq!(
            report.telemetry.query_range("worker_replaced", 0, 600),
            vec![(360, 1.0)]
        );
        // The recovery found no dead worker: it neither recovered nor
        // double-counted.
        assert!(report
            .telemetry
            .query_range("worker_recovered", 0, 600)
            .is_empty());

        // Stepping one second at a time resolves the tie identically.
        let d = demand(vec![1.0; 20]);
        let mut stepper = SimStepper::new(cfg, &d).unwrap();
        let mut t = 0;
        while !stepper.is_done() {
            t += 1;
            stepper.step_until(&d, None, t);
        }
        let stepped = stepper.finalize();
        assert_eq!(stepped.worker_replacements, 1);
        assert!(stepped
            .telemetry
            .query_range("worker_recovered", 0, 600)
            .is_empty());
    }

    #[test]
    fn worker_lease_expiry_fault_is_replaced_by_the_arbitrator() {
        // Unlike an outage window, the fault schedules no recovery: the
        // worker stays dead until its lease lapses (300+300=600) and the
        // Arbitrator's next check replaces it.
        let cfg = SimConfig {
            default_pool_target: 2,
            tau_jitter_secs: 0,
            faults: vec![FaultEntry {
                at: 300,
                kind: FaultKind::WorkerLeaseExpiry,
            }],
            ..Default::default()
        };
        let report = Simulation::new(cfg, None)
            .run(&demand(vec![1.0; 40]))
            .unwrap();
        assert_eq!(report.worker_replacements, 1);
        assert_eq!(
            report.telemetry.query_range("worker_replaced", 0, 1200),
            vec![(600, 1.0)]
        );
        assert_eq!(report.fault_records.len(), 1);
        assert_eq!(report.fault_records[0].kind, "worker_lease_expiry");
        assert_eq!(report.fault_records[0].t, 300);
        assert_eq!(report.fault_records[0].pool, "default");
    }

    #[test]
    fn arbitrator_partition_delays_the_replacement() {
        // Lease lapses at 600 but the Arbitrator is partitioned until 900:
        // the replacement lands at the first health check at/after 900.
        let cfg = SimConfig {
            default_pool_target: 2,
            tau_jitter_secs: 0,
            faults: vec![
                FaultEntry {
                    at: 300,
                    kind: FaultKind::WorkerLeaseExpiry,
                },
                FaultEntry {
                    at: 300,
                    kind: FaultKind::ArbitratorPartition { until_secs: 900 },
                },
            ],
            ..Default::default()
        };
        let report = Simulation::new(cfg, None)
            .run(&demand(vec![1.0; 60]))
            .unwrap();
        assert_eq!(
            report.telemetry.query_range("worker_replaced", 0, 1800),
            vec![(900, 1.0)]
        );
        assert_eq!(report.fault_records.len(), 2);
        assert_eq!(report.fault_records[1].kind, "arbitrator_partition");
    }

    #[test]
    fn config_corruption_and_staleness_force_default_fallback() {
        for kind in [FaultKind::ConfigCorruption, FaultKind::ConfigStale] {
            // Static provider recommends 6 every 300 s; default is 2. The
            // fault at t=310 clobbers the latest file, so intervals in
            // (310, 600) fall back to 2 until the next run rewrites it.
            let cfg = SimConfig {
                default_pool_target: 2,
                tau_jitter_secs: 0,
                ip_worker: Some(IpWorkerConfig {
                    run_every_secs: 300,
                    horizon_secs: 600,
                    failing_runs: Vec::new(),
                }),
                faults: vec![FaultEntry {
                    at: 310,
                    kind: kind.clone(),
                }],
                ..Default::default()
            };
            let mut provider = crate::StaticProvider(6);
            let report = Simulation::new(cfg, Some(&mut provider))
                .run(&demand(vec![1.0; 40]))
                .unwrap();
            // Intervals at t=330..=570 (indices 11..=19) fell back.
            assert!(
                report.fallback_intervals >= 9,
                "{}: only {} fallback intervals",
                kind.name(),
                report.fallback_intervals
            );
            assert_eq!(report.applied_target_timeline[11], 2, "{}", kind.name());
            // The run at t=600 restores the recommendation.
            assert_eq!(report.applied_target_timeline[21], 6, "{}", kind.name());
            assert_eq!(report.fault_records.len(), 1);
            assert_eq!(report.fault_records[0].kind, kind.name());
        }
    }

    #[test]
    fn telemetry_dropout_loses_store_points_but_serves_arrivals() {
        let cfg = SimConfig {
            default_pool_target: 4,
            tau_jitter_secs: 0,
            faults: vec![FaultEntry {
                at: 100,
                kind: FaultKind::TelemetryDropout { until_secs: 400 },
            }],
            ..Default::default()
        };
        let report = Simulation::new(cfg, None)
            .run(&demand(vec![2.0; 30]))
            .unwrap();
        // Points in the dropout window [120, 390] are gone; arrivals were
        // still delivered and counted.
        assert!(report
            .telemetry
            .query_range("requests", 120, 400)
            .is_empty());
        assert!(!report
            .telemetry
            .query_range("requests", 400, 900)
            .is_empty());
        assert_eq!(report.total_requests, 60);
    }

    #[test]
    fn telemetry_lag_caps_what_the_pipeline_sees() {
        use std::cell::RefCell;
        let seen: RefCell<Vec<usize>> = RefCell::new(Vec::new());
        let mut provider = |_now: u64, observed: &TimeSeries, horizon: usize| {
            seen.borrow_mut().push(observed.len());
            Some(vec![3u32; horizon])
        };
        let cfg = SimConfig {
            default_pool_target: 2,
            tau_jitter_secs: 0,
            ip_worker: Some(IpWorkerConfig {
                run_every_secs: 600,
                horizon_secs: 600,
                failing_runs: Vec::new(),
            }),
            faults: vec![FaultEntry {
                at: 0,
                kind: FaultKind::TelemetryLag {
                    until_secs: 900,
                    lag_secs: 570,
                },
            }],
            ..Default::default()
        };
        Simulation::new(cfg, Some(&mut provider))
            .run(&demand(vec![1.0; 60]))
            .unwrap();
        // Runs at t=0 and t=600 lag 570 s behind → each sees one bucket;
        // the run at t=1200 is past the window → sees all 40 buckets.
        assert_eq!(seen.into_inner(), vec![1, 1, 40]);
    }

    #[test]
    fn fault_free_runs_ignore_the_chaos_plane_entirely() {
        // Structural bit-identity: an explicit empty schedule is the
        // default; both runs share every event seq and RNG draw.
        let cfg = SimConfig {
            cluster_lifespan_secs: Some(900),
            cluster_failure_prob_per_hour: 0.2,
            seed: 11,
            ..Default::default()
        };
        let a = Simulation::new(cfg.clone(), None)
            .run(&demand(vec![3.0; 50]))
            .unwrap();
        let b = Simulation::new(
            SimConfig {
                faults: Vec::new(),
                ..cfg
            },
            None,
        )
        .run(&demand(vec![3.0; 50]))
        .unwrap();
        assert_eq!(a.interval_stats, b.interval_stats);
        assert_eq!(a.total_wait_secs, b.total_wait_secs);
        assert!(a.fault_records.is_empty());
    }

    /// Every cluster in the map is pooled (ready or provisioning) or an
    /// on-demand creation still racing for its request.
    fn assert_cluster_map_bounded(stepper: &SimStepper, at: u64) {
        let (ready, provisioning) = stepper.pool_counts();
        assert!(
            stepper.clusters.len() <= ready + provisioning + stepper.od_request_of.len(),
            "t={at}: {} clusters for {ready} ready, {provisioning} provisioning, {} on-demand",
            stepper.clusters.len(),
            stepper.od_request_of.len()
        );
    }

    #[test]
    fn cluster_map_holds_only_the_live_pool() {
        // Two spiky days through every exit: hand-off, hedge loss, cancel
        // and retire on a target that swings 8 ↔ 1, lifespan expiry,
        // failures, and an outage that the Arbitrator resolves.
        let mut model = ip_workload::spiky_region(3);
        model.days = 2;
        let d = model.generate();
        let cfg = SimConfig {
            default_pool_target: 3,
            cluster_lifespan_secs: Some(1800),
            cluster_failure_prob_per_hour: 0.2,
            on_demand_hedging: 2,
            ip_worker: Some(IpWorkerConfig {
                run_every_secs: 900,
                horizon_secs: 1800,
                failing_runs: vec![3],
            }),
            pooling_worker_outages: vec![(20_000, 21_000)],
            seed: 9,
            ..Default::default()
        };
        let mut swing = |now: u64, _: &TimeSeries, h: usize| {
            Some(vec![if now.is_multiple_of(1800) { 8 } else { 1 }; h])
        };
        let mut stepper = SimStepper::new(cfg, &d).unwrap();
        let mut t = 0;
        while !stepper.is_done() {
            t += 97;
            stepper.step_until(&d, Some(&mut swing), t);
            assert_cluster_map_bounded(&stepper, t);
        }
        let report = stepper.finalize();
        assert!(report.misses > 0 && report.hedges_discarded > 0);
        assert!(report.cancelled_provisioning > 0 && report.retired_for_downsize > 0);
        assert!(report.expired > 0 && report.worker_replacements > 0);
    }

    #[test]
    fn cluster_map_stays_bounded_across_donations() {
        use crate::{CompatibilityMatrix, FleetPool, FleetSim};
        let mut model = ip_workload::spiky_region(4);
        model.days = 2;
        let spiky = model.generate();
        let pool = |target: u32, seed: u64| SimConfig {
            default_pool_target: target,
            cluster_lifespan_secs: Some(3600),
            seed,
            ..Default::default()
        };
        let mut fleet = FleetSim::new(vec![
            FleetPool::new("busy", pool(1, 1), spiky.clone()),
            FleetPool::new("lazy", pool(6, 2), TimeSeries::zeros(30, spiky.len())),
        ])
        .unwrap();
        fleet
            .set_matrix(CompatibilityMatrix::new().edge("lazy", "busy", 10))
            .unwrap();
        let mut t = 0;
        while !fleet.is_done() {
            t += 300;
            fleet.step_until(t);
            for i in 0..2 {
                assert_cluster_map_bounded(fleet.stepper(i), t);
            }
        }
        assert!(fleet.stepper(1).borrowed_out() > 0);
        // A borrow and a fallback each add one point on top of the one
        // point per interval and outcome.
        let intervals = spiky.len();
        let busy = fleet.finalize().pools.swap_remove(0).1;
        assert!(busy.borrowed_in > 0 && busy.misses > 0);
        let points = |metric| busy.telemetry.query_range(metric, 0, u64::MAX).len();
        assert!(points("pool_hit") as u64 <= intervals as u64 + busy.borrowed_in);
        assert!(points("pool_miss") as u64 <= intervals as u64 + busy.misses);
        assert_eq!(busy.telemetry.total("pool_hit") as u64, busy.hits);
        assert_eq!(busy.telemetry.total("pool_miss") as u64, busy.misses);
    }

    #[test]
    fn early_finalize_reports_the_processed_prefix() {
        let d = demand(vec![1.0; 40]);
        let cfg = SimConfig {
            default_pool_target: 2,
            tau_jitter_secs: 0,
            ..Default::default()
        };
        let mut stepper = SimStepper::new(cfg, &d).unwrap();
        stepper.step_until(&d, None, 300);
        assert!(!stepper.is_done());
        let report = stepper.finalize();
        // 11 intervals (t=0..=300) of 1 request each were delivered.
        assert_eq!(report.total_requests, 11);
        assert_eq!(report.interval_stats.len(), 11);
        // Idle integral is closed at the watermark, not the trace end.
        assert!(report.idle_cluster_seconds <= 300.0 * 2.0 + 1e-9);
    }
}
