//! The controller: live daemon state wrapped around the fleet simulator's
//! incrementally-steppable event loop.
//!
//! Everything that can change at runtime — the [`FleetSim`], each pool's
//! demand trace (mutable, because `POST /requests` injects future
//! arrivals), each pool's recommendation provider (swappable via
//! `POST /reload`), the worker lease, and the latest per-pool dashboard
//! snapshots — lives here behind one mutex. All state mutation happens in
//! event order inside the steppers, so the daemon's decisions are
//! bit-identical to offline [`ip_sim::Simulation`] runs over the same
//! effective traces regardless of how wall-clock pacing slices the
//! `step_until` calls. A single-pool daemon is a fleet of one anonymous
//! pool: its metric series carry no `pool` label.

use ip_core::{
    autotuned_provider, merge_snapshots, named_provider, Alert, AlertRule, CostModel, Dashboard,
    DynProvider, MetricsSnapshot,
};
use ip_obs::{Severity, SloSpec, SloStatus, SloTracker};
use ip_saa::SaaConfig;
use ip_sim::{
    BorrowRecord, CompatibilityMatrix, FaultRecord, FleetPool, FleetSim, IntervalStat, LeaseId,
    LeaseTable, PoolId, RecommendationFile, SimConfig, SimReport,
};
use ip_timeseries::TimeSeries;
use serde::{Content, Serialize};

/// Builds the recommendation provider exactly the way the offline CLI
/// does, so live and offline runs share one construction path (the
/// bit-identity guarantee hangs on this).
pub fn build_provider(
    model: &str,
    alpha: f64,
    autotune: bool,
    target_wait_secs: f64,
) -> Result<DynProvider, String> {
    let saa = SaaConfig {
        alpha_prime: alpha,
        ..Default::default()
    };
    if autotune {
        autotuned_provider(model, alpha, saa, target_wait_secs)
    } else {
        named_provider(model, alpha, saa)
    }
    .map_err(|e| e.to_string())
}

/// A control-plane mutation failure, tagged with the HTTP status code it
/// maps to (400 bad request, 404 unknown pool, 409 conflict).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlError {
    /// The HTTP status this error maps to.
    pub status: u16,
    /// Human-readable message (ends up in the `{"error": ...}` envelope).
    pub message: String,
}

impl ControlError {
    fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    fn unknown_pool(name: &str) -> Self {
        Self {
            status: 404,
            message: format!("unknown pool {name:?}"),
        }
    }

    fn conflict(message: impl Into<String>) -> Self {
        Self {
            status: 409,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ControlError {}

/// One pool's slice of a daemon configuration.
#[derive(Debug, Clone)]
pub struct PoolServeConfig {
    /// Pool name. `None` runs the pool *anonymous* — no `pool` label on
    /// any metric series, exactly the pre-fleet single-pool daemon. The
    /// daemon addresses an anonymous pool as `"default"`.
    pub id: Option<String>,
    /// Platform simulation config for this pool.
    pub sim: SimConfig,
    /// The pool's demand trace.
    pub demand: TimeSeries,
    /// Recommendation model name (`ssa`, `ssa+`, `baseline`, `e2e-ssa`,
    /// `e2e-baseline`); `None` runs a static pool at the default target.
    pub model: Option<String>,
    /// Initial `α'` (Eq. 16 idle-vs-wait weight).
    pub alpha: f64,
    /// Enable this pool's own §6 AlphaTuner feedback loop.
    pub autotune: bool,
    /// Target mean wait for the tuner, in seconds.
    pub target_wait_secs: f64,
}

impl PoolServeConfig {
    /// An anonymous static pool over `demand` with default settings.
    pub fn new(demand: TimeSeries) -> Self {
        Self {
            id: None,
            sim: SimConfig::default(),
            demand,
            model: None,
            alpha: 0.3,
            autotune: false,
            target_wait_secs: 30.0,
        }
    }

    /// A named pool over `demand`: its metric series carry
    /// `pool="<name>"`.
    pub fn named(name: impl Into<String>, demand: TimeSeries) -> Self {
        Self {
            id: Some(name.into()),
            ..Self::new(demand)
        }
    }
}

/// Per-pool bookkeeping that outlives the stepper (survives `finalize`).
struct PoolState {
    id: PoolId,
    /// Whether metric series carry the `pool` label (a named pool).
    labeled: bool,
    model: Option<String>,
    alpha: f64,
    autotune: bool,
    target_wait_secs: f64,
    end_time: u64,
    /// Cold-path cluster creation latency (for borrow-savings roll-ups).
    tau_secs: u64,
    /// Demand interval width, for SLO sample timestamps.
    interval_secs: u64,
    intervals_total: usize,
    injected: u64,
    reloads: u64,
    report: Option<SimReport>,
}

impl PoolState {
    fn obs_labels(&self) -> Vec<(&str, &str)> {
        if self.labeled {
            vec![("pool", self.id.as_str())]
        } else {
            Vec::new()
        }
    }
}

/// Live controller state (shared between the controller thread and the
/// HTTP workers under one mutex): a fleet of pools advanced in one merged
/// logical-time event order.
pub struct Controller {
    fleet: Option<FleetSim>,
    pools: Vec<PoolState>,
    end_time: u64,
    leases: LeaseTable,
    lease_id: LeaseId,
    lease_secs: u64,
    /// Latest §7.5 dashboard snapshot per pool, in registration order
    /// (written by the controller tick).
    pub snapshots: Vec<MetricsSnapshot>,
    /// Alerts firing as of the latest tick (evaluated on the merged
    /// fleet snapshot).
    pub alerts: Vec<Alert>,
    /// PR 8: per-pool SLO burn-rate trackers (registration order), fed
    /// from the same interval-stat stream as the dashboards.
    slo: Vec<SloTracker>,
    /// How many interval stats each tracker has already consumed.
    slo_fed: Vec<usize>,
    /// Previous cumulative wait per pool (SLO samples carry the delta).
    slo_prev_wait: Vec<f64>,
    /// PR 10: whether a non-empty compatibility matrix wired the pools
    /// into one borrowing cluster.
    borrowing: bool,
}

impl Controller {
    /// Builds the controller: validates every pool's config by
    /// constructing its stepper, builds the named providers (if any), and
    /// grants the controller its worker lease at logical `t = 0`.
    ///
    /// Naming a model for a pool schedules that pool's IP worker (exactly
    /// like the offline CLI) unless the config already carries one.
    pub fn new(pools: Vec<PoolServeConfig>, lease_secs: u64) -> Result<Self, String> {
        Self::with_matrix(pools, lease_secs, None)
    }

    /// [`Controller::new`] plus a cross-pool [`CompatibilityMatrix`]. An
    /// empty (or absent) matrix leaves the pools fully isolated — the
    /// daemon is bit-identical to one built without a matrix.
    pub fn with_matrix(
        pools: Vec<PoolServeConfig>,
        lease_secs: u64,
        matrix: Option<CompatibilityMatrix>,
    ) -> Result<Self, String> {
        let mut members = Vec::with_capacity(pools.len());
        let mut states = Vec::with_capacity(pools.len());
        for cfg in pools {
            let PoolServeConfig {
                id,
                mut sim,
                demand,
                model,
                alpha,
                autotune,
                target_wait_secs,
            } = cfg;
            if model.is_some() && sim.ip_worker.is_none() {
                sim.ip_worker = Some(ip_sim::IpWorkerConfig::default());
            }
            let labeled = id.is_some();
            let mut pool = match id {
                Some(name) => FleetPool::new(name, sim, demand),
                None => FleetPool::anonymous(sim, demand),
            };
            if let Some(name) = &model {
                let provider = build_provider(name, alpha, autotune, target_wait_secs)
                    .map_err(|e| format!("pool {:?}: {e}", pool.id.as_str()))?;
                pool = pool.with_provider(provider);
            }
            states.push(PoolState {
                id: pool.id.clone(),
                labeled,
                model,
                alpha,
                autotune,
                target_wait_secs,
                end_time: 0, // filled in below, once the stepper exists
                tau_secs: pool.config.tau_secs,
                interval_secs: pool.demand.interval_secs(),
                intervals_total: pool.demand.len(),
                injected: 0,
                reloads: 0,
                report: None,
            });
            members.push(pool);
        }
        let mut fleet = FleetSim::new(members).map_err(|e| e.to_string())?;
        if let Some(matrix) = matrix {
            fleet.set_matrix(matrix).map_err(|e| e.to_string())?;
        }
        let borrowing = fleet.borrowing_enabled();
        for (i, state) in states.iter_mut().enumerate() {
            state.end_time = fleet.stepper(i).end_time();
        }
        let end_time = fleet.end_time();
        let mut leases = LeaseTable::new();
        let lease_id = leases.grant("controller", 0, lease_secs);
        let dashboard = Dashboard::new(CostModel::default());
        let snapshots = vec![dashboard.stream().snapshot(); states.len()];
        let spec = SloSpec::default();
        let n = states.len();
        Ok(Self {
            fleet: Some(fleet),
            pools: states,
            end_time,
            leases,
            lease_id,
            lease_secs,
            snapshots,
            alerts: Vec::new(),
            slo: (0..n).map(|_| SloTracker::new(spec)).collect(),
            slo_fed: vec![0; n],
            slo_prev_wait: vec![0.0; n],
            borrowing,
        })
    }

    /// Replaces every pool's SLO objectives, resetting the trackers (and
    /// their fed-cursors, so the existing interval history is replayed
    /// against the new objectives on the next [`Controller::feed_slo`]).
    pub fn set_slo_spec(&mut self, spec: SloSpec) {
        let n = self.pools.len();
        self.slo = (0..n).map(|_| SloTracker::new(spec)).collect();
        self.slo_fed = vec![0; n];
        self.slo_prev_wait = vec![0.0; n];
    }

    /// Number of pools in the fleet.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// Pool names in registration order.
    pub fn pool_names(&self) -> Vec<&str> {
        self.pools.iter().map(|p| p.id.as_str()).collect()
    }

    /// Resolves a request's optional `pool` field to a pool index: an
    /// explicit name must exist (else 404); omitting the name is only
    /// unambiguous on a single-pool daemon (else 400).
    pub fn resolve(&self, pool: Option<&str>) -> Result<usize, ControlError> {
        match pool {
            Some(name) => self
                .pools
                .iter()
                .position(|p| p.id.as_str() == name)
                .ok_or_else(|| ControlError::unknown_pool(name)),
            None if self.pools.len() == 1 => Ok(0),
            None => Err(ControlError::bad_request(format!(
                "fleet daemon with {} pools: body must name a \"pool\"",
                self.pools.len()
            ))),
        }
    }

    /// Processes every queued platform event at or before logical `until`,
    /// across all pools in one merged event order. Returns the number of
    /// demand intervals processed by this call.
    pub fn step_to(&mut self, until: u64) -> usize {
        match self.fleet.as_mut() {
            Some(fleet) => fleet.step_until(until),
            None => 0,
        }
    }

    /// `true` once every pool has processed its last demand interval (or
    /// the run was finalized). This is the injection cut-off: from here on
    /// every pool refuses arrivals (409 "trace complete"), and before it
    /// none does for that reason.
    ///
    /// Events after a pool's last interval but before its trace end
    /// (cluster readiness, expiries) may still be queued; stepping to
    /// `u64::MAX` runs them, which the daemon does before it finalizes.
    pub fn is_done(&self) -> bool {
        (0..self.pools.len()).all(|i| self.pool_done(i))
    }

    /// Whether pool `i` has processed its last demand interval, so that no
    /// arrival can land on it any more.
    fn pool_done(&self, i: usize) -> bool {
        self.fleet.is_none() || self.processed_intervals_of(i) >= self.pools[i].intervals_total
    }

    /// Logical time every pool has processed through.
    pub fn watermark(&self) -> u64 {
        self.fleet
            .as_ref()
            .map_or(self.end_time, FleetSim::watermark)
    }

    /// Demand intervals processed so far across the fleet.
    pub fn processed_intervals(&self) -> usize {
        (0..self.pools.len())
            .map(|i| self.processed_intervals_of(i))
            .sum()
    }

    /// Demand intervals pool `i` has processed (also the earliest interval
    /// an injection into it can land on).
    pub fn processed_intervals_of(&self, i: usize) -> usize {
        match &self.fleet {
            Some(fleet) => fleet.stepper(i).processed_intervals(),
            None => self.pools[i]
                .report
                .as_ref()
                .map_or(0, |r| r.interval_stats.len()),
        }
    }

    /// Pool `i`'s per-interval telemetry stream so far.
    pub fn interval_stats_of(&self, i: usize) -> &[IntervalStat] {
        match &self.fleet {
            Some(fleet) => fleet.stepper(i).interval_stats(),
            None => self.pools[i]
                .report
                .as_ref()
                .map_or(&[], |r| &r.interval_stats),
        }
    }

    /// Total intervals across every pool's (effective) trace.
    pub fn intervals_total(&self) -> usize {
        self.pools.iter().map(|p| p.intervals_total).sum()
    }

    /// Pool `i`'s demand trace as currently effective (replayed +
    /// injected).
    pub fn effective_demand(&self, i: usize) -> Option<&TimeSeries> {
        self.fleet.as_ref().map(|f| f.demand(i))
    }

    /// Requests injected over HTTP so far, fleet-wide.
    pub fn injected(&self) -> u64 {
        self.pools.iter().map(|p| p.injected).sum()
    }

    /// Provider reloads so far, fleet-wide.
    pub fn reloads(&self) -> u64 {
        self.pools.iter().map(|p| p.reloads).sum()
    }

    /// Pool `i`'s current `α'`.
    pub fn alpha_of(&self, i: usize) -> f64 {
        self.pools[i].alpha
    }

    /// Controller lease lapses observed so far.
    pub fn lapsed_leases(&self) -> u64 {
        self.leases.lapsed_total
    }

    /// Validates one injection against the current frontier without
    /// mutating anything, returning the interval it would land on. The
    /// frontier cannot move while the controller lock is held, so a batch
    /// validated entry-by-entry through this method stays valid until the
    /// lock is released.
    fn validate_injection(
        &self,
        i: usize,
        count: u64,
        interval: Option<usize>,
    ) -> Result<usize, ControlError> {
        if count == 0 {
            return Err(ControlError::bad_request("count must be >= 1"));
        }
        if self.pool_done(i) {
            return Err(ControlError::conflict(format!(
                "pool {:?} trace complete; it no longer accepts arrivals",
                self.pools[i].id.as_str()
            )));
        }
        let total = self.pools[i].intervals_total;
        let earliest = self.processed_intervals_of(i);
        let idx = interval.unwrap_or(earliest).max(earliest);
        if idx >= total {
            return Err(ControlError::conflict(format!(
                "interval {idx} is beyond the trace end ({total} intervals)"
            )));
        }
        Ok(idx)
    }

    /// Injects a whole batch of `(pool index, count, interval)` entries in
    /// one deterministic placement pass: **every** entry is validated
    /// against the (lock-stable) frontier first, then all are applied in
    /// order — so a batch either lands completely or not at all, and N
    /// entries behave exactly like N sequential [`Controller::inject`]
    /// calls under one lock hold (same demand mutations, same per-entry
    /// metric increments in the same order). Returns the landing interval
    /// of each entry.
    pub fn inject_batch(
        &mut self,
        items: &[(usize, u64, Option<usize>)],
    ) -> Result<Vec<usize>, ControlError> {
        if items.is_empty() {
            return Err(ControlError::bad_request("empty injection batch"));
        }
        let mut landings = Vec::with_capacity(items.len());
        for &(i, count, interval) in items {
            landings.push(self.validate_injection(i, count, interval)?);
        }
        let fleet = self.fleet.as_mut().expect("validated as not-done above");
        for (&(i, count, _), &idx) in items.iter().zip(&landings) {
            fleet.demand_mut(i).values_mut()[idx] += count as f64;
            self.pools[i].injected += count;
            ip_obs::counter_add(
                "ip_serve_injected_requests_total",
                &self.pools[i].obs_labels(),
                count as f64,
            );
        }
        Ok(landings)
    }

    /// Injects `count` arrivals into pool `i`'s replay. The arrivals land
    /// on `interval` if given (clamped up to the earliest still-unprocessed
    /// interval — the past is immutable), else on the earliest injectable
    /// interval. Returns the interval index they landed on.
    pub fn inject(
        &mut self,
        i: usize,
        count: u64,
        interval: Option<usize>,
    ) -> Result<usize, ControlError> {
        Ok(self.inject_batch(&[(i, count, interval)])?[0])
    }

    /// Swaps pool `i`'s recommendation pipeline (model name + `α'`) for
    /// all its subsequent IP runs. Rejected on a static pool (no pipeline
    /// was scheduled at start, so a provider would never be consulted) and
    /// after the run has been finalized.
    pub fn reload(&mut self, i: usize, model: &str, alpha: f64) -> Result<(), ControlError> {
        if self.pools[i].model.is_none() {
            return Err(ControlError::conflict(format!(
                "pool {:?} runs a static pool (no model); nothing to reload",
                self.pools[i].id.as_str()
            )));
        }
        let Some(fleet) = self.fleet.as_mut() else {
            return Err(ControlError::conflict(
                "run finalized; nothing left to reload",
            ));
        };
        let state = &mut self.pools[i];
        let provider = build_provider(model, alpha, state.autotune, state.target_wait_secs)
            .map_err(ControlError::conflict)?;
        fleet.set_provider(i, Some(provider));
        state.model = Some(model.to_string());
        state.alpha = alpha;
        state.reloads += 1;
        ip_obs::counter_inc("ip_serve_reloads_total", &state.obs_labels());
        Ok(())
    }

    /// Heartbeat: renews the controller lease at logical `now`; if the
    /// lease already lapsed (a stalled tick), sweeps it out and re-grants —
    /// exactly the Arbitrator's replace-the-silent-worker move, counted in
    /// [`Controller::lapsed_leases`].
    pub fn tick_lease(&mut self, now: u64) {
        if !self.leases.renew(self.lease_id, now, self.lease_secs) {
            self.leases.sweep(now);
            self.lease_id = self.leases.grant("controller", now, self.lease_secs);
        }
    }

    /// Feeds every interval stat the simulator has produced since the last
    /// call into the per-pool SLO trackers (same stream the dashboards
    /// consume, so SLO verdicts and snapshots always describe the same
    /// logical frontier). Cheap when nothing advanced.
    pub fn feed_slo(&mut self) {
        for i in 0..self.pools.len() {
            let stats: &[IntervalStat] = match &self.fleet {
                Some(fleet) => fleet.stepper(i).interval_stats(),
                None => self.pools[i]
                    .report
                    .as_ref()
                    .map_or(&[], |r| &r.interval_stats),
            };
            let interval_secs = self.pools[i].interval_secs;
            for s in &stats[self.slo_fed[i].min(stats.len())..] {
                let sample = s.slo_sample(self.slo_prev_wait[i], interval_secs);
                self.slo_prev_wait[i] = s.cum_wait_secs;
                self.slo[i].record(sample);
            }
            self.slo_fed[i] = stats.len();
        }
    }

    /// Pool `i`'s current SLO evaluation.
    pub fn slo_status_of(&self, i: usize) -> SloStatus {
        self.slo[i].status()
    }

    /// Faults the chaos plane has injected into pool `i` so far (live from
    /// the stepper, or from the final report once finalized), in fire
    /// order.
    pub fn fault_records_of(&self, i: usize) -> &[FaultRecord] {
        match (&self.fleet, &self.pools[i].report) {
            (Some(fleet), _) => fleet.stepper(i).fault_records(),
            (None, Some(r)) => &r.fault_records,
            (None, None) => &[],
        }
    }

    /// Total injected faults across the fleet so far.
    pub fn faults_injected(&self) -> usize {
        (0..self.pools.len())
            .map(|i| self.fault_records_of(i).len())
            .sum()
    }

    /// The flight recorder's `faults` section: every injected fault so
    /// far, pools in registration order, fire order within a pool.
    /// Building the [`Content`] tree is the only part that needs the
    /// controller lock.
    pub fn faults_doc(&self) -> Content {
        let injected: Vec<Content> = (0..self.pools.len())
            .flat_map(|i| self.fault_records_of(i).iter())
            .map(|r| {
                Content::Map(vec![
                    ("t".to_string(), Content::U64(r.t)),
                    ("pool".to_string(), Content::Str(r.pool.clone())),
                    ("kind".to_string(), Content::Str(r.kind.clone())),
                    ("detail".to_string(), Content::Str(r.detail.clone())),
                ])
            })
            .collect();
        Content::Map(vec![
            ("total".to_string(), Content::U64(injected.len() as u64)),
            ("injected".to_string(), Content::Seq(injected)),
        ])
    }

    /// [`Controller::faults_doc`] serialized to a JSON string.
    pub fn faults_json(&self) -> Result<String, String> {
        serde_json::to_string(&self.faults_doc()).map_err(|e| format!("faults document: {e:?}"))
    }

    /// `true` when the daemon runs a non-empty compatibility matrix (the
    /// pools form one borrowing cluster).
    pub fn borrowing_enabled(&self) -> bool {
        self.borrowing
    }

    /// Warm transfers pool `i` has received so far (live from the stepper,
    /// or from the final report once finalized), in resolution order.
    pub fn borrow_records_of(&self, i: usize) -> &[BorrowRecord] {
        match (&self.fleet, &self.pools[i].report) {
            (Some(fleet), _) => fleet.stepper(i).borrow_records(),
            (None, Some(r)) => &r.borrow_records,
            (None, None) => &[],
        }
    }

    /// Warm clusters pool `i` received from siblings so far.
    pub fn borrowed_in_of(&self, i: usize) -> u64 {
        match (&self.fleet, &self.pools[i].report) {
            (Some(fleet), _) => fleet.stepper(i).borrowed_in(),
            (None, Some(r)) => r.borrowed_in,
            (None, None) => 0,
        }
    }

    /// Warm clusters pool `i` donated to siblings so far.
    pub fn borrowed_out_of(&self, i: usize) -> u64 {
        match (&self.fleet, &self.pools[i].report) {
            (Some(fleet), _) => fleet.stepper(i).borrowed_out(),
            (None, Some(r)) => r.borrowed_out,
            (None, None) => 0,
        }
    }

    /// Idle cluster·seconds pool `i` has accumulated so far (the COGS
    /// integrand).
    pub fn idle_cluster_seconds_of(&self, i: usize) -> f64 {
        match (&self.fleet, &self.pools[i].report) {
            (Some(fleet), _) => fleet.stepper(i).idle_cluster_seconds(),
            (None, Some(r)) => r.idle_cluster_seconds,
            (None, None) => 0.0,
        }
    }

    /// Total cross-pool borrows resolved so far, fleet-wide.
    pub fn borrows_total(&self) -> u64 {
        (0..self.pools.len()).map(|i| self.borrowed_in_of(i)).sum()
    }

    /// Creation latency a borrow spared the requester: the requester's
    /// cold-path `tau_secs` minus the transfer latency, summed over every
    /// borrow so far.
    pub fn borrow_saved_secs(&self) -> f64 {
        (0..self.pools.len())
            .map(|i| {
                let tau = self.pools[i].tau_secs as f64;
                self.borrow_records_of(i)
                    .iter()
                    .map(|r| tau - r.latency_secs as f64)
                    .sum::<f64>()
            })
            .sum()
    }

    /// The flight recorder's `borrows` section (present only on borrowing
    /// fleets): every warm transfer so far, pools in registration order,
    /// resolution order within a pool.
    pub fn borrows_doc(&self) -> Content {
        let transfers: Vec<Content> = (0..self.pools.len())
            .flat_map(|i| {
                let pool = self.pools[i].id.as_str().to_string();
                self.borrow_records_of(i).iter().map(move |r| {
                    Content::Map(vec![
                        ("t".to_string(), Content::U64(r.t)),
                        ("pool".to_string(), Content::Str(pool.clone())),
                        ("from".to_string(), Content::Str(r.from.clone())),
                        ("latency_secs".to_string(), Content::U64(r.latency_secs)),
                    ])
                })
            })
            .collect();
        Content::Map(vec![
            ("total".to_string(), Content::U64(transfers.len() as u64)),
            ("transfers".to_string(), Content::Seq(transfers)),
        ])
    }

    /// [`Controller::borrows_doc`] serialized to a JSON string.
    pub fn borrows_json(&self) -> Result<String, String> {
        serde_json::to_string(&self.borrows_doc()).map_err(|e| format!("borrows document: {e:?}"))
    }

    /// The `GET /fleet` document: the fleet's resource economics — per-pool
    /// traffic, borrow flows and idle-time COGS, plus the fleet roll-up
    /// (total COGS and the creation latency spared by warm transfers).
    /// Building the [`Content`] tree is the only part that needs the
    /// controller lock.
    pub fn fleet_doc(&self) -> Content {
        let cost = CostModel::default();
        let mut fleet_requests = 0u64;
        let mut fleet_hits = 0u64;
        let mut fleet_wait = 0.0f64;
        let mut fleet_idle = 0.0f64;
        let pools: Vec<Content> = (0..self.pools.len())
            .map(|i| {
                let stats = self.interval_stats_of(i);
                let requests: u64 = stats.iter().map(|s| s.requests).sum();
                let hits: u64 = stats.iter().map(|s| s.hits).sum();
                let misses: u64 = stats.iter().map(|s| s.misses).sum();
                let wait = stats.last().map_or(0.0, |s| s.cum_wait_secs);
                let hit_rate = if requests > 0 {
                    hits as f64 / requests as f64
                } else {
                    1.0
                };
                let mean_wait = if requests > 0 {
                    wait / requests as f64
                } else {
                    0.0
                };
                let idle = self.idle_cluster_seconds_of(i);
                fleet_requests += requests;
                fleet_hits += hits;
                fleet_wait += wait;
                fleet_idle += idle;
                Content::Map(vec![
                    (
                        "name".to_string(),
                        Content::Str(self.pools[i].id.as_str().to_string()),
                    ),
                    ("requests".to_string(), Content::U64(requests)),
                    ("hits".to_string(), Content::U64(hits)),
                    ("misses".to_string(), Content::U64(misses)),
                    ("hit_rate".to_string(), Content::F64(hit_rate)),
                    ("mean_wait_secs".to_string(), Content::F64(mean_wait)),
                    (
                        "borrowed_in".to_string(),
                        Content::U64(self.borrowed_in_of(i)),
                    ),
                    (
                        "borrowed_out".to_string(),
                        Content::U64(self.borrowed_out_of(i)),
                    ),
                    ("idle_cluster_seconds".to_string(), Content::F64(idle)),
                    (
                        "cogs_dollars".to_string(),
                        Content::F64(cost.cost_of_idle(idle)),
                    ),
                ])
            })
            .collect();
        let fleet_hit_rate = if fleet_requests > 0 {
            fleet_hits as f64 / fleet_requests as f64
        } else {
            1.0
        };
        let fleet_mean_wait = if fleet_requests > 0 {
            fleet_wait / fleet_requests as f64
        } else {
            0.0
        };
        Content::Map(vec![
            ("borrowing".to_string(), Content::Bool(self.borrowing)),
            ("pools".to_string(), Content::Seq(pools)),
            (
                "fleet".to_string(),
                Content::Map(vec![
                    ("requests".to_string(), Content::U64(fleet_requests)),
                    ("hit_rate".to_string(), Content::F64(fleet_hit_rate)),
                    ("mean_wait_secs".to_string(), Content::F64(fleet_mean_wait)),
                    ("borrows".to_string(), Content::U64(self.borrows_total())),
                    (
                        "borrow_saved_secs".to_string(),
                        Content::F64(self.borrow_saved_secs()),
                    ),
                    ("idle_cluster_seconds".to_string(), Content::F64(fleet_idle)),
                    (
                        "cogs_dollars".to_string(),
                        Content::F64(cost.cost_of_idle(fleet_idle)),
                    ),
                ]),
            ),
        ])
    }

    /// [`Controller::fleet_doc`] serialized to a JSON string.
    pub fn fleet_json(&self) -> Result<String, String> {
        serde_json::to_string(&self.fleet_doc()).map_err(|e| format!("fleet document: {e:?}"))
    }

    /// Burn-rate alerts across the fleet: one [`Alert`] per pool whose SLO
    /// severity is Warning or Page, carrying the
    /// [`AlertRule::SloBurnRate`] rule. The controller tick appends these
    /// to the snapshot-derived alerts, so `/status` and `/slo` agree.
    pub fn slo_alerts(&self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for (i, tracker) in self.slo.iter().enumerate() {
            let status = tracker.status();
            if status.severity == Severity::Ok {
                continue;
            }
            let worst = if status.hit.severity >= status.wait.severity {
                ("hit-rate", &status.hit)
            } else {
                ("wait", &status.wait)
            };
            alerts.push(Alert {
                rule: AlertRule::SloBurnRate(self.pools[i].id.as_str().to_string()),
                message: format!(
                    "pool {:?} SLO burn ({}): severity {}, {} objective {:.3}, \
                     burn {:.2}x/{:.2}x over {}s/{}s windows",
                    self.pools[i].id.as_str(),
                    worst.0,
                    status.severity.as_str(),
                    worst.0,
                    worst.1.objective,
                    worst.1.short.burn_rate,
                    worst.1.long.burn_rate,
                    worst.1.short.window_secs,
                    worst.1.long.window_secs,
                ),
            });
        }
        alerts
    }

    fn burn_content(w: &ip_obs::WindowBurn) -> Content {
        // An infinite burn (zero budget with errors) serializes as null —
        // JSON has no Inf, and a schema-stable null beats a parse error.
        let burn = if w.burn_rate.is_finite() {
            Content::F64(w.burn_rate)
        } else {
            Content::Null
        };
        Content::Map(vec![
            ("window_secs".to_string(), Content::U64(w.window_secs)),
            ("bad".to_string(), Content::U64(w.bad)),
            ("total".to_string(), Content::U64(w.total)),
            ("error_rate".to_string(), Content::F64(w.error_rate)),
            ("burn_rate".to_string(), burn),
        ])
    }

    fn objective_content(o: &ip_obs::ObjectiveStatus) -> Content {
        Content::Map(vec![
            ("objective".to_string(), Content::F64(o.objective)),
            ("budget".to_string(), Content::F64(o.budget)),
            ("short".to_string(), Self::burn_content(&o.short)),
            ("long".to_string(), Self::burn_content(&o.long)),
            (
                "severity".to_string(),
                Content::Str(o.severity.as_str().to_string()),
            ),
        ])
    }

    /// The `GET /slo` document: the spec in force plus every pool's
    /// two-objective, two-window burn evaluation. Building the [`Content`]
    /// tree is the only part that needs the controller lock.
    pub fn slo_doc(&self) -> Content {
        let spec = self
            .slo
            .first()
            .map_or_else(SloSpec::default, |t| *t.spec());
        let spec_doc = Content::Map(vec![
            (
                "hit_rate_objective".to_string(),
                Content::F64(spec.hit_rate_objective),
            ),
            (
                "wait_objective_secs".to_string(),
                Content::F64(spec.wait_objective_secs),
            ),
            (
                "wait_compliance".to_string(),
                Content::F64(spec.wait_compliance),
            ),
            (
                "short_window_secs".to_string(),
                Content::U64(spec.short_window_secs),
            ),
            (
                "long_window_secs".to_string(),
                Content::U64(spec.long_window_secs),
            ),
            (
                "page_burn_rate".to_string(),
                Content::F64(spec.page_burn_rate),
            ),
            (
                "warn_burn_rate".to_string(),
                Content::F64(spec.warn_burn_rate),
            ),
        ]);
        let pools = (0..self.pools.len())
            .map(|i| {
                let status = self.slo[i].status();
                Content::Map(vec![
                    (
                        "pool".to_string(),
                        Content::Str(self.pools[i].id.as_str().to_string()),
                    ),
                    ("logical_time".to_string(), Content::U64(status.t)),
                    (
                        "severity".to_string(),
                        Content::Str(status.severity.as_str().to_string()),
                    ),
                    ("hit".to_string(), Self::objective_content(&status.hit)),
                    ("wait".to_string(), Self::objective_content(&status.wait)),
                    (
                        "samples".to_string(),
                        Content::U64(self.slo[i].len() as u64),
                    ),
                ])
            })
            .collect();
        Content::Map(vec![
            ("spec".to_string(), spec_doc),
            ("pools".to_string(), Content::Seq(pools)),
        ])
    }

    /// [`Controller::slo_doc`] serialized to a JSON string.
    pub fn slo_json(&self) -> Result<String, String> {
        serde_json::to_string(&self.slo_doc()).map_err(|e| format!("slo document: {e:?}"))
    }

    /// Closes every pool's integrals at the current watermark and stores
    /// the final per-pool reports; the post-run snapshots are recomputed
    /// from the reports so they match [`Dashboard::snapshot`] exactly.
    /// Idempotent.
    pub fn finalize(&mut self) {
        if let Some(fleet) = self.fleet.take() {
            let dashboard = Dashboard::new(CostModel::default());
            for (i, (_, report)) in fleet.finalize().pools.into_iter().enumerate() {
                self.snapshots[i] = dashboard.snapshot(&report, self.pools[i].end_time as f64);
                self.pools[i].report = Some(report);
            }
        }
    }

    /// Pool `i`'s final report, once [`Controller::finalize`] has run.
    pub fn report_of(&self, i: usize) -> Option<&SimReport> {
        self.pools[i].report.as_ref()
    }

    /// Moves every pool's final report out (daemon teardown), in
    /// registration order.
    pub fn take_reports(&mut self) -> Vec<(PoolId, SimReport)> {
        self.pools
            .iter_mut()
            .filter_map(|p| p.report.take().map(|r| (p.id.clone(), r)))
            .collect()
    }

    /// Recommendation files pool `i`'s pipeline wrote so far, oldest
    /// first.
    pub fn recommendation_history_of(&self, i: usize) -> Vec<RecommendationFile> {
        let store = match (&self.fleet, &self.pools[i].report) {
            (Some(fleet), _) => fleet.stepper(i).config_store(),
            (None, Some(r)) => &r.config_store,
            (None, None) => return Vec::new(),
        };
        store.get_all::<RecommendationFile>("pool-recommendation")
    }

    fn recommendation_files_total(&self) -> u64 {
        (0..self.pools.len())
            .map(|i| self.recommendation_history_of(i).len() as u64)
            .sum()
    }

    /// The `/pools` document: every pool's identity and live settings.
    /// Building the [`Content`] tree is the only part that needs the
    /// controller lock; serialization happens on the caller's time.
    pub fn pools_doc(&self) -> Content {
        Content::Map(vec![(
            "pools".to_string(),
            Content::Seq((0..self.pools.len()).map(|i| self.pool_entry(i)).collect()),
        )])
    }

    /// [`Controller::pools_doc`] serialized to a JSON string.
    pub fn pools_json(&self) -> Result<String, String> {
        serde_json::to_string(&self.pools_doc()).map_err(|e| format!("pools document: {e:?}"))
    }

    fn pool_entry(&self, i: usize) -> Content {
        let p = &self.pools[i];
        let model = match &p.model {
            Some(m) => Content::Str(m.clone()),
            None => Content::Null,
        };
        let done = self.pool_done(i);
        let watermark = match &self.fleet {
            Some(fleet) => fleet.stepper(i).watermark(),
            None => p.end_time,
        };
        Content::Map(vec![
            ("name".to_string(), Content::Str(p.id.as_str().to_string())),
            ("model".to_string(), model),
            ("alpha".to_string(), Content::F64(p.alpha)),
            ("autotune".to_string(), Content::Bool(p.autotune)),
            ("logical_time".to_string(), Content::U64(watermark)),
            ("end_time".to_string(), Content::U64(p.end_time)),
            (
                "intervals_processed".to_string(),
                Content::U64(self.processed_intervals_of(i) as u64),
            ),
            (
                "intervals_total".to_string(),
                Content::U64(p.intervals_total as u64),
            ),
            ("done".to_string(), Content::Bool(done)),
            ("injected_requests".to_string(), Content::U64(p.injected)),
            ("reloads".to_string(), Content::U64(p.reloads)),
            (
                "borrowed_in".to_string(),
                Content::U64(self.borrowed_in_of(i)),
            ),
            (
                "borrowed_out".to_string(),
                Content::U64(self.borrowed_out_of(i)),
            ),
            (
                "cogs_dollars".to_string(),
                Content::F64(CostModel::default().cost_of_idle(self.idle_cluster_seconds_of(i))),
            ),
            (
                "recommendation_files".to_string(),
                Content::U64(self.recommendation_history_of(i).len() as u64),
            ),
            ("metrics".to_string(), self.snapshots[i].to_content()),
        ])
    }

    /// The `/status` document. Single-pool daemons keep every pre-fleet
    /// field with its pre-fleet meaning; fleets aggregate (summed counters,
    /// min watermark, max end time, merged metrics) and report
    /// `model`/`alpha` as `null` — per-pool values live in the `pools`
    /// array either way. Building the [`Content`] tree is the only part
    /// that needs the controller lock; serialization happens on the
    /// caller's time.
    pub fn status_doc(&self, state: &str) -> Content {
        let lease = match self.leases.get(self.lease_id) {
            Some(l) => Content::Map(vec![
                ("holder".to_string(), Content::Str("controller".into())),
                ("granted_at".to_string(), Content::U64(l.granted_at)),
                ("expires_at".to_string(), Content::U64(l.expires_at)),
                ("renewals".to_string(), Content::U64(l.renewals)),
            ]),
            None => Content::Null,
        };
        let single = self.pools.len() == 1;
        let model = match (&self.pools[0].model, single) {
            (Some(m), true) => Content::Str(m.clone()),
            _ => Content::Null,
        };
        let alpha = if single {
            Content::F64(self.pools[0].alpha)
        } else {
            Content::Null
        };
        let merged = merge_snapshots(&self.snapshots);
        Content::Map(vec![
            ("state".to_string(), Content::Str(state.to_string())),
            ("logical_time".to_string(), Content::U64(self.watermark())),
            ("end_time".to_string(), Content::U64(self.end_time)),
            (
                "intervals_processed".to_string(),
                Content::U64(self.processed_intervals() as u64),
            ),
            (
                "intervals_total".to_string(),
                Content::U64(self.intervals_total() as u64),
            ),
            ("model".to_string(), model),
            ("alpha".to_string(), alpha),
            (
                "injected_requests".to_string(),
                Content::U64(self.injected()),
            ),
            ("reloads".to_string(), Content::U64(self.reloads())),
            (
                "recommendation_files".to_string(),
                Content::U64(self.recommendation_files_total()),
            ),
            ("lease".to_string(), lease),
            (
                "lapsed_leases".to_string(),
                Content::U64(self.leases.lapsed_total),
            ),
            ("metrics".to_string(), merged.to_content()),
            (
                "cogs".to_string(),
                Content::Map(vec![
                    (
                        "idle_cluster_seconds".to_string(),
                        Content::F64(
                            (0..self.pools.len())
                                .map(|i| self.idle_cluster_seconds_of(i))
                                .sum(),
                        ),
                    ),
                    (
                        "dollars".to_string(),
                        Content::F64(
                            CostModel::default().cost_of_idle(
                                (0..self.pools.len())
                                    .map(|i| self.idle_cluster_seconds_of(i))
                                    .sum(),
                            ),
                        ),
                    ),
                    ("borrows".to_string(), Content::U64(self.borrows_total())),
                    (
                        "borrow_saved_secs".to_string(),
                        Content::F64(self.borrow_saved_secs()),
                    ),
                ]),
            ),
            ("alerts".to_string(), self.alerts.to_content()),
            (
                "pools".to_string(),
                Content::Seq((0..self.pools.len()).map(|i| self.pool_entry(i)).collect()),
            ),
        ])
    }

    /// [`Controller::status_doc`] serialized to a JSON string.
    pub fn status_json(&self, state: &str) -> Result<String, String> {
        serde_json::to_string(&self.status_doc(state))
            .map_err(|e| format!("status document: {e:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(n: usize) -> TimeSeries {
        TimeSeries::new(30, (0..n).map(|i| f64::from(i as u32 % 4)).collect()).unwrap()
    }

    fn static_pool(n: usize) -> PoolServeConfig {
        PoolServeConfig {
            sim: SimConfig {
                default_pool_target: 2,
                tau_jitter_secs: 0,
                ..Default::default()
            },
            ..PoolServeConfig::new(demand(n))
        }
    }

    fn static_controller(n: usize) -> Controller {
        Controller::new(vec![static_pool(n)], 300).unwrap()
    }

    #[test]
    fn stepwise_controller_matches_offline_simulation() {
        let sim = SimConfig {
            default_pool_target: 3,
            seed: 7,
            ..Default::default()
        };
        let d = demand(60);
        let mut ctl = Controller::new(
            vec![PoolServeConfig {
                sim: sim.clone(),
                ..PoolServeConfig::new(d.clone())
            }],
            300,
        )
        .unwrap();
        // Arbitrary pacing, as the wall clock would produce.
        for until in [13, 14, 400, 401, 999, u64::MAX] {
            ctl.step_to(until);
        }
        assert!(ctl.is_done());
        ctl.finalize();
        let (_, live) = ctl.take_reports().pop().unwrap();
        let offline = ip_sim::Simulation::new(sim, None).run(&d).unwrap();
        assert_eq!(live.hits, offline.hits);
        assert_eq!(live.total_wait_secs, offline.total_wait_secs);
        assert_eq!(live.interval_stats, offline.interval_stats);
    }

    #[test]
    fn multi_thread_daemon_matches_one_thread() {
        // The daemon's incremental tick path over a 4-worker fleet: same
        // per-pool reports and per-pool interval stats (the dashboard
        // streams' source) as a one-worker controller, at any pacing.
        let build = |threads: usize| {
            let mut ctl = Controller::new(
                (0..3)
                    .map(|k| PoolServeConfig {
                        sim: SimConfig {
                            default_pool_target: 2 + k,
                            seed: 11 + u64::from(k),
                            ip_worker: Some(ip_sim::IpWorkerConfig::default()),
                            ..Default::default()
                        },
                        id: Some(format!("pool-{k}")),
                        model: Some("baseline".into()),
                        ..PoolServeConfig::new(demand(40 + 10 * k as usize))
                    })
                    .collect(),
                300,
            )
            .unwrap();
            ctl.fleet = ctl.fleet.take().map(|f| f.with_threads(threads));
            ctl
        };
        let mut one = build(1);
        let mut four = build(4);
        for until in [13, 250, 251, 900, 1700, u64::MAX] {
            one.step_to(until);
            four.step_to(until);
            for i in 0..3 {
                assert_eq!(
                    one.interval_stats_of(i),
                    four.interval_stats_of(i),
                    "pool {i} interval stats diverged before until={until}"
                );
            }
        }
        assert!(one.is_done() && four.is_done());
        one.finalize();
        four.finalize();
        for ((ida, a), (idb, b)) in one.take_reports().into_iter().zip(four.take_reports()) {
            assert_eq!(ida, idb);
            assert_eq!(a.hits, b.hits, "{ida}: hits");
            assert_eq!(a.total_wait_secs, b.total_wait_secs, "{ida}: wait");
            assert_eq!(a.interval_stats, b.interval_stats, "{ida}: stats");
            assert_eq!(
                a.applied_target_timeline, b.applied_target_timeline,
                "{ida}: targets"
            );
        }
    }

    /// The final report fields the bit-identity tests compare.
    fn assert_same_report(a: &SimReport, b: &SimReport, what: &str) {
        assert_eq!(a.total_requests, b.total_requests, "{what}: requests");
        assert_eq!(a.hits, b.hits, "{what}: hits");
        assert_eq!(a.misses, b.misses, "{what}: misses");
        assert_eq!(a.total_wait_secs, b.total_wait_secs, "{what}: wait");
        assert_eq!(
            a.idle_cluster_seconds, b.idle_cluster_seconds,
            "{what}: idle"
        );
        assert_eq!(
            a.provisioning_cluster_seconds, b.provisioning_cluster_seconds,
            "{what}: provisioning"
        );
        assert_eq!(a.clusters_created, b.clusters_created, "{what}: created");
        assert_eq!(a.borrowed_in, b.borrowed_in, "{what}: borrowed in");
        assert_eq!(a.borrowed_out, b.borrowed_out, "{what}: borrowed out");
        assert_eq!(a.borrow_records, b.borrow_records, "{what}: borrows");
        assert_eq!(a.interval_stats, b.interval_stats, "{what}: stats");
    }

    /// Replays `pools` with their demand swapped for `demands` in one
    /// `step_to(u64::MAX)` and returns the final reports.
    fn one_shot(
        pools: &[PoolServeConfig],
        demands: &[TimeSeries],
        matrix: Option<CompatibilityMatrix>,
    ) -> Vec<(PoolId, SimReport)> {
        let pools = pools
            .iter()
            .zip(demands)
            .map(|(p, d)| PoolServeConfig {
                demand: d.clone(),
                ..p.clone()
            })
            .collect();
        let mut ctl = Controller::with_matrix(pools, 300, matrix).unwrap();
        ctl.step_to(u64::MAX);
        ctl.finalize();
        ctl.take_reports()
    }

    /// `is_done` is the injection cut-off: a pool accepts arrivals at every
    /// step before the controller is done and refuses them (409 "trace
    /// complete") from the step that makes it done, even while events
    /// before the trace end are still queued.
    #[test]
    fn a_pool_refuses_injects_exactly_when_the_controller_is_done() {
        let n = 40;
        let pools: Vec<PoolServeConfig> = ["east", "west"]
            .into_iter()
            .map(|name| PoolServeConfig {
                sim: SimConfig {
                    default_pool_target: 2,
                    // Replenishment lands 10 s after the last interval's
                    // hand-offs: still before the trace end at n·30 s.
                    tau_secs: 10,
                    tau_jitter_secs: 0,
                    ..Default::default()
                },
                ..PoolServeConfig::named(name, demand(n))
            })
            .collect();
        let mut ctl = Controller::new(pools.clone(), 300).unwrap();
        let mut t = 0;
        loop {
            let done = ctl.is_done();
            for i in 0..2 {
                let answer = ctl.inject_batch(&[(i, 1, None)]);
                match answer {
                    Ok(_) => assert!(!done, "pool {i} accepted an inject after is_done at t={t}"),
                    Err(err) => {
                        assert!(
                            done,
                            "pool {i} refused at t={t} before is_done: {}",
                            err.message
                        );
                        assert_eq!(err.status, 409, "{}", err.message);
                        assert!(err.message.contains("trace complete"), "{}", err.message);
                    }
                }
            }
            if done {
                break;
            }
            ctl.step_to(t);
            t += 30;
        }
        assert_eq!(t, n as u64 * 30, "done right after the last interval");
        assert!(
            ctl.fleet.as_ref().is_some_and(|f| !f.is_done()),
            "a replenishment before the trace end is still queued"
        );
        assert_eq!(ctl.injected(), 2 * n as u64);
        let demands: Vec<TimeSeries> = (0..2)
            .map(|i| ctl.effective_demand(i).unwrap().clone())
            .collect();
        ctl.step_to(u64::MAX);
        ctl.finalize();
        for ((id, live), (_, offline)) in ctl
            .take_reports()
            .iter()
            .zip(one_shot(&pools, &demands, None))
        {
            assert_same_report(live, &offline, id.as_str());
        }
    }

    /// The benchmark's in-process loop without its clock: three pools
    /// under a permissive matrix, 41 batches of 16 round-robin entries per
    /// tick, every entry on its pool's last interval, one interval per
    /// tick until `is_done()`. No batch is refused, and the final reports
    /// equal a one-shot replay of the effective demand.
    #[test]
    fn injecting_until_done_never_sees_a_conflict() {
        const BATCH: usize = 16;
        const BATCHES_PER_TICK: usize = 41;
        let n = 48;
        let names = ["s0", "s1", "s2"];
        let pools: Vec<PoolServeConfig> = names
            .iter()
            .zip(0u64..)
            .map(|(name, k)| PoolServeConfig {
                sim: SimConfig {
                    default_pool_target: 2 + k as u32,
                    seed: 5 + k,
                    ..Default::default()
                },
                ..PoolServeConfig::named(*name, demand(n))
            })
            .collect();
        let matrix = || {
            let mut m = CompatibilityMatrix::new();
            for from in names {
                for to in names {
                    if from != to {
                        m = m.edge(from, to, 10);
                    }
                }
            }
            m
        };
        let mut ctl = Controller::with_matrix(pools.clone(), 300, Some(matrix())).unwrap();
        let items: Vec<(usize, u64, Option<usize>)> = (0..BATCH)
            .map(|j| (j % names.len(), 1, Some(n - 1)))
            .collect();
        let mut logical = 0;
        let mut ticks = 0;
        while !ctl.is_done() {
            for _ in 0..BATCHES_PER_TICK {
                if let Err(err) = ctl.inject_batch(&items) {
                    panic!("tick {ticks}: {} {}", err.status, err.message);
                }
            }
            logical += 30;
            ctl.step_to(logical);
            ticks += 1;
        }
        assert_eq!(ticks, n - 1, "the last interval lands on the last tick");
        assert_eq!(ctl.injected(), (ticks * BATCHES_PER_TICK * BATCH) as u64);
        let demands: Vec<TimeSeries> = (0..names.len())
            .map(|i| ctl.effective_demand(i).unwrap().clone())
            .collect();
        ctl.step_to(u64::MAX);
        ctl.finalize();
        let live = ctl.take_reports();
        assert!(
            live.iter().any(|(_, r)| r.borrowed_in > 0),
            "the matrix lends"
        );
        for ((id, live), (_, offline)) in
            live.iter().zip(one_shot(&pools, &demands, Some(matrix())))
        {
            assert_same_report(live, &offline, id.as_str());
        }
    }

    #[test]
    fn injection_lands_at_or_after_the_frontier() {
        let mut ctl = static_controller(40);
        ctl.step_to(10 * 30); // intervals 0..=10 processed
        let processed = ctl.processed_intervals();
        assert!(processed >= 10);
        // Asking for an already-processed interval clamps forward.
        let landed = ctl.inject(0, 5, Some(0)).unwrap();
        assert_eq!(landed, processed);
        // Explicit future interval is honoured.
        assert_eq!(ctl.inject(0, 2, Some(30)).unwrap(), 30);
        // Beyond the trace is rejected; zero counts are rejected.
        assert!(ctl.inject(0, 1, Some(40)).is_err());
        assert!(ctl.inject(0, 0, None).is_err());
        assert_eq!(ctl.injected(), 7);
        assert_eq!(ctl.effective_demand(0).unwrap().values()[30], 2.0 + 2.0);
    }

    #[test]
    fn injection_rejected_after_completion() {
        let mut ctl = static_controller(10);
        ctl.step_to(u64::MAX);
        assert!(ctl.is_done());
        assert_eq!(ctl.inject(0, 1, None).unwrap_err().status, 409);
        ctl.finalize();
        assert_eq!(ctl.inject(0, 1, None).unwrap_err().status, 409);
    }

    #[test]
    fn reload_swaps_models_and_rejects_static() {
        let mut ctl = static_controller(10);
        assert_eq!(ctl.reload(0, "baseline", 0.5).unwrap_err().status, 409);

        let sim = SimConfig {
            ip_worker: Some(ip_sim::IpWorkerConfig::default()),
            ..Default::default()
        };
        let mut ctl = Controller::new(
            vec![PoolServeConfig {
                sim,
                model: Some("baseline".into()),
                ..PoolServeConfig::new(demand(20))
            }],
            300,
        )
        .unwrap();
        assert!(ctl.reload(0, "nope", 0.3).is_err());
        ctl.reload(0, "ssa", 0.4).unwrap();
        assert_eq!(ctl.reloads(), 1);
        assert!(ctl
            .status_json("running")
            .unwrap()
            .contains("\"model\":\"ssa\""));
    }

    #[test]
    fn lease_heartbeat_and_lapse_recovery() {
        let mut ctl = static_controller(10);
        ctl.tick_lease(100);
        ctl.tick_lease(200);
        assert_eq!(ctl.lapsed_leases(), 0);
        // A stall past the lease horizon lapses it; the next heartbeat
        // replaces the lease and counts the lapse.
        ctl.tick_lease(10_000);
        assert_eq!(ctl.lapsed_leases(), 1);
        ctl.tick_lease(10_100);
        assert_eq!(ctl.lapsed_leases(), 1);
    }

    #[test]
    fn status_json_is_parseable_and_complete() {
        let mut ctl = static_controller(20);
        ctl.step_to(5 * 30);
        let doc: Content = serde_json::from_str(&ctl.status_json("running").unwrap()).unwrap();
        assert_eq!(doc.field("state"), Some(&Content::Str("running".into())));
        assert_eq!(doc.field("end_time").and_then(Content::as_u64), Some(600));
        assert!(doc.field("metrics").is_some());
        assert!(matches!(doc.field("alerts"), Some(Content::Seq(_))));
        assert!(doc
            .field("lease")
            .and_then(|l| l.field("expires_at"))
            .is_some());
        // The fleet refactor adds a per-pool array even for one pool.
        let Some(Content::Seq(pools)) = doc.field("pools") else {
            panic!("status must carry a pools array");
        };
        assert_eq!(pools.len(), 1);
        assert_eq!(
            pools[0].field("name"),
            Some(&Content::Str("default".into()))
        );
    }

    #[test]
    fn fleet_controller_routes_by_pool_name() {
        let mut ctl = Controller::new(
            vec![
                PoolServeConfig::named("east", demand(20)),
                PoolServeConfig::named("west", demand(40)),
            ],
            300,
        )
        .unwrap();
        assert_eq!(ctl.pool_count(), 2);
        assert_eq!(ctl.pool_names(), ["east", "west"]);
        assert_eq!(ctl.resolve(Some("west")), Ok(1));
        assert_eq!(ctl.resolve(Some("nope")).unwrap_err().status, 404);
        // Ambiguous on a fleet: the body must name a pool.
        assert_eq!(ctl.resolve(None).unwrap_err().status, 400);

        // Injection is per pool.
        ctl.inject(1, 3, Some(5)).unwrap();
        assert_eq!(ctl.effective_demand(1).unwrap().values()[5], 1.0 + 3.0);
        assert_eq!(ctl.effective_demand(0).unwrap().values()[5], 1.0);
        assert_eq!(ctl.injected(), 3);

        // Aggregates span the fleet; per-pool entries stay separate.
        assert_eq!(ctl.intervals_total(), 60);
        let doc: Content = serde_json::from_str(&ctl.status_json("running").unwrap()).unwrap();
        // On a fleet the top-level model/alpha are null.
        assert_eq!(doc.field("model"), Some(&Content::Null));
        assert_eq!(doc.field("alpha"), Some(&Content::Null));
        let Some(Content::Seq(pools)) = doc.field("pools") else {
            panic!("status must carry a pools array");
        };
        assert_eq!(pools.len(), 2);
        assert_eq!(
            pools[1]
                .field("injected_requests")
                .and_then(Content::as_u64),
            Some(3)
        );
        assert_eq!(
            pools[0]
                .field("injected_requests")
                .and_then(Content::as_u64),
            Some(0)
        );
    }

    #[test]
    fn degraded_pool_pages_through_slo_trackers() {
        // A pool with target 0 serves nothing from the pool: every request
        // is a miss. Against a 98% hit objective the burn rate is 50x in
        // both windows — a page.
        let mut ctl = Controller::new(
            vec![PoolServeConfig {
                sim: SimConfig {
                    default_pool_target: 0,
                    tau_jitter_secs: 0,
                    ..Default::default()
                },
                ..PoolServeConfig::new(demand(40))
            }],
            300,
        )
        .unwrap();
        ctl.set_slo_spec(SloSpec {
            hit_rate_objective: 0.98,
            ..SloSpec::default()
        });
        ctl.step_to(u64::MAX);
        ctl.feed_slo();
        let status = ctl.slo_status_of(0);
        assert_eq!(status.severity, Severity::Page, "{status:?}");
        let alerts = ctl.slo_alerts();
        assert_eq!(alerts.len(), 1);
        assert!(matches!(&alerts[0].rule, AlertRule::SloBurnRate(p) if p == "default"));
        assert!(alerts[0].message.contains("page"), "{}", alerts[0].message);

        // The /slo document carries the same verdict, parseably.
        let doc: Content = serde_json::from_str(&ctl.slo_json().unwrap()).unwrap();
        let Some(Content::Seq(pools)) = doc.field("pools") else {
            panic!("slo doc must carry a pools array");
        };
        assert_eq!(
            pools[0].field("severity"),
            Some(&Content::Str("page".into()))
        );
        assert!(pools[0]
            .field("hit")
            .and_then(|h| h.field("short"))
            .is_some());
    }

    #[test]
    fn healthy_pool_slo_is_ok_and_feed_is_idempotent() {
        // Target 8 over a ≤3-request demand: after warmup every request
        // hits, so the short window is clean and no alert fires (warmup
        // misses age out of the paging condition, which needs BOTH
        // windows hot).
        let mut ctl = Controller::new(
            vec![PoolServeConfig {
                sim: SimConfig {
                    default_pool_target: 8,
                    tau_jitter_secs: 0,
                    ..Default::default()
                },
                ..PoolServeConfig::new(demand(40))
            }],
            300,
        )
        .unwrap();
        ctl.step_to(u64::MAX);
        ctl.feed_slo();
        let samples = ctl.slo_status_of(0);
        ctl.feed_slo(); // no new intervals → no new samples
        assert_eq!(ctl.slo_status_of(0), samples);
        assert!(ctl.slo_alerts().is_empty());
        // Finalize keeps the SLO view intact (report-backed stats).
        ctl.finalize();
        ctl.feed_slo();
        assert_eq!(ctl.slo_status_of(0), samples);
    }

    /// Two pools: "busy" spikes over a 1-cluster pool while "lazy" idles
    /// over 6 warm clusters — the canonical borrow fixture.
    fn spike_pools() -> Vec<PoolServeConfig> {
        let mut spike = vec![0.0; 20];
        spike[4] = 6.0;
        let cfg = |target: u32, seed: u64| SimConfig {
            default_pool_target: target,
            tau_jitter_secs: 0,
            seed,
            ..Default::default()
        };
        vec![
            PoolServeConfig {
                sim: cfg(1, 1),
                ..PoolServeConfig::named("busy", TimeSeries::new(30, spike).unwrap())
            },
            PoolServeConfig {
                sim: cfg(6, 2),
                ..PoolServeConfig::named("lazy", TimeSeries::new(30, vec![0.0; 20]).unwrap())
            },
        ]
    }

    #[test]
    fn matrix_daemon_borrows_and_reports_fleet_economics() {
        let matrix = CompatibilityMatrix::new().edge("lazy", "busy", 10);
        let mut ctl = Controller::with_matrix(spike_pools(), 300, Some(matrix)).unwrap();
        assert!(ctl.borrowing_enabled());
        ctl.step_to(u64::MAX);
        assert_eq!(ctl.borrows_total(), 5);
        assert_eq!(ctl.borrowed_in_of(0), 5);
        assert_eq!(ctl.borrowed_out_of(1), 5);
        assert_eq!(ctl.borrow_records_of(0).len(), 5);
        // Each borrow pays 10 s of transfer instead of τ = 90 s.
        assert!((ctl.borrow_saved_secs() - 5.0 * 80.0).abs() < 1e-9);

        let doc: Content = serde_json::from_str(&ctl.fleet_json().unwrap()).unwrap();
        assert_eq!(doc.field("borrowing"), Some(&Content::Bool(true)));
        let fleet = doc.field("fleet").unwrap();
        assert_eq!(fleet.field("borrows").and_then(Content::as_u64), Some(5));
        assert!(fleet.field("cogs_dollars").is_some());
        let Some(Content::Seq(pools)) = doc.field("pools") else {
            panic!("fleet doc must carry a pools array");
        };
        assert_eq!(
            pools[0].field("borrowed_in").and_then(Content::as_u64),
            Some(5)
        );
        assert_eq!(
            pools[1].field("borrowed_out").and_then(Content::as_u64),
            Some(5)
        );

        // The flight-recorder section lists every transfer.
        let borrows: Content = serde_json::from_str(&ctl.borrows_json().unwrap()).unwrap();
        assert_eq!(borrows.field("total").and_then(Content::as_u64), Some(5));

        // /status carries the cost roll-up.
        let status: Content = serde_json::from_str(&ctl.status_json("running").unwrap()).unwrap();
        let cogs = status.field("cogs").expect("status must carry cogs");
        assert_eq!(cogs.field("borrows").and_then(Content::as_u64), Some(5));

        // Finalize flips the accessors to the report-backed path: borrow
        // flows are untouched (the idle integrals close at end_time, so
        // COGS grows by the tail of the trace and nothing else changes).
        let live_idle = ctl.idle_cluster_seconds_of(0);
        let live_saved = ctl.borrow_saved_secs();
        ctl.finalize();
        assert_eq!(ctl.borrows_total(), 5);
        assert_eq!(ctl.borrowed_in_of(0), 5);
        assert_eq!(ctl.borrowed_out_of(1), 5);
        assert_eq!(ctl.borrow_records_of(0).len(), 5);
        assert_eq!(ctl.borrow_saved_secs(), live_saved);
        assert!(ctl.idle_cluster_seconds_of(0) >= live_idle);
    }

    #[test]
    fn matrix_free_daemon_stays_borrow_free() {
        let mut ctl = Controller::new(spike_pools(), 300).unwrap();
        assert!(!ctl.borrowing_enabled());
        ctl.step_to(u64::MAX);
        assert_eq!(ctl.borrows_total(), 0);
        assert_eq!(ctl.borrow_saved_secs(), 0.0);
        let doc: Content = serde_json::from_str(&ctl.fleet_json().unwrap()).unwrap();
        assert_eq!(doc.field("borrowing"), Some(&Content::Bool(false)));
        // An explicitly empty matrix is the same daemon.
        let empty =
            Controller::with_matrix(spike_pools(), 300, Some(CompatibilityMatrix::new())).unwrap();
        assert!(!empty.borrowing_enabled());
    }

    #[test]
    fn duplicate_pool_names_are_rejected() {
        let err = Controller::new(
            vec![
                PoolServeConfig::named("a", demand(10)),
                PoolServeConfig::named("a", demand(10)),
            ],
            300,
        )
        .err()
        .unwrap();
        assert!(err.contains("duplicate"), "{err}");
    }
}
