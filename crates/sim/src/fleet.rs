//! A fleet of pools advanced in one merged logical-time event order.
//!
//! [`FleetSim`] owns one [`SimStepper`] per pool and presents their event
//! streams as a single total order: logical time first, pool registration
//! order on ties. Pools only couple through *output ordering*, never
//! through simulation state, so one driver produces that order (see
//! DESIGN.md §13): each `step_until` is an epoch in which every pool's
//! stepper runs to the epoch boundary independently on `ip-par` workers,
//! buffering its metric ops and logical events in an [`ip_obs::capture`]
//! window; the caller then folds the buffers back into the shared
//! registry/trace with a deterministic merge on `(time, registration
//! index)`. A one-pool fleet steps its only member inline on the caller
//! thread with no capture window — folding a single buffer would change
//! nothing. With a borrow matrix, epochs are cut at demand-interval times
//! so misses resolve across pools between epochs.
//!
//! Because each pool's state (clusters, stores, RNG, interval stats) lives
//! entirely inside its own stepper and only ever mutates while *that*
//! stepper processes an event, neither the epoch pacing nor the worker
//! count can change any pool's outcome: an isolated N-pool fleet is
//! bit-identical to N independent [`Simulation::run`]s (reports, metric
//! bytes, and the event stream merged on `(time, pool index)`) under any
//! `IP_THREADS`. These invariants are pinned by tests (`tests/fleet.rs`,
//! `tests/fleet_parallel.rs`, `tests/fleet_obs_identity.rs`,
//! `tests/fleet_borrow.rs`).

use crate::borrow::{CompatibilityMatrix, BORROW_BUCKETS};
use crate::engine::{SimConfig, SimReport, SimStepper};
use crate::{BoxedProvider, PoolId, RecommendationProvider, Result, SimError};
use ip_timeseries::TimeSeries;

/// One pool's registration into a [`FleetSim`]: identity, simulator
/// configuration, demand trace, and an optional recommendation provider
/// feeding its Intelligent Pooling Worker.
pub struct FleetPool {
    /// Pool identity (keys reports, metrics, and daemon routes).
    pub id: PoolId,
    /// Simulator configuration for this pool.
    pub config: SimConfig,
    /// The pool's demand trace.
    pub demand: TimeSeries,
    /// Per-pool recommendation provider (its own α′ loop when autotuned).
    pub provider: Option<BoxedProvider>,
}

impl FleetPool {
    /// A pool whose metrics carry a `pool="<id>"` label: `config.pool` is
    /// set from `id`.
    pub fn new(id: impl Into<PoolId>, config: SimConfig, demand: TimeSeries) -> Self {
        let id = id.into();
        let mut config = config;
        config.pool = Some(id.clone());
        Self {
            id,
            config,
            demand,
            provider: None,
        }
    }

    /// A pool that keeps `config.pool` exactly as given — `None` leaves
    /// every metric series unlabeled, which is how a one-pool fleet stays
    /// bit-identical to the pre-fleet daemon's `/metrics`. The id defaults
    /// to the configured pool name or `"default"`.
    pub fn anonymous(config: SimConfig, demand: TimeSeries) -> Self {
        let id = config
            .pool
            .clone()
            .unwrap_or_else(|| PoolId::new("default"));
        Self {
            id,
            config,
            demand,
            provider: None,
        }
    }

    /// Attaches a recommendation provider.
    pub fn with_provider(mut self, provider: BoxedProvider) -> Self {
        self.provider = Some(provider);
        self
    }
}

struct Member {
    id: PoolId,
    demand: TimeSeries,
    provider: Option<BoxedProvider>,
    stepper: SimStepper,
}

impl Member {
    fn step_until(&mut self, until: u64) -> usize {
        let provider = self
            .provider
            .as_mut()
            .map(|p| p.as_mut() as &mut dyn RecommendationProvider);
        self.stepper.step_until(&self.demand, provider, until)
    }
}

/// N per-pool event loops merged into one global logical-time order.
pub struct FleetSim {
    members: Vec<Member>,
    /// `ip-par` workers per multi-pool epoch.
    threads: usize,
    /// Cross-pool borrowing (DESIGN.md §17). `None` — the default, and the
    /// state an empty matrix normalizes to — keeps every pool isolated on
    /// exactly the pre-borrowing code paths.
    matrix: Option<CompatibilityMatrix>,
    /// Matrix edges compiled to `(requester index, donor index, latency)`,
    /// in declaration order (the donor-search order).
    compiled_edges: Vec<(usize, usize, u64)>,
    /// Per-member donation floor (0 = donate down to empty).
    floors: Vec<usize>,
    /// Completion times (`resolution + latency`) of borrows in flight —
    /// the `max_concurrent_borrows` guardrail's ledger.
    in_flight_borrows: Vec<u64>,
}

impl FleetSim {
    /// Validates and builds one stepper per pool. Errors on an empty
    /// fleet, duplicate pool ids, duplicate metric labels (two pools
    /// sharing a `config.pool` value — including two unlabeled pools —
    /// would alias metric series, and the parallel fold must never reorder
    /// float accumulation within a series), or any per-pool config/demand
    /// error (prefixed with the pool name).
    pub fn new(pools: Vec<FleetPool>) -> Result<Self> {
        if pools.is_empty() {
            return Err(SimError::InvalidConfig("fleet has no pools".into()));
        }
        for (k, pool) in pools.iter().enumerate() {
            if pools[..k].iter().any(|p| p.id == pool.id) {
                return Err(SimError::InvalidConfig(format!(
                    "duplicate pool id {:?}",
                    pool.id.as_str()
                )));
            }
            if let Some(prev) = pools[..k]
                .iter()
                .find(|p| p.config.pool == pool.config.pool)
            {
                return Err(SimError::InvalidConfig(format!(
                    "pools {:?} and {:?} share the metric label {:?}; per-pool series must be disjoint",
                    prev.id.as_str(),
                    pool.id.as_str(),
                    pool.config.pool.as_ref().map(|p| p.as_str())
                )));
            }
        }
        let mut members = Vec::with_capacity(pools.len());
        for pool in pools {
            let stepper = SimStepper::new(pool.config, &pool.demand).map_err(|e| {
                SimError::InvalidConfig(format!("pool {:?}: {e}", pool.id.as_str()))
            })?;
            members.push(Member {
                id: pool.id,
                demand: pool.demand,
                provider: pool.provider,
                stepper,
            });
        }
        Ok(Self {
            members,
            threads: ip_par::num_threads(),
            matrix: None,
            compiled_edges: Vec::new(),
            floors: Vec::new(),
            in_flight_borrows: Vec::new(),
        })
    }

    /// Enables cross-pool borrowing under `matrix` (builder form). See
    /// [`set_matrix`](FleetSim::set_matrix).
    pub fn with_matrix(mut self, matrix: CompatibilityMatrix) -> Result<Self> {
        self.set_matrix(matrix)?;
        Ok(self)
    }

    /// Enables cross-pool borrowing under `matrix`. Validates every edge
    /// (both endpoints registered, no self-loops, `0 < latency <` the
    /// requester's `tau_secs` — borrowing must beat creating) and every
    /// donation-floor pool name; an empty matrix normalizes to borrowing
    /// off. Call before stepping: enabling the matrix switches every pool
    /// to the epoch-boundary miss protocol and pre-registers the per-edge
    /// `ip_sim_borrows_total` / `ip_sim_borrow_latency_seconds` series.
    pub fn set_matrix(&mut self, matrix: CompatibilityMatrix) -> Result<()> {
        if matrix.is_empty() {
            self.matrix = None;
            self.compiled_edges.clear();
            self.floors.clear();
            for m in &mut self.members {
                m.stepper.set_defer_misses(false);
            }
            return Ok(());
        }
        let mut compiled = Vec::with_capacity(matrix.edges.len());
        for edge in &matrix.edges {
            let describe = format!("borrow edge {:?} -> {:?}", edge.from, edge.to);
            let from = self.index_of(&edge.from).ok_or_else(|| {
                SimError::InvalidConfig(format!("unknown pool {:?} in {describe}", edge.from))
            })?;
            let to = self.index_of(&edge.to).ok_or_else(|| {
                SimError::InvalidConfig(format!("unknown pool {:?} in {describe}", edge.to))
            })?;
            if from == to {
                return Err(SimError::InvalidConfig(format!(
                    "{describe} is a self-loop"
                )));
            }
            let tau = self.members[to].stepper.config().tau_secs;
            if edge.latency_secs == 0 || edge.latency_secs >= tau {
                return Err(SimError::InvalidConfig(format!(
                    "{describe}: latency {}s must be > 0 and < the requester's tau ({tau}s)",
                    edge.latency_secs
                )));
            }
            compiled.push((to, from, edge.latency_secs));
        }
        for pool in matrix.donation_floors.keys() {
            if self.index_of(pool).is_none() {
                return Err(SimError::InvalidConfig(format!(
                    "unknown pool {pool:?} in donation floors"
                )));
            }
        }
        self.floors = self
            .members
            .iter()
            .map(|m| matrix.floor_of(m.id.as_str()))
            .collect();
        self.compiled_edges = compiled;
        for m in &mut self.members {
            m.stepper.set_defer_misses(true);
        }
        if ip_obs::enabled() {
            // Pre-register every edge's series so a borrow-enabled run
            // exposes them at zero even before the first borrow (the same
            // contract the per-pool counters follow).
            for edge in &matrix.edges {
                let bl = [("pool", edge.to.as_str()), ("from", edge.from.as_str())];
                ip_obs::counter_add("ip_sim_borrows_total", &bl, 0.0);
                ip_obs::declare_histogram("ip_sim_borrow_latency_seconds", &bl, &BORROW_BUCKETS);
            }
        }
        self.matrix = Some(matrix);
        Ok(())
    }

    /// The compatibility matrix in force, if borrowing is enabled.
    pub fn matrix(&self) -> Option<&CompatibilityMatrix> {
        self.matrix.as_ref()
    }

    /// `true` when a non-empty compatibility matrix is in force.
    pub fn borrowing_enabled(&self) -> bool {
        self.matrix.is_some()
    }

    /// Runs multi-pool epochs on exactly `threads` `ip-par` workers
    /// (builder form; default [`ip_par::num_threads`]). `1` still steps
    /// pool-major, inline on the caller thread. Output is identical at
    /// any count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Worker count each epoch uses, or `None` for a one-pool fleet,
    /// which steps its member inline with no capture window.
    pub fn effective_threads(&self) -> Option<usize> {
        (self.members.len() > 1).then_some(self.threads)
    }

    /// Number of pools.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always `false` — [`FleetSim::new`] rejects empty fleets — but kept
    /// for the conventional pairing with [`len`](FleetSim::len).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Pool ids in registration order (the tie-break order).
    pub fn ids(&self) -> impl Iterator<Item = &PoolId> {
        self.members.iter().map(|m| &m.id)
    }

    /// Index of the pool named `id`, if registered.
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.members.iter().position(|m| m.id.as_str() == id)
    }

    /// The id of pool `i`.
    pub fn id(&self, i: usize) -> &PoolId {
        &self.members[i].id
    }

    /// Pool `i`'s stepper (read-only: stats, stores, watermark).
    pub fn stepper(&self, i: usize) -> &SimStepper {
        &self.members[i].stepper
    }

    /// Pool `i`'s demand trace.
    pub fn demand(&self, i: usize) -> &TimeSeries {
        &self.members[i].demand
    }

    /// Mutable demand trace of pool `i` — live injection hook. Only
    /// intervals the stepper has not yet delivered can still take effect.
    pub fn demand_mut(&mut self, i: usize) -> &mut TimeSeries {
        &mut self.members[i].demand
    }

    /// Replaces pool `i`'s provider (the daemon's `POST /reload` path).
    pub fn set_provider(&mut self, i: usize, provider: Option<BoxedProvider>) {
        self.members[i].provider = provider;
    }

    /// `true` when every pool's stepper has run every event strictly before
    /// its trace end ([`SimStepper::is_done`]). A pool's last demand
    /// interval is processed earlier than that, when the event at its start
    /// runs; events after it (cluster readiness, expiries) can keep a pool
    /// not done for up to one more interval. A caller that injects arrivals
    /// should stop at the last interval instead, as the daemon's controller
    /// does (its `is_done` compares processed intervals to the trace).
    pub fn is_done(&self) -> bool {
        self.members.iter().all(|m| m.stepper.is_done())
    }

    /// Latest trace end across pools — the fleet's horizon.
    pub fn end_time(&self) -> u64 {
        self.members
            .iter()
            .map(|m| m.stepper.end_time())
            .max()
            .unwrap_or(0)
    }

    /// Earliest watermark across pools: the logical time every pool has
    /// processed through.
    pub fn watermark(&self) -> u64 {
        self.members
            .iter()
            .map(|m| m.stepper.watermark())
            .min()
            .unwrap_or(0)
    }

    /// Total demand intervals processed across pools.
    pub fn processed_intervals(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.stepper.processed_intervals())
            .sum()
    }

    /// Processes every pool's events with `time <= until` in one merged
    /// `(time, pool registration order)` sequence, then advances all
    /// watermarks to `until`. Returns the number of demand intervals
    /// processed across the fleet. Without a borrow matrix the whole call
    /// is one epoch. With one, misses can only arise at demand-interval
    /// events, so every pool can safely run independently up to the
    /// earliest unprocessed interval time `t` across the fleet; the epoch
    /// lands every pool exactly at `t` (the interval events at `t`
    /// included, their misses deferred), then pending misses resolve on
    /// the caller thread in `(time, registration index, arrival order)`.
    /// Reports, metric bytes, and the event stream are byte-identical at
    /// any thread count and pacing.
    pub fn step_until(&mut self, until: u64) -> usize {
        if self.matrix.is_none() {
            return self.epoch(until);
        }
        let mut intervals = 0;
        loop {
            let boundary = self
                .members
                .iter()
                .filter_map(|m| m.stepper.next_interval_time())
                .filter(|&t| t <= until)
                .min();
            let Some(t) = boundary else {
                return intervals + self.epoch(until);
            };
            intervals += self.epoch(t);
            self.resolve_borrows(t);
        }
    }

    /// Epoch-boundary borrow resolution at time `t`: drain every pool's
    /// pending misses, order them `(time, registration index, arrival
    /// order)`, and for each one scan the matrix edges in declaration
    /// order for the first donor with a ready cluster above its donation
    /// floor — respecting the fleet-wide in-flight cap — else fall back to
    /// the exact hedged on-demand creation the inline miss path performs.
    fn resolve_borrows(&mut self, t: u64) {
        let mut requests: Vec<(u64, usize)> = Vec::new();
        for i in 0..self.members.len() {
            for arrival in self.members[i].stepper.take_pending_misses() {
                requests.push((arrival, i));
            }
        }
        if requests.is_empty() {
            return;
        }
        // Stable sort: per-pool arrival order survives within a key.
        requests.sort_by_key(|&(time, i)| (time, i));
        let max_in_flight = self.matrix.as_ref().map_or(0, |m| m.max_concurrent_borrows);
        self.in_flight_borrows.retain(|&done| done > t);
        for (arrival, requester) in requests {
            debug_assert_eq!(arrival, t, "pending miss outlived its epoch");
            let mut donated = None;
            if max_in_flight == 0 || self.in_flight_borrows.len() < max_in_flight {
                for &(to, from, latency) in &self.compiled_edges {
                    if to == requester
                        && self.members[from].stepper.try_donate(t, self.floors[from])
                    {
                        donated = Some((from, latency));
                        break;
                    }
                }
            }
            match donated {
                Some((from, latency)) => {
                    let donor = self.members[from].id.clone();
                    self.members[requester]
                        .stepper
                        .receive_borrow(t, latency, donor.as_str());
                    self.in_flight_borrows.push(t + latency);
                }
                None => self.members[requester].stepper.resolve_miss_fallback(t),
            }
        }
    }

    /// One pool-major epoch: every pool runs its own event loop to
    /// `until` on `ip-par` workers, buffering observability output in a
    /// thread-local [`ip_obs::capture`] window; the buffers are then
    /// folded — in registration order, events merged on `(time,
    /// registration index)` — into the shared registry and trace. Pool
    /// state needs no such care: it is per-stepper, and `step_until` is
    /// pacing-independent, so one coarse call per pool lands each stepper
    /// in exactly the state any finer pacing would have produced. A
    /// one-pool fleet skips the window and emits straight to the shared
    /// sinks.
    fn epoch(&mut self, until: u64) -> usize {
        if let [only] = self.members.as_mut_slice() {
            return only.step_until(until);
        }
        let results = ip_par::par_map_mut_with(self.threads, &mut self.members, |_, m| {
            let window = ip_obs::capture();
            let intervals = m.step_until(until);
            (intervals, window.finish())
        });
        let mut intervals = 0;
        let mut buffers = Vec::with_capacity(results.len());
        for (n, buf) in results {
            intervals += n;
            buffers.push(buf);
        }
        ip_obs::fold_ordered(buffers);
        intervals
    }

    /// Runs every pool to the end of its trace.
    pub fn run_to_end(&mut self) -> usize {
        let end = self.end_time();
        self.step_until(end)
    }

    /// Finalizes every pool's stepper into a per-pool report.
    pub fn finalize(self) -> FleetReport {
        FleetReport {
            pools: self
                .members
                .into_iter()
                .map(|m| (m.id, m.stepper.finalize()))
                .collect(),
        }
    }
}

/// Per-pool simulation reports, in registration order.
#[derive(Debug)]
pub struct FleetReport {
    /// `(pool, report)` pairs in registration order.
    pub pools: Vec<(PoolId, SimReport)>,
}

impl FleetReport {
    /// The report of the pool named `id`.
    pub fn get(&self, id: &str) -> Option<&SimReport> {
        self.pools
            .iter()
            .find(|(p, _)| p.as_str() == id)
            .map(|(_, r)| r)
    }

    /// Fleet-wide aggregates (sums over pools; rates recomputed).
    pub fn aggregate(&self) -> FleetAggregate {
        let mut agg = FleetAggregate::default();
        for (_, r) in &self.pools {
            agg.total_requests += r.total_requests;
            agg.hits += r.hits;
            agg.misses += r.misses;
            agg.total_wait_secs += r.total_wait_secs;
            agg.idle_cluster_seconds += r.idle_cluster_seconds;
            agg.provisioning_cluster_seconds += r.provisioning_cluster_seconds;
            agg.clusters_created += r.clusters_created;
            agg.on_demand_created += r.on_demand_created;
            agg.expired += r.expired;
            agg.ip_runs += r.ip_runs;
            agg.ip_failures += r.ip_failures;
            agg.fallback_intervals += r.fallback_intervals;
            agg.worker_replacements += r.worker_replacements;
            agg.borrowed_in += r.borrowed_in;
            agg.borrowed_out += r.borrowed_out;
        }
        agg.hit_rate = if agg.total_requests == 0 {
            1.0
        } else {
            agg.hits as f64 / agg.total_requests as f64
        };
        agg.mean_wait_secs = if agg.total_requests == 0 {
            0.0
        } else {
            agg.total_wait_secs / agg.total_requests as f64
        };
        agg
    }
}

/// Fleet-wide totals folded from the per-pool reports.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FleetAggregate {
    /// Requests across all pools.
    pub total_requests: u64,
    /// Instant pool hits across all pools.
    pub hits: u64,
    /// Pool misses across all pools.
    pub misses: u64,
    /// `hits / total_requests` (1.0 when idle).
    pub hit_rate: f64,
    /// Summed request wait, seconds.
    pub total_wait_secs: f64,
    /// Mean wait per request, seconds.
    pub mean_wait_secs: f64,
    /// Idle cluster·seconds across all pools.
    pub idle_cluster_seconds: f64,
    /// Provisioning cluster·seconds across all pools.
    pub provisioning_cluster_seconds: f64,
    /// Clusters created across all pools.
    pub clusters_created: u64,
    /// On-demand creations across all pools.
    pub on_demand_created: u64,
    /// Pooled clusters lost to expiry/failure across all pools.
    pub expired: u64,
    /// Intelligent Pooling pipeline runs across all pools.
    pub ip_runs: u64,
    /// Of which failed.
    pub ip_failures: u64,
    /// Default-fallback intervals across all pools.
    pub fallback_intervals: u64,
    /// Arbitrator worker replacements across all pools.
    pub worker_replacements: u64,
    /// Warm clusters borrowed across pools (requester side; equals
    /// `borrowed_out` fleet-wide).
    pub borrowed_in: u64,
    /// Warm clusters donated across pools.
    pub borrowed_out: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(vals: Vec<f64>) -> TimeSeries {
        TimeSeries::new(30, vals).unwrap()
    }

    #[test]
    fn rejects_empty_and_duplicate() {
        assert!(FleetSim::new(vec![]).is_err());
        let d = demand(vec![1.0; 10]);
        let twice = vec![
            FleetPool::new("a", SimConfig::default(), d.clone()),
            FleetPool::new("a", SimConfig::default(), d),
        ];
        let err = FleetSim::new(twice).err().unwrap();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn per_pool_config_errors_name_the_pool() {
        let d = demand(vec![1.0; 10]);
        let bad = SimConfig {
            interval_secs: 60, // mismatches the 30 s demand
            ..Default::default()
        };
        let err = FleetSim::new(vec![FleetPool::new("west/large", bad, d)])
            .err()
            .unwrap();
        assert!(err.to_string().contains("west/large"), "{err}");
    }

    #[test]
    fn aggregate_sums_pools() {
        let mut fleet = FleetSim::new(vec![
            FleetPool::new("a", SimConfig::default(), demand(vec![2.0; 8])),
            FleetPool::new("b", SimConfig::default(), demand(vec![3.0; 8])),
        ])
        .unwrap();
        fleet.run_to_end();
        assert!(fleet.is_done());
        let report = fleet.finalize();
        let agg = report.aggregate();
        assert_eq!(agg.total_requests, 8 * 2 + 8 * 3);
        assert_eq!(agg.hits + agg.misses, agg.total_requests);
        assert_eq!(
            agg.total_requests,
            report.pools.iter().map(|(_, r)| r.total_requests).sum()
        );
    }
}
