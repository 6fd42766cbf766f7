#![warn(missing_docs)]
//! Discrete-event simulation of the pooling platform (§2–§3, §7.6).
//!
//! The paper's system runs on Microsoft Fabric infrastructure we obviously
//! cannot ship: Generic Job Service (cluster orchestration), Cluster Service
//! (VM stitching), Work Item Service + Arbitrator (worker leases and health
//! checks), Cosmos DB (recommendation files) and Kusto (telemetry). This
//! crate simulates that platform faithfully enough to exercise every control
//! path the paper describes:
//!
//! * [`cluster`] — cluster lifecycle: provisioning with latency `τ` (plus
//!   jitter), ready/in-use, lifespan expiry, random failures.
//! * [`stores`] — `KustoLite` (append-only telemetry) and `CosmosLite`
//!   (versioned recommendation files), in-memory equivalents of the two
//!   stores in Fig. 2.
//! * [`engine`] — the event loop: request arrivals consume pooled clusters
//!   (pool *hit*) or fall back to on-demand creation (pool *miss*, waiting
//!   ~τ); every consumption triggers a re-hydration request; the Pooling
//!   Worker enforces the current target; the Intelligent Pooling Worker
//!   periodically runs a recommendation provider and persists its output;
//!   the Arbitrator replaces pooling workers whose lease lapses (§7.6), and
//!   stale or missing recommendations degrade to defaults exactly as the
//!   fault-tolerance section prescribes.
//!
//! ```
//! use ip_sim::{SimConfig, Simulation};
//! use ip_timeseries::TimeSeries;
//!
//! // A burst of 5 requests against a pool of 2: two instant hits, three
//! // on-demand misses waiting ~tau.
//! let mut demand = vec![0.0; 20];
//! demand[0] = 5.0;
//! let demand = TimeSeries::new(30, demand).unwrap();
//! let config = SimConfig {
//!     tau_secs: 90,
//!     tau_jitter_secs: 0,
//!     default_pool_target: 2,
//!     ..Default::default()
//! };
//! let report = Simulation::new(config, None).run(&demand).unwrap();
//! assert_eq!(report.hits, 2);
//! assert_eq!(report.misses, 3);
//! assert_eq!(report.total_wait_secs, 3.0 * 90.0);
//! ```

pub mod borrow;
pub mod cluster;
pub mod engine;
pub mod fault;
pub mod fleet;
pub mod lease;
pub mod session;
pub mod stores;

pub use borrow::{BorrowEdge, BorrowRecord, CompatibilityMatrix};
pub use cluster::{Cluster, ClusterState};
pub use engine::{
    ArbitratorConfig, IntervalStat, IpWorkerConfig, SimConfig, SimReport, SimStepper, Simulation,
};
pub use fault::{FaultEntry, FaultKind, FaultRecord};
pub use fleet::{FleetAggregate, FleetPool, FleetReport, FleetSim};
pub use lease::{Lease, LeaseId, LeaseTable};
pub use session::{run_region, PoolKind, RegionPool, RegionPoolReport};
pub use stores::{CosmosLite, KustoLite, RecommendationFile};

use ip_timeseries::TimeSeries;

/// Identity of one pool in a fleet — by convention a `region/type/size`
/// style name (e.g. `eastus2/spark/medium`).
///
/// A `PoolId` is what keys every per-pool dimension in the stack: the
/// simulator's metric labels ([`SimConfig::pool`]), the fleet event
/// interleaver ([`FleetSim`]), the optimizer fan-out in `ip-core`, and the
/// daemon's per-pool routes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub String);

impl PoolId {
    /// Builds a pool id from any string-ish name.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }

    /// The pool name as a borrowed string (metric-label form).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for PoolId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for PoolId {
    fn from(name: &str) -> Self {
        Self(name.to_string())
    }
}

impl From<String> for PoolId {
    fn from(name: String) -> Self {
        Self(name)
    }
}

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Bad configuration.
    InvalidConfig(String),
    /// Bad demand input.
    InvalidDemand(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            SimError::InvalidDemand(msg) => write!(f, "invalid demand: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SimError>;

/// A pool-size recommendation provider — the pluggable "ML pipeline" slot.
///
/// Invoked by the simulated Intelligent Pooling Worker with the current time
/// and the demand history observed so far (from telemetry); returns target
/// pool sizes for the next `horizon` intervals, or `None` to signal a
/// pipeline failure (exercising the §7.6 fallback chain).
pub trait RecommendationProvider {
    /// Produce targets for `horizon` intervals starting at `now_secs`.
    fn recommend(
        &mut self,
        now_secs: u64,
        observed_demand: &TimeSeries,
        horizon: usize,
    ) -> Option<Vec<u32>>;

    /// Feedback hook: the platform reports the realized mean request wait
    /// (run-to-date, seconds) just before each pipeline run, letting
    /// self-tuning providers steer `α'` (§6). The default ignores it, so
    /// plain forecasting providers and closures are unaffected.
    fn observe_wait(&mut self, now_secs: u64, mean_wait_secs: f64) {
        let _ = (now_secs, mean_wait_secs);
    }
}

/// A boxed provider that can cross thread boundaries — the form the fleet
/// simulator and the `ip-serve` controller store per pool.
pub type BoxedProvider = Box<dyn RecommendationProvider + Send>;

/// A provider from a closure.
impl<F> RecommendationProvider for F
where
    F: FnMut(u64, &TimeSeries, usize) -> Option<Vec<u32>>,
{
    fn recommend(&mut self, now: u64, observed: &TimeSeries, horizon: usize) -> Option<Vec<u32>> {
        self(now, observed, horizon)
    }
}

/// A provider that always recommends a constant target (static pooling).
#[derive(Debug, Clone, Copy)]
pub struct StaticProvider(pub u32);

impl RecommendationProvider for StaticProvider {
    fn recommend(&mut self, _now: u64, _observed: &TimeSeries, horizon: usize) -> Option<Vec<u32>> {
        Some(vec![self.0; horizon])
    }
}
