//! The fleet contract: an isolated fleet is bit-identical to running each
//! pool alone through `Simulation::run` — reports, interval stats, applied
//! targets, and the full recommendation-file history — at every worker
//! count, on fleets of 1, 3, and 16 pools, under coarse and awkward epoch
//! pacing. Observability byte-identity (metric series and trace events)
//! lives in `tests/fleet_obs_identity.rs`, which must serialize against
//! the global sinks; these tests run with recording off and therefore
//! freely in parallel.

use ip_sim::{
    FleetPool, FleetSim, IpWorkerConfig, PoolId, RecommendationFile, SimConfig, SimReport,
    Simulation,
};
use ip_timeseries::TimeSeries;
use proptest::prelude::*;

fn demand(seed: u64, n: usize) -> TimeSeries {
    let vals: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97);
            f64::from((x % 7) as u32) + if i % 11 == 0 { 4.0 } else { 0.0 }
        })
        .collect();
    TimeSeries::new(30, vals).unwrap()
}

fn eventful_config(seed: u64) -> SimConfig {
    SimConfig {
        default_pool_target: 3,
        cluster_lifespan_secs: Some(900),
        cluster_failure_prob_per_hour: 0.4,
        ip_worker: Some(IpWorkerConfig {
            run_every_secs: 300,
            horizon_secs: 600,
            failing_runs: vec![2],
        }),
        pooling_worker_outages: vec![(600, 1200)],
        seed,
        ..Default::default()
    }
}

/// Stateful provider: any divergence in invocation order or observed
/// telemetry shows up in the recommendation files.
fn peak_provider() -> impl FnMut(u64, &TimeSeries, usize) -> Option<Vec<u32>> + Send {
    let mut runs = 0u32;
    move |_now, observed: &TimeSeries, horizon| {
        runs += 1;
        let peak = observed.values().iter().fold(0.0f64, |a, &b| a.max(b));
        Some(vec![(peak as u32).min(6) + runs % 2; horizon])
    }
}

fn assert_reports_identical(a: &SimReport, b: &SimReport, ctx: &str) {
    assert_eq!(a.total_requests, b.total_requests, "{ctx}: requests");
    assert_eq!(a.hits, b.hits, "{ctx}: hits");
    assert_eq!(a.misses, b.misses, "{ctx}: misses");
    assert_eq!(a.total_wait_secs, b.total_wait_secs, "{ctx}: wait");
    assert_eq!(
        a.idle_cluster_seconds, b.idle_cluster_seconds,
        "{ctx}: idle"
    );
    assert_eq!(
        a.provisioning_cluster_seconds, b.provisioning_cluster_seconds,
        "{ctx}: provisioning"
    );
    assert_eq!(a.clusters_created, b.clusters_created, "{ctx}: created");
    assert_eq!(a.on_demand_created, b.on_demand_created, "{ctx}: od");
    assert_eq!(a.expired, b.expired, "{ctx}: expired");
    assert_eq!(a.ip_runs, b.ip_runs, "{ctx}: ip_runs");
    assert_eq!(a.ip_failures, b.ip_failures, "{ctx}: ip_failures");
    assert_eq!(
        a.fallback_intervals, b.fallback_intervals,
        "{ctx}: fallback"
    );
    assert_eq!(
        a.worker_replacements, b.worker_replacements,
        "{ctx}: replacements"
    );
    assert_eq!(
        a.applied_target_timeline, b.applied_target_timeline,
        "{ctx}: targets"
    );
    assert_eq!(a.interval_stats, b.interval_stats, "{ctx}: interval stats");
    assert_eq!(
        a.config_store
            .get_all::<RecommendationFile>("pool-recommendation"),
        b.config_store
            .get_all::<RecommendationFile>("pool-recommendation"),
        "{ctx}: recommendation files"
    );
}

/// One pool of a test fleet: name, config, demand, and whether it runs a
/// [`peak_provider`].
type PoolSpec = (String, SimConfig, TimeSeries, bool);

fn eventful_pools(pools: usize) -> Vec<PoolSpec> {
    (0..pools)
        .map(|k| {
            let seed = 3 + k as u64;
            let n = 48 + (k % 5) * 24;
            let name = format!("pool-{k:02}");
            (name, eventful_config(seed), demand(seed, n), true)
        })
        .collect()
}

/// The oracle: each pool run alone, start to end, by `Simulation::run`.
fn independent_runs(specs: &[PoolSpec]) -> Vec<(String, SimReport)> {
    specs
        .iter()
        .map(|(name, cfg, d, with_provider)| {
            let cfg = SimConfig {
                pool: Some(PoolId::new(name.as_str())),
                ..cfg.clone()
            };
            let mut provider = peak_provider();
            let provider = with_provider.then_some(&mut provider as _);
            let report = Simulation::new(cfg, provider).run(d).unwrap();
            (name.clone(), report)
        })
        .collect()
}

fn build_fleet(specs: &[PoolSpec], threads: usize) -> FleetSim {
    let members = specs
        .iter()
        .map(|(name, cfg, d, with_provider)| {
            let p = FleetPool::new(name.as_str(), cfg.clone(), d.clone());
            if *with_provider {
                p.with_provider(Box::new(peak_provider()))
            } else {
                p
            }
        })
        .collect();
    FleetSim::new(members).unwrap().with_threads(threads)
}

fn run_with_stride(mut fleet: FleetSim, stride: u64) -> Vec<(String, SimReport)> {
    let end = fleet.end_time();
    let mut t = 0;
    while !fleet.is_done() {
        t = (t + stride).min(end);
        fleet.step_until(t);
    }
    fleet
        .finalize()
        .pools
        .into_iter()
        .map(|(id, r)| (id.as_str().to_string(), r))
        .collect()
}

fn assert_runs_identical(a: &[(String, SimReport)], b: &[(String, SimReport)], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: pool count");
    for ((ida, a), (idb, b)) in a.iter().zip(b) {
        assert_eq!(ida, idb, "{ctx}: pool order");
        assert_reports_identical(a, b, &format!("{ctx} / {ida}"));
    }
}

#[test]
fn fleet_matches_independent_runs_at_every_worker_count() {
    for pools in [1usize, 3, 16] {
        let specs = eventful_pools(pools);
        let oracle = independent_runs(&specs);
        for threads in [1usize, 2, 4, 7] {
            let fleet = run_with_stride(build_fleet(&specs, threads), u64::MAX);
            assert_runs_identical(
                &oracle,
                &fleet,
                &format!("{pools} pools / {threads} threads"),
            );
        }
    }
}

#[test]
fn epoch_pacing_is_invisible() {
    // One-shot independent runs vs fleet epochs at awkward strides: every
    // epoch boundary forces a buffer fold mid-run, none of which may leak
    // into the reports.
    let specs = eventful_pools(3);
    let oracle = independent_runs(&specs);
    for stride in [41u64, 137, 999] {
        let fleet = run_with_stride(build_fleet(&specs, 4), stride);
        assert_runs_identical(&oracle, &fleet, &format!("stride {stride}"));
    }
}

#[test]
fn shared_metric_labels_are_rejected() {
    // Two unlabeled pools would alias every unlabeled series; the fleet
    // must refuse rather than let a parallel fold reorder a shared series.
    let a = FleetPool::anonymous(SimConfig::default(), demand(1, 16));
    let cfg = SimConfig {
        seed: 9,
        ..Default::default()
    };
    let mut b = FleetPool::anonymous(cfg, demand(2, 16));
    b.id = ip_sim::PoolId::new("other");
    let err = FleetSim::new(vec![a, b]).err().unwrap();
    assert!(err.to_string().contains("share the metric label"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fleet specs: whatever the pool mix (count, seeds, trace
    /// lengths, providers-or-not), worker count, and pacing, the fleet
    /// reproduces independent runs bit for bit.
    #[test]
    fn random_fleets_match_independent_runs(
        specs in proptest::collection::vec((0u64..40, 12usize..72, 0u8..2), 1..6),
        threads in 1usize..8,
        stride in 100u64..2000,
    ) {
        let specs: Vec<PoolSpec> = specs
            .iter()
            .enumerate()
            .map(|(k, &(seed, n, with_provider))| {
                (format!("p{k}"), eventful_config(seed), demand(seed, n), with_provider == 1)
            })
            .collect();
        let oracle = independent_runs(&specs);
        let fleet = run_with_stride(build_fleet(&specs, threads), stride);
        for ((ida, a), (idb, b)) in oracle.iter().zip(fleet.iter()) {
            prop_assert_eq!(ida, idb);
            assert_reports_identical(a, b, ida);
        }
    }
}
