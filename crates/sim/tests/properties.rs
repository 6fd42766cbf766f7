//! Property-based invariants of the discrete-event engine.

use ip_sim::{SimConfig, Simulation};
use ip_timeseries::TimeSeries;
use proptest::prelude::*;

fn demand_strategy() -> impl Strategy<Value = TimeSeries> {
    proptest::collection::vec(0u32..5, 10..60).prop_map(|counts| {
        TimeSeries::new(30, counts.into_iter().map(f64::from).collect()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_and_ranges(demand in demand_strategy(), target in 0u32..8, seed in 0u64..100) {
        let cfg = SimConfig {
            interval_secs: 30,
            tau_secs: 90,
            tau_jitter_secs: 15,
            default_pool_target: target,
            seed,
            ..Default::default()
        };
        let r = Simulation::new(cfg, None).run(&demand).unwrap();
        prop_assert_eq!(r.hits + r.misses, r.total_requests);
        prop_assert_eq!(r.total_requests, demand.sum() as u64);
        prop_assert!(r.hit_rate >= 0.0 && r.hit_rate <= 1.0);
        prop_assert!(r.idle_cluster_seconds >= 0.0);
        prop_assert!(r.total_wait_secs >= 0.0);
        prop_assert_eq!(r.on_demand_created, r.misses);
        prop_assert_eq!(r.applied_target_timeline.len(), demand.len());
        // Telemetry agrees with the counters.
        prop_assert_eq!(r.telemetry.total("pool_hit") as u64, r.hits);
        prop_assert_eq!(r.telemetry.total("pool_miss") as u64, r.misses);
        // ... with at most one point per interval and outcome.
        for metric in ["pool_hit", "pool_miss"] {
            prop_assert!(r.telemetry.query_range(metric, 0, u64::MAX).len() <= demand.len());
        }
    }

    #[test]
    fn deterministic_replay(demand in demand_strategy(), target in 0u32..6, seed in 0u64..50) {
        let cfg = SimConfig {
            interval_secs: 30,
            tau_secs: 60,
            tau_jitter_secs: 20,
            default_pool_target: target,
            seed,
            ..Default::default()
        };
        let a = Simulation::new(cfg.clone(), None).run(&demand).unwrap();
        let b = Simulation::new(cfg, None).run(&demand).unwrap();
        prop_assert_eq!(a.hits, b.hits);
        prop_assert_eq!(a.total_wait_secs, b.total_wait_secs);
        prop_assert_eq!(a.idle_cluster_seconds, b.idle_cluster_seconds);
        prop_assert_eq!(a.clusters_created, b.clusters_created);
    }

    #[test]
    fn zero_demand_never_misses(len in 5usize..50, target in 0u32..6) {
        let demand = TimeSeries::zeros(30, len);
        let cfg = SimConfig { default_pool_target: target, ..Default::default() };
        let r = Simulation::new(cfg, None).run(&demand).unwrap();
        prop_assert_eq!(r.misses, 0);
        prop_assert_eq!(r.hit_rate, 1.0);
        // Idle is exactly target × duration with no failures configured.
        let expected = f64::from(target) * (len as f64) * 30.0;
        prop_assert!((r.idle_cluster_seconds - expected).abs() < 1e-9);
    }
}
