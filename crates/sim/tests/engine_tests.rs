//! Behavioural tests of the discrete-event engine.

use ip_sim::{
    ArbitratorConfig, IpWorkerConfig, RecommendationProvider, SimConfig, Simulation, StaticProvider,
};
use ip_timeseries::TimeSeries;

fn demand(vals: &[f64]) -> TimeSeries {
    TimeSeries::new(30, vals.to_vec()).unwrap()
}

fn base_config() -> SimConfig {
    SimConfig {
        interval_secs: 30,
        tau_secs: 90,
        tau_jitter_secs: 0,
        default_pool_target: 3,
        ..Default::default()
    }
}

#[test]
fn idle_pool_accumulates_idle_time() {
    let d = demand(&[0.0; 20]);
    let report = Simulation::new(base_config(), None).run(&d).unwrap();
    assert_eq!(report.total_requests, 0);
    assert_eq!(report.hit_rate, 1.0);
    // 3 clusters idle for 20 intervals × 30 s.
    assert_eq!(report.idle_cluster_seconds, 3.0 * 600.0);
    assert_eq!(report.clusters_created, 3);
}

#[test]
fn steady_demand_served_with_adequate_pool() {
    // 1 request per interval; pool of 6 with τ = 90 s (3 intervals of
    // re-hydration pipeline) keeps everyone instant.
    let d = demand(&[1.0; 40]);
    let mut cfg = base_config();
    cfg.default_pool_target = 6;
    let report = Simulation::new(cfg, None).run(&d).unwrap();
    assert_eq!(report.total_requests, 40);
    assert_eq!(report.hit_rate, 1.0, "misses: {}", report.misses);
    assert_eq!(report.total_wait_secs, 0.0);
}

#[test]
fn zero_pool_misses_everything() {
    let d = demand(&[1.0; 10]);
    let mut cfg = base_config();
    cfg.default_pool_target = 0;
    let report = Simulation::new(cfg, None).run(&d).unwrap();
    assert_eq!(report.hits, 0);
    assert_eq!(report.misses, 10);
    assert!(report.mean_wait_secs > 0.0);
    assert_eq!(report.on_demand_created, 10);
}

#[test]
fn burst_larger_than_pool_partially_misses() {
    let mut vals = vec![0.0; 20];
    vals[0] = 5.0;
    let d = demand(&vals);
    let mut cfg = base_config();
    cfg.default_pool_target = 2;
    let report = Simulation::new(cfg, None).run(&d).unwrap();
    assert_eq!(report.hits, 2);
    assert_eq!(report.misses, 3);
    // Missed requests wait about τ.
    assert!((report.total_wait_secs - 3.0 * 90.0).abs() < 1e-9);
}

#[test]
fn deterministic_given_seed() {
    let d = demand(&[2.0; 50]);
    let mut cfg = base_config();
    cfg.tau_jitter_secs = 30;
    cfg.seed = 7;
    let r1 = Simulation::new(cfg.clone(), None).run(&d).unwrap();
    let r2 = Simulation::new(cfg, None).run(&d).unwrap();
    assert_eq!(r1.hits, r2.hits);
    assert_eq!(r1.idle_cluster_seconds, r2.idle_cluster_seconds);
    assert_eq!(r1.total_wait_secs, r2.total_wait_secs);
}

#[test]
fn hit_rate_monotone_in_pool_target() {
    let vals: Vec<f64> = (0..60)
        .map(|t| if t % 10 == 0 { 4.0 } else { 1.0 })
        .collect();
    let d = demand(&vals);
    let mut last_rate = -1.0;
    for target in [0u32, 2, 4, 8, 16] {
        let mut cfg = base_config();
        cfg.default_pool_target = target;
        let r = Simulation::new(cfg, None).run(&d).unwrap();
        assert!(
            r.hit_rate >= last_rate - 1e-12,
            "target {target}: hit rate {} below previous {last_rate}",
            r.hit_rate
        );
        last_rate = r.hit_rate;
    }
}

#[test]
fn cluster_lifespan_forces_recycling() {
    let d = demand(&[0.0; 40]);
    let mut cfg = base_config();
    cfg.cluster_lifespan_secs = Some(300); // 10 intervals
    let report = Simulation::new(cfg, None).run(&d).unwrap();
    assert!(report.expired >= 2, "expired {}", report.expired);
    // Pool is re-hydrated after each expiry.
    assert!(report.clusters_created > 3);
}

#[test]
fn ip_worker_recommendations_are_applied() {
    // Provider recommends 5; default is 1 → timeline should show 5 once the
    // first run lands (at t=0).
    let d = demand(&[0.0; 30]);
    let mut cfg = base_config();
    cfg.default_pool_target = 1;
    cfg.ip_worker = Some(IpWorkerConfig {
        run_every_secs: 300,
        horizon_secs: 3600,
        failing_runs: vec![],
    });
    let mut provider = StaticProvider(5);
    let report = Simulation::new(cfg, Some(&mut provider)).run(&d).unwrap();
    assert!(report.ip_runs >= 2);
    assert_eq!(report.ip_failures, 0);
    assert!(report
        .applied_target_timeline
        .iter()
        .skip(1)
        .all(|&t| t == 5));
    assert_eq!(
        report.config_store.version_count("pool-recommendation"),
        report.ip_runs
    );
}

#[test]
fn stale_recommendation_falls_back_to_default() {
    // One successful run covering only 10 intervals; afterwards the file is
    // stale and the default target takes over (§7.6).
    let d = demand(&[0.0; 40]);
    let mut cfg = base_config();
    cfg.default_pool_target = 2;
    cfg.ip_worker = Some(IpWorkerConfig {
        run_every_secs: 100_000, // only the t=0 run happens
        horizon_secs: 300,       // 10 intervals of coverage
        failing_runs: vec![],
    });
    let mut provider = StaticProvider(6);
    let report = Simulation::new(cfg, Some(&mut provider)).run(&d).unwrap();
    let timeline = &report.applied_target_timeline;
    // Covered prefix uses the recommendation…
    assert!(timeline[1..10].iter().all(|&t| t == 6), "{timeline:?}");
    // …then the stale file degrades to the default.
    assert!(timeline[11..].iter().all(|&t| t == 2), "{timeline:?}");
    assert!(report.fallback_intervals > 0);
}

#[test]
fn failing_ip_runs_keep_previous_recommendation() {
    let d = demand(&[0.0; 40]);
    let mut cfg = base_config();
    cfg.default_pool_target = 1;
    cfg.ip_worker = Some(IpWorkerConfig {
        run_every_secs: 300,
        horizon_secs: 3600,          // each file covers the whole sim
        failing_runs: vec![1, 2, 3], // all but the first run fail
    });
    let mut provider = StaticProvider(4);
    let report = Simulation::new(cfg, Some(&mut provider)).run(&d).unwrap();
    assert!(report.ip_failures >= 3);
    // The t=0 file still covers everything: no fallback to default.
    assert!(report.applied_target_timeline[1..].iter().all(|&t| t == 4));
}

#[test]
fn worker_outage_stops_rehydration_until_lease_replacement() {
    // Demand drains the pool during an outage; the Arbitrator replaces the
    // worker after the lease lapses and re-hydration resumes.
    let vals: Vec<f64> = (0..60)
        .map(|t| if (10..14).contains(&t) { 2.0 } else { 0.0 })
        .collect();
    let d = demand(&vals);
    let mut cfg = base_config();
    cfg.default_pool_target = 4;
    cfg.arbitrator = ArbitratorConfig {
        lease_secs: 120,
        check_every_secs: 30,
    };
    // Outage covers the demand burst (t = 300 s … 420 s) and nominally lasts
    // until the end; only the Arbitrator can restore re-hydration.
    cfg.pooling_worker_outages = vec![(250, 100_000)];
    let report = Simulation::new(cfg, None).run(&d).unwrap();
    assert_eq!(report.worker_replacements, 1);
    // Requests during the outage still consumed the pool (some hits).
    assert!(report.hits >= 4, "hits {}", report.hits);
    // After replacement, the pool was re-hydrated back to target: idle time
    // accrues again at the end.
    assert!(report.idle_cluster_seconds > 0.0);
}

#[test]
fn downsizing_cancels_provisioning_first() {
    // Start at target 6 (provisioning beyond the initial pool? no — initial
    // pool is created ready). Shrink to 1 via recommendation at t=0 … use a
    // provider that returns decreasing targets.
    struct Shrinking;
    impl RecommendationProvider for Shrinking {
        fn recommend(&mut self, now: u64, _o: &TimeSeries, h: usize) -> Option<Vec<u32>> {
            Some(vec![if now == 0 { 6 } else { 1 }; h])
        }
    }
    let d = demand(&[0.0; 40]);
    let mut cfg = base_config();
    cfg.default_pool_target = 6;
    cfg.ip_worker = Some(IpWorkerConfig {
        run_every_secs: 300,
        horizon_secs: 600,
        failing_runs: vec![],
    });
    let mut provider = Shrinking;
    let report = Simulation::new(cfg, Some(&mut provider)).run(&d).unwrap();
    // The pool shrank: ready clusters were retired.
    assert!(
        report.retired_for_downsize >= 5,
        "retired {}",
        report.retired_for_downsize
    );
    // And the timeline reflects the shrink.
    assert_eq!(*report.applied_target_timeline.last().unwrap(), 1);
}

#[test]
fn telemetry_contains_request_metrics() {
    let d = demand(&[1.0, 2.0, 0.0, 3.0]);
    let report = Simulation::new(base_config(), None).run(&d).unwrap();
    assert_eq!(report.telemetry.total("requests"), 6.0);
    assert_eq!(report.telemetry.total("pool_hit"), report.hits as f64);
    assert_eq!(report.telemetry.total("pool_miss"), report.misses as f64);
    assert_eq!(
        report.telemetry.total("pool_hit") + report.telemetry.total("pool_miss"),
        6.0
    );
    // Outcomes are stored per interval, not per request.
    for metric in ["pool_hit", "pool_miss"] {
        let points = report.telemetry.query_range(metric, 0, u64::MAX).len();
        assert!(points <= d.len(), "{metric}: {points} points");
    }
}

#[test]
fn conservation_hits_plus_misses_equals_requests() {
    let vals: Vec<f64> = (0..80).map(|t| ((t * 13) % 5) as f64).collect();
    let d = demand(&vals);
    let mut cfg = base_config();
    cfg.default_pool_target = 3;
    cfg.tau_jitter_secs = 25;
    cfg.seed = 3;
    let report = Simulation::new(cfg, None).run(&d).unwrap();
    assert_eq!(report.hits + report.misses, report.total_requests);
    assert_eq!(report.total_requests, d.sum() as u64);
}

#[test]
fn rejects_mismatched_interval_and_empty_demand() {
    let cfg = base_config();
    let bad = TimeSeries::new(60, vec![1.0; 5]).unwrap();
    assert!(Simulation::new(cfg.clone(), None).run(&bad).is_err());
    let empty = TimeSeries::zeros(30, 0);
    assert!(Simulation::new(cfg, None).run(&empty).is_err());
}

#[test]
fn hedged_requests_cut_tail_wait() {
    // All misses, heavy creation jitter: hedging 3-way takes the min of
    // three latency samples, so mean wait drops and losers are discarded.
    let d = demand(&[1.0; 60]);
    let mut plain_cfg = base_config();
    plain_cfg.default_pool_target = 0;
    plain_cfg.tau_jitter_secs = 80;
    plain_cfg.seed = 9;
    let plain = Simulation::new(plain_cfg.clone(), None).run(&d).unwrap();

    let mut hedged_cfg = plain_cfg;
    hedged_cfg.on_demand_hedging = 3;
    let hedged = Simulation::new(hedged_cfg, None).run(&d).unwrap();

    assert!(
        hedged.mean_wait_secs < plain.mean_wait_secs,
        "hedged {} !< plain {}",
        hedged.mean_wait_secs,
        plain.mean_wait_secs
    );
    // Two losers per miss are discarded (a few may still be provisioning
    // when the simulation window closes).
    assert!(hedged.hedges_discarded <= 2 * hedged.misses);
    assert!(hedged.hedges_discarded >= 2 * hedged.misses.saturating_sub(6));
    assert_eq!(hedged.on_demand_created, 3 * hedged.misses);
    // Hit/miss accounting unchanged by hedging.
    assert_eq!(hedged.misses, plain.misses);
}

#[test]
fn hedging_one_is_the_default_identity() {
    let d = demand(&[1.0; 30]);
    let mut cfg = base_config();
    cfg.default_pool_target = 0;
    cfg.tau_jitter_secs = 40;
    cfg.seed = 4;
    let a = Simulation::new(cfg.clone(), None).run(&d).unwrap();
    cfg.on_demand_hedging = 1;
    let b = Simulation::new(cfg, None).run(&d).unwrap();
    assert_eq!(a.total_wait_secs, b.total_wait_secs);
    assert_eq!(a.hedges_discarded, 0);
}
