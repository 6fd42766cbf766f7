//! Satellite (c): any scenario/fault spec replayed with the same seed
//! yields **byte-identical** reports and `ip-obs` event streams whether
//! the fleet runs on one worker thread or on 4.
//!
//! These tests mutate the process-wide obs registry/trace, so they
//! serialize behind one mutex (this file is its own test binary,
//! isolating it from every other suite's process).

use ip_chaos::{catalog, ScenarioSpec};
use ip_sim::{FaultEntry, FleetPool, FleetSim, SimConfig};
use ip_timeseries::TimeSeries;
use proptest::prelude::*;
use std::sync::Mutex;

static GATE: Mutex<()> = Mutex::new(());

/// A deterministic pseudo-random demand trace (no process RNG).
fn demand(seed: u64, n: usize) -> TimeSeries {
    let vals: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(2654435761).wrapping_add(seed * 131);
            f64::from((x % 6) as u32) + if i % 13 == 0 { 3.0 } else { 0.0 }
        })
        .collect();
    TimeSeries::new(30, vals).unwrap()
}

/// Compiles `spec` against a small fleet and returns the per-pool
/// `(demand, faults)` assignments the engine will run.
fn planned_pools(
    spec: ScenarioSpec,
    pool_count: usize,
) -> Vec<(String, TimeSeries, Vec<FaultEntry>)> {
    let scenario = spec.compile().expect("catalog spec compiles");
    let pools: Vec<(String, TimeSeries)> = (0..pool_count)
        .map(|k| (format!("pool-{k}"), demand(11 + k as u64, 96)))
        .collect();
    let plan = scenario.apply(pools).expect("apply succeeds");
    plan.demand
        .iter()
        .map(|(id, d)| (id.clone(), d.clone(), plan.faults_for(id).to_vec()))
        .collect()
}

/// One full fleet run with obs recording on: returns the rendered
/// Prometheus bytes, the logical-clock event stream, and the finalized
/// per-pool reports rendered to text.
fn observed_run(
    pools: &[(String, TimeSeries, Vec<FaultEntry>)],
    threads: usize,
) -> (String, Vec<ip_obs::EventRecord>, String) {
    ip_obs::set_enabled(true);
    ip_obs::reset();
    let members = pools
        .iter()
        .map(|(id, d, faults)| {
            let cfg = SimConfig {
                default_pool_target: 2,
                cluster_lifespan_secs: Some(1800),
                seed: 5,
                faults: faults.clone(),
                ..Default::default()
            };
            FleetPool::new(id.clone(), cfg, d.clone())
        })
        .collect();
    let mut fleet = FleetSim::new(members).unwrap().with_threads(threads);
    fleet.run_to_end();
    let report = fleet.finalize();
    let prometheus = ip_obs::export::render_prometheus(ip_obs::global());
    let trace = ip_obs::take_trace();
    ip_obs::set_enabled(false);
    ip_obs::reset();
    let reports: Vec<String> = pools
        .iter()
        .map(|(id, _, _)| format!("{id}: {:?}", report.get(id).expect("pool report")))
        .collect();
    (prometheus, trace.events, reports.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every catalog scenario, under random seeds and fleet sizes:
    /// one-thread and 4-thread runs export identical bytes, and a second
    /// replay of the same spec is identical to the first.
    #[test]
    fn scenario_replay_is_byte_identical_across_threads(
        which in 0usize..6,
        seed in 0u64..1_000,
        pool_count in 2usize..4,
    ) {
        let _g = GATE.lock().unwrap();
        let name = catalog()[which].name;
        let pools = planned_pools(ScenarioSpec::by_name(name, seed).unwrap(), pool_count);
        let replay = planned_pools(ScenarioSpec::by_name(name, seed).unwrap(), pool_count);
        prop_assert_eq!(&pools, &replay, "{} seed {}: plan replay", name, seed);

        let one = observed_run(&pools, 1);
        let par = observed_run(&pools, 4);
        prop_assert_eq!(&one.0, &par.0, "{} seed {}: prometheus bytes", name, seed);
        prop_assert_eq!(&one.1, &par.1, "{} seed {}: event stream", name, seed);
        prop_assert_eq!(&one.2, &par.2, "{} seed {}: reports", name, seed);

        let again = observed_run(&pools, 1);
        prop_assert_eq!(&one.0, &again.0, "{} seed {}: replayed metrics", name, seed);
        prop_assert_eq!(&one.1, &again.1, "{} seed {}: replayed events", name, seed);
        prop_assert_eq!(&one.2, &again.2, "{} seed {}: replayed reports", name, seed);
    }

    /// Explicit JSON fault specs (pinned and unpinned, every kind) are
    /// just as reproducible as catalog defaults.
    #[test]
    fn explicit_fault_specs_replay_identically(
        seed in 0u64..1_000,
        at_frac in 0.1f64..0.8,
    ) {
        let _g = GATE.lock().unwrap();
        let d = demand(7, 96).duration_secs();
        let at = (d as f64 * at_frac) as u64;
        let spec_json = format!(
            r#"{{"name": "flash-crowd", "seed": {seed}, "params": {{}}, "faults": [
                {{"at": {at}, "kind": "worker_lease_expiry", "pool": "pool-0"}},
                {{"at": {}, "kind": "arbitrator_partition", "until_secs": {}}},
                {{"at": {}, "kind": "telemetry_lag", "until_secs": {}, "lag_secs": 120}},
                {{"at": {}, "kind": "config_corruption"}}
            ]}}"#,
            at / 2, at / 2 + 600,
            at / 3, at / 3 + 900,
            at + 60,
        );
        let pools = planned_pools(ScenarioSpec::from_json(&spec_json).unwrap(), 2);
        let replay = planned_pools(ScenarioSpec::from_json(&spec_json).unwrap(), 2);
        prop_assert_eq!(&pools, &replay, "seed {}: plan replay", seed);
        prop_assert_eq!(
            pools.iter().map(|(_, _, f)| f.len()).sum::<usize>(),
            4,
            "all four faults scheduled"
        );

        let one = observed_run(&pools, 1);
        let par = observed_run(&pools, 4);
        prop_assert_eq!(&one.0, &par.0, "seed {}: prometheus bytes", seed);
        prop_assert_eq!(&one.1, &par.1, "seed {}: event stream", seed);
        prop_assert_eq!(&one.2, &par.2, "seed {}: reports", seed);
    }
}
