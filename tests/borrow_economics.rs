//! Cross-pool borrowing pays for itself offline: the same three pools at
//! the same pool budget (Σ targets = 13), replayed through the composed
//! `diurnal-ramp+flash-crowd` spike scenario, isolated and then wired into
//! one resource cluster by a permissive compatibility matrix. At equal
//! budget the borrowing fleet must borrow, and must beat the isolated one
//! on both hit rate and mean wait (recorded in `BENCH_pr10.json`: hit rate
//! 0.19 → 0.37, mean wait 72.7 s → 60.4 s).

use intelligent_pooling::chaos::ScenarioSpec;
use intelligent_pooling::sim::{CompatibilityMatrix, FleetAggregate, FleetPool, FleetSim};
use intelligent_pooling::sim::{FaultEntry, SimConfig};
use intelligent_pooling::timeseries::TimeSeries;

/// One day of 30 s intervals.
const INTERVALS: usize = 2880;
const SCENARIO: &str = "diurnal-ramp+flash-crowd";
const SCENARIO_SEED: u64 = 42;
/// Warm-transfer latency on every matrix edge, seconds (vs τ = 90 s).
const EDGE_LATENCY: u64 = 10;

/// `(name, target, demand seed, demand amplitude)`. "west" runs far under
/// its target, so it is the natural donor when a sibling spikes.
const POOLS: [(&str, u32, u64, f64); 3] = [
    ("east", 3, 3, 5.0),
    ("west", 8, 8, 1.0),
    ("spare", 2, 5, 3.0),
];

/// A deterministic bursty trace (no process RNG).
fn demand(seed: u64, amplitude: f64) -> TimeSeries {
    let values = (0..INTERVALS)
        .map(|i| {
            let x = (i as u64).wrapping_mul(2654435761).wrapping_add(seed * 131);
            (f64::from((x % 5) as u32) / 4.0 * amplitude).round()
        })
        .collect();
    TimeSeries::new(30, values).unwrap()
}

/// Every ordered pool pair may borrow at [`EDGE_LATENCY`].
fn permissive_matrix() -> CompatibilityMatrix {
    let mut m = CompatibilityMatrix::new();
    for (from, ..) in POOLS {
        for (to, ..) in POOLS {
            if from != to {
                m = m.edge(from, to, EDGE_LATENCY);
            }
        }
    }
    m
}

/// The scenario-shaped traces plus each pool's fault schedule.
fn shaped_pools() -> Vec<(String, TimeSeries, Vec<FaultEntry>)> {
    let raw = POOLS
        .iter()
        .map(|&(name, _, seed, amp)| (name.to_string(), demand(seed, amp)))
        .collect();
    let plan = ScenarioSpec::by_name(SCENARIO, SCENARIO_SEED)
        .and_then(ScenarioSpec::compile)
        .and_then(|s| s.apply(raw))
        .expect("composed scenario applies");
    plan.demand
        .iter()
        .map(|(id, d)| (id.clone(), d.clone(), plan.faults_for(id).to_vec()))
        .collect()
}

/// Replays the shaped fleet to the end, with the matrix off or on.
fn replay(borrowing: bool) -> FleetAggregate {
    let pools = shaped_pools()
        .into_iter()
        .map(|(id, d, faults)| {
            let target = POOLS
                .iter()
                .find(|(name, ..)| *name == id)
                .map(|&(_, target, ..)| target)
                .expect("known pool");
            let cfg = SimConfig {
                default_pool_target: target,
                tau_jitter_secs: 0,
                seed: 7,
                faults,
                ..Default::default()
            };
            FleetPool::new(id, cfg, d)
        })
        .collect();
    let mut fleet = FleetSim::new(pools).expect("fleet builds");
    if borrowing {
        fleet.set_matrix(permissive_matrix()).expect("matrix set");
    }
    fleet.run_to_end();
    fleet.finalize().aggregate()
}

#[test]
fn borrowing_beats_isolation_at_equal_budget() {
    let isolated = replay(false);
    let borrowing = replay(true);
    assert_eq!(isolated.borrowed_in, 0, "no matrix, no borrows");
    assert_eq!(
        isolated.total_requests, borrowing.total_requests,
        "both modes replay the same demand"
    );
    assert!(
        borrowing.borrowed_in > 0,
        "the permissive matrix must resolve borrows under the spike scenario"
    );
    assert!(
        borrowing.hit_rate > isolated.hit_rate,
        "borrowing must beat isolation on hit rate ({:.4} vs {:.4})",
        borrowing.hit_rate,
        isolated.hit_rate
    );
    assert!(
        borrowing.mean_wait_secs < isolated.mean_wait_secs,
        "borrowing must beat isolation on mean wait ({:.2} s vs {:.2} s)",
        borrowing.mean_wait_secs,
        isolated.mean_wait_secs
    );
}
