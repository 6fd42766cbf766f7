//! Cross-pool borrowing: protocol pins and thread-count determinism.
//!
//! The borrowing driver must produce byte-identical output — reports,
//! Prometheus bytes, event streams — at one worker thread and at any
//! other count or pacing, and an **empty** matrix must leave the fleet on
//! exactly the pre-borrowing code paths. Recording is process-wide, and
//! any fleet stepped while another test records would write into its
//! registry, so every test that builds or steps a fleet holds one mutex.

use ip_sim::{CompatibilityMatrix, FleetPool, FleetReport, FleetSim, SimConfig};
use ip_timeseries::TimeSeries;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

static GATE: Mutex<()> = Mutex::new(());

/// Serializes fleet tests; a failed test must not poison the rest.
fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn demand(vals: Vec<f64>) -> TimeSeries {
    TimeSeries::new(30, vals).unwrap()
}

fn cfg(target: u32, seed: u64) -> SimConfig {
    SimConfig {
        default_pool_target: target,
        tau_jitter_secs: 0,
        seed,
        ..Default::default()
    }
}

/// One pool that spikes while its sibling idles over a warm pool.
fn spike_and_idle(matrix: CompatibilityMatrix) -> FleetSim {
    let mut spike = vec![0.0; 20];
    spike[4] = 6.0;
    let pools = vec![
        FleetPool::new("busy", cfg(1, 1), demand(spike)),
        FleetPool::new("lazy", cfg(6, 2), demand(vec![0.0; 20])),
    ];
    let mut fleet = FleetSim::new(pools).unwrap();
    fleet.set_matrix(matrix).unwrap();
    fleet
}

#[test]
fn borrowing_turns_misses_into_warm_hits() {
    let _g = gate();
    let isolated = {
        let mut fleet = spike_and_idle(CompatibilityMatrix::new());
        fleet.run_to_end();
        fleet.finalize().aggregate()
    };
    let borrowing = {
        let mut fleet = spike_and_idle(CompatibilityMatrix::new().edge("lazy", "busy", 10));
        fleet.run_to_end();
        let report = fleet.finalize();
        let busy = report.get("busy").unwrap();
        // 6 requests against 1 ready cluster: 1 local hit, 5 borrows from
        // the 6-cluster sibling.
        assert_eq!(busy.borrowed_in, 5);
        assert_eq!(busy.hits, 6);
        assert_eq!(busy.misses, 0);
        assert_eq!(busy.borrow_records.len(), 5);
        assert!(busy.borrow_records.iter().all(|b| b.from == "lazy"));
        assert!(busy
            .borrow_records
            .iter()
            .all(|b| b.latency_secs == 10 && b.t == 120));
        assert_eq!(report.get("lazy").unwrap().borrowed_out, 5);
        report.aggregate()
    };
    assert_eq!(borrowing.borrowed_in, 5);
    assert_eq!(borrowing.borrowed_in, borrowing.borrowed_out);
    assert!(borrowing.hit_rate > isolated.hit_rate);
    // Each borrow pays 10 s instead of τ = 90 s.
    assert!(borrowing.mean_wait_secs < isolated.mean_wait_secs);
}

#[test]
fn contending_requesters_resolve_in_registration_order() {
    let _g = gate();
    // Pools "a" (index 0) and "c" (index 2) both miss at t=0; donor "b"
    // has exactly one warm cluster. The lower registration index wins it;
    // the other falls back on-demand.
    let pools = vec![
        FleetPool::new("a", cfg(0, 1), demand(vec![1.0; 4])),
        FleetPool::new("b", cfg(1, 2), demand(vec![0.0; 4])),
        FleetPool::new("c", cfg(0, 3), demand(vec![1.0; 4])),
    ];
    let mut fleet = FleetSim::new(pools).unwrap();
    fleet
        .set_matrix(
            CompatibilityMatrix::new()
                .edge("b", "a", 10)
                .edge("b", "c", 10)
                // Freeze the donor after one donation so exactly one
                // cluster is ever contended.
                .donation_floor("b", 0)
                .max_concurrent(1),
        )
        .unwrap();
    fleet.step_until(0);
    let report = fleet.finalize();
    assert_eq!(report.get("a").unwrap().borrowed_in, 1);
    assert_eq!(report.get("a").unwrap().hits, 1);
    assert_eq!(report.get("c").unwrap().borrowed_in, 0);
    assert_eq!(report.get("c").unwrap().misses, 1);
}

#[test]
fn donation_floor_refuses_the_borrow() {
    let _g = gate();
    let mut fleet = spike_and_idle(
        CompatibilityMatrix::new()
            .edge("lazy", "busy", 10)
            .donation_floor("lazy", 6),
    );
    fleet.run_to_end();
    let report = fleet.finalize();
    let busy = report.get("busy").unwrap();
    assert_eq!(busy.borrowed_in, 0);
    assert_eq!(busy.misses, 5);
    assert_eq!(report.get("lazy").unwrap().borrowed_out, 0);
}

#[test]
fn in_flight_slot_frees_on_the_exact_interval_boundary() {
    let _g = gate();
    // With `max_concurrent_borrows = 1`, a borrow at t occupies its slot
    // until t + latency. Latency 30 = the interval width: the slot frees
    // exactly at the next boundary (strict `>` comparison), so each of 3
    // consecutive one-request intervals borrows. Latency 31 holds the slot
    // across the boundary: every other interval falls back.
    for (latency, expect_borrows) in [(30u64, 3u64), (31, 2)] {
        let pools = vec![
            FleetPool::new("busy", cfg(0, 1), demand(vec![1.0, 1.0, 1.0])),
            FleetPool::new("lazy", cfg(8, 2), demand(vec![0.0; 3])),
        ];
        let mut fleet = FleetSim::new(pools).unwrap();
        fleet
            .set_matrix(
                CompatibilityMatrix::new()
                    .edge("lazy", "busy", latency)
                    .max_concurrent(1),
            )
            .unwrap();
        fleet.run_to_end();
        let report = fleet.finalize();
        assert_eq!(
            report.get("busy").unwrap().borrowed_in,
            expect_borrows,
            "latency {latency}"
        );
    }
}

#[test]
fn matrix_validation_rejects_bad_edges() {
    let _g = gate();
    let pools = || {
        vec![
            FleetPool::new("east", cfg(1, 1), demand(vec![1.0; 4])),
            FleetPool::new("west", cfg(1, 2), demand(vec![1.0; 4])),
        ]
    };
    let cases: Vec<(CompatibilityMatrix, &str)> = vec![
        (
            CompatibilityMatrix::new().edge("east", "nowhere", 10),
            "unknown pool \"nowhere\" in borrow edge \"east\" -> \"nowhere\"",
        ),
        (
            CompatibilityMatrix::new().edge("ghost", "west", 10),
            "unknown pool \"ghost\"",
        ),
        (
            CompatibilityMatrix::new().edge("east", "east", 10),
            "self-loop",
        ),
        (
            CompatibilityMatrix::new().edge("east", "west", 0),
            "latency 0s",
        ),
        (
            CompatibilityMatrix::new().edge("east", "west", 90),
            "< the requester's tau (90s)",
        ),
        (
            CompatibilityMatrix::new()
                .edge("east", "west", 10)
                .donation_floor("ghost", 1),
            "unknown pool \"ghost\" in donation floors",
        ),
    ];
    for (matrix, needle) in cases {
        let mut fleet = FleetSim::new(pools()).unwrap();
        let err = fleet.set_matrix(matrix).unwrap_err().to_string();
        assert!(err.contains(needle), "expected {needle:?} in {err:?}");
    }
    // An empty matrix normalizes to borrowing off.
    let mut fleet = FleetSim::new(pools()).unwrap();
    fleet.set_matrix(CompatibilityMatrix::new()).unwrap();
    assert!(!fleet.borrowing_enabled());
}

fn pseudo_demand(seed: u64, n: usize) -> TimeSeries {
    let vals: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(2654435761).wrapping_add(seed * 131);
            f64::from((x % 6) as u32)
        })
        .collect();
    TimeSeries::new(30, vals).unwrap()
}

fn build_fleet(pools: usize, seed: u64, matrix: &CompatibilityMatrix) -> FleetSim {
    let members = (0..pools)
        .map(|k| {
            let cfg = SimConfig {
                default_pool_target: (k as u32) % 4,
                tau_jitter_secs: 15,
                seed: seed + k as u64,
                ..Default::default()
            };
            FleetPool::new(format!("p{k}"), cfg, pseudo_demand(seed + k as u64, 30))
        })
        .collect();
    let mut fleet = FleetSim::new(members).unwrap();
    fleet.set_matrix(matrix.clone()).unwrap();
    fleet
}

fn report_bytes(report: &FleetReport) -> String {
    format!("{report:?}")
}

/// Random matrices over `pools` members: every ordered pair is an edge or
/// not per one bit of `edge_mask`, latencies/floors/cap derived from the
/// seed so the whole matrix reproduces from `(pools, edge_mask, knobs)`.
fn matrix_from(pools: usize, edge_mask: u32, knobs: u64) -> CompatibilityMatrix {
    let mut m = CompatibilityMatrix::new();
    let mut bit = 0;
    for from in 0..pools {
        for to in 0..pools {
            if from == to {
                continue;
            }
            if edge_mask & (1 << bit) != 0 {
                let latency = 5 + (knobs.wrapping_mul(7 + bit as u64) % 50);
                m = m.edge(format!("p{from}"), format!("p{to}"), latency);
            }
            bit += 1;
        }
    }
    m.max_concurrent_borrows = (knobs % 4) as usize; // 0 = unlimited
    if knobs.is_multiple_of(3) {
        m = m.donation_floor("p0", 1);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reports are byte-identical (full `Debug` rendering, telemetry
    /// stores included) at any worker count and pacing of a borrowing
    /// fleet.
    #[test]
    fn borrow_reports_agree_across_threads(
        pools in 2usize..5,
        edge_mask in 0u32..4096,
        knobs in 1u64..500,
        seed in 0u64..50,
    ) {
        let _g = gate();
        let matrix = matrix_from(pools, edge_mask, knobs);
        let run = |threads: usize, stride: u64| {
            let mut fleet = build_fleet(pools, seed, &matrix).with_threads(threads);
            let end = fleet.end_time();
            let mut t = 0;
            while !fleet.is_done() {
                t = (t + stride).min(end);
                fleet.step_until(t);
            }
            report_bytes(&fleet.finalize())
        };
        let one = run(1, u64::MAX);
        for threads in [2usize, 4, 7] {
            prop_assert_eq!(&one, &run(threads, u64::MAX));
        }
        prop_assert_eq!(&one, &run(1, 137));
        prop_assert_eq!(&one, &run(4, 137));
    }
}

struct ObsRun {
    report: String,
    prometheus: String,
    events: Vec<ip_obs::EventRecord>,
}

fn observed_run(matrix: &CompatibilityMatrix, threads: usize) -> ObsRun {
    ip_obs::set_enabled(true);
    ip_obs::reset();
    let mut fleet = build_fleet(3, 11, matrix).with_threads(threads);
    fleet.run_to_end();
    let report = report_bytes(&fleet.finalize());
    let prometheus = ip_obs::export::render_prometheus(ip_obs::global());
    let events = ip_obs::take_trace().events;
    ip_obs::set_enabled(false);
    ip_obs::reset();
    ObsRun {
        report,
        prometheus,
        events,
    }
}

#[test]
fn borrow_obs_bytes_agree_across_threads() {
    let _g = gate();
    let matrix = CompatibilityMatrix::new()
        .edge("p1", "p0", 10)
        .edge("p2", "p0", 20)
        .edge("p2", "p1", 15);
    let one = observed_run(&matrix, 1);
    assert!(one.prometheus.contains("ip_sim_borrows_total"));
    for threads in [2usize, 4, 7] {
        let par = observed_run(&matrix, threads);
        assert_eq!(one.report, par.report, "{threads} threads: report");
        assert_eq!(
            one.prometheus, par.prometheus,
            "{threads} threads: metric bytes"
        );
        assert_eq!(one.events, par.events, "{threads} threads: events");
    }
}

#[test]
fn empty_matrix_is_byte_identical_to_no_matrix() {
    let _g = gate();
    let run = |set_empty: bool, threads: usize| {
        ip_obs::set_enabled(true);
        ip_obs::reset();
        let members = (0..3)
            .map(|k| {
                FleetPool::new(
                    format!("p{k}"),
                    cfg(2, 5 + k as u64),
                    pseudo_demand(k as u64, 24),
                )
            })
            .collect();
        let mut fleet = FleetSim::new(members).unwrap().with_threads(threads);
        if set_empty {
            fleet.set_matrix(CompatibilityMatrix::new()).unwrap();
        }
        fleet.run_to_end();
        let report = report_bytes(&fleet.finalize());
        let prometheus = ip_obs::export::render_prometheus(ip_obs::global());
        let events = ip_obs::take_trace().events;
        ip_obs::set_enabled(false);
        ip_obs::reset();
        (report, prometheus, events)
    };
    for threads in [1usize, 4, 7] {
        let plain = run(false, threads);
        let empty = run(true, threads);
        assert_eq!(plain.0, empty.0, "{threads} threads: report");
        assert_eq!(plain.1, empty.1, "{threads} threads: metric bytes");
        assert_eq!(plain.2, empty.2, "{threads} threads: events");
        assert!(
            !plain.1.contains("ip_sim_borrows_total"),
            "no borrow series without a matrix"
        );
    }
}
