//! Observability byte-identity against an independent oracle: with
//! recording on, an isolated (matrix-free) fleet must export exactly what
//! running each pool alone through [`Simulation::run`] exports — the
//! rendered Prometheus text (pool-labeled metric series, including float
//! counter and histogram accumulation) and the logical-clock event stream,
//! which is the per-pool streams concatenated in registration order and
//! stably sorted on time (i.e. merged on `(t, pool index)`). Wall-clock
//! span *timings* are inherently nondeterministic and excluded; span
//! names and parent structure are compared, minus the `sim.run` wrapper
//! span that only `Simulation::run` opens.
//!
//! These tests mutate the process-wide registry/trace, so they serialize
//! behind one mutex (this file is its own test binary, isolating it from
//! every other suite's process).

use ip_sim::{FleetPool, FleetSim, IpWorkerConfig, PoolId, SimConfig, Simulation};
use ip_timeseries::TimeSeries;
use std::sync::{Mutex, MutexGuard, PoisonError};

static GATE: Mutex<()> = Mutex::new(());

/// Serializes recording tests; a failed test must not poison the rest.
fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

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

fn peak_provider() -> impl FnMut(u64, &TimeSeries, usize) -> Option<Vec<u32>> + Send {
    let mut runs = 0u32;
    move |_now, observed: &TimeSeries, horizon| {
        runs += 1;
        let peak = observed.values().iter().fold(0.0f64, |a, &b| a.max(b));
        Some(vec![(peak as u32).min(6) + runs % 2; horizon])
    }
}

/// Pool `k` of an `n`-pool fleet: `(name, config, demand)`.
fn pool_spec(k: usize) -> (String, SimConfig, TimeSeries) {
    let seed = 3 + k as u64;
    let len = 48 + (k % 5) * 24;
    (
        format!("pool-{k:02}"),
        eventful_config(seed),
        demand(seed, len),
    )
}

struct ObsRun {
    reports: Vec<String>,
    prometheus: String,
    events: Vec<ip_obs::EventRecord>,
    /// `(name, parent name, child count)` per span, sorted.
    spans: Vec<(String, Option<String>, usize)>,
}

/// Span names and nesting with `sim.run` spans spliced out: their
/// children become roots.
fn span_structure(trace: &ip_obs::Trace) -> Vec<(String, Option<String>, usize)> {
    let kept: Vec<_> = trace.spans.iter().filter(|s| s.name != "sim.run").collect();
    let name_of = |id: Option<u64>| {
        kept.iter()
            .find(|s| Some(s.id) == id)
            .map(|s| s.name.clone())
    };
    let mut spans: Vec<_> = kept
        .iter()
        .map(|s| {
            let children = kept.iter().filter(|c| c.parent == Some(s.id)).count();
            (s.name.clone(), name_of(s.parent), children)
        })
        .collect();
    spans.sort();
    spans
}

/// Starts a recording run on clean sinks.
fn record() {
    ip_obs::set_enabled(true);
    ip_obs::reset();
}

/// Ends a recording run: the rendered registry plus the drained trace.
fn drain() -> (String, ip_obs::Trace) {
    let prometheus = ip_obs::export::render_prometheus(ip_obs::global());
    let trace = ip_obs::take_trace();
    ip_obs::set_enabled(false);
    ip_obs::reset();
    (prometheus, trace)
}

/// The oracle: every pool run alone through `Simulation::run`, one after
/// another into the same (pool-disjoint) registry.
fn independent_runs(pools: usize) -> ObsRun {
    record();
    let mut reports = Vec::new();
    let mut events = Vec::new();
    let mut spans = Vec::new();
    for k in 0..pools {
        let (name, mut cfg, d) = pool_spec(k);
        cfg.pool = Some(PoolId::new(name));
        let mut provider = peak_provider();
        let report = Simulation::new(cfg, Some(&mut provider)).run(&d).unwrap();
        reports.push(format!("{report:?}"));
        let trace = ip_obs::take_trace();
        spans.extend(span_structure(&trace));
        events.extend(trace.events);
    }
    // Stable: a pool's own events keep their order, and time ties fall to
    // the lower registration index.
    events.sort_by_key(|e| e.t);
    spans.sort();
    let (prometheus, _) = drain();
    ObsRun {
        reports,
        prometheus,
        events,
        spans,
    }
}

/// The fleet under test, stepped in `stride`-second epochs.
fn fleet_run(pools: usize, threads: usize, stride: u64) -> ObsRun {
    record();
    let members = (0..pools)
        .map(|k| {
            let (name, cfg, d) = pool_spec(k);
            FleetPool::new(name, cfg, d).with_provider(Box::new(peak_provider()))
        })
        .collect();
    let mut fleet = FleetSim::new(members).unwrap().with_threads(threads);
    let end = fleet.end_time();
    let mut t = 0;
    while !fleet.is_done() {
        t = (t + stride).min(end);
        fleet.step_until(t);
    }
    let reports = fleet
        .finalize()
        .pools
        .iter()
        .map(|(_, r)| format!("{r:?}"))
        .collect();
    let (prometheus, trace) = drain();
    ObsRun {
        reports,
        prometheus,
        spans: span_structure(&trace),
        events: trace.events,
    }
}

fn assert_same(oracle: &ObsRun, fleet: &ObsRun, ctx: &str) {
    assert_eq!(oracle.reports, fleet.reports, "{ctx}: reports");
    assert_eq!(oracle.prometheus, fleet.prometheus, "{ctx}: metric bytes");
    assert_eq!(oracle.events, fleet.events, "{ctx}: event stream");
    assert_eq!(oracle.spans, fleet.spans, "{ctx}: span names and structure");
}

#[test]
fn fleet_obs_bytes_match_independent_runs() {
    let _g = gate();
    for pools in [1usize, 3, 16] {
        let oracle = independent_runs(pools);
        assert!(
            !oracle.events.is_empty() && !oracle.prometheus.is_empty(),
            "the oracle must actually record something"
        );
        for threads in [1usize, 2, 4, 7] {
            let fleet = fleet_run(pools, threads, u64::MAX);
            assert_same(
                &oracle,
                &fleet,
                &format!("{pools} pools / {threads} threads"),
            );
        }
    }
}

#[test]
fn epoch_pacing_does_not_change_obs_bytes() {
    let _g = gate();
    let oracle = independent_runs(3);
    for stride in [137u64, 999] {
        for threads in [1usize, 4] {
            let fleet = fleet_run(3, threads, stride);
            assert_same(
                &oracle,
                &fleet,
                &format!("stride {stride} / {threads} threads"),
            );
        }
    }
}
