//! `fleet-replay` and `fleet-borrow-obs`: offline fleet replays through
//! `ip_sim::FleetSim`.
//!
//! * `fleet-replay` — 64 pools, the six Table-1 presets round-robin, one
//!   day each, every pool's static target sized to a 0.9 hit rate on its
//!   own trace. No matrix, recording off: the engine, the pool-major
//!   driver and `ip-par` do the work.
//! * `fleet-borrow-obs` — a few pools of mixed presets under the composed
//!   `diurnal-ramp+flash-crowd` scenario, sized on their unshaped traces
//!   so the spikes miss, wired together by a permissive matrix with 10 s
//!   edges, recording on: the borrowing epoch driver and `ip-obs` do the
//!   work.

use crate::harness::{ms_since, repeat_setup, run_ops, with_threads, Budget, ReferenceSampler};
use crate::report::Report;
use crate::stats::median;
use crate::{spans, Args};
use ip_chaos::ScenarioSpec;
use ip_core::CostModel;
use ip_saa::static_pool::optimal_static_for_hit_rate;
use ip_sim::{CompatibilityMatrix, FleetAggregate, FleetPool, FleetSim, SimConfig};
use ip_timeseries::TimeSeries;
use ip_workload::{pool_seed, table1_presets, FleetPoolPreset, FleetTrace, PresetId};
use std::time::Instant;

/// Cluster creation latency τ in 30 s intervals (`SimConfig`'s 90 s).
const TAU_INTERVALS: usize = 3;
/// Hit rate every pool's static target is sized for.
const SIZING_HIT_RATE: f64 = 0.9;
/// Largest static target the sizing search considers.
const MAX_POOL: u32 = 500;
/// The composed spike scenario of `fleet-borrow-obs`.
const SCENARIO: &str = "diurnal-ramp+flash-crowd";
/// The scenario's own seed. It is fixed, so the spikes (and with them
/// the work per op) are the same on every run; `--seed` varies the
/// traces underneath them.
const SCENARIO_SEED: u64 = 42;
/// Warm-transfer latency on every matrix edge, seconds (τ is 90 s).
const EDGE_LATENCY_SECS: u64 = 10;
/// Mixed presets of the borrowing fleet: two busy pools, two quiet ones.
const BORROW_PRESETS: [PresetId; 4] = [
    PresetId::WestUs2Small,
    PresetId::EastUs2Medium,
    PresetId::WestUs2Large,
    PresetId::EastUs2Small,
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Replay,
    BorrowObs,
}

/// A built fleet's inputs; every op replays a fresh `FleetSim` over them.
struct FleetInput {
    pools: Vec<(String, SimConfig, TimeSeries)>,
    matrix: Option<CompatibilityMatrix>,
}

impl FleetInput {
    fn build(&self, with_matrix: bool) -> Result<FleetSim, String> {
        let pools = self
            .pools
            .iter()
            .map(|(id, cfg, d)| FleetPool::new(id.as_str(), cfg.clone(), d.clone()))
            .collect();
        let mut fleet = FleetSim::new(pools).map_err(|e| format!("fleet: {e}"))?;
        if let (true, Some(m)) = (with_matrix, &self.matrix) {
            fleet
                .set_matrix(m.clone())
                .map_err(|e| format!("matrix: {e}"))?;
        }
        Ok(fleet)
    }

    fn pool_days(&self) -> f64 {
        self.pools
            .iter()
            .map(|(_, _, d)| d.duration_secs() as f64 / 86_400.0)
            .sum()
    }
}

struct SetupTimes {
    generate_ms: f64,
    chaos_ms: f64,
}

/// The smallest static target reaching [`SIZING_HIT_RATE`] on `demand`.
pub(crate) fn size_for(demand: &TimeSeries) -> Result<u32, String> {
    optimal_static_for_hit_rate(demand, TAU_INTERVALS, SIZING_HIT_RATE, MAX_POOL)
        .map(|(n, _)| n)
        .map_err(|e| format!("sizing: {e}"))
}

fn sim_config(seed: u64, name: &str, target: u32) -> SimConfig {
    SimConfig {
        default_pool_target: target,
        seed: pool_seed(seed, name),
        ..SimConfig::default()
    }
}

fn setup(kind: Kind, seed: u64, pools: usize) -> Result<(FleetInput, SetupTimes), String> {
    let presets: Vec<PresetId> = match kind {
        Kind::Replay => table1_presets(),
        Kind::BorrowObs => BORROW_PRESETS.to_vec(),
    };
    let members = (0..pools)
        .map(|i| FleetPoolPreset::new(format!("p{i:02}"), presets[i % presets.len()]))
        .collect();
    let t0 = Instant::now();
    let traces = spans::timed("workload.generate", || {
        FleetTrace::new(seed, members).generate()
    });
    let generate_ms = ms_since(t0);
    // Targets are sized on the unshaped traces in both workloads.
    let targets = traces
        .iter()
        .map(|(_, d)| size_for(d))
        .collect::<Result<Vec<u32>, String>>()?;
    if kind == Kind::Replay {
        let pools = traces
            .into_iter()
            .zip(targets)
            .map(|((name, d), n)| (name.clone(), sim_config(seed, &name, n), d))
            .collect();
        let times = SetupTimes {
            generate_ms,
            chaos_ms: 0.0,
        };
        return Ok((
            FleetInput {
                pools,
                matrix: None,
            },
            times,
        ));
    }
    let t1 = Instant::now();
    let plan = spans::timed("chaos.apply", || {
        ScenarioSpec::by_name(SCENARIO, SCENARIO_SEED)
            .and_then(ScenarioSpec::compile)
            .and_then(|s| s.apply(traces))
    })
    .map_err(|e| format!("scenario {SCENARIO}: {e}"))?;
    let chaos_ms = ms_since(t1);
    let mut matrix = CompatibilityMatrix::new();
    let names: Vec<String> = plan.demand.iter().map(|(id, _)| id.clone()).collect();
    for from in &names {
        for to in &names {
            if from != to {
                matrix = matrix.edge(from.as_str(), to.as_str(), EDGE_LATENCY_SECS);
            }
        }
    }
    let pools = plan
        .demand
        .iter()
        .zip(targets)
        .map(|((id, d), n)| {
            let mut cfg = sim_config(seed, id, n);
            cfg.faults = plan.faults_for(id).to_vec();
            (id.clone(), cfg, d.clone())
        })
        .collect();
    let times = SetupTimes {
        generate_ms,
        chaos_ms,
    };
    Ok((
        FleetInput {
            pools,
            matrix: Some(matrix),
        },
        times,
    ))
}

/// One op's outputs, compared across ops.
#[derive(PartialEq)]
struct OpOutput {
    aggregate: FleetAggregate,
    exposition: Option<String>,
}

/// Replays the fleet once: `run_to_end` + `finalize` + `aggregate`, and
/// with recording on, the Prometheus rendering.
fn replay_once(input: &FleetInput, record: bool) -> Result<OpOutput, String> {
    let mut fleet = input.build(true)?;
    if record {
        ip_obs::reset();
    }
    let _op = spans::span("fleet.op");
    spans::timed("sim.fleet.run", || fleet.run_to_end());
    let aggregate = spans::timed("sim.fleet.finalize", || fleet.finalize().aggregate());
    let exposition = record.then(|| {
        spans::timed("obs.render", || {
            ip_obs::export::render_prometheus(ip_obs::global())
        })
    });
    Ok(OpOutput {
        aggregate,
        exposition,
    })
}

/// Times `run_to_end` alone on a fresh fleet, recording off.
fn run_only_ms(input: &FleetInput, with_matrix: bool) -> Result<f64, String> {
    let mut fleet = input.build(with_matrix)?;
    let t0 = Instant::now();
    fleet.run_to_end();
    Ok(ms_since(t0))
}

fn median_of_reps(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let xs = (0..reps)
        .map(|_| f())
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&xs))
}

pub fn run(
    kind: Kind,
    args: &Args,
    sampler: &ReferenceSampler,
    report: &mut Report,
) -> Result<(), String> {
    let pools = match (kind, args.tiny) {
        (Kind::Replay, false) => 64,
        (Kind::Replay, true) => 4,
        (Kind::BorrowObs, false) => 4,
        (Kind::BorrowObs, true) => 2,
    };
    let record = kind == Kind::BorrowObs;

    let mut generate_ms = Vec::new();
    let mut chaos_ms = Vec::new();
    let (input, setup_s) = repeat_setup(
        || {
            let (built, times) = setup(kind, args.seed, pools)?;
            generate_ms.push(times.generate_ms);
            chaos_ms.push(times.chaos_ms);
            Ok(built)
        },
        drop,
    )?;
    report.median_of("setup_s", "s", &setup_s);
    report.fact("pools", pools);
    report.fact("pool_days_per_op", input.pool_days());
    report.fact(
        "static_targets",
        format!(
            "{:?}",
            input
                .pools
                .iter()
                .map(|(_, c, _)| c.default_pool_target)
                .collect::<Vec<_>>()
        ),
    );
    if record {
        report.fact("scenario", SCENARIO);
        report.fact("matrix", format!("permissive, {EDGE_LATENCY_SECS} s edges"));
    }
    let threads = input.build(true)?.effective_threads().unwrap_or(1);
    report.fact("fleet_threads", threads);

    ip_obs::set_enabled(record);
    let mut first: Option<OpOutput> = None;
    let mut mismatches = 0u64;
    let budget = Budget {
        warm_ops: 1,
        warm_s: 1.5,
        seconds: args.seconds,
    };
    let timed = run_ops(budget, sampler, |i| {
        // Traced runs alternate untraced and traced ops.
        let traced = args.trace && i % 2 == 1;
        spans::set_enabled(traced);
        spans::begin_op(i);
        let out = replay_once(&input, record)?;
        spans::set_enabled(false);
        match &first {
            None => first = Some(out),
            Some(f) if *f != out => mismatches += 1,
            Some(_) => {}
        }
        Ok(())
    })?;
    report.timed_ops(&timed, args.trace, input.pool_days(), "pool-days");
    report.check(mismatches == 0, || {
        format!("{mismatches} ops produced a fleet aggregate or exposition unlike the first op's")
    });
    let first = first.ok_or("no op completed")?;
    let agg = &first.aggregate;
    report.check(agg.total_requests > 0, || "fleet served no requests".into());
    if kind == Kind::Replay {
        // Sizing aims every pool at 0.9; the replay must land near it.
        report.check((0.8..=1.0).contains(&agg.hit_rate), || {
            format!(
                "hit rate {} is far from the 0.9 sizing target",
                agg.hit_rate
            )
        });
    } else {
        report.check(agg.borrowed_in > 0, || {
            "the borrowing fleet never borrowed".into()
        });
    }
    if let Some(text) = &first.exposition {
        match ip_obs::export::parse_prometheus(text) {
            Ok(samples) => report.check(!samples.is_empty(), || "empty exposition".into()),
            Err(e) => report.check(false, || format!("exposition does not parse: {e}")),
        }
    }
    report.value("hit_rate", "ratio", agg.hit_rate);
    report.value("mean_wait_s", "s", agg.mean_wait_secs);
    report.value(
        "idle_cogs_usd",
        "USD",
        CostModel::default().cost_of_idle(agg.idle_cluster_seconds),
    );
    report.fact("requests_per_op", agg.total_requests);
    report.fact("borrowed_in_per_op", agg.borrowed_in);

    if !args.trace {
        return Ok(());
    }

    // Traced run: per-layer metrics from the traced ops' spans.
    let spans_all = spans::closed();
    let run_ms = spans::durations_ms(&spans_all, "sim.fleet.run");
    let finalize_ms = spans::durations_ms(&spans_all, "sim.fleet.finalize");
    report.median_of("workload.generate_ms", "ms", &generate_ms);
    if record {
        report.median_of("chaos.apply_ms", "ms", &chaos_ms);
    }
    report.median_of("sim.fleet.run_ms", "ms", &run_ms);
    report.median_of("sim.fleet.finalize_ms", "ms", &finalize_ms);
    report.value("sim.requests", "count", agg.total_requests as f64);
    let run_median_ms = median(&run_ms);
    report.value(
        "sim.requests_per_s",
        "1/s",
        agg.total_requests as f64 / (run_median_ms / 1e3),
    );
    report.value("par.threads", "count", threads as f64);
    let (untraced_ms, traced_ms) = timed.by_parity();
    report.value(
        "trace.overhead",
        "ratio",
        median(&traced_ms) / median(&untraced_ms),
    );

    let reps = if args.tiny { 1 } else { 2 };
    ip_obs::set_enabled(false);
    let default_ms = median_of_reps(reps, || run_only_ms(&input, true))?;
    let single_ms = with_threads(1, || median_of_reps(reps, || run_only_ms(&input, true)))?;
    report.value("par.scaling", "ratio", single_ms / default_ms);
    if record {
        let render_ms = spans::durations_ms(&spans_all, "obs.render");
        report.median_of("obs.render_ms", "ms", &render_ms);
        let bytes = first.exposition.as_ref().map_or(0, String::len);
        report.value("obs.exposition_bytes", "bytes", bytes as f64);
        report.value("sim.borrow.transfers", "count", agg.borrowed_in as f64);
        // `default_ms` is this fleet with its matrix, recording off.
        let isolated_ms = median_of_reps(reps, || run_only_ms(&input, false))?;
        report.value("sim.borrow.driver_ratio", "ratio", default_ms / isolated_ms);
        report.value("obs.record_ratio", "ratio", run_median_ms / default_ms);
    }
    Ok(())
}
