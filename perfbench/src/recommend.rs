//! `recommend`: one §7.4 recommendation cycle for a handful of pools —
//! per pool an SSA+ fit on two days of history and a one-hour forecast,
//! then one budgeted fleet solve (`Fleet::recommend_all_budgeted`) whose
//! budget is a fixed share of what the fleet would ask for unconstrained,
//! so it binds. Schedules are scored against the held-out hour outside
//! the timed op.

use crate::harness::{ms_since, repeat_setup, run_ops, with_threads, Budget, ReferenceSampler};
use crate::report::Report;
use crate::stats::median;
use crate::{spans, Args};
use ip_core::{CostModel, Fleet, FleetBudget, PoolId, PoolSpec};
use ip_models::{Forecaster, SeasonalNaive, SsaPlus};
use ip_saa::evaluate_schedule;
use ip_timeseries::TimeSeries;
use ip_workload::{FleetPoolPreset, FleetTrace, PresetId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Intervals per day at 30 s.
const DAY: usize = 2_880;
/// Forecast horizon: one hour of 30 s intervals.
const HORIZON: usize = 120;
/// Cluster creation latency τ in intervals, as the optimizer assumes.
const TAU_INTERVALS: usize = 3;
/// The budget as a share of the unconstrained fleet total.
const BUDGET_SHARE: f64 = 0.75;
const PRESETS: [PresetId; 3] = [
    PresetId::WestUs2Small,
    PresetId::WestUs2Medium,
    PresetId::EastUs2Large,
];

struct Pool {
    id: PoolId,
    history: TimeSeries,
    held_out: TimeSeries,
}

struct Input {
    pools: Vec<Pool>,
    fleet: Fleet,
    budget: FleetBudget,
}

/// One cycle's outputs, compared across ops.
#[derive(PartialEq)]
struct Cycle {
    forecasts: Vec<Vec<f64>>,
    schedules: Vec<Vec<u32>>,
    unconstrained: u64,
    granted: u64,
    binding: bool,
}

fn setup(seed: u64, pools: usize) -> Result<(Input, f64), String> {
    let members = (0..pools)
        .map(|i| FleetPoolPreset::new(format!("r{i}"), PRESETS[i % PRESETS.len()]))
        .collect();
    let t0 = Instant::now();
    // Two days of history plus the held-out hour (three days generated).
    let traces = spans::timed("workload.generate", || {
        FleetTrace {
            days: 3,
            ..FleetTrace::new(seed, members)
        }
        .generate()
    });
    let generate_ms = ms_since(t0);
    let mut fleet = Fleet::new();
    let mut pool_inputs = Vec::new();
    for (name, trace) in traces {
        let v = trace.values();
        let history = TimeSeries::new(30, v[..2 * DAY].to_vec()).map_err(|e| e.to_string())?;
        let held_out = TimeSeries::new(30, v[2 * DAY..2 * DAY + HORIZON].to_vec())
            .map_err(|e| e.to_string())?;
        fleet.register(name.as_str(), PoolSpec::default());
        pool_inputs.push(Pool {
            id: PoolId::new(name.as_str()),
            history,
            held_out,
        });
    }
    // The unconstrained total is estimated from a seasonal-naive forecast
    // (the same hour one day earlier), which costs no model fit.
    let mut naive = BTreeMap::new();
    for p in &pool_inputs {
        let mut model = SeasonalNaive::new(DAY);
        model
            .fit(&p.history)
            .map_err(|e| format!("naive fit: {e}"))?;
        let f = model
            .predict(HORIZON)
            .map_err(|e| format!("naive predict: {e}"))?;
        naive.insert(
            p.id.clone(),
            TimeSeries::new(30, f).map_err(|e| e.to_string())?,
        );
    }
    let unconstrained = Fleet::total_cluster_intervals(&fleet.recommend_all(&naive));
    let budget = FleetBudget {
        max_cluster_intervals: (unconstrained as f64 * BUDGET_SHARE) as u64,
    };
    Ok((
        Input {
            pools: pool_inputs,
            fleet,
            budget,
        },
        generate_ms,
    ))
}

/// One recommendation cycle: fit + forecast per pool, then the budgeted
/// fleet solve.
fn cycle(input: &Input) -> Result<Cycle, String> {
    let _op = spans::span("recommend.op");
    let mut forecasts = Vec::with_capacity(input.pools.len());
    let mut demands = BTreeMap::new();
    for p in &input.pools {
        let mut model = SsaPlus::paper_default();
        spans::timed("models.fit", || model.fit(&p.history))
            .map_err(|e| format!("{}: fit: {e}", p.id))?;
        let f = spans::timed("models.predict", || model.predict(HORIZON))
            .map_err(|e| format!("{}: predict: {e}", p.id))?;
        demands.insert(
            p.id.clone(),
            TimeSeries::new(30, f.clone()).map_err(|e| e.to_string())?,
        );
        forecasts.push(f);
    }
    let outcome = spans::timed("core.fleet.budgeted", || {
        input
            .fleet
            .recommend_all_budgeted(&demands, Some(input.budget))
    });
    let schedules = outcome
        .pools
        .iter()
        .map(|(id, r)| {
            r.as_ref()
                .map(|rec| rec.schedule.clone())
                .map_err(|e| format!("{id}: recommend: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Cycle {
        forecasts,
        schedules,
        unconstrained: outcome.unconstrained_cluster_intervals,
        granted: outcome.granted_cluster_intervals,
        binding: outcome.binding,
    })
}

/// Scores a cycle against the held-out hour: fleet hit rate, mean wait,
/// idle COGS and the mean forecast MAE over pools.
fn score(input: &Input, c: &Cycle) -> Result<(f64, f64, f64, f64), String> {
    let (mut requests, mut hits, mut wait, mut idle, mut mae) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for ((p, schedule), forecast) in input.pools.iter().zip(&c.schedules).zip(&c.forecasts) {
        let schedule: Vec<f64> = schedule.iter().map(|&n| f64::from(n)).collect();
        let m = evaluate_schedule(&p.held_out, &schedule, TAU_INTERVALS)
            .map_err(|e| format!("{}: score: {e}", p.id))?;
        requests += m.total_requests as f64;
        hits += m.hit_rate * m.total_requests as f64;
        wait += m.wait_seconds;
        idle += m.idle_cluster_seconds;
        let err: f64 = forecast
            .iter()
            .zip(p.held_out.values())
            .map(|(f, a)| (f - a).abs())
            .sum();
        mae += err / HORIZON as f64;
    }
    Ok((
        hits / requests,
        wait / requests,
        CostModel::default().cost_of_idle(idle),
        mae / input.pools.len() as f64,
    ))
}

/// Program span names whose self time the traced run reports, with the
/// metric each feeds.
const PROGRAM_SPANS: [(&str, &str); 4] = [
    ("ssa.fit", "ssa.fit_ms"),
    ("ssa.lag_covariance", "ssa.lag_covariance_ms"),
    ("ssa.eigen", "ssa.eigen_ms"),
    ("saa.sweep_cache.build", "saa.sweep_cache.build_ms"),
];

pub fn run(args: &Args, sampler: &ReferenceSampler, report: &mut Report) -> Result<(), String> {
    let pools = if args.tiny { 2 } else { PRESETS.len() };
    let mut generate_ms = Vec::new();
    let (input, setup_s) = repeat_setup(
        || {
            let (built, gen) = setup(args.seed, pools)?;
            generate_ms.push(gen);
            Ok(built)
        },
        drop,
    )?;
    report.median_of("setup_s", "s", &setup_s);
    report.fact("pools", pools);
    report.fact("history_intervals", 2 * DAY);
    report.fact("horizon_intervals", HORIZON);
    report.fact(
        "budget_cluster_intervals",
        input.budget.max_cluster_intervals,
    );

    let mut first: Option<Cycle> = None;
    let mut mismatches = 0u64;
    let mut program: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut flops = Vec::new();
    let budget = Budget {
        warm_ops: 1,
        warm_s: 0.0,
        seconds: args.seconds,
    };
    let timed = run_ops(budget, sampler, |i| {
        let traced = args.trace && i % 2 == 1;
        spans::set_enabled(traced);
        spans::begin_op(i);
        // The traced ops read the program's own spans and GEMM tally,
        // which record only while the `ip-obs` gate is on.
        ip_obs::set_enabled(traced);
        let _ = ip_obs::take_trace();
        let gemm0 = ip_nn::gemm::gemm_tally().flops;
        let out = cycle(&input);
        spans::set_enabled(false);
        if traced {
            let trace = ip_obs::take_trace();
            for (span, metric) in PROGRAM_SPANS {
                program
                    .entry(metric)
                    .or_default()
                    .push(spans::program_self_ms(&trace, span));
            }
            flops.push((ip_nn::gemm::gemm_tally().flops - gemm0) as f64);
            ip_obs::set_enabled(false);
        }
        let out = out?;
        match &first {
            None => first = Some(out),
            Some(f) if *f != out => mismatches += 1,
            Some(_) => {}
        }
        Ok(())
    })?;
    report.timed_ops(&timed, args.trace, pools as f64, "pools");
    report.check(mismatches == 0, || {
        format!("{mismatches} cycles produced forecasts or schedules unlike the first cycle's")
    });
    let first = first.ok_or("no cycle completed")?;
    report.check(first.binding, || {
        format!(
            "the budget of {} cluster-intervals did not bind (unconstrained {})",
            input.budget.max_cluster_intervals, first.unconstrained
        )
    });
    report.check(first.granted <= input.budget.max_cluster_intervals, || {
        format!(
            "granted {} cluster-intervals over the budget of {}",
            first.granted, input.budget.max_cluster_intervals
        )
    });
    let (hit_rate, mean_wait, cogs, mae) = score(&input, &first)?;
    report.fact("unconstrained_cluster_intervals", first.unconstrained);
    report.fact("granted_cluster_intervals", first.granted);
    report.value("hit_rate", "ratio", hit_rate);
    report.value("mean_wait_s", "s", mean_wait);
    report.value("idle_cogs_usd", "USD", cogs);
    report.value("forecast_mae", "requests/interval", mae);

    if !args.trace {
        return Ok(());
    }

    let all = spans::closed();
    report.median_of("workload.generate_ms", "ms", &generate_ms);
    report.median_of(
        "models.fit_ms",
        "ms",
        &spans::durations_ms(&all, "models.fit"),
    );
    report.median_of(
        "models.predict_ms",
        "ms",
        &spans::durations_ms(&all, "models.predict"),
    );
    report.median_of(
        "core.fleet.budgeted_ms",
        "ms",
        &spans::durations_ms(&all, "core.fleet.budgeted"),
    );
    for (metric, per_op) in &program {
        report.median_of(metric, "ms", per_op);
    }
    report.median_of("nn.gemm_flops", "count", &flops);
    report.value("par.threads", "count", ip_par::num_threads() as f64);
    let (untraced_ms, traced_ms) = timed.by_parity();
    report.value(
        "trace.overhead",
        "ratio",
        median(&traced_ms) / median(&untraced_ms),
    );
    let t0 = Instant::now();
    with_threads(1, || cycle(&input))?;
    let single_ms = ms_since(t0);
    report.value("par.scaling", "ratio", single_ms / median(&untraced_ms));
    Ok(())
}
