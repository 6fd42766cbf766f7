//! `ip-pool` — command-line front end to the Intelligent Pooling library.
//!
//! ```text
//! ip-pool generate  --preset east-us-2-medium --days 2 > demand.txt
//! ip-pool recommend demand.txt --model ssa+ --alpha 0.3 --horizon 120
//! ip-pool evaluate  demand.txt --pool 8 --tau 3
//! ip-pool simulate  demand.txt --target 8
//! ip-pool simulate  --pools fleet.json
//! ip-pool serve     demand.txt --port 8080 --speedup 100 --model ssa+
//! ip-pool serve     --pools fleet.json --port 8080 --speedup 100
//! ```
//!
//! Demand files are newline-delimited request counts (optionally prefixed by
//! a timestamp column); `#` comments are ignored. Fleet spec files are JSON —
//! see [`intelligent_pooling::cli::parse_fleet_spec`].

use intelligent_pooling::cli::{
    format_demand, parse_demand, parse_fleet_spec, CliArgs, FleetMatrixSpec, FleetPoolEntry,
    FleetSpec,
};
use intelligent_pooling::prelude::*;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ip-pool <command> [args]

commands:
  generate   emit a synthetic demand trace to stdout
             --preset <west-us-2-small|east-us-2-small|west-us-2-medium|
                       east-us-2-medium|west-us-2-large|east-us-2-large|spiky>
             --days N (default 2)  --seed N (default 0)
  recommend  pool-size targets for the next horizon from a demand file
             <file>  --model <ssa|ssa+|baseline> (default ssa+)
             --alpha A' (default 0.3)  --horizon N (default 120)
             --tau N (default 3)  --stableness N (default 10)
             --interval SECS (default 30)
  evaluate   mechanism accounting for a fixed pool size on a demand file
             <file>  --pool N  --tau N (default 3)  --interval SECS
  simulate   discrete-event simulation with a static target, or with the
             full Intelligent Pooling worker loop driving the pool
             <file>  --target N (default 4)  --tau-secs N (default 90)
             --interval SECS (default 30)  --seed N
             --ip <ssa|ssa+|baseline|e2e-ssa|e2e-baseline>  run the
             recommendation pipeline in-loop (targets come from the
             model, --target is the fallback default)
             --alpha A' (default 0.3)
             --pools SPEC.json  simulate a whole fleet instead: one
             pool per spec entry, interleaved in logical-time order,
             per-pool and aggregate results (replaces <file> and the
             per-pool flags above)
             --scenario <name|spec.json>  shape the demand with a chaos
             scenario and inject its fault schedule (worker-lease
             expiry, Arbitrator partitions, config corruption,
             telemetry lag/dropout); deterministic per seed; compose
             scenarios with '+' (e.g. diurnal-ramp+flash-crowd)
             --scenario-seed N  scenario randomness seed (default 0,
             or the spec file's \"seed\")
             --list-scenarios   print the scenario catalog and exit
  serve      long-running pool-controller daemon: replays the demand file
             at wall-clock (or accelerated) speed and exposes an HTTP
             control plane on 127.0.0.1 (GET /metrics /healthz /readyz
             /status /pools, POST /requests /reload /shutdown)
             <file>  --port N (default 0 = ephemeral)
             --speedup K (logical seconds per wall second, default 1)
             --model <ssa|ssa+|baseline|e2e-ssa|e2e-baseline> (optional;
             omitted = static pool at --target)  --alpha A' (default 0.3)
             --autotune <true|false> (the §6 alpha feedback loop)
             --target-wait SECS (tuner target, default 30)
             --target N  --tau-secs N  --seed N  --interval SECS
             --port-file FILE (write the bound port for scripts)
             --workers N (HTTP worker threads / queue shards;
             default 0 = auto from IP_THREADS, clamped 2-4)
             --keep-alive <true|false> (default true; false forces
             Connection: close on every response)
             --flight-out FILE  write the flight-recorder dump
             (ip-flight/1 JSON) when the daemon drains
             --slow-us N  slow-request threshold in microseconds for
             GET /debug/requests (default 1000; 0 records everything)
             --slo-hit F  hit-rate objective for GET /slo burn rates
             (default 0.90)  --slo-wait SECS  per-request wait
             objective (default 60)
             --pools SPEC.json  serve a whole fleet instead: every
             metric series gains a pool label, POST bodies name their
             pool, GET /pools lists per-pool state (replaces <file>
             and the per-pool flags above)
             --scenario <name|spec.json>  --scenario-seed N  run the
             daemon under a chaos scenario (as in simulate); injected
             faults surface in /metrics, /debug/flight, and the
             flight dump's \"faults\" section

fleet specs (--pools) are JSON: {\"interval_secs\":30, \"days\":1, \"seed\":7,
  \"pools\":[{\"name\":\"east\", \"preset\":\"east-us-2-medium\"|\"demand\":\"f.txt\",
             \"target\":4, \"tau_secs\":90, \"sim_seed\":0, \"seed\":N,
             \"model\":\"ssa+\", \"alpha\":0.3, \"autotune\":false,
             \"target_wait_secs\":30.0}, ...],
  \"matrix\":{\"edges\":[{\"from\":\"west\", \"to\":\"east\", \"latency_secs\":20},
             ...], \"max_concurrent_borrows\":0,
             \"donation_floors\":{\"west\":2}}}
  the optional matrix turns isolated pools into one resource cluster:
  on a pool miss the requester may take a warm idle cluster from a
  donor pool along a matrix edge, paying the edge latency instead of
  the full creation latency tau (metrics: ip_sim_borrows_total,
  ip_sim_borrow_latency_seconds; fleet roll-ups: GET /fleet)

global flags (any command):
  --metrics-out FILE  write Prometheus text metrics on exit
  --trace-out FILE    write the span/event trace on exit
  --trace-format <jsonl|chrome>  trace file format (default jsonl;
                      chrome emits a trace_event JSON array for
                      chrome://tracing / Perfetto)
  (either -out flag enables recording; IP_OBS=1 enables it without writing)
  --log-out FILE      append structured JSONL logs to FILE
  --log-level <debug|info|warn|error|off>  log threshold (default
                      warn; overrides the IP_LOG environment variable)
";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ip-pool: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = CliArgs::parse(std::env::args().skip(1)).map_err(|e| e.to_string())?;
    let metrics_out = args.flag_str("metrics-out").map(str::to_owned);
    let trace_out = args.flag_str("trace-out").map(str::to_owned);
    if metrics_out.is_some() || trace_out.is_some() {
        intelligent_pooling::obs::set_enabled(true);
    }
    let trace_format = args.flag_str("trace-format").unwrap_or("jsonl");
    if !matches!(trace_format, "jsonl" | "chrome") {
        return Err(format!(
            "unknown --trace-format {trace_format:?} (expected jsonl or chrome)"
        ));
    }
    if let Some(level) = args.flag_str("log-level") {
        use intelligent_pooling::obs::log::Level;
        let threshold = match level.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => None,
            other => Some(Level::parse(other).ok_or_else(|| {
                format!("unknown --log-level {level:?} (expected debug|info|warn|error|off)")
            })?),
        };
        intelligent_pooling::obs::log::set_threshold(threshold);
    }
    if let Some(path) = args.flag_str("log-out") {
        intelligent_pooling::obs::log::set_output(path).map_err(|e| format!("{path}: {e}"))?;
    }
    let result = match args.command.as_str() {
        "generate" => generate(&args),
        "recommend" => recommend(&args),
        "evaluate" => evaluate(&args),
        "simulate" => simulate(&args),
        "serve" => serve(&args),
        other => Err(format!("unknown command {other:?}")),
    };
    // Exports are written even when the command failed: a partial trace is
    // exactly what you want when diagnosing the failure.
    if let Some(path) = &metrics_out {
        let text =
            intelligent_pooling::obs::export::render_prometheus(intelligent_pooling::obs::global());
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &trace_out {
        let trace = intelligent_pooling::obs::take_trace();
        let text = match trace_format {
            "chrome" => trace.to_chrome(),
            _ => trace.to_jsonl(),
        };
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    result
}

/// Resolves a preset name (Table-1 kebab-case names or `spiky`) to its
/// demand model.
fn demand_model(name: &str, seed: u64) -> Result<DemandModel, String> {
    match name {
        "spiky" => Ok(spiky_region(seed)),
        other => PresetId::from_name(other)
            .map(|id| preset(id, seed))
            .ok_or_else(|| format!("unknown preset {other:?}")),
    }
}

/// Materializes every pool's named demand trace for a `--pools` spec:
/// preset pools are generated (per-pool seeds derived from the fleet seed,
/// as [`FleetTrace`] does), file pools are read and parsed.
fn resolve_fleet_demands(spec: &FleetSpec) -> Result<Vec<(String, TimeSeries)>, String> {
    spec.pools
        .iter()
        .map(|p| {
            let demand = if let Some(path) = &p.demand_file {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("pool {:?}: {path}: {e}", p.name))?;
                parse_demand(&text, spec.interval_secs)
                    .map_err(|e| format!("pool {:?}: {e}", p.name))?
            } else {
                let preset_name = p.preset.as_deref().unwrap_or_default();
                let seed = p.seed.unwrap_or_else(|| {
                    intelligent_pooling::workload::pool_seed(spec.seed, &p.name)
                });
                let mut model = demand_model(preset_name, seed)
                    .map_err(|e| format!("pool {:?}: {e}", p.name))?;
                model.interval_secs = spec.interval_secs;
                model.days = spec.days;
                model.generate()
            };
            Ok((p.name.clone(), demand))
        })
        .collect()
}

/// The per-pool [`SimConfig`] for a fleet-spec entry. `ip_worker` is
/// scheduled whenever the pool names a model — same rule the daemon and
/// the single-pool `simulate --ip` path apply.
fn fleet_sim_config(p: &FleetPoolEntry, demand: &TimeSeries) -> SimConfig {
    let mut cfg = SimConfig {
        interval_secs: demand.interval_secs(),
        tau_secs: p.tau_secs,
        default_pool_target: p.target,
        seed: p.sim_seed,
        ..Default::default()
    };
    if p.model.is_some() {
        cfg.ip_worker = Some(IpWorkerConfig::default());
    }
    cfg
}

/// The fleet spec's `matrix` block as the simulator's
/// [`CompatibilityMatrix`].
fn build_matrix(spec: &FleetMatrixSpec) -> CompatibilityMatrix {
    let mut matrix =
        CompatibilityMatrix::new().max_concurrent(spec.max_concurrent_borrows as usize);
    for e in &spec.edges {
        matrix = matrix.edge(e.from.as_str(), e.to.as_str(), e.latency_secs);
    }
    for (pool, floor) in &spec.donation_floors {
        matrix = matrix.donation_floor(pool.as_str(), *floor as usize);
    }
    matrix
}

/// `--list-scenarios`: the chaos catalog, one line per scenario.
fn list_scenarios() -> Result<(), String> {
    println!("{:<20} {:<50} description", "scenario", "params (defaults)");
    for info in intelligent_pooling::chaos::catalog() {
        let params = info
            .params
            .iter()
            .map(|(name, default)| format!("{name}={default}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("{:<20} {:<50} {}", info.name, params, info.description);
    }
    println!();
    println!("run one with: ip-pool simulate <file> --scenario <name> [--scenario-seed N]");
    println!("or a JSON spec: ip-pool simulate <file> --scenario spec.json");
    Ok(())
}

/// Resolves `--scenario <name|spec.json>` (+ `--scenario-seed`) into a
/// compiled scenario; `None` when the flag is absent. A value naming an
/// existing file (or ending in `.json`) is parsed as a spec document;
/// anything else is a catalog name, failing with a near-miss suggestion.
fn resolve_scenario(args: &CliArgs) -> Result<Option<Scenario>, String> {
    let Some(value) = args.flag_str("scenario") else {
        return Ok(None);
    };
    let mut spec = if value.ends_with(".json") || std::path::Path::new(value).is_file() {
        let text = std::fs::read_to_string(value).map_err(|e| format!("{value}: {e}"))?;
        ScenarioSpec::from_json(&text).map_err(|e| e.to_string())?
    } else {
        ScenarioSpec::by_name(value, 0).map_err(|e| e.to_string())?
    };
    spec.seed = args
        .flag_or("scenario-seed", spec.seed)
        .map_err(|e| e.to_string())?;
    spec.compile().map(Some).map_err(|e| e.to_string())
}

/// Shapes named pool demands with the `--scenario` (if given): each demand
/// is transformed and returned with its pool's fault schedule, in input
/// order. Prints the plan summary (only scenario runs emit this line, so
/// scenario-free output stays byte-identical).
fn shape_demands(
    args: &CliArgs,
    demands: Vec<(String, TimeSeries)>,
) -> Result<Vec<(TimeSeries, Vec<ip_sim::FaultEntry>)>, String> {
    let Some(scenario) = resolve_scenario(args)? else {
        return Ok(demands.into_iter().map(|(_, d)| (d, Vec::new())).collect());
    };
    let plan = scenario.apply(demands).map_err(|e| e.to_string())?;
    println!("{}", plan.summary);
    Ok(plan
        .demand
        .into_iter()
        .zip(plan.faults)
        .map(|((_, demand), (_, faults))| (demand, faults))
        .collect())
}

/// A loaded `--pools` spec: every entry with its [`SimConfig`] and its
/// (scenario-shaped) demand, plus the spec's borrow matrix (if any).
type LoadedFleet = (
    Vec<(FleetPoolEntry, SimConfig, TimeSeries)>,
    Option<CompatibilityMatrix>,
);

/// Loads a `--pools` spec (see [`LoadedFleet`]).
fn load_fleet(args: &CliArgs, spec_path: &str) -> Result<LoadedFleet, String> {
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = parse_fleet_spec(&text).map_err(|e| e.to_string())?;
    let demands = shape_demands(args, resolve_fleet_demands(&spec)?)?;
    let pools = spec
        .pools
        .into_iter()
        .zip(demands)
        .map(|(p, (demand, faults))| {
            let mut cfg = fleet_sim_config(&p, &demand);
            cfg.faults = faults;
            (p, cfg, demand)
        })
        .collect();
    Ok((pools, spec.matrix.as_ref().map(build_matrix)))
}

fn load_demand(args: &CliArgs) -> Result<TimeSeries, String> {
    let path = args
        .positionals
        .first()
        .ok_or_else(|| "expected a demand file argument".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let interval = args.flag_or("interval", 30u64).map_err(|e| e.to_string())?;
    parse_demand(&text, interval).map_err(|e| e.to_string())
}

fn generate(args: &CliArgs) -> Result<(), String> {
    let days = args.flag_or("days", 2u32).map_err(|e| e.to_string())?;
    let seed = args.flag_or("seed", 0u64).map_err(|e| e.to_string())?;
    let preset_name = args.flag_str("preset").unwrap_or("east-us-2-medium");
    let mut model = demand_model(preset_name, seed)?;
    model.days = days;
    print!("{}", format_demand(&model.generate()));
    Ok(())
}

fn recommend(args: &CliArgs) -> Result<(), String> {
    let demand = load_demand(args)?;
    let alpha = args.flag_or("alpha", 0.3f64).map_err(|e| e.to_string())?;
    let horizon = args
        .flag_or("horizon", 120usize)
        .map_err(|e| e.to_string())?;
    let tau = args.flag_or("tau", 3usize).map_err(|e| e.to_string())?;
    let stableness = args
        .flag_or("stableness", 10usize)
        .map_err(|e| e.to_string())?;
    let saa = SaaConfig {
        tau_intervals: tau,
        stableness,
        alpha_prime: alpha,
        ..Default::default()
    };
    let model_name = args.flag_str("model").unwrap_or("ssa+");
    let targets = match model_name {
        "ssa" => {
            let mut engine =
                TwoStepEngine::new(SsaModel::new(150, RankSelection::EnergyThreshold(0.9)), saa);
            engine.recommend(&demand, horizon)
        }
        "ssa+" => {
            let mut engine = TwoStepEngine::new(SsaPlus::with_alpha(1.0 - alpha as f32), saa);
            engine.recommend(&demand, horizon)
        }
        "baseline" => {
            let mut engine = TwoStepEngine::new(BaselineForecaster::new(1.0), saa);
            engine.recommend(&demand, horizon)
        }
        other => return Err(format!("unknown model {other:?}")),
    }
    .map_err(|e| e.to_string())?;

    // Write via the raw handle so a closed pipe (e.g. `| head`) ends the
    // program quietly instead of panicking.
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(
        out,
        "# pool-size targets, one per {}s interval",
        demand.interval_secs()
    );
    for t in targets {
        if writeln!(out, "{t}").is_err() {
            break;
        }
    }
    Ok(())
}

fn evaluate(args: &CliArgs) -> Result<(), String> {
    let demand = load_demand(args)?;
    let pool = args.flag_or("pool", 4u32).map_err(|e| e.to_string())?;
    let tau = args.flag_or("tau", 3usize).map_err(|e| e.to_string())?;
    let schedule = vec![f64::from(pool); demand.len()];
    let mech = evaluate_schedule(&demand, &schedule, tau).map_err(|e| e.to_string())?;
    println!("requests        : {}", mech.total_requests);
    println!("hit rate        : {:.2}%", mech.hit_rate * 100.0);
    println!(
        "mean wait       : {:.2} s/request",
        mech.mean_wait_per_request_secs
    );
    println!("total wait      : {:.0} s", mech.wait_seconds);
    println!(
        "idle time       : {:.0} cluster-seconds",
        mech.idle_cluster_seconds
    );
    let cost = CostModel::default();
    println!(
        "idle cost       : ${:.2} over the trace (${:.0}/yr extrapolated)",
        cost.cost_of_idle(mech.idle_cluster_seconds),
        cost.annualize(mech.idle_cluster_seconds, demand.duration_secs() as f64)
            .map_err(|e| e.to_string())?
    );
    Ok(())
}

/// The single pool the flags describe (`<file>`, `--target`, `--tau-secs`,
/// `--seed`, `--interval`), scenario-shaped under the pool name
/// `"default"`.
fn single_pool(args: &CliArgs) -> Result<(SimConfig, TimeSeries), String> {
    let demand = load_demand(args)?;
    let target = args.flag_or("target", 4u32).map_err(|e| e.to_string())?;
    let tau_secs = args.flag_or("tau-secs", 90u64).map_err(|e| e.to_string())?;
    let seed = args.flag_or("seed", 0u64).map_err(|e| e.to_string())?;
    let mut cfg = SimConfig {
        interval_secs: demand.interval_secs(),
        tau_secs,
        default_pool_target: target,
        seed,
        ..Default::default()
    };
    let (demand, faults) = shape_demands(args, vec![("default".to_string(), demand)])?
        .pop()
        .expect("one pool in, one pool out");
    cfg.faults = faults;
    Ok((cfg, demand))
}

fn simulate(args: &CliArgs) -> Result<(), String> {
    if args.flag_str("list-scenarios").is_some() {
        return list_scenarios();
    }
    if let Some(spec_path) = args.flag_str("pools") {
        return simulate_fleet(args, spec_path);
    }
    let (mut cfg, demand) = single_pool(args)?;
    let alpha = args.flag_or("alpha", 0.3f64).map_err(|e| e.to_string())?;
    let ip_model = args.flag_str("ip");
    let saa = SaaConfig {
        alpha_prime: alpha,
        ..Default::default()
    };
    // With --ip, the simulated Intelligent Pooling Worker periodically runs
    // the recommendation pipeline on the demand observed so far; early runs
    // fail (not enough history to fit) and exercise the §7.6 fallback chain.
    let mut provider = match ip_model {
        None => None,
        Some(name) => {
            cfg.ip_worker = Some(IpWorkerConfig::default());
            Some(
                intelligent_pooling::core::named_provider(name, alpha, saa)
                    .map_err(|e| e.to_string())?,
            )
        }
    };
    let report = Simulation::new(
        cfg,
        provider
            .as_mut()
            .map(|p| p.as_mut() as &mut dyn ip_sim::RecommendationProvider),
    )
    .run(&demand)
    .map_err(|e| e.to_string())?;
    println!("requests        : {}", report.total_requests);
    println!("hits / misses   : {} / {}", report.hits, report.misses);
    println!("hit rate        : {:.2}%", report.hit_rate * 100.0);
    println!("mean wait       : {:.2} s/request", report.mean_wait_secs);
    println!(
        "idle time       : {:.0} cluster-seconds",
        report.idle_cluster_seconds
    );
    println!(
        "clusters created: {} ({} on-demand)",
        report.clusters_created, report.on_demand_created
    );
    if ip_model.is_some() {
        println!(
            "pipeline runs   : {} ({} failed, {} fallback intervals)",
            report.ip_runs, report.ip_failures, report.fallback_intervals
        );
    }
    Ok(())
}

/// `simulate --pools`: the whole fleet in one `FleetSim`, every pool's
/// events interleaved in logical-time order, then per-pool results plus
/// the fleet aggregate.
fn simulate_fleet(args: &CliArgs, spec_path: &str) -> Result<(), String> {
    let (pools, matrix) = load_fleet(args, spec_path)?;
    let mut members = Vec::with_capacity(pools.len());
    for (p, cfg, demand) in pools {
        let mut pool = FleetPool::new(p.name.as_str(), cfg, demand);
        if let Some(model) = &p.model {
            let provider = intelligent_pooling::serve::build_provider(
                model,
                p.alpha,
                p.autotune,
                p.target_wait_secs,
            )
            .map_err(|e| format!("pool {:?}: {e}", p.name))?;
            pool = pool.with_provider(provider);
        }
        members.push(pool);
    }
    let mut sim = FleetSim::new(members).map_err(|e| e.to_string())?;
    if let Some(matrix) = matrix {
        sim.set_matrix(matrix).map_err(|e| e.to_string())?;
    }
    let borrowing = sim.borrowing_enabled();
    sim.run_to_end();
    let report = sim.finalize();

    println!(
        "{:<18} {:>10} {:>9} {:>11} {:>12} {:>9}",
        "pool", "requests", "hit rate", "mean wait", "idle c-sec", "created"
    );
    for (pool, r) in &report.pools {
        println!(
            "{:<18} {:>10} {:>8.2}% {:>10.2}s {:>12.0} {:>9}",
            pool.as_str(),
            r.total_requests,
            r.hit_rate * 100.0,
            r.mean_wait_secs,
            r.idle_cluster_seconds,
            r.clusters_created
        );
    }
    let agg = report.aggregate();
    println!(
        "{:<18} {:>10} {:>8.2}% {:>10.2}s {:>12.0} {:>9}",
        "fleet (aggregate)",
        agg.total_requests,
        agg.hit_rate * 100.0,
        agg.mean_wait_secs,
        agg.idle_cluster_seconds,
        agg.clusters_created
    );
    if agg.ip_runs > 0 {
        println!(
            "pipeline runs   : {} ({} failed, {} fallback intervals)",
            agg.ip_runs, agg.ip_failures, agg.fallback_intervals
        );
    }
    if borrowing {
        println!(
            "borrows         : {} warm transfer(s) across pools ({} donated)",
            agg.borrowed_in, agg.borrowed_out
        );
        for (pool, r) in &report.pools {
            for rec in &r.borrow_records {
                println!(
                    "  {}s  {} <- {} ({}s transfer)",
                    rec.t,
                    pool.as_str(),
                    rec.from,
                    rec.latency_secs
                );
            }
        }
    }
    Ok(())
}

/// `serve`: the pools come from the flags (one anonymous pool) or from a
/// `--pools` spec (one named pool per entry, plus the spec's borrow
/// matrix); either way the daemon runs them as one fleet.
fn serve(args: &CliArgs) -> Result<(), String> {
    use intelligent_pooling::serve::{Daemon, PoolServeConfig, ServeConfig};
    let spec_path = args.flag_str("pools");
    let (pools, matrix) = match spec_path {
        Some(path) => {
            let (pools, matrix) = load_fleet(args, path)?;
            let pools = pools
                .into_iter()
                .map(|(p, sim, demand)| PoolServeConfig {
                    sim,
                    model: p.model,
                    alpha: p.alpha,
                    autotune: p.autotune,
                    target_wait_secs: p.target_wait_secs,
                    ..PoolServeConfig::named(p.name, demand)
                })
                .collect();
            (pools, matrix)
        }
        None => {
            let (sim, demand) = single_pool(args)?;
            let pool = PoolServeConfig {
                sim,
                model: args.flag_str("model").map(str::to_owned),
                alpha: args.flag_or("alpha", 0.3f64).map_err(|e| e.to_string())?,
                autotune: args.flag_or("autotune", false).map_err(|e| e.to_string())?,
                target_wait_secs: args
                    .flag_or("target-wait", 30.0f64)
                    .map_err(|e| e.to_string())?,
                ..PoolServeConfig::new(demand)
            };
            (vec![pool], None)
        }
    };
    let mut config = ServeConfig::fleet(pools)?;
    config.matrix = matrix;
    config.speedup = args.flag_or("speedup", 1.0f64).map_err(|e| e.to_string())?;
    config.port = args.flag_or("port", 0u16).map_err(|e| e.to_string())?;
    config.workers = args.flag_or("workers", 0usize).map_err(|e| e.to_string())?;
    config.keep_alive = args
        .flag_or("keep-alive", true)
        .map_err(|e| e.to_string())?;
    config.flight_out = args.flag_str("flight-out").map(str::to_owned);
    config.slow_request_micros = args
        .flag_or("slow-us", config.slow_request_micros)
        .map_err(|e| e.to_string())?;
    config.slo.hit_rate_objective = args
        .flag_or("slo-hit", config.slo.hit_rate_objective)
        .map_err(|e| e.to_string())?;
    config.slo.wait_objective_secs = args
        .flag_or("slo-wait", config.slo.wait_objective_secs)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&config.slo.hit_rate_objective) {
        return Err(format!(
            "--slo-hit {} out of range (expected 0..=1)",
            config.slo.hit_rate_objective
        ));
    }

    let daemon = Daemon::start(config)?;
    let addr = daemon.addr();
    println!("ip-pool serve: listening on http://{addr}");
    println!("ip-pool serve: POST /shutdown to drain and exit");
    if let Some(path) = args.flag_str("port-file") {
        std::fs::write(path, format!("{}\n", addr.port())).map_err(|e| format!("{path}: {e}"))?;
    }
    let outcome = daemon.join();
    println!(
        "ip-pool serve: drained ({} injected, {} reloads, {} lease lapses)",
        outcome.injected, outcome.reloads, outcome.lapsed_leases
    );
    if spec_path.is_some() {
        println!(
            "{:<18} {:>10} {:>9} {:>11} {:>10}",
            "pool", "requests", "hit rate", "mean wait", "intervals"
        );
        for (pool, report) in &outcome.pool_reports {
            println!(
                "{:<18} {:>10} {:>8.2}% {:>10.2}s {:>10}",
                pool,
                report.total_requests,
                report.hit_rate * 100.0,
                report.mean_wait_secs,
                report.interval_stats.len()
            );
        }
    } else {
        let (_, report) = &outcome.pool_reports[0];
        println!("requests        : {}", report.total_requests);
        println!("hits / misses   : {} / {}", report.hits, report.misses);
        println!("hit rate        : {:.2}%", report.hit_rate * 100.0);
        println!("mean wait       : {:.2} s/request", report.mean_wait_secs);
        println!(
            "intervals       : {} processed",
            report.interval_stats.len()
        );
    }
    Ok(())
}
