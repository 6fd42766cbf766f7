//! `serve-mixed`: an in-process `ip_serve::Daemon` at its default worker
//! count, recording on, over a few-pool fleet with a matrix, under mixed
//! traffic from two load-generator threads on two connections:
//!
//! * writes — one keep-alive client posting 16-entry `POST /requests`
//!   batches whose entries go round-robin across pools, one batch in
//!   flight, paced at [`WRITE_HZ`]: batch `k` goes out when its
//!   predecessor's reply is in and not before `k / WRITE_HZ` s;
//! * reads — one open-loop reader at [`READ_HZ`] cycling `/metrics`,
//!   `/slo`, `/fleet` and `/debug/flight`, each read timed from when it
//!   was due, so a stalled daemon shows in the reads it delays.
//!
//! The replay speed-up keeps the controller ticking through the timed
//! phase while the one-day trace outlasts it. Every inject names its
//! pool's last interval, which the replay does not reach during the run:
//! injects still validate, take the controller lock and count, but the
//! controller's per-tick work stays the trace's own. Landing them on the
//! live frontier instead makes each tick's work grow with the throughput
//! the writer reached, so throughput, tick time and memory feed back on
//! each other and no two runs measure the same system.

use crate::client::Client;
use crate::harness::{cpu_ms, ms_since, peak_rss_mb, repeat_setup, ReferenceSampler};
use crate::report::Report;
use crate::{fleet, spans, stats, Args};
use ip_serve::{Controller, Daemon, PoolServeConfig, ServeConfig};
use ip_sim::{CompatibilityMatrix, SimConfig};
use ip_workload::{pool_seed, FleetPoolPreset, FleetTrace, PresetId};
use serde::Content;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Injection entries per `POST /requests`.
const BATCH: usize = 16;
/// Inject batches per second. An unpaced writer's rate follows the host:
/// it ran 2.7–7.0 k batches/s across ten runs, and the HTTP workers' CPU
/// per batch rose from 0.093 to 0.133 ms as the rate fell. This rate is
/// well under the slowest of those, so every run does the same work.
const WRITE_HZ: f64 = 1000.0;
/// Reads per second of the open-loop reader.
const READ_HZ: f64 = 10.0;
const READ_PATHS: [&str; 4] = ["/metrics", "/slo", "/fleet", "/debug/flight"];
/// Logical seconds per wall second: the one-day trace lasts 120 s.
const SPEEDUP: f64 = 720.0;
/// Load before the timed phase starts, seconds.
const WARM_S: f64 = 1.0;
/// Warm-transfer latency on every matrix edge, seconds.
const EDGE_LATENCY_SECS: u64 = 10;
const PRESETS: [PresetId; 3] = [
    PresetId::WestUs2Small,
    PresetId::EastUs2Medium,
    PresetId::WestUs2Large,
];

/// The daemon's pools, sized as in the fleet workloads, and the time
/// trace generation took, ms.
fn pools(seed: u64, n: usize) -> Result<(Vec<PoolServeConfig>, f64), String> {
    let members = (0..n)
        .map(|i| FleetPoolPreset::new(format!("s{i}"), PRESETS[i % PRESETS.len()]))
        .collect();
    let t0 = Instant::now();
    let traces = spans::timed("workload.generate", || {
        FleetTrace::new(seed, members).generate()
    });
    let generate_ms = ms_since(t0);
    let pools = traces
        .into_iter()
        .map(|(name, demand)| {
            let target = fleet::size_for(&demand)?;
            let mut p = PoolServeConfig::named(name.as_str(), demand);
            p.sim = SimConfig {
                default_pool_target: target,
                seed: pool_seed(seed, &name),
                ..SimConfig::default()
            };
            Ok(p)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((pools, generate_ms))
}

fn matrix(pools: &[PoolServeConfig]) -> CompatibilityMatrix {
    let names: Vec<&str> = pools.iter().filter_map(|p| p.id.as_deref()).collect();
    let mut m = CompatibilityMatrix::new();
    for from in &names {
        for to in &names {
            if from != to {
                m = m.edge(*from, *to, EDGE_LATENCY_SECS);
            }
        }
    }
    m
}

/// The lease the daemon grants its controller (see `Daemon::start`).
fn lease_secs(pools: &[PoolServeConfig]) -> u64 {
    pools
        .iter()
        .map(|p| ((p.sim.arbitrator.lease_secs as f64 * SPEEDUP).ceil() as u64).max(1))
        .max()
        .unwrap_or(1)
}

/// Starts a daemon and waits until it answers `/readyz`.
fn start(pools: &[PoolServeConfig]) -> Result<Daemon, String> {
    ip_obs::reset();
    ip_obs::flight::reset();
    let mut config = ServeConfig::fleet(pools.to_vec())?;
    config.matrix = Some(matrix(pools));
    config.speedup = SPEEDUP;
    let daemon = Daemon::start(config)?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let ready = Client::connect(daemon.addr())
            .and_then(|mut c| c.request("GET", "/readyz", ""))
            .is_ok_and(|(code, _)| code == 200);
        if ready {
            return Ok(daemon);
        }
        if Instant::now() > deadline {
            daemon.request_shutdown();
            daemon.join();
            return Err("daemon never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The writer's batch bodies: batch `b` starts its round-robin over the
/// pools where batch `b - 1` left off; each entry lands on its pool's
/// last interval.
fn batch_bodies(pools: &[PoolServeConfig]) -> Vec<String> {
    let n = pools.len();
    (0..n)
        .map(|b| {
            let entries: Vec<String> = (0..BATCH)
                .map(|j| {
                    let p = &pools[(b * BATCH + j) % n];
                    format!(
                        "{{\"count\":1,\"pool\":\"{}\",\"interval\":{}}}",
                        p.id.as_deref().unwrap_or("default"),
                        p.demand.len() - 1
                    )
                })
                .collect();
            format!("[{}]", entries.join(","))
        })
        .collect()
}

#[derive(Default)]
struct Reads {
    latency_ms: Vec<f64>,
    by_path_ms: [Vec<f64>; 4],
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    unparsed: Vec<String>,
}

/// Nearest-rank p99 of `xs`, 0 for no samples.
fn p99(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() as f64 * 0.99).ceil() as usize).clamp(1, s.len()) - 1]
}

/// Checks that a read's body parses as what its endpoint serves.
fn parses(path: &str, body: &str) -> Result<(), String> {
    if path == "/metrics" {
        ip_obs::export::parse_prometheus(body).map(|_| ())
    } else {
        serde_json::from_str::<Content>(body)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// The open-loop reader: one read every `1 / READ_HZ` s, each timed from
/// its due time; reads due during warm-up are not recorded.
fn reader(addr: std::net::SocketAddr, start: Instant, stop: &AtomicBool) -> Reads {
    let mut r = Reads::default();
    let period = Duration::from_secs_f64(1.0 / READ_HZ);
    let mut client = Client::connect(addr).ok();
    let mut k = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let due = start + period * k;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let late_ms = due.elapsed().as_secs_f64() * 1e3;
        let which = k as usize % READ_PATHS.len();
        let path = READ_PATHS[which];
        k += 1;
        let recorded = (due - start).as_secs_f64() >= WARM_S;
        let _span = spans::span("loadgen.read");
        let result = match client.as_mut() {
            Some(c) => c.request("GET", path, ""),
            None => Err(std::io::Error::other("not connected")),
        };
        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
        r.attempted += 1;
        match result {
            Ok((200, body)) => {
                if let Err(e) = parses(path, &body) {
                    r.unparsed.push(format!("{path}: {e}"));
                }
            }
            Ok((code, _)) => {
                r.failed += 1;
                r.unparsed.push(format!("{path}: status {code}"));
            }
            Err(_) => {
                r.failed += 1;
                client = Client::connect(addr).ok();
            }
        }
        if recorded {
            r.latency_ms.push(latency_ms);
            r.by_path_ms[which].push(latency_ms);
            r.late_ms.push(late_ms);
        }
    }
    r
}

#[derive(Default)]
struct Writes {
    latency_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    /// Send time minus due time of each timed batch, ms.
    late_ms: Vec<f64>,
    ok_batches: u64,
    attempted: u64,
    failed: u64,
    timed_wall_s: f64,
    timed_batches: u64,
    /// CPU time of the HTTP worker threads and of the whole process but
    /// the reference sampler over the timed phase, ms.
    workers_cpu_ms: f64,
    process_cpu_ms: f64,
    /// The reference kernel's CPU times over the timed phase, ms.
    reference_ms: Vec<f64>,
}

/// The paced writer, on the calling thread, until `end`.
fn writer(
    addr: std::net::SocketAddr,
    bodies: &[String],
    start: Instant,
    end: Instant,
    traced: bool,
    sampler: &ReferenceSampler,
) -> Result<Writes, String> {
    let mut w = Writes::default();
    let mut client = Client::connect(addr).ok();
    let mut i = 0u64;
    let timed_from = start + Duration::from_secs_f64(WARM_S);
    // CPU clocks at the start of the timed phase, read once it begins.
    let mut cpu_from: Option<(f64, f64, f64)> = None;
    let period = Duration::from_secs_f64(1.0 / WRITE_HZ);
    while Instant::now() < end {
        let due = start + period.mul_f64(i as f64);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let trace_this = traced && i % 2 == 1;
        spans::set_enabled(trace_this);
        spans::begin_op(i);
        let body = &bodies[i as usize % bodies.len()];
        i += 1;
        let timed = Instant::now() >= timed_from;
        if timed && cpu_from.is_none() {
            cpu_from = Some((http_workers_cpu_ms()?, cpu_ms(), sampler.cpu_ms()));
            sampler.begin();
        }
        let t0 = Instant::now();
        let result = {
            let _span = spans::span("loadgen.inject");
            match client.as_mut() {
                Some(c) => c.request("POST", "/requests", body),
                None => Err(std::io::Error::other("not connected")),
            }
        };
        let ms = ms_since(t0);
        w.attempted += 1;
        match result {
            Ok((200, _)) => {
                w.ok_batches += 1;
                if timed {
                    w.late_ms
                        .push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
                    w.latency_ms.push(ms);
                    w.timed_batches += 1;
                    if trace_this {
                        w.traced_ms.push(ms);
                    } else {
                        w.untraced_ms.push(ms);
                    }
                }
            }
            Ok(_) => w.failed += 1,
            Err(_) => {
                w.failed += 1;
                client = Client::connect(addr).ok();
            }
        }
    }
    w.timed_wall_s = (Instant::now() - timed_from).as_secs_f64();
    let (workers0, process0, sampler_cpu0) =
        cpu_from.ok_or("the writer never reached the timed phase")?;
    w.reference_ms = sampler.end();
    w.workers_cpu_ms = http_workers_cpu_ms()? - workers0;
    w.process_cpu_ms = cpu_ms() - process0 - (sampler.cpu_ms() - sampler_cpu0);
    Ok(w)
}

/// CPU time so far of the daemon's HTTP worker threads, ms, from
/// `/proc/self/task/*/schedstat` (the workers are named
/// `ip-serve-http-<n>`).
fn http_workers_cpu_ms() -> Result<f64, String> {
    let unreadable = |e: std::io::Error| format!("reading the HTTP workers' CPU time: {e}");
    let mut total_ns = 0.0;
    for task in std::fs::read_dir("/proc/self/task").map_err(unreadable)? {
        let path = task.map_err(unreadable)?.path();
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
            continue; // the thread exited meanwhile
        };
        if !comm.starts_with("ip-serve-http") {
            continue;
        }
        let stat = std::fs::read_to_string(path.join("schedstat")).map_err(unreadable)?;
        total_ns += stat
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<f64>().ok())
            .ok_or_else(|| format!("unexpected schedstat: {stat}"))?;
    }
    Ok(total_ns / 1e6)
}

/// Sum ÷ count of the histogram `name` over the series whose labels
/// satisfy `keep`, in ms.
fn histogram_mean_ms(
    samples: &[ip_obs::export::ParsedSample],
    name: &str,
    keep: impl Fn(&[(String, String)]) -> bool,
) -> f64 {
    let total = |suffix: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == format!("{name}{suffix}") && keep(&s.labels))
            .map(|s| s.value)
            .sum()
    };
    let count = total("_count");
    if count == 0.0 {
        0.0
    } else {
        total("_sum") / count * 1e3
    }
}

fn label<'a>(labels: &'a [(String, String)], key: &str) -> Option<&'a str> {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

pub fn run(args: &Args, sampler: &ReferenceSampler, report: &mut Report) -> Result<(), String> {
    let n = if args.tiny { 2 } else { PRESETS.len() };
    ip_obs::set_enabled(true);

    let mut generate_ms = Vec::new();
    let ((pools, daemon), setup_s) = repeat_setup(
        || {
            let (pools, gen) = pools(args.seed, n)?;
            generate_ms.push(gen);
            let daemon = start(&pools)?;
            Ok((pools, daemon))
        },
        |(_, daemon)| {
            daemon.request_shutdown();
            daemon.join();
        },
    )?;
    report.median_of("setup_s", "s", &setup_s);
    report.fact("pools", n);
    report.fact("batch", BATCH);
    report.fact("read_hz", READ_HZ);
    report.fact("write_hz", WRITE_HZ);
    report.fact("speedup", SPEEDUP);
    report.fact(
        "loadgen",
        "2 threads, 2 connections: paced writer, one batch in flight + open-loop reader",
    );
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cpus < 2 {
        // More load-generator threads than CPUs: flagged, not hidden.
        report.fact("loadgen.threads_exceed_cpus", true);
        eprintln!("perfbench: the 2 load-generator threads exceed the host's {cpus} CPU");
    }

    let addr = daemon.addr();
    let bodies = batch_bodies(&pools);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(WARM_S + args.seconds);
    spans::set_enabled(args.trace);
    let (writes, reads) = std::thread::scope(|scope| {
        let reads = scope.spawn(|| reader(addr, start, &stop));
        let writes = writer(addr, &bodies, start, end, args.trace, sampler);
        stop.store(true, Ordering::Relaxed);
        (writes, reads.join().expect("reader thread panicked"))
    });
    spans::set_enabled(false);
    let writes = match writes {
        Ok(w) => w,
        Err(e) => {
            daemon.request_shutdown();
            daemon.join();
            return Err(e);
        }
    };
    let batches = writes.timed_batches.max(1) as f64;

    // One scrape after the load, for the daemon's own request timings.
    let mut scrape = Client::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    let (code, text) = scrape
        .request("GET", "/metrics", "")
        .map_err(|e| format!("scrape: {e}"))?;
    report.check(code == 200, || {
        format!("final /metrics scrape returned {code}")
    });
    let samples =
        ip_obs::export::parse_prometheus(&text).map_err(|e| format!("scrape parse: {e}"))?;
    let render_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(ip_obs::export::render_prometheus(ip_obs::global()));
            ms_since(t0)
        })
        .collect();
    daemon.request_shutdown();
    let outcome = daemon.join();

    report.attempted += writes.attempted + reads.attempted;
    report.failed_ops += writes.failed + reads.failed;
    report.check(writes.failed == 0, || {
        format!("{} inject batches failed", writes.failed)
    });
    report.check(reads.failed == 0, || {
        format!("{} reads failed", reads.failed)
    });
    report.check(reads.unparsed.is_empty(), || {
        format!(
            "{} reads did not parse, first: {}",
            reads.unparsed.len(),
            reads.unparsed[0]
        )
    });
    let client_injects = writes.ok_batches * BATCH as u64;
    report.check(outcome.injected == client_injects, || {
        format!(
            "daemon counted {} injects, clients got {} accepted batches × {BATCH} = {client_injects}",
            outcome.injected, writes.ok_batches
        )
    });
    let late_p99 = p99(&reads.late_ms);
    let period_ms = 1e3 / READ_HZ;
    report.fact("reads", reads.latency_ms.len());
    for (path, ms) in READ_PATHS.iter().zip(&reads.by_path_ms) {
        if !ms.is_empty() {
            report.fact(&format!("read_p50_ms{path}"), stats::median(ms));
        }
    }
    report.fact("injects_total", client_injects);
    report.fact("loadgen.late_p99_ms", late_p99);
    if late_p99 > period_ms {
        // The reader fell behind its schedule: flagged, not hidden.
        report.fact("loadgen.reader_behind_schedule", true);
        eprintln!("perfbench: reader ran {late_p99:.1} ms late at p99 (period {period_ms} ms)");
    }
    let write_late_p50 = if writes.late_ms.is_empty() {
        0.0
    } else {
        stats::median(&writes.late_ms)
    };
    let write_period_ms = 1e3 / WRITE_HZ;
    report.fact("loadgen.writer_late_p50_ms", write_late_p50);
    report.fact("loadgen.writer_late_p99_ms", p99(&writes.late_ms));
    if write_late_p50 > write_period_ms {
        // Most batches went out late: the daemon did not keep up with
        // the rate, so the work per second was not the intended one.
        report.fact("loadgen.writer_behind_schedule", true);
        eprintln!(
            "perfbench: writer ran {write_late_p50:.2} ms late at p50 (period {write_period_ms} ms)"
        );
    }

    if !args.trace {
        report.value("peak_rss_mb", "MiB", peak_rss_mb()?);
        report.median_of("op_p50_ms", "ms", &writes.latency_ms);
        // The daemon's HTTP workers over the timed phase per inject batch
        // accepted in it; the reads they also serve are in it. The
        // controller's ticks are paced by the clock, not by requests, so
        // they stay out; the whole process is in the record.
        report.value("op_cpu_ms", "ms", writes.workers_cpu_ms / batches);
        report.op_cost(writes.workers_cpu_ms / batches, &writes.reference_ms);
        report.fact("process_cpu_per_batch_ms", writes.process_cpu_ms / batches);
        report.tail_of("op_tail_ms", &writes.latency_ms);
        report.median_of("read_p50_ms", "ms", &reads.latency_ms);
        report.tail_of("read_tail_ms", &reads.latency_ms);
        report.value(
            "work_per_s",
            "1/s",
            (writes.timed_batches * BATCH as u64) as f64 / writes.timed_wall_s,
        );
        report.fact("work_unit", "injects");
        return Ok(());
    }

    report.median_of("workload.generate_ms", "ms", &generate_ms);
    report.value("loadgen.late_p99_ms", "ms", late_p99);
    report.value("par.threads", "count", ip_par::num_threads() as f64);
    report.median_of("obs.render_ms", "ms", &render_ms);
    report.value(
        "trace.overhead",
        "ratio",
        stats::median(&writes.traced_ms) / stats::median(&writes.untraced_ms),
    );
    for phase in ["queue", "parse", "handle", "write"] {
        let ms = histogram_mean_ms(&samples, "ip_serve_request_phase_seconds", |l| {
            label(l, "phase") == Some(phase)
        });
        report.value(&format!("serve.http.{phase}_ms"), "ms", ms);
    }
    let inject_ms = histogram_mean_ms(&samples, "ip_serve_request_seconds", |l| {
        label(l, "path") == Some("/requests")
    });
    let read_ms = histogram_mean_ms(&samples, "ip_serve_request_seconds", |l| {
        label(l, "path").is_some_and(|p| READ_PATHS.contains(&p))
    });
    report.value("serve.http.inject_ms", "ms", inject_ms);
    report.value("serve.http.read_ms", "ms", read_ms);
    let ticks: f64 = samples
        .iter()
        .filter(|s| s.name == "ip_serve_ticks_total")
        .map(|s| s.value)
        .sum();
    report.value("serve.ticks", "count", ticks);

    controller_layers(&pools, client_injects, ticks, args, report)
}

/// Times the controller's own calls on an identically built in-process
/// controller with no transport: each tick injects the batches the daemon
/// saw per tick, then steps one interval and renders the documents the
/// readers fetch.
fn controller_layers(
    pools: &[PoolServeConfig],
    injects: u64,
    ticks: f64,
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    ip_obs::reset();
    let mut ctl = Controller::with_matrix(pools.to_vec(), lease_secs(pools), Some(matrix(pools)))?;
    let batches_per_tick =
        ((injects as f64 / BATCH as f64 / ticks.max(1.0)).round() as usize).max(1);
    let interval = pools[0].demand.interval_secs();
    // The same entries the writer posts: round-robin, last interval.
    let items: Vec<(usize, u64, Option<usize>)> = (0..BATCH)
        .map(|j| {
            let i = j % pools.len();
            (i, 1, Some(pools[i].demand.len() - 1))
        })
        .collect();
    let (mut inject_us, mut step_ms, mut doc_us) = (Vec::new(), Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64((args.seconds / 4.0).max(0.5));
    let t_start = Instant::now();
    let mut logical = 0u64;
    while t_start.elapsed() < budget && !ctl.is_done() {
        for _ in 0..batches_per_tick {
            let t0 = Instant::now();
            let landed = ctl.inject_batch(&items);
            inject_us.push(ms_since(t0) * 1e3);
            landed.map_err(|e| format!("in-process inject: {e}"))?;
        }
        logical += interval;
        let t0 = Instant::now();
        ctl.step_to(logical);
        step_ms.push(ms_since(t0));
        let t0 = Instant::now();
        let docs = (ctl.fleet_json(), ctl.slo_json(), ctl.status_json("running"));
        doc_us.push(ms_since(t0) * 1e3);
        report.check(docs.0.is_ok() && docs.1.is_ok() && docs.2.is_ok(), || {
            "the in-process controller failed to render a document".into()
        });
    }
    report.fact("controller_batches_per_tick", batches_per_tick);
    report.median_of("serve.controller.inject_batch_us", "us", &inject_us);
    report.median_of("serve.controller.step_ms", "ms", &step_ms);
    report.median_of("serve.controller.doc_us", "us", &doc_us);
    Ok(())
}
