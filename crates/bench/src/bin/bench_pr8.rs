//! Observability-overhead bench (PR 8): the same closed-loop keep-alive
//! batch-inject load as `bench_serve`, with request-scoped tracing as the
//! only variable.
//!
//! Three modes, identical workers/clients/batch so instrumentation is the
//! only difference:
//!
//! * **obs_off** — `IP_OBS` gate closed (the production default): every
//!   per-request trace/metric call site must collapse to one relaxed
//!   atomic load. The SLO trackers and the flight recorder still run —
//!   they are controller-tick-granularity and always on by design.
//! * **obs_on** — gate open: trace ids, `http.*` phase spans, per-endpoint
//!   latency/phase/body histograms, and per-shard worker metrics all
//!   record on every request.
//! * **obs_on_scrape** — `obs_on` plus one concurrent keep-alive client
//!   alternating `GET /slo` and `GET /debug/flight`; comparing inject p99
//!   against `obs_on` checks the new endpoints build their documents
//!   outside the hot path (controller lock held only for tree-building).
//!
//! `cargo run --release -p ip-bench --bin bench_pr8`
//!
//! Writes `BENCH_pr8.json` at the workspace root with the on/off
//! throughput ratio. The bench host has 1 CPU (ROADMAP standing
//! constraint): clients, workers, and the controller share one core, so
//! absolute rates are conservative and the ratio is what matters. Run with
//! `--smoke` for a short run asserting nonzero injects and zero failures
//! without touching the artifact.

use ip_serve::{Daemon, ServeConfig};
use ip_sim::SimConfig;
use ip_timeseries::TimeSeries;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Injection entries per `POST /requests`.
const BATCH: usize = 16;
/// Closed-loop inject clients per mode.
const CLIENTS: usize = 4;
/// HTTP worker threads (= queue shards) for every mode.
const WORKERS: usize = 4;

struct ModeResult {
    mode: &'static str,
    requests: u64,
    injects: u64,
    failures: u64,
    duration_secs: f64,
    p50_ms: f64,
    p99_ms: f64,
    scrapes: u64,
}

impl ModeResult {
    fn injects_per_sec(&self) -> f64 {
        self.injects as f64 / self.duration_secs
    }

    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.duration_secs
    }
}

/// A keep-alive HTTP/1.1 client over one socket; responses framed by
/// `Content-Length`.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Set when the last response carried `Connection: close` (the server
    /// caps requests per connection); the caller must reconnect before the
    /// next request — that is protocol, not a failure.
    closed: bool,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
            closed: false,
        })
    }

    /// Sends one request and reads one framed response; returns the
    /// status code.
    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<u16> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "closed mid-head",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
        self.closed = head.lines().any(|line| {
            line.split_once(':').is_some_and(|(key, value)| {
                key.trim().eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
            })
        });
        let content_length: usize = head
            .lines()
            .find_map(|line| {
                let (key, value) = line.split_once(':')?;
                if key.trim().eq_ignore_ascii_case("content-length") {
                    value.trim().parse().ok()
                } else {
                    None
                }
            })
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "no Content-Length"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "closed mid-body",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.drain(..body_start + content_length);
        Ok(status)
    }
}

struct ClientTally {
    requests: u64,
    injects: u64,
    failures: u64,
    latencies_ms: Vec<f64>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn batch_body() -> String {
    let entries: Vec<&str> = std::iter::repeat_n("{\"count\":1}", BATCH).collect();
    format!("[{}]", entries.join(","))
}

/// Runs one mode: boots a fresh daemon with the gate set for the mode,
/// hammers it with `CLIENTS` keep-alive batch-inject clients (optionally
/// plus an `/slo` + `/debug/flight` scraper), shuts it down.
fn run_mode(mode: &'static str, duration: Duration) -> ModeResult {
    let obs = mode != "obs_off";
    let scrape = mode.ends_with("scrape");
    ip_obs::set_enabled(obs);
    ip_obs::reset();
    ip_obs::flight::reset();

    // A trace far too long to complete during the bench: the injection
    // frontier never catches up, so every inject stays valid.
    let mut config = ServeConfig::new(TimeSeries::new(30, vec![1.0; 100_000]).unwrap());
    config.pools[0].sim = SimConfig {
        default_pool_target: 2,
        tau_jitter_secs: 0,
        ..Default::default()
    };
    config.speedup = 1.0;
    config.workers = WORKERS;
    config.keep_alive = true;
    let daemon = Daemon::start(config).expect("daemon starts");
    let addr = daemon.addr();
    let body = batch_body();

    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (tallies, scrapes) = std::thread::scope(|scope| {
        let inject_handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let stop = &stop;
                let body = body.as_str();
                scope.spawn(move || {
                    let mut tally = ClientTally {
                        requests: 0,
                        injects: 0,
                        failures: 0,
                        latencies_ms: Vec::with_capacity(4096),
                    };
                    let mut client = Client::connect(addr).ok();
                    while !stop.load(Ordering::Relaxed) {
                        if client.as_ref().is_none_or(|c| c.closed) {
                            client = Client::connect(addr).ok();
                            if client.is_none() {
                                continue;
                            }
                        }
                        let t0 = Instant::now();
                        let status = client.as_mut().expect("reconnected above").request(
                            "POST",
                            "/requests",
                            body,
                        );
                        let ms = t0.elapsed().as_secs_f64() * 1_000.0;
                        tally.requests += 1;
                        match status {
                            Ok(200) => {
                                tally.injects += BATCH as u64;
                                tally.latencies_ms.push(ms);
                            }
                            Ok(_) | Err(_) => {
                                tally.failures += 1;
                                client = Client::connect(addr).ok();
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        let scrape_handle = scrape.then(|| {
            let stop = &stop;
            scope.spawn(move || {
                let mut scrapes = 0u64;
                let mut client = Client::connect(addr).ok();
                while !stop.load(Ordering::Relaxed) {
                    if client.as_ref().is_none_or(|c| c.closed) {
                        client = Client::connect(addr).ok();
                        if client.is_none() {
                            continue;
                        }
                    }
                    let path = if scrapes.is_multiple_of(2) {
                        "/slo"
                    } else {
                        "/debug/flight"
                    };
                    match client.as_mut().map(|c| c.request("GET", path, "")) {
                        Some(Ok(200)) => scrapes += 1,
                        _ => client = Client::connect(addr).ok(),
                    }
                }
                scrapes
            })
        });
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let tallies: Vec<ClientTally> = inject_handles
            .into_iter()
            .map(|h| h.join().expect("inject client panicked"))
            .collect();
        let scrapes = scrape_handle
            .map(|h| h.join().expect("scraper panicked"))
            .unwrap_or(0);
        (tallies, scrapes)
    });
    let elapsed = started.elapsed().as_secs_f64();
    daemon.request_shutdown();
    let outcome = daemon.join();
    ip_obs::set_enabled(false);

    let mut latencies: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.latencies_ms.clone())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let injects: u64 = tallies.iter().map(|t| t.injects).sum();
    assert_eq!(
        outcome.injected, injects,
        "{mode}: daemon-side inject count must match client-side"
    );
    ModeResult {
        mode,
        requests: tallies.iter().map(|t| t.requests).sum(),
        injects,
        failures: tallies.iter().map(|t| t.failures).sum(),
        duration_secs: elapsed,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        scrapes,
    }
}

fn write_json(results: &[ModeResult], duration_secs: f64, on_over_off: f64) {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut body = String::from("{\n");
    body.push_str("  \"artifact\": \"BENCH_pr8\",\n");
    body.push_str(
        "  \"description\": \"request-scoped tracing overhead: keep-alive 16-entry-batch POST /requests load with the IP_OBS gate as the only variable, plus a concurrent /slo + /debug/flight scraper\",\n",
    );
    body.push_str(&format!("  \"available_parallelism\": {avail},\n"));
    body.push_str(
        "  \"caveat\": \"bench host has 1 CPU (ROADMAP standing constraint): clients, workers, and the controller share one core, so absolute rates are conservative; the obs_on/obs_off ratio is the signal\",\n",
    );
    body.push_str(&format!(
        "  \"config\": {{\"workers\": {WORKERS}, \"clients\": {CLIENTS}, \"batch\": {BATCH}, \"duration_secs\": {duration_secs}}},\n"
    ));
    body.push_str(&format!(
        "  \"obs_on_injects_per_sec_over_obs_off\": {on_over_off:.3},\n"
    ));
    body.push_str("  \"measurements\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"mode\": \"{}\", \"requests\": {}, \"injects\": {}, \"failures\": {}, \"requests_per_sec\": {:.1}, \"injects_per_sec\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"slo_flight_scrapes\": {}}}{}\n",
            r.mode,
            r.requests,
            r.injects,
            r.failures,
            r.requests_per_sec(),
            r.injects_per_sec(),
            r.p50_ms,
            r.p99_ms,
            r.scrapes,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    body.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr8.json");
    std::fs::write(path, body).expect("write BENCH_pr8.json");
    println!("\nwrote {path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let duration_secs: f64 = std::env::var("IP_BENCH_PR8_SECS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(if smoke { 0.5 } else { 3.0 })
        .max(0.1);
    let duration = Duration::from_secs_f64(duration_secs);

    let modes: &[&'static str] = if smoke {
        &["obs_off", "obs_on"]
    } else {
        &["obs_off", "obs_on", "obs_on_scrape"]
    };
    println!(
        "tracing overhead: {CLIENTS} clients x {duration_secs}s per mode, {WORKERS} workers\n"
    );
    let results: Vec<ModeResult> = modes.iter().map(|m| run_mode(m, duration)).collect();

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{:.1}", r.requests_per_sec()),
                format!("{:.1}", r.injects_per_sec()),
                format!("{:.3}", r.p50_ms),
                format!("{:.3}", r.p99_ms),
                r.failures.to_string(),
                r.scrapes.to_string(),
            ]
        })
        .collect();
    ip_bench::print_table(
        &[
            "mode",
            "req_per_s",
            "inj_per_s",
            "p50_ms",
            "p99_ms",
            "failures",
            "scrapes",
        ],
        &rows,
    );

    let by_mode = |name: &str| results.iter().find(|r| r.mode == name);
    let off = by_mode("obs_off").expect("baseline ran");
    let on = by_mode("obs_on").expect("instrumented mode ran");
    let ratio = on.injects_per_sec() / off.injects_per_sec().max(1e-9);
    println!("\nobs_on vs obs_off: {ratio:.3}x injects/sec");

    if smoke {
        let mut ok = true;
        for r in &results {
            if r.injects == 0 {
                eprintln!("SMOKE FAIL: mode {} injected nothing", r.mode);
                ok = false;
            }
            if r.failures > 0 {
                eprintln!(
                    "SMOKE FAIL: mode {} had {} failed requests",
                    r.mode, r.failures
                );
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!("smoke ok: all modes injected with zero failures");
        return;
    }

    write_json(&results, duration_secs, ratio);
}
