//! End-to-end daemon tests over a real loopback socket.
//!
//! The headline test boots the daemon on an ephemeral port at a high
//! `speedup`, injects arrivals over a raw `TcpStream` mid-replay, waits
//! for the trace to complete, scrapes `/metrics` (parsed with the
//! `ip-obs` exposition parser, not string matching), shuts down over
//! HTTP, and then proves the live run **bit-identical** to an offline
//! `Simulation::run` over the reconstructed effective trace — hit/miss
//! counters, wait integrals, per-interval stats, applied-target timeline,
//! and every recommendation file the pipeline wrote.
//!
//! The obs registry is process-global, so the tests that depend on it
//! serialize on a mutex and reset state up front.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ip_serve::{build_provider, Daemon, PoolServeConfig, ServeConfig};
use ip_sim::{IpWorkerConfig, RecommendationFile, SimConfig, Simulation};
use ip_timeseries::TimeSeries;
use serde::Content;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Issues one HTTP/1.1 request over a raw one-shot socket. Sends
/// `Connection: close` so a keep-alive server terminates the exchange and
/// `read_to_string` sees EOF.
fn try_http(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, payload))
}

/// A persistent HTTP/1.1 client: many requests on one socket, responses
/// framed by `Content-Length` (no EOF to lean on under keep-alive).
struct KeepAliveClient {
    stream: TcpStream,
}

impl KeepAliveClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Self { stream }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes()).expect("write");
        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let mut chunk = [0u8; 2048];
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "server closed mid-response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable response head: {head:?}"));
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
            .expect("response carries Content-Length");
        let body_start = head_end + 4;
        while buf.len() < body_start + content_length {
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "server closed mid-response body");
            buf.extend_from_slice(&chunk[..n]);
        }
        let payload =
            String::from_utf8_lossy(&buf[body_start..body_start + content_length]).into_owned();
        (status, payload)
    }
}

/// The `ip_sim_*` lines of a Prometheus exposition — the simulator-driven
/// series whose bytes must not depend on the transport (the `ip_serve_*`
/// counters legitimately differ between one batched POST and N singles).
fn sim_series(metrics_text: &str) -> Vec<String> {
    metrics_text
        .lines()
        .filter(|line| line.starts_with("ip_sim_") || line.contains(" ip_sim_"))
        .map(str::to_string)
        .collect()
}

/// [`try_http`], panicking on transport errors.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    try_http(addr, method, path, body).expect("control-plane request failed")
}

fn parse_json(body: &str) -> Content {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e:?}"))
}

/// Polls `/status` until the daemon reports `state`, panicking after 60 s.
fn wait_for_state(addr: std::net::SocketAddr, state: &str) -> Content {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (code, body) = http(addr, "GET", "/status", "");
        assert_eq!(code, 200, "status endpoint failed: {body}");
        let doc = parse_json(&body);
        if doc.field("state") == Some(&Content::Str(state.to_string())) {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reached state {state:?}; last status: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A bursty synthetic trace long enough for the pipeline to engage.
fn demand(n: usize) -> TimeSeries {
    let values = (0..n)
        .map(|i| {
            let base = 2.0 + (i as f64 / 9.0).sin().abs() * 4.0;
            base.round() + f64::from((i as u32).is_multiple_of(3))
        })
        .collect();
    TimeSeries::new(30, values).unwrap()
}

fn sim_config() -> SimConfig {
    SimConfig {
        default_pool_target: 3,
        seed: 42,
        ip_worker: Some(IpWorkerConfig::default()),
        ..Default::default()
    }
}

/// The tentpole acceptance test: live daemon decisions are bit-identical
/// to the offline pipeline on the same effective trace, and the live
/// `/metrics` exposition parses and agrees with the oracle.
#[test]
fn live_daemon_is_bit_identical_to_offline_pipeline() {
    let _guard = OBS_LOCK.lock().unwrap();
    ip_obs::reset();
    ip_obs::set_enabled(true);

    let base = demand(200);
    let mut config = ServeConfig::new(base.clone());
    config.pools[0].sim = sim_config();
    config.pools[0].model = Some("baseline".to_string());
    config.pools[0].alpha = 0.3;
    config.pools[0].autotune = true;
    config.speedup = 2_000.0;
    let daemon = Daemon::start(config).expect("daemon starts");
    let addr = daemon.addr();

    // Inject arrivals aimed at late intervals; the responses tell us
    // exactly where they landed, so the effective trace is reconstructible
    // no matter how far the replay has advanced.
    let mut landed: Vec<(usize, u64)> = Vec::new();
    for (count, interval) in [(7u64, 150usize), (3, 180)] {
        let (code, body) = http(
            addr,
            "POST",
            "/requests",
            &format!("{{\"count\":{count},\"interval\":{interval}}}"),
        );
        assert_eq!(code, 200, "injection rejected: {body}");
        let doc = parse_json(&body);
        assert_eq!(doc.field("injected").and_then(Content::as_u64), Some(count));
        let at = doc.field("interval").and_then(Content::as_u64).unwrap() as usize;
        landed.push((at, count));
    }

    let status = wait_for_state(addr, "completed");
    assert_eq!(
        status
            .field("intervals_processed")
            .and_then(Content::as_u64),
        Some(200)
    );
    assert_eq!(
        status.field("injected_requests").and_then(Content::as_u64),
        Some(10)
    );
    assert!(status.field("metrics").is_some());
    let renewals = status
        .field("lease")
        .and_then(|l| l.field("renewals"))
        .and_then(Content::as_u64)
        .expect("lease present in status");
    assert!(renewals > 0, "controller heartbeat never renewed its lease");

    // Scrape the live exposition and parse it with the ip-obs parser.
    let (code, metrics_text) = http(addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    let exposition = ip_obs::export::parse_exposition(&metrics_text).expect("exposition parses");
    let sample = |name: &str| {
        exposition
            .samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("{name} missing from /metrics"))
            .value
    };
    let live_hits = sample("ip_sim_pool_hits_total");
    let live_misses = sample("ip_sim_pool_misses_total");
    assert!(sample("ip_serve_ticks_total") >= 1.0);
    assert!(
        exposition
            .helps
            .iter()
            .any(|(name, help)| name == "ip_serve_ticks_total" && !help.is_empty()),
        "serve families must carry HELP text"
    );

    let (code, body) = http(addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    assert!(
        body.contains("draining"),
        "unexpected shutdown body: {body}"
    );
    let mut outcome = daemon.join();
    ip_obs::set_enabled(false);
    let (_, live) = outcome.pool_reports.remove(0);
    assert_eq!(outcome.injected, 10);

    // Oracle: the offline pipeline over the reconstructed effective trace,
    // built through the very same provider constructor.
    let mut effective = base;
    for (at, count) in landed {
        effective.values_mut()[at] += count as f64;
    }
    let mut provider = build_provider("baseline", 0.3, true, 30.0).unwrap();
    let offline = Simulation::new(sim_config(), Some(provider.as_mut()))
        .run(&effective)
        .unwrap();

    assert_eq!(live.hits, offline.hits);
    assert_eq!(live.misses, offline.misses);
    assert_eq!(live.total_wait_secs, offline.total_wait_secs);
    assert_eq!(live.interval_stats, offline.interval_stats);
    assert_eq!(
        live.applied_target_timeline,
        offline.applied_target_timeline
    );

    // Every recommendation the live pipeline wrote matches the offline one.
    let live_recs = live
        .config_store
        .get_all::<RecommendationFile>("pool-recommendation");
    let offline_recs = offline
        .config_store
        .get_all::<RecommendationFile>("pool-recommendation");
    assert!(
        !live_recs.is_empty(),
        "pipeline never produced a recommendation"
    );
    assert_eq!(live_recs, offline_recs);

    // And the scraped counters agree with the oracle.
    assert_eq!(live_hits, offline.hits as f64);
    assert_eq!(live_misses, offline.misses as f64);
}

/// The fleet acceptance test: a daemon over three named pools is, pool by
/// pool, bit-identical to three offline `Simulation::run`s over the same
/// effective traces — with mid-replay injections routed into two of the
/// pools by name — and `/metrics` carries one labeled series per pool.
#[test]
fn fleet_daemon_matches_offline_per_pool() {
    let _guard = OBS_LOCK.lock().unwrap();
    ip_obs::reset();
    ip_obs::set_enabled(true);

    // Three pools with distinct traces, seeds, and pipelines: a tuned
    // model pool, a plain model pool, and a static pool.
    let sim_of = |seed: u64| SimConfig {
        default_pool_target: 3,
        seed,
        ..Default::default()
    };
    let specs: Vec<(&str, usize, u64, Option<&str>, bool)> = vec![
        ("east", 160, 11, Some("baseline"), true),
        ("west", 200, 22, Some("baseline"), false),
        ("spare", 120, 33, None, false),
    ];
    let mut pools = Vec::new();
    for &(name, len, seed, model, autotune) in &specs {
        pools.push(PoolServeConfig {
            sim: sim_of(seed),
            model: model.map(str::to_owned),
            autotune,
            ..PoolServeConfig::named(name, demand(len))
        });
    }
    let mut config = ServeConfig::fleet(pools).unwrap();
    config.speedup = 2_000.0;
    let daemon = Daemon::start(config).expect("fleet daemon starts");
    let addr = daemon.addr();

    // `/pools` lists the fleet.
    let (code, body) = http(addr, "GET", "/pools", "");
    assert_eq!(code, 200, "{body}");
    let doc = parse_json(&body);
    let Some(Content::Seq(listed)) = doc.field("pools") else {
        panic!("/pools must carry a pools array: {body}");
    };
    let names: Vec<_> = listed
        .iter()
        .map(|p| p.field("name").cloned().unwrap())
        .collect();
    assert_eq!(
        names,
        vec![
            Content::Str("east".into()),
            Content::Str("west".into()),
            Content::Str("spare".into())
        ]
    );

    // A fleet rejects un-routed and mis-routed mutations.
    assert_eq!(http(addr, "POST", "/requests", "{\"count\":1}").0, 400);
    assert_eq!(
        http(addr, "POST", "/requests", "{\"count\":1,\"pool\":\"nope\"}").0,
        404
    );

    // Inject into two pools by name; the responses pin where each landed.
    let mut landed: Vec<(&str, usize, u64)> = Vec::new();
    for (pool, count, interval) in [("east", 7u64, 120usize), ("spare", 3, 100)] {
        let (code, body) = http(
            addr,
            "POST",
            "/requests",
            &format!("{{\"count\":{count},\"interval\":{interval},\"pool\":\"{pool}\"}}"),
        );
        assert_eq!(code, 200, "injection into {pool} rejected: {body}");
        let doc = parse_json(&body);
        assert_eq!(
            doc.field("pool"),
            Some(&Content::Str(pool.to_string())),
            "{body}"
        );
        let at = doc.field("interval").and_then(Content::as_u64).unwrap() as usize;
        landed.push((pool, at, count));
    }

    let status = wait_for_state(addr, "completed");
    assert_eq!(
        status
            .field("intervals_processed")
            .and_then(Content::as_u64),
        Some(160 + 200 + 120)
    );
    assert_eq!(
        status.field("injected_requests").and_then(Content::as_u64),
        Some(10)
    );
    // Fleet status: top-level model/alpha are null, per-pool entries
    // carry the real values.
    assert_eq!(status.field("model"), Some(&Content::Null));
    let Some(Content::Seq(status_pools)) = status.field("pools") else {
        panic!("fleet status must carry a pools array");
    };
    assert_eq!(status_pools.len(), 3);
    assert_eq!(
        status_pools[0]
            .field("injected_requests")
            .and_then(Content::as_u64),
        Some(7)
    );

    // Scrape the exposition: per-pool labeled series for every pool.
    let (code, metrics_text) = http(addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    let exposition = ip_obs::export::parse_exposition(&metrics_text).expect("exposition parses");
    let pool_sample = |name: &str, pool: &str| {
        exposition
            .samples
            .iter()
            .find(|s| s.name == name && s.labels == vec![("pool".to_string(), pool.to_string())])
            .unwrap_or_else(|| panic!("{name}{{pool={pool:?}}} missing from /metrics"))
            .value
    };
    let live_hits: Vec<f64> = specs
        .iter()
        .map(|&(name, ..)| pool_sample("ip_sim_pool_hits_total", name))
        .collect();

    let (code, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    let outcome = daemon.join();
    ip_obs::set_enabled(false);
    assert_eq!(outcome.injected, 10);
    assert_eq!(outcome.pool_reports.len(), 3);

    // Oracle: each pool independently offline over its effective trace,
    // via the same provider constructor and the same config rules.
    for (i, &(name, len, seed, model, autotune)) in specs.iter().enumerate() {
        let (live_name, live) = &outcome.pool_reports[i];
        assert_eq!(live_name, name);
        let mut effective = demand(len);
        for &(pool, at, count) in &landed {
            if pool == name {
                effective.values_mut()[at] += count as f64;
            }
        }
        let mut cfg = sim_of(seed);
        if model.is_some() {
            cfg.ip_worker = Some(IpWorkerConfig::default());
        }
        cfg.pool = Some(ip_sim::PoolId::new(name));
        let mut provider = model.map(|m| build_provider(m, 0.3, autotune, 30.0).unwrap());
        let offline = Simulation::new(
            cfg,
            provider
                .as_mut()
                .map(|p| p.as_mut() as &mut dyn ip_sim::RecommendationProvider),
        )
        .run(&effective)
        .unwrap();

        assert_eq!(live.hits, offline.hits, "pool {name}");
        assert_eq!(live.misses, offline.misses, "pool {name}");
        assert_eq!(live.total_wait_secs, offline.total_wait_secs, "pool {name}");
        assert_eq!(live.interval_stats, offline.interval_stats, "pool {name}");
        assert_eq!(
            live.applied_target_timeline, offline.applied_target_timeline,
            "pool {name}"
        );
        let live_recs = live
            .config_store
            .get_all::<RecommendationFile>("pool-recommendation");
        let offline_recs = offline
            .config_store
            .get_all::<RecommendationFile>("pool-recommendation");
        assert_eq!(live_recs, offline_recs, "pool {name}");
        if model.is_some() {
            assert!(!live_recs.is_empty(), "pool {name} never recommended");
        }
        // The scraped per-pool counter agrees with the oracle.
        assert_eq!(live_hits[i], offline.hits as f64, "pool {name}");
    }
}

/// Control-plane behaviour that doesn't need the obs registry: readiness,
/// routing errors, validation, reload, and graceful shutdown semantics.
#[test]
fn control_plane_endpoints_validate_and_route() {
    let _guard = OBS_LOCK.lock().unwrap();
    ip_obs::set_enabled(false);

    let mut config = ServeConfig::new(demand(40));
    config.speedup = 600.0; // 20 logical intervals per wall second
    let daemon = Daemon::start(config).expect("daemon starts");
    let addr = daemon.addr();

    let (code, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    let (code, body) = http(addr, "GET", "/readyz", "");
    assert_eq!((code, body.as_str()), (200, "ready\n"));

    // Unknown path, wrong method, and malformed bodies.
    assert_eq!(http(addr, "GET", "/nope", "").0, 404);
    assert_eq!(http(addr, "POST", "/metrics", "").0, 405);
    assert_eq!(http(addr, "GET", "/shutdown", "").0, 405);
    let (code, body) = http(addr, "POST", "/requests", "not json");
    assert_eq!(code, 400);
    assert!(parse_json(&body).field("error").is_some());
    assert_eq!(http(addr, "POST", "/requests", "{\"count\":0}").0, 400);
    assert_eq!(http(addr, "POST", "/requests", "{}").0, 400);
    let (code, _) = http(addr, "POST", "/requests", "{\"count\":1,\"interval\":-3}");
    assert_eq!(code, 400);

    // Reload on a static daemon (no model) is a conflict, not a crash.
    let (code, body) = http(addr, "POST", "/reload", "{\"model\":\"ssa\"}");
    assert_eq!(code, 409, "static daemon must reject reload: {body}");
    assert_eq!(http(addr, "POST", "/reload", "{\"alpha\":0.4}").0, 400);
    assert_eq!(
        http(addr, "POST", "/reload", "{\"model\":\"ssa\",\"alpha\":7.0}").0,
        400
    );

    // Status is well-formed while running.
    let (code, body) = http(addr, "GET", "/status", "");
    assert_eq!(code, 200);
    let doc = parse_json(&body);
    assert_eq!(
        doc.field("intervals_total").and_then(Content::as_u64),
        Some(40)
    );
    assert_eq!(doc.field("model"), Some(&Content::Null));

    // After the trace completes, further injections are conflicts.
    wait_for_state(addr, "completed");
    let (code, body) = http(addr, "POST", "/requests", "{\"count\":1}");
    assert_eq!(code, 409, "complete daemon must reject arrivals: {body}");

    assert_eq!(http(addr, "POST", "/shutdown", "").0, 200);
    // Shutdown is idempotent while draining; the connection may be reset
    // if the control plane wins the race and closes first.
    if let Ok((code, _)) = try_http(addr, "POST", "/shutdown", "") {
        assert_eq!(code, 200);
    }
    let mut outcome = daemon.join();
    assert_eq!(outcome.injected, 0);
    let (_, report) = outcome.pool_reports.remove(0);
    assert_eq!(report.interval_stats.len(), 40);
}

/// `POST /reload` swaps the live model and `/status` reflects it; the
/// daemon also drains cleanly mid-replay (early finalize of the processed
/// prefix rather than fast-forwarding the trace).
#[test]
fn reload_swaps_model_and_drain_finalizes_prefix() {
    let _guard = OBS_LOCK.lock().unwrap();
    ip_obs::set_enabled(false);

    let mut config = ServeConfig::new(demand(20_000));
    config.pools[0].sim = sim_config();
    config.pools[0].model = Some("baseline".to_string());
    config.speedup = 300.0; // 10 intervals per wall second: far from done
    let daemon = Daemon::start(config).expect("daemon starts");
    let addr = daemon.addr();

    let (code, body) = http(addr, "POST", "/reload", "{\"model\":\"ssa\",\"alpha\":0.5}");
    assert_eq!(code, 200, "reload failed: {body}");
    let (_, body) = http(addr, "GET", "/status", "");
    let doc = parse_json(&body);
    assert_eq!(doc.field("model"), Some(&Content::Str("ssa".to_string())));
    assert_eq!(doc.field("alpha").and_then(Content::as_f64), Some(0.5));
    assert_eq!(doc.field("reloads").and_then(Content::as_u64), Some(1));

    // Unknown model names are rejected without disturbing the live one.
    assert_eq!(http(addr, "POST", "/reload", "{\"model\":\"nope\"}").0, 409);

    // Drain mid-replay: the report covers exactly the processed prefix.
    assert_eq!(http(addr, "POST", "/shutdown", "").0, 200);
    let mut outcome = daemon.join();
    assert_eq!(outcome.reloads, 1);
    let (_, report) = outcome.pool_reports.remove(0);
    assert!(
        !report.interval_stats.is_empty() && report.interval_stats.len() < 20_000,
        "drain must finalize a strict prefix, got {} intervals",
        report.interval_stats.len()
    );
}

/// PR 7 bit-identity: a daemon serving keep-alive connections with a
/// **batched** injection (7 workers) produces the same report and the
/// same `ip_sim_*` Prometheus bytes as a `Connection: close` daemon
/// taking the same injections as singles (1 worker) — and both match the
/// offline `Simulation::run` oracle over the reconstructed trace.
#[test]
fn keepalive_batched_daemon_matches_one_shot_and_offline() {
    let _guard = OBS_LOCK.lock().unwrap();

    let base = demand(200);
    let injections = [(7u64, 150usize), (3, 180)];

    // Runs one daemon to completion; returns (report, ip_sim_* exposition
    // lines, landing intervals).
    let run = |keep_alive: bool, workers: usize, batched: bool| {
        ip_obs::reset();
        ip_obs::set_enabled(true);
        let mut config = ServeConfig::new(base.clone());
        config.pools[0].sim = sim_config();
        config.pools[0].model = Some("baseline".to_string());
        config.pools[0].alpha = 0.3;
        config.pools[0].autotune = true;
        config.speedup = 2_000.0;
        config.workers = workers;
        config.keep_alive = keep_alive;
        let daemon = Daemon::start(config).expect("daemon starts");
        let addr = daemon.addr();

        let mut landed: Vec<(usize, u64)> = Vec::new();
        if batched {
            let body = format!(
                "[{}]",
                injections
                    .iter()
                    .map(|(c, i)| format!("{{\"count\":{c},\"interval\":{i}}}"))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let mut client = KeepAliveClient::connect(addr);
            let (code, resp) = client.request("POST", "/requests", &body);
            assert_eq!(code, 200, "batch rejected: {resp}");
            let doc = parse_json(&resp);
            assert_eq!(doc.field("injected").and_then(Content::as_u64), Some(10));
            let Some(Content::Seq(results)) = doc.field("results") else {
                panic!("batch response must carry results: {resp}");
            };
            for r in results {
                landed.push((
                    r.field("interval").and_then(Content::as_u64).unwrap() as usize,
                    r.field("injected").and_then(Content::as_u64).unwrap(),
                ));
            }
        } else {
            for (count, interval) in injections {
                let (code, resp) = http(
                    addr,
                    "POST",
                    "/requests",
                    &format!("{{\"count\":{count},\"interval\":{interval}}}"),
                );
                assert_eq!(code, 200, "injection rejected: {resp}");
                let doc = parse_json(&resp);
                landed.push((
                    doc.field("interval").and_then(Content::as_u64).unwrap() as usize,
                    count,
                ));
            }
        }

        wait_for_state(addr, "completed");
        let (code, metrics_text) = http(addr, "GET", "/metrics", "");
        assert_eq!(code, 200);
        assert_eq!(http(addr, "POST", "/shutdown", "").0, 200);
        let mut outcome = daemon.join();
        ip_obs::set_enabled(false);
        (
            outcome.pool_reports.remove(0).1,
            sim_series(&metrics_text),
            landed,
        )
    };

    let (ka_report, ka_sim, ka_landed) = run(true, 7, true);
    let (os_report, os_sim, os_landed) = run(false, 1, false);

    // Same landings, same decisions, same simulator-metric bytes.
    assert_eq!(ka_landed, os_landed);
    assert_eq!(ka_report.hits, os_report.hits);
    assert_eq!(ka_report.misses, os_report.misses);
    assert_eq!(ka_report.total_wait_secs, os_report.total_wait_secs);
    assert_eq!(ka_report.interval_stats, os_report.interval_stats);
    assert_eq!(
        ka_report.applied_target_timeline,
        os_report.applied_target_timeline
    );
    assert!(!ka_sim.is_empty(), "exposition must carry ip_sim_* series");
    assert_eq!(
        ka_sim, os_sim,
        "ip_sim_* exposition bytes must not depend on the transport"
    );

    // And both match the offline oracle over the effective trace.
    let mut effective = base;
    for &(at, count) in &ka_landed {
        effective.values_mut()[at] += count as f64;
    }
    let mut provider = build_provider("baseline", 0.3, true, 30.0).unwrap();
    let offline = Simulation::new(sim_config(), Some(provider.as_mut()))
        .run(&effective)
        .unwrap();
    assert_eq!(ka_report.hits, offline.hits);
    assert_eq!(ka_report.misses, offline.misses);
    assert_eq!(ka_report.total_wait_secs, offline.total_wait_secs);
    assert_eq!(ka_report.interval_stats, offline.interval_stats);
    assert_eq!(
        ka_report.applied_target_timeline,
        offline.applied_target_timeline
    );
}

/// PR 8 acceptance: a seeded degraded run — a pool that can serve nothing
/// (target 0) against a 98% hit objective — makes the SLO burn-rate
/// engine raise a **paging** alert, visible at `GET /slo`, in `/status`'s
/// alert list, in the flight recorder (`GET /debug/flight` and the
/// on-drain dump file), with phase-timed slow requests at
/// `GET /debug/requests` and the PR 7 worker internals on `/metrics`.
#[test]
fn degraded_run_pages_at_slo_and_lands_in_flight_dump() {
    let _guard = OBS_LOCK.lock().unwrap();
    ip_obs::reset();
    ip_obs::flight::reset();
    ip_obs::log::reset();
    ip_obs::set_enabled(true);

    let flight_path = std::env::temp_dir().join(format!(
        "ip-serve-flight-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&flight_path);

    let mut config = ServeConfig::new(demand(120));
    config.pools[0].sim = SimConfig {
        default_pool_target: 0, // the pool serves nothing: every request misses
        seed: 42,
        ..Default::default()
    };
    config.speedup = 2_000.0;
    config.slo = ip_obs::SloSpec {
        hit_rate_objective: 0.98,
        ..ip_obs::SloSpec::default()
    };
    config.slow_request_micros = 0; // record every request in the debug ring
    config.flight_out = Some(flight_path.to_string_lossy().into_owned());
    let daemon = Daemon::start(config).expect("daemon starts");
    let addr = daemon.addr();

    wait_for_state(addr, "completed");

    // The burn-rate engine pages: 100% misses against a 2% budget burns
    // 50x in both windows.
    let (code, body) = http(addr, "GET", "/slo", "");
    assert_eq!(code, 200, "{body}");
    let slo = parse_json(&body);
    let Some(Content::Seq(pools)) = slo.field("pools") else {
        panic!("/slo must carry a pools array: {body}");
    };
    assert_eq!(pools.len(), 1);
    assert_eq!(
        pools[0].field("severity"),
        Some(&Content::Str("page".into())),
        "degraded pool must page: {body}"
    );
    let hit = pools[0].field("hit").expect("hit objective present");
    let short_burn = hit
        .field("short")
        .and_then(|w| w.field("burn_rate"))
        .and_then(Content::as_f64)
        .expect("short-window burn rate");
    assert!(short_burn >= 14.4, "short burn {short_burn} must page");
    assert!(
        slo.field("spec").is_some(),
        "/slo carries the spec in force"
    );

    // The same verdict rides /status's alert list.
    let (_, status_body) = http(addr, "GET", "/status", "");
    assert!(
        status_body.contains("SLO burn"),
        "status alerts must carry the burn alert: {status_body}"
    );

    // Slow-request ring: threshold 0 records every request, phase-timed
    // and trace-id-tagged.
    let (code, body) = http(addr, "GET", "/debug/requests", "");
    assert_eq!(code, 200, "{body}");
    let doc = parse_json(&body);
    let Some(Content::Seq(requests)) = doc.field("requests") else {
        panic!("/debug/requests must carry a requests array: {body}");
    };
    assert!(!requests.is_empty(), "ring must have captured requests");
    let entry = requests.last().unwrap();
    assert!(entry.field("trace_id").and_then(Content::as_u64).unwrap() >= 1);
    for phase in ["queue_us", "parse_us", "handle_us", "write_us", "total_us"] {
        assert!(
            entry.field(phase).and_then(Content::as_u64).is_some(),
            "slow request missing {phase}: {body}"
        );
    }

    // The flight recorder serves the same story over HTTP…
    let (code, flight_body) = http(addr, "GET", "/debug/flight", "");
    assert_eq!(code, 200);
    let flight = parse_json(&flight_body);
    assert_eq!(
        flight.field("schema"),
        Some(&Content::Str("ip-flight/1".into()))
    );
    assert!(
        matches!(flight.field("snapshots"), Some(Content::Seq(s)) if !s.is_empty()),
        "flight dump must carry tick snapshots"
    );
    let page_in_sections = flight
        .field("sections")
        .and_then(|s| s.field("slo"))
        .and_then(|s| s.field("pools"))
        .map(|p| format!("{p:?}").contains("page"))
        .unwrap_or(false);
    assert!(
        page_in_sections,
        "flight slo section must show the page: {flight_body}"
    );
    assert!(
        flight_body.contains("slo_severity"),
        "severity transition must be noted: {flight_body}"
    );

    // …and the worker internals are on /metrics.
    let (_, metrics_text) = http(addr, "GET", "/metrics", "");
    let exposition = ip_obs::export::parse_exposition(&metrics_text).expect("exposition parses");
    for family in [
        "ip_serve_worker_queue_depth",
        "ip_serve_worker_steals_total",
        "ip_serve_worker_idle_requeues_total",
        "ip_serve_open_connections",
    ] {
        assert!(
            exposition.samples.iter().any(|s| s.name == family),
            "{family} missing from /metrics"
        );
    }
    assert!(
        exposition
            .samples
            .iter()
            .any(|s| s.name == "ip_serve_request_seconds_bucket"),
        "request latency histogram missing from /metrics"
    );

    assert_eq!(http(addr, "POST", "/shutdown", "").0, 200);
    daemon.join();
    ip_obs::set_enabled(false);

    // The drain wrote the dump to disk, same schema, same verdict.
    let dumped = std::fs::read_to_string(&flight_path).expect("flight dump written on drain");
    let on_disk = parse_json(&dumped);
    assert_eq!(
        on_disk.field("schema"),
        Some(&Content::Str("ip-flight/1".into()))
    );
    assert!(
        dumped.contains("\"shutdown\""),
        "on-disk dump must note the shutdown: {dumped}"
    );
    let _ = std::fs::remove_file(&flight_path);
}

/// Keep-alive multiplexing and batch-inject validation: many requests on
/// one socket (including error responses, which keep the connection
/// alive), empty batches and partially-bad batches rejected whole with
/// nothing injected, and a valid batch landing atomically.
#[test]
fn keep_alive_connection_multiplexes_and_batch_validates() {
    let _guard = OBS_LOCK.lock().unwrap();
    ip_obs::set_enabled(false);

    let mut config = ServeConfig::new(demand(20_000));
    config.speedup = 300.0; // 10 intervals per wall second: far from done
    let daemon = Daemon::start(config).expect("daemon starts");
    let addr = daemon.addr();

    let mut client = KeepAliveClient::connect(addr);
    let (code, body) = client.request("GET", "/healthz", "");
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    assert_eq!(client.request("GET", "/nope", "").0, 404);
    assert_eq!(client.request("GET", "/status", "").0, 200);

    // Empty batch → 400.
    let (code, body) = client.request("POST", "/requests", "[]");
    assert_eq!(code, 400, "{body}");

    // One bad entry rejects the whole batch; nothing is injected.
    let (code, body) = client.request(
        "POST",
        "/requests",
        "[{\"count\":5,\"interval\":19000},{\"count\":0}]",
    );
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("batch entry 1"), "{body}");
    // Same for an unknown pool in an otherwise-valid batch.
    let (code, body) = client.request(
        "POST",
        "/requests",
        "[{\"count\":5},{\"count\":1,\"pool\":\"nope\"}]",
    );
    assert_eq!(code, 404, "{body}");
    // Non-object entries are rejected too.
    assert_eq!(client.request("POST", "/requests", "[1,2]").0, 400);
    let (_, status) = client.request("GET", "/status", "");
    assert_eq!(
        parse_json(&status)
            .field("injected_requests")
            .and_then(Content::as_u64),
        Some(0),
        "rejected batches must inject nothing: {status}"
    );

    // A valid batch lands atomically with per-entry results.
    let (code, body) = client.request(
        "POST",
        "/requests",
        "[{\"count\":2,\"interval\":18000},{\"count\":1,\"interval\":19000}]",
    );
    assert_eq!(code, 200, "{body}");
    let doc = parse_json(&body);
    assert_eq!(doc.field("injected").and_then(Content::as_u64), Some(3));
    let Some(Content::Seq(results)) = doc.field("results") else {
        panic!("batch response must carry results: {body}");
    };
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[1].field("interval").and_then(Content::as_u64),
        Some(19_000)
    );
    let (_, status) = client.request("GET", "/status", "");
    assert_eq!(
        parse_json(&status)
            .field("injected_requests")
            .and_then(Content::as_u64),
        Some(3)
    );

    assert_eq!(client.request("POST", "/shutdown", "").0, 200);
    daemon.join();
}
