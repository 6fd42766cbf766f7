//! Chaos survival, end to end: every catalog scenario is replayed against
//! a live daemon over a real loopback socket, with the scenario's fault
//! schedule injected through the engine's chaos plane. The daemon must
//! keep answering `/healthz` and `/metrics` throughout, report SLO status
//! at `/slo`, surface every injected fault in the `/debug/flight` dump's
//! `faults` section, and drain cleanly on `/shutdown`.
//!
//! The obs registry is process-global, so the tests serialize on a mutex
//! and reset state up front.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ip_chaos::{catalog, ScenarioSpec};
use ip_serve::{Daemon, PoolServeConfig, ServeConfig};
use ip_sim::SimConfig;
use ip_timeseries::TimeSeries;
use serde::Content;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// One HTTP/1.1 request over a one-shot socket (`Connection: close`).
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn parse_json(body: &str) -> Content {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e:?}"))
}

/// Polls `/status` until the daemon reports `state`, panicking after 60 s.
fn wait_for_state(addr: std::net::SocketAddr, state: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (code, body) = http(addr, "GET", "/status", "");
        assert_eq!(code, 200, "status endpoint failed: {body}");
        if parse_json(&body).field("state") == Some(&Content::Str(state.to_string())) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reached state {state:?}; last status: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A bursty trace long enough that every catalog scenario schedules its
/// default faults (duration 96 × 30 s = 2880 s ≥ 60 s).
fn demand(seed: u64) -> TimeSeries {
    let values = (0..96)
        .map(|i| {
            let x = (i as u64).wrapping_mul(2654435761).wrapping_add(seed * 131);
            f64::from((x % 5) as u32) + 1.0
        })
        .collect();
    TimeSeries::new(30, values).unwrap()
}

/// Applies `scenario` (by name, fixed seed) to a two-pool fleet and
/// returns the daemon config plus the planned fault count.
fn chaos_fleet_config(name: &str) -> (ServeConfig, usize) {
    let scenario = ScenarioSpec::by_name(name, 42)
        .and_then(ScenarioSpec::compile)
        .expect("catalog scenario compiles");
    let plan = scenario
        .apply(vec![
            ("east".to_string(), demand(3)),
            ("west".to_string(), demand(8)),
        ])
        .expect("scenario applies");
    let fault_count = plan.fault_count();
    let pools = plan
        .demand
        .iter()
        .map(|(id, d)| {
            let mut p = PoolServeConfig::named(id.clone(), d.clone());
            p.sim = SimConfig {
                default_pool_target: 2,
                seed: 7,
                faults: plan.faults_for(id).to_vec(),
                ..Default::default()
            };
            p
        })
        .collect();
    let mut config = ServeConfig::fleet(pools).expect("fleet config");
    config.speedup = 5_000.0;
    (config, fault_count)
}

/// The chaos-survival sweep: boot one daemon per catalog entry, keep the
/// control plane under light load while the faults fire, and assert the
/// post-mortem surfaces afterwards.
#[test]
fn daemon_survives_every_catalog_scenario() {
    let _guard = OBS_LOCK.lock().unwrap();
    for info in catalog() {
        ip_obs::reset();
        ip_obs::set_enabled(true);
        ip_obs::flight::reset();

        let (config, fault_count) = chaos_fleet_config(info.name);
        assert!(
            fault_count > 0,
            "{}: catalog entry schedules no faults on a long trace",
            info.name
        );
        let daemon = Daemon::start(config).expect("daemon starts");
        let addr = daemon.addr();

        // Light control-plane load while the replay (and the faults) run:
        // liveness and the exposition endpoint must answer throughout, and
        // a two-pool inject batch must land (200) until a pool's trace is
        // complete (409).
        let batch = r#"[{"count":1,"pool":"east"},{"count":1,"pool":"west"}]"#;
        let mut accepted_entries = 0u64;
        loop {
            let (code, body) = http(addr, "POST", "/requests", batch);
            match code {
                200 => accepted_entries += 2,
                409 => assert!(
                    body.contains("trace complete"),
                    "{}: unexpected 409: {body}",
                    info.name
                ),
                _ => panic!("{}: inject batch answered {code}: {body}", info.name),
            }
            let (code, body) = http(addr, "GET", "/healthz", "");
            assert_eq!(code, 200, "{}: /healthz failed: {body}", info.name);
            let (code, body) = http(addr, "GET", "/metrics", "");
            assert_eq!(code, 200, "{}: /metrics failed: {body}", info.name);
            let (code, body) = http(addr, "GET", "/status", "");
            assert_eq!(code, 200, "{}: /status failed: {body}", info.name);
            if parse_json(&body).field("state") == Some(&Content::Str("completed".into())) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            accepted_entries > 0,
            "{}: no inject batch landed while the faults fired",
            info.name
        );

        // SLO evaluation stays available under chaos.
        let (code, body) = http(addr, "GET", "/slo", "");
        assert_eq!(code, 200, "{}: /slo failed: {body}", info.name);
        let slo = parse_json(&body);
        assert!(
            matches!(slo.field("pools"), Some(Content::Seq(pools)) if pools.len() == 2),
            "{}: /slo must evaluate both pools: {body}",
            info.name
        );

        // Every injected fault shows up in the flight recorder's faults
        // section, and the fault counter made it to /metrics.
        let (code, body) = http(addr, "GET", "/debug/flight", "");
        assert_eq!(code, 200, "{}: /debug/flight failed: {body}", info.name);
        let flight = parse_json(&body);
        let faults = flight
            .field("sections")
            .and_then(|s| s.field("faults"))
            .unwrap_or_else(|| panic!("{}: flight dump lacks a faults section: {body}", info.name));
        assert_eq!(
            faults.field("total").and_then(Content::as_u64),
            Some(fault_count as u64),
            "{}: faults section total",
            info.name
        );
        let Some(Content::Seq(injected)) = faults.field("injected") else {
            panic!("{}: faults.injected missing: {body}", info.name);
        };
        assert_eq!(injected.len(), fault_count, "{}: injected list", info.name);
        for record in injected {
            for key in ["t", "pool", "kind", "detail"] {
                assert!(
                    record.field(key).is_some(),
                    "{}: fault record lacks {key:?}: {record:?}",
                    info.name
                );
            }
        }
        let (_, metrics) = http(addr, "GET", "/metrics", "");
        assert!(
            metrics
                .lines()
                .any(|l| l.starts_with("ip_sim_faults_injected_total")),
            "{}: fault counter missing from /metrics",
            info.name
        );

        // Clean drain: /shutdown answers, the daemon leaves Running, and
        // join() returns with every pool's report finalized.
        let (code, body) = http(addr, "POST", "/shutdown", "");
        assert_eq!(code, 200, "{}: /shutdown failed: {body}", info.name);
        wait_for_state_gone(addr);
        let outcome = daemon.join();
        assert_eq!(
            outcome.pool_reports.len(),
            2,
            "{}: both pools finalized",
            info.name
        );
        assert_eq!(
            outcome.injected, accepted_entries,
            "{}: daemon-side inject count must match the accepted entries",
            info.name
        );
        let recorded: usize = outcome
            .pool_reports
            .iter()
            .map(|(_, r)| r.fault_records.len())
            .sum();
        assert_eq!(recorded, fault_count, "{}: report fault records", info.name);
        ip_obs::set_enabled(false);
        ip_obs::reset();
        ip_obs::flight::reset();
    }
}

/// After `/shutdown`, the control plane may close at any moment; poll
/// until connections start failing or the phase leaves running/completed,
/// whichever comes first. Either way the daemon stopped serving new work.
fn wait_for_state_gone(addr: std::net::SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        match TcpStream::connect(addr) {
            Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            Err(_) => return,
        }
    }
}

/// Regression for the no-chaos path: a daemon with no scenario and no
/// faults reports an **empty** faults section (`total` 0), so fault-free
/// dumps stay schema-stable without implying chaos ran.
#[test]
fn fault_free_daemon_reports_an_empty_faults_section() {
    let _guard = OBS_LOCK.lock().unwrap();
    ip_obs::reset();
    ip_obs::set_enabled(true);
    ip_obs::flight::reset();

    let mut config = ServeConfig::new(demand(5));
    config.speedup = 5_000.0;
    let daemon = Daemon::start(config).expect("daemon starts");
    let addr = daemon.addr();
    wait_for_state(addr, "completed");

    let (code, body) = http(addr, "GET", "/debug/flight", "");
    assert_eq!(code, 200, "/debug/flight failed: {body}");
    let flight = parse_json(&body);
    let faults = flight
        .field("sections")
        .and_then(|s| s.field("faults"))
        .expect("faults section present");
    assert_eq!(faults.field("total").and_then(Content::as_u64), Some(0));
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert!(
        !metrics.contains("ip_sim_faults_injected_total"),
        "fault counter must not register on a fault-free run"
    );

    let (code, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(code, 200);
    let outcome = daemon.join();
    assert!(outcome
        .pool_reports
        .iter()
        .all(|(_, r)| r.fault_records.is_empty()));
    ip_obs::set_enabled(false);
    ip_obs::reset();
    ip_obs::flight::reset();
}
