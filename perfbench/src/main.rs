//! The repository's benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--tiny] [--out-dir <dir>] [--rev <git rev>]
//! ```
//!
//! Prints the run record (host facts, sizes, every metric with its in-run
//! median, quartiles and sample count, and any failed output check), then
//! one JSON result line. `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` is a separate run giving the per-layer
//! metrics. `--tiny` shrinks every workload for the smoke test. See
//! `perfbench/README.md`.

mod client;
mod fleet;
mod harness;
mod recommend;
mod report;
mod serve;
mod spans;
mod stats;

use harness::ReferenceSampler;
use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = [
    "fleet-replay",
    "fleet-borrow-obs",
    "recommend",
    "serve-mixed",
];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub out_dir: Option<String>,
    pub rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut out_dir, mut rev) = (false, None, "unknown".to_string());
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--tiny" => tiny = true,
            "--out-dir" => out_dir = Some(value()?),
            "--rev" => rev = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        out_dir,
        rev,
    })
}

fn run(args: &Args, sampler: &ReferenceSampler, report: &mut Report) -> Result<(), String> {
    report.fact("workload", &args.workload);
    report.fact("seed", args.seed);
    report.fact("seconds", args.seconds);
    report.fact("trace", u8::from(args.trace));
    report.fact("tiny", args.tiny);
    report.fact("git_rev", &args.rev);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.fact("host_cpus", cpus);
    report.fact("ip_threads", ip_par::num_threads());
    report.fact(
        "ip_threads_env",
        std::env::var("IP_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    // Traced runs also record the set-up calls; each workload then turns
    // recording on for its traced ops only.
    spans::set_enabled(args.trace);
    match args.workload.as_str() {
        "fleet-replay" => fleet::run(fleet::Kind::Replay, args, sampler, report)?,
        "fleet-borrow-obs" => fleet::run(fleet::Kind::BorrowObs, args, sampler, report)?,
        "recommend" => recommend::run(args, sampler, report)?,
        "serve-mixed" => serve::run(args, sampler, report)?,
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(())
}

fn write_outputs(args: &Args, lines: &[String]) -> Result<(), String> {
    let Some(dir) = &args.out_dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let stem = format!(
        "{dir}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(format!("{stem}.txt"), lines.join("\n") + "\n").map_err(|e| e.to_string())?;
    if args.trace {
        let spans = spans::closed();
        std::fs::write(format!("{stem}-spans.jsonl"), spans::to_jsonl(&spans))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread of the program's (see `ReferenceSampler`).
    let sampler = ReferenceSampler::spawn();
    let mut report = Report::default();
    if let Err(e) = run(&args, &sampler, &mut report) {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(2);
    }
    let lines = report.record_lines();
    for line in &lines {
        println!("# {line}");
    }
    if let Err(e) = write_outputs(&args, &lines) {
        eprintln!("perfbench: writing the run record: {e}");
        return ExitCode::from(2);
    }
    let (wanted, fill) = if args.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    match report.result_json(wanted, fill) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if report.check_failures.is_empty() && report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
