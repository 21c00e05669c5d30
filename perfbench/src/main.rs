//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <sweep_cold|serve_warm|whatif_structural>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench expected        # print the regenerated expected-answer table
//! ```
//!
//! With `--trace 0` the run is a closed-loop client of the program's
//! user-facing entry point (the sweep engine in-process, or the `serve`
//! daemon over pipes) and prints the end-to-end metrics. With
//! `--trace 1` it replays the same seeded stream in-process through
//! each layer's public function and prints the per-layer metrics. The
//! last line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for
//! the workloads and metrics.

mod catalogue;
mod drive;
mod expected;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use drive::{Measured, OpRecord};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["sweep_cold", "serve_warm", "whatif_structural"];

/// Directory (relative to the checkout root) receiving per-op logs and
/// provenance records.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "--seed: integer")?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| "--seconds: number")?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (expected one of {WORKLOADS:?})"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// One metric of the result line.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A named metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self { name: name.to_string(), value, unit }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

/// The end-to-end metrics of a run, in `BENCHMARK.json` order.
fn end_to_end(measured: &Measured) -> Vec<Metric> {
    let latencies_ms: Vec<f64> = measured.ops.iter().map(|o| o.latency_s * 1e3).collect();
    let ok = measured.ops.iter().filter(|o| o.ok).count();
    vec![
        Metric::new("setup_s", stats::median(&measured.setup_s), "s"),
        Metric::new("ops_per_s", measured.ops.len() as f64 / measured.timed_s, "1/s"),
        Metric::new("op_p50_ms", stats::percentile(&latencies_ms, 50.0).unwrap_or(0.0), "ms"),
        Metric::new("op_p90_ms", stats::percentile(&latencies_ms, 90.0).unwrap_or(0.0), "ms"),
        Metric::new("peak_rss_mb", measured.peak_rss_mb, "MiB"),
        Metric::new("ok_share", ok as f64 / measured.ops.len().max(1) as f64, "share"),
    ]
}

/// Where each reported percentile's sample sits: its configuration and
/// how many samples of that configuration lie below and above it in the
/// sorted order (a rank at a block boundary shows as 0 on one side).
fn percentile_placement(ops: &[OpRecord], p: f64) -> String {
    let mut sorted: Vec<&OpRecord> = ops.iter().collect();
    sorted.sort_by(|a, b| a.latency_s.total_cmp(&b.latency_s));
    let rank = stats::percentile_rank(sorted.len(), p);
    let config = &sorted[rank].config;
    let below = sorted[..rank].iter().filter(|o| &o.config == config).count();
    let above = sorted[rank + 1..].iter().filter(|o| &o.config == config).count();
    format!(
        "p{p}: {:.3} ms in `{config}` ({below} of its samples below, {above} above)",
        sorted[rank].latency_s * 1e3
    )
}

/// Host, build and run facts recorded with every result.
fn provenance(args: &Args, workers: usize) -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Only the checkout's own repository counts: git must not walk up
    // into an enclosing one.
    let parent = std::env::current_dir().ok().and_then(|d| d.parent().map(Path::to_path_buf));
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent.unwrap_or_default())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let profile =
        if cfg!(debug_assertions) { "debug" } else { "release (lto=fat, codegen-units=1)" };
    format!(
        "workload={} seed={} seconds={} trace={} nproc={} workers={} cpu=\"{cpu}\" kernel={} \
         commit={commit} profile=\"{profile}\" compile_options={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        drive::workers(),
        workers,
        read("/proc/sys/kernel/osrelease").trim(),
        soc_yield_core::CompileOptions::default(),
    )
}

/// Writes the per-op log (op id, configuration, latency, `compiled` tag)
/// and the provenance line under [`OUT_DIR`].
fn write_log(args: &Args, measured: &Measured, provenance: &str, placement: &[String]) {
    let mut text = format!("# {provenance}\n");
    for line in placement {
        let _ = writeln!(text, "# {line}");
    }
    text.push_str("op\tconfig\tlatency_ms\tcompiled\tok\n");
    for op in &measured.ops {
        let _ = writeln!(
            text,
            "{}\t{}\t{:.6}\t{}\t{}",
            op.id,
            op.config,
            op.latency_s * 1e3,
            op.compiled,
            op.ok
        );
    }
    let path = format!("{OUT_DIR}/{}-seed{}-ops.tsv", args.workload, args.seed);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
}

fn run_end_to_end(args: &Args, process_start: Instant) -> Result<String, String> {
    let measured = if args.workload == "sweep_cold" {
        drive::sweep_cold(args.seed, args.seconds, process_start)
    } else {
        drive::serve(&args.workload, args.seed, args.seconds, process_start)
            .map_err(|e| format!("serve daemon: {e}"))?
    };
    if measured.ops.is_empty() {
        return Err("no operation was timed".to_string());
    }
    let provenance = provenance(args, measured.workers);
    let mut placement: Vec<String> =
        [50.0, 90.0].iter().map(|&p| percentile_placement(&measured.ops, p)).collect();
    if args.workload == "serve_warm" {
        // p99 is reported only where at least ten samples lie beyond it.
        let n = measured.ops.len();
        if stats::samples_beyond(n, 99.0) >= 10 {
            placement.push(percentile_placement(&measured.ops, 99.0));
        }
    }
    write_log(args, &measured, &provenance, &placement);
    eprintln!("perfbench: {provenance}");
    for line in &placement {
        eprintln!("perfbench: {line} of {} ops", measured.ops.len());
    }
    for failure in &measured.setup_failures {
        eprintln!("perfbench: set-up answer failed the check: {failure}");
    }
    let failed = measured.ops.iter().filter(|o| !o.ok).count();
    let correct = failed == 0 && measured.setup_failures.is_empty();
    Ok(result_line(correct, measured.ops.len(), failed, &end_to_end(&measured)))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("expected") {
        print!("{}", expected::generate());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        let provenance = provenance(&args, drive::workers());
        eprintln!("perfbench: {provenance}");
        trace::run(&args.workload, args.seed, args.seconds, &provenance)
            .map(|t| result_line(t.correct, t.attempted, t.failed, &t.metrics))
    } else {
        run_end_to_end(&args, process_start)
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.25, "s")]);
        let value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> =
            value.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = value.get("metrics").and_then(|m| m.get("setup_s")).expect("metric");
        assert_eq!(setup.get("value").and_then(serde::Value::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(serde::Value::as_str), Some("s"));
    }

    #[test]
    fn arguments_parse_and_reject_unknown_workloads() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload serve_warm --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve_warm", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload serve_warm --trace 2").is_err());
    }
}
