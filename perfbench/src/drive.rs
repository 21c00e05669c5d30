//! The end-to-end runs: closed-loop clients of the sweep engine and of
//! the `serve` daemon, timed from the client side with tracing off.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use serde::Value;
use soc_yield_core::YieldReport;
use socy_defect::NegativeBinomial;
use socy_exec::{NamedDistribution, SweepBlock, SweepMatrix, SystemSpec, TruncationRule};

use crate::catalogue::{
    benchmark, cold_pass, components, serve_pass, setup_requests, spec, Job, Request, Rng,
    BASE_ALPHA, COLD_EPSILONS,
};
use crate::expected::{Reported, Table};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// One timed operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Position in the timed stream.
    pub id: usize,
    /// Configuration key (job type, or request type and resident).
    pub config: String,
    /// Client-side latency in seconds.
    pub latency_s: f64,
    /// The `compiled` tag of the answer (`cold` for sweep jobs).
    pub compiled: String,
    /// Whether the answer passed the check.
    pub ok: bool,
}

/// What one end-to-end run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Durations of the repeated set-ups, in seconds.
    pub setup_s: Vec<f64>,
    /// Every timed op, in stream order.
    pub ops: Vec<OpRecord>,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// VmHWM of the process doing the work, in MiB.
    pub peak_rss_mb: f64,
    /// Set-up answers that failed the check (they make the run incorrect).
    pub setup_failures: Vec<String>,
    /// Worker threads of the sweep engine or daemon.
    pub workers: usize,
}

/// Whether another pass fits: at least one pass always runs, and a next
/// pass starts only if it is expected to end within `seconds`.
pub fn another_pass(passes: usize, elapsed: f64, seconds: f64) -> bool {
    passes == 0 || elapsed + elapsed / passes as f64 <= seconds
}

/// Worker threads used for sweeps: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// VmHWM of process `pid` (`self` for this process), in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The sweep matrix of one cold job.
pub fn job_matrix(job: &Job, system: SystemSpec) -> SweepMatrix {
    let mut block = SweepBlock::new();
    block.systems.push(system);
    let lethal = NegativeBinomial::new(job.lambda, BASE_ALPHA).expect("valid catalogue");
    block.distributions.push(NamedDistribution::new(format!("λ'={}", job.lambda), lethal));
    block.specs.extend(job.specs.iter().map(|s| spec(s)));
    block.rules.extend(COLD_EPSILONS.iter().map(|&e| TruncationRule::Epsilon(e)));
    let mut matrix = SweepMatrix::new();
    matrix.add(block);
    matrix
}

/// The benchmark's system spec (`P_L = 1`).
pub fn system_spec(name: &str) -> SystemSpec {
    let system = benchmark(name);
    let comps = components(&system);
    SystemSpec::new(system.name, system.fault_tree, comps)
}

fn reported(report: &YieldReport) -> Reported {
    Reported {
        yield_lower_bound: report.yield_lower_bound,
        error_bound: report.error_bound,
        truncation: report.truncation,
        compiled_truncation: report.compiled_truncation,
        romdd_size: report.romdd_size,
    }
}

/// Checks a cold job's sweep outcome point by point.
pub fn check_job(
    table: &Table,
    job: &Job,
    reports: &[Result<&YieldReport, String>],
) -> Result<(), String> {
    let expects = job.expects();
    if reports.len() != expects.len() {
        return Err(format!("{}: {} points, expected {}", job.kind, reports.len(), expects.len()));
    }
    for (expect, report) in expects.iter().zip(reports) {
        let report = report.as_ref().map_err(Clone::clone)?;
        table.check(expect, &reported(report))?;
    }
    Ok(())
}

/// Runs `sweep_cold`: seeded cold design-space jobs through the sweep
/// engine in this process, one job outstanding.
pub fn sweep_cold(seed: u64, seconds: f64, process_start: Instant) -> Measured {
    let threads = workers();
    let mut measured = Measured { workers: threads, ..Measured::default() };
    let mut specs: Vec<(&'static str, SystemSpec)> = Vec::new();
    let mut table = Table::default();
    let warm_up = crate::catalogue::cold_job_types()
        .into_iter()
        .find(|(job, _)| job.kind == "ESEN4x2/λ1")
        .expect("warm-up job type")
        .0;
    for repeat in 0..SETUP_REPEATS {
        let start = if repeat == 0 { process_start } else { Instant::now() };
        table = Table::committed();
        specs = ["MS2", "MS4", "ESEN4x1", "ESEN4x2", "ESEN4x4"]
            .into_iter()
            .map(|name| (name, system_spec(name)))
            .collect();
        let outcome = job_matrix(&warm_up, specs[3].1.clone()).run(threads);
        let reports: Vec<_> =
            outcome.points.iter().map(|p| p.result.as_ref().map_err(|e| e.to_string())).collect();
        if let Err(e) = check_job(&table, &warm_up, &reports) {
            measured.setup_failures.push(e);
        }
        measured.setup_s.push(start.elapsed().as_secs_f64());
    }

    let mut rng = Rng::new(seed);
    let timed = Instant::now();
    let mut passes = 0;
    while another_pass(passes, timed.elapsed().as_secs_f64(), seconds) {
        for job in cold_pass(&mut rng) {
            let system = specs.iter().find(|(n, _)| *n == job.system).expect("known").1.clone();
            let start = Instant::now();
            let outcome = job_matrix(&job, system).run(threads);
            let latency_s = start.elapsed().as_secs_f64();
            let reports: Vec<_> = outcome
                .points
                .iter()
                .map(|p| p.result.as_ref().map_err(|e| e.to_string()))
                .collect();
            let check = check_job(&table, &job, &reports);
            if let Err(e) = &check {
                eprintln!("perfbench: op {} failed the check: {e}", measured.ops.len());
            }
            measured.ops.push(OpRecord {
                id: measured.ops.len(),
                config: job.kind.to_string(),
                latency_s,
                compiled: "cold".to_string(),
                ok: check.is_ok(),
            });
        }
        passes += 1;
    }
    measured.timed_s = timed.elapsed().as_secs_f64();
    measured.peak_rss_mb = peak_rss_mb("self");
    measured
}

/// A `serve` child connected over pipes: one client, one request
/// outstanding.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts the daemon binary at `path` with its default options.
    ///
    /// # Errors
    ///
    /// Returns the spawn error.
    pub fn spawn(path: &Path) -> std::io::Result<Self> {
        let mut child = Command::new(path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Self { child, stdin, stdout })
    }

    /// Sends one request as its own batch and waits for the answer.
    /// Returns the response line and the client-side latency.
    ///
    /// # Errors
    ///
    /// Returns pipe errors, and an error when the daemon closed stdout.
    pub fn call(&mut self, line: &str) -> std::io::Result<(String, f64)> {
        let stdin = self.stdin.as_mut().expect("stdin open until close");
        let start = Instant::now();
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n\n")?;
        stdin.flush()?;
        let mut response = String::new();
        if self.stdout.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "serve exited"));
        }
        Ok((response, start.elapsed().as_secs_f64()))
    }

    /// VmHWM of the daemon, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Closes stdin (EOF ends the daemon) and waits for it to exit.
    pub fn close(mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `serve` binary built next to this one.
pub fn serve_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable");
    exe.with_file_name(format!("serve{}", std::env::consts::EXE_SUFFIX))
}

/// The `compiled` tag of a response line, for the op log of a failed
/// check (`?` when the line has none).
fn compiled_tag(line: &str) -> String {
    serde_json::from_str(line)
        .ok()
        .and_then(|v| v.get("compiled").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_else(|| "?".to_string())
}

/// Checks one serve response against the request's expected points.
/// `allowed` lists the acceptable `compiled` tags. Returns the tag.
pub fn check_response(
    table: &Table,
    request: &Request,
    line: &str,
    allowed: &[&str],
) -> Result<String, String> {
    let value = serde_json::from_str(line).map_err(|e| format!("unparseable response: {e}"))?;
    check_value(table, request, &value, allowed)
}

/// [`check_response`] on a parsed response.
pub fn check_value(
    table: &Table,
    request: &Request,
    value: &Value,
    allowed: &[&str],
) -> Result<String, String> {
    let config = &request.config;
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        let error = value.get("error").and_then(Value::as_str).unwrap_or("?");
        return Err(format!("{config}: ok=false: {error}"));
    }
    let compiled = value.get("compiled").and_then(Value::as_str).unwrap_or("").to_string();
    if !allowed.contains(&compiled.as_str()) {
        return Err(format!("{config}: answered `{compiled}`, expected one of {allowed:?}"));
    }
    let reports = value.get("reports").and_then(Value::as_array).unwrap_or(&[]);
    let expects = request.expects();
    if reports.len() != expects.len() {
        return Err(format!("{config}: {} reports, expected {}", reports.len(), expects.len()));
    }
    for (expect, report) in expects.iter().zip(reports) {
        let num = |field: &str| report.get(field).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let count =
            |field: &str| report.get(field).and_then(Value::as_u64).unwrap_or(u64::MAX) as usize;
        if report.get("fidelity").and_then(Value::as_str) != Some("exact") {
            return Err(format!("{config}: answer is not exact"));
        }
        let got = Reported {
            yield_lower_bound: num("yield_lower_bound"),
            error_bound: num("error_bound"),
            truncation: count("truncation"),
            compiled_truncation: count("compiled_truncation"),
            romdd_size: count("romdd_size"),
        };
        table.check(expect, &got)?;
    }
    Ok(compiled)
}

/// The `compiled` tags a timed serve answer may carry: warm workloads
/// compile nothing in their timed phase.
pub const WARM_TAGS: [&str; 2] = ["cached", "delta"];
/// The tags a set-up answer may carry.
pub const SETUP_TAGS: [&str; 3] = ["cold", "recompiled", "cached"];

/// Starts a daemon and sends the workload's set-up requests, checking
/// every answer.
fn serve_setup(
    workload: &str,
    table: &Table,
    failures: &mut Vec<String>,
) -> std::io::Result<Daemon> {
    let mut daemon = Daemon::spawn(&serve_binary())?;
    for request in setup_requests(workload) {
        let (line, _) = daemon.call(&request.line)?;
        if let Err(e) = check_response(table, &request, &line, &SETUP_TAGS) {
            failures.push(e);
        }
    }
    Ok(daemon)
}

/// Runs `serve_warm` or `whatif_structural` against a `serve` child.
///
/// # Errors
///
/// Returns spawn and pipe errors.
pub fn serve(
    workload: &str,
    seed: u64,
    seconds: f64,
    process_start: Instant,
) -> std::io::Result<Measured> {
    let mut measured = Measured { workers: workers(), ..Measured::default() };
    let mut table = Table::default();
    let mut daemon = None;
    for repeat in 0..SETUP_REPEATS {
        let start = if repeat == 0 { process_start } else { Instant::now() };
        if let Some(previous) = daemon.take() {
            Daemon::close(previous);
        }
        table = Table::committed();
        daemon = Some(serve_setup(workload, &table, &mut measured.setup_failures)?);
        measured.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut daemon = daemon.expect("at least one set-up");

    let mut rng = Rng::new(seed);
    let timed = Instant::now();
    let mut passes = 0;
    while another_pass(passes, timed.elapsed().as_secs_f64(), seconds) {
        for request in serve_pass(workload, &mut rng, measured.ops.len()) {
            let (line, latency_s) = daemon.call(&request.line)?;
            let check = check_response(&table, &request, &line, &WARM_TAGS);
            if let Err(e) = &check {
                eprintln!("perfbench: op {} failed the check: {e}", measured.ops.len());
            }
            measured.ops.push(OpRecord {
                id: measured.ops.len(),
                config: request.config.clone(),
                latency_s,
                compiled: check.clone().unwrap_or_else(|_| compiled_tag(&line)),
                ok: check.is_ok(),
            });
        }
        passes += 1;
    }
    measured.timed_s = timed.elapsed().as_secs_f64();
    measured.peak_rss_mb = daemon.peak_rss_mb();
    daemon.close();
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{Kind, Request, BASE_ALPHA, RESIDENT_EPSILON, WARM_RESIDENTS};
    use crate::expected::Table;

    /// A response carrying exactly the table's answer for `request`.
    fn answer(table: &Table, request: &Request, compiled: &str, perturb: f64) -> String {
        let reports: Vec<String> = request
            .expects()
            .iter()
            .map(|e| {
                let a = table.answer(e).expect("answer row");
                format!(
                    "{{\"yield_lower_bound\":{:?},\"error_bound\":{:?},\"truncation\":{},\
                     \"compiled_truncation\":{},\"romdd_size\":{},\"fidelity\":\"exact\"}}",
                    a.yield_lower_bound + perturb,
                    a.error_bound,
                    a.truncation,
                    table.compiled_truncation(e).expect("compiled row"),
                    table.romdd_size(e).expect("size row"),
                )
            })
            .collect();
        format!("{{\"ok\":true,\"compiled\":\"{compiled}\",\"reports\":[{}]}}", reports.join(","))
    }

    #[test]
    fn the_answer_check_rejects_wrong_or_compiled_answers() {
        let table = Table::committed();
        let resident = WARM_RESIDENTS[0];
        let request = Request::new(
            0,
            Kind::Sweep,
            resident,
            1.5,
            2.0 * BASE_ALPHA,
            vec![1e-2, RESIDENT_EPSILON],
            vec![],
        );
        let good = answer(&table, &request, "cached", 0.0);
        assert_eq!(check_response(&table, &request, &good, &WARM_TAGS), Ok("cached".to_string()));

        let perturbed = answer(&table, &request, "cached", 1e-9);
        let err = check_response(&table, &request, &perturbed, &WARM_TAGS).unwrap_err();
        assert!(err.contains("yield"), "{err}");

        for tag in ["cold", "recompiled"] {
            let compiled = answer(&table, &request, tag, 0.0);
            let err = check_response(&table, &request, &compiled, &WARM_TAGS).unwrap_err();
            assert!(err.contains(tag), "{err}");
        }
        let failed = r#"{"ok":false,"error":"boom","compiled":null,"reports":null}"#;
        assert!(check_response(&table, &request, failed, &WARM_TAGS).is_err());
    }

    #[test]
    fn the_committed_table_covers_the_whole_catalogue() {
        let table = Table::committed();
        for expect in crate::catalogue::all_expects() {
            assert!(table.answer(&expect).is_some(), "{}", expect.answer_key());
            assert!(table.romdd_size(&expect).is_some(), "{}", expect.answer_key());
        }
    }

    #[test]
    fn a_pass_starts_only_if_it_fits() {
        assert!(another_pass(0, 0.0, 1.0));
        assert!(another_pass(0, 50.0, 1.0), "the first pass always runs");
        assert!(another_pass(2, 8.0, 12.0));
        assert!(!another_pass(2, 9.0, 12.0));
    }
}
