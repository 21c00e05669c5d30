//! The traced run: replays a workload's seeded stream in-process and
//! times the public function of every layer.
//!
//! For each op the run first obtains the program's own answer (the sweep
//! engine's reports, or `YieldService::handle_line`'s response, plus a
//! pipe round trip to a `serve` child for the transport share), and then
//! replays the op through the layers in the order `CompiledModel::compile`,
//! `Pipeline::sweep_deltas` and `YieldService` call them, inside one `op`
//! span. The replica must reproduce the program's yield and ROMDD size
//! for every point (the self-check), so its per-layer times describe the
//! code path the end-to-end run timed.
//!
//! Spans (name, start, end, parent, op) are kept in memory and written to
//! `perfbench/out/<workload>-seed<n>-spans.tsv` at exit. A layer's self
//! time is its span's duration minus the time its child spans cover; the
//! `op` span's own self time is what no layer accounts for
//! (`trace.unattributed_share`).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};
use soc_yield_core::{
    analyze, AnalysisOptions, CompileOptions, DdStats, GeneralizedFaultTree, SystemDelta,
};
use socy_bdd::BddManager;
use socy_dd::SiftConfig;
use socy_defect::{select_truncation, ComponentProbabilities, NegativeBinomial, Truncation};
use socy_faulttree::Netlist;
use socy_mdd::{MddId, MddManager};
use socy_ordering::{compute_ordering, ComputedOrdering};
use socy_serve::{
    resolve_delta, resolve_distribution, resolve_system, Request as WireRequest, ServiceConfig,
    YieldService,
};

use crate::catalogue::{
    benchmark, cold_pass, components, serve_pass, setup_requests, spec, Job, Kind, Request, Rng,
    BASE_ALPHA, COLD_EPSILONS, RESIDENT_EPSILON, WARM_RESIDENTS, WHATIF_BASES,
};
use crate::drive::{
    check_job, check_value, job_matrix, serve_binary, system_spec, workers, Daemon, SETUP_TAGS,
    WARM_TAGS,
};
use crate::expected::Table;
use crate::Metric;

/// The outcome of a traced run.
pub struct Traced {
    /// Every op's answer passed the answer check and the self-check.
    pub correct: bool,
    /// Ops replayed.
    pub attempted: usize,
    /// Ops whose check or self-check failed.
    pub failed: usize,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
}

struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Recorder {
    fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, op: self.op, parent, start: now, end: now });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end = Instant::now();
    }

    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn secs(span: &Span) -> f64 {
        span.end.duration_since(span.start).as_secs_f64()
    }

    /// Self time per span name, and total duration of the `op` spans.
    fn self_times(&self) -> (HashMap<&'static str, f64>, f64) {
        let mut child = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += Self::secs(span);
            }
        }
        let mut out: HashMap<&'static str, f64> = HashMap::new();
        let mut op_time = 0.0;
        for (i, span) in self.spans.iter().enumerate() {
            *out.entry(span.name).or_default() += Self::secs(span) - child[i];
            if span.name == "op" {
                op_time += Self::secs(span);
            }
        }
        (out, op_time)
    }

    fn write(&self, path: &str, provenance: &str) {
        let mut text = format!("# {provenance}\nspan\tparent\top\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos();
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op,
                s.name,
                ns(s.start),
                ns(s.end)
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
}

/// Passes a traced run replays: as many as take about `seconds` on a
/// 2-core Xeon host, fixed by `seconds` alone so that the counters of a
/// `(seed, seconds)` pair repeat exactly.
fn trace_passes(workload: &str, seconds: f64) -> usize {
    let nominal_pass_s = match workload {
        "sweep_cold" => 20.0,
        "serve_warm" => 1.0,
        _ => 2.0,
    };
    ((seconds / nominal_pass_s) as usize).max(1)
}

/// Cost of recording one span, measured at start-up of each traced run.
fn span_cost() -> f64 {
    let mut rec = Recorder::new();
    let n = 20_000;
    let start = Instant::now();
    for _ in 0..n {
        let id = rec.begin("calibrate");
        rec.end(id);
    }
    start.elapsed().as_secs_f64() / n as f64
}

/// Counters gathered next to the spans.
#[derive(Default)]
struct Counters {
    bdd_nodes_allocated: u64,
    bdd_peak_nodes: u64,
    bdd_cache_hits: u64,
    bdd_cache_lookups: u64,
    bdd_cache_insertions: u64,
    bdd_cache_evictions: u64,
    bdd_gc_runs: u64,
    rebuild_nodes_allocated: u64,
    retained_nodes: u64,
    romdd_nodes_converted: u64,
    romdd_nodes_evaluated: u64,
    exec_busy_s: f64,
    exec_capacity_s: f64,
    lru_hits: u64,
    lru_lookups: u64,
    lru_live_nodes: u64,
    handle_s: f64,
    transport_s: f64,
    response_bytes: u64,
}

impl Counters {
    /// Adds the op-cache and GC activity between two snapshots of one
    /// manager.
    fn absorb_cache(&mut self, before: &DdStats, after: &DdStats) {
        let hits = after.op_cache_hits - before.op_cache_hits;
        let misses = after.op_cache_misses - before.op_cache_misses;
        self.bdd_cache_hits += hits;
        self.bdd_cache_lookups += hits + misses;
        self.bdd_cache_insertions += after.op_cache_insertions - before.op_cache_insertions;
        self.bdd_cache_evictions += after.op_cache_evictions - before.op_cache_evictions;
        self.bdd_gc_runs += after.gc_runs - before.gc_runs;
    }
}

/// One point evaluated by the replica.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Point {
    yield_lower_bound: f64,
    romdd_size: usize,
}

/// The probability vectors `CompiledModel::evaluate` builds: the `w`
/// distribution zero-padded to the compiled truncation, and the
/// conditional component probabilities on every `v` level.
fn probability_vectors(
    mv_order: &[usize],
    compiled: usize,
    truncation: &Truncation,
    comps: &ComponentProbabilities,
) -> Vec<Vec<f64>> {
    let mut w = truncation.masses().to_vec();
    w.resize(compiled + 1, 0.0);
    w.push(truncation.error_bound());
    mv_order
        .iter()
        .map(|&mv| if mv == 0 { w.clone() } else { comps.conditional_slice().to_vec() })
        .collect()
}

/// Evaluates one point on a diagram, as `CompiledModel::evaluate` does.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    rec: &mut Recorder,
    counters: &mut Counters,
    mdd: &mut MddManager,
    root: MddId,
    mv_order: &[usize],
    compiled: usize,
    truncation: &Truncation,
    comps: &ComponentProbabilities,
) -> Point {
    rec.span("mdd.eval", || {
        let probabilities = probability_vectors(mv_order, compiled, truncation, comps);
        let p = mdd.probability(root, &probabilities);
        let romdd_size = mdd.node_count(root);
        counters.romdd_nodes_evaluated += romdd_size as u64;
        Point { yield_lower_bound: 1.0 - p, romdd_size }
    })
}

fn truncation(rec: &mut Recorder, lambda: f64, alpha: f64, epsilon: f64) -> Truncation {
    rec.span("defect.truncation", || {
        let lethal = NegativeBinomial::new(lambda, alpha).expect("valid catalogue parameters");
        select_truncation(&lethal, epsilon).expect("reachable truncation")
    })
}

/// A new ROBDD manager configured as `CompiledModel::compile` configures
/// one under the default [`CompileOptions`].
fn new_bdd(levels: usize) -> BddManager {
    let options = CompileOptions::default();
    let mut bdd = BddManager::new(levels);
    bdd.set_complement(options.complement_edges());
    bdd.set_compile_threads(options.compile_threads());
    bdd
}

/// A new ROMDD manager configured likewise.
fn new_mdd(domains: Vec<usize>) -> MddManager {
    let mut mdd = MddManager::new(domains);
    mdd.set_compile_threads(CompileOptions::default().compile_threads());
    mdd
}

/// G construction and ordering of one configuration.
fn g_and_order(
    rec: &mut Recorder,
    tree: &Netlist,
    m: usize,
    spec_label: &str,
) -> (GeneralizedFaultTree, ComputedOrdering) {
    let g = rec.span("core.g_build", || GeneralizedFaultTree::build(tree, m).expect("valid tree"));
    let ordering = rec.span("ordering.compute", || {
        compute_ordering(g.netlist(), g.groups(), &spec(spec_label)).expect("valid spec")
    });
    (g, ordering)
}

/// Replays one cold compile chunk (one spec, both cold `ε`) as
/// `CompiledModel::compile` followed by `Pipeline::sweep`'s evaluations.
fn replay_chunk(
    rec: &mut Recorder,
    counters: &mut Counters,
    job: &Job,
    spec_label: &str,
    tree: &Netlist,
    comps: &ComponentProbabilities,
) -> Vec<Point> {
    let truncations: Vec<Truncation> =
        COLD_EPSILONS.iter().map(|&e| truncation(rec, job.lambda, BASE_ALPHA, e)).collect();
    let m = truncations.iter().map(Truncation::truncation).max().expect("two points");
    let (g, mut ordering) = g_and_order(rec, tree, m, spec_label);

    let (mut bdd, mut build) = rec.span("bdd.build", || {
        let mut bdd = new_bdd(g.netlist().num_inputs());
        let build = bdd.build_netlist(g.netlist(), &ordering.var_level);
        (bdd, build)
    });
    counters.bdd_nodes_allocated += bdd.allocated_nodes() as u64;
    counters.absorb_cache(&DdStats::default(), &bdd.stats());
    if let Some(max_growth) = spec(spec_label).sift_max_growth() {
        let before = bdd.stats();
        rec.span("bdd.sift", || {
            let block_sizes: Vec<usize> =
                ordering.mv_order.iter().map(|&mv| g.groups().group(mv).len()).collect();
            let config =
                SiftConfig { max_growth: f64::from(max_growth) / 100.0, ..SiftConfig::default() };
            let mut roots = [build.root];
            let outcome = bdd.reorder_sift_grouped(&mut roots, &block_sizes, &config);
            build.root = roots[0];
            let mut new_of_old = vec![0usize; outcome.level_origin.len()];
            for (new, &old) in outcome.level_origin.iter().enumerate() {
                new_of_old[old] = new;
            }
            for level in ordering.var_level.iter_mut() {
                *level = new_of_old[*level];
            }
            ordering.mv_order =
                outcome.block_origin.iter().map(|&b| ordering.mv_order[b]).collect();
        });
        counters.absorb_cache(&before, &bdd.stats());
    }
    counters.bdd_peak_nodes = counters.bdd_peak_nodes.max(bdd.peak_nodes() as u64);

    let (mut mdd, root) = rec.span("mdd.convert", || {
        let layout = g.layout(&ordering);
        let mut mdd = new_mdd(g.mdd_domains(&ordering));
        let root = mdd.from_coded_bdd(&bdd, build.root, &layout);
        (mdd, root)
    });
    counters.romdd_nodes_converted += mdd.node_count(root) as u64;
    rec.span("bdd.free", || drop(bdd));
    truncations
        .iter()
        .map(|t| evaluate(rec, counters, &mut mdd, root, &ordering.mv_order, m, t, comps))
        .collect()
}

/// Compares the replica's points with the program's.
fn self_check(config: &str, replica: &[Point], program: &[Point]) -> Result<(), String> {
    if replica.len() != program.len() {
        return Err(format!(
            "{config}: replica has {} points, program {}",
            replica.len(),
            program.len()
        ));
    }
    for (r, p) in replica.iter().zip(program) {
        if r != p {
            return Err(format!("{config}: replica {r:?} != program {p:?}"));
        }
    }
    Ok(())
}

fn trace_sweep_cold(
    rec: &mut Recorder,
    counters: &mut Counters,
    seed: u64,
    seconds: f64,
) -> (usize, Vec<String>) {
    let table = Table::committed();
    let threads = workers();
    let mut rng = Rng::new(seed);
    let mut failures = Vec::new();
    let mut ops = 0;
    for _ in 0..trace_passes("sweep_cold", seconds) {
        for job in cold_pass(&mut rng) {
            let system = system_spec(job.system);
            let outcome = job_matrix(&job, system.clone()).run(threads);
            let summary = &outcome.summary;
            counters.exec_busy_s += summary.busy_time.as_secs_f64();
            counters.exec_capacity_s += summary.wall_time.as_secs_f64() * threads as f64;
            let reports: Vec<_> = outcome
                .points
                .iter()
                .map(|p| p.result.as_ref().map_err(|e| e.to_string()))
                .collect();
            let mut check = check_job(&table, &job, &reports);
            let program: Vec<Point> = reports
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|r| Point { yield_lower_bound: r.yield_lower_bound, romdd_size: r.romdd_size })
                .collect();

            rec.op = ops;
            let op = rec.begin("op");
            let mut replica = Vec::new();
            for spec_label in job.specs {
                replica.extend(replay_chunk(
                    rec,
                    counters,
                    &job,
                    spec_label,
                    &system.fault_tree,
                    &system.components,
                ));
            }
            rec.end(op);
            if check.is_ok() {
                check = self_check(job.kind, &replica, &program);
            }
            if let Err(e) = check {
                failures.push(e);
            }
            ops += 1;
        }
    }
    (ops, failures)
}

/// A resident diagram of the replica (serve_warm).
struct ResidentDiagram {
    mdd: MddManager,
    root: MddId,
    mv_order: Vec<usize>,
    truncation: usize,
}

/// A retained base ROBDD manager of the replica (whatif_structural).
struct RetainedBase {
    bdd: BddManager,
    _root: socy_dd::Ref,
    ordering: ComputedOrdering,
    truncation: usize,
}

fn program_points(value: &Value) -> Vec<Point> {
    value
        .get("reports")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|r| Point {
            yield_lower_bound: r
                .get("yield_lower_bound")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
            romdd_size: r.get("romdd_size").and_then(Value::as_u64).unwrap_or(0) as usize,
        })
        .collect()
}

/// Rebuilds one structural variant inside a retained manager, as
/// `CompiledModel::evaluate_structural_delta` does.
fn replay_structural(
    rec: &mut Recorder,
    counters: &mut Counters,
    base: &mut RetainedBase,
    variant: &Netlist,
    comps: &ComponentProbabilities,
    truncation: &Truncation,
) -> Point {
    let m = base.truncation;
    let g = rec.span("core.g_build", || GeneralizedFaultTree::build(variant, m).expect("valid"));
    let ordering = rec.span("ordering.compute", || {
        compute_ordering(g.netlist(), g.groups(), &spec("w/ml")).expect("valid spec")
    });
    assert!(
        ordering.var_level == base.ordering.var_level
            && ordering.mv_order == base.ordering.mv_order,
        "catalogue variants keep the base ordering"
    );
    let before = base.bdd.stats();
    let allocated = base.bdd.allocated_nodes();
    let bdd = &mut base.bdd;
    let build = rec.span("bdd.rebuild", || bdd.build_netlist(g.netlist(), &ordering.var_level));
    counters.rebuild_nodes_allocated += (base.bdd.allocated_nodes() - allocated) as u64;
    counters.absorb_cache(&before, &base.bdd.stats());
    let bdd = &base.bdd;
    let (mut mdd, root) = rec.span("mdd.convert", || {
        let layout = g.layout(&ordering);
        let mut mdd = new_mdd(g.mdd_domains(&ordering));
        let root = mdd.from_coded_bdd(bdd, build.root, &layout);
        (mdd, root)
    });
    counters.romdd_nodes_converted += mdd.node_count(root) as u64;
    evaluate(rec, counters, &mut mdd, root, &ordering.mv_order, m, truncation, comps)
}

/// Compiles a what-if base with its ROBDD manager retained (setup, not
/// traced).
fn retain_base(system: &str, m: usize) -> RetainedBase {
    let tree = benchmark(system).fault_tree;
    let g = GeneralizedFaultTree::build(&tree, m).expect("valid");
    let ordering = compute_ordering(g.netlist(), g.groups(), &spec("w/ml")).expect("valid spec");
    let mut bdd = new_bdd(g.netlist().num_inputs());
    let build = bdd.build_netlist(g.netlist(), &ordering.var_level);
    let root = bdd.protect(build.root);
    RetainedBase { bdd, _root: root, ordering, truncation: m }
}

fn trace_serve(
    rec: &mut Recorder,
    counters: &mut Counters,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<(usize, Vec<String>), String> {
    let table = Table::committed();
    let mut failures = Vec::new();
    let mut service = YieldService::new(ServiceConfig::default());
    let mut daemon = Daemon::spawn(&serve_binary()).map_err(|e| format!("serve daemon: {e}"))?;
    let setup = setup_requests(workload);
    for request in &setup {
        let response = service.handle_line(&request.line);
        if let Err(e) = check_value(&table, request, &response.to_json(), &SETUP_TAGS) {
            failures.push(format!("set-up: {e}"));
        }
        daemon.call(&request.line).map_err(|e| format!("serve daemon: {e}"))?;
    }

    // The replica's state: resident diagrams (serve_warm) or retained
    // base managers (whatif_structural), built like the program's.
    let mut residents: HashMap<&str, ResidentDiagram> = HashMap::new();
    let mut bases: HashMap<&str, RetainedBase> = HashMap::new();
    if workload == "serve_warm" {
        for r in WARM_RESIDENTS {
            let system = benchmark(r.system);
            let lethal = NegativeBinomial::new(r.lambda, BASE_ALPHA).expect("valid");
            let options = AnalysisOptions {
                epsilon: RESIDENT_EPSILON,
                spec: spec(r.spec),
                ..AnalysisOptions::default()
            };
            let analysis = analyze(&system.fault_tree, &components(&system), &lethal, &options)
                .expect("compiles");
            residents.insert(
                r.system,
                ResidentDiagram {
                    mdd: analysis.mdd,
                    root: analysis.romdd_root,
                    mv_order: analysis.mv_order,
                    truncation: analysis.report.truncation,
                },
            );
        }
    } else {
        // The set-up family is replayed untraced, into throw-away
        // recorders, so the retained managers match the daemon's.
        let mut scratch_rec = Recorder::new();
        let mut scratch = Counters::default();
        for (b, family) in WHATIF_BASES.iter().zip(setup.iter().skip(WHATIF_BASES.len())) {
            let t = truncation(&mut scratch_rec, b.lambda, BASE_ALPHA, RESIDENT_EPSILON);
            let mut base = retain_base(b.system, t.truncation());
            let comps = components(&benchmark(b.system));
            for v in &family.variants {
                let variant =
                    crate::catalogue::SystemRef { base: b.system, variant: Some(v.clone()) };
                let (tree, _) = variant.materialize();
                replay_structural(&mut scratch_rec, &mut scratch, &mut base, &tree, &comps, &t);
            }
            bases.insert(b.system, base);
        }
    }

    let lru_before = service.cache().stats();
    let mut rng = Rng::new(seed);
    let mut ops = 0;
    for _ in 0..trace_passes(workload, seconds) {
        for request in serve_pass(workload, &mut rng, ops) {
            // The program's answer: over the pipe for the client latency,
            // in-process for the handler's own time.
            let (_, client_s) =
                daemon.call(&request.line).map_err(|e| format!("serve daemon: {e}"))?;
            let handle_start = Instant::now();
            let response = service.handle_line(&request.line);
            let handle_s = handle_start.elapsed().as_secs_f64();
            counters.handle_s += handle_s;
            counters.transport_s += client_s - handle_s;
            let value = response.to_json();
            let mut check = check_value(&table, &request, &value, &WARM_TAGS).map(|_| ());
            let program = program_points(&value);

            rec.op = ops;
            let op = rec.begin("op");
            let replica = replay_request(rec, counters, &request, &mut residents, &mut bases);
            let bytes = rec.span("serve.serialize", || response.to_json_line().len());
            rec.end(op);
            counters.response_bytes += bytes as u64;
            if check.is_ok() {
                check = self_check(&request.config, &replica, &program);
            }
            if let Err(e) = check {
                failures.push(e);
            }
            ops += 1;
        }
    }
    let lru = service.cache().stats();
    counters.lru_hits += lru.hits - lru_before.hits;
    counters.lru_lookups += (lru.hits + lru.misses) - (lru_before.hits + lru_before.misses);
    counters.lru_live_nodes = service.cache().live_nodes() as u64;
    counters.retained_nodes = bases.values().map(|b| b.bdd.allocated_nodes() as u64).sum();
    daemon.close();
    Ok((ops, failures))
}

/// Replays one serve request: parse, resolve, then the evaluation path
/// `YieldService::evaluate_hit` takes on a resident pipeline.
fn replay_request(
    rec: &mut Recorder,
    counters: &mut Counters,
    request: &Request,
    residents: &mut HashMap<&str, ResidentDiagram>,
    bases: &mut HashMap<&str, RetainedBase>,
) -> Vec<Point> {
    let wire = rec.span("serve.parse", || {
        let value = serde_json::from_str(&request.line).expect("generated requests parse");
        WireRequest::from_json(&value).expect("generated requests are valid")
    });
    let body = match wire {
        WireRequest::Analyze(b) | WireRequest::Sweep(b) | WireRequest::AnalyzeDelta(b) => b,
        _ => unreachable!("the streams hold evaluation requests only"),
    };
    let structural = request.kind == Kind::StructuralFamily;
    let (system, _dist, mut deltas) = rec.span("serve.resolve", || {
        let (system, _identity) = resolve_system(&body.system).expect("catalogue systems resolve");
        let dist =
            resolve_distribution(&body.distribution).expect("catalogue distributions resolve");
        let deltas: Vec<SystemDelta> = if structural {
            Vec::new()
        } else {
            body.deltas
                .iter()
                .flatten()
                .map(|v| resolve_delta(v, &system.fault_tree).expect("catalogue deltas resolve"))
                .collect()
        };
        (system, dist, deltas)
    });
    if structural {
        // resolve_delta's netlist parse, timed as the faulttree layer.
        for entry in body.deltas.iter().flatten() {
            let name = entry.get("name").and_then(Value::as_str).expect("named");
            let text = entry.get("netlist").and_then(Value::as_str).expect("netlist delta");
            let tree = rec.span("faulttree.parse", || Netlist::from_text(text).expect("valid"));
            deltas.push(SystemDelta::named(name).with_fault_tree(tree));
        }
    }

    let mut points = Vec::new();
    for &epsilon in &request.epsilons {
        let t = truncation(rec, request.lambda, request.alpha, epsilon);
        if structural {
            let base = bases.get_mut(request.resident.system).expect("retained base");
            for delta in &deltas {
                let (variant, comps) = rec.span("core.delta_materialize", || {
                    delta.materialize(&system.fault_tree, &system.components).expect("valid delta")
                });
                points.push(replay_structural(rec, counters, base, &variant, &comps, &t));
            }
            continue;
        }
        let resident = residents.get_mut(request.resident.system).expect("resident diagram");
        if deltas.is_empty() {
            points.push(evaluate(
                rec,
                counters,
                &mut resident.mdd,
                resident.root,
                &resident.mv_order,
                resident.truncation,
                &t,
                &system.components,
            ));
        }
        for delta in &deltas {
            let comps = rec.span("core.delta_materialize", || {
                delta.materialize_components(&system.components).expect("valid delta")
            });
            points.push(evaluate(
                rec,
                counters,
                &mut resident.mdd,
                resident.root,
                &resident.mv_order,
                resident.truncation,
                &t,
                &comps,
            ));
        }
    }
    points
}

/// Runs the traced replay of `workload` and gathers every per-layer
/// metric.
///
/// # Errors
///
/// Returns daemon spawn and pipe errors.
pub fn run(workload: &str, seed: u64, seconds: f64, provenance: &str) -> Result<Traced, String> {
    let per_span = span_cost();
    let mut rec = Recorder::new();
    let mut counters = Counters::default();
    let (ops, failures) = if workload == "sweep_cold" {
        trace_sweep_cold(&mut rec, &mut counters, seed, seconds)
    } else {
        trace_serve(&mut rec, &mut counters, workload, seed, seconds)?
    };
    rec.write(&format!("perfbench/out/{workload}-seed{seed}-spans.tsv"), provenance);
    for failure in &failures {
        eprintln!("perfbench: traced op failed: {failure}");
    }

    let (self_s, op_s) = rec.self_times();
    let layer = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let share = |s: f64| if op_s > 0.0 { s / op_s } else { 0.0 };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = &counters;
    let mut metrics = Vec::new();
    let mut timed = |name: &'static str, span: &str| {
        let s = layer(span);
        metrics.push(Metric::new(&format!("{name}_s"), s, "s"));
        metrics.push(Metric::new(&format!("{name}_share"), share(s), "share"));
        s
    };
    let build = timed("bdd.build", "bdd.build");
    timed("bdd.sift", "bdd.sift");
    timed("bdd.free", "bdd.free");
    timed("bdd.rebuild", "bdd.rebuild");
    let convert = timed("mdd.convert", "mdd.convert");
    let eval = timed("mdd.eval", "mdd.eval");
    timed("core.g_build", "core.g_build");
    timed("ordering.compute", "ordering.compute");
    timed("defect.truncation", "defect.truncation");
    timed("core.delta_materialize", "core.delta_materialize");
    timed("faulttree.parse", "faulttree.parse");
    timed("serve.parse", "serve.parse");
    timed("serve.resolve", "serve.resolve");
    timed("serve.serialize", "serve.serialize");
    metrics.extend([
        Metric::new("bdd.ns_per_node", ratio(build * 1e9, c.bdd_nodes_allocated as f64), "ns"),
        Metric::new("bdd.nodes_allocated", c.bdd_nodes_allocated as f64, "count"),
        Metric::new("bdd.peak_nodes", c.bdd_peak_nodes as f64, "count"),
        Metric::new(
            "bdd.cache_hit_share",
            ratio(c.bdd_cache_hits as f64, c.bdd_cache_lookups as f64),
            "share",
        ),
        Metric::new(
            "bdd.cache_evict_share",
            ratio(c.bdd_cache_evictions as f64, c.bdd_cache_insertions as f64),
            "share",
        ),
        Metric::new("bdd.gc_runs", c.bdd_gc_runs as f64, "count"),
        Metric::new("bdd.rebuild_nodes_allocated", c.rebuild_nodes_allocated as f64, "count"),
        Metric::new("bdd.retained_nodes", c.retained_nodes as f64, "count"),
        Metric::new(
            "mdd.convert_ns_per_node",
            ratio(convert * 1e9, c.romdd_nodes_converted as f64),
            "ns",
        ),
        Metric::new("mdd.romdd_nodes", c.romdd_nodes_converted as f64, "count"),
        Metric::new(
            "mdd.eval_ns_per_node",
            ratio(eval * 1e9, c.romdd_nodes_evaluated as f64),
            "ns",
        ),
        Metric::new("exec.busy_share", ratio(c.exec_busy_s, c.exec_capacity_s), "share"),
        Metric::new("exec.tail_idle_s", c.exec_capacity_s - c.exec_busy_s, "s"),
        Metric::new("exec.lru_hit_share", ratio(c.lru_hits as f64, c.lru_lookups as f64), "share"),
        Metric::new("exec.lru_live_nodes", c.lru_live_nodes as f64, "count"),
        Metric::new("serve.handle_s", c.handle_s, "s"),
        Metric::new("serve.transport_s", c.transport_s, "s"),
        Metric::new("serve.response_bytes", c.response_bytes as f64, "bytes"),
        Metric::new("trace.op_s", op_s, "s"),
        Metric::new("trace.ops", ops as f64, "count"),
        Metric::new("trace.unattributed_share", share(layer("op")), "share"),
        Metric::new("trace.overhead_share", share(per_span * rec.spans.len() as f64), "share"),
    ]);
    Ok(Traced { correct: failures.is_empty(), attempted: ops, failed: failures.len(), metrics })
}
