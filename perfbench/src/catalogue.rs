//! The fixed catalogue every workload draws from, and the seeded op
//! streams built over it.
//!
//! The catalogue is finite on purpose: the expected-answer table
//! (`expected.tsv`) holds one row for every answer any seed can ask for,
//! so the seed only chooses *which* catalogue entries a run uses and in
//! which order. Each stream pass has a fixed composition (so the p50 and
//! p90 ranks land in the same job type's block on every seed); the seed
//! shuffles the pass and draws the free parameters of every request.

use serde::Value;
use soc_yield_core::{swap_subtree, GeneralizedFaultTree};
use socy_benchmarks::{paper_benchmarks, BenchmarkSystem};
use socy_defect::ComponentProbabilities;
use socy_faulttree::{GateKind, Netlist, NodeId};
use socy_ordering::{compute_ordering, GroupOrdering, MvOrdering, OrderingSpec};

/// Clustering parameter `α` of every cold job and every resident compile.
pub const BASE_ALPHA: f64 = 4.0;
/// The `ε` values of a cold job (one point each per ordering spec).
pub const COLD_EPSILONS: [f64; 2] = [1e-2, 1e-3];
/// `ε` of the resident compiles; warm draws never ask for a smaller one.
pub const RESIDENT_EPSILON: f64 = 1e-3;
/// Sifting growth bound of the sifted job type (as in `bench_matrix`).
pub const SIFT_GROWTH: u32 = 120;
/// Variants of a structural what-if family.
pub const FAMILY_SIZE: usize = 3;

/// A small deterministic generator (SplitMix64): the same seed gives the
/// same stream on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One element of `items`, uniformly.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The paper benchmark called `name`.
pub fn benchmark(name: &str) -> BenchmarkSystem {
    paper_benchmarks().into_iter().find(|b| b.name == name).expect("catalogue names exist")
}

/// Component probabilities of a benchmark at the paper's `P_L = 1`.
pub fn components(system: &BenchmarkSystem) -> ComponentProbabilities {
    system.component_probabilities(1.0).expect("benchmark weights are valid")
}

/// The static ordering specs of a cold job, by label.
pub fn spec(label: &str) -> OrderingSpec {
    match label {
        "w/ml" => OrderingSpec::paper_default(),
        "wv/ml" => OrderingSpec::new(MvOrdering::Wv, GroupOrdering::MsbFirst).expect("valid pair"),
        "w/ml+sift" => OrderingSpec::paper_default().with_sifting(SIFT_GROWTH),
        other => panic!("spec `{other}` is not in the catalogue"),
    }
}

/// A what-if change of a base system.
#[derive(Debug, Clone, PartialEq)]
pub enum Variant {
    /// Component `i`'s lethal-hit probability halved.
    Half(usize),
    /// Component `i` made immune (probability 0).
    Immune(usize),
    /// Gate `NodeId` of the base fault tree flipped between AND and OR
    /// (a redundant module made simplex, or a simplex pair made
    /// redundant), applied with `swap_subtree`.
    Swap(usize),
}

impl Variant {
    /// Delta name on the wire and in answer keys.
    pub fn name(&self) -> String {
        match self {
            Variant::Half(i) => format!("x{i}-half"),
            Variant::Immune(i) => format!("x{i}-immune"),
            Variant::Swap(g) => format!("swap-g{g}"),
        }
    }
}

/// The swap-only variants offered to every `serve_warm` resident: four
/// halved and four immune components, as in `bench_matrix`'s what-if block.
pub fn swap_only_variants() -> Vec<Variant> {
    (0..4).map(Variant::Half).chain((4..8).map(Variant::Immune)).collect()
}

/// A system of the catalogue: a paper benchmark, optionally changed by a
/// variant.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRef {
    /// Paper benchmark name.
    pub base: &'static str,
    /// The change, if any.
    pub variant: Option<Variant>,
}

impl SystemRef {
    /// The unchanged benchmark.
    pub fn base(base: &'static str) -> Self {
        Self { base, variant: None }
    }

    /// Key form: `MS2` or `MS2~x3-half`.
    pub fn key(&self) -> String {
        match &self.variant {
            None => self.base.to_string(),
            Some(v) => format!("{}~{}", self.base, v.name()),
        }
    }

    /// The standalone fault tree and component model of this system.
    pub fn materialize(&self) -> (Netlist, ComponentProbabilities) {
        let system = benchmark(self.base);
        let comps = components(&system);
        match &self.variant {
            None => (system.fault_tree, comps),
            Some(Variant::Half(i)) => (system.fault_tree, override_component(&comps, *i, 0.5)),
            Some(Variant::Immune(i)) => (system.fault_tree, override_component(&comps, *i, 0.0)),
            Some(Variant::Swap(g)) => (flip_gate(&system.fault_tree, *g), comps),
        }
    }
}

fn override_component(
    comps: &ComponentProbabilities,
    i: usize,
    factor: f64,
) -> ComponentProbabilities {
    let mut raw = comps.raw_slice().to_vec();
    raw[i] *= factor;
    ComponentProbabilities::new(raw).expect("lowering one probability keeps the model valid")
}

/// The variant of `base` whose gate `gate` flips between AND and OR,
/// built with [`swap_subtree`] like a user's module swap.
pub fn flip_gate(base: &Netlist, gate: usize) -> Netlist {
    let target = base.iter().nth(gate).map(|(id, _)| id).expect("gate index in range");
    let fanin: Vec<NodeId> = base.gate(target).fanin.clone();
    let mut replacement = base.clone();
    let flipped = match base.gate(target).kind {
        GateKind::And => replacement.or(fanin),
        GateKind::Or => replacement.and(fanin),
        other => panic!("gate {gate} is {other:?}, not AND/OR"),
    };
    replacement.set_output(flipped);
    swap_subtree(base, target, &replacement).expect("flipping a gate is a valid swap")
}

/// The structural variants of a what-if base: AND/OR gates (≥ 2 fan-ins,
/// not the output) whose flip keeps the base's computed `w/ml` ordering,
/// so the daemon can rebuild them inside the retained base manager. Up
/// to `limit`, taken evenly over the gate list.
pub fn structural_variants(base: &'static str, limit: usize) -> Vec<Variant> {
    let system = benchmark(base);
    let tree = &system.fault_tree;
    let output = tree.output().expect("benchmarks have an output");
    // Every what-if family is evaluated at λ'=1, α=4, ε=1e-3, i.e. M = 6.
    let order = |f: &Netlist| {
        let g = GeneralizedFaultTree::build(f, 6).expect("valid tree");
        let o = compute_ordering(g.netlist(), g.groups(), &OrderingSpec::paper_default())
            .expect("valid spec");
        (o.mv_order, o.var_level)
    };
    let base_order = order(tree);
    let candidates: Vec<usize> = tree
        .iter()
        .enumerate()
        .filter(|(_, (id, gate))| {
            *id != output
                && matches!(gate.kind, GateKind::And | GateKind::Or)
                && gate.fanin.len() >= 2
        })
        .map(|(i, _)| i)
        .filter(|&i| order(&flip_gate(tree, i)) == base_order)
        .collect();
    let step = (candidates.len() / limit.max(1)).max(1);
    candidates.into_iter().step_by(step).take(limit).map(Variant::Swap).collect()
}

/// The answer a request expects for one evaluated point: the keys of the
/// yield row and of the ROMDD-size row in the expected-answer table.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// System evaluated.
    pub system: SystemRef,
    /// Mean lethal defects `λ'` of the negative-binomial distribution.
    pub lambda: f64,
    /// Clustering `α`.
    pub alpha: f64,
    /// Error requirement `ε`.
    pub epsilon: f64,
    /// Ordering spec label the diagram is compiled under.
    pub spec: &'static str,
    /// `ε` the diagram is compiled at: the resident's for warm requests,
    /// the chunk's smallest `ε` for cold jobs.
    pub compiled_epsilon: f64,
    /// `λ'` the diagram is compiled at.
    pub compiled_lambda: f64,
}

impl Expect {
    /// Key of the yield/M/error row.
    pub fn answer_key(&self) -> String {
        answer_key(&self.system, self.lambda, self.alpha, self.epsilon)
    }
}

/// Key of a yield/M/error row.
pub fn answer_key(system: &SystemRef, lambda: f64, alpha: f64, epsilon: f64) -> String {
    format!("{}|nb({lambda},{alpha})|eps={epsilon:e}", system.key())
}

/// Key of a ROMDD-size row.
pub fn size_key(system: &SystemRef, spec: &str, truncation: usize) -> String {
    format!("{}|{spec}|M={truncation}", system.key())
}

/// One cold design-space job: one system at one `λ'` × its two specs ×
/// both cold `ε` values, run through the sweep engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Job-type name, e.g. `MS4/λ1`.
    pub kind: &'static str,
    /// The benchmark.
    pub system: &'static str,
    /// Mean lethal defects `λ'`.
    pub lambda: f64,
    /// Ordering spec labels (one compilation chunk each).
    pub specs: &'static [&'static str],
}

impl Job {
    /// The points of the job, in the sweep engine's matrix order (spec
    /// outer, `ε` inner).
    pub fn expects(&self) -> Vec<Expect> {
        let mut out = Vec::new();
        for &spec in self.specs {
            for &epsilon in &COLD_EPSILONS {
                out.push(Expect {
                    system: SystemRef::base(self.system),
                    lambda: self.lambda,
                    alpha: BASE_ALPHA,
                    epsilon,
                    spec,
                    compiled_epsilon: RESIDENT_EPSILON,
                    compiled_lambda: self.lambda,
                });
            }
        }
        out
    }
}

const STATIC: &[&str] = &["w/ml", "wv/ml"];
const SIFTED: &[&str] = &["w/ml+sift"];

/// The cold job types with their count per pass. Blocks 1–3 of the
/// pinned `bench_matrix` (static λ'=1, dense λ'=2, sifted ESEN4x1); the
/// counts put the p50 rank inside the ESEN4x2 block and the p90 rank
/// inside the ESEN4x4 block (see the README).
pub fn cold_job_types() -> Vec<(Job, usize)> {
    let job = |kind, system, lambda, specs| Job { kind, system, lambda, specs };
    vec![
        (job("ESEN4x1/λ1", "ESEN4x1", 1.0, STATIC), 1),
        (job("MS2/λ1", "MS2", 1.0, STATIC), 1),
        (job("ESEN4x1/λ1/sift", "ESEN4x1", 1.0, SIFTED), 1),
        (job("ESEN4x1/λ2", "ESEN4x1", 2.0, STATIC), 1),
        (job("MS2/λ2", "MS2", 2.0, STATIC), 1),
        (job("ESEN4x2/λ1", "ESEN4x2", 1.0, STATIC), 7),
        (job("MS4/λ1", "MS4", 1.0, STATIC), 2),
        (job("ESEN4x4/λ1", "ESEN4x4", 1.0, STATIC), 4),
    ]
}

/// A resident pipeline of the serve workloads: compiled once in setup
/// at `λ' = lambda`, `α = 4`, `ε = 1e-3`, then only evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resident {
    /// The benchmark.
    pub system: &'static str,
    /// Ordering spec label.
    pub spec: &'static str,
    /// `λ'` of the resident compile (the largest any draw may ask for).
    pub lambda: f64,
}

/// The `serve_warm` resident set. Their live ROMDD nodes (7 534 + 4 377 +
/// 22 760) fit the daemon's default 65 536-node cache budget.
pub const WARM_RESIDENTS: [Resident; 3] = [
    Resident { system: "MS2", spec: "w/ml", lambda: 2.0 },
    Resident { system: "ESEN4x1", spec: "w/ml", lambda: 2.0 },
    Resident { system: "MS4", spec: "w/ml", lambda: 1.0 },
];

/// The `whatif_structural` bases (27 233 + 1 461 live nodes resident).
pub const WHATIF_BASES: [Resident; 2] = [
    Resident { system: "ESEN4x1", spec: "w/ml", lambda: 1.0 },
    Resident { system: "ESEN4x2", spec: "w/ml", lambda: 1.0 },
];

/// Structural variants offered per what-if base.
pub const VARIANTS_PER_BASE: usize = 6;

/// The `λ'` fractions of the resident `λ'` a warm draw may use, and the
/// `α` and `ε` grids. Every combination stays within the resident's
/// compiled truncation (`λ'` no larger, `α ≥ 4`, `ε ≥ 1e-3`).
pub const WARM_LAMBDA_FRACTIONS: [f64; 3] = [0.5, 0.75, 1.0];
/// Warm `α` grid.
pub const WARM_ALPHAS: [f64; 2] = [4.0, 8.0];
/// Warm `ε` grid of single `analyze` draws.
pub const WARM_EPSILONS: [f64; 2] = [1e-2, 1e-3];
/// The `ε` list of every warm `sweep` request.
pub const WARM_SWEEP_EPSILONS: [f64; 3] = [1e-2, 3e-3, 1e-3];

/// Request types of the serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `analyze` on a resident.
    Analyze,
    /// One `sweep` over [`WARM_SWEEP_EPSILONS`].
    Sweep,
    /// One swap-only `analyze_delta` family of four variants.
    SwapFamily,
    /// One structural `analyze_delta` family of [`FAMILY_SIZE`] variants.
    StructuralFamily,
}

impl Kind {
    fn wire(self) -> &'static str {
        match self {
            Kind::Analyze => "analyze",
            Kind::Sweep => "sweep",
            Kind::SwapFamily | Kind::StructuralFamily => "analyze_delta",
        }
    }

    fn label(self) -> &'static str {
        match self {
            Kind::Analyze => "analyze",
            Kind::Sweep => "sweep",
            Kind::SwapFamily => "swapΔ",
            Kind::StructuralFamily => "structΔ",
        }
    }
}

/// One request of a serve workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Configuration key (request type and resident) for the op log.
    pub config: String,
    /// Request type.
    pub kind: Kind,
    /// The resident it must hit.
    pub resident: Resident,
    /// Drawn `λ'`.
    pub lambda: f64,
    /// Drawn `α`.
    pub alpha: f64,
    /// `ε` values, one report per value (per variant for families).
    pub epsilons: Vec<f64>,
    /// Variants of a family (empty otherwise).
    pub variants: Vec<Variant>,
    /// The wire line.
    pub line: String,
}

impl Request {
    /// Builds a request and its wire line.
    pub fn new(
        id: usize,
        kind: Kind,
        resident: Resident,
        lambda: f64,
        alpha: f64,
        epsilons: Vec<f64>,
        variants: Vec<Variant>,
    ) -> Self {
        let mut fields = vec![
            ("type".to_string(), Value::String(kind.wire().to_string())),
            ("id".to_string(), Value::String(format!("op{id}"))),
            (
                "system".to_string(),
                Value::Object(vec![(
                    "benchmark".to_string(),
                    Value::String(resident.system.to_string()),
                )]),
            ),
            (
                "distribution".to_string(),
                Value::Object(vec![
                    ("kind".to_string(), Value::String("negative_binomial".to_string())),
                    ("lambda".to_string(), Value::Float(lambda)),
                    ("alpha".to_string(), Value::Float(alpha)),
                ]),
            ),
            ("ordering".to_string(), Value::String(resident.spec.to_string())),
        ];
        if kind == Kind::Sweep {
            let list = epsilons.iter().map(|&e| Value::Float(e)).collect();
            fields.push(("epsilons".to_string(), Value::Array(list)));
        } else {
            fields.push(("epsilon".to_string(), Value::Float(epsilons[0])));
        }
        if !variants.is_empty() {
            let base = benchmark(resident.system);
            let comps = components(&base);
            let deltas =
                variants.iter().map(|v| delta_value(v, &base.fault_tree, &comps)).collect();
            fields.push(("deltas".to_string(), Value::Array(deltas)));
        }
        let line = serde_json::to_string(&Value::Object(fields)).expect("values serialize");
        let config = format!("{}:{}:{}", kind.label(), resident.system, resident.spec);
        Self { config, kind, resident, lambda, alpha, epsilons, variants, line }
    }

    /// The points the response must carry, in response order.
    pub fn expects(&self) -> Vec<Expect> {
        let systems: Vec<SystemRef> = if self.variants.is_empty() {
            vec![SystemRef::base(self.resident.system)]
        } else {
            self.variants
                .iter()
                .map(|v| SystemRef { base: self.resident.system, variant: Some(v.clone()) })
                .collect()
        };
        let mut out = Vec::new();
        for &epsilon in &self.epsilons {
            for system in &systems {
                out.push(Expect {
                    system: system.clone(),
                    lambda: self.lambda,
                    alpha: self.alpha,
                    epsilon,
                    spec: self.resident.spec,
                    compiled_epsilon: RESIDENT_EPSILON,
                    compiled_lambda: self.resident.lambda,
                });
            }
        }
        out
    }
}

/// The wire form of one delta entry.
fn delta_value(variant: &Variant, base: &Netlist, comps: &ComponentProbabilities) -> Value {
    let name = ("name".to_string(), Value::String(variant.name()));
    let overrides = |i: usize, p: f64| {
        let entry = Value::Object(vec![
            ("component".to_string(), Value::Int(i as i64)),
            ("probability".to_string(), Value::Float(p)),
        ]);
        Value::Object(vec![name.clone(), ("overrides".to_string(), Value::Array(vec![entry]))])
    };
    match variant {
        Variant::Half(i) => overrides(*i, comps.raw(*i) * 0.5),
        Variant::Immune(i) => overrides(*i, 0.0),
        Variant::Swap(g) => {
            let text = flip_gate(base, *g).to_text().expect("variants have an output");
            Value::Object(vec![name, ("netlist".to_string(), Value::String(text))])
        }
    }
}

/// The setup requests of a serve workload: one `analyze` per resident at
/// its compile point (a cold compile), then — for the what-if bases —
/// one structural family each, so the base retains its ROBDD manager and
/// later families answer `delta`.
pub fn setup_requests(workload: &str) -> Vec<Request> {
    let mut out = Vec::new();
    let residents: &[Resident] =
        if workload == "serve_warm" { &WARM_RESIDENTS } else { &WHATIF_BASES };
    for &r in residents {
        let id = out.len();
        out.push(Request::new(
            id,
            Kind::Analyze,
            r,
            r.lambda,
            BASE_ALPHA,
            vec![RESIDENT_EPSILON],
            vec![],
        ));
    }
    if workload == "whatif_structural" {
        for &r in residents {
            let variants: Vec<Variant> = structural_variants(r.system, VARIANTS_PER_BASE)
                .into_iter()
                .take(FAMILY_SIZE)
                .collect();
            let id = out.len();
            out.push(Request::new(
                id,
                Kind::StructuralFamily,
                r,
                r.lambda,
                BASE_ALPHA,
                vec![RESIDENT_EPSILON],
                variants,
            ));
        }
    }
    out
}

/// Per-pass composition of `serve_warm`: (request type, resident index,
/// count). Sorted by latency the pass falls into three blocks: cheap
/// `analyze` hits on MS2 and ESEN4x1 (64 % of the ranks, so the p50 sits
/// well inside them), `sweep`s and swap-only families on the same two
/// residents (20 %), and MS4 `sweep`s and families (16 %, holding the p90
/// and p99 ranks).
pub const WARM_MIX: [(Kind, usize, usize); 8] = [
    (Kind::Analyze, 0, 32),
    (Kind::Analyze, 1, 32),
    (Kind::Sweep, 0, 5),
    (Kind::Sweep, 1, 5),
    (Kind::SwapFamily, 0, 5),
    (Kind::SwapFamily, 1, 5),
    (Kind::Sweep, 2, 8),
    (Kind::SwapFamily, 2, 8),
];

/// Per-pass composition of `whatif_structural`: (base index, families).
/// ESEN4x1 families (a few ms) hold two thirds of the ranks and the p50;
/// ESEN4x2 families (about 80 ms) hold the p90.
pub const WHATIF_MIX: [(usize, usize); 2] = [(0, 12), (1, 6)];

/// One pass of a serve workload's timed stream. `first_id` keeps request
/// ids unique across passes.
pub fn serve_pass(workload: &str, rng: &mut Rng, first_id: usize) -> Vec<Request> {
    let mut slots: Vec<(Kind, Resident)> = Vec::new();
    if workload == "serve_warm" {
        for &(kind, r, count) in &WARM_MIX {
            slots.extend(std::iter::repeat_n((kind, WARM_RESIDENTS[r]), count));
        }
    } else {
        for &(r, count) in &WHATIF_MIX {
            slots.extend(std::iter::repeat_n((Kind::StructuralFamily, WHATIF_BASES[r]), count));
        }
    }
    rng.shuffle(&mut slots);
    let swap_only = swap_only_variants();
    let pools: Vec<Vec<Variant>> =
        WHATIF_BASES.iter().map(|b| structural_variants(b.system, VARIANTS_PER_BASE)).collect();
    slots
        .into_iter()
        .enumerate()
        .map(|(i, (kind, r))| {
            let id = first_id + i;
            match kind {
                Kind::StructuralFamily => {
                    let pool = &pools[WHATIF_BASES.iter().position(|b| *b == r).expect("a base")];
                    let variants = draw_distinct(rng, pool, FAMILY_SIZE);
                    Request::new(
                        id,
                        kind,
                        r,
                        r.lambda,
                        BASE_ALPHA,
                        vec![RESIDENT_EPSILON],
                        variants,
                    )
                }
                _ => {
                    let lambda = r.lambda * rng.pick(&WARM_LAMBDA_FRACTIONS);
                    let alpha = rng.pick(&WARM_ALPHAS);
                    let (epsilons, variants) = match kind {
                        Kind::Analyze => (vec![rng.pick(&WARM_EPSILONS)], vec![]),
                        Kind::Sweep => (WARM_SWEEP_EPSILONS.to_vec(), vec![]),
                        _ => (vec![rng.pick(&WARM_EPSILONS)], draw_distinct(rng, &swap_only, 4)),
                    };
                    Request::new(id, kind, r, lambda, alpha, epsilons, variants)
                }
            }
        })
        .collect()
}

/// One pass of `sweep_cold`: every job type at its per-pass count,
/// shuffled.
pub fn cold_pass(rng: &mut Rng) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    for (job, count) in cold_job_types() {
        jobs.extend(std::iter::repeat_n(job, count));
    }
    rng.shuffle(&mut jobs);
    jobs
}

fn draw_distinct(rng: &mut Rng, pool: &[Variant], n: usize) -> Vec<Variant> {
    let mut pool = pool.to_vec();
    rng.shuffle(&mut pool);
    pool.truncate(n);
    pool
}

/// Every `Expect` any seed can produce for `workload`, deduplicated —
/// the rows the expected-answer table must hold.
pub fn all_expects() -> Vec<Expect> {
    let mut out: Vec<Expect> = Vec::new();
    let mut push = |e: Expect| {
        if !out.contains(&e) {
            out.push(e);
        }
    };
    for (job, _) in cold_job_types() {
        job.expects().into_iter().for_each(&mut push);
    }
    for workload in ["serve_warm", "whatif_structural"] {
        for request in setup_requests(workload) {
            request.expects().into_iter().for_each(&mut push);
        }
    }
    for r in WARM_RESIDENTS {
        let mut systems = vec![SystemRef::base(r.system)];
        systems.extend(
            swap_only_variants()
                .into_iter()
                .map(|v| SystemRef { base: r.system, variant: Some(v) }),
        );
        let mut epsilons = WARM_EPSILONS.to_vec();
        epsilons.extend(WARM_SWEEP_EPSILONS);
        epsilons.sort_by(f64::total_cmp);
        epsilons.dedup();
        for system in &systems {
            for fraction in WARM_LAMBDA_FRACTIONS {
                for alpha in WARM_ALPHAS {
                    for &epsilon in &epsilons {
                        push(Expect {
                            system: system.clone(),
                            lambda: r.lambda * fraction,
                            alpha,
                            epsilon,
                            spec: r.spec,
                            compiled_epsilon: RESIDENT_EPSILON,
                            compiled_lambda: r.lambda,
                        });
                    }
                }
            }
        }
    }
    for b in WHATIF_BASES {
        for v in structural_variants(b.system, VARIANTS_PER_BASE) {
            push(Expect {
                system: SystemRef { base: b.system, variant: Some(v) },
                lambda: b.lambda,
                alpha: BASE_ALPHA,
                epsilon: RESIDENT_EPSILON,
                spec: b.spec,
                compiled_epsilon: RESIDENT_EPSILON,
                compiled_lambda: b.lambda,
            });
        }
    }
    out
}

/// Renders a stream as text, one op per line, for the determinism test.
#[cfg(test)]
pub fn render_stream(workload: &str, seed: u64, passes: usize) -> String {
    use std::fmt::Write as _;

    let mut rng = Rng::new(seed);
    let mut text = String::new();
    let mut next = 0;
    for _ in 0..passes {
        if workload == "sweep_cold" {
            for job in cold_pass(&mut rng) {
                let _ = writeln!(text, "{} {} {:?}", job.kind, job.lambda, job.specs);
            }
        } else {
            let pass = serve_pass(workload, &mut rng, next);
            next += pass.len();
            for request in pass {
                let _ = writeln!(text, "{}", request.line);
            }
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_a_byte_identical_stream() {
        for workload in ["sweep_cold", "serve_warm", "whatif_structural"] {
            let first = render_stream(workload, 42, 2);
            assert_eq!(first, render_stream(workload, 42, 2), "{workload}");
            assert_ne!(first, render_stream(workload, 43, 2), "{workload}: seed must matter");
        }
    }

    #[test]
    fn warm_draws_stay_within_the_compiled_truncation() {
        let mut rng = Rng::new(7);
        for request in serve_pass("serve_warm", &mut rng, 0) {
            assert!(request.lambda <= request.resident.lambda);
            assert!(request.alpha >= BASE_ALPHA);
            assert!(request.epsilons.iter().all(|&e| e >= RESIDENT_EPSILON));
        }
    }

    #[test]
    fn every_what_if_base_offers_a_full_family() {
        for base in WHATIF_BASES {
            assert!(structural_variants(base.system, VARIANTS_PER_BASE).len() >= FAMILY_SIZE);
        }
    }
}
