//! The expected-answer table and the answer check.
//!
//! Every row comes from `analyze_direct`, the engine that builds the
//! ROMDD directly with multiple-valued operations and never builds a
//! coded ROBDD, so the table is independent of the code path it checks.
//! Two kinds of rows:
//!
//! * `answer <system>|nb(λ',α)|eps=ε  M  yield  error` — the yield lower
//!   bound, truncation and error bound of one point;
//! * `size <system>|<spec>|M=m  nodes` — the ROMDD size of a diagram
//!   compiled at truncation `m` (a warm answer reports the size of the
//!   resident diagram, which may be compiled deeper than the point).
//!
//! For the sifted spec the size row is computed under its static base
//! order, because the direct engine does not sift; dynamic sifting of the
//! ESEN4x1 catalogue entry ends at the base order's ROMDD (1 461 nodes),
//! so the rows agree.

use std::collections::HashMap;
use std::fmt::Write as _;

use soc_yield_core::{analyze_direct, AnalysisOptions};
use socy_defect::{select_truncation, NegativeBinomial};
use socy_ordering::OrderingSpec;

use crate::catalogue::{all_expects, size_key, spec, Expect, SystemRef, Variant, BASE_ALPHA};

/// The committed table, embedded so a run needs no file outside the
/// binary.
pub const TABLE: &str = include_str!("../expected.tsv");

/// Absolute tolerance of a yield or error-bound comparison.
pub const TOLERANCE: f64 = 1e-12;

/// One `answer` row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Truncation `M`.
    pub truncation: usize,
    /// Yield lower bound.
    pub yield_lower_bound: f64,
    /// Error bound.
    pub error_bound: f64,
}

/// The parsed table.
#[derive(Debug, Default)]
pub struct Table {
    answers: HashMap<String, Answer>,
    sizes: HashMap<String, usize>,
}

/// What a response reported for one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    /// Yield lower bound.
    pub yield_lower_bound: f64,
    /// Error bound.
    pub error_bound: f64,
    /// Truncation `M`.
    pub truncation: usize,
    /// Truncation of the evaluated diagram.
    pub compiled_truncation: usize,
    /// ROMDD nodes of the evaluated diagram.
    pub romdd_size: usize,
}

impl Table {
    /// Parses the table text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut table = Table::default();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("expected.tsv line {}: malformed `{line}`", n + 1);
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                ["answer", key, m, y, e] => {
                    let answer = Answer {
                        truncation: m.parse().map_err(|_| bad())?,
                        yield_lower_bound: y.parse().map_err(|_| bad())?,
                        error_bound: e.parse().map_err(|_| bad())?,
                    };
                    table.answers.insert((*key).to_string(), answer);
                }
                ["size", key, nodes] => {
                    table.sizes.insert((*key).to_string(), nodes.parse().map_err(|_| bad())?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(table)
    }

    /// The committed table.
    pub fn committed() -> Self {
        Self::parse(TABLE).expect("the committed table parses")
    }

    /// The answer row of a point.
    pub fn answer(&self, expect: &Expect) -> Option<Answer> {
        self.answers.get(&expect.answer_key()).copied()
    }

    /// Truncation the point's diagram is compiled at.
    pub fn compiled_truncation(&self, expect: &Expect) -> Option<usize> {
        let key = crate::catalogue::answer_key(
            &expect.system,
            expect.compiled_lambda,
            BASE_ALPHA,
            expect.compiled_epsilon,
        );
        self.answers.get(&key).map(|a| a.truncation)
    }

    /// Expected ROMDD size of the diagram evaluating the point.
    pub fn romdd_size(&self, expect: &Expect) -> Option<usize> {
        let m = self.compiled_truncation(expect)?;
        self.sizes.get(&size_key(&size_system(&expect.system), expect.spec, m)).copied()
    }

    /// Checks one reported point against the table: yield and error
    /// bound within [`TOLERANCE`], exact `M`, compiled truncation and
    /// ROMDD size.
    ///
    /// # Errors
    ///
    /// Returns what differed.
    pub fn check(&self, expect: &Expect, got: &Reported) -> Result<(), String> {
        let key = expect.answer_key();
        let want = self.answer(expect).ok_or_else(|| format!("{key}: no expected answer"))?;
        let compiled = self
            .compiled_truncation(expect)
            .ok_or_else(|| format!("{key}: no compiled truncation"))?;
        let size = self.romdd_size(expect).ok_or_else(|| format!("{key}: no expected size"))?;
        if (got.yield_lower_bound - want.yield_lower_bound).abs() > TOLERANCE {
            return Err(format!(
                "{key}: yield {} != expected {}",
                got.yield_lower_bound, want.yield_lower_bound
            ));
        }
        if (got.error_bound - want.error_bound).abs() > TOLERANCE {
            return Err(format!("{key}: error bound {} != {}", got.error_bound, want.error_bound));
        }
        if got.truncation != want.truncation {
            return Err(format!("{key}: M {} != {}", got.truncation, want.truncation));
        }
        if got.compiled_truncation != compiled {
            return Err(format!(
                "{key}: compiled M {} != {compiled} (the diagram was recompiled)",
                got.compiled_truncation
            ));
        }
        if got.romdd_size != size {
            return Err(format!("{key}: ROMDD size {} != {size}", got.romdd_size));
        }
        Ok(())
    }
}

/// The system whose diagram a point evaluates: swap-only variants are
/// evaluated on the base diagram, structural ones on their own.
fn size_system(system: &SystemRef) -> SystemRef {
    match &system.variant {
        Some(Variant::Swap(_)) => system.clone(),
        _ => SystemRef::base(system.base),
    }
}

/// Regenerates the table from `analyze_direct`, one row per distinct
/// key, in catalogue order.
pub fn generate() -> String {
    let mut text = String::from(
        "# Expected answers for the perfbench catalogue, from analyze_direct.\n\
         # Regenerate with: perfbench expected > perfbench/expected.tsv\n",
    );
    let mut seen: Vec<String> = Vec::new();
    for expect in all_expects() {
        let points = [
            (expect.system.clone(), expect.lambda, expect.alpha, expect.epsilon),
            (expect.system.clone(), expect.compiled_lambda, BASE_ALPHA, expect.compiled_epsilon),
        ];
        for (system, lambda, alpha, epsilon) in points {
            let key = crate::catalogue::answer_key(&system, lambda, alpha, epsilon);
            if seen.contains(&key) {
                continue;
            }
            let (tree, comps) = system.materialize();
            let lethal = NegativeBinomial::new(lambda, alpha).expect("valid catalogue parameters");
            let options = AnalysisOptions { epsilon, ..AnalysisOptions::default() };
            let report = analyze_direct(&tree, &comps, &lethal, &options)
                .expect("catalogue analyses")
                .report;
            let _ = writeln!(
                text,
                "answer\t{key}\t{}\t{:e}\t{:e}",
                report.truncation, report.yield_lower_bound, report.error_bound
            );
            seen.push(key);
        }
        let lethal = NegativeBinomial::new(expect.compiled_lambda, BASE_ALPHA).expect("valid");
        let m =
            select_truncation(&lethal, expect.compiled_epsilon).expect("reachable").truncation();
        let sized = size_system(&expect.system);
        let key = size_key(&sized, expect.spec, m);
        if seen.contains(&key) {
            continue;
        }
        let (tree, comps) = sized.materialize();
        let options = AnalysisOptions {
            spec: {
                let sifted = spec(expect.spec);
                OrderingSpec::new(sifted.mv(), sifted.group()).expect("a static spec")
            },
            fixed_truncation: Some(m),
            ..AnalysisOptions::default()
        };
        let report = analyze_direct(&tree, &comps, &lethal, &options).expect("catalogue").report;
        let _ = writeln!(text, "size\t{key}\t{}", report.romdd_size);
        seen.push(key);
    }
    text
}
