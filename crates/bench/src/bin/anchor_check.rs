//! CI gate for the paper anchors and the perf-smoke sweep: compares a
//! freshly produced JSON dump against its pinned fixture under
//! `tests/fixtures/`, ignoring only the volatile wall-clock/environment
//! fields (`seconds`, `*_seconds`, `threads`). Any drift in node counts,
//! peaks, truncations, cache statistics or yields fails the build with
//! a per-field report; missing or malformed files fail with a readable
//! message instead of a panic.
//!
//! With `--delta-equivalence` the ROBDD-side counters, the op-cache
//! tallies and the execution-shape total (`chunks`) are exempt too: an
//! incremental `sweep_deltas` run compiles a delta family as **one**
//! chunk inside a retained ROBDD manager while the `--scratch-deltas`
//! materialized run compiles one chunk per variant, yet every reported
//! yield, error bound, truncation and ROMDD node count must be
//! bit-identical. This is the mode CI uses to prove the incremental
//! what-if path equivalent to from-scratch compilation.
//!
//! Usage: `anchor_check [--delta-equivalence] <fixture.json> <actual.json>
//! [...more pairs]`

use soc_yield_bench::{diff_anchor_values, diff_anchor_values_delta_equivalence};

fn read(path: &str, role: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {role} {path}: {e}"))
}

fn check_pair(fixture_path: &str, actual_path: &str, delta: bool) -> Result<(), String> {
    let fixture = read(fixture_path, "fixture")?;
    let actual = read(actual_path, "file")?;
    let diffs = if delta {
        diff_anchor_values_delta_equivalence(&fixture, &actual)
    } else {
        diff_anchor_values(&fixture, &actual)
    };
    match diffs {
        Err(message) => Err(message),
        Ok(diffs) if diffs.is_empty() => Ok(()),
        Ok(diffs) => Err(format!("{} divergent field(s):\n  {}", diffs.len(), diffs.join("\n  "))),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let before = args.len();
    args.retain(|arg| arg != "--delta-equivalence");
    let delta = args.len() < before;
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!(
            "usage: anchor_check [--delta-equivalence] <fixture.json> <actual.json> \
             [...more pairs]"
        );
        std::process::exit(2);
    }
    let mut failed = false;
    for pair in args.chunks(2) {
        let (fixture_path, actual_path) = (&pair[0], &pair[1]);
        match check_pair(fixture_path, actual_path, delta) {
            Ok(()) => println!("OK   {actual_path} matches {fixture_path}"),
            Err(report) => {
                eprintln!("FAIL {actual_path} vs {fixture_path}\n{report}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!(
            "anchors drifted — if the change is intentional, regenerate the fixtures \
             with the table binaries / bench_matrix (see .github/workflows/ci.yml, jobs \
             `paper-anchors` and `perf-smoke`)"
        );
        std::process::exit(1);
    }
}
