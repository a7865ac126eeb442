//! The end-to-end, per-layer benchmark of the SHOIN(D)4 stack.
//!
//! Three seeded workloads run against the default configuration of the
//! public entry points:
//!
//! * `horn_read` — one connected Horn KB, `Reasoner4::new` defaults, a
//!   skewed closed-loop stream of membership and inclusion requests;
//! * `residue_search` — many non-Horn KBs (disjunctive and `∃`-deep
//!   islands, Horn KBs with material and disjunctive residue), each
//!   parsed, loaded and queried;
//! * `serve_churn` — the serving registry over a tenant fleet, reads
//!   beside add/retract pairs, from two caller threads (the traced run
//!   adds a TCP `serve::Server`, open loop).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! same requests through each layer's public functions with spans and
//! prints the per-layer metrics. Every answer is checked against a
//! slower reference. See `perfbench/README.md`.

pub mod churn;
pub mod gen;
pub mod inproc;
pub mod report;
pub mod trace;
pub mod util;

use gen::Sizes;
use report::{Outcome, RunClock};

/// The benchmark's workloads.
pub const WORKLOADS: &[&str] = &["horn_read", "residue_search", "serve_churn"];

/// Run one workload. `None` for an unknown name.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    sizes: &Sizes,
) -> Option<Outcome> {
    let clock = RunClock::start(seconds);
    let mut out = match (workload, traced) {
        ("horn_read", false) => inproc::run(&gen::horn_read(seed, sizes), &clock),
        ("horn_read", true) => trace::run_inproc(&gen::horn_read(seed, sizes), &clock),
        ("residue_search", false) => inproc::run(&gen::residue_search(seed, sizes), &clock),
        ("residue_search", true) => trace::run_inproc(&gen::residue_search(seed, sizes), &clock),
        ("serve_churn", false) => churn::run(&churn::script(seed, sizes), &clock),
        ("serve_churn", true) => trace::run_churn(&churn::script(seed, sizes), &clock),
        _ => return None,
    };
    out.record
        .entry("offered_rate".into())
        .or_insert_with(|| "closed loop".into());
    out.record("workload", workload.into());
    out.record("seed", (seed as i64).into());
    out.record("seconds", seconds.into());
    out.record("trace", traced.into());
    out.record("nproc", util::nproc().into());
    out.record("git_rev", util::git_rev().into());
    Some(out)
}
