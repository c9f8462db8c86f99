//! Benchmark of the set-covering reseeding flow.
//!
//! ```text
//! perfbench --workload <cold_reseed|cold_sweep|warm_query> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the workload's operation end to end
//! through the library's public entry points and reports the end-to-end
//! metrics. With `--trace 1` it runs the operation once untraced and once
//! more as a sequence of per-layer public calls, each timed from here, and
//! reports the per-layer metrics. Every answer is checked outside the timed
//! region; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod cold;
mod common;
mod measure;
mod record;
mod warm;

use std::collections::BTreeMap;
use std::process::ExitCode;

use record::{json_escape, DetRecord};

/// End-to-end metrics (`--trace 0`), in output order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("triplets", "count"),
    ("test_length", "count"),
    ("fault_coverage_pct", "%"),
];

/// Per-layer metrics (`--trace 1`), in output order: `(name, unit)`. A
/// layer the workload's operation never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("netlist.scan_s", "s"),
    ("netlist.gates", "count"),
    ("core.flow_new_s", "s"),
    ("fault.collapse_s", "s"),
    ("fault.faults", "count"),
    ("analyze.learn_s", "s"),
    ("analyze.prepass_s", "s"),
    ("analyze.implications", "count"),
    ("analyze.pruned_faults", "count"),
    ("atpg.run_s", "s"),
    ("atpg.search_self_s", "s"),
    ("atpg.cpu_per_wall", "ratio"),
    ("atpg.patterns", "count"),
    ("atpg.podem_tests", "count"),
    ("atpg.untestable", "count"),
    ("atpg.aborted", "count"),
    ("atpg.efficiency", "ratio"),
    ("core.base_s", "s"),
    ("tpg.expand_s", "s"),
    ("tpg.patterns_expanded", "count"),
    ("core.matrix_s", "s"),
    ("fault.sim_self_s", "s"),
    ("fault.cpu_per_wall", "ratio"),
    ("sim.blocks", "count"),
    ("sim.occupancy", "ratio"),
    ("core.matrix_passes", "count"),
    ("setcover.nnz", "count"),
    ("setcover.at_tau_s", "s"),
    ("setcover.reduce_s", "s"),
    ("setcover.solve_s", "s"),
    ("setcover.iterations", "count"),
    ("setcover.essential_rows", "count"),
    ("setcover.dominated_rows", "count"),
    ("setcover.residual_rows", "count"),
    ("setcover.residual_cols", "count"),
    ("setcover.solver_nodes", "count"),
    ("core.fd_stage_s", "s"),
    ("core.finish_s", "s"),
    ("core.trim_self_s", "s"),
    ("store.load_atpg_s", "s"),
    ("store.load_fd_s", "s"),
    ("store.load_cover_s", "s"),
    ("store.save_cover_s", "s"),
    ("store.fd_bytes", "bytes"),
    ("store.cover_hits", "count"),
    ("store.cover_misses", "count"),
    ("pool.jobs", "count"),
    ("trace.op_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads pinned for the pool and every flow configuration.
    pub jobs: usize,
}

/// What a workload run hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (timed ops plus traced ops).
    pub attempted: u64,
    /// Operations that failed a check, panicked or errored.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Measured metric values by name (units come from the tables).
    pub values: BTreeMap<&'static str, f64>,
    /// Deterministic outputs and counters, compared across runs.
    pub det: DetRecord,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Generated circuit name and scale, for the host record.
    pub circuit: String,
    pub scale: f64,
    /// SIMD width (in 64-bit words) the auto rule resolves for the
    /// workload's matrix build.
    pub simd_words: usize,
}

impl Outcome {
    /// Counts one operation: failed if `errors` is non-empty.
    pub fn op(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.failures.extend(errors);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

fn usage() -> String {
    "usage: perfbench --workload <cold_reseed|cold_sweep|warm_query> --seed <n> \
     --seconds <s> --trace <0|1>"
        .to_owned()
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} expects a value; {}", usage()))?;
        let bad = |what: &str| format!("invalid {flag} value {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}; {}", usage())),
        }
    }
    let missing = |f: &str| format!("missing {f}; {}", usage());
    // the pool is pinned to the host's cores, at most two, so figures from
    // bigger hosts stay comparable with the two-core baseline
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        jobs: cores.min(2),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    mini_rayon::set_jobs(args.jobs);
    let result = match args.workload.as_str() {
        "cold_reseed" => cold::reseed(&args),
        "cold_sweep" => cold::sweep(&args),
        "warm_query" => warm::query(&args),
        other => Err(format!(
            "unknown workload {other:?} (expected cold_reseed, cold_sweep or warm_query)"
        )),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    outcome.set("pool.jobs", args.jobs as f64);

    for c in std::mem::take(&mut outcome.det.conflicts) {
        outcome.failures.push(format!("determinism: {c}"));
        outcome.failed += 1;
    }
    // cross-run determinism: the same build, workload and seed must give
    // the same deterministic outputs in every run, traced or not
    match outcome.det.check_against_previous(&args) {
        Ok(diffs) => {
            for d in diffs {
                outcome.failures.push(format!("determinism: {d}"));
                outcome.failed += 1;
            }
        }
        Err(e) => eprintln!("perfbench: warning: determinism record unavailable: {e}"),
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in table {
        match outcome.values.get(name) {
            Some(v) if v.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            Some(_) | None if args.trace => metrics.push(format!(
                "\"{name}\": {{\"value\": 0, \"unit\": \"{unit}\"}}"
            )),
            _ => missing.push(name),
        }
    }
    for m in &missing {
        outcome
            .failures
            .push(format!("metric {m} was not measured"));
        outcome.failed += 1;
    }
    print_host(&args, &outcome);
    for line in &outcome.notes {
        println!("# {line}");
    }
    for f in &outcome.failures {
        println!("# FAILED: {f}");
        eprintln!("perfbench: FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The host record: enough to tell whether two result files are comparable.
fn print_host(args: &Args, o: &Outcome) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# host {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"circuit\": \"{}\", \"scale\": {}, \"nproc\": {cores}, \"jobs\": {}, \
         \"simd_width\": \"auto\", \"simd_words\": {}, \"git_rev\": \"{}\", \"rustc\": \"{}\"}}",
        json_escape(&args.workload),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        json_escape(&o.circuit),
        o.scale,
        args.jobs,
        o.simd_words,
        json_escape(&env("PERFBENCH_GIT_REV")),
        json_escape(&env("PERFBENCH_RUSTC")),
    );
}
