//! Inputs, set-up and answer checks shared by the workloads.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fbist_fault::FaultList;
use fbist_genbench::{generate, profile};
use fbist_netlist::{bench, full_scan, Netlist};
use reseed_core::{verify_against, FlowConfig, ReseedingFlow, ReseedingReport, TpgKind};

use crate::measure::{median, timed};
use crate::Outcome;

/// The TPG every workload reseeds (the paper's adder accumulator).
pub const TPG: TpgKind = TpgKind::Adder;

/// The default sweep (`fbist sweep` without `--taus`).
pub const SWEEP_TAUS: [usize; 8] = [0, 3, 7, 15, 31, 63, 127, 255];

/// The flow configuration of every workload: defaults plus the static
/// prepass and static learning, pinned to `jobs` workers.
pub fn flow_config(jobs: usize) -> FlowConfig {
    FlowConfig::new(TPG)
        .with_static_prepass(true)
        .with_static_learning(true)
        .with_jobs(jobs)
}

/// A generated circuit as `.bench` text: the benchmark's input.
pub struct Input {
    pub name: String,
    pub text: String,
}

/// The workload's benchmark circuit: `profile` at `scale`, generated with
/// a fixed seed (a random circuit's cost swings too much with its seed to
/// compare runs across seeds) and rendered as `.bench`.
pub fn make_input(profile_name: &str, scale: f64) -> Result<Input, String> {
    const CIRCUIT_SEED: u64 = 1;
    let p = profile(profile_name).ok_or_else(|| format!("no profile {profile_name:?}"))?;
    let netlist = generate(&p.scaled(scale), CIRCUIT_SEED);
    Ok(Input {
        name: format!("{profile_name}@{scale}"),
        text: bench::to_bench(&netlist),
    })
}

/// A parsed, full-scanned circuit and its store-less flow.
pub struct Setup {
    pub netlist: Netlist,
    pub flow: ReseedingFlow,
    pub parse_s: f64,
    pub scan_s: f64,
    pub flow_new_s: f64,
}

/// Parse, full-scan and `ReseedingFlow::new`, each timed.
pub fn set_up(input: &Input) -> Result<Setup, String> {
    let (parsed, parse_s) = timed(|| bench::parse_named(&input.text, &input.name));
    let parsed = parsed.map_err(|e| format!("parsing {}: {e}", input.name))?;
    let (netlist, scan_s) = timed(|| full_scan(&parsed).into_combinational());
    let (flow, flow_new_s) = timed(|| ReseedingFlow::new(&netlist));
    let flow = flow.map_err(|e| format!("building the flow: {e}"))?;
    Ok(Setup {
        netlist,
        flow,
        parse_s,
        scan_s,
        flow_new_s,
    })
}

/// Sets up `reps` times; returns the last set-up and the median time.
pub fn set_up_repeated(input: &Input, reps: usize) -> Result<(Setup, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take()); // free the previous set-up before timing the next
        let (setup, t) = timed(|| set_up(input));
        times.push(t);
        last = Some(setup?);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        format!("panicked: {msg}")
    })
}

/// Checks one cover: its own accounting, and a replay of its selected
/// triplets through a fresh TPG and fault simulator (`verify_against`),
/// which shares nothing with the matrix build, reduction or trim.
pub fn check_cover(netlist: &Netlist, report: &ReseedingReport, target: &FaultList) -> Vec<String> {
    let mut errors = Vec::new();
    let what = format!("{} τ={}", report.circuit, report.tau);
    if !report.covers_all_target_faults() {
        errors.push(format!(
            "{what}: report covers {} of {} target faults",
            report.covered_faults, report.target_faults
        ));
    }
    if report.target_faults != target.len() {
        errors.push(format!(
            "{what}: report targets {} faults, the ATPG list has {}",
            report.target_faults,
            target.len()
        ));
    }
    match verify_against(netlist, report, TPG, target) {
        Ok(v) if v.passed() => {}
        Ok(v) => errors.push(format!(
            "{what}: replay detects {} of {} target faults with {} patterns \
             (test length {})",
            v.covered,
            v.target,
            v.patterns,
            report.test_length()
        )),
        Err(e) => errors.push(format!("{what}: replay failed: {e}")),
    }
    errors
}

/// Records the figures every workload reports on its covers.
pub fn record_covers(out: &mut Outcome, reports: &[&ReseedingReport]) {
    let triplets: usize = reports.iter().map(|r| r.triplet_count()).sum();
    let test_length: usize = reports.iter().map(|r| r.test_length()).sum();
    out.set("triplets", triplets as f64);
    out.set("test_length", test_length as f64);
    out.det.put("triplets", triplets);
    out.det.put("test_length", test_length);
    if let Some(r) = reports.first() {
        let pct = r.atpg_coverage * 100.0;
        out.set("fault_coverage_pct", pct);
        out.det.put("fault_coverage_pct", pct);
    }
}

/// The bound the trace accounting is held to, as a share of the untraced
/// operation: the layer self times must sum to the untraced time within it,
/// and the traced run may exceed the untraced one by no more than the calls
/// it times twice plus this share.
pub const TRACE_BOUND: f64 = 0.15;

/// Reports whether `trace.unaccounted_s` and `trace.overhead_s` are within
/// [`TRACE_BOUND`]; `repeated_s` is the time of the calls the traced run
/// makes twice. Timings never fail a run, so this is a note, not a check.
pub fn trace_note(out: &mut Outcome, untraced_s: f64, repeated_s: f64) {
    let get = |k: &str| out.values.get(k).copied().unwrap_or(0.0);
    let unaccounted = get("trace.unaccounted_s") / untraced_s;
    let extra = (get("trace.overhead_s") - repeated_s) / untraced_s;
    let within = unaccounted.abs() <= TRACE_BOUND && extra.abs() <= TRACE_BOUND;
    out.notes.push(format!(
        "trace accounting: unaccounted {:.1} %, overhead beyond the {repeated_s:.3} s of \
         repeated calls {:.1} % (bound ±{:.0} %): {}",
        100.0 * unaccounted,
        100.0 * extra,
        100.0 * TRACE_BOUND,
        if within {
            "within bound"
        } else {
            "OUT OF BOUND"
        }
    ));
}

/// A small seeded generator (SplitMix64) for request streams.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}
