//! Differential suite pinning the τ-sweep to single-τ runs.
//!
//! For **every** genbench profile (scaled to a small, fast gate budget —
//! the thresholding machinery is identical at every size), a TPG from
//! each family (accumulator-based `add`, LFSR-based `lfsr`) and
//! `jobs ∈ {1, 4}`, every point of `tradeoff_sweep` — its full report
//! included — must equal a store-less `ReseedingFlow::run` at that τ,
//! which builds its Detection Matrix by OR-detect simulation of the
//! τ-expansion (`matrix_for`). The sweep instead derives every point from
//! one first-detection pass at `max(taus)`, so this is the oracle check
//! of the derivation. The τ list is deliberately unsorted and duplicated.
//!
//! The suite also pins the sweep's reason to exist: on `mid256` at full
//! scale with `--taus 0,3,7,15,31,63`, the sweep runs **exactly one**
//! Detection-Matrix simulation pass (the builder's pass counter) and
//! evaluates strictly fewer simulated blocks (the `PackedSimulator` lane
//! counters) than the single-τ runs of its points together.

use fbist_genbench::{all_profiles, generate, CircuitProfile};
use fbist_netlist::Netlist;
use set_covering_reseeding::prelude::*;

/// Gate budget for the per-profile half: exercises every interface shape
/// while staying test-fast.
const GATE_BUDGET: f64 = 70.0;

/// Deliberately unsorted, duplicated τ list: the sweep must dedupe,
/// simulate once at max = 7, and still emit one point per input τ in
/// input order.
const TAUS: [usize; 4] = [7, 0, 3, 3];

fn small(p: &CircuitProfile) -> Netlist {
    let n = generate(&p.scaled((GATE_BUDGET / p.gates as f64).min(1.0)), 1);
    if n.is_combinational() {
        n
    } else {
        full_scan(&n).into_combinational()
    }
}

/// Every sweep point equals the single-τ run at its τ, across jobs, for
/// one profile and TPG.
fn assert_sweep_matches_runs(netlist: &Netlist, tpg: TpgKind, label: &str) {
    let flow = ReseedingFlow::new(netlist).unwrap();
    for jobs in [1usize, 4] {
        let cfg = FlowConfig::new(tpg).with_jobs(jobs);
        let curve = tradeoff_sweep(netlist, &cfg, &TAUS).unwrap();
        assert_eq!(curve.len(), TAUS.len(), "{label}");
        for (point, &tau) in curve.iter().zip(&TAUS) {
            assert_eq!(point.tau, tau, "{label} jobs={jobs}");
            let report = flow.run(&cfg.clone().with_tau(tau));
            assert_eq!(
                point.report, report,
                "{label} jobs={jobs} τ={tau}: sweep point differs from the single-τ run"
            );
        }
    }
}

macro_rules! sweep_equivalence_tests {
    ($($test:ident => $profile:literal),+ $(,)?) => {$(
        mod $test {
            use super::*;

            #[test]
            fn add() {
                let p = genbench_profile($profile).expect("profile registered");
                assert_sweep_matches_runs(&small(&p), TpgKind::Adder, $profile);
            }

            #[test]
            fn lfsr() {
                let p = genbench_profile($profile).expect("profile registered");
                assert_sweep_matches_runs(&small(&p), TpgKind::Lfsr, $profile);
            }
        }
    )+};
}

// one module per profile so the harness runs them in parallel
sweep_equivalence_tests! {
    sweep_c499 => "c499",
    sweep_c880 => "c880",
    sweep_c1355 => "c1355",
    sweep_c1908 => "c1908",
    sweep_c7552 => "c7552",
    sweep_s420 => "s420",
    sweep_s641 => "s641",
    sweep_s820 => "s820",
    sweep_s838 => "s838",
    sweep_s953 => "s953",
    sweep_s1238 => "s1238",
    sweep_s1423 => "s1423",
    sweep_s5378 => "s5378",
    sweep_s9234 => "s9234",
    sweep_s13207 => "s13207",
    sweep_s15850 => "s15850",
    sweep_tiny64 => "tiny64",
    sweep_mid256 => "mid256",
    sweep_big3500 => "big3500",
    sweep_xl7000 => "xl7000",
}

#[test]
fn sweep_macro_covers_every_profile() {
    // fail loudly if a profile is ever added without a sweep test
    assert_eq!(all_profiles().len(), 20, "update sweep_equivalence_tests!");
}

/// End to end on `mid256` at full scale: `--taus 0,3,7,15,31,63` runs
/// exactly one matrix simulation pass and evaluates strictly fewer blocks
/// than the single-τ runs of its points together.
#[test]
fn mid256_first_detection_single_pass_and_fewer_blocks() {
    let n = generate(&genbench_profile("mid256").unwrap(), 1);
    let taus = [0usize, 3, 7, 15, 31, 63];
    let cfg = FlowConfig::new(TpgKind::Adder);
    let flow = ReseedingFlow::new(&n).unwrap();
    let sim = flow.builder().fault_simulator().good_simulator();

    // ATPG runs on its own simulator, so these counters see only the
    // matrix builds and the trimming
    flow.builder().reset_matrix_sim_passes();
    sim.reset_occupancy();
    let runs: Vec<ReseedingReport> = taus
        .iter()
        .map(|&tau| flow.run(&cfg.clone().with_tau(tau)))
        .collect();
    assert_eq!(
        flow.builder().matrix_sim_passes(),
        taus.len() as u64,
        "single-τ runs: one pass per point"
    );
    let run_blocks = sim.occupancy().blocks;

    flow.builder().reset_matrix_sim_passes();
    sim.reset_occupancy();
    let sweep = tradeoff_sweep_with(&flow, &cfg, &taus);
    let sweep_blocks = sim.occupancy().blocks;

    for (point, report) in sweep.iter().zip(&runs) {
        assert_eq!(
            &point.report, report,
            "τ={}: sweep differs from its run",
            point.tau
        );
    }
    assert_eq!(
        flow.builder().matrix_sim_passes(),
        1,
        "the sweep must run exactly one matrix simulation pass"
    );
    // the per-point trimming simulations are identical on both sides
    // (identical reports), so the strict block gap is pure matrix work
    assert!(
        sweep_blocks < run_blocks,
        "the sweep evaluated {sweep_blocks} blocks, its single-τ runs {run_blocks} — \
         expected strictly fewer"
    );
}
