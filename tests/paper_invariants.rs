//! The paper's specific claims, encoded as tests.

use set_covering_reseeding::prelude::*;
use set_covering_reseeding::setcover::{reduce, ReducerConfig};

/// §3.1: "Fixing τ = 0, the test set TS provided by the reseeding
/// corresponds to the ATPG test set ATPGTS."
#[test]
fn tau_zero_reproduces_atpgts() {
    let netlist = genbench_generate(&genbench_profile("tiny64").unwrap(), 7);
    let flow = ReseedingFlow::new(&netlist).unwrap();
    for kind in [
        TpgKind::Adder,
        TpgKind::Subtracter,
        TpgKind::Multiplier,
        TpgKind::Weighted,
    ] {
        let cfg = FlowConfig::new(kind).with_tau(0);
        let initial = flow.builder().build(&cfg);
        let tpg = kind.build(netlist.inputs().len());
        let expanded: Vec<BitVec> = initial
            .triplets
            .iter()
            .flat_map(|t| tpg.expand(t))
            .collect();
        assert_eq!(expanded, initial.atpg.patterns, "{kind}");
    }
}

/// §3: the initial reseeding T covers F by construction
/// (`F = ∪ F(tripletᵢ)`).
#[test]
fn initial_reseeding_covers_f_by_construction() {
    let netlist = genbench_generate(&genbench_profile("mid256").unwrap(), 1);
    let flow = ReseedingFlow::new(&netlist).unwrap();
    for tau in [0usize, 8, 31] {
        let cfg = FlowConfig::new(TpgKind::Adder).with_tau(tau);
        let initial = flow.builder().build(&cfg);
        let all: Vec<usize> = (0..initial.matrix.rows()).collect();
        assert!(initial.matrix.is_cover(&all), "τ={tau}");
    }
}

/// §3 definition: a minimal solution has no removable triplet — every
/// selected triplet detects at least one fault no other selected triplet
/// detects.
#[test]
fn minimality_no_triplet_removable() {
    let netlist = genbench_generate(&genbench_profile("tiny64").unwrap(), 4);
    let flow = ReseedingFlow::new(&netlist).unwrap();
    let cfg = FlowConfig::new(TpgKind::Adder).with_tau(31);
    let initial = flow.builder().build(&cfg);
    let report = flow.finish(&cfg, &initial);
    assert!(report.solution_optimal);

    // replay all triplets, then re-check coverage with each one removed
    let tpg = TpgKind::Adder.build(netlist.inputs().len());
    let fsim = FaultSimulator::new(&netlist).unwrap();
    let full: Vec<BitVec> = report
        .selected
        .iter()
        .flat_map(|s| tpg.expand(&s.triplet))
        .collect();
    let full_cov = fsim.run(&full, &initial.target_faults, 1).detected_count();
    assert_eq!(full_cov, initial.target_faults.len());
    for skip in 0..report.selected.len() {
        let partial: Vec<BitVec> = report
            .selected
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != skip)
            .flat_map(|(_, s)| tpg.expand(&s.triplet))
            .collect();
        let cov = fsim
            .run(&partial, &initial.target_faults, 1)
            .detected_count();
        assert!(
            cov < full_cov,
            "triplet {skip} is removable — solution not minimal"
        );
    }
}

/// Figure 2: raising τ trades test length for triplet count, monotonically
/// in the triplet count.
#[test]
fn figure2_monotone_staircase() {
    let profile = genbench_profile("s1238").unwrap().scaled(0.12);
    let netlist = genbench_generate(&profile, 1);
    let curve =
        tradeoff_sweep(&netlist, &FlowConfig::new(TpgKind::Adder), &[0, 7, 31, 127]).unwrap();
    for w in curve.windows(2) {
        assert!(w[1].triplets <= w[0].triplets);
    }
    // and the extremes genuinely trade off
    let first = &curve[0];
    let last = &curve[curve.len() - 1];
    assert!(last.triplets < first.triplets, "no reduction achieved");
    assert!(last.test_length > first.test_length, "no length cost paid");
}

/// Table 2: on some instances the reduction closes the matrix entirely
/// (necessary-only solutions); essentiality must find them.
#[test]
fn reduction_can_close_matrices() {
    // the resistant cones guarantee sparse columns → essential rows
    let profile = genbench_profile("s420").unwrap().scaled(0.2);
    let netlist = genbench_generate(&profile, 1);
    let flow = ReseedingFlow::new(&netlist).unwrap();
    let cfg = FlowConfig::new(TpgKind::Adder).with_tau(31);
    let initial = flow.builder().build(&cfg);
    let reduction = reduce(&initial.matrix, &ReducerConfig::default());
    assert!(
        !reduction.essential_rows.is_empty(),
        "resistant faults must force necessary triplets"
    );
}

/// §4: the global test length accounting trims trailing patterns that do
/// not contribute; the trimmed solution still covers F.
#[test]
fn trimming_preserves_coverage() {
    let netlist = genbench_generate(&genbench_profile("mid256").unwrap(), 2);
    let flow = ReseedingFlow::new(&netlist).unwrap();
    let report = flow.run(&FlowConfig::new(TpgKind::Adder).with_tau(63));
    assert!(report.covers_all_target_faults());
    // at least one triplet should actually have been trimmed at τ=63
    assert!(
        report.selected.iter().any(|s| s.triplet.tau() < 63),
        "no trimming happened at all"
    );
}

/// The paper's motivating premise: the benchmark circuits are "not random
/// testable by 10k patterns" — deterministic ATPG must beat 10k random
/// patterns on the synthetic mimics too.
#[test]
fn mimics_are_random_pattern_resistant() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let profile = genbench_profile("s1238").unwrap().scaled(0.25);
    let netlist = genbench_generate(&profile, 1);
    let faults = FaultList::collapsed(&netlist);
    let fsim = FaultSimulator::new(&netlist).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let w = netlist.inputs().len();
    let random: Vec<BitVec> = (0..10_000)
        .map(|_| BitVec::random_with(w, &mut || rng.gen()))
        .collect();
    let random_cov = fsim.run(&random, &faults, 1).detected_count();

    let atpg = Atpg::new(&netlist).unwrap();
    let det = atpg.run(&faults, &AtpgConfig::default());
    assert!(
        det.detected.count_ones() > random_cov,
        "ATPG {} must beat 10k random {}",
        det.detected.count_ones(),
        random_cov
    );
}
