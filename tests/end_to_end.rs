//! End-to-end integration tests: the full paper flow across circuits and
//! TPG families, with independent verification by replay.

use set_covering_reseeding::prelude::*;

/// Replays a report's triplets through a freshly built TPG and checks the
/// fault coverage claim with a fresh fault simulator.
fn verify_by_replay(netlist: &Netlist, report: &ReseedingReport, kind: TpgKind) {
    let universe = FaultList::collapsed(netlist);
    let atpg = Atpg::new(netlist).unwrap();
    // reconstruct F with the same flow defaults
    let cfg = FlowConfig::new(kind);
    let res = atpg.run(&universe, &cfg.atpg);
    let target = universe.subset(&res.detected_ids());
    assert_eq!(target.len(), report.target_faults, "same F");

    let tpg = kind.build(netlist.inputs().len());
    let mut patterns = Vec::new();
    for sel in &report.selected {
        patterns.extend(tpg.expand(&sel.triplet));
    }
    assert_eq!(
        patterns.len(),
        report.test_length(),
        "trimmed lengths add up"
    );
    let fsim = FaultSimulator::new(netlist).unwrap();
    let detected = fsim.run(&patterns, &target, 1).detected;
    assert_eq!(
        detected.count_ones(),
        target.len(),
        "replayed solution must cover all of F"
    );
}

#[test]
fn embedded_circuits_all_tpgs() {
    for netlist in [embedded::c17(), embedded::adder4(), embedded::majority()] {
        for kind in [TpgKind::Adder, TpgKind::Subtracter, TpgKind::Lfsr] {
            let flow = ReseedingFlow::new(&netlist).unwrap();
            let report = flow.run(&FlowConfig::new(kind).with_tau(7));
            assert!(
                report.covers_all_target_faults(),
                "{}/{kind}",
                netlist.name()
            );
            verify_by_replay(&netlist, &report, kind);
        }
    }
}

#[test]
fn synthetic_circuit_full_flow_with_replay() {
    let profile = genbench_profile("tiny64").unwrap();
    let netlist = genbench_generate(&profile, 11);
    let flow = ReseedingFlow::new(&netlist).unwrap();
    for kind in [TpgKind::Adder, TpgKind::Multiplier] {
        let report = flow.run(&FlowConfig::new(kind).with_tau(31));
        assert!(report.covers_all_target_faults());
        assert!(report.solution_optimal);
        verify_by_replay(&netlist, &report, kind);
    }
}

#[test]
fn sequential_circuit_through_scan() {
    let johnson = embedded::johnson3();
    assert!(!johnson.is_combinational());
    let core = full_scan(&johnson).into_combinational();
    let flow = ReseedingFlow::new(&core).unwrap();
    let report = flow.run(&FlowConfig::new(TpgKind::Adder).with_tau(15));
    assert!(report.covers_all_target_faults());
    verify_by_replay(&core, &report, TpgKind::Adder);
}

#[test]
fn solution_is_no_larger_than_initial() {
    let netlist = genbench_generate(&genbench_profile("tiny64").unwrap(), 2);
    let flow = ReseedingFlow::new(&netlist).unwrap();
    let report = flow.run(&FlowConfig::new(TpgKind::Adder).with_tau(15));
    assert!(report.triplet_count() <= report.initial_triplets);
    assert!(report.triplet_count() >= 1);
}

#[test]
fn flow_is_deterministic() {
    let netlist = genbench_generate(&genbench_profile("tiny64").unwrap(), 5);
    let flow = ReseedingFlow::new(&netlist).unwrap();
    let cfg = FlowConfig::new(TpgKind::Subtracter)
        .with_tau(15)
        .with_seed(99);
    let a = flow.run(&cfg);
    let b = flow.run(&cfg);
    assert_eq!(a, b);
}

#[test]
fn gatsby_baseline_runs_and_reports_cost() {
    let netlist = embedded::c17();
    let universe = FaultList::collapsed(&netlist);
    let gatsby = Gatsby::new(&netlist).unwrap();
    let res = gatsby.run(&universe, &GatsbyConfig::default());
    assert!(res.complete());
    // the paper's cost criticism: GA burns at least one fault simulation
    // per chromosome per generation per round
    assert!(res.fault_sim_calls >= res.triplet_count() * 24 * 12);
}

#[test]
fn set_covering_uses_fewer_simulations_than_gatsby() {
    // §4: "W.r.t. GATSBY, the number of fault simulations is reduced and
    // limited to the construction of the Detection Matrix." The flow needs
    // |ATPGTS| triplet simulations for the matrix + |N| for trimming; the
    // GA needs population × generations per round.
    let netlist = genbench_generate(&genbench_profile("tiny64").unwrap(), 3);
    let flow = ReseedingFlow::new(&netlist).unwrap();
    let cfg = FlowConfig::new(TpgKind::Adder).with_tau(15);
    let report = flow.run(&cfg);
    let sc_sims = report.initial_triplets + report.triplet_count();

    let init = flow.builder().build(&cfg);
    let gatsby = Gatsby::new(&netlist).unwrap();
    let g = gatsby.run(
        &init.target_faults,
        &GatsbyConfig {
            tpg: TpgKind::Adder,
            tau: 15,
            ..GatsbyConfig::default()
        },
    );
    assert!(
        g.fault_sim_calls > 5 * sc_sims,
        "GA {} sims vs SC {} sims",
        g.fault_sim_calls,
        sc_sims
    );
}
