//! Functional BIST end to end, step by step.
//!
//! Run with `cargo run --release --example functional_bist`.
//!
//! This example walks the paper's Figure-1 pipeline *manually* — every
//! intermediate artefact (fault list, ATPG test set, initial reseeding,
//! detection matrix, reduction log, residual solve, final triplets) is
//! produced and examined explicitly, including the final independent
//! verification that replaying the selected triplets through the TPG
//! really detects every target fault.

use set_covering_reseeding::prelude::*;

use set_covering_reseeding::setcover::{reduce, solve_with, ReducerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A sequential circuit: generate, then full-scan (the paper tests the
    // full-scan versions of the ISCAS'89 circuits).
    let netlist = embedded::johnson3();
    println!("original: {netlist}");
    let scan = full_scan(&netlist);
    let uut = scan.combinational();
    println!(
        "full-scan core: {} ({} scan cells)",
        uut,
        scan.scan_cell_count()
    );

    // --- fault universe -------------------------------------------------
    let universe = FaultList::collapsed(uut);
    println!("collapsed fault universe: {} faults", universe.len());

    // --- ATPG: the (ATPGTS, F) pair --------------------------------------
    let atpg = Atpg::new(uut)?;
    let atpg_result = atpg.run(&universe, &AtpgConfig::default());
    let target = universe.subset(&atpg_result.detected_ids());
    println!(
        "ATPG: {} patterns, coverage {:.1} %, F = {} faults",
        atpg_result.patterns.len(),
        100.0 * atpg_result.coverage(),
        target.len()
    );

    // --- initial reseeding + detection matrix ----------------------------
    let config = FlowConfig::new(TpgKind::Subtracter).with_tau(15);
    let flow = ReseedingFlow::new(uut)?;
    let initial = flow.builder().build(&config);
    println!(
        "initial reseeding: {} triplets, matrix {} x {} (density {:.3})",
        initial.triplet_count(),
        initial.matrix.rows(),
        initial.matrix.cols(),
        initial.matrix.density()
    );

    // --- reduction (essentiality + row dominance) ------------------------
    let reduction = reduce(&initial.matrix, &ReducerConfig::default());
    println!(
        "reduction: {} essential triplets, residual {} x {}, {} events, {} iterations",
        reduction.essential_rows.len(),
        reduction.residual_size().0,
        reduction.residual_size().1,
        reduction.log.len(),
        reduction.iterations
    );

    // --- residual solve (the LINGO role) ---------------------------------
    let solution = solve_with(&initial.matrix, &config.solve, &reduction);
    println!("cover: {solution}");

    // --- full flow (same thing in one call) + verification ---------------
    let report = flow.finish(&config, &initial);
    println!("{report}");

    // independent check: replay the chosen triplets through the TPG and
    // fault-simulate from scratch
    let tpg = TpgKind::Subtracter.build(uut.inputs().len());
    let mut patterns = Vec::new();
    for sel in &report.selected {
        patterns.extend(tpg.expand(&sel.triplet));
    }
    let fsim = FaultSimulator::new(uut)?;
    let detected = fsim.run(&patterns, &target, 1).detected;
    println!(
        "verification replay: {} / {} target faults detected by {} patterns",
        detected.count_ones(),
        target.len(),
        patterns.len()
    );
    assert_eq!(detected.count_ones(), target.len());
    Ok(())
}
