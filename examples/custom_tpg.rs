//! Bringing your own TPG: implement [`PatternGenerator`] for a custom
//! functional unit and run the identical set-covering flow on it.
//!
//! Run with `cargo run --release --example custom_tpg`.
//!
//! The paper stresses that the method "is not restricted to any specific
//! modules M1 but can work with any type of functions". Here we model a
//! *Gray-code counter with XOR input mixing* — a unit none of the built-in
//! kinds covers — and feed it to the detection-matrix / reduction / exact
//! solver pipeline directly.

use set_covering_reseeding::prelude::*;
use set_covering_reseeding::setcover::{reduce, solve_with, ReducerConfig};

/// A Gray-code-sequencing TPG: the state register counts, the emitted
/// pattern is `gray(S) ⊕ θ`.
///
/// The paper's τ=0 convention is honoured: pattern 0 is θ itself (the
/// input register content drives the UUT first).
#[derive(Debug)]
struct GrayMixTpg {
    width: usize,
}

impl PatternGenerator for GrayMixTpg {
    fn width(&self) -> usize {
        self.width
    }

    fn name(&self) -> &str {
        "graymix"
    }

    fn expand(&self, triplet: &Triplet) -> Vec<BitVec> {
        assert_eq!(triplet.width(), self.width);
        let one = BitVec::from_u64(self.width, 1);
        let mut out = Vec::with_capacity(triplet.pattern_count());
        out.push(triplet.theta().clone());
        let mut state = triplet.delta().clone();
        for _ in 0..triplet.tau() {
            state = state.wrapping_add(&one);
            let gray = &state ^ &state.shr1();
            out.push(&gray ^ triplet.theta());
        }
        out
    }

    fn seed_for(&self, pattern: &BitVec, word_source: &mut dyn FnMut() -> u64) -> Triplet {
        assert_eq!(pattern.width(), self.width);
        let delta = BitVec::random_with(self.width, &mut *word_source);
        Triplet::new(delta, pattern.clone(), 0)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = genbench_generate(&genbench_profile("tiny64").unwrap(), 3);
    println!("UUT: {netlist}");
    let tpg = GrayMixTpg {
        width: netlist.inputs().len(),
    };

    // (ATPGTS, F) exactly as the standard flow does it
    let universe = FaultList::collapsed(&netlist);
    let atpg_result = Atpg::new(&netlist)?.run(&universe, &AtpgConfig::default());
    let target = universe.subset(&atpg_result.detected_ids());

    // initial reseeding with the custom TPG
    let flow = ReseedingFlow::new(&netlist)?;
    let (triplets, matrix) = flow.builder().matrix_for(
        &tpg,
        &atpg_result.patterns,
        &target,
        31,
        0xC0FFEE,
        0,
        MatrixBuild::Auto,
        SimdWidth::Auto,
    );
    println!(
        "custom-TPG detection matrix: {} x {} (density {:.3})",
        matrix.rows(),
        matrix.cols(),
        matrix.density()
    );

    // reduce + exact solve
    let reduction = reduce(&matrix, &ReducerConfig::default());
    let solution = solve_with(&matrix, &SolveConfig::default(), &reduction);
    println!("cover: {solution}");

    // verify by replay
    let chosen: Vec<usize> = solution.rows();
    let mut patterns = Vec::new();
    for &row in &chosen {
        patterns.extend(tpg.expand(&triplets[row]));
    }
    let detected = FaultSimulator::new(&netlist)?
        .run(&patterns, &target, 1)
        .detected;
    println!(
        "replay: {} / {} faults with {} triplets ({} patterns)",
        detected.count_ones(),
        target.len(),
        chosen.len(),
        patterns.len()
    );
    assert_eq!(detected.count_ones(), target.len());
    Ok(())
}
