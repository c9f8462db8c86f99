//! Checkpoint fault lists.
//!
//! The *checkpoint theorem*: in a combinational circuit, a test set that
//! detects every stuck-at fault on the primary inputs and on the fanout
//! branches detects every single stuck-at fault of the circuit. The
//! checkpoints therefore form a sufficient (and usually much smaller)
//! target list — an alternative to equivalence collapsing with different
//! trade-offs (collapsing preserves the fault *set* exactly; checkpoints
//! shrink it further but only guarantee detection-equivalence).
//!
//! Provided here both as a practical reduced universe and as an oracle for
//! cross-checking the collapsing implementation (see the tests).

use fbist_netlist::{GateKind, Netlist};

use crate::model::{Fault, FaultList, FaultSite};

/// Builds the checkpoint fault list: both stuck-at polarities on every
/// primary input and on every fanout branch (an input pin whose source net
/// drives more than one pin).
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use fbist_fault::{checkpoint_faults, FaultList};
///
/// let c17 = embedded::c17();
/// let cps = checkpoint_faults(&c17);
/// let collapsed = FaultList::collapsed(&c17);
/// assert!(cps.len() <= collapsed.len());
/// ```
pub fn checkpoint_faults(netlist: &Netlist) -> FaultList {
    let mut faults = Vec::new();
    // primary inputs
    for (id, g) in netlist.iter() {
        if g.kind() == GateKind::Input {
            for v in [false, true] {
                faults.push(Fault::stuck_at(FaultSite::GateOutput(id), v));
            }
        }
    }
    // fanout branches: pins fed by nets that drive ≥ 2 pins
    let mut pin_count = vec![0usize; netlist.gate_count()];
    for (_, g) in netlist.iter() {
        for &f in g.fanin() {
            pin_count[f.index()] += 1;
        }
    }
    for (id, g) in netlist.iter() {
        if g.kind() == GateKind::Dff {
            continue;
        }
        for (pin, &src) in g.fanin().iter().enumerate() {
            if pin_count[src.index()] >= 2 {
                for v in [false, true] {
                    faults.push(Fault::stuck_at(
                        FaultSite::GateInput {
                            gate: id,
                            pin: pin as u32,
                        },
                        v,
                    ));
                }
            }
        }
    }
    FaultList::from_faults(faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FaultSimulator;
    use fbist_bits::BitVec;
    use fbist_netlist::{bench, embedded};

    fn exhaustive(width: usize) -> Vec<BitVec> {
        (0..(1u64 << width))
            .map(|v| BitVec::from_u64(width, v))
            .collect()
    }

    #[test]
    fn c17_checkpoint_count() {
        // c17: 5 PIs; nets 3 and 11 and 16 fan out (each feeds 2 pins)
        // → checkpoints = 5 PIs + 6 branch pins = 11 sites, 22 faults
        let n = embedded::c17();
        let cps = checkpoint_faults(&n);
        assert_eq!(cps.len(), 22);
    }

    #[test]
    fn checkpoint_theorem_on_embedded_circuits() {
        // a test set with full checkpoint coverage must have full coverage
        // of the complete (collapsed) universe — verified exhaustively
        for n in [embedded::c17(), embedded::majority()] {
            let w = n.inputs().len();
            let sim = FaultSimulator::new(&n).unwrap();
            let cps = checkpoint_faults(&n);
            let full = FaultList::collapsed(&n);
            let patterns = exhaustive(w);
            // build a minimal-ish pattern subset achieving checkpoint cover
            let run = sim.run(&patterns, &cps, 1);
            let subset: Vec<BitVec> = run
                .first_detection
                .iter()
                .flatten()
                .map(|&p| patterns[p as usize].clone())
                .collect();
            let cp_cov = sim.run(&subset, &cps, 1).detected_count();
            assert_eq!(
                cp_cov,
                cps.len(),
                "{}: checkpoint cover incomplete",
                n.name()
            );
            // theorem check: the subset also covers every detectable fault
            let full_cov = sim.run(&subset, &full, 1).detected_count();
            let full_all = sim.run(&patterns, &full, 1).detected_count();
            assert_eq!(
                full_cov,
                full_all,
                "{}: checkpoint-covering set missed faults",
                n.name()
            );
        }
    }

    #[test]
    fn fanout_free_circuit_has_only_pi_checkpoints() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = AND(a, b)\ny = NOT(m)\n";
        let n = bench::parse(src).unwrap();
        let cps = checkpoint_faults(&n);
        assert_eq!(cps.len(), 4, "2 PIs × 2 polarities only");
    }

    #[test]
    fn checkpoints_smaller_than_full_universe() {
        let n = embedded::adder4();
        assert!(checkpoint_faults(&n).len() < FaultList::full(&n).len());
    }
}
