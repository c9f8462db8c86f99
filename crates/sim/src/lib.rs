//! Gate-level logic simulation.
//!
//! Two simulators and a signature register, one per use case in the
//! reseeding flow:
//!
//! * [`PackedSimulator`] — bit-parallel combinational simulation over
//!   [`SimWord<W>`] blocks (one `[u64; W]` per net carries `64·W`
//!   pattern lanes). This is the workhorse behind fault simulation and
//!   detection-matrix construction.
//! * [`SeqSimulator`] — cycle-accurate sequential simulation of netlists
//!   with flip-flops, 64 lanes wide (64 independent executions).
//! * [`Misr`] — multiple-input signature register for output-response
//!   compaction, the observation side of a real BIST datapath.
//!
//! # Example
//!
//! ```
//! use fbist_netlist::embedded;
//! use fbist_sim::PackedSimulator;
//! use fbist_bits::BitVec;
//!
//! let c17 = embedded::c17();
//! let sim = PackedSimulator::new(&c17)?;
//! let responses = sim.simulate_patterns(&[BitVec::ones(5)]);
//! assert_eq!(responses.len(), 1);
//! assert_eq!(responses[0].width(), 2);
//! # Ok::<(), fbist_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod misr;
mod packed;
mod seq;

pub use error::SimError;
pub use misr::Misr;
pub use packed::{LaneOccupancy, PackedSimulator};
pub use seq::SeqSimulator;

use fbist_bits::SimWord;
use fbist_netlist::{GateId, GateKind, Netlist};

/// Evaluates one gate over packed values stored in a flat per-net array:
/// one [`SimWord<W>`] per net carries `64·W` pattern lanes. The fold
/// bodies are plain `[u64; W]` array ops, which the autovectorizer lowers
/// to 128/256/512-bit SIMD.
///
/// This is the inner loop of every simulator in this crate; it avoids
/// materialising a fanin slice per gate.
#[inline]
pub(crate) fn eval_gate_packed<const W: usize>(
    kind: GateKind,
    fanin: &[GateId],
    values: &[SimWord<W>],
) -> SimWord<W> {
    type S<const W: usize> = SimWord<W>;
    match kind {
        GateKind::And => fanin.iter().fold(S::MAX, |a, f| a & values[f.index()]),
        GateKind::Nand => !fanin.iter().fold(S::MAX, |a, f| a & values[f.index()]),
        GateKind::Or => fanin.iter().fold(S::ZERO, |a, f| a | values[f.index()]),
        GateKind::Nor => !fanin.iter().fold(S::ZERO, |a, f| a | values[f.index()]),
        GateKind::Xor => fanin.iter().fold(S::ZERO, |a, f| a ^ values[f.index()]),
        GateKind::Xnor => !fanin.iter().fold(S::ZERO, |a, f| a ^ values[f.index()]),
        GateKind::Not => !values[fanin[0].index()],
        GateKind::Buff => values[fanin[0].index()],
        GateKind::Const0 => S::ZERO,
        GateKind::Const1 => S::MAX,
        GateKind::Input | GateKind::Dff => unreachable!("sources are assigned, not evaluated"),
    }
}

/// Evaluates every non-source gate of `netlist` in `order`, reading and
/// writing the flat `values` array. Input and DFF values must already be
/// assigned.
#[inline]
pub(crate) fn sweep<const W: usize>(
    netlist: &Netlist,
    order: &[GateId],
    values: &mut [SimWord<W>],
) {
    for &id in order {
        let g = netlist.gate(id);
        let k = g.kind();
        if k == GateKind::Input || k == GateKind::Dff {
            continue;
        }
        values[id.index()] = eval_gate_packed(k, g.fanin(), values);
    }
}
