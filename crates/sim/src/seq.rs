//! Cycle-accurate sequential simulation.

use fbist_bits::{pack, BitVec, SimWord};
use fbist_netlist::{GateId, Netlist};

use crate::{sweep, SimError};

/// Sequential (flip-flop-aware) simulator, 64 lanes wide.
///
/// Each of the 64 bit lanes is an *independent* execution of the circuit:
/// the simulator keeps one [`SimWord<1>`] state word per flip-flop and
/// updates all lanes synchronously on every [`step`](SeqSimulator::step).
/// Lane 0 is the conventional single-machine view; the helper methods that
/// take and return [`BitVec`]s operate on lane 0.
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use fbist_sim::SeqSimulator;
/// use fbist_bits::BitVec;
///
/// // 3-bit Johnson counter: enabled, it cycles 000 → 001 → 011 → 111 → ...
/// let mut sim = SeqSimulator::new(&embedded::johnson3())?;
/// sim.reset();
/// let en = BitVec::ones(1);
/// for _ in 0..3 { sim.step_pattern(&en); }
/// assert_eq!(sim.state_pattern().count_ones(), 3); // q0=q1=q2=1
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SeqSimulator {
    netlist: Netlist,
    order: Vec<GateId>,
    values: Vec<SimWord<1>>,
}

impl SeqSimulator {
    /// Builds a sequential simulator. Accepts combinational netlists too
    /// (they simply have no state).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] if the netlist fails levelisation.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        let order = netlist.levelize()?;
        let values = vec![SimWord::ZERO; netlist.gate_count()];
        Ok(SeqSimulator {
            netlist: netlist.clone(),
            order,
            values,
        })
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Clears all state lanes to zero.
    pub fn reset(&mut self) {
        self.values.fill(SimWord::ZERO);
    }

    /// Sets the state register from one [`BitVec`] per flip-flop *for all
    /// lanes* (broadcast): bit `i` of `state` goes to flip-flop `i`.
    ///
    /// # Panics
    ///
    /// Panics if `state.width()` differs from the flip-flop count.
    pub fn load_state(&mut self, state: &BitVec) {
        assert_eq!(
            state.width(),
            self.netlist.dffs().len(),
            "state width must equal the flip-flop count"
        );
        for (i, &d) in self.netlist.dffs().iter().enumerate() {
            self.values[d.index()] = if state.get(i) {
                SimWord::MAX
            } else {
                SimWord::ZERO
            };
        }
    }

    /// The current state of lane 0, one bit per flip-flop.
    pub fn state_pattern(&self) -> BitVec {
        let mut s = BitVec::zeros(self.netlist.dffs().len());
        for (i, &d) in self.netlist.dffs().iter().enumerate() {
            if self.values[d.index()].lane(0) {
                s.set(i, true);
            }
        }
        s
    }

    /// Advances one clock cycle with packed primary-input words; returns the
    /// packed primary-output words observed *before* the state update
    /// (standard Mealy observation order: outputs of the current cycle).
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len()` differs from the input count.
    pub fn step(&mut self, pi_words: &[SimWord<1>]) -> Vec<SimWord<1>> {
        assert_eq!(
            pi_words.len(),
            self.netlist.inputs().len(),
            "one packed word per primary input required"
        );
        for (k, &pi) in self.netlist.inputs().iter().enumerate() {
            self.values[pi.index()] = pi_words[k];
        }
        sweep(&self.netlist, &self.order, &mut self.values);
        let outputs = self
            .netlist
            .outputs()
            .iter()
            .map(|o| self.values[o.index()])
            .collect();
        // Commit next state: Q <= D, synchronously.
        let next: Vec<SimWord<1>> = self
            .netlist
            .dffs()
            .iter()
            .map(|d| self.values[self.netlist.gate(*d).fanin()[0].index()])
            .collect();
        for (&d, v) in self.netlist.dffs().iter().zip(next) {
            self.values[d.index()] = v;
        }
        outputs
    }

    /// Lane-0 convenience wrapper around [`step`](SeqSimulator::step):
    /// applies one input pattern, returns the output pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the input count.
    pub fn step_pattern(&mut self, pattern: &BitVec) -> BitVec {
        let pi_words =
            pack::pack_patterns::<1>(self.netlist.inputs().len(), std::slice::from_ref(pattern));
        let po_words = self.step(&pi_words);
        pack::unpack_patterns(&po_words, 1).remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_netlist::bench;
    use fbist_netlist::embedded;

    #[test]
    fn toggle_ff() {
        let src = "OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n";
        let n = bench::parse(src).unwrap();
        let mut sim = SeqSimulator::new(&n).unwrap();
        sim.reset();
        let empty = BitVec::zeros(0);
        let mut seen = Vec::new();
        for _ in 0..4 {
            let out = sim.step_pattern(&empty);
            seen.push(out.to_u64().unwrap());
        }
        // q starts 0; output observed before update: 0,1,0,1
        assert_eq!(seen, vec![0, 1, 0, 1]);
    }

    #[test]
    fn johnson_counter_sequence() {
        let mut sim = SeqSimulator::new(&embedded::johnson3()).unwrap();
        sim.reset();
        let en = BitVec::ones(1);
        let states: Vec<u64> = (0..6)
            .map(|_| {
                sim.step_pattern(&en);
                sim.state_pattern().to_u64().unwrap()
            })
            .collect();
        // d0 = !q2, d1 = q0, d2 = q1 : 000 -> 001 -> 011 -> 111 -> 110 -> 100 -> 000
        assert_eq!(states, vec![0b001, 0b011, 0b111, 0b110, 0b100, 0b000]);
    }

    #[test]
    fn disable_freezes_to_zero() {
        let mut sim = SeqSimulator::new(&embedded::johnson3()).unwrap();
        sim.load_state(&"111".parse().unwrap());
        let dis = BitVec::zeros(1);
        sim.step_pattern(&dis);
        assert!(sim.state_pattern().is_zero()); // ANDed with en=0
    }

    #[test]
    fn load_state_roundtrip() {
        let mut sim = SeqSimulator::new(&embedded::johnson3()).unwrap();
        let s: BitVec = "101".parse().unwrap();
        sim.load_state(&s);
        assert_eq!(sim.state_pattern(), s);
    }

    #[test]
    fn lanes_are_independent() {
        let src = "INPUT(x)\nOUTPUT(q)\nq = DFF(d)\nd = XOR(q, x)\n";
        let n = bench::parse(src).unwrap();
        let mut sim = SeqSimulator::new(&n).unwrap();
        sim.reset();
        // lane 0 gets x=1 every cycle; lane 1 gets x=0
        let words = vec![SimWord([0b01u64])];
        sim.step(&words);
        sim.step(&words);
        // After two cycles: lane0 q = 1^1 = 0 after second commit? q: 0->1->0
        let q = sim.netlist().dffs()[0];
        let v = sim.values[q.index()].0[0];
        assert_eq!(v & 0b11, 0b00);
        sim.step(&words);
        let v = sim.values[q.index()].0[0];
        assert_eq!(v & 0b11, 0b01); // lane0 toggled again, lane1 still 0
    }

    #[test]
    fn combinational_netlist_has_no_state() {
        let mut sim = SeqSimulator::new(&embedded::majority()).unwrap();
        let r = sim.step_pattern(&"111".parse().unwrap());
        assert_eq!(r.to_u64(), Some(0b01));
        assert_eq!(sim.state_pattern().width(), 0);
    }
}
