//! Bit-parallel, event-driven single-fault-propagation simulator.
//!
//! Every simulation runs through one kernel: a width-generic block loop
//! over a [`BatchPlan`] that reports each row's detections into a small
//! result sink — OR-detect, first-index-min, or the dictionary (every hit
//! lane, no dropping). Single-stream simulation ([`FaultSimulator::run`],
//! [`FaultSimulator::dictionary`]) is the kernel on a one-row plan; the
//! Detection-Matrix builds call it on many-row plans, one block range at
//! a time.

use std::ops::Range;

use fbist_bits::{pack, BitMatrix, BitVec, SimWord};
use fbist_netlist::{CsrAdjacency, GateId, GateKind, Netlist};
use fbist_sim::{PackedSimulator, SimError};

use crate::batch::BatchPlan;
use crate::model::{Fault, FaultList, FaultSite};

/// Outcome of a fault-simulation run over an ordered pattern set.
#[derive(Debug, Clone)]
pub struct FaultSimResult {
    /// `detected.get(i)` — whether fault `i` of the list was detected.
    pub detected: BitVec,
    /// For each fault, the index of the first pattern that detects it.
    pub first_detection: Vec<Option<u32>>,
    /// Number of faults in the target list.
    pub total_faults: usize,
}

impl FaultSimResult {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.detected.count_ones()
    }

    /// Fault coverage in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected_count() as f64 / self.total_faults as f64
        }
    }

    /// Index one past the last pattern that *first*-detects some fault —
    /// i.e. the length the pattern set can be trimmed to without losing
    /// coverage. Returns 0 if nothing is detected.
    ///
    /// This is exactly the per-triplet test-length trimming rule of the
    /// paper's Section 4 ("deleting from each test set the last subsequence
    /// of patterns not contributing to the fault coverage").
    pub fn useful_prefix_len(&self) -> usize {
        self.first_detection
            .iter()
            .flatten()
            .map(|&p| p as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Bit-parallel stuck-at fault simulator.
///
/// For every block of 64 patterns the good circuit is simulated once; each
/// fault is then *injected* and its effect propagated event-wise through
/// its fanout cone only, in topological order, stopping as soon as the
/// faulty values reconverge with the good ones. Detection is the lane-wise
/// XOR at the primary outputs.
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use fbist_fault::{FaultList, FaultSimulator};
/// use fbist_bits::BitVec;
///
/// let sim = FaultSimulator::new(&embedded::c17())?;
/// let faults = FaultList::collapsed(sim.netlist());
/// let res = sim.run(&[BitVec::ones(5)], &faults, 1);
/// assert!(res.coverage() > 0.0);
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultSimulator {
    sim: PackedSimulator,
    rank: Vec<u32>,
    /// Flat fanout/fanin adjacency and per-gate kinds: the propagation
    /// sweep's whole working set in contiguous arrays, instead of
    /// pointer-chasing through `Gate` structs (heap `Vec` + name `String`
    /// per gate).
    fo: CsrAdjacency,
    fi: CsrAdjacency,
    kinds: Vec<GateKind>,
    is_po: Vec<bool>,
}

/// Per-run scratch space, reused across faults and blocks; generic over
/// the SIMD width `W` of the faulty-value words.
///
/// The event queue is a bitset over topological *ranks*: enqueueing a gate
/// sets the bit of its rank, and the sweep pops bits in ascending rank
/// order with word scans. Ranks are unique, so this visits gates in
/// exactly the order a rank-keyed priority queue would — without any heap
/// traffic. Every bit is cleared as it is popped, so the bitset is empty
/// again when a propagation finishes and needs no per-fault reset.
struct Scratch<const W: usize> {
    faulty: Vec<SimWord<W>>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
    pending: Vec<u64>,
}

impl<const W: usize> Scratch<W> {
    fn new(n: usize) -> Scratch<W> {
        Scratch {
            faulty: vec![SimWord::ZERO; n],
            stamp: vec![0; n],
            epoch: 0,
            touched: Vec::new(),
            pending: vec![0; n.div_ceil(64)],
        }
    }

    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }
}

impl FaultSimulator {
    /// Builds a fault simulator for a combinational netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SequentialNetlist`] for sequential netlists
    /// (apply [`fbist_netlist::full_scan`] first) and [`SimError::Netlist`]
    /// for invalid ones.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        let sim = PackedSimulator::new(netlist)?;
        let mut rank = vec![0u32; netlist.gate_count()];
        for (i, &g) in sim.order().iter().enumerate() {
            rank[g.index()] = i as u32;
        }
        let mut is_po = vec![false; netlist.gate_count()];
        for &o in netlist.outputs() {
            is_po[o.index()] = true;
        }
        Ok(FaultSimulator {
            sim,
            rank,
            fo: netlist.fanouts_csr(),
            fi: netlist.fanins_csr(),
            kinds: netlist.kinds(),
            is_po,
        })
    }

    /// Gate `i`'s fanouts (CSR slice).
    #[inline]
    fn fanouts_of(&self, i: usize) -> &[GateId] {
        self.fo.of(i)
    }

    /// Gate `i`'s fanins (CSR slice).
    #[inline]
    fn fanins_of(&self, i: usize) -> &[GateId] {
        self.fi.of(i)
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// The underlying good-circuit simulator.
    pub fn good_simulator(&self) -> &PackedSimulator {
        &self.sim
    }

    /// Simulates one pattern stream against the fault list **with fault
    /// dropping**, recording each fault's first detecting pattern — the
    /// kernel on a one-row plan with the first-index-min sink, stopping as
    /// soon as every fault is dropped. `width_words` (`1`, `2`, `4` or
    /// `8` words per block) only changes throughput: lanes keep their
    /// flat stream order, so every width yields the identical result.
    ///
    /// # Panics
    ///
    /// Panics if `width_words` is unsupported or a pattern's width
    /// differs from the input count.
    pub fn run(
        &self,
        patterns: &[BitVec],
        faults: &FaultList,
        width_words: usize,
    ) -> FaultSimResult {
        self.single_row(patterns, faults, width_words)
    }

    /// Builds the full pattern × fault detection dictionary (no dropping):
    /// cell `(p, f)` is 1 iff pattern `p` detects fault `f` — the kernel
    /// on a one-row plan with the dictionary sink. Identical at every
    /// `width_words`.
    ///
    /// With the paper's triplet-expansion convention and `τ = 0`, this *is*
    /// the initial Detection Matrix.
    ///
    /// # Panics
    ///
    /// Panics if `width_words` is unsupported or a pattern's width
    /// differs from the input count.
    pub fn dictionary(
        &self,
        patterns: &[BitVec],
        faults: &FaultList,
        width_words: usize,
    ) -> BitMatrix {
        self.single_row(patterns, faults, width_words)
    }

    /// Simulates a consecutive range of a [`BatchPlan`]'s blocks and
    /// returns `(row, detected)` partials (the OR-detect sink) for the
    /// rows whose lane groups appear in the range. Rows straddling the
    /// range boundary come back partial; the union of the partials of any
    /// partition of the block axis is each row's detected set, which is
    /// what lets callers fan ranges out across a worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for the plan, a row referenced
    /// by the plan is missing from `rows`, or a pattern's width differs
    /// from the input count.
    pub fn detects_blocks(
        &self,
        plan: &BatchPlan,
        range: Range<usize>,
        rows: &[Vec<BitVec>],
        faults: &FaultList,
    ) -> Vec<(usize, BitVec)> {
        self.kernel(plan, range, rows, faults)
    }

    /// Sentinel first-detection index: the pair was never detected.
    ///
    /// The first-index-min sink stores it instead of `Option<u32>` so
    /// partials merge with a plain elementwise `min` (the sentinel is the
    /// identity of `min`). Real pattern indices are always `< u32::MAX`;
    /// the flow layer bounds `τ` far below that (`FlowConfig::MAX_TAU`).
    pub const NO_DETECTION: u32 = u32::MAX;

    /// Simulates a consecutive range of a [`BatchPlan`]'s blocks and
    /// returns `(row, first_indices)` partials (the first-index-min sink):
    /// for each row with lane groups in the range, the earliest detecting
    /// pattern index of the row's own stream *within the range* per fault
    /// ([`NO_DETECTION`](Self::NO_DETECTION) if the range detects nothing
    /// for that pair).
    ///
    /// This is the engine behind the single-simulation τ-sweep: detection
    /// at evolution length `τ` is a prefix property — a row detects fault
    /// `j` at `τ` iff its first index is `≤ τ` — so one pass at the
    /// largest `τ` yields every smaller τ's matrix by thresholding.
    /// Merging partials with [`merge_first_detections`] recovers the
    /// per-row indices for **any** partition of the block axis.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for the plan, a row referenced
    /// by the plan is missing from `rows`, or a pattern's width differs
    /// from the input count.
    pub fn first_detections_blocks(
        &self,
        plan: &BatchPlan,
        range: Range<usize>,
        rows: &[Vec<BitVec>],
        faults: &FaultList,
    ) -> Vec<(usize, Vec<u32>)> {
        self.kernel(plan, range, rows, faults)
    }

    /// The kernel on a one-row plan over `patterns`: the single-stream
    /// entry points' shared body.
    fn single_row<S: Sink>(
        &self,
        patterns: &[BitVec],
        faults: &FaultList,
        width_words: usize,
    ) -> S {
        let plan = BatchPlan::new(&[patterns.len()], width_words);
        self.kernel(&plan, 0..plan.block_count(), &[patterns], faults)
            .pop()
            .map_or_else(|| S::new(patterns.len(), faults.len()), |(_, sink)| sink)
    }

    /// The one fault-simulation kernel: dispatches on the plan's SIMD
    /// width to the monomorphised block loop.
    fn kernel<S: Sink, R: AsRef<[BitVec]>>(
        &self,
        plan: &BatchPlan,
        range: Range<usize>,
        rows: &[R],
        faults: &FaultList,
    ) -> Vec<(usize, S)> {
        match plan.width_words() {
            1 => self.block_loop::<1, S, R>(plan, range, rows, faults),
            2 => self.block_loop::<2, S, R>(plan, range, rows, faults),
            4 => self.block_loop::<4, S, R>(plan, range, rows, faults),
            8 => self.block_loop::<8, S, R>(plan, range, rows, faults),
            w => unreachable!("BatchPlan guarantees a supported width, got {w}"),
        }
    }

    /// The block loop: packs each shared block, evaluates the good
    /// circuit once, builds every fault's lane mask from the groups whose
    /// row sink still wants the fault (*masked dropping*), propagates only
    /// when the mask is nonzero, and reports each hit group to its row's
    /// sink — the group's lowest hit lane for dropping sinks, every hit
    /// lane for the dictionary. Lanes ascend in stream order, so the
    /// lowest hit lane is the group's earliest detecting pattern, and
    /// skipping a dropped `(row, fault)` pair can never change an
    /// OR-detect or a first-index-min result. Once every pair of the
    /// range is dropped the loop stops: later blocks can change nothing.
    fn block_loop<const W: usize, S: Sink, R: AsRef<[BitVec]>>(
        &self,
        plan: &BatchPlan,
        range: Range<usize>,
        rows: &[R],
        faults: &FaultList,
    ) -> Vec<(usize, S)> {
        let blocks = &plan.blocks()[range];
        let (Some(first), Some(last)) = (blocks.first(), blocks.last()) else {
            return Vec::new();
        };
        // Streams are concatenated in row order, so a block range touches
        // a consecutive row span.
        let first_row = first.groups[0].row as usize;
        let last_row = last.groups.last().expect("blocks are never empty").row as usize;
        let mut sinks: Vec<S> = (first_row..=last_row)
            .map(|r| S::new(rows[r].as_ref().len(), faults.len()))
            .collect();
        let mut undropped = if S::EVERY_LANE {
            usize::MAX
        } else {
            sinks.len() * faults.len()
        };

        let n = self.netlist().gate_count();
        let mut good = vec![SimWord::<W>::ZERO; n];
        let mut scratch = Scratch::<W>::new(n);
        let mut pi_words = vec![SimWord::<W>::ZERO; self.sim.input_count()];
        let mut masks: Vec<SimWord<W>> = Vec::new();
        for block in blocks {
            if undropped == 0 {
                break;
            }
            pi_words.fill(SimWord::ZERO);
            for g in &block.groups {
                let start = g.start as usize;
                pack::pack_patterns_at(
                    &mut pi_words,
                    g.lane_offset as usize,
                    &rows[g.row as usize].as_ref()[start..start + g.len as usize],
                );
            }
            self.sim.eval_block_into(&pi_words, &mut good);
            self.sim
                .record_occupancy(block.lanes_used, SimWord::<W>::LANES);
            masks.clear();
            masks.extend(block.groups.iter().map(|g| g.mask::<W>()));
            for (fid, fault) in faults.iter() {
                let fi = fid.index();
                let mut mask = SimWord::<W>::ZERO;
                for (g, &m) in block.groups.iter().zip(&masks) {
                    if sinks[g.row as usize - first_row].wants(fi) {
                        mask |= m;
                    }
                }
                if mask.is_zero() {
                    continue;
                }
                let det = self.propagate(&good, fault, &mut scratch) & mask;
                if det.is_zero() {
                    continue;
                }
                for (g, &m) in block.groups.iter().zip(&masks) {
                    let sink = &mut sinks[g.row as usize - first_row];
                    let mut hit = det & m;
                    while !hit.is_zero() {
                        sink.hit(
                            fi,
                            g.start + (hit.trailing_zeros() - u32::from(g.lane_offset)),
                        );
                        if !S::EVERY_LANE {
                            undropped -= 1;
                            break;
                        }
                        hit.clear_lowest();
                    }
                }
            }
        }
        sinks
            .into_iter()
            .enumerate()
            .map(|(i, sink)| (first_row + i, sink))
            .collect()
    }

    /// Injects `fault` into the good values of one block and returns the
    /// `64·W`-lane detection word (1 = some primary output differs in
    /// that lane). The caller masks invalid lanes.
    fn propagate<const W: usize>(
        &self,
        good: &[SimWord<W>],
        fault: Fault,
        s: &mut Scratch<W>,
    ) -> SimWord<W> {
        s.next_epoch();
        let netlist = self.sim.netlist();
        let forced_word = if fault.stuck_value() {
            SimWord::<W>::MAX
        } else {
            SimWord::<W>::ZERO
        };

        // Injection.
        let origin = match fault.site() {
            FaultSite::GateOutput(g) => {
                if forced_word == good[g.index()] {
                    return SimWord::ZERO; // never excited in this block
                }
                s.faulty[g.index()] = forced_word;
                s.stamp[g.index()] = s.epoch;
                s.touched.push(g.index() as u32);
                g
            }
            FaultSite::GateInput { gate, pin } => {
                let g = netlist.gate(gate);
                let v = eval_forced(g.kind(), g.fanin(), pin as usize, forced_word, |i| good[i]);
                if v == good[gate.index()] {
                    return SimWord::ZERO;
                }
                s.faulty[gate.index()] = v;
                s.stamp[gate.index()] = s.epoch;
                s.touched.push(gate.index() as u32);
                gate
            }
        };
        let mut min_w = usize::MAX;
        let mut max_w = 0usize;
        for &fo in self.fanouts_of(origin.index()) {
            let r = self.rank[fo.index()] as usize;
            s.pending[r >> 6] |= 1u64 << (r & 63);
            min_w = min_w.min(r >> 6);
            max_w = max_w.max(r >> 6);
        }

        // Event-driven sweep in topological rank order: pop set bits of
        // the pending bitset ascending. Each gate is visited at most once
        // (enqueued gates always rank above the gate that enqueues them),
        // so its fanins are final when its bit pops.
        let order = self.sim.order();
        let mut w = min_w;
        while w <= max_w {
            let word = s.pending[w];
            if word == 0 {
                w += 1;
                continue;
            }
            let b = word.trailing_zeros() as usize;
            s.pending[w] = word & (word - 1);
            let idx = order[(w << 6) | b].index();
            let kind = self.kinds[idx];
            if kind == GateKind::Dff {
                continue; // state boundary: effects stop at D pins
            }
            let epoch = s.epoch;
            let v = eval_mixed(kind, self.fanins_of(idx), |i| {
                if s.stamp[i] == epoch {
                    s.faulty[i]
                } else {
                    good[i]
                }
            });
            if v != good[idx] {
                s.faulty[idx] = v;
                s.stamp[idx] = epoch;
                s.touched.push(idx as u32);
                for &fo in self.fanouts_of(idx) {
                    let r = self.rank[fo.index()] as usize;
                    s.pending[r >> 6] |= 1u64 << (r & 63);
                    max_w = max_w.max(r >> 6);
                }
            }
        }

        // Detection: any touched primary output differing from good.
        let mut det = SimWord::<W>::ZERO;
        for &t in &s.touched {
            if self.is_po[t as usize] {
                det |= s.faulty[t as usize] ^ good[t as usize];
            }
        }
        det
    }
}

/// Where the kernel reports one row's hits. The sinks are the three jobs
/// fault simulation does here: OR-detect (`BitVec`, the Detection
/// Matrix), first-index-min and the dictionary (`BitMatrix`, every hit
/// lane). First-index-min comes in two forms: `Vec<u32>` with the
/// [`FaultSimulator::NO_DETECTION`] sentinel, whose partials merge by
/// `min` (the first-detection matrix), and [`FaultSimResult`] for a
/// single stream ([`FaultSimulator::run`]), which is filled in place.
trait Sink {
    /// Whether the sink takes every hit lane and never drops a fault.
    const EVERY_LANE: bool;
    /// An empty sink for a row of `patterns` patterns and `faults` faults.
    fn new(patterns: usize, faults: usize) -> Self;
    /// Whether fault `f` still needs simulating for this row.
    fn wants(&self, f: usize) -> bool;
    /// Records that the row's pattern `index` detects fault `f`.
    fn hit(&mut self, f: usize, index: u32);
}

impl Sink for BitVec {
    const EVERY_LANE: bool = false;
    fn new(_patterns: usize, faults: usize) -> Self {
        BitVec::zeros(faults)
    }
    fn wants(&self, f: usize) -> bool {
        !self.get(f)
    }
    fn hit(&mut self, f: usize, _index: u32) {
        self.set(f, true);
    }
}

impl Sink for Vec<u32> {
    const EVERY_LANE: bool = false;
    fn new(_patterns: usize, faults: usize) -> Self {
        vec![FaultSimulator::NO_DETECTION; faults]
    }
    fn wants(&self, f: usize) -> bool {
        self[f] == FaultSimulator::NO_DETECTION
    }
    fn hit(&mut self, f: usize, index: u32) {
        self[f] = index;
    }
}

impl Sink for FaultSimResult {
    const EVERY_LANE: bool = false;
    fn new(_patterns: usize, faults: usize) -> Self {
        FaultSimResult {
            detected: BitVec::zeros(faults),
            first_detection: vec![None; faults],
            total_faults: faults,
        }
    }
    fn wants(&self, f: usize) -> bool {
        !self.detected.get(f)
    }
    fn hit(&mut self, f: usize, index: u32) {
        self.detected.set(f, true);
        self.first_detection[f] = Some(index);
    }
}

impl Sink for BitMatrix {
    const EVERY_LANE: bool = true;
    fn new(patterns: usize, faults: usize) -> Self {
        BitMatrix::new(patterns, faults)
    }
    fn wants(&self, _f: usize) -> bool {
        true
    }
    fn hit(&mut self, f: usize, index: u32) {
        self.set(index as usize, f, true);
    }
}

/// Merges `(row, partial)` first-detection results into `acc` by
/// elementwise `min` — the one owner of the first-detection merge
/// semantics, for callers that fan
/// [`FaultSimulator::first_detections_blocks`] ranges out across a worker
/// pool. `min` is associative and commutative with
/// [`FaultSimulator::NO_DETECTION`] as identity, so any partition and any
/// merge order yield the same indices.
///
/// # Panics
///
/// Panics if a partial names a row `acc` does not have or differs from
/// its `acc` row in width.
pub fn merge_first_detections(
    acc: &mut [Vec<u32>],
    partials: impl IntoIterator<Item = (usize, Vec<u32>)>,
) {
    for (row, partial) in partials {
        assert_eq!(
            partial.len(),
            acc[row].len(),
            "first-detection partial for row {row} differs from the accumulator in width"
        );
        for (a, v) in acc[row].iter_mut().zip(&partial) {
            *a = (*a).min(*v);
        }
    }
}

/// Evaluates a gate reading width-`W` values through `read`.
#[inline]
fn eval_mixed<const W: usize>(
    kind: GateKind,
    fanin: &[GateId],
    read: impl Fn(usize) -> SimWord<W>,
) -> SimWord<W> {
    type S<const W: usize> = SimWord<W>;
    match kind {
        GateKind::And => fanin.iter().fold(S::MAX, |a, f| a & read(f.index())),
        GateKind::Nand => !fanin.iter().fold(S::MAX, |a, f| a & read(f.index())),
        GateKind::Or => fanin.iter().fold(S::ZERO, |a, f| a | read(f.index())),
        GateKind::Nor => !fanin.iter().fold(S::ZERO, |a, f| a | read(f.index())),
        GateKind::Xor => fanin.iter().fold(S::ZERO, |a, f| a ^ read(f.index())),
        GateKind::Xnor => !fanin.iter().fold(S::ZERO, |a, f| a ^ read(f.index())),
        GateKind::Not => !read(fanin[0].index()),
        GateKind::Buff => read(fanin[0].index()),
        GateKind::Const0 => S::ZERO,
        GateKind::Const1 => S::MAX,
        GateKind::Input | GateKind::Dff => unreachable!("sources are assigned"),
    }
}

/// Evaluates a gate with one input pin forced to a constant word.
#[inline]
fn eval_forced<const W: usize>(
    kind: GateKind,
    fanin: &[GateId],
    forced_pin: usize,
    forced_word: SimWord<W>,
    read: impl Fn(usize) -> SimWord<W>,
) -> SimWord<W> {
    type S<const W: usize> = SimWord<W>;
    let pin_val = |p: usize, f: &GateId| {
        if p == forced_pin {
            forced_word
        } else {
            read(f.index())
        }
    };
    match kind {
        GateKind::And => fanin
            .iter()
            .enumerate()
            .fold(S::MAX, |a, (p, f)| a & pin_val(p, f)),
        GateKind::Nand => !fanin
            .iter()
            .enumerate()
            .fold(S::MAX, |a, (p, f)| a & pin_val(p, f)),
        GateKind::Or => fanin
            .iter()
            .enumerate()
            .fold(S::ZERO, |a, (p, f)| a | pin_val(p, f)),
        GateKind::Nor => !fanin
            .iter()
            .enumerate()
            .fold(S::ZERO, |a, (p, f)| a | pin_val(p, f)),
        GateKind::Xor => fanin
            .iter()
            .enumerate()
            .fold(S::ZERO, |a, (p, f)| a ^ pin_val(p, f)),
        GateKind::Xnor => !fanin
            .iter()
            .enumerate()
            .fold(S::ZERO, |a, (p, f)| a ^ pin_val(p, f)),
        GateKind::Not => !forced_word,
        GateKind::Buff => forced_word,
        _ => unreachable!("input-pin faults exist only on gates with pins"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use fbist_bits::SIMD_WIDTHS;
    use fbist_genbench::{generate, profile};
    use fbist_netlist::{bench, embedded, full_scan, Netlist};

    /// Row shapes for the oracle checks: empty, sub-block, straddling a
    /// 64-lane boundary, exactly one block, and a row longer than a W = 4
    /// block; the 535 lanes in total straddle a W = 8 block too.
    const ROW_LENGTHS: [usize; 9] = [0, 4, 1, 60, 130, 7, 0, 300, 33];

    fn exhaustive_patterns(width: usize) -> Vec<BitVec> {
        (0..(1u64 << width))
            .map(|v| BitVec::from_u64(width, v))
            .collect()
    }

    /// Deterministic xorshift stream.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// One oracle case: a circuit, its full uncollapsed fault list (so
    /// every input-pin fault, including a pin stuck at its gate's
    /// controlling value, is checked), rows of random
    /// patterns shaped like [`ROW_LENGTHS`], and the naive reference's
    /// hits — `hits[row][fault]` lists the row-local index of every
    /// detecting pattern.
    struct Oracle {
        netlist: Netlist,
        faults: FaultList,
        rows: Vec<Vec<BitVec>>,
        hits: Vec<Vec<Vec<u32>>>,
    }

    /// The oracle cases on c17 and a scaled-down tiny64 mimic, computed
    /// once and shared by every oracle test.
    fn oracles() -> &'static [Oracle] {
        static ORACLES: std::sync::OnceLock<Vec<Oracle>> = std::sync::OnceLock::new();
        ORACLES.get_or_init(|| {
            let tiny = generate(&profile("tiny64").unwrap().scaled(0.5), 1);
            let tiny = if tiny.is_combinational() {
                tiny
            } else {
                full_scan(&tiny).into_combinational()
            };
            [embedded::c17(), tiny]
                .into_iter()
                .map(|netlist| {
                    let faults = FaultList::full(&netlist);
                    let mut next = xorshift(0x1234_5678_9ABC_DEF0);
                    let width = netlist.inputs().len();
                    let rows: Vec<Vec<BitVec>> = ROW_LENGTHS
                        .iter()
                        .map(|&len| {
                            (0..len)
                                .map(|_| BitVec::random_with(width, &mut next))
                                .collect()
                        })
                        .collect();
                    let hits = rows
                        .iter()
                        .map(|row| reference_hits(&netlist, row, &faults))
                        .collect();
                    Oracle {
                        netlist,
                        faults,
                        rows,
                        hits,
                    }
                })
                .collect()
        })
    }

    /// `[fault]` = the indices of the patterns the naive simulator says
    /// detect the fault.
    fn reference_hits(n: &Netlist, patterns: &[BitVec], faults: &FaultList) -> Vec<Vec<u32>> {
        let mut hits = vec![Vec::new(); faults.len()];
        for (p, pattern) in patterns.iter().enumerate() {
            let good = reference::evaluate(n, pattern, None);
            for (fid, fault) in faults.iter() {
                let bad = reference::evaluate(n, pattern, Some(fault));
                if n.outputs()
                    .iter()
                    .any(|o| good[o.index()] != bad[o.index()])
                {
                    hits[fid.index()].push(p as u32);
                }
            }
        }
        hits
    }

    impl Oracle {
        /// The rows as one stream, with the reference hits re-indexed to
        /// it.
        fn flat(&self) -> (Vec<BitVec>, Vec<Vec<u32>>) {
            let mut hits = vec![Vec::new(); self.faults.len()];
            let mut base = 0u32;
            for (row, row_hits) in self.rows.iter().zip(&self.hits) {
                for (f, h) in row_hits.iter().enumerate() {
                    hits[f].extend(h.iter().map(|&p| base + p));
                }
                base += row.len() as u32;
            }
            (self.rows.concat(), hits)
        }
    }

    /// Block-range partitions of `0..blocks`: whole, one block per range,
    /// and random cuts.
    fn partitions(blocks: usize, seed: u64) -> Vec<Vec<Range<usize>>> {
        let mut next = xorshift(seed);
        let mut out = vec![vec![0..blocks], (0..blocks).map(|b| b..b + 1).collect()];
        for _ in 0..3 {
            let mut ranges = Vec::new();
            let mut lo = 0;
            while lo < blocks {
                let hi = (lo + 1 + (next() % 3) as usize).min(blocks);
                ranges.push(lo..hi);
                lo = hi;
            }
            out.push(ranges);
        }
        out
    }

    #[test]
    fn run_matches_reference_at_every_width() {
        // first-index-min on one-row plans: each row alone, and all rows
        // as one stream
        for o in oracles() {
            let sim = FaultSimulator::new(&o.netlist).unwrap();
            let (flat, flat_hits) = o.flat();
            let streams = o.rows.iter().zip(&o.hits).chain([(&flat, &flat_hits)]);
            for (r, (row, hits)) in streams.enumerate() {
                for w in SIMD_WIDTHS {
                    let res = sim.run(row, &o.faults, w);
                    for (f, h) in hits.iter().enumerate() {
                        let at = format!("{} W={w} stream {r} fault {f}", o.netlist.name());
                        assert_eq!(res.first_detection[f], h.first().copied(), "{at}");
                        assert_eq!(res.detected.get(f), !h.is_empty(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn dictionary_matches_reference_at_every_width() {
        for o in oracles() {
            let sim = FaultSimulator::new(&o.netlist).unwrap();
            let (flat, hits) = o.flat();
            for w in SIMD_WIDTHS {
                let dict = sim.dictionary(&flat, &o.faults, w);
                assert_eq!(dict.rows(), flat.len());
                for (f, h) in hits.iter().enumerate() {
                    let cells: Vec<u32> = (0..flat.len() as u32)
                        .filter(|&p| dict.get(p as usize, f))
                        .collect();
                    assert_eq!(&cells, h, "{} W={w} fault {f}", o.netlist.name());
                }
            }
        }
    }

    #[test]
    fn block_sinks_match_reference_on_any_partition() {
        // OR-detect and first-index-min over shared blocks, merged across
        // every partition of the block axis
        for o in oracles() {
            let sim = FaultSimulator::new(&o.netlist).unwrap();
            let (rows, faults) = (&o.rows, &o.faults);
            for w in SIMD_WIDTHS {
                let plan = BatchPlan::new(&ROW_LENGTHS, w);
                for ranges in partitions(plan.block_count(), w as u64) {
                    let mut detected = vec![BitVec::zeros(faults.len()); rows.len()];
                    let mut firsts =
                        vec![vec![FaultSimulator::NO_DETECTION; faults.len()]; rows.len()];
                    for range in &ranges {
                        for (r, bits) in sim.detects_blocks(&plan, range.clone(), rows, faults) {
                            detected[r].union_with(&bits);
                        }
                        merge_first_detections(
                            &mut firsts,
                            sim.first_detections_blocks(&plan, range.clone(), rows, faults),
                        );
                    }
                    for (r, row_hits) in o.hits.iter().enumerate() {
                        for (f, h) in row_hits.iter().enumerate() {
                            let at =
                                format!("{} W={w} {ranges:?} row {r} fault {f}", o.netlist.name());
                            assert_eq!(detected[r].get(f), !h.is_empty(), "{at}");
                            let first = h.first().copied();
                            assert_eq!(
                                firsts[r][f],
                                first.unwrap_or(FaultSimulator::NO_DETECTION),
                                "{at}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn c17_exhaustive_full_coverage() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let res = sim.run(&exhaustive_patterns(5), &faults, 1);
        assert_eq!(res.detected_count(), faults.len(), "c17 is fully testable");
        assert!((res.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_stops_once_every_fault_is_dropped() {
        // the exhaustive set detects every c17 fault in its first block,
        // so the three repeats behind it are never evaluated
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let patterns: Vec<BitVec> = exhaustive_patterns(5)
            .into_iter()
            .cycle()
            .take(256)
            .collect();
        sim.good_simulator().reset_occupancy();
        let res = sim.run(&patterns, &faults, 1);
        assert_eq!(res.detected_count(), faults.len());
        assert_eq!(sim.good_simulator().occupancy().blocks, 1);
        // the dictionary never drops, so it evaluates all four blocks
        sim.good_simulator().reset_occupancy();
        let _ = sim.dictionary(&patterns, &faults, 1);
        assert_eq!(sim.good_simulator().occupancy().blocks, 4);
    }

    #[test]
    fn useful_prefix_trims_tail() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        // duplicate the whole set: the second half adds nothing
        let patterns: Vec<BitVec> = exhaustive_patterns(5)
            .into_iter()
            .cycle()
            .take(64)
            .collect();
        let res = sim.run(&patterns, &faults, 1);
        assert!(res.useful_prefix_len() <= 32);
        assert!(res.useful_prefix_len() > 0);
    }

    #[test]
    fn undetectable_fault_reported() {
        // y = OR(a, NOT(a)) is constant 1: y stuck-at-1 is undetectable.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let n = bench::parse(src).unwrap();
        let sim = FaultSimulator::new(&n).unwrap();
        let y = n.find("y").unwrap();
        let f = Fault::stuck_at(FaultSite::GateOutput(y), true);
        let faults = FaultList::from_faults(vec![f]);
        let res = sim.run(&exhaustive_patterns(1), &faults, 1);
        assert_eq!(res.detected_count(), 0);
        assert_eq!(res.first_detection[0], None);
    }

    #[test]
    fn input_pin_fault_differs_from_stem() {
        // a fans out to two XOR pins; branch fault flips one path only.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = XOR(a, b)\ny = BUFF(a)\n";
        let n = bench::parse(src).unwrap();
        let sim = FaultSimulator::new(&n).unwrap();
        let x = n.find("x").unwrap();
        let branch = Fault::stuck_at(FaultSite::GateInput { gate: x, pin: 0 }, false);
        let stem = Fault::stuck_at(FaultSite::GateOutput(n.find("a").unwrap()), false);
        let faults = FaultList::from_faults(vec![branch, stem]);
        // pattern a=1, b=0: branch fault flips x only; stem also flips y.
        let p: BitVec = "01".parse().unwrap();
        let dict = sim.dictionary(std::slice::from_ref(&p), &faults, 1);
        assert!(dict.get(0, 0));
        assert!(dict.get(0, 1));
        // now check with naive: branch fault must NOT affect y
        assert!(reference::naive_detects(&n, branch, &p));
    }

    #[test]
    fn batched_occupancy_beats_per_row() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        // 16 rows of 4 patterns (τ = 3 shape)
        let rows: Vec<Vec<BitVec>> = (0..16)
            .map(|r| (0..4u64).map(|v| BitVec::from_u64(5, v + r)).collect())
            .collect();
        sim.good_simulator().reset_occupancy();
        for row in &rows {
            let _ = sim.run(row, &faults, 1);
        }
        let per_row = sim.good_simulator().occupancy();
        assert_eq!(per_row.blocks, 16);
        assert!(per_row.ratio() < 0.1, "per-row ratio {}", per_row.ratio());

        sim.good_simulator().reset_occupancy();
        let plan = BatchPlan::new(&[4; 16], 1);
        let _ = sim.detects_blocks(&plan, 0..plan.block_count(), &rows, &faults);
        let batched = sim.good_simulator().occupancy();
        assert_eq!(batched.blocks, 1);
        assert_eq!(batched.ratio(), 1.0);
    }

    #[test]
    fn empty_pattern_set_detects_nothing() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let res = sim.run(&[], &faults, 1);
        assert_eq!(res.detected_count(), 0);
        assert_eq!(res.useful_prefix_len(), 0);
        assert_eq!(sim.dictionary(&[], &faults, 1).rows(), 0);
    }
}
