//! SOCRATES-style static learning: a learned-implication database.
//!
//! The direct [`Implicator`] only knows implications it
//! can reach by forward evaluation and the classical backward rules. This
//! module computes, once per netlist, the *indirect* implications those
//! rules miss, using two classic techniques:
//!
//! 1. **Contrapositive extraction.** For every net/value literal `net = v`
//!    the direct engine is run to a fixpoint; every consequence `w = u`
//!    yields the learned implication `w = ¬u ⇒ net = ¬v`. Forward
//!    propagation is complete but backward propagation is not, so many of
//!    these contrapositives are invisible to the direct engine.
//! 2. **Bounded recursive learning.** When the queried gate itself is
//!    *unjustified* at the fixpoint (output forced to a value no single
//!    pin yet explains) it defines a complete case split: for an
//!    AND-family gate forced to its controlled side, some free pin must
//!    carry the controlling value; for an XOR-family gate with free pins,
//!    the first free pin is 0 or 1. Each case is propagated separately
//!    (recursing up to the configured depth) and consequences common to
//!    every feasible case are sound consequences of the original literal.
//!    If *no* case is feasible the literal itself is impossible — the net
//!    is a learned constant. Splitting only the queried gate (not every
//!    unjustified gate in its cone) is deliberate: the cone gate's own
//!    query performs that split once, and pass 2's database replay
//!    imports the result everywhere it applies.
//!
//! # Database format
//!
//! The result is a CSR table over literals: literal `2·net + value` maps
//! to a sorted slice of implied literals in the same encoding, plus a
//! per-net table of learned global constants. The build runs two passes —
//! pass 1 learns from the direct engine alone, pass 2 re-queries every
//! literal *with the pass-1 database applied* so chains of indirect
//! implications are flattened into a closed consequence set. Queries are
//! therefore a single slice lookup with no propagation at all, which is
//! what lets PODEM consult the database after every implication step.
//!
//! The recursion depth is bounded ([`DEFAULT_RECURSION_DEPTH`] unless
//! [`LearnedImplications::learn_with_depth`] says otherwise) and each
//! query case-splits at most `SPLIT_CAP` gates of at most `CASE_CAP`
//! cases each, so the build stays a small fraction of one ATPG run.
//!
//! Everything recorded is a property of the *fault-free* circuit and is
//! validated against exhaustive truth-table simulation by the soundness
//! proptests in `tests/analyze_equivalence.rs`.

use fbist_fault::{Fault, FaultList, FaultSite};
use fbist_netlist::{GateId, GateKind, Netlist, NetlistError};

use crate::implication::{eval_gate, tv_definite, tv_from_bool, Implicator, TV_X};

/// Recursion depth used by [`LearnedImplications::learn`]: one level of
/// case splitting, the SOCRATES sweet spot (deeper levels cost quadratic
/// build time for sharply diminishing returns).
pub const DEFAULT_RECURSION_DEPTH: usize = 1;

/// At most this many root gates are case-split per query — a
/// deterministic cost bound (single-literal queries, the only kind the
/// builder issues, split at most one gate regardless).
const SPLIT_CAP: usize = 2;

/// Gates with more candidate cases than this are skipped: wide splits are
/// expensive and rarely share consequences across all cases.
const CASE_CAP: usize = 8;

/// Worklist-pop cap per split case. A case assumption can flood a huge
/// forward cone whose far reaches the cross-case intersection discards
/// anyway; stopping early is sound (the partial delta only shrinks the
/// learned commons, and an unreached contradiction is conservatively
/// treated as feasible) and keeps the worst-case split cost flat.
const CASE_POP_BUDGET: usize = 1024;

/// The learned-implication database: for every literal, the closed set of
/// literals it implies in the fault-free circuit, plus learned global
/// constants. Build once per netlist with [`LearnedImplications::learn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnedImplications {
    nets: usize,
    /// CSR row starts, indexed by literal (`2·net + value`), length
    /// `2·nets + 1`.
    offsets: Vec<u32>,
    /// Implied literals, ascending within each row.
    lits: Vec<u32>,
    /// Per-net proven constants (baseline constant propagation plus
    /// constants discovered by learning).
    constants: Vec<Option<bool>>,
    /// Constants beyond the plain propagation baseline.
    learned_constants: usize,
    depth: usize,
}

impl LearnedImplications {
    /// Learns the database at [`DEFAULT_RECURSION_DEPTH`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn learn(netlist: &Netlist) -> Result<LearnedImplications, NetlistError> {
        LearnedImplications::learn_with_depth(netlist, DEFAULT_RECURSION_DEPTH)
    }

    /// Learns the database with an explicit recursion-depth bound
    /// (`depth = 0` disables case splitting and keeps only
    /// contrapositives and implication chaining).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn learn_with_depth(
        netlist: &Netlist,
        depth: usize,
    ) -> Result<LearnedImplications, NetlistError> {
        let mut imp = Implicator::new(netlist)?;
        let n = netlist.gate_count();
        let baseline = imp.baseline_constants();
        let baseline_count = baseline.iter().filter(|c| c.is_some()).count();

        // Pass 1: direct + recursive consequences and their contrapositives.
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); 2 * n];
        let mut constants = baseline;
        for net in 0..n {
            for v in [false, true] {
                if constants[net].is_some() {
                    break;
                }
                match recursive_consequences(&mut imp, &[(net as u32, v)], depth, None) {
                    None => record_constant(&mut imp, &mut constants, net, !v),
                    Some(lits) => {
                        let from = lit(net as u32, v);
                        for &l in &lits {
                            if (l >> 1) as usize == net {
                                continue;
                            }
                            rows[from as usize].push(l);
                            // Contrapositive: `w = ¬u ⇒ net = ¬v`.
                            rows[(l ^ 1) as usize].push(from ^ 1);
                        }
                    }
                }
            }
        }
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
        }
        let db1 = LearnedImplications::from_rows(n, rows, constants, baseline_count, depth);

        // Pass 2: re-query every literal with the pass-1 database applied —
        // including the case splits, which now run over learned
        // implications. This both flattens indirect chains (a ⇒ b learned,
        // b ⇒ c direct gives a ⇒ c) into one closed row per literal and
        // catches contradictions only visible when a split branch fires a
        // learned row (e.g. `XOR(w, z)` with `w ≡ z` proven by pass 1 is
        // now a learned constant 0).
        let mut rows2: Vec<Vec<u32>> = vec![Vec::new(); 2 * n];
        let mut constants2 = db1.constants.clone();
        for net in 0..n {
            for v in [false, true] {
                if constants2[net].is_some() {
                    break;
                }
                match recursive_consequences(&mut imp, &[(net as u32, v)], depth, Some(&db1)) {
                    None => record_constant(&mut imp, &mut constants2, net, !v),
                    Some(lits) => {
                        rows2[lit(net as u32, v) as usize] = lits
                            .into_iter()
                            .filter(|&l| {
                                let w = (l >> 1) as usize;
                                // Consequences on constant nets are global
                                // truths, not implications — drop them.
                                w != net && db1.constants[w].is_none()
                            })
                            .collect();
                    }
                }
            }
        }
        Ok(LearnedImplications::from_rows(
            n,
            rows2,
            constants2,
            baseline_count,
            depth,
        ))
    }

    fn from_rows(
        nets: usize,
        rows: Vec<Vec<u32>>,
        constants: Vec<Option<bool>>,
        baseline_count: usize,
        depth: usize,
    ) -> LearnedImplications {
        let mut offsets = Vec::with_capacity(2 * nets + 1);
        let mut lits = Vec::new();
        offsets.push(0u32);
        for row in &rows {
            lits.extend_from_slice(row);
            offsets.push(lits.len() as u32);
        }
        let learned_constants = constants.iter().filter(|c| c.is_some()).count() - baseline_count;
        LearnedImplications {
            nets,
            offsets,
            lits,
            constants,
            learned_constants,
            depth,
        }
    }

    /// Everything `net = value` implies, as `(net, value)` pairs in
    /// ascending net order.
    pub fn implied(&self, net: GateId, value: bool) -> impl Iterator<Item = (GateId, bool)> + '_ {
        self.implied_lits(net.index(), value)
            .iter()
            .map(|&l| (GateId::from_index((l >> 1) as usize), l & 1 == 1))
    }

    /// The proven constant value of a net, if any (baseline constant
    /// propagation or learned).
    pub fn constant(&self, net: GateId) -> Option<bool> {
        self.constants[net.index()]
    }

    /// Total number of stored implications.
    pub fn implication_count(&self) -> usize {
        self.lits.len()
    }

    /// Number of nets proven constant *beyond* plain constant propagation.
    pub fn learned_constant_count(&self) -> usize {
        self.learned_constants
    }

    /// The recursion-depth bound the database was built with.
    pub fn recursion_depth(&self) -> usize {
        self.depth
    }

    /// Number of nets in the underlying netlist.
    pub fn net_count(&self) -> usize {
        self.nets
    }

    pub(crate) fn implied_lits(&self, net: usize, value: bool) -> &[u32] {
        let l = lit(net as u32, value) as usize;
        &self.lits[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    pub(crate) fn constant_index(&self, net: usize) -> Option<bool> {
        self.constants[net]
    }
}

#[inline]
fn lit(net: u32, value: bool) -> u32 {
    net * 2 + value as u32
}

/// Records `net` as the learned constant `value`, then propagates the
/// constant once: every consequence of a global constant is itself a
/// global constant.
fn record_constant(imp: &mut Implicator, constants: &mut [Option<bool>], net: usize, value: bool) {
    constants[net] = Some(value);
    if let Some(lits) = imp.consequences_with(&[(net as u32, value)], None) {
        for &l in &lits {
            let w = (l >> 1) as usize;
            if constants[w].is_none() {
                constants[w] = Some(l & 1 == 1);
            }
        }
    }
}

/// Propagates `assumptions` and returns the consequence literals, case
/// splitting unjustified gates up to `depth` levels. `None` means the
/// assumptions are contradictory.
///
/// The whole query runs as one incremental [`Implicator`] session: the
/// base fixpoint is propagated once and every case only pays for its own
/// delta before being rewound, which is what keeps depth-1 learning a
/// small multiple of the direct depth-0 sweep instead of a ~50× blowup
/// (one full re-propagation per case per split).
fn recursive_consequences(
    imp: &mut Implicator,
    assumptions: &[(u32, bool)],
    depth: usize,
    db: Option<&LearnedImplications>,
) -> Option<Vec<u32>> {
    if !imp.begin_fixpoint(assumptions, db) {
        return None;
    }
    if depth > 0 && !refine_live_fixpoint(imp, assumptions, depth, db) {
        return None;
    }
    let mut lits: Vec<u32> = imp.trail_lits(0).collect();
    lits.sort_unstable();
    Some(lits)
}

/// Case-splits the *root* gates of the live fixpoint — the assumed
/// literals themselves, when unjustified — and pushes the consequences
/// shared by every feasible case back onto it, recursing `depth` levels.
/// Returns `false` when the fixpoint's assumptions are proven impossible
/// — some complete split has no feasible case, or a shared consequence
/// contradicts. The session stays live either way; rewinding is the
/// caller's business.
///
/// Restricting the split to the roots (rather than every unjustified
/// gate in the trail) is what keeps the build linear in practice: a gate
/// `g` that turns up unjustified deep inside some other literal's cone
/// gets its split done exactly once — by `g`'s own query — and the
/// learned row `g = v ⇒ …` is then replayed into every cone that settles
/// `g` when pass 2 re-queries with the database applied. Only the
/// context-*sensitive* splits (whose shared consequences depend on the
/// surrounding cone) are lost, and those are empirically negligible at
/// half the build cost.
fn refine_live_fixpoint(
    imp: &mut Implicator,
    roots: &[(u32, bool)],
    depth: usize,
    db: Option<&LearnedImplications>,
) -> bool {
    let mut candidates: Vec<usize> = Vec::new();
    for &(g, _) in roots.iter() {
        if candidates.len() >= SPLIT_CAP {
            break;
        }
        let g = g as usize;
        if imp
            .definite(g)
            .is_some_and(|out| case_split(imp, g, out).is_some())
        {
            candidates.push(g);
        }
    }
    for g in candidates {
        // Re-derive the split at the live fixpoint: consequences pushed by
        // an earlier split may have justified this gate (or settled some
        // of its pins) in the meantime.
        let Some(out) = imp.definite(g) else { continue };
        let Some(cases) = case_split(imp, g, out) else {
            continue;
        };
        let mark = imp.mark();
        let mut common: Option<Vec<u32>> = None;
        for &(pin, val) in &cases {
            let mut ok = imp.assume_budgeted(pin, val, db, CASE_POP_BUDGET);
            if ok && depth > 1 {
                ok = refine_live_fixpoint(imp, &[(pin, val)], depth - 1, db);
            }
            if ok {
                let mut cl: Vec<u32> = imp.trail_lits(mark).collect();
                cl.sort_unstable();
                // An infeasible case contributes the universe to the
                // intersection, i.e. drops out of it.
                common = Some(match common {
                    None => cl,
                    Some(prev) => intersect_sorted(&prev, &cl),
                });
            }
            imp.undo_to(mark);
        }
        let Some(common) = common else {
            // Every case of a complete split is impossible, so the
            // assumptions are too.
            return false;
        };
        for &l in &common {
            if !imp.assume(l >> 1, l & 1 == 1, db) {
                // A shared consequence of a complete split is a true
                // consequence of the assumptions; contradicting it
                // refutes them.
                return false;
            }
        }
    }
    true
}

/// If gate `g`, whose output is definite `out` at the current fixpoint, is
/// *unjustified*, returns the complete case split that justifies it: each
/// case is one `(pin_net, value)` assumption and every consistent total
/// assignment satisfies at least one case.
fn case_split(imp: &Implicator, g: usize, out: bool) -> Option<Vec<(u32, bool)>> {
    let kind = imp.gate_kind(g);
    match kind {
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let ctrl = kind.controlling_value().expect("and/or family");
            // Only the controlled side needs a justifying pin.
            if (out != kind.is_inverting()) != ctrl {
                return None;
            }
            let mut cases = Vec::new();
            for &p in imp.gate_fanin(g) {
                match imp.definite(p as usize) {
                    Some(b) if b == ctrl => return None, // already justified
                    Some(_) => {}
                    None => cases.push((p, ctrl)),
                }
            }
            // One free pin is handled by the direct backward rule; wide
            // splits rarely agree and cost a query per case.
            if cases.len() < 2 || cases.len() > CASE_CAP {
                return None;
            }
            Some(cases)
        }
        GateKind::Xor | GateKind::Xnor => {
            // The first free pin being 0 or 1 is a complete split; with
            // fewer than two free pins parity completion already decides.
            let mut free = None;
            let mut free_count = 0;
            for &p in imp.gate_fanin(g) {
                if imp.definite(p as usize).is_none() {
                    free_count += 1;
                    if free.is_none() {
                        free = Some(p);
                    }
                }
            }
            if free_count < 2 {
                return None;
            }
            free.map(|p| vec![(p, false), (p, true)])
        }
        _ => None,
    }
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Implication-proved relations between stuck-at faults, beyond what
/// structural collapse sees.
///
/// Both rules apply to a stem `s` whose every fanout pin lands on one
/// combinational gate `g` (output `o`) and which is not itself a primary
/// output — then the only divergence point between the `(s, v)`-faulty
/// circuit and the good circuit that downstream logic can see is `o`:
///
/// * **Equivalence.** If locally evaluating `g` with the `s` pins at `v`
///   and every other pin at X forces `o = u`, the faulty circuits of
///   `(s, v)` and `(o, u)` compute identical functions at every primary
///   output, so the faults share their exact test set. This covers
///   duplicated-pin gates (`o = AND(s, s)`) that structural collapse
///   must not merge pin-by-pin.
/// * **Dominance.** If the database knows `s = ¬v ⇒ o = c` in the good
///   circuit, every test for `(s, v)` excites `s = ¬v`, observes the
///   effect through `o` (good `o = c`, faulty `o = ¬c`), and therefore
///   also detects `(o, ¬c)`: `tests(s,v) ⊆ tests(o,¬c)`. An untestable
///   dominator hence proves the dominated fault untestable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultRelations {
    /// Representative fault index per fault after merging
    /// implication-proved equivalences (identity where nothing merged).
    pub class_of: Vec<u32>,
    /// `(dominator, dominated)` pairs: `tests(dominated) ⊆
    /// tests(dominator)`.
    pub dominances: Vec<(u32, u32)>,
}

/// Derives implication-based equivalence and dominance relations between
/// the given faults from a learned database. Sound and deliberately
/// incomplete; both rules are validated against exhaustive simulation by
/// the proptests in `tests/analyze_equivalence.rs`.
pub fn fault_relations(
    netlist: &Netlist,
    faults: &FaultList,
    db: &LearnedImplications,
) -> FaultRelations {
    let nf = faults.len();
    // Sorted lookup table instead of a hash map: `Fault: Ord`, and a
    // binary search keeps the pass free of nondeterministic iteration.
    let mut index: Vec<(Fault, u32)> = faults
        .iter()
        .map(|(id, f)| (f, id.index() as u32))
        .collect();
    index.sort_unstable();
    let find = |f: Fault| -> Option<u32> {
        index
            .binary_search_by(|(probe, _)| probe.cmp(&f))
            .ok()
            .map(|i| index[i].1)
    };

    let fanouts = netlist.fanouts();
    let mut is_po = vec![false; netlist.gate_count()];
    for &o in netlist.outputs() {
        is_po[o.index()] = true;
    }

    let mut uf: Vec<u32> = (0..nf as u32).collect();
    let mut dominances = Vec::new();
    for (s_id, s_gate) in netlist.iter() {
        let s = s_id.index();
        if is_po[s] || fanouts[s].is_empty() || s_gate.kind() == GateKind::Dff {
            continue;
        }
        let g_id = fanouts[s][0];
        if fanouts[s].iter().any(|&f| f != g_id) {
            continue; // fans out to more than one gate
        }
        let g = netlist.gate(g_id);
        if matches!(g.kind(), GateKind::Dff | GateKind::Input) {
            continue;
        }
        for v in [false, true] {
            let Some(sub) = find(Fault::stuck_at(FaultSite::GateOutput(s_id), v)) else {
                continue;
            };
            // Equivalence: local forcing of g by the s pins alone.
            let forced = eval_gate(
                g.kind(),
                g.fanin()
                    .iter()
                    .map(|&p| if p == s_id { tv_from_bool(v) } else { TV_X }),
            );
            if let Some(u) = tv_definite(forced) {
                if let Some(rep) = find(Fault::stuck_at(FaultSite::GateOutput(g_id), u)) {
                    union(&mut uf, sub, rep);
                }
                continue;
            }
            // Dominance: the good circuit implies s = ¬v ⇒ o = c.
            let dom = db
                .implied(s_id, !v)
                .find(|&(w, _)| w == g_id)
                .and_then(|(_, c)| find(Fault::stuck_at(FaultSite::GateOutput(g_id), !c)));
            if let Some(dom) = dom {
                dominances.push((dom, sub));
            }
        }
    }

    // Path-compress to canonical (minimum-index) representatives.
    let class_of = (0..nf as u32).map(|i| root(&mut uf, i)).collect();
    FaultRelations {
        class_of,
        dominances,
    }
}

fn root(uf: &mut [u32], mut i: u32) -> u32 {
    while uf[i as usize] != i {
        let p = uf[i as usize];
        uf[i as usize] = uf[p as usize];
        i = p;
    }
    i
}

fn union(uf: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (root(uf, a), root(uf, b));
    // Point the larger root at the smaller so representatives are the
    // minimum index of their class — stable across build order.
    if ra < rb {
        uf[rb as usize] = ra;
    } else {
        uf[ra as usize] = rb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_netlist::bench;

    fn db(src: &str) -> (LearnedImplications, Netlist) {
        let n = bench::parse(src).unwrap();
        (LearnedImplications::learn(&n).unwrap(), n)
    }

    #[test]
    fn contrapositive_is_learned() {
        // a=1 ⇒ y=1 directly (OR). The contrapositive y=0 ⇒ a=0 is a
        // backward implication the direct engine also knows — but via the
        // database it must now be a recorded consequence.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n";
        let (db, n) = db(src);
        let (a, y) = (n.find("a").unwrap(), n.find("y").unwrap());
        let implied: Vec<_> = db.implied(y, false).collect();
        assert!(implied.contains(&(a, false)), "{implied:?}");
    }

    #[test]
    fn indirect_implication_is_learned() {
        // Classic SOCRATES example: y = AND(OR(a,b), OR(a,c)). Direct
        // propagation cannot see a=1 ⇒ y=1... but wait, forward eval can:
        // a=1 forces both ORs. The genuinely indirect one is the
        // contrapositive y=0 ⇒ a=0, which needs learning because backward
        // justification of y=0 has two candidate pins.
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
                   o1 = OR(a, b)\no2 = OR(a, c)\ny = AND(o1, o2)\n";
        let (db, n) = db(src);
        let (a, y) = (n.find("a").unwrap(), n.find("y").unwrap());
        let implied: Vec<_> = db.implied(y, false).collect();
        assert!(implied.contains(&(a, false)), "{implied:?}");
    }

    #[test]
    fn recursive_learning_finds_case_split_consequences() {
        // w and z compute the same XOR. Neither direction is visible to
        // the direct engine: with the output definite both gates still
        // have two free pins, so no backward rule fires and no
        // contrapositive exists to extract. Only the case split on the
        // first free pin (x2 = 0 forces x1 = 1 forces z = 1; x2 = 1
        // symmetrically) proves w=1 ⇒ z=1.
        let src = "INPUT(x1)\nINPUT(x2)\nOUTPUT(w)\nOUTPUT(z)\n\
                   w = XOR(x2, x1)\nz = XOR(x1, x2)\n";
        let (db, n) = db(src);
        let (w, z) = (n.find("w").unwrap(), n.find("z").unwrap());
        let implied: Vec<_> = db.implied(w, true).collect();
        assert!(implied.contains(&(z, true)), "{implied:?}");
        // And at depth 0 the split is off, so the implication is missed.
        let db0 = LearnedImplications::learn_with_depth(&n, 0).unwrap();
        let implied0: Vec<_> = db0.implied(w, true).collect();
        assert!(!implied0.contains(&(z, true)), "{implied0:?}");
    }

    #[test]
    fn contradictory_case_split_learns_a_constant() {
        // y = AND(a, NOT a) is constant 0 — the direct engine proves the
        // y=1 assumption contradictory and learning records the constant.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = AND(a, na)\n";
        let (db, n) = db(src);
        assert_eq!(db.constant(n.find("y").unwrap()), Some(false));
        assert_eq!(db.constant(n.find("a").unwrap()), None);
        assert!(db.learned_constant_count() >= 1);
    }

    #[test]
    fn pass_two_chains_implications() {
        // w=0 ⇒ y=0 needs the learned y=1 ⇒ w=1 contrapositive chained
        // with direct rules across two reconvergent stages.
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
                   o1 = OR(a, b)\no2 = OR(a, c)\nw = AND(o1, o2)\ny = BUFF(w)\n";
        let (db, n) = db(src);
        let (a, y) = (n.find("a").unwrap(), n.find("y").unwrap());
        let implied: Vec<_> = db.implied(y, false).collect();
        assert!(implied.contains(&(a, false)), "{implied:?}");
    }

    #[test]
    fn duplicated_pin_equivalence_is_found() {
        // o = AND(s, s): s/0 ≡ o/0 and s/1 ≡ o/1, neither of which
        // structural collapse may merge pin-by-pin.
        let src = "INPUT(a)\nOUTPUT(o)\ns = BUFF(a)\no = AND(s, s)\n";
        let n = bench::parse(src).unwrap();
        let faults = FaultList::full(&n);
        let db = LearnedImplications::learn(&n).unwrap();
        let rel = fault_relations(&n, &faults, &db);
        let (s, o) = (n.find("s").unwrap(), n.find("o").unwrap());
        for v in [false, true] {
            let fs = faults
                .position(&Fault::stuck_at(FaultSite::GateOutput(s), v))
                .unwrap();
            let fo = faults
                .position(&Fault::stuck_at(FaultSite::GateOutput(o), v))
                .unwrap();
            assert_eq!(
                rel.class_of[fs.index()],
                rel.class_of[fo.index()],
                "s/{} should merge with o/{}",
                v as u8,
                v as u8
            );
        }
    }

    #[test]
    fn dominance_through_an_or_side_input() {
        // o = OR(s, b): s/0 is dominated by o/0 (every test for s/0 sets
        // s=1, which forces o=1 good / o=0 faulty — Rule D with c = 1).
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(o)\ns = BUFF(a)\no = OR(s, b)\n";
        let n = bench::parse(src).unwrap();
        let faults = FaultList::full(&n);
        let db = LearnedImplications::learn(&n).unwrap();
        let rel = fault_relations(&n, &faults, &db);
        let s = n.find("s").unwrap();
        let o = n.find("o").unwrap();
        let sub = faults
            .position(&Fault::stuck_at(FaultSite::GateOutput(s), false))
            .unwrap();
        let dom = faults
            .position(&Fault::stuck_at(FaultSite::GateOutput(o), false))
            .unwrap();
        assert!(
            rel.dominances
                .contains(&(dom.index() as u32, sub.index() as u32)),
            "{:?}",
            rel.dominances
        );
    }

    #[test]
    fn po_stems_and_multi_gate_fanouts_are_excluded() {
        let src = "INPUT(a)\nOUTPUT(s)\nOUTPUT(o)\nOUTPUT(p)\n\
                   s = BUFF(a)\no = NOT(s)\nt = BUFF(a)\np = AND(t, a)\n";
        let n = bench::parse(src).unwrap();
        let faults = FaultList::full(&n);
        let db = LearnedImplications::learn(&n).unwrap();
        let rel = fault_relations(&n, &faults, &db);
        // s is a PO: its stem faults must not merge with o's.
        let s = n.find("s").unwrap();
        for v in [false, true] {
            let fs = faults
                .position(&Fault::stuck_at(FaultSite::GateOutput(s), v))
                .unwrap();
            assert_eq!(rel.class_of[fs.index()], fs.index() as u32);
        }
        // a fans out to several gates: no stem relation may use rule E/D.
        let a = n.find("a").unwrap();
        for v in [false, true] {
            let fa = faults
                .position(&Fault::stuck_at(FaultSite::GateOutput(a), v))
                .unwrap();
            assert_eq!(rel.class_of[fa.index()], fa.index() as u32);
            assert!(rel
                .dominances
                .iter()
                .all(|&(_, sub)| sub != fa.index() as u32));
        }
    }

    #[test]
    fn database_is_deterministic() {
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
                   o1 = OR(a, b)\no2 = OR(a, c)\ny = AND(o1, o2)\n";
        let n = bench::parse(src).unwrap();
        let d1 = LearnedImplications::learn(&n).unwrap();
        let d2 = LearnedImplications::learn(&n).unwrap();
        assert_eq!(d1, d2);
    }
}
