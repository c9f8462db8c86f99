//! Independent verification of reseeding solutions.
//!
//! A [`ReseedingReport`] *claims* that its triplets cover the target fault
//! list. This module re-establishes that claim from scratch — fresh TPG,
//! fresh fault simulator, re-derived fault list — so a user (or a CI gate)
//! never has to trust the flow's internal bookkeeping. This is the
//! programmatic form of the "verification replay" the examples perform.

use fbist_fault::{FaultList, FaultSimulator};
use fbist_netlist::Netlist;
use fbist_sim::SimError;

use crate::config::{FlowConfig, TpgKind};
use crate::report::ReseedingReport;

/// Outcome of [`verify_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verification {
    /// Faults of the re-derived target list covered by the replayed
    /// solution.
    pub covered: usize,
    /// Size of the re-derived target list.
    pub target: usize,
    /// Total patterns replayed (must equal the report's test length).
    pub patterns: usize,
    /// `true` if the report's test length matches the replay.
    pub length_consistent: bool,
}

impl Verification {
    /// `true` when the solution fully covers the re-derived fault list and
    /// the bookkeeping is consistent.
    pub fn passed(&self) -> bool {
        self.covered == self.target && self.length_consistent
    }
}

/// Replays a report's triplets through a freshly built TPG and fault
/// simulator against a caller-supplied target fault list.
///
/// Use this form when the target list is already known (it avoids the
/// ATPG re-run of [`verify_report`]).
///
/// # Errors
///
/// Propagates [`SimError`] for invalid/sequential netlists.
pub fn verify_against(
    netlist: &Netlist,
    report: &ReseedingReport,
    tpg: TpgKind,
    target: &FaultList,
) -> Result<Verification, SimError> {
    let generator = tpg.build(netlist.inputs().len());
    let mut patterns = Vec::with_capacity(report.test_length());
    for sel in &report.selected {
        patterns.extend(generator.expand(&sel.triplet));
    }
    let fsim = FaultSimulator::new(netlist)?;
    let covered = fsim.run(&patterns, target, 1).detected_count();
    Ok(Verification {
        covered,
        target: target.len(),
        patterns: patterns.len(),
        length_consistent: patterns.len() == report.test_length(),
    })
}

/// Fully independent verification: re-derives the target fault list `F`
/// with a fresh ATPG run under `config`, then replays the report.
///
/// # Errors
///
/// Propagates [`SimError`] for invalid/sequential netlists.
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use reseed_core::{verify_report, FlowConfig, ReseedingFlow, TpgKind};
///
/// let netlist = embedded::c17();
/// let config = FlowConfig::new(TpgKind::Adder).with_tau(7);
/// let report = ReseedingFlow::new(&netlist)?.run(&config);
/// let v = verify_report(&netlist, &report, &config)?;
/// assert!(v.passed());
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
pub fn verify_report(
    netlist: &Netlist,
    report: &ReseedingReport,
    config: &FlowConfig,
) -> Result<Verification, SimError> {
    let universe = FaultList::collapsed(netlist);
    let atpg = fbist_atpg::Atpg::new(netlist)?;
    let result = atpg.run(&universe, &config.atpg);
    let target = universe.subset(&result.detected_ids());
    verify_against(netlist, report, config.tpg, &target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::ReseedingFlow;
    use fbist_netlist::embedded;

    #[test]
    fn verifies_a_correct_report() {
        let n = embedded::c17();
        let cfg = FlowConfig::new(TpgKind::Subtracter).with_tau(5);
        let report = ReseedingFlow::new(&n).unwrap().run(&cfg);
        let v = verify_report(&n, &report, &cfg).unwrap();
        assert!(v.passed(), "{v:?}");
        assert_eq!(v.patterns, report.test_length());
    }

    #[test]
    fn detects_a_corrupted_report() {
        let n = embedded::c17();
        let cfg = FlowConfig::new(TpgKind::Adder).with_tau(7);
        let mut report = ReseedingFlow::new(&n).unwrap().run(&cfg);
        // sabotage: drop a triplet but keep the claim
        let removed = report.selected.pop().expect("non-empty solution");
        report.covered_faults -= removed.new_faults;
        let v = verify_report(&n, &report, &cfg).unwrap();
        assert!(!v.passed(), "verification must catch the missing triplet");
        assert!(v.covered < v.target);
    }

    #[test]
    fn detects_inconsistent_length() {
        let n = embedded::c17();
        let cfg = FlowConfig::new(TpgKind::Adder).with_tau(7);
        let mut report = ReseedingFlow::new(&n).unwrap().run(&cfg);
        // sabotage the bookkeeping only
        report.selected[0].test_length += 1;
        let v = verify_report(&n, &report, &cfg).unwrap();
        assert!(!v.length_consistent);
        assert!(!v.passed());
    }

    #[test]
    fn wrong_tpg_kind_fails() {
        // replaying an adder solution through a multiplier must not cover
        let n = embedded::c17();
        let cfg = FlowConfig::new(TpgKind::Adder).with_tau(7);
        let report = ReseedingFlow::new(&n).unwrap().run(&cfg);
        let universe = FaultList::collapsed(&n);
        let atpg = fbist_atpg::Atpg::new(&n).unwrap();
        let target = universe.subset(&atpg.run(&universe, &cfg.atpg).detected_ids());
        let v = verify_against(&n, &report, TpgKind::Multiplier, &target).unwrap();
        // pattern 0 of each triplet is θ either way, so partial coverage
        // remains, but the evolved patterns differ; on c17's single-triplet
        // solutions this may or may not drop coverage — only assert that
        // verification runs and reports consistently.
        assert_eq!(v.patterns, report.test_length());
        assert!(v.covered <= v.target);
    }
}
