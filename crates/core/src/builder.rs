//! The Initial Reseeding Builder (paper §3.1).
//!
//! Builds the starting solution `T` — one triplet per ATPG pattern — and
//! the Detection Matrix by fault-simulating each triplet's expanded test
//! set against the target fault list `F`.

use std::sync::atomic::{AtomicU64, Ordering};

use fbist_atpg::{Atpg, AtpgResult};
use fbist_bits::{pack, BitVec};
use fbist_fault::{BatchPlan, FaultList, FaultSimulator};
use fbist_netlist::Netlist;
use fbist_setcover::{DetectionMatrix, FirstDetectionMatrix};
use fbist_sim::SimError;
use fbist_tpg::{PatternGenerator, Triplet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{FlowConfig, MatrixBuild};
use fbist_bits::SimdWidth;

/// The simulation-independent half of an [`InitialReseeding`]: one shared
/// ATPG run and the target fault list it defines.
///
/// The τ-sweep builds this once and derives every point's triplets and
/// Detection Matrix from it — re-running ATPG per τ would change nothing
/// (the run does not depend on `τ`) and waste the sweep's dominant
/// fixed cost.
#[derive(Debug)]
pub struct AtpgBase {
    /// The raw ATPG outcome (pattern set, coverage, untestable faults…).
    pub atpg: AtpgResult,
    /// The target fault list `F` (the faults `ATPGTS` covers).
    pub target_faults: FaultList,
    /// The collapsed universe `F` was selected from.
    pub universe_size: usize,
}

/// The initial reseeding `T` plus everything derived while building it.
#[derive(Debug)]
pub struct InitialReseeding {
    /// One triplet per ATPG pattern (`θᵢ = pᵢ`, random `δᵢ`, common `τ`).
    pub triplets: Vec<Triplet>,
    /// The Detection Matrix: rows = triplets, columns = faults of `F`.
    pub matrix: DetectionMatrix,
    /// The target fault list `F` (the faults `ATPGTS` covers).
    pub target_faults: FaultList,
    /// The collapsed universe `F` was selected from.
    pub universe_size: usize,
    /// The raw ATPG outcome (pattern set, coverage, untestable faults…).
    pub atpg: AtpgResult,
}

impl InitialReseeding {
    /// Number of initial triplets `M` (= `|ATPGTS|`).
    pub fn triplet_count(&self) -> usize {
        self.triplets.len()
    }
}

/// Builder for [`InitialReseeding`]. See the module docs.
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use reseed_core::{FlowConfig, InitialReseedingBuilder, TpgKind};
///
/// let netlist = embedded::c17();
/// let config = FlowConfig::new(TpgKind::Adder).with_tau(3);
/// let initial = InitialReseedingBuilder::new(&netlist)?.build(&config);
/// assert_eq!(initial.matrix.rows(), initial.triplet_count());
/// assert_eq!(initial.matrix.cols(), initial.target_faults.len());
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct InitialReseedingBuilder {
    netlist: Netlist,
    atpg: Atpg,
    fsim: FaultSimulator,
    /// Matrix-simulation pass counter (see
    /// [`matrix_sim_passes`](Self::matrix_sim_passes)). Atomic because the
    /// builder is shared by reference across the sweep's worker pool.
    matrix_passes: AtomicU64,
}

impl InitialReseedingBuilder {
    /// Creates a builder for a combinational netlist (apply
    /// [`full_scan`](fbist_netlist::full_scan) to sequential ones first).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SequentialNetlist`] or [`SimError::Netlist`]
    /// like the underlying engines.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        Ok(InitialReseedingBuilder {
            netlist: netlist.clone(),
            atpg: Atpg::new(netlist)?,
            fsim: FaultSimulator::new(netlist)?,
            matrix_passes: AtomicU64::new(0),
        })
    }

    /// Runs ATPG and derives the target fault list — the shared,
    /// τ-independent base of every initial reseeding.
    ///
    /// This is the paper's (ATPGTS, F): `F` is defined as the faults the
    /// ATPG test set covers — untestable/aborted faults are excluded,
    /// exactly like TestGen's "guarantees complete covering of F". The
    /// run depends only on the netlist and `config.atpg`, never on `τ`,
    /// which is what lets the τ-sweep build it once.
    pub fn atpg_base(&self, config: &FlowConfig) -> AtpgBase {
        let universe = FaultList::collapsed(&self.netlist);
        // the flow-level worker count reaches the PODEM phase unless the
        // ATPG fragment pins its own; either way `jobs` never enters the
        // `atpg` stage key — it cannot change a single result bit
        let mut acfg = config.atpg.clone();
        if acfg.jobs == 0 {
            acfg.jobs = config.jobs;
        }
        let atpg = self.atpg.run(&universe, &acfg);
        let target_faults = universe.subset(&atpg.detected_ids());
        AtpgBase {
            atpg,
            target_faults,
            universe_size: universe.len(),
        }
    }

    /// Runs ATPG and constructs the initial reseeding and Detection Matrix
    /// for the configured TPG and `τ`.
    pub fn build(&self, config: &FlowConfig) -> InitialReseeding {
        // 1. the shared ATPG base (ATPGTS, F)
        let base = self.atpg_base(config);

        // 2. One triplet per ATPG pattern, expanded and fault-simulated.
        let tpg = config.tpg.build(self.netlist.inputs().len());
        let (triplets, matrix) = self.matrix_for(
            &tpg,
            &base.atpg.patterns,
            &base.target_faults,
            config.tau,
            config.seed,
            config.jobs,
            config.matrix_build,
            config.simd_width,
        );

        InitialReseeding {
            triplets,
            matrix,
            target_faults: base.target_faults,
            universe_size: base.universe_size,
            atpg: base.atpg,
        }
    }

    /// Triplets handed to one pool dispatch: large enough to amortise the
    /// scheduling overhead, small enough to load-balance rows whose fanout
    /// cones differ wildly in simulation cost.
    const ROW_CHUNK: usize = 4;

    /// Shared blocks handed to one pool dispatch of the batched engine. A
    /// shared block is a full 64-lane fault-simulation unit (good-circuit
    /// eval + one cone propagation per undropped fault), so a few of them
    /// already amortise the dispatch; keeping the chunk small load-balances
    /// blocks whose masked-dropping savings differ.
    const BLOCK_CHUNK: usize = 4;

    /// Builds triplets and the Detection Matrix for an explicit pattern
    /// list and fault list (used by the τ-sweep to reuse one ATPG run).
    ///
    /// `jobs` fans the construction out across the pool (`0` = global
    /// default) and `build` picks the engine. Every RNG draw happens in
    /// the serial prologue below, so the triplet stream — and therefore
    /// the matrix — is a pure function of `(seed, patterns, tau)`: the
    /// result is bit-identical for every job count *and* every engine.
    ///
    /// The per-row engine fans triplet chunks out and fault-simulates each
    /// row on its own. The batched engine plans the rows' expanded pattern
    /// streams into shared 64-lane blocks ([`BatchPlan`]), fans the
    /// *blocks* out, and reassembles rows in index order from the
    /// partial detection sets each block range reports — the union over
    /// any partition of the block axis is the same, so worker count and
    /// scheduling can never change a bit.
    #[allow(clippy::too_many_arguments)]
    pub fn matrix_for(
        &self,
        tpg: &dyn PatternGenerator,
        patterns: &[BitVec],
        target_faults: &FaultList,
        tau: usize,
        seed: u64,
        jobs: usize,
        build: MatrixBuild,
        simd_width: SimdWidth,
    ) -> (Vec<Triplet>, DetectionMatrix) {
        self.matrix_passes.fetch_add(1, Ordering::Relaxed);
        let triplets = derive_triplets(tpg, patterns, tau, seed);

        let matrix = if use_batched(build, patterns.len(), tau) {
            // Batched engine: expand every row up front (workers address
            // rows by block range, so the whole stream must be
            // materialised), then fan shared blocks out.
            let rows: Vec<Vec<BitVec>> =
                mini_rayon::par_chunks_map(jobs, &triplets, Self::ROW_CHUNK, |t| tpg.expand(t));
            self.batched_matrix(&rows, target_faults, jobs, simd_width)
        } else {
            // Per-row engine: expansion fused with the fault simulation,
            // one call per triplet, rows assembled in triplet index order
            // (only ROW_CHUNK rows of patterns live at a time). The SIMD
            // width resolves per row (`τ + 1` lanes).
            let bits = mini_rayon::par_chunks_map(jobs, &triplets, Self::ROW_CHUNK, |t| {
                let expanded = tpg.expand(t);
                let width = simd_width.resolve(expanded.len());
                self.fsim.run(&expanded, target_faults, width).detected
            });
            DetectionMatrix::from_rows(target_faults.len(), bits)
        };
        (triplets, matrix)
    }

    /// The shared half of both batched builds: plan shared blocks from
    /// the row lengths, fan *block ranges* of [`Self::BLOCK_CHUNK`] out
    /// over the pool, and concatenate the per-range `(row, partial)`
    /// results. Keeping plan construction and range partitioning in one
    /// place is what makes the "same plan, same partitioning" half of the
    /// first-detection bit-identity contract hold by construction — the
    /// detection and first-detection builds differ only in the simulator
    /// call and the merge.
    fn batched_partials<T: Send>(
        &self,
        rows: &[Vec<BitVec>],
        jobs: usize,
        simd_width: SimdWidth,
        simulate: &BlockRangeSim<'_, T>,
    ) -> Vec<(usize, T)> {
        let lengths: Vec<usize> = rows.iter().map(Vec::len).collect();
        let total_lanes: usize = lengths.iter().sum();
        let plan = BatchPlan::new(&lengths, simd_width.resolve(total_lanes));
        let ranges = plan.block_count().div_ceil(Self::BLOCK_CHUNK);
        let partials = mini_rayon::par_map_indexed(jobs, ranges, |i| {
            let lo = i * Self::BLOCK_CHUNK;
            let hi = (lo + Self::BLOCK_CHUNK).min(plan.block_count());
            simulate(&plan, lo..hi)
        });
        partials.into_iter().flatten().collect()
    }

    /// The cross-row batched build: plan shared blocks, fan *block ranges*
    /// out over the pool, and OR the per-range row partials into the
    /// matrix (any partition yields the same union).
    fn batched_matrix(
        &self,
        rows: &[Vec<BitVec>],
        target_faults: &FaultList,
        jobs: usize,
        simd_width: SimdWidth,
    ) -> DetectionMatrix {
        let partials = self.batched_partials(rows, jobs, simd_width, &|plan, range| {
            self.fsim.detects_blocks(plan, range, rows, target_faults)
        });
        DetectionMatrix::from_partial_rows(rows.len(), target_faults.len(), partials)
    }

    /// Builds triplets at `tau_max` and the **first-detection matrix**:
    /// per `(triplet, fault)` pair, the earliest expanded-pattern index
    /// that detects — one simulation pass from which the Detection Matrix
    /// of *every* `τ ≤ tau_max` is derivable by thresholding
    /// ([`FirstDetectionMatrix::at_tau`]).
    ///
    /// The serial RNG prologue, the engine selection and the
    /// block-range fan-out are exactly [`matrix_for`](Self::matrix_for)'s
    /// — same seeds, same plan, same partitioning — so the triplets equal
    /// `matrix_for(.., τ, ..)`'s up to their `τ` field, and
    /// `first_detection_matrix_for(.., tau_max, ..).1.at_tau(τ)` is
    /// bit-identical to `matrix_for(.., τ, ..).1` for every `τ ≤ tau_max`,
    /// every job count and every engine. Per-range partials are merged
    /// with an elementwise `min`, which is partition-invariant like the
    /// detection union.
    #[allow(clippy::too_many_arguments)]
    pub fn first_detection_matrix_for(
        &self,
        tpg: &dyn PatternGenerator,
        patterns: &[BitVec],
        target_faults: &FaultList,
        tau_max: usize,
        seed: u64,
        jobs: usize,
        build: MatrixBuild,
        simd_width: SimdWidth,
    ) -> (Vec<Triplet>, FirstDetectionMatrix) {
        self.matrix_passes.fetch_add(1, Ordering::Relaxed);
        let triplets = derive_triplets(tpg, patterns, tau_max, seed);

        let firsts: Vec<Vec<u32>> = if use_batched(build, patterns.len(), tau_max) {
            let rows: Vec<Vec<BitVec>> =
                mini_rayon::par_chunks_map(jobs, &triplets, Self::ROW_CHUNK, |t| tpg.expand(t));
            let partials = self.batched_partials(&rows, jobs, simd_width, &|plan, range| {
                self.fsim
                    .first_detections_blocks(plan, range, &rows, target_faults)
            });
            let mut firsts =
                vec![vec![FaultSimulator::NO_DETECTION; target_faults.len()]; rows.len()];
            fbist_fault::merge_first_detections(&mut firsts, partials);
            firsts
        } else {
            mini_rayon::par_chunks_map(jobs, &triplets, Self::ROW_CHUNK, |t| {
                let expanded = tpg.expand(t);
                let width = simd_width.resolve(expanded.len());
                self.fsim
                    .run(&expanded, target_faults, width)
                    .first_detection
                    .iter()
                    .map(|o| o.map_or(FaultSimulator::NO_DETECTION, |v| v))
                    .collect()
            })
        };
        let matrix = FirstDetectionMatrix::from_rows(target_faults.len(), firsts);
        (triplets, matrix)
    }

    /// Number of Detection-Matrix simulation passes this builder has run
    /// ([`matrix_for`](Self::matrix_for) and
    /// [`first_detection_matrix_for`](Self::first_detection_matrix_for)
    /// each count one, whatever their engine or job count).
    ///
    /// This is the sweep's efficiency contract made observable: single-τ
    /// runs pay one pass per point, a multi-point sweep pays exactly
    /// **one** pass total — asserted in `tests/sweep_equivalence.rs`
    /// together with the [`LaneOccupancy`](fbist_sim::LaneOccupancy)
    /// counters.
    pub fn matrix_sim_passes(&self) -> u64 {
        self.matrix_passes.load(Ordering::Relaxed)
    }

    /// Resets the matrix-pass counter to zero.
    pub fn reset_matrix_sim_passes(&self) {
        self.matrix_passes.store(0, Ordering::Relaxed);
    }

    /// The underlying fault simulator (shared with the flow for trimming).
    pub fn fault_simulator(&self) -> &FaultSimulator {
        &self.fsim
    }

    /// The bound netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }
}

/// One block-range simulation call of the batched fan-out
/// ([`InitialReseedingBuilder::batched_partials`]): maps the shared plan
/// and a block range to per-row `(row, partial)` results.
type BlockRangeSim<'a, T> =
    dyn Fn(&BatchPlan, std::ops::Range<usize>) -> Vec<(usize, T)> + Sync + 'a;

/// Serial triplet prologue shared by both matrix builds: derive every
/// triplet (and thus consume the full RNG stream) before any worker
/// starts, in pattern order. Worker identity and completion order can
/// never leak into the δ values, and the stream does not depend on `tau`
/// (`seed_for` never reads it) — so triplets derived at different `τ`
/// differ *only* in their `τ` field, the keystone of the τ-sweep's
/// derive-don't-resimulate guarantee.
pub(crate) fn derive_triplets(
    tpg: &dyn PatternGenerator,
    patterns: &[BitVec],
    tau: usize,
    seed: u64,
) -> Vec<Triplet> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7129_55D1);
    let mut word = move || rng.gen::<u64>();
    patterns
        .iter()
        .map(|p| tpg.seed_for(p, &mut word).with_tau(tau))
        .collect()
}

/// Engine choice: [`MatrixBuild::Auto`] batches exactly when sharing
/// blocks across rows evaluates fewer of them than the per-row build —
/// always, unless every row fills whole 64-lane blocks exactly. Every
/// triplet expands to `τ + 1` patterns
/// ([`PatternGenerator::expand`]'s contract), so the decision needs only
/// the row count and `τ`, not the expanded patterns.
///
/// # Panics
///
/// Panics if `τ + 1` or the total lane count overflows `usize` — callers
/// going through [`FlowConfig::with_tau`] are bounded far below this by
/// [`FlowConfig::MAX_TAU`], but `matrix_for` takes a raw `usize`, so the
/// arithmetic is checked instead of wrapping silently in release builds.
fn use_batched(build: MatrixBuild, row_count: usize, tau: usize) -> bool {
    match build {
        MatrixBuild::PerRow => false,
        MatrixBuild::Batched => true,
        MatrixBuild::Auto => {
            let len = tau
                .checked_add(1)
                .expect("τ + 1 overflows usize — bound τ by FlowConfig::MAX_TAU");
            let total = row_count
                .checked_mul(len)
                .expect("total lane count overflows usize");
            let per_row = row_count * len.div_ceil(pack::BLOCK);
            total.div_ceil(pack::BLOCK) < per_row
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TpgKind;
    use fbist_netlist::embedded;

    fn build(tpg: TpgKind, tau: usize) -> InitialReseeding {
        let n = embedded::c17();
        let cfg = FlowConfig::new(tpg).with_tau(tau);
        InitialReseedingBuilder::new(&n).unwrap().build(&cfg)
    }

    #[test]
    fn rows_cover_all_target_faults() {
        for tpg in [TpgKind::Adder, TpgKind::Lfsr, TpgKind::Weighted] {
            let init = build(tpg, 4);
            let all: Vec<usize> = (0..init.matrix.rows()).collect();
            assert!(
                init.matrix.is_cover(&all),
                "{tpg}: initial reseeding must cover F by construction"
            );
        }
    }

    #[test]
    fn tau_zero_matrix_is_pattern_dictionary() {
        // with τ=0 each row is exactly the detection set of its ATPG pattern
        let n = embedded::c17();
        let cfg = FlowConfig::new(TpgKind::Adder).with_tau(0);
        let b = InitialReseedingBuilder::new(&n).unwrap();
        let init = b.build(&cfg);
        let dict = b
            .fault_simulator()
            .dictionary(&init.atpg.patterns, &init.target_faults, 1);
        for r in 0..init.matrix.rows() {
            for c in 0..init.matrix.cols() {
                assert_eq!(init.matrix.get(r, c), dict.get(r, c), "({r},{c})");
            }
        }
    }

    #[test]
    fn larger_tau_never_loses_coverage_per_row() {
        let n = embedded::c17();
        let b = InitialReseedingBuilder::new(&n).unwrap();
        let cfg0 = FlowConfig::new(TpgKind::Adder).with_tau(0);
        let init0 = b.build(&cfg0);
        let cfg8 = FlowConfig::new(TpgKind::Adder).with_tau(8);
        let init8 = b.build(&cfg8);
        // row weights can only grow with τ (pattern 0 is identical)
        for r in 0..init0.matrix.rows() {
            assert!(
                init8.matrix.row_weight(r) >= init0.matrix.row_weight(r),
                "row {r}"
            );
        }
    }

    #[test]
    fn matrix_dimensions() {
        let init = build(TpgKind::Subtracter, 2);
        assert_eq!(init.matrix.rows(), init.atpg.patterns.len());
        assert_eq!(init.matrix.cols(), init.target_faults.len());
        assert!(init.universe_size >= init.target_faults.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build(TpgKind::Adder, 3);
        let b = build(TpgKind::Adder, 3);
        assert_eq!(a.triplets, b.triplets);
        assert_eq!(a.matrix.row_major(), b.matrix.row_major());
    }

    #[test]
    fn matrix_is_bit_identical_for_every_engine() {
        let n = embedded::c17();
        let b = InitialReseedingBuilder::new(&n).unwrap();
        for tau in [0, 3, 9, 63, 64, 100] {
            let base = FlowConfig::new(TpgKind::Adder).with_tau(tau);
            let per_row = b.build(&base.clone().with_matrix_build(MatrixBuild::PerRow));
            for engine in [MatrixBuild::Batched, MatrixBuild::Auto] {
                let other = b.build(&base.clone().with_matrix_build(engine));
                assert_eq!(per_row.triplets, other.triplets, "τ={tau} {engine}");
                assert_eq!(
                    per_row.matrix.row_major(),
                    other.matrix.row_major(),
                    "τ={tau} {engine}: matrix differs from per-row"
                );
            }
        }
    }

    #[test]
    fn auto_engine_batches_only_when_blocks_shrink() {
        // τ+1 = 64 exactly: batching cannot reduce the block count
        assert!(!use_batched(MatrixBuild::Auto, 10, 63));
        // τ+1 = 4: 10 per-row blocks collapse into 1 shared block
        assert!(use_batched(MatrixBuild::Auto, 10, 3));
        // τ+1 = 65: the straddling lane makes sharing pay again
        assert!(use_batched(MatrixBuild::Auto, 10, 64));
        // explicit engines ignore the arithmetic
        assert!(use_batched(MatrixBuild::Batched, 10, 63));
        assert!(!use_batched(MatrixBuild::PerRow, 10, 3));
    }

    #[test]
    #[should_panic(expected = "τ + 1 overflows usize")]
    fn auto_engine_rejects_tau_overflow() {
        // pre-fix this wrapped to len = 0 in release builds and silently
        // picked the batched engine for a nonsense τ
        let _ = use_batched(MatrixBuild::Auto, 10, usize::MAX);
    }

    #[test]
    fn first_detection_matrix_thresholds_to_every_tau() {
        // one first-detection pass at τ_max must reproduce matrix_for's
        // triplets (up to the τ field) and matrix at every smaller τ, for
        // every engine
        let n = embedded::c17();
        let b = InitialReseedingBuilder::new(&n).unwrap();
        let cfg = FlowConfig::new(TpgKind::Adder);
        let base = b.atpg_base(&cfg);
        let tpg = cfg.tpg.build(n.inputs().len());
        let tau_max = 9;
        for engine in [MatrixBuild::PerRow, MatrixBuild::Batched, MatrixBuild::Auto] {
            let (trip_max, fdm) = b.first_detection_matrix_for(
                tpg.as_ref(),
                &base.atpg.patterns,
                &base.target_faults,
                tau_max,
                cfg.seed,
                1,
                engine,
                SimdWidth::Auto,
            );
            for tau in [0usize, 1, 3, 9] {
                let (trip, matrix) = b.matrix_for(
                    tpg.as_ref(),
                    &base.atpg.patterns,
                    &base.target_faults,
                    tau,
                    cfg.seed,
                    1,
                    engine,
                    SimdWidth::Auto,
                );
                let derived: Vec<_> = trip_max.iter().map(|t| t.with_tau(tau)).collect();
                assert_eq!(trip, derived, "τ={tau} {engine}: triplets");
                assert_eq!(
                    matrix.row_major(),
                    fdm.at_tau(tau).row_major(),
                    "τ={tau} {engine}: thresholded matrix differs"
                );
            }
        }
    }

    #[test]
    fn first_detection_matrix_is_job_invariant() {
        let n = embedded::c17();
        let b = InitialReseedingBuilder::new(&n).unwrap();
        let cfg = FlowConfig::new(TpgKind::Adder);
        let base = b.atpg_base(&cfg);
        let tpg = cfg.tpg.build(n.inputs().len());
        let build = |jobs| {
            b.first_detection_matrix_for(
                tpg.as_ref(),
                &base.atpg.patterns,
                &base.target_faults,
                9,
                cfg.seed,
                jobs,
                MatrixBuild::Batched,
                SimdWidth::Auto,
            )
        };
        let serial = build(1);
        for jobs in [2, 4, 16] {
            assert_eq!(build(jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn no_detection_sentinels_agree_across_crates() {
        // the simulator's sentinel feeds FirstDetectionMatrix::from_rows
        // unchanged — the two constants are one contract
        assert_eq!(
            FaultSimulator::NO_DETECTION,
            FirstDetectionMatrix::NO_DETECTION
        );
    }

    #[test]
    fn matrix_pass_counter_counts_builds() {
        let n = embedded::c17();
        let b = InitialReseedingBuilder::new(&n).unwrap();
        assert_eq!(b.matrix_sim_passes(), 0);
        let cfg = FlowConfig::new(TpgKind::Adder).with_tau(3);
        let _ = b.build(&cfg);
        assert_eq!(b.matrix_sim_passes(), 1);
        let base = b.atpg_base(&cfg);
        assert_eq!(b.matrix_sim_passes(), 1, "ATPG alone is not a pass");
        let tpg = cfg.tpg.build(n.inputs().len());
        let _ = b.first_detection_matrix_for(
            tpg.as_ref(),
            &base.atpg.patterns,
            &base.target_faults,
            7,
            cfg.seed,
            1,
            MatrixBuild::Auto,
            SimdWidth::Auto,
        );
        assert_eq!(b.matrix_sim_passes(), 2);
        b.reset_matrix_sim_passes();
        assert_eq!(b.matrix_sim_passes(), 0);
    }

    #[test]
    fn matrix_is_bit_identical_for_every_job_count() {
        let n = embedded::c17();
        let b = InitialReseedingBuilder::new(&n).unwrap();
        let base = FlowConfig::new(TpgKind::Adder).with_tau(9);
        let serial = b.build(&base.clone().with_jobs(1));
        for jobs in [2, 4, 16] {
            let par = b.build(&base.clone().with_jobs(jobs));
            assert_eq!(serial.triplets, par.triplets, "jobs={jobs}");
            assert_eq!(
                serial.matrix.row_major(),
                par.matrix.row_major(),
                "jobs={jobs}"
            );
        }
    }
}
