//! Single-stuck-at fault modelling and bit-parallel fault simulation.
//!
//! The paper's detection matrix has one column per stuck-at fault of the
//! unit under test and one row per reseeding triplet; cell `(i, j)` is 1
//! iff triplet `i`'s expanded test set detects fault `j`. This crate
//! provides everything needed to fill that matrix:
//!
//! * [`Fault`], [`FaultSite`], [`FaultList`] — the classical single
//!   stuck-at fault universe over gate output nets (stems) and gate input
//!   pins (branches);
//! * [`collapse`] — structural equivalence collapsing (union-find over the
//!   textbook gate rules), which shrinks the universe ~2.5× without losing
//!   information;
//! * [`FaultSimulator`] — a bit-parallel, event-driven ("single fault
//!   propagation") fault simulator: one width-generic kernel that reports
//!   into an OR-detect, first-index-min or dictionary sink, behind four
//!   entry points — [`run`](FaultSimulator::run) and
//!   [`dictionary`](FaultSimulator::dictionary) for one pattern stream,
//!   [`detects_blocks`](FaultSimulator::detects_blocks) and
//!   [`first_detections_blocks`](FaultSimulator::first_detections_blocks)
//!   for block ranges of a many-row plan;
//! * [`BatchPlan`] — the cross-row batch planner the kernel runs over,
//!   which fills every simulation lane when many rows are simulated at
//!   once (a single stream is a one-row plan).
//!
//! # Cross-row batching: lane groups and masked dropping
//!
//! The matrix build hands the simulator one pattern stream per triplet
//! row. Simulated per row, each stream occupies its own 64-lane blocks:
//! a row of `τ + 1` patterns wastes `63 − τ (mod 64)` lanes of its last
//! block — 50 % dead lanes at the default `τ = 31`, 94 % at `τ = 3` —
//! and the good-circuit evaluation plus every fault's cone propagation
//! is repeated for every row.
//!
//! [`BatchPlan`] instead concatenates the streams of all rows (in row
//! order) into *shared* blocks. Each block carries up to 64 consecutive
//! patterns of the global stream, and a [`LaneGroup`] records which lanes
//! belong to which row; a row whose stream crosses a block boundary simply
//! splits into groups in consecutive blocks. Every block except possibly
//! the last is completely full, so the good circuit is evaluated — and
//! each fault's cone propagated — once per *shared* block: up to
//! `64 / (τ + 1)`× fewer of both than the per-row build.
//!
//! Detection is attributed through the groups: fault `f`'s 64-bit
//! detection word for a block is ANDed with each group's lane mask, and a
//! nonzero intersection marks `(row, f)` detected. *Masked dropping*
//! removes redundant work on top: once every row with lanes in a block has
//! already detected `f`, the fault's propagation is skipped for that
//! block, and rows that already detected `f` are masked out of its
//! detection word elsewhere. Dropping can never change a row's detected
//! set, because a row detects `f` iff **some** lane of **some** of its
//! groups differs at a primary output — a monotone OR over the row's
//! lanes. Skipping a lane is only ever done when the `(row, f)` pair is
//! already detected, i.e. when the OR is already 1, so the skipped lane
//! could only have re-confirmed a known detection (the same argument that
//! makes classical per-row fault dropping exact). The batched matrix is
//! therefore bit-identical to the per-row one — checked against the naive
//! [`reference`] simulator in this crate's tests and pinned for every
//! profile × TPG × `jobs` × `τ` combination by the
//! `batched_matrix_equivalence` suite.
//!
//! # Example
//!
//! ```
//! use fbist_netlist::embedded;
//! use fbist_fault::{FaultList, FaultSimulator};
//! use fbist_bits::BitVec;
//!
//! let c17 = embedded::c17();
//! let faults = FaultList::collapsed(&c17);
//! let sim = FaultSimulator::new(&c17)?;
//! // Exhaustive patterns detect every c17 fault.
//! let patterns: Vec<BitVec> = (0..32u64).map(|v| BitVec::from_u64(5, v)).collect();
//! let res = sim.run(&patterns, &faults, 1);
//! assert_eq!(res.detected_count(), faults.len());
//! # Ok::<(), fbist_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod checkpoint;
pub mod collapse;
mod model;
pub mod reference;
mod sim;

pub use batch::{BatchBlock, BatchPlan, LaneGroup};
pub use checkpoint::checkpoint_faults;
pub use model::{Fault, FaultId, FaultList, FaultSite};
pub use sim::{merge_first_detections, FaultSimResult, FaultSimulator};
