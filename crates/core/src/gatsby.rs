//! GATSBY-style genetic-algorithm reseeding — the Table 1 baseline.
//!
//! GATSBY ("Genetic Algorithm based Test Synthesis tool for BIST
//! applications", refs \[7\]\[8\] of the paper) computes reseedings by
//! evolving `(δ, θ)` chromosomes with a fault-simulation fitness and
//! appending the best triplet round after round until the target coverage
//! is reached. The paper's criticism — "since the GATSBY computation
//! process strongly relies on simulation, the approach is not applicable
//! to large circuits" — is reproduced here quite literally: every fitness
//! evaluation is a fault simulation of a full `τ + 1`-pattern sequence.
//!
//! This module implements that sequential-GA loop so Table 1's comparison
//! columns can be regenerated. It shares the TPG model and the fault
//! simulator with the set-covering flow, so the two methods compete on
//! identical ground.

use fbist_bits::BitVec;
use fbist_fault::{FaultId, FaultList, FaultSimulator};
use fbist_netlist::Netlist;
use fbist_sim::SimError;
use fbist_tpg::{PatternGenerator, Triplet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::TpgKind;

/// GA parameters.
#[derive(Debug, Clone)]
pub struct GatsbyConfig {
    /// TPG to drive.
    pub tpg: TpgKind,
    /// Evolution length for every triplet.
    pub tau: usize,
    /// Chromosomes per generation.
    pub population: usize,
    /// Generations per reseeding round.
    pub generations: usize,
    /// Per-bit mutation probability.
    pub mutation: f64,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Stop after this many consecutive rounds without new detections.
    pub stall_rounds: usize,
    /// Hard cap on reseeding rounds.
    pub max_rounds: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the fitness evaluations (`0` = global default).
    /// Purely a throughput knob — every value computes the same result.
    pub jobs: usize,
}

impl Default for GatsbyConfig {
    fn default() -> Self {
        GatsbyConfig {
            tpg: TpgKind::Adder,
            tau: 31,
            population: 24,
            generations: 12,
            mutation: 0.02,
            tournament: 3,
            stall_rounds: 8,
            max_rounds: 256,
            seed: 0x6A75_BEEF,
            jobs: 0,
        }
    }
}

/// Result of a GATSBY run.
#[derive(Debug, Clone)]
pub struct GatsbyResult {
    /// The reseeding solution, in the order the GA appended it.
    pub triplets: Vec<Triplet>,
    /// Global test length (trimmed per triplet like the flow's accounting).
    pub test_length: usize,
    /// Faults of the target list covered.
    pub covered: usize,
    /// Target list size.
    pub target_faults: usize,
    /// Total fault-simulation calls spent (the paper's cost metric).
    pub fault_sim_calls: usize,
}

impl GatsbyResult {
    /// Coverage over the target list in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.target_faults == 0 {
            1.0
        } else {
            self.covered as f64 / self.target_faults as f64
        }
    }

    /// `true` if every target fault was covered (GATSBY does not always
    /// get there — neither did the original on every circuit).
    pub fn complete(&self) -> bool {
        self.covered == self.target_faults
    }

    /// Number of reseedings.
    pub fn triplet_count(&self) -> usize {
        self.triplets.len()
    }
}

/// The sequential-GA reseeding engine.
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use fbist_fault::FaultList;
/// use reseed_core::{Gatsby, GatsbyConfig};
///
/// let n = embedded::c17();
/// let faults = FaultList::collapsed(&n);
/// let res = Gatsby::new(&n)?.run(&faults, &GatsbyConfig::default());
/// assert!(res.complete());
/// assert!(res.fault_sim_calls > 100); // simulation-hungry by design
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Gatsby {
    netlist: Netlist,
    fsim: FaultSimulator,
}

impl Gatsby {
    /// Creates the engine for a combinational netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] for sequential/invalid netlists.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        Ok(Gatsby {
            netlist: netlist.clone(),
            fsim: FaultSimulator::new(netlist)?,
        })
    }

    /// Runs the sequential GA against the target fault list.
    pub fn run(&self, target: &FaultList, config: &GatsbyConfig) -> GatsbyResult {
        let width = self.netlist.inputs().len();
        let tpg = config.tpg.build(width);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut remaining_ids: Vec<FaultId> = target.iter().map(|(id, _)| id).collect();
        let mut triplets = Vec::new();
        let mut test_length = 0usize;
        let mut covered = 0usize;
        let mut sim_calls = 0usize;
        let mut stall = 0usize;

        for _round in 0..config.max_rounds {
            if remaining_ids.is_empty() || stall >= config.stall_rounds {
                break;
            }
            let remaining = target.subset(&remaining_ids);

            // ---- one GA round: evolve (δ, θ) for incremental coverage ---
            let mut population: Vec<(BitVec, BitVec)> = (0..config.population)
                .map(|_| {
                    (
                        BitVec::random_with(width, &mut || rng.gen()),
                        BitVec::random_with(width, &mut || rng.gen()),
                    )
                })
                .collect();
            let mut fitness: Vec<usize> = Vec::new();
            let mut best: Option<(usize, Triplet, fbist_fault::FaultSimResult)> = None;

            for _gen in 0..config.generations {
                fitness.clear();
                // Parallel region: the fitness of each chromosome is an
                // independent fault simulation and draws no RNG — all
                // randomness (population init, selection, crossover,
                // mutation) stays in the sequential GA loop around it.
                // Folding the results in chromosome order reproduces the
                // sequential first-strict-max `best` exactly.
                let evaluated = mini_rayon::par_map_indexed(config.jobs, population.len(), |i| {
                    let (delta, theta) = &population[i];
                    let triplet = Triplet::new(delta.clone(), theta.clone(), config.tau);
                    let ts = tpg.expand(&triplet);
                    let res = self.fsim.run(&ts, &remaining, 1);
                    let fit = res.detected_count();
                    (fit, triplet, res)
                });
                sim_calls += evaluated.len();
                for (fit, triplet, res) in evaluated {
                    if best.as_ref().is_none_or(|(b, _, _)| fit > *b) {
                        best = Some((fit, triplet, res));
                    }
                    fitness.push(fit);
                }
                // next generation: tournament selection + uniform crossover
                // + bit-flip mutation
                let mut next = Vec::with_capacity(population.len());
                while next.len() < population.len() {
                    let a = self.tournament(&mut rng, &fitness, config.tournament);
                    let b = self.tournament(&mut rng, &fitness, config.tournament);
                    let child = self.crossover(&mut rng, &population[a], &population[b]);
                    next.push(self.mutate(&mut rng, child, config.mutation));
                }
                population = next;
            }

            // ---- append the round's best triplet -------------------------
            let (fit, triplet, res) = best.expect("population non-empty");
            if fit == 0 {
                stall += 1;
                continue;
            }
            stall = 0;
            covered += fit;
            let useful = res.useful_prefix_len().max(1);
            test_length += useful;
            triplets.push(triplet.with_tau(useful - 1));
            let mut next_remaining = Vec::with_capacity(remaining_ids.len() - fit);
            for (sub, &orig) in remaining_ids.iter().enumerate() {
                if !res.detected.get(sub) {
                    next_remaining.push(orig);
                }
            }
            remaining_ids = next_remaining;
        }

        GatsbyResult {
            triplets,
            test_length,
            covered,
            target_faults: target.len(),
            fault_sim_calls: sim_calls,
        }
    }

    fn tournament(&self, rng: &mut StdRng, fitness: &[usize], k: usize) -> usize {
        let mut best = rng.gen_range(0..fitness.len());
        for _ in 1..k {
            let cand = rng.gen_range(0..fitness.len());
            if fitness[cand] > fitness[best] {
                best = cand;
            }
        }
        best
    }

    fn crossover(
        &self,
        rng: &mut StdRng,
        a: &(BitVec, BitVec),
        b: &(BitVec, BitVec),
    ) -> (BitVec, BitVec) {
        let width = a.0.width();
        let mask = BitVec::random_with(width, &mut || rng.gen());
        let mix = |x: &BitVec, y: &BitVec| -> BitVec { &(x & &mask) | &(y & &!&mask) };
        (mix(&a.0, &b.0), mix(&a.1, &b.1))
    }

    fn mutate(&self, rng: &mut StdRng, mut c: (BitVec, BitVec), rate: f64) -> (BitVec, BitVec) {
        let width = c.0.width();
        for i in 0..width {
            if rng.gen_bool(rate) {
                c.0.toggle(i);
            }
            if rng.gen_bool(rate) {
                c.1.toggle(i);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_netlist::embedded;

    #[test]
    fn c17_reaches_full_coverage() {
        let n = embedded::c17();
        let faults = FaultList::collapsed(&n);
        let res = Gatsby::new(&n)
            .unwrap()
            .run(&faults, &GatsbyConfig::default());
        assert!(res.complete(), "coverage {}", res.coverage());
        assert!(res.triplet_count() >= 1);
        assert!(res.test_length >= res.triplet_count());
    }

    #[test]
    fn deterministic_given_seed() {
        let n = embedded::c17();
        let faults = FaultList::collapsed(&n);
        let g = Gatsby::new(&n).unwrap();
        let cfg = GatsbyConfig::default();
        let a = g.run(&faults, &cfg);
        let b = g.run(&faults, &cfg);
        assert_eq!(a.triplets, b.triplets);
        assert_eq!(a.fault_sim_calls, b.fault_sim_calls);
    }

    #[test]
    fn result_invariant_in_jobs() {
        let n = embedded::c17();
        let faults = FaultList::collapsed(&n);
        let g = Gatsby::new(&n).unwrap();
        let serial = g.run(
            &faults,
            &GatsbyConfig {
                jobs: 1,
                ..GatsbyConfig::default()
            },
        );
        for jobs in [2, 8] {
            let par = g.run(
                &faults,
                &GatsbyConfig {
                    jobs,
                    ..GatsbyConfig::default()
                },
            );
            assert_eq!(par.triplets, serial.triplets, "jobs={jobs}");
            assert_eq!(par.test_length, serial.test_length, "jobs={jobs}");
            assert_eq!(par.fault_sim_calls, serial.fault_sim_calls, "jobs={jobs}");
        }
    }

    #[test]
    fn simulation_cost_grows_with_population() {
        let n = embedded::c17();
        let faults = FaultList::collapsed(&n);
        let g = Gatsby::new(&n).unwrap();
        let small = g.run(
            &faults,
            &GatsbyConfig {
                population: 8,
                generations: 4,
                ..GatsbyConfig::default()
            },
        );
        let large = g.run(
            &faults,
            &GatsbyConfig {
                population: 32,
                generations: 8,
                ..GatsbyConfig::default()
            },
        );
        assert!(large.fault_sim_calls > small.fault_sim_calls);
    }

    #[test]
    fn empty_target_is_trivially_complete() {
        let n = embedded::c17();
        let res = Gatsby::new(&n)
            .unwrap()
            .run(&FaultList::new(), &GatsbyConfig::default());
        assert!(res.complete());
        assert_eq!(res.triplet_count(), 0);
    }
}
