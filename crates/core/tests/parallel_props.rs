//! Property tests for determinism-under-parallelism: random
//! `(profile, seed, τ, jobs)` tuples must produce a [`ReseedingReport`]
//! that is invariant in `jobs`.
//!
//! The differential suite in the workspace root sweeps every profile at a
//! fixed configuration; this file attacks the same contract from the other
//! side — few profiles, randomised everything else — so a job-dependent
//! code path gated on an unusual seed or τ cannot hide.

use fbist_genbench::{generate, profile};
use proptest::prelude::*;
use reseed_core::{FlowConfig, ReseedingFlow, TpgKind};

fn tuple() -> impl Strategy<Value = (&'static str, u64, usize, usize, usize)> {
    (
        prop_oneof![Just("tiny64"), Just("mid256")],
        1u64..1_000_000,
        0usize..32,
        prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        0usize..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn report_is_invariant_in_jobs((name, seed, tau, jobs, tpg_ix) in tuple()) {
        let tpg = TpgKind::ALL[tpg_ix];
        let netlist = generate(&profile(name).unwrap(), seed);
        let flow = ReseedingFlow::new(&netlist).expect("genbench circuits are scan-ready");
        let base = FlowConfig::new(tpg).with_tau(tau).with_seed(seed);
        let serial = flow.run(&base.clone().with_jobs(1));
        let parallel = flow.run(&base.clone().with_jobs(jobs));
        prop_assert_eq!(
            &serial, &parallel,
            "profile {} seed {} tau {} jobs {} tpg {}",
            name, seed, tau, jobs, tpg
        );
        prop_assert!(serial.covers_all_target_faults());
    }
}
