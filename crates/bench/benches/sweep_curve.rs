//! The τ-sweep at `jobs = 1` on a mid-size and a c7552-scale circuit,
//! over the default `fbist sweep` τ list `[0, 3, 7, 15, 31, 63, 127, 255]`:
//!
//! * `sweep_curve/…` — the user-facing `tradeoff_sweep_with` end to end,
//!   including the shared, τ-independent ATPG run;
//! * `sweep_matrix/…` — `tradeoff_sweep_from_base` on a precomputed
//!   [`AtpgBase`]: the sweep machinery itself, one first-detection pass
//!   at `max(taus)` plus every point's covering and trimming.
//!
//! The entries keep their `first_detection` label so the
//! `BENCH_results.json` history stays comparable.
//!
//! [`AtpgBase`]: reseed_core::AtpgBase

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbist_bench::build_circuit;
use fbist_genbench::profile;
use reseed_core::{
    tradeoff_sweep_from_base, tradeoff_sweep_with, FlowConfig, ReseedingFlow, TpgKind,
};

/// The `fbist sweep` default τ list.
const TAUS: [usize; 8] = [0, 3, 7, 15, 31, 63, 127, 255];

fn bench_sweep_curve(c: &mut Criterion) {
    for name in ["mid256", "big3500"] {
        let p = profile(name).expect("profile registered");
        let netlist = build_circuit(&p, 1);
        let flow = ReseedingFlow::new(&netlist).expect("combinational circuit");
        let cfg = FlowConfig::new(TpgKind::Adder).with_jobs(1);
        let base = flow.builder().atpg_base(&cfg);

        // end to end, ATPG included (the `fbist sweep` experience)
        let mut group = c.benchmark_group("sweep_curve");
        group.sample_size(10);
        group.bench_function(BenchmarkId::new("first_detection", name), |b| {
            b.iter(|| tradeoff_sweep_with(&flow, &cfg, &TAUS))
        });
        group.finish();

        // the sweep machinery alone, on the shared ATPG base
        let mut group = c.benchmark_group("sweep_matrix");
        group.sample_size(10);
        group.bench_function(BenchmarkId::new("first_detection", name), |b| {
            b.iter(|| tradeoff_sweep_from_base(&flow, &base, &cfg, &TAUS))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_sweep_curve);
criterion_main!(benches);
