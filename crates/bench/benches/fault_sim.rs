//! Fault-simulation throughput: the packed event-driven simulator vs. the
//! naive per-(fault, pattern) reference, plus good-circuit simulation
//!(packed vs. event-driven). The paper's efficiency argument rests on
//! fault simulation being cheap enough to build the whole Detection
//! Matrix; this bench quantifies the engine that makes it so.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbist_bits::BitVec;
use fbist_fault::{reference, FaultList, FaultSimulator};
use fbist_genbench::{generate, profile};
use fbist_netlist::embedded;
use fbist_sim::{EventSimulator, PackedSimulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn patterns(width: usize, count: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| BitVec::random_with(width, &mut || rng.gen()))
        .collect()
}

fn bench_fault_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim");
    group.sample_size(10);
    for name in ["c499", "c880", "s1238"] {
        let p = profile(name).unwrap().scaled(0.3);
        let n = generate(&p, 1);
        let faults = FaultList::collapsed(&n);
        let sim = FaultSimulator::new(&n).unwrap();
        let pats = patterns(n.inputs().len(), 64, 5);
        group.bench_with_input(
            BenchmarkId::new("packed_event_driven", name),
            &(&sim, &pats, &faults),
            |b, (sim, pats, faults)| b.iter(|| sim.run(pats, faults, 1).detected),
        );
    }
    group.finish();
}

fn bench_fault_sim_vs_naive(c: &mut Criterion) {
    // naive is only feasible on c17-sized circuits
    let n = embedded::c17();
    let faults = FaultList::collapsed(&n);
    let sim = FaultSimulator::new(&n).unwrap();
    let pats = patterns(5, 32, 9);
    let mut group = c.benchmark_group("fault_sim_vs_naive");
    group.bench_function("packed_c17_32p", |b| {
        b.iter(|| sim.run(&pats, &faults, 1).detected)
    });
    group.bench_function("naive_c17_32p", |b| {
        b.iter(|| {
            let mut detected = 0;
            for (_, f) in faults.iter() {
                if pats.iter().any(|p| reference::naive_detects(&n, f, p)) {
                    detected += 1;
                }
            }
            detected
        })
    });
    group.finish();
}

fn bench_logic_sim(c: &mut Criterion) {
    let p = profile("c880").unwrap().scaled(0.5);
    let n = generate(&p, 1);
    let pats = patterns(n.inputs().len(), 256, 3);
    let psim = PackedSimulator::new(&n).unwrap();
    let mut group = c.benchmark_group("logic_sim");
    group.bench_function("packed_256p", |b| b.iter(|| psim.simulate_patterns(&pats)));
    group.bench_function("event_driven_256p", |b| {
        b.iter(|| {
            let mut esim = EventSimulator::new(&n).unwrap();
            let mut ones = 0usize;
            for p in &pats {
                ones += esim.apply(p).count_ones();
            }
            ones
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_sim,
    bench_fault_sim_vs_naive,
    bench_logic_sim
);
criterion_main!(benches);
