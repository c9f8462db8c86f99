//! Regenerates **Figure 2** of the paper: the trade-off between the number
//! of reseedings and the global test length, on s1238 with the adder-based
//! accumulator.
//!
//! In the paper, growing the test length from 5 427 to 15 551 drives the
//! triplet count down 11 → 7 → 5 → 4 → … → 2. The shape to check is the
//! monotone staircase: larger τ ⇒ longer (untrimmed) sequences ⇒ denser
//! detection-matrix rows ⇒ fewer triplets, with diminishing returns.
//!
//! The whole curve comes from one first-detection fault simulation at
//! the largest τ, every point's Detection Matrix derived by thresholding.
//!
//! ```text
//! cargo run -p fbist-bench --release --bin figure2 [-- --scale 0.35 \
//!     --circuit s1238 --tpg add --taus 0,3,7,15,31,63,127,255,511 --jobs 0]
//! ```

use std::process::ExitCode;

use fbist_bench::{build_circuit, JOBS, SCALE, SEED};
use fbist_genbench::profile;
use reseed_core::args::{Args, Opt, Table};
use reseed_core::{tradeoff_sweep, FlowConfig, TpgKind};

const CIRCUIT: Opt = Opt::value("--circuit", "NAME", &["figure2"], "profile (default s1238)");
const TPG: Opt = Opt::value("--tpg", "KIND", &["figure2"], "TPG kind (default add)");
const TAUS: Opt = Opt::value("--taus", "LIST", &["figure2"], "τ list (default 0,3,…,511)");
const TABLE: Table = Table {
    commands: &[("figure2", &[])],
    opts: &[CIRCUIT, SCALE, SEED, TPG, TAUS, JOBS],
};

fn main() -> ExitCode {
    fbist_bench::main(&TABLE, figure2)
}

fn figure2(args: &Args) -> Result<(), String> {
    let jobs = mini_rayon::jobs();
    let circuit = args.value(&CIRCUIT).unwrap_or("s1238");
    let scale: f64 = args.num(&SCALE, 0.35)?;
    let seed: u64 = args.num(&SEED, 1)?;
    let tpg = args.get(&TPG, TpgKind::Adder, TpgKind::parse)?;
    let default = vec![0, 3, 7, 15, 31, 63, 127, 255, 511];
    let taus = args.get(&TAUS, default, reseed_core::parse_tau_list)?;

    let p = profile(circuit)
        .ok_or_else(|| format!("unknown profile {circuit:?}"))?
        .scaled(scale);
    let netlist = build_circuit(&p, seed);
    let cfg = FlowConfig::new(tpg).with_seed(seed);
    let curve = tradeoff_sweep(&netlist, &cfg, &taus).map_err(|e| e.to_string())?;

    println!(
        "# Figure 2 — trade-off reseedings vs. test length ({circuit} @ scale {scale}, TPG {tpg}, seed {seed}, jobs {jobs})"
    );
    println!(
        "{:>6} {:>10} {:>12} {:>10}",
        "tau", "#triplets", "test_length", "rom_bits"
    );
    for pt in &curve {
        println!(
            "{:>6} {:>10} {:>12} {:>10}",
            pt.tau, pt.triplets, pt.test_length, pt.rom_bits
        );
    }
    // ASCII rendition of the staircase
    let kmax = curve.iter().map(|p| p.triplets).max().unwrap_or(1);
    println!("\n# triplets vs test length (each ▇ column ∝ #triplets)");
    for pt in &curve {
        let bar = "▇".repeat(pt.triplets * 40 / kmax.max(1));
        println!("len {:>7} | {bar} {}", pt.test_length, pt.triplets);
    }
    // the paper's Figure-2 shape. This is an empirical property of the
    // instance, not a guarantee: the greedy/local-search solver can
    // return a (still fully covering) larger cover at a larger τ.
    let monotone = curve.windows(2).all(|w| w[1].triplets <= w[0].triplets);
    println!(
        "\n# monotone non-increasing triplet count: {}",
        if monotone {
            "yes (matches Figure 2)"
        } else {
            "no (legal — the solver does not guarantee monotonicity)"
        }
    );
    Ok(())
}
