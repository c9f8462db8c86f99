//! `fbist` — command-line front end for the set-covering reseeding flow.
//!
//! Every subcommand is a thin wrapper over the workspace libraries. Its
//! command line is read by [`reseed_core::args`] against one option table,
//! [`table`]: each row names a flag, its value, its help line and the
//! subcommands (and `fbist serve` request lines) that take it. The same
//! rows render the usage text, and one [`flow_config`] turns the parsed
//! flags into the [`FlowConfig`] every subcommand and request computes
//! with, so a flag's value is checked even where it is not used. Results
//! are identical for every worker count (`--jobs`, or the `FBIST_JOBS`
//! environment variable), backend, matrix engine and SIMD width.
//!
//! Circuits are resolved in a fixed namespace order: explicit `.bench`
//! paths first (a `.bench` suffix or a path separator), then built-in
//! profile names (`fbist profiles` lists them), then embedded circuits —
//! so a stray file or directory in the working directory can never shadow
//! a profile name.
//!
//! All stdout goes through one writer that treats a closed pipe (EPIPE,
//! as in `fbist profiles | head -1`) as a clean exit. Store hit/miss
//! statistics go to stderr so stdout stays diffable.

#![forbid(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;

use fbist_atpg::Atpg;
use fbist_fault::FaultList;
use fbist_genbench::{all_profiles, generate, profile};
use fbist_netlist::{bench, full_scan, Netlist, NetlistStats};
use fbist_setcover::lp;
use fbist_store::ArtifactStore;
use reseed_core::args::{self, Args};
use reseed_core::{
    export, tradeoff_sweep_with, Backend, FlowConfig, Gatsby, GatsbyConfig,
    InitialReseedingBuilder, MatrixBuild, ReseedingFlow, SimdWidth, TpgKind,
};

mod serve;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("fbist: {msg}");
            eprintln!();
            eprintln!("{}", usage());
            // `check` owns a three-way exit code (0 clean, 1 findings, 2
            // usage error) so scripts can distinguish "circuit has issues"
            // from "the invocation itself was wrong"; every other
            // subcommand keeps the classic ok/fail pair.
            let check = argv.first().is_some_and(|c| c == "check");
            ExitCode::from(1 + u8::from(check))
        }
    }
}

// ----------------------------------------------------------- option table

/// The option table: every flag of every subcommand and `fbist serve`
/// request line, once, with the commands that take it.
#[rustfmt::skip]
mod table {
    use reseed_core::args::{Opt, Table};

    // command groups: the subcommands, plus the `serve reseed` and
    // `serve sweep` request lines where a group includes them
    const SUBCOMMANDS: &[&str] =
        &["profiles", "gen", "stats", "check", "atpg", "reseed", "sweep", "compare", "lp", "serve"];
    const ALL: &[&str] = &[
        "profiles", "gen", "stats", "check", "atpg", "reseed", "sweep", "compare", "lp", "serve",
        "serve reseed", "serve sweep",
    ];
    const LOADS_CIRCUIT: &[&str] = &[
        "gen", "stats", "check", "atpg", "reseed", "sweep", "compare", "lp",
        "serve reseed", "serve sweep",
    ];
    const RUNS_FLOW: &[&str] = &["reseed", "sweep", "compare", "lp", "serve reseed", "serve sweep"];
    const RUNS_ATPG: &[&str] =
        &["atpg", "reseed", "sweep", "compare", "lp", "serve reseed", "serve sweep"];
    const ONE_TAU: &[&str] = &["reseed", "compare", "lp", "serve reseed"];
    const HAS_STORE: &[&str] = &["reseed", "sweep", "serve"];

    pub const SCALE: Opt = Opt::value("--scale", "F", LOADS_CIRCUIT, "profile scale factor (default 1)");
    pub const SEED: Opt =
        Opt::value("--seed", "N", LOADS_CIRCUIT, "profile seed (default 1); atpg: also the ATPG seed");
    pub const TPG: Opt = Opt::value("--tpg", "KIND", RUNS_FLOW, "test pattern generator (default add)");
    pub const TAU: Opt = Opt::value("--tau", "N", ONE_TAU, "evolution length τ (default 31)");
    pub const TAUS: Opt = Opt::value("--taus", "LIST", &["sweep", "serve sweep"],
        "comma-separated τ points (default 0,3,7,15,31,63,127,255)");
    pub const STATIC_PREPASS: Opt = Opt::switch("--static-prepass", RUNS_ATPG,
        "prune statically proven untestable faults before ATPG");
    pub const STATIC_LEARNING: Opt = Opt::switch("--static-learning", RUNS_ATPG,
        "learn implications for the pre-pass and for PODEM");
    pub const STORE: Opt =
        Opt::value("--store", "DIR", HAS_STORE, "artifact store (default: the FBIST_STORE directory)");
    pub const NO_STORE: Opt =
        Opt::switch("--no-store", HAS_STORE, "attach no store, whatever else asks for one");
    pub const OUT: Opt = Opt::value("--out", "FILE", &["gen"], "write the .bench text to FILE");
    pub const CSV: Opt =
        Opt::value("--csv", "FILE", &["reseed"], "also write the selected triplets as CSV");
    pub const ROM: Opt = Opt::value("--rom", "FILE", &["reseed"], "also write the seed ROM image");
    pub const JSON: Opt = Opt::switch("--json", &["check"], "emit the report as stable JSON");
    pub const JOBS: Opt =
        Opt::value("--jobs", "N", SUBCOMMANDS, "worker threads (0 = auto, default: FBIST_JOBS)");
    pub const BACKEND: Opt =
        Opt::value("--backend", "B", ALL, "set-covering backend: auto, dense or sparse");
    pub const MATRIX_BUILD: Opt = Opt::value("--matrix-build", "E", ALL,
        "Detection-Matrix engine: per-row, batched or auto");
    pub const SIMD_WIDTH: Opt = Opt::value("--simd-width", "W", ALL,
        "block width in 64-lane words: auto, 1, 2, 4 or 8");

    /// Every flag, in usage order.
    const OPTS: &[Opt] = &[
        SCALE, SEED, TPG, TAU, TAUS, STATIC_PREPASS, STATIC_LEARNING, STORE, NO_STORE,
        OUT, CSV, ROM, JSON, JOBS, BACKEND, MATRIX_BUILD, SIMD_WIDTH,
    ];

    const CIRCUIT: &[&str] = &["<circuit>"];

    /// The subcommands, with their positional arguments.
    pub const CLI: Table = Table {
        commands: &[
            ("profiles", &[]), ("gen", &["<profile>"]), ("stats", CIRCUIT), ("check", CIRCUIT),
            ("atpg", CIRCUIT), ("reseed", CIRCUIT), ("sweep", CIRCUIT), ("compare", CIRCUIT),
            ("lp", CIRCUIT), ("serve", &[]),
        ],
        opts: OPTS,
    };

    /// The request lines `fbist serve` reads.
    pub const REQUESTS: Table =
        Table { commands: &[("serve reseed", CIRCUIT), ("serve sweep", CIRCUIT)], opts: OPTS };
}

use table::*;

/// The usage text: the synopsis and flag help rendered from the table,
/// then what the table cannot say.
fn usage() -> String {
    let kinds: Vec<&str> = TpgKind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage:\n{}`fbist serve` reads one request per stdin line:\n{}{}\
<circuit> is an explicit .bench path (`.bench` suffix or a path separator),
else a built-in profile name, else an embedded circuit. KIND is one of {}.
τ must not exceed {}; a τ list computes a repeated τ once, in order.
Results are identical for every job count, backend, engine and SIMD width,
and cached answers are byte-identical to computed ones.
check runs the static analyses only (no simulation) and exits 0 when
clean, 1 on findings of warning severity or worse, 2 on a usage error.
serve evaluates the pending requests on a blank line or `flush`, exits on
`quit` or EOF, and answers `ok <id> ...` / `err <id> ...` in submission
order.",
        CLI.synopsis("fbist "),
        REQUESTS.synopsis(""),
        CLI.flags(),
        kinds.join(", "),
        FlowConfig::MAX_TAU,
    )
}

fn run(argv: &[String]) -> Result<u8, String> {
    let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
    let args = args::parse(cmd, rest, &CLI)?;
    if let Some(v) = args.value(&JOBS) {
        mini_rayon::set_jobs(mini_rayon::parse_jobs(v)?);
    }
    // every subcommand reads its flow knobs, so a bad value fails even
    // where the subcommand never runs the flow
    let cfg = flow_config(&args)?;
    match cmd.as_str() {
        "profiles" => cmd_profiles(),
        "gen" => cmd_gen(&args),
        "stats" => cmd_stats(&args),
        "check" => return cmd_check(&args).map(u8::from),
        "atpg" => cmd_atpg(&args, &cfg),
        "reseed" => cmd_reseed(&args, &cfg),
        "sweep" => cmd_sweep(&args, &cfg),
        "compare" => cmd_compare(&args, &cfg),
        "lp" => cmd_lp(&args, &cfg),
        "serve" => serve::cmd_serve(&args),
        other => unreachable!("the option table knows every subcommand, got {other:?}"),
    }
    .map(|()| 0)
}

// ---------------------------------------------------------------- helpers

/// The process's stdout, treating a closed pipe (EPIPE: the reader went
/// away, as in `fbist profiles | head -1`) as a clean exit rather than a
/// panic or an error.
struct Out;

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::io::stdout().write(buf).map_err(exit_on_closed_pipe)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        std::io::stdout().flush().map_err(exit_on_closed_pipe)
    }
}

fn exit_on_closed_pipe(e: std::io::Error) -> std::io::Error {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    e
}

/// `print!` through [`Out`], propagating other write errors with `?`.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(Out, $($arg)*).map_err(|e| format!("writing stdout: {e}"))?
    };
}

/// `println!` through [`Out`], propagating other write errors with `?`.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(Out, $($arg)*).map_err(|e| format!("writing stdout: {e}"))?
    };
}

/// The flow configuration of a parsed command line: each knob from its
/// flag, or its default where the command does not take that flag.
fn flow_config(args: &Args) -> Result<FlowConfig, String> {
    Ok(
        FlowConfig::new(args.get(&TPG, TpgKind::Adder, TpgKind::parse)?)
            .with_tau(reseed_core::check_tau(TAU.name, args.num(&TAU, 31)?)?)
            .with_backend(args.get(&BACKEND, Backend::Auto, Backend::parse)?)
            .with_matrix_build(args.get(&MATRIX_BUILD, MatrixBuild::Auto, MatrixBuild::parse)?)
            .with_simd_width(args.get(&SIMD_WIDTH, SimdWidth::Auto, SimdWidth::parse)?)
            .with_static_prepass(args.switch(&STATIC_PREPASS))
            .with_static_learning(args.switch(&STATIC_LEARNING)),
    )
}

/// The sweep's τ points, by the shared [`reseed_core::parse_tau_list`]
/// rules (non-empty, bounded, order-preserving dedup).
fn taus(args: &Args) -> Result<Vec<usize>, String> {
    let default = vec![0, 3, 7, 15, 31, 63, 127, 255];
    args.get(&TAUS, default, reseed_core::parse_tau_list)
}

/// Resolves the artifact store: `--no-store` disables it outright,
/// `--store DIR` opens (creating if needed) the given directory, else the
/// `FBIST_STORE` environment variable supplies the directory, else no
/// store. Open failures — the path is a file, the directory cannot be
/// created or written — surface as clear errors instead of a silently
/// cold cache.
fn resolve_store(args: &Args) -> Result<Option<ArtifactStore>, String> {
    resolve_store_from(args, std::env::var("FBIST_STORE").ok())
}

fn resolve_store_from(args: &Args, env: Option<String>) -> Result<Option<ArtifactStore>, String> {
    if args.switch(&NO_STORE) {
        return Ok(None);
    }
    let dir = match args.value(&STORE) {
        Some(d) if d.starts_with("--") => {
            let name = STORE.name;
            return Err(format!("{name} expects a directory, got flag {d:?}"));
        }
        Some(d) => d.to_owned(),
        None => match env.filter(|s| !s.is_empty()) {
            Some(d) => d,
            None => return Ok(None),
        },
    };
    ArtifactStore::open(std::path::Path::new(&dir))
        .map(Some)
        .map_err(|e| format!("opening artifact store: {e}"))
}

/// Builds a flow with the store from `args` attached (if any).
fn flow_for(args: &Args, netlist: &Netlist) -> Result<ReseedingFlow, String> {
    match resolve_store(args)? {
        Some(store) => ReseedingFlow::with_store(netlist, store),
        None => ReseedingFlow::new(netlist),
    }
    .map_err(|e| e.to_string())
}

/// Per-run store statistics, on stderr so stdout stays diffable between
/// cold and warm runs. Silent when no store is attached.
fn print_store_stats(flow: &ReseedingFlow, simd_width: SimdWidth) {
    let stages = flow.stages();
    if let Some(store) = stages.store() {
        let s = stages.stats();
        eprintln!(
            "fbist: store {}: cover {}/{}, first-detection {}/{}, atpg {}/{} (hits/misses), matrix_sim_passes={}",
            store.root().display(),
            s.cover_hits,
            s.cover_misses,
            s.first_detection_hits,
            s.first_detection_misses,
            s.atpg_hits,
            s.atpg_misses,
            flow.builder().matrix_sim_passes()
        );
        eprintln!("fbist: {}", simd_stats_line(flow, simd_width));
    }
}

/// One-line SIMD summary for stderr stats: the configured width knob and
/// the simulator's width-aware lane-occupancy counters (a wide block
/// contributes `64·W` lanes of capacity, so the ratio stays honest at
/// every width).
fn simd_stats_line(flow: &ReseedingFlow, simd_width: SimdWidth) -> String {
    let occ = flow
        .builder()
        .fault_simulator()
        .good_simulator()
        .occupancy();
    format!(
        "simd_width={} sim_blocks={} sim_lanes={}/{} occupancy={:.3}",
        simd_width,
        occ.blocks,
        occ.lanes,
        occ.capacity,
        occ.ratio()
    )
}

/// Loads a circuit. Namespaces are resolved in a fixed order:
///
/// 1. an **explicit `.bench` path** — the name ends in `.bench` or
///    contains a path separator;
/// 2. a **built-in profile** name (synthesised with `--scale`/`--seed`);
/// 3. an **embedded circuit** (`c17`, …);
/// 4. as a last resort, any other *existing file* (legacy extensionless
///    bench files — names that also match a profile or embedded circuit
///    resolve to those first, so nothing in the cwd can shadow them).
///
/// Sequential netlists are full-scanned. Errors name the namespace that
/// failed instead of a bare I/O message.
fn load_circuit(args: &Args) -> Result<Netlist, String> {
    let n = load_circuit_raw(args)?;
    Ok(if n.is_combinational() {
        n
    } else {
        full_scan(&n).into_combinational()
    })
}

/// [`load_circuit`] without the full-scan conversion: `check` analyses
/// the circuit as written, so flip-flop diagnostics (unconnected DFFs,
/// scan-observed `D` pins) stay visible instead of being rewritten into
/// pseudo-ports first.
fn load_circuit_raw(args: &Args) -> Result<Netlist, String> {
    let name = args.positional(0).ok_or("missing circuit argument")?;
    let scale: f64 = args.num(&SCALE, 1.0)?;
    let seed: u64 = args.num(&SEED, 1)?;
    let explicit_path =
        name.ends_with(".bench") || name.contains('/') || name.contains(std::path::MAIN_SEPARATOR);
    let n = if explicit_path {
        read_bench_file(name)?
    } else if let Some(p) = profile(name) {
        generate(&p.scaled(scale), seed)
    } else if let Some(n) = fbist_netlist::embedded::by_name(name) {
        n
    } else if std::path::Path::new(name).exists() {
        read_bench_file(name)?
    } else {
        return Err(format!(
            "circuit {name:?} not found in any namespace: not a .bench file path, \
             not a built-in profile (see `fbist profiles`), and not an embedded circuit"
        ));
    };
    Ok(n)
}

/// Reads and parses a `.bench` file, with errors that name the file
/// namespace (a directory is a common cwd-shadowing accident and gets a
/// direct message instead of a raw `EISDIR`).
fn read_bench_file(name: &str) -> Result<Netlist, String> {
    let path = std::path::Path::new(name);
    if path.is_dir() {
        return Err(format!(
            "circuit path {name:?} is a directory, not a .bench file"
        ));
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading .bench file {name}: {e}"))?;
    bench::parse_named(&text, name).map_err(|e| format!("parsing .bench file {name}: {e}"))
}

// ------------------------------------------------------------- subcommands

fn cmd_profiles() -> Result<(), String> {
    outln!("built-in circuit profiles (paper suite + extras):");
    for p in all_profiles() {
        outln!("  {p}");
    }
    outln!(
        "worker pool: {} jobs (override with {} N or FBIST_JOBS)",
        mini_rayon::jobs(),
        JOBS.name
    );
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let name = args.positional(0).ok_or("gen: missing profile name")?;
    let p = profile(name).ok_or_else(|| format!("no such profile {name:?}"))?;
    let scale: f64 = args.num(&SCALE, 1.0)?;
    let seed: u64 = args.num(&SEED, 1)?;
    let n = generate(&p.scaled(scale), seed);
    let text = bench::to_bench(&n);
    match args.value(&OUT) {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            outln!("wrote {} ({})", path, NetlistStats::of(&n));
        }
        None => out!("{text}"),
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let n = load_circuit(args)?;
    let s = NetlistStats::of(&n);
    outln!("{s}");
    outln!("  by kind:");
    for (kind, count) in &s.by_kind {
        outln!("    {kind:<6} {count}");
    }
    let faults = FaultList::full(&n);
    let collapsed = FaultList::collapsed(&n);
    outln!(
        "  faults: {} full, {} collapsed ({:.1} %)",
        faults.len(),
        collapsed.len(),
        100.0 * collapsed.len() as f64 / faults.len().max(1) as f64
    );
    Ok(())
}

/// `fbist check`: the static analyses, no simulation. Returns whether
/// the report contains warning-or-worse findings (the exit-1 condition);
/// `main` maps that onto the documented exit codes.
fn cmd_check(args: &Args) -> Result<bool, String> {
    let n = load_circuit_raw(args)?;
    let report = fbist_analyze::analyze(&n);
    if args.switch(&JSON) {
        outln!("{}", report.to_json());
    } else {
        out!("{}", report.render_text());
    }
    Ok(report.has_findings())
}

fn cmd_atpg(args: &Args, cfg: &FlowConfig) -> Result<(), String> {
    let n = load_circuit(args)?;
    let faults = FaultList::collapsed(&n);
    let atpg = Atpg::new(&n).map_err(|e| e.to_string())?;
    let mut cfg = cfg.atpg.clone();
    // `--seed` seeds the ATPG as well as the profile generation
    cfg.seed = args.num(&SEED, cfg.seed)?;
    let r = atpg.run(&faults, &cfg);
    outln!(
        "{}: {} patterns, coverage {:.2} % (efficiency {:.2} %), {} random-phase detections, {} PODEM tests, {} untestable, {} aborted",
        n.name(),
        r.patterns.len(),
        100.0 * r.coverage(),
        100.0 * r.efficiency(),
        r.random_detected,
        r.podem_tests,
        r.untestable.len(),
        r.aborted.len()
    );
    Ok(())
}

fn cmd_reseed(args: &Args, cfg: &FlowConfig) -> Result<(), String> {
    let n = load_circuit(args)?;
    let flow = flow_for(args, &n)?;
    let report = flow.run(cfg);
    print_store_stats(&flow, cfg.simd_width);
    if let Some(path) = args.value(&CSV) {
        std::fs::write(path, export::to_csv(&report))
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote triplet CSV to {path}");
    }
    if let Some(path) = args.value(&ROM) {
        std::fs::write(path, export::to_rom_image(&report))
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote seed ROM image to {path}");
    }
    outln!("{report}");
    outln!(
        "  matrix {}x{} → residual {}x{} in {} iterations ({} dominated rows)",
        report.initial_triplets,
        report.target_faults,
        report.residual.0,
        report.residual.1,
        report.reduction_iterations,
        report.dominated_rows
    );
    outln!(
        "  solver: {} nodes, optimal: {}; ROM: {} bits",
        report.solver_nodes,
        report.solution_optimal,
        report.rom_bits()
    );
    for (i, t) in report.selected.iter().enumerate() {
        outln!(
            "  triplet {:>3} {} τ={:<5} +{} faults, {} patterns{}",
            i,
            if t.necessary {
                "[necessary]"
            } else {
                "[solver]   "
            },
            t.triplet.tau(),
            t.new_faults,
            t.test_length,
            if i < 8 {
                format!("  {}", t.triplet)
            } else {
                String::new()
            }
        );
        if i == 16 && report.selected.len() > 18 {
            outln!("  … {} more", report.selected.len() - 17);
            break;
        }
    }
    Ok(())
}

fn cmd_sweep(args: &Args, cfg: &FlowConfig) -> Result<(), String> {
    let n = load_circuit(args)?;
    let taus = taus(args)?;
    let flow = flow_for(args, &n)?;
    let curve = tradeoff_sweep_with(&flow, cfg, &taus);
    print_store_stats(&flow, cfg.simd_width);
    outln!(
        "{} [{}] — reseedings vs. test length (Figure 2)",
        n.name(),
        cfg.tpg
    );
    outln!(
        "  {:>6} {:>10} {:>12} {:>10}",
        "tau",
        "#triplets",
        "test_length",
        "rom_bits"
    );
    for p in curve {
        outln!(
            "  {:>6} {:>10} {:>12} {:>10}",
            p.tau,
            p.triplets,
            p.test_length,
            p.rom_bits
        );
    }
    Ok(())
}

fn cmd_compare(args: &Args, cfg: &FlowConfig) -> Result<(), String> {
    let n = load_circuit(args)?;
    let (tpg, tau) = (cfg.tpg, cfg.tau);
    let flow = ReseedingFlow::new(&n).map_err(|e| e.to_string())?;
    let report = flow.run(cfg);
    let gatsby = Gatsby::new(&n).map_err(|e| e.to_string())?;
    let init = flow.builder().build(cfg);
    let gres = gatsby.run(
        &init.target_faults,
        &GatsbyConfig {
            tpg,
            tau,
            ..GatsbyConfig::default()
        },
    );
    outln!(
        "{} [{}] τ={tau} — set covering vs GATSBY-GA (Table 1)",
        n.name(),
        tpg
    );
    outln!(
        "  set covering : {:>4} triplets, test length {:>7}, covers {}/{}",
        report.triplet_count(),
        report.test_length(),
        report.covered_faults,
        report.target_faults
    );
    outln!(
        "  gatsby       : {:>4} triplets, test length {:>7}, covers {}/{} ({} fault-sim calls)",
        gres.triplet_count(),
        gres.test_length,
        gres.covered,
        gres.target_faults,
        gres.fault_sim_calls
    );
    let delta = gres.triplet_count() as i64 - report.triplet_count() as i64;
    outln!("  improvement  : {delta:+} triplets");
    Ok(())
}

fn cmd_lp(args: &Args, cfg: &FlowConfig) -> Result<(), String> {
    let n = load_circuit(args)?;
    let builder = InitialReseedingBuilder::new(&n).map_err(|e| e.to_string())?;
    let init = builder.build(cfg);
    out!("{}", lp::to_lp(&init.matrix));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Parses a `fbist` command line (subcommand first) against the table.
    fn cli(list: &[&str]) -> Result<Args, String> {
        let argv = argv(list);
        args::parse(&argv[0], &argv[1..], &CLI)
    }

    fn simd_width(argv: &[&str]) -> Result<SimdWidth, String> {
        flow_config(&cli(argv)?).map(|c| c.simd_width)
    }

    fn tau(argv: &[&str]) -> Result<usize, String> {
        flow_config(&cli(argv)?).map(|c| c.tau)
    }

    fn sweep_taus(argv: &[&str]) -> Result<Vec<usize>, String> {
        taus(&cli(argv)?)
    }

    fn store(argv: &[&str], env: Option<String>) -> Result<Option<ArtifactStore>, String> {
        resolve_store_from(&cli(argv)?, env)
    }

    #[test]
    fn simd_width_flag_parses_every_width_and_defaults_to_auto() {
        assert_eq!(simd_width(&["reseed"]), Ok(SimdWidth::Auto));
        for (v, w) in [
            ("auto", SimdWidth::Auto),
            ("1", SimdWidth::W1),
            ("2", SimdWidth::W2),
            ("4", SimdWidth::W4),
            ("8", SimdWidth::W8),
        ] {
            assert_eq!(simd_width(&["reseed", "--simd-width", v]), Ok(w));
        }
    }

    #[test]
    fn simd_width_flag_rejects_garbage_with_a_clear_error() {
        for bad in ["16", "0", "wide", "3", ""] {
            let err = simd_width(&["reseed", "--simd-width", bad]).unwrap_err();
            assert!(
                err.contains("unknown SIMD width") && err.contains("expected auto, 1, 2, 4 or 8"),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn simd_width_typo_fails_every_subcommand() {
        // validated globally like --jobs: even a subcommand that never
        // simulates must reject the typo instead of silently ignoring it
        let err = run(&argv(&["stats", "c17", "--simd-width", "16"])).unwrap_err();
        assert!(err.contains("unknown SIMD width"), "{err}");
    }

    #[test]
    fn tau_boundary_is_exact() {
        // the largest supported value is accepted; the next one is not
        let max = FlowConfig::MAX_TAU.to_string();
        assert_eq!(tau(&["reseed", "--tau", &max]), Ok(FlowConfig::MAX_TAU));
        let over = (FlowConfig::MAX_TAU + 1).to_string();
        let err = tau(&["reseed", "--tau", &over]).unwrap_err();
        assert!(err.contains("exceeds the supported maximum"), "{err}");
        assert_eq!(tau(&["reseed"]), Ok(31));
    }

    #[test]
    fn taus_dedupe_preserves_first_occurrence_order() {
        assert_eq!(
            sweep_taus(&["sweep", "--taus", "7, 0,7,3 ,0"]),
            Ok(vec![7, 0, 3])
        );
        let max = FlowConfig::MAX_TAU.to_string();
        assert_eq!(
            sweep_taus(&["sweep", "--taus", &format!("0,{max}")]),
            Ok(vec![0, FlowConfig::MAX_TAU])
        );
    }

    #[test]
    fn taus_reject_empty_bad_and_oversized_values() {
        let empty = sweep_taus(&["sweep", "--taus", " "]).unwrap_err();
        assert!(empty.contains("empty τ list"), "{empty}");
        let bad = sweep_taus(&["sweep", "--taus", "1,,2"]).unwrap_err();
        assert!(bad.contains("invalid τ value"), "{bad}");
        let over = (FlowConfig::MAX_TAU + 1).to_string();
        let huge = sweep_taus(&["sweep", "--taus", &format!("0,{over}")]).unwrap_err();
        assert!(huge.contains("exceeds the supported maximum"), "{huge}");
    }

    #[test]
    fn taus_default_is_the_documented_list() {
        assert_eq!(
            sweep_taus(&["sweep"]),
            Ok(vec![0, 3, 7, 15, 31, 63, 127, 255])
        );
    }

    #[test]
    fn no_store_beats_both_flag_and_env() {
        assert!(store(&["reseed", "--no-store"], None).unwrap().is_none());
        assert!(store(&["reseed", "--no-store", "--store", "/tmp/x"], None)
            .unwrap()
            .is_none());
        assert!(store(&["reseed", "--no-store"], Some("/tmp/x".into()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn absent_store_flag_falls_back_to_env_then_none() {
        assert!(store(&["reseed"], None).unwrap().is_none());
        assert!(store(&["reseed"], Some(String::new())).unwrap().is_none());
        let dir = std::env::temp_dir().join(format!("fbist-cli-env-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = store(&["reseed"], Some(dir.display().to_string()))
            .unwrap()
            .expect("env var must attach a store");
        assert_eq!(store.root(), dir.as_path());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn store_flag_creates_and_opens_the_directory() {
        let dir = std::env::temp_dir().join(format!(
            "fbist-cli-store-{}/nested/deep",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = store(&["reseed", "--store", &dir.display().to_string()], None)
            .unwrap()
            .expect("--store must attach a store");
        assert!(dir.is_dir(), "open must create the directory");
        assert_eq!(store.root(), dir.as_path());
        let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn store_flag_rejects_files_missing_values_and_flags() {
        // a file where the directory should be → a clear error naming it
        let file =
            std::env::temp_dir().join(format!("fbist-cli-store-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let err = store(&["reseed", "--store", &file.display().to_string()], None).unwrap_err();
        assert!(
            err.contains("opening artifact store") && err.contains("not a directory"),
            "{err}"
        );
        let _ = std::fs::remove_file(file);
        // a missing or flag-like value is a usage error, not a store named "--jobs"
        let err = store(&["reseed", "--store"], None).unwrap_err();
        assert!(
            err.contains("--store") && err.contains("needs a value (--store DIR)"),
            "{err}"
        );
        let err = store(&["reseed", "--store", "--jobs"], None).unwrap_err();
        assert!(err.contains("expects a directory"), "{err}");
    }
}
