//! The store-less workloads: `cold_reseed` (`ReseedingFlow::run` at one τ)
//! and `cold_sweep` (`tradeoff_sweep_with` over the default τ list).

use std::time::Instant;

use fbist_analyze::{untestable_faults_with, LearnedImplications};
use fbist_atpg::{Atpg, AtpgResult};
use fbist_fault::FaultList;
use fbist_setcover::{reduce_with, solve_with, DetectionMatrix, ReductionEvent};
use reseed_core::{
    tradeoff_sweep_with, FirstDetectionMatrix, FlowConfig, InitialReseeding, ReseedingFlow,
    ReseedingReport, SimdWidth,
};

use crate::common::{
    check_cover, flow_config, guarded, make_input, record_covers, set_up_repeated, trace_note,
    Setup, SWEEP_TAUS,
};
use crate::measure::{peak_rss_mb, quantile, secs_since, timed, CpuSpan};
use crate::{Args, Outcome};

/// Set-ups per run; `setup_s` is their median. A set-up takes about 10 ms,
/// so many of them keep the median steady.
const SETUP_REPS: usize = 21;

#[derive(Clone, Copy)]
enum Op {
    /// One single-τ reseed (`fbist reseed`).
    Reseed { tau: usize },
    /// One default sweep (`fbist sweep`).
    Sweep,
}

struct Case {
    profile: &'static str,
    scale: f64,
    op: Op,
}

/// A c7552-scale combinational circuit, τ = 31.
const RESEED: Case = Case {
    profile: "c7552",
    scale: 0.7,
    op: Op::Reseed { tau: 31 },
};

/// A full-scan mimic of s5378, the default 8-point sweep.
const SWEEP: Case = Case {
    profile: "s5378",
    scale: 0.6,
    op: Op::Sweep,
};

pub fn reseed(args: &Args) -> Result<Outcome, String> {
    run(args, &RESEED)
}

pub fn sweep(args: &Args) -> Result<Outcome, String> {
    run(args, &SWEEP)
}

/// The untraced operation, exactly as the CLI calls it: the covers it
/// produces, in τ order.
fn untraced(setup: &Setup, cfg: &FlowConfig, op: Op) -> Vec<ReseedingReport> {
    match op {
        Op::Reseed { .. } => vec![setup.flow.run(cfg)],
        Op::Sweep => tradeoff_sweep_with(&setup.flow, cfg, &SWEEP_TAUS)
            .into_iter()
            .map(|p| p.report)
            .collect(),
    }
}

fn run(args: &Args, case: &Case) -> Result<Outcome, String> {
    let input = make_input(case.profile, case.scale)?;
    let (setup, setup_s) = set_up_repeated(&input, SETUP_REPS)?;
    let mut cfg = match case.op {
        Op::Reseed { tau } => flow_config(args.jobs).with_tau(tau),
        Op::Sweep => flow_config(args.jobs),
    };
    // the benchmark seed draws the triplets' δ; the ATPG keeps its own
    // seed, so the target fault list is the same under every seed
    cfg.seed = args.seed;
    let mut out = Outcome {
        circuit: input.name.clone(),
        scale: case.scale,
        ..Outcome::default()
    };
    out.set("setup_s", setup_s);
    out.set("netlist.parse_s", setup.parse_s);
    out.set("netlist.scan_s", setup.scan_s);
    out.set("core.flow_new_s", setup.flow_new_s);
    out.set("netlist.gates", setup.netlist.gate_count() as f64);

    // ---- timed, untraced operations ------------------------------------------
    // one when tracing (the traced one follows); otherwise as many as fit
    // in the run's seconds, at least one
    let builder = setup.flow.builder();
    let t_run = Instant::now();
    let mut answers = Vec::new();
    let mut walls = Vec::new();
    loop {
        builder.reset_matrix_sim_passes();
        let (answer, wall) = timed(|| guarded(|| untraced(&setup, &cfg, case.op)));
        out.det
            .put("core.matrix_passes", builder.matrix_sim_passes());
        answers.push(answer);
        walls.push(wall);
        if args.trace || secs_since(t_run) + wall > args.seconds {
            break;
        }
    }
    let first = answers[0].clone()?;

    // ---- the target fault list (from the traced operation when tracing) ----
    let (atpg, target) = if args.trace {
        let (traced, traced_s) = timed(|| traced_op(&setup, &cfg, case.op, &mut out));
        let traced = traced?;
        let untraced_s = walls[0];
        out.set("trace.op_s", traced_s);
        out.set("trace.overhead_s", traced_s - untraced_s);
        out.set("trace.unaccounted_s", untraced_s - traced.self_s);
        let mut errors = Vec::new();
        if traced.reports != first {
            errors.push("the traced covers differ from the untraced ones".to_owned());
        }
        for r in &traced.reports {
            errors.extend(check_cover(&setup.netlist, r, &traced.target));
        }
        out.op(errors);
        layer_notes(&mut out, untraced_s, case.op);
        let get = |k: &str| out.values.get(k).copied().unwrap_or(0.0);
        let repeated = [
            "analyze.learn_s",
            "analyze.prepass_s",
            "tpg.expand_s",
            "setcover.reduce_s",
            "setcover.solve_s",
        ]
        .map(get)
        .iter()
        .sum();
        trace_note(&mut out, untraced_s, repeated);
        (traced.atpg, traced.target)
    } else {
        let base = builder.atpg_base(&cfg);
        (base.atpg, base.target_faults)
    };

    // ---- checks, outside every timed region ----------------------------------
    // the first answer is replayed; the others must repeat it exactly
    let mut errors = Vec::new();
    for r in &first {
        errors.extend(check_cover(&setup.netlist, r, &target));
    }
    out.op(errors);
    for answer in &answers[1..] {
        out.op(match answer {
            Ok(reports) if *reports == first => Vec::new(),
            Ok(_) => vec!["a repeated operation returned different covers".to_owned()],
            Err(e) => vec![e.clone()],
        });
    }

    let reports: Vec<&ReseedingReport> = first.iter().collect();
    record_covers(&mut out, &reports);
    record_counts(&mut out, &atpg, &reports);
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.set("op_p50_ms", quantile(&walls_ms, 0.5));
    out.set("op_p90_ms", quantile(&walls_ms, 0.9));
    out.set("ops_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
    out.set("peak_rss_mb", peak_rss_mb());
    let lanes_per_row = match case.op {
        Op::Reseed { tau } => tau + 1,
        Op::Sweep => SWEEP_TAUS[SWEEP_TAUS.len() - 1] + 1,
    };
    out.simd_words = SimdWidth::Auto.resolve(atpg.patterns.len() * lanes_per_row);
    let name = match case.op {
        Op::Reseed { .. } => "reseed_s",
        Op::Sweep => "sweep_s",
    };
    out.notes.push(format!(
        "{name} = {} s (median of {} operations), setup_s = {setup_s} s, error_rate = {}",
        quantile(&walls, 0.5),
        walls.len(),
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    Ok(out)
}

/// The ATPG counters and the Table-2 counters the reports carry (summed
/// over the covers), compared across runs.
fn record_counts(out: &mut Outcome, atpg: &AtpgResult, reports: &[&ReseedingReport]) {
    out.det.put("atpg.patterns", atpg.patterns.len());
    out.det.put("atpg.podem_tests", atpg.podem_tests);
    out.det.put("atpg.untestable", atpg.untestable.len());
    out.det.put("atpg.aborted", atpg.aborted.len());
    let sum = |f: &dyn Fn(&ReseedingReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    out.det.put(
        "setcover.iterations",
        sum(&|r| r.reduction_iterations as u64),
    );
    out.det
        .put("setcover.dominated_rows", sum(&|r| r.dominated_rows as u64));
    out.det
        .put("setcover.residual_rows", sum(&|r| r.residual.0 as u64));
    out.det
        .put("setcover.residual_cols", sum(&|r| r.residual.1 as u64));
    out.det
        .put("setcover.solver_nodes", sum(&|r| r.solver_nodes));
}

/// What the traced operation hands back.
struct Traced {
    reports: Vec<ReseedingReport>,
    atpg: AtpgResult,
    target: FaultList,
    /// Sum of the layer self times: what the untraced operation spends.
    self_s: f64,
}

/// The operation again, as the sequence of per-layer public calls the flow
/// makes, each timed from here. Calls the flow is known to repeat inside a
/// larger call (learning and the prepass inside `Atpg::run`, expansion
/// inside the matrix build, reduction and solving inside `finish`) are
/// timed on their own so the larger call's self time can be derived.
fn traced_op(setup: &Setup, cfg: &FlowConfig, op: Op, out: &mut Outcome) -> Result<Traced, String> {
    let netlist = &setup.netlist;
    let builder = setup.flow.builder();
    let engine = Atpg::new(netlist).map_err(|e| format!("building the ATPG engine: {e}"))?;
    let fsim = builder.fault_simulator();
    let per_wall = |cpu: f64, wall: f64| cpu / (wall * cfg.jobs as f64);

    // ---- fault list, static analysis, ATPG --------------------------------
    let (universe, collapse_s) = timed(|| FaultList::collapsed(netlist));
    let (db, learn_s) = timed(|| LearnedImplications::learn(netlist));
    let db = db.map_err(|e| format!("static learning: {e}"))?;
    let (pruned, prepass_s) = timed(|| untestable_faults_with(netlist, &universe, Some(&db)));
    let pruned = pruned.map_err(|e| format!("untestability prepass: {e}"))?;
    let mut acfg = cfg.atpg.clone();
    if acfg.jobs == 0 {
        acfg.jobs = cfg.jobs;
    }
    let span = CpuSpan::start();
    let atpg = engine.run(&universe, &acfg);
    let (run_s, atpg_cpu) = span.stop();
    let (target, base_s) = timed(|| universe.subset(&atpg.detected_ids()));

    // ---- matrix build --------------------------------------------------------
    let tpg = cfg.tpg.build(netlist.inputs().len());
    builder.reset_matrix_sim_passes();
    fsim.good_simulator().reset_occupancy();
    let span = CpuSpan::start();
    let (triplets, mut matrices, nnz) = match op {
        Op::Reseed { tau } => {
            let (triplets, m) = builder.matrix_for(
                &*tpg,
                &atpg.patterns,
                &target,
                tau,
                cfg.seed,
                cfg.jobs,
                cfg.matrix_build,
                cfg.simd_width,
            );
            let nnz: usize = (0..m.rows()).map(|r| m.row_weight(r)).sum();
            (triplets, Matrices::Direct(Some(m)), nnz)
        }
        Op::Sweep => {
            let (triplets, fdm) = builder.first_detection_matrix_for(
                &*tpg,
                &atpg.patterns,
                &target,
                SWEEP_TAUS[SWEEP_TAUS.len() - 1],
                cfg.seed,
                cfg.jobs,
                cfg.matrix_build,
                cfg.simd_width,
            );
            let nnz = fdm.nnz();
            (triplets, Matrices::FirstDetection(fdm), nnz)
        }
    };
    let (matrix_s, matrix_cpu) = span.stop();
    let occupancy = fsim.good_simulator().occupancy();
    let matrix_passes = builder.matrix_sim_passes();
    let (expanded, expand_s) =
        timed(|| triplets.iter().map(|t| tpg.expand(t).len()).sum::<usize>());

    // ---- covering and trim, per τ ----------------------------------------------
    let taus: Vec<usize> = match op {
        Op::Reseed { tau } => vec![tau],
        Op::Sweep => SWEEP_TAUS.to_vec(),
    };
    let mut cover = CoverLayers::default();
    let mut reports = Vec::with_capacity(taus.len());
    for &tau in &taus {
        let (matrix, at_tau_s) = match &mut matrices {
            Matrices::Direct(m) => (m.take().expect("one direct matrix per τ"), 0.0),
            Matrices::FirstDetection(fdm) => timed(|| fdm.at_tau(tau)),
        };
        cover.at_tau_s += at_tau_s;
        let initial = InitialReseeding {
            triplets: triplets.iter().map(|t| t.with_tau(tau)).collect(),
            matrix,
            target_faults: target.clone(),
            universe_size: universe.len(),
            atpg: atpg.clone(),
        };
        reports.push(cover.finish(&setup.flow, &cfg.clone().with_tau(tau), &initial));
    }

    let pruned_count = pruned.iter().filter(|&&p| p).count();
    let counts = [
        ("fault.faults", universe.len()),
        ("analyze.implications", db.implication_count()),
        ("analyze.pruned_faults", pruned_count),
        ("atpg.patterns", atpg.patterns.len()),
        ("atpg.podem_tests", atpg.podem_tests),
        ("atpg.untestable", atpg.untestable.len()),
        ("atpg.aborted", atpg.aborted.len()),
        ("tpg.patterns_expanded", expanded),
        ("sim.blocks", occupancy.blocks as usize),
        ("core.matrix_passes", matrix_passes as usize),
        ("setcover.nnz", nnz),
    ];
    for (name, value) in counts {
        out.set(name, value as f64);
        out.det.put(name, value);
    }
    out.set("fault.collapse_s", collapse_s);
    out.set("analyze.learn_s", learn_s);
    out.set("analyze.prepass_s", prepass_s);
    out.set("atpg.run_s", run_s);
    out.set("atpg.search_self_s", run_s - learn_s - prepass_s);
    out.set("atpg.cpu_per_wall", per_wall(atpg_cpu, run_s));
    out.set("atpg.efficiency", atpg.efficiency());
    out.set("core.base_s", base_s);
    out.set("tpg.expand_s", expand_s);
    out.set("core.matrix_s", matrix_s);
    out.set("fault.sim_self_s", matrix_s - expand_s);
    out.set("fault.cpu_per_wall", per_wall(matrix_cpu, matrix_s));
    out.set("sim.occupancy", occupancy.ratio());
    cover.record(out);

    let self_s = collapse_s + run_s + base_s + matrix_s + cover.at_tau_s + cover.finish_s;
    Ok(Traced {
        reports,
        atpg,
        target,
        self_s,
    })
}

/// The matrices the covering stage reads: one built at τ, or a
/// first-detection matrix thresholded per τ.
enum Matrices {
    Direct(Option<DetectionMatrix>),
    FirstDetection(FirstDetectionMatrix),
}

/// Per-layer accumulators of the covering and trim stage.
#[derive(Default)]
pub struct CoverLayers {
    pub at_tau_s: f64,
    pub reduce_s: f64,
    pub solve_s: f64,
    pub finish_s: f64,
    iterations: usize,
    essential_rows: usize,
    dominated_rows: usize,
    residual_rows: usize,
    residual_cols: usize,
    solver_nodes: u64,
}

impl CoverLayers {
    /// Reduction and solving timed on their own, then
    /// `ReseedingFlow::finish` (which repeats both, then trims).
    pub fn finish(
        &mut self,
        flow: &ReseedingFlow,
        cfg: &FlowConfig,
        initial: &InitialReseeding,
    ) -> ReseedingReport {
        let m = &initial.matrix;
        let (reduction, reduce_s) = timed(|| reduce_with(m, &cfg.solve.reducer, cfg.solve.backend));
        let (solution, solve_s) = timed(|| solve_with(m, &cfg.solve, &reduction));
        let (report, finish_s) = timed(|| flow.finish(cfg, initial));
        self.reduce_s += reduce_s;
        self.solve_s += solve_s;
        self.finish_s += finish_s;
        self.iterations += reduction.iterations;
        self.essential_rows += reduction.essential_rows.len();
        self.dominated_rows += reduction
            .log
            .iter()
            .filter(|e| matches!(e, ReductionEvent::RowDominated { .. }))
            .count();
        let (rows, cols) = reduction.residual_size();
        self.residual_rows += rows;
        self.residual_cols += cols;
        self.solver_nodes += solution.solver_nodes();
        report
    }

    pub fn record(&self, out: &mut Outcome) {
        out.set("setcover.at_tau_s", self.at_tau_s);
        out.set("setcover.reduce_s", self.reduce_s);
        out.set("setcover.solve_s", self.solve_s);
        out.set("core.finish_s", self.finish_s);
        out.set(
            "core.trim_self_s",
            self.finish_s - self.reduce_s - self.solve_s,
        );
        let counts = [
            ("setcover.iterations", self.iterations as u64),
            ("setcover.essential_rows", self.essential_rows as u64),
            ("setcover.dominated_rows", self.dominated_rows as u64),
            ("setcover.residual_rows", self.residual_rows as u64),
            ("setcover.residual_cols", self.residual_cols as u64),
            ("setcover.solver_nodes", self.solver_nodes),
        ];
        for (name, value) in counts {
            out.set(name, value as f64);
            out.det.put(name, value);
        }
    }
}

/// Layer shares of the untraced operation, for the human summary.
fn layer_notes(out: &mut Outcome, untraced_s: f64, op: Op) {
    let get = |k: &str| out.values.get(k).copied().unwrap_or(0.0);
    let share = |s: f64| 100.0 * s / untraced_s;
    let analyze_atpg = get("atpg.run_s");
    let matrix = get("core.matrix_s");
    out.notes.push(format!(
        "layer shares of the untraced operation ({untraced_s:.3} s): analyze+atpg {:.1} % \
         (learn {:.1} %, prepass {:.1} %, search {:.1} %), matrix {:.1} % (expand {:.1} %, \
         fault sim {:.1} %), covering+trim {:.1} % (reduce+solve {:.1} %), unaccounted {:.1} %",
        share(analyze_atpg),
        share(get("analyze.learn_s")),
        share(get("analyze.prepass_s")),
        share(get("atpg.search_self_s")),
        share(matrix),
        share(get("tpg.expand_s")),
        share(get("fault.sim_self_s")),
        share(get("setcover.at_tau_s") + get("core.finish_s")),
        share(get("setcover.reduce_s") + get("setcover.solve_s")),
        share(get("trace.unaccounted_s")),
    ));
    let (what, ok) = match op {
        Op::Reseed { .. } => (
            "analyze + atpg > 50 % of the operation",
            analyze_atpg > 0.5 * untraced_s,
        ),
        Op::Sweep => (
            "core.matrix_s > 50 % of the operation",
            matrix > 0.5 * untraced_s,
        ),
    };
    out.notes.push(format!(
        "dominant layer: {what}: {}",
        if ok { "yes" } else { "NO" }
    ));
}
