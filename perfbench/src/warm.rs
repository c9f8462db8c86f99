//! The `warm_query` workload: a closed loop with one client sending
//! single-τ reseed requests to a flow whose store one default sweep filled
//! during set-up.

use std::collections::BTreeMap;
use std::time::Instant;

use fbist_store::ArtifactStore;
use fbist_tpg::Triplet;
use reseed_core::{
    atpg_stage_key, cover_stage_key, first_detection_stage_key, tradeoff_sweep_with, AtpgBase,
    CachedFirstDetection, FirstDetectionMatrix, FlowConfig, InitialReseeding, ReseedingFlow,
    ReseedingReport, SimdWidth,
};

use crate::cold::CoverLayers;
use crate::common::{
    check_cover, flow_config, guarded, make_input, record_covers, set_up, trace_note, Input, Setup,
    SplitMix, SWEEP_TAUS,
};
use crate::measure::{median, peak_rss_mb, quantile, secs_since, timed};
use crate::record::{copy_tree, ScratchDir};
use crate::{Args, Outcome};

/// The circuit whose store answers the queries.
const PROFILE: &str = "c1908";
const SCALE: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// τ values asked for the first time in one pass of the stream.
const FIRST_TIME: usize = 120;
/// Every `REPEAT_EVERY`-th request repeats a τ the store already holds.
const REPEAT_EVERY: usize = 4;

/// The request stream: about three first-time τ values for every repeat.
/// First-time values are drawn one per stratum of the τ range the sweep
/// left open, so the mix of τ values (and with it the work per pass)
/// barely depends on the seed; the order and the repeats do.
fn stream(seed: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed);
    let tau_max = SWEEP_TAUS[SWEEP_TAUS.len() - 1];
    let open: Vec<usize> = (0..=tau_max).filter(|t| !SWEEP_TAUS.contains(t)).collect();
    let mut first: Vec<usize> = (0..FIRST_TIME)
        .map(|i| {
            let lo = i * open.len() / FIRST_TIME;
            let hi = (i + 1) * open.len() / FIRST_TIME;
            open[lo + rng.below(hi - lo)]
        })
        .collect();
    rng.shuffle(&mut first);
    let mut answered: Vec<usize> = SWEEP_TAUS.to_vec();
    let mut requests = Vec::new();
    for tau in first {
        if requests.len() % REPEAT_EVERY == REPEAT_EVERY - 1 {
            requests.push(answered[rng.below(answered.len())]);
        }
        answered.push(tau);
        requests.push(tau);
    }
    requests
}

/// Parse, scan and `ReseedingFlow::new`, then one default sweep into a
/// fresh template store.
fn set_up_with_store(input: &Input, cfg: &FlowConfig) -> Result<(Setup, ScratchDir), String> {
    let template = ScratchDir::new("warm-template").map_err(|e| format!("store dir: {e}"))?;
    let setup = set_up(input)?;
    let store = ArtifactStore::open(template.path()).map_err(|e| e.to_string())?;
    let flow = ReseedingFlow::with_store(&setup.netlist, store).map_err(|e| e.to_string())?;
    if tradeoff_sweep_with(&flow, cfg, &SWEEP_TAUS).len() != SWEEP_TAUS.len() {
        return Err("the store-filling sweep returned a short curve".to_owned());
    }
    Ok((setup, template))
}

/// The store-less in-memory reference: `at_tau` + `ReseedingFlow::finish`
/// on one ATPG base and one first-detection matrix.
struct Reference {
    base: AtpgBase,
    triplets: Vec<Triplet>,
    fdm: FirstDetectionMatrix,
    covers: BTreeMap<usize, ReseedingReport>,
}

impl Reference {
    fn build(setup: &Setup, cfg: &FlowConfig) -> Reference {
        let builder = setup.flow.builder();
        let base = builder.atpg_base(cfg);
        let tpg = cfg.tpg.build(setup.netlist.inputs().len());
        let (triplets, fdm) = builder.first_detection_matrix_for(
            &*tpg,
            &base.atpg.patterns,
            &base.target_faults,
            SWEEP_TAUS[SWEEP_TAUS.len() - 1],
            cfg.seed,
            cfg.jobs,
            cfg.matrix_build,
            cfg.simd_width,
        );
        Reference {
            base,
            triplets,
            fdm,
            covers: BTreeMap::new(),
        }
    }

    /// The reference cover at τ, and the errors of its replay check (only
    /// the first time τ is asked).
    fn cover(
        &mut self,
        setup: &Setup,
        cfg: &FlowConfig,
        tau: usize,
    ) -> (&ReseedingReport, Vec<String>) {
        let mut errors = Vec::new();
        if !self.covers.contains_key(&tau) {
            let initial = InitialReseeding {
                triplets: self.triplets.iter().map(|t| t.with_tau(tau)).collect(),
                matrix: self.fdm.at_tau(tau),
                target_faults: self.base.target_faults.clone(),
                universe_size: self.base.universe_size,
                atpg: self.base.atpg.clone(),
            };
            let report = setup.flow.finish(&cfg.clone().with_tau(tau), &initial);
            errors = check_cover(&setup.netlist, &report, &self.base.target_faults);
            self.covers.insert(tau, report);
        }
        (&self.covers[&tau], errors)
    }

    /// Checks that the store the set-up left holds exactly this base and
    /// first-detection matrix.
    fn check_store(&self, setup: &Setup, cfg: &FlowConfig, store: &ArtifactStore) -> Vec<String> {
        let mut errors = Vec::new();
        match store.get::<AtpgBase>(atpg_stage_key(&setup.netlist, cfg)) {
            Some(b) if b.atpg == self.base.atpg && b.target_faults == self.base.target_faults => {}
            _ => errors.push("the stored ATPG base differs from the in-memory one".to_owned()),
        }
        match store.get::<CachedFirstDetection>(first_detection_stage_key(&setup.netlist, cfg)) {
            Some(fd) if fd.matrix == self.fdm => {}
            _ => errors.push("the stored first-detection matrix differs".to_owned()),
        }
        errors
    }
}

/// One pass of the stream over a fresh copy of the template store.
struct Pass {
    answers: Vec<Result<ReseedingReport, String>>,
    latencies: Vec<f64>,
    wall: f64,
    /// Pass-level check failures (stage statistics).
    errors: Vec<String>,
    cover_hits: u64,
    cover_misses: u64,
}

/// A flow on a fresh copy of the template store, removed when the
/// returned directory drops.
fn fresh_flow(setup: &Setup, template: &ScratchDir) -> Result<(ReseedingFlow, ScratchDir), String> {
    let dir = ScratchDir::new("warm-pass").map_err(|e| format!("store dir: {e}"))?;
    copy_tree(template.path(), dir.path()).map_err(|e| format!("copying the store: {e}"))?;
    let store = ArtifactStore::open(dir.path()).map_err(|e| e.to_string())?;
    let flow = ReseedingFlow::with_store(&setup.netlist, store).map_err(|e| e.to_string())?;
    Ok((flow, dir))
}

/// The stage statistics every pass must show: no ATPG and no matrix
/// simulation.
fn stage_errors(flow: &ReseedingFlow) -> Vec<String> {
    let s = flow.stages().stats();
    let mut errors = Vec::new();
    if s.atpg_misses != 0 || s.first_detection_misses != 0 {
        errors.push(format!(
            "the stream recomputed a stage: atpg_misses={} first_detection_misses={}",
            s.atpg_misses, s.first_detection_misses
        ));
    }
    let passes = flow.builder().matrix_sim_passes();
    if passes != 0 {
        errors.push(format!("the stream ran {passes} matrix simulation passes"));
    }
    errors
}

fn untraced_pass(
    setup: &Setup,
    template: &ScratchDir,
    cfg: &FlowConfig,
    requests: &[usize],
) -> Result<Pass, String> {
    let (flow, _dir) = fresh_flow(setup, template)?;
    let configs: Vec<FlowConfig> = requests.iter().map(|&t| cfg.clone().with_tau(t)).collect();
    let mut answers = Vec::with_capacity(requests.len());
    let mut latencies = Vec::with_capacity(requests.len());
    let t0 = Instant::now();
    for config in &configs {
        let (answer, wall) = timed(|| guarded(|| flow.run(config)));
        answers.push(answer);
        latencies.push(wall);
    }
    let wall = secs_since(t0);
    let s = flow.stages().stats();
    let mut errors = stage_errors(&flow);
    if s.cover_hits + s.cover_misses != requests.len() as u64 {
        errors.push(format!(
            "{} cover hits + {} misses for {} requests",
            s.cover_hits,
            s.cover_misses,
            requests.len()
        ));
    }
    Ok(Pass {
        answers,
        latencies,
        wall,
        errors,
        cover_hits: s.cover_hits,
        cover_misses: s.cover_misses,
    })
}

/// Per-layer accumulators of a traced pass.
#[derive(Default)]
struct StoreLayers {
    load_cover_s: f64,
    load_atpg_s: f64,
    load_fd_s: f64,
    fd_stage_s: f64,
    save_cover_s: f64,
    cover: CoverLayers,
    /// ATPG runs and matrix simulation passes the stream caused.
    atpg_runs: u64,
    matrix_passes: u64,
}

impl StoreLayers {
    /// The part of a pass the untraced stream spends: the first-detection
    /// stage call re-reads the artifact the separately timed load decoded.
    fn self_s(&self) -> f64 {
        self.load_cover_s
            + self.load_atpg_s
            + self.fd_stage_s
            + self.cover.at_tau_s
            + self.cover.finish_s
            + self.save_cover_s
    }
}

/// The stream again, each request as the sequence of per-layer public
/// calls `ReseedingFlow::run` makes on a store, each timed from here.
fn traced_pass(
    setup: &Setup,
    template: &ScratchDir,
    cfg: &FlowConfig,
    requests: &[usize],
) -> Result<(Pass, StoreLayers), String> {
    let (flow, _dir) = fresh_flow(setup, template)?;
    let store = flow.stages().store().expect("a store is attached");
    let netlist = &setup.netlist;
    let tpg = cfg.tpg.build(netlist.inputs().len());
    // keys are derived before the stream: the flow hashes its circuit once
    let atpg_key = atpg_stage_key(netlist, cfg);
    let fd_key = first_detection_stage_key(netlist, cfg);
    let configs: Vec<FlowConfig> = requests.iter().map(|&t| cfg.clone().with_tau(t)).collect();
    let cover_keys: Vec<_> = configs
        .iter()
        .map(|c| cover_stage_key(netlist, c))
        .collect();

    let mut l = StoreLayers::default();
    let (mut hits, mut misses) = (0, 0);
    let mut answers = Vec::with_capacity(requests.len());
    let mut latencies = Vec::with_capacity(requests.len());
    let t0 = Instant::now();
    for ((&tau, config), &cover_key) in requests.iter().zip(&configs).zip(&cover_keys) {
        let t_request = Instant::now();
        let answer = guarded(|| -> Result<ReseedingReport, String> {
            let (cached, s) = timed(|| store.get::<ReseedingReport>(cover_key));
            l.load_cover_s += s;
            if let Some(report) = cached {
                hits += 1;
                return Ok(report);
            }
            misses += 1;
            let (base, s) = timed(|| store.get::<AtpgBase>(atpg_key));
            l.load_atpg_s += s;
            let base = base.ok_or("the atpg artifact is missing")?;
            let (fd, s) = timed(|| store.get::<CachedFirstDetection>(fd_key));
            l.load_fd_s += s;
            fd.ok_or("the first-detection artifact is missing")?;
            let ((triplets, fdm), s) = timed(|| {
                flow.stages()
                    .first_detection(flow.builder(), &*tpg, &base, config, tau)
            });
            l.fd_stage_s += s;
            let (matrix, s) = timed(|| fdm.at_tau(tau));
            l.cover.at_tau_s += s;
            let initial = InitialReseeding {
                triplets,
                matrix,
                target_faults: base.target_faults,
                universe_size: base.universe_size,
                atpg: base.atpg,
            };
            let report = l.cover.finish(&flow, config, &initial);
            let ((), s) = timed(|| flow.stages().cover_put(netlist, config, &report));
            l.save_cover_s += s;
            Ok(report)
        })
        .and_then(|r| r);
        latencies.push(secs_since(t_request));
        answers.push(answer);
    }
    let wall = secs_since(t0);
    l.atpg_runs = flow.stages().stats().atpg_misses;
    l.matrix_passes = flow.builder().matrix_sim_passes();
    let pass = Pass {
        answers,
        latencies,
        wall,
        errors: stage_errors(&flow),
        cover_hits: hits,
        cover_misses: misses,
    };
    Ok((pass, l))
}

pub fn query(args: &Args) -> Result<Outcome, String> {
    let input = make_input(PROFILE, SCALE)?;
    let cfg = flow_config(args.jobs);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take()); // remove the previous template before timing the next
        let (made, t) = timed(|| set_up_with_store(&input, &cfg));
        times.push(t);
        last = Some(made?);
    }
    let (setup, template) = last.expect("at least one set-up");
    let setup_s = median(&times);
    let requests = stream(args.seed);

    let mut out = Outcome {
        circuit: input.name.clone(),
        scale: SCALE,
        ..Outcome::default()
    };
    out.set("setup_s", setup_s);
    out.set("netlist.parse_s", setup.parse_s);
    out.set("netlist.scan_s", setup.scan_s);
    out.set("core.flow_new_s", setup.flow_new_s);
    out.set("netlist.gates", setup.netlist.gate_count() as f64);

    // ---- the reference, and the store the set-up left ---------------------
    let mut reference = Reference::build(&setup, &cfg);
    let template_store = ArtifactStore::open(template.path()).map_err(|e| e.to_string())?;
    out.op(reference.check_store(&setup, &cfg, &template_store));
    let fd_key = first_detection_stage_key(&setup.netlist, &cfg);
    let fd_bytes = std::fs::metadata(fd_key.path_under(template.path())).map_or(0, |m| m.len());

    // ---- passes, each checked as soon as it ends ---------------------------
    // (outside the timed region; only the latencies are kept, so the number
    // of passes does not change the memory the process holds)
    let mut latencies_ms = Vec::new();
    let mut stream_wall = 0.0;
    let mut timed_passes = 0;
    loop {
        let pass = untraced_pass(&setup, &template, &cfg, &requests)?;
        latencies_ms.extend(pass.latencies.iter().map(|l| l * 1e3));
        stream_wall += pass.wall;
        timed_passes += 1;
        if timed_passes == 1 {
            record_covers(&mut out, &computed_covers(&requests, &pass));
        }
        check_pass(&mut out, &mut reference, &setup, &cfg, &requests, &pass);
        if args.trace {
            // the traced pass is checked like the others but not timed as
            // a stream
            let (traced, l) = traced_pass(&setup, &template, &cfg, &requests)?;
            check_pass(&mut out, &mut reference, &setup, &cfg, &requests, &traced);
            record_layers(&mut out, &traced, &l, pass.wall);
            out.set("store.fd_bytes", fd_bytes as f64);
            out.set("fault.faults", reference.base.universe_size as f64);
            break;
        }
        if stream_wall + pass.wall > args.seconds {
            break;
        }
    }
    out.det.put("store.fd_bytes", fd_bytes);
    let queries_per_s = latencies_ms.len() as f64 / stream_wall;
    out.set("op_p50_ms", quantile(&latencies_ms, 0.5));
    out.set("op_p90_ms", quantile(&latencies_ms, 0.9));
    out.set("ops_per_s", queries_per_s);
    out.set("peak_rss_mb", peak_rss_mb());
    let lanes = reference.base.atpg.patterns.len() * (SWEEP_TAUS[SWEEP_TAUS.len() - 1] + 1);
    out.simd_words = SimdWidth::Auto.resolve(lanes);
    out.notes.push(format!(
        "query_p50_ms = {} ms, query_p90_ms = {} ms, queries_per_s = {queries_per_s} \
         ({} passes of {} requests), setup_s = {setup_s} s, error_rate = {}",
        quantile(&latencies_ms, 0.5),
        quantile(&latencies_ms, 0.9),
        timed_passes,
        requests.len(),
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    Ok(out)
}

/// Compares every answer of a pass with the reference (building and
/// replaying the reference cover the first time a τ is asked).
fn check_pass(
    out: &mut Outcome,
    reference: &mut Reference,
    setup: &Setup,
    cfg: &FlowConfig,
    requests: &[usize],
    pass: &Pass,
) {
    let mut pass_errors = pass.errors.clone();
    for (i, (&tau, answer)) in requests.iter().zip(&pass.answers).enumerate() {
        let mut errors = std::mem::take(&mut pass_errors);
        let (expected, ref_errors) = reference.cover(setup, cfg, tau);
        match answer {
            Ok(r) if r == expected => {}
            Ok(_) => errors.push(format!("request {i} (τ={tau}) differs from the reference")),
            Err(e) => errors.push(format!("request {i} (τ={tau}): {e}")),
        }
        errors.extend(ref_errors);
        out.op(errors);
    }
    out.det.put("store.cover_hits", pass.cover_hits);
    out.det.put("store.cover_misses", pass.cover_misses);
}

/// The covers a pass computes: one per first-time τ (repeats are reads).
fn computed_covers<'a>(requests: &[usize], pass: &'a Pass) -> Vec<&'a ReseedingReport> {
    let mut seen = SWEEP_TAUS.to_vec();
    let mut covers = Vec::new();
    for (&tau, answer) in requests.iter().zip(&pass.answers) {
        if let (false, Ok(r)) = (seen.contains(&tau), answer) {
            seen.push(tau);
            covers.push(r);
        }
    }
    covers
}

/// The per-layer metrics of a traced pass, against the untraced pass that
/// preceded it.
fn record_layers(out: &mut Outcome, traced: &Pass, l: &StoreLayers, untraced_s: f64) {
    l.cover.record(out);
    out.set("store.load_cover_s", l.load_cover_s);
    out.set("store.load_atpg_s", l.load_atpg_s);
    out.set("store.load_fd_s", l.load_fd_s);
    out.set("core.fd_stage_s", l.fd_stage_s);
    out.set("store.save_cover_s", l.save_cover_s);
    out.set("store.cover_hits", traced.cover_hits as f64);
    out.set("store.cover_misses", traced.cover_misses as f64);
    out.set("core.matrix_passes", l.matrix_passes as f64);
    out.set("trace.op_s", traced.wall);
    out.set("trace.overhead_s", traced.wall - untraced_s);
    out.set("trace.unaccounted_s", untraced_s - l.self_s());
    layer_notes(out, untraced_s, l.atpg_runs);
    let repeated = l.load_fd_s + l.cover.reduce_s + l.cover.solve_s;
    trace_note(out, untraced_s, repeated);
}

/// Layer shares of the untraced pass, for the human summary.
fn layer_notes(out: &mut Outcome, untraced_s: f64, atpg_runs: u64) {
    let get = |k: &str| out.values.get(k).copied().unwrap_or(0.0);
    let share = |s: f64| 100.0 * s / untraced_s;
    out.notes.push(format!(
        "layer shares of the untraced pass ({untraced_s:.3} s): store loads {:.1} % \
         (cover {:.1} %, atpg {:.1} %, first-detection {:.1} %), triplet derivation {:.1} %, \
         at_tau {:.1} %, reduce+solve {:.1} %, trim {:.1} %, cover save {:.1} %, \
         unaccounted {:.1} %",
        share(get("store.load_cover_s") + get("store.load_atpg_s") + get("store.load_fd_s")),
        share(get("store.load_cover_s")),
        share(get("store.load_atpg_s")),
        share(get("store.load_fd_s")),
        share(get("core.fd_stage_s") - get("store.load_fd_s")),
        share(get("setcover.at_tau_s")),
        share(get("setcover.reduce_s") + get("setcover.solve_s")),
        share(get("core.trim_self_s")),
        share(get("store.save_cover_s")),
        share(get("trace.unaccounted_s")),
    ));
    let idle = get("core.matrix_passes") == 0.0 && atpg_runs == 0;
    out.notes.push(format!(
        "dominant layers: zero ATPG and zero matrix passes in the stream: {}",
        if idle { "yes" } else { "NO" }
    ));
}
