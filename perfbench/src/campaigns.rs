//! The engine-bound workload, `avf-to-target`, and the campaign unit the
//! service workload reuses for its reference runs.
//!
//! `avf-to-target` runs a fixed list of units, one adaptive assessment
//! each, in passes. A pass runs every unit once, one at a time (closed
//! loop); a run makes a number of passes fixed by `--seconds`. Every unit's
//! deterministic counters must repeat exactly across passes, and between
//! traced and untraced executions.

use crate::layers::{
    layer_metrics, probe_muarch, refmodel_ns_per_step, repeated_setup, setup_programs,
    EngineFigures, LayerFigures, Program, THREADS,
};
use crate::stats::{derive_seed, mean, median, peak_rss_mb, quantile};
use crate::trace::{RunClock, Tracer};
use crate::{metric, Args, Outcome};
use avgi_core::{classify_injection, default_ert_window, Imm, ImmClass};
use avgi_faultsim::{
    run_adaptive, run_campaign, sample_size_at, weighted_estimate, AdaptiveConfig, CampaignConfig,
    InjectionResult, RunMode,
};
use avgi_muarch::{RunOutcome, Structure};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Kind {
    /// `run_adaptive` to a ±`AVF_TARGET` AVF half-width at 95 %, budgeted
    /// at the uniform prescription for that half-width.
    Adaptive,
    /// `run_campaign` with a fixed number of uniformly sampled faults.
    Fixed { faults: usize },
}

pub struct Unit {
    /// Index into the set-up's programs.
    pub program: usize,
    pub structure: Structure,
    pub kind: Kind,
    pub seed: u64,
}

impl Unit {
    pub fn new(program: usize, name: &str, structure: Structure, kind: Kind, seed: u64) -> Self {
        let tag = format!("{name}/{}", structure.ident());
        Unit {
            program,
            structure,
            kind,
            seed: derive_seed(seed, &tag),
        }
    }
}

/// The counters of a unit that must repeat exactly for a given seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    pub runs: usize,
    pub batches: usize,
    pub post_cycles: u64,
    pub ert_expired: usize,
    /// Benign, then one count per IMM in `Imm::all()` order.
    pub imm: Vec<u64>,
    pub target_met: bool,
}

pub struct UnitOutcome {
    pub counters: Counters,
    pub results: Vec<InjectionResult>,
    /// Start of the call to a classified report.
    pub wall_s: f64,
    /// The `run_adaptive` or `run_campaign` call alone.
    pub engine_s: f64,
    pub classify_ns: f64,
    pub n_eff: f64,
    pub half_width: f64,
    /// The clock attached to the unit's campaign, if any.
    pub clock: Option<Arc<RunClock>>,
}

fn imm_histogram(results: &[InjectionResult], tracer: &Tracer, parent: u64, id: u64) -> Vec<u64> {
    tracer.span("avgi.classify_injection", parent, id, |_| {
        let mut hist = vec![0u64; 1 + Imm::all().len()];
        for r in results {
            let slot = match classify_injection(r) {
                ImmClass::Benign => 0,
                ImmClass::Manifested(imm) => {
                    1 + Imm::all()
                        .iter()
                        .position(|&i| i == imm)
                        .expect("every IMM is listed")
                }
            };
            hist[slot] += 1;
        }
        hist
    })
}

/// Executes one unit on `threads` engine threads. Its spans carry campaign
/// id `id` and hang under one root span, a child of `parent`.
pub fn run_unit(
    unit: &Unit,
    p: &Program,
    tracer: &Tracer,
    clock: Option<Arc<RunClock>>,
    threads: usize,
    (parent, id): (u64, u64),
) -> Result<UnitOutcome, String> {
    let window = default_ert_window(unit.structure, p.golden.cycles);
    let faults = match unit.kind {
        Kind::Adaptive => sample_size_at(AVF_TARGET, 0.95).map_err(|e| format!("budget: {e:?}"))?,
        Kind::Fixed { faults } => faults,
    };
    let mut base = CampaignConfig::new(
        unit.structure,
        faults,
        RunMode::FirstDeviation {
            ert_window: Some(window),
        },
    )
    .with_seed(unit.seed);
    base.threads = threads;
    if let Some(c) = &clock {
        base = base.with_observer(c.clone());
    }
    let cfg = crate::layers::config();
    let name = p.w.name;

    let root = tracer.new_id();
    let t0 = Instant::now();
    let (results, batches, target_met, n_eff, half_width) = match unit.kind {
        Kind::Adaptive => {
            let acfg = AdaptiveConfig::new(base).with_ci_target(AVF_TARGET);
            let report = tracer
                .span("faultsim.run_adaptive", root, id, |_| {
                    run_adaptive(&p.w, &cfg, &p.golden, &acfg)
                })
                .map_err(|e| format!("{name}: run_adaptive failed: {e}"))?;
            let hw = report.estimate.half_width();
            let planned = (report.batches * acfg.batch_runs).min(report.budget);
            if report.runs_used() != planned || report.weights.len() != planned {
                return Err(format!(
                    "{name}: {} batches should run {planned} faults with one weight each, \
                     got {} runs and {} weights",
                    report.batches,
                    report.runs_used(),
                    report.weights.len()
                ));
            }
            let n_eff = report.estimate.n_eff;
            (
                report.campaign.results,
                report.batches,
                hw <= AVF_TARGET,
                n_eff,
                hw,
            )
        }
        Kind::Fixed { faults } => {
            let c = tracer.span("faultsim.run_campaign", root, id, |_| {
                run_campaign(&p.w, &cfg, &p.golden, &base)
            });
            if c.results.len() != faults {
                return Err(format!(
                    "{name}/{}: asked for {faults} runs, got {}",
                    unit.structure.ident(),
                    c.results.len()
                ));
            }
            // Unit weights: the adaptive estimator reduces to the uniform one.
            let est = weighted_estimate(&c.results, &vec![1.0; c.results.len()], 0.95)
                .map_err(|e| format!("{name}: estimate failed: {e:?}"))?;
            (c.results, 1, true, est.n_eff, est.half_width())
        }
    };
    let engine_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let imm = imm_histogram(&results, tracer, root, id);
    let classify_ns = t1.elapsed().as_nanos() as f64;
    let wall_s = t0.elapsed().as_secs_f64();
    let span = match unit.kind {
        Kind::Adaptive => "bench.assessment",
        Kind::Fixed { .. } => "bench.campaign",
    };
    tracer.record(root, span, parent, id, t0, Instant::now());

    let counters = Counters {
        runs: results.len(),
        batches,
        post_cycles: results.iter().map(|r| r.post_inject_cycles).sum(),
        ert_expired: results
            .iter()
            .filter(|r| r.outcome == RunOutcome::ErtExpired)
            .count(),
        imm,
        target_met,
    };
    if let Some(c) = &clock {
        let observed = c.collector.snapshot().completed;
        if observed != counters.runs as u64 {
            return Err(format!(
                "{name}: collector saw {observed} runs, campaign returned {}",
                counters.runs
            ));
        }
    }
    Ok(UnitOutcome {
        counters,
        results,
        wall_s,
        engine_s,
        classify_ns,
        n_eff,
        half_width,
        clock,
    })
}

/// RegFile assessments of the `avf-to-target` workload.
pub const AVF_PROGRAMS: [&str; 6] = ["crc32", "qsort", "sha", "dijkstra", "blowfish", "rijndael"];
const AVF_TARGET: f64 = 0.01;

/// Nominal wall time of one untraced pass on a 2-vCPU host. An untraced
/// run makes `--seconds` ÷ this many passes, at least `MIN_PASSES`; a traced
/// run, which runs every unit twice, half as many, at least one. The count
/// depends on `--seconds` alone, so the operations a run attempts (and
/// fails) are fixed by its arguments, not by the host's speed.
const AVF_PASS_S: f64 = 15.0;
/// Untraced passes per run, at least (counters must repeat across them).
const MIN_PASSES: usize = 2;
/// Set-ups per run, at least, shared out before the first pass and after
/// every pass; `setup_s` is their median. A set-up takes about 0.1 s, so
/// each one falls wholly into a fast or a slow phase of a shared host
/// (about 2× apart); spread over the run, they sample its mix of phases as
/// the passes do, rather than the one phase at its start.
const SETUP_REPS: usize = 12;
/// A run that is still going this long after it started makes no further
/// passes, so it ends well within its time limit on a very slow host.
const RUN_DEADLINE_S: f64 = 100.0;

pub fn avf_to_target(args: &Args, tracer: &Tracer) -> Outcome {
    let units = AVF_PROGRAMS
        .iter()
        .enumerate()
        .map(|(i, name)| Unit::new(i, name, Structure::RegFile, Kind::Adaptive, args.seed))
        .collect::<Vec<_>>();
    run_passes(&AVF_PROGRAMS, &units, args, tracer).unwrap_or_else(Outcome::failed_with)
}

/// Runs `units` in a fixed number of passes (see `AVF_PASS_S`). Untraced,
/// each pass runs every unit once. Traced, each unit runs twice back to
/// back, untraced and traced in alternating order: the pair gives one
/// sample of the tracing overhead and a check that tracing changes no
/// counter. Set-up repeats between passes.
fn run_passes(
    programs: &[&str],
    units: &[Unit],
    args: &Args,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let planned = {
        let n = (args.seconds.as_secs_f64() / AVF_PASS_S).round() as usize;
        if args.trace {
            (n / 2).max(1)
        } else {
            n.max(MIN_PASSES)
        }
    };
    let setup_reps = SETUP_REPS.div_ceil(planned + 1);
    let setup_once = |t: &Tracer| setup_programs(programs, t);
    let (setup, mut setup_secs) = repeated_setup(setup_reps, tracer, None, setup_once)?;
    let mut out = Outcome {
        ns_per_step: refmodel_ns_per_step(&setup.programs, tracer),
        ..Outcome::default()
    };
    let quiet = Tracer::new(false);
    let mut first: Vec<Counters> = Vec::new();
    let mut passes: Vec<Vec<UnitOutcome>> = Vec::new();
    let mut overhead_pct = Vec::new();
    let start = Instant::now();
    while passes.len() < planned {
        if start.elapsed().as_secs_f64() > RUN_DEADLINE_S {
            out.notes.push(format!(
                "stopped after {} of {planned} passes: {RUN_DEADLINE_S} s elapsed",
                passes.len()
            ));
            break;
        }
        let k = passes.len();
        let mut pass = Vec::new();
        for (i, u) in units.iter().enumerate() {
            let p = &setup.programs[u.program];
            let id = (k * units.len() + i + 1) as u64;
            let plain = || run_unit(u, p, &quiet, None, THREADS, (0, id));
            let mut o = if args.trace {
                let traced = || run_unit(u, p, tracer, Some(RunClock::new()), THREADS, (0, id));
                let (a, b) = if (k + i).is_multiple_of(2) {
                    let a = plain()?;
                    (a, traced()?)
                } else {
                    let b = traced()?;
                    (plain()?, b)
                };
                if a.counters != b.counters {
                    out.errors.push(format!(
                        "{}: tracing changed the counters: {:?} vs {:?}",
                        p.w.name, a.counters, b.counters
                    ));
                }
                overhead_pct.push((b.wall_s - a.wall_s) / a.wall_s * 100.0);
                b
            } else {
                plain()?
            };
            o.results = Vec::new();
            match first.get(i) {
                None => first.push(o.counters.clone()),
                Some(c) if *c != o.counters => out.errors.push(format!(
                    "{}: counters differ between passes: {c:?} vs {:?}",
                    p.w.name, o.counters
                )),
                Some(_) => {}
            }
            // One operation per assessment; missing the CI target fails it.
            out.attempted += 1;
            out.failed += u64::from(!o.counters.target_met);
            pass.push(o);
        }
        passes.push(pass);
        let (_, secs) = repeated_setup(setup_reps, tracer, Some(&setup), setup_once)?;
        setup_secs.extend(secs);
    }

    for (i, (u, o)) in units.iter().zip(&passes[0]).enumerate() {
        let c = &o.counters;
        let walls: Vec<String> = passes
            .iter()
            .map(|p| format!("{:.1}", p[i].wall_s * 1e3))
            .collect();
        out.notes.push(format!(
            "{}/{}: runs_to_target {} batches {} half_width {:.5} target_met {} post_cycles_per_run {:.1} walls_ms [{}]",
            programs[u.program],
            u.structure.ident(),
            c.runs,
            c.batches,
            o.half_width,
            c.target_met,
            c.post_cycles as f64 / c.runs as f64,
            walls.join(",")
        ));
    }
    out.notes.push(format!(
        "setup_s reps [{}]",
        setup_secs
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(",")
    ));
    let all: Vec<&UnitOutcome> = passes.iter().flatten().collect();
    // Each unit's time is its median over the passes, so a pass that the
    // rest of the host slowed down moves no metric.
    let unit_ms: Vec<f64> = (0..units.len())
        .map(|i| median(&passes.iter().map(|p| p[i].wall_s * 1e3).collect::<Vec<_>>()))
        .collect();
    out.notes.push(format!(
        "passes {} latency samples {} (one per assessment, its median over the passes)",
        passes.len(),
        unit_ms.len()
    ));
    if args.trace {
        let probe = probe_muarch(&setup.programs, tracer);
        let grid = crate::service::grid_probe(args, tracer, &mut out)?;
        out.metrics = layer_metrics(&LayerFigures {
            golden_ms: mean(&setup.golden_ms),
            checkpoint_ms: mean(&setup.checkpoint_ms),
            probe,
            engine: engine_figures(&all, THREADS, passes.len()),
            ns_per_step: out.ns_per_step,
            grid,
            overhead_pct,
        });
    } else {
        let wall_s = unit_ms.iter().sum::<f64>() / 1e3;
        let runs: usize = first.iter().map(|c| c.runs).sum();
        out.metrics = vec![
            metric("setup_s", median(&setup_secs), "s"),
            metric("wall_s", wall_s, "s"),
            metric("runs_per_s", runs as f64 / wall_s, "1/s"),
            metric("runs_to_target", runs as f64, "runs"),
            metric("latency_ms_p50", quantile(&unit_ms, 0.5), "ms"),
            metric("latency_ms_p90", quantile(&unit_ms, 0.9), "ms"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
    }
    Ok(out)
}

/// Engine-layer figures over the units of `passes` passes; run walls come
/// from the units' clocks.
pub fn engine_figures(units: &[&UnitOutcome], threads: usize, passes: usize) -> EngineFigures {
    let runs: usize = units.iter().map(|o| o.counters.runs).sum();
    let post: u64 = units.iter().map(|o| o.counters.post_cycles).sum();
    let engine_s: f64 = units.iter().map(|o| o.engine_s).sum();
    let walls_ns: Vec<f64> = units
        .iter()
        .filter_map(|o| o.clock.as_ref())
        .flat_map(|c| c.walls_ns())
        .map(|ns| ns as f64)
        .collect();
    let per_pass = |n: f64| n / passes as f64;
    EngineFigures {
        post_cycles_per_run: post as f64 / runs as f64,
        ert_expired_frac: units.iter().map(|o| o.counters.ert_expired).sum::<usize>() as f64
            / runs as f64,
        ns_per_post_cycle: engine_s * 1e9 * threads as f64 / post as f64,
        run_us_p50: quantile(&walls_ns, 0.5) / 1e3,
        run_us_p90: quantile(&walls_ns, 0.9) / 1e3,
        thread_busy_frac: walls_ns.iter().sum::<f64>() / (engine_s * 1e9 * threads as f64),
        runs_to_target: per_pass(runs as f64),
        neff_ratio: units.iter().map(|o| o.n_eff).sum::<f64>() / runs as f64,
        batches: per_pass(units.iter().map(|o| o.counters.batches).sum::<usize>() as f64),
        half_width: mean(&units.iter().map(|o| o.half_width).collect::<Vec<_>>()),
        classify_ns_per_run: units.iter().map(|o| o.classify_ns).sum::<f64>() / runs as f64,
    }
}
