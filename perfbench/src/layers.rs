//! Set-up shared by the workloads (golden capture and checkpoint sets per
//! program) and the per-layer probes of the simulator and the reference
//! interpreter.

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{metric, Metric};
use avgi_faultsim::{golden_for, watchdog_budget, CheckpointSet};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::pipeline::Sim;
use avgi_muarch::run::RunControl;
use avgi_muarch::trace::GoldenRun;
use avgi_workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

/// Checkpoints per set, as `CampaignConfig::new` defaults.
pub const CHECKPOINTS: u32 = 8;

/// Engine threads of every campaign and assessment.
pub const THREADS: usize = 2;

pub struct Program {
    pub w: Workload,
    pub golden: Arc<GoldenRun>,
    /// Built at set-up to time the layer; campaigns build their own.
    pub checkpoints: CheckpointSet,
}

pub struct Setup {
    pub programs: Vec<Program>,
    /// Wall time of each golden capture and checkpoint build, in ms.
    pub golden_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
}

pub fn config() -> MuarchConfig {
    MuarchConfig::big()
}

/// Captures the golden run and builds a checkpoint set for each program.
pub fn setup_programs(names: &[&str], tracer: &Tracer) -> Setup {
    let cfg = config();
    let mut s = Setup {
        programs: Vec::new(),
        golden_ms: Vec::new(),
        checkpoint_ms: Vec::new(),
    };
    for name in names {
        let w = avgi_workloads::by_name(name).expect("benchmark programs are registered");
        let t0 = Instant::now();
        let golden = tracer.span("faultsim.golden_for", 0, 0, |_| golden_for(&w, &cfg));
        s.golden_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let checkpoints = tracer.span("faultsim.CheckpointSet::build", 0, 0, |_| {
            CheckpointSet::build(&w, &cfg, &golden, CHECKPOINTS)
        });
        s.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let checkpoints = checkpoints.expect("golden prefix reaches every checkpoint");
        s.programs.push(Program {
            w,
            golden,
            checkpoints,
        });
    }
    s
}

/// Runs set-up `reps` times (at least once); returns the last set-up and
/// the wall time of each in seconds. Every repetition must capture the
/// same golden runs as the one before and as `reference`, when given.
pub fn repeated_setup(
    reps: usize,
    tracer: &Tracer,
    reference: Option<&Setup>,
    once: impl Fn(&Tracer) -> Setup,
) -> Result<(Setup, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let s = once(tracer);
        secs.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = last.as_ref().or(reference) {
            for (a, b) in prev.programs.iter().zip(&s.programs) {
                if a.golden.cycles != b.golden.cycles || a.golden.output != b.golden.output {
                    return Err(format!(
                        "golden run of {} differs between set-ups",
                        a.w.name
                    ));
                }
            }
        }
        last = Some(s);
    }
    Ok((last.expect("at least one set-up"), secs))
}

pub struct MuarchProbe {
    pub ns_per_cycle: f64,
    pub restore_us: f64,
    pub spawn_us: f64,
}

/// Dirty cycles simulated before each timed restore: one RegFile ERT
/// window, the distance a typical production-mode run travels.
const DIRTY_CYCLES: u64 = 1_200;
const RESTORES: usize = 16;

/// Fault-free re-simulation rate with the golden run attached, and the
/// spawn and restore cost of a mid-run checkpoint, over `programs`.
pub fn probe_muarch(programs: &[Program], tracer: &Tracer) -> MuarchProbe {
    let cfg = config();
    let (mut cycles, mut resim_ns) = (0u64, 0f64);
    let (mut restores, mut spawns) = (Vec::new(), Vec::new());
    for p in programs {
        let ctl = RunControl {
            max_cycles: watchdog_budget(p.golden.cycles),
            golden: Some(p.golden.clone()),
            ..Default::default()
        };
        let mut sim = Sim::new(&p.w.program, cfg.clone());
        let target = p.golden.cycles - 1;
        let t0 = Instant::now();
        let end = tracer.span("muarch.Sim::run_to_cycle", 0, 0, |_| {
            sim.run_to_cycle(target, &ctl)
        });
        resim_ns += t0.elapsed().as_nanos() as f64;
        assert!(
            end.is_none(),
            "fault-free re-simulation of {} ended early",
            p.w.name
        );
        cycles += target;

        let snap = p.checkpoints.nearest(p.golden.cycles / 2);
        for _ in 0..RESTORES {
            let t0 = Instant::now();
            let mut scratch = tracer.span("muarch.Snapshot::spawn", 0, 0, |_| snap.spawn());
            spawns.push(t0.elapsed().as_nanos() as f64 / 1e3);
            let dirty_to = snap.cycle() + DIRTY_CYCLES;
            assert!(scratch.run_to_cycle(dirty_to, &ctl).is_none());
            let t0 = Instant::now();
            tracer.span("muarch.Sim::restore_from", 0, 0, |_| {
                scratch.restore_from(snap)
            });
            restores.push(t0.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(&scratch);
        }
    }
    MuarchProbe {
        ns_per_cycle: resim_ns / cycles as f64,
        restore_us: median(&restores),
        spawn_us: median(&spawns),
    }
}

/// Reference-tier interpreter speed over `programs`: host calibration.
pub fn refmodel_ns_per_step(programs: &[Program], tracer: &Tracer) -> f64 {
    let (mut steps, mut ns) = (0u64, 0f64);
    for p in programs {
        let t0 = Instant::now();
        let (_, run) = tracer.span("refmodel.reference_run_tier", 0, 0, |_| {
            avgi_refmodel::reference_run_tier(&p.w.program, avgi_refmodel::ExecTier::Reference, 0)
        });
        ns += t0.elapsed().as_nanos() as f64;
        steps += run.steps;
    }
    ns / steps.max(1) as f64
}

/// Campaign-engine, sampler and classifier figures of a set of campaigns.
pub struct EngineFigures {
    pub post_cycles_per_run: f64,
    pub ert_expired_frac: f64,
    pub ns_per_post_cycle: f64,
    pub run_us_p50: f64,
    pub run_us_p90: f64,
    pub thread_busy_frac: f64,
    pub runs_to_target: f64,
    pub neff_ratio: f64,
    pub batches: f64,
    pub half_width: f64,
    pub classify_ns_per_run: f64,
}

pub struct LayerFigures {
    pub golden_ms: f64,
    pub checkpoint_ms: f64,
    pub probe: MuarchProbe,
    pub engine: EngineFigures,
    pub ns_per_step: f64,
    /// The `grid.*` metrics (see `service::grid_metrics`).
    pub grid: Vec<Metric>,
    /// One traced-vs-untraced overhead sample per pair of trials, in %.
    pub overhead_pct: Vec<f64>,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub fn layer_metrics(f: &LayerFigures) -> Vec<Metric> {
    let e = &f.engine;
    let mut m = vec![
        metric("muarch.golden_ms", f.golden_ms, "ms"),
        metric("muarch.ns_per_cycle", f.probe.ns_per_cycle, "ns"),
        metric("muarch.restore_us", f.probe.restore_us, "us"),
        metric("muarch.spawn_us", f.probe.spawn_us, "us"),
        metric("faultsim.checkpoint_ms", f.checkpoint_ms, "ms"),
        metric(
            "faultsim.post_cycles_per_run",
            e.post_cycles_per_run,
            "cycles",
        ),
        metric("faultsim.ert_expired_frac", e.ert_expired_frac, "fraction"),
        metric("faultsim.ns_per_post_cycle", e.ns_per_post_cycle, "ns"),
        metric(
            "faultsim.overhead_ratio",
            e.ns_per_post_cycle / f.probe.ns_per_cycle,
            "ratio",
        ),
        metric("faultsim.run_us_p50", e.run_us_p50, "us"),
        metric("faultsim.run_us_p90", e.run_us_p90, "us"),
        metric("faultsim.thread_busy_frac", e.thread_busy_frac, "fraction"),
        metric("adaptive.runs_to_target", e.runs_to_target, "runs"),
        metric("adaptive.neff_ratio", e.neff_ratio, "ratio"),
        metric("adaptive.batches", e.batches, "count"),
        metric("adaptive.half_width", e.half_width, "fraction"),
        metric("avgi.classify_ns_per_run", e.classify_ns_per_run, "ns"),
        metric("refmodel.ns_per_step", f.ns_per_step, "ns"),
    ];
    m.extend(f.grid.iter().map(|g| metric(g.name, g.value, g.unit)));
    m.push(metric(
        "trace.overhead_pct_q1",
        quantile(&f.overhead_pct, 0.25),
        "%",
    ));
    m.push(metric(
        "trace.overhead_pct_q3",
        quantile(&f.overhead_pct, 0.75),
        "%",
    ));
    m
}
