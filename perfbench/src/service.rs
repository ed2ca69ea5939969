//! The `service-closed-loop` workload: one in-process `grid::Service` with
//! one in-process worker, driven over HTTP by one closed-loop client.
//!
//! Each round the client submits one campaign for each of two tenants,
//! polls both at a fixed interval until both report done, checks each
//! report byte for byte against an in-process reference run of the same
//! spec, and only then starts the next round. A pass is one round per
//! program, so every pass submits the same twelve specs.

use crate::campaigns::{engine_figures, run_unit, Kind, Unit, UnitOutcome, AVF_PROGRAMS};
use crate::layers::{
    layer_metrics, probe_muarch, refmodel_ns_per_step, setup_programs, LayerFigures, Setup,
};
use crate::stats::{mean, median, peak_rss_mb, quantile};
use crate::trace::{RunClock, Tracer};
use crate::{metric, Args, Metric, Outcome};
use avgi_faultsim::{DurabilityPolicy, RunMode};
use avgi_grid::proto::WireStats;
use avgi_grid::service::reference_report;
use avgi_grid::{Service, ServiceConfig, ServiceStats, SubmitSpec, WorkerConfig, WorkerStats};
use avgi_muarch::Structure;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const FAULTS: usize = 128;
const TENANTS: usize = 2;
const ERT_WINDOW: u64 = 1_200;
/// Nominal wall time of one pass on a 2-vCPU host. An untraced run makes
/// `--seconds` ÷ this many passes, at least `MIN_PASSES` (the faster nine
/// of them hold 108 campaigns, so p90 has ten samples above it); a traced
/// run rounds that up to whole traced/untraced pairs. The count depends on
/// `--seconds` alone rather than on the host's speed, because the worker
/// keeps every campaign's runtime, so peak memory grows with the campaigns
/// served.
const PASS_S: f64 = 2.35;
const MIN_PASSES: usize = 17;
const POLL: Duration = Duration::from_millis(5);
/// Campaigns not done this long after the run started count as failed.
const RUN_DEADLINE: Duration = Duration::from_secs(150);
/// Set-up repetitions per run; `setup_s` is their median. The first sets up
/// the fleet the run uses; the others are spread over the run, each binding
/// a fleet of its own and stopping it again, so they do not all land in one
/// slow phase of the host.
const SETUP_REPS: usize = 5;
/// Span campaign ids: reference runs and service campaigns get their own
/// ranges, apart from the engine workloads' units (1, 2, ...).
const REFERENCE_SPANS: u64 = 1_000_000;
const SERVICE_SPANS: u64 = 2_000_000;

/// A running service with its worker.
struct Fleet {
    http: SocketAddr,
    stop: Arc<AtomicBool>,
    service: JoinHandle<Result<ServiceStats, avgi_grid::GridError>>,
    worker: JoinHandle<Result<WorkerStats, avgi_grid::GridError>>,
    service_wire: (Arc<WireStats>, Arc<WireStats>),
    worker_wire: Arc<WireStats>,
    dir: PathBuf,
}

impl Fleet {
    /// Binds a service with a durable queue and per-campaign journals under
    /// `dir`, attaches one single-thread worker, and waits until the
    /// service counts it.
    fn start(dir: PathBuf, tracer: &Tracer) -> Result<Fleet, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = ServiceConfig {
            http_bind: Some("127.0.0.1:0".into()),
            queue: dir.join("queue.jsonl"),
            journal_dir: Some(dir.join("journals")),
            durability: DurabilityPolicy::Flush,
            deadline: Some(RUN_DEADLINE + Duration::from_secs(20)),
            stop: Some(stop.clone()),
            ..ServiceConfig::default()
        };
        let service = tracer
            .span("grid.Service::bind", 0, 0, |_| Service::bind(cfg))
            .map_err(|e| format!("service bind failed: {e}"))?;
        let fabric = service
            .local_addr()
            .map_err(|e| format!("service address: {e}"))?
            .to_string();
        let http = service.http_addr().ok_or("service has no HTTP address")?;
        let service_wire = service.wire_stats();
        let service = std::thread::spawn(move || service.run());
        let worker_wire = Arc::new(WireStats::new());
        let mut wcfg = WorkerConfig::new(fabric);
        wcfg.threads = 1;
        wcfg.wire = Some(worker_wire.clone());
        let worker = std::thread::spawn(move || avgi_grid::run_worker(&wcfg));
        let fleet = Fleet {
            http,
            stop,
            service,
            worker,
            service_wire,
            worker_wire,
            dir,
        };
        let t0 = Instant::now();
        loop {
            if let Some((200, body)) = get(http, "/fleet") {
                if !body.starts_with("{\"workers\":0") {
                    break;
                }
            }
            if t0.elapsed() > Duration::from_secs(20) {
                let _ = fleet.stop();
                return Err("worker did not attach within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        tracer.record(
            tracer.new_id(),
            "grid.run_worker.attach",
            0,
            0,
            t0,
            Instant::now(),
        );
        Ok(fleet)
    }

    /// Drains the fleet; returns the service's and the worker's statistics.
    fn stop(self) -> Result<(ServiceStats, WorkerStats, u64), String> {
        self.stop.store(true, Ordering::SeqCst);
        let service = self.service.join().map_err(|_| "service thread panicked")?;
        let worker = self.worker.join().map_err(|_| "worker thread panicked")?;
        let _ = std::fs::remove_dir_all(&self.dir);
        let service = service.map_err(|e| format!("service failed: {e}"))?;
        let worker = worker.map_err(|e| format!("worker failed: {e}"))?;
        let bytes = self.service_wire.0.total().1
            + self.service_wire.1.total().1
            + self.worker_wire.total().1;
        Ok((service, worker, bytes))
    }
}

/// One blocking exchange with the service's one-shot HTTP surface.
fn http(addr: SocketAddr, request: &str) -> Option<(u16, String)> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_nodelay(true).ok()?;
    s.write_all(request.as_bytes()).ok()?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).ok()?;
    let status = raw.split(' ').nth(1)?.parse().ok()?;
    Some((status, raw.split_once("\r\n\r\n")?.1.to_string()))
}

fn get(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"))
}

fn post(addr: SocketAddr, body: &str) -> Option<(u16, String)> {
    http(
        addr,
        &format!(
            "POST /campaigns HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The integer after `"key":` in a service-generated status body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// One tenant's campaign for one program, and its expected report.
struct Spec {
    submit: SubmitSpec,
    unit: Unit,
    program: usize,
}

fn specs(seed: u64) -> Vec<Spec> {
    let mut out = Vec::new();
    for tenant in 0..TENANTS {
        for (i, name) in AVF_PROGRAMS.iter().enumerate() {
            let tag = format!("tenant{tenant}/{name}");
            let unit = Unit::new(
                i,
                &tag,
                Structure::RegFile,
                Kind::Fixed { faults: FAULTS },
                seed,
            );
            let mut submit = SubmitSpec::new(name, Structure::RegFile, FAULTS, unit.seed);
            submit.mode = RunMode::FirstDeviation {
                ert_window: Some(ERT_WINDOW),
            };
            out.push(Spec {
                submit,
                unit,
                program: i,
            });
        }
    }
    out
}

/// One campaign's client-side timings.
struct Sample {
    spec: usize,
    pass: usize,
    latency_ms: f64,
    submit_ms: f64,
    first_result_ms: f64,
    report_ms: f64,
    polls: u64,
}

/// Everything a set-up produces: programs, the reference outcome and
/// report of every spec, and the attached fleet.
struct Prepared {
    setup: Setup,
    references: Vec<(UnitOutcome, String)>,
    fleet: Fleet,
}

fn prepare(specs: &[Spec], tracer: &Tracer, dir: PathBuf) -> Result<Prepared, String> {
    let setup = setup_programs(&AVF_PROGRAMS, tracer);
    let mut references = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let p = &setup.programs[s.program];
        let clock = RunClock::new();
        let id = REFERENCE_SPANS + i as u64;
        let o = tracer.span("grid.reference_report", 0, id, |span| {
            run_unit(&s.unit, p, tracer, Some(clock.clone()), 1, (span, id))
        })?;
        let report = reference_report(
            p.w.name,
            s.submit.structure,
            p.golden.cycles,
            &o.results,
            &clock.collector.snapshot(),
        );
        references.push((o, report));
    }
    let fleet = Fleet::start(dir, tracer)?;
    Ok(Prepared {
        setup,
        references,
        fleet,
    })
}

/// A finished closed-loop run.
struct LoopRun {
    /// Wall time of each set-up, in seconds.
    setup_secs: Vec<f64>,
    setup: Setup,
    references: Vec<(UnitOutcome, String)>,
    samples: Vec<Sample>,
    pass_walls: Vec<f64>,
    overhead_pct: Vec<f64>,
    service: ServiceStats,
    worker: WorkerStats,
    wire_bytes: u64,
}

/// How much closed-loop work a run does.
struct Plan {
    setup_reps: usize,
    passes: usize,
    /// Alternate traced and untraced passes, one overhead sample per pair.
    paired: bool,
}

/// Runs `plan.passes` passes, with `plan.setup_reps` set-ups spread over them.
fn closed_loop_run(
    seed: u64,
    plan: &Plan,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<LoopRun, String> {
    let specs = specs(seed);
    let base = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("service-{}", std::process::id()));
    let t0 = Instant::now();
    let Prepared {
        setup,
        references,
        fleet,
    } = prepare(&specs, tracer, base.join("rep0"))?;
    let mut setup_secs = vec![t0.elapsed().as_secs_f64()];
    // Passes after which one more set-up is timed.
    let extra = plan.setup_reps.saturating_sub(1);
    let setup_after = |k: usize| (1..=extra).any(|r| r * plan.passes / (extra + 1) == k + 1);

    let quiet = Tracer::new(false);
    let addr = fleet.http;
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut pass_walls = Vec::new();
    let mut overhead_pct = Vec::new();
    let mut accepted = 0u64;
    let mut timed_out = false;
    'passes: loop {
        let k = pass_walls.len();
        // Paired passes: untraced first in even pairs, traced first in odd.
        let t = if !plan.paired || (k % 2 == 0) == ((k / 2) % 2 == 1) {
            tracer
        } else {
            &quiet
        };
        let pass_start = Instant::now();
        for round in 0..AVF_PROGRAMS.len() {
            let mut pending = Vec::new();
            for tenant in 0..TENANTS {
                let spec = tenant * AVF_PROGRAMS.len() + (round + tenant * 3) % AVF_PROGRAMS.len();
                out.attempted += 1;
                let root = t.new_id();
                let t_post = Instant::now();
                let reply = post(addr, &specs[spec].submit.to_json());
                let submit_ms = t_post.elapsed().as_secs_f64() * 1e3;
                match reply {
                    Some((201, body)) => {
                        let id = json_u64(&body, "id").ok_or("submit reply has no id")?;
                        accepted += 1;
                        t.record(
                            t.new_id(),
                            "grid.http.post",
                            root,
                            SERVICE_SPANS + id,
                            t_post,
                            Instant::now(),
                        );
                        pending.push(Pending {
                            id,
                            spec,
                            root,
                            t_post,
                            submit_ms,
                            first: None,
                            polls: 0,
                            http_error: false,
                        });
                    }
                    other => {
                        out.failed += 1;
                        out.notes.push(format!("submission refused: {other:?}"));
                    }
                }
            }
            while !pending.is_empty() {
                if started.elapsed() > RUN_DEADLINE {
                    out.failed += pending.len() as u64;
                    out.notes.push(format!(
                        "{} campaigns not done by the run deadline",
                        pending.len()
                    ));
                    timed_out = true;
                    break 'passes;
                }
                std::thread::sleep(POLL);
                let mut still = Vec::new();
                for mut c in pending {
                    let t_get = Instant::now();
                    let reply = get(addr, &format!("/campaigns/{}", c.id));
                    let now = Instant::now();
                    c.polls += 1;
                    let span_id = SERVICE_SPANS + c.id;
                    t.record(t.new_id(), "grid.http.get", c.root, span_id, t_get, now);
                    let body = match reply {
                        Some((200, body)) => body,
                        other => {
                            // The campaign has failed; keep polling so the
                            // service's completion count still matches.
                            if !c.http_error {
                                out.failed += 1;
                                out.notes
                                    .push(format!("status poll of {} failed: {other:?}", c.id));
                            }
                            c.http_error = true;
                            still.push(c);
                            continue;
                        }
                    };
                    let completed = json_u64(&body, "completed").unwrap_or(0);
                    if c.first.is_none() && completed > 0 {
                        c.first = Some(now - c.t_post);
                    }
                    if !body.contains("\"done\":true") {
                        still.push(c);
                        continue;
                    }
                    t.record(c.root, "grid.campaign", 0, span_id, c.t_post, now);
                    check_report(&body, c.id, &references[c.spec].1, out);
                    if c.http_error {
                        continue;
                    }
                    samples.push(Sample {
                        spec: c.spec,
                        pass: k,
                        latency_ms: (now - c.t_post).as_secs_f64() * 1e3,
                        submit_ms: c.submit_ms,
                        first_result_ms: c.first.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3),
                        report_ms: (now - t_get).as_secs_f64() * 1e3,
                        polls: c.polls,
                    });
                }
                pending = still;
            }
        }
        let wall = pass_start.elapsed().as_secs_f64();
        if plan.paired && k % 2 == 1 {
            let prev = pass_walls[k - 1];
            let (traced, plain) = if t.enabled() {
                (wall, prev)
            } else {
                (prev, wall)
            };
            overhead_pct.push((traced - plain) / plain * 100.0);
        }
        pass_walls.push(wall);
        if setup_after(k) {
            let t0 = Instant::now();
            let p = prepare(
                &specs,
                tracer,
                base.join(format!("rep{}", setup_secs.len())),
            )?;
            setup_secs.push(t0.elapsed().as_secs_f64());
            p.fleet.stop()?;
            if p.references
                .iter()
                .zip(&references)
                .any(|(a, b)| a.1 != b.1)
            {
                out.errors
                    .push("reference reports differ between set-ups".into());
            }
        }
        if pass_walls.len() >= plan.passes {
            break;
        }
    }
    let (service, worker, wire_bytes) = fleet.stop()?;
    let _ = std::fs::remove_dir_all(&base);
    if !timed_out && service.campaigns_completed != accepted {
        out.errors.push(format!(
            "service completed {} campaigns, it accepted {accepted}",
            service.campaigns_completed
        ));
    }
    Ok(LoopRun {
        setup_secs,
        setup,
        references,
        samples,
        pass_walls,
        overhead_pct,
        service,
        worker,
        wire_bytes,
    })
}

/// A submitted campaign the client is still polling.
struct Pending {
    id: u64,
    spec: usize,
    root: u64,
    t_post: Instant,
    submit_ms: f64,
    first: Option<Duration>,
    polls: u64,
    /// A status poll failed: the campaign counts as failed, not sampled.
    http_error: bool,
}

/// A finished campaign must carry exactly the runs it asked for and a
/// report byte-identical to the in-process reference.
fn check_report(body: &str, id: u64, expected: &str, out: &mut Outcome) {
    let completed = json_u64(body, "completed");
    if completed != Some(FAULTS as u64) || json_u64(body, "faults") != Some(FAULTS as u64) {
        out.errors.push(format!(
            "campaign {id}: asked for {FAULTS} runs, {completed:?} completed"
        ));
    }
    let report = body
        .find("\"report\":")
        .map(|at| &body[at + "\"report\":".len()..body.len() - 1]);
    if report != Some(expected) {
        out.errors.push(format!(
            "campaign {id}: report differs from the in-process reference"
        ));
    }
}

/// The `grid.*` per-layer metrics of a closed-loop run.
fn grid_metrics(run: &LoopRun) -> Vec<Metric> {
    let campaigns = run.samples.len() as f64;
    let runs = campaigns * FAULTS as f64;
    let pick = |f: fn(&Sample) -> f64| run.samples.iter().map(f).collect::<Vec<_>>();
    let exec_ms = |s: &Sample| run.references[s.spec].0.engine_s * 1e3;
    let overhead: Vec<f64> = run
        .samples
        .iter()
        .map(|s| s.latency_ms - exec_ms(s))
        .collect();
    vec![
        metric("grid.submit_ms_p50", median(&pick(|s| s.submit_ms)), "ms"),
        metric(
            "grid.first_result_ms_p50",
            median(&pick(|s| s.first_result_ms)),
            "ms",
        ),
        metric("grid.report_ms_p50", median(&pick(|s| s.report_ms)), "ms"),
        metric(
            "grid.exec_ms_p50",
            median(&run.samples.iter().map(exec_ms).collect::<Vec<_>>()),
            "ms",
        ),
        metric("grid.overhead_ms_p50", median(&overhead), "ms"),
        metric(
            "grid.reconnects_per_campaign",
            run.worker.reconnects as f64 / campaigns,
            "count",
        ),
        metric(
            "grid.leases_per_campaign",
            run.service.leases_granted as f64 / campaigns,
            "count",
        ),
        metric(
            "grid.leases_reassigned",
            run.service.leases_reassigned as f64,
            "count",
        ),
        metric(
            "grid.batches_rejected",
            run.service.batches_rejected as f64,
            "count",
        ),
        metric(
            "grid.protocol_errors",
            run.service.protocol_errors as f64,
            "count",
        ),
        metric("grid.wire_bytes_per_run", run.wire_bytes as f64 / runs, "B"),
        metric(
            "grid.polls_per_campaign",
            pick(|s| s.polls as f64).iter().sum::<f64>() / campaigns,
            "count",
        ),
    ]
}

pub fn closed_loop(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let passes = ((args.seconds.as_secs_f64() / PASS_S).round() as usize).max(MIN_PASSES);
    let plan = Plan {
        setup_reps: SETUP_REPS,
        // Traced runs need whole traced/untraced pairs.
        passes: passes + passes % 2 * usize::from(args.trace),
        paired: args.trace,
    };
    let run = match closed_loop_run(args.seed, &plan, tracer, &mut out) {
        Ok(run) => run,
        Err(e) => {
            out.errors.push(e);
            out.ns_per_step = f64::NAN;
            return out;
        }
    };
    out.ns_per_step = refmodel_ns_per_step(&run.setup.programs, tracer);
    // Every pass is the same work, but the host slows down in phases of tens
    // of seconds, often over part of a run; the timings come from the faster
    // half of the passes, which such a phase leaves out.
    let mut order: Vec<usize> = (0..run.pass_walls.len()).collect();
    order.sort_by(|&a, &b| run.pass_walls[a].total_cmp(&run.pass_walls[b]));
    let fast = &order[..order.len().div_ceil(2)];
    let latencies: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| fast.contains(&s.pass))
        .map(|s| s.latency_ms)
        .collect();
    out.notes.push(format!(
        "passes {} (faster half {}) campaigns {} latency samples {} runs per campaign {FAULTS} pass walls_ms [{}]",
        run.pass_walls.len(),
        fast.len(),
        run.samples.len(),
        latencies.len(),
        run.pass_walls
            .iter()
            .map(|w| format!("{:.1}", w * 1e3))
            .collect::<Vec<_>>()
            .join(",")
    ));
    out.notes.push(format!(
        "setup_s reps [{}]",
        run.setup_secs
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(",")
    ));
    out.notes.push(format!(
        "worker reconnects {} campaigns {}; service leases {} reassigned {}",
        run.worker.reconnects,
        run.worker.campaigns,
        run.service.leases_granted,
        run.service.leases_reassigned
    ));
    if args.trace {
        let refs: Vec<&UnitOutcome> = run.references.iter().map(|(o, _)| o).collect();
        out.metrics = layer_metrics(&LayerFigures {
            golden_ms: mean(&run.setup.golden_ms),
            checkpoint_ms: mean(&run.setup.checkpoint_ms),
            probe: probe_muarch(&run.setup.programs, tracer),
            engine: engine_figures(&refs, 1, 1),
            ns_per_step: out.ns_per_step,
            grid: grid_metrics(&run),
            overhead_pct: run.overhead_pct.clone(),
        });
    } else {
        let wall_s = median(&fast.iter().map(|&k| run.pass_walls[k]).collect::<Vec<_>>());
        let runs = (TENANTS * AVF_PROGRAMS.len() * FAULTS) as f64;
        out.metrics = vec![
            metric("setup_s", median(&run.setup_secs), "s"),
            metric("wall_s", wall_s, "s"),
            metric("runs_per_s", runs / wall_s, "1/s"),
            metric("runs_to_target", runs, "runs"),
            metric("latency_ms_p50", quantile(&latencies, 0.5), "ms"),
            metric("latency_ms_p90", quantile(&latencies, 0.9), "ms"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
    }
    out
}

/// The `grid.*` metrics for a workload that does not use the grid: one
/// traced pass of the closed loop after its own single set-up.
pub fn grid_probe(args: &Args, tracer: &Tracer, out: &mut Outcome) -> Result<Vec<Metric>, String> {
    let plan = Plan {
        setup_reps: 1,
        passes: 1,
        paired: false,
    };
    let run = closed_loop_run(args.seed, &plan, tracer, out)?;
    Ok(grid_metrics(&run))
}
