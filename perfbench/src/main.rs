//! The repository benchmark: end-to-end and per-layer costs of AVGI
//! vulnerability assessment, driven from outside through the crates'
//! public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload avf-to-target|service-closed-loop \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! with `--trace 1` the per-layer ones (see `METRICS.md`). Every fault
//! sampling seed derives from `--seed`. Any failed output check makes the
//! command exit non-zero. A record of the run — host, seed, metrics and,
//! when traced, every span — is written to `perfbench/out/`.

mod campaigns;
mod layers;
mod service;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::time::Duration;
use trace::Tracer;

const USAGE: &str = "usage: avgi-perfbench --workload avf-to-target|service-closed-loop \
                     --seed N --seconds S --trace 0|1";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?.max(1)),
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload hands back: the metrics of the requested kind, the
/// operation tally, and every failed output check.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Human-readable detail: sample counts, per-program figures.
    pub notes: Vec<String>,
    /// Reference-tier interpreter speed: host calibration.
    pub ns_per_step: f64,
}

impl Outcome {
    /// The outcome of a workload that stopped at a failed check.
    pub fn failed_with(error: String) -> Outcome {
        Outcome {
            errors: vec![error],
            ns_per_step: f64::NAN,
            ..Outcome::default()
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("avgi-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "avf-to-target" => campaigns::avf_to_target(&args, &tracer),
        "service-closed-loop" => service::closed_loop(&args, &tracer),
        other => {
            eprintln!("avgi-perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.errors
                .push(format!("metric {} is not a finite number", m.name));
        }
    }
    let correct = out.errors.is_empty();

    let host = format!(
        "{{\"nproc\":{},\"engine_threads\":{},\"cpu_model\":\"{}\",\"refmodel_ns_per_step\":{}}}",
        stats::nproc(),
        layers::THREADS,
        stats::cpu_model().replace('"', "'"),
        json_num(out.ns_per_step),
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    println!("host {host}");
    for n in &out.notes {
        println!("  {n}");
    }
    println!(
        "failed_frac {} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for m in &out.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }

    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    write_record(&args, &host, &line, &out, &tracer);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// Writes the run's record (and its spans, when traced) under `out/`.
fn write_record(args: &Args, host: &str, line: &str, out: &Outcome, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let notes = out
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "'")))
        .collect::<Vec<_>>()
        .join(",");
    let mut body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{host},\"result\":{line},\"notes\":[{notes}]",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        args.trace
    );
    if tracer.enabled() {
        let layers = tracer
            .layer_summary()
            .iter()
            .map(|(name, count, total_ms, self_ms)| {
                format!(
                    "{{\"name\":\"{name}\",\"count\":{count},\"total_ms\":{},\"self_ms\":{}}}",
                    json_num(*total_ms),
                    json_num(*self_ms)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(
            body,
            ",\"layers\":[{layers}],\"spans\":{}",
            tracer.spans_json()
        );
    }
    body.push('}');
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("avgi-perfbench: cannot write {}: {e}", path.display());
    }
}
