//! In-memory span recording around the calls the benchmark makes into each
//! layer, and the per-run clock attached to traced campaigns.
//!
//! A span has a name, start, end, parent span and campaign id; spans of one
//! campaign share the id. Spans stay in memory and are written out once at
//! exit. With tracing off, [`Tracer::span`] only runs its closure.

use avgi_faultsim::telemetry::{CampaignObserver, MetricsCollector};
use avgi_faultsim::InjectionResult;
use avgi_muarch::Structure;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub campaign: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span; `f` receives the span id to parent children
    /// on (`0` when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        campaign: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(id);
        self.push(id, name, parent, campaign, start, Instant::now());
        r
    }

    /// A fresh span id for [`Tracer::record`] (`0` when tracing is off), so
    /// children can name a parent that is recorded after them.
    pub fn new_id(&self) -> u64 {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span whose interval the caller measured (e.g. an HTTP
    /// exchange whose campaign id is known only from its reply).
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        campaign: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.push(id, name, parent, campaign, start, end);
        }
    }

    fn push(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        campaign: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            campaign,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Per span name: count, total time and self time (total minus the
    /// time covered by direct children), in milliseconds.
    pub fn layer_summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns: std::collections::HashMap<u64, u64> = Default::default();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
            Default::default();
        for s in spans.iter() {
            let d = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t as f64 / 1e6, s as f64 / 1e6))
            .collect()
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"campaign\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.campaign, s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Campaign observer of the traced run: forwards to a [`MetricsCollector`]
/// and keeps every run's exact wall time (the collector's log2 histogram is
/// too coarse for percentiles).
pub struct RunClock {
    pub collector: MetricsCollector,
    walls_ns: Mutex<Vec<u64>>,
}

impl RunClock {
    pub fn new() -> Arc<Self> {
        Arc::new(RunClock {
            collector: MetricsCollector::new(),
            walls_ns: Mutex::new(Vec::new()),
        })
    }

    pub fn walls_ns(&self) -> Vec<u64> {
        self.walls_ns.lock().expect("run clock poisoned").clone()
    }
}

impl CampaignObserver for RunClock {
    fn on_campaign_start(&self, structure: Structure, planned: usize) {
        self.collector.on_campaign_start(structure, planned);
    }
    fn on_run(&self, structure: Structure, result: &InjectionResult, wall: Duration) {
        self.collector.on_run(structure, result, wall);
        self.walls_ns
            .lock()
            .expect("run clock poisoned")
            .push(wall.as_nanos() as u64);
    }
    fn on_resumed(&self, structure: Structure, result: &InjectionResult) {
        self.collector.on_resumed(structure, result);
    }
    fn on_worker_pool(&self, workers: usize) {
        self.collector.on_worker_pool(workers);
    }
    fn on_retry(&self, structure: Structure) {
        self.collector.on_retry(structure);
    }
    fn on_batching_disabled(&self, reason: &str) {
        self.collector.on_batching_disabled(reason);
    }
    fn on_campaign_end(&self, structure: Structure) {
        self.collector.on_campaign_end(structure);
    }
}
