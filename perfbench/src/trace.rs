//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate,
//! never inside the library. The name prefix before the first `.` is the
//! layer (`sat.decode` belongs to `sat`). All spans are recorded on the
//! driving thread and nest strictly, so a span's self time is its duration
//! minus the durations of its direct children, and the self times of all
//! spans plus the time no root span covers add up to the wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers a span name may start with, in report order. `bench` is the
/// benchmark's own work inside a traced run: output checks, digests and the
/// driving of replays.
pub const LAYERS: [&str; 13] = [
    "model", "netlist", "faultsim", "atpg", "bist", "sat", "core", "moea", "can", "fleet",
    "gateway", "snapshot", "bench",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    /// Shared by every span of one workload run.
    pub run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: u64) -> Self {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        assert!(
            LAYERS.contains(&name.split('.').next().unwrap_or("")),
            "span {name} names no known layer"
        );
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Seconds since the tracer was created.
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Summed self time per layer, every layer of [`LAYERS`] present.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *by_layer.entry(s.layer()).or_insert(0.0) += own;
        }
        by_layer
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"run_id\": {}, \"spans\": [",
            self.run_id
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run_id\": {}}}",
                s.name, s.start_ns, s.end_ns, self.run_id
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Runs `f` inside a span when a tracer is given: shared set-up code runs
/// traced in traced runs and bare in timed ones.
pub fn step<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_uncovered_time_add_up_to_wall() {
        let mut tr = Tracer::new(7);
        tr.span("core.outer", |tr| {
            tr.span("sat.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        std::thread::sleep(std::time::Duration::from_millis(1));
        tr.span("moea.other", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let wall = tr.elapsed_s();
        let layers = tr.layer_self_times();
        let attributed: f64 = layers.values().sum();
        assert!(layers["sat"] >= 0.003 && layers["core"] >= 0.002);
        assert!(wall >= attributed);
        assert_eq!(tr.durations("sat.inner").len(), 1);
        assert!(tr.to_json("w").contains("\"parent\": 0"));
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn crossing_spans_are_rejected() {
        let mut tr = Tracer::new(1);
        let a = tr.enter("core.a");
        let _b = tr.enter("core.b");
        tr.exit(a);
    }
}
