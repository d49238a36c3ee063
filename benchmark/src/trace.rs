//! Spans of the traced run, recorded by the benchmark's own files around
//! each call into a layer's public function, kept in memory and written
//! to `benchmark/out/trace-<workload>.json` when the run ends. Nothing is
//! recorded inside `crates/`.
//!
//! Two shapes of span exist. In the workloads, each sampled op is a root
//! span with three children — `acquire`, `hold`, `release` — that tile
//! it. In the layer batches, each `*_ns` metric is a root span whose
//! children are its batches; the metric is the median batch.

use oll::workloads::json::parse::Value;

/// The four instants of one sampled workload op, in ns since the process
/// epoch ([`crate::epoch_ns`]).
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    /// The worker's op number: the identifier its spans share.
    pub op: u64,
    pub thread: usize,
    pub write: bool,
    pub start: u64,
    pub acquired: u64,
    pub held: u64,
    pub end: u64,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Shared by the spans of one op (or one metric's batches).
    pub op: u64,
    pub thread: usize,
    /// Lock configuration, or the metric a batch belongs to.
    pub config: String,
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn push(
        &mut self,
        parent: u64,
        op: u64,
        thread: usize,
        config: &str,
        kind: &'static str,
        (start_ns, end_ns): (u64, u64),
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            thread,
            config: config.to_string(),
            kind,
            start_ns,
            end_ns,
        });
        id
    }

    /// Records a sampled op of `config` as a root span and its three
    /// children.
    pub fn op(&mut self, config: &str, s: &OpSpan) {
        let kind = if s.write { "write" } else { "read" };
        let root = self.push(0, s.op, s.thread, config, kind, (s.start, s.end));
        for (kind, times) in [
            ("acquire", (s.start, s.acquired)),
            ("hold", (s.acquired, s.held)),
            ("release", (s.held, s.end)),
        ] {
            self.push(root, s.op, s.thread, config, kind, times);
        }
    }

    /// Records a metric's batches (`(start, end)` in ns since the process
    /// epoch) under one root span.
    pub fn batches(&mut self, metric: &str, batches: &[(u64, u64)]) {
        let (Some(first), Some(last)) = (batches.first(), batches.last()) else {
            return;
        };
        let root = self.push(0, 0, 0, metric, "metric", (first.0, last.1));
        for (i, times) in batches.iter().enumerate() {
            self.push(root, i as u64, 0, metric, "batch", *times);
        }
    }

    /// Median duration of the spans of `kind` under `config`.
    pub fn median_ns(&self, config: &str, kind: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.config == config && s.kind == kind)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        crate::stats::median(&d)
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let num = |n: u64| Value::Num(n as f64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("id".into(), num(s.id)),
                    ("parent".into(), num(s.parent)),
                    ("op".into(), num(s.op)),
                    ("thread".into(), num(s.thread as u64)),
                    ("config".into(), Value::Str(s.config.clone())),
                    ("kind".into(), Value::Str(s.kind.into())),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str("oll.benchmark.trace".into())),
            ("workload".into(), Value::Str(workload.into())),
            ("spans".into(), Value::Arr(spans)),
        ])
    }
}
