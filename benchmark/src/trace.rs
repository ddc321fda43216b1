//! Spans around every call a transaction makes into `Txn` / `ClusterTxn`.
//!
//! The engine is not instrumented: the harness times each public call from
//! outside. All spans of one transaction are children of its `txn` span and
//! have no children of their own, so a call span's self time is its whole
//! duration and the `txn` span's self time is harness overhead. Every span
//! feeds a per-name histogram; full records are kept in memory for a sample
//! of transactions and written out after the run.

use crate::hist::Hist;
use std::io::Write;
use std::time::Instant;

/// The calls a workload makes; the discriminant indexes [`SPAN_NAMES`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Call {
    DbBegin,
    DbRead,
    DbRmw,
    DbRange,
    DbChildBegin,
    DbChildCommit,
    DbChildAbort,
    DbCommit,
    DbAbort,
    ClusterBegin,
    ClusterGet,
    ClusterRmw,
    ClusterCommit,
    ClusterAbort,
}

/// Span name of each [`Call`]: `<crate>.<module>.<call>`.
pub const SPAN_NAMES: [&str; 14] = [
    "core.db.begin",
    "core.db.read",
    "core.db.rmw",
    "core.db.range",
    "core.db.child_begin",
    "core.db.child_commit",
    "core.db.child_abort",
    "core.db.commit",
    "core.db.abort",
    "cluster.cluster.begin",
    "cluster.cluster.get",
    "cluster.cluster.rmw",
    "cluster.cluster.commit",
    "cluster.cluster.abort",
];

/// How a transaction body reports its calls. The untraced implementation
/// compiles to the bare call.
pub trait Tracer {
    /// Run `f`, which is exactly one call of kind `call` into the engine.
    fn span<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R;
    /// Close the current transaction's span (`start..end`, retries included).
    fn end_txn(&mut self, _start: Instant, _end: Instant) {}
    /// Forget everything recorded so far (the end of warm-up).
    fn reset(&mut self) {}
}

/// The untraced run: no clock reads, no records.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn span<R>(&mut self, _call: Call, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span. `call == None` is the transaction's own span, the
/// parent of every call span with the same `txn`.
pub struct Span {
    pub call: Option<Call>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub txn: u64,
}

/// Keep full span records for one transaction in this many …
const SAMPLE_EVERY: u64 = 64;
/// … and for at most this many spans per client.
const MAX_SPANS: usize = 20_000;

/// One client's span recorder.
pub struct SpanLog {
    epoch: Instant,
    timer_ns: u64,
    /// Per-call duration histograms (clock cost subtracted).
    pub by_call: Vec<Hist>,
    /// Sum of call-span durations and of transaction durations, both with
    /// the clock cost subtracted: their ratio is `trace.coverage`.
    pub call_ns: u64,
    pub txn_ns: u64,
    pub calls: u64,
    pub txns: u64,
    /// Sampled full records.
    pub spans: Vec<Span>,
    /// Index of the open transaction, and what it has accumulated so far.
    txn: u64,
    calls_in_txn: u64,
    call_ns_in_txn: u64,
}

impl SpanLog {
    /// A recorder whose timestamps count from `epoch`; `timer_ns` is the
    /// calibrated cost of one clock read.
    pub fn new(epoch: Instant, timer_ns: u64) -> Self {
        SpanLog {
            epoch,
            timer_ns,
            by_call: vec![Hist::default(); SPAN_NAMES.len()],
            call_ns: 0,
            txn_ns: 0,
            calls: 0,
            txns: 0,
            spans: Vec::new(),
            txn: 0,
            calls_in_txn: 0,
            call_ns_in_txn: 0,
        }
    }

    fn sampled(&self) -> bool {
        self.txn.is_multiple_of(SAMPLE_EVERY) && self.spans.len() < MAX_SPANS
    }
}

impl Tracer for SpanLog {
    #[inline]
    fn span<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let nanos = ((end - start).as_nanos() as u64).saturating_sub(self.timer_ns);
        self.by_call[call as usize].record(nanos);
        self.calls_in_txn += 1;
        self.call_ns_in_txn += nanos;
        if self.sampled() {
            self.spans.push(Span {
                call: Some(call),
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                txn: self.txn,
            });
        }
        out
    }

    fn end_txn(&mut self, start: Instant, end: Instant) {
        // The interval holds two clock reads per call span plus its own.
        let clock = (2 * self.calls_in_txn + 1) * self.timer_ns;
        self.txn_ns += ((end - start).as_nanos() as u64).saturating_sub(clock);
        self.call_ns += self.call_ns_in_txn;
        self.calls += self.calls_in_txn;
        self.txns += 1;
        if self.sampled() {
            self.spans.push(Span {
                call: None,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                txn: self.txn,
            });
        }
        self.txn += 1;
        self.calls_in_txn = 0;
        self.call_ns_in_txn = 0;
    }

    fn reset(&mut self) {
        let txn = self.txn;
        *self = SpanLog::new(self.epoch, self.timer_ns);
        self.txn = txn;
    }
}

/// Write the sampled spans of every client as JSON lines.
pub fn write_jsonl(path: &std::path::Path, clients: &[SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, log) in clients.iter().enumerate() {
        for s in &log.spans {
            let (name, parent) = match s.call {
                Some(call) => (SPAN_NAMES[call as usize], "\"txn\""),
                None => ("txn", "null"),
            };
            writeln!(
                out,
                "{{\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"txn\":{},\"client\":{client},\"parent\":{parent}}}",
                s.start_ns, s.end_ns, s.txn
            )?;
        }
    }
    out.flush()
}
