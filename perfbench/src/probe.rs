//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into the program's public surface, and the self-time ledger built from
//! them.
//!
//! Nothing here reaches inside the program. The gateway is observed
//! through [`Probed`], an [`EdgeGateway`] wrapper the edge serves as if it
//! were the gateway itself; the write-ahead log through [`ProbedSink`], a
//! [`JournalSink`] wrapper handed to the journal in place of the real
//! sink. The client side (codec, socket) is timed where the benchmark
//! calls it.
//!
//! With the tracer off every probe is one branch on an empty `Option`, so
//! the untraced runs that give the end-to-end numbers pay nothing else.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rtdls_core::prelude::{AdmissionExplanation, SimTime, SubmitRequest};
use rtdls_edge::EdgeGateway;
use rtdls_journal::{JournalSink, SegmentStats, SinkStats};
use rtdls_service::prelude::{DecisionUpdate, SloStatusRow, Verdict};
use rtdls_telemetry::{MetricsRegistry, Profiler, Telemetry};

/// One recorded interval at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The boundary, e.g. `edge.poll` or `service.decide.accepted`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, when there is one.
    pub parent: Option<u32>,
    /// The turn number (socket, poll and drive spans) or the client task
    /// id (codec and decide spans) the span belongs to.
    pub id: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store. Spans nest strictly (one thread drives both
/// sides), so the open spans form a stack and a new span's parent is the
/// innermost open one.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A cheap, cloneable handle to a shared [`Recorder`], or nothing.
#[derive(Clone, Debug, Default)]
pub struct Tracer(Option<Arc<Mutex<Recorder>>>);

/// An open span; close it with [`Tracer::end`] or [`Tracer::end_as`].
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A tracer recording into a fresh in-memory recorder.
    pub fn on() -> Self {
        Tracer(Some(Arc::new(Mutex::new(Recorder::new()))))
    }

    /// `true` when spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        self.0
            .as_ref()
            .map(|rec| f(&mut rec.lock().expect("the recorder is never poisoned")))
    }

    /// Nanoseconds on the recorder's clock (0 when off).
    #[cfg(test)]
    pub fn now_ns(&self) -> u64 {
        self.with(|rec| rec.now_ns()).unwrap_or(0)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&self, name: &'static str, id: u64) -> Open {
        Open(self.with(|rec| {
            let index = rec.spans.len() as u32;
            let start_ns = rec.now_ns();
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: rec.open.last().copied(),
                id,
            });
            rec.open.push(index);
            index
        }))
    }

    /// Closes `open`.
    pub fn end(&self, open: Open) {
        self.close(open, None);
    }

    /// Closes `open`, renaming it (the decide span is named after the
    /// verdict it produced, which is only known at its end).
    pub fn end_as(&self, open: Open, name: &'static str) {
        self.close(open, Some(name));
    }

    fn close(&self, open: Open, name: Option<&'static str>) {
        let Some(index) = open.0 else {
            return;
        };
        self.with(|rec| {
            let end_ns = rec.now_ns();
            let popped = rec.open.pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
            let span = &mut rec.spans[index as usize];
            span.end_ns = end_ns;
            if let Some(name) = name {
                span.name = name;
            }
        });
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        self.with(|rec| *rec.counts.entry(name).or_insert(0) += n);
    }

    /// Takes every span and counter recorded so far, leaving the recorder
    /// empty (its clock keeps running).
    pub fn take(&self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        self.with(|rec| {
            debug_assert!(rec.open.is_empty(), "no span may stay open");
            (
                std::mem::take(&mut rec.spans),
                std::mem::take(&mut rec.counts),
            )
        })
        .unwrap_or_default()
    }
}

/// Per-name totals over a span set: how many, their summed duration, and
/// their summed self time (duration minus what direct children cover).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Folds spans into per-name totals.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent as usize] += span.duration();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(children_ns) {
        let totals = out.entry(span.name).or_default();
        totals.count += 1;
        totals.total_ns += span.duration();
        totals.self_ns += span.duration().saturating_sub(covered);
    }
    out
}

/// Self time per layer over a serve phase, plus what no span covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ledger {
    /// `(layer, self nanoseconds)`, largest first.
    pub lines: Vec<(&'static str, u64)>,
    /// Serve wall time that no recorded span covers: the benchmark's own
    /// bookkeeping between calls.
    pub unattributed_ns: u64,
    /// The serve phase's wall time.
    pub serve_ns: u64,
}

impl Ledger {
    /// Builds the ledger of a serve phase that took `serve_ns` and whose
    /// spans are `totals`. Self times partition the time the top-level
    /// spans cover, so `unattributed = serve − Σ self`.
    pub fn new(totals: &BTreeMap<&'static str, LayerTotals>, serve_ns: u64) -> Self {
        let mut lines: Vec<(&'static str, u64)> =
            totals.iter().map(|(name, t)| (*name, t.self_ns)).collect();
        lines.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let attributed: u64 = lines.iter().map(|(_, ns)| ns).sum();
        Ledger {
            lines,
            unattributed_ns: serve_ns.saturating_sub(attributed),
            serve_ns,
        }
    }

    /// Self time of every line whose layer starts with one of `prefixes`.
    pub fn share_of(&self, prefixes: &[&str]) -> f64 {
        let ns: u64 = self
            .lines
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / self.serve_ns.max(1) as f64
    }

    /// `unattributed` over serve wall time.
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns as f64 / self.serve_ns.max(1) as f64
    }
}

/// The span name a decide call is filed under, by the verdict it produced.
pub fn decide_span(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Accepted => "service.decide.accepted",
        Verdict::Deferred { .. } => "service.decide.deferred",
        Verdict::Rejected { .. } => "service.decide.rejected",
        Verdict::Reserved { .. } => "service.decide.reserved",
        Verdict::Throttled => "service.decide.throttled",
    }
}

/// The gateway as the edge sees it, with every decide and drive timed.
#[derive(Debug)]
pub struct Probed<G> {
    inner: G,
    tracer: Tracer,
    drives: u64,
}

impl<G> Probed<G> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: G, tracer: Tracer) -> Self {
        Probed {
            inner,
            tracer,
            drives: 0,
        }
    }

    /// The wrapped gateway.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Unwraps the gateway.
    pub fn into_inner(self) -> G {
        self.inner
    }

    /// Drive calls made so far (counted with the tracer on or off).
    pub fn drives(&self) -> u64 {
        self.drives
    }
}

impl<G: EdgeGateway> EdgeGateway for Probed<G> {
    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        let open = self.tracer.begin("service.decide", request.task.id.0);
        let verdict = self.inner.decide(request, now);
        self.tracer.end_as(open, decide_span(&verdict));
        verdict
    }

    fn drive(&mut self, now: SimTime) {
        let open = self.tracer.begin("service.drive", 0);
        self.inner.drive(now);
        self.tracer.end(open);
        self.drives += 1;
    }

    fn take_updates(&mut self) -> Vec<DecisionUpdate> {
        self.inner.take_updates()
    }

    fn enable_observation(&mut self) {
        self.inner.enable_observation();
    }

    fn next_due(&self) -> Option<SimTime> {
        self.inner.next_due()
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }

    fn attach_profiler(&mut self, profiler: &Profiler) {
        self.inner.attach_profiler(profiler);
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn ack_lag(&self) -> Option<u64> {
        self.inner.ack_lag()
    }

    fn fold_metrics(&self, reg: &mut MetricsRegistry) {
        self.inner.fold_metrics(reg);
    }

    fn enable_explanations(&mut self) {
        self.inner.enable_explanations();
    }

    fn slo_rows(&self) -> Vec<SloStatusRow> {
        self.inner.slo_rows()
    }

    fn explain(&self, request: &SubmitRequest, now: SimTime) -> Option<AdmissionExplanation> {
        self.inner.explain(request, now)
    }
}

/// A journal sink with every append, flush and rotation timed.
#[derive(Debug)]
pub struct ProbedSink<S> {
    inner: S,
    tracer: Tracer,
}

impl<S> ProbedSink<S> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: Tracer) -> Self {
        ProbedSink { inner, tracer }
    }
}

impl<S: JournalSink> JournalSink for ProbedSink<S> {
    fn append(&mut self, frame: &[u8]) {
        let open = self.tracer.begin("journal.append", 0);
        self.inner.append(frame);
        self.tracer.end(open);
    }

    fn reset(&mut self, bytes: &[u8]) {
        let open = self.tracer.begin("journal.reset", 0);
        self.inner.reset(bytes);
        self.tracer.end(open);
    }

    fn flush(&mut self) {
        let open = self.tracer.begin("journal.flush", 0);
        self.inner.flush();
        self.tracer.end(open);
    }

    fn stats(&self) -> SinkStats {
        self.inner.stats()
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.inner.set_epoch(epoch);
    }

    fn segments(&self) -> Vec<SegmentStats> {
        self.inner.segments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn ledger_lines_plus_unattributed_sum_to_serve_time() {
        // serve = 1000 ns: a poll [100, 600) holding a decide [150, 450)
        // holding an append [200, 260); a write [650, 700); a read
        // [720, 900). Gaps between them are the benchmark's own time.
        let spans = vec![
            span("edge.poll", 100, 600, None),
            span("service.decide.accepted", 150, 450, Some(0)),
            span("journal.append", 200, 260, Some(1)),
            span("client.write", 650, 700, None),
            span("client.read", 720, 900, None),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals["edge.poll"].total_ns, 500);
        assert_eq!(totals["edge.poll"].self_ns, 200);
        assert_eq!(totals["service.decide.accepted"].self_ns, 240);
        assert_eq!(totals["journal.append"].self_ns, 60);
        let ledger = Ledger::new(&totals, 1000);
        let attributed: u64 = ledger.lines.iter().map(|(_, ns)| ns).sum();
        assert_eq!(attributed, 500 + 50 + 180);
        assert_eq!(attributed + ledger.unattributed_ns, ledger.serve_ns);
        assert_eq!(ledger.unattributed_ns, 270);
        assert_eq!(ledger.lines[0], ("service.decide.accepted", 240));
    }

    #[test]
    fn recorded_spans_nest_and_sum_to_the_measured_interval() {
        let tracer = Tracer::on();
        let t0 = tracer.now_ns();
        let outer = tracer.begin("edge.poll", 1);
        let inner = tracer.begin("service.decide", 7);
        std::hint::black_box((0..1000).sum::<u64>());
        tracer.end_as(inner, "service.decide.deferred");
        tracer.end(outer);
        let write = tracer.begin("client.write", 1);
        tracer.end(write);
        let t1 = tracer.now_ns();
        tracer.count("frames", 3);
        let (spans, counts) = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].name, "service.decide.deferred");
        assert_eq!(spans[2].parent, None);
        assert_eq!(counts["frames"], 3);
        let ledger = Ledger::new(&layer_totals(&spans), t1 - t0);
        let attributed: u64 = ledger.lines.iter().map(|(_, ns)| ns).sum();
        assert_eq!(attributed + ledger.unattributed_ns, t1 - t0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let tracer = Tracer::off();
        let open = tracer.begin("edge.poll", 0);
        tracer.end(open);
        tracer.count("frames", 1);
        let (spans, counts) = tracer.take();
        assert!(spans.is_empty() && counts.is_empty());
    }
}
