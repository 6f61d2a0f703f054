//! The edge serving layer: epoll-driven reactors over non-blocking
//! `std::net` sockets.
//!
//! The offline build has no tokio, so the reactor is hand-rolled. Every
//! socket (listener included) is non-blocking; one reactor turn sweeps
//! accept → read → decode/serve → drive the gateway's timers → push
//! updates → flush writes, never blocking on any of them. Between turns
//! the driver blocks in an OS selector ([`crate::poll::Selector`] — epoll
//! on Linux via raw syscalls, a bounded sleep elsewhere) with a timeout
//! derived from the gateway's next due instant and the earliest drain
//! deadline, so an unloaded edge parks in the kernel instead of spinning.
//!
//! The module splits along the reactor's seams:
//!
//! * [`reactor`] — the turn loop itself ([`EdgeServer`]): accept, read,
//!   serve, drive, push, flush, reap;
//! * [`conn`] — per-connection state: decoder, bounded write queue with
//!   vectored flush, recycled frame buffers, the drain lifecycle;
//! * [`registry`] — the pending-pushback map, keyed by **server-minted**
//!   task ids (`conn_id` in the high 32 bits, the client's task id in the
//!   low 32) so identical client ids on different connections never alias;
//! * [`multi`] — the sharded edge ([`EdgeCluster`]): N reactor threads,
//!   each owning its own gateway, with connections pinned by tenant hash.
//!
//! **Sharded serving.** In a cluster, a connection is accepted by reactor
//! 0 and *adopted* by its home reactor — chosen by hashing the tenant of
//! its first submission ([`reactor_for_tenant`]) — through a mutexed
//! mailbox drained once per turn, the cluster's only inter-reactor seam.
//! After adoption every submit, verdict, and pushed update for that
//! connection is served entirely by the home reactor: the hot path takes
//! no cross-thread locks, and a `DecisionUpdate` can never be misdelivered
//! across reactors because the pending entry and the socket live on the
//! same thread by construction.
//!
//! **Connection lifecycle.** Each connection is a small state machine:
//! `Open` (serving) → `Draining` (a fatal protocol error was answered, or
//! the client said `Bye`; queued replies flush, then the socket closes).
//! Reads feed a per-connection `FrameDecoder`; a framing violation
//! (corrupt/oversized frame) or an undecodable message is answered with
//! `ServerMsg::Error` and drains the connection — a byte stream that
//! lost framing cannot be resynchronized.
//!
//! **Backpressure.** Writes go through a bounded per-connection queue.
//! A submit arriving while the client's reply queue is full is answered
//! `Throttled` *without touching the gateway* — overload shedding at the
//! edge, before the admission test spends CPU. A connection that consumes
//! nothing at all — letting the queue reach twice the bound, whether from
//! unread replies or unread pushed updates — is evicted (slow-consumer
//! eviction), so the queue is a hard bound, never a suggestion.
//!
//! **Time.** The gateway lives in simulated seconds; the edge maps wall
//! clock to [`SimTime`] through an [`EdgeClock`] (offset + scale). *Every*
//! edge deadline — including how long a draining connection may dawdle —
//! is kept in sim time, so manual-clock tests exercise the full lifecycle
//! and a paused clock pauses the whole edge, reaping included. The clock's
//! base matters across restarts: a recovered gateway's book is in
//! pre-crash sim time, so the restarted edge resumes the clock at the
//! recovery instant instead of rewinding to zero.
//!
//! **Arrival stamping.** The edge overwrites each submitted task's
//! `arrival` with the server-clock receive instant: in the online model
//! the arrival time *is* when the request reaches the head node, and
//! gateway-side deadlines (`arrival + D`) must be anchored to the serving
//! clock, not whatever the client's generator used. The journal records
//! the stamped request, so replay stays deterministic.

pub(crate) mod conn;
pub mod multi;
pub mod reactor;
pub(crate) mod registry;

pub use multi::{reactor_for_tenant, EdgeCluster};
pub use reactor::EdgeServer;

use std::time::{Duration, Instant};

use rtdls_core::prelude::{Admission, SimTime, SubmitRequest};
use rtdls_journal::prelude::{JournaledGateway, Recoverable};
use rtdls_replica::ShippingGateway;
use rtdls_service::prelude::{DecisionUpdate, ShardedGateway, Verdict};
use rtdls_sim::frontend::Frontend;

use rtdls_telemetry::{MetricsRegistry, Telemetry};

use crate::codec::DEFAULT_MAX_FRAME;

/// The serving surface the edge needs from a gateway: decide submissions,
/// advance the books with the clock, and expose the parked-task update
/// stream. Implemented for the service gateway and for its journaled and
/// shipping wrappers (where every call goes through the write-ahead path).
pub trait EdgeGateway {
    /// Decides one submission at the server clock's `now`.
    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict;

    /// Advances time-driven serving work to `now`: commit due dispatches,
    /// re-test the defer queue, activate due reservations, and retire the
    /// engine-facing resolution channel (the edge consumes the richer
    /// [`DecisionUpdate`] stream instead). For journaled gateways this is
    /// also the group-commit boundary.
    fn drive(&mut self, now: SimTime);

    /// Drains the parked-task updates recorded since the last call.
    fn take_updates(&mut self) -> Vec<DecisionUpdate>;

    /// Turns the update stream on (the edge calls this once at bind).
    fn enable_observation(&mut self);

    /// The earliest instant at which timed work becomes due — the next
    /// planned dispatch, reservation activation, or defer-ticket
    /// expiry deadline; `None` = nothing scheduled. The reactor drives
    /// the gateway only when this is reached or a submission arrived
    /// (the simulator's event-driven sweep semantics), so an idle edge
    /// never busy-sweeps the books — and a journaled one never appends
    /// no-op re-test events.
    fn next_due(&self) -> Option<SimTime>;

    /// Attaches a decision-tracing handle so the gateway's stages record
    /// into the same flight recorder as the edge's. The default ignores
    /// it (telemetry-unaware gateways keep compiling).
    fn attach_telemetry(&mut self, _telemetry: &Telemetry) {}

    /// Attaches a hot-path profiler so the gateway's phases (planning,
    /// journal append/fsync, shipping) land in the same phase tree as the
    /// edge's. The default ignores it.
    fn attach_profiler(&mut self, _profiler: &rtdls_telemetry::Profiler) {}

    /// The gateway's promotion epoch — which generation of the shard
    /// answers (the ops channel's `Stats` surface). The default is 0
    /// (never failed over / not journaled).
    fn epoch(&self) -> u64 {
        0
    }

    /// Frames appended but not yet acked by a replication follower, when
    /// this gateway ships its journal. The default (`None`) means "does
    /// not replicate / nothing known about the other side".
    fn ack_lag(&self) -> Option<u64> {
        None
    }

    /// Folds the gateway's native stats into the unified metrics registry
    /// (the ops channel's `Stats` surface). The default folds nothing.
    fn fold_metrics(&self, _reg: &mut MetricsRegistry) {}

    /// Turns rejection/defer explanation annotation on (the edge calls
    /// this once at bind, alongside [`enable_observation`]). The default
    /// ignores it (explanation-unaware gateways keep compiling).
    ///
    /// [`enable_observation`]: EdgeGateway::enable_observation
    fn enable_explanations(&mut self) {}

    /// The deadline-SLO status table (the ops channel's `Slo` surface).
    /// The default serves an empty table.
    fn slo_rows(&self) -> Vec<rtdls_service::prelude::SloStatusRow> {
        Vec::new()
    }

    /// Explains why `request` would fail admission at `now` without
    /// submitting it (the ops channel's `Explain` surface); `None` =
    /// admissible as-is, or explanations unsupported (the default).
    fn explain(
        &self,
        _request: &SubmitRequest,
        _now: SimTime,
    ) -> Option<rtdls_core::prelude::AdmissionExplanation> {
        None
    }
}

/// The shared [`EdgeGateway::next_due`] body: earliest of the next
/// dispatch, the next reservation wakeup, and the next defer-ticket
/// deadline (expiry must be detected — and its resolution pushed — even
/// when no other event ever arrives).
fn next_due_of<F: Frontend>(
    frontend: &F,
    defer: &rtdls_service::prelude::DeferredQueue,
) -> Option<SimTime> {
    [
        frontend.next_dispatch_due(),
        frontend.next_wakeup(),
        defer.next_deadline(),
    ]
    .into_iter()
    .flatten()
    .min()
}

impl<A: Admission> EdgeGateway for ShardedGateway<A> {
    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        ShardedGateway::submit_request(self, request, now)
    }

    fn drive(&mut self, now: SimTime) {
        let _ = Frontend::take_due(self, now);
        Frontend::on_event(self, now);
        Frontend::activate(self, now);
        let _ = Frontend::drain_resolutions(self);
    }

    fn take_updates(&mut self) -> Vec<DecisionUpdate> {
        ShardedGateway::take_decision_updates(self)
    }

    fn enable_observation(&mut self) {
        ShardedGateway::observe_decisions(self, true);
    }

    fn next_due(&self) -> Option<SimTime> {
        next_due_of(self, self.deferred())
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        ShardedGateway::attach_telemetry(self, telemetry);
    }

    fn attach_profiler(&mut self, profiler: &rtdls_telemetry::Profiler) {
        ShardedGateway::attach_profiler(self, profiler);
    }

    fn fold_metrics(&self, reg: &mut MetricsRegistry) {
        ShardedGateway::fold_metrics(self, reg);
    }

    fn enable_explanations(&mut self) {
        ShardedGateway::enable_explanations(self, true);
    }

    fn slo_rows(&self) -> Vec<rtdls_service::prelude::SloStatusRow> {
        self.slo().rows()
    }

    fn explain(
        &self,
        request: &SubmitRequest,
        now: SimTime,
    ) -> Option<rtdls_core::prelude::AdmissionExplanation> {
        ShardedGateway::explain(self, request, now)
    }
}

impl<G: Recoverable> EdgeGateway for JournaledGateway<G> {
    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        JournaledGateway::submit_request(self, request, now)
    }

    fn drive(&mut self, now: SimTime) {
        // All through the Frontend impl, so every state change is
        // write-ahead journaled (and no-op polls stay out of the log).
        let _ = Frontend::take_due(self, now);
        Frontend::on_event(self, now);
        Frontend::activate(self, now);
        let _ = Frontend::drain_resolutions(self);
        // One reactor turn = one group commit window. In a cluster each
        // reactor owns its own journal file, so the single-writer
        // crash-safety argument is per-reactor and unchanged.
        self.flush_journal();
    }

    fn take_updates(&mut self) -> Vec<DecisionUpdate> {
        JournaledGateway::take_decision_updates(self)
    }

    fn enable_observation(&mut self) {
        JournaledGateway::observe_decisions(self, true);
    }

    fn next_due(&self) -> Option<SimTime> {
        next_due_of(self, self.deferred())
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        JournaledGateway::attach_telemetry(self, telemetry);
    }

    fn attach_profiler(&mut self, profiler: &rtdls_telemetry::Profiler) {
        JournaledGateway::attach_profiler(self, profiler);
    }

    fn epoch(&self) -> u64 {
        self.journal().epoch()
    }

    fn fold_metrics(&self, reg: &mut MetricsRegistry) {
        JournaledGateway::fold_metrics(self, reg);
    }

    fn enable_explanations(&mut self) {
        JournaledGateway::enable_explanations(self, true);
    }

    fn slo_rows(&self) -> Vec<rtdls_service::prelude::SloStatusRow> {
        JournaledGateway::slo_rows(self)
    }

    fn explain(
        &self,
        request: &SubmitRequest,
        now: SimTime,
    ) -> Option<rtdls_core::prelude::AdmissionExplanation> {
        JournaledGateway::explain_request(self, request, now)
    }
}

impl<G: Recoverable> EdgeGateway for ShippingGateway<G> {
    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        let verdict = self.inner_mut().submit_request(request, now);
        // Ship the decision's journal frames in the same turn: replication
        // lag is bounded by the reactor's turn cadence, not a side thread.
        self.pump(now);
        verdict
    }

    fn drive(&mut self, now: SimTime) {
        let inner = self.inner_mut();
        let _ = Frontend::take_due(inner, now);
        Frontend::on_event(inner, now);
        Frontend::activate(inner, now);
        let _ = Frontend::drain_resolutions(inner);
        inner.flush_journal();
        self.pump(now);
    }

    fn take_updates(&mut self) -> Vec<DecisionUpdate> {
        self.inner_mut().take_decision_updates()
    }

    fn enable_observation(&mut self) {
        self.inner_mut().observe_decisions(true);
    }

    fn next_due(&self) -> Option<SimTime> {
        next_due_of(self.inner(), self.inner().deferred())
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        ShippingGateway::attach_telemetry(self, telemetry);
    }

    fn attach_profiler(&mut self, profiler: &rtdls_telemetry::Profiler) {
        ShippingGateway::attach_profiler(self, profiler);
    }

    fn epoch(&self) -> u64 {
        self.inner().journal().epoch()
    }

    fn ack_lag(&self) -> Option<u64> {
        ShippingGateway::ack_lag(self)
    }

    fn fold_metrics(&self, reg: &mut MetricsRegistry) {
        ShippingGateway::fold_metrics(self, reg);
    }

    fn enable_explanations(&mut self) {
        self.inner_mut().enable_explanations(true);
    }

    fn slo_rows(&self) -> Vec<rtdls_service::prelude::SloStatusRow> {
        self.inner().slo_rows()
    }

    fn explain(
        &self,
        request: &SubmitRequest,
        now: SimTime,
    ) -> Option<rtdls_core::prelude::AdmissionExplanation> {
        self.inner().explain_request(request, now)
    }
}

/// Maps wall-clock time to the gateway's [`SimTime`].
#[derive(Clone, Copy, Debug)]
pub struct EdgeClock {
    origin: Instant,
    base: SimTime,
    scale: f64,
}

impl EdgeClock {
    /// A clock reading `base + scale · (wall seconds since now)`. Restarted
    /// edges pass the recovery instant as `base` so serving time never
    /// rewinds below the recovered book's.
    pub fn starting_at(base: SimTime, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        EdgeClock {
            origin: Instant::now(),
            base,
            scale,
        }
    }

    /// Real time: one wall second = one simulated second, from zero.
    pub fn real_time() -> Self {
        Self::starting_at(SimTime::ZERO, 1.0)
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.base + SimTime::new(self.origin.elapsed().as_secs_f64() * self.scale)
    }

    /// Wall-clock time from now until the simulated instant `t` (zero if
    /// `t` has already passed; capped at an hour for far-future values so
    /// the selector timeout arithmetic stays finite). This is how the
    /// reactor converts "next due" into an epoll timeout.
    pub fn wall_until(&self, t: SimTime) -> Duration {
        let sim_dt = (t.as_f64() - self.now().as_f64()).max(0.0);
        Duration::from_secs_f64((sim_dt / self.scale).min(3600.0))
    }
}

/// Edge tunables.
#[derive(Clone, Copy, Debug)]
pub struct EdgeConfig {
    /// Per-frame payload cap handed to each connection's decoder.
    pub max_frame_len: usize,
    /// Reply-queue bound per connection: submits over it are answered
    /// `Throttled` without consulting the gateway, and a connection whose
    /// queue reaches twice this bound (a consumer reading nothing at all,
    /// whether of replies or pushed updates) is evicted — the queue can
    /// never grow past `2 × write_queue_limit + 1` frames.
    pub write_queue_limit: usize,
    /// How long a draining connection (error answered, or client `Bye`)
    /// may take to consume its final frames before being closed anyway —
    /// without this, a peer that stops reading would hold its socket and
    /// queued bytes forever. Interpreted on the edge clock: one second of
    /// timeout is one *simulated* second, so a paused manual clock also
    /// pauses reaping.
    pub drain_timeout: Duration,
    /// First connection id this edge hands out. Connection ids namespace
    /// task ids (they form the high 32 bits of every server-minted id), so
    /// a *restarted* edge recovering a journaled book must start its ids
    /// past the previous generation's — otherwise a fresh connection could
    /// mint an id that collides with a still-parked pre-crash task.
    pub first_conn_id: u64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            max_frame_len: DEFAULT_MAX_FRAME,
            write_queue_limit: 256,
            drain_timeout: Duration::from_secs(2),
            first_conn_id: 0,
        }
    }
}

/// Counters the reactor keeps about itself (the gateway's own book is in
/// `ServiceMetrics`; these cover what happens *before* the gateway). In a
/// cluster each reactor keeps its own — sum them for edge-wide totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Connections closed (any reason).
    pub connections_closed: u64,
    /// Connections adopted from another reactor (cluster mode: the home
    /// reactor's side of a tenant-hash transfer).
    pub conns_adopted: u64,
    /// Complete frames received.
    pub frames_received: u64,
    /// Frames written out (fully).
    pub frames_sent: u64,
    /// Submits offered to the gateway.
    pub submits: u64,
    /// Submits answered `Throttled` by the edge's own backpressure gate
    /// (never reached the gateway).
    pub edge_throttled: u64,
    /// Pushed `Update` messages enqueued.
    pub updates_pushed: u64,
    /// Updates whose submitting connection was already gone.
    pub updates_dropped: u64,
    /// Connections failed for framing/decode violations.
    pub protocol_errors: u64,
    /// Connections evicted for consuming pushes too slowly.
    pub slow_consumer_evictions: u64,
    /// Pending-map entries discarded because their connection closed
    /// before the parked task resolved (the resolution would have been
    /// undeliverable anyway; without this purge the map grows forever
    /// under churning clients with parked work).
    pub pending_evicted: u64,
    /// Reactor turns counted while telemetry was attached (the divisor
    /// for the per-phase nanosecond counters below).
    pub turns: u64,
    /// Cumulative accept+read+decode+serve phase time, in nanoseconds.
    /// Only accumulated while telemetry is attached — the zero-telemetry
    /// hot path takes no clock readings.
    pub read_ns: u64,
    /// Cumulative gateway-drive + update-push phase time, in nanoseconds
    /// (telemetry-on only).
    pub drive_ns: u64,
    /// Cumulative write-flush + reap phase time, in nanoseconds
    /// (telemetry-on only).
    pub flush_ns: u64,
}

impl EdgeStats {
    /// Field-wise sum — cluster-wide totals from per-reactor stats.
    pub fn merged(stats: &[EdgeStats]) -> EdgeStats {
        let mut total = EdgeStats::default();
        for s in stats {
            total.connections_accepted += s.connections_accepted;
            total.connections_closed += s.connections_closed;
            total.conns_adopted += s.conns_adopted;
            total.frames_received += s.frames_received;
            total.frames_sent += s.frames_sent;
            total.submits += s.submits;
            total.edge_throttled += s.edge_throttled;
            total.updates_pushed += s.updates_pushed;
            total.updates_dropped += s.updates_dropped;
            total.protocol_errors += s.protocol_errors;
            total.slow_consumer_evictions += s.slow_consumer_evictions;
            total.pending_evicted += s.pending_evicted;
            total.turns += s.turns;
            total.read_ns += s.read_ns;
            total.drive_ns += s.drive_ns;
            total.flush_ns += s.flush_ns;
        }
        total
    }
}

/// Folds the reactor's self-observation counters (plus the live pending-map
/// and connection levels) into the unified registry under `rtdls_edge_*`.
pub fn fold_edge_stats(
    reg: &mut MetricsRegistry,
    stats: &EdgeStats,
    pending: usize,
    connections: usize,
) {
    reg.counter(
        "rtdls_edge_connections_accepted",
        &[],
        stats.connections_accepted,
    );
    reg.counter(
        "rtdls_edge_connections_closed",
        &[],
        stats.connections_closed,
    );
    reg.counter("rtdls_edge_conns_adopted", &[], stats.conns_adopted);
    reg.counter("rtdls_edge_frames_received", &[], stats.frames_received);
    reg.counter("rtdls_edge_frames_sent", &[], stats.frames_sent);
    reg.counter("rtdls_edge_submits", &[], stats.submits);
    reg.counter("rtdls_edge_throttled", &[], stats.edge_throttled);
    reg.counter("rtdls_edge_updates_pushed", &[], stats.updates_pushed);
    reg.counter("rtdls_edge_updates_dropped", &[], stats.updates_dropped);
    reg.counter("rtdls_edge_protocol_errors", &[], stats.protocol_errors);
    reg.counter(
        "rtdls_edge_slow_consumer_evictions",
        &[],
        stats.slow_consumer_evictions,
    );
    reg.counter("rtdls_edge_pending_evicted", &[], stats.pending_evicted);
    reg.counter("rtdls_edge_turns", &[], stats.turns);
    reg.counter("rtdls_edge_read_ns", &[], stats.read_ns);
    reg.counter("rtdls_edge_drive_ns", &[], stats.drive_ns);
    reg.counter("rtdls_edge_flush_ns", &[], stats.flush_ns);
    reg.gauge("rtdls_edge_pending", &[], pending as f64);
    reg.gauge("rtdls_edge_connections", &[], connections as f64);
}
