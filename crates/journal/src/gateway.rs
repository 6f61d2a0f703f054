//! [`JournaledGateway`]: the write-ahead-logging wrapper around a gateway.
//!
//! Implements the same [`Frontend`] trait as the wrapped gateway, so it
//! drops into any `Simulation::with_frontend` run (or a real driver)
//! unchanged. Every state-mutating call is journaled **before** it is
//! applied (write-ahead order): a crash between the journal append and the
//! in-memory mutation replays the command on recovery and lands in the same
//! state. Read-only calls are not journaled.
//!
//! Input events that would be no-ops (an empty defer queue swept, a replan
//! of an empty queue, a dispatch poll with nothing due) are skipped — the
//! engine polls far more often than state changes, and replaying a no-op is
//! itself a no-op, so the log stays proportional to *actual* state changes.

use rtdls_core::prelude::{
    AdmissionFailure, Infeasible, SimTime, SubmitRequest, Task, TaskId, TaskPlan,
};
use rtdls_service::prelude::{DeferredQueue, ServiceMetrics, Verdict};
use rtdls_service::request::GatewayDecision;
use rtdls_sim::frontend::{Frontend, SubmitOutcome};
use rtdls_telemetry::{Stage, Telemetry};

use crate::event::JournalEvent;
use crate::journal::{Journal, JournalConfig, JournalSink};
use crate::snapshot::Recoverable;

/// A gateway whose every decision-relevant input is write-ahead journaled,
/// with periodic compacting snapshots of the full gateway state.
pub struct JournaledGateway<G: Recoverable> {
    inner: G,
    journal: Journal,
    /// Process-local recording handle (never journaled; see
    /// [`Recoverable::attach_telemetry`]). Disabled by default.
    telemetry: Telemetry,
    /// Set when this gateway was rebuilt by [`recover`](crate::recover):
    /// the instant the re-admission pass ran at, stamped onto the
    /// `Recovery` span once telemetry is attached.
    recovered_at: Option<SimTime>,
}

impl<G: Recoverable> JournaledGateway<G> {
    /// Wraps `inner`, writing the genesis snapshot into a fresh in-memory
    /// journal (use [`with_sink`](JournaledGateway::with_sink) for
    /// durability beyond the process).
    pub fn new(inner: G, cfg: JournalConfig) -> Self {
        Self::with_journal(inner, Journal::in_memory(cfg))
    }

    /// Wraps `inner`, mirroring the journal into `sink` (e.g. a
    /// [`FileSink`](crate::journal::FileSink)).
    pub fn with_sink(inner: G, cfg: JournalConfig, sink: Box<dyn JournalSink>) -> Self {
        Self::with_journal(inner, Journal::with_sink(cfg, sink))
    }

    /// Wraps `inner` over an existing (empty) journal, writing the genesis
    /// snapshot (stamped with the journal's epoch). Recovery uses this to
    /// hand back a re-journaled gateway.
    pub(crate) fn with_journal(inner: G, mut journal: Journal) -> Self {
        let mut genesis = inner.capture();
        genesis.epoch = journal.epoch();
        journal.append_snapshot(&genesis);
        JournaledGateway {
            inner,
            journal,
            telemetry: Telemetry::disabled(),
            recovered_at: None,
        }
    }

    /// Marks this gateway as recovery-built (see `recovered_at`).
    pub(crate) fn mark_recovered(&mut self, at: SimTime) {
        self.recovered_at = Some(at);
    }

    /// Attaches a telemetry handle to this wrapper *and* the wrapped
    /// gateway, so journal appends and the service layer's decision stages
    /// record into the same flight recorder. Like decision observation,
    /// telemetry is process-local — a recovered gateway starts disabled
    /// and its owner re-attaches. Attaching to a recovery-built gateway
    /// records a `Recovery` span and dumps the recorder to stderr (the
    /// crash-recovery black-box hook).
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        self.inner.attach_telemetry(telemetry);
        if let Some(at) = self.recovered_at {
            self.telemetry.record(
                self.telemetry.mint(),
                Stage::Recovery,
                None,
                0,
                "recovered",
                at,
                None,
            );
            self.telemetry.dump_to_stderr("crash recovery");
        }
    }

    /// Attaches a hot-path profiler handle to the journal (append/fsync
    /// phases) *and* the wrapped gateway (plan phase). Process-local, like
    /// telemetry.
    pub fn attach_profiler(&mut self, profiler: &rtdls_telemetry::Profiler) {
        self.journal.attach_profiler(profiler);
        self.inner.attach_profiler(profiler);
    }

    /// The wrapped gateway.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// The journal (its [`bytes`](Journal::bytes) are what survives a
    /// crash).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Direct mutable journal access (e.g. to append recovery audit
    /// records).
    pub(crate) fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// Completes any pending group commit in the journal's sink — the
    /// group-commit boundary a driver (e.g. the network edge's reactor)
    /// calls once per serving turn when the sink batches fsyncs
    /// ([`FsyncPolicy::Batch`](crate::journal::FsyncPolicy::Batch)).
    pub fn flush_journal(&mut self) {
        self.journal.flush();
    }

    /// The wrapped gateway's cumulative metrics.
    pub fn metrics(&self) -> &ServiceMetrics {
        self.inner.service_metrics()
    }

    /// The wrapped gateway's defer queue.
    pub fn deferred(&self) -> &DeferredQueue {
        self.inner.defer_queue()
    }

    /// Enables or disables parked-task decision observation on the wrapped
    /// gateway. Observer state is process-local (like the latency
    /// histograms), so toggling it is deliberately *not* journaled: a
    /// recovered gateway starts unobserved and its edge re-enables this.
    pub fn observe_decisions(&mut self, on: bool) {
        self.inner.observe_decisions(on);
    }

    /// Drains the wrapped gateway's parked-task decision updates (empty
    /// unless observation is enabled). Not journaled: the durable record
    /// of the same facts is the audit stream (`ReservationActivated`,
    /// `Rescued`, `Rejected`), which replay regenerates.
    pub fn take_decision_updates(&mut self) -> Vec<rtdls_service::prelude::DecisionUpdate> {
        self.inner.take_decision_updates()
    }

    /// Decides one streaming submission at time `now`, journaling the
    /// command first and the decision (with the installed plan, for
    /// accepted tasks) after.
    pub fn submit(&mut self, task: Task, now: SimTime) -> GatewayDecision {
        self.journal
            .append_event(&JournalEvent::Submitted { task, at: now });
        let decision = self.inner.decide(task, now);
        self.audit_decision(task.id, &decision);
        self.audit_breaches();
        self.maybe_snapshot();
        decision
    }

    /// Decides one v2 submission envelope at time `now`, journaling the
    /// full request first (write-ahead: tenant, QoS, and tolerance all
    /// shape the verdict, so replay needs all of them) and the verdict
    /// after.
    pub fn submit_request(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        // Mint the trace *before* the write-ahead append so the WAL carries
        // it: a replay then reproduces the same request the live run
        // decided (the wrapped gateway sees a nonzero trace and won't
        // re-mint).
        let mut request = *request;
        if request.trace == 0 {
            request.trace = self.telemetry.mint();
        }
        let ahead = self.telemetry.timer();
        self.journal
            .append_event(&JournalEvent::RequestSubmitted { request, at: now });
        let ahead_ns = Telemetry::elapsed_ns(ahead);
        let verdict = self.inner.decide_request(&request, now);
        let audit = self.telemetry.timer();
        self.audit_verdict(&request, &verdict);
        self.audit_breaches();
        self.maybe_snapshot();
        if self.telemetry.is_enabled() {
            // One logical append stage: the write-ahead command plus the
            // audit record, with the decision itself excluded from the
            // duration. Recorded after the decision so the span sequence
            // reads route → plan → journal append.
            self.telemetry.record_ns(
                request.trace,
                Stage::JournalAppend,
                None,
                request.task.id.0,
                "appended",
                now,
                ahead_ns + Telemetry::elapsed_ns(audit),
            );
        }
        verdict
    }

    /// Folds the wrapped gateway's native stats (service counters, engine
    /// profiles, queue depths) plus this journal's durability counters into
    /// `reg` — the ops-poll entry point for a journaled deployment.
    pub fn fold_metrics(&self, reg: &mut rtdls_telemetry::MetricsRegistry) {
        self.inner.fold_metrics(reg);
        crate::telemetry::fold_journal_metrics(reg, &self.journal);
    }

    /// Decides a whole burst at once (see `submit_batch` on the wrapped
    /// gateway), journaling the burst as one command.
    pub fn submit_batch(&mut self, batch: &[Task], now: SimTime) -> Vec<GatewayDecision> {
        self.journal.append_event(&JournalEvent::BatchSubmitted {
            tasks: batch.to_vec(),
            at: now,
        });
        let decisions = self.inner.decide_batch(batch, now);
        for (task, decision) in batch.iter().zip(&decisions) {
            self.audit_decision(task.id, decision);
        }
        self.audit_breaches();
        self.maybe_snapshot();
        decisions
    }

    fn audit_decision(&mut self, task: TaskId, decision: &GatewayDecision) {
        let ev = match decision {
            GatewayDecision::Accepted => JournalEvent::Accepted {
                task: task.0,
                plan: match Frontend::find_plan(&self.inner, task) {
                    Some(plan) => plan.clone(),
                    None => return, // defensively skip a plan-less accept
                },
            },
            GatewayDecision::Deferred(ticket) => JournalEvent::Deferred {
                task: task.0,
                ticket: *ticket,
            },
            GatewayDecision::Rejected(cause) => JournalEvent::Rejected {
                task: task.0,
                cause: *cause,
            },
        };
        self.journal.append_event(&ev);
    }

    fn audit_verdict(&mut self, request: &SubmitRequest, verdict: &Verdict) {
        let task = request.task.id;
        let ev = match verdict {
            Verdict::Accepted => JournalEvent::Accepted {
                task: task.0,
                plan: match Frontend::find_plan(&self.inner, task) {
                    Some(plan) => plan.clone(),
                    None => return, // defensively skip a plan-less accept
                },
            },
            Verdict::Reserved { start_at, ticket } => JournalEvent::Reserved {
                task: task.0,
                ticket: *ticket,
                start_at: *start_at,
            },
            Verdict::Deferred { ticket, .. } => JournalEvent::Deferred {
                task: task.0,
                ticket: *ticket,
            },
            Verdict::Rejected { cause, .. } => JournalEvent::Rejected {
                task: task.0,
                cause: *cause,
            },
            Verdict::Throttled => JournalEvent::Throttled {
                task: task.0,
                tenant: request.tenant.0,
            },
        };
        self.journal.append_event(&ev);
    }

    /// Appends the activation audit records the last activation sweep
    /// produced (a miss's defer-or-reject fallback is audited by the
    /// resolution drain like any other ticket outcome).
    fn audit_activations(&mut self) {
        for rec in self.inner.take_activation_log() {
            self.journal
                .append_event(&JournalEvent::ReservationActivated {
                    task: rec.task,
                    ticket: rec.ticket,
                    at: rec.at,
                    admitted: rec.admitted,
                });
        }
    }

    /// Appends any SLO-breach records the last decision or sweep cut —
    /// the durable half of breach-triggered forensics (the in-memory half
    /// is the flight-recorder dump the service layer fires).
    pub(crate) fn audit_breaches(&mut self) {
        for breach in self.inner.take_breach_log() {
            self.journal
                .append_event(&JournalEvent::SloBreach { breach });
        }
    }

    /// The wrapped gateway's deadline-SLO status table (the `Ops::Slo`
    /// surface).
    pub fn slo_rows(&self) -> Vec<rtdls_service::prelude::SloStatusRow> {
        self.inner.slo_rows()
    }

    /// Enables or disables admission explanations on the wrapped gateway.
    /// Process-local like decision observation — deliberately not
    /// journaled, so a replayed WAL decides identically whether or not the
    /// live run explained its refusals.
    pub fn enable_explanations(&mut self, on: bool) {
        self.inner.enable_explanations(on);
    }

    /// The wrapped gateway's non-mutating refusal explanation for
    /// `request` at `now` (the `Ops::Explain` surface). A pure query:
    /// nothing is journaled.
    pub fn explain_request(
        &self,
        request: &SubmitRequest,
        now: SimTime,
    ) -> Option<rtdls_core::prelude::AdmissionExplanation> {
        self.inner.explain_request(request, now)
    }

    fn maybe_snapshot(&mut self) {
        if self.journal.wants_snapshot() {
            let mut snap = self.inner.capture();
            snap.epoch = self.journal.epoch();
            self.journal.append_snapshot(&snap);
        }
    }

    /// The promotion epoch this gateway journals under (0 for a gateway
    /// that never failed over).
    pub fn epoch(&self) -> u64 {
        self.journal.epoch()
    }
}

impl<G: Recoverable> core::fmt::Debug for JournaledGateway<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("JournaledGateway")
            .field("journal", &self.journal)
            .finish_non_exhaustive()
    }
}

impl<G: Recoverable> Frontend for JournaledGateway<G> {
    fn submit(&mut self, task: Task, now: SimTime) -> SubmitOutcome {
        match JournaledGateway::submit(self, task, now) {
            GatewayDecision::Accepted => SubmitOutcome::Accepted,
            GatewayDecision::Deferred(_) => SubmitOutcome::Pending,
            GatewayDecision::Rejected(cause) => SubmitOutcome::Rejected(cause),
        }
    }

    fn submit_request(&mut self, request: &SubmitRequest, now: SimTime) -> SubmitOutcome {
        match JournaledGateway::submit_request(self, request, now) {
            Verdict::Accepted => SubmitOutcome::Accepted,
            Verdict::Reserved { .. } | Verdict::Deferred { .. } => SubmitOutcome::Pending,
            Verdict::Rejected { cause, .. } => SubmitOutcome::Rejected(cause),
            Verdict::Throttled => SubmitOutcome::Rejected(Infeasible::NotEnoughNodes),
        }
    }

    fn replan(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        if self.inner.waiting_len() > 0 {
            self.journal
                .append_event(&JournalEvent::Replanned { at: now });
        }
        self.inner.replan(now)
    }

    fn take_due(&mut self, now: SimTime) -> Vec<(Task, TaskPlan)> {
        // Journal *before* taking (write-ahead), but only when something is
        // actually due — the poll condition mirrors the gateway's own.
        let due_now = self
            .inner
            .next_dispatch_due()
            .is_some_and(|t| t.at_or_before_eps(now));
        if due_now {
            self.journal
                .append_event(&JournalEvent::DispatchDue { at: now });
        }
        let due = self.inner.take_due(now);
        debug_assert_eq!(due_now, !due.is_empty(), "poll condition mirrors take_due");
        if due_now {
            self.maybe_snapshot();
        }
        due
    }

    fn next_dispatch_due(&self) -> Option<SimTime> {
        self.inner.next_dispatch_due()
    }

    fn committed_release(&self, node: usize) -> SimTime {
        self.inner.committed_release(node)
    }

    fn set_node_release(&mut self, node: usize, time: SimTime) {
        self.journal
            .append_event(&JournalEvent::Completed { node, at: time });
        self.inner.set_node_release(node, time);
        self.maybe_snapshot();
    }

    fn waiting_len(&self) -> usize {
        self.inner.waiting_len()
    }

    fn find_plan(&self, task: TaskId) -> Option<&TaskPlan> {
        self.inner.find_plan(task)
    }

    fn on_event(&mut self, now: SimTime) {
        if !self.inner.defer_queue().is_empty() {
            self.journal
                .append_event(&JournalEvent::Retested { at: now });
            self.inner.on_event(now);
            self.audit_breaches();
            self.maybe_snapshot();
        }
    }

    fn activate(&mut self, now: SimTime) {
        // Activation mutates state only when a reservation is actually due
        // — mirror the gateway's own condition so the log stays
        // proportional to real state changes.
        let due = self
            .inner
            .reservation_book()
            .next_activation()
            .is_some_and(|t| t.at_or_before_eps(now));
        if due {
            self.journal
                .append_event(&JournalEvent::ActivationDue { at: now });
            self.inner.activate_reservations(now);
            self.audit_activations();
            self.audit_breaches();
            self.maybe_snapshot();
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.inner.reservation_book().next_activation()
    }

    fn drain_resolutions(&mut self) -> Vec<(Task, Option<Infeasible>)> {
        if self.inner.pending_resolutions().is_empty() {
            return Vec::new();
        }
        // Clearing the pending list is a state change: journal it as an
        // input (write-ahead), then the per-task verdicts as audit records.
        self.journal.append_event(&JournalEvent::Drained);
        let resolutions = self.inner.drain_resolutions();
        for (task, cause) in &resolutions {
            let ev = match cause {
                None => JournalEvent::Rescued { task: task.id.0 },
                Some(cause) => JournalEvent::Rejected {
                    task: task.id.0,
                    cause: *cause,
                },
            };
            self.journal.append_event(&ev);
        }
        resolutions
    }

    fn finalize(&mut self, now: SimTime) {
        self.journal
            .append_event(&JournalEvent::Finalized { at: now });
        self.inner.finalize(now);
        // End of stream closes the group-commit window: everything the
        // journal acknowledged is durable from here on.
        self.journal.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::*;
    use rtdls_service::prelude::{DeferPolicy, Routing, ShardedGateway};

    fn gateway() -> ShardedGateway {
        ShardedGateway::new(
            ClusterParams::paper_baseline(),
            1,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::RoundRobin,
            DeferPolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn submit_request_mints_into_the_wal_and_records_the_append_span() {
        let mut j = JournaledGateway::new(gateway(), JournalConfig::default());
        let telemetry = Telemetry::with_defaults();
        j.attach_telemetry(&telemetry);
        let req = SubmitRequest::new(Task::new(1, 0.0, 200.0, 30_000.0));
        assert_eq!(req.trace, 0, "caller left the request untraced");
        let verdict = j.submit_request(&req, SimTime::ZERO);
        assert!(verdict.is_accepted());

        // The WAL's RequestSubmitted carries the minted (nonzero) trace.
        let wal = String::from_utf8_lossy(j.journal().bytes()).into_owned();
        assert!(wal.contains("\"trace\""), "trace persisted in the WAL");
        // The append span closes the trace's decision timeline so far:
        // route/plan first (recorded by the wrapped gateway), then append.
        let spans = telemetry.recent_spans(16);
        let append = spans
            .iter()
            .find(|s| s.stage == Stage::JournalAppend)
            .expect("append span recorded");
        assert!(append.trace != 0);
        assert_eq!(append.task, 1);
        let timeline = telemetry.trace_spans(append.trace);
        assert_eq!(
            timeline.last().map(|s| s.stage),
            Some(Stage::JournalAppend),
            "append is the last stage recorded for the submission"
        );
    }

    #[test]
    fn telemetry_off_leaves_the_wal_byte_identical() {
        let run = |telemetry: Option<Telemetry>| {
            let mut j = JournaledGateway::new(gateway(), JournalConfig::default());
            if let Some(t) = &telemetry {
                j.attach_telemetry(t);
            }
            let req = SubmitRequest::new(Task::new(1, 0.0, 200.0, 30_000.0));
            let _ = j.submit_request(&req, SimTime::ZERO);
            j.journal().bytes().to_vec()
        };
        let disabled = run(None);
        let enabled = run(Some(Telemetry::with_defaults()));
        assert_ne!(disabled, enabled, "enabled run persists trace ids");
        // A disabled handle mints the untraced sentinel, so its WAL matches
        // the never-attached one byte for byte (legacy encoding preserved).
        let sentinel = run(Some(Telemetry::disabled()));
        assert_eq!(disabled, sentinel);
    }

    #[test]
    fn recovery_records_a_recovery_span_on_attach() {
        let mut j = JournaledGateway::new(gateway(), JournalConfig::default());
        let _ = j.submit_request(
            &SubmitRequest::new(Task::new(1, 0.0, 200.0, 30_000.0)),
            SimTime::ZERO,
        );
        let wal = j.journal().bytes().to_vec();
        drop(j);

        let (mut recovered, _report) = crate::recover::<ShardedGateway>(
            &wal,
            SimTime::new(5.0),
            JournalConfig::default(),
            None,
        )
        .unwrap();
        let telemetry = Telemetry::with_defaults();
        recovered.attach_telemetry(&telemetry);
        let spans = telemetry.recent_spans(4);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, Stage::Recovery);
        assert_eq!(spans[0].at, SimTime::new(5.0));
        // A fresh (non-recovered) gateway attaches silently.
        let mut fresh = JournaledGateway::new(gateway(), JournalConfig::default());
        let t2 = Telemetry::with_defaults();
        fresh.attach_telemetry(&t2);
        assert_eq!(t2.spans_recorded(), 0);
    }
}
