//! Differential test of the cached-prefix explanation search.
//!
//! `Admission::explain` probes through one policy-order prefix of the book
//! (the waiting queue sorted once, plus the release vector before each
//! position) and plans only the candidate and the tasks after its slot.
//! The oracle below is the search as it stood before that change, copied
//! verbatim: every probe is a from-scratch [`schedulability_test`] that
//! copies, sorts and replans the whole waiting queue. The two must agree on
//! every field of every explanation, bit for bit.
//!
//! `proptest_explain.rs` checks honesty over empty waiting queues only, so
//! it never exercises the prefix. Here the books carry waiting queues of
//! depth 0–40, built by submitting through both engines, and the
//! explanation instant may lie after the queue's last replan — so some
//! waiting tasks fail on their own, and candidates land before, inside and
//! after the failing prefix. Some candidates copy a waiting task's policy
//! key exactly, to pin the stable-sort tie (the candidate goes after equal
//! keys).

use proptest::prelude::*;
use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::*;

const NODES: usize = 16;

const ALGORITHMS: [AlgorithmKind; 4] = [
    AlgorithmKind::EDF_DLT,
    AlgorithmKind::EDF_OPR_MN,
    AlgorithmKind::FIFO_DLT,
    AlgorithmKind::FIFO_OPR_MN,
];

// ---------------------------------------------------------------------
// The oracle: the full-replan search, unchanged.
// ---------------------------------------------------------------------

const EXPLAIN_TOL: f64 = 1e-9;

fn oracle_earliest_feasible_start(
    params: &ClusterParams,
    algorithm: AlgorithmKind,
    cfg: &PlanConfig,
    now: SimTime,
    committed_releases: &[SimTime],
    queue: &[(Task, TaskPlan)],
    task: &Task,
) -> Option<SimTime> {
    let waiting_now: Vec<Task> = queue.iter().map(|(t, _)| *t).collect();
    if schedulability_test(
        params,
        algorithm,
        cfg,
        now,
        committed_releases,
        &waiting_now,
        Some(task),
    )
    .is_ok()
    {
        return Some(now);
    }
    let mut instants: Vec<SimTime> = queue
        .iter()
        .map(|(_, plan)| plan.first_start())
        .filter(|start| start.definitely_after(now))
        .collect();
    instants.sort_unstable();
    instants.dedup();
    for t in instants {
        let mut releases = committed_releases.to_vec();
        let mut waiting: Vec<Task> = Vec::with_capacity(queue.len());
        for (w, plan) in queue {
            if plan.first_start().at_or_before_eps(t) {
                for (node, &rel) in plan.nodes.iter().zip(&plan.node_release_estimates) {
                    releases[node.index()] = rel;
                }
            } else {
                waiting.push(*w);
            }
        }
        if schedulability_test(params, algorithm, cfg, t, &releases, &waiting, Some(task)).is_ok() {
            return Some(t);
        }
    }
    None
}

fn oracle_explain(
    params: &ClusterParams,
    algorithm: AlgorithmKind,
    cfg: &PlanConfig,
    now: SimTime,
    committed_releases: &[SimTime],
    queue: &[(Task, TaskPlan)],
    task: &Task,
) -> Option<AdmissionExplanation> {
    let waiting: Vec<Task> = queue.iter().map(|(t, _)| *t).collect();
    let feasible = |t: &Task| {
        schedulability_test(
            params,
            algorithm,
            cfg,
            now,
            committed_releases,
            &waiting,
            Some(t),
        )
        .is_ok()
    };
    let cause = match schedulability_test(
        params,
        algorithm,
        cfg,
        now,
        committed_releases,
        &waiting,
        Some(task),
    ) {
        Ok(_) => return None,
        Err(f) => f.reason,
    };

    let with_deadline = |d: f64| Task {
        rel_deadline: d,
        ..*task
    };
    let horizon = {
        let last_release = committed_releases.iter().copied().fold(now, SimTime::max);
        let floor = min_feasible_slack(params, task.data_size);
        (last_release.as_f64() - task.arrival.as_f64()).max(0.0) + floor
    };
    let mut hi = task.rel_deadline.max(horizon);
    let mut found = feasible(&with_deadline(hi));
    for _ in 0..64 {
        if found || !hi.is_finite() {
            break;
        }
        hi *= 2.0;
        found = hi.is_finite() && feasible(&with_deadline(hi));
    }
    let min_feasible_deadline = if found {
        let mut lo = task.rel_deadline;
        for _ in 0..64 {
            if hi - lo <= EXPLAIN_TOL * hi.max(1.0) {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if feasible(&with_deadline(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    } else {
        0.0
    };

    let with_sigma = |s: f64| Task {
        data_size: s,
        ..*task
    };
    let tiny = task.data_size * 1e-9;
    let max_feasible_sigma = if tiny > 0.0 && feasible(&with_sigma(tiny)) {
        let mut lo = tiny;
        let mut hi_s = task.data_size;
        for _ in 0..64 {
            if hi_s - lo <= EXPLAIN_TOL * hi_s.max(1.0) {
                break;
            }
            let mid = 0.5 * (lo + hi_s);
            if feasible(&with_sigma(mid)) {
                lo = mid;
            } else {
                hi_s = mid;
            }
        }
        lo
    } else {
        0.0
    };

    let earliest = oracle_earliest_feasible_start(
        params,
        algorithm,
        cfg,
        now,
        committed_releases,
        queue,
        task,
    );
    Some(AdmissionExplanation {
        cause,
        at: now,
        slack_deficit: if min_feasible_deadline > 0.0 {
            min_feasible_deadline - task.rel_deadline
        } else {
            0.0
        },
        min_feasible_deadline,
        max_feasible_sigma,
        earliest_feasible_start: earliest.map(|t| t.as_f64()).unwrap_or(-1.0),
    })
}

/// The oracle over an engine's observed book.
fn oracle_for<A: Admission>(engine: &A, task: &Task, now: SimTime) -> Option<AdmissionExplanation> {
    oracle_explain(
        engine.params(),
        engine.algorithm(),
        engine.config(),
        now,
        engine.committed_releases(),
        engine.queue(),
        task,
    )
}

// ---------------------------------------------------------------------
// Books and candidates.
// ---------------------------------------------------------------------

/// A busy book: committed releases, then a stream of submissions (raw
/// `(σ fraction, deadline factor, gap)` triples) through both engines.
#[derive(Clone, Debug)]
struct Scenario {
    algorithm: AlgorithmKind,
    releases: Vec<f64>,
    stream: Vec<(f64, f64, f64)>,
    /// Extra time between the last submission and the explanation instant.
    lag: f64,
    /// The candidate: σ, deadline factor, and optionally the index of a
    /// waiting task whose policy key it copies.
    sigma: f64,
    deadline_factor: f64,
    tie: Option<usize>,
}

fn params() -> ClusterParams {
    ClusterParams::new(NODES, 1.0, 50.0).expect("valid params")
}

/// Builds the scenario's book on both engines; returns them with the
/// explanation instant.
fn build(s: &Scenario) -> (AdmissionController, IncrementalController, SimTime) {
    let p = params();
    let cfg = PlanConfig::default();
    let mut full = AdmissionController::new(p, s.algorithm, cfg);
    let mut inc = IncrementalController::new(p, s.algorithm, cfg);
    for (node, r) in s.releases.iter().enumerate() {
        full.set_node_release(node, SimTime::new(*r));
        inc.set_node_release(node, SimTime::new(*r));
    }
    let mut t = 0.0;
    for (i, &(frac, factor, gap)) in s.stream.iter().enumerate() {
        t += gap;
        let sigma = 20.0 + frac * 280.0;
        let exec = homogeneous::exec_time(&p, sigma, NODES);
        let task = Task::new(i as u64 + 1, t, sigma, exec * factor);
        let now = SimTime::new(t);
        assert_eq!(full.submit(task, now), inc.submit(task, now));
    }
    (full, inc, SimTime::new(t + s.lag))
}

/// The scenario's candidate against `engine`'s book at `now`.
fn candidate<A: Admission>(s: &Scenario, engine: &A, now: SimTime) -> Task {
    let p = params();
    let exec = homogeneous::exec_time(&p, s.sigma, NODES);
    let fresh = Task::new(1_000, now, s.sigma, exec * s.deadline_factor);
    match s.tie {
        Some(pick) if !engine.queue().is_empty() => {
            // Same id, arrival and absolute deadline as a waiting task:
            // an exact policy-key tie under both EDF and FIFO.
            let (w, _) = engine.queue()[pick % engine.queue().len()];
            Task {
                data_size: s.sigma,
                ..w
            }
        }
        _ => fresh,
    }
}

fn bits(e: &AdmissionExplanation) -> [u64; 5] {
    [
        e.at.as_f64().to_bits(),
        e.slack_deficit.to_bits(),
        e.min_feasible_deadline.to_bits(),
        e.max_feasible_sigma.to_bits(),
        e.earliest_feasible_start.to_bits(),
    ]
}

/// What a checked case exercised.
#[derive(Default, Debug)]
struct Coverage {
    explained_over_queue: usize,
    prefix_failed: usize,
    ties: usize,
}

/// Runs one scenario: both engines' `explain` must equal the oracle.
fn check(s: &Scenario, cov: &mut Coverage) {
    let (full, inc, now) = build(s);
    let task = candidate(s, &full, now);
    let request = SubmitRequest::new(task);
    let want = oracle_for(&full, &task, now);
    prop_assert_eq!(
        want,
        oracle_for(&inc, &task, now),
        "engines expose the same book"
    );
    let got_full = Admission::explain(&full, &request, now);
    let got_inc = Admission::explain(&inc, &request, now);
    prop_assert_eq!(got_full, want, "full engine vs oracle");
    prop_assert_eq!(got_inc, want, "incremental engine vs oracle");
    if let (Some(got), Some(want)) = (got_full, want) {
        prop_assert_eq!(bits(&got), bits(&want), "bit-identical fields");
    }
    // The deadline stage alone reports what the full explanation does.
    let stage = full.explain_search(&request, now);
    prop_assert_eq!(stage.is_some(), want.is_some());
    if let (Some(stage), Some(want)) = (stage, want) {
        prop_assert_eq!(stage.cause(), want.cause);
        prop_assert_eq!(
            stage.min_feasible_deadline().to_bits(),
            want.min_feasible_deadline.to_bits()
        );
    }
    if want.is_some() && full.queue_len() > 0 {
        cov.explained_over_queue += 1;
        let waiting: Vec<Task> = full.queue().iter().map(|(t, _)| *t).collect();
        let alone = schedulability_test(
            full.params(),
            full.algorithm(),
            full.config(),
            now,
            full.committed_releases(),
            &waiting,
            None,
        );
        if alone.is_err() {
            cov.prefix_failed += 1;
        }
        if s.tie.is_some() {
            cov.ties += 1;
        }
    }
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::sample::select(ALGORITHMS.to_vec()),
        proptest::collection::vec(0.0f64..3_000.0, NODES),
        proptest::collection::vec((0.0f64..1.0, 1.0f64..60.0, 0.0f64..150.0), 0..=40),
        // Half the books are explained at their last replan instant.
        (0usize..2, 0.0f64..3_000.0),
        20.0f64..3_000.0,
        0.05f64..40.0,
        // One candidate in five copies a waiting task's key.
        (0usize..5, 0usize..40),
    )
        .prop_map(
            |(algorithm, releases, stream, lag, sigma, deadline_factor, tie)| Scenario {
                algorithm,
                releases,
                stream,
                lag: if lag.0 == 0 { 0.0 } else { lag.1 },
                sigma,
                deadline_factor,
                tie: (tie.0 == 0).then_some(tie.1),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn explain_over_waiting_queues_equals_the_full_replan_oracle(s in arb_scenario()) {
        check(&s, &mut Coverage::default());
    }
}

/// A fixed sweep of the same generator space, asserting the sweep reaches
/// the cases the prefix must get right: explanations over a non-empty
/// queue, a queue whose own replan fails at the explanation instant, and
/// exact key ties.
#[test]
fn fixed_sweep_covers_failing_prefixes_and_ties() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut cov = Coverage::default();
    for case in 0..160 {
        let algorithm = ALGORITHMS[case % ALGORITHMS.len()];
        let releases = (0..NODES).map(|_| next() * 3_000.0).collect();
        let depth = (next() * 41.0) as usize;
        let stream = (0..depth)
            .map(|_| (next(), 1.0 + next() * 59.0, next() * 150.0))
            .collect();
        let s = Scenario {
            algorithm,
            releases,
            stream,
            lag: if case % 2 == 0 { 0.0 } else { next() * 3_000.0 },
            sigma: 20.0 + next() * 2_980.0,
            deadline_factor: 0.05 + next() * 40.0,
            tie: (case % 5 == 0).then(|| (next() * 40.0) as usize),
        };
        check(&s, &mut cov);
    }
    assert!(cov.explained_over_queue >= 40, "{cov:?}");
    assert!(cov.prefix_failed >= 1, "{cov:?}");
    assert!(cov.explained_over_queue > cov.prefix_failed, "{cov:?}");
    assert!(cov.ties >= 1, "{cov:?}");
}

/// A candidate whose slot is exactly the first waiting task that fails on
/// its own is planned first, so the cause is the candidate's own when it
/// fails for a different reason — the boundary of the cached prefix.
#[test]
fn candidate_slotted_at_the_failing_task_reports_its_own_cause() {
    let p = params();
    let mut own_cause = 0;
    for algorithm in [AlgorithmKind::EDF_DLT, AlgorithmKind::EDF_OPR_MN] {
        let mut ctl = AdmissionController::new(p, algorithm, PlanConfig::default());
        let exec = homogeneous::exec_time(&p, 100.0, NODES);
        let waiting = Task::new(1, 0.0, 100.0, exec * 1.2);
        assert!(ctl.submit(waiting, SimTime::ZERO).is_accepted());
        // Too late for the waiting task to finish on its own.
        let deadline = waiting.absolute_deadline().as_f64();
        let now = SimTime::new(deadline - exec * 0.1);
        let alone = schedulability_test(
            &p,
            algorithm,
            &PlanConfig::default(),
            now,
            ctl.committed_releases(),
            &[waiting],
            None,
        )
        .expect_err("the waiting task fails on its own")
        .reason;
        for sigma in [1.0, 10.0, 100.0, 1_000.0] {
            for step in 1..20 {
                // An absolute deadline just ahead of the waiting task's:
                // EDF slot 0, the failing position.
                let rel = (deadline - now.as_f64()) * step as f64 / 20.0;
                let task = Task::new(2, now, sigma, rel);
                let want = oracle_for(&ctl, &task, now);
                assert_eq!(
                    ctl.explain(&SubmitRequest::new(task), now),
                    want,
                    "{algorithm:?} σ {sigma} step {step}"
                );
                if want.is_some_and(|w| w.cause != alone) {
                    own_cause += 1;
                }
            }
        }
    }
    assert!(own_cause > 0, "no candidate failed for its own reason");
}
