//! The sharded gateway explains a refusal by running the deadline stage of
//! the search on every shard and finishing only the winner (the smallest
//! feasible counterfactual deadline, the first shard on ties). That must
//! report exactly what explaining every shard in full and then keeping the
//! best does — the rule as it stood before the split, restated here as the
//! oracle.

use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::*;
use rtdls_service::prelude::*;

const SHARDS: usize = 8;

/// Explains every shard in full, then keeps the best: `None` as soon as
/// one shard admits the request as-is.
fn every_shard_in_full<A: Admission>(
    g: &ShardedGateway<A>,
    request: &SubmitRequest,
    now: SimTime,
) -> Option<AdmissionExplanation> {
    let mut best: Option<AdmissionExplanation> = None;
    for i in 0..g.num_shards() {
        let ex = g.shard_controller(i).explain(request, now)?;
        best = Some(match best {
            None => ex,
            Some(cur) => {
                let better = match (ex.has_feasible_deadline(), cur.has_feasible_deadline()) {
                    (true, true) => ex.min_feasible_deadline < cur.min_feasible_deadline,
                    (true, false) => true,
                    _ => false,
                };
                if better {
                    ex
                } else {
                    cur
                }
            }
        });
    }
    best
}

/// Uniform draws in [0, 1) from a fixed xorshift stream.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Loads a K = 8 gateway with an overload stream (no dispatches, so the
/// shard queues deepen) and, after every submission, compares the
/// gateway's explanation of a fresh candidate against the oracle.
/// Returns how many candidates were explained over non-empty queues.
fn compare<A: Admission>(mut g: ShardedGateway<A>, algorithm: AlgorithmKind, seed: u64) -> usize {
    let shard = ClusterParams::new(64 / SHARDS, 1.0, 100.0).unwrap();
    let mut draws = Draws(seed);
    let mut t = 0.0;
    let mut explained = 0;
    for id in 1..=240u64 {
        t += draws.next() * 40.0;
        let sigma = 50.0 + draws.next() * 450.0;
        let exec = homogeneous::exec_time(&shard, sigma, shard.num_nodes);
        let task = Task::new(id, t, sigma, exec * (1.0 + draws.next() * 20.0));
        g.submit_request(&SubmitRequest::new(task), SimTime::new(t));

        let now = SimTime::new(t + draws.next() * 200.0);
        let sigma = 20.0 + draws.next() * 2_000.0;
        let exec = homogeneous::exec_time(&shard, sigma, shard.num_nodes);
        let probe = Task::new(10_000 + id, now, sigma, exec * draws.next() * 10.0);
        let request = SubmitRequest::new(probe);
        let want = every_shard_in_full(&g, &request, now);
        assert_eq!(
            g.explain(&request, now),
            want,
            "{algorithm:?} seed {seed} after submission {id}"
        );
        if want.is_some() && g.shard_queue_lens().iter().any(|&n| n > 0) {
            explained += 1;
        }
    }
    explained
}

#[test]
fn winner_only_finish_equals_explaining_every_shard_in_full() {
    let p = ClusterParams::new(64, 1.0, 100.0).unwrap();
    let mut explained = 0;
    for algorithm in [
        AlgorithmKind::EDF_DLT,
        AlgorithmKind::EDF_OPR_MN,
        AlgorithmKind::FIFO_DLT,
    ] {
        for (seed, routing) in [(7u64, Routing::RoundRobin), (11, Routing::LeastLoaded)] {
            let cfg = PlanConfig::default();
            let defer = DeferPolicy::default();
            let full = ShardedGateway::new(p, SHARDS, algorithm, cfg, routing, defer).unwrap();
            explained += compare(full, algorithm, seed);
            let inc = ShardedGateway::<IncrementalController>::with_engine(
                p, SHARDS, algorithm, cfg, routing, defer,
            )
            .unwrap();
            explained += compare(inc, algorithm, seed);
        }
    }
    assert!(
        explained > 500,
        "only {explained} refusals explained over queues"
    );
}
