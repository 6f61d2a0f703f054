//! The workloads: one cluster and tenant mix, two regimes.
//!
//! Every workload serves 64 nodes (Cms = 1, Cps = 100) split into 8
//! shards under `Routing::LeastLoaded` and EDF-DLT, to 8 tenants of which
//! 1 is premium and 3 are best-effort, over one connection on one thread.

use rtdls_core::prelude::{AlgorithmKind, ClusterParams, PlanConfig, SubmitRequest, TenantMix};
use rtdls_service::prelude::{DeferPolicy, Routing, ShardedGateway};
use rtdls_workload::prelude::{IntoRequests, WorkloadGenerator, WorkloadSpec};

/// Turns are this many mean interarrival times wide, so a turn carries
/// this many submits on average.
pub const REQUESTS_PER_TURN: f64 = 16.0;

/// Distinct streams a run serves, one after another in every cycle, so
/// that no single stream's queue dynamics set a run's figures.
pub const STREAMS: u64 = 4;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Load 0.3, DCRatio 50: every request is accepted and queues stay
    /// shallow, so the edge's codec, sockets and reactor do most of the
    /// work.
    AcceptPath,
    /// Load 4, DCRatio 20: about half the requests are deferred, so the
    /// explain search and the defer re-test sweep dominate.
    Overload,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::AcceptPath, Workload::Overload];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AcceptPath => "accept_path",
            Workload::Overload => "overload",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests in one served stream.
    pub fn stream_len(self) -> usize {
        match self {
            Workload::AcceptPath => 10_000,
            Workload::Overload => 2_000,
        }
    }

    fn params() -> ClusterParams {
        ClusterParams::new(64, 1.0, 100.0).expect("valid cluster parameters")
    }

    /// The generator's spec.
    pub fn spec(self) -> WorkloadSpec {
        let (load, dc_ratio) = match self {
            Workload::AcceptPath => (0.3, 50.0),
            Workload::Overload => (4.0, 20.0),
        };
        let mut spec = WorkloadSpec::paper_baseline(load);
        spec.params = Self::params();
        spec.dc_ratio = dc_ratio;
        spec.horizon = f64::MAX;
        spec
    }

    /// Sim-time width of one turn.
    pub fn turn_width(self) -> f64 {
        REQUESTS_PER_TURN * self.spec().mean_interarrival()
    }

    /// Stream `stream` (below [`STREAMS`]) of the run seeded `seed`.
    /// Runs with different seeds serve disjoint generator seeds.
    pub fn requests(self, seed: u64, stream: u64) -> Vec<SubmitRequest> {
        let mix = TenantMix {
            tenants: 8,
            premium_tenants: 1,
            best_effort_tenants: 3,
            max_delay_factor: None,
        };
        let generator_seed = seed.wrapping_mul(STREAMS).wrapping_add(stream);
        WorkloadGenerator::new(self.spec(), generator_seed)
            .take(self.stream_len())
            .with_tenants(mix)
            .collect()
    }

    /// A fresh gateway of the benchmark's shape.
    pub fn gateway() -> ShardedGateway {
        ShardedGateway::new(
            Self::params(),
            8,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .expect("valid gateway shape")
    }
}
