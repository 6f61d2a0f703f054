//! CI regression guard for edge telemetry overhead.
//!
//! Reads the baseline the `edge_throughput` bench just emitted
//! (`target/edge_throughput_baseline.json`) and compares it against the
//! committed reference (`crates/bench/baselines/edge_throughput.json`).
//! Fails (exit 1) when the measured `telemetry_overhead` — the relative
//! cost of serving a loopback batch with a telemetry handle attached vs.
//! the bare path, both measured in the same process — exceeds the
//! committed `max_telemetry_overhead` ceiling (the acceptance bar: full
//! decision tracing must cost ≤ 5% of edge throughput), when the full
//! observability plane (tracing + metrics-history sampling + profiler)
//! exceeds its own `max_history_overhead` ceiling — the "always-on"
//! claim — when SLO folding exceeds `max_slo_overhead`, when the
//! counterfactual search runs under its rate floors
//! (`min_explain_probes_per_sec` on an empty queue,
//! `min_explain_probes_per_sec_deep` on a 32-deep one), when the
//! multi-reactor speedup — the 4-reactor cluster vs. the 1-reactor
//! reference, same offered load, same process — falls below the committed
//! floor (sharding must never lose to the single reactor), or when the
//! 4-reactor cluster fails to beat the committed single-reactor
//! requests-per-second figure (that committed number is deliberately
//! modest — a latency-bound loopback serve — so the comparison holds
//! across machines).
//!
//! The overhead ratio is machine-independent by construction (same
//! process, same scenario, only the telemetry handle differs); it is often
//! negative, meaning the two runs are within loopback noise. Absolute
//! requests-per-second numbers from the committed run are reported for
//! context only; they are machine-specific and never gate. The explain
//! rate floors are absolute, set at about half the rate measured on the
//! reference machine.

use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct Measured {
    codec_roundtrips_per_sec: f64,
    loopback_requests_per_sec: f64,
    loopback_requests_per_sec_journaled: f64,
    loopback_requests_per_sec_telemetry: f64,
    telemetry_overhead: f64,
    loopback_requests_per_sec_history: f64,
    history_overhead: f64,
    explain_probes_per_sec: f64,
    explain_probes_per_sec_deep: f64,
    loopback_requests_per_sec_slo: f64,
    slo_overhead: f64,
    loopback_requests_per_sec_multi1: f64,
    loopback_requests_per_sec_multi2: f64,
    loopback_requests_per_sec_multi4: f64,
    multi_speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct Committed {
    codec_roundtrips_per_sec: f64,
    loopback_requests_per_sec: f64,
    loopback_requests_per_sec_journaled: f64,
    loopback_requests_per_sec_telemetry: f64,
    telemetry_overhead: f64,
    loopback_requests_per_sec_history: f64,
    history_overhead: f64,
    explain_probes_per_sec: f64,
    explain_probes_per_sec_deep: f64,
    loopback_requests_per_sec_slo: f64,
    slo_overhead: f64,
    loopback_requests_per_sec_multi1: f64,
    loopback_requests_per_sec_multi2: f64,
    loopback_requests_per_sec_multi4: f64,
    multi_speedup: f64,
    /// Hard ceiling on the measured overhead (acceptance criterion).
    max_telemetry_overhead: f64,
    /// Same bar for the *full* observability plane — tracing plus
    /// metrics-history sampling plus the hot-path profiler, all on at
    /// once. The "always-on" claim is this ceiling.
    max_history_overhead: f64,
    /// Same bar for SLO decision-folding at the wire.
    max_slo_overhead: f64,
    /// Floor on worst-case counterfactual searches per second — the
    /// explain path must stay interactive (an `Ops::Explain` probe is a
    /// synchronous wire round-trip).
    min_explain_probes_per_sec: f64,
    /// Floor on counterfactual searches per second against a 32-deep
    /// waiting queue (the candidate slotted mid-queue): a refusal on a
    /// loaded gateway is explained inline, before its verdict is sent.
    min_explain_probes_per_sec_deep: f64,
    /// Floor on `multi_speedup` (4-reactor vs. 1-reactor cluster, same
    /// offered load, same process): the sharded edge must never lose to
    /// the single reactor.
    min_multi_speedup: f64,
}

fn read<T: Deserialize>(path: &std::path::Path) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

fn main() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed: Committed = read(&manifest.join("baselines/edge_throughput.json"));
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| manifest.join("../../target"));
    let measured: Measured = read(&target.join("edge_throughput_baseline.json"));

    println!(
        "committed: {:.0} rps bare / {:.0} rps telemetry ({:+.1}% overhead)\n\
         measured:  {:.0} rps bare / {:.0} rps telemetry ({:+.1}% overhead)",
        committed.loopback_requests_per_sec,
        committed.loopback_requests_per_sec_telemetry,
        committed.telemetry_overhead * 100.0,
        measured.loopback_requests_per_sec,
        measured.loopback_requests_per_sec_telemetry,
        measured.telemetry_overhead * 100.0,
    );

    println!(
        "committed: {:.0} rps full observability ({:+.1}% overhead)\n\
         measured:  {:.0} rps full observability ({:+.1}% overhead)",
        committed.loopback_requests_per_sec_history,
        committed.history_overhead * 100.0,
        measured.loopback_requests_per_sec_history,
        measured.history_overhead * 100.0,
    );

    println!(
        "committed: {:.0} rps slo ({:+.1}% overhead), {:.0} explains/s, {:.0} deep explains/s\n\
         measured:  {:.0} rps slo ({:+.1}% overhead), {:.0} explains/s, {:.0} deep explains/s",
        committed.loopback_requests_per_sec_slo,
        committed.slo_overhead * 100.0,
        committed.explain_probes_per_sec,
        committed.explain_probes_per_sec_deep,
        measured.loopback_requests_per_sec_slo,
        measured.slo_overhead * 100.0,
        measured.explain_probes_per_sec,
        measured.explain_probes_per_sec_deep,
    );

    println!(
        "committed: {:.0}/{:.0}/{:.0} rps multi 1/2/4 ({:.2}x speedup)\n\
         measured:  {:.0}/{:.0}/{:.0} rps multi 1/2/4 ({:.2}x speedup)",
        committed.loopback_requests_per_sec_multi1,
        committed.loopback_requests_per_sec_multi2,
        committed.loopback_requests_per_sec_multi4,
        committed.multi_speedup,
        measured.loopback_requests_per_sec_multi1,
        measured.loopback_requests_per_sec_multi2,
        measured.loopback_requests_per_sec_multi4,
        measured.multi_speedup,
    );

    let mut failed = false;
    if measured.telemetry_overhead > committed.max_telemetry_overhead {
        eprintln!(
            "FAIL: telemetry overhead {:.1}% above the {:.0}% ceiling",
            measured.telemetry_overhead * 100.0,
            committed.max_telemetry_overhead * 100.0,
        );
        failed = true;
    }
    if measured.history_overhead > committed.max_history_overhead {
        eprintln!(
            "FAIL: full-observability overhead {:.1}% above the {:.0}% ceiling",
            measured.history_overhead * 100.0,
            committed.max_history_overhead * 100.0,
        );
        failed = true;
    }
    if measured.slo_overhead > committed.max_slo_overhead {
        eprintln!(
            "FAIL: SLO tracking overhead {:.1}% above the {:.0}% ceiling",
            measured.slo_overhead * 100.0,
            committed.max_slo_overhead * 100.0,
        );
        failed = true;
    }
    if measured.explain_probes_per_sec < committed.min_explain_probes_per_sec {
        eprintln!(
            "FAIL: {:.0} explain probes/s under the {:.0}/s floor",
            measured.explain_probes_per_sec, committed.min_explain_probes_per_sec,
        );
        failed = true;
    }
    if measured.explain_probes_per_sec_deep < committed.min_explain_probes_per_sec_deep {
        eprintln!(
            "FAIL: {:.0} deep-queue explain probes/s under the {:.0}/s floor",
            measured.explain_probes_per_sec_deep, committed.min_explain_probes_per_sec_deep,
        );
        failed = true;
    }
    if measured.multi_speedup < committed.min_multi_speedup {
        eprintln!(
            "FAIL: multi-reactor speedup {:.2}x under the {:.2}x floor",
            measured.multi_speedup, committed.min_multi_speedup,
        );
        failed = true;
    }
    if measured.loopback_requests_per_sec_multi4 < committed.loopback_requests_per_sec {
        eprintln!(
            "FAIL: 4-reactor cluster at {:.0} rps does not beat the committed \
             single-reactor baseline of {:.0} rps",
            measured.loopback_requests_per_sec_multi4, committed.loopback_requests_per_sec,
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("edge telemetry, observability plane, SLO, explain, and multi-reactor scaling OK");
}
