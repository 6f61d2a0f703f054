//! `rtdls-perfbench`: the repository's serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload accept_path --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Serves seeded `WorkloadGenerator` streams to a real `EdgeServer` over
//! loopback TCP, driving both sides from one thread in lockstep on a sim
//! clock the benchmark owns (see [`serve`]), so the verdicts depend on the
//! seed alone. The seed gives [`workloads::STREAMS`] distinct request
//! streams; a run serves them in cycles (one "round" per stream, each on a
//! freshly set-up gateway, edge and connection) until `--seconds` of
//! serving has been measured, checks every round against an in-process
//! reference run of its stream, and prints as its last stdout line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Rounds
//! rotate over the CPUs the process may use (see [`affinity`]). With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! from cycles that record spans around every call into the program
//! (alternating with untraced cycles, which give `trace.overhead`). The
//! spans of the first traced round are written to
//! `.perfbench/trace-<workload>.jsonl`.
//!
//! Any output-check mismatch prints `"correct": false` and exits 1.

mod affinity;
mod probe;
mod serve;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rtdls_core::prelude::{SimTime, SubmitRequest};
use rtdls_edge::EdgeConfig;
use rtdls_journal::prelude::{
    read_segment_dir, recover, recover_segment_dir, FsyncPolicy, JournalConfig, JournalEvent,
    JournaledGateway, SegmentedSink,
};
use rtdls_journal::recovery_bytes;
use rtdls_journal::wire::{decode_frames, RecordKind};
use rtdls_service::prelude::{ShardedGateway, Verdict};

use probe::{layer_totals, LayerTotals, Ledger, ProbedSink, Span, Tracer};
use serve::{Reference, Served};
use workloads::{Workload, STREAMS};

/// Set-up is timed at least this many times per run (extra set-ups are
/// torn down unserved).
const MIN_SETUPS: usize = 7;

/// Crash points recovered from.
const RECOVERIES: usize = 9;

/// Each crash point is rebuilt at least this many times per run.
const RECOVERY_REPEATS: usize = 3;

/// The share of serve time the ledger may leave unattributed before its
/// layer lines stop accounting for the serve phase.
const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// Group commit: the sink syncs only when the edge closes a drive.
const GROUP_COMMIT: FsyncPolicy = FsyncPolicy::Batch(usize::MAX);

/// Where a run keeps its WALs and trace output, under the working
/// directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: rtdls-perfbench --workload <accept_path|overload> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = Path::new(OUT_DIR).join(format!(
        "run-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            for mismatch in &report.mismatches {
                eprintln!("mismatch: {mismatch}");
            }
            println!("{}", report.json());
            if report.mismatches.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints.
struct Report {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One served round and what was learned from it.
struct Round {
    /// The cycle the round belongs to.
    cycle: usize,
    /// What was served; the per-request verdicts and updates are kept for
    /// the first round only (every round of a stream serves the same
    /// verdicts).
    served: Served,
    attempted: u64,
    failed: u64,
    admitted: u64,
    /// Median and 99th percentile of the round's write-to-verdict
    /// latencies, microseconds.
    p50_us: f64,
    p99_us: f64,
    traced: bool,
    drives: u64,
    /// Per-span-name totals of a traced round.
    totals: BTreeMap<&'static str, LayerTotals>,
    counts: BTreeMap<&'static str, u64>,
}

/// A fresh gateway journaled to a file-backed segmented WAL in `wal`, its
/// sink calls recorded into `tracer`: the reference replay's gateway.
fn journaled_gateway(
    wal: &Path,
    tracer: &Tracer,
) -> Result<JournaledGateway<ShardedGateway>, String> {
    let sink = SegmentedSink::create(wal)
        .map_err(|e| format!("create WAL {}: {e}", wal.display()))?
        .with_fsync_policy(GROUP_COMMIT);
    Ok(JournaledGateway::with_sink(
        Workload::gateway(),
        JournalConfig::default(),
        Box::new(ProbedSink::new(sink, tracer.clone())),
    ))
}

/// Sets up one round: the stream, the gateway, the edge and the
/// connection. Returns how long that took, and everything set up.
fn set_up(
    workload: Workload,
    seed: u64,
    stream: u64,
    tracer: &Tracer,
) -> Result<(Duration, Setup), String> {
    let started = Instant::now();
    let requests = workload.requests(seed, stream);
    let (server, client) = serve::bind(Workload::gateway(), tracer, EdgeConfig::default())
        .map_err(|e| format!("bind and connect: {e}"))?;
    Ok((started.elapsed(), (requests, server, client)))
}

type Setup = (
    Vec<SubmitRequest>,
    rtdls_edge::EdgeServer<probe::Probed<ShardedGateway>>,
    serve::Client,
);

/// Sets up and serves one round of stream `stream` in cycle `cycle`,
/// returning the set-up time, the round, its spans, and the gateway it
/// ended with.
fn play(
    workload: Workload,
    seed: u64,
    stream: u64,
    cycle: usize,
    tracer: &Tracer,
) -> Result<(Duration, Round, Vec<Span>, ShardedGateway), String> {
    let (setup, (requests, mut server, mut client)) = set_up(workload, seed, stream, tracer)?;
    let mut served = serve::serve(
        &mut server,
        &mut client,
        &requests,
        workload.turn_width(),
        tracer,
    );
    drop(client);
    let gateway = server.into_gateway();
    let (spans, counts) = tracer.take();
    served.latencies_us.sort_by(f64::total_cmp);
    let latency = |p| {
        if served.latencies_us.is_empty() {
            0.0
        } else {
            stats::percentile(&served.latencies_us, p)
        }
    };
    let round = Round {
        cycle,
        p50_us: latency(50.0),
        p99_us: latency(99.0),
        attempted: served.attempted(),
        failed: served.failed(),
        admitted: served.admitted(),
        served,
        traced: tracer.is_on(),
        drives: gateway.drives(),
        totals: layer_totals(&spans),
        counts,
    };
    Ok((setup, round, spans, gateway.into_inner()))
}

/// Compares one served round with the reference and with the server's
/// own books; every disagreement is one line. `books_match` says whether
/// the served gateway's final books equal the reference gateway's.
fn check(served: &Served, reference: &Reference, books_match: bool) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(lost) = &served.lost {
        out.push(format!("connection lost: {lost:?}"));
    }
    for error in &served.errors {
        out.push(format!("server error: {error}"));
    }
    let verdicts = served.verdicts.iter().zip(&reference.verdicts);
    if let Some((i, (got, want))) = verdicts
        .enumerate()
        .find(|(_, (got, want))| got.as_ref() != Some(*want))
    {
        out.push(format!("verdict {i}: served {got:?}, reference {want:?}"));
    }
    if served.updates != reference.updates {
        out.push(format!(
            "pushed updates differ from the reference ({} served, {} reference)",
            served.updates.len(),
            reference.updates.len()
        ));
    }
    let count =
        |f: fn(&Verdict) -> bool| served.verdicts.iter().flatten().filter(|v| f(v)).count() as u64;
    let m = &served.metrics;
    let pairs = [
        ("submitted", served.attempted(), m.submitted),
        (
            "accepted",
            count(|v| matches!(v, Verdict::Accepted)),
            m.accepted_immediate,
        ),
        (
            "deferred",
            count(|v| matches!(v, Verdict::Deferred { .. })),
            m.deferred,
        ),
        (
            "rejected",
            count(|v| matches!(v, Verdict::Rejected { .. })),
            m.rejected_immediate,
        ),
        (
            "reserved",
            count(|v| matches!(v, Verdict::Reserved { .. })),
            m.reserved,
        ),
        (
            "throttled",
            count(|v| matches!(v, Verdict::Throttled)),
            m.throttled + served.edge.edge_throttled,
        ),
        (
            "admitted by a pushed update",
            serve::admitted_updates(&served.updates),
            m.rescued + m.reservations_activated,
        ),
        ("edge submits", served.attempted(), served.edge.submits),
        (
            "updates pushed",
            served.updates.len() as u64,
            served.edge.updates_pushed,
        ),
        ("edge protocol errors", 0, served.edge.protocol_errors),
        ("updates dropped", 0, served.edge.updates_dropped),
    ];
    for (what, client, server) in pairs {
        if client != server {
            out.push(format!(
                "{what}: client saw {client}, server books {server}"
            ));
        }
    }
    if !books_match {
        out.push("served books differ from the reference's".to_string());
    }
    out
}

/// The segment files of a WAL directory, in sequence order.
fn segment_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read WAL {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".wal"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// The latest sim instant any event in a WAL segment carries.
fn last_instant(segment: &[u8]) -> SimTime {
    let (frames, _) = decode_frames(segment);
    frames
        .iter()
        .filter(|f| f.kind == RecordKind::Event)
        .filter_map(|f| std::str::from_utf8(&f.payload).ok())
        .filter_map(|text| serde_json::from_str::<JournalEvent>(text).ok())
        .filter_map(|event| match event {
            JournalEvent::Submitted { at, .. }
            | JournalEvent::RequestSubmitted { at, .. }
            | JournalEvent::ActivationDue { at }
            | JournalEvent::BatchSubmitted { at, .. }
            | JournalEvent::Completed { at, .. }
            | JournalEvent::DispatchDue { at }
            | JournalEvent::Replanned { at }
            | JournalEvent::Retested { at }
            | JournalEvent::Finalized { at }
            | JournalEvent::Demoted { at, .. }
            | JournalEvent::ReservationActivated { at, .. } => Some(at),
            _ => None,
        })
        .fold(SimTime::ZERO, SimTime::max)
}

/// Crash points to time recoveries from, and the times taken so far.
///
/// The points are [`RECOVERIES`] sealed segments of the reference WALs,
/// spread evenly over the logs (skipping each log's newest segment, which
/// may still be open, and its first, whose snapshot is the empty genesis
/// book). Each sealed segment
/// holds one snapshot and one full snapshot interval of events, so every
/// recovery reads and replays the same amount of log: the most a crash
/// under the default snapshot cadence leaves to replay. Each is rebuilt
/// alone from a synced copy through the public entry points
/// (`read_segment_dir`, `recovery_bytes`, `recover`), at the segment's
/// last event instant. Re-attaching a durable sink afterwards writes and
/// fsyncs the post-recovery snapshot, the same work as a snapshot
/// rotation (`journal.reset_ns`); it is left out, so that the flush
/// latency of a shared disk does not swamp the rebuild. Every point is
/// rebuilt [`RECOVERY_REPEATS`] times, in turn.
struct Recoveries {
    points: Vec<(Vec<u8>, SimTime)>,
    /// Rebuild times, ms.
    samples_ms: Vec<f64>,
    /// Admitted tasks the recoveries' strict re-admission pass demoted.
    demoted: usize,
}

impl Recoveries {
    fn from_wals(dirs: &[PathBuf]) -> Result<Self, String> {
        let mut candidates = Vec::new();
        for dir in dirs {
            let mut sealed = segment_files(dir)?;
            sealed.pop();
            candidates.extend(sealed.into_iter().skip(1));
        }
        let picks = RECOVERIES.min(candidates.len());
        if picks == 0 {
            return Err("the reference WALs have no sealed segment to recover".to_string());
        }
        let points: Vec<(Vec<u8>, SimTime)> = (0..picks)
            .map(|pick| {
                let segment = &candidates[(2 * pick + 1) * candidates.len() / (2 * picks)];
                let bytes = std::fs::read(segment)
                    .map_err(|e| format!("read {}: {e}", segment.display()))?;
                let at = last_instant(&bytes);
                Ok((bytes, at))
            })
            .collect::<Result<_, String>>()?;
        Ok(Recoveries {
            points,
            samples_ms: Vec::new(),
            demoted: 0,
        })
    }

    /// Times a recovery from the next crash point.
    fn time_one(&mut self, scratch: &Path) -> Result<(), String> {
        let (bytes, at) = &self.points[self.samples_ms.len() % self.points.len()];
        let dir = scratch.join("recover");
        copy_synced(bytes, &dir).map_err(|e| format!("copy a segment: {e}"))?;
        let started = Instant::now();
        let segments = read_segment_dir(&dir).map_err(|e| format!("read a segment: {e}"))?;
        let (gateway, report) = recover::<ShardedGateway>(
            &recovery_bytes(&segments),
            *at,
            JournalConfig::default(),
            None,
        )
        .map_err(|e| format!("recover a segment: {e}"))?;
        self.samples_ms.push(started.elapsed().as_secs_f64() * 1e3);
        drop(gateway);
        self.demoted += report.demoted.len();
        discard(&dir);
        Ok(())
    }

    /// The mean rebuild time over every timed rebuild.
    fn recover_ms(&self) -> f64 {
        self.samples_ms.iter().sum::<f64>() / self.samples_ms.len().max(1) as f64
    }
}

/// Writes `bytes` as the only segment of a fresh WAL directory `dir`, and
/// syncs it, so the timed rebuild reads a settled file.
fn copy_synced(bytes: &[u8], dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut file = std::fs::File::create(dir.join("seg-000000.wal"))?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::File::open(dir)?.sync_all()
}

/// Deletes a WAL directory and syncs its parent, so the file system
/// finishes the deletion now rather than during the next timed round.
fn discard(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        if let Ok(parent) = std::fs::File::open(parent) {
            let _ = parent.sync_all();
        }
    }
}

/// The process's peak resident set, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args, scratch: &Path) -> Result<Report, String> {
    let workload = args.workload;
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    // The references: each stream's schedule straight into a fresh
    // gateway journaled to a file-backed WAL. Untimed by the end-to-end
    // metrics; their sink calls give the journal's per-layer figures, and
    // their WALs are what recoveries are timed from.
    let journal_tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut journal = JournalRun::default();
    let mut references = Vec::new();
    let mut wals = Vec::new();
    let mut mismatches: Vec<String> = Vec::new();
    for stream in 0..STREAMS {
        let requests = workload.requests(args.seed, stream);
        let wal = scratch.join(format!("reference-{stream}"));
        let started = Instant::now();
        let (reference, gateway) = serve::reference(
            journaled_gateway(&wal, &journal_tracer)?,
            &requests,
            workload.turn_width(),
        );
        journal.wall_ns += started.elapsed().as_nanos() as u64;
        journal.requests += requests.len() as u64;
        let sink = gateway.journal().sink_stats().unwrap_or_default();
        journal.appends += sink.appends;
        journal.bytes_written += sink.bytes_written;
        let books = serve::books(gateway.inner());
        drop(gateway);
        // The WAL must rebuild the reference's books exactly.
        let (recovered, _) = recover_segment_dir::<ShardedGateway>(
            &wal,
            reference.end_at,
            JournalConfig::default(),
            GROUP_COMMIT,
        )
        .map_err(|e| format!("recover reference WAL {stream}: {e}"))?;
        if serve::books(recovered.inner()) != books {
            mismatches.push(format!(
                "stream {stream}: books recovered from the WAL differ from the reference's"
            ));
        }
        references.push((reference, books));
        wals.push(wal);
    }
    journal.totals = layer_totals(&journal_tracer.take().0);
    // WAL rebuilds are a per-layer figure, timed in traced runs only.
    let recoveries = if args.trace {
        Some(Recoveries::from_wals(&wals)?)
    } else {
        None
    };
    for wal in &wals {
        discard(wal);
    }

    // Whole cycles, so every stream is served equally often; a traced
    // run alternates untraced and traced cycles. Each round is pinned to
    // one allowed CPU, rotating so that every stream, and every cycle,
    // spreads over all of them.
    let cpus = affinity::allowed_cpus();
    let budget = Duration::from_secs(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut serving = Duration::ZERO;
    let mut first_spans: Vec<Span> = Vec::new();
    let mut cycle = 0;
    while cycle == 0 || serving < budget || (args.trace && cycle < 2) {
        let tracer = if args.trace && cycle % 2 == 1 {
            Tracer::on()
        } else {
            Tracer::off()
        };
        for (stream, (reference, books)) in (0..STREAMS).zip(&references) {
            let k = rounds.len();
            if !cpus.is_empty() {
                affinity::pin(cpus[(stream as usize + cycle) % cpus.len()]);
            }
            let (setup, mut round, spans, gateway) =
                play(workload, args.seed, stream, cycle, &tracer)?;
            let books_match = serve::books(&gateway) == *books;
            mismatches.extend(
                check(&round.served, reference, books_match)
                    .into_iter()
                    .map(|m| format!("round {k} (stream {stream}): {m}")),
            );
            setups.push(setup.as_secs_f64());
            serving += Duration::from_nanos(round.served.serve_ns);
            if round.traced && first_spans.is_empty() {
                first_spans = spans;
            }
            if k > 0 {
                round.served.verdicts = Vec::new();
                round.served.updates = Vec::new();
                round.served.latencies_us = Vec::new();
            }
            rounds.push(round);
        }
        cycle += 1;
    }
    while setups.len() < MIN_SETUPS {
        setups.push(
            set_up(workload, args.seed, 0, &Tracer::off())?
                .0
                .as_secs_f64(),
        );
    }

    let mut notes = vec![regime(&rounds), format!("rounds spread over CPUs {cpus:?}")];
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let metrics = if let Some(mut recoveries) = recoveries {
        while recoveries.samples_ms.len() < recoveries.points.len() * RECOVERY_REPEATS {
            recoveries.time_one(scratch)?;
        }
        notes.push(format!(
            "recovery: {} rebuilds from {} crash points, {} admitted tasks demoted on re-admission",
            recoveries.samples_ms.len(),
            recoveries.points.len(),
            recoveries.demoted
        ));
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let (metrics, ledger) = per_layer(&traced, &untraced, &journal, recoveries.recover_ms());
        notes.extend(ledger);
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
        write_spans(&path, &first_spans)?;
        notes.push(format!("spans written to {}", path.display()));
        metrics
    } else {
        end_to_end(&untraced, &setups)
    };
    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failed = rounds.iter().map(|r| r.failed).sum();
    Ok(Report {
        attempted,
        failed,
        mismatches,
        metrics,
        notes,
    })
}

/// The journal, as the reference replays exercised it: their wall time,
/// the requests they replayed, the sinks' counters, and the traced sink
/// calls (empty unless tracing).
#[derive(Default)]
struct JournalRun {
    wall_ns: u64,
    requests: u64,
    appends: u64,
    bytes_written: u64,
    totals: BTreeMap<&'static str, LayerTotals>,
}

/// Median serve time of a cycle (every stream served once), ns.
fn median_cycle_ns(rounds: &[&Round]) -> f64 {
    let mut cycles: BTreeMap<usize, f64> = BTreeMap::new();
    for r in rounds {
        *cycles.entry(r.cycle).or_insert(0.0) += r.served.serve_ns as f64;
    }
    stats::median(&cycles.into_values().collect::<Vec<_>>())
}

/// The end-to-end metrics. Per-round figures are averaged over the
/// run's rounds rather than taken at their median: on a shared host the
/// serving speed swings between a slow and a fast state for seconds at a
/// time, and the median of a run flips between the two while the average
/// over the run moves little.
fn end_to_end(rounds: &[&Round], setups: &[f64]) -> Vec<Metric> {
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let admitted: u64 = rounds.iter().map(|r| r.admitted).sum();
    let serve_s: f64 = rounds.iter().map(|r| r.served.serve_ns as f64 / 1e9).sum();
    let mean =
        |f: fn(&Round) -> f64| rounds.iter().map(|r| f(r)).sum::<f64>() / rounds.len() as f64;
    vec![
        Metric {
            name: "serve_rps",
            value: attempted as f64 / serve_s,
            unit: "req/s",
        },
        Metric {
            name: "verdict_p50_us",
            value: mean(|r| r.p50_us),
            unit: "us",
        },
        Metric {
            name: "verdict_p99_us",
            value: mean(|r| r.p99_us),
            unit: "us",
        },
        Metric {
            name: "answered_ratio",
            value: 1.0 - failed as f64 / attempted.max(1) as f64,
            unit: "fraction",
        },
        Metric {
            name: "accept_ratio",
            value: admitted as f64 / attempted.max(1) as f64,
            unit: "fraction",
        },
        Metric {
            name: "setup_s",
            value: stats::median(setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ]
}

/// The regime line printed with every result: the verdict mix, the turn
/// size, the queue depths and the re-test rate, of the first round (of
/// stream 0; every round of a stream serves it to the same verdicts).
fn regime(rounds: &[Round]) -> String {
    let r = &rounds[0];
    let s = &r.served;
    let count = |f: fn(&Verdict) -> bool| s.verdicts.iter().flatten().filter(|v| f(v)).count();
    let n = s.attempted().max(1) as f64;
    let sorted = &s.latencies_us;
    let tail = match stats::highest_supported(sorted.len()) {
        Some(p) => format!(
            "p{p}={:.1}us over {} samples ({} beyond)",
            stats::percentile(sorted, p),
            sorted.len(),
            stats::beyond(p, sorted.len())
        ),
        None => format!("{} samples, too few for a tail", sorted.len()),
    };
    format!(
        "regime: accepted={:.4} deferred={:.4} rejected={:.4} reserved={:.4} throttled={:.4} \
         admitted_after_push={} edge.reqs_per_turn={:.2} service.waiting_depth={:.2} \
         service.deferred_depth={:.2} service.retests_per_drive={:.3} rounds={} verdict_tail: {}",
        count(|v| matches!(v, Verdict::Accepted)) as f64 / n,
        count(|v| matches!(v, Verdict::Deferred { .. })) as f64 / n,
        count(|v| matches!(v, Verdict::Rejected { .. })) as f64 / n,
        count(|v| matches!(v, Verdict::Reserved { .. })) as f64 / n,
        count(|v| matches!(v, Verdict::Throttled)) as f64 / n,
        serve::admitted_updates(&s.updates),
        n / s.turns.max(1) as f64,
        s.waiting_depth_sum as f64 / s.turns.max(1) as f64,
        s.deferred_depth_sum as f64 / s.turns.max(1) as f64,
        s.metrics.retests as f64 / r.drives.max(1) as f64,
        rounds.len(),
        tail,
    )
}

/// The layers the ledger groups its lines into, with the span-name
/// prefixes each covers.
const LAYER_GROUPS: [(&str, &[&str]); 3] = [
    ("edge+client", &["client.", "edge."]),
    (
        "service.decide.{deferred,rejected}+drive",
        &[
            "service.decide.deferred",
            "service.decide.rejected",
            "service.drive",
        ],
    ),
    (
        "service.decide.{accepted,reserved,throttled}",
        &[
            "service.decide.accepted",
            "service.decide.reserved",
            "service.decide.throttled",
        ],
    ),
];

/// Per-layer metrics from the traced rounds and the traced reference
/// replay (the journal), and the ledger's lines.
fn per_layer(
    traced: &[&Round],
    untraced: &[&Round],
    journal: &JournalRun,
    recover_ms: f64,
) -> (Vec<Metric>, Vec<String>) {
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in traced {
        for (name, t) in &r.totals {
            let sum = totals.entry(name).or_default();
            sum.count += t.count;
            sum.total_ns += t.total_ns;
            sum.self_ns += t.self_ns;
        }
        for (name, n) in &r.counts {
            *counts.entry(name).or_insert(0) += n;
        }
    }
    let rounds = traced.len() as f64;
    let sum = |f: fn(&Round) -> u64| traced.iter().map(|r| f(r)).sum::<u64>() as f64;
    let requests = sum(|r| r.attempted).max(1.0);
    let turns = sum(|r| r.served.turns).max(1.0);
    let drives = sum(|r| r.drives);
    let serve_ns = sum(|r| r.served.serve_ns) as u64;
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |name: &str| {
        let t = get(name);
        t.total_ns as f64 / t.count.max(1) as f64
    };
    let ledger = Ledger::new(&totals, serve_ns);
    let overhead = median_cycle_ns(traced) / median_cycle_ns(untraced) - 1.0;
    let metric = |name, value, unit| Metric { name, value, unit };
    let mut metrics = vec![
        metric("edge.codec.encode_ns", per_call("client.encode"), "ns"),
        metric(
            "edge.codec.decode_ns",
            get("client.decode").total_ns as f64
                / counts
                    .get("client.frames_decoded")
                    .copied()
                    .unwrap_or(0)
                    .max(1) as f64,
            "ns",
        ),
        metric(
            "edge.socket.write_ns",
            get("client.write").total_ns as f64 / turns,
            "ns",
        ),
        metric(
            "edge.socket.read_ns",
            get("client.read").total_ns as f64 / turns,
            "ns",
        ),
        metric(
            "edge.poll_ns",
            get("edge.poll").total_ns as f64 / requests,
            "ns",
        ),
        metric(
            "edge.reactor.self_ns",
            get("edge.poll").self_ns as f64 / requests,
            "ns",
        ),
        metric("edge.reqs_per_turn", requests / turns, "req/turn"),
        metric(
            "edge.frames_sent",
            sum(|r| r.served.edge.frames_sent) / requests,
            "frame/req",
        ),
    ];
    for (span, time, count) in [
        (
            "service.decide.accepted",
            "service.decide_ns.accepted",
            "service.decide.count.accepted",
        ),
        (
            "service.decide.deferred",
            "service.decide_ns.deferred",
            "service.decide.count.deferred",
        ),
        (
            "service.decide.rejected",
            "service.decide_ns.rejected",
            "service.decide.count.rejected",
        ),
        (
            "service.decide.reserved",
            "service.decide_ns.reserved",
            "service.decide.count.reserved",
        ),
    ] {
        metrics.push(metric(time, per_call(span), "ns"));
        metrics.push(metric(count, get(span).count as f64 / rounds, "count"));
    }
    let retests = sum(|r| r.served.metrics.retests);
    let journal_call = |name: &str| {
        let t = journal.totals.get(name).copied().unwrap_or_default();
        t.total_ns as f64 / t.count.max(1) as f64
    };
    let journal_count = |name: &str| journal.totals.get(name).map_or(0, |t| t.count) as f64;
    let replayed = journal.requests.max(1) as f64;
    let appends = journal.appends as f64;
    metrics.extend([
        metric("service.drive_ns", per_call("service.drive"), "ns"),
        metric("service.drives", drives / rounds, "count"),
        metric(
            "service.retests_per_drive",
            retests / drives.max(1.0),
            "ratio",
        ),
        metric(
            "service.rescue_ratio",
            sum(|r| r.served.metrics.rescued) / retests.max(1.0),
            "ratio",
        ),
        metric(
            "service.waiting_depth",
            sum(|r| r.served.waiting_depth_sum) / turns,
            "tasks",
        ),
        metric(
            "service.deferred_depth",
            sum(|r| r.served.deferred_depth_sum) / turns,
            "tasks",
        ),
        metric(
            "service.updates_pushed",
            sum(|r| r.served.edge.updates_pushed) / rounds,
            "count",
        ),
        metric("journal.append_ns", journal_call("journal.append"), "ns"),
        metric("journal.appends_per_req", appends / replayed, "ratio"),
        metric(
            "journal.bytes_per_req",
            journal.bytes_written as f64 / replayed,
            "B/req",
        ),
        metric("journal.flush_ns", journal_call("journal.flush"), "ns"),
        metric(
            "journal.appends_per_flush",
            appends / journal_count("journal.flush").max(1.0),
            "ratio",
        ),
        metric("journal.reset_ns", journal_call("journal.reset"), "ns"),
        metric("journal.resets", journal_count("journal.reset"), "count"),
        metric("journal.recover_ms", recover_ms, "ms"),
        metric(
            "ledger.unattributed_share",
            ledger.unattributed_share(),
            "fraction",
        ),
        metric("trace.overhead", overhead, "fraction"),
    ]);

    let mut lines = vec![format!(
        "ledger: {} traced rounds, serve {:.3} s",
        traced.len(),
        serve_ns as f64 / 1e9
    )];
    for (name, ns) in &ledger.lines {
        lines.push(format!(
            "ledger: {:<28} {:>8.3} s {:>6.2}%",
            name,
            *ns as f64 / 1e9,
            100.0 * *ns as f64 / serve_ns.max(1) as f64
        ));
    }
    lines.push(format!(
        "ledger: {:<28} {:>8.3} s {:>6.2}% ({} the {:.0}% tolerance)",
        "unattributed",
        ledger.unattributed_ns as f64 / 1e9,
        100.0 * ledger.unattributed_share(),
        if ledger.unattributed_share() <= UNATTRIBUTED_TOLERANCE {
            "within"
        } else {
            "over"
        },
        100.0 * UNATTRIBUTED_TOLERANCE
    ));
    for (group, prefixes) in LAYER_GROUPS {
        lines.push(format!(
            "ledger group: {:<44} {:>6.2}%",
            group,
            100.0 * ledger.share_of(prefixes)
        ));
    }
    let journal_ledger = Ledger::new(&journal.totals, journal.wall_ns);
    lines.push(format!(
        "journal: reference replay of {} requests to a file-backed WAL took {:.3} s, \
         journal.* {:.2}% of it (append {:.2}%, flush {:.2}%, reset {:.2}%)",
        journal.requests,
        journal.wall_ns as f64 / 1e9,
        100.0 * journal_ledger.share_of(&["journal."]),
        100.0 * journal_ledger.share_of(&["journal.append"]),
        100.0 * journal_ledger.share_of(&["journal.flush"]),
        100.0 * journal_ledger.share_of(&["journal.reset"]),
    ));
    (metrics, lines)
}

/// Writes spans as JSON lines.
fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("write {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"id\": {}}}",
            s.name, s.start_ns, s.end_ns, s.id
        )
        .map_err(fail)?;
    }
    out.flush().map_err(fail)
}
