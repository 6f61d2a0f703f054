//! The lockstep serve: one thread plays both the client and the edge's
//! driver, on a sim clock the benchmark owns.
//!
//! Requests whose generated arrival falls in one fixed sim-time turn
//! window are encoded and written together, then served by one
//! [`EdgeServer::poll`] at the window's end. Before each turn the server
//! is advanced through every instant its gateway reports due, so timed
//! work (dispatches, defer expiries, re-tests) runs at its own sim
//! instant. No wall-clock reading ever reaches the program, so the
//! verdicts are the same on every machine and every build; only the
//! timings differ.
//!
//! [`reference`] replays the identical schedule straight into a fresh
//! gateway through [`EdgeGateway::decide`]/[`EdgeGateway::drive`], which
//! is the verdict oracle every served round is checked against.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use rtdls_core::prelude::{SimTime, SubmitRequest};
use rtdls_edge::codec::{FrameDecoder, DEFAULT_MAX_FRAME};
use rtdls_edge::proto::{decode_server, encode_client};
use rtdls_edge::{ClientMsg, EdgeConfig, EdgeGateway, EdgeServer, EdgeStats, ServerMsg};
use rtdls_journal::prelude::{GatewaySnapshot, Recoverable};
use rtdls_service::prelude::{DecisionUpdate, MetricsSnapshot, ShardedGateway, Verdict};

use crate::probe::{Probed, Tracer};

/// Polls at one sim instant without the client's turn completing before
/// the round gives up on the rest of that turn (a wedged connection).
const MAX_STALLS: u32 = 1000;

/// Cap on due instants stepped after the last turn, per request served:
/// every parked task resolves within its deadline, so a healthy drain
/// needs a few steps per request at most.
const DRAIN_STEPS_PER_REQUEST: usize = 16;

/// A gateway's durable books, without wall-clock latency samples: what
/// two gateways that made the same decisions agree on.
pub fn books(gateway: &ShardedGateway) -> GatewaySnapshot {
    gateway.capture().normalized()
}

/// One turn: the requests `first..end` of the stream, served at `at`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Turn {
    /// The end of the turn's sim-time window.
    pub at: SimTime,
    /// First request index.
    pub first: usize,
    /// One past the last request index.
    pub end: usize,
}

/// Groups a stream (arrivals ascending) into turns of `width` sim
/// seconds; empty windows are skipped.
pub fn turns(requests: &[SubmitRequest], width: f64) -> Vec<Turn> {
    assert!(width > 0.0, "turn width must be positive");
    let mut out: Vec<Turn> = Vec::new();
    let mut window = None;
    for (i, request) in requests.iter().enumerate() {
        let k = (request.task.arrival.as_f64() / width).floor() as u64;
        if window == Some(k) {
            out.last_mut().expect("an open turn").end = i + 1;
        } else {
            window = Some(k);
            out.push(Turn {
                at: SimTime::new((k + 1) as f64 * width),
                first: i,
                end: i + 1,
            });
        }
    }
    out
}

/// Something with timed work the driver steps through.
trait Clocked {
    fn next_due(&self) -> Option<SimTime>;
    fn step(&mut self, at: SimTime);
}

/// Steps every due instant before `until` (all of them when `None`), at
/// most `cap` steps. Shared by the served driver and the reference, so
/// both step the gateway at exactly the same instants.
fn advance(clocked: &mut impl Clocked, now: &mut SimTime, until: Option<SimTime>, cap: usize) {
    let mut stepped_at = None;
    for _ in 0..cap {
        let Some(due) = clocked.next_due() else {
            return;
        };
        if until.is_some_and(|u| due >= u) {
            return;
        }
        let at = due.max(*now);
        if stepped_at == Some(at) {
            // A step at this instant left work due at it; another step
            // here would change nothing.
            return;
        }
        clocked.step(at);
        stepped_at = Some(at);
        *now = at;
    }
}

/// The verdict stream of the in-process reference run.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    /// One verdict per request, in stream order.
    pub verdicts: Vec<Verdict>,
    /// Every parked-task update, in emission order.
    pub updates: Vec<DecisionUpdate>,
    /// The sim instant the run ended at (the last step of the drain).
    pub end_at: SimTime,
}

struct RefDriver<G> {
    gateway: G,
    updates: Vec<DecisionUpdate>,
}

impl<G: EdgeGateway> Clocked for RefDriver<G> {
    fn next_due(&self) -> Option<SimTime> {
        self.gateway.next_due()
    }

    fn step(&mut self, at: SimTime) {
        self.gateway.drive(at);
        self.updates.extend(self.gateway.take_updates());
    }
}

/// Runs the lockstep schedule of `requests` straight into `gateway`, the
/// way the edge would serve it: arrival stamped with the turn instant,
/// each turn's decisions followed by one drive.
pub fn reference<G: EdgeGateway>(
    mut gateway: G,
    requests: &[SubmitRequest],
    width: f64,
) -> (Reference, G) {
    gateway.enable_observation();
    gateway.enable_explanations();
    let mut driver = RefDriver {
        gateway,
        updates: Vec::new(),
    };
    let mut verdicts = Vec::with_capacity(requests.len());
    let mut now = SimTime::ZERO;
    for turn in turns(requests, width) {
        advance(&mut driver, &mut now, Some(turn.at), usize::MAX);
        now = turn.at;
        for request in &requests[turn.first..turn.end] {
            let mut request = *request;
            request.task.arrival = now;
            verdicts.push(driver.gateway.decide(&request, now));
        }
        driver.step(now);
    }
    advance(
        &mut driver,
        &mut now,
        None,
        requests.len() * DRAIN_STEPS_PER_REQUEST,
    );
    let reference = Reference {
        verdicts,
        updates: driver.updates,
        end_at: now,
    };
    (reference, driver.gateway)
}

/// Why a client connection stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lost {
    /// The peer closed, reset or evicted the connection.
    Connection(String),
    /// The server stopped answering a turn.
    Stalled,
    /// The server sent a frame that does not decode.
    Protocol(String),
}

/// The benchmark's own client: non-blocking, never panics on the socket.
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded frames not yet written, and how much of them is written.
    out: Vec<u8>,
    written: usize,
    lost: Option<Lost>,
}

impl Client {
    /// Connects to `server` and completes the greeting, polling the
    /// server at sim time zero to accept.
    pub fn connect<G: EdgeGateway>(server: &mut EdgeServer<G>) -> std::io::Result<Self> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut client = Client {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
            out: Vec::new(),
            written: 0,
            lost: None,
        };
        client.queue(&ClientMsg::Hello {
            protocol: rtdls_edge::PROTOCOL_VERSION,
        });
        let mut greeted = false;
        for _ in 0..MAX_STALLS {
            server.poll(SimTime::ZERO);
            let written = client.flush();
            client.read();
            if let Some(lost) = &client.lost {
                return Err(std::io::Error::other(format!("{lost:?}")));
            }
            match client.next_msg() {
                Some(ServerMsg::Hello { protocol }) if protocol == rtdls_edge::PROTOCOL_VERSION => {
                    greeted = true;
                }
                Some(other) => {
                    return Err(std::io::Error::other(format!(
                        "unexpected greeting {other:?}"
                    )))
                }
                None => {}
            }
            if greeted && written {
                return Ok(client);
            }
        }
        Err(std::io::Error::other("no greeting from the server"))
    }

    fn queue(&mut self, msg: &ClientMsg) {
        self.out.extend_from_slice(&encode_client(msg));
    }

    /// Writes what the socket takes; `true` when nothing is left.
    fn flush(&mut self) -> bool {
        while self.lost.is_none() && self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => self.lost = Some(Lost::Connection("write returned 0".into())),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.lost = Some(Lost::Connection(e.to_string())),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        true
    }

    /// Pulls everything the socket holds into the decoder.
    fn read(&mut self) {
        let mut buf = [0u8; 64 * 1024];
        while self.lost.is_none() {
            match self.stream.read(&mut buf) {
                Ok(0) => self.lost = Some(Lost::Connection("closed by the server".into())),
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.lost = Some(Lost::Connection(e.to_string())),
            }
        }
    }

    /// The next complete server message, if one is buffered.
    fn next_msg(&mut self) -> Option<ServerMsg> {
        match self.decoder.next_frame_ref() {
            Ok(Some((_, payload))) => match decode_server(payload) {
                Ok(msg) => Some(msg),
                Err(e) => {
                    self.lost = Some(Lost::Protocol(e.to_string()));
                    None
                }
            },
            Ok(None) => None,
            Err(e) => {
                self.lost = Some(Lost::Protocol(e.to_string()));
                None
            }
        }
    }
}

/// A fresh edge over `gateway` with a connected benchmark client.
pub fn bind<G: EdgeGateway>(
    gateway: G,
    tracer: &Tracer,
    cfg: EdgeConfig,
) -> std::io::Result<(EdgeServer<Probed<G>>, Client)> {
    let mut server = EdgeServer::bind("127.0.0.1:0", Probed::new(gateway, tracer.clone()), cfg)?;
    let client = Client::connect(&mut server)?;
    Ok((server, client))
}

/// What one served round observed.
#[derive(Clone, Debug)]
pub struct Served {
    /// The verdict each request got, in stream order (`None`: unanswered).
    pub verdicts: Vec<Option<Verdict>>,
    /// Pushed updates, in arrival order.
    pub updates: Vec<DecisionUpdate>,
    /// Write-to-verdict latency of every answered submit, microseconds.
    pub latencies_us: Vec<f64>,
    /// Wall time of the whole serve phase, nanoseconds.
    pub serve_ns: u64,
    /// The sim instant the serve ended at (the last step of the drain).
    pub end_at: SimTime,
    /// `Error` frames received.
    pub errors: Vec<String>,
    /// Why the connection stopped early, if it did.
    pub lost: Option<Lost>,
    /// Turns served.
    pub turns: u64,
    /// Waiting-queue depth summed over turn starts.
    pub waiting_depth_sum: u64,
    /// Defer-queue depth summed over turn starts.
    pub deferred_depth_sum: u64,
    /// The edge's own counters at the end.
    pub edge: EdgeStats,
    /// The gateway's service metrics at the end.
    pub metrics: MetricsSnapshot,
}

impl Served {
    /// Submits attempted.
    pub fn attempted(&self) -> u64 {
        self.verdicts.len() as u64
    }

    /// Submits unanswered, refused (`Throttled`), or lost to a dropped
    /// connection.
    pub fn failed(&self) -> u64 {
        self.verdicts
            .iter()
            .filter(|v| matches!(v, None | Some(Verdict::Throttled)))
            .count() as u64
    }

    /// Submits admitted as the client sees them: an immediate `Accepted`,
    /// or a pushed activation or rescue.
    pub fn admitted(&self) -> u64 {
        let immediate = self
            .verdicts
            .iter()
            .filter(|v| matches!(v, Some(Verdict::Accepted)))
            .count();
        immediate as u64 + admitted_updates(&self.updates)
    }
}

/// Pushed updates that admit their task.
pub fn admitted_updates(updates: &[DecisionUpdate]) -> u64 {
    updates
        .iter()
        .filter(|u| match u {
            DecisionUpdate::Activated { admitted, .. } => *admitted,
            DecisionUpdate::Resolved { admitted, .. } => *admitted,
        })
        .count() as u64
}

struct Driver<'a> {
    server: &'a mut EdgeServer<Probed<ShardedGateway>>,
    client: &'a mut Client,
    tracer: &'a Tracer,
    served: Served,
    /// Write instant of the current turn's submits.
    written_at: Instant,
    /// Index of the current turn (span id).
    turn: u64,
}

impl Driver<'_> {
    fn poll(&mut self, now: SimTime) {
        let open = self.tracer.begin("edge.poll", self.turn);
        self.server.poll(now);
        self.tracer.end(open);
    }

    /// Reads the socket and files every complete message.
    fn receive(&mut self) {
        let open = self.tracer.begin("client.read", self.turn);
        self.client.read();
        self.tracer.end(open);
        loop {
            let open = self.tracer.begin("client.decode", self.turn);
            let Some(msg) = self.client.next_msg() else {
                self.tracer.end(open);
                return;
            };
            self.tracer.end(open);
            self.tracer.count("client.frames_decoded", 1);
            match msg {
                ServerMsg::Verdict { seq, verdict, .. } => {
                    let slot = usize::try_from(seq)
                        .ok()
                        .and_then(|i| self.served.verdicts.get_mut(i));
                    match slot {
                        Some(slot @ None) => {
                            *slot = Some(verdict);
                            self.served
                                .latencies_us
                                .push(self.written_at.elapsed().as_nanos() as f64 / 1e3);
                        }
                        _ => self
                            .served
                            .errors
                            .push(format!("verdict for unknown or answered seq {seq}")),
                    }
                }
                ServerMsg::Update { update } => self.served.updates.push(update),
                ServerMsg::Error { message, .. } => self.served.errors.push(message),
                ServerMsg::Hello { .. } | ServerMsg::OpsReport { .. } => {}
            }
        }
    }
}

impl Clocked for Driver<'_> {
    fn next_due(&self) -> Option<SimTime> {
        self.server.gateway().next_due()
    }

    fn step(&mut self, at: SimTime) {
        self.poll(at);
        self.receive();
    }
}

/// Serves `requests` in lockstep through `server`, as the connected
/// `client`. Never panics on the connection: a reset, eviction or stall
/// leaves the affected submits unanswered, which counts them as failed.
pub fn serve(
    server: &mut EdgeServer<Probed<ShardedGateway>>,
    client: &mut Client,
    requests: &[SubmitRequest],
    width: f64,
    tracer: &Tracer,
) -> Served {
    let mut driver = Driver {
        server,
        client,
        tracer,
        served: Served {
            verdicts: vec![None; requests.len()],
            updates: Vec::new(),
            latencies_us: Vec::with_capacity(requests.len()),
            serve_ns: 0,
            end_at: SimTime::ZERO,
            errors: Vec::new(),
            lost: None,
            turns: 0,
            waiting_depth_sum: 0,
            deferred_depth_sum: 0,
            edge: EdgeStats::default(),
            metrics: MetricsSnapshot::default(),
        },
        written_at: Instant::now(),
        turn: 0,
    };
    let plan = turns(requests, width);
    let started = Instant::now();
    let mut now = SimTime::ZERO;
    for (k, turn) in plan.iter().enumerate() {
        driver.turn = k as u64;
        advance(&mut driver, &mut now, Some(turn.at), usize::MAX);
        if driver.client.lost.is_some() {
            break;
        }
        now = turn.at;
        let gateway = driver.server.gateway().inner();
        driver.served.waiting_depth_sum += gateway.shard_queue_lens().iter().sum::<usize>() as u64;
        driver.served.deferred_depth_sum += gateway.deferred().len() as u64;
        driver.served.turns += 1;
        for (seq, request) in requests.iter().enumerate().take(turn.end).skip(turn.first) {
            let open = tracer.begin("client.encode", request.task.id.0);
            driver.client.queue(&ClientMsg::Submit {
                seq: seq as u64,
                request: *request,
            });
            tracer.end(open);
        }
        driver.written_at = Instant::now();
        let open = tracer.begin("client.write", driver.turn);
        let mut stalls = 0;
        while !driver.client.flush() && stalls < MAX_STALLS {
            // The socket is full: let the server read some of it. Only a
            // turn far larger than a socket buffer takes this path.
            driver.poll(now);
            stalls += 1;
        }
        tracer.end(open);
        driver.poll(now);
        driver.receive();
        let mut stalls = 0;
        while driver.served.verdicts[turn.first..turn.end]
            .iter()
            .any(Option::is_none)
        {
            if driver.client.lost.is_some() {
                break;
            }
            if stalls == MAX_STALLS {
                driver.client.lost = Some(Lost::Stalled);
                break;
            }
            driver.poll(now);
            driver.receive();
            stalls += 1;
        }
        if driver.client.lost.is_some() {
            break;
        }
    }
    if driver.client.lost.is_none() {
        advance(
            &mut driver,
            &mut now,
            None,
            requests.len() * DRAIN_STEPS_PER_REQUEST,
        );
    }
    let mut served = driver.served;
    served.serve_ns = started.elapsed().as_nanos() as u64;
    served.end_at = now;
    served.lost = client.lost.clone();
    served.edge = *server.stats();
    served.metrics = server.gateway().inner().metrics().snapshot();
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn small(workload: Workload, n: usize, seed: u64) -> Vec<SubmitRequest> {
        let mut requests = workload.requests(seed, 0);
        requests.truncate(n);
        requests
    }

    fn serve_plain(requests: &[SubmitRequest], width: f64, cfg: EdgeConfig) -> Served {
        let tracer = Tracer::off();
        let (mut server, mut client) = bind(Workload::gateway(), &tracer, cfg).expect("bind");
        serve(&mut server, &mut client, requests, width, &tracer)
    }

    #[test]
    fn turns_group_by_window_and_skip_empty_windows() {
        let requests = small(Workload::AcceptPath, 200, 3);
        let width = Workload::AcceptPath.turn_width();
        let plan = turns(&requests, width);
        assert_eq!(plan.first().unwrap().first, 0);
        assert_eq!(plan.last().unwrap().end, requests.len());
        for pair in plan.windows(2) {
            assert_eq!(pair[0].end, pair[1].first);
            assert!(pair[0].at < pair[1].at);
        }
        for turn in &plan {
            for r in &requests[turn.first..turn.end] {
                let a = r.task.arrival.as_f64();
                assert!(a < turn.at.as_f64() && a >= turn.at.as_f64() - width);
            }
        }
    }

    #[test]
    fn same_seed_same_verdicts_and_another_seed_differs() {
        let w = Workload::Overload;
        let run = |seed| reference(Workload::gateway(), &small(w, 600, seed), w.turn_width()).0;
        let a = run(11);
        assert_eq!(a, run(11));
        assert_ne!(a.verdicts, run(12).verdicts);
        assert!(a
            .verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Deferred { .. })));
    }

    #[test]
    fn served_verdicts_equal_the_in_process_reference() {
        let w = Workload::Overload;
        let requests = small(w, 400, 5);
        let (expected, _) = reference(Workload::gateway(), &requests, w.turn_width());
        let served = serve_plain(&requests, w.turn_width(), EdgeConfig::default());
        assert_eq!(served.failed(), 0);
        assert_eq!(served.lost, None);
        let verdicts: Vec<Verdict> = served.verdicts.iter().flatten().cloned().collect();
        assert_eq!(verdicts, expected.verdicts);
        assert_eq!(served.updates, expected.updates);
        assert_eq!(served.latencies_us.len(), requests.len());
    }

    #[test]
    fn an_evicted_connection_counts_failed_submits_without_panicking() {
        // A one-frame reply queue: the second submit of a turn is
        // throttled and the third gets the connection evicted.
        let w = Workload::AcceptPath;
        let requests = small(w, 300, 9);
        let cfg = EdgeConfig {
            write_queue_limit: 1,
            ..EdgeConfig::default()
        };
        let served = serve_plain(&requests, w.turn_width() * 8.0, cfg);
        assert!(served.lost.is_some(), "the edge evicts the client");
        assert!(served.failed() > 0);
        assert!(served.failed() <= served.attempted());
        assert_eq!(served.attempted(), requests.len() as u64);
    }
}
