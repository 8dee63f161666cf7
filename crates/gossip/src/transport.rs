//! Multi-process transport for the sharded simulation: one coordinator
//! plus N worker processes exchange length-prefixed binary frames over
//! `std::net` TCP, lifting the in-process scheduler's quantum-boundary
//! outbox drain onto real IPC without changing semantics.
//!
//! ## Why the distributed run is bit-identical to the in-process one
//!
//! Every worker replays the *full* deterministic network construction
//! (drift draws, topology, heartbeat stagger, fault timeline, workload
//! injection), so all per-peer RNG streams and event-key streams are
//! identical in every process; a worker simply drops enqueued events it
//! does not own. The coordinator then re-runs the exact round loop of
//! `ShardedScheduler::run_until` — same per-shard
//! heads, same `fill_horizons` call, same `t + 1`
//! cap, same fixed-shard-order outbox drain — with one difference that
//! cannot be observed: cross-worker events spend one round inside the
//! coordinator's pending buffers. The coordinator folds the minimum
//! pending fire time into its per-shard heads, so the heads, horizons,
//! and round boundaries it computes equal the in-process ones value for
//! value, and heap pop order over unique `(at, origin, seq)` keys is
//! insertion-order independent, so the extra hop cannot reorder
//! anything.
//!
//! ## Frame format
//!
//! `[u32 LE payload length][u8 tag][payload…]`, everything little
//! endian, no self-describing metadata (the protocol is fixed). The
//! codec sits on the shared `waku-wire` cursor and is total: any byte
//! string either decodes or returns a structured [`CodecError`] — never
//! a panic, never a read past the buffer, never an attacker-controlled
//! allocation (length fields are sanity-checked against the bytes
//! actually present).
//!
//! ## Protocol
//!
//! ```text
//! worker                          coordinator
//!   Hello{worker, workers}  ──▶
//!                           ◀──  Config(opaque scenario bytes)
//!   Ready{dist, cyc, heads} ──▶        (matrix cross-checked, heads merged)
//!   ┌─────────────────── per barrier round ───────────────────┐
//!                           ◀──  Round{horizons, events}
//!   RoundResult{processed,  ──▶        (heads refreshed, events routed)
//!               heads, events}
//!   └──────────────── until every head > t ───────────────────┘
//!                           ◀──  Finish
//!   Snapshot(metric bytes)  ──▶
//!   Report(fragment bytes)  ──▶
//! ```

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Child;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::{EventKey, QueuedEvent, SimEvent};
use crate::message::{Message, MessageId, PeerId, Rpc, SimTime, Topic, TrafficClass};
use crate::network::Network;
use crate::scheduler::{fill_horizons, worker_shard_range, FAR};
use waku_wire::{put_bytes, put_len, put_u32, put_u64, Reader};

/// Hard ceiling on a frame's payload length (256 MiB): a corrupted
/// length header is rejected before any allocation.
pub const MAX_FRAME_LEN: usize = 1 << 28;

pub use waku_wire::CodecError;

/// A distributed-run failure: I/O, codec, protocol violation, or a
/// worker process dying mid-run.
#[derive(Debug)]
pub enum TransportError {
    /// A socket operation failed.
    Io {
        /// What the coordinator/worker was doing (e.g. `"read RoundResult"`).
        stage: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A frame failed to decode.
    Codec(CodecError),
    /// The peer spoke the protocol wrong (unexpected frame, matrix
    /// mismatch, bad worker id).
    Protocol(String),
    /// A worker process exited before the run completed.
    WorkerExited {
        /// The worker's index.
        worker: usize,
        /// Its exit code, when one was observed.
        status: Option<i32>,
    },
    /// A deadline elapsed (handshake or round I/O).
    Timeout {
        /// What the coordinator was waiting for.
        stage: &'static str,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io { stage, source } => write!(f, "i/o failed at {stage}: {source}"),
            TransportError::Codec(e) => write!(f, "frame codec error: {e}"),
            TransportError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            TransportError::WorkerExited { worker, status } => match status {
                Some(code) => write!(f, "worker {worker} exited with status {code} mid-run"),
                None => write!(f, "worker {worker} exited mid-run"),
            },
            TransportError::Timeout { stage } => write!(f, "timed out waiting for {stage}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io { source, .. } => Some(source),
            TransportError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Codec(e)
    }
}

// ---------------------------------------------------------------------
// Wire representations of simulator events
// ---------------------------------------------------------------------

/// The event payload alphabet on the wire — mirrors the engine's
/// (crate-private) `SimEvent`, expressed over public message types so
/// external tests can construct arbitrary frames.
#[derive(Clone, Debug)]
pub enum WirePayload {
    /// An RPC delivery from `from`.
    Rpc {
        /// Sending peer.
        from: PeerId,
        /// The RPC.
        rpc: Rpc,
    },
    /// A heartbeat tick.
    Heartbeat,
    /// A scheduled local publish.
    Publish {
        /// Target topic.
        topic: Topic,
        /// Payload bytes.
        data: Vec<u8>,
        /// Accounting class.
        class: TrafficClass,
    },
    /// A peer restart (fault plane).
    Restart,
    /// A clock-skew step (fault plane).
    ClockSkew {
        /// Signed drift delta (ms).
        delta_ms: i64,
    },
}

/// One queued simulator event on the wire: the `(at, origin, seq)` key,
/// the target peer, and the payload.
#[derive(Clone, Debug)]
pub struct WireEvent {
    /// Fire time (ms).
    pub at: SimTime,
    /// Origin peer of the event key.
    pub origin: PeerId,
    /// Origin-local sequence of the event key.
    pub seq: u64,
    /// Peer the event is dispatched to.
    pub target: PeerId,
    /// The event payload.
    pub payload: WirePayload,
}

impl WireEvent {
    pub(crate) fn from_queued(ev: QueuedEvent) -> WireEvent {
        let payload = match ev.event {
            SimEvent::Rpc { from, rpc } => WirePayload::Rpc { from, rpc },
            SimEvent::Heartbeat => WirePayload::Heartbeat,
            SimEvent::Publish { topic, data, class } => WirePayload::Publish { topic, data, class },
            SimEvent::Restart => WirePayload::Restart,
            SimEvent::ClockSkew { delta_ms } => WirePayload::ClockSkew { delta_ms },
        };
        WireEvent {
            at: ev.key.at,
            origin: ev.key.origin,
            seq: ev.key.seq,
            target: ev.target,
            payload,
        }
    }

    pub(crate) fn into_queued(self) -> QueuedEvent {
        let event = match self.payload {
            WirePayload::Rpc { from, rpc } => SimEvent::Rpc { from, rpc },
            WirePayload::Heartbeat => SimEvent::Heartbeat,
            WirePayload::Publish { topic, data, class } => SimEvent::Publish { topic, data, class },
            WirePayload::Restart => SimEvent::Restart,
            WirePayload::ClockSkew { delta_ms } => SimEvent::ClockSkew { delta_ms },
        };
        QueuedEvent {
            key: EventKey {
                at: self.at,
                origin: self.origin,
                seq: self.seq,
            },
            target: self.target,
            event,
        }
    }
}

/// The coordinator–worker protocol alphabet (see the module docs for
/// the exchange sequence).
#[derive(Clone, Debug)]
pub enum Frame {
    /// Worker → coordinator: identify.
    Hello {
        /// This worker's index.
        worker: u32,
        /// Total worker count the worker was launched with.
        workers: u32,
    },
    /// Coordinator → worker: the opaque scenario configuration bytes.
    Config(Vec<u8>),
    /// Worker → coordinator: construction finished. Carries the full
    /// shard-latency matrix (cross-checked for equality across workers)
    /// and the initial heads of the worker's owned shards.
    Ready {
        /// Row-major `shards²` shortest-path matrix.
        dist: Vec<SimTime>,
        /// Per-shard minimum round-trips (`shards` entries).
        cyc: Vec<SimTime>,
        /// Initial earliest pending time per owned shard.
        heads: Vec<SimTime>,
    },
    /// Coordinator → worker: run one barrier round.
    Round {
        /// Dispatch horizons for the worker's owned shards.
        horizons: Vec<SimTime>,
        /// Cross-worker events that arrived for this worker's shards.
        events: Vec<WireEvent>,
    },
    /// Worker → coordinator: round outcome.
    RoundResult {
        /// Events dispatched this round.
        processed: u64,
        /// Post-dispatch earliest pending time per owned shard.
        heads: Vec<SimTime>,
        /// Events bound for other workers' shards.
        events: Vec<WireEvent>,
    },
    /// Coordinator → worker: the run is over; send results.
    Finish,
    /// Worker → coordinator: wire-encoded metrics snapshot.
    Snapshot(Vec<u8>),
    /// Worker → coordinator: opaque per-worker report fragment.
    Report(Vec<u8>),
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

const TAG_HELLO: u8 = 1;
const TAG_CONFIG: u8 = 2;
const TAG_READY: u8 = 3;
const TAG_ROUND: u8 = 4;
const TAG_ROUND_RESULT: u8 = 5;
const TAG_FINISH: u8 = 6;
const TAG_SNAPSHOT: u8 = 7;
const TAG_REPORT: u8 = 8;

fn put_times(out: &mut Vec<u8>, times: &[SimTime]) {
    put_len(out, times.len());
    for &t in times {
        put_u64(out, t);
    }
}

fn put_ids(out: &mut Vec<u8>, ids: &[MessageId]) {
    put_len(out, ids.len());
    for id in ids {
        out.extend_from_slice(&id.0);
    }
}

fn class_tag(class: TrafficClass) -> u8 {
    match class {
        TrafficClass::Honest => 0,
        TrafficClass::Spam => 1,
        TrafficClass::Invalid => 2,
    }
}

fn put_message(out: &mut Vec<u8>, m: &Message) {
    out.extend_from_slice(&m.id.0);
    put_u32(out, m.topic);
    put_u64(out, m.origin as u64);
    put_u64(out, m.seq);
    out.push(class_tag(m.class));
    put_u64(out, m.published_at);
    put_bytes(out, &m.data);
}

fn put_rpc(out: &mut Vec<u8>, rpc: &Rpc) {
    match rpc {
        Rpc::Publish(m) => {
            out.push(0);
            put_message(out, m);
        }
        Rpc::IHave(topic, ids) => {
            out.push(1);
            put_u32(out, *topic);
            put_ids(out, ids);
        }
        Rpc::IWant(ids) => {
            out.push(2);
            put_ids(out, ids);
        }
        Rpc::Graft(topic) => {
            out.push(3);
            put_u32(out, *topic);
        }
        Rpc::Prune(topic) => {
            out.push(4);
            put_u32(out, *topic);
        }
    }
}

fn put_event(out: &mut Vec<u8>, ev: &WireEvent) {
    put_u64(out, ev.at);
    put_u64(out, ev.origin as u64);
    put_u64(out, ev.seq);
    put_u64(out, ev.target as u64);
    match &ev.payload {
        WirePayload::Rpc { from, rpc } => {
            out.push(0);
            put_u64(out, *from as u64);
            put_rpc(out, rpc);
        }
        WirePayload::Heartbeat => out.push(1),
        WirePayload::Publish { topic, data, class } => {
            out.push(2);
            put_u32(out, *topic);
            out.push(class_tag(*class));
            put_bytes(out, data);
        }
        WirePayload::Restart => out.push(3),
        WirePayload::ClockSkew { delta_ms } => {
            out.push(4);
            put_u64(out, *delta_ms as u64);
        }
    }
}

fn put_events(out: &mut Vec<u8>, events: &[WireEvent]) {
    put_len(out, events.len());
    for ev in events {
        put_event(out, ev);
    }
}

fn read_times(r: &mut Reader) -> Result<Vec<SimTime>, CodecError> {
    (0..r.count(8)?).map(|_| r.u64()).collect()
}

fn read_ids(r: &mut Reader) -> Result<Vec<MessageId>, CodecError> {
    (0..r.count(32)?)
        .map(|_| Ok(MessageId(r.array()?)))
        .collect()
}

fn read_class(r: &mut Reader) -> Result<TrafficClass, CodecError> {
    match r.u8()? {
        0 => Ok(TrafficClass::Honest),
        1 => Ok(TrafficClass::Spam),
        2 => Ok(TrafficClass::Invalid),
        t => Err(CodecError::BadTag(t)),
    }
}

fn read_message(r: &mut Reader) -> Result<Message, CodecError> {
    let id = MessageId(r.array()?);
    let topic = r.u32()?;
    let origin = r.u64()? as PeerId;
    let seq = r.u64()?;
    let class = read_class(r)?;
    let published_at = r.u64()?;
    let data: Arc<[u8]> = r.bytes()?.into();
    Ok(Message {
        id,
        topic,
        data,
        origin,
        seq,
        class,
        published_at,
    })
}

fn read_rpc(r: &mut Reader) -> Result<Rpc, CodecError> {
    match r.u8()? {
        0 => Ok(Rpc::Publish(Arc::new(read_message(r)?))),
        1 => {
            let topic = r.u32()?;
            Ok(Rpc::IHave(topic, read_ids(r)?.into()))
        }
        2 => Ok(Rpc::IWant(read_ids(r)?)),
        3 => Ok(Rpc::Graft(r.u32()?)),
        4 => Ok(Rpc::Prune(r.u32()?)),
        t => Err(CodecError::BadTag(t)),
    }
}

fn read_event(r: &mut Reader) -> Result<WireEvent, CodecError> {
    let at = r.u64()?;
    let origin = r.u64()? as PeerId;
    let seq = r.u64()?;
    let target = r.u64()? as PeerId;
    let payload = match r.u8()? {
        0 => WirePayload::Rpc {
            from: r.u64()? as PeerId,
            rpc: read_rpc(r)?,
        },
        1 => WirePayload::Heartbeat,
        2 => WirePayload::Publish {
            topic: r.u32()?,
            class: read_class(r)?,
            data: r.bytes()?.to_vec(),
        },
        3 => WirePayload::Restart,
        4 => WirePayload::ClockSkew {
            delta_ms: r.u64()? as i64,
        },
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(WireEvent {
        at,
        origin,
        seq,
        target,
        payload,
    })
}

fn read_events(r: &mut Reader) -> Result<Vec<WireEvent>, CodecError> {
    // Smallest event: key + target (32 bytes) + payload tag.
    (0..r.count(33)?).map(|_| read_event(r)).collect()
}

impl Frame {
    /// Encodes the frame, length prefix included — the exact bytes
    /// [`write_frame`] puts on the socket.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; 4];
        match self {
            Frame::Hello { worker, workers } => {
                out.push(TAG_HELLO);
                put_u32(&mut out, *worker);
                put_u32(&mut out, *workers);
            }
            Frame::Config(bytes) => {
                out.push(TAG_CONFIG);
                put_bytes(&mut out, bytes);
            }
            Frame::Ready { dist, cyc, heads } => {
                out.push(TAG_READY);
                put_times(&mut out, dist);
                put_times(&mut out, cyc);
                put_times(&mut out, heads);
            }
            Frame::Round { horizons, events } => {
                out.push(TAG_ROUND);
                put_times(&mut out, horizons);
                put_events(&mut out, events);
            }
            Frame::RoundResult {
                processed,
                heads,
                events,
            } => {
                out.push(TAG_ROUND_RESULT);
                put_u64(&mut out, *processed);
                put_times(&mut out, heads);
                put_events(&mut out, events);
            }
            Frame::Finish => out.push(TAG_FINISH),
            Frame::Snapshot(bytes) => {
                out.push(TAG_SNAPSHOT);
                put_bytes(&mut out, bytes);
            }
            Frame::Report(bytes) => {
                out.push(TAG_REPORT);
                put_bytes(&mut out, bytes);
            }
        }
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Decodes the payload of one frame (the bytes *after* the length
    /// prefix). Total: every input returns a frame or a [`CodecError`].
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, CodecError> {
        let mut r = Reader::new(payload);
        let frame = match r.u8()? {
            TAG_HELLO => Frame::Hello {
                worker: r.u32()?,
                workers: r.u32()?,
            },
            TAG_CONFIG => Frame::Config(r.bytes()?.to_vec()),
            TAG_READY => Frame::Ready {
                dist: read_times(&mut r)?,
                cyc: read_times(&mut r)?,
                heads: read_times(&mut r)?,
            },
            TAG_ROUND => Frame::Round {
                horizons: read_times(&mut r)?,
                events: read_events(&mut r)?,
            },
            TAG_ROUND_RESULT => Frame::RoundResult {
                processed: r.u64()?,
                heads: read_times(&mut r)?,
                events: read_events(&mut r)?,
            },
            TAG_FINISH => Frame::Finish,
            TAG_SNAPSHOT => Frame::Snapshot(r.bytes()?.to_vec()),
            TAG_REPORT => Frame::Report(r.bytes()?.to_vec()),
            t => return Err(CodecError::BadTag(t)),
        };
        r.finish()?;
        Ok(frame)
    }

    /// One-shot decode of a complete frame (length prefix included).
    /// Returns the frame and the bytes consumed. An incomplete buffer is
    /// [`CodecError::Truncated`]; a length header above
    /// [`MAX_FRAME_LEN`] is [`CodecError::Oversized`].
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), CodecError> {
        let mut r = Reader::new(buf);
        let len = frame_len(r.array()?)?;
        let frame = Frame::decode_payload(r.take(len)?)?;
        Ok((frame, 4 + len))
    }
}

/// The payload length a 4-byte frame header announces; anything above
/// [`MAX_FRAME_LEN`] is corruption, not "need more data".
fn frame_len(header: [u8; 4]) -> Result<usize, CodecError> {
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(CodecError::Oversized);
    }
    Ok(len)
}

/// Incremental frame decoder for a byte stream arriving in arbitrary
/// chunks (partial writes, TCP segmentation): [`FrameDecoder::feed`]
/// appends bytes, [`FrameDecoder::next_frame`] yields complete frames.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: drop consumed bytes before growing the buffer.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, `Ok(None)` when more bytes are needed.
    /// Unlike [`Frame::decode`], an incomplete buffer is *not* an error
    /// here — only corruption inside a complete frame is.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, CodecError> {
        let mut r = Reader::new(&self.buf[self.pos..]);
        let Ok(header) = r.array() else {
            return Ok(None);
        };
        let len = frame_len(header)?;
        let Ok(payload) = r.take(len) else {
            return Ok(None);
        };
        let frame = Frame::decode_payload(payload)?;
        self.pos += 4 + len;
        Ok(Some(frame))
    }
}

/// Writes one frame to the stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())
}

/// Reads one complete frame from the stream (blocking, honoring any
/// read timeout set on it). The payload buffer grows with the bytes
/// actually received — at most 64 KiB is reserved on the header's say-so
/// — so a peer announcing [`MAX_FRAME_LEN`] and sending nothing costs
/// nothing.
pub fn read_frame(r: &mut impl Read, stage: &'static str) -> Result<Frame, TransportError> {
    let io = |source| TransportError::Io { stage, source };
    let mut header = [0u8; 4];
    r.read_exact(&mut header).map_err(io)?;
    let len = frame_len(header)?;
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    let got = r
        .by_ref()
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(io)?;
    if got < len {
        return Err(io(std::io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(Frame::decode_payload(&payload)?)
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// The contiguous peer range owned by `worker` — the worker's shard
/// range times the peers-per-shard chunk, re-derived through the exact
/// scheduler layout (`ShardedScheduler` and the
/// worker scheduler share it), so driver layers can partition per-peer
/// work without duplicating the formula.
pub fn worker_peer_range(
    peers: usize,
    shards: usize,
    workers: usize,
    worker: usize,
) -> std::ops::Range<usize> {
    let (chunk, shards) = crate::scheduler::shard_layout(peers, shards);
    let range = worker_shard_range(shards, workers, worker);
    (range.start * chunk).min(peers)..(range.end * chunk).min(peers)
}

/// Coordinator-side deadlines.
#[derive(Clone, Copy, Debug)]
pub struct CoordinatorOptions {
    /// How long workers get to connect, identify, construct their
    /// networks, and send `Ready`.
    pub handshake_timeout: Duration,
    /// Per-read timeout inside the round loop and result collection.
    pub io_timeout: Duration,
}

impl Default for CoordinatorOptions {
    fn default() -> Self {
        CoordinatorOptions {
            handshake_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(120),
        }
    }
}

/// Drive parameters for one distributed run — everything the
/// coordinator needs that is not learned from `Ready` frames.
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    /// Total peer count (fixes the peer→shard mapping).
    pub peers: usize,
    /// Total shard count (the in-process layout's `shard_layout` count).
    pub shards: usize,
    /// Run the event loop until (at least) this network time.
    pub until: SimTime,
}

/// A finished distributed run, in fixed worker order.
#[derive(Debug)]
pub struct RunOutcome {
    /// Barrier rounds executed (the distributed `barriers()` figure).
    pub rounds: u64,
    /// Total events dispatched across all workers.
    pub events_processed: u64,
    /// Per-worker wire-encoded metric snapshots.
    pub snapshots: Vec<Vec<u8>>,
    /// Per-worker opaque report fragments.
    pub reports: Vec<Vec<u8>>,
}

/// The multi-process scheduler's coordinator half: accepts N worker
/// connections, replays the in-process round loop over the sockets
/// (heads → horizons → round → outbox routing), and collects the final
/// snapshot/report frames. Owns the spawned worker processes: any
/// failure kills them all before returning, so a failed run leaves no
/// orphans and emits no partial results.
pub struct DistributedScheduler {
    listener: TcpListener,
    options: CoordinatorOptions,
    workers: usize,
    children: Vec<Child>,
}

impl DistributedScheduler {
    /// Binds a loopback listener for `workers` workers.
    pub fn bind(workers: usize, options: CoordinatorOptions) -> Result<Self, TransportError> {
        assert!(workers >= 1, "need at least one worker");
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(|source| TransportError::Io {
                stage: "bind coordinator listener",
                source,
            })?;
        Ok(DistributedScheduler {
            listener,
            options,
            workers,
            children: Vec::new(),
        })
    }

    /// The listener's port — export it to workers before spawning them.
    pub fn port(&self) -> u16 {
        self.listener
            .local_addr()
            .map(|a| a.port())
            .expect("listener has a local addr")
    }

    /// Registers a spawned worker process for supervision. Children are
    /// killed on any run error and reaped on success.
    pub fn attach_child(&mut self, child: Child) {
        self.children.push(child);
    }

    /// Runs the full protocol: handshake, round loop, result
    /// collection. See the module docs for the equivalence argument.
    pub fn run(
        &mut self,
        params: RunParams,
        config_bytes: &[u8],
    ) -> Result<RunOutcome, TransportError> {
        let result = self.run_inner(params, config_bytes);
        if result.is_err() {
            self.kill_children();
        }
        result
    }

    fn run_inner(
        &mut self,
        params: RunParams,
        config_bytes: &[u8],
    ) -> Result<RunOutcome, TransportError> {
        let workers = self.workers;
        // Re-derive the layout exactly as `WorkerScheduler::new` does so
        // the peer→shard→worker mapping matches byte for byte.
        let (chunk, shards) = crate::scheduler::shard_layout(params.peers, params.shards);
        let ranges: Vec<std::ops::Range<usize>> = (0..workers)
            .map(|w| worker_shard_range(shards, workers, w))
            .collect();
        let mut owner_of = vec![0usize; shards];
        for (w, range) in ranges.iter().enumerate() {
            for shard in range.clone() {
                owner_of[shard] = w;
            }
        }

        let mut streams = self.handshake(config_bytes)?;

        // Collect Ready frames: cross-check the latency matrix, merge
        // initial heads.
        let mut dist: Option<Vec<SimTime>> = None;
        let mut cyc: Option<Vec<SimTime>> = None;
        let mut heads = vec![FAR; shards];
        for (w, stream) in streams.iter_mut().enumerate() {
            stream
                .set_read_timeout(Some(self.options.handshake_timeout))
                .map_err(|source| TransportError::Io {
                    stage: "set handshake timeout",
                    source,
                })?;
            let frame = self.read_worker_frame(stream, w, "read Ready")?;
            let Frame::Ready {
                dist: d,
                cyc: c,
                heads: h,
            } = frame
            else {
                return Err(TransportError::Protocol(format!(
                    "worker {w}: expected Ready"
                )));
            };
            if d.len() != shards * shards || c.len() != shards || h.len() != ranges[w].len() {
                return Err(TransportError::Protocol(format!(
                    "worker {w}: Ready dimensions mismatch"
                )));
            }
            match (&dist, &cyc) {
                (None, _) => {
                    dist = Some(d);
                    cyc = Some(c);
                }
                (Some(d0), Some(c0)) => {
                    if *d0 != d || *c0 != c {
                        return Err(TransportError::Protocol(format!(
                            "worker {w}: shard latency matrix differs from worker 0 \
                             (non-deterministic construction?)"
                        )));
                    }
                }
                _ => unreachable!("dist and cyc are set together"),
            }
            heads[ranges[w].clone()].copy_from_slice(&h);
        }
        let dist = dist.expect("at least one worker");
        let cyc = cyc.expect("at least one worker");

        for stream in &streams {
            stream
                .set_read_timeout(Some(self.options.io_timeout))
                .map_err(|source| TransportError::Io {
                    stage: "set round timeout",
                    source,
                })?;
        }

        // The round loop — the socket-borne twin of
        // `ShardedScheduler::run_until`. `heads` here is the *effective*
        // head per shard: the worker-reported queue head folded with the
        // earliest cross-worker event still parked in `pending`.
        let mut pending: Vec<Vec<WireEvent>> = (0..workers).map(|_| Vec::new()).collect();
        let mut horizons = vec![0u64; shards];
        let mut rounds = 0u64;
        let mut events_processed = 0u64;
        while let Some(&start) = heads.iter().min() {
            if start > params.until {
                break;
            }
            fill_horizons(&dist, &cyc, &heads, params.until, &mut horizons);
            // Write every Round frame before reading any result: workers
            // run their shards concurrently, and neither side blocks on
            // the other mid-round (workers read one frame, then write
            // one frame).
            for (w, stream) in streams.iter_mut().enumerate() {
                let frame = Frame::Round {
                    horizons: horizons[ranges[w].clone()].to_vec(),
                    events: std::mem::take(&mut pending[w]),
                };
                write_frame(stream, &frame).map_err(|source| TransportError::Io {
                    stage: "write Round",
                    source,
                })?;
            }
            rounds += 1;
            // Collect every result before routing: a later worker's
            // reported heads must not clobber an earlier worker's
            // cross-shard fold.
            let mut crossing: Vec<WireEvent> = Vec::new();
            for w in 0..workers {
                let frame = {
                    let stream = &mut streams[w];
                    self.read_worker_frame(stream, w, "read RoundResult")?
                };
                let Frame::RoundResult {
                    processed,
                    heads: h,
                    events,
                } = frame
                else {
                    return Err(TransportError::Protocol(format!(
                        "worker {w}: expected RoundResult"
                    )));
                };
                if h.len() != ranges[w].len() {
                    return Err(TransportError::Protocol(format!(
                        "worker {w}: RoundResult head count mismatch"
                    )));
                }
                events_processed += processed;
                heads[ranges[w].clone()].copy_from_slice(&h);
                crossing.extend(events);
            }
            // Route cross-worker events (worker order == fixed shard
            // order, since shard ranges are contiguous) and fold each
            // fire time into its target shard's effective head — the
            // in-process run would have pushed the event into that
            // shard's queue at this same barrier.
            for ev in crossing {
                let shard = (ev.target / chunk).min(shards - 1);
                if ev.at < heads[shard] {
                    heads[shard] = ev.at;
                }
                pending[owner_of[shard]].push(ev);
            }
        }

        // Finish: collect snapshots and reports in fixed worker order.
        let mut snapshots = Vec::with_capacity(workers);
        let mut reports = Vec::with_capacity(workers);
        for (w, stream) in streams.iter_mut().enumerate() {
            write_frame(stream, &Frame::Finish).map_err(|source| TransportError::Io {
                stage: "write Finish",
                source,
            })?;
            let frame = self.read_worker_frame(stream, w, "read Snapshot")?;
            let Frame::Snapshot(bytes) = frame else {
                return Err(TransportError::Protocol(format!(
                    "worker {w}: expected Snapshot"
                )));
            };
            snapshots.push(bytes);
            let frame = self.read_worker_frame(stream, w, "read Report")?;
            let Frame::Report(bytes) = frame else {
                return Err(TransportError::Protocol(format!(
                    "worker {w}: expected Report"
                )));
            };
            reports.push(bytes);
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        self.children.clear();
        Ok(RunOutcome {
            rounds,
            events_processed,
            snapshots,
            reports,
        })
    }

    /// Accept + Hello/Config exchange for every worker, with a shared
    /// deadline. Polls non-blockingly so a worker that died before
    /// connecting is reported as [`TransportError::WorkerExited`] rather
    /// than a timeout.
    fn handshake(&mut self, config_bytes: &[u8]) -> Result<Vec<TcpStream>, TransportError> {
        let deadline = Instant::now() + self.options.handshake_timeout;
        self.listener
            .set_nonblocking(true)
            .map_err(|source| TransportError::Io {
                stage: "set listener nonblocking",
                source,
            })?;
        let mut slots: Vec<Option<TcpStream>> = (0..self.workers).map(|_| None).collect();
        let mut connected = 0usize;
        while connected < self.workers {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .and_then(|_| stream.set_nodelay(true))
                        .and_then(|_| {
                            let remaining = deadline
                                .saturating_duration_since(Instant::now())
                                .max(Duration::from_millis(1));
                            stream.set_read_timeout(Some(remaining))
                        })
                        .map_err(|source| TransportError::Io {
                            stage: "configure worker socket",
                            source,
                        })?;
                    let frame = read_frame(&mut stream, "read Hello")?;
                    let Frame::Hello { worker, workers } = frame else {
                        return Err(TransportError::Protocol("expected Hello".into()));
                    };
                    let worker = worker as usize;
                    if workers as usize != self.workers || worker >= self.workers {
                        return Err(TransportError::Protocol(format!(
                            "Hello claims worker {worker} of {workers}, expected {} workers",
                            self.workers
                        )));
                    }
                    if slots[worker].is_some() {
                        return Err(TransportError::Protocol(format!(
                            "worker {worker} connected twice"
                        )));
                    }
                    write_frame(&mut stream, &Frame::Config(config_bytes.to_vec())).map_err(
                        |source| TransportError::Io {
                            stage: "write Config",
                            source,
                        },
                    )?;
                    slots[worker] = Some(stream);
                    connected += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Timeout {
                            stage: "worker handshake",
                        });
                    }
                    self.check_children()?;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(source) => {
                    return Err(TransportError::Io {
                        stage: "accept worker",
                        source,
                    })
                }
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all connected"))
            .collect())
    }

    /// Reads a frame from worker `w`, attributing read failures to a
    /// dead worker process when one is observed.
    fn read_worker_frame(
        &mut self,
        stream: &mut TcpStream,
        worker: usize,
        stage: &'static str,
    ) -> Result<Frame, TransportError> {
        match read_frame(stream, stage) {
            Ok(frame) => Ok(frame),
            Err(err) => {
                if let Some(child) = self.children.get_mut(worker) {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(TransportError::WorkerExited {
                            worker,
                            status: status.code(),
                        });
                    }
                }
                if let TransportError::Io { source, .. } = &err {
                    if matches!(
                        source.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) {
                        return Err(TransportError::Timeout { stage });
                    }
                }
                Err(err)
            }
        }
    }

    /// Any attached child already exited → [`TransportError::WorkerExited`].
    fn check_children(&mut self) -> Result<(), TransportError> {
        for (worker, child) in self.children.iter_mut().enumerate() {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(TransportError::WorkerExited {
                    worker,
                    status: status.code(),
                });
            }
        }
        Ok(())
    }

    fn kill_children(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for DistributedScheduler {
    fn drop(&mut self) {
        self.kill_children();
    }
}

// ---------------------------------------------------------------------
// Worker session
// ---------------------------------------------------------------------

/// Worker-side knobs (fault-injection hooks for the negative-path
/// tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerOptions {
    /// Exit the process (status 3) after completing this many rounds
    /// *without* replying — simulates a worker crashing mid-quantum.
    pub exit_after_rounds: Option<u64>,
}

/// The worker half of the protocol: connects, identifies, receives the
/// opaque config, then executes coordinator-driven rounds against a
/// [`Network`] built with [`Network::new_worker`].
pub struct WorkerSession {
    stream: TcpStream,
    options: WorkerOptions,
}

impl WorkerSession {
    /// Connects to the coordinator, sends `Hello`, and returns the
    /// session plus the scenario config bytes from the `Config` frame.
    pub fn connect(
        addr: &str,
        worker: usize,
        workers: usize,
        options: WorkerOptions,
    ) -> Result<(Self, Vec<u8>), TransportError> {
        let mut stream = TcpStream::connect(addr).map_err(|source| TransportError::Io {
            stage: "connect to coordinator",
            source,
        })?;
        stream
            .set_nodelay(true)
            .map_err(|source| TransportError::Io {
                stage: "configure coordinator socket",
                source,
            })?;
        write_frame(
            &mut stream,
            &Frame::Hello {
                worker: worker as u32,
                workers: workers as u32,
            },
        )
        .map_err(|source| TransportError::Io {
            stage: "write Hello",
            source,
        })?;
        let frame = read_frame(&mut stream, "read Config")?;
        let Frame::Config(bytes) = frame else {
            return Err(TransportError::Protocol("expected Config".into()));
        };
        Ok((WorkerSession { stream, options }, bytes))
    }

    /// Announces readiness and executes rounds until the coordinator
    /// sends `Finish`. `net` must have been built with
    /// [`Network::new_worker`] and have its workload fully scheduled.
    pub fn run(&mut self, net: &mut Network, until: SimTime) -> Result<(), TransportError> {
        let worker = net
            .scheduler
            .as_worker()
            .expect("WorkerSession::run requires a Network built by new_worker");
        let (dist, cyc, heads) = (
            worker.dist().to_vec(),
            worker.cyc().to_vec(),
            worker.heads(),
        );
        write_frame(&mut self.stream, &Frame::Ready { dist, cyc, heads }).map_err(|source| {
            TransportError::Io {
                stage: "write Ready",
                source,
            }
        })?;
        let mut rounds_done = 0u64;
        loop {
            let frame = read_frame(&mut self.stream, "read Round")?;
            match frame {
                Frame::Round { horizons, events } => {
                    let worker = net.scheduler.as_worker().expect("worker scheduler");
                    for ev in events {
                        worker.inject(ev.into_queued());
                    }
                    let (processed, outbox) = {
                        let config = &net.config;
                        // Split borrow: scheduler and slots are distinct
                        // fields, but `as_worker` ties them through
                        // `net`; re-borrow via the struct fields.
                        let Network {
                            scheduler, slots, ..
                        } = net;
                        let worker = scheduler.as_worker().expect("worker scheduler");
                        worker.round(slots, config, &horizons)
                    };
                    net.events_processed += processed;
                    rounds_done += 1;
                    if self
                        .options
                        .exit_after_rounds
                        .is_some_and(|n| rounds_done >= n)
                    {
                        // Crash mid-quantum: work done, reply never sent.
                        std::process::exit(3);
                    }
                    let worker = net.scheduler.as_worker().expect("worker scheduler");
                    let heads = worker.heads();
                    let events = outbox.into_iter().map(WireEvent::from_queued).collect();
                    write_frame(
                        &mut self.stream,
                        &Frame::RoundResult {
                            processed,
                            heads,
                            events,
                        },
                    )
                    .map_err(|source| TransportError::Io {
                        stage: "write RoundResult",
                        source,
                    })?;
                }
                Frame::Finish => {
                    net.now = net.now.max(until);
                    return Ok(());
                }
                other => {
                    return Err(TransportError::Protocol(format!(
                        "expected Round or Finish, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Sends the final `Snapshot` and `Report` frames.
    pub fn send_results(&mut self, snapshot: &[u8], report: &[u8]) -> Result<(), TransportError> {
        write_frame(&mut self.stream, &Frame::Snapshot(snapshot.to_vec())).map_err(|source| {
            TransportError::Io {
                stage: "write Snapshot",
                source,
            }
        })?;
        write_frame(&mut self.stream, &Frame::Report(report.to_vec())).map_err(|source| {
            TransportError::Io {
                stage: "write Report",
                source,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &Frame) -> Frame {
        let bytes = frame.encode();
        let (decoded, consumed) = Frame::decode(&bytes).expect("round trip");
        assert_eq!(consumed, bytes.len());
        // Re-encoding must be byte-stable (the proptest suite leans on
        // this as its equality oracle).
        assert_eq!(decoded.encode(), bytes);
        decoded
    }

    #[test]
    fn frames_round_trip() {
        let msg = Message::new(7, vec![1, 2, 3], 4, 5, TrafficClass::Spam);
        let frames = vec![
            Frame::Hello {
                worker: 3,
                workers: 8,
            },
            Frame::Config(vec![9, 9, 9]),
            Frame::Ready {
                dist: vec![0, 20, 20, 0],
                cyc: vec![40, 40],
                heads: vec![123],
            },
            Frame::Round {
                horizons: vec![5_000, 5_001],
                events: vec![
                    WireEvent {
                        at: 10,
                        origin: 1,
                        seq: 2,
                        target: 3,
                        payload: WirePayload::Rpc {
                            from: 1,
                            rpc: Rpc::Publish(Arc::new(msg.clone())),
                        },
                    },
                    WireEvent {
                        at: 11,
                        origin: 2,
                        seq: 0,
                        target: 2,
                        payload: WirePayload::ClockSkew { delta_ms: -500 },
                    },
                ],
            },
            Frame::RoundResult {
                processed: 42,
                heads: vec![6_000],
                events: vec![WireEvent {
                    at: 12,
                    origin: 0,
                    seq: 9,
                    target: 5,
                    payload: WirePayload::Rpc {
                        from: 0,
                        rpc: Rpc::IHave(7, vec![msg.id, msg.id].into()),
                    },
                }],
            },
            Frame::Finish,
            Frame::Snapshot(vec![1, 2]),
            Frame::Report(vec![]),
        ];
        for frame in &frames {
            round_trip(frame);
        }
    }

    #[test]
    fn truncations_and_corruption_are_structured_errors() {
        let frame = Frame::Ready {
            dist: vec![1, 2, 3, 4],
            cyc: vec![5, 6],
            heads: vec![7],
        };
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            assert!(
                matches!(Frame::decode(&bytes[..cut]), Err(CodecError::Truncated)),
                "cut at {cut}"
            );
        }
        let mut oversized = bytes.clone();
        oversized[..4].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&oversized),
            Err(CodecError::Oversized)
        ));
        let mut bad_tag = bytes.clone();
        bad_tag[4] = 200;
        assert!(matches!(
            Frame::decode(&bad_tag),
            Err(CodecError::BadTag(200))
        ));
    }

    #[test]
    fn read_frame_allocates_by_bytes_received_not_by_header() {
        /// Serves `data` then EOF, recording the largest buffer it was
        /// ever asked to fill.
        struct Probe {
            data: std::io::Cursor<Vec<u8>>,
            largest_offer: usize,
        }
        impl Read for Probe {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest_offer = self.largest_offer.max(buf.len());
                self.data.read(buf)
            }
        }
        let mut probe = Probe {
            data: std::io::Cursor::new((MAX_FRAME_LEN as u32).to_le_bytes().to_vec()),
            largest_offer: 0,
        };
        let err = read_frame(&mut probe, "probe").unwrap_err();
        assert!(
            matches!(&err, TransportError::Io { source, .. }
                if source.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err}"
        );
        assert!(probe.largest_offer <= 64 << 10, "{}", probe.largest_offer);

        // A well-formed frame still reads back through the same path.
        let bytes = Frame::Config(vec![7; 100_000]).encode();
        let frame = read_frame(&mut &bytes[..], "ok").expect("whole frame");
        assert_eq!(frame.encode(), bytes);
    }

    #[test]
    fn streaming_decoder_handles_partial_feeds() {
        let a = Frame::Finish.encode();
        let b = Frame::Config(vec![1, 2, 3, 4, 5]).encode();
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let mut dec = FrameDecoder::new();
        let mut seen = 0;
        for chunk in all.chunks(3) {
            dec.feed(chunk);
            while let Some(frame) = dec.next_frame().expect("no corruption") {
                seen += 1;
                match seen {
                    1 => assert_eq!(frame.encode(), a),
                    2 => assert_eq!(frame.encode(), b),
                    _ => panic!("too many frames"),
                }
            }
        }
        assert_eq!(seen, 2);
        assert!(dec.next_frame().expect("clean tail").is_none());
    }
}
