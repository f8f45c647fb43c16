//! Unix-socket deployment of the safetx protocol state machines.
//!
//! Every protocol message crosses a real byte stream: each cloud server
//! sits behind a [`ServerHost`], each TM drives the sans-io `TmCore` from
//! [`NetCluster::execute`], and the two sides talk exclusively through
//! framed [`crate::wire`] messages over `UnixStream`s (in-process duplex
//! pairs by default; a multi-process deployment connects the same hosts over
//! filesystem sockets — see `examples/net_processes.rs`).
//!
//! The thread that reads a frame handles it; no decoded message is handed
//! to another thread. On a server, each connection's reader decodes a
//! frame, takes the further complete frames already buffered on that
//! connection (up to `server_batch`), and runs the round under the host's
//! lock: `ServerCore::handle_round` (one WAL group, proofs evaluated
//! inline), replies coalesced per peer into one [`Msg::Batch`] frame. On
//! the TM, each in-flight transaction is a slot holding its `TmCore`; the
//! reader that decodes a reply steps that core and performs its effects
//! (sends, decision-log writes, the master consult) itself, while
//! `execute` performs only the start and waits for the termination or the
//! reply deadline.
//!
//! Locks are taken in one order: transaction slot → TM link writer → host
//! state. A host reader holds only its host's lock, and a TM reader never
//! holds a host lock while it waits for a slot. The one wait that could
//! still close a cycle is a socket write blocked on a full buffer, and
//! each edge carries at most the frames of the transactions in flight (a
//! few hundred bytes each), far below a Unix socket's buffer.
//!
//! Peer disconnects surface through the existing failure detector — a
//! reply that never arrives trips `ClusterConfig::reply_timeout` and the
//! core aborts with `AbortReason::ServerUnavailable`; reconnecting resumes
//! traffic under the peer's original logical id (see
//! `safetx_core::coalesce_replies` for why the id must survive the
//! reconnect).

use crate::fault::{
    corrupt_payload, splitmix64, truncate_len, NetFabric, NetFaultPlan, NetVerdict,
};
use crate::wire::{decode_msg, encode_msg, read_frame, write_frame};
use safetx_core::{
    coalesce_replies, reply_counts_as_dropped, AbortReason, Msg, ResourcePolicyMap, ServerCore,
    SharedCas, SharedCatalog, TmConfig, TmCore, TmEffect, TmEvent, TxnTermination,
};
use safetx_metrics::{FaultCounters, TransportCounters};
use safetx_policy::{CaRegistry, CertificateAuthority, Credential};
use safetx_runtime::{
    resolve_batch, resolve_concurrency, ClusterConfig, CrashPoint, ExecutionResult, MsgKind, Peer,
};
use safetx_store::Wal;
use safetx_txn::{CoordinatorRecord, Decision, InquiryAnswer, TransactionSpec};
use safetx_types::{CaId, PolicyId, PolicyVersion, ServerId, Timestamp, TxnId};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The logical address of a peer on a server's side of the wire: stable
/// for the peer's lifetime, including across reconnects (a replaced
/// connection keeps the id, so reply coalescing keyed by it never splits
/// or misroutes a round's envelope — the invariant documented on
/// `safetx_core::coalesce_replies`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetAddr(pub u64);

/// One side's transport accounting for one edge. Shared between the
/// threads that write frames and the thread that reads them.
#[derive(Debug, Default)]
pub struct EdgeStats {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    reconnects: AtomicU64,
    decode_errors: AtomicU64,
}

impl EdgeStats {
    fn note_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn note_received(&self, payload_bytes: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        // The reader sees the payload; account the 4-byte length prefix so
        // both directions measure the same thing.
        self.bytes_received
            .fetch_add(payload_bytes as u64 + 4, Ordering::Relaxed);
    }

    fn note_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    fn note_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> TransportCounters {
        TransportCounters {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// What the fault fabric did with one outbound frame.
enum WireFate {
    /// The stream is still usable (frame written, dropped, duplicated…).
    Intact,
    /// The stream must be killed (mid-frame truncation or disconnect).
    Kill,
}

/// Writes one raw payload as a frame (`u32le` length + payload).
fn write_raw_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<usize> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(4 + payload.len())
}

/// True when `buffered` starts with a whole frame, so reading it cannot
/// block.
fn frame_buffered(buffered: &[u8]) -> bool {
    match buffered.get(..4) {
        Some(&[a, b, c, d]) => buffered.len() - 4 >= u32::from_le_bytes([a, b, c, d]) as usize,
        _ => false,
    }
}

/// The message kind a frame rolls under (a `Batch` envelope rolls under
/// its first inner message — one frame, one roll).
fn frame_kind(msg: &Msg) -> MsgKind {
    match msg {
        Msg::Batch(inner) => inner.first().map(MsgKind::of).unwrap_or(MsgKind::Other),
        other => MsgKind::of(other),
    }
}

/// The single choke point every stream write funnels through: rolls the
/// frame against the armed fault plan and performs the verdict. Counts
/// frames it actually writes into `stats`; fault decisions are counted on
/// the fabric. `WireFate::Kill` (and any I/O error) means the caller must
/// tear the stream down — the generation-guarded reconnect paths take it
/// from there.
fn write_through_fabric<W: Write>(
    fabric: &NetFabric,
    from: Peer,
    to: Peer,
    seq: u64,
    writer: &mut W,
    msg: &Msg,
    stats: &EdgeStats,
) -> std::io::Result<WireFate> {
    match fabric.verdict(from, to, frame_kind(msg), seq) {
        NetVerdict::Deliver => {
            stats.note_sent(write_frame(writer, msg)?);
            Ok(WireFate::Intact)
        }
        NetVerdict::Drop => {
            fabric.stats.dropped.fetch_add(1, Ordering::Relaxed);
            Ok(WireFate::Intact)
        }
        NetVerdict::Duplicate => {
            fabric.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            let payload = encode_msg(msg);
            stats.note_sent(write_raw_frame(writer, &payload)?);
            stats.note_sent(write_raw_frame(writer, &payload)?);
            Ok(WireFate::Intact)
        }
        NetVerdict::Delay(by) => {
            fabric.stats.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(by);
            stats.note_sent(write_frame(writer, msg)?);
            Ok(WireFate::Intact)
        }
        NetVerdict::Corrupt { roll } => {
            fabric.stats.corrupted.fetch_add(1, Ordering::Relaxed);
            let mut payload = encode_msg(msg);
            corrupt_payload(&mut payload, roll);
            stats.note_sent(write_raw_frame(writer, &payload)?);
            Ok(WireFate::Intact)
        }
        NetVerdict::Truncate { roll } => {
            fabric.stats.truncated.fetch_add(1, Ordering::Relaxed);
            let payload = encode_msg(msg);
            let mut frame = Vec::with_capacity(4 + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            let cut = truncate_len(frame.len(), roll);
            writer.write_all(&frame[..cut])?;
            // Push the partial bytes onto the wire before the kill, so the
            // receiver really observes a mid-frame desync, not a clean cut.
            let _ = writer.flush();
            Ok(WireFate::Kill)
        }
        NetVerdict::Disconnect => {
            fabric.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            Ok(WireFate::Kill)
        }
    }
}

/// A peer's connection as the host holds it.
struct PeerLink {
    /// Kept so a replacement, a crash or shutdown can unblock the reader.
    stream: UnixStream,
    writer: BufWriter<UnixStream>,
    stats: Arc<EdgeStats>,
    /// Distinguishes this connection from a replaced one: a stale reader's
    /// detach must not tear down the replacement.
    generation: u64,
    /// Outbound frame sequence on this connection — the fault fabric's
    /// per-frame roll input.
    seq: u64,
}

/// Everything a server host's lock guards: the core and the connections
/// it replies on.
struct HostState {
    /// `None` while crashed (and after shutdown): readers stop serving.
    core: Option<ServerCore<NetAddr>>,
    /// A crashed core's durable half (store + WAL), parked until `respawn`.
    salvage: Option<ServerCore<NetAddr>>,
    links: HashMap<u64, PeerLink>,
    next_generation: u64,
}

/// What a host shares with its connection readers.
struct HostShared {
    state: Mutex<HostState>,
    server: ServerId,
    /// Server-side edge stats by peer id; survives reconnects and crashes.
    edges: Mutex<HashMap<u64, Arc<EdgeStats>>>,
    /// Currently attached (not yet detached) connections.
    live_peers: AtomicUsize,
    /// The fault fabric every frame this host writes rolls against.
    fabric: Arc<NetFabric>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    epoch: Instant,
    batch: usize,
}

impl HostShared {
    fn state(&self) -> MutexGuard<'_, HostState> {
        self.state.lock().expect("host state lock")
    }

    /// Kills the server as if its process died: every connection drops
    /// (the readers exit on EOF), `ServerCore::crash` wipes the volatile
    /// state, and the core (store + WAL) is parked for a later `respawn` +
    /// `recover_from_wal`.
    fn crash(&self, state: &mut HostState) {
        for (_, link) in state.links.drain() {
            let _ = link.stream.shutdown(std::net::Shutdown::Both);
        }
        self.live_peers.store(0, Ordering::Release);
        if let Some(mut core) = state.core.take() {
            core.crash();
            self.fabric
                .stats
                .server_crashes
                .fetch_add(1, Ordering::Relaxed);
            state.salvage = Some(core);
        }
    }
}

/// One cloud server serving byte streams.
///
/// The host owns the `ServerCore` and every connection to it. Each
/// connection's reader thread decodes frames and runs the rounds itself,
/// identical to the threaded runtime's: `ServerCore::handle_round` under
/// one WAL group, replies coalesced per peer into one frame.
pub struct ServerHost {
    shared: Arc<HostShared>,
}

impl ServerHost {
    /// Puts a configured core in service, with no fault fabric armed (a
    /// standalone host injects no faults). No thread runs until a
    /// connection is attached.
    #[must_use]
    pub fn spawn(core: ServerCore<NetAddr>, epoch: Instant, batch: usize) -> ServerHost {
        Self::spawn_with_fabric(core, epoch, batch, Arc::new(NetFabric::default()))
    }

    /// Puts a core in service sharing the cluster's fault fabric.
    pub(crate) fn spawn_with_fabric(
        core: ServerCore<NetAddr>,
        epoch: Instant,
        batch: usize,
        fabric: Arc<NetFabric>,
    ) -> ServerHost {
        ServerHost {
            shared: Arc::new(HostShared {
                server: core.id(),
                state: Mutex::new(HostState {
                    core: Some(core),
                    salvage: None,
                    links: HashMap::new(),
                    next_generation: 0,
                }),
                edges: Mutex::new(HashMap::new()),
                live_peers: AtomicUsize::new(0),
                fabric,
                readers: Mutex::new(Vec::new()),
                epoch,
                batch: batch.max(1),
            }),
        }
    }

    /// Puts a recovered core back in service. Edge stats and the fabric
    /// carry over; connections do not — the process died, so every peer
    /// must re-attach.
    pub(crate) fn respawn(&self, core: ServerCore<NetAddr>) {
        self.shared.state().core = Some(core);
    }

    /// Kills the server as if its process died; the core lands in the
    /// salvage slot before this returns.
    pub(crate) fn crash(&self) {
        self.shared.crash(&mut self.shared.state());
    }

    /// True once a crashed server has parked its core for salvage.
    pub(crate) fn crashed(&self) -> bool {
        self.shared.state().salvage.is_some()
    }

    /// Takes the salvaged core of a crashed server, if any.
    pub(crate) fn take_salvaged(&self) -> Option<ServerCore<NetAddr>> {
        self.shared.state().salvage.take()
    }

    /// Joins every connection reader. Only call once their streams are
    /// down (after a crash or during shutdown): a live reader never exits.
    pub(crate) fn join_readers(&self) {
        // `Drop` gets here through `close`; taking the list out is valid
        // whatever a panicking holder of the lock left behind.
        let readers = std::mem::take(
            &mut *self
                .shared
                .readers
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for handle in readers {
            let _ = handle.join();
        }
    }

    /// Places protocol messages the host itself must send on the wire
    /// (post-recovery coordinator inquiries), on the connections attached
    /// now.
    pub(crate) fn emit(&self, msgs: Vec<(NetAddr, Msg)>) {
        let mut guard = self.shared.state();
        let state = &mut *guard;
        if state.core.is_some()
            && send_frames(
                &mut state.links,
                &self.shared.fabric,
                self.shared.server,
                msgs,
            )
        {
            self.shared.crash(state);
        }
    }

    /// Attaches (or replaces) the connection carrying peer `peer`'s
    /// traffic and starts its reader, which reads frames from it and runs
    /// the rounds they make; replies go back on it. Attaching over an
    /// existing connection counts as a reconnect. A crashed host refuses
    /// the connection (the peer reads EOF).
    ///
    /// # Panics
    ///
    /// Panics when the stream cannot be cloned.
    pub fn attach(&self, peer: u64, stream: UnixStream) {
        let stats = {
            let mut edges = self.shared.edges.lock().expect("edges lock");
            Arc::clone(edges.entry(peer).or_default())
        };
        let reader_stream = stream.try_clone().expect("clone unix stream");
        let writer = BufWriter::new(stream.try_clone().expect("clone unix stream"));
        let generation = {
            let mut state = self.shared.state();
            if state.core.is_none() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
            let generation = state.next_generation;
            state.next_generation += 1;
            let link = PeerLink {
                stream,
                writer,
                stats: Arc::clone(&stats),
                generation,
                seq: 0,
            };
            if let Some(old) = state.links.insert(peer, link) {
                // A replaced connection: unblock its reader, which exits on
                // EOF without detaching the replacement.
                let _ = old.stream.shutdown(std::net::Shutdown::Both);
                stats.note_reconnect();
            } else {
                self.shared.live_peers.fetch_add(1, Ordering::Release);
            }
            generation
        };
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::spawn(move || {
            host_reader(&shared, reader_stream, peer, generation, &stats);
        });
        let mut readers = self.shared.readers.lock().expect("readers lock");
        // Reap the readers of replaced and dropped connections.
        let (done, running): (Vec<_>, Vec<_>) =
            readers.drain(..).partition(JoinHandle::is_finished);
        *readers = running;
        readers.push(handle);
        for reader in done {
            let _ = reader.join();
        }
    }

    /// Runs `f` on the live core under the host's lock.
    fn with_core<R>(&self, f: impl FnOnce(&mut ServerCore<NetAddr>) -> R) -> R {
        let mut state = self.shared.state();
        let Some(core) = state.core.as_mut() else {
            drop(state);
            panic!("server host is not running (crashed or shut down)");
        };
        f(core)
    }

    /// Applies a configuration closure to the core, between rounds.
    ///
    /// # Panics
    ///
    /// Panics when the host has crashed (and not been respawned) or shut
    /// down.
    pub fn configure(&self, f: impl FnOnce(&mut ServerCore<NetAddr>) + Send + 'static) {
        self.with_core(f);
    }

    /// How many connections are currently attached. A multi-process server
    /// can poll this to exit once its last client hangs up.
    #[must_use]
    pub fn live_peers(&self) -> usize {
        self.shared.live_peers.load(Ordering::Acquire)
    }

    /// Server-side transport counters summed over this host's edges.
    #[must_use]
    pub fn transport_counters(&self) -> TransportCounters {
        let edges = self.shared.edges.lock().expect("edges lock");
        edges.values().map(|e| e.snapshot()).sum()
    }

    /// Server-side counters for one peer's edge, if it ever attached.
    #[must_use]
    pub fn edge_counters(&self, peer: u64) -> Option<TransportCounters> {
        let edges = self.shared.edges.lock().expect("edges lock");
        edges.get(&peer).map(|e| e.snapshot())
    }

    /// Stops serving: drops every connection and joins the readers.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Drops every connection and joins the readers; called from `Drop`,
    /// so a lock poisoned by a panicking configuration closure is taken
    /// as it is.
    pub(crate) fn close(&self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.core = None;
            for (_, link) in state.links.drain() {
                let _ = link.stream.shutdown(std::net::Shutdown::Both);
            }
        }
        self.shared.live_peers.store(0, Ordering::Release);
        self.join_readers();
    }
}

impl Drop for ServerHost {
    fn drop(&mut self) {
        self.close();
    }
}

fn now_since(epoch: Instant) -> Timestamp {
    Timestamp::from_micros(epoch.elapsed().as_micros() as u64)
}

/// One connection's reader on a server: blocks for a frame, takes the
/// complete frames already buffered behind it (up to the host's batch),
/// and runs them as one round under the host's lock. A payload that fails
/// to decode is counted and skipped (framing survives — the next length
/// prefix is still in phase). EOF or an I/O error detaches the connection,
/// unless it has been replaced meanwhile; a crash or shutdown ends the
/// reader at its next round.
fn host_reader(
    host: &HostShared,
    stream: UnixStream,
    peer: u64,
    generation: u64,
    stats: &EdgeStats,
) {
    let mut reader = BufReader::new(stream);
    'serve: loop {
        let mut round: Vec<(NetAddr, Msg)> = Vec::new();
        let mut frames = 0;
        while frames == 0 || (frames < host.batch && frame_buffered(reader.buffer())) {
            let Ok(Some(payload)) = read_frame(&mut reader) else {
                break 'serve;
            };
            frames += 1;
            stats.note_received(payload.len());
            match decode_msg(&payload) {
                Ok(msg) => round.push((NetAddr(peer), msg)),
                Err(_) => stats.note_decode_error(),
            }
        }
        if round.is_empty() {
            continue;
        }
        let mut guard = host.state();
        let state = &mut *guard;
        let Some(core) = state.core.as_mut() else {
            return;
        };
        if process_round(
            core,
            host.epoch,
            round,
            &mut state.links,
            &host.fabric,
            host.server,
        ) {
            // A scheduled crash point fired mid-round.
            host.crash(state);
            return;
        }
    }
    let mut state = host.state();
    if state
        .links
        .get(&peer)
        .is_some_and(|link| link.generation == generation)
    {
        state.links.remove(&peer);
        host.live_peers.fetch_sub(1, Ordering::Release);
    }
}

/// Processes one round: cuts it at a scheduled crash point, hands the rest
/// to [`ServerCore::handle_round`], and writes the replies coalesced per
/// peer, one frame and one flush per touched connection.
///
/// Returns `true` when a scheduled crash point fired: `BeforeReceive`
/// kills the server with the matching message (and the rest of the round)
/// unprocessed, `AfterReceive` right after processing it, `AfterSend`
/// right after the matching reply frame left — exactly the windows the
/// threaded fabric exposes, so the same recovery obligations arise.
fn process_round(
    core: &mut ServerCore<NetAddr>,
    epoch: Instant,
    round: Vec<(NetAddr, Msg)>,
    links: &mut HashMap<u64, PeerLink>,
    fabric: &NetFabric,
    server: ServerId,
) -> bool {
    // A Batch envelope is by definition its inner messages in order;
    // flatten up front so crash points cut at message granularity.
    let mut flat: Vec<(NetAddr, Msg)> = Vec::new();
    for (from, msg) in round {
        match msg {
            Msg::Batch(inner) => flat.extend(inner.into_iter().map(|m| (from, m))),
            other => flat.push((from, other)),
        }
    }
    let mut crashed = false;
    let mut cut = flat.len();
    for (i, (_, msg)) in flat.iter().enumerate() {
        let kind = MsgKind::of(msg);
        if fabric
            .take_crash(server, |p| p == CrashPoint::BeforeReceive(kind))
            .is_some()
        {
            // The matching message dies with the server.
            cut = i;
            crashed = true;
            break;
        }
        if fabric
            .take_crash(server, |p| p == CrashPoint::AfterReceive(kind))
            .is_some()
        {
            cut = i + 1;
            crashed = true;
            break;
        }
    }
    flat.truncate(cut);
    let replies = core.handle_round(now_since(epoch), flat);
    // A disconnected peer is fine to ignore, like a dead channel in the
    // threaded runtime.
    crashed | send_frames(links, fabric, server, coalesce_replies(replies, |a| a.0))
}

/// Writes one frame per message through the fault fabric, flushing each.
/// Returns `true` when an `AfterSend` crash point fired — the matching
/// frame left the host, the rest of the batch dies with it.
fn send_frames(
    links: &mut HashMap<u64, PeerLink>,
    fabric: &NetFabric,
    server: ServerId,
    outputs: Vec<(NetAddr, Msg)>,
) -> bool {
    let crash_after_send = |kind| {
        fabric
            .take_crash(server, |p| p == CrashPoint::AfterSend(kind))
            .is_some()
    };
    for (to, msg) in outputs {
        let Some(link) = links.get_mut(&to.0) else {
            continue;
        };
        // Consult the crash schedule before the write (the threaded fabric
        // consumes the rule at the send), crash after it: the frame — and
        // with it the force the server already performed — escapes first.
        // A crash point matches any inner message of a coalesced envelope.
        let crash_after = match &msg {
            Msg::Batch(inner) => inner.iter().map(MsgKind::of).any(crash_after_send),
            other => crash_after_send(MsgKind::of(other)),
        };
        let seq = link.seq;
        link.seq += 1;
        let fate = write_through_fabric(
            fabric,
            Peer::Server(server),
            Peer::Coordinator,
            seq,
            &mut link.writer,
            &msg,
            &link.stats,
        )
        .and_then(|fate| {
            link.writer.flush()?;
            Ok(fate)
        });
        match fate {
            Ok(WireFate::Intact) => {}
            Ok(WireFate::Kill) | Err(_) => {
                // Dead (or fabric-killed) connection: drop the stream; the
                // reader's detach handles the bookkeeping, and the TM side
                // reconnects with backoff.
                let _ = link.stream.shutdown(std::net::Shutdown::Both);
            }
        }
        if crash_after {
            return true;
        }
    }
    false
}

/// The TM pool's side of one edge.
struct TmLink {
    /// `None` while disconnected.
    writer: Mutex<Option<TmWriter>>,
    stats: EdgeStats,
    /// Outbound frame sequence — the fault fabric's per-frame roll input.
    seq: AtomicU64,
    /// Consecutive reconnect attempts since the last healthy frame; the
    /// budget that bounds a reconnect storm.
    reconnect_attempts: AtomicU64,
}

impl TmLink {
    fn new() -> TmLink {
        TmLink {
            writer: Mutex::new(None),
            stats: EdgeStats::default(),
            seq: AtomicU64::new(0),
            reconnect_attempts: AtomicU64::new(0),
        }
    }
}

/// Most reconnect attempts the TM makes per outage before declaring the
/// edge unavailable (further sends drop until the server is restarted or
/// a healthy frame arrives, which resets the budget).
const RECONNECT_MAX_ATTEMPTS: u64 = 6;

/// Jittered exponential backoff before reconnect attempt `attempt`
/// (1-based): doubling from 50µs, capped at 2ms, ±50% deterministic
/// jitter — the same shape as the service layer's `RetryPolicy`.
fn reconnect_backoff(attempt: u64, edge: u64) -> Duration {
    let base = 50u64
        .saturating_mul(1u64 << (attempt - 1).min(6))
        .min(2_000);
    let roll = splitmix64(attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ edge) % (base + 1);
    Duration::from_micros(base / 2 + roll)
}

struct TmWriter {
    /// Kept so disconnects can unblock the reader thread.
    stream: UnixStream,
    writer: BufWriter<UnixStream>,
}

/// One in-flight transaction. Whichever thread holds the lock drives the
/// core: `execute` for the start and the reply deadline, a TM reader for
/// each reply it decodes.
struct TxnSlot {
    state: Mutex<TxnState>,
    /// Signalled when the core terminates.
    finished: Condvar,
}

struct TxnState {
    core: TmCore,
    termination: Option<TxnTermination>,
    /// When the core last stepped; the reply deadline counts from here.
    last_step: Instant,
}

/// The TM pool as `execute`, the TM readers and the reconnect path share
/// it.
struct TmShared {
    epoch: Instant,
    /// Also the master version server: consults are answered inline from
    /// its latest snapshot.
    catalog: SharedCatalog,
    /// In-process hosts (empty in `connect` mode).
    hosts: Vec<ServerHost>,
    links: Vec<TmLink>,
    /// The slot of every in-flight transaction, by transaction id. Readers
    /// route by the `txn` field every TM-bound reply carries.
    routes: Mutex<HashMap<u64, Arc<TxnSlot>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    dropped_replies: AtomicU64,
    /// Reconnect loops that exhausted their bounded attempt budget.
    reconnect_exhausted: AtomicU64,
    decision_log: Mutex<Wal<CoordinatorRecord>>,
    /// The transport fault fabric every frame (both directions) rolls
    /// against; disabled until a plan is armed.
    fabric: Arc<NetFabric>,
}

impl TmShared {
    fn now(&self) -> Timestamp {
        now_since(self.epoch)
    }

    /// Installs `stream` as link `i`'s connection (its writer goes into
    /// `slot`, the link's held writer lock) and starts its reader.
    fn install(
        self: &Arc<Self>,
        i: usize,
        slot: &mut Option<TmWriter>,
        stream: UnixStream,
        reconnect: bool,
    ) {
        if reconnect {
            self.links[i].stats.note_reconnect();
        }
        let reader_stream = stream.try_clone().expect("clone unix stream");
        let writer_stream = stream.try_clone().expect("clone unix stream");
        *slot = Some(TmWriter {
            stream,
            writer: BufWriter::new(writer_stream),
        });
        let tm = Arc::clone(self);
        let from = ServerId::new(i as u64);
        let handle = std::thread::spawn(move || tm_reader_loop(&tm, reader_stream, from));
        self.readers.lock().expect("readers lock").push(handle);
    }

    /// Encodes and writes one frame to server `i` (through the fault
    /// fabric) without flushing. A down link first gets a bounded,
    /// backed-off reconnect attempt, whichever thread sends; once the
    /// budget is exhausted the frame drops — the reply deadline is the
    /// failure detector, and the edge presents as `ServerUnavailable`.
    fn send_to(self: &Arc<Self>, i: usize, msg: &Msg) {
        let mut slot = self.links[i].writer.lock().expect("link writer lock");
        if slot.is_none() && !self.try_reconnect(i, &mut slot) {
            return;
        }
        tm_write(&self.links[i], &self.fabric, i, &mut slot, msg);
    }

    /// One bounded reconnect attempt for link `i`, called with the
    /// writer slot held and empty. In-process mode only — `connect`-mode
    /// reconnects are driven externally — and never while the server is
    /// crashed (restart owns that handshake).
    fn try_reconnect(self: &Arc<Self>, i: usize, slot: &mut Option<TmWriter>) -> bool {
        let Some(host) = self.hosts.get(i) else {
            return false;
        };
        if host.crashed() {
            return false;
        }
        let attempt = self.links[i]
            .reconnect_attempts
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        if attempt > RECONNECT_MAX_ATTEMPTS {
            if attempt == RECONNECT_MAX_ATTEMPTS + 1 {
                self.reconnect_exhausted.fetch_add(1, Ordering::Relaxed);
            }
            return false;
        }
        std::thread::sleep(reconnect_backoff(attempt, i as u64));
        let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
        host.attach(TM_PEER, srv_end);
        self.install(i, slot, tm_end, true);
        true
    }

    fn flush(&self, i: usize) {
        tm_flush(&self.links[i]);
    }

    /// Performs a core's effects on the calling thread — sends (one flush
    /// per touched link, after the whole batch is encoded, so frames keep
    /// their protocol order and a round's sends to one server share a
    /// syscall), decision-log writes and the inline master consult — and
    /// records the termination and the step time.
    fn perform(self: &Arc<Self>, txn: &mut TxnState, mut effects: Vec<TmEffect>) {
        loop {
            let mut consult_master = false;
            let mut touched: Vec<usize> = Vec::new();
            for effect in effects {
                match effect {
                    TmEffect::Send(server, msg) => {
                        let i = server.index() as usize;
                        self.send_to(i, &msg);
                        if !touched.contains(&i) {
                            touched.push(i);
                        }
                    }
                    TmEffect::QueryMaster => consult_master = true,
                    TmEffect::ForceLog { record, .. } => {
                        self.decision_log
                            .lock()
                            .expect("decision log lock")
                            .force(record);
                    }
                    TmEffect::Log(record) => {
                        self.decision_log
                            .lock()
                            .expect("decision log lock")
                            .append(record);
                    }
                    TmEffect::ArmTimer(_) | TmEffect::Decided(_) => {}
                    TmEffect::Finished(t) => txn.termination = Some(*t),
                }
            }
            for i in touched {
                self.flush(i);
            }
            txn.last_step = Instant::now();
            if !consult_master || txn.termination.is_some() {
                return;
            }
            let versions = self.catalog.latest_snapshot().1;
            effects = txn
                .core
                .step(self.now(), TmEvent::MasterVersions { versions });
        }
    }

    /// Steps the transaction a server→TM message belongs to, on the
    /// calling reader thread. A message no running transaction takes is a
    /// stale straggler, counted under the shared rule (acks never count).
    fn deliver(self: &Arc<Self>, from: ServerId, msg: Msg) {
        let routed = reply_txn(&msg).and_then(|txn| {
            let routes = self.routes.lock().expect("routes lock");
            routes.get(&txn.index()).map(|slot| (txn, Arc::clone(slot)))
        });
        let counted = match routed {
            Some((txn, slot)) => {
                let mut state = slot.state.lock().expect("txn slot lock");
                if state.core.is_finished() {
                    // Raced the deregistration.
                    reply_counts_as_dropped(&msg)
                } else {
                    match tm_event(txn, from, msg) {
                        Ok(event) => {
                            let effects = state.core.step(self.now(), event);
                            self.perform(&mut state, effects);
                            if state.termination.is_some() {
                                slot.finished.notify_one();
                            }
                            false
                        }
                        Err(counted) => counted,
                    }
                }
            }
            None => reply_counts_as_dropped(&msg),
        };
        if counted {
            self.dropped_replies.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A cluster whose protocol traffic crosses real byte streams.
///
/// [`NetCluster::new`] runs everything in-process over `UnixStream::pair`
/// duplex sockets: one [`ServerHost`] per server, with
/// [`NetCluster::execute`] driving the sans-io `TmCore` exactly like
/// `safetx_runtime::Cluster::execute` — same effects, same decision log,
/// same inline master consult, same reply-deadline failure detector — but
/// stepped by whichever thread reads the reply. [`NetCluster::connect`]
/// instead attaches to server processes listening on filesystem sockets
/// (the hosts then live in other processes and only the TM side runs
/// here).
pub struct NetCluster {
    config: ClusterConfig,
    cas: SharedCas,
    next_txn: AtomicU64,
    timeout_aborts: AtomicU64,
    tm: Arc<TmShared>,
}

/// The TM pool's logical peer id on every server's side of the wire. One
/// pool per cluster today; additional pools would claim distinct ids.
pub const TM_PEER: u64 = 0;

/// The catalog and the certificate authorities every deployment starts
/// from.
fn fresh_authorities() -> (SharedCatalog, SharedCas) {
    let mut registry = CaRegistry::new();
    registry.register(CertificateAuthority::new(CaId::new(0), 0x7331));
    (SharedCatalog::new(), SharedCas::new(registry))
}

impl NetCluster {
    /// Puts one in-process [`ServerHost`] per server in service and
    /// connects each over a fresh `UnixStream` duplex pair. Shares the
    /// threaded runtime's [`ClusterConfig`] surface: `server_batch` (and
    /// the `SAFETX_SERVER_BATCH` fallback), `wal_sync_cost`,
    /// `reply_timeout` and the protocol cell all mean the same thing here.
    ///
    /// # Panics
    ///
    /// Panics when socket pairs cannot be created.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        let (catalog, cas) = fresh_authorities();
        let epoch = Instant::now();
        let batch = resolve_batch(&config);
        let fabric = Arc::new(NetFabric::default());
        let hosts = (0..config.servers)
            .map(|i| {
                let mut core = ServerCore::new(
                    ServerId::new(i as u64),
                    catalog.clone(),
                    ResourcePolicyMap::single(PolicyId::new(0)),
                    cas.clone(),
                    config.variant,
                );
                if let Some(cost) = config.wal_sync_cost {
                    core.set_wal_sync_cost(cost);
                }
                core.set_concurrency(resolve_concurrency(&config));
                ServerHost::spawn_with_fabric(core, epoch, batch, Arc::clone(&fabric))
            })
            .collect();
        let cluster = Self::with_hosts(config, catalog, cas, epoch, hosts, fabric);
        for (i, host) in cluster.tm.hosts.iter().enumerate() {
            let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
            host.attach(TM_PEER, srv_end);
            cluster.install_tm_connection(i, tm_end, false);
        }
        cluster
    }

    /// Builds a TM-only cluster over already-connected streams, one per
    /// server in server-id order (stream `i` talks to server *i*). The
    /// server hosts live elsewhere — typically other processes serving
    /// filesystem sockets — so [`NetCluster::configure_server`] and the
    /// policy helpers are unavailable; the server processes seed
    /// themselves. The local catalog still answers master consults, so
    /// publish the same policy versions here that the servers installed.
    #[must_use]
    pub fn connect(config: ClusterConfig, streams: Vec<UnixStream>) -> Self {
        assert_eq!(
            streams.len(),
            config.servers,
            "one stream per configured server"
        );
        let (catalog, cas) = fresh_authorities();
        let fabric = Arc::new(NetFabric::default());
        let cluster = Self::with_hosts(config, catalog, cas, Instant::now(), Vec::new(), fabric);
        for (i, stream) in streams.into_iter().enumerate() {
            cluster.install_tm_connection(i, stream, false);
        }
        cluster
    }

    fn with_hosts(
        config: ClusterConfig,
        catalog: SharedCatalog,
        cas: SharedCas,
        epoch: Instant,
        hosts: Vec<ServerHost>,
        fabric: Arc<NetFabric>,
    ) -> Self {
        let links = (0..config.servers).map(|_| TmLink::new()).collect();
        NetCluster {
            config,
            cas,
            next_txn: AtomicU64::new(0),
            timeout_aborts: AtomicU64::new(0),
            tm: Arc::new(TmShared {
                epoch,
                catalog,
                hosts,
                links,
                routes: Mutex::new(HashMap::new()),
                readers: Mutex::new(Vec::new()),
                dropped_replies: AtomicU64::new(0),
                reconnect_exhausted: AtomicU64::new(0),
                decision_log: Mutex::new(Wal::new()),
                fabric,
            }),
        }
    }

    /// Installs a connection on link `i`: registers the writer and starts
    /// its reader.
    fn install_tm_connection(&self, i: usize, stream: UnixStream, reconnect: bool) {
        let mut slot = self.tm.links[i].writer.lock().expect("link writer lock");
        self.tm.install(i, &mut slot, stream, reconnect);
    }

    /// The in-process host of `server`.
    fn host(&self, server: ServerId, unavailable: &str) -> &ServerHost {
        self.tm
            .hosts
            .get(server.index() as usize)
            .unwrap_or_else(|| panic!("in-process server host ({unavailable} in connect mode)"))
    }

    /// Closes the TM side of link `i`: sends fail fast and its reader
    /// exits. `Drop` calls this too; taking the writer out is valid
    /// whatever a panicking holder of the lock left behind.
    fn sever(&self, i: usize) {
        let link = &self.tm.links[i];
        let mut slot = link.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(writer) = slot.take() {
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// The configuration this cluster was built with.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared policy catalog (also the master version server: consults
    /// are answered inline from its latest snapshot).
    #[must_use]
    pub fn catalog(&self) -> &SharedCatalog {
        &self.tm.catalog
    }

    /// The shared certificate authorities.
    #[must_use]
    pub fn cas(&self) -> &SharedCas {
        &self.cas
    }

    /// Protocol-time now (microseconds since cluster start).
    #[must_use]
    pub fn now(&self) -> Timestamp {
        self.tm.now()
    }

    /// A fresh transaction id.
    #[must_use]
    pub fn next_txn_id(&self) -> TxnId {
        TxnId::new(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// Stale replies observed across every `execute` (same accounting rule
    /// as the in-process runtimes: acks never count, everything else
    /// does).
    #[must_use]
    pub fn dropped_replies(&self) -> u64 {
        self.tm.dropped_replies.load(Ordering::Relaxed)
    }

    /// Failure counters: everything the transport fault fabric injected
    /// (drops, delays, duplicates, corruption, truncation, disconnects),
    /// crash/recovery counts, exhausted reconnect budgets, and the reply
    /// deadlines that fired (`timeout_aborts`). All zero on a clean run
    /// with no plan armed.
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        let mut counters = self.tm.fabric.stats.snapshot();
        counters.timeout_aborts = self.timeout_aborts.load(Ordering::Relaxed);
        counters.reconnect_exhausted = self.tm.reconnect_exhausted.load(Ordering::Relaxed);
        counters
    }

    /// Arms a transport fault plan: every frame subsequently written on
    /// any edge (both directions) rolls against it, and scheduled server
    /// crashes fire at their protocol points. Replaces any armed plan and
    /// re-arms consumed one-shot rules.
    pub fn set_fault_plan(&self, plan: NetFaultPlan) {
        self.tm.fabric.arm(plan);
    }

    /// Disarms the fault fabric: traffic flows clean again (accumulated
    /// fault counters are kept). Also reopens every edge's reconnect
    /// budget — the cap exists to bound reconnect storms *while faults
    /// rage*; once the network is declared healthy, an edge whose budget
    /// was exhausted mid-chaos must be reachable again (recovery and
    /// in-doubt resolution depend on it).
    pub fn clear_fault_plan(&self) {
        self.tm.fabric.disarm();
        for link in &self.tm.links {
            link.reconnect_attempts.store(0, Ordering::Relaxed);
        }
    }

    /// Kills a server as if its process died: volatile state (locks,
    /// in-flight rounds, the decided memo) is lost, every one of its
    /// connections drops, and in-flight frames are gone. The store and WAL
    /// survive for [`NetCluster::restart_server`]. Returns once the
    /// server's readers have exited.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range or in `connect` mode.
    pub fn crash_server(&self, server: ServerId) {
        let host = self.host(server, "crash is unavailable");
        host.crash();
        host.join_readers();
        // The TM side of the edge is dead too; sever it so sends fail fast
        // instead of filling a kernel buffer nobody reads.
        self.sever(server.index() as usize);
    }

    /// Servers that crashed (scheduled or via [`NetCluster::crash_server`])
    /// and have not been restarted.
    #[must_use]
    pub fn crashed_servers(&self) -> Vec<ServerId> {
        self.tm
            .hosts
            .iter()
            .enumerate()
            .filter(|(_, host)| host.crashed())
            .map(|(i, _)| ServerId::new(i as u64))
            .collect()
    }

    /// Restarts a crashed server: replays its WAL (`recover_from_wal`
    /// rebuilds the decided memo and re-acquires locks for in-doubt
    /// transactions), puts the core back in service, reconnects the TM
    /// edge under the server's stable peer id, and puts one wire
    /// [`Msg::Inquiry`] per in-doubt transaction on the new connection —
    /// the TM-side readers answer from the decision log. The inquiries
    /// cross the real (fault-subject) wire; a quiesced
    /// [`NetCluster::resolve_in_doubt`] is the lossless backstop.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range, in `connect` mode, or
    /// when the server has not crashed.
    pub fn restart_server(&self, server: ServerId) {
        let i = server.index() as usize;
        let host = self.host(server, "restart is unavailable");
        let mut core = host.take_salvaged().expect("a crashed server to restart");
        host.join_readers();
        let in_doubt = core.recover_from_wal();
        host.respawn(core);
        let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
        host.attach(TM_PEER, srv_end);
        self.tm.links[i]
            .reconnect_attempts
            .store(0, Ordering::Relaxed);
        self.install_tm_connection(i, tm_end, true);
        self.tm
            .fabric
            .stats
            .recoveries
            .fetch_add(1, Ordering::Relaxed);
        let inquiries: Vec<(NetAddr, Msg)> = in_doubt
            .into_iter()
            .map(|txn| {
                (
                    NetAddr(TM_PEER),
                    Msg::Inquiry {
                        txn,
                        from_server: server,
                    },
                )
            })
            .collect();
        if !inquiries.is_empty() {
            host.emit(inquiries);
        }
    }

    /// Drives every live server's leftover transactions to a decision on a
    /// quiesced cluster (no concurrent `execute` calls): in-doubt
    /// (prepared-Yes) transactions get the decision-log answer under the
    /// cluster's termination variant; transactions that never reached a
    /// vote get a unilateral abort (their coordinator cannot have
    /// committed without the vote). Answers cross the real wire, so the
    /// probe loops until the hosts have drained them. Returns the number
    /// of transactions resolved.
    ///
    /// # Panics
    ///
    /// Panics when a transaction stays unresolved past the deadline — with
    /// the fabric disarmed that means a decision is genuinely
    /// unobtainable, which quiesced execution rules out.
    pub fn resolve_in_doubt(&self) -> usize {
        let mut resolved: BTreeSet<(usize, TxnId)> = BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut outstanding = 0usize;
            for (i, host) in self.tm.hosts.iter().enumerate() {
                if host.crashed() {
                    continue;
                }
                let (active, in_doubt) =
                    host.with_core(|core| (core.active_txn_ids(), core.in_doubt_txns()));
                let in_doubt: BTreeSet<TxnId> = in_doubt.into_iter().collect();
                for txn in active {
                    outstanding += 1;
                    resolved.insert((i, txn));
                    let msg = if in_doubt.contains(&txn) {
                        let mut answer = {
                            let log = self.tm.decision_log.lock().expect("decision log lock");
                            safetx_txn::answer_inquiry(txn, self.config.variant, log.records())
                        };
                        // Basic 2PC's blocking case (no record, no
                        // presumption): on a quiesced cluster the
                        // coordinator is gone for good, so the absence of
                        // a forced decision record proves no participant
                        // ever saw COMMIT — coordinator recovery decides
                        // ABORT, same rule as
                        // `safetx_txn::recover_coordinator`.
                        if !matches!(answer, InquiryAnswer::Decided(_)) {
                            answer = InquiryAnswer::Decided(Decision::Abort);
                        }
                        Msg::InquiryReply { txn, answer }
                    } else {
                        // Never voted ⇒ the coordinator cannot have
                        // committed this transaction; unilateral abort
                        // releases its locks.
                        Msg::Decision {
                            txn,
                            decision: Decision::Abort,
                        }
                    };
                    self.tm.send_to(i, &msg);
                    self.tm.flush(i);
                }
            }
            if outstanding == 0 {
                return resolved.len();
            }
            assert!(
                Instant::now() < deadline,
                "in-doubt resolution wedged: {outstanding} transaction(s) left"
            );
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// A copy of the coordinator-side decision log (every `ForceLog` and
    /// `Log` record the TM pool wrote, in order).
    #[must_use]
    pub fn decision_log_records(&self) -> Vec<CoordinatorRecord> {
        self.tm
            .decision_log
            .lock()
            .expect("decision log lock")
            .records()
            .cloned()
            .collect()
    }

    /// Aggregated WAL accounting across the in-process hosts (empty in
    /// `connect` mode). Meaningful on a quiesced cluster.
    #[must_use]
    pub fn wal_stats(&self) -> safetx_metrics::WalStats {
        let mut total = safetx_metrics::WalStats::default();
        for host in &self.tm.hosts {
            total.merge(&host.with_core(|core| core.wal_stats()));
        }
        total
    }

    /// Transport counters summed over both sides of every edge.
    #[must_use]
    pub fn transport_counters(&self) -> TransportCounters {
        let tm: TransportCounters = self.tm.links.iter().map(|l| l.stats.snapshot()).sum();
        let servers: TransportCounters = self
            .tm
            .hosts
            .iter()
            .map(ServerHost::transport_counters)
            .sum();
        tm + servers
    }

    /// Both sides of one server's edge: `(tm_side, server_side)`. On a
    /// clean quiesced run frames are conserved — everything one side sent,
    /// the other received. `server_side` is all-zero in `connect` mode
    /// (the host lives in another process).
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range.
    #[must_use]
    pub fn edge_counters(&self, server: ServerId) -> (TransportCounters, TransportCounters) {
        let i = server.index() as usize;
        let tm = self.tm.links[i].stats.snapshot();
        let srv = self
            .tm
            .hosts
            .get(i)
            .and_then(|h| h.edge_counters(TM_PEER))
            .unwrap_or_default();
        (tm, srv)
    }

    /// Applies a configuration closure to a server's core between rounds
    /// (seed data, install policies, add constraints).
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range, or in `connect` mode
    /// (remote server processes configure themselves).
    pub fn configure_server(
        &self,
        server: ServerId,
        f: impl FnOnce(&mut ServerCore<NetAddr>) + Send + 'static,
    ) {
        self.host(server, "configure is unavailable").configure(f);
    }

    /// Publishes a policy version and notifies every replica.
    pub fn publish_policy(&self, policy: safetx_policy::Policy) {
        let id = policy.id();
        let version = policy.version();
        self.tm.catalog.publish(policy);
        self.install_everywhere(id, version);
    }

    /// Installs a policy version at every replica without publishing a new
    /// catalog entry.
    pub fn install_everywhere(&self, policy: PolicyId, version: PolicyVersion) {
        for host in &self.tm.hosts {
            host.configure(move |core| {
                core.install_policy(policy, version);
            });
        }
    }

    /// Severs the byte stream to one server without touching the server's
    /// state — the wire fails, the process survives. In-flight replies are
    /// lost; the next `execute` that needs this server trips the reply
    /// deadline and aborts with `ServerUnavailable` (configure
    /// `ClusterConfig::reply_timeout`, or executions will block).
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range.
    pub fn disconnect_server(&self, server: ServerId) {
        self.sever(server.index() as usize);
    }

    /// Replaces a severed connection with a fresh duplex pair under the
    /// server's original logical peer id, so reply coalescing keyed by
    /// that id spans the reconnect unchanged. Counted on both edges'
    /// `reconnects`.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range or in `connect` mode.
    pub fn reconnect_server(&self, server: ServerId) {
        let host = self.host(server, "reconnect is driven externally");
        let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
        host.attach(TM_PEER, srv_end);
        self.install_tm_connection(server.index() as usize, tm_end, true);
    }

    /// Executes one transaction synchronously over the wire: the same
    /// drive of the sans-io `TmCore` as the threaded runtime's
    /// `Cluster::execute`, except every send is an encoded frame and every
    /// reply arrives off a socket. This call performs only the start's
    /// effects; the TM reader that decodes each reply steps the core and
    /// performs the effects itself. The caller waits for the termination,
    /// and steps the reply deadline itself when no step happens within
    /// `reply_timeout`.
    ///
    /// # Panics
    ///
    /// Panics when the core fails to terminate the transaction (a protocol
    /// bug, not an I/O condition).
    #[must_use]
    pub fn execute(&self, spec: &TransactionSpec, credentials: &[Credential]) -> ExecutionResult {
        let started = Instant::now();
        let tm = &self.tm;
        let config = TmConfig::new(
            self.config.scheme,
            self.config.consistency,
            self.config.variant,
        );
        let mut core = TmCore::new(config, spec.clone(), credentials.to_vec(), tm.now());
        let effects = core.start(tm.now());
        let slot = Arc::new(TxnSlot {
            state: Mutex::new(TxnState {
                core,
                termination: None,
                last_step: started,
            }),
            finished: Condvar::new(),
        });
        tm.routes
            .lock()
            .expect("routes lock")
            .insert(spec.id.index(), Arc::clone(&slot));

        let mut state = slot.state.lock().expect("txn slot lock");
        tm.perform(&mut state, effects);
        while state.termination.is_none() {
            let Some(timeout) = self.config.reply_timeout else {
                state = slot.finished.wait(state).expect("txn slot lock");
                continue;
            };
            let now = Instant::now();
            let deadline = state.last_step + timeout;
            if now < deadline {
                state = slot
                    .finished
                    .wait_timeout(state, deadline - now)
                    .expect("txn slot lock")
                    .0;
            } else {
                let effects = state.core.step(tm.now(), TmEvent::ReplyTimeout);
                tm.perform(&mut state, effects);
            }
        }
        // The core is finished: readers holding the slot count anything
        // further as stale, so its own drop count is final.
        let termination = state.termination.take().expect("core emitted Finished");
        tm.dropped_replies
            .fetch_add(state.core.dropped_replies(), Ordering::Relaxed);
        drop(state);
        tm.routes
            .lock()
            .expect("routes lock")
            .remove(&spec.id.index());

        if termination.outcome.abort_reason() == Some(AbortReason::ServerUnavailable) {
            self.timeout_aborts.fetch_add(1, Ordering::Relaxed);
        }
        ExecutionResult::from_termination(termination, started.elapsed())
    }

    /// Stops every connection and host and joins all their threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for NetCluster {
    fn drop(&mut self) {
        // A reader can start another while it reconnects; sever and join
        // until none is left.
        loop {
            for i in 0..self.tm.links.len() {
                self.sever(i);
            }
            let readers = std::mem::take(
                &mut *self
                    .tm
                    .readers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            if readers.is_empty() {
                break;
            }
            for handle in readers {
                let _ = handle.join();
            }
        }
        for host in &self.tm.hosts {
            host.close();
        }
    }
}

/// Writes one frame on `link` through the fault fabric, without flushing.
/// A missing writer is fine to ignore — the reply deadline (or the
/// reconnect path in `TmShared::send_to`) is the failure detector.
fn tm_write(link: &TmLink, fabric: &NetFabric, i: usize, slot: &mut Option<TmWriter>, msg: &Msg) {
    let Some(tm_writer) = slot.as_mut() else {
        return;
    };
    let seq = link.seq.fetch_add(1, Ordering::Relaxed);
    let fate = write_through_fabric(
        fabric,
        Peer::Coordinator,
        Peer::Server(ServerId::new(i as u64)),
        seq,
        &mut tm_writer.writer,
        msg,
        &link.stats,
    );
    if !matches!(fate, Ok(WireFate::Intact)) {
        let writer = slot.take().expect("writer present");
        let _ = writer.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Flushes a link's writer, severing the connection on failure.
fn tm_flush(link: &TmLink) {
    let mut slot = link.writer.lock().expect("link writer lock");
    if let Some(tm_writer) = slot.as_mut() {
        if tm_writer.writer.flush().is_err() {
            let writer = slot.take().expect("writer present");
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Answers one wire [`Msg::Inquiry`] from a recovering server, but only
/// when the decision log holds an explicit decision record for the
/// transaction. Presumption-based answers (and the collecting-without-
/// decision inference) are deliberately NOT given here: while the cluster
/// is live a coordinator may still be mid-flight, and a presumed answer
/// could contradict the decision it is about to log. The quiesced
/// [`NetCluster::resolve_in_doubt`] applies the full termination protocol
/// once no coordinator can be in flight.
fn answer_wire_inquiry(tm: &TmShared, txn: TxnId, from_server: ServerId) {
    let decision = {
        let log = tm.decision_log.lock().expect("decision log lock");
        let found = log.records().find_map(|record| match record {
            CoordinatorRecord::Decision { txn: t, decision } if *t == txn => Some(*decision),
            _ => None,
        });
        found
    };
    let Some(decision) = decision else {
        return;
    };
    let i = from_server.index() as usize;
    let Some(link) = tm.links.get(i) else {
        return;
    };
    let reply = Msg::InquiryReply {
        txn,
        answer: InquiryAnswer::Decided(decision),
    };
    tm_write(
        link,
        &tm.fabric,
        i,
        &mut link.writer.lock().expect("link writer lock"),
        &reply,
    );
    tm_flush(link);
}

/// The TM-side reader for one edge: decodes frames, flattens coalesced
/// envelopes, answers recovery inquiries from the decision log, and steps
/// the transaction each other inner reply belongs to.
fn tm_reader_loop(tm: &Arc<TmShared>, stream: UnixStream, from: ServerId) {
    let link = &tm.links[from.index() as usize];
    let mut reader = BufReader::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        link.stats.note_received(payload.len());
        let Ok(msg) = decode_msg(&payload) else {
            link.stats.note_decode_error();
            continue;
        };
        // A decoded frame proves the edge is healthy: reopen the
        // reconnect budget.
        link.reconnect_attempts.store(0, Ordering::Relaxed);
        let msgs = match msg {
            Msg::Batch(inner) => inner,
            other => vec![other],
        };
        for msg in msgs {
            match msg {
                Msg::Inquiry { txn, from_server } => answer_wire_inquiry(tm, txn, from_server),
                msg => tm.deliver(from, msg),
            }
        }
    }
}

/// The transaction a server→TM message belongs to.
fn reply_txn(msg: &Msg) -> Option<TxnId> {
    match msg {
        Msg::QueryDone { txn, .. }
        | Msg::ValidateReply { txn, .. }
        | Msg::CommitReply { txn, .. }
        | Msg::Ack { txn }
        | Msg::Inquiry { txn, .. }
        | Msg::InquiryReply { txn, .. }
        | Msg::VersionReply { txn, .. } => Some(*txn),
        _ => None,
    }
}

/// Converts a routed reply into the core event it carries (the socket
/// analogue of the threaded runtime's `coordinator_event`). `Err` is the
/// [`reply_counts_as_dropped`] verdict for a stale or foreign message.
fn tm_event(txn: TxnId, from: ServerId, msg: Msg) -> Result<TmEvent, bool> {
    match msg {
        Msg::QueryDone {
            txn: t,
            query_index,
            ok,
            proof,
            capability,
        } if t == txn => Ok(TmEvent::QueryDone {
            query_index,
            ok,
            proof,
            capability,
        }),
        Msg::ValidateReply { txn: t, reply } if t == txn => {
            Ok(TmEvent::ValidateReply { from, reply })
        }
        Msg::CommitReply { txn: t, reply } if t == txn => Ok(TmEvent::CommitReply { from, reply }),
        Msg::Ack { txn: t } if t == txn => Ok(TmEvent::Ack { from }),
        msg => Err(reply_counts_as_dropped(&msg)),
    }
}
