//! The replay host: one thread drives a `TmCore` and one `ServerCore` per
//! server over the workload's specs, one transaction at a time, and times
//! every public call into the cores (and, for the wire workload, the codec
//! round trip of every message). Without threads or channels in between,
//! the times are the cores' own work, free of hand-offs and contention.
//!
//! The runtimes' reply-to-event mappings are private to them, so the host
//! carries its own ([`tm_event`]).

use crate::deploy::ChurnLog;
use crate::trace::{Span, Tracer};
use crate::workload::{policy, Backend, Workload, CHURN_EVERY, POLICY_ID, SEED_VALUE};
use safetx_core::{
    Msg, ResourcePolicyMap, ServerCore, SharedCas, SharedCatalog, TmConfig, TmCore, TmEffect,
    TmEvent, TxnTermination,
};
use safetx_policy::{CaRegistry, CertificateAuthority, Credential};
use safetx_runtime::resolve_concurrency;
use safetx_store::Value;
use safetx_txn::TransactionSpec;
use safetx_types::{CaId, ServerId, Timestamp, TxnId};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Time spent in each layer while replaying.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `TmCore::start` and `TmCore::step`.
    pub tm: Duration,
    /// `ServerCore::handle` on `ExecQuery`.
    pub exec: Duration,
    /// `ServerCore::handle` on 2PV validate and update messages.
    pub validate: Duration,
    /// `ServerCore::handle` on `PrepareToCommit`.
    pub vote: Duration,
    /// `ServerCore::handle` on the decision (WAL force and sync included).
    pub decide: Duration,
    /// `ServerCore::handle` on anything else.
    pub other: Duration,
    /// `encode_msg` plus `decode_msg` of every message (wire workload).
    pub codec: Duration,
}

impl LayerTimes {
    /// Time in the two sans-io cores.
    #[must_use]
    pub fn core(&self) -> Duration {
        self.tm + self.exec + self.validate + self.vote + self.decide + self.other
    }

    /// Adds another replay's times.
    pub fn add(&mut self, other: &LayerTimes) {
        self.tm += other.tm;
        self.exec += other.exec;
        self.validate += other.validate;
        self.vote += other.vote;
        self.decide += other.decide;
        self.other += other.other;
        self.codec += other.codec;
    }
}

/// One replayed transaction.
#[derive(Debug)]
pub struct Replayed {
    /// The TM core's termination record.
    pub termination: TxnTermination,
    /// Where its time went.
    pub times: LayerTimes,
}

/// The single-threaded deployment the replay drives.
pub struct ReplayHost {
    config: TmConfig,
    catalog: SharedCatalog,
    cas: SharedCas,
    /// Addressed by `()`: the TM is the only peer a server replies to.
    servers: Vec<ServerCore<()>>,
    churn: ChurnLog,
    codec: bool,
    epoch: Instant,
    next_txn: u64,
}

enum Delivery {
    ToServer(ServerId, Msg),
    ToTm(ServerId, Msg),
}

impl ReplayHost {
    /// Builds the workload's servers exactly as its deployment does:
    /// same catalog bootstrap, certificate authority, store seed, WAL sync
    /// cost and concurrency mode.
    #[must_use]
    pub fn new(workload: Workload) -> ReplayHost {
        let config = workload.cluster_config();
        let catalog = SharedCatalog::new();
        let mut registry = CaRegistry::new();
        registry.register(CertificateAuthority::new(CaId::new(0), 0x7331));
        let cas = SharedCas::new(registry);
        let initial = policy();
        catalog.publish(initial.clone());
        let servers = (0..workload.total_servers())
            .map(|s| {
                let mut core = ServerCore::new(
                    ServerId::new(s),
                    catalog.clone(),
                    ResourcePolicyMap::single(initial.id()),
                    cas.clone(),
                    config.variant,
                );
                if let Some(cost) = config.wal_sync_cost {
                    core.set_wal_sync_cost(cost);
                }
                core.set_concurrency(resolve_concurrency(&config));
                core.install_policy(initial.id(), initial.version());
                for item in workload.seeded_items(s) {
                    core.store_mut()
                        .write(item, Value::Int(SEED_VALUE), Timestamp::ZERO);
                }
                core
            })
            .collect();
        ReplayHost {
            config: TmConfig::new(config.scheme, config.consistency, config.variant),
            catalog,
            cas,
            servers,
            churn: ChurnLog::new(initial),
            codec: workload.backend() == Backend::Net,
            epoch: Instant::now(),
            next_txn: 0,
        }
    }

    /// The host's certificate authorities (to issue replay credentials).
    #[must_use]
    pub fn cas(&self) -> &SharedCas {
        &self.cas
    }

    /// The churn step of the live deployment: publish the next version and
    /// install it at one server, rotating with `index`.
    pub fn publish_churn(&mut self, index: u64) {
        let version = self.churn.publish(&self.catalog);
        let server = (index / CHURN_EVERY) as usize % self.servers.len();
        self.servers[server].install_policy(POLICY_ID, version);
    }

    fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Replays one transaction to completion, then delivers the messages
    /// still owed to servers (decisions) so every server is quiescent.
    /// When `trace` is given, each timed call also becomes a child span of
    /// a `replay.txn` root.
    ///
    /// # Panics
    ///
    /// Panics when the cores stop making progress before the transaction
    /// finishes, or when a message fails the codec round trip — protocol
    /// or codec bugs.
    pub fn run(
        &mut self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        trace: Option<(&Tracer, &mut Vec<Span>, u64)>,
    ) -> Replayed {
        let mut spec = spec.clone();
        self.next_txn += 1;
        spec.id = TxnId::new(self.next_txn);
        let txn = spec.id;
        let began = Instant::now();
        let mut clock = Clock {
            root: trace.as_ref().map_or(0, |(tracer, _, _)| tracer.id()),
            trace,
            times: LayerTimes::default(),
        };
        let mut queue: VecDeque<Delivery> = VecDeque::new();
        let mut termination = None;

        let started = Instant::now();
        let mut core = TmCore::new(self.config, spec, credentials.to_vec(), self.now());
        let mut effects = core.start(self.now());
        clock.record("core.tm", started);
        loop {
            let mut consult_master = false;
            for effect in effects.drain(..) {
                match effect {
                    TmEffect::Send(server, msg) => queue.push_back(Delivery::ToServer(server, msg)),
                    TmEffect::QueryMaster => consult_master = true,
                    TmEffect::Finished(t) => termination = Some(*t),
                    TmEffect::ForceLog { .. }
                    | TmEffect::Log(_)
                    | TmEffect::ArmTimer(_)
                    | TmEffect::Decided(_) => {}
                }
            }
            if consult_master && termination.is_none() {
                let started = Instant::now();
                let versions = self.catalog.latest_snapshot().1;
                effects = core.step(self.now(), TmEvent::MasterVersions { versions });
                clock.record("core.tm", started);
                continue;
            }
            let Some(delivery) = queue.pop_front() else {
                break;
            };
            match delivery {
                Delivery::ToServer(server, msg) => {
                    let msg = self.round_trip(msg, &mut clock);
                    let name = match &msg {
                        Msg::ExecQuery { .. } => "core.exec",
                        Msg::PrepareToValidate { .. } | Msg::Update { .. } => "core.validate",
                        Msg::PrepareToCommit { .. } => "core.vote",
                        Msg::Decision { .. } => "core.decide",
                        _ => "core.other",
                    };
                    let now = self.now();
                    let started = Instant::now();
                    let replies = self.servers[server.index() as usize].handle(now, (), msg);
                    clock.record(name, started);
                    queue.extend(
                        replies
                            .into_iter()
                            .map(|((), reply)| Delivery::ToTm(server, reply)),
                    );
                }
                Delivery::ToTm(from, msg) => {
                    if termination.is_some() {
                        // Post-decision stragglers (acks) have no one to
                        // read them, exactly as in the live drivers.
                        continue;
                    }
                    let inner = match self.round_trip(msg, &mut clock) {
                        Msg::Batch(msgs) => msgs,
                        msg => vec![msg],
                    };
                    for msg in inner {
                        if let Some(event) = tm_event(txn, from, msg) {
                            let started = Instant::now();
                            effects.extend(core.step(self.now(), event));
                            clock.record("core.tm", started);
                        }
                    }
                }
            }
        }
        let termination = termination.expect("replayed transaction ran to completion");
        let Clock { root, trace, times } = clock;
        if let Some((tracer, spans, index)) = trace {
            spans.push(tracer.span_with_id(root, index, 0, "replay.txn", began, Instant::now()));
        }
        Replayed { termination, times }
    }

    /// Encodes and decodes `msg` when replaying the wire workload (timed as
    /// `net.codec`); passes it through otherwise.
    fn round_trip(&self, msg: Msg, clock: &mut Clock<'_>) -> Msg {
        if !self.codec {
            return msg;
        }
        let started = Instant::now();
        let bytes = safetx_net::encode_msg(&msg);
        let decoded =
            safetx_net::decode_msg(&bytes).expect("codec round trip of a replayed message");
        clock.record("net.codec", started);
        decoded
    }
}

/// Accumulates one replay's layer times and, when tracing, its spans.
struct Clock<'a> {
    root: u64,
    trace: Option<(&'a Tracer, &'a mut Vec<Span>, u64)>,
    times: LayerTimes,
}

impl Clock<'_> {
    fn record(&mut self, name: &'static str, started: Instant) {
        let ended = Instant::now();
        let slot = match name {
            "core.tm" => &mut self.times.tm,
            "core.exec" => &mut self.times.exec,
            "core.validate" => &mut self.times.validate,
            "core.vote" => &mut self.times.vote,
            "core.decide" => &mut self.times.decide,
            "net.codec" => &mut self.times.codec,
            _ => &mut self.times.other,
        };
        *slot += ended - started;
        if let Some((tracer, spans, index)) = &mut self.trace {
            spans.push(tracer.span(*index, self.root, name, started, ended));
        }
    }
}

/// The replay host's reply-to-event mapping: a server's reply for `txn`
/// becomes the `TmEvent` it carries; anything else is a straggler.
fn tm_event(txn: TxnId, from: ServerId, msg: Msg) -> Option<TmEvent> {
    match msg {
        Msg::QueryDone {
            txn: t,
            query_index,
            ok,
            proof,
            capability,
        } if t == txn => Some(TmEvent::QueryDone {
            query_index,
            ok,
            proof,
            capability,
        }),
        Msg::ValidateReply { txn: t, reply } if t == txn => {
            Some(TmEvent::ValidateReply { from, reply })
        }
        Msg::CommitReply { txn: t, reply } if t == txn => {
            Some(TmEvent::CommitReply { from, reply })
        }
        Msg::Ack { txn: t } if t == txn => Some(TmEvent::Ack { from }),
        _ => None,
    }
}
