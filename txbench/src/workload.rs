//! The four benchmark workloads: which deployment each runs on and the
//! transactions it submits.
//!
//! Every submission is a pure function of `(seed, index)` except the
//! credentials of `sharded_zipf`, which come from a lazily issuing wallet
//! directory (issuing is part of that workload's cost). The system under
//! test only ever sees the generated specs and credentials.

use safetx_core::{ConsistencyLevel, ProofScheme, SharedCas};
use safetx_policy::{Atom, Constant, Credential, Policy, PolicyBuilder};
use safetx_runtime::ClusterConfig;
use safetx_sim::SimRng;
use safetx_txn::{Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, TxnId, UserId};
use safetx_workload::{Population, WalletDirectory, Zipf};
use std::time::Duration;

/// Closed-loop clients, one submission in flight each.
pub const CLIENTS: usize = 2;
/// Service TM workers.
pub const WORKERS: usize = 2;
/// Value every seeded item starts at (the store audit's baseline).
pub const SEED_VALUE: i64 = 10;
/// Every `DENY_EVERY`-th submission of `authz_continuous` carries no
/// credential and must be denied.
pub const DENY_EVERY: u64 = 8;
/// Every `CHURN_EVERY`-th submission of `authz_continuous` publishes a new
/// policy version first.
pub const CHURN_EVERY: u64 = 200;
/// Every `CROSS_EVERY`-th submission of `sharded_zipf` spans two shards.
pub const CROSS_EVERY: u64 = 4;

const UNIFORM_KEYS_PER_SERVER: u64 = 100_000;
const HOT_KEYS_PER_SERVER: u64 = 64;
const HOT_ZIPF_THETA: f64 = 1.1;
const HOT_WAL_SYNC_COST: Duration = Duration::from_micros(50);
const SHARDS: usize = 2;
const SERVERS_PER_SHARD: usize = 2;
const SHARDED_USERS: u64 = 1_000_000;
const SHARDED_USER_THETA: f64 = 0.9;
const SHARDED_KEYS: u64 = 1_000_000;
const SHARDED_KEY_THETA: f64 = 1.0;
const WALLET_CACHE: usize = 1024;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Threaded, Continuous/Global, read-mostly, policy churn, denials.
    AuthzContinuous,
    /// Net runtime, Deferred/View, uniform writes.
    WireDeferred,
    /// Threaded, Deferred/View, Zipf(1.1) writes over 64 keys, costly WAL sync.
    HotWrites,
    /// Sharded 2×2, Punctual/View, 1M users with lazy wallets, Zipf keys.
    ShardedZipf,
}

/// The execution backend a workload deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `safetx_runtime::Cluster`.
    Threaded,
    /// `safetx_net::NetCluster`.
    Net,
    /// `safetx_runtime::ShardedCluster`.
    Sharded,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::AuthzContinuous,
        Workload::WireDeferred,
        Workload::HotWrites,
        Workload::ShardedZipf,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AuthzContinuous => "authz_continuous",
            Workload::WireDeferred => "wire_deferred",
            Workload::HotWrites => "hot_writes",
            Workload::ShardedZipf => "sharded_zipf",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The deployment this workload runs on.
    #[must_use]
    pub fn backend(self) -> Backend {
        match self {
            Workload::AuthzContinuous | Workload::HotWrites => Backend::Threaded,
            Workload::WireDeferred => Backend::Net,
            Workload::ShardedZipf => Backend::Sharded,
        }
    }

    /// Shards of the deployment (1 for unsharded backends).
    #[must_use]
    pub fn shards(self) -> usize {
        match self {
            Workload::ShardedZipf => SHARDS,
            _ => 1,
        }
    }

    /// Servers across the whole deployment; their ids are `0..servers`.
    #[must_use]
    pub fn total_servers(self) -> u64 {
        (self.shards() * self.cluster_config().servers) as u64
    }

    /// The (per-shard) cluster configuration. Everything not named here
    /// stays at the repository default.
    #[must_use]
    pub fn cluster_config(self) -> ClusterConfig {
        let (servers, scheme, consistency) = match self {
            Workload::AuthzContinuous => (3, ProofScheme::Continuous, ConsistencyLevel::Global),
            Workload::WireDeferred | Workload::HotWrites => {
                (3, ProofScheme::Deferred, ConsistencyLevel::View)
            }
            Workload::ShardedZipf => (
                SERVERS_PER_SHARD,
                ProofScheme::Punctual,
                ConsistencyLevel::View,
            ),
        };
        ClusterConfig {
            servers,
            scheme,
            consistency,
            wal_sync_cost: (self == Workload::HotWrites).then_some(HOT_WAL_SYNC_COST),
            ..Default::default()
        }
    }

    /// The items seeded on `server` at set-up (each to [`SEED_VALUE`]).
    pub fn seeded_items(self, server: u64) -> impl Iterator<Item = DataItemId> {
        let (first, step, count) = match self {
            Workload::AuthzContinuous | Workload::WireDeferred => {
                (server * UNIFORM_KEYS_PER_SERVER, 1, UNIFORM_KEYS_PER_SERVER)
            }
            Workload::HotWrites => (server * HOT_KEYS_PER_SERVER, 1, HOT_KEYS_PER_SERVER),
            // Key rank r lives on server r mod total.
            Workload::ShardedZipf => {
                let total = self.total_servers();
                (server, total, SHARDED_KEYS.div_ceil(total))
            }
        };
        (0..count)
            .map(move |i| first + i * step)
            .take_while(move |&id| self != Workload::ShardedZipf || id < SHARDED_KEYS)
            .map(DataItemId::new)
    }
}

/// The id of the one policy every workload runs under.
pub const POLICY_ID: PolicyId = PolicyId::new(0);

/// The one policy every workload runs under (version 1 at set-up; the
/// churn of `authz_continuous` republishes the same rules).
#[must_use]
pub fn policy() -> Policy {
    PolicyBuilder::new(POLICY_ID, AdminDomain::new(0))
        .rules_text(
            "grant(read, records) :- role(U, member).\n\
             grant(write, records) :- role(U, member).",
        )
        .expect("benchmark rules parse")
        .build()
}

/// The user of the single-user workloads.
const MEMBER: UserId = UserId::new(1);

/// Issues `user`'s membership credential from `CA0`.
#[must_use]
pub fn issue_member(cas: &SharedCas, user: UserId) -> Credential {
    cas.with_mut(|registry| {
        registry
            .ca_mut(CaId::new(0))
            .expect("every deployment registers CA0")
            .issue(
                user,
                Atom::fact(
                    "role",
                    vec![
                        Constant::symbol(user.to_string()),
                        Constant::symbol("member"),
                    ],
                ),
                Timestamp::ZERO,
                Timestamp::MAX,
            )
    })
}

/// One generated submission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Position in the workload's submission sequence.
    pub index: u64,
    /// The transaction; its id is a placeholder the executor replaces.
    pub spec: TransactionSpec,
    /// Credentials presented (empty for a deliberate denial).
    pub credentials: Vec<Credential>,
    /// False for the deliberately credential-less submissions.
    pub authorized: bool,
    /// True when a new policy version is published before this submission.
    pub publishes: bool,
}

impl Submission {
    /// The `Add` deltas this submission commits, per server index.
    pub fn adds(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        self.spec.queries.iter().flat_map(|q| {
            q.ops.iter().filter_map(move |op| match op {
                Operation::Add(_, delta) => Some((q.server.index(), *delta)),
                _ => None,
            })
        })
    }
}

/// Generates a workload's submissions from its seed.
pub struct Generator {
    workload: Workload,
    seed: u64,
    member: Credential,
    hot: Zipf,
    population: Population,
    wallets: WalletDirectory,
}

impl Generator {
    /// A generator issuing credentials from the deployment's authorities.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, cas: &SharedCas) -> Self {
        Generator {
            workload,
            seed,
            member: issue_member(cas, MEMBER),
            hot: Zipf::new(HOT_KEYS_PER_SERVER as usize, HOT_ZIPF_THETA),
            population: Population::new(
                SHARDED_USERS,
                SHARDED_USER_THETA,
                SHARDED_KEYS,
                SHARDED_KEY_THETA,
            ),
            wallets: WalletDirectory::new(cas.clone(), CaId::new(0), WALLET_CACHE),
        }
    }

    /// Submission number `index`.
    #[must_use]
    pub fn make(&self, index: u64) -> Submission {
        let mut rng = SimRng::new(self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let servers = self.workload.total_servers();
        let (user, queries, credentials, authorized) = match self.workload {
            Workload::AuthzContinuous => {
                let read_only = rng.range_u64(0, 4) != 0;
                let queries = (0..servers)
                    .map(|s| {
                        let item = DataItemId::new(
                            s * UNIFORM_KEYS_PER_SERVER + rng.range_u64(0, UNIFORM_KEYS_PER_SERVER),
                        );
                        if read_only {
                            QuerySpec::new(
                                ServerId::new(s),
                                "read",
                                "records",
                                vec![Operation::Read(item)],
                            )
                        } else {
                            write(s, item)
                        }
                    })
                    .collect();
                let authorized = index % DENY_EVERY != DENY_EVERY - 1;
                let credentials = if authorized {
                    vec![self.member.clone()]
                } else {
                    vec![]
                };
                (MEMBER, queries, credentials, authorized)
            }
            Workload::WireDeferred => {
                let queries = (0..servers)
                    .map(|s| {
                        write(
                            s,
                            DataItemId::new(
                                s * UNIFORM_KEYS_PER_SERVER
                                    + rng.range_u64(0, UNIFORM_KEYS_PER_SERVER),
                            ),
                        )
                    })
                    .collect();
                (MEMBER, queries, vec![self.member.clone()], true)
            }
            Workload::HotWrites => {
                let queries = (0..servers)
                    .map(|s| {
                        let rank = self.hot.sample(&mut rng) as u64;
                        write(s, DataItemId::new(s * HOT_KEYS_PER_SERVER + rank))
                    })
                    .collect();
                (MEMBER, queries, vec![self.member.clone()], true)
            }
            Workload::ShardedZipf => {
                let user = self.population.sample_user(&mut rng);
                let rank = self.population.sample_item(&mut rng);
                let server = rank % servers;
                let mut queries = vec![write(server, DataItemId::new(rank))];
                if index % CROSS_EVERY == CROSS_EVERY - 1 {
                    // A second key on another shard: draw ranks until one
                    // lands there (half the ranks do with two shards).
                    let per_shard = SERVERS_PER_SHARD as u64;
                    let home = server / per_shard;
                    let other = loop {
                        let r = self.population.sample_item(&mut rng);
                        if (r % servers) / per_shard != home {
                            break r;
                        }
                    };
                    queries.push(write(other % servers, DataItemId::new(other)));
                }
                (user, queries, self.wallets.wallet(user).to_vec(), true)
            }
        };
        Submission {
            index,
            spec: TransactionSpec::new(TxnId::new(index), user, queries),
            credentials,
            authorized,
            publishes: self.workload == Workload::AuthzContinuous
                && index % CHURN_EVERY == CHURN_EVERY - 1,
        }
    }
}

fn write(server: u64, item: DataItemId) -> QuerySpec {
    QuerySpec::new(
        ServerId::new(server),
        "write",
        "records",
        vec![Operation::Add(item, 1)],
    )
}
