//! Building a workload's deployment and checking what it stored.

use crate::workload::{policy, Backend, Generator, Workload, CHURN_EVERY, POLICY_ID, SEED_VALUE};
use safetx_core::{ConsistencyLevel, ServerCore, ServerCounters, SharedCatalog, TransactionView};
use safetx_net::NetCluster;
use safetx_policy::Policy;
use safetx_runtime::{Cluster, ShardedCluster, ShardedConfig};
use safetx_service::RuntimeKind;
use safetx_store::Value;
use safetx_types::{PolicyVersion, ServerId, Timestamp};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A running deployment of one workload, ready for its first submission.
pub struct Deployment {
    /// Which workload this deployment serves.
    pub workload: Workload,
    /// The execution backend.
    pub runtime: RuntimeKind,
    /// The workload's submission generator.
    pub generator: Generator,
    /// Every policy version published, with when.
    pub churn: ChurnLog,
}

/// What a configuration probe reads off one server.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreProbe {
    /// Sum of every integer item in the server's store.
    pub store_sum: i64,
    /// The server's cumulative instrumentation counters.
    pub counters: ServerCounters,
    /// Engine runs of the server's data plane.
    pub engine_runs: u64,
}

fn probe_core<A: Clone>(core: &ServerCore<A>) -> CoreProbe {
    CoreProbe {
        store_sum: core
            .store()
            .iter()
            .filter_map(|(_, item)| item.value.as_int())
            .sum(),
        counters: core.counters(),
        engine_runs: core.data_plane().engine_evaluations(),
    }
}

fn seed_core<A: Clone>(core: &mut ServerCore<A>, workload: Workload) {
    let server = core.id().index();
    let store = core.store_mut();
    for item in workload.seeded_items(server) {
        store.write(item, Value::Int(SEED_VALUE), Timestamp::ZERO);
    }
}

impl Deployment {
    /// Builds the cluster, seeds every store, publishes the policy and
    /// issues the workload's credentials.
    #[must_use]
    pub fn build(workload: Workload, seed: u64) -> Deployment {
        let config = workload.cluster_config();
        let runtime = match workload.backend() {
            Backend::Threaded => RuntimeKind::Threaded(Arc::new(Cluster::new(config))),
            Backend::Net => RuntimeKind::Net(Arc::new(NetCluster::new(config))),
            Backend::Sharded => {
                RuntimeKind::Sharded(Arc::new(ShardedCluster::new(ShardedConfig {
                    shards: workload.shards(),
                    cluster: config,
                })))
            }
        };
        let initial = policy();
        runtime.publish_policy(initial.clone());
        let deployment = Deployment {
            workload,
            generator: Generator::new(workload, seed, runtime.cas()),
            churn: ChurnLog::new(initial),
            runtime,
        };
        for server in deployment.servers() {
            deployment.configure(
                server,
                move |core| seed_core(core, workload),
                move |core| seed_core(core, workload),
            );
        }
        deployment
    }

    /// The deployment's server ids.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> {
        (0..self.workload.total_servers()).map(ServerId::new)
    }

    /// Runs a configuration closure on a server's event loop. The two
    /// closures are the same operation for the two address types servers
    /// are instantiated with.
    fn configure(
        &self,
        server: ServerId,
        channel: impl FnOnce(&mut ServerCore<safetx_runtime::Addr>) + Send + 'static,
        wire: impl FnOnce(&mut ServerCore<safetx_net::NetAddr>) + Send + 'static,
    ) {
        match &self.runtime {
            RuntimeKind::Threaded(c) => c.configure_server(server, channel),
            RuntimeKind::Net(c) => c.configure_server(server, wire),
            RuntimeKind::Sharded(c) => c.configure_server(server, channel),
        }
    }

    /// Reads one server's store sum and counters.
    #[must_use]
    pub fn probe(&self, server: ServerId) -> CoreProbe {
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        self.configure(
            server,
            move |core| {
                let _ = tx.send(probe_core(core));
            },
            move |core| {
                let _ = tx2.send(probe_core(core));
            },
        );
        rx.recv().expect("server answers a probe")
    }

    /// Sum of every server's probe counters.
    #[must_use]
    pub fn probe_all(&self) -> CoreProbe {
        let mut total = CoreProbe::default();
        for server in self.servers() {
            let p = self.probe(server);
            total.store_sum += p.store_sum;
            total.counters.proofs += p.counters.proofs;
            total.counters.forced_logs += p.counters.forced_logs;
            total.counters.physical_syncs += p.counters.physical_syncs;
            total.counters.proof_cache.hits += p.counters.proof_cache.hits;
            total.counters.proof_cache.misses += p.counters.proof_cache.misses;
            total.counters.proof_cache.invalidations += p.counters.proof_cache.invalidations;
            total.engine_runs += p.engine_runs;
        }
        total
    }

    /// Publishes a new version of the policy and installs it at one
    /// server only (rotating with `index`), leaving the protocol to bring
    /// the others up to date.
    pub fn publish_churn(&self, index: u64) {
        let version = self.churn.publish(self.runtime.catalog());
        let server = ServerId::new(index / CHURN_EVERY % self.workload.total_servers());
        self.configure(
            server,
            move |core| core.install_policy(POLICY_ID, version),
            move |core| core.install_policy(POLICY_ID, version),
        );
    }

    /// Checks every server's store: its item sum must equal the seeded
    /// sum plus the committed `Add`s routed to it (`added[server]`).
    ///
    /// # Errors
    ///
    /// Names the first server whose sum disagrees.
    pub fn audit_store(&self, added: &[i64]) -> Result<(), String> {
        for server in self.servers() {
            let seeded = self.workload.seeded_items(server.index()).count() as i64 * SEED_VALUE;
            let expected = seeded + added.get(server.index() as usize).copied().unwrap_or(0);
            let found = self.probe(server).store_sum;
            if found != expected {
                return Err(format!(
                    "store audit: server {server} sums to {found}, expected {expected} \
                     (seeded {seeded} + committed adds)"
                ));
            }
        }
        Ok(())
    }
}

/// One published policy version and the interval its publish spanned.
#[derive(Debug, Clone, Copy)]
pub struct VersionRecord {
    /// The version.
    pub version: PolicyVersion,
    /// Taken just before the catalog publish.
    pub before: Instant,
    /// Taken just after it.
    pub after: Instant,
}

/// The policy's publish history, for the churn-aware Definition 4 audit.
pub struct ChurnLog {
    state: Mutex<(Policy, Vec<VersionRecord>)>,
}

impl ChurnLog {
    /// A log whose first version (already published) is `initial`.
    #[must_use]
    pub fn new(initial: Policy) -> ChurnLog {
        let now = Instant::now();
        let record = VersionRecord {
            version: initial.version(),
            before: now,
            after: now,
        };
        ChurnLog {
            state: Mutex::new((initial, vec![record])),
        }
    }

    /// Publishes the next version of the same rules to `catalog`.
    pub fn publish(&self, catalog: &SharedCatalog) -> PolicyVersion {
        let mut state = self.state.lock().expect("churn log lock");
        let next = state.0.updated(state.0.rules().clone());
        let version = next.version();
        let before = Instant::now();
        catalog.publish(next.clone());
        let after = Instant::now();
        state.0 = next;
        state.1.push(VersionRecord {
            version,
            before,
            after,
        });
        version
    }

    /// Versions that were the latest at some instant between `submitted`
    /// and `completed`: a version counts from just before its publish
    /// until just after its successor's.
    #[must_use]
    pub fn candidates(&self, submitted: Instant, completed: Instant) -> Vec<PolicyVersion> {
        let state = self.state.lock().expect("churn log lock");
        let history = &state.1;
        history
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                r.before <= completed
                    && history
                        .get(i + 1)
                        .is_none_or(|next| next.after >= submitted)
            })
            .map(|(_, r)| r.version)
            .collect()
    }

    /// Definition 4 against the versions that were current while the
    /// transaction ran: trusted under at least one of them.
    #[must_use]
    pub fn audit(
        &self,
        view: &TransactionView,
        level: ConsistencyLevel,
        submitted: Instant,
        completed: Instant,
    ) -> bool {
        self.candidates(submitted, completed)
            .into_iter()
            .any(|version| {
                let authority = std::collections::BTreeMap::from([(POLICY_ID, version)]);
                safetx_core::trusted::is_trusted(view, level, &authority)
            })
    }
}
