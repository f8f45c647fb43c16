//! The cloud server: query execution, proof evaluation, participant side of
//! 2PV/2PVC, and crash recovery.
//!
//! The protocol logic lives in [`ServerCore`], a sans-io handler generic
//! over the address type `A` of its peers: `handle` consumes one message
//! and returns the messages to send. [`CloudServerActor`] adapts it to the
//! discrete-event simulator (`A = NodeId`); the `safetx-runtime` crate
//! adapts the same core to crossbeam channels.

use crate::catalog::{ResourcePolicyMap, SharedCatalog};
use crate::concurrency::ConcurrencyMode;
use crate::messages::{AddressBook, Msg};
use crate::validation::{ValidationReply, VersionMap};
use safetx_policy::{
    evaluate_proof, AccessRequest, CaRegistry, Credential, CredentialStatus, Engine, FactBase,
    ProofContext, ProofOfAuthorization, ProofOutcome, StatusOracle, SyntacticCheck,
};
use safetx_sim::{Actor, Context, NodeId};
use safetx_store::{
    ConstraintSet, LocalStore, LockManager, LockMode, MvccOverlay, ReadSet, SnapshotId, Wal,
    WriteSet,
};
use safetx_txn::{
    CommitVariant, Operation, Participant, ParticipantOutput, ParticipantRecord, ParticipantState,
    QuerySpec, Vote,
};
use safetx_types::{CredentialId, PolicyVersion, ServerId, Timestamp, TxnId, UserId};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Shared handle to the deployment's certificate authorities.
///
/// The paper assumes "each CA offers an online method that allows any server
/// to check the current status of a particular credential"; this handle is
/// that online method. Workloads revoke credentials through it mid-run.
///
/// The handle also maintains a **revocation epoch**: a counter bumped on
/// every mutation of CA state (issue, revoke, register). Proof caches key
/// their validity on this epoch, so any oracle state change — however
/// small — flushes every cached authorization decision that might have
/// depended on it. This is what preserves the paper's time-dependent
/// semantic validity check under caching: a credential revoked in
/// `[ti, t]` can never be served from a pre-revocation cache entry.
#[derive(Debug, Clone, Default)]
pub struct SharedCas {
    inner: Arc<RwLock<CaRegistry>>,
    epoch: Arc<std::sync::atomic::AtomicU64>,
}

impl SharedCas {
    /// Wraps a registry.
    #[must_use]
    pub fn new(registry: CaRegistry) -> Self {
        SharedCas {
            inner: Arc::new(RwLock::new(registry)),
            epoch: Arc::default(),
        }
    }

    /// Runs `f` with mutable access (issue/revoke operations). Always bumps
    /// the revocation epoch: callers get mutable registry access only
    /// through here, so every possible oracle state change is covered.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut CaRegistry) -> R) -> R {
        let result = f(&mut self.inner.write().expect("CA lock poisoned"));
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        result
    }

    /// The current revocation epoch. Two equal observations bracket a span
    /// with no CA state change.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The recorded revocation instant for `credential`, including
    /// future-dated revocations not yet visible to `status`.
    #[must_use]
    pub fn revocation_instant(&self, credential: CredentialId) -> Option<Timestamp> {
        self.inner
            .read()
            .expect("CA lock poisoned")
            .revocation_instant(credential)
    }
}

impl StatusOracle for SharedCas {
    fn status(&self, credential: CredentialId, at: Timestamp) -> CredentialStatus {
        self.inner
            .read()
            .expect("CA lock poisoned")
            .status(credential, at)
    }

    fn verify(&self, credential: &Credential, at: Timestamp) -> SyntacticCheck {
        self.inner
            .read()
            .expect("CA lock poisoned")
            .verify(credential, at)
    }
}

/// Per-transaction state at one server.
#[derive(Debug)]
struct ServerTxn<A> {
    user: UserId,
    credentials: Arc<[Credential]>,
    /// Queries seen here: `(index within transaction, spec)`.
    queries: Vec<(usize, Arc<QuerySpec>)>,
    /// Query indexes whose data operations already ran. A duplicated
    /// `ExecQuery` (fault injection, retransmission) must not re-acquire
    /// locks or re-apply `Add` deltas to the write set.
    executed: std::collections::BTreeSet<usize>,
    writes: WriteSet,
    /// OCC only: the version observed for every item read from the store
    /// (empty under locking). Validated against the live store at the
    /// 2PVC vote.
    reads: ReadSet,
    /// OCC only: the begin-time snapshot queries read through, opened at
    /// the transaction's first executed query and released when the
    /// decision removes the transaction.
    snapshot: Option<SnapshotId>,
    participant: Participant,
    coordinator: A,
}

/// Instrumentation counters exposed by [`ServerCore`] (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Proof evaluations performed (cache hits included: a hit still *is*
    /// a proof evaluation in the paper's cost model).
    pub proofs: u64,
    /// Forced log writes performed (logical — the paper's metric, never
    /// changed by group commit).
    pub forced_logs: u64,
    /// Physical WAL syncs performed (≤ `forced_logs`; wall-clock effect
    /// only, like the cache stats).
    pub physical_syncs: u64,
    /// Proof-cache instrumentation (wall-clock effect only).
    pub proof_cache: safetx_metrics::ProofCacheStats,
}

/// Cache key for one proof-of-authorization decision. Everything the
/// outcome depends on is either in the key (policy identity and version,
/// requester, the exact credential list in presentation order, the request)
/// or guarded by an invalidation signal (CA revocation epoch, ambient
/// facts, resource→policy mapping).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProofCacheKey {
    policy: safetx_types::PolicyId,
    version: PolicyVersion,
    user: UserId,
    /// Presentation order matters: evaluation short-circuits on the first
    /// invalid credential, so a reordered list is a different computation.
    credentials: Vec<CredentialId>,
    action: String,
    resource: String,
}

/// One cached decision and the time window it provably covers.
#[derive(Debug, Clone)]
struct CachedProof {
    outcome: ProofOutcome,
    /// First instant the entry answers for (the original evaluation time).
    valid_from: Timestamp,
    /// Exclusive horizon: the earliest instant at which some credential's
    /// status can flip without a CA mutation (its validity-window start or
    /// end, or an already-recorded future revocation instant).
    valid_until: Timestamp,
}

/// Per-server proof cache with whole-cache epoch invalidation.
#[derive(Debug, Default)]
struct ProofCache {
    entries: HashMap<ProofCacheKey, CachedProof>,
    /// The CA revocation epoch the entries were computed under.
    epoch: u64,
    stats: safetx_metrics::ProofCacheStats,
    disabled: bool,
}

impl ProofCache {
    /// Drops every entry, counting them as invalidations.
    fn invalidate_all(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Aligns the cache with the oracle's revocation epoch, flushing stale
    /// entries when CA state changed since they were computed.
    fn sync_epoch(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.invalidate_all();
            self.epoch = epoch;
        }
    }

    /// Looks up a decision valid at `now`.
    fn get(&mut self, key: &ProofCacheKey, now: Timestamp) -> Option<ProofOutcome> {
        if self.disabled {
            return None;
        }
        match self.entries.get(key) {
            Some(entry) if entry.valid_from <= now && now < entry.valid_until => {
                self.stats.hits += 1;
                Some(entry.outcome.clone())
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }
}

/// Derives a server's capability-signing key from its id (the deployment's
/// shared key ring: every server can verify every other server's
/// capabilities, as the paper's Section III-A assumes).
#[must_use]
pub fn capability_key(server: ServerId) -> u64 {
    0xCAB1_11E7_0000_0000 ^ server.index().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The data plane of one cloud server: everything proof evaluation touches
/// (catalog, CAs, engine, installed versions, proof cache), kept apart
/// from the protocol plane that [`ServerCore`] owns (lock decisions, WAL
/// forces, 2PVC votes, per-transaction state).
///
/// Owned by its [`ServerCore`] and mutated only through it, on the
/// server's one thread; [`ServerCore::data_plane`] hands out read-only
/// access for instrumentation. The only input shared across threads is
/// the CA registry ([`SharedCas`]), which workloads revoke against
/// mid-run — hence the revocation-epoch re-check before a cache insert.
pub struct DataPlane {
    id: ServerId,
    catalog: SharedCatalog,
    cas: SharedCas,
    engine: Engine,
    resource_map: ResourcePolicyMap,
    ambient: FactBase,
    /// Versions of each policy currently installed at this replica.
    installed: VersionMap,
    proof_cache: ProofCache,
    /// Proof evaluations performed (cache hits included).
    proofs: u64,
    /// Full engine evaluations: cache misses that actually ran the
    /// credential checks and the inference engine. Excludes cache hits.
    engine_evals: u64,
}

impl std::fmt::Debug for DataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataPlane").field("id", &self.id).finish()
    }
}

impl DataPlane {
    fn new(
        id: ServerId,
        catalog: SharedCatalog,
        resource_map: ResourcePolicyMap,
        cas: SharedCas,
    ) -> Self {
        DataPlane {
            id,
            catalog,
            cas,
            engine: Engine::new(),
            resource_map,
            ambient: FactBase::new(),
            installed: VersionMap::new(),
            proof_cache: ProofCache::default(),
            proofs: 0,
            engine_evals: 0,
        }
    }

    /// Full engine evaluations performed so far (cache misses that ran the
    /// credential checks and the engine; cache hits excluded).
    /// Instrumentation only — the paper's proof count is
    /// [`ServerCounters::proofs`].
    #[must_use]
    pub fn engine_evaluations(&self) -> u64 {
        self.engine_evals
    }

    /// Installs an initial policy version at the replica.
    fn install_policy(&mut self, policy: safetx_types::PolicyId, version: PolicyVersion) {
        use std::collections::btree_map::Entry;
        match self.installed.entry(policy) {
            Entry::Vacant(slot) => {
                slot.insert(version);
            }
            Entry::Occupied(mut slot) if version > *slot.get() => {
                slot.insert(version);
            }
            Entry::Occupied(_) => return,
        }
        self.proof_cache.invalidate_all();
    }

    /// Enables or disables the proof cache (enabled by default).
    fn set_proof_cache(&mut self, enabled: bool) {
        self.proof_cache.disabled = !enabled;
        if !enabled {
            self.proof_cache.entries.clear();
        }
    }

    /// Runs `f` with mutable access to the ambient fact base (e.g. observed
    /// locations). Invalidates cached proofs: ambient facts feed every
    /// evaluation.
    fn with_ambient<R>(&mut self, f: impl FnOnce(&mut FactBase) -> R) -> R {
        let result = f(&mut self.ambient);
        self.proof_cache.invalidate_all();
        result
    }

    /// Runs `f` with mutable access to the resource → policy mapping
    /// (multi-domain deployments). Invalidates cached proofs: the mapping
    /// picks which policy governs each resource.
    fn with_resource_map<R>(&mut self, f: impl FnOnce(&mut ResourcePolicyMap) -> R) -> R {
        let result = f(&mut self.resource_map);
        self.proof_cache.invalidate_all();
        result
    }

    /// Fast-forwards the replica toward target versions available in the
    /// catalog. Never moves backward. Any actual version movement is a
    /// policy install and flushes the proof cache.
    fn fast_forward(&mut self, targets: &VersionMap) {
        use std::collections::btree_map::Entry;
        let mut installed_any = false;
        for (&policy, &version) in targets {
            match self.installed.entry(policy) {
                Entry::Vacant(slot) => {
                    slot.insert(version);
                    installed_any = true;
                }
                Entry::Occupied(mut slot) => {
                    if version > *slot.get() && self.catalog.fetch(policy, version).is_ok() {
                        slot.insert(version);
                        installed_any = true;
                    }
                }
            }
        }
        if installed_any {
            self.proof_cache.invalidate_all();
        }
    }

    /// The policy governing `query`'s resource and the version installed
    /// here.
    fn governing_policy(&self, query: &QuerySpec) -> (safetx_types::PolicyId, PolicyVersion) {
        let policy_id = self
            .resource_map
            .policy_for(&query.resource)
            .unwrap_or_else(|| panic!("resource `{}` bound to no policy", query.resource));
        let version = self
            .installed
            .get(&policy_id)
            .copied()
            .unwrap_or(PolicyVersion::INITIAL);
        (policy_id, version)
    }

    /// Evaluates the proof of authorization for one query at the currently
    /// installed policy version.
    ///
    /// Consults the per-server proof cache first: a hit returns the cached
    /// decision without running the Datalog engine or the credential status
    /// oracle, but still counts as a proof evaluation in
    /// [`ServerCounters::proofs`] — the paper's Table I cost model is about
    /// *how many* proofs each scheme demands, not how fast one is computed.
    /// Identical requests within one server round therefore run the engine
    /// once: the first misses and inserts, the rest hit.
    fn evaluate_one(
        &mut self,
        now: Timestamp,
        user: UserId,
        credentials: &[Credential],
        query: &QuerySpec,
    ) -> ProofOfAuthorization {
        self.proofs += 1;
        let (policy_id, version) = self.governing_policy(query);
        let credential_ids: Vec<CredentialId> = credentials.iter().map(Credential::id).collect();
        let proof = |credentials, outcome| ProofOfAuthorization {
            request: AccessRequest::new(user, query.action.clone(), query.resource.clone()),
            server: self.id,
            policy_id,
            policy_version: version,
            evaluated_at: now,
            credentials,
            outcome,
        };
        // When the cache is disabled, skip its machinery entirely — no key
        // construction, no validity-horizon lookups.
        let key = (!self.proof_cache.disabled).then(|| ProofCacheKey {
            policy: policy_id,
            version,
            user,
            credentials: credential_ids.clone(),
            action: query.action.clone(),
            resource: query.resource.clone(),
        });
        if let Some(key) = &key {
            self.proof_cache.sync_epoch(self.cas.epoch());
            if let Some(outcome) = self.proof_cache.get(key, now) {
                return proof(credential_ids, outcome);
            }
        }
        // A policy version missing from the catalog can appear at any later
        // instant without an invalidation signal, so this denial is never
        // cached.
        let Ok(policy) = self.catalog.fetch_shared(policy_id, version) else {
            return proof(credential_ids, ProofOutcome::NotDerivable);
        };
        self.engine_evals += 1;
        let pctx = ProofContext {
            policy: policy.as_ref(),
            oracle: &self.cas,
            engine: &self.engine,
            ambient_facts: &self.ambient,
        };
        let request = AccessRequest::new(user, query.action.clone(), query.resource.clone());
        let evaluated = evaluate_proof(&pctx, self.id, &request, credentials, now)
            .unwrap_or_else(|_| proof(credential_ids, ProofOutcome::NotDerivable));
        if let Some(key) = key {
            let valid_until = self.validity_horizon(now, credentials);
            // Skip the insert when the revocation epoch moved while we
            // evaluated: another thread mutated the CAs, and the result may
            // predate the revocation.
            if now < valid_until && self.proof_cache.epoch == self.cas.epoch() {
                self.proof_cache.entries.insert(
                    key,
                    CachedProof {
                        outcome: evaluated.outcome.clone(),
                        valid_from: now,
                        valid_until,
                    },
                );
            }
        }
        evaluated
    }

    /// The earliest instant after `now` at which any of `credentials` can
    /// change status *without* a CA mutation (which would bump the epoch):
    /// a validity window opening or closing, or an already-recorded
    /// future-dated revocation taking effect. Cached decisions are unsound
    /// at or beyond this horizon.
    fn validity_horizon(&self, now: Timestamp, credentials: &[Credential]) -> Timestamp {
        let mut horizon = Timestamp::MAX;
        for cred in credentials {
            if now < cred.issued_at() {
                horizon = horizon.min(cred.issued_at());
            } else if now < cred.expires_at() {
                horizon = horizon.min(cred.expires_at());
            }
            if let Some(revoked_at) = self.cas.revocation_instant(cred.id()) {
                if revoked_at > now {
                    horizon = horizon.min(revoked_at);
                }
            }
        }
        horizon
    }

    /// Fabricates the granted proof a capability shortcut stands for —
    /// recorded with the replica's installed version but with *no* fresh
    /// policy or credential evaluation (hence unsafe).
    fn proof_from_capability(
        &self,
        now: Timestamp,
        user: UserId,
        query: &QuerySpec,
    ) -> ProofOfAuthorization {
        let (policy_id, version) = self.governing_policy(query);
        ProofOfAuthorization {
            request: AccessRequest::new(user, query.action.clone(), query.resource.clone()),
            server: self.id,
            policy_id,
            policy_version: version,
            evaluated_at: now,
            credentials: vec![],
            outcome: ProofOutcome::Granted,
        }
    }
}

/// The sans-io participant logic of one cloud server.
///
/// `A` is the address type of peers: `NodeId` under the simulator, a
/// channel handle under the threaded runtime.
///
/// Internally split into the protocol plane (per-transaction state, write
/// sets, participant state machines, locks, WAL) and a [`DataPlane`]
/// (policy engine, proof cache, installed versions). Both are plain owned
/// state: a server is one thread, and every runtime drives it through
/// [`ServerCore::handle_round`].
pub struct ServerCore<A> {
    id: ServerId,
    data: DataPlane,
    variant: CommitVariant,
    store: LocalStore,
    locks: LockManager,
    /// The concurrency seam: locking takes 2PL locks at query execution;
    /// OCC reads snapshots and validates at the 2PVC vote. Fixed before
    /// traffic; never switched mid-flight.
    concurrency: ConcurrencyMode,
    /// OCC only: before-image overlay giving open transactions their
    /// begin-time snapshot across foreign installs. Quiescent (and
    /// untouched) under locking.
    mvcc: MvccOverlay,
    wal: Wal<ParticipantRecord>,
    constraints: ConstraintSet,
    txns: HashMap<TxnId, ServerTxn<A>>,
    /// Decisions already applied here, keyed by transaction. Guards the
    /// handlers against ghost resurrection: a duplicated or delayed
    /// protocol message arriving *after* the decision must not re-create
    /// transaction state (and leak its locks). Volatile — lost in a crash
    /// and rebuilt from the WAL's decision records on recovery.
    decided: HashMap<TxnId, safetx_txn::Decision>,
    /// Forced log writes performed (protocol plane; proofs live in the
    /// data plane).
    forced_logs: u64,
    /// Baseline behaviour: issue an access capability with each granted
    /// proof (Bob's "read credential").
    issue_capabilities: bool,
    /// Baseline behaviour: accept a peer-issued capability in lieu of a
    /// fresh proof of authorization — the unsafe shortcut of Figure 1.
    honor_capabilities: bool,
}

impl<A: Clone> ServerCore<A> {
    /// Creates a server core.
    #[must_use]
    pub fn new(
        id: ServerId,
        catalog: SharedCatalog,
        resource_map: ResourcePolicyMap,
        cas: SharedCas,
        variant: CommitVariant,
    ) -> Self {
        ServerCore {
            id,
            data: DataPlane::new(id, catalog, resource_map, cas),
            variant,
            store: LocalStore::new(),
            locks: LockManager::new(),
            concurrency: ConcurrencyMode::Locking,
            mvcc: MvccOverlay::new(),
            wal: Wal::new(),
            constraints: ConstraintSet::new(),
            txns: HashMap::new(),
            decided: HashMap::new(),
            forced_logs: 0,
            issue_capabilities: false,
            honor_capabilities: false,
        }
    }

    /// Read access to this server's data plane (proof evaluation, policy
    /// versions, proof cache) for instrumentation.
    #[must_use]
    pub fn data_plane(&self) -> &DataPlane {
        &self.data
    }

    /// Enables or disables the proof cache (enabled by default). Disabling
    /// forces every evaluation through the engine — used by equivalence
    /// tests and cold-path benchmarks.
    pub fn set_proof_cache(&mut self, enabled: bool) {
        self.data.set_proof_cache(enabled);
    }

    /// Enables the unsafe-baseline capability behaviour (issue on grant,
    /// honor instead of re-proving). Used only to quantify the hazard the
    /// paper's schemes eliminate.
    pub fn set_unsafe_baseline(&mut self, enabled: bool) {
        self.issue_capabilities = enabled;
        self.honor_capabilities = enabled;
    }

    /// Selects the concurrency mode (locking by default). Set before any
    /// traffic reaches the server: switching with transactions in flight
    /// is unsupported.
    pub fn set_concurrency(&mut self, mode: ConcurrencyMode) {
        debug_assert!(self.txns.is_empty(), "mode switch with live transactions");
        self.concurrency = mode;
    }

    /// The active concurrency mode.
    #[must_use]
    pub fn concurrency(&self) -> ConcurrencyMode {
        self.concurrency
    }

    /// This server's id.
    #[must_use]
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Installs an initial policy version at the replica.
    pub fn install_policy(&mut self, policy: safetx_types::PolicyId, version: PolicyVersion) {
        self.data.install_policy(policy, version);
    }

    /// The replica's installed versions (owned copy).
    #[must_use]
    pub fn installed_versions(&self) -> VersionMap {
        self.data.installed.clone()
    }

    /// Mutable access to the local data store (harness seeding).
    pub fn store_mut(&mut self) -> &mut LocalStore {
        &mut self.store
    }

    /// Read access to the local data store.
    #[must_use]
    pub fn store(&self) -> &LocalStore {
        &self.store
    }

    /// Mutable access to the integrity constraints (harness seeding).
    pub fn constraints_mut(&mut self) -> &mut ConstraintSet {
        &mut self.constraints
    }

    /// Runs `f` with mutable access to the ambient fact base (e.g.
    /// observed locations). Invalidates cached proofs: ambient facts feed
    /// every evaluation.
    pub fn with_ambient<R>(&mut self, f: impl FnOnce(&mut FactBase) -> R) -> R {
        self.data.with_ambient(f)
    }

    /// Runs `f` with mutable access to the resource → policy mapping
    /// (multi-domain deployments). Invalidates cached proofs.
    pub fn with_resource_map<R>(&mut self, f: impl FnOnce(&mut ResourcePolicyMap) -> R) -> R {
        self.data.with_resource_map(f)
    }

    /// The participant write-ahead log.
    #[must_use]
    pub fn wal(&self) -> &Wal<ParticipantRecord> {
        &self.wal
    }

    /// Cumulative instrumentation counters.
    #[must_use]
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            proofs: self.data.proofs,
            forced_logs: self.forced_logs,
            physical_syncs: self.wal.physical_sync_count(),
            proof_cache: self.data.proof_cache.stats,
        }
    }

    /// WAL force accounting: the paper's logical forces next to the
    /// physical syncs group commit amortized them into.
    #[must_use]
    pub fn wal_stats(&self) -> safetx_metrics::WalStats {
        safetx_metrics::WalStats {
            forced_logs: self.wal.forced_count(),
            physical_syncs: self.wal.physical_sync_count(),
        }
    }

    /// Sets the modeled device latency of one physical WAL sync.
    pub fn set_wal_sync_cost(&mut self, cost: std::time::Duration) {
        self.wal.set_sync_cost(cost);
    }

    /// Number of transactions with live state here.
    #[must_use]
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    /// Fast-forwards the replica toward target versions available in the
    /// catalog. Never moves backward.
    fn fast_forward(&mut self, targets: &VersionMap) {
        self.data.fast_forward(targets);
    }

    /// (Re-)evaluates proofs for every query of `txn` at this server.
    /// Returns `(truth, versions, proofs)`.
    fn evaluate_all(
        &mut self,
        now: Timestamp,
        txn: TxnId,
    ) -> (bool, VersionMap, Vec<ProofOfAuthorization>) {
        let Some(state) = self.txns.get(&txn) else {
            return (true, VersionMap::new(), Vec::new());
        };
        let mut truth = true;
        let mut versions = VersionMap::new();
        let mut proofs = Vec::new();
        for (_, query) in &state.queries {
            let proof = self
                .data
                .evaluate_one(now, state.user, &state.credentials, query);
            truth &= proof.truth();
            versions.insert(proof.policy_id, proof.policy_version);
            proofs.push(proof);
        }
        (truth, versions, proofs)
    }

    /// Executes a query's data operations into the transaction's write
    /// set, through the mode-specific acquire/read path. Returns `false`
    /// on a lock conflict (locking mode only — optimistic execution never
    /// blocks or fails here).
    fn execute_ops(&mut self, txn: TxnId, ops: &[Operation]) -> bool {
        match self.concurrency {
            ConcurrencyMode::Locking => self.execute_ops_locking(txn, ops),
            ConcurrencyMode::Occ => {
                self.execute_ops_occ(txn, ops);
                true
            }
        }
    }

    /// Strict no-wait 2PL: shared/exclusive locks at execution, held to
    /// the decision. Returns `false` on a lock conflict.
    fn execute_ops_locking(&mut self, txn: TxnId, ops: &[Operation]) -> bool {
        for op in ops {
            let mode = if op.is_write() {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            if !self.locks.acquire(txn, op.item(), mode).is_granted() {
                return false;
            }
        }
        let state = self.txns.get_mut(&txn).expect("txn registered");
        for op in ops {
            match op {
                Operation::Read(_) => {}
                Operation::Write(item, value) => state.writes.put(*item, value.clone()),
                Operation::Add(item, delta) => {
                    let current = state
                        .writes
                        .get(*item)
                        .cloned()
                        .or_else(|| self.store.read(*item).map(|v| v.value.clone()))
                        .and_then(|v| v.as_int())
                        .unwrap_or(0);
                    state
                        .writes
                        .put(*item, safetx_store::Value::Int(current + delta));
                }
            }
        }
        true
    }

    /// Optimistic execution: no locks. Reads go through the transaction's
    /// begin-time snapshot and stamp the read set (first read wins);
    /// writes buffer as under locking; `Add` reads its own buffered write
    /// first (no stamp — read-your-own-write needs no validation). Never
    /// fails, so non-conflicting transactions on the same server proceed
    /// without blocking each other.
    fn execute_ops_occ(&mut self, txn: TxnId, ops: &[Operation]) {
        if self.txns.get(&txn).is_some_and(|s| s.snapshot.is_none()) {
            let snap = self.mvcc.begin_snapshot();
            self.txns.get_mut(&txn).expect("checked").snapshot = Some(snap);
        }
        let state = self.txns.get_mut(&txn).expect("txn registered");
        let snap = state.snapshot.expect("snapshot opened above");
        for op in ops {
            match op {
                Operation::Read(item) => {
                    let observed = self
                        .mvcc
                        .read_at(&self.store, snap, *item)
                        .map(|v| v.version);
                    state.reads.record(*item, observed);
                }
                Operation::Write(item, value) => state.writes.put(*item, value.clone()),
                Operation::Add(item, delta) => {
                    let current = match state.writes.get(*item).cloned() {
                        Some(own) => own.as_int(),
                        None => {
                            let read = self.mvcc.read_at(&self.store, snap, *item);
                            state.reads.record(*item, read.map(|v| v.version));
                            read.and_then(|v| v.value.as_int())
                        }
                    }
                    .unwrap_or(0);
                    state
                        .writes
                        .put(*item, safetx_store::Value::Int(current + delta));
                }
            }
        }
    }

    /// OCC commit-scope validation for `txn` (the participant half of the
    /// validation-vote fusion): take no-wait pins — exclusive on the write
    /// set, shared on the read set — through the same lock table locking
    /// mode uses, then check every read stamp against the live store. A
    /// pin conflict or stale stamp returns `false`: the caller votes NO
    /// flagged as a concurrency conflict, and the resulting unilateral
    /// abort releases any partial pins via the decision's `release_all`,
    /// exactly like locking-mode locks.
    fn occ_validate(&mut self, txn: TxnId) -> bool {
        let state = &self.txns[&txn];
        let write_items: Vec<safetx_types::DataItemId> =
            state.writes.iter().map(|(item, _)| item).collect();
        let read_items: Vec<safetx_types::DataItemId> = state
            .reads
            .items()
            .filter(|item| state.writes.get(*item).is_none())
            .collect();
        for item in write_items {
            if !self
                .locks
                .acquire(txn, item, LockMode::Exclusive)
                .is_granted()
            {
                return false;
            }
        }
        for item in read_items {
            if !self.locks.acquire(txn, item, LockMode::Shared).is_granted() {
                return false;
            }
        }
        let state = &self.txns[&txn];
        self.store.validate(&state.reads)
    }

    fn ensure_txn(&mut self, txn: TxnId, user: UserId, credentials: Arc<[Credential]>, coord: A) {
        let variant = self.variant;
        self.txns.entry(txn).or_insert_with(|| ServerTxn {
            user,
            credentials,
            queries: Vec::new(),
            executed: std::collections::BTreeSet::new(),
            writes: WriteSet::new(),
            reads: ReadSet::new(),
            snapshot: None,
            participant: Participant::new(txn, variant),
            coordinator: coord,
        });
    }

    /// Applies participant state-machine outputs, pushing outgoing messages
    /// into `out`.
    fn apply_participant_outputs(
        &mut self,
        now: Timestamp,
        txn: TxnId,
        outputs: Vec<ParticipantOutput>,
        reply: Option<ValidationReply>,
        coordinator: A,
        out: &mut Vec<(A, Msg)>,
    ) {
        for output in outputs {
            match output {
                ParticipantOutput::ForceLog(record) => {
                    self.wal.force(record);
                    self.forced_logs += 1;
                }
                ParticipantOutput::Log(record) => self.wal.append(record),
                ParticipantOutput::SendVote(_) => {
                    if let Some(r) = reply.clone() {
                        out.push((coordinator.clone(), Msg::CommitReply { txn, reply: r }));
                    }
                }
                ParticipantOutput::SendAck => {
                    out.push((coordinator.clone(), Msg::Ack { txn }));
                }
                ParticipantOutput::Apply(decision) => {
                    if decision.is_commit() {
                        if let Some(state) = self.txns.get(&txn) {
                            let writes = state.writes.clone();
                            if self.concurrency == ConcurrencyMode::Occ {
                                // Preserve before-images for concurrently
                                // open snapshots, then install through the
                                // atomic validate-and-install primitive.
                                // Stamps were checked at the vote and the
                                // pins have excluded writers since, so
                                // this succeeds — except when a crash
                                // dropped the read pins before the
                                // decision arrived (locking loses its
                                // shared locks the same way); the global
                                // decision stands, so install regardless.
                                let reads = state.reads.clone();
                                self.mvcc.record_install(&self.store, &writes);
                                if self
                                    .store
                                    .validate_and_install(&reads, &writes, now)
                                    .is_none()
                                {
                                    self.store.apply(&writes, now);
                                }
                            } else {
                                self.store.apply(&writes, now);
                            }
                        }
                    }
                    if let Some(snap) = self.txns.get(&txn).and_then(|s| s.snapshot) {
                        self.mvcc.release_snapshot(snap);
                    }
                    self.locks.release_all(txn);
                    self.txns.remove(&txn);
                    self.decided.insert(txn, decision);
                }
            }
        }
    }

    /// Handles one protocol message arriving from `from` at instant `now`.
    /// Returns the messages to send.
    pub fn handle(&mut self, now: Timestamp, from: A, msg: Msg) -> Vec<(A, Msg)> {
        let mut out = Vec::new();
        self.dispatch(now, from, msg, &mut out);
        out
    }

    /// Handles one server round: every message in arrival order, all at
    /// instant `now`, inside one WAL group-commit window. The window closes
    /// — performing the round's one physical sync — before the replies are
    /// returned, so a vote never outruns the force it acknowledges. The
    /// logical force count, the paper's metric, is unaffected.
    ///
    /// This is the only server round: a runtime drains its queued messages,
    /// calls this once, and sends the replies (coalesced per destination
    /// with [`crate::coalesce_replies`]). A round of one message behaves
    /// exactly like [`ServerCore::handle`], at one physical sync per force.
    pub fn handle_round(
        &mut self,
        now: Timestamp,
        msgs: impl IntoIterator<Item = (A, Msg)>,
    ) -> Vec<(A, Msg)> {
        let mut out = Vec::new();
        self.wal.begin_group();
        for (from, msg) in msgs {
            self.dispatch(now, from, msg, &mut out);
        }
        self.wal.end_group();
        out
    }

    /// Handles one protocol message, pushing the messages to send onto
    /// `out`.
    #[allow(clippy::too_many_lines)]
    fn dispatch(&mut self, now: Timestamp, from: A, msg: Msg, out: &mut Vec<(A, Msg)>) {
        match msg {
            Msg::ExecQuery {
                txn,
                query_index,
                query,
                user,
                credentials,
                evaluate_proof,
                pin_versions,
                capabilities,
            } => {
                // A duplicated/delayed query for an already-decided
                // transaction: re-registering would resurrect ghost state
                // and leak locks; the TM's wait for this reply is over.
                if self.decided.contains_key(&txn) {
                    return;
                }
                self.fast_forward(&pin_versions);
                self.ensure_txn(txn, user, credentials, from.clone());
                let already_executed = {
                    let state = self.txns.get_mut(&txn).expect("just ensured");
                    if !state.queries.iter().any(|(i, _)| *i == query_index) {
                        state.queries.push((query_index, Arc::clone(&query)));
                    }
                    state.executed.contains(&query_index)
                };
                // A duplicate of an already-executed query re-replies (and
                // re-proves when asked) but must not re-run the data
                // operations: `Add` deltas are not idempotent.
                if !already_executed {
                    if !self.execute_ops(txn, &query.ops) {
                        out.push((
                            from,
                            Msg::QueryDone {
                                txn,
                                query_index,
                                ok: false,
                                proof: None,
                                capability: None,
                            },
                        ));
                        return;
                    }
                    self.txns
                        .get_mut(&txn)
                        .expect("just ensured")
                        .executed
                        .insert(query_index);
                }
                // Unsafe baseline: a previously issued capability passes
                // for a proof — no policy evaluation, no credential status
                // check. This is exactly how Bob's stale "read credential"
                // slipped through in the paper's Figure 1.
                let shortcut = self.honor_capabilities
                    && capabilities.iter().any(|cap| {
                        cap.user() == user
                            && cap.txn() == txn
                            && cap.action() == query.action
                            && cap.resource() == query.resource
                            && cap.verify(capability_key(cap.issuer()), now)
                    });
                let proof = if evaluate_proof {
                    if shortcut {
                        Some(self.data.proof_from_capability(now, user, &query))
                    } else {
                        let state = self.txns.get(&txn).expect("just ensured");
                        Some(
                            self.data
                                .evaluate_one(now, state.user, &state.credentials, &query),
                        )
                    }
                } else {
                    None
                };
                let capability = match (&proof, self.issue_capabilities) {
                    (Some(p), true) if p.truth() => Some(safetx_policy::AccessCapability::issue(
                        self.id,
                        capability_key(self.id),
                        user,
                        txn,
                        query.action.clone(),
                        query.resource.clone(),
                        now,
                        now.saturating_add(safetx_types::Duration::from_secs(60)),
                    )),
                    _ => None,
                };
                out.push((
                    from,
                    Msg::QueryDone {
                        txn,
                        query_index,
                        ok: true,
                        proof,
                        capability,
                    },
                ));
            }

            Msg::PrepareToValidate {
                txn,
                new_query,
                user,
                credentials,
            } => {
                // Already decided here: a duplicated or delayed round. No
                // reply is owed, and registering the transaction again would
                // resurrect ghost state.
                if self.decided.contains_key(&txn) {
                    return;
                }
                self.ensure_txn(txn, user, credentials, from.clone());
                if let Some((index, query)) = new_query {
                    let state = self.txns.get_mut(&txn).expect("just ensured");
                    if !state.queries.iter().any(|(i, _)| *i == index) {
                        state.queries.push((index, query));
                    }
                }
                let (truth, versions, proofs) = self.evaluate_all(now, txn);
                out.push((
                    from,
                    Msg::ValidateReply {
                        txn,
                        reply: ValidationReply {
                            vote: Vote::Yes,
                            truth,
                            versions,
                            proofs,
                            conflict: false,
                        },
                    },
                ));
            }

            Msg::PrepareToCommit {
                txn,
                validate,
                expected_queries,
            } => {
                // A duplicated prepare after the decision was applied: the
                // state machine already resolved; re-preparing would build
                // a ghost participant the coordinator never decides.
                if self.decided.contains_key(&txn) {
                    return;
                }
                let known = self.txns.contains_key(&txn);
                // Compare the TM's manifest against the queries actually
                // held: a crash before prepare loses buffered writes, and a
                // later contact may have silently re-registered the
                // transaction — the mismatch is the only evidence.
                let mut held: Vec<usize> = self
                    .txns
                    .get(&txn)
                    .map(|s| s.queries.iter().map(|(i, _)| *i).collect())
                    .unwrap_or_default();
                held.sort_unstable();
                let mut expected = expected_queries;
                expected.sort_unstable();
                let complete = held == expected;
                // The OCC half of the fused vote: commit-scope pins plus
                // the read-stamp check. A failure is a concurrency
                // casualty, flagged `conflict` on the reply so the TM
                // aborts with the transient `ValidationConflict` instead
                // of the terminal `IntegrityViolation`.
                let occ_conflict = self.concurrency == ConcurrencyMode::Occ
                    && known
                    && complete
                    && !self.occ_validate(txn);
                let vote = if occ_conflict {
                    Vote::No
                } else if known && complete {
                    let state = &self.txns[&txn];
                    match self.constraints.check(&self.store, &state.writes) {
                        Ok(()) => Vote::Yes,
                        Err(_) => Vote::No,
                    }
                } else {
                    // Lost state (crash before prepare): cannot certify.
                    Vote::No
                };
                let (truth, versions, proofs) = if validate && known {
                    self.evaluate_all(now, txn)
                } else {
                    (true, VersionMap::new(), Vec::new())
                };
                if !known {
                    self.ensure_txn(txn, UserId::default(), Arc::from([]), from.clone());
                }
                let outputs = {
                    let state = self.txns.get_mut(&txn).expect("ensured");
                    state.coordinator = from.clone();
                    state.participant.on_prepare(
                        vote,
                        validate.then_some(truth),
                        versions.iter().map(|(&p, &v)| (p, v)).collect(),
                    )
                };
                let reply = ValidationReply {
                    vote,
                    truth,
                    versions,
                    proofs,
                    conflict: occ_conflict,
                };
                self.apply_participant_outputs(now, txn, outputs, Some(reply), from, out);
            }

            Msg::Update {
                txn,
                targets,
                in_commit,
            } => {
                self.fast_forward(&targets);
                let (truth, versions, proofs) = self.evaluate_all(now, txn);
                if in_commit {
                    if !self.txns.contains_key(&txn) {
                        return;
                    }
                    let (vote, outputs) = {
                        let state = self.txns.get_mut(&txn).expect("checked");
                        let vote = match state.participant.state() {
                            ParticipantState::Prepared(v) => v,
                            _ => Vote::Yes,
                        };
                        let outputs = state
                            .participant
                            .on_revalidate(truth, versions.iter().map(|(&p, &v)| (p, v)).collect());
                        (vote, outputs)
                    };
                    let reply = ValidationReply {
                        vote,
                        truth,
                        versions,
                        proofs,
                        conflict: false,
                    };
                    self.apply_participant_outputs(now, txn, outputs, Some(reply), from, out);
                } else {
                    out.push((
                        from,
                        Msg::ValidateReply {
                            txn,
                            reply: ValidationReply {
                                vote: Vote::Yes,
                                truth,
                                versions,
                                proofs,
                                conflict: false,
                            },
                        },
                    ));
                }
            }

            Msg::Decision { txn, decision } => {
                if !self.txns.contains_key(&txn) {
                    // Abort for a transaction we never saw or already
                    // resolved: acknowledge if the variant expects it.
                    if self.variant.participant_acks(decision) {
                        out.push((from, Msg::Ack { txn }));
                    }
                    return;
                }
                let outputs = {
                    let state = self.txns.get_mut(&txn).expect("checked");
                    state.participant.on_decision(decision)
                };
                self.apply_participant_outputs(now, txn, outputs, None, from, out);
            }

            Msg::PolicyGossip { policy_id, version } => {
                self.fast_forward(&[(policy_id, version)].into_iter().collect());
            }

            Msg::InquiryReply {
                txn,
                answer: safetx_txn::InquiryAnswer::Decided(decision),
            } if self.txns.contains_key(&txn) => {
                let outputs = {
                    let state = self.txns.get_mut(&txn).expect("guard checked");
                    state.participant.on_decision(decision)
                };
                self.apply_participant_outputs(now, txn, outputs, None, from, out);
            }

            // A coalesced envelope is the inner messages in order. The
            // threaded runtime only coalesces server → TM replies, so a
            // server normally never sees one; handled for completeness.
            Msg::Batch(msgs) => {
                for inner in msgs {
                    self.dispatch(now, from.clone(), inner, out);
                }
            }

            _ => {}
        }
    }

    /// Crash: volatile state is lost. Prepared(YES) transactions survive —
    /// their write sets and protocol state were force-logged with the
    /// prepare record; everything else (locks, unprepared transactions,
    /// the applied-decision memo) is discarded.
    pub fn crash(&mut self) {
        self.locks = LockManager::new();
        // Snapshots are volatile like locks. Survivors are past execution
        // (prepared), so they never read again; orphan their snapshot
        // handles so a post-recovery release cannot touch a snapshot some
        // new transaction opened at a colliding epoch.
        self.mvcc.clear();
        self.decided.clear();
        self.txns
            .retain(|_, state| state.participant.state() == ParticipantState::Prepared(Vote::Yes));
        for state in self.txns.values_mut() {
            state.snapshot = None;
        }
    }

    /// Restart after a crash: re-acquire exclusive locks for in-doubt write
    /// sets (strictness) and inquire for each in-doubt transaction.
    pub fn restart(&mut self) -> Vec<(A, Msg)> {
        let mut out = Vec::new();
        let in_doubt: Vec<TxnId> = self.txns.keys().copied().collect();
        for txn in in_doubt {
            let items: Vec<safetx_types::DataItemId> = self.txns[&txn]
                .writes
                .iter()
                .map(|(item, _)| item)
                .collect();
            for item in items {
                let _ = self.locks.acquire(txn, item, LockMode::Exclusive);
            }
            let coordinator = self.txns[&txn].coordinator.clone();
            out.push((
                coordinator,
                Msg::Inquiry {
                    txn,
                    from_server: self.id,
                },
            ));
        }
        out
    }

    /// Rebuilds protocol state from the write-ahead log after a crash
    /// (the runtime's restart path; the simulator uses [`restart`] with
    /// live `Inquiry` messages instead).
    ///
    /// [`restart`]: ServerCore::restart
    ///
    /// Per transaction, following [`safetx_txn::recover_participant`]:
    /// * decision record in the log → decided; re-apply idempotently.
    /// * prepared YES, no decision → **in doubt**: the participant state
    ///   machine is rebuilt as prepared, exclusive locks on its write set
    ///   are re-acquired (strictness), and the transaction id is returned
    ///   so the runtime can drive the coordinator-inquiry path.
    /// * anything else → unilateral abort (the coordinator cannot have
    ///   committed without this server's vote).
    ///
    /// The applied-decision memo (`decided`) is rebuilt from the log's
    /// decision records, restoring the ghost-resurrection guard for every
    /// transaction whose decision reached this server before the crash.
    pub fn recover_from_wal(&mut self) -> Vec<TxnId> {
        self.locks = LockManager::new();
        self.mvcc.clear();
        self.decided.clear();
        let records: Vec<ParticipantRecord> = self.wal.records().cloned().collect();
        for record in &records {
            if let ParticipantRecord::Decision { txn, decision } = record {
                self.decided.insert(*txn, *decision);
            }
        }
        let survivors: Vec<TxnId> = self.txns.keys().copied().collect();
        let mut in_doubt = Vec::new();
        for txn in survivors {
            let recovered = safetx_txn::recover_participant(txn, self.variant, records.iter());
            if recovered.needs_inquiry {
                let state = self.txns.get_mut(&txn).expect("survivor");
                state.participant = recovered.participant;
                state.snapshot = None;
                let items: Vec<safetx_types::DataItemId> =
                    state.writes.iter().map(|(item, _)| item).collect();
                for item in items {
                    let _ = self.locks.acquire(txn, item, LockMode::Exclusive);
                }
                in_doubt.push(txn);
            } else if let Some(decision) = recovered.apply {
                // The decision was logged before the crash; the crash
                // model applies decisions atomically with their log
                // records, so this branch is defensive — re-apply
                // idempotently and clean up.
                if decision.is_commit() {
                    if let Some(state) = self.txns.get(&txn) {
                        let writes = state.writes.clone();
                        self.store.apply(&writes, Timestamp::ZERO);
                    }
                }
                self.txns.remove(&txn);
                self.decided.insert(txn, decision);
            } else {
                self.txns.remove(&txn);
            }
        }
        in_doubt
    }

    /// Transactions currently prepared YES with no decision — the in-doubt
    /// set a recovering (or decision-starved) participant must resolve via
    /// coordinator inquiry.
    #[must_use]
    pub fn in_doubt_txns(&self) -> Vec<TxnId> {
        let mut txns: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, state)| state.participant.state() == ParticipantState::Prepared(Vote::Yes))
            .map(|(&txn, _)| txn)
            .collect();
        txns.sort_unstable();
        txns
    }

    /// The decision applied here for `txn`, if any (volatile memo; rebuilt
    /// from the WAL by [`ServerCore::recover_from_wal`]).
    #[must_use]
    pub fn decided_decision(&self, txn: TxnId) -> Option<safetx_txn::Decision> {
        self.decided.get(&txn).copied()
    }

    /// Every transaction with live state here, whatever its phase — the
    /// set a termination protocol must resolve when coordinators stop
    /// answering (lost decisions leave even unprepared transactions
    /// holding locks).
    #[must_use]
    pub fn active_txn_ids(&self) -> Vec<TxnId> {
        let mut txns: Vec<TxnId> = self.txns.keys().copied().collect();
        txns.sort_unstable();
        txns
    }
}

/// Simulator adapter around [`ServerCore`].
pub struct CloudServerActor {
    core: ServerCore<NodeId>,
    last: ServerCounters,
    /// Simulated compute time per proof evaluation (covers proof-tree
    /// construction and the online credential status check, which the
    /// paper models as an OCSP round trip).
    proof_eval_delay: safetx_types::Duration,
}

impl CloudServerActor {
    /// Creates a server actor.
    #[must_use]
    pub fn new(
        id: ServerId,
        book: AddressBook,
        catalog: SharedCatalog,
        resource_map: ResourcePolicyMap,
        cas: SharedCas,
        variant: CommitVariant,
    ) -> Self {
        let _ = book; // addresses come from message senders
        CloudServerActor {
            core: ServerCore::new(id, catalog, resource_map, cas, variant),
            last: ServerCounters::default(),
            proof_eval_delay: safetx_types::Duration::ZERO,
        }
    }

    /// Sets the simulated compute time charged per proof evaluation.
    #[must_use]
    pub fn with_proof_eval_delay(mut self, delay: safetx_types::Duration) -> Self {
        self.proof_eval_delay = delay;
        self
    }

    /// The wrapped sans-io core.
    #[must_use]
    pub fn core(&self) -> &ServerCore<NodeId> {
        &self.core
    }

    /// Mutable access to the wrapped core (harness seeding).
    pub fn core_mut(&mut self) -> &mut ServerCore<NodeId> {
        &mut self.core
    }

    /// This server's id.
    #[must_use]
    pub fn id(&self) -> ServerId {
        self.core.id()
    }

    /// Installs an initial policy version at the replica.
    pub fn install_policy(&mut self, policy: safetx_types::PolicyId, version: PolicyVersion) {
        self.core.install_policy(policy, version);
    }

    /// The replica's installed versions.
    #[must_use]
    pub fn installed_versions(&self) -> VersionMap {
        self.core.installed_versions()
    }

    /// Mutable access to the local data store (harness seeding).
    pub fn store_mut(&mut self) -> &mut LocalStore {
        self.core.store_mut()
    }

    /// Read access to the local data store.
    #[must_use]
    pub fn store(&self) -> &LocalStore {
        self.core.store()
    }

    /// Mutable access to the integrity constraints (harness seeding).
    pub fn constraints_mut(&mut self) -> &mut ConstraintSet {
        self.core.constraints_mut()
    }

    /// Runs `f` with mutable access to the ambient fact base.
    pub fn with_ambient<R>(&mut self, f: impl FnOnce(&mut FactBase) -> R) -> R {
        self.core.with_ambient(f)
    }

    /// The participant write-ahead log.
    #[must_use]
    pub fn wal(&self) -> &Wal<ParticipantRecord> {
        self.core.wal()
    }

    /// Publishes counter deltas and marks accumulated by the core since the
    /// previous call.
    fn flush_counters(&mut self, ctx: &mut Context<'_, Msg>) {
        let counters = self.core.counters();
        let proofs = counters.proofs - self.last.proofs;
        let forced = counters.forced_logs - self.last.forced_logs;
        if proofs > 0 {
            ctx.count("proofs", proofs);
            for _ in 0..proofs {
                ctx.mark(format!("proof:{}", self.core.id()));
            }
        }
        if forced > 0 {
            ctx.count("forced_logs", forced);
            for _ in 0..forced {
                ctx.mark("log:forced");
            }
        }
        let cache = counters.proof_cache;
        let last = self.last.proof_cache;
        if cache.hits > last.hits {
            ctx.count("proof_cache_hits", cache.hits - last.hits);
        }
        if cache.misses > last.misses {
            ctx.count("proof_cache_misses", cache.misses - last.misses);
        }
        if cache.invalidations > last.invalidations {
            ctx.count(
                "proof_cache_invalidations",
                cache.invalidations - last.invalidations,
            );
        }
        self.last = counters;
    }
}

impl Actor<Msg> for CloudServerActor {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        let before = self.core.counters().proofs;
        let outgoing = self.core.handle(ctx.now(), from, msg);
        let proofs_now = self.core.counters().proofs - before;
        self.flush_counters(ctx);
        // Proof evaluation costs compute time: replies leave only after it.
        let delay = self.proof_eval_delay.saturating_mul(proofs_now);
        for (to, msg) in outgoing {
            if delay.is_zero() {
                ctx.send(to, msg);
            } else {
                ctx.send_after(to, msg, delay);
            }
        }
    }

    fn on_crash(&mut self) {
        self.core.crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        for (to, msg) in self.core.restart() {
            ctx.send(to, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ResourcePolicyMap, SharedCatalog};
    use safetx_policy::{CertificateAuthority, PolicyBuilder};
    use safetx_store::Value;
    use safetx_txn::{Decision, Operation};
    use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId};

    /// A ServerCore driven directly with `u8` addresses: the sans-io core
    /// is agnostic to how peers are named.
    type Core = ServerCore<u8>;
    const TM: u8 = 42;

    struct Fixture {
        core: Core,
        credential: Credential,
    }

    fn fixture() -> Fixture {
        let catalog = SharedCatalog::new();
        catalog.publish(
            PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
                .rules_text(
                    "grant(read, records) :- role(U, member).\n\
                     grant(write, records) :- role(U, member).",
                )
                .unwrap()
                .build(),
        );
        let mut registry = CaRegistry::new();
        let mut ca = CertificateAuthority::new(CaId::new(0), 9);
        let credential = ca.issue(
            UserId::new(1),
            safetx_policy::Atom::fact(
                "role",
                vec![
                    safetx_policy::Constant::symbol("u1"),
                    safetx_policy::Constant::symbol("member"),
                ],
            ),
            Timestamp::ZERO,
            Timestamp::MAX,
        );
        registry.register(ca);
        let mut core = Core::new(
            ServerId::new(0),
            catalog,
            ResourcePolicyMap::single(PolicyId::new(0)),
            SharedCas::new(registry),
            CommitVariant::Standard,
        );
        core.install_policy(PolicyId::new(0), PolicyVersion::INITIAL);
        core.store_mut()
            .write(DataItemId::new(0), Value::Int(5), Timestamp::ZERO);
        Fixture { core, credential }
    }

    fn exec_query(fx: &mut Fixture, txn: TxnId, evaluate: bool) -> Vec<(u8, Msg)> {
        fx.core.handle(
            Timestamp::from_millis(1),
            TM,
            Msg::ExecQuery {
                txn,
                query_index: 0,
                query: Arc::new(QuerySpec::new(
                    ServerId::new(0),
                    "write",
                    "records",
                    vec![Operation::Add(DataItemId::new(0), 1)],
                )),
                user: UserId::new(1),
                credentials: Arc::from([fx.credential.clone()]),
                evaluate_proof: evaluate,
                pin_versions: VersionMap::new(),
                capabilities: vec![],
            },
        )
    }

    fn prepare(fx: &mut Fixture, txn: TxnId) -> Vec<(u8, Msg)> {
        fx.core.handle(
            Timestamp::from_millis(2),
            TM,
            Msg::PrepareToCommit {
                txn,
                validate: true,
                expected_queries: vec![0],
            },
        )
    }

    #[test]
    fn query_then_prepare_then_commit_applies_writes() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        let out = exec_query(&mut fx, txn, true);
        assert_eq!(out.len(), 1);
        let (to, msg) = &out[0];
        assert_eq!(*to, TM);
        assert!(matches!(
            msg,
            Msg::QueryDone { ok: true, proof: Some(p), .. } if p.truth()
        ));

        let out = prepare(&mut fx, txn);
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. } if reply.vote.is_yes() && reply.truth
        ));
        assert_eq!(fx.core.counters().forced_logs, 1, "prepared record forced");

        let out = fx.core.handle(
            Timestamp::from_millis(3),
            TM,
            Msg::Decision {
                txn,
                decision: Decision::Commit,
            },
        );
        assert!(matches!(&out[0].1, Msg::Ack { .. }));
        assert_eq!(fx.core.store().read_int(DataItemId::new(0)), Some(6));
        assert_eq!(fx.core.active_txns(), 0, "state cleaned up");
    }

    /// Like [`exec_query`] but with caller-chosen operations, for the OCC
    /// anomaly tests below.
    fn exec_ops(fx: &mut Fixture, txn: TxnId, ops: Vec<Operation>) -> Vec<(u8, Msg)> {
        fx.core.handle(
            Timestamp::from_millis(1),
            TM,
            Msg::ExecQuery {
                txn,
                query_index: 0,
                query: Arc::new(QuerySpec::new(ServerId::new(0), "write", "records", ops)),
                user: UserId::new(1),
                credentials: Arc::from([fx.credential.clone()]),
                evaluate_proof: true,
                pin_versions: VersionMap::new(),
                capabilities: vec![],
            },
        )
    }

    #[test]
    fn occ_serial_execution_matches_locking() {
        for mode in [ConcurrencyMode::Locking, ConcurrencyMode::Occ] {
            let mut fx = fixture();
            fx.core.set_concurrency(mode);
            for i in 1..=3 {
                let txn = TxnId::new(i);
                exec_ops(&mut fx, txn, vec![Operation::Add(DataItemId::new(0), 2)]);
                let out = prepare(&mut fx, txn);
                assert!(
                    matches!(&out[0].1, Msg::CommitReply { reply, .. } if reply.vote.is_yes()),
                    "{mode}: serial increment must validate"
                );
                fx.core.handle(
                    Timestamp::from_millis(3),
                    TM,
                    Msg::Decision {
                        txn,
                        decision: Decision::Commit,
                    },
                );
            }
            assert_eq!(
                fx.core.store().read_int(DataItemId::new(0)),
                Some(11),
                "{mode}: 5 + 3×2"
            );
            assert_eq!(fx.core.active_txns(), 0, "{mode}: state cleaned up");
        }
    }

    #[test]
    fn occ_lost_update_is_rejected_at_validation() {
        let mut fx = fixture();
        fx.core.set_concurrency(ConcurrencyMode::Occ);
        let t1 = TxnId::new(1);
        let t2 = TxnId::new(2);
        // Both increment the same item from the same snapshot. No locks are
        // taken at execution, so neither blocks the other — under locking
        // T2 would have waited here.
        let out = exec_ops(&mut fx, t1, vec![Operation::Add(DataItemId::new(0), 1)]);
        assert!(matches!(&out[0].1, Msg::QueryDone { ok: true, .. }));
        let out = exec_ops(&mut fx, t2, vec![Operation::Add(DataItemId::new(0), 1)]);
        assert!(matches!(&out[0].1, Msg::QueryDone { ok: true, .. }));

        // T1 validates and commits: 5 → 6.
        let out = prepare(&mut fx, t1);
        assert!(matches!(&out[0].1, Msg::CommitReply { reply, .. } if reply.vote.is_yes()));
        fx.core.handle(
            Timestamp::from_millis(3),
            TM,
            Msg::Decision {
                txn: t1,
                decision: Decision::Commit,
            },
        );
        assert_eq!(fx.core.store().read_int(DataItemId::new(0)), Some(6));

        // T2 computed 5 + 1 from its stale snapshot. Validation sees the
        // read stamp no longer matches the live version and votes NO with
        // the conflict flag — the lost update never reaches the store.
        let out = prepare(&mut fx, t2);
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. } if !reply.vote.is_yes() && reply.conflict
        ));
        assert_eq!(
            fx.core.store().read_int(DataItemId::new(0)),
            Some(6),
            "lost update prevented: T2's stale 6 must not overwrite"
        );
        assert_eq!(fx.core.active_txns(), 0, "no-voter aborts unilaterally");
    }

    #[test]
    fn occ_write_skew_is_rejected_at_validation() {
        let mut fx = fixture();
        fx.core.set_concurrency(ConcurrencyMode::Occ);
        fx.core
            .store_mut()
            .write(DataItemId::new(1), Value::Int(5), Timestamp::ZERO);
        let t1 = TxnId::new(1);
        let t2 = TxnId::new(2);
        // Classic write skew: each transaction reads the item the other
        // writes, and each write is individually consistent with its own
        // snapshot.
        exec_ops(
            &mut fx,
            t1,
            vec![
                Operation::Read(DataItemId::new(0)),
                Operation::Write(DataItemId::new(1), Value::Int(0)),
            ],
        );
        exec_ops(
            &mut fx,
            t2,
            vec![
                Operation::Read(DataItemId::new(1)),
                Operation::Write(DataItemId::new(0), Value::Int(0)),
            ],
        );

        // T1 validates first: pins S(item0) + X(item1), stamps check out.
        let out = prepare(&mut fx, t1);
        assert!(matches!(&out[0].1, Msg::CommitReply { reply, .. } if reply.vote.is_yes()));
        // T2 needs X(item0), which collides with T1's read pin: the
        // no-wait validation flags the conflict instead of letting both
        // skewed writes commit.
        let out = prepare(&mut fx, t2);
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. } if !reply.vote.is_yes() && reply.conflict
        ));

        fx.core.handle(
            Timestamp::from_millis(3),
            TM,
            Msg::Decision {
                txn: t1,
                decision: Decision::Commit,
            },
        );
        assert_eq!(fx.core.store().read_int(DataItemId::new(1)), Some(0));
        assert_eq!(
            fx.core.store().read_int(DataItemId::new(0)),
            Some(5),
            "T2's skewed write rejected"
        );
    }

    #[test]
    fn prepare_with_wrong_manifest_votes_no() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, false);
        // The TM claims this server executed queries {0, 1}: it only has 0.
        let out = fx.core.handle(
            Timestamp::from_millis(2),
            TM,
            Msg::PrepareToCommit {
                txn,
                validate: false,
                expected_queries: vec![0, 1],
            },
        );
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. } if !reply.vote.is_yes()
        ));
    }

    #[test]
    fn prepare_for_unknown_transaction_votes_no() {
        let mut fx = fixture();
        let out = fx.core.handle(
            Timestamp::from_millis(2),
            TM,
            Msg::PrepareToCommit {
                txn: TxnId::new(9),
                validate: true,
                expected_queries: vec![0],
            },
        );
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. } if !reply.vote.is_yes()
        ));
    }

    #[test]
    fn crash_drops_unprepared_state_but_keeps_prepared() {
        let mut fx = fixture();
        let unprepared = TxnId::new(1);
        let prepared = TxnId::new(2);
        exec_query(&mut fx, unprepared, false);
        // Run a second txn through prepare (different item to avoid locks).
        fx.core.handle(
            Timestamp::from_millis(1),
            TM,
            Msg::ExecQuery {
                txn: prepared,
                query_index: 0,
                query: Arc::new(QuerySpec::new(
                    ServerId::new(0),
                    "read",
                    "records",
                    vec![Operation::Read(DataItemId::new(7))],
                )),
                user: UserId::new(1),
                credentials: Arc::from([fx.credential.clone()]),
                evaluate_proof: false,
                pin_versions: VersionMap::new(),
                capabilities: vec![],
            },
        );
        prepare(&mut fx, prepared);
        assert_eq!(fx.core.active_txns(), 2);

        fx.core.crash();
        assert_eq!(fx.core.active_txns(), 1, "only the prepared txn survives");
        let recovery = fx.core.restart();
        assert_eq!(recovery.len(), 1);
        assert!(matches!(recovery[0].1, Msg::Inquiry { txn, .. } if txn == prepared));
        assert_eq!(recovery[0].0, TM, "inquiry goes to the coordinator");
    }

    #[test]
    fn update_fast_forwards_and_revalidates() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, false);
        prepare(&mut fx, txn);
        // Publish v2 (same rules) and drive the replica forward.
        let v2 = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .version(PolicyVersion(2))
            .rules_text("grant(write, records) :- role(U, member).")
            .unwrap()
            .build();
        fx.core.data.catalog.publish(v2);
        let out = fx.core.handle(
            Timestamp::from_millis(3),
            TM,
            Msg::Update {
                txn,
                targets: [(PolicyId::new(0), PolicyVersion(2))].into_iter().collect(),
                in_commit: true,
            },
        );
        assert_eq!(
            fx.core.installed_versions()[&PolicyId::new(0)],
            PolicyVersion(2)
        );
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. }
                if reply.versions[&PolicyId::new(0)] == PolicyVersion(2) && reply.truth
        ));
        assert_eq!(
            fx.core.counters().forced_logs,
            2,
            "re-validation force-logs the refreshed (vi, pi) tuples"
        );
    }

    #[test]
    fn capability_shortcut_only_in_baseline_mode() {
        let mut fx = fixture();
        let cap = safetx_policy::AccessCapability::issue(
            ServerId::new(5),
            capability_key(ServerId::new(5)),
            UserId::new(1),
            TxnId::new(1),
            "write",
            "records",
            Timestamp::ZERO,
            Timestamp::MAX,
        );
        let send_with_cap = |core: &mut Core| {
            core.handle(
                Timestamp::from_millis(1),
                TM,
                Msg::ExecQuery {
                    txn: TxnId::new(1),
                    query_index: 0,
                    query: Arc::new(QuerySpec::new(
                        ServerId::new(0),
                        "write",
                        "records",
                        vec![Operation::Add(DataItemId::new(0), 1)],
                    )),
                    user: UserId::new(1),
                    credentials: Arc::from([]), // no credential: only the capability
                    evaluate_proof: true,
                    pin_versions: VersionMap::new(),
                    capabilities: vec![cap.clone()],
                },
            )
        };
        // Safe mode: the capability is ignored; with no credential the
        // proof is denied.
        let out = send_with_cap(&mut fx.core);
        assert!(matches!(
            &out[0].1,
            Msg::QueryDone { proof: Some(p), .. } if !p.truth()
        ));

        // Baseline mode: the capability passes for a proof.
        let mut fx2 = fixture();
        fx2.core.set_unsafe_baseline(true);
        let out = send_with_cap(&mut fx2.core);
        assert!(matches!(
            &out[0].1,
            Msg::QueryDone { proof: Some(p), .. } if p.truth()
        ));
    }

    fn validate(fx: &mut Fixture, txn: TxnId, at: Timestamp) -> Vec<(u8, Msg)> {
        fx.core.handle(
            at,
            TM,
            Msg::PrepareToValidate {
                txn,
                new_query: None,
                user: UserId::new(1),
                credentials: Arc::from([]),
            },
        )
    }

    #[test]
    fn proof_cache_hit_still_counts_as_a_proof() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, true);
        let out = exec_query(&mut fx, txn, true);
        assert!(matches!(
            &out[0].1,
            Msg::QueryDone { proof: Some(p), .. } if p.truth()
        ));
        let counters = fx.core.counters();
        assert_eq!(counters.proofs, 2, "Table I accounting unchanged by cache");
        assert_eq!(counters.proof_cache.hits, 1);
        assert_eq!(counters.proof_cache.misses, 1);
    }

    #[test]
    fn revocation_epoch_flushes_cache_and_denies() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        let out = exec_query(&mut fx, txn, true);
        assert!(matches!(
            &out[0].1,
            Msg::QueryDone { proof: Some(p), .. } if p.truth()
        ));
        let cred_id = fx.credential.id();
        fx.core.data.cas.with_mut(|registry| {
            registry.revoke(CaId::new(0), cred_id, Timestamp::from_millis(2));
        });
        let out = validate(&mut fx, txn, Timestamp::from_millis(3));
        assert!(matches!(
            &out[0].1,
            Msg::ValidateReply { reply, .. } if !reply.truth
        ));
        let counters = fx.core.counters();
        assert_eq!(counters.proof_cache.hits, 0, "stale grant never served");
        assert_eq!(counters.proof_cache.invalidations, 1);
    }

    #[test]
    fn future_dated_revocation_bounds_cached_validity() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        let cred_id = fx.credential.id();
        // Revocation recorded before any evaluation, effective at t=5ms —
        // so no epoch change happens between the two evaluations below.
        fx.core.data.cas.with_mut(|registry| {
            registry.revoke(CaId::new(0), cred_id, Timestamp::from_millis(5));
        });
        // t=1ms: still good — granted and cached.
        let out = exec_query(&mut fx, txn, true);
        assert!(matches!(
            &out[0].1,
            Msg::QueryDone { proof: Some(p), .. } if p.truth()
        ));
        // t=9ms: the entry's validity horizon (5ms) has passed.
        let out = validate(&mut fx, txn, Timestamp::from_millis(9));
        assert!(matches!(
            &out[0].1,
            Msg::ValidateReply { reply, .. } if !reply.truth
        ));
        assert_eq!(fx.core.counters().proof_cache.hits, 0);
    }

    #[test]
    fn policy_install_invalidates_cache() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, true);
        let v2 = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .version(PolicyVersion(2))
            .rules_text("grant(write, records) :- role(U, admin).")
            .unwrap()
            .build();
        fx.core.data.catalog.publish(v2);
        fx.core.handle(
            Timestamp::from_millis(2),
            TM,
            Msg::PolicyGossip {
                policy_id: PolicyId::new(0),
                version: PolicyVersion(2),
            },
        );
        assert_eq!(fx.core.counters().proof_cache.invalidations, 1);
        let out = validate(&mut fx, txn, Timestamp::from_millis(3));
        assert!(matches!(
            &out[0].1,
            Msg::ValidateReply { reply, .. } if !reply.truth
        ));
        assert_eq!(fx.core.counters().proof_cache.hits, 0);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut fx = fixture();
        fx.core.set_proof_cache(false);
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, true);
        exec_query(&mut fx, txn, true);
        let counters = fx.core.counters();
        assert_eq!(counters.proofs, 2);
        assert_eq!(
            counters.proof_cache,
            safetx_metrics::ProofCacheStats::default()
        );
    }

    #[test]
    fn round_dedups_identical_requests() {
        // Regression for the redundant-evaluation race: N misses on one key
        // within a round must not all run the engine.
        let mut fx = fixture();
        let query = Arc::new(QuerySpec::new(
            ServerId::new(0),
            "write",
            "records",
            vec![Operation::Read(DataItemId::new(0))],
        ));
        let round: Vec<(u8, Msg)> = (1..=4)
            .map(|t| {
                (
                    TM,
                    Msg::ExecQuery {
                        txn: TxnId::new(t),
                        query_index: 0,
                        query: Arc::clone(&query),
                        user: UserId::new(1),
                        credentials: Arc::from([fx.credential.clone()]),
                        evaluate_proof: true,
                        pin_versions: VersionMap::new(),
                        capabilities: vec![],
                    },
                )
            })
            .collect();
        let out = fx.core.handle_round(Timestamp::from_millis(1), round);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|(_, m)| matches!(
            m,
            Msg::QueryDone { ok: true, proof: Some(p), .. } if p.truth()
        )));
        assert_eq!(
            fx.core.data_plane().engine_evaluations(),
            1,
            "identical requests in one round must evaluate once"
        );
        let counters = fx.core.counters();
        assert_eq!(counters.proofs, 4, "Table I accounting unchanged");
        assert_eq!(counters.proof_cache.misses, 1);
        assert_eq!(counters.proof_cache.hits, 3);
    }

    #[test]
    fn capability_keys_differ_per_server_and_verify() {
        let a = capability_key(ServerId::new(0));
        let b = capability_key(ServerId::new(1));
        assert_ne!(a, b);
        let cap = safetx_policy::AccessCapability::issue(
            ServerId::new(0),
            a,
            UserId::new(1),
            TxnId::new(1),
            "read",
            "records",
            Timestamp::ZERO,
            Timestamp::from_millis(10),
        );
        assert!(cap.verify(a, Timestamp::from_millis(5)));
        assert!(!cap.verify(b, Timestamp::from_millis(5)));
    }
}
