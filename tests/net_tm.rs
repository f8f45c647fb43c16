//! The wire TM's transaction slots: the reader that decodes a reply steps
//! the transaction, and `execute` only starts it and waits.
//!
//! Two guards. A server that never hears from the TM must still end the
//! transaction through the reply deadline, which the waiting caller steps
//! itself. And many callers hammering a few hot keys at once must all get
//! their termination — no lost wake-up, no deadlock between a slot and a
//! link writer — with every frame accounted on both sides of every edge.

use safetx_core::{AbortReason, ConsistencyLevel, ProofScheme, SharedCas, TxnOutcome};
use safetx_net::{NetCluster, NetEdgeRule, NetFaultPlan};
use safetx_policy::{Atom, Constant, Credential, PolicyBuilder};
use safetx_runtime::{ClusterConfig, PeerMatch};
use safetx_store::Value;
use safetx_txn::{Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, UserId};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED_VALUE: i64 = 10;

/// A cluster with the member policy published and `keys` items seeded on
/// every server (item `s * 100 + k` on server `s`).
fn build(config: ClusterConfig, keys: u64) -> NetCluster {
    let servers = config.servers as u64;
    let cluster = NetCluster::new(config);
    cluster.publish_policy(
        PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .rules_text("grant(write, records) :- role(U, member).")
            .expect("rules parse")
            .build(),
    );
    for s in 0..servers {
        cluster.configure_server(ServerId::new(s), move |core| {
            for k in 0..keys {
                core.store_mut().write(
                    DataItemId::new(s * 100 + k),
                    Value::Int(SEED_VALUE),
                    Timestamp::ZERO,
                );
            }
        });
    }
    cluster
}

fn member(cas: &SharedCas) -> Credential {
    cas.with_mut(|registry| {
        registry.ca_mut(CaId::new(0)).expect("default CA").issue(
            UserId::new(1),
            Atom::fact(
                "role",
                vec![Constant::symbol("u1"), Constant::symbol("member")],
            ),
            Timestamp::ZERO,
            Timestamp::MAX,
        )
    })
}

/// One increment of key `k` on each of `servers` servers.
fn increments(cluster: &NetCluster, servers: u64, k: u64) -> TransactionSpec {
    let queries = (0..servers)
        .map(|s| {
            QuerySpec::new(
                ServerId::new(s),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(s * 100 + k), 1)],
            )
        })
        .collect();
    TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries)
}

#[test]
fn reply_deadline_aborts_when_a_server_never_hears_from_the_tm() {
    let cluster = build(
        ClusterConfig {
            servers: 2,
            scheme: ProofScheme::Deferred,
            consistency: ConsistencyLevel::View,
            reply_timeout: Some(Duration::from_millis(25)),
            ..Default::default()
        },
        1,
    );
    let credential = member(cluster.cas());
    cluster.set_fault_plan(NetFaultPlan {
        seed: 7,
        rules: vec![NetEdgeRule {
            from: PeerMatch::Coordinator,
            to: PeerMatch::Server(ServerId::new(1)),
            drop_permille: 1000,
            ..NetEdgeRule::default()
        }],
        crashes: Vec::new(),
    });

    let started = Instant::now();
    let result = cluster.execute(&increments(&cluster, 2, 0), &[credential]);
    let elapsed = started.elapsed();
    assert_eq!(
        result.outcome.abort_reason(),
        Some(AbortReason::ServerUnavailable),
        "a silent server must abort the transaction: {:?}",
        result.outcome
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "the reply deadline took {elapsed:?}"
    );
    assert_eq!(cluster.fault_counters().timeout_aborts, 1);
    cluster.shutdown();
}

#[test]
fn concurrent_hot_key_transactions_all_terminate_and_frames_balance() {
    const SERVERS: u64 = 3;
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 200;
    const HOT_KEYS: u64 = 16;
    let cluster = Arc::new(build(
        ClusterConfig {
            servers: SERVERS as usize,
            scheme: ProofScheme::Continuous,
            consistency: ConsistencyLevel::Global,
            ..Default::default()
        },
        HOT_KEYS,
    ));
    let credentials = vec![member(cluster.cas())];

    // No reply deadline is configured: a lost wake-up or a lock-order
    // deadlock hangs its caller, which the deadline below turns into a
    // failure.
    let (done_tx, done_rx) = mpsc::channel();
    let mut callers = Vec::new();
    for t in 0..THREADS {
        let cluster = Arc::clone(&cluster);
        let credentials = credentials.clone();
        let done_tx = done_tx.clone();
        callers.push(std::thread::spawn(move || {
            let mut commits = 0u64;
            for i in 0..PER_THREAD {
                let k = (t * 7 + i * 13) % HOT_KEYS;
                let result = cluster.execute(&increments(&cluster, SERVERS, k), &credentials);
                if matches!(result.outcome, TxnOutcome::Committed { .. }) {
                    commits += 1;
                }
            }
            let _ = done_tx.send(commits);
        }));
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut commits = 0;
    for _ in 0..THREADS {
        let left = deadline.saturating_duration_since(Instant::now());
        commits += done_rx
            .recv_timeout(left)
            .expect("every caller terminates all its transactions before the deadline");
    }
    for caller in callers {
        caller.join().expect("caller thread");
    }
    assert!(commits > 0, "no transaction committed");

    // Every committed transaction added one to a key on each server.
    let mut total = 0;
    for s in 0..SERVERS {
        let (tx, rx) = mpsc::channel();
        cluster.configure_server(ServerId::new(s), move |core| {
            let sum: i64 = core
                .store()
                .iter()
                .filter_map(|(_, item)| item.value.as_int())
                .sum();
            let _ = tx.send(sum);
        });
        total += rx.recv().expect("store probe");
    }
    assert_eq!(
        total,
        (SERVERS * HOT_KEYS) as i64 * SEED_VALUE + (SERVERS * commits) as i64,
        "committed increments missing from the stores"
    );

    // Receive counters are bumped on reader threads; let the last frames
    // land before comparing.
    let balanced = |s: u64| {
        let (tm, srv) = cluster.edge_counters(ServerId::new(s));
        tm.frames_sent == srv.frames_received
            && tm.bytes_sent == srv.bytes_received
            && srv.frames_sent == tm.frames_received
            && srv.bytes_sent == tm.bytes_received
    };
    let settle = Instant::now() + Duration::from_secs(5);
    while !(0..SERVERS).all(balanced) && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(5));
    }
    for s in 0..SERVERS {
        let (tm, srv) = cluster.edge_counters(ServerId::new(s));
        assert!(
            balanced(s),
            "edge {s} does not balance: tm={tm:?} srv={srv:?}"
        );
        assert_eq!(tm.decode_errors + srv.decode_errors, 0, "edge {s}");
        assert_eq!(tm.reconnects + srv.reconnects, 0, "edge {s}");
    }
    assert_eq!(cluster.fault_counters().timeout_aborts, 0);
}
