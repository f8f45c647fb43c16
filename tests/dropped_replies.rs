//! Pins the unified dropped-reply accounting of the threaded and the wire
//! drivers under a seeded duplicate-heavy fault plan.
//!
//! Every server → coordinator message is delivered twice. The shared rule
//! ([`safetx_core::reply_counts_as_dropped`]) says acknowledgment
//! duplicates are expected post-decision chatter and never count, while
//! every other unconsumed duplicate does. With per-query sequencing, each
//! `QueryDone` duplicate is necessarily stale when it arrives (the core
//! has already advanced past that query), a `CommitReply` duplicate is
//! absorbed by the voting round (the vote is already recorded), and `Ack`
//! duplicates are exempt — so a clean commit over `n` servers drops
//! exactly `n` replies: one per duplicated `QueryDone`, nothing else.
//!
//! Before the accounting was unified in the sans-io core, the abort-drain
//! and commit paths disagreed on exactly the `Ack` case; these tests fail
//! if either path starts counting them again. On the wire every reply
//! frame is duplicated instead, and the reader that decodes a duplicate
//! steps the transaction itself, so the same count must come out.

use safetx_core::{ConsistencyLevel, ProofScheme, SharedCas, TxnOutcome};
use safetx_net::{NetCluster, NetEdgeRule, NetFaultPlan};
use safetx_policy::{Atom, Constant, Credential, Policy, PolicyBuilder};
use safetx_runtime::{Cluster, ClusterConfig, EdgeRule, FaultPlan, PeerMatch};
use safetx_store::Value;
use safetx_txn::{CommitVariant, Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, TxnId, UserId};

const SERVERS: usize = 3;
const TXNS: u64 = 4;

/// Duplicates every server → coordinator reply; leaves the forward
/// direction untouched so request sequencing stays clean.
fn duplicate_heavy_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xd0_99ed,
        rules: vec![EdgeRule {
            from: PeerMatch::AnyServer,
            to: PeerMatch::Coordinator,
            duplicate_permille: 1000,
            ..EdgeRule::default()
        }],
        crashes: Vec::new(),
    }
}

fn config() -> ClusterConfig {
    ClusterConfig {
        servers: SERVERS,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        variant: CommitVariant::Standard,
        ..Default::default()
    }
}

fn policy() -> Policy {
    PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text("grant(read, records) :- role(U, member).")
        .expect("rules parse")
        .build()
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

/// Transaction `t`: one read on every server.
fn spec(t: u64) -> TransactionSpec {
    let queries = (0..SERVERS as u64)
        .map(|s| {
            QuerySpec::new(
                ServerId::new(s),
                "read",
                "records",
                vec![Operation::Read(DataItemId::new(s))],
            )
        })
        .collect();
    TransactionSpec::new(TxnId::new(t), UserId::new(1), queries)
}

#[test]
fn duplicate_replies_drop_exactly_one_per_query_and_no_acks() {
    let cluster = Cluster::new(config());
    cluster.publish_policy(policy());
    for s in 0..SERVERS as u64 {
        cluster.configure_server(ServerId::new(s), move |core| {
            core.store_mut()
                .write(DataItemId::new(s), Value::Int(1), Timestamp::ZERO);
        });
    }
    let credential = member(cluster.cas());
    cluster.set_fault_plan(duplicate_heavy_plan());

    for t in 0..TXNS {
        let result = cluster.execute(&spec(t), std::slice::from_ref(&credential));
        assert!(
            matches!(result.outcome, TxnOutcome::Committed { .. }),
            "txn {t} must commit despite duplicated replies: {:?}",
            result.outcome
        );
    }
    let counters = cluster.fault_counters();
    // Per clean commit each server sends QueryDone + CommitReply + Ack,
    // and each is duplicated once. A CommitReply duplicate that lands
    // after the decision additionally triggers the 2PVC straggler path
    // (the decision is re-sent, the server acks again), so the total can
    // exceed the floor by a few timing-dependent Acks — all of them
    // exempt from drop accounting.
    assert!(
        counters.faults_duplicated >= TXNS * 3 * SERVERS as u64,
        "fault layer must have duplicated every reply: {counters:?}"
    );
    // Exactly the QueryDone duplicates count as dropped: one per query.
    // CommitReply duplicates are absorbed by the voting round and Ack
    // duplicates are exempt — if this number grows by 2n per transaction,
    // someone started counting acknowledgments again.
    assert_eq!(
        cluster.dropped_replies(),
        TXNS * SERVERS as u64,
        "dropped-reply accounting drifted under duplicate-heavy faults"
    );
    cluster.shutdown();
}

#[test]
fn net_duplicate_reply_frames_drop_exactly_one_per_query_and_no_acks() {
    let cluster = NetCluster::new(config());
    cluster.publish_policy(policy());
    for s in 0..SERVERS as u64 {
        cluster.configure_server(ServerId::new(s), move |core| {
            core.store_mut()
                .write(DataItemId::new(s), Value::Int(1), Timestamp::ZERO);
        });
    }
    let credential = member(cluster.cas());
    // Every server → TM frame goes out twice, back to back.
    cluster.set_fault_plan(NetFaultPlan {
        seed: 0xd0_99ed,
        rules: vec![NetEdgeRule {
            from: PeerMatch::AnyServer,
            to: PeerMatch::Coordinator,
            duplicate_permille: 1000,
            ..NetEdgeRule::default()
        }],
        crashes: Vec::new(),
    });

    for t in 0..TXNS {
        let result = cluster.execute(&spec(t), std::slice::from_ref(&credential));
        assert!(
            matches!(result.outcome, TxnOutcome::Committed { .. }),
            "txn {t} must commit despite duplicated reply frames: {:?}",
            result.outcome
        );
    }

    let counters = cluster.fault_counters();
    assert!(
        counters.faults_duplicated >= TXNS * 3 * SERVERS as u64,
        "fault fabric must have duplicated every reply frame: {counters:?}"
    );
    // A duplicate is read right behind its original on the same
    // connection, so a `CommitReply` duplicate always reaches the voting
    // round before the acks can finish it, and the last `Ack`'s duplicate
    // (which does arrive after the termination) never counts. Only the
    // stale `QueryDone` duplicates remain.
    assert_eq!(
        cluster.dropped_replies(),
        TXNS * SERVERS as u64,
        "dropped-reply accounting drifted on the wire under duplicated frames"
    );
    cluster.shutdown();
}
