//! Self-tests of the benchmark: every workload passes its checks at smoke
//! size, the checks reject what they must, and the replay host follows
//! the real protocol.
//!
//! Run with `cargo test --release --manifest-path txbench/Cargo.toml`.

use safetx_txbench::bench::{self, Options, END_TO_END, PER_LAYER};
use safetx_txbench::deploy::Deployment;
use safetx_txbench::replay::ReplayHost;
use safetx_txbench::workload::{Generator, Workload};
use std::time::Instant;

fn smoke(workload: Workload, trace: bool) -> bench::Outcome {
    bench::run(&Options {
        workload,
        seed: 11,
        seconds: 0.5,
        trace,
        trace_file: None,
    })
}

#[test]
fn smoke_size_of_every_workload_passes_every_check() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = smoke(workload, trace);
            assert!(
                outcome.correct,
                "{} (trace {trace}): {:?}",
                workload.name(),
                outcome.problems
            );
            assert!(
                outcome.attempted > 0,
                "{}: nothing completed",
                workload.name()
            );
            assert_eq!(
                outcome.failed,
                0,
                "{}: authorized submissions failed",
                workload.name()
            );
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|(n, _)| *n).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| *n).collect()
            };
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            for m in outcome.metrics.iter().filter(|m| m.applies && !trace) {
                assert!(
                    m.value > 0.0,
                    "{}: {} reads {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}

#[test]
fn churn_audit_rejects_a_view_stamped_with_a_superseded_version() {
    let workload = Workload::AuthzContinuous;
    let deployment = Deployment::build(workload, 5);
    let level = workload.cluster_config().consistency;
    let submission = (0..)
        .map(|i| deployment.generator.make(i))
        .find(|s| s.authorized)
        .expect("an authorized submission");
    let mut spec = submission.spec.clone();
    spec.id = deployment.runtime.next_txn_id();
    let submitted = Instant::now();
    let result = deployment.runtime.execute(&spec, &submission.credentials);
    let completed = Instant::now();
    assert!(result.is_commit(), "{:?}", result.outcome);
    assert!(deployment
        .churn
        .audit(&result.view, level, submitted, completed));

    // Two newer versions: the view's version was superseded before a
    // submission made now, so a view stamped with it must be rejected…
    deployment.publish_churn(199);
    deployment.publish_churn(399);
    let later = Instant::now();
    assert!(!deployment
        .churn
        .audit(&result.view, level, later, Instant::now()));
    // …while a transaction that ran across the publishes may carry it.
    assert!(deployment
        .churn
        .audit(&result.view, level, submitted, Instant::now()));
}

#[test]
fn a_doctored_store_sum_fails_the_store_audit() {
    let workload = Workload::HotWrites;
    let deployment = Deployment::build(workload, 3);
    let mut added = vec![0i64; workload.total_servers() as usize];
    for index in 0..20 {
        let submission = deployment.generator.make(index);
        let mut spec = submission.spec.clone();
        spec.id = deployment.runtime.next_txn_id();
        if deployment
            .runtime
            .execute(&spec, &submission.credentials)
            .is_commit()
        {
            for (server, delta) in submission.adds() {
                added[server as usize] += delta;
            }
        }
    }
    assert!(added.iter().sum::<i64>() > 0, "some writes committed");
    assert_eq!(deployment.audit_store(&added), Ok(()));
    added[1] += 1;
    let err = deployment
        .audit_store(&added)
        .expect_err("doctored sum must fail");
    assert!(err.starts_with("store audit"), "{err}");
}

#[test]
fn replay_counts_messages_and_proofs_like_the_runtime() {
    for workload in Workload::ALL {
        let deployment = Deployment::build(workload, 9);
        let mut host = ReplayHost::new(workload);
        let replay_generator = Generator::new(workload, 9, host.cas());
        let mut commits = 0;
        for index in 0..40u64 {
            if index == 20 {
                // One policy publish mid-stream, at the same server on
                // both sides.
                deployment.publish_churn(199);
                host.publish_churn(199);
            }
            let live = deployment.generator.make(index);
            let replayed = replay_generator.make(index);
            let mut spec = live.spec.clone();
            spec.id = deployment.runtime.next_txn_id();
            let result = deployment.runtime.execute(&spec, &live.credentials);
            let replay = host.run(&replayed.spec, &replayed.credentials, None);
            let what = format!("{} submission {index}", workload.name());
            assert_eq!(
                result.is_commit(),
                replay.termination.outcome.is_commit(),
                "{what}"
            );
            assert_eq!(
                result.metrics.messages, replay.termination.metrics.messages,
                "{what}"
            );
            assert_eq!(
                result.metrics.proofs, replay.termination.metrics.proofs,
                "{what}"
            );
            assert_eq!(
                result.metrics.rounds, replay.termination.metrics.rounds,
                "{what}"
            );
            commits += usize::from(result.is_commit());
        }
        assert!(
            commits > 30,
            "{}: only {commits} of 40 committed",
            workload.name()
        );
    }
}
