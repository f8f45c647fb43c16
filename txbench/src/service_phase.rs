//! The untraced phase: the closed loop through the public `TxnService`.

use crate::closed_loop::{run_clients, Checks, ClientRun, Finished, Phase};
use crate::deploy::Deployment;
use crate::workload::{CLIENTS, WORKERS};
use safetx_service::{RetryPolicy, ServiceConfig, ServiceStats, TxnService};
use std::sync::Mutex;
use std::time::Duration;

/// The retry policy of both phases: a budget generous enough that every
/// authorized submission commits in the end.
#[must_use]
pub fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 64,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(2),
        jitter_percent: 50,
        ..RetryPolicy::default()
    }
}

/// What the service phase produced.
pub struct ServiceRun {
    /// The clients' completions and window marks.
    pub clients: ClientRun,
    /// The service's statistics after shutdown.
    pub stats: ServiceStats,
}

/// Runs the closed loop through a fresh [`TxnService`] over the
/// deployment, then shuts the service down and checks its accounting.
pub fn run(
    deployment: &Deployment,
    phase: Phase,
    first: u64,
    seed: u64,
    checks: &Mutex<Checks>,
) -> ServiceRun {
    let service = TxnService::with_runtime(
        deployment.runtime.clone(),
        ServiceConfig {
            workers: WORKERS,
            queue_depth: 2 * CLIENTS,
            retry: retry_policy(),
            seed,
        },
    );
    let clients = run_clients(deployment, phase, first, checks, |submission, _| {
        let done = service
            .submit_blocking(submission.spec, submission.credentials)
            .expect("the service stays open while clients run")
            .wait();
        Finished {
            outcome: done.outcome,
            attempts: done.attempts,
            queue_wait: done.queue_wait,
            latency: done.latency,
            executing: Duration::ZERO,
            view: done.view,
        }
    });
    let stats = service.shutdown();
    let mut checks = checks.lock().expect("checks lock");
    if !stats.conserves() {
        checks.fail(format!("service accounting does not conserve: {stats:?}"));
    }
    let committed = clients.dones.iter().filter(|d| d.committed).count() as u64;
    if stats.commits != committed {
        checks.fail(format!(
            "service counted {} commits, clients saw {committed}",
            stats.commits
        ));
    }
    ServiceRun { clients, stats }
}
