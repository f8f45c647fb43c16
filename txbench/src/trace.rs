//! Spans, and the traced phase: the same closed loop, but the benchmark's
//! own queue and workers call `RuntimeKind::execute` once per attempt, so
//! queue wait, every execution and every backoff become spans.

use crate::closed_loop::{run_clients, Checks, ClientRun, Finished, Phase};
use crate::deploy::Deployment;
use crate::service_phase::retry_policy;
use crate::workload::{Submission, WORKERS};
use safetx_core::TxnOutcome;
use safetx_service::{classify, Disposition, ServiceOutcome};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// One timed interval. Spans of one transaction share `txn`; `parent` is
/// the id of the span that caused this one (0 for a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The submission index the span belongs to.
    pub txn: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// The causing span, or 0.
    pub parent: u64,
    /// Layer-qualified name, e.g. `runtime.execute`.
    pub name: &'static str,
    /// Start, nanoseconds after the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's epoch.
    pub end_ns: u64,
}

/// Hands out span ids and stamps instants against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }
}

impl Tracer {
    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A span over `[start, end]` with a fresh id.
    pub fn span(
        &self,
        txn: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        self.span_with_id(self.id(), txn, parent, name, start, end)
    }

    /// A span with a given id (for roots whose id children already hold).
    #[must_use]
    pub fn span_with_id(
        &self,
        id: u64,
        txn: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        Span {
            txn,
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        }
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its children cover (children of one span never overlap here).
#[must_use]
pub fn self_times_us(spans: &[Span]) -> std::collections::BTreeMap<&'static str, f64> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out = std::collections::BTreeMap::new();
    for s in spans {
        let own = s.end_ns.saturating_sub(s.start_ns);
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        *out.entry(s.name).or_insert(0.0) += own.saturating_sub(children) as f64 / 1e3;
    }
    out
}

/// Writes spans as JSON lines after a header line.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(spans.len() * 96 + header.len() + 1);
    text.push_str(header);
    text.push('\n');
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"txn\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.txn, s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, text)
}

/// One execution attempt of the traced phase.
#[derive(Debug, Clone, Copy)]
pub struct Attempt {
    /// When the execution returned.
    pub ended: Instant,
    /// Its wall time, microseconds.
    pub us: f64,
    /// Protocol messages it sent (Table I accounting).
    pub messages: u64,
    /// Voting/collection rounds it ran.
    pub rounds: u64,
}

/// What the traced phase produced.
pub struct TracedRun {
    /// The clients' completions and window marks.
    pub clients: ClientRun,
    /// Every execution attempt.
    pub attempts: Vec<Attempt>,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

struct Job {
    submission: Submission,
    submitted: Instant,
    reply: mpsc::Sender<Finished>,
}

/// Runs the traced closed loop: [`WORKERS`] benchmark-owned workers pop
/// submissions off one queue and execute them with the service's retry
/// rules, recording a `service.txn` root span per submission with
/// `service.queue_wait`, `runtime.execute` and `service.backoff` children.
pub fn run(
    deployment: &Deployment,
    phase: Phase,
    first: u64,
    seed: u64,
    tracer: &Tracer,
    checks: &Mutex<Checks>,
) -> TracedRun {
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let jobs_rx = Mutex::new(jobs_rx);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| scope.spawn(|| worker(deployment, seed, tracer, &jobs_rx)))
            .collect();
        let clients = run_clients(deployment, phase, first, checks, |submission, submitted| {
            let (reply, done) = mpsc::channel();
            jobs_tx
                .send(Job {
                    submission,
                    submitted,
                    reply,
                })
                .expect("traced workers outlive the clients");
            done.recv().expect("a traced worker answers every job")
        });
        drop(jobs_tx);
        let mut attempts = Vec::new();
        let mut spans = Vec::new();
        for handle in workers {
            let (a, s) = handle.join().expect("traced worker");
            attempts.extend(a);
            spans.extend(s);
        }
        TracedRun {
            clients,
            attempts,
            spans,
        }
    })
}

fn worker(
    deployment: &Deployment,
    seed: u64,
    tracer: &Tracer,
    jobs: &Mutex<mpsc::Receiver<Job>>,
) -> (Vec<Attempt>, Vec<Span>) {
    let retry = retry_policy();
    let runtime = &deployment.runtime;
    let mut attempts = Vec::new();
    let mut spans = Vec::new();
    loop {
        let job = {
            let rx = jobs.lock().expect("job queue lock");
            rx.recv()
        };
        let Ok(job) = job else { break };
        let popped = Instant::now();
        let index = job.submission.index;
        let root = tracer.id();
        spans.push(tracer.span(index, root, "service.queue_wait", job.submitted, popped));
        let mut spec = job.submission.spec;
        let credentials = job.submission.credentials;
        let (mut tries, mut transient, mut unavailable) = (0u32, 0u32, 0u32);
        let mut executing = Duration::ZERO;
        let (outcome, view) = loop {
            tries += 1;
            spec.id = runtime.next_txn_id();
            let started = Instant::now();
            let result = runtime.execute(&spec, &credentials);
            let ended = Instant::now();
            executing += ended - started;
            spans.push(tracer.span(index, root, "runtime.execute", started, ended));
            attempts.push(Attempt {
                ended,
                us: (ended - started).as_secs_f64() * 1e6,
                messages: result.metrics.messages,
                rounds: result.metrics.rounds,
            });
            let reason = match result.outcome {
                TxnOutcome::Committed { .. } => break (ServiceOutcome::Committed, result.view),
                TxnOutcome::Aborted { reason, .. } => reason,
            };
            let pause = match classify(reason) {
                Disposition::Terminal => {
                    break (ServiceOutcome::TerminalAbort(reason), result.view)
                }
                Disposition::Retryable if transient < retry.max_retries => {
                    transient += 1;
                    retry.backoff(transient - 1, seed ^ index)
                }
                Disposition::Unavailable if unavailable < retry.unavailable_max_retries => {
                    unavailable += 1;
                    retry.unavailable_backoff_for(unavailable - 1, seed ^ index)
                }
                _ => break (ServiceOutcome::RetriesExhausted(reason), result.view),
            };
            let slept = Instant::now();
            std::thread::sleep(pause);
            spans.push(tracer.span(index, root, "service.backoff", slept, Instant::now()));
        };
        let finished_at = Instant::now();
        spans.push(tracer.span_with_id(root, index, 0, "service.txn", job.submitted, finished_at));
        // A client that stopped waiting is not an error.
        let _ = job.reply.send(Finished {
            outcome,
            attempts: tries,
            queue_wait: popped - job.submitted,
            latency: finished_at - job.submitted,
            executing,
            view,
        });
    }
    (attempts, spans)
}
