//! The closed-loop client population shared by the untraced service phase
//! and the traced phase, with the outcome checks every completion passes
//! through.

use crate::deploy::Deployment;
use crate::host;
use crate::stats::{median, quantile, ratio};
use crate::workload::{Submission, CLIENTS};
use safetx_core::{AbortReason, TransactionView};
use safetx_service::ServiceOutcome;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a phase warms up and measures, and into how many windows the
/// measured part is cut.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Unmeasured lead-in: caches fill, lazy set-up finishes.
    pub warmup: Duration,
    /// The measured part.
    pub measure: Duration,
    /// Equal windows the measured part is cut into; headline figures are
    /// medians over windows, so one host stall moves at most one window.
    pub windows: usize,
}

/// How an executor finished one submission.
#[derive(Debug)]
pub struct Finished {
    /// Final disposition.
    pub outcome: ServiceOutcome,
    /// Executions performed.
    pub attempts: u32,
    /// Time queued before the first execution.
    pub queue_wait: Duration,
    /// Submission to final outcome.
    pub latency: Duration,
    /// Summed wall time of the executions (traced executor only).
    pub executing: Duration,
    /// The last execution's proof view.
    pub view: TransactionView,
}

/// One completed submission as the benchmark keeps it.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// When the client saw the outcome.
    pub completed: Instant,
    /// Submission to outcome, milliseconds.
    pub latency_ms: f64,
    /// Queue wait, milliseconds.
    pub queue_wait_ms: f64,
    /// Summed execution time, milliseconds (traced executor only).
    pub executing_ms: f64,
    /// Executions performed.
    pub attempts: u32,
    /// Committed.
    pub committed: bool,
    /// Presented a credential (the others must be denied).
    pub authorized: bool,
}

/// Outcome checks accumulated over a run: any problem fails it.
#[derive(Debug, Default)]
pub struct Checks {
    /// Committed `Add` deltas per server index (for the store audit).
    pub added: Vec<i64>,
    /// Problems found, first few verbatim.
    pub problems: Vec<String>,
    /// Problems found in total.
    pub problem_count: u64,
    /// Committed views audited against Definition 4.
    pub audited: u64,
}

impl Checks {
    /// Records a problem.
    pub fn fail(&mut self, problem: String) {
        self.problem_count += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn add(&mut self, server: u64, delta: i64) {
        let slot = server as usize;
        if self.added.len() <= slot {
            self.added.resize(slot + 1, 0);
        }
        self.added[slot] += delta;
    }
}

/// What a client population produced.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Every completion, warm-up and stragglers included.
    pub dones: Vec<Done>,
    /// Readings at each window boundary of the measured part, first to
    /// last.
    pub marks: Vec<Mark>,
    /// The first submission index not used.
    pub next_index: u64,
}

/// Readings taken at a window boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// When.
    pub at: Instant,
    /// Process CPU seconds so far.
    pub cpu_s: f64,
    /// Host steal ticks so far.
    pub steal: u64,
    /// Peak resident set size so far, megabytes.
    pub peak_rss_mb: f64,
}

/// One measured window.
#[derive(Debug, Clone)]
pub struct Window {
    /// Latencies of the authorized commits completed in it, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Its length, seconds.
    pub secs: f64,
    /// Process CPU seconds used in it.
    pub cpu_s: f64,
    /// Ticks the host's hypervisor stole from its CPUs meanwhile.
    pub steal: u64,
}

/// The headline figures of one window, or their medians over windows.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    /// Commits per second.
    pub tps: f64,
    /// Median commit latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile commit latency, milliseconds.
    pub p95_ms: f64,
    /// Process CPU per commit, microseconds.
    pub cpu_us_per_commit: f64,
}

impl Window {
    /// This window's figures.
    #[must_use]
    pub fn figures(&self) -> Figures {
        let mut latencies = self.latencies_ms.clone();
        let commits = latencies.len() as f64;
        Figures {
            tps: ratio(commits, self.secs),
            p50_ms: quantile(&mut latencies, 0.50),
            p95_ms: quantile(&mut latencies, 0.95),
            cpu_us_per_commit: ratio(self.cpu_s * 1e6, commits),
        }
    }
}

impl ClientRun {
    /// Completions inside the measured part.
    pub fn measured(&self) -> impl Iterator<Item = &Done> {
        let (start, end) = (self.marks[0].at, self.marks[self.marks.len() - 1].at);
        self.dones
            .iter()
            .filter(move |d| d.completed >= start && d.completed < end)
    }

    /// The measured part, window by window.
    #[must_use]
    pub fn windows(&self) -> Vec<Window> {
        self.marks
            .windows(2)
            .map(|pair| {
                let (from, to) = (pair[0].at, pair[1].at);
                Window {
                    latencies_ms: self
                        .dones
                        .iter()
                        .filter(|d| d.committed && d.completed >= from && d.completed < to)
                        .map(|d| d.latency_ms)
                        .collect(),
                    secs: (to - from).as_secs_f64(),
                    cpu_s: pair[1].cpu_s - pair[0].cpu_s,
                    steal: pair[1].steal - pair[0].steal,
                }
            })
            .collect()
    }
}

/// The windows in which the host stole no more CPU time than in the
/// quietest quarter of windows. While a neighbour is busy, even a window
/// with a few steal ticks shows a fatter tail than one with none, so only
/// the least-stolen windows are kept; with no steal at all every window
/// stays.
#[must_use]
pub fn quiet_windows(windows: &[Window]) -> Vec<Window> {
    let mut steals: Vec<u64> = windows.iter().map(|w| w.steal).collect();
    steals.sort_unstable();
    let limit = steals
        .get(steals.len().saturating_sub(1) / 4)
        .copied()
        .unwrap_or(0);
    windows
        .iter()
        .filter(|w| w.steal <= limit)
        .cloned()
        .collect()
}

/// Each figure's median over `windows`. A figure pooled over the whole
/// run moves with every stalled window (a few stalls fill a pooled p95);
/// a median over windows moves only when most windows do.
#[must_use]
pub fn median_figures(windows: &[Window]) -> Figures {
    let figures: Vec<Figures> = windows.iter().map(Window::figures).collect();
    let over = |f: fn(&Figures) -> f64| median(&figures.iter().map(f).collect::<Vec<_>>());
    Figures {
        tps: over(|f| f.tps),
        p50_ms: over(|f| f.p50_ms),
        p95_ms: over(|f| f.p95_ms),
        cpu_us_per_commit: over(|f| f.cpu_us_per_commit),
    }
}

/// Runs [`CLIENTS`] closed-loop clients against `execute` for one phase.
/// Client `c` submits indices `first + c`, `first + c + CLIENTS`, … and
/// stops submitting once the phase ends. Every outcome goes through
/// [`check`].
pub fn run_clients<F>(
    deployment: &Deployment,
    phase: Phase,
    first: u64,
    checks: &Mutex<Checks>,
    execute: F,
) -> ClientRun
where
    F: Fn(Submission, Instant) -> Finished + Sync,
{
    let measure_from = Instant::now() + phase.warmup;
    let end = measure_from + phase.measure;
    let (marks, per_client): (Vec<Mark>, Vec<(Vec<Done>, u64)>) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|client| {
                let execute = &execute;
                scope.spawn(move || {
                    let mut dones = Vec::new();
                    let mut round = 0u64;
                    while Instant::now() < end {
                        let index = first + round * CLIENTS as u64 + client;
                        round += 1;
                        dones.push(submit(deployment, index, checks, execute));
                    }
                    (dones, round)
                })
            })
            .collect();
        let marks = (0..=phase.windows)
            .map(|k| {
                let at = measure_from + phase.measure.mul_f64(k as f64 / phase.windows as f64);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                Mark {
                    at: Instant::now(),
                    cpu_s: host::process_cpu_s(),
                    steal: host::steal_ticks(),
                    peak_rss_mb: host::peak_rss_mb(),
                }
            })
            .collect();
        let per_client = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        (marks, per_client)
    });
    let rounds = per_client.iter().map(|(_, r)| *r).max().unwrap_or(0);
    ClientRun {
        dones: per_client.into_iter().flat_map(|(d, _)| d).collect(),
        marks,
        next_index: first + rounds * CLIENTS as u64,
    }
}

/// Generates, submits and checks submission `index`.
fn submit<F>(deployment: &Deployment, index: u64, checks: &Mutex<Checks>, execute: &F) -> Done
where
    F: Fn(Submission, Instant) -> Finished,
{
    let submission = deployment.generator.make(index);
    if submission.publishes {
        deployment.publish_churn(index);
    }
    let authorized = submission.authorized;
    let adds: Vec<(u64, i64)> = submission.adds().collect();
    let submitted = Instant::now();
    let finished = execute(submission, submitted);
    let completed = Instant::now();
    let committed = finished.outcome.is_commit();
    let problem = check(
        deployment, index, authorized, &finished, submitted, completed,
    );
    {
        let mut checks = checks.lock().expect("checks lock");
        if let Some(problem) = problem {
            checks.fail(problem);
        }
        if authorized && committed {
            checks.audited += 1;
            for (server, delta) in adds {
                checks.add(server, delta);
            }
        }
    }
    Done {
        completed,
        latency_ms: finished.latency.as_secs_f64() * 1e3,
        queue_wait_ms: finished.queue_wait.as_secs_f64() * 1e3,
        executing_ms: finished.executing.as_secs_f64() * 1e3,
        attempts: finished.attempts,
        committed: committed && authorized,
        authorized,
    }
}

/// The per-completion checks:
///
/// * a credential-less submission must end `TerminalAbort(ProofFalse)`;
/// * an authorized commit must be trusted (Definition 4) under some
///   policy version current between its submission and its completion.
fn check(
    deployment: &Deployment,
    index: u64,
    authorized: bool,
    finished: &Finished,
    submitted: Instant,
    completed: Instant,
) -> Option<String> {
    if !authorized {
        return (finished.outcome != ServiceOutcome::TerminalAbort(AbortReason::ProofFalse)).then(
            || {
                format!(
                    "submission {index} without credentials ended {:?}",
                    finished.outcome
                )
            },
        );
    }
    let level = deployment.workload.cluster_config().consistency;
    (finished.outcome.is_commit()
        && !deployment
            .churn
            .audit(&finished.view, level, submitted, completed))
    .then(|| format!("commit of submission {index} fails the Definition 4 audit"))
}
