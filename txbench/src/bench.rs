//! One benchmark run: set-up, the measured phases, every outcome check,
//! and the metrics they yield.

use crate::closed_loop::{median_figures, quiet_windows, Checks, ClientRun, Done, Phase};
use crate::deploy::{CoreProbe, Deployment};
use crate::host;
use crate::replay::{LayerTimes, ReplayHost};
use crate::stats::{median, quantile, ratio};
use crate::trace::{self, Span, Tracer};
use crate::workload::{policy, Backend, Generator, Workload};
use crate::{service_phase, trace::TracedRun};
use safetx_metrics::{Json, RouteCounters, TransportCounters, WalStats};
use safetx_policy::{credential_fact_base, AccessRequest, CredentialCheck, Engine, FactBase};
use safetx_service::RuntimeKind;
use safetx_types::Timestamp;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The end-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("commit_tps", "commits/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p95_ms", "ms"),
    ("cpu_us_per_commit", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (traced runs), with units.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("service.commit_p99_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.attempts_per_commit", "ratio"),
    ("service.lock_retries_per_commit", "ratio"),
    ("service.stale_version_retries_per_commit", "ratio"),
    ("runtime.execute_p50_us", "us"),
    ("runtime.execute_p99_us", "us"),
    ("runtime.messages_per_commit", "count"),
    ("runtime.rounds_per_commit", "count"),
    ("runtime.hop_us_per_commit", "us"),
    ("net.frames_per_commit", "count"),
    ("net.bytes_per_commit", "B"),
    ("net.codec_us_per_commit", "us"),
    ("core.tm_us_per_commit", "us"),
    ("core.exec_us_per_commit", "us"),
    ("core.validate_us_per_commit", "us"),
    ("core.vote_us_per_commit", "us"),
    ("core.decide_us_per_commit", "us"),
    ("core.proofs_per_commit", "count"),
    ("core.proof_cache_hit_ratio", "ratio"),
    ("core.proof_cache_invalidations_per_1k_commits", "count"),
    ("policy.engine_runs_per_commit", "count"),
    ("policy.prove_us", "us"),
    ("store.forced_logs_per_commit", "count"),
    ("store.physical_syncs_per_commit", "count"),
    ("shard.cross_frac", "ratio"),
    ("shard.single_p50_ms", "ms"),
    ("shard.cross_p50_ms", "ms"),
    ("trace.commit_p50_ms", "ms"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.closure_gap_frac", "ratio"),
];

/// The share of the traced commit median that queue wait plus execution
/// time may leave unexplained. Equal to the `commit_p50_ms` bound in
/// `BENCHMARK.json`.
pub const CLOSURE_BOUND: f64 = 0.25;

/// Deployments an untraced run builds: at least `MIN_SETUPS`, and more
/// while their total stays under `SETUP_BUDGET` (up to `MAX_SETUPS`), so a
/// sub-millisecond set-up is still a steady median. `setup_s` is the median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 500;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Unmeasured lead-in of each phase.
const WARMUP: Duration = Duration::from_millis(1000);
/// Windows per second of measurement.
const WINDOWS_PER_SECOND: f64 = 4.0;
/// Upper bounds on the replay: wall time and transactions.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
const REPLAY_MAX: u64 = 4000;
/// `Engine::prove` calls timed for `policy.prove_us`.
const PROVE_SAMPLES: u64 = 2000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds (split across the two phases of a traced run).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_file: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value (0 when the metric does not apply).
    pub value: f64,
    /// False for a layer this workload does not pass through.
    pub applies: bool,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every outcome check passed.
    pub correct: bool,
    /// Submissions completed in the measured part.
    pub attempted: u64,
    /// Authorized submissions among them that did not commit.
    pub failed: u64,
    /// The metrics of this kind of run, in table order.
    pub metrics: Vec<Metric>,
    /// What failed, when something did.
    pub problems: Vec<String>,
    /// Host record.
    pub host: Json,
    /// Human-readable detail (sample counts, windows).
    pub detail: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn result_json(&self) -> Json {
        let mut metrics = Json::object();
        for m in &self.metrics {
            metrics = metrics.with(
                m.name,
                Json::object().with("value", m.value).with("unit", m.unit),
            );
        }
        Json::object()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

/// Deployment-wide counters, snapshotted around the traced run's phases.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    probe: CoreProbe,
    wal: WalStats,
    transport: TransportCounters,
    route: RouteCounters,
}

impl Counters {
    fn read(deployment: &Deployment) -> Counters {
        Counters {
            probe: deployment.probe_all(),
            wal: deployment.runtime.wal_stats(),
            transport: deployment.runtime.transport_counters(),
            route: deployment.runtime.route_counters(),
        }
    }
}

fn phase(measure: Duration) -> Phase {
    Phase {
        warmup: WARMUP,
        measure,
        windows: ((measure.as_secs_f64() * WINDOWS_PER_SECOND).round() as usize).max(1),
    }
}

/// Runs the benchmark once.
#[must_use]
pub fn run(options: &Options) -> Outcome {
    let steal_before = host::steal_ticks();
    let checks = Mutex::new(Checks::default());
    let measure = Duration::from_secs_f64(options.seconds);
    let mut detail = Vec::new();
    let (metrics, attempted, failed) = if options.trace {
        traced(options, measure, &checks, &mut detail)
    } else {
        untraced(options, measure, &checks, &mut detail)
    };
    let checks = checks.into_inner().expect("checks lock");
    detail.push(format!(
        "{} commits audited against Definition 4, {} problems",
        checks.audited, checks.problem_count
    ));
    Outcome {
        correct: checks.problem_count == 0,
        attempted,
        failed,
        metrics,
        problems: checks.problems,
        host: host::record(options.seed, steal_before),
        detail,
    }
}

fn measured_counts(run: &ClientRun) -> (u64, u64) {
    let measured: Vec<&Done> = run.measured().collect();
    let failed = measured
        .iter()
        .filter(|d| d.authorized && !d.committed)
        .count();
    (measured.len() as u64, failed as u64)
}

fn untraced(
    options: &Options,
    measure: Duration,
    checks: &Mutex<Checks>,
    detail: &mut Vec<String>,
) -> (Vec<Metric>, u64, u64) {
    let timed_build = || {
        let started = Instant::now();
        let deployment = Deployment::build(options.workload, options.seed);
        (deployment, started.elapsed().as_secs_f64())
    };
    let (deployment, first_setup) = timed_build();
    let run = service_phase::run(&deployment, phase(measure), 0, options.seed, checks);
    final_checks(&deployment, checks);
    let end_rss_mb = host::peak_rss_mb();
    drop(deployment);
    let mut setups = vec![first_setup];
    while setups.len() < MAX_SETUPS
        && (setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        setups.push(timed_build().1);
    }
    let windows = run.clients.windows();
    let quiet = quiet_windows(&windows);
    let figures = median_figures(&quiet);
    let commits: usize = quiet.iter().map(|w| w.latencies_ms.len()).sum();
    detail.push(format!(
        "figures are medians over the {} of {} windows with no more steal than the quietest \
         quarter (steal ticks per window {:?}): {} commits, about {} per window; {} setups, \
         median {:.6} s; VmHWM {:.1} MB when measuring began, {:.1} MB after the phase",
        quiet.len(),
        windows.len(),
        windows.iter().map(|w| w.steal).collect::<Vec<_>>(),
        commits,
        commits / quiet.len().max(1),
        setups.len(),
        median(&setups),
        run.clients.marks[0].peak_rss_mb,
        end_rss_mb
    ));
    let value = |name: &str| match name {
        "commit_tps" => figures.tps,
        "commit_p50_ms" => figures.p50_ms,
        "commit_p95_ms" => figures.p95_ms,
        "cpu_us_per_commit" => figures.cpu_us_per_commit,
        "setup_s" => median(&setups),
        "peak_rss_mb" => run.clients.marks[0].peak_rss_mb,
        other => unreachable!("unknown end-to-end metric {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: value(name),
            applies: true,
        })
        .collect();
    let (attempted, failed) = measured_counts(&run.clients);
    (metrics, attempted, failed)
}

/// Checks that need a quiescent deployment: transport conservation on
/// the wire, router conservation across shards, and the store audit.
pub fn final_checks(deployment: &Deployment, checks: &Mutex<Checks>) {
    let added = checks.lock().expect("checks lock").added.clone();
    let mut problems = Vec::new();
    match &deployment.runtime {
        RuntimeKind::Net(cluster) => {
            // Receive counters move on reader threads: let in-flight frames
            // land before calling an imbalance.
            let balanced = || {
                deployment.servers().all(|s| {
                    let (tm, srv) = cluster.edge_counters(s);
                    tm.frames_sent == srv.frames_received
                        && tm.bytes_sent == srv.bytes_received
                        && srv.frames_sent == tm.frames_received
                        && srv.bytes_sent == tm.bytes_received
                })
            };
            if !settle(balanced) {
                problems.push(format!(
                    "wire frames or bytes sent differ from those received: {:?}",
                    cluster.transport_counters()
                ));
            }
            let decode_errors = cluster.transport_counters().decode_errors;
            if decode_errors != 0 {
                problems.push(format!("{decode_errors} wire decode errors"));
            }
        }
        RuntimeKind::Sharded(cluster) => {
            let route = cluster.route_counters();
            if !route.conserves() {
                problems.push(format!("router accounting does not conserve: {route:?}"));
            }
        }
        RuntimeKind::Threaded(_) => {}
    }
    // Decisions reach a net server through its socket reader: give the
    // last ones time to apply before the audit counts a mismatch.
    let mut audit = Ok(());
    settle(|| {
        audit = deployment.audit_store(&added);
        audit.is_ok()
    });
    if let Err(problem) = audit {
        problems.push(problem);
    }
    let mut checks = checks.lock().expect("checks lock");
    for problem in problems {
        checks.fail(problem);
    }
}

/// Polls `ok` for up to two seconds.
fn settle(mut ok: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        if ok() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

struct ReplayRun {
    times: LayerTimes,
    commits: u64,
    prove_us: f64,
}

/// Replays the workload's specs through the single-threaded host until
/// its budget runs out, then times `Engine::prove` on the specs' rules,
/// credentials and goals.
fn replay(workload: Workload, seed: u64, tracer: &Tracer, spans: &mut Vec<Span>) -> ReplayRun {
    let mut host = ReplayHost::new(workload);
    let generator = Generator::new(workload, seed, host.cas());
    let mut times = LayerTimes::default();
    let mut commits = 0;
    let started = Instant::now();
    let mut index = 0;
    while index < REPLAY_MAX && started.elapsed() < REPLAY_BUDGET {
        let submission = generator.make(index);
        if submission.publishes {
            host.publish_churn(index);
        }
        let replayed = host.run(
            &submission.spec,
            &submission.credentials,
            Some((tracer, spans, index)),
        );
        times.add(&replayed.times);
        commits += u64::from(replayed.termination.outcome.is_commit() && submission.authorized);
        index += 1;
    }
    let engine = Engine::new();
    let rules = policy().rules().as_slice().to_vec();
    let mut prove_us = Vec::new();
    for index in index..index + PROVE_SAMPLES {
        let submission = generator.make(index);
        let Some(query) = submission.spec.queries.first() else {
            continue;
        };
        let Ok(CredentialCheck::Valid(facts)) = credential_fact_base(
            host.cas(),
            &FactBase::new(),
            &submission.credentials,
            Timestamp::ZERO,
        ) else {
            continue;
        };
        let goal = AccessRequest::new(submission.spec.user, &query.action, &query.resource).goal();
        let started = Instant::now();
        let granted = engine.prove(&rules, &facts, &goal);
        prove_us.push(started.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(granted).ok();
    }
    ReplayRun {
        times,
        commits,
        prove_us: median(&prove_us),
    }
}

fn traced(
    options: &Options,
    measure: Duration,
    checks: &Mutex<Checks>,
    detail: &mut Vec<String>,
) -> (Vec<Metric>, u64, u64) {
    let workload = options.workload;
    let deployment = Deployment::build(workload, options.seed);
    let before = Counters::read(&deployment);
    let half = phase(measure / 2);
    let service = service_phase::run(&deployment, half, 0, options.seed, checks);
    let tracer = Tracer::default();
    let traced: TracedRun = trace::run(
        &deployment,
        half,
        service.clients.next_index,
        options.seed,
        &tracer,
        checks,
    );
    final_checks(&deployment, checks);
    let after = Counters::read(&deployment);
    let mut spans = traced.spans;
    let replayed = replay(workload, options.seed, &tracer, &mut spans);

    // Live counters cover both phases, warm-up included.
    let live_commits = (service.stats.commits
        + traced.clients.dones.iter().filter(|d| d.committed).count() as u64)
        as f64;
    let delta = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;
    let per_live_commit = |f: fn(&Counters) -> u64| ratio(delta(f), live_commits);

    // The untraced (service) phase's measured part.
    let service_measured: Vec<&Done> = service.clients.measured().collect();
    let queue_waits: Vec<f64> = service_measured.iter().map(|d| d.queue_wait_ms).collect();
    let mut service_latency: Vec<f64> = service_measured
        .iter()
        .filter(|d| d.committed)
        .map(|d| d.latency_ms)
        .collect();
    let service_commits = service_latency.len() as f64;
    let authorized_attempts: u32 = service_measured
        .iter()
        .filter(|d| d.authorized)
        .map(|d| d.attempts)
        .sum();

    // The traced phase's measured part.
    let (from, to) = (
        traced.clients.marks[0].at,
        traced.clients.marks[traced.clients.marks.len() - 1].at,
    );
    let traced_measured: Vec<&Done> = traced.clients.measured().collect();
    let traced_commits = traced_measured.iter().filter(|d| d.committed).count() as f64;
    let mut traced_latency: Vec<f64> = traced_measured
        .iter()
        .filter(|d| d.committed)
        .map(|d| d.latency_ms)
        .collect();
    let mut accounted: Vec<f64> = traced_measured
        .iter()
        .filter(|d| d.committed)
        .map(|d| d.queue_wait_ms + d.executing_ms)
        .collect();
    let executing_us: f64 = traced_measured.iter().map(|d| d.executing_ms * 1e3).sum();
    let window_attempts: Vec<_> = traced
        .attempts
        .iter()
        .filter(|a| a.ended >= from && a.ended < to)
        .collect();
    let execute_us: Vec<f64> = window_attempts.iter().map(|a| a.us).collect();
    let messages: u64 = window_attempts.iter().map(|a| a.messages).sum();
    let rounds: u64 = window_attempts.iter().map(|a| a.rounds).sum();

    let replay_per_commit = |d: Duration| ratio(d.as_secs_f64() * 1e6, replayed.commits as f64);
    let exec_per_commit = ratio(executing_us, traced_commits);
    let replayed_core_and_codec =
        replay_per_commit(replayed.times.core()) + replay_per_commit(replayed.times.codec);
    let traced_p50 = quantile(&mut traced_latency, 0.5);
    let accounted_p50 = quantile(&mut accounted, 0.5);
    let untraced_p50 = quantile(&mut service_latency, 0.5);
    let closure_gap = ratio(traced_p50 - accounted_p50, traced_p50);
    let hop = exec_per_commit - replayed_core_and_codec;

    {
        let mut checks = checks.lock().expect("checks lock");
        if hop < 0.0 {
            checks.fail(format!(
                "closure: replayed core + codec time ({replayed_core_and_codec:.1} us/commit) \
                 exceeds execute time ({exec_per_commit:.1} us/commit)"
            ));
        }
        if closure_gap > CLOSURE_BOUND {
            checks.fail(format!(
                "closure: queue wait + execute time leaves {:.1}% of the traced commit p50 \
                 ({traced_p50:.3} ms) unexplained, bound {:.0}%",
                closure_gap * 100.0,
                CLOSURE_BOUND * 100.0
            ));
        }
    }

    let (mut single_ms, mut cross_ms) = match &deployment.runtime {
        RuntimeKind::Sharded(cluster) => cluster.route_latency_ms(),
        _ => Default::default(),
    };
    let net = workload.backend() == Backend::Net;
    let sharded = workload.backend() == Backend::Sharded;
    let cache = |c: &Counters| c.probe.counters.proof_cache;
    let cache_lookups =
        (cache(&after).hits + cache(&after).misses) - (cache(&before).hits + cache(&before).misses);
    let mut value = |name: &str| -> (f64, bool) {
        match name {
            "service.commit_p99_ms" => (quantile(&mut service_latency.clone(), 0.99), true),
            "service.queue_wait_p50_ms" => (quantile(&mut queue_waits.clone(), 0.5), true),
            "service.attempts_per_commit" => {
                (ratio(f64::from(authorized_attempts), service_commits), true)
            }
            "service.lock_retries_per_commit" => (
                ratio(
                    service.stats.retry_lock_conflicts as f64,
                    service.stats.commits as f64,
                ),
                true,
            ),
            "service.stale_version_retries_per_commit" => (
                ratio(
                    service.stats.retry_stale_versions as f64,
                    service.stats.commits as f64,
                ),
                true,
            ),
            "runtime.execute_p50_us" => (quantile(&mut execute_us.clone(), 0.5), true),
            "runtime.execute_p99_us" => (quantile(&mut execute_us.clone(), 0.99), true),
            "runtime.messages_per_commit" => (ratio(messages as f64, traced_commits), true),
            "runtime.rounds_per_commit" => (ratio(rounds as f64, traced_commits), true),
            "runtime.hop_us_per_commit" => (hop, true),
            "net.frames_per_commit" => (per_live_commit(|c| c.transport.frames_sent), net),
            "net.bytes_per_commit" => (per_live_commit(|c| c.transport.bytes_sent), net),
            "net.codec_us_per_commit" => (replay_per_commit(replayed.times.codec), net),
            "core.tm_us_per_commit" => (replay_per_commit(replayed.times.tm), true),
            "core.exec_us_per_commit" => (replay_per_commit(replayed.times.exec), true),
            "core.validate_us_per_commit" => (replay_per_commit(replayed.times.validate), true),
            "core.vote_us_per_commit" => (replay_per_commit(replayed.times.vote), true),
            "core.decide_us_per_commit" => (replay_per_commit(replayed.times.decide), true),
            "core.proofs_per_commit" => (per_live_commit(|c| c.probe.counters.proofs), true),
            "core.proof_cache_hit_ratio" => (
                ratio(
                    (cache(&after).hits - cache(&before).hits) as f64,
                    cache_lookups as f64,
                ),
                true,
            ),
            "core.proof_cache_invalidations_per_1k_commits" => (
                1000.0 * per_live_commit(|c| c.probe.counters.proof_cache.invalidations),
                true,
            ),
            "policy.engine_runs_per_commit" => (per_live_commit(|c| c.probe.engine_runs), true),
            "policy.prove_us" => (replayed.prove_us, true),
            "store.forced_logs_per_commit" => (per_live_commit(|c| c.wal.forced_logs), true),
            "store.physical_syncs_per_commit" => (per_live_commit(|c| c.wal.physical_syncs), true),
            "shard.cross_frac" => {
                let submitted = |c: &Counters| {
                    (
                        c.route.cross_shard_submitted,
                        c.route.single_shard_submitted + c.route.cross_shard_submitted,
                    )
                };
                let ((c1, t1), (c0, t0)) = (submitted(&after), submitted(&before));
                (ratio((c1 - c0) as f64, (t1 - t0) as f64), sharded)
            }
            "shard.single_p50_ms" => (single_ms.quantile(0.5).unwrap_or(0.0), sharded),
            "shard.cross_p50_ms" => (cross_ms.quantile(0.5).unwrap_or(0.0), sharded),
            "trace.commit_p50_ms" => (traced_p50, true),
            "trace.overhead_p50_ms" => (traced_p50 - untraced_p50, true),
            "trace.closure_gap_frac" => (closure_gap, true),
            other => unreachable!("unknown per-layer metric {other}"),
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, applies) = value(name);
            Metric {
                name,
                unit,
                value: if applies { value } else { 0.0 },
                applies,
            }
        })
        .collect();
    let not_applicable: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.applies)
        .map(|m| m.name)
        .collect();
    detail.push(format!(
        "service phase: {} commits measured ({} beyond its p99); replayed {} commits; \
         traced {} commits in the measured part; n/a here: {}",
        service_commits,
        (service_commits / 100.0).floor(),
        replayed.commits,
        traced_commits,
        if not_applicable.is_empty() {
            "none".to_string()
        } else {
            not_applicable.join(", ")
        }
    ));
    if let Some(path) = &options.trace_file {
        let header = Json::object()
            .with("workload", workload.name())
            .with("seed", options.seed)
            .with("spans", spans.len())
            .with(
                "not_applicable",
                not_applicable
                    .iter()
                    .map(|&n| Json::from(n))
                    .collect::<Vec<_>>(),
            )
            .render();
        if let Err(err) = trace::write_jsonl(path, &header, &spans) {
            detail.push(format!("trace file {} not written: {err}", path.display()));
        }
    }
    let self_us = trace::self_times_us(&spans);
    detail.push(format!("span self time (us): {self_us:?}"));
    let (a1, f1) = measured_counts(&service.clients);
    let (a2, f2) = measured_counts(&traced.clients);
    (metrics, a1 + a2, f1 + f2)
}
