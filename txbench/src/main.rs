//! Command-line entry of the benchmark.
//!
//! ```text
//! txbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host record, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when an
//! outcome check fails or the arguments are unusable.

use safetx_txbench::bench::{self, Options};
use safetx_txbench::workload::Workload;
use std::process::ExitCode;

fn parse() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        trace_file: trace.then(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}.jsonl", workload.name()))
        }),
    })
}

fn main() -> ExitCode {
    let options = match parse() {
        Ok(options) => options,
        Err(err) => {
            eprintln!("txbench: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = bench::run(&options);
    for line in &outcome.detail {
        eprintln!("txbench: {line}");
    }
    for problem in &outcome.problems {
        eprintln!("txbench: CHECK FAILED: {problem}");
    }
    for m in &outcome.metrics {
        let note = if m.applies { "" } else { "  (n/a)" };
        eprintln!("txbench: {:<46} {:>14.4} {}{note}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        safetx_metrics::Json::object()
            .with("host", outcome.host.clone())
            .render()
    );
    println!("{}", outcome.result_json().render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
