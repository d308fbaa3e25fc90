//! `ledger` — the layer-ledger benchmark.
//!
//! ```text
//! ledger --workload <serve-bulk|serve-onpath|train|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One workload prints its host and
//! configuration record, a metric table, and as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`.
//! `--workload all` (the default) runs every workload untraced and then
//! traced. The exit code is 0 only when every output check passed.

use std::path::Path;
use std::process::ExitCode;

use amoeba_ledger::host::{ambient_set, commit, source_fingerprint};
use amoeba_ledger::report::{json_string, result_line};
use amoeba_ledger::workloads::{run, RunArgs, Workload};

struct Cli {
    workloads: Vec<Workload>,
    traces: Vec<bool>,
    seed: u64,
    seconds: f64,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Workload::ALL.to_vec(),
        traces: vec![false, true],
        seed: 42,
        seconds: 10.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => cli.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                cli.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => {
                cli.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got {value:?}"))?
            }
            "--seconds" => {
                cli.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number, got {value:?}"))?
            }
            "--trace" => {
                cli.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ledger: {e}");
            eprintln!(
                "usage: ledger --workload <serve-bulk|serve-onpath|train|all> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let keys: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .collect();
    let ambient = ambient_set(keys.iter().map(String::as_str));
    if !ambient.is_empty() {
        eprintln!(
            "ledger: refusing to run with {} set; the benchmark fixes its own configuration",
            ambient.join(", ")
        );
        return ExitCode::from(2);
    }

    let root = Path::new(".");
    let commit = commit(root);
    let source = format!("{:016x}", source_fingerprint(root));
    let runs: Vec<(Workload, bool)> = cli
        .workloads
        .iter()
        .flat_map(|&w| cli.traces.iter().map(move |&t| (w, t)))
        .collect();
    let mut all_correct = true;
    for (workload, trace) in runs {
        let mut out = run(RunArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace,
        });
        out.record.insert("commit".into(), commit.clone());
        out.record.insert("source_fnv".into(), source.clone());
        let record: Vec<String> = out
            .record
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        println!("{{\"record\": {{{}}}}}", record.join(", "));
        println!(
            "{} (trace {}): {} operations, {} failed",
            workload.name(),
            u8::from(trace),
            out.attempted,
            out.failed
        );
        print!("{}", out.metrics.table());
        for p in &out.problems {
            println!("CHECK FAILED: {p}");
        }
        let correct = out.problems.is_empty() && out.failed == 0 && out.attempted > 0;
        all_correct &= correct;
        println!(
            "{}",
            result_line(correct, out.attempted, out.failed, &out.metrics)
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
