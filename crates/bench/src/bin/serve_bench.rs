//! Serving throughput sweep across inference batch sizes and shard
//! (worker thread) counts, plus the multi-tenant policy × censor matrix.
//!
//! * Scale via `AMOEBA_SCALE=paper`; flow count via `AMOEBA_SERVE_FLOWS`
//!   (default 1000).
//! * An unknown argument, a bad flag value or an `AMOEBA_SERVE_FLOWS`
//!   that is not a non-negative integer stops the binary with exit
//!   status 2 and an error naming it — never a silent fallback.
//! * `--steal {on,off}` toggles work stealing between shards (default
//!   on). A pure throughput knob: the smoke modes cross-check both
//!   settings bit-for-bit. Each shard's driver thread runs its work
//!   inline; there is no pipelining knob (`--pipeline` is an unknown
//!   argument).
//! * `--skew` switches to the 90/10 skewed tenant mix (90% of sessions
//!   on the trained policy, 10% on a tiny one) — the load-imbalanced
//!   workload work stealing exists for.
//! * `--scaling` runs the 4-core CI gate: 1 shard vs 4 shards, best of
//!   3 alternating runs, failing unless 4 shards clear
//!   `AMOEBA_SERVE_MIN_SPEEDUP`× (default 2×) on a ≥4-core machine.
//! * `--overhead` runs the telemetry overhead gate: telemetry off vs on
//!   at 4 shards, best of 3 alternating runs, failing if telemetry
//!   costs more than `AMOEBA_TELEMETRY_MAX_OVERHEAD_PCT` percent
//!   throughput (default 2%) on a ≥4-core machine.
//! * `--telemetry <base>` runs one instrumented pass (4 shards, trace
//!   ring on) and writes `<base>.prom` (Prometheus exposition) plus
//!   `<base>.trace.json` (Chrome-trace / Perfetto).
//! * `--matrix` switches to the cross-censor evaluation table: one
//!   `ServeEngine` run over 2 policies (trained vs DT and RF) × 3
//!   censors (DT, RF, CUMUL), printing evasion per `(policy, censor)`
//!   cell.
//! * `--scenario {classifier,warmup,hysteresis,hard-label,all}` picks
//!   the censor-program family serving the matrix columns (default
//!   `classifier`, the one-shot adapter path pinned bit-for-bit by
//!   `CLASSIFIER_SMOKE_FINGERPRINT` in smoke mode). `warmup` and
//!   `hysteresis` serve stateful programs (grace window / consecutive
//!   verdict streak with mid-stream teardown), `hard-label` serves
//!   verdict-only wrappers, `all` sweeps every scenario. Only meaningful
//!   with `--matrix`.
//! * `AMOEBA_SERVE_SMOKE=1` switches to the CI smoke mode: a small run
//!   (default 96 flows, override via `AMOEBA_SERVE_FLOWS`) at 1 vs 4
//!   shards and steal on vs off with the wire outputs cross-checked
//!   bit-for-bit — or, with `--matrix`, the 2×3 tenant matrix with every
//!   cell cross-checked against its single-tenant run; with `--skew`,
//!   the skewed mix across steal on/off × shards 1/4.
use std::ffi::OsStr;
use std::process::exit;

use amoeba_bench::{serve, Context, Scale, ScaleEnvError};

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    matrix: bool,
    skew: bool,
    scaling: bool,
    overhead: bool,
    telemetry_base: Option<String>,
    scenario: String,
    steal: bool,
}

/// Parses the arguments after the program name. Any argument it does not
/// know, a flag missing its value, or a bad value is an error naming it.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        matrix: false,
        skew: false,
        scaling: false,
        overhead: false,
        telemetry_base: None,
        scenario: "classifier".into(),
        steal: true,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--matrix" => parsed.matrix = true,
            "--skew" => parsed.skew = true,
            "--scaling" => parsed.scaling = true,
            "--overhead" => parsed.overhead = true,
            "--telemetry" => parsed.telemetry_base = Some(value()?),
            "--scenario" => {
                let v = value()?;
                if v != "all" && serve::Scenario::parse(&v).is_none() {
                    return Err(format!(
                        "--scenario needs classifier|warmup|hysteresis|hard-label|all, got {v:?}"
                    ));
                }
                parsed.scenario = v;
            }
            "--steal" => {
                parsed.steal = match value()?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("{arg} needs on|off, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// The flow count: `AMOEBA_SERVE_FLOWS` when set, else `default`. A set
/// value that is not a non-negative integer is an error naming it.
fn flows_from(value: Option<&OsStr>, default: usize) -> Result<usize, ScaleEnvError> {
    let Some(v) = value else {
        return Ok(default);
    };
    v.to_str()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ScaleEnvError {
            var: "AMOEBA_SERVE_FLOWS",
            value: v.to_string_lossy().into_owned(),
            expected: "a non-negative integer",
        })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        matrix,
        skew,
        scaling,
        overhead,
        telemetry_base,
        scenario,
        steal,
    } = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    });
    let smoke = std::env::var("AMOEBA_SERVE_SMOKE").is_ok_and(|v| v != "0");
    let n_flows = flows_from(
        std::env::var_os("AMOEBA_SERVE_FLOWS").as_deref(),
        if smoke { 96 } else { 1000 },
    )
    .unwrap_or_else(|e| e.exit());
    let mut ctx = Context::new(Scale::from_env().unwrap_or_else(|e| e.exit()));
    if scaling {
        print!("{}", serve::serve_scaling_gate(&mut ctx, n_flows, 64));
        return;
    }
    if overhead {
        print!("{}", serve::serve_overhead_gate(&mut ctx, n_flows, 64));
        return;
    }
    if let Some(base) = &telemetry_base {
        let report = serve::run_serve_instrumented(&mut ctx, n_flows, 64, 4, steal);
        let (prom, trace) =
            serve::write_telemetry_artifacts(&report, base).expect("write telemetry artifacts");
        println!("telemetry artifacts: {prom} {trace}");
        println!("{}", report.summary());
        return;
    }
    match (smoke, matrix, skew) {
        (_, _, true) => print!("{}", serve::serve_skew_smoke(&mut ctx, n_flows, 64)),
        (true, true, _) => print!(
            "{}",
            serve::serve_matrix_smoke_scenarios(&mut ctx, n_flows, 64, &scenario)
        ),
        (true, false, _) => print!("{}", serve::serve_smoke(&mut ctx, n_flows, 64)),
        (false, true, _) => print!(
            "{}",
            serve::serve_matrix_scenarios(&mut ctx, n_flows, 64, &scenario)
        ),
        (false, false, _) => {
            print!(
                "{}",
                serve::serve_throughput(&mut ctx, n_flows, &[1, 16, 64, 256], steal)
            );
            print!(
                "{}",
                serve::serve_shard_scaling(&mut ctx, n_flows, 64, &[1, 2, 4, 8], steal)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn known_flags_parse() {
        let a = parse(&[
            "--matrix",
            "--scenario",
            "all",
            "--steal",
            "off",
            "--telemetry",
            "/tmp/t",
        ])
        .unwrap();
        assert!(a.matrix && !a.skew && !a.scaling && !a.overhead);
        assert_eq!(a.scenario, "all");
        assert!(!a.steal);
        assert_eq!(a.telemetry_base.as_deref(), Some("/tmp/t"));
        let d = parse(&[]).unwrap();
        assert_eq!(d.scenario, "classifier");
        assert!(d.steal && d.telemetry_base.is_none());
    }

    /// Unknown arguments (`--backend`, `--json` and `--pipeline` among
    /// them) and malformed values are errors naming the argument, never
    /// ignored.
    #[test]
    fn unknown_and_malformed_arguments_are_errors() {
        for (args, needle) in [
            (&["--backend", "packed"][..], "\"--backend\""),
            (&["--json", "out.json"][..], "\"--json\""),
            (&["--pipeline", "off"][..], "\"--pipeline\""),
            (&["--matirx"][..], "\"--matirx\""),
            (&["--steal", "maybe"][..], "--steal needs on|off"),
            (&["--steal"][..], "--steal needs a value"),
            (&["--scenario", "nope"][..], "--scenario needs"),
            (&["--telemetry"][..], "--telemetry needs a value"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn flow_count_rejects_unparseable_values() {
        assert_eq!(flows_from(None, 96), Ok(96));
        assert_eq!(flows_from(Some(OsStr::new("400")), 96), Ok(400));
        for bad in ["", "many", "-3", "1e3"] {
            let err = flows_from(Some(OsStr::new(bad)), 96).unwrap_err();
            assert_eq!(err.var, "AMOEBA_SERVE_FLOWS");
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("AMOEBA_SERVE_FLOWS"), "{err}");
        }
    }
}
