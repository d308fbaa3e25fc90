//! Serving checks, one per run: `serve_bench matrix | scaling | telemetry <base>`. Each is one
//! the test suite cannot run: trained policies, a core-count gate or artifacts on disk.
//!
//! * `matrix`: the 2×3 tenant matrix per scenario vs 1 shard and vs single tenants; the pin.
//! * `scaling`: 4 shards must clear `AMOEBA_SERVE_MIN_SPEEDUP`× (default 2) on ≥4 cores.
//! * `telemetry <base>`: one traced 4-shard pass, written to `<base>.prom` and `<base>.trace.json`.
//!
//! `AMOEBA_SERVE_FLOWS` sets the flow count (default 96 for `matrix`, 1000 otherwise).
//! `AMOEBA_SERVE_MIN_SPEEDUP` is read by `scaling` alone; set for another check, it is an error.
//! A bad argument or value exits 2 with an error naming it.
use std::ffi::OsStr;
use std::process::exit;

use amoeba_bench::serve;
use amoeba_bench::{Context, Scale, ScaleEnvError};

const USAGE: &str = "usage: serve_bench matrix | scaling | telemetry <base>";

/// Inference batch size of every check.
const BATCH: usize = 64;

/// The one check a run performs.
#[derive(Debug, PartialEq)]
enum Check {
    Matrix,
    Scaling,
    /// Writes the telemetry artifacts next to this base path.
    Telemetry(String),
}

impl Check {
    /// Flow count when `AMOEBA_SERVE_FLOWS` is unset. The matrix's
    /// fingerprint pin is taken at 96.
    fn default_flows(&self) -> usize {
        match self {
            Check::Matrix => 96,
            Check::Scaling | Check::Telemetry(_) => 1000,
        }
    }
}

/// Parses the arguments after the program name into exactly one check.
/// No check, an unknown word or anything after the check is an error
/// naming it.
fn parse_args(args: &[String]) -> Result<Check, String> {
    let mut it = args.iter();
    let check = match it.next().map(String::as_str) {
        None => return Err("no check given".into()),
        Some("matrix") => Check::Matrix,
        Some("scaling") => Check::Scaling,
        Some("telemetry") => {
            Check::Telemetry(it.next().cloned().ok_or("telemetry needs a base path")?)
        }
        Some(other) => return Err(format!("unknown check {other:?}")),
    };
    match it.next() {
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
        None => Ok(check),
    }
}

/// A gate bound: the value of `var` when set, else `default`. A set
/// value that is not a positive finite number is an error naming `var`.
fn bound_from(
    var: &'static str,
    value: Option<&OsStr>,
    default: f64,
) -> Result<f64, ScaleEnvError> {
    let Some(v) = value else {
        return Ok(default);
    };
    v.to_str()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|b| b.is_finite() && *b > 0.0)
        .ok_or_else(|| ScaleEnvError {
            var,
            value: v.to_string_lossy().into_owned(),
            expected: "a positive finite number",
        })
}

/// The scaling gate's bound, from `AMOEBA_SERVE_MIN_SPEEDUP` (default
/// 2×). Only `scaling` has a gate: for any other check this is `None`,
/// and a set value is an error naming the variable rather than a value
/// silently ignored.
fn min_speedup_for(check: &Check, value: Option<&OsStr>) -> Result<Option<f64>, String> {
    const VAR: &str = "AMOEBA_SERVE_MIN_SPEEDUP";
    match (check, value) {
        (Check::Scaling, v) => bound_from(VAR, v, 2.0).map(Some).map_err(|e| e.to_string()),
        (_, None) => Ok(None),
        (_, Some(_)) => Err(format!("{VAR} is read only by `scaling`; unset it")),
    }
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
    let check = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2)
    });
    let n_flows = flows_from(
        std::env::var_os("AMOEBA_SERVE_FLOWS").as_deref(),
        check.default_flows(),
    )
    .unwrap_or_else(|e| e.exit());
    let min_speedup = min_speedup_for(
        &check,
        std::env::var_os("AMOEBA_SERVE_MIN_SPEEDUP").as_deref(),
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    });
    let mut ctx = Context::new(Scale::from_env().unwrap_or_else(|e| e.exit()));
    let md = match &check {
        Check::Matrix => serve::serve_matrix_check(&mut ctx, n_flows, BATCH),
        Check::Scaling => serve::serve_scaling_gate(
            &mut ctx,
            n_flows,
            BATCH,
            min_speedup.expect("scaling has a gate bound"),
        ),
        Check::Telemetry(base) => {
            let report = serve::run_serve(&mut ctx, n_flows, BATCH, 4, 4096);
            let (prom, trace) =
                serve::write_telemetry_artifacts(&report, base).expect("write telemetry artifacts");
            format!(
                "telemetry artifacts: {prom} {trace}\n{}\n",
                report.summary()
            )
        }
    };
    print!("{md}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Check, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn each_check_parses_with_its_default_flow_count() {
        for (args, check, flows) in [
            (&["matrix"][..], Check::Matrix, 96),
            (&["scaling"][..], Check::Scaling, 1000),
            (
                &["telemetry", "/tmp/t"][..],
                Check::Telemetry("/tmp/t".into()),
                1000,
            ),
        ] {
            let parsed = parse(args).unwrap();
            assert_eq!(parsed, check);
            assert_eq!(parsed.default_flows(), flows, "{args:?}");
        }
    }

    /// A bare invocation, a second check, the removed checks and mode
    /// flags and unknown words are errors naming the argument, never
    /// ignored.
    #[test]
    fn anything_but_one_check_is_an_error() {
        for (args, needle) in [
            (&[][..], "no check given"),
            (&["telemetry"][..], "telemetry needs a base path"),
            (&["matrix", "scaling"][..], "\"scaling\""),
            (&["smoke"][..], "\"smoke\""),
            (&["skew"][..], "\"skew\""),
            (&["--matrix"][..], "\"--matrix\""),
            (&["--skew"][..], "\"--skew\""),
            (&["--scaling"][..], "\"--scaling\""),
            (&["--scenario", "all"][..], "\"--scenario\""),
            (&["matrix", "--scenario", "all"][..], "\"--scenario\""),
            (&["--steal", "off"][..], "\"--steal\""),
            (&["scaling", "--steal", "off"][..], "\"--steal\""),
            (&["--telemetry", "/tmp/t"][..], "\"--telemetry\""),
            (&["--backend", "packed"][..], "\"--backend\""),
            (&["--pipeline", "off"][..], "\"--pipeline\""),
            (&["--overhead"][..], "\"--overhead\""),
            (&["Matrix"][..], "\"Matrix\""),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    /// Only `scaling` reads the speedup bound; any other check with it
    /// set is an error naming the variable, and a bad value is one for
    /// `scaling`.
    #[test]
    fn min_speedup_is_read_only_by_scaling() {
        let var = "AMOEBA_SERVE_MIN_SPEEDUP";
        assert_eq!(min_speedup_for(&Check::Scaling, None), Ok(Some(2.0)));
        assert_eq!(
            min_speedup_for(&Check::Scaling, Some(OsStr::new("1.5"))),
            Ok(Some(1.5))
        );
        let err = min_speedup_for(&Check::Scaling, Some(OsStr::new("two"))).unwrap_err();
        assert!(err.contains(var), "{err}");
        for check in [Check::Matrix, Check::Telemetry("/tmp/t".into())] {
            assert_eq!(min_speedup_for(&check, None), Ok(None));
            for value in ["1.5", "two"] {
                let err = min_speedup_for(&check, Some(OsStr::new(value))).unwrap_err();
                assert!(err.contains(var), "{check:?}: {err}");
            }
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

    #[test]
    fn gate_bounds_reject_unparseable_values() {
        let var = "AMOEBA_SERVE_MIN_SPEEDUP";
        assert_eq!(bound_from(var, None, 2.0), Ok(2.0));
        assert_eq!(bound_from(var, Some(OsStr::new("1.5")), 2.0), Ok(1.5));
        for bad in ["two", "", "-1", "NaN", "0", "inf"] {
            let err = bound_from(var, Some(OsStr::new(bad)), 2.0).unwrap_err();
            assert_eq!(err.var, var);
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains(var), "{err}");
        }
    }
}
