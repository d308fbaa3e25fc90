//! Dataplane throughput sweep across inference batch sizes and shard
//! (worker thread) counts, plus the multi-tenant policy × censor matrix.
//!
//! * Scale via `AMOEBA_SCALE=paper`; flow count via `AMOEBA_SERVE_FLOWS`
//!   (default 1000).
//! * `--backend {cpu,packed,quant,all}` selects the inference
//!   backend (default: the `AMOEBA_SERVE_BACKEND` env var, else `cpu`).
//!   An unknown name is a hard error — never a silent fallback. The
//!   tier-A backends (`cpu`, `packed`) are bit-identical, so
//!   for them the flag is a pure throughput knob and the smoke mode
//!   cross-checks another tier-A backend's wire output to prove it;
//!   `quant` is the tier-B int8 backend (bounded divergence, held to
//!   the tolerance contract). `all` runs the dedicated comparison
//!   sweep: every backend at batch 64 and 256, tier-A rows wire-checked
//!   against cpu, quant's evasion delta reported.
//! * `--steal {on,off}` toggles work stealing between shards (default
//!   on). Also a pure throughput knob: the smoke modes cross-check both
//!   settings bit-for-bit.
//! * `--pipeline {on,off}` toggles the per-shard two-stage pipeline
//!   (default on; the overlap needs a spare core per shard to pay off,
//!   so turn it off when benchmarking on a 1-core box).
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
//! * `--json <path>` writes the machine-readable run report — config,
//!   throughput, latency percentiles and the full telemetry snapshot —
//!   from the same instrumented pass.
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
use amoeba_bench::{serve, Context, Scale};
use amoeba_serve::BackendKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let matrix = args.iter().any(|a| a == "--matrix");
    let skew = args.iter().any(|a| a == "--skew");
    let scaling = args.iter().any(|a| a == "--scaling");
    let overhead = args.iter().any(|a| a == "--overhead");
    let opt_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        })
    };
    let telemetry_base = opt_value("--telemetry");
    let json_path = opt_value("--json");
    let scenario = opt_value("--scenario").unwrap_or_else(|| "classifier".into());
    let backend_arg = opt_value("--backend");
    let compare_all = backend_arg.as_deref() == Some("all");
    let backend = match backend_arg.as_deref() {
        // The comparison sweep drives every kind itself; the reference
        // default stands in for the unused single-backend paths.
        None | Some("all") => BackendKind::from_env_or_default(),
        Some(v) => v
            .parse::<BackendKind>()
            .unwrap_or_else(|e| panic!("--backend: {e}")),
    };
    let on_off = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| match args.get(i + 1).map(String::as_str) {
                Some("on") => true,
                Some("off") => false,
                other => panic!("{flag} needs on|off, got {other:?}"),
            })
            .unwrap_or(true)
    };
    let steal = on_off("--steal");
    let pipeline = on_off("--pipeline");
    let smoke = std::env::var("AMOEBA_SERVE_SMOKE").is_ok_and(|v| v != "0");
    let n_flows = std::env::var("AMOEBA_SERVE_FLOWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 96 } else { 1000 });
    let mut ctx = Context::new(Scale::from_env().unwrap_or_else(|e| e.exit()));
    if compare_all {
        assert!(
            !matrix && !skew && !scaling && !overhead,
            "--backend all runs the dedicated comparison sweep; drop the other mode flags"
        );
        print!(
            "{}",
            serve::serve_backend_comparison(&mut ctx, n_flows, &[64, 256], pipeline, steal)
        );
        return;
    }
    if scaling {
        print!("{}", serve::serve_scaling_gate(&mut ctx, n_flows, 64));
        return;
    }
    if overhead {
        print!("{}", serve::serve_overhead_gate(&mut ctx, n_flows, 64));
        return;
    }
    if telemetry_base.is_some() || json_path.is_some() {
        // One instrumented pass (trace ring on) feeds every requested
        // artifact so the figures in them agree with each other.
        let (shards, batch) = (4, 64);
        let report = serve::run_serve_instrumented(
            &mut ctx, n_flows, batch, shards, backend, pipeline, steal,
        );
        if let Some(base) = &telemetry_base {
            let (prom, trace) =
                serve::write_telemetry_artifacts(&report, base).expect("write telemetry artifacts");
            println!("telemetry artifacts: {prom} {trace}");
        }
        if let Some(path) = &json_path {
            let json =
                serve::report_json(&report, n_flows, batch, shards, backend, pipeline, steal);
            std::fs::write(path, json).expect("write json report");
            println!("json report: {path}");
        }
        println!("{}", report.summary());
        return;
    }
    match (smoke, matrix, skew) {
        (_, _, true) => print!(
            "{}",
            serve::serve_skew_smoke(&mut ctx, n_flows, 64, backend)
        ),
        (true, true, _) => print!(
            "{}",
            serve::serve_matrix_smoke_scenarios(&mut ctx, n_flows, 64, backend, &scenario)
        ),
        (true, false, _) => print!("{}", serve::serve_smoke(&mut ctx, n_flows, 64, backend)),
        (false, true, _) => print!(
            "{}",
            serve::serve_matrix_scenarios(&mut ctx, n_flows, 64, backend, &scenario)
        ),
        (false, false, _) => {
            print!(
                "{}",
                serve::serve_throughput(
                    &mut ctx,
                    n_flows,
                    &[1, 16, 64, 256],
                    backend,
                    pipeline,
                    steal
                )
            );
            print!(
                "{}",
                serve::serve_shard_scaling(
                    &mut ctx,
                    n_flows,
                    64,
                    &[1, 2, 4, 8],
                    backend,
                    pipeline,
                    steal
                )
            );
        }
    }
}
