//! Dataplane throughput harness: drives the `amoeba-serve` engine over
//! trained policies + censors across inference batch sizes, shard
//! (worker thread) counts and policy × censor tenant matrices, and
//! reports `flows/sec`, `MB/s`, p50/p99 per-frame latency and per-cell
//! evasion — the numbers the ROADMAP's "serve heavy traffic" scaling
//! work steers by.

use std::sync::Arc;

use amoeba_classifiers::{
    Censor, CensorKind, CensorProgramFactory, HardLabelFactory, StatefulProgramFactory,
};
use amoeba_serve::{
    BackendKind, CensorId, CensorRegistry, FrozenPolicy, PolicyId, PolicyRegistry, ServeConfig,
    ServeEngine, ServeReport, VerdictPolicy,
};
use amoeba_traffic::{DatasetKind, Flow};

use crate::Context;

/// Offered-flow prefix cap: bounds per-session frame counts and payload
/// memory so 1k+ concurrent sessions stay cheap on CI hardware.
pub const PREFIX_CAP: usize = 20;

/// Pinned wire fingerprint of the classifier-scenario matrix smoke under
/// the exact CI smoke parameters (`AMOEBA_SERVE_SMOKE=1 AMOEBA_STEPS=8192`,
/// small scale, 96 flows, batch 64, 4 shards, seed 42). Captured on the
/// pre-refactor one-shot censor path; the streaming [`CensorProgram`]
/// adapter must keep reproducing it bit-for-bit, on any backend.
///
/// [`CensorProgram`]: amoeba_classifiers::CensorProgram
pub const CLASSIFIER_SMOKE_FINGERPRINT: u64 = 0xf396_37d3_c933_4b89;

/// The censor-program scenario axis of the matrix modes: which program
/// family serves the matrix's censor columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Degenerate adapter over the trained classifiers — bit-for-bit the
    /// pre-refactor one-shot scoring path (pinned by
    /// [`CLASSIFIER_SMOKE_FINGERPRINT`] under the CI smoke parameters).
    Classifier,
    /// Stateful programs that allow everything until they have observed
    /// one flow snapshot — the "warmup" grace every real DPI box shows.
    Warmup,
    /// Stateful programs demanding 2 consecutive over-threshold scores
    /// before acting, and acting by tearing the session down (`Reset`).
    Hysteresis,
    /// Verdict-only wrappers: `Block` or `Allow`, never a score — the
    /// hard-label threat model.
    HardLabel,
}

impl Scenario {
    /// Every scenario, in the order `--scenario all` runs them.
    pub const ALL: [Scenario; 4] = [
        Scenario::Classifier,
        Scenario::Warmup,
        Scenario::Hysteresis,
        Scenario::HardLabel,
    ];

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Classifier => "classifier",
            Scenario::Warmup => "warmup",
            Scenario::Hysteresis => "hysteresis",
            Scenario::HardLabel => "hard-label",
        }
    }

    /// Parses one `--scenario` value (`all` is handled by the caller).
    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|sc| sc.name() == s)
    }

    /// Wraps a one-shot censor in this scenario's program factory.
    /// `Classifier` has no wrapper — the registry's own adapter path is
    /// the scenario.
    fn factory(self, censor: Arc<dyn Censor>) -> Option<Arc<dyn CensorProgramFactory>> {
        match self {
            Scenario::Classifier => None,
            Scenario::Warmup => Some(Arc::new(StatefulProgramFactory::new(censor, 1, 1, 0.5))),
            Scenario::Hysteresis => Some(Arc::new(
                StatefulProgramFactory::new(censor, 0, 2, 0.5).with_teardown(true),
            )),
            Scenario::HardLabel => Some(Arc::new(HardLabelFactory::over_censor(censor))),
        }
    }
}

/// Expands a `--scenario` CLI value into the scenarios to run.
///
/// # Panics
/// Panics on an unknown scenario name.
pub fn parse_scenarios(arg: &str) -> Vec<Scenario> {
    if arg == "all" {
        return Scenario::ALL.to_vec();
    }
    vec![Scenario::parse(arg).unwrap_or_else(|| {
        panic!("--scenario needs classifier|warmup|hysteresis|hard-label|all, got {arg:?}")
    })]
}

fn serve_config(
    ctx: &mut Context,
    batch: usize,
    shards: usize,
    backend: BackendKind,
    pipeline: bool,
    steal: bool,
) -> ServeConfig {
    let (agent, _) = ctx.agent(DatasetKind::Tor, CensorKind::Dt);
    ServeConfig::builder_from_amoeba(agent.config(), DatasetKind::Tor.layer())
        .batch(batch)
        .shards(shards)
        .pipeline(pipeline)
        .steal(steal)
        .verdicts(VerdictPolicy::Every(8))
        .seed(ctx.scale.seed)
        .backend(backend)
        .build()
}

fn offered(ctx: &mut Context, n_flows: usize) -> Vec<Flow> {
    let base = ctx.eval_flows(DatasetKind::Tor);
    (0..n_flows)
        .map(|i| base[i % base.len()].prefix(PREFIX_CAP))
        .collect()
}

/// Runs one single-tenant engine pass at the given batch size and shard
/// count; the workload is `n_flows` sessions cycling the Tor test
/// split's sensitive flows (≤ [`PREFIX_CAP`]-packet prefixes) against an
/// inline DT censor.
pub fn run_serve(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    shards: usize,
    backend: BackendKind,
    pipeline: bool,
    steal: bool,
) -> ServeReport {
    run_serve_with(
        ctx, n_flows, batch, shards, backend, pipeline, steal, true, 0,
    )
}

/// [`run_serve`] with the telemetry knobs exposed — the overhead gate
/// compares `telemetry` on vs off, and the artifact dump turns the
/// trace ring on.
#[allow(clippy::too_many_arguments)]
fn run_serve_with(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    shards: usize,
    backend: BackendKind,
    pipeline: bool,
    steal: bool,
    telemetry: bool,
    trace_ring: usize,
) -> ServeReport {
    let (agent, _) = ctx.agent(DatasetKind::Tor, CensorKind::Dt);
    let censor = ctx.censor(DatasetKind::Tor, CensorKind::Dt);
    let flows = offered(ctx, n_flows);
    let cfg = serve_config(ctx, batch, shards, backend, pipeline, steal)
        .with_telemetry(telemetry)
        .with_trace_ring(trace_ring);
    let mut engine = ServeEngine::new(cfg);
    let p = engine.register_policy(FrozenPolicy::from_agent(&agent));
    let c = engine.register_censor(censor);
    engine.admit_all(flows.iter(), p, c);
    engine.run()
}

/// One fully instrumented engine pass: telemetry on with a 4096-event
/// flight-recorder ring per shard, ready for [`write_telemetry_artifacts`]
/// or [`report_json`].
pub fn run_serve_instrumented(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    shards: usize,
    backend: BackendKind,
    pipeline: bool,
    steal: bool,
) -> ServeReport {
    run_serve_with(
        ctx, n_flows, batch, shards, backend, pipeline, steal, true, 4096,
    )
}

/// Runs a **skewed** two-tenant engine pass: 90% of sessions land on the
/// trained Tor policy (≤ [`PREFIX_CAP`]-packet prefixes), 10% on a tiny
/// random policy serving 4-packet prefixes. With round-robin-by-id
/// partitioning this leaves some shards with far more work per tick than
/// others — the workload the work-stealing scheduler exists for.
pub fn run_serve_skewed(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    shards: usize,
    backend: BackendKind,
    pipeline: bool,
    steal: bool,
) -> ServeReport {
    let (agent, _) = ctx.agent(DatasetKind::Tor, CensorKind::Dt);
    let censor = ctx.censor(DatasetKind::Tor, CensorKind::Dt);
    let flows = offered(ctx, n_flows);
    let mut engine = ServeEngine::new(serve_config(ctx, batch, shards, backend, pipeline, steal));
    let heavy = engine.register_policy(FrozenPolicy::from_agent(&agent));
    let light = engine.register_policy(amoeba_serve::testutil::tiny_policy(ctx.scale.seed));
    let c = engine.register_censor(censor);
    for (i, f) in flows.iter().enumerate() {
        if i % 10 == 9 {
            let short = f.prefix(4);
            engine.admit(&short).id(i).policy(light).censor(c).submit();
        } else {
            engine.admit(f).id(i).policy(heavy).censor(c).submit();
        }
    }
    engine.run()
}

fn throughput_row(label: &str, r: &ServeReport) -> String {
    format!(
        "| {label} | {:.0} | {:.0} | {:.2} | {:.2} | {:.1} | {:.1} | {:.1}% | {:.1}% |\n",
        r.flows_per_sec(),
        r.frames_per_sec(),
        r.payload_mb_per_sec(),
        r.wire_mb_per_sec(),
        r.p50_latency_us(),
        r.p99_latency_us(),
        r.evasion_rate() * 100.0,
        r.stream_ok_rate() * 100.0,
    )
}

const TABLE_HEADER: &str = "| config | flows/s | frames/s | payload MB/s | wire MB/s \
                            | p50 µs | p99 µs | evasion | streams ok |\n\
                            |---|---|---|---|---|---|---|---|---|\n";

/// The throughput table across batch sizes (single shard), as a markdown
/// block.
pub fn serve_throughput(
    ctx: &mut Context,
    n_flows: usize,
    batches: &[usize],
    backend: BackendKind,
    pipeline: bool,
    steal: bool,
) -> String {
    let mut md = String::from("## amoeba-serve dataplane throughput\n\n");
    md += &format!(
        "{n_flows} concurrent flows (Tor test split, ≤{PREFIX_CAP}-packet prefixes), \
         DT censor inline every 8 frames, deterministic policy, {backend} backend, \
         pipelining {}, stealing {}.\n\n",
        if pipeline { "on" } else { "off" },
        if steal { "on" } else { "off" },
    );
    md += TABLE_HEADER;
    for &batch in batches {
        let r = run_serve(ctx, n_flows, batch, 1, backend, pipeline, steal);
        md += &throughput_row(&format!("batch {batch} ({backend})"), &r);
    }
    md
}

/// The tiered-backend comparison table (`--backend all`): every
/// [`BackendKind`] at each batch size, single shard, same workload.
/// Tier-A rows (`cpu`/`packed`) are cross-checked bit-for-bit
/// against the `cpu` run of the same batch size while they are measured;
/// the tier-B `quant` row is allowed to diverge, so its evasion delta
/// vs `cpu` is reported instead of asserted away.
pub fn serve_backend_comparison(
    ctx: &mut Context,
    n_flows: usize,
    batches: &[usize],
    pipeline: bool,
    steal: bool,
) -> String {
    let kinds = [BackendKind::Cpu, BackendKind::Packed, BackendKind::Quant];
    let mut md = String::from("## amoeba-serve backend comparison (exactness-tier ladder)\n\n");
    md += &format!(
        "{n_flows} concurrent flows (Tor test split, ≤{PREFIX_CAP}-packet prefixes), \
         DT censor inline every 8 frames, deterministic policy, 1 shard, pipelining {}, \
         stealing {}. Tier-A backends (cpu/packed) are wire-checked bit-for-bit \
         against cpu per batch size; quant is tier B (bounded divergence), its evasion \
         delta is reported below.\n\n",
        if pipeline { "on" } else { "off" },
        if steal { "on" } else { "off" },
    );
    md += TABLE_HEADER;
    let mut quant_deltas = Vec::new();
    for &batch in batches {
        let reference = run_serve(ctx, n_flows, batch, 1, BackendKind::Cpu, pipeline, steal);
        for backend in kinds {
            let r = if backend == BackendKind::Cpu {
                reference.clone()
            } else {
                run_serve(ctx, n_flows, batch, 1, backend, pipeline, steal)
            };
            if backend.is_bit_exact() {
                assert_eq!(
                    reference.wire_bits(),
                    r.wire_bits(),
                    "backend comparison: tier-A {backend} diverged from cpu at batch {batch}"
                );
            } else {
                quant_deltas.push(format!(
                    "batch {batch}: quant evasion {:.2}% vs cpu {:.2}% (Δ {:+.2} pts)",
                    r.evasion_rate() * 100.0,
                    reference.evasion_rate() * 100.0,
                    (r.evasion_rate() - reference.evasion_rate()) * 100.0,
                ));
            }
            md += &throughput_row(&format!("batch {batch} ({backend})"), &r);
        }
    }
    md += "\n";
    for line in &quant_deltas {
        md += &format!("- {line}\n");
    }
    md
}

/// The shard-scaling table at a fixed batch size, as a markdown block.
/// Wire output is shard-count-invariant, so the rows differ only in
/// wall-clock figures; near-linear `flows/s` scaling up to the core count
/// is the §5.6.1 deployment argument at scale.
pub fn serve_shard_scaling(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    shard_counts: &[usize],
    backend: BackendKind,
    pipeline: bool,
    steal: bool,
) -> String {
    let mut md = String::from("## amoeba-serve shard scaling\n\n");
    md += &format!(
        "{n_flows} concurrent flows (Tor test split, ≤{PREFIX_CAP}-packet prefixes), \
         DT censor inline every 8 frames, batch {batch}, deterministic policy, \
         {backend} backend, pipelining {}, stealing {}; sessions sharded across \
         worker threads.\n\n",
        if pipeline { "on" } else { "off" },
        if steal { "on" } else { "off" },
    );
    md += TABLE_HEADER;
    for &shards in shard_counts {
        let r = run_serve(ctx, n_flows, batch, shards, backend, pipeline, steal);
        md += &throughput_row(&format!("{shards} shard(s) ({backend})"), &r);
    }
    md
}

/// CI smoke pass: a small flow count served at 1 shard and 4 shards
/// (stealing on and off), with the wire outputs cross-checked
/// frame-by-frame — exercises the sharded, pipelined and stealing paths
/// on every push and fails loudly if the invariance contract breaks.
pub fn serve_smoke(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    backend: BackendKind,
) -> String {
    let one = run_serve(ctx, n_flows, batch, 1, backend, true, true);
    let four = run_serve(ctx, n_flows, batch, 4, backend, true, true);
    assert_eq!(
        one.wire_bits(),
        four.wire_bits(),
        "smoke: 4-shard wire output diverged from 1-shard"
    );
    assert_eq!(one.stream_ok_rate(), 1.0, "smoke: streams failed to verify");
    // Steal-off leg: work stealing is a pure throughput knob, so turning
    // it off at 4 shards must not move a single wire bit.
    let no_steal = run_serve(ctx, n_flows, batch, 4, backend, true, false);
    assert_eq!(
        one.wire_bits(),
        no_steal.wire_bits(),
        "smoke: steal-off wire output diverged from steal-on"
    );
    // Cross-backend leg: another *tier-A* backend must reproduce the
    // wire bit-for-bit (the conformance contract on real trained
    // policies and censors, on every push). The smoke rotates through
    // the bit-exact ladder so cpu and packed cross-check each other
    // across the CI backend matrix. Quant is tier B — no backend
    // owes it bit-identity (that's `tests/quant_tolerance.rs`'s job) —
    // so its leg re-runs quant itself, pinning run-to-run determinism.
    let other = match backend {
        BackendKind::Cpu => BackendKind::Packed,
        BackendKind::Packed => BackendKind::Cpu,
        BackendKind::Quant => BackendKind::Quant,
    };
    let cross = run_serve(ctx, n_flows, batch, 1, other, true, true);
    assert_eq!(
        one.wire_bits(),
        cross.wire_bits(),
        "smoke: {other} backend wire output diverged from {backend}"
    );
    let mut md = format!(
        "## amoeba-serve smoke (shards 1 vs 4, steal on vs off, {backend} vs \
         {other} backend, bit-identical wire)\n\n"
    );
    md += TABLE_HEADER;
    md += &throughput_row(&format!("1 shard ({backend})"), &one);
    md += &throughput_row(&format!("4 shards ({backend})"), &four);
    md += &throughput_row(&format!("4 shards, no steal ({backend})"), &no_steal);
    md += &throughput_row(&format!("1 shard ({other})"), &cross);
    md
}

/// CI skew smoke: the 90/10 skewed tenant mix served at steal on/off ×
/// shards 1/4, every combination cross-checked bit-for-bit against the
/// single-shard steal-off run. Also reports how many batches the loaded
/// shards lost to thieves at 4 shards.
pub fn serve_skew_smoke(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    backend: BackendKind,
) -> String {
    let reference = run_serve_skewed(ctx, n_flows, batch, 1, backend, false, false);
    assert_eq!(
        reference.stream_ok_rate(),
        1.0,
        "skew smoke: streams failed to verify"
    );
    let mut md = format!(
        "## amoeba-serve skew smoke (90/10 policy mix, steal on/off × shards 1/4, \
         bit-identical wire, {backend} backend)\n\n"
    );
    md += TABLE_HEADER;
    md += &throughput_row(&format!("1 shard, no steal ({backend})"), &reference);
    let mut stolen_at_4 = 0;
    for steal in [false, true] {
        for shards in [1usize, 4] {
            if !steal && shards == 1 {
                continue; // the reference itself
            }
            let r = run_serve_skewed(ctx, n_flows, batch, shards, backend, true, steal);
            assert_eq!(
                reference.wire_bits(),
                r.wire_bits(),
                "skew smoke: steal {steal} x {shards} shards diverged on the skewed mix"
            );
            if steal && shards == 1 {
                assert_eq!(r.stolen_batches, 0, "skew smoke: single shard stole work");
            }
            if steal && shards == 4 {
                stolen_at_4 = r.stolen_batches;
            }
            md += &throughput_row(
                &format!(
                    "{shards} shard(s), steal {} ({backend})",
                    if steal { "on" } else { "off" }
                ),
                &r,
            );
        }
    }
    md += &format!("\nbatches stolen at 4 shards with stealing on: {stolen_at_4}\n");
    md
}

/// The 4-core CI scaling gate: serves the full workload at 1 shard and 4
/// shards (pipelining and stealing on), best of `reps` alternating runs
/// each, cross-checks the wire bit-for-bit, and — on machines with at
/// least 4 cores — **fails** unless the 4-shard run clears
/// `AMOEBA_SERVE_MIN_SPEEDUP`× (default 2×) the single-shard throughput.
/// On smaller machines the measurement still runs and prints, but the
/// gate is reported as skipped rather than enforced.
pub fn serve_scaling_gate(ctx: &mut Context, n_flows: usize, batch: usize) -> String {
    let backend = BackendKind::default();
    let reps = 3;
    let min_speedup: f64 = std::env::var("AMOEBA_SERVE_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let (mut best_one, mut best_four): (Option<ServeReport>, Option<ServeReport>) = (None, None);
    for _ in 0..reps {
        // Alternate the two configurations so cache warmth and frequency
        // scaling bias neither side.
        let one = run_serve(ctx, n_flows, batch, 1, backend, true, true);
        let four = run_serve(ctx, n_flows, batch, 4, backend, true, true);
        assert_eq!(
            one.wire_bits(),
            four.wire_bits(),
            "scaling gate: 4-shard wire output diverged from 1-shard"
        );
        assert_eq!(
            one.stream_ok_rate(),
            1.0,
            "scaling gate: streams failed to verify"
        );
        if best_one
            .as_ref()
            .is_none_or(|b| one.flows_per_sec() > b.flows_per_sec())
        {
            best_one = Some(one);
        }
        if best_four
            .as_ref()
            .is_none_or(|b| four.flows_per_sec() > b.flows_per_sec())
        {
            best_four = Some(four);
        }
    }
    let (one, four) = (best_one.unwrap(), best_four.unwrap());
    let speedup = four.flows_per_sec() / one.flows_per_sec();

    let mut md = String::from("## amoeba-serve 4-core scaling gate\n\n");
    md += &format!(
        "{n_flows} concurrent flows (Tor test split, ≤{PREFIX_CAP}-packet prefixes), \
         batch {batch}, {backend} backend, pipelining + stealing on, best of {reps} \
         alternating runs per shard count, {cores} cores visible.\n\n"
    );
    md += TABLE_HEADER;
    md += &throughput_row("1 shard", &one);
    md += &throughput_row("4 shards", &four);
    md += &format!("\n**4-shard speedup: {speedup:.2}× (gate: ≥{min_speedup:.2}×)**\n");
    if cores >= 4 {
        assert!(
            speedup >= min_speedup,
            "scaling gate FAILED: 4 shards gave {speedup:.2}x over 1 shard on a \
             {cores}-core machine (need >= {min_speedup:.2}x; override with \
             AMOEBA_SERVE_MIN_SPEEDUP)"
        );
        md += "\ngate enforced: PASS\n";
    } else {
        md += &format!("\ngate skipped: only {cores} core(s) visible (need 4)\n");
    }
    md
}

/// The CI telemetry-overhead gate: serves the full workload at 4 shards
/// with telemetry off and on (default config: counters + histograms, no
/// trace ring), best of `reps` alternating runs each, cross-checks the
/// wire bit-for-bit, and — on machines with at least 4 cores — **fails**
/// if the telemetry-on run loses more than
/// `AMOEBA_TELEMETRY_MAX_OVERHEAD_PCT` percent throughput (default 2%).
/// On smaller machines the measurement still runs and prints, but the
/// gate is reported as skipped rather than enforced.
pub fn serve_overhead_gate(ctx: &mut Context, n_flows: usize, batch: usize) -> String {
    let backend = BackendKind::default();
    let shards = 4;
    let reps = 3;
    let max_overhead_pct: f64 = std::env::var("AMOEBA_TELEMETRY_MAX_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let (mut best_off, mut best_on): (Option<ServeReport>, Option<ServeReport>) = (None, None);
    for _ in 0..reps {
        // Alternate the two configurations so cache warmth and frequency
        // scaling bias neither side.
        let off = run_serve_with(ctx, n_flows, batch, shards, backend, true, true, false, 0);
        let on = run_serve(ctx, n_flows, batch, shards, backend, true, true);
        assert_eq!(
            off.wire_bits(),
            on.wire_bits(),
            "overhead gate: telemetry-on wire output diverged from telemetry-off"
        );
        assert!(
            off.telemetry.is_none() && on.telemetry.is_some(),
            "overhead gate: snapshot attachment does not match the telemetry switch"
        );
        if best_off
            .as_ref()
            .is_none_or(|b| off.flows_per_sec() > b.flows_per_sec())
        {
            best_off = Some(off);
        }
        if best_on
            .as_ref()
            .is_none_or(|b| on.flows_per_sec() > b.flows_per_sec())
        {
            best_on = Some(on);
        }
    }
    let (off, on) = (best_off.unwrap(), best_on.unwrap());
    let overhead_pct = (1.0 - on.flows_per_sec() / off.flows_per_sec()) * 100.0;

    let mut md = String::from("## amoeba-serve telemetry overhead gate\n\n");
    md += &format!(
        "{n_flows} concurrent flows (Tor test split, ≤{PREFIX_CAP}-packet prefixes), \
         batch {batch}, {shards} shards, {backend} backend, pipelining + stealing on, \
         best of {reps} alternating runs per setting, {cores} cores visible.\n\n"
    );
    md += TABLE_HEADER;
    md += &throughput_row("telemetry off", &off);
    md += &throughput_row("telemetry on", &on);
    md +=
        &format!("\n**telemetry overhead: {overhead_pct:.2}% (gate: ≤{max_overhead_pct:.2}%)**\n");
    if cores >= 4 {
        assert!(
            overhead_pct <= max_overhead_pct,
            "telemetry overhead gate FAILED: {overhead_pct:.2}% throughput loss with \
             telemetry on (limit {max_overhead_pct:.2}%; override with \
             AMOEBA_TELEMETRY_MAX_OVERHEAD_PCT)"
        );
        md += "\ngate enforced: PASS\n";
    } else {
        md += &format!("\ngate skipped: only {cores} core(s) visible (need 4)\n");
    }
    md
}

/// Writes the run's telemetry artifacts next to `base`: the Prometheus
/// exposition at `<base>.prom` and the flight recorder's Chrome-trace
/// JSON (load into `chrome://tracing` or Perfetto) at
/// `<base>.trace.json`. Returns the two paths written.
pub fn write_telemetry_artifacts(
    report: &ServeReport,
    base: &str,
) -> std::io::Result<(String, String)> {
    let snap = report
        .telemetry
        .as_ref()
        .expect("telemetry artifacts need a run with telemetry on");
    let prom = format!("{base}.prom");
    let trace = format!("{base}.trace.json");
    std::fs::write(&prom, snap.to_prometheus_text())?;
    std::fs::write(&trace, snap.trace_json())?;
    Ok((prom, trace))
}

/// One JSON number, with non-finite values mapped to `null` (JSON has
/// no NaN/Inf literals).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

/// The machine-readable benchmark report: run configuration, throughput
/// and latency figures, plus the full telemetry snapshot when the run
/// carried one. Stable keys so CI diffs and dashboards can track runs
/// over time.
#[allow(clippy::too_many_arguments)]
pub fn report_json(
    report: &ServeReport,
    n_flows: usize,
    batch: usize,
    shards: usize,
    backend: BackendKind,
    pipeline: bool,
    steal: bool,
) -> String {
    let mut s = String::from("{\n  \"bench\": \"serve\",\n");
    s += &format!("  \"n_flows\": {n_flows},\n");
    s += &format!("  \"batch\": {batch},\n");
    s += &format!("  \"shards\": {shards},\n");
    s += &format!("  \"backend\": \"{backend}\",\n");
    s += &format!("  \"pipeline\": {pipeline},\n");
    s += &format!("  \"steal\": {steal},\n");
    s += &format!("  \"wall_seconds\": {},\n", json_num(report.wall_seconds));
    s += &format!(
        "  \"flows_per_sec\": {},\n",
        json_num(report.flows_per_sec())
    );
    s += &format!(
        "  \"frames_per_sec\": {},\n",
        json_num(report.frames_per_sec())
    );
    s += &format!(
        "  \"payload_mb_per_sec\": {},\n",
        json_num(report.payload_mb_per_sec())
    );
    s += &format!(
        "  \"wire_mb_per_sec\": {},\n",
        json_num(report.wire_mb_per_sec())
    );
    s += &format!(
        "  \"p50_latency_us\": {},\n",
        json_num(report.p50_latency_us() as f64)
    );
    s += &format!(
        "  \"p99_latency_us\": {},\n",
        json_num(report.p99_latency_us() as f64)
    );
    s += &format!(
        "  \"evasion_rate\": {},\n",
        json_num(report.evasion_rate() as f64)
    );
    s += &format!(
        "  \"stream_ok_rate\": {},\n",
        json_num(report.stream_ok_rate() as f64)
    );
    s += &format!("  \"frames\": {},\n", report.frames);
    s += &format!("  \"inference_batches\": {},\n", report.inference_batches);
    s += &format!("  \"stolen_batches\": {},\n", report.stolen_batches);
    s += &format!("  \"max_queue_depth\": {},\n", report.max_queue_depth);
    match &report.telemetry {
        Some(snap) => s += &format!("  \"telemetry\": {}\n", snap.to_json()),
        None => s += "  \"telemetry\": null\n",
    }
    s += "}\n";
    s
}

/// Builds one multi-tenant engine over `policy_kinds × censor_kinds`
/// (policies are Amoeba agents trained against the named censor family,
/// censors wrapped per the scenario's program family) and admits
/// `n_flows` Tor-prefix sessions round-robin across the tenant cells.
/// Returns the run report plus the registered handles, in registration
/// (= argument) order.
#[allow(clippy::too_many_arguments)]
fn run_matrix(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    shards: usize,
    backend: BackendKind,
    policy_kinds: &[CensorKind],
    censor_kinds: &[CensorKind],
    scenario: Scenario,
) -> (ServeReport, Vec<PolicyId>, Vec<CensorId>) {
    assert!(!policy_kinds.is_empty() && !censor_kinds.is_empty());
    // Assemble the tenant tables up front, then hand them to the engine —
    // the `ServeEngine::with_registries` sweep-harness path.
    let mut policies = PolicyRegistry::new();
    let pids: Vec<PolicyId> = policy_kinds
        .iter()
        .map(|&k| policies.register(FrozenPolicy::from_agent(&ctx.agent(DatasetKind::Tor, k).0)))
        .collect();
    let mut censors = CensorRegistry::new();
    let cids: Vec<CensorId> = censor_kinds
        .iter()
        .map(|&k| {
            let censor = ctx.censor(DatasetKind::Tor, k);
            match scenario.factory(Arc::clone(&censor)) {
                Some(f) => censors.register_program(f),
                None => censors.register(censor),
            }
        })
        .collect();
    let flows = offered(ctx, n_flows);
    let mut engine = ServeEngine::with_registries(
        policies,
        censors,
        serve_config(ctx, batch, shards, backend, true, true),
    );
    let cells = pids.len() * cids.len();
    for (i, f) in flows.iter().enumerate() {
        let cell = i % cells;
        engine
            .admit(f)
            .id(i)
            .policy(pids[cell / cids.len()])
            .censor(cids[cell % cids.len()])
            .submit();
    }
    (engine.run(), pids, cids)
}

/// Cross-censor evaluation matrix from **one** engine run: evasion rate
/// per `(policy, censor)` cell, policies (rows) trained against one
/// censor family each, censors (columns) serving inline — the §5.4
/// robustness/transfer table at serving time, at dataplane cost `1`
/// instead of `P×C`.
pub fn serve_matrix(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    backend: BackendKind,
    policy_kinds: &[CensorKind],
    censor_kinds: &[CensorKind],
) -> String {
    let (report, pids, cids) = run_matrix(
        ctx,
        n_flows,
        batch,
        1,
        backend,
        policy_kinds,
        censor_kinds,
        Scenario::Classifier,
    );
    let mut md = String::from("## amoeba-serve cross-censor matrix (one engine run)\n\n");
    md += &format!(
        "{n_flows} concurrent flows (Tor test split, ≤{PREFIX_CAP}-packet prefixes) split \
         round-robin across {} policies × {} censors, verdicts every 8 frames, batch \
         {batch}; cells are evasion rates of the per-tenant sub-reports.\n\n",
        pids.len(),
        cids.len(),
    );
    md += &serve_matrix_table_only(&report, &pids, &cids, policy_kinds, censor_kinds);
    md += &format!(
        "\nwhole engine at 1 shard: {:.0} flows/s, {:.0} frames/s, streams ok {:.1}% \
         (shard scaling is measured by the dedicated table; wire output is \
         shard-count-invariant)\n",
        report.flows_per_sec(),
        report.frames_per_sec(),
        report.stream_ok_rate() * 100.0,
    );
    md
}

/// CI matrix smoke: a 2×3 policy × censor matrix served by one engine at
/// 4 shards, with every tenant's sub-report cross-checked bit-for-bit
/// against a fresh single-tenant engine run of the same `(id, flow)`
/// set — the tenancy-invariance contract exercised end-to-end on real
/// trained policies and censors on every push.
pub fn serve_matrix_smoke(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    backend: BackendKind,
) -> String {
    let policy_kinds = [CensorKind::Dt, CensorKind::Rf];
    let censor_kinds = [CensorKind::Dt, CensorKind::Rf, CensorKind::Cumul];
    let (report, pids, cids) = run_matrix(
        ctx,
        n_flows,
        batch,
        4,
        backend,
        &policy_kinds,
        &censor_kinds,
        Scenario::Classifier,
    );
    assert_eq!(
        report.stream_ok_rate(),
        1.0,
        "matrix smoke: streams failed to verify"
    );
    // CI fingerprint pin: under the exact smoke parameters the classifier
    // scenario must reproduce the pre-refactor one-shot wire bit-for-bit.
    // Backends are bit-identical by contract, so no backend gate.
    if ctx.scale.seed == 42
        && ctx.scale.amoeba_timesteps == 8192
        && ctx.scale.n_per_class == 250
        && ctx.scale.eval_flows == 25
        && n_flows == 96
        && batch == 64
    {
        assert_eq!(
            report.wire_fingerprint(),
            CLASSIFIER_SMOKE_FINGERPRINT,
            "matrix smoke: classifier wire fingerprint drifted from the \
             pre-refactor one-shot censor pin"
        );
    }

    let flows = offered(ctx, n_flows);
    let cells = pids.len() * cids.len();
    for (ti, (tenant, sub)) in report.sub_reports().into_iter().enumerate() {
        let pairs: Vec<(usize, &Flow)> = flows
            .iter()
            .enumerate()
            .filter(|(i, _)| i % cells == ti)
            .collect();
        let agent_kind = policy_kinds[tenant.policy.index()];
        let censor_kind = censor_kinds[tenant.censor.index()];
        let policy = FrozenPolicy::from_agent(&ctx.agent(DatasetKind::Tor, agent_kind).0);
        let censor = ctx.censor(DatasetKind::Tor, censor_kind);
        let mut solo = ServeEngine::new(serve_config(ctx, batch, 1, backend, true, true));
        let p = solo.register_policy(policy);
        let c = solo.register_censor(censor);
        for &(id, f) in &pairs {
            solo.admit(f).id(id).policy(p).censor(c).submit();
        }
        let solo = solo.run();
        assert_eq!(
            sub.wire_bits(),
            solo.wire_bits(),
            "matrix smoke: tenant ({agent_kind:?} policy, {censor_kind:?} censor) \
             diverged from its single-tenant run"
        );
    }

    let mut md = String::from(
        "## amoeba-serve matrix smoke (2×3 tenants, bit-identical to single-tenant runs)\n\n",
    );
    md += TABLE_HEADER;
    md += &throughput_row("2 policies × 3 censors", &report);
    md += "\n";
    md += &serve_matrix_table_only(&report, &pids, &cids, &policy_kinds, &censor_kinds);
    md += &format!("\nwire fingerprint: {:#018x}\n", report.wire_fingerprint());
    md
}

/// One scenario leg of the `--matrix --scenario` sweep in smoke mode:
/// the 2×3 tenant matrix served with the scenario's censor programs at 1
/// and 4 shards, wire cross-checked bit-for-bit — per-session program
/// state rides the work item, so shard count stays a pure throughput
/// knob even for stateful programs. Classifier delegates to
/// [`serve_matrix_smoke`] (single-tenant cross-check + the
/// [`CLASSIFIER_SMOKE_FINGERPRINT`] pin).
pub fn serve_scenario_smoke(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    backend: BackendKind,
    scenario: Scenario,
) -> String {
    if scenario == Scenario::Classifier {
        return serve_matrix_smoke(ctx, n_flows, batch, backend);
    }
    let policy_kinds = [CensorKind::Dt, CensorKind::Rf];
    let censor_kinds = [CensorKind::Dt, CensorKind::Rf, CensorKind::Cumul];
    let (four, pids, cids) = run_matrix(
        ctx,
        n_flows,
        batch,
        4,
        backend,
        &policy_kinds,
        &censor_kinds,
        scenario,
    );
    let (one, _, _) = run_matrix(
        ctx,
        n_flows,
        batch,
        1,
        backend,
        &policy_kinds,
        &censor_kinds,
        scenario,
    );
    let name = scenario.name();
    assert_eq!(
        one.wire_bits(),
        four.wire_bits(),
        "scenario {name}: 4-shard wire output diverged from 1-shard"
    );
    let snap = four
        .telemetry
        .as_ref()
        .expect("matrix runs carry telemetry");
    let (mut queries, mut verdicts, mut teardowns) = (0u64, 0u64, 0u64);
    for t in snap.tenants.values() {
        queries += t.verdict_queries;
        verdicts += t.verdicts;
        teardowns += t.teardowns;
    }
    assert!(
        queries >= verdicts,
        "scenario {name}: programs answered more verdicts than they were asked"
    );
    assert_eq!(
        teardowns,
        four.torn_sessions() as u64,
        "scenario {name}: telemetry teardowns disagree with session statuses"
    );
    match scenario {
        Scenario::Warmup => {
            // Every session's first observation falls inside the warmup
            // window and is allowed silently, so strictly more queries
            // than verdicts — and a warmup program never tears down.
            assert!(
                queries > verdicts,
                "scenario {name}: warmup never suppressed a verdict"
            );
            assert_eq!(teardowns, 0, "scenario {name}: warmup program tore down");
        }
        Scenario::Hysteresis => {
            // Torn sessions are blocked, never evaded.
            assert!(
                four.outcomes
                    .iter()
                    .all(|o| o.status != amoeba_serve::SessionStatus::Torn || !o.evaded),
                "scenario {name}: a torn-down session counted as evaded"
            );
        }
        Scenario::HardLabel => {
            // Verdict-only programs never leak a score: every final
            // score the dataplane records is exactly 0 or 1.
            assert!(
                four.outcomes
                    .iter()
                    .all(|o| o.final_score == 0.0 || o.final_score == 1.0),
                "scenario {name}: hard-label program leaked a soft score"
            );
        }
        Scenario::Classifier => unreachable!(),
    }
    let mut md = format!(
        "## amoeba-serve matrix smoke, scenario `{name}` (2×3 tenants, shards 1 vs 4 \
         bit-identical)\n\n"
    );
    md += TABLE_HEADER;
    md += &throughput_row(&format!("2 policies × 3 censors ({name})"), &four);
    md += "\n";
    md += &serve_matrix_table_only(&four, &pids, &cids, &policy_kinds, &censor_kinds);
    md += &format!(
        "\nverdict queries {queries}, verdicts {verdicts}, teardowns {teardowns} \
         (torn sessions: {})\n",
        four.torn_sessions()
    );
    md
}

/// Runs every scenario named by the `--scenario` CLI value in smoke
/// mode, concatenating the per-scenario reports.
pub fn serve_matrix_smoke_scenarios(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    backend: BackendKind,
    scenario_arg: &str,
) -> String {
    parse_scenarios(scenario_arg)
        .into_iter()
        .map(|s| serve_scenario_smoke(ctx, n_flows, batch, backend, s))
        .collect()
}

/// Runs every scenario named by the `--scenario` CLI value in the
/// full (non-smoke) matrix mode, concatenating the per-scenario tables.
/// Classifier renders the classic [`serve_matrix`] table; the other
/// scenarios run the same 2×3 matrix at 1 shard with their program
/// family and report evasion plus teardown/verdict telemetry.
pub fn serve_matrix_scenarios(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    backend: BackendKind,
    scenario_arg: &str,
) -> String {
    let policy_kinds = [CensorKind::Dt, CensorKind::Rf];
    let censor_kinds = [CensorKind::Dt, CensorKind::Rf, CensorKind::Cumul];
    let mut md = String::new();
    for scenario in parse_scenarios(scenario_arg) {
        if scenario == Scenario::Classifier {
            md += &serve_matrix(ctx, n_flows, batch, backend, &policy_kinds, &censor_kinds);
            continue;
        }
        let (report, pids, cids) = run_matrix(
            ctx,
            n_flows,
            batch,
            1,
            backend,
            &policy_kinds,
            &censor_kinds,
            scenario,
        );
        md += &format!(
            "## amoeba-serve cross-censor matrix, scenario `{}`\n\n",
            scenario.name()
        );
        md += &serve_matrix_table_only(&report, &pids, &cids, &policy_kinds, &censor_kinds);
        if let Some(snap) = &report.telemetry {
            let (mut queries, mut verdicts, mut teardowns) = (0u64, 0u64, 0u64);
            for t in snap.tenants.values() {
                queries += t.verdict_queries;
                verdicts += t.verdicts;
                teardowns += t.teardowns;
            }
            md += &format!(
                "\nverdict queries {queries}, verdicts {verdicts}, teardowns {teardowns} \
                 (torn sessions: {})\n",
                report.torn_sessions()
            );
        }
    }
    md
}

/// Renders just the evasion matrix for an existing report (shared by the
/// smoke path so it doesn't re-run the engine).
fn serve_matrix_table_only(
    report: &ServeReport,
    pids: &[PolicyId],
    cids: &[CensorId],
    policy_kinds: &[CensorKind],
    censor_kinds: &[CensorKind],
) -> String {
    let mut md = format!(
        "| policy \\ censor | {} |\n|---|{}\n",
        censor_kinds
            .iter()
            .map(|k| format!("{k:?}"))
            .collect::<Vec<_>>()
            .join(" | "),
        "---|".repeat(cids.len())
    );
    for (pi, &pid) in pids.iter().enumerate() {
        let cells: Vec<String> = cids
            .iter()
            .map(|&cid| {
                let sub = report.sub_report(amoeba_serve::Tenant::new(pid, cid));
                format!("{:.1}%", sub.evasion_rate() * 100.0)
            })
            .collect();
        md += &format!(
            "| trained vs {:?} | {} |\n",
            policy_kinds[pi],
            cells.join(" | ")
        );
    }
    md
}
