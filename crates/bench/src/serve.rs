//! Serving throughput harness: drives the `amoeba-serve` engine over
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
    CensorId, FrozenPolicy, PolicyId, ServeConfig, ServeConfigBuilder, ServeEngine, ServeReport,
    VerdictPolicy,
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
/// adapter must keep reproducing it bit-for-bit.
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

fn serve_config(ctx: &mut Context, batch: usize, shards: usize, steal: bool) -> ServeConfigBuilder {
    let (agent, _) = ctx.agent(DatasetKind::Tor, CensorKind::Dt);
    ServeConfig::builder_from_amoeba(agent.config(), DatasetKind::Tor.layer())
        .batch(batch)
        .shards(shards)
        .steal(steal)
        .verdicts(VerdictPolicy::Every(8))
        .seed(ctx.scale.seed)
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
    steal: bool,
) -> ServeReport {
    run_serve_with(ctx, n_flows, batch, shards, steal, 0)
}

/// [`run_serve`] with the trace ring exposed, for the artifact dump.
fn run_serve_with(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    shards: usize,
    steal: bool,
    trace_ring: usize,
) -> ServeReport {
    let (agent, _) = ctx.agent(DatasetKind::Tor, CensorKind::Dt);
    let censor = ctx.censor(DatasetKind::Tor, CensorKind::Dt);
    let flows = offered(ctx, n_flows);
    let cfg = serve_config(ctx, batch, shards, steal)
        .trace_ring(trace_ring)
        .build();
    let mut engine = ServeEngine::new(cfg);
    let p = engine.register_policy(FrozenPolicy::from_agent(&agent));
    let c = engine.register_censor(censor);
    engine.admit_all(flows.iter(), p, c);
    engine.run()
}

/// One fully instrumented engine pass: a 4096-event flight-recorder
/// ring per shard, ready for [`write_telemetry_artifacts`].
pub fn run_serve_instrumented(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    shards: usize,
    steal: bool,
) -> ServeReport {
    run_serve_with(ctx, n_flows, batch, shards, steal, 4096)
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
    steal: bool,
) -> ServeReport {
    let (agent, _) = ctx.agent(DatasetKind::Tor, CensorKind::Dt);
    let censor = ctx.censor(DatasetKind::Tor, CensorKind::Dt);
    let flows = offered(ctx, n_flows);
    let mut engine = ServeEngine::new(serve_config(ctx, batch, shards, steal).build());
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
    steal: bool,
) -> String {
    let mut md = String::from("## amoeba-serve dataplane throughput\n\n");
    md += &format!(
        "{n_flows} concurrent flows (Tor test split, ≤{PREFIX_CAP}-packet prefixes), \
         DT censor inline every 8 frames, deterministic policy, \
         stealing {}.\n\n",
        if steal { "on" } else { "off" },
    );
    md += TABLE_HEADER;
    for &batch in batches {
        let r = run_serve(ctx, n_flows, batch, 1, steal);
        md += &throughput_row(&format!("batch {batch}"), &r);
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
    steal: bool,
) -> String {
    let mut md = String::from("## amoeba-serve shard scaling\n\n");
    md += &format!(
        "{n_flows} concurrent flows (Tor test split, ≤{PREFIX_CAP}-packet prefixes), \
         DT censor inline every 8 frames, batch {batch}, deterministic policy, \
         stealing {}; sessions sharded across worker threads.\n\n",
        if steal { "on" } else { "off" },
    );
    md += TABLE_HEADER;
    for &shards in shard_counts {
        let r = run_serve(ctx, n_flows, batch, shards, steal);
        md += &throughput_row(&format!("{shards} shard(s)"), &r);
    }
    md
}

/// CI smoke pass: a small flow count served at 1 shard and 4 shards
/// (stealing on and off), with the wire outputs cross-checked
/// frame-by-frame — exercises the sharded and stealing paths
/// on every push and fails loudly if the invariance contract breaks.
pub fn serve_smoke(ctx: &mut Context, n_flows: usize, batch: usize) -> String {
    let one = run_serve(ctx, n_flows, batch, 1, true);
    let four = run_serve(ctx, n_flows, batch, 4, true);
    assert_eq!(
        one.wire_bits(),
        four.wire_bits(),
        "smoke: 4-shard wire output diverged from 1-shard"
    );
    assert_eq!(one.stream_ok_rate(), 1.0, "smoke: streams failed to verify");
    // Steal-off leg: work stealing is a pure throughput knob, so turning
    // it off at 4 shards must not move a single wire bit.
    let no_steal = run_serve(ctx, n_flows, batch, 4, false);
    assert_eq!(
        one.wire_bits(),
        no_steal.wire_bits(),
        "smoke: steal-off wire output diverged from steal-on"
    );
    let mut md = String::from(
        "## amoeba-serve smoke (shards 1 vs 4, steal on vs off, bit-identical wire)\n\n",
    );
    md += TABLE_HEADER;
    md += &throughput_row("1 shard", &one);
    md += &throughput_row("4 shards", &four);
    md += &throughput_row("4 shards, no steal", &no_steal);
    md
}

/// CI skew smoke: the 90/10 skewed tenant mix served at steal on/off ×
/// shards 1/4, every combination cross-checked bit-for-bit against the
/// single-shard steal-off run. Also reports how many batches the loaded
/// shards lost to thieves at 4 shards.
pub fn serve_skew_smoke(ctx: &mut Context, n_flows: usize, batch: usize) -> String {
    let reference = run_serve_skewed(ctx, n_flows, batch, 1, false);
    assert_eq!(
        reference.stream_ok_rate(),
        1.0,
        "skew smoke: streams failed to verify"
    );
    let mut md = String::from(
        "## amoeba-serve skew smoke (90/10 policy mix, steal on/off × shards 1/4, \
         bit-identical wire)\n\n",
    );
    md += TABLE_HEADER;
    md += &throughput_row("1 shard, no steal", &reference);
    let mut stolen_at_4 = 0;
    for steal in [false, true] {
        for shards in [1usize, 4] {
            if !steal && shards == 1 {
                continue; // the reference itself
            }
            let r = run_serve_skewed(ctx, n_flows, batch, shards, steal);
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
                    "{shards} shard(s), steal {}",
                    if steal { "on" } else { "off" }
                ),
                &r,
            );
        }
    }
    md += &format!("\nbatches stolen at 4 shards with stealing on: {stolen_at_4}\n");
    md
}

/// Runs two configurations alternately `reps` times, swapping which
/// goes first every repetition (`run(ctx, false)` first in even ones,
/// `run(ctx, true)` first in odd ones), so neither side always runs on
/// the cache, heap and clock state the other leaves behind. Each pair's
/// wire output must be bit-identical (the panic names `diverged`).
/// Returns each side's fastest run, `false`'s first.
fn best_of_alternating<C>(
    ctx: &mut C,
    reps: usize,
    mut run: impl FnMut(&mut C, bool) -> ServeReport,
    diverged: &str,
) -> (ServeReport, ServeReport) {
    let mut best: [Option<ServeReport>; 2] = [None, None];
    for rep in 0..reps {
        let first = rep % 2 == 1;
        let a = run(ctx, first);
        let b = run(ctx, !first);
        let pair = if first { [b, a] } else { [a, b] };
        assert_eq!(pair[0].wire_bits(), pair[1].wire_bits(), "{diverged}");
        for (slot, r) in best.iter_mut().zip(pair) {
            if slot
                .as_ref()
                .is_none_or(|b| r.flows_per_sec() > b.flows_per_sec())
            {
                *slot = Some(r);
            }
        }
    }
    let [a, b] = best.map(|r| r.expect("at least one repetition"));
    (a, b)
}

/// The 4-core CI scaling gate: serves the full workload at 1 shard and 4
/// shards (stealing on), best of 3 alternating runs each, cross-checks
/// the wire bit-for-bit, and — on machines with at least 4 cores —
/// **fails** unless the 4-shard run clears `min_speedup`× the
/// single-shard throughput (`serve_bench` reads it from
/// `AMOEBA_SERVE_MIN_SPEEDUP`, default 2×). On smaller machines the
/// measurement still runs and prints, but the gate is reported as
/// skipped rather than enforced.
pub fn serve_scaling_gate(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    min_speedup: f64,
) -> String {
    let reps = 3;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let (one, four) = best_of_alternating(
        ctx,
        reps,
        |ctx, four| run_serve(ctx, n_flows, batch, if four { 4 } else { 1 }, true),
        "scaling gate: 4-shard wire output diverged from 1-shard",
    );
    // The wire is shard-invariant, so one side's streams speak for both.
    assert_eq!(
        one.stream_ok_rate(),
        1.0,
        "scaling gate: streams failed to verify"
    );
    let speedup = four.flows_per_sec() / one.flows_per_sec();

    let mut md = String::from("## amoeba-serve 4-core scaling gate\n\n");
    md += &format!(
        "{n_flows} concurrent flows (Tor test split, ≤{PREFIX_CAP}-packet prefixes), \
         batch {batch}, stealing on, best of {reps} \
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
        .expect("every engine run attaches a snapshot");
    let prom = format!("{base}.prom");
    let trace = format!("{base}.trace.json");
    std::fs::write(&prom, snap.to_prometheus_text())?;
    std::fs::write(&trace, snap.trace_json())?;
    Ok((prom, trace))
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
    policy_kinds: &[CensorKind],
    censor_kinds: &[CensorKind],
    scenario: Scenario,
) -> (ServeReport, Vec<PolicyId>, Vec<CensorId>) {
    assert!(!policy_kinds.is_empty() && !censor_kinds.is_empty());
    // Train (or fetch) every tenant first, in the order the handles are
    // then registered with the engine.
    let policies: Vec<FrozenPolicy> = policy_kinds
        .iter()
        .map(|&k| FrozenPolicy::from_agent(&ctx.agent(DatasetKind::Tor, k).0))
        .collect();
    let censors: Vec<Arc<dyn Censor>> = censor_kinds
        .iter()
        .map(|&k| ctx.censor(DatasetKind::Tor, k))
        .collect();
    let flows = offered(ctx, n_flows);
    let cfg = serve_config(ctx, batch, shards, true).build();
    let mut engine = ServeEngine::new(cfg);
    let pids: Vec<PolicyId> = policies
        .into_iter()
        .map(|p| engine.register_policy(p))
        .collect();
    let cids: Vec<CensorId> = censors
        .into_iter()
        .map(|censor| match scenario.factory(Arc::clone(&censor)) {
            Some(f) => engine.register_censor_program(f),
            None => engine.register_censor(censor),
        })
        .collect();
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
    policy_kinds: &[CensorKind],
    censor_kinds: &[CensorKind],
) -> String {
    let (report, pids, cids) = run_matrix(
        ctx,
        n_flows,
        batch,
        1,
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
pub fn serve_matrix_smoke(ctx: &mut Context, n_flows: usize, batch: usize) -> String {
    let policy_kinds = [CensorKind::Dt, CensorKind::Rf];
    let censor_kinds = [CensorKind::Dt, CensorKind::Rf, CensorKind::Cumul];
    let (report, pids, cids) = run_matrix(
        ctx,
        n_flows,
        batch,
        4,
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
        let mut solo = ServeEngine::new(serve_config(ctx, batch, 1, true).build());
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
    scenario: Scenario,
) -> String {
    if scenario == Scenario::Classifier {
        return serve_matrix_smoke(ctx, n_flows, batch);
    }
    let policy_kinds = [CensorKind::Dt, CensorKind::Rf];
    let censor_kinds = [CensorKind::Dt, CensorKind::Rf, CensorKind::Cumul];
    let (four, pids, cids) = run_matrix(
        ctx,
        n_flows,
        batch,
        4,
        &policy_kinds,
        &censor_kinds,
        scenario,
    );
    let (one, _, _) = run_matrix(
        ctx,
        n_flows,
        batch,
        1,
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
    let (queries, verdicts, teardowns) = verdict_totals(&four);
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

/// Runs every scenario in smoke mode, concatenating the per-scenario
/// reports.
pub fn serve_matrix_smoke_scenarios(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    scenarios: &[Scenario],
) -> String {
    scenarios
        .iter()
        .map(|&s| serve_scenario_smoke(ctx, n_flows, batch, s))
        .collect()
}

/// Runs every scenario in the full (non-smoke) matrix mode,
/// concatenating the per-scenario tables.
/// Classifier renders the classic [`serve_matrix`] table; the other
/// scenarios run the same 2×3 matrix at 1 shard with their program
/// family and report evasion plus teardown/verdict telemetry.
pub fn serve_matrix_scenarios(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    scenarios: &[Scenario],
) -> String {
    let policy_kinds = [CensorKind::Dt, CensorKind::Rf];
    let censor_kinds = [CensorKind::Dt, CensorKind::Rf, CensorKind::Cumul];
    let mut md = String::new();
    for &scenario in scenarios {
        if scenario == Scenario::Classifier {
            md += &serve_matrix(ctx, n_flows, batch, &policy_kinds, &censor_kinds);
            continue;
        }
        let (report, pids, cids) = run_matrix(
            ctx,
            n_flows,
            batch,
            1,
            &policy_kinds,
            &censor_kinds,
            scenario,
        );
        md += &format!(
            "## amoeba-serve cross-censor matrix, scenario `{}`\n\n",
            scenario.name()
        );
        md += &serve_matrix_table_only(&report, &pids, &cids, &policy_kinds, &censor_kinds);
        let (queries, verdicts, teardowns) = verdict_totals(&report);
        md += &format!(
            "\nverdict queries {queries}, verdicts {verdicts}, teardowns {teardowns} \
             (torn sessions: {})\n",
            report.torn_sessions()
        );
    }
    md
}

/// Censor-program queries, verdicts and teardowns of a matrix run,
/// summed over its telemetry tenant cells.
fn verdict_totals(report: &ServeReport) -> (u64, u64, u64) {
    let snap = report
        .telemetry
        .as_ref()
        .expect("matrix runs carry telemetry");
    snap.tenants.values().fold((0, 0, 0), |(q, v, t), c| {
        (q + c.verdict_queries, v + c.verdicts, t + c.teardowns)
    })
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The two settings swap places every repetition, and the result
    /// still gets the `false` run first.
    #[test]
    fn best_of_alternating_swaps_the_order_every_repetition() {
        let mut calls = Vec::new();
        // `frames` tags each run: ten times its call number, plus one
        // for the `true` setting.
        let (off, on) = best_of_alternating(
            &mut calls,
            4,
            |calls: &mut Vec<bool>, on| {
                calls.push(on);
                ServeReport {
                    frames: 10 * calls.len() + usize::from(on),
                    ..Default::default()
                }
            },
            "diverged",
        );
        assert_eq!(calls, [false, true, true, false, false, true, true, false]);
        assert_eq!((off.frames, on.frames), (10, 21));
    }
}
