//! The serving checks behind `serve_bench`, each one the test suite
//! cannot run: the multi-tenant matrix over trained policies and every
//! censor-program scenario (with the classifier fingerprint pin), the
//! 4-core scaling gate, and the telemetry artifacts of one traced pass.
//! Each renders a markdown report. They measure nothing on record:
//! serving throughput is the layer ledger's (`ledger/`) and the criterion
//! `dataplane` bench's. Shard- and steal-invariance of the wire is pinned
//! by the tier-1 `tests/serve_pin.rs` and the `amoeba-serve` proptests.

use std::sync::Arc;

use amoeba_classifiers::{
    Censor, CensorKind, CensorProgramFactory, HardLabelFactory, StatefulProgramFactory,
};
use amoeba_serve::{
    CensorId, FrozenPolicy, PolicyId, ServeConfig, ServeConfigBuilder, ServeEngine, ServeReport,
    SessionStatus, VerdictPolicy,
};
use amoeba_traffic::{DatasetKind, Flow};

use crate::Context;

/// Offered-flow prefix cap: bounds per-session frame counts and payload
/// memory so 1k+ concurrent sessions stay cheap on CI hardware.
pub const PREFIX_CAP: usize = 20;

/// Pinned wire fingerprint of the classifier scenario in
/// [`serve_matrix_check`] under CI's parameters (`AMOEBA_STEPS=8192
/// serve_bench matrix`: small scale, seed 42, 96 flows, batch 64).
/// Captured on the pre-refactor one-shot censor path; the streaming
/// [`CensorProgram`] adapter must keep reproducing it bit-for-bit.
///
/// [`CensorProgram`]: amoeba_classifiers::CensorProgram
pub const CLASSIFIER_SMOKE_FINGERPRINT: u64 = 0xf396_37d3_c933_4b89;

/// The censor-program scenarios of [`serve_matrix_check`]: which program
/// family serves the matrix's censor columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Degenerate adapter over the trained classifiers — bit-for-bit the
    /// pre-refactor one-shot scoring path (pinned by
    /// [`CLASSIFIER_SMOKE_FINGERPRINT`] under CI's parameters).
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
    /// Every scenario, in the order the matrix check runs them.
    const ALL: [Scenario; 4] = [
        Scenario::Classifier,
        Scenario::Warmup,
        Scenario::Hysteresis,
        Scenario::HardLabel,
    ];

    /// Report name.
    fn name(self) -> &'static str {
        match self {
            Scenario::Classifier => "classifier",
            Scenario::Warmup => "warmup",
            Scenario::Hysteresis => "hysteresis",
            Scenario::HardLabel => "hard-label",
        }
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

    /// Registers `censor` with `engine` the way this scenario serves it.
    fn register(self, engine: &mut ServeEngine, censor: Arc<dyn Censor>) -> CensorId {
        match self.factory(Arc::clone(&censor)) {
            Some(f) => engine.register_censor_program(f),
            None => engine.register_censor(censor),
        }
    }
}

fn serve_config(ctx: &mut Context, batch: usize, shards: usize) -> ServeConfigBuilder {
    let (agent, _) = ctx.agent(DatasetKind::Tor, CensorKind::Dt);
    ServeConfig::builder_from_amoeba(agent.config(), DatasetKind::Tor.layer())
        .batch(batch)
        .shards(shards)
        .verdicts(VerdictPolicy::Every(8))
        .seed(ctx.scale.seed)
}

fn offered(ctx: &mut Context, n_flows: usize) -> Vec<Flow> {
    let base = ctx.eval_flows(DatasetKind::Tor);
    (0..n_flows)
        .map(|i| base[i % base.len()].prefix(PREFIX_CAP))
        .collect()
}

/// Runs one single-tenant engine pass at the given batch size, shard
/// count and flight-recorder ring size (events per shard; 0 keeps no
/// trace); the workload is `n_flows` sessions cycling the Tor test
/// split's sensitive flows (≤ [`PREFIX_CAP`]-packet prefixes) against an
/// inline DT censor.
pub fn run_serve(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    shards: usize,
    trace_ring: usize,
) -> ServeReport {
    let (agent, _) = ctx.agent(DatasetKind::Tor, CensorKind::Dt);
    let censor = ctx.censor(DatasetKind::Tor, CensorKind::Dt);
    let flows = offered(ctx, n_flows);
    let cfg = serve_config(ctx, batch, shards)
        .trace_ring(trace_ring)
        .build();
    let mut engine = ServeEngine::new(cfg);
    let p = engine.register_policy(FrozenPolicy::from_agent(&agent));
    let c = engine.register_censor(censor);
    engine.admit_all(flows.iter(), p, c);
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
        |ctx, four| run_serve(ctx, n_flows, batch, if four { 4 } else { 1 }, 0),
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

/// Builds one multi-tenant engine over [`MATRIX_POLICIES`] ×
/// [`MATRIX_CENSORS`] (policies are Amoeba agents trained against the
/// named censor family, censors served per the scenario's program family)
/// and admits `n_flows` Tor-prefix sessions round-robin across the tenant
/// cells. Returns the run report plus the registered handles, in
/// registration (= constant) order.
fn run_matrix(
    ctx: &mut Context,
    n_flows: usize,
    batch: usize,
    shards: usize,
    scenario: Scenario,
) -> (ServeReport, Vec<PolicyId>, Vec<CensorId>) {
    // Train (or fetch) every tenant first, in the order the handles are
    // then registered with the engine.
    let policies: Vec<FrozenPolicy> = MATRIX_POLICIES
        .iter()
        .map(|&k| FrozenPolicy::from_agent(&ctx.agent(DatasetKind::Tor, k).0))
        .collect();
    let censors: Vec<Arc<dyn Censor>> = MATRIX_CENSORS
        .iter()
        .map(|&k| ctx.censor(DatasetKind::Tor, k))
        .collect();
    let flows = offered(ctx, n_flows);
    let cfg = serve_config(ctx, batch, shards).build();
    let mut engine = ServeEngine::new(cfg);
    let pids: Vec<PolicyId> = policies
        .into_iter()
        .map(|p| engine.register_policy(p))
        .collect();
    let cids: Vec<CensorId> = censors
        .into_iter()
        .map(|censor| scenario.register(&mut engine, censor))
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

/// The policies (rows) and censors (columns) of the matrix check.
const MATRIX_POLICIES: [CensorKind; 2] = [CensorKind::Dt, CensorKind::Rf];
const MATRIX_CENSORS: [CensorKind; 3] = [CensorKind::Dt, CensorKind::Rf, CensorKind::Cumul];

/// CI matrix check: for every censor-program scenario (classifier,
/// warmup, hysteresis, hard-label), a 2×3 policy × censor matrix
/// served by one engine at 4 shards, cross-checked bit-for-bit against
/// the same matrix at 1 shard (program state rides the work item, so
/// shard count stays a pure throughput knob even for stateful programs)
/// and, tenant by tenant, against a fresh single-tenant run of the same
/// `(id, flow)` set registered the way the matrix registers it. Each
/// scenario then checks its own program semantics, and the classifier
/// scenario compares the whole-run wire against
/// [`CLASSIFIER_SMOKE_FINGERPRINT`] when run at the pinned parameters and
/// prints `fingerprint pin: compared`, or `not compared` and those
/// parameters otherwise.
pub fn serve_matrix_check(ctx: &mut Context, n_flows: usize, batch: usize) -> String {
    Scenario::ALL
        .into_iter()
        .map(|scenario| scenario_check(ctx, n_flows, batch, scenario))
        .collect()
}

/// One scenario of [`serve_matrix_check`].
fn scenario_check(ctx: &mut Context, n_flows: usize, batch: usize, scenario: Scenario) -> String {
    let name = scenario.name();
    let (four, pids, cids) = run_matrix(ctx, n_flows, batch, 4, scenario);
    let (one, _, _) = run_matrix(ctx, n_flows, batch, 1, scenario);
    assert_eq!(
        one.wire_bits(),
        four.wire_bits(),
        "scenario {name}: 4-shard wire output diverged from 1-shard"
    );

    let flows = offered(ctx, n_flows);
    let cells = pids.len() * cids.len();
    for (ti, (tenant, sub)) in four.sub_reports().into_iter().enumerate() {
        let agent_kind = MATRIX_POLICIES[tenant.policy.index()];
        let censor_kind = MATRIX_CENSORS[tenant.censor.index()];
        let policy = FrozenPolicy::from_agent(&ctx.agent(DatasetKind::Tor, agent_kind).0);
        let censor = ctx.censor(DatasetKind::Tor, censor_kind);
        let mut solo = ServeEngine::new(serve_config(ctx, batch, 1).build());
        let p = solo.register_policy(policy);
        let c = scenario.register(&mut solo, censor);
        for (id, f) in flows.iter().enumerate().filter(|(i, _)| i % cells == ti) {
            solo.admit(f).id(id).policy(p).censor(c).submit();
        }
        assert_eq!(
            sub.wire_bits(),
            solo.run().wire_bits(),
            "scenario {name}: tenant ({agent_kind:?} policy, {censor_kind:?} censor) \
             diverged from its single-tenant run"
        );
    }

    assert_eq!(
        four.stream_ok_rate(),
        1.0,
        "scenario {name}: a stream that was not torn down failed to verify"
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
    let pin = match scenario {
        Scenario::Classifier => {
            // Under CI's parameters the classifier scenario must reproduce
            // the pre-refactor one-shot wire bit-for-bit.
            let s = &ctx.scale;
            if s.seed == 42
                && s.amoeba_timesteps == 8192
                && s.n_per_class == 250
                && s.eval_flows == 25
                && n_flows == 96
                && batch == 64
            {
                assert_eq!(
                    four.wire_fingerprint(),
                    CLASSIFIER_SMOKE_FINGERPRINT,
                    "scenario {name}: wire fingerprint drifted from the pre-refactor \
                     one-shot censor pin"
                );
                "fingerprint pin: compared\n"
            } else {
                "fingerprint pin: not compared (pinned at seed 42, 8192 steps, \
                 250 flows per class, 25 eval flows, 96 flows, batch 64)\n"
            }
        }
        Scenario::Warmup => {
            // Every session's first observation falls inside the warmup
            // window and is allowed silently, so strictly more queries
            // than verdicts — and a warmup program never tears down.
            assert!(
                queries > verdicts,
                "scenario {name}: warmup never suppressed a verdict"
            );
            assert_eq!(teardowns, 0, "scenario {name}: warmup program tore down");
            ""
        }
        Scenario::Hysteresis => {
            // Torn sessions are blocked, never evaded.
            assert!(
                four.outcomes
                    .iter()
                    .all(|o| o.status != SessionStatus::Torn || !o.evaded),
                "scenario {name}: a torn-down session counted as evaded"
            );
            ""
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
            ""
        }
    };

    let mut md = format!(
        "## amoeba-serve matrix check, scenario `{name}` (2×3 tenants; shards 1 vs 4 and \
         every cell vs its single-tenant run, bit-identical)\n\n"
    );
    md += TABLE_HEADER;
    md += &throughput_row(&format!("2 policies × 3 censors ({name})"), &four);
    md += "\n";
    md += &matrix_table(&four, &pids, &cids);
    md += &format!(
        "\nverdict queries {queries}, verdicts {verdicts}, teardowns {teardowns} \
         (torn sessions: {})\nwire fingerprint: {:#018x}\n{pin}\n",
        four.torn_sessions(),
        four.wire_fingerprint(),
    );
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

/// Renders the evasion rate of every `(policy, censor)` cell of a
/// [`run_matrix`] report.
fn matrix_table(report: &ServeReport, pids: &[PolicyId], cids: &[CensorId]) -> String {
    let mut md = format!(
        "| policy \\ censor | {} |\n|---|{}\n",
        MATRIX_CENSORS
            .iter()
            .map(|k| format!("{k:?}"))
            .collect::<Vec<_>>()
            .join(" | "),
        "---|".repeat(cids.len())
    );
    for (&pid, kind) in pids.iter().zip(MATRIX_POLICIES) {
        let cells: Vec<String> = cids
            .iter()
            .map(|&cid| {
                let sub = report.sub_report(amoeba_serve::Tenant::new(pid, cid));
                format!("{:.1}%", sub.evasion_rate() * 100.0)
            })
            .collect();
        md += &format!("| trained vs {kind:?} | {} |\n", cells.join(" | "));
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
