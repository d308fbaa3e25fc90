//! The three workloads, their set-up, and the runs that measure them.
//!
//! Every workload has the same three parts, so that every metric in the
//! catalog has a value on every workload:
//!
//! 1. **Set-up**, repeated [`SERVE_SETUPS`] or [`TRAIN_SETUPS`] times (median reported as
//!    `setup_s`): the Tor dataset, the DT censor and, on the serve
//!    workloads, the served policy trained against DT.
//! 2. **Training** (`train_s`): on `train` the measured phase, repeated
//!    until its share of the run time is used; on the serve workloads the
//!    policy training inside each set-up.
//! 3. **Serving**: on the serve workloads the measured phase; on `train`
//!    the evaluation of the trained policy, served deterministically on
//!    the eval flows against DT with a verdict every frame, which also
//!    gives `train_asr` on every workload.
//!
//! Serving is a closed batch: every session is admitted at t=0 on the
//! engine's virtual clock, so a throughput is work completed per wall
//! second at the stated session count.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use amoeba_bench::{filter_sensitive, serve::PREFIX_CAP, Scale};
use amoeba_classifiers::{
    train_censor, Censor, CensorKind, CensorProgramFactory, ClassifierProgramFactory, TrainConfig,
};
use amoeba_core::AmoebaConfig;
use amoeba_serve::{
    BackendKind, FrozenPolicy, ServeConfig, ServeEngine, ServeReport, VerdictPolicy,
};
use amoeba_traffic::{build_dataset, DatasetKind, Flow, Layer, NetEm, Splits};

use crate::cost::{policy_cost, OpCost};
use crate::report::{max_of, median, min_of, Metrics, END_TO_END, PER_LAYER};
use crate::train::{probe_states, same_policy, train_library, train_traced, TrainTrace, Trained};
use crate::wrappers::{OpStats, TimedBackend, TimedCensor};

/// Set-ups per run on the serve workloads, whose set-up trains a
/// policy; `setup_s` is their median.
pub const SERVE_SETUPS: usize = 5;
/// Set-ups per run on `train`, whose set-up is only the dataset and the
/// censor and takes milliseconds, so more repetitions steady the median.
pub const TRAIN_SETUPS: usize = 15;
/// Fewest measured repetitions of a phase, however short the run.
pub const MIN_REPS: usize = 3;
/// Flows per class in the generated Tor dataset.
pub const N_PER_CLASS: usize = 250;
/// Seed of the system under test: the dataset, the DT censor and the
/// served policy are built from it on every run, so runs with different
/// workload seeds measure the same system on different traffic.
pub const SYSTEM_SEED: u64 = 42;

/// A training budget.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// StateEncoder pretraining flows.
    pub encoder_flows: usize,
    /// StateEncoder pretraining epochs.
    pub encoder_epochs: usize,
    /// PPO environment steps.
    pub steps: usize,
}

/// The training budget: of the policy the serve workloads serve, and of
/// each training run of `train`. Pretraining and the PPO update each
/// take a substantial share of `train_s`.
pub const BUDGET: Budget = Budget {
    encoder_flows: 32,
    encoder_epochs: 8,
    steps: 4096,
};

/// How one serving phase drives the engine.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Sessions admitted per repetition.
    pub sessions: usize,
    /// Offered flows cut to at most this many packets.
    pub prefix_cap: Option<usize>,
    /// Inline verdict cadence.
    pub verdicts: VerdictPolicy,
    /// NetEm drop rate on the censor-visible wire (0 = no NetEm).
    pub drop_rate: f32,
    /// Shard threads. No shape pipelines: the engine runs one thread per
    /// shard (see [`ONPATH`] for why).
    pub shards: usize,
    /// Work stealing between shards.
    pub steal: bool,
    /// Inference batch cap.
    pub batch: usize,
}

impl ServeShape {
    fn describe(&self) -> String {
        format!(
            "sessions={} prefix_cap={} verdicts={:?} netem_drop={} shards={} pipeline=false steal={} batch={} mode=deterministic",
            self.sessions,
            self.prefix_cap.map_or("none".to_string(), |c| c.to_string()),
            self.verdicts,
            self.drop_rate,
            self.shards,
            self.steal,
            self.batch
        )
    }
}

/// `serve-bulk`: inference-bound, full batches; the serving workload
/// that measures sharding, stealing and the k-way merge. 400 sessions
/// make a repetition of about half a second, so a run has dozens to take
/// the best of; at 1000 sessions (about 1.2 s each) the best repetition
/// still spread by 0.2 (throughput) to 0.3 (p99) across ten seeds.
pub const BULK: ServeShape = ServeShape {
    sessions: 400,
    prefix_cap: Some(PREFIX_CAP),
    verdicts: VerdictPolicy::Every(8),
    drop_rate: 0.0,
    shards: 2,
    steal: true,
    batch: 64,
};

/// `serve-onpath`: full-length flows scored on every frame under 2%
/// loss; censor-bound. One shard, inline: on a 2-core host the
/// driver/companion pipeline served these sessions about 40% slower than
/// one thread, and its fastest repetitions were chance alignments of the
/// two threads, so its figures spread by a quarter across seeds.
pub const ONPATH: ServeShape = ServeShape {
    sessions: 200,
    prefix_cap: None,
    verdicts: VerdictPolicy::EveryFrame,
    drop_rate: 0.02,
    shards: 1,
    steal: false,
    batch: 64,
};

/// The evaluation that gives `train_asr`: the eval flows, full length,
/// deterministic actions, a verdict every frame, no NetEm. Two shards,
/// like the rollouts, so its timings average over both cores rather than
/// depend on which core one thread landed on.
pub const EVAL: ServeShape = ServeShape {
    sessions: 100,
    prefix_cap: None,
    verdicts: VerdictPolicy::EveryFrame,
    drop_rate: 0.0,
    shards: 2,
    steal: true,
    batch: 64,
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short prefixes, sharded, inference-bound.
    ServeBulk,
    /// Full flows, censor on every frame, one shard.
    ServeOnpath,
    /// Encoder pretraining plus PPO against DT.
    Train,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::ServeBulk, Workload::ServeOnpath, Workload::Train];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBulk => "serve-bulk",
            Workload::ServeOnpath => "serve-onpath",
            Workload::Train => "train",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The measured serving shape.
    pub fn shape(self) -> ServeShape {
        match self {
            Workload::ServeBulk => BULK,
            Workload::ServeOnpath => ONPATH,
            Workload::Train => EVAL,
        }
    }

    fn setups(self) -> usize {
        match self {
            Workload::Train => TRAIN_SETUPS,
            _ => SERVE_SETUPS,
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The printed metrics.
    pub metrics: Metrics,
    /// Operations attempted: admitted sessions on serve workloads, PPO
    /// iterations on `train`.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks; empty when the run is correct.
    pub problems: Vec<String>,
    /// Host and configuration record.
    pub record: BTreeMap<String, String>,
}

/// The run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct World {
    splits: Splits,
    dt: Arc<dyn Censor>,
    cfg: AmoebaConfig,
}

/// The training configuration: [`BUDGET`], seeded with [`SYSTEM_SEED`].
fn amoeba_cfg() -> AmoebaConfig {
    Scale {
        n_per_class: N_PER_CLASS,
        clf: TrainConfig::fast(),
        amoeba_timesteps: BUDGET.steps,
        eval_flows: usize::MAX,
        repeats: 1,
        encoder_flows: BUDGET.encoder_flows,
        encoder_epochs: BUDGET.encoder_epochs,
        seed: SYSTEM_SEED,
    }
    .amoeba_config(DatasetKind::Tor)
    .with_rollout_threads(nproc())
}

/// The dataset, the censor and the configuration that trains a policy
/// against them, all from [`SYSTEM_SEED`].
fn build_world() -> World {
    let splits = build_dataset(
        DatasetKind::Tor,
        N_PER_CLASS,
        Some(NetEm::default()),
        SYSTEM_SEED,
    )
    .split(SYSTEM_SEED);
    let dt: Arc<dyn Censor> = Arc::new(train_censor(
        CensorKind::Dt,
        &splits.clf_train,
        Layer::Tcp,
        &TrainConfig::fast(),
        SYSTEM_SEED,
    ));
    World {
        splits,
        dt,
        cfg: amoeba_cfg(),
    }
}

fn program_factory(dt: &Arc<dyn Censor>) -> Arc<dyn CensorProgramFactory> {
    Arc::new(ClassifierProgramFactory::new(Arc::clone(dt)))
}

/// The sessions' offered flows: the test split's sensitive flows,
/// cycled in an order drawn from the workload seed.
fn offered(world: &World, shape: &ServeShape, seed: u64) -> Vec<Flow> {
    let mut base = filter_sensitive(&world.splits.test, usize::MAX);
    assert!(!base.is_empty(), "the test split has no sensitive flows");
    base.shuffle(&mut StdRng::seed_from_u64(seed));
    (0..shape.sessions)
        .map(|i| {
            let f = &base[i % base.len()];
            shape.prefix_cap.map_or_else(|| f.clone(), |c| f.prefix(c))
        })
        .collect()
}

fn serve_config(cfg: &AmoebaConfig, shape: &ServeShape, seed: u64) -> ServeConfig {
    ServeConfig::builder_from_amoeba(cfg, Layer::Tcp)
        .batch(shape.batch)
        .shards(shape.shards)
        .pipeline(false)
        .steal(shape.steal)
        .verdicts(shape.verdicts)
        .netem((shape.drop_rate > 0.0).then(|| NetEm::with_drop_rate(shape.drop_rate)))
        .seed(seed)
        .backend(BackendKind::default())
        .exact_frame_stats(true)
        .build()
}

/// One engine run.
struct ServeSample {
    admit_s: f64,
    run_s: f64,
    report: ServeReport,
    backend: Option<(OpStats, OpStats)>,
    censor: Option<OpStats>,
}

impl ServeSample {
    fn wall_s(&self) -> f64 {
        self.admit_s + self.run_s
    }
}

fn serve_once(
    policy: &FrozenPolicy,
    dt: &Arc<dyn Censor>,
    flows: &[Flow],
    cfg: &ServeConfig,
    traced: bool,
) -> ServeSample {
    let start = Instant::now();
    let mut engine = ServeEngine::new(cfg.clone());
    let mut timers = None;
    let censor = if traced {
        let backend = Arc::new(TimedBackend::new(cfg.backend.instantiate()));
        let censor = Arc::new(TimedCensor::new(program_factory(dt)));
        engine = engine.with_backend(backend.clone());
        let id = engine.register_censor_program(censor.clone());
        timers = Some((backend, censor));
        id
    } else {
        engine.register_censor(Arc::clone(dt))
    };
    let p = engine.register_policy(policy.clone());
    engine.admit_all(flows.iter(), p, censor);
    let admit_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = engine.run();
    let run_s = start.elapsed().as_secs_f64();
    ServeSample {
        admit_s,
        run_s,
        report,
        backend: timers.as_ref().map(|(b, _)| (b.push.read(), b.head.read())),
        censor: timers.as_ref().map(|(_, c)| c.observe.read()),
    }
}

/// Sessions of `r` that failed: missing from the report, or whose stream
/// did not reassemble. Every session leaves as completed or torn.
fn failed_sessions(r: &ServeReport, sessions: usize) -> u64 {
    let present = r
        .outcomes
        .iter()
        .enumerate()
        .filter(|(i, o)| o.id == *i && *i < sessions)
        .count();
    let broken = r.outcomes.iter().filter(|o| !o.stream_ok).count();
    (sessions - present.min(sessions) + broken) as u64
}

/// Serving phase: untraced repetitions (and, when tracing, traced ones
/// alternating with them) until `seconds` have passed and at least
/// [`MIN_REPS`] pairs ran, after one unmeasured warm-up.
struct ServePhase {
    plain: Vec<ServeSample>,
    traced: Vec<ServeSample>,
}

fn serve_phase(
    policy: &FrozenPolicy,
    world: &World,
    args: RunArgs,
    out: &mut Outcome,
) -> ServePhase {
    let (shape, seed, trace) = (&args.workload.shape(), args.seed, args.trace);
    let what = args.workload.name();
    // On `train` the serving runs are the evaluation: they are checked,
    // but its operations are PPO iterations, and training has most of
    // the time.
    let evaluation = args.workload == Workload::Train;
    let seconds = if evaluation {
        0.4 * args.seconds
    } else {
        args.seconds
    };
    let flows = offered(world, shape, seed);
    let cfg = serve_config(&world.cfg, shape, seed);
    let warm = serve_once(policy, &world.dt, &flows, &cfg, false);
    let reference = warm.report.wire_fingerprint();
    let check = |s: &ServeSample, label: &str, out: &mut Outcome| {
        let failed = failed_sessions(&s.report, shape.sessions);
        if !evaluation {
            out.attempted += shape.sessions as u64;
            out.failed += failed;
        }
        if failed > 0 {
            out.problems
                .push(format!("{what} {label}: {failed} sessions failed"));
        }
        if s.report.stream_ok_rate() != 1.0 {
            out.problems
                .push(format!("{what} {label}: stream_ok_rate below 1"));
        }
        if s.report.wire_fingerprint() != reference {
            out.problems.push(format!(
                "{what} {label}: wire fingerprint {:#x} differs from the untraced {reference:#x}",
                s.report.wire_fingerprint()
            ));
        }
    };
    if failed_sessions(&warm.report, shape.sessions) > 0 {
        out.problems
            .push(format!("{what} warm-up: sessions failed"));
    }
    let mut phase = ServePhase {
        plain: Vec::new(),
        traced: Vec::new(),
    };
    repeat(trace, seconds, |_, traced| {
        let s = serve_once(policy, &world.dt, &flows, &cfg, traced);
        check(&s, if traced { "traced" } else { "untraced" }, out);
        if traced {
            phase.traced.push(s);
        } else {
            phase.plain.push(s);
        }
    });
    phase
}

/// Calls `run(rep, traced)` for untraced repetitions, each paired with a
/// traced one when `trace` is set, until `seconds` have passed and at
/// least [`MIN_REPS`] repetitions ran. The pair's order alternates so
/// neither side always runs warm.
fn repeat(trace: bool, seconds: f64, mut run: impl FnMut(usize, bool)) {
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let order: &[bool] = match (trace, rep % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in order {
            run(rep, traced);
        }
        rep += 1;
    }
}

/// The serving timings of the best repetition, metric by metric: the
/// highest throughput and the lowest latency percentiles. On a shared
/// host, interference only ever slows a repetition and comes and goes
/// within seconds, so the best of a run's repetitions is a much steadier
/// estimate of the program's own speed than their median.
fn end_to_end_serve(m: &mut Metrics, samples: &[ServeSample], shape: &ServeShape) {
    let highest = |f: &dyn Fn(&ServeSample) -> f64| max_of(samples.iter().map(f));
    let lowest = |f: &dyn Fn(&ServeSample) -> f64| min_of(samples.iter().map(f));
    m.set(
        "flows_per_s",
        highest(&|s| shape.sessions as f64 / s.wall_s()),
    );
    m.set(
        "frames_per_s",
        highest(&|s| s.report.frames as f64 / s.wall_s()),
    );
    m.set(
        "frame_latency_p50_us",
        lowest(&|s| f64::from(s.report.latency_percentiles_us(&[0.5])[0])),
    );
    m.set(
        "frame_latency_p99_us",
        lowest(&|s| f64::from(s.report.latency_percentiles_us(&[0.99])[0])),
    );
    let first = &samples[0].report;
    m.set("evasion_rate", f64::from(first.evasion_rate()));
    m.set("data_overhead", f64::from(first.data_overhead()));
}

fn layer_serve(s: &ServeSample, shape: &ServeShape, cost: (OpCost, OpCost)) -> Metrics {
    let mut m = Metrics::default();
    let r = &s.report;
    let (push, head) = s.backend.unwrap_or_default();
    let observe = s.censor.unwrap_or_default();
    m.set("backend.push_batch.calls", push.calls as f64);
    m.set("backend.push_batch.rows", push.units as f64);
    m.set("backend.push_batch.s", push.seconds);
    m.set("backend.head_batch.calls", head.calls as f64);
    m.set("backend.head_batch.s", head.seconds);
    let (push_gflop, push_gb) = cost.0.total(push.calls, push.units);
    let (head_gflop, head_gb) = cost.1.total(head.calls, head.units);
    let gflop = push_gflop + head_gflop;
    m.set("backend.gflop", gflop);
    m.set("backend.gbytes", push_gb + head_gb);
    m.set("backend.gflop_per_s", gflop / (push.seconds + head.seconds));

    let verdicts: u64 = r
        .telemetry
        .as_ref()
        .map_or(0, |t| t.tenants.values().map(|c| c.verdicts).sum());
    m.set("censor.observe.calls", observe.calls as f64);
    m.set("censor.observe.s", observe.seconds);
    m.set("censor.observe.packets", observe.units as f64);
    m.set(
        "censor.queries_per_verdict",
        observe.calls as f64 / verdicts as f64,
    );

    let framing_stage_s = r.framing_stage_us * 1e-6;
    m.set("serve.admit_s", s.admit_s);
    m.set("serve.run_s", s.run_s);
    m.set("serve.batches", r.inference_batches as f64);
    m.set(
        "serve.rows_per_batch",
        r.frames as f64 / r.inference_batches as f64,
    );
    m.set("serve.stolen_batches", r.stolen_batches as f64);
    m.set(
        "serve.queue_wait_p50_us",
        f64::from(r.queue_percentiles_us(&[0.5])[0]),
    );
    m.set("serve.infer_stage_s", r.infer_stage_us * 1e-6);
    m.set("serve.framing_stage_s", framing_stage_s);
    m.set("framing.s", framing_stage_s - observe.seconds);
    let covered = push.seconds + head.seconds + framing_stage_s;
    m.set(
        "serve.unattributed_share",
        1.0 - covered / (s.run_s * shape.shards as f64),
    );
    m
}

fn layer_train(t: &TrainTrace) -> Metrics {
    let mut m = Metrics::default();
    m.set("train.pretrain_s", t.pretrain_s);
    m.set("train.rollout_s", t.rollout_s);
    m.set("train.env_steps", t.env_steps as f64);
    m.set("train.censor_queries", t.censor_queries as f64);
    m.set("train.gae_s", t.gae_s);
    m.set("train.update_s", t.update_s);
    m.set("train.iterations", t.iterations as f64);
    m.set("train.unattributed_s", t.unattributed_s());
    m
}

/// Per-key median over several metric sets.
fn median_metrics(sets: &[Metrics], catalog: &[(&str, &str)]) -> Metrics {
    let mut m = Metrics::default();
    for (name, _) in catalog {
        let xs: Vec<f64> = sets.iter().filter_map(|s| s.get(name)).collect();
        if !xs.is_empty() {
            m.set(name, median(&xs));
        }
    }
    m
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs one workload.
pub fn run(args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let w = args.workload;
    let shape = w.shape();
    let cfg = amoeba_cfg();
    let probe = probe_states(&cfg);
    let cost = policy_cost(&cfg);

    record_config(&mut out, args, &shape);

    // 1. Set-up, repeated; each repetition must rebuild the same world
    // and, on serve workloads, train the same policy.
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut world = None;
    let mut policy: Option<Trained> = None;
    let mut setup_trace: Option<TrainTrace> = None;
    for i in 0..w.setups() {
        let start = Instant::now();
        let wd = build_world();
        if w != Workload::Train {
            let attack = filter_sensitive(&wd.splits.attack_train, usize::MAX);
            let trained = if args.trace && i == 0 {
                let (t, trace) =
                    train_traced(&program_factory(&wd.dt), &attack, Layer::Tcp, &wd.cfg);
                setup_trace = Some(trace);
                t
            } else {
                train_library(&wd.dt, &attack, Layer::Tcp, &wd.cfg)
            };
            if trained.nonfinite > 0 {
                out.problems.push(format!(
                    "set-up {i}: {} non-finite training losses",
                    trained.nonfinite
                ));
            }
            train_s.push(trained.seconds);
            match &policy {
                Some(first) if !same_policy(first, &trained, &probe) => out.problems.push(format!(
                    "set-up {i}: the trained policy differs from set-up 0 (traced set-up: {})",
                    args.trace
                )),
                Some(_) => {}
                None => policy = Some(trained),
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        world = Some(wd);
    }
    let world = world.expect("at least one set-up");
    out.record.insert(
        "backend".into(),
        ServeEngine::new(serve_config(&world.cfg, &shape, args.seed))
            .backend_name()
            .to_string(),
    );
    out.metrics.set("setup_s", median(&setup_s));

    // 2. Training (measured on `train`).
    let mut train_traces = Vec::new();
    let mut overhead = f64::NAN;
    if w == Workload::Train {
        let attack = filter_sensitive(&world.splits.attack_train, usize::MAX);
        let factory = program_factory(&world.dt);
        let mut lib_s = Vec::new();
        let mut traced_s = Vec::new();
        repeat(args.trace, 0.6 * args.seconds, |rep, traced| {
            let trained = if traced {
                let (t, trace) = train_traced(&factory, &attack, Layer::Tcp, &world.cfg);
                train_traces.push(trace);
                traced_s.push(t.seconds);
                t
            } else {
                let t = train_library(&world.dt, &attack, Layer::Tcp, &world.cfg);
                lib_s.push(t.seconds);
                t
            };
            out.attempted += trained.iterations;
            out.failed += trained.nonfinite;
            if trained.nonfinite > 0 {
                out.problems
                    .push(format!("training: {} non-finite losses", trained.nonfinite));
            }
            match &policy {
                Some(first) if !same_policy(first, &trained, &probe) => out.problems.push(format!(
                    "training rep {rep} ({}): policy differs from the first library run",
                    if traced { "traced" } else { "library" }
                )),
                Some(_) => {}
                None => policy = Some(trained),
            }
        });
        train_s = lib_s.clone();
        if args.trace {
            overhead = min_of(traced_s) / min_of(lib_s);
        }
    } else if let Some(t) = setup_trace {
        train_traces.push(t);
    }
    // The fastest training, for the reason `end_to_end_serve` gives.
    out.metrics.set("train_s", min_of(train_s));
    let policy = policy.expect("a trained policy");
    let frozen = FrozenPolicy::new(policy.encoder.clone(), policy.actor.clone());

    // 3. Serving.
    let phase = serve_phase(&frozen, &world, args, &mut out);
    end_to_end_serve(&mut out.metrics, &phase.plain, &shape);
    if w == Workload::Train {
        out.metrics.set(
            "train_asr",
            out.metrics.get("evasion_rate").unwrap_or(f64::NAN),
        );
    } else {
        let eval = serve_once(
            &frozen,
            &world.dt,
            &offered(&world, &EVAL, args.seed),
            &serve_config(&world.cfg, &EVAL, args.seed),
            false,
        );
        if failed_sessions(&eval.report, EVAL.sessions) > 0 {
            out.problems
                .push("train_asr evaluation: sessions failed".into());
        }
        out.metrics
            .set("train_asr", f64::from(eval.report.evasion_rate()));
    }
    out.metrics.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        // Serve and training samples set disjoint metrics; each metric's
        // median is over the samples that set it.
        let samples: Vec<Metrics> = phase
            .traced
            .iter()
            .map(|s| layer_serve(s, &shape, cost))
            .chain(train_traces.iter().map(layer_train))
            .collect();
        let mut m = median_metrics(&samples, PER_LAYER);
        if w != Workload::Train {
            let wall = |xs: &[ServeSample]| min_of(xs.iter().map(ServeSample::wall_s));
            overhead = wall(&phase.traced) / wall(&phase.plain);
        }
        m.set("trace.overhead_ratio", overhead);
        out.record
            .insert("end_to_end_untraced".into(), out.metrics.to_json());
        out.metrics = m;
    }

    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let missing = out.metrics.missing(catalog);
    if !missing.is_empty() {
        out.problems.push(format!(
            "metrics missing or not finite: {}",
            missing.join(", ")
        ));
    }
    out
}

fn record_config(out: &mut Outcome, args: RunArgs, shape: &ServeShape) {
    let r = &mut out.record;
    r.insert("workload".into(), args.workload.name().into());
    r.insert("seed".into(), args.seed.to_string());
    r.insert("seconds".into(), args.seconds.to_string());
    r.insert("trace".into(), u8::from(args.trace).to_string());
    r.insert("nproc".into(), nproc().to_string());
    r.insert(
        "simd".into(),
        amoeba_nn::simd::SimdLevel::detect().to_string(),
    );
    r.insert("serve_shape".into(), shape.describe());
    r.insert(
        "train_budget".into(),
        format!(
            "encoder_flows={} encoder_epochs={} ppo_steps={} rollout_threads={}",
            BUDGET.encoder_flows,
            BUDGET.encoder_epochs,
            BUDGET.steps,
            nproc()
        ),
    );
    r.insert(
        "dataset".into(),
        format!(
            "tor n_per_class={N_PER_CLASS} censor=dt setups={} min_reps={MIN_REPS}",
            args.workload.setups()
        ),
    );
}
