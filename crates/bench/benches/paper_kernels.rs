//! Criterion micro-benchmarks: the computational kernel behind each table
//! and figure of the paper (DESIGN.md §4 maps each group to its
//! experiment). Full experiment regeneration lives in the `repro_all`
//! binary; these benches keep `cargo bench --workspace` fast while still
//! measuring what each experiment is bottlenecked by.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use amoeba_classifiers::{
    train_censor, Censor, CensorKind, CensorProgramFactory, ClassifierProgramFactory,
    ConstantCensor, TrainConfig,
};
use amoeba_core::{
    collect_rollouts_threaded, encode_frame, pretrain_encoder, synthetic_flows, AmoebaConfig,
    Batch, EnvConfig, PolicySnapshots, PpoLearner, ProfileStore, ShapedSender, StateEncoder,
    Trajectory, Worker,
};
use amoeba_traffic::{
    build_dataset, cumul_features, extract_features, DatasetKind, Flow, FlowRepr, Layer,
    TorGenerator, TrafficGenerator,
};

fn small_ctx() -> (amoeba_traffic::Splits, Arc<dyn Censor>) {
    let ds = build_dataset(DatasetKind::Tor, 120, None, 7);
    let splits = ds.split(7);
    let censor: Arc<dyn Censor> = Arc::new(train_censor(
        CensorKind::Dt,
        &splits.clf_train,
        Layer::Tcp,
        &TrainConfig::fast(),
        1,
    ));
    (splits, censor)
}

/// Table 1 kernel: censor inference over one flow.
fn bench_table1_classifier_inference(c: &mut Criterion) {
    let (splits, dt) = small_ctx();
    let df: Arc<dyn Censor> = Arc::new(train_censor(
        CensorKind::Df,
        &splits.clf_train,
        Layer::Tcp,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::fast()
        },
        2,
    ));
    let flow = splits.test.flows[0].clone();
    c.bench_function("table1_dt_score_flow", |b| b.iter(|| dt.score(&flow)));
    c.bench_function("table1_df_score_flow", |b| b.iter(|| df.score(&flow)));

    // The on-path censor's cost per flow (§5.6): one DT or LSTM program
    // scoring every prefix of a 157-packet wire, the length of a shaped
    // full flow. Test flows are shorter, so the wire chains them.
    let wire = Flow {
        packets: splits
            .test
            .flows
            .iter()
            .flat_map(|f| f.packets.iter().copied())
            .take(157)
            .collect(),
    };
    let prefixes: Vec<Flow> = (1..=wire.len()).map(|k| wire.prefix(k)).collect();
    let lstm: Arc<dyn Censor> = Arc::new(train_censor(
        CensorKind::Lstm,
        &splits.clf_train,
        Layer::Tcp,
        &TrainConfig {
            lstm_epochs: 1,
            ..TrainConfig::fast()
        },
        2,
    ));
    for (name, censor) in [
        ("dt_observe_every_prefix", &dt),
        ("lstm_observe_every_prefix", &lstm),
    ] {
        let factory = ClassifierProgramFactory::new(Arc::clone(censor));
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut prog = factory.spawn();
                let last = prefixes.len() - 1;
                for (k, prefix) in prefixes.iter().enumerate() {
                    std::hint::black_box(prog.observe(prefix, k == last));
                }
            })
        });
    }
}

/// Figure 4 kernel: the 166-feature extractor.
fn bench_fig4_feature_extraction(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let flow = TorGenerator::default().generate(&mut rng);
    c.bench_function("fig4_extract_166_features", |b| {
        b.iter(|| extract_features(&flow, Layer::Tcp))
    });
    c.bench_function("fig4_cumul_features", |b| {
        b.iter(|| cumul_features(&flow, 100))
    });
}

/// Figure 11 kernel: single-step action inference (encoder push + actor
/// forward) — the 0.37 ms quantity of §5.6.1.
fn bench_fig11_action_inference(c: &mut Criterion) {
    let mut cfg = AmoebaConfig::fast();
    cfg.encoder_train_flows = 64;
    cfg.encoder_epochs = 2;
    let (encoder, _) = pretrain_encoder(&cfg);
    let mut rng = StdRng::seed_from_u64(3);
    let learner = PpoLearner::new(&cfg, &mut rng);
    let actor = learner.actor.snapshot();
    c.bench_function("fig11_single_step_inference", |b| {
        let mut x_state = encoder.begin();
        let a_state = encoder.begin();
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            x_state.push(&encoder, [0.4, 0.1]);
            let mut state = x_state.representation().to_vec();
            state.extend_from_slice(a_state.representation());
            actor.sample(&state, &mut rng)
        })
    });
}

/// Figure 13 kernel: encoding a 60-packet flow.
fn bench_fig13_encoder(c: &mut Criterion) {
    let mut cfg = AmoebaConfig::fast();
    cfg.encoder_train_flows = 64;
    cfg.encoder_epochs = 2;
    let mut rng = StdRng::seed_from_u64(5);
    let enc = StateEncoder::new(cfg.encoder_hidden, cfg.encoder_layers, &mut rng);
    let snap = enc.snapshot();
    let flows = synthetic_flows(1, 60, &mut rng);
    c.bench_function("fig13_encode_60_packets", |b| {
        b.iter(|| snap.encode(&flows[0]))
    });
}

/// Rollout-collection kernel: one PPO window across 1 vs N OS threads
/// (the tentpole speedup — each worker owns its env, the snapshots are
/// `Arc`-shared, and the merged batch is bit-identical either way).
fn bench_parallel_rollouts(c: &mut Criterion) {
    let mut cfg = AmoebaConfig::fast();
    cfg.encoder_hidden = 32;
    cfg.actor_hidden = vec![64, 32];
    cfg.n_envs = 8;
    let mut rng = StdRng::seed_from_u64(12);
    let encoder = StateEncoder::new(cfg.encoder_hidden, cfg.encoder_layers, &mut rng).snapshot();
    let learner = PpoLearner::new(&cfg, &mut rng);
    let policy = PolicySnapshots::new(
        encoder.clone(),
        learner.actor.snapshot(),
        learner.critic.snapshot(),
    );
    let censor: std::sync::Arc<dyn Censor> = std::sync::Arc::new(ConstantCensor {
        fixed_score: 0.3,
        as_kind: CensorKind::Dt,
    });
    let flows = std::sync::Arc::new(vec![
        Flow::from_pairs(&[(600, 0.0), (-1200, 3.0), (500, 1.0), (-900, 0.5)]),
        Flow::from_pairs(&[(300, 0.0), (-800, 2.0), (700, 1.5)]),
    ]);
    let make_workers = |cfg: &AmoebaConfig| -> Vec<Worker> {
        (0..cfg.n_envs)
            .map(|i| {
                Worker::new(
                    std::sync::Arc::clone(&censor),
                    Layer::Tcp,
                    EnvConfig::from(cfg),
                    &encoder,
                    i as u64,
                )
            })
            .collect()
    };
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize, 2, 4];
    if hw > 4 {
        thread_counts.push(hw);
    }
    for threads in thread_counts {
        let mut workers = make_workers(&cfg);
        c.bench_function(&format!("rollout_64_steps_8_envs_{threads}_threads"), |b| {
            b.iter(|| collect_rollouts_threaded(&mut workers, 64, &policy, &flows, threads))
        });
    }
}

/// Figures 7–9 kernel: one PPO update over a synthetic batch.
fn bench_fig7_ppo_update(c: &mut Criterion) {
    let mut cfg = AmoebaConfig::fast();
    cfg.minibatches = 4;
    cfg.update_epochs = 1;
    let mut rng = StdRng::seed_from_u64(6);
    let mut learner = PpoLearner::new(&cfg, &mut rng);
    let dim = cfg.state_dim();
    let traj = Trajectory {
        states: (0..256)
            .map(|i| vec![(i % 13) as f32 / 13.0; dim])
            .collect(),
        actions: vec![[0.1, 0.2]; 256],
        logps: vec![-1.0; 256],
        rewards: vec![0.5; 256],
        values: vec![0.2; 256],
        dones: (0..256).map(|i| i % 32 == 31).collect(),
        bootstrap: 0.0,
        episodes: vec![],
        queries: 0,
    };
    let batch = Batch::from_trajectories(&[traj], &cfg);
    c.bench_function("fig7_ppo_update_256_steps", |b| {
        b.iter(|| learner.update(&batch, &mut rng))
    });
}

/// Algorithm 2 kernel: one StateEncoder pretraining minibatch at the
/// ledger's training shape (batch 32, `H` = 64, two GRU layers, flows of
/// up to 60 steps truncated to the length the seed draws), forward and
/// backward through the autograd tape plus one Adam step. The ledger's
/// `train.pretrain_s` runs eight of these (32 flows × 8 epochs), so this
/// bench prices the tape's share of it.
fn bench_encoder_pretrain(c: &mut Criterion) {
    let mut cfg = AmoebaConfig::fast();
    cfg.encoder_train_flows = cfg.encoder_batch;
    cfg.encoder_epochs = 1;
    cfg.seed = 42;
    let name = format!(
        "encoder_pretrain_b{}_h{}",
        cfg.encoder_batch, cfg.encoder_hidden
    );
    c.bench_function(&name, |b| {
        b.iter_batched(
            || {
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                StateEncoder::new(cfg.encoder_hidden, cfg.encoder_layers, &mut rng)
            },
            |mut encoder| encoder.pretrain(&cfg),
            BatchSize::SmallInput,
        )
    });
}

/// Table 2 kernel: embedding a flow into a stored profile database.
fn bench_table2_profile_embed(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let gen = TorGenerator::default();
    let profiles: Vec<_> = (0..16).map(|_| gen.generate(&mut rng)).collect();
    let store = ProfileStore::from_flows(profiles.iter());
    let flow = gen.generate(&mut rng);
    c.bench_function("table2_profile_embed", |b| {
        b.iter(|| store.embed(&flow, 60.0, 0))
    });
    c.bench_function("table2_profile_codec_roundtrip", |b| {
        b.iter(|| ProfileStore::deserialize(&store.serialize()).expect("roundtrip"))
    });
}

/// Deployment kernel: framing throughput of the shaper (§5.6.1).
fn bench_shaper(c: &mut Criterion) {
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    c.bench_function("shaper_frame_64k_payload", |b| {
        b.iter_batched(
            || ShapedSender::new(payload.clone()),
            |mut tx| {
                let mut frames = 0;
                while !tx.finished() {
                    let _ = tx.next_frame(1448);
                    frames += 1;
                }
                frames
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("shaper_encode_single_frame", |b| {
        b.iter(|| encode_frame(&payload[..1400], 1448))
    });
}

/// Dataset kernel: flow generation + representation (feeds every figure).
fn bench_traffic_generation(c: &mut Criterion) {
    let gen = TorGenerator::default();
    c.bench_function("traffic_generate_tor_flow", |b| {
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| gen.generate(&mut rng))
    });
    let mut rng = StdRng::seed_from_u64(10);
    let flow = gen.generate(&mut rng);
    let repr = FlowRepr::tcp();
    c.bench_function("traffic_position_major_encode", |b| {
        b.iter(|| repr.to_position_major(&flow))
    });
}

/// Training kernels: the three autograd products at the shapes PPO and
/// StateEncoder pretraining run, each at the detected SIMD level (the
/// register-tiled nest `Matrix` dispatches to) and at
/// `SimdLevel::Scalar` (the reference nest). `fwd` is `x · W`, `dw` the
/// weight gradient `xᵀ · g`, `dx` the input gradient `g · Wᵀ`. The ratio
/// of the two levels is the kernel-side prediction for the ledger's
/// `train.update_s` / `train.pretrain_s` deltas.
fn bench_training_matmuls(c: &mut Criterion) {
    use amoeba_nn::matrix::Matrix;
    use amoeba_nn::simd::{self, SimdLevel};
    let mut rng = StdRng::seed_from_u64(11);
    // (rows, in, out): a PPO minibatch through the 128-wide actor layer,
    // and a pretraining batch through the GRU's 3 × 64 gate projection.
    for (m, k, n) in [(256usize, 128usize, 128usize), (32, 64, 192)] {
        let x = Matrix::randn(m, k, 1.0, &mut rng);
        let w = Matrix::randn(k, n, 0.1, &mut rng);
        let g = Matrix::randn(m, n, 1.0, &mut rng);
        let shape = format!("{m}x{k}x{n}");
        for level in [SimdLevel::detect(), SimdLevel::Scalar] {
            c.bench_function(&format!("train_matmul_fwd_{shape}_{level}"), |b| {
                b.iter(|| {
                    let mut out = vec![0.0f32; m * n];
                    simd::matmul_into(level, x.as_slice(), w.as_slice(), &mut out, m, k, n);
                    out
                })
            });
            c.bench_function(&format!("train_matmul_dw_{shape}_{level}"), |b| {
                b.iter(|| {
                    let mut out = vec![0.0f32; k * n];
                    simd::t_matmul_into(level, x.as_slice(), g.as_slice(), &mut out, k, m, n);
                    out
                })
            });
            c.bench_function(&format!("train_matmul_dx_{shape}_{level}"), |b| {
                b.iter(|| {
                    let mut out = vec![0.0f32; m * k];
                    simd::matmul_t_into(level, g.as_slice(), w.as_slice(), &mut out, m, n, k);
                    out
                })
            });
        }
    }
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets =
        bench_table1_classifier_inference,
        bench_fig4_feature_extraction,
        bench_fig11_action_inference,
        bench_fig13_encoder,
        bench_parallel_rollouts,
        bench_fig7_ppo_update,
        bench_encoder_pretrain,
        bench_table2_profile_embed,
        bench_shaper,
        bench_traffic_generation,
        bench_training_matmuls
}
criterion_main!(kernels);
