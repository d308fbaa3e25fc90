//! Serving benches: the batched inference fast path against the per-flow
//! path, at both the raw-network level (fused `forward_batch` vs mapped
//! `forward`) and the end-to-end dataplane level (batch 64 vs batch 1,
//! and 1/2/4 shards, on the same workload) — plus a 6-tenant engine run
//! to size multi-tenant packing against the 1-tenant batch-64 row.
//!
//! The kernel bench sizes the serving products: `simd::matmul_into` at
//! the GRU gate shapes the `cpu` backend runs, at the detected SIMD level
//! (the register-tiled nest `Matrix::matmul` dispatches to) and at
//! `SimdLevel::Scalar` (the reference nest). `2·m·k·n` flops over the
//! median time is the kernel-side figure for the layer ledger's
//! `backend.gflop_per_s`; a large gap between the two is a finding
//! (gate blend, gather/scatter and allocation around the products).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use amoeba_classifiers::{Censor, CensorKind, ConstantCensor};
use amoeba_core::encoder::StateEncoder;
use amoeba_core::policy::Actor;
use amoeba_core::AmoebaConfig;
use amoeba_nn::layers::{Activation, Mlp};
use amoeba_nn::matrix::Matrix;
use amoeba_nn::simd::{self, SimdLevel};
use amoeba_nn::Forward;
use amoeba_serve::{FrozenPolicy, ServeConfig, ServeEngine};
use amoeba_traffic::{Flow, Layer};

fn policy() -> FrozenPolicy {
    let mut rng = StdRng::seed_from_u64(7);
    let encoder = StateEncoder::new(32, 2, &mut rng);
    let cfg = AmoebaConfig {
        encoder_hidden: 32,
        actor_hidden: vec![64, 32],
        ..AmoebaConfig::fast()
    };
    let actor = Actor::new(&cfg, &mut rng);
    FrozenPolicy::new(encoder.snapshot(), actor.snapshot())
}

/// A one-tenant engine serving `flows` under [`policy`] and `censor`.
fn one_tenant(cfg: ServeConfig, censor: &Arc<dyn Censor>, flows: &[Flow]) -> ServeEngine {
    let mut engine = ServeEngine::new(cfg);
    let p = engine.register_policy(policy());
    let c = engine.register_censor(Arc::clone(censor));
    engine.admit_all(flows.iter(), p, c);
    engine
}

fn workload(n: usize) -> Vec<Flow> {
    let mut rng = StdRng::seed_from_u64(3);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(3..7usize);
            Flow::from_pairs(
                &(0..len)
                    .map(|i| {
                        let size = rng.gen_range(80..1400i32);
                        let sign = if rng.gen_bool(0.5) { 1 } else { -1 };
                        (
                            sign * size,
                            if i == 0 { 0.0 } else { rng.gen_range(0.0..4.0) },
                        )
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// The `amoeba-nn` fast path in isolation: one fused pass over 256
/// single-row states vs 256 individual forwards of the same MLP.
fn bench_forward_batch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mlp = Mlp::new(
        &[64, 128, 64, 4],
        Activation::Tanh,
        Activation::Identity,
        &mut rng,
    )
    .snapshot();
    let states: Vec<Matrix> = (0..256)
        .map(|_| Matrix::randn(1, 64, 1.0, &mut rng))
        .collect();
    c.bench_function("serve_mlp_forward_per_flow_256", |b| {
        b.iter(|| {
            states
                .iter()
                .map(|x| mlp.forward(x))
                .collect::<Vec<Matrix>>()
        })
    });
    c.bench_function("serve_mlp_forward_batch_fused_256", |b| {
        b.iter(|| mlp.forward_batch(&states))
    });
}

/// End-to-end dataplane throughput on the same 200-flow workload:
/// per-flow inference (batch 1) vs the batched scheduler (batch 64).
fn bench_dataplane_batching(c: &mut Criterion) {
    let flows = workload(200);
    let censor: Arc<dyn Censor> = Arc::new(ConstantCensor {
        fixed_score: 0.1,
        as_kind: CensorKind::Dt,
    });
    for batch in [1usize, 64] {
        let name = format!("dataplane_200flows_batch{batch}");
        c.bench_function(&name, |b| {
            b.iter_batched(
                || {
                    one_tenant(
                        ServeConfig::builder(Layer::Tcp)
                            .seed(5)
                            .batch(batch)
                            .build(),
                        &censor,
                        &flows,
                    )
                },
                |engine| engine.run(),
                BatchSize::LargeInput,
            )
        });
    }
}

/// End-to-end shard scaling on a 400-flow workload at batch 64: the same
/// sessions partitioned across 1, 2 and 4 worker threads (wire output is
/// shard-count-invariant, so only wall clock changes).
fn bench_dataplane_sharding(c: &mut Criterion) {
    let flows = workload(400);
    let censor: Arc<dyn Censor> = Arc::new(ConstantCensor {
        fixed_score: 0.1,
        as_kind: CensorKind::Dt,
    });
    for shards in [1usize, 2, 4] {
        let name = format!("dataplane_400flows_shards{shards}");
        c.bench_function(&name, |b| {
            b.iter_batched(
                || {
                    one_tenant(
                        ServeConfig::builder(Layer::Tcp)
                            .seed(5)
                            .batch(64)
                            .shards(shards)
                            .build(),
                        &censor,
                        &flows,
                    )
                },
                |engine| engine.run(),
                BatchSize::LargeInput,
            )
        });
    }
}

/// Sizes the scheduler's stealing knob on the 400-flow workload at batch
/// 64 and 4 shards (the idle-core fill win). Wire output is
/// knob-invariant, so rows differ only in wall clock.
fn bench_scheduler_knobs(c: &mut Criterion) {
    let flows = workload(400);
    let censor: Arc<dyn Censor> = Arc::new(ConstantCensor {
        fixed_score: 0.1,
        as_kind: CensorKind::Dt,
    });
    let cases = [
        ("dataplane_400flows_shards4_steal_off", false),
        ("dataplane_400flows_shards4_steal_on", true),
    ];
    for (name, steal) in cases {
        c.bench_function(name, |b| {
            b.iter_batched(
                || {
                    one_tenant(
                        ServeConfig::builder(Layer::Tcp)
                            .seed(5)
                            .batch(64)
                            .shards(4)
                            .steal(steal)
                            .build(),
                        &censor,
                        &flows,
                    )
                },
                |engine| engine.run(),
                BatchSize::LargeInput,
            )
        });
    }
}

/// Multi-tenant packing: the same 200 flows spread across 2 policies ×
/// 3 censors in one engine run — one dataplane pass instead of six,
/// against the one-tenant `dataplane_200flows_batch64` row.
fn bench_engine_multi_tenant(c: &mut Criterion) {
    let flows = workload(200);
    let censors: Vec<Arc<dyn Censor>> = [0.1f32, 0.4, 0.9]
        .iter()
        .map(|&s| {
            Arc::new(ConstantCensor {
                fixed_score: s,
                as_kind: CensorKind::Dt,
            }) as Arc<dyn Censor>
        })
        .collect();
    let mk_policy = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let encoder = StateEncoder::new(32, 2, &mut rng);
        let cfg = AmoebaConfig {
            encoder_hidden: 32,
            actor_hidden: vec![64, 32],
            ..AmoebaConfig::fast()
        };
        let actor = Actor::new(&cfg, &mut rng);
        FrozenPolicy::new(encoder.snapshot(), actor.snapshot())
    };
    c.bench_function("engine_6tenants_200flows_batch64", |b| {
        b.iter_batched(
            || {
                let mut engine =
                    ServeEngine::new(ServeConfig::builder(Layer::Tcp).seed(5).batch(64).build());
                let pids: Vec<_> = [7u64, 19]
                    .iter()
                    .map(|&s| engine.register_policy(mk_policy(s)))
                    .collect();
                let cids: Vec<_> = censors
                    .iter()
                    .map(|c| engine.register_censor(Arc::clone(c)))
                    .collect();
                for (i, f) in flows.iter().enumerate() {
                    engine
                        .admit(f)
                        .policy(pids[i % 2])
                        .censor(cids[i % 3])
                        .submit();
                }
                engine
            },
            |engine| engine.run(),
            BatchSize::LargeInput,
        )
    });
}

/// The serving products at the detected level and at the scalar
/// reference: a gate projection `(B, 64) · (64, 192)` of the 64-wide
/// encoder GRU, at a partial batch of 24 rows and a full batch of 64.
/// Both levels are bit-identical by construction, so the ratio is pure
/// throughput.
fn bench_matmul_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    for (m, k, n) in [(24usize, 64usize, 192usize), (64, 64, 192)] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        for level in [SimdLevel::detect(), SimdLevel::Scalar] {
            c.bench_function(&format!("serve_matmul_{m}x{k}x{n}_{level}"), |bench| {
                bench.iter(|| {
                    let mut out = vec![0.0f32; m * n];
                    simd::matmul_into(level, a.as_slice(), b.as_slice(), &mut out, m, k, n);
                    out
                })
            });
        }
    }
}

criterion_group!(
    benches,
    bench_forward_batch,
    bench_matmul_kernels,
    bench_dataplane_batching,
    bench_dataplane_sharding,
    bench_scheduler_knobs,
    bench_engine_multi_tenant
);
criterion_main!(benches);
