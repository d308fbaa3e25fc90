//! Bit-level pin of the training numerics.
//!
//! Runs Algorithm 2 (`pretrain_encoder`) and one PPO iteration of
//! Algorithm 1 at a tiny budget, then folds three things into one FNV-1a
//! hash: the trained encoder's `encode` bits on a fixed probe flow, the
//! trained actor's `head_batch` bits on a fixed probe matrix, and the
//! bits of every loss the run reports. Any change to a gradient bit —
//! an autograd op, a matmul nest, an optimiser step, the order in which
//! backward accumulates — moves the hash, so `cargo test` catches it
//! without the serving smoke run.
//!
//! A change that only moves memory or time (which buffers exist, when
//! they are freed, which kernel computes a product) must leave the hash
//! unchanged. A change that alters the numbers on purpose updates the
//! constant and says why.

use std::sync::Arc;

use amoeba_classifiers::{Censor, CensorKind, ConstantCensor};
use amoeba_core::{pretrain_encoder, train_amoeba_with_encoder, AmoebaConfig};
use amoeba_nn::matrix::Matrix;
use amoeba_traffic::{Flow, Layer};

const TRAINING_PIN: u64 = 0xd571_34d3_8fb4_6bd5;

fn fnv1a(hash: &mut u64, bits: u32) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn tiny_cfg() -> AmoebaConfig {
    AmoebaConfig {
        encoder_hidden: 16,
        encoder_train_flows: 32,
        encoder_epochs: 2,
        encoder_max_len: 12,
        encoder_batch: 8,
        actor_hidden: vec![16, 8],
        n_envs: 2,
        rollout_len: 32,
        // Exactly one rollout-and-update iteration.
        total_timesteps: 64,
        minibatches: 2,
        update_epochs: 2,
        n_rollout_threads: 1,
        seed: 7,
        ..AmoebaConfig::fast()
    }
}

#[test]
fn pretraining_and_one_ppo_iteration_are_bit_pinned() {
    let cfg = tiny_cfg();
    let (encoder, encoder_loss) = pretrain_encoder(&cfg);
    let censor: Arc<dyn Censor> = Arc::new(ConstantCensor {
        fixed_score: 0.1,
        as_kind: CensorKind::Dt,
    });
    let flows = vec![
        Flow::from_pairs(&[(536, 0.0), (-536, 3.0), (-1072, 0.4), (536, 5.0)]),
        Flow::from_pairs(&[(1072, 0.0), (-536, 2.0), (536, 1.5)]),
    ];
    let (agent, report) = train_amoeba_with_encoder(
        censor,
        &flows,
        Layer::Tcp,
        &cfg,
        encoder,
        encoder_loss,
        None,
    );
    assert_eq!(
        report.iterations.len(),
        1,
        "tiny budget must run one iteration"
    );

    let mut hash = 0xcbf2_9ce4_8422_2325u64;

    let probe: Vec<[f32; 2]> = (0..9)
        .map(|i| {
            let i = i as f32;
            [(i * 0.37).sin(), (i * 0.11).fract()]
        })
        .collect();
    for v in agent.encoder().encode(&probe) {
        fnv1a(&mut hash, v.to_bits());
    }

    let state_dim = cfg.state_dim();
    let states = Matrix::from_vec(
        3,
        state_dim,
        (0..3 * state_dim)
            .map(|i| ((i as f32) * 0.173).cos() * 0.8)
            .collect(),
    );
    let (mean, logstd) = agent.actor().head_batch(&states);
    for v in mean.as_slice().iter().chain(logstd.as_slice()) {
        fnv1a(&mut hash, v.to_bits());
    }

    fnv1a(&mut hash, report.encoder_loss.to_bits());
    for it in &report.iterations {
        for v in [it.policy_loss, it.value_loss, it.entropy, it.mean_reward] {
            fnv1a(&mut hash, v.to_bits());
        }
    }

    assert_eq!(
        hash, TRAINING_PIN,
        "training numerics moved: got {hash:#018x}"
    );
}
