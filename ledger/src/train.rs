//! Training, timed from outside: the same public loop that
//! `amoeba_core::train_amoeba_with_encoder_program` runs (with no
//! periodic evaluation), with a clock around each call into the layer.
//! The loop must stay in step with the library's: every traced run
//! checks that it yields an actor bit-identical to the library's.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use amoeba_classifiers::{Censor, CensorProgramFactory};
use amoeba_core::policy::ActorSnapshot;
use amoeba_core::{
    collect_rollouts_threaded, pretrain_encoder, train_amoeba_with_encoder, AmoebaConfig, Batch,
    EncoderSnapshot, EnvConfig, PolicySnapshots, PpoLearner, Trajectory, Worker,
};
use amoeba_nn::matrix::Matrix;
use amoeba_traffic::{Flow, Layer};

/// Per-phase wall time and work counts of one traced training run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainTrace {
    /// `pretrain_encoder` (StateEncoder, Algorithm 2).
    pub pretrain_s: f64,
    /// `Worker::with_program` plus every `collect_rollouts_threaded`.
    pub rollout_s: f64,
    /// Every `Batch::from_trajectories` (GAE and batch assembly).
    pub gae_s: f64,
    /// Every `PpoLearner::update`.
    pub update_s: f64,
    /// The whole run.
    pub total_s: f64,
    /// Environment steps collected.
    pub env_steps: u64,
    /// Censor queries made by the environments.
    pub censor_queries: u64,
    /// PPO iterations run.
    pub iterations: u64,
    /// Iterations whose update reported a non-finite loss or entropy.
    pub nonfinite_iterations: u64,
}

impl TrainTrace {
    /// Wall time not covered by the timed calls.
    pub fn unattributed_s(&self) -> f64 {
        self.total_s - (self.pretrain_s + self.rollout_s + self.gae_s + self.update_s)
    }
}

/// A trained policy: the frozen encoder and actor.
pub struct Trained {
    /// Frozen StateEncoder.
    pub encoder: EncoderSnapshot,
    /// Frozen actor.
    pub actor: ActorSnapshot,
    /// Wall time of pretraining plus PPO.
    pub seconds: f64,
    /// PPO iterations run.
    pub iterations: u64,
    /// Iterations with a non-finite loss or entropy (plus one if the
    /// encoder's reconstruction loss was not finite).
    pub nonfinite: u64,
}

fn finite(xs: &[f32]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

/// Trains through the library entry points, untimed inside.
pub fn train_library(
    censor: &Arc<dyn Censor>,
    flows: &[Flow],
    layer: Layer,
    cfg: &AmoebaConfig,
) -> Trained {
    let start = Instant::now();
    let (encoder, loss) = pretrain_encoder(cfg);
    let (agent, report) =
        train_amoeba_with_encoder(Arc::clone(censor), flows, layer, cfg, encoder, loss, None);
    let seconds = start.elapsed().as_secs_f64();
    let bad = report
        .iterations
        .iter()
        .filter(|it| !finite(&[it.policy_loss, it.value_loss, it.entropy]))
        .count() as u64;
    Trained {
        encoder: agent.encoder().clone(),
        actor: agent.actor().clone(),
        seconds,
        iterations: report.iterations.len() as u64,
        nonfinite: bad + u64::from(!loss.is_finite()),
    }
}

/// Trains through the same loop as the library, timing each call.
pub fn train_traced(
    factory: &Arc<dyn CensorProgramFactory>,
    flows: &[Flow],
    layer: Layer,
    cfg: &AmoebaConfig,
) -> (Trained, TrainTrace) {
    let mut t = TrainTrace::default();
    let start = Instant::now();

    let clock = Instant::now();
    let (encoder, loss) = pretrain_encoder(cfg);
    t.pretrain_s = clock.elapsed().as_secs_f64();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut learner = PpoLearner::new(cfg, &mut rng);
    let clock = Instant::now();
    let mut workers: Vec<Worker> = (0..cfg.n_envs.max(1))
        .map(|i| {
            Worker::with_program(
                Arc::clone(factory),
                layer,
                EnvConfig::from(cfg),
                &encoder,
                cfg.seed.wrapping_add(i as u64 + 1),
            )
        })
        .collect();
    t.rollout_s += clock.elapsed().as_secs_f64();
    let flows = Arc::new(flows.to_vec());
    let shared_encoder = Arc::new(encoder.clone());
    let threads = cfg.rollout_threads();
    let steps_per_iter = cfg.n_envs.max(1) * cfg.rollout_len;
    let iterations = cfg.total_timesteps.div_ceil(steps_per_iter).max(1);

    for _ in 0..iterations {
        let policy = PolicySnapshots::from_shared(
            Arc::clone(&shared_encoder),
            Arc::new(learner.actor.snapshot()),
            Arc::new(learner.critic.snapshot()),
        );
        let clock = Instant::now();
        let trajs =
            collect_rollouts_threaded(&mut workers, cfg.rollout_len, &policy, &flows, threads);
        t.rollout_s += clock.elapsed().as_secs_f64();
        t.env_steps += trajs.iter().map(Trajectory::len).sum::<usize>() as u64;
        t.censor_queries += trajs.iter().map(|tr| tr.queries).sum::<usize>() as u64;

        let clock = Instant::now();
        let batch = Batch::from_trajectories(&trajs, cfg);
        t.gae_s += clock.elapsed().as_secs_f64();

        let clock = Instant::now();
        let stats = learner.update(&batch, &mut rng);
        t.update_s += clock.elapsed().as_secs_f64();

        t.iterations += 1;
        if !finite(&[stats.policy_loss, stats.value_loss, stats.entropy]) {
            t.nonfinite_iterations += 1;
        }
    }
    t.total_s = start.elapsed().as_secs_f64();
    let trained = Trained {
        encoder,
        actor: learner.actor.snapshot(),
        seconds: t.total_s,
        iterations: t.iterations,
        nonfinite: t.nonfinite_iterations + u64::from(!loss.is_finite()),
    };
    (trained, t)
}

/// A fixed probe matrix of `2H`-wide states for comparing actors.
pub fn probe_states(cfg: &AmoebaConfig) -> Matrix {
    let mut rng = StdRng::seed_from_u64(0x1ed9e5);
    Matrix::randn(32, cfg.state_dim(), 1.0, &mut rng)
}

/// Whether two trained policies are bit-identical: equal actor heads on
/// the probe states and equal encodings of a fixed observation sequence.
pub fn same_policy(a: &Trained, b: &Trained, probe: &Matrix) -> bool {
    let bits = |m: &Matrix| -> Vec<u32> {
        (0..m.rows())
            .flat_map(|r| m.row(r).iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            .collect()
    };
    let (am, al) = a.actor.head_batch(probe);
    let (bm, bl) = b.actor.head_batch(probe);
    let steps: Vec<[f32; 2]> = (0..16)
        .map(|i| [(i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()])
        .collect();
    let ea: Vec<u32> = a
        .encoder
        .encode(&steps)
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let eb: Vec<u32> = b
        .encoder
        .encode(&steps)
        .iter()
        .map(|x| x.to_bits())
        .collect();
    bits(&am) == bits(&bm) && bits(&al) == bits(&bl) && ea == eb
}
