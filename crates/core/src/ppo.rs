//! PPO optimisation (Algorithm 1, §4.4, §A.1): parallel rollout
//! collection, generalised advantage estimation, and the clipped surrogate
//! update with entropy bonus.
//!
//! Rollout collection fans the environment workers across
//! `std::thread::scope` threads that share the frozen
//! encoder/actor/critic snapshots (and, inside each worker's environment,
//! the censor-program factory) via `Arc` — see [`PolicySnapshots`] and
//! [`collect_rollouts_threaded`]. Each thread steps its contiguous chunk
//! of workers in lockstep through the batched calls serving uses
//! ([`EncoderSnapshot::push_batch`], [`ActorSnapshot::head_batch`],
//! [`CriticSnapshot::value_batch`]), one call per step for the whole
//! chunk. Each worker owns its RNG and environment state, every batched
//! call is row-independent, and trajectories are merged back by worker
//! index, so for a fixed seed the collected batch is bit-identical
//! regardless of how many threads execute it.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use amoeba_classifiers::{Censor, CensorProgramFactory, ClassifierProgramFactory};
use amoeba_nn::matrix::Matrix;
use amoeba_nn::optim::{clip_grad_norm, Adam, AdamState, Optimizer};
use amoeba_nn::tensor::Tensor;
use amoeba_traffic::{Flow, Layer};

use crate::config::AmoebaConfig;
use crate::encoder::{EncoderSnapshot, EncoderState};
use crate::env::{Action, CensorEnv, EnvConfig, EpisodeStats};
use crate::policy::{Actor, ActorSnapshot, Critic, CriticSnapshot, ACTION_DIM};

/// One environment-worker's trajectory for a single rollout window.
#[derive(Debug, Default)]
pub struct Trajectory {
    /// Encoded states `s_t` (each `state_dim` long).
    pub states: Vec<Vec<f32>>,
    /// Raw sampled actions.
    pub actions: Vec<[f32; ACTION_DIM]>,
    /// Behaviour-policy log-probs.
    pub logps: Vec<f32>,
    /// Rewards.
    pub rewards: Vec<f32>,
    /// Critic values `V(s_t)` at collection time.
    pub values: Vec<f32>,
    /// Episode-termination flags (true = `s_{t+1}` starts a new episode).
    pub dones: Vec<bool>,
    /// `V(s_{T+1})` when the window ended mid-episode (0 if terminal).
    pub bootstrap: f32,
    /// Episodes completed inside this window.
    pub episodes: Vec<EpisodeStats>,
    /// Censor queries issued in this window.
    pub queries: usize,
}

impl Trajectory {
    /// Number of collected steps.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no steps were collected.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// A persistent rollout worker: one environment plus its incremental
/// encoder states.
pub struct Worker {
    env: CensorEnv,
    x_state: EncoderState,
    a_state: EncoderState,
    rng: StdRng,
    needs_reset: bool,
}

impl Worker {
    /// Builds a worker around a shared one-shot censor (the degenerate
    /// [`ClassifierProgramFactory`] adapter).
    pub fn new(
        censor: Arc<dyn Censor>,
        layer: Layer,
        env_cfg: EnvConfig,
        encoder: &EncoderSnapshot,
        seed: u64,
    ) -> Self {
        Self::with_program(
            Arc::new(ClassifierProgramFactory::new(censor)),
            layer,
            env_cfg,
            encoder,
            seed,
        )
    }

    /// Builds a worker around a shared censor-program factory; each
    /// episode spawns a fresh per-session program.
    pub fn with_program(
        factory: Arc<dyn CensorProgramFactory>,
        layer: Layer,
        env_cfg: EnvConfig,
        encoder: &EncoderSnapshot,
        seed: u64,
    ) -> Self {
        Self {
            env: CensorEnv::with_program(factory, layer, env_cfg, StdRng::seed_from_u64(seed)),
            x_state: encoder.begin(),
            a_state: encoder.begin(),
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B9).wrapping_add(1)),
            needs_reset: true,
        }
    }

    /// Starts a new episode on a randomly drawn training flow. The
    /// caller resets the worker's encoder states.
    fn reset(&mut self, flows: &[Flow]) {
        let idx = self.rng.gen_range(0..flows.len());
        self.env.reset(&flows[idx]);
        self.needs_reset = false;
    }
}

/// Writes row `i` of the `(B, 2H)` state matrix: `E(x_{1:t}) ‖
/// E(a_{1:t-1})` of worker `i`.
fn fill_states(states: &mut Matrix, xs: &[EncoderState], acts: &[EncoderState]) {
    for (i, (x, a)) in xs.iter().zip(acts).enumerate() {
        let (sx, sa) = states.row_mut(i).split_at_mut(x.hidden_size());
        sx.copy_from_slice(x.representation());
        sa.copy_from_slice(a.representation());
    }
}

/// Collects `steps` environment steps from every worker of a chunk,
/// stepping them in lockstep through the batched policy calls serving
/// uses: per step, one [`EncoderSnapshot::push_batch`] of the
/// observations, one [`ActorSnapshot::head_batch`] and one
/// [`CriticSnapshot::value_batch`] over the `(B, 2H)` states, a sample
/// from each worker's own RNG, the environment steps in worker order and
/// one `push_batch` of the emitted packets.
///
/// Each batched call is row-independent, and each worker draws from its
/// RNG in the order a worker stepping alone would (the reset draw, then
/// the Gaussian draws), so every trajectory is bit-identical to stepping
/// the worker by itself with batch-1 calls, whatever the chunk holds.
fn rollout_chunk(
    workers: &mut [Worker],
    steps: usize,
    policy: &PolicySnapshots,
    flows: &[Flow],
) -> Vec<Trajectory> {
    if workers.is_empty() {
        return Vec::new();
    }
    assert!(
        !flows.is_empty(),
        "rollout requires at least one training flow"
    );
    let (encoder, actor, critic) = (&*policy.encoder, &*policy.actor, &*policy.critic);
    let b = workers.len();
    let rows: Vec<usize> = (0..b).collect();
    let (mut xs, mut acts): (Vec<EncoderState>, Vec<EncoderState>) = workers
        .iter_mut()
        .map(|w| (w.x_state.take(), w.a_state.take()))
        .unzip();
    let mut trajs: Vec<Trajectory> = (0..b).map(|_| Trajectory::default()).collect();
    let mut packets = Matrix::zeros(b, 2);
    let mut states = Matrix::zeros(b, 2 * encoder.hidden_size());
    for _ in 0..steps {
        // Feed each fresh observation into E(x_{1:t}).
        for (i, w) in workers.iter_mut().enumerate() {
            if w.needs_reset {
                w.reset(flows);
                xs[i] = encoder.begin();
                acts[i] = encoder.begin();
            }
            let obs = w
                .env
                .observe_normalized()
                .expect("non-finished episode has an observation");
            packets.row_mut(i).copy_from_slice(&obs);
        }
        encoder.push_batch(&mut xs, &rows, &packets);

        fill_states(&mut states, &xs, &acts);
        let (means, logstds) = actor.head_batch(&states);
        let values = critic.value_batch(&states);
        for (i, (w, traj)) in workers.iter_mut().zip(&mut trajs).enumerate() {
            let (raw_action, logp) =
                ActorSnapshot::sample_from_head(means.row(i), logstds.row(i), &mut w.rng);
            let out = w.env.step(Action::clamped(raw_action[0], raw_action[1]));
            if out.queried {
                traj.queries += 1;
            }
            packets
                .row_mut(i)
                .copy_from_slice(&w.env.normalize_packet(&out.emitted));

            traj.states.push(states.row(i).to_vec());
            traj.actions.push(raw_action);
            traj.logps.push(logp);
            traj.rewards.push(out.reward);
            traj.values.push(values[i]);
            traj.dones.push(out.done);

            if out.done {
                traj.episodes.push(w.env.stats().clone());
                w.needs_reset = true;
            }
        }
        // Feed each emitted adversarial packet into E(a_{1:t}).
        encoder.push_batch(&mut acts, &rows, &packets);
    }
    // Bootstrap value for a window that ended mid-episode: the next
    // observation has not been consumed yet, so the critic sees the state
    // as of the last emitted packet.
    fill_states(&mut states, &xs, &acts);
    let values = critic.value_batch(&states);
    for (i, ((w, traj), (x, a))) in workers
        .iter_mut()
        .zip(&mut trajs)
        .zip(xs.into_iter().zip(acts))
        .enumerate()
    {
        traj.bootstrap = if w.needs_reset { 0.0 } else { values[i] };
        w.x_state = x;
        w.a_state = a;
    }
    trajs
}

/// Generalised advantage estimation (§A.1) over one trajectory.
/// Returns `(advantages, returns)` with `R_t = Â_t + V(s_t)`.
pub fn gae(traj: &Trajectory, gamma: f32, lambda: f32) -> (Vec<f32>, Vec<f32>) {
    let n = traj.len();
    let mut adv = vec![0.0f32; n];
    let mut next_adv = 0.0f32;
    let mut next_value = traj.bootstrap;
    for t in (0..n).rev() {
        let not_done = if traj.dones[t] { 0.0 } else { 1.0 };
        let delta = traj.rewards[t] + gamma * next_value * not_done - traj.values[t];
        next_adv = delta + gamma * lambda * not_done * next_adv;
        adv[t] = next_adv;
        next_value = traj.values[t];
    }
    let ret: Vec<f32> = adv.iter().zip(&traj.values).map(|(a, v)| a + v).collect();
    (adv, ret)
}

/// Flattened, shuffled training batch assembled from all workers.
pub struct Batch {
    /// States `(N·T, state_dim)`.
    pub states: Matrix,
    /// Actions `(N·T, 2)`.
    pub actions: Matrix,
    /// Behaviour log-probs `(N·T, 1)`.
    pub logps: Vec<f32>,
    /// Advantages `(N·T)`.
    pub advantages: Vec<f32>,
    /// Returns `(N·T)`.
    pub returns: Vec<f32>,
}

impl Batch {
    /// Builds a batch from trajectories, computing GAE per trajectory.
    pub fn from_trajectories(trajs: &[Trajectory], cfg: &AmoebaConfig) -> Batch {
        let total: usize = trajs.iter().map(Trajectory::len).sum();
        assert!(total > 0, "empty rollout");
        let state_dim = trajs
            .iter()
            .find(|t| !t.is_empty())
            .map(|t| t.states[0].len())
            .expect("nonempty");
        let mut states = Matrix::zeros(total, state_dim);
        let mut actions = Matrix::zeros(total, ACTION_DIM);
        let mut logps = Vec::with_capacity(total);
        let mut advantages = Vec::with_capacity(total);
        let mut returns = Vec::with_capacity(total);
        let mut row = 0;
        for traj in trajs {
            let (adv, ret) = gae(traj, cfg.gamma, cfg.gae_lambda);
            for t in 0..traj.len() {
                states.row_mut(row).copy_from_slice(&traj.states[t]);
                actions.row_mut(row).copy_from_slice(&traj.actions[t]);
                logps.push(traj.logps[t]);
                advantages.push(adv[t]);
                returns.push(ret[t]);
                row += 1;
            }
        }
        if cfg.normalize_advantage && total > 1 {
            let mean: f32 = advantages.iter().sum::<f32>() / total as f32;
            let var: f32 = advantages
                .iter()
                .map(|a| (a - mean) * (a - mean))
                .sum::<f32>()
                / total as f32;
            let std = var.sqrt().max(1e-6);
            for a in &mut advantages {
                *a = (*a - mean) / std;
            }
        }
        Batch {
            states,
            actions,
            logps,
            advantages,
            returns,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.logps.len()
    }

    /// True when the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.logps.is_empty()
    }
}

/// PPO optimiser state: actor/critic networks and their Adam instances.
pub struct PpoLearner {
    /// Actor network.
    pub actor: Actor,
    /// Critic network.
    pub critic: Critic,
    actor_opt: Adam,
    critic_opt: Adam,
    cfg: AmoebaConfig,
}

/// Losses from one PPO update (last minibatch of the last epoch).
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateStats {
    /// Clipped-surrogate policy loss.
    pub policy_loss: f32,
    /// Value MSE loss.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
}

impl PpoLearner {
    /// Builds fresh actor/critic networks.
    pub fn new(cfg: &AmoebaConfig, rng: &mut StdRng) -> Self {
        let actor = Actor::new(cfg, rng);
        let critic = Critic::new(cfg, rng);
        let actor_opt = Adam::new(actor.params(), cfg.lr);
        let critic_opt = Adam::new(critic.params(), cfg.lr);
        Self {
            actor,
            critic,
            actor_opt,
            critic_opt,
            cfg: cfg.clone(),
        }
    }

    /// One full PPO update (Algorithm 1 lines 12-19) over a batch.
    ///
    /// Every epoch's minibatch order is drawn from `rng` up front: the
    /// same draws, in the same order, as shuffling before each epoch.
    /// After that the actor and the critic share only the batch and those
    /// orders, so their epochs run side by side: the critic's on one
    /// scoped thread, the actor's on the caller. The autograd tape is
    /// thread-local, so the thread trains a copy of the critic built from
    /// its weights and Adam's step count and moments (plain matrices,
    /// `Send`), and both are written back when it ends. Each network sees
    /// the same minibatches, runs the same operations in the same order
    /// and carries the same optimiser state across updates as when the
    /// two alternated on one thread, so every weight bit, every
    /// [`UpdateStats`] field and the RNG's next draw are unchanged.
    pub fn update(&mut self, batch: &Batch, rng: &mut StdRng) -> UpdateStats {
        let n = batch.len();
        let mb = (n / self.cfg.minibatches.max(1)).max(1);
        let mut order: Vec<usize> = (0..n).collect();
        let orders: Vec<Vec<usize>> = (0..self.cfg.update_epochs)
            .map(|_| {
                for i in (1..order.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                order.clone()
            })
            .collect();

        let Self {
            actor,
            critic,
            actor_opt,
            critic_opt,
            cfg,
        } = self;
        let (weights, lr, state) = (
            critic.snapshot(),
            critic_opt.learning_rate(),
            critic_opt.state(),
        );
        let (stats, (weights, state, value_loss)) = std::thread::scope(|s| {
            let critic = s.spawn(|| critic_epochs(weights, lr, state, batch, &orders, mb, cfg));
            let stats = actor_epochs(actor, actor_opt, batch, &orders, mb, cfg);
            let critic = critic
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (stats, critic)
        });
        critic.load_snapshot(&weights);
        critic_opt.set_state(state);
        UpdateStats {
            value_loss,
            ..stats
        }
    }
}

/// `v[i]` for each `i` in `rows`, as a `(rows.len(), 1)` column.
fn gather_column(v: &[f32], rows: &[usize]) -> Matrix {
    Matrix::from_vec(rows.len(), 1, rows.iter().map(|&i| v[i]).collect())
}

/// The actor's clipped-surrogate epochs over `orders` in minibatches of
/// `mb`; returns the last minibatch's policy loss and entropy.
fn actor_epochs(
    actor: &Actor,
    opt: &mut Adam,
    batch: &Batch,
    orders: &[Vec<usize>],
    mb: usize,
    cfg: &AmoebaConfig,
) -> UpdateStats {
    let mut stats = UpdateStats::default();
    for chunk in orders.iter().flat_map(|order| order.chunks(mb)) {
        let states = Tensor::constant(batch.states.gather_rows(chunk));
        let actions = batch.actions.gather_rows(chunk);
        let adv = Tensor::constant(gather_column(&batch.advantages, chunk));

        opt.zero_grad();
        let (logp, entropy) = actor.log_prob_entropy(&states, &actions);
        let ratio = logp
            .sub(&Tensor::constant(gather_column(&batch.logps, chunk)))
            .exp();
        let unclipped = ratio.mul(&adv);
        let clipped = ratio
            .clamp(1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
            .mul(&adv);
        let policy_loss = unclipped.minimum(&clipped).mean().neg();
        let entropy_mean = entropy.mean();
        let actor_loss = policy_loss.sub(&entropy_mean.scale(cfg.entropy_coef));
        stats.policy_loss = policy_loss.item();
        stats.entropy = entropy_mean.item();
        actor_loss.backward();
        if cfg.max_grad_norm > 0.0 {
            clip_grad_norm(opt.params(), cfg.max_grad_norm);
        }
        opt.step();
    }
    stats
}

/// The critic's value-regression epochs over `orders` in minibatches of
/// `mb`, on a critic built from `weights` and an Adam at `lr` resumed
/// from `state`, all on the calling thread's tape. Returns the trained
/// weights, Adam's state and the last minibatch's value loss.
fn critic_epochs(
    weights: CriticSnapshot,
    lr: f32,
    state: AdamState,
    batch: &Batch,
    orders: &[Vec<usize>],
    mb: usize,
    cfg: &AmoebaConfig,
) -> (CriticSnapshot, AdamState, f32) {
    let critic = Critic::from_snapshot(weights);
    let mut opt = Adam::new(critic.params(), lr);
    opt.set_state(state);
    let mut value_loss = 0.0;
    for chunk in orders.iter().flat_map(|order| order.chunks(mb)) {
        let states = Tensor::constant(batch.states.gather_rows(chunk));

        opt.zero_grad();
        let loss = critic
            .values(&states)
            .mse_loss(&gather_column(&batch.returns, chunk));
        value_loss = loss.item();
        loss.backward();
        if cfg.max_grad_norm > 0.0 {
            clip_grad_norm(opt.params(), cfg.max_grad_norm);
        }
        opt.step();
    }
    (critic.snapshot(), opt.state(), value_loss)
}

/// The frozen policy state shared (via `Arc`) by every rollout worker
/// thread: encoder, actor and critic snapshots. All three are `Send +
/// Sync` plain-matrix networks behind the `amoeba_nn::Forward` machinery,
/// so one allocation serves any number of threads.
#[derive(Clone)]
pub struct PolicySnapshots {
    /// Frozen StateEncoder.
    pub encoder: Arc<EncoderSnapshot>,
    /// Frozen actor.
    pub actor: Arc<ActorSnapshot>,
    /// Frozen critic.
    pub critic: Arc<CriticSnapshot>,
}

impl PolicySnapshots {
    /// Wraps snapshots for cross-thread sharing.
    pub fn new(encoder: EncoderSnapshot, actor: ActorSnapshot, critic: CriticSnapshot) -> Self {
        Self {
            encoder: Arc::new(encoder),
            actor: Arc::new(actor),
            critic: Arc::new(critic),
        }
    }

    /// Wraps already-shared snapshots without re-allocating the weights.
    ///
    /// This is how one trained policy fans out to any number of consumers
    /// — rollout workers here, and every serving tenant downstream: a
    /// [`crate::AmoebaAgent`] stores its frozen networks behind these
    /// `Arc`s, so freezing it for serving (or registering it with several
    /// censors in a multi-tenant engine) shares the single weight
    /// allocation instead of deep-cloning the matrices.
    pub fn from_shared(
        encoder: Arc<EncoderSnapshot>,
        actor: Arc<ActorSnapshot>,
        critic: Arc<CriticSnapshot>,
    ) -> Self {
        Self {
            encoder,
            actor,
            critic,
        }
    }
}

/// Default worker-thread count for [`collect_rollouts`]: the machine's
/// available parallelism, capped at the worker count.
pub fn default_rollout_threads(n_workers: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(n_workers).max(1)
}

/// Runs all workers for one rollout window on up to
/// [`default_rollout_threads`] OS threads.
pub fn collect_rollouts(
    workers: &mut [Worker],
    steps_per_worker: usize,
    policy: &PolicySnapshots,
    flows: &Arc<Vec<Flow>>,
) -> Vec<Trajectory> {
    let threads = default_rollout_threads(workers.len());
    collect_rollouts_threaded(workers, steps_per_worker, policy, flows, threads)
}

/// Runs all workers for one rollout window across at most
/// `threads.min(workers.len())` scoped OS threads (ceil-sized chunking
/// may need fewer threads, but never a larger maximum chunk).
///
/// Workers are split into contiguous chunks, one chunk per thread; each
/// thread steps its chunk's workers in lockstep through the batched
/// calls of the `Arc`-shared [`PolicySnapshots`] (one encoder push, one
/// actor head and one critic pass per step for the whole chunk; one
/// thread runs every worker as a single chunk). Every batched call is
/// row-independent and every [`Worker`] owns its RNG, environment and
/// encoder states, so the resulting trajectories are **bit-identical for
/// a fixed seed regardless of `threads`**, and equal to stepping each
/// worker alone; the merge order is the worker index, never completion
/// order. A panicking worker thread re-raises its own panic here.
pub fn collect_rollouts_threaded(
    workers: &mut [Worker],
    steps_per_worker: usize,
    policy: &PolicySnapshots,
    flows: &Arc<Vec<Flow>>,
    threads: usize,
) -> Vec<Trajectory> {
    let n = workers.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return rollout_chunk(workers, steps_per_worker, policy, flows);
    }
    // Contiguous chunks keep the merge order equal to the worker order.
    let chunk_len = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .chunks_mut(chunk_len)
            .map(|chunk| scope.spawn(move || rollout_chunk(chunk, steps_per_worker, policy, flows)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::StateEncoder;
    use amoeba_classifiers::{CensorDecision, CensorKind, CensorProgram, ConstantCensor};

    fn tiny_cfg() -> AmoebaConfig {
        AmoebaConfig {
            encoder_hidden: 8,
            actor_hidden: vec![16],
            n_envs: 2,
            rollout_len: 16,
            minibatches: 2,
            update_epochs: 2,
            ..AmoebaConfig::fast()
        }
    }

    fn setup(cfg: &AmoebaConfig, score: f32) -> (EncoderSnapshot, Vec<Worker>, Arc<Vec<Flow>>) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let encoder =
            StateEncoder::new(cfg.encoder_hidden, cfg.encoder_layers, &mut rng).snapshot();
        let censor: Arc<dyn Censor> = Arc::new(ConstantCensor {
            fixed_score: score,
            as_kind: CensorKind::Dt,
        });
        let workers: Vec<Worker> = (0..cfg.n_envs)
            .map(|i| {
                Worker::new(
                    Arc::clone(&censor),
                    Layer::Tcp,
                    EnvConfig::from(cfg),
                    &encoder,
                    i as u64,
                )
            })
            .collect();
        let flows = Arc::new(vec![
            Flow::from_pairs(&[(600, 0.0), (-1200, 3.0), (500, 1.0)]),
            Flow::from_pairs(&[(300, 0.0), (-800, 2.0)]),
        ]);
        (encoder, workers, flows)
    }

    fn snapshots(encoder: &EncoderSnapshot, learner: &PpoLearner) -> PolicySnapshots {
        PolicySnapshots::new(
            encoder.clone(),
            learner.actor.snapshot(),
            learner.critic.snapshot(),
        )
    }

    #[test]
    fn rollout_produces_full_window() {
        let cfg = tiny_cfg();
        let (encoder, mut workers, flows) = setup(&cfg, 0.1);
        let mut rng = StdRng::seed_from_u64(1);
        let learner = PpoLearner::new(&cfg, &mut rng);
        let policy = snapshots(&encoder, &learner);
        let trajs = collect_rollouts(&mut workers, 16, &policy, &flows);
        assert_eq!(trajs.len(), 2);
        for t in &trajs {
            assert_eq!(t.len(), 16);
            assert_eq!(t.states[0].len(), cfg.state_dim());
            assert!(!t.episodes.is_empty(), "16 steps should complete episodes");
            assert!(t.queries > 0);
        }
    }

    /// Asserts two trajectories equal field by field, floats by bits (so
    /// `-0.0` vs `0.0` or NaN payload drift would be caught too).
    fn assert_same_trajectory(a: &Trajectory, b: &Trajectory, what: &str) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let episode = |e: &EpisodeStats| {
            (
                (e.original_payload, e.padding, e.truncations, e.paddings),
                (e.delays, e.queries, e.adv_len, e.success, e.torn),
                bits(&[e.added_delay_ms, e.transmission_ms, e.final_score]),
            )
        };
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (sa, sb) in a.states.iter().zip(&b.states) {
            assert_eq!(bits(sa), bits(sb), "{what}: states");
        }
        for (aa, ab) in a.actions.iter().zip(&b.actions) {
            assert_eq!(bits(aa), bits(ab), "{what}: actions");
        }
        assert_eq!(bits(&a.logps), bits(&b.logps), "{what}: logps");
        assert_eq!(bits(&a.rewards), bits(&b.rewards), "{what}: rewards");
        assert_eq!(bits(&a.values), bits(&b.values), "{what}: values");
        assert_eq!(a.dones, b.dones, "{what}: dones");
        assert_eq!(
            a.bootstrap.to_bits(),
            b.bootstrap.to_bits(),
            "{what}: bootstrap"
        );
        assert_eq!(
            a.episodes.iter().map(episode).collect::<Vec<_>>(),
            b.episodes.iter().map(episode).collect::<Vec<_>>(),
            "{what}: episodes"
        );
        assert_eq!(a.queries, b.queries, "{what}: queries");
    }

    /// The tentpole determinism guarantee: for a fixed seed the merged
    /// trajectories are bit-identical whatever the thread count.
    #[test]
    fn rollouts_are_bit_identical_across_thread_counts() {
        let mut cfg = tiny_cfg();
        cfg.n_envs = 8;
        let mut rng = StdRng::seed_from_u64(9);
        let learner = PpoLearner::new(&cfg, &mut rng);

        let collect = |threads: usize| {
            let (encoder, mut workers, flows) = setup(&cfg, 0.4);
            let policy = snapshots(&encoder, &learner);
            collect_rollouts_threaded(&mut workers, 12, &policy, &flows, threads)
        };

        let reference = collect(1);
        assert_eq!(reference.len(), 8);
        for threads in [2, 4, 8, 64] {
            let trajs = collect(threads);
            assert_eq!(trajs.len(), reference.len(), "{threads} threads");
            for (a, b) in trajs.iter().zip(&reference) {
                assert_same_trajectory(a, b, &format!("{threads} threads"));
            }
        }
    }

    /// One worker's window stepped alone through batch-1 calls: the
    /// per-worker loop rollouts ran before workers stepped in lockstep.
    fn per_worker_rollout(
        w: &mut Worker,
        steps: usize,
        policy: &PolicySnapshots,
        flows: &[Flow],
    ) -> Trajectory {
        let (encoder, actor, critic) = (&*policy.encoder, &*policy.actor, &*policy.critic);
        let state_vec = |w: &Worker| {
            let mut s = w.x_state.representation().to_vec();
            s.extend_from_slice(w.a_state.representation());
            s
        };
        let mut traj = Trajectory::default();
        for _ in 0..steps {
            if w.needs_reset {
                let idx = w.rng.gen_range(0..flows.len());
                w.env.reset(&flows[idx]);
                w.x_state = encoder.begin();
                w.a_state = encoder.begin();
                w.needs_reset = false;
            }
            let obs = w.env.observe_normalized().expect("observation");
            w.x_state.push(encoder, obs);
            let state = state_vec(w);
            let (raw_action, logp) = actor.sample(&state, &mut w.rng);
            let value = critic.value(&state);
            let out = w.env.step(Action::clamped(raw_action[0], raw_action[1]));
            if out.queried {
                traj.queries += 1;
            }
            w.a_state
                .push(encoder, w.env.normalize_packet(&out.emitted));
            traj.states.push(state);
            traj.actions.push(raw_action);
            traj.logps.push(logp);
            traj.rewards.push(out.reward);
            traj.values.push(value);
            traj.dones.push(out.done);
            if out.done {
                traj.episodes.push(w.env.stats().clone());
                w.needs_reset = true;
            }
        }
        traj.bootstrap = if w.needs_reset {
            0.0
        } else {
            critic.value(&state_vec(w))
        };
        traj
    }

    /// Lockstep chunks change no bit: five workers split unevenly over 1,
    /// 2 and 3 threads, over consecutive windows whose episodes end and
    /// reset mid-window, equal each worker stepped alone through batch-1
    /// calls, every field by bits.
    #[test]
    fn lockstep_rollouts_match_the_per_worker_loop() {
        let cfg = AmoebaConfig {
            n_envs: 5,
            ..tiny_cfg()
        };
        let mut rng = StdRng::seed_from_u64(13);
        let learner = PpoLearner::new(&cfg, &mut rng);
        let (mut mid_episode, mut at_episode_end, mut mid_window_resets) = (0, 0, 0);
        for threads in [1, 2, 3] {
            let (encoder, mut workers, flows) = setup(&cfg, 0.4);
            let (_, mut reference, _) = setup(&cfg, 0.4);
            let policy = snapshots(&encoder, &learner);
            for window in 0..4 {
                let got = collect_rollouts_threaded(&mut workers, 7, &policy, &flows, threads);
                assert_eq!(got.len(), 5);
                for (i, (a, w)) in got.iter().zip(&mut reference).enumerate() {
                    let b = per_worker_rollout(w, 7, &policy, &flows);
                    mid_window_resets += b.dones[..b.len() - 1].iter().filter(|&&d| d).count();
                    if w.needs_reset {
                        at_episode_end += 1;
                    } else {
                        mid_episode += 1;
                    }
                    let what = format!("{threads} threads, window {window}, worker {i}");
                    assert_same_trajectory(a, &b, &what);
                }
            }
        }
        assert!(mid_window_resets > 0, "no episode reset inside a window");
        assert!(
            mid_episode > 0 && at_episode_end > 0,
            "bootstrap branches: {mid_episode} mid-episode, {at_episode_end} at an episode end"
        );
    }

    /// A censor program that panics on its first observation.
    struct PanickingProgram;

    impl CensorProgram for PanickingProgram {
        fn observe(&mut self, _: &Flow, _: bool) -> CensorDecision {
            panic!("censor program exploded mid-rollout");
        }
    }

    struct PanickingFactory;

    impl CensorProgramFactory for PanickingFactory {
        fn spawn(&self) -> Box<dyn CensorProgram> {
            Box::new(PanickingProgram)
        }

        fn kind(&self) -> CensorKind {
            CensorKind::Dt
        }
    }

    #[test]
    #[should_panic(expected = "censor program exploded mid-rollout")]
    fn a_panicking_rollout_thread_reraises_its_own_panic() {
        let cfg = tiny_cfg();
        let (encoder, _, flows) = setup(&cfg, 0.4);
        let mut workers: Vec<Worker> = (0..2)
            .map(|i| {
                Worker::with_program(
                    Arc::new(PanickingFactory),
                    Layer::Tcp,
                    EnvConfig::from(&cfg),
                    &encoder,
                    i,
                )
            })
            .collect();
        let learner = PpoLearner::new(&cfg, &mut StdRng::seed_from_u64(4));
        collect_rollouts_threaded(&mut workers, 4, &snapshots(&encoder, &learner), &flows, 2);
    }

    #[test]
    fn gae_matches_hand_computation() {
        // Two steps, no termination, bootstrap 0.5.
        let traj = Trajectory {
            states: vec![vec![0.0], vec![0.0]],
            actions: vec![[0.0, 0.0]; 2],
            logps: vec![0.0; 2],
            rewards: vec![1.0, 2.0],
            values: vec![0.5, 1.0],
            dones: vec![false, false],
            bootstrap: 0.5,
            episodes: vec![],
            queries: 0,
        };
        let (adv, ret) = gae(&traj, 0.9, 1.0);
        // δ_1 = 2 + 0.9*0.5 - 1 = 1.45 ; adv_1 = 1.45
        // δ_0 = 1 + 0.9*1 - 0.5 = 1.4 ; adv_0 = 1.4 + 0.9*1.45 = 2.705
        assert!((adv[1] - 1.45).abs() < 1e-5, "{adv:?}");
        assert!((adv[0] - 2.705).abs() < 1e-5, "{adv:?}");
        assert!((ret[0] - (2.705 + 0.5)).abs() < 1e-5);
    }

    #[test]
    fn gae_resets_across_episode_boundaries() {
        let traj = Trajectory {
            states: vec![vec![0.0]; 3],
            actions: vec![[0.0, 0.0]; 3],
            logps: vec![0.0; 3],
            rewards: vec![1.0, 1.0, 1.0],
            values: vec![0.0, 0.0, 0.0],
            dones: vec![false, true, false],
            bootstrap: 10.0,
            episodes: vec![],
            queries: 0,
        };
        let (adv, _) = gae(&traj, 0.99, 0.95);
        // Step 1 is terminal: its advantage must not see the bootstrap.
        assert!((adv[1] - 1.0).abs() < 1e-5, "{adv:?}");
        // Step 2 does see the bootstrap.
        assert!(adv[2] > 5.0, "{adv:?}");
    }

    #[test]
    fn batch_assembly_and_normalisation() {
        let cfg = tiny_cfg();
        let (encoder, mut workers, flows) = setup(&cfg, 0.1);
        let mut rng = StdRng::seed_from_u64(2);
        let learner = PpoLearner::new(&cfg, &mut rng);
        let trajs = collect_rollouts(&mut workers, 8, &snapshots(&encoder, &learner), &flows);
        let batch = Batch::from_trajectories(&trajs, &cfg);
        assert_eq!(batch.len(), 16);
        let mean: f32 = batch.advantages.iter().sum::<f32>() / batch.len() as f32;
        assert!(
            mean.abs() < 1e-4,
            "advantages should be normalised, mean {mean}"
        );
    }

    /// The update as it ran before the critic moved to its own thread:
    /// shuffle before each epoch, then actor and critic alternate on one
    /// tape, minibatch by minibatch.
    fn sequential_update(
        (actor, actor_opt): (&Actor, &mut Adam),
        (critic, critic_opt): (&Critic, &mut Adam),
        cfg: &AmoebaConfig,
        batch: &Batch,
        rng: &mut StdRng,
    ) -> UpdateStats {
        let n = batch.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mb = (n / cfg.minibatches.max(1)).max(1);
        let mut stats = UpdateStats::default();
        for _ in 0..cfg.update_epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(mb) {
                let states = Tensor::constant(batch.states.gather_rows(chunk));
                let actions = batch.actions.gather_rows(chunk);
                let column = |v: &[f32]| {
                    Matrix::from_vec(chunk.len(), 1, chunk.iter().map(|&i| v[i]).collect())
                };

                actor_opt.zero_grad();
                let (logp, entropy) = actor.log_prob_entropy(&states, &actions);
                let ratio = logp.sub(&Tensor::constant(column(&batch.logps))).exp();
                let adv_t = Tensor::constant(column(&batch.advantages));
                let unclipped = ratio.mul(&adv_t);
                let clipped = ratio
                    .clamp(1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
                    .mul(&adv_t);
                let policy_loss = unclipped.minimum(&clipped).mean().neg();
                let entropy_mean = entropy.mean();
                let actor_loss = policy_loss.sub(&entropy_mean.scale(cfg.entropy_coef));
                stats.policy_loss = policy_loss.item();
                stats.entropy = entropy_mean.item();
                actor_loss.backward();
                if cfg.max_grad_norm > 0.0 {
                    clip_grad_norm(actor_opt.params(), cfg.max_grad_norm);
                }
                actor_opt.step();

                critic_opt.zero_grad();
                let value_loss = critic.values(&states).mse_loss(&column(&batch.returns));
                stats.value_loss = value_loss.item();
                value_loss.backward();
                if cfg.max_grad_norm > 0.0 {
                    clip_grad_norm(critic_opt.params(), cfg.max_grad_norm);
                }
                critic_opt.step();
            }
        }
        stats
    }

    fn param_bits(params: &[Tensor]) -> Vec<u32> {
        params
            .iter()
            .flat_map(|p| {
                p.value()
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// The critic's epochs on their own thread change no bit: over three
    /// consecutive updates (so Adam's step count and moments carry from
    /// one to the next) the actor and critic weights, every
    /// `UpdateStats` field and the RNG's next draw equal the sequential
    /// loop's.
    #[test]
    fn concurrent_update_matches_the_sequential_loop_bit_for_bit() {
        let cfg = AmoebaConfig {
            minibatches: 4,
            update_epochs: 3,
            ..tiny_cfg()
        };
        let (encoder, mut workers, flows) = setup(&cfg, 0.4);
        let mut rng = StdRng::seed_from_u64(21);
        let mut learner = PpoLearner::new(&cfg, &mut rng);
        let mut ref_rng = StdRng::seed_from_u64(21);
        let actor = Actor::new(&cfg, &mut ref_rng);
        let critic = Critic::new(&cfg, &mut ref_rng);
        let mut actor_opt = Adam::new(actor.params(), cfg.lr);
        let mut critic_opt = Adam::new(critic.params(), cfg.lr);

        let trajs = collect_rollouts(&mut workers, 24, &snapshots(&encoder, &learner), &flows);
        let batch = Batch::from_trajectories(&trajs, &cfg);
        assert_eq!(batch.len(), 48);
        for update in 0..3 {
            let got = learner.update(&batch, &mut rng);
            let want = sequential_update(
                (&actor, &mut actor_opt),
                (&critic, &mut critic_opt),
                &cfg,
                &batch,
                &mut ref_rng,
            );
            let stat_bits =
                |s: UpdateStats| [s.policy_loss, s.value_loss, s.entropy].map(f32::to_bits);
            assert_eq!(stat_bits(got), stat_bits(want), "update {update}: stats");
            assert_eq!(
                param_bits(&learner.actor.params()),
                param_bits(&actor.params()),
                "update {update}: actor weights"
            );
            assert_eq!(
                param_bits(&learner.critic.params()),
                param_bits(&critic.params()),
                "update {update}: critic weights"
            );
        }
        assert_eq!(
            rng.gen::<u64>(),
            ref_rng.gen::<u64>(),
            "the RNG's next draw"
        );
    }

    #[test]
    fn ppo_update_runs_and_improves_on_trivial_reward() {
        // Environment always allows (score 0.1): reward favours minimal
        // overhead; after a few updates the policy should reduce its delay
        // output (delay penalty is the main controllable cost).
        let cfg = tiny_cfg();
        let (encoder, mut workers, flows) = setup(&cfg, 0.1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut learner = PpoLearner::new(&cfg, &mut rng);

        let mut mean_reward_first = 0.0;
        let mut mean_reward_last = 0.0;
        for iter in 0..12 {
            let trajs = collect_rollouts(
                &mut workers,
                cfg.rollout_len,
                &snapshots(&encoder, &learner),
                &flows,
            );
            let total_reward: f32 = trajs.iter().flat_map(|t| t.rewards.iter()).sum();
            let total_steps: usize = trajs.iter().map(Trajectory::len).sum();
            let mean_reward = total_reward / total_steps as f32;
            if iter == 0 {
                mean_reward_first = mean_reward;
            }
            mean_reward_last = mean_reward;
            let batch = Batch::from_trajectories(&trajs, &cfg);
            let stats = learner.update(&batch, &mut rng);
            assert!(stats.policy_loss.is_finite());
            assert!(stats.value_loss.is_finite());
        }
        assert!(
            mean_reward_last > mean_reward_first - 0.05,
            "training diverged: {mean_reward_first} -> {mean_reward_last}"
        );
    }
}
