//! High-level Amoeba agent: Algorithm 1 training, attack execution, and
//! the §5.3 evaluation metrics (ASR, data overhead, time overhead).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use amoeba_classifiers::{Censor, CensorProgramFactory, ClassifierProgramFactory};
use amoeba_traffic::{Flow, Label, Layer};

use crate::config::AmoebaConfig;
use crate::encoder::{EncoderSnapshot, StateEncoder};
use crate::env::{Action, CensorEnv, EnvConfig, EpisodeStats};
use crate::policy::ActorSnapshot;
use crate::ppo::{
    collect_rollouts_threaded, Batch, PolicySnapshots, PpoLearner, Trajectory, Worker,
};

/// Per-iteration training telemetry (backs the Figure 7/9 convergence
/// curves).
#[derive(Debug, Clone, Copy)]
pub struct IterationStats {
    /// Cumulative environment timesteps after this iteration.
    pub timesteps: usize,
    /// Cumulative censor queries after this iteration.
    pub queries: usize,
    /// Mean per-step reward in this iteration's rollouts.
    pub mean_reward: f32,
    /// Success rate of episodes completed during this iteration's
    /// (stochastic) rollouts.
    pub rollout_asr: f32,
    /// Clipped-surrogate loss of the last minibatch.
    pub policy_loss: f32,
    /// Value loss of the last minibatch.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Deterministic-policy ASR on the eval set, when measured.
    pub eval_asr: Option<f32>,
}

/// Full training trace.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Per-iteration telemetry.
    pub iterations: Vec<IterationStats>,
    /// Final reconstruction loss of StateEncoder pretraining.
    pub encoder_loss: f32,
}

impl TrainReport {
    /// Total censor queries used during training.
    pub fn total_queries(&self) -> usize {
        self.iterations.last().map(|i| i.queries).unwrap_or(0)
    }

    /// Total environment steps.
    pub fn total_timesteps(&self) -> usize {
        self.iterations.last().map(|i| i.timesteps).unwrap_or(0)
    }
}

/// One adversarial transmission of an original flow.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The reshaped flow as seen by the censor.
    pub adversarial: Flow,
    /// Censor score on the complete adversarial flow.
    pub final_score: f32,
    /// Whether the flow evaded blocking.
    pub success: bool,
    /// Episode accounting (overheads, action counts).
    pub stats: EpisodeStats,
}

/// Aggregate attack evaluation (Table 1 row fragment).
#[derive(Debug, Clone, Default)]
pub struct AttackReport {
    /// Per-flow outcomes.
    pub outcomes: Vec<AttackOutcome>,
}

impl AttackReport {
    /// Attack success rate in `[0, 1]`.
    pub fn asr(&self) -> f32 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.success).count() as f32 / self.outcomes.len() as f32
    }

    /// Mean data overhead (§5.3).
    pub fn data_overhead(&self) -> f32 {
        mean(self.outcomes.iter().map(|o| o.stats.data_overhead()))
    }

    /// Mean time overhead (§5.3).
    pub fn time_overhead(&self) -> f32 {
        mean(self.outcomes.iter().map(|o| o.stats.time_overhead()))
    }

    /// Mean action counts per flow: `(truncations, paddings, delays)` —
    /// the Figure 14 histogram summarised.
    pub fn mean_action_counts(&self) -> (f32, f32, f32) {
        (
            mean(self.outcomes.iter().map(|o| o.stats.truncations as f32)),
            mean(self.outcomes.iter().map(|o| o.stats.paddings as f32)),
            mean(self.outcomes.iter().map(|o| o.stats.delays as f32)),
        )
    }

    /// Censor scores of all adversarial flows (Figure 5 ECDF input).
    pub fn scores(&self) -> Vec<f32> {
        self.outcomes.iter().map(|o| o.final_score).collect()
    }
}

fn mean(it: impl Iterator<Item = f32>) -> f32 {
    let v: Vec<f32> = it.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f32>() / v.len() as f32
    }
}

/// A trained Amoeba agent: frozen encoder + policy, held behind the same
/// `Arc`-shared [`PolicySnapshots`] the rollout workers use — cloning the
/// agent, or freezing it for serving, shares the weight allocations
/// rather than deep-copying the matrices.
#[derive(Clone)]
pub struct AmoebaAgent {
    snapshots: PolicySnapshots,
    cfg: AmoebaConfig,
    layer: Layer,
}

impl AmoebaAgent {
    /// Observation layer this agent was trained for.
    pub fn layer(&self) -> Layer {
        self.layer
    }

    /// Configuration used at training time.
    pub fn config(&self) -> &AmoebaConfig {
        &self.cfg
    }

    /// The frozen state encoder.
    pub fn encoder(&self) -> &EncoderSnapshot {
        &self.snapshots.encoder
    }

    /// The frozen actor (for latency benchmarks — Figure 11).
    pub fn actor(&self) -> &ActorSnapshot {
        &self.snapshots.actor
    }

    /// The `Arc`-shared frozen networks; serving consumers (e.g. the
    /// `amoeba-serve` policy registry) clone these handles instead of the
    /// underlying weights.
    pub fn snapshots(&self) -> &PolicySnapshots {
        &self.snapshots
    }

    /// The deterministic sampling seed [`AmoebaAgent::attack_flow`]
    /// derives from the config seed and the flow contents.
    fn flow_seed(&self, flow: &Flow) -> u64 {
        let mut h = self.cfg.seed ^ 0xA5A5_5A5A;
        for p in &flow.packets {
            h = h
                .wrapping_mul(0x100000001B3)
                .wrapping_add(p.size as u64 ^ (p.delay_ms.to_bits() as u64));
        }
        h
    }

    /// Reshapes one flow against a censor by *sampling* the stochastic
    /// policy (`a_t ~ π_θ(s_t)`, §4.1 — the paper's generation mode),
    /// returning the complete outcome. The sampling RNG is derived from
    /// the config seed and the flow contents, so results are reproducible.
    pub fn attack_flow(&self, censor: &Arc<dyn Censor>, flow: &Flow) -> AttackOutcome {
        self.attack_flow_seeded(censor, flow, self.flow_seed(flow))
    }

    /// [`AmoebaAgent::attack_flow`] with an explicit sampling seed —
    /// the degenerate program adapter over
    /// [`AmoebaAgent::attack_flow_program_seeded`], which reproduces the
    /// one-shot path bit-for-bit (the final observation scores exactly
    /// the complete adversarial flow).
    pub fn attack_flow_seeded(
        &self,
        censor: &Arc<dyn Censor>,
        flow: &Flow,
        seed: u64,
    ) -> AttackOutcome {
        let factory: Arc<dyn CensorProgramFactory> =
            Arc::new(ClassifierProgramFactory::new(Arc::clone(censor)));
        self.attack_flow_program_seeded(&factory, flow, seed)
    }

    /// Reshapes one flow against a streaming censor program, sampling
    /// the stochastic policy with the flow-derived seed of
    /// [`AmoebaAgent::attack_flow`].
    pub fn attack_flow_program(
        &self,
        factory: &Arc<dyn CensorProgramFactory>,
        flow: &Flow,
    ) -> AttackOutcome {
        self.attack_flow_program_seeded(factory, flow, self.flow_seed(flow))
    }

    /// [`AmoebaAgent::attack_flow_program`] with an explicit sampling
    /// seed. The program observes every emitted prefix (stateful
    /// adversaries count frames like an on-path gateway); `final_score`
    /// is whatever the program disclosed on its last observation — the
    /// hard 0.0/1.0 when the adversary is verdict-only.
    pub fn attack_flow_program_seeded(
        &self,
        factory: &Arc<dyn CensorProgramFactory>,
        flow: &Flow,
        seed: u64,
    ) -> AttackOutcome {
        let mut env_cfg = EnvConfig::from(&self.cfg);
        env_cfg.reward_mask_rate = 0.0; // evaluation always observes decisions
        let mut env = CensorEnv::with_program(
            Arc::clone(factory),
            self.layer,
            env_cfg,
            StdRng::seed_from_u64(seed),
        );
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        env.reset(flow);
        let encoder = self.encoder();
        let mut x_state = encoder.begin();
        let mut a_state = encoder.begin();
        let mut guard = 0usize;
        let guard_max = flow.len() * self.cfg.max_len_factor.max(1) + self.cfg.max_len_slack + 4;
        while let Some(obs) = env.observe_normalized() {
            x_state.push(encoder, obs);
            let mut state = x_state.representation().to_vec();
            state.extend_from_slice(a_state.representation());
            let (raw, _) = self.actor().sample(&state, &mut rng);
            let out = env.step(Action::clamped(raw[0], raw[1]));
            a_state.push(encoder, env.normalize_packet(&out.emitted));
            guard += 1;
            if out.done || guard > guard_max {
                break;
            }
        }
        let adversarial = env.adversarial_flow().clone();
        let stats = env.stats().clone();
        AttackOutcome {
            success: stats.success,
            final_score: stats.final_score,
            stats,
            adversarial,
        }
    }

    /// Attacks every flow in the slice and aggregates §5.3 metrics.
    pub fn evaluate(&self, censor: &Arc<dyn Censor>, flows: &[Flow]) -> AttackReport {
        AttackReport {
            outcomes: flows.iter().map(|f| self.attack_flow(censor, f)).collect(),
        }
    }

    /// [`AmoebaAgent::evaluate`] against a streaming censor program.
    pub fn evaluate_program(
        &self,
        factory: &Arc<dyn CensorProgramFactory>,
        flows: &[Flow],
    ) -> AttackReport {
        AttackReport {
            outcomes: flows
                .iter()
                .map(|f| self.attack_flow_program(factory, f))
                .collect(),
        }
    }

    /// Generates adversarial versions of the given flows (transferability
    /// experiments feed these to *other* censors).
    pub fn generate_adversarial(&self, censor: &Arc<dyn Censor>, flows: &[Flow]) -> Vec<Flow> {
        flows
            .iter()
            .map(|f| self.attack_flow(censor, f).adversarial)
            .collect()
    }
}

/// Trains Amoeba against a black-box censor (Algorithm 1).
///
/// `train_flows` should be the *sensitive* flows of the attack_train split
/// (§5.4) — the traffic the attacker needs to disguise. `eval` optionally
/// supplies `(flows, every_n_iterations)` for periodic deterministic-policy
/// ASR measurements (the Figure 7/9 curves).
pub fn train_amoeba(
    censor: Arc<dyn Censor>,
    train_flows: &[Flow],
    layer: Layer,
    cfg: &AmoebaConfig,
    eval: Option<(&[Flow], usize)>,
) -> (AmoebaAgent, TrainReport) {
    // Algorithm 1 line 2: obtain the StateEncoder from Algorithm 2.
    let (encoder, encoder_loss) = pretrain_encoder(cfg);
    train_amoeba_with_encoder(censor, train_flows, layer, cfg, encoder, encoder_loss, eval)
}

/// Runs Algorithm 2 alone, returning the frozen encoder and its final
/// reconstruction loss. The StateEncoder is censor-independent, so one
/// pretrained encoder can be shared across every censor an experiment
/// sweeps over (the Table 1 / Figure 8 harnesses do exactly that).
pub fn pretrain_encoder(cfg: &AmoebaConfig) -> (EncoderSnapshot, f32) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut state_encoder = StateEncoder::new(cfg.encoder_hidden, cfg.encoder_layers, &mut rng);
    let loss = state_encoder.pretrain(cfg);
    (state_encoder.snapshot(), loss)
}

/// [`train_amoeba`] with an externally pretrained StateEncoder — the
/// degenerate program adapter over
/// [`train_amoeba_with_encoder_program`], bit-identical to training
/// against the one-shot censor directly.
pub fn train_amoeba_with_encoder(
    censor: Arc<dyn Censor>,
    train_flows: &[Flow],
    layer: Layer,
    cfg: &AmoebaConfig,
    encoder: EncoderSnapshot,
    encoder_loss: f32,
    eval: Option<(&[Flow], usize)>,
) -> (AmoebaAgent, TrainReport) {
    train_amoeba_with_encoder_program(
        Arc::new(ClassifierProgramFactory::new(censor)),
        train_flows,
        layer,
        cfg,
        encoder,
        encoder_loss,
        eval,
    )
}

/// [`train_amoeba_with_encoder`] against a streaming censor program —
/// stateful (warmup/hysteresis), verdict-only (hard-label) or
/// connection-tearing adversaries; each rollout episode spawns a fresh
/// per-session program.
pub fn train_amoeba_with_encoder_program(
    factory: Arc<dyn CensorProgramFactory>,
    train_flows: &[Flow],
    layer: Layer,
    cfg: &AmoebaConfig,
    encoder: EncoderSnapshot,
    encoder_loss: f32,
    eval: Option<(&[Flow], usize)>,
) -> (AmoebaAgent, TrainReport) {
    assert!(!train_flows.is_empty(), "train_amoeba: no training flows");
    assert_eq!(
        encoder.hidden_size(),
        cfg.encoder_hidden,
        "encoder width does not match config"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut learner = PpoLearner::new(cfg, &mut rng);
    let mut workers: Vec<Worker> = (0..cfg.n_envs.max(1))
        .map(|i| {
            Worker::with_program(
                Arc::clone(&factory),
                layer,
                EnvConfig::from(cfg),
                &encoder,
                cfg.seed.wrapping_add(i as u64 + 1),
            )
        })
        .collect();
    let flows = Arc::new(train_flows.to_vec());
    // The encoder is frozen for the whole run; share one allocation with
    // every rollout thread of every iteration.
    let shared_encoder = Arc::new(encoder.clone());
    let rollout_threads = cfg.rollout_threads();

    let steps_per_iter = cfg.n_envs.max(1) * cfg.rollout_len;
    let iterations = cfg.total_timesteps.div_ceil(steps_per_iter).max(1);

    let mut report = TrainReport {
        encoder_loss,
        ..Default::default()
    };
    let mut cum_steps = 0usize;
    let mut cum_queries = 0usize;

    for iter in 0..iterations {
        let policy = PolicySnapshots {
            encoder: Arc::clone(&shared_encoder),
            actor: Arc::new(learner.actor.snapshot()),
            critic: Arc::new(learner.critic.snapshot()),
        };
        let trajs = collect_rollouts_threaded(
            &mut workers,
            cfg.rollout_len,
            &policy,
            &flows,
            rollout_threads,
        );

        let total_steps: usize = trajs.iter().map(Trajectory::len).sum();
        let total_reward: f32 = trajs.iter().flat_map(|t| t.rewards.iter()).sum();
        let episodes: Vec<&EpisodeStats> = trajs.iter().flat_map(|t| t.episodes.iter()).collect();
        let successes = episodes.iter().filter(|e| e.success).count();
        cum_steps += total_steps;
        cum_queries += trajs.iter().map(|t| t.queries).sum::<usize>();

        let batch = Batch::from_trajectories(&trajs, cfg);
        let stats = learner.update(&batch, &mut rng);

        let eval_asr = match eval {
            Some((eval_flows, every)) if every > 0 && (iter + 1) % every == 0 => {
                let agent = AmoebaAgent {
                    snapshots: PolicySnapshots::from_shared(
                        Arc::clone(&shared_encoder),
                        Arc::new(learner.actor.snapshot()),
                        Arc::new(learner.critic.snapshot()),
                    ),
                    cfg: cfg.clone(),
                    layer,
                };
                Some(agent.evaluate_program(&factory, eval_flows).asr())
            }
            _ => None,
        };

        report.iterations.push(IterationStats {
            timesteps: cum_steps,
            queries: cum_queries,
            mean_reward: total_reward / total_steps.max(1) as f32,
            rollout_asr: if episodes.is_empty() {
                0.0
            } else {
                successes as f32 / episodes.len() as f32
            },
            policy_loss: stats.policy_loss,
            value_loss: stats.value_loss,
            entropy: stats.entropy,
            eval_asr,
        });
    }

    let agent = AmoebaAgent {
        snapshots: PolicySnapshots::from_shared(
            shared_encoder,
            Arc::new(learner.actor.snapshot()),
            Arc::new(learner.critic.snapshot()),
        ),
        cfg: cfg.clone(),
        layer,
    };
    (agent, report)
}

/// Convenience: extracts the sensitive flows of a dataset (what the
/// attacker trains/evaluates on).
pub fn sensitive_flows(ds: &amoeba_traffic::Dataset) -> Vec<Flow> {
    ds.flows
        .iter()
        .zip(&ds.labels)
        .filter(|(_, &l)| l == Label::Sensitive)
        .map(|(f, _)| f.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_classifiers::{CensorKind, ConstantCensor};

    fn tiny_cfg() -> AmoebaConfig {
        AmoebaConfig {
            encoder_hidden: 8,
            encoder_train_flows: 32,
            encoder_epochs: 2,
            encoder_max_len: 10,
            actor_hidden: vec![16],
            n_envs: 2,
            rollout_len: 32,
            total_timesteps: 256,
            minibatches: 2,
            update_epochs: 2,
            ..AmoebaConfig::fast()
        }
    }

    fn flows() -> Vec<Flow> {
        vec![
            Flow::from_pairs(&[(536, 0.0), (-536, 3.0), (-1072, 0.4), (536, 5.0)]),
            Flow::from_pairs(&[(536, 0.0), (-536, 2.0)]),
        ]
    }

    #[test]
    fn training_runs_and_reports() {
        let censor: Arc<dyn Censor> = Arc::new(ConstantCensor {
            fixed_score: 0.1,
            as_kind: CensorKind::Dt,
        });
        let cfg = tiny_cfg();
        let (agent, report) = train_amoeba(censor.clone(), &flows(), Layer::Tcp, &cfg, None);
        assert_eq!(report.iterations.len(), 4); // 256 / (2*32)
        assert_eq!(report.total_timesteps(), 256);
        assert!(report.total_queries() > 0);
        assert!(report.encoder_loss.is_finite());
        // Against an always-allow censor, every attack succeeds.
        let eval = agent.evaluate(&censor, &flows());
        assert_eq!(eval.asr(), 1.0);
    }

    #[test]
    fn attack_preserves_payload() {
        let censor: Arc<dyn Censor> = Arc::new(ConstantCensor {
            fixed_score: 0.1,
            as_kind: CensorKind::Dt,
        });
        let cfg = tiny_cfg();
        let (agent, _) = train_amoeba(censor.clone(), &flows(), Layer::Tcp, &cfg, None);
        for flow in flows() {
            let outcome = agent.attack_flow(&censor, &flow);
            // Eq. 1 end-to-end: adversarial bytes cover original payload.
            assert!(
                outcome.adversarial.total_bytes() >= flow.total_bytes(),
                "payload lost: {} < {}",
                outcome.adversarial.total_bytes(),
                flow.total_bytes()
            );
            // Per-direction conservation too.
            for dir in [
                amoeba_traffic::Direction::Outbound,
                amoeba_traffic::Direction::Inbound,
            ] {
                assert!(outcome.adversarial.bytes(dir) >= flow.bytes(dir));
            }
        }
    }

    #[test]
    fn evaluation_against_block_all_censor_fails() {
        let allow: Arc<dyn Censor> = Arc::new(ConstantCensor {
            fixed_score: 0.1,
            as_kind: CensorKind::Dt,
        });
        let block: Arc<dyn Censor> = Arc::new(ConstantCensor {
            fixed_score: 0.9,
            as_kind: CensorKind::Dt,
        });
        let cfg = tiny_cfg();
        let (agent, _) = train_amoeba(allow, &flows(), Layer::Tcp, &cfg, None);
        let eval = agent.evaluate(&block, &flows());
        assert_eq!(eval.asr(), 0.0);
        // Overheads are still reported.
        assert!(eval.data_overhead() >= 0.0);
        assert!(eval.time_overhead() >= 0.0);
    }

    #[test]
    fn eval_callback_fires() {
        let censor: Arc<dyn Censor> = Arc::new(ConstantCensor {
            fixed_score: 0.1,
            as_kind: CensorKind::Dt,
        });
        let cfg = tiny_cfg();
        let fl = flows();
        let (_, report) = train_amoeba(censor, &fl, Layer::Tcp, &cfg, Some((&fl, 2)));
        let evals: Vec<_> = report
            .iterations
            .iter()
            .filter_map(|i| i.eval_asr)
            .collect();
        assert_eq!(evals.len(), 2); // iterations 2 and 4
        assert!(evals.iter().all(|a| *a == 1.0));
    }

    #[test]
    fn sensitive_flows_filters_dataset() {
        use amoeba_traffic::{build_dataset, DatasetKind};
        let ds = build_dataset(DatasetKind::Tor, 10, None, 1);
        let s = sensitive_flows(&ds);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn masked_training_reduces_queries() {
        let censor: Arc<dyn Censor> = Arc::new(ConstantCensor {
            fixed_score: 0.1,
            as_kind: CensorKind::Dt,
        });
        let cfg = tiny_cfg().with_mask_rate(0.9);
        let (_, report) = train_amoeba(censor, &flows(), Layer::Tcp, &cfg, None);
        let steps = report.total_timesteps();
        let queries = report.total_queries();
        assert!(
            (queries as f32) < steps as f32 * 0.3,
            "mask rate 0.9 should cut queries: {queries}/{steps}"
        );
    }
}
