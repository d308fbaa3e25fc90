//! The network environment (§4.2): the censor-in-the-loop RL gym built on
//! the shared [`crate::kernel`] shaping logic, plus the reward function.
//!
//! The §3 constraint handling (payload conservation, delay clamping) lives
//! in [`crate::kernel::ShapingKernel`] / [`crate::kernel::TransportEmulator`],
//! which this gym shares with the `amoeba-serve` online dataplane; this
//! module adds what only training needs — the streaming censor program
//! ([`amoeba_classifiers::CensorProgram`]), reward shaping, reward
//! masking (§5.5.3), and episode accounting.
//!
//! ## Reward polarity
//!
//! `r_adv ∈ {0, 1}` — 1 when the censor classifies the adversarial prefix
//! as benign (flow allowed), 0 when blocked, 0.5 when masked (§5.5.3).
//! Penalties are computed in *normalised* units (bytes / action scale,
//! ms / max_delay) so they are commensurate with `r_adv`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use amoeba_classifiers::{
    Censor, CensorDecision, CensorProgram, CensorProgramFactory, ClassifierProgramFactory,
};
use amoeba_traffic::{Flow, Layer, Packet};

use crate::config::AmoebaConfig;

pub use crate::kernel::{Action, ActionSpace, Observation, ShapingKernel, TransportEmulator};

/// Per-step result handed to the agent.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// The adversarial packet that went on the wire.
    pub emitted: Packet,
    /// Total reward `r_adv − λ_d·p_data − λ_t·p_time`.
    pub reward: f32,
    /// Distinguishability component (1 allowed, 0 blocked, 0.5 masked).
    pub r_adv: f32,
    /// Whether the censor actually blocked the current prefix (always the
    /// true decision, even when the reward was masked).
    pub blocked: bool,
    /// Whether the censor was queried this step (false when masked).
    pub queried: bool,
    /// This step truncated the current original packet.
    pub truncated: bool,
    /// Padding bytes added this step.
    pub padding: u32,
    /// Episode finished (all original payload transmitted).
    pub done: bool,
}

/// Per-episode accounting for ASR / overhead metrics (§5.3) and the
/// Figure 14 action audit.
#[derive(Debug, Clone, Default)]
pub struct EpisodeStats {
    /// Original payload bytes.
    pub original_payload: u64,
    /// Padding bytes added.
    pub padding: u64,
    /// Extra delay added by the agent (ms).
    pub added_delay_ms: f32,
    /// Total transmission time of the adversarial flow (ms).
    pub transmission_ms: f32,
    /// Number of truncation actions.
    pub truncations: usize,
    /// Number of padding actions (emitted size > remaining payload).
    pub paddings: usize,
    /// Number of delay actions (`Δφ` ≥ 1 ms after discretisation).
    pub delays: usize,
    /// Censor queries issued.
    pub queries: usize,
    /// Length of the adversarial flow in packets.
    pub adv_len: usize,
    /// Final decision on the complete adversarial flow: allowed?
    pub success: bool,
    /// The score the program disclosed on its final observation — the
    /// hard label's 0.0/1.0 when the adversary is verdict-only
    /// ([`CensorDecision::Allow`] / [`CensorDecision::Block`] /
    /// [`CensorDecision::Reset`] disclose no probability).
    pub final_score: f32,
    /// The censor program tore the connection down mid-stream
    /// ([`CensorDecision::Reset`]); the episode ended early and counts
    /// as blocked.
    pub torn: bool,
}

impl EpisodeStats {
    /// `padding / (original payload + padding)` (§5.3).
    pub fn data_overhead(&self) -> f32 {
        let denom = self.original_payload + self.padding;
        if denom == 0 {
            0.0
        } else {
            self.padding as f32 / denom as f32
        }
    }

    /// `delays / (delays + total transmission time)` (§5.3).
    pub fn time_overhead(&self) -> f32 {
        let denom = self.added_delay_ms + self.transmission_ms;
        if denom <= 0.0 {
            0.0
        } else {
            self.added_delay_ms / denom
        }
    }
}

/// The full RL environment: emulator + censor program + reward shaping.
///
/// The adversary is an [`Arc<dyn CensorProgramFactory>`]: every episode
/// spawns a fresh per-session [`CensorProgram`] state machine, so PPO
/// can train against stateful (warmup/hysteresis), verdict-only
/// (hard-label) and connection-tearing censors with the same loop. The
/// six one-shot classifiers remain available through [`CensorEnv::new`],
/// which wraps them in the degenerate [`ClassifierProgramFactory`]
/// adapter — bit-identical to the old direct `Censor` queries.
pub struct CensorEnv {
    factory: Arc<dyn CensorProgramFactory>,
    program: Box<dyn CensorProgram>,
    kernel: ShapingKernel,
    cfg: EnvConfig,
    emulator: TransportEmulator,
    adv_flow: Flow,
    stats: EpisodeStats,
    max_adv_len: usize,
    torn: bool,
    rng: StdRng,
}

/// The environment-relevant subset of [`AmoebaConfig`].
#[derive(Debug, Clone, Copy)]
pub struct EnvConfig {
    /// `λ_split`.
    pub lambda_split: f32,
    /// `λ_d`.
    pub lambda_data: f32,
    /// `λ_t`.
    pub lambda_time: f32,
    /// Reward mask probability.
    pub reward_mask_rate: f32,
    /// `max_delay` (ms).
    pub max_delay_ms: f32,
    /// Length-cap factor.
    pub max_len_factor: usize,
    /// Length-cap slack.
    pub max_len_slack: usize,
    /// Minimum packet payload.
    pub min_packet: u32,
    /// Morphing operations available to the agent (§4.2 ablation).
    pub action_space: ActionSpace,
}

impl From<&AmoebaConfig> for EnvConfig {
    fn from(c: &AmoebaConfig) -> Self {
        Self {
            lambda_split: c.lambda_split,
            lambda_data: c.lambda_data,
            lambda_time: c.lambda_time,
            reward_mask_rate: c.reward_mask_rate,
            max_delay_ms: c.max_delay_ms,
            max_len_factor: c.max_len_factor,
            max_len_slack: c.max_len_slack,
            min_packet: c.min_packet,
            action_space: c.action_space,
        }
    }
}

impl EnvConfig {
    /// The shaping kernel this configuration induces at a given layer.
    pub fn kernel(&self, layer: Layer) -> ShapingKernel {
        ShapingKernel::new(layer, self.max_delay_ms, self.min_packet, self.action_space)
    }
}

impl CensorEnv {
    /// Builds an environment around a frozen one-shot censor — the
    /// degenerate [`ClassifierProgramFactory`] adapter over
    /// [`CensorEnv::with_program`].
    pub fn new(censor: Arc<dyn Censor>, layer: Layer, cfg: EnvConfig, rng: StdRng) -> Self {
        Self::with_program(
            Arc::new(ClassifierProgramFactory::new(censor)),
            layer,
            cfg,
            rng,
        )
    }

    /// Builds an environment around a streaming censor-program factory;
    /// each [`CensorEnv::reset`] spawns a pristine program for the new
    /// episode.
    pub fn with_program(
        factory: Arc<dyn CensorProgramFactory>,
        layer: Layer,
        cfg: EnvConfig,
        rng: StdRng,
    ) -> Self {
        let program = factory.spawn();
        Self {
            factory,
            program,
            kernel: cfg.kernel(layer),
            cfg,
            emulator: TransportEmulator::new(&Flow::new()),
            adv_flow: Flow::new(),
            stats: EpisodeStats::default(),
            max_adv_len: 0,
            torn: false,
            rng,
        }
    }

    /// Observation layer.
    pub fn layer(&self) -> Layer {
        self.kernel.layer()
    }

    /// Starts a new episode on the given original flow, spawning a
    /// fresh censor program with pristine per-session state.
    pub fn reset(&mut self, flow: &Flow) {
        self.emulator = TransportEmulator::new(flow);
        self.program = self.factory.spawn();
        self.adv_flow = Flow::new();
        self.stats = EpisodeStats {
            original_payload: self.emulator.original_payload(),
            ..Default::default()
        };
        self.max_adv_len = flow.len() * self.cfg.max_len_factor.max(1) + self.cfg.max_len_slack;
        self.torn = false;
    }

    /// Current observation (`None` once the episode is done — all
    /// payload transmitted, or the censor tore the connection down).
    pub fn observe(&self) -> Option<Observation> {
        if self.torn {
            return None;
        }
        self.emulator.observe()
    }

    /// Normalised observation for the StateEncoder.
    pub fn observe_normalized(&self) -> Option<[f32; 2]> {
        self.observe()
            .map(|o| o.normalized(self.kernel.layer(), self.cfg.max_delay_ms))
    }

    /// The adversarial flow emitted so far.
    pub fn adversarial_flow(&self) -> &Flow {
        &self.adv_flow
    }

    /// Episode statistics so far.
    pub fn stats(&self) -> &EpisodeStats {
        &self.stats
    }

    /// Executes one agent action.
    ///
    /// # Panics
    /// Panics if the episode already finished.
    pub fn step(&mut self, action: Action) -> StepOutcome {
        let force_flush = self.adv_flow.len() + 1 >= self.max_adv_len;
        let frame = self
            .emulator
            .apply_kernel(&self.kernel, action, force_flush);
        self.adv_flow.push(frame.packet);

        // --- penalties (normalised units, §4.2) ---------------------------
        let scale = self.kernel.layer().action_scale();
        let p_data = if frame.truncated {
            let remaining = self.emulator.observe().map(|o| o.payload).unwrap_or(0);
            remaining as f32 / scale + self.cfg.lambda_split * frame.truncation_count as f32
        } else {
            frame.padding as f32 / scale
        };
        let p_time = frame.extra_delay_ms / self.cfg.max_delay_ms.max(1e-6);

        // --- censor feedback ------------------------------------------------
        // One observation per emitted frame, `last` on the flush that
        // drains the emulator — the program sees every prefix exactly
        // once, so stateful adversaries count frames the way an on-path
        // gateway would.
        let mut done = self.emulator.finished();
        let decision = self.program.observe(&self.adv_flow, done);
        let blocked = decision.blocks();
        if matches!(decision, CensorDecision::Reset) {
            // Mid-stream teardown: the connection is gone, the episode
            // ends now (as blocked) no matter how much payload remains.
            self.torn = true;
            self.stats.torn = true;
            done = true;
        }
        let masked =
            self.cfg.reward_mask_rate > 0.0 && self.rng.gen::<f32>() < self.cfg.reward_mask_rate;
        let (r_adv, queried) = if masked {
            (0.5, false)
        } else {
            (if blocked { 0.0 } else { 1.0 }, true)
        };

        let reward = r_adv - self.cfg.lambda_data * p_data - self.cfg.lambda_time * p_time;

        // --- bookkeeping ----------------------------------------------------
        self.stats.padding += frame.padding as u64;
        self.stats.added_delay_ms += frame.extra_delay_ms;
        if frame.truncated {
            self.stats.truncations += 1;
        }
        if frame.padding > 0 {
            self.stats.paddings += 1;
        }
        if frame.extra_delay_ms >= 1.0 {
            self.stats.delays += 1;
        }
        if queried {
            self.stats.queries += 1;
        }
        self.stats.adv_len = self.adv_flow.len();

        if done {
            self.stats.transmission_ms = self.adv_flow.duration_ms();
            // The decision on the final prefix is the verdict on the
            // whole adversarial flow (a torn session is blocked).
            self.stats.success = !blocked;
            self.stats.final_score = match decision {
                CensorDecision::Score(s) => s,
                CensorDecision::Allow => 0.0,
                CensorDecision::Block | CensorDecision::Reset => 1.0,
            };
        }

        StepOutcome {
            emitted: frame.packet,
            reward,
            r_adv,
            blocked,
            queried,
            truncated: frame.truncated,
            padding: frame.padding,
            done,
        }
    }

    /// Normalised encoding of an emitted packet for the action-history
    /// encoder `E(a_{1:t})`.
    pub fn normalize_packet(&self, p: &Packet) -> [f32; 2] {
        self.kernel.normalize_packet(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_classifiers::ConstantCensor;
    use amoeba_traffic::Direction;
    use rand::SeedableRng;

    fn flow3() -> Flow {
        Flow::from_pairs(&[(1000, 0.0), (-600, 5.0), (400, 2.0)])
    }

    fn env_with(score: f32, cfg: EnvConfig) -> CensorEnv {
        // `ConstantCensor` implements the program adapter itself, so the
        // gym tests build censors in one line instead of by hand.
        CensorEnv::new(
            Arc::new(ConstantCensor::new(score)),
            Layer::Tcp,
            cfg,
            StdRng::seed_from_u64(0),
        )
    }

    fn base_cfg() -> EnvConfig {
        EnvConfig::from(&AmoebaConfig::fast())
    }

    /// A TCP kernel with the gym's 100 ms delay cap.
    fn tcp(min_packet: u32, space: ActionSpace) -> ShapingKernel {
        ShapingKernel::new(Layer::Tcp, 100.0, min_packet, space)
    }

    #[test]
    fn emulator_conserves_payload_under_truncation() {
        let flow = flow3();
        let mut em = TransportEmulator::new(&flow);
        let mut sent_per_packet = [0u64; 3];
        let mut idx = 0;
        let k = tcp(1, ActionSpace::Both);
        while !em.finished() {
            let action = Action::clamped(0.2, 0.0); // 292-byte chunks
            let before = em.observe().unwrap();
            let frame = em.apply_kernel(&k, action, false);
            let pkt = frame.packet;
            assert_eq!(pkt.direction(), before.direction);
            sent_per_packet[idx] += pkt.magnitude() as u64;
            if !frame.truncated {
                idx += 1;
            }
        }
        // Eq. 1: every original packet fully covered.
        assert!(sent_per_packet[0] >= 1000);
        assert!(sent_per_packet[1] >= 600);
        assert!(sent_per_packet[2] >= 400);
    }

    #[test]
    fn first_chunk_inherits_base_delay_later_chunks_do_not() {
        let flow = Flow::from_pairs(&[(-1000, 7.0)]);
        let mut em = TransportEmulator::new(&flow);
        let obs1 = em.observe().unwrap();
        assert_eq!(obs1.base_delay_ms, 7.0);
        let frame = em.apply_kernel(&tcp(1, ActionSpace::Both), Action::clamped(0.3, 0.0), false);
        let pkt1 = frame.packet;
        assert!(frame.truncated);
        // Eq. 2: emitted delay >= φ_i.
        assert!(pkt1.delay_ms >= 7.0);
        let obs2 = em.observe().unwrap();
        assert_eq!(obs2.base_delay_ms, 0.0);
        assert_eq!(obs2.payload, 1000 - pkt1.magnitude());
    }

    #[test]
    fn padding_is_accounted() {
        let flow = Flow::from_pairs(&[(100, 0.0)]);
        let mut em = TransportEmulator::new(&flow);
        let frame = em.apply_kernel(&tcp(1, ActionSpace::Both), Action::clamped(0.5, 0.0), false);
        assert!(!frame.truncated);
        assert_eq!(frame.packet.magnitude(), 730);
        assert_eq!(frame.padding, 630);
        assert!(em.finished());
    }

    #[test]
    fn reward_rewards_evasion_and_penalises_overhead() {
        // Allowed by censor: r_adv = 1.
        let mut env = env_with(0.1, base_cfg());
        env.reset(&Flow::from_pairs(&[(100, 0.0)]));
        let out = env.step(Action::clamped(100.0 / 1460.0 + 1e-4, 0.0));
        assert!(!out.blocked);
        assert_eq!(out.r_adv, 1.0);
        assert!(out.reward > 0.9, "reward {}", out.reward);

        // Blocked by censor: r_adv = 0, reward <= 0.
        let mut env = env_with(0.9, base_cfg());
        env.reset(&Flow::from_pairs(&[(100, 0.0)]));
        let out = env.step(Action::clamped(1.0, 1.0));
        assert!(out.blocked);
        assert_eq!(out.r_adv, 0.0);
        assert!(out.reward < 0.0, "reward {}", out.reward);
    }

    #[test]
    fn masked_rewards_use_half_and_skip_queries() {
        let mut cfg = base_cfg();
        cfg.reward_mask_rate = 1.0;
        let mut env = env_with(0.9, cfg);
        env.reset(&flow3());
        let out = env.step(Action::clamped(1.0, 0.0));
        assert_eq!(out.r_adv, 0.5);
        assert!(!out.queried);
        assert_eq!(env.stats().queries, 0);
        // The true decision is still tracked.
        assert!(out.blocked);
    }

    #[test]
    fn episode_terminates_and_reports_overheads() {
        let mut env = env_with(0.1, base_cfg());
        env.reset(&flow3());
        let mut done = false;
        let mut steps = 0;
        while !done {
            let out = env.step(Action::clamped(0.9, 0.5));
            done = out.done;
            steps += 1;
            assert!(steps < 100, "episode failed to terminate");
        }
        let stats = env.stats();
        assert!(stats.success);
        assert_eq!(stats.original_payload, 2000);
        assert!(stats.padding > 0);
        assert!(stats.data_overhead() > 0.0 && stats.data_overhead() < 1.0);
        assert!(stats.time_overhead() > 0.0 && stats.time_overhead() <= 1.0);
        assert_eq!(stats.adv_len, env.adversarial_flow().len());
    }

    #[test]
    fn length_cap_forces_flush() {
        let mut cfg = base_cfg();
        cfg.max_len_factor = 1;
        cfg.max_len_slack = 0;
        let mut env = env_with(0.1, cfg);
        env.reset(&Flow::from_pairs(&[(1400, 0.0), (-1400, 1.0)]));
        // Tiny actions would truncate forever; the cap must force progress.
        let mut steps = 0;
        loop {
            let out = env.step(Action::clamped(0.01, 0.0));
            steps += 1;
            if out.done {
                break;
            }
            assert!(steps <= 2, "cap did not flush");
        }
        assert!(env.emulator.finished());
    }

    #[test]
    fn min_packet_floor_applies() {
        let flow = Flow::from_pairs(&[(1000, 0.0)]);
        let mut em = TransportEmulator::new(&flow);
        let frame = em.apply_kernel(
            &tcp(64, ActionSpace::Both),
            Action::clamped(0.0, 0.0),
            false,
        );
        assert!(frame.packet.magnitude() >= 64);
    }

    #[test]
    fn direction_is_coerced_to_payload_direction() {
        // Inbound payload, positive action sign: packet must stay inbound.
        let flow = Flow::from_pairs(&[(-500, 0.0)]);
        let mut em = TransportEmulator::new(&flow);
        let frame = em.apply_kernel(&tcp(1, ActionSpace::Both), Action::clamped(0.9, 0.0), false);
        assert_eq!(frame.packet.direction(), Direction::Inbound);
    }

    #[test]
    fn padding_only_never_splits() {
        let flow = Flow::from_pairs(&[(1400, 0.0), (-900, 2.0)]);
        let mut em = TransportEmulator::new(&flow);
        let mut packets = 0;
        let k = tcp(1, ActionSpace::PaddingOnly);
        while !em.finished() {
            let frame = em.apply_kernel(&k, Action::clamped(0.05, 0.0), false);
            assert!(!frame.truncated, "PaddingOnly must never truncate");
            packets += 1;
        }
        assert_eq!(packets, 2, "one wire packet per original packet");
    }

    #[test]
    fn truncation_only_never_pads() {
        let flow = Flow::from_pairs(&[(1400, 0.0)]);
        let mut em = TransportEmulator::new(&flow);
        let mut total = 0u64;
        let k = tcp(1, ActionSpace::TruncationOnly);
        while !em.finished() {
            let frame = em.apply_kernel(&k, Action::clamped(0.9, 0.0), false);
            assert_eq!(frame.padding, 0, "TruncationOnly must never pad");
            total += frame.packet.magnitude() as u64;
        }
        assert_eq!(total, 1400, "payload exactly conserved with no padding");
    }

    /// A verdict-only (hard-label) adversary gives the gym exactly the
    /// binary feedback the reward needs: `r_adv` stays 0/1 and the final
    /// success matches the verdict, with no score ever observed.
    #[test]
    fn hard_label_program_trains_with_binary_feedback() {
        use amoeba_classifiers::HardLabelFactory;
        for (score, expect_success) in [(0.1, true), (0.9, false)] {
            let factory = HardLabelFactory::over_censor(Arc::new(ConstantCensor::new(score)));
            let mut env = CensorEnv::with_program(
                Arc::new(factory),
                Layer::Tcp,
                base_cfg(),
                StdRng::seed_from_u64(0),
            );
            env.reset(&flow3());
            let mut out = env.step(Action::clamped(0.9, 0.0));
            while !out.done {
                out = env.step(Action::clamped(0.9, 0.0));
            }
            assert_eq!(out.blocked, !expect_success, "score {score}");
            assert_eq!(env.stats().success, expect_success, "score {score}");
            assert!(!env.stats().torn);
        }
    }

    /// A teardown program ends the episode mid-stream: the env reports
    /// `done` with payload still pending, marks the episode torn and
    /// blocked, and `observe()` goes dark like a reset connection.
    #[test]
    fn teardown_ends_episode_early_and_blocks() {
        use amoeba_classifiers::StatefulProgramFactory;
        let factory = StatefulProgramFactory::new(Arc::new(ConstantCensor::new(0.9)), 0, 1, 0.5)
            .with_teardown(true);
        let mut env = CensorEnv::with_program(
            Arc::new(factory),
            Layer::Tcp,
            base_cfg(),
            StdRng::seed_from_u64(0),
        );
        // A long flow served in tiny chunks would take many steps; the
        // teardown must end it on the very first observation.
        env.reset(&Flow::from_pairs(&[(1400, 0.0), (-1400, 1.0)]));
        let out = env.step(Action::clamped(0.1, 0.0));
        assert!(out.done, "Reset must terminate the episode");
        assert!(out.blocked);
        assert!(env.stats().torn);
        assert!(!env.stats().success);
        assert!(env.observe().is_none(), "torn connections go dark");
        // And reset() restores a live episode with a fresh program.
        env.reset(&flow3());
        assert!(env.observe().is_some());
        assert!(!env.stats().torn);
    }

    #[test]
    fn truncation_penalty_grows_with_split_count() {
        let mut cfg = base_cfg();
        cfg.lambda_data = 1.0;
        cfg.lambda_split = 0.5;
        let mut env = env_with(0.1, cfg);
        env.reset(&Flow::from_pairs(&[(1400, 0.0)]));
        let r1 = env.step(Action::clamped(0.1, 0.0)).reward;
        let r2 = env.step(Action::clamped(0.1, 0.0)).reward;
        // Same remaining-bytes scale, but the second truncation carries a
        // larger split term, so its reward must be lower or equal.
        assert!(r2 < r1 + 0.15, "r1={r1} r2={r2}");
    }
}
