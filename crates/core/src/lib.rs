//! # amoeba-core
//!
//! The Amoeba adversarial-RL system (CoNEXT'23): the paper's primary
//! contribution.
//!
//! * [`kernel`] — the env-independent shaping kernel enforcing the §3
//!   constraints by construction (shared with the `amoeba-serve`
//!   dataplane);
//! * [`mod@env`] — the censor-in-the-loop RL gym and reward of §4.2 (with
//!   reward masking for §5.5.3), built on the kernel;
//! * [`encoder`] — the pretrained GRU StateEncoder of §4.3/Algorithm 2;
//! * [`policy`] — Gaussian actor & critic MLPs (§4.3, reparameterisation);
//! * [`ppo`] — Algorithm 1: parallel rollouts, GAE, clipped surrogate;
//! * [`agent`] — the high-level train/attack/evaluate API with §5.3
//!   metrics (ASR, data overhead, time overhead);
//! * [`transfer`] — the Figure 10 transferability harness;
//! * [`profile`] — §5.6.1 pre-stored adversarial profiles (Table 2);
//! * [`shaper`] — payload framing so morphed flows reassemble exactly.

#![warn(missing_docs)]

pub mod agent;
pub mod config;
pub mod encoder;
pub mod env;
pub mod kernel;
pub mod policy;
pub mod ppo;
pub mod profile;
pub mod shaper;
pub mod transfer;
pub mod validate;

pub use agent::{
    pretrain_encoder, sensitive_flows, train_amoeba, train_amoeba_program,
    train_amoeba_with_encoder, train_amoeba_with_encoder_program, AmoebaAgent, AttackOutcome,
    AttackReport, IterationStats, TrainReport,
};
pub use config::{AmoebaConfig, ReconLoss};
pub use encoder::{synthetic_flows, EncoderSnapshot, EncoderState, StateEncoder};
pub use env::{CensorEnv, EnvConfig, EpisodeStats, StepOutcome};
pub use kernel::{
    Action, ActionSpace, Observation, ShapeDecision, ShapedFrame, ShapingKernel, TransportEmulator,
};
pub use policy::{Actor, ActorSnapshot, Critic, CriticSnapshot, ACTION_DIM};
pub use ppo::{
    collect_rollouts, collect_rollouts_threaded, default_rollout_threads, gae, Batch,
    PolicySnapshots, PpoLearner, Trajectory, UpdateStats, Worker,
};
pub use profile::{EmbedResult, FlowProfile, ProfileCodecError, ProfileStore};
pub use shaper::{
    decode_frame, encode_frame, FrameError, ShapedReceiver, ShapedSender, HEADER_LEN, MIN_FRAME,
};
pub use transfer::{asr_against, transfer_matrix, TransferMatrix};
pub use validate::{verify_constraints, ConstraintViolation};
