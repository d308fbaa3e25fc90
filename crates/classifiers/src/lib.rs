//! # amoeba-classifiers
//!
//! The censoring classifiers of the Amoeba (CoNEXT'23) reproduction — the
//! ML models a censor deploys at the gateway (§5.1):
//!
//! * [`df::DfModel`] — Deep Fingerprinting CNN;
//! * [`sdae::SdaeModel`] — stacked denoising autoencoder;
//! * [`lstm::LstmModel`] — multi-layer LSTM over arbitrary-length flows;
//! * [`cumul::CumulCensor`] — SVM-RBF over CUMUL cumulative traces;
//! * [`trees::TreeCensor`] / [`trees::ForestCensor`] — DT/RF over 166
//!   hand-crafted features.
//!
//! All expose the black-box [`censor::Censor`] oracle used by the RL core;
//! NN families additionally keep their autograd graph ([`train::NnModel`])
//! for the white-box attack baselines.
//!
//! On top of the one-shot oracle sits [`program`]: streaming
//! [`program::CensorProgram`] state machines (warmup, hysteresis,
//! hard-label verdict-only gateways, mid-stream teardown) that the gym
//! and the serving dataplane train and serve against. The six one-shot
//! families become degenerate programs through
//! [`program::ClassifierProgramFactory`], pinned bit-for-bit.

#![warn(missing_docs)]

pub mod censor;
pub mod cumul;
pub mod df;
pub mod lstm;
pub mod metrics;
pub mod program;
pub mod sdae;
pub mod train;
pub mod trees;

pub use censor::{Censor, CensorKind, ConstantCensor, PrefixState};
pub use cumul::CumulCensor;
pub use df::{DfCensor, DfConfig, DfModel};
pub use lstm::{LstmCensor, LstmConfig, LstmModel};
pub use metrics::{evaluate, Metrics};
pub use program::{
    CensorDecision, CensorProgram, CensorProgramFactory, ClassifierProgram,
    ClassifierProgramFactory, HardLabelFactory, HardLabelProgram, StatefulProgram,
    StatefulProgramFactory,
};
pub use sdae::{SdaeCensor, SdaeConfig, SdaeModel};
pub use train::{
    train_censor, train_cumul, train_df, train_dt, train_lstm, train_nn_model, train_rf,
    train_sdae, NnModel, TrainConfig, TrainedCensor,
};
pub use trees::{ForestCensor, TreeCensor};
