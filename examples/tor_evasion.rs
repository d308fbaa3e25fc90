//! Tor-over-TCP evasion against the hardest censor in the paper — the DF
//! convolutional network — with convergence tracking (the Figure 7 view).
//!
//! ```sh
//! cargo run --release --example tor_evasion [timesteps]
//! ```
//!
//! `timesteps` defaults to 60 000; a value that is not a non-negative
//! integer exits with status 2.

use std::sync::Arc;

use amoeba::classifiers::{evaluate, train_censor, Censor, CensorKind, TrainConfig};
use amoeba::core::{sensitive_flows, train_amoeba, AmoebaConfig};
use amoeba::traffic::{build_dataset, DatasetKind, Layer, NetEm};

fn main() {
    let timesteps: usize = match std::env::args().nth(1) {
        None => 60_000,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("error: timesteps argument {s:?} is not a non-negative integer");
            std::process::exit(2)
        }),
    };

    // Collect traffic through a mildly lossy path, as the paper does.
    let splits = build_dataset(DatasetKind::Tor, 300, Some(NetEm::default()), 42).split(42);
    let censor: Arc<dyn Censor> = Arc::new(train_censor(
        CensorKind::Df,
        &splits.clf_train,
        Layer::Tcp,
        &TrainConfig::fast(),
        1,
    ));
    println!("DF censor: {}", evaluate(censor.as_ref(), &splits.test));

    let attack_flows = sensitive_flows(&splits.attack_train);
    let eval_flows = sensitive_flows(&splits.test);
    let cfg = AmoebaConfig::fast().with_timesteps(timesteps).with_seed(3);
    let iterations = timesteps / (cfg.n_envs * cfg.rollout_len);
    let every = (iterations / 8).max(1);

    let (agent, report) = train_amoeba(
        Arc::clone(&censor),
        &attack_flows,
        Layer::Tcp,
        &cfg,
        Some((&eval_flows[..eval_flows.len().min(15)], every)),
    );

    println!("convergence (queries -> test ASR):");
    for it in &report.iterations {
        if let Some(asr) = it.eval_asr {
            println!(
                "  {:>8} queries  ASR {:>5.1}%  reward {:+.3}",
                it.queries,
                asr * 100.0,
                it.mean_reward
            );
        }
    }

    let eval = agent.evaluate(&censor, &eval_flows);
    let (trunc, pad, delay) = eval.mean_action_counts();
    println!(
        "final: ASR {:.1}% DO {:.1}% TO {:.1}% | actions/flow: {trunc:.1} truncations, {pad:.1} paddings, {delay:.1} delays",
        eval.asr() * 100.0,
        eval.data_overhead() * 100.0,
        eval.time_overhead() * 100.0
    );
}
