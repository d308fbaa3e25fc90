//! Quick end-to-end sanity check: train a censor on Tor, train Amoeba
//! against it, report ASR before/after.
//!
//! Usage: `sanity [censor] [timesteps] [entropy_coef] [encoder_flows]
//! [encoder_epochs]`, where `censor` is one of `sdae df lstm dt rf cumul`
//! (default `dt`). An unknown censor or an unparseable number is an
//! error.
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use amoeba_classifiers::{evaluate, train_censor, Censor, CensorKind, TrainConfig};
use amoeba_core::{sensitive_flows, train_amoeba, AmoebaConfig};
use amoeba_traffic::{build_dataset, DatasetKind, Layer};

/// The censor named by `arg`, case-insensitively.
fn parse_censor(arg: &str) -> Result<CensorKind, String> {
    CensorKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(arg))
        .ok_or_else(|| {
            let valid: Vec<String> = CensorKind::ALL
                .iter()
                .map(|k| k.name().to_ascii_lowercase())
                .collect();
            format!("unknown censor {arg:?}; valid: {}", valid.join(", "))
        })
}

/// Positional argument `i` parsed as `T`, or `default` when absent.
fn arg<T: FromStr>(i: usize, name: &str, default: T) -> Result<T, String> {
    match std::env::args().nth(i) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("cannot parse {name} argument {s:?}")),
    }
}

/// The command line: the censor and the training budget.
struct Args {
    kind: CensorKind,
    timesteps: usize,
    entropy_coef: f32,
    encoder_flows: usize,
    encoder_epochs: usize,
}

fn parse_args() -> Result<Args, String> {
    Ok(Args {
        kind: match std::env::args().nth(1) {
            Some(s) => parse_censor(&s)?,
            None => CensorKind::Dt,
        },
        timesteps: arg(2, "timesteps", 6000)?,
        entropy_coef: arg(3, "entropy_coef", 3e-3)?,
        encoder_flows: arg(4, "encoder_flows", 128)?,
        encoder_epochs: arg(5, "encoder_epochs", 10)?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("sanity: {e}");
        exit(2)
    });
    let kind = args.kind;

    let t0 = Instant::now();
    let ds = build_dataset(DatasetKind::Tor, 300, None, 42);
    let splits = ds.split(42);
    let censor: Arc<dyn Censor> = Arc::new(train_censor(
        kind,
        &splits.clf_train,
        Layer::Tcp,
        &TrainConfig::fast(),
        1,
    ));
    let m = evaluate(censor.as_ref(), &splits.test);
    println!("[{:?}] {} censor: {}", t0.elapsed(), kind.name(), m);

    let attack_flows = sensitive_flows(&splits.attack_train);
    let test_flows = sensitive_flows(&splits.test);

    let cfg = AmoebaConfig {
        total_timesteps: args.timesteps,
        rollout_len: 128,
        encoder_epochs: args.encoder_epochs,
        encoder_hidden: 64,
        actor_hidden: vec![128, 64],
        n_envs: 8,
        lr: 5e-4,
        encoder_train_flows: args.encoder_flows,
        entropy_coef: args.entropy_coef,
        ..AmoebaConfig::fast()
    };
    let (agent, report) = train_amoeba(censor.clone(), &attack_flows, Layer::Tcp, &cfg, None);
    println!(
        "[{:?}] trained {} steps, {} queries, encoder loss {:.4}",
        t0.elapsed(),
        report.total_timesteps(),
        report.total_queries(),
        report.encoder_loss
    );
    for (i, it) in report.iterations.iter().enumerate() {
        if i % 8 == 0 || i == report.iterations.len() - 1 {
            println!(
                "  iter {i:>3}: reward {:+.3} rollout_asr {:.2} ent {:.2}",
                it.mean_reward, it.rollout_asr, it.entropy
            );
        }
    }
    let eval = agent.evaluate(&censor, &test_flows);
    println!(
        "[{:?}] Amoeba vs {}: ASR={:.1}% DO={:.1}% TO={:.1}%",
        t0.elapsed(),
        kind.name(),
        eval.asr() * 100.0,
        eval.data_overhead() * 100.0,
        eval.time_overhead() * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn censor_names_parse_case_insensitively() {
        for kind in CensorKind::ALL {
            assert_eq!(parse_censor(kind.name()), Ok(kind));
            assert_eq!(parse_censor(&kind.name().to_ascii_lowercase()), Ok(kind));
        }
    }

    #[test]
    fn unknown_censor_lists_the_valid_names() {
        let err = parse_censor("xgb").unwrap_err();
        assert!(err.contains("\"xgb\""), "{err}");
        for name in ["sdae", "df", "lstm", "dt", "rf", "cumul"] {
            assert!(err.contains(name), "{err}");
        }
    }
}
