//! Ablation of the §4.2 design argument: Amoeba supports *both*
//! truncation and padding because either alone has a documented failure
//! mode — padding-only "cannot circumvent censoring models that leverage
//! directional features", truncation-only "may hardly protect protocols
//! with fixed payload unit size such as Tor cells, given that censoring
//! can easily recover by summing the packet sizes in the same direction".
//!
//! This bench trains one agent per action space against the same censors
//! and prints the resulting ASR/overheads side by side.
//!
//! ```sh
//! cargo run --release -p amoeba-bench --bin ablation
//! ```

use std::sync::Arc;

use amoeba_bench::{filter_sensitive, markdown_table, Scale};
use amoeba_classifiers::{train_censor, Censor, CensorKind};
use amoeba_core::{pretrain_encoder, train_amoeba_with_encoder, ActionSpace};
use amoeba_traffic::{build_dataset, DatasetKind, NetEm};

fn main() {
    let mut scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    if std::env::var("AMOEBA_STEPS").is_err() {
        scale.amoeba_timesteps = 25_000;
    }
    let kind = DatasetKind::Tor;
    let splits = build_dataset(kind, scale.n_per_class, Some(NetEm::default()), scale.seed)
        .split(scale.seed);
    let attack = filter_sensitive(&splits.attack_train, usize::MAX);
    let eval = filter_sensitive(&splits.test, scale.eval_flows);

    let base_cfg = scale.amoeba_config(kind);
    let (encoder, encoder_loss) = pretrain_encoder(&base_cfg);

    println!(
        "## Ablation — §4.2 action space (Tor, {} steps/agent)\n",
        scale.amoeba_timesteps
    );
    println!("paper's claim: only-padding fails vs directional-feature censors; only-truncation fails vs cell-size censors; both is required.\n");

    for censor_kind in [CensorKind::Rf, CensorKind::Sdae, CensorKind::Cumul] {
        let censor: Arc<dyn Censor> = Arc::new(train_censor(
            censor_kind,
            &splits.clf_train,
            kind.layer(),
            &scale.clf,
            scale.seed,
        ));
        let mut rows = Vec::new();
        for (name, space) in [
            ("both (Amoeba)", ActionSpace::Both),
            ("padding only", ActionSpace::PaddingOnly),
            ("truncation only", ActionSpace::TruncationOnly),
        ] {
            let mut cfg = base_cfg.clone();
            cfg.action_space = space;
            let (agent, _) = train_amoeba_with_encoder(
                Arc::clone(&censor),
                &attack,
                kind.layer(),
                &cfg,
                encoder.clone(),
                encoder_loss,
                None,
            );
            let report = agent.evaluate(&censor, &eval);
            rows.push(vec![
                name.to_string(),
                format!("{:.1}", report.asr() * 100.0),
                format!("{:.1}", report.data_overhead() * 100.0),
                format!("{:.1}", report.time_overhead() * 100.0),
            ]);
        }
        println!("### vs {censor_kind}\n");
        println!(
            "{}",
            markdown_table(&["action space", "ASR %", "DO %", "TO %"], &rows)
        );
    }
}
