//! # amoeba-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5). Each experiment lives in [`experiments`] and is
//! exposed both as a library function (returning a markdown block) and as
//! a binary (`cargo run --release -p amoeba-bench --bin table1`, …).
//! `repro_all` runs the full suite and emits the EXPERIMENTS.md body.
//!
//! The default [`Scale`] is CPU-sized; set `AMOEBA_SCALE=paper` for
//! paper-scale budgets (hours of CPU time).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fmt;
use std::sync::Arc;

use amoeba_classifiers::{train_censor, train_nn_model, Censor, CensorKind, NnModel, TrainConfig};
use amoeba_core::{
    pretrain_encoder, train_amoeba_with_encoder, AmoebaAgent, AmoebaConfig, EncoderSnapshot,
    TrainReport,
};
use amoeba_traffic::{build_dataset, DatasetKind, Flow, Label, NetEm, Splits};

pub mod experiments;
pub mod serve;

/// An environment variable [`Scale::from_env`] could not use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleEnvError {
    /// The variable's name.
    pub var: &'static str,
    /// Its value (lossily decoded when not UTF-8).
    pub value: String,
    /// What the value must be.
    pub expected: &'static str,
}

impl fmt::Display for ScaleEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for ScaleEnvError {}

impl ScaleEnvError {
    /// Reports the error on stderr and exits with status 2 — for the
    /// experiment binaries, which cannot run without a budget.
    pub fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(2)
    }
}

/// Experiment budget knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Flows per class per dataset.
    pub n_per_class: usize,
    /// Censor training budget.
    pub clf: TrainConfig,
    /// Amoeba PPO timesteps per censor.
    pub amoeba_timesteps: usize,
    /// Test flows used for attack evaluation.
    pub eval_flows: usize,
    /// Repeats for variance-sensitive experiments (Figure 8).
    pub repeats: usize,
    /// StateEncoder pretraining flows (Algorithm 2).
    pub encoder_flows: usize,
    /// StateEncoder pretraining epochs.
    pub encoder_epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// CPU-friendly default (minutes, not hours).
    pub fn small() -> Self {
        Self {
            n_per_class: 250,
            clf: TrainConfig::fast(),
            amoeba_timesteps: 40_000,
            eval_flows: 25,
            repeats: 1,
            encoder_flows: 512,
            encoder_epochs: 30,
            seed: 42,
        }
    }

    /// Paper-scale budgets (Table 3: 300k timesteps, full datasets).
    pub fn paper() -> Self {
        Self {
            n_per_class: 2_500,
            clf: TrainConfig::paper(),
            amoeba_timesteps: 300_000,
            eval_flows: 200,
            repeats: 5,
            encoder_flows: 12_000,
            encoder_epochs: 50,
            seed: 42,
        }
    }

    /// Reads `AMOEBA_SCALE` (`small` default, `paper` for full runs).
    /// `AMOEBA_STEPS` / `AMOEBA_FLOWS` / `AMOEBA_EVAL` override individual
    /// budgets on top of the chosen preset.
    ///
    /// # Errors
    /// An unknown `AMOEBA_SCALE`, or an override that is not a
    /// non-negative integer, is a [`ScaleEnvError`] naming the variable
    /// and its value — never a silent fallback to the default.
    pub fn from_env() -> Result<Self, ScaleEnvError> {
        Self::from_vars(|name| std::env::var_os(name))
    }

    /// [`Scale::from_env`] over an arbitrary variable lookup.
    fn from_vars(get: impl Fn(&str) -> Option<OsString>) -> Result<Self, ScaleEnvError> {
        let read = |var: &'static str| -> Result<Option<String>, ScaleEnvError> {
            get(var)
                .map(|v| {
                    v.into_string().map_err(|v| ScaleEnvError {
                        var,
                        value: v.to_string_lossy().into_owned(),
                        expected: "valid UTF-8",
                    })
                })
                .transpose()
        };
        let mut s = match read("AMOEBA_SCALE")?.as_deref() {
            None | Some("small") => Self::small(),
            Some("paper") => Self::paper(),
            Some(other) => {
                return Err(ScaleEnvError {
                    var: "AMOEBA_SCALE",
                    value: other.to_owned(),
                    expected: "one of small, paper",
                })
            }
        };
        let count = |var: &'static str| -> Result<Option<usize>, ScaleEnvError> {
            read(var)?
                .map(|v| {
                    v.parse().map_err(|_| ScaleEnvError {
                        var,
                        value: v,
                        expected: "a non-negative integer",
                    })
                })
                .transpose()
        };
        if let Some(n) = count("AMOEBA_STEPS")? {
            s.amoeba_timesteps = n;
        }
        if let Some(n) = count("AMOEBA_FLOWS")? {
            s.n_per_class = n;
        }
        if let Some(n) = count("AMOEBA_EVAL")? {
            s.eval_flows = n;
        }
        Ok(s)
    }

    /// Amoeba config sized for this scale.
    pub fn amoeba_config(&self, kind: DatasetKind) -> AmoebaConfig {
        let mut cfg = AmoebaConfig::fast()
            .with_layer(kind.layer())
            .with_timesteps(self.amoeba_timesteps)
            .with_seed(self.seed);
        cfg.encoder_train_flows = self.encoder_flows;
        cfg.encoder_epochs = self.encoder_epochs;
        cfg
    }
}

/// Shared experiment state: datasets, trained censors, NN models, Amoeba
/// agents — each trained once and cached across experiments.
pub struct Context {
    /// Budget knobs.
    pub scale: Scale,
    splits: BTreeMap<DatasetKind, Splits>,
    encoder: Option<(EncoderSnapshot, f32)>,
    censors: BTreeMap<(DatasetKind, CensorKind), Arc<dyn Censor>>,
    nn_models: BTreeMap<(DatasetKind, CensorKind), NnModel>,
    agents: BTreeMap<(DatasetKind, CensorKind), (AmoebaAgent, TrainReport)>,
}

impl Context {
    /// Builds datasets for both of the paper's dataset kinds.
    pub fn new(scale: Scale) -> Self {
        let mut splits = BTreeMap::new();
        for kind in [DatasetKind::Tor, DatasetKind::V2Ray] {
            let ds = build_dataset(kind, scale.n_per_class, Some(NetEm::default()), scale.seed);
            splits.insert(kind, ds.split(scale.seed));
        }
        Self {
            scale,
            splits,
            encoder: None,
            censors: BTreeMap::new(),
            nn_models: BTreeMap::new(),
            agents: BTreeMap::new(),
        }
    }

    /// The 40/40/10/10 splits of a dataset.
    pub fn splits(&self, kind: DatasetKind) -> &Splits {
        &self.splits[&kind]
    }

    /// Sensitive flows of the test split (attack targets), truncated to the
    /// evaluation budget.
    pub fn eval_flows(&self, kind: DatasetKind) -> Vec<Flow> {
        filter_sensitive(&self.splits[&kind].test, self.scale.eval_flows)
    }

    /// Sensitive flows of the attack_train split.
    pub fn attack_flows(&self, kind: DatasetKind) -> Vec<Flow> {
        filter_sensitive(&self.splits[&kind].attack_train, usize::MAX)
    }

    /// The shared pretrained StateEncoder (Algorithm 2; censor-agnostic).
    pub fn encoder(&mut self) -> (EncoderSnapshot, f32) {
        if self.encoder.is_none() {
            let cfg = self.scale.amoeba_config(DatasetKind::Tor);
            self.encoder = Some(pretrain_encoder(&cfg));
        }
        self.encoder.clone().expect("just initialised")
    }

    /// A trained censor, cached per (dataset, family).
    pub fn censor(&mut self, kind: DatasetKind, censor: CensorKind) -> Arc<dyn Censor> {
        if let Some(c) = self.censors.get(&(kind, censor)) {
            return Arc::clone(c);
        }
        let built: Arc<dyn Censor> = if censor.is_differentiable() {
            Arc::new(self.nn_model(kind, censor).censor())
        } else {
            Arc::new(train_censor(
                censor,
                &self.splits[&kind].clf_train,
                kind.layer(),
                &self.scale.clf,
                self.scale.seed,
            ))
        };
        self.censors.insert((kind, censor), Arc::clone(&built));
        built
    }

    /// A trained NN model with its graph intact (white-box attacks), cached.
    pub fn nn_model(&mut self, kind: DatasetKind, censor: CensorKind) -> &NnModel {
        if !self.nn_models.contains_key(&(kind, censor)) {
            let model = train_nn_model(
                censor,
                &self.splits[&kind].clf_train,
                kind.layer(),
                &self.scale.clf,
                self.scale.seed,
            );
            self.nn_models.insert((kind, censor), model);
        }
        &self.nn_models[&(kind, censor)]
    }

    /// A trained Amoeba agent against the given censor, cached.
    pub fn agent(&mut self, kind: DatasetKind, censor: CensorKind) -> (AmoebaAgent, TrainReport) {
        if let Some((a, r)) = self.agents.get(&(kind, censor)) {
            return (a.clone(), r.clone());
        }
        let oracle = self.censor(kind, censor);
        let (encoder, encoder_loss) = self.encoder();
        let flows = self.attack_flows(kind);
        let cfg = self.scale.amoeba_config(kind);
        let (agent, report) = train_amoeba_with_encoder(
            oracle,
            &flows,
            kind.layer(),
            &cfg,
            encoder,
            encoder_loss,
            None,
        );
        self.agents
            .insert((kind, censor), (agent.clone(), report.clone()));
        (agent, report)
    }
}

/// Sensitive flows of a dataset, at most `limit`.
pub fn filter_sensitive(ds: &amoeba_traffic::Dataset, limit: usize) -> Vec<Flow> {
    ds.flows
        .iter()
        .zip(&ds.labels)
        .filter(|(_, &l)| l == Label::Sensitive)
        .map(|(f, _)| f.clone())
        .take(limit)
        .collect()
}

/// Renders a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Renders a compact ASCII sparkline for a series in `[0, 1]`.
pub fn sparkline(values: &[f32]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|&v| BARS[((v.clamp(0.0, 1.0) * 7.0).round() as usize).min(7)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn sparkline_bounds() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn scale_env_parsing() {
        let s = Scale::small();
        assert!(s.n_per_class < Scale::paper().n_per_class);
    }

    /// `Scale::from_vars` over a fixed set of variables.
    fn scale_from(vars: &[(&str, &str)]) -> Result<Scale, ScaleEnvError> {
        Scale::from_vars(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| OsString::from(v))
        })
    }

    #[test]
    fn scale_env_presets_and_overrides() {
        let s = scale_from(&[]).unwrap();
        assert_eq!(s.n_per_class, Scale::small().n_per_class);
        let s = scale_from(&[("AMOEBA_SCALE", "small")]).unwrap();
        assert_eq!(s.amoeba_timesteps, Scale::small().amoeba_timesteps);
        let s = scale_from(&[
            ("AMOEBA_SCALE", "paper"),
            ("AMOEBA_STEPS", "1234"),
            ("AMOEBA_FLOWS", "56"),
            ("AMOEBA_EVAL", "7"),
        ])
        .unwrap();
        assert_eq!(s.encoder_flows, Scale::paper().encoder_flows);
        assert_eq!(
            (s.amoeba_timesteps, s.n_per_class, s.eval_flows),
            (1234, 56, 7)
        );
    }

    #[test]
    fn unknown_scale_is_an_error_naming_the_value() {
        let err = scale_from(&[("AMOEBA_SCALE", "huge")]).unwrap_err();
        assert_eq!(err.var, "AMOEBA_SCALE");
        assert_eq!(err.value, "huge");
        assert_eq!(
            err.to_string(),
            "AMOEBA_SCALE=\"huge\" is not one of small, paper"
        );
        assert!(scale_from(&[("AMOEBA_SCALE", "")]).is_err());
        assert!(scale_from(&[("AMOEBA_SCALE", "Paper")]).is_err());
    }

    #[test]
    fn unparseable_budgets_are_errors_naming_the_variable() {
        for var in ["AMOEBA_STEPS", "AMOEBA_FLOWS", "AMOEBA_EVAL"] {
            for bad in ["12k", "-1", "1.5", ""] {
                let err = scale_from(&[(var, bad)]).unwrap_err();
                assert_eq!((err.var, err.value.as_str()), (var, bad));
                assert!(err.to_string().starts_with(var), "{err}");
            }
        }
        // A bad override fails even when the preset is valid.
        let err = scale_from(&[("AMOEBA_SCALE", "paper"), ("AMOEBA_EVAL", "x")]).unwrap_err();
        assert_eq!(err.var, "AMOEBA_EVAL");
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_values_are_errors() {
        use std::os::unix::ffi::OsStringExt;
        let err = Scale::from_vars(|name| {
            (name == "AMOEBA_STEPS").then(|| OsString::from_vec(vec![b'1', 0xff]))
        })
        .unwrap_err();
        assert_eq!(err.var, "AMOEBA_STEPS");
        assert_eq!(err.expected, "valid UTF-8");
    }
}
