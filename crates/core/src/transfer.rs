//! Transferability (§5.5.4, Figure 10): adversarial flows generated
//! against one censor, scored by another without retraining. The
//! `fig10` experiment builds its matrix from [`asr_against`].

use std::sync::Arc;

use amoeba_classifiers::Censor;
use amoeba_traffic::Flow;

/// ASR of pre-generated adversarial flows against a target censor.
pub fn asr_against(censor: &Arc<dyn Censor>, adversarial_flows: &[Flow]) -> f32 {
    if adversarial_flows.is_empty() {
        return 0.0;
    }
    let evaded = adversarial_flows
        .iter()
        .filter(|f| !censor.blocks(f))
        .count();
    evaded as f32 / adversarial_flows.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_classifiers::{CensorKind, ConstantCensor};

    fn arc(score: f32) -> Arc<dyn Censor> {
        Arc::new(ConstantCensor {
            fixed_score: score,
            as_kind: CensorKind::Dt,
        })
    }

    #[test]
    fn asr_counts_evasions() {
        let flows = vec![
            Flow::from_pairs(&[(100, 0.0)]),
            Flow::from_pairs(&[(200, 0.0)]),
        ];
        assert_eq!(asr_against(&arc(0.1), &flows), 1.0);
        assert_eq!(asr_against(&arc(0.9), &flows), 0.0);
        assert_eq!(asr_against(&arc(0.9), &[]), 0.0);
    }
}
