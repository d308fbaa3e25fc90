//! Computed (not measured) kernel cost of the two backend operations,
//! derived from the served policy's layer shapes and the batch rows.
//!
//! Every linear map `k → n` over `r` rows is charged `r·(2·k·n + n)`
//! floating-point operations (one multiply and one add per weight, one
//! bias add per output) and a lower bound on bytes moved: its weights and
//! bias read once per call, `(k·n + n)·4` bytes, plus `r·(k + n)·4` bytes
//! of activations in and out. Gate nonlinearities and the GRU blend are
//! not counted.

use amoeba_core::{AmoebaConfig, ACTION_DIM};

/// One operation's per-call and per-row cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// FLOPs per batch row.
    pub flops_per_row: f64,
    /// Bytes of weights read per call.
    pub weight_bytes: f64,
    /// Bytes of activations read and written per batch row.
    pub bytes_per_row: f64,
}

impl OpCost {
    fn from_linears(maps: &[(usize, usize)]) -> Self {
        let mut c = OpCost {
            flops_per_row: 0.0,
            weight_bytes: 0.0,
            bytes_per_row: 0.0,
        };
        for &(k, n) in maps {
            let (k, n) = (k as f64, n as f64);
            c.flops_per_row += 2.0 * k * n + n;
            c.weight_bytes += (k * n + n) * 4.0;
            c.bytes_per_row += (k + n) * 4.0;
        }
        c
    }

    /// `(GFLOP, GB)` of `calls` calls covering `rows` rows in total.
    pub fn total(&self, calls: u64, rows: u64) -> (f64, f64) {
        let rows = rows as f64;
        (
            self.flops_per_row * rows * 1e-9,
            (self.weight_bytes * calls as f64 + self.bytes_per_row * rows) * 1e-9,
        )
    }
}

/// The cost of the policy built from `cfg`: `(push_batch, head_batch)`.
///
/// `push_batch` steps every GRU layer once: an input map `in → 3H` and a
/// recurrent map `H → 3H` per layer, with a 2-wide observation into the
/// first layer. `head_batch` runs the actor MLP from the concatenated
/// `2H` state through `actor_hidden` to the mean and log-std outputs.
pub fn policy_cost(cfg: &AmoebaConfig) -> (OpCost, OpCost) {
    let h = cfg.encoder_hidden;
    let mut gru = Vec::new();
    for layer in 0..cfg.encoder_layers {
        let input = if layer == 0 { 2 } else { h };
        gru.push((input, 3 * h));
        gru.push((h, 3 * h));
    }
    let mut mlp = Vec::new();
    let mut width = 2 * h;
    for &next in cfg.actor_hidden.iter().chain(&[2 * ACTION_DIM]) {
        mlp.push((width, next));
        width = next;
    }
    (OpCost::from_linears(&gru), OpCost::from_linears(&mlp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_follow_the_layer_shapes() {
        let cfg = AmoebaConfig {
            encoder_hidden: 4,
            encoder_layers: 1,
            actor_hidden: vec![3],
            ..AmoebaConfig::fast()
        };
        let (push, head) = policy_cost(&cfg);
        // GRU: 2→12 and 4→12.
        assert_eq!(
            push.flops_per_row,
            (2.0 * 24.0 + 12.0) + (2.0 * 48.0 + 12.0)
        );
        assert_eq!(push.weight_bytes, (24.0 + 12.0 + 48.0 + 12.0) * 4.0);
        // MLP: 8→3→4.
        assert_eq!(head.flops_per_row, (2.0 * 24.0 + 3.0) + (2.0 * 12.0 + 4.0));
        let (gflop, gb) = head.total(2, 10);
        assert!((gflop - 10.0 * head.flops_per_row * 1e-9).abs() < 1e-15);
        assert!(gb > 0.0);
    }
}
