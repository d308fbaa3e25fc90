//! Flow → numeric representations for the NN-based censors and the RL
//! agent.
//!
//! The paper (§5.1) tailors DF, SDAE and LSTM to consume the flow
//! representation of §3 — signed packet sizes plus inter-packet delays —
//! rather than their original direction-only inputs. [`FlowRepr`] holds the
//! normalisation constants and produces:
//!
//! * position-major fixed-length vectors (DF's Conv1d, SDAE's MLP);
//! * per-step 2-vectors (LSTM, the RL StateEncoder).

use crate::flow::{Flow, Packet};
use crate::generate::Layer;

/// Normalisation + shaping configuration for model inputs.
#[derive(Debug, Clone, Copy)]
pub struct FlowRepr {
    /// Fixed sequence length for position-major encodings; longer flows are
    /// truncated, shorter flows zero-padded.
    pub max_len: usize,
    /// Size normaliser (bytes): signed sizes map to `[-1, 1]`.
    pub max_size: f32,
    /// Delay normaliser (ms): delays map to `[0, 1]` (clamped).
    pub max_delay_ms: f32,
}

impl FlowRepr {
    /// Channels per position (size, delay).
    pub const CHANNELS: usize = 2;

    /// TCP-layer preset (paper: sizes discretised against 1460 B).
    pub fn tcp() -> Self {
        Self {
            max_len: 64,
            max_size: 1460.0,
            max_delay_ms: 500.0,
        }
    }

    /// TLS-record-layer preset (paper: 16 KB records).
    pub fn tls() -> Self {
        Self {
            max_len: 64,
            max_size: 16384.0,
            max_delay_ms: 500.0,
        }
    }

    /// Preset for a [`Layer`].
    pub fn for_layer(layer: Layer) -> Self {
        match layer {
            Layer::Tcp => Self::tcp(),
            Layer::TlsRecord => Self::tls(),
        }
    }

    /// Normalised signed size in `[-1, 1]`.
    pub fn norm_size(&self, size: i32) -> f32 {
        (size as f32 / self.max_size).clamp(-1.0, 1.0)
    }

    /// Normalised delay in `[0, 1]`.
    pub fn norm_delay(&self, delay_ms: f32) -> f32 {
        (delay_ms / self.max_delay_ms).clamp(0.0, 1.0)
    }

    /// Width of the position-major encoding (`max_len * CHANNELS`).
    pub fn width(&self) -> usize {
        self.max_len * Self::CHANNELS
    }

    /// Position-major fixed-length encoding: `[s_0, d_0, s_1, d_1, …]`,
    /// zero-padded/truncated to [`FlowRepr::max_len`] packets.
    pub fn to_position_major(&self, flow: &Flow) -> Vec<f32> {
        let mut out = vec![0.0f32; self.width()];
        for (i, p) in flow.packets.iter().take(self.max_len).enumerate() {
            out[i * 2] = self.norm_size(p.size);
            out[i * 2 + 1] = self.norm_delay(p.delay_ms);
        }
        out
    }

    /// Per-packet `(size, delay)` normalised pairs (variable length), for
    /// recurrent consumers.
    pub fn to_steps(&self, flow: &Flow) -> Vec<[f32; 2]> {
        flow.packets.iter().map(|p| self.to_step(p)).collect()
    }

    /// One packet's normalised `(size, delay)` pair: the timestep a
    /// recurrent consumer absorbs for it.
    pub fn to_step(&self, p: &Packet) -> [f32; 2] {
        [self.norm_size(p.size), self.norm_delay(p.delay_ms)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Packet;

    fn flow() -> Flow {
        let mut f = Flow::new();
        f.push(Packet::outbound(730, 0.0));
        f.push(Packet::inbound(1460, 250.0));
        f
    }

    #[test]
    fn normalisation_ranges() {
        let r = FlowRepr::tcp();
        assert!((r.norm_size(730) - 0.5).abs() < 1e-6);
        assert!((r.norm_size(-1460) + 1.0).abs() < 1e-6);
        assert_eq!(r.norm_size(100_000), 1.0); // clamped
        assert!((r.norm_delay(250.0) - 0.5).abs() < 1e-6);
        assert_eq!(r.norm_delay(10_000.0), 1.0); // clamped
        assert_eq!(r.norm_delay(-5.0), 0.0);
    }

    #[test]
    fn position_major_layout_and_padding() {
        let r = FlowRepr {
            max_len: 4,
            max_size: 1460.0,
            max_delay_ms: 500.0,
        };
        let v = r.to_position_major(&flow());
        assert_eq!(v.len(), 8);
        assert!((v[0] - 0.5).abs() < 1e-6);
        assert_eq!(v[1], 0.0);
        assert!((v[2] + 1.0).abs() < 1e-6);
        assert!((v[3] - 0.5).abs() < 1e-6);
        // padding
        assert_eq!(&v[4..], &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn position_major_truncates_long_flows() {
        let r = FlowRepr {
            max_len: 1,
            max_size: 1460.0,
            max_delay_ms: 500.0,
        };
        let v = r.to_position_major(&flow());
        assert_eq!(v.len(), 2);
        assert!((v[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn steps_preserve_length() {
        let r = FlowRepr::tcp();
        let steps = r.to_steps(&flow());
        assert_eq!(steps.len(), 2);
        assert!((steps[1][0] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn layer_presets() {
        assert_eq!(FlowRepr::for_layer(Layer::Tcp).max_size, 1460.0);
        assert_eq!(FlowRepr::for_layer(Layer::TlsRecord).max_size, 16384.0);
    }
}
