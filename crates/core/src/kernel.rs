//! The environment-independent shaping kernel: the §4.2 constraint logic
//! (payload conservation, delay clamping, action-space restriction) that
//! turns a raw policy action into a legal wire frame.
//!
//! Historically this logic lived inside the RL gym (`env.rs`); it is the
//! same arithmetic a *deployed* obfuscator must run per frame (§5.6.1), so
//! it is factored out here and shared by both [`crate::env::CensorEnv`]
//! (training) and the `amoeba-serve` dataplane (online serving) — one
//! implementation, no copy-paste drift.
//!
//! ## Constraint handling
//!
//! * **Eq. 1** (`Σ_j p̃_{i,j} ≥ p_i`): [`TransportEmulator`] keeps feeding
//!   the agent the remaining bytes of the current original packet until
//!   they are fully transmitted; truncation never loses payload, padding
//!   only adds.
//! * **Eq. 2** (`φ̃_{i,1} ≥ φ_i`, `φ̃_{i,j} ≥ 0`): the first chunk of
//!   packet *i* inherits the mandatory delay `φ_i`; follow-up chunks are
//!   already buffered and carry delay ≥ 0. The actor only ever *adds*
//!   `Δφ ∈ [0, max_delay]` (§4.3: `φ̃ = φ + Δφ`).
//!
//! (The paper's observation list advances the delay subscript across
//! truncations; physically the remaining chunk is already in the buffer,
//! so this implementation gives follow-up chunks a zero base delay —
//! noted in DESIGN.md §5.)

use amoeba_traffic::{Direction, Flow, Layer, Packet};

/// What the agent observes at each timestep: the head of the transport
/// buffer (§4.1: `x_t = (p, φ)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Remaining payload bytes of the current original packet.
    pub payload: u32,
    /// Direction of that payload.
    pub direction: Direction,
    /// Mandatory base delay in ms (`φ_i` for the first chunk, 0 after).
    pub base_delay_ms: f32,
}

impl Observation {
    /// Normalised `(signed size, delay)` pair for the StateEncoder.
    pub fn normalized(&self, layer: Layer, max_delay_ms: f32) -> [f32; 2] {
        let signed = self.direction.sign() as f32 * self.payload as f32;
        [
            (signed / layer.action_scale()).clamp(-1.0, 1.0),
            (self.base_delay_ms / max_delay_ms).clamp(0.0, 1.0),
        ]
    }
}

/// Which morphing operations the agent may use (§4.2 ablation).
///
/// The paper argues both are required: "an attack by only padding cannot
/// circumvent censoring models that leverage directional features …
/// attacks by only truncating may hardly protect protocols with fixed
/// payload unit size such as Tor cells". [`ActionSpace::Both`] is the
/// Amoeba design; the restricted variants exist for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActionSpace {
    /// Truncation and padding (the paper's design).
    #[default]
    Both,
    /// Every packet is sent whole (possibly enlarged); no splitting.
    PaddingOnly,
    /// Packets may be split but never enlarged.
    TruncationOnly,
}

/// The agent's action: raw continuous outputs before discretisation
/// (§4.3: `p ∈ [-1, 1]`, `Δφ ∈ [0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Action {
    /// Packet-size fraction; the magnitude selects the size, the sign is
    /// coerced to the payload's direction (DESIGN.md §5.2).
    pub size_frac: f32,
    /// Extra-delay fraction of `max_delay_ms`.
    pub delay_frac: f32,
}

impl Action {
    /// Clamps raw policy outputs into the legal box.
    pub fn clamped(size_frac: f32, delay_frac: f32) -> Self {
        Self {
            size_frac: size_frac.clamp(-1.0, 1.0),
            delay_frac: delay_frac.clamp(0.0, 1.0),
        }
    }
}

/// The kernel's verdict on one action against one observation: a fully
/// discretised, constraint-respecting frame shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeDecision {
    /// Wire size in bytes (payload + padding), after clamping.
    pub size: u32,
    /// Total emission delay: mandatory base delay + agent extra delay.
    pub delay_ms: f32,
    /// The agent-added delay component `Δφ` alone.
    pub extra_delay_ms: f32,
    /// Padding bytes (`size − remaining payload` when positive).
    pub padding: u32,
    /// Whether this frame truncates the current original packet.
    pub truncated: bool,
}

/// The stateless §4.2 constraint logic: clamps a raw action into a legal
/// [`ShapeDecision`] for a given observation. Shared between the RL gym
/// and the online dataplane.
#[derive(Debug, Clone, Copy)]
pub struct ShapingKernel {
    layer: Layer,
    max_delay_ms: f32,
    min_packet: u32,
    action_space: ActionSpace,
}

impl ShapingKernel {
    /// Builds a kernel for the given observation layer and limits.
    pub fn new(
        layer: Layer,
        max_delay_ms: f32,
        min_packet: u32,
        action_space: ActionSpace,
    ) -> Self {
        Self {
            layer,
            max_delay_ms,
            min_packet,
            action_space,
        }
    }

    /// Observation layer.
    pub fn layer(&self) -> Layer {
        self.layer
    }

    /// Maximum agent-added delay (ms).
    pub fn max_delay_ms(&self) -> f32 {
        self.max_delay_ms
    }

    /// Minimum wire size floor (bytes).
    pub fn min_packet(&self) -> u32 {
        self.min_packet
    }

    /// Available morphing operations.
    pub fn action_space(&self) -> ActionSpace {
        self.action_space
    }

    /// Pure decision function: discretises `action` against `obs`,
    /// enforcing the size box, the action-space restriction, and (when
    /// `force_flush` is set by a length cap) full transmission of the
    /// remaining payload.
    pub fn decide(&self, obs: &Observation, action: Action, force_flush: bool) -> ShapeDecision {
        let scale = self.layer.action_scale();
        let mut size = (action.size_frac.abs() * scale) as u32;
        size = size.clamp(self.min_packet.max(1), self.layer.max_unit());
        match self.action_space {
            ActionSpace::Both => {}
            // No splitting: the whole remaining payload goes out, enlarged
            // to the chosen size when that is bigger.
            ActionSpace::PaddingOnly => size = size.max(obs.payload),
            // No enlargement: cap at the remaining payload (the final
            // chunk then finishes the packet exactly, with zero padding).
            ActionSpace::TruncationOnly => size = size.min(obs.payload.max(1)),
        }
        if force_flush {
            // Length cap reached: transmit everything left of this packet.
            size = size.max(obs.payload);
        }

        let extra_delay_ms = action.delay_frac.clamp(0.0, 1.0) * self.max_delay_ms;
        ShapeDecision {
            size,
            delay_ms: obs.base_delay_ms + extra_delay_ms,
            extra_delay_ms,
            padding: size.saturating_sub(obs.payload),
            truncated: size < obs.payload,
        }
    }

    /// Normalised encoding of an emitted packet for the action-history
    /// encoder `E(a_{1:t})`.
    pub fn normalize_packet(&self, p: &Packet) -> [f32; 2] {
        [
            (p.size as f32 / self.layer.action_scale()).clamp(-1.0, 1.0),
            (p.delay_ms / self.max_delay_ms).clamp(0.0, 1.0),
        ]
    }
}

/// One emitted frame plus the emulator bookkeeping that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapedFrame {
    /// The adversarial packet that goes on the wire.
    pub packet: Packet,
    /// Padding bytes added.
    pub padding: u32,
    /// Agent-added delay component (ms).
    pub extra_delay_ms: f32,
    /// Whether this frame truncated the current original packet.
    pub truncated: bool,
    /// Truncation count for the current original packet so far.
    pub truncation_count: usize,
}

/// Transport-layer emulator: reads original packets from a queue and
/// tracks the remaining payload of the packet being morphed. Used by the
/// RL gym and (per-session) by the serving dataplane.
#[derive(Debug, Clone)]
pub struct TransportEmulator {
    original: Vec<Packet>,
    /// Index of the packet currently being transmitted.
    cursor: usize,
    /// Bytes of the current packet still to send.
    remaining: u32,
    /// Whether the current packet has emitted at least one chunk.
    chunk_sent: bool,
    /// Truncation count for the current packet (`n` in the data penalty).
    truncations_current: usize,
}

impl TransportEmulator {
    /// Starts emulating the given original flow.
    pub fn new(flow: &Flow) -> Self {
        let remaining = flow.packets.first().map(|p| p.magnitude()).unwrap_or(0);
        Self {
            original: flow.packets.clone(),
            cursor: 0,
            remaining,
            chunk_sent: false,
            truncations_current: 0,
        }
    }

    /// Total original payload bytes.
    pub fn original_payload(&self) -> u64 {
        self.original.iter().map(|p| p.magnitude() as u64).sum()
    }

    /// Current observation, or `None` when the flow is fully transmitted.
    pub fn observe(&self) -> Option<Observation> {
        let p = self.original.get(self.cursor)?;
        Some(Observation {
            payload: self.remaining,
            direction: p.direction(),
            base_delay_ms: if self.chunk_sent { 0.0 } else { p.delay_ms },
        })
    }

    /// True when every original byte has been transmitted.
    pub fn finished(&self) -> bool {
        self.cursor >= self.original.len()
    }

    /// Emits one adversarial frame through a shared [`ShapingKernel`] —
    /// the path both the gym and the dataplane use.
    ///
    /// # Panics
    /// Panics if called after the flow finished.
    pub fn apply_kernel(
        &mut self,
        kernel: &ShapingKernel,
        action: Action,
        force_flush: bool,
    ) -> ShapedFrame {
        let obs = self.observe().expect("apply called on finished emulator");
        let decision = kernel.decide(&obs, action, force_flush);
        let packet = Packet::new(obs.direction, decision.size, decision.delay_ms);

        if decision.truncated {
            self.remaining -= decision.size;
            self.chunk_sent = true;
            self.truncations_current += 1;
        } else {
            self.cursor += 1;
            self.remaining = self
                .original
                .get(self.cursor)
                .map(|p| p.magnitude())
                .unwrap_or(0);
            self.chunk_sent = false;
            self.truncations_current = 0;
        }
        ShapedFrame {
            packet,
            padding: decision.padding,
            extra_delay_ms: decision.extra_delay_ms,
            truncated: decision.truncated,
            truncation_count: self.truncations_current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> ShapingKernel {
        ShapingKernel::new(Layer::Tcp, 100.0, 1, ActionSpace::Both)
    }

    #[test]
    fn decide_is_pure_and_clamps_into_the_box() {
        let k = kernel();
        let obs = Observation {
            payload: 1000,
            direction: Direction::Outbound,
            base_delay_ms: 5.0,
        };
        let d1 = k.decide(&obs, Action::clamped(0.2, 0.5), false);
        let d2 = k.decide(&obs, Action::clamped(0.2, 0.5), false);
        assert_eq!(d1, d2, "decide must be deterministic");
        assert_eq!(d1.size, 292);
        assert!(d1.truncated);
        assert_eq!(d1.padding, 0);
        assert!((d1.extra_delay_ms - 50.0).abs() < 1e-6);
        assert!((d1.delay_ms - 55.0).abs() < 1e-6);

        // Oversized actions clamp to the layer max unit.
        let d = k.decide(&obs, Action::clamped(1.0, 0.0), false);
        assert_eq!(d.size, Layer::Tcp.max_unit());
    }

    #[test]
    fn decide_respects_min_packet_and_force_flush() {
        let k = ShapingKernel::new(Layer::Tcp, 100.0, 64, ActionSpace::Both);
        let obs = Observation {
            payload: 1000,
            direction: Direction::Inbound,
            base_delay_ms: 0.0,
        };
        assert!(k.decide(&obs, Action::clamped(0.0, 0.0), false).size >= 64);
        let flushed = k.decide(&obs, Action::clamped(0.01, 0.0), true);
        assert_eq!(flushed.size, 1000, "force_flush transmits everything");
        assert!(!flushed.truncated);
    }

    #[test]
    fn decide_matches_action_space_restrictions() {
        let obs = Observation {
            payload: 700,
            direction: Direction::Outbound,
            base_delay_ms: 0.0,
        };
        let pad_only = ShapingKernel::new(Layer::Tcp, 100.0, 1, ActionSpace::PaddingOnly);
        let d = pad_only.decide(&obs, Action::clamped(0.05, 0.0), false);
        assert!(!d.truncated, "PaddingOnly never splits");
        assert!(d.size >= 700);

        let trunc_only = ShapingKernel::new(Layer::Tcp, 100.0, 1, ActionSpace::TruncationOnly);
        let d = trunc_only.decide(&obs, Action::clamped(0.9, 0.0), false);
        assert_eq!(d.padding, 0, "TruncationOnly never pads");
        assert!(d.size <= 700);
    }

    #[test]
    fn normalize_packet_matches_observation_scale() {
        let k = kernel();
        let enc = k.normalize_packet(&Packet::outbound(730, 50.0));
        assert!((enc[0] - 0.5).abs() < 1e-6);
        assert!((enc[1] - 0.5).abs() < 1e-6);
        let inbound = k.normalize_packet(&Packet::inbound(73_000, 5000.0));
        assert_eq!(inbound, [-1.0, 1.0], "values clamp into the box");
    }
}
