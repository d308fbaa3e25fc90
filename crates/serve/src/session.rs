//! The per-flow session state machine: an application byte stream per
//! direction, framed by the shared [`ShapingKernel`] under the policy's
//! actions, with end-to-end reassembly and on-path (censor-visible)
//! accounting.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use amoeba_core::shaper::{ShapedReceiver, ShapedSender, HEADER_LEN};
use amoeba_core::{Action, Observation, ShapingKernel, TransportEmulator};
use amoeba_traffic::{Direction, Flow, NetEm, Packet};

use crate::registry::Tenant;
use crate::ServeConfig;

/// Index into the per-direction sender/receiver pairs.
fn dir_idx(d: Direction) -> usize {
    match d {
        Direction::Outbound => 0,
        Direction::Inbound => 1,
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-session payload stream tag.
const STREAM_PAYLOAD: u64 = 1;
/// Per-session action-sampling / NetEm stream tag.
const STREAM_ACTION: u64 = 2;

/// Derives a session's RNG for one `stream` from `(seed, session_id)`
/// **only** — never from insertion order, shard id, or batch grouping —
/// so a session's randomness is a pure function of its identity. This is
/// one of the invariance pillars: permuting admission order or moving a
/// session to a different shard cannot change its wire output. The double
/// SplitMix64 avalanche also decorrelates the streams of adjacent session
/// ids (the previous `seed ^ id * K` scheme left related ids one XOR
/// apart).
fn stream_rng(seed: u64, session_id: usize, stream: u64) -> StdRng {
    let mixed = splitmix64(splitmix64(seed ^ splitmix64(session_id as u64)) ^ stream);
    StdRng::seed_from_u64(mixed)
}

/// What one [`Session::advance`] call emitted.
#[derive(Debug, Clone, Copy)]
pub struct FrameEvent {
    /// The emitted packet in the *kernel's* coordinates (header-exclusive
    /// size, pre-impairment delay) — exactly what the training gym fed
    /// the action-history encoder `E(a_{1:t})`, so the frozen policy sees
    /// the input distribution it was trained on. The on-path wire copy
    /// (header included, possibly impaired) lives in [`Session::wire`].
    pub emitted: Packet,
    /// The session transmitted its last frame.
    pub done: bool,
}

/// One live shaped connection: offered application traffic, per-direction
/// byte streams in flight, and the adversarial wire flow the censor sees.
pub struct Session {
    id: usize,
    /// The `(policy, censor)` pair serving this session. Deliberately
    /// *not* part of the RNG derivation: payload bytes depend on
    /// `(seed, session_id)` only, while actions (and hence everything
    /// downstream of them) depend on the policy through its weights.
    tenant: Tenant,
    emulator: TransportEmulator,
    tx: [ShapedSender; 2],
    rx: [ShapedReceiver; 2],
    /// Reference copies for end-to-end verification; cleared on finish.
    expected: [Vec<u8>; 2],
    /// The on-path view (headers included, impairment applied).
    wire: Flow,
    frames: usize,
    max_frames: usize,
    /// Virtual time (ms) at which the next decision is taken — the
    /// emission time of the previous frame.
    clock_ms: f64,
    payload_bytes: u64,
    header_bytes: u64,
    padding_bytes: u64,
    extra_delay_ms: f32,
    rng: StdRng,
    blocked_midstream: bool,
    /// The censor program issued a `Reset`: the connection was torn down
    /// mid-stream and the session terminated early.
    torn: bool,
    final_score: f32,
    stream_ok: bool,
    done: bool,
}

impl Session {
    /// Opens a session over an offered application flow, generating a
    /// deterministic pseudo-random payload stream per direction sized to
    /// the flow's byte totals.
    pub fn new(id: usize, offered: &Flow, cfg: &ServeConfig) -> Self {
        let mut payload_rng = stream_rng(cfg.seed, id, STREAM_PAYLOAD);
        let mut stream = |dir: Direction| {
            let mut bytes = vec![0u8; offered.bytes(dir) as usize];
            payload_rng.fill_bytes(&mut bytes);
            bytes
        };
        let out = stream(Direction::Outbound);
        let inb = stream(Direction::Inbound);
        Self::with_payload(id, offered, cfg, out, inb)
    }

    /// Opens a session carrying caller-supplied byte streams. Stream
    /// lengths must not exceed the offered flow's per-direction byte
    /// totals (the kernel only guarantees that much frame capacity).
    ///
    /// # Panics
    /// Panics if a stream exceeds its direction's offered capacity.
    pub fn with_payload(
        id: usize,
        offered: &Flow,
        cfg: &ServeConfig,
        outbound: Vec<u8>,
        inbound: Vec<u8>,
    ) -> Self {
        assert!(
            outbound.len() as u64 <= offered.bytes(Direction::Outbound),
            "outbound stream exceeds offered capacity"
        );
        assert!(
            inbound.len() as u64 <= offered.bytes(Direction::Inbound),
            "inbound stream exceeds offered capacity"
        );
        let emulator = TransportEmulator::new(offered);
        let done = emulator.finished();
        // Reference copies are only needed when the dataplane will verify
        // reassembly; at scale the doubled payload memory matters.
        let expected = if cfg.verify_streams {
            [outbound.clone(), inbound.clone()]
        } else {
            [Vec::new(), Vec::new()]
        };
        Self {
            id,
            tenant: Tenant::default(),
            payload_bytes: (outbound.len() + inbound.len()) as u64,
            expected,
            tx: [ShapedSender::new(outbound), ShapedSender::new(inbound)],
            rx: [ShapedReceiver::new(), ShapedReceiver::new()],
            emulator,
            wire: Flow::new(),
            frames: 0,
            max_frames: offered.len() * cfg.max_len_factor.max(1) + cfg.max_len_slack,
            clock_ms: 0.0,
            header_bytes: 0,
            padding_bytes: 0,
            extra_delay_ms: 0.0,
            rng: stream_rng(cfg.seed, id, STREAM_ACTION),
            blocked_midstream: false,
            torn: false,
            final_score: 0.0,
            stream_ok: done,
            done,
        }
    }

    /// Session identifier (index in the dataplane).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Assigns the `(policy, censor)` pair serving this session
    /// (builder-style; defaults to the first registered policy and
    /// censor). The handles must come from the engine this session will
    /// run on — `ServeEngine` validates them at admission, and
    /// `Shard::new` re-validates against its tenant tables.
    pub fn with_tenant(mut self, tenant: Tenant) -> Self {
        self.tenant = tenant;
        self
    }

    /// The `(policy, censor)` pair serving this session.
    pub fn tenant(&self) -> Tenant {
        self.tenant
    }

    /// Virtual time at which this session's next decision is due.
    pub fn ready_at(&self) -> f64 {
        self.clock_ms
    }

    /// All frames transmitted.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Frames emitted so far (pre-impairment).
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Application payload bytes carried (both directions).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// The adversarial flow as the on-path censor observes it.
    pub fn wire(&self) -> &Flow {
        &self.wire
    }

    /// The censor's verdict on a mid-stream prefix, once one blocked.
    pub fn blocked_midstream(&self) -> bool {
        self.blocked_midstream
    }

    /// Marks the flow as blocked by an inline verdict.
    pub(crate) fn set_blocked_midstream(&mut self) {
        self.blocked_midstream = true;
    }

    /// The censor program tore the connection down mid-stream
    /// ([`amoeba_classifiers::CensorDecision::Reset`]).
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// Terminates the session early on a censor `Reset`: the session is
    /// done (it never re-enters the scheduler heap), its remaining frames
    /// are never emitted, and its outcome reports
    /// [`crate::SessionStatus::Torn`]. Teardown is terminal — a torn
    /// session's program is never observed again.
    pub(crate) fn tear_down(&mut self) {
        self.torn = true;
        self.done = true;
    }

    /// Final censor score (populated by the dataplane on completion).
    pub fn final_score(&self) -> f32 {
        self.final_score
    }

    pub(crate) fn set_final_score(&mut self, score: f32) {
        self.final_score = score;
    }

    /// Current head-of-buffer observation, `None` once done.
    pub fn observe(&self) -> Option<Observation> {
        self.emulator.observe()
    }

    /// Per-session randomness (action sampling; NetEm shares it).
    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Executes one policy action: shapes a frame through the kernel,
    /// moves stream bytes through the sender/receiver pair, applies
    /// optional path impairment to the censor-visible copy, and advances
    /// the session's virtual clock by the frame's emission delay.
    ///
    /// # Panics
    /// Panics if called on a finished session.
    pub fn advance(
        &mut self,
        kernel: &ShapingKernel,
        action: Action,
        netem: Option<&NetEm>,
    ) -> FrameEvent {
        assert!(!self.done, "advance on finished session");
        let force_flush = self.frames + 1 >= self.max_frames;
        let frame = self.emulator.apply_kernel(kernel, action, force_flush);

        // Frame the stream bytes: header rides on top of the policy-chosen
        // size so capacity always covers the payload the kernel moved.
        let dir = frame.packet.direction();
        let wire_size = frame.packet.magnitude() as usize + HEADER_LEN;
        let d = dir_idx(dir);
        let before = self.tx[d].remaining();
        let bytes = self.tx[d].next_frame(wire_size);
        let carried = before - self.tx[d].remaining();
        self.rx[d]
            .push_frame(&bytes)
            .expect("self-emitted frame must decode");
        self.header_bytes += HEADER_LEN as u64;
        self.padding_bytes += (wire_size - HEADER_LEN - carried) as u64;
        self.extra_delay_ms += frame.extra_delay_ms;

        // The on-path view: header-inclusive size, sender-side delay,
        // optionally impaired.
        let wire_pkt = Packet::new(dir, wire_size as u32, frame.packet.delay_ms);
        let first = self.wire.is_empty();
        match netem {
            Some(ne) => {
                let (observed, dup) = ne.apply_packet(wire_pkt, first, &mut self.rng);
                self.wire.push(observed);
                if let Some(retx) = dup {
                    self.wire.push(retx);
                }
            }
            None => self.wire.push(wire_pkt),
        }

        self.frames += 1;
        self.clock_ms += frame.packet.delay_ms as f64;
        self.done = self.emulator.finished();
        FrameEvent {
            emitted: frame.packet,
            done: self.done,
        }
    }

    /// Verifies end-to-end reassembly (both directions drained and
    /// reconstructed exactly) and releases the stream buffers. Returns
    /// whether the streams survived intact.
    pub(crate) fn finish_streams(&mut self, verify: bool) -> bool {
        if verify {
            self.stream_ok = (0..2).all(|d| {
                self.tx[d].finished() && self.rx[d].payload() == self.expected[d].as_slice()
            });
        } else {
            self.stream_ok = true;
        }
        for d in 0..2 {
            self.tx[d] = ShapedSender::new(Vec::new());
            self.rx[d] = ShapedReceiver::new();
            self.expected[d] = Vec::new();
        }
        self.stream_ok
    }

    /// Whether the session finished evading: never blocked midstream,
    /// never torn down, and final score below the 0.5 detection
    /// threshold. Meaningful once the session is done; also what
    /// telemetry counts per tenant.
    pub(crate) fn evaded(&self) -> bool {
        !self.blocked_midstream && !self.torn && self.final_score < 0.5
    }

    /// Consumes the session into its report row.
    pub(crate) fn into_outcome(self) -> crate::SessionOutcome {
        crate::SessionOutcome {
            id: self.id,
            tenant: self.tenant,
            evaded: self.evaded(),
            status: if self.torn {
                crate::SessionStatus::Torn
            } else {
                crate::SessionStatus::Completed
            },
            blocked_midstream: self.blocked_midstream,
            final_score: self.final_score,
            frames: self.frames,
            payload_bytes: self.payload_bytes,
            wire_bytes: self.wire.total_bytes(),
            padding_bytes: self.padding_bytes,
            header_bytes: self.header_bytes,
            extra_delay_ms: self.extra_delay_ms,
            duration_ms: self.clock_ms,
            stream_ok: self.stream_ok,
            // The wire grew by doubling; the report keeps it for the
            // caller's lifetime, so copy it into an allocation of exactly
            // its length and let the growth buffer go. (`shrink_to_fit`
            // measured worse: it leaves fragmented tails behind.)
            wire: Flow {
                packets: self.wire.packets.to_vec(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_traffic::Layer;

    fn cfg() -> ServeConfig {
        ServeConfig::new(Layer::Tcp).with_seed(3)
    }

    fn offered() -> Flow {
        Flow::from_pairs(&[(900, 0.0), (-1400, 4.0), (300, 1.0), (-200, 0.5)])
    }

    #[test]
    fn session_drains_both_streams_and_reassembles() {
        let cfg = cfg();
        let kernel = cfg.kernel();
        let mut s = Session::new(0, &offered(), &cfg);
        assert_eq!(s.payload_bytes(), 2800);
        let expected = s.expected.clone();
        let actions = [
            Action::clamped(0.25, 0.1),
            Action::clamped(0.9, 0.0),
            Action::clamped(0.05, 0.6),
        ];
        let mut i = 0;
        while !s.is_done() {
            let a = actions[i % actions.len()];
            i += 1;
            s.advance(&kernel, a, None);
        }
        // Both byte streams fully delivered, bit-exact.
        for (d, exp) in expected.iter().enumerate() {
            assert!(s.tx[d].finished(), "direction {d} not drained");
            assert_eq!(s.rx[d].payload(), exp.as_slice());
        }
        assert!(s.finish_streams(true));
        // Wire sizes are header-inclusive.
        assert!(s.wire().total_bytes() >= 2800 + (s.frames() * HEADER_LEN) as u64);
        assert!((s.ready_at() - s.wire().delays().iter().sum::<f32>() as f64).abs() < 1e-3);
    }

    #[test]
    fn frame_cap_bounds_session_length() {
        let cfg = cfg();
        let kernel = cfg.kernel();
        let offered = offered();
        let mut s = Session::new(1, &offered, &cfg);
        // Tiny truncating actions forever: the cap must force completion.
        // Once the cap trips, each further frame flushes one whole original
        // packet, so the overshoot is bounded by the offered length.
        while !s.is_done() {
            s.advance(&kernel, Action::clamped(0.005, 0.0), None);
            assert!(s.frames() <= s.max_frames + offered.len(), "cap overrun");
        }
        assert!(s.finish_streams(true), "flushed streams must still verify");
    }

    #[test]
    fn netem_impairs_censor_view_but_not_reassembly() {
        let cfg = cfg().with_netem(NetEm {
            drop_rate: 0.3,
            retransmit_timeout_ms: 80.0,
            jitter_std: 0.2,
        });
        let kernel = cfg.kernel();
        let netem = cfg.netem;
        let mut s = Session::new(2, &offered(), &cfg);
        while !s.is_done() {
            s.advance(&kernel, Action::clamped(0.4, 0.2), netem.as_ref());
        }
        assert!(s.finish_streams(true));
        // With 30% duplication the on-path view should hold extra packets.
        assert!(s.wire().len() >= s.frames());
    }

    #[test]
    fn empty_offered_flow_is_immediately_done() {
        let s = Session::new(3, &Flow::new(), &cfg());
        assert!(s.is_done());
        assert_eq!(s.frames(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds offered capacity")]
    fn oversized_payload_rejected() {
        let _ = Session::with_payload(
            4,
            &Flow::from_pairs(&[(10, 0.0)]),
            &cfg(),
            vec![0u8; 11],
            Vec::new(),
        );
    }
}
