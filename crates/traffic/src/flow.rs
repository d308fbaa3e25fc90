//! Core traffic types: [`Packet`] and [`Flow`].
//!
//! Following the paper's §3 formulation, a flow is the tuple `S = (P, Φ)`:
//! a vector of packet sizes `P` (signed — positive sizes travel client →
//! server, negative sizes server → client, matching the tshark
//! preprocessing in §5.4) and a vector of inter-packet delays `Φ` in
//! milliseconds.

/// Direction of a packet relative to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server ("+" in the paper).
    Outbound,
    /// Server → client ("−" in the paper).
    Inbound,
}

impl Direction {
    /// Sign multiplier used in the signed-size representation.
    pub fn sign(&self) -> i32 {
        match self {
            Direction::Outbound => 1,
            Direction::Inbound => -1,
        }
    }
}

/// One packet observation: signed size plus inter-packet delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Signed size in bytes; the sign encodes [`Direction`].
    pub size: i32,
    /// Delay since the previous packet in the flow, in milliseconds
    /// (0 for the first packet).
    pub delay_ms: f32,
}

impl Packet {
    /// Builds a packet from direction + unsigned size.
    pub fn new(direction: Direction, size: u32, delay_ms: f32) -> Self {
        assert!(size > 0, "Packet size must be positive");
        Self {
            size: direction.sign() * size as i32,
            delay_ms,
        }
    }

    /// Outbound helper.
    pub fn outbound(size: u32, delay_ms: f32) -> Self {
        Self::new(Direction::Outbound, size, delay_ms)
    }

    /// Inbound helper.
    pub fn inbound(size: u32, delay_ms: f32) -> Self {
        Self::new(Direction::Inbound, size, delay_ms)
    }

    /// Direction derived from the sign.
    pub fn direction(&self) -> Direction {
        if self.size >= 0 {
            Direction::Outbound
        } else {
            Direction::Inbound
        }
    }

    /// Absolute size in bytes.
    pub fn magnitude(&self) -> u32 {
        self.size.unsigned_abs()
    }
}

/// Class label used throughout the reproduction.
///
/// Note the polarity: *positive = sensitive* (tunnelled / to-be-blocked)
/// — the standard detection convention, which the metrics module follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Innocuous traffic the censor allows.
    Benign,
    /// Tunnelled/anti-censorship traffic the censor blocks.
    Sensitive,
}

impl Label {
    /// 0/1 encoding (1 = sensitive).
    pub fn as_u8(&self) -> u8 {
        match self {
            Label::Benign => 0,
            Label::Sensitive => 1,
        }
    }

    /// Decodes a 0/1 label.
    pub fn from_u8(v: u8) -> Label {
        if v == 0 {
            Label::Benign
        } else {
            Label::Sensitive
        }
    }
}

/// A bidirectional network flow: ordered packets with timing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Flow {
    /// Packets in transmission order.
    pub packets: Vec<Packet>,
}

impl Flow {
    /// Empty flow.
    pub fn new() -> Self {
        Self {
            packets: Vec::new(),
        }
    }

    /// Builds a flow from `(signed size, delay)` pairs.
    pub fn from_pairs(pairs: &[(i32, f32)]) -> Self {
        Self {
            packets: pairs
                .iter()
                .map(|&(size, delay_ms)| {
                    assert!(size != 0, "Flow packets must have nonzero size");
                    Packet { size, delay_ms }
                })
                .collect(),
        }
    }

    /// Builds a flow from emitted wire frames: `(direction, wire size,
    /// delay)` triples, as produced by a shaping dataplane. This is the
    /// bridge from a frame stream to the censor/feature pipeline — the
    /// resulting [`Flow`] feeds every existing classifier without ad-hoc
    /// conversion.
    ///
    /// # Panics
    /// Panics on a zero wire size (frames always carry at least a header).
    pub fn from_frames<I>(frames: I) -> Self
    where
        I: IntoIterator<Item = (Direction, u32, f32)>,
    {
        Self {
            packets: frames
                .into_iter()
                .map(|(dir, size, delay_ms)| Packet::new(dir, size, delay_ms))
                .collect(),
        }
    }

    /// Appends a packet.
    pub fn push(&mut self, p: Packet) {
        self.packets.push(p);
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the flow has no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Signed sizes vector `P`.
    pub fn sizes(&self) -> Vec<i32> {
        self.packets.iter().map(|p| p.size).collect()
    }

    /// Delays vector `Φ` in milliseconds.
    pub fn delays(&self) -> Vec<f32> {
        self.packets.iter().map(|p| p.delay_ms).collect()
    }

    /// Total bytes in the given direction.
    pub fn bytes(&self, dir: Direction) -> u64 {
        self.packets
            .iter()
            .filter(|p| p.direction() == dir)
            .map(|p| p.magnitude() as u64)
            .sum()
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.magnitude() as u64).sum()
    }

    /// Packet count in the given direction.
    pub fn count(&self, dir: Direction) -> usize {
        self.packets.iter().filter(|p| p.direction() == dir).count()
    }

    /// Flow duration: sum of all inter-packet delays (time from first to
    /// last packet), in milliseconds.
    pub fn duration_ms(&self) -> f32 {
        self.packets.iter().skip(1).map(|p| p.delay_ms).sum()
    }

    /// Truncates to the first `n` packets (prefix view used by censors that
    /// decide mid-flow).
    pub fn prefix(&self, n: usize) -> Flow {
        Flow {
            packets: self.packets[..n.min(self.packets.len())].to_vec(),
        }
    }

    /// Maximal same-direction runs ("bursts"), as
    /// `(direction, packet count, byte count, duration_ms)`.
    pub fn bursts(&self) -> Vec<(Direction, usize, u64, f32)> {
        self.burst_iter().collect()
    }

    /// The bursts of [`Flow::bursts`], lazily and without allocating.
    pub(crate) fn burst_iter(&self) -> Bursts<'_> {
        Bursts {
            rest: &self.packets,
        }
    }

    /// Delays between consecutive packets *in the same direction*
    /// (the quantity plotted in Figure 11).
    pub fn same_direction_gaps(&self, dir: Direction) -> Vec<f32> {
        let mut clock = GapClock::default();
        self.packets
            .iter()
            .filter_map(|p| clock.tick(p, dir))
            .collect()
    }
}

/// Iterator behind [`Flow::burst_iter`].
#[derive(Debug, Clone)]
pub(crate) struct Bursts<'a> {
    rest: &'a [Packet],
}

impl Iterator for Bursts<'_> {
    type Item = (Direction, usize, u64, f32);

    fn next(&mut self) -> Option<Self::Item> {
        let (first, tail) = self.rest.split_first()?;
        let dir = first.direction();
        let run = tail.iter().take_while(|p| p.direction() == dir).count();
        let mut bytes = first.magnitude() as u64;
        let mut duration = 0.0f32;
        for p in &tail[..run] {
            bytes += p.magnitude() as u64;
            duration += p.delay_ms;
        }
        self.rest = &tail[run..];
        Some((dir, run + 1, bytes, duration))
    }
}

/// The clock behind [`Flow::same_direction_gaps`]: fed a flow's packets
/// in order, it yields the delay since the previous packet in `dir`
/// whenever a packet travels in `dir` and an earlier one did too.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GapClock {
    since_last: Option<f32>,
}

impl GapClock {
    /// Advances past `p`; `Some(gap)` when `p` closes a same-direction gap.
    pub(crate) fn tick(&mut self, p: &Packet, dir: Direction) -> Option<f32> {
        if p.direction() == dir {
            let gap = self.since_last.map(|e| e + p.delay_ms);
            self.since_last = Some(0.0);
            gap
        } else {
            if let Some(e) = self.since_last.as_mut() {
                *e += p.delay_ms;
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_flow() -> Flow {
        Flow::from_pairs(&[
            (500, 0.0),
            (-1448, 2.0),
            (-1448, 0.5),
            (300, 10.0),
            (-700, 3.0),
        ])
    }

    #[test]
    fn direction_from_sign() {
        let p = Packet::outbound(100, 0.0);
        assert_eq!(p.direction(), Direction::Outbound);
        assert_eq!(p.size, 100);
        let q = Packet::inbound(100, 0.0);
        assert_eq!(q.direction(), Direction::Inbound);
        assert_eq!(q.size, -100);
        assert_eq!(q.magnitude(), 100);
    }

    #[test]
    fn byte_and_count_accounting() {
        let f = sample_flow();
        assert_eq!(f.len(), 5);
        assert_eq!(f.bytes(Direction::Outbound), 800);
        assert_eq!(f.bytes(Direction::Inbound), 3596);
        assert_eq!(f.total_bytes(), 4396);
        assert_eq!(f.count(Direction::Outbound), 2);
        assert_eq!(f.count(Direction::Inbound), 3);
    }

    #[test]
    fn duration_ignores_first_packet_delay() {
        let f = sample_flow();
        assert!((f.duration_ms() - 15.5).abs() < 1e-6);
        let empty = Flow::new();
        assert_eq!(empty.duration_ms(), 0.0);
    }

    #[test]
    fn prefix_clamps() {
        let f = sample_flow();
        assert_eq!(f.prefix(2).len(), 2);
        assert_eq!(f.prefix(100).len(), 5);
        assert_eq!(f.prefix(0).len(), 0);
    }

    #[test]
    fn burst_segmentation() {
        let f = sample_flow();
        let bursts = f.bursts();
        assert_eq!(bursts.len(), 4);
        assert_eq!(bursts[0], (Direction::Outbound, 1, 500, 0.0));
        assert_eq!(bursts[1].0, Direction::Inbound);
        assert_eq!(bursts[1].1, 2);
        assert_eq!(bursts[1].2, 2896);
        assert_eq!(bursts[3], (Direction::Inbound, 1, 700, 0.0));
    }

    #[test]
    fn same_direction_gaps_accumulate_through_opposite_packets() {
        let f = sample_flow();
        // Outbound packets at t=0 and t=0+2+0.5+10=12.5 -> one gap of 12.5.
        let out_gaps = f.same_direction_gaps(Direction::Outbound);
        assert_eq!(out_gaps.len(), 1);
        assert!((out_gaps[0] - 12.5).abs() < 1e-6);
        // Inbound at t=2, t=2.5, t=15.5 -> gaps 0.5 and 13.0.
        let in_gaps = f.same_direction_gaps(Direction::Inbound);
        assert_eq!(in_gaps.len(), 2);
        assert!((in_gaps[0] - 0.5).abs() < 1e-6);
        assert!((in_gaps[1] - 13.0).abs() < 1e-6);
    }

    #[test]
    fn label_round_trip() {
        assert_eq!(Label::from_u8(Label::Sensitive.as_u8()), Label::Sensitive);
        assert_eq!(Label::from_u8(Label::Benign.as_u8()), Label::Benign);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_size_rejected() {
        let _ = Flow::from_pairs(&[(0, 1.0)]);
    }

    #[test]
    fn from_frames_builds_signed_packets() {
        let f = Flow::from_frames([
            (Direction::Outbound, 540u32, 0.0f32),
            (Direction::Inbound, 1452, 2.5),
            (Direction::Outbound, 4, 0.5),
        ]);
        assert_eq!(f.sizes(), vec![540, -1452, 4]);
        assert_eq!(f.delays(), vec![0.0, 2.5, 0.5]);
        assert_eq!(f.bytes(Direction::Inbound), 1452);
    }
}
