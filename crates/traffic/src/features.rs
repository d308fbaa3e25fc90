//! The 166-dimensional flow feature vector used by the tree-based censors.
//!
//! The paper follows Barradas et al. \[2\] and "extract\[s\] 166 features from
//! each network flow, covering bi-directional packet/timing statistics,
//! burst behaviors, percentile features and flow-level information"
//! (§5.1). The exact list is not published; this module reconstructs a
//! 166-feature vector from those four documented categories. Every feature
//! is tagged [`FeatureKind::Packet`] or [`FeatureKind::Timing`], which is
//! what the Figure 4 experiment (packet- vs timing-feature importance)
//! consumes.
//!
//! The extractor is a streaming state machine, [`FeatureStream`], because
//! the on-path censor scores a flow while it is transmitted: each new wire
//! packet is absorbed once into sorted order statistics, histogram counts
//! and a few scalars, and the features of the whole prefix are read from
//! that state plus two allocation-free passes over the wire (sums and
//! squared deviations, which must fold in arrival order). One-shot
//! [`extract_features`] is a fresh stream over the whole flow, so both
//! paths share every line of feature math and agree bit for bit on every
//! prefix.

use std::fmt;
use std::sync::OnceLock;

use crate::flow::{Direction, Flow, GapClock, Packet};
use crate::generate::Layer;
use crate::stats::{bin_index, Summary};

/// Total number of features produced by [`extract_features`].
pub const NUM_FEATURES: usize = 166;

/// Whether a feature is derived from packet sizes/counts or from timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Size/count/direction-derived.
    Packet,
    /// Delay/duration/rate-derived.
    Timing,
}

/// Static description of the feature vector layout.
#[derive(Debug, Clone)]
pub struct FeatureSchema {
    /// Feature names, in extraction order.
    pub names: Vec<String>,
    /// Feature kinds, parallel to `names`.
    pub kinds: Vec<FeatureKind>,
}

/// Bins of every histogram feature.
const BINS: usize = 10;
/// Upper edge of the inter-packet delay histogram, in milliseconds.
const GAP_HIST_MS: f32 = 500.0;
/// Inter-packet delays above this count as idle time, in milliseconds.
const IDLE_MS: f32 = 100.0;

/// Series indices: outbound, inbound, both directions.
const OUT: usize = 0;
const IN: usize = 1;
const BI: usize = 2;
const SERIES: [&str; 3] = ["out", "in", "bi"];
const DIRECTIONS: [Direction; 2] = [Direction::Outbound, Direction::Inbound];

fn side(dir: Direction) -> usize {
    match dir {
        Direction::Outbound => OUT,
        Direction::Inbound => IN,
    }
}

/// The value `Iterator::sum::<f32>()` starts from, so that every running
/// sum here is bit-identical to summing the same values with it.
fn sum_start() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// Inserts `v` after every element `<=` it, which keeps `sorted` equal
/// to a stable sort of the values in arrival order; returns its index.
fn insert_sorted(sorted: &mut Vec<f32>, v: f32) -> usize {
    let at = sorted.partition_point(|&x| x <= v);
    sorted.insert(at, v);
    at
}

/// A histogram count as a fraction of `n` samples (0 without samples).
fn fraction(count: f32, n: usize) -> f32 {
    if n == 0 {
        0.0
    } else {
        count / n as f32
    }
}

/// The 166-feature extractor as a per-flow state machine.
///
/// [`FeatureStream::observe`] absorbs the packets of a growing wire prefix
/// that it has not seen yet and writes the features of the whole prefix.
/// The stream keeps only what the wire cannot give back cheaply: the
/// sorted sizes and gaps behind the percentile features, the histogram
/// counts and a few scalars.
#[derive(Debug, Clone)]
pub struct FeatureStream {
    layer: Layer,
    /// Packets absorbed so far.
    seen: usize,
    /// Ascending packet sizes: outbound, inbound, both.
    sizes: [Vec<f32>; 3],
    /// Ascending gaps: between outbound packets, between inbound packets
    /// ([`Flow::same_direction_gaps`]) and between consecutive packets.
    gaps: [Vec<f32>; 3],
    /// Size-histogram counts, outbound then inbound.
    size_hist: [[f32; BINS]; 2],
    /// Consecutive-gap histogram counts.
    gap_hist: [f32; BINS],
    /// Same-direction gap clocks, outbound then inbound.
    clocks: [GapClock; 2],
    /// Packets at or above the layer's maximum unit.
    at_max: usize,
    /// Distinct packet sizes.
    distinct: usize,
    /// Elapsed time, summed until the first inbound packet arrives.
    elapsed_ms: f32,
    /// Elapsed time at the first inbound packet, once it arrived.
    first_response_ms: Option<f32>,
}

impl FeatureStream {
    /// An empty stream for flows observed on `layer`.
    pub fn new(layer: Layer) -> Self {
        Self {
            layer,
            seen: 0,
            sizes: Default::default(),
            gaps: Default::default(),
            size_hist: [[0.0; BINS]; 2],
            gap_hist: [0.0; BINS],
            clocks: Default::default(),
            at_max: 0,
            distinct: 0,
            elapsed_ms: 0.0,
            first_response_ms: None,
        }
    }

    /// Absorbs the packets of `wire` not seen yet and writes the features
    /// of all of `wire` into `row` (non-finite values as 0).
    ///
    /// Successive calls must pass growing prefixes of one flow. A wire
    /// shorter than the packets already absorbed breaks that contract;
    /// the stream then starts over from `wire`, so the features stay
    /// those of `wire`.
    pub fn observe(&mut self, wire: &Flow, row: &mut [f32; NUM_FEATURES]) {
        self.absorb(wire);
        let mut slots = row.iter_mut();
        self.emit(wire, &mut |_, _, v| {
            let slot = slots.next().expect("emitted more than NUM_FEATURES");
            *slot = if v.is_finite() { v } else { 0.0 };
        });
        debug_assert!(slots.next().is_none(), "emitted fewer than NUM_FEATURES");
    }

    /// Forgets every absorbed packet and frees the buffers; the next
    /// [`FeatureStream::observe`] starts from an empty flow.
    pub fn reset(&mut self) {
        *self = FeatureStream::new(self.layer);
    }

    fn absorb(&mut self, wire: &Flow) {
        if wire.len() < self.seen {
            self.reset();
        }
        let max_unit = self.layer.max_unit() as f32;
        for p in &wire.packets[self.seen..] {
            let size = p.magnitude() as f32;
            let s = side(p.direction());
            let at = insert_sorted(&mut self.sizes[BI], size);
            if at == 0 || self.sizes[BI][at - 1] != size {
                self.distinct += 1;
            }
            insert_sorted(&mut self.sizes[s], size);
            self.size_hist[s][bin_index(size, 0.0, max_unit, BINS)] += 1.0;
            if size >= max_unit {
                self.at_max += 1;
            }
            for (d, dir) in DIRECTIONS.into_iter().enumerate() {
                if let Some(gap) = self.clocks[d].tick(p, dir) {
                    insert_sorted(&mut self.gaps[d], gap);
                }
            }
            if self.seen > 0 {
                insert_sorted(&mut self.gaps[BI], p.delay_ms);
                self.gap_hist[bin_index(p.delay_ms, 0.0, GAP_HIST_MS, BINS)] += 1.0;
            }
            if self.first_response_ms.is_none() {
                self.elapsed_ms += p.delay_ms;
                if s == IN {
                    self.first_response_ms = Some(self.elapsed_ms);
                }
            }
            self.seen += 1;
        }
    }

    /// Emits every feature of `wire` (the absorbed flow) with its name
    /// and kind, in schema order. Names are built only if `emit` formats
    /// them.
    fn emit(&self, wire: &Flow, emit: &mut impl FnMut(fmt::Arguments<'_>, FeatureKind, f32)) {
        use FeatureKind::{Packet, Timing};
        let m = Moments::default().walk(wire).recentered().walk(wire);

        // --- 1. bidirectional packet-size statistics (3 x 12 = 36, Packet) ---
        for (s, tag) in SERIES.into_iter().enumerate() {
            let summary = Summary::from_sorted(&self.sizes[s], m.sizes[s].sum, m.sizes[s].sq_dev);
            for (name, v) in Summary::names().into_iter().zip(summary.to_array()) {
                emit(format_args!("size_{tag}_{name}"), Packet, v);
            }
        }

        // --- 2. timing statistics (3 x 12 = 36, Timing) -----------------------
        for (s, tag) in SERIES.into_iter().enumerate() {
            let summary = Summary::from_sorted(&self.gaps[s], m.gaps[s].sum, m.gaps[s].sq_dev);
            for (name, v) in Summary::names().into_iter().zip(summary.to_array()) {
                emit(format_args!("gap_{tag}_{name}"), Timing, v);
            }
        }

        // --- 3. burst behaviour (2 x (7 Packet + 2 Timing) = 18) --------------
        for (d, tag) in SERIES[..2].iter().enumerate() {
            let (len, bytes, dur) = (m.burst_len[d], m.burst_bytes[d], m.burst_dur[d]);
            emit(format_args!("burst_{tag}_count"), Packet, len.n as f32);
            emit(format_args!("burst_{tag}_len_mean"), Packet, len.mean());
            emit(format_args!("burst_{tag}_len_std"), Packet, len.std());
            emit(format_args!("burst_{tag}_len_max"), Packet, len.max);
            emit(format_args!("burst_{tag}_bytes_mean"), Packet, bytes.mean());
            emit(format_args!("burst_{tag}_bytes_std"), Packet, bytes.std());
            emit(format_args!("burst_{tag}_bytes_max"), Packet, bytes.max);
            emit(format_args!("burst_{tag}_dur_mean"), Timing, dur.mean());
            emit(format_args!("burst_{tag}_dur_max"), Timing, dur.max);
        }

        // --- 4. size histograms (2 x 10 = 20, Packet) --------------------------
        for (d, tag) in SERIES[..2].iter().enumerate() {
            for (i, &count) in self.size_hist[d].iter().enumerate() {
                let v = fraction(count, self.sizes[d].len());
                emit(format_args!("size_hist_{tag}_{i}"), Packet, v);
            }
        }

        // --- 5. delay histogram (10, Timing) -----------------------------------
        for (i, &count) in self.gap_hist.iter().enumerate() {
            let v = fraction(count, self.gaps[BI].len());
            emit(format_args!("gap_hist_bi_{i}"), Timing, v);
        }

        // --- 6. cumulative-trace interpolation (10, Packet) --------------------
        for (i, v) in cumulative_profile(&wire.packets).into_iter().enumerate() {
            emit(format_args!("cumul_{i}"), Packet, v);
        }

        // --- 7. first-packets behaviour (8 Packet + 8 Timing = 16) -------------
        for i in 0..8 {
            let v = wire.packets.get(i).map(|p| p.size as f32).unwrap_or(0.0);
            emit(format_args!("first_size_{i}"), Packet, v);
        }
        for i in 0..8 {
            let v = wire.packets.get(i).map(|p| p.delay_ms).unwrap_or(0.0);
            emit(format_args!("first_gap_{i}"), Timing, v);
        }

        // --- 8. flow-level features (11 Packet + 5 Timing = 16) ----------------
        let n = wire.len() as f32;
        let n_out = self.sizes[OUT].len() as f32;
        let n_in = self.sizes[IN].len() as f32;
        let bytes_out = m.sizes[OUT].sum;
        let bytes_in = m.sizes[IN].sum;
        let duration = m.gaps[BI].sum;
        let bursts = m.burst_len[OUT].n + m.burst_len[IN].n;
        let per_packet = |v: f32| if n > 0.0 { v / n } else { 0.0 };
        emit(format_args!("pkt_count"), Packet, n);
        emit(format_args!("pkt_count_out"), Packet, n_out);
        emit(format_args!("pkt_count_in"), Packet, n_in);
        emit(format_args!("pkt_ratio_out"), Packet, per_packet(n_out));
        emit(format_args!("bytes_total"), Packet, bytes_out + bytes_in);
        emit(format_args!("bytes_out"), Packet, bytes_out);
        emit(format_args!("bytes_in"), Packet, bytes_in);
        emit(
            format_args!("bytes_ratio_out"),
            Packet,
            if bytes_out + bytes_in > 0.0 {
                bytes_out / (bytes_out + bytes_in)
            } else {
                0.0
            },
        );
        let flips = bursts.saturating_sub(1) as f32;
        emit(
            format_args!("dir_flip_rate"),
            Packet,
            if n > 1.0 { flips / (n - 1.0) } else { 0.0 },
        );
        emit(
            format_args!("frac_max_unit"),
            Packet,
            per_packet(self.at_max as f32),
        );
        emit(
            format_args!("size_diversity"),
            Packet,
            per_packet(self.distinct as f32),
        );

        emit(format_args!("duration_ms"), Timing, duration);
        let secs = (duration / 1000.0).max(1e-6);
        emit(format_args!("pkts_per_sec"), Timing, n / secs);
        emit(
            format_args!("bytes_per_sec"),
            Timing,
            (bytes_out + bytes_in) / secs,
        );
        let first_response = self.first_response_ms.unwrap_or(0.0);
        emit(format_args!("first_response_ms"), Timing, first_response);
        let (mean_out_gap, mean_in_gap) = (m.gaps[OUT].mean(), m.gaps[IN].mean());
        emit(
            format_args!("gap_ratio_out_in"),
            Timing,
            if mean_in_gap > 1e-9 {
                mean_out_gap / mean_in_gap
            } else {
                0.0
            },
        );
        emit(format_args!("burst_count_total"), Packet, bursts as f32);
        let longest_run = m.burst_len[OUT].max.max(m.burst_len[IN].max);
        emit(
            format_args!("longest_run_frac"),
            Packet,
            per_packet(longest_run),
        );
        emit(
            format_args!("idle_frac"),
            Timing,
            if duration > 1e-9 {
                m.idle / duration
            } else {
                0.0
            },
        );
        emit(format_args!("mean_gap_first5"), Timing, m.first5.mean());
    }
}

/// Arrival-order sum, sum of squared deviations from a fixed center, and
/// maximum of one series.
#[derive(Debug, Clone, Copy)]
struct Fold {
    center: f32,
    n: usize,
    sum: f32,
    sq_dev: f32,
    max: f32,
}

impl Fold {
    fn around(center: f32) -> Fold {
        Fold {
            center,
            n: 0,
            sum: sum_start(),
            sq_dev: sum_start(),
            max: 0.0,
        }
    }

    fn push(&mut self, x: f32) {
        self.n += 1;
        self.sum += x;
        self.sq_dev += (x - self.center) * (x - self.center);
        // The last of equal maxima, like the last element of a stable sort.
        if self.n == 1 || x >= self.max {
            self.max = x;
        }
    }

    /// Mean (0 when empty).
    fn mean(&self) -> f32 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f32
        }
    }

    /// Population standard deviation (0 when empty), once `center` is
    /// the series mean.
    fn std(&self) -> f32 {
        if self.n == 0 {
            0.0
        } else {
            (self.sq_dev / self.n as f32).sqrt()
        }
    }
}

/// The arrival-order folds of one pass over a flow.
#[derive(Debug, Clone, Copy)]
struct Moments {
    sizes: [Fold; 3],
    gaps: [Fold; 3],
    burst_len: [Fold; 2],
    burst_bytes: [Fold; 2],
    burst_dur: [Fold; 2],
    /// Sum of the consecutive gaps above [`IDLE_MS`].
    idle: f32,
    /// The first five consecutive gaps.
    first5: Fold,
}

impl Default for Moments {
    fn default() -> Self {
        let zero = Fold::around(0.0);
        Moments {
            sizes: [zero; 3],
            gaps: [zero; 3],
            burst_len: [zero; 2],
            burst_bytes: [zero; 2],
            burst_dur: [zero; 2],
            idle: sum_start(),
            first5: zero,
        }
    }
}

impl Moments {
    /// Empty folds centered on this pass's means, for the
    /// squared-deviation pass.
    fn recentered(&self) -> Moments {
        let at_mean = |f: Fold| Fold::around(f.mean());
        Moments {
            sizes: self.sizes.map(at_mean),
            gaps: self.gaps.map(at_mean),
            burst_len: self.burst_len.map(at_mean),
            burst_bytes: self.burst_bytes.map(at_mean),
            burst_dur: self.burst_dur.map(at_mean),
            ..Moments::default()
        }
    }

    /// Folds every packet of `flow` in arrival order.
    fn walk(mut self, flow: &Flow) -> Moments {
        let mut clocks = [GapClock::default(); 2];
        for (i, p) in flow.packets.iter().enumerate() {
            let size = p.magnitude() as f32;
            self.sizes[side(p.direction())].push(size);
            self.sizes[BI].push(size);
            for (d, dir) in DIRECTIONS.into_iter().enumerate() {
                if let Some(gap) = clocks[d].tick(p, dir) {
                    self.gaps[d].push(gap);
                }
            }
            if i > 0 {
                let gap = p.delay_ms;
                self.gaps[BI].push(gap);
                if gap > IDLE_MS {
                    self.idle += gap;
                }
                if i <= 5 {
                    self.first5.push(gap);
                }
            }
        }
        for (dir, len, bytes, duration) in flow.burst_iter() {
            let d = side(dir);
            self.burst_len[d].push(len as f32);
            self.burst_bytes[d].push(bytes as f32);
            self.burst_dur[d].push(duration);
        }
        self
    }
}

/// The cumulative signed-size trace sampled at 10 evenly spaced
/// positions, linearly interpolated (zeros for an empty flow).
fn cumulative_profile(packets: &[Packet]) -> [f32; 10] {
    let mut out = [0.0f32; 10];
    let Some(last) = packets.len().checked_sub(1) else {
        return out;
    };
    // Interpolation points: (lo index, hi index, weight of hi). Both
    // indices are nondecreasing, so one pass with two cursors reads them.
    let points: [(usize, usize, f32); 10] = std::array::from_fn(|i| {
        let pos = (i as f32 / 9.0) * last as f32;
        let lo = pos.floor() as usize;
        (lo, pos.ceil() as usize, pos - lo as f32)
    });
    let (mut at_lo, mut at_hi) = ([0.0f32; 10], [0.0f32; 10]);
    let (mut next_lo, mut next_hi) = (0, 0);
    let mut acc = 0.0f32;
    for (j, p) in packets.iter().enumerate() {
        acc += p.size as f32;
        while next_lo < 10 && points[next_lo].0 == j {
            at_lo[next_lo] = acc;
            next_lo += 1;
        }
        while next_hi < 10 && points[next_hi].1 == j {
            at_hi[next_hi] = acc;
            next_hi += 1;
        }
    }
    for (k, v) in out.iter_mut().enumerate() {
        let frac = points[k].2;
        *v = at_lo[k] * (1.0 - frac) + at_hi[k] * frac;
    }
    out
}

/// Extracts the 166-feature vector for a flow on the given layer.
pub fn extract_features(flow: &Flow, layer: Layer) -> Vec<f32> {
    let mut row = [0.0f32; NUM_FEATURES];
    FeatureStream::new(layer).observe(flow, &mut row);
    row.to_vec()
}

/// The static feature schema (names + kinds).
pub fn feature_schema() -> &'static FeatureSchema {
    static SCHEMA: OnceLock<FeatureSchema> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        let mut names = Vec::with_capacity(NUM_FEATURES);
        let mut kinds = Vec::with_capacity(NUM_FEATURES);
        FeatureStream::new(Layer::Tcp).emit(&Flow::new(), &mut |name, kind, _| {
            names.push(name.to_string());
            kinds.push(kind);
        });
        assert_eq!(
            names.len(),
            NUM_FEATURES,
            "feature schema drifted from NUM_FEATURES"
        );
        FeatureSchema { names, kinds }
    })
}

/// Extracts features for every flow in a slice.
pub fn extract_features_batch(flows: &[Flow], layer: Layer) -> Vec<Vec<f32>> {
    flows.iter().map(|f| extract_features(f, layer)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Packet;
    use crate::generate::{TorGenerator, TrafficGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exactly_166_features() {
        let mut rng = StdRng::seed_from_u64(1);
        let flow = TorGenerator::default().generate(&mut rng);
        let f = extract_features(&flow, Layer::Tcp);
        assert_eq!(f.len(), NUM_FEATURES);
        assert_eq!(f.len(), 166);
    }

    #[test]
    fn schema_is_consistent_and_unique() {
        let schema = feature_schema();
        assert_eq!(schema.names.len(), NUM_FEATURES);
        assert_eq!(schema.kinds.len(), NUM_FEATURES);
        let mut sorted = schema.names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), NUM_FEATURES, "duplicate feature names");
    }

    #[test]
    fn kind_split_covers_both_categories() {
        let schema = feature_schema();
        let packet = schema
            .kinds
            .iter()
            .filter(|k| **k == FeatureKind::Packet)
            .count();
        let timing = schema
            .kinds
            .iter()
            .filter(|k| **k == FeatureKind::Timing)
            .count();
        assert_eq!(packet + timing, NUM_FEATURES);
        assert!(packet > 40, "packet features: {packet}");
        assert!(timing > 40, "timing features: {timing}");
    }

    #[test]
    fn features_are_finite_for_edge_cases() {
        // Single-packet flow, single-direction flow, zero-delay flow.
        let cases = vec![
            Flow::from_pairs(&[(100, 0.0)]),
            Flow::from_pairs(&[(100, 0.0), (200, 0.0), (300, 0.0)]),
            Flow::from_pairs(&[(-500, 0.0), (-500, 0.0)]),
        ];
        for flow in cases {
            let f = extract_features(&flow, Layer::Tcp);
            assert_eq!(f.len(), NUM_FEATURES);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn byte_accounting_features_match_flow() {
        let mut flow = Flow::new();
        flow.push(Packet::outbound(300, 0.0));
        flow.push(Packet::inbound(700, 5.0));
        let f = extract_features(&flow, Layer::Tcp);
        let schema = feature_schema();
        let idx = |name: &str| schema.names.iter().position(|n| n == name).unwrap();
        assert_eq!(f[idx("bytes_out")], 300.0);
        assert_eq!(f[idx("bytes_in")], 700.0);
        assert_eq!(f[idx("bytes_total")], 1000.0);
        assert_eq!(f[idx("pkt_count")], 2.0);
        assert_eq!(f[idx("duration_ms")], 5.0);
        assert_eq!(f[idx("first_response_ms")], 5.0);
    }

    #[test]
    fn tor_and_https_feature_vectors_differ() {
        use crate::generate::HttpsTcpGenerator;
        let mut rng = StdRng::seed_from_u64(2);
        let tor = TorGenerator::default().generate(&mut rng);
        let https = HttpsTcpGenerator::default().generate(&mut rng);
        let ft = extract_features(&tor, Layer::Tcp);
        let fh = extract_features(&https, Layer::Tcp);
        let diff: f32 = ft.iter().zip(&fh).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1.0, "feature vectors should differ");
    }

    /// A wire shorter than what the stream already absorbed (a broken
    /// growing-prefix contract) restarts the stream: the features are
    /// those of the shorter wire, not stale ones, and the stream keeps
    /// working on the prefixes that follow.
    #[test]
    fn shorter_wire_restarts_the_stream() {
        let mut rng = StdRng::seed_from_u64(4);
        let flow = TorGenerator::default().generate(&mut rng);
        assert!(flow.len() > 12);
        let mut stream = FeatureStream::new(Layer::Tcp);
        let mut row = [0.0f32; NUM_FEATURES];
        stream.observe(&flow, &mut row);
        for k in [3, 0, 7, 12] {
            let prefix = flow.prefix(k);
            stream.observe(&prefix, &mut row);
            assert_eq!(
                row.to_vec(),
                extract_features(&prefix, Layer::Tcp),
                "prefix {k}"
            );
        }
        stream.observe(&flow, &mut row);
        assert_eq!(row.to_vec(), extract_features(&flow, Layer::Tcp));
    }

    #[test]
    fn batch_matches_individual() {
        let mut rng = StdRng::seed_from_u64(3);
        let flows: Vec<Flow> = (0..3)
            .map(|_| TorGenerator::default().generate(&mut rng))
            .collect();
        let batch = extract_features_batch(&flows, Layer::Tcp);
        for (bf, f) in batch.iter().zip(&flows) {
            assert_eq!(*bf, extract_features(f, Layer::Tcp));
        }
    }
}
