//! CUMUL features [Panchenko et al., NDSS'16].
//!
//! CUMUL represents a flow by `n` linearly interpolated points of its
//! cumulative signed-size trace, prefixed by four aggregate counters
//! (incoming/outgoing packet and byte totals). The paper uses this
//! representation with an RBF-kernel SVM as the "CUMUL" censoring
//! classifier.

use crate::flow::{Direction, Flow};

/// Number of interpolation points used by the paper-scale CUMUL censor.
pub const DEFAULT_POINTS: usize = 100;

/// Extracts the CUMUL feature vector: `[n_in, n_out, bytes_in, bytes_out]`
/// followed by `n_points` interpolated cumulative-sum samples.
///
/// Length is always `n_points + 4`; empty flows produce all-zero vectors.
pub fn cumul_features(flow: &Flow, n_points: usize) -> Vec<f32> {
    assert!(
        n_points >= 2,
        "cumul_features: need at least 2 interpolation points"
    );
    let mut out = Vec::with_capacity(n_points + 4);
    out.push(flow.count(Direction::Inbound) as f32);
    out.push(flow.count(Direction::Outbound) as f32);
    out.push(flow.bytes(Direction::Inbound) as f32);
    out.push(flow.bytes(Direction::Outbound) as f32);

    if flow.is_empty() {
        out.extend(std::iter::repeat_n(0.0, n_points));
        return out;
    }

    let mut trace = Vec::with_capacity(flow.len());
    let mut acc = 0.0f32;
    for p in &flow.packets {
        acc += p.size as f32;
        trace.push(acc);
    }
    for i in 0..n_points {
        let pos = i as f32 / (n_points - 1) as f32 * (trace.len() - 1) as f32;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f32;
        out.push(trace[lo] * (1.0 - frac) + trace[hi] * frac);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Packet;

    #[test]
    fn length_is_points_plus_four() {
        let flow = Flow::from_pairs(&[(100, 0.0), (-50, 1.0)]);
        assert_eq!(cumul_features(&flow, 100).len(), 104);
        assert_eq!(cumul_features(&flow, 10).len(), 14);
    }

    #[test]
    fn counters_are_correct() {
        let mut flow = Flow::new();
        flow.push(Packet::outbound(300, 0.0));
        flow.push(Packet::inbound(500, 1.0));
        flow.push(Packet::inbound(200, 1.0));
        let f = cumul_features(&flow, 10);
        assert_eq!(f[0], 2.0); // n_in
        assert_eq!(f[1], 1.0); // n_out
        assert_eq!(f[2], 700.0); // bytes_in
        assert_eq!(f[3], 300.0); // bytes_out
    }

    #[test]
    fn interpolation_endpoints_match_trace() {
        let flow = Flow::from_pairs(&[(100, 0.0), (-300, 1.0), (50, 1.0)]);
        // cumulative: 100, -200, -150
        let f = cumul_features(&flow, 5);
        assert_eq!(f[4], 100.0);
        assert_eq!(*f.last().unwrap(), -150.0);
    }

    #[test]
    fn single_packet_flow_is_constant_trace() {
        let flow = Flow::from_pairs(&[(42, 0.0)]);
        let f = cumul_features(&flow, 8);
        assert!(f[4..].iter().all(|&v| v == 42.0));
    }

    #[test]
    fn empty_flow_is_zero() {
        let f = cumul_features(&Flow::new(), 10);
        assert!(f.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn direction_flip_changes_trace_shape() {
        let up = Flow::from_pairs(&[(100, 0.0), (100, 1.0), (100, 1.0)]);
        let down = Flow::from_pairs(&[(-100, 0.0), (-100, 1.0), (-100, 1.0)]);
        let fu = cumul_features(&up, 6);
        let fd = cumul_features(&down, 6);
        assert!(fu[5..].iter().all(|&v| v > 0.0));
        assert!(fd[5..].iter().all(|&v| v < 0.0));
    }
}
