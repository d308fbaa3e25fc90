//! The one-shot 166-feature extractor that `FeatureStream` replaced,
//! kept as the bit-exact reference for the equivalence tests. It is
//! self-contained on purpose: it shares no statistics, burst or gap code
//! with the library, so a slip in that code cannot hide in both.

use amoeba_traffic::{Direction, Flow, Layer};

/// The 166 features of `flow`, non-finite values as 0.
pub fn oracle_features(flow: &Flow, layer: Layer) -> Vec<f32> {
    let mut values = Vec::with_capacity(166);
    emit_all(flow, layer, &mut |v| {
        values.push(if v.is_finite() { v } else { 0.0 })
    });
    values
}

struct Summary {
    mean: f32,
    std: f32,
    var: f32,
    max: f32,
    min: f32,
    median: f32,
    p10: f32,
    p25: f32,
    p75: f32,
    p90: f32,
    total: f32,
    skew_proxy: f32,
}

impl Summary {
    fn of(values: &[f32]) -> Summary {
        if values.is_empty() {
            return Summary {
                mean: 0.0,
                std: 0.0,
                var: 0.0,
                max: 0.0,
                min: 0.0,
                median: 0.0,
                p10: 0.0,
                p25: 0.0,
                p75: 0.0,
                p90: 0.0,
                total: 0.0,
                skew_proxy: 0.0,
            };
        }
        let n = values.len() as f32;
        let mean = values.iter().sum::<f32>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = percentile_sorted(&sorted, 50.0);
        Summary {
            mean,
            std: var.sqrt(),
            var,
            max: *sorted.last().expect("nonempty"),
            min: sorted[0],
            median,
            p10: percentile_sorted(&sorted, 10.0),
            p25: percentile_sorted(&sorted, 25.0),
            p75: percentile_sorted(&sorted, 75.0),
            p90: percentile_sorted(&sorted, 90.0),
            total: values.iter().sum(),
            skew_proxy: mean - median,
        }
    }

    fn to_vec(&self) -> Vec<f32> {
        vec![
            self.mean,
            self.std,
            self.var,
            self.max,
            self.min,
            self.median,
            self.p10,
            self.p25,
            self.p75,
            self.p90,
            self.total,
            self.skew_proxy,
        ]
    }
}

fn percentile_sorted(sorted: &[f32], q: f32) -> f32 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f32;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

fn histogram(values: &[f32], lo: f32, hi: f32, bins: usize) -> Vec<f32> {
    let mut counts = vec![0.0f32; bins];
    if values.is_empty() {
        return counts;
    }
    let width = (hi - lo) / bins as f32;
    for &v in values {
        let idx = (((v - lo) / width).floor() as isize).clamp(0, bins as isize - 1) as usize;
        counts[idx] += 1.0;
    }
    let n = values.len() as f32;
    counts.iter_mut().for_each(|c| *c /= n);
    counts
}

fn bursts(flow: &Flow) -> Vec<(Direction, usize, u64, f32)> {
    let mut out = Vec::new();
    let mut iter = flow.packets.iter();
    let Some(first) = iter.next() else {
        return out;
    };
    let mut dir = first.direction();
    let mut count = 1usize;
    let mut bytes = first.magnitude() as u64;
    let mut duration = 0.0f32;
    for p in iter {
        if p.direction() == dir {
            count += 1;
            bytes += p.magnitude() as u64;
            duration += p.delay_ms;
        } else {
            out.push((dir, count, bytes, duration));
            dir = p.direction();
            count = 1;
            bytes = p.magnitude() as u64;
            duration = 0.0;
        }
    }
    out.push((dir, count, bytes, duration));
    out
}

fn same_direction_gaps(flow: &Flow, dir: Direction) -> Vec<f32> {
    let mut gaps = Vec::new();
    let mut elapsed_since_last: Option<f32> = None;
    for p in &flow.packets {
        if p.direction() == dir {
            if let Some(e) = elapsed_since_last {
                gaps.push(e + p.delay_ms);
            }
            elapsed_since_last = Some(0.0);
        } else if let Some(e) = elapsed_since_last.as_mut() {
            *e += p.delay_ms;
        }
    }
    gaps
}

fn emit_all(flow: &Flow, layer: Layer, emit: &mut impl FnMut(f32)) {
    let max_unit = layer.max_unit() as f32;

    let out_sizes: Vec<f32> = flow
        .packets
        .iter()
        .filter(|p| p.direction() == Direction::Outbound)
        .map(|p| p.magnitude() as f32)
        .collect();
    let in_sizes: Vec<f32> = flow
        .packets
        .iter()
        .filter(|p| p.direction() == Direction::Inbound)
        .map(|p| p.magnitude() as f32)
        .collect();
    let bi_sizes: Vec<f32> = flow.packets.iter().map(|p| p.magnitude() as f32).collect();

    // 1. bidirectional packet-size statistics
    for sizes in [&out_sizes, &in_sizes, &bi_sizes] {
        Summary::of(sizes).to_vec().into_iter().for_each(&mut *emit);
    }

    // 2. timing statistics
    let out_gaps = same_direction_gaps(flow, Direction::Outbound);
    let in_gaps = same_direction_gaps(flow, Direction::Inbound);
    let bi_gaps: Vec<f32> = flow.packets.iter().skip(1).map(|p| p.delay_ms).collect();
    for gaps in [&out_gaps, &in_gaps, &bi_gaps] {
        Summary::of(gaps).to_vec().into_iter().for_each(&mut *emit);
    }

    // 3. burst behaviour
    let bursts = bursts(flow);
    for dir in [Direction::Outbound, Direction::Inbound] {
        let lens: Vec<f32> = bursts
            .iter()
            .filter(|b| b.0 == dir)
            .map(|b| b.1 as f32)
            .collect();
        let bytes: Vec<f32> = bursts
            .iter()
            .filter(|b| b.0 == dir)
            .map(|b| b.2 as f32)
            .collect();
        let durations: Vec<f32> = bursts.iter().filter(|b| b.0 == dir).map(|b| b.3).collect();
        let ls = Summary::of(&lens);
        let bs = Summary::of(&bytes);
        let ds = Summary::of(&durations);
        emit(lens.len() as f32);
        emit(ls.mean);
        emit(ls.std);
        emit(ls.max);
        emit(bs.mean);
        emit(bs.std);
        emit(bs.max);
        emit(ds.mean);
        emit(ds.max);
    }

    // 4. size histograms
    for sizes in [&out_sizes, &in_sizes] {
        histogram(sizes, 0.0, max_unit, 10)
            .into_iter()
            .for_each(&mut *emit);
    }

    // 5. delay histogram
    histogram(&bi_gaps, 0.0, 500.0, 10)
        .into_iter()
        .for_each(&mut *emit);

    // 6. cumulative-trace interpolation
    let mut cumulative = Vec::with_capacity(flow.len());
    let mut acc = 0.0f32;
    for p in &flow.packets {
        acc += p.size as f32;
        cumulative.push(acc);
    }
    for i in 0..10 {
        let v = if cumulative.is_empty() {
            0.0
        } else {
            let pos = (i as f32 / 9.0) * (cumulative.len() - 1) as f32;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f32;
            cumulative[lo] * (1.0 - frac) + cumulative[hi] * frac
        };
        emit(v);
    }

    // 7. first-packets behaviour
    for i in 0..8 {
        emit(flow.packets.get(i).map(|p| p.size as f32).unwrap_or(0.0));
    }
    for i in 0..8 {
        emit(flow.packets.get(i).map(|p| p.delay_ms).unwrap_or(0.0));
    }

    // 8. flow-level features
    let n = flow.len() as f32;
    let n_out = out_sizes.len() as f32;
    let n_in = in_sizes.len() as f32;
    let bytes_out: f32 = out_sizes.iter().sum();
    let bytes_in: f32 = in_sizes.iter().sum();
    let duration: f32 = flow.packets.iter().skip(1).map(|p| p.delay_ms).sum();
    emit(n);
    emit(n_out);
    emit(n_in);
    emit(if n > 0.0 { n_out / n } else { 0.0 });
    emit(bytes_out + bytes_in);
    emit(bytes_out);
    emit(bytes_in);
    emit(if bytes_out + bytes_in > 0.0 {
        bytes_out / (bytes_out + bytes_in)
    } else {
        0.0
    });
    let flips = flow
        .packets
        .windows(2)
        .filter(|w| w[0].direction() != w[1].direction())
        .count() as f32;
    emit(if n > 1.0 { flips / (n - 1.0) } else { 0.0 });
    let at_max = bi_sizes.iter().filter(|&&s| s >= max_unit).count() as f32;
    emit(if n > 0.0 { at_max / n } else { 0.0 });
    let mut unique = bi_sizes.clone();
    unique.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    unique.dedup();
    emit(if n > 0.0 {
        unique.len() as f32 / n
    } else {
        0.0
    });

    emit(duration);
    let secs = (duration / 1000.0).max(1e-6);
    emit(n / secs);
    emit((bytes_out + bytes_in) / secs);
    let first_response = flow
        .packets
        .iter()
        .scan(0.0f32, |t, p| {
            *t += p.delay_ms;
            Some((*t, p.direction()))
        })
        .find(|(_, d)| *d == Direction::Inbound)
        .map(|(t, _)| t)
        .unwrap_or(0.0);
    emit(first_response);
    let mean_out_gap = if out_gaps.is_empty() {
        0.0
    } else {
        out_gaps.iter().sum::<f32>() / out_gaps.len() as f32
    };
    let mean_in_gap = if in_gaps.is_empty() {
        0.0
    } else {
        in_gaps.iter().sum::<f32>() / in_gaps.len() as f32
    };
    emit(if mean_in_gap > 1e-9 {
        mean_out_gap / mean_in_gap
    } else {
        0.0
    });
    emit(bursts.len() as f32);
    let longest_run = bursts.iter().map(|b| b.1).max().unwrap_or(0) as f32;
    emit(if n > 0.0 { longest_run / n } else { 0.0 });
    let idle: f32 = bi_gaps.iter().filter(|&&g| g > 100.0).sum();
    emit(if duration > 1e-9 {
        idle / duration
    } else {
        0.0
    });
    let first5: Vec<f32> = bi_gaps.iter().take(5).copied().collect();
    emit(if first5.is_empty() {
        0.0
    } else {
        first5.iter().sum::<f32>() / first5.len() as f32
    });
}
