//! Stage tracing: fixed-size flight recorder + Chrome-trace exposition.
//!
//! Each shard driver owns a [`FlightRecorder`] — a bounded ring of
//! [`TraceEvent`]s timestamped against the run's epoch `Instant`. The
//! ring overwrites oldest-first, so memory is fixed at
//! `capacity × size_of::<TraceEvent>()` regardless of run length, and
//! the recorder always holds the *most recent* window of activity,
//! counting what it overwrote. After the run, every driver's window and
//! drop count go into the [`crate::TelemetrySnapshot`].
//!
//! Recording is a push into driver-owned memory: nothing here blocks,
//! allocates after construction, or is observable by the data path —
//! the zero-perturbation obligation from the crate docs.

/// Which work-item stage (or scheduler action) an event covers. The
/// names are the Chrome-trace event names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Fused inference pass (on the executing driver thread).
    Infer,
    /// Framing / impairment / censor verdicts (driver thread).
    Frame,
    /// Emitted-frame push-back into encoder state.
    Emit,
    /// A work item stolen from another shard's deque.
    Steal,
}

impl StageKind {
    /// Stable event name used in trace output.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Infer => "infer",
            StageKind::Frame => "frame",
            StageKind::Emit => "emit",
            StageKind::Steal => "steal",
        }
    }
}

/// One complete-span trace event. `Copy` and fixed-size so ring writes
/// are a store, not an allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub stage: StageKind,
    /// Home shard of the work item.
    pub shard: u32,
    /// Shard id of the thread that executed the stage (differs from
    /// `shard` when the item was stolen).
    pub executor: u32,
    /// Work-item sequence number within its home shard.
    pub seq: u64,
    /// Start time, nanoseconds since the run epoch.
    pub t0_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Sessions in the work item's chunk.
    pub batch: u32,
}

/// Bounded ring buffer of trace events (capacity 0 = recording off).
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    buf: Vec<TraceEvent>,
    cap: usize,
    head: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// True when the capacity is zero and pushes are no-ops.
    pub fn is_disabled(&self) -> bool {
        self.cap == 0
    }

    /// Records an event, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.cap;
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }

    /// Events overwritten since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Renders events as a Chrome-trace (`chrome://tracing` / Perfetto)
/// JSON array of complete (`"ph":"X"`) events. Timestamps convert from
/// nanoseconds to the format's microseconds; `tid` is the executing
/// shard so stolen work visibly runs on the thief's row, and `args`
/// carry the home shard, sequence number, and batch size.
pub fn trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":{},\"args\":{{\"shard\":{},\"seq\":{},\"batch\":{}}}}}",
            ev.stage.name(),
            ev.t0_ns as f64 / 1e3,
            ev.dur_ns as f64 / 1e3,
            ev.executor,
            ev.shard,
            ev.seq,
            ev.batch,
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            stage: StageKind::Infer,
            shard: 0,
            executor: 0,
            seq,
            t0_ns: seq * 1_000,
            dur_ns: 500,
            batch: 8,
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let mut rec = FlightRecorder::new(4);
        for s in 0..10 {
            rec.push(ev(s));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let seqs: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first, newest window");
    }

    #[test]
    fn zero_capacity_recorder_is_inert() {
        let mut rec = FlightRecorder::new(0);
        assert!(rec.is_disabled());
        rec.push(ev(0));
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
        assert_eq!(trace_json(&rec.events()), "[\n]");
    }

    #[test]
    fn trace_json_is_chrome_trace_shaped() {
        let mut e = ev(3);
        e.stage = StageKind::Steal;
        e.executor = 2;
        let json = trace_json(&[e]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"steal\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":3.000"));
        assert!(json.contains("\"dur\":0.500"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"args\":{\"shard\":0,\"seq\":3,\"batch\":8}"));
    }
}
