//! Shard-local counters and their deterministic aggregation.
//!
//! Every field here is a plain `u64` cell owned by exactly one shard
//! thread for the duration of a run — no atomics, no locks, no
//! cross-thread sharing on the hot path. Shards hand their
//! [`ShardTelemetry`] back with their report, and the engine folds them
//! in shard order at the k-way merge: addition for flow counters,
//! `max` for high-water marks, histogram merges for latency. The fold
//! order is fixed, so the aggregate is deterministic for a given shard
//! assignment and every quantity that must be grouping-invariant
//! (anything derived from per-session work, not scheduling) is a plain
//! sum over a fixed multiset.

use crate::histogram::Histogram;
use crate::trace::TraceEvent;
use std::collections::BTreeMap;

/// Engine-level flow and scheduler counters.
///
/// Scheduling-dependent fields (`ticks`, `batches`, `stolen_batches`,
/// `absorbs_out_of_order`, `max_queue_depth`) legitimately vary with
/// shard count / batch size / stealing; per-session fields (`frames`,
/// `sessions`, and everything in [`TenantCounters`]) do not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Drive-loop iterations (tick barriers crossed), summed over shards.
    pub ticks: u64,
    /// Inference batches executed.
    pub batches: u64,
    /// Batches executed by a shard other than their home shard.
    pub stolen_batches: u64,
    /// Work items absorbed back into their home shard.
    pub absorbs: u64,
    /// Absorbs that arrived ahead of sequence and had to be parked.
    pub absorbs_out_of_order: u64,
    /// Wire frames emitted across all sessions.
    pub frames: u64,
    /// Sessions driven to completion.
    pub sessions: u64,
    /// Highest per-shard ready-queue depth observed (max over shards).
    pub max_queue_depth: u64,
}

impl Counters {
    /// Folds another shard's counters into this one (sums, except the
    /// high-water mark which takes the max).
    pub fn merge(&mut self, other: &Counters) {
        self.ticks += other.ticks;
        self.batches += other.batches;
        self.stolen_batches += other.stolen_batches;
        self.absorbs += other.absorbs;
        self.absorbs_out_of_order += other.absorbs_out_of_order;
        self.frames += other.frames;
        self.sessions += other.sessions;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// A `(policy, censor)` tenant identity. Ordered so per-tenant maps
/// iterate (and therefore aggregate and expose) in a fixed order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TenantKey {
    pub policy: usize,
    pub censor: usize,
}

/// Per-tenant feedback counters — the signal a future online-adaptation
/// loop consumes (ROADMAP item 5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Wire frames emitted by this tenant's sessions.
    pub frames: u64,
    /// Censor verdicts issued against this tenant's frames — decisions
    /// other than `Allow` (scores, blocks, resets).
    pub verdicts: u64,
    /// Sessions that finished evading (not blocked midstream, not torn
    /// down, final score below the 0.5 detection threshold).
    pub evasions: u64,
    /// Sessions completed.
    pub sessions: u64,
    /// Sessions the censor program tore down mid-stream (`Reset`).
    pub teardowns: u64,
    /// Censor-program observations, `Allow` included — every call into
    /// the program, so `verdict_queries >= verdicts` always holds.
    pub verdict_queries: u64,
}

impl TenantCounters {
    /// Element-wise sum.
    pub fn merge(&mut self, other: &TenantCounters) {
        self.frames += other.frames;
        self.verdicts += other.verdicts;
        self.evasions += other.evasions;
        self.sessions += other.sessions;
        self.teardowns += other.teardowns;
        self.verdict_queries += other.verdict_queries;
    }
}

/// Everything one shard records over a run: counters, latency
/// histograms, per-tenant feedback, and the flight-recorder contents.
///
/// Constructed per shard thread, mutated only by its owner, and handed
/// back by value — the type system enforces the no-sharing discipline.
#[derive(Clone, Debug, Default)]
pub struct ShardTelemetry {
    pub counters: Counters,
    /// Queue-wait latency (enqueue → batch start), nanoseconds.
    pub queue_hist: Histogram,
    /// Compute latency (batch start → end of its last stage), nanoseconds.
    pub compute_hist: Histogram,
    /// End-to-end frame latency, queue wait plus compute (the serving
    /// report's `FrameRun::latency_us`), nanoseconds.
    pub latency_hist: Histogram,
    /// Per-tenant feedback counters, keyed and iterated in fixed order.
    pub tenants: BTreeMap<TenantKey, TenantCounters>,
    /// Flight-recorder events surviving in the ring at run end, oldest
    /// first. Empty when tracing is off.
    pub events: Vec<TraceEvent>,
    /// Events overwritten in the ring before the run ended.
    pub dropped_events: u64,
}

impl ShardTelemetry {
    /// Bumps a tenant counter cell via `f` (creating the zero entry on
    /// first touch).
    #[inline]
    pub fn tenant_mut(&mut self, key: TenantKey) -> &mut TenantCounters {
        self.tenants.entry(key).or_default()
    }

    /// Folds `other` into `self` — the deterministic per-shard merge
    /// step. Events concatenate in fold order; the snapshot layer sorts
    /// them by timestamp before exposition.
    pub fn merge(&mut self, other: &ShardTelemetry) {
        self.counters.merge(&other.counters);
        self.queue_hist.merge(&other.queue_hist);
        self.compute_hist.merge(&other.compute_hist);
        self.latency_hist.merge(&other.latency_hist);
        for (k, v) in &other.tenants {
            self.tenants.entry(*k).or_default().merge(v);
        }
        self.events.extend(other.events.iter().copied());
        self.dropped_events += other.dropped_events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_sums_and_maxes() {
        let mut a = Counters {
            ticks: 3,
            batches: 10,
            stolen_batches: 1,
            absorbs: 10,
            absorbs_out_of_order: 2,
            frames: 100,
            sessions: 4,
            max_queue_depth: 7,
        };
        let b = Counters {
            ticks: 5,
            batches: 20,
            stolen_batches: 0,
            absorbs: 20,
            absorbs_out_of_order: 0,
            frames: 50,
            sessions: 2,
            max_queue_depth: 3,
        };
        a.merge(&b);
        assert_eq!(a.ticks, 8);
        assert_eq!(a.batches, 30);
        assert_eq!(a.frames, 150);
        assert_eq!(a.sessions, 6);
        assert_eq!(a.max_queue_depth, 7, "high-water mark takes the max");
    }

    #[test]
    fn shard_merge_is_associative_on_tenants() {
        let k = TenantKey {
            policy: 0,
            censor: 1,
        };
        let mut a = ShardTelemetry::default();
        a.tenant_mut(k).frames = 5;
        let mut b = ShardTelemetry::default();
        b.tenant_mut(k).frames = 7;
        b.tenant_mut(TenantKey {
            policy: 1,
            censor: 0,
        })
        .evasions = 2;
        a.merge(&b);
        assert_eq!(a.tenants[&k].frames, 12);
        assert_eq!(a.tenants.len(), 2);
        // BTreeMap iteration order is the fixed (policy, censor) order.
        let keys: Vec<_> = a.tenants.keys().copied().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}
