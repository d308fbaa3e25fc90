//! Run-level and per-tenant counters of a [`crate::TelemetrySnapshot`].
//!
//! The serving engine fills them once, after a run, from its merged
//! report; nothing on the serving data path writes them.

/// Engine-level flow and scheduler counters.
///
/// Scheduling-dependent fields (`ticks`, `batches`, `stolen_batches`,
/// `absorbs_out_of_order`, `max_queue_depth`) legitimately vary with
/// shard count / batch size / stealing; per-session fields (`frames`,
/// `sessions`, and everything in [`TenantCounters`]) do not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Drive-loop iterations (ticks formed), summed over shards.
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
    /// Sessions completed, those with an empty offered flow included.
    pub sessions: u64,
    /// Sessions the censor program tore down mid-stream (`Reset`).
    pub teardowns: u64,
    /// Censor-program observations, `Allow` included — every call into
    /// the program, so `verdict_queries >= verdicts` always holds.
    pub verdict_queries: u64,
}
