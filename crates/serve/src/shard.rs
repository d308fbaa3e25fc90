//! The shard-local session store and tick scheduler: one [`Shard`] owns a
//! disjoint subset of the engine's sessions — their state machines,
//! encoder states and RNGs — tracks which of them are due next in a
//! min-heap of `ready_at` times, and packages each virtual tick's due
//! sessions into self-contained `WorkItem`s that the
//! [`crate::scheduler`] executes, on the shard's own driver thread or on
//! a *different* shard's thread via work stealing.
//!
//! ## Multi-tenant scheduling
//!
//! A shard's sessions may belong to different `(policy, censor)` tenants.
//! At every virtual tick the due sessions are bucketed by [`PolicyId`]
//! (ascending, heap pop order preserved within a bucket): sessions that
//! share a policy share weights, so their observations fuse into the same
//! GRU/MLP pass through the [`InferenceBackend`] regardless of which
//! censor each of them is evaluated against. A cross-censor sweep over
//! one policy therefore costs one dataplane run, not one per censor.
//!
//! ## Tick selection
//!
//! Earlier revisions re-scanned every active session twice per tick (a
//! `fold`-min for the earliest `ready_at`, then a refill scan for the due
//! set) — O(active²) over a shard's lifetime. The shard now keeps a
//! `BinaryHeap` keyed by `ready_at`: one pop yields the earliest time
//! `t`, and popping while `ready_at ≤ t + TICK_MS` (a fixed 5 virtual
//! ms quantum) yields exactly the scan's due set (see `pop_due`) in
//! O(due · log active). Sessions re-enter the heap when their work item
//! returns, with their advanced `ready_at`.
//!
//! ## Why sharding and stealing cannot change results
//!
//! Sessions are fully independent: each session owns a private
//! [`CensorProgram`] spawned from its tenant's factory (censor state
//! never aliases between sessions, and the program travels *inside* the
//! session's `WorkItem`, so wherever the item executes it sees the same
//! observation sequence), every matrix op on the batched inference path
//! is row-independent, and each session's randomness derives from
//! `(seed, session_id)` only. A shard is therefore nothing but a
//! *grouping* of sessions, and the dataplane's outputs are
//! grouping-invariant — partitioning sessions across 1, 2, 4 or 8 shards
//! produces bit-identical per-session wire output. The same argument covers tenancy (which other tenants share
//! the process, the tick, or the fused batch cannot shift any session's
//! stream) **and work stealing layered on top**.
//!
//! A session is owned by exactly one `WorkItem` at a time, the three
//! stages of one item run in program order on one thread, and the shard
//! starts a new tick only after every item of the previous tick has
//! returned — so each session sees the exact sequence of
//! `infer → frame → push` steps a serial loop would run. Stealing
//! executes a whole item on an idle peer's thread. The item physically
//! carries its sessions, encoder states and RNGs (moves, never aliases),
//! its sessions keep their global ids, and the thief runs the same pure
//! stage functions over the same policy snapshots, so *where* an item
//! executes is invisible to its bits; results return to the home shard
//! and are absorbed in item sequence order, keeping every subsequent
//! tick's grouping identical too.
//!
//! A session's wire output is a pure function of
//! `(seed, session_id, policy, censor)`; shard count, batch size and
//! steal order are pure throughput knobs. The workspace's
//! `tests/serve_pin.rs` pins this with a stealing × shards × batch sweep
//! against a fingerprint recorded from the pre-heap scan scheduler, and
//! `tests/tenancy_invariance.rs`, `tests/grouping_invariance.rs` and
//! `tests/skewed_steal_invariance.rs` property-test it end-to-end.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use amoeba_classifiers::{CensorDecision, CensorProgram, CensorProgramFactory};
use amoeba_core::encoder::EncoderState;
use amoeba_core::policy::ActorSnapshot;
use amoeba_core::{Action, ShapingKernel};
use amoeba_nn::matrix::Matrix;

use crate::backend::InferenceBackend;
use crate::metrics::SessionOutcome;
use crate::registry::PolicyId;
use crate::scheduler::{DriveAcct, WorkItem};
use crate::session::Session;
use crate::{ActionMode, FrozenPolicy, ServeConfig, VerdictPolicy};

/// One shard's share of an engine run, before the deterministic merge.
pub(crate) struct ShardReport {
    /// Outcomes of this shard's sessions, in session-id order.
    pub outcomes: Vec<SessionOutcome>,
    /// What the shard's driver counted while it served them.
    pub acct: DriveAcct,
}

/// One resident session with its incremental encoder states: the unit
/// that moves between the shard's slot table and an in-flight
/// [`WorkItem`]. A session is either resident or in exactly one item,
/// never both — ownership is the aliasing argument.
pub(crate) struct SessionSlot {
    pub(crate) session: Session,
    /// Incremental `E(x_{1:t})` state.
    pub(crate) x: EncoderState,
    /// Incremental `E(a_{1:t})` state.
    pub(crate) a: EncoderState,
    /// This session's private censor program, spawned from its tenant's
    /// factory at shard construction. Moves with the session into
    /// [`WorkItem`]s so decision state follows the session wherever the
    /// item executes.
    pub(crate) prog: Box<dyn CensorProgram>,
}

/// Scheduler quantum (virtual ms): every session ready within
/// `[t, t + TICK_MS]` of the earliest ready time `t` joins one tick.
/// Per-session output is grouping-invariant, so the quantum only decides
/// how many sessions share a fused pass.
const TICK_MS: f64 = 5.0;

/// Min-heap entry: the next decision time of one resident session.
struct DueEntry {
    ready_at: f64,
    idx: usize,
}

impl PartialEq for DueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for DueEntry {}
impl PartialOrd for DueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DueEntry {
    // Reversed on `ready_at` so the max-heap pops the earliest time; ties
    // break on the *larger* local index first purely to keep the order a
    // deterministic function of the heap contents.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .ready_at
            .total_cmp(&self.ready_at)
            .then(self.idx.cmp(&other.idx))
    }
}

/// Pops one tick's due set: the earliest `ready_at` defines `t`, and
/// every session with `ready_at ≤ t + quantum` joins. Exactly the due
/// set the old O(active) scan (`fold`-min + refill filter) selected,
/// in `ready_at` order. Returns an empty vec on an empty heap.
fn pop_due(heap: &mut BinaryHeap<DueEntry>, quantum: f64) -> Vec<usize> {
    let Some(first) = heap.peek() else {
        return Vec::new();
    };
    let horizon = first.ready_at + quantum;
    let mut due = Vec::new();
    while let Some(e) = heap.peek() {
        if e.ready_at <= horizon {
            due.push(heap.pop().expect("peeked entry").idx);
        } else {
            break;
        }
    }
    due
}

/// The pure, shard-independent batch stage functions plus everything they
/// close over (tenant tables, backend, config, kernel). Every shard holds
/// the same tables, so a thief runs a stolen item through its own
/// shard's processor.
///
/// The three stages of one [`WorkItem`]:
/// 1. [`ChunkProcessor::infer`] — gather observations, advance
///    `E(x_{1:t})` with one fused GRU step, run the fused actor head;
/// 2. [`ChunkProcessor::frame`] — per session: act, frame, impair,
///    verdict (the only stage that touches session RNGs);
/// 3. [`ChunkProcessor::push_emitted`] — record what went on the wire in
///    `E(a_{1:t})` with one fused GRU step.
pub(crate) struct ChunkProcessor {
    pub(crate) policies: Arc<[FrozenPolicy]>,
    pub(crate) backend: Arc<dyn InferenceBackend>,
    pub(crate) cfg: ServeConfig,
    pub(crate) kernel: ShapingKernel,
    /// The engine's run start: every work-item stamp is nanoseconds
    /// since this instant, the same for every shard, so all shards share
    /// one time axis.
    pub(crate) epoch: Instant,
}

impl ChunkProcessor {
    /// Nanoseconds since the run epoch: the one clock read of the
    /// serving data path. Each work item takes five (formed, then the
    /// start and end of its three contiguous stages).
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        // audit:allow(AMB002, reason = "work-item timing stamps for latency accounting and trace spans; never read by scheduling or the wire")
        let now = Instant::now();
        now.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Stage 1: one fused observation push + actor-head pass over the
    /// item's sessions. Returns `(means, logstds)`, one row per session.
    pub(crate) fn infer(&self, item: &mut WorkItem) -> (Matrix, Matrix) {
        let b = item.sessions.len();
        let policy = &self.policies[item.policy.index()];
        let hidden = policy.encoder.hidden_size();
        let identity: Vec<usize> = (0..b).collect();

        // Gather the pending observations into one (B, 2) matrix.
        let mut obs = Matrix::zeros(b, 2);
        for (r, s) in item.sessions.iter().enumerate() {
            let o = s.observe().expect("ready session has an observation");
            obs.row_mut(r)
                .copy_from_slice(&o.normalized(self.cfg.layer, self.cfg.max_delay_ms));
        }
        // One fused GRU step advances every due flow's E(x_{1:t}).
        self.backend
            .push_batch(policy, &mut item.x, &identity, &obs);

        // One fused actor pass over the concatenated states.
        let mut states = Matrix::zeros(b, 2 * hidden);
        for r in 0..b {
            let row = states.row_mut(r);
            row[..hidden].copy_from_slice(item.x[r].representation());
            row[hidden..].copy_from_slice(item.a[r].representation());
        }
        self.backend.head_batch(policy, &states)
    }

    /// Stage 2: per-session action, framing, impairment and censor
    /// program observations. Returns the `(B, 2)` normalized
    /// emitted-packet matrix stage 3 feeds back into `E(a_{1:t})`.
    ///
    /// Each session's [`CensorProgram`] rides inside the item
    /// (`item.progs[r]`, parallel to `sessions`), so the observation
    /// sequence a program sees is a pure function of its session's wire
    /// stream — independent of which thread executes the stage. The
    /// cadence gate ([`VerdictPolicy`]) decides *when* the program is
    /// consulted mid-stream; the program decides *what happens*:
    /// `Allow` passes, `Score(s)` blocks at the 0.5 threshold, `Block`
    /// blocks unconditionally, and `Reset` tears the session down
    /// ([`crate::SessionStatus::Torn`]). The complete flow is always
    /// observed once with `last = true`, whose decision becomes the
    /// final score (`Allow` → 0.0, `Score(s)` → `s`, `Block`/`Reset` →
    /// 1.0).
    pub(crate) fn frame(&self, item: &mut WorkItem, means: &Matrix, logstds: &Matrix) -> Matrix {
        let b = item.sessions.len();
        let kernel = self.kernel;
        let mut emitted = Matrix::zeros(b, 2);
        for (r, session) in item.sessions.iter_mut().enumerate() {
            let action = match self.cfg.mode {
                ActionMode::Deterministic => Action::clamped(means[(r, 0)], means[(r, 1)]),
                ActionMode::Sample => {
                    let (a, _) = ActorSnapshot::sample_from_head(
                        means.row(r),
                        logstds.row(r),
                        session.rng(),
                    );
                    Action::clamped(a[0], a[1])
                }
            };
            let netem = self.cfg.netem;
            let event = session.advance(&kernel, action, netem.as_ref());
            emitted
                .row_mut(r)
                .copy_from_slice(&kernel.normalize_packet(&event.emitted));

            let prog = &mut item.progs[r];
            let due = match self.cfg.verdicts {
                VerdictPolicy::Final => false,
                VerdictPolicy::EveryFrame => true,
                VerdictPolicy::Every(n) => n > 0 && session.frames().is_multiple_of(n),
            };
            if event.done {
                // The unique final observation: its decision is the
                // session's final score.
                let score = match session.query(prog.as_mut(), true) {
                    CensorDecision::Allow => 0.0,
                    CensorDecision::Score(s) => s,
                    CensorDecision::Block => 1.0,
                    CensorDecision::Reset => {
                        session.tear_down();
                        1.0
                    }
                };
                session.set_final_score(score);
                session.finish_streams();
            } else if due && !session.blocked_midstream() {
                match session.query(prog.as_mut(), false) {
                    CensorDecision::Allow => {}
                    CensorDecision::Score(s) => {
                        if s >= 0.5 {
                            session.set_blocked_midstream();
                        }
                    }
                    CensorDecision::Block => session.set_blocked_midstream(),
                    CensorDecision::Reset => {
                        session.tear_down();
                        session.set_final_score(1.0);
                        session.finish_streams();
                    }
                }
            }
        }
        emitted
    }

    /// Stage 3: one fused GRU step records what went on the wire in
    /// `E(a_{1:t})`.
    pub(crate) fn push_emitted(&self, item: &mut WorkItem, emitted: &Matrix) {
        let b = item.sessions.len();
        let policy = &self.policies[item.policy.index()];
        let identity: Vec<usize> = (0..b).collect();
        self.backend
            .push_batch(policy, &mut item.a, &identity, emitted);
    }
}

/// A shard: a worker-thread-sized slice of the engine. Owns its sessions
/// (through the slot table), their incremental encoder states, and
/// (through the sessions) their RNGs; shares only the frozen policy
/// table, the censor table and the inference backend, all immutable and
/// `Send + Sync`.
pub(crate) struct Shard {
    pub(crate) proc: ChunkProcessor,
    /// Session slots, locally indexed (ids stay global). `None` while the
    /// session is travelling inside an in-flight [`WorkItem`].
    slots: Vec<Option<SessionSlot>>,
    /// Resident, unfinished sessions keyed by their next decision time.
    heap: BinaryHeap<DueEntry>,
    /// Due-session buckets, one per policy, reused across ticks.
    buckets: Vec<Vec<usize>>,
    /// This shard's position in the engine's shard table (= its queue and
    /// return-channel index in the scheduler).
    index: usize,
}

impl Shard {
    /// Builds shard `index` around its session subset and the shared
    /// tenant tables; `epoch` is the engine's run start, shared by the
    /// whole fleet. Encoder states start at the zero state (`E` of an
    /// empty sequence) of each session's own policy, identical for every
    /// session of that policy, so where a session is admitted cannot
    /// matter. Constructed by [`crate::ServeEngine::run`]'s round-robin
    /// partition.
    ///
    /// # Panics
    /// Panics if a session references a policy or censor outside the
    /// tables.
    pub(crate) fn new(
        policies: Arc<[FrozenPolicy]>,
        censors: Arc<[Arc<dyn CensorProgramFactory>]>,
        backend: Arc<dyn InferenceBackend>,
        cfg: ServeConfig,
        sessions: Vec<Session>,
        epoch: Instant,
        index: usize,
    ) -> Self {
        let kernel = cfg.kernel();
        let mut heap = BinaryHeap::with_capacity(sessions.len());
        let slots: Vec<Option<SessionSlot>> = sessions
            .into_iter()
            .enumerate()
            .map(|(idx, session)| {
                let t = session.tenant();
                assert!(
                    t.censor.index() < censors.len(),
                    "session {} references unknown CensorId({})",
                    session.id(),
                    t.censor.index()
                );
                let prog = censors[t.censor.index()].spawn();
                let state = policies
                    .get(t.policy.index())
                    .unwrap_or_else(|| {
                        panic!(
                            "session {} references unknown PolicyId({})",
                            session.id(),
                            t.policy.index()
                        )
                    })
                    .encoder
                    .begin();
                if !session.is_done() {
                    heap.push(DueEntry {
                        ready_at: session.ready_at(),
                        idx,
                    });
                }
                Some(SessionSlot {
                    session,
                    x: state.clone(),
                    a: state,
                    prog,
                })
            })
            .collect();
        let buckets = vec![Vec::new(); policies.len()];
        Self {
            proc: ChunkProcessor {
                policies,
                backend,
                cfg,
                kernel,
                epoch,
            },
            slots,
            heap,
            buckets,
            index,
        }
    }

    /// This shard's position in the engine's shard table.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// True while any resident session still has frames to emit.
    pub(crate) fn has_pending(&self) -> bool {
        !self.heap.is_empty()
    }

    /// Forms the next virtual tick: pops the due set off the heap,
    /// buckets it by policy (ascending, pop order preserved within a
    /// bucket), chunks each bucket at `max_batch`, and moves the chunked
    /// sessions (with their encoder states) out of their slots into
    /// sequence-stamped [`WorkItem`]s. Returns an empty vec when nothing
    /// is pending.
    pub(crate) fn next_tick(&mut self, next_seq: &mut u64) -> Vec<WorkItem> {
        let due = pop_due(&mut self.heap, TICK_MS);
        for &i in &due {
            let slot = self.slots[i].as_ref().expect("due session is resident");
            self.buckets[slot.session.tenant().policy.index()].push(i);
        }
        let max_batch = self.proc.cfg.max_batch;
        let mut items = Vec::new();
        for (p, bucket) in self.buckets.iter_mut().enumerate() {
            for chunk in bucket.chunks(max_batch) {
                let mut local = Vec::with_capacity(chunk.len());
                let mut sessions = Vec::with_capacity(chunk.len());
                let mut x = Vec::with_capacity(chunk.len());
                let mut a = Vec::with_capacity(chunk.len());
                let mut progs = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let slot = self.slots[i].take().expect("due session is resident");
                    local.push(i);
                    sessions.push(slot.session);
                    x.push(slot.x);
                    a.push(slot.a);
                    progs.push(slot.prog);
                }
                items.push(WorkItem::new(
                    self.index,
                    *next_seq,
                    self.proc.now_ns(),
                    PolicyId(p),
                    local,
                    sessions,
                    x,
                    a,
                    progs,
                ));
                *next_seq += 1;
            }
            // Empty for the next tick's refill, keeping the allocation.
            bucket.clear();
        }
        items
    }

    /// Re-seats a returned item's sessions into their slots; unfinished
    /// sessions re-enter the heap at their advanced `ready_at`.
    pub(crate) fn reclaim(&mut self, item: WorkItem) {
        let WorkItem {
            local,
            sessions,
            x,
            a,
            progs,
            ..
        } = item;
        for ((((i, session), x), a), prog) in
            local.into_iter().zip(sessions).zip(x).zip(a).zip(progs)
        {
            if !session.is_done() {
                self.heap.push(DueEntry {
                    ready_at: session.ready_at(),
                    idx: i,
                });
            }
            debug_assert!(self.slots[i].is_none(), "slot {i} double-occupied");
            self.slots[i] = Some(SessionSlot {
                session,
                x,
                a,
                prog,
            });
        }
    }

    /// Consumes the shard into its report once every session finished.
    pub(crate) fn into_report(self, acct: DriveAcct) -> ShardReport {
        let outcomes = self
            .slots
            .into_iter()
            .map(|slot| {
                slot.expect("all sessions resident at completion")
                    .session
                    .into_outcome()
            })
            .collect();
        ShardReport { outcomes, acct }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scan reference the heap replaced: min over `ready_at`, then a
    /// filter at `t + quantum`, preserving input order.
    fn scan_due(ready: &[(usize, f64)], quantum: f64) -> Vec<usize> {
        let t = ready.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
        ready
            .iter()
            .filter(|&&(_, r)| r <= t + quantum)
            .map(|&(i, _)| i)
            .collect()
    }

    /// `pop_due` selects exactly the scan's due set, tick after tick,
    /// including exact ties and quantum-edge members; the scan scans in
    /// index order and the heap pops in `ready_at` order, so compare as
    /// sets (chunk-order differences are grouping-invariant by the
    /// module-docs argument).
    #[test]
    fn heap_due_set_matches_scan_due_set() {
        let cases: &[(&[f64], f64)] = &[
            (&[0.0, 0.0, 0.0, 0.0], 5.0),
            (&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], 2.0),
            (&[10.0, 10.0 + 5.0, 10.0 + 5.0000001, 12.5], 5.0),
            (&[7.25, 7.25, 99.0], 0.0),
            (&[1e-12, 0.0, 1e12], 1.0),
            (&[2.0], 5.0),
        ];
        for &(times, quantum) in cases {
            let mut heap: BinaryHeap<DueEntry> = times
                .iter()
                .enumerate()
                .map(|(idx, &ready_at)| DueEntry { ready_at, idx })
                .collect();
            let mut remaining: Vec<(usize, f64)> = times.iter().copied().enumerate().collect();
            while !remaining.is_empty() {
                let mut heap_due = pop_due(&mut heap, quantum);
                let mut scan = scan_due(&remaining, quantum);
                heap_due.sort_unstable();
                scan.sort_unstable();
                assert_eq!(heap_due, scan, "times {times:?} quantum {quantum}");
                remaining.retain(|(i, _)| !scan.contains(i));
            }
            assert!(pop_due(&mut heap, quantum).is_empty());
        }
    }

    /// Heap pop order is earliest-first and a deterministic function of
    /// the contents, ties included.
    #[test]
    fn pop_due_is_sorted_by_ready_at() {
        let times = [5.0, 1.0, 3.0, 1.0, 2.0, 3.0];
        let mut heap: BinaryHeap<DueEntry> = times
            .iter()
            .enumerate()
            .map(|(idx, &ready_at)| DueEntry { ready_at, idx })
            .collect();
        let due = pop_due(&mut heap, 100.0);
        assert_eq!(due.len(), times.len());
        let popped: Vec<f64> = due.iter().map(|&i| times[i]).collect();
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "{popped:?}");
    }
}
