//! The shard executor: one driver thread per shard runs its work items
//! inline, and a work-stealing scheduler balances items between shards.
//!
//! ## Execution
//!
//! Each shard's driver thread owns the virtual clock. It turns every tick
//! into `WorkItem`s and runs each item's three stages back to back on
//! its own thread:
//!
//! ```text
//! infer: gather obs, fused push/head                  (stage 1)
//! frame: act, frame, impair, verdict                  (stage 2)
//! emit:  fused E(a) push                              (stage 3)
//! ──▶ the item's *home* shard's return channel
//! ```
//!
//! A new tick starts only after every item of the previous tick returned
//! — the barrier that keeps tick grouping independent of execution
//! timing. The drivers are the only threads the crate spawns
//! ([`run_shards`]; a single shard runs on the caller).
//!
//! ## Work stealing
//!
//! Every shard pushes its tick's items onto its own deque; the owner pops
//! from the front, and any shard that runs out of local work (or has
//! finished all its sessions) steals from the *back* of the busiest
//! peer's deque. Items physically own their sessions and encoder states,
//! so stealing is a move, not a borrow; the thief runs the same pure
//! stage functions and the finished item returns to its home shard's
//! channel, where it is absorbed in sequence order. One heavy tenant can
//! therefore no longer idle the other shards under skewed mixes. See the
//! determinism argument in the [`crate::shard`] module docs — shard
//! placement and steal order are pure throughput knobs.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use amoeba_classifiers::CensorProgram;
use amoeba_telemetry::{FlightRecorder, ShardTelemetry, StageKind, TenantKey, TraceEvent};

use crate::metrics::FrameRun;
use crate::registry::PolicyId;
use crate::session::Session;
use crate::shard::{ChunkProcessor, Shard, ShardReport};
use amoeba_core::encoder::EncoderState;

/// How long a driver blocks on its return channel when it has nothing to
/// execute locally and nothing to steal.
const RETURN_WAIT: Duration = Duration::from_micros(200);

/// Idle backoff in the steal-only epilogue.
const STEAL_IDLE: Duration = Duration::from_micros(50);

/// Wall-clock accounting carried by one in-flight [`WorkItem`].
pub(crate) struct ChunkAcct {
    /// When the item was formed (queue wait = `enqueued → stage 1 start`).
    enqueued: Instant,
    /// Queue wait in µs, stamped when stage 1 begins.
    queue_us: f32,
    /// Stage 1 + stage 3 (fused inference) wall-clock, µs.
    infer_us: f32,
    /// Stage 2 (framing/impairment/verdicts) wall-clock, µs.
    framing_us: f32,
    /// Executed by a peer shard rather than its home.
    stolen: bool,
    /// Shard index of the thread that executed the stages (set by
    /// [`Shared::steal`]; equals `home` otherwise).
    pub(crate) executor: u32,
    /// Censor *verdicts* (non-`Allow` program decisions) issued per
    /// session this pass, parallel to `sessions` (filled by stage 2 when
    /// telemetry is on; at most one per pass — inline and final
    /// observations are mutually exclusive).
    pub(crate) verdicts: Vec<u8>,
    /// Censor-program *queries* (every `observe` call, `Allow` included)
    /// per session this pass, parallel to `sessions`. A cadence-gated or
    /// warming-up program is queried without rendering a verdict, so
    /// `queries ≥ verdicts`.
    pub(crate) queries: Vec<u8>,
    /// Stage-trace stamps, nanoseconds since the run epoch. Written only
    /// when stage tracing is on; materialized into [`TraceEvent`]s at
    /// absorb time on the home driver, whose [`DriveAcct`] owns the
    /// flight recorder.
    pub(crate) infer_t0_ns: u64,
    pub(crate) infer_dur_ns: u64,
    pub(crate) frame_t0_ns: u64,
    pub(crate) frame_dur_ns: u64,
    pub(crate) emit_t0_ns: u64,
    pub(crate) emit_dur_ns: u64,
}

/// A self-contained unit of schedulable work: one `(policy, chunk)` of
/// due sessions, physically carrying the sessions and their encoder
/// states (moved out of the home shard's slots, moved back on return).
/// Independence of sessions makes the item executable on any thread.
pub(crate) struct WorkItem {
    /// The shard whose slots these sessions came from (and return to).
    pub(crate) home: usize,
    /// Home-shard-local creation sequence number; absorption happens in
    /// `seq` order so tick grouping never depends on completion timing.
    pub(crate) seq: u64,
    /// The policy every session in this chunk shares.
    pub(crate) policy: PolicyId,
    /// Home-shard-local slot indices, parallel to `sessions`.
    pub(crate) local: Vec<usize>,
    /// The chunk's sessions (global ids travel with them).
    pub(crate) sessions: Vec<Session>,
    /// Per-session incremental `E(x_{1:t})` states.
    pub(crate) x: Vec<EncoderState>,
    /// Per-session incremental `E(a_{1:t})` states.
    pub(crate) a: Vec<EncoderState>,
    /// Per-session censor programs, parallel to `sessions`. Program state
    /// physically travels with the item — the thief that executes a
    /// stolen item holds the same state the home shard would have, so
    /// decisions are execution-placement-invariant by construction.
    pub(crate) progs: Vec<Box<dyn CensorProgram>>,
    pub(crate) acct: ChunkAcct,
}

impl WorkItem {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        home: usize,
        seq: u64,
        policy: PolicyId,
        local: Vec<usize>,
        sessions: Vec<Session>,
        x: Vec<EncoderState>,
        a: Vec<EncoderState>,
        progs: Vec<Box<dyn CensorProgram>>,
    ) -> Self {
        Self {
            home,
            seq,
            policy,
            local,
            sessions,
            x,
            a,
            progs,
            acct: ChunkAcct {
                // audit:allow(AMB002, reason = "queue-wait telemetry epoch; feeds latency histograms only, never control flow")
                enqueued: Instant::now(),
                queue_us: 0.0,
                infer_us: 0.0,
                framing_us: 0.0,
                stolen: false,
                executor: home as u32,
                verdicts: Vec::new(),
                queries: Vec::new(),
                infer_t0_ns: 0,
                infer_dur_ns: 0,
                frame_t0_ns: 0,
                frame_dur_ns: 0,
                emit_t0_ns: 0,
                emit_dur_ns: 0,
            },
        }
    }

    fn len(&self) -> usize {
        self.sessions.len()
    }
}

/// Per-driver accounting, folded into the [`ShardReport`] at the end.
#[derive(Default)]
pub(crate) struct DriveAcct {
    pub(crate) frames: usize,
    pub(crate) batches: usize,
    pub(crate) frame_runs: Vec<FrameRun>,
    pub(crate) stolen_batches: usize,
    pub(crate) infer_us: f64,
    pub(crate) framing_us: f64,
    pub(crate) max_queue_depth: usize,
    /// Shard-local telemetry (counters, histograms, per-tenant feedback,
    /// flight-recorder contents). Recorded only when
    /// [`crate::ServeConfig::telemetry`] is on; folded deterministically
    /// at the engine's k-way merge.
    pub(crate) tel: ShardTelemetry,
    /// This driver's stage-trace ring: spans of its own work items,
    /// pushed at absorb wherever the item executed. Capacity 0 (tracing
    /// off) makes every push a no-op.
    pub(crate) rec: FlightRecorder,
}

/// State shared by every driver thread: one work deque per shard and the
/// count of shards still producing work (the steal-epilogue termination
/// signal).
struct Shared {
    queues: Vec<Mutex<VecDeque<WorkItem>>>,
    live: AtomicUsize,
}

impl Shared {
    fn new(n: usize) -> Self {
        Self {
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            live: AtomicUsize::new(n),
        }
    }

    fn enqueue(&self, shard: usize, items: Vec<WorkItem>) {
        let mut q = self.queues[shard].lock().expect("queue poisoned");
        q.extend(items);
    }

    /// The owner pops oldest-first.
    fn pop_own(&self, shard: usize) -> Option<WorkItem> {
        self.queues[shard]
            .lock()
            .expect("queue poisoned")
            .pop_front()
    }

    /// A thief takes newest-first from the first non-empty peer deque
    /// (round-robin from `thief + 1` so pressure spreads).
    fn steal(&self, thief: usize) -> Option<WorkItem> {
        let n = self.queues.len();
        for off in 1..n {
            let victim = (thief + off) % n;
            let mut q = self.queues[victim].lock().expect("queue poisoned");
            if let Some(mut item) = q.pop_back() {
                item.acct.stolen = true;
                item.acct.executor = thief as u32;
                return Some(item);
            }
        }
        None
    }

    /// Called once per driver when its own sessions are all finished.
    fn retire(&self) {
        // audit:allow(AMB005, reason = "liveness countdown deciding only when idle thieves stop spinning; items absorb at home in seq order, so wire output is independent of the race")
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    fn live(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }
}

fn elapsed_us(t: Instant) -> f32 {
    (t.elapsed().as_nanos() as f64 / 1e3) as f32
}

/// Runs all three stages of one item on the calling thread — infer,
/// frame, emit — then sends it to its home shard's return channel.
fn execute(mut item: WorkItem, proc: &ChunkProcessor, homes: &[Sender<WorkItem>]) {
    let trace = proc.trace_on();
    item.acct.queue_us = elapsed_us(item.acct.enqueued);
    if trace {
        item.acct.infer_t0_ns = proc.now_ns();
    }
    // audit:allow(AMB002, reason = "infer-stage latency telemetry (ChunkAcct::infer_us); never read by control flow")
    let t0 = Instant::now();
    let (means, logstds) = proc.infer(&mut item);
    item.acct.infer_us += elapsed_us(t0);
    if trace {
        item.acct.infer_dur_ns = proc.now_ns().saturating_sub(item.acct.infer_t0_ns);
        item.acct.frame_t0_ns = proc.now_ns();
    }
    // audit:allow(AMB002, reason = "framing-stage latency telemetry (ChunkAcct::framing_us); never read by control flow")
    let t1 = Instant::now();
    let emitted = proc.frame(&mut item, &means, &logstds);
    item.acct.framing_us = elapsed_us(t1);
    if trace {
        item.acct.frame_dur_ns = proc.now_ns().saturating_sub(item.acct.frame_t0_ns);
        item.acct.emit_t0_ns = proc.now_ns();
    }
    // audit:allow(AMB002, reason = "emit-stage latency telemetry (ChunkAcct::infer_us); never read by control flow")
    let t2 = Instant::now();
    proc.push_emitted(&mut item, &emitted);
    item.acct.infer_us += elapsed_us(t2);
    if trace {
        item.acct.emit_dur_ns = proc.now_ns().saturating_sub(item.acct.emit_t0_ns);
    }
    // The home driver holds its receiver for its whole run; a failed
    // send means it already has every item it was owed, which this item
    // contradicts — panic loudly.
    homes[item.home]
        .send(item)
        .expect("home shard dropped its return channel");
}

/// Runs a fleet of shards to completion — one driver thread per shard
/// (inline on the caller for a single shard), stealing work from peers
/// when [`crate::ServeConfig::steal`] is on — and returns their reports
/// in shard order.
pub(crate) fn run_shards(mut shards: Vec<Shard>) -> Vec<ShardReport> {
    assert!(!shards.is_empty(), "run_shards needs at least one shard");
    let n = shards.len();
    // One epoch for the whole fleet, so trace timestamps from different
    // shards land on a common axis.
    // audit:allow(AMB002, reason = "fleet-wide flight-recorder trace epoch; timestamps land in Chrome traces, not the wire")
    let epoch = Instant::now();
    for (i, s) in shards.iter_mut().enumerate() {
        s.set_index(i);
        s.proc.epoch = epoch;
    }
    let steal = shards[0].proc.cfg.steal && n > 1;
    let shared = Arc::new(Shared::new(n));
    let mut homes = Vec::with_capacity(n);
    let mut returns = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = mpsc::channel();
        homes.push(tx);
        returns.push(rx);
    }
    if n == 1 {
        let shard = shards.pop().expect("one shard");
        let rx = returns.pop().expect("one receiver");
        return vec![drive(shard, &shared, &homes, rx, steal)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .zip(returns)
            .map(|(shard, rx)| {
                let shared = Arc::clone(&shared);
                let homes = homes.clone();
                scope.spawn(move || drive(shard, &shared, &homes, rx, steal))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Folds one returned item into the shard, strictly in `seq` order:
/// out-of-order returns park in `parked` until their predecessors
/// arrive, so per-frame accounting vectors and heap reinsertion order
/// are deterministic whatever the completion timing was.
fn absorb(
    shard: &mut Shard,
    acct: &mut DriveAcct,
    parked: &mut BTreeMap<u64, WorkItem>,
    next_absorb: &mut u64,
    item: WorkItem,
) {
    let telemetry = shard.proc.cfg.telemetry;
    let exact = shard.proc.cfg.exact_frame_stats;
    let trace = shard.proc.trace_on();
    if telemetry && item.seq != *next_absorb {
        acct.tel.counters.absorbs_out_of_order += 1;
    }
    parked.insert(item.seq, item);
    while let Some(item) = parked.remove(next_absorb) {
        *next_absorb += 1;
        acct.batches += 1;
        acct.frames += item.len();
        if item.acct.stolen {
            acct.stolen_batches += 1;
        }
        acct.infer_us += item.acct.infer_us as f64;
        acct.framing_us += item.acct.framing_us as f64;
        let compute = item.acct.infer_us + item.acct.framing_us;
        if telemetry {
            let tel = &mut acct.tel;
            tel.counters.absorbs += 1;
            // End-to-end frame latency: item formed → absorbed home.
            let latency_us = elapsed_us(item.acct.enqueued);
            for (r, session) in item.sessions.iter().enumerate() {
                tel.queue_hist.record_us(item.acct.queue_us);
                tel.compute_hist.record_us(compute);
                tel.latency_hist.record_us(latency_us);
                let t = session.tenant();
                let cell = tel.tenant_mut(TenantKey {
                    policy: t.policy.index(),
                    censor: t.censor.index(),
                });
                cell.frames += 1;
                cell.verdicts += u64::from(item.acct.verdicts.get(r).copied().unwrap_or(0));
                cell.verdict_queries += u64::from(item.acct.queries.get(r).copied().unwrap_or(0));
                if session.is_done() {
                    // Done sessions never re-enter the heap, so this pass
                    // is the unique one that observes the finish.
                    cell.sessions += 1;
                    cell.evasions += u64::from(session.evaded());
                    cell.teardowns += u64::from(session.torn());
                }
            }
            if trace {
                let span = |stage, t0_ns, dur_ns| TraceEvent {
                    stage,
                    shard: item.home as u32,
                    executor: item.acct.executor,
                    seq: item.seq,
                    t0_ns,
                    dur_ns,
                    batch: item.len() as u32,
                };
                let rec = &mut acct.rec;
                if item.acct.stolen {
                    // Instantaneous marker at the thief's stage-1 start.
                    rec.push(span(StageKind::Steal, item.acct.infer_t0_ns, 0));
                }
                rec.push(span(
                    StageKind::Infer,
                    item.acct.infer_t0_ns,
                    item.acct.infer_dur_ns,
                ));
                rec.push(span(
                    StageKind::Frame,
                    item.acct.frame_t0_ns,
                    item.acct.frame_dur_ns,
                ));
                rec.push(span(
                    StageKind::Emit,
                    item.acct.emit_t0_ns,
                    item.acct.emit_dur_ns,
                ));
            }
        }
        if exact {
            // One run per stretch of consecutive same-tenant sessions:
            // every frame of the item shares its queue wait and compute.
            let first_run = acct.frame_runs.len();
            for session in &item.sessions {
                let tenant = session.tenant();
                match acct.frame_runs[first_run..].last_mut() {
                    Some(run) if run.tenant == tenant => run.frames += 1,
                    _ => acct.frame_runs.push(FrameRun {
                        queue_us: item.acct.queue_us,
                        compute_us: compute,
                        tenant,
                        frames: 1,
                    }),
                }
            }
        }
        shard.reclaim(item);
    }
}

/// One shard's driver loop: form ticks, execute own work, absorb returns,
/// steal when idle, and — once its own sessions are done — keep stealing
/// until every peer has retired.
fn drive(
    mut shard: Shard,
    shared: &Shared,
    homes: &[Sender<WorkItem>],
    returns: Receiver<WorkItem>,
    steal: bool,
) -> ShardReport {
    let me = shard.index();
    // Absorbs only ever run on the home driver, so one ring per driver
    // covers all of this shard's items.
    let mut acct = DriveAcct {
        rec: FlightRecorder::new(shard.proc.cfg.trace_ring),
        ..DriveAcct::default()
    };
    let mut next_seq = 0u64;
    let mut next_absorb = 0u64;
    let mut parked: BTreeMap<u64, WorkItem> = BTreeMap::new();
    let telemetry = shard.proc.cfg.telemetry;

    while shard.has_pending() {
        if telemetry {
            acct.tel.counters.ticks += 1;
        }
        let items = shard.next_tick(&mut next_seq);
        let mut outstanding = items.len();
        acct.max_queue_depth = acct.max_queue_depth.max(outstanding);
        shared.enqueue(me, items);
        // Tick barrier: every item of this tick must return (own
        // execution or a thief's) before the clock can advance.
        while outstanding > 0 {
            while let Ok(item) = returns.try_recv() {
                absorb(&mut shard, &mut acct, &mut parked, &mut next_absorb, item);
                outstanding -= 1;
            }
            if outstanding == 0 {
                break;
            }
            if let Some(item) = shared.pop_own(me) {
                execute(item, &shard.proc, homes);
                continue;
            }
            if steal {
                if let Some(item) = shared.steal(me) {
                    execute(item, &shard.proc, homes);
                    continue;
                }
            }
            match returns.recv_timeout(RETURN_WAIT) {
                Ok(item) => {
                    absorb(&mut shard, &mut acct, &mut parked, &mut next_absorb, item);
                    outstanding -= 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("own sender is held in `homes` for the whole run")
                }
            }
        }
    }
    shared.retire();
    // Steal-only epilogue: this shard's sessions are finished, but peers
    // may still be loaded — stay useful until the last one retires.
    if steal {
        while shared.live() > 0 {
            if let Some(item) = shared.steal(me) {
                execute(item, &shard.proc, homes);
            } else {
                std::thread::sleep(STEAL_IDLE);
            }
        }
    }
    debug_assert!(parked.is_empty(), "absorbed all items in seq order");
    shard.into_report(acct)
}
