//! Pass-through timing wrappers around the two serving seams the engine
//! already exposes: the inference backend
//! ([`amoeba_serve::ServeEngine::with_backend`]) and the censor program
//! factory ([`amoeba_serve::ServeEngine::register_censor_program`]).
//!
//! Each wrapper forwards every call unchanged to the wrapped object and
//! adds only a clock read on each side plus three relaxed counter bumps,
//! so the wire output of a wrapped engine is bit-identical to the
//! unwrapped one (checked by the tests below and by every traced run).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amoeba_classifiers::{CensorDecision, CensorKind, CensorProgram, CensorProgramFactory};
use amoeba_core::encoder::EncoderState;
use amoeba_nn::matrix::Matrix;
use amoeba_serve::{FrozenPolicy, InferenceBackend};
use amoeba_traffic::Flow;

/// Call count, work count and busy time of one wrapped operation.
/// The counters publish no other data, so `Relaxed` is enough; they are
/// read only after the engine run has joined its threads.
#[derive(Debug, Default)]
pub struct OpCounter {
    calls: AtomicU64,
    units: AtomicU64,
    nanos: AtomicU64,
}

/// A read-out of an [`OpCounter`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    /// Calls made.
    pub calls: u64,
    /// Work units processed (batch rows, or packets scored).
    pub units: u64,
    /// Wall time spent inside the calls, summed over threads.
    pub seconds: f64,
}

impl OpCounter {
    fn record(&self, units: usize, start: Instant) {
        let nanos = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.units.fetch_add(units as u64, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// The counts so far.
    pub fn read(&self) -> OpStats {
        OpStats {
            calls: self.calls.load(Ordering::Relaxed),
            units: self.units.load(Ordering::Relaxed),
            seconds: self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// Times `push_batch` (units: rows) and `head_batch` (units: rows) of
/// the wrapped backend.
pub struct TimedBackend {
    inner: Arc<dyn InferenceBackend>,
    /// `push_batch` counters.
    pub push: OpCounter,
    /// `head_batch` counters.
    pub head: OpCounter,
}

impl TimedBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn InferenceBackend>) -> Self {
        Self {
            inner,
            push: OpCounter::default(),
            head: OpCounter::default(),
        }
    }
}

impl InferenceBackend for TimedBackend {
    fn push_batch(
        &self,
        policy: &FrozenPolicy,
        states: &mut [EncoderState],
        indices: &[usize],
        obs: &Matrix,
    ) {
        let start = Instant::now();
        self.inner.push_batch(policy, states, indices, obs);
        self.push.record(indices.len(), start);
    }

    fn head_batch(&self, policy: &FrozenPolicy, states: &Matrix) -> (Matrix, Matrix) {
        let start = Instant::now();
        let out = self.inner.head_batch(policy, states);
        self.head.record(states.rows(), start);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times `CensorProgram::observe` of every program the wrapped factory
/// spawns (units: packets in the scored prefix).
pub struct TimedCensor {
    inner: Arc<dyn CensorProgramFactory>,
    /// `observe` counters, shared by every spawned program.
    pub observe: Arc<OpCounter>,
}

impl TimedCensor {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn CensorProgramFactory>) -> Self {
        Self {
            inner,
            observe: Arc::new(OpCounter::default()),
        }
    }
}

struct TimedProgram {
    inner: Box<dyn CensorProgram>,
    observe: Arc<OpCounter>,
}

impl CensorProgram for TimedProgram {
    fn observe(&mut self, wire: &Flow, last: bool) -> CensorDecision {
        let start = Instant::now();
        let decision = self.inner.observe(wire, last);
        self.observe.record(wire.len(), start);
        decision
    }
}

impl CensorProgramFactory for TimedCensor {
    fn spawn(&self) -> Box<dyn CensorProgram> {
        Box::new(TimedProgram {
            inner: self.inner.spawn(),
            observe: Arc::clone(&self.observe),
        })
    }

    fn kind(&self) -> CensorKind {
        self.inner.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_classifiers::ClassifierProgramFactory;
    use amoeba_serve::testutil::{offered_flows, scoring_censor, tiny_policy};
    use amoeba_serve::{BackendKind, ServeConfig, ServeEngine, ServeReport, VerdictPolicy};
    use amoeba_traffic::Layer;

    fn engine(shards: usize, pipeline: bool) -> ServeEngine {
        let cfg = ServeConfig::builder(Layer::Tcp)
            .seed(7)
            .batch(8)
            .shards(shards)
            .pipeline(pipeline)
            .steal(true)
            .verdicts(VerdictPolicy::Every(2))
            .backend(BackendKind::default())
            .build();
        ServeEngine::new(cfg)
    }

    fn admit(engine: &mut ServeEngine, censor: amoeba_serve::CensorId) {
        let p = engine.register_policy(tiny_policy(3));
        let flows = offered_flows(40, 9);
        engine.admit_all(flows.iter(), p, censor);
    }

    fn plain(shards: usize, pipeline: bool) -> ServeReport {
        let mut e = engine(shards, pipeline);
        let c = e.register_censor(scoring_censor(0.3));
        admit(&mut e, c);
        e.run()
    }

    #[test]
    fn wrappers_keep_the_wire_and_count_every_call() {
        for shards in [1, 2] {
            for pipeline in [false, true] {
                let reference = plain(shards, pipeline);
                let backend = Arc::new(TimedBackend::new(BackendKind::default().instantiate()));
                let censor = Arc::new(TimedCensor::new(Arc::new(ClassifierProgramFactory::new(
                    scoring_censor(0.3),
                ))));
                let mut e = engine(shards, pipeline).with_backend(backend.clone());
                let c = e.register_censor_program(censor.clone());
                admit(&mut e, c);
                let traced = e.run();
                let what = format!("shards {shards} pipeline {pipeline}");

                assert_eq!(reference.wire_bits(), traced.wire_bits(), "{what}");

                // Each work item makes one observation push, one head
                // pass and one emitted-packet push, one row per frame.
                let (push, head) = (backend.push.read(), backend.head.read());
                let batches = traced.inference_batches as u64;
                let frames = traced.frames as u64;
                assert_eq!(head.calls, batches, "{what}");
                assert_eq!(push.calls, 2 * batches, "{what}");
                assert_eq!(head.units, frames, "{what}");
                assert_eq!(push.units, 2 * frames, "{what}");

                let queries: u64 = traced
                    .telemetry
                    .as_ref()
                    .expect("telemetry is on by default")
                    .tenants
                    .values()
                    .map(|t| t.verdict_queries)
                    .sum();
                let observe = censor.observe.read();
                assert!(observe.calls > 0, "{what}");
                assert_eq!(observe.calls, queries, "{what}");
                assert!(observe.units >= observe.calls, "{what}");
            }
        }
    }
}
