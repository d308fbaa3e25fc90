//! Streaming censor programs: the on-path stateful adversary.
//!
//! The paper's threat model (§2) — and ROADMAP item 3 — is a gateway
//! that watches a flow *as it is transmitted*, not a classifier handed a
//! finished feature vector. [`CensorProgram`] is that adversary: a
//! per-session state machine observing the wire prefix frame by frame
//! and answering with a [`CensorDecision`] each time. The six one-shot
//! [`Censor`] families become degenerate programs through
//! [`ClassifierProgramFactory`] — bit-for-bit identical to querying the
//! classifier directly — while genuinely stateful adversaries (warmup
//! windows, hysteresis streaks, hard-label verdict-only gateways,
//! mid-stream connection teardown) compose on top without the serving
//! or training layers knowing the difference.
//!
//! Programs over a one-shot censor score each observed prefix through
//! one per-session scorer. A censor that offers a
//! [`Censor::prefix_state`] (DT, RF and LSTM) gets that state, which
//! absorbs every wire packet once: DT and RF update their 166 features,
//! LSTM steps its recurrence one packet further. Every other family
//! scores the whole prefix with [`Censor::score`]. Either way the score
//! is `censor.score(wire)` bit for bit.
//!
//! ## Program obligations
//!
//! Every implementation owes the engine three guarantees:
//!
//! * **Statefulness is per-session.** A program instance belongs to
//!   exactly one session; [`CensorProgramFactory::spawn`] must return a
//!   fresh, independent state machine every call. Cross-session state
//!   (shared interior mutability keyed off other flows) would break the
//!   serving engine's grouping invariance — sessions batched together
//!   must score exactly as they would alone.
//! * **Determinism.** `observe` must be a pure function of the
//!   program's own state and the observed wire prefix. No clocks, no
//!   RNG, no environment reads: the dataplane replays programs across
//!   shard counts, batch sizes and work-stealing schedules and pins the
//!   wire (and the verdict stream) bit-for-bit.
//! * **Teardown is terminal.** Returning [`CensorDecision::Reset`]
//!   models the censor tearing the connection down (RST injection).
//!   The session ends immediately — the program is never observed
//!   again, the flow counts as blocked, and the serving layer reports
//!   it as a torn session ([`SessionStatus::Torn`] in `amoeba-serve`)
//!   with a per-tenant `teardowns` telemetry counter.
//!
//! [`SessionStatus::Torn`]: ../../amoeba_serve/enum.SessionStatus.html

use std::sync::Arc;

use amoeba_traffic::Flow;

use crate::censor::{Censor, CensorKind, ConstantCensor, PrefixState};

/// One verdict from a streaming censor, per observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CensorDecision {
    /// Let the flow continue; no score disclosed.
    Allow,
    /// Disclose a suspicion score in `[0, 1]`. Mid-stream, the serving
    /// layer thresholds it at 0.5 exactly like [`Censor::blocks`]; on
    /// the final observation it becomes the session's `final_score`.
    Score(f32),
    /// Block the flow (hard label, no score disclosed).
    Block,
    /// Tear the connection down mid-stream (RST). Terminal: the session
    /// ends now and the program is never consulted again.
    Reset,
}

impl CensorDecision {
    /// Whether this decision blocks the flow at the 0.5 threshold —
    /// the exact predicate [`Censor::blocks`] applies to a score.
    pub fn blocks(&self) -> bool {
        match *self {
            CensorDecision::Allow => false,
            CensorDecision::Score(s) => s >= 0.5,
            CensorDecision::Block | CensorDecision::Reset => true,
        }
    }
}

/// A per-session streaming censor: a state machine fed the wire prefix
/// after each emitted frame.
///
/// See the [module docs](self) for the statefulness / determinism /
/// teardown obligations every implementation owes the engine.
pub trait CensorProgram: Send {
    /// Observe the wire prefix as transmitted so far and decide.
    ///
    /// `wire` holds every on-path packet of the session up to and
    /// including the newest frame; `last` is true exactly once, on the
    /// session's final observation (the program's last chance to set a
    /// final score). The caller controls cadence — a program is not
    /// guaranteed to see every frame (the serving engine consults it
    /// per its verdict policy) but observations are always in stream
    /// order over growing prefixes.
    fn observe(&mut self, wire: &Flow, last: bool) -> CensorDecision;
}

/// Spawns fresh per-session [`CensorProgram`] state machines — the
/// object registries and training loops hold (one per censor tenant),
/// where the one-shot layers held an `Arc<dyn Censor>`.
pub trait CensorProgramFactory: Send + Sync {
    /// A fresh program with pristine state for one new session.
    fn spawn(&self) -> Box<dyn CensorProgram>;

    /// The classifier family underneath (for tables and labels).
    fn kind(&self) -> CensorKind;

    /// The underlying one-shot censor when this factory is a degenerate
    /// [`ClassifierProgramFactory`] adapter — the identity hook
    /// registries dedupe on, so registering the same `Arc<dyn Censor>`
    /// twice (directly or via an adapter) yields one tenant id.
    fn as_censor(&self) -> Option<&Arc<dyn Censor>> {
        None
    }
}

/// One session's scorer of growing wire prefixes, shared by every
/// program over a one-shot [`Censor`]: the censor's
/// [`Censor::prefix_state`] when it has one, else [`Censor::score`] of
/// the whole prefix. Both give `censor.score(wire)` bit for bit.
struct PrefixScorer {
    censor: Arc<dyn Censor>,
    state: Option<Box<dyn PrefixState>>,
}

impl PrefixScorer {
    fn new(censor: &Arc<dyn Censor>) -> Self {
        Self {
            state: censor.prefix_state(),
            censor: Arc::clone(censor),
        }
    }

    /// Scores `wire`. The final observation (`last`) also frees the
    /// state's buffers: a finished session is never observed again, but
    /// its program may be kept until the whole run reports.
    fn score(&mut self, wire: &Flow, last: bool) -> f32 {
        match &mut self.state {
            Some(state) => {
                let score = state.score(wire);
                if last {
                    state.reset();
                }
                score
            }
            None => self.censor.score(wire),
        }
    }
}

/// The degenerate adapter: a one-shot [`Censor`] replayed as a program.
///
/// Every observation discloses the wrapped classifier's score of the
/// wire prefix — exactly what the pre-program engine did with
/// `censor.blocks(wire)` mid-stream and `censor.score(wire)` at the end,
/// so adapted classifiers are pinned bit-for-bit against the one-shot
/// path. Censors with a [`Censor::prefix_state`] (DT, RF, LSTM) score
/// incrementally: each observation absorbs only the packets added since
/// the previous one instead of re-scoring the whole prefix.
pub struct ClassifierProgram {
    scorer: PrefixScorer,
}

impl CensorProgram for ClassifierProgram {
    fn observe(&mut self, wire: &Flow, last: bool) -> CensorDecision {
        CensorDecision::Score(self.scorer.score(wire, last))
    }
}

/// Factory for [`ClassifierProgram`]s over one shared trained censor.
#[derive(Clone)]
pub struct ClassifierProgramFactory {
    censor: Arc<dyn Censor>,
}

impl ClassifierProgramFactory {
    /// Wraps a trained one-shot censor.
    pub fn new(censor: Arc<dyn Censor>) -> Self {
        Self { censor }
    }
}

impl CensorProgramFactory for ClassifierProgramFactory {
    fn spawn(&self) -> Box<dyn CensorProgram> {
        Box::new(ClassifierProgram {
            scorer: PrefixScorer::new(&self.censor),
        })
    }

    fn kind(&self) -> CensorKind {
        self.censor.kind()
    }

    fn as_censor(&self) -> Option<&Arc<dyn Censor>> {
        Some(&self.censor)
    }
}

/// The hard-label wrapper: elides every score the inner program would
/// disclose, exposing only block/allow verdicts.
///
/// [`CensorDecision::Score`] maps to [`CensorDecision::Block`] at or
/// above 0.5 and [`CensorDecision::Allow`] below; the other decisions
/// pass through. The wrapped adversary's *behavior* is unchanged — only
/// its observability shrinks to the binary feedback of the hard-label
/// black-box threat model, so a session's `final_score` can only ever
/// be the 0.0/1.0 the verdict implies, never a leaked probability.
pub struct HardLabelProgram {
    inner: Box<dyn CensorProgram>,
}

impl CensorProgram for HardLabelProgram {
    fn observe(&mut self, wire: &Flow, last: bool) -> CensorDecision {
        match self.inner.observe(wire, last) {
            CensorDecision::Score(s) if s >= 0.5 => CensorDecision::Block,
            CensorDecision::Score(_) => CensorDecision::Allow,
            other => other,
        }
    }
}

/// Factory for [`HardLabelProgram`]s over any inner program family.
#[derive(Clone)]
pub struct HardLabelFactory {
    inner: Arc<dyn CensorProgramFactory>,
}

impl HardLabelFactory {
    /// Wraps an inner program factory, eliding its scores.
    pub fn new(inner: Arc<dyn CensorProgramFactory>) -> Self {
        Self { inner }
    }

    /// The common case: a hard-label gateway over a one-shot classifier.
    pub fn over_censor(censor: Arc<dyn Censor>) -> Self {
        Self::new(Arc::new(ClassifierProgramFactory::new(censor)))
    }
}

impl CensorProgramFactory for HardLabelFactory {
    fn spawn(&self) -> Box<dyn CensorProgram> {
        Box::new(HardLabelProgram {
            inner: self.inner.spawn(),
        })
    }

    fn kind(&self) -> CensorKind {
        self.inner.kind()
    }
}

/// A stateful warmup + hysteresis gateway, optionally tearing the
/// connection down.
///
/// The first `warmup` observations are ignored ([`CensorDecision::Allow`]
/// unconditionally — the gateway has not seen enough of the flow).
/// After warmup every observation is scored; `streak` counts
/// *consecutive* scores at or above `threshold` and resets to zero on
/// any score below it. Once the streak reaches `hysteresis` the gateway
/// acts: [`CensorDecision::Reset`] (mid-stream teardown) when
/// `teardown` is set, else [`CensorDecision::Block`]. Until then it
/// allows mid-stream and discloses its score only on the final
/// observation.
pub struct StatefulProgram {
    scorer: PrefixScorer,
    warmup: usize,
    hysteresis: usize,
    threshold: f32,
    teardown: bool,
    seen: usize,
    streak: usize,
}

impl CensorProgram for StatefulProgram {
    fn observe(&mut self, wire: &Flow, last: bool) -> CensorDecision {
        self.seen += 1;
        if self.seen <= self.warmup {
            return CensorDecision::Allow;
        }
        let score = self.scorer.score(wire, last);
        if score >= self.threshold {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        if self.streak >= self.hysteresis {
            return if self.teardown {
                CensorDecision::Reset
            } else {
                CensorDecision::Block
            };
        }
        if last {
            CensorDecision::Score(score)
        } else {
            CensorDecision::Allow
        }
    }
}

/// Factory for [`StatefulProgram`]s.
#[derive(Clone)]
pub struct StatefulProgramFactory {
    censor: Arc<dyn Censor>,
    warmup: usize,
    hysteresis: usize,
    threshold: f32,
    teardown: bool,
}

impl StatefulProgramFactory {
    /// A warmup/hysteresis gateway over `censor`: silent for `warmup`
    /// observations, then requiring `hysteresis.max(1)` consecutive
    /// scores ≥ `threshold` before blocking.
    pub fn new(censor: Arc<dyn Censor>, warmup: usize, hysteresis: usize, threshold: f32) -> Self {
        Self {
            censor,
            warmup,
            hysteresis: hysteresis.max(1),
            threshold,
            teardown: false,
        }
    }

    /// Tear connections down ([`CensorDecision::Reset`]) instead of
    /// blocking when the hysteresis streak fills.
    pub fn with_teardown(mut self, teardown: bool) -> Self {
        self.teardown = teardown;
        self
    }
}

impl CensorProgramFactory for StatefulProgramFactory {
    fn spawn(&self) -> Box<dyn CensorProgram> {
        Box::new(StatefulProgram {
            scorer: PrefixScorer::new(&self.censor),
            warmup: self.warmup,
            hysteresis: self.hysteresis,
            threshold: self.threshold,
            teardown: self.teardown,
            seen: 0,
            streak: 0,
        })
    }

    fn kind(&self) -> CensorKind {
        self.censor.kind()
    }
}

impl ConstantCensor {
    /// A fixed-score censor reporting as DT — the one-line test censor
    /// the gym and serving unit tests build instead of hand-rolled
    /// structs.
    pub fn new(fixed_score: f32) -> Self {
        Self {
            fixed_score,
            as_kind: CensorKind::Dt,
        }
    }
}

/// [`ConstantCensor`] is its own degenerate program: every observation
/// discloses the fixed score, exactly like routing it through
/// [`ClassifierProgramFactory`] — the single adapter impl the gym and
/// serving unit tests share.
impl CensorProgram for ConstantCensor {
    fn observe(&mut self, _wire: &Flow, _last: bool) -> CensorDecision {
        CensorDecision::Score(self.fixed_score)
    }
}

impl CensorProgramFactory for ConstantCensor {
    fn spawn(&self) -> Box<dyn CensorProgram> {
        Box::new(*self)
    }

    fn kind(&self) -> CensorKind {
        self.as_kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(n: usize) -> Flow {
        Flow::from_pairs(&vec![(100, 1.0); n])
    }

    /// The adapter discloses exactly the wrapped censor's score on every
    /// observation — mid-stream and final alike.
    #[test]
    fn classifier_program_is_degenerate() {
        let censor: Arc<dyn Censor> = Arc::new(ConstantCensor::new(0.7));
        let factory = ClassifierProgramFactory::new(Arc::clone(&censor));
        assert_eq!(factory.kind(), CensorKind::Dt);
        assert!(factory.as_censor().is_some());
        let mut prog = factory.spawn();
        for last in [false, false, true] {
            assert_eq!(prog.observe(&wire(3), last), CensorDecision::Score(0.7));
        }
    }

    #[test]
    fn decision_blocks_matches_censor_threshold() {
        assert!(!CensorDecision::Allow.blocks());
        assert!(!CensorDecision::Score(0.49).blocks());
        assert!(CensorDecision::Score(0.5).blocks());
        assert!(CensorDecision::Block.blocks());
        assert!(CensorDecision::Reset.blocks());
    }

    /// Satellite pin: warmup suppresses early verdicts — a censor that
    /// would block from frame one stays silent for the whole warmup
    /// window and only acts afterwards.
    #[test]
    fn warmup_suppresses_early_verdicts() {
        let hot: Arc<dyn Censor> = Arc::new(ConstantCensor::new(0.9));
        let factory = StatefulProgramFactory::new(hot, 4, 1, 0.5);
        let mut prog = factory.spawn();
        for i in 1..=4 {
            assert_eq!(
                prog.observe(&wire(i), false),
                CensorDecision::Allow,
                "observation {i} is inside the warmup window"
            );
        }
        assert_eq!(prog.observe(&wire(5), false), CensorDecision::Block);
    }

    /// Satellite pin: hysteresis requires K *consecutive* over-threshold
    /// scores — a single cool score resets the streak.
    #[test]
    fn hysteresis_requires_k_consecutive_scores() {
        // A censor scoring hot except on every 3rd query (`Censor` is
        // `Sync`, so the query counter is an atomic): the streak never
        // reaches 3 until three hot frames line up.
        struct Periodic(std::sync::atomic::AtomicUsize);
        impl Censor for Periodic {
            fn score(&self, _flow: &Flow) -> f32 {
                let n = self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if n % 3 == 2 {
                    0.1
                } else {
                    0.9
                }
            }
            fn kind(&self) -> CensorKind {
                CensorKind::Dt
            }
        }
        let factory =
            StatefulProgramFactory::new(Arc::new(Periodic(Default::default())), 0, 3, 0.5);
        let mut prog = factory.spawn();
        // Scores: 0.9, 0.9, 0.1 (streak resets), 0.9, 0.9, 0.1, ...
        for i in 1..=6 {
            assert_eq!(
                prog.observe(&wire(i), false),
                CensorDecision::Allow,
                "streak must reset at observation 3 and 6"
            );
        }
        // A steadily hot censor blocks exactly at the 3rd consecutive hit.
        let factory = StatefulProgramFactory::new(Arc::new(ConstantCensor::new(0.9)), 0, 3, 0.5);
        let mut prog = factory.spawn();
        assert_eq!(prog.observe(&wire(1), false), CensorDecision::Allow);
        assert_eq!(prog.observe(&wire(2), false), CensorDecision::Allow);
        assert_eq!(prog.observe(&wire(3), false), CensorDecision::Block);
    }

    /// With teardown enabled the filled streak resets the connection
    /// instead of blocking it.
    #[test]
    fn teardown_turns_block_into_reset() {
        let factory = StatefulProgramFactory::new(Arc::new(ConstantCensor::new(0.9)), 1, 2, 0.5)
            .with_teardown(true);
        let mut prog = factory.spawn();
        assert_eq!(prog.observe(&wire(1), false), CensorDecision::Allow); // warmup
        assert_eq!(prog.observe(&wire(2), false), CensorDecision::Allow); // streak 1
        assert_eq!(prog.observe(&wire(3), false), CensorDecision::Reset); // streak 2
    }

    /// Satellite pin: the hard-label wrapper never leaks a score — every
    /// decision it returns is Allow/Block/Reset, with Score mapped
    /// through the 0.5 threshold.
    #[test]
    fn hard_label_wrapper_never_leaks_a_score() {
        for (score, expect) in [
            (0.0, CensorDecision::Allow),
            (0.49, CensorDecision::Allow),
            (0.5, CensorDecision::Block),
            (1.0, CensorDecision::Block),
        ] {
            let factory = HardLabelFactory::over_censor(Arc::new(ConstantCensor::new(score)));
            let mut prog = factory.spawn();
            for last in [false, true] {
                let d = prog.observe(&wire(2), last);
                assert_eq!(d, expect, "score {score}");
                assert!(
                    !matches!(d, CensorDecision::Score(_)),
                    "hard-label programs must never disclose a score"
                );
            }
        }
        // Reset passes through untouched.
        let inner = StatefulProgramFactory::new(Arc::new(ConstantCensor::new(0.9)), 0, 1, 0.5)
            .with_teardown(true);
        let factory = HardLabelFactory::new(Arc::new(inner));
        assert_eq!(factory.kind(), CensorKind::Dt);
        let mut prog = factory.spawn();
        assert_eq!(prog.observe(&wire(1), false), CensorDecision::Reset);
    }

    /// Factories spawn independent state machines: one session's streak
    /// must not bleed into another's.
    #[test]
    fn spawned_programs_are_independent() {
        let factory = StatefulProgramFactory::new(Arc::new(ConstantCensor::new(0.9)), 0, 2, 0.5);
        let mut a = factory.spawn();
        let mut b = factory.spawn();
        assert_eq!(a.observe(&wire(1), false), CensorDecision::Allow);
        // `b` starts from streak 0 even though `a` already has streak 1.
        assert_eq!(b.observe(&wire(1), false), CensorDecision::Allow);
        assert_eq!(a.observe(&wire(2), false), CensorDecision::Block);
        assert_eq!(b.observe(&wire(2), false), CensorDecision::Block);
    }

    /// Every trained family, adapted: the program's score equals
    /// `Censor::score` bit for bit on every prefix, the empty one
    /// included. DT, RF and LSTM (also behind `TrainedCensor`) must take
    /// the prefix-state path, so a lost `prefix_state` delegation fails
    /// here instead of silently falling back to re-scoring every prefix.
    #[test]
    fn adapted_trained_censors_match_one_shot_scores_on_every_prefix() {
        use crate::train::{train_censor, TrainConfig};
        use amoeba_traffic::{build_dataset, DatasetKind, Layer};

        let ds = build_dataset(DatasetKind::Tor, 30, None, 11);
        let cfg = TrainConfig {
            epochs: 1,
            lstm_epochs: 1,
            ..TrainConfig::fast()
        };
        let flows = [&ds.flows[0], &ds.flows[1], &ds.flows[ds.len() - 1]];
        for kind in CensorKind::ALL {
            let censor: Arc<dyn Censor> = Arc::new(train_censor(kind, &ds, Layer::Tcp, &cfg, 3));
            let streams = matches!(kind, CensorKind::Dt | CensorKind::Rf | CensorKind::Lstm);
            assert_eq!(censor.prefix_state().is_some(), streams, "{kind}");
            let factory = ClassifierProgramFactory::new(Arc::clone(&censor));
            for flow in flows {
                let mut prog = factory.spawn();
                for k in 0..=flow.len() {
                    let prefix = flow.prefix(k);
                    let want = censor.score(&prefix);
                    let got = match prog.observe(&prefix, k == flow.len()) {
                        CensorDecision::Score(s) => s,
                        other => panic!("{kind}: adapter decided {other:?}"),
                    };
                    assert_eq!(got.to_bits(), want.to_bits(), "{kind} prefix {k}");
                }
                // Observed again after its final frame, and then on a
                // shorter wire than it absorbed (both contract breaches),
                // the program still scores exactly the wire it is given.
                for k in [flow.len() / 2, flow.len() / 4] {
                    let prefix = flow.prefix(k);
                    assert_eq!(
                        prog.observe(&prefix, false),
                        CensorDecision::Score(censor.score(&prefix)),
                        "{kind} replayed prefix {k}"
                    );
                }
            }
            // A warmup gateway first scores after several unscored frames;
            // its final disclosed score is still the one-shot score.
            let mut prog = StatefulProgramFactory::new(Arc::clone(&censor), 5, 1, 2.0).spawn();
            let flow = flows[0];
            for k in 1..flow.len() {
                prog.observe(&flow.prefix(k), false);
            }
            assert_eq!(
                prog.observe(flow, true),
                CensorDecision::Score(censor.score(flow)),
                "{kind}"
            );
        }
    }

    /// `ConstantCensor` is its own factory/program — the one-place
    /// adapter the gym unit tests rely on.
    #[test]
    fn constant_censor_is_its_own_program() {
        let c = ConstantCensor::new(0.2);
        assert_eq!(c.as_kind, CensorKind::Dt);
        let mut prog = CensorProgramFactory::spawn(&c);
        assert_eq!(prog.observe(&wire(1), true), CensorDecision::Score(0.2));
    }
}
