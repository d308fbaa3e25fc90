//! Tenant registries: the engine-side tables that turn frozen policies
//! and censors into cheap copyable handles.
//!
//! A multi-tenant [`crate::ServeEngine`] hosts many `(policy, censor)`
//! pairs in one process. Sessions do not carry their networks around —
//! they carry a [`PolicyId`] and a [`CensorId`], tiny `Copy` indices into
//! the engine's policy and censor tables. The scheduler
//! keys its fused inference batches by [`PolicyId`] (same weights ⇒ same
//! GRU/MLP pass), so registering one policy against many censors costs
//! one dataplane run, not one per pair.
//!
//! Registration is `Arc`-sharing and idempotent: a [`FrozenPolicy`] whose
//! encoder *and* actor point at the same allocations as an already
//! registered one maps back to the existing [`PolicyId`] (likewise for
//! `Arc`-identical censors), so sweep harnesses can re-register freely
//! without duplicating tenants.

use std::sync::Arc;

use amoeba_classifiers::{Censor, CensorProgramFactory, ClassifierProgramFactory};

use crate::FrozenPolicy;

/// Handle to a policy registered with a [`crate::ServeEngine`]: a cheap
/// `Copy` index, stable for the engine's lifetime. The default value
/// refers to the first registered policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PolicyId(pub(crate) usize);

impl PolicyId {
    /// Zero-based registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a censor registered with a [`crate::ServeEngine`]: a cheap
/// `Copy` index, stable for the engine's lifetime. The default value
/// refers to the first registered censor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CensorId(pub(crate) usize);

impl CensorId {
    /// Zero-based registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One tenant of the engine: a `(policy, censor)` pair. Sessions are
/// tagged with their tenant, reports slice by it, and the
/// tenancy-invariance contract is stated over it: a session's wire output
/// depends only on `(seed, session_id, policy, censor)`, never on which
/// other tenants share the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tenant {
    /// The serving policy.
    pub policy: PolicyId,
    /// The inline censor scoring this session's wire flow.
    pub censor: CensorId,
}

impl Tenant {
    /// Pairs a policy with a censor.
    pub fn new(policy: PolicyId, censor: CensorId) -> Self {
        Self { policy, censor }
    }
}

/// The engine's table of frozen policies.
#[derive(Default)]
pub(crate) struct PolicyRegistry {
    policies: Vec<FrozenPolicy>,
}

impl PolicyRegistry {
    /// Registers a frozen policy and returns its handle. Policies whose
    /// encoder and actor `Arc`s are both identical to an already
    /// registered policy are deduplicated onto the existing handle.
    pub(crate) fn register(&mut self, policy: FrozenPolicy) -> PolicyId {
        if let Some(i) = self.policies.iter().position(|p| {
            Arc::ptr_eq(&p.encoder, &policy.encoder) && Arc::ptr_eq(&p.actor, &policy.actor)
        }) {
            return PolicyId(i);
        }
        self.policies.push(policy);
        PolicyId(self.policies.len() - 1)
    }

    /// Number of registered policies.
    pub(crate) fn len(&self) -> usize {
        self.policies.len()
    }

    /// Freezes the table into the shared slice the shard workers read.
    pub(crate) fn into_shared(self) -> Arc<[FrozenPolicy]> {
        self.policies.into()
    }
}

/// The engine's table of inline censor programs.
///
/// Entries are [`CensorProgramFactory`]s: at admission each session gets
/// its own streaming program spawned from its tenant's factory, so
/// per-session censor state (warmup counters, hysteresis streaks) never
/// aliases between sessions. One-shot [`Censor`]s enter through
/// [`CensorRegistry::register`], which wraps them in the degenerate
/// [`ClassifierProgramFactory`] adapter — bit-for-bit the pre-program
/// one-shot scoring path.
#[derive(Default)]
pub(crate) struct CensorRegistry {
    censors: Vec<Arc<dyn CensorProgramFactory>>,
}

impl CensorRegistry {
    /// Registers a one-shot censor and returns its handle, wrapping it in
    /// the [`ClassifierProgramFactory`] adapter. `Arc`-identical censors
    /// are deduplicated onto the existing handle (through
    /// [`CensorProgramFactory::as_censor`], so re-registering the same
    /// `Arc<dyn Censor>` never duplicates a tenant).
    pub(crate) fn register(&mut self, censor: Arc<dyn Censor>) -> CensorId {
        if let Some(i) = self
            .censors
            .iter()
            .position(|f| f.as_censor().is_some_and(|c| Arc::ptr_eq(c, &censor)))
        {
            return CensorId(i);
        }
        self.censors
            .push(Arc::new(ClassifierProgramFactory::new(censor)));
        CensorId(self.censors.len() - 1)
    }

    /// Registers a streaming censor-program factory and returns its
    /// handle. `Arc`-identical factories are deduplicated onto the
    /// existing handle.
    pub(crate) fn register_program(&mut self, factory: Arc<dyn CensorProgramFactory>) -> CensorId {
        if let Some(i) = self.censors.iter().position(|f| Arc::ptr_eq(f, &factory)) {
            return CensorId(i);
        }
        self.censors.push(factory);
        CensorId(self.censors.len() - 1)
    }

    /// Number of registered censors.
    pub(crate) fn len(&self) -> usize {
        self.censors.len()
    }

    /// Freezes the table into the shared slice the shard workers read.
    pub(crate) fn into_shared(self) -> Arc<[Arc<dyn CensorProgramFactory>]> {
        self.censors.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{scoring_censor, tiny_policy};

    #[test]
    fn policies_register_in_order_and_dedupe_by_arc_identity() {
        let mut reg = PolicyRegistry::default();
        let a = tiny_policy(1);
        let b = tiny_policy(2);
        let pa = reg.register(a.clone());
        let pb = reg.register(b);
        assert_eq!((pa.index(), pb.index()), (0, 1));
        // A clone shares both Arcs, so it maps back to the same handle.
        assert_eq!(reg.register(a.clone()), pa);
        assert_eq!(reg.len(), 2);
        assert!(Arc::ptr_eq(
            &reg.into_shared()[pa.index()].encoder,
            &a.encoder
        ));
    }

    #[test]
    fn censors_register_in_order_and_dedupe_by_arc_identity() {
        let mut reg = CensorRegistry::default();
        let c = scoring_censor(0.1);
        let d = scoring_censor(0.1);
        let ca = reg.register(Arc::clone(&c));
        let cd = reg.register(d);
        assert_eq!((ca.index(), cd.index()), (0, 1));
        // Same Arc → same handle; an equal-valued but distinct Arc does
        // not dedupe (identity, not structural equality).
        assert_eq!(reg.register(c), ca);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn program_factories_register_and_dedupe_like_censors() {
        use amoeba_classifiers::HardLabelFactory;
        let mut reg = CensorRegistry::default();
        let c = scoring_censor(0.2);
        let ca = reg.register(Arc::clone(&c));
        let hard: Arc<dyn CensorProgramFactory> =
            Arc::new(HardLabelFactory::over_censor(Arc::clone(&c)));
        let h = reg.register_program(Arc::clone(&hard));
        // A program factory over the same censor is a *distinct* tenant:
        // it renders different decisions even on identical wire.
        assert_ne!(ca, h);
        assert_eq!(reg.register_program(hard), h, "factory identity dedupes");
        // One-shot dedupe sees through the adapter, not past other
        // program factories.
        assert_eq!(reg.register(c), ca);
        assert_eq!(reg.len(), 2);
    }
}
