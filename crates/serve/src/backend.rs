//! Pluggable inference backends: the seam between the shard scheduler and
//! whatever executes the fused GRU/MLP passes.
//!
//! The scheduler only ever needs two operations per tick — advance a
//! batch of per-session encoder states by one observation each, and run
//! the actor heads over a batch of concatenated states. [`InferenceBackend`]
//! names exactly that contract; [`CpuBackend`] is the reference
//! implementation (the snapshot fast path on the register-tiled matmul
//! nest) and the other in-crate backends route the same passes through
//! other weight layouts. Future backends (async, GPU) slot in behind the
//! same trait without another serving-API break.
//!
//! ## Exactness tiers
//!
//! Backends declare which conformance tier they satisfy
//! ([`BackendKind::is_bit_exact`]):
//!
//! | Kind     | Backend          | Weights                    | Tier | Contract |
//! |----------|------------------|----------------------------|------|----------|
//! | `cpu`    | [`CpuBackend`]   | row-major, register-tiled nest, SIMD dispatch (AVX-512 → AVX2 → SSE2 → scalar) | A | bit-exact reference |
//! | `packed` | [`PackedBackend`]| panel-packed, SIMD dispatch | A   | bit-identical to `cpu` |
//! | `quant`  | [`QuantBackend`] | per-column symmetric int8  | B    | bounded divergence only |
//!
//! **Tier A (bit-exact)** backends produce byte-identical wire output to
//! [`CpuBackend`] on every input — switching between them is a pure
//! throughput knob, pinned by the bit-exact conformance suite
//! (`tests/backend_conformance.rs`) and the wire fingerprints. **Tier B
//! (tolerance)** backends deliberately trade bit-identity for speed or
//! footprint; they must instead pass the *tolerance* conformance tier
//! (`tests/quant_tolerance.rs` via [`crate::testutil`]): bounded wire
//! divergence and an evasion-rate delta ≤ ε against the reference across
//! the policy × censor matrix. A tier-B backend is still **fully
//! deterministic** — wire output remains a pure function of
//! `(seed, session_id, policy, censor, backend)`; only the *backend
//! axis* is added to the function's domain.
//!
//! ## Backend obligations: bit-exactness and summation order
//!
//! Any backend must preserve the dataplane's grouping- and
//! tenancy-invariance contract — wire output is a pure function of
//! `(seed, session_id, policy, censor)` for a fixed backend — which
//! reduces to two obligations on the math:
//!
//! 1. **Row independence**: both operations must be bit-exact per row;
//!    the result for a session must not depend on which other sessions
//!    share the batch, the batch size, or the call order. *Every* tier
//!    must satisfy this — it is what keeps batching/sharding semantics-
//!    free even on the tolerance tier.
//! 2. **Summation order** (tier A only): every output element must
//!    accumulate its `a[k] * b[k]` terms in the reference's ascending-`k`
//!    order, with one `mul` rounding and one `add` rounding per term. A
//!    kernel that re-associates the reduction (lane-wise horizontal adds)
//!    or fuses the roundings (FMA) changes wire output and is **not** a
//!    valid tier-A backend, however fast. [`CpuBackend`] and
//!    [`PackedBackend`] satisfy this by vectorising over output *columns*
//!    only — see `amoeba_nn::simd`.
//!
//! ## Plugging in a new backend
//!
//! Implement [`InferenceBackend`] (usually by delegating to the
//! row-major or prepared snapshot paths), then run the matching
//! conformance tier against it before trusting it with traffic. For a
//! tier-A backend, add one
//! `backend_conformance_suite!(my_backend, MyBackend::new());`
//! line in `tests/backend_conformance.rs` (pinned batch-op and engine
//! checks) and one entry in that file's end-to-end proptest backend list.
//! For a tier-B backend, add a `check_backend_within_tolerance` run in
//! `tests/quant_tolerance.rs` with an explicit [`crate::testutil::ToleranceSpec`].
//! The suites are generic over `dyn InferenceBackend`, so every
//! obligation above is checked mechanically. Wire the backend into
//! configs by extending [`BackendKind`].
//!
//! ## Selection
//!
//! [`BackendKind`] is the config-friendly selector carried by
//! [`crate::ServeConfig`] (builder: `.backend(BackendKind::Packed)`;
//! default [`BackendKind::Cpu`], overridable process-wide with the
//! `AMOEBA_SERVE_BACKEND=cpu|packed|quant` environment variable —
//! the hook CI uses to force the whole `amoeba-serve` test suite through
//! each tier-A backend). An unrecognised or non-UTF-8 value is a **hard
//! error** at engine construction, never a silent fallback.
//! [`crate::ServeEngine::with_backend`] accepts an arbitrary
//! `Arc<dyn InferenceBackend>` for backends that live outside this crate.

use std::str::FromStr;
use std::sync::Arc;

use amoeba_core::encoder::EncoderState;
use amoeba_nn::matrix::Matrix;
use amoeba_nn::simd::SimdLevel;

use crate::FrozenPolicy;

/// Executes the two fused inference operations the batched scheduler
/// needs. Implementations are shared (`Send + Sync`) across every shard
/// worker thread; all mutable state lives in the caller-owned
/// `EncoderState`s.
pub trait InferenceBackend: Send + Sync {
    /// Advances the selected per-session `E(·)` states by one step each in
    /// a single fused GRU pass: row `r` of `obs` (shape `(B, 2)`) feeds
    /// `states[indices[r]]`, exactly as
    /// [`amoeba_core::encoder::EncoderSnapshot::push_batch`].
    ///
    /// Must be bit-identical per row to a per-session
    /// [`amoeba_core::encoder::EncoderState::push`], for any grouping.
    fn push_batch(
        &self,
        policy: &FrozenPolicy,
        states: &mut [EncoderState],
        indices: &[usize],
        obs: &Matrix,
    );

    /// Runs the actor heads over a `(B, 2H)` batch of concatenated
    /// `[E(x_{1:t}) | E(a_{1:t})]` states, returning `(means, logstds)`,
    /// exactly as [`amoeba_core::policy::ActorSnapshot::head_batch`].
    ///
    /// Must be bit-identical per row to a single-row head pass, for any
    /// grouping.
    fn head_batch(&self, policy: &FrozenPolicy, states: &Matrix) -> (Matrix, Matrix);

    /// Human-readable backend label (reports and benches).
    fn name(&self) -> &'static str {
        "unnamed"
    }
}

/// The reference backend: the frozen snapshots' own fused fast paths
/// (the register-tiled `amoeba_nn::simd` matmul nest at the detected
/// level, fused GRU gate pass), bit-identical to the per-flow paths by
/// construction. Training, rollouts and evaluation run the same
/// snapshot code, so a served policy is evaluated exactly as it was
/// trained.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuBackend;

impl InferenceBackend for CpuBackend {
    fn push_batch(
        &self,
        policy: &FrozenPolicy,
        states: &mut [EncoderState],
        indices: &[usize],
        obs: &Matrix,
    ) {
        policy.encoder.push_batch(states, indices, obs);
    }

    fn head_batch(&self, policy: &FrozenPolicy, states: &Matrix) -> (Matrix, Matrix) {
        policy.actor.head_batch(states)
    }

    fn name(&self) -> &'static str {
        "cpu"
    }
}

/// The packed backend (tier A): the same SIMD dispatch as
/// [`CpuBackend`], but executing against the policy's lazily-built
/// [`crate::PreparedPolicy`] of panel-packed weights
/// (`amoeba_nn::packed::PackedWeights`), so the kernels stream each
/// weight slab sequentially instead of striding row-major. Packing
/// permutes only load addresses — never any element's ascending-`k`
/// summation order or its roundings — so this backend is bit-identical
/// to [`CpuBackend`] on every input and holds the same pinned wire
/// fingerprints.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedBackend;

impl PackedBackend {
    /// A packed backend. Each policy's weights are packed once, on the
    /// first batch that touches them, and cached on the policy.
    pub fn new() -> Self {
        Self
    }
}

impl InferenceBackend for PackedBackend {
    fn push_batch(
        &self,
        policy: &FrozenPolicy,
        states: &mut [EncoderState],
        indices: &[usize],
        obs: &Matrix,
    ) {
        policy.packed().encoder.push_batch(states, indices, obs);
    }

    fn head_batch(&self, policy: &FrozenPolicy, states: &Matrix) -> (Matrix, Matrix) {
        policy.packed().actor.head_batch(states)
    }

    fn name(&self) -> &'static str {
        match SimdLevel::detect() {
            SimdLevel::Avx512 => "packed-avx512",
            SimdLevel::Avx2 => "packed-avx2",
            SimdLevel::Sse2 => "packed-sse2",
            SimdLevel::Scalar => "packed-scalar",
        }
    }
}

/// The int8 quantized backend (**tier B — tolerance, not bit-exact**):
/// executes against the policy's lazily-built [`crate::PreparedPolicy`]
/// of per-column symmetric int8 weights
/// (`amoeba_nn::quant::QuantWeights`). Wire output deliberately diverges
/// from [`CpuBackend`] within the bounds enforced by the tolerance
/// conformance tier; determinism and row independence are fully
/// preserved, so batching/sharding remain semantics-free and a given
/// `(seed, session, policy, censor)` always produces the same bytes
/// *under this backend*.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantBackend;

impl QuantBackend {
    /// A quantized backend. Each policy's weights are quantized once, on
    /// the first batch that touches them, and cached on the policy.
    pub fn new() -> Self {
        Self
    }
}

impl InferenceBackend for QuantBackend {
    fn push_batch(
        &self,
        policy: &FrozenPolicy,
        states: &mut [EncoderState],
        indices: &[usize],
        obs: &Matrix,
    ) {
        policy.quantized().encoder.push_batch(states, indices, obs);
    }

    fn head_batch(&self, policy: &FrozenPolicy, states: &Matrix) -> (Matrix, Matrix) {
        policy.quantized().actor.head_batch(states)
    }

    fn name(&self) -> &'static str {
        "quant-int8"
    }
}

/// Config-friendly backend selector carried by [`crate::ServeConfig`]
/// (`Copy`, parseable, env-overridable) — the one-line switch between the
/// in-crate [`InferenceBackend`] implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The reference [`CpuBackend`] (tier A).
    #[default]
    Cpu,
    /// The [`PackedBackend`] (tier A; panel-packed weights).
    Packed,
    /// The [`QuantBackend`] (**tier B**; int8 weights, tolerance-bounded
    /// divergence from the reference).
    Quant,
}

impl BackendKind {
    /// Environment variable consulted by [`BackendKind::from_env_or_default`]
    /// (values: `cpu` | `packed` | `quant`).
    pub const ENV: &'static str = "AMOEBA_SERVE_BACKEND";

    /// Instantiates the selected backend.
    pub fn instantiate(self) -> Arc<dyn InferenceBackend> {
        match self {
            BackendKind::Cpu => Arc::new(CpuBackend),
            BackendKind::Packed => Arc::new(PackedBackend::new()),
            BackendKind::Quant => Arc::new(QuantBackend::new()),
        }
    }

    /// Whether this backend satisfies the bit-exact conformance tier
    /// (tier A): byte-identical wire output to [`BackendKind::Cpu`] on
    /// every input. Tier-B kinds instead satisfy the tolerance tier —
    /// see the module docs' exactness table.
    pub fn is_bit_exact(self) -> bool {
        match self {
            BackendKind::Cpu | BackendKind::Packed => true,
            BackendKind::Quant => false,
        }
    }

    /// Parses an override taken from [`BackendKind::ENV`]: `None`
    /// (variable unset) selects the default; anything set must name a
    /// backend exactly. A non-UTF-8 value is an error, not a fallback —
    /// the override exists so CI can force every engine in the process
    /// through one backend, and a typo silently running the default
    /// would defeat that forcing.
    pub fn from_env_value(value: Option<&std::ffi::OsStr>) -> Result<Self, String> {
        match value {
            None => Ok(Self::default()),
            Some(os) => match os.to_str() {
                Some(s) => s.parse(),
                None => Err(format!("non-UTF-8 backend name {os:?}")),
            },
        }
    }

    /// The kind named by [`BackendKind::ENV`], or the default
    /// ([`BackendKind::Cpu`]) when unset.
    ///
    /// # Panics
    /// Panics if the variable is set to an unrecognised or non-UTF-8
    /// value (see [`BackendKind::from_env_value`]) — a hard error at
    /// engine construction, never a silent fallback.
    pub fn from_env_or_default() -> Self {
        Self::from_env_value(std::env::var_os(Self::ENV).as_deref())
            .unwrap_or_else(|e| panic!("{}: {e}", Self::ENV))
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cpu" => Ok(BackendKind::Cpu),
            "packed" => Ok(BackendKind::Packed),
            "quant" => Ok(BackendKind::Quant),
            other => Err(format!(
                "unknown backend {other:?} (expected cpu|packed|quant)"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Cpu => "cpu",
            BackendKind::Packed => "packed",
            BackendKind::Quant => "quant",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_policy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The CPU backend is definitionally the snapshot fast path: both ops
    /// must be bit-identical to calling the snapshots directly.
    #[test]
    fn cpu_backend_matches_snapshot_paths() {
        let p = tiny_policy(11);
        let backend = CpuBackend;
        assert_eq!(backend.name(), "cpu");

        let mut a: Vec<EncoderState> = (0..3).map(|_| p.encoder.begin()).collect();
        let mut b: Vec<EncoderState> = (0..3).map(|_| p.encoder.begin()).collect();
        let obs = Matrix::from_vec(2, 2, vec![0.25, -0.5, 0.75, 0.1]);
        backend.push_batch(&p, &mut a, &[0, 2], &obs);
        p.encoder.push_batch(&mut b, &[0, 2], &obs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.representation(), y.representation());
        }

        let mut rng = StdRng::seed_from_u64(5);
        let states = Matrix::randn(4, 2 * p.encoder.hidden_size(), 1.0, &mut rng);
        let (m1, s1) = backend.head_batch(&p, &states);
        let (m2, s2) = p.actor.head_batch(&states);
        assert_eq!(m1.as_slice(), m2.as_slice());
        assert_eq!(s1.as_slice(), s2.as_slice());
    }

    /// Kind parsing round-trips, rejects junk, and instantiates matching
    /// backends.
    #[test]
    fn backend_kind_parses_and_instantiates() {
        assert_eq!("cpu".parse::<BackendKind>(), Ok(BackendKind::Cpu));
        assert_eq!("PACKED".parse::<BackendKind>(), Ok(BackendKind::Packed));
        assert_eq!("Quant".parse::<BackendKind>(), Ok(BackendKind::Quant));
        assert!("gpu".parse::<BackendKind>().is_err());
        // The register-tiled nest is the `cpu` default; no separate kind.
        assert!("simd".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Cpu);
        for kind in [BackendKind::Cpu, BackendKind::Packed, BackendKind::Quant] {
            assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
        }
        assert_eq!(BackendKind::Cpu.instantiate().name(), "cpu");
        assert!(BackendKind::Packed
            .instantiate()
            .name()
            .starts_with("packed"));
        assert_eq!(BackendKind::Quant.instantiate().name(), "quant-int8");
    }

    /// Exactness-tier declarations match the module docs' table.
    #[test]
    fn exactness_tiers_match_table() {
        assert!(BackendKind::Cpu.is_bit_exact());
        assert!(BackendKind::Packed.is_bit_exact());
        assert!(!BackendKind::Quant.is_bit_exact());
    }

    /// Env-override parsing: unset selects the default; anything set must
    /// name a backend exactly. Unknown and non-UTF-8 values are errors,
    /// never silent fallbacks.
    #[test]
    fn env_override_parse_failures_are_hard_errors() {
        use std::ffi::OsStr;
        assert_eq!(BackendKind::from_env_value(None), Ok(BackendKind::Cpu));
        assert_eq!(
            BackendKind::from_env_value(Some(OsStr::new("packed"))),
            Ok(BackendKind::Packed)
        );
        let err = BackendKind::from_env_value(Some(OsStr::new("fpga"))).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert!(err.contains("cpu|packed|quant"), "{err}");
        let err = BackendKind::from_env_value(Some(OsStr::new("simd"))).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        // The empty string is set-but-invalid, not unset.
        assert!(BackendKind::from_env_value(Some(OsStr::new(""))).is_err());
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStrExt;
            let bad = OsStr::from_bytes(&[0x73, 0x69, 0x6d, 0xff]); // "sim\xff"
            let err = BackendKind::from_env_value(Some(bad)).unwrap_err();
            assert!(err.contains("non-UTF-8"), "{err}");
        }
    }

    /// The packed backend must agree bit-for-bit with the CPU backend on
    /// both operations (its tier-A obligation; the conformance suite
    /// checks this exhaustively, this is the smoke version).
    #[test]
    fn packed_backend_matches_cpu_backend_bit_exact() {
        let p = tiny_policy(17);
        let cpu = CpuBackend;
        let packed = PackedBackend::new();
        assert!(packed.name().starts_with("packed"));

        let mut a: Vec<EncoderState> = (0..4).map(|_| p.encoder.begin()).collect();
        let mut b: Vec<EncoderState> = (0..4).map(|_| p.encoder.begin()).collect();
        let obs = Matrix::from_vec(3, 2, vec![0.25, -0.5, 0.75, 0.1, -0.9, 0.6]);
        cpu.push_batch(&p, &mut a, &[0, 1, 3], &obs);
        packed.push_batch(&p, &mut b, &[0, 1, 3], &obs);
        for (x, y) in a.iter().zip(&b) {
            let xb: Vec<u32> = x.representation().iter().map(|v| v.to_bits()).collect();
            let yb: Vec<u32> = y.representation().iter().map(|v| v.to_bits()).collect();
            assert_eq!(xb, yb);
        }

        let mut rng = StdRng::seed_from_u64(19);
        let states = Matrix::randn(6, 2 * p.encoder.hidden_size(), 1.0, &mut rng);
        let (m1, s1) = cpu.head_batch(&p, &states);
        let (m2, s2) = packed.head_batch(&p, &states);
        for (x, y) in m1.as_slice().iter().zip(m2.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in s1.as_slice().iter().zip(s2.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The quant backend tracks the CPU backend within tolerance (its
    /// tier-B obligation; the tolerance suite bounds the end-to-end
    /// divergence) and is deterministic call-to-call.
    #[test]
    fn quant_backend_tracks_cpu_within_tolerance_and_is_deterministic() {
        let p = tiny_policy(23);
        let cpu = CpuBackend;
        let quant = QuantBackend::new();

        let mut rng = StdRng::seed_from_u64(29);
        let states = Matrix::randn(6, 2 * p.encoder.hidden_size(), 1.0, &mut rng);
        let (m1, s1) = cpu.head_batch(&p, &states);
        let (m2, s2) = quant.head_batch(&p, &states);
        for (x, y) in m1.as_slice().iter().zip(m2.as_slice()) {
            assert!((x - y).abs() < 0.1, "{x} vs {y}");
        }
        for (x, y) in s1.as_slice().iter().zip(s2.as_slice()) {
            assert!((x - y).abs() < 0.1, "{x} vs {y}");
        }
        let (m3, s3) = quant.head_batch(&p, &states);
        assert_eq!(
            m2.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            m3.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            s2.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            s3.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }
}
