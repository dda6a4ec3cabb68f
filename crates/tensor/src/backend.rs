//! Kernel backend selection: the vectorized SIMD hot path vs the
//! scalar bit-identity oracle.
//!
//! Every matmul-family kernel funnels through
//! `linalg::matmul_funnel` (or its transposed-lhs twin), which
//! dispatches on the **active** [`KernelBackend`]:
//!
//! * [`KernelBackend::Scalar`] — the reference kernel. Ascending-`k`
//!   accumulation with separately rounded multiply and add; the
//!   bit-identity oracle every experiment record was built on.
//! * [`KernelBackend::Simd`] — the AVX2+FMA kernels (x86_64 only,
//!   runtime-detected). Same per-element accumulation order, but every
//!   multiply-add is *fused* (one rounding), so results agree with the
//!   scalar oracle only to tolerance. See the two-contract story in the
//!   `linalg.rs` header.
//!
//! Resolution order for [`KernelBackend::active`]:
//!
//! 1. a thread-local scope installed by [`KernelBackend::scoped`] /
//!    [`with_kernel_backend`] (how `TrainConfig::kernel_backend` pins a
//!    training run, and how equivalence tests compare backends without
//!    racing each other);
//! 2. the process-wide default: [`set_kernel_backend`] if called, else
//!    the `EMA_KERNEL` environment knob (`scalar` | `simd` | `auto`,
//!    resolved once);
//! 3. `auto` (also the fallback for unset/unknown values): `Simd` where
//!    AVX2+FMA are available, `Scalar` otherwise.
//!
//! Requesting `Simd` on a machine without AVX2+FMA is not an error —
//! `active()` normalizes it to `Scalar`, so `EMA_KERNEL=simd` is safe
//! in portable scripts. Whichever backend is active, results are fully
//! deterministic: same inputs, same backend → byte-identical outputs at
//! every thread count.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Which matmul accumulation kernel the tensor crate runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Separately rounded multiply-then-add, ascending-`k` — the
    /// bit-identity oracle (see `linalg.rs`).
    Scalar,
    /// AVX2+FMA register tiles and row spans, ascending-`k` with fused
    /// multiply-add — the hot path where the hardware supports it.
    Simd,
}

/// Process-default encoding: 0 = unresolved (read `EMA_KERNEL` on
/// first use), 1 = scalar, 2 = simd.
static GLOBAL: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// Innermost thread-local scope, if any (see [`KernelBackend::scoped`]).
    static SCOPE: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

impl KernelBackend {
    /// True when the running CPU supports the SIMD kernel (AVX2 and
    /// FMA, detected once at runtime). Always false off x86_64.
    #[must_use]
    pub fn simd_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::sync::OnceLock;
            static AVAILABLE: OnceLock<bool> = OnceLock::new();
            *AVAILABLE.get_or_init(|| {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The backend the current thread's kernels will actually run:
    /// thread-local scope, else process default, normalized so `Simd`
    /// is only ever returned when [`Self::simd_available`].
    #[must_use]
    pub fn active() -> Self {
        let chosen = SCOPE.with(Cell::get).unwrap_or_else(global_default);
        match chosen {
            Self::Simd if Self::simd_available() => Self::Simd,
            _ => Self::Scalar,
        }
    }

    /// Resolves the `EMA_KERNEL` environment knob: `scalar`, `simd`,
    /// or `auto` (the default for unset or unrecognized values) —
    /// `auto` picks `Simd` where available, `Scalar` otherwise.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("EMA_KERNEL").as_deref() {
            Ok("scalar") => Self::Scalar,
            Ok("simd") => Self::Simd,
            _ => {
                if Self::simd_available() {
                    Self::Simd
                } else {
                    Self::Scalar
                }
            }
        }
    }

    /// Installs `self` as the current thread's backend until the
    /// returned guard drops (scopes nest; the previous scope is
    /// restored). This is how a training run pins its backend without
    /// perturbing other threads — the cohort executor runs each job on
    /// one worker thread, so a scope opened at the top of the job body
    /// covers everything the job computes.
    #[must_use = "the scope ends when the guard drops"]
    pub fn scoped(self) -> KernelScope {
        let previous = SCOPE.with(|s| s.replace(Some(self)));
        KernelScope { previous }
    }

    /// Short lower-case name, stable across versions (used in bench
    /// records and manifests).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Simd => "simd",
        }
    }
}

/// The default backend is the thread's active one — so values plumbed
/// through configs (e.g. `TrainConfig::kernel_backend`) inherit the
/// `EMA_KERNEL` / [`set_kernel_backend`] resolution at construction.
impl Default for KernelBackend {
    fn default() -> Self {
        Self::active()
    }
}

fn global_default() -> KernelBackend {
    match GLOBAL.load(Ordering::Relaxed) {
        1 => KernelBackend::Scalar,
        2 => KernelBackend::Simd,
        _ => {
            let resolved = KernelBackend::from_env();
            // Racing first uses resolve the same env value; last store
            // wins with an identical byte.
            set_kernel_backend(resolved);
            resolved
        }
    }
}

/// Sets the process-wide default backend (overriding `EMA_KERNEL`).
/// Thread-local scopes still win. Prefer [`KernelBackend::scoped`] in
/// tests — a global flip mid-run changes other threads' kernels.
pub fn set_kernel_backend(backend: KernelBackend) {
    let code = match backend {
        KernelBackend::Scalar => 1,
        KernelBackend::Simd => 2,
    };
    GLOBAL.store(code, Ordering::Relaxed);
}

/// Runs `f` with `backend` active on the current thread (see
/// [`KernelBackend::scoped`]).
pub fn with_kernel_backend<R>(backend: KernelBackend, f: impl FnOnce() -> R) -> R {
    let _scope = backend.scoped();
    f()
}

/// RAII guard restoring the previous thread-local backend scope on
/// drop (including on unwind, so a panicking test cannot leak its
/// backend into the next test on the same thread).
#[derive(Debug)]
pub struct KernelScope {
    previous: Option<KernelBackend>,
}

impl Drop for KernelScope {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.previous));
    }
}

// ---------------------------------------------------------------------------
// Kernel work accounting
// ---------------------------------------------------------------------------

/// Cumulative work counters for one kernel backend on one thread:
/// matmul-family calls through the `matmul_funnel` funnel, their
/// nominal FLOPs (`2·m·k·n` per call: one multiply + one add per
/// accumulation) and the bytes the chosen kernel moves: both operands
/// read once plus the output — written once by the SIMD tile kernel
/// (`8·(m·k + k·n + m·n)` bytes per call), zero-filled by the funnel
/// and then read and written while accumulating by the row kernels
/// (`8·(m·k + k·n + 2·m·n)`). The figures are *work* counts, not
/// measurements — cache reuse makes real traffic lower — which is
/// exactly what an achieved-GFLOP/s report needs as numerator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Calls into the `matmul_funnel` funnel.
    pub calls: u64,
    /// Nominal floating-point operations (`2·m·k·n` per call).
    pub flops: u64,
    /// Nominal bytes moved (`8·(m·k + k·n + p·m·n)` per call, `p` the
    /// kernel's output passes: 1 on the tile path, 2 on the row path).
    pub bytes: u64,
}

impl KernelCounters {
    fn add_matmul(&mut self, m: usize, k: usize, n: usize, out_passes: usize) {
        self.calls += 1;
        self.flops += 2 * (m as u64) * (k as u64) * (n as u64);
        self.bytes += 8 * ((m * k) as u64 + (k * n) as u64 + (out_passes * m * n) as u64);
    }
}

/// One thread's kernel counters, split by backend. Taken (and reset)
/// via [`take_kernel_counters`] at drain points — the executor after
/// each job, the training loop at run end — which makes multiple drain
/// sites compose without double counting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCountersSnapshot {
    /// Work executed by the scalar oracle kernel.
    pub scalar: KernelCounters,
    /// Work executed by the AVX2+FMA kernel.
    pub simd: KernelCounters,
}

impl KernelCountersSnapshot {
    /// True when no kernel work was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scalar.calls == 0 && self.simd.calls == 0
    }
}

/// Process-wide switch for kernel accounting. The obs layer keeps it in
/// sync with the `EMA_OBS` mode: `off` ⇒ counting disabled, so the only
/// cost the hot path ever pays with telemetry off is one relaxed atomic
/// load per funnel call. Counting never touches kernel numerics.
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static KERNEL_COUNTERS: Cell<KernelCountersSnapshot> =
        const { Cell::new(KernelCountersSnapshot { scalar: KernelCounters { calls: 0, flops: 0, bytes: 0 }, simd: KernelCounters { calls: 0, flops: 0, bytes: 0 } }) };
}

/// Enables or disables kernel work accounting process-wide. Called by
/// the obs layer whenever the obs mode changes; library code should not
/// need to touch it directly (tests pinning specific expectations do).
pub fn set_kernel_counting(enabled: bool) {
    COUNTING.store(enabled, Ordering::Relaxed);
}

/// Whether kernel work accounting is currently enabled (one relaxed
/// atomic load — safe on hot paths).
#[inline]
#[must_use]
pub fn kernel_counting_enabled() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// Records one funnel call on the current thread (no-op unless counting
/// is enabled; see [`set_kernel_counting`]). `out_passes` is how often
/// the chosen kernel moves the output: 1 for the tile kernel, which
/// writes each element once, 2 for the row kernels, which read and
/// write it while accumulating.
#[inline]
pub(crate) fn record_matmul(
    backend: KernelBackend,
    m: usize,
    k: usize,
    n: usize,
    out_passes: usize,
) {
    if !kernel_counting_enabled() {
        return;
    }
    KERNEL_COUNTERS.with(|c| {
        let mut snap = c.get();
        match backend {
            KernelBackend::Scalar => snap.scalar.add_matmul(m, k, n, out_passes),
            KernelBackend::Simd => snap.simd.add_matmul(m, k, n, out_passes),
        }
        c.set(snap);
    });
}

/// Takes the current thread's kernel counters, resetting them to zero —
/// so successive drains each see only the work since the previous one.
#[must_use]
pub fn take_kernel_counters() -> KernelCountersSnapshot {
    KERNEL_COUNTERS.with(|c| c.replace(KernelCountersSnapshot::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        let base = KernelBackend::active();
        {
            let _outer = KernelBackend::Scalar.scoped();
            assert_eq!(KernelBackend::active(), KernelBackend::Scalar);
            {
                let _inner = KernelBackend::Simd.scoped();
                let expect = if KernelBackend::simd_available() {
                    KernelBackend::Simd
                } else {
                    KernelBackend::Scalar
                };
                assert_eq!(KernelBackend::active(), expect);
            }
            assert_eq!(KernelBackend::active(), KernelBackend::Scalar);
        }
        assert_eq!(KernelBackend::active(), base);
    }

    #[test]
    fn with_kernel_backend_restores_on_unwind() {
        let base = KernelBackend::active();
        let result = std::panic::catch_unwind(|| {
            with_kernel_backend(KernelBackend::Scalar, || panic!("boom"))
        });
        assert!(result.is_err());
        assert_eq!(KernelBackend::active(), base);
    }

    #[test]
    fn simd_never_active_without_hardware_support() {
        let _scope = KernelBackend::Simd.scoped();
        if !KernelBackend::simd_available() {
            assert_eq!(KernelBackend::active(), KernelBackend::Scalar);
        } else {
            assert_eq!(KernelBackend::active(), KernelBackend::Simd);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KernelBackend::Scalar.label(), "scalar");
        assert_eq!(KernelBackend::Simd.label(), "simd");
    }

    #[test]
    fn kernel_counters_accumulate_only_while_enabled() {
        // This test owns the process-wide COUNTING flag within the
        // ema-tensor test binary (no other test here flips it), and the
        // counters themselves are thread-local to this test's thread.
        let _scope = KernelBackend::Scalar.scoped();
        let _ = take_kernel_counters();

        // Disabled (the default): the funnel records nothing.
        set_kernel_counting(false);
        crate::linalg::matmul_funnel(&[1.0; 6], &[1.0; 12], &mut [0.0; 8], 2, 3, 4);
        assert!(take_kernel_counters().is_empty());

        // Enabled: one call, 2·m·k·n flops, 8·(mk + kn + 2mn) bytes
        // (the scalar row kernel reads and writes its output),
        // attributed to the active (scalar) backend.
        set_kernel_counting(true);
        crate::linalg::matmul_funnel(&[1.0; 6], &[1.0; 12], &mut [0.0; 8], 2, 3, 4);
        let snap = take_kernel_counters();
        set_kernel_counting(false);
        assert_eq!(snap.simd, KernelCounters::default());
        assert_eq!(snap.scalar.calls, 1);
        assert_eq!(snap.scalar.flops, 2 * 2 * 3 * 4);
        assert_eq!(snap.scalar.bytes, 8 * (6 + 12 + 2 * 8));
        // The take reset the thread-local counters.
        assert!(take_kernel_counters().is_empty());

        // The SIMD tile path (finite rhs, n ≤ MM_BLOCK) writes its
        // output once: 8·(mk + kn + mn) bytes. Skipped without AVX2+FMA.
        if KernelBackend::simd_available() {
            let _simd = KernelBackend::Simd.scoped();
            set_kernel_counting(true);
            crate::linalg::matmul_funnel(&[1.0; 6], &[1.0; 12], &mut [0.0; 8], 2, 3, 4);
            let snap = take_kernel_counters();
            set_kernel_counting(false);
            assert_eq!(snap.scalar, KernelCounters::default());
            assert_eq!(snap.simd.calls, 1);
            assert_eq!(snap.simd.flops, 2 * 2 * 3 * 4);
            assert_eq!(snap.simd.bytes, 8 * (6 + 12 + 8));
        }
    }

    #[test]
    fn scope_is_thread_local() {
        let _scope = KernelBackend::Scalar.scoped();
        let other = std::thread::spawn(|| {
            // A fresh thread sees the process default, not this scope.
            SCOPE.with(Cell::get).is_none()
        })
        .join()
        .unwrap();
        assert!(other);
    }
}
