//! Runtime-dispatched SIMD kernels for the HE hot loops.
//!
//! The three hottest inner loops of the crate — the forward/inverse NTT
//! butterflies, the pointwise polynomial ops, and the key-switch digit
//! loops — are routed through a single [`Kernels`] table of function
//! pointers selected **once** at startup:
//!
//! * CPU features are detected at runtime (`AVX2` on x86_64, `NEON` on
//!   aarch64); dispatch granularity is **per op**: `auto` installs the
//!   fastest kernel for each table entry, not one uniform backend. On
//!   AVX2 hosts that is the mixed `avx2+scalar` table — the measured
//!   baseline shows scalar Barrett ahead on `pointwise_mul` and the
//!   key-switch digit lift (~0.7× under AVX2), so those entries keep
//!   the scalar kernels while the NTTs and fused digit loops vectorize.
//! * The `SPOT_SIMD` environment variable overrides detection:
//!   `off`/`scalar` force the scalar kernels, `auto` (or unset) picks
//!   the tuned per-op table, and a backend name (`avx2`, `neon`,
//!   `avx2+scalar`) forces that table uniformly — falling back to
//!   scalar with a warning if the CPU does not support it.
//! * Every backend is bit-identical to the scalar path: all kernels
//!   produce canonical `[0, p)` residues at their boundaries, so the
//!   choice of backend can never change any ciphertext, share, or
//!   trace-counter value (verified by `tests/simd_kernels.rs`).
//!
//! The decision is logged once to stderr
//! (`[spot-he] simd dispatch: kernel=… requested=… available=…`) and
//! mirrored as a `spot-trace` instant event so exported traces record
//! which kernel the HE spans ran on.
//!
//! Vector kernels are written once, generically over the minimal
//! `vec::V64` lane trait; per-ISA `unsafe` is confined to the ~12
//! primitive lane ops in `avx2.rs` / `neon.rs`. See DESIGN.md §11 for
//! the safety argument and the recipe for adding a new ISA.

use crate::modulus::Modulus;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Once;

pub(crate) mod scalar;
pub(crate) mod vec;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;

/// In-place forward negacyclic NTT over one residue row.
/// `(modulus, root_powers, root_powers_shoup, values)`.
pub type NttFn = fn(&Modulus, &[u64], &[u64], &mut [u64]);
/// In-place inverse NTT: `(modulus, inv_root_powers, inv_root_powers_shoup,
/// inv_degree, inv_degree_shoup, values)`.
pub type NttInvFn = fn(&Modulus, &[u64], &[u64], u64, u64, &mut [u64]);
/// Element-wise `dst[i] = dst[i] op src[i] mod p`.
pub type BinFn = fn(&Modulus, &mut [u64], &[u64]);
/// Fused element-wise `dst[i] = (dst[i] + a[i]*b[i]) mod p`.
pub type AddMulFn = fn(&Modulus, &mut [u64], &[u64], &[u64]);
/// Element-wise `dst[i] = dst[i] * scalar mod p` with the scalar's
/// Shoup constant precomputed by the caller.
pub type MulScalarFn = fn(&Modulus, &mut [u64], u64, u64);
/// Element-wise Barrett reduction `dst[i] = src[i] mod p`.
pub type ReduceFn = fn(&Modulus, &mut [u64], &[u64]);

/// A complete set of hot-loop kernels for one backend.
///
/// All kernels take inputs already reduced into the range the scalar
/// reference requires (`[0, p)` for pointwise operands, `[0, 4p)`
/// mid-NTT) and produce canonical `[0, p)` outputs, which is what makes
/// backends interchangeable bit-for-bit.
#[derive(Debug)]
pub struct Kernels {
    /// Stable backend name (`"scalar"`, `"avx2"`, `"neon"`).
    pub name: &'static str,
    /// Forward negacyclic NTT (lazy `[0, 4p)` butterflies, fully
    /// reduced output).
    pub ntt_forward: NttFn,
    /// Inverse negacyclic NTT (lazy `[0, 2p)` butterflies, the
    /// `N^{-1}` scaling pass fully reduces).
    pub ntt_inverse: NttInvFn,
    /// Pointwise modular multiplication.
    pub pointwise_mul: BinFn,
    /// Pointwise fused multiply-accumulate (the key-switch digit loop).
    pub pointwise_add_mul: AddMulFn,
    /// Pointwise modular addition.
    pub pointwise_add: BinFn,
    /// Pointwise modular subtraction.
    pub pointwise_sub: BinFn,
    /// Multiplication by a per-modulus scalar constant.
    pub mul_scalar: MulScalarFn,
    /// Barrett reduction of a residue row into a smaller modulus (the
    /// key-switch digit lift).
    pub reduce: ReduceFn,
}

static ACTIVE: AtomicPtr<Kernels> = AtomicPtr::new(ptr::null_mut());
static INIT: Once = Once::new();

/// The scalar reference kernels (always available).
pub fn scalar_kernels() -> &'static Kernels {
    &scalar::KERNELS
}

/// Every backend the current CPU supports, scalar first.
pub fn available() -> Vec<&'static Kernels> {
    let mut v: Vec<&'static Kernels> = vec![&scalar::KERNELS];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        v.push(&avx2::KERNELS);
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        v.push(&neon::KERNELS);
    }
    v
}

/// The fastest backend the current CPU supports.
pub fn best_available() -> &'static Kernels {
    available().last().expect("scalar backend always present")
}

/// The table `auto` dispatch installs: the fastest uniform backend with
/// per-op substitutions wherever the measured baseline
/// (`BENCH_heops.json`) shows a different kernel ahead. On x86_64 with
/// AVX2 that is the mixed `avx2+scalar` table (scalar Barrett wins on
/// `pointwise_mul` and the key-switch digit lift); elsewhere no op-level
/// loss has been measured and the uniform best table is returned.
pub fn tuned_best() -> &'static Kernels {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return &avx2::TUNED;
    }
    best_available()
}

fn choose(requested: &str) -> (&'static Kernels, bool) {
    match requested {
        "off" | "scalar" => (&scalar::KERNELS, true),
        "" | "auto" => (tuned_best(), true),
        #[cfg(target_arch = "x86_64")]
        "avx2+scalar" if std::arch::is_x86_feature_detected!("avx2") => (&avx2::TUNED, true),
        name => match available().into_iter().find(|k| k.name == name) {
            Some(k) => (k, true),
            None => (&scalar::KERNELS, false),
        },
    }
}

fn install(kernels: &'static Kernels, requested: &str, honoured: bool) {
    ACTIVE.store(kernels as *const Kernels as *mut Kernels, Ordering::Release);
    let names: Vec<&str> = available().iter().map(|k| k.name).collect();
    eprintln!(
        "[spot-he] simd dispatch: kernel={} requested={} available={}{}",
        kernels.name,
        if requested.is_empty() {
            "auto"
        } else {
            requested
        },
        names.join(","),
        if honoured {
            ""
        } else {
            " (requested backend unsupported; using scalar)"
        }
    );
    // Mirror the decision into exported traces so HE spans/counters can
    // be attributed to the kernel that produced them.
    spot_trace::instant(spot_trace::Cat::He, kernels.dispatch_event_name());
}

impl Kernels {
    fn dispatch_event_name(&self) -> &'static str {
        match self.name {
            "avx2" => "simd_dispatch=avx2",
            "avx2+scalar" => "simd_dispatch=avx2+scalar",
            "neon" => "simd_dispatch=neon",
            _ => "simd_dispatch=scalar",
        }
    }
}

/// The active kernel table, dispatching on first use.
///
/// The first call reads `SPOT_SIMD` and the CPU's feature flags, logs
/// the decision, and caches it; later calls are a single atomic load.
#[inline]
pub fn kernels() -> &'static Kernels {
    let p = ACTIVE.load(Ordering::Acquire);
    if !p.is_null() {
        // SAFETY: ACTIVE only ever holds pointers to the 'static kernel
        // tables installed by `install`.
        return unsafe { &*p };
    }
    INIT.call_once(|| {
        let requested = std::env::var("SPOT_SIMD").unwrap_or_default();
        let (k, honoured) = choose(requested.trim());
        install(k, requested.trim(), honoured);
    });
    let p = ACTIVE.load(Ordering::Acquire);
    // SAFETY: as above; `install` has run (either in this call_once or a
    // concurrent one that completed first).
    unsafe { &*p }
}

/// The name of the currently dispatched backend (dispatches if needed).
pub fn active_name() -> &'static str {
    kernels().name
}

/// Re-points the dispatch at a named backend at runtime.
///
/// Intended for benchmarks and tests that measure both paths in one
/// process; production code should rely on [`kernels`] + `SPOT_SIMD`.
/// Returns an error naming the available backends if `name` is not
/// supported on this CPU.
pub fn force(name: &str) -> Result<&'static Kernels, String> {
    // Run the normal first-use dispatch first so logs stay ordered.
    let _ = kernels();
    let (k, honoured) = choose(name);
    if !honoured {
        return Err(format!(
            "backend {name:?} not available (have: {})",
            available()
                .iter()
                .map(|k| k.name)
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    install(k, name, true);
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        let avail = available();
        assert_eq!(avail[0].name, "scalar");
        assert!(!avail.is_empty());
    }

    #[test]
    fn force_scalar_and_back() {
        let k = force("scalar").unwrap();
        assert_eq!(k.name, "scalar");
        assert_eq!(active_name(), "scalar");
        let best = best_available();
        let k = force(best.name).unwrap();
        assert_eq!(k.name, best.name);
        assert!(force("no-such-backend").is_err());
    }

    #[test]
    fn choose_honours_off_and_auto() {
        assert_eq!(choose("off").0.name, "scalar");
        assert_eq!(choose("scalar").0.name, "scalar");
        assert_eq!(choose("auto").0.name, tuned_best().name);
        assert_eq!(choose("").0.name, tuned_best().name);
        let (k, honoured) = choose("riscv-vector");
        assert_eq!(k.name, "scalar");
        assert!(!honoured);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tuned_table_mixes_backends_per_op() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let (t, honoured) = choose("avx2+scalar");
        assert!(honoured);
        assert_eq!(t.name, "avx2+scalar");
        assert_eq!(tuned_best().name, "avx2+scalar");
        // The two measured-loss entries fall back to scalar; the NTTs
        // keep the vector kernels.
        assert_eq!(
            t.pointwise_mul as usize,
            scalar::KERNELS.pointwise_mul as usize
        );
        assert_eq!(t.reduce as usize, scalar::KERNELS.reduce as usize);
        assert_ne!(t.ntt_forward as usize, scalar::KERNELS.ntt_forward as usize);
        assert_eq!(t.ntt_forward as usize, avx2::KERNELS.ntt_forward as usize);
    }
}
