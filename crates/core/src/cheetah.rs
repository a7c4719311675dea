//! Cheetah-style coefficient-encoding convolution (Huang et al., USENIX
//! Security '22) — the second baseline the paper compares against.
//!
//! Instead of SIMD slots, the input is packed into *polynomial
//! coefficients*; one ciphertext–plaintext ring multiplication then
//! computes an entire multi-channel convolution with **zero rotations**
//! (the negacyclic product's coefficient at the right index accumulates
//! the full weighted sum). The price:
//!
//! * only a sparse subset of output coefficients is useful, so the
//!   server must *extract* each useful coefficient (as an LWE
//!   ciphertext), inflating downstream traffic and processing — the
//!   paper's explanation for why Cheetah's advantage collapses on tiny
//!   clients (Table II);
//! * output values still depend on **all** input ciphertexts (partial
//!   products summed across channel chunks), so the linear computation
//!   stall remains.
//!
//! The functional path really computes convolutions through the
//! coefficient encoding on our BFV ciphertexts and is tested against the
//! plaintext reference; extraction is modelled by its traffic/compute
//! cost (per DESIGN.md §3 the masked RLWE ciphertext stands in for the
//! extracted LWE batch in the functional path).
//!
//! The drivers here are thin wrappers over the session layer
//! ([`crate::session`]): client and server run as separate state
//! machines over an in-process transport exchanging real wire frames.

use crate::channelwise::SecureConvResult;
use crate::executor::Executor;
use crate::patching::PatchMode;
use crate::session::{run_in_process, ExecBackend, SchemeKind};
use rand::Rng;
use spot_he::context::Context;
use spot_he::evaluator::OpCounts;
use spot_he::keys::KeyGenerator;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::{ConvPlan, OutputDependency};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use std::sync::Arc;

/// Bytes per extracted output element (an LWE ciphertext after modulus
/// switching and seed compression, amortized) — drives the downstream
/// blow-up the paper attributes to Cheetah.
pub const LWE_BYTES_PER_ELEMENT: u64 = 16;

/// Geometry of the coefficient packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheetahGeometry {
    /// Padded channel stride in coefficients (`(H+k_h-1)·(W+k_w-1)`).
    pub channel_coeffs: usize,
    /// Input channels per ciphertext.
    pub channels_per_ct: usize,
    /// Number of input ciphertexts.
    pub input_cts: usize,
    /// Number of output (RLWE) ciphertexts before extraction.
    pub output_cts: usize,
}

/// Computes the packing geometry.
///
/// The functional encoding places chunk channels ascending and kernels
/// descending, so the useful products land at channel offset
/// `(chunk-1)·channel_coeffs` and the total degree stays below `N` when
/// `(2·chunk-1)·channel_coeffs ≤ N`.
pub fn geometry(shape: &ConvShape, level: ParamLevel) -> CheetahGeometry {
    let n = level.degree();
    let hp = shape.height + shape.k_h - 1;
    let wp = shape.width + shape.k_w - 1;
    let s_ch = hp * wp;
    let max_chunk = if s_ch > n { 0 } else { (n / s_ch).div_ceil(2) };
    let channels_per_ct = max_chunk.max(1).min(shape.c_in.max(1));
    let (input_cts, output_cts) = if max_chunk == 0 {
        // feature map larger than the ring: fragment (planning only)
        let per_channel = s_ch.div_ceil(n);
        (shape.c_in * per_channel, shape.c_out * per_channel)
    } else {
        (shape.c_in.div_ceil(channels_per_ct), shape.c_out)
    };
    CheetahGeometry {
        channel_coeffs: s_ch,
        channels_per_ct,
        input_cts,
        output_cts,
    }
}

/// Executes the Cheetah-style secure convolution (functional path) on a
/// single thread. Other backends and batches run through
/// [`crate::session::run_in_process`].
///
/// # Panics
///
/// Panics if the feature map does not fit the ring
/// (`(H+k-1)(W+k-1) > N`); large maps are handled by the planner only.
pub fn execute<R: Rng>(
    ctx: &Arc<Context>,
    keygen: &KeyGenerator,
    input: &Tensor,
    kernel: &Kernel,
    stride: usize,
    rng: &mut R,
) -> SecureConvResult {
    run_in_process(
        ctx,
        keygen,
        std::slice::from_ref(input),
        kernel,
        stride,
        (0, 0),
        PatchMode::Vanilla,
        SchemeKind::Cheetah,
        &ExecBackend::Phased(Executor::serial()),
        rng,
    )
    .expect("in-process cheetah session")
    .into_results()
    .remove(0)
}

/// The smallest level Cheetah can use for a shape (the feature map plus
/// kernel halo must fit the ring).
pub fn minimum_level(shape: &ConvShape) -> ParamLevel {
    let s_ch = (shape.height + shape.k_h - 1) * (shape.width + shape.k_w - 1);
    for level in ParamLevel::ALL {
        if s_ch <= level.degree() && level.supports_rotation() {
            // Cheetah needs no rotations, but key-switching material for
            // relinearization-free ops still wants ≥ 2 RNS primes; its
            // published parameters use N = 4096.
            return level;
        }
    }
    ParamLevel::N16384
}

/// Builds the Cheetah execution plan for the simulator.
pub fn plan(shape: &ConvShape, level: ParamLevel, with_relu: bool) -> ConvPlan {
    let geo = geometry(shape, level);
    let out_elements = shape.output_elements() as u64;
    let per_ct = OpCounts {
        // one ring product per output channel per input ciphertext
        mult_plain: shape.c_out as u64,
        ..OpCounts::default()
    };
    let finalize = OpCounts {
        // chunk accumulation + masking + extraction work (charged as
        // cheap add-equivalents, one per 8 output elements)
        add: (geo.input_cts.saturating_sub(1) as u64) * shape.c_out as u64
            + shape.c_out as u64
            + out_elements / 8,
        ..OpCounts::default()
    };
    let params = spot_he::params::EncryptionParams::new(level);
    ConvPlan {
        scheme: "Cheetah (coefficient)",
        level,
        input_cts: geo.input_cts,
        // extracted LWE batches repacked: downstream dominated by
        // extra_downstream_bytes; keep RLWE count modest
        output_cts: geo.output_cts.min(geo.input_cts.max(1) * 4).max(1),
        per_ct_ops: per_ct,
        finalize_ops: finalize,
        dependency: OutputDependency::AllInputs,
        extra_downstream_bytes: out_elements * LWE_BYTES_PER_ELEMENT,
        // client-side LWE decryption/processing per extracted element
        client_extra_s: out_elements as f64 * 1.2e-6,
        assembly_elements: out_elements,
        relu_elements: if with_relu {
            shape.output_elements()
        } else {
            0
        },
        ciphertext_bytes: params.ciphertext_bytes(),
        useful_input_slots: (geo.channels_per_ct * shape.width * shape.height).min(level.degree()),
        // extraction leaves one useful value per LWE ciphertext — the
        // memory-utilization penalty of Fig. 11
        useful_output_slots: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spot_he::params::EncryptionParams;
    use spot_tensor::conv::conv2d;

    fn ctx4096() -> Arc<Context> {
        Context::new(EncryptionParams::new(ParamLevel::N4096))
    }

    #[test]
    fn geometry_counts() {
        let shape = ConvShape::new(8, 8, 16, 8, 3, 1);
        let geo = geometry(&shape, ParamLevel::N4096);
        assert_eq!(geo.channel_coeffs, 100);
        assert_eq!(geo.channels_per_ct, 16);
        assert_eq!(geo.input_cts, 1);
        assert_eq!(geo.output_cts, 8);
    }

    #[test]
    fn cheetah_matches_reference_3x3() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(700);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(4, 8, 8, 8, 71);
        let kernel = Kernel::random(4, 4, 3, 3, 4, 72);
        let res = execute(&ctx, &kg, &input, &kernel, 1, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
        // zero rotations — Cheetah's defining property
        assert_eq!(res.counts.rotate, 0);
    }

    #[test]
    fn cheetah_matches_reference_multi_chunk() {
        // 16x16 map → s_ch = 18*18 = 324; chunk = (4096/324+1)/2 = 6;
        // 16 channels → 3 input cts
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(800);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(16, 16, 16, 4, 81);
        let kernel = Kernel::random(2, 16, 3, 3, 3, 82);
        let res = execute(&ctx, &kg, &input, &kernel, 1, &mut rng);
        assert!(res.input_cts > 1);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn cheetah_1x1_and_stride() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(900);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(4, 8, 8, 8, 91);
        let kernel = Kernel::random(4, 4, 1, 1, 4, 92);
        let res = execute(&ctx, &kg, &input, &kernel, 2, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 2));
    }

    #[test]
    fn minimum_levels() {
        assert_eq!(
            minimum_level(&ConvShape::new(56, 56, 64, 64, 3, 1)),
            ParamLevel::N4096
        );
        assert_eq!(
            minimum_level(&ConvShape::new(112, 112, 64, 64, 3, 1)),
            ParamLevel::N16384
        );
    }

    #[test]
    fn plan_has_dependency_and_extraction_cost() {
        let shape = ConvShape::new(28, 28, 128, 128, 3, 1);
        let p = plan(&shape, ParamLevel::N4096, true);
        assert_eq!(p.dependency, OutputDependency::AllInputs);
        assert!(p.extra_downstream_bytes > 1_000_000);
        assert_eq!(p.per_ct_ops.rotate, 0);
    }
}
