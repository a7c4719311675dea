//! Channel-wise HE packing — the CrypTFlow2/GAZELLE baseline.
//!
//! Each ciphertext packs whole feature-map channels (`C_n = ⌊S'/HW⌋` per
//! the paper's Sec. III intro): channel `c` occupies one contiguous
//! power-of-two block of a lane. The convolution is the classic
//! SISO/MIMO rotation scheme; because every output channel needs *all*
//! input channels, the per-ciphertext partial results must be summed
//! across input ciphertexts — the cross-ciphertext dependency that
//! causes the linear computation stall on tiny clients.
//!
//! The drivers here are thin wrappers over the session layer
//! ([`crate::session`]): client and server run as separate state
//! machines over an in-process transport exchanging real wire frames.

use crate::executor::Executor;
use crate::heconv::{ChannelMap, GroupSpec};
use crate::layout::next_pow2;
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

/// Geometry of a channel-wise packing for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelwiseGeometry {
    /// Slots per channel block (power of two ≥ `H·W`).
    pub channel_slots: usize,
    /// Channel blocks per lane.
    pub blocks_per_lane: usize,
    /// Channels per ciphertext (both lanes).
    pub channels_per_ct: usize,
    /// Number of input ciphertexts.
    pub input_cts: usize,
    /// Number of output ciphertexts.
    pub output_cts: usize,
    /// Whether both lanes carry (distinct) channels.
    pub both_lanes: bool,
}

/// Computes the packing geometry for a layer shape at a parameter level.
///
/// # Panics
///
/// Panics if one channel does not fit a lane (`HW_pad > N/2`); large
/// feature maps must be handled by the planner's fragment model.
pub fn geometry(shape: &ConvShape, level: ParamLevel) -> ChannelwiseGeometry {
    let lane = level.degree() / 2;
    let s = next_pow2(shape.width * shape.height);
    assert!(
        s <= lane,
        "channel of {}x{} does not fit a lane of {} slots",
        shape.height,
        shape.width,
        lane
    );
    let ci_pad = next_pow2(shape.c_in);
    let co_pad = next_pow2(shape.c_out);
    let max_per_lane = lane / s;
    let blocks = max_per_lane.min(ci_pad.div_ceil(2)).max(1);
    let both_lanes = ci_pad >= 2;
    let channels_per_ct = if both_lanes { 2 * blocks } else { 1 };
    let input_cts = ci_pad.div_ceil(channels_per_ct);
    let output_cts = co_pad.div_ceil(channels_per_ct);
    ChannelwiseGeometry {
        channel_slots: s,
        blocks_per_lane: blocks,
        channels_per_ct,
        input_cts,
        output_cts,
        both_lanes,
    }
}

/// Result of a functional secure convolution: additive shares of the
/// output plus the recorded server operation counts.
#[derive(Debug)]
pub struct SecureConvResult {
    /// The client's additive share of the (strided) output tensor.
    pub client_share: Tensor,
    /// The server's additive share.
    pub server_share: Tensor,
    /// Recorded HE operations.
    pub counts: OpCounts,
    /// Number of input ciphertexts the client produced.
    pub input_cts: usize,
    /// Number of output ciphertexts returned.
    pub output_cts: usize,
    /// The plaintext modulus shares live in.
    pub modulus: u64,
}

impl SecureConvResult {
    /// Reconstructs the plain output: adds the shares modulo `t` and
    /// recenters (testing convenience).
    pub fn reconstruct(&self) -> Tensor {
        let t = self.modulus as i64;
        self.client_share.add(&self.server_share).map(|v| {
            let m = v.rem_euclid(t);
            if m > t / 2 {
                m - t
            } else {
                m
            }
        })
    }
}

/// Input-channel placement for ciphertext `ct`: `map[lane][block]` is
/// the channel packed there, if any.
pub(crate) fn channel_map(geo: &ChannelwiseGeometry, ct: usize, c_in: usize) -> ChannelMap {
    let mut map = vec![vec![None; geo.blocks_per_lane]; 2];
    for (lane, row) in map.iter_mut().enumerate() {
        if lane == 1 && !geo.both_lanes {
            break;
        }
        for (b, slot) in row.iter_mut().enumerate() {
            let ch = ct * geo.channels_per_ct + lane * geo.blocks_per_lane + b;
            if ch < c_in {
                *slot = Some(ch);
            }
        }
    }
    map
}

/// Output-channel placement for output ciphertext `out_ct` (same layout
/// rule as [`channel_map`] against `c_out`).
pub(crate) fn group_spec(geo: &ChannelwiseGeometry, out_ct: usize, c_out: usize) -> GroupSpec {
    let mut out_ch = vec![vec![None; geo.blocks_per_lane]; 2];
    for (lane, row) in out_ch.iter_mut().enumerate() {
        if lane == 1 && !geo.both_lanes {
            break;
        }
        for (b, slot) in row.iter_mut().enumerate() {
            let ch = out_ct * geo.channels_per_ct + lane * geo.blocks_per_lane + b;
            if ch < c_out {
                *slot = Some(ch);
            }
        }
    }
    GroupSpec { out_ch }
}

/// Executes the channel-wise secure convolution end to end on a single
/// thread (functional path used by tests and small workloads). Other
/// backends and batches run through [`crate::session::run_in_process`].
///
/// # Panics
///
/// Panics if the shape does not fit the level (see [`geometry`]) or the
/// session fails (in-process transports cannot fail in normal use).
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
        SchemeKind::Channelwise,
        &ExecBackend::Phased(Executor::serial()),
        rng,
    )
    .expect("in-process channelwise session")
    .into_results()
    .remove(0)
}

/// Analytic operation counts for one input ciphertext (matches the
/// executor exactly when channel counts are powers of two).
pub fn per_ct_counts(geo: &ChannelwiseGeometry, k_h: usize, k_w: usize) -> OpCounts {
    let kk = (k_h * k_w) as u64;
    let b = geo.blocks_per_lane as u64;
    let v = if geo.both_lanes { 2u64 } else { 1 };
    let groups = geo.output_cts as u64;
    OpCounts {
        // column swap + tap pre-rotations per version + per-group
        // diagonal alignment rotations (CrypTFlow2's published
        // output-rotation algorithm, no BSGS)
        rotate: (v - 1) + v * (kk - 1) + groups * (b - 1),
        mult_plain: groups * v * b * kk,
        add: groups * (v * b * kk - 1),
        encrypt: 0,
        decrypt: 0,
    }
}

/// Builds the execution plan for the simulator. Handles feature maps
/// larger than a lane by splitting channels into lane-sized fragments
/// (counts only; the functional path requires `HW_pad ≤ N/2`).
pub fn plan(shape: &ConvShape, level: ParamLevel, with_relu: bool) -> ConvPlan {
    let lane = level.degree() / 2;
    let s_full = next_pow2(shape.width * shape.height);
    let (eff_shape, fragments) = if s_full <= lane {
        (*shape, 1usize)
    } else {
        // Fragment the feature map: each fragment behaves like a channel
        // holding a full lane of slots.
        let frag = s_full / lane;
        let mut s = *shape;
        s.c_in = shape.c_in * frag;
        s.c_out = shape.c_out * frag;
        s.height = 1;
        s.width = lane;
        (s, frag)
    };
    let geo = geometry(&eff_shape, level);
    let per_ct = per_ct_counts(&geo, shape.k_h, shape.k_w);
    let finalize = OpCounts {
        add: ((geo.input_cts as u64 - 1) * geo.output_cts as u64) + geo.output_cts as u64,
        ..OpCounts::default()
    };
    let params = spot_he::params::EncryptionParams::new(level);
    ConvPlan {
        scheme: "CrypTFlow2 (channel-wise)",
        level,
        input_cts: geo.input_cts,
        output_cts: geo.output_cts,
        per_ct_ops: per_ct,
        finalize_ops: finalize,
        dependency: OutputDependency::AllInputs,
        extra_downstream_bytes: 0,
        client_extra_s: 0.0,
        assembly_elements: 0,
        relu_elements: if with_relu {
            shape.output_elements()
        } else {
            0
        },
        ciphertext_bytes: params.ciphertext_bytes(),
        useful_input_slots: (geo.channels_per_ct * shape.width * shape.height / fragments)
            .min(level.degree()),
        useful_output_slots: (geo.channels_per_ct * shape.out_width() * shape.out_height()
            / fragments)
            .min(level.degree()),
    }
}

/// The smallest parameter level channel-wise packing can use for a
/// shape: one channel must fit a lane (the paper's Observation 2 —
/// CrypTFlow2 cannot shrink parameters below the channel size, and uses
/// at least `N = 8192`).
pub fn minimum_level(shape: &ConvShape) -> ParamLevel {
    let s = next_pow2(shape.width * shape.height);
    for level in [ParamLevel::N8192, ParamLevel::N16384] {
        if s <= level.degree() / 2 {
            return level;
        }
    }
    // 224×224 and beyond: stuck at the largest level with fragmentation.
    ParamLevel::N16384
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
    fn geometry_small_map() {
        // 16x16 map (256 slots), lane 2048 at N4096: 8 channels per lane
        let shape = ConvShape::new(16, 16, 16, 16, 3, 1);
        let geo = geometry(&shape, ParamLevel::N4096);
        assert_eq!(geo.channel_slots, 256);
        assert_eq!(geo.blocks_per_lane, 8);
        assert_eq!(geo.channels_per_ct, 16);
        assert_eq!(geo.input_cts, 1);
        assert_eq!(geo.output_cts, 1);
    }

    #[test]
    fn geometry_many_channels() {
        let shape = ConvShape::new(16, 16, 64, 32, 3, 1);
        let geo = geometry(&shape, ParamLevel::N4096);
        assert_eq!(geo.channels_per_ct, 16);
        assert_eq!(geo.input_cts, 4);
        assert_eq!(geo.output_cts, 2);
    }

    #[test]
    fn secure_conv_matches_reference_3x3() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(100);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(4, 8, 8, 8, 1);
        let kernel = Kernel::random(4, 4, 3, 3, 4, 2);
        let res = execute(&ctx, &kg, &input, &kernel, 1, &mut rng);
        let expected = conv2d(&input, &kernel, 1);
        assert_eq!(res.reconstruct(), expected);
    }

    #[test]
    fn secure_conv_matches_reference_1x1() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(200);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(8, 4, 4, 8, 3);
        let kernel = Kernel::random(16, 8, 1, 1, 4, 4);
        let res = execute(&ctx, &kg, &input, &kernel, 1, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn secure_conv_stride_2() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(300);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(2, 8, 8, 8, 5);
        let kernel = Kernel::random(2, 2, 3, 3, 4, 6);
        let res = execute(&ctx, &kg, &input, &kernel, 2, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 2));
    }

    #[test]
    fn secure_conv_multi_ct_inputs() {
        // 32 input channels at 8x8 (64 slots): lane 2048 → 16/lane? blocks
        // limited by ci/2 = 16; channels_per_ct = 32 → 1 input ct. Use a
        // bigger map to force multiple cts: 16x16 → 8 blocks, 16 ch/ct.
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(500);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(32, 16, 16, 4, 9);
        let kernel = Kernel::random(8, 32, 3, 3, 3, 10);
        let res = execute(&ctx, &kg, &input, &kernel, 1, &mut rng);
        assert!(
            res.input_cts > 1,
            "want multi-ct input, got {}",
            res.input_cts
        );
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn recorded_counts_match_plan() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(400);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(8, 8, 8, 8, 7);
        let kernel = Kernel::random(8, 8, 3, 3, 4, 8);
        let res = execute(&ctx, &kg, &input, &kernel, 1, &mut rng);
        let shape = ConvShape::new(8, 8, 8, 8, 3, 1);
        let p = plan(&shape, ParamLevel::N4096, false);
        assert_eq!(p.input_cts, res.input_cts);
        assert_eq!(p.output_cts, res.output_cts);
        let total = p.total_server_ops();
        assert_eq!(total.mult_plain, res.counts.mult_plain);
        assert_eq!(total.rotate, res.counts.rotate);
        assert_eq!(total.add, res.counts.add);
    }

    #[test]
    fn minimum_levels() {
        assert_eq!(
            minimum_level(&ConvShape::new(56, 56, 64, 64, 3, 1)),
            ParamLevel::N8192
        );
        assert_eq!(
            minimum_level(&ConvShape::new(112, 112, 64, 64, 3, 1)),
            ParamLevel::N16384
        );
    }

    #[test]
    fn plan_fragments_large_maps() {
        let shape = ConvShape::new(224, 224, 3, 64, 3, 1);
        let p = plan(&shape, ParamLevel::N16384, true);
        assert!(p.input_cts >= 2, "fragmented input cts = {}", p.input_cts);
        assert_eq!(p.dependency, OutputDependency::AllInputs);
        assert_eq!(p.relu_elements, 224 * 224 * 64);
    }
}
