//! The SPOT secure convolution: structure patching pipelining with patch
//! overlap tweaking (Sec. III-A/III-B of the paper).
//!
//! The input is sliced into pieces spanning **all** input channels
//! ([`crate::patching`]); every piece — main patches and the tweaked
//! scheme's auxiliary seam pieces — is packed into ciphertext lanes in
//! channel-major order and convolved *independently* on the server
//! ([`crate::heconv`]): one input ciphertext suffices to produce final
//! output values for its pieces, so results stream back to the client
//! with no cross-ciphertext stall. The client assembles its share of the
//! convolution arithmetically (add patch and corner shares, subtract
//! strip shares) exactly as in Fig. 10.
//!
//! Kernel blocking follows Fig. 7: when `C_o ≥ C_i` the kernels split
//! into `C_o/C_i` blocks of size `C_i` (one output ciphertext each);
//! when `C_o < C_i` the diagonals are concatenated across `C_i` and the
//! partial sums folded with `log2(C_i/C_o)` rotate-and-add steps.
//!
//! The drivers here are thin wrappers over the session layer
//! ([`crate::session`]): client and server run as separate state
//! machines over an in-process transport exchanging real wire frames.

use crate::channelwise::SecureConvResult;
use crate::executor::Executor;
use crate::heconv::{ChannelMap, GroupSpec};
use crate::layout::{next_pow2, unpack_pieces, unpack_pieces_split, LaneLayout};
use crate::patching::{decompose, PatchMode};
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

/// Kernel blocking configuration derived from channel counts (Fig. 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blocking {
    /// Padded input channels.
    pub ci_pad: usize,
    /// Padded output channels.
    pub co_pad: usize,
    /// Channel blocks **per lane** (`ci_pad/2` when split across lanes).
    pub lane_blocks: usize,
    /// Whether piece channels are split across the two lanes (always,
    /// except for single-channel inputs) — doubles the patch budget to
    /// the full `N / C_i` of the paper's Table VI.
    pub split: bool,
    /// Diagonal count per group.
    pub diagonals: usize,
    /// Output groups (result ciphertexts per input ciphertext).
    pub out_groups: usize,
    /// Fold steps (per-lane block shifts) applied after alignment.
    pub fold_steps: Vec<usize>,
}

/// Computes the kernel blocking for the given channel counts.
pub fn blocking(c_in: usize, c_out: usize) -> Blocking {
    let ci_pad = next_pow2(c_in);
    let co_pad = next_pow2(c_out);
    let split = ci_pad >= 2;
    let lane_blocks = if split { ci_pad / 2 } else { 1 };
    if co_pad >= ci_pad {
        Blocking {
            ci_pad,
            co_pad,
            lane_blocks,
            split,
            diagonals: lane_blocks,
            out_groups: (co_pad / ci_pad).max(1),
            fold_steps: Vec::new(),
        }
    } else {
        // C_o < C_i: concatenated diagonals + per-lane tree folding; the
        // cross-lane half is covered by the column-swapped products.
        let mut fold_steps = Vec::new();
        let mut step = lane_blocks / 2;
        while step >= co_pad {
            fold_steps.push(step);
            step /= 2;
        }
        Blocking {
            ci_pad,
            co_pad,
            lane_blocks,
            split,
            diagonals: co_pad.min(lane_blocks),
            out_groups: 1,
            fold_steps,
        }
    }
}

/// Builds the output-group specs for a blocking (one per result
/// ciphertext), mapping lane blocks to output channels per Fig. 7.
pub fn spot_group_specs(blk: &Blocking, c_out: usize) -> Vec<GroupSpec> {
    let b_lane = blk.lane_blocks;
    let mut groups = Vec::with_capacity(blk.out_groups);
    for g in 0..blk.out_groups {
        let mut out_ch = vec![vec![None; b_lane]; 2];
        for (lane, row) in out_ch.iter_mut().enumerate() {
            if lane == 1 && !blk.split {
                break;
            }
            for (b, slot) in row.iter_mut().enumerate() {
                let ch = if blk.co_pad >= blk.ci_pad {
                    // C_o ≥ C_i: out channels split across lanes per group
                    g * blk.ci_pad + lane * b_lane + b
                } else {
                    // folding: out channels repeat with period co_pad
                    (lane * b_lane + b) % blk.co_pad
                };
                if ch < c_out {
                    *slot = Some(ch);
                }
            }
        }
        groups.push(GroupSpec { out_ch });
    }
    groups
}

/// Builds the input channel maps for a blocking: the channel-major lane
/// assignment, plus its lane-swapped twin when channels split across
/// lanes.
pub fn spot_in_maps(blk: &Blocking, c_in: usize) -> Vec<ChannelMap> {
    let b_lane = blk.lane_blocks;
    let mut map = vec![vec![None; b_lane]; 2];
    for (lane, row) in map.iter_mut().enumerate() {
        if lane == 1 && !blk.split {
            break;
        }
        for (b, slot) in row.iter_mut().enumerate() {
            let ch = lane * b_lane + b;
            if ch < c_in {
                *slot = Some(ch);
            }
        }
    }
    if blk.split {
        let swapped = vec![map[1].clone(), map[0].clone()];
        vec![map, swapped]
    } else {
        vec![map]
    }
}

/// Unpacks one class's per-group slot vectors (one party's decoded
/// results or masks) into per-piece share tensors. Used symmetrically
/// by the client and server halves of the session.
#[allow(clippy::too_many_arguments)]
pub(crate) fn unpack_class_share(
    blk: &Blocking,
    layout: &LaneLayout,
    pieces_len: usize,
    class_h: usize,
    class_w: usize,
    c_out: usize,
    t: u64,
    group_slots: &[Vec<Vec<u64>>],
) -> Vec<Tensor> {
    let ch_in_group = if blk.co_pad >= blk.ci_pad {
        blk.ci_pad
    } else {
        blk.co_pad
    };
    let mut class_out = vec![Tensor::zeros(c_out, class_h, class_w); pieces_len];
    for (g, slots) in group_slots.iter().enumerate() {
        let cp = if blk.split {
            unpack_pieces_split(layout, slots, pieces_len, ch_in_group, t)
        } else {
            unpack_pieces(layout, slots, pieces_len, ch_in_group, t)
        };
        for pi in 0..pieces_len {
            for local_c in 0..ch_in_group {
                let global_c = if blk.co_pad >= blk.ci_pad {
                    g * blk.ci_pad + local_c
                } else {
                    local_c
                };
                if global_c >= c_out {
                    continue;
                }
                for y in 0..class_h {
                    for x in 0..class_w {
                        *class_out[pi].at_mut(global_c, y, x) = cp[pi].at(local_c, y, x);
                    }
                }
            }
        }
    }
    class_out
}

/// Executes the SPOT secure convolution end to end on a single thread.
/// Other backends and batches run through
/// [`crate::session::run_in_process`].
///
/// `patch` is the main patch size `(ph, pw)` (see [`crate::select`] for
/// the Table VI selection); `mode` picks vanilla patching or overlap
/// tweaking.
///
/// # Panics
///
/// Panics if a piece does not fit a lane
/// (`C_i_pad · next_pow2(ph·pw) > N/2`) or the level has no rotations.
#[allow(clippy::too_many_arguments)]
pub fn execute<R: Rng>(
    ctx: &Arc<Context>,
    keygen: &KeyGenerator,
    input: &Tensor,
    kernel: &Kernel,
    stride: usize,
    patch: (usize, usize),
    mode: PatchMode,
    rng: &mut R,
) -> SecureConvResult {
    run_in_process(
        ctx,
        keygen,
        std::slice::from_ref(input),
        kernel,
        stride,
        patch,
        mode,
        SchemeKind::Spot,
        &ExecBackend::Phased(Executor::serial()),
        rng,
    )
    .expect("in-process SPOT session")
    .into_results()
    .remove(0)
}

/// Piece-class geometry used by the planner.
#[derive(Debug, Clone)]
pub struct SpotGeometry {
    /// Patch size used.
    pub patch: (usize, usize),
    /// Decomposition mode.
    pub mode: PatchMode,
    /// Kernel blocking.
    pub blocking: Blocking,
    /// Per class: `(piece count, ciphertext count)`.
    pub class_cts: Vec<(usize, usize)>,
    /// Total input ciphertexts.
    pub input_cts: usize,
    /// Total output ciphertexts.
    pub output_cts: usize,
    /// Useful input slots per ciphertext (average).
    pub useful_input_slots: usize,
}

/// Computes the SPOT geometry for a shape without touching data.
///
/// # Panics
///
/// Panics if a piece does not fit a lane at this level.
pub fn geometry(
    shape: &ConvShape,
    level: ParamLevel,
    patch: (usize, usize),
    mode: PatchMode,
) -> SpotGeometry {
    let lane = level.degree() / 2;
    let blk = blocking(shape.c_in, shape.c_out);
    // Piece counts depend only on spatial dims; probe with one channel.
    let probe = Tensor::zeros(1, shape.height, shape.width);
    let decomp = decompose(&probe, patch.0, patch.1, shape.k_h, mode);
    let mut class_cts = Vec::new();
    let mut input_cts = 0usize;
    let mut useful = 0usize;
    for (class, pieces) in &decomp.classes {
        let layout = LaneLayout::new(lane, blk.lane_blocks, class.h, class.w);
        let per_ct = if blk.split {
            layout.groups
        } else {
            2 * layout.groups
        };
        let cts = pieces.len().div_ceil(per_ct);
        class_cts.push((pieces.len(), cts));
        input_cts += cts;
        useful += pieces.len() * shape.c_in * class.h * class.w;
    }
    let output_cts = input_cts * blk.out_groups;
    SpotGeometry {
        patch,
        mode,
        blocking: blk,
        class_cts,
        input_cts,
        output_cts,
        useful_input_slots: useful / input_cts.max(1),
    }
}

/// Analytic per-ciphertext operation counts (exact for power-of-two
/// channel counts and fully populated ciphertexts).
pub fn per_ct_counts(blk: &Blocking, k_h: usize, k_w: usize) -> OpCounts {
    let kk = (k_h * k_w) as u64;
    let d = blk.diagonals as u64;
    let g = blk.out_groups as u64;
    let v = if blk.split { 2u64 } else { 1 };
    let folds = blk.fold_steps.len() as u64;
    let (baby, giants) = crate::heconv::bsgs_split(
        blk.diagonals,
        blk.out_groups,
        v as usize,
        (k_h * k_w).max(1),
    );
    OpCounts {
        rotate: (v - 1) + v * (kk * baby as u64 - 1) + g * (giants as u64 - 1) + g * folds,
        mult_plain: g * v * d * kk,
        add: g * (v * d * kk - 1) + g * folds + g, // final term: mask adds
        encrypt: 0,
        decrypt: 0,
    }
}

/// Builds the SPOT execution plan for the simulator.
pub fn plan(
    shape: &ConvShape,
    level: ParamLevel,
    patch: (usize, usize),
    mode: PatchMode,
    with_relu: bool,
) -> ConvPlan {
    let geo = geometry(shape, level, patch, mode);
    let per_ct = per_ct_counts(&geo.blocking, shape.k_h, shape.k_w);
    let params = spot_he::params::EncryptionParams::new(level);
    // Assembly: every piece output element is added/subtracted once into
    // the client share (and once server-side, charged to the server for
    // free — it is negligible there).
    let assembly = (shape.width * shape.height * shape.c_out) as u64 * 2;
    ConvPlan {
        scheme: "SPOT",
        level,
        input_cts: geo.input_cts,
        output_cts: geo.output_cts,
        per_ct_ops: per_ct,
        finalize_ops: OpCounts::default(),
        dependency: OutputDependency::PerInput,
        extra_downstream_bytes: 0,
        client_extra_s: 0.0,
        assembly_elements: assembly,
        relu_elements: if with_relu {
            shape.output_elements()
        } else {
            0
        },
        ciphertext_bytes: params.ciphertext_bytes(),
        useful_input_slots: geo.useful_input_slots,
        useful_output_slots: geo.useful_input_slots,
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
    fn blocking_cases() {
        // C_o >= C_i: split lanes, diagonals over per-lane blocks
        let b = blocking(4, 16);
        assert!(b.split);
        assert_eq!(b.lane_blocks, 2);
        assert_eq!(b.out_groups, 4);
        assert_eq!(b.diagonals, 2);
        assert!(b.fold_steps.is_empty());
        // C_o < C_i: per-lane folding
        let b = blocking(16, 4);
        assert_eq!(b.lane_blocks, 8);
        assert_eq!(b.out_groups, 1);
        assert_eq!(b.diagonals, 4);
        assert_eq!(b.fold_steps, vec![4]);
        // C_o == C_i
        let b = blocking(8, 8);
        assert_eq!(b.out_groups, 1);
        assert_eq!(b.diagonals, 4);
        assert!(b.fold_steps.is_empty());
        // single-channel input stays lane-contained
        let b = blocking(1, 4);
        assert!(!b.split);
        assert_eq!(b.lane_blocks, 1);
    }

    #[test]
    fn spot_tweaked_matches_reference() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(1000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(4, 8, 8, 8, 11);
        let kernel = Kernel::random(4, 4, 3, 3, 4, 12);
        let res = execute(
            &ctx,
            &kg,
            &input,
            &kernel,
            1,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        );
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn spot_co_greater_than_ci() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(2000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(2, 8, 8, 8, 21);
        let kernel = Kernel::random(8, 2, 3, 3, 4, 22);
        let res = execute(
            &ctx,
            &kg,
            &input,
            &kernel,
            1,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        );
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn spot_co_less_than_ci_folding() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(3000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(8, 8, 8, 8, 31);
        let kernel = Kernel::random(2, 8, 3, 3, 4, 32);
        let res = execute(
            &ctx,
            &kg,
            &input,
            &kernel,
            1,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        );
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn spot_1x1_kernel() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(4000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(4, 8, 8, 8, 41);
        let kernel = Kernel::random(8, 4, 1, 1, 4, 42);
        let res = execute(
            &ctx,
            &kg,
            &input,
            &kernel,
            1,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        );
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn spot_vanilla_mode() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(5000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(2, 8, 8, 8, 51);
        let kernel = Kernel::random(2, 2, 3, 3, 4, 52);
        let res = execute(
            &ctx,
            &kg,
            &input,
            &kernel,
            1,
            (4, 4),
            PatchMode::Vanilla,
            &mut rng,
        );
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn spot_stride_2() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(6000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(2, 8, 8, 8, 61);
        let kernel = Kernel::random(2, 2, 3, 3, 4, 62);
        let res = execute(
            &ctx,
            &kg,
            &input,
            &kernel,
            2,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        );
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 2));
    }

    #[test]
    fn geometry_counts() {
        let shape = ConvShape::new(8, 8, 4, 4, 3, 1);
        let geo = geometry(&shape, ParamLevel::N4096, (4, 4), PatchMode::Tweaked);
        // classes: 9 patches, 6 vsegs, 6 hsegs, 4 corners
        assert_eq!(geo.class_cts.len(), 4);
        assert_eq!(geo.class_cts[0].0, 9);
        assert!(geo.input_cts >= 1);
        assert_eq!(geo.output_cts, geo.input_cts * geo.blocking.out_groups);
    }

    #[test]
    fn plan_streams_per_input() {
        let shape = ConvShape::new(16, 16, 16, 16, 3, 1);
        let p = plan(&shape, ParamLevel::N4096, (4, 4), PatchMode::Tweaked, true);
        assert_eq!(p.dependency, OutputDependency::PerInput);
        assert_eq!(p.finalize_ops, OpCounts::default());
        assert!(p.assembly_elements > 0);
    }
}
