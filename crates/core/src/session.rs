//! Client/server session state machines over the typed wire protocol.
//!
//! This module splits every secure-convolution scheme into two halves
//! that talk *only* through a [`Transport`]:
//!
//! * [`ClientConv`] — the tiny client: packs and encrypts the input,
//!   streams ciphertexts up, then decrypts the masked results into its
//!   additive shares ([`ClientConv::send_all`] /
//!   [`ClientConv::absorb_all`]).
//! * [`serve_conv`] — the server: reads the [`ConvSetup`] hello,
//!   validates the client's rotation keys, convolves under HE (phased
//!   or streamed per [`ExecBackend`]), and returns masked results while
//!   keeping its own additive shares.
//!
//! A session carries a batch of `B ≥ 1` images; a one-image session is
//! the degenerate batch, byte-identical on the wire to the pre-batching
//! protocol. The same session code runs over [`MemTransport`]
//! (in-process, through [`run_in_process`]) and `TcpTransport` (two
//! real OS processes) — messages, byte counts, and shares are identical
//! by construction.
//!
//! # Determinism contract
//!
//! Each party draws randomness from its own seeded rng in a fixed
//! order: the client draws its public key, then rotation keys, then
//! every encryption in upload order; the server draws only result
//! masks, in result order (the streaming consumer runs on one thread
//! in index order), after one per-image seed each when `B > 1`.
//! Parallel phases are pure. Shares are therefore bit-identical across
//! backends, thread counts, channel capacities, and transports.

use crate::channelwise::{self, SecureConvResult};
use crate::cheetah;
use crate::error::SpotError;
use crate::executor::Executor;
use crate::heconv::{
    required_elements, ChannelMap, ConvRequest, GroupSpec, HeConvEngine, KernelCache,
};
use crate::layout::{pack_pieces, pack_pieces_split, LaneLayout};
use crate::patching::{decompose, Decomposition, PatchMode};
use crate::spot::{self, Blocking};
use crate::stream::{run_stream, run_stream_barrier, StreamConfig, StreamStats};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use spot_he::ciphertext::Ciphertext;
use spot_he::context::Context;
use spot_he::encoding::{BatchEncoder, BatchLayout, Plaintext};
use spot_he::encryptor::{Decryptor, Encryptor};
use spot_he::evaluator::{Evaluator, OpCounts};
use spot_he::keys::{GaloisKeys, KeyGenerator};
use spot_he::params::ParamLevel;
use spot_he::serial::{galois_keys_from_bytes, galois_keys_to_bytes};
use spot_proto::channel::TrafficStats;
use spot_proto::{ConvSetup, MemTransport, Transport, WireMessage};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use spot_trace::Cat;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Typed layer specification ↔ wire setup
// ---------------------------------------------------------------------

/// The secure-convolution scheme a session runs (wire discriminants
/// match [`ConvSetup::scheme`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// CrypTFlow2/GAZELLE-style channel-wise packing.
    Channelwise,
    /// Cheetah-style coefficient encoding.
    Cheetah,
    /// SPOT structure patching.
    Spot,
}

impl SchemeKind {
    /// Wire discriminant.
    pub fn code(self) -> u8 {
        match self {
            SchemeKind::Channelwise => 0,
            SchemeKind::Cheetah => 1,
            SchemeKind::Spot => 2,
        }
    }

    /// Parses a wire discriminant.
    pub fn from_code(code: u8) -> Result<Self, SpotError> {
        match code {
            0 => Ok(SchemeKind::Channelwise),
            1 => Ok(SchemeKind::Cheetah),
            2 => Ok(SchemeKind::Spot),
            other => Err(SpotError::Protocol(format!("unknown scheme code {other}"))),
        }
    }

    /// Human-readable name (used for trace span labels).
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Channelwise => "channelwise",
            SchemeKind::Cheetah => "cheetah",
            SchemeKind::Spot => "spot",
        }
    }
}

fn mode_code(mode: PatchMode) -> u8 {
    match mode {
        PatchMode::Vanilla => 0,
        PatchMode::Tweaked => 1,
    }
}

fn mode_from_code(code: u8) -> Result<PatchMode, SpotError> {
    match code {
        0 => Ok(PatchMode::Vanilla),
        1 => Ok(PatchMode::Tweaked),
        other => Err(SpotError::Protocol(format!(
            "unknown patch mode code {other}"
        ))),
    }
}

fn level_code(level: ParamLevel) -> u8 {
    (level.degree().trailing_zeros() as u8) - 11
}

fn level_from_code(code: u8) -> Result<ParamLevel, SpotError> {
    if code > 8 {
        return Err(SpotError::Protocol(format!(
            "unknown parameter level code {code}"
        )));
    }
    ParamLevel::ALL
        .into_iter()
        .find(|l| l.degree() == 1usize << (11 + code as usize))
        .ok_or_else(|| SpotError::Protocol(format!("unknown parameter level code {code}")))
}

/// One convolution layer as the session layer sees it: scheme, shape,
/// and (for SPOT) the patch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerSpec {
    /// Scheme to run.
    pub scheme: SchemeKind,
    /// Layer shape (input dims, channels, kernel, stride).
    pub shape: ConvShape,
    /// SPOT main patch size `(ph, pw)`; ignored by the baselines.
    pub patch: (usize, usize),
    /// SPOT decomposition mode; ignored by the baselines.
    pub mode: PatchMode,
}

/// Largest accepted dimension in a [`ConvSetup`] (defensive bound so a
/// hostile hello cannot trigger huge allocations).
const MAX_DIM: u32 = 1 << 14;

impl LayerSpec {
    /// Encodes the spec as the wire hello for `level`.
    pub fn to_setup(&self, level: ParamLevel) -> ConvSetup {
        let spot = self.scheme == SchemeKind::Spot;
        ConvSetup {
            scheme: self.scheme.code(),
            mode: if spot { mode_code(self.mode) } else { 0 },
            level: level_code(level),
            // 0 keeps unbatched hellos byte-identical to the
            // pre-batching wire format (the byte was reserved-zero);
            // batched uploads overwrite it with the batch width.
            batch: 0,
            h: self.shape.height as u32,
            w: self.shape.width as u32,
            c_in: self.shape.c_in as u32,
            c_out: self.shape.c_out as u32,
            k_h: self.shape.k_h as u32,
            k_w: self.shape.k_w as u32,
            stride: self.shape.stride as u32,
            patch_h: if spot { self.patch.0 as u32 } else { 0 },
            patch_w: if spot { self.patch.1 as u32 } else { 0 },
            // 0 keeps the hello byte-identical to the pre-trace layout;
            // senders overwrite it with a wire trace id when wire trace
            // context is enabled.
            trace: 0,
        }
    }

    /// Decodes and validates a wire hello.
    pub fn from_setup(setup: &ConvSetup) -> Result<(Self, ParamLevel), SpotError> {
        let scheme = SchemeKind::from_code(setup.scheme)?;
        let level = level_from_code(setup.level)?;
        for (name, v) in [
            ("h", setup.h),
            ("w", setup.w),
            ("c_in", setup.c_in),
            ("c_out", setup.c_out),
            ("k_h", setup.k_h),
            ("k_w", setup.k_w),
            ("stride", setup.stride),
        ] {
            if v == 0 || v > MAX_DIM {
                return Err(SpotError::Protocol(format!(
                    "setup field {name} = {v} out of range 1..={MAX_DIM}"
                )));
            }
        }
        let (patch, mode) = if scheme == SchemeKind::Spot {
            for (name, v) in [("patch_h", setup.patch_h), ("patch_w", setup.patch_w)] {
                if v == 0 || v > MAX_DIM {
                    return Err(SpotError::Protocol(format!(
                        "setup field {name} = {v} out of range 1..={MAX_DIM}"
                    )));
                }
            }
            (
                (setup.patch_h as usize, setup.patch_w as usize),
                mode_from_code(setup.mode)?,
            )
        } else {
            ((0, 0), PatchMode::Vanilla)
        };
        let shape = ConvShape {
            width: setup.w as usize,
            height: setup.h as usize,
            c_in: setup.c_in as usize,
            c_out: setup.c_out as usize,
            k_h: setup.k_h as usize,
            k_w: setup.k_w as usize,
            stride: setup.stride as usize,
        };
        Ok((
            LayerSpec {
                scheme,
                shape,
                patch,
                mode,
            },
            level,
        ))
    }
}

// ---------------------------------------------------------------------
// Shared layer plan (both parties derive the same structure)
// ---------------------------------------------------------------------

/// Scheme-specific packing structure derived identically by both
/// parties from the [`LayerSpec`] alone (SPOT's piece structure depends
/// only on spatial dims, so a one-channel probe decomposition serves).
enum PlanDetail {
    Channelwise {
        geo: channelwise::ChannelwiseGeometry,
        layout: LaneLayout,
        groups: Vec<GroupSpec>,
    },
    Cheetah {
        geo: cheetah::CheetahGeometry,
    },
    Spot {
        blk: Blocking,
        probe: Decomposition,
        layouts: Vec<LaneLayout>,
        /// Ciphertexts per class, classes in decomposition order.
        class_cts: Vec<usize>,
        groups: Vec<GroupSpec>,
        in_maps: Vec<ChannelMap>,
        input_cts: usize,
    },
}

fn plan_layer(spec: &LayerSpec, level: ParamLevel) -> Result<PlanDetail, SpotError> {
    let shape = &spec.shape;
    let lane = level.degree() / 2;
    match spec.scheme {
        SchemeKind::Channelwise => {
            if crate::layout::next_pow2(shape.width * shape.height) > lane {
                return Err(SpotError::Protocol(format!(
                    "channel of {}x{} does not fit a lane of {lane} slots",
                    shape.height, shape.width
                )));
            }
            let geo = channelwise::geometry(shape, level);
            let layout = LaneLayout::new(lane, geo.blocks_per_lane, shape.height, shape.width);
            let groups = (0..geo.output_cts)
                .map(|k| channelwise::group_spec(&geo, k, shape.c_out))
                .collect();
            Ok(PlanDetail::Channelwise {
                geo,
                layout,
                groups,
            })
        }
        SchemeKind::Cheetah => {
            let geo = cheetah::geometry(shape, level);
            if geo.channel_coeffs > level.degree() {
                return Err(SpotError::Protocol(format!(
                    "feature map does not fit the ring at {level}"
                )));
            }
            Ok(PlanDetail::Cheetah { geo })
        }
        SchemeKind::Spot => {
            let blk = spot::blocking(shape.c_in, shape.c_out);
            // Piece structure depends only on spatial dims: probe with a
            // single zero channel (both parties derive it identically).
            let probe = decompose(
                &Tensor::zeros(1, shape.height, shape.width),
                spec.patch.0,
                spec.patch.1,
                shape.k_h,
                spec.mode,
            );
            let mut layouts = Vec::with_capacity(probe.classes.len());
            let mut class_cts = Vec::with_capacity(probe.classes.len());
            let mut input_cts = 0usize;
            for (class, pieces) in &probe.classes {
                if blk.ci_pad * crate::layout::next_pow2(class.h * class.w) > lane {
                    return Err(SpotError::Protocol(format!(
                        "piece of {}x{} with {} padded channels does not fit a lane of {lane} slots",
                        class.h, class.w, blk.ci_pad
                    )));
                }
                let layout = LaneLayout::new(lane, blk.lane_blocks, class.h, class.w);
                let per_ct = if blk.split {
                    layout.groups
                } else {
                    2 * layout.groups
                };
                let cts = pieces.len().div_ceil(per_ct);
                class_cts.push(cts);
                input_cts += cts;
                layouts.push(layout);
            }
            let groups = spot::spot_group_specs(&blk, shape.c_out);
            let in_maps = spot::spot_in_maps(&blk, shape.c_in);
            Ok(PlanDetail::Spot {
                blk,
                probe,
                layouts,
                class_cts,
                groups,
                in_maps,
                input_cts,
            })
        }
    }
}

/// Galois elements the server will need for this layer (empty for
/// Cheetah's rotation-free products).
fn galois_elements(spec: &LayerSpec, detail: &PlanDetail) -> Vec<usize> {
    let shape = &spec.shape;
    match detail {
        PlanDetail::Channelwise { geo, layout, .. } => required_elements(
            layout,
            shape.k_h,
            shape.k_w,
            geo.blocks_per_lane,
            geo.output_cts,
            &[],
            geo.both_lanes,
            false,
        ),
        PlanDetail::Cheetah { .. } => Vec::new(),
        PlanDetail::Spot { blk, layouts, .. } => {
            let mut union = Vec::new();
            for layout in layouts {
                union.extend(required_elements(
                    layout,
                    shape.k_h,
                    shape.k_w,
                    blk.diagonals,
                    blk.out_groups,
                    &blk.fold_steps,
                    blk.split,
                    true,
                ));
            }
            union.sort_unstable();
            union.dedup();
            union
        }
    }
}

// ---------------------------------------------------------------------
// Cross-image batching structure
// ---------------------------------------------------------------------

/// Largest batch width the wire hello can carry.
const MAX_BATCH: usize = u8::MAX as usize;

/// Batch layout for channel-wise packing: one image occupies group
/// position 0 across both lanes and every channel block, so every
/// further group position can carry another queued image.
fn channelwise_batch_layout(layout: &LaneLayout) -> BatchLayout {
    BatchLayout::new(
        layout.lane_size,
        layout.blocks,
        layout.groups,
        layout.piece_slots,
        1,
        false,
    )
}

/// Batch layout for one SPOT piece class: an image's pieces occupy the
/// first `pieces` positions of the class ciphertext (lane-major whole
/// pieces, or one group per piece when channels split across lanes).
/// When the class spills over several ciphertexts (`pieces` exceeds the
/// position count), each ciphertext is fully occupied by the single
/// image, so the stride clamps to the whole position space: capacity 1,
/// pack/unpack the identity. [`plan_batch_capacity`] independently
/// forces batch 1 for such layers.
fn spot_batch_layout(blk: &Blocking, layout: &LaneLayout, pieces: usize) -> BatchLayout {
    let positions = if blk.split {
        layout.groups
    } else {
        2 * layout.groups
    };
    BatchLayout::new(
        layout.lane_size,
        layout.blocks,
        layout.groups,
        layout.piece_slots,
        pieces.clamp(1, positions),
        !blk.split,
    )
}

/// How many queued images one session can coalesce into shared
/// ciphertexts. The masked kernel plaintexts already confine every
/// group position's convolution to its own piece region, so spare
/// positions carry further images with the per-batch rotation and
/// key-switch counts unchanged. Cheetah's coefficient packing shares
/// no slots; its batches run as sequential images inside one session,
/// bounded only by the wire field.
fn plan_batch_capacity(detail: &PlanDetail) -> usize {
    match detail {
        PlanDetail::Channelwise { layout, .. } => {
            channelwise_batch_layout(layout).capacity().min(MAX_BATCH)
        }
        PlanDetail::Cheetah { .. } => MAX_BATCH,
        PlanDetail::Spot {
            blk,
            probe,
            layouts,
            class_cts,
            ..
        } => {
            let mut cap = MAX_BATCH;
            for (ci, (_class, pieces)) in probe.classes.iter().enumerate() {
                if pieces.is_empty() {
                    continue;
                }
                if class_cts[ci] != 1 {
                    // A class spilling over one ciphertext has no spare
                    // positions to scatter another image into.
                    return 1;
                }
                cap = cap.min(spot_batch_layout(blk, &layouts[ci], pieces.len()).capacity());
            }
            cap.max(1)
        }
    }
}

// ---------------------------------------------------------------------
// Execution backend
// ---------------------------------------------------------------------

/// How a secure convolution's server work is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// Two sequential phases: receive every ciphertext, then fan the
    /// convolutions across the executor pool.
    Phased(Executor),
    /// Real pipelining via [`crate::stream`]: uploads stream through a
    /// bounded channel overlapped with server convolution.
    Streaming(StreamConfig),
}

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

fn msg_name(msg: &WireMessage) -> &'static str {
    match msg {
        WireMessage::Setup(_) => "Setup",
        WireMessage::PublicKey(_) => "PublicKey",
        WireMessage::GaloisKeys(_) => "GaloisKeys",
        WireMessage::PackedCt { .. } => "PackedCt",
        WireMessage::AuxCt { .. } => "AuxCt",
        WireMessage::MaskedResult { .. } => "MaskedResult",
        WireMessage::OtRound { .. } => "OtRound",
        WireMessage::ShareReveal { .. } => "ShareReveal",
        WireMessage::LayerBarrier { .. } => "LayerBarrier",
        WireMessage::Teardown => "Teardown",
        WireMessage::Error { .. } => "Error",
        WireMessage::ClockProbe { .. } => "ClockProbe",
    }
}

fn unexpected(got: &WireMessage, want: &str) -> SpotError {
    // A typed server rejection surfaces as itself rather than as a
    // generic wrong-message error, wherever the client was in its
    // receive loop when the rejection frame arrived.
    if let WireMessage::Error { code, detail } = got {
        return SpotError::Rejected {
            code: *code,
            detail: detail.clone(),
        };
    }
    SpotError::Protocol(format!("expected {want}, got {}", msg_name(got)))
}

fn centered(v: u64, t: u64) -> i64 {
    if v > t / 2 {
        v as i64 - t as i64
    } else {
        v as i64
    }
}

/// Receives the serialized input ciphertext with global index `j`
/// (class 0 rides in `PackedCt`, SPOT seam classes in `AuxCt`),
/// validating class and sequence number but deferring deserialization
/// to the caller — SPOT's streaming worker decodes on the pool so the
/// ingest thread goes straight back to the socket.
fn recv_input_blob(
    transport: &dyn Transport,
    j: usize,
    want_class: usize,
) -> Result<Vec<u8>, SpotError> {
    let msg = transport.recv()?;
    let (class, seq, blob) = match msg {
        WireMessage::PackedCt { seq, blob } => (0usize, seq, blob),
        WireMessage::AuxCt { class, seq, blob } => (class as usize, seq, blob),
        other => return Err(unexpected(&other, "PackedCt/AuxCt")),
    };
    if class != want_class || seq as usize != j {
        return Err(SpotError::Protocol(format!(
            "input ciphertext out of order: got class {class} seq {seq}, want class {want_class} seq {j}"
        )));
    }
    Ok(blob)
}

/// [`recv_input_blob`] plus immediate deserialization, for the phased
/// and all-input (barrier) paths where decode time is part of the
/// upload span anyway.
fn recv_input_ct(
    transport: &dyn Transport,
    ctx: &Arc<Context>,
    j: usize,
    want_class: usize,
) -> Result<Ciphertext, SpotError> {
    let blob = recv_input_blob(transport, j, want_class)?;
    Ok(Ciphertext::try_from_bytes(ctx, &blob)?)
}

fn draw_mask<R: Rng>(rng: &mut R, degree: usize, t: u64) -> Vec<u64> {
    (0..degree).map(|_| rng.gen_range(0..t)).collect()
}

/// One image's channel-wise packing for input ciphertext `j`: both
/// lanes, channel blocks at group position 0 (the single-image layout
/// [`channelwise_batch_layout`] interleaves into).
fn channelwise_image_slots(
    geo: &channelwise::ChannelwiseGeometry,
    layout: &LaneLayout,
    shape: &ConvShape,
    input: &Tensor,
    j: usize,
    t: u64,
    n: usize,
) -> Vec<u64> {
    let lane = n / 2;
    let mut slots = vec![0u64; n];
    let map = channelwise::channel_map(geo, j, shape.c_in);
    for (lane_idx, row) in map.iter().enumerate() {
        for (b, ch) in row.iter().enumerate() {
            let Some(c) = *ch else { continue };
            for y in 0..shape.height {
                for x in 0..shape.width {
                    slots[lane_idx * lane + layout.slot(b, 0, y, x)] =
                        input.at(c, y, x).rem_euclid(t as i64) as u64;
                }
            }
        }
    }
    slots
}

/// One image's Cheetah coefficient packing for the channel subset
/// `chunk`.
fn cheetah_chunk_coeffs(
    shape: &ConvShape,
    input: &Tensor,
    chunk: &[usize],
    t: u64,
    n: usize,
) -> Vec<u64> {
    let hp = shape.height + shape.k_h - 1;
    let wp = shape.width + shape.k_w - 1;
    let s_ch = hp * wp;
    let mut coeffs = vec![0u64; n];
    for (local, &c) in chunk.iter().enumerate() {
        for y in 0..shape.height {
            for x in 0..shape.width {
                coeffs[local * s_ch + y * wp + x] = input.at(c, y, x).rem_euclid(t as i64) as u64;
            }
        }
    }
    coeffs
}

// ---------------------------------------------------------------------
// Client session
// ---------------------------------------------------------------------

/// How the client paces its input upload relative to the server's
/// setup acknowledgement (the `LayerBarrier` the server sends once the
/// rotation keys are validated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UploadPacing {
    /// Push everything immediately. Correct for the phased in-process
    /// driver, where the server only starts consuming after the whole
    /// upload is queued (waiting for an ack would deadlock).
    Eager,
    /// Hold input ciphertexts until the server acknowledges the setup
    /// and keys. This keeps the upload inside the server's measured
    /// stall window — a tiny client cannot usefully transmit before
    /// the server is ready to consume, and pre-buffering would let the
    /// transport hide the upload span the stall accounting reports.
    AwaitAck,
}

/// Summary of a completed client upload phase.
#[derive(Debug, Clone, Copy)]
pub struct ClientSendSummary {
    /// Encryptions performed.
    pub encrypt: u64,
    /// Input ciphertexts sent.
    pub input_cts: usize,
}

/// The client's completed download phase: one additive output share
/// per image, in submission order.
#[derive(Debug, Clone)]
pub struct ClientBatchShare {
    /// Per-image additive shares of the (strided) output tensors.
    pub shares: Vec<Tensor>,
    /// Decryptions performed (per batch, not per image).
    pub decrypt: u64,
    /// Masked result ciphertexts absorbed (per batch, not per image).
    pub output_cts: usize,
}

/// Client half of one secure-convolution layer over a batch of
/// `B ≥ 1` images.
///
/// Construct once per layer, then drive the two phases:
/// [`ClientConv::send_all`] (hello, keys, encrypted upload) and
/// [`ClientConv::absorb_all`] (masked results → one additive share per
/// image). The halves are independent, so over a socket transport they
/// can run on two threads to overlap upload with download.
pub struct ClientConv<'a> {
    ctx: Arc<Context>,
    keygen: &'a KeyGenerator,
    spec: LayerSpec,
    detail: PlanDetail,
    elements: Vec<usize>,
}

impl<'a> ClientConv<'a> {
    /// Plans the layer client-side.
    pub fn new(
        ctx: &Arc<Context>,
        keygen: &'a KeyGenerator,
        spec: LayerSpec,
    ) -> Result<Self, SpotError> {
        let detail = plan_layer(&spec, ctx.params().level())?;
        let elements = galois_elements(&spec, &detail);
        Ok(Self {
            ctx: Arc::clone(ctx),
            keygen,
            spec,
            detail,
            elements,
        })
    }

    /// Input ciphertexts the upload of a `batch`-image session sends:
    /// the slot-packed schemes share theirs across the batch, Cheetah
    /// sends one set per image.
    pub fn input_cts(&self, batch: usize) -> usize {
        match &self.detail {
            PlanDetail::Channelwise { geo, .. } => geo.input_cts,
            PlanDetail::Cheetah { geo } => batch * geo.input_cts,
            PlanDetail::Spot { input_cts, .. } => *input_cts,
        }
    }

    /// Masked result ciphertexts the download of a `batch`-image
    /// session expects (shared or per image as in
    /// [`ClientConv::input_cts`]).
    pub fn output_cts(&self, batch: usize) -> usize {
        match &self.detail {
            PlanDetail::Channelwise { geo, .. } => geo.output_cts,
            PlanDetail::Cheetah { .. } => batch * self.spec.shape.c_out,
            PlanDetail::Spot { blk, input_cts, .. } => input_cts * blk.out_groups,
        }
    }

    /// How many queued images this layer can coalesce into one session:
    /// the spare SIMD-slot positions of the layer's packing (Cheetah
    /// batches as sequential images bounded only by the wire field).
    pub fn batch_capacity(&self) -> usize {
        plan_batch_capacity(&self.detail)
    }

    /// Rejects a batch width this layer cannot carry in one session.
    fn check_batch(&self, batch: usize) -> Result<(), SpotError> {
        let cap = self.batch_capacity();
        if batch == 0 || batch > cap {
            return Err(SpotError::Protocol(format!(
                "batch of {batch} images outside layer capacity 1..={cap}"
            )));
        }
        Ok(())
    }

    /// Upload phase: sends the layer hello, public-key-independent
    /// rotation keys, and every packed input ciphertext of the batch.
    /// The slot-packed schemes interleave every image's packing into
    /// the same ciphertexts ([`BatchLayout::pack_images`]), so the
    /// upload — and the server's rotations and key-switches — stay
    /// those of one image; Cheetah sends the images in sequence.
    ///
    /// Draws the public key first, then rotation keys, then encryptions
    /// in upload order — the canonical client rng sequence. A one-image
    /// batch leaves the hello's reserved `batch` byte at 0, so its wire
    /// bytes are those of the pre-batching protocol. With
    /// [`UploadPacing::AwaitAck`] the input ciphertexts are held until
    /// the server's setup acknowledgement arrives on the downlink.
    pub fn send_all<R: Rng>(
        &self,
        transport: &dyn Transport,
        inputs: &[Tensor],
        pacing: UploadPacing,
        rng: &mut R,
    ) -> Result<ClientSendSummary, SpotError> {
        let batch = inputs.len();
        self.check_batch(batch)?;
        // When wire trace context is on, the hello carries a trace id
        // that the server echoes into its serve span — the merge tool
        // pairs the two layer spans by this value.
        let trace_id = spot_trace::next_wire_trace_id();
        let mut span = spot_trace::span_owned(Cat::Session, || {
            format!("send_all {}", self.spec.scheme.name())
        })
        .arg("input_cts", self.input_cts(batch) as u64);
        if trace_id != 0 {
            span = span.arg("trace", trace_id);
        }
        let _span = span;
        let shape = &self.spec.shape;
        for input in inputs {
            if input.channels() != shape.c_in
                || input.height() != shape.height
                || input.width() != shape.width
            {
                return Err(SpotError::Protocol(format!(
                    "input tensor {}x{}x{} does not match layer spec {}x{}x{}",
                    input.channels(),
                    input.height(),
                    input.width(),
                    shape.c_in,
                    shape.height,
                    shape.width
                )));
            }
        }
        let mut setup = self.spec.to_setup(self.ctx.params().level());
        setup.batch = if batch == 1 { 0 } else { batch as u8 };
        setup.trace = trace_id;
        transport.send(&WireMessage::Setup(setup))?;
        let encryptor = Encryptor::new(&self.ctx, self.keygen.public_key(rng));
        if !self.elements.is_empty() {
            let gk = self.keygen.galois_keys(&self.elements, rng);
            transport.send(&WireMessage::GaloisKeys(galois_keys_to_bytes(&gk)))?;
        }
        if pacing == UploadPacing::AwaitAck {
            let msg = transport.recv()?;
            let WireMessage::LayerBarrier { .. } = msg else {
                return Err(unexpected(&msg, "LayerBarrier"));
            };
        }
        let t = self.ctx.params().plain_modulus();
        let n = self.ctx.degree();
        let mut encrypt = 0u64;
        let mut seq = 0u32;
        // Encrypts one packed plaintext and sends it as the next input
        // ciphertext of `class` (class 0 rides in `PackedCt`, SPOT seam
        // classes in `AuxCt`).
        let mut upload = |plain: &Plaintext, class: usize| -> Result<(), SpotError> {
            let blob = encryptor.encrypt(plain, rng).to_bytes();
            encrypt += 1;
            let msg = if class == 0 {
                WireMessage::PackedCt { seq, blob }
            } else {
                WireMessage::AuxCt {
                    class: class as u16,
                    seq,
                    blob,
                }
            };
            transport.send(&msg)?;
            seq += 1;
            Ok(())
        };
        match &self.detail {
            PlanDetail::Channelwise { geo, layout, .. } => {
                let encoder = BatchEncoder::new(&self.ctx);
                let blayout = channelwise_batch_layout(layout);
                for j in 0..geo.input_cts {
                    let rows: Vec<Vec<u64>> = inputs
                        .iter()
                        .map(|img| channelwise_image_slots(geo, layout, shape, img, j, t, n))
                        .collect();
                    upload(&encoder.encode(&blayout.pack_images(&rows)), 0)?;
                }
            }
            PlanDetail::Cheetah { geo } => {
                // Coefficient packing shares no slots: a batch is the
                // images in sequence over one session (keys and setup
                // amortize; rotations are already zero here).
                let all_channels: Vec<usize> = (0..shape.c_in).collect();
                for img in inputs {
                    for chunk in all_channels.chunks(geo.channels_per_ct) {
                        let coeffs = cheetah_chunk_coeffs(shape, img, chunk, t, n);
                        upload(&Plaintext::from_coeffs(coeffs), 0)?;
                    }
                }
            }
            PlanDetail::Spot {
                blk,
                probe,
                layouts,
                class_cts,
                ..
            } => {
                let encoder = BatchEncoder::new(&self.ctx);
                let decomps: Vec<Decomposition> = inputs
                    .iter()
                    .map(|img| {
                        decompose(
                            img,
                            self.spec.patch.0,
                            self.spec.patch.1,
                            shape.k_h,
                            self.spec.mode,
                        )
                    })
                    .collect();
                // Pack one class for every image, then encrypt and send
                // it before packing the next, so the first ciphertext
                // leaves as early as possible. A batch of several images
                // only runs on layers whose classes fit one ciphertext
                // (see `plan_batch_capacity`).
                for (ci, (_class, pieces)) in probe.classes.iter().enumerate() {
                    let layout = &layouts[ci];
                    let blayout = spot_batch_layout(blk, layout, pieces.len());
                    let mut packed: Vec<_> = decomps
                        .iter()
                        .map(|d| {
                            let pieces = &d.classes[ci].1;
                            if blk.split {
                                pack_pieces_split(layout, pieces, t)
                            } else {
                                pack_pieces(layout, pieces, t)
                            }
                            .into_iter()
                        })
                        .collect();
                    for _ in 0..class_cts[ci] {
                        let rows: Vec<Vec<u64>> = packed
                            .iter_mut()
                            .map(|cts| cts.next().expect("class ciphertext per image"))
                            .collect();
                        upload(&encoder.encode(&blayout.pack_images(&rows)), ci)?;
                    }
                }
            }
        }
        Ok(ClientSendSummary {
            encrypt,
            input_cts: seq as usize,
        })
    }

    /// Download phase: receives every masked result, decrypts, and
    /// assembles each image's additive share — demultiplexing its slot
    /// positions ([`BatchLayout::unpack_image`]) first for the
    /// slot-packed schemes. `batch` is the uploaded batch width. Needs
    /// no randomness, so it can run concurrently with
    /// [`ClientConv::send_all`] over a socket transport.
    pub fn absorb_all(
        &self,
        transport: &dyn Transport,
        batch: usize,
    ) -> Result<ClientBatchShare, SpotError> {
        self.check_batch(batch)?;
        let expected = self.output_cts(batch);
        let _span = spot_trace::span_owned(Cat::Session, || {
            format!("absorb_all {}", self.spec.scheme.name())
        })
        .arg("output_cts", expected as u64)
        .arg("batch", batch as u64);
        let (mut decoded, decrypt) = self.receive_decoded(transport, expected)?;
        let shares = match &self.detail {
            PlanDetail::Channelwise { layout, .. } => {
                let blayout = channelwise_batch_layout(layout);
                (0..batch)
                    .map(|b| {
                        let mut img: Vec<Vec<u64>> = decoded
                            .iter()
                            .map(|row| blayout.unpack_image(row, b))
                            .collect();
                        self.share_from_decoded(&mut img)
                    })
                    .collect()
            }
            // Sequential images: every image has its own result cts.
            PlanDetail::Cheetah { .. } => decoded
                .chunks_mut(self.spec.shape.c_out)
                .map(|img| self.share_from_decoded(img))
                .collect(),
            PlanDetail::Spot {
                blk,
                probe,
                layouts,
                class_cts,
                groups,
                ..
            } => {
                let blayouts: Vec<BatchLayout> = layouts
                    .iter()
                    .zip(&probe.classes)
                    .map(|(lay, (_class, pieces))| spot_batch_layout(blk, lay, pieces.len()))
                    .collect();
                let out_groups = groups.len();
                // Result row index → class, mirroring the send order:
                // each class ct contributes `out_groups` result rows.
                let row_class: Vec<usize> = class_cts
                    .iter()
                    .enumerate()
                    .flat_map(|(ci, &cnt)| std::iter::repeat_n(ci, cnt * out_groups))
                    .collect();
                (0..batch)
                    .map(|b| {
                        let mut img: Vec<Vec<u64>> = decoded
                            .iter()
                            .enumerate()
                            .map(|(row, values)| blayouts[row_class[row]].unpack_image(values, b))
                            .collect();
                        self.share_from_decoded(&mut img)
                    })
                    .collect()
            }
        };
        Ok(ClientBatchShare {
            shares,
            decrypt,
            output_cts: expected,
        })
    }

    /// Receives `expected` masked results (any order, validated by
    /// sequence number), decrypts and decodes each into its slot/coeff
    /// values. Returns the rows in sequence order plus the decryption
    /// count.
    fn receive_decoded(
        &self,
        transport: &dyn Transport,
        expected: usize,
    ) -> Result<(Vec<Vec<u64>>, u64), SpotError> {
        let decryptor = Decryptor::new(&self.ctx, self.keygen.secret_key().clone());
        let coeff_encoded = matches!(self.detail, PlanDetail::Cheetah { .. });
        let encoder = BatchEncoder::new(&self.ctx);
        let mut decoded: Vec<Option<Vec<u64>>> = vec![None; expected];
        let mut decrypt = 0u64;
        // An eagerly-pacing client never consumed the server's setup
        // acknowledgement during `send_all`; it is the first downlink
        // message, ahead of the masked results.
        let mut first = Some(transport.recv()?);
        if matches!(first, Some(WireMessage::LayerBarrier { .. })) {
            first = None;
        }
        for _ in 0..expected {
            let msg = match first.take() {
                Some(m) => m,
                None => transport.recv()?,
            };
            let WireMessage::MaskedResult { seq, blob } = msg else {
                return Err(unexpected(&msg, "MaskedResult"));
            };
            let slot = decoded
                .get_mut(seq as usize)
                .ok_or_else(|| {
                    SpotError::Protocol(format!(
                        "result seq {seq} out of range (expected {expected} results)"
                    ))
                })?
                .as_mut();
            if slot.is_some() {
                return Err(SpotError::Protocol(format!("duplicate result seq {seq}")));
            }
            let ct = Ciphertext::try_from_bytes(&self.ctx, &blob)?;
            let plain = decryptor.decrypt(&ct);
            decrypt += 1;
            let values = if coeff_encoded {
                plain.coeffs().to_vec()
            } else {
                encoder.decode(&plain)
            };
            decoded[seq as usize] = Some(values);
        }
        let decoded: Vec<Vec<u64>> = decoded
            .into_iter()
            .map(|d| d.expect("all sequence numbers seen"))
            .collect();
        Ok((decoded, decrypt))
    }

    /// Assembles one image's additive share from its decoded result
    /// rows (in sequence order; SPOT rows are consumed in place).
    fn share_from_decoded(&self, decoded: &mut [Vec<u64>]) -> Tensor {
        let t = self.ctx.params().plain_modulus();
        let shape = &self.spec.shape;
        let oh = shape.out_height();
        let ow = shape.out_width();
        match &self.detail {
            PlanDetail::Channelwise { layout, groups, .. } => {
                let lane = self.ctx.degree() / 2;
                let mut share = Tensor::zeros(shape.c_out, oh, ow);
                for (k, values) in decoded.iter().enumerate() {
                    for (lane_idx, row) in groups[k].out_ch.iter().enumerate() {
                        for (b, ch) in row.iter().enumerate() {
                            let Some(o) = *ch else { continue };
                            for y in 0..oh {
                                for x in 0..ow {
                                    let idx = lane_idx * lane
                                        + layout.slot(b, 0, y * shape.stride, x * shape.stride);
                                    *share.at_mut(o, y, x) = centered(values[idx], t);
                                }
                            }
                        }
                    }
                }
                share
            }
            PlanDetail::Cheetah { geo } => {
                let wp = shape.width + shape.k_w - 1;
                let s_ch = geo.channel_coeffs;
                let base = (geo.channels_per_ct - 1) * s_ch;
                let ph = (shape.k_h - 1) / 2;
                let pw = (shape.k_w - 1) / 2;
                let mut share = Tensor::zeros(shape.c_out, oh, ow);
                for (o, values) in decoded.iter().enumerate() {
                    for y in 0..oh {
                        for x in 0..ow {
                            let idx = base + (y * shape.stride + ph) * wp + (x * shape.stride + pw);
                            *share.at_mut(o, y, x) = centered(values[idx], t);
                        }
                    }
                }
                share
            }
            PlanDetail::Spot {
                blk,
                probe,
                layouts,
                class_cts,
                groups,
                ..
            } => {
                let out_groups = groups.len();
                let mut client_pieces: Vec<Tensor> = Vec::new();
                let mut j = 0usize;
                for (ci, (class, pieces)) in probe.classes.iter().enumerate() {
                    let mut group_slots: Vec<Vec<Vec<u64>>> = vec![Vec::new(); out_groups];
                    for _ in 0..class_cts[ci] {
                        for (g, gs) in group_slots.iter_mut().enumerate() {
                            gs.push(std::mem::take(&mut decoded[j * out_groups + g]));
                        }
                        j += 1;
                    }
                    client_pieces.extend(spot::unpack_class_share(
                        blk,
                        &layouts[ci],
                        pieces.len(),
                        class.h,
                        class.w,
                        shape.c_out,
                        t,
                        &group_slots,
                    ));
                }
                let full =
                    crate::patching::assemble(probe, &client_pieces, shape.height, shape.width);
                Tensor::from_fn(shape.c_out, oh, ow, |c, y, x| {
                    full.at(c, y * shape.stride, x * shape.stride)
                })
            }
        }
    }
}

// ---------------------------------------------------------------------
// Server session
// ---------------------------------------------------------------------

/// Per-model NTT-domain kernel caches, shared across every serving
/// session of that model and keyed by [`LayerSpec`]. Channel-wise
/// layers use a single [`KernelCache`] (the per-input `cache_tag`
/// already separates entries); SPOT layers use one per patch class
/// (each class runs `cache_tag = 0` against its own layout); Cheetah
/// caches nothing. Cache contents depend only on the layer geometry
/// and the model's kernel weights — no client key material — which is
/// what makes cross-session sharing safe.
#[derive(Debug, Default)]
pub struct SharedKernelCaches {
    by_layer: parking_lot::Mutex<HashMap<LayerSpec, Vec<KernelCache>>>,
}

impl SharedKernelCaches {
    /// An empty cache set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-class caches for `spec`, creating them on first use.
    /// Clones share storage, so every session of the model converges
    /// on the same lifted plaintexts.
    fn class_caches(&self, spec: &LayerSpec, classes: usize) -> Vec<KernelCache> {
        let mut map = self.by_layer.lock();
        let caches = map.entry(*spec).or_default();
        while caches.len() < classes {
            caches.push(KernelCache::new());
        }
        caches[..classes].to_vec()
    }

    /// Total cached kernel plaintext combinations across all layers.
    pub fn total_entries(&self) -> usize {
        self.by_layer
            .lock()
            .values()
            .flat_map(|caches| caches.iter())
            .map(KernelCache::len)
            .sum()
    }
}

/// Server-side knobs for one [`serve_conv_with`] call. The default is
/// exactly the single-tenant [`serve_conv`] behaviour: private caches,
/// no batch cap beyond the layer's SIMD capacity.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions<'a> {
    /// Model-wide kernel caches to share across sessions (`None` =
    /// build a fresh private cache for this call).
    pub shared: Option<&'a SharedKernelCaches>,
    /// Admission control: largest `Setup` batch this session's
    /// ciphertext-memory budget admits. A hello above it is refused
    /// with [`SpotError::Rejected`] (`error_code::OVER_BUDGET`) before
    /// any ciphertext is received, so the server never OOMs trying.
    pub max_batch: Option<usize>,
}

/// Outcome of one served convolution layer.
#[derive(Debug)]
pub struct ServerConvSummary {
    /// The server's additive share of each image's (strided) output
    /// tensor, in submission order.
    pub server_shares: Vec<Tensor>,
    /// HE operations performed on the server (per batch, not per
    /// image — slot batching leaves these unchanged as the batch
    /// width grows).
    pub counts: OpCounts,
    /// Input ciphertexts received.
    pub input_cts: usize,
    /// Masked result ciphertexts sent.
    pub output_cts: usize,
    /// Streaming stall accounting (None for the phased backend).
    pub stream: Option<StreamStats>,
}

/// Server half of one secure-convolution layer: reads the hello,
/// validates keys, convolves (phased or streamed), masks results back,
/// and keeps the server's additive share. Draws only result masks from
/// `rng`, in result order.
pub fn serve_conv<R: Rng>(
    ctx: &Arc<Context>,
    transport: &dyn Transport,
    kernel: &Kernel,
    backend: &ExecBackend,
    rng: &mut R,
) -> Result<ServerConvSummary, SpotError> {
    serve_conv_with(
        ctx,
        transport,
        kernel,
        backend,
        ServeOptions::default(),
        rng,
    )
}

/// [`serve_conv`] with serving-layer options: shared per-model kernel
/// caches and a per-session batch budget (see [`ServeOptions`]).
pub fn serve_conv_with<R: Rng>(
    ctx: &Arc<Context>,
    transport: &dyn Transport,
    kernel: &Kernel,
    backend: &ExecBackend,
    opts: ServeOptions<'_>,
    rng: &mut R,
) -> Result<ServerConvSummary, SpotError> {
    let msg = transport.recv()?;
    let WireMessage::Setup(setup) = msg else {
        return Err(unexpected(&msg, "Setup"));
    };
    let (spec, level) = LayerSpec::from_setup(&setup)?;
    let mut span = spot_trace::span_owned(Cat::Session, || {
        format!("serve_conv {}", spec.scheme.name())
    });
    if setup.trace != 0 {
        // Echo the client's wire trace id into this span so the merge
        // tool can pair the server layer with the client layer exactly.
        span = span.arg("trace", setup.trace);
    }
    let _span = span;
    if level != ctx.params().level() {
        return Err(SpotError::Protocol(format!(
            "client level {level} does not match server context {}",
            ctx.params().level()
        )));
    }
    let shape = &spec.shape;
    if kernel.out_channels() != shape.c_out
        || kernel.in_channels() != shape.c_in
        || kernel.k_h() != shape.k_h
        || kernel.k_w() != shape.k_w
    {
        return Err(SpotError::Protocol(format!(
            "kernel {}x{}x{}x{} does not match layer spec {}x{}x{}x{}",
            kernel.out_channels(),
            kernel.in_channels(),
            kernel.k_h(),
            kernel.k_w(),
            shape.c_out,
            shape.c_in,
            shape.k_h,
            shape.k_w
        )));
    }
    let detail = plan_layer(&spec, level)?;
    let batch = (setup.batch as usize).max(1);
    let cap = plan_batch_capacity(&detail);
    if batch > cap {
        return Err(SpotError::Protocol(format!(
            "batch of {batch} images exceeds layer capacity {cap}"
        )));
    }
    if let Some(max) = opts.max_batch {
        if batch > max {
            return Err(SpotError::Rejected {
                code: spot_proto::error_code::OVER_BUDGET,
                detail: format!(
                    "batch of {batch} images exceeds the session ciphertext budget ({max})"
                ),
            });
        }
    }
    let elements = galois_elements(&spec, &detail);
    let galois = if elements.is_empty() {
        Arc::new(GaloisKeys::default())
    } else {
        let msg = transport.recv()?;
        let WireMessage::GaloisKeys(blob) = msg else {
            return Err(unexpected(&msg, "GaloisKeys"));
        };
        let gk = galois_keys_from_bytes(ctx, &blob)?;
        for &e in &elements {
            if !gk.contains(e) {
                return Err(SpotError::Protocol(format!(
                    "client rotation keys miss required galois element {e}"
                )));
            }
        }
        Arc::new(gk)
    };
    // Flow control: acknowledge the setup + key material before the
    // client commits bandwidth to the upload. A paced client
    // ([`UploadPacing::AwaitAck`]) holds its input ciphertexts until
    // this arrives, so the upload lands inside the server's measured
    // stall window instead of pre-buffering in the transport while the
    // server is still deserializing rotation keys.
    transport.send(&WireMessage::LayerBarrier { layer: 0 })?;
    // One result-mask source per image. A one-image session draws its
    // masks straight from the session rng, the canonical mask-only
    // order. A batch first splits one rng per image off it (a fixed
    // `batch` draws, before any mask), so image `b`'s masks — and
    // therefore both parties' shares — are bit-identical to a one-image
    // run whose server rng was seeded with seed `b`.
    let mut image_rngs: Vec<StdRng>;
    let mut masks: Vec<&mut dyn RngCore> = if batch == 1 {
        vec![rng as &mut dyn RngCore]
    } else {
        image_rngs = (0..batch)
            .map(|_| StdRng::seed_from_u64(rng.gen()))
            .collect();
        image_rngs
            .iter_mut()
            .map(|r| r as &mut dyn RngCore)
            .collect()
    };
    // One kernel cache per patch class (channel-wise: a single class).
    // With `opts.shared` these come from the per-model pool, so every
    // session multiplies against the same lifted plaintexts.
    let classes = match &detail {
        PlanDetail::Channelwise { .. } => 1,
        PlanDetail::Cheetah { .. } => 0,
        PlanDetail::Spot { layouts, .. } => layouts.len(),
    };
    let caches: Vec<KernelCache> = match opts.shared {
        Some(shared) => shared.class_caches(&spec, classes),
        None => (0..classes).map(|_| KernelCache::new()).collect(),
    };
    // Live-registry serve latency, labeled by scheme. The Instant is
    // only taken when metrics are on, and only successful serves are
    // recorded — error paths would pollute the latency series.
    let serve_start = spot_trace::metrics::enabled().then(Instant::now);
    let result = match detail {
        PlanDetail::Channelwise {
            geo,
            layout,
            groups,
        } => serve_channelwise(
            ctx,
            transport,
            kernel,
            &spec,
            &geo,
            &layout,
            &groups,
            galois,
            caches.into_iter().next().expect("one channelwise cache"),
            backend,
            &mut masks,
        ),
        PlanDetail::Cheetah { geo } => {
            serve_cheetah(ctx, transport, kernel, &spec, &geo, backend, &mut masks)
        }
        PlanDetail::Spot {
            blk,
            probe,
            layouts,
            class_cts,
            groups,
            in_maps,
            input_cts,
        } => serve_spot(
            ctx, transport, kernel, &spec, &blk, &probe, &layouts, &class_cts, &groups, &in_maps,
            input_cts, galois, caches, backend, &mut masks,
        ),
    };
    if let (Some(t0), Ok(_)) = (serve_start, &result) {
        spot_trace::metrics::global()
            .histogram("spot_conv_serve_ns", &[("scheme", spec.scheme.name())])
            .record(t0.elapsed().as_nanos() as u64);
    }
    result
}

/// One result mask per image, drawn from each image's source in image
/// order.
fn draw_masks(masks: &mut [&mut dyn RngCore], degree: usize, t: u64) -> Vec<Vec<u64>> {
    masks.iter_mut().map(|r| draw_mask(r, degree, t)).collect()
}

#[allow(clippy::too_many_arguments)]
fn serve_channelwise(
    ctx: &Arc<Context>,
    transport: &dyn Transport,
    kernel: &Kernel,
    spec: &LayerSpec,
    geo: &channelwise::ChannelwiseGeometry,
    layout: &LaneLayout,
    groups: &[GroupSpec],
    galois: Arc<GaloisKeys>,
    cache: KernelCache,
    backend: &ExecBackend,
    masks: &mut [&mut dyn RngCore],
) -> Result<ServerConvSummary, SpotError> {
    let shape = &spec.shape;
    let engine = HeConvEngine::with_shared_cache(ctx, galois, false, cache);
    let mut counts = OpCounts::default();

    let conv_one = |j: usize, ct: &Ciphertext| {
        let map = channelwise::channel_map(geo, j, shape.c_in);
        let mut in_maps = vec![map.clone()];
        if geo.both_lanes {
            in_maps.push(vec![map[1].clone(), map[0].clone()]);
        }
        let mut c = OpCounts::default();
        let partials = engine.conv_one_ct(
            ct,
            &ConvRequest {
                layout,
                in_maps: &in_maps,
                groups,
                diagonals: geo.blocks_per_lane,
                fold_steps: &[],
                kernel,
                cache_tag: j,
            },
            &mut c,
        );
        (partials, c)
    };

    let (per_ct, stream) = match backend {
        ExecBackend::Phased(ex) => {
            let mut cts = Vec::with_capacity(geo.input_cts);
            for j in 0..geo.input_cts {
                cts.push(recv_input_ct(transport, ctx, j, 0)?);
            }
            (ex.run(&cts, |j, ct| conv_one(j, ct)), None)
        }
        ExecBackend::Streaming(cfg) => {
            let mut per_ct = Vec::with_capacity(geo.input_cts);
            let stats = run_stream_barrier(
                cfg,
                geo.input_cts,
                |feeder| {
                    for j in 0..geo.input_cts {
                        feeder.push(recv_input_ct(transport, ctx, j, 0)?)?;
                    }
                    Ok(())
                },
                |j, inputs: &[Ciphertext]| conv_one(j, &inputs[j]),
                |_, r| {
                    per_ct.push(r);
                    Ok(())
                },
            )?;
            (per_ct, Some(stats))
        }
    };

    // Cross-ciphertext accumulation in input order, as a serial run.
    let mut out_cts: Vec<Option<Ciphertext>> = vec![None; geo.output_cts];
    for (partials, c) in per_ct {
        counts.merge(&c);
        for (k, p) in partials.into_iter().enumerate() {
            match &mut out_cts[k] {
                None => out_cts[k] = Some(p),
                Some(acc) => {
                    engine.evaluator().add_inplace(acc, &p);
                    counts.add += 1;
                }
            }
        }
    }

    // Mask, send, and keep the server shares (masks in output order,
    // each image's from its own source; the shared ciphertext is masked
    // by their slot-scattered union).
    let t = ctx.params().plain_modulus();
    let lane = ctx.degree() / 2;
    let oh = shape.out_height();
    let ow = shape.out_width();
    let blayout = channelwise_batch_layout(layout);
    let mut shares = vec![Tensor::zeros(shape.c_out, oh, ow); masks.len()];
    for (k, maybe_ct) in out_cts.into_iter().enumerate() {
        let ct = maybe_ct
            .ok_or_else(|| SpotError::Protocol(format!("output group {k} produced no result")))?;
        let rs = draw_masks(masks, ctx.degree(), t);
        let masked = engine
            .evaluator()
            .sub_plain(&ct, &engine.encoder().encode(&blayout.scatter_masks(&rs)));
        counts.add += 1;
        transport.send(&WireMessage::MaskedResult {
            seq: k as u32,
            blob: masked.to_bytes(),
        })?;
        for (share, r) in shares.iter_mut().zip(&rs) {
            for (lane_idx, row) in groups[k].out_ch.iter().enumerate() {
                for (b, ch) in row.iter().enumerate() {
                    let Some(o) = *ch else { continue };
                    for y in 0..oh {
                        for x in 0..ow {
                            let idx = lane_idx * lane
                                + layout.slot(b, 0, y * shape.stride, x * shape.stride);
                            *share.at_mut(o, y, x) = r[idx] as i64;
                        }
                    }
                }
            }
        }
    }

    Ok(ServerConvSummary {
        server_shares: shares,
        counts,
        input_cts: geo.input_cts,
        output_cts: geo.output_cts,
        stream,
    })
}

fn serve_cheetah(
    ctx: &Arc<Context>,
    transport: &dyn Transport,
    kernel: &Kernel,
    spec: &LayerSpec,
    geo: &cheetah::CheetahGeometry,
    backend: &ExecBackend,
    masks: &mut [&mut dyn RngCore],
) -> Result<ServerConvSummary, SpotError> {
    let shape = &spec.shape;
    let evaluator = Evaluator::new(ctx);
    let n = ctx.degree();
    let t = ctx.params().plain_modulus();
    let wp = shape.width + shape.k_w - 1;
    let s_ch = geo.channel_coeffs;
    let chunk_cap = geo.channels_per_ct;
    let all_channels: Vec<usize> = (0..shape.c_in).collect();
    let chunks: Vec<&[usize]> = all_channels.chunks(chunk_cap).collect();
    let input_cts = chunks.len();
    let mut counts = OpCounts::default();

    // One output channel's ring product summed over every chunk.
    let product_for = |o: usize, inputs: &[Ciphertext]| {
        let mut c_local = OpCounts::default();
        let mut acc: Option<Ciphertext> = None;
        for (ci_idx, chunk) in chunks.iter().enumerate() {
            let mut wcoeffs = vec![0u64; n];
            for (local, &c) in chunk.iter().enumerate() {
                for u in 0..shape.k_h {
                    for v in 0..shape.k_w {
                        let w = kernel.at(o, c, u, v).rem_euclid(t as i64) as u64;
                        let idx = (chunk_cap - 1 - local) * s_ch
                            + (shape.k_h - 1 - u) * wp
                            + (shape.k_w - 1 - v);
                        wcoeffs[idx] = w;
                    }
                }
            }
            let prod = evaluator.multiply_plain(&inputs[ci_idx], &Plaintext::from_coeffs(wcoeffs));
            c_local.mult_plain += 1;
            match &mut acc {
                None => acc = Some(prod),
                Some(a) => {
                    evaluator.add_inplace(a, &prod);
                    c_local.add += 1;
                }
            }
        }
        (acc.expect("at least one chunk"), c_local)
    };

    let oh = shape.out_height();
    let ow = shape.out_width();
    let ph = (shape.k_h - 1) / 2;
    let pw = (shape.k_w - 1) / 2;
    let base = (chunk_cap - 1) * s_ch;
    // Masks the accumulated product for output channel `o`, sends it,
    // and records the server's share — masks strictly in `seq` order.
    let absorb = |seq: u32,
                  o: usize,
                  (out_ct, c_local): (Ciphertext, OpCounts),
                  counts: &mut OpCounts,
                  server_share: &mut Tensor,
                  mask: &mut &mut dyn RngCore|
     -> Result<(), SpotError> {
        counts.merge(&c_local);
        let r = draw_mask(mask, n, t);
        let masked = evaluator.sub_plain(&out_ct, &Plaintext::from_coeffs(r.clone()));
        counts.add += 1;
        transport.send(&WireMessage::MaskedResult {
            seq,
            blob: masked.to_bytes(),
        })?;
        for y in 0..oh {
            for x in 0..ow {
                let idx = base + (y * shape.stride + ph) * wp + (x * shape.stride + pw);
                *server_share.at_mut(o, y, x) = r[idx] as i64;
            }
        }
        Ok(())
    };

    // Coefficient packing shares no slots, so a batch is its images in
    // sequence over one session (sequence numbers keep counting); each
    // image's masks come from its own source.
    let batch = masks.len();
    let mut shares: Vec<Tensor> = Vec::with_capacity(batch);
    let mut stream_acc: Option<StreamStats> = None;
    for (b, mask) in masks.iter_mut().enumerate() {
        let mut share_b = Tensor::zeros(shape.c_out, oh, ow);
        let seq_in = b * input_cts;
        let seq_out = (b * shape.c_out) as u32;
        match backend {
            ExecBackend::Phased(ex) => {
                let mut cts = Vec::with_capacity(input_cts);
                for j in 0..input_cts {
                    cts.push(recv_input_ct(transport, ctx, seq_in + j, 0)?);
                }
                let out_channels: Vec<usize> = (0..shape.c_out).collect();
                let accumulated = ex.run(&out_channels, |_, &o| product_for(o, &cts));
                for (o, acc) in accumulated.into_iter().enumerate() {
                    absorb(seq_out + o as u32, o, acc, &mut counts, &mut share_b, mask)?;
                }
            }
            ExecBackend::Streaming(cfg) => {
                let counts_ref = &mut counts;
                let share_ref = &mut share_b;
                let stats = run_stream_barrier(
                    cfg,
                    shape.c_out,
                    |feeder| {
                        for j in 0..input_cts {
                            feeder.push(recv_input_ct(transport, ctx, seq_in + j, 0)?)?;
                        }
                        Ok(())
                    },
                    |o, inputs: &[Ciphertext]| product_for(o, inputs),
                    |o, acc| absorb(seq_out + o as u32, o, acc, counts_ref, share_ref, mask),
                )?;
                match &mut stream_acc {
                    None => stream_acc = Some(stats),
                    Some(acc) => acc.accumulate(&stats),
                }
            }
        }
        shares.push(share_b);
    }

    Ok(ServerConvSummary {
        server_shares: shares,
        counts,
        input_cts: batch * input_cts,
        output_cts: batch * shape.c_out,
        stream: stream_acc,
    })
}

#[allow(clippy::too_many_arguments)]
fn serve_spot(
    ctx: &Arc<Context>,
    transport: &dyn Transport,
    kernel: &Kernel,
    spec: &LayerSpec,
    blk: &Blocking,
    probe: &Decomposition,
    layouts: &[LaneLayout],
    class_cts: &[usize],
    groups: &[GroupSpec],
    in_maps: &[ChannelMap],
    input_cts: usize,
    galois: Arc<GaloisKeys>,
    caches: Vec<KernelCache>,
    backend: &ExecBackend,
    masks: &mut [&mut dyn RngCore],
) -> Result<ServerConvSummary, SpotError> {
    let shape = &spec.shape;
    let t = ctx.params().plain_modulus();
    let n = ctx.degree();
    let out_groups = groups.len();
    let batch = masks.len();
    // Per-class batch layouts for scattering per-image masks into the
    // shared result ciphertexts.
    let blayouts: Vec<BatchLayout> = layouts
        .iter()
        .zip(&probe.classes)
        .map(|(lay, (_class, pieces))| spot_batch_layout(blk, lay, pieces.len()))
        .collect();
    // One engine per class: the layouts differ, so sharing the
    // NTT-domain kernel cache (keyed by `cache_tag` = 0 within a class)
    // across classes would collide. Each class's cache may itself be
    // shared with other sessions of the same model.
    debug_assert_eq!(caches.len(), layouts.len());
    let engines: Vec<HeConvEngine> = caches
        .into_iter()
        .map(|cache| HeConvEngine::with_shared_cache(ctx, Arc::clone(&galois), true, cache))
        .collect();
    // Global ciphertext index → class index.
    let ct_class: Vec<usize> = class_cts
        .iter()
        .enumerate()
        .flat_map(|(ci, &cnt)| std::iter::repeat_n(ci, cnt))
        .collect();
    debug_assert_eq!(ct_class.len(), input_cts);

    let conv_one = |ci: usize, ct: &Ciphertext| {
        let req = ConvRequest {
            layout: &layouts[ci],
            in_maps,
            groups,
            diagonals: blk.diagonals,
            fold_steps: &blk.fold_steps,
            kernel,
            cache_tag: 0,
        };
        let mut c = OpCounts::default();
        let outs = engines[ci].conv_one_ct(ct, &req, &mut c);
        (outs, c)
    };

    let mut counts = OpCounts::default();
    let mut server_pieces: Vec<Vec<Tensor>> = vec![Vec::new(); batch];
    let mut seq_out = 0u32;

    // Per-class consumer state: masks drawn per (ciphertext, group) in
    // global order — one draw per image at each event, so every image's
    // source sees the one-image order — and a completed class unpacks
    // into per-image piece shares.
    let mut group_server: Vec<Vec<Vec<Vec<u64>>>> = vec![vec![Vec::new(); out_groups]; batch];
    let mut seen_cts = 0usize;
    let absorb_ct = |ci: usize,
                     outs: Vec<Ciphertext>,
                     c: OpCounts,
                     counts: &mut OpCounts,
                     group_server: &mut Vec<Vec<Vec<Vec<u64>>>>,
                     seen_cts: &mut usize,
                     server_pieces: &mut Vec<Vec<Tensor>>,
                     seq_out: &mut u32,
                     masks: &mut [&mut dyn RngCore]|
     -> Result<(), SpotError> {
        counts.merge(&c);
        for (g, out_ct) in outs.into_iter().enumerate() {
            let rs = draw_masks(masks, n, t);
            let masked = engines[ci].evaluator().sub_plain(
                &out_ct,
                &engines[ci]
                    .encoder()
                    .encode(&blayouts[ci].scatter_masks(&rs)),
            );
            counts.add += 1;
            transport.send(&WireMessage::MaskedResult {
                seq: *seq_out,
                blob: masked.to_bytes(),
            })?;
            *seq_out += 1;
            for (img, r) in rs.into_iter().enumerate() {
                group_server[img][g].push(r);
            }
        }
        *seen_cts += 1;
        if *seen_cts == class_cts[ci] {
            let (class, pieces) = &probe.classes[ci];
            for (img, gs) in group_server.iter_mut().enumerate() {
                server_pieces[img].extend(spot::unpack_class_share(
                    blk,
                    &layouts[ci],
                    pieces.len(),
                    class.h,
                    class.w,
                    shape.c_out,
                    t,
                    gs,
                ));
                for slots in gs.iter_mut() {
                    slots.clear();
                }
            }
            *seen_cts = 0;
        }
        Ok(())
    };

    let stream = match backend {
        ExecBackend::Phased(ex) => {
            // Receive the full upload, then convolve class by class.
            let mut class_data: Vec<Vec<Ciphertext>> = vec![Vec::new(); layouts.len()];
            for (j, &ci) in ct_class.iter().enumerate() {
                class_data[ci].push(recv_input_ct(transport, ctx, j, ci)?);
            }
            for (ci, cts) in class_data.iter().enumerate() {
                let convolved = ex.run(cts, |_, ct| conv_one(ci, ct));
                for (outs, c) in convolved {
                    absorb_ct(
                        ci,
                        outs,
                        c,
                        &mut counts,
                        &mut group_server,
                        &mut seen_cts,
                        &mut server_pieces,
                        &mut seq_out,
                        masks,
                    )?;
                }
            }
            None
        }
        ExecBackend::Streaming(cfg) => {
            let counts_ref = &mut counts;
            let group_server_ref = &mut group_server;
            let seen_ref = &mut seen_cts;
            let pieces_ref = &mut server_pieces;
            let seq_ref = &mut seq_out;
            let masks_ref = &mut *masks;
            let ct_class_ref = &ct_class;
            let conv_one_ref = &conv_one;
            let stats = run_stream(
                cfg,
                // Ingest: validate and forward each upload the moment
                // it arrives — SPOT's per-input dependency means
                // convolution starts immediately. Deserialization
                // happens on the worker pool so the ingest thread goes
                // straight back to the transport.
                |feeder| {
                    for (j, &ci) in ct_class_ref.iter().enumerate() {
                        feeder.push((ci, recv_input_blob(transport, j, ci)?))?;
                    }
                    Ok(())
                },
                |_, (ci, blob): (usize, Vec<u8>)| {
                    let ct = Ciphertext::try_from_bytes(ctx, &blob)?;
                    let (outs, c) = conv_one_ref(ci, &ct);
                    Ok::<_, SpotError>((ci, outs, c))
                },
                // Caller thread, in upload order: mask and return each
                // result, overlapped with ongoing uploads.
                |_, convolved| {
                    let (ci, outs, c) = convolved?;
                    absorb_ct(
                        ci,
                        outs,
                        c,
                        counts_ref,
                        group_server_ref,
                        seen_ref,
                        pieces_ref,
                        seq_ref,
                        masks_ref,
                    )
                },
            )?;
            Some(stats)
        }
    };

    // Classes with zero pieces never trigger the unpack above; they
    // also contribute no pieces to the assembly, so nothing is lost.
    let server_shares = server_pieces
        .into_iter()
        .map(|pieces| {
            let full = crate::patching::assemble(probe, &pieces, shape.height, shape.width);
            Tensor::from_fn(
                shape.c_out,
                shape.out_height(),
                shape.out_width(),
                |c, y, x| full.at(c, y * shape.stride, x * shape.stride),
            )
        })
        .collect();

    Ok(ServerConvSummary {
        server_shares,
        counts,
        input_cts,
        output_cts: input_cts * out_groups,
        stream,
    })
}

// ---------------------------------------------------------------------
// In-process combinator
// ---------------------------------------------------------------------

/// Result of an in-process client/server run: per-image shares plus
/// the per-batch operation counts and traffic.
#[derive(Debug)]
pub struct BatchConvOutcome {
    /// Each image's client share, in submission order.
    pub client_shares: Vec<Tensor>,
    /// Each image's server share, in submission order.
    pub server_shares: Vec<Tensor>,
    /// HE operations for the whole batch (slot batching leaves the
    /// rotation and key-switch counts at their single-image values).
    pub counts: OpCounts,
    /// Input ciphertexts uploaded for the whole batch.
    pub input_cts: usize,
    /// Masked result ciphertexts returned for the whole batch.
    pub output_cts: usize,
    /// Plaintext modulus the shares live in.
    pub modulus: u64,
    /// Streaming stall accounting (None for the phased backend).
    pub stream: Option<StreamStats>,
    /// Client → server traffic (framed wire bytes).
    pub uplink: TrafficStats,
    /// Server → client traffic (framed wire bytes).
    pub downlink: TrafficStats,
}

impl BatchConvOutcome {
    /// Per-image functional results. Operation and ciphertext counts
    /// are per batch and repeat on every image's result.
    pub fn into_results(self) -> Vec<SecureConvResult> {
        let counts = self.counts;
        let (input_cts, output_cts, modulus) = (self.input_cts, self.output_cts, self.modulus);
        self.client_shares
            .into_iter()
            .zip(self.server_shares)
            .map(|(client_share, server_share)| SecureConvResult {
                client_share,
                server_share,
                counts,
                input_cts,
                output_cts,
                modulus,
            })
            .collect()
    }
}

/// Runs one secure-convolution session over a batch of same-shape
/// images with both parties in this process over a [`MemTransport`],
/// exchanging real serialized frames (see [`ClientConv::send_all`]).
///
/// Client and server randomness is split deterministically from `rng`
/// (one seed draw each, in that order) so phased and streaming runs of
/// the same seed produce bit-identical shares. With the phased backend
/// the parties run sequentially on the calling thread; with the
/// streaming backend the client uploads from a second thread through a
/// bounded uplink sized to the stream config's channel capacity.
#[allow(clippy::too_many_arguments)]
pub fn run_in_process<R: Rng>(
    ctx: &Arc<Context>,
    keygen: &KeyGenerator,
    inputs: &[Tensor],
    kernel: &Kernel,
    stride: usize,
    patch: (usize, usize),
    mode: PatchMode,
    scheme: SchemeKind,
    backend: &ExecBackend,
    rng: &mut R,
) -> Result<BatchConvOutcome, SpotError> {
    let first = inputs
        .first()
        .ok_or_else(|| SpotError::Protocol("empty input batch".into()))?;
    let batch = inputs.len();
    let spec = LayerSpec {
        scheme,
        shape: ConvShape {
            width: first.width(),
            height: first.height(),
            c_in: first.channels(),
            c_out: kernel.out_channels(),
            k_h: kernel.k_h(),
            k_w: kernel.k_w(),
            stride,
        },
        patch,
        mode,
    };
    let client_seed = rng.gen::<u64>();
    let server_seed = rng.gen::<u64>();
    let client = ClientConv::new(ctx, keygen, spec)?;

    let (sent, server, share, client_transport) = match backend {
        ExecBackend::Phased(_) => {
            let (ct, st) = MemTransport::pair();
            let mut crng = StdRng::seed_from_u64(client_seed);
            let sent = client.send_all(&ct, inputs, UploadPacing::Eager, &mut crng)?;
            let mut srng = StdRng::seed_from_u64(server_seed);
            let server = serve_conv(ctx, &st, kernel, backend, &mut srng)?;
            let share = client.absorb_all(&ct, batch)?;
            (sent, server, share, ct)
        }
        ExecBackend::Streaming(cfg) => {
            let (ct, st) = MemTransport::pair_with_capacity(Some(cfg.channel_capacity), None);
            let ct_ref = &ct;
            let st_ref = &st;
            let client_ref = &client;
            let scope_result = crossbeam::thread::scope(|s| {
                let uploader = s.spawn(move |_| {
                    let t0 = Instant::now();
                    let r = client_ref.send_all(
                        ct_ref,
                        inputs,
                        UploadPacing::AwaitAck,
                        &mut StdRng::seed_from_u64(client_seed),
                    );
                    // Always close: a server stuck in recv after a client
                    // failure sees Closed instead of blocking forever.
                    ct_ref.close_tx();
                    (r, t0.elapsed())
                });
                let mut srng = StdRng::seed_from_u64(server_seed);
                let server_res = serve_conv(ctx, st_ref, kernel, backend, &mut srng);
                if server_res.is_err() {
                    // Unblock a client stuck on the bounded uplink.
                    ct_ref.close_tx();
                    st_ref.close_tx();
                }
                let (client_res, client_wall) = uploader.join().expect("client thread panicked");
                (server_res, client_res, client_wall)
            });
            let (server_res, client_res, client_wall) = match scope_result {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            let mut server = server_res?;
            let sent = client_res?;
            // The barrier/stream stats measured the server's ingest loop
            // as "client"; substitute the real client thread's wall time
            // and the transport's measured send backpressure.
            if let Some(stats) = server.stream.as_mut() {
                let blocked = ct.stats().send_blocked.as_secs_f64();
                stats.client_blocked_s = blocked;
                stats.client_s = (client_wall.as_secs_f64() - blocked).max(0.0);
            }
            let share = client.absorb_all(&ct, batch)?;
            (sent, server, share, ct)
        }
    };

    let mut counts = server.counts;
    counts.encrypt += sent.encrypt;
    counts.decrypt += share.decrypt;
    let tstats = client_transport.stats();
    Ok(BatchConvOutcome {
        client_shares: share.shares,
        server_shares: server.server_shares,
        counts,
        input_cts: server.input_cts,
        output_cts: server.output_cts,
        modulus: ctx.params().plain_modulus(),
        stream: server.stream,
        uplink: tstats.sent,
        downlink: tstats.received,
    })
}
