//! Golden wire transcripts for one conv session per scheme.
//!
//! Every other byte-level check compares two paths of the same build
//! (1 vs 8 server threads, Mem vs TCP, batched vs unbatched), so a
//! change that moved both sides together would go unnoticed. This test
//! pins absolute values instead: FNV-1a-64 digests of every framed
//! message in each direction, and of the shares both parties end up
//! with, for fixed seeds on a one-worker server stream at N4096.
//!
//! * B = 1: uplink digest, downlink digest, client and server share
//!   digests.
//! * B = layer capacity: uplink digest and the digest of every image's
//!   client and server shares, in submission order.
//!
//! A deliberate wire or share change updates the constants here and
//! says why in the change log.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::patching::PatchMode;
use spot_core::session::{
    serve_conv, ClientConv, LayerSpec, SchemeKind, ServeOptions, UploadPacing,
};
use spot_core::stream::StreamConfig;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::transport::{MemTransport, Transport, TransportStats};
use spot_proto::{ProtoError, WireMessage};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use std::sync::Mutex;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of a run of share tensors: every value's little-endian bytes,
/// tensor after tensor.
fn shares_digest(shares: &[Tensor]) -> u64 {
    shares.iter().fold(FNV_OFFSET, |h, s| {
        s.data().iter().fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
    })
}

/// Transport decorator folding each framed message into a running
/// FNV-1a-64 digest per direction.
struct Recording<'a> {
    inner: &'a dyn Transport,
    up: Mutex<u64>,
    down: Mutex<u64>,
}

impl<'a> Recording<'a> {
    fn new(inner: &'a dyn Transport) -> Self {
        Self {
            inner,
            up: Mutex::new(FNV_OFFSET),
            down: Mutex::new(FNV_OFFSET),
        }
    }

    fn digests(&self) -> (u64, u64) {
        (*self.up.lock().unwrap(), *self.down.lock().unwrap())
    }
}

impl Transport for Recording<'_> {
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        let mut up = self.up.lock().unwrap();
        *up = fnv1a(*up, &msg.encode_frame());
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        let msg = self.inner.recv()?;
        let mut down = self.down.lock().unwrap();
        *down = fnv1a(*down, &msg.encode_frame());
        Ok(msg)
    }

    fn close_tx(&self) {
        self.inner.close_tx()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

// The layer, inputs and kernel of `batch_determinism`.

fn test_spec(scheme: SchemeKind) -> LayerSpec {
    LayerSpec {
        scheme,
        shape: ConvShape {
            width: 8,
            height: 8,
            c_in: 2,
            c_out: 4,
            k_h: 3,
            k_w: 3,
            stride: 1,
        },
        patch: (4, 4),
        mode: PatchMode::Tweaked,
    }
}

fn test_inputs(batch: usize) -> Vec<Tensor> {
    (0..batch as u64)
        .map(|b| Tensor::random(2, 8, 8, 5, 40 + b))
        .collect()
}

fn test_kernel() -> Kernel {
    Kernel::random(4, 2, 3, 3, 3, 41)
}

/// What one recorded session pins.
#[derive(Debug, PartialEq, Eq)]
struct Transcript {
    batch: usize,
    uplink: u64,
    downlink: u64,
    client_shares: u64,
    server_shares: u64,
}

/// One one-worker streamed session of `batch` images (`None` = the layer's
/// batch capacity) with fixed key, client and server seeds.
fn record(scheme: SchemeKind, batch: Option<usize>) -> Transcript {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut keyrng = StdRng::seed_from_u64(9000);
    let kg = KeyGenerator::new(&ctx, &mut keyrng);
    let conv = ClientConv::new(&ctx, &kg, test_spec(scheme)).expect("client conv");
    let batch = batch.unwrap_or_else(|| conv.batch_capacity());
    let inputs = test_inputs(batch);
    let (ct, st) = MemTransport::pair();
    let rec = Recording::new(&ct);

    let mut crng = StdRng::seed_from_u64(777);
    conv.send_all(&rec, &inputs, UploadPacing::Eager, &mut crng)
        .expect("upload");
    let mut srng = StdRng::seed_from_u64(3100);
    let cfg = StreamConfig::new(Executor::serial(), 2);
    let summary = serve_conv(
        &ctx,
        &st,
        &test_kernel(),
        &cfg,
        ServeOptions::default(),
        &mut srng,
    )
    .expect("serve");
    let client = conv.absorb_all(&rec, batch).expect("absorb");

    let (uplink, downlink) = rec.digests();
    Transcript {
        batch,
        uplink,
        downlink,
        client_shares: shares_digest(&client.shares),
        server_shares: shares_digest(&summary.server_shares),
    }
}

/// B = 1 pins the whole transcript: both directions and both shares.
fn assert_single(scheme: SchemeKind, want: [u64; 4]) {
    let got = record(scheme, Some(1));
    assert_eq!(
        [
            got.uplink,
            got.downlink,
            got.client_shares,
            got.server_shares
        ],
        want,
        "{scheme:?} B=1 transcript {got:#x?}"
    );
}

/// B = capacity pins the uplink and every image's shares.
fn assert_full(scheme: SchemeKind, capacity: usize, want: [u64; 3]) {
    let got = record(scheme, None);
    assert_eq!(got.batch, capacity, "{scheme:?} batch capacity");
    assert_eq!(
        [got.uplink, got.client_shares, got.server_shares],
        want,
        "{scheme:?} B={capacity} transcript {got:#x?}"
    );
}

#[test]
fn channelwise_single_image_transcript() {
    assert_single(
        SchemeKind::Channelwise,
        [
            0x1b86_ac99_2d38_70e0,
            0x4209_adb6_1315_e9d6,
            0xee17_7ee4_fca5_59cb,
            0xed8e_8bec_6e56_61fc,
        ],
    );
}

#[test]
fn cheetah_single_image_transcript() {
    assert_single(
        SchemeKind::Cheetah,
        [
            0x2245_5cbd_68f2_92cc,
            0xad02_4fbc_e60a_936f,
            0xdcbd_ab2a_c807_6542,
            0xf390_945e_c34b_2d41,
        ],
    );
}

#[test]
fn spot_single_image_transcript() {
    assert_single(
        SchemeKind::Spot,
        [
            0x247e_a3cb_fb01_7547,
            0x4614_9b38_3c27_f79d,
            0xd27b_a88f_ef73_9453,
            0xd7e7_e407_d7ca_ed8d,
        ],
    );
}

#[test]
fn channelwise_full_batch_transcript() {
    assert_full(
        SchemeKind::Channelwise,
        32,
        [
            0x7183_eca0_7960_9999,
            0x87c6_fb4f_70ce_8f2e,
            0x60ba_28b2_260a_e0c4,
        ],
    );
}

#[test]
fn cheetah_full_batch_transcript() {
    assert_full(
        SchemeKind::Cheetah,
        255,
        [
            0xc0a4_60b0_7c6a_beb1,
            0x8763_857e_0010_17aa,
            0x43ab_299a_6a05_6a91,
        ],
    );
}

#[test]
fn spot_full_batch_transcript() {
    assert_full(
        SchemeKind::Spot,
        14,
        [
            0x8e7e_14de_b243_74c8,
            0xc297_6eea_23c2_bc75,
            0xf0f8_0095_51b7_851d,
        ],
    );
}
