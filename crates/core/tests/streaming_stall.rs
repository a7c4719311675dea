//! Stall accounting sanity: on a single-thread server, SPOT's measured
//! server idle (the paper's linear computation stall) is strictly less
//! than channel-wise packing's on the same layer, because SPOT convolves
//! each ciphertext as it arrives while the channel-wise barrier parks
//! the worker for the whole upload.
//!
//! The comparison is wall-clock, so it runs in a test binary of its own:
//! sibling tests sharing the machine's cores would skew the idle times.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::inference::{run_conv_backend, ExecBackend, Scheme};
use spot_core::patching::PatchMode;
use spot_core::stream::StreamConfig;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_tensor::tensor::{Kernel, Tensor};

/// The measured stall comparison of the paper, scaled down to a
/// test-sized Table-I-class layer (16×16 map, C_i = 32 → two
/// channel-wise input ciphertexts at N4096): on a single-thread server
/// with the same tiny-client channel budget, SPOT's per-input streaming
/// keeps the worker busy during the upload while the channel-wise
/// barrier parks it until the last ciphertext lands.
#[test]
fn spot_server_idle_below_channelwise_on_table1_layer() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut keyrng = StdRng::seed_from_u64(5150);
    let keygen = KeyGenerator::new(&ctx, &mut keyrng);
    let input = Tensor::random(32, 16, 16, 4, 81);
    let kernel = Kernel::random(4, 32, 3, 3, 3, 82);
    let cfg = StreamConfig::new(Executor::serial(), 2);

    let mut rng = StdRng::seed_from_u64(6100);
    let (cw_res, cw_stats) = run_conv_backend(
        &ctx,
        &keygen,
        std::slice::from_ref(&input),
        &kernel,
        1,
        (0, 0),
        PatchMode::Vanilla,
        Scheme::CrypTFlow2,
        &ExecBackend::Streaming(cfg),
        &mut rng,
    );
    let cw_stats = cw_stats.expect("streaming backend reports stats");
    assert!(
        cw_res[0].input_cts >= 2,
        "layer must need several uploads to expose the stall, got {}",
        cw_res[0].input_cts
    );

    let mut rng = StdRng::seed_from_u64(6200);
    let (spot_res, spot_stats) = run_conv_backend(
        &ctx,
        &keygen,
        std::slice::from_ref(&input),
        &kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
        Scheme::Spot,
        &ExecBackend::Streaming(cfg),
        &mut rng,
    );
    let spot_stats = spot_stats.expect("streaming backend reports stats");
    assert!(spot_res[0].input_cts >= 2);

    assert!(
        spot_stats.server_idle_s < cw_stats.server_idle_s,
        "SPOT measured server idle {:.4}s must be below channel-wise {:.4}s",
        spot_stats.server_idle_s,
        cw_stats.server_idle_s
    );
}
