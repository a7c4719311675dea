//! Streaming runtime acceptance tests.
//!
//! For every scheme, the streamed execution's shares and operation
//! counts are bit-identical to the phased driver's for the same rng
//! seed, at 1 and 8 server worker threads and small channel capacities
//! (so backpressure actually engages). The wall-clock stall comparison
//! lives in its own test binary, `streaming_stall`, so sibling tests
//! do not compete with it for cores.

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
use std::sync::Arc;

fn ctx4096() -> Arc<Context> {
    Context::new(EncryptionParams::new(ParamLevel::N4096))
}

/// Runs one scheme phased and streamed from the same seed and asserts
/// bit-identical results.
fn assert_streaming_matches_phased(scheme: Scheme, threads: usize, channel_capacity: usize) {
    let ctx = ctx4096();
    let mut keyrng = StdRng::seed_from_u64(9000);
    let keygen = KeyGenerator::new(&ctx, &mut keyrng);
    let input = Tensor::random(4, 8, 8, 8, 17);
    let kernel = Kernel::random(4, 4, 3, 3, 4, 18);

    let mut rng_a = StdRng::seed_from_u64(4242);
    let (phased, none) = run_conv_backend(
        &ctx,
        &keygen,
        std::slice::from_ref(&input),
        &kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
        scheme,
        &ExecBackend::Phased(Executor::new(threads)),
        &mut rng_a,
    );
    assert!(none.is_none());

    let mut rng_b = StdRng::seed_from_u64(4242);
    let cfg = StreamConfig::new(Executor::new(threads), channel_capacity);
    let (streamed, stats) = run_conv_backend(
        &ctx,
        &keygen,
        std::slice::from_ref(&input),
        &kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
        scheme,
        &ExecBackend::Streaming(cfg),
        &mut rng_b,
    );
    let stats = stats.expect("streaming backend reports stats");
    let (phased, streamed) = (&phased[0], &streamed[0]);

    let tag = format!("{} threads={threads} cap={channel_capacity}", scheme.name());
    assert_eq!(phased.client_share, streamed.client_share, "{tag}");
    assert_eq!(phased.server_share, streamed.server_share, "{tag}");
    assert_eq!(phased.counts, streamed.counts, "{tag}");
    assert_eq!(phased.input_cts, streamed.input_cts, "{tag}");
    assert_eq!(phased.output_cts, streamed.output_cts, "{tag}");
    assert_eq!(stats.input_items, streamed.input_cts, "{tag}");
    assert_eq!(stats.channel_capacity, channel_capacity, "{tag}");
    assert!(stats.wall_s > 0.0, "{tag}");
}

#[test]
fn spot_streaming_deterministic_1_thread() {
    assert_streaming_matches_phased(Scheme::Spot, 1, 1);
}

#[test]
fn spot_streaming_deterministic_8_threads() {
    assert_streaming_matches_phased(Scheme::Spot, 8, 2);
}

#[test]
fn channelwise_streaming_deterministic_1_thread() {
    assert_streaming_matches_phased(Scheme::CrypTFlow2, 1, 1);
}

#[test]
fn channelwise_streaming_deterministic_8_threads() {
    assert_streaming_matches_phased(Scheme::CrypTFlow2, 8, 2);
}

/// A batched session is deterministic across backends too: per-image
/// shares and the whole-batch counts are bit-identical between the
/// phased driver and the streamed one for the same seed.
fn assert_batched_streaming_matches_phased(threads: usize, channel_capacity: usize) {
    let ctx = ctx4096();
    let mut keyrng = StdRng::seed_from_u64(9000);
    let keygen = KeyGenerator::new(&ctx, &mut keyrng);
    let inputs: Vec<Tensor> = (0..3u64)
        .map(|b| Tensor::random(2, 8, 8, 5, 17 + b))
        .collect();
    let kernel = Kernel::random(4, 2, 3, 3, 4, 18);

    let mut rng_a = StdRng::seed_from_u64(4242);
    let (phased, none) = run_conv_backend(
        &ctx,
        &keygen,
        &inputs,
        &kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
        Scheme::Spot,
        &ExecBackend::Phased(Executor::new(threads)),
        &mut rng_a,
    );
    assert!(none.is_none());

    let mut rng_b = StdRng::seed_from_u64(4242);
    let cfg = StreamConfig::new(Executor::new(threads), channel_capacity);
    let (streamed, stats) = run_conv_backend(
        &ctx,
        &keygen,
        &inputs,
        &kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
        Scheme::Spot,
        &ExecBackend::Streaming(cfg),
        &mut rng_b,
    );
    stats.expect("streaming backend reports stats");

    let tag = format!("batched threads={threads} cap={channel_capacity}");
    assert_eq!(phased.len(), inputs.len(), "{tag}");
    assert_eq!(streamed.len(), inputs.len(), "{tag}");
    for (b, (p, s)) in phased.iter().zip(&streamed).enumerate() {
        assert_eq!(p.client_share, s.client_share, "{tag} image {b}");
        assert_eq!(p.server_share, s.server_share, "{tag} image {b}");
        assert_eq!(p.counts, s.counts, "{tag} image {b}");
    }
}

#[test]
fn spot_batched_streaming_deterministic_1_thread() {
    assert_batched_streaming_matches_phased(1, 1);
}

#[test]
fn spot_batched_streaming_deterministic_8_threads() {
    assert_batched_streaming_matches_phased(8, 2);
}

#[test]
fn cheetah_streaming_deterministic_1_thread() {
    assert_streaming_matches_phased(Scheme::Cheetah, 1, 1);
}

#[test]
fn cheetah_streaming_deterministic_8_threads() {
    assert_streaming_matches_phased(Scheme::Cheetah, 8, 2);
}

/// Streamed results also reconstruct to the true convolution (guards
/// against phased and streamed agreeing on a wrong answer).
#[test]
fn streamed_results_reconstruct_correctly() {
    let ctx = ctx4096();
    let mut rng = StdRng::seed_from_u64(31000);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let input = Tensor::random(4, 8, 8, 8, 71);
    let kernel = Kernel::random(4, 4, 3, 3, 4, 72);
    let want = spot_tensor::conv::conv2d(&input, &kernel, 1);
    for scheme in Scheme::ALL {
        let cfg = StreamConfig::new(Executor::new(4), 2);
        let (res, _) = run_conv_backend(
            &ctx,
            &keygen,
            std::slice::from_ref(&input),
            &kernel,
            1,
            (4, 4),
            PatchMode::Tweaked,
            scheme,
            &ExecBackend::Streaming(cfg),
            &mut rng,
        );
        assert_eq!(res[0].reconstruct(), want, "scheme {}", scheme.name());
    }
}
