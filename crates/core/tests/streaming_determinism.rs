//! Streaming runtime acceptance tests.
//!
//! For every scheme, a layer streamed on one server worker through a
//! one-ciphertext channel and the same layer streamed on eight workers
//! through a two-ciphertext channel produce bit-identical shares and
//! operation counts for the same rng seed (small capacities, so
//! backpressure actually engages). The wall-clock stall comparison
//! lives in its own test binary, `streaming_stall`, so sibling tests
//! do not compete with it for cores.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::channelwise::SecureConvResult;
use spot_core::executor::Executor;
use spot_core::inference::{run_conv_backend, Scheme};
use spot_core::patching::PatchMode;
use spot_core::stream::StreamConfig;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_tensor::tensor::{Kernel, Tensor};
use std::sync::Arc;

/// The two stream configurations every determinism test compares:
/// `(server threads, channel capacity)`.
const CONFIGS: [(usize, usize); 2] = [(1, 1), (8, 2)];

fn ctx4096() -> Arc<Context> {
    Context::new(EncryptionParams::new(ParamLevel::N4096))
}

/// Streams `inputs` through one `scheme` session at `(threads,
/// channel_capacity)` from fixed key and session seeds, and checks the
/// reported stats describe that run.
fn streamed(
    scheme: Scheme,
    inputs: &[Tensor],
    kernel: &Kernel,
    (threads, channel_capacity): (usize, usize),
) -> Vec<SecureConvResult> {
    let ctx = ctx4096();
    let mut keyrng = StdRng::seed_from_u64(9000);
    let keygen = KeyGenerator::new(&ctx, &mut keyrng);
    let mut rng = StdRng::seed_from_u64(4242);
    let cfg = StreamConfig::new(Executor::new(threads), channel_capacity);
    let (results, stats) = run_conv_backend(
        &ctx,
        &keygen,
        inputs,
        kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
        scheme,
        &cfg,
        &mut rng,
    );
    let tag = format!("{} threads={threads} cap={channel_capacity}", scheme.name());
    assert_eq!(results.len(), inputs.len(), "{tag}");
    assert_eq!(stats.input_items, results[0].input_cts, "{tag}");
    assert_eq!(stats.channel_capacity, channel_capacity, "{tag}");
    assert!(stats.wall_s > 0.0, "{tag}");
    results
}

/// Runs one image of `scheme` at both [`CONFIGS`] and asserts
/// bit-identical results.
fn assert_stream_config_invariant(scheme: Scheme) {
    let input = Tensor::random(4, 8, 8, 8, 17);
    let kernel = Kernel::random(4, 4, 3, 3, 4, 18);
    let inputs = std::slice::from_ref(&input);
    let a = streamed(scheme, inputs, &kernel, CONFIGS[0]);
    let b = streamed(scheme, inputs, &kernel, CONFIGS[1]);
    let (a, b) = (&a[0], &b[0]);

    let tag = scheme.name();
    assert_eq!(a.client_share, b.client_share, "{tag}");
    assert_eq!(a.server_share, b.server_share, "{tag}");
    assert_eq!(a.counts, b.counts, "{tag}");
    assert_eq!(a.input_cts, b.input_cts, "{tag}");
    assert_eq!(a.output_cts, b.output_cts, "{tag}");
}

#[test]
fn spot_streaming_is_config_invariant() {
    assert_stream_config_invariant(Scheme::Spot);
}

#[test]
fn channelwise_streaming_is_config_invariant() {
    assert_stream_config_invariant(Scheme::CrypTFlow2);
}

#[test]
fn cheetah_streaming_is_config_invariant() {
    assert_stream_config_invariant(Scheme::Cheetah);
}

/// A batched session is deterministic across stream configurations
/// too: per-image shares and the whole-batch counts are bit-identical
/// for the same seed.
#[test]
fn spot_batched_streaming_is_config_invariant() {
    let inputs: Vec<Tensor> = (0..3u64)
        .map(|b| Tensor::random(2, 8, 8, 5, 17 + b))
        .collect();
    let kernel = Kernel::random(4, 2, 3, 3, 4, 18);
    let a = streamed(Scheme::Spot, &inputs, &kernel, CONFIGS[0]);
    let b = streamed(Scheme::Spot, &inputs, &kernel, CONFIGS[1]);
    for (img, (p, s)) in a.iter().zip(&b).enumerate() {
        assert_eq!(p.client_share, s.client_share, "image {img}");
        assert_eq!(p.server_share, s.server_share, "image {img}");
        assert_eq!(p.counts, s.counts, "image {img}");
    }
}

/// Streamed results also reconstruct to the true convolution (guards
/// against two stream configurations agreeing on a wrong answer).
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
            &cfg,
            &mut rng,
        );
        assert_eq!(res[0].reconstruct(), want, "scheme {}", scheme.name());
    }
}
