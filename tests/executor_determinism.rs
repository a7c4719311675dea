//! Thread-count determinism: every secure convolution scheme must
//! produce **bit-identical** results whether the server's parallel conv
//! executor runs on one thread or eight. The protocol draws all
//! randomness on the calling thread in a fixed order; the parallel
//! phase is pure, and outputs are reassembled in job order — so shares,
//! op counts, and ciphertext tallies must match exactly, not just
//! reconstruct to the same plaintext.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot::core::channelwise::SecureConvResult;
use spot::core::executor::Executor;
use spot::core::inference::{run_conv_backend, ExecBackend, Scheme};
use spot::core::patching::PatchMode;
use spot::he::prelude::*;
use spot::tensor::{conv2d, Kernel, Tensor};
use std::sync::Arc;

fn ctx() -> Arc<spot::he::context::Context> {
    spot::he::context::Context::new(EncryptionParams::new(ParamLevel::N4096))
}

/// One phased session of `scheme` with the server's convolutions on
/// `ex`'s worker pool.
#[allow(clippy::too_many_arguments)]
fn phased(
    ctx: &Arc<spot::he::context::Context>,
    kg: &KeyGenerator,
    input: &Tensor,
    kernel: &Kernel,
    patch: (usize, usize),
    mode: PatchMode,
    scheme: Scheme,
    ex: &Executor,
    rng: &mut StdRng,
) -> SecureConvResult {
    let (mut results, _) = run_conv_backend(
        ctx,
        kg,
        std::slice::from_ref(input),
        kernel,
        1,
        patch,
        mode,
        scheme,
        &ExecBackend::Phased(*ex),
        rng,
    );
    results.remove(0)
}

/// Runs `f` under a fresh deterministic rng/keygen per thread count and
/// asserts the two results are bit-identical in every field.
fn assert_identical<F>(seed: u64, f: F) -> SecureConvResult
where
    F: Fn(
        &Arc<spot::he::context::Context>,
        &KeyGenerator,
        &Executor,
        &mut StdRng,
    ) -> SecureConvResult,
{
    let ctx = ctx();
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        f(&ctx, &keygen, &Executor::new(threads), &mut rng)
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.client_share, parallel.client_share);
    assert_eq!(serial.server_share, parallel.server_share);
    assert_eq!(serial.counts, parallel.counts);
    assert_eq!(serial.input_cts, parallel.input_cts);
    assert_eq!(serial.output_cts, parallel.output_cts);
    assert_eq!(serial.modulus, parallel.modulus);
    serial
}

#[test]
fn spot_vanilla_is_thread_count_invariant() {
    let input = Tensor::random(4, 12, 12, 6, 11);
    let kernel = Kernel::random(4, 4, 3, 3, 4, 12);
    let res = assert_identical(41, |ctx, kg, ex, rng| {
        phased(
            ctx,
            kg,
            &input,
            &kernel,
            (5, 5),
            PatchMode::Vanilla,
            Scheme::Spot,
            ex,
            rng,
        )
    });
    assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
}

#[test]
fn spot_tweaked_is_thread_count_invariant() {
    let input = Tensor::random(4, 12, 12, 6, 21);
    let kernel = Kernel::random(8, 4, 3, 3, 4, 22);
    let res = assert_identical(42, |ctx, kg, ex, rng| {
        phased(
            ctx,
            kg,
            &input,
            &kernel,
            (4, 4),
            PatchMode::Tweaked,
            Scheme::Spot,
            ex,
            rng,
        )
    });
    assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
}

#[test]
fn channelwise_is_thread_count_invariant() {
    let input = Tensor::random(8, 8, 8, 6, 31);
    let kernel = Kernel::random(4, 8, 3, 3, 4, 32);
    let res = assert_identical(43, |ctx, kg, ex, rng| {
        phased(
            ctx,
            kg,
            &input,
            &kernel,
            (0, 0),
            PatchMode::Vanilla,
            Scheme::CrypTFlow2,
            ex,
            rng,
        )
    });
    assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
}

#[test]
fn cheetah_is_thread_count_invariant() {
    let input = Tensor::random(16, 16, 16, 4, 51);
    let kernel = Kernel::random(4, 16, 3, 3, 3, 52);
    let res = assert_identical(44, |ctx, kg, ex, rng| {
        phased(
            ctx,
            kg,
            &input,
            &kernel,
            (0, 0),
            PatchMode::Vanilla,
            Scheme::Cheetah,
            ex,
            rng,
        )
    });
    assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
}
