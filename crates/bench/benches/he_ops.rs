//! Criterion benchmarks of the raw BFV primitives — the measured
//! counterpart of the paper's Table IV. Run with `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::heconv::{ConvRequest, HeConvEngine};
use spot_core::layout::LaneLayout;
use spot_core::patching::PatchMode;
use spot_core::session::{run_in_process, ExecBackend, SchemeKind};
use spot_core::spot::{blocking, spot_group_specs, spot_in_maps};
use spot_he::evaluator::OpCounts;
use spot_he::prelude::*;
use spot_tensor::tensor::{Kernel, Tensor};

fn bench_level(c: &mut Criterion, level: ParamLevel) {
    let ctx = Context::new(EncryptionParams::new(level));
    let mut rng = StdRng::seed_from_u64(1);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let pk = keygen.public_key(&mut rng);
    let encoder = BatchEncoder::new(&ctx);
    let encryptor = Encryptor::new(&ctx, pk);
    let decryptor = Decryptor::new(&ctx, keygen.secret_key().clone());
    let evaluator = Evaluator::new(&ctx);
    let values: Vec<u64> = (0..ctx.degree() as u64)
        .map(|i| i % ctx.params().plain_modulus())
        .collect();
    let pt = encoder.encode(&values);
    let lifted = pt.lift(&ctx);
    let ct = encryptor.encrypt(&pt, &mut rng);
    let ct2 = encryptor.encrypt(&pt, &mut rng);

    let mut group = c.benchmark_group(format!("he/{level}"));
    group.sample_size(10);
    group.bench_function("encrypt", |b| b.iter(|| encryptor.encrypt(&pt, &mut rng)));
    group.bench_function("decrypt", |b| b.iter(|| decryptor.decrypt(&ct)));
    group.bench_function("mult_plain", |b| {
        b.iter(|| evaluator.multiply_lifted(&ct, &lifted))
    });
    group.bench_function("add", |b| b.iter(|| evaluator.add(&ct, &ct2)));
    if level.supports_rotation() {
        let gk = keygen.galois_keys(&evaluator.galois_elements(&[1], false), &mut rng);
        group.bench_function("rotate", |b| b.iter(|| evaluator.rotate_rows(&ct, 1, &gk)));
    }
    group.bench_function("encode", |b| b.iter(|| encoder.encode(&values)));
    group.finish();
}

/// Raw transform cost at each degree — the dominant term inside every
/// ciphertext operation, benchmarked in isolation so lazy-reduction
/// changes in the butterfly loops are directly visible.
fn bench_ntt(c: &mut Criterion, level: ParamLevel) {
    let ctx = Context::new(EncryptionParams::new(level));
    let n = ctx.degree();
    let tables = &ctx.ntt_tables()[0];
    let p = tables.modulus().value();
    let coeffs: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e37_79b9 + 17) % p).collect();

    let mut group = c.benchmark_group(format!("ntt/{level}"));
    group.sample_size(20);
    group.bench_function("forward", |b| {
        let mut a = coeffs.clone();
        b.iter(|| {
            tables.forward(&mut a);
        })
    });
    group.bench_function("inverse", |b| {
        let mut a = coeffs.clone();
        b.iter(|| {
            tables.inverse(&mut a);
        })
    });
    group.finish();
}

/// The kernel-dispatch hot loops below the NTT: pointwise residue-row
/// multiply (the mult-plain core) and the two key-switch digit inner
/// loops (Barrett lift into a foreign modulus, fused digit×ksk
/// multiply-accumulate). Benchmarked per dispatched kernel table so
/// `SPOT_SIMD=off cargo bench` vs `cargo bench` isolates the SIMD win.
fn bench_kernel_loops(c: &mut Criterion, level: ParamLevel) {
    let ctx = Context::new(EncryptionParams::new(level));
    let n = ctx.degree();
    let tables = &ctx.ntt_tables()[0];
    let m = tables.modulus();
    let p = m.value();
    let a: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e37_79b9 + 17) % p).collect();
    let b_row: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % p).collect();
    let kernels = spot_he::arch::kernels();

    let mut group = c.benchmark_group(format!("kernels/{}/{level}", kernels.name));
    group.sample_size(20);
    group.bench_function("pointwise_mul", |b| {
        let mut d = a.clone();
        b.iter(|| (kernels.pointwise_mul)(m, &mut d, &b_row))
    });
    group.bench_function("keyswitch_digit_lift", |b| {
        // The digit lift reduces a residue row into a *different* (here
        // smaller) modulus, exactly like Evaluator::key_switch.
        let small = spot_he::modulus::Modulus::new((1u64 << 30) - 35);
        let mut d = vec![0u64; n];
        b.iter(|| (kernels.reduce)(&small, &mut d, &a))
    });
    group.bench_function("keyswitch_digit_madd", |b| {
        let mut acc = vec![0u64; n];
        b.iter(|| (kernels.pointwise_add_mul)(m, &mut acc, &a, &b_row))
    });
    group.finish();
}

/// Steady-state cost of one lane-MIMO convolution with and without the
/// NTT-domain kernel plaintext cache: the cached engine encodes and
/// lifts each kernel combination once, the uncached engine re-encodes
/// per ciphertext (the seed behaviour).
fn bench_conv_cache(c: &mut Criterion) {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(3);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));

    let (c_in, c_out, h, w) = (8usize, 8usize, 8usize, 8usize);
    let blk = blocking(c_in, c_out);
    let layout = LaneLayout::new(ctx.degree() / 2, blk.lane_blocks, h, w);
    let kernel = Kernel::random(c_out, c_in, 3, 3, 4, 11);
    let groups = spot_group_specs(&blk, c_out);
    let in_maps = spot_in_maps(&blk, c_in);
    let req = ConvRequest {
        layout: &layout,
        in_maps: &in_maps,
        groups: &groups,
        diagonals: blk.diagonals,
        fold_steps: &blk.fold_steps,
        kernel: &kernel,
        cache_tag: 0,
    };
    let mk_engine = |rng: &mut StdRng| {
        HeConvEngine::new(
            &ctx,
            &keygen,
            &layout,
            3,
            3,
            blk.diagonals,
            blk.out_groups,
            &blk.fold_steps,
            blk.split,
            true,
            rng,
        )
    };
    let cached = mk_engine(&mut rng);
    let mut uncached = mk_engine(&mut rng);
    uncached.set_cache_enabled(false);

    let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 97).collect();
    let encoder = BatchEncoder::new(&ctx);
    let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);

    let mut group = c.benchmark_group("conv/spot_8ch_8x8");
    group.sample_size(10);
    let mut counts = OpCounts::default();
    // Warm the cache outside the timed region: steady-state layers see
    // only hits.
    cached.conv_one_ct(&ct, &req, &mut counts);
    group.bench_function("one_ct_cached", |b| {
        b.iter(|| cached.conv_one_ct(&ct, &req, &mut counts))
    });
    group.bench_function("one_ct_uncached", |b| {
        b.iter(|| uncached.conv_one_ct(&ct, &req, &mut counts))
    });
    group.finish();
}

/// End-to-end SPOT secure convolution at 1 vs 4 server threads — the
/// executor's parallel phase covers the per-ciphertext conv work, so
/// this shows the real (not simulated) scaling of a phased session.
fn bench_executor_threads(c: &mut Criterion) {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let input = Tensor::random(8, 12, 12, 6, 21);
    let kernel = Kernel::random(8, 8, 3, 3, 4, 22);
    let mut kg_rng = StdRng::seed_from_u64(9);
    let keygen = KeyGenerator::new(&ctx, &mut kg_rng);

    let mut group = c.benchmark_group("conv/spot_e2e_8ch_12x12");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let backend = ExecBackend::Phased(Executor::new(threads));
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(10);
                run_in_process(
                    &ctx,
                    &keygen,
                    std::slice::from_ref(&input),
                    &kernel,
                    1,
                    (6, 6),
                    PatchMode::Tweaked,
                    SchemeKind::Spot,
                    &backend,
                    &mut rng,
                )
                .expect("in-process SPOT session")
            })
        });
    }
    group.finish();
}

fn he_ops(c: &mut Criterion) {
    bench_level(c, ParamLevel::N4096);
    bench_level(c, ParamLevel::N8192);
    bench_ntt(c, ParamLevel::N4096);
    bench_ntt(c, ParamLevel::N8192);
    bench_kernel_loops(c, ParamLevel::N4096);
    bench_kernel_loops(c, ParamLevel::N8192);
    bench_conv_cache(c);
    bench_executor_threads(c);
}

criterion_group!(benches, he_ops);
criterion_main!(benches);
