//! Machine-readable HE hot-loop baseline: `BENCH_heops.json`.
//!
//! Measures every operation the `crates/he/src/arch` kernel dispatch
//! accelerates — forward/inverse NTT, pointwise multiply, the
//! key-switch digit loops (Barrett lift + fused multiply-accumulate),
//! ciphertext rotation and one full lane-MIMO convolution — under both
//! the scalar reference kernels and the best runtime-detected SIMD
//! backend, **in the same process and run** (via `spot_he::arch::force`)
//! so the two columns are directly comparable.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p spot-bench --bin bench_heops            # human table
//! cargo run --release -p spot-bench --bin bench_heops -- --json  # BENCH_heops.json to stdout
//! ```
//!
//! The JSON schema is stable (`spot-bench-heops/v1`): consumers may rely
//! on `schema`, `host`,
//! `entries[].{op,level,kernel,reps,mean_us,median_us,min_us}` and
//! `speedups`. New fields may be added; existing ones won't change
//! meaning. The `conv_batched_b{B}` entries report one full in-process
//! SPOT conv session carrying `B` images *per image* (total / B), so
//! they read directly as throughput-per-image.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::heconv::{ConvRequest, HeConvEngine};
use spot_core::layout::LaneLayout;
use spot_core::patching::PatchMode;
use spot_core::session::{run_in_process, ExecBackend, SchemeKind};
use spot_core::spot::{blocking, spot_group_specs, spot_in_maps};
use spot_he::arch;
use spot_he::evaluator::OpCounts;
use spot_he::prelude::*;
use spot_tensor::tensor::Tensor;
use std::time::Instant;

/// `(mean_us, median_us, min_us)` over `reps` timed calls after a
/// short warm-up pass (untimed, so cold caches and lazy init never
/// leak into the samples; the median is robust to scheduler spikes on
/// shared hardware).
fn time_us(reps: usize, mut f: impl FnMut()) -> (f64, f64, f64) {
    for _ in 0..(reps / 10).clamp(1, 5) {
        f();
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let mean = samples.iter().sum::<f64>() / reps as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = if reps % 2 == 1 {
        samples[reps / 2]
    } else {
        (samples[reps / 2 - 1] + samples[reps / 2]) / 2.0
    };
    (mean, median, min)
}

struct Entry {
    op: &'static str,
    level: &'static str,
    kernel: &'static str,
    reps: usize,
    mean_us: f64,
    median_us: f64,
    min_us: f64,
}

/// All measurements for one kernel backend (must already be forced).
fn measure_kernel(kernel: &'static str, entries: &mut Vec<Entry>) {
    let k = arch::kernels();
    assert_eq!(k.name, kernel, "backend must be forced before measuring");

    for (level, level_name, reps) in [
        (ParamLevel::N4096, "N4096", 200usize),
        (ParamLevel::N8192, "N8192", 100),
    ] {
        let ctx = Context::new(EncryptionParams::new(level));
        let n = ctx.degree();
        let tables = &ctx.ntt_tables()[0];
        let m = tables.modulus();
        let p = m.value();
        let coeffs: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e37_79b9 + 17) % p).collect();

        let mut push = |op, reps, (mean_us, median_us, min_us)| {
            entries.push(Entry {
                op,
                level: level_name,
                kernel,
                reps,
                mean_us,
                median_us,
                min_us,
            })
        };

        let mut a = coeffs.clone();
        push(
            "ntt_forward",
            reps,
            time_us(reps, || tables.forward(&mut a)),
        );
        push(
            "ntt_inverse",
            reps,
            time_us(reps, || tables.inverse(&mut a)),
        );

        // Pointwise product of two residue rows (the mult-plain core).
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % p).collect();
        let mut d = coeffs.clone();
        push(
            "pointwise_mul",
            reps,
            time_us(reps, || (arch::kernels().pointwise_mul)(m, &mut d, &b)),
        );

        let mut d2 = coeffs.clone();
        push(
            "pointwise_add",
            reps,
            time_us(reps, || (arch::kernels().pointwise_add)(m, &mut d2, &b)),
        );
        let s = p / 3;
        let ss = m.shoup(s);
        let mut d3 = coeffs.clone();
        push(
            "mul_scalar",
            reps,
            time_us(reps, || (arch::kernels().mul_scalar)(m, &mut d3, s, ss)),
        );

        // Key-switch digit inner loops: the Barrett lift of a residue
        // row into a smaller modulus, and the fused digit*ksk
        // multiply-accumulate.
        let small = spot_he::modulus::Modulus::new((1u64 << 30) - 35); // 2^30-35 is prime
        let mut lifted = vec![0u64; n];
        push(
            "keyswitch_digit_lift",
            reps,
            time_us(reps, || {
                (arch::kernels().reduce)(&small, &mut lifted, &coeffs)
            }),
        );
        let mut acc = vec![0u64; n];
        push(
            "keyswitch_digit_madd",
            reps,
            time_us(reps, || {
                (arch::kernels().pointwise_add_mul)(m, &mut acc, &coeffs, &b)
            }),
        );

        // Full rotation: Galois automorphism + key switch.
        let mut rng = StdRng::seed_from_u64(1);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let encoder = BatchEncoder::new(&ctx);
        let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
        let evaluator = Evaluator::new(&ctx);
        let values: Vec<u64> = (0..n as u64)
            .map(|i| i % ctx.params().plain_modulus())
            .collect();
        let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);
        if level.supports_rotation() {
            let rot_reps = reps / 10;
            let gk = keygen.galois_keys(&evaluator.galois_elements(&[1], false), &mut rng);
            push(
                "rotate",
                rot_reps,
                time_us(rot_reps, || {
                    std::hint::black_box(evaluator.rotate_rows(&ct, 1, &gk));
                }),
            );
        }
    }

    // One cached lane-MIMO convolution ciphertext (the serving hot path).
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(3);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
    let (c_in, c_out, h, w) = (8usize, 8usize, 8usize, 8usize);
    let blk = blocking(c_in, c_out);
    let layout = LaneLayout::new(ctx.degree() / 2, blk.lane_blocks, h, w);
    let kernel_t = spot_tensor::tensor::Kernel::random(c_out, c_in, 3, 3, 4, 11);
    let groups = spot_group_specs(&blk, c_out);
    let in_maps = spot_in_maps(&blk, c_in);
    let req = ConvRequest {
        layout: &layout,
        in_maps: &in_maps,
        groups: &groups,
        diagonals: blk.diagonals,
        fold_steps: &blk.fold_steps,
        kernel: &kernel_t,
        cache_tag: 0,
    };
    let engine = HeConvEngine::new(
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
        &mut rng,
    );
    let encoder = BatchEncoder::new(&ctx);
    let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 97).collect();
    let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);
    let mut counts = OpCounts::default();
    engine.conv_one_ct(&ct, &req, &mut counts); // warm the kernel cache
    let reps = 10;
    let (mean_us, median_us, min_us) = time_us(reps, || {
        std::hint::black_box(engine.conv_one_ct(&ct, &req, &mut counts));
    });
    entries.push(Entry {
        op: "conv_one_ct",
        level: "N4096",
        kernel,
        reps,
        mean_us,
        median_us,
        min_us,
    });
}

/// Cross-image batching throughput: one full in-process SPOT conv
/// session carrying `B` images of a low-occupancy layer (2×8×8 → 4
/// channels fills well under half the N4096 slots), reported **per
/// image** (total session time / B). The rotation and key-switch
/// schedule runs once for the whole batch, so per-image time drops
/// roughly as 1/B.
fn measure_batched(kernel: &'static str, entries: &mut Vec<Entry>) {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(5);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let kernel_t = spot_tensor::tensor::Kernel::random(4, 2, 3, 3, 3, 7);
    let backend = ExecBackend::Phased(Executor::serial());
    for (b, op) in [
        (1usize, "conv_batched_b1"),
        (2, "conv_batched_b2"),
        (4, "conv_batched_b4"),
    ] {
        let inputs: Vec<Tensor> = (0..b as u64)
            .map(|i| Tensor::random(2, 8, 8, 5, 9 + i))
            .collect();
        let reps = 5;
        let (mean_us, median_us, min_us) = time_us(reps, || {
            let mut r = StdRng::seed_from_u64(11);
            std::hint::black_box(
                run_in_process(
                    &ctx,
                    &keygen,
                    &inputs,
                    &kernel_t,
                    1,
                    (4, 4),
                    PatchMode::Tweaked,
                    SchemeKind::Spot,
                    &backend,
                    &mut r,
                )
                .expect("batched conv session"),
            );
        });
        entries.push(Entry {
            op,
            level: "N4096",
            kernel,
            reps,
            mean_us: mean_us / b as f64,
            median_us: median_us / b as f64,
            min_us: min_us / b as f64,
        });
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn emit_json(dispatched: &str, entries: &[Entry]) {
    let avail: Vec<&str> = arch::available().iter().map(|k| k.name).collect();
    println!("{{");
    println!("  \"schema\": \"spot-bench-heops/v1\",");
    println!(
        "  \"generated_by\": \"cargo run --release -p spot-bench --bin bench_heops -- --json\","
    );
    println!(
        "  \"caveats\": \"Measured on a single CPU core inside a shared container; \
         absolute times are noisy and machine-dependent. Compare kernels within one \
         file only — both columns come from the same run and process. \
         min_us is the more stable statistic on shared hardware.\","
    );
    println!("  \"host\": {{");
    println!("    \"arch\": \"{}\",", json_escape(std::env::consts::ARCH));
    println!(
        "    \"available_kernels\": [{}],",
        avail
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("    \"dispatched\": \"{}\"", json_escape(dispatched));
    println!("  }},");
    println!("  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        println!(
            "    {{\"op\": \"{}\", \"level\": \"{}\", \"kernel\": \"{}\", \
             \"reps\": {}, \"mean_us\": {:.3}, \"median_us\": {:.3}, \"min_us\": {:.3}}}{}",
            e.op,
            e.level,
            e.kernel,
            e.reps,
            e.mean_us,
            e.median_us,
            e.min_us,
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    println!("  ],");
    // Scalar-vs-dispatched ratios (scalar min / simd min), per op+level.
    let mut lines = Vec::new();
    for e in entries.iter().filter(|e| e.kernel != "scalar") {
        if let Some(s) = entries
            .iter()
            .find(|s| s.kernel == "scalar" && s.op == e.op && s.level == e.level)
        {
            lines.push(format!(
                "    \"{}/{}\": {:.2}",
                e.op,
                e.level,
                s.min_us / e.min_us
            ));
        }
    }
    println!("  \"speedup_scalar_over\": \"min_us ratios: scalar / dispatched\",");
    println!("  \"speedups\": {{");
    println!("{}", lines.join(",\n"));
    println!("  }}");
    println!("}}");
}

fn emit_table(entries: &[Entry]) {
    println!(
        "{:<22} {:<6} {:<8} {:>8} {:>12} {:>12} {:>12}",
        "op", "level", "kernel", "reps", "mean_us", "median_us", "min_us"
    );
    for e in entries {
        println!(
            "{:<22} {:<6} {:<8} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            e.op, e.level, e.kernel, e.reps, e.mean_us, e.median_us, e.min_us
        );
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    // Resolve the normal startup dispatch first so the file records what
    // production would pick on this host.
    let dispatched = arch::active_name();

    let mut entries = Vec::new();
    for k in ["scalar", dispatched] {
        arch::force(k).expect("backend reported available");
        measure_kernel(k, &mut entries);
        if k == dispatched {
            break; // dispatched == scalar: one pass is the whole story
        }
    }
    arch::force(dispatched).expect("restore dispatched backend");
    // Batching amortization is a protocol property, not a kernel one:
    // measure it once under the production dispatch.
    measure_batched(dispatched, &mut entries);

    if json {
        emit_json(dispatched, &entries);
    } else {
        emit_table(&entries);
    }
}
