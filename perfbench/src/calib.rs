//! HE calibration pass: times direct calls into `spot-he` at N4096 on
//! the workload's own objects (the rotation-key set and an input
//! ciphertext captured off the wire), each the median of several calls.

use crate::stats::median;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_he::ciphertext::Ciphertext;
use spot_he::context::Context;
use spot_he::encoding::BatchEncoder;
use spot_he::encryptor::{Decryptor, Encryptor};
use spot_he::evaluator::Evaluator;
use spot_he::keys::KeyGenerator;
use spot_he::serial::{galois_keys_from_bytes, galois_keys_to_bytes};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median call times of the HE operations the workloads lean on.
#[derive(Debug, Clone, Copy)]
pub struct HeTimes {
    /// Serializing the workload's rotation-key set, ms.
    pub galois_to_bytes_ms: f64,
    /// Parsing it back with validation, ms.
    pub galois_from_bytes_ms: f64,
    /// Generating a key set for the same Galois elements, ms.
    pub galois_keygen_ms: f64,
    /// Serializing one input ciphertext, µs.
    pub ct_to_bytes_us: f64,
    /// Parsing it back, µs.
    pub ct_from_bytes_us: f64,
    /// Encoding + public-key encryption of one ciphertext, µs.
    pub encrypt_us: f64,
    /// Decrypting one ciphertext, µs.
    pub decrypt_us: f64,
    /// One rotation (automorphism + key switch), µs.
    pub rotate_us: f64,
    /// One forward NTT of a single residue polynomial, µs.
    pub ntt_fwd_us: f64,
}

/// Median of `reps` timed calls of `f`, in seconds.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).expect("at least one repetition")
}

/// Runs the calibration on `keys_blob` (a serialized `GaloisKeys` the
/// client sent) and `ct_blob` (a serialized input ciphertext).
pub fn calibrate(
    ctx: &Arc<Context>,
    keys_blob: &[u8],
    ct_blob: &[u8],
    seed: u64,
) -> Result<HeTimes, String> {
    let gk = galois_keys_from_bytes(ctx, keys_blob).map_err(|e| format!("galois keys: {e}"))?;
    let elements: Vec<usize> = gk.elements().collect();
    let ct = Ciphertext::from_bytes(ctx, ct_blob);

    let galois_to_bytes_ms = time(3, || galois_keys_to_bytes(&gk)) * 1e3;
    let galois_from_bytes_ms = time(3, || galois_keys_from_bytes(ctx, keys_blob)) * 1e3;
    let ct_to_bytes_us = time(50, || ct.to_bytes()) * 1e6;
    let ct_from_bytes_us = time(50, || Ciphertext::from_bytes(ctx, ct_blob)) * 1e6;

    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(ctx, &mut rng);
    let mut own_keys = None;
    let galois_keygen_ms = time(3, || {
        own_keys = Some(kg.galois_keys(&elements, &mut rng));
    }) * 1e3;
    let own_keys = own_keys.expect("keygen ran");

    let encoder = BatchEncoder::new(ctx);
    let slots: Vec<u64> = (0..encoder.slot_count() as u64).map(|i| i % 7).collect();
    let encryptor = Encryptor::new(ctx, kg.public_key(&mut rng));
    let encrypt_us = time(50, || encryptor.encrypt(&encoder.encode(&slots), &mut rng)) * 1e6;
    let fresh = encryptor.encrypt(&encoder.encode(&slots), &mut rng);
    let decryptor = Decryptor::new(ctx, kg.secret_key().clone());
    let decrypt_us = time(50, || decryptor.decrypt(&fresh)) * 1e6;
    let evaluator = Evaluator::new(ctx);
    let g = *elements.first().ok_or("rotation-key set is empty")?;
    let rotate_us = time(30, || evaluator.apply_galois(&fresh, g, &own_keys)) * 1e6;

    let tables = &ctx.ntt_tables()[0];
    let p = tables.modulus().value();
    let poly: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * 7919) % p).collect();
    let ntt_fwd_us = time(200, || {
        let mut a = poly.clone();
        tables.forward(&mut a);
        a
    }) * 1e6;

    Ok(HeTimes {
        galois_to_bytes_ms,
        galois_from_bytes_ms,
        galois_keygen_ms,
        ct_to_bytes_us,
        ct_from_bytes_us,
        encrypt_us,
        decrypt_us,
        rotate_us,
        ntt_fwd_us,
    })
}
