//! Measured streaming-pipeline timeline: runs each scheme through the
//! real streaming runtime (`spot-core::stream`) on a scaled-down
//! Table-I-class layer with a single-thread server and a 2-ciphertext
//! client budget, then dumps the measured stall table, a Gantt-style
//! span trace per scheme (from the `spot-trace` layer), and the
//! spot-he buffer pool's steady-state allocation counters.
//!
//! ```text
//! stream-timeline [--trace out.json]
//! ```
//!
//! With `--trace` the full run (all three schemes) is also exported as
//! Chrome-trace JSON loadable in Perfetto / `chrome://tracing`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::inference::{run_conv_backend, ExecBackend, Scheme};
use spot_core::patching::PatchMode;
use spot_core::stream::{StreamConfig, StreamStats};
use spot_he::pool;
use spot_he::prelude::*;
use spot_pipeline::report::stall_table;
use spot_tensor::tensor::{Kernel, Tensor};
use spot_trace::{Cat, Event, Phase};

const MAX_EVENTS: usize = 48;

/// Lane label for a recorded thread id: the thread's trace label when
/// it set one (`client`, `server-0`, ...), else the session thread
/// that runs result assembly.
fn lane_of(threads: &[(u32, String)], tid: u32) -> &str {
    threads
        .iter()
        .find(|(t, _)| *t == tid)
        .map(|(_, n)| n.as_str())
        .unwrap_or("assemble")
}

fn dump_gantt(scheme: Scheme, stats: &StreamStats, events: &[Event], threads: &[(u32, String)]) {
    println!(
        "--- {} timeline ({} in cts, {} out cts, wall {:.3}s) ---",
        scheme.name(),
        stats.input_items,
        stats.output_items,
        stats.wall_s
    );
    // Pipeline-level spans only: the per-frame Net spans and HE counters
    // would drown the Gantt view (they stay in the JSON export).
    let spans: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.phase, Phase::Span { .. }))
        .filter(|e| matches!(e.cat, Cat::Client | Cat::Stream))
        .collect();
    let t0 = spans.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    for ev in spans.iter().take(MAX_EVENTS) {
        let lane = lane_of(threads, ev.tid);
        let indent = if lane == "client" {
            0
        } else if lane.starts_with("server-") {
            24
        } else {
            48
        };
        println!(
            "{:>8.3}s {:>8.3}s {:indent$}{} [{}]",
            (ev.ts_ns - t0) as f64 / 1e9,
            (ev.end_ns() - t0) as f64 / 1e9,
            "",
            ev.name.as_str(),
            lane,
            indent = indent
        );
    }
    if spans.len() > MAX_EVENTS {
        println!("... ({} more events)", spans.len() - MAX_EVENTS);
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let trace_baseline = spot_bench::traceio::trace_begin();

    let ctx = spot_he::context::Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut keyrng = StdRng::seed_from_u64(5150);
    let keygen = KeyGenerator::new(&ctx, &mut keyrng);
    // Scaled-down Table-I-class layer: 16x16 map, C_i = 32 → two
    // channel-wise input ciphertexts at N4096, so the all-input barrier
    // schemes really serialize their upload.
    let input = Tensor::random(32, 16, 16, 4, 81);
    let kernel = Kernel::random(4, 32, 3, 3, 3, 82);
    let cfg = StreamConfig::new(Executor::serial(), 2);

    println!("Streamed conv layer: 16x16, C_i=32 -> C_o=4, k=3 at N4096");
    println!("server = 1 thread, client ciphertext budget (channel capacity) = 2\n");

    let mut rows = Vec::new();
    let mut timelines = Vec::new();
    let mut all_events: Vec<Event> = Vec::new();
    for scheme in Scheme::ALL {
        let _ = spot_trace::take_events(); // clear any setup noise
        let mut rng = StdRng::seed_from_u64(7000);
        let (_, stats) = run_conv_backend(
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
        let stats = stats.expect("streaming backend reports stats");
        rows.push(stats.stall_row(scheme.name()));
        let events = spot_trace::take_events();
        all_events.extend(events.iter().cloned());
        timelines.push((scheme, stats, events));
    }
    let threads = spot_trace::thread_names();
    println!(
        "{}",
        stall_table("Measured stall accounting (single-thread server)", &rows)
    );
    println!(
        "SPOT's per-input streaming keeps the server busy during the upload;\n\
         the all-input schemes park every worker until the last ciphertext\n\
         lands (\"server idle\" = the paper's linear computation stall).\n"
    );

    for (scheme, stats, events) in &timelines {
        dump_gantt(*scheme, stats, events, &threads);
    }

    // Buffer-pool steady state: the same serial phased layer twice on
    // this thread — the second (warm) run draws its polynomial buffers
    // from the pool instead of the allocator.
    println!("== spot-he buffer pool: cold vs warm serial SPOT layer ==");
    let small_in = Tensor::random(4, 8, 8, 8, 11);
    let small_k = Kernel::random(4, 4, 3, 3, 4, 12);
    // Give the pool room for a whole layer's buffers so the warm run
    // measures pure steady-state reuse (streamed runs instead bound the
    // producer pool by the client's ciphertext budget).
    let prev_cap = pool::capacity();
    pool::set_capacity(512);
    pool::clear();
    pool::reset_stats();
    let mut rng = StdRng::seed_from_u64(9900);
    let _ = spot_core::spot::execute(
        &ctx,
        &keygen,
        &small_in,
        &small_k,
        1,
        (4, 4),
        PatchMode::Tweaked,
        &mut rng,
    );
    let cold = pool::stats();
    pool::reset_stats();
    let _ = spot_core::spot::execute(
        &ctx,
        &keygen,
        &small_in,
        &small_k,
        1,
        (4, 4),
        PatchMode::Tweaked,
        &mut rng,
    );
    let warm = pool::stats();
    for (tag, s) in [("cold", &cold), ("warm", &warm)] {
        println!(
            "{tag}: fresh {:>6}  reused {:>6}  recycled {:>6}  dropped {:>6}  (reuse {:.1}%)",
            s.fresh,
            s.reused,
            s.recycled,
            s.dropped,
            100.0 * s.reused as f64 / s.takes().max(1) as f64
        );
    }
    pool::set_capacity(prev_cap);
    println!(
        "\nSteady state: the warm layer's fresh allocations drop {:.0}x\n\
         while its buffer reuse covers {:.1}% of takes.",
        cold.fresh as f64 / (warm.fresh.max(1)) as f64,
        100.0 * warm.reused as f64 / warm.takes().max(1) as f64
    );

    if let Some(path) = &trace_path {
        // Re-seed the sink with everything drained per scheme (plus the
        // pool exercise above) so the export covers the whole run.
        let pool_events = spot_trace::take_events();
        all_events.extend(pool_events);
        let json = spot_trace::chrome::chrome_trace_json_with_threads(&all_events, &threads);
        spot_bench::traceio::write_trace_json(std::path::Path::new(path), &json);
        let delta = spot_trace::counters().delta(&trace_baseline);
        println!("trace: {} events, JSON OK -> {path}", all_events.len());
        println!("{}", spot_trace::summary::text_summary(&all_events, &delta));
    }
}
