//! Serving benchmark for SPOT: starts the real `spot-server`, drives it
//! over TCP loopback with one of three workloads, checks every output
//! against the plaintext forward pass, and prints one JSON result line.
//!
//! ```text
//! perfbench --server PATH --work-dir DIR --workload NAME --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports the per-layer metrics: half the window untraced
//! (server `/metrics` scrape, wire tallies), an HE calibration pass,
//! then half the window with both parties tracing.

mod calib;
mod server;
mod stats;
mod traced;
mod wiretap;
mod workload;

use server::{proc_cpu_seconds, remove_tree, Launch, PeakProbe, ServerProc};
use spot_bench::check::MetricMap;
use spot_trace::correlate::PartyTrace;
use spot_trace::Counter;
use stats::{median, percentile, valid_metric_name};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::{run_window, warm_up, Inputs, Window, Workload, OPEN_RATE};

/// Cold starts measured per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Interval over which peak RSS is taken; the reported peak is the
/// median of the window's interval peaks, so one chance overlap of
/// sessions does not set it.
const PEAK_INTERVAL: Duration = Duration::from_secs(3);

/// Connection limit of the traced server; it exits (writing its trace)
/// once this many connections have been accepted.
const TRACED_SERVE_LIMIT: usize = 400;

struct Args {
    server: PathBuf,
    work_dir: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let name = value("--workload")?;
    Ok(Args {
        server: value("--server")?.into(),
        work_dir: value("--work-dir")?.into(),
        workload: Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    })
}

/// One metric of the result: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The result line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, &(name, value, unit)) in self.metrics.iter().enumerate() {
            if !valid_metric_name(name) || !value.is_finite() {
                return Err(format!("metric {name} = {value} cannot be reported"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Every server is reaped inside `run`, before any exit below.
    let result = run(&args);
    remove_tree(&args.work_dir.join(std::process::id().to_string()));
    match result.and_then(|r| Ok((r.json()?, r.correct))) {
        Ok((json, correct)) => {
            println!("{json}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    if !args.server.is_file() {
        return Err(format!("no server binary at {}", args.server.display()));
    }
    let data = Inputs::generate(args.seed);
    let launch = Launch {
        binary: args.server.clone(),
        seed: args.seed,
        trace: None,
        serve_limit: None,
    };
    println!(
        "perfbench: workload {} seed {} window {}s trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    if args.trace {
        per_layer(args, &data, launch)
    } else {
        end_to_end(args, &data, &launch)
    }
}

/// Spawns a cold server and runs one correct inference on it; returns
/// the server and the time from spawn to that result.
fn cold_start(data: &Inputs, w: Workload, launch: &Launch) -> Result<(ServerProc, f64), String> {
    let (kg, mut rng) = data.client_keys(1000);
    let sink = wiretap::TallySink::default();
    let t0 = Instant::now();
    let server = ServerProc::spawn(launch)?;
    let got = workload::connect(&server.addr, w.emulation(), &sink)
        .and_then(|t| workload::infer(data, &kg, &mut rng, t.as_ref(), &data.inputs[..1]))
        .map_err(|e| format!("first inference: {e} ({})", server.tail_text()))?;
    if got.first() != data.wants.first() {
        return Err("first inference: output does not match the plaintext pass".into());
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Prints a percentile with its sample count; an error when the window
/// has no correct request.
fn show(name: &str, p: Option<stats::Percentile>) -> Result<f64, String> {
    let p = p.ok_or(format!("{name}: no correct request in the window"))?;
    let note = if p.beyond < 10 {
        " (fewer than 10 samples beyond it)"
    } else {
        ""
    };
    println!(
        "perfbench: {name} = {:.4} s over {} samples, {} beyond{note}",
        p.value, p.samples, p.beyond
    );
    Ok(p.value)
}

/// Checks common to both kinds of run; returns whether the window is
/// valid.
fn check_window(w: Workload, win: &Window) -> bool {
    println!(
        "perfbench: {} attempted, {} correct, {} mismatched, {} errors, {} rejected, \
         {} connections, failed_ratio {:.4}",
        win.attempted,
        win.correct,
        win.mismatched,
        win.errors,
        win.rejected,
        win.connections,
        win.failed() as f64 / win.attempted.max(1) as f64
    );
    let mut ok = win.mismatched == 0 && win.correct > 0;
    if win.tally.stat_mismatches > 0 {
        println!(
            "perfbench: INVALID: {} connections' wire tally differs from the transport's",
            win.tally.stat_mismatches
        );
        ok = false;
    }
    if let Some(late) = win.max_lateness {
        // Falling half an inter-arrival gap behind means the schedule
        // was not kept.
        let limit = Duration::from_secs_f64(0.5 / OPEN_RATE);
        println!(
            "perfbench: generator max lateness {:.2} ms (limit {:.0} ms)",
            late.as_secs_f64() * 1e3,
            limit.as_secs_f64() * 1e3
        );
        if late > limit {
            println!("perfbench: INVALID: the open-loop generator fell behind");
            ok = false;
        }
    }
    if w == Workload::TenantOpen {
        println!(
            "perfbench: {} images over {} sessions",
            win.tally.images, win.tally.sessions
        );
    }
    ok
}

fn end_to_end(args: &Args, data: &Inputs, launch: &Launch) -> Result<Report, String> {
    let w = args.workload;
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let (s, t) = cold_start(data, w, launch)?;
        setups.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one cold start");
    warm_up(data, w, &server.addr)?;

    let probes = [PeakProbe::of("self"), server.peak_probe()];
    for probe in &probes {
        probe.take()?;
    }
    let client_cpu0 = proc_cpu_seconds("/proc/self/stat")?;
    let server_cpu0 = server.cpu_seconds()?;
    let done = AtomicBool::new(false);
    let (win, peaks) = std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_peaks(&probes, &done));
        let win = run_window(data, w, &server.addr, Duration::from_secs(args.seconds));
        done.store(true, Ordering::Relaxed);
        (win, sampler.join().expect("peak sampler panicked"))
    });
    let [client_rss, server_rss] = peaks?;
    let client_cpu = proc_cpu_seconds("/proc/self/stat")? - client_cpu0;
    let server_cpu = server.cpu_seconds()? - server_cpu0;
    drop(server);
    let correct = check_window(w, &win);

    let n = win.correct.max(1) as f64;
    let images = win.tally.images.max(1) as f64;
    let setup_s = median(&setups).expect("setups ran");
    println!("perfbench: setup_s samples {setups:?}");
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        (
            "latency_p50_s",
            show("latency_p50_s", percentile(&win.latencies, 0.5))?,
            "s",
        ),
        (
            "latency_p90_s",
            show("latency_p90_s", percentile(&win.latencies, 0.9))?,
            "s",
        ),
        ("throughput_ips", win.correct as f64 / win.wall_s, "1/s"),
        (
            "wire_mb_per_inference",
            win.tally.bytes() as f64 / 1e6 / images,
            "MB",
        ),
        ("client_cpu_ms_per_inference", client_cpu * 1e3 / n, "ms"),
        ("server_cpu_ms_per_inference", server_cpu * 1e3 / n, "ms"),
        (
            "client_peak_rss_mb",
            median(&client_rss).expect("sampled"),
            "MB",
        ),
        (
            "server_peak_rss_mb",
            median(&server_rss).expect("sampled"),
            "MB",
        ),
    ];
    Ok(Report {
        correct,
        attempted: win.attempted,
        failed: win.failed(),
        metrics,
    })
}

/// Takes each probe's peak every [`PEAK_INTERVAL`] until `done`, plus
/// the last partial interval.
fn sample_peaks(probes: &[PeakProbe; 2], done: &AtomicBool) -> Result<[Vec<f64>; 2], String> {
    let mut peaks = [Vec::new(), Vec::new()];
    let mut next = Instant::now() + PEAK_INTERVAL;
    loop {
        let finished = done.load(Ordering::Relaxed);
        if finished || Instant::now() >= next {
            for (probe, out) in probes.iter().zip(&mut peaks) {
                out.push(probe.take()?);
            }
            next += PEAK_INTERVAL;
        }
        if finished {
            return Ok(peaks);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Two `/metrics` scrapes bracketing a window.
struct Scrape {
    before: MetricMap,
    after: MetricMap,
}

impl Scrape {
    /// Change of one series over the window.
    fn delta(&self, key: &str) -> f64 {
        let get = |m: &MetricMap| m.get(key).copied().unwrap_or(0.0);
        get(&self.after) - get(&self.before)
    }

    /// Change of one `spot_server_ops` counter.
    fn op(&self, op: &str) -> f64 {
        self.delta(&format!("spot_server_ops{{op=\"{op}\"}}"))
    }

    /// Mean sample of a histogram over the window.
    fn mean(&self, base: &str, labels: &str) -> f64 {
        let count = self.delta(&format!("{base}_count{labels}"));
        ratio(self.delta(&format!("{base}_sum{labels}")), count)
    }

    /// Mean sample of a nanosecond histogram over the window, in ms.
    fn mean_ms(&self, base: &str) -> f64 {
        self.mean(base, "") / 1e6
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(args: &Args, data: &Inputs, mut launch: Launch) -> Result<Report, String> {
    let w = args.workload;
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);

    // Untraced half: server scrape and wire tallies.
    let (server, _) = cold_start(data, w, &launch)?;
    warm_up(data, w, &server.addr)?;
    let before = server.scrape()?;
    let plain = run_window(data, w, &server.addr, half);
    let sc = Scrape {
        before,
        after: server.scrape()?,
    };
    drop(server);
    let mut correct = check_window(w, &plain);
    let plain_p50 = show("untraced latency_p50_s", percentile(&plain.latencies, 0.5))?;

    // HE calibration on the objects the workload sent.
    let (keys, ct) = match (&plain.tally.sample_keys, &plain.tally.sample_ct) {
        (Some(k), Some(c)) => (k, c),
        _ => return Err("no rotation keys or ciphertext seen on the wire".into()),
    };
    let he = calib::calibrate(&data.ctx, keys, ct, args.seed)?;

    // Traced half: both parties tracing, wire trace context on.
    let dir = args.work_dir.join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace_path = dir.join("server-trace.json");
    launch.trace = Some(trace_path.clone());
    launch.serve_limit = Some(TRACED_SERVE_LIMIT);
    spot_bench::traceio::trace_begin();
    let (server, _) = cold_start(data, w, &launch)?;
    warm_up(data, w, &server.addr)?;
    // The cold start's session and the warm-up's.
    let warm_sessions = 2;
    let counters0 = spot_trace::counters();
    let t_from = spot_trace::trace_now_ns();
    let traced = run_window(data, w, &server.addr, half);
    let t_to = spot_trace::trace_now_ns();
    let client_ops = spot_trace::counters().delta(&counters0);
    let client = PartyTrace {
        events: spot_trace::take_events(),
        threads: spot_trace::thread_names(),
    };
    spot_trace::disable_wire_context();
    spot_trace::disable();
    correct &= check_window(w, &traced);
    let traced_p50 = show("traced latency_p50_s", percentile(&traced.latencies, 0.5))?;
    // Let the server reach its connection limit so it exits and writes
    // its trace.
    let used = warm_sessions + traced.connections;
    if used >= TRACED_SERVE_LIMIT {
        return Err(format!(
            "traced window opened {used} connections, over the limit"
        ));
    }
    for _ in used..TRACED_SERVE_LIMIT {
        drop(std::net::TcpStream::connect(&server.addr));
    }
    server.wait_exit(Duration::from_secs(60))?;
    let server_trace = spot_bench::traceio::read_trace(&trace_path)?;
    let split = traced::split(&client, &server_trace, 2 * warm_sessions);
    let client_self = traced::self_ms(&client.events, t_from, t_to);
    let server_self = traced::self_ms(&split.server_events, t_from, t_to);

    let t = &plain.tally;
    let images = t.images.max(1) as f64;
    let timages = traced.tally.images.max(1) as f64;
    let sessions = t.sessions.max(1) as f64;
    let total = |key: &str| sc.after.get(key).copied().unwrap_or(0.0);
    let (builds, hits) = (
        total("spot_kernel_cache_builds"),
        total("spot_kernel_cache_hits"),
    );
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mb = |kinds: &[&str]| t.bytes_of(kinds) as f64 / 1e6 / images;
    let client_op = |c: Counter| client_ops.get(c) as f64 / timages;
    let rounds = sc.delta("spot_relu_round_ns_count") + sc.delta("spot_maxpool_round_ns_count");
    let mut metrics: Vec<Metric> = vec![
        ("he.galois_to_bytes_ms", he.galois_to_bytes_ms, "ms"),
        ("he.galois_from_bytes_ms", he.galois_from_bytes_ms, "ms"),
        ("he.ct_to_bytes_us", he.ct_to_bytes_us, "us"),
        ("he.ct_from_bytes_us", he.ct_from_bytes_us, "us"),
        ("he.galois_keygen_ms", he.galois_keygen_ms, "ms"),
        ("he.encrypt_us", he.encrypt_us, "us"),
        ("he.decrypt_us", he.decrypt_us, "us"),
        ("he.rotate_us", he.rotate_us, "us"),
        ("he.ntt_fwd_us", he.ntt_fwd_us, "us"),
        ("he.rotate_per_inf", sc.op("rotate") / images, "count"),
        (
            "he.key_switch_per_inf",
            sc.op("key_switch") / images,
            "count",
        ),
        (
            "he.ntt_per_inf",
            (sc.op("ntt_fwd") + sc.op("ntt_inv")) / images,
            "count",
        ),
        ("he.encrypt_per_inf", client_op(Counter::Encrypt), "count"),
        ("he.decrypt_per_inf", client_op(Counter::Decrypt), "count"),
        (
            "he.pool_hit_ratio",
            ratio(sc.op("pool_hit"), sc.op("pool_hit") + sc.op("pool_miss")),
            "ratio",
        ),
        (
            "conv.serve_ms",
            sc.mean("spot_conv_serve_ns", "{scheme=\"spot\"}") / 1e6,
            "ms",
        ),
        (
            "conv.stream_conv_ms",
            sc.mean_ms("spot_stream_conv_ns"),
            "ms",
        ),
        (
            "conv.kernel_cache_hit_ratio",
            ratio(hits, hits + builds),
            "ratio",
        ),
        ("conv.kernel_cache_builds", builds, "count"),
        ("session.key_phase_ms", ms(t.key_phase) / sessions, "ms"),
        (
            "session.encrypt_phase_ms",
            ms(t.encrypt_phase) / sessions,
            "ms",
        ),
        ("session.recv_wait_ms", ms(t.recv_wait()) / sessions, "ms"),
        (
            "stream.overlap_efficiency",
            sc.mean("spot_overlap_efficiency_ppm", "") / 1e6,
            "ratio",
        ),
        (
            "stream.server_idle_ms",
            sc.mean_ms("spot_overlap_server_idle_ns"),
            "ms",
        ),
        (
            "stream.client_blocked_ms",
            sc.mean_ms("spot_overlap_client_blocked_ns"),
            "ms",
        ),
        (
            "stream.queue_blocked_ms",
            sc.delta("spot_stream_queue_blocked_ns_sum") / 1e6 / sessions,
            "ms",
        ),
        (
            "twoparty.relu_round_ms",
            sc.mean_ms("spot_relu_round_ns"),
            "ms",
        ),
        (
            "twoparty.maxpool_round_ms",
            sc.mean_ms("spot_maxpool_round_ns"),
            "ms",
        ),
        ("twoparty.rounds_per_inf", rounds / images, "count"),
        (
            "serving.session_wall_ms",
            sc.mean_ms("spot_session_wall_ns"),
            "ms",
        ),
        (
            "serving.sessions_per_inf",
            sc.delta("spot_sessions_served") / images,
            "count",
        ),
        ("serving.batch_images_mean", images / sessions, "count"),
        (
            "serving.queue_wait_ms_p50",
            percentile(&plain.queue_waits, 0.5).map_or(0.0, |p| p.value * 1e3),
            "ms",
        ),
        (
            "serving.generator_max_lateness_ms",
            plain.max_lateness.map_or(0.0, ms),
            "ms",
        ),
        (
            "serving.rejected",
            sc.delta("spot_sessions_rejected"),
            "count",
        ),
        ("serving.failed", sc.delta("spot_sessions_failed"), "count"),
        (
            "failed_ratio",
            plain.failed() as f64 / plain.attempted.max(1) as f64,
            "ratio",
        ),
        ("proto.galois_mb_per_inf", mb(&["galois_keys"]), "MB"),
        ("proto.ct_up_mb_per_inf", mb(&["packed_ct", "aux_ct"]), "MB"),
        ("proto.result_mb_per_inf", mb(&["masked_result"]), "MB"),
        (
            "proto.ot_kb_per_inf",
            mb(&["ot_round", "share_reveal"]) * 1e3,
            "KB",
        ),
        ("proto.frames_per_inf", t.frames() as f64 / images, "count"),
        ("proto.send_blocked_ms", ms(t.send_blocked) / images, "ms"),
        ("trace.overhead_ratio", traced_p50 / plain_p50, "ratio"),
        ("trace.both_busy_ms", split.both_busy_ms / timages, "ms"),
        ("trace.client_only_ms", split.client_only_ms / timages, "ms"),
        ("trace.server_only_ms", split.server_only_ms / timages, "ms"),
        ("trace.both_idle_ms", split.both_idle_ms / timages, "ms"),
        ("trace.overlap_efficiency", split.efficiency, "ratio"),
    ];
    const CLIENT_SELF: [&str; 6] = [
        "trace.client_self_ms.bench",
        "trace.client_self_ms.session",
        "trace.client_self_ms.twoparty",
        "trace.client_self_ms.proto",
        "trace.client_self_ms.stream",
        "trace.client_self_ms.he",
    ];
    const SERVER_SELF: [&str; 6] = [
        "trace.server_self_ms.serving",
        "trace.server_self_ms.session",
        "trace.server_self_ms.twoparty",
        "trace.server_self_ms.proto",
        "trace.server_self_ms.stream",
        "trace.server_self_ms.he",
    ];
    for (names, values) in [(CLIENT_SELF, client_self), (SERVER_SELF, server_self)] {
        for (name, v) in names.into_iter().zip(values) {
            metrics.push((name, v / timages, "ms"));
        }
    }
    println!(
        "perfbench: traced window {} layers, {} images; he.galois_to_bytes_ms {:.1}, \
         proto.galois_mb_per_inf {:.3}",
        split.layers,
        traced.tally.images,
        he.galois_to_bytes_ms,
        mb(&["galois_keys"])
    );
    Ok(Report {
        correct,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed() + traced.failed(),
        metrics,
    })
}
