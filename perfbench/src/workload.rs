//! The three workloads: how each drives the live server, and what one
//! measured window of it yields.

use crate::stats::{due_latency, lateness, Schedule};
use crate::wiretap::{Emulation, TallySink, WireTally, Wiretap};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::error::SpotError;
use spot_core::inference::TinyCnn;
use spot_core::patching::PatchMode;
use spot_core::serving::{RequestSlot, TenantGateway};
use spot_core::session::SchemeKind;
use spot_core::twoparty::run_client_batch;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_proto::{error_code, TcpTransport, Transport};
use spot_tensor::tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// SPOT patch size every workload uses.
const PATCH: (usize, usize) = (4, 4);

/// Distinct inputs generated per run; requests cycle through them.
pub const INPUTS: usize = 256;

/// Arrival rate of `tenant-open`: about 70% of the
/// batched capacity (≈ 5 images/s at batch 4 on a 2-core x86-64 host).
pub const OPEN_RATE: f64 = 3.5;

/// Batch cap of the `tenant-open` gateway.
pub const OPEN_BATCH_CAP: usize = 4;

/// Latency cap of the `tenant-open` gateway: a partial batch leaves at
/// most this long after its oldest request. It exceeds the mean time
/// [`OPEN_BATCH_CAP`] arrivals take at [`OPEN_RATE`] (≈ 0.86 s), so
/// most batches leave full and the batch makeup is set by the arrival
/// schedule rather than by scheduling noise.
pub const OPEN_LATENCY_CAP: Duration = Duration::from_millis(1000);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 2 clients, one fresh batch-1 session per inference.
    DirectClosed,
    /// Open loop at [`OPEN_RATE`] through one tenant gateway.
    TenantOpen,
    /// Closed loop, 1 client, every client frame paying Nexus 6 delays.
    TinyClientWlan,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::DirectClosed,
        Workload::TenantOpen,
        Workload::TinyClientWlan,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DirectClosed => "direct-closed",
            Workload::TenantOpen => "tenant-open",
            Workload::TinyClientWlan => "tiny-client-wlan",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client-side delays the workload's connections pay.
    pub fn emulation(self) -> Option<Emulation> {
        match self {
            Workload::TinyClientWlan => Some(Emulation::nexus6()),
            _ => None,
        }
    }

    /// Closed-loop client threads (`tenant-open` has one submitter).
    fn clients(self) -> usize {
        match self {
            Workload::DirectClosed => 2,
            Workload::TenantOpen | Workload::TinyClientWlan => 1,
        }
    }
}

/// The generated inputs and their plaintext reference outputs,
/// computed before any timing starts.
pub struct Inputs {
    /// HE context (N4096) shared by every client.
    pub ctx: Arc<Context>,
    /// The model architecture (its weights stay with the server).
    pub cnn: TinyCnn,
    /// Request inputs.
    pub inputs: Vec<Tensor>,
    /// `cnn.forward_plain` of each input.
    pub wants: Vec<Tensor>,
    /// The run's seed.
    pub seed: u64,
}

impl Inputs {
    /// Generates [`INPUTS`] inputs from `seed`.
    pub fn generate(seed: u64) -> Self {
        use spot_he::params::{EncryptionParams, ParamLevel};
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        // The weights seed must match the server's model (`TinyCnn::new(7)`).
        let cnn = TinyCnn::new(7);
        let inputs: Vec<Tensor> = (0..INPUTS as u64)
            .map(|i| Tensor::random(2, 8, 8, 5, splitmix(seed ^ splitmix(i))))
            .collect();
        let wants = inputs.iter().map(|x| cnn.forward_plain(x)).collect();
        Self {
            ctx,
            cnn,
            inputs,
            wants,
            seed,
        }
    }

    /// A client's key generator and session rng, derived from the seed.
    pub fn client_keys(&self, client: u64) -> (KeyGenerator, StdRng) {
        let mut rng = StdRng::seed_from_u64(splitmix(self.seed ^ (0x00C1_1E47 + client)));
        let kg = KeyGenerator::new(&self.ctx, &mut rng);
        (kg, rng)
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Opens one decorated connection to the server.
pub fn connect(
    addr: &str,
    emulation: Option<Emulation>,
    sink: &TallySink,
) -> Result<Box<dyn Transport>, SpotError> {
    let _span = spot_trace::span(spot_trace::Cat::App, "bench connect");
    let tcp = TcpTransport::connect(addr).map_err(SpotError::Proto)?;
    Ok(Box::new(Wiretap::new(tcp, emulation, Arc::clone(sink))))
}

/// Runs one client session over `inputs` (batch = `inputs.len()`).
pub fn infer(
    data: &Inputs,
    kg: &KeyGenerator,
    rng: &mut StdRng,
    transport: &dyn Transport,
    inputs: &[Tensor],
) -> Result<Vec<Tensor>, SpotError> {
    let _span = spot_trace::span(spot_trace::Cat::App, "bench inference");
    run_client_batch(
        &data.ctx,
        kg,
        transport,
        inputs,
        &data.cnn,
        SchemeKind::Spot,
        PATCH,
        PatchMode::Tweaked,
        rng,
    )
}

/// Outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Output equals the plaintext forward pass.
    Correct,
    /// Output differs from it.
    Mismatch,
    /// Refused with `SERVER_FULL`.
    Rejected,
    /// Any other failure.
    Error,
}

/// Classifies a result against its reference output.
pub fn verdict(want: &Tensor, got: &Result<Tensor, SpotError>) -> Verdict {
    match got {
        Ok(out) if out == want => Verdict::Correct,
        Ok(_) => Verdict::Mismatch,
        Err(SpotError::Rejected { code, .. }) if *code == error_code::SERVER_FULL => {
            Verdict::Rejected
        }
        Err(_) => Verdict::Error,
    }
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each correct request, seconds.
    pub latencies: Vec<f64>,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests whose output matched.
    pub correct: usize,
    /// Output mismatches.
    pub mismatched: usize,
    /// Protocol or transport errors.
    pub errors: usize,
    /// `SERVER_FULL` refusals.
    pub rejected: usize,
    /// Window start to last completion, seconds.
    pub wall_s: f64,
    /// Connections opened.
    pub connections: usize,
    /// The decorators' folded tally.
    pub tally: WireTally,
    /// Open loop: the generator's worst lateness.
    pub max_lateness: Option<Duration>,
    /// Open loop: due time → batch dispatch, seconds, per request.
    pub queue_waits: Vec<f64>,
}

impl Window {
    fn record(&mut self, v: Verdict, latency: Duration) {
        self.attempted += 1;
        match v {
            Verdict::Correct => {
                self.correct += 1;
                self.latencies.push(latency.as_secs_f64());
            }
            Verdict::Mismatch => self.mismatched += 1,
            Verdict::Rejected => self.rejected += 1,
            Verdict::Error => self.errors += 1,
        }
    }

    /// Mismatches + errors + rejects.
    pub fn failed(&self) -> usize {
        self.mismatched + self.errors + self.rejected
    }
}

/// Runs one workload against the server at `addr` for `length`.
pub fn run_window(data: &Inputs, w: Workload, addr: &str, length: Duration) -> Window {
    match w {
        Workload::TenantOpen => open_loop(data, addr, length),
        _ => closed_loop(data, w, addr, length),
    }
}

/// Closed loop: each client thread issues its next request when the
/// previous one completes, until the window ends.
fn closed_loop(data: &Inputs, w: Workload, addr: &str, length: Duration) -> Window {
    let sink = TallySink::default();
    let next = AtomicUsize::new(0);
    let window = Mutex::new(Window::default());
    let start = Instant::now();
    let deadline = start + length;
    let last_done = Mutex::new(start);
    std::thread::scope(|s| {
        for client in 0..w.clients() {
            let (sink, next, window, last_done) = (&sink, &next, &window, &last_done);
            s.spawn(move || {
                let (kg, mut rng) = data.client_keys(client as u64);
                while Instant::now() < deadline {
                    let i = next.fetch_add(1, Ordering::Relaxed) % INPUTS;
                    let t0 = Instant::now();
                    let got = connect(addr, w.emulation(), sink).and_then(|t| {
                        infer(data, &kg, &mut rng, t.as_ref(), &data.inputs[i..=i])
                            .map(|mut outs| outs.remove(0))
                    });
                    let done = Instant::now();
                    let v = verdict(&data.wants[i], &got);
                    let mut win = window.lock().expect("window lock");
                    win.connections += 1;
                    win.record(v, done - t0);
                    let mut last = last_done.lock().expect("clock lock");
                    *last = (*last).max(done);
                }
            });
        }
    });
    let mut win = window.into_inner().expect("window lock");
    win.wall_s = (*last_done.lock().expect("clock lock") - start).as_secs_f64();
    win.tally = std::mem::take(&mut *sink.lock().expect("tally lock"));
    win
}

/// Open loop: requests fall due on a jittered fixed-rate schedule
/// whatever the server does, queue in a tenant gateway, and reach the server in batches
/// through its dispatcher over one upstream connection at a time.
/// Each request's latency runs from its due time to the moment its
/// slot completes, observed by a waiter thread as it happens.
fn open_loop(data: &Inputs, addr: &str, length: Duration) -> Window {
    let sink = TallySink::default();
    let gateway = TenantGateway::new(OPEN_BATCH_CAP, OPEN_LATENCY_CAP);
    let connections = AtomicUsize::new(0);
    let schedule = Schedule::jittered(Instant::now(), OPEN_RATE, length);
    let count = schedule.offsets.len();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Arc<RequestSlot>)>();
    let mut max_late = Duration::ZERO;
    let mut window = std::thread::scope(|s| {
        let (gateway, sink, connections) = (&gateway, &sink, &connections);
        let dispatcher = s.spawn(move || {
            let (kg, mut rng) = data.client_keys(0);
            gateway.run_dispatcher(
                &data.ctx,
                &kg,
                &data.cnn,
                SchemeKind::Spot,
                PATCH,
                PatchMode::Tweaked,
                || {
                    connections.fetch_add(1, Ordering::Relaxed);
                    connect(addr, None, sink)
                },
                &mut rng,
            )
        });
        let waiter = s.spawn(move || {
            let mut win = Window::default();
            let mut last_done = schedule.start;
            for (i, due, slot) in rx {
                let got = slot.wait();
                let done = Instant::now();
                last_done = done;
                win.record(
                    verdict(&data.wants[i % INPUTS], &got),
                    due_latency(due, done),
                );
            }
            win.wall_s = last_done
                .saturating_duration_since(schedule.start)
                .as_secs_f64();
            win
        });
        let mut refused = 0;
        for i in 0..count {
            let due = schedule.due(i);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let input = data.inputs[i % INPUTS].clone();
            let submitted = Instant::now();
            max_late = max_late.max(lateness(due, submitted));
            match gateway.submit(input) {
                Ok(slot) => tx.send((i, due, slot)).expect("waiter alive"),
                Err(_) => refused += 1,
            }
        }
        drop(tx);
        gateway.close();
        let dispatched = dispatcher.join().expect("dispatcher panicked");
        let mut win = waiter.join().expect("waiter panicked");
        // Requests the gateway refused, and a dispatcher that gave up,
        // count as failed attempts.
        let lost = refused + usize::from(dispatched.is_err());
        win.attempted += lost;
        win.errors += lost;
        win
    });
    window.connections = connections.into_inner();
    window.max_lateness = Some(max_late);
    window.tally = std::mem::take(&mut *sink.lock().expect("tally lock"));
    window.queue_waits = queue_waits(&schedule, &window.tally.dispatches);
    window
}

/// Due time → dispatch time of each request: the dispatcher serves
/// batches in submission order, so the k-th batch of size b carries
/// the next b requests.
fn queue_waits(schedule: &Schedule, dispatches: &[(Instant, usize)]) -> Vec<f64> {
    let mut waits = Vec::new();
    let mut i = 0;
    for &(opened, batch) in dispatches {
        for _ in 0..batch {
            waits.push(due_latency(schedule.due(i), opened).as_secs_f64());
            i += 1;
        }
    }
    waits
}

/// Untimed warm-up: one session at the workload's largest batch.
pub fn warm_up(data: &Inputs, w: Workload, addr: &str) -> Result<(), String> {
    let batch = match w {
        Workload::TenantOpen => OPEN_BATCH_CAP,
        _ => 1,
    };
    let (kg, mut rng) = data.client_keys(99);
    let got = connect(addr, None, &TallySink::default())
        .and_then(|t| infer(data, &kg, &mut rng, t.as_ref(), &data.inputs[..batch]))
        .map_err(|e| format!("warm-up: {e}"))?;
    if got.as_slice() != &data.wants[..batch] {
        return Err("warm-up: output mismatch".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_and_are_valid() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::stats::valid_metric_name(w.name()));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn queue_waits_follow_fifo_batches() {
        let start = Instant::now();
        let s = Schedule {
            start,
            offsets: [0, 100, 200].map(Duration::from_millis).to_vec(),
        };
        // Batch of 2 opened at 250 ms, then a batch of 1 at 400 ms.
        let d = vec![
            (start + Duration::from_millis(250), 2),
            (start + Duration::from_millis(400), 1),
        ];
        let w = queue_waits(&s, &d);
        let ms: Vec<u64> = w.iter().map(|x| (x * 1e3).round() as u64).collect();
        assert_eq!(ms, vec![250, 150, 200]);
    }

    #[test]
    fn inputs_are_seeded() {
        let a = Inputs::generate(5);
        let b = Inputs::generate(5);
        let c = Inputs::generate(6);
        assert_eq!(a.inputs[3], b.inputs[3]);
        assert_ne!(a.inputs[3], c.inputs[3]);
        assert_eq!(a.wants[3], a.cnn.forward_plain(&a.inputs[3]));
    }
}
