//! Cross-transport determinism: one secure-convolution session run
//! over an in-memory `MemTransport` pair and over a real TCP loopback
//! socket must produce bit-identical client/server shares, operation
//! counts, and framed traffic accounting — for every scheme, both
//! execution backends, at 1 and 8 server worker threads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::patching::PatchMode;
use spot_core::session::{
    serve_conv, ClientConv, ExecBackend, LayerSpec, SchemeKind, UploadPacing,
};
use spot_core::stream::StreamConfig;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::channel::TrafficStats;
use spot_proto::transport::{MemTransport, TcpTransport, Transport};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use std::net::TcpListener;
use std::sync::Arc;

const CLIENT_SEED: u64 = 71;
const SERVER_SEED: u64 = 1312;

/// Everything a session run produces that must not depend on the
/// transport carrying it.
#[derive(Debug)]
struct Outcome {
    client_share: Tensor,
    server_share: Tensor,
    input_cts: usize,
    output_cts: usize,
    rotations: u64,
    client_up: TrafficStats,
    client_down: TrafficStats,
}

fn run_session(
    ctx: &Arc<Context>,
    spec: LayerSpec,
    kernel: &Kernel,
    input: &Tensor,
    backend: &ExecBackend,
    client_t: &dyn Transport,
    server_t: &dyn Transport,
) -> Outcome {
    let mut crng = StdRng::seed_from_u64(CLIENT_SEED);
    let keygen = KeyGenerator::new(ctx, &mut crng);
    let conv = ClientConv::new(ctx, &keygen, spec).expect("plan");
    let (mut share, mut summary) = std::thread::scope(|s| {
        let client = s.spawn(|| {
            conv.send_all(
                client_t,
                std::slice::from_ref(input),
                UploadPacing::Eager,
                &mut crng,
            )
            .expect("send_all");
            conv.absorb_all(client_t, 1).expect("absorb_all")
        });
        let mut srng = StdRng::seed_from_u64(SERVER_SEED);
        let summary = serve_conv(ctx, server_t, kernel, backend, &mut srng).expect("serve_conv");
        (client.join().expect("client thread"), summary)
    });
    let stats = client_t.stats();
    Outcome {
        client_share: share.shares.remove(0),
        server_share: summary.server_shares.remove(0),
        input_cts: summary.input_cts,
        output_cts: summary.output_cts,
        rotations: summary.counts.rotate,
        client_up: stats.sent,
        client_down: stats.received,
    }
}

fn run_mem(
    ctx: &Arc<Context>,
    spec: LayerSpec,
    kernel: &Kernel,
    input: &Tensor,
    backend: &ExecBackend,
) -> Outcome {
    let (client_t, server_t) = MemTransport::pair();
    run_session(ctx, spec, kernel, input, backend, &client_t, &server_t)
}

fn run_tcp(
    ctx: &Arc<Context>,
    spec: LayerSpec,
    kernel: &Kernel,
    input: &Tensor,
    backend: &ExecBackend,
) -> Outcome {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let accept = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        TcpTransport::from_stream(stream).expect("server transport")
    });
    let client_t = TcpTransport::connect(addr.to_string()).expect("connect loopback");
    let server_t = accept.join().expect("accept thread");
    run_session(ctx, spec, kernel, input, backend, &client_t, &server_t)
}

fn assert_transport_invariant(scheme: SchemeKind, backend: &ExecBackend, tag: &str) {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let spec = LayerSpec {
        scheme,
        shape: ConvShape::new(8, 8, 3, 2, 3, 1),
        patch: (4, 4),
        mode: PatchMode::Tweaked,
    };
    let input = Tensor::random(3, 8, 8, 6, 23);
    let kernel = Kernel::random(2, 3, 3, 3, 3, 24);

    let mem = run_mem(&ctx, spec, &kernel, &input, backend);
    let tcp = run_tcp(&ctx, spec, &kernel, &input, backend);

    assert_eq!(
        mem.client_share, tcp.client_share,
        "{tag}: client share differs Mem vs Tcp"
    );
    assert_eq!(
        mem.server_share, tcp.server_share,
        "{tag}: server share differs Mem vs Tcp"
    );
    assert_eq!(mem.input_cts, tcp.input_cts, "{tag}: input cts differ");
    assert_eq!(mem.output_cts, tcp.output_cts, "{tag}: output cts differ");
    assert_eq!(
        mem.rotations, tcp.rotations,
        "{tag}: rotation count differs"
    );
    assert_eq!(
        (mem.client_up.bytes, mem.client_up.messages),
        (tcp.client_up.bytes, tcp.client_up.messages),
        "{tag}: uplink traffic differs"
    );
    assert_eq!(
        (mem.client_down.bytes, mem.client_down.messages),
        (tcp.client_down.bytes, tcp.client_down.messages),
        "{tag}: downlink traffic differs"
    );

    // The shares reconstruct: same plaintext conv both ways, so the
    // invariant is not vacuously comparing garbage.
    assert_eq!(
        (
            mem.client_share.channels(),
            mem.client_share.height(),
            mem.client_share.width()
        ),
        (
            mem.server_share.channels(),
            mem.server_share.height(),
            mem.server_share.width()
        ),
        "{tag}: share shape mismatch"
    );
}

fn all_backends(threads: usize) -> Vec<(ExecBackend, String)> {
    vec![
        (
            ExecBackend::Phased(Executor::new(threads)),
            format!("phased/{threads}t"),
        ),
        (
            ExecBackend::Streaming(StreamConfig::new(Executor::new(threads), 2)),
            format!("streaming/{threads}t"),
        ),
    ]
}

#[test]
fn mem_and_tcp_agree_single_thread() {
    for scheme in [
        SchemeKind::Spot,
        SchemeKind::Channelwise,
        SchemeKind::Cheetah,
    ] {
        for (backend, name) in all_backends(1) {
            assert_transport_invariant(scheme, &backend, &format!("{scheme:?}/{name}"));
        }
    }
}

#[test]
fn mem_and_tcp_agree_eight_threads() {
    for scheme in [
        SchemeKind::Spot,
        SchemeKind::Channelwise,
        SchemeKind::Cheetah,
    ] {
        for (backend, name) in all_backends(8) {
            assert_transport_invariant(scheme, &backend, &format!("{scheme:?}/{name}"));
        }
    }
}
