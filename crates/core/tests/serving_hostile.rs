//! Hostile-input containment tests for the serving layer: a
//! misbehaving client must fail **its own session only** — typed
//! rejection on the wire, clean accounting, and byte-identical service
//! for every well-behaved neighbor.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::error::SpotError;
use spot_core::inference::TinyCnn;
use spot_core::patching::PatchMode;
use spot_core::serving::{ModelContext, ServingConfig, SpotServer};
use spot_core::session::{ClientConv, LayerSpec, SchemeKind, UploadPacing};
use spot_core::twoparty::run_client_batch;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::transport::{MemTransport, TcpTransport, TransportStats};
use spot_proto::{error_code, ProtoError, Transport, WireMessage};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::Tensor;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn test_stack() -> (Arc<Context>, TinyCnn) {
    (
        Context::new(EncryptionParams::new(ParamLevel::N4096)),
        TinyCnn::new(7),
    )
}

/// Full-pipeline client over `transport`; returns the outputs and the
/// client-side transport accounting.
fn well_behaved_client(
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    transport: &dyn Transport,
    client: usize,
) -> (Vec<Tensor>, TransportStats) {
    let input = Tensor::random(2, 8, 8, 5, 300 + client as u64);
    let mut rng = StdRng::seed_from_u64(99 + client as u64);
    let kg = KeyGenerator::new(ctx, &mut rng);
    let out = run_client_batch(
        ctx,
        &kg,
        transport,
        std::slice::from_ref(&input),
        cnn,
        SchemeKind::Spot,
        (4, 4),
        PatchMode::Tweaked,
        &mut rng,
    )
    .expect("well-behaved client");
    (out, transport.stats())
}

/// A protocol-violating first message fails only that session: the
/// victim gets a typed error, the concurrent neighbor's outputs match
/// the plaintext forward pass and its wire traffic is byte-identical
/// to a solo run against a fresh server.
#[test]
fn protocol_violation_is_contained_to_its_session() {
    let (ctx, cnn) = test_stack();

    // Solo baseline traffic for the neighbor.
    let solo_server = SpotServer::new(
        ModelContext::new("tinycnn-solo", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    );
    let (solo_out, solo_stats) = {
        let (ct, st) = MemTransport::pair();
        std::thread::scope(|s| {
            let session = s.spawn(|| solo_server.serve_connection(&st));
            let out = well_behaved_client(&ctx, &cnn, &ct, 1);
            session
                .join()
                .expect("session thread")
                .result
                .expect("solo session");
            out
        })
    };

    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    );
    let ((), (out, stats)) = std::thread::scope(|s| {
        let attacker = s.spawn(|| {
            let (ct, st) = MemTransport::pair();
            std::thread::scope(|inner| {
                let session = inner.spawn(|| server.serve_connection(&st));
                // First frame is not a Setup: instant protocol violation.
                ct.send(&WireMessage::Teardown).expect("send");
                let report = session.join().expect("victim session thread");
                assert!(report.result.is_err(), "violating session must fail");
                // The typed error frame came back before the hangup.
                let reply = ct.recv().expect("typed error frame");
                assert!(
                    matches!(reply, WireMessage::Error { code, .. } if code == error_code::PROTOCOL),
                    "expected a PROTOCOL wire error, got {reply:?}"
                );
            });
        });
        let neighbor = s.spawn(|| {
            let (ct, st) = MemTransport::pair();
            std::thread::scope(|inner| {
                let session = inner.spawn(|| server.serve_connection(&st));
                let out = well_behaved_client(&ctx, &cnn, &ct, 1);
                session
                    .join()
                    .expect("session thread")
                    .result
                    .expect("neighbor session");
                out
            })
        });
        (
            attacker.join().expect("attacker"),
            neighbor.join().expect("neighbor"),
        )
    });

    assert_eq!(out, solo_out, "neighbor outputs diverge from solo run");
    assert_eq!(
        (stats.sent, stats.received.bytes, stats.received.messages),
        (
            solo_stats.sent,
            solo_stats.received.bytes,
            solo_stats.received.messages
        ),
        "neighbor wire traffic diverges from solo run"
    );
    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
}

/// Raw garbage bytes over TCP (bad version byte, bad tag, truncated
/// frame) kill only that connection; a concurrent well-formed session
/// completes and matches plain.
#[test]
fn malformed_tcp_frames_fail_only_their_session() {
    let (ctx, cnn) = test_stack();
    let server = Arc::new(SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        let acceptor = s.spawn(|| {
            std::thread::scope(|inner| {
                for _ in 0..2 {
                    let (stream, _) = listener.accept().expect("accept");
                    let server = Arc::clone(&server);
                    inner.spawn(move || {
                        let st = TcpTransport::from_stream(stream).expect("wrap");
                        server.serve_connection(&st)
                    });
                }
            });
        });

        // Hostile connection: not even a valid frame header.
        let mut raw = TcpStream::connect(addr).expect("connect hostile");
        raw.write_all(&[0xFF, 0xFF, 0xAA, 0x55, 0x00, 0x00, 0x00, 0x01, 0xCC])
            .expect("write garbage");
        raw.shutdown(std::net::Shutdown::Write).ok();

        // Well-formed neighbor completes regardless.
        let input = Tensor::random(2, 8, 8, 5, 303);
        let want = cnn.forward_plain(&input);
        let ct = TcpTransport::connect(addr.to_string()).expect("connect good");
        let mut rng = StdRng::seed_from_u64(102);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let out = run_client_batch(
            &ctx,
            &kg,
            &ct,
            std::slice::from_ref(&input),
            &cnn,
            SchemeKind::Spot,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        )
        .expect("well-formed client");
        assert_eq!(out[0], want);
        drop(raw);
        acceptor.join().expect("acceptor");
    });

    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
}

/// A `Setup` batch above the session's ciphertext budget is refused
/// with the typed `OVER_BUDGET` code, and the same client fits under
/// the budget with a smaller batch.
#[test]
fn over_budget_batch_is_rejected_with_typed_error() {
    let (ctx, cnn) = test_stack();
    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig {
            max_batch: Some(2),
            ..ServingConfig::default()
        },
    );

    let inputs: Vec<Tensor> = (0..3u64)
        .map(|i| Tensor::random(2, 8, 8, 5, 310 + i))
        .collect();
    let err = {
        let (ct, st) = MemTransport::pair();
        std::thread::scope(|s| {
            let session = s.spawn(|| server.serve_connection(&st));
            let mut rng = StdRng::seed_from_u64(103);
            let kg = KeyGenerator::new(&ctx, &mut rng);
            let err = run_client_batch(
                &ctx,
                &kg,
                &ct,
                &inputs,
                &cnn,
                SchemeKind::Spot,
                (4, 4),
                PatchMode::Tweaked,
                &mut rng,
            )
            .expect_err("over-budget batch must fail");
            let report = session.join().expect("session thread");
            assert!(report.result.is_err());
            err
        })
    };
    match err {
        SpotError::Rejected { code, .. } => assert_eq!(code, error_code::OVER_BUDGET),
        other => panic!("expected typed OVER_BUDGET rejection, got {other}"),
    }

    // Under the budget the same server still serves.
    let (ct, st) = MemTransport::pair();
    std::thread::scope(|s| {
        let session = s.spawn(|| server.serve_connection(&st));
        let (out, _) = well_behaved_client(&ctx, &cnn, &ct, 4);
        let input = Tensor::random(2, 8, 8, 5, 304);
        assert_eq!(out[0], cnn.forward_plain(&input));
        session
            .join()
            .expect("session thread")
            .result
            .expect("in-budget session");
    });
    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
}

/// At the session cap the extra connection is refused with the typed
/// `SERVER_FULL` code and consumes no session id; a slot freeing up
/// admits the next client.
#[test]
fn server_full_rejects_with_typed_error() {
    let (ctx, cnn) = test_stack();
    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig {
            max_sessions: 1,
            ..ServingConfig::default()
        },
    );

    // Occupy the only slot with a session that we hold open by not
    // sending anything yet, then probe with a second connection.
    let (ct_a, st_a) = MemTransport::pair();
    std::thread::scope(|s| {
        let session_a = s.spawn(|| server.serve_connection(&st_a));
        // Wait until the first session is admitted.
        while server.active_sessions() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (ct_b, st_b) = MemTransport::pair();
        let refused = server.serve_connection(&st_b);
        assert_eq!(refused.id, u64::MAX, "a refused connection burns no id");
        match refused.result {
            Err(SpotError::Rejected { code, .. }) => assert_eq!(code, error_code::SERVER_FULL),
            other => panic!("expected SERVER_FULL, got {other:?}"),
        }
        let frame = ct_b.recv().expect("typed refusal frame");
        assert!(
            matches!(frame, WireMessage::Error { code, .. } if code == error_code::SERVER_FULL),
            "client must see the SERVER_FULL frame, got {frame:?}"
        );

        // The occupant still completes untouched.
        let (out, _) = well_behaved_client(&ctx, &cnn, &ct_a, 5);
        let input = Tensor::random(2, 8, 8, 5, 305);
        assert_eq!(out[0], cnn.forward_plain(&input));
        session_a
            .join()
            .expect("session a")
            .result
            .expect("occupant session");
    });

    // Slot freed: the next connection gets session id 1 (0 was the
    // occupant; the refusal consumed none).
    let (ct_c, st_c) = MemTransport::pair();
    std::thread::scope(|s| {
        let session_c = s.spawn(|| server.serve_connection(&st_c));
        let (out, _) = well_behaved_client(&ctx, &cnn, &ct_c, 6);
        let input = Tensor::random(2, 8, 8, 5, 306);
        assert_eq!(out[0], cnn.forward_plain(&input));
        let report = session_c.join().expect("session c");
        assert_eq!(report.id, 1);
        report.result.expect("post-refusal session");
    });
    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (2, 0, 1));
}

/// A slow-loris connection (connects, never sends) times out under the
/// server's read deadline and fails alone; a concurrent full session
/// completes and matches plain.
#[test]
fn slow_loris_times_out_without_harming_neighbors() {
    let (ctx, cnn) = test_stack();
    let server = Arc::new(SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        let acceptor = s.spawn(|| {
            std::thread::scope(|inner| {
                for conn in 0..2 {
                    let (stream, _) = listener.accept().expect("accept");
                    let server = Arc::clone(&server);
                    inner.spawn(move || {
                        let st = TcpTransport::from_stream(stream).expect("wrap");
                        // The read deadline guards the first accepted
                        // connection (the loris, below); the neighbor
                        // runs without one so slow debug builds can't
                        // trip it mid-protocol.
                        if conn == 0 {
                            st.set_read_timeout(Some(Duration::from_millis(200)))
                                .expect("read timeout");
                        }
                        server.serve_connection(&st)
                    });
                }
            });
        });

        // The loris: connect first and go silent.
        let loris = TcpStream::connect(addr).expect("connect loris");
        std::thread::sleep(Duration::from_millis(100));

        // The neighbor does real work meanwhile.
        let input = Tensor::random(2, 8, 8, 5, 307);
        let want = cnn.forward_plain(&input);
        let ct = TcpTransport::connect(addr.to_string()).expect("connect good");
        let mut rng = StdRng::seed_from_u64(107);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let out = run_client_batch(
            &ctx,
            &kg,
            &ct,
            std::slice::from_ref(&input),
            &cnn,
            SchemeKind::Spot,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        )
        .expect("neighbor client");
        assert_eq!(out[0], want);

        acceptor.join().expect("acceptor");
        drop(loris);
    });

    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
}

/// Runs `body` on its own thread and fails the test if it has not
/// finished within `limit` — a hostile-input case must fail its
/// session, never wedge the server.
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(limit) {
        // Finished, or panicked (the sender dropped): join surfaces it.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("hostile session hung past {limit:?}"),
    }
}

/// Client-side transport decorator over an input upload: counts the
/// `PackedCt`/`AuxCt` frames it forwards and lets `tamper` rewrite or
/// refuse each one (`Err` stops the upload at that frame).
struct UploadTamper<'a, F> {
    inner: &'a dyn Transport,
    uploads: AtomicUsize,
    tamper: F,
}

impl<'a, F> UploadTamper<'a, F>
where
    F: Fn(usize, WireMessage) -> Result<WireMessage, ProtoError> + Send + Sync,
{
    fn new(inner: &'a dyn Transport, tamper: F) -> Self {
        Self {
            inner,
            uploads: AtomicUsize::new(0),
            tamper,
        }
    }
}

impl<F> Transport for UploadTamper<'_, F>
where
    F: Fn(usize, WireMessage) -> Result<WireMessage, ProtoError> + Send + Sync,
{
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        match msg {
            WireMessage::PackedCt { .. } | WireMessage::AuxCt { .. } => {
                let i = self.uploads.fetch_add(1, Ordering::SeqCst);
                self.inner.send(&(self.tamper)(i, msg.clone())?)
            }
            _ => self.inner.send(msg),
        }
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        self.inner.recv()
    }

    fn close_tx(&self) {
        self.inner.close_tx();
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// The conv1 layer of `cnn` as the SPOT client plans it.
fn conv1_spec(cnn: &TinyCnn) -> LayerSpec {
    LayerSpec {
        scheme: SchemeKind::Spot,
        shape: ConvShape {
            width: 8,
            height: 8,
            c_in: 2,
            c_out: cnn.conv1.out_channels(),
            k_h: cnn.conv1.k_h(),
            k_w: cnn.conv1.k_w(),
            stride: 1,
        },
        patch: (4, 4),
        mode: PatchMode::Tweaked,
    }
}

/// A well-framed SPOT input ciphertext whose blob is garbage fails in
/// the streaming server's pool-side decode: that session alone fails
/// with a typed HE-deserialization error and its client gets a typed
/// `PROTOCOL` rejection, while a concurrent neighbor completes and
/// matches plain.
#[test]
fn garbage_ciphertext_blob_fails_only_its_session() {
    within(Duration::from_secs(300), || {
        let (ctx, cnn) = test_stack();
        let server = SpotServer::new(
            ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
            ServingConfig::default(),
        );
        std::thread::scope(|s| {
            let victim = s.spawn(|| {
                let (ct, st) = MemTransport::pair();
                let garbled = UploadTamper::new(&ct, |i, msg| {
                    Ok(match msg {
                        WireMessage::PackedCt { seq, .. } if i == 0 => WireMessage::PackedCt {
                            seq,
                            blob: b"not a ciphertext".to_vec(),
                        },
                        other => other,
                    })
                });
                std::thread::scope(|inner| {
                    let session = inner.spawn(|| server.serve_connection(&st));
                    let mut rng = StdRng::seed_from_u64(108);
                    let kg = KeyGenerator::new(&ctx, &mut rng);
                    let input = Tensor::random(2, 8, 8, 5, 308);
                    let err = run_client_batch(
                        &ctx,
                        &kg,
                        &garbled,
                        std::slice::from_ref(&input),
                        &cnn,
                        SchemeKind::Spot,
                        (4, 4),
                        PatchMode::Tweaked,
                        &mut rng,
                    )
                    .expect_err("a garbage ciphertext must fail the session");
                    match err {
                        SpotError::Rejected { code, .. } => assert_eq!(code, error_code::PROTOCOL),
                        other => panic!("expected a typed PROTOCOL rejection, got {other}"),
                    }
                    let report = session.join().expect("victim session thread");
                    match report.result {
                        Err(SpotError::Serial(_)) => {}
                        other => panic!("expected an HE deserialization error, got {other:?}"),
                    }
                });
            });
            let neighbor = s.spawn(|| {
                let (ct, st) = MemTransport::pair();
                std::thread::scope(|inner| {
                    let session = inner.spawn(|| server.serve_connection(&st));
                    let (out, _) = well_behaved_client(&ctx, &cnn, &ct, 8);
                    let input = Tensor::random(2, 8, 8, 5, 308);
                    assert_eq!(out[0], cnn.forward_plain(&input));
                    session
                        .join()
                        .expect("neighbor session thread")
                        .result
                        .expect("neighbor session");
                });
            });
            victim.join().expect("victim");
            neighbor.join().expect("neighbor");
        });
        let totals = server.stats();
        assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
    });
}

/// A client that hangs up mid-upload (Setup, rotation keys and its
/// first input ciphertext sent, then the socket closed) fails only its
/// own session with a typed transport error; a concurrent neighbor
/// completes and matches plain.
#[test]
fn client_hangup_mid_upload_fails_only_its_session() {
    within(Duration::from_secs(300), || {
        let (ctx, cnn) = test_stack();
        let server = Arc::new(SpotServer::new(
            ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
            ServingConfig::default(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");

        let reports = std::thread::scope(|s| {
            let acceptor = s.spawn(|| {
                std::thread::scope(|inner| {
                    let sessions: Vec<_> = (0..2)
                        .map(|_| {
                            let (stream, _) = listener.accept().expect("accept");
                            let server = Arc::clone(&server);
                            inner.spawn(move || {
                                let st = TcpTransport::from_stream(stream).expect("wrap");
                                server.serve_connection(&st)
                            })
                        })
                        .collect();
                    sessions
                        .into_iter()
                        .map(|h| h.join().expect("session thread"))
                        .collect::<Vec<_>>()
                })
            });

            // The quitter: a real conv1 upload cut after one of its
            // input ciphertexts, then the connection dropped.
            {
                let ct = TcpTransport::connect(addr.to_string()).expect("connect quitter");
                let mut rng = StdRng::seed_from_u64(109);
                let kg = KeyGenerator::new(&ctx, &mut rng);
                let conv = ClientConv::new(&ctx, &kg, conv1_spec(&cnn)).expect("plan conv1");
                assert!(
                    conv.input_cts(1) > 1,
                    "conv1 must upload several ciphertexts"
                );
                let cut = UploadTamper::new(&ct, |i, msg| {
                    if i == 0 {
                        Ok(msg)
                    } else {
                        Err(ProtoError::Disconnected)
                    }
                });
                let input = Tensor::random(2, 8, 8, 5, 309);
                conv.send_all(
                    &cut,
                    std::slice::from_ref(&input),
                    UploadPacing::Eager,
                    &mut rng,
                )
                .expect_err("the cut upload stops");
            }

            let input = Tensor::random(2, 8, 8, 5, 310);
            let ct = TcpTransport::connect(addr.to_string()).expect("connect neighbor");
            let mut rng = StdRng::seed_from_u64(110);
            let kg = KeyGenerator::new(&ctx, &mut rng);
            let out = run_client_batch(
                &ctx,
                &kg,
                &ct,
                std::slice::from_ref(&input),
                &cnn,
                SchemeKind::Spot,
                (4, 4),
                PatchMode::Tweaked,
                &mut rng,
            )
            .expect("neighbor client");
            assert_eq!(out[0], cnn.forward_plain(&input));
            acceptor.join().expect("acceptor")
        });

        let failed: Vec<_> = reports.iter().filter(|r| r.result.is_err()).collect();
        assert_eq!(failed.len(), 1, "exactly the quitter's session fails");
        match &failed[0].result {
            Err(SpotError::Proto(_)) => {}
            other => panic!("expected a typed transport error, got {other:?}"),
        }
        let totals = server.stats();
        assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
    });
}

/// Garbage (and worse: silence) on the admin port cannot wedge its
/// accept loop: after a binary-junk request, a non-GET request, and a
/// connect-then-hang client, a normal scrape still answers promptly
/// and `/healthz` reflects admission state.
#[test]
fn admin_port_survives_garbage_requests() {
    use spot_core::admin::AdminServer;
    use std::io::Read;

    let (ctx, cnn) = test_stack();
    let server = Arc::new(SpotServer::new(
        ModelContext::new("tinycnn-admin", ctx, cnn),
        ServingConfig::default(),
    ));
    let admin = AdminServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind admin");
    let addr = admin.addr();

    let fetch = |request: &[u8]| -> String {
        let mut conn = TcpStream::connect(addr).expect("connect admin");
        conn.write_all(request).expect("send request");
        let mut body = String::new();
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        conn.read_to_string(&mut body).expect("read response");
        body
    };

    // Hostile round 1: pure binary garbage.
    let garbage = fetch(&[0x00, 0xff, 0x13, 0x37, b'\n']);
    assert!(garbage.starts_with("HTTP/1.0 400"), "got: {garbage:?}");
    // Hostile round 2: a method we don't serve.
    let post = fetch(b"POST /metrics HTTP/1.1\r\n\r\n");
    assert!(post.starts_with("HTTP/1.0 400"), "got: {post:?}");
    // Hostile round 3: connect and say nothing; the handler thread
    // holds it alone while the accept loop moves on.
    let _loris = TcpStream::connect(addr).expect("connect loris");

    // The endpoint still answers a real scrape immediately.
    let metrics = fetch(b"GET /metrics HTTP/1.0\r\n\r\n");
    assert!(metrics.starts_with("HTTP/1.0 200"), "got: {metrics:?}");
    assert!(
        metrics.contains("spot_sessions_served"),
        "missing series in: {metrics:?}"
    );
    let health = fetch(b"GET /healthz HTTP/1.0\r\n\r\n");
    assert!(health.contains("ok"), "got: {health:?}");
    let sessions = fetch(b"GET /sessions HTTP/1.0\r\n\r\n");
    assert!(sessions.contains("\"active\": 0"), "got: {sessions:?}");
    let pipeline = fetch(b"GET /pipeline HTTP/1.0\r\n\r\n");
    assert!(pipeline.contains("\"pipeline\": []"), "got: {pipeline:?}");
    let missing = fetch(b"GET /nope HTTP/1.0\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.0 404"), "got: {missing:?}");

    admin.shutdown();
}

/// `/healthz` flips to `overloaded` while sessions sit at the
/// admission cap and recovers once they drain.
#[test]
fn healthz_reflects_admission_saturation() {
    use spot_core::admin::AdminServer;
    use std::io::Read;

    let (ctx, cnn) = test_stack();
    let server = Arc::new(SpotServer::new(
        ModelContext::new("tinycnn-health", Arc::clone(&ctx), cnn.clone()),
        ServingConfig {
            max_sessions: 1,
            ..ServingConfig::default()
        },
    ));
    let admin = AdminServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind admin");
    let addr = admin.addr();

    let health = || -> String {
        let mut conn = TcpStream::connect(addr).expect("connect admin");
        conn.write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
            .expect("send");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut body = String::new();
        conn.read_to_string(&mut body).expect("read");
        body
    };
    assert!(health().starts_with("HTTP/1.0 200"), "idle server is ok");

    // Fill the single admission slot with a session that waits for us.
    let (ct, st) = MemTransport::pair();
    std::thread::scope(|s| {
        let session = s.spawn(|| server.serve_connection(&st));
        // The session counts as active once it blocks in its first
        // recv; poll until admission reflects it.
        while server.active_sessions() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let saturated = health();
        assert!(
            saturated.starts_with("HTTP/1.0 503") && saturated.contains("overloaded"),
            "got: {saturated:?}"
        );
        // Release the session: close the client side so its recv errors.
        ct.close_tx();
        drop(ct);
        session.join().expect("session thread");
    });
    assert!(health().starts_with("HTTP/1.0 200"), "drained server is ok");
    admin.shutdown();
}
