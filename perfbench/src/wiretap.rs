//! Client-side [`Transport`] decorator: tallies framed bytes, frames
//! and receive wait per [`WireMessage`] kind, timestamps the session phases,
//! and (for the tiny-client workload) charges every client frame the
//! Nexus 6 link and encryption delays. It only observes and delays; it
//! never adds, drops or alters a frame.

use spot_he::params::ParamLevel;
use spot_pipeline::device::{DeviceProfile, HeCostTable};
use spot_proto::wire::FRAME_HEADER_BYTES;
use spot_proto::{LinkModel, ProtoError, Transport, TransportStats, WireMessage};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Message kinds in wire-tag order.
pub const KINDS: [&str; 12] = [
    "setup",
    "public_key",
    "galois_keys",
    "packed_ct",
    "aux_ct",
    "masked_result",
    "ot_round",
    "share_reveal",
    "layer_barrier",
    "teardown",
    "error",
    "clock_probe",
];

/// Index of `msg`'s kind in [`KINDS`].
pub fn kind(msg: &WireMessage) -> usize {
    match msg {
        WireMessage::Setup(_) => 0,
        WireMessage::PublicKey(_) => 1,
        WireMessage::GaloisKeys(_) => 2,
        WireMessage::PackedCt { .. } => 3,
        WireMessage::AuxCt { .. } => 4,
        WireMessage::MaskedResult { .. } => 5,
        WireMessage::OtRound { .. } => 6,
        WireMessage::ShareReveal { .. } => 7,
        WireMessage::LayerBarrier { .. } => 8,
        WireMessage::Teardown => 9,
        WireMessage::Error { .. } => 10,
        WireMessage::ClockProbe { .. } => 11,
    }
}

/// Framed size of `msg` on the wire, without copying its payload for
/// the blob-carrying kinds.
pub fn frame_bytes(msg: &WireMessage) -> u64 {
    let payload = match msg {
        WireMessage::PublicKey(blob)
        | WireMessage::GaloisKeys(blob)
        | WireMessage::ShareReveal { blob } => blob.len(),
        WireMessage::PackedCt { blob, .. } | WireMessage::MaskedResult { blob, .. } => {
            4 + blob.len()
        }
        WireMessage::AuxCt { blob, .. } => 6 + blob.len(),
        WireMessage::OtRound { blob, .. } => 3 + blob.len(),
        small => return small.frame_len() as u64,
    };
    (FRAME_HEADER_BYTES + payload) as u64
}

/// Traffic of one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindTally {
    /// Framed bytes sent.
    pub sent_bytes: u64,
    /// Frames sent.
    pub sent_frames: u64,
    /// Framed bytes received.
    pub recv_bytes: u64,
    /// Frames received.
    pub recv_frames: u64,
    /// Time spent blocked in `recv` until a frame of this kind arrived.
    pub recv_wait: Duration,
}

/// Tallies folded over every connection a workload opened.
#[derive(Debug, Clone, Default)]
pub struct WireTally {
    /// Per-kind traffic, indexed like [`KINDS`].
    pub kinds: [KindTally; 12],
    /// Connections folded in.
    pub sessions: u64,
    /// Images carried (sum of each session's batch size).
    pub images: u64,
    /// Setup sent → GaloisKeys sent, summed over layers and sessions.
    pub key_phase: Duration,
    /// GaloisKeys sent → last input ciphertext sent, summed likewise.
    pub encrypt_phase: Duration,
    /// Inner transport's send-blocked time, summed over sessions.
    pub send_blocked: Duration,
    /// Connections whose tally disagreed with the inner
    /// [`TransportStats`].
    pub stat_mismatches: u64,
    /// Per session, in the order sessions ended: when the connection
    /// was opened and how many images it carried.
    pub dispatches: Vec<(Instant, usize)>,
    /// The first rotation-key set any connection sent (serialized).
    pub sample_keys: Option<Vec<u8>>,
    /// The first input ciphertext any connection sent (serialized).
    pub sample_ct: Option<Vec<u8>>,
}

impl WireTally {
    /// Framed bytes in both directions.
    pub fn bytes(&self) -> u64 {
        self.kinds.iter().map(|k| k.sent_bytes + k.recv_bytes).sum()
    }

    /// Frames in both directions.
    pub fn frames(&self) -> u64 {
        self.kinds
            .iter()
            .map(|k| k.sent_frames + k.recv_frames)
            .sum()
    }

    /// Bytes in both directions of the named kinds.
    pub fn bytes_of(&self, names: &[&str]) -> u64 {
        KINDS
            .iter()
            .zip(&self.kinds)
            .filter(|(n, _)| names.contains(n))
            .map(|(_, k)| k.sent_bytes + k.recv_bytes)
            .sum()
    }

    /// Total time blocked in `recv`.
    pub fn recv_wait(&self) -> Duration {
        self.kinds.iter().map(|k| k.recv_wait).sum()
    }

    fn absorb(&mut self, other: &WireTally) {
        for (a, b) in self.kinds.iter_mut().zip(&other.kinds) {
            a.sent_bytes += b.sent_bytes;
            a.sent_frames += b.sent_frames;
            a.recv_bytes += b.recv_bytes;
            a.recv_frames += b.recv_frames;
            a.recv_wait += b.recv_wait;
        }
        self.sessions += other.sessions;
        self.images += other.images;
        self.key_phase += other.key_phase;
        self.encrypt_phase += other.encrypt_phase;
        self.send_blocked += other.send_blocked;
        self.stat_mismatches += other.stat_mismatches;
        self.dispatches.extend_from_slice(&other.dispatches);
    }
}

/// Where the decorators of one workload fold their tallies.
pub type TallySink = Arc<Mutex<WireTally>>;

/// Delays a tiny client pays per frame it sends.
#[derive(Debug, Clone, Copy)]
pub struct Emulation {
    link: LinkModel,
    encrypt: Duration,
}

impl Emulation {
    /// The Nexus 6 of the paper: its WLAN link, and the reference N4096
    /// encryption cost scaled by its CPU factor.
    pub fn nexus6() -> Self {
        let device = DeviceProfile::nexus6();
        let encrypt = HeCostTable::reference().at(ParamLevel::N4096).encrypt;
        Self {
            link: device.link,
            encrypt: Duration::from_secs_f64(device.scale(encrypt)),
        }
    }

    /// Delay charged before sending `msg` of `bytes` framed bytes.
    pub fn delay(&self, msg: &WireMessage, bytes: u64) -> Duration {
        let transfer = Duration::from_secs_f64(self.link.transfer_time(bytes as usize));
        match msg {
            WireMessage::PackedCt { .. } | WireMessage::AuxCt { .. } => transfer + self.encrypt,
            _ => transfer,
        }
    }
}

#[derive(Debug)]
struct LayerMarks {
    setup: Instant,
    keys: Option<Instant>,
    last_ct: Option<Instant>,
}

#[derive(Debug, Default)]
struct ConnState {
    kinds: [KindTally; 12],
    layers: Vec<LayerMarks>,
    batch: Option<usize>,
}

/// The decorator around one client connection.
pub struct Wiretap<T: Transport> {
    inner: T,
    emulation: Option<Emulation>,
    opened: Instant,
    state: Mutex<ConnState>,
    sink: TallySink,
}

impl<T: Transport> Wiretap<T> {
    /// Wraps `inner`; the tally is folded into `sink` when the
    /// decorator is dropped.
    pub fn new(inner: T, emulation: Option<Emulation>, sink: TallySink) -> Self {
        Self {
            inner,
            emulation,
            opened: Instant::now(),
            state: Mutex::new(ConnState::default()),
            sink,
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, ConnState> {
        // Every update leaves the tallies consistent, and `Drop` reads
        // them, so a poisoned lock is recovered rather than re-panicked.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Stores `blob` in the sink's sample slot if that is still empty.
    fn keep_sample(&self, slot: fn(&mut WireTally) -> &mut Option<Vec<u8>>, blob: &[u8]) {
        if let Ok(mut sink) = self.sink.lock() {
            slot(&mut sink).get_or_insert_with(|| blob.to_vec());
        }
    }

    fn fold(&self) -> WireTally {
        let st = self.state();
        let mut t = WireTally {
            kinds: st.kinds,
            sessions: 1,
            images: st.batch.unwrap_or(0) as u64,
            ..WireTally::default()
        };
        for layer in &st.layers {
            if let Some(keys) = layer.keys {
                t.key_phase += keys.saturating_duration_since(layer.setup);
                if let Some(last) = layer.last_ct {
                    t.encrypt_phase += last.saturating_duration_since(keys);
                }
            }
        }
        let inner = self.inner.stats();
        t.send_blocked = inner.send_blocked;
        if !matches_stats(&t, &inner) {
            t.stat_mismatches = 1;
        }
        if let Some(batch) = st.batch {
            t.dispatches.push((self.opened, batch));
        }
        t
    }
}

/// Whether a connection's tally equals the inner transport's own count.
fn matches_stats(t: &WireTally, inner: &TransportStats) -> bool {
    let sum = |f: fn(&KindTally) -> u64| t.kinds.iter().map(f).sum::<u64>();
    sum(|k| k.sent_bytes) == inner.sent.bytes
        && sum(|k| k.sent_frames) == inner.sent.messages
        && sum(|k| k.recv_bytes) == inner.received.bytes
        && sum(|k| k.recv_frames) == inner.received.messages
}

impl<T: Transport> Drop for Wiretap<T> {
    fn drop(&mut self) {
        let tally = self.fold();
        if let Ok(mut sink) = self.sink.lock() {
            sink.absorb(&tally);
        }
    }
}

impl<T: Transport> Transport for Wiretap<T> {
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        let bytes = frame_bytes(msg);
        if let Some(emulation) = &self.emulation {
            std::thread::sleep(emulation.delay(msg, bytes));
        }
        self.inner.send(msg)?;
        let now = Instant::now();
        let mut st = self.state();
        let k = &mut st.kinds[kind(msg)];
        k.sent_bytes += bytes;
        k.sent_frames += 1;
        match msg {
            WireMessage::Setup(setup) => {
                st.batch.get_or_insert(setup.batch.max(1) as usize);
                st.layers.push(LayerMarks {
                    setup: now,
                    keys: None,
                    last_ct: None,
                });
            }
            WireMessage::GaloisKeys(blob) => {
                if let Some(layer) = st.layers.last_mut() {
                    layer.keys = Some(now);
                }
                drop(st);
                self.keep_sample(|t| &mut t.sample_keys, blob);
            }
            WireMessage::PackedCt { blob, .. } | WireMessage::AuxCt { blob, .. } => {
                if let Some(layer) = st.layers.last_mut() {
                    layer.last_ct = Some(now);
                }
                drop(st);
                self.keep_sample(|t| &mut t.sample_ct, blob);
            }
            _ => {}
        }
        Ok(())
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        let t0 = Instant::now();
        let msg = self.inner.recv()?;
        let wait = t0.elapsed();
        let bytes = frame_bytes(&msg);
        let mut st = self.state();
        let k = &mut st.kinds[kind(&msg)];
        k.recv_bytes += bytes;
        k.recv_frames += 1;
        k.recv_wait += wait;
        Ok(msg)
    }

    fn close_tx(&self) {
        self.inner.close_tx();
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_proto::wire::ConvSetup;
    use spot_proto::MemTransport;

    fn every_kind() -> Vec<WireMessage> {
        let setup = ConvSetup {
            scheme: 2,
            mode: 1,
            level: 1,
            batch: 3,
            h: 8,
            w: 8,
            c_in: 2,
            c_out: 4,
            k_h: 3,
            k_w: 3,
            stride: 1,
            patch_h: 4,
            patch_w: 4,
            trace: 0,
        };
        vec![
            WireMessage::Setup(setup),
            WireMessage::PublicKey(vec![1; 17]),
            WireMessage::GaloisKeys(vec![2; 1000]),
            WireMessage::PackedCt {
                seq: 4,
                blob: vec![3; 333],
            },
            WireMessage::AuxCt {
                class: 1,
                seq: 5,
                blob: vec![4; 12],
            },
            WireMessage::MaskedResult {
                seq: 6,
                blob: vec![5; 99],
            },
            WireMessage::OtRound {
                op: 1,
                round: 2,
                blob: vec![6; 40],
            },
            WireMessage::ShareReveal { blob: vec![7; 8] },
            WireMessage::LayerBarrier { layer: 1 },
            WireMessage::Teardown,
            WireMessage::Error {
                code: 1,
                detail: "full".into(),
            },
            WireMessage::ClockProbe {
                seq: 1,
                t_rx_ns: 2,
                t_tx_ns: 3,
            },
        ]
    }

    #[test]
    fn frame_bytes_matches_encoding_for_every_kind() {
        let msgs = every_kind();
        let mut seen = [false; 12];
        for msg in &msgs {
            assert_eq!(frame_bytes(msg), msg.encode_frame().len() as u64, "{msg:?}");
            seen[kind(msg)] = true;
        }
        assert!(seen.iter().all(|&s| s), "a kind is missing from the test");
    }

    #[test]
    fn tally_equals_inner_stats_and_adds_no_traffic() {
        let sink = TallySink::default();
        let (client, server) = MemTransport::pair();
        let tap = Wiretap::new(client, None, Arc::clone(&sink));
        let msgs = every_kind();
        for msg in &msgs {
            tap.send(msg).unwrap();
        }
        for msg in msgs.iter().rev() {
            server.send(msg).unwrap();
        }
        let echoed: Vec<WireMessage> = (0..msgs.len()).map(|_| tap.recv().unwrap()).collect();
        assert_eq!(echoed.len(), msgs.len());
        // The peer saw exactly the frames the decorator was handed.
        let got: Vec<WireMessage> = (0..msgs.len()).map(|_| server.recv().unwrap()).collect();
        assert_eq!(got, msgs);
        let inner = tap.stats();
        drop(tap);
        let t = sink.lock().unwrap().clone();
        assert_eq!(t.stat_mismatches, 0);
        assert_eq!(t.sessions, 1);
        assert_eq!(t.images, 3);
        let wire: u64 = msgs.iter().map(|m| m.encode_frame().len() as u64).sum();
        assert_eq!(inner.sent.bytes, wire);
        assert_eq!(t.bytes(), 2 * wire);
        assert_eq!(t.bytes(), inner.sent.bytes + inner.received.bytes);
        assert_eq!(t.frames(), 2 * msgs.len() as u64);
        let keys = &t.kinds[kind(&WireMessage::GaloisKeys(Vec::new()))];
        assert_eq!((keys.sent_frames, keys.recv_frames), (1, 1));
        assert_eq!(keys.sent_bytes, (FRAME_HEADER_BYTES + 1000) as u64);
        assert_eq!(t.bytes_of(&["galois_keys"]), 2 * keys.sent_bytes);
        assert_eq!(t.dispatches.len(), 1);
        assert_eq!(t.dispatches[0].1, 3);
    }

    #[test]
    fn emulation_delays_follow_the_device_profile() {
        let emu = Emulation::nexus6();
        let device = DeviceProfile::nexus6();
        let ct = WireMessage::PackedCt {
            seq: 0,
            blob: vec![0; 100],
        };
        let keys = WireMessage::GaloisKeys(vec![0; 100]);
        let link = Duration::from_secs_f64(device.link.transfer_time(1_000_000));
        assert_eq!(emu.delay(&keys, 1_000_000), link);
        let encrypt = device.scale(HeCostTable::reference().at(ParamLevel::N4096).encrypt);
        let extra = emu.delay(&ct, 1_000_000) - link;
        assert!((extra.as_secs_f64() - encrypt).abs() < 1e-9);
    }
}
