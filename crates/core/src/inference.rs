//! End-to-end secure inference: planning full networks for the
//! simulator, and a functional driver that runs a real network
//! (convolutions under HE, non-linearities via the simulated OT
//! protocols) on additive shares.

use crate::executor::Executor;
use crate::patching::PatchMode;
use crate::session::{run_in_process, SchemeKind};
use crate::stream::StreamStats;
use crate::{channelwise, cheetah, select, spot};

pub use crate::session::ExecBackend;
use rand::Rng;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::ConvPlan;
use spot_pipeline::sim::{simulate_layers, LayerTiming, SimConfig};
use spot_proto::channel::Channel;
use spot_proto::relu::{maxpool2_on_shares, relu_on_shares};
use spot_proto::share::ShareVec;
use spot_tensor::models::{ConvShape, Layer, Network};
use spot_tensor::tensor::{Kernel, Tensor};
use std::sync::Arc;

/// The secure-convolution scheme used for the linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// CrypTFlow2-style channel-wise packing.
    CrypTFlow2,
    /// Cheetah-style coefficient encoding.
    Cheetah,
    /// SPOT structure patching with overlap tweaking.
    Spot,
}

impl Scheme {
    /// All schemes, baselines first.
    pub const ALL: [Scheme; 3] = [Scheme::CrypTFlow2, Scheme::Cheetah, Scheme::Spot];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::CrypTFlow2 => "CrypTFlow2",
            Scheme::Cheetah => "Cheetah",
            Scheme::Spot => "SPOT",
        }
    }

    /// The session-layer scheme kind this scheme runs as.
    pub fn kind(self) -> SchemeKind {
        match self {
            Scheme::CrypTFlow2 => SchemeKind::Channelwise,
            Scheme::Cheetah => SchemeKind::Cheetah,
            Scheme::Spot => SchemeKind::Spot,
        }
    }
}

/// Runs one secure-convolution session under `scheme` with the chosen
/// backend over a batch of same-shape images (a thin wrapper over
/// [`crate::session::run_in_process`]): shared ciphertexts for the
/// slot-packed schemes, sequential images for Cheetah. Returns each
/// image's functional result in submission order — op and ciphertext
/// counts on the results are per batch — plus the measured
/// [`StreamStats`] when the streaming backend ran (`None` for the
/// phased backend).
///
/// Both backends draw randomness in the same order, so for a given rng
/// seed the returned shares and op counts are bit-identical across
/// backends, thread counts, and channel capacities.
#[allow(clippy::too_many_arguments)]
pub fn run_conv_backend<R: Rng + Send>(
    ctx: &Arc<Context>,
    keygen: &KeyGenerator,
    inputs: &[Tensor],
    kernel: &Kernel,
    stride: usize,
    patch: (usize, usize),
    mode: PatchMode,
    scheme: Scheme,
    backend: &ExecBackend,
    rng: &mut R,
) -> (Vec<channelwise::SecureConvResult>, Option<StreamStats>) {
    let mut outcome = run_in_process(
        ctx,
        keygen,
        inputs,
        kernel,
        stride,
        patch,
        mode,
        scheme.kind(),
        backend,
        rng,
    )
    .expect("in-process secure convolution session");
    let stream = outcome.stream.take();
    (outcome.into_results(), stream)
}

/// Builds the execution plan for one convolution layer under a scheme,
/// choosing each scheme's preferred parameter level.
pub fn plan_conv(shape: &ConvShape, scheme: Scheme, with_relu: bool) -> ConvPlan {
    match scheme {
        Scheme::CrypTFlow2 => {
            channelwise::plan(shape, channelwise::minimum_level(shape), with_relu)
        }
        Scheme::Cheetah => cheetah::plan(shape, cheetah::minimum_level(shape), with_relu),
        Scheme::Spot => {
            // Cost-aware level choice: smaller parameters are cheaper per
            // op, but tiny patches at a small level can inflate overlap
            // duplication and alignment rotations; pick the cheapest.
            let costs = spot_pipeline::device::HeCostTable::reference();
            let best = ParamLevel::ALL
                .into_iter()
                .filter(|l| l.supports_rotation())
                .filter_map(|l| {
                    let c = select::select_patch(shape, l, PatchMode::Tweaked)?;
                    Some(spot::plan(shape, l, c.patch, PatchMode::Tweaked, with_relu))
                })
                .min_by(|a, b| {
                    a.estimated_seconds(&costs)
                        .partial_cmp(&b.estimated_seconds(&costs))
                        .unwrap()
                });
            match best {
                Some(plan) => plan,
                None => {
                    // Channel count exceeds every lane even at the
                    // minimum patch (huge-fan-in FC layers): fall back to
                    // channel-split packing at the smallest rotation
                    // level — patch pipelining is moot for dot products.
                    let level = ParamLevel::ALL
                        .into_iter()
                        .filter(|l| l.supports_rotation())
                        .find(|l| {
                            crate::layout::next_pow2(shape.width * shape.height) <= l.degree() / 2
                        })
                        .unwrap_or(ParamLevel::N16384);
                    let mut p = channelwise::plan(shape, level, with_relu);
                    p.scheme = "SPOT (channel-split fallback)";
                    p
                }
            }
        }
    }
}

/// Builds a conv plan pinned to a specific level (for parameter sweeps).
pub fn plan_conv_at_level(
    shape: &ConvShape,
    scheme: Scheme,
    level: ParamLevel,
    with_relu: bool,
) -> Option<ConvPlan> {
    match scheme {
        Scheme::CrypTFlow2 => Some(channelwise::plan(shape, level, with_relu)),
        Scheme::Cheetah => Some(cheetah::plan(shape, level, with_relu)),
        Scheme::Spot => {
            let choice = select::select_patch(shape, level, PatchMode::Tweaked)?;
            Some(spot::plan(
                shape,
                level,
                choice.patch,
                PatchMode::Tweaked,
                with_relu,
            ))
        }
    }
}

/// The plan of a full network: one [`ConvPlan`] per linear layer (conv
/// and FC) with ReLU elements attached, plus pooling element counts.
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    /// Network name.
    pub name: &'static str,
    /// Scheme used.
    pub scheme: Scheme,
    /// One plan per linear layer.
    pub conv_plans: Vec<ConvPlan>,
    /// Total max-pool input elements (OT comparisons at 3 per window).
    pub maxpool_elements: usize,
}

/// Plans a whole network under a scheme.
pub fn plan_network(net: &Network, scheme: Scheme) -> NetworkPlan {
    let mut conv_plans = Vec::new();
    let mut maxpool_elements = 0usize;
    let layers = net.layers();
    for (i, layer) in layers.iter().enumerate() {
        match layer {
            Layer::Conv(shape) => {
                let with_relu = matches!(layers.get(i + 1), Some(Layer::Relu { .. }));
                conv_plans.push(plan_conv(shape, scheme, with_relu));
            }
            Layer::Fc { inputs, outputs } => {
                // An FC layer is a 1×1 convolution over a 1×1 map with
                // `inputs` channels.
                let shape = ConvShape::new(1, 1, *inputs, *outputs, 1, 1);
                conv_plans.push(plan_conv(&shape, scheme, false));
            }
            Layer::MaxPool { elements } => maxpool_elements += elements,
            Layer::Relu { .. } | Layer::AvgPool { .. } => {}
        }
    }
    NetworkPlan {
        name: net.name(),
        scheme,
        conv_plans,
        maxpool_elements,
    }
}

impl NetworkPlan {
    /// Simulates the network end to end under a device configuration,
    /// adding the max-pool protocol cost.
    pub fn simulate(&self, cfg: &SimConfig) -> LayerTiming {
        let mut timing = simulate_layers(&self.conv_plans, cfg);
        if self.maxpool_elements > 0 {
            let model = spot_proto::cost::OtCostModel::max(21);
            // 3 comparisons per 2×2 window = 3/4 per input element
            let n = self.maxpool_elements * 3 / 4;
            let cpu = model.cpu_seconds(n);
            let both = cfg.client.scale(cpu).max(cfg.server.scale(cpu));
            let comm = cfg.link.transfer_time(model.comm_bytes(n) as usize);
            timing.relu_s += both + comm;
            timing.total_s += both + comm;
        }
        timing
    }

    /// Total upstream+downstream communication in bytes.
    pub fn total_comm_bytes(&self) -> u64 {
        self.conv_plans
            .iter()
            .map(|p| p.upstream_bytes() + p.downstream_bytes())
            .sum()
    }
}

/// A small CNN for the functional end-to-end demo: conv → ReLU →
/// maxpool → conv → ReLU, with explicit kernels.
#[derive(Debug, Clone)]
pub struct TinyCnn {
    /// First convolution kernels.
    pub conv1: Kernel,
    /// Second convolution kernels.
    pub conv2: Kernel,
}

impl TinyCnn {
    /// Deterministic small network for tests/examples.
    pub fn new(seed: u64) -> Self {
        Self {
            conv1: Kernel::random(4, 2, 3, 3, 3, seed),
            conv2: Kernel::random(4, 4, 3, 3, 3, seed + 1),
        }
    }

    /// Plaintext reference forward pass.
    pub fn forward_plain(&self, input: &Tensor) -> Tensor {
        use spot_tensor::conv::{conv2d, maxpool2, relu};
        let x = relu(&conv2d(input, &self.conv1, 1));
        let x = maxpool2(&x);
        relu(&conv2d(&x, &self.conv2, 1))
    }

    /// Secure forward pass: convolutions under HE with the chosen
    /// scheme, ReLU/pooling via the simulated OT protocols on shares.
    ///
    /// Returns the reconstructed output (testing convenience) and the
    /// protocol channel with its traffic statistics.
    pub fn forward_secure<R: Rng + Send>(
        &self,
        ctx: &Arc<Context>,
        keygen: &KeyGenerator,
        input: &Tensor,
        scheme: Scheme,
        rng: &mut R,
    ) -> (Tensor, Channel) {
        let (out, channel, _) = self.forward_secure_with(
            ctx,
            keygen,
            input,
            scheme,
            &ExecBackend::Phased(Executor::serial()),
            rng,
        );
        (out, channel)
    }

    /// [`TinyCnn::forward_secure`] with an explicit execution backend.
    ///
    /// With [`ExecBackend::Streaming`], each convolution layer runs as a
    /// real client/server pipeline and the returned [`StreamStats`]
    /// accumulate the per-layer stall accounting end to end; the output
    /// is bit-identical to the phased backend for the same rng seed.
    pub fn forward_secure_with<R: Rng + Send>(
        &self,
        ctx: &Arc<Context>,
        keygen: &KeyGenerator,
        input: &Tensor,
        scheme: Scheme,
        backend: &ExecBackend,
        rng: &mut R,
    ) -> (Tensor, Channel, StreamStats) {
        let t = ctx.params().plain_modulus();
        let mut channel = Channel::new();
        let mut stream_stats = StreamStats::default();
        let run = |input: &Tensor,
                   kernel: &Kernel,
                   chan: &mut Channel,
                   stats: &mut StreamStats,
                   rng: &mut R| {
            let mut outcome = run_in_process(
                ctx,
                keygen,
                std::slice::from_ref(input),
                kernel,
                1,
                (4, 4),
                PatchMode::Tweaked,
                scheme.kind(),
                backend,
                rng,
            )
            .expect("in-process secure convolution session");
            // Charge the convolution's real framed wire traffic to the
            // protocol channel alongside the OT rounds.
            chan.charge_traffic(&outcome.uplink, &outcome.downlink);
            if let Some(s) = outcome.stream.take() {
                stats.accumulate(&s);
            }
            outcome.into_results().remove(0)
        };

        // conv1 under HE
        let r1 = run(input, &self.conv1, &mut channel, &mut stream_stats, rng);
        // ReLU on shares
        let (c, s) = to_shares(&r1, t);
        let (c, s) = relu_on_shares(&c, &s, &mut channel, rng);
        // maxpool on shares
        let (c, s) = maxpool2_on_shares(
            &c,
            &s,
            self.conv1.out_channels(),
            input.height(),
            input.width(),
            &mut channel,
            rng,
        );
        let mid = from_shares(
            &c,
            &s,
            self.conv1.out_channels(),
            input.height() / 2,
            input.width() / 2,
            t,
        );
        // conv2 under HE (on the reconstructed-for-simulation tensor; in
        // the real protocol the client re-encrypts its share and the
        // server adds its own — the arithmetic is identical)
        let r2 = run(&mid, &self.conv2, &mut channel, &mut stream_stats, rng);
        let (c, s) = to_shares(&r2, t);
        let (c, s) = relu_on_shares(&c, &s, &mut channel, rng);
        let out = from_shares(
            &c,
            &s,
            self.conv2.out_channels(),
            input.height() / 2,
            input.width() / 2,
            t,
        );
        (out, channel, stream_stats)
    }
}

fn to_shares(res: &crate::channelwise::SecureConvResult, t: u64) -> (ShareVec, ShareVec) {
    let client: Vec<u64> = res
        .client_share
        .data()
        .iter()
        .map(|&v| v.rem_euclid(t as i64) as u64)
        .collect();
    let server: Vec<u64> = res
        .server_share
        .data()
        .iter()
        .map(|&v| v.rem_euclid(t as i64) as u64)
        .collect();
    (
        ShareVec::new(spot_proto::share::Party::Client, t, client),
        ShareVec::new(spot_proto::share::Party::Server, t, server),
    )
}

fn from_shares(c: &ShareVec, s: &ShareVec, channels: usize, h: usize, w: usize, t: u64) -> Tensor {
    let vals = spot_proto::relu::reconstruct_signed(c, s);
    let _ = t;
    Tensor::from_vec(channels, h, w, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spot_he::params::EncryptionParams;
    use spot_tensor::models::{resnet18, vgg16};

    #[test]
    fn network_plans_have_all_linear_layers() {
        let net = resnet18();
        for scheme in Scheme::ALL {
            let plan = plan_network(&net, scheme);
            // 17 convs + 1 FC
            assert_eq!(plan.conv_plans.len(), 18, "{}", scheme.name());
            assert!(plan.maxpool_elements > 0);
        }
    }

    #[test]
    fn spot_uses_smaller_levels_than_channelwise() {
        let net = vgg16();
        let cw = plan_network(&net, Scheme::CrypTFlow2);
        let sp = plan_network(&net, Scheme::Spot);
        let avg_level = |p: &NetworkPlan| {
            p.conv_plans.iter().map(|c| c.level.degree()).sum::<usize>() as f64
                / p.conv_plans.len() as f64
        };
        assert!(avg_level(&sp) < avg_level(&cw));
    }

    #[test]
    fn tiny_cnn_secure_matches_plain_all_schemes() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(42);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let cnn = TinyCnn::new(7);
        let input = Tensor::random(2, 8, 8, 5, 9);
        let want = cnn.forward_plain(&input);
        for scheme in Scheme::ALL {
            let (got, channel) = cnn.forward_secure(&ctx, &kg, &input, scheme, &mut rng);
            assert_eq!(got, want, "scheme {}", scheme.name());
            assert!(channel.total_bytes() > 0);
        }
    }

    #[test]
    fn tiny_cnn_streaming_backend_matches_phased() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(42);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let cnn = TinyCnn::new(7);
        let input = Tensor::random(2, 8, 8, 5, 9);
        for scheme in Scheme::ALL {
            let mut rng_a = StdRng::seed_from_u64(77);
            let (phased, chan_a, _) = cnn.forward_secure_with(
                &ctx,
                &kg,
                &input,
                scheme,
                &ExecBackend::Phased(Executor::serial()),
                &mut rng_a,
            );
            let mut rng_b = StdRng::seed_from_u64(77);
            let cfg = StreamConfig::new(Executor::new(2), 2);
            let (streamed, chan_b, stats) = cnn.forward_secure_with(
                &ctx,
                &kg,
                &input,
                scheme,
                &ExecBackend::Streaming(cfg),
                &mut rng_b,
            );
            assert_eq!(phased, streamed, "scheme {}", scheme.name());
            assert_eq!(chan_a.total_bytes(), chan_b.total_bytes());
            assert!(stats.input_items > 0, "scheme {}", scheme.name());
            assert!(stats.wall_s > 0.0);
        }
    }

    #[test]
    fn simulate_network_produces_sane_timing() {
        use spot_pipeline::device::DeviceProfile;
        let net = resnet18();
        let cfg = SimConfig::with_client(DeviceProfile::iot_k27());
        let sp = plan_network(&net, Scheme::Spot).simulate(&cfg);
        let cw = plan_network(&net, Scheme::CrypTFlow2).simulate(&cfg);
        assert!(sp.total_s > 1.0, "SPOT total {}", sp.total_s);
        assert!(
            sp.total_s < cw.total_s,
            "SPOT {} should beat CrypTFlow2 {}",
            sp.total_s,
            cw.total_s
        );
    }
}
