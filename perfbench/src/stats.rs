//! Sample statistics for the benchmark: exact order statistics over raw
//! samples (never histogram-bucket interpolation), due-time latency for
//! open-loop arrivals, and the metric-name rule the result JSON obeys.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One percentile taken from raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The selected sample.
    pub value: f64,
    /// Number of samples the percentile was taken from.
    pub samples: usize,
    /// Samples strictly after the selected rank.
    pub beyond: usize,
}

/// Nearest-rank percentile: the smallest sample with at least a share
/// `p` of all samples at or below it (the `ceil(p·n)`-th smallest).
/// `None` for an empty sample or `p` outside `(0, 1]`.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median of the samples (nearest-rank, so always one of them).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5).map(|p| p.value)
}

/// The arrival schedule of an open-loop generator.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The instant arrival offsets count from.
    pub start: Instant,
    /// Arrival times after `start`, increasing.
    pub offsets: Vec<Duration>,
}

/// Seed of the arrival jitter. Fixed, so every run of a workload sees
/// the same arrival pattern and only the request inputs vary by run.
const JITTER_SEED: u64 = 0x5907_A221;

impl Schedule {
    /// Jittered arrivals at `rate` per second over `window`: request `i`
    /// falls uniformly at random within its own slot `[i, i+1) / rate`.
    /// The rate holds over every stretch of time, as in a fixed-interval
    /// schedule, while the times between arrivals, and so the queue
    /// waits, spread continuously instead of taking a few exact values.
    pub fn jittered(start: Instant, rate: f64, window: Duration) -> Self {
        let mut rng = StdRng::seed_from_u64(JITTER_SEED);
        let offsets = (0..)
            .map(|i| (i as f64 + rng.gen::<f64>()) / rate)
            .take_while(|&t| t < window.as_secs_f64())
            .map(Duration::from_secs_f64)
            .collect();
        Self { start, offsets }
    }

    /// Due time of request `i`.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.offsets[i]
    }
}

/// Latency of an open-loop request, counted from when it was *due*,
/// not from when the generator got round to submitting it: a stall
/// that delays later submissions shows up in their latency.
pub fn due_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late the generator submitted a request.
pub fn lateness(due: Instant, submitted: Instant) -> Duration {
    submitted.saturating_duration_since(due)
}

/// Whether `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selects_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&xs, 0.5).unwrap();
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.samples, 100);
        assert_eq!(p50.beyond, 50);
        let p90 = percentile(&xs, 0.9).unwrap();
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert_eq!(percentile(&xs, 1.0).unwrap().value, 100.0);
        assert_eq!(percentile(&xs, 0.001).unwrap().value, 1.0);
    }

    #[test]
    fn percentile_small_and_degenerate_samples() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        assert_eq!(percentile(&[1.0], 1.5), None);
        let one = percentile(&[3.5], 0.9).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (3.5, 1, 0));
        // Three samples: p50 is rank 2, p90 rank 3.
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.9).unwrap().value, 9.0);
        // Even count: nearest rank takes the lower middle, never an
        // interpolated value that was not observed.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "latency_p50_s",
            "he.galois_to_bytes_ms",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "p50%", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn jittered_schedule_keeps_one_arrival_per_slot() {
        let start = Instant::now();
        let a = Schedule::jittered(start, 4.0, Duration::from_secs(30));
        assert_eq!(a.offsets.len(), 120);
        for (i, t) in a.offsets.iter().enumerate() {
            let slot = t.as_secs_f64() * 4.0;
            assert!(slot >= i as f64 && slot < (i + 1) as f64, "{i}: {slot}");
        }
        // Same pattern on every call; the gaps really vary.
        let b = Schedule::jittered(start, 4.0, Duration::from_secs(30));
        assert_eq!(a.offsets, b.offsets);
        let gaps: Vec<Duration> = a.offsets.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().any(|g| *g != gaps[0]));
        assert_eq!(a.due(3), start + a.offsets[3]);
    }

    #[test]
    fn due_time_latency_counts_generator_lag() {
        let due = Instant::now();
        // Submitted 30 ms late, completed 200 ms after submission: the
        // request's latency is 230 ms, not 200 ms.
        let submitted = due + Duration::from_millis(30);
        let done = submitted + Duration::from_millis(200);
        assert_eq!(lateness(due, submitted), Duration::from_millis(30));
        assert_eq!(due_latency(due, done), Duration::from_millis(230));
        // Early completion cannot go negative.
        assert_eq!(due_latency(done, due), Duration::ZERO);
    }
}
