//! Live metrics registry: named counters, gauges, and log2-bucketed
//! latency histograms for a long-running server.
//!
//! The trace layer ([`crate`]) answers *"what happened in this run?"*
//! post-mortem: enable, run, drain, export. A serving process needs the
//! complementary question answered continuously — *"what is the p99
//! right now?"* — without stopping the process or buffering events.
//! This module is that substrate:
//!
//! * Every metric is a plain struct of **relaxed atomics** — no locks on
//!   the record path, exact totals under parallel workers (relaxed
//!   additions commute, the same argument as [`crate::CounterSnapshot`]).
//! * [`Histogram`] has a **fixed footprint** (64 log2 buckets + count +
//!   sum, 528 bytes) regardless of how many values it absorbs, so a
//!   latency series can run for weeks without growing.
//! * Recording through the registry-facing methods ([`Counter::inc`],
//!   [`Gauge::set`], [`Histogram::observe`], [`Histogram::start_timer`])
//!   is gated on a process-wide switch with the same disabled-path
//!   budget as the trace counters: one relaxed load and a branch
//!   (measured by the `trace_overhead` bench). The `*_always` variants
//!   ([`Histogram::record`], …) bypass the switch for callers that own
//!   their metric outright (e.g. a load generator's latency histogram).
//! * [`Registry::snapshot`]/[`MetricsSnapshot::delta`] have exact
//!   semantics: counters and histogram buckets subtract element-wise
//!   (saturating), gauges keep the later sample.
//!
//! Two encoders serve the snapshots: [`encode_prometheus`] renders the
//! standard text exposition format (`name{labels} value`, histograms as
//! cumulative `_bucket{le=...}` series), [`encode_json`] a JSON document
//! validated by [`crate::json::validate`].
//!
//! ## Bucketing scheme
//!
//! Bucket `i` of a histogram covers `[2^i, 2^(i+1) - 1]`; bucket 0
//! additionally absorbs the value 0. Every `u64` maps to exactly one of
//! the 64 buckets via one `leading_zeros`, and any quantile estimate is
//! within a factor of 2 of the true order statistic (the estimate and
//! the true value share a bucket whose width is < its lower bound).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Global switch
// ---------------------------------------------------------------------

static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// Whether registry-facing recording is on. This is the disabled-path
/// hot check: one relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Turns registry recording on (a server does this when it starts its
/// admin endpoint). Idempotent.
pub fn enable() {
    METRICS_ON.store(true, Ordering::SeqCst);
}

/// Turns registry recording off. Recorded values are kept.
pub fn disable() {
    METRICS_ON.store(false, Ordering::SeqCst);
}

// ---------------------------------------------------------------------
// Metric cells
// ---------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    val: AtomicU64,
}

impl Counter {
    /// A standalone (unregistered) counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` when metrics are [`enabled`]; disabled path is one
    /// relaxed load and a branch.
    #[inline(always)]
    pub fn inc(&self, n: u64) {
        if enabled() {
            self.inc_always(n);
        }
    }

    /// Adds `n` unconditionally (caller-owned metrics).
    #[inline]
    pub fn inc_always(&self, n: u64) {
        self.val.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.val.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (e.g. active sessions).
#[derive(Debug, Default)]
pub struct Gauge {
    val: AtomicU64,
}

impl Gauge {
    /// A standalone (unregistered) gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value when metrics are [`enabled`].
    #[inline(always)]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.val.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` when metrics are [`enabled`].
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.val.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n` (saturating at 0) when metrics are [`enabled`].
    /// Saturation keeps a gauge sane if the switch flips mid-flight and
    /// an `add` was skipped.
    #[inline(always)]
    pub fn sub(&self, n: u64) {
        if enabled() {
            let mut cur = self.val.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(n);
                match self.val.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.val.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per power of two over the `u64`
/// range, so bucketing is a single `leading_zeros` and the footprint is
/// fixed at registration time.
pub const HIST_BUCKETS: usize = 64;

/// The bucket index for a value: `floor(log2(v))`, with 0 and 1 sharing
/// bucket 0. Total order is preserved: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (`0` for bucket 0, else `2^i`).
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A fixed-footprint streaming histogram over `u64` samples
/// (conventionally nanoseconds), log2-bucketed. All fields are relaxed
/// atomics: concurrent `record`s from any number of threads produce
/// exact `count`/`sum`/bucket totals.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// A standalone (unregistered) histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `v` when metrics are [`enabled`]; disabled path is one
    /// relaxed load and a branch.
    #[inline(always)]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.record(v);
        }
    }

    /// Records `v` unconditionally (caller-owned histograms, e.g. a
    /// load generator's latency series).
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a timer that observes its elapsed nanoseconds on drop.
    /// When metrics are disabled at start the timer is inert — no
    /// `Instant::now()` is taken, keeping instrumentation sites inside
    /// the disabled-path budget.
    #[inline]
    pub fn start_timer(&self) -> HistTimer<'_> {
        HistTimer {
            hist: self,
            start: enabled().then(Instant::now),
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, cell) in buckets.iter_mut().zip(&self.buckets) {
            *b = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// RAII timer from [`Histogram::start_timer`]: observes elapsed
/// nanoseconds on drop. Inert (and free) when metrics were disabled at
/// creation.
#[must_use = "a timer observes on drop; binding to _ drops it immediately"]
pub struct HistTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl HistTimer<'_> {
    /// Discards the timer without recording (e.g. on an error path that
    /// should not pollute a latency series).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for HistTimer<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start.take() {
            // `record`, not `observe`: the cost is already paid and a
            // switch flip mid-span should not lose the sample.
            self.hist.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (exact).
    pub sum: u64,
    /// Per-bucket sample counts (see [`bucket_lower`]/[`bucket_upper`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Element-wise `self - earlier` (saturating).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            ..HistogramSnapshot::default()
        };
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out
    }

    /// Bucket-wise merge of two snapshots (e.g. per-client histograms
    /// folded into one).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            ..HistogramSnapshot::default()
        };
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i] + other.buckets[i];
        }
        out
    }

    /// Arithmetic mean of the recorded samples (exact — `sum` is).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket holding the target rank. The estimate lies in
    /// the same bucket as the true order statistic, so it is within a
    /// factor of 2 of it (and exact at the bucket edges).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: the same convention as
        // indexing a sorted vector with `ceil(q * n)`.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_lower(i) as f64;
                let hi = bucket_upper(i) as f64;
                // Position of the rank inside this bucket, in (0, 1].
                let within = (rank - seen) as f64 / n as f64;
                return lo + (hi - lo) * within;
            }
            seen += n;
        }
        bucket_upper(HIST_BUCKETS - 1) as f64
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// The value cell of one registered series.
#[derive(Debug)]
enum Cell {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One registered time series: a metric name, a (possibly empty) sorted
/// label set, and its cell.
#[derive(Debug)]
struct Series {
    name: String,
    labels: Vec<(String, String)>,
    cell: Cell,
}

/// A set of named metrics. Registration (`counter`/`gauge`/`histogram`)
/// takes a mutex and is get-or-create on `(name, labels)` — call it
/// once per site and hold the returned `Arc`; recording through the
/// handle is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<Vec<Series>>,
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// An empty registry (the process normally uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T, F, G>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        pick: F,
        make: G,
    ) -> Arc<T>
    where
        F: Fn(&Cell) -> Option<Arc<T>>,
        G: FnOnce() -> Cell,
    {
        let labels = sorted_labels(labels);
        let mut series = self.series.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(s) = series.iter().find(|s| s.name == name && s.labels == labels) {
            return pick(&s.cell).unwrap_or_else(|| {
                panic!("metric {name:?} already registered with a different kind")
            });
        }
        let cell = make();
        let handle = pick(&cell).expect("freshly made cell matches its kind");
        series.push(Series {
            name: name.to_string(),
            labels,
            cell,
        });
        handle
    }

    /// The counter named `name` with `labels`, created on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_insert(
            name,
            labels,
            |c| match c {
                Cell::Counter(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || Cell::Counter(Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name` with `labels`, created on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            labels,
            |c| match c {
                Cell::Gauge(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || Cell::Gauge(Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name` with `labels`, created on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            labels,
            |c| match c {
                Cell::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || Cell::Histogram(Arc::new(Histogram::new())),
        )
    }

    /// A point-in-time copy of every registered series, sorted by
    /// `(name, labels)` for stable exposition.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let series = self.series.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<SeriesSnapshot> = series
            .iter()
            .map(|s| SeriesSnapshot {
                name: s.name.clone(),
                labels: s.labels.clone(),
                value: match &s.cell {
                    Cell::Counter(c) => ValueSnapshot::Counter(c.get()),
                    Cell::Gauge(g) => ValueSnapshot::Gauge(g.get()),
                    Cell::Histogram(h) => ValueSnapshot::Histogram(h.snapshot()),
                },
            })
            .collect();
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot { series: out }
    }

    /// Zeroes every registered cell. Series stay registered (handles
    /// held by instrumentation sites remain live); test/run-boundary
    /// helper, pairing with [`crate::reset`].
    pub fn reset(&self) {
        let series = self.series.lock().unwrap_or_else(|p| p.into_inner());
        for s in series.iter() {
            match &s.cell {
                Cell::Counter(c) => c.val.store(0, Ordering::Relaxed),
                Cell::Gauge(g) => g.val.store(0, Ordering::Relaxed),
                Cell::Histogram(h) => {
                    h.count.store(0, Ordering::Relaxed);
                    h.sum.store(0, Ordering::Relaxed);
                    for b in &h.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// The process-wide registry every serving-path instrumentation site
/// registers into; the admin endpoint exposes its snapshots.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// The snapshotted value of one series.
// Snapshots are built once per scrape and held in a short Vec; the
// 528-byte histogram variant is cheaper flat than behind a per-series
// allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge sample.
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One series in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: ValueSnapshot,
}

/// A point-in-time copy of a whole registry, sorted by `(name, labels)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The snapshotted series.
    pub series: Vec<SeriesSnapshot>,
}

impl MetricsSnapshot {
    /// The series `(name, labels)`, if present.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&ValueSnapshot> {
        let labels = sorted_labels(labels);
        self.series
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| &s.value)
    }

    /// Counter value of `(name, labels)`, or 0 when absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(ValueSnapshot::Counter(v)) | Some(ValueSnapshot::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram state of `(name, labels)`, if that series is one.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.get(name, labels) {
            Some(ValueSnapshot::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Per-series `self - earlier`: counters and histograms subtract
    /// (saturating), gauges keep the later sample. Series absent from
    /// `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let series = self
            .series
            .iter()
            .map(|s| {
                let before = earlier
                    .series
                    .iter()
                    .find(|e| e.name == s.name && e.labels == s.labels);
                let value = match (&s.value, before.map(|b| &b.value)) {
                    (ValueSnapshot::Counter(v), Some(ValueSnapshot::Counter(b))) => {
                        ValueSnapshot::Counter(v.saturating_sub(*b))
                    }
                    (ValueSnapshot::Histogram(v), Some(ValueSnapshot::Histogram(b))) => {
                        ValueSnapshot::Histogram(v.delta(b))
                    }
                    (v, _) => v.clone(),
                };
                SeriesSnapshot {
                    name: s.name.clone(),
                    labels: s.labels.clone(),
                    value,
                }
            })
            .collect();
        MetricsSnapshot { series }
    }
}

// ---------------------------------------------------------------------
// Exposition encoders
// ---------------------------------------------------------------------

/// Escapes a label value per the Prometheus text format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn format_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders a snapshot in the Prometheus text exposition format: one
/// `# TYPE` line per metric name, `name{labels} value` samples,
/// histograms as cumulative `_bucket{le="..."}` series (empty buckets
/// elided — cumulative counts lose nothing) plus `_sum` and `_count`.
pub fn encode_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in &snap.series {
        if last_name != Some(s.name.as_str()) {
            let kind = match s.value {
                ValueSnapshot::Counter(_) => "counter",
                ValueSnapshot::Gauge(_) => "gauge",
                ValueSnapshot::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {} {kind}\n", s.name));
            last_name = Some(s.name.as_str());
        }
        match &s.value {
            ValueSnapshot::Counter(v) | ValueSnapshot::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {v}\n",
                    s.name,
                    format_labels(&s.labels, None)
                ));
            }
            ValueSnapshot::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    cumulative += n;
                    let le = bucket_upper(i).to_string();
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        s.name,
                        format_labels(&s.labels, Some(("le", &le)))
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    s.name,
                    format_labels(&s.labels, Some(("le", "+Inf"))),
                    h.count
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    s.name,
                    format_labels(&s.labels, None),
                    h.sum
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    s.name,
                    format_labels(&s.labels, None),
                    h.count
                ));
            }
        }
    }
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a snapshot as a JSON document (`{"metrics": [...]}`), each
/// series with its name, labels, type, and value; histograms carry
/// per-bucket `le`/`count` pairs (empty buckets elided), `sum`,
/// `count`, and p50/p99/p999 estimates.
pub fn encode_json(snap: &MetricsSnapshot) -> String {
    let mut items = Vec::with_capacity(snap.series.len());
    for s in &snap.series {
        let labels = s
            .labels
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect::<Vec<_>>()
            .join(", ");
        let body = match &s.value {
            ValueSnapshot::Counter(v) => format!("\"type\": \"counter\", \"value\": {v}"),
            ValueSnapshot::Gauge(v) => format!("\"type\": \"gauge\", \"value\": {v}"),
            ValueSnapshot::Histogram(h) => {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(i, &n)| format!("{{\"le\": {}, \"count\": {n}}}", bucket_upper(i)))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \
                     \"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}, \"buckets\": [{buckets}]",
                    h.count,
                    h.sum,
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.quantile(0.999)
                )
            }
        };
        items.push(format!(
            "{{\"name\": {}, \"labels\": {{{labels}}}, {body}}}",
            json_string(&s.name)
        ));
    }
    format!("{{\"metrics\": [{}]}}\n", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registry recording shares the process-global switch; serialize
    // the tests that toggle it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn bucket_boundaries_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i).max(1)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
            assert!(bucket_lower(i) <= bucket_upper(i));
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = guard();
        disable();
        let reg = Registry::new();
        let c = reg.counter("c", &[]);
        let g = reg.gauge("g", &[]);
        let h = reg.histogram("h", &[]);
        c.inc(5);
        g.set(7);
        g.add(2);
        h.observe(100);
        let t = h.start_timer();
        drop(t);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        // The *_always paths bypass the switch.
        c.inc_always(3);
        h.record(9);
        assert_eq!(c.get(), 3);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_get_or_create_returns_same_cell() {
        let _g = guard();
        enable();
        let reg = Registry::new();
        let a = reg.counter("requests", &[("scheme", "spot")]);
        let b = reg.counter("requests", &[("scheme", "spot")]);
        let other = reg.counter("requests", &[("scheme", "cheetah")]);
        a.inc(2);
        b.inc(3);
        other.inc(10);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("requests", &[("scheme", "spot")]), 5);
        assert_eq!(
            reg.snapshot().counter("requests", &[("scheme", "cheetah")]),
            10
        );
        disable();
    }

    #[test]
    fn snapshot_delta_semantics() {
        let _g = guard();
        enable();
        let reg = Registry::new();
        let c = reg.counter("c", &[]);
        let g = reg.gauge("g", &[]);
        let h = reg.histogram("h", &[]);
        c.inc(10);
        g.set(4);
        h.observe(100);
        let before = reg.snapshot();
        c.inc(7);
        g.set(2);
        h.observe(3000);
        h.observe(5);
        let after = reg.snapshot();
        disable();
        let d = after.delta(&before);
        assert_eq!(d.counter("c", &[]), 7);
        // Gauges keep the later sample.
        assert_eq!(d.counter("g", &[]), 2);
        let dh = d.histogram("h", &[]).expect("histogram");
        assert_eq!(dh.count, 2);
        assert_eq!(dh.sum, 3005);
        assert_eq!(dh.buckets[bucket_index(3000)], 1);
        assert_eq!(dh.buckets[bucket_index(5)], 1);
        assert_eq!(dh.buckets[bucket_index(100)], 0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        let p50 = s.quantile(0.5);
        // Rank 5 is the value 16, bucket [16, 31].
        assert!((16.0..=31.0).contains(&p50), "p50 {p50}");
        let p100 = s.quantile(1.0);
        assert!((1024.0..=2047.0).contains(&p100), "p100 {p100}");
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(100);
        b.record(100);
        b.record(1000);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.count, 4);
        assert_eq!(merged.sum, 1210);
        assert_eq!(merged.buckets[bucket_index(100)], 2);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let _g = guard();
        enable();
        let reg = Registry::new();
        reg.counter("spot_sessions_served", &[]).inc(16);
        reg.gauge("spot_sessions_active", &[]).set(2);
        let h = reg.histogram("spot_conv_serve_ns", &[("scheme", "spot")]);
        h.observe(900);
        h.observe(1100);
        disable();
        let text = encode_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE spot_sessions_served counter\n"));
        assert!(text.contains("spot_sessions_served 16\n"));
        assert!(text.contains("spot_sessions_active 2\n"));
        assert!(text.contains("# TYPE spot_conv_serve_ns histogram\n"));
        assert!(text.contains("spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"1023\"} 1\n"));
        assert!(text.contains("spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"2047\"} 2\n"));
        assert!(text.contains("spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("spot_conv_serve_ns_sum{scheme=\"spot\"} 2000\n"));
        assert!(text.contains("spot_conv_serve_ns_count{scheme=\"spot\"} 2\n"));
    }

    #[test]
    fn json_exposition_is_valid() {
        let _g = guard();
        enable();
        let reg = Registry::new();
        reg.counter("c", &[("weird", "a\"b\\c\nd")]).inc(1);
        reg.histogram("h", &[]).observe(42);
        disable();
        let json = encode_json(&reg.snapshot());
        crate::json::validate(&json).expect("metrics JSON validates");
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_live() {
        let _g = guard();
        enable();
        let reg = Registry::new();
        let c = reg.counter("c", &[]);
        c.inc(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc(4);
        assert_eq!(reg.snapshot().counter("c", &[]), 4);
        disable();
    }
}
