//! Labeled process metrics for the FD-RMS serving stack.
//!
//! A [`Registry`] owns a set of metric *families* (one per name), each
//! holding one *series* per distinct label set. Three instrument kinds
//! are supported, mirroring the Prometheus data model:
//!
//! - [`Counter`] — monotonically increasing `u64`;
//! - [`Gauge`] — signed value that can go up and down;
//! - [`Histogram`] — fixed log₂-bucket latency histogram (64 buckets,
//!   one per power-of-two nanosecond range).
//!
//! Instrument handles are cheap `Arc` clones over plain atomics: the
//! hot path (`inc`/`add`/`record`) is a relaxed `fetch_add` with no
//! locking. The registry's internal mutex is touched only at
//! registration time and when encoding, both off the hot path.
//!
//! # Naming discipline
//!
//! Metric names must be `snake_case` and carry an `rms_<subsystem>_`
//! prefix (`rms_wal_appends_total`, `rms_tcp_subscribers`, …). The
//! rules are enforced at registration (see [`validate_metric_name`])
//! and statically by the `rms-analyze` rule `metric-name-discipline`.
//!
//! # Exposition
//!
//! [`Registry::encode`] renders the Prometheus text format
//! (`# HELP`/`# TYPE` headers, escaped label values, cumulative
//! `_bucket`/`_sum`/`_count` histogram series with `le` upper edges in
//! seconds). Output is deterministic: families and series are stored
//! in ordered maps, so two encodes of the same state are byte-equal.
//!
//! ```
//! use rms_metrics::Registry;
//!
//! let reg = Registry::new();
//! let reqs = reg.register_counter(
//!     "rms_tcp_requests_total",
//!     "Requests handled, by verb.",
//!     &[("verb", "QUERY")],
//! );
//! reqs.inc();
//! let text = reg.encode();
//! assert!(text.contains("# TYPE rms_tcp_requests_total counter"));
//! assert!(text.contains("rms_tcp_requests_total{verb=\"QUERY\"} 1"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

// Every atomic in this crate is an independent statistics cell —
// counters, gauges, histogram buckets, and sums carry no cross-cell
// ordering contract (a scrape racing a `record` may be off by the
// in-flight observation, which Prometheus tolerates by design) — so
// every access, through whichever handle name it flows, is Relaxed.
// rms-analyze: atomic-policy(c: Relaxed, g: Relaxed, cell: Relaxed, bucket: Relaxed, buckets: Relaxed, b: Relaxed, sum_raw: Relaxed)

/// Number of log₂ latency buckets per histogram: bucket `i` counts
/// observations in `[2^i, 2^(i+1))` nanoseconds, so 64 buckets span
/// the full `u64` nanosecond range (~584 years).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Sole poison policy of this crate, mirroring `rms-serve`: the
/// registry map holds no invariants a panicking registrant could
/// break mid-update that outlive the entry insert, so recover the
/// guard instead of propagating the poison.
fn recover<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Checks the metric-name discipline shared with the `rms-analyze`
/// `metric-name-discipline` rule: ASCII `snake_case` over `[a-z0-9_]`,
/// at least three non-empty `_`-separated segments, and an
/// `rms_<subsystem>_` prefix.
///
/// # Errors
///
/// Returns a human-readable description of the first violated rule.
pub fn validate_metric_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("metric name is empty".into());
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    {
        return Err(format!(
            "metric name `{name}` must be snake_case over [a-z0-9_]"
        ));
    }
    let segments: Vec<&str> = name.split('_').collect();
    if segments.iter().any(|s| s.is_empty()) {
        return Err(format!(
            "metric name `{name}` has an empty `_`-separated segment"
        ));
    }
    if segments[0] != "rms" || segments.len() < 3 {
        return Err(format!(
            "metric name `{name}` must carry an `rms_<subsystem>_` prefix"
        ));
    }
    Ok(())
}

/// Checks a label name: `[a-z][a-z0-9_]*`, and not the reserved `le`
/// (which the histogram encoder appends itself).
fn validate_label_name(name: &str) -> Result<(), String> {
    let starts_lower = name.as_bytes().first().is_some_and(u8::is_ascii_lowercase);
    let body_ok = name
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_');
    if !starts_lower || !body_ok {
        return Err(format!("label name `{name}` must match [a-z][a-z0-9_]*"));
    }
    if name == "le" {
        return Err("label name `le` is reserved for histogram buckets".into());
    }
    Ok(())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
enum SeriesCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Family {
    kind: Kind,
    help: String,
    /// One series per distinct label set; the key is the label pairs
    /// sorted by name, which makes encoding order deterministic.
    series: BTreeMap<Vec<(String, String)>, SeriesCell>,
}

/// A process-local collection of labeled metric families.
///
/// The serving stack creates one registry per service, so a `krms
/// serve` process has exactly one — effectively process-wide in
/// production, while tests can keep several isolated instances in one
/// process.
#[derive(Debug)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    /// Registers (or looks up) the counter series `name{labels}`.
    ///
    /// Registration is get-or-create: a second call with the same name
    /// and labels returns a handle to the same underlying cell, and
    /// the same name with different labels adds a series to the
    /// family. The `help` text of the first registration wins.
    ///
    /// # Panics
    ///
    /// Panics if the name violates [`validate_metric_name`], a label
    /// name is malformed or duplicated, or `name` is already
    /// registered as a different kind. All of these are programmer
    /// errors caught at startup, not runtime conditions.
    pub fn register_counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let cell = self.register_cell(Kind::Counter, name, help, labels, || {
            SeriesCell::Counter(Arc::new(AtomicU64::new(0)))
        });
        match cell {
            SeriesCell::Counter(cell) => Counter { cell },
            // rms-analyze: allow(unwrap-nontest, "register_cell asserts the family kind matches, so the cell variant is Counter")
            _ => unreachable!("kind checked by register_cell"),
        }
    }

    /// Registers (or looks up) the gauge series `name{labels}`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Registry::register_counter`].
    pub fn register_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let cell = self.register_cell(Kind::Gauge, name, help, labels, || {
            SeriesCell::Gauge(Arc::new(AtomicI64::new(0)))
        });
        match cell {
            SeriesCell::Gauge(cell) => Gauge { cell },
            // rms-analyze: allow(unwrap-nontest, "register_cell asserts the family kind matches, so the cell variant is Gauge")
            _ => unreachable!("kind checked by register_cell"),
        }
    }

    /// Registers (or looks up) the latency histogram series
    /// `name{labels}`: observations are nanoseconds, `le` bucket edges
    /// and `_sum` are rendered in seconds.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Registry::register_counter`].
    pub fn register_histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let cell = self.register_cell(Kind::Histogram, name, help, labels, || {
            SeriesCell::Histogram(Arc::new(HistogramCore::new(NANOS_PER_SECOND)))
        });
        match cell {
            SeriesCell::Histogram(core) => Histogram { core },
            // rms-analyze: allow(unwrap-nontest, "register_cell asserts the family kind matches, so the cell variant is Histogram")
            _ => unreachable!("kind checked by register_cell"),
        }
    }

    /// Registers (or looks up) a *unitless* histogram series
    /// `name{labels}` — for size distributions (ops per batch) rather
    /// than latencies. Observations, `le` edges, and `_sum` are all in
    /// the raw observed unit. A name must not mix units: register it
    /// either through this or through [`Registry::register_histogram`],
    /// never both (the first registration's unit wins).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Registry::register_counter`].
    pub fn register_histogram_values(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        let cell = self.register_cell(Kind::Histogram, name, help, labels, || {
            SeriesCell::Histogram(Arc::new(HistogramCore::new(1.0)))
        });
        match cell {
            SeriesCell::Histogram(core) => Histogram { core },
            // rms-analyze: allow(unwrap-nontest, "register_cell asserts the family kind matches, so the cell variant is Histogram")
            _ => unreachable!("kind checked by register_cell"),
        }
    }

    fn register_cell(
        &self,
        kind: Kind,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> SeriesCell,
    ) -> SeriesCell {
        if let Err(e) = validate_metric_name(name) {
            // rms-analyze: allow(unwrap-nontest, "registration-time name validation is a programmer error; fail fast at startup")
            panic!("rms-metrics: {e}");
        }
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        for (k, _) in &key {
            if let Err(e) = validate_label_name(k) {
                // rms-analyze: allow(unwrap-nontest, "registration-time label validation is a programmer error; fail fast at startup")
                panic!("rms-metrics: metric `{name}`: {e}");
            }
        }
        key.sort();
        if key.windows(2).any(|w| w[0].0 == w[1].0) {
            // rms-analyze: allow(unwrap-nontest, "registration-time label validation is a programmer error; fail fast at startup")
            panic!("rms-metrics: metric `{name}` has a duplicate label name");
        }
        let mut families = recover(self.families.lock());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "rms-metrics: metric `{name}` already registered as {}",
            family.kind.as_str()
        );
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// Renders every family in the Prometheus text exposition format.
    ///
    /// Families are emitted in name order and series in label order,
    /// so the output is deterministic for a given set of values.
    /// Values are read with relaxed loads: a histogram scraped during
    /// a concurrent `record` may be internally off by the in-flight
    /// observation, which Prometheus tolerates by design.
    #[must_use]
    pub fn encode(&self) -> String {
        let families = recover(self.families.lock());
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = write!(out, "# HELP {name} ");
            escape_help_into(&mut out, &family.help);
            out.push('\n');
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, cell) in &family.series {
                match cell {
                    SeriesCell::Counter(c) => {
                        out.push_str(name);
                        push_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", c.load(Ordering::Relaxed));
                    }
                    SeriesCell::Gauge(g) => {
                        out.push_str(name);
                        push_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", g.load(Ordering::Relaxed));
                    }
                    SeriesCell::Histogram(h) => encode_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

/// Appends `{k1="v1",k2="v2"}` (plus an optional trailing extra pair,
/// used for `le`) or nothing when there are no labels at all.
fn push_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_into(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        // `le` values are numerals we format ourselves; escaping is
        // still applied for uniformity.
        escape_label_into(out, v);
        out.push('"');
    }
    out.push('}');
}

/// Escapes a label value per the text format: backslash, double
/// quote, and line feed.
fn escape_label_into(out: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

/// Escapes HELP text per the text format: backslash and line feed
/// (double quotes are legal in HELP).
fn escape_help_into(out: &mut String, help: &str) {
    for ch in help.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

/// Nanoseconds per second: the display scale of latency histograms.
const NANOS_PER_SECOND: f64 = 1e9;

/// Upper edge of log₂ bucket `i` in display units: `2^(i+1)` raw units
/// divided by the histogram's scale. Exact for every `i` (powers of
/// two divide cleanly in binary floating point), so the rendered `le`
/// values are stable.
fn bucket_upper(i: usize, scale: f64) -> f64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    let exp = (i + 1) as i32;
    2f64.powi(exp) / scale
}

fn encode_histogram(out: &mut String, name: &str, labels: &[(String, String)], h: &HistogramCore) {
    let mut counts = [0u64; HISTOGRAM_BUCKETS];
    for (slot, bucket) in counts.iter_mut().zip(&h.buckets) {
        *slot = bucket.load(Ordering::Relaxed);
    }
    // Use the sum of the loaded buckets as the authoritative total so
    // `+Inf` and `_count` agree with the bucket lines even if a racing
    // `record` lands between our loads.
    let total: u64 = counts.iter().sum();
    let highest = counts.iter().rposition(|&c| c != 0);
    let mut cumulative = 0u64;
    if let Some(highest) = highest {
        for (i, &c) in counts.iter().enumerate().take(highest + 1) {
            cumulative += c;
            out.push_str(name);
            out.push_str("_bucket");
            let le = bucket_upper(i, h.scale).to_string();
            push_labels(out, labels, Some(("le", &le)));
            let _ = writeln!(out, " {cumulative}");
        }
    }
    out.push_str(name);
    out.push_str("_bucket");
    push_labels(out, labels, Some(("le", "+Inf")));
    let _ = writeln!(out, " {total}");
    out.push_str(name);
    out.push_str("_sum");
    push_labels(out, labels, None);
    #[allow(clippy::cast_precision_loss)]
    let sum_display = h.sum_raw.load(Ordering::Relaxed) as f64 / h.scale;
    let _ = writeln!(out, " {sum_display}");
    out.push_str(name);
    out.push_str("_count");
    push_labels(out, labels, None);
    let _ = writeln!(out, " {total}");
}

/// A monotonically increasing counter. Handles are cheap clones
/// sharing one atomic cell; `inc`/`add` are relaxed `fetch_add`s.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed gauge that can move in both directions (queue depths,
/// live subscriber counts).
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Bucket `i` counts observations in `[2^i, 2^(i+1))` raw units.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_raw: AtomicU64,
    /// Raw units per display unit: [`NANOS_PER_SECOND`] for latency
    /// histograms, `1.0` for unitless value histograms.
    scale: f64,
}

impl HistogramCore {
    fn new(scale: f64) -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_raw: AtomicU64::new(0),
            scale,
        }
    }
}

/// A fixed log₂-bucket histogram: 64 power-of-two buckets, recorded
/// with two relaxed `fetch_add`s and a shift. Latency histograms
/// ([`Registry::register_histogram`]) observe nanoseconds and render
/// seconds; value histograms ([`Registry::register_histogram_values`])
/// observe and render raw units.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records an elapsed duration (latency histograms).
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.record_value(ns);
    }

    /// Records a raw nanosecond observation (latency histograms).
    pub fn record_ns(&self, ns: u64) {
        self.record_value(ns);
    }

    /// Records one raw observation. Zero is clamped to 1 so every
    /// observation lands in a bucket.
    pub fn record_value(&self, v: u64) {
        let v = v.max(1);
        let idx = 63 - v.leading_zeros() as usize;
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.sum_raw.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observations in raw units (nanoseconds for latency
    /// histograms).
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.core.sum_raw.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_discipline() {
        assert!(validate_metric_name("rms_wal_appends_total").is_ok());
        assert!(validate_metric_name("rms_tcp_subscribers").is_ok());
        assert!(validate_metric_name("rms_applier_apply_seconds").is_ok());
        // Junk: wrong prefix, case, separators, empty segments.
        assert!(validate_metric_name("").is_err());
        assert!(validate_metric_name("wal_appends_total").is_err());
        assert!(validate_metric_name("rms_appends").is_err());
        assert!(validate_metric_name("rms__appends_total").is_err());
        assert!(validate_metric_name("rms_Wal_appends").is_err());
        assert!(validate_metric_name("rms-wal-appends").is_err());
        assert!(validate_metric_name("rms_wal_appends_").is_err());
    }

    #[test]
    #[should_panic(expected = "rms_<subsystem>_")]
    fn junk_name_rejected_at_registration() {
        let reg = Registry::new();
        let _ = reg.register_counter("bogus", "nope", &[]);
    }

    #[test]
    #[should_panic(expected = "already registered as counter")]
    fn kind_conflict_rejected() {
        let reg = Registry::new();
        let _ = reg.register_counter("rms_x_y_total", "a", &[]);
        let _ = reg.register_gauge("rms_x_y_total", "b", &[]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn le_label_rejected() {
        let reg = Registry::new();
        let _ = reg.register_histogram("rms_x_y_seconds", "a", &[("le", "1")]);
    }

    #[test]
    fn get_or_create_shares_the_cell() {
        let reg = Registry::new();
        let a = reg.register_counter("rms_x_y_total", "a", &[("shard", "0")]);
        let b = reg.register_counter("rms_x_y_total", "a", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.value(), 3);
        assert_eq!(b.value(), 3);
    }

    #[test]
    fn value_histogram_renders_raw_units() {
        let reg = Registry::new();
        let h = reg.register_histogram_values("rms_x_batch_ops", "ops per batch", &[]);
        h.record_value(3); // bucket 1: [2, 4)
        h.record_value(100); // bucket 6: [64, 128)
        let text = reg.encode();
        assert!(text.contains("le=\"4\"} 1"), "{text}");
        assert!(text.contains("le=\"128\"} 2"), "{text}");
        assert!(text.contains("rms_x_batch_ops_sum 103"), "{text}");
        assert!(text.contains("rms_x_batch_ops_count 2"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let reg = Registry::new();
        let h = reg.register_histogram("rms_x_y_seconds", "c", &[]);
        h.record_ns(0); // clamps to 1 → bucket 0
        h.record_ns(1);
        h.record_ns(2);
        h.record_ns(3);
        h.record_ns(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 1 + 1 + 2 + 3 + 1024);
        let text = reg.encode();
        // Bucket 0 upper edge is 2 ns; cumulative count there is 2.
        assert!(text.contains("le=\"0.000000002\"} 2"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 5"), "{text}");
    }
}
