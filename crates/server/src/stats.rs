//! Server-side observability: latency histogram and connection/request
//! counters.
//!
//! Everything here is lock-free atomics so the hot request path never
//! serializes on a stats mutex, and every counter is monotonic so the
//! `/stats` endpoint can be scraped at any moment without resetting
//! anything (the same contract as [`ljqo::ServingCounters`]). The
//! optimizer-level view (cold solves, cache hits, degradation rungs,
//! per-method wins) lives in `ljqo::serving`; this module covers the
//! layers above it — sockets, admission, batching, end-to-end latency
//! and its queue and service stages, and where the batch workers' time
//! goes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sub-bucket resolution bits of the log-bucketed histogram: each
/// power-of-two range is split into `2^SUB_BITS = 8` linear sub-buckets,
/// bounding the relative quantization error at 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// Bucket count: values below [`SUB`] get exact buckets, and each of the
/// remaining 61 power-of-two groups gets [`SUB`] sub-buckets, covering
/// the full `u64` range.
const N_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let group = (msb - SUB_BITS + 1) as u64;
        let sub = (v >> (msb - SUB_BITS)) & (SUB - 1);
        (group * SUB + sub) as usize
    }
}

/// Inclusive lower bound of a bucket — the value percentiles report.
fn lower_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        index
    } else {
        let group = index / SUB;
        let sub = index % SUB;
        let msb = (group - 1 + SUB_BITS as u64) as u32;
        (1u64 << msb) | (sub << (msb - SUB_BITS))
    }
}

/// A log-bucketed latency histogram over `u64` microsecond samples.
///
/// Recording is one `fetch_add` (plus a `fetch_max` for the max
/// tracker); reading walks the fixed 496-bucket table. Buckets are
/// log-spaced with 8 linear sub-buckets per octave, so reported
/// percentiles are the *lower bound* of the containing bucket and
/// understate the true quantile by at most 12.5%. That resolution is
/// deliberate: it keeps the histogram allocation-free, fixed-size, and
/// safe to share across every connection and worker thread.
#[derive(Debug)]
pub struct LatencyHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Point-in-time percentile summary of a [`LatencyHistogram`], in
/// microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact arithmetic mean (from a running sum, not the buckets).
    pub mean_us: f64,
    /// Exact maximum sample.
    pub max_us: u64,
    /// Median (bucket lower bound).
    pub p50_us: u64,
    /// 90th percentile (bucket lower bound).
    pub p90_us: u64,
    /// 95th percentile (bucket lower bound).
    pub p95_us: u64,
    /// 99th percentile (bucket lower bound).
    pub p99_us: u64,
}

impl LatencyHistogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample, in microseconds.
    pub fn record(&self, micros: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.max.fetch_max(micros, Ordering::Relaxed);
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Reset-free percentile snapshot. A snapshot racing concurrent
    /// `record` calls may see a partially-recorded sample; counts never
    /// go backwards between snapshots.
    pub fn snapshot(&self) -> LatencySnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Percentiles walk the bucket counts, not the racy `count`
        // field, so ranks are consistent with the walked distribution.
        let total: u64 = counts.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let mut snap = LatencySnapshot {
            count: total,
            mean_us: if total == 0 {
                0.0
            } else {
                sum as f64 / total as f64
            },
            max_us: self.max.load(Ordering::Relaxed),
            ..Default::default()
        };
        if total == 0 {
            return snap;
        }
        let quantile = |q: f64| -> u64 {
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return lower_bound(i);
                }
            }
            snap.max_us
        };
        snap.p50_us = quantile(0.50);
        snap.p90_us = quantile(0.90);
        snap.p95_us = quantile(0.95);
        snap.p99_us = quantile(0.99);
        snap
    }
}

/// Monotonic counters (and two gauges) over the server's socket and
/// admission layers. One instance per server, shared by every
/// connection-reader and batch-worker thread.
///
/// All counters are `fetch_add`-only; the two gauges
/// ([`conns_active`](Self::conns_active) and
/// [`in_flight`](Self::in_flight)) go both ways. Field-by-field meaning
/// is documented in `docs/SERVING.md` alongside the `/stats` schema the
/// fields feed.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// TCP connections accepted over the process lifetime.
    pub conns_accepted: AtomicU64,
    /// Gauge: connections currently open.
    pub conns_active: AtomicU64,
    /// `Optimize` frames received (admitted or not).
    pub requests_received: AtomicU64,
    /// Requests admitted to the batch queue.
    pub admitted: AtomicU64,
    /// Requests answered with a plan (`"ok": true`).
    pub completed: AtomicU64,
    /// Admitted requests answered with an optimizer error.
    pub failed: AtomicU64,
    /// Requests rejected because the queue was at `--max-queue`.
    pub rejected_overload: AtomicU64,
    /// Requests rejected because the server was draining.
    pub rejected_draining: AtomicU64,
    /// Requests rejected for malformed payloads or invalid catalogs.
    pub rejected_invalid: AtomicU64,
    /// Connections torn down for framing violations (bad magic is
    /// counted only if the bytes were not valid HTTP either).
    pub protocol_errors: AtomicU64,
    /// Responses that could not be written back (client went away
    /// between admission and reply).
    pub send_failures: AtomicU64,
    /// Binary `Stats` frames served.
    pub stats_requests: AtomicU64,
    /// HTTP requests served (any route).
    pub http_requests: AtomicU64,
    /// Gauge: requests admitted but not yet answered.
    pub in_flight: AtomicU64,
    /// Batches dispatched to the optimizer.
    pub batches: AtomicU64,
    /// Total queries across dispatched batches.
    pub batched_queries: AtomicU64,
    /// Largest batch dispatched.
    pub max_batch: AtomicU64,
    /// End-to-end admission→response latency.
    pub latency: LatencyHistogram,
    /// Queue stage: admission→batch dispatch, including any linger.
    pub queue: LatencyHistogram,
    /// Service stage: batch dispatch→response, recorded as latency minus
    /// queue time so the stage means add up to the latency mean.
    pub service: LatencyHistogram,
    /// Where the batch workers' wall time goes.
    pub workers: WorkerTime,
}

impl ServerStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account one dispatched batch of `n` queries.
    pub fn record_batch(&self, n: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries.fetch_add(n as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// Account one answered request: its end-to-end latency and the
    /// part of it spent queued before dispatch. The rest is service
    /// time, so the queue and service sums add up to the latency sum.
    pub fn record_answer(&self, latency_us: u64, queue_us: u64) {
        let queue_us = queue_us.min(latency_us);
        self.latency.record(latency_us);
        self.queue.record(queue_us);
        self.service.record(latency_us - queue_us);
    }
}

/// Wall time of every batch worker, summed over workers and split three
/// ways: idle (blocked on an empty queue), linger (holding a batch open
/// for companions) and busy (from dispatch until the batch is served).
/// Kept in nanoseconds so many short spans keep their sub-microsecond
/// remainders; `/stats` reports whole microseconds.
#[derive(Debug, Default)]
pub struct WorkerTime {
    /// Nanoseconds spent serving batches.
    pub busy_ns: AtomicU64,
    /// Nanoseconds spent holding a batch open for companions.
    pub linger_ns: AtomicU64,
    /// Nanoseconds spent blocked on an empty queue.
    pub idle_ns: AtomicU64,
}

/// One batch worker's running clock over a [`WorkerTime`]. Each charge
/// adds the time since the previous charge to one bucket, so a worker's
/// three buckets add up to its lifetime, short of the span still open.
pub(crate) struct WorkerClock<'a> {
    time: &'a WorkerTime,
    mark: Instant,
}

impl<'a> WorkerClock<'a> {
    /// Start the clock; nothing is charged before this instant.
    pub(crate) fn start(time: &'a WorkerTime) -> Self {
        WorkerClock {
            time,
            mark: Instant::now(),
        }
    }

    /// Charge the span since the last charge as idle time.
    pub(crate) fn idle(&mut self) {
        self.charge(&self.time.idle_ns);
    }

    /// Charge the span since the last charge as linger time.
    pub(crate) fn linger(&mut self) {
        self.charge(&self.time.linger_ns);
    }

    /// Charge the span since the last charge as busy time.
    pub(crate) fn busy(&mut self) {
        self.charge(&self.time.busy_ns);
    }

    fn charge(&mut self, bucket: &AtomicU64) {
        let now = Instant::now();
        bucket.fetch_add((now - self.mark).as_nanos() as u64, Ordering::Relaxed);
        self.mark = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_and_lower_bounds_are_consistent() {
        // Every bucket's lower bound must map back to that bucket, and
        // bounds must be strictly increasing.
        let mut prev = None;
        for i in 0..N_BUCKETS {
            let lb = lower_bound(i);
            assert_eq!(bucket_of(lb), i, "lower bound {lb} of bucket {i}");
            if let Some(p) = prev {
                assert!(lb > p, "bounds not increasing at {i}");
            }
            prev = Some(lb);
        }
        // Spot-check the quantization error bound on a dense range.
        for v in 0..100_000u64 {
            let lb = lower_bound(bucket_of(v));
            assert!(lb <= v);
            assert!((v - lb) as f64 <= (v as f64 / 8.0).max(0.0));
        }
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn percentiles_of_a_known_distribution() {
        let h = LatencyHistogram::new();
        // 100 samples: 1..=100 microseconds (small values are exact
        // buckets only below 8; above that, quantized to 12.5%).
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 100);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
        // p50 of 1..=100 is 50; its bucket (msb=5, width 4) lowers to 48.
        assert_eq!(s.p50_us, 48);
        assert!(s.p50_us <= 50 && 50 - s.p50_us <= 50 / 8);
        assert!(s.p90_us <= 90 && 90 - s.p90_us <= 90 / 8);
        assert!(s.p99_us <= 99 && 99 - s.p99_us <= 99 / 8);
        assert!(s.p50_us <= s.p90_us && s.p90_us <= s.p95_us && s.p95_us <= s.p99_us);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_us, 0.0);
        assert_eq!(s.p99_us, 0);
    }

    #[test]
    fn concurrent_records_are_exact() {
        let h = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.max_us, 7999);
    }

    #[test]
    fn stage_sums_add_up_to_the_latency_sum() {
        let stats = ServerStats::new();
        for (latency, queue) in [(900, 400), (3, 0), (10, 25), (7_001, 7_000)] {
            stats.record_answer(latency, queue);
        }
        let (lat, queue, service) = (
            stats.latency.snapshot(),
            stats.queue.snapshot(),
            stats.service.snapshot(),
        );
        assert_eq!((queue.count, service.count), (lat.count, lat.count));
        assert_eq!(queue.mean_us + service.mean_us, lat.mean_us);
        assert_eq!(queue.max_us, 7_000);
    }

    #[test]
    fn a_worker_clock_charges_every_span_exactly_once() {
        let time = WorkerTime::default();
        let mut clock = WorkerClock::start(&time);
        let started = clock.mark;
        for _ in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            clock.idle();
            clock.linger();
            std::thread::sleep(std::time::Duration::from_millis(1));
            clock.busy();
        }
        let lifetime = (clock.mark - started).as_nanos() as u64;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (busy, linger, idle) = (
            load(&time.busy_ns),
            load(&time.linger_ns),
            load(&time.idle_ns),
        );
        assert!(idle >= 6_000_000 && busy >= 3_000_000, "{idle} {busy}");
        assert_eq!(busy + linger + idle, lifetime);
    }
}
