//! Sample statistics, host facts, and the result line.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending sample (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sort a sample ascending (samples never hold NaN).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Latency summary of one workload. The sample is cut into consecutive
/// slices of `slice` samples; the median and the tail percentile are each
/// taken per slice, and reported at quantile `over` across the slices.
/// The host this runs on is shared and slows in bursts, so a low `over`
/// reads the calm part of the window. The tail is only trustworthy with
/// at least ten samples beyond it in each slice.
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub tail_q: f64,
    pub n: usize,
    /// Each slice's tail percentile, ascending.
    pub slice_tails: Vec<f64>,
    pub beyond_tail: usize,
}

impl Latency {
    pub fn of(samples: &[f64], tail_q: f64, slice: usize, over: f64) -> Latency {
        let slices: Vec<Vec<f64>> = if samples.len() < slice.max(1) {
            vec![sorted(samples.to_vec())]
        } else {
            samples
                .chunks_exact(slice)
                .map(|c| sorted(c.to_vec()))
                .collect()
        };
        let over_slices = |q: f64| sorted(slices.iter().map(|s| percentile(s, q)).collect());
        let slice_tails = over_slices(tail_q);
        Latency {
            p50: percentile(&over_slices(0.5), over),
            tail: percentile(&slice_tails, over),
            tail_q,
            n: samples.len(),
            slice_tails,
            beyond_tail: slices
                .iter()
                .map(|s| s.len() - s.partition_point(|&x| x <= percentile(s, tail_q)))
                .min()
                .unwrap_or(0),
        }
    }

    pub fn describe(&self) -> String {
        let t = &self.slice_tails;
        format!(
            "p50 {:.3} ms, p{} {:.3} ms over {} slices of {} samples, at least {} beyond the tail in each{}; slice tails min {:.3} q1 {:.3} q3 {:.3} max {:.3} ms",
            self.p50,
            self.tail_q * 100.0,
            self.tail,
            t.len(),
            self.n / t.len().max(1),
            self.beyond_tail,
            if self.beyond_tail < 10 {
                " (fewer than 10: tail unreliable)"
            } else {
                ""
            },
            percentile(t, 0.0),
            percentile(t, 0.25),
            percentile(t, 0.75),
            percentile(t, 1.0),
        )
    }
}

/// Run `setup` at least `min_times` times and for at least `min_secs`
/// seconds, and return the last result with the median duration;
/// `discard` releases each earlier result before the next repetition.
/// Spreading the repetitions over seconds keeps a short slow spell on the
/// host from setting the median.
pub fn repeat_setup<T>(
    min_times: usize,
    min_secs: f64,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let first = Instant::now();
    let mut durations = Vec::new();
    let mut kept = None;
    while durations.len() < min_times || first.elapsed().as_secs_f64() < min_secs {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let start = Instant::now();
        kept = Some(setup());
        durations.push(start.elapsed().as_secs_f64());
    }
    let median = percentile(&sorted(durations), 0.5);
    (kept.expect("at least one setup"), median)
}

/// Mean time per call of `op` in `unit`-seconds: calls `op(i)` with a
/// growing index, in batches of 16, until `budget` elapses.
pub fn time_per_call(budget: Duration, unit: f64, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < budget {
        // Batches of 16 keep the clock reads off the measured path.
        for _ in 0..16 {
            op(calls);
            calls += 1;
        }
    }
    start.elapsed().as_secs_f64() / calls as f64 / unit
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    ljqo_json::Value::from(s).to_string_compact()
}

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: the answer check and the metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Print every metric as a readable line, then the result object as
    /// the last line of standard output.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; they never occur in a
                // valid run, and a null makes the result visibly broken.
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(m.name),
                    quote(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
