//! Small numeric and process helpers shared by the workloads: order
//! statistics, process memory from `/proc`, and the result record every
//! run prints.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MiB.
pub fn proc_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one benchmark run reports: the output checks, the operation
/// counts and the metrics, in print order.
#[derive(Default)]
pub struct Outcome {
    /// Failed output checks, one line each; empty means correct.
    pub check_failures: Vec<String>,
    /// Operations attempted (flows migrated, or walks run).
    pub attempted: u64,
    /// Operations that failed (flows not completed or left inconsistent,
    /// or walks whose schedule breached a safety property).
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record an output check: `ok` false adds `what` to the failures.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Non-finite values are emitted as `null` (and
    /// flagged as a failed check by [`Outcome::finish`]).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Final validation: every metric must be a finite number.
    pub fn finish(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect();
        for name in bad {
            self.check_failures
                .push(format!("metric {name} is not a finite number"));
        }
    }
}

/// The reference kernel: a fixed, std-only workload shaped like the
/// simulator's event loop. A binary heap of 30,000 pending `(time, key)`
/// pairs is popped and refilled 40,000 times; each step reads a random
/// entry of a 64 MiB table, looks up a random key in an ordered map of
/// 262,144 entries and updates an ordered map of 4096 keys. It shares no
/// code with the program under test, so no change to the program moves it,
/// while its host time follows the machine's speed at that moment. Timed
/// passes and set-ups are divided by the kernel readings on either side of
/// them, which takes out the speed drift of a shared host.
pub struct ReferenceKernel {
    table: Vec<u64>,
    map: BTreeMap<u64, u64>,
}

impl ReferenceKernel {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Allocate the kernel's tables (about 75 MiB).
    pub fn new() -> Self {
        ReferenceKernel {
            table: (0..1u64 << 23)
                .map(|i| i.wrapping_mul(Self::GOLDEN))
                .collect(),
            map: (0..1u64 << 18)
                .map(|i| (i.wrapping_mul(Self::GOLDEN), i))
                .collect(),
        }
    }

    /// Runs per [`ReferenceKernel::settled`] reading.
    const SETTLED_RUNS: usize = 5;

    /// Median host seconds of a few kernel runs in a row: the machine's
    /// speed around a section too long to bracket with single runs.
    pub fn settled(&self) -> f64 {
        let runs: Vec<f64> = (0..Self::SETTLED_RUNS).map(|_| self.run()).collect();
        median(&runs)
    }

    /// Host seconds of one kernel run.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mask = self.table.len() - 1;
        let mut heap = BinaryHeap::new();
        let mut state: BTreeMap<u32, u64> = BTreeMap::new();
        for k in 0..30_000u32 {
            heap.push(Reverse((next() % 1_000_000, k % 4096)));
        }
        let mut acc = 0u64;
        for _ in 0..40_000 {
            let Reverse((t, k)) = heap.pop().expect("every step pushes what it pops");
            let r = next();
            acc = acc.wrapping_add(self.table[r as usize & mask]);
            acc = acc.wrapping_add(self.map.range(r..).next().map_or(0, |(_, v)| *v));
            *state.entry(k).or_insert(0) += t ^ acc;
            heap.push(Reverse((t + 1 + r % 5_000, ((r >> 20) % 4096) as u32)));
        }
        std::hint::black_box((heap.len(), state.len(), acc));
        secs(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
