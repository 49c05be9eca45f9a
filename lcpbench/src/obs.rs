//! Deltas of the program's own lcp-obs counters and histograms over a
//! timed phase, so benchmark and production numbers share names
//! (`docs/OBSERVABILITY.md` has the catalog).

use lcp_core::metrics as core;
use lcp_dynamic::metrics as dynamic;
use lcp_obs::{Histogram, HISTOGRAM_BUCKETS};
use lcp_serve::metrics as serve;
use lcp_serve::REQUEST_NAMES;

/// Bucket counts plus sum of one histogram.
#[derive(Clone, Copy)]
pub struct Hist {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub sum: u64,
}

impl Hist {
    fn of(h: &Histogram) -> Hist {
        Hist {
            buckets: h.snapshot(),
            sum: h.sum(),
        }
    }

    fn minus(&self, before: &Hist) -> Hist {
        Hist {
            buckets: std::array::from_fn(|i| self.buckets[i] - before.buckets[i]),
            sum: self.sum - before.sum,
        }
    }

    fn plus(&self, other: &Hist) -> Hist {
        Hist {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            sum: self.sum + other.sum,
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile, interpolated linearly inside its log2 bucket
    /// (bucket `b` holds values in `[2^(b-1), 2^b - 1]`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut seen = 0.0;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c as f64 >= rank {
                let lo = if b == 0 {
                    0.0
                } else {
                    (1u64 << (b - 1)) as f64
                };
                let hi = Histogram::bucket_bound(b).map_or(lo * 2.0, |h| h as f64);
                return lo + (hi - lo) * ((rank - seen) / c as f64);
            }
            seen += c as f64;
        }
        0.0
    }
}

/// One reading of every metric the per-layer report uses.
#[derive(Clone, Copy)]
pub struct Snapshot {
    pub prepares: u64,
    pub prepare_ns: u64,
    pub evaluate_sweeps: u64,
    pub evaluate_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub artifact_loads: u64,
    pub exhaustive_candidates: u64,
    pub adversarial_steps: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub adversarial_batched: u64,
    pub adversarial_scalar: u64,
    pub fills_kernel: u64,
    pub fills_scalar: u64,
    pub reverified_nodes: u64,
    pub reverify_ns: Hist,
    pub request_ns: [Hist; REQUEST_NAMES.len()],
    pub busy_rejections: u64,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        Snapshot {
            prepares: core::PREPARES.get(),
            prepare_ns: core::PREPARE_NS.sum(),
            evaluate_sweeps: core::EVALUATE_SWEEPS.get(),
            evaluate_ns: core::EVALUATE_NS.sum(),
            cache_hits: core::SKELETON_CACHE_HITS.get(),
            cache_misses: core::SKELETON_CACHE_MISSES.get(),
            artifact_loads: core::ARTIFACT_LOADS.get(),
            exhaustive_candidates: core::EXHAUSTIVE_CANDIDATES.get(),
            adversarial_steps: core::ADVERSARIAL_STEPS.get(),
            memo_hits: core::MEMO_HITS.get(),
            memo_misses: core::MEMO_MISSES.get(),
            adversarial_batched: core::ADVERSARIAL_BATCHED.get(),
            adversarial_scalar: core::ADVERSARIAL_SCALAR.get(),
            fills_kernel: core::MASK_FILLS_KERNEL.get(),
            fills_scalar: core::MASK_FILLS_SCALAR.get(),
            reverified_nodes: dynamic::REVERIFIED_NODES.get(),
            reverify_ns: Hist::of(&dynamic::REVERIFY_NS),
            request_ns: std::array::from_fn(|i| Hist::of(&serve::REQUEST_NS[i])),
            busy_rejections: serve::BUSY_REJECTIONS.get(),
        }
    }

    /// Counter movement since `before`.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        Snapshot {
            prepares: self.prepares - before.prepares,
            prepare_ns: self.prepare_ns - before.prepare_ns,
            evaluate_sweeps: self.evaluate_sweeps - before.evaluate_sweeps,
            evaluate_ns: self.evaluate_ns - before.evaluate_ns,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            artifact_loads: self.artifact_loads - before.artifact_loads,
            exhaustive_candidates: self.exhaustive_candidates - before.exhaustive_candidates,
            adversarial_steps: self.adversarial_steps - before.adversarial_steps,
            memo_hits: self.memo_hits - before.memo_hits,
            memo_misses: self.memo_misses - before.memo_misses,
            adversarial_batched: self.adversarial_batched - before.adversarial_batched,
            adversarial_scalar: self.adversarial_scalar - before.adversarial_scalar,
            fills_kernel: self.fills_kernel - before.fills_kernel,
            fills_scalar: self.fills_scalar - before.fills_scalar,
            reverified_nodes: self.reverified_nodes - before.reverified_nodes,
            reverify_ns: self.reverify_ns.minus(&before.reverify_ns),
            request_ns: std::array::from_fn(|i| self.request_ns[i].minus(&before.request_ns[i])),
            busy_rejections: self.busy_rejections - before.busy_rejections,
        }
    }

    /// `lcp_serve_request_ns` of one op.
    pub fn request(&self, op: &str) -> Hist {
        let i = REQUEST_NAMES
            .iter()
            .position(|&name| name == op)
            .expect("op is a protocol request name");
        self.request_ns[i]
    }

    /// `lcp_serve_request_ns` pooled over every op.
    pub fn requests_pooled(&self) -> Hist {
        self.request_ns[1..]
            .iter()
            .fold(self.request_ns[0], |acc, h| acc.plus(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_inside_the_bucket() {
        let h = Histogram::new();
        for v in [5, 6, 7, 100] {
            h.observe(v);
        }
        let hist = Hist::of(&h);
        // 5, 6, 7 share bucket 3 ([4, 7]); the median rank 2 of 4 lies
        // two thirds of the way through it.
        let q = hist.quantile(0.5);
        assert!((4.0..=7.0).contains(&q), "{q}");
        assert!(hist.quantile(1.0) >= 64.0);
    }
}
