//! Small summary statistics for the experiment harness.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Order statistics of a sample of activation counts (or any `u64`s).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Mean, rounded to the nearest integer ×1000 (`mean_milli / 1000.0`).
    pub mean_milli: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
}

impl Summary {
    /// Summarizes a sample; returns the zero summary for empty input.
    pub fn of(values: impl IntoIterator<Item = u64>) -> Self {
        let mut v: Vec<u64> = values.into_iter().collect();
        if v.is_empty() {
            return Summary::default();
        }
        v.sort_unstable();
        let count = v.len();
        let sum: u128 = v.iter().map(|&x| u128::from(x)).sum();
        let rank = |q: f64| {
            let idx = ((q * count as f64).ceil() as usize).clamp(1, count) - 1;
            v[idx]
        };
        Summary {
            count,
            min: v[0],
            max: count.checked_sub(1).map_or(0, |i| v[i]),
            mean_milli: (sum * 1000 / count as u128) as u64,
            p50: rank(0.5),
            p95: rank(0.95),
        }
    }

    /// The mean as a float.
    pub fn mean(&self) -> f64 {
        self.mean_milli as f64 / 1000.0
    }
}

/// Performance counters from one exhaustive exploration.
///
/// Every field is a property of *how* the exploration ran, not *what* it
/// found — outcomes deliberately exclude these from equality so that
/// bit-identity assertions between runs at different worker counts
/// keep holding while throughput varies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ExploreStats {
    /// Wall-clock time of the exploration, in microseconds.
    pub elapsed_micros: u64,
    /// Distinct configurations discovered per second (0 when the run was
    /// too fast to measure).
    pub configs_per_sec: u64,
    /// Peak heap footprint of the explored graph, in bytes: the
    /// capacities of the node arena (packed rows, hashes, index), the
    /// parent links and the edge lists, plus the interners' estimate.
    /// Capacities include growth slack the process never touched, so
    /// peak RSS can read a little lower. Equal to
    /// `visited_split.total()`.
    pub peak_visited_bytes: u64,
    /// `peak_visited_bytes` by component.
    pub visited_split: VisitedBytes,
    /// Successor keys that were already in the visited set.
    pub dedup_hits: u64,
    /// Total successor-key lookups (`hits / lookups` = dedup hit-rate).
    pub dedup_lookups: u64,
    /// Distinct interned component values (states + registers + outputs)
    /// across all configurations.
    pub interned_values: u64,
    /// Activation subsets pruned by partial-order reduction (0 outside
    /// `--por` runs): the gap between the full `2^|working| − 1`
    /// branching and the reduced enumeration, summed over all expanded
    /// configurations.
    pub por_pruned_sets: u64,
}

/// Where an exploration's visited-graph bytes go, by component (heap
/// capacities, in bytes).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct VisitedBytes {
    /// The node arena's packed rows.
    pub arena_rows: u64,
    /// The node arena's row hashes and its open-addressing index.
    pub arena_hashes_index: u64,
    /// The compressed-sparse-row edge list and its per-node offsets.
    pub edges: u64,
    /// The BFS parent links.
    pub parent_links: u64,
    /// The state, register and output interners.
    pub interners: u64,
}

impl VisitedBytes {
    /// The sum of every component.
    pub fn total(&self) -> u64 {
        self.arena_rows + self.arena_hashes_index + self.edges + self.parent_links + self.interners
    }
}

impl ExploreStats {
    /// Builds the counters from raw measurements.
    pub fn measure(
        configs: usize,
        elapsed: std::time::Duration,
        visited: VisitedBytes,
        dedup_hits: u64,
        dedup_lookups: u64,
        interned_values: u64,
    ) -> Self {
        let elapsed_micros = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let configs_per_sec = if elapsed_micros == 0 {
            0
        } else {
            (configs as u128 * 1_000_000 / u128::from(elapsed_micros)) as u64
        };
        ExploreStats {
            elapsed_micros,
            configs_per_sec,
            peak_visited_bytes: visited.total(),
            visited_split: visited,
            dedup_hits,
            dedup_lookups,
            interned_values,
            ..ExploreStats::default()
        }
    }

    /// Fraction of successor lookups that hit the visited set, in
    /// `[0, 1]`; 0 for an empty exploration.
    fn dedup_hit_rate(&self) -> f64 {
        if self.dedup_lookups == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.dedup_lookups as f64
        }
    }
}

impl fmt::Display for ExploreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = &self.visited_split;
        write!(
            f,
            "configs/sec={} peak_visited_bytes={} (rows={} hashes+index={} edges={} parents={} \
             interners={}) dedup_hit_rate={:.3} interned={} elapsed={}µs",
            self.configs_per_sec,
            self.peak_visited_bytes,
            v.arena_rows,
            v.arena_hashes_index,
            v.edges,
            v.parent_links,
            v.interners,
            self.dedup_hit_rate(),
            self.interned_values,
            self.elapsed_micros
        )
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} p50={} p95={} max={} mean={:.2}",
            self.count,
            self.min,
            self.p50,
            self.p95,
            self.max,
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample() {
        let s = Summary::of([]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn singleton() {
        let s = Summary::of([7]);
        assert_eq!((s.min, s.max, s.p50, s.p95), (7, 7, 7, 7));
        assert!((s.mean() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn order_statistics() {
        let s = Summary::of(1..=100u64);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert!((s.mean() - 50.5).abs() < 0.01);
    }

    #[test]
    fn explore_stats_rates() {
        let visited = VisitedBytes {
            arena_rows: 2048,
            arena_hashes_index: 1024,
            edges: 512,
            parent_links: 256,
            interners: 256,
        };
        let s = ExploreStats::measure(
            1000,
            std::time::Duration::from_millis(100),
            visited.clone(),
            30,
            40,
            12,
        );
        assert_eq!(s.configs_per_sec, 10_000);
        assert!((s.dedup_hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(s.peak_visited_bytes, 4096);
        assert_eq!(s.visited_split, visited);
    }

    #[test]
    fn explore_stats_zero_safe() {
        let s = ExploreStats::default();
        assert_eq!(s.dedup_hit_rate(), 0.0);
    }

    #[test]
    fn unsorted_input() {
        let s = Summary::of([5, 1, 9, 3]);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 9);
        assert_eq!(s.count, 4);
    }
}
