//! Communication topologies.
//!
//! The paper's model is "the LOCAL graph plus registers": a process may
//! read only the registers of its graph neighbors (§2.1, *local immediate
//! snapshots*). [`Topology`] is the immutable graph handed to an
//! [`Execution`](crate::executor::Execution).
//!
//! The central family is the cycle `C_n` (`n ≥ 3`); the clique makes the
//! model coincide with classic wait-free shared memory (used by the paper
//! for Property 2.3 and by our renaming baseline); grids and random
//! bounded-degree graphs exercise Appendix A's `O(Δ²)`-coloring.

use crate::error::GraphError;
use crate::ids::ProcessId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An immutable undirected graph in compressed-sparse-row form.
///
/// Nodes are `ProcessId(0) .. ProcessId(n-1)`. Neighbor lists are sorted;
/// the *order* in which an algorithm sees its neighbors is fixed but
/// carries no global meaning (the paper's model has no coherent left/right
/// orientation, §2.1).
///
/// ```
/// use ftcolor_model::{Topology, ProcessId};
/// # fn main() -> Result<(), ftcolor_model::GraphError> {
/// let c5 = Topology::cycle(5)?;
/// assert_eq!(c5.len(), 5);
/// assert_eq!(c5.max_degree(), 2);
/// assert_eq!(c5.neighbors(ProcessId(0)), &[ProcessId(1), ProcessId(4)]);
/// assert!(c5.is_cycle());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    offsets: Vec<usize>,
    neighbors: Vec<ProcessId>,
    name: String,
}

impl Topology {
    /// Builds a topology from an explicit edge list on `n` nodes.
    ///
    /// Runs in `O(n + m)` for `m` edges plus the per-row sorts (each row
    /// is sorted in place, so a degree-`Δ` row costs `O(Δ log Δ)`), with
    /// no hashing: the edges are validated and their degrees counted in
    /// one pass, then both endpoints are scattered straight into the
    /// compressed-sparse-row arrays. A duplicate edge, in either
    /// orientation, shows up as two equal adjacent entries of a sorted
    /// row.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range endpoints, self-loops, and duplicate edges.
    /// An input with one fault gets the error naming that fault. With
    /// several, out-of-range endpoints and self-loops are reported
    /// first (the first such edge in input order); duplicates are
    /// checked only once every edge is valid, and the reported pair is
    /// the least duplicated `(low, high)` pair.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, GraphError> {
        Self::from_edges_named(n, edges, format!("graph(n={n})"))
    }

    fn from_edges_named(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
        name: String,
    ) -> Result<Self, GraphError> {
        // Pass 1: validate, and count the degree of node `i` into
        // `offsets[i]`.
        let edges = edges.into_iter();
        let mut list = Vec::with_capacity(edges.size_hint().0);
        let mut offsets = vec![0usize; n + 1];
        for (a, b) in edges {
            if a >= n {
                return Err(GraphError::NodeOutOfRange { node: a, n });
            }
            if b >= n {
                return Err(GraphError::NodeOutOfRange { node: b, n });
            }
            if a == b {
                return Err(GraphError::SelfLoop { node: ProcessId(a) });
            }
            offsets[a] += 1;
            offsets[b] += 1;
            list.push((a, b));
        }
        // Inclusive prefix sum: `offsets[i]` is now the end of row `i`.
        // Scattering decrements it, so each ends at the start of its row.
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut neighbors = vec![ProcessId(0); offsets[n]];
        for (a, b) in list {
            offsets[a] -= 1;
            neighbors[offsets[a]] = ProcessId(b);
            offsets[b] -= 1;
            neighbors[offsets[b]] = ProcessId(a);
        }
        // A duplicated edge repeats in both endpoints' rows, so the first
        // row found holding one is its lower endpoint's.
        for p in 0..n {
            let row = &mut neighbors[offsets[p]..offsets[p + 1]];
            row.sort_unstable();
            if let Some(w) = row.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge {
                    a: ProcessId(p),
                    b: w[0],
                });
            }
        }
        Ok(Topology {
            offsets,
            neighbors,
            name,
        })
    }

    /// The cycle `C_n` — the paper's main object of study.
    ///
    /// Node `i` is adjacent to `i±1 (mod n)`.
    ///
    /// # Errors
    ///
    /// Fails with [`GraphError::TooFewNodes`] if `n < 3`.
    pub fn cycle(n: usize) -> Result<Self, GraphError> {
        if n < 3 {
            return Err(GraphError::TooFewNodes {
                family: "cycle",
                requested: n,
                minimum: 3,
            });
        }
        Self::from_edges_named(n, (0..n).map(|i| (i, (i + 1) % n)), format!("C{n}"))
    }

    /// The path `P_n` (`n ≥ 2`): a cycle with one edge removed. Useful for
    /// testing boundary behavior of chain arguments (Lemma 3.9).
    ///
    /// # Errors
    ///
    /// Fails if `n < 2`.
    pub fn path(n: usize) -> Result<Self, GraphError> {
        if n < 2 {
            return Err(GraphError::TooFewNodes {
                family: "path",
                requested: n,
                minimum: 2,
            });
        }
        Self::from_edges_named(n, (0..n - 1).map(|i| (i, i + 1)), format!("P{n}"))
    }

    /// The complete graph `K_n` (`n ≥ 2`).
    ///
    /// On the clique, the state model coincides with the standard wait-free
    /// shared-memory model with immediate snapshots (every process reads
    /// everyone), which is how the paper imports the renaming lower bound
    /// (Property 2.3) and how our `(2n−1)`-renaming baseline runs.
    ///
    /// # Errors
    ///
    /// Fails if `n < 2`.
    pub fn clique(n: usize) -> Result<Self, GraphError> {
        if n < 2 {
            return Err(GraphError::TooFewNodes {
                family: "clique",
                requested: n,
                minimum: 2,
            });
        }
        let edges = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        Self::from_edges_named(n, edges, format!("K{n}"))
    }

    /// The star `K_{1,n-1}` (`n ≥ 2`): node 0 is the hub. Maximum-degree
    /// stress test for Appendix A's general-graph algorithm.
    ///
    /// # Errors
    ///
    /// Fails if `n < 2`.
    pub fn star(n: usize) -> Result<Self, GraphError> {
        if n < 2 {
            return Err(GraphError::TooFewNodes {
                family: "star",
                requested: n,
                minimum: 2,
            });
        }
        Self::from_edges_named(n, (1..n).map(|i| (0, i)), format!("star{n}"))
    }

    /// A `w × h` grid; with `wrap = true`, a torus (`Δ = 4`).
    ///
    /// # Errors
    ///
    /// Fails if `w·h < 2`, or if `wrap` is set with `w < 3` or `h < 3`
    /// (wrapping a dimension of length ≤ 2 would create duplicate edges).
    pub fn grid(w: usize, h: usize, wrap: bool) -> Result<Self, GraphError> {
        let n = w * h;
        if n < 2 {
            return Err(GraphError::TooFewNodes {
                family: "grid",
                requested: n,
                minimum: 2,
            });
        }
        if wrap && (w < 3 || h < 3) {
            return Err(GraphError::TooFewNodes {
                family: "torus dimension",
                requested: w.min(h),
                minimum: 3,
            });
        }
        let name = if wrap {
            format!("torus{w}x{h}")
        } else {
            format!("grid{w}x{h}")
        };
        Self::from_edges_named(n, grid_edges(w, h, wrap), name)
    }

    /// The `d`-dimensional hypercube `Q_d` (`2^d` nodes, `d`-regular):
    /// node `i` is adjacent to `i ^ (1 << k)` for every bit `k < d`.
    ///
    /// # Errors
    ///
    /// Fails if `d = 0` or `d > 20` (more than a million nodes is past
    /// anything the experiments need).
    pub fn hypercube(d: usize) -> Result<Self, GraphError> {
        if d == 0 || d > 20 {
            return Err(GraphError::TooFewNodes {
                family: "hypercube dimension",
                requested: d,
                minimum: 1,
            });
        }
        let n = 1usize << d;
        let edges = (0..n).flat_map(move |i| {
            (0..d).filter_map(move |k| {
                let j = i ^ (1 << k);
                (i < j).then_some((i, j))
            })
        });
        Self::from_edges_named(n, edges, format!("Q{d}"))
    }

    /// The complete bipartite graph `K_{a,b}` (`a + b` nodes; the first
    /// `a` ids form one side).
    ///
    /// # Errors
    ///
    /// Fails if either side is empty.
    pub fn complete_bipartite(a: usize, b: usize) -> Result<Self, GraphError> {
        if a == 0 || b == 0 {
            return Err(GraphError::TooFewNodes {
                family: "bipartite side",
                requested: a.min(b),
                minimum: 1,
            });
        }
        let edges = (0..a).flat_map(move |i| (0..b).map(move |j| (i, a + j)));
        Self::from_edges_named(a + b, edges, format!("K{a},{b}"))
    }

    /// The Petersen graph (10 nodes, 3-regular) — a classic non-planar,
    /// girth-5 test instance for the general-graph algorithm.
    pub fn petersen() -> Self {
        let outer = (0..5).map(|i| (i, (i + 1) % 5));
        let spokes = (0..5).map(|i| (i, i + 5));
        let inner = (0..5).map(|i| (i + 5, (i + 2) % 5 + 5));
        Self::from_edges_named(10, outer.chain(spokes).chain(inner), "petersen".into())
            .expect("petersen graph is a valid edge list")
    }

    /// A random `d`-regular graph on `n` nodes, seeded for
    /// reproducibility. Uses the Steger–Wormald incremental variant of
    /// the pairing model: stubs are matched one legal pair at a time, and
    /// the whole attempt restarts only if the residual stubs admit no
    /// legal pair — which keeps the success probability high even for
    /// moderate `d`.
    ///
    /// # Errors
    ///
    /// Fails with [`GraphError::InfeasibleRegular`] when `n·d` is odd,
    /// `d = 0`, or `d ≥ n`, or (never observed in practice for `d ≤ n/2`)
    /// when 1000 attempts fail.
    pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Self, GraphError> {
        let edges =
            random_regular_edges(n, d, seed).ok_or(GraphError::InfeasibleRegular { n, d })?;
        Self::from_edges_named(n, edges, format!("rr(n={n},d={d})"))
    }

    /// An Erdős–Rényi `G(n, p)` graph with every node's degree capped at
    /// `max_degree` (excess edges of a node are dropped in random order),
    /// seeded for reproducibility.
    ///
    /// # Errors
    ///
    /// Fails if `n < 2`.
    pub fn gnp_bounded(n: usize, p: f64, max_degree: usize, seed: u64) -> Result<Self, GraphError> {
        if n < 2 {
            return Err(GraphError::TooFewNodes {
                family: "gnp",
                requested: n,
                minimum: 2,
            });
        }
        let edges = gnp_bounded_edges(n, p, max_degree, seed);
        Self::from_edges_named(n, edges, format!("gnp(n={n},p={p},Δ≤{max_degree})"))
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short human-readable name (`"C7"`, `"K3"`, `"torus4x4"`, …).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sorted neighbor list of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn neighbors(&self, p: ProcessId) -> &[ProcessId] {
        &self.neighbors[self.offsets[p.index()]..self.offsets[p.index() + 1]]
    }

    /// Degree of node `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn degree(&self, p: ProcessId) -> usize {
        self.offsets[p.index() + 1] - self.offsets[p.index()]
    }

    /// The maximum degree `Δ`.
    pub fn max_degree(&self) -> usize {
        (0..self.len())
            .map(|i| self.degree(ProcessId(i)))
            .max()
            .unwrap_or(0)
    }

    /// Whether `{a, b}` is an edge.
    pub fn is_edge(&self, a: ProcessId, b: ProcessId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.len()).map(ProcessId)
    }

    /// Iterates over every undirected edge once, as `(low, high)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// `true` iff the graph is 2-regular and connected, i.e. a single cycle.
    pub fn is_cycle(&self) -> bool {
        let n = self.len();
        if n < 3 || self.nodes().any(|p| self.degree(p) != 2) {
            return false;
        }
        // Walk from node 0; a connected 2-regular graph returns to start
        // after exactly n steps.
        let mut prev = ProcessId(0);
        let mut cur = self.neighbors(prev)[0];
        let mut steps = 1;
        while cur != ProcessId(0) {
            let nb = self.neighbors(cur);
            let next = if nb[0] == prev { nb[1] } else { nb[0] };
            prev = cur;
            cur = next;
            steps += 1;
            if steps > n {
                return false;
            }
        }
        steps == n
    }

    /// Checks that the partial assignment `colors` (indexed by node,
    /// `None` = no output) properly colors the subgraph *induced by the
    /// colored nodes*: for every edge with both endpoints colored, the two
    /// colors differ.
    ///
    /// This is exactly the correctness condition of Theorems 3.1/3.11/4.4:
    /// "the outputs properly color the graph induced by the terminating
    /// processes".
    ///
    /// # Panics
    ///
    /// Panics if `colors.len()` differs from the number of nodes.
    pub fn is_proper_partial_coloring<T: PartialEq>(&self, colors: &[Option<T>]) -> bool {
        assert_eq!(colors.len(), self.len(), "one color slot per node");
        self.edges()
            .all(|(a, b)| match (&colors[a.index()], &colors[b.index()]) {
                (Some(x), Some(y)) => x != y,
                _ => true,
            })
    }

    /// Like [`Self::is_proper_partial_coloring`] but for total assignments.
    ///
    /// # Panics
    ///
    /// Panics if `colors.len()` differs from the number of nodes.
    pub fn is_proper_coloring<T: PartialEq>(&self, colors: &[T]) -> bool {
        assert_eq!(colors.len(), self.len(), "one color per node");
        self.edges()
            .all(|(a, b)| colors[a.index()] != colors[b.index()])
    }

    /// The first improperly-colored edge under a partial assignment, if
    /// any — handy in test failure messages.
    ///
    /// # Panics
    ///
    /// Panics if `colors.len()` differs from the number of nodes.
    pub fn first_conflict<T: PartialEq>(
        &self,
        colors: &[Option<T>],
    ) -> Option<(ProcessId, ProcessId)> {
        assert_eq!(colors.len(), self.len(), "one color slot per node");
        self.edges().find(|&(a, b)| {
            matches!(
                (&colors[a.index()], &colors[b.index()]),
                (Some(x), Some(y)) if x == y
            )
        })
    }
}

/// The edges of the `w × h` grid (torus when `wrap`), row-major ids.
fn grid_edges(w: usize, h: usize, wrap: bool) -> Vec<(usize, usize)> {
    let id = |x: usize, y: usize| y * w + x;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            } else if wrap {
                edges.push((id(x, y), id(0, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            } else if wrap {
                edges.push((id(x, y), id(x, 0)));
            }
        }
    }
    edges
}

/// The edges of [`Topology::random_regular`], or `None` when the
/// instance is infeasible or every attempt fails.
fn random_regular_edges(n: usize, d: usize, seed: u64) -> Option<Vec<(usize, usize)>> {
    if d >= n || (n * d) % 2 == 1 || d == 0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    'attempt: for _ in 0..1000 {
        let mut stubs: Vec<usize> = (0..n * d).map(|s| s / d).collect();
        stubs.shuffle(&mut rng);
        let mut seen = std::collections::HashSet::new();
        let mut edges = Vec::with_capacity(n * d / 2);
        while !stubs.is_empty() {
            let mut placed = false;
            for _ in 0..200 {
                let i = rng.gen_range(0..stubs.len());
                let j = rng.gen_range(0..stubs.len());
                if i == j {
                    continue;
                }
                let (a, b) = (stubs[i], stubs[j]);
                if a == b || seen.contains(&(a.min(b), a.max(b))) {
                    continue;
                }
                seen.insert((a.min(b), a.max(b)));
                edges.push((a, b));
                // Remove the higher index first so the lower stays valid.
                let (hi, lo) = (i.max(j), i.min(j));
                stubs.swap_remove(hi);
                stubs.swap_remove(lo);
                placed = true;
                break;
            }
            if !placed {
                continue 'attempt;
            }
        }
        return Some(edges);
    }
    None
}

/// The edges of [`Topology::gnp_bounded`].
fn gnp_bounded_edges(n: usize, p: f64, max_degree: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                candidates.push((i, j));
            }
        }
    }
    candidates.shuffle(&mut rng);
    let mut degree = vec![0usize; n];
    let mut edges = Vec::new();
    for (i, j) in candidates {
        if degree[i] < max_degree && degree[j] < max_degree {
            degree[i] += 1;
            degree[j] += 1;
            edges.push((i, j));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The hash-set builder `from_edges_named` replaced, kept as the
    /// reference it must match: it rejects each fault at the first edge
    /// that shows it, in input order.
    fn reference_from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
        name: String,
    ) -> Result<Topology, GraphError> {
        let mut adj: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
        let mut seen = std::collections::HashSet::new();
        for (a, b) in edges {
            if a >= n {
                return Err(GraphError::NodeOutOfRange { node: a, n });
            }
            if b >= n {
                return Err(GraphError::NodeOutOfRange { node: b, n });
            }
            if a == b {
                return Err(GraphError::SelfLoop { node: ProcessId(a) });
            }
            let key = (a.min(b), a.max(b));
            if !seen.insert(key) {
                return Err(GraphError::DuplicateEdge {
                    a: ProcessId(key.0),
                    b: ProcessId(key.1),
                });
            }
            adj[a].push(ProcessId(b));
            adj[b].push(ProcessId(a));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for mut list in adj {
            list.sort_unstable();
            neighbors.extend_from_slice(&list);
            offsets.push(neighbors.len());
        }
        Ok(Topology {
            offsets,
            neighbors,
            name,
        })
    }

    fn assert_same_topology(got: &Topology, want: &Topology) {
        assert_eq!(got.len(), want.len());
        assert_eq!(got.name(), want.name());
        for p in want.nodes() {
            assert_eq!(
                got.neighbors(p),
                want.neighbors(p),
                "{}: row {p}",
                want.name()
            );
        }
        assert_eq!(got, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// Random simple edge lists (random orientation and order), each
        /// clean or with exactly one injected fault: a duplicate, a
        /// reversed duplicate, a self-loop or an out-of-range endpoint.
        #[test]
        fn from_edges_matches_reference(n in 1usize..=40, seed in 0u64..u64::MAX, fault in 0u8..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let density = rng.gen_range(0u32..=60) as f64 / 100.0;
            let mut edges = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    if rng.gen_bool(density) {
                        edges.push(if rng.gen_bool(0.5) { (i, j) } else { (j, i) });
                    }
                }
            }
            edges.shuffle(&mut rng);
            let injected = match fault {
                1 | 2 if !edges.is_empty() => {
                    let (a, b) = edges[rng.gen_range(0..edges.len())];
                    Some(if fault == 1 { (a, b) } else { (b, a) })
                }
                3 => {
                    let v = rng.gen_range(0..n);
                    Some((v, v))
                }
                4 => {
                    let (inside, outside) = (rng.gen_range(0..n), rng.gen_range(n..n + 5));
                    Some(if rng.gen_bool(0.5) { (inside, outside) } else { (outside, inside) })
                }
                _ => None,
            };
            if let Some(e) = injected {
                let at = rng.gen_range(0..=edges.len());
                edges.insert(at, e);
            }
            let got = Topology::from_edges(n, edges.iter().copied());
            let want = reference_from_edges(n, edges.iter().copied(), format!("graph(n={n})"));
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    prop_assert!(injected.is_none());
                    assert_same_topology(g, w);
                }
                _ => {
                    prop_assert!(injected.is_some());
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn every_named_family_matches_reference() {
        let check = |topo: Topology, n: usize, edges: Vec<(usize, usize)>| {
            let reference = reference_from_edges(n, edges, topo.name().to_string()).unwrap();
            assert_same_topology(&topo, &reference);
        };
        for n in 3..=64 {
            let edges = (0..n).map(|i| (i, (i + 1) % n)).collect();
            check(Topology::cycle(n).unwrap(), n, edges);
        }
        for n in [2, 3, 7, 40] {
            let path = (0..n - 1).map(|i| (i, i + 1)).collect();
            check(Topology::path(n).unwrap(), n, path);
            let clique = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect();
            check(Topology::clique(n).unwrap(), n, clique);
            let star = (1..n).map(|i| (0, i)).collect();
            check(Topology::star(n).unwrap(), n, star);
        }
        for (w, h, wrap) in [
            (1, 2, false),
            (3, 3, false),
            (5, 2, false),
            (3, 3, true),
            (4, 6, true),
        ] {
            let grid = Topology::grid(w, h, wrap).unwrap();
            check(grid, w * h, grid_edges(w, h, wrap));
        }
        for d in 1..=6 {
            let n = 1usize << d;
            let edges = (0..n)
                .flat_map(|i| (0..d).map(move |k| (i, i ^ (1 << k))))
                .filter(|&(i, j)| i < j)
                .collect();
            check(Topology::hypercube(d).unwrap(), n, edges);
        }
        for (a, b) in [(1, 1), (2, 3), (5, 4)] {
            let edges = (0..a)
                .flat_map(|i| (0..b).map(move |j| (i, a + j)))
                .collect();
            check(Topology::complete_bipartite(a, b).unwrap(), a + b, edges);
        }
        let petersen = (0..5)
            .map(|i| (i, (i + 1) % 5))
            .chain((0..5).map(|i| (i, i + 5)))
            .chain((0..5).map(|i| (i + 5, (i + 2) % 5 + 5)))
            .collect();
        check(Topology::petersen(), 10, petersen);
        for (n, d, seed) in [(10, 3, 1), (20, 4, 2), (31, 6, 3), (64, 5, 9)] {
            let edges = random_regular_edges(n, d, seed).unwrap();
            check(Topology::random_regular(n, d, seed).unwrap(), n, edges);
        }
        for (n, p, cap, seed) in [(2, 1.0, 1, 0), (40, 0.5, 5, 7), (60, 0.1, 3, 4)] {
            let edges = gnp_bounded_edges(n, p, cap, seed);
            check(Topology::gnp_bounded(n, p, cap, seed).unwrap(), n, edges);
        }
    }

    #[test]
    fn several_faults_report_range_and_self_loops_before_duplicates() {
        assert_eq!(
            Topology::from_edges(4, [(0, 1), (1, 0), (2, 2)]),
            Err(GraphError::SelfLoop { node: ProcessId(2) })
        );
        assert_eq!(
            Topology::from_edges(4, [(0, 1), (0, 1), (3, 9)]),
            Err(GraphError::NodeOutOfRange { node: 9, n: 4 })
        );
        // Several duplicates: the least `(low, high)` pair is named.
        assert_eq!(
            Topology::from_edges(4, [(2, 3), (3, 2), (1, 0), (0, 1)]),
            Err(GraphError::DuplicateEdge {
                a: ProcessId(0),
                b: ProcessId(1)
            })
        );
    }

    #[test]
    fn cycle_structure() {
        let c = Topology::cycle(6).unwrap();
        assert_eq!(c.len(), 6);
        assert_eq!(c.edges().count(), 6);
        assert!(c.is_cycle());
        for p in c.nodes() {
            assert_eq!(c.degree(p), 2);
            let i = p.index();
            assert!(c.is_edge(p, ProcessId((i + 1) % 6)));
            assert!(c.is_edge(p, ProcessId((i + 5) % 6)));
        }
        assert!(!c.is_edge(ProcessId(0), ProcessId(2)));
    }

    #[test]
    fn cycle_minimum_three() {
        assert!(Topology::cycle(2).is_err());
        assert!(Topology::cycle(0).is_err());
        assert!(Topology::cycle(3).is_ok());
    }

    #[test]
    fn triangle_is_clique_is_cycle() {
        let c3 = Topology::cycle(3).unwrap();
        let k3 = Topology::clique(3).unwrap();
        assert_eq!(
            c3.edges().collect::<Vec<_>>(),
            k3.edges().collect::<Vec<_>>()
        );
        assert!(k3.is_cycle());
    }

    #[test]
    fn clique_structure() {
        let k = Topology::clique(5).unwrap();
        assert_eq!(k.edges().count(), 10);
        assert_eq!(k.max_degree(), 4);
        assert!(!k.is_cycle());
    }

    #[test]
    fn path_structure() {
        let p = Topology::path(4).unwrap();
        assert_eq!(p.edges().count(), 3);
        assert_eq!(p.degree(ProcessId(0)), 1);
        assert_eq!(p.degree(ProcessId(1)), 2);
        assert!(!p.is_cycle());
    }

    #[test]
    fn star_structure() {
        let s = Topology::star(7).unwrap();
        assert_eq!(s.degree(ProcessId(0)), 6);
        assert_eq!(s.max_degree(), 6);
        for i in 1..7 {
            assert_eq!(s.degree(ProcessId(i)), 1);
        }
    }

    #[test]
    fn torus_is_4_regular() {
        let t = Topology::grid(4, 5, true).unwrap();
        assert_eq!(t.len(), 20);
        for p in t.nodes() {
            assert_eq!(t.degree(p), 4);
        }
        assert!(Topology::grid(2, 5, true).is_err());
    }

    #[test]
    fn open_grid_degrees() {
        let g = Topology::grid(3, 3, false).unwrap();
        assert_eq!(g.degree(ProcessId(4)), 4); // center
        assert_eq!(g.degree(ProcessId(0)), 2); // corner
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.edges().count(), 12);
    }

    #[test]
    fn petersen_is_3_regular_girth_5() {
        let p = Topology::petersen();
        assert_eq!(p.len(), 10);
        assert_eq!(p.edges().count(), 15);
        for v in p.nodes() {
            assert_eq!(p.degree(v), 3);
        }
        // No triangles: for every edge (a,b), no common neighbor.
        for (a, b) in p.edges() {
            for &c in p.neighbors(a) {
                assert!(!(c != b && p.is_edge(c, b)), "triangle {a}-{b}-{c}");
            }
        }
    }

    #[test]
    fn hypercube_structure() {
        let q4 = Topology::hypercube(4).unwrap();
        assert_eq!(q4.len(), 16);
        assert_eq!(q4.edges().count(), 32); // d · 2^(d−1)
        for p in q4.nodes() {
            assert_eq!(q4.degree(p), 4);
        }
        assert!(q4.is_edge(ProcessId(0b0101), ProcessId(0b0100)));
        assert!(!q4.is_edge(ProcessId(0b0101), ProcessId(0b0110)));
        assert!(Topology::hypercube(0).is_err());
        // Q2 is C4.
        assert!(Topology::hypercube(2).unwrap().is_cycle());
    }

    #[test]
    fn complete_bipartite_structure() {
        let k = Topology::complete_bipartite(3, 4).unwrap();
        assert_eq!(k.len(), 7);
        assert_eq!(k.edges().count(), 12);
        assert_eq!(k.degree(ProcessId(0)), 4);
        assert_eq!(k.degree(ProcessId(3)), 3);
        assert!(k.is_edge(ProcessId(0), ProcessId(3)));
        assert!(!k.is_edge(ProcessId(0), ProcessId(1)));
        // Two-colorable by construction.
        let colors: Vec<u8> = (0..7).map(|i| u8::from(i >= 3)).collect();
        assert!(k.is_proper_coloring(&colors));
        assert!(Topology::complete_bipartite(0, 3).is_err());
    }

    #[test]
    fn random_regular_is_regular() {
        for (n, d, seed) in [(10, 3, 1), (20, 4, 2), (31, 6, 3)] {
            let g = Topology::random_regular(n, d, seed).unwrap();
            for p in g.nodes() {
                assert_eq!(g.degree(p), d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn random_regular_rejects_infeasible() {
        assert!(Topology::random_regular(5, 3, 0).is_err()); // n·d odd
        assert!(Topology::random_regular(4, 4, 0).is_err()); // d ≥ n
        assert!(Topology::random_regular(4, 0, 0).is_err());
    }

    #[test]
    fn random_regular_is_deterministic_per_seed() {
        let a = Topology::random_regular(16, 3, 42).unwrap();
        let b = Topology::random_regular(16, 3, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gnp_respects_degree_cap() {
        let g = Topology::gnp_bounded(40, 0.5, 5, 7).unwrap();
        assert!(g.max_degree() <= 5);
    }

    #[test]
    fn from_edges_validation() {
        assert!(matches!(
            Topology::from_edges(3, [(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        ));
        assert!(matches!(
            Topology::from_edges(3, [(1, 1)]),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            Topology::from_edges(3, [(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn proper_coloring_checks() {
        let c4 = Topology::cycle(4).unwrap();
        assert!(c4.is_proper_coloring(&[0, 1, 0, 1]));
        assert!(!c4.is_proper_coloring(&[0, 1, 1, 0]));
        // Partial: uncolored endpoints never conflict.
        assert!(c4.is_proper_partial_coloring(&[Some(0), None, Some(0), None]));
        assert!(!c4.is_proper_partial_coloring(&[Some(0), Some(0), None, None]));
        assert_eq!(
            c4.first_conflict(&[Some(0), Some(0), None, None]),
            Some((ProcessId(0), ProcessId(1)))
        );
        assert_eq!(c4.first_conflict::<u8>(&[None, None, None, None]), None);
    }

    #[test]
    fn neighbor_order_is_sorted_and_stable() {
        let c = Topology::cycle(5).unwrap();
        assert_eq!(c.neighbors(ProcessId(2)), &[ProcessId(1), ProcessId(3)]);
        assert_eq!(c.neighbors(ProcessId(0)), &[ProcessId(1), ProcessId(4)]);
    }

    #[test]
    fn serde_round_trip() {
        let g = Topology::petersen();
        let json = serde_json::to_string(&g).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
