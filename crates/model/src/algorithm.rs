//! The [`Algorithm`] trait — what a distributed algorithm looks like in
//! the state model.
//!
//! An algorithm is a deterministic state machine per process (§2.1). In
//! each of its asynchronous rounds a process:
//!
//! 1. **writes** [`Algorithm::publish`]`(state)` to its register,
//! 2. **reads** its neighbors' registers — delivered as a
//!    [`Neighborhood`], where a neighbor that has never written shows up
//!    as `None` (the paper's `⊥`),
//! 3. **updates** via [`Algorithm::step`], possibly returning an output.
//!
//! The executor guarantees the paper's timing discipline: the write of
//! step 1 is visible to every process activated at the same time step, and
//! the values read in step 2 are the most recent writes of each neighbor.

use crate::ids::ProcessId;

/// How strongly an algorithm certifies the independence assumptions of
/// partial-order reduction (see [`Algorithm::por_certificate`]).
///
/// The checker's POR mode relies on activations of **non-adjacent**
/// processes commuting: a process's transition reads only its own state
/// and its neighbors' registers, and writes only its own state, register,
/// and output. Any `Algorithm` that is a *pure rule* (no interior
/// mutability smuggling shared data through `&self`) has this property
/// structurally; the certificate is the algorithm author's promise that
/// no such smuggling exists, and the checker additionally probes it
/// dynamically before trusting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PorCert {
    /// Not certified (the conservative default): the checker refuses
    /// `--por` for this algorithm.
    Uncertified,
    /// Non-adjacent activations commute. Enables the exact
    /// connected-activation-set reduction (reachable configurations are
    /// preserved exactly; only redundant interleaving edges are cut).
    Commuting,
    /// [`PorCert::Commuting`], **plus** every working process terminates
    /// when run solo from any reachable configuration (the static
    /// certifier's `FTC-TERM-007` property). Additionally enables the
    /// canonical-component staircase, which defers activations of
    /// working components other than the one holding the smallest
    /// working id — cutting cross-component interleavings of the state
    /// space itself, not just redundant edges.
    CommutingTerminating,
}

/// The outcome of one activation of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<O> {
    /// Keep running; the process stays *working* and will publish its
    /// updated state at its next activation.
    Continue,
    /// Terminate with this output. The process's register keeps the value
    /// written at the start of this round, visible to neighbors forever.
    Return(O),
}

/// What a process sees when it performs a local immediate snapshot: the
/// published register of each of its graph neighbors, in the topology's
/// (arbitrary but fixed) neighbor order. `None` is the paper's `⊥` — the
/// neighbor has not yet performed any round.
#[derive(Debug)]
pub struct Neighborhood<'a, R> {
    regs: &'a [Option<R>],
}

impl<'a, R> Neighborhood<'a, R> {
    /// Wraps a slice of neighbor register values (one entry per neighbor).
    pub fn new(regs: &'a [Option<R>]) -> Self {
        Neighborhood { regs }
    }

    /// Number of neighbors (the node's degree).
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// `true` when the node has no neighbors.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// The raw register of the `i`-th neighbor (`None` = `⊥`).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ len()`.
    pub fn reg(&self, i: usize) -> Option<&R> {
        self.regs[i].as_ref()
    }

    /// Iterates over all neighbor registers, `⊥` included.
    pub fn iter(&self) -> impl Iterator<Item = Option<&R>> + '_ {
        self.regs.iter().map(|r| r.as_ref())
    }

    /// Iterates over the registers of *awake* neighbors only (those that
    /// have written at least once). Most of the paper's conflict sets
    /// (`C`, `C⁺`, `P⁺`, `N⁺`, `N⁻`) quantify over awake neighbors,
    /// because a `⊥` register constrains nothing.
    pub fn awake(&self) -> impl Iterator<Item = &R> + '_ {
        self.regs.iter().filter_map(|r| r.as_ref())
    }

    /// `true` when every neighbor has written at least once.
    pub fn all_awake(&self) -> bool {
        self.regs.iter().all(Option::is_some)
    }
}

/// A distributed algorithm in the state model.
///
/// One value of the implementing type describes the *code* run by every
/// process; per-process data lives in [`Algorithm::State`]. This split
/// lets the executor clone/hash states for model checking without
/// constraining the algorithm object itself.
///
/// See the [crate-level docs](crate) for a complete running example.
pub trait Algorithm {
    /// Per-process input (the paper's identifier `X_p`, usually `u64`).
    type Input;
    /// Per-process mutable state.
    type State: Clone + std::fmt::Debug;
    /// Register contents — what a process writes and neighbors read.
    type Reg: Clone + PartialEq + std::fmt::Debug;
    /// The output a process terminates with (a color, a name, …).
    type Output: Clone + PartialEq + std::fmt::Debug;

    /// Builds the initial state of process `id` from its input. Called
    /// once per process before the execution starts; the process is still
    /// *asleep* (register `⊥`) until its first activation.
    fn init(&self, id: ProcessId, input: Self::Input) -> Self::State;

    /// The value written to the process's register at the start of each of
    /// its rounds (operation 1 of the round).
    fn publish(&self, state: &Self::State) -> Self::Reg;

    /// Operations 2–3 of the round: react to the neighborhood snapshot and
    /// update the state, or terminate.
    fn step(
        &self,
        state: &mut Self::State,
        view: &Neighborhood<'_, Self::Reg>,
    ) -> Step<Self::Output>;

    /// Reindexes any *view-position-indexed* data held in `state` after a
    /// graph automorphism moves the process to a node whose neighbor list
    /// enumerates the (relabeled) neighbors in a different order:
    /// position `k` of the reindexed data must take the value previously
    /// at position `perm[k]`.
    ///
    /// Symmetry-reduced model checking relabels configurations by graph
    /// automorphisms, and neighbor lists carry no global orientation
    /// (they are sorted by id), so a relabeling generally permutes the
    /// order in which a given process sees its neighbors. Algorithms
    /// whose `step` folds the view as a multiset and whose state holds no
    /// per-view-position data are oblivious to this: they override the
    /// hook to return `true` without touching `state`. Algorithms that
    /// remember view positions (e.g. a stored previous view, compared
    /// entry-wise) must reindex that data here and return `true`.
    ///
    /// Contract: the return value must depend only on the algorithm, not
    /// on the particular state; registers and outputs must never hold
    /// view-position-indexed data; and `step` must commute with
    /// simultaneously permuting the view and reindexing the state. The
    /// default conservatively returns `false` ("not certified"), which
    /// makes the checker refuse symmetry reduction for this algorithm
    /// rather than risk unsound orbit collapsing.
    fn relabel_view(&self, _state: &mut Self::State, _perm: &[usize]) -> bool {
        false
    }

    /// Declares how strongly this algorithm certifies the independence
    /// assumptions of partial-order reduction — see [`PorCert`].
    ///
    /// Contract: the return value must depend only on the algorithm, not
    /// on any state. [`PorCert::Commuting`] promises that `step` is a
    /// pure function of `(state, view)` — in particular that the
    /// algorithm object holds no interior-mutable channel through which
    /// activations of non-adjacent processes could influence each other.
    /// [`PorCert::CommutingTerminating`] additionally promises solo
    /// termination from every reachable configuration. The checker
    /// cross-examines both claims with a dynamic probe (commutation of
    /// non-adjacent pairs in both orders, bounded solo runs) and refuses
    /// exploration on any mismatch, mirroring the `relabel_view`
    /// certification gate. The default conservatively returns
    /// [`PorCert::Uncertified`], which makes the checker refuse `--por`
    /// for this algorithm rather than risk an unsound reduction.
    fn por_certificate(&self) -> PorCert {
        PorCert::Uncertified
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighborhood_awake_filters_bottom() {
        let regs = vec![Some(1u32), None, Some(3)];
        let view = Neighborhood::new(&regs);
        assert_eq!(view.len(), 3);
        assert!(!view.all_awake());
        assert_eq!(view.awake().copied().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(view.reg(1), None);
        assert_eq!(view.reg(2), Some(&3));
        let seen: Vec<Option<&u32>> = view.iter().collect();
        assert_eq!(seen, vec![Some(&1), None, Some(&3)]);
    }

    #[test]
    fn neighborhood_empty() {
        let regs: Vec<Option<u8>> = Vec::new();
        let view = Neighborhood::new(&regs);
        assert!(view.is_empty());
        assert!(view.all_awake()); // vacuously
    }
}
