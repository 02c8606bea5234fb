//! Intentionally-buggy algorithms: negative fixtures for `ftcolor-analyze`.
//!
//! Each mutant violates exactly one §2 state-model contract, chosen so
//! that the corresponding linter rule — and, for well-behaved rules,
//! *only* that rule — fires on it. They double as documentation of what
//! each contract forbids:
//!
//! | Mutant | Contract broken | Rule expected to fire |
//! |---|---|---|
//! | [`NeighborWriter`] | single-writer registers | `FTC-SWMR-001` |
//! | [`StateSmuggler`] | snapshot scope (reads only the handed view) | `FTC-SNAP-002` |
//! | [`UnstableDecider`] | decision stability | `FTC-STAB-003` |
//! | [`OutOfPalette`] | declared palette bound | `FTC-PAL-004` |
//! | [`NondetStepper`] | step determinism | `FTC-DET-005` |
//! | [`SoloDiverger`] | solo wait-freedom | `FTC-WF-006` |
//! | [`SoloLoiterer`] | solo termination from reachable states | `FTC-TERM-007` |
//! | [`UnboundedCounter`] | bounded-state discipline | `FTC-DOM-008` |
//!
//! [`PorLiar`] is a ninth fixture of a different kind: it breaks no §2
//! contract a linter rule watches, but *lies about its POR independence
//! certificate* — the model checker's dynamic commutation probe must
//! refuse it before any reduced exploration starts.
//!
//! The last two table rows target the *static* certifier specifically: both are
//! invisible to the dynamic linter (solo runs from initial states
//! terminate immediately, and no dynamic rule watches state growth), so
//! they gate exactly the coverage `ftcolor certify` adds.
//!
//! The illegal channels are built from [`Cell`]/[`RefCell`] interior
//! mutability *inside the algorithm object* — exactly the smuggling the
//! model forbids (an `Algorithm` must be a pure rule: all per-process
//! information lives in `State`, all communication in registers). The
//! linter runs single-threaded, so none of these need to be `Sync`;
//! they are **not** exported from the crate prelude and must never be
//! used outside analyzer tests.

use ftcolor_model::{Algorithm, Neighborhood, PorCert, ProcessId, Step};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// Violates **SWMR**: every step writes into *another process's*
/// register through a shared shadow register file.
///
/// `publish` reads the shadow file, so a step of process `p` changes
/// what process `(p+1) % n` will publish — a write to a register `p`
/// does not own. Step outcomes themselves are deterministic functions
/// of the local state, so no other rule fires.
#[derive(Debug)]
pub struct NeighborWriter {
    shadow: RefCell<Vec<u64>>,
}

impl NeighborWriter {
    /// A shadow register file for `n` processes.
    pub fn new(n: usize) -> Self {
        NeighborWriter {
            shadow: RefCell::new(vec![0; n]),
        }
    }
}

/// State of [`NeighborWriter`]: own index, input, and a round counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NwState {
    /// Own process index (used to pick the victim register).
    pub id: usize,
    /// The input identifier.
    pub x: u64,
    /// Rounds performed.
    pub rounds: u64,
}

impl Algorithm for NeighborWriter {
    type Input = u64;
    type State = NwState;
    type Reg = u64;
    type Output = u64;

    fn init(&self, id: ProcessId, x: u64) -> NwState {
        NwState {
            id: id.index(),
            x,
            rounds: 0,
        }
    }

    fn publish(&self, s: &NwState) -> u64 {
        s.x + self.shadow.borrow()[s.id]
    }

    fn step(&self, s: &mut NwState, _view: &Neighborhood<'_, u64>) -> Step<u64> {
        let mut shadow = self.shadow.borrow_mut();
        let victim = (s.id + 1) % shadow.len();
        shadow[victim] += 1; // the foreign write
        s.rounds += 1;
        if s.rounds >= 2 {
            Step::Return(s.x % 5)
        } else {
            Step::Continue
        }
    }
}

/// Violates **snapshot scope**: the deciding step reads a shared
/// "blackboard" cell that other processes' steps keep writing — state
/// smuggled around the register abstraction.
///
/// The channel is crafted to stay invisible to back-to-back determinism
/// probes (the return path never writes the blackboard, so two
/// immediate re-runs of the same step agree); only re-running the
/// recorded step *after other processes have taken real steps* — the
/// linter's deferred replay — exposes it.
#[derive(Debug, Default)]
pub struct StateSmuggler {
    blackboard: Cell<u64>,
}

impl StateSmuggler {
    /// A fresh smuggler with an empty blackboard.
    pub fn new() -> Self {
        StateSmuggler::default()
    }
}

/// State of [`StateSmuggler`]: input and a round counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SmState {
    /// The input identifier.
    pub x: u64,
    /// Rounds performed.
    pub rounds: u64,
}

impl Algorithm for StateSmuggler {
    type Input = u64;
    type State = SmState;
    type Reg = u64;
    type Output = u64;

    fn init(&self, _id: ProcessId, x: u64) -> SmState {
        SmState { x, rounds: 0 }
    }

    fn publish(&self, s: &SmState) -> u64 {
        s.x
    }

    fn step(&self, s: &mut SmState, _view: &Neighborhood<'_, u64>) -> Step<u64> {
        s.rounds += 1;
        if s.rounds >= 3 {
            // Decision depends on who scribbled last — not on the view.
            Step::Return(self.blackboard.get() % 5)
        } else {
            self.blackboard.set(s.x);
            Step::Continue
        }
    }
}

/// Violates **decision stability**: a process that has returned would
/// return a *different* color if activated again.
///
/// The deciding step bases its output on a counter it just bumped, so
/// re-running the step from the post-decision state yields a different
/// output. `publish` exposes only the static input, so the register
/// never regresses and no other rule fires.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnstableDecider;

/// State of [`UnstableDecider`]: input and an activation counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UdState {
    /// The input identifier.
    pub x: u64,
    /// Activations seen so far.
    pub seen: u64,
}

impl Algorithm for UnstableDecider {
    type Input = u64;
    type State = UdState;
    type Reg = u64;
    type Output = u64;

    fn init(&self, _id: ProcessId, x: u64) -> UdState {
        UdState { x, seen: 0 }
    }

    fn publish(&self, s: &UdState) -> u64 {
        s.x
    }

    fn step(&self, s: &mut UdState, _view: &Neighborhood<'_, u64>) -> Step<u64> {
        s.seen += 1;
        if s.seen >= 2 {
            Step::Return(s.seen % 5) // unstable: depends on the bump
        } else {
            Step::Continue
        }
    }
}

/// Violates the **palette bound**: declared palette 5 (colors `0..=4`),
/// but emits `x mod 7`, i.e. colors up to 6.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutOfPalette;

/// State of [`OutOfPalette`]: just the input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OpState {
    /// The input identifier.
    pub x: u64,
}

impl Algorithm for OutOfPalette {
    type Input = u64;
    type State = OpState;
    type Reg = u64;
    type Output = u64;

    fn init(&self, _id: ProcessId, x: u64) -> OpState {
        OpState { x }
    }

    fn publish(&self, s: &OpState) -> u64 {
        s.x
    }

    fn step(&self, s: &mut OpState, _view: &Neighborhood<'_, u64>) -> Step<u64> {
        Step::Return(s.x % 7)
    }
}

/// Violates **step determinism**: the update consults a private RNG in
/// the algorithm object, so two runs of the same step from the same
/// state and view diverge.
#[derive(Debug)]
pub struct NondetStepper {
    rng: Cell<u64>,
}

impl NondetStepper {
    /// A nondeterministic stepper with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        NondetStepper {
            rng: Cell::new(seed | 1),
        }
    }
}

/// State of [`NondetStepper`]: input and a round counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NdState {
    /// The input identifier.
    pub x: u64,
    /// Rounds performed.
    pub rounds: u64,
}

impl Algorithm for NondetStepper {
    type Input = u64;
    type State = NdState;
    type Reg = u64;
    type Output = u64;

    fn init(&self, _id: ProcessId, x: u64) -> NdState {
        NdState { x, rounds: 0 }
    }

    fn publish(&self, s: &NdState) -> u64 {
        s.x
    }

    fn step(&self, s: &mut NdState, _view: &Neighborhood<'_, u64>) -> Step<u64> {
        // xorshift64 advanced on every call: probe runs diverge.
        let mut z = self.rng.get();
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        self.rng.set(z);
        s.rounds += z % 3;
        if s.rounds >= 4 {
            Step::Return(z % 5)
        } else {
            Step::Continue
        }
    }
}

/// Violates **solo wait-freedom**: waits until every neighbor's
/// register is awake, so a solo execution (neighbors forever `⊥`)
/// never returns, despite a declared solo round bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoloDiverger;

/// State of [`SoloDiverger`]: just the input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SdState {
    /// The input identifier.
    pub x: u64,
}

impl Algorithm for SoloDiverger {
    type Input = u64;
    type State = SdState;
    type Reg = u64;
    type Output = u64;

    fn init(&self, _id: ProcessId, x: u64) -> SdState {
        SdState { x }
    }

    fn publish(&self, s: &SdState) -> u64 {
        s.x
    }

    fn step(&self, s: &mut SdState, view: &Neighborhood<'_, u64>) -> Step<u64> {
        if view.all_awake() {
            Step::Return(s.x % 5)
        } else {
            Step::Continue // waiting on ⊥ neighbors: not wait-free
        }
    }
}

/// Violates **solo termination from reachable states** (`FTC-TERM-007`)
/// while staying invisible to every *dynamic* rule: it returns
/// immediately when no neighbor is awake — so the linter's solo runs
/// from initial states (`FTC-WF-006`) always decide in one step — but
/// from any state it *waits for awake neighbors to disappear*, which
/// under a frozen view (the crash scenario) never happens. Only the
/// static termination pass, which runs solo from every *reachable*
/// state, sees the lasso.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoloLoiterer;

/// State of [`SoloLoiterer`]: just the input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlState {
    /// The input identifier.
    pub x: u64,
}

impl Algorithm for SoloLoiterer {
    type Input = u64;
    type State = SlState;
    type Reg = u64;
    type Output = u64;

    fn init(&self, _id: ProcessId, x: u64) -> SlState {
        SlState { x }
    }

    fn publish(&self, s: &SlState) -> u64 {
        s.x
    }

    fn step(&self, s: &mut SlState, view: &Neighborhood<'_, u64>) -> Step<u64> {
        if view.awake().next().is_none() {
            Step::Return(s.x % 5) // cold solo start: instant decision
        } else {
            Step::Continue // loiters while anyone's register is awake
        }
    }
}

/// Violates the **bounded-state discipline** (`FTC-DOM-008`): it bumps
/// an unbounded counter every round spent blocked on a color-conflicting
/// neighbor, and the counter leaks into the output — so no sound
/// saturation exists and any declared domain bound is breached. The
/// dynamic linter never sees it: with conflict-free identifiers the
/// counter stays at zero, solo runs return in one step, and no dynamic
/// rule watches state growth.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnboundedCounter;

/// State of [`UnboundedCounter`]: input plus the leaking counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UcState {
    /// The input identifier.
    pub x: u64,
    /// Rounds spent blocked — unbounded, and it leaks into the output.
    pub c: u64,
}

/// Lies to the **POR certification gate**: claims
/// [`PorCert::CommutingTerminating`] while smuggling a shared step
/// clock through the algorithm object, so activations of distinct
/// processes do *not* commute — each step folds the global clock value
/// it observed into the state, making outcomes depend on the order in
/// which the adversary interleaves steps across the whole instance
/// (adjacent or not).
///
/// Unlike the linter fixtures above, this mutant targets the model
/// checker's *dynamic POR probe* (`--por` refuses the algorithm with a
/// certificate-violation error before exploring anything), mirroring
/// the `relabel_view` certification story. It uses an [`AtomicU64`]
/// rather than a [`Cell`] because the model checker's workers share
/// the algorithm, which therefore must be `Sync`. It solo-terminates (two
/// rounds) so only the commutation half of the probe can catch it.
#[derive(Debug, Default)]
pub struct PorLiar {
    clock: AtomicU64,
}

impl PorLiar {
    /// A fresh liar with its clock at zero.
    pub fn new() -> Self {
        PorLiar::default()
    }
}

/// State of [`PorLiar`]: input, smuggled clock residue, round counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlState {
    /// The input identifier.
    pub x: u64,
    /// Accumulated global-clock observations — the illegal coupling.
    pub stamp: u64,
    /// Rounds performed.
    pub rounds: u64,
}

impl Algorithm for PorLiar {
    type Input = u64;
    type State = PlState;
    type Reg = u64;
    type Output = u64;

    fn init(&self, _id: ProcessId, x: u64) -> PlState {
        PlState {
            x,
            stamp: 0,
            rounds: 0,
        }
    }

    fn publish(&self, s: &PlState) -> u64 {
        s.x
    }

    fn step(&self, s: &mut PlState, _view: &Neighborhood<'_, u64>) -> Step<u64> {
        // The smuggled channel: every step anywhere advances the shared
        // clock, and the observed value leaks into this process's state.
        let t = self.clock.fetch_add(1, Ordering::SeqCst);
        s.stamp = s.stamp.wrapping_add(t);
        s.rounds += 1;
        if s.rounds >= 2 {
            Step::Return((s.x + s.stamp) % 5)
        } else {
            Step::Continue
        }
    }

    fn relabel_view(&self, _state: &mut PlState, _perm: &[usize]) -> bool {
        true
    }

    // The lie the probe must catch.
    fn por_certificate(&self) -> PorCert {
        PorCert::CommutingTerminating
    }
}

impl Algorithm for UnboundedCounter {
    type Input = u64;
    type State = UcState;
    type Reg = u64;
    type Output = u64;

    fn init(&self, _id: ProcessId, x: u64) -> UcState {
        UcState { x, c: 0 }
    }

    fn publish(&self, s: &UcState) -> u64 {
        s.x % 5
    }

    fn step(&self, s: &mut UcState, view: &Neighborhood<'_, u64>) -> Step<u64> {
        if view.awake().all(|&r| r != s.x % 5) {
            Step::Return(s.x % 5 + s.c / 1_000_000)
        } else {
            s.c += 1; // blocked on a conflict: count (without bound)
            Step::Continue
        }
    }
}
