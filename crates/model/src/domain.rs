//! Abstract view domains for per-process static certification.
//!
//! The paper's algorithms are finite local state machines over bounded
//! views: what a process does in a round depends only on its own state
//! and on the register values it reads from its `Δ` neighbors, each of
//! which is either `⊥` or a point of a small lattice (identifiers enter
//! only through comparisons, colors through `O(Δ)`-sized palettes). A
//! [`ViewDomain`] packages that observation as data: a finite universe
//! of abstract local states and neighbor-register valuations, plus the
//! projections that keep exploration inside the universe. Driving
//! [`Algorithm::step`] over *every* `(state, view)` pair of the domain
//! yields the algorithm's complete local transition system — the object
//! the `ftcolor-analyze` certifier proves the §2 contracts over, with no
//! schedule sampling gap.
//!
//! ## The abstraction, piece by piece
//!
//! * **Initial states** seed the exploration (usually one state per
//!   abstract identifier value).
//! * **Neighbor images** close the view lattice: whenever a new state
//!   becomes reachable, the register it would publish is mapped to the
//!   neighbor-side values it can present (e.g. an identifier relabeled
//!   to "lower than mine" / "higher than mine", or a saturated counter
//!   enriched with its successor so every order pattern between my
//!   counter and a neighbor's stays realizable). Views are then all
//!   `Δ`-tuples over `{⊥} ∪ images(reachable registers)`.
//! * **Widening** projects a post-step state back into the finite
//!   universe — the identity for naturally bounded fields, a documented
//!   saturation for unbounded ones (update counters, log*-round
//!   counters), or a [`Projection::Breach`] when the state genuinely
//!   escapes the declared bounds (which the certifier reports rather
//!   than silently absorbing).
//! * **Canonicalization** quotients state components that the
//!   [`variants`](ViewDomain::variants) hook re-expands per view — e.g.
//!   a stored previous view that `step` only ever compares against the
//!   current one collapses to "equal to the view being stepped" vs
//!   "anything else".
//!
//! ## Soundness obligations
//!
//! A domain is a *certification* in the same sense as
//! [`Algorithm::relabel_view`]: the algorithm author asserts, and
//! documents in [`ViewDomain::note`], why the abstraction
//! over-approximates every concrete execution — typically (a) `step`
//! reads identifiers only through order comparisons, so relabeling to a
//! three-point chain is exhaustive; (b) `step` reads counters only
//! through order comparisons against view counters, so saturating the
//! own-side counter while enriching view images with one extra value
//! covers every comparison pattern; (c) every register a neighbor can
//! ever hold is the publish of some reachable state, so growing the view
//! lattice from reachable publishes reaches a sound fixpoint. The
//! `certify` cross-check suite (`tests/certify_props.rs`) tests the
//! claim: states observed by the dynamic executor must project into the
//! statically computed reachable set.

use crate::algorithm::Algorithm;

/// The outcome of projecting a post-step state into the domain universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// The state was already inside the universe; nothing changed.
    Inside,
    /// An unbounded field was saturated to its cap — sound per the
    /// domain's documented widening argument (see [`ViewDomain::note`]).
    Widened,
    /// The state escapes the declared bounds and no sound saturation is
    /// certified for it — a finding, not an implementation detail.
    Breach(String),
}

type ImagesFn<A> = Box<dyn Fn(&<A as Algorithm>::Reg) -> Vec<<A as Algorithm>::Reg>>;
type WidenFn<A> = Box<dyn Fn(&mut <A as Algorithm>::State) -> Projection>;
type CanonFn<A> = Box<dyn Fn(&mut <A as Algorithm>::State)>;
type VariantsFn<A> = Box<
    dyn Fn(
        &<A as Algorithm>::State,
        &[Option<<A as Algorithm>::Reg>],
    ) -> Vec<<A as Algorithm>::State>,
>;
type ProjectFn<A> = Box<dyn Fn(&<A as Algorithm>::State) -> <A as Algorithm>::State>;

/// A finite abstract domain for one algorithm's local transition system.
///
/// Build with [`ViewDomain::new`] plus the builder methods; consume with
/// the accessors (the certifier in `ftcolor-analyze` is the main
/// client). See the [module docs](self) for the semantics of each hook.
pub struct ViewDomain<A: Algorithm> {
    degree: usize,
    init_states: Vec<A::State>,
    symmetric_views: bool,
    note: String,
    neighbor_images: ImagesFn<A>,
    widen: WidenFn<A>,
    canon: CanonFn<A>,
    variants: VariantsFn<A>,
    project: Option<ProjectFn<A>>,
}

impl<A: Algorithm> ViewDomain<A> {
    /// A domain for processes of the given degree, with identity hooks:
    /// no widening (everything is [`Projection::Inside`]), no
    /// canonicalization, one variant per state, neighbor images that
    /// pass registers through unchanged, and ordered view enumeration.
    pub fn new(degree: usize) -> Self {
        ViewDomain {
            degree,
            init_states: Vec::new(),
            symmetric_views: false,
            note: String::new(),
            neighbor_images: Box::new(|r| vec![r.clone()]),
            widen: Box::new(|_| Projection::Inside),
            canon: Box::new(|_| {}),
            variants: Box::new(|s, _| vec![s.clone()]),
            project: None,
        }
    }

    /// Adds one abstract initial state.
    pub fn init_state(mut self, s: A::State) -> Self {
        self.init_states.push(s);
        self
    }

    /// Declares that `step` folds its view as a multiset (as certified
    /// by [`Algorithm::relabel_view`] being a no-op, or by the domain's
    /// `variants` hook absorbing the only position-indexed state), so
    /// views may be enumerated as unordered tuples.
    pub fn symmetric_views(mut self) -> Self {
        self.symmetric_views = true;
        self
    }

    /// Documents the widening argument (shown in certification reports).
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// Sets the neighbor-image map (register → values it can present on
    /// the neighbor side of a view).
    pub fn neighbor_images(mut self, f: impl Fn(&A::Reg) -> Vec<A::Reg> + 'static) -> Self {
        self.neighbor_images = Box::new(f);
        self
    }

    /// Sets the widening projection applied to every post-step state.
    pub fn widen(mut self, f: impl Fn(&mut A::State) -> Projection + 'static) -> Self {
        self.widen = Box::new(f);
        self
    }

    /// Sets the canonicalization applied before state identity checks.
    pub fn canon(mut self, f: impl Fn(&mut A::State) + 'static) -> Self {
        self.canon = Box::new(f);
        self
    }

    /// Sets the per-view concretization: the variants of a canonical
    /// state whose behavior under this specific view can differ.
    pub fn variants(
        mut self,
        f: impl Fn(&A::State, &[Option<A::Reg>]) -> Vec<A::State> + 'static,
    ) -> Self {
        self.variants = Box::new(f);
        self
    }

    /// Sets the concrete→abstract projection used by containment
    /// cross-checks (defaults to canonicalize-then-widen).
    pub fn project(mut self, f: impl Fn(&A::State) -> A::State + 'static) -> Self {
        self.project = Some(Box::new(f));
        self
    }

    /// The node degree views are built for.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The abstract initial states.
    pub fn init_states(&self) -> &[A::State] {
        &self.init_states
    }

    /// Whether views may be enumerated as unordered tuples.
    pub fn views_are_symmetric(&self) -> bool {
        self.symmetric_views
    }

    /// The documented widening argument (may be empty).
    pub fn note_text(&self) -> &str {
        &self.note
    }

    /// Neighbor-side images of a published register.
    pub fn images(&self, r: &A::Reg) -> Vec<A::Reg> {
        (self.neighbor_images)(r)
    }

    /// Projects a post-step state into the universe.
    pub fn widen_state(&self, s: &mut A::State) -> Projection {
        (self.widen)(s)
    }

    /// Canonicalizes a state for identity checks.
    pub fn canonize(&self, s: &mut A::State) {
        (self.canon)(s);
    }

    /// The per-view variants of a canonical state.
    pub fn variants_for(&self, s: &A::State, view: &[Option<A::Reg>]) -> Vec<A::State> {
        (self.variants)(s, view)
    }

    /// Maps a concrete executor state into its abstract representative.
    pub fn project_state(&self, s: &A::State) -> A::State {
        match &self.project {
            Some(f) => f(s),
            None => {
                let mut t = s.clone();
                (self.canon)(&mut t);
                let _ = (self.widen)(&mut t);
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Neighborhood, Step};
    use crate::ids::ProcessId;

    struct Echo;
    impl Algorithm for Echo {
        type Input = u64;
        type State = u64;
        type Reg = u64;
        type Output = u64;
        fn init(&self, _id: ProcessId, input: u64) -> u64 {
            input
        }
        fn publish(&self, state: &u64) -> u64 {
            *state
        }
        fn step(&self, state: &mut u64, _view: &Neighborhood<'_, u64>) -> Step<u64> {
            Step::Return(*state)
        }
    }

    #[test]
    fn defaults_are_identity() {
        let d: ViewDomain<Echo> = ViewDomain::new(2).init_state(7);
        assert_eq!(d.degree(), 2);
        assert_eq!(d.init_states(), &[7]);
        assert_eq!(d.images(&3), vec![3]);
        let mut s = 9;
        assert_eq!(d.widen_state(&mut s), Projection::Inside);
        d.canonize(&mut s);
        assert_eq!(s, 9);
        assert_eq!(d.variants_for(&s, &[None, None]), vec![9]);
        assert_eq!(d.project_state(&s), 9);
        assert!(!d.views_are_symmetric());
    }

    #[test]
    fn hooks_compose() {
        let d: ViewDomain<Echo> = ViewDomain::new(2)
            .init_state(1)
            .symmetric_views()
            .note("cap at 3")
            .neighbor_images(|&r| vec![r, r + 10])
            .widen(|s| {
                if *s > 3 {
                    *s = 3;
                    Projection::Widened
                } else {
                    Projection::Inside
                }
            })
            .canon(|s| *s &= !1)
            .variants(|&s, view| vec![s, s + view.len() as u64]);
        assert!(d.views_are_symmetric());
        assert_eq!(d.note_text(), "cap at 3");
        assert_eq!(d.images(&2), vec![2, 12]);
        let mut s = 9;
        assert_eq!(d.widen_state(&mut s), Projection::Widened);
        assert_eq!(s, 3);
        // project = canon ∘ widen by default: 9 → canon 8 → widen 3.
        assert_eq!(d.project_state(&9), 3);
        assert_eq!(d.variants_for(&2, &[None, None]), vec![2, 4]);
    }
}
