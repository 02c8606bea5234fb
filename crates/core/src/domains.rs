//! Certified abstract view domains for the registry algorithms.
//!
//! Each constructor here is a *certification* in the same spirit as
//! [`Algorithm::relabel_view`]:
//! the algorithm author asserts, with the argument documented on the
//! constructor, that the returned [`ViewDomain`] over-approximates every
//! state and view the algorithm can concretely encounter on its target
//! topology. The `ftcolor certify` pass (in `ftcolor-analyze`) then
//! drives the algorithm's real `step` over the whole domain and proves
//! the §2 contracts on the resulting local transition system; the
//! cross-check suite (`tests/certify_props.rs`) tests each certification
//! by projecting dynamically observed states into the static set.
//!
//! ## The shared abstraction arguments
//!
//! **Identifier relabeling** (`x ∈ {0, 1, 2}` with own `x = 1`): the
//! order-comparison algorithms (Algorithms 1, 2, 2-patched, 4, renaming,
//! MIS) read identifiers only through `<`/`>` against their own, so a
//! neighbor identifier is fully characterized by its side of the
//! comparison: `0` = lower, `2` = higher. Inputs properly color the
//! cycle (unique ids, or Remark 3.10's proper-coloring inputs), so the
//! equal case never occurs and is excluded — which matters for Algorithm
//! 1, whose `mex` filters would both ignore an equal-identifier neighbor
//! and admit a spurious solo stall. Algorithm 3's `reduce(x, ·)` is
//! *bitwise*, so its identifiers stay concrete over a small input range
//! instead; that is sound on its own because evolving identifiers never
//! grow (the between branch adopts `y` only when `y < xmin`, the
//! extremum branch takes a `min`).
//!
//! **Counter saturation with downward-closed view images**: the patched
//! algorithms' update counter `c` (and Algorithm 3's green-light rank
//! `r`) enter `step` only through order comparisons against view-side
//! counters, so the own-side value saturates at cap 1 while view images
//! of a saturated counter span `{0, 1, 2}` (`{F0, F1, F2}` for ranks).
//! The extra values keep *every* concrete order pattern realizable:
//! `me < r` needs a view value above the cap (a saturated tie would
//! wrongly fall through to the identifier tiebreak), and `me > r ≥ 1`
//! needs a view value below it. The induction is the standard simulation
//! argument: a concrete neighbor register projects to a reachable
//! abstract register, and that register's image set covers every
//! comparison outcome the concrete value could produce.

use crate::alg1::Reg1;
use crate::alg2::Reg2;
use crate::alg2_patched::{Reg2P, State2P};
use crate::alg3::{Rank, Reg3};
use crate::alg3_patched::{Reg3P, State3P};
use crate::color::PairColor;
use crate::mis::MisReg;
use crate::renaming::RenameReg;
use ftcolor_model::domain::{Projection, ViewDomain};
use ftcolor_model::Algorithm;

/// Abstract identifier of a lower-id neighbor.
pub const X_LO: u64 = 0;
/// Abstract identifier of the process under certification.
pub const X_ME: u64 = 1;
/// Abstract identifier of a higher-id neighbor.
pub const X_HI: u64 = 2;
/// Saturation cap for update counters and green-light ranks.
pub const COUNTER_CAP: u64 = 1;

/// View-side images of a saturated counter: exact for `0`, the full
/// three-point chain `{0, 1, 2}` once saturated (see the module docs for
/// why both the sub-cap and over-cap values are required).
fn counter_images(c: u64) -> Vec<u64> {
    if c == 0 {
        vec![0]
    } else {
        vec![0, COUNTER_CAP, COUNTER_CAP + 1]
    }
}

/// [`COUNTER_CAP`] as a green-light rank value.
const RANK_CAP: u32 = COUNTER_CAP as u32;

/// View-side images of a saturated rank: exact for `Finite(0)` and
/// `Omega`, the chain `{F0, F1, F2}` once saturated. `Omega` stays
/// itself (it only ever feeds `min`-comparisons, where it acts as a top
/// element).
fn rank_images(r: Rank) -> Vec<Rank> {
    match r {
        Rank::Finite(0) => vec![Rank::Finite(0)],
        Rank::Finite(_) => vec![
            Rank::Finite(0),
            Rank::Finite(RANK_CAP),
            Rank::Finite(RANK_CAP + 1),
        ],
        Rank::Omega => vec![Rank::Omega],
    }
}

fn saturate_counter(c: &mut u64) -> bool {
    if *c > COUNTER_CAP {
        *c = COUNTER_CAP;
        true
    } else {
        false
    }
}

fn saturate_rank(r: &mut Rank) -> bool {
    match *r {
        Rank::Finite(k) if k > RANK_CAP => {
            *r = Rank::Finite(RANK_CAP);
            true
        }
        _ => false,
    }
}

/// Shared domain for the pair-color algorithms (Algorithm 1 on the
/// cycle, Algorithm 4 at degree 2, where they coincide).
///
/// **Certified bounds**: `x` is static, and each pair component is a
/// `mex` over at most the 2 neighbors' components, so `a, b ≤ 2` — no
/// widening is needed at all. `step` reads identifiers only through
/// order comparisons (`r.x > x`, `r.x < x`), so the `{0, 1, 2}`
/// relabeling with own `x = 1` is exhaustive; `step` folds the view as a
/// multiset (`relabel_view` is a certified no-op), so views enumerate
/// unordered.
pub fn pair_domain<A>() -> ViewDomain<A>
where
    A: Algorithm<State = Reg1, Reg = Reg1>,
{
    ViewDomain::new(2)
        .init_state(Reg1 {
            x: X_ME,
            color: PairColor::new(0, 0),
        })
        .symmetric_views()
        .note(
            "identifiers relabeled to {lower, me, higher}; pair components \
             naturally bounded by mex over ≤2 neighbors (no widening)",
        )
        .neighbor_images(|r: &Reg1| [X_LO, X_HI].iter().map(|&x| Reg1 { x, ..*r }).collect())
        .widen(|s: &mut Reg1| {
            if s.x != X_ME {
                Projection::Breach(format!("own identifier changed: {s:?}"))
            } else if s.color.a > 2 || s.color.b > 2 {
                Projection::Breach(format!("pair component exceeds degree bound: {s:?}"))
            } else {
                Projection::Inside
            }
        })
        .project(|s: &Reg1| Reg1 { x: X_ME, ..*s })
}

/// Domain for Algorithm 2 (5-coloring). `colors` is the candidate
/// lattice bound — the registry passes the palette, Theorem 3.11's 5
/// (each candidate is a `mex` over at most 4 published components).
///
/// Identifiers are order-compared only, so they relabel to `{0, 1, 2}`;
/// the state has no unbounded field, so widening is pure bounds-checking.
pub fn five_coloring_domain(colors: u64) -> ViewDomain<crate::FiveColoring> {
    ViewDomain::new(2)
        .init_state(Reg2 {
            x: X_ME,
            a: 0,
            b: 0,
        })
        .symmetric_views()
        .note(
            "identifiers relabeled to {lower, me, higher}; candidates bounded \
             by mex over ≤4 components (no widening)",
        )
        .neighbor_images(|r: &Reg2| [X_LO, X_HI].iter().map(|&x| Reg2 { x, ..*r }).collect())
        .widen(move |s: &mut Reg2| {
            if s.x != X_ME {
                Projection::Breach(format!("own identifier changed: {s:?}"))
            } else if s.a >= colors || s.b >= colors {
                Projection::Breach(format!(
                    "candidate exceeds the {colors}-color lattice: {s:?}"
                ))
            } else {
                Projection::Inside
            }
        })
        .project(|s: &Reg2| Reg2 { x: X_ME, ..*s })
}

/// Domain for the patched Algorithm 2 (counter-priority arbitration).
///
/// Two abstractions beyond [`five_coloring_domain`]:
///
/// * the unbounded update counter `c` saturates at [`COUNTER_CAP`] on
///   the own side, with view images spanning `{0, 1, 2}` so every
///   `(c, x)`-lexicographic priority outcome stays realizable (module
///   docs);
/// * `last_view` is dropped from state identity (`canon`) because `step`
///   reads it only through `last_view == current`; the per-view
///   `variants` hook re-expands the two equivalence classes — equal to
///   the view being stepped (frozen-view escape fires) and anything else
///   (it doesn't; `None` and any stale view behave identically).
pub fn five_coloring_patched_domain(colors: u64) -> ViewDomain<crate::FiveColoringPatched> {
    ViewDomain::new(2)
        .init_state(State2P {
            reg: Reg2P {
                x: X_ME,
                a: 0,
                b: 0,
                c: 0,
            },
            last_view: None,
        })
        .symmetric_views()
        .note(
            "update counter saturated at 1 (order-compared only; view images \
             span {0,1,2}); last_view quotiented to {equals-current, other} \
             and re-expanded per view",
        )
        .neighbor_images(|r: &Reg2P| {
            let mut out = Vec::new();
            for &x in &[X_LO, X_HI] {
                for c in counter_images(r.c) {
                    out.push(Reg2P { x, c, ..*r });
                }
            }
            out
        })
        .widen(move |s: &mut State2P| {
            if s.reg.x != X_ME {
                return Projection::Breach(format!("own identifier changed: {:?}", s.reg));
            }
            if s.reg.a >= colors || s.reg.b >= colors {
                return Projection::Breach(format!(
                    "candidate exceeds the {colors}-color lattice: {:?}",
                    s.reg
                ));
            }
            if saturate_counter(&mut s.reg.c) {
                Projection::Widened
            } else {
                Projection::Inside
            }
        })
        .canon(|s: &mut State2P| s.last_view = None)
        .variants(|s: &State2P, view| {
            vec![
                State2P {
                    reg: s.reg,
                    last_view: None,
                },
                State2P {
                    reg: s.reg,
                    last_view: Some(view.iter().copied().collect()),
                },
            ]
        })
        .project(|s: &State2P| State2P {
            reg: Reg2P {
                x: X_ME,
                c: s.reg.c.min(COUNTER_CAP),
                ..s.reg
            },
            last_view: None,
        })
}

/// Domain for Algorithm 3 (`O(log* n)` 5-coloring). Identifiers stay
/// *concrete* over `0..=max_id` — `reduce(x, ·)` is bitwise, so the
/// order-only relabeling is unsound here — which is itself sound because
/// evolving identifiers never grow (the between branch adopts `y` only
/// when `y < xmin`; the extremum branch takes a `min`). By Remark 3.10
/// the inputs may be any proper coloring of the cycle, so `max_id = 2`
/// (ids from a proper 3-coloring) exercises every branch including the
/// Cole–Vishkin reduction. The green-light rank `r` — the paper's
/// log*-round counter — is the unbounded field: it saturates at
/// [`COUNTER_CAP`] with `{F0, F1, F2}` view images (it enters `step`
/// only via `r ≤ min(r̂_q, r̂_q')`).
pub fn fast_five_domain(colors: u64, max_id: u64) -> ViewDomain<crate::FastFiveColoring> {
    let mut d = ViewDomain::new(2)
        .symmetric_views()
        .note(
            "concrete ids 0..=max_id (bitwise reduce; ids never grow); \
             green-light rank saturated at F1 with {F0,F1,F2} view images",
        )
        .neighbor_images(|r: &Reg3| {
            rank_images(r.r)
                .into_iter()
                .map(|rk| Reg3 { r: rk, ..*r })
                .collect()
        })
        .widen(move |s: &mut Reg3| {
            if s.x > max_id {
                return Projection::Breach(format!("identifier escaped 0..={max_id}: {s:?}"));
            }
            if s.a >= colors || s.b >= colors {
                return Projection::Breach(format!(
                    "candidate exceeds the {colors}-color lattice: {s:?}"
                ));
            }
            if saturate_rank(&mut s.r) {
                Projection::Widened
            } else {
                Projection::Inside
            }
        })
        .project(|s: &Reg3| {
            let mut t = *s;
            saturate_rank(&mut t.r);
            t
        });
    for x in 0..=max_id {
        d = d.init_state(Reg3 {
            x,
            r: Rank::Finite(0),
            a: 0,
            b: 0,
        });
    }
    d
}

/// Domain for the patched Algorithm 3 — the union of the
/// [`fast_five_domain`] abstractions (concrete small identifiers,
/// saturated rank) and the [`five_coloring_patched_domain`] ones
/// (saturated update counter, quotiented `last_view`).
pub fn fast_five_patched_domain(
    colors: u64,
    max_id: u64,
) -> ViewDomain<crate::FastFiveColoringPatched> {
    let mut d = ViewDomain::new(2)
        .symmetric_views()
        .note(
            "concrete ids 0..=max_id; green-light rank and update counter \
             saturated at 1 with enriched view images; last_view quotiented \
             and re-expanded per view",
        )
        .neighbor_images(|r: &Reg3P| {
            let mut out = Vec::new();
            for rk in rank_images(r.r) {
                for c in counter_images(r.c) {
                    out.push(Reg3P { r: rk, c, ..*r });
                }
            }
            out
        })
        .widen(move |s: &mut State3P| {
            if s.reg.x > max_id {
                return Projection::Breach(format!("identifier escaped 0..={max_id}: {:?}", s.reg));
            }
            if s.reg.a >= colors || s.reg.b >= colors {
                return Projection::Breach(format!(
                    "candidate exceeds the {colors}-color lattice: {:?}",
                    s.reg
                ));
            }
            let widened = saturate_rank(&mut s.reg.r) | saturate_counter(&mut s.reg.c);
            if widened {
                Projection::Widened
            } else {
                Projection::Inside
            }
        })
        .canon(|s: &mut State3P| s.last_view = None)
        .variants(|s: &State3P, view| {
            vec![
                State3P {
                    reg: s.reg,
                    last_view: None,
                },
                State3P {
                    reg: s.reg,
                    last_view: Some(view.try_into().expect("the domain has degree 2")),
                },
            ]
        })
        .project(|s: &State3P| {
            let mut reg = s.reg;
            saturate_rank(&mut reg.r);
            saturate_counter(&mut reg.c);
            State3P {
                reg,
                last_view: None,
            }
        });
    for x in 0..=max_id {
        d = d.init_state(State3P {
            reg: Reg3P {
                x,
                r: Rank::Finite(0),
                a: 0,
                b: 0,
                c: 0,
            },
            last_view: None,
        });
    }
    d
}

/// Domain for rank-based renaming on the clique `K_n` (registry: `K_3`,
/// the Property 2.3 instance). Degree `n − 1`; identifiers relabel to
/// `{0, 2}` on the view side (order-compared only; repetition covers
/// "both neighbors higher"); proposals are bounded by the `2n − 1` name
/// space, so widening is pure bounds-checking.
pub fn renaming_domain(n: u64) -> ViewDomain<crate::renaming::RankRenaming> {
    let names = 2 * n - 1;
    ViewDomain::new(n as usize - 1)
        .init_state(RenameReg {
            x: X_ME,
            proposal: 0,
        })
        .symmetric_views()
        .note(
            "identifiers relabeled to {lower, me, higher}; proposals bounded \
             by the 2n-1 name space (no widening)",
        )
        .neighbor_images(|r: &RenameReg| {
            [X_LO, X_HI]
                .iter()
                .map(|&x| RenameReg { x, ..*r })
                .collect()
        })
        .widen(move |s: &mut RenameReg| {
            if s.x != X_ME {
                Projection::Breach(format!("own identifier changed: {s:?}"))
            } else if s.proposal >= names {
                Projection::Breach(format!("proposal escaped the {names}-name space: {s:?}"))
            } else {
                Projection::Inside
            }
        })
        .project(|s: &RenameReg| RenameReg { x: X_ME, ..*s })
}

/// Shared domain for the MIS candidates (all three use the same
/// register: identifier plus tentative verdict). Identifiers relabel to
/// `{0, 1, 2}`; the tentative verdict is a three-point lattice, so
/// nothing widens.
pub fn mis_domain<A>() -> ViewDomain<A>
where
    A: Algorithm<State = MisReg, Reg = MisReg>,
{
    ViewDomain::new(2)
        .init_state(MisReg {
            x: X_ME,
            tentative: None,
        })
        .symmetric_views()
        .note("identifiers relabeled to {lower, me, higher}; verdicts form a 3-point lattice")
        .neighbor_images(|r: &MisReg| [X_LO, X_HI].iter().map(|&x| MisReg { x, ..*r }).collect())
        .widen(|s: &mut MisReg| {
            if s.x != X_ME {
                Projection::Breach(format!("own identifier changed: {s:?}"))
            } else {
                Projection::Inside
            }
        })
        .project(|s: &MisReg| MisReg { x: X_ME, ..*s })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FiveColoringPatched, SixColoring};

    #[test]
    fn pair_domain_relabels_and_bounds() {
        let d: ViewDomain<SixColoring> = pair_domain();
        let r = Reg1 {
            x: 7,
            color: PairColor::new(1, 0),
        };
        let imgs = d.images(&r);
        assert_eq!(imgs.len(), 2);
        assert!(imgs.iter().all(|i| i.x == X_LO || i.x == X_HI));
        assert!(imgs.iter().all(|i| i.color == r.color));

        let mut bad = Reg1 {
            x: X_ME,
            color: PairColor::new(3, 0),
        };
        assert!(matches!(d.widen_state(&mut bad), Projection::Breach(_)));
        assert_eq!(d.project_state(&r).x, X_ME);
    }

    #[test]
    fn counter_images_cover_all_order_patterns() {
        // Own counters live in {0, 1}; every concrete comparison outcome
        // against an arbitrary neighbor counter must be realizable.
        assert_eq!(counter_images(0), vec![0]);
        let sat = counter_images(1);
        assert!(sat.contains(&0), "me > r ≥ 1 needs a view value below cap");
        assert!(sat.contains(&1), "me == r needs a tie at the cap");
        assert!(sat.contains(&2), "me < r needs a view value above cap");
    }

    #[test]
    fn patched_domain_saturates_and_quotients() {
        let d = five_coloring_patched_domain(5);
        let mut s = State2P {
            reg: Reg2P {
                x: X_ME,
                a: 2,
                b: 3,
                c: 9,
            },
            last_view: Some([None, None].into_iter().collect()),
        };
        assert_eq!(d.widen_state(&mut s), Projection::Widened);
        assert_eq!(s.reg.c, COUNTER_CAP);
        d.canonize(&mut s);
        assert_eq!(s.last_view, None);

        let view = vec![
            None,
            Some(Reg2P {
                x: X_LO,
                a: 0,
                b: 0,
                c: 0,
            }),
        ];
        let vars = d.variants_for(&s, &view);
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].last_view, None);
        assert_eq!(vars[1].last_view.as_deref(), Some(&view[..]));
    }

    #[test]
    fn fast_five_domain_keeps_ids_concrete() {
        let d = fast_five_domain(5, 2);
        assert_eq!(d.init_states().len(), 3);
        let r = Reg3 {
            x: 2,
            r: Rank::Finite(1),
            a: 0,
            b: 0,
        };
        let imgs = d.images(&r);
        assert!(imgs.iter().all(|i| i.x == 2), "ids are not relabeled");
        assert_eq!(imgs.len(), 3, "saturated rank spans F0..F2");
        let omega = Reg3 {
            r: Rank::Omega,
            ..r
        };
        assert_eq!(d.images(&omega), vec![omega]);

        let mut esc = Reg3 { x: 9, ..r };
        assert!(matches!(d.widen_state(&mut esc), Projection::Breach(_)));
    }

    #[test]
    fn projections_are_idempotent() {
        let d = five_coloring_patched_domain(5);
        let s = State2P {
            reg: Reg2P {
                x: 44,
                a: 1,
                b: 2,
                c: 17,
            },
            last_view: Some([None, None].into_iter().collect()),
        };
        let p = d.project_state(&s);
        assert_eq!(d.project_state(&p), p);
        assert_eq!(p.reg.x, X_ME);
        assert_eq!(p.reg.c, COUNTER_CAP);
        assert_eq!(p.last_view, None);

        let _: ViewDomain<FiveColoringPatched> = five_coloring_patched_domain(5);
    }
}
