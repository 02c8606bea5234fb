//! The shipped-algorithm catalogue: one entry per `--alg` name that
//! `ftcolor analyze`, `certify` and `netsim` accept.
//!
//! An entry states each fact about its algorithm once: how the instance
//! for `(n, seed)` is built (graph family, inputs, algorithm value), the
//! palette on a topology, the flat color and validity oracle of an
//! output, the rules it knowingly fails and for which analyzer, and its
//! certified view domain or why it has none. The linter
//! ([`crate::registry`]), the certifier ([`crate::certify::registry`])
//! and the network matrix ([`crate::netmat`]) only look an entry up and
//! run it. The five ring colorings come from [`with_ring_coloring!`],
//! whose [`RingColoring`] facts already give their palette, color,
//! inputs and view domain.
//!
//! The waiver policy: a rule an entry knowingly fails still *runs*, and
//! its findings are reported marked waived — never silently skipped.
//! The MIS candidates waive static termination (their solo starvation
//! **is** Property 2.1, the paper's impossibility exhibit);
//! `mis-impatient` also waives stability everywhere (the E7
//! unpublished-verdict flaw, shipped on purpose); `cv` and
//! `decoupled-ring` carry an explicit *uncertified* finding instead of a
//! domain.

use std::hash::Hash;

use ftcolor_core::decoupled_ring::DecoupledThreeColoring;
use ftcolor_core::mis::{EagerMis, ImpatientMis, LocalMaxMis, MisOutput, MisReg};
use ftcolor_core::renaming::RankRenaming;
use ftcolor_core::sync_local::{ColeVishkinThree, CvInput};
use ftcolor_core::{
    domains, with_ring_coloring, DeltaSquaredColoring, PairColor, RingColoring, RING_COLORINGS,
};
use ftcolor_model::domain::ViewDomain;
use ftcolor_model::{inputs, Algorithm, GraphError, Topology};
use ftcolor_net::{run_decoupled_net, run_net, FaultPlan, NetConfig};
use serde::{Deserialize, Serialize};

use crate::certify::certify_algorithm;
use crate::certify::registry::{uncertified, CertReport};
use crate::contract::ContractSpec;
use crate::diag::RuleId;
use crate::linter::lint_algorithm;
use crate::netmat::{summarize, NetRun, Oracle};
use crate::registry::{lint_decoupled, AlgReport};

/// Every `--alg` name in the catalogue, in analysis order: the ring
/// colorings, then the other seven entries.
pub const SHIPPED: [&str; RINGS + TABLE.len()] = {
    let mut names = [""; RINGS + TABLE.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = if i < RINGS {
            RING_COLORINGS[i]
        } else {
            TABLE[i - RINGS].0
        };
        i += 1;
    }
    names
};

const RINGS: usize = RING_COLORINGS.len();

/// The entries that are not ring colorings.
const TABLE: [(&str, &dyn Shipped); 7] = [
    (
        "alg4",
        // Cycles (Δ = 2) plus a torus grid (Δ = 4): the palette claim is
        // per-instance, (Δ+1)(Δ+2)/2.
        &Entry {
            topology: Topology::cycle,
            build: |n, seed| (DeltaSquaredColoring, ids(n, seed)),
            palette: |topo| PairColor::palette_size(topo.max_degree() as u64),
            color: PairColor::flat_index,
            oracle: Oracle::ProperColoring,
            solo_bound: 4,
            lint_seed: 7,
            lint_torus: true,
            waivers: &[],
            domain: Ok(domains::pair_domain),
        },
    ),
    (
        "cv",
        &Entry {
            topology: Topology::cycle,
            build: |n, seed| {
                let xs = ids(n, seed);
                let alg = ColeVishkinThree::for_max_id(*xs.iter().max().expect("n >= 3"));
                let inputs = xs.iter().enumerate();
                (alg, inputs.map(|(pos, &x)| CvInput { x, pos, n }).collect())
            },
            palette: |_| 3,
            color: |&c| c,
            oracle: Oracle::ProperColoring,
            solo_bound: 16,
            lint_seed: 7,
            lint_torus: false,
            waivers: &[Exemption {
                rule: RuleId::Wf,
                scope: Scope::Dynamic,
                reason: "the Cole–Vishkin baseline is a synchronous LOCAL algorithm run \
                         under an α-synchronizer: it waits for neighbors by design, so \
                         solo executions never terminate (this is the paper's point of \
                         comparison, not a bug)",
            }],
            domain: Err(
                "the Cole–Vishkin baseline is a synchronous LOCAL algorithm run under \
                 an α-synchronizer: its state carries global round structure \
                 (position, round counter, previous colors over n positions), which \
                 admits no finite per-process view abstraction; the dynamic analyzer \
                 covers it",
            ),
        },
    ),
    (
        "renaming",
        // Distinct names on a clique are exactly a proper coloring. The
        // certified instance is K_3, the Property 2.3 instance.
        &Entry {
            topology: Topology::clique,
            build: |n, seed| (RankRenaming, inputs::random_unique(n, 100_000, seed)),
            palette: |topo| 2 * topo.len() as u64 - 1,
            color: |&c| c,
            oracle: Oracle::ProperColoring,
            solo_bound: 4,
            lint_seed: 3,
            lint_torus: false,
            waivers: &[],
            domain: Ok(|| domains::renaming_domain(3)),
        },
    ),
    (
        "mis-localmax",
        &mis(
            |n, seed| (LocalMaxMis, ids(n, seed)),
            Oracle::Mis,
            &[MIS_TERM],
        ),
    ),
    (
        "mis-eager",
        &mis(|n, seed| (EagerMis, ids(n, seed)), Oracle::Mis, &[MIS_TERM]),
    ),
    (
        "mis-impatient",
        // The E7 flaw *is* the exhibit: a verdict reached in the round it
        // is computed is never published, so lower-identifier neighbors
        // wait forever. No validity or termination claim on the network.
        &mis(
            |n, seed| (ImpatientMis, ids(n, seed)),
            Oracle::TerminationOnly,
            &[
                MIS_TERM,
                Exemption {
                    rule: RuleId::Stab,
                    scope: Scope::Both,
                    reason: "documented E7 flaw: ImpatientMis commits a verdict computed in \
                             the same round, so the deciding register value is never \
                             published — exactly the unpublished-verdict failure the repo \
                             exhibits on purpose",
                },
            ],
        ),
    ),
    (
        "decoupled-ring",
        &Decoupled {
            palette: 3,
            waivers: &[
                Exemption {
                    rule: RuleId::Swmr,
                    scope: Scope::Dynamic,
                    reason: "DECOUPLED model: processes own no registers; decide() is read-only",
                },
                Exemption {
                    rule: RuleId::Snap,
                    scope: Scope::Dynamic,
                    reason: "DECOUPLED model: the knowledge ball is the whole view by definition",
                },
                Exemption {
                    rule: RuleId::Stab,
                    scope: Scope::Dynamic,
                    reason: "DECOUPLED model: a process is activated at most once after deciding",
                },
            ],
            uncertified: "the DECOUPLED ring coloring doesn't implement the register-model \
                          Algorithm trait (its decide() reads a knowledge ball, not \
                          registers), so there is no step function to drive over a view \
                          domain; the dynamic analyzer covers the translatable rules",
        },
    ),
];

/// Why the MIS candidates waive the static termination rule.
const MIS_TERM: Exemption = Exemption {
    rule: RuleId::Term,
    scope: Scope::Static,
    reason: "solo starvation is Property 2.1: a process whose neighbor freezes holding \
             the larger identifier and no verdict can never decide — MIS is not \
             wait-free solvable in this model, which is exactly what these candidates \
             exhibit",
};

/// Hands the entry named `name`, and its `&'static` name, to `f`;
/// `None` for a name outside [`SHIPPED`].
pub(crate) fn lookup<R>(name: &str, f: impl FnOnce(&'static str, &dyn Shipped) -> R) -> Option<R> {
    with_ring_coloring!(name, alg => Some(f(alg.name(), &ring(alg))),
        else TABLE.iter().find(|e| e.0 == name).map(|&(name, e)| f(name, e)))
}

/// Fresh distinct identifiers below 10 000 for an `n`-node instance.
pub(crate) fn ids(n: usize, seed: u64) -> Vec<u64> {
    inputs::random_unique(n, 10_000, seed)
}

/// Which analyzer an [`Exemption`] applies to: the linter (dynamic),
/// the certifier (static) or both.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    Dynamic,
    Static,
    Both,
}

/// A rule an entry knowingly fails, and why.
pub(crate) struct Exemption {
    rule: RuleId,
    scope: Scope,
    reason: &'static str,
}

/// Declares on `spec` each waiver in `all` that covers scope `on`.
pub(crate) fn waive<O>(spec: ContractSpec<O>, all: &[Exemption], on: Scope) -> ContractSpec<O> {
    let covered = all.iter().filter(|w| [on, Scope::Both].contains(&w.scope));
    covered.fold(spec, |spec, w| spec.waive(w.rule, w.reason))
}

/// What the linter, the certifier and the network matrix do with an
/// entry, named `name`.
pub(crate) trait Shipped {
    /// Lints the instances on `sizes`; `None` if a size has none.
    fn lint(&self, name: &'static str, sizes: &[usize]) -> Option<AlgReport>;
    /// Certifies the view domain, or reports the entry uncertified.
    fn certify(&self, name: &'static str) -> CertReport;
    /// Runs the `(n, seed)` instance on the simulated network.
    fn net(&self, name: &str, n: usize, seed: u64, plan: &FaultPlan, cfg: &NetConfig) -> NetRun;
}

/// The algorithm and inputs of the `n`-node instance under a seed.
type Build<A> = fn(usize, u64) -> (A, Vec<<A as Algorithm>::Input>);

/// A register-model entry.
struct Entry<A: Algorithm> {
    /// The family member with `n` nodes.
    topology: fn(usize) -> Result<Topology, GraphError>,
    build: Build<A>,
    palette: fn(&Topology) -> u64,
    /// An output as a flat color.
    color: fn(&A::Output) -> u64,
    oracle: Oracle,
    /// The solo round bound the linter holds every process to.
    solo_bound: u64,
    /// The seed of the linted instances' inputs.
    lint_seed: u64,
    /// Whether the linter also runs the 3×3 torus.
    lint_torus: bool,
    waivers: &'static [Exemption],
    /// The view domain, or why there is none.
    domain: Result<fn() -> ViewDomain<A>, &'static str>,
}

/// An MIS candidate on the cycle, over the shared MIS domain, with its
/// verdict as a two-"color" palette {In = 0, Out = 1}.
const fn mis<A>(build: Build<A>, oracle: Oracle, waivers: &'static [Exemption]) -> Entry<A>
where
    A: Algorithm<Output = MisOutput, State = MisReg, Reg = MisReg>,
{
    Entry {
        topology: Topology::cycle,
        build,
        palette: |_| 2,
        color: |&o| u64::from(o == MisOutput::Out),
        oracle,
        solo_bound: 4,
        lint_seed: 7,
        lint_torus: false,
        waivers,
        domain: Ok(domains::mis_domain),
    }
}

/// A ring coloring's entry, from its [`RingColoring`] facts (`alg`
/// only fixes the type).
fn ring<A: RingColoring + Default>(_alg: &A) -> Entry<A> {
    Entry {
        topology: Topology::cycle,
        build: |n, seed| (A::default(), A::default().ring_inputs(n, seed)),
        palette: |_| A::default().palette(),
        color: |o| A::default().color(o),
        oracle: Oracle::ProperColoring,
        solo_bound: 4,
        lint_seed: 7,
        lint_torus: false,
        waivers: &[],
        domain: Ok(|| A::default().domain()),
    }
}

impl<A: Algorithm<Output: 'static>> Entry<A> {
    /// The contract on `topo`, with the waivers that cover `scope`.
    fn spec(&self, name: &str, topo: &Topology, scope: Scope) -> ContractSpec<A::Output> {
        let color = self.color;
        let spec = ContractSpec::new(name).palette((self.palette)(topo), color);
        waive(spec, self.waivers, scope)
    }
}

impl<A> Shipped for Entry<A>
where
    A: Algorithm<Input: Clone, Output: 'static, State: Eq + Hash>,
    A::Reg: Eq + Hash + Serialize + Deserialize,
{
    fn lint(&self, name: &'static str, sizes: &[usize]) -> Option<AlgReport> {
        let mut instances = Vec::new();
        for &n in sizes {
            instances.push((n, (self.topology)(n).ok()?));
        }
        if self.lint_torus {
            instances.push((9, Topology::grid(3, 3, true).ok()?));
        }
        let mut diagnostics = Vec::new();
        for (n, topo) in instances {
            let spec = self.spec(name, &topo, Scope::Dynamic);
            let spec = spec.solo_bound(self.solo_bound);
            let (alg, inputs) = (self.build)(n, self.lint_seed);
            diagnostics.extend(lint_algorithm(&alg, &spec, &topo, &inputs));
        }
        Some(AlgReport { name, diagnostics })
    }

    /// Certifies the family's 3-node instance (the cycle's degree 2, the
    /// clique K_3); higher degrees are covered dynamically.
    fn certify(&self, name: &'static str) -> CertReport {
        let domain = match self.domain {
            Ok(domain) => domain(),
            Err(reason) => return uncertified(name, reason),
        };
        let topo = (self.topology)(3).expect("3-node instances exist");
        let (alg, _) = (self.build)(3, 0);
        let cert = certify_algorithm(&alg, &self.spec(name, &topo, Scope::Static), &domain);
        CertReport {
            name,
            note: domain.note_text().to_string(),
            diagnostics: cert.diagnostics,
            stats: cert.stats,
        }
    }

    fn net(&self, name: &str, n: usize, seed: u64, plan: &FaultPlan, cfg: &NetConfig) -> NetRun {
        let topo = (self.topology)(n).ok()?;
        let (alg, inputs) = (self.build)(n, seed);
        let report = run_net(&alg, &topo, inputs, plan, cfg);
        let palette = (self.palette)(&topo);
        Some(summarize(
            name,
            seed,
            &topo,
            report,
            self.color,
            palette,
            self.oracle,
        ))
    }
}

/// The DECOUPLED-model ring 3-coloring: not an [`Algorithm`] (its
/// `decide` reads a knowledge ball, not registers), so it has its own
/// linter path and network runner, and no view domain to certify.
struct Decoupled {
    /// The palette size, on every ring.
    palette: u64,
    waivers: &'static [Exemption],
    uncertified: &'static str,
}

impl Shipped for Decoupled {
    fn lint(&self, name: &'static str, sizes: &[usize]) -> Option<AlgReport> {
        let mut diagnostics = Vec::new();
        for &n in sizes {
            diagnostics.extend(lint_decoupled(name, n, self.palette, self.waivers)?);
        }
        Some(AlgReport { name, diagnostics })
    }

    fn certify(&self, name: &'static str) -> CertReport {
        uncertified(name, self.uncertified)
    }

    fn net(&self, name: &str, n: usize, seed: u64, plan: &FaultPlan, cfg: &NetConfig) -> NetRun {
        let topo = Topology::cycle(n).ok()?;
        let alg = DecoupledThreeColoring::new();
        let report = run_decoupled_net(&alg, &topo, ids(n, seed), plan, cfg);
        Some(summarize(
            name,
            seed,
            &topo,
            report,
            |&c| c,
            self.palette,
            Oracle::ProperColoring,
        ))
    }
}
