//! Randomized adversarial schedule search ("schedule fuzzing").
//!
//! Exhaustive model checking ([`crate::modelcheck`]) settles instances
//! up to ~4 processes. Beyond that, this module searches the schedule
//! space stochastically: a schedule is represented by its *genome* (a
//! finite list of activation sets), evaluated by running the execution,
//! and evolved by mutation and crossover toward an objective —
//! maximizing some process's activation count (hunting worst cases and,
//! in the limit, livelocks) or triggering a safety violation.
//!
//! The search found-or-confirmed the shapes reported in EXPERIMENTS.md:
//! on instances where exhaustion already proves a livelock (unpatched
//! Algorithm 2 on C3), the fuzzer rediscovers starvation within a few
//! hundred generations; on Algorithm 1 it plateaus at the Theorem 3.1
//! bound, as it must.

use ftcolor_model::schedule::ActivationSet;
use ftcolor_model::sweep;
use ftcolor_model::{Algorithm, Execution, ProcessId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the fuzzer tries to maximize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// `1000 × (max activations of a non-returned process) + max
    /// activations overall` — the dominant term rewards starvation, the
    /// minor term provides a gradient when everything returns.
    StragglerActivations,
    /// The maximum activation count over all processes (returned or
    /// not) — probes worst-case round complexity.
    MaxActivations,
}

/// Configuration of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Genome length (schedule horizon in steps).
    pub horizon: usize,
    /// Number of generations.
    pub generations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Objective to maximize.
    pub objective: Objective,
    /// Worker threads for genome evaluation; `1` evaluates inline, `0`
    /// means one worker per available CPU. Evaluation is pure per
    /// genome and results are merged in genome order, so the report is
    /// identical for every value.
    pub jobs: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            horizon: 120,
            generations: 150,
            seed: 0,
            objective: Objective::StragglerActivations,
            jobs: 1,
        }
    }
}

/// Population size.
const POPULATION: usize = 24;

/// Mutation probability per gene.
const MUTATION: f64 = 0.08;

/// How many times the genome's final [`TAIL`] genes are replayed after
/// the genome runs once — a livelock genome only needs to *end* in one
/// period of the starving pattern.
const LOOPS: usize = 40;

/// Length of the replayed tail.
const TAIL: usize = 6;

/// Outcome of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Best objective value found.
    pub best_score: u64,
    /// The best schedule's genome.
    pub best_schedule: Vec<ActivationSet>,
    /// Safety-violation description, if the predicate ever fired.
    pub safety_violation: Option<String>,
    /// The genome whose replay produced [`FuzzReport::safety_violation`]
    /// — a replayable witness suitable for the counterexample shrinker.
    pub violating_schedule: Option<Vec<ActivationSet>>,
    /// Total executions evaluated.
    pub evaluated: u64,
}

/// Evolutionary search over schedules for `alg` on `topo` with `inputs`.
pub struct ScheduleFuzzer<'a, A: Algorithm> {
    alg: &'a A,
    topo: &'a Topology,
    inputs: Vec<A::Input>,
    config: FuzzConfig,
}

impl<'a, A: Algorithm> ScheduleFuzzer<'a, A>
where
    A::Input: Clone,
{
    /// Creates a fuzzer with the given configuration.
    pub fn new(alg: &'a A, topo: &'a Topology, inputs: Vec<A::Input>, config: FuzzConfig) -> Self {
        ScheduleFuzzer {
            alg,
            topo,
            inputs,
            config,
        }
    }

    fn random_gene(&self, rng: &mut StdRng) -> ActivationSet {
        let n = self.topo.len();
        // Bias toward small sets (they drive asymmetry) with occasional
        // synchronous steps.
        match rng.gen_range(0..10) {
            0 => ActivationSet::All,
            1..=5 => ActivationSet::solo(ProcessId(rng.gen_range(0..n))),
            _ => {
                let k = rng.gen_range(1..n.max(2));
                ActivationSet::of((0..k).map(|_| ProcessId(rng.gen_range(0..n))))
            }
        }
    }

    fn random_genome(&self, rng: &mut StdRng) -> Vec<ActivationSet> {
        (0..self.config.horizon)
            .map(|_| self.random_gene(rng))
            .collect()
    }

    /// Seed corpus: structured motifs that random genomes essentially
    /// never hit but that generically stress round-based algorithms —
    /// "one process runs solo, then everyone in lockstep", pure
    /// lockstep, and staggered pairs. The corpus encodes no knowledge of
    /// any specific algorithm; it is the starvation-shaped part of the
    /// search space.
    fn seed_corpus(&self) -> Vec<Vec<ActivationSet>> {
        let n = self.topo.len();
        let h = self.config.horizon;
        let mut corpus = Vec::new();
        corpus.push(vec![ActivationSet::All; h]);
        for i in 0..n {
            let mut g = vec![ActivationSet::solo(ProcessId(i))];
            g.resize(h, ActivationSet::All);
            corpus.push(g);
        }
        for i in 0..n {
            let pair = ActivationSet::of([ProcessId(i), ProcessId((i + 1) % n)]);
            let mut g = vec![ActivationSet::solo(ProcessId((i + 2) % n))];
            g.resize(h, pair);
            corpus.push(g);
        }
        corpus
    }

    /// Runs a genome and scores it; also evaluates the safety predicate
    /// on the final partial outputs. `scratch` is reset in place from
    /// `template` (clone-free evaluation: one allocation-free rewind per
    /// genome instead of a fresh `Execution` each time).
    fn evaluate<'e>(
        &self,
        scratch: &mut Execution<'e, A>,
        template: &Execution<'e, A>,
        genome: &[ActivationSet],
        safety: &impl Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
    ) -> (u64, Option<String>) {
        scratch.reset_from(template);
        let exec = scratch;
        for set in genome {
            if exec.all_returned() {
                break;
            }
            exec.step_with(set);
        }
        let tail_start = genome.len().saturating_sub(TAIL);
        'outer: for _ in 0..LOOPS {
            for set in &genome[tail_start..] {
                if exec.all_returned() {
                    break 'outer;
                }
                exec.step_with(set);
            }
        }
        let violation = safety(self.topo, exec.outputs());
        let overall = self
            .topo
            .nodes()
            .map(|p| exec.activation_count(p))
            .max()
            .unwrap_or(0);
        let score = match self.config.objective {
            Objective::StragglerActivations => {
                let straggler = self
                    .topo
                    .nodes()
                    .filter(|p| exec.outputs()[p.index()].is_none())
                    .map(|p| exec.activation_count(p))
                    .max()
                    .unwrap_or(0);
                1000 * straggler + overall
            }
            Objective::MaxActivations => overall,
        };
        (score, violation)
    }

    /// Evaluates every genome with the configured number of worker
    /// threads, returning results *in genome order*. Each evaluation is
    /// a pure function of its genome, so claiming indices from a shared
    /// cursor and reassembling by index yields exactly the sequential
    /// result list — the only thing the thread schedule can affect is
    /// wall-clock time.
    fn evaluate_all(
        &self,
        genomes: &[Vec<ActivationSet>],
        safety: &(impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync),
    ) -> Vec<(u64, Option<String>)>
    where
        A: Sync,
        A::Input: Sync,
        A::State: Send + Sync,
        A::Reg: Send + Sync,
        A::Output: Send + Sync,
    {
        let jobs = sweep::resolve_jobs(self.config.jobs).min(genomes.len());
        let template = Execution::new(self.alg, self.topo, self.inputs.clone());
        let mut workers: Vec<_> = (0..jobs).map(|_| (template.clone(), Vec::new())).collect();
        sweep::for_each_chunk(genomes.len(), 1, &mut workers, |(scratch, local), range| {
            for i in range {
                local.push((i, self.evaluate(scratch, &template, &genomes[i], safety)));
            }
        });
        let mut results: Vec<_> = workers.into_iter().flat_map(|(_, local)| local).collect();
        results.sort_unstable_by_key(|&(i, _)| i);
        assert_eq!(results.len(), genomes.len(), "every genome evaluated once");
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs the evolutionary search.
    pub fn run(
        &self,
        safety: impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync,
    ) -> FuzzReport
    where
        A: Sync,
        A::Input: Sync,
        A::State: Send + Sync,
        A::Reg: Send + Sync,
        A::Output: Send + Sync,
    {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut population: Vec<Vec<ActivationSet>> = self.seed_corpus();
        population.truncate(POPULATION - 2);
        while population.len() < POPULATION {
            population.push(self.random_genome(&mut rng));
        }
        let mut best: (u64, Vec<ActivationSet>) = (0, population[0].clone());
        let mut first_violation = None;
        let mut evaluated = 0u64;

        for _gen in 0..self.config.generations {
            let genomes: Vec<Vec<ActivationSet>> = std::mem::take(&mut population);
            let results = self.evaluate_all(&genomes, &safety);
            evaluated += genomes.len() as u64;
            let mut scored: Vec<(u64, Vec<ActivationSet>)> = Vec::with_capacity(genomes.len());
            for (g, (s, v)) in genomes.into_iter().zip(results) {
                if first_violation.is_none() {
                    if let Some(v) = v {
                        first_violation = Some((v, g.clone()));
                    }
                }
                scored.push((s, g));
            }
            // Stable sort on a list built in genome order: ties resolve
            // exactly as in a sequential evaluation pass.
            scored.sort_by_key(|(s, _)| std::cmp::Reverse(*s));
            if scored[0].0 > best.0 {
                best = scored[0].clone();
            }
            // Elitism: keep the top quarter; refill with mutated
            // crossovers of two elite parents.
            let elite = (POPULATION / 4).max(2);
            let parents: Vec<Vec<ActivationSet>> = scored[..elite.min(scored.len())]
                .iter()
                .map(|(_, g)| g.clone())
                .collect();
            population.extend(parents.iter().cloned());
            while population.len() < POPULATION {
                let a = &parents[rng.gen_range(0..parents.len())];
                let b = &parents[rng.gen_range(0..parents.len())];
                let cut = rng.gen_range(0..self.config.horizon);
                let mut child: Vec<ActivationSet> =
                    a[..cut].iter().chain(b[cut..].iter()).cloned().collect();
                for gene in &mut child {
                    if rng.gen_bool(MUTATION) {
                        *gene = self.random_gene(&mut rng);
                    }
                }
                population.push(child);
            }
        }
        let (safety_violation, violating_schedule) = match first_violation {
            Some((v, g)) => (Some(v), Some(g)),
            None => (None, None),
        };
        FuzzReport {
            best_score: best.0,
            best_schedule: best.1,
            safety_violation,
            violating_schedule,
            evaluated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::{FiveColoring, FiveColoringPatched, SixColoring};
    use ftcolor_model::inputs;

    fn no_safety(_: &Topology, _: &[Option<u64>]) -> Option<String> {
        None
    }

    #[test]
    fn rediscovers_starvation_in_unpatched_alg2() {
        // On C3, the fuzzer should find schedules that keep some process
        // working far longer than the Theorem 3.11 bound (3n+8 = 17) —
        // the starvation the model checker proves exists (the witness
        // family is "p0 solo, then lockstep forever").
        let topo = Topology::cycle(3).unwrap();
        let fz = ScheduleFuzzer::new(
            &FiveColoring,
            &topo,
            vec![0, 1, 2],
            FuzzConfig {
                horizon: 200,
                generations: 120,
                seed: 5,
                ..FuzzConfig::default()
            },
        );
        let report = fz.run(no_safety);
        assert!(
            report.best_score > 40 * 1000,
            "expected starvation ≫ 3n+8, got {}",
            report.best_score
        );
    }

    #[test]
    fn algorithm_1_plateaus_at_its_bound() {
        // Theorem 3.1: no schedule can push any process past ⌊3n/2⌋+4.
        let n = 6;
        let topo = Topology::cycle(n).unwrap();
        let ids = inputs::staircase(n);
        let fz = ScheduleFuzzer::new(
            &SixColoring,
            &topo,
            ids,
            FuzzConfig {
                objective: Objective::MaxActivations,
                horizon: 150,
                generations: 100,
                seed: 9,
                ..FuzzConfig::default()
            },
        );
        let report = fz.run(|_, _| None);
        assert!(
            report.best_score <= (3 * n as u64) / 2 + 4,
            "fuzzer exceeded the proven bound: {}",
            report.best_score
        );
        assert!(report.evaluated > 1000);
    }

    #[test]
    fn patched_alg2_resists_the_fuzzer() {
        // The candidate repair: the fuzzer should NOT find deep
        // starvation (scores stay near the linear bound), in contrast to
        // the unpatched run above on the same instance and budget.
        let topo = Topology::cycle(3).unwrap();
        let fz = ScheduleFuzzer::new(
            &FiveColoringPatched,
            &topo,
            vec![0, 1, 2],
            FuzzConfig {
                horizon: 200,
                generations: 120,
                seed: 5,
                ..FuzzConfig::default()
            },
        );
        let report = fz.run(no_safety);
        assert!(
            report.best_score <= 40 * 1000,
            "patched algorithm starved: {}",
            report.best_score
        );
    }

    #[test]
    fn safety_predicate_is_checked_along_the_way() {
        use ftcolor_core::mis::{mis_violation, EagerMis};
        let topo = Topology::cycle(4).unwrap();
        let fz = ScheduleFuzzer::new(
            &EagerMis,
            &topo,
            vec![5, 9, 2, 1],
            FuzzConfig {
                horizon: 40,
                generations: 60,
                seed: 2,
                ..FuzzConfig::default()
            },
        );
        let report = fz.run(mis_violation);
        assert!(
            report.safety_violation.is_some(),
            "fuzzer should stumble on the EagerMis In/In violation"
        );
        // The reported genome is a replayable witness of that violation.
        let genome = report.violating_schedule.expect("violating genome");
        let mut exec = Execution::new(&EagerMis, &topo, vec![5, 9, 2, 1]);
        for set in &genome {
            exec.step_with(set);
        }
        assert!(mis_violation(&topo, exec.outputs()).is_some());
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let topo = Topology::cycle(3).unwrap();
        let base = FuzzConfig {
            horizon: 60,
            generations: 30,
            seed: 7,
            ..FuzzConfig::default()
        };
        let seq =
            ScheduleFuzzer::new(&FiveColoring, &topo, vec![0, 1, 2], base.clone()).run(no_safety);
        for jobs in [2, 8] {
            let par = ScheduleFuzzer::new(
                &FiveColoring,
                &topo,
                vec![0, 1, 2],
                FuzzConfig {
                    jobs,
                    ..base.clone()
                },
            )
            .run(no_safety);
            assert_eq!(seq.best_score, par.best_score, "jobs={jobs}");
            assert_eq!(seq.best_schedule, par.best_schedule, "jobs={jobs}");
            assert_eq!(seq.evaluated, par.evaluated, "jobs={jobs}");
            assert_eq!(seq.safety_violation, par.safety_violation, "jobs={jobs}");
            assert_eq!(
                seq.violating_schedule, par.violating_schedule,
                "jobs={jobs}"
            );
        }
    }
}
