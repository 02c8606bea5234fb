//! Differential harness: the model checker must agree with an
//! independent **reference BFS** on every instance, at every worker
//! count.
//!
//! The reference below is deliberately naive: a FIFO BFS that clones the
//! [`Execution`] for every successor and identifies configurations by
//! their plain `(states, registers, outputs)` vectors. It shares no code
//! with the checker's packed representation — no codec, no interning, no
//! successor memo, no symmetry — so agreement is evidence about the
//! checker's kernel rather than a restatement of it.
//!
//! The matrix covers the paper's algorithm spectrum — Algorithm 1
//! (wait-free, acyclic graph), Algorithm 2 (the crash livelock),
//! Algorithm 2 patched (infinite space: exercises truncation), and the
//! eager MIS candidate (a genuine safety violation) — over four
//! topologies (C3, C4, C5, and the path P4, whose endpoint processes
//! have degree 1) and worker counts 1, 2, and 8. For every cell we
//! assert that configuration and edge counts, termination accounting,
//! the first-seen output order, the truncation flag and the safety
//! violation (description and schedule) equal the reference's; that a
//! livelock is reported exactly when the reference graph has a cycle,
//! and its witness replays to a repeated configuration; that on acyclic
//! instances the exact worst case equals a per-process longest-path
//! search on the reference graph; and that the whole outcome is the same
//! at every worker count.

use ftcolor::checker::modelcheck::EXPAND_CHUNK;
use ftcolor::checker::{ModelCheckOutcome, ModelChecker};
use ftcolor::core::mis::{mis_violation, EagerMis};
use ftcolor::core::{FiveColoring, FiveColoringPatched, SixColoring};
use ftcolor::model::{ActivationSet, Algorithm, Execution, Topology};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

/// A configuration, identified by plain values: private states,
/// registers and outputs of every process.
type Config<A> = (
    Vec<<A as Algorithm>::State>,
    Vec<Option<<A as Algorithm>::Reg>>,
    Vec<Option<<A as Algorithm>::Output>>,
);

fn config_of<A: Algorithm>(exec: &Execution<'_, A>) -> Config<A> {
    (
        exec.topology()
            .nodes()
            .map(|p| exec.state(p).clone())
            .collect(),
        exec.registers().to_vec(),
        exec.outputs().to_vec(),
    )
}

/// What the reference BFS found, plus its graph: per node, the
/// `(target, activation set)` of every outgoing edge.
struct Reference<O> {
    configs: usize,
    edges: usize,
    fully_terminated_configs: usize,
    outputs_seen: Vec<O>,
    truncated: bool,
    safety_violation: Option<(String, Vec<ActivationSet>)>,
    graph: Vec<Vec<(usize, ActivationSet)>>,
    /// BFS level of every node (the root is level 0).
    depth: Vec<usize>,
    /// The first node that did not expand because the cap was reached.
    first_capped: Option<usize>,
}

/// Clone-per-successor BFS over [`Execution`], with the checker's
/// documented semantics: FIFO order, successors in ascending
/// activation-subset bitmask order over the ascending working list, the
/// first violation in BFS order wins, and a node expands only while
/// fewer than `cap` configurations are known.
fn reference_bfs<A>(
    alg: &A,
    topo: &Topology,
    inputs: Vec<A::Input>,
    cap: usize,
    safety: impl Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
) -> Reference<A::Output>
where
    A: Algorithm,
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
{
    let root = Execution::new(alg, topo, inputs);
    let mut ids: HashMap<Config<A>, usize> = HashMap::from([(config_of(&root), 0)]);
    let mut parents: Vec<Option<(usize, ActivationSet)>> = vec![None];
    let mut graph: Vec<Vec<(usize, ActivationSet)>> = vec![Vec::new()];
    let mut queue = VecDeque::from([(0usize, root)]);
    let mut seen = HashSet::new();
    let mut r = Reference {
        configs: 0,
        edges: 0,
        fully_terminated_configs: 0,
        outputs_seen: Vec::new(),
        truncated: false,
        safety_violation: None,
        graph: Vec::new(),
        depth: vec![0],
        first_capped: None,
    };
    let mut first_violation: Option<(usize, String)> = None;
    while let Some((id, exec)) = queue.pop_front() {
        for o in exec.outputs().iter().flatten() {
            if seen.insert(o.clone()) {
                r.outputs_seen.push(o.clone());
            }
        }
        if first_violation.is_none() {
            first_violation = safety(topo, exec.outputs()).map(|desc| (id, desc));
        }
        if exec.all_returned() {
            r.fully_terminated_configs += 1;
            continue;
        }
        if graph.len() >= cap {
            r.truncated = true;
            r.first_capped.get_or_insert(id);
            continue;
        }
        let working = exec.working().to_vec();
        for mask in 1u32..(1 << working.len()) {
            let set = ActivationSet::of(
                (0..working.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| working[i]),
            );
            let mut next = exec.clone();
            next.step_with(&set);
            let key = config_of(&next);
            let to = match ids.get(&key) {
                Some(&to) => to,
                None => {
                    let to = graph.len();
                    ids.insert(key, to);
                    graph.push(Vec::new());
                    parents.push(Some((id, set.clone())));
                    r.depth.push(r.depth[id] + 1);
                    queue.push_back((to, next));
                    to
                }
            };
            graph[id].push((to, set));
            r.edges += 1;
        }
    }
    r.safety_violation = first_violation.map(|(mut id, desc)| {
        let mut schedule = Vec::new();
        while let Some((parent, set)) = &parents[id] {
            schedule.push(set.clone());
            id = *parent;
        }
        schedule.reverse();
        (desc, schedule)
    });
    r.configs = graph.len();
    r.graph = graph;
    r
}

/// Whether `graph` has a cycle (iterative three-colour DFS).
fn has_cycle(graph: &[Vec<(usize, ActivationSet)>]) -> bool {
    // 0 = unvisited, 1 = on the DFS stack, 2 = finished.
    let mut colour = vec![0u8; graph.len()];
    for start in 0..graph.len() {
        if colour[start] != 0 {
            continue;
        }
        colour[start] = 1;
        let mut stack = vec![(start, 0usize)];
        while let Some(top) = stack.last_mut() {
            let (u, i) = *top;
            top.1 += 1;
            match graph[u].get(i) {
                Some(&(v, _)) => match colour[v] {
                    0 => {
                        colour[v] = 1;
                        stack.push((v, 0));
                    }
                    1 => return true,
                    _ => {}
                },
                None => {
                    colour[u] = 2;
                    stack.pop();
                }
            }
        }
    }
    false
}

/// The largest activation count any single process reaches along any
/// path from the root of an acyclic `graph`: for each process, a
/// memoized longest-path search counting its activations.
fn longest_path_worst_case(graph: &[Vec<(usize, ActivationSet)>], n: usize) -> u64 {
    fn longest(
        graph: &[Vec<(usize, ActivationSet)>],
        p: usize,
        u: usize,
        memo: &mut [Option<u64>],
    ) -> u64 {
        if let Some(best) = memo[u] {
            return best;
        }
        let mut best = 0;
        for (v, set) in &graph[u] {
            let here = match set {
                ActivationSet::Only(ps) => u64::from(ps.iter().any(|q| q.index() == p)),
                ActivationSet::All => 1,
            };
            best = best.max(here + longest(graph, p, *v, memo));
        }
        memo[u] = Some(best);
        best
    }
    (0..n)
        .map(|p| longest(graph, p, 0, &mut vec![None; graph.len()]))
        .max()
        .unwrap_or(0)
}

/// Replays a livelock witness: after the prefix, one pass of the cycle
/// must activate someone, return to the same configuration, and leave
/// somebody working.
fn assert_livelock_replays<A>(
    alg: &A,
    topo: &Topology,
    inputs: &[A::Input],
    outcome: &ModelCheckOutcome<A::Output>,
    label: &str,
) where
    A: Algorithm,
    A::Input: Clone,
    A::State: PartialEq,
{
    let lw = outcome.livelock.as_ref().expect("a livelock witness");
    let mut exec = Execution::new(alg, topo, inputs.to_vec());
    for set in &lw.prefix {
        exec.step_with(set);
    }
    let before = config_of(&exec);
    let mut activated = false;
    for set in &lw.cycle {
        activated |= !exec.step_with(set).is_empty();
    }
    assert!(activated, "{label}: the cycle activates nobody");
    assert!(
        config_of(&exec) == before,
        "{label}: the livelock cycle does not return to its configuration"
    );
    assert!(
        !exec.all_returned(),
        "{label}: everyone returned on the cycle"
    );
}

/// Asserts that the checker's outcome matches the reference's on every
/// field the reference defines (the livelock witness is replayed rather
/// than compared: the reference finds cycles, not lassos).
fn assert_matches_reference<A>(
    alg: &A,
    topo: &Topology,
    inputs: &[A::Input],
    got: &ModelCheckOutcome<A::Output>,
    want: &Reference<A::Output>,
    label: &str,
) where
    A: Algorithm,
    A::Input: Clone,
    A::State: PartialEq,
    A::Output: Debug,
{
    assert_eq!(got.configs, want.configs, "{label}: configs");
    assert_eq!(got.edges, want.edges, "{label}: edges");
    assert_eq!(
        got.fully_terminated_configs, want.fully_terminated_configs,
        "{label}: fully terminated configs"
    );
    assert_eq!(got.outputs_seen, want.outputs_seen, "{label}: outputs seen");
    assert_eq!(got.truncated, want.truncated, "{label}: truncated");
    assert_eq!(
        got.safety_violation
            .as_ref()
            .map(|v| (v.description.clone(), v.schedule.clone())),
        want.safety_violation,
        "{label}: safety violation"
    );
    assert_eq!(
        got.livelock.is_some(),
        has_cycle(&want.graph),
        "{label}: livelock exists"
    );
    if got.livelock.is_some() {
        assert_livelock_replays(alg, topo, inputs, got, label);
    }
}

/// Runs the reference once and the checker at every worker count,
/// asserting agreement with the reference, jobs-invariance of the whole
/// outcome, and the exact worst case.
fn assert_equivalent<A>(
    label: &str,
    alg: &A,
    topo: &Topology,
    ids: &[u64],
    cap: usize,
    safety: impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync + Copy,
) where
    A: Algorithm + Sync,
    A::Input: From<u64> + Clone + Sync,
    A::State: Eq + Hash + Send + Sync,
    A::Reg: Eq + Hash + Send + Sync,
    A::Output: Eq + Hash + Send + Sync + Debug,
{
    let tname = topo.name();
    let inputs: Vec<A::Input> = ids.iter().copied().map(Into::into).collect();
    let reference = reference_bfs(alg, topo, inputs.clone(), cap, safety);
    let want_worst = (!reference.truncated && !has_cycle(&reference.graph))
        .then(|| longest_path_worst_case(&reference.graph, topo.len()));
    let mut first: Option<ModelCheckOutcome<A::Output>> = None;
    for jobs in JOB_COUNTS {
        let cell = format!("{label} on {tname} at jobs={jobs}");
        let checker = ModelChecker::new(alg, topo, inputs.clone())
            .with_max_configs(cap)
            .with_jobs(jobs);
        let got = checker.explore(safety).unwrap();
        assert_matches_reference(alg, topo, &inputs, &got, &reference, &cell);
        assert_eq!(
            checker.exact_worst_case().unwrap(),
            want_worst,
            "{cell}: exact worst case"
        );
        match &first {
            None => first = Some(got),
            Some(one) => {
                assert_eq!(one, &got, "{cell}: outcome differs from jobs=1");
                assert_eq!(one.livelock, got.livelock, "{cell}: livelock witness");
            }
        }
    }
}

/// IDs for an `n`-process instance: distinct, deliberately non-monotone.
fn ids_for(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 7 + 3) % 17).collect()
}

/// Topologies of the matrix: three cycles and a path (degree-1 ends).
fn topologies() -> Vec<Topology> {
    vec![
        Topology::cycle(3).unwrap(),
        Topology::cycle(4).unwrap(),
        Topology::cycle(5).unwrap(),
        Topology::path(4).unwrap(),
    ]
}

fn coloring_safety(topo: &Topology, outs: &[Option<u64>]) -> Option<String> {
    if let Some((a, b)) = topo.first_conflict(outs) {
        return Some(format!("conflict on edge {a}-{b}"));
    }
    outs.iter()
        .flatten()
        .find(|&&c| c > 4)
        .map(|c| format!("color {c} outside the palette"))
}

fn pair_safety(topo: &Topology, outs: &[Option<ftcolor::core::PairColor>]) -> Option<String> {
    topo.first_conflict(outs)
        .map(|(a, b)| format!("conflict on edge {a}-{b}"))
}

#[test]
fn algorithm_1_matches_everywhere() {
    for topo in topologies() {
        let ids = ids_for(topo.len());
        assert_equivalent("Alg1", &SixColoring, &topo, &ids, 300_000, pair_safety);
    }
}

#[test]
fn algorithm_2_matches_everywhere() {
    // C5 is the big one (its full graph runs past the cap, exercising
    // identical truncation); the rest complete exhaustively.
    for topo in topologies() {
        let ids = ids_for(topo.len());
        assert_equivalent("Alg2", &FiveColoring, &topo, &ids, 60_000, coloring_safety);
    }
}

#[test]
fn algorithm_2_patched_matches_under_truncation() {
    // The patch's counter makes the state space infinite: every
    // instance truncates, so this is the pure truncation-equivalence
    // case — the cap must bite at exactly the same node.
    for topo in topologies() {
        let ids = ids_for(topo.len());
        assert_equivalent(
            "Alg2-patched",
            &FiveColoringPatched,
            &topo,
            &ids,
            20_000,
            coloring_safety,
        );
    }
}

#[test]
fn eager_mis_matches_including_violation_witness() {
    // EagerMis has real safety violations; the witness schedule (the
    // BFS-first, lexicographically smallest counterexample) must be the
    // same schedule, not merely "some" violation.
    for topo in topologies() {
        let ids = ids_for(topo.len());
        assert_equivalent("EagerMis", &EagerMis, &topo, &ids, 150_000, mis_violation);
    }
}

#[test]
fn truncation_caps_match_the_reference() {
    // Tiny caps stop the exploration inside the first few BFS levels,
    // where an off-by-one in the cap check would show.
    let topo = Topology::cycle(4).unwrap();
    for cap in [1, 7, 50, 333] {
        assert_equivalent(
            &format!("Alg2 cap={cap}"),
            &FiveColoring,
            &topo,
            &[0, 1, 2, 3],
            cap,
            coloring_safety,
        );
    }
}

#[test]
fn violation_witness_is_schedule_for_schedule_identical() {
    // The canonical witness from the paper's MIS discussion: EagerMis
    // on C4 with ids [5,9,2,1] reaches adjacent In/In. Compare the
    // witness schedule step by step at every worker count.
    let topo = Topology::cycle(4).unwrap();
    let ids = vec![5u64, 9, 2, 1];
    let (desc, schedule) = reference_bfs(&EagerMis, &topo, ids.clone(), usize::MAX, mis_violation)
        .safety_violation
        .expect("the reference finds the In/In violation");
    for jobs in JOB_COUNTS {
        let got = ModelChecker::new(&EagerMis, &topo, ids.clone())
            .with_jobs(jobs)
            .explore(mis_violation)
            .unwrap()
            .safety_violation
            .expect("the checker finds the In/In violation");
        assert_eq!(got.description, desc, "jobs={jobs}");
        assert_eq!(
            got.schedule.len(),
            schedule.len(),
            "witness length diverged at jobs={jobs}"
        );
        for (t, (g, w)) in got.schedule.iter().zip(&schedule).enumerate() {
            assert_eq!(g, w, "witness step {t} diverged at jobs={jobs}");
        }
    }
}

#[test]
fn symmetry_is_jobs_invariant_and_keeps_the_reference_verdict() {
    // [0, 1, 0, 1] is invariant under rotation by two, so orbits
    // genuinely collapse; the quotient must be the same at every worker
    // count, keep the unreduced verdicts, and de-canonicalize its
    // livelock witness into a concrete, replayable one.
    let topo = Topology::cycle(4).unwrap();
    let ids = vec![0u64, 1, 0, 1];
    let reference = reference_bfs(
        &FiveColoring,
        &topo,
        ids.clone(),
        usize::MAX,
        coloring_safety,
    );
    let mut first: Option<ModelCheckOutcome<u64>> = None;
    for jobs in JOB_COUNTS {
        let got = ModelChecker::new(&FiveColoring, &topo, ids.clone())
            .with_symmetry(true)
            .with_jobs(jobs)
            .explore(coloring_safety)
            .unwrap();
        assert!(
            got.configs < reference.configs,
            "jobs={jobs}: orbits collapse"
        );
        assert_eq!(got.truncated, reference.truncated, "jobs={jobs}");
        assert_eq!(
            got.safety_violation.is_some(),
            reference.safety_violation.is_some(),
            "jobs={jobs}: safety verdict"
        );
        assert_eq!(
            got.livelock.is_some(),
            has_cycle(&reference.graph),
            "jobs={jobs}: livelock verdict"
        );
        if got.livelock.is_some() {
            assert_livelock_replays(&FiveColoring, &topo, &ids, &got, &format!("jobs={jobs}"));
        }
        match &first {
            None => first = Some(got),
            Some(one) => assert_eq!(one, &got, "jobs={jobs}: outcome differs from jobs=1"),
        }
    }
}

#[test]
fn por_is_jobs_invariant_down_to_its_counters() {
    let topo = Topology::cycle(4).unwrap();
    let ids = vec![0u64, 1, 2, 3];
    let reference = reference_bfs(&SixColoring, &topo, ids.clone(), usize::MAX, pair_safety);
    let mut first: Option<ModelCheckOutcome<ftcolor::core::PairColor>> = None;
    for jobs in JOB_COUNTS {
        let got = ModelChecker::new(&SixColoring, &topo, ids.clone())
            .with_por(true)
            .with_jobs(jobs)
            .explore(pair_safety)
            .unwrap();
        assert!(got.stats.por_pruned_sets > 0, "jobs={jobs}: C4 must prune");
        assert!(got.edges < reference.edges, "jobs={jobs}: fewer edges");
        assert!(
            got.clean(),
            "jobs={jobs}: Algorithm 1 stays clean under POR"
        );
        assert!(
            reference.safety_violation.is_none() && !has_cycle(&reference.graph),
            "the reference agrees Algorithm 1 is clean"
        );
        match &first {
            None => first = Some(got),
            Some(one) => {
                assert_eq!(one, &got, "jobs={jobs}: outcome differs from jobs=1");
                assert_eq!(
                    one.stats.por_pruned_sets, got.stats.por_pruned_sets,
                    "jobs={jobs}: pruning accounting"
                );
                assert_eq!(
                    one.stats.dedup_hits, got.stats.dedup_hits,
                    "jobs={jobs}: dedup hits"
                );
                assert_eq!(
                    one.stats.dedup_lookups, got.stats.dedup_lookups,
                    "jobs={jobs}: dedup lookups"
                );
            }
        }
    }
}

#[test]
fn caps_inside_a_multi_chunk_level_match_the_reference() {
    // The engine expands each BFS level in chunks of EXPAND_CHUNK node
    // ids and re-checks the cap before every chunk. These caps bite in a
    // level that spans several chunks, past its first chunk, so the
    // chunk that crosses the cap expands nodes the merge then refuses.
    // The outcome and every counter must still equal the reference's,
    // whose nodes each decide against the cap on their own.
    let topo = Topology::cycle(5).unwrap();
    let ids = ids_for(5);
    let max_branching = (1 << topo.len()) - 1;
    // Alg2 on C5 with these ids: levels 4 and 5 hold 13,383 and 22,172
    // nodes; 20,000 bites in level 4, 45,000 and 45,003 in level 5.
    for cap in [20_000, 45_000, 45_003] {
        let reference = reference_bfs(&FiveColoring, &topo, ids.clone(), cap, coloring_safety);
        let capped = reference.first_capped.expect("the cap bites");
        let level = reference.depth[capped];
        let level_start = reference.depth.partition_point(|&d| d < level);
        let level_len = reference.depth.partition_point(|&d| d <= level) - level_start;
        assert!(
            level_len > 2 * EXPAND_CHUNK && capped - level_start >= EXPAND_CHUNK,
            "cap {cap}: the cap must bite past the first chunk of a multi-chunk level \
             (level {level}: {level_len} nodes, capped at offset {})",
            capped - level_start
        );
        // The overshoot: a node that starts expanding below the cap adds
        // all of its successors.
        assert!(
            reference.configs >= cap && reference.configs - cap < max_branching,
            "cap {cap}: {} configs",
            reference.configs
        );
        let inputs: Vec<u64> = ids.clone();
        for jobs in JOB_COUNTS {
            let cell = format!("Alg2 cap={cap} on C5 at jobs={jobs}");
            let got = ModelChecker::new(&FiveColoring, &topo, inputs.clone())
                .with_max_configs(cap)
                .with_jobs(jobs)
                .explore(coloring_safety)
                .unwrap();
            assert_matches_reference(&FiveColoring, &topo, &inputs, &got, &reference, &cell);
            // Every merged successor is one lookup; all but the nodes it
            // discovered are hits.
            assert_eq!(
                got.stats.dedup_lookups, reference.edges as u64,
                "{cell}: dedup lookups"
            );
            assert_eq!(
                got.stats.dedup_hits,
                (reference.edges - (reference.configs - 1)) as u64,
                "{cell}: dedup hits"
            );
            assert_eq!(got.stats.por_pruned_sets, 0, "{cell}: no POR, no pruning");
        }
    }
}
