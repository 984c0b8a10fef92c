//! The NSGA-II run driver.

use crate::crowding::crowding_distances;
use crate::hypervolume::hypervolume;
use crate::individual::Individual;
use crate::objective::Direction;
use crate::operators::{Crossover, Initializer, Mutation};
use crate::pareto;
use crate::selection::binary_tournament;
use crate::sorting::fast_non_dominated_sort;
use bea_tensor::{threads, WeightInit};
use std::time::Instant;

/// Evaluates a batch of genomes: split into one contiguous chunk per
/// effective worker of [`bea_tensor::threads::fan_out`], one
/// [`Problem::evaluate_population`] call per chunk. Results come back in
/// input order, so runs stay deterministic at any thread count.
fn evaluate_batch<P: Problem>(
    problem: &P,
    genomes: Vec<P::Genome>,
    eval_threads: usize,
) -> Vec<Individual<P::Genome>> {
    let chunk = genomes.len().div_ceil(threads::width(eval_threads)).max(1);
    let chunks: Vec<&[P::Genome]> = genomes.chunks(chunk).collect();
    let objectives = threads::fan_out(chunks.len(), chunks.len(), |c| {
        let objectives = problem.evaluate_population(chunks[c]);
        assert_eq!(objectives.len(), chunks[c].len(), "one objective vector per genome");
        objectives
    });
    genomes
        .into_iter()
        .zip(objectives.into_iter().flatten())
        .map(|(g, o)| Individual::new(g, o))
        .collect()
}

/// An optimisation problem: a genome type plus an objective evaluation.
///
/// Implementations must be [`Sync`] so populations can be evaluated from
/// worker threads.
pub trait Problem: Sync {
    /// The genome (decision variable) type.
    type Genome: Clone + Send + Sync;

    /// Optimisation direction of each objective, in order.
    fn directions(&self) -> Vec<Direction>;

    /// Evaluates one genome into its objective vector (same length and
    /// order as [`Problem::directions`]).
    fn evaluate(&self, genome: &Self::Genome) -> Vec<f64>;

    /// Evaluates a batch of genomes, returning one objective vector per
    /// genome in input order.
    ///
    /// The run driver hands every evaluation through this hook (each
    /// worker thread receives one contiguous chunk), so problems whose
    /// objective shares setup across a population — the butterfly attack
    /// looks up its cached clean pass once per chunk instead of once per
    /// mask — can override it. Results must be *identical* to mapping
    /// [`Problem::evaluate`], and determinism tests hold overrides to that.
    fn evaluate_population(&self, genomes: &[Self::Genome]) -> Vec<Vec<f64>> {
        genomes.iter().map(|g| self.evaluate(g)).collect()
    }

    /// Fixed genomes injected into the initial population before random
    /// initialisation fills the rest. The paper injects the zero mask "to
    /// keep the original image".
    fn seeded_genomes(&self) -> Vec<Self::Genome> {
        Vec::new()
    }

    /// Constraint projection applied to every new genome (after
    /// initialisation, crossover and mutation). The paper projects masks
    /// onto the allowed perturbation region ("forcing filters to have
    /// zeros in the left half").
    fn repair(&self, genome: &mut Self::Genome) {
        let _ = genome;
    }
}

/// NSGA-II hyper-parameters.
///
/// The default matches the paper's Table II: 100 iterations, population
/// 101, crossover probability 0.5, mutation probability 0.45.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nsga2Config {
    /// Number of individuals kept each generation.
    pub population_size: usize,
    /// Number of generations ("number of iterations").
    pub generations: usize,
    /// Probability that a selected pair recombines (`p_c`).
    pub crossover_prob: f32,
    /// Probability that an offspring mutates (`p_m`).
    pub mutation_prob: f32,
    /// Seed of the run's deterministic random stream.
    pub seed: u64,
    /// Worker threads for objective evaluation: `0` (the default) uses
    /// every available core, `1` keeps evaluation on the calling thread.
    /// Inside an outer fan-out (a campaign's cells) evaluation runs on the outer worker instead; see the nesting rule
    /// in [`bea_tensor::threads`]. The thread count never changes results.
    pub eval_threads: usize,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Self {
            population_size: 101,
            generations: 100,
            crossover_prob: 0.5,
            mutation_prob: 0.45,
            seed: 1,
            eval_threads: 0,
        }
    }
}

/// Per-generation progress statistics.
///
/// The `*_ms` wall-time fields and (when a reference point is configured,
/// see [`Nsga2::with_hypervolume_reference`]) `hypervolume` make up the
/// run's observability record: one `GenerationStats` per generation is
/// what campaign telemetry serialises per grid cell. Timing fields vary
/// between runs; everything else is deterministic per seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationStats {
    /// Generation index (0 = after initialisation).
    pub generation: usize,
    /// Size of the current non-dominated front.
    pub front_size: usize,
    /// Best value seen in the population for each objective (respecting
    /// its direction).
    pub best: Vec<f64>,
    /// Exact hypervolume of the current non-dominated front against the
    /// configured reference point; `None` when no reference is set.
    pub hypervolume: Option<f64>,
    /// Wall time spent evaluating objectives this generation.
    pub evaluate_ms: f64,
    /// Wall time spent in non-dominated sorting, crowding and
    /// environmental selection this generation.
    pub sort_ms: f64,
    /// Wall time spent in parent selection and variation (tournaments,
    /// crossover, mutation, repair); zero for generation 0.
    pub select_ms: f64,
}

/// The outcome of an NSGA-II run.
#[derive(Debug, Clone)]
pub struct Nsga2Result<G> {
    population: Vec<Individual<G>>,
    directions: Vec<Direction>,
    history: Vec<GenerationStats>,
    evaluations: usize,
}

impl<G> Nsga2Result<G> {
    /// Assembles a result from its parts — the escape hatch for rebuilding
    /// an outcome outside a live run (reloading a persisted campaign cell,
    /// constructing fixtures). `run` never needs this.
    pub fn from_parts(
        population: Vec<Individual<G>>,
        directions: Vec<Direction>,
        history: Vec<GenerationStats>,
        evaluations: usize,
    ) -> Self {
        Self { population, directions, history, evaluations }
    }

    /// The final population (ranked, with crowding distances).
    pub fn population(&self) -> &[Individual<G>] {
        &self.population
    }

    /// The objective directions of the underlying problem.
    pub fn directions(&self) -> &[Direction] {
        &self.directions
    }

    /// Per-generation statistics, index 0 being the initial population.
    pub fn history(&self) -> &[GenerationStats] {
        &self.history
    }

    /// Total number of objective evaluations performed.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Members of the final non-dominated front.
    pub fn pareto_front(&self) -> Vec<&Individual<G>> {
        self.population.iter().filter(|i| i.rank() == 0).collect()
    }

    /// The front member with the best value of objective `index`
    /// (the paper's Figure 2 shows "the resulting 3 perturbations ... each
    /// being the best for one objective").
    pub fn best_for_objective(&self, index: usize) -> Option<&Individual<G>> {
        pareto::best_for_objective(&self.population, &self.directions, index)
    }
}

/// The NSGA-II optimiser.
///
/// See the [crate documentation](crate) for a complete example.
#[derive(Debug)]
pub struct Nsga2<P: Problem> {
    problem: P,
    config: Nsga2Config,
    hv_reference: Option<Vec<f64>>,
}

impl<P: Problem> Nsga2<P> {
    /// Wraps a problem with a configuration.
    pub fn new(problem: P, config: Nsga2Config) -> Self {
        Self { problem, config, hv_reference: None }
    }

    /// Enables per-generation hypervolume tracking against a fixed
    /// reference point (given in the problem's original objective scale;
    /// it must be dominated by every interesting point, see
    /// [`hypervolume`]). With a reference set, every
    /// [`GenerationStats::hypervolume`] carries the exact hypervolume of
    /// that generation's non-dominated front.
    ///
    /// # Panics
    ///
    /// The run panics if the reference dimensionality disagrees with the
    /// problem's objective count, or that count exceeds the 3 objectives
    /// the exact indicator supports.
    pub fn with_hypervolume_reference(mut self, reference: Vec<f64>) -> Self {
        self.hv_reference = Some(reference);
        self
    }

    /// The wrapped problem.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// The run configuration.
    pub fn config(&self) -> &Nsga2Config {
        &self.config
    }

    /// Runs the algorithm to completion.
    pub fn run<I, C, M>(&self, init: &I, crossover: &C, mutation: &M) -> Nsga2Result<P::Genome>
    where
        I: Initializer<P::Genome>,
        C: Crossover<P::Genome>,
        M: Mutation<P::Genome>,
    {
        self.run_with_observer(init, crossover, mutation, |_, _| {})
    }

    /// Runs the algorithm, invoking `observer` after every generation with
    /// the fresh statistics and the ranked population.
    pub fn run_with_observer<I, C, M, O>(
        &self,
        init: &I,
        crossover: &C,
        mutation: &M,
        mut observer: O,
    ) -> Nsga2Result<P::Genome>
    where
        I: Initializer<P::Genome>,
        C: Crossover<P::Genome>,
        M: Mutation<P::Genome>,
        O: FnMut(&GenerationStats, &[Individual<P::Genome>]),
    {
        assert!(self.config.population_size > 0, "population size must be positive");
        let directions = self.problem.directions();
        let mut rng = WeightInit::from_seed(self.config.seed);
        let mut evaluations = 0usize;

        // Initial population: problem-seeded genomes first, random fill after.
        let mut genomes: Vec<P::Genome> = self.problem.seeded_genomes();
        genomes.truncate(self.config.population_size);
        while genomes.len() < self.config.population_size {
            let mut g = init.initialize(&mut rng);
            self.problem.repair(&mut g);
            genomes.push(g);
        }
        evaluations += genomes.len();
        let clock = Instant::now();
        let mut population = evaluate_batch(&self.problem, genomes, self.config.eval_threads);
        let evaluate_ms = ms_since(clock);
        let clock = Instant::now();
        assign_ranks_and_crowding(&mut population, &directions);
        let sort_ms = ms_since(clock);

        let mut history = Vec::with_capacity(self.config.generations + 1);
        let stats = self.collect_stats(
            0,
            &population,
            &directions,
            PhaseTimings { evaluate_ms, sort_ms, select_ms: 0.0 },
        );
        observer(&stats, &population);
        history.push(stats);

        for generation in 1..=self.config.generations {
            // Variation: crowded tournaments pick parents, the paper's
            // p_c / p_m gates apply crossover and mutation.
            let clock = Instant::now();
            let ranks: Vec<usize> = population.iter().map(|i| i.rank()).collect();
            let crowding: Vec<f64> = population.iter().map(|i| i.crowding()).collect();
            let mut offspring: Vec<P::Genome> = Vec::with_capacity(self.config.population_size);
            while offspring.len() < self.config.population_size {
                let pa = binary_tournament(&ranks, &crowding, &mut rng);
                let pb = binary_tournament(&ranks, &crowding, &mut rng);
                let (mut c1, mut c2) = if rng.coin(self.config.crossover_prob) {
                    crossover.crossover(population[pa].genome(), population[pb].genome(), &mut rng)
                } else {
                    (population[pa].genome().clone(), population[pb].genome().clone())
                };
                for child in [&mut c1, &mut c2] {
                    if rng.coin(self.config.mutation_prob) {
                        mutation.mutate(child, &mut rng);
                    }
                    self.problem.repair(child);
                }
                offspring.push(c1);
                if offspring.len() < self.config.population_size {
                    offspring.push(c2);
                }
            }
            let select_ms = ms_since(clock);
            // Elitist environmental selection over parents ∪ offspring.
            evaluations += offspring.len();
            let clock = Instant::now();
            let mut combined = std::mem::take(&mut population);
            combined.extend(evaluate_batch(&self.problem, offspring, self.config.eval_threads));
            let evaluate_ms = ms_since(clock);
            let clock = Instant::now();
            population =
                environmental_selection(combined, self.config.population_size, &directions);
            let sort_ms = ms_since(clock);

            let stats = self.collect_stats(
                generation,
                &population,
                &directions,
                PhaseTimings { evaluate_ms, sort_ms, select_ms },
            );
            observer(&stats, &population);
            history.push(stats);
        }

        Nsga2Result { population, directions, history, evaluations }
    }

    /// Snapshot of one generation: front size, per-objective bests, the
    /// phase wall-times measured by the run loop, and — with a reference
    /// point configured — the front's exact hypervolume.
    fn collect_stats(
        &self,
        generation: usize,
        population: &[Individual<P::Genome>],
        directions: &[Direction],
        timings: PhaseTimings,
    ) -> GenerationStats {
        let front_size = population.iter().filter(|i| i.rank() == 0).count();
        let best = directions
            .iter()
            .enumerate()
            .map(|(k, dir)| {
                population
                    .iter()
                    .map(|i| i.objectives()[k])
                    .fold(None::<f64>, |acc, v| match acc {
                        Some(best) if !dir.better(v, best) => Some(best),
                        _ => Some(v),
                    })
                    .unwrap_or(f64::NAN)
            })
            .collect();
        let hv = self.hv_reference.as_ref().map(|reference| {
            let front: Vec<Vec<f64>> = population
                .iter()
                .filter(|i| i.rank() == 0)
                .map(|i| i.objectives().to_vec())
                .collect();
            hypervolume(&front, reference, directions)
        });
        GenerationStats {
            generation,
            front_size,
            best,
            hypervolume: hv,
            evaluate_ms: timings.evaluate_ms,
            sort_ms: timings.sort_ms,
            select_ms: timings.select_ms,
        }
    }
}

/// Assigns Pareto ranks and crowding distances to every individual.
pub(crate) fn assign_ranks_and_crowding<G>(
    population: &mut [Individual<G>],
    directions: &[Direction],
) {
    let objectives: Vec<Vec<f64>> = population.iter().map(|i| i.objectives().to_vec()).collect();
    let fronts = fast_non_dominated_sort(&objectives, directions);
    for (rank, front) in fronts.iter().enumerate() {
        let distances = crowding_distances(front, &objectives);
        for (&idx, &d) in front.iter().zip(&distances) {
            population[idx].rank = rank;
            population[idx].crowding = d;
        }
    }
}

/// NSGA-II environmental selection: fill the next population front by
/// front; the front that overflows is truncated by descending crowding
/// distance.
fn environmental_selection<G>(
    mut combined: Vec<Individual<G>>,
    target: usize,
    directions: &[Direction],
) -> Vec<Individual<G>> {
    assign_ranks_and_crowding(&mut combined, directions);
    combined.sort_by(|a, b| {
        a.rank().cmp(&b.rank()).then_with(|| {
            b.crowding().partial_cmp(&a.crowding()).unwrap_or(std::cmp::Ordering::Equal)
        })
    });
    combined.truncate(target);
    // Re-rank the survivors so exposed ranks/crowding describe the new
    // population, not the combined pool.
    assign_ranks_and_crowding(&mut combined, directions);
    combined
}

/// Wall-times of one generation's three phases, in milliseconds.
struct PhaseTimings {
    evaluate_ms: f64,
    sort_ms: f64,
    select_ms: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::OnePointCrossover;

    /// Two-objective Schaffer problem; Pareto set is x ∈ [0, 2].
    struct Schaffer;

    impl Problem for Schaffer {
        type Genome = f64;

        fn directions(&self) -> Vec<Direction> {
            vec![Direction::Minimize, Direction::Minimize]
        }

        fn evaluate(&self, x: &f64) -> Vec<f64> {
            vec![x * x, (x - 2.0) * (x - 2.0)]
        }
    }

    fn schaffer_result(generations: usize, seed: u64) -> Nsga2Result<f64> {
        let config = Nsga2Config {
            population_size: 40,
            generations,
            crossover_prob: 0.9,
            mutation_prob: 0.5,
            seed,
            eval_threads: 0,
        };
        Nsga2::new(Schaffer, config).run(
            &|rng: &mut WeightInit| rng.uniform(-8.0, 8.0) as f64,
            &|a: &f64, b: &f64, rng: &mut WeightInit| {
                let t = rng.uniform(0.0, 1.0) as f64;
                (t * a + (1.0 - t) * b, (1.0 - t) * a + t * b)
            },
            &|x: &mut f64, rng: &mut WeightInit| *x += rng.normal(0.0, 0.5) as f64,
        )
    }

    #[test]
    fn schaffer_converges_to_pareto_set() {
        let result = schaffer_result(60, 3);
        let front = result.pareto_front();
        assert!(front.len() >= 10, "front too small: {}", front.len());
        let inside = front.iter().filter(|i| (-0.3..=2.3).contains(i.genome())).count();
        assert!(
            inside * 10 >= front.len() * 9,
            "only {inside}/{} front members near the Pareto set",
            front.len()
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = schaffer_result(10, 7);
        let b = schaffer_result(10, 7);
        for (x, y) in a.population().iter().zip(b.population()) {
            assert_eq!(x.genome(), y.genome());
            assert_eq!(x.objectives(), y.objectives());
        }
        assert_ne!(
            schaffer_result(10, 8).population()[0].genome(),
            a.population()[0].genome(),
            "different seeds should explore differently"
        );
    }

    #[test]
    fn history_tracks_improvement() {
        let result = schaffer_result(40, 5);
        let history = result.history();
        assert_eq!(history.len(), 41);
        let first_best = history[0].best[0];
        let last_best = history.last().unwrap().best[0];
        assert!(last_best <= first_best, "objective 0 should not get worse under elitism");
        assert!(result.evaluations() >= 40 * 41);
    }

    #[test]
    fn elitism_never_loses_the_best() {
        let result = schaffer_result(30, 11);
        let mut prev = f64::INFINITY;
        for stats in result.history() {
            assert!(
                stats.best[0] <= prev + 1e-12,
                "best objective 0 regressed at generation {}",
                stats.generation
            );
            prev = stats.best[0];
        }
    }

    #[test]
    fn seeded_genomes_enter_initial_population() {
        struct Seeded;
        impl Problem for Seeded {
            type Genome = f64;
            fn directions(&self) -> Vec<Direction> {
                vec![Direction::Minimize]
            }
            fn evaluate(&self, x: &f64) -> Vec<f64> {
                vec![x.abs()]
            }
            fn seeded_genomes(&self) -> Vec<f64> {
                vec![0.0] // already optimal
            }
        }
        let config = Nsga2Config { population_size: 10, generations: 3, ..Nsga2Config::default() };
        let result = Nsga2::new(Seeded, config).run(
            &|rng: &mut WeightInit| rng.uniform(5.0, 9.0) as f64,
            &|a: &f64, b: &f64, _: &mut WeightInit| (*a, *b),
            &|x: &mut f64, rng: &mut WeightInit| *x += rng.normal(0.0, 0.1) as f64,
        );
        assert!(result.history()[0].best[0] < 1e-9, "the seeded optimum must be present");
    }

    #[test]
    fn repair_enforces_constraints() {
        struct Bounded;
        impl Problem for Bounded {
            type Genome = f64;
            fn directions(&self) -> Vec<Direction> {
                vec![Direction::Minimize]
            }
            fn evaluate(&self, x: &f64) -> Vec<f64> {
                vec![*x]
            }
            fn repair(&self, genome: &mut f64) {
                *genome = genome.clamp(3.0, 10.0);
            }
        }
        let config = Nsga2Config { population_size: 16, generations: 10, ..Nsga2Config::default() };
        let result = Nsga2::new(Bounded, config).run(
            &|rng: &mut WeightInit| rng.uniform(-50.0, 50.0) as f64,
            &|a: &f64, b: &f64, _: &mut WeightInit| (*a, *b),
            &|x: &mut f64, rng: &mut WeightInit| *x += rng.normal(0.0, 5.0) as f64,
        );
        for individual in result.population() {
            assert!((3.0..=10.0).contains(individual.genome()));
        }
        // The minimisation should have found the repaired lower bound.
        assert!((result.history().last().unwrap().best[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn vector_genomes_work_with_one_point_crossover() {
        /// Minimise the sum and maximise the first element.
        struct VecProblem;
        impl Problem for VecProblem {
            type Genome = Vec<f64>;
            fn directions(&self) -> Vec<Direction> {
                vec![Direction::Minimize, Direction::Maximize]
            }
            fn evaluate(&self, g: &Vec<f64>) -> Vec<f64> {
                vec![g.iter().sum(), g[0]]
            }
        }
        let config = Nsga2Config { population_size: 20, generations: 15, ..Nsga2Config::default() };
        let result = Nsga2::new(VecProblem, config).run(
            &|rng: &mut WeightInit| (0..6).map(|_| rng.uniform(0.0, 1.0) as f64).collect(),
            &OnePointCrossover,
            &|g: &mut Vec<f64>, rng: &mut WeightInit| {
                let i = rng.index(g.len());
                g[i] = rng.uniform(0.0, 1.0) as f64;
            },
        );
        assert!(!result.pareto_front().is_empty());
        assert_eq!(result.directions().len(), 2);
    }

    #[test]
    fn observer_sees_every_generation() {
        let config = Nsga2Config { population_size: 8, generations: 5, ..Nsga2Config::default() };
        let mut seen = Vec::new();
        let _ = Nsga2::new(Schaffer, config).run_with_observer(
            &|rng: &mut WeightInit| rng.uniform(-4.0, 4.0) as f64,
            &|a: &f64, b: &f64, _: &mut WeightInit| (*a, *b),
            &|x: &mut f64, rng: &mut WeightInit| *x += rng.normal(0.0, 0.2) as f64,
            |stats, population| {
                assert_eq!(population.len(), 8);
                seen.push(stats.generation);
            },
        );
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn population_exposes_final_ranks() {
        let result = schaffer_result(10, 2);
        assert!(result.population().iter().any(|i| i.rank() == 0));
        assert!(result.population().iter().all(|i| i.rank() != usize::MAX));
    }

    #[test]
    fn hypervolume_tracking_is_monotone_under_elitism() {
        let config = Nsga2Config {
            population_size: 24,
            generations: 20,
            crossover_prob: 0.9,
            mutation_prob: 0.5,
            seed: 3,
            eval_threads: 1,
        };
        let result = Nsga2::new(Schaffer, config).with_hypervolume_reference(vec![70.0, 70.0]).run(
            &|rng: &mut WeightInit| rng.uniform(-8.0, 8.0) as f64,
            &|a: &f64, b: &f64, rng: &mut WeightInit| {
                let t = rng.uniform(0.0, 1.0) as f64;
                (t * a + (1.0 - t) * b, (1.0 - t) * a + t * b)
            },
            &|x: &mut f64, rng: &mut WeightInit| *x += rng.normal(0.0, 0.5) as f64,
        );
        let hvs: Vec<f64> =
            result.history().iter().map(|s| s.hypervolume.expect("reference configured")).collect();
        assert!(hvs.iter().all(|hv| hv.is_finite() && *hv >= 0.0));
        // Crowding truncation may drop interior front points, so strict
        // per-generation monotonicity does not hold — but convergence over
        // the whole run must show up as net hypervolume growth.
        assert!(
            hvs.last().unwrap() > hvs.first().unwrap(),
            "hypervolume did not grow: {:?} -> {:?}",
            hvs.first(),
            hvs.last()
        );
        // Without a reference the field stays empty.
        let plain = schaffer_result(5, 3);
        assert!(plain.history().iter().all(|s| s.hypervolume.is_none()));
    }

    #[test]
    fn phase_timings_are_populated() {
        let result = schaffer_result(8, 5);
        let history = result.history();
        assert_eq!(history[0].select_ms, 0.0, "generation 0 has no variation phase");
        for stats in history {
            assert!(stats.evaluate_ms >= 0.0);
            assert!(stats.sort_ms >= 0.0);
            assert!(stats.select_ms >= 0.0);
        }
    }

    #[test]
    fn eval_threads_do_not_change_results() {
        let run = |threads: usize| {
            let config = Nsga2Config {
                population_size: 30,
                generations: 8,
                crossover_prob: 0.9,
                mutation_prob: 0.5,
                seed: 13,
                eval_threads: threads,
            };
            Nsga2::new(Schaffer, config).run(
                &|rng: &mut WeightInit| rng.uniform(-8.0, 8.0) as f64,
                &|a: &f64, b: &f64, _: &mut WeightInit| (*a, *b),
                &|x: &mut f64, rng: &mut WeightInit| *x += rng.normal(0.0, 0.5) as f64,
            )
        };
        let sequential = run(1);
        let parallel = run(4);
        for (a, b) in sequential.population().iter().zip(parallel.population()) {
            assert_eq!(a.genome(), b.genome());
            assert_eq!(a.objectives(), b.objectives());
        }
    }

    #[test]
    fn population_hook_receives_every_genome_and_matches_scalar_path() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Schaffer with an instrumented batch hook.
        struct Hooked {
            calls: AtomicUsize,
            genomes_seen: AtomicUsize,
        }
        impl Problem for Hooked {
            type Genome = f64;
            fn directions(&self) -> Vec<Direction> {
                vec![Direction::Minimize, Direction::Minimize]
            }
            fn evaluate(&self, x: &f64) -> Vec<f64> {
                vec![x * x, (x - 2.0) * (x - 2.0)]
            }
            fn evaluate_population(&self, genomes: &[f64]) -> Vec<Vec<f64>> {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.genomes_seen.fetch_add(genomes.len(), Ordering::Relaxed);
                genomes.iter().map(|g| self.evaluate(g)).collect()
            }
        }
        let run = |threads: usize| {
            let problem = Hooked { calls: AtomicUsize::new(0), genomes_seen: AtomicUsize::new(0) };
            let config = Nsga2Config {
                population_size: 20,
                generations: 4,
                crossover_prob: 0.9,
                mutation_prob: 0.5,
                seed: 21,
                eval_threads: threads,
            };
            let nsga = Nsga2::new(problem, config);
            let result = nsga.run(
                &|rng: &mut WeightInit| rng.uniform(-8.0, 8.0) as f64,
                &|a: &f64, b: &f64, _: &mut WeightInit| (*a, *b),
                &|x: &mut f64, rng: &mut WeightInit| *x += rng.normal(0.0, 0.5) as f64,
            );
            let calls = nsga.problem().calls.load(Ordering::Relaxed);
            let seen = nsga.problem().genomes_seen.load(Ordering::Relaxed);
            (result, calls, seen)
        };
        let (sequential, seq_calls, seq_seen) = run(1);
        let (parallel, par_calls, par_seen) = run(4);
        // Every evaluation flows through the hook, at any thread count...
        assert_eq!(seq_seen, sequential.evaluations());
        assert_eq!(par_seen, parallel.evaluations());
        // ...single-threaded runs batch each generation into one call,
        // threaded runs into one call per worker chunk...
        assert_eq!(seq_calls, 5, "one batched call per generation");
        assert!(par_calls > seq_calls, "threaded runs chunk the population");
        // ...and the thread count still never changes the outcome.
        for (a, b) in sequential.population().iter().zip(parallel.population()) {
            assert_eq!(a.genome(), b.genome());
            assert_eq!(a.objectives(), b.objectives());
        }
    }

    #[test]
    #[should_panic(expected = "objective vector must be finite")]
    fn nan_producing_problem_fails_loudly() {
        struct Poisoned;
        impl Problem for Poisoned {
            type Genome = f64;
            fn directions(&self) -> Vec<Direction> {
                vec![Direction::Minimize, Direction::Minimize]
            }
            fn evaluate(&self, x: &f64) -> Vec<f64> {
                // A misbehaving detector: produces NaN past a threshold.
                vec![*x, if *x > 0.0 { f64::NAN } else { 1.0 }]
            }
        }
        let config = Nsga2Config {
            population_size: 8,
            generations: 2,
            eval_threads: 1,
            ..Nsga2Config::default()
        };
        let _ = Nsga2::new(Poisoned, config).run(
            &|rng: &mut WeightInit| rng.uniform(-1.0, 1.0) as f64,
            &|a: &f64, b: &f64, _: &mut WeightInit| (*a, *b),
            &|x: &mut f64, rng: &mut WeightInit| *x += rng.normal(0.0, 0.1) as f64,
        );
    }

    #[test]
    fn results_can_be_rebuilt_from_parts() {
        let result = schaffer_result(5, 2);
        let rebuilt = Nsga2Result::from_parts(
            result.population().to_vec(),
            result.directions().to_vec(),
            result.history().to_vec(),
            result.evaluations(),
        );
        assert_eq!(rebuilt.evaluations(), result.evaluations());
        assert_eq!(rebuilt.pareto_front().len(), result.pareto_front().len());
    }
}
