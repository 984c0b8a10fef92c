//! The closed-loop grid workloads: rounds of `Campaign` cells at the
//! paper's population, followed on `grid-detr` by a `TransferGrid` phase
//! over each round's champions.

use crate::cells::{
    arch_of, campaign_layers, eval_threads, zoo_detector, CellClock, Generation, Probe, Replay,
};
use crate::report::{latency, mean, median, peak_rss_mb, Metric, Outcome};
use crate::trace::{allocations, Span};
use crate::Args;
use bea_core::attack::AttackConfig;
use bea_core::campaign::{Campaign, CampaignConfig, CampaignResult, CellSpec};
use bea_core::transfer::{
    champions_from_result, ensemble_member_seeds, round6, TargetPath, TargetSpec, TransferCellSpec,
    TransferConfig, TransferGrid, TransferMatrix,
};
use bea_core::ButterflyProblem;
use bea_detect::templates::{TemplateBank, BACKBONE_SCALE};
use bea_detect::zoo::{ENSEMBLE_SIZE, MODELS_PER_ARCHITECTURE};
use bea_detect::{Architecture, Detector, DetrConfig, Ensemble, ModelZoo};
use bea_image::Image;
use bea_nsga2::{Nsga2Config, Problem};
use bea_scene::{ObjectClass, SyntheticKitti};
use std::collections::HashSet;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The shape of one grid workload.
pub struct Plan {
    pub arch: Architecture,
    pub cache: bool,
    pub population: usize,
    pub generations: usize,
    /// Images per round (one model seed per round, so the transfer phase
    /// has an identity diagonal).
    pub images: usize,
    pub transfer: bool,
    /// Wall seconds one round takes on a 2-core reference host. A run
    /// does `--seconds / round_s` rounds, a fixed amount of work, so its
    /// counts, sample sizes and peak memory do not depend on host speed.
    pub round_s: f64,
}

impl Plan {
    pub fn for_workload(name: &str, tiny: bool) -> Option<Self> {
        let (population, detr_gens, yolo_gens) = if tiny { (8, 1, 1) } else { (101, 8, 5) };
        match name {
            "grid-detr" => Some(Self {
                arch: Architecture::Detr,
                cache: false,
                population,
                generations: detr_gens,
                images: 2,
                transfer: true,
                round_s: 12.0,
            }),
            "grid-yolo-cache" => Some(Self {
                arch: Architecture::Yolo,
                cache: true,
                population,
                generations: yolo_gens,
                images: 2,
                transfer: false,
                round_s: 2.9,
            }),
            _ => None,
        }
    }

    /// Rounds a run of `seconds` does (one for the self-test's tiny size).
    fn round_count(&self, seconds: f64, tiny: bool) -> usize {
        if tiny {
            1
        } else {
            (seconds / self.round_s).round().max(1.0) as usize
        }
    }

    fn attack(&self) -> AttackConfig {
        AttackConfig {
            nsga2: Nsga2Config {
                population_size: self.population,
                generations: self.generations,
                ..Nsga2Config::default()
            },
            use_cache: self.cache,
            // campaign_cli's default: the cells already use every core.
            // The library default (0: all cores per kernel call) spawns
            // threads per GEMM and made evals/s and peak RSS vary by more
            // than a quarter between runs on a 2-core host.
            threads: 1,
            ..AttackConfig::default()
        }
    }
}

/// One round's inputs, derived from the workload seed.
#[derive(Debug, Clone)]
struct Round {
    model_seed: u64,
    images: Vec<usize>,
    base_seed: u64,
}

/// SplitMix64: the workload's only source of input randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE4C_0DE5_EED5)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The rounds' inputs. Images are dealt from a seeded permutation of the
/// dataset, so a run that attacks as many cells as there are images
/// attacks each image once: what an image costs (on the cached path it
/// varies with the objects in it) then cancels out between seeds.
fn rounds(seed: u64, plan: &Plan, dataset_len: usize, count: usize) -> Vec<Round> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..dataset_len).collect();
    for i in (1..dataset_len).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut deal = order.into_iter().cycle();
    (0..count)
        .map(|_| {
            let model_seed = 1 + rng.below(MODELS_PER_ARCHITECTURE as u64);
            let images = deal.by_ref().take(plan.images.min(dataset_len)).collect();
            Round { model_seed, images, base_seed: rng.next() >> 16 }
        })
        .collect()
}

/// CPU seconds the calling thread has run (`/proc/thread-self/schedstat`).
///
/// # Panics
///
/// Panics where that file is missing: the benchmark needs Linux, as
/// `serve_cli`'s reactor does.
fn thread_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable on Linux");
    let ns: f64 = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat starts with the thread's run time in ns");
    ns / 1e9
}

/// What set-up produces: the zoo and the rendered evaluation images.
struct Setup {
    zoo: ModelZoo,
    images: Vec<Image>,
}

/// Builds the zoo, renders the dataset and runs one clean pass of a
/// model over every image (the calibration check that each clean
/// prediction exists).
fn setup(arch: Architecture) -> Setup {
    let zoo = ModelZoo::with_defaults();
    let dataset = SyntheticKitti::evaluation_set();
    let images: Vec<Image> = (0..dataset.len()).map(|i| dataset.image(i)).collect();
    let model = zoo.model(arch, 1);
    for image in &images {
        black_box(model.detect(image));
    }
    Setup { zoo, images }
}

/// What one pass over the rounds measured.
#[derive(Default)]
struct Pass {
    evaluations: u64,
    campaign_ms: f64,
    rounds: usize,
    generations: Vec<Generation>,
    results: Vec<(CampaignResult, Vec<u64>)>,
    transfer_cells: usize,
    transfer_ms: f64,
    matrices: Vec<(TransferMatrix, Vec<(CellSpec, f64)>)>,
    workers: usize,
    allocations: u64,
    panics: Vec<String>,
}

fn target_detector(zoo: &ModelZoo, target: &TargetSpec) -> Box<dyn Detector> {
    let arch = arch_of(&target.group);
    match target.path {
        TargetPath::Plain | TargetPath::TwoStage => zoo.model(arch, target.seed),
        TargetPath::Ensemble => {
            let seeds =
                ensemble_member_seeds(target.seed, ENSEMBLE_SIZE, MODELS_PER_ARCHITECTURE as u64);
            Box::new(Ensemble::new(seeds.into_iter().map(|s| zoo.model(arch, s)).collect()))
        }
    }
}

/// Runs every round, tracing through `probe` when given.
fn run_pass(plan: &Plan, setup: &Setup, rounds: &[Round], probe: Option<&Probe>) -> Pass {
    let mut pass = Pass::default();
    let clock = CellClock::default();
    let rec = probe.map(|p| Arc::clone(&p.rec));
    let pass_id = rec.as_ref().map_or(0, |r| r.id());
    let pass_start = Instant::now();
    let allocs_before = allocations();
    for round in rounds {
        pass.rounds += 1;
        let specs = CellSpec::grid(plan.arch.name(), &[round.model_seed], &round.images);
        let campaign = Campaign::new(CampaignConfig {
            attack: plan.attack(),
            base_seed: round.base_seed,
            jobs: 0,
            telemetry: false,
        });
        let round_id = rec.as_ref().map_or(0, |r| r.id());
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            campaign.run_observed(
                &specs,
                |spec: &CellSpec| {
                    let start = Instant::now();
                    let id = rec.as_ref().map_or(0, |r| r.id());
                    clock.start(spec, id, start);
                    let inner = zoo_detector(&setup.zoo, plan.arch, spec.model_seed, plan.cache);
                    match probe {
                        Some(p) => p.wrap(inner, "cell", (id, round_id), start),
                        None => inner,
                    }
                },
                |spec: &CellSpec| setup.images[spec.image_index].clone(),
                &|spec, line| clock.observe(spec, line, rec.as_deref()),
            )
        }));
        let finished = Instant::now();
        if let Some(r) = &rec {
            r.record_with_id(
                round_id,
                pass_id,
                "campaign",
                0,
                started,
                finished,
                specs.len() as u64,
            );
        }
        pass.campaign_ms += finished.duration_since(started).as_secs_f64() * 1e3;
        let result = match result {
            Ok(result) => result,
            Err(_) => {
                pass.panics.push(format!("campaign round {} panicked", pass.rounds));
                continue;
            }
        };
        pass.workers = result.jobs;
        pass.evaluations += result
            .cells
            .iter()
            .filter_map(|c| c.outcome.as_ref())
            .map(|o| o.evaluations() as u64)
            .sum::<u64>();
        let ids: Vec<u64> = result.cells.iter().map(|c| clock.id(&c.spec).unwrap_or(0)).collect();

        if plan.transfer {
            let champions = champions_from_result(&result);
            let targets = TargetSpec::paper_grid(&[round.model_seed]);
            let sources: Vec<CellSpec> = champions.iter().map(|c| c.spec.clone()).collect();
            let cells = TransferCellSpec::grid(&sources, &targets);
            let grid = TransferGrid::new(TransferConfig {
                jobs: 0,
                telemetry: false,
                source_fingerprint: None,
            });
            let transfer_id = rec.as_ref().map_or(0, |r| r.id());
            let started = Instant::now();
            let matrix = catch_unwind(AssertUnwindSafe(|| {
                grid.run(
                    &cells,
                    &champions,
                    |target: &TargetSpec| {
                        let start = Instant::now();
                        let inner = target_detector(&setup.zoo, target);
                        match (probe, &rec) {
                            (Some(p), Some(r)) => {
                                p.wrap(inner, "transfer.group", (r.id(), transfer_id), start)
                            }
                            _ => inner,
                        }
                    },
                    |spec: &CellSpec| setup.images[spec.image_index].clone(),
                )
            }));
            let finished = Instant::now();
            if let Some(r) = &rec {
                r.record_with_id(
                    transfer_id,
                    pass_id,
                    "transfer",
                    0,
                    started,
                    finished,
                    cells.len() as u64,
                );
            }
            pass.transfer_ms += finished.duration_since(started).as_secs_f64() * 1e3;
            match matrix {
                Ok(matrix) => {
                    pass.transfer_cells += matrix.cells.len();
                    let fitness = champions.iter().map(|c| (c.spec.clone(), c.fitness)).collect();
                    pass.matrices.push((matrix, fitness));
                }
                Err(_) => pass.panics.push(format!("transfer round {} panicked", pass.rounds)),
            }
        }
        pass.results.push((result, ids));
    }
    pass.allocations = allocations() - allocs_before;
    if let Some(r) = &rec {
        r.record_with_id(pass_id, 0, "pass", 0, pass_start, Instant::now(), 0);
        r.reparent("detect.batch", "generation");
        r.reparent("detect.masked_batch", "generation");
        r.reparent("detect.single", "generation");
    }
    pass.generations = clock.generations();
    pass
}

/// Re-evaluates every champion on a fresh uncached detector and checks
/// the transfer diagonal; each cell checked is one operation attempted.
fn check(plan: &Plan, setup: &Setup, pass: &Pass, outcome: &mut Outcome) {
    let config = plan.attack();
    for (result, _) in &pass.results {
        for cell in &result.cells {
            outcome.attempted += 1;
            let spec = &cell.spec;
            let label = format!("{}/s{}/i{}", spec.group, spec.model_seed, spec.image_index);
            let Some(best) = cell.outcome.as_ref().and_then(|o| o.best_degradation()) else {
                outcome.fail(format!("cell {label}: no champion"));
                continue;
            };
            let fresh = zoo_detector(&setup.zoo, plan.arch, spec.model_seed, false);
            let image = &setup.images[spec.image_index];
            let problem =
                ButterflyProblem::single(fresh.as_ref(), image, config.epsilon, config.constraint)
                    .with_norm(config.norm);
            let again = problem.evaluate(best.genome());
            let row = cell.rows.iter().find(|r| r.role == "best-degrad");
            let persisted = row.map(|r| vec![r.point.intensity, r.point.degrad, r.point.dist]);
            if again.as_slice() != best.objectives()
                || persisted.as_deref() != Some(best.objectives())
            {
                outcome.fail(format!(
                    "cell {label}: champion re-evaluates to {again:?}, recorded {:?}, persisted {persisted:?}",
                    best.objectives()
                ));
            }
        }
    }
    for (matrix, fitness) in &pass.matrices {
        for cell in &matrix.cells {
            outcome.attempted += 1;
            let row = &cell.row;
            let m = &row.metrics;
            let label = format!(
                "transfer {}/s{}/i{} -> {}/s{}/{}",
                row.spec.source.group,
                row.spec.source.model_seed,
                row.spec.source.image_index,
                row.spec.target_group,
                row.spec.target_seed,
                row.spec.path
            );
            if !(m.target_fitness.is_finite() && m.degradation.is_finite()) {
                outcome.fail(format!("{label}: non-finite metrics"));
            } else if row.spec.is_diagonal() {
                let champion =
                    fitness.iter().find(|(s, _)| *s == row.spec.source).map(|(_, f)| round6(*f));
                if champion != Some(m.target_fitness) || m.delta != 0.0 {
                    outcome.fail(format!(
                        "{label}: diagonal target fitness {} != round6(champion) {champion:?}",
                        m.target_fitness
                    ));
                }
            }
        }
    }
}

/// Computed (not measured) floating-point work of one full forward pass
/// at the evaluation image size, from the public layer shapes: the NCC
/// response of every class template on the backbone-scale image, plus
/// for DETR the embedding, encoder blocks and read-out.
pub fn gflop_per_forward(arch: Architecture, width: usize, height: usize) -> f64 {
    let (w, h) = (width / BACKBONE_SCALE, height / BACKBONE_SCALE);
    let ncc: usize = TemplateBank::canonical()
        .templates()
        .iter()
        .filter(|t| t.height() <= h && t.width() <= w)
        .map(|t| {
            2 * t.map().channels()
                * t.height()
                * t.width()
                * (h - t.height() + 1)
                * (w - t.width() + 1)
        })
        .sum();
    let mut flops = ncc as f64;
    if arch == Architecture::Detr {
        let c = DetrConfig::default();
        let tokens = ((w / c.patch).max(1) * (h / c.patch).max(1)) as f64;
        let d = c.model_dim as f64;
        let classes = ObjectClass::COUNT as f64;
        // Four d x d projections and a d -> 2d -> d FFN (16 T d^2), plus
        // attention scores and weighted values over all heads (4 T^2 d).
        let block = 16.0 * tokens * d * d + 4.0 * tokens * tokens * d;
        flops += c.encoder_layers as f64 * block + 4.0 * tokens * classes * d;
    }
    flops / 1e9
}

pub fn run(name: &str, args: &Args, tiny: bool) -> Outcome {
    let plan = Plan::for_workload(name, tiny).expect("caller checked the workload name");
    let mut outcome = Outcome::default();

    // Set-up runs on this thread alone (one kernel thread, as the cells
    // use), so its CPU time is its wall time on an idle host; CPU time
    // leaves out what the host's other tenants take, which made the wall
    // time drift by a third between sets of runs on a shared 2-core host.
    bea_tensor::threads::set_threads(1);
    let mut setup_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut prepared = None;
    for _ in 0..crate::SETUPS {
        let (start, cpu) = (Instant::now(), thread_cpu_s());
        let s = setup(plan.arch);
        setup_wall_s.push(start.elapsed().as_secs_f64());
        setup_s.push(thread_cpu_s() - cpu);
        prepared = Some(s);
    }
    let setup = prepared.expect("at least one set-up");
    let count = plan.round_count(args.seconds, tiny);
    let rounds = rounds(args.seed, &plan, setup.images.len(), count);
    outcome.inputs = rounds
        .iter()
        .map(|r| format!("s{}:{:?}:{}", r.model_seed, r.images, r.base_seed))
        .collect::<Vec<_>>()
        .join(" ");

    let untraced = run_pass(&plan, &setup, &rounds, None);
    // Peak memory of the untraced pass, before the traced pass can raise it.
    let rss = peak_rss_mb("self").unwrap_or(f64::NAN);
    let traced = args.trace.then(|| {
        let probe = Probe::new();
        let pass = run_pass(&plan, &setup, &rounds, Some(&probe));
        (probe, pass)
    });

    for pass in std::iter::once(&untraced).chain(traced.as_ref().map(|(_, p)| p)) {
        for panic in &pass.panics {
            outcome.incident(panic.clone());
        }
        check(&plan, &setup, pass, &mut outcome);
    }

    let gen_ms: Vec<f64> =
        untraced.generations.iter().filter(|g| !g.initial).map(|g| g.wall_ms).collect();
    let (p50_ms, tail_ms, tail_q) = latency(&gen_ms);
    let evals_per_s = untraced.evaluations as f64 / (untraced.campaign_ms / 1e3);
    let size = format!(
        "{}x{} image, pop {}, {} gens/cell, {} cells/round",
        setup.images[0].width(),
        setup.images[0].height(),
        plan.population,
        plan.generations,
        plan.images
    );
    let cells: usize = untraced.results.iter().map(|(r, _)| r.cells.len()).sum();
    outcome.end_to_end = vec![
        Metric::new(
            "setup_s",
            median(&setup_s),
            "s",
            setup_s.len(),
            &format!(
                "zoo, dataset render, clean calibration pass; median CPU seconds of \
                 {setup_s:.3?} (wall {setup_wall_s:.3?})"
            ),
        ),
        Metric::new("throughput_per_s", evals_per_s, "1/s", cells, &format!("evals_per_s: {size}")),
        // A mean, as on serve-sharded, where the median of a two-cluster
        // job mix jumps between the clusters; the median is a workload figure.
        Metric::new(
            "latency_mean_ms",
            mean(&gen_ms),
            "ms",
            gen_ms.len(),
            "generation_mean_ms: observer to observer, generation 0 left out",
        ),
        Metric::new(
            "latency_tail_ms",
            tail_ms,
            "ms",
            gen_ms.len(),
            &format!("generation_tail_ms at p{tail_q:.1}"),
        ),
        Metric::new("peak_rss_mb", rss, "MB", 1, "VmHWM of the benchmark process"),
    ];
    outcome.detail = vec![
        Metric::new("evals_per_s", evals_per_s, "1/s", untraced.evaluations as usize, &size),
        Metric::new(
            "generation_mean_ms",
            mean(&gen_ms),
            "ms",
            gen_ms.len(),
            "generation 0 left out",
        ),
        Metric::new(
            "generation_p50_ms",
            p50_ms,
            "ms",
            gen_ms.len(),
            "observer-to-observer wall time (Harrell-Davis)",
        ),
        Metric::new("generation_tail_ms", tail_ms, "ms", gen_ms.len(), &format!("p{tail_q:.1}")),
    ];
    if plan.transfer {
        outcome.detail.push(Metric::new(
            "transfer_cells_per_s",
            untraced.transfer_cells as f64 / (untraced.transfer_ms / 1e3),
            "1/s",
            untraced.transfer_cells,
            "paper_grid targets of each round's model seed",
        ));
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = untraced.workers;
    outcome.config("nproc", nproc);
    outcome.config("cell_workers", workers);
    outcome.config("eval_threads", eval_threads(workers));
    outcome.config("kernel_threads", bea_tensor::threads::threads());
    outcome.config("kernel_policy", bea_tensor::KernelPolicy::default().name());
    outcome.config("population", plan.population);
    outcome.config("generations", plan.generations);
    outcome.config("cache", plan.cache);
    outcome.config("rounds", untraced.rounds);

    if let Some((probe, pass)) = traced {
        outcome.layers = grid_layers(&plan, &setup, &untraced, &probe, &pass);
        outcome.spans = probe.rec.spans();
    }
    outcome
}

fn grid_layers(
    plan: &Plan,
    setup: &Setup,
    untraced: &Pass,
    probe: &Probe,
    pass: &Pass,
) -> Vec<Metric> {
    let spans = probe.rec.spans();
    let mut layers = campaign_layers(
        &spans,
        &pass.generations,
        pass.evaluations,
        (pass.workers, eval_threads(pass.workers)),
        pass.campaign_ms,
    );

    let mut cache = bea_detect::CacheStats::default();
    for outcome in
        pass.results.iter().flat_map(|(r, _)| &r.cells).filter_map(|c| c.outcome.as_ref())
    {
        cache.merge(&outcome.cache_stats().unwrap_or_default());
    }
    layers.extend(cache_layers(plan.cache, &cache));

    let evals = untraced.evaluations.max(1) as f64;
    let flop = gflop_per_forward(plan.arch, setup.images[0].width(), setup.images[0].height());
    let calls =
        spans.iter().filter(|s| s.name == "detect.batch" || s.name == "detect.masked_batch");
    let (images, busy_s) = calls.fold((0u64, 0.0), |(n, t), s| (n + s.items, t + s.ms() / 1e3));
    layers.extend([
        Metric::new(
            "tensor.allocs_per_eval",
            untraced.allocations as f64 / evals,
            "count",
            untraced.evaluations as usize,
            "allocator calls per evaluation in the untraced pass",
        ),
        Metric::new(
            "tensor.scratch_high_water_bytes",
            bea_tensor::scratch::stats().high_water_bytes as f64,
            "bytes",
            1,
            "scratch::stats().high_water_bytes",
        ),
        Metric::new(
            "tensor.gflop_per_eval",
            flop,
            "GFLOP",
            1,
            "computed from layer shapes (full forward)",
        ),
        Metric::new(
            "tensor.gflops_achieved",
            flop * images as f64 / busy_s,
            "GFLOP/s",
            images as usize,
            "computed: full-forward GFLOP x images / evaluation-call busy time",
        ),
    ]);

    let config = plan.attack();
    let mut replay = Replay::default();
    let replay_start = Instant::now();
    let replay_id = probe.rec.id();
    for (result, ids) in pass.results.iter().take(2) {
        for (cell, id) in result.cells.iter().zip(ids) {
            if let Some(o) = &cell.outcome {
                let image = &setup.images[cell.spec.image_index];
                replay.cell(probe, replay_id, *id, image, o, config.epsilon, config.norm);
            }
        }
    }
    probe.rec.record_with_id(replay_id, 0, "replay", 0, replay_start, Instant::now(), 0);
    layers.extend(replay.metrics());

    let spans = probe.rec.spans();
    layers.extend(transfer_layers(plan.transfer, &spans, pass));
    layers.extend(crate::serve::absent_layers("grid workloads run no server"));
    let overhead = 1.0
        - (pass.evaluations as f64 / pass.campaign_ms)
            / (untraced.evaluations as f64 / untraced.campaign_ms);
    layers.push(Metric::new(
        "trace.overhead_share",
        overhead,
        "ratio",
        pass.generations.len(),
        "1 - traced evals/s / untraced evals/s",
    ));
    layers
}

pub fn cache_layers(cached: bool, s: &bea_detect::CacheStats) -> Vec<Metric> {
    if !cached {
        let why = "cache off: every evaluation runs the full forward";
        return vec![
            Metric::absent("cache.hit_ratio", "ratio", why),
            Metric::absent("cache.incremental_ratio", "ratio", why),
            Metric::absent("cache.fallbacks", "count", why),
            Metric::absent("cache.evictions", "count", why),
        ];
    }
    let lookups = (s.hits + s.misses) as usize;
    let masked = (s.incremental + s.fallbacks) as usize;
    vec![
        Metric::new(
            "cache.hit_ratio",
            s.hits as f64 / lookups.max(1) as f64,
            "ratio",
            lookups,
            "clean-pass lookups",
        ),
        Metric::new(
            "cache.incremental_ratio",
            s.incremental as f64 / masked.max(1) as f64,
            "ratio",
            masked,
            "masked evaluations on the dirty-window path",
        ),
        Metric::new(
            "cache.fallbacks",
            s.fallbacks as f64,
            "count",
            masked,
            "full-forward fallbacks",
        ),
        Metric::new("cache.evictions", s.evictions as f64, "count", lookups, "LRU evictions"),
    ]
}

/// The transfer layer's metrics on workloads without a transfer phase.
pub fn transfer_absent() -> Vec<Metric> {
    let why = "only grid-detr runs the transfer phase";
    vec![
        Metric::absent("transfer.cells", "count", why),
        Metric::absent("transfer.detect_images", "count", why),
        Metric::absent("transfer.cell_p50_ms", "ms", why),
        Metric::absent("transfer.idle_share", "ratio", why),
    ]
}

fn transfer_layers(enabled: bool, spans: &[Span], pass: &Pass) -> Vec<Metric> {
    if !enabled {
        return transfer_absent();
    }
    let groups: Vec<&Span> = spans.iter().filter(|s| s.name == "transfer.group").collect();
    let ids: HashSet<u64> = groups.iter().map(|s| s.id).collect();
    let calls: Vec<&Span> =
        spans.iter().filter(|s| s.name.starts_with("detect.") && ids.contains(&s.group)).collect();
    let images: u64 = calls.iter().map(|s| s.items).sum();
    // Each group runs one masked batch over all of its cells' champions.
    let per_cell: Vec<f64> = groups
        .iter()
        .filter_map(|g| {
            let cells = calls.iter().find(|c| c.group == g.id && c.name != "detect.single")?.items;
            (cells > 0).then(|| g.ms() / cells as f64)
        })
        .collect();
    let busy: f64 = groups.iter().map(|s| s.ms()).sum();
    vec![
        Metric::new(
            "transfer.cells",
            pass.transfer_cells as f64,
            "count",
            pass.transfer_cells,
            "matrix cells traced",
        ),
        Metric::new(
            "transfer.detect_images",
            images as f64,
            "count",
            calls.len(),
            "images through target detectors",
        ),
        Metric::new(
            "transfer.cell_p50_ms",
            median(&per_cell),
            "ms",
            per_cell.len(),
            "group wall (build to drop) / cells in the group",
        ),
        Metric::new(
            "transfer.idle_share",
            1.0 - busy / (pass.workers.max(1) as f64 * pass.transfer_ms),
            "ratio",
            groups.len(),
            "1 - sum(group busy) / (workers x transfer wall)",
        ),
    ]
}
