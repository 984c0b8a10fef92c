//! Campaign-cell instrumentation shared by the grid workloads and the
//! direct re-run that checks served results: generation boundaries from
//! the `GenerationObserver` callback, cell spans from the detector
//! wrapper, and the per-layer figures derived from both.

use crate::probe::{Capture, Traced, DETECT_SPANS};
use crate::report::{mean, median, Metric};
use crate::trace::{Recorder, Span};
use bea_core::campaign::CellSpec;
use bea_core::objectives::{obj_degrad, obj_intensity, DistanceField};
use bea_core::telemetry::parse_json;
use bea_core::AttackOutcome;
use bea_detect::{cache::mask_dirty_rect, Architecture, Detector, ModelZoo};
use bea_image::Image;
use bea_tensor::norm::NormKind;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tracing state of one traced pass.
pub struct Probe {
    pub rec: Arc<Recorder>,
    pub captures: Arc<Mutex<Vec<(u64, Capture)>>>,
}

impl Probe {
    pub fn new() -> Self {
        Self { rec: Arc::new(Recorder::new()), captures: Arc::new(Mutex::new(Vec::new())) }
    }

    /// Wraps a freshly built detector so its calls are timed.
    pub fn wrap(
        &self,
        inner: Box<dyn Detector>,
        kind: &'static str,
        ids: (u64, u64),
        start: Instant,
    ) -> Box<dyn Detector> {
        Box::new(Traced::new(
            inner,
            Arc::clone(&self.rec),
            kind,
            ids,
            start,
            Arc::clone(&self.captures),
        ))
    }

    pub fn capture(&self, group: u64) -> Option<Capture> {
        let captures = self.captures.lock().expect("capture sink lock poisoned");
        captures.iter().find(|(g, _)| *g == group).map(|(_, c)| c.clone())
    }
}

/// One finished generation, as the observer saw it.
#[derive(Debug, Clone, Copy)]
pub struct Generation {
    /// Generation 0: the evaluation of the initial population, timed from
    /// the moment the cell's detector was asked for, so it includes the
    /// model build. Generation latencies leave it out.
    pub initial: bool,
    /// Wall time since the previous boundary of the same cell.
    pub wall_ms: f64,
    pub evaluate_ms: f64,
    pub sort_ms: f64,
    pub select_ms: f64,
}

type CellKey = (String, u64, usize);

fn key(spec: &CellSpec) -> CellKey {
    (spec.group.clone(), spec.model_seed, spec.image_index)
}

/// Generation boundaries per cell, fed by `detector_for` (cell start)
/// and the `GenerationObserver` callback (each generation's end).
#[derive(Default)]
pub struct CellClock {
    cells: Mutex<HashMap<CellKey, (u64, Instant)>>,
    generations: Mutex<Vec<Generation>>,
}

impl CellClock {
    /// Marks the start of a cell with span id `id`.
    pub fn start(&self, spec: &CellSpec, id: u64, at: Instant) {
        self.cells.lock().expect("cell clock lock poisoned").insert(key(spec), (id, at));
    }

    /// The span id a cell started under.
    pub fn id(&self, spec: &CellSpec) -> Option<u64> {
        self.cells.lock().expect("cell clock lock poisoned").get(&key(spec)).map(|(id, _)| *id)
    }

    /// Observer body: closes the cell's current generation.
    pub fn observe(&self, spec: &CellSpec, line: &str, rec: Option<&Recorder>) {
        let now = Instant::now();
        let record = parse_json(line).ok();
        let field = |name: &str| {
            record.as_ref().and_then(|r| r.get(name)).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
        };
        let (id, last) = {
            let mut cells = self.cells.lock().expect("cell clock lock poisoned");
            let Some(entry) = cells.get_mut(&key(spec)) else { return };
            let previous = entry.1;
            entry.1 = now;
            (entry.0, previous)
        };
        if let Some(rec) = rec {
            rec.record(id, "generation", id, last, now, 1);
        }
        self.generations.lock().expect("generation lock poisoned").push(Generation {
            initial: field("generation") == 0.0,
            wall_ms: now.duration_since(last).as_secs_f64() * 1e3,
            evaluate_ms: field("evaluate_ms"),
            sort_ms: field("sort_ms"),
            select_ms: field("select_ms"),
        });
    }

    pub fn generations(&self) -> Vec<Generation> {
        self.generations.lock().expect("generation lock poisoned").clone()
    }
}

/// Builds the zoo detector for a campaign cell.
pub fn zoo_detector(
    zoo: &ModelZoo,
    arch: Architecture,
    seed: u64,
    cache: bool,
) -> Box<dyn Detector> {
    if cache {
        zoo.cached_model(arch, seed)
    } else {
        zoo.model(arch, seed)
    }
}

/// Threads evaluating one cell's population: `Campaign` pins it to 1 when
/// cells run in parallel, otherwise the GA default (0) uses every core.
pub fn eval_threads(workers: usize) -> usize {
    if workers > 1 {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

pub fn arch_of(group: &str) -> Architecture {
    Architecture::EXTENDED.into_iter().find(|a| a.name() == group).unwrap_or(Architecture::Detr)
}

/// Calls a function repeatedly and returns its median time per call in
/// microseconds (batches of calls, so timer resolution does not matter).
fn time_us(mut call: impl FnMut()) -> f64 {
    const BATCH: usize = 16;
    let mut samples = Vec::with_capacity(9);
    for _ in 0..9 {
        let start = Instant::now();
        for _ in 0..BATCH {
            call();
        }
        samples.push(start.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
    }
    median(&samples)
}

/// Replayed timings of the mask and objective layers on inputs captured
/// during the traced pass.
#[derive(Default)]
pub struct Replay {
    pub apply_us: Vec<f64>,
    pub perturbed_pixels: Vec<f64>,
    pub dirty_share: Vec<f64>,
    pub degrad_us: Vec<f64>,
    pub dist_us: Vec<f64>,
    pub intensity_us: Vec<f64>,
}

impl Replay {
    /// Replays one cell: its champion-front masks on its clean image, and
    /// the predictions its detector wrapper kept.
    #[allow(clippy::too_many_arguments)]
    pub fn cell(
        &mut self,
        probe: &Probe,
        parent: u64,
        group: u64,
        image: &Image,
        outcome: &AttackOutcome,
        epsilon: f32,
        norm: NormKind,
    ) {
        const MASKS: usize = 4;
        let Some(capture) = probe.capture(group) else { return };
        let Some(clean) = capture.clean.as_ref() else { return };
        let masks: Vec<_> =
            outcome.result().pareto_front().into_iter().take(MASKS).map(|i| i.genome()).collect();
        let (w, h) = (image.width(), image.height());
        let field = DistanceField::new(w, h, clean, epsilon);
        let rec = &probe.rec;
        for mask in masks {
            let t = Instant::now();
            self.apply_us.push(time_us(|| {
                black_box(mask.apply(black_box(image)));
            }));
            rec.record(parent, "mask.apply", group, t, Instant::now(), 1);
            self.perturbed_pixels.push(mask.perturbed_pixel_count() as f64);
            self.dirty_share.push(mask_dirty_rect(mask).area() as f64 / (w * h) as f64);
            let t = Instant::now();
            self.dist_us.push(time_us(|| {
                black_box(field.objective_normalized(black_box(mask)));
            }));
            rec.record(parent, "objectives.dist", group, t, Instant::now(), 1);
            let t = Instant::now();
            self.intensity_us.push(time_us(|| {
                black_box(obj_intensity(black_box(mask), norm));
            }));
            rec.record(parent, "objectives.intensity", group, t, Instant::now(), 1);
        }
        for perturbed in capture.perturbed.iter().take(MASKS) {
            let t = Instant::now();
            self.degrad_us.push(time_us(|| {
                black_box(obj_degrad(black_box(clean), black_box(perturbed)));
            }));
            rec.record(parent, "objectives.degrad", group, t, Instant::now(), 1);
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let replayed = "replayed through the public function on captured inputs";
        vec![
            Metric::new(
                "mask.apply_us",
                median(&self.apply_us),
                "us",
                self.apply_us.len(),
                replayed,
            ),
            Metric::new(
                "mask.perturbed_pixels",
                mean(&self.perturbed_pixels),
                "count",
                self.perturbed_pixels.len(),
                "mean over champion-front masks",
            ),
            Metric::new(
                "mask.dirty_area_share",
                mean(&self.dirty_share),
                "ratio",
                self.dirty_share.len(),
                "mask_dirty_rect area / image area, mean over front masks",
            ),
            Metric::new(
                "objectives.degrad_us",
                median(&self.degrad_us),
                "us",
                self.degrad_us.len(),
                replayed,
            ),
            Metric::new(
                "objectives.dist_us",
                median(&self.dist_us),
                "us",
                self.dist_us.len(),
                replayed,
            ),
            Metric::new(
                "objectives.intensity_us",
                median(&self.intensity_us),
                "us",
                self.intensity_us.len(),
                replayed,
            ),
        ]
    }
}

/// Detector, problem, GA and campaign figures of the traced campaign
/// cells (spans named `cell` and their detector calls). `eval_threads`
/// is how many threads evaluate one cell's population: detector time is
/// summed over them, so the evaluation wall time is scaled to match.
pub fn campaign_layers(
    spans: &[Span],
    generations: &[Generation],
    evaluations: u64,
    (workers, eval_threads): (usize, usize),
    wall_ms: f64,
) -> Vec<Metric> {
    let cells: Vec<&Span> = spans.iter().filter(|s| s.name == "cell").collect();
    let cell_ids: HashSet<u64> = cells.iter().map(|s| s.id).collect();
    let calls: Vec<&Span> = spans
        .iter()
        .filter(|s| DETECT_SPANS.contains(&s.name) && cell_ids.contains(&s.group))
        .collect();
    let evaluating: Vec<&Span> = calls
        .iter()
        .copied()
        .filter(|s| s.name == "detect.batch" || s.name == "detect.masked_batch")
        .collect();
    let gens = generations.len().max(1) as f64;
    let images: u64 = calls.iter().map(|s| s.items).sum();
    let busy_ms: f64 = calls.iter().map(|s| s.ms()).sum();
    let evaluating_ms: f64 = evaluating.iter().map(|s| s.ms()).sum();
    let per_image: Vec<f64> =
        evaluating.iter().filter(|s| s.items > 0).map(|s| s.ms() / s.items as f64).collect();
    let evaluate_ms: f64 = generations.iter().map(|g| g.evaluate_ms).sum();
    let evaluate_thread_ms = evaluate_ms * eval_threads as f64;
    let sort_ms: f64 = generations.iter().map(|g| g.sort_ms).sum();
    let select_ms: f64 = generations.iter().map(|g| g.select_ms).sum();
    let cell_ms: Vec<f64> = cells.iter().map(|s| s.ms()).collect();
    let cell_busy: f64 = cell_ms.iter().sum();
    let n = generations.len();
    vec![
        Metric::new(
            "detect.calls",
            calls.len() as f64,
            "count",
            calls.len(),
            "every wrapped detector call of the campaign cells",
        ),
        Metric::new(
            "detect.images_per_call",
            images as f64 / calls.len().max(1) as f64,
            "count",
            calls.len(),
            "images (or masks) per call",
        ),
        Metric::new(
            "detect.busy_ms",
            busy_ms / gens,
            "ms",
            n,
            "detector busy time per generation, summed over threads",
        ),
        Metric::new(
            "detect.ms_per_image",
            median(&per_image),
            "ms",
            per_image.len(),
            "p50 over evaluation calls",
        ),
        Metric::new(
            "detect.share_of_evaluate",
            evaluating_ms / evaluate_thread_ms,
            "ratio",
            evaluating.len(),
            "evaluation-call time / (sum of evaluate_ms x eval threads)",
        ),
        Metric::new(
            "problem.self_ms",
            (evaluate_thread_ms - evaluating_ms) / gens,
            "ms",
            n,
            "evaluate_ms x eval threads minus detector evaluation time, per generation",
        ),
        Metric::new("ga.sort_ms", sort_ms / gens, "ms", n, "per generation"),
        Metric::new("ga.select_ms", select_ms / gens, "ms", n, "per generation"),
        Metric::new(
            "ga.share",
            (sort_ms + select_ms) / (evaluate_ms + sort_ms + select_ms),
            "ratio",
            n,
            "(sort + select) / (evaluate + sort + select)",
        ),
        Metric::new(
            "ga.evaluations",
            evaluations as f64,
            "count",
            n,
            "exact: sum of Nsga2Result::evaluations",
        ),
        Metric::new(
            "grid.cells",
            cells.len() as f64,
            "count",
            cells.len(),
            "campaign cells traced",
        ),
        Metric::new(
            "grid.cell_p50_ms",
            median(&cell_ms),
            "ms",
            cell_ms.len(),
            "detector build to drop",
        ),
        Metric::new("grid.workers", workers as f64, "count", 1, "resolved campaign workers"),
        Metric::new(
            "grid.idle_share",
            1.0 - cell_busy / (workers as f64 * wall_ms),
            "ratio",
            cells.len(),
            "1 - sum(cell busy) / (workers x campaign wall)",
        ),
    ]
}
