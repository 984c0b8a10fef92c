//! Reference vs blocked kernel throughput on the detectors' hot shapes.
//!
//! Unlike the criterion benches this is a plain `harness = false` binary
//! so it can emit a machine-readable `BENCH_kernels.json` and act as a CI
//! gate:
//!
//! ```text
//! cargo bench -p bea-bench --bench kernels -- --check --out BENCH_kernels.json
//! ```
//!
//! * `--quick` shrinks the repetition count for smoke runs,
//! * `--threads N` sets the kernel worker-thread count (0 = all cores;
//!   default 1) — CI smoke runs the bench at 1 and N threads and the
//!   run log keeps one record per count,
//! * `--check` exits non-zero when the blocked convolution is not faster
//!   than the reference one on the medium shape, or when the DETR
//!   attention matmul misses its minimum speedup (the CI regression
//!   gates),
//! * `--out PATH` upserts the timing records into the keyed run log (one
//!   run per `(--quick, --threads)` pair; see `support/runlog.rs`), so a
//!   quick CI run never clobbers a full-run baseline.
//!
//! Every case first asserts that the two variants produce `==`-identical
//! outputs **at the configured thread count**, so the numbers always
//! compare equivalent kernels and a threaded run doubles as the
//! threaded-equals-reference equality gate. Each case also records
//! `allocs_per_forward` — heap allocations during one warmed
//! blocked-kernel forward, counted by a `#[global_allocator]` wrapper —
//! which is 0 for every kernel shape at 1 thread now that weights are
//! pre-packed and intermediates come from the scratch arenas (worker
//! threads beyond the first are scoped spawns, so multi-thread runs pay
//! a handful of allocations per call by design).

#[path = "support/alloc_counter.rs"]
mod alloc_counter;
#[path = "support/runlog.rs"]
mod runlog;

use bea_core::telemetry::JsonObject;
use bea_tensor::{Conv2d, FeatureMap, KernelPolicy, Matrix, WeightInit};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator::new();

/// One reference-vs-blocked measurement.
struct Case {
    name: &'static str,
    reference_ms: f64,
    blocked_ms: f64,
    /// Heap allocations in one warmed blocked-kernel forward.
    allocs_per_forward: u64,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.blocked_ms.max(1e-12)
    }

    fn json(&self) -> String {
        JsonObject::new()
            .string("name", self.name)
            .float("reference_ms", self.reference_ms)
            .float("blocked_ms", self.blocked_ms)
            .float("speedup", self.speedup())
            .integer("allocs_per_forward", self.allocs_per_forward)
            .finish()
    }
}

/// Allocations across one call of `f`, which must already be warm (the
/// timing loops double as warm-up, so the scratch pools hold every buffer
/// the call needs).
fn allocs_in<R, F: FnMut() -> R>(mut f: F) -> u64 {
    let before = ALLOC.snapshot();
    let _ = black_box(f());
    ALLOC.snapshot().since(&before).allocations
}

/// Best-of-`reps` wall time for one closure, in milliseconds.
fn time_ms<R, F: FnMut() -> R>(reps: usize, mut f: F) -> f64 {
    let _ = black_box(f()); // warm up caches outside the timed region
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        let _ = black_box(f());
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn seeded_map(channels: usize, h: usize, w: usize, seed: u64) -> FeatureMap {
    let mut init = WeightInit::from_seed(seed);
    let mut map = FeatureMap::zeros(channels, h, w);
    for v in map.as_mut_slice() {
        *v = init.uniform(-3.0, 3.0);
    }
    map
}

fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut init = WeightInit::from_seed(seed);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = init.uniform(-1.0, 1.0);
    }
    m
}

/// Conv shape descriptor: (name, oc, ic, kernel, stride, padding, in_h, in_w).
type ConvShape = (&'static str, usize, usize, usize, usize, usize, usize, usize);

/// The detectors' convolution hot shapes.
///
/// `conv_yolo_stem` mirrors the YOLO stem (6×6 stride-2 over the full
/// image); `conv_medium` is the CI gate shape; `conv_1x1` is the
/// degenerate pointwise case where im2col is a pure copy.
const CONV_SHAPES: [ConvShape; 3] = [
    ("conv_yolo_stem", 16, 3, 6, 2, 2, 48, 128),
    ("conv_medium", 8, 4, 3, 1, 1, 32, 64),
    ("conv_1x1", 8, 8, 1, 1, 0, 24, 48),
];

fn conv_case(shape: ConvShape, reps: usize) -> Case {
    let (name, oc, ic, k, stride, padding, in_h, in_w) = shape;
    let mut init = WeightInit::from_seed(7);
    let conv = Conv2d::seeded(oc, ic, k, k, stride, padding, &mut init)
        .expect("bench conv shape must be valid");
    let input = seeded_map(ic, in_h, in_w, 11);

    let mut reference = conv.clone();
    reference.set_kernel_policy(KernelPolicy::Reference);
    let mut blocked = conv;
    blocked.set_kernel_policy(KernelPolicy::Blocked);
    assert_eq!(
        reference.forward(&input).unwrap(),
        blocked.forward(&input).unwrap(),
        "{name}: policies must agree before timing"
    );

    let reference_ms = time_ms(reps, || reference.forward(black_box(&input)).unwrap());
    let blocked_ms = time_ms(reps, || blocked.forward(black_box(&input)).unwrap());
    let allocs_per_forward = allocs_in(|| blocked.forward(black_box(&input)).unwrap());
    Case { name, reference_ms, blocked_ms, allocs_per_forward }
}

/// DETR's matrix hot shapes: encoder feed-forward (NN), attention
/// `q·kᵀ` (NT) and `scores·v` (NN over the wide score matrix).
fn matmul_cases(reps: usize) -> Vec<Case> {
    let tokens = seeded_matrix(384, 24, 3);
    let dense = seeded_matrix(24, 24, 4);
    let keys = seeded_matrix(384, 24, 5);
    let scores = seeded_matrix(384, 384, 6);
    let values = seeded_matrix(384, 24, 8);

    let nn = |a: &Matrix, b: &Matrix, name: &'static str, reps: usize| {
        assert_eq!(
            a.matmul_policy(b, KernelPolicy::Reference).unwrap(),
            a.matmul_policy(b, KernelPolicy::Blocked).unwrap(),
            "{name}: policies must agree before timing"
        );
        let reference_ms = time_ms(reps, || {
            black_box(a).matmul_policy(black_box(b), KernelPolicy::Reference).unwrap()
        });
        let blocked_ms = time_ms(reps, || {
            black_box(a).matmul_policy(black_box(b), KernelPolicy::Blocked).unwrap()
        });
        let allocs_per_forward =
            allocs_in(|| black_box(a).matmul_policy(black_box(b), KernelPolicy::Blocked).unwrap());
        Case { name, reference_ms, blocked_ms, allocs_per_forward }
    };

    assert_eq!(
        tokens.matmul_nt_policy(&keys, KernelPolicy::Reference).unwrap(),
        tokens.matmul_nt_policy(&keys, KernelPolicy::Blocked).unwrap(),
        "matmul_nt_qk: policies must agree before timing"
    );
    let nt_reference_ms = time_ms(reps, || {
        black_box(&tokens).matmul_nt_policy(black_box(&keys), KernelPolicy::Reference).unwrap()
    });
    let nt_blocked_ms = time_ms(reps, || {
        black_box(&tokens).matmul_nt_policy(black_box(&keys), KernelPolicy::Blocked).unwrap()
    });
    let nt_allocs = allocs_in(|| {
        black_box(&tokens).matmul_nt_policy(black_box(&keys), KernelPolicy::Blocked).unwrap()
    });
    let nt = Case {
        name: "matmul_nt_qk",
        reference_ms: nt_reference_ms,
        blocked_ms: nt_blocked_ms,
        allocs_per_forward: nt_allocs,
    };

    vec![
        nn(&tokens, &dense, "matmul_nn_ffn", reps),
        nt,
        nn(&scores, &values, "matmul_nn_scores_v", reps),
    ]
}

struct Options {
    quick: bool,
    check: bool,
    out: Option<String>,
    threads: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options { quick: false, check: false, out: None, threads: 1 };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => options.quick = true,
            "--check" => options.check = true,
            "--out" => options.out = Some(args.next().ok_or("--out needs a value")?),
            "--threads" => {
                let value = args.next().ok_or("--threads needs a value")?;
                options.threads = value.parse().map_err(|e| format!("--threads {value:?}: {e}"))?;
            }
            // cargo bench forwards a --bench marker to harness=false targets.
            "--bench" => {}
            "--help" | "-h" => {
                return Err("usage: kernels [--quick] [--check] [--out PATH] [--threads N]\n\
                            --quick reduces repetitions for smoke runs\n\
                            --threads sets the kernel worker threads (0 = all \
                            cores; default 1); outputs are asserted identical \
                            at any count\n\
                            --check exits 1 if blocked conv is not faster than \
                            reference on the medium shape or the DETR matmul \
                            misses its minimum speedup\n\
                            --out upserts the timings into the keyed run log"
                    .into())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(options)
}

/// The `--check` floor for the DETR attention matmul (`scores·v`, the
/// detector's widest GEMM): the blocked kernel must beat the reference
/// loops by at least this factor. Kept modest — CI boxes are small and
/// noisy — but strictly above parity so a silent fall-back to scalar
/// code fails the gate.
const MIN_DETR_MATMUL_SPEEDUP: f64 = 1.1;

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let reps = if options.quick { 5 } else { 30 };
    bea_tensor::threads::set_threads(options.threads);
    println!(
        "kernel threads: {} requested, {} resolved",
        options.threads,
        bea_tensor::threads::threads()
    );

    let mut cases: Vec<Case> = CONV_SHAPES.iter().map(|&s| conv_case(s, reps)).collect();
    cases.extend(matmul_cases(reps));

    println!(
        "{:<20} {:>14} {:>12} {:>9} {:>20}",
        "case", "reference_ms", "blocked_ms", "speedup", "allocs_per_forward"
    );
    for case in &cases {
        println!(
            "{:<20} {:>14.4} {:>12.4} {:>8.2}x {:>20}",
            case.name,
            case.reference_ms,
            case.blocked_ms,
            case.speedup(),
            case.allocs_per_forward
        );
    }

    if let Some(path) = &options.out {
        let rendered: Vec<String> = cases.iter().map(Case::json).collect();
        let run = JsonObject::new()
            .boolean("quick", options.quick)
            .integer("reps", reps as u64)
            .integer("threads", options.threads as u64)
            .raw("cases", &format!("[{}]", rendered.join(",")))
            .finish();
        if let Err(e) = runlog::merge_keyed_run(path, "kernels", &run) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("merged into {path}");
    }

    if options.check {
        let gate = cases.iter().find(|c| c.name == "conv_medium").expect("gate case exists");
        if gate.speedup() < 1.0 {
            eprintln!(
                "kernel regression: blocked conv is slower than reference on \
                 conv_medium ({:.4} ms vs {:.4} ms)",
                gate.blocked_ms, gate.reference_ms
            );
            return ExitCode::FAILURE;
        }
        let detr =
            cases.iter().find(|c| c.name == "matmul_nn_scores_v").expect("DETR gate case exists");
        if detr.speedup() < MIN_DETR_MATMUL_SPEEDUP {
            eprintln!(
                "kernel regression: blocked DETR matmul_nn_scores_v is only {:.2}x \
                 reference ({:.4} ms vs {:.4} ms); the gate requires {MIN_DETR_MATMUL_SPEEDUP}x",
                detr.speedup(),
                detr.blocked_ms,
                detr.reference_ms
            );
            return ExitCode::FAILURE;
        }
        println!(
            "check passed: blocked conv_medium is {:.2}x reference, \
             DETR matmul_nn_scores_v is {:.2}x (floor {MIN_DETR_MATMUL_SPEEDUP}x)",
            gate.speedup(),
            detr.speedup()
        );
    }
    ExitCode::SUCCESS
}
