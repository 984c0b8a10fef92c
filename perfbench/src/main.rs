//! End-to-end benchmark of the attack stack.
//!
//! ```text
//! bash perfbench/run.sh --workload grid-detr --seed 1 --seconds 20 --trace 0
//! bash perfbench/run.sh --self-test
//! ```
//!
//! Workloads: `grid-detr` and `grid-yolo-cache` run campaign grids in
//! this process; `serve-sharded` drives `serve_cli --reactor --shards 2`
//! over HTTP. `--trace 0` measures the end-to-end metrics untraced;
//! `--trace 1` adds a traced pass and reports the per-layer metrics.
//! Every metric is printed by name, unit and sample count, the full
//! record and the spans are written under `--out`, and the last line of
//! standard output is the JSON summary. Any failed, refused or
//! incorrect operation makes the run exit non-zero.

mod cells;
mod grid;
mod probe;
mod report;
mod serve;
mod trace;

use report::{print_metrics, result_json, summary_line, Metric, Outcome};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const WORKLOADS: [&str; 3] = ["grid-detr", "grid-yolo-cache", "serve-sharded"];

/// Set-ups per run; `setup_s` is their median, which the first, cold
/// set-up of a process does not move.
pub const SETUPS: usize = 9;

/// The end-to-end metrics every workload reports (`BENCHMARK.json`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_mean_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports (`BENCHMARK.json`).
const PER_LAYER: [&str; 45] = [
    "detect.calls",
    "detect.images_per_call",
    "detect.busy_ms",
    "detect.ms_per_image",
    "detect.share_of_evaluate",
    "problem.self_ms",
    "ga.sort_ms",
    "ga.select_ms",
    "ga.share",
    "grid.cells",
    "grid.cell_p50_ms",
    "grid.workers",
    "grid.idle_share",
    "cache.hit_ratio",
    "cache.incremental_ratio",
    "cache.fallbacks",
    "cache.evictions",
    "tensor.allocs_per_eval",
    "tensor.scratch_high_water_bytes",
    "tensor.gflop_per_eval",
    "tensor.gflops_achieved",
    "mask.apply_us",
    "mask.perturbed_pixels",
    "mask.dirty_area_share",
    "objectives.degrad_us",
    "objectives.dist_us",
    "objectives.intensity_us",
    "transfer.cells",
    "transfer.detect_images",
    "transfer.cell_p50_ms",
    "transfer.idle_share",
    "serve.admit_p50_ms",
    "serve.admit_tail_ms",
    "serve.queue_depth_max",
    "serve.in_flight_mean",
    "serve.jobs_failed",
    "serve.jobs_rejected",
    "serve.arena_high_water_bytes",
    "router.hop_ms",
    "router.shard_restarts",
    "loadgen.late_p99_ms",
    "loadgen.poll_interval_ms",
    "loadgen.connections",
    "trace.overhead_share",
    "ga.evaluations",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub out: PathBuf,
    pub self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        serve_bin: PathBuf::from(".bench_build/release/serve_cli"),
        out: PathBuf::from(".bench_out"),
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Runs one workload; a panic in the benchmark counts as a failed operation.
fn run_workload(args: &Args, tiny: bool) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| match args.workload.as_str() {
        "serve-sharded" => serve::run(args, tiny),
        name => grid::run(name, args, tiny),
    }));
    result.unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        let mut outcome = Outcome { attempted: 1, ..Outcome::default() };
        outcome.fail(format!("the benchmark panicked: {message}"));
        outcome
    })
}

/// Checks the metric sets, values and spans; every problem is a failure.
fn validate(outcome: &mut Outcome, traced: bool) {
    let names = |ms: &[Metric]| ms.iter().map(|m| m.name.clone()).collect::<BTreeSet<_>>();
    let want: BTreeSet<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    if outcome.failed == 0 && names(&outcome.end_to_end) != want {
        outcome.fail(format!("end-to-end metric set {:?} != {want:?}", names(&outcome.end_to_end)));
    }
    if traced && outcome.failed == 0 {
        let want: BTreeSet<String> = PER_LAYER.iter().map(|n| n.to_string()).collect();
        if names(&outcome.layers) != want {
            let got = names(&outcome.layers);
            outcome.fail(format!(
                "per-layer metric set differs: missing {:?}, extra {:?}",
                want.difference(&got).collect::<Vec<_>>(),
                got.difference(&want).collect::<Vec<_>>()
            ));
        }
    }
    let mut bad = Vec::new();
    for m in outcome.end_to_end.iter_mut().chain(outcome.layers.iter_mut()) {
        if !m.value.is_finite() || m.unit.is_empty() {
            bad.push(format!("metric {} is {} {:?}", m.name, m.value, m.unit));
            m.value = 0.0;
        }
    }
    for b in bad {
        outcome.fail(b);
    }
    if traced {
        if let Err(e) = trace::check_nesting(&outcome.spans, &["cell", "transfer.group", "job"]) {
            outcome.fail(format!("spans do not nest: {e}"));
        }
    }
}

/// The commit when the tree is a git checkout, else an FNV-1a hash of
/// the workspace sources (the checkout the benchmark runs in has no git
/// metadata).
fn source_identity() -> String {
    if let Ok(out) = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output() {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        for byte in file.to_string_lossy().bytes().chain(std::fs::read(&file).unwrap_or_default()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("source-fnv1a:{hash:016x}")
}

fn write_outputs(args: &Args, outcome: &Outcome) {
    let stem = format!("{}-s{}-t{}", args.workload, args.seed, u8::from(args.trace));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|_| {
            std::fs::write(
                args.out.join(format!("{stem}.json")),
                result_json(&args.workload, args.seed, args.trace, outcome),
            )
        })
        .and_then(|_| {
            if outcome.jobs.is_empty() {
                return Ok(());
            }
            let lines: String = outcome.jobs.iter().map(|j| format!("{j}\n")).collect();
            std::fs::write(args.out.join(format!("{stem}.jobs.jsonl")), lines)
        })
        .and_then(|_| {
            if args.trace {
                std::fs::write(
                    args.out.join(format!("{stem}.spans.jsonl")),
                    trace::to_jsonl(&outcome.spans),
                )
            } else {
                Ok(())
            }
        });
    match written {
        Ok(()) => println!("wrote {}", args.out.join(format!("{stem}.json")).display()),
        Err(e) => eprintln!("cannot write results under {}: {e}", args.out.display()),
    }
}

fn print_report(args: &Args, outcome: &Outcome) {
    println!("workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    for (k, v) in &outcome.config {
        println!("  config {k} = {v}");
    }
    print_metrics("end-to-end", &outcome.end_to_end);
    print_metrics("workload figures", &outcome.detail);
    if args.trace {
        print_metrics("per-layer (traced pass)", &outcome.layers);
        println!("span self times (name, spans, total ms, self ms):");
        for (name, n, total, own) in trace::totals_by_name(&outcome.spans) {
            println!("  {name:<24} {n:>6} {total:>12.3} {own:>12.3}");
        }
    }
    println!(
        "operations: {} attempted, {} failed (failed_ratio {:.6} over operations attempted)",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for failure in outcome.failures.iter().take(20) {
        println!("  FAILED: {failure}");
    }
}

/// Tiny runs of every workload at two seeds, asserting the metric sets,
/// finiteness, units, span nesting and that the seed changes the inputs.
fn self_test(args: &Args) -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for seed in [11, 12] {
            let run_args = Args {
                workload: workload.to_string(),
                seed,
                seconds: 1.0,
                trace: true,
                serve_bin: args.serve_bin.clone(),
                out: args.out.join("self-test"),
                self_test: false,
            };
            let mut outcome = run_workload(&run_args, true);
            validate(&mut outcome, true);
            let names: Vec<String> =
                outcome.end_to_end.iter().chain(&outcome.layers).map(|m| m.name.clone()).collect();
            if outcome.failed > 0 {
                ok = false;
                println!("FAIL {workload} seed {seed}: {:?}", outcome.failures);
            } else {
                println!(
                    "ok   {workload} seed {seed}: {} metrics, {} spans nest",
                    names.len(),
                    outcome.spans.len()
                );
            }
            runs.push((outcome.inputs.clone(), names));
        }
        if runs[0].0 == runs[1].0 {
            ok = false;
            println!("FAIL {workload}: seeds 11 and 12 generated the same inputs");
        }
        if runs[0].1 != runs[1].1 {
            ok = false;
            println!("FAIL {workload}: the metric set depends on the seed");
        }
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return if self_test(&args) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if !args.serve_bin.exists() && args.workload == "serve-sharded" {
        eprintln!(
            "server binary {} not found (build it with perfbench/run.sh)",
            args.serve_bin.display()
        );
        return ExitCode::from(2);
    }
    let mut outcome = run_workload(&args, false);
    validate(&mut outcome, args.trace);
    outcome.detail.push(Metric::new(
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        outcome.attempted as usize,
        "failed, refused, timed-out or incorrect operations / operations attempted",
    ));
    outcome.config("workload", &args.workload);
    outcome.config("seed", args.seed);
    outcome.config("run_seconds", args.seconds);
    outcome.config("source", source_identity());
    write_outputs(&args, &outcome);
    print_report(&args, &outcome);
    let correct = outcome.failed == 0;
    let metrics = if args.trace { &outcome.layers } else { &outcome.end_to_end };
    println!("{}", summary_line(correct, &outcome, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
