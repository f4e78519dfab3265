//! The repository's benchmark: three closed-loop workloads over the Lift pipeline, with
//! end-to-end metrics measured untraced and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tune_cold|serve_warm|fig8_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print every metric by name
//! with its unit, including those that only one workload defines. See `README.md`.

mod fig8;
mod layers;
mod record;
mod rng;
mod serve_warm;
mod stats;
mod tune_cold;

use std::process::ExitCode;
use std::time::Instant;

use stats::{geomean, quantile, tail_percentile};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["tune_cold", "serve_warm", "fig8_sweep"];

/// The end-to-end metrics every workload reports with `--trace 0`, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("kernel_time_geomean", "cycles"),
    ("kernel_loc", "lines"),
    ("peak_rss_mb", "MB"),
];

/// The measured loop's clock.
///
/// Every workload times its first set-up before the loop and the rest inside it, spread
/// over the run. The host's speed drifts over seconds, so set-ups timed back to back before
/// the loop would see one moment of it, while the loop's metrics average over the whole
/// run. The clock stops while a set-up runs, so the loop's wall time leaves set-ups out.
pub struct LoopClock {
    start: Instant,
    paused_s: f64,
}

impl LoopClock {
    pub fn start() -> LoopClock {
        LoopClock {
            start: Instant::now(),
            paused_s: 0.0,
        }
    }

    /// Seconds since the start, without the set-ups.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.paused_s
    }
}

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The request mix, for the summary.
    pub mix: &'static str,
    /// Share of requests whose cache key repeats an earlier request's.
    pub repeat_share: f64,
    /// Share of requests whose key repeats an earlier request of the same batch, so that
    /// they share its validation (`serve_warm` only).
    pub batch_shared_share: f64,
    /// Wall time of each set-up sample, in seconds (`setup_s` is their median).
    pub setup_s: Vec<f64>,
    /// Latency of every request of the measured loop, in ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the measured loop, in seconds.
    pub wall_s: f64,
    pub attempted: usize,
    /// Failed or mismatched operations (counted in `failed_frac`).
    pub failed: usize,
    /// Every check that failed, one line each (printed to standard error).
    pub problems: Vec<String>,
    /// Mismatches that are confirmed defects of the reference, not of the program (the
    /// MD-large f32 oracle); counted in `failed` but they leave `correct` true.
    pub oracle_mismatches: usize,
    /// Modelled time of every kernel the workload delivered.
    pub kernel_times: Vec<f64>,
    /// Non-comment OpenCL lines of the delivered kernels.
    pub kernel_loc: usize,
    /// Hand-written over generated modelled time at `barrier+cf+array` (Figure 8 only).
    pub fig8_ratios: Vec<f64>,
    /// Deterministic results, compared across runs of the same build and seed.
    pub digest: Vec<String>,
    /// Per-layer metrics of a traced run.
    pub trace: Option<Vec<(&'static str, f64)>>,
    /// Extra lines for the summary (per-request layer breakdowns of a traced run).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(mix: &'static str) -> Outcome {
        Outcome {
            mix,
            ..Outcome::default()
        }
    }

    /// Runs `block` back-to-back set-ups as one set-up sample and records their mean wall
    /// time (a set-up of a fraction of a millisecond is too short to time on its own).
    /// Returns the result of the last set-up.
    pub fn time_setup<T>(&mut self, block: usize, mut setup: impl FnMut() -> T) -> T {
        let start = Instant::now();
        let mut result = setup();
        for _ in 1..block {
            result = setup();
        }
        self.setup_s
            .push(start.elapsed().as_secs_f64() / block as f64);
        result
    }

    /// [`Outcome::time_setup`] inside the measured loop, with the loop's clock stopped.
    pub fn time_setup_in_loop<T>(
        &mut self,
        clock: &mut LoopClock,
        block: usize,
        setup: impl FnMut() -> T,
    ) -> T {
        let start = Instant::now();
        let result = self.time_setup(block, setup);
        clock.paused_s += start.elapsed().as_secs_f64();
        result
    }

    /// Records a failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn correct(&self) -> bool {
        self.failed == self.oracle_mismatches
    }
}

fn parse_args() -> Result<(String, Settings), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok((
        workload,
        Settings {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

/// Runs one workload by name.
pub fn run_workload(workload: &str, settings: &Settings) -> Outcome {
    match workload {
        "tune_cold" => tune_cold::run(settings, lift_tuner::Workload::all),
        "serve_warm" => serve_warm::run(settings),
        "fig8_sweep" => fig8::run(settings),
        other => unreachable!("workload {other} was validated by parse_args"),
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(out: &Outcome, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    let values = [
        quantile(&out.setup_s, 0.5).unwrap_or(f64::NAN),
        out.latencies_ms.len() as f64 / out.wall_s,
        quantile(&out.latencies_ms, 0.5).unwrap_or(f64::NAN),
        geomean(&out.kernel_times).unwrap_or(f64::NAN),
        out.kernel_loc as f64,
        peak_rss_mb,
    ];
    END_TO_END.iter().map(|(n, _)| *n).zip(values).collect()
}

/// The metrics of the result line, with their units: the per-layer metrics of a traced
/// run, the end-to-end metrics `e2e` otherwise.
pub fn result_metrics(
    out: &Outcome,
    e2e: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    let (values, units) = match &out.trace {
        Some(trace) => (trace.as_slice(), layers::PER_LAYER),
        None => (e2e, END_TO_END),
    };
    values
        .iter()
        .zip(units)
        .map(|((name, value), (_, unit))| (*name, *value, *unit))
        .collect()
}

/// The last line of output: one JSON object with `correct`, `attempted`, `failed` and the
/// metrics with their units.
pub fn result_json(correct: bool, out: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn print_summary(
    workload: &str,
    settings: &Settings,
    out: &Outcome,
    metrics: &[(&str, f64, &str)],
) {
    println!(
        "perfbench {workload}: seed {} seconds {} trace {} threads {}",
        settings.seed,
        settings.seconds,
        u8::from(settings.trace),
        tune_cold::THREADS
    );
    println!(
        "  mix: {}; repeated requests: {:.1}%; sharing a validation within their batch: {:.1}%",
        out.mix,
        out.repeat_share * 100.0,
        out.batch_shared_share * 100.0
    );
    for (name, value, unit) in metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    for note in &out.notes {
        println!("  {note}");
    }
    let n = out.latencies_ms.len();
    match tail_percentile(&out.latencies_ms, 0.9) {
        Some(p90) => println!("  {:<32} {p90:>14.4} ms ({n} samples)", "latency_p90_ms"),
        None => println!(
            "  {:<32} {:>14} ms ({n} samples; fewer than 10 beyond p90)",
            "latency_p90_ms", "n/a"
        ),
    }
    match geomean(&out.fig8_ratios) {
        Some(r) => println!("  {:<32} {r:>14.4} x", "fig8_ratio_geomean"),
        None => println!(
            "  {:<32} {:>14} x (fig8_sweep only)",
            "fig8_ratio_geomean", "n/a"
        ),
    }
    println!(
        "  {:<32} {:>14.4} ratio ({} of {})",
        "failed_frac",
        stats::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    for p in &out.problems {
        eprintln!("perfbench {workload}: {p}");
    }
}

fn main() -> ExitCode {
    let (workload, settings) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = run_workload(&workload, &settings);
    let rss = peak_rss_mb();
    let e2e = end_to_end(&out, rss);
    if let Err(problem) = record::check(&workload, &settings, &out, &e2e) {
        out.fail(problem);
    }
    let metrics = result_metrics(&out, &e2e);
    print_summary(&workload, &settings, &out, &metrics);
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) || out.attempted == 0 {
        eprintln!("perfbench {workload}: a metric could not be measured");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(out.correct(), &out, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use lift_telemetry::json::{parse, Json};

    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn keys(j: &Json) -> Vec<&str> {
        match j {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("expected an object, got {j:?}"),
        }
    }

    fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
    }

    /// The names and units of a metric list in `BENCHMARK.json`, checking each entry's keys.
    fn metric_list<'a>(doc: &'a Json, list: &str, entry_keys: &[&str]) -> Vec<(&'a str, &'a str)> {
        doc.get(list)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                assert_eq!(keys(m), entry_keys, "{list} entry keys");
                let better = str_of(m, "better");
                assert!(better == "higher" || better == "lower", "{better}");
                (str_of(m, "name"), str_of(m, "unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_metric_the_benchmark_reports() {
        let doc = benchmark_json();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                assert_eq!(keys(w), ["name", "why"]);
                let why = str_of(w, "why");
                assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
                str_of(w, "name")
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = metric_list(&doc, "end_to_end", &["name", "unit", "better", "bound"]);
        assert_eq!(e2e, END_TO_END);
        for m in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
        {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        let setup = &doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")[0];
        assert_eq!(
            (
                str_of(setup, "name"),
                str_of(setup, "unit"),
                str_of(setup, "better")
            ),
            ("setup_s", "s", "lower")
        );
        assert_eq!(
            metric_list(&doc, "per_layer", &["name", "unit", "better"]),
            layers::PER_LAYER
        );
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        names.extend(layers::PER_LAYER.iter().map(|(n, _)| *n));
        for name in &names {
            assert!(stats::valid_name(name), "invalid name {name}");
        }
        for (_, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            assert!(stats::valid_unit(unit), "invalid unit {unit}");
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "every name is used once");
    }

    fn tiny(trace: bool) -> Settings {
        Settings {
            seed: 3,
            seconds: 0.2,
            trace,
        }
    }

    /// Renders the result line of `out` and checks its shape.
    fn check_result(out: &Outcome, trace: bool) {
        let metrics = result_metrics(out, &end_to_end(out, 1.0));
        assert_eq!(out.trace.is_some(), trace);
        assert!(metrics.iter().all(|(_, v, _)| v.is_finite()), "{metrics:?}");
        let doc = parse(&result_json(out.correct(), out, &metrics)).expect("result line parses");
        assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
        let expected: Vec<&str> = if trace {
            layers::PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        assert_eq!(keys(doc.get("metrics").expect("metrics")), expected);
    }

    #[test]
    fn tune_cold_smoke() {
        let programs = || vec![lift_tuner::Workload::matrix_multiply()];
        let out = tune_cold::run(&tiny(false), programs);
        assert_eq!(out.attempted, 4, "one program on two devices, two passes");
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!(out.repeat_share, 0.0);
        check_result(&out, false);

        let out = tune_cold::run(&tiny(true), programs);
        assert_eq!(out.attempted, 1, "the traced run covers the nvidia request");
        assert!(out.correct(), "{:?}", out.problems);
        check_result(&out, true);
        let trace = out.trace.as_ref().expect("traced");
        let get = |name: &str| trace.iter().find(|(n, _)| *n == name).expect(name).1;
        assert_eq!(get("service.misses"), 1.0);
        assert!(get("rewrite.enumerate_calls") >= 1.0);
        assert!(get("unattributed_frac") < 0.5);
    }

    #[test]
    fn tune_cold_keeps_the_autotune_budgets() {
        for device in [
            lift_vgpu::DeviceProfile::nvidia(),
            lift_vgpu::DeviceProfile::amd(),
        ] {
            for w in lift_tuner::Workload::all() {
                let ours = tune_cold::config(&w, &device, 5);
                let mut theirs = lift_bench::autotune_config(&w, &device);
                let lift_tuner::Strategy::RandomHillClimb { samples, .. } = theirs.strategy else {
                    panic!("{}: not a random hill climb", w.name);
                };
                theirs.strategy = lift_tuner::Strategy::RandomHillClimb {
                    seed: 5,
                    samples,
                    max_steps: 1,
                };
                theirs.base.threads = tune_cold::THREADS;
                // `TuningConfig` has no `PartialEq`; its debug rendering shows every field.
                assert_eq!(
                    format!("{ours:?}"),
                    format!("{theirs:?}"),
                    "{} on {}",
                    w.name,
                    device.name
                );
            }
        }
    }

    #[test]
    fn serve_warm_smoke() {
        for trace in [false, true] {
            let out = serve_warm::run(&tiny(trace));
            assert!(out.attempted > 0);
            assert!(out.correct(), "{:?}", out.problems);
            assert_eq!(out.repeat_share, 1.0, "every request is a warm hit");
            assert!(
                out.batch_shared_share > 0.0 && out.batch_shared_share < 1.0,
                "{}",
                out.batch_shared_share
            );
            assert_eq!(out.kernel_times.len(), 5);
            check_result(&out, trace);
        }
    }

    #[test]
    fn fig8_sweep_smoke() {
        let out = fig8::run(&tiny(false));
        assert_eq!(out.attempted % 96, 0, "whole sweeps of 96 kernels");
        let sweeps = out.attempted / 96;
        // MD large: the reference and all three generated kernels miss the f32 oracle.
        assert_eq!(out.failed, 4 * sweeps, "{:?}", out.problems);
        assert_eq!(out.oracle_mismatches, out.failed);
        assert!(out.correct());
        assert_eq!(out.fig8_ratios.len(), 48, "24 cases on two devices");
        assert_eq!(
            out.kernel_times.len(),
            144,
            "72 generated kernels on two devices"
        );
        check_result(&out, false);
    }
}
