//! `fig8_sweep`: the paper's Figure 8 experiment as a closed loop. One sweep covers the 12
//! Table 1 cases at both problem sizes: each case's hand-written reference kernel is
//! executed once, and its Lift program is compiled (`codegen`) and executed (`vgpu`) at
//! each of the three optimisation levels. Every kernel is checked against the host
//! reference and modelled on both device profiles. A request is one checked kernel (96 per
//! sweep). Compared with `tune_cold`, `vgpu` runs a few large kernels instead of many small
//! ones, and `codegen` is under 1% of the time, so a faster compiler cannot show here but a
//! change to its output shows in the ratio.
//!
//! The seed only reorders each sweep; the inputs are those of `lift-benchmarks`. Every
//! sweep after the first repeats the same kernels (there is no cache to help), and their
//! modelled results must repeat bit for bit.
//!
//! MD at the large size fails the host check on both its kernels: they agree with each
//! other and with the host reference accumulated in f64, while the f32 host reference
//! loses digits to cancellation between terms of about 1.7e10. These mismatches are counted
//! in `failed`; each one is confirmed against the f64 sum, so `correct` stays true unless
//! a kernel also disagrees with that.

use std::time::Instant;

use lift_benchmarks::runner::compile_case;
use lift_benchmarks::{all_benchmarks, md, BenchmarkCase, ProblemSize};
use lift_codegen::CompilationOptions;
use lift_vgpu::{outputs_match, CostCounters, DeviceProfile, ExecutionRequest};

use crate::layers::{timed, Trace};
use crate::rng::{mix, shuffle};
use crate::{LoopClock, Outcome, Settings};

/// Kernels checked between set-up samples: building the 24 cases takes about 5 ms, a
/// checked kernel about 20 ms on average.
const SETUP_EVERY: usize = 12;

/// The optimisation levels of Figure 8; the ratio metric uses the last.
fn levels() -> [(&'static str, CompilationOptions); 3] {
    [
        ("none", CompilationOptions::none()),
        (
            "barrier+cf",
            CompilationOptions::without_array_access_simplification(),
        ),
        ("barrier+cf+array", CompilationOptions::all_optimisations()),
    ]
}

/// One kernel of the sweep: a case's reference kernel (`level == None`) or its generated
/// kernel at an optimisation level.
#[derive(Clone, Copy)]
struct Job {
    case: usize,
    level: Option<usize>,
}

/// What one checked kernel produced.
#[derive(Clone, PartialEq)]
struct Checked {
    counters: CostCounters,
    correct: bool,
    lines: usize,
}

fn build_cases() -> Vec<BenchmarkCase> {
    ProblemSize::all()
        .into_iter()
        .flat_map(all_benchmarks)
        .collect()
}

/// MD's host reference with the f32 interaction terms accumulated in f64.
fn md_reference_f64(positions: &[f32]) -> Vec<f32> {
    positions
        .iter()
        .map(|&pi| {
            let sum: f64 = positions
                .iter()
                .map(|&pj| {
                    let d = pj - pi;
                    let r2 = d * d + 0.01;
                    if r2 < md::CUTOFF_SQ {
                        let r6 = r2 * r2 * r2;
                        f64::from((1.0 / r6 - 1.0 / (r6 * r6)) * d)
                    } else {
                        0.0
                    }
                })
                .sum();
            sum as f32
        })
        .collect()
}

fn run_job(
    trace: &mut Option<Trace>,
    case: &BenchmarkCase,
    level: Option<usize>,
) -> Result<(Checked, Vec<f32>), String> {
    let (output, counters, lines) = match level {
        None => {
            let result = timed(trace, "vgpu.execute_ms", || {
                ExecutionRequest::new(&case.reference_module).launch(
                    &case.reference_kernel,
                    case.launch,
                    case.reference_args.clone(),
                )
            })
            .map_err(|e| e.to_string())?;
            let output = result.buffers[case.reference_output_buffer].clone();
            (output, result.report.counters, 0)
        }
        Some(level) => {
            let (kernel, bound) = timed(trace, "codegen.compile_ms", || {
                let kernel = compile_case(case, &levels()[level].1)?;
                let bound = kernel.bind_args(&case.inputs, &case.sizes);
                Ok::<_, lift_benchmarks::runner::RunnerError>((kernel, bound))
            })
            .map_err(|e| e.to_string())?;
            let (args, output_index) = bound?;
            let result = timed(trace, "vgpu.execute_ms", || {
                ExecutionRequest::new(&kernel.module).launch(&kernel.kernel_name, case.launch, args)
            })
            .map_err(|e| e.to_string())?;
            if let Some(trace) = trace {
                trace.add("codegen.compile_calls", 1.0);
            }
            let output = result.buffers[output_index].clone();
            (output, result.report.counters, kernel.line_count())
        }
    };
    if let Some(trace) = trace {
        trace.add("vgpu.launches", 1.0);
        trace.add("vgpu.launches_checked", 1.0);
        trace.add("vgpu.work_items", counters.work_items as f64);
    }
    let correct = outputs_match(&output, &case.expected);
    Ok((
        Checked {
            counters,
            correct,
            lines,
        },
        output,
    ))
}

pub fn run(settings: &Settings) -> Outcome {
    let mut out = Outcome::new(
        "96 checked kernels per sweep: 12 Table 1 cases x 2 sizes x (reference + 3 levels), seeded order",
    );
    let mut trace = settings.trace.then(Trace::default);
    let cases = out.time_setup(1, build_cases);
    let jobs: Vec<Job> = (0..cases.len())
        .flat_map(|case| {
            std::iter::once(Job { case, level: None }).chain((0..3).map(move |l| Job {
                case,
                level: Some(l),
            }))
        })
        .collect();
    let devices = [DeviceProfile::nvidia(), DeviceProfile::amd()];
    let mut first: Option<Vec<Checked>> = None;
    let mut untraced_ms = 0.0;
    let mut clock = LoopClock::start();
    let mut sweep = 0u64;
    while sweep == 0 || clock.elapsed_s() < settings.seconds {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        shuffle(&mut order, mix(&[settings.seed, sweep]));
        let mut results: Vec<Option<Checked>> = vec![None; jobs.len()];
        for (n, i) in order.into_iter().enumerate() {
            if n % SETUP_EVERY == 0 {
                out.time_setup_in_loop(&mut clock, 1, build_cases);
            }
            let job = jobs[i];
            let case = &cases[job.case];
            let t = Instant::now();
            let result = run_job(&mut trace, case, job.level);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            untraced_ms += ms;
            out.latencies_ms.push(ms);
            out.attempted += 1;
            match result {
                Ok((checked, output)) => {
                    if !checked.correct {
                        let what = format!(
                            "{} {} {}: output differs from the host reference",
                            case.info.name,
                            case.size.label(),
                            job.level.map_or("reference", |l| levels()[l].0)
                        );
                        if case.info.name == "MD"
                            && outputs_match(&output, &md_reference_f64(&case.inputs[0]))
                        {
                            out.oracle_mismatches += 1;
                            out.fail(format!("{what} (matches the f64-accumulated reference)"));
                        } else {
                            out.fail(what);
                        }
                    }
                    results[i] = Some(checked);
                }
                Err(e) => out.fail(format!("{} {}: {e}", case.info.name, case.size.label())),
            }
        }
        let results: Vec<Checked> = results
            .into_iter()
            .map(|r| {
                r.unwrap_or(Checked {
                    counters: CostCounters::default(),
                    correct: false,
                    lines: 0,
                })
            })
            .collect();
        match &first {
            None => first = Some(results),
            Some(first) if *first != results => {
                out.fail(format!(
                    "sweep {sweep}: modelled results differ from sweep 0"
                ));
            }
            Some(_) => {}
        }
        sweep += 1;
    }
    out.wall_s = clock.elapsed_s();
    out.repeat_share = 1.0 - jobs.len() as f64 / out.attempted as f64;
    let results = first.expect("at least one sweep ran");
    let mut gen_sum = CostCounters::default();
    let mut ref_sum = CostCounters::default();
    for (job, checked) in jobs.iter().zip(&results) {
        let Some(level) = job.level else { continue };
        out.kernel_loc += checked.lines;
        let reference = &results[jobs
            .iter()
            .position(|j| j.case == job.case && j.level.is_none())
            .expect("every case has a reference job")];
        for device in &devices {
            let generated = checked.counters.estimated_time(device);
            out.kernel_times.push(generated);
            if level == 2 {
                out.fig8_ratios
                    .push(reference.counters.estimated_time(device) / generated);
            }
        }
        if level == 2 {
            gen_sum.merge(&checked.counters);
            ref_sum.merge(&reference.counters);
        }
        out.digest.push(format!(
            "{} {} {} {:016x} {}",
            cases[job.case].info.name,
            cases[job.case].size.label(),
            levels()[level].0,
            checked.counters.estimated_time(&devices[0]).to_bits(),
            checked.lines
        ));
    }
    if let Some(mut trace) = trace {
        use crate::stats::ratio;
        let pairs = [
            ("vgpu.gen_ref.flops", gen_sum.flops, ref_sum.flops),
            ("vgpu.gen_ref.int_ops", gen_sum.int_ops, ref_sum.int_ops),
            (
                "vgpu.gen_ref.global_accesses",
                gen_sum.global_accesses,
                ref_sum.global_accesses,
            ),
            (
                "vgpu.gen_ref.local_accesses",
                gen_sum.local_accesses,
                ref_sum.local_accesses,
            ),
            (
                "vgpu.gen_ref.private_accesses",
                gen_sum.private_accesses,
                ref_sum.private_accesses,
            ),
            (
                "vgpu.gen_ref.loop_iterations",
                gen_sum.loop_iterations,
                ref_sum.loop_iterations,
            ),
            ("vgpu.gen_ref.barriers", gen_sum.barriers, ref_sum.barriers),
        ];
        for (name, g, r) in pairs {
            trace.set(name, ratio(g as f64, r as f64));
        }
        trace.add("vgpu.rejected_incorrect", (out.failed) as f64);
        let median = crate::stats::quantile(&out.setup_s, 0.5).expect("set-up ran");
        trace.set("benchmarks.case_build_ms", median * 1e3);
        out.trace = Some(trace.finish(out.wall_s * 1e3, untraced_ms));
    }
    out
}
