//! Per-layer tracing from outside the program.
//!
//! Nothing here adds spans inside the pipeline: the traced run calls each layer's public
//! entry points itself and times them with [`Trace::time`]. Every timed call is a top-level
//! call of the benchmark (no timed call contains another), so the timed calls add up to the
//! attributed share of the traced wall time.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;
use std::time::Instant;

use lift_arith::Environment;
use lift_codegen::{compile_program, CodegenError, CompilationOptions};
use lift_interp::{evaluate_with_sizes, Value};
use lift_ir::{infer_types, Program, Type};
use lift_rewrite::{Exploration, StableHasher, Term};
use lift_vgpu::{
    estimated_sequence_time, outputs_match, DeviceProfile, ExecutionRequest, KernelArg,
    LaunchConfig, VgpuError,
};

/// Every per-layer metric with its unit, in report order. The traced run reports all of
/// them for every workload; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rewrite.enumerate_ms", "ms"),
    ("rewrite.enumerate_calls", "count"),
    ("rewrite.explored", "count"),
    ("rewrite.lowered", "count"),
    ("rewrite.dedup_hits", "count"),
    ("rewrite.rejected_typecheck", "count"),
    ("rewrite.lowered_per_explored", "ratio"),
    ("rewrite.score_ms", "ms"),
    ("rewrite.score_calls", "count"),
    ("rewrite.replay_ms", "ms"),
    ("rewrite.replay_calls", "count"),
    ("ir.typecheck_ms", "ms"),
    ("ir.typecheck_calls", "count"),
    ("interp.reference_ms", "ms"),
    ("interp.reference_calls", "count"),
    ("codegen.compile_ms", "ms"),
    ("codegen.compile_calls", "count"),
    ("codegen.rejected_ownership", "count"),
    ("codegen.rejected_other", "count"),
    ("codegen.compiled_per_attempt", "ratio"),
    ("vgpu.execute_ms", "ms"),
    ("vgpu.launches", "count"),
    ("vgpu.work_items", "count"),
    ("vgpu.rejected_race", "count"),
    ("vgpu.rejected_divergence", "count"),
    ("vgpu.rejected_incorrect", "count"),
    ("vgpu.valid_per_executed", "ratio"),
    ("vgpu.gen_ref.flops", "ratio"),
    ("vgpu.gen_ref.int_ops", "ratio"),
    ("vgpu.gen_ref.global_accesses", "ratio"),
    ("vgpu.gen_ref.local_accesses", "ratio"),
    ("vgpu.gen_ref.private_accesses", "ratio"),
    ("vgpu.gen_ref.loop_iterations", "ratio"),
    ("vgpu.gen_ref.barriers", "ratio"),
    ("tuner.tune_ms", "ms"),
    ("tuner.points_evaluated", "count"),
    ("tuner.enumerations", "count"),
    ("tuner.enumeration_hit_ratio", "ratio"),
    ("tuner.infeasible_points", "count"),
    ("tuner.self_ms", "ms"),
    ("service.key_ms", "ms"),
    ("service.drain_ms", "ms"),
    ("service.persist_ms", "ms"),
    ("service.persist_calls", "count"),
    ("service.store_bytes", "bytes"),
    ("service.hits", "count"),
    ("service.misses", "count"),
    ("service.coalesced", "count"),
    ("service.batch_shared", "count"),
    ("service.derivations", "count"),
    ("service.warm_started", "count"),
    ("service.replay_failures", "count"),
    ("service.hit_ratio", "ratio"),
    ("benchmarks.case_build_ms", "ms"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Runs `f`, timed as a call into `name` when the run is traced.
pub fn timed<T>(trace: &mut Option<Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(trace) => trace.time(name, f),
        None => f(),
    }
}

/// Layer times and counts of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    values: BTreeMap<&'static str, f64>,
    attributed_ms: f64,
}

impl Trace {
    /// Runs `f` as one timed call into a layer: its wall time is added to `name` (ms) and to
    /// the attributed total.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.add(name, ms);
        self.attributed_ms += ms;
        out
    }

    /// Adds `v` to the metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Overwrites the metric `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// The current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Adds the search statistics of one enumeration.
    pub fn add_search(&mut self, e: &Exploration) {
        self.add("rewrite.explored", e.explored as f64);
        self.add("rewrite.lowered", e.lowered as f64);
        self.add("rewrite.dedup_hits", e.dedup_hits as f64);
        self.add("rewrite.rejected_typecheck", e.rejected_typecheck as f64);
    }

    /// Fills the derived ratios and the two whole-run shares, and returns every per-layer
    /// metric in [`PER_LAYER`] order.
    pub fn finish(
        mut self,
        traced_wall_ms: f64,
        untraced_wall_ms: f64,
    ) -> Vec<(&'static str, f64)> {
        use crate::stats::{ratio, unattributed_frac};
        let r = |t: &Trace, a: &str, b: &str| ratio(t.get(a), t.get(b));
        let lowered_per_explored = r(&self, "rewrite.lowered", "rewrite.explored");
        let compiled = self.get("codegen.compile_calls")
            - self.get("codegen.rejected_ownership")
            - self.get("codegen.rejected_other");
        let compiled_per_attempt = ratio(compiled, self.get("codegen.compile_calls"));
        let valid = self.get("vgpu.launches_checked")
            - self.get("vgpu.rejected_race")
            - self.get("vgpu.rejected_divergence")
            - self.get("vgpu.rejected_incorrect");
        let valid_per_executed = ratio(valid, self.get("vgpu.launches_checked"));
        let hit_ratio = ratio(
            self.get("service.hits"),
            self.get("service.hits") + self.get("service.misses") + self.get("service.coalesced"),
        );
        let enumeration_hit_ratio = ratio(
            self.get("tuner.points_evaluated") - self.get("tuner.enumerations"),
            self.get("tuner.points_evaluated"),
        );
        self.set("rewrite.lowered_per_explored", lowered_per_explored);
        self.set("codegen.compiled_per_attempt", compiled_per_attempt);
        self.set("vgpu.valid_per_executed", valid_per_executed);
        self.set("service.hit_ratio", hit_ratio);
        self.set("tuner.enumeration_hit_ratio", enumeration_hit_ratio);
        self.set(
            "unattributed_frac",
            unattributed_frac(traced_wall_ms, self.attributed_ms).unwrap_or(0.0),
        );
        self.set(
            "trace_overhead_frac",
            ratio(traced_wall_ms, untraced_wall_ms),
        );
        PER_LAYER
            .iter()
            .map(|(name, _)| (*name, self.get(name)))
            .collect()
    }
}

/// Deterministic inputs for a typed program, generated exactly as the rewrite engine's
/// exploration generates them (values on a quarter-step grid in `[-2, 2)` from a per-parameter
/// linear congruential stream), so a re-driven candidate sees the tuner's inputs.
fn generate_inputs(typed: &Program, sizes: &Environment) -> Option<Vec<Value>> {
    fn next(state: &mut u32) -> f32 {
        *state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((*state >> 16) % 16) as f32 * 0.25 - 2.0
    }
    fn value(ty: &Type, sizes: &Environment, state: &mut u32) -> Option<Value> {
        match ty {
            Type::Scalar(_) => Some(Value::Float(next(state))),
            Type::Vector(_, width) => Some(Value::Vector(
                (0..*width).map(|_| Value::Float(next(state))).collect(),
            )),
            Type::Tuple(elems) => Some(Value::Tuple(
                elems
                    .iter()
                    .map(|e| value(e, sizes, state))
                    .collect::<Option<Vec<_>>>()?,
            )),
            Type::Array(elem, len) => {
                let n = usize::try_from(len.evaluate(sizes).ok()?).ok()?;
                Some(Value::Array(
                    (0..n)
                        .map(|_| value(elem, sizes, state))
                        .collect::<Option<Vec<_>>>()?,
                ))
            }
        }
    }
    typed
        .root_params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut state = 0x9e37u32.wrapping_add(i as u32 * 0x85eb);
            value(typed.expr(*p).ty.as_ref()?, sizes, &mut state)
        })
        .collect()
}

/// The input buffers and the interpreter's reference output for a high-level program.
pub struct Reference {
    pub buffers: Vec<Vec<f32>>,
    pub output: Vec<f32>,
}

/// Type-checks `program` (`ir`) and evaluates it on the deterministic inputs (`interp`),
/// timing both layers.
pub fn reference(trace: &mut Trace, program: &Program) -> Result<Reference, String> {
    let mut typed = program.clone();
    trace
        .time("ir.typecheck_ms", || infer_types(&mut typed))
        .map_err(|e| e.to_string())?;
    trace.add("ir.typecheck_calls", 1.0);
    let sizes = Environment::new();
    let output = trace.time("interp.reference_ms", || {
        let values = generate_inputs(&typed, &sizes).ok_or("cannot generate inputs")?;
        let out = evaluate_with_sizes(&typed, &values, &sizes).map_err(|e| e.to_string())?;
        Ok::<_, String>((values, out.flatten_f32()))
    })?;
    trace.add("interp.reference_calls", 1.0);
    Ok(Reference {
        buffers: output.0.iter().map(Value::flatten_f32).collect(),
        output: output.1,
    })
}

/// The verdicts of re-driving one scored point's lowered candidates layer by layer, in the
/// categories of [`Exploration`]'s counters.
#[derive(Debug, Default)]
pub struct Verdicts {
    pub valid: usize,
    pub rejected_compile: usize,
    pub rejected_unsound: usize,
    pub rejected_race: usize,
    pub rejected_divergence: usize,
    pub rejected_incorrect: usize,
    /// Lowest modelled time among the valid candidates.
    pub best_time: Option<f64>,
}

impl Verdicts {
    /// Whether these verdicts agree with the counters `score` returned for the same point.
    pub fn matches(&self, e: &Exploration) -> bool {
        self.rejected_compile == e.rejected_compile
            && self.rejected_unsound == e.rejected_unsound
            && self.rejected_race == e.rejected_race
            && self.rejected_divergence == e.rejected_divergence
            && self.rejected_incorrect == e.rejected_incorrect
            && self.best_time.map(f64::to_bits)
                == e.variants.first().map(|v| v.estimated_time.to_bits())
    }
}

/// The outcome of executing one distinct kernel (memoised per scored point, as the tuner
/// executes each distinct kernel source and argument list once).
#[derive(Clone, Copy)]
enum Executed {
    Valid(f64),
    Race,
    Divergence,
    Incorrect,
}

/// Re-drives lowered candidates through `ir` (arena conversion and type inference),
/// `codegen` (compilation with the ownership pass and argument binding) and `vgpu`
/// (execution under the race detector and output validation), timing each layer.
pub fn redrive<'a>(
    trace: &mut Trace,
    candidates: impl Iterator<Item = &'a Term>,
    reference: &Reference,
    options: &CompilationOptions,
    launch: LaunchConfig,
    device: &DeviceProfile,
) -> Verdicts {
    let options = options.clone().with_launch(launch.global, launch.local);
    let sizes = Environment::new();
    let mut verdicts = Verdicts::default();
    let mut executed: HashMap<u64, Executed> = HashMap::new();
    for term in candidates {
        let typed = trace.time("ir.typecheck_ms", || {
            let mut program = term.to_program();
            infer_types(&mut program).map(|()| program)
        });
        trace.add("ir.typecheck_calls", 1.0);
        let Ok(program) = typed else {
            verdicts.rejected_compile += 1;
            continue;
        };
        let compiled = trace.time("codegen.compile_ms", || {
            let compiled = compile_program(&program, &options)?;
            let bound = compiled.bind_args(&reference.buffers, &sizes);
            let source = compiled.source();
            Ok::<_, CodegenError>((compiled, source, bound))
        });
        trace.add("codegen.compile_calls", 1.0);
        let (compiled, source, (args, output_index)) = match compiled {
            Ok((compiled, source, Ok(bound))) => (compiled, source, bound),
            Err(CodegenError::OwnershipViolation { .. }) => {
                trace.add("codegen.rejected_ownership", 1.0);
                verdicts.rejected_unsound += 1;
                continue;
            }
            Err(_) | Ok((_, _, Err(_))) => {
                trace.add("codegen.rejected_other", 1.0);
                verdicts.rejected_compile += 1;
                continue;
            }
        };
        let key = exec_key(&source, &args);
        let outcome = match executed.get(&key) {
            Some(outcome) => *outcome,
            None => {
                let stages = compiled.launch_plan(launch);
                let outcome = trace.time("vgpu.execute_ms", || {
                    let run = ExecutionRequest::new(&compiled.module)
                        .on_device(device)
                        .race_detection(true)
                        .launch_sequence(&stages, args);
                    match run {
                        Err(VgpuError::DataRace { .. }) => (Executed::Race, 0),
                        Err(VgpuError::DivergentBarrier { .. }) => (Executed::Divergence, 0),
                        Err(_) => (Executed::Incorrect, 0),
                        Ok(result)
                            if outputs_match(&result.buffers[output_index], &reference.output) =>
                        {
                            let stages = result.stage_counters();
                            let items: u64 = stages.iter().map(|c| c.work_items).sum();
                            (
                                Executed::Valid(estimated_sequence_time(&stages, device)),
                                items,
                            )
                        }
                        Ok(_) => (Executed::Incorrect, 0),
                    }
                });
                trace.add("vgpu.launches", stages.len() as f64);
                trace.add("vgpu.launches_checked", 1.0);
                trace.add("vgpu.work_items", outcome.1 as f64);
                match outcome.0 {
                    Executed::Race => trace.add("vgpu.rejected_race", 1.0),
                    Executed::Divergence => trace.add("vgpu.rejected_divergence", 1.0),
                    Executed::Incorrect => trace.add("vgpu.rejected_incorrect", 1.0),
                    Executed::Valid(_) => {}
                }
                executed.insert(key, outcome.0);
                outcome.0
            }
        };
        match outcome {
            Executed::Valid(t) => {
                verdicts.valid += 1;
                if verdicts.best_time.is_none_or(|b| t < b) {
                    verdicts.best_time = Some(t);
                }
            }
            Executed::Race => verdicts.rejected_race += 1,
            Executed::Divergence => verdicts.rejected_divergence += 1,
            Executed::Incorrect => verdicts.rejected_incorrect += 1,
        }
    }
    verdicts
}

/// Hash of a kernel source and its arguments: equal keys execute identically.
fn exec_key(source: &str, args: &[KernelArg]) -> u64 {
    let mut h = StableHasher::new();
    h.write(source.as_bytes());
    for arg in args {
        match arg {
            KernelArg::Buffer(data) => {
                h.write_u8(0);
                h.write_usize(data.len());
                for v in data {
                    h.write_u32(v.to_bits());
                }
            }
            KernelArg::Float(v) => {
                h.write_u8(1);
                h.write_u32(v.to_bits());
            }
            KernelArg::Int(v) => {
                h.write_u8(2);
                h.write_i64(*v);
            }
        }
    }
    h.finish()
}

/// Non-comment OpenCL lines of a kernel source (the rule `CompiledProgram::line_count`
/// applies to generated modules).
pub fn code_lines(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| {
            !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*") && !l.starts_with('*')
        })
        .count()
}
