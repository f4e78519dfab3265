//! `tune_cold`: cold derivation requests (high-level program + device → tuned, validated
//! kernel) for the seven tuner workloads on both device profiles, through one
//! [`DerivationService`] per pass. No key repeats within a service, so every request runs
//! the full search: `rewrite` enumeration, `codegen`, `vgpu` execution and the `tuner`
//! hill climb, with no cache help (0% repeated requests). Warm starts between structurally
//! similar programs (plain and tiled MM) still apply, as they would for any cold miss.
//!
//! The seed sets the request order; the hill-climb seeds are fixed per pass, program and
//! device (see [`pass_requests`]). A closed loop with one client sends the next request
//! only when the previous one has returned.

use std::time::Instant;

use lift_rewrite::{enumerate, Enumerated, ExplorationConfig, ExploreError, RuleOptions};
use lift_service::{cache_key, CacheKey, DerivationService, Request, Response, ServiceConfig};
use lift_telemetry::Null;
use lift_tuner::{tune, PointIndex, Strategy, TuningConfig, TuningSpace, Workload};
use lift_vgpu::{DeviceProfile, LaunchConfig, COST_MODEL_VERSION};

use crate::layers::{code_lines, redrive, reference, timed, Trace};
use crate::record::fnv;
use crate::rng::{mix, shuffle};
use crate::{LoopClock, Outcome, Settings};

/// Worker threads of the exploration and of the service (`0` would mean all cores).
pub const THREADS: usize = 1;

/// Nominal wall time of one pass of fourteen requests on a 2-core x86-64 container. The
/// number of passes is `--seconds` over this, but at least [`MIN_PASSES`], so the set of
/// requests (and with it every modelled figure) depends only on the seed and `--seconds`,
/// never on timing.
const PASS_SECONDS: f64 = 30.0;

/// Fewest passes per run. A pass has only fourteen latency samples, and the median of one
/// pass falls between the cheap and the expensive programs.
const MIN_PASSES: u64 = 2;

/// Set-ups timed together as one set-up sample: building the request list takes about
/// 0.15 ms. One sample is taken before the loop and one before each request.
const SETUP_BLOCK: usize = 40;

/// The tuning configuration of one cold request: the repository's autotune configuration
/// ([`lift_bench::autotune_config`]: per-workload sample counts and search budgets), with
/// the hill-climb seed `seed`, one climb step from each climb start and [`THREADS`]
/// exploration threads.
pub fn config(workload: &Workload, device: &DeviceProfile, seed: u64) -> TuningConfig {
    let mut config = lift_bench::autotune_config(workload, device);
    match &mut config.strategy {
        Strategy::RandomHillClimb {
            seed: climb_seed,
            max_steps,
            ..
        } => {
            *climb_seed = seed;
            *max_steps = 1;
        }
        other => unreachable!("autotune strategies are random hill climbs, not {other:?}"),
    }
    config.base.threads = THREADS;
    config
}

/// The layer times printed per traced request, for comparison with recorded breakdowns.
const BREAKDOWN: [&str; 5] = [
    "rewrite.enumerate_ms",
    "rewrite.score_ms",
    "ir.typecheck_ms",
    "codegen.compile_ms",
    "vgpu.execute_ms",
];

fn service() -> DerivationService {
    DerivationService::open(ServiceConfig {
        threads: THREADS,
        ..ServiceConfig::default()
    })
    .expect("an in-memory service always opens")
}

/// The requests of pass `pass`, in seeded order: every workload on both devices.
///
/// The hill-climb seeds depend on the pass, program and device but not on the run seed.
/// A seed-dependent search changes both the work of a request and its tuned result. With
/// fourteen requests per run, that made the run-to-run spread of `latency_p50_ms` exceed
/// what the benchmark can bound. The run seed sets the order, which decides the warm
/// starts between plain and tiled MM.
fn pass_requests(workloads: &[Workload], seed: u64, pass: u64) -> Vec<Request> {
    let mut requests = Vec::new();
    for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
        for w in workloads {
            let climb_seed = mix(&[pass, fnv(w.name.as_bytes()), fnv(device.name.as_bytes())]);
            requests.push(Request {
                name: w.name.to_string(),
                program: w.program.clone(),
                config: config(w, &device, climb_seed),
            });
        }
    }
    shuffle(&mut requests, mix(&[seed, pass, 0x0de7]));
    requests
}

/// Runs the workload. `workloads` is [`Workload::all`] in the benchmark; tests pass a
/// cheaper subset.
pub fn run(settings: &Settings, workloads_of: fn() -> Vec<Workload>) -> Outcome {
    let mut out = Outcome::new(
        "14 cold requests per pass, 2 passes: 7 tuner programs x {nvidia, amd}, seeded order (traced: the nvidia 7 of pass 1)",
    );
    // Set-up builds every request of the run: programs, tuning spaces and configurations.
    let passes = ((settings.seconds / PASS_SECONDS).round() as u64).max(MIN_PASSES);
    let build = || {
        let workloads = workloads_of();
        (0..passes)
            .map(|pass| pass_requests(&workloads, settings.seed, pass))
            .collect::<Vec<_>>()
    };
    let requests = out.time_setup(SETUP_BLOCK, build);
    let mut trace = settings.trace.then(Trace::default);
    let mut untraced_ms = 0.0;
    // The cheapest request that did not warm-start, for the determinism repeat.
    let mut repeat: Option<(f64, Request, Response)> = None;
    let mut clock = LoopClock::start();
    for (pass, pass_requests) in requests.into_iter().enumerate() {
        // Tracing re-runs and replays each search (about 4x its cost), so the traced run
        // covers the nvidia half of the first pass to stay within the run-time limit.
        if trace.is_some() && pass > 0 {
            break;
        }
        let mut service = service();
        // The service's cache as the benchmark sees it, for the traced run's reproduction
        // of each request's warm-start seeds.
        let mut served: Vec<Cached> = Vec::new();
        for request in pass_requests {
            if trace.is_some() && request.config.device.name != DeviceProfile::nvidia().name {
                continue;
            }
            out.time_setup_in_loop(&mut clock, SETUP_BLOCK, build);
            let t = Instant::now();
            let response = timed(&mut trace, "service.drain_ms", || {
                service.request_with(request.clone(), &Null)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            untraced_ms += ms;
            out.latencies_ms.push(ms);
            out.attempted += 1;
            let response = match response {
                Ok(r) if r.served == lift_service::Served::ColdMiss => r,
                Ok(r) => {
                    out.fail(format!(
                        "{}: served {:?}, expected a cold miss",
                        r.name, r.served
                    ));
                    continue;
                }
                Err(e) => {
                    out.fail(format!("{}: {e}", request.name));
                    continue;
                }
            };
            if let Some(trace) = &mut trace {
                let before = BREAKDOWN.map(|name| trace.get(name));
                match trace_request(trace, &request, &response, &served, ms) {
                    Ok(key) => served.push((key, response.rule_options.clone(), response.launch)),
                    Err(e) => out.fail(format!("{} (traced): {e}", request.name)),
                }
                let spent: Vec<String> = BREAKDOWN
                    .iter()
                    .zip(before)
                    .map(|(name, b)| format!("{name} {:.0}", trace.get(name) - b))
                    .collect();
                out.notes.push(format!(
                    "{} on {}: request {ms:.0} ms; replayed {}",
                    request.name,
                    request.config.device.name,
                    spent.join(", ")
                ));
            }
            out.kernel_times.push(response.variant.estimated_time);
            out.kernel_loc += code_lines(&response.variant.kernel_source);
            out.digest.push(format!(
                "{} {} {:016x} {}",
                request.name,
                request.config.device.name,
                response.variant.estimated_time.to_bits(),
                response.variant.derivation.join(" ; ")
            ));
            if response.warm_seeds == 0 && repeat.as_ref().is_none_or(|(t, _, _)| ms < *t) {
                repeat = Some((ms, request, response));
            }
        }
        let stats = service.stats();
        if let Some(trace) = &mut trace {
            trace.add("service.hits", stats.hits as f64);
            trace.add("service.misses", stats.misses as f64);
            trace.add("service.coalesced", stats.coalesced as f64);
            trace.add("service.derivations", stats.derivations as f64);
            trace.add("service.warm_started", stats.warm_started as f64);
            trace.add("service.replay_failures", stats.replay_failures as f64);
        }
    }
    out.wall_s = clock.elapsed_s();
    if let Some(trace) = trace {
        // The traced run has re-run every request's search with the same seed already.
        out.trace = Some(trace.finish(out.wall_s * 1e3, untraced_ms));
        return out;
    }
    // Determinism: the cheapest request that did not warm-start is repeated with the same
    // seed in a fresh service; the best variant must be identical.
    if let Some((_, request, first)) = repeat {
        match service().request_with(request.clone(), &Null) {
            Ok(again) if again.variant == first.variant => {}
            Ok(_) => out.fail(format!("{}: best variant differs on repeat", request.name)),
            Err(e) => out.fail(format!("{} (repeat): {e}", request.name)),
        }
    }
    out
}

/// A served response as the service's cache holds it: the request's address and the tuned
/// point.
type Cached = (CacheKey, RuleOptions, LaunchConfig);

/// The warm-start seeds the service computes for a request with address `key`: tuned
/// points of earlier responses with the same pattern skeleton on the same device, most
/// recent first, mapped into the request's space (at most four).
fn warm_seeds(key: &CacheKey, space: &TuningSpace, served: &[Cached]) -> Vec<PointIndex> {
    served
        .iter()
        .rev()
        .filter(|(k, _, _)| k.skeleton == key.skeleton && k.device == key.device)
        .filter_map(|(_, options, launch)| space.seed_for_options(options, launch))
        .take(4)
        .collect()
}

/// The traced half of one request: keys it, re-runs the search with the tuner (from the
/// service's warm-start seeds) to obtain its trajectory, which must end at the served
/// variant, then replays every trajectory point layer by layer — one `enumerate` per
/// distinct rule options, one `score` per point, and a re-drive of every lowered
/// candidate whose verdicts must match `score`'s counters. Returns the request's address.
fn trace_request(
    trace: &mut Trace,
    request: &Request,
    response: &Response,
    served: &[Cached],
    request_ms: f64,
) -> Result<CacheKey, String> {
    let mut config = request.config.clone();
    let key = trace
        .time("service.key_ms", || {
            cache_key(
                &request.program,
                &config.device.name,
                &config.space,
                lift_rewrite::RULE_SET_VERSION,
                COST_MODEL_VERSION,
            )
        })
        .map_err(|e| e.to_string())?;
    let seeds = warm_seeds(&key, &config.space, served);
    if let Strategy::RandomHillClimb {
        seed,
        samples,
        max_steps,
    } = config.strategy
    {
        if !seeds.is_empty() {
            config.strategy = Strategy::SeededHillClimb {
                seeds,
                seed,
                samples,
                max_steps,
            };
        }
    }
    let result = trace
        .time("tuner.tune_ms", || tune(&request.program, &config))
        .map_err(|e| e.to_string())?;
    if result.best_variant.as_ref() != Some(&response.variant) {
        return Err("the tuner's trajectory does not end at the served variant".into());
    }
    trace.add("tuner.points_evaluated", result.points_evaluated as f64);
    trace.add("tuner.enumerations", result.enumerations as f64);
    let reference = reference(trace, &request.program)?;
    let layer_ms_before = trace.get("rewrite.enumerate_ms") + trace.get("rewrite.score_ms");
    // One rule search per distinct options; the flag records whether its search
    // statistics (which ride along every score result) have been counted yet.
    let mut enumerated: Vec<(RuleOptions, Enumerated, bool)> = Vec::new();
    for entry in &result.trajectory {
        let point = &entry.point;
        let explore = ExplorationConfig {
            rule_options: point.rule_options.clone(),
            launch: point.launch,
            device: config.device.clone(),
            ..config.base.clone()
        };
        let index = match enumerated
            .iter()
            .position(|(o, _, _)| *o == point.rule_options)
        {
            Some(i) => i,
            None => {
                let e = trace
                    .time("rewrite.enumerate_ms", || {
                        enumerate(&request.program, &explore)
                    })
                    .map_err(|e| e.to_string())?;
                trace.add("rewrite.enumerate_calls", 1.0);
                enumerated.push((point.rule_options.clone(), e, false));
                enumerated.len() - 1
            }
        };
        let (_, candidates, counted) = &mut enumerated[index];
        let scored = trace.time("rewrite.score_ms", || candidates.score(&explore));
        trace.add("rewrite.score_calls", 1.0);
        let scored = match scored {
            Ok(s) => s,
            Err(ExploreError::Launch(_)) => {
                trace.add("tuner.infeasible_points", 1.0);
                continue;
            }
            Err(e) => return Err(e.to_string()),
        };
        if !*counted {
            trace.add_search(&scored);
            *counted = true;
        }
        if scored.variants.first().map(|v| v.estimated_time) != entry.best_time {
            return Err("replayed score disagrees with the tuner's trajectory".into());
        }
        let verdicts = redrive(
            trace,
            candidates.lowered_candidates().map(|(t, _)| t),
            &reference,
            &explore.compile_options,
            point.launch,
            &config.device,
        );
        if !verdicts.matches(&scored) {
            return Err(format!(
                "re-driven verdicts {verdicts:?} disagree with score's counters"
            ));
        }
    }
    let layer_ms =
        trace.get("rewrite.enumerate_ms") + trace.get("rewrite.score_ms") - layer_ms_before;
    trace.add("tuner.self_ms", (request_ms - layer_ms).max(0.0));
    Ok(key)
}
