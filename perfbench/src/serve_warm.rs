//! `serve_warm`: a seeded, skewed stream of repeated requests to a disk-backed
//! [`DerivationService`], sent in `submit`/`drain_with` batches by one client in a closed
//! loop. Set-up fills the store with a few cheap-to-tune keys, so about 100% of requests
//! repeat: every request is a warm hit that re-proves the cached chain (replay, reference
//! evaluation, compile, execute, validate), and `rewrite` enumeration and the `tuner` are
//! skipped. Duplicate keys inside a batch coalesce onto one validation, and every drain
//! rewrites the store, so writes run beside reads.
//!
//! The seed sets the stream (which key each request names); the hot keys and the stored
//! derivations are fixed, so the served kernels do not depend on it. The share of requests
//! that share a validation with an earlier request of their batch drives the throughput
//! and latency far more than any layer does, so the run measures and prints it.

use std::path::PathBuf;
use std::time::Instant;

use lift_service::{cache_key, DerivationService, Request, Served, ServiceConfig};
use lift_telemetry::Null;
use lift_tuner::{Strategy, TuningConfig, Workload};
use lift_vgpu::{DeviceProfile, COST_MODEL_VERSION};

use crate::layers::{code_lines, redrive, reference, timed, Trace};
use crate::rng::Rng;
use crate::tune_cold::THREADS;
use crate::{LoopClock, Outcome, Settings};

/// Requests the client submits before each drain: the batch of the repository's cache
/// probe (`cache_stats`, `batch.requests` in `BENCH_cache.json`).
const BATCH: usize = 8;

/// Set-up repeats, spread over the run: opening a store and deriving its keys takes
/// about 0.65 s.
const SETUP_REPEATS: usize = 10;

/// Zipf exponent of the key popularity (rank 1 is the hottest key). Breslau et al., "Web
/// Caching and Zipf-like Distributions: Evidence and Implications" (INFOCOM 1999), found
/// request streams to web caches Zipf-like with exponents between 0.64 and 0.83; this is
/// the upper end of that range.
const ZIPF_S: f64 = 0.8;

/// The stored keys, hottest first: the five (program, device) pairs that are cheapest to
/// derive with the short search below, so that one set-up stays under a second.
fn keys() -> Vec<Request> {
    let mut requests = Vec::new();
    for (workload, device) in [
        (Workload::matrix_multiply(), DeviceProfile::nvidia()),
        (Workload::nbody(), DeviceProfile::nvidia()),
        (Workload::convolution_1d(), DeviceProfile::nvidia()),
        (Workload::matrix_multiply(), DeviceProfile::amd()),
        (Workload::nbody(), DeviceProfile::amd()),
    ] {
        // A short fixed-seed search: the keys only need to be cheap to derive once.
        let mut config = TuningConfig::new(
            device.clone(),
            workload.space_for(&device),
            Strategy::RandomHillClimb {
                seed: 0x5eed,
                samples: 2,
                max_steps: 0,
            },
        );
        config.base.max_candidates = 3000;
        config.base.beam_width = 48;
        config.base.threads = THREADS;
        requests.push(Request {
            name: format!("{}@{}", workload.name, device.name),
            program: workload.program,
            config,
        });
    }
    requests
}

/// A fresh store directory next to the benchmark executable (inside the build directory).
fn store_dir(i: usize) -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .expect("the executable lives in a directory")
        .join(format!("perfbench-store-{}-{i}", std::process::id()))
}

#[derive(PartialEq)]
struct Stored {
    source: String,
    time_bits: u64,
}

/// Opens a disk-backed service in a fresh directory and derives every key once.
fn setup(dir: &PathBuf, keys: &[Request]) -> Result<(DerivationService, Vec<Stored>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut service = DerivationService::open(ServiceConfig {
        root: Some(dir.clone()),
        threads: THREADS,
        ..ServiceConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut stored = Vec::new();
    for key in keys {
        let r = service
            .request_with(key.clone(), &Null)
            .map_err(|e| format!("{}: {e}", key.name))?;
        stored.push(Stored {
            source: r.variant.kernel_source,
            time_bits: r.variant.estimated_time.to_bits(),
        });
    }
    Ok((service, stored))
}

/// Draws a key rank from the Zipf distribution over `n` keys.
fn zipf(rng: &mut Rng, n: usize) -> usize {
    let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-ZIPF_S)).collect();
    let mut u = rng.next_f64() * weights.iter().sum::<f64>();
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    n - 1
}

pub fn run(settings: &Settings) -> Outcome {
    let mut out = Outcome::new(
        "warm hits on 5 stored keys (MM, N-Body, convolution on nvidia; MM, N-Body on amd), Zipf 0.8, batches of 8",
    );
    let keys = keys();
    let dir = store_dir(0);
    let (mut service, stored) = match out.time_setup(1, || setup(&dir, &keys)) {
        Ok(prepared) => prepared,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            out.attempted += 1;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    let setup_stats = service.stats();
    for s in &stored {
        out.kernel_times.push(f64::from_bits(s.time_bits));
        out.kernel_loc += code_lines(&s.source);
        out.digest.push(format!(
            "{:016x} {:016x}",
            s.time_bits,
            crate::record::fnv(s.source.as_bytes())
        ));
    }

    let mut trace = settings.trace.then(Trace::default);
    let mut untraced_ms = 0.0;
    let mut rng = Rng::new(settings.seed);
    let mut clock = LoopClock::start();
    let mut setups = 1;
    while clock.elapsed_s() < settings.seconds {
        if setups < SETUP_REPEATS
            && clock.elapsed_s() >= settings.seconds * setups as f64 / SETUP_REPEATS as f64
        {
            // Another set-up in a fresh directory; it must derive what the first one did.
            let again_dir = store_dir(setups);
            let again = out.time_setup_in_loop(&mut clock, 1, || setup(&again_dir, &keys));
            match again {
                Ok((_, again)) if again == stored => {}
                Ok(_) => out.fail("set-up derivations differ between repeats".into()),
                Err(e) => out.fail(format!("set-up: {e}")),
            }
            let _ = std::fs::remove_dir_all(&again_dir);
            setups += 1;
        }
        let batch: Vec<usize> = (0..BATCH).map(|_| zipf(&mut rng, keys.len())).collect();
        for &k in &batch {
            service.submit(keys[k].clone());
        }
        let t = Instant::now();
        let responses = timed(&mut trace, "service.drain_ms", || service.drain_with(&Null));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        untraced_ms += ms;
        out.attempted += batch.len();
        let responses = match responses {
            Ok(r) => r,
            Err(e) => {
                for _ in &batch {
                    out.fail(format!("drain: {e}"));
                }
                continue;
            }
        };
        for (i, (&k, response)) in batch.iter().zip(&responses).enumerate() {
            out.latencies_ms.push(ms);
            if batch[..i].contains(&k) {
                out.batch_shared_share += 1.0;
            }
            let expected = &stored[k];
            if response.served != Served::WarmHit {
                out.fail(format!("{}: served {:?}", keys[k].name, response.served));
            } else if response.variant.kernel_source != expected.source
                || response.variant.estimated_time.to_bits() != expected.time_bits
            {
                out.fail(format!(
                    "{}: response differs from the stored derivation",
                    keys[k].name
                ));
            } else {
                out.repeat_share += 1.0;
            }
        }
        if let Some(trace) = &mut trace {
            // One re-proof per distinct key, as the service validates each group once.
            for (i, &k) in batch.iter().enumerate() {
                if batch[..i].contains(&k) {
                    continue;
                }
                if let Err(e) = trace_hit(trace, &keys[k], &stored[k], &responses[i]) {
                    out.fail(format!("{} (traced): {e}", keys[k].name));
                }
            }
            let persisted = trace.time("service.persist_ms", || service.persist());
            trace.add("service.persist_calls", 1.0);
            if let Err(e) = persisted {
                out.fail(format!("persist: {e}"));
            }
        }
    }
    out.wall_s = clock.elapsed_s();
    out.repeat_share /= out.latencies_ms.len().max(1) as f64;
    let batch_shared = out.batch_shared_share;
    out.batch_shared_share /= out.latencies_ms.len().max(1) as f64;
    if let Some(mut trace) = trace {
        let stats = service.stats();
        trace.add("service.hits", (stats.hits - setup_stats.hits) as f64);
        trace.add("service.misses", (stats.misses - setup_stats.misses) as f64);
        trace.add(
            "service.coalesced",
            (stats.coalesced - setup_stats.coalesced) as f64,
        );
        // Warm hits that share an earlier hit's validation in their batch; the service
        // counts only duplicates of misses as coalesced.
        trace.add("service.batch_shared", batch_shared);
        trace.add(
            "service.derivations",
            (stats.derivations - setup_stats.derivations) as f64,
        );
        trace.add(
            "service.warm_started",
            (stats.warm_started - setup_stats.warm_started) as f64,
        );
        trace.add(
            "service.replay_failures",
            (stats.replay_failures - setup_stats.replay_failures) as f64,
        );
        let bytes: u64 = std::fs::read_dir(&dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        trace.set("service.store_bytes", bytes as f64);
        out.trace = Some(trace.finish(out.wall_s * 1e3, untraced_ms));
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The traced half of one validated hit: the layers a warm hit runs, called one by one —
/// the content address (`service`), the chain replay (`rewrite`), the reference evaluation
/// (`ir`, `interp`) and the re-proof of the replayed candidate (`ir`, `codegen`, `vgpu`),
/// which must reproduce the stored modelled time.
fn trace_hit(
    trace: &mut Trace,
    request: &Request,
    stored: &Stored,
    response: &lift_service::Response,
) -> Result<(), String> {
    let config = &request.config;
    trace
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
    let term = trace
        .time("rewrite.replay_ms", || {
            lift_rewrite::replay(
                &request.program,
                &response.variant.steps,
                &response.rule_options,
            )
        })
        .map_err(|e| e.to_string())?;
    trace.add("rewrite.replay_calls", 1.0);
    let reference = reference(trace, &request.program)?;
    let verdicts = redrive(
        trace,
        std::iter::once(&term),
        &reference,
        &config.base.compile_options,
        response.launch,
        &config.device,
    );
    if verdicts.best_time.map(f64::to_bits) != Some(stored.time_bits) {
        return Err(format!("re-proof gave {verdicts:?}"));
    }
    Ok(())
}
