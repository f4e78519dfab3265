//! The long-lived derivation service: request queue, batching/deduplication, warm starts.
//!
//! # Request lifecycle
//!
//! [`DerivationService::submit`] enqueues requests; [`DerivationService::drain_with`]
//! processes the queue as one batch:
//!
//! 1. **Key** — every request is content-addressed ([`crate::key::cache_key`]) and requests
//!    with the same address are grouped: N identical in-flight requests become one unit of
//!    work. Exactly one [`Event::CacheHit`] or [`Event::CacheMiss`] is emitted per group,
//!    so telemetry pins the deduplication factor.
//! 2. **Lookup** (serial) — each group probes the [`CacheStore`] under the collision guard;
//!    for misses, the warm-start seeds are collected from structurally similar entries
//!    (shared [`lift_rewrite::Term::skeleton`], same device).
//! 3. **Derive/validate** (parallel) — groups fan out over a bounded deterministic worker
//!    pool (`ServiceConfig::threads`, the same chunked in-order pattern as
//!    `ExplorationConfig::threads`). A *hit* replays its recorded chain through
//!    [`Enumerated::from_derivation`] (provenance) and re-scores it against its program's
//!    [`TestVector`] — re-running compilation, the static ownership pass, execution and
//!    output validation, and checking the re-proven kernel is the stored one — so a stale
//!    cache can never serve an unsound kernel; a failure demotes the group to a cold
//!    derivation and evicts the entry. The vector (typed program, deterministic inputs,
//!    reference output) is a pure function of the program and sizes: the service keeps it
//!    in memory after the program's first validated hit and reuses it on every later hit
//!    of that program, on any device, so only that first hit runs the reference
//!    interpreter. A hit whose program's vector another hit of the same batch is building
//!    runs in a second wave that reuses it. A *miss* runs the full tuner, hill-climbing
//!    from the warm-start seeds when any exist.
//! 4. **Merge** (serial) — cold results are inserted (LRU eviction applies), validated hits
//!    record their vectors, vectors no live entry uses are freed, responses are assembled
//!    in submission order, and the store is persisted when directory-backed.
//!
//! The phases emit `key`, `lookup`, `validate` (per hit, containing `reference` when the
//! vector is built, `replay`, and the re-proof's `typecheck`/`compile`/`execute`/`score`)
//! and `persist` spans.
//!
//! Wall-clock cost: a warm hit scores exactly one candidate; a cold miss runs a full
//! enumerate+tune search — the orders-of-magnitude gap `cache_stats` measures.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use lift_arith::Environment;
use lift_ir::Program;
use lift_rewrite::{Enumerated, ExplorationConfig, ExploreError, RuleOptions, TestVector};
use lift_telemetry::{Collector, Event, Null};
use lift_tuner::{tune_with, BestVariant, PointIndex, Strategy, TuningConfig};
use lift_vgpu::{LaunchConfig, COST_MODEL_VERSION};

use crate::key::{cache_key, CacheKey};
use crate::store::CacheStore;
use crate::wire::{CachedDerivation, StoredEntry};
use crate::ServiceError;

/// How the service answered a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// The derivation was replayed from the cache and re-validated.
    WarmHit,
    /// A full cold derivation ran for this request.
    ColdMiss,
    /// The request was deduplicated onto another in-flight request's cold derivation.
    Coalesced,
}

/// One derivation request: a named program plus the tuning configuration to search under
/// on a miss (device, space, strategy and exploration budgets).
#[derive(Clone, Debug)]
pub struct Request {
    /// Label used in telemetry and error messages.
    pub name: String,
    /// The high-level program to derive.
    pub program: Program,
    /// Device, tuning space, cold-search strategy and exploration budgets.
    pub config: TuningConfig,
}

/// The served derivation.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request's label.
    pub name: String,
    /// How this response was produced.
    pub served: Served,
    /// The tuned, validated variant (estimated time, derivation chain, kernel source).
    pub variant: BestVariant,
    /// The tuned rule options behind the variant.
    pub rule_options: RuleOptions,
    /// The tuned launch configuration behind the variant.
    pub launch: LaunchConfig,
    /// Number of warm-start seeds the cold search climbed from (0 for hits and unseeded
    /// searches).
    pub warm_seeds: usize,
}

/// Counters over the lifetime of a [`DerivationService`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests drained.
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Unique keys that required a cold derivation.
    pub misses: u64,
    /// Requests deduplicated onto another request's derivation.
    pub coalesced: u64,
    /// Cold derivations actually run (including replay-failure fallbacks).
    pub derivations: u64,
    /// Cold derivations that hill-climbed from warm-start seeds.
    pub warm_started: u64,
    /// Cache hits whose replay failed validation (evicted and re-derived).
    pub replay_failures: u64,
    /// Reference outputs the service evaluated to validate hits: one per [`TestVector`]
    /// it built, as later hits of the same program reuse the vector.
    pub reference_evaluations: u64,
}

/// Configuration of a [`DerivationService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Directory for the persistent store; `None` keeps the cache in memory only.
    pub root: Option<std::path::PathBuf>,
    /// Maximum cached entries before LRU eviction.
    pub capacity: usize,
    /// Worker threads for the parallel derive/validate phase: `0` uses the machine's
    /// available parallelism, `1` runs sequentially. Results are identical either way.
    pub threads: usize,
    /// Whether cache-miss searches are seeded from structurally similar cached workloads.
    pub warm_start: bool,
    /// Rule-set version the cache is keyed under (defaults to
    /// [`lift_rewrite::RULE_SET_VERSION`]; tests override it to simulate a bump).
    pub rule_set_version: u32,
    /// Cost-model version the cache is keyed under (defaults to
    /// [`lift_vgpu::COST_MODEL_VERSION`]).
    pub cost_model_version: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            root: None,
            capacity: 256,
            threads: 0,
            warm_start: true,
            rule_set_version: lift_rewrite::RULE_SET_VERSION,
            cost_model_version: COST_MODEL_VERSION,
        }
    }
}

/// The long-lived derivation server. See the module docs for the request lifecycle.
#[derive(Debug)]
pub struct DerivationService {
    config: ServiceConfig,
    store: CacheStore,
    queue: Vec<Request>,
    stats: ServiceStats,
    vectors: TestVectors,
}

/// The test vectors of the programs whose hits this service validated. Memory only:
/// nothing read from disk enters a reference, and a vector lives only while a live cache
/// entry uses it, so the store capacity bounds their number.
#[derive(Debug, Default)]
struct TestVectors {
    /// Vectors by canonical program hash ([`CacheKey::hash`]). A hash holds several when
    /// programs collide or differ only in their sizes; [`TestVector::is_for`] tells them
    /// apart by full equality.
    by_hash: HashMap<u64, Vec<Arc<TestVector>>>,
    /// The vector each cache entry was last validated against, by entry id. Entries of
    /// one program on different devices share a vector.
    users: HashMap<String, Arc<TestVector>>,
}

impl TestVectors {
    fn find(&self, hash: u64, program: &Program, sizes: &Environment) -> Option<Arc<TestVector>> {
        self.by_hash
            .get(&hash)?
            .iter()
            .find(|v| v.is_for(program, sizes))
            .cloned()
    }

    /// Records that entry `id` (of program hash `hash`) validated against `vector`.
    fn adopt(&mut self, hash: u64, id: &str, vector: Arc<TestVector>) {
        let slot = self.by_hash.entry(hash).or_default();
        if !slot.iter().any(|v| Arc::ptr_eq(v, &vector)) {
            slot.push(Arc::clone(&vector));
        }
        self.users.insert(id.to_string(), vector);
    }

    /// Frees every vector no entry still in `store` uses.
    fn retain_live(&mut self, store: &CacheStore) {
        self.users.retain(|id, _| store.contains(id));
        let live: HashSet<*const TestVector> = self.users.values().map(Arc::as_ptr).collect();
        self.by_hash.retain(|_, slot| {
            slot.retain(|v| live.contains(&Arc::as_ptr(v)));
            !slot.is_empty()
        });
    }

    fn len(&self) -> usize {
        self.by_hash.values().map(Vec::len).sum()
    }
}

/// What the lookup phase decided for one deduplicated group.
enum Plan {
    /// A cached derivation to re-prove, with its program's test vector when one is held.
    Hit {
        payload: CachedDerivation,
        vector: Option<Arc<TestVector>>,
    },
    Miss {
        seeds: Vec<PointIndex>,
    },
}

/// What the derive/validate phase produced for one group.
struct Outcome {
    variant: BestVariant,
    rule_options: RuleOptions,
    launch: LaunchConfig,
    served_hit: bool,
    replay_failed: bool,
    warm_seeds: usize,
    estimated_time: f64,
    /// The test vector a served hit was validated against.
    vector: Option<Arc<TestVector>>,
    /// Whether validating the hit evaluated a new reference.
    evaluated_reference: bool,
}

impl DerivationService {
    /// Opens the service: loads (and version-checks) the persistent store when
    /// `config.root` is set, otherwise starts with an empty in-memory cache.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when the store directory cannot be read or created.
    pub fn open(config: ServiceConfig) -> Result<DerivationService, ServiceError> {
        DerivationService::open_with(config, &Null)
    }

    /// Like [`DerivationService::open`], but reports invalidation of a stale persisted
    /// generation ([`Event::CacheInvalidate`]) to `collector`.
    ///
    /// # Errors
    ///
    /// See [`DerivationService::open`].
    pub fn open_with(
        config: ServiceConfig,
        collector: &dyn Collector,
    ) -> Result<DerivationService, ServiceError> {
        let store = match &config.root {
            Some(root) => CacheStore::open(
                root,
                config.capacity,
                config.rule_set_version,
                config.cost_model_version,
                collector,
            )?,
            None => CacheStore::in_memory(
                config.capacity,
                config.rule_set_version,
                config.cost_model_version,
            ),
        };
        Ok(DerivationService {
            config,
            store,
            queue: Vec::new(),
            stats: ServiceStats::default(),
            vectors: TestVectors::default(),
        })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The cache behind the service (entry count, eviction/invalidation counters).
    pub fn store(&self) -> &CacheStore {
        &self.store
    }

    /// Number of test vectors held in memory for validating hits.
    pub fn test_vectors(&self) -> usize {
        self.vectors.len()
    }

    /// Number of submitted, not yet drained requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request for the next [`DerivationService::drain_with`].
    pub fn submit(&mut self, request: Request) {
        self.queue.push(request);
    }

    /// Convenience for a single synchronous request: submit, drain, return its response.
    ///
    /// # Errors
    ///
    /// See [`DerivationService::drain_with`].
    pub fn request_with(
        &mut self,
        request: Request,
        collector: &dyn Collector,
    ) -> Result<Response, ServiceError> {
        self.submit(request);
        let mut responses = self.drain_with(collector)?;
        Ok(responses.pop().expect("one request yields one response"))
    }

    /// Processes every queued request as one batch and returns the responses in submission
    /// order. See the module docs for the four phases.
    ///
    /// # Errors
    ///
    /// Returns the first keying, tuning or persistence error; the queue is consumed either
    /// way. An *individual infeasible point* inside a search is not an error — only an
    /// invalid input program or an exhausted search
    /// ([`ServiceError::NoVariant`]) is.
    pub fn drain_with(&mut self, collector: &dyn Collector) -> Result<Vec<Response>, ServiceError> {
        let requests = std::mem::take(&mut self.queue);
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        self.stats.requests += requests.len() as u64;

        // Phase 1: key and deduplicate. Groups keep first-submission order.
        collector.span_begin("key");
        let keys: Result<Vec<CacheKey>, ServiceError> = requests
            .iter()
            .map(|request| {
                cache_key(
                    &request.program,
                    &request.config.device.name,
                    &request.config.space,
                    self.config.rule_set_version,
                    self.config.cost_model_version,
                )
                .map_err(ServiceError::Explore)
            })
            .collect();
        collector.span_end("key");
        let keys = keys?;
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new(); // (first request idx, members)
        for (i, key) in keys.iter().enumerate() {
            match groups
                .iter_mut()
                .find(|(first, _)| keys[*first].id == key.id)
            {
                Some((_, members)) => members.push(i),
                None => groups.push((i, vec![i])),
            }
        }

        // Phase 2: serial cache lookup + warm-start seed collection. A hit whose program has
        // no vector yet, but shares its program with an earlier hit of this batch that will
        // build one, is deferred to a second wave that reuses that vector.
        collector.span_begin("lookup");
        let telemetry = collector.enabled();
        let mut plans: Vec<Plan> = Vec::with_capacity(groups.len());
        let mut deferred: Vec<bool> = Vec::with_capacity(groups.len());
        for (g, (first, _)) in groups.iter().enumerate() {
            let key = &keys[*first];
            let request = &requests[*first];
            deferred.push(false);
            match self.store.lookup(key, collector) {
                Some(payload) => {
                    if telemetry {
                        collector.record(Event::CacheHit {
                            key: key.id.clone(),
                            program: request.name.clone(),
                        });
                    }
                    let sizes = &request.config.base.sizes;
                    let vector = self.vectors.find(key.hash, &request.program, sizes);
                    if vector.is_none() {
                        deferred[g] = groups[..g].iter().zip(&plans).any(|((other, _), plan)| {
                            matches!(plan, Plan::Hit { vector: None, .. })
                                && same_reference(&requests[*other], request)
                        });
                    }
                    plans.push(Plan::Hit { payload, vector });
                }
                None => {
                    if telemetry {
                        collector.record(Event::CacheMiss {
                            key: key.id.clone(),
                            program: request.name.clone(),
                        });
                    }
                    let seeds = if self.config.warm_start {
                        self.store
                            .similar(&key.skeleton, &key.device, &key.id)
                            .into_iter()
                            .filter_map(|(options, launch)| {
                                request.config.space.seed_for_options(&options, &launch)
                            })
                            .take(4)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    plans.push(Plan::Miss { seeds });
                }
            }
        }
        collector.span_end("lookup");

        // Phase 3: derive/validate groups on the bounded deterministic worker pool, in two
        // waves; the deferred hits take the vectors the first wave built.
        let mut work: Vec<(usize, Plan)> =
            groups.iter().map(|(first, _)| *first).zip(plans).collect();
        let threads = self.config.threads;
        let (first_wave, second_wave): (Vec<usize>, Vec<usize>) =
            (0..work.len()).partition(|&g| !deferred[g]);
        let mut outcomes: Vec<Option<Result<Outcome, ServiceError>>> =
            (0..work.len()).map(|_| None).collect();
        for (&g, outcome) in
            first_wave
                .iter()
                .zip(fan_out(&requests, &work, &first_wave, threads, collector))
        {
            outcomes[g] = Some(outcome);
        }
        for &g in &second_wave {
            let request = &requests[work[g].0];
            let built = outcomes.iter().flatten().flatten().find_map(|o| {
                o.vector
                    .as_ref()
                    .filter(|v| v.is_for(&request.program, &request.config.base.sizes))
            });
            if let Plan::Hit { vector, .. } = &mut work[g].1 {
                *vector = built.cloned();
            }
        }
        for (&g, outcome) in
            second_wave
                .iter()
                .zip(fan_out(&requests, &work, &second_wave, threads, collector))
        {
            outcomes[g] = Some(outcome);
        }

        // Phase 4: serial merge — store updates, stats, responses in submission order.
        let mut responses: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();
        for ((first, members), outcome) in groups.iter().zip(outcomes) {
            let outcome = outcome.expect("every group ran in one wave")?;
            let key = &keys[*first];
            if outcome.evaluated_reference {
                self.stats.reference_evaluations += 1;
            }
            if outcome.replay_failed {
                self.stats.replay_failures += 1;
                self.vectors.users.remove(&key.id);
                self.store.remove(&key.id, "replay_failed", collector);
            }
            if let Some(vector) = outcome.vector {
                self.vectors.adopt(key.hash, &key.id, vector);
            }
            if outcome.served_hit {
                self.stats.hits += members.len() as u64;
            } else {
                self.stats.misses += 1;
                self.stats.coalesced += members.len() as u64 - 1;
                self.stats.derivations += 1;
                if outcome.warm_seeds > 0 {
                    self.stats.warm_started += 1;
                }
                self.store.insert(
                    StoredEntry {
                        key: key.clone(),
                        payload: CachedDerivation {
                            estimated_time: outcome.estimated_time,
                            steps: outcome.variant.steps.clone(),
                            rule_options: outcome.rule_options.clone(),
                            launch: outcome.launch,
                            kernel_source: outcome.variant.kernel_source.clone(),
                        },
                    },
                    collector,
                );
            }
            for (slot, &member) in members.iter().enumerate() {
                let served = if outcome.served_hit {
                    Served::WarmHit
                } else if slot == 0 {
                    Served::ColdMiss
                } else {
                    Served::Coalesced
                };
                responses[member] = Some(Response {
                    name: requests[member].name.clone(),
                    served,
                    variant: outcome.variant.clone(),
                    rule_options: outcome.rule_options.clone(),
                    launch: outcome.launch,
                    warm_seeds: outcome.warm_seeds,
                });
            }
        }
        self.vectors.retain_live(&self.store);
        collector.span_begin("persist");
        let persisted = self.store.persist();
        collector.span_end("persist");
        persisted?;
        Ok(responses
            .into_iter()
            .map(|r| r.expect("every request belongs to exactly one group"))
            .collect())
    }

    /// Flushes the store to disk (no-op for in-memory services).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when the store cannot be written.
    pub fn persist(&self) -> Result<(), ServiceError> {
        self.store.persist()
    }
}

fn worker_count(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Whether two requests are validated against the same test vector: the same program
/// under the same sizes (the device plays no part in the reference).
fn same_reference(a: &Request, b: &Request) -> bool {
    a.config.base.sizes == b.config.base.sizes && a.program == b.program
}

/// Runs the groups `indices` of `work` on the bounded deterministic worker pool and
/// returns their outcomes in the order of `indices`.
fn fan_out(
    requests: &[Request],
    work: &[(usize, Plan)],
    indices: &[usize],
    threads: usize,
    collector: &dyn Collector,
) -> Vec<Result<Outcome, ServiceError>> {
    let run = |&g: &usize| {
        let (first, plan) = &work[g];
        run_group(&requests[*first], plan, collector)
    };
    let workers = worker_count(threads).min(indices.len().max(1));
    if workers <= 1 {
        return indices.iter().map(run).collect();
    }
    let chunk = indices.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = indices
            .chunks(chunk)
            .map(|chunk| scope.spawn(move || chunk.iter().map(run).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("service worker panicked"))
            .collect()
    })
}

/// Replays a cached chain and re-proves it end to end against `vector` (typecheck,
/// compile + ownership pass, execute, validate against the reference); the re-proven
/// kernel must also be the stored one. Any failure is a stale entry, not a served result.
fn validate_hit(
    request: &Request,
    payload: &CachedDerivation,
    vector: Arc<TestVector>,
    collector: &dyn Collector,
) -> Result<BestVariant, ExploreError> {
    let config = ExplorationConfig {
        rule_options: payload.rule_options.clone(),
        launch: payload.launch,
        device: request.config.device.clone(),
        ..request.config.base.clone()
    };
    collector.span_begin("replay");
    let replayed = Enumerated::from_derivation(vector, &payload.steps, &config);
    collector.span_end("replay");
    let scored = replayed?.score_with(&config, collector)?;
    let v = scored
        .variants
        .first()
        .filter(|v| v.kernel_source == payload.kernel_source)
        .ok_or_else(|| {
            ExploreError::Reference("cached derivation no longer passes validation".to_string())
        })?;
    Ok(BestVariant {
        estimated_time: v.estimated_time,
        derivation: v
            .derivation
            .iter()
            .map(|s| format!("{} @ {}", s.rule, s.location))
            .collect(),
        steps: v.derivation.clone(),
        kernel_source: v.kernel_source.clone(),
    })
}

/// Seeds a cold-search strategy with warm-start points (no-op for exhaustive walks and
/// empty seed lists).
fn seeded(strategy: &Strategy, seeds: Vec<PointIndex>) -> Strategy {
    if seeds.is_empty() {
        return strategy.clone();
    }
    match strategy {
        Strategy::Exhaustive => Strategy::Exhaustive,
        Strategy::RandomHillClimb {
            seed,
            samples,
            max_steps,
        } => Strategy::SeededHillClimb {
            seeds,
            seed: *seed,
            samples: *samples,
            max_steps: *max_steps,
        },
        Strategy::SeededHillClimb {
            seeds: existing,
            seed,
            samples,
            max_steps,
        } => {
            let mut merged = existing.clone();
            merged.extend(seeds);
            Strategy::SeededHillClimb {
                seeds: merged,
                seed: *seed,
                samples: *samples,
                max_steps: *max_steps,
            }
        }
    }
}

/// Runs one deduplicated group: validate a hit (falling back to a cold derivation when the
/// replay fails) or cold-derive a miss from its warm-start seeds.
fn run_group(
    request: &Request,
    plan: &Plan,
    collector: &dyn Collector,
) -> Result<Outcome, ServiceError> {
    let (seeds, replay_failed, evaluated_reference) = match plan {
        Plan::Hit { payload, vector } => {
            collector.span_begin("validate");
            let evaluated_reference = vector.is_none();
            let vector = match vector {
                Some(vector) => Ok(Arc::clone(vector)),
                None => {
                    collector.span_begin("reference");
                    let built = TestVector::new(&request.program, &request.config.base.sizes);
                    collector.span_end("reference");
                    built.map(Arc::new)
                }
            };
            let proved = vector.and_then(|vector| {
                validate_hit(request, payload, Arc::clone(&vector), collector)
                    .map(|variant| (variant, vector))
            });
            collector.span_end("validate");
            match proved {
                Ok((variant, vector)) => {
                    return Ok(Outcome {
                        estimated_time: variant.estimated_time,
                        variant,
                        rule_options: payload.rule_options.clone(),
                        launch: payload.launch,
                        served_hit: true,
                        replay_failed: false,
                        warm_seeds: 0,
                        vector: Some(vector),
                        evaluated_reference,
                    })
                }
                Err(_) => (Vec::new(), true, evaluated_reference),
            }
        }
        Plan::Miss { seeds } => (seeds.clone(), false, false),
    };
    let mut config = request.config.clone();
    let warm_seeds = seeds.len();
    config.strategy = seeded(&config.strategy, seeds);
    let result = tune_with(&request.program, &config, collector).map_err(ServiceError::Tune)?;
    let point = result
        .best_point
        .ok_or_else(|| ServiceError::NoVariant(request.name.clone()))?;
    let variant = result
        .best_variant
        .expect("a best point always carries its best variant");
    Ok(Outcome {
        estimated_time: variant.estimated_time,
        variant,
        rule_options: point.rule_options,
        launch: point.launch,
        served_hit: false,
        replay_failed,
        warm_seeds,
        vector: None,
        evaluated_reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_tuner::Workload;

    fn vector(program: &Program, sizes: &Environment) -> Arc<TestVector> {
        Arc::new(TestVector::new(program, sizes).expect("the vector builds"))
    }

    #[test]
    fn vectors_are_found_by_exact_program_and_sizes_not_by_hash() {
        let dot = Workload::dot_product().program;
        let nbody = Workload::nbody().program;
        let plain = Environment::new();
        let bound = Environment::new().bind("unused", 4);
        let mut vectors = TestVectors::default();
        // Two programs forced under one hash: the lookup must still tell them apart.
        vectors.adopt(7, "a", vector(&dot, &plain));
        vectors.adopt(7, "b", vector(&nbody, &plain));
        assert_eq!(vectors.len(), 2);
        let found = |program: &Program, sizes: &Environment| {
            vectors
                .find(7, program, sizes)
                .is_some_and(|v| v.is_for(program, sizes))
        };
        assert!(found(&dot, &plain));
        assert!(found(&nbody, &plain));
        assert!(
            vectors.find(7, &dot, &bound).is_none(),
            "a program under other sizes never shares a vector"
        );
        assert!(vectors.find(8, &dot, &plain).is_none());

        // A second entry adopting the same vector does not duplicate it.
        let shared = vectors.find(7, &dot, &plain).expect("found");
        vectors.adopt(7, "c", shared);
        assert_eq!(vectors.len(), 2);
    }
}
