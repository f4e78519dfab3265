//! Workspace-level integration tests for the derivation service (`lift-service`): the
//! differential warm-vs-cold guarantee, request batching/deduplication pinned by
//! telemetry, persistence across reopen, whole-generation invalidation on a rule-set
//! version bump, and the in-memory test vectors that let warm hits skip re-evaluating the
//! reference without skipping the re-proof.

use std::path::Path;

use lift::ir::prelude::*;
use lift::service::{cache_key, DerivationService, Request, Response, Served, ServiceConfig};
use lift::telemetry::{counts_by_kind, Event, InMemory, Null, TimedEvent};
use lift::tuner::{Strategy, TuningConfig, Workload};
use lift::vgpu::{DeviceProfile, COST_MODEL_VERSION};

/// A deliberately small but real tuning request: the full pipeline runs (enumerate,
/// compile with the ownership pass, execute, validate), just over a reduced budget.
fn small_request(workload: &Workload) -> Request {
    small_request_on(workload, DeviceProfile::nvidia())
}

fn small_request_on(workload: &Workload, device: DeviceProfile) -> Request {
    let mut config = TuningConfig::new(
        device.clone(),
        workload.space_for(&device),
        Strategy::RandomHillClimb {
            seed: 1,
            samples: 2,
            max_steps: 2,
        },
    );
    // The dot product lowers within a few hundred candidates; MM needs the full budget to
    // reach a complete derivation.
    config.base.max_candidates = if workload.name == "dot_product" {
        400
    } else {
        3000
    };
    Request {
        name: workload.name.to_string(),
        program: workload.program.clone(),
        config,
    }
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("lift-service-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn warm_hits_replay_byte_identical_to_cold_derivations() {
    let mut service = DerivationService::open(ServiceConfig::default()).expect("service opens");
    for workload in [Workload::dot_product(), Workload::matrix_multiply()] {
        let request = small_request(&workload);
        let cold = service
            .request_with(request.clone(), &Null)
            .expect("cold derivation succeeds");
        assert_eq!(cold.served, Served::ColdMiss, "{}", workload.name);

        // The cold path must serve exactly what the tuner alone would have found.
        let direct = lift::tuner::tune(&request.program, &request.config)
            .expect("direct tuning succeeds")
            .best_variant
            .expect("direct tuning finds a variant");
        assert_eq!(
            cold.variant.kernel_source, direct.kernel_source,
            "{}",
            workload.name
        );

        // The warm hit replays the recorded chain through provenance and re-validates it;
        // the served variant must be byte-identical to the cold one.
        let warm = service
            .request_with(request, &Null)
            .expect("warm hit succeeds");
        assert_eq!(warm.served, Served::WarmHit, "{}", workload.name);
        assert_eq!(warm.variant.steps, cold.variant.steps, "{}", workload.name);
        assert_eq!(
            warm.variant.kernel_source, cold.variant.kernel_source,
            "{}: warm and cold kernels must be byte-identical",
            workload.name
        );
        assert_eq!(
            warm.variant.estimated_time, cold.variant.estimated_time,
            "{}: the deterministic cost model must re-score identically",
            workload.name
        );
        assert_eq!(warm.rule_options, cold.rule_options, "{}", workload.name);
        assert_eq!(warm.launch, cold.launch, "{}", workload.name);
    }
    let stats = service.stats();
    assert_eq!(stats.replay_failures, 0);
    assert_eq!((stats.hits, stats.misses), (2, 2));
}

#[test]
fn a_batch_of_identical_requests_costs_exactly_one_derivation() {
    let mut service = DerivationService::open(ServiceConfig::default()).expect("service opens");
    let collector = InMemory::default();
    let request = small_request(&Workload::dot_product());
    for _ in 0..5 {
        service.submit(request.clone());
    }
    let responses = service
        .drain_with(&collector)
        .expect("batched drain succeeds");

    assert_eq!(responses.len(), 5);
    assert_eq!(responses[0].served, Served::ColdMiss);
    for response in &responses[1..] {
        assert_eq!(response.served, Served::Coalesced);
        assert_eq!(
            response.variant.kernel_source,
            responses[0].variant.kernel_source
        );
        assert_eq!(response.variant.steps, responses[0].variant.steps);
    }

    let stats = service.stats();
    assert_eq!(stats.requests, 5);
    assert_eq!(
        stats.derivations, 1,
        "five identical requests cost one derivation"
    );
    assert_eq!(stats.coalesced, 4);

    // Telemetry pins the deduplication independently of the service's own counters:
    // exactly one cache_miss event for the whole batch, and no hits.
    let events = collector.events();
    let counts = counts_by_kind(&events);
    let count = |kind: &str| {
        counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    };
    assert_eq!(count("cache_miss"), 1);
    assert_eq!(count("cache_hit"), 0);
}

#[test]
fn the_cache_persists_across_service_reopen() {
    let root = temp_root("persist");
    let config = ServiceConfig {
        root: Some(root.clone()),
        ..ServiceConfig::default()
    };
    let request = small_request(&Workload::dot_product());

    let mut service = DerivationService::open(config.clone()).expect("first open");
    let cold = service
        .request_with(request.clone(), &Null)
        .expect("cold derivation succeeds");
    assert_eq!(cold.served, Served::ColdMiss);
    drop(service);

    // A brand-new process-equivalent: same directory, fresh service. The entry must come
    // back from disk and serve a re-validated warm hit.
    let mut reopened = DerivationService::open(config).expect("reopen");
    assert_eq!(reopened.store().len(), 1, "the entry survived the reopen");
    let warm = reopened
        .request_with(request, &Null)
        .expect("warm hit succeeds");
    assert_eq!(warm.served, Served::WarmHit);
    assert_eq!(warm.variant.kernel_source, cold.variant.kernel_source);
    assert_eq!(
        reopened.stats().derivations,
        0,
        "no re-derivation after reopen"
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bumping_the_rule_set_version_invalidates_prior_entries() {
    let root = temp_root("invalidate");
    let request = small_request(&Workload::dot_product());

    let mut service = DerivationService::open(ServiceConfig {
        root: Some(root.clone()),
        ..ServiceConfig::default()
    })
    .expect("first open");
    service
        .request_with(request.clone(), &Null)
        .expect("cold derivation succeeds");
    assert_eq!(service.store().len(), 1);
    drop(service);

    // The same directory under a bumped rule-set version: the persisted generation is
    // stale — every prior entry is dropped at open (reported, not served) and the request
    // is a miss again, re-derived from scratch.
    let collector = InMemory::default();
    let mut bumped = DerivationService::open_with(
        ServiceConfig {
            root: Some(root.clone()),
            rule_set_version: lift::rewrite::RULE_SET_VERSION + 1,
            ..ServiceConfig::default()
        },
        &collector,
    )
    .expect("reopen under the bumped version");
    assert_eq!(
        bumped.store().len(),
        0,
        "the stale generation was dropped at open"
    );
    assert_eq!(bumped.store().invalidated(), 1);

    let response = bumped
        .request_with(request.clone(), &collector)
        .expect("re-derivation succeeds");
    assert_eq!(
        response.served,
        Served::ColdMiss,
        "the stale entry was never served"
    );
    assert_eq!(bumped.stats().derivations, 1);

    let events = collector.events();
    let counts = counts_by_kind(&events);
    assert!(
        counts
            .iter()
            .any(|(k, n)| *k == "cache_invalidate" && *n == 1),
        "invalidation is reported: {counts:?}"
    );
    assert!(counts.iter().any(|(k, n)| *k == "cache_miss" && *n == 1));
    assert!(!counts.iter().any(|(k, _)| *k == "cache_hit"));

    // Reopening under the *original* version after the bumped generation persisted also
    // invalidates — generations never mix.
    drop(bumped);
    let original = DerivationService::open(ServiceConfig {
        root: Some(root.clone()),
        ..ServiceConfig::default()
    })
    .expect("reopen under the original version");
    assert_eq!(original.store().len(), 0);

    let _ = std::fs::remove_dir_all(&root);
}

/// The high-level partial dot product of Listing 1 over `n` elements, with `init` as the
/// reduction's initial value.
fn partial_dot(n: usize, init: f32) -> Workload {
    let mut p = Program::new("partial_dot");
    let mult = p.user_fun(UserFun::mult_pair());
    let add = p.user_fun(UserFun::add());
    let m1 = p.map(mult);
    let red = p.reduce(add, init);
    let m2 = p.map(red);
    let s = p.split(128usize);
    let j = p.join();
    let z = p.zip2();
    p.with_root(
        vec![
            ("x", Type::array(Type::float(), n)),
            ("y", Type::array(Type::float(), n)),
        ],
        |p, params| {
            let zipped = p.apply(z, [params[0], params[1]]);
            let mapped = p.apply1(m1, zipped);
            let split = p.apply1(s, mapped);
            let outer = p.apply1(m2, split);
            p.apply1(j, outer)
        },
    );
    Workload {
        program: p,
        ..Workload::dot_product()
    }
}

/// Submits every request and drains them as one batch.
fn drain(service: &mut DerivationService, requests: &[Request]) -> Vec<Response> {
    for request in requests {
        service.submit(request.clone());
    }
    service.drain_with(&Null).expect("the drain succeeds")
}

/// Rewrites the stored line of `request`'s entry with `tamper`.
fn tamper_entry(root: &Path, request: &Request, tamper: impl Fn(&str) -> String) {
    let key = cache_key(
        &request.program,
        &request.config.device.name,
        &request.config.space,
        lift::rewrite::RULE_SET_VERSION,
        COST_MODEL_VERSION,
    )
    .expect("the request keys");
    let path = root.join("store.jsonl");
    let store = std::fs::read_to_string(&path).expect("the store is readable");
    let tagged = format!("\"id\":\"{}\"", key.id);
    assert!(store.contains(&tagged), "the entry is stored");
    let tampered: String = store
        .lines()
        .map(|line| {
            let line = if line.contains(&tagged) {
                let tampered = tamper(line);
                assert_ne!(tampered, line, "the entry was tampered with");
                tampered
            } else {
                line.to_string()
            };
            line + "\n"
        })
        .collect();
    std::fs::write(&path, tampered).expect("the store is writable");
}

/// The stored files of a store directory, by name.
fn store_files(root: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(root)
        .expect("the store directory is readable")
        .map(|e| {
            let e = e.expect("entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("readable"),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn one_program_on_two_devices_evaluates_its_reference_once() {
    let mut service = DerivationService::open(ServiceConfig::default()).expect("service opens");
    let workload = Workload::dot_product();
    let requests = [
        small_request_on(&workload, DeviceProfile::nvidia()),
        small_request_on(&workload, DeviceProfile::amd()),
    ];
    drain(&mut service, &requests);
    assert_eq!(service.stats().derivations, 2);
    assert_eq!(
        service.stats().reference_evaluations,
        0,
        "cold derivations do not validate hits"
    );
    for _ in 0..3 {
        for response in drain(&mut service, &requests) {
            assert_eq!(response.served, Served::WarmHit);
        }
    }
    let stats = service.stats();
    assert_eq!(stats.hits, 6);
    assert_eq!(stats.replay_failures, 0);
    assert_eq!(
        stats.reference_evaluations, 1,
        "both devices' entries validate against one vector, built once"
    );
    assert_eq!(service.test_vectors(), 1);
}

#[test]
fn a_tampered_entry_is_demoted_even_with_its_vector_cached() {
    let workload = Workload::dot_product();
    let nvidia = small_request_on(&workload, DeviceProfile::nvidia());
    let amd = small_request_on(&workload, DeviceProfile::amd());
    let tamper_chain = |line: &str| line.replacen("\"alt\":0", "\"alt\":99", 1);
    let tamper_kernel = |line: &str| line.replacen("\"kernel\":\"", "\"kernel\":\"/* x */ ", 1);
    for (label, tamper) in [
        ("chain", &tamper_chain as &dyn Fn(&str) -> String),
        ("kernel source", &tamper_kernel),
    ] {
        let root = temp_root(&format!("tamper-{}", label.replace(' ', "-")));
        let config = ServiceConfig {
            root: Some(root.clone()),
            ..ServiceConfig::default()
        };
        let mut service = DerivationService::open(config.clone()).expect("first open");
        let cold = drain(&mut service, &[nvidia.clone(), amd.clone()]);
        drop(service);
        tamper_entry(&root, &amd, tamper);

        let mut service = DerivationService::open(config).expect("reopen");
        // The untampered entry validates first and caches the program's vector ...
        let warm = drain(&mut service, std::slice::from_ref(&nvidia));
        assert_eq!(warm[0].served, Served::WarmHit, "{label}");
        assert_eq!(service.test_vectors(), 1, "{label}");
        // ... which the tampered entry of the same program then shares: it must still be
        // replayed, re-proven and demoted.
        let demoted = drain(&mut service, std::slice::from_ref(&amd));
        assert_eq!(demoted[0].served, Served::ColdMiss, "{label}");
        assert_eq!(
            demoted[0].variant.kernel_source, cold[1].variant.kernel_source,
            "{label}: the cold derivation is served"
        );
        let stats = service.stats();
        assert_eq!(stats.replay_failures, 1, "{label}");
        assert_eq!(
            stats.reference_evaluations, 1,
            "{label}: the demoted hit ran against the cached vector"
        );
        assert_eq!(
            service.store().evictions(),
            1,
            "{label}: the entry was removed"
        );
        assert_eq!(service.store().len(), 2, "{label}: and re-derived");
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn programs_differing_only_in_a_literal_or_a_size_never_share_a_vector() {
    let mut service = DerivationService::open(ServiceConfig::default()).expect("service opens");
    let requests: Vec<Request> = [
        partial_dot(512, 0.0),
        partial_dot(512, 1.0),
        partial_dot(1024, 0.0),
    ]
    .iter()
    .map(small_request)
    .collect();
    drain(&mut service, &requests);
    for _ in 0..2 {
        for response in drain(&mut service, &requests) {
            assert_eq!(response.served, Served::WarmHit);
        }
    }
    let stats = service.stats();
    assert_eq!(
        stats.replay_failures, 0,
        "each hit validates against its own reference"
    );
    assert_eq!(stats.reference_evaluations, 3);
    assert_eq!(service.test_vectors(), 3);
}

#[test]
fn vectors_are_dropped_with_the_entries_that_use_them() {
    // LRU eviction: a store of capacity 1 holds one entry, so one vector at most.
    let mut service = DerivationService::open(ServiceConfig {
        capacity: 1,
        ..ServiceConfig::default()
    })
    .expect("service opens");
    let first = small_request(&partial_dot(512, 0.0));
    let second = small_request(&partial_dot(1024, 0.0));
    drain(&mut service, std::slice::from_ref(&first));
    drain(&mut service, std::slice::from_ref(&first));
    assert_eq!(service.test_vectors(), 1);
    drain(&mut service, std::slice::from_ref(&second));
    assert_eq!(service.store().evictions(), 1);
    assert_eq!(
        service.test_vectors(),
        0,
        "the evicted entry's vector is freed"
    );
    drain(&mut service, std::slice::from_ref(&second));
    assert_eq!(service.test_vectors(), 1);

    // Removal: a validated entry that no longer re-proves under a request (here its stored
    // kernel is not what the request's compiler options produce) is removed with its
    // vector, and re-derived.
    let mut service = DerivationService::open(ServiceConfig::default()).expect("service opens");
    drain(&mut service, std::slice::from_ref(&first));
    drain(&mut service, std::slice::from_ref(&first));
    assert_eq!(service.test_vectors(), 1);
    let mut unoptimised = first.clone();
    unoptimised.config.base.compile_options = lift::codegen::CompilationOptions::none();
    let response = drain(&mut service, &[unoptimised]);
    assert_eq!(response[0].served, Served::ColdMiss);
    assert_eq!(service.stats().replay_failures, 1);
    assert_eq!(
        service.test_vectors(),
        0,
        "the removed entry's vector is freed"
    );
}

#[test]
fn a_persisted_store_is_identical_with_and_without_cached_vectors() {
    let request = small_request(&Workload::dot_product());

    // With: the second hit is validated against the vector the first one built.
    let cached_root = temp_root("vectors-cached");
    let mut service = DerivationService::open(ServiceConfig {
        root: Some(cached_root.clone()),
        ..ServiceConfig::default()
    })
    .expect("service opens");
    for _ in 0..3 {
        drain(&mut service, std::slice::from_ref(&request));
    }
    assert_eq!(service.stats().reference_evaluations, 1);
    drop(service);

    // Without: a fresh service per hit, so every hit builds its vector.
    let fresh_root = temp_root("vectors-fresh");
    let config = ServiceConfig {
        root: Some(fresh_root.clone()),
        ..ServiceConfig::default()
    };
    for _ in 0..3 {
        let mut service = DerivationService::open(config.clone()).expect("service opens");
        drain(&mut service, std::slice::from_ref(&request));
    }

    assert_eq!(store_files(&cached_root), store_files(&fresh_root));
    let _ = std::fs::remove_dir_all(&cached_root);
    let _ = std::fs::remove_dir_all(&fresh_root);
}

#[test]
fn hits_served_from_a_cached_vector_equal_fresh_hits_and_direct_tuning() {
    let root = temp_root("vectors-equal");
    let config = ServiceConfig {
        root: Some(root.clone()),
        ..ServiceConfig::default()
    };
    for workload in [Workload::dot_product(), partial_dot(1024, 1.0)] {
        let request = small_request(&workload);
        let mut service = DerivationService::open(config.clone()).expect("service opens");
        drain(&mut service, std::slice::from_ref(&request));
        drain(&mut service, std::slice::from_ref(&request));
        let cached = drain(&mut service, std::slice::from_ref(&request)).remove(0);
        assert_eq!(service.stats().reference_evaluations, 1);
        drop(service);
        let mut fresh_service = DerivationService::open(config.clone()).expect("reopen");
        let fresh = drain(&mut fresh_service, std::slice::from_ref(&request)).remove(0);
        assert_eq!(fresh_service.stats().reference_evaluations, 1);

        assert_eq!(cached.name, fresh.name);
        assert_eq!(cached.served, Served::WarmHit);
        assert_eq!(fresh.served, Served::WarmHit);
        assert_eq!(cached.variant, fresh.variant);
        assert_eq!(
            cached.variant.estimated_time.to_bits(),
            fresh.variant.estimated_time.to_bits()
        );
        assert_eq!(cached.rule_options, fresh.rule_options);
        assert_eq!(cached.launch, fresh.launch);
        assert_eq!(cached.warm_seeds, fresh.warm_seeds);

        let direct = lift::tuner::tune(&request.program, &request.config).expect("tuning");
        let point = direct.best_point.expect("a best point");
        let variant = direct.best_variant.expect("a best variant");
        assert_eq!(cached.variant, variant);
        assert_eq!(
            cached.variant.estimated_time.to_bits(),
            variant.estimated_time.to_bits()
        );
        assert_eq!(cached.rule_options, point.rule_options);
        assert_eq!(cached.launch, point.launch);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// The span markers in `events`, in order: `+name` for a begin, `-name` for an end.
fn spans(events: &[TimedEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match e.event {
            Event::SpanBegin { name } => Some(format!("+{name}")),
            Event::SpanEnd { name } => Some(format!("-{name}")),
            _ => None,
        })
        .collect()
}

#[test]
fn warm_drains_emit_layer_spans_and_reuse_the_reference() {
    let mut service = DerivationService::open(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    })
    .expect("service opens");
    let request = small_request(&Workload::dot_product());
    drain(&mut service, std::slice::from_ref(&request));

    let warm_spans = |service: &mut DerivationService| {
        let collector = InMemory::default();
        service
            .request_with(request.clone(), &collector)
            .expect("the hit is served");
        spans(&collector.into_events())
    };
    let first = warm_spans(&mut service);
    let second = warm_spans(&mut service);
    let service_spans = |all: &[String]| -> Vec<String> {
        let layers = [
            "key",
            "lookup",
            "validate",
            "reference",
            "replay",
            "persist",
        ];
        all.iter()
            .filter(|s| layers.contains(&&s[1..]))
            .cloned()
            .collect()
    };
    let expected =
        |markers: &[&str]| -> Vec<String> { markers.iter().map(|m| m.to_string()).collect() };
    assert_eq!(
        service_spans(&first),
        expected(&[
            "+key",
            "-key",
            "+lookup",
            "-lookup",
            "+validate",
            "+reference",
            "-reference",
            "+replay",
            "-replay",
            "-validate",
            "+persist",
            "-persist",
        ])
    );
    assert_eq!(
        service_spans(&second),
        expected(&[
            "+key",
            "-key",
            "+lookup",
            "-lookup",
            "+validate",
            "+replay",
            "-replay",
            "-validate",
            "+persist",
            "-persist",
        ]),
        "the second hit of the key reuses its vector: no reference span"
    );
    // The re-proof's own phases nest under `validate`.
    let at = |marker: &str| second.iter().position(|s| s == marker).expect(marker);
    for phase in ["typecheck", "compile", "execute", "score"] {
        assert!(
            at("+validate") < at(&format!("+{phase}"))
                && at(&format!("-{phase}")) < at("-validate"),
            "{phase} nests under validate"
        );
    }
}
