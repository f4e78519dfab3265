//! Golden test-vector corpus of the tuner workloads.
//!
//! Every candidate derivation is validated against its program's [`TestVector`]: the
//! deterministic inputs and the reference interpreter's output on them. For each program of
//! `Workload::all()`, this test hashes the bits of every input buffer and of the reference
//! output and compares them against `tests/fixtures/golden_test_vectors.tsv`, for the
//! vector [`TestVector::new`] builds, the one an enumeration carries and the one a replayed
//! derivation is scored with. Any difference fails: a change to the input generator or the
//! reference path would silently change what every derivation is validated against.
//!
//! The fixture is regenerated (after an intended change of the generator) with
//! `cargo test --release --test golden_test_vectors -- --ignored bless_golden_test_vectors`.

use std::path::PathBuf;
use std::sync::Arc;

use lift::arith::Environment;
use lift::rewrite::{enumerate, Enumerated, ExplorationConfig, TestVector};
use lift::tuner::Workload;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_test_vectors.tsv")
}

/// FNV-1a over the length and the IEEE-754 bits of every element.
fn hash_bits(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&(data.len() as u64).to_le_bytes());
    for v in data {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

/// The fixture line of one vector: workload, input hashes (comma-separated, in root
/// parameter order), reference hash.
fn vector_line(name: &str, vector: &TestVector) -> String {
    let inputs: Vec<String> = vector
        .input_buffers()
        .map(|b| format!("{:016x}", hash_bits(b)))
        .collect();
    format!(
        "{name}\t{}\t{:016x}\n",
        inputs.join(","),
        hash_bits(vector.reference())
    )
}

fn corpus() -> String {
    let sizes = Environment::new();
    Workload::all()
        .iter()
        .map(|w| {
            let vector =
                TestVector::new(&w.program, &sizes).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            vector_line(w.name, &vector)
        })
        .collect()
}

#[test]
fn test_vectors_match_the_golden_corpus() {
    let expected = std::fs::read_to_string(fixture_path()).expect("fixture is readable");
    assert_eq!(
        corpus(),
        expected,
        "test vectors differ from the golden corpus"
    );
}

#[test]
fn enumeration_and_replay_validate_against_the_golden_vectors() {
    let expected = std::fs::read_to_string(fixture_path()).expect("fixture is readable");
    // Depth 0: the search stops at once, but the vector is built exactly as for a full one.
    let config = ExplorationConfig {
        max_depth: 0,
        ..ExplorationConfig::default()
    };
    let mut enumerated = String::new();
    let mut replayed = String::new();
    for w in Workload::all() {
        let from_search = enumerate(&w.program, &config).expect("the workload enumerates");
        enumerated.push_str(&vector_line(w.name, from_search.test_vector()));
        let vector = Arc::new(TestVector::new(&w.program, &config.sizes).expect("vector"));
        let from_chain =
            Enumerated::from_derivation(vector, &[], &config).expect("an empty chain replays");
        replayed.push_str(&vector_line(w.name, from_chain.test_vector()));
    }
    assert_eq!(enumerated, expected, "enumeration's vectors differ");
    assert_eq!(replayed, expected, "replayed derivations' vectors differ");
}

#[test]
#[ignore = "rewrites the fixture; run explicitly after an intended generator change"]
fn bless_golden_test_vectors() {
    std::fs::write(fixture_path(), corpus()).expect("fixture is writable");
}
