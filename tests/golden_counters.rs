//! Golden counter corpus of the Figure 8 kernels.
//!
//! Every kernel of the Figure 8 sweep — the 12 Table 1 cases at both problem sizes, each as
//! its hand-written reference and as the generated kernel at the three optimisation levels
//! (96 kernels) — is executed on the virtual GPU under the default engine. Its
//! [`CostCounters`] and a hash of the bits of its output buffer are compared against
//! `tests/fixtures/fig8_golden_counters.tsv`. Any difference fails: the cost model, the
//! Figure 8 ratios and the ranking of derivations all rest on these counters, so an
//! execution-tier change must leave every one of them bit-identical.
//!
//! The fixture is regenerated (after an intended change of counter semantics) with
//! `cargo test --release --test golden_counters -- --ignored bless_golden_counters`.

use std::path::PathBuf;

use lift::benchmarks::runner::compile_case;
use lift::benchmarks::{all_benchmarks, BenchmarkCase, ProblemSize};
use lift::codegen::CompilationOptions;
use lift::vgpu::{CostCounters, ExecutionRequest};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fig8_golden_counters.tsv")
}

/// The optimisation levels of Figure 8, labelled as in the fixture.
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

fn render_counters(c: &CostCounters) -> String {
    format!(
        "flops={} int_ops={} div_mod_ops={} global_accesses={} vector_accesses={} \
         global_transactions={} uncoalesced_accesses={} local_accesses={} \
         private_accesses={} barriers={} loop_iterations={} work_items={} work_groups={} \
         lockstep_rows={} group_span_rows={}",
        c.flops,
        c.int_ops,
        c.div_mod_ops,
        c.global_accesses,
        c.vector_accesses,
        c.global_transactions,
        c.uncoalesced_accesses,
        c.local_accesses,
        c.private_accesses,
        c.barriers,
        c.loop_iterations,
        c.work_items,
        c.work_groups,
        c.lockstep_rows,
        c.group_span_rows,
    )
}

/// Executes one kernel of the sweep (`level == None` is the hand-written reference) and
/// renders its fixture line: case, size, level, output hash, counters (tab-separated).
fn kernel_line(case: &BenchmarkCase, level: Option<usize>) -> String {
    let (label, executed) = match level {
        None => (
            "reference",
            ExecutionRequest::new(&case.reference_module)
                .launch(
                    &case.reference_kernel,
                    case.launch,
                    case.reference_args.clone(),
                )
                .map(|r| (r.buffers[case.reference_output_buffer].clone(), r)),
        ),
        Some(level) => {
            let (label, options) = &levels()[level];
            let kernel = compile_case(case, options)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", case.info.name));
            let (args, out) = kernel
                .bind_args(&case.inputs, &case.sizes)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", case.info.name));
            (
                *label,
                ExecutionRequest::new(&kernel.module)
                    .launch(&kernel.kernel_name, case.launch, args)
                    .map(|r| (r.buffers[out].clone(), r)),
            )
        }
    };
    let outcome = match executed {
        Ok((output, result)) => format!(
            "{:016x}\t{}",
            hash_bits(&output),
            render_counters(&result.report.counters)
        ),
        Err(e) => format!("error\t{e}"),
    };
    format!(
        "{}\t{}\t{label}\t{outcome}",
        case.info.name,
        case.size.label()
    )
}

/// The 96 fixture lines, in case order (small cases first), reference before the levels.
fn corpus() -> Vec<String> {
    let cases: Vec<BenchmarkCase> = ProblemSize::all()
        .into_iter()
        .flat_map(all_benchmarks)
        .collect();
    // Two workers: the large cases dominate, and the lines are reassembled in order.
    let jobs: Vec<(usize, Option<usize>)> = (0..cases.len())
        .flat_map(|c| std::iter::once((c, None)).chain((0..3).map(move |l| (c, Some(l)))))
        .collect();
    let mut lines = vec![String::new(); jobs.len()];
    std::thread::scope(|s| {
        let (even, odd): (Vec<_>, Vec<_>) = lines
            .iter_mut()
            .zip(&jobs)
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        for half in [even, odd] {
            let cases = &cases;
            s.spawn(move || {
                for (_, (line, &(case, level))) in half {
                    *line = kernel_line(&cases[case], level);
                }
            });
        }
    });
    lines
}

#[test]
fn figure8_counters_match_the_golden_corpus() {
    let fixture = std::fs::read_to_string(fixture_path()).expect("golden corpus fixture exists");
    let expected: Vec<&str> = fixture.lines().collect();
    let actual = corpus();
    assert_eq!(actual.len(), 96, "the Figure 8 sweep has 96 kernels");
    let diffs: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a.as_str() != **e)
        .map(|(a, e)| format!("  expected: {e}\n  actual:   {a}"))
        .collect();
    assert!(
        diffs.is_empty() && expected.len() == actual.len(),
        "{} of {} kernels differ from the golden corpus ({} fixture lines):\n{}",
        diffs.len(),
        actual.len(),
        expected.len(),
        diffs.join("\n")
    );
}

/// Rewrites the fixture from the current execution tier. Run only after an intended change
/// of counter semantics, and say why in the change log.
#[test]
#[ignore = "rewrites the golden corpus fixture"]
fn bless_golden_counters() {
    let mut text = corpus().join("\n");
    text.push('\n');
    std::fs::write(fixture_path(), text).expect("fixture is writable");
}
