//! Workspace-level integration test: every Table 1 benchmark compiles through the full Lift
//! pipeline, executes on the virtual GPU at every optimisation level, and both the generated
//! kernel and the hand-written reference kernel reproduce the host-computed result.

use lift::benchmarks::runner::{run_lift, run_reference};
use lift::benchmarks::{all_benchmarks, md, ProblemSize};
use lift::codegen::CompilationOptions;

#[test]
fn all_benchmarks_generate_correct_kernels() {
    for case in all_benchmarks(ProblemSize::Small) {
        let outcome = run_lift(&case, &CompilationOptions::all_optimisations())
            .unwrap_or_else(|e| panic!("{}: {e}", case.info.name));
        assert!(
            outcome.correct,
            "{}: generated kernel output does not match the host reference",
            case.info.name
        );
        assert!(
            outcome.source_lines > 0,
            "{}: empty kernel source",
            case.info.name
        );
    }
}

#[test]
fn all_reference_kernels_are_correct() {
    for case in all_benchmarks(ProblemSize::Small) {
        let outcome = run_reference(&case).unwrap_or_else(|e| panic!("{}: {e}", case.info.name));
        assert!(
            outcome.correct,
            "{}: reference kernel output does not match the host reference",
            case.info.name
        );
    }
}

#[test]
fn optimisation_levels_do_not_change_results() {
    // Check the ablation levels on a representative subset (the cheap benchmarks) so the test
    // stays fast; the figure8 harness exercises all of them.
    for case in all_benchmarks(ProblemSize::Small)
        .into_iter()
        .filter(|c| matches!(c.info.name, "NN" | "MRI-Q" | "K-Means" | "Convolution"))
    {
        let reference = run_lift(&case, &CompilationOptions::all_optimisations()).unwrap();
        for options in [
            CompilationOptions::without_array_access_simplification(),
            CompilationOptions::none(),
        ] {
            let outcome = run_lift(&case, &options).unwrap();
            assert!(
                outcome.correct,
                "{} at level {}",
                case.info.name,
                options.label()
            );
            assert_eq!(
                outcome.output, reference.output,
                "{}: optimisations changed the numerical result",
                case.info.name
            );
        }
    }
}

#[test]
fn md_large_kernels_match_the_host_reference() {
    // At the large size the interaction terms cancel at about 1.7e10: every MD kernel must
    // match the host reference there too, at every optimisation level.
    let case = md::case(ProblemSize::Large);
    let reference = run_reference(&case).expect("MD reference kernel runs");
    assert!(
        reference.correct,
        "MD large: reference kernel output differs"
    );
    for options in [
        CompilationOptions::none(),
        CompilationOptions::without_array_access_simplification(),
        CompilationOptions::all_optimisations(),
    ] {
        let outcome = run_lift(&case, &options).expect("MD compiles and runs");
        assert!(
            outcome.correct,
            "MD large at level {}: generated kernel output differs",
            options.label()
        );
    }
}
