//! Cross-run determinism of the modelled results.
//!
//! The modelled figures (`kernel_time_geomean`, `kernel_loc`, the Figure 8 ratios and the
//! tuned derivations behind them) depend only on the code and the seed. Each run writes
//! them to a record next to the benchmark executable, keyed by a hash of the executable,
//! the workload, the seed, `--seconds` and `--trace` (a traced `tune_cold` run covers
//! fewer requests); a later run with the same key must reproduce the record bit for bit.

use std::path::PathBuf;

use crate::stats::geomean;
use crate::{Outcome, Settings};

/// The deterministic part of a run, rendered with exact float bits.
pub fn render(out: &Outcome, e2e: &[(&str, f64)]) -> String {
    let mut lines = Vec::new();
    for (name, value) in e2e {
        if matches!(*name, "kernel_time_geomean" | "kernel_loc") {
            lines.push(format!("{name} {:016x}", value.to_bits()));
        }
    }
    if let Some(r) = geomean(&out.fig8_ratios) {
        lines.push(format!("fig8_ratio_geomean {:016x}", r.to_bits()));
    }
    lines.extend(out.digest.iter().cloned());
    lines.join("\n") + "\n"
}

/// FNV-1a over `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn record_path(workload: &str, settings: &Settings) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let build = fnv(&std::fs::read(&exe).ok()?);
    Some(exe.parent()?.join("perfbench-records").join(format!(
        "{build:016x}-{workload}-{}-{}-{}.txt",
        settings.seed,
        settings.seconds,
        u8::from(settings.trace)
    )))
}

/// Compares this run's deterministic results with an earlier run of the same build and
/// key, or records them if there is none.
///
/// # Errors
///
/// Returns a description of the first differing line.
pub fn check(
    workload: &str,
    settings: &Settings,
    out: &Outcome,
    e2e: &[(&str, f64)],
) -> Result<(), String> {
    let now = render(out, e2e);
    let Some(path) = record_path(workload, settings) else {
        return Ok(());
    };
    match std::fs::read_to_string(&path) {
        Ok(before) if before == now => Ok(()),
        Ok(before) => {
            let diff = before
                .lines()
                .zip(now.lines())
                .find(|(a, b)| a != b)
                .map_or("the number of results".to_string(), |(a, b)| {
                    format!("`{a}` became `{b}`")
                });
            Err(format!(
                "modelled results differ from an earlier run of this build and seed: {diff}"
            ))
        }
        Err(_) => {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, now));
            if let Err(e) = written {
                eprintln!("perfbench: cannot record {}: {e}", path.display());
            }
            Ok(())
        }
    }
}
