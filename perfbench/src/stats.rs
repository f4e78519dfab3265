//! The arithmetic behind the reported figures: percentiles under the ten-samples-beyond
//! rule, geometric means, and metric-name validation.

/// A tail percentile is only reported when at least this many samples lie beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation between closest
/// ranks, or `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("timings and modelled times are never NaN")
    });
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Number of samples strictly above the `q`-quantile.
pub fn samples_beyond(values: &[f64], q: f64) -> usize {
    match quantile(values, q) {
        Some(cut) => values.iter().filter(|v| **v > cut).count(),
        None => 0,
    }
}

/// The `q`-quantile if at least [`MIN_SAMPLES_BEYOND`] samples lie beyond it, else `None`.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(values, q) >= MIN_SAMPLES_BEYOND {
        quantile(values, q)
    } else {
        None
    }
}

/// Geometric mean of positive values (`None` if empty or any value is not positive).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The share of `wall` not covered by the timed layer calls (`attributed`), clamped at 0
/// for timer jitter; `None` for a zero wall time.
pub fn unattributed_frac(wall: f64, attributed: f64) -> Option<f64> {
    if wall > 0.0 {
        Some(((wall - attributed) / wall).max(0.0))
    } else {
        None
    }
}

/// `num / den`, or 0 when nothing was attempted (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: starts with a letter or digit, at
/// most 64 characters from letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: at most 16 characters from letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // 92 samples: p90 interpolates to 82.9, so samples 83..=92 (ten) lie beyond it.
        let v: Vec<f64> = (1..=92).map(f64::from).collect();
        assert_eq!(samples_beyond(&v, 0.9), 10);
        assert!(tail_percentile(&v, 0.9).is_some());
        // 91 samples put p90 at exactly 82 and leave nine beyond it: not reportable.
        let v: Vec<f64> = (1..=91).map(f64::from).collect();
        assert_eq!(samples_beyond(&v, 0.9), 9);
        assert_eq!(tail_percentile(&v, 0.9), None);
        // Ties at the cut do not count as beyond it.
        let v = vec![1.0; 200];
        assert_eq!(tail_percentile(&v, 0.9), None);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn unattributed_share_of_wall_time() {
        assert_eq!(unattributed_frac(10.0, 7.5), Some(0.25));
        assert_eq!(unattributed_frac(10.0, 10.2), Some(0.0));
        assert_eq!(unattributed_frac(0.0, 0.0), None);
    }

    #[test]
    fn names_and_units_follow_the_naming_rules() {
        assert!(valid_name("latency_p50_ms"));
        assert!(valid_name("vgpu.gen_ref.flops"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("count"));
        assert!(!valid_unit("requests per s"));
        assert!(!valid_unit(""));
    }
}
