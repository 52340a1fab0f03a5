//! Order statistics over timing samples.

/// Sorts a copy of `values` ascending (NaN-free input is assumed; NaNs sort
/// last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median, averaging the two middle values of an even-sized sample.
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `n - 1` cut points dividing `values` into `n` groups, by the same
/// "exclusive" interpolation as Python's `statistics.quantiles(values, n=n)`.
/// `None` when there are fewer than two values or `n < 2`.
pub fn quantiles(values: &[f64], n: usize) -> Option<Vec<f64>> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 || n < 2 {
        return None;
    }
    let m = ld + 1;
    let cuts = (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
        })
        .collect();
    Some(cuts)
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the benchmark's bounds are compared against. `None` when the sample is
/// too small or the median is zero.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let q = quantiles(values, 4)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q[2] - q[0]) / med.abs())
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest value
/// with at least `p`% of the sample at or below it. `None` for an empty
/// sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The arithmetic mean. `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}
