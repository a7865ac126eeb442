//! Small measurement helpers: order statistics, the process's peak
//! memory and the run record's machine/commit metadata.

use rand::RngCore;
use std::path::Path;
use std::time::Duration;

/// The `p`-quantile (nearest rank) of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The interquartile mean of `values`: the mean of the middle half
/// (of all of them when there are fewer than four); 0 for an empty
/// slice. Runs report each figure as this over their passes or windows:
/// the host's speed drifts by tens of percent within seconds, a mean
/// of the middle half is not moved by a few slow passes, and it settles
/// with fewer passes than the median does.
pub fn middle_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A uniform float in `[0, 1)`.
pub fn unit(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
