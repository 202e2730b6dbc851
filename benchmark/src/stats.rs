//! Harness statistics: medians and quartiles, the tail-percentile rule,
//! and the host block every result carries.

use std::hint::black_box;
use std::time::Instant;

/// Median, as Python's `statistics.median`: the mean of the two middle
/// values for an even count. Panics on an empty set — a measurement with
/// zero samples is a harness bug, not a data point.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of zero samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three cut points of `statistics.quantiles(values, n=4)` (Python's
/// default "exclusive" method), so the spread this harness reports is
/// the one a reader recomputes from the same values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of zero samples");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten of
/// `n` samples beyond it (nearest-rank), or `None` when even the lowest
/// rung has fewer — a batch of 11 iterations has no honest tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

/// Nearest-rank percentile `p` of `values` (1-based rank ⌈p·n/100⌉).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of zero samples");
    let v = sorted(values);
    v[rank(v.len(), p).clamp(1, v.len()) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0).ceil() as usize
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A timing summary: median, quartiles, sample count, and the tail
/// percentile the sample count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` by [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            tail: tail_percentile(values.len()).map(|p| (p, percentile(values, p))),
        }
    }

    /// One line: `median [q1, q3] n=… (pXX …)`.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={v:.4}"),
            None => String::new(),
        };
        format!(
            "median={:.4} q1={:.4} q3={:.4} n={}{tail}",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// The machine a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// Size of the largest (last-level) cache, in bytes; 0 if unknown.
    pub llc_bytes: u64,
    pub profile: &'static str,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            llc_bytes: llc_bytes().unwrap_or(0),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// The host block as a JSON object body.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{:?},\"llc_bytes\":{},\"profile\":{:?}}}",
            self.nproc, self.cpu_model, self.llc_bytes, self.profile
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The largest cache of cpu0 as sysfs reports it (`index*/size`, e.g.
/// `307200K`), falling back to `/proc/cpuinfo`'s `cache size`.
fn llc_bytes() -> Option<u64> {
    let parse = |s: &str| -> Option<u64> {
        let s = s.trim();
        let (digits, mult) = match s.chars().last()? {
            'K' | 'k' => (&s[..s.len() - 1], 1024),
            'M' | 'm' => (&s[..s.len() - 1], 1024 * 1024),
            _ => (s, 1),
        };
        Some(digits.trim().parse::<u64>().ok()? * mult)
    };
    let sysfs = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache")
        .ok()
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| parse(&std::fs::read_to_string(e.path().join("size")).ok()?))
        .max();
    sysfs.or_else(|| {
        let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
        let line = info.lines().find(|l| l.starts_with("cache size"))?;
        parse(line.split_once(':')?.1.trim().trim_end_matches("B").trim())
    })
}

/// Host copy bandwidth: the median of three `copy_from_slice` passes
/// between two arrays of `array_bytes` each. Returns `(GB/s, bytes)`.
pub fn memcpy_gb_s(array_bytes: usize) -> (f64, usize) {
    let src = vec![0x5Au8; array_bytes];
    let mut dst = vec![0u8; array_bytes];
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&dst);
            array_bytes as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    (median(&passes), array_bytes)
}

/// Array size for [`memcpy_gb_s`]: four times the last-level cache, so
/// neither array fits in it (64 MiB when the cache size is unknown).
pub fn memcpy_array_bytes(llc_bytes: u64) -> usize {
    (4 * llc_bytes).max(64 << 20) as usize
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    obs::peak_rss_bytes().map(|b| b as f64 / 1e6).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn five_samples_match_python_and_have_no_tail() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quartiles(&v), [1.5, 3.0, 4.5]);
        assert_eq!(median(&v), 3.0);
        assert_eq!(tail_percentile(5), None);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.q1, s.q3, s.tail), (5, 1.5, 4.5, None));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eleven_samples_match_python_and_have_no_tail() {
        // statistics.quantiles(range(1, 12), n=4) == [3.0, 6.0, 9.0]
        let v = ramp(11);
        assert_eq!(quartiles(&v), [3.0, 6.0, 9.0]);
        assert_eq!(median(&v), 6.0);
        assert_eq!(tail_percentile(11), None);
        assert_eq!(Summary::of(&v).tail, None);
    }

    #[test]
    fn two_thousand_samples_report_p99() {
        // statistics.quantiles(range(1, 2001), n=4) == [500.25, 1000.5, 1500.75]
        let v = ramp(2000);
        assert_eq!(quartiles(&v), [500.25, 1000.5, 1500.75]);
        assert_eq!(median(&v), 1000.5);
        // p99.9 leaves 2 samples beyond it, p99 leaves 20.
        assert_eq!(tail_percentile(2000), Some(99.0));
        assert_eq!(Summary::of(&v).tail, Some((99.0, 1980.0)));
    }

    #[test]
    fn even_counts_interpolate_like_python() {
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        // Ten samples: the tail needs ten beyond, so none.
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
    }

    #[test]
    fn host_block_names_a_profile_and_cpus() {
        let h = Host::detect();
        assert!(h.nproc >= 1);
        assert!(h.json().contains("\"profile\""));
        assert_eq!(memcpy_array_bytes(0), 64 << 20);
        assert_eq!(memcpy_array_bytes(100 << 20), 400 << 20);
    }
}
