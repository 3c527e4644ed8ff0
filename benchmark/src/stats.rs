//! Sample statistics and the process's own resource counters.

use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Index of the smallest value (the first one on a tie). The program
/// is deterministic and single-threaded, so rounds that do identical
/// work differ only by what the machine added; the fastest round is
/// the one it disturbed least.
pub fn fastest(values: &[Duration]) -> usize {
    assert!(!values.is_empty(), "fastest of no rounds");
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v < values[best] {
            best = i;
        }
    }
    best
}

/// `slowest / fastest - 1`: how far the machine pushed identical
/// repetitions apart.
pub fn spread(values: &[Duration]) -> f64 {
    let min = values.iter().min().expect("spread of no values");
    let max = values.iter().max().expect("spread of no values");
    max.as_secs_f64() / min.as_secs_f64() - 1.0
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time this process has used so far (user + system), from
/// `/proc/self/stat`. Linux reports it in clock ticks of 1/100 s.
pub fn cpu_time() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after ")".
    Ok(Duration::from_millis((ticks(11)? + ticks(12)?) * 10))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: &[u64]) -> Vec<Duration> {
        ms.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn nearest_rank_percentile_on_hand_made_samples() {
        let s = sample(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(percentile(&s, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&s, 51.0), Duration::from_millis(60));
        assert_eq!(percentile(&s, 99.0), Duration::from_millis(100));
        assert_eq!(percentile(&s, 100.0), Duration::from_millis(100));
        assert_eq!(percentile(&s, 1.0), Duration::from_millis(10));
        // Odd length: the median is the middle element.
        assert_eq!(
            percentile(&sample(&[1, 2, 3]), 50.0),
            Duration::from_millis(2)
        );
        assert_eq!(percentile(&sample(&[7]), 50.0), Duration::from_millis(7));
    }

    #[test]
    fn fastest_round_and_spread_on_hand_made_samples() {
        let walls = sample(&[3100, 3000, 3300, 3000]);
        assert_eq!(fastest(&walls), 1, "the first of two equal minima");
        assert!((spread(&walls) - 0.1).abs() < 1e-12);
        assert_eq!(fastest(&sample(&[5])), 0);
        assert_eq!(spread(&sample(&[5])), 0.0);
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        cpu_time().unwrap();
    }
}
