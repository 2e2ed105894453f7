//! Experiment harnesses: one binary per paper artifact (Table I,
//! Table II, the Section IV hardware numbers, the Fig. 3 matrix proof)
//! plus ablation and scaling extensions, and the throughput and planner
//! bins over the same drivers.
//!
//! Run them with, e.g.:
//!
//! ```text
//! cargo run -p afft-bench --release --bin table1
//! cargo run -p afft-bench --release --bin table2
//! cargo run -p afft-bench --release --bin hwcost
//! cargo run -p afft-bench --release --bin matrix_proof
//! cargo run -p afft-bench --release --bin ablation
//! cargo run -p afft-bench --release --bin scaling
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use afft_obs::json;
pub mod paper;
pub mod workload;

/// Resolves the artifact timestamp for a bench bin's `--stamp <secs>`
/// flag: the pinned value when given (reproducible CI artifacts), the
/// system clock when the flag is absent.
///
/// A `--stamp` with a missing or unparseable value is a **hard error**,
/// never a silent clock fallback — a CI invocation that misspells its
/// pin must fail loudly, not emit a nondeterministically-stamped
/// artifact that happens to pass the schema check.
///
/// # Errors
///
/// A human-readable message naming the bad value (or its absence) for
/// the bin to print before exiting nonzero.
pub fn parse_stamp(args: &[String]) -> Result<u64, String> {
    let Some(at) = args.iter().position(|a| a == "--stamp") else {
        return Ok(std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()));
    };
    match args.get(at + 1) {
        None => Err("--stamp requires a value (unix seconds)".to_string()),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("--stamp value {v:?} is not a unix-seconds integer")),
    }
}

/// Formats a ratio as the paper's "X-factor" improvement strings.
pub fn factor(ours: f64, other: f64) -> String {
    if ours <= 0.0 {
        return "-".to_string();
    }
    format!("{:.1}X", other / ours)
}

/// Render one table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (c, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{c:>w$}  ", w = w));
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_formats() {
        assert_eq!(factor(4168.0, 3_611_551.0), "866.5X");
        assert_eq!(factor(0.0, 10.0), "-");
    }

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_stamp_pins_reads_clock_and_rejects_garbage() {
        // Pinned value wins verbatim.
        assert_eq!(parse_stamp(&argv(&["bin", "--stamp", "1234"])), Ok(1234));
        // No flag: the system clock (post-2020, sane).
        assert!(parse_stamp(&argv(&["bin", "--smoke"])).unwrap() > 1_577_836_800);
        // Malformed or missing values are hard errors, not clock
        // fallbacks — the regression this helper exists to prevent.
        assert!(parse_stamp(&argv(&["bin", "--stamp"])).is_err());
        assert!(parse_stamp(&argv(&["bin", "--stamp", "yesterday"])).is_err());
        assert!(parse_stamp(&argv(&["bin", "--stamp", "-5"])).is_err());
        assert!(parse_stamp(&argv(&["bin", "--stamp", "12.5"])).is_err());
    }
}
