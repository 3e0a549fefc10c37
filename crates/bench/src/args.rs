//! Command-line parsing of the campaign flags.
//!
//! All flag handling funnels through one argv scanner (`flag_value`), and
//! each flag's validation (and its exact error message) lives in exactly
//! one place. The helpers are re-exported from [`crate::runner`], which
//! is where `hbdc-sim` imports them.

use std::path::PathBuf;

use hbdc_workloads::{Benchmark, Scale};

/// The flags every campaign reads from `argv` (each takes a value):
/// `--scale`, `--bench`, `--threads`, `--journal` and `--resume`.
pub const MATRIX_FLAGS: [&str; 5] = ["--scale", "--bench", "--threads", "--journal", "--resume"];

/// The argument following `flag` on the command line. Outer `None`: the
/// flag is absent. Inner `None`: the flag is the last argument, with no
/// value after it (callers report their own usage errors).
fn flag_value(flag: &str) -> Option<Option<String>> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == flag)?;
    Some(args.get(i + 1).cloned())
}

/// Usage error (exit 2) naming the first of `args` that is neither one of
/// the `known` flags (each of which takes one value), one of the
/// value-less `switches`, nor a known flag's value, so a mistyped or
/// removed flag cannot silently run something other than what was asked
/// for.
pub fn reject_unknown_flags(args: &[String], known: &[&str], switches: &[&str]) {
    let mut args = args.iter().peekable();
    while let Some(a) = args.next() {
        if switches.contains(&a.as_str()) {
            continue;
        }
        if !known.contains(&a.as_str()) {
            let what = if a.starts_with('-') {
                "flag"
            } else {
                "argument"
            };
            let expected = [known, switches].concat();
            usage_bail(&format!(
                "unknown {what} `{a}` (expected {})",
                if expected.is_empty() {
                    "none".to_string()
                } else {
                    expected.join(", ")
                }
            ));
        }
        // A missing value is the flag's own usage error.
        args.next_if(|v| !v.starts_with("--"));
    }
}

/// The positive number following `flag`, if the flag is present. Usage
/// error (exit 2) naming the flag and `what` it needs otherwise.
fn positive_flag<T: std::str::FromStr + PartialOrd + Default>(flag: &str, what: &str) -> Option<T> {
    let v = flag_value(flag)?;
    let v = v.as_deref().unwrap_or("");
    match v.parse::<T>() {
        Ok(n) if n > T::default() => Some(n),
        _ => usage_bail(&format!("{flag} needs {what}, got `{v}`")),
    }
}

/// The path following `flag`, if the flag is present. Usage error (exit
/// 2) with `missing` when no path follows it.
fn path_flag(flag: &str, missing: &str) -> Option<PathBuf> {
    match flag_value(flag)? {
        Some(p) if !p.starts_with("--") => Some(PathBuf::from(p)),
        _ => usage_bail(missing),
    }
}

/// Reports a command-line usage problem and exits with status 2 (the
/// conventional usage-error code), without the panic machinery's
/// backtrace noise.
pub(crate) fn usage_bail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parses a `--scale` CLI value.
///
/// # Errors
///
/// Returns the offending string if it is not `test`, `small`, or `full`.
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "test" => Ok(Scale::Test),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale `{other}` (use test|small|full)")),
    }
}

/// The canonical CLI name of a [`Scale`] — the inverse of [`parse_scale`].
pub fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Reads the scale from `argv` (`--scale <value>`), defaulting to `full`.
/// Prints a usage message and exits with status 2 on an invalid value.
pub fn scale_from_args() -> Scale {
    flag_value("--scale").map_or(Scale::Full, |v| {
        parse_scale(v.as_deref().unwrap_or(""))
            .unwrap_or_else(|e| usage_bail(&format!("--scale: {e}")))
    })
}

/// Reads the cell-thread count from `argv` (`--threads <N>`): how many
/// matrix cells the campaign runs at once. `None` means "use every
/// available core". Prints a usage message and exits with status 2 on a
/// non-numeric or zero value.
pub fn threads_from_args() -> Option<usize> {
    positive_flag("--threads", "a positive integer")
}

/// Which benchmarks to run: all, or a `--bench <name>` subset.
pub fn benches_from_args() -> Vec<Benchmark> {
    let Some(v) = flag_value("--bench") else {
        return hbdc_workloads::all();
    };
    let name = v.as_deref().unwrap_or("");
    let Some(bench) = hbdc_workloads::by_name(name) else {
        let valid: Vec<&str> = hbdc_workloads::all().iter().map(Benchmark::name).collect();
        usage_bail(&format!(
            "--bench: unknown benchmark `{name}` (valid: {})",
            valid.join(", ")
        ));
    };
    vec![bench]
}

/// Reads the campaign journal from `argv`: `--journal <path>`, or
/// `--resume <path>` (the same, but the journal must already exist).
/// Prints a usage message naming the offending flag and exits with
/// status 2 on a missing path or a `--resume` of a missing journal.
pub fn journal_from_args() -> Option<PathBuf> {
    if let Some(p) = path_flag(
        "--resume",
        "--resume needs the journal path of the interrupted run",
    ) {
        if !p.exists() {
            usage_bail(&format!(
                "--resume: no journal at `{}` (use --journal to start a campaign)",
                p.display()
            ));
        }
        return Some(p);
    }
    path_flag(
        "--journal",
        "--journal needs a file path, e.g. `--journal table3.journal`",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale_values() {
        assert_eq!(parse_scale("test").unwrap(), Scale::Test);
        assert_eq!(parse_scale("small").unwrap(), Scale::Small);
        assert_eq!(parse_scale("full").unwrap(), Scale::Full);
        assert!(parse_scale("huge").is_err());
    }

    #[test]
    fn scale_labels_invert_parsing() {
        for s in [Scale::Test, Scale::Small, Scale::Full] {
            assert_eq!(parse_scale(scale_label(s)).unwrap(), s);
        }
    }
}
