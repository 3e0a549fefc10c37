//! Runs one workload of the simulator benchmark and prints its result.
//!
//! Usage:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-expected <path>
//! ```
//!
//! The last line of standard output is the result as one JSON object;
//! progress and failures go to standard error. A traced run also writes
//! its spans to `out/spans-<workload>.jsonl` under the benchmark's
//! directory. `--write-expected` re-records the SPEC-analog statistics
//! that every cell is checked against.

use std::path::Path;
use std::process::ExitCode;

use hbdc_perfbench::{record_expectations, run, Options, Size, Workload};

const USAGE: &str = "usage: perfbench --workload <stencil-backlog|int-shallow|checkpoint-resume> \
                     --seed <n> --seconds <s> --trace <0|1> | --write-expected <path>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::StencilBacklog,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Bench,
        inject: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = args.as_slice() {
        if flag == "--write-expected" {
            return match record_expectations().and_then(|text| {
                std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
            }) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &outcome.failures {
        eprintln!("FAILED {failure}");
    }
    if opts.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}.jsonl", opts.workload.name()));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &outcome.spans_jsonl))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
