//! `hbdc-sim` — command-line driver for the hbdc simulator stack.
//!
//! ```text
//! hbdc-sim run <prog.s|prog.hbo|bench:NAME> [--port SPEC] [--max-insts N]
//!              [--ruu N] [--lsq N] [--ls-units N] [--scale test|small|full]
//!              [--frontend perfect|gshare|bimodal]
//!              [--audit] [--max-cycles N] [--inject SEED]
//!              [--checkpoint PATH [--every N]]
//! hbdc-sim resume <snapshot> [--checkpoint PATH] [--every N]
//! hbdc-sim trace capture <prog.s|prog.hbo|bench:NAME> -o <trace.hbtr>
//!              [--warmup N] [--cap N] [--scale test|small|full]
//! hbdc-sim trace info <trace.hbtr>           print HBTR header + stream stats
//! hbdc-sim trace replay <trace.hbtr> [--port SPEC] [--ruu N] [--lsq N] ...
//! hbdc-sim asm <prog.s> -o <prog.hbo>        assemble to a binary object
//! hbdc-sim disasm <prog.s|prog.hbo>          print assembler-compatible text
//! hbdc-sim analyze <prog.s|bench:NAME>       stream locality + miss-rate report
//! hbdc-sim bench-list                        list the SPEC95 analogs
//! hbdc-sim campaign all|ARTIFACT... [--out DIR] [--scale ...] [--bench NAME]
//!              [--journal PATH | --resume PATH] [--threads N]
//! hbdc-sim fuzz [--seed N] [--budget N] [--corpus DIR] [--matrix-every N]
//!              [--small] [--keep-going] [--selftest]
//! ```
//!
//! `trace capture` runs the functional model once and seals the committed
//! stream into an HBTR file; `trace replay` then drives the timing model
//! from that file under any port configuration, producing a report
//! bit-identical to a `run` of the same program (which captures in
//! memory first) — the functional pass is paid once, not once per
//! configuration.
//!
//! With `--checkpoint`, the run writes a crash-safe snapshot of the full
//! simulator state every `--every` cycles (default 1 000 000), and
//! `hbdc-sim resume <snapshot>` continues a killed run (Ctrl-C included)
//! from its last snapshot bit-identically — the resumed run's report
//! equals an uninterrupted one's.
//!
//! Every subcommand refuses a flag it does not read (exit 2), so a typo
//! cannot silently run something other than what was asked for.
//!
//! Port SPEC grammar: `ideal:4`, `repl:2`, `bank:8`, `bank:8:xor`,
//! `bank:8:rand`, `lbic:4x2`, `lbic:4x2:sq=16`, `lbic:4x2:largest`.

mod portspec;
mod program_source;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hbdc::prelude::*;
use hbdc_bench::runner::reject_unknown_flags;

use portspec::parse_port;
use program_source::load_program;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hbdc-sim run <prog.s|prog.hbo|bench:NAME> [--port SPEC] [--max-insts N]\n\
         \x20          [--ruu N] [--lsq N] [--ls-units N] [--scale test|small|full]\n\
         \x20          [--frontend perfect|gshare|bimodal]\n\
         \x20          [--audit] [--max-cycles N] [--inject SEED]\n\
         \x20          [--checkpoint PATH [--every N]]\n  \
         hbdc-sim resume <snapshot> [--checkpoint PATH] [--every N]\n  \
         hbdc-sim trace capture <prog.s|prog.hbo|bench:NAME> -o <trace.hbtr>\n\
         \x20          [--warmup N] [--cap N] [--scale test|small|full]\n  \
         hbdc-sim trace info <trace.hbtr>\n  \
         hbdc-sim trace replay <trace.hbtr> [--port SPEC] [--ruu N] [--lsq N]\n\
         \x20          [--ls-units N] [--audit] [--max-cycles N]\n\
         \x20          [--checkpoint PATH [--every N]]\n  \
         hbdc-sim asm <prog.s> -o <prog.hbo>\n  \
         hbdc-sim disasm <prog.s|prog.hbo>\n  \
         hbdc-sim analyze <prog.s|bench:NAME> [--banks N] [--scale ...]\n  \
         hbdc-sim bench-list\n  \
         hbdc-sim campaign all|ARTIFACT... [--out DIR] [--scale ...] [--bench NAME]\n\
         \x20          [--journal PATH | --resume PATH] [--threads N]\n  \
         hbdc-sim fuzz [--seed N] [--budget N] [--corpus DIR] [--matrix-every N]\n\
         \x20          [--small] [--keep-going] [--selftest]\n\n\
         port SPEC: ideal:P | repl:P | bank:M[:xor|:rand] | lbic:MxN[:sq=K][:largest]"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_num(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects a number, got `{v}`")),
    }
}

/// The machine-shape flags `run` and `trace replay` share (each takes a
/// value).
const MACHINE_FLAGS: [&str; 8] = [
    "--port",
    "--ruu",
    "--lsq",
    "--ls-units",
    "--max-insts",
    "--max-cycles",
    "--checkpoint",
    "--every",
];

/// The port and machine shape `run` and `trace replay` share: `--port`
/// (default `lbic:4x2`), `--ruu`, `--lsq`, `--ls-units`, `--max-insts`,
/// `--max-cycles` and `--audit`, over [`CpuConfig::default`].
fn machine_from_args(args: &[String]) -> Result<(PortConfig, CpuConfig), String> {
    let port = parse_port(&flag_value(args, "--port").unwrap_or_else(|| "lbic:4x2".into()))?;
    let cfg = CpuConfig {
        ruu_size: parse_num(args, "--ruu", 1024)? as usize,
        lsq_size: parse_num(args, "--lsq", 512)? as usize,
        ls_units: parse_num(args, "--ls-units", 64)? as u32,
        max_insts: parse_num(args, "--max-insts", u64::MAX)?,
        max_cycles: parse_num(args, "--max-cycles", u64::MAX)?,
        audit: args.iter().any(|a| a == "--audit") || CpuConfig::default().audit,
        ..CpuConfig::default()
    };
    Ok((port, cfg))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let target = args.first().ok_or("missing program argument")?;
    reject_unknown_flags(
        &args[1..],
        &[&MACHINE_FLAGS[..], &["--scale", "--frontend", "--inject"]].concat(),
        &["--audit"],
    );
    let program = load_program(target, args)?;
    let (port, machine) = machine_from_args(args)?;
    let front_end = match flag_value(args, "--frontend").as_deref() {
        None | Some("perfect") => hbdc::cpu::FrontEnd::Perfect,
        Some("gshare") => hbdc::cpu::FrontEnd::Predicted {
            kind: hbdc::cpu::PredictorKind::Gshare {
                entries: 4096,
                history_bits: 12,
            },
            redirect_penalty: 3,
        },
        Some("bimodal") => hbdc::cpu::FrontEnd::Predicted {
            kind: hbdc::cpu::PredictorKind::Bimodal { entries: 2048 },
            redirect_penalty: 3,
        },
        Some(other) => return Err(format!("unknown front end `{other}`")),
    };
    let inject_seed = match flag_value(args, "--inject") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--inject expects a seed, got `{v}`"))?,
        ),
    };
    let cfg = CpuConfig {
        // --inject without --audit would corrupt arbitration silently, so
        // injection forces the auditor on.
        audit: machine.audit || inject_seed.is_some(),
        front_end,
        ..machine
    };
    let checkpoint = checkpoint_from_args(args)?;
    if checkpoint.is_some() && inject_seed.is_some() {
        return Err(
            "--checkpoint cannot be combined with --inject (a fault-injected port model \
             cannot be reconstructed from a snapshot)"
                .into(),
        );
    }
    let hier_cfg = HierarchyConfig::default();
    let mut sim = match inject_seed {
        Some(seed) => {
            let injector = FaultInjector::auto(port, hier_cfg.l1_line, seed)?;
            Simulator::with_port_model(&program, cfg, hier_cfg, port, Box::new(injector))
        }
        None => Simulator::try_new(&program, cfg, hier_cfg, port).map_err(|e| e.to_string())?,
    };
    let report = drive(&mut sim, checkpoint.as_ref())?;
    print_report(target, &report);
    Ok(())
}

/// Continues a checkpointed run from its snapshot file. By default the
/// run keeps checkpointing to the same file; `--checkpoint` redirects it.
fn cmd_resume(args: &[String]) -> Result<(), String> {
    let target = args.first().ok_or("missing snapshot path")?;
    reject_unknown_flags(&args[1..], &["--checkpoint", "--every"], &[]);
    let snapshot = SimSnapshot::read_from_path(Path::new(target)).map_err(|e| e.to_string())?;
    let mut sim = Simulator::resume(&snapshot).map_err(|e| e.to_string())?;
    eprintln!(
        "hbdc-sim: resumed {} at cycle {} ({} committed)",
        target,
        sim.current_cycle(),
        sim.committed()
    );
    let path = flag_value(args, "--checkpoint").unwrap_or_else(|| target.clone());
    let every = checkpoint_every(args)?;
    let report = drive(&mut sim, Some(&(PathBuf::from(path), every)))?;
    print_report(target, &report);
    Ok(())
}

/// Dispatches `hbdc-sim trace capture|info|replay`.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let sub = args
        .first()
        .ok_or("trace expects a subcommand: capture, info, or replay")?;
    let rest = &args[1..];
    match sub.as_str() {
        "capture" => cmd_trace_capture(rest),
        "info" => cmd_trace_info(rest),
        "replay" => cmd_trace_replay(rest),
        other => Err(format!(
            "unknown trace subcommand `{other}` (expected capture, info, or replay)"
        )),
    }
}

/// Runs the functional model once and seals the committed stream into an
/// HBTR trace file. The capture is the execute-once half of trace-driven
/// simulation: every later `trace replay` of the file skips functional
/// execution entirely.
fn cmd_trace_capture(args: &[String]) -> Result<(), String> {
    let target = args.first().ok_or("missing program argument")?;
    reject_unknown_flags(&args[1..], &["-o", "--warmup", "--cap", "--scale"], &[]);
    let output = flag_value(args, "-o").ok_or("missing -o <trace.hbtr>")?;
    let program = load_program(target, args)?;
    let warmup = parse_num(args, "--warmup", 0)?;
    let cap = match flag_value(args, "--cap") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--cap expects an instruction count, got `{v}`"))?,
        ),
    };
    let started = std::time::Instant::now();
    let trace =
        hbdc::cpu::CommittedTrace::capture(&program, warmup, cap).map_err(|e| e.to_string())?;
    trace
        .write_to_path(Path::new(&output))
        .map_err(|e| e.to_string())?;
    println!(
        "{output}: {} records ({} loads, {} stores), warmup {}, {} bytes, captured in {:.2}s{}",
        trace.records(),
        trace.loads(),
        trace.stores(),
        trace.warmup_insts(),
        trace.as_bytes().len(),
        started.elapsed().as_secs_f64(),
        if trace.is_complete() {
            ""
        } else {
            " [truncated by --cap; replays only under --max-insts/--max-cycles it covers]"
        }
    );
    Ok(())
}

/// Prints the HBTR header and stream statistics of a sealed trace file
/// without replaying it.
fn cmd_trace_info(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("missing trace file")?;
    reject_unknown_flags(&args[1..], &[], &[]);
    let trace =
        hbdc::cpu::CommittedTrace::read_from_path(Path::new(input)).map_err(|e| e.to_string())?;
    let program = trace.program();
    println!("trace          {input}");
    println!(
        "format         HBTR v{} ({} bytes, checksum verified)",
        hbdc::cpu::TRACE_VERSION,
        trace.as_bytes().len()
    );
    println!(
        "program        {} instructions, {} data bytes, fingerprint {:016x}",
        program.text().len(),
        program.data().len(),
        trace.program_fingerprint()
    );
    println!(
        "warmup         {} instructions skipped",
        trace.warmup_insts()
    );
    println!(
        "records        {} committed ({} loads, {} stores)",
        trace.records(),
        trace.loads(),
        trace.stores()
    );
    println!(
        "complete       {}",
        if trace.is_complete() {
            "yes (ends at halt)"
        } else {
            "no (capture cap hit; replays only under caps it covers)"
        }
    );
    Ok(())
}

/// Replays a captured trace through the timing model. The report is
/// bit-identical to a `run` of the same program with the same warmup,
/// which captures the trace in memory instead of reading it from a file.
fn cmd_trace_replay(args: &[String]) -> Result<(), String> {
    let target = args.first().ok_or("missing trace file")?;
    reject_unknown_flags(&args[1..], &MACHINE_FLAGS, &["--audit"]);
    let trace =
        hbdc::cpu::CommittedTrace::read_from_path(Path::new(target)).map_err(|e| e.to_string())?;
    let (port, machine) = machine_from_args(args)?;
    let cfg = CpuConfig {
        // Replay must start at the trace's own measurement point.
        warmup_insts: trace.warmup_insts(),
        ..machine
    };
    let checkpoint = checkpoint_from_args(args)?;
    let hier_cfg = HierarchyConfig::default();
    let mut sim =
        Simulator::try_from_trace(&trace, cfg, hier_cfg, port).map_err(|e| e.to_string())?;
    let report = drive(&mut sim, checkpoint.as_ref())?;
    print_report(target, &report);
    Ok(())
}

/// Parses `--checkpoint PATH [--every N]` from a `run` invocation.
fn checkpoint_from_args(args: &[String]) -> Result<Option<(PathBuf, u64)>, String> {
    match flag_value(args, "--checkpoint") {
        Some(path) => Ok(Some((PathBuf::from(path), checkpoint_every(args)?))),
        None => {
            if args.iter().any(|a| a == "--every") {
                return Err("--every needs --checkpoint PATH to write snapshots to".into());
            }
            Ok(None)
        }
    }
}

/// Parses the `--every N` checkpoint cadence (cycles; default 1 000 000).
fn checkpoint_every(args: &[String]) -> Result<u64, String> {
    let every = parse_num(args, "--every", 1_000_000)?;
    if every == 0 {
        return Err("--every must be a positive cycle count".into());
    }
    Ok(every)
}

/// Drives a simulation to completion. Without a checkpoint spec this is
/// a plain run; with one, the run proceeds in `every`-cycle slices,
/// writing a crash-safe snapshot after each slice, and removing the
/// now-stale snapshot once the run finishes. A killed run (Ctrl-C
/// included) continues from its last snapshot with `hbdc-sim resume`.
fn drive(sim: &mut Simulator, checkpoint: Option<&(PathBuf, u64)>) -> Result<SimReport, String> {
    let Some((path, every)) = checkpoint else {
        return sim.run().map_err(|e| e.to_string());
    };
    loop {
        let done = sim.run_for(*every).map_err(|e| e.to_string())?;
        if done {
            let _ = std::fs::remove_file(path);
            return Ok(sim.report());
        }
        sim.save_snapshot()
            .write_to_path(path)
            .map_err(|e| e.to_string())?;
    }
}

/// Prints the end-of-run report block shared by `run` and `resume`.
fn print_report(target: &str, report: &SimReport) {
    println!("program        {target}");
    println!("port model     {}", report.port_label);
    println!("committed      {}", report.committed);
    println!("cycles         {}", report.cycles);
    println!("IPC            {:.3}", report.ipc());
    println!("loads          {}", report.loads);
    println!("stores         {}", report.stores);
    println!("forwards       {}", report.forwards);
    println!(
        "L1             {} accesses, {} misses ({:.2}%), {} writebacks",
        report.l1_accesses,
        report.l1_misses,
        report.l1_miss_rate() * 100.0,
        report.l1_writebacks
    );
    println!(
        "L2             {} accesses, {} misses",
        report.l2_accesses, report.l2_misses
    );
    println!(
        "arbitration    {} offered, {} granted, {} bank conflicts, {} combined",
        report.arb_offered, report.arb_granted, report.bank_conflicts, report.combined
    );
    if report.store_serializations > 0 {
        println!("store bcasts   {}", report.store_serializations);
    }
    if report.branches > 0 {
        println!(
            "branches       {} ({} mispredicted, {:.2}%)",
            report.branches,
            report.mispredicts,
            report.mispredicts as f64 / report.branches as f64 * 100.0
        );
    }
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("missing input file")?;
    reject_unknown_flags(&args[1..], &["-o"], &[]);
    let output = flag_value(args, "-o").ok_or("missing -o <output>")?;
    let src = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let program = assemble(&src).map_err(|e| e.to_string())?;
    let bytes = hbdc::isa::object::to_bytes(&program);
    std::fs::write(&output, &bytes).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{output}: {} instructions, {} data bytes, {} bytes total",
        program.text().len(),
        program.data().len(),
        bytes.len()
    );
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("missing input file")?;
    reject_unknown_flags(&args[1..], &["--scale"], &[]);
    let program = load_program(input, args)?;
    print!("{}", hbdc::isa::disasm::program_to_string(&program));
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let target = args.first().ok_or("missing program argument")?;
    reject_unknown_flags(&args[1..], &["--banks", "--scale"], &[]);
    let program = load_program(target, args)?;
    let banks = parse_num(args, "--banks", 4)? as u32;
    if banks < 2 || !banks.is_power_of_two() {
        return Err("--banks must be a power of two >= 2".into());
    }

    let mut emu = Emulator::new(&program);
    let mut f3 = ConsecutiveMapping::new(banks, 32);
    let mut dl1 = TraceCacheSim::paper_l1();
    let (mut total, mut loads, mut stores) = (0u64, 0u64, 0u64);
    while let Some(di) = emu.step() {
        total += 1;
        if let Some(addr) = di.addr {
            let r = if di.inst.is_store() {
                stores += 1;
                MemRef::store(addr)
            } else {
                loads += 1;
                MemRef::load(addr)
            };
            f3.record(r);
            dl1.access(r);
        }
    }

    println!("program            {target}");
    println!("instructions       {total}");
    println!(
        "memory mix         {:.1}% ({} loads, {} stores, s/l {:.2})",
        (loads + stores) as f64 / total as f64 * 100.0,
        loads,
        stores,
        stores as f64 / loads.max(1) as f64
    );
    println!(
        "32KB DM miss rate  {:.4} ({} misses)",
        dl1.stats().miss_rate(),
        dl1.stats().misses()
    );
    println!("consecutive mapping ({banks} banks):");
    let segs = f3.segments();
    println!("  B-same-line      {:.1}%", segs[0] * 100.0);
    println!("  B-diff-line      {:.1}%", segs[1] * 100.0);
    for (i, s) in segs[2..].iter().enumerate() {
        println!("  (B+{})%{banks}          {:.1}%", i + 1, s * 100.0);
    }
    Ok(())
}

/// Regenerates paper artifacts through the matrix campaign engine: the
/// union of the named artifacts' cells runs once (each cell replays its
/// benchmark's captured trace), then each artifact is rendered — to
/// stdout, or to `DIR/<artifact>.txt` with `--out DIR`. A failing cell is
/// reported and rendered as `--`. With `--journal J` every finished cell
/// is recorded in J, and a rerun on J after a kill (Ctrl-C included)
/// continues it. Any other flag is a usage error. Exit code follows the
/// matrix contract: 0 clean, 3 failed cells.
fn cmd_campaign(args: &[String]) -> Result<ExitCode, String> {
    use hbdc_bench::artifacts::{self, Artifact, ARTIFACTS};
    use hbdc_bench::runner::{benches_from_args, scale_from_args, MATRIX_FLAGS};

    let names: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    reject_unknown_flags(
        &args[names.len()..],
        &[&MATRIX_FLAGS[..], &["--out"]].concat(),
        &[],
    );
    let valid = || {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        names.join(", ")
    };
    if names.is_empty() {
        return Err(format!(
            "campaign expects `all` or artifact names ({})",
            valid()
        ));
    }
    let mut chosen: Vec<&Artifact> = Vec::new();
    for name in names {
        let picked: Vec<&Artifact> = match name.as_str() {
            "all" => ARTIFACTS.iter().collect(),
            other => vec![artifacts::by_name(other).ok_or_else(|| {
                format!("unknown artifact `{other}` (expected all, {})", valid())
            })?],
        };
        for a in picked {
            if !chosen.iter().any(|c| c.name == a.name) {
                chosen.push(a);
            }
        }
    }
    let out = flag_value(args, "--out").map(PathBuf::from);
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).map_err(|e| format!("--out {}: {e}", dir.display()))?;
    }

    let results = artifacts::run(&chosen, benches_from_args(), scale_from_args());
    eprintln!(
        "campaign: {} artifact{}, {} distinct cells",
        chosen.len(),
        if chosen.len() == 1 { "" } else { "s" },
        results.cells()
    );
    // Renderers are independent; the trace-level ones each make a
    // functional pass per benchmark, so they run side by side.
    let texts: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = chosen
            .iter()
            .map(|a| s.spawn(|| results.render(a)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("renderer panicked"))
            .collect()
    });
    for (a, text) in chosen.iter().zip(texts) {
        match &out {
            Some(dir) => {
                let path = dir.join(format!("{}.txt", a.name));
                std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            }
            None => print!("{text}"),
        }
    }
    Ok(results.run.exit_code())
}

/// Runs the differential fuzzer: `--budget` generated programs, each
/// checked against the metamorphic and mode-pair relation catalog, with
/// violations shrunk to minimal repros under `--corpus`. With
/// `--selftest`, instead injects a known port-model fault and requires
/// the detect → shrink → artifact pipeline to catch it. Exit code: 0
/// clean, 1 violations found (or self-test failed), 2 usage error.
fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    reject_unknown_flags(
        args,
        &["--seed", "--budget", "--corpus", "--matrix-every"],
        &["--small", "--keep-going", "--selftest"],
    );
    let seed = parse_num(args, "--seed", 1)?;
    let corpus =
        PathBuf::from(flag_value(args, "--corpus").unwrap_or_else(|| "fuzz-corpus".into()));

    if args.iter().any(|a| a == "--selftest") {
        let report = hbdc::fuzz::selftest::run_selftest(seed, Some(&corpus)).map_err(|e| {
            eprintln!("fuzz self-test FAILED: {e}");
            e
        });
        return match report {
            Ok(r) => {
                println!(
                    "fuzz self-test passed: injected fault detected on seed {}, \
                     shrunk {} -> {} live instructions, artifact at {}",
                    r.seed,
                    r.original_insts,
                    r.shrunk_insts,
                    r.artifact.as_deref().unwrap_or(Path::new("-")).display()
                );
                Ok(ExitCode::SUCCESS)
            }
            Err(_) => Ok(ExitCode::FAILURE),
        };
    }

    let opts = hbdc::fuzz::FuzzOptions {
        seed,
        budget: parse_num(args, "--budget", 500)?,
        corpus,
        matrix_every: parse_num(args, "--matrix-every", 32)?,
        gen: if args.iter().any(|a| a == "--small") {
            hbdc::fuzz::gen::GenConfig::small()
        } else {
            hbdc::fuzz::gen::GenConfig::default()
        },
        keep_going: args.iter().any(|a| a == "--keep-going"),
    };
    let budget = opts.budget;
    let summary = hbdc::fuzz::run_fuzz(&opts, |done, relations| {
        if done % 50 == 0 || done == budget {
            eprintln!("fuzz: {done}/{budget} programs, {relations} relation checks");
        }
    });
    println!(
        "fuzz seed {}: {} programs checked, {} relation evaluations, {} violation{}",
        opts.seed,
        summary.checked_programs,
        summary.relations_checked,
        summary.violations.len(),
        if summary.violations.len() == 1 {
            ""
        } else {
            "s"
        },
    );
    for v in &summary.violations {
        println!(
            "  case {} (program seed {}): {} [shrunk to {} insts] {}",
            v.case,
            v.program_seed,
            v.violation,
            v.shrunk_insts,
            v.artifact
                .as_deref()
                .map(|p| format!("-> {}", p.display()))
                .unwrap_or_default(),
        );
    }
    Ok(if summary.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_bench_list() -> Result<(), String> {
    println!(
        "{:10} {:5} {:>8} {:>10} {:>9}",
        "name", "suite", "mem%", "store/load", "miss"
    );
    for b in all() {
        let p = b.paper();
        println!(
            "{:10} {:5} {:>8.1} {:>10.2} {:>9.4}",
            b.name(),
            match b.suite() {
                Suite::Int => "int",
                Suite::Fp => "fp",
            },
            p.mem_pct,
            p.store_to_load,
            p.miss_rate
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "run" => cmd_run(rest),
        "resume" => cmd_resume(rest),
        "trace" => cmd_trace(rest),
        "asm" => cmd_asm(rest),
        "disasm" => cmd_disasm(rest),
        "analyze" => cmd_analyze(rest),
        "bench-list" => {
            reject_unknown_flags(rest, &[], &[]);
            cmd_bench_list()
        }
        // `campaign` owns its exit code (the matrix contract: 0 clean, 3
        // failed cells).
        "campaign" => {
            return match cmd_campaign(rest) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("hbdc-sim: {e}");
                    ExitCode::from(2)
                }
            }
        }
        // `fuzz` owns its exit code too: 0 clean, 1 violations.
        "fuzz" => {
            return match cmd_fuzz(rest) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("hbdc-sim: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hbdc-sim: {e}");
            ExitCode::FAILURE
        }
    }
}
