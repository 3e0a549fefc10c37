//! Locality-shape tests: each analog's reference stream must reproduce
//! the qualitative Figure 3 signature the paper's argument rests on.

use hbdc_cpu::Emulator;
use hbdc_trace::{ConsecutiveMapping, MemRef};
use hbdc_workloads::{all, by_name, Scale, Suite};

fn figure3_of(name: &str) -> ConsecutiveMapping {
    let bench = by_name(name).expect("registered benchmark");
    let program = bench.build(Scale::Small);
    let mut emu = Emulator::new(&program);
    let mut f3 = ConsecutiveMapping::new(4, 32);
    while let Some(di) = emu.step() {
        if let Some(addr) = di.addr {
            f3.record(if di.inst.is_store() {
                MemRef::store(addr)
            } else {
                MemRef::load(addr)
            });
        }
    }
    f3
}

#[test]
fn swim_is_dominated_by_same_bank_different_line() {
    // Paper: swim's B-diff-line is the worst in the study (33.8%); its
    // aliasing arrays are the LBIC's hardest case.
    let f3 = figure3_of("swim");
    assert!(
        f3.diff_line_fraction() > 0.5,
        "swim B-diff = {}",
        f3.diff_line_fraction()
    );
    assert!(
        f3.diff_line_fraction() > f3.same_line_fraction(),
        "swim must be conflict-dominated"
    );
}

#[test]
fn string_codes_are_same_line_rich() {
    // Paper: "for programs like gcc, li and perl, more than 40% of all
    // consecutive references access the same line in the same bank."
    for name in ["gcc", "perl", "li"] {
        let f3 = figure3_of(name);
        assert!(
            f3.same_line_fraction() > 0.40,
            "{name} same-line = {}",
            f3.same_line_fraction()
        );
    }
}

#[test]
fn int_suite_has_more_same_line_than_fp_suite() {
    // Paper: SPECint same-line averages 35.4% vs SPECfp 21.8%.
    let mut int = Vec::new();
    let mut fp = Vec::new();
    for bench in all() {
        let f3 = figure3_of(bench.name());
        match bench.suite() {
            Suite::Int => int.push(f3.same_line_fraction()),
            Suite::Fp => fp.push(f3.same_line_fraction()),
        }
    }
    let int_avg = int.iter().sum::<f64>() / int.len() as f64;
    let fp_avg = fp.iter().sum::<f64>() / fp.len() as f64;
    assert!(
        int_avg > fp_avg,
        "same-line: int {int_avg} must exceed fp {fp_avg}"
    );
}

#[test]
fn fp_suite_has_more_diff_line_conflicts_than_int_suite() {
    // Paper: SPECfp B-diff-line averages 21.4% vs SPECint 12.9% — the
    // non-unit strides of FP codes cross lines within a bank.
    let mut int = Vec::new();
    let mut fp = Vec::new();
    for bench in all() {
        let f3 = figure3_of(bench.name());
        match bench.suite() {
            Suite::Int => int.push(f3.diff_line_fraction()),
            Suite::Fp => fp.push(f3.diff_line_fraction()),
        }
    }
    let int_avg = int.iter().sum::<f64>() / int.len() as f64;
    let fp_avg = fp.iter().sum::<f64>() / fp.len() as f64;
    assert!(
        fp_avg > int_avg,
        "B-diff: fp {fp_avg} must exceed int {int_avg}"
    );
}

#[test]
fn every_stream_is_skewed_toward_same_bank() {
    // Paper: "most applications show a skewed probability toward same
    // bank" — above the uniform 25%.
    for bench in all() {
        let f3 = figure3_of(bench.name());
        let same_bank = f3.same_line_fraction() + f3.diff_line_fraction();
        assert!(
            same_bank > 0.25,
            "{}: same-bank {same_bank} not skewed",
            bench.name()
        );
    }
}

#[test]
fn miss_rate_ordering_matches_the_paper() {
    // Paper Table 2 orderings that drive the results: li has by far the
    // lowest miss rate; the FP codes su2cor/wave5/hydro2d the highest.
    use hbdc_trace::TraceCacheSim;
    let miss = |name: &str| {
        let bench = by_name(name).expect("registered");
        let mut emu = Emulator::new(&bench.build(Scale::Small));
        let mut sim = TraceCacheSim::paper_l1();
        while let Some(di) = emu.step() {
            if let Some(addr) = di.addr {
                sim.access(if di.inst.is_store() {
                    MemRef::store(addr)
                } else {
                    MemRef::load(addr)
                });
            }
        }
        sim.stats().miss_rate()
    };
    let li = miss("li");
    for name in ["compress", "gcc", "go", "perl"] {
        assert!(li < miss(name), "li must have the lowest INT miss rate");
    }
    for name in ["su2cor", "wave5", "hydro2d"] {
        assert!(
            miss(name) > 0.08,
            "{name} must be strongly miss-bound like the paper's FP codes"
        );
    }
}
