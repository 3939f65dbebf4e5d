//! Frozen PODEM outcome trace.
//!
//! Every collapsed fault of c17, s27 and two synthesized circuits is run
//! through `Podem::run` at backtrack limits 0, 10 and 100, on one `Podem`
//! per (circuit, limit) reused across all of its faults, so state carried
//! between runs (buffers, the X-path epoch) is exercised too. Every outcome
//! — the verdict, and for a test every cube bit — feeds one FNV-1a digest,
//! frozen before any change to the implication, D-frontier or X-path code.
//!
//! Regenerate only when the *search* changes deliberately:
//!
//! ```text
//! EEA_FREEZE_PODEM_TRACE=1 cargo test -p eea-atpg --test podem_trace_frozen -- --nocapture
//! ```

use eea_atpg::{AtpgOutcome, Podem};
use eea_faultsim::FaultUniverse;
use eea_netlist::{bench_format, synthesize, Circuit, SynthConfig};

const FROZEN_PODEM_TRACE: u64 = 0xA9C5_8A08_C6C3_6E1D;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn circuits() -> Vec<Circuit> {
    let synth = |gates, inputs, dffs, seed| {
        synthesize(&SynthConfig {
            gates,
            inputs,
            dffs,
            seed,
            ..SynthConfig::default()
        })
        .expect("synthesizes")
    };
    vec![
        bench_format::parse(bench_format::C17).expect("c17 parses"),
        bench_format::parse(bench_format::S27).expect("s27 parses"),
        // The fleet CUT geometry (`CutConfig::default`) and a larger one.
        synth(150, 10, 12, 0xF1EE7),
        synth(300, 16, 32, 0xC07),
    ]
}

/// Digest of every outcome plus `(tests, untestable, aborted)` totals.
fn podem_trace() -> (u64, [u64; 3]) {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut totals = [0u64; 3];
    for c in circuits() {
        let universe = FaultUniverse::collapsed(&c);
        for limit in [0, 10, 100] {
            let mut podem = Podem::new(&c, limit);
            for fi in 0..universe.num_faults() {
                match podem.run(universe.fault(fi)) {
                    AtpgOutcome::Test(cube) => {
                        totals[0] += 1;
                        fnv(&mut h, 1);
                        for chunk in (0..cube.len()).collect::<Vec<_>>().chunks(32) {
                            let word = chunk.iter().enumerate().fold(0u64, |w, (k, &i)| {
                                let bits = match cube.get(i) {
                                    None => 0,
                                    Some(false) => 1,
                                    Some(true) => 2,
                                };
                                w | (bits << (2 * k))
                            });
                            fnv(&mut h, word);
                        }
                    }
                    AtpgOutcome::Untestable => {
                        totals[1] += 1;
                        fnv(&mut h, 2);
                    }
                    AtpgOutcome::Aborted => {
                        totals[2] += 1;
                        fnv(&mut h, 3);
                    }
                }
            }
        }
    }
    (h, totals)
}

#[test]
fn podem_outcome_trace_is_frozen() {
    let (digest, [tests, untestable, aborted]) = podem_trace();
    if std::env::var("EEA_FREEZE_PODEM_TRACE").is_ok() {
        println!("tests {tests}, untestable {untestable}, aborted {aborted}");
        println!("const FROZEN_PODEM_TRACE: u64 = {digest:#018X};");
        return;
    }
    // The trace must exercise all three verdicts.
    assert!(
        tests > 0 && untestable > 0 && aborted > 0,
        "{tests}/{untestable}/{aborted}"
    );
    assert_eq!(
        digest, FROZEN_PODEM_TRACE,
        "PODEM trace changed: {digest:#018X} vs frozen {FROZEN_PODEM_TRACE:#018X}"
    );
}
