//! Frozen Table I profile tables, and an independent replay of the
//! generator.
//!
//! `generate_profiles` runs on the fleet CUT geometry
//! (`eea_fleet::CutConfig::default`: 150 gates, 10 inputs, 12 scan cells,
//! 4 chains, synthesis seed `0xF1EE7`) at PRP counts 256 and 4,096 with the
//! four Table I coverage targets, for two TPG/fill seeds. The whole table
//! (every field, bit for bit, through its `Debug` form) feeds one FNV-1a
//! digest per seed, frozen before any change to the ATPG top-off.
//!
//! Regenerate only when the *profiles* change deliberately:
//!
//! ```text
//! EEA_FREEZE_PROFILE_TABLE=1 cargo test -p eea-bist --test profile_table_frozen -- --nocapture
//! ```

use eea_atpg::{generate_tests_for, AtpgConfig};
use eea_bist::{
    generate_profiles, lfsr_pattern_block, BistProfile, CoverageTarget, Lfsr, ProfileConfig,
};
use eea_faultsim::{FaultSim, FaultUniverse, PatternBlock};
use eea_netlist::{synthesize, Circuit, ScanChains, SynthConfig};

const FROZEN_TABLES: [u64; 2] = [0x07FD_F1A0_7C28_9F13, 0x6607_86CE_1B3A_4052];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn cut() -> Circuit {
    synthesize(&SynthConfig {
        gates: 150,
        inputs: 10,
        dffs: 12,
        seed: 0xF1EE7,
        ..SynthConfig::default()
    })
    .expect("synthesizes")
}

fn config(seed: u64) -> ProfileConfig {
    ProfileConfig {
        prp_counts: vec![256, 4_096],
        targets: vec![
            CoverageTarget::Max,
            CoverageTarget::Max,
            CoverageTarget::OfMax(0.98),
            CoverageTarget::OfMax(0.95),
        ],
        num_chains: 4,
        lfsr_seed: 0xACE1 ^ (seed << 16),
        atpg: AtpgConfig {
            fill_seed: 0xA7F6 ^ (seed << 20),
            ..AtpgConfig::default()
        },
        threads: 1,
        ..ProfileConfig::default()
    }
}

const SEEDS: [u64; 2] = [1, 7];

#[test]
fn profile_tables_are_frozen() {
    let c = cut();
    let digests: Vec<u64> = SEEDS
        .iter()
        .map(|&s| {
            let table = generate_profiles(&c, &config(s)).expect("valid config");
            fnv1a(format!("{table:?}").as_bytes())
        })
        .collect();
    if std::env::var("EEA_FREEZE_PROFILE_TABLE").is_ok() {
        let list: Vec<String> = digests.iter().map(|d| format!("{d:#018X}")).collect();
        println!("const FROZEN_TABLES: [u64; 2] = [{}];", list.join(", "));
        return;
    }
    assert_eq!(digests, FROZEN_TABLES, "profile tables changed");
}

/// The generator's two phases replayed from outside: one LFSR stream
/// fault-simulated with a snapshot per PRP count, then one fresh
/// `generate_tests_for` call per snapshot and coverage target, and the
/// Table I size/runtime model applied to each run.
fn replay(c: &Circuit, cfg: &ProfileConfig) -> Vec<BistProfile> {
    let chains = ScanChains::balanced(c, cfg.num_chains).expect("chains");
    let mut universe = FaultUniverse::collapsed(c);
    let mut sim = FaultSim::new(c);
    let mut lfsr = Lfsr::new32(cfg.lfsr_seed);
    let mut done = 0u64;
    let mut rows = Vec::new();
    for &prps in &cfg.prp_counts {
        while done < prps {
            let count = (prps - done).min(PatternBlock::CAPACITY as u64) as usize;
            let block = lfsr_pattern_block(c, &chains, &mut lfsr, count);
            sim.detect_block(&block, &mut universe);
            done += count as u64;
        }
        let run_to = |fill_seed: u64, stop: Option<f64>| {
            let mut u = universe.clone();
            let atpg = AtpgConfig {
                fill_seed,
                stop_at_coverage: stop,
                ..cfg.atpg.clone()
            };
            let run = generate_tests_for(c, &mut u, &atpg);
            (run, u.coverage())
        };
        let (_, max_coverage) = run_to(cfg.atpg.fill_seed, None);
        for (ti, target) in cfg.targets.iter().enumerate() {
            let (run, coverage) = match *target {
                CoverageTarget::Max if ti == 0 => run_to(cfg.atpg.fill_seed, None),
                CoverageTarget::Max => run_to(cfg.atpg.fill_seed ^ (0x5EED << ti), None),
                CoverageTarget::OfMax(f) => run_to(cfg.atpg.fill_seed, Some(f * max_coverage)),
            };
            let det = run.cubes.len() as u64;
            let total = prps + det;
            let care_bytes =
                (run.specified_care_bits as f64 * cfg.bits_per_care_bit / 8.0).ceil() as u64;
            rows.push(BistProfile {
                id: rows.len() as u32 + 1,
                random_patterns: prps,
                deterministic_patterns: det,
                coverage,
                runtime_ms: chains.test_time_s(total, cfg.shift_frequency_hz) * 1e3
                    + cfg.restore_ms,
                data_bytes: care_bytes
                    + det * cfg.pattern_header_bytes
                    + cfg.signature_windows.min(total) * cfg.signature_bytes,
            });
        }
    }
    rows
}

#[test]
fn profile_rows_equal_a_fresh_top_off_replay() {
    let c = cut();
    for seed in SEEDS {
        let cfg = config(seed);
        let table = generate_profiles(&c, &cfg).expect("valid config");
        assert_eq!(table, replay(&c, &cfg), "seed {seed}");
    }
}
