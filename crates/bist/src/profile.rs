//! Mixed-mode BIST profile generation — the Table I generator.
//!
//! A *profile* fixes the number of pseudo-random patterns (PRPs) and a
//! coverage target; deterministic ATPG top-off patterns close the gap
//! between the random coverage and the target. Each profile is
//! characterised exactly like Table I of the paper:
//!
//! * fault coverage `c(b)`,
//! * session runtime `l(b)` (shift time of all patterns plus the state
//!   restore after test),
//! * encoded data size `s(b)` (compressed deterministic test data plus the
//!   expected intermediate response signatures).
//!
//! The trends of Table I emerge naturally: more PRPs cover more
//! random-testable faults, so fewer deterministic patterns are needed and
//! the stored data shrinks, while the session runtime grows linearly with
//! the pattern count.

use std::error::Error;
use std::fmt;

use eea_atpg::{AtpgConfig, AtpgRun, TopOff};
use eea_faultsim::{resolve_threads, FaultUniverse, ParFaultSim, PatternBlock};
use eea_netlist::{Circuit, ScanChains, ScanError};

use crate::lfsr::Lfsr;
use crate::stumps::lfsr_pattern_block;

/// Error from [`generate_profiles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// `prp_counts` is empty — no profile group to generate.
    NoPrpCounts,
    /// `targets` is empty — no profile per group to generate.
    NoTargets,
    /// Scan-chain insertion failed (e.g. zero chains configured).
    Scan(ScanError),
    /// `shift_frequency_hz` is zero, which would make every runtime
    /// infinite.
    ZeroShiftFrequency,
    /// `bits_per_care_bit` is NaN, infinite or negative.
    InvalidBitsPerCareBit,
    /// `restore_ms` is NaN, infinite or negative.
    InvalidRestoreTime,
    /// A [`CoverageTarget::OfMax`] fraction is NaN or outside `(0, 1]`.
    InvalidCoverageFraction,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::NoPrpCounts => write!(f, "need at least one PRP count"),
            ProfileError::NoTargets => write!(f, "need at least one coverage target"),
            ProfileError::Scan(e) => write!(f, "scan insertion: {e}"),
            ProfileError::ZeroShiftFrequency => write!(f, "shift frequency must be positive"),
            ProfileError::InvalidBitsPerCareBit => {
                write!(f, "bits per care bit must be finite and non-negative")
            }
            ProfileError::InvalidRestoreTime => {
                write!(f, "restore time must be finite and non-negative")
            }
            ProfileError::InvalidCoverageFraction => {
                write!(f, "coverage fraction must lie in (0, 1]")
            }
        }
    }
}

impl Error for ProfileError {}

impl From<ScanError> for ProfileError {
    fn from(e: ScanError) -> Self {
        ProfileError::Scan(e)
    }
}

/// One mixed-mode BIST profile, the unit of selection in the paper's design
/// space exploration (at most one profile per ECU).
#[derive(Debug, Clone, PartialEq)]
pub struct BistProfile {
    /// Profile number (1-based, publication order).
    pub id: u32,
    /// Number of pseudo-random patterns.
    pub random_patterns: u64,
    /// Number of deterministic top-off patterns (0 when unknown, e.g. for
    /// the embedded paper dataset).
    pub deterministic_patterns: u64,
    /// Achieved stuck-at fault coverage `c(b)` in `[0, 1]`.
    pub coverage: f64,
    /// Session runtime `l(b)` in milliseconds.
    pub runtime_ms: f64,
    /// Encoded deterministic test data + response data `s(b)` in bytes.
    pub data_bytes: u64,
}

/// Published characteristics of the paper's CUT (see
/// [`PAPER_CUT`](crate::PAPER_CUT)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperCutSpec {
    /// Collapsed stuck-at faults.
    pub collapsed_faults: u64,
    /// Parallel scan chains.
    pub scan_chains: u32,
    /// Longest chain (shift cycles per pattern minus capture).
    pub max_chain_length: u32,
    /// Scan shift frequency in Hz.
    pub test_frequency_hz: u64,
}

/// Coverage target of one profile row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoverageTarget {
    /// Run ATPG to completion — maximum achievable coverage.
    Max,
    /// Stop at `fraction` of the maximum achievable coverage (the open
    /// analog of the paper's absolute 98 %/95 % targets; relative targets
    /// keep the rows distinct regardless of the substrate circuit's
    /// redundancy level).
    OfMax(f64),
}

/// Configuration for [`generate_profiles`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileConfig {
    /// Pseudo-random pattern counts, one group of profiles per count.
    pub prp_counts: Vec<u64>,
    /// Coverage targets per group; each target yields one profile. Two
    /// `Max` entries (as in the paper's rows 1-2 of each group) are
    /// differentiated by distinct ATPG fill seeds.
    pub targets: Vec<CoverageTarget>,
    /// Number of scan chains.
    pub num_chains: usize,
    /// Scan shift frequency in Hz.
    pub shift_frequency_hz: u64,
    /// Number of intermediate-signature windows per session. Following the
    /// strong-windows diagnosis architecture (\[9\] in the paper), the
    /// *count* of stored signatures is fixed and the window spacing scales
    /// with the session length, so the response data does not grow with
    /// the pattern count.
    pub signature_windows: u64,
    /// Bytes per stored intermediate signature.
    pub signature_bytes: u64,
    /// State-restore time after the session, in milliseconds.
    pub restore_ms: f64,
    /// LFSR seed of the TPG.
    pub lfsr_seed: u64,
    /// ATPG settings for the top-off phase.
    pub atpg: AtpgConfig,
    /// Encoded bits per specified care bit (test-data compression model;
    /// > 1 accounts for control overhead of the on-chip decompressor).
    pub bits_per_care_bit: f64,
    /// Fixed per-pattern header bytes in the encoded stream.
    pub pattern_header_bytes: u64,
    /// Worker threads for the fault-simulation phase. `0` means one per
    /// available CPU; the `EEA_THREADS` environment variable overrides
    /// either setting. Profiles are bit-identical at any thread count.
    pub threads: usize,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            prp_counts: vec![500, 1_000, 5_000, 10_000, 20_000],
            targets: vec![
                CoverageTarget::Max,
                CoverageTarget::Max,
                CoverageTarget::OfMax(0.98),
                CoverageTarget::OfMax(0.95),
            ],
            num_chains: 100,
            shift_frequency_hz: 40_000_000,
            signature_windows: 64,
            signature_bytes: 8,
            restore_ms: 0.5,
            lfsr_seed: 0xACE1,
            atpg: AtpgConfig::default(),
            bits_per_care_bit: 1.25,
            pattern_header_bytes: 4,
            threads: 0,
        }
    }
}

/// Rejects the configurations that would silently corrupt Table I rows.
fn validate(cfg: &ProfileConfig) -> Result<(), ProfileError> {
    let non_negative = |x: f64| x.is_finite() && x >= 0.0;
    if cfg.prp_counts.is_empty() {
        return Err(ProfileError::NoPrpCounts);
    }
    if cfg.targets.is_empty() {
        return Err(ProfileError::NoTargets);
    }
    if cfg.shift_frequency_hz == 0 {
        return Err(ProfileError::ZeroShiftFrequency);
    }
    if !non_negative(cfg.bits_per_care_bit) {
        return Err(ProfileError::InvalidBitsPerCareBit);
    }
    if !non_negative(cfg.restore_ms) {
        return Err(ProfileError::InvalidRestoreTime);
    }
    let fraction_ok = |t: &CoverageTarget| match *t {
        CoverageTarget::Max => true,
        CoverageTarget::OfMax(f) => f > 0.0 && f <= 1.0,
    };
    if !cfg.targets.iter().all(fraction_ok) {
        return Err(ProfileError::InvalidCoverageFraction);
    }
    Ok(())
}

/// Generates mixed-mode BIST profiles for `circuit` per `cfg`, in Table I
/// layout: for each PRP count, one profile per coverage target.
///
/// Deterministic: equal inputs produce identical profiles. Data sizes
/// saturate at `u64::MAX` instead of overflowing.
///
/// # Errors
///
/// Returns [`ProfileError`] if `cfg.prp_counts` or `cfg.targets` is empty,
/// if `cfg.num_chains` or `cfg.shift_frequency_hz` is zero, if
/// `cfg.bits_per_care_bit` or `cfg.restore_ms` is not a finite
/// non-negative number, or if an [`CoverageTarget::OfMax`] fraction lies
/// outside `(0, 1]`.
pub fn generate_profiles(
    circuit: &Circuit,
    cfg: &ProfileConfig,
) -> Result<Vec<BistProfile>, ProfileError> {
    validate(cfg)?;
    let chains = ScanChains::balanced(circuit, cfg.num_chains)?;
    let rows = top_off_rows(circuit, cfg, &prp_snapshots(circuit, cfg, &chains));
    let mut profiles = Vec::with_capacity(rows.len());
    for (id, row) in (1u32..).zip(rows) {
        let det = row.run.cubes.len() as u64;
        let total_patterns = row.prps + det;
        let shift_s = chains.test_time_s(total_patterns, cfg.shift_frequency_hz);
        let runtime_ms = shift_s * 1e3 + cfg.restore_ms;
        let care_bytes =
            (row.run.specified_care_bits as f64 * cfg.bits_per_care_bit / 8.0).ceil() as u64;
        let det_bytes = care_bytes.saturating_add(det.saturating_mul(cfg.pattern_header_bytes));
        let response_bytes = cfg
            .signature_windows
            .min(total_patterns.max(1))
            .saturating_mul(cfg.signature_bytes);
        profiles.push(BistProfile {
            id,
            random_patterns: row.prps,
            deterministic_patterns: det,
            coverage: row.coverage,
            runtime_ms,
            data_bytes: det_bytes.saturating_add(response_bytes),
        });
    }
    Ok(profiles)
}

/// Phase 1: simulates the shared LFSR stream once, snapshotting the
/// detection state at every requested PRP count (sorted, deduplicated).
/// Worklist-parallel, with results bit-identical to serial at any thread
/// count.
fn prp_snapshots(
    circuit: &Circuit,
    cfg: &ProfileConfig,
    chains: &ScanChains,
) -> Vec<(u64, FaultUniverse)> {
    let mut counts = cfg.prp_counts.clone();
    counts.sort_unstable();
    counts.dedup();
    let mut universe = FaultUniverse::collapsed(circuit);
    let mut sim = ParFaultSim::new(circuit, resolve_threads(cfg.threads));
    let mut lfsr = Lfsr::new32(cfg.lfsr_seed);
    let mut snapshots = Vec::with_capacity(counts.len());
    let mut done = 0u64;
    for &target in &counts {
        while done < target {
            let count = ((target - done).min(PatternBlock::CAPACITY as u64)) as usize;
            let block = lfsr_pattern_block(circuit, chains, &mut lfsr, count);
            sim.detect_block(&block, &mut universe);
            done += count as u64;
        }
        snapshots.push((target, universe.clone()));
    }
    snapshots
}

/// One profile row's top-off: its PRP count, the ATPG run and the coverage
/// the run reached.
struct TopOffRow {
    prps: u64,
    run: AtpgRun,
    coverage: f64,
}

/// Phase 2: per snapshot and target, the deterministic top-off. One
/// [`TopOff`] engine serves every run, so a fault targeted again (in a
/// later row or snapshot) gets its memoized PODEM outcome.
fn top_off_rows(
    circuit: &Circuit,
    cfg: &ProfileConfig,
    snapshots: &[(u64, FaultUniverse)],
) -> Vec<TopOffRow> {
    let mut engine = TopOff::new(circuit, cfg.atpg.backtrack_limit);
    let mut top_off = |snapshot: &FaultUniverse, atpg: AtpgConfig| {
        let mut u = snapshot.clone();
        let run = engine.run(&mut u, &atpg);
        (run, u.coverage())
    };
    let mut rows = Vec::with_capacity(snapshots.len() * cfg.targets.len());
    for (prps, snapshot) in snapshots {
        // The maximum achievable coverage for this PRP count (full ATPG).
        let (max_run, max_coverage) = top_off(
            snapshot,
            AtpgConfig {
                stop_at_coverage: None,
                ..cfg.atpg.clone()
            },
        );
        for (ti, target) in cfg.targets.iter().enumerate() {
            let (run, coverage) = match *target {
                CoverageTarget::Max if ti == 0 => (max_run.clone(), max_coverage),
                // A second Max row: same target, different fill seed
                // (mirrors the paper's two max-coverage variants per group,
                // which differ slightly in data volume).
                CoverageTarget::Max => top_off(
                    snapshot,
                    AtpgConfig {
                        fill_seed: cfg.atpg.fill_seed ^ (0x5EED << ti),
                        stop_at_coverage: None,
                        ..cfg.atpg.clone()
                    },
                ),
                CoverageTarget::OfMax(f) => top_off(
                    snapshot,
                    AtpgConfig {
                        stop_at_coverage: Some(f * max_coverage),
                        ..cfg.atpg.clone()
                    },
                ),
            };
            rows.push(TopOffRow {
                prps: *prps,
                run,
                coverage,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_netlist::{synthesize, SynthConfig};

    fn small_cut() -> Circuit {
        synthesize(&SynthConfig {
            gates: 300,
            inputs: 16,
            dffs: 32,
            seed: 0xC07,
            ..SynthConfig::default()
        }).expect("synthesizes")
    }

    fn quick_cfg() -> ProfileConfig {
        ProfileConfig {
            prp_counts: vec![64, 256, 1024],
            targets: vec![
                CoverageTarget::Max,
                CoverageTarget::OfMax(0.98),
                CoverageTarget::OfMax(0.95),
            ],
            num_chains: 8,
            ..ProfileConfig::default()
        }
    }

    #[test]
    fn generates_expected_grid() {
        let c = small_cut();
        let profiles = generate_profiles(&c, &quick_cfg()).expect("valid config");
        assert_eq!(profiles.len(), 9);
        assert_eq!(profiles[0].id, 1);
        assert_eq!(profiles[8].id, 9);
        assert_eq!(profiles[0].random_patterns, 64);
        assert_eq!(profiles[8].random_patterns, 1024);
    }

    #[test]
    fn table1_trends_hold() {
        let c = small_cut();
        let profiles = generate_profiles(&c, &quick_cfg()).expect("valid config");
        // Within a group: Max coverage >= 98 % target >= 95 % target.
        for g in profiles.chunks(3) {
            assert!(g[0].coverage >= g[1].coverage - 1e-9);
            assert!(g[1].coverage >= g[2].coverage - 1e-9);
            // Lower targets need less data.
            assert!(g[0].data_bytes >= g[2].data_bytes);
            // Runtime dominated by PRPs, but Max has most top-off patterns.
            assert!(g[0].runtime_ms >= g[2].runtime_ms - 1e-9);
        }
        // Across groups at Max: more PRPs -> more runtime.
        assert!(profiles[3].runtime_ms > profiles[0].runtime_ms);
        assert!(profiles[6].runtime_ms > profiles[3].runtime_ms);
        // Across groups: deterministic data shrinks with more PRPs (more
        // faults covered randomly). Compare the 95 % rows.
        assert!(profiles[8].deterministic_patterns <= profiles[2].deterministic_patterns);
    }

    #[test]
    fn deterministic_generation() {
        let c = small_cut();
        let a = generate_profiles(&c, &quick_cfg()).expect("valid config");
        let b = generate_profiles(&c, &quick_cfg()).expect("valid config");
        assert_eq!(a, b);
    }

    #[test]
    fn top_off_rows_reuse_memoized_outcomes() {
        let c = small_cut();
        // Without compaction every Test outcome leaves one cube, so a run's
        // targets are cubes + untestable + aborted.
        let cfg = ProfileConfig {
            atpg: AtpgConfig {
                compact: false,
                ..AtpgConfig::default()
            },
            ..quick_cfg()
        };
        let chains = ScanChains::balanced(&c, cfg.num_chains).expect("at least one chain");
        let rows = top_off_rows(&c, &cfg, &prp_snapshots(&c, &cfg, &chains));
        assert_eq!(rows.len(), 9);
        for (k, row) in rows.iter().enumerate() {
            let run = &row.run;
            assert_eq!(
                run.searches + run.reused,
                run.cubes.len() + run.untestable + run.aborted,
                "row {k}"
            );
            if k == 0 {
                assert_eq!(run.reused, 0);
            } else {
                assert!(run.reused > 0, "row {k} served nothing from the memo");
            }
        }
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let c = small_cut();
        let bad = |f: &dyn Fn(&mut ProfileConfig)| {
            let mut cfg = quick_cfg();
            f(&mut cfg);
            generate_profiles(&c, &cfg).expect_err("invalid config")
        };
        assert_eq!(bad(&|c| c.prp_counts.clear()), ProfileError::NoPrpCounts);
        assert_eq!(bad(&|c| c.targets.clear()), ProfileError::NoTargets);
        assert_eq!(
            bad(&|c| c.shift_frequency_hz = 0),
            ProfileError::ZeroShiftFrequency
        );
        for x in [f64::NAN, -1.0, f64::INFINITY] {
            assert_eq!(
                bad(&|c| c.bits_per_care_bit = x),
                ProfileError::InvalidBitsPerCareBit
            );
            assert_eq!(bad(&|c| c.restore_ms = x), ProfileError::InvalidRestoreTime);
        }
        for f in [f64::NAN, 0.0, -0.5, 1.5, f64::INFINITY] {
            assert_eq!(
                bad(&|c| c.targets.push(CoverageTarget::OfMax(f))),
                ProfileError::InvalidCoverageFraction
            );
        }
        assert!(matches!(bad(&|c| c.num_chains = 0), ProfileError::Scan(_)));
    }

    #[test]
    fn data_sizes_saturate() {
        let c = small_cut();
        let cfg = ProfileConfig {
            signature_bytes: u64::MAX,
            pattern_header_bytes: u64::MAX,
            ..quick_cfg()
        };
        let profiles = generate_profiles(&c, &cfg).expect("valid config");
        assert!(profiles.iter().all(|p| p.data_bytes == u64::MAX));
    }

    #[test]
    fn runtime_model_matches_scan_math() {
        let c = small_cut();
        let cfg = quick_cfg();
        let profiles = generate_profiles(&c, &cfg).expect("valid config");
        let chains = ScanChains::balanced(&c, cfg.num_chains).expect("at least one chain");
        for p in &profiles {
            let expected = chains
                .test_time_s(p.random_patterns + p.deterministic_patterns, cfg.shift_frequency_hz)
                * 1e3
                + cfg.restore_ms;
            assert!((p.runtime_ms - expected).abs() < 1e-9);
        }
    }
}
