//! Fuzz harness for the Table I generator on *degenerate* configurations:
//! zero, NaN, ±∞, `MAX` and negative values in every numeric field of
//! `ProfileConfig`. `generate_profiles` must return either a well-formed
//! table or the typed `ProfileError` the configuration calls for — never
//! panic, overflow or emit a non-finite runtime (see DESIGN.md, "Error
//! taxonomy").
//!
//! PRP counts are drawn small: a count is work to simulate, not a
//! degenerate value. Thread counts stay at 1 for the same reason.

use eea_atpg::AtpgConfig;
use eea_bist::{generate_profiles, CoverageTarget, ProfileConfig, ProfileError};
use eea_netlist::{bench_format, Circuit, ScanError};
use proptest::prelude::*;

const F64S: [f64; 10] = [
    0.0,
    -0.0,
    0.5,
    1.0,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
    f64::MIN_POSITIVE,
];
const FRACTIONS: [f64; 8] = [
    0.0,
    0.5,
    0.98,
    1.0,
    1.0 + f64::EPSILON,
    -0.5,
    f64::NAN,
    f64::INFINITY,
];
const U64S: [u64; 5] = [0, 1, 8, 40_000_000, u64::MAX];
const PRPS: [u64; 4] = [0, 1, 64, 300];
const CHAINS: [usize; 4] = [0, 1, 3, 64];

/// Indices into the value tables above, grouped to fit the tuple arity of
/// the strategies.
type Draw = (
    Vec<usize>,
    Vec<(usize, usize)>,
    (usize, usize, usize, usize, usize),
    (usize, usize, usize, usize, u64),
    bool,
);

fn draw() -> impl Strategy<Value = Draw> {
    (
        proptest::collection::vec(0..PRPS.len(), 0..4),
        proptest::collection::vec((0usize..2, 0..FRACTIONS.len()), 0..5),
        (
            0..CHAINS.len(),
            0..U64S.len(),
            0..U64S.len(),
            0..U64S.len(),
            0..F64S.len(),
        ),
        (
            0..F64S.len(),
            0..U64S.len(),
            0..U64S.len(),
            0..U64S.len(),
            any::<u64>(),
        ),
        any::<bool>(),
    )
}

fn config(d: &Draw) -> ProfileConfig {
    let (prps, targets, (chains, freq, windows, sig_bytes, restore), atpg, _) = d;
    let (bits, header, limit, lfsr_seed, fill_seed) = *atpg;
    ProfileConfig {
        prp_counts: prps.iter().map(|&i| PRPS[i]).collect(),
        targets: targets
            .iter()
            .map(|&(max, f)| {
                if max == 0 {
                    CoverageTarget::Max
                } else {
                    CoverageTarget::OfMax(FRACTIONS[f])
                }
            })
            .collect(),
        num_chains: CHAINS[*chains],
        shift_frequency_hz: U64S[*freq],
        signature_windows: U64S[*windows],
        signature_bytes: U64S[*sig_bytes],
        restore_ms: F64S[*restore],
        lfsr_seed: U64S[lfsr_seed],
        atpg: AtpgConfig {
            // Both test circuits are tiny, so even an unbounded search ends
            // quickly.
            backtrack_limit: U64S[limit],
            fill_seed,
            ..AtpgConfig::default()
        },
        bits_per_care_bit: F64S[bits],
        pattern_header_bytes: U64S[header],
        threads: 1,
    }
}

/// The error the configuration calls for, in the order the generator
/// checks.
fn expected_error(cfg: &ProfileConfig) -> Option<ProfileError> {
    let non_negative = |x: f64| x.is_finite() && x >= 0.0;
    let bad_fraction = |t: &CoverageTarget| match *t {
        CoverageTarget::Max => false,
        CoverageTarget::OfMax(f) => !(f > 0.0 && f <= 1.0),
    };
    if cfg.prp_counts.is_empty() {
        Some(ProfileError::NoPrpCounts)
    } else if cfg.targets.is_empty() {
        Some(ProfileError::NoTargets)
    } else if cfg.shift_frequency_hz == 0 {
        Some(ProfileError::ZeroShiftFrequency)
    } else if !non_negative(cfg.bits_per_care_bit) {
        Some(ProfileError::InvalidBitsPerCareBit)
    } else if !non_negative(cfg.restore_ms) {
        Some(ProfileError::InvalidRestoreTime)
    } else if cfg.targets.iter().any(bad_fraction) {
        Some(ProfileError::InvalidCoverageFraction)
    } else if cfg.num_chains == 0 {
        Some(ProfileError::Scan(ScanError::ZeroChains))
    } else {
        None
    }
}

fn circuit(sequential: bool) -> Circuit {
    let src = if sequential {
        bench_format::S27
    } else {
        bench_format::C17
    };
    bench_format::parse(src).expect("bundled netlist parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every degenerate configuration yields its typed error; every valid
    /// one yields a full table of finite, in-range rows.
    #[test]
    fn degenerate_configs_never_panic(d in draw()) {
        let cfg = config(&d);
        let c = circuit(d.4);
        match (generate_profiles(&c, &cfg), expected_error(&cfg)) {
            (Err(e), Some(want)) => prop_assert_eq!(e, want),
            (Err(e), None) => prop_assert!(false, "unexpected error: {e}"),
            (Ok(_), Some(want)) => prop_assert!(false, "accepted, expected {want}"),
            (Ok(profiles), None) => {
                let mut groups = cfg.prp_counts.clone();
                groups.sort_unstable();
                groups.dedup();
                prop_assert_eq!(profiles.len(), groups.len() * cfg.targets.len());
                for p in &profiles {
                    prop_assert!((0.0..=1.0).contains(&p.coverage), "coverage {}", p.coverage);
                    prop_assert!(
                        p.runtime_ms.is_finite() && p.runtime_ms >= 0.0,
                        "runtime {}",
                        p.runtime_ms
                    );
                }
            }
        }
    }
}
