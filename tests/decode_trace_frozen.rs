//! Frozen decode trace of the SAT-decoding kernel.
//!
//! SAT-decoding is only reproducible if the solver's search is: which
//! variable is branched on next (ties between equal keys are broken by the
//! branching heap's layout), the order literals land on the trail, the
//! literal order of reasons and learned clauses. A change to the solver's
//! memory layout must keep all of that, so this test pins one long decode
//! trace bit for bit:
//!
//! 1. the full paper specification (15 ECUs × 36 Table I profiles = 540
//!    BIST options) is encoded once;
//! 2. [`TRACE_DECODES`] seeded pseudo-random genotypes decode one after
//!    another on that one solver, so learned clauses accumulate; every
//!    model's complete variable assignment and its minimised objective
//!    vector feed the digest;
//! 3. one `DseProblem::evaluate_batch` runs [`BATCH`] genotypes over the
//!    [`EVAL_LANES`] lane solvers;
//! 4. the final `num_conflicts()` / `num_propagations()` of the trace
//!    solver close the digest.
//!
//! The constant was computed before any change to the solver's layout.
//! Regenerate it only when the *search* changes deliberately:
//!
//! ```text
//! EEA_FREEZE_DECODE_TRACE=1 cargo test -p eea-dse --test decode_trace_frozen -- --nocapture
//! ```

use eea_bist::paper_table1;
use eea_dse::explore::{DseProblem, EVAL_LANES};
use eea_dse::{augment, encode, evaluate_with_transport, TransportConfig};
use eea_model::paper_case_study;
use eea_moea::Problem;
use eea_sat::{SolveResult, Var};

/// Genotypes decoded back to back on the single trace solver.
const TRACE_DECODES: usize = 256;

/// Genotypes of the final lane batch (two per lane).
const BATCH: usize = 2 * EVAL_LANES;

/// FNV-1a digest of the whole trace, frozen on the pre-layout-change solver.
const FROZEN_DECODE_TRACE: u64 = 0xEF5A_A12F_91E4_B58F;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn objectives(&mut self, minimized: &[f64]) {
        self.u64(minimized.len() as u64);
        for v in minimized {
            self.u64(v.to_bits());
        }
    }
}

/// SplitMix64 genotype source: priorities and polarity genes in `[0, 1)`.
fn genotypes(seed: u64, count: usize, len: usize) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            (0..len)
                .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64)
                .collect()
        })
        .collect()
}

fn decode_trace_digest() -> u64 {
    let case = paper_case_study();
    let diag = augment(&case, &paper_table1()).expect("gateway present");
    assert_eq!(diag.options.len(), 540, "full Table I specification");
    let mut enc = encode(&diag);
    let mvars = enc.mapping_vars();
    let n = mvars.len();
    let num_vars = enc.solver.num_vars();
    let mut h = Fnv::new();

    for genotype in genotypes(0xDEC0_DE5A_7000_0001, TRACE_DECODES, 2 * n) {
        // The genotype -> hint mapping of `DseProblem`.
        for (i, &(_, _, v)) in mvars.iter().enumerate() {
            enc.solver.set_priority(v, genotype[i].max(1e-9));
            enc.solver.set_polarity(v, genotype[n + i] > 0.5);
        }
        assert_eq!(enc.solver.solve(), SolveResult::Sat);
        let mut bits = vec![0u8; num_vars.div_ceil(8)];
        for v in 0..num_vars {
            if enc.solver.value(Var::from_index(v)) {
                bits[v / 8] |= 1 << (v % 8);
            }
        }
        h.bytes(&bits);
        let x = enc.extract_model(&enc.solver, &diag.spec);
        let (objectives, _) = evaluate_with_transport(&diag, &x, &TransportConfig::MirroredCan);
        h.objectives(&objectives.to_minimized());
    }

    let mut problem = DseProblem::with_threads(&diag, 2);
    let batch = genotypes(0xDEC0_DE5A_7000_0002, BATCH, problem.genotype_len());
    for out in problem.evaluate_batch(&batch) {
        h.objectives(&out.expect("paper encoding decodes feasibly"));
    }

    h.u64(enc.solver.num_conflicts());
    h.u64(enc.solver.num_propagations());
    h.0
}

#[test]
fn paper_decode_trace_is_frozen() {
    let digest = decode_trace_digest();
    if std::env::var("EEA_FREEZE_DECODE_TRACE").is_ok() {
        println!("const FROZEN_DECODE_TRACE: u64 = {digest:#018X};");
        return;
    }
    assert_eq!(
        digest, FROZEN_DECODE_TRACE,
        "decode trace changed: {digest:#018X} vs frozen {FROZEN_DECODE_TRACE:#018X}"
    );
}
