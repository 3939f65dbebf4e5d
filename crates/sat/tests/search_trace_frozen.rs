//! Frozen search trace on conflict-heavy random formulas.
//!
//! The paper encoding decodes with few conflicts, so the DSE-level frozen
//! trace (`tests/decode_trace_frozen.rs`) exercises conflict analysis,
//! learned-clause literal order and restarts only lightly. This test pins
//! them directly: random 3-SAT formulas near the satisfiability threshold,
//! with at-most-one groups and zero-priority ties, are solved repeatedly on
//! one solver under changing hints while clauses are added between solves.
//! Every result, every model bit and the final conflict/propagation counts
//! feed one FNV-1a digest, frozen before any change to the solver's layout.
//!
//! Regenerate only when the *search* changes deliberately:
//!
//! ```text
//! EEA_FREEZE_SEARCH_TRACE=1 cargo test -p eea-sat --test search_trace_frozen -- --nocapture
//! ```

use eea_sat::{Lit, SolveResult, Solver, Var};

const FROZEN_SEARCH_TRACE: u64 = 0xDE92_A305_4127_0A78;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn random_clause(rng: &mut Rng, vars: &[Var], len: usize) -> Vec<Lit> {
    (0..len)
        .map(|_| vars[rng.below(vars.len())].lit(rng.next() & 1 == 1))
        .collect()
}

/// Digest of one formula family's trace plus the `(conflicts, propagations)`
/// totals over all formulas.
fn search_trace() -> (u64, u64, u64) {
    let mut rng = Rng(0x005E_A4C4_7ACE_0001);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let (mut conflicts, mut propagations) = (0, 0);
    for _formula in 0..8 {
        let n = 120 + rng.below(40);
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for _ in 0..(n * 34 / 10) {
            let clause = random_clause(&mut rng, &vars, 3);
            s.add_clause(&clause);
        }
        for _ in 0..n / 12 {
            let start = rng.below(n - 3);
            let group: Vec<Lit> = vars[start..start + 3]
                .iter()
                .map(|v| v.positive())
                .collect();
            s.add_at_most_one(&group);
        }
        for round in 0..24 {
            // Half the variables keep priority 0, so ties are frequent.
            for &v in &vars {
                if rng.next() & 1 == 0 {
                    s.set_priority(v, (rng.below(1000) as f64) / 1000.0);
                }
                s.set_polarity(v, rng.next() & 1 == 1);
            }
            if round % 6 == 5 {
                let clause = random_clause(&mut rng, &vars, 3);
                s.add_clause(&clause);
            }
            let result = s.solve();
            fnv(&mut h, u64::from(result == SolveResult::Sat));
            if result == SolveResult::Sat {
                for chunk in vars.chunks(64) {
                    let word = chunk
                        .iter()
                        .enumerate()
                        .fold(0u64, |w, (i, &v)| w | (u64::from(s.value(v)) << i));
                    fnv(&mut h, word);
                }
            }
            fnv(&mut h, s.num_conflicts());
            fnv(&mut h, s.num_propagations());
        }
        conflicts += s.num_conflicts();
        propagations += s.num_propagations();
    }
    (h, conflicts, propagations)
}

#[test]
fn conflict_heavy_search_trace_is_frozen() {
    let (digest, conflicts, propagations) = search_trace();
    if std::env::var("EEA_FREEZE_SEARCH_TRACE").is_ok() {
        println!("conflicts {conflicts}, propagations {propagations}");
        println!("const FROZEN_SEARCH_TRACE: u64 = {digest:#018X};");
        return;
    }
    assert!(conflicts > 1_000, "trace must be conflict-heavy ({conflicts})");
    assert_eq!(
        digest, FROZEN_SEARCH_TRACE,
        "search trace changed: {digest:#018X} vs frozen {FROZEN_SEARCH_TRACE:#018X}"
    );
}
