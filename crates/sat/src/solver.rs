//! A CDCL SAT solver with native at-most-one constraints and
//! priority-directed branching for SAT-decoding.
//!
//! The feasibility engine behind the paper's design space exploration: the
//! MOEA's genotype supplies per-variable branching priorities and preferred
//! polarities; the solver decodes them into a *feasible* implementation by
//! branching in priority order and repairing conflicts with clause
//! learning. The same solver instance is reused across decodes, so learned
//! clauses accumulate and decoding gets faster over the exploration run.
//!
//! # Memory layout
//!
//! A decode touches every variable, so the hot data is kept flat:
//!
//! * truth values live per *literal* (`vals[l.code()]`, one byte), so a
//!   literal's value is one load without a sign branch;
//! * clauses of three or more literals live in one arena of `u32` words,
//!   a length header followed by the literal codes;
//! * a binary clause exists only as its two watch entries, each carrying
//!   the other literal inline, so propagating one never leaves the watch
//!   list;
//! * at-most-one groups are spans of one flat literal array.
//!
//! Binary clauses and at-most-one pairs both explain an implied literal by
//! one false literal (`Reason::Pair`), read as `[implied, false_lit]`.
//! A decode's result depends on more than the formula: on the order of the
//! watch lists and the trail, on the literal order of reasons and learned
//! clauses, and on the branching heap's layout, which breaks ties between
//! equal keys. The layout keeps all of them (DESIGN.md §2), and
//! `tests/decode_trace_frozen.rs` pins the result.

use crate::heap::VarHeap;
use crate::lit::{Lit, Var};

/// Per-literal truth values.
const FALSE: u8 = 0;
const TRUE: u8 = 1;
const UNDEF: u8 = 2;

/// Why a variable got its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// Branching decision, unit clause, or not assigned.
    Decision,
    /// Propagated by the long clause at this arena offset.
    Clause(u32),
    /// Propagated by a binary clause or an at-most-one group; the payload
    /// is the constraint's false literal, so the reason reads
    /// `[implied, false_lit]`.
    Pair(Lit),
}

/// A constraint falsified by propagation.
#[derive(Debug, Clone, Copy)]
enum Conflict {
    /// The long clause at this arena offset.
    Clause(u32),
    /// A two-literal clause: a binary clause or an at-most-one pair.
    Pair(Lit, Lit),
}

/// An entry of a literal's watch list.
#[derive(Debug, Clone, Copy)]
enum Watch {
    /// Binary clause; the payload is its other literal.
    Binary(Lit),
    /// Long clause at this arena offset.
    Long(u32),
}

/// The partial assignment and its trail.
#[derive(Debug, Clone, Default)]
struct Assignment {
    /// Truth value per literal code.
    vals: Vec<u8>,
    reason: Vec<Reason>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
}

impl Assignment {
    #[inline]
    fn value(&self, l: Lit) -> u8 {
        self.vals[l.code()]
    }

    #[inline]
    fn enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.value(l), UNDEF);
        self.vals[l.code()] = TRUE;
        self.vals[(!l).code()] = FALSE;
        let v = l.var().index();
        self.reason[v] = reason;
        self.level[v] = self.trail_lim.len() as u32;
        self.trail.push(l);
    }
}

/// At-most-one groups, stored flat.
#[derive(Debug, Clone, Default)]
struct AmoGroups {
    lits: Vec<Lit>,
    /// `(start, end)` of each group in `lits`.
    spans: Vec<(u32, u32)>,
    /// For each literal code, the groups in which it occurs.
    occurs: Vec<Vec<u32>>,
}

/// Result of [`Solver::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; read the model with [`Solver::value`].
    Sat,
    /// Unsatisfiable.
    Unsat,
}

/// CDCL solver with priority-directed branching (see the crate docs for
/// the SAT-decoding workflow).
///
/// # Example
///
/// ```
/// use eea_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative(), b.negative()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_ne!(s.value(a), s.value(b));
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    num_vars: usize,
    /// Long clauses: a length word, then the literal codes.
    arena: Vec<u32>,
    num_learned: usize,
    /// Watch lists indexed by literal code.
    watches: Vec<Vec<Watch>>,
    amos: AmoGroups,
    assign: Assignment,
    head: usize,
    /// Branching order (max priority first).
    heap: VarHeap,
    /// Saved phase per variable (last assigned value).
    phase: Vec<bool>,
    /// User-preferred polarity (decode mode); overrides phase saving.
    user_polarity: Vec<Option<bool>>,
    activity: Vec<f64>,
    var_inc: f64,
    ok: bool,
    conflicts: u64,
    /// Analysis scratch.
    seen: Vec<bool>,
    reason_buf: Vec<Lit>,
    /// Statistics: total propagations.
    propagations: u64,
    /// Statistics: total branching decisions.
    decisions: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            num_vars: 0,
            arena: Vec::new(),
            num_learned: 0,
            watches: Vec::new(),
            amos: AmoGroups::default(),
            assign: Assignment::default(),
            head: 0,
            heap: VarHeap::new(),
            phase: Vec::new(),
            user_polarity: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            ok: true,
            conflicts: 0,
            seen: Vec::new(),
            reason_buf: Vec::new(),
            propagations: 0,
            decisions: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars as u32);
        self.num_vars += 1;
        self.assign.vals.extend([UNDEF, UNDEF]);
        self.assign.reason.push(Reason::Decision);
        self.assign.level.push(0);
        self.watches.extend([Vec::new(), Vec::new()]);
        self.amos.occurs.extend([Vec::new(), Vec::new()]);
        self.phase.push(false);
        self.user_polarity.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.heap.grow(self.num_vars);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of conflicts encountered so far (across all solves).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of unit propagations performed so far.
    pub fn num_propagations(&self) -> u64 {
        self.propagations
    }

    /// Number of branching decisions made so far (across all solves).
    /// A statistic only: it never influences the search.
    pub fn num_decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of learned clauses currently in the database.
    pub fn num_learned(&self) -> usize {
        self.num_learned
    }

    /// Model value of a variable (valid after a `Sat` result; unassigned
    /// variables read as `false`).
    pub fn value(&self, v: Var) -> bool {
        self.assign.value(v.positive()) == TRUE
    }

    /// Adds a clause (disjunction of literals).
    ///
    /// Returns `false` if the formula became trivially unsatisfiable.
    /// May be called between solves; the solver backtracks to level 0.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack_to(0);
        if !self.ok {
            return false;
        }
        // Normalise: drop duplicate and false literals, detect tautology.
        let mut ls: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.assign.value(l) {
                TRUE => return true, // satisfied at level 0
                FALSE => continue,
                _ => {}
            }
            if ls.contains(&!l) {
                return true; // tautology
            }
            if !ls.contains(&l) {
                ls.push(l);
            }
        }
        match ls.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.assign.enqueue(ls[0], Reason::Decision);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&ls, false);
                true
            }
        }
    }

    /// Stores a clause of two or more literals, watching its first two,
    /// and returns the reason that implies `lits[0]` through it.
    fn attach_clause(&mut self, lits: &[Lit], learned: bool) -> Reason {
        self.num_learned += usize::from(learned);
        let (a, b) = (lits[0], lits[1]);
        if lits.len() == 2 {
            self.watches[a.code()].push(Watch::Binary(b));
            self.watches[b.code()].push(Watch::Binary(a));
            return Reason::Pair(b);
        }
        let cref = self.arena.len() as u32;
        self.arena.push(lits.len() as u32);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.watches[a.code()].push(Watch::Long(cref));
        self.watches[b.code()].push(Watch::Long(cref));
        Reason::Clause(cref)
    }

    /// Literal codes of the long clause at `cref`.
    #[inline]
    fn clause(&self, cref: u32) -> &[u32] {
        let c = cref as usize;
        &self.arena[c + 1..c + 1 + self.arena[c] as usize]
    }

    /// Adds an at-most-one constraint over `lits`. May be called between
    /// solves; the solver backtracks to level 0.
    ///
    /// # Panics
    ///
    /// Panics if `lits` repeats a variable.
    pub fn add_at_most_one(&mut self, lits: &[Lit]) {
        self.backtrack_to(0);
        if lits.len() < 2 || !self.ok {
            return;
        }
        for (i, &a) in lits.iter().enumerate() {
            for &b in &lits[i + 1..] {
                assert_ne!(a.var(), b.var(), "AMO over a repeated variable");
            }
        }
        let g = self.amos.spans.len() as u32;
        for &l in lits {
            self.amos.occurs[l.code()].push(g);
        }
        let start = self.amos.lits.len() as u32;
        self.amos.lits.extend_from_slice(lits);
        self.amos.spans.push((start, self.amos.lits.len() as u32));
        // Handle literals already true at level 0.
        if let Some(&t) = lits.iter().find(|&&l| self.assign.value(l) == TRUE) {
            for &l in lits {
                if l == t {
                    continue;
                }
                match self.assign.value(l) {
                    TRUE => {
                        // Two literals already true at level 0.
                        self.ok = false;
                        return;
                    }
                    FALSE => {}
                    _ => self.assign.enqueue(!l, Reason::Pair(!t)),
                }
            }
            if self.propagate().is_some() {
                self.ok = false;
            }
        }
    }

    /// Adds an exactly-one constraint (at-least-one clause + at-most-one).
    pub fn add_exactly_one(&mut self, lits: &[Lit]) {
        self.add_clause(lits);
        self.add_at_most_one(lits);
    }

    /// Adds the implication `a -> b`.
    pub fn add_implies(&mut self, a: Lit, b: Lit) {
        self.add_clause(&[!a, b]);
    }

    /// Adds the equivalence `a <-> b`.
    pub fn add_equal(&mut self, a: Lit, b: Lit) {
        self.add_clause(&[!a, b]);
        self.add_clause(&[a, !b]);
    }

    /// Sets the preferred polarity of a variable (the value it is assigned
    /// first when branched on).
    pub fn set_polarity(&mut self, v: Var, polarity: bool) {
        self.user_polarity[v.index()] = Some(polarity);
    }

    /// Sets the branching priority of a variable. Higher priorities are
    /// decided first. Used by SAT-decoding: the genotype supplies one
    /// priority per decision variable.
    pub fn set_priority(&mut self, v: Var, priority: f64) {
        self.heap.set_static_priority(v.index(), priority);
    }

    /// Propagates until fixpoint; returns the falsified constraint on
    /// conflict.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.head < self.assign.trail.len() {
            let p = self.assign.trail[self.head];
            self.head += 1;
            self.propagations += 1;

            // AMO constraints containing p: all other literals become false.
            for &g in &self.amos.occurs[p.code()] {
                let (start, end) = self.amos.spans[g as usize];
                for &l in &self.amos.lits[start as usize..end as usize] {
                    if l == p {
                        continue;
                    }
                    match self.assign.value(l) {
                        // Two true literals in one AMO: conflict (!p \/ !l).
                        TRUE => return Some(Conflict::Pair(!p, !l)),
                        FALSE => {}
                        _ => self.assign.enqueue(!l, Reason::Pair(!p)),
                    }
                }
            }

            // Clauses watching !p must find a new watch or propagate.
            let false_lit = !p;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < watch_list.len() {
                let cref = match watch_list[i] {
                    Watch::Binary(other) => {
                        match self.assign.value(other) {
                            TRUE => {}
                            FALSE => {
                                self.watches[false_lit.code()] = watch_list;
                                return Some(Conflict::Pair(other, false_lit));
                            }
                            _ => self.assign.enqueue(other, Reason::Pair(false_lit)),
                        }
                        i += 1;
                        continue;
                    }
                    Watch::Long(cref) => cref,
                };
                let c = cref as usize;
                let len = self.arena[c] as usize;
                let lits = &mut self.arena[c + 1..c + 1 + len];
                let vals = &self.assign.vals;
                // Ensure lits[0] is the other watch.
                if lits[0] == false_lit.0 {
                    lits.swap(0, 1);
                }
                let first = Lit(lits[0]);
                if vals[first.code()] == TRUE {
                    i += 1;
                    continue;
                }
                // Find a replacement watch.
                if let Some(k) = (2..len).find(|&k| vals[lits[k] as usize] != FALSE) {
                    lits.swap(1, k);
                    self.watches[lits[1] as usize].push(Watch::Long(cref));
                    watch_list.swap_remove(i);
                    continue;
                }
                // Unit or conflict.
                if vals[first.code()] == FALSE {
                    self.watches[false_lit.code()] = watch_list;
                    return Some(Conflict::Clause(cref));
                }
                self.assign.enqueue(first, Reason::Clause(cref));
                i += 1;
            }
            self.watches[false_lit.code()] = watch_list;
        }
        None
    }

    /// Appends the literals of `v`'s reason (implied literal first).
    fn reason_lits(&self, v: Var, out: &mut Vec<Lit>) {
        match self.assign.reason[v.index()] {
            Reason::Clause(cref) => out.extend(self.clause(cref).iter().map(|&l| Lit(l))),
            Reason::Pair(false_lit) => {
                let this = v.lit(self.value(v));
                out.extend([this, false_lit]);
            }
            Reason::Decision => {}
        }
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.set_dynamic_activity(v.index(), self.activity[v.index()]);
    }

    /// First-UIP conflict analysis; returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: Conflict) -> (Vec<Lit>, u32) {
        let cur_level = self.assign.trail_lim.len() as u32;
        let mut learned: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut reason = std::mem::take(&mut self.reason_buf);
        reason.clear();
        match conflict {
            Conflict::Clause(cref) => reason.extend(self.clause(cref).iter().map(|&l| Lit(l))),
            Conflict::Pair(a, b) => reason.extend([a, b]),
        }
        let mut trail_idx = self.assign.trail.len();
        let mut asserting: Option<Lit> = None;

        // The loop always visits at least one current-level literal before
        // `counter` reaches zero (the caller guarantees the conflict happened
        // at a positive decision level), so it breaks with the 1-UIP literal.
        let uip = loop {
            for &l in &reason {
                let v = l.var();
                if self.seen[v.index()] || self.assign.level[v.index()] == 0 {
                    continue;
                }
                // Skip the asserting literal itself when expanding its reason.
                if let Some(a) = asserting {
                    if l == a || l == !a {
                        continue;
                    }
                }
                self.seen[v.index()] = true;
                self.bump_var(v);
                if self.assign.level[v.index()] == cur_level {
                    counter += 1;
                } else {
                    learned.push(l);
                }
            }
            // Find the next seen literal on the trail at the current level.
            loop {
                trail_idx -= 1;
                let l = self.assign.trail[trail_idx];
                if self.seen[l.var().index()] {
                    break;
                }
            }
            let p = self.assign.trail[trail_idx];
            self.seen[p.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break !p;
            }
            reason.clear();
            self.reason_lits(p.var(), &mut reason);
            asserting = Some(!p);
        };
        self.reason_buf = reason;
        for &l in &learned {
            self.seen[l.var().index()] = false;
        }
        // Backtrack level: highest level among the non-asserting literals.
        let bt = learned
            .iter()
            .map(|l| self.assign.level[l.var().index()])
            .max()
            .unwrap_or(0);
        let mut clause = vec![uip];
        clause.extend(learned);
        (clause, bt)
    }

    /// Unassigns every level above `level`, newest literal first.
    fn backtrack_to(&mut self, level: u32) {
        if let Some(&lim) = self.assign.trail_lim.get(level as usize) {
            self.assign.trail_lim.truncate(level as usize);
            for l in self.assign.trail.drain(lim..).rev() {
                let v = l.var().index();
                self.phase[v] = l.is_positive();
                self.assign.vals[l.code()] = UNDEF;
                self.assign.vals[(!l).code()] = UNDEF;
                self.heap.reinsert(v);
            }
        }
        self.head = self.assign.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(vi) = self.heap.pop_max() {
            let v = Var::from_index(vi);
            if self.assign.value(v.positive()) == UNDEF {
                return Some(v);
            }
        }
        None
    }

    /// Solves the current formula.
    ///
    /// Branching honours the priorities set via
    /// [`set_priority`](Self::set_priority) (static, decode mode) combined
    /// with VSIDS activity, and polarity hints set via
    /// [`set_polarity`](Self::set_polarity). The solver state is reset to
    /// decision level 0 first, so `solve` can be called repeatedly with
    /// different hints while keeping learned clauses.
    pub fn solve(&mut self) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        self.heap.rebuild();
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }

        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = 256u64;
        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.assign.trail_lim.is_empty() {
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    let (learned, bt) = self.analyze(conflict);
                    self.backtrack_to(bt);
                    let reason = match learned.len() {
                        1 => Reason::Decision,
                        _ => self.attach_clause(&learned, true),
                    };
                    self.assign.enqueue(learned[0], reason);
                    self.var_inc /= 0.95;
                    if conflicts_since_restart >= restart_limit {
                        conflicts_since_restart = 0;
                        restart_limit = (restart_limit * 3) / 2;
                        self.backtrack_to(0);
                    }
                }
                None => match self.pick_branch() {
                    None => return SolveResult::Sat,
                    Some(v) => {
                        self.decisions += 1;
                        self.assign.trail_lim.push(self.assign.trail.len());
                        let pol = self.user_polarity[v.index()]
                            .unwrap_or(self.phase[v.index()]);
                        self.assign.enqueue(v.lit(pol), Reason::Decision);
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[0]));

        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[0].negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_sat() {
        // (a xor b), (b xor c), (a xor c) is unsat; drop one -> sat.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let xor = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause(&[a.positive(), b.positive()]);
            s.add_clause(&[a.negative(), b.negative()]);
        };
        xor(&mut s, v[0], v[1]);
        xor(&mut s, v[1], v[2]);
        assert_eq!(s.solve(), SolveResult::Sat);
        xor(&mut s, v[0], v[2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn amo_propagates() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let lits: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        s.add_at_most_one(&lits);
        s.add_clause(&[v[1].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[1]));
        assert!(!s.value(v[0]) && !s.value(v[2]) && !s.value(v[3]));
    }

    #[test]
    fn amo_conflict_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_at_most_one(&[v[0].positive(), v[1].positive()]);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[1].positive()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn exactly_one_picks_one() {
        let mut s = Solver::new();
        let v = vars(&mut s, 5);
        let lits: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        s.add_exactly_one(&lits);
        assert_eq!(s.solve(), SolveResult::Sat);
        let count = v.iter().filter(|&&x| s.value(x)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn polarity_hint_respected_when_free() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let lits: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        s.add_clause(&lits);
        for &x in &v {
            s.set_polarity(x, true);
        }
        s.set_priority(v[2], 10.0);
        assert_eq!(s.solve(), SolveResult::Sat);
        // The highest-priority variable is decided first with polarity true.
        assert!(s.value(v[2]));
    }

    #[test]
    fn priorities_steer_model() {
        // exactly-one over 4 vars: the decoded "winner" follows priority.
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let lits: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        s.add_exactly_one(&lits);
        for (i, &x) in v.iter().enumerate() {
            s.set_polarity(x, true);
            s.set_priority(x, i as f64);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[3]));
        // Re-solve with different priorities, same solver.
        for (i, &x) in v.iter().enumerate() {
            s.set_priority(x, -(i as f64));
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[0]));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        for h in 0..2 {
            let lits: Vec<Lit> = p.iter().map(|row| row[h].positive()).collect();
            s.add_at_most_one(&lits);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn php_5_into_4_unsat() {
        let mut s = Solver::new();
        let n = 5;
        let m = 4;
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        for h in 0..m {
            let lits: Vec<Lit> = p.iter().map(|row| row[h].positive()).collect();
            s.add_at_most_one(&lits);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn implication_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 10);
        for w in v.windows(2) {
            s.add_implies(w[0].positive(), w[1].positive());
        }
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(v.iter().all(|&x| s.value(x)));
    }

    #[test]
    fn add_equal_links_vars() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_equal(v[0].positive(), v[1].positive());
        s.add_clause(&[v[0].negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(!s.value(v[1]));
    }

    #[test]
    fn counts_branching_decisions() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        // a -> b -> c: deciding a true propagates b and c; d stays free.
        s.add_implies(v[0].positive(), v[1].positive());
        s.add_implies(v[1].positive(), v[2].positive());
        s.set_priority(v[0], 1.0);
        s.set_polarity(v[0], true);
        assert_eq!(s.num_decisions(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[2]));
        assert_eq!(s.num_decisions(), 2);
        // The counter accumulates across solves.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.num_decisions(), 4);

        // A formula fixed by unit clauses needs no decision at all.
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].positive()]);
        s.add_implies(v[0].positive(), v[1].negative());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.num_decisions(), 0);
    }

    /// Cross-check against brute force on random small formulas.
    #[test]
    fn random_formulas_match_brute_force() {
        let mut rng = 0x2468_ACE0_1357_9BDFu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..200 {
            let n = 3 + (next() % 6) as usize; // 3..8 vars
            let m = 3 + (next() % 12) as usize;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..m {
                let len = 1 + (next() % 3) as usize;
                let mut cl = Vec::new();
                for _ in 0..len {
                    cl.push(((next() % n as u64) as usize, next() & 1 == 1));
                }
                clauses.push(cl);
            }
            // AMO over a random subset (when n >= 4).
            let amo: Vec<usize> = if n >= 4 { vec![0, 1, 2, 3] } else { vec![] };

            // Brute force.
            let mut expect_sat = false;
            'outer: for bits in 0..(1u32 << n) {
                let val = |i: usize| (bits >> i) & 1 == 1;
                for cl in &clauses {
                    if !cl.iter().any(|&(v, s)| val(v) == s) {
                        continue 'outer;
                    }
                }
                if amo.iter().filter(|&&v| val(v)).count() > 1 {
                    continue 'outer;
                }
                expect_sat = true;
                break;
            }

            let mut s = Solver::new();
            let v = vars(&mut s, n);
            for cl in &clauses {
                let lits: Vec<Lit> = cl.iter().map(|&(i, sg)| v[i].lit(sg)).collect();
                s.add_clause(&lits);
            }
            if !amo.is_empty() {
                let lits: Vec<Lit> = amo.iter().map(|&i| v[i].positive()).collect();
                s.add_at_most_one(&lits);
            }
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, expect_sat, "round {round} disagrees with oracle");
            // If SAT, the model must satisfy everything.
            if got {
                for cl in &clauses {
                    assert!(cl.iter().any(|&(i, sg)| s.value(v[i]) == sg));
                }
                assert!(amo.iter().filter(|&&i| s.value(v[i])).count() <= 1);
            }
        }
    }
}
