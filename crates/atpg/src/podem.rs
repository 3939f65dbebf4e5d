//! The PODEM (Path-Oriented DEcision Making) algorithm.
//!
//! PODEM searches the space of primary-input assignments only (not internal
//! lines), which keeps the implication step a plain forward simulation and
//! makes the search complete: if the decision tree is exhausted without a
//! test, the fault is provably untestable (redundant).

use eea_faultsim::{Fault, FaultSite};
use eea_netlist::{Circuit, GateId, GateKind};

use crate::cube::TestCube;

/// Decoded unknown value (0 and 1 decode to themselves).
const X: u8 = 2;

// A line's value is held in two 2-bit planes, the good machine in bits 0-1
// and the faulty machine in bits 2-3. A plane sets its low bit when the line
// can be 0 and its high bit when it can be 1: 0 = 0b01, 1 = 0b10,
// X = 0b11, so a plane decodes to 0, 1 or X by subtracting 1. Three-valued
// evaluation is then branch-free bitwise logic over both planes at once.
/// The "can be 0" bits of both planes.
const CAN0: u8 = 0b0101;
/// The "can be 1" bits of both planes.
const CAN1: u8 = 0b1010;
/// X in both planes.
const XX: u8 = 0b1111;

/// Both planes set to the decoded value `v` (0, 1 or X).
#[inline]
fn both(v: u8) -> u8 {
    (v + 1) * CAN0
}

/// `v` with its faulty plane forced to the stuck-at value.
#[inline]
fn stuck(v: u8, stuck_at: bool) -> u8 {
    (v & 0b0011) | ((u8::from(stuck_at) + 1) << 2)
}

/// Decoded good-machine value.
#[inline]
fn good_of(v: u8) -> u8 {
    (v & 0b11) - 1
}

/// Whether both planes are defined and differ: the line carries the fault
/// effect (D or D-bar).
#[inline]
fn is_effect(v: u8) -> bool {
    let (g, f) = (v & 0b11, v >> 2);
    g != 0b11 && f != 0b11 && g != f
}

/// Whether either plane is X.
#[inline]
fn has_x(v: u8) -> bool {
    v & 0b11 == 0b11 || v >> 2 == 0b11
}

/// Result of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtpgOutcome {
    /// A test cube detecting the fault.
    Test(TestCube),
    /// The fault is provably untestable (search space exhausted).
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

/// PODEM test generator for one circuit.
///
/// Reusable across faults; every buffer is allocated once, so a search
/// step allocates nothing. The outcome of [`Podem::run`] is a pure function
/// of (circuit, fault, backtrack limit): each run starts from a full
/// evaluation, so no state carries over between runs.
///
/// Implication is event-driven: a step re-evaluates only the gates whose
/// fanin changed since the previous step, and each evaluation computes the
/// good and the faulty plane in one bitwise pass. Outside the fault site's
/// transitive fanout cone (flip-flops excluded: they are scan cells, i.e.
/// pattern sources) the faulty plane equals the good plane, so detection
/// and the D-frontier search look at cone gates only.
#[derive(Debug)]
pub struct Podem<'c> {
    circuit: &'c Circuit,
    backtrack_limit: u64,
    /// Good and faulty value per gate, packed (see [`both`]).
    vals: Vec<u8>,
    /// Pattern sources (primary inputs, then flip-flops), in assignment
    /// order.
    sources: Vec<GateId>,
    /// gate id -> pattern-source index (or usize::MAX).
    source_index: Vec<usize>,
    /// Observation gates (primary outputs and flip-flop drivers).
    is_obs: Vec<bool>,
    assignment: Vec<Option<bool>>,
    /// gate id -> position in the topological order (`u32::MAX` for
    /// sources, which are never evaluated).
    topo_pos: Vec<u32>,
    /// Gates awaiting re-evaluation: a bitset over topological positions.
    dirty: Vec<u64>,
    /// Decision stack: (source index, current value, tried_both).
    decisions: Vec<(usize, bool, bool)>,
    /// Backtracks of the most recent run.
    backtracks: u64,
    /// Fanout cone of the current fault site, in gate-id order.
    cone: Vec<GateId>,
    /// The cone's observation gates.
    cone_obs: Vec<GateId>,
    in_cone: Vec<bool>,
    frontier: Vec<GateId>,
    xpath_stack: Vec<GateId>,
    xpath_seen: Vec<u32>,
    xpath_epoch: u32,
    /// SCOAP 0-/1-controllability per gate; guides the backtrace.
    cc0: Vec<u32>,
    cc1: Vec<u32>,
}

/// SCOAP controllability (CC0, CC1) per gate: the classic testability
/// measure — roughly, the number of lines that must be set to control a
/// line to 0/1.
fn scoap(circuit: &Circuit) -> (Vec<u32>, Vec<u32>) {
    let n = circuit.num_gates();
    let mut cc0 = vec![1u32; n];
    let mut cc1 = vec![1u32; n];
    let sum = |it: &mut dyn Iterator<Item = u32>| -> u32 {
        it.fold(0u32, |a, b| a.saturating_add(b)).saturating_add(1)
    };
    for &g in circuit.topo_order() {
        let i = g.index();
        let fanin = circuit.fanin(g);
        let f0 = |f: &GateId| cc0[f.index()];
        let f1 = |f: &GateId| cc1[f.index()];
        let (c0, c1) = match circuit.kind(g) {
            GateKind::And => (
                fanin.iter().map(f0).min().unwrap_or(0).saturating_add(1),
                sum(&mut fanin.iter().map(f1)),
            ),
            GateKind::Nand => (
                sum(&mut fanin.iter().map(f1)),
                fanin.iter().map(f0).min().unwrap_or(0).saturating_add(1),
            ),
            GateKind::Or => (
                sum(&mut fanin.iter().map(f0)),
                fanin.iter().map(f1).min().unwrap_or(0).saturating_add(1),
            ),
            GateKind::Nor => (
                fanin.iter().map(f1).min().unwrap_or(0).saturating_add(1),
                sum(&mut fanin.iter().map(f0)),
            ),
            GateKind::Not => (f1(&fanin[0]).saturating_add(1), f0(&fanin[0]).saturating_add(1)),
            GateKind::Buf => (f0(&fanin[0]).saturating_add(1), f1(&fanin[0]).saturating_add(1)),
            GateKind::Xor | GateKind::Xnor => {
                // Approximation for multi-input XOR: cheapest even/odd mix.
                let base: u32 = fanin
                    .iter()
                    .map(|f| f0(f).min(f1(f)))
                    .fold(0, |a, b| a.saturating_add(b));
                let spread = fanin
                    .iter()
                    .map(|f| f0(f).abs_diff(f1(f)))
                    .min()
                    .unwrap_or(0);
                let even = base.saturating_add(1);
                let odd = base.saturating_add(spread).saturating_add(1);
                if circuit.kind(g) == GateKind::Xor {
                    (even, odd)
                } else {
                    (odd, even)
                }
            }
            GateKind::Input | GateKind::Dff => (1, 1),
        };
        cc0[i] = c0;
        cc1[i] = c1;
    }
    (cc0, cc1)
}

impl<'c> Podem<'c> {
    /// Creates a generator with the given backtrack limit (per fault).
    pub fn new(circuit: &'c Circuit, backtrack_limit: u64) -> Self {
        let n = circuit.num_gates();
        let sources: Vec<GateId> = circuit
            .inputs()
            .iter()
            .chain(circuit.dffs())
            .copied()
            .collect();
        let mut source_index = vec![usize::MAX; n];
        for (i, &s) in sources.iter().enumerate() {
            source_index[s.index()] = i;
        }
        let mut is_obs = vec![false; n];
        for &o in circuit.outputs() {
            is_obs[o.index()] = true;
        }
        for &ff in circuit.dffs() {
            is_obs[circuit.fanin(ff)[0].index()] = true;
        }
        let mut topo_pos = vec![u32::MAX; n];
        for (p, &g) in circuit.topo_order().iter().enumerate() {
            topo_pos[g.index()] = p as u32;
        }
        let (cc0, cc1) = scoap(circuit);
        Podem {
            circuit,
            backtrack_limit,
            vals: vec![XX; n],
            sources,
            source_index,
            is_obs,
            assignment: vec![None; circuit.pattern_width()],
            topo_pos,
            dirty: vec![0; circuit.topo_order().len().div_ceil(64)],
            decisions: Vec::new(),
            backtracks: 0,
            cone: Vec::new(),
            cone_obs: Vec::new(),
            in_cone: vec![false; n],
            frontier: Vec::new(),
            xpath_stack: Vec::new(),
            xpath_seen: vec![0; n],
            xpath_epoch: 0,
            cc0,
            cc1,
        }
    }

    /// The per-fault backtrack limit.
    pub(crate) fn backtrack_limit(&self) -> u64 {
        self.backtrack_limit
    }

    /// Backtracks spent by the most recent [`Podem::run`].
    pub(crate) fn backtracks(&self) -> u64 {
        self.backtracks
    }

    /// Controllability cost of setting `g` to `v`.
    #[inline]
    fn cc(&self, g: GateId, v: bool) -> u32 {
        if v {
            self.cc1[g.index()]
        } else {
            self.cc0[g.index()]
        }
    }

    /// Generates a test for `fault`.
    pub fn run(&mut self, fault: Fault) -> AtpgOutcome {
        self.assignment.fill(None);
        self.decisions.clear();
        self.backtracks = 0;
        self.load_cone(fault);
        // The first implication of a run evaluates every gate.
        for &g in self.circuit.topo_order() {
            self.schedule(g);
        }

        loop {
            self.imply(fault);
            if self.detected(fault) {
                return AtpgOutcome::Test(TestCube::from_values(self.assignment.clone()));
            }
            let objective = self.objective(fault);
            let next = objective.and_then(|(g, v)| self.backtrace(g, v));
            match next {
                Some((src, val)) => {
                    self.assignment[src] = Some(val);
                    self.decisions.push((src, val, false));
                }
                None => {
                    // Conflict or no progress possible: backtrack.
                    self.backtracks += 1;
                    if self.backtracks > self.backtrack_limit {
                        return AtpgOutcome::Aborted;
                    }
                    loop {
                        match self.decisions.pop() {
                            None => return AtpgOutcome::Untestable,
                            Some((src, val, tried_both)) => {
                                self.assignment[src] = None;
                                if !tried_both {
                                    self.assignment[src] = Some(!val);
                                    self.decisions.push((src, !val, true));
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Collects the transitive fanout cone of the fault site, stopping at
    /// flip-flops. A fault on a flip-flop's data pin has an empty cone: in
    /// the scan frame it changes no gate value and is observed at the pin.
    fn load_cone(&mut self, fault: Fault) {
        let c = self.circuit;
        for &g in &self.cone {
            self.in_cone[g.index()] = false;
        }
        self.cone.clear();
        let root = match fault.site {
            FaultSite::Stem(g) => Some(g),
            FaultSite::Pin { gate, .. } => {
                (!c.kind(gate).is_combinational_source()).then_some(gate)
            }
        };
        if let Some(r) = root {
            self.in_cone[r.index()] = true;
            self.cone.push(r);
        }
        let mut k = 0;
        while let Some(&g) = self.cone.get(k) {
            k += 1;
            for &s in c.fanout(g) {
                if c.kind(s) != GateKind::Dff && !self.in_cone[s.index()] {
                    self.in_cone[s.index()] = true;
                    self.cone.push(s);
                }
            }
        }
        self.cone.sort_unstable();
        self.cone_obs.clear();
        self.cone_obs
            .extend(self.cone.iter().filter(|g| self.is_obs[g.index()]));
    }

    /// Packed value of driver `f` as seen on pin `pin` of `g`: its faulty
    /// plane is the stuck-at value if the fault sits on that pin.
    #[inline]
    fn pin_value(&self, fault: Fault, g: GateId, pin: usize, f: GateId) -> u8 {
        let v = self.vals[f.index()];
        match fault.site {
            FaultSite::Pin { gate, pin: fp } if gate == g && fp as usize == pin => {
                stuck(v, fault.stuck_at)
            }
            _ => v,
        }
    }

    /// Queues `g` for re-evaluation (sources are never evaluated).
    #[inline]
    fn schedule(&mut self, g: GateId) {
        let p = self.topo_pos[g.index()];
        if p != u32::MAX {
            self.dirty[p as usize / 64] |= 1 << (p % 64);
        }
    }

    /// Forward two-plane implication of the current assignment, event
    /// driven: sources whose value changed queue their fanout, and every
    /// queued gate is re-evaluated in topological order, queueing its own
    /// fanout when its value changed. A gate's fanout lies later in that
    /// order, so each gate is evaluated after all of its changed fanins.
    fn imply(&mut self, fault: Fault) {
        let c = self.circuit;
        let site = fault.site.gate();
        for k in 0..self.sources.len() {
            let s = self.sources[k];
            let mut v = both(match self.assignment[k] {
                Some(true) => 1,
                Some(false) => 0,
                None => X,
            });
            if fault.site == FaultSite::Stem(s) {
                v = stuck(v, fault.stuck_at);
            }
            if v != self.vals[s.index()] {
                self.vals[s.index()] = v;
                for &f in c.fanout(s) {
                    self.schedule(f);
                }
            }
        }
        let topo = c.topo_order();
        for w in 0..self.dirty.len() {
            // Fanout bits set while draining land later in this word or in
            // a later word, so re-reading the word picks them up.
            while self.dirty[w] != 0 {
                let bit = self.dirty[w].trailing_zeros() as usize;
                self.dirty[w] &= self.dirty[w] - 1;
                let g = topo[w * 64 + bit];
                let fanin = c.fanin(g);
                let v = if g == site {
                    let v = eval(
                        c.kind(g),
                        fanin
                            .iter()
                            .enumerate()
                            .map(|(pin, &f)| self.pin_value(fault, g, pin, f)),
                    );
                    match fault.site {
                        FaultSite::Stem(_) => stuck(v, fault.stuck_at),
                        FaultSite::Pin { .. } => v,
                    }
                } else {
                    let vals = &self.vals;
                    eval(c.kind(g), fanin.iter().map(|f| vals[f.index()]))
                };
                if v != self.vals[g.index()] {
                    self.vals[g.index()] = v;
                    for &f in c.fanout(g) {
                        self.schedule(f);
                    }
                }
            }
        }
    }

    /// Whether the fault effect currently reaches an observation point.
    fn detected(&self, fault: Fault) -> bool {
        if self
            .cone_obs
            .iter()
            .any(|o| is_effect(self.vals[o.index()]))
        {
            return true;
        }
        // Fault on a flip-flop data pin is observed at that pin directly.
        if let FaultSite::Pin { gate, .. } = fault.site {
            if self.circuit.kind(gate) == GateKind::Dff {
                let g = good_of(self.vals[self.circuit.fanin(gate)[0].index()]);
                return g != X && g != u8::from(fault.stuck_at);
            }
        }
        false
    }

    /// Next objective `(gate, value)` or `None` when the current partial
    /// assignment cannot lead to a detection (triggering a backtrack).
    fn objective(&mut self, fault: Fault) -> Option<(GateId, bool)> {
        let c = self.circuit;
        // 1. Activation: the faulted line's good value must be the opposite
        //    of the stuck-at value.
        let activation_line = match fault.site {
            FaultSite::Stem(g) => g,
            FaultSite::Pin { gate, pin } => c.fanin(gate)[pin as usize],
        };
        let want = !fault.stuck_at;
        match good_of(self.vals[activation_line.index()]) {
            v if v == X => return Some((activation_line, want)),
            v if v == u8::from(fault.stuck_at) => return None, // activation failed
            _ => {}
        }
        // Fault is activated. If the effect vanished everywhere and nothing
        // is X any more on its paths, we are stuck; use D-frontier + X-path.
        // Collect the D-frontier: gates with an effect on an input but an
        // undetermined output. Only cone gates can carry an effect, so only
        // they are scanned, in gate-id order: the stable level sort below
        // then sees the sequence a whole-circuit scan would produce.
        let mut frontier = std::mem::take(&mut self.frontier);
        frontier.clear();
        let mut any_effect = false;
        for &g in &self.cone {
            let v = self.vals[g.index()];
            if is_effect(v) {
                any_effect = true;
                continue;
            }
            if c.kind(g).is_combinational_source() {
                continue;
            }
            if has_x(v) {
                let input_effect = c
                    .fanin(g)
                    .iter()
                    .enumerate()
                    .any(|(pin, &f)| is_effect(self.pin_value(fault, g, pin, f)));
                if input_effect {
                    any_effect = true;
                    frontier.push(g);
                }
            }
        }
        let mut pick = None;
        if any_effect {
            // The search may only backtrack when NO frontier gate can still
            // reach an observation point — checking a single gate would
            // prune valid branches and wrongly classify faults as
            // untestable. Prefer the lowest-level gate (cheapest to
            // justify) among those with an X-path.
            frontier.sort_by_key(|&g| c.level(g));
            for &g in &frontier {
                if !self.has_x_path(g) {
                    continue;
                }
                // Set an X input to the non-controlling value.
                let x_input = c
                    .fanin(g)
                    .iter()
                    .find(|&&f| good_of(self.vals[f.index()]) == X)
                    .copied();
                if let Some(f) = x_input {
                    let v = match c.kind(g).controlling_value() {
                        Some(ctrl) => !ctrl,
                        None => false, // XOR/XNOR: any defined value unblocks
                    };
                    pick = Some((f, v));
                    break;
                }
            }
        }
        self.frontier = frontier;
        pick
    }

    /// Starts a new X-path search generation. When the epoch counter would
    /// wrap, every mark is cleared first: a wrapped epoch of 0 would read
    /// every never-visited gate as already seen.
    fn next_xpath_epoch(&mut self) -> u32 {
        self.xpath_epoch = match self.xpath_epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.xpath_seen.fill(0);
                1
            }
        };
        self.xpath_epoch
    }

    /// Whether some gate with composite-X output leads from `from` to an
    /// observation point (X-path check).
    fn has_x_path(&mut self, from: GateId) -> bool {
        let epoch = self.next_xpath_epoch();
        let c = self.circuit;
        self.xpath_stack.clear();
        self.xpath_stack.push(from);
        while let Some(g) = self.xpath_stack.pop() {
            if self.xpath_seen[g.index()] == epoch {
                continue;
            }
            self.xpath_seen[g.index()] = epoch;
            if self.is_obs[g.index()] {
                return true;
            }
            for &s in c.fanout(g) {
                if c.kind(s) == GateKind::Dff {
                    // The driver of a DFF is an observation gate, already
                    // covered by is_obs on `g` itself.
                    continue;
                }
                if has_x(self.vals[s.index()]) {
                    self.xpath_stack.push(s);
                }
            }
        }
        false
    }

    /// Maps an objective to a primary-input (or scan-cell) assignment by
    /// walking backwards through X-valued lines.
    fn backtrace(&self, gate: GateId, value: bool) -> Option<(usize, bool)> {
        let c = self.circuit;
        let mut g = gate;
        let mut v = value;
        loop {
            let i = g.index();
            if c.kind(g).is_combinational_source() {
                if good_of(self.vals[i]) != X {
                    return None; // already assigned; objective unreachable
                }
                return Some((self.source_index[i], v));
            }
            let kind = c.kind(g);
            let mut xs = c
                .fanin(g)
                .iter()
                .filter(|&&f| good_of(self.vals[f.index()]) == X)
                .copied();
            let first = xs.next()?;
            let (next, v_next) = match kind {
                GateKind::Not => (first, !v),
                GateKind::Buf => (first, v),
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let ctrl = kind.controlling_value()?;
                    let pre = v ^ kind.inverts();
                    if pre == ctrl {
                        // One controlling input suffices: pick the X input
                        // that is easiest to drive to the controlling value.
                        // The chain starts with `first`, so min/max over it
                        // can only be `None` if the iterator is empty —
                        // impossible, but `?` keeps the path panic-free.
                        let pick = std::iter::once(first)
                            .chain(xs)
                            .min_by_key(|&f| self.cc(f, ctrl))?;
                        (pick, ctrl)
                    } else {
                        // All inputs must be non-controlling: tackle the
                        // hardest one first so conflicts surface early.
                        let pick = std::iter::once(first)
                            .chain(xs)
                            .max_by_key(|&f| self.cc(f, !ctrl))?;
                        (pick, !ctrl)
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Assume remaining X inputs resolve to 0; required value
                    // = target corrected by inversion and defined parity.
                    let defined_parity = c
                        .fanin(g)
                        .iter()
                        .map(|&f| good_of(self.vals[f.index()]))
                        .filter(|&v| v != X)
                        .fold(false, |p, v| p ^ (v == 1));
                    let need = v ^ (kind == GateKind::Xnor) ^ defined_parity;
                    (first, need)
                }
                // Sources were handled by the is_combinational_source()
                // early return; treat the impossible fall-through as an
                // unreachable objective rather than panicking.
                GateKind::Input | GateKind::Dff => return None,
            };
            v = v_next;
            g = next;
        }
    }
}

/// Three-valued gate evaluation of packed fanin values, both planes at
/// once: an AND can be 1 only if every input can be 1 and can be 0 if any
/// input can be 0 (dually for OR), an XOR plane is X if any input plane is X
/// and the parity of its inputs otherwise, and inversion swaps the two bits
/// of each plane.
fn eval(kind: GateKind, fanin: impl IntoIterator<Item = u8>) -> u8 {
    let invert = |v: u8| ((v & CAN0) << 1) | ((v & CAN1) >> 1);
    // (AND, OR) of the fanin values.
    fn all_any(fanin: impl Iterator<Item = u8>) -> (u8, u8) {
        fanin.fold((XX, 0), |(all, any), v| (all & v, any | v))
    }
    let mut fanin = fanin.into_iter();
    match kind {
        GateKind::And | GateKind::Nand => {
            let (all, any) = all_any(fanin);
            let v = (all & CAN1) | (any & CAN0);
            if kind == GateKind::Nand {
                invert(v)
            } else {
                v
            }
        }
        GateKind::Or | GateKind::Nor => {
            let (all, any) = all_any(fanin);
            let v = (any & CAN1) | (all & CAN0);
            if kind == GateKind::Nor {
                invert(v)
            } else {
                v
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // Per plane (at the CAN0 bit): any X input, and the parity of
            // the inputs' "can be 1" bits.
            let (x, ones) = fanin.fold((0, 0), |(x, ones), v| {
                (x | (v & (v >> 1) & CAN0), ones ^ ((v >> 1) & CAN0))
            });
            let v = (ones << 1) | (!ones & CAN0) | x | (x << 1);
            if kind == GateKind::Xnor {
                invert(v)
            } else {
                v
            }
        }
        GateKind::Not => invert(fanin.next().unwrap_or(XX)),
        GateKind::Buf => fanin.next().unwrap_or(XX),
        // Sources are never evaluated (imply seeds them); answer X
        // conservatively instead of panicking if one slips through.
        GateKind::Input | GateKind::Dff => XX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_faultsim::{FaultSim, FaultUniverse, PatternBlock};
    use eea_netlist::{bench_format, CircuitBuilder};

    /// Decoded faulty-machine value.
    fn faulty_of(v: u8) -> u8 {
        (v >> 2) - 1
    }

    /// Scalar three-valued reference evaluation of one plane.
    fn eval3(kind: GateKind, fanin: impl IntoIterator<Item = u8>) -> u8 {
        let mut fanin = fanin.into_iter();
        match kind {
            GateKind::And | GateKind::Nand => {
                let mut v = 1u8;
                for f in fanin {
                    if f == 0 {
                        v = 0;
                        break;
                    }
                    if f == X {
                        v = X;
                    }
                }
                if v == X {
                    X
                } else if kind == GateKind::Nand {
                    v ^ 1
                } else {
                    v
                }
            }
            GateKind::Or | GateKind::Nor => {
                let mut v = 0u8;
                for f in fanin {
                    if f == 1 {
                        v = 1;
                        break;
                    }
                    if f == X {
                        v = X;
                    }
                }
                if v == X {
                    X
                } else if kind == GateKind::Nor {
                    v ^ 1
                } else {
                    v
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut v = 0u8;
                for f in fanin {
                    if f == X {
                        return X;
                    }
                    v ^= f;
                }
                if kind == GateKind::Xnor {
                    v ^ 1
                } else {
                    v
                }
            }
            GateKind::Not => match fanin.next().unwrap_or(X) {
                X => X,
                v => v ^ 1,
            },
            GateKind::Buf => fanin.next().unwrap_or(X),
            // Sources are never evaluated (the simulator seeds them); answer X
            // conservatively instead of panicking if one slips through.
            GateKind::Input | GateKind::Dff => X,
        }
    }

    #[test]
    fn eval3_truth_tables() {
        assert_eq!(eval3(GateKind::And, [1, 1]), 1);
        assert_eq!(eval3(GateKind::And, [0, X]), 0);
        assert_eq!(eval3(GateKind::And, [1, X]), X);
        assert_eq!(eval3(GateKind::Nor, [0, 0]), 1);
        assert_eq!(eval3(GateKind::Nor, [X, 1]), 0);
        assert_eq!(eval3(GateKind::Xor, [1, X]), X);
        assert_eq!(eval3(GateKind::Xnor, [1, 1]), 1);
        assert_eq!(eval3(GateKind::Not, [X]), X);
    }

    /// The packed evaluation equals the scalar reference on each plane, for
    /// every gate kind and every good/faulty combination of up to three
    /// inputs.
    #[test]
    fn packed_eval_matches_scalar_reference_per_plane() {
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ];
        let values: Vec<u8> = (0..3u8)
            .flat_map(|g| (0..3u8).map(move |f| (g + 1) | ((f + 1) << 2)))
            .collect();
        for kind in kinds {
            let arities: &[usize] = match kind {
                GateKind::Not | GateKind::Buf => &[1],
                _ => &[1, 2, 3],
            };
            for &arity in arities {
                for code in 0..values.len().pow(arity as u32) {
                    let fanin: Vec<u8> = (0..arity)
                        .map(|k| values[code / values.len().pow(k as u32) % values.len()])
                        .collect();
                    let v = eval(kind, fanin.iter().copied());
                    let good = eval3(kind, fanin.iter().map(|&p| good_of(p)));
                    let faulty = eval3(kind, fanin.iter().map(|&p| faulty_of(p)));
                    assert_eq!(
                        (good_of(v), faulty_of(v)),
                        (good, faulty),
                        "{kind:?} on {fanin:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn c17_all_faults_testable() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let universe = FaultUniverse::collapsed(&c);
        let mut podem = Podem::new(&c, 10_000);
        let mut sim = FaultSim::new(&c);
        for fi in 0..universe.num_faults() {
            let fault = universe.fault(fi);
            match podem.run(fault) {
                AtpgOutcome::Test(cube) => {
                    // Verify with the fault simulator.
                    let filled = cube.filled_with(|| false);
                    let block = PatternBlock::from_patterns(&c, &[filled]);
                    sim.run_good(&block);
                    assert!(
                        sim.detect_mask(fault, &block, false).any(),
                        "cube {cube} does not detect {fault}"
                    );
                }
                other => panic!("{fault}: expected test, got {other:?}"),
            }
        }
    }

    #[test]
    fn redundant_fault_proven_untestable() {
        // y = OR(a, AND(a, b)): the AND gate is redundant (absorption), so
        // AND-output stuck-at-0 is untestable.
        let mut bld = CircuitBuilder::new();
        let a = bld.input("a");
        let b = bld.input("b");
        let m = bld.gate(GateKind::And, &[a, b], "m");
        let y = bld.gate(GateKind::Or, &[a, m], "y");
        bld.output(y);
        let c = bld.finish().unwrap();
        let mut podem = Podem::new(&c, 10_000);
        let fault = Fault::sa0(FaultSite::Stem(m));
        assert_eq!(podem.run(fault), AtpgOutcome::Untestable);
        // The OR output itself is testable.
        assert!(matches!(
            podem.run(Fault::sa0(FaultSite::Stem(y))),
            AtpgOutcome::Test(_)
        ));
    }

    #[test]
    fn sequential_circuit_scan_faults() {
        let c = bench_format::parse(bench_format::S27).unwrap();
        let universe = FaultUniverse::collapsed(&c);
        let mut podem = Podem::new(&c, 50_000);
        let mut sim = FaultSim::new(&c);
        let mut tested = 0;
        for fi in 0..universe.num_faults() {
            let fault = universe.fault(fi);
            if let AtpgOutcome::Test(cube) = podem.run(fault) {
                let filled = cube.filled_with(|| false);
                let block = PatternBlock::from_patterns(&c, &[filled]);
                sim.run_good(&block);
                assert!(sim.detect_mask(fault, &block, false).any());
                tested += 1;
            }
        }
        // s27 in full scan is fully testable.
        assert_eq!(tested, universe.num_faults());
    }

    #[test]
    fn xpath_epoch_wrap_restarts_cleanly() {
        // A generator whose X-path epoch starts just below the top of its
        // range must wrap without panicking and classify every fault
        // exactly as a fresh one does: a wrapped epoch of 0 would read
        // every never-visited gate as already seen.
        let c = eea_netlist::synthesize(&eea_netlist::SynthConfig {
            gates: 150,
            inputs: 10,
            dffs: 12,
            seed: 0xF1EE7,
            ..eea_netlist::SynthConfig::default()
        })
        .expect("synthesizes");
        let universe = FaultUniverse::collapsed(&c);
        let mut fresh = Podem::new(&c, 100);
        let mut wrapping = Podem::new(&c, 100);
        wrapping.xpath_epoch = u32::MAX - 1;
        for fi in 0..universe.num_faults() {
            let fault = universe.fault(fi);
            assert_eq!(wrapping.run(fault), fresh.run(fault), "{fault}");
        }
        assert!(
            wrapping.xpath_epoch < u32::MAX - 1,
            "the epoch never wrapped"
        );
    }

    #[test]
    fn aborted_with_tiny_limit() {
        let c = bench_format::parse(bench_format::S27).unwrap();
        let universe = FaultUniverse::collapsed(&c);
        let mut podem = Podem::new(&c, 0);
        // With a zero backtrack budget some fault must abort (any fault that
        // needs at least one backtrack).
        let mut aborted = 0;
        for fi in 0..universe.num_faults() {
            if podem.run(universe.fault(fi)) == AtpgOutcome::Aborted {
                aborted += 1;
            }
        }
        // Not asserting a specific count — just that the limit is honoured
        // and nothing panics.
        let _ = aborted;
    }
}
