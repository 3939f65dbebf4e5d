//! Indexed max-heap over variables, ordered by (static priority, dynamic
//! activity).
//!
//! The static priority implements SAT-decoding: the MOEA genotype assigns
//! one priority per decision variable and the solver branches in that
//! order. The dynamic VSIDS activity breaks ties (and drives the search
//! when no priorities are set).
//!
//! Each heap slot carries its variable's keys inline, so sifting compares
//! and moves contiguous 24-byte entries instead of chasing two key arrays.
//! The sift order is the textbook top-down one: keys that tie exactly keep
//! whatever layout insertion and earlier pops produced, and SAT-decoding
//! depends on that layout to break the ties among zero-priority variables,
//! so every sift must make the same comparisons in the same order.

/// Position of a variable that is not queued.
const ABSENT: u32 = u32::MAX;

/// A queued variable with a copy of its keys.
#[derive(Debug, Clone, Copy)]
struct Entry {
    priority: f64,
    activity: f64,
    var: u32,
}

impl Entry {
    /// Lexicographic `(priority, activity) > (priority, activity)` without
    /// a branch; equal to the tuple comparison for every input, NaN and
    /// signed zeros included.
    #[inline]
    fn better(&self, other: &Entry) -> bool {
        (self.priority > other.priority)
            | ((self.priority == other.priority) & (self.activity > other.activity))
    }
}

/// Branching order heap. Keys are compared lexicographically:
/// static priority first, then activity.
#[derive(Debug, Default, Clone)]
pub struct VarHeap {
    heap: Vec<Entry>,
    /// Position of each variable in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
    /// Keys of every variable, queued or not.
    static_priority: Vec<f64>,
    activity: Vec<f64>,
}

impl VarHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the key arrays to `n` variables and inserts the new ones.
    pub fn grow(&mut self, n: usize) {
        while self.pos.len() < n {
            let i = self.pos.len();
            self.pos.push(ABSENT);
            self.static_priority.push(0.0);
            self.activity.push(0.0);
            self.insert(i);
        }
    }

    /// Stores `e` at slot `i`.
    #[inline]
    fn place(&mut self, i: usize, e: Entry) {
        self.heap[i] = e;
        self.pos[e.var as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let x = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !x.better(&p) {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, x);
    }

    fn sift_down(&mut self, mut i: usize) {
        let x = self.heap[i];
        let len = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let (mut best, mut key) = (i, x);
            if self.heap[l].better(&key) {
                (best, key) = (l, self.heap[l]);
            }
            let r = l + 1;
            if r < len && self.heap[r].better(&key) {
                (best, key) = (r, self.heap[r]);
            }
            if best == i {
                break;
            }
            self.place(i, key);
            i = best;
        }
        self.place(i, x);
    }

    fn insert(&mut self, v: usize) {
        if self.pos[v] != ABSENT {
            return;
        }
        self.heap.push(Entry {
            priority: self.static_priority[v],
            activity: self.activity[v],
            var: v as u32,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Sets the static (decode) priority of a variable.
    pub fn set_static_priority(&mut self, v: usize, p: f64) {
        self.static_priority[v] = p;
        if let Some(i) = self.slot(v) {
            self.heap[i].priority = p;
            self.resift(i);
        }
    }

    /// Sets the dynamic (VSIDS) activity of a variable.
    pub fn set_dynamic_activity(&mut self, v: usize, a: f64) {
        self.activity[v] = a;
        if let Some(i) = self.slot(v) {
            self.heap[i].activity = a;
            self.resift(i);
        }
    }

    #[inline]
    fn slot(&self, v: usize) -> Option<usize> {
        let i = self.pos[v];
        (i != ABSENT).then_some(i as usize)
    }

    /// Restores the heap order around slot `i` after its keys changed.
    fn resift(&mut self, i: usize) {
        let v = self.heap[i].var as usize;
        self.sift_up(i);
        self.sift_down(self.pos[v] as usize);
    }

    /// Reinserts a variable (after unassignment during backtracking).
    pub fn reinsert(&mut self, v: usize) {
        self.insert(v);
    }

    /// Reinserts every variable (start of a solve).
    pub fn rebuild(&mut self) {
        for v in 0..self.pos.len() {
            self.insert(v);
        }
    }

    /// Removes and returns the best variable, or `None` when empty.
    pub fn pop_max(&mut self) -> Option<usize> {
        let last = self.heap.pop()?;
        let top = if self.heap.is_empty() {
            last
        } else {
            let top = self.heap[0];
            self.place(0, last);
            self.sift_down(0);
            top
        };
        self.pos[top.var as usize] = ABSENT;
        Some(top.var as usize)
    }

    /// Number of queued variables.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let mut h = VarHeap::new();
        h.grow(5);
        for (v, p) in [(0, 1.0), (1, 5.0), (2, 3.0), (3, 4.0), (4, 2.0)] {
            h.set_static_priority(v, p);
        }
        let order: Vec<usize> = std::iter::from_fn(|| h.pop_max()).collect();
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn activity_breaks_ties() {
        let mut h = VarHeap::new();
        h.grow(3);
        h.set_dynamic_activity(1, 9.0);
        h.set_dynamic_activity(2, 4.0);
        assert_eq!(h.pop_max(), Some(1));
        assert_eq!(h.pop_max(), Some(2));
        assert_eq!(h.pop_max(), Some(0));
        assert_eq!(h.pop_max(), None);
    }

    #[test]
    fn static_dominates_activity() {
        let mut h = VarHeap::new();
        h.grow(2);
        h.set_dynamic_activity(0, 100.0);
        h.set_static_priority(1, 0.1);
        assert_eq!(h.pop_max(), Some(1));
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut h = VarHeap::new();
        h.grow(2);
        assert_eq!(h.len(), 2);
        h.reinsert(0);
        assert_eq!(h.len(), 2);
        h.pop_max();
        h.pop_max();
        assert!(h.is_empty());
        h.rebuild();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn keys_set_while_absent_apply_on_reinsert() {
        let mut h = VarHeap::new();
        h.grow(3);
        while h.pop_max().is_some() {}
        h.set_static_priority(0, 0.5);
        h.set_dynamic_activity(2, 1.0);
        h.rebuild();
        let order: Vec<usize> = std::iter::from_fn(|| h.pop_max()).collect();
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn branch_free_compare_is_the_tuple_order() {
        let keys = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1e-9,
            1.0,
            f64::INFINITY,
        ];
        for &a0 in &keys {
            for &a1 in &keys {
                for &b0 in &keys {
                    for &b1 in &keys {
                        let a = Entry { priority: a0, activity: a1, var: 0 };
                        let b = Entry { priority: b0, activity: b1, var: 1 };
                        assert_eq!(a.better(&b), (a0, a1) > (b0, b1), "{a:?} vs {b:?}");
                    }
                }
            }
        }
    }
}
