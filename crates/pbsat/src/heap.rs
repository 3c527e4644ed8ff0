//! The VSIDS decision order: an indexed binary max-heap over variables.
//!
//! Keyed `(activity desc, var index asc)`, so the top is the
//! lowest-indexed variable of maximal activity — exactly the variable a
//! linear first-maximum scan over all activities returns. The key is a
//! total order (activities are finite and non-negative, indices are
//! distinct), so the top depends only on the heap's contents and
//! activities, never on insertion history.
//!
//! The heap does not own the activities; every operation that compares
//! keys borrows them from the solver.

/// `pos` entry of a variable not in the heap.
const ABSENT: u32 = u32::MAX;

/// Indexed binary max-heap of variable indices.
#[derive(Clone, Debug, Default)]
pub(crate) struct VarHeap {
    heap: Vec<u32>,
    /// `pos[v]` = index of `v` in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

/// True if `a` ranks above `b`: higher activity, or equal activity and
/// the lower index.
fn above(act: &[f64], a: u32, b: u32) -> bool {
    act[a as usize] > act[b as usize] || (act[a as usize] == act[b as usize] && a < b)
}

impl VarHeap {
    /// Registers variable `pos.len()` and inserts it.
    pub(crate) fn new_var(&mut self, act: &[f64]) {
        let v = self.pos.len();
        self.pos.push(ABSENT);
        self.insert(v, act);
    }

    pub(crate) fn contains(&self, v: usize) -> bool {
        self.pos[v] != ABSENT
    }

    /// Inserts `v`, which must not be in the heap.
    pub(crate) fn insert(&mut self, v: usize, act: &[f64]) {
        debug_assert!(!self.contains(v));
        self.pos[v] = self.heap.len() as u32;
        self.heap.push(v as u32);
        self.sift_up(self.heap.len() - 1, act);
    }

    /// Inserts each of `vars` not already in the heap. More variables
    /// than the heap holds are appended unordered and heapified once;
    /// fewer sift up one by one. The key is a total order, so both
    /// paths leave the same pop sequence.
    pub(crate) fn insert_all(&mut self, vars: impl ExactSizeIterator<Item = usize>, act: &[f64]) {
        let bulk = vars.len() > self.heap.len();
        for v in vars {
            if bulk && !self.contains(v) {
                self.pos[v] = self.heap.len() as u32;
                self.heap.push(v as u32);
            } else if !self.contains(v) {
                self.insert(v, act);
            }
        }
        if bulk {
            self.rebuild(act);
        }
    }

    /// Removes and returns the top variable.
    pub(crate) fn pop(&mut self, act: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap nonempty");
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top as usize)
    }

    /// Restores the heap after `v`'s activity rose (a no-op if `v` is
    /// not in the heap).
    pub(crate) fn increased(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v] as usize, act);
        }
    }

    /// Re-heapifies every entry (after activities changed wholesale).
    pub(crate) fn rebuild(&mut self, act: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !above(act, v, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && above(act, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !above(act, c, v) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_first_maximum_order_with_ties() {
        let act = [1.0, 3.0, 3.0, 0.0, 2.0, 3.0, 0.0, 1.0];
        let mut h = VarHeap::default();
        for _ in 0..act.len() {
            h.new_var(&act);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| h.pop(&act)).collect();
        assert_eq!(popped, [1, 2, 5, 4, 0, 7, 3, 6]);
    }

    #[test]
    fn increase_and_rebuild_keep_the_order() {
        let mut act = vec![0.0; 16];
        let mut h = VarHeap::default();
        for _ in 0..act.len() {
            h.new_var(&act);
        }
        for (k, v) in [3, 9, 3, 14, 0, 9, 9].into_iter().enumerate() {
            act[v] += 1.0 + k as f64;
            h.increased(v, &act);
        }
        // Collapse every activity into a tie: only the index decides.
        act.iter_mut().for_each(|a| *a = 0.5);
        h.rebuild(&act);
        assert_eq!(h.pop(&act), Some(0));
        assert!(!h.contains(0));
        h.insert(0, &act);
        let popped: Vec<usize> = std::iter::from_fn(|| h.pop(&act)).collect();
        assert_eq!(popped, (0..16).collect::<Vec<_>>());
    }

    /// Every variable, highest activity first, by repeated linear
    /// first-maximum scans.
    fn scan_order(act: &[f64]) -> Vec<usize> {
        let mut left: Vec<usize> = (0..act.len()).collect();
        let mut order = Vec::new();
        while !left.is_empty() {
            let mut best = 0;
            for i in 1..left.len() {
                if act[left[i]] > act[left[best]] {
                    best = i;
                }
            }
            order.push(left.remove(best));
        }
        order
    }

    #[test]
    fn bulk_and_single_reinserts_pop_like_the_scan() {
        // Distinct and tied activities; the `1e-250`s underflow to ties
        // with the zeros when rescaled by `1e-100`.
        let base = [
            2.0, 5.0, 5.0, 0.0, 7.0, 1e-250, 5.0, 1.0, 7.0, 0.0, 3e-250, 2.0,
        ];
        for rescale in [false, true] {
            let mut act = base.to_vec();
            let (mut bulk, mut single) = (VarHeap::default(), VarHeap::default());
            for _ in 0..act.len() {
                bulk.new_var(&act);
                single.new_var(&act);
            }
            let popped: Vec<usize> = (0..8).map(|_| bulk.pop(&act).unwrap()).collect();
            (0..8).for_each(|_| assert!(single.pop(&act).is_some()));
            if rescale {
                act.iter_mut().for_each(|a| *a *= 1e-100);
                bulk.rebuild(&act);
                single.rebuild(&act);
            }
            // Nine variables for a heap of four, one of them already
            // held: the push-and-rebuild path.
            let held = (0..act.len()).find(|&v| bulk.contains(v)).unwrap();
            let again: Vec<usize> = popped.iter().copied().chain([held]).collect();
            bulk.insert_all(again.into_iter(), &act);
            popped.iter().for_each(|&v| single.insert(v, &act));
            let want = scan_order(&act);
            for h in [&mut bulk, &mut single] {
                let got: Vec<usize> = std::iter::from_fn(|| h.pop(&act)).collect();
                assert_eq!(got, want, "rescale {rescale}");
            }
        }
    }
}
