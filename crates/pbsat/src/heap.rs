//! The VSIDS decision order: an indexed binary max-heap of the held
//! variables of positive activity, then a bitset of those of activity 0.
//!
//! Keyed `(activity desc, var index asc)`, so `pop` returns what a
//! linear first-maximum scan over the held set returns. Activities are
//! non-negative, so the zeros rank below the rest and by index alone:
//! `pop` takes the heap's top while there is one, then the lowest set
//! bit. A solve ending in a model pops every variable while nearly all
//! are still at 0; a bit scan is far cheaper than a sift-down for each.
//! The activities are borrowed from the solver.

/// `pos` entry of a variable not held.
const ABSENT: u32 = u32::MAX;
/// `pos` entry of a variable in the zero tier (beyond any position).
const ZERO: u32 = u32::MAX - 1;

#[derive(Clone, Debug, Default)]
pub(crate) struct VarHeap {
    heap: Vec<u32>,
    /// `pos[v]` = index of `v` in `heap`, [`ZERO`], or [`ABSENT`].
    pos: Vec<u32>,
    /// Bit `v` set iff `pos[v]` is [`ZERO`]; none below word `cursor`.
    zeros: Vec<u64>,
    cursor: usize,
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
        if v.is_multiple_of(64) {
            self.zeros.push(0);
        }
        self.insert(v, act);
    }

    /// Reserves room for `vars` more variables.
    pub(crate) fn reserve(&mut self, vars: usize) {
        self.pos.reserve(vars);
        self.zeros
            .reserve((self.pos.len() + vars).div_ceil(64) - self.zeros.len());
    }

    pub(crate) fn contains(&self, v: usize) -> bool {
        self.pos[v] != ABSENT
    }

    /// Inserts `v`, which must not be held.
    pub(crate) fn insert(&mut self, v: usize, act: &[f64]) {
        if self.hold(v, act) {
            self.sift_up(self.heap.len() - 1, act);
        }
    }

    /// Inserts each of `vars` not already held. With more variables than
    /// the heap holds, the heap's new entries are heapified once, else
    /// each sifts up. The key is a total order, so both paths leave the
    /// same pop sequence.
    pub(crate) fn insert_all(&mut self, vars: impl ExactSizeIterator<Item = usize>, act: &[f64]) {
        let bulk = vars.len() > self.heap.len();
        for v in vars {
            if !self.contains(v) && self.hold(v, act) && !bulk {
                self.sift_up(self.heap.len() - 1, act);
            }
        }
        if bulk {
            self.heapify(act);
        }
    }

    /// Removes and returns the top variable.
    pub(crate) fn pop(&mut self, act: &[f64]) -> Option<usize> {
        let Some(&top) = self.heap.first() else {
            while let Some(&word) = self.zeros.get(self.cursor) {
                if word != 0 {
                    self.zeros[self.cursor] = word & (word - 1);
                    let v = self.cursor * 64 + word.trailing_zeros() as usize;
                    self.pos[v] = ABSENT;
                    return Some(v);
                }
                self.cursor += 1;
            }
            return None;
        };
        let last = self.heap.pop().expect("heap nonempty");
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top as usize)
    }

    /// Restores the order after `v`'s activity rose: sifts it up, or
    /// lifts it out of the zero tier (a no-op if `v` is not held).
    pub(crate) fn increased(&mut self, v: usize, act: &[f64]) {
        match self.pos[v] {
            ZERO if act[v] > 0.0 => {
                self.zeros[v / 64] &= !(1 << (v % 64));
                self.pos[v] = ABSENT;
                self.insert(v, act);
            }
            ABSENT | ZERO => {}
            i => self.sift_up(i as usize, act),
        }
    }

    /// Re-sorts every held variable into its tier (a rescale can zero one).
    pub(crate) fn rebuild(&mut self, act: &[f64]) {
        self.heap.clear();
        self.zeros.fill(0);
        for v in 0..self.pos.len() {
            if self.contains(v) {
                self.pos[v] = ABSENT;
                self.hold(v, act);
            }
        }
        self.heapify(act);
    }

    /// Puts `v`, which must not be held, in its activity's tier; true if
    /// that is the heap, where it was appended unordered.
    fn hold(&mut self, v: usize, act: &[f64]) -> bool {
        debug_assert!(!self.contains(v));
        if act[v] > 0.0 {
            self.pos[v] = self.heap.len() as u32;
            self.heap.push(v as u32);
            return true;
        }
        self.pos[v] = ZERO;
        self.zeros[v / 64] |= 1 << (v % 64);
        self.cursor = self.cursor.min(v / 64);
        false
    }

    fn heapify(&mut self, act: &[f64]) {
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

    /// The held variable a linear first-maximum scan picks.
    fn scan_pick(held: &[bool], act: &[f64]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for v in (0..held.len()).filter(|&v| held[v]) {
            if best.is_none_or(|b| act[v] > act[b]) {
                best = Some(v);
            }
        }
        best
    }

    /// Seeded random operation sequences against the scan over a flat
    /// held set: the two tiers must pop exactly what the scan picks,
    /// across bumps out of the zero tier, rescales that underflow
    /// activities to 0, and bulk and one-by-one re-inserts.
    #[test]
    fn two_tiers_pop_like_the_scan() {
        for seed in 1..=40u64 {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move |n: usize| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % n as u64) as usize
            };
            let (mut act, mut held) = (Vec::<f64>::new(), Vec::<bool>::new());
            let mut h = VarHeap::default();
            let mut inc = 1.0;
            let rescale = |act: &mut Vec<f64>, inc: &mut f64, h: &mut VarHeap| {
                act.iter_mut().for_each(|a| *a *= 1e-100);
                *inc *= 1e-100;
                h.rebuild(act);
            };
            for step in 0..600 {
                let n = act.len();
                match next(10) {
                    // Past a word boundary now and then.
                    0 | 1 => {
                        act.push(if next(4) == 0 { 1e-250 } else { 0.0 });
                        held.push(true);
                        h.new_var(&act);
                    }
                    2 | 3 if n > 0 => {
                        let v = next(n);
                        act[v] += match next(4) {
                            0 => 1e-250 * (1 + next(3)) as f64,
                            1 => 1.1e100, // rescales, even from the zero tier
                            _ => inc,
                        };
                        inc *= [1.0, 1.5, 1e30][next(3)];
                        if act[v] > 1e100 {
                            rescale(&mut act, &mut inc, &mut h);
                        } else {
                            h.increased(v, &act);
                        }
                    }
                    4 if n > 0 => rescale(&mut act, &mut inc, &mut h),
                    5 | 6 => {
                        let want = scan_pick(&held, &act);
                        assert_eq!(h.pop(&act), want, "seed {seed} step {step}");
                        if let Some(v) = want {
                            held[v] = false;
                        }
                    }
                    7 if n > 0 => {
                        let v = next(n);
                        if !held[v] {
                            h.insert(v, &act);
                            held[v] = true;
                        }
                    }
                    8 | 9 if n > 0 => {
                        // Some held, some not; sized to take either path.
                        let vars: Vec<usize> = (0..1 + next(n)).map(|_| next(n)).collect();
                        vars.iter().for_each(|&v| held[v] = true);
                        h.insert_all(vars.into_iter(), &act);
                    }
                    _ => {}
                }
                for (v, &held) in held.iter().enumerate() {
                    assert_eq!(h.contains(v), held, "seed {seed} step {step} var {v}");
                }
            }
            while let Some(v) = h.pop(&act) {
                assert_eq!(Some(v), scan_pick(&held, &act), "seed {seed} drain");
                held[v] = false;
            }
            assert!(held.iter().all(|&x| !x), "seed {seed}: held variables lost");
        }
    }
}
