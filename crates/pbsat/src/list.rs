//! A `Vec`-like list that keeps its first `N` entries inline and spills
//! to a boxed buffer past that: the per-literal watch and PB occurrence
//! lists, most of which hold one or two entries for life. With `N`
//! entries in 16 bytes it is no larger than a `Vec`.

use std::ops::Deref;

/// The entries are the first `len` slots; push, indexing, `swap_remove`
/// and `clear` act exactly as on a `Vec`.
#[derive(Clone, Debug)]
pub(crate) enum InlineList<T, const N: usize> {
    Inline { len: u32, items: [T; N] },
    Spilled { len: u32, buf: Box<[T]> },
}

impl<T: Copy + Default, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        InlineList::Inline {
            len: 0,
            items: [T::default(); N],
        }
    }
}

impl<T: Copy + Default, const N: usize> InlineList<T, N> {
    fn parts(&mut self) -> (&mut u32, &mut [T]) {
        match self {
            InlineList::Inline { len, items } => (len, items),
            InlineList::Spilled { len, buf } => (len, buf),
        }
    }

    /// Appends `x`, spilling into (or doubling) a boxed buffer when full.
    pub(crate) fn push(&mut self, x: T) {
        let (len, slots) = self.parts();
        let n = *len as usize;
        if n == slots.len() {
            let cap = u32::try_from(2 * n.max(2)).expect("list length fits in u32");
            let mut buf = vec![T::default(); cap as usize].into_boxed_slice();
            buf[..n].copy_from_slice(slots);
            *self = InlineList::Spilled { len: n as u32, buf };
        }
        let (len, slots) = self.parts();
        slots[*len as usize] = x;
        *len += 1;
    }

    /// Removes entry `i`, moving the last entry into its place.
    pub(crate) fn swap_remove(&mut self, i: usize) -> T {
        let (len, slots) = self.parts();
        assert!(i < *len as usize, "swap_remove index out of bounds");
        *len -= 1;
        let x = slots[i];
        slots[i] = slots[*len as usize];
        x
    }

    /// Removes every entry, keeping a spilled buffer for reuse.
    pub(crate) fn clear(&mut self) {
        *self.parts().0 = 0;
    }
}

impl<T, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineList::Inline { len, items } => &items[..*len as usize],
            InlineList::Spilled { len, buf } => &buf[..*len as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded push / `swap_remove` / `clear` sequences across the
    /// inline-to-spill boundary, checked against a `Vec` after every
    /// step; every step also tries `swap_remove` at every position on a
    /// copy of both.
    fn behaves_as_a_vec<const N: usize>(seed: u64) {
        let mut s = seed;
        let mut next = move |n: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n as u64) as usize
        };
        let mut list = InlineList::<(usize, u64), N>::default();
        let mut vec = Vec::new();
        for step in 0..400 {
            match next(8) {
                0..=3 => {
                    let x = (step, next(1000) as u64);
                    list.push(x);
                    vec.push(x);
                }
                4 | 5 if !vec.is_empty() => {
                    let i = next(vec.len());
                    assert_eq!(list.swap_remove(i), vec.swap_remove(i));
                }
                6 if next(8) == 0 => {
                    list.clear();
                    vec.clear();
                }
                _ => {}
            }
            assert_eq!(list.len(), vec.len());
            assert!(list.iter().eq(&vec), "seed {seed} step {step}");
            for i in 0..vec.len() {
                assert_eq!(list[i], vec[i]);
                let (mut l, mut v) = (list.clone(), vec.clone());
                assert_eq!(l.swap_remove(i), v.swap_remove(i));
                assert_eq!(&l[..], &v[..], "seed {seed} step {step} swap_remove({i})");
            }
        }
    }

    #[test]
    fn inline_list_behaves_as_a_vec() {
        for seed in 1..=8u64 {
            behaves_as_a_vec::<1>(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            behaves_as_a_vec::<2>(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn swap_remove_past_the_end_panics() {
        let mut list = InlineList::<u64, 2>::default();
        list.push(7);
        list.swap_remove(1);
    }
}
