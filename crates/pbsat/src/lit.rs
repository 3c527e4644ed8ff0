//! Variables and literals.

use std::fmt;
use std::ops::Not;

/// A propositional variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `2·var + sign` (sign bit 1 = negated), the conventional
/// MiniSat packing, so literals index watch lists directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`, which must be below `2^31`.
    pub fn positive(v: Var) -> Lit {
        debug_assert!(v.0 < 1 << 31, "variable {v} has no literal index");
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`, which must be below `2^31`.
    pub fn negative(v: Var) -> Lit {
        debug_assert!(v.0 < 1 << 31, "variable {v} has no literal index");
        Lit((v.0 << 1) | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if the literal is the positive polarity.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The raw index (`2·var + sign`), usable for dense tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::index`].
    pub fn from_index(index: usize) -> Lit {
        Lit(index as u32)
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode() {
        let v = Var(5);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::from_index(p.index()), p);
    }

    #[test]
    fn the_highest_variable_keeps_distinct_literals() {
        let top = Var((1 << 31) - 1);
        assert_eq!(Lit::negative(top).index(), u32::MAX as usize);
        assert_eq!(Lit::positive(top).var(), top);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "has no literal index")]
    fn a_variable_past_2_31_has_no_literal() {
        // `1 << 31` shifted into a u32 would be `Var(0)`'s literal.
        Lit::positive(Var(1 << 31));
    }

    #[test]
    fn display() {
        assert_eq!(Lit::positive(Var(3)).to_string(), "v3");
        assert_eq!(Lit::negative(Var(3)).to_string(), "!v3");
    }
}
