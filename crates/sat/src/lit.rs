use std::fmt;
use std::ops::Not;

/// A Boolean variable, densely indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Dense index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a variable from a dense index previously obtained from
    /// [`index`](Self::index) on the same solver.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }

    /// Positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// Negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// Literal of this variable with the given sign (`true` = positive).
    #[inline]
    pub fn lit(self, sign: bool) -> Lit {
        if sign {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The literal's variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense code (2·var + sign), usable as an array index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`code`](Self::code).
    #[inline]
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
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
    fn literal_codes() {
        let v = Var(3);
        assert_eq!(v.positive().code(), 6);
        assert_eq!(v.negative().code(), 7);
        assert_eq!(!v.positive(), v.negative());
        assert_eq!((!v.negative()).code(), 6);
        assert_eq!(Lit::from_code(7), v.negative());
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
    }

    #[test]
    fn display_forms() {
        let v = Var(2);
        assert_eq!(v.positive().to_string(), "x2");
        assert_eq!(v.negative().to_string(), "!x2");
    }
}
