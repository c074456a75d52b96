//! Index newtypes used throughout the IR.
//!
//! Every entity in the IR arena is addressed by a small copyable id. The
//! newtypes prevent, at compile time, an instruction index from being used
//! where a block index is expected ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a raw index.
            #[inline]
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw index of this id.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// A virtual register (SSA value) within a [`crate::Function`].
    ValueId,
    "%v"
);
id_type!(
    /// An instruction within a [`crate::Function`].
    InstId,
    "i"
);
id_type!(
    /// A basic block within a [`crate::Function`].
    BlockId,
    "bb"
);
id_type!(
    /// A function within a [`crate::Program`].
    FuncId,
    "@f"
);
id_type!(
    /// An abstract memory object (global, stack slot, or heap allocation
    /// site) within a [`crate::Program`].
    MemObjId,
    "#m"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_raw_index() {
        let v = ValueId::new(7);
        assert_eq!(v.index(), 7);
        assert_eq!(usize::from(v), 7);
    }

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", ValueId::new(3)), "%v3");
        assert_eq!(format!("{}", InstId::new(4)), "i4");
        assert_eq!(format!("{}", BlockId::new(5)), "bb5");
        assert_eq!(format!("{}", FuncId::new(6)), "@f6");
        assert_eq!(format!("{:?}", MemObjId::new(8)), "#m8");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(BlockId::new(1) < BlockId::new(2));
        assert_eq!(InstId::new(9), InstId::new(9));
    }
}
