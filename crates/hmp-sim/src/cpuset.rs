//! Core identifiers and affinity masks (the simulator's
//! `sched_setaffinity` equivalent).

use std::fmt;

/// Identifier of one CPU core on the board.
///
/// Core numbering follows the Exynos 5422 convention the paper's code
/// relies on (`i + bigStartIndex` in Algorithm 4): little cores come
/// first (`0..n_little`), big cores after (`n_little..n_little+n_big`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A set of cores a thread is allowed to run on, as a 64-bit mask.
///
/// ```
/// use hmp_sim::{CoreId, CpuSet};
/// let set = CpuSet::from_cores([CoreId(0), CoreId(4)]);
/// assert!(set.contains(CoreId(0)));
/// assert!(!set.contains(CoreId(1)));
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CpuSet(u64);

impl CpuSet {
    /// Maximum number of cores a `CpuSet` can describe.
    pub const MAX_CORES: usize = 64;

    /// The empty set.
    pub fn empty() -> Self {
        Self(0)
    }

    /// A set containing exactly one core.
    ///
    /// # Panics
    ///
    /// Panics if `core.0 >= 64`.
    pub fn single(core: CoreId) -> Self {
        let mut s = Self::empty();
        s.insert(core);
        s
    }

    /// A set containing cores `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= Self::MAX_CORES, "CpuSet supports at most 64 cores");
        if n == 64 {
            Self(u64::MAX)
        } else {
            Self((1u64 << n) - 1)
        }
    }

    /// A set containing the cores in `range` (e.g. one cluster).
    pub fn from_range(range: std::ops::Range<usize>) -> Self {
        let mut s = Self::empty();
        for c in range {
            s.insert(CoreId(c));
        }
        s
    }

    /// Builds a set from an iterator of cores.
    pub fn from_cores<I: IntoIterator<Item = CoreId>>(cores: I) -> Self {
        let mut s = Self::empty();
        for c in cores {
            s.insert(c);
        }
        s
    }

    /// Adds a core to the set.
    ///
    /// # Panics
    ///
    /// Panics if `core.0 >= 64`.
    pub fn insert(&mut self, core: CoreId) {
        assert!(core.0 < Self::MAX_CORES, "core id {} out of range", core.0);
        self.0 |= 1u64 << core.0;
    }

    /// Removes a core from the set.
    pub fn remove(&mut self, core: CoreId) {
        if core.0 < Self::MAX_CORES {
            self.0 &= !(1u64 << core.0);
        }
    }

    /// `true` when `core` is a member.
    pub fn contains(&self, core: CoreId) -> bool {
        core.0 < Self::MAX_CORES && self.0 & (1u64 << core.0) != 0
    }

    /// Number of cores in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` when the set has no cores.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: CpuSet) -> CpuSet {
        CpuSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(&self, other: CpuSet) -> CpuSet {
        CpuSet(self.0 & other.0)
    }

    /// Cores in `self` but not in `other`.
    #[must_use]
    pub fn difference(&self, other: CpuSet) -> CpuSet {
        CpuSet(self.0 & !other.0)
    }

    /// `true` when the two sets share no core.
    pub fn is_disjoint(&self, other: CpuSet) -> bool {
        self.0 & other.0 == 0
    }

    /// `true` when every core of `self` is in `other`.
    pub fn is_subset(&self, other: CpuSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over member cores in ascending id order.
    pub fn iter(&self) -> CpuSetIter {
        CpuSetIter(self.0)
    }

    /// The lowest-numbered core in the set, if any.
    pub fn first(&self) -> Option<CoreId> {
        if self.0 == 0 {
            None
        } else {
            Some(CoreId(self.0.trailing_zeros() as usize))
        }
    }

    /// The raw 64-bit mask.
    pub fn bits(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", c.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<CoreId> for CpuSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        Self::from_cores(iter)
    }
}

impl Extend<CoreId> for CpuSet {
    fn extend<I: IntoIterator<Item = CoreId>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

/// Iterator over the cores of a [`CpuSet`], ascending.
#[derive(Debug, Clone)]
pub struct CpuSetIter(u64);

impl Iterator for CpuSetIter {
    type Item = CoreId;

    fn next(&mut self) -> Option<CoreId> {
        if self.0 == 0 {
            return None;
        }
        let idx = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(CoreId(idx))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CpuSetIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = CpuSet::empty();
        assert!(s.is_empty());
        s.insert(CoreId(3));
        s.insert(CoreId(7));
        assert!(s.contains(CoreId(3)));
        assert!(!s.contains(CoreId(4)));
        assert_eq!(s.len(), 2);
        s.remove(CoreId(3));
        assert!(!s.contains(CoreId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn first_n_and_range() {
        assert_eq!(CpuSet::first_n(4).len(), 4);
        assert_eq!(CpuSet::first_n(64).len(), 64);
        let cluster = CpuSet::from_range(4..8);
        assert!(cluster.contains(CoreId(4)));
        assert!(cluster.contains(CoreId(7)));
        assert!(!cluster.contains(CoreId(3)));
        assert_eq!(cluster.len(), 4);
    }

    #[test]
    fn set_algebra() {
        let a = CpuSet::from_range(0..4);
        let b = CpuSet::from_range(2..6);
        assert_eq!(a.union(b).len(), 6);
        assert_eq!(a.intersection(b).len(), 2);
        assert_eq!(a.difference(b).len(), 2);
        assert!(!a.is_disjoint(b));
        assert!(a.is_disjoint(CpuSet::from_range(4..8)));
        assert!(CpuSet::from_range(1..3).is_subset(a));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn iteration_is_ascending() {
        let s = CpuSet::from_cores([CoreId(5), CoreId(1), CoreId(3)]);
        let ids: Vec<usize> = s.iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert_eq!(s.iter().len(), 3);
        assert_eq!(s.first(), Some(CoreId(1)));
    }

    #[test]
    fn display_formats() {
        let s = CpuSet::from_cores([CoreId(0), CoreId(4)]);
        assert_eq!(s.to_string(), "{0,4}");
        assert_eq!(CpuSet::empty().to_string(), "{}");
        assert_eq!(CoreId(2).to_string(), "cpu2");
    }

    #[test]
    fn collect_from_iterator() {
        let s: CpuSet = (0..3).map(CoreId).collect();
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_core_panics() {
        let mut s = CpuSet::empty();
        s.insert(CoreId(64));
    }
}
