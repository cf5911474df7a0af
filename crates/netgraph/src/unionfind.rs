//! Disjoint-set forest (union–find) with union by rank and path compression.

/// A union–find structure over `0..n` elements.
///
/// Used by Kruskal's MST and by connectivity checks during topology
/// generation.
///
/// ```
/// use netgraph::UnionFind;
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(uf.union(2, 3));
/// assert!(!uf.union(1, 0)); // already joined
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(0, 2));
/// assert_eq!(uf.set_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Resets to `n` singleton sets, exactly as [`UnionFind::new`]
    /// builds them, keeping the allocations: a union–find rebuilt once
    /// per candidate costs no allocation once it has grown to size.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.sets = n;
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Finds the representative of `x`'s set, compressing paths.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: usize) -> usize {
        assert!(x < self.parent.len(), "element {x} out of range");
        let mut root = x;
        while let Some(&p) = self.parent.get(root) {
            if p as usize == root {
                break;
            }
            root = p as usize;
        }
        // Path compression pass.
        let mut cur = x;
        while let Some(p) = self.parent.get_mut(cur) {
            let next = *p as usize;
            if next == cur {
                break;
            }
            *p = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`.
    ///
    /// Returns `true` if the sets were distinct (a merge happened).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.sets -= 1;
        // `find` returned in-range roots, so the lookups below never miss.
        let rank_a = self.rank.get(ra).copied().unwrap_or(0);
        let rank_b = self.rank.get(rb).copied().unwrap_or(0);
        let (child, root) = match rank_a.cmp(&rank_b) {
            std::cmp::Ordering::Less => (ra, rb),
            std::cmp::Ordering::Greater => (rb, ra),
            std::cmp::Ordering::Equal => {
                if let Some(r) = self.rank.get_mut(ra) {
                    *r += 1;
                }
                (rb, ra)
            }
        };
        if let Some(p) = self.parent.get_mut(child) {
            *p = root as u32;
        }
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.set_count(), 3);
        assert_eq!(uf.len(), 3);
        assert!(!uf.is_empty());
        for i in 0..3 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_reduces_set_count() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert_eq!(uf.set_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 4));
    }

    #[test]
    fn union_is_idempotent() {
        let mut uf = UnionFind::new(2);
        assert!(uf.union(0, 1));
        assert!(!uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.set_count(), 1);
    }

    #[test]
    fn chain_compresses() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.set_count(), 1);
        let r = uf.find(0);
        for i in 0..100 {
            assert_eq!(uf.find(i), r);
        }
    }

    #[test]
    fn reset_is_a_fresh_structure() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        // Shrinking, same-size and growing resets all equal `new`: every
        // element is its own set again, and later unions pick the same
        // roots a fresh structure picks.
        for n in [4, 4, 9, 0, 3] {
            uf.reset(n);
            let mut fresh = UnionFind::new(n);
            assert_eq!(uf.len(), n);
            assert_eq!(uf.set_count(), n);
            for i in 0..n {
                assert_eq!(uf.find(i), i);
            }
            for i in 1..n {
                assert_eq!(uf.union(i, i - 1), fresh.union(i, i - 1));
                assert_eq!(uf.find(0), fresh.find(0));
            }
            assert_eq!(uf.set_count(), fresh.set_count());
        }
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.set_count(), 0);
    }
}
