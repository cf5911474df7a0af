//! An indexed 4-ary min-heap keyed by `(cost, node)`.
//!
//! The single-source Dijkstra kernel and the multi-source Voronoi sweep
//! queue nodes here. [`IndexedQuadHeap`] keeps at most one entry per
//! node (`decrease-key` instead of the lazy-deletion re-push of
//! `std::collections::BinaryHeap`), so it never holds more than `n`
//! entries.
//!
//! Layout: two flat arrays reused across runs. `heap` holds the
//! `(key, node)` entries themselves, 16 bytes each, so a comparison reads
//! both keys from the array it is already walking; `pos[v]` is the slot
//! of `v` in `heap`. The 4-ary shape makes sift-down read the four
//! children of a slot from one contiguous 64-byte run.
//!
//! Determinism: entries are ordered by `(key, node)` lexicographically,
//! which is exactly the order `BinaryHeap<Reverse<(TotalCost, NodeId)>>`
//! pops non-stale entries in. Keys are checked for NaN once, on push, so
//! plain `<`/`==` on them is that total order. Any correct indexed heap
//! under this order pops the same sequence, which is why Dijkstra's
//! distances and predecessors do not depend on the heap's internals.

use crate::NodeId;

/// Sentinel for "node not currently on the heap".
const ABSENT: u32 = u32::MAX;

/// One queued node with its current key.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: f64,
    node: NodeId,
}

impl Entry {
    /// Strict `(key, node)` order. Keys are never NaN (checked on push),
    /// so this agrees with `(TotalCost::new(key), node)`.
    #[inline]
    fn precedes(self, other: Entry) -> bool {
        self.key < other.key || (self.key == other.key && self.node < other.node)
    }
}

/// An indexed 4-ary min-heap over nodes with `f64` keys.
///
/// Designed for repeated shortest-path runs: [`IndexedQuadHeap::reset`]
/// re-initializes the position table without releasing any capacity, so
/// runs after the first perform no allocations.
#[derive(Debug, Clone, Default)]
pub struct IndexedQuadHeap {
    /// Heap order: `heap[0]` is the minimum.
    heap: Vec<Entry>,
    /// `pos[v]` = index of `v` in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl IndexedQuadHeap {
    /// Creates an empty heap; arrays grow on first [`reset`](Self::reset).
    #[must_use]
    pub fn new() -> Self {
        IndexedQuadHeap::default()
    }

    /// Clears the heap and sizes it for nodes `0..n`.
    pub fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.pos.clear();
        self.pos.resize(n, ABSENT);
    }

    /// Returns `true` if no node is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of queued nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Inserts `node` with `key`, or decreases its key if already queued
    /// with a larger one. Keys never increase (Dijkstra only relaxes
    /// downward); a call with a key ≥ the current one is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN, or if `node` is outside the range given to
    /// the last [`reset`](Self::reset).
    pub fn push_or_decrease(&mut self, node: NodeId, key: f64) {
        assert!(!key.is_nan(), "cost must not be NaN");
        let entry = Entry { key, node };
        match self.pos[node.index()] {
            ABSENT => {
                let slot = self.heap.len();
                self.heap.push(entry);
                self.sift_up(slot, entry);
            }
            slot => {
                let slot = slot as usize;
                if self.heap.get(slot).is_some_and(|e| key < e.key) {
                    telemetry::hit(telemetry::Counter::HeapDecreaseKeys);
                    self.sift_up(slot, entry);
                }
            }
        }
    }

    /// Removes and returns the minimum `(key, node)` entry, ties broken
    /// by the smaller node id.
    pub fn pop(&mut self) -> Option<(f64, NodeId)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&top) => {
                self.sift_down(0, last);
                top
            }
            None => last,
        };
        if let Some(p) = self.pos.get_mut(top.node.index()) {
            *p = ABSENT;
        }
        Some((top.key, top.node))
    }

    /// Writes `entry` into `slot` and records the slot in `pos`.
    #[inline]
    fn place(&mut self, slot: usize, entry: Entry) {
        if let Some(h) = self.heap.get_mut(slot) {
            *h = entry;
        }
        if let Some(p) = self.pos.get_mut(entry.node.index()) {
            *p = slot as u32;
        }
    }

    /// Moves the hole at `slot` up until `entry` fits, then fills it.
    fn sift_up(&mut self, mut slot: usize, entry: Entry) {
        while slot > 0 {
            let parent = (slot - 1) / 4;
            let Some(&above) = self.heap.get(parent) else {
                break;
            };
            if !entry.precedes(above) {
                break;
            }
            self.place(slot, above);
            slot = parent;
        }
        self.place(slot, entry);
    }

    /// Moves the hole at `slot` down until `entry` fits, then fills it.
    fn sift_down(&mut self, mut slot: usize, entry: Entry) {
        loop {
            let first = 4 * slot + 1;
            let end = (first + 4).min(self.heap.len());
            let Some(children) = self.heap.get(first..end) else {
                break;
            };
            let best =
                children
                    .iter()
                    .copied()
                    .enumerate()
                    .reduce(|a, b| if b.1.precedes(a.1) { b } else { a });
            let Some((offset, child)) = best else {
                break;
            };
            if !child.precedes(entry) {
                break;
            }
            self.place(slot, child);
            slot = first + offset;
        }
        self.place(slot, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TotalCost;

    #[test]
    fn pops_in_key_order() {
        let mut h = IndexedQuadHeap::new();
        h.reset(10);
        for (n, k) in [(3usize, 5.0), (1, 2.0), (7, 9.0), (4, 1.0), (9, 4.0)] {
            h.push_or_decrease(NodeId::new(n), k);
        }
        let mut out = Vec::new();
        while let Some((k, n)) = h.pop() {
            out.push((k, n.index()));
        }
        assert_eq!(out, vec![(1.0, 4), (2.0, 1), (4.0, 9), (5.0, 3), (9.0, 7)]);
    }

    #[test]
    fn ties_break_by_node_id() {
        let mut h = IndexedQuadHeap::new();
        h.reset(6);
        for n in [5usize, 2, 4, 0, 3] {
            h.push_or_decrease(NodeId::new(n), 7.0);
        }
        let order: Vec<usize> = std::iter::from_fn(|| h.pop())
            .map(|(_, n)| n.index())
            .collect();
        assert_eq!(order, vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = IndexedQuadHeap::new();
        h.reset(4);
        h.push_or_decrease(NodeId::new(0), 10.0);
        h.push_or_decrease(NodeId::new(1), 5.0);
        h.push_or_decrease(NodeId::new(2), 8.0);
        assert_eq!(h.len(), 3);
        h.push_or_decrease(NodeId::new(0), 1.0); // decrease
        h.push_or_decrease(NodeId::new(2), 9.0); // ignored (not a decrease)
        let order: Vec<(f64, usize)> = std::iter::from_fn(|| h.pop())
            .map(|(k, n)| (k, n.index()))
            .collect();
        assert_eq!(order, vec![(1.0, 0), (5.0, 1), (8.0, 2)]);
    }

    #[test]
    fn reset_recycles_without_stale_state() {
        let mut h = IndexedQuadHeap::new();
        h.reset(3);
        h.push_or_decrease(NodeId::new(2), 4.0);
        let _ = h.pop();
        h.reset(5);
        assert!(h.is_empty());
        h.push_or_decrease(NodeId::new(2), 6.0);
        assert_eq!(h.pop(), Some((6.0, NodeId::new(2))));
        assert_eq!(h.pop(), None);
    }

    #[test]
    #[should_panic(expected = "cost must not be NaN")]
    fn nan_key_panics_on_push() {
        let mut h = IndexedQuadHeap::new();
        h.reset(2);
        h.push_or_decrease(NodeId::new(0), 1.0);
        h.push_or_decrease(NodeId::new(0), f64::NAN);
    }

    #[test]
    fn matches_a_sorted_reference_on_a_big_mixed_run() {
        // Deterministic pseudo-random keys; includes duplicates.
        let n = 500usize;
        let mut h = IndexedQuadHeap::new();
        h.reset(n);
        let mut expect: Vec<(TotalCost, usize)> = Vec::new();
        let mut x = 0x12345678u64;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = ((x >> 33) % 97) as f64;
            h.push_or_decrease(NodeId::new(i), k);
            expect.push((TotalCost::new(k), i));
        }
        expect.sort();
        let got: Vec<(TotalCost, usize)> = std::iter::from_fn(|| h.pop())
            .map(|(k, v)| (TotalCost::new(k), v.index()))
            .collect();
        assert_eq!(got, expect);
    }
}
