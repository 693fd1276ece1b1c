//! The sorted generation-0 ID index shared by every DHT substrate.
//!
//! Resolving a pseudo-random holder address to the XOR-closest node is
//! the innermost loop of path construction; at the paper's 10 000-node
//! scale a linear selection costs ~200 µs per address and dominated the
//! full overlay's Monte-Carlo trials. This index keeps `(id, slot)` pairs
//! in ascending ID order and resolves by descending the implicit binary
//! trie over that order — `O(log² n)` per query, identical output to the
//! brute-force XOR sort (pinned by the analytic substrate's tests and the
//! overlay/analytic parity suites).
//!
//! [`crate::analytic::AnalyticSubstrate`] builds one at construction;
//! [`crate::overlay::Overlay`] additionally mutates it when a node
//! [`join`](crate::overlay::Overlay::join)s (the "lookup invalidation"
//! the lazy world-build needs — joins extend the ID space, so the index
//! learns the newcomer immediately; `leave` marks a death but never
//! changes generation-0 responsibility, so it needs no index update).

use crate::id::{NodeId, ID_BITS};

/// `(id, slot)` pairs in ascending ID order, with closest-slot queries.
#[derive(Debug, Clone, Default)]
pub struct SortedIdIndex {
    sorted: Vec<(NodeId, u32)>,
}

impl SortedIdIndex {
    /// Builds the index over `ids`, where position `i` is slot `i`.
    pub fn build(ids: &[NodeId]) -> Self {
        let mut index = SortedIdIndex::default();
        index.rebuild(ids, &mut Vec::new());
        index
    }

    /// Rebuilds the index over `ids` in place, reusing the previous
    /// index's storage and the caller's `scratch` (which ends up holding
    /// bucket ends): a warm rebuild performs no heap allocation.
    ///
    /// A counting sort: each ID is scattered to the bucket named by its
    /// top `⌈log₂ n⌉` bits, then each bucket is sorted by full
    /// `(id, slot)`. Random IDs leave about one entry per bucket, so the
    /// build is linear; clustered IDs degrade it to one `O(n log n)`
    /// sort. Buckets are ordered by prefix, so the result is exactly the
    /// plain `(id, slot)` sort, and every resolution built on it is
    /// unchanged.
    pub fn rebuild(&mut self, ids: &[NodeId], scratch: &mut Vec<u32>) {
        let bits = usize::BITS - ids.len().saturating_sub(1).leading_zeros();
        let bucket = |id: &NodeId| prefix64(id).checked_shr(64 - bits).unwrap_or(0) as usize;

        let cursors = scratch;
        cursors.clear();
        cursors.resize(1 << bits, 0);
        for id in ids {
            cursors[bucket(id)] += 1;
        }
        // Exclusive prefix sums: each cursor starts at its bucket's start.
        let mut start = 0;
        for cursor in cursors.iter_mut() {
            let count = *cursor;
            *cursor = start;
            start += count;
        }
        self.sorted.clear();
        self.sorted.resize(ids.len(), (NodeId::ZERO, 0));
        for (id, slot) in ids.iter().zip(0..) {
            let cursor = &mut cursors[bucket(id)];
            self.sorted[*cursor as usize] = (*id, slot);
            *cursor += 1;
        }
        // Each cursor now marks its bucket's end.
        let mut start = 0;
        for &end in cursors.iter() {
            self.sorted[start..end as usize].sort_unstable();
            start = end as usize;
        }
    }

    /// Number of indexed IDs.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `(id, slot)` pairs in ascending ID order — for consumers that
    /// need a sorted walk of the ID space (e.g. the overlay's
    /// prefix-range routing-table construction) without re-sorting what
    /// the index already maintains.
    pub fn entries(&self) -> &[(NodeId, u32)] {
        &self.sorted
    }

    /// Registers a newly joined `slot` under `id`, keeping the order
    /// invariant (binary-search insert).
    pub fn insert(&mut self, id: NodeId, slot: usize) {
        let pos = self
            .sorted
            .partition_point(|(i, s)| (*i, *s) < (id, slot as u32));
        self.sorted.insert(pos, (id, slot as u32));
    }

    /// The `count` slots whose IDs are XOR-closest to `target`, closest
    /// first — identical output to brute-force XOR sorting, computed by
    /// descending the implicit binary trie over the sorted order.
    pub fn closest_slots(&self, target: &NodeId, count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(count.min(self.sorted.len()));
        self.visit_closest(0, self.sorted.len(), 0, target, count, &mut out);
        out
    }

    /// The slot responsible for `target` (XOR-closest ID).
    ///
    /// Allocation-free specialization of `closest_slots(target, 1)`: the
    /// single closest ID never requires visiting a sibling subtree, so
    /// the descent keeps narrowing one range — choosing the target-side
    /// half whenever it is non-empty — until a leaf remains. Identical
    /// result to the general traversal (on duplicate-ID leaves both
    /// return the first slot in sorted order).
    ///
    /// # Panics
    ///
    /// Panics if the index is empty.
    pub fn resolve(&self, target: &NodeId) -> usize {
        let (mut lo, mut hi) = (0usize, self.sorted.len());
        let mut bit = 0usize;
        while hi - lo > 1 && bit < ID_BITS {
            let split = lo + self.sorted[lo..hi].partition_point(|(id, _)| !id.bit(bit));
            if target.bit(bit) {
                if split < hi {
                    lo = split;
                } else {
                    hi = split;
                }
            } else if split > lo {
                hi = split;
            } else {
                lo = split;
            }
            bit += 1;
        }
        self.sorted[lo].1 as usize
    }

    /// In-order traversal of the ID trie, target-side subtree first: every
    /// ID in the subtree sharing `target`'s bit at the split level is
    /// XOR-closer than any ID in the sibling subtree, so appending in
    /// visit order enumerates slots in increasing XOR distance.
    fn visit_closest(
        &self,
        lo: usize,
        hi: usize,
        bit: usize,
        target: &NodeId,
        count: usize,
        out: &mut Vec<usize>,
    ) {
        if lo >= hi || out.len() >= count {
            return;
        }
        if hi - lo == 1 || bit >= ID_BITS {
            // Leaf range: a multi-element range at bit 160 means duplicate
            // IDs — append in sorted order, matching a stable XOR sort.
            for &(_, slot) in &self.sorted[lo..hi] {
                if out.len() >= count {
                    return;
                }
                out.push(slot as usize);
            }
            return;
        }
        let split = lo + self.sorted[lo..hi].partition_point(|(id, _)| !id.bit(bit));
        if target.bit(bit) {
            self.visit_closest(split, hi, bit + 1, target, count, out);
            self.visit_closest(lo, split, bit + 1, target, count, out);
        } else {
            self.visit_closest(lo, split, bit + 1, target, count, out);
            self.visit_closest(split, hi, bit + 1, target, count, out);
        }
    }
}

/// The top 64 bits of `id`.
fn prefix64(id: &NodeId) -> u64 {
    let [a, b, c, d, e, f, g, h, ..] = id.0;
    u64::from_be_bytes([a, b, c, d, e, f, g, h])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{sort_by_distance, ID_LEN};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_ids(n: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| NodeId::random(&mut rng)).collect()
    }

    #[test]
    fn closest_matches_brute_force() {
        let ids = random_ids(257, 3);
        let index = SortedIdIndex::build(&ids);
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..40 {
            let target = if i % 4 == 0 {
                ids[i * 5 % ids.len()]
            } else {
                NodeId::random(&mut rng)
            };
            let got = index.closest_slots(&target, 9);
            let mut expect = ids.clone();
            sort_by_distance(&mut expect, &target);
            for (rank, slot) in got.iter().enumerate() {
                assert_eq!(ids[*slot], expect[rank], "rank {rank}");
            }
            assert_eq!(index.resolve(&target), got[0]);
        }
    }

    #[test]
    fn insert_keeps_resolution_exact() {
        let mut ids = random_ids(64, 5);
        let mut index = SortedIdIndex::build(&ids);
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..32 {
            let id = NodeId::random(&mut rng);
            index.insert(id, ids.len());
            ids.push(id);
            let target = NodeId::random(&mut rng);
            let got = index.closest_slots(&target, 5);
            let mut expect = ids.clone();
            sort_by_distance(&mut expect, &target);
            for (rank, slot) in got.iter().enumerate() {
                assert_eq!(ids[*slot], expect[rank]);
            }
        }
        assert_eq!(index.len(), 96);
    }

    /// The comparison sort this index used before the counting sort,
    /// kept here as an oracle: `(prefix, id, slot)` tuples, unstable sort.
    fn decorated_sort(ids: &[NodeId]) -> Vec<(NodeId, u32)> {
        let mut decorated: Vec<(u64, NodeId, u32)> = ids
            .iter()
            .enumerate()
            .map(|(slot, id)| (prefix64(id), *id, slot as u32))
            .collect();
        decorated.sort_unstable();
        decorated
            .into_iter()
            .map(|(_, id, slot)| (id, slot))
            .collect()
    }

    /// Every slot by brute-force XOR distance to `target`, ties by slot.
    fn brute_force(ids: &[NodeId], target: &NodeId) -> Vec<usize> {
        let mut slots: Vec<usize> = (0..ids.len()).collect();
        slots.sort_by_key(|&s| (ids[s].distance(target), s));
        slots
    }

    /// IDs of one adversarial shape: 0 uniform, 1 drawn from a small
    /// pool (duplicates), 2 sharing their top 64 bits, 3 sharing their
    /// top 60 bits with only two distinct low bytes (big buckets, ties).
    fn shaped_ids(shape: usize, n: usize, rng: &mut StdRng) -> Vec<NodeId> {
        let pool: Vec<NodeId> = (0..n / 3 + 1).map(|_| NodeId::random(rng)).collect();
        let shared = NodeId::random(rng);
        (0..n)
            .map(|_| {
                let mut id = NodeId::random(rng);
                match shape {
                    1 => id = pool[rng.gen_range(0..pool.len())],
                    2 => id.0[..8].copy_from_slice(&shared.0[..8]),
                    3 => {
                        id.0[..7].copy_from_slice(&shared.0[..7]);
                        id.0[7] = (shared.0[7] & 0xF0) | (id.0[7] & 0x0F);
                        id.0[8..].fill(0);
                        id.0[ID_LEN - 1] = rng.gen_range(0..2);
                    }
                    _ => {}
                }
                id
            })
            .collect()
    }

    fn assert_exact(index: &SortedIdIndex, ids: &[NodeId], rng: &mut StdRng) {
        assert_eq!(index.entries(), decorated_sort(ids).as_slice());
        let mut targets: Vec<NodeId> = (0..4).map(|_| NodeId::random(rng)).collect();
        targets.push(ids[rng.gen_range(0..ids.len())]);
        for target in &targets {
            let expect = brute_force(ids, target);
            assert_eq!(index.closest_slots(target, ids.len()), expect);
            assert_eq!(index.resolve(target), expect[0]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn counting_sort_equals_decorated_and_brute_force_sorts(
            seed: u64,
            shape in 0usize..4,
            size in 0usize..10,
            next_size in 0usize..10,
        ) {
            const SIZES: [usize; 10] = [1, 2, 3, 4, 5, 16, 17, 64, 65, 257];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ids = shaped_ids(shape, SIZES[size], &mut rng);
            let mut index = SortedIdIndex::build(&ids);
            assert_exact(&index, &ids, &mut rng);

            // Joins after the build keep the order exact.
            for id in shaped_ids(shape, 3, &mut rng) {
                index.insert(id, ids.len());
                ids.push(id);
            }
            assert_exact(&index, &ids, &mut rng);

            // A warm rebuild over a world of another size, with a dirty
            // scratch.
            let ids = shaped_ids(shape, SIZES[next_size], &mut rng);
            index.rebuild(&ids, &mut vec![u32::MAX; SIZES[size]]);
            assert_exact(&index, &ids, &mut rng);
        }
    }

    #[test]
    fn edge_counts() {
        let ids = random_ids(16, 7);
        let index = SortedIdIndex::build(&ids);
        let target = NodeId::from_name(b"x");
        assert!(index.closest_slots(&target, 0).is_empty());
        assert_eq!(index.closest_slots(&target, 16).len(), 16);
        assert_eq!(index.closest_slots(&target, 100).len(), 16);
        assert!(!index.is_empty());
    }
}
