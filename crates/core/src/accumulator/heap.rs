//! The multiway merge under the Heap and HeapDot kernels (paper §5.5,
//! after Buluç & Gilbert's column-by-column heap SpGEMM).
//!
//! One cursor per contributing row of `B` (one per nonzero of the `A` row
//! that still has a candidate) is a leaf of a tree of losers (Knuth,
//! TAOCP Vol. 3, §5.4.1). Every internal node holds the key that lost the
//! match played there, `col << 32 | leaf`, and node 0 holds the overall
//! winner. Taking the winner repeatedly streams the multiset
//! `{B_kj | u_k ≠ 0}` in sorted column order without materializing it.
//!
//! Advancing or dropping the winner replays the one path from its leaf to
//! the root: per level one load, the `max` stays at the node and the `min`
//! travels up — no data-dependent branch and no index indirection, where
//! a binary heap's sift takes two compares and a branch per level.
//!
//! Leaves are added in `A`-row order, so the leaf half of a key breaks a
//! column's ties by `a_pos`: each column's products pop in the order MSA
//! sums them, and the heap schemes emit MSA's f64 bits.

use mspgemm_sparse::Idx;

/// A cursor into one row of `B`, tagged with the position of the `A`-row
/// nonzero that selected it (so the kernel can recover `a_ik`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cursor {
    /// Column id the cursor currently points at (the merge key).
    pub col: Idx,
    /// Index into the `A` row's nonzeros (identifies `a_ik` and `B_k*`).
    pub a_pos: u32,
    /// Offset of the *next* element within the `B` row.
    pub b_next: u32,
}

/// The key of a dropped leaf: it loses every match, and a tree whose
/// winner carries it is empty. No live key reaches it — the leaf half of
/// a live key is below the leaf count.
const EXHAUSTED: u64 = u64::MAX;

/// A tree of losers over one row's cursors, keyed by `(col, leaf)`.
pub struct LoserTree {
    /// `nodes[0]` is the winner's key; `nodes[p]` for `p` in `1..n` the
    /// loser of the match at internal node `p`, whose children are `2p`
    /// and `2p + 1` (a child `c ≥ n` is leaf `c - n`).
    nodes: Vec<u64>,
    /// Per leaf, its cursor. `col` is read only by [`LoserTree::build`];
    /// after that a leaf's column lives in its key.
    leaves: Vec<Cursor>,
}

#[inline(always)]
fn key(col: Idx, leaf: usize) -> u64 {
    (u64::from(col) << 32) | leaf as u64
}

impl LoserTree {
    /// Empty tree; capacity grows to the densest `A` row seen.
    pub fn new() -> Self {
        Self {
            nodes: vec![EXHAUSTED],
            leaves: Vec::new(),
        }
    }

    /// Remove every leaf (start of a row).
    pub fn clear(&mut self) {
        self.leaves.clear();
        self.nodes.clear();
        self.nodes.push(EXHAUSTED);
    }

    /// Add a leaf. Leaves are added in `A`-row order, then
    /// [`LoserTree::build`] plays the first tournament.
    pub fn push_leaf(&mut self, c: Cursor) {
        self.leaves.push(c);
    }

    /// Play every match bottom-up in `O(n)`, in place: a first pass
    /// leaves each internal node's winner at the node, a second, from the
    /// root down, replaces it by the loser while its children still hold
    /// their winners.
    pub fn build(&mut self) {
        let n = self.leaves.len();
        self.nodes.clear();
        self.nodes.resize(n.max(1), EXHAUSTED);
        if n == 0 {
            return;
        }
        let leaves = &self.leaves;
        let nodes = &mut self.nodes;
        let entrant = |nodes: &[u64], c: usize| {
            if c >= n {
                key(leaves[c - n].col, c - n)
            } else {
                nodes[c]
            }
        };
        for p in (1..n).rev() {
            nodes[p] = entrant(nodes, 2 * p).min(entrant(nodes, 2 * p + 1));
        }
        let winner = if n == 1 {
            key(leaves[0].col, 0)
        } else {
            nodes[1]
        };
        for p in 1..n {
            nodes[p] = entrant(nodes, 2 * p).max(entrant(nodes, 2 * p + 1));
        }
        nodes[0] = winner;
    }

    /// The winning cursor, `None` once every leaf is dropped.
    #[inline(always)]
    pub fn peek(&self) -> Option<Cursor> {
        let top = self.nodes[0];
        (top != EXHAUSTED).then(|| Cursor {
            col: (top >> 32) as Idx,
            ..self.leaves[top as u32 as usize]
        })
    }

    /// Advance the winner's leaf to `c` (same `a_pos`, a column at or
    /// past the winner's) and replay its path.
    #[inline(always)]
    pub fn replace_top(&mut self, c: Cursor) {
        let leaf = self.nodes[0] as u32 as usize;
        debug_assert_eq!(
            self.leaves[leaf].a_pos, c.a_pos,
            "advance the winner's own leaf"
        );
        self.leaves[leaf] = c;
        self.replay(leaf, key(c.col, leaf));
    }

    /// Drop the winner's leaf: it loses every later match.
    #[inline(always)]
    pub fn drop_top(&mut self) {
        let leaf = self.nodes[0] as u32 as usize;
        self.replay(leaf, EXHAUSTED);
    }

    /// Carry `key` from `leaf` to the root: each node on the path keeps
    /// the larger of its loser and the carried key and passes the smaller
    /// up; the last one standing is the new winner.
    #[inline(always)]
    fn replay(&mut self, leaf: usize, mut key: u64) {
        let mut p = (self.leaves.len() + leaf) >> 1;
        while p > 0 {
            let loser = self.nodes[p];
            self.nodes[p] = loser.max(key);
            key = loser.min(key);
            p >>= 1;
        }
        self.nodes[0] = key;
    }
}

impl Default for LoserTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cursor(col: Idx, a_pos: u32) -> Cursor {
        Cursor {
            col,
            a_pos,
            b_next: 0,
        }
    }

    fn tree_of(cols: &[Idx]) -> LoserTree {
        let mut t = LoserTree::new();
        for (i, &c) in cols.iter().enumerate() {
            t.push_leaf(cursor(c, i as u32));
        }
        t.build();
        t
    }

    /// Pop every winner, returning `(col, a_pos)` in pop order.
    fn drain(t: &mut LoserTree) -> Vec<(Idx, u32)> {
        let mut out = Vec::new();
        while let Some(top) = t.peek() {
            out.push((top.col, top.a_pos));
            t.drop_top();
        }
        out
    }

    /// Merge sorted rows through the tree the way the Heap kernel does:
    /// advance the winner in place, drop it at the end of its row.
    fn merge(rows: &[&[Idx]]) -> Vec<(Idx, u32)> {
        let mut t = LoserTree::new();
        for (r, row) in rows.iter().enumerate() {
            if let Some(&first) = row.first() {
                t.push_leaf(Cursor {
                    col: first,
                    a_pos: r as u32,
                    b_next: 1,
                });
            }
        }
        t.build();
        let mut out = Vec::new();
        while let Some(top) = t.peek() {
            out.push((top.col, top.a_pos));
            let row = rows[top.a_pos as usize];
            match row.get(top.b_next as usize) {
                Some(&col) => t.replace_top(Cursor {
                    col,
                    b_next: top.b_next + 1,
                    ..top
                }),
                None => t.drop_top(),
            }
        }
        out
    }

    #[test]
    fn ties_drain_in_col_then_a_pos_order() {
        let mut t = tree_of(&[4, 1, 4, 4, 1, 0, 4]);
        assert_eq!(
            drain(&mut t),
            vec![(0, 5), (1, 1), (1, 4), (4, 0), (4, 2), (4, 3), (4, 6)]
        );
    }

    #[test]
    fn every_leaf_count_drains_sorted() {
        // 0, 1, 2, powers of two and everything between: the implicit
        // tree is valid for any count, with leaves on two levels.
        for n in 0..=17usize {
            let cols: Vec<Idx> = (0..n).map(|i| ((i * 7 + 3) % 5) as Idx).collect();
            let mut expect: Vec<(Idx, u32)> = cols
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i as u32))
                .collect();
            expect.sort_unstable();
            assert_eq!(drain(&mut tree_of(&cols)), expect, "{n} leaves");
        }
    }

    #[test]
    fn merge_advances_in_place_and_orders_ties_by_a_pos() {
        let rows: [&[Idx]; 4] = [&[1, 4, 7], &[2, 3, 9], &[], &[1, 7, 9]];
        assert_eq!(
            merge(&rows),
            vec![
                (1, 0),
                (1, 3),
                (2, 1),
                (3, 1),
                (4, 0),
                (7, 0),
                (7, 3),
                (9, 1),
                (9, 3)
            ]
        );
    }

    #[test]
    fn a_dropped_leaf_never_resurfaces() {
        let mut t = tree_of(&[2, 5, 8]);
        assert_eq!(t.peek().map(|c| c.a_pos), Some(0));
        t.drop_top();
        // Leaf 0 held the smallest key; now its sentinel must lose to
        // every advance of the others, however far they move.
        let mut seen = Vec::new();
        while let Some(top) = t.peek() {
            assert_ne!(top.a_pos, 0, "dropped leaf came back");
            seen.push(top.col);
            if top.col < 100 {
                t.replace_top(Cursor {
                    col: top.col + 40,
                    ..top
                });
            } else {
                t.drop_top();
            }
        }
        assert_eq!(seen, vec![5, 8, 45, 48, 85, 88, 125, 128]);
    }

    #[test]
    fn replace_top_after_neighbours_are_exhausted() {
        // Leaves 0 and 2 finish first; the last one keeps advancing alone
        // through a path of dropped opponents.
        let rows: [&[Idx]; 3] = [&[0], &[1, 5, 6, 9], &[2]];
        assert_eq!(
            merge(&rows),
            vec![(0, 0), (1, 1), (2, 2), (5, 1), (6, 1), (9, 1)]
        );
        let mut t = tree_of(&[3]);
        t.replace_top(cursor(7, 0));
        assert_eq!(t.peek(), Some(cursor(7, 0)));
        t.drop_top();
        assert_eq!(t.peek(), None);
    }

    #[test]
    fn clear_resets() {
        let mut t = tree_of(&[3, 1]);
        t.clear();
        assert_eq!(t.peek(), None);
        t.build();
        assert_eq!(t.peek(), None);
        t.push_leaf(cursor(9, 4));
        t.build();
        assert_eq!(drain(&mut t), vec![(9, 4)]);
    }
}
