//! Differential proptests for the delta-COO overlay: for any op schedule
//! — folded batch by batch into a running matrix, or absorbed whole — the
//! merged view must be structurally identical (and fingerprint-identical)
//! to a from-scratch rebuild of the final entry set.

use mspgemm_harness::csr_fingerprint;
use mspgemm_sparse::overlay::{DeltaOp, Overlay};
use mspgemm_sparse::{Coo, Csr, Idx};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The independent model: a plain sorted map of final entries.
type Model = BTreeMap<(Idx, Idx), f64>;

fn rebuild(nrows: usize, ncols: usize, model: &Model) -> Csr<f64> {
    let mut coo = Coo::with_capacity(nrows, ncols, model.len());
    for (&(i, j), &v) in model {
        coo.push(i, j, v);
    }
    coo.to_csr(|x, _| x)
}

fn assert_differential(merged: &Csr<f64>, rebuilt: &Csr<f64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(merged, rebuilt);
    prop_assert_eq!(csr_fingerprint(merged), csr_fingerprint(rebuilt));
    prop_assert!(!merged.has_shared_storage());
    Ok(())
}

/// Apply one op to both the overlay and the model.
fn mirror(ov: &mut Overlay<f64>, model: &mut Model, op: DeltaOp<f64>) {
    ov.apply(op).expect("in-bounds op");
    match op {
        DeltaOp::Upsert { row, col, val } => {
            model.insert((row, col), val);
        }
        DeltaOp::Delete { row, col } => {
            model.remove(&(row, col));
        }
    }
}

fn base_strategy(n: usize, fill: f64) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::weighted(fill, -4i32..=4), n),
        n,
    )
    .prop_map(move |d| {
        let dd: Vec<Vec<Option<f64>>> = d
            .into_iter()
            .map(|r| r.into_iter().map(|c| c.map(f64::from)).collect())
            .collect();
        Csr::from_dense(&dd, n)
    })
}

/// Tiny xorshift64* so op schedules derive from one scalar seed (the
/// compat proptest shim has no tuple or one-of strategies).
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    s.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// A random in-bounds op for an `n × n` matrix: ~60% upserts, 40% deletes.
fn random_op(s: &mut u64, n: usize) -> DeltaOp<f64> {
    let r = next(s);
    let i = ((r >> 8) % n as u64) as Idx;
    let j = ((r >> 24) % n as u64) as Idx;
    if r % 5 < 3 {
        DeltaOp::Upsert {
            row: i,
            col: j,
            val: ((r >> 40) % 19) as f64 - 9.0,
        }
    } else {
        DeltaOp::Delete { row: i, col: j }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The `update` verb's composition: a fresh overlay per batch merged
    /// into the running matrix ≡ one overlay absorbing every batch, merged
    /// once against the original ≡ a from-scratch rebuild of the model.
    /// Batch boundaries are random; the schedule always carries a position
    /// upserted in one batch and deleted in the next, and a delete of a
    /// base edge.
    #[test]
    fn per_batch_fold_matches_single_overlay_and_rebuild(
        base in base_strategy(14, 0.3),
        seed in 0u64..1_000_000,
        nbatches in 3usize..12,
    ) {
        let n = 14;
        let mut s = seed | 1;
        let mut batches: Vec<Vec<DeltaOp<f64>>> = (0..nbatches)
            .map(|_| {
                let len = 1 + (next(&mut s) % 6) as usize;
                (0..len).map(|_| random_op(&mut s, n)).collect()
            })
            .collect();
        let k = (next(&mut s) % (nbatches as u64 - 1)) as usize;
        let (row, col) = random_op(&mut s, n).key();
        batches[k].push(DeltaOp::Upsert { row, col, val: 5.0 });
        batches[k + 1].insert(0, DeltaOp::Delete { row, col });
        if let Some((i, j, _)) = base.iter().nth((next(&mut s) % 8) as usize) {
            let at = (next(&mut s) % nbatches as u64) as usize;
            batches[at].push(DeltaOp::Delete { row: i as Idx, col: j });
        }

        let mut model: Model = base.iter().map(|(i, j, &v)| ((i as Idx, j), v)).collect();
        let mut running = base.clone();
        let mut whole = Overlay::new(n, n);
        for batch in &batches {
            let mut fresh = Overlay::new(n, n);
            fresh.apply_batch(batch).expect("in-bounds batch");
            running = fresh.merged(running.view());
            for &op in batch {
                mirror(&mut whole, &mut model, op);
            }
            assert_differential(&running, &rebuild(n, n, &model))?;
        }
        assert_differential(&whole.merged(base.view()), &running)?;
    }

    /// Insert-then-delete of the same position always ends absent, and
    /// collapses to one pending slot.
    #[test]
    fn insert_then_delete_same_edge(
        base in base_strategy(10, 0.3),
        i in 0u32..10,
        j in 0u32..10,
        v in -9i32..=9,
    ) {
        let mut ov = Overlay::new(10, 10);
        ov.apply(DeltaOp::Upsert { row: i, col: j, val: f64::from(v) }).unwrap();
        ov.apply(DeltaOp::Delete { row: i, col: j }).unwrap();
        prop_assert_eq!(ov.delta_nnz(), 1);
        let mut model: Model = base.iter().map(|(r, c, &x)| ((r as Idx, c), x)).collect();
        model.remove(&(i, j));
        assert_differential(&ov.merged(base.view()), &rebuild(10, 10, &model))?;
    }

    /// Duplicate upserts: last value wins, one pending slot.
    #[test]
    fn duplicate_inserts_last_write_wins(
        base in base_strategy(10, 0.3),
        i in 0u32..10,
        j in 0u32..10,
        vals in proptest::collection::vec(-9i32..=9, 2usize..6),
    ) {
        let mut ov = Overlay::new(10, 10);
        for &v in &vals {
            ov.apply(DeltaOp::Upsert { row: i, col: j, val: f64::from(v) }).unwrap();
        }
        prop_assert_eq!(ov.delta_nnz(), 1);
        let mut model: Model = base.iter().map(|(r, c, &x)| ((r as Idx, c), x)).collect();
        model.insert((i, j), f64::from(*vals.last().unwrap()));
        assert_differential(&ov.merged(base.view()), &rebuild(10, 10, &model))?;
    }

    /// Deletes of absent entries never change the merged view.
    #[test]
    fn deletes_of_absent_edges_are_noops(
        base in base_strategy(12, 0.25),
        seed in 0u64..1_000_000,
        count in 1usize..20,
    ) {
        let mut ov = Overlay::new(12, 12);
        let model: Model = base.iter().map(|(r, c, &x)| ((r as Idx, c), x)).collect();
        let mut s = seed | 1;
        for _ in 0..count {
            let r = next(&mut s);
            let (i, j) = (((r >> 8) % 12) as Idx, ((r >> 24) % 12) as Idx);
            if model.contains_key(&(i, j)) {
                continue; // only exercise absent positions here
            }
            ov.apply(DeltaOp::Delete { row: i, col: j }).unwrap();
        }
        assert_differential(&ov.merged(base.view()), &rebuild(12, 12, &model))?;
    }

    /// Batches that touch only the hub rows of a skewed R-MAT: the merge
    /// fast-path (wholesale row copies) must coexist with dense touched
    /// rows.
    #[test]
    fn hub_row_batches_on_skewed_rmat(
        seed in 0u64..500,
        ops_per_hub in 1usize..8,
    ) {
        let params = mspgemm_gen::RmatParams { a: 0.7, b: 0.15, c: 0.1, edge_factor: 8 };
        let g = mspgemm_gen::rmat_symmetric(6, params, seed ^ 0x9e37);
        let n = g.nrows();
        // Hubs: the 4 highest-degree rows.
        let mut by_deg: Vec<usize> = (0..n).collect();
        by_deg.sort_by_key(|&i| std::cmp::Reverse(g.row_nnz(i)));
        let hubs: Vec<usize> = by_deg.into_iter().take(4).collect();
        let mut ov = Overlay::new(n, n);
        let mut model: Model = g.iter().map(|(r, c, &x)| ((r as Idx, c), x)).collect();
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for &h in &hubs {
            for _ in 0..ops_per_hub {
                let r = next(&mut s);
                let j = ((r >> 16) % n as u64) as Idx;
                let op = if r & 1 == 0 {
                    DeltaOp::Upsert { row: h as Idx, col: j, val: (r % 7) as f64 }
                } else {
                    DeltaOp::Delete { row: h as Idx, col: j }
                };
                mirror(&mut ov, &mut model, op);
            }
        }
        assert_differential(&ov.merged(g.view()), &rebuild(n, n, &model))?;
    }
}
