//! The hash accumulator's cluster probe and the push drives' software
//! prefetch — the two places the kernels step below plain Rust loops.
//!
//! * **Hash probing** — `hash_probe` compares 4 consecutive table keys
//!   per step against the probe key and EMPTY (paper §5.3's linear probe,
//!   one movemask per cluster instead of one branch per slot) and keeps
//!   probe order, so it returns the slot `hash_probe_scalar` returns. The
//!   compare is SSE2, the x86_64 baseline: compiled there, the scalar
//!   walk elsewhere, nothing to detect or dispatch. Complement-mode
//!   tables, where it measured slower, use the scalar walk
//!   (`docs/DECISIONS.md`).
//! * **Software prefetch** — [`prefetch_read`] for the push drives' B-row
//!   gather stream: the rows ahead are known from `A`'s row, so the
//!   misses of row `k+d` hide behind the arithmetic of row `k`.

use mspgemm_sparse::Idx;

/// The hash table's EMPTY key sentinel (matches `accumulator::hash`).
const EMPTY: Idx = Idx::MAX;

/// The probe path this build compiled (`sse2` on x86_64, `scalar`
/// elsewhere) — what `mxm run`, `ping`/`stats` and suite reports print.
#[cfg(target_arch = "x86_64")]
pub const COMPILED_PATH: &str = "sse2";
#[cfg(not(target_arch = "x86_64"))]
pub const COMPILED_PATH: &str = "scalar";

/// Whether the push drives emit software prefetches: where
/// [`prefetch_read`] is an instruction rather than a no-op.
pub const PREFETCH: bool = cfg!(target_arch = "x86_64");

/// Prefetch the cache line holding `p` for reading (T0 hint; no-op off
/// x86_64). The address need not be dereferenceable — prefetch never
/// faults — but callers keep it in-bounds so the hint is useful.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is architecturally a hint; it cannot fault
    // and has no observable effect on program state.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// How many `A`-row entries ahead the push kernels prefetch the *row
/// pointer* of the upcoming B row (the first-level miss).
pub const PREFETCH_PTR_DIST: usize = 8;
/// How many entries ahead they prefetch the B row's *column/value data*
/// (its rowptr entry is resident thanks to [`PREFETCH_PTR_DIST`]).
pub const PREFETCH_ROW_DIST: usize = 2;

/// Prefetch `b`'s rowptr entry for row `k` — issued
/// [`PREFETCH_PTR_DIST`] iterations ahead of use.
#[inline(always)]
pub fn prefetch_b_rowptr<T>(b: &mspgemm_sparse::CsrRef<'_, T>, k: usize) {
    prefetch_read(&b.rowptr()[k]);
}

/// Prefetch the head of `b`'s row `k` data (column indices and values) —
/// issued [`PREFETCH_ROW_DIST`] iterations ahead, after the rowptr
/// prefetch has landed.
#[inline(always)]
pub fn prefetch_b_row<T>(b: &mspgemm_sparse::CsrRef<'_, T>, k: usize) {
    let start = b.rowptr()[k];
    if start < b.colidx().len() {
        prefetch_read(&b.colidx()[start]);
        prefetch_read(&b.values()[start]);
    }
}

/// The reference probe, one slot per step: the first slot in probe order
/// (starting at `start`, wrapping at `cap`) whose key is `key` or EMPTY.
/// `cap` is a power of two with `cap <= keys.len()`, and `keys[..cap]`
/// holds at least one EMPTY slot so the probe terminates.
#[inline(always)]
pub(crate) fn hash_probe_scalar(keys: &[Idx], cap: usize, start: usize, key: Idx) -> usize {
    let mask = cap - 1;
    let mut s = start;
    loop {
        let k = keys[s];
        if k == key || k == EMPTY {
            return s;
        }
        s = (s + 1) & mask;
    }
}

/// [`hash_probe_scalar`]'s contract and result, 4 slots per step: the
/// lowest hit lane of a cluster is the slot the scalar walk stops at. The
/// fewer-than-4 slots before the wraparound are walked one by one.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn hash_probe(keys: &[Idx], cap: usize, start: usize, key: Idx) -> usize {
    debug_assert!(cap.is_power_of_two() && start < cap);
    let keys = &keys[..cap];
    let mut s = start;
    loop {
        if let Some(cluster) = keys[s..].first_chunk::<4>() {
            let hits = cluster_hits(cluster, key);
            if hits != 0 {
                return s + hits.trailing_zeros() as usize;
            }
            s = (s + 4) & (cap - 1);
        } else {
            if let Some(i) = keys[s..].iter().position(|&k| k == key || k == EMPTY) {
                return s + i;
            }
            s = 0;
        }
    }
}

/// Bit `i` is set iff `cluster[i]` is `key` or EMPTY.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn cluster_hits(cluster: &[Idx; 4], key: Idx) -> u32 {
    use std::arch::x86_64::*;
    // SAFETY: every intrinsic here is SSE/SSE2, which each x86_64 CPU
    // implements (the x86_64 targets enable both unconditionally), and
    // the unaligned load reads exactly the 16 bytes of `cluster`.
    unsafe {
        let v = _mm_loadu_si128(cluster.as_ptr() as *const __m128i);
        let hit = _mm_or_si128(
            _mm_cmpeq_epi32(v, _mm_set1_epi32(key as i32)),
            _mm_cmpeq_epi32(v, _mm_set1_epi32(EMPTY as i32)),
        );
        _mm_movemask_ps(_mm_castsi128_ps(hit)) as u32
    }
}

/// Other architectures probe with the reference walk.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) use hash_probe_scalar as hash_probe;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn probe_matches_scalar() {
        let check = |keys: &[Idx], cap: usize, start: usize, key: Idx| {
            let want = hash_probe_scalar(keys, cap, start, key);
            let got = hash_probe(keys, cap, start, key);
            assert_eq!(got, want, "start={start} key={key} keys={:?}", &keys[..cap]);
        };
        // Hand cases: clusters, wraparound, immediate hits, empty table.
        type Case = (usize, Vec<(usize, Idx)>, usize, Idx);
        let cases: Vec<Case> = vec![
            (8, vec![(0, 10), (1, 20), (2, 30)], 0, 20),
            (8, vec![(0, 10), (1, 20), (2, 30)], 0, 99),
            (8, vec![(6, 1), (7, 2), (0, 3), (1, 4)], 6, 4),
            (8, vec![(6, 1), (7, 2), (0, 3), (1, 4)], 6, 77),
            (16, (0..15).map(|s| (s, s as Idx + 100)).collect(), 3, 114),
            (16, (0..15).map(|s| (s, s as Idx + 100)).collect(), 3, 999),
            (8, vec![], 5, 42),
        ];
        for (cap, fill, start, key) in cases {
            let mut keys = vec![EMPTY; cap];
            for (s, k) in fill {
                keys[s] = k;
            }
            check(&keys, cap, start, key);
        }
        // Seeded sweep: fills up to one free slot, every start (clusters
        // straddle the wrap), present and absent keys, stale keys past `cap`.
        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
        for cap in [8usize, 16, 32, 64, 128, 256] {
            for _ in 0..12 {
                let filled = rng.gen_range(0..cap);
                let mut keys = vec![7; cap + 8];
                keys[..cap].fill(EMPTY);
                for k in 0..filled {
                    let home = rng.gen_range(0..cap);
                    let s = hash_probe_scalar(&keys, cap, home, EMPTY);
                    keys[s] = 1000 + k as Idx;
                }
                let filled = filled as Idx;
                for start in 0..cap {
                    for key in [7, 999, 1000, 1000 + filled / 2, 1000 + filled] {
                        check(&keys, cap, start, key);
                    }
                }
            }
        }
    }

    #[test]
    fn prefetch_is_harmless() {
        // Prefetch has no observable semantics; just exercise the paths.
        prefetch_read([1u32, 2, 3].as_ptr());
        let a = mspgemm_sparse::Csr::<f64>::diagonal(4, 1.0);
        prefetch_b_rowptr(&a.view(), 2);
        prefetch_b_row(&a.view(), 2);
    }
}
