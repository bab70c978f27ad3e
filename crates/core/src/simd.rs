//! The hash accumulator's cluster probe — the one place the kernels step
//! below plain Rust loops.
//!
//! `hash_probe` compares 4 consecutive table keys per step against the
//! probe key and EMPTY (paper §5.3's linear probe, one movemask per
//! cluster instead of one branch per slot) and keeps probe order, so it
//! returns the slot `hash_probe_scalar` returns, together with whether
//! that slot holds the key — read off the key lanes the compare already
//! made. Neither walk wraps: a `HashAccum` table carries its overflow
//! slack past `cap`, so every cluster is whole and there is no scalar
//! tail. The compare is SSE2, the x86_64 baseline: compiled there, the
//! scalar walk elsewhere, nothing to detect or dispatch. Complement-mode
//! tables, where it measured slower, use the scalar walk
//! (`docs/DECISIONS.md`).

use mspgemm_sparse::Idx;

/// The hash table's EMPTY key sentinel (matches `accumulator::hash`).
const EMPTY: Idx = Idx::MAX;

/// The probe path this build compiled (`sse2` on x86_64, `scalar`
/// elsewhere) — what `mxm run`, `ping`/`stats` and suite reports print.
#[cfg(target_arch = "x86_64")]
pub const COMPILED_PATH: &str = "sse2";
#[cfg(not(target_arch = "x86_64"))]
pub const COMPILED_PATH: &str = "scalar";

/// The reference probe, one slot per step: the first slot at or after
/// `start` whose key is `key` or EMPTY. The walk does not wrap: `keys`
/// must hold an EMPTY at or after `start` (a `HashAccum` table keeps
/// one within its key count of every home slot).
#[inline(always)]
pub(crate) fn hash_probe_scalar(keys: &[Idx], start: usize, key: Idx) -> usize {
    let mut s = start;
    loop {
        let k = keys[s];
        if k == key || k == EMPTY {
            return s;
        }
        s += 1;
    }
}

/// [`hash_probe_scalar`]'s slot, 4 slots per step, and whether it holds
/// `key`: the lowest hit lane of a cluster is the slot the scalar walk
/// stops at, and its key-lane bit is the answer. Beyond the scalar
/// contract, `keys` must extend 3 slots past that slot, so every cluster
/// is whole.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn hash_probe(keys: &[Idx], start: usize, key: Idx) -> (usize, bool) {
    let mut s = start;
    loop {
        let cluster = keys[s..]
            .first_chunk::<4>()
            .expect("an EMPTY lies within the table's slack");
        let (hits, found) = cluster_hits(cluster, key);
        if hits != 0 {
            let lane = hits.trailing_zeros();
            return (s + lane as usize, (found >> lane) & 1 != 0);
        }
        s += 4;
    }
}

/// `(hits, found)`: bit `i` of `hits` is set iff `cluster[i]` is `key`
/// or EMPTY, bit `i` of `found` iff it is `key`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn cluster_hits(cluster: &[Idx; 4], key: Idx) -> (u32, u32) {
    use std::arch::x86_64::*;
    // SAFETY: every intrinsic here is SSE/SSE2, which each x86_64 CPU
    // implements (the x86_64 targets enable both unconditionally), and
    // the unaligned load reads exactly the 16 bytes of `cluster`.
    unsafe {
        let v = _mm_loadu_si128(cluster.as_ptr() as *const __m128i);
        let found = _mm_cmpeq_epi32(v, _mm_set1_epi32(key as i32));
        let hit = _mm_or_si128(found, _mm_cmpeq_epi32(v, _mm_set1_epi32(EMPTY as i32)));
        (
            _mm_movemask_ps(_mm_castsi128_ps(hit)) as u32,
            _mm_movemask_ps(_mm_castsi128_ps(found)) as u32,
        )
    }
}

/// Other architectures probe with the reference walk.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub(crate) fn hash_probe(keys: &[Idx], start: usize, key: Idx) -> (usize, bool) {
    let s = hash_probe_scalar(keys, start, key);
    (s, keys[s] == key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `hash_probe` against the scalar walk on `keys`, which is exactly
    /// as long as a `HashAccum` table (`cap + K + 3`), so a cluster read
    /// past the slack panics.
    fn check(keys: &[Idx], start: usize, key: Idx) {
        let want = hash_probe_scalar(keys, start, key);
        let got = hash_probe(keys, start, key);
        assert_eq!(
            got,
            (want, keys[want] == key),
            "start={start} key={key} keys={keys:?}"
        );
    }

    /// A `cap`-slot table holding one key per entry of `homes`, each
    /// inserted at the first EMPTY at or after its home slot, with the
    /// slack of a table sized for `homes.len()` keys.
    fn table(cap: usize, homes: &[usize]) -> Vec<Idx> {
        let mut keys = vec![EMPTY; cap + homes.len() + 3];
        for (k, &home) in homes.iter().enumerate() {
            let s = hash_probe_scalar(&keys, home, EMPTY);
            keys[s] = 1000 + k as Idx;
        }
        keys
    }

    #[test]
    fn probe_matches_scalar() {
        // Hand cases: hits in the first cluster, runs that spill past
        // `cap` into the slack, an empty table probed from its last slot,
        // and a full run of 4 from the last home, whose EMPTY opens the
        // table's final cluster (the read the `+ 3` is for).
        let cases: [(usize, &[usize], usize, Idx); 9] = [
            (8, &[0, 0, 0], 0, 1001),
            (8, &[0, 0, 0], 0, 99),
            (8, &[7], 7, 1000),
            (8, &[7], 7, 99),
            (8, &[6, 6, 7, 7], 6, 1003),
            (8, &[6, 6, 7, 7], 7, 99),
            (8, &[], 7, 42),
            (32, &[31, 31, 31, 31], 31, 1003),
            (32, &[31, 31, 31, 31], 31, 99),
        ];
        for (cap, homes, start, key) in cases {
            check(&table(cap, homes), start, key);
        }
        // Seeded sweep: up to the quarter load the accumulator allows,
        // some keys forced to home in the last three slots, every start,
        // present and absent keys.
        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
        for cap in [8usize, 16, 32, 64, 128, 256] {
            for _ in 0..12 {
                let filled = rng.gen_range(0..=cap / 4);
                let homes: Vec<usize> = (0..filled)
                    .map(|_| match rng.gen_range(0..4) {
                        0 => cap - 1 - rng.gen_range(0..3),
                        _ => rng.gen_range(0..cap),
                    })
                    .collect();
                let keys = table(cap, &homes);
                let filled = filled as Idx;
                for start in 0..cap {
                    for key in [7, 999, 1000, 1000 + filled / 2, 1000 + filled] {
                        check(&keys, start, key);
                    }
                }
            }
        }
    }
}
