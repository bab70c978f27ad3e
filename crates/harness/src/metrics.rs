//! Performance metrics matching the paper's y-axes: GFLOPS (Figs 10, 14),
//! MTEPS (Fig 15), and repeat-and-take-best timing.

use std::time::Instant;

/// GFLOPS: `flops / seconds / 1e9`. `flops` already includes the ×2
/// multiply-add convention (see `Csr::flops_with`).
pub fn gflops(flops: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    flops as f64 / seconds / 1e9
}

/// Millions of Traversed Edges Per Second, the Graph500/SSCA metric the
/// paper uses for BC (§8.4): `batch_size × num_edges / total_time`.
pub fn mteps(batch_size: usize, num_edges: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    (batch_size as f64) * (num_edges as f64) / seconds / 1e6
}

/// Ingest throughput in decimal megabytes per second — the dataset
/// cold-start metric the `mxm run` report and the ingest microbench
/// print.
pub fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    bytes as f64 / seconds / 1e6
}

/// FNV-1a fingerprint over a CSR's exact in-memory content: shape, row
/// pointers, column indices, and value bit patterns. Two matrices agree
/// on the fingerprint iff they are content-identical — independent of
/// how their sections are backed, so a heap-loaded and an mmap-backed
/// copy of the same matrix fingerprint identically. `mxm run` and the
/// serve protocol both report it and parity is checkable end to end
/// without shipping the matrix over the wire. Accepts `&Csr<f64>` or a
/// [`CsrRef`](mspgemm_sparse::CsrRef) view.
///
/// The byte stream is the shape as two `u64`, every row pointer as a
/// `u64`, every column index as a `u32` and every value's `f64` bits, all
/// little-endian (`docs/SERVE_PROTOCOL.md` defines it). The value is
/// byte-at-a-time FNV-1a over that stream, but an element's run of zero
/// bytes costs one multiply (the private `Fnv` below).
pub fn csr_fingerprint<'a>(a: impl Into<mspgemm_sparse::CsrRef<'a, f64>>) -> u64 {
    let a = a.into();
    let mut h = Fnv::new();
    h.word(a.nrows() as u64);
    h.word(a.ncols() as u64);
    for &p in a.rowptr() {
        h.word(p as u64);
    }
    for &c in a.colidx() {
        h.col(c);
    }
    for &v in a.values() {
        h.value(v);
    }
    h.finish()
}

/// FNV-1a's 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k < 16`.
const FNV_POW: [u64; 16] = {
    let mut t = [1u64; 16];
    let mut k = 1;
    while k < 16 {
        t[k] = t[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    t
};

/// FNV-1a (`h = (h ^ byte) · P` per byte) that skips zero bytes. XOR
/// with zero does nothing, so a run of `z` zero bytes is one multiply by
/// `P^z`: the state is `h · P^zeros`, and the pending power is folded
/// into the next nonzero byte's multiply. Each element picks its shape
/// with one branch — a small word or column id walks only its low bytes
/// and leaves its high zero bytes pending; a value whose low five bytes
/// are zero (±0.0 and every integer below 2¹³) leaves them pending and
/// walks its top three. Anything else walks all its bytes. Every
/// element ends on a walk, so at most 5 + 5 zero bytes are ever
/// pending.
struct Fnv {
    h: u64,
    zeros: usize,
}

impl Fnv {
    fn new() -> Fnv {
        Fnv {
            h: FNV_OFFSET,
            zeros: 0,
        }
    }

    /// Hash the low `N` bytes of `x`, least significant first.
    #[inline(always)]
    fn walk<const N: usize>(&mut self, x: u64) {
        let mut h = self.h.wrapping_mul(FNV_POW[self.zeros]) ^ (x & 0xff);
        for i in 1..N {
            h = h.wrapping_mul(FNV_PRIME) ^ ((x >> (8 * i)) & 0xff);
        }
        self.h = h;
        self.zeros = 1;
    }

    /// One `u64`, little-endian.
    #[inline(always)]
    fn word(&mut self, w: u64) {
        if w >> 32 == 0 {
            self.walk::<4>(w);
            self.zeros += 4;
        } else {
            self.walk::<8>(w);
        }
    }

    /// One `u32`, little-endian.
    #[inline(always)]
    fn col(&mut self, c: u32) {
        if c >> 16 == 0 {
            self.walk::<2>(c.into());
            self.zeros += 2;
        } else {
            self.walk::<4>(c.into());
        }
    }

    /// One `f64`'s bits, little-endian.
    #[inline(always)]
    fn value(&mut self, v: f64) {
        let bits = v.to_bits();
        if bits & 0xff_ffff_ffff == 0 {
            self.zeros += 5;
            self.walk::<3>(bits >> 40);
        } else {
            self.walk::<8>(bits);
        }
    }

    fn finish(&self) -> u64 {
        self.h.wrapping_mul(FNV_POW[self.zeros])
    }
}

/// Ingest throughput in parsed entries per second (one coordinate line
/// of a `.mtx` file = one entry, before symmetric expansion).
pub fn entries_per_s(entries: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    entries as f64 / seconds
}

/// Call `f` exactly `reps` times, returning the minimum wall-clock
/// seconds (the standard noise-robust estimator) and the last result —
/// what `mxm run --reps` and the server's `mxm` verb report. The first
/// `Err` is returned at once, with the remaining reps not run. Each
/// rep's output is dropped before the next call, so at most one is
/// alive.
///
/// # Panics
/// If `reps` is 0.
pub fn best_of<T, E>(reps: usize, mut f: impl FnMut() -> Result<T, E>) -> Result<(f64, T), E> {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        drop(out.take());
        let t0 = Instant::now();
        out = Some(f()?);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok((best, out.expect("reps >= 1")))
}

/// One untimed call to warm up (it primes allocators, caches and
/// workspace pools), then [`best_of`]`(reps)`: a steady-state time, as
/// the benches, `mxm suite`'s runner and the examples compare schemes.
///
/// # Panics
/// If `reps` is 0.
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1);
    drop(f());
    let Ok(timed) = best_of(reps, || Ok::<T, std::convert::Infallible>(f()));
    timed
}

/// Read an environment variable as `usize` with a default — the knobs
/// (`MSPGEMM_SCALE`, `MSPGEMM_REPS`, …) that let the default bench runs
/// stay small while paper-scale runs are one variable away.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read an environment variable as a comma-separated list of positive
/// `usize`s with a default spec — the sweep knobs
/// (`MSPGEMM_INGEST_THREADS`, `MSPGEMM_SCHED_SCALES`, …).
///
/// # Panics
/// If the spec yields no usable entries (a silent empty sweep would look
/// like a passing bench).
pub fn env_usize_list(name: &str, default: &str) -> Vec<usize> {
    let spec = std::env::var(name).unwrap_or_else(|_| default.into());
    let list: Vec<usize> = spec
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&t| t > 0)
        .collect();
    assert!(!list.is_empty(), "{name} has no usable entries: {spec:?}");
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::CsrRef;

    #[test]
    fn gflops_math() {
        assert!((gflops(2_000_000_000, 1.0) - 2.0).abs() < 1e-12);
        assert!((gflops(1_000_000_000, 0.5) - 2.0).abs() < 1e-12);
        assert_eq!(gflops(100, 0.0), 0.0);
    }

    #[test]
    fn mteps_math() {
        // 512 sources × 1M edges in 2s = 256 MTEPS.
        assert!((mteps(512, 1_000_000, 2.0) - 256.0).abs() < 1e-9);
        assert_eq!(mteps(1, 1, 0.0), 0.0);
    }

    #[test]
    fn throughput_math() {
        assert!((mb_per_s(5_000_000, 2.0) - 2.5).abs() < 1e-12);
        assert_eq!(mb_per_s(100, 0.0), 0.0);
        assert!((entries_per_s(1_000_000, 0.5) - 2_000_000.0).abs() < 1e-6);
        assert_eq!(entries_per_s(100, 0.0), 0.0);
    }

    #[test]
    fn time_best_returns_min_and_result() {
        let mut calls = 0;
        let (secs, val) = time_best(3, || {
            calls += 1;
            42
        });
        assert_eq!(val, 42);
        assert_eq!(calls, 4, "warmup + reps");
        assert!(secs >= 0.0);
    }

    #[test]
    fn best_of_makes_exactly_reps_calls() {
        for reps in [1, 3] {
            let mut calls = 0;
            let (secs, val) = best_of(reps, || {
                calls += 1;
                Ok::<_, ()>(calls)
            })
            .unwrap();
            assert_eq!(calls, reps, "no warm-up");
            assert_eq!(val, reps, "the last call's output");
            assert!(secs >= 0.0);
        }
    }

    #[test]
    fn best_of_returns_the_minimum_time() {
        // Only the second of three calls is fast.
        let naps = [50, 1, 50];
        let mut i = 0;
        let (secs, ()) = best_of(3, || {
            std::thread::sleep(std::time::Duration::from_millis(naps[i]));
            i += 1;
            Ok::<_, ()>(())
        })
        .unwrap();
        assert!((0.001..0.05).contains(&secs), "{secs}");
    }

    #[test]
    fn best_of_stops_at_the_first_err() {
        let mut calls = 0;
        let err = best_of(5, || {
            calls += 1;
            if calls == 2 {
                Err(calls)
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!((err, calls), (2, 2));
    }

    #[test]
    #[should_panic(expected = "reps >= 1")]
    fn best_of_refuses_zero_reps() {
        let _ = best_of(0, || Ok::<_, ()>(()));
    }

    #[test]
    #[should_panic(expected = "reps >= 1")]
    fn time_best_refuses_zero_reps() {
        time_best(0, || ());
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        use mspgemm_sparse::Csr;
        let a = Csr::from_dense(&[vec![Some(1.0), None], vec![None, Some(2.0)]], 2);
        let b = Csr::from_dense(&[vec![Some(1.0), None], vec![None, Some(2.0)]], 2);
        assert_eq!(csr_fingerprint(&a), csr_fingerprint(&b));
        // A single value-bit flip changes the fingerprint.
        let c = Csr::from_dense(&[vec![Some(1.0), None], vec![None, Some(2.0 + 1e-15)]], 2);
        assert_ne!(csr_fingerprint(&a), csr_fingerprint(&c));
        // Same values, different position.
        let d = Csr::from_dense(&[vec![None, Some(1.0)], vec![Some(2.0), None]], 2);
        assert_ne!(csr_fingerprint(&a), csr_fingerprint(&d));
        // Same nnz layout, different shape padding.
        let e = Csr::<f64>::empty(2, 3);
        let f = Csr::<f64>::empty(3, 2);
        assert_ne!(csr_fingerprint(&e), csr_fingerprint(&f));
    }

    /// The plain byte-at-a-time FNV-1a over the fingerprint's byte
    /// stream: the oracle `csr_fingerprint` must equal.
    fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
        let mut h = FNV_OFFSET;
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    fn fnv1a_reference(a: CsrRef<'_, f64>) -> u64 {
        let mut s = Vec::new();
        s.extend((a.nrows() as u64).to_le_bytes());
        s.extend((a.ncols() as u64).to_le_bytes());
        for &p in a.rowptr() {
            s.extend((p as u64).to_le_bytes());
        }
        for &c in a.colidx() {
            s.extend(c.to_le_bytes());
        }
        for &v in a.values() {
            s.extend(v.to_bits().to_le_bytes());
        }
        fnv1a_bytes(s)
    }

    fn assert_matches_reference(
        nrows: usize,
        ncols: usize,
        rowptr: &[usize],
        colidx: &[u32],
        values: &[f64],
    ) {
        let a = CsrRef::try_from_parts(nrows, ncols, rowptr, colidx, values).expect("valid CSR");
        assert_eq!(
            csr_fingerprint(a),
            fnv1a_reference(a),
            "{nrows}x{ncols} rowptr {rowptr:?} colidx {colidx:?} values {values:?}"
        );
    }

    /// Values on both sides of the "low five bytes zero" shape.
    const SPECIAL_VALUES: [f64; 14] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        8191.0,
        8192.0,
        8193.0,
        0.5,
        0.1,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        f64::INFINITY,
        // A NaN with a payload in its low bytes.
        f64::from_bits(0x7ff8_0000_dead_beef),
    ];

    #[test]
    fn fingerprint_equals_bytewise_fnv1a_on_every_value_shape() {
        // One row holding every special value, then each value alone in
        // a row so it also follows a row pointer's pending zero bytes.
        let n = SPECIAL_VALUES.len();
        let colidx: Vec<u32> = (0..n as u32).collect();
        assert_matches_reference(1, n, &[0, n], &colidx, &SPECIAL_VALUES);
        for v in SPECIAL_VALUES {
            assert_matches_reference(2, 3, &[0, 1, 2], &[2, 0], &[v, v]);
        }
        // Every ordered pair, back to back in one row.
        for v in SPECIAL_VALUES {
            for w in SPECIAL_VALUES {
                assert_matches_reference(1, 2, &[0, 2], &[0, 1], &[v, w]);
            }
        }
    }

    #[test]
    fn fingerprint_equals_bytewise_fnv1a_on_every_column_shape() {
        let wide = 1usize << 33;
        for c in [0, 1, 255, 256, 65_535, 65_536, 65_537, 1 << 24, u32::MAX] {
            assert_matches_reference(1, wide, &[0, 1], &[c], &[1.0]);
            assert_matches_reference(1, wide, &[0, 1], &[c], &[0.1]);
            assert_matches_reference(2, wide, &[0, 0, 1], &[c], &[0.0]);
        }
        // Both column shapes alternating within one row.
        let colidx = [0, 65_535, 65_536, 70_000, u32::MAX - 1, u32::MAX];
        let values = [1.0, 0.1, 2.0, -0.0, 8192.0, f64::NAN];
        assert_matches_reference(1, wide, &[0, 6], &colidx, &values);
    }

    #[test]
    fn fingerprint_equals_bytewise_fnv1a_on_edge_shapes() {
        assert_matches_reference(0, 0, &[0], &[], &[]);
        assert_matches_reference(3, 0, &[0, 0, 0, 0], &[], &[]);
        assert_matches_reference(0, 3, &[0], &[], &[]);
        // A row over 70 000 columns: row pointers and column ids on
        // both sides of their thresholds.
        let colidx: Vec<u32> = (0..70_000).collect();
        let values: Vec<f64> = (0..70_000).map(|i| f64::from(i) * 0.25).collect();
        assert_matches_reference(2, 70_000, &[0, 0, 70_000], &colidx, &values);
        assert_matches_reference(2, 70_000, &[0, 70_000, 70_000], &colidx, &values);
    }

    #[test]
    fn word_equals_bytewise_fnv1a_on_both_sides_of_its_shape() {
        let words = [0, 1, 255, 256, (1 << 32) - 1, 1 << 32, u64::MAX];
        for w in words {
            let mut h = Fnv::new();
            h.word(w);
            assert_eq!(h.finish(), fnv1a_bytes(w.to_le_bytes()), "{w:#x}");
            // Followed by each other shape, so the pending zeros carry.
            for x in words {
                let mut h = Fnv::new();
                h.word(w);
                h.word(x);
                h.col(x as u32);
                h.value(f64::from_bits(x));
                let stream = w
                    .to_le_bytes()
                    .into_iter()
                    .chain(x.to_le_bytes())
                    .chain((x as u32).to_le_bytes())
                    .chain(x.to_le_bytes());
                assert_eq!(h.finish(), fnv1a_bytes(stream), "{w:#x}, {x:#x}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]
        #[test]
        fn fingerprint_equals_bytewise_fnv1a_on_random_csrs(
            dense in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::option::weighted(0.4, 0u64..u64::MAX),
                    0usize..6,
                ),
                0usize..6,
            ),
            wide in 0u32..=1,
        ) {
            // Each draw picks a special value, a small integer or raw
            // random bits; half the matrices spread their six columns
            // past 2^16 (0, 21 845, 43 690, 65 535, 87 380, 109 225).
            let ncols = if wide == 1 { 1usize << 17 } else { 6 };
            let step = ncols / 6;
            let (mut rowptr, mut colidx, mut values) = (vec![0], vec![], vec![]);
            for row in &dense {
                for (j, draw) in row.iter().enumerate() {
                    if let Some(bits) = *draw {
                        colidx.push((j * step) as u32);
                        values.push(match bits % 3 {
                            0 => SPECIAL_VALUES[(bits >> 8) as usize % SPECIAL_VALUES.len()],
                            1 => ((bits >> 40) % 16_384) as f64,
                            _ => f64::from_bits(bits),
                        });
                    }
                }
                rowptr.push(colidx.len());
            }
            let a = CsrRef::try_from_parts(dense.len(), ncols, &rowptr, &colidx, &values)
                .expect("valid CSR");
            proptest::prop_assert_eq!(csr_fingerprint(a), fnv1a_reference(a));
        }
    }

    #[test]
    fn env_usize_fallback() {
        std::env::remove_var("MSPGEMM_TEST_KNOB_XYZ");
        assert_eq!(env_usize("MSPGEMM_TEST_KNOB_XYZ", 7), 7);
        std::env::set_var("MSPGEMM_TEST_KNOB_XYZ", "13");
        assert_eq!(env_usize("MSPGEMM_TEST_KNOB_XYZ", 7), 13);
        std::env::set_var("MSPGEMM_TEST_KNOB_XYZ", "not a number");
        assert_eq!(env_usize("MSPGEMM_TEST_KNOB_XYZ", 7), 7);
        std::env::remove_var("MSPGEMM_TEST_KNOB_XYZ");
    }
}
