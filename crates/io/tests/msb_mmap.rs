//! Property tests for the `.msb` v2 layout and the zero-copy mmap
//! loader: round-trips, mmap-backed vs heap-backed equality (as
//! matrices and as kernel operands, across algorithms × masks × phases,
//! checked by `csr_fingerprint`), and rejection of corrupt, truncated,
//! or misaligned v2 files without UB.

mod common;

use common::csr_strategy;
use masked_spgemm::{masked_mxm_with_opts, Algorithm, ExecOpts, MaskMode, Phases};
use mspgemm_harness::csr_fingerprint;
use mspgemm_io::msb::{read_msb_file_auto, write_msb, MsbBackend, MSB_HEADER_LEN};
use mspgemm_sparse::semiring::PlusTimesF64;
use mspgemm_sparse::Csr;
use proptest::prelude::*;
use std::path::PathBuf;

/// Write `bytes` to a fresh temp `.msb` path (tests run concurrently, so
/// every case gets its own file).
fn msb_file(tag: &str, bytes: &[u8]) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("mspgemm_io_msb_mmap_it");
    std::fs::create_dir_all(&dir).unwrap();
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{tag}_{}_{n}.msb", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Load via mmap where the target supports it; the heap fallback keeps
/// the property meaningful (equality still must hold) elsewhere.
fn load_mapped(path: &PathBuf) -> (Csr<f64>, MsbBackend) {
    read_msb_file_auto(path, true).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mmap_backed_equals_heap_backed(a in csr_strategy(17, 17, 0.3)) {
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        let path = msb_file("eq", &buf);
        let (mapped, _) = load_mapped(&path);
        let (heap, backend) = read_msb_file_auto(&path, false).unwrap();
        prop_assert_eq!(backend, MsbBackend::Heap);
        prop_assert_eq!(&heap, &a, "the stream round-trips the matrix");
        prop_assert_eq!(&mapped, &heap);
        prop_assert_eq!(csr_fingerprint(&mapped), csr_fingerprint(&heap));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kernel_outputs_identical_across_backends(a in csr_strategy(24, 24, 0.25)) {
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        let path = msb_file("kern", &buf);
        let (mapped, _) = load_mapped(&path);
        let (heap, _) = read_msb_file_auto(&path, false).unwrap();
        for algo in [
            Algorithm::Msa,
            Algorithm::Hash,
            Algorithm::Mca,
            Algorithm::Heap,
            Algorithm::HeapDot,
            Algorithm::Inner,
        ] {
            for mode in [MaskMode::Mask, MaskMode::Complement] {
                if mode == MaskMode::Complement && !algo.supports_complement() {
                    continue;
                }
                for phases in [Phases::One, Phases::Two] {
                    let ch = masked_mxm_with_opts::<PlusTimesF64, ()>(
                        &heap.pattern(), &heap, &heap, algo, mode, phases,
                        &ExecOpts::default(),
                    ).unwrap();
                    let cm = masked_mxm_with_opts::<PlusTimesF64, ()>(
                        &mapped.pattern(), &mapped, &mapped, algo, mode, phases,
                        &ExecOpts::default(),
                    ).unwrap();
                    prop_assert_eq!(&ch, &cm, "{:?}/{:?}/{:?}", algo, mode, phases);
                    prop_assert_eq!(
                        csr_fingerprint(&ch),
                        csr_fingerprint(&cm),
                        "fingerprint divergence at {:?}/{:?}/{:?}", algo, mode, phases
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_v2_rejected_on_both_paths(
        a in csr_strategy(9, 11, 0.4),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();

        // Truncation anywhere must fail loudly on both readers.
        let cut = ((buf.len() - 1) as f64 * cut_frac) as usize;
        let path = msb_file("cut", &buf[..cut]);
        prop_assert!(read_msb_file_auto(&path, true).is_err(), "mmap path accepted {cut} bytes");
        prop_assert!(read_msb_file_auto(&path, false).is_err(), "heap path accepted {cut} bytes");
        std::fs::remove_file(&path).ok();

        // A corrupted structural byte (header dims or rowptr region) must
        // never produce a matrix that violates CSR invariants, and both
        // loaders — one decoder behind them — must reach the same
        // verdict. Value-section flips legitimately decode (they are just
        // other floats), so flip only within the structural prefix.
        let structural = MSB_HEADER_LEN + 8 * (a.nrows() + 1);
        let pos = 8 + ((structural - 9) as f64 * flip_frac) as usize;
        let mut bad = buf.clone();
        bad[pos] ^= 0xff;
        let path = msb_file("flip", &bad);
        let mapped = read_msb_file_auto(&path, true).map(|(m, _)| m);
        let heap = read_msb_file_auto(&path, false).map(|(m, _)| m);
        match (mapped, heap) {
            // Accepted ⇒ the flip produced another *valid* stream
            // (e.g. a flags/nnz combination that still checks out).
            // Validation is what matters: invariants must hold.
            (Ok(m), Ok(h)) => {
                prop_assert_eq!(&m, &h);
                prop_assert!(
                    Csr::try_from_parts(
                        m.nrows(), m.ncols(),
                        m.rowptr().to_vec(), m.colidx().to_vec(), m.values().to_vec(),
                    ).is_ok()
                );
            }
            (Err(m), Err(h)) => prop_assert_eq!(m.to_string(), h.to_string()),
            (m, h) => prop_assert!(false, "loaders disagree: mapped {:?}, heap {:?}", m, h),
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn misaligned_v2_rejected_without_ub() {
    // Handcraft a v2 file whose colidx section is not padded (odd nnz,
    // values start 4-misaligned): the zero-copy loader must reject it —
    // the total length check fails first, and even a doctored length
    // trips the alignment check rather than casting misaligned floats.
    let a = Csr::from_dense(
        &[
            vec![Some(1.0), None, Some(2.0)],
            vec![None, Some(3.0), None],
            vec![None, None, None],
        ],
        3,
    );
    assert_eq!(a.nnz() % 2, 1, "need odd nnz to exercise the pad");
    // Cut the 4 pad bytes out of a valid stream: the reader still
    // expects them, and what sits there is now the first half of a value
    // — decode must fail, not misinterpret.
    let mut fake_v2 = Vec::new();
    write_msb(&mut fake_v2, &a).unwrap();
    let pad_off = MSB_HEADER_LEN + 8 * (a.nrows() + 1) + 4 * a.nnz();
    fake_v2.drain(pad_off..pad_off + 4);
    let path_stream = std::env::temp_dir().join("mspgemm_io_misaligned_stream.msb");
    std::fs::write(&path_stream, &fake_v2).unwrap();
    assert!(
        read_msb_file_auto(&path_stream, false).is_err(),
        "copying reader accepted an unpadded v2 stream"
    );
    assert!(
        read_msb_file_auto(&path_stream, true).is_err(),
        "mmap reader accepted an unpadded v2 stream"
    );
    std::fs::remove_file(&path_stream).ok();
}

#[test]
fn sidecar_cache_serves_mmap_and_rewrites_a_v1_sidecar() {
    use mspgemm_io::{load_matrix, sidecar_path, CacheOutcome, CachePolicy, LoadOpts};
    let dir = std::env::temp_dir().join("mspgemm_io_mmap_sidecar");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("g.mtx");
    let g = mspgemm_gen::er_symmetric(50, 5, 3);
    mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
    let opts = LoadOpts {
        policy: CachePolicy::ReadWrite,
        mmap: true,
        ..LoadOpts::default()
    };

    // First load parses, writes the v2 sidecar, and (mmap preferred)
    // returns the mapped copy of it.
    let (a, r) = load_matrix(&mtx, &opts).unwrap();
    assert_eq!(r.outcome, CacheOutcome::Written);
    assert_eq!(r.backend, MsbBackend::Mmap);
    assert!(a.has_shared_storage());
    assert_eq!(a, g);

    // Second load hits the sidecar via the mapping.
    let (b, r) = load_matrix(&mtx, &opts).unwrap();
    assert_eq!(r.outcome, CacheOutcome::Hit);
    assert_eq!(r.backend, MsbBackend::Mmap);
    assert_eq!(b, g);
    assert_eq!(csr_fingerprint(&a), csr_fingerprint(&b));

    // A sidecar claiming version 1 is unreadable like any corrupt one:
    // the text is parsed again and the sidecar rewritten as v2.
    let sidecar = sidecar_path(&mtx);
    let mut v1 = std::fs::read(&sidecar).unwrap();
    v1[4] = 1;
    std::fs::write(&sidecar, &v1).unwrap();
    let (c, r) = load_matrix(&mtx, &opts).unwrap();
    assert_eq!(r.outcome, CacheOutcome::Written);
    assert_eq!(c, g);
    assert_eq!(std::fs::read(&sidecar).unwrap()[4], 2);
    std::fs::remove_dir_all(&dir).ok();
}
