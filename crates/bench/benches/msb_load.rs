//! `.msb` load microbenchmark: the heap-copying reader vs the zero-copy
//! mmap path, cold (first touch after open) and warm (repeat loads), on
//! a generated R-MAT matrix plus the bundled karate fixture. This is the
//! acceptance gauge for the mmap work: the mapped "resident load" must
//! be near-zero-cost — it validates `rowptr` and casts, but performs no
//! per-section heap copy of `colidx`/`values` (asserted via
//! `storage_report`, not just timed). Three ways to hold the R-MAT are
//! compared — the value stream, a values-less pattern stream, and the
//! value stream with its weights dropped at load (`LoadOpts::pattern`:
//! the values range is neither read nor cast) — which is the evidence
//! behind "one sidecar per input" in `docs/DECISIONS.md`. Emits CSV on
//! stdout, an aligned table on stderr, and a JSON report for the CI perf
//! artifact.
//!
//! mmap defers page faults to first use, so the honest comparison is
//! load+touch (a checksum pass over every value and column index): the
//! `total_seconds` column. "cold" is the process's first load through
//! that backend — single-shot, untrimmed; the page cache stays warm
//! (the file was just written; dropping the OS cache is not portable),
//! so cold here measures first-mapping/allocator cost, not disk.
//! "warm" is best-of-reps against the resident file.
//!
//! Environment knobs (defaults keep the run CI-sized):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MSPGEMM_MSB_SCALE` | R-MAT scale of the generated matrix | 13 |
//! | `MSPGEMM_MSB_JSON` | write the JSON report to this path | (none) |
//! | `MSPGEMM_REPS` | timing repetitions (best-of) | 3 |

use mspgemm_bench::banner;
use mspgemm_gen::RmatParams;
use mspgemm_harness::report::{json_escape, Table};
use mspgemm_harness::{csr_fingerprint, env_usize, mb_per_s, time_best};
use mspgemm_io::msb::{write_msb, MsbBackend};
use mspgemm_io::{load_matrix, CachePolicy, LoadOpts};
use mspgemm_sparse::Csr;
use std::path::PathBuf;

struct Row {
    dataset: String,
    /// Size of the file on disk.
    bytes: u64,
    /// Bytes the load materialised (`IngestReport::bytes`).
    read_bytes: u64,
    nnz: usize,
    backend: &'static str,
    phase: &'static str,
    load_seconds: f64,
    total_seconds: f64,
    heap_bytes: usize,
    mapped_bytes: usize,
    unit_bytes: usize,
}

/// Force every byte of the matrix through the CPU (and, for mmap, fault
/// every page in): a checksum over the value bits and column indices.
fn touch(a: &Csr<f64>) -> u64 {
    let mut acc = 0u64;
    for &v in a.values() {
        acc = acc.wrapping_add(v.to_bits());
    }
    for &c in a.colidx() {
        acc = acc.wrapping_add(c as u64);
    }
    acc
}

/// One case: `path` loaded through both backends, keeping (`pattern:
/// false`) or dropping (`true`) the weights at load.
fn bench_one(rows: &mut Vec<Row>, name: &str, path: &PathBuf, pattern: bool, reps: usize) {
    let bytes = std::fs::metadata(path).unwrap().len();
    let mut fingerprints = Vec::new();
    for (backend_name, prefer_mmap) in [("heap", false), ("mmap", true)] {
        let opts = LoadOpts {
            policy: CachePolicy::Off,
            mmap: prefer_mmap,
            pattern,
        };
        let load = || load_matrix(path, &opts).unwrap();
        // Cold: a SINGLE timed load+touch, the first this process makes
        // through this backend (process-cold allocators, first mapping,
        // every page faulted in; the page cache itself stays warm — the
        // file was just written, and dropping the OS cache is not
        // portable). Warm: best-of-reps against the now-resident file.
        let t0 = std::time::Instant::now();
        let (cold_a, ingest) = load();
        let cold_load = t0.elapsed().as_secs_f64();
        std::hint::black_box(touch(&cold_a));
        let cold_total = t0.elapsed().as_secs_f64();
        drop(cold_a);
        let backend = ingest.backend;

        let (warm_load, (a, _)) = time_best(reps, load);
        let (warm_total, sum) = time_best(reps, || touch(&load().0));
        std::hint::black_box(sum);

        let expect =
            if prefer_mmap && cfg!(all(target_endian = "little", target_pointer_width = "64")) {
                MsbBackend::Mmap
            } else {
                MsbBackend::Heap
            };
        assert_eq!(backend, expect, "{name}: unexpected backend");
        let report = a.storage_report();
        if backend == MsbBackend::Mmap {
            assert_eq!(
                report.heap_bytes, 0,
                "{name}: mmap load performed a per-section heap copy"
            );
        }
        fingerprints.push(csr_fingerprint(&a));
        for (phase, load_seconds, total_seconds) in [
            ("cold", cold_load, cold_total),
            ("warm", warm_load, warm_total),
        ] {
            rows.push(Row {
                dataset: name.to_string(),
                bytes,
                read_bytes: ingest.bytes,
                nnz: a.nnz(),
                backend: backend_name,
                phase,
                load_seconds,
                total_seconds,
                heap_bytes: report.heap_bytes,
                mapped_bytes: report.shared_bytes,
                unit_bytes: report.unit_bytes,
            });
        }
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "{name}: backends disagree on content"
    );
}

fn main() {
    banner(
        "msb_load",
        "heap-copy vs zero-copy mmap .msb loading, cold/warm",
    );
    let reps = env_usize("MSPGEMM_REPS", 3).max(1);
    let scale = env_usize("MSPGEMM_MSB_SCALE", 13) as u32;
    let dir = std::env::temp_dir().join("mspgemm_bench_msb_load");
    std::fs::create_dir_all(&dir).unwrap();

    let mut cases: Vec<(String, PathBuf)> = Vec::new();
    // The bundled fixture (tiny: measures fixed overheads).
    let karate = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("data/karate.mtx");
    if let Ok((_, k)) = mspgemm_io::mtx::read_mtx_file(&karate) {
        let p = dir.join("karate.msb");
        write_msb(std::fs::File::create(&p).unwrap(), &k).unwrap();
        cases.push(("karate".into(), p));
    }
    // The R-MAT (big enough that section copies dominate).
    let g = mspgemm_gen::rmat_symmetric(scale, RmatParams::default(), 5);
    let values = format!("rmat{scale}");
    let value_file = dir.join(format!("{values}.msb"));
    write_msb(std::fs::File::create(&value_file).unwrap(), &g).unwrap();
    cases.push((values.clone(), value_file.clone()));
    // The same structure as a values-less pattern stream: the value
    // section (8 bytes/entry) vanishes from the file and loads serve it
    // from the process-wide unit arena.
    let pp = dir.join(format!("rmat{scale}-pattern.msb"));
    mspgemm_io::msb::write_msb_pattern_file(&pp, &g).unwrap();
    cases.push((format!("rmat{scale}-pattern"), pp));

    let mut rows = Vec::new();
    for (name, path) in &cases {
        bench_one(&mut rows, name, path, false, reps);
    }
    // The value file again, weights dropped at load: what a `--pattern`
    // hit on the one value sidecar costs, next to the pattern stream a
    // second sidecar would have held.
    let dropped = format!("rmat{scale}-values-dropped");
    bench_one(&mut rows, &dropped, &value_file, true, reps);

    let headers = [
        "dataset",
        "bytes",
        "read_bytes",
        "nnz",
        "backend",
        "phase",
        "load_seconds",
        "load_mb_per_s",
        "total_seconds",
        "heap_bytes",
        "mapped_bytes",
        "unit_bytes",
    ];
    let mut table = Table::new(&headers);
    for r in &rows {
        table.row(&[
            r.dataset.clone(),
            r.bytes.to_string(),
            r.read_bytes.to_string(),
            r.nnz.to_string(),
            r.backend.to_string(),
            r.phase.to_string(),
            format!("{:.9}", r.load_seconds),
            format!("{:.1}", mb_per_s(r.read_bytes, r.load_seconds)),
            format!("{:.9}", r.total_seconds),
            r.heap_bytes.to_string(),
            r.mapped_bytes.to_string(),
            r.unit_bytes.to_string(),
        ]);
    }
    print!("{}", table.to_csv());
    eprint!("{}", table.to_text());

    // Headline: three ways to a unit-valued R-MAT — bytes on disk, bytes
    // read, and warm load / load+touch per backend.
    {
        let pattern = format!("rmat{scale}-pattern");
        for name in [&values, &pattern, &dropped] {
            for r in rows
                .iter()
                .filter(|r| r.dataset == *name && r.phase == "warm")
            {
                eprintln!(
                    "{name} ({}): {} bytes on disk, {} read, warm load {:.9}s, load+touch {:.9}s",
                    r.backend, r.bytes, r.read_bytes, r.load_seconds, r.total_seconds,
                );
            }
        }
        let warm = |name: &str| {
            rows.iter()
                .find(|r| r.dataset == name && r.backend == "heap" && r.phase == "warm")
                .unwrap()
        };
        assert!(
            warm(&pattern).bytes < warm(&values).bytes,
            "pattern stream must be smaller than the values stream"
        );
        assert_eq!(
            warm(&dropped).read_bytes,
            warm(&pattern).read_bytes,
            "dropping the weights at load must read exactly what a pattern stream holds"
        );
    }

    // Headline: how much cheaper resident (warm) loads got.
    for (name, _) in &cases {
        let find = |backend: &str| {
            rows.iter()
                .find(|r| r.dataset == *name && r.backend == backend && r.phase == "warm")
                .map(|r| r.load_seconds)
        };
        if let (Some(h), Some(m)) = (find("heap"), find("mmap")) {
            eprintln!(
                "{name}: warm resident load {:.1}x cheaper mapped ({:.9}s -> {:.9}s)",
                h / m.max(1e-12),
                h,
                m
            );
        }
    }

    if let Ok(json_path) = std::env::var("MSPGEMM_MSB_JSON") {
        std::fs::write(&json_path, report_json(&rows))
            .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        eprintln!("json report: {json_path}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The perf-trajectory artifact the CI bench-smoke lane uploads: one
/// record per (dataset, backend, phase).
fn report_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"bench\": \"msb_load\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"bytes\": {}, \"read_bytes\": {}, \"nnz\": {}, \
             \"backend\": \"{}\", \"phase\": \"{}\", \"load_seconds\": {:.9}, \
             \"load_mb_per_s\": {:.3}, \"total_seconds\": {:.9}, \
             \"heap_bytes\": {}, \"mapped_bytes\": {}, \"unit_bytes\": {}}}{}\n",
            json_escape(&r.dataset),
            r.bytes,
            r.read_bytes,
            r.nnz,
            r.backend,
            r.phase,
            r.load_seconds,
            mb_per_s(r.read_bytes, r.load_seconds),
            r.total_seconds,
            r.heap_bytes,
            r.mapped_bytes,
            r.unit_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
