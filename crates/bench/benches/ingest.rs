//! Ingest microbenchmark: the chunked `.mtx` byte parser at each parse
//! fan-out, on a generated R-MAT matrix (plus any real file named by
//! `MSPGEMM_INGEST_FILE`). Emits CSV on stdout, an aligned table on
//! stderr, and — for the CI perf lane — a JSON report at
//! `MSPGEMM_INGEST_JSON`. The base row is fan-out 1 (one chunk, parsed on
//! the calling thread), checked against the generated matrix; every other
//! fan-out is cross-checked against it before its timing counts.
//!
//! Environment knobs (defaults keep the run CI-sized):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MSPGEMM_INGEST_SCALE` | R-MAT scale of the generated matrix | 13 |
//! | `MSPGEMM_INGEST_THREADS` | comma list of parse fan-outs beside 1 | 2,4,8 |
//! | `MSPGEMM_INGEST_FILE` | extra `.mtx` file to include | (none) |
//! | `MSPGEMM_INGEST_JSON` | write the JSON report to this path | (none) |
//! | `MSPGEMM_REPS` | timing repetitions (best-of) | 3 |

use mspgemm_bench::banner;
use mspgemm_gen::RmatParams;
use mspgemm_harness::report::{json_escape, Table};
use mspgemm_harness::{entries_per_s, env_usize, env_usize_list, mb_per_s, time_best};
use mspgemm_io::mtx::{read_mtx_bytes, write_mtx, MtxField};
use mspgemm_sparse::Csr;

struct Row {
    dataset: String,
    bytes: usize,
    entries: usize,
    threads: usize,
    seconds: f64,
    speedup: f64,
}

fn thread_list() -> Vec<usize> {
    env_usize_list("MSPGEMM_INGEST_THREADS", "2,4,8")
}

fn main() {
    banner(
        "ingest",
        "chunked .mtx parse by fan-out, against one chunk (MB/s, entries/s)",
    );
    let reps = env_usize("MSPGEMM_REPS", 3).max(1);
    let scale = env_usize("MSPGEMM_INGEST_SCALE", 13) as u32;
    let threads = thread_list();

    // The matrix each text must parse to, where the bench generated it.
    let mut datasets: Vec<(String, Vec<u8>, Option<Csr<f64>>)> = Vec::new();
    if let Ok(path) = std::env::var("MSPGEMM_INGEST_FILE") {
        let name = std::path::Path::new(&path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        // Cargo runs bench binaries from the package dir; fall back to
        // workspace-root-relative so `data/karate.mtx` works from CI.
        let bytes = std::fs::read(&path)
            .or_else(|_| {
                std::fs::read(
                    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                        .join("../..")
                        .join(&path),
                )
            })
            .unwrap_or_else(|e| panic!("MSPGEMM_INGEST_FILE {path}: {e}"));
        datasets.push((name, bytes, None));
    }
    let g = mspgemm_gen::rmat_symmetric(scale, RmatParams::default(), 5);
    let mut buf = Vec::new();
    write_mtx(&mut buf, &g, MtxField::Real).unwrap();
    datasets.push((format!("rmat{scale}"), buf, Some(g)));

    let mut rows: Vec<Row> = Vec::new();
    for (name, bytes, written) in &datasets {
        let (base_secs, (header, base)) = time_best(reps, || read_mtx_bytes(bytes, 1).unwrap());
        if let Some(g) = written {
            assert_eq!(
                &base, g,
                "{name}: one-chunk parse is not the written matrix"
            );
        }
        let mut row = |threads, seconds: f64| {
            rows.push(Row {
                dataset: name.clone(),
                bytes: bytes.len(),
                entries: header.stored_entries,
                threads,
                seconds,
                speedup: base_secs / seconds.max(1e-12),
            })
        };
        row(1, base_secs);
        for &t in threads.iter().filter(|&&t| t != 1) {
            let (secs, (_, par)) = time_best(reps, || read_mtx_bytes(bytes, t).unwrap());
            assert_eq!(
                par, base,
                "{name}: CSR diverged from one chunk at fan-out {t}"
            );
            row(t, secs);
        }
    }

    let headers = [
        "dataset",
        "bytes",
        "entries",
        "threads",
        "seconds",
        "mb_per_s",
        "entries_per_s",
        "speedup_vs_1",
    ];
    let mut table = Table::new(&headers);
    for r in &rows {
        table.row(&[
            r.dataset.clone(),
            r.bytes.to_string(),
            r.entries.to_string(),
            r.threads.to_string(),
            format!("{:.6}", r.seconds),
            format!("{:.2}", mb_per_s(r.bytes as u64, r.seconds)),
            format!("{:.0}", entries_per_s(r.entries, r.seconds)),
            format!("{:.2}", r.speedup),
        ]);
    }
    print!("{}", table.to_csv());
    eprint!("{}", table.to_text());

    if let Ok(json_path) = std::env::var("MSPGEMM_INGEST_JSON") {
        std::fs::write(&json_path, report_json(&rows))
            .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        eprintln!("json report: {json_path}");
    }
}

/// The perf-trajectory artifact the CI benchmark-smoke lane uploads:
/// one record per (dataset, fan-out).
fn report_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"bench\": \"ingest\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"bytes\": {}, \"entries\": {}, \
             \"threads\": {}, \"seconds\": {:.9}, \
             \"mb_per_s\": {:.3}, \"entries_per_s\": {:.1}, \"speedup_vs_1\": {:.3}}}{}\n",
            json_escape(&r.dataset),
            r.bytes,
            r.entries,
            r.threads,
            r.seconds,
            mb_per_s(r.bytes as u64, r.seconds),
            entries_per_s(r.entries, r.seconds),
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
