//! Dataset sources: where an experiment's graphs come from.
//!
//! The harness runners sweep `&[SuiteGraph]`; this module produces that
//! shape from either the deterministic synthetic suite (`mspgemm-gen`) or
//! a directory / explicit list of on-disk matrices, so `mxm suite` treats
//! "the paper's 26 SuiteSparse graphs on disk" and "the synthetic
//! stand-ins" identically.

use crate::error::IoError;
use crate::load::{load_graph, Format, LoadOpts};
use mspgemm_gen::{build_suite, SuiteGraph, SuiteSize};
use std::path::{Path, PathBuf};

/// Where experiment graphs come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DatasetSource {
    /// The deterministic synthetic suite.
    Synthetic(SuiteSize),
    /// Every `.mtx` / `.mm` / `.msb` file in a directory (sorted by name).
    Dir(PathBuf),
    /// An explicit list of files.
    Files(Vec<PathBuf>),
}

impl DatasetSource {
    /// Parse a CLI spelling: `synthetic` / `synthetic-full` name the
    /// built-in suite; anything else is a directory or a single file path.
    pub fn parse(s: &str) -> DatasetSource {
        match s.to_ascii_lowercase().as_str() {
            "synthetic" | "synthetic-small" => DatasetSource::Synthetic(SuiteSize::Small),
            "synthetic-full" => DatasetSource::Synthetic(SuiteSize::Full),
            _ => {
                let p = PathBuf::from(s);
                if p.is_dir() {
                    DatasetSource::Dir(p)
                } else {
                    DatasetSource::Files(vec![p])
                }
            }
        }
    }

    /// Materialize the graphs: generate, or load + normalize every
    /// dataset under `opts` (cache policy, zero-copy mmap preference for
    /// `.msb` datasets), returning them with their names.
    pub fn load(&self, opts: &LoadOpts) -> Result<Vec<SuiteGraph>, IoError> {
        match self {
            DatasetSource::Synthetic(size) => Ok(build_suite(*size)),
            DatasetSource::Dir(dir) => {
                let files = matrix_files_in(dir)?;
                if files.is_empty() {
                    return Err(IoError::Io(std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("no .mtx/.mm/.msb files in {}", dir.display()),
                    )));
                }
                load_files(&files, opts)
            }
            DatasetSource::Files(files) => load_files(files, opts),
        }
    }
}

/// Dataset name for a path: the file stem.
pub fn dataset_name(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// The loadable matrix files directly inside `dir`, sorted by file name.
pub fn matrix_files_in(dir: &Path) -> Result<Vec<PathBuf>, IoError> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file() && Format::from_path(p).is_ok())
        .collect();
    // A text file and its sidecar cache are one dataset. Keep the text
    // file — the cache layer serves the sidecar only when it is fresh, so
    // an edited .mtx with a stale .msb next to it reloads correctly.
    // Order text before binary for equal stems, then dedup (keeps first).
    let rank = |p: &Path| match Format::from_path(p) {
        Ok(Format::Mtx) => 0u8,
        _ => 1,
    };
    files.sort_by_key(|p| (p.with_extension(""), rank(p)));
    files.dedup_by(|b, a| a.file_stem() == b.file_stem() && a.parent() == b.parent());
    Ok(files)
}

fn load_files(files: &[PathBuf], opts: &LoadOpts) -> Result<Vec<SuiteGraph>, IoError> {
    files
        .iter()
        .map(|p| {
            let (adj, _) = load_graph(p, opts).map_err(|e| match e {
                IoError::Parse { line, msg } => IoError::Parse {
                    line,
                    msg: format!("{}: {msg}", p.display()),
                },
                other => other,
            })?;
            Ok(SuiteGraph::new(dataset_name(p), adj))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{policy, CachePolicy};
    use mspgemm_sparse::Coo;

    fn write_cycle(path: &Path, n: usize) {
        let mut coo = Coo::new(n, n);
        for u in 0..n {
            let v = (u + 1) % n;
            coo.push(u as u32, v as u32, 1.0);
        }
        crate::mtx::write_mtx_file(path, &coo.to_csr(|a, _| a)).unwrap();
    }

    #[test]
    fn synthetic_source_matches_gen() {
        let s = DatasetSource::parse("synthetic");
        assert_eq!(s, DatasetSource::Synthetic(SuiteSize::Small));
        let graphs = s.load(&policy(CachePolicy::Off)).unwrap();
        assert_eq!(graphs.len(), build_suite(SuiteSize::Small).len());
    }

    #[test]
    fn dir_source_loads_sorted_and_named() {
        let dir = std::env::temp_dir().join("mspgemm_io_source_dir");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        write_cycle(&dir.join("b_ring.mtx"), 6);
        write_cycle(&dir.join("a_ring.mtx"), 4);
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let graphs = DatasetSource::parse(dir.to_str().unwrap())
            .load(&policy(CachePolicy::Off))
            .unwrap();
        let names: Vec<&str> = graphs.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, ["a_ring", "b_ring"]);
        // Directed cycles symmetrize into undirected rings: 2 entries/node.
        assert_eq!(graphs[0].adj.nnz(), 8);
        assert_eq!(graphs[1].adj.nnz(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sidecar_not_double_counted() {
        // Plain and pattern loads alike: whatever the first scan caches
        // next to ring.mtx, the second scan still sees ONE dataset.
        for pattern in [false, true] {
            let dir = std::env::temp_dir().join(format!("mspgemm_io_source_sidecar_{pattern}"));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            write_cycle(&dir.join("ring.mtx"), 5);
            let opts = LoadOpts {
                pattern,
                ..LoadOpts::default()
            };
            for scan in ["cold", "warm"] {
                let graphs = DatasetSource::Dir(dir.clone()).load(&opts).unwrap();
                let names: Vec<&str> = graphs.iter().map(|g| g.name.as_str()).collect();
                assert_eq!(names, ["ring"], "pattern={pattern}, {scan} scan");
            }
            assert!(dir.join("ring.msb").exists());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stale_sidecar_does_not_shadow_edited_text_file() {
        // "g.msb" sorts before "g.mtx", but the scan must keep the text
        // file so the cache layer's freshness check decides which wins —
        // an edited .mtx with a stale sidecar must reload from text.
        let dir = std::env::temp_dir().join("mspgemm_io_source_stale");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("g.mtx");
        write_cycle(&mtx, 3);
        let graphs = DatasetSource::Dir(dir.clone())
            .load(&LoadOpts::default())
            .unwrap();
        assert_eq!(graphs[0].adj.nrows(), 3);
        assert!(dir.join("g.msb").exists());

        // Edit the dataset; ensure its mtime moves past the sidecar's
        // (some filesystems have coarse timestamps).
        std::thread::sleep(std::time::Duration::from_millis(20));
        write_cycle(&mtx, 4);
        let graphs = DatasetSource::Dir(dir.clone())
            .load(&LoadOpts::default())
            .unwrap();
        assert_eq!(graphs.len(), 1);
        assert_eq!(
            graphs[0].adj.nrows(),
            4,
            "stale sidecar served instead of edited text"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_is_an_error() {
        let dir = std::env::temp_dir().join("mspgemm_io_source_empty");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert!(DatasetSource::Dir(dir.clone())
            .load(&policy(CachePolicy::Off))
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_names() {
        assert_eq!(dataset_name(Path::new("/x/y/road_usa.mtx")), "road_usa");
        assert_eq!(dataset_name(Path::new("g.msb")), "g");
    }
}
