//! The benchmark's own input generator: SplitMix64-driven R-MAT and
//! Erdős-Rényi graphs, and the Matrix Market text `mxm` receives.
//!
//! The program under test never sees a seed — only the files written
//! here — so a change to the repo's `gen` crate cannot move a benchmark
//! number.

use std::fmt::Write as _;

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state word, full
/// period, good enough to drive graph generators reproducibly.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻³² for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// R-MAT quadrant probabilities (Graph500's a, b, c; d is the rest).
const RMAT_A: f64 = 0.57;
const RMAT_B: f64 = 0.19;
const RMAT_C: f64 = 0.19;
/// Edge draws per vertex before loops and duplicates are dropped.
pub const EDGE_FACTOR: usize = 16;

/// One R-MAT draw on a `2^scale` vertex set: `(row, col)`, possibly a
/// self-loop — callers reject those.
pub fn rmat_draw(rng: &mut SplitMix64, scale: u32) -> (u32, u32) {
    let (mut i, mut j) = (0u32, 0u32);
    for _ in 0..scale {
        let r = rng.next_f64();
        let (bi, bj) = if r < RMAT_A {
            (0, 0)
        } else if r < RMAT_A + RMAT_B {
            (0, 1)
        } else if r < RMAT_A + RMAT_B + RMAT_C {
            (1, 0)
        } else {
            (1, 1)
        };
        i = (i << 1) | bi;
        j = (j << 1) | bj;
    }
    (i, j)
}

/// A simple undirected graph: each edge once as `(lo, hi)` with
/// `lo < hi`, sorted, duplicate-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    pub n: usize,
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Canonicalize an arbitrary pair list: orient, drop loops, sort,
    /// deduplicate.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (u32, u32)>) -> Graph {
        let mut edges: Vec<(u32, u32)> = pairs
            .into_iter()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Graph { n, edges }
    }

    /// R-MAT at `scale` with [`EDGE_FACTOR`] draws per vertex,
    /// symmetrised, loop- and duplicate-free.
    pub fn rmat(scale: u32, seed: u64) -> Graph {
        let n = 1usize << scale;
        let mut rng = SplitMix64::new(seed);
        Graph::from_pairs(n, (0..EDGE_FACTOR * n).map(|_| rmat_draw(&mut rng, scale)))
    }

    /// Stored positions once symmetrised (both directions of each edge).
    pub fn nnz(&self) -> usize {
        2 * self.edges.len()
    }

    /// Sorted neighbour lists, both directions.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(u, v) in &self.edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        for row in &mut adj {
            row.sort_unstable();
        }
        adj
    }

    /// Matrix Market text: `pattern symmetric`, lower triangle, 1-based —
    /// the same shape as the repo's `data/karate.mtx`, so `mxm` loads
    /// unit values in both directions.
    pub fn to_mtx(&self) -> String {
        let mut s = String::with_capacity(32 + 14 * self.edges.len());
        s.push_str("%%MatrixMarket matrix coordinate pattern symmetric\n");
        writeln!(s, "{} {} {}", self.n, self.n, self.edges.len()).unwrap();
        for &(lo, hi) in &self.edges {
            writeln!(s, "{} {}", hi + 1, lo + 1).unwrap();
        }
        s
    }

    /// Parse the `coordinate pattern symmetric` subset [`Graph::to_mtx`]
    /// writes (and `data/karate.mtx` uses): `%` comments, a size line,
    /// then 1-based `row col` pairs.
    pub fn from_mtx(text: &str) -> Result<Graph, String> {
        let mut lines = text.lines();
        let banner = lines.next().ok_or("empty .mtx")?;
        let banner_lc = banner.to_ascii_lowercase();
        if !banner_lc.starts_with("%%matrixmarket")
            || !banner_lc.contains("pattern")
            || !banner_lc.contains("symmetric")
        {
            return Err(format!("not a pattern symmetric .mtx: {banner}"));
        }
        let mut body = lines.filter(|l| !l.starts_with('%') && !l.trim().is_empty());
        let size = body.next().ok_or("missing size line")?;
        let dims: Vec<usize> = size
            .split_whitespace()
            .map(|t| t.parse().map_err(|e| format!("size line '{size}': {e}")))
            .collect::<Result<_, _>>()?;
        if dims.len() != 3 || dims[0] != dims[1] {
            return Err(format!("size line '{size}' is not 'n n nnz'"));
        }
        let mut pairs = Vec::with_capacity(dims[2]);
        for line in body {
            let mut it = line.split_whitespace();
            let mut idx = || -> Result<u32, String> {
                let t = it.next().ok_or_else(|| format!("short entry '{line}'"))?;
                let v: usize = t.parse().map_err(|e| format!("entry '{line}': {e}"))?;
                if v == 0 || v > dims[0] {
                    return Err(format!("entry '{line}' out of bounds"));
                }
                Ok((v - 1) as u32)
            };
            pairs.push((idx()?, idx()?));
        }
        if pairs.len() != dims[2] {
            return Err(format!(
                "{} entries, size line says {}",
                pairs.len(),
                dims[2]
            ));
        }
        Ok(Graph::from_pairs(dims[0], pairs))
    }
}

/// Row-wise Erdős-Rényi pattern: each of `n` rows draws `degree` columns
/// uniformly (duplicates merged), sorted — directly a CSR row list.
pub fn er_rows(n: usize, degree: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let mut cols: Vec<u32> = (0..degree).map(|_| rng.below(n as u64) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic_per_seed() {
        assert_eq!(Graph::rmat(8, 7), Graph::rmat(8, 7));
        assert_ne!(Graph::rmat(8, 7), Graph::rmat(8, 8));
    }

    #[test]
    fn rmat_is_simple_and_symmetric() {
        let g = Graph::rmat(9, 1);
        assert_eq!(g.n, 512);
        assert!(
            g.edges.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        assert!(
            g.edges.iter().all(|&(u, v)| u < v && (v as usize) < g.n),
            "loop-free"
        );
        let adj = g.adjacency();
        for (u, row) in adj.iter().enumerate() {
            for &v in row {
                assert!(
                    adj[v as usize].binary_search(&(u as u32)).is_ok(),
                    "symmetric"
                );
            }
        }
        assert_eq!(adj.iter().map(Vec::len).sum::<usize>(), g.nnz());
        // Skewed: R-MAT's hub dwarfs the mean degree.
        let max = adj.iter().map(Vec::len).max().unwrap();
        assert!(max > 4 * g.nnz() / g.n, "max degree {max}");
    }

    #[test]
    fn mtx_round_trips() {
        let g = Graph::rmat(7, 3);
        assert_eq!(Graph::from_mtx(&g.to_mtx()).unwrap(), g);
        let karate = "%%MatrixMarket matrix coordinate pattern symmetric\n% c\n3 3 2\n2 1\n3 1\n";
        let k = Graph::from_mtx(karate).unwrap();
        assert_eq!(k.edges, vec![(0, 1), (0, 2)]);
        assert!(Graph::from_mtx("%%MatrixMarket matrix coordinate real general\n1 1 0\n").is_err());
        assert!(Graph::from_mtx(
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n3 1\n"
        )
        .is_err());
    }

    #[test]
    fn er_rows_are_sorted_and_bounded() {
        let rows = er_rows(100, 8, 5);
        assert_eq!(rows, er_rows(100, 8, 5));
        for r in &rows {
            assert!(r.len() <= 8 && r.windows(2).all(|w| w[0] < w[1]));
            assert!(r.iter().all(|&c| c < 100));
        }
    }
}
