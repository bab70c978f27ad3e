//! Structured graph generators: meshes and small-world rings. These stand
//! in, offline, for the high-locality / high-clustering members of the
//! paper's SuiteSparse test set, whose real matrices need a network
//! download (`tools/fetch_suitesparse.sh`).

use crate::rng::chunk_rng;
use mspgemm_sparse::{Coo, Csr, Idx};
use rand::Rng;

/// 2D 5-point grid graph on `rows × cols` vertices (4-neighborhood,
/// symmetric, no self loops). Banded adjacency — the high spatial locality
/// regime.
pub fn grid2d(rows: usize, cols: usize) -> Csr<f64> {
    let n = rows * cols;
    let at = |r: usize, c: usize| (r * cols + c) as Idx;
    let mut coo = Coo::new(n, n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                coo.push(at(r, c), at(r, c + 1), 1.0);
                coo.push(at(r, c + 1), at(r, c), 1.0);
            }
            if r + 1 < rows {
                coo.push(at(r, c), at(r + 1, c), 1.0);
                coo.push(at(r + 1, c), at(r, c), 1.0);
            }
        }
    }
    coo.to_csr(|a, _| a)
}

/// 3D 7-point grid graph on `x·y·z` vertices.
pub fn grid3d(x: usize, y: usize, z: usize) -> Csr<f64> {
    let n = x * y * z;
    let at = |i: usize, j: usize, k: usize| (i * y * z + j * z + k) as Idx;
    let mut coo = Coo::new(n, n);
    for i in 0..x {
        for j in 0..y {
            for k in 0..z {
                if i + 1 < x {
                    coo.push(at(i, j, k), at(i + 1, j, k), 1.0);
                    coo.push(at(i + 1, j, k), at(i, j, k), 1.0);
                }
                if j + 1 < y {
                    coo.push(at(i, j, k), at(i, j + 1, k), 1.0);
                    coo.push(at(i, j + 1, k), at(i, j, k), 1.0);
                }
                if k + 1 < z {
                    coo.push(at(i, j, k), at(i, j, k + 1), 1.0);
                    coo.push(at(i, j, k + 1), at(i, j, k), 1.0);
                }
            }
        }
    }
    coo.to_csr(|a, _| a)
}

/// Watts-Strogatz-style small world: a ring where each vertex connects to
/// its `k` nearest neighbors on each side, with each edge rewired to a
/// random endpoint with probability `p_rewire`. High clustering, short
/// diameter — plenty of triangles.
pub fn small_world(n: usize, k: usize, p_rewire: f64, seed: u64) -> Csr<f64> {
    assert!(k >= 1 && 2 * k < n, "need 1 <= k and 2k < n");
    let mut coo = Coo::new(n, n);
    let mut rng = chunk_rng(seed, 0);
    for i in 0..n {
        for d in 1..=k {
            let mut j = (i + d) % n;
            if rng.gen::<f64>() < p_rewire {
                // Rewire to a random non-self target.
                loop {
                    let cand = rng.gen_range(0..n);
                    if cand != i {
                        j = cand;
                        break;
                    }
                }
            }
            coo.push(i as Idx, j as Idx, 1.0);
            coo.push(j as Idx, i as Idx, 1.0);
        }
    }
    coo.to_csr(|a, _| a)
}

/// Block bipartite-ish community graph: `blocks` dense-ish communities of
/// size `block_size` with sparse random inter-block edges. Models the
/// clustered/low-conductance regime.
pub fn community_blocks(
    blocks: usize,
    block_size: usize,
    intra_degree: usize,
    inter_degree: usize,
    seed: u64,
) -> Csr<f64> {
    let n = blocks * block_size;
    let mut coo = Coo::new(n, n);
    let mut rng = chunk_rng(seed, 1);
    for v in 0..n {
        let b = v / block_size;
        for _ in 0..intra_degree {
            let u = b * block_size + rng.gen_range(0..block_size);
            if u != v {
                coo.push(v as Idx, u as Idx, 1.0);
                coo.push(u as Idx, v as Idx, 1.0);
            }
        }
        for _ in 0..inter_degree {
            let u = rng.gen_range(0..n);
            if u != v {
                coo.push(v as Idx, u as Idx, 1.0);
                coo.push(u as Idx, v as Idx, 1.0);
            }
        }
    }
    coo.to_csr(|a, _| a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_simple_symmetric(g: &Csr<f64>) {
        for (i, j, _) in g.iter() {
            assert_ne!(i, j as usize, "self loop");
            assert!(
                g.get(j as usize, i as Idx).is_some(),
                "asymmetric edge ({i},{j})"
            );
        }
    }

    #[test]
    fn grid2d_edge_count() {
        // rows*(cols-1) + (rows-1)*cols undirected edges, stored twice.
        let g = grid2d(4, 5);
        assert_eq!(g.nrows(), 20);
        assert_eq!(g.nnz(), 2 * (4 * 4 + 3 * 5));
        check_simple_symmetric(&g);
    }

    #[test]
    fn grid2d_corner_degrees() {
        let g = grid2d(3, 3);
        assert_eq!(g.row_nnz(0), 2, "corner");
        assert_eq!(g.row_nnz(1), 3, "edge");
        assert_eq!(g.row_nnz(4), 4, "center");
    }

    #[test]
    fn grid3d_edge_count() {
        let g = grid3d(3, 3, 3);
        assert_eq!(g.nrows(), 27);
        // 3 directions × 2*3*3 edges each = 54 undirected = 108 stored.
        assert_eq!(g.nnz(), 108);
        check_simple_symmetric(&g);
    }

    #[test]
    fn small_world_no_rewire_is_ring() {
        let g = small_world(10, 2, 0.0, 1);
        check_simple_symmetric(&g);
        for i in 0..10 {
            assert_eq!(g.row_nnz(i), 4, "each vertex has 2k neighbors");
        }
    }

    #[test]
    fn small_world_rewired_stays_simple() {
        let g = small_world(100, 3, 0.3, 7);
        check_simple_symmetric(&g);
        assert!(g.nnz() > 0);
    }

    #[test]
    fn community_blocks_simple() {
        let g = community_blocks(4, 25, 6, 1, 3);
        assert_eq!(g.nrows(), 100);
        check_simple_symmetric(&g);
    }
}
