//! The benchmark's reference for graph answers: a std-only
//! sorted-intersection triangle count, and an edge-set model whose
//! triangle total is maintained exactly under insert/delete — what every
//! `tc` response of the `serve-update` workload is checked against.

use crate::gen::Graph;

/// `|a ∩ b|` of two sorted, duplicate-free lists.
fn common(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Triangles of a simple undirected graph: every triangle `u < v < w`
/// is found once, at edge `(u, v)`, as a common *higher* neighbour.
pub fn triangles(g: &Graph) -> u64 {
    let mut hi = vec![Vec::new(); g.n];
    for &(u, v) in &g.edges {
        hi[u as usize].push(v);
    }
    g.edges
        .iter()
        .map(|&(u, v)| common(&hi[u as usize], &hi[v as usize]))
        .sum()
}

/// A mutable simple undirected graph with its exact triangle total.
#[derive(Clone)]
pub struct Model {
    adj: Vec<Vec<u32>>,
    edges: usize,
    triangles: u64,
}

impl Model {
    pub fn new(g: &Graph) -> Model {
        Model {
            adj: g.adjacency(),
            edges: g.edges.len(),
            triangles: triangles(g),
        }
    }

    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Insert `{u, v}`; `false` (and no change) for a loop or an edge
    /// already present. A new edge closes one triangle per common
    /// neighbour.
    pub fn insert(&mut self, u: u32, v: u32) -> bool {
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.triangles += common(&self.adj[u as usize], &self.adj[v as usize]);
        for (a, b) in [(u, v), (v, u)] {
            let row = &mut self.adj[a as usize];
            let at = row.binary_search(&b).unwrap_err();
            row.insert(at, b);
        }
        self.edges += 1;
        true
    }

    /// Delete `{u, v}`; `false` (and no change) when absent.
    pub fn delete(&mut self, u: u32, v: u32) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        for (a, b) in [(u, v), (v, u)] {
            let row = &mut self.adj[a as usize];
            let at = row.binary_search(&b).unwrap();
            row.remove(at);
        }
        self.triangles -= common(&self.adj[u as usize], &self.adj[v as usize]);
        self.edges -= 1;
        true
    }

    /// The current edge set as a canonical [`Graph`].
    pub fn graph(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.edges);
        for (u, row) in self.adj.iter().enumerate() {
            edges.extend(
                row.iter()
                    .filter(|&&v| v as usize > u)
                    .map(|&v| (u as u32, v)),
            );
        }
        Graph {
            n: self.adj.len(),
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SplitMix64;

    #[test]
    fn counts_small_graphs() {
        let tri = Graph::from_pairs(3, [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangles(&tri), 1);
        let k4 = Graph::from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(triangles(&k4), 4);
        let path = Graph::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(triangles(&path), 0);
    }

    #[test]
    fn model_tracks_recount_under_random_edits() {
        let g = Graph::rmat(7, 11);
        let mut m = Model::new(&g);
        let mut rng = SplitMix64::new(5);
        let mut inserted = Vec::new();
        for step in 0..400 {
            if step % 3 == 2 && !inserted.is_empty() {
                let (u, v) = inserted.remove(0);
                assert!(m.delete(u, v));
                assert!(!m.delete(u, v), "second delete is a no-op");
            } else {
                let (u, v) = (rng.below(128) as u32, rng.below(128) as u32);
                if m.insert(u, v) {
                    inserted.push((u, v));
                    assert!(!m.insert(v, u), "duplicate insert is a no-op");
                }
            }
            assert_eq!(m.triangles(), triangles(&m.graph()), "step {step}");
        }
        assert!(!m.insert(3, 3), "loops are rejected");
    }

    #[test]
    fn model_graph_round_trips() {
        let g = Graph::rmat(6, 2);
        assert_eq!(Model::new(&g).graph(), g);
    }
}
