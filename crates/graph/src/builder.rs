//! Edge-list → clean CSR normalization.
//!
//! The paper (§4) preprocesses its inputs: "Where necessary, we modified the
//! graphs to eliminate loops and multiple edges between the same two
//! vertices. We added any missing back edges to make the graphs undirected."
//! [`GraphBuilder`] performs exactly that normalization.

use crate::{CsrGraph, Edge, Vertex};

/// Accumulates raw (possibly dirty) edges and produces a clean undirected
/// [`CsrGraph`].
///
/// Accepted input may contain self-loops (dropped), duplicate edges in
/// either or both directions (collapsed), and vertices mentioned only as
/// endpoints (the vertex count grows to cover them).
///
/// ```
/// use ecl_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(0);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, other direction
/// b.add_edge(2, 2); // self-loop, dropped
/// b.add_edge(3, 1);
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with at least `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with capacity for `edges` edge insertions.
    pub fn with_capacity(num_vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds an undirected edge; direction and duplicates are irrelevant.
    /// Self-loops are silently dropped at build time.
    #[inline]
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) {
        self.num_vertices = self.num_vertices.max(u as usize + 1).max(v as usize + 1);
        self.edges.push(if u <= v { (u, v) } else { (v, u) });
    }

    /// Adds every edge from an iterator.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = Edge>) {
        for (u, v) in it {
            self.add_edge(u, v);
        }
    }

    /// Appends edges already in canonical `(min, max)` order, leaving
    /// `edges` empty with its capacity kept for reuse. `num_vertices`
    /// must exceed every endpoint, as [`Self::add_edge`] would make it.
    pub(crate) fn append_canonical(&mut self, edges: &mut Vec<Edge>, num_vertices: usize) {
        self.num_vertices = self.num_vertices.max(num_vertices);
        // Grow to powers of two, as repeated `add_edge` pushes do. The
        // edge array is a read's largest allocation, and its size decides
        // how the allocator reuses that memory once `build` frees it, and
        // with it the peak RSS of whatever runs next.
        let need = self.edges.len() + edges.len();
        if need > self.edges.capacity() {
            self.edges
                .reserve_exact(need.next_power_of_two() - self.edges.len());
        }
        self.edges.append(edges);
    }

    /// Ensures the graph has at least `n` vertices even if the trailing ones
    /// are isolated.
    pub fn ensure_vertices(&mut self, n: usize) {
        self.num_vertices = self.num_vertices.max(n);
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of raw (pre-normalization) edge insertions so far.
    pub fn num_raw_edges(&self) -> usize {
        self.edges.len()
    }

    /// Normalizes and produces the CSR graph: drops self-loops, dedupes,
    /// symmetrizes, and sorts each adjacency list ascending.
    pub fn build(mut self) -> CsrGraph {
        let n = self.num_vertices;
        // Normalize to canonical (min, max) pairs, drop loops, sort, dedup.
        self.edges.retain(|&(u, v)| u != v);
        self.edges.sort_unstable();
        self.edges.dedup();

        // Counting sort into CSR with both directions.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as Vertex; self.edges.len() * 2];
        for &(u, v) in &self.edges {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Canonical-pair iteration order guarantees each list's `v` targets
        // arrive in ascending order *per direction*, but the two directions
        // interleave, so sort each list (they are short on average).
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        CsrGraph::from_parts_unchecked(offsets, adj)
    }
}

/// Convenience: build a clean graph straight from an edge slice.
pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(num_vertices, edges.len());
    b.extend_edges(edges.iter().copied());
    b.ensure_vertices(num_vertices);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_loops() {
        let g = from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 2)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[3]);
    }

    #[test]
    fn grows_vertex_count_from_endpoints() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 9);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 1);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn isolated_vertices_preserved() {
        let mut b = GraphBuilder::new(100);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn adjacency_sorted() {
        let g = from_edges(5, &[(3, 0), (3, 4), (3, 1), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
    }

    #[test]
    fn empty_build() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        let g = GraphBuilder::new(7).build();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn only_self_loops_yields_edgeless() {
        let g = from_edges(3, &[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn symmetry_holds() {
        let g = from_edges(6, &[(0, 3), (2, 5), (1, 4), (4, 2)]);
        for (u, v) in g.directed_edges() {
            assert!(g.has_edge(v, u));
        }
    }
}
