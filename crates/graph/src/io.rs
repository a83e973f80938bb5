//! Graph serialization: plain edge lists, DIMACS `.gr`, Matrix Market
//! coordinate format, and a compact little-endian binary CSR format.
//!
//! The paper pulls inputs from four repositories (DIMACS, Galois, SNAP,
//! SMC); these readers cover the formats those repositories distribute so
//! real inputs can be dropped in where available. All readers feed
//! [`GraphBuilder`], so dirty input (loops, duplicates, one-directional
//! edges) is normalized exactly as the paper describes.

use crate::{CsrGraph, GraphBuilder, Vertex};
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

#[cfg(test)]
mod differential;
mod text;

/// Graph file formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Whitespace edge list (`u v` per line).
    EdgeList,
    /// DIMACS `.gr`.
    Dimacs,
    /// Matrix Market coordinate.
    MatrixMarket,
    /// ECLCSR01 binary.
    Binary,
    /// Galois binary `.gr` (version 1).
    GaloisGr,
}

impl Format {
    /// Infers the format from a file extension; `None` if unknown.
    pub fn from_path(path: &Path) -> Option<Format> {
        match path.extension()?.to_str()? {
            "el" | "txt" | "edges" => Some(Format::EdgeList),
            "gr" | "dimacs" => Some(Format::Dimacs),
            "mtx" | "mm" => Some(Format::MatrixMarket),
            "ecl" | "bin" => Some(Format::Binary),
            "sgr" | "vgr" => Some(Format::GaloisGr),
            _ => None,
        }
    }

    /// Parses an explicit format name (the CLI's `--format` values).
    pub fn from_name(name: &str) -> Option<Format> {
        match name {
            "edgelist" | "el" => Some(Format::EdgeList),
            "dimacs" | "gr" => Some(Format::Dimacs),
            "matrixmarket" | "mtx" => Some(Format::MatrixMarket),
            "binary" | "ecl" => Some(Format::Binary),
            "galois" | "sgr" => Some(Format::GaloisGr),
            _ => None,
        }
    }
}

/// Reads a graph file in the given format, or the one its extension
/// names. Errors are messages that name the path.
pub fn read_path(path: &Path, format: Option<Format>) -> Result<CsrGraph, String> {
    let format = format
        .or_else(|| Format::from_path(path))
        .ok_or_else(|| format!("cannot infer format of {}; pass --format", path.display()))?;
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // The text readers read in blocks of their own; the binary ones read
    // field by field and need the buffer.
    let res = match format {
        Format::EdgeList => read_edge_list(file),
        Format::Dimacs => read_dimacs(file),
        Format::MatrixMarket => read_matrix_market(file),
        Format::Binary => read_binary(BufReader::new(file)),
        Format::GaloisGr => read_galois_gr(BufReader::new(file)),
    };
    res.map_err(|e| format!("{}: {e}", path.display()))
}

/// Errors produced by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the input text, with a human-readable message.
    Parse(String),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

fn parse_err(msg: impl Into<String>) -> IoError {
    IoError::Parse(msg.into())
}

/// Ceiling on preallocation driven by *untrusted* header fields. A tiny
/// file can declare a huge element count; allocating it up front would be
/// an OOM denial-of-service. Within the cap we preallocate for speed;
/// beyond it the `Vec`s grow as actual data arrives, so a lying header
/// fails with a truncation error instead of exhausting memory.
const MAX_TRUSTED_PREALLOC: usize = 1 << 20;

fn capped(declared: usize) -> usize {
    declared.min(MAX_TRUSTED_PREALLOC)
}

/// Ceiling on the vertex count a *text* header may declare. Unlike edge
/// counts (covered by [`MAX_TRUSTED_PREALLOC`] — the `Vec`s grow only as
/// actual data arrives), a declared vertex count flows into the O(n) CSR
/// offset array even when no arc ever references those vertices, so a
/// 20-byte file claiming 4 billion vertices would allocate tens of GB.
/// The binary formats are self-limiting (a lying header trips the
/// truncation check first); for DIMACS and Matrix Market we refuse
/// declarations past this bound — 2^28 ≈ 268M vertices, ~5× the largest
/// graph in the paper's evaluation.
const MAX_DECLARED_VERTICES: usize = 1 << 28;

fn check_declared_vertices(n: usize, what: &str) -> Result<(), IoError> {
    if n >= Vertex::MAX as usize {
        return Err(parse_err(format!("declared {what} {n} exceeds 32-bit IDs")));
    }
    if n > MAX_DECLARED_VERTICES {
        return Err(parse_err(format!(
            "declared {what} {n} exceeds the reader limit {MAX_DECLARED_VERTICES}; \
             refusing header-driven allocation"
        )));
    }
    Ok(())
}

/// The error for an edge-list line naming a vertex ID at or above
/// [`MAX_DECLARED_VERTICES`]. An edge list declares its vertex count
/// through its largest ID, so a 13-byte line `0 4294967295` would
/// otherwise size a 2^32-entry CSR offset array.
fn vertex_id_over_limit(no: usize, id: Vertex) -> IoError {
    parse_err(format!(
        "line {no}: vertex ID {id} exceeds the reader limit {MAX_DECLARED_VERTICES}; \
         refusing ID-driven allocation"
    ))
}

/// Reads a whitespace-separated edge list (SNAP style): one `u v` pair per
/// line, `#`- and `%`-prefixed comment lines ignored, tokens after the
/// second ignored. Vertex IDs are used as-is; an ID at or above 2^28 is
/// refused with a parse error naming its line, unless another line of the
/// file fails to parse, whose error is returned instead.
///
/// The input is read in bounded blocks, each parsed in parallel on the
/// available cores; see `io::text` for the exact line and token rules.
pub fn read_edge_list(r: impl Read) -> Result<CsrGraph, IoError> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    text::read_edge_list_with(r, threads, text::BLOCK_BYTES)
}

/// Writes the graph as an edge list, each undirected edge once (`u < v`).
pub fn write_edge_list(g: &CsrGraph, mut w: impl Write) -> io::Result<()> {
    writeln!(w, "# ecl-graph edge list: {} vertices", g.num_vertices())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Reads a DIMACS shortest-path `.gr` file: `c` comments, one
/// `p sp <n> <m>` problem line, and `a <u> <v> <w>` arc lines with
/// 1-indexed vertices (weights ignored — CC is unweighted).
pub fn read_dimacs(r: impl Read) -> Result<CsrGraph, IoError> {
    let mut b = GraphBuilder::new(0);
    let mut declared_n = None;
    text::for_each_line(r, |no, line| {
        let t = line.trim();
        if t.is_empty() || t.starts_with('c') {
            return Ok(());
        }
        if let Some(rest) = t.strip_prefix("p ") {
            if declared_n.is_some() {
                return Err(parse_err(format!("line {no}: duplicate problem line")));
            }
            let mut it = rest.split_whitespace();
            let _kind = it.next();
            let n: usize = it
                .next()
                .ok_or_else(|| parse_err("problem line missing n"))?
                .parse()
                .map_err(|e| parse_err(format!("problem line: {e}")))?;
            check_declared_vertices(n, "vertex count")?;
            declared_n = Some(n);
            b.ensure_vertices(n);
        } else if let Some(rest) = t.strip_prefix("a ") {
            if declared_n.is_none() {
                return Err(parse_err(format!(
                    "line {no}: arc before the problem line (missing `p` header?)"
                )));
            }
            let mut it = rest.split_whitespace();
            let u = text::vertex(it.next(), "line", no, "u")?;
            let v = text::vertex(it.next(), "line", no, "v")?;
            if u == 0 || v == 0 {
                return Err(parse_err(format!(
                    "line {no}: DIMACS vertices are 1-indexed"
                )));
            }
            b.add_edge(u - 1, v - 1);
        } else {
            return Err(parse_err(format!("line {no}: unrecognized record '{t}'")));
        }
        Ok(())
    })?;
    if let Some(n) = declared_n {
        if b.num_vertices() > n {
            return Err(parse_err(format!(
                "arc endpoints exceed declared vertex count {n}"
            )));
        }
    }
    Ok(b.build())
}

/// Reads a Matrix Market coordinate-pattern file (the SMC distribution
/// format): `%%MatrixMarket`-header, size line `rows cols nnz`, then
/// 1-indexed `i j [value]` entries. The matrix must be square; values are
/// ignored and the pattern is symmetrized.
pub fn read_matrix_market(r: impl Read) -> Result<CsrGraph, IoError> {
    let mut header_seen = false;
    // (dimension, declared nnz, the size line's number)
    let mut size: Option<(usize, usize, usize)> = None;
    let mut b = GraphBuilder::new(0);
    let mut entries = 0usize;
    text::for_each_line(r, |no, line| {
        if !header_seen {
            header_seen = true;
            if !line.starts_with("%%MatrixMarket") {
                return Err(parse_err("missing %%MatrixMarket header"));
            }
            return Ok(());
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            return Ok(());
        }
        let Some((n, nnz, size_line)) = size else {
            let dims: Vec<usize> = t
                .split_whitespace()
                .map(|s| s.parse::<usize>())
                .collect::<Result<_, _>>()
                .map_err(|e| parse_err(format!("size line: {e}")))?;
            if dims.len() != 3 {
                return Err(parse_err("size line must have rows cols nnz"));
            }
            if dims[0] != dims[1] {
                return Err(parse_err(format!(
                    "matrix must be square, got {}x{}",
                    dims[0], dims[1]
                )));
            }
            check_declared_vertices(dims[0], "dimension")?;
            b = GraphBuilder::with_capacity(capped(dims[0]), capped(dims[2]));
            b.ensure_vertices(dims[0]);
            size = Some((dims[0], dims[2], no));
            return Ok(());
        };
        // Entries are numbered from the line after the size line.
        let entry = no - size_line;
        entries += 1;
        if entries > nnz {
            return Err(parse_err(format!(
                "more entries than the declared nnz {nnz}"
            )));
        }
        let mut it = t.split_whitespace();
        let i = text::vertex(it.next(), "entry", entry, "row")?;
        let j = text::vertex(it.next(), "entry", entry, "col")?;
        if i == 0 || j == 0 {
            return Err(parse_err("Matrix Market entries are 1-indexed"));
        }
        if i as usize > n || j as usize > n {
            return Err(parse_err(format!(
                "entry ({i}, {j}) outside the declared {n}x{n} matrix"
            )));
        }
        b.add_edge(i - 1, j - 1);
        Ok(())
    })?;
    if !header_seen {
        return Err(parse_err("empty file"));
    }
    if size.is_none() {
        return Err(parse_err("missing size line"));
    }
    Ok(b.build())
}

/// Reads a Galois binary `.gr` file (format version 1) — the format the
/// paper's Galois-sourced inputs (`2d-2e20.sym`, `r4-2e23.sym`,
/// `rmat*.sym`) are distributed in: a 4×`u64` header (version,
/// edge-data size, `n`, `m`), `n` little-endian `u64` *end* offsets,
/// then `m` `u32` destinations (padded to 8-byte alignment). Edge data,
/// if present, is ignored (CC is unweighted).
pub fn read_galois_gr(mut r: impl Read) -> Result<CsrGraph, IoError> {
    let mut u64buf = [0u8; 8];
    let mut read_u64 = |r: &mut dyn Read| -> Result<u64, IoError> {
        r.read_exact(&mut u64buf)?;
        Ok(u64::from_le_bytes(u64buf))
    };
    let version = read_u64(&mut r)?;
    if version != 1 {
        return Err(parse_err(format!("unsupported .gr version {version}")));
    }
    let _edge_data_size = read_u64(&mut r)?;
    let n64 = read_u64(&mut r)?;
    let m64 = read_u64(&mut r)?;
    if n64 >= u64::from(Vertex::MAX) || m64 >= u64::from(Vertex::MAX) {
        return Err(parse_err(format!(
            "header declares {n64} nodes / {m64} edges; exceeds 32-bit IDs"
        )));
    }
    let (n, m) = (n64 as usize, m64 as usize);
    let mut offsets = Vec::with_capacity(capped(n + 1));
    offsets.push(0usize);
    let mut prev = 0u64;
    for i in 0..n {
        let end = read_u64(&mut r)?;
        if end < prev || end as usize > m {
            return Err(parse_err(format!("non-monotone out-index at node {i}")));
        }
        offsets.push(end as usize);
        prev = end;
    }
    if offsets[n] != m {
        return Err(parse_err(format!(
            "last out-index {} != edge count {m}",
            offsets[n]
        )));
    }
    let mut dests = Vec::with_capacity(capped(m));
    let mut u32buf = [0u8; 4];
    for _ in 0..m {
        r.read_exact(&mut u32buf)?;
        dests.push(u32::from_le_bytes(u32buf));
    }
    // Normalize through the builder: .gr files are directed and may have
    // loops/duplicates; the paper symmetrizes and cleans them (§4).
    let mut b = GraphBuilder::with_capacity(capped(n), capped(m));
    b.ensure_vertices(n);
    for v in 0..n {
        for &u in &dests[offsets[v]..offsets[v + 1]] {
            if (u as usize) >= n {
                return Err(parse_err(format!("destination {u} out of range")));
            }
            b.add_edge(v as Vertex, u);
        }
    }
    Ok(b.build())
}

/// Writes a Galois binary `.gr` file (version 1, no edge data), storing
/// both directions of each edge, matching how the `.sym` inputs are
/// distributed.
pub fn write_galois_gr(g: &CsrGraph, mut w: impl Write) -> io::Result<()> {
    w.write_all(&1u64.to_le_bytes())?; // version
    w.write_all(&0u64.to_le_bytes())?; // edge data size
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_directed_edges() as u64).to_le_bytes())?;
    for v in g.vertices() {
        w.write_all(&(g.neighbor_end(v) as u64).to_le_bytes())?;
    }
    for &u in g.adjacency() {
        w.write_all(&u.to_le_bytes())?;
    }
    // Pad the u32 destination block to 8-byte alignment.
    if g.num_directed_edges() % 2 == 1 {
        w.write_all(&[0u8; 4])?;
    }
    Ok(())
}

const BINARY_MAGIC: &[u8; 8] = b"ECLCSR01";

/// Writes the compact binary CSR format: magic, `n`, `2m`, offsets as
/// `u64`, adjacency as `u32`, all little-endian. Round-trips exactly.
pub fn write_binary(g: &CsrGraph, mut w: impl Write) -> io::Result<()> {
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_directed_edges() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for &v in g.adjacency() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads the binary CSR format written by [`write_binary`]. Validates all
/// CSR invariants before returning.
pub fn read_binary(mut r: impl Read) -> Result<CsrGraph, IoError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(parse_err("bad magic; not an ECLCSR01 file"));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n64 = u64::from_le_bytes(buf8);
    r.read_exact(&mut buf8)?;
    let dm64 = u64::from_le_bytes(buf8);
    if n64 >= u64::from(Vertex::MAX) || dm64 >= u64::from(Vertex::MAX) {
        return Err(parse_err(format!(
            "header declares {n64} vertices / {dm64} directed edges; exceeds 32-bit IDs"
        )));
    }
    let (n, dm) = (n64 as usize, dm64 as usize);
    let mut offsets = Vec::with_capacity(capped(n + 1));
    for _ in 0..=n {
        r.read_exact(&mut buf8)?;
        offsets.push(u64::from_le_bytes(buf8) as usize);
    }
    let mut adj = Vec::with_capacity(capped(dm));
    let mut buf4 = [0u8; 4];
    for _ in 0..dm {
        r.read_exact(&mut buf4)?;
        adj.push(u32::from_le_bytes(buf4));
    }
    CsrGraph::from_parts(offsets, adj).map_err(IoError::Parse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn edge_list_roundtrip() {
        let g = generate::gnm_random(200, 600, 1);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        // Isolated trailing vertices are lost in edge-list form; compare
        // edges only.
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn edge_list_comments_and_blank_lines() {
        let text = "# comment\n\n0 1\n% more\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_bad_token() {
        let e = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse(_)));
    }

    #[test]
    fn dimacs_roundtrip_semantics() {
        let text = "c road graph\np sp 4 3\na 1 2 10\na 2 3 5\na 3 2 5\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2); // (0,1), (1,2); duplicate collapsed
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn dimacs_rejects_zero_index() {
        let e = read_dimacs("a 0 1 1\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse(_)));
    }

    #[test]
    fn dimacs_rejects_out_of_range() {
        let e = read_dimacs("p sp 2 1\na 1 5 1\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse(_)));
    }

    #[test]
    fn matrix_market_basic() {
        let text =
            "%%MatrixMarket matrix coordinate pattern symmetric\n% c\n3 3 3\n1 2\n2 3\n3 3\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2); // diagonal entry (self loop) dropped
    }

    #[test]
    fn matrix_market_rejects_rectangular() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n3 4 0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn galois_gr_roundtrip() {
        let g = generate::rmat(8, 6, generate::RmatParams::GALOIS, 11);
        let mut buf = Vec::new();
        write_galois_gr(&g, &mut buf).unwrap();
        let g2 = read_galois_gr(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn galois_gr_directed_input_symmetrized() {
        // Hand-build a v1 .gr with only one direction per edge: 3 nodes,
        // edges 0->1, 0->2 (out-index ends: 2, 2, 2).
        let mut buf = Vec::new();
        for v in [1u64, 0, 3, 2] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for end in [2u64, 2, 2] {
            buf.extend_from_slice(&end.to_le_bytes());
        }
        for d in [1u32, 2] {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        let g = read_galois_gr(&buf[..]).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 0), "back edge must be added");
    }

    #[test]
    fn galois_gr_rejects_bad_version_and_bounds() {
        let mut buf = Vec::new();
        for v in [2u64, 0, 1, 0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        assert!(matches!(read_galois_gr(&buf[..]), Err(IoError::Parse(_))));

        let mut buf = Vec::new();
        for v in [1u64, 0, 2, 1] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for end in [1u64, 1] {
            buf.extend_from_slice(&end.to_le_bytes());
        }
        buf.extend_from_slice(&9u32.to_le_bytes()); // dest out of range
        assert!(matches!(read_galois_gr(&buf[..]), Err(IoError::Parse(_))));
    }

    #[test]
    fn binary_roundtrip_exact() {
        let g = generate::rmat(8, 8, generate::RmatParams::GALOIS, 4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_bad_magic() {
        let e = read_binary(&b"NOTMAGIC"[..]).unwrap_err();
        assert!(matches!(e, IoError::Parse(_)));
    }

    #[test]
    fn binary_truncated() {
        let g = generate::path(10);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_binary(&buf[..]), Err(IoError::Io(_))));
    }

    // ------------------------------------------------------------------
    // Malformed-input battery: every case must return IoError — never
    // panic, never attempt a header-sized allocation.
    // ------------------------------------------------------------------

    #[test]
    fn edge_list_vertex_id_overflow() {
        // 2^32 does not fit a u32 vertex ID.
        let e = read_edge_list("0 4294967296\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse(_)));
    }

    #[test]
    fn edge_list_negative_and_garbage_tokens() {
        for bad in ["-1 2\n", "0 -2\n", "1e3 4\n", "0x10 1\n", "∞ 1\n"] {
            let e = read_edge_list(bad.as_bytes()).unwrap_err();
            assert!(matches!(e, IoError::Parse(_)), "{bad:?}");
        }
    }

    #[test]
    fn edge_list_missing_target() {
        let e = read_edge_list("7\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse(_)));
    }

    #[test]
    fn dimacs_rejects_duplicate_problem_line() {
        let text = "p sp 3 1\np sp 3 1\na 1 2 1\n";
        let e = read_dimacs(text.as_bytes()).unwrap_err();
        assert!(
            matches!(e, IoError::Parse(ref m) if m.contains("duplicate")),
            "{e}"
        );
    }

    #[test]
    fn dimacs_rejects_arc_before_header() {
        let e = read_dimacs("a 1 2 1\n".as_bytes()).unwrap_err();
        assert!(
            matches!(e, IoError::Parse(ref m) if m.contains("problem line")),
            "{e}"
        );
    }

    #[test]
    fn dimacs_rejects_oversized_declaration() {
        // Declares 2^32 vertices: cannot be indexed by u32, and must not
        // be allocated either.
        let e = read_dimacs("p sp 4294967296 0\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse(_)));
    }

    #[test]
    fn dimacs_rejects_huge_vertex_declaration_no_oom() {
        // 4e9 fits in u32 but would drive a ~32 GB CSR offset allocation
        // off a 20-byte file; the declared-vertex ceiling refuses it.
        let e = read_dimacs("p sp 4000000000 5\n".as_bytes()).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("reader limit"), "got: {msg}");
    }

    #[test]
    fn edge_list_rejects_huge_vertex_id_no_oom() {
        // 13 bytes naming vertex 2^32 - 1 would size a 2^32-entry CSR
        // offset array; the reader limit refuses it, naming the line.
        let e = read_edge_list("# x\n0 4294967295".as_bytes()).unwrap_err();
        let msg = e.to_string();
        assert!(
            matches!(e, IoError::Parse(_))
                && msg.contains("line 2: vertex ID 4294967295")
                && msg.contains("reader limit"),
            "got: {msg}"
        );
        // A parse error on a later line keeps priority.
        let e = read_edge_list("0 4294967295\n1 x\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 2: invalid digit"), "got: {e}");
    }

    #[test]
    fn matrix_market_rejects_huge_dimension_no_oom() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    4000000000 4000000000 1\n1 2\n";
        let e = read_matrix_market(text.as_bytes()).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("reader limit"), "got: {msg}");
    }

    #[test]
    fn dimacs_rejects_garbage_tokens() {
        let e = read_dimacs("p sp 3 1\na one 2 1\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse(_)));
        let e = read_dimacs("p sp x 1\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse(_)));
    }

    #[test]
    fn matrix_market_missing_header() {
        let e = read_matrix_market("3 3 1\n1 2\n".as_bytes()).unwrap_err();
        assert!(
            matches!(e, IoError::Parse(ref m) if m.contains("MatrixMarket")),
            "{e}"
        );
    }

    #[test]
    fn matrix_market_empty_and_headerless() {
        assert!(read_matrix_market("".as_bytes()).is_err());
        assert!(read_matrix_market("%%MatrixMarket matrix\n".as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_rejects_out_of_range_entry() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n1 9\n";
        let e = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(
            matches!(e, IoError::Parse(ref m) if m.contains("outside")),
            "{e}"
        );
    }

    #[test]
    fn matrix_market_rejects_excess_entries() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n1 2\n2 3\n";
        let e = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(
            matches!(e, IoError::Parse(ref m) if m.contains("nnz")),
            "{e}"
        );
    }

    #[test]
    fn matrix_market_huge_declared_nnz_no_oom() {
        // The size line promises 10^15 entries; the reader must neither
        // allocate for them nor crash — the actual data just ends.
        let text =
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1000000000000000\n1 2\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn galois_gr_truncated_header_and_body() {
        // Truncated header.
        assert!(matches!(
            read_galois_gr(&1u64.to_le_bytes()[..]),
            Err(IoError::Io(_))
        ));
        // Header promises more offsets than the file holds.
        let mut buf = Vec::new();
        for v in [1u64, 0, 100, 0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        assert!(matches!(read_galois_gr(&buf[..]), Err(IoError::Io(_))));
    }

    #[test]
    fn galois_gr_huge_header_no_oom() {
        // Claims 2^62 nodes in a 32-byte file: must fail fast, without
        // attempting the allocation.
        let mut buf = Vec::new();
        for v in [1u64, 0, 1u64 << 62, 0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let e = read_galois_gr(&buf[..]).unwrap_err();
        assert!(
            matches!(e, IoError::Parse(ref m) if m.contains("32-bit")),
            "{e}"
        );
    }

    #[test]
    fn binary_huge_header_no_oom() {
        let mut buf = Vec::new();
        buf.extend_from_slice(BINARY_MAGIC);
        buf.extend_from_slice(&(1u64 << 62).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let e = read_binary(&buf[..]).unwrap_err();
        assert!(
            matches!(e, IoError::Parse(ref m) if m.contains("32-bit")),
            "{e}"
        );
    }

    #[test]
    fn binary_inconsistent_offsets_rejected() {
        // Valid sizes but offsets that violate CSR invariants: caught by
        // from_parts validation, as a Parse error.
        let mut buf = Vec::new();
        buf.extend_from_slice(BINARY_MAGIC);
        buf.extend_from_slice(&2u64.to_le_bytes()); // n = 2
        buf.extend_from_slice(&1u64.to_le_bytes()); // dm = 1
        for o in [0u64, 5, 1] {
            // non-monotone, out of range
            buf.extend_from_slice(&o.to_le_bytes());
        }
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(read_binary(&buf[..]), Err(IoError::Parse(_))));
    }
}
