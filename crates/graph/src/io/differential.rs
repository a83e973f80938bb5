//! Differential tests of the byte-level text readers against the
//! line-at-a-time readers they replaced (`BufRead::lines` +
//! `split_whitespace` + `str::parse`), kept here verbatim as the oracle:
//! every input must give an equal `CsrGraph`, or the same error variant
//! and message.

use super::text::read_edge_list_with;
use super::*;
use crate::generate::{self, Pcg32};
use std::io::BufRead;

fn oracle_edge_list(r: impl Read) -> Result<CsrGraph, IoError> {
    let mut b = GraphBuilder::new(0);
    let mut over_limit = None;
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: Vertex = it
            .next()
            .ok_or_else(|| parse_err(format!("line {}: missing source", lineno + 1)))?
            .parse()
            .map_err(|e| parse_err(format!("line {}: {e}", lineno + 1)))?;
        let v: Vertex = it
            .next()
            .ok_or_else(|| parse_err(format!("line {}: missing target", lineno + 1)))?
            .parse()
            .map_err(|e| parse_err(format!("line {}: {e}", lineno + 1)))?;
        if over_limit.is_none() {
            over_limit = [u, v]
                .into_iter()
                .find(|&id| id as usize >= MAX_DECLARED_VERTICES)
                .map(|id| (lineno + 1, id));
        }
        b.add_edge(u, v);
    }
    if let Some((no, id)) = over_limit {
        return Err(vertex_id_over_limit(no, id));
    }
    Ok(b.build())
}

fn oracle_dimacs(r: impl Read) -> Result<CsrGraph, IoError> {
    let mut b = GraphBuilder::new(0);
    let mut declared_n = None;
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('c') {
            continue;
        }
        if let Some(rest) = t.strip_prefix("p ") {
            if declared_n.is_some() {
                return Err(parse_err(format!(
                    "line {}: duplicate problem line",
                    lineno + 1
                )));
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
                    "line {}: arc before the problem line (missing `p` header?)",
                    lineno + 1
                )));
            }
            let mut it = rest.split_whitespace();
            let u: Vertex = it
                .next()
                .ok_or_else(|| parse_err(format!("line {}: missing u", lineno + 1)))?
                .parse()
                .map_err(|e| parse_err(format!("line {}: {e}", lineno + 1)))?;
            let v: Vertex = it
                .next()
                .ok_or_else(|| parse_err(format!("line {}: missing v", lineno + 1)))?
                .parse()
                .map_err(|e| parse_err(format!("line {}: {e}", lineno + 1)))?;
            if u == 0 || v == 0 {
                return Err(parse_err(format!(
                    "line {}: DIMACS vertices are 1-indexed",
                    lineno + 1
                )));
            }
            b.add_edge(u - 1, v - 1);
        } else {
            return Err(parse_err(format!(
                "line {}: unrecognized record '{t}'",
                lineno + 1
            )));
        }
    }
    if let Some(n) = declared_n {
        if b.num_vertices() > n {
            return Err(parse_err(format!(
                "arc endpoints exceed declared vertex count {n}"
            )));
        }
    }
    Ok(b.build())
}

fn oracle_matrix_market(r: impl Read) -> Result<CsrGraph, IoError> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines();
    let header = lines.next().ok_or_else(|| parse_err("empty file"))??;
    if !header.starts_with("%%MatrixMarket") {
        return Err(parse_err("missing %%MatrixMarket header"));
    }
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim().to_string();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t);
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
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
    let mut b = GraphBuilder::with_capacity(capped(dims[0]), capped(dims[2]));
    b.ensure_vertices(dims[0]);
    let mut entries = 0usize;
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        entries += 1;
        if entries > dims[2] {
            return Err(parse_err(format!(
                "more entries than the declared nnz {}",
                dims[2]
            )));
        }
        let mut it = t.split_whitespace();
        let i: Vertex = it
            .next()
            .ok_or_else(|| parse_err(format!("entry {}: missing row", lineno + 1)))?
            .parse()
            .map_err(|e| parse_err(format!("entry {}: {e}", lineno + 1)))?;
        let j: Vertex = it
            .next()
            .ok_or_else(|| parse_err(format!("entry {}: missing col", lineno + 1)))?
            .parse()
            .map_err(|e| parse_err(format!("entry {}: {e}", lineno + 1)))?;
        if i == 0 || j == 0 {
            return Err(parse_err("Matrix Market entries are 1-indexed"));
        }
        if i as usize > dims[0] || j as usize > dims[0] {
            return Err(parse_err(format!(
                "entry ({i}, {j}) outside the declared {0}x{0} matrix",
                dims[0]
            )));
        }
        b.add_edge(i - 1, j - 1);
    }
    Ok(b.build())
}

/// Equal graphs, or errors of the same variant (and I/O kind) with the
/// same message.
fn assert_same(got: Result<CsrGraph, IoError>, want: Result<CsrGraph, IoError>, what: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert!(g == w, "{what}: graphs differ"),
        (Err(IoError::Parse(g)), Err(IoError::Parse(w))) => assert_eq!(g, w, "{what}"),
        (Err(IoError::Io(g)), Err(IoError::Io(w))) => {
            assert_eq!(g.kind(), w.kind(), "{what}");
            assert_eq!(g.to_string(), w.to_string(), "{what}");
        }
        (g, w) => panic!("{what}: got {:?}, oracle {:?}", g.err(), w.err()),
    }
}

/// Thread counts and block sizes every edge-list input runs at; the
/// tiny blocks make lines straddle blocks and chunks.
const THREADS: [usize; 4] = [1, 2, 3, 8];
const BLOCKS: [usize; 5] = [1, 3, 7, 64, text::BLOCK_BYTES];

fn check_edge_list(input: &[u8]) {
    for threads in THREADS {
        for block in BLOCKS {
            assert_same(
                read_edge_list_with(input, threads, block),
                oracle_edge_list(input),
                &format!("{input:?} at {threads} threads, block {block}"),
            );
        }
    }
}

/// Hand-picked edge-list inputs. (IDs at or above the 2^28 reader limit
/// are refused after the parse, so a later failing line still wins.)
const EDGE_LIST_CORPUS: &[&[u8]] = &[
    b"",
    b"\n",
    b"\n\n\n",
    b"0 1",
    b"0 1\n1 2\n",
    b"0 1\r\n1 2\r\n\r\n2 3\r\n",
    b"0 1\r",
    b"\r\n\r",
    b"\t0\t1\t\n1\x0b2\n2\x0c3\n \x0c\x0b\t\r\n",
    b"0 1 2 3\n4 5 extra tokens here\n",
    b"# comment\n\n0 1\n% more\n1 2\n",
    b"  # indented comment\n\t%\n#\n%0 x\n0 1",
    b"# caf\xc3\xa9 comment\n0 1\n",
    b"0 1\n# bad \xff\xfe utf-8\n1 2\n",
    b"% \xc3\n0 1\n",
    b"0 1 \xff\n",
    b"0\xc2\xa01\n",
    b"\xc2\xa00 1\xc2\xa0\n\xe3\x80\x802\xe2\x80\xa83\n4\xc2\x855\n",
    b"\xc2\xa0# nbsp-indented comment\n0 1\n",
    b"+1 +2\n",
    b"+ 1\n",
    b"++1 2\n",
    b"-1 2\n",
    b"0 -2\n",
    b"-0 1\n",
    b"0 4294967296\n",
    b"4294967296 0\n",
    b"4294967295 1\n0 x\n",
    b"0 4294967295 3\n+4294967295 x\n",
    b"0 4294967295",
    b"268435456 0\n",
    b"0 268435455\n7 268435456\n",
    b"# c\n0 1\n\n5 300000000\n300000001 6\n",
    b"0 x\n0 4294967295\n",
    b"0 4294967295\n1 x\n",
    b"0 1\n1 2\n2 3\n3 4294967295\n4 5\n5 6\n6 268435456\n7 8\n",
    b"00000000000000000000012 0000003\n",
    b"1e3 4\n",
    b"0x10 1\n",
    b"\xe2\x88\x9e 1\n",
    b"7\n",
    b"0 1\n7\n",
    b"0 x\n",
    b"0\x001\n",
    b"0 1\n1 x\n2 3\n\xff\n4 y\n",
    b"0 1\n\xff\n1 x\n",
    b"0 1\n1 2\n2 3\n3 x\n4 5\n5 6\n6 y\n7 8\n8 z\n",
    b"5 5\n3 3\n",
    b"                                        0                    1\n",
];

#[test]
fn edge_list_corpus_matches_oracle() {
    for input in EDGE_LIST_CORPUS {
        check_edge_list(input);
    }
}

#[test]
fn edge_list_line_longer_than_block_matches_oracle() {
    let mut input = b"0 1\n".to_vec();
    input.extend(std::iter::repeat_n(b' ', 3000));
    input.extend_from_slice(b"2 3 # trailing\n4 5\n");
    input.extend(std::iter::repeat_n(b'9', 3000));
    input.extend_from_slice(b" 1\n");
    check_edge_list(&input);
}

#[test]
fn edge_list_written_graphs_match_oracle() {
    for g in [
        generate::gnm_random(500, 2000, 3),
        generate::rmat(9, 6, generate::RmatParams::GALOIS, 5),
        generate::road_network(20, 20, 0.2, 1.0, 9),
    ] {
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        check_edge_list(&buf);
    }
}

/// Lines assembled at random from fragments that exercise every rule:
/// separators of each kind, comment markers, signs, overflow, invalid
/// UTF-8 and garbage. Most inputs fail somewhere; which line fails first,
/// and how, must agree with the oracle.
#[test]
fn edge_list_random_fragments_match_oracle() {
    const FRAGMENTS: &[&[u8]] = &[
        b"0",
        b"1",
        b"17",
        b"42",
        b"999",
        b"+3",
        b" ",
        b" ",
        b" ",
        b"\t",
        b"\x0b",
        b"\x0c",
        b"\r",
        b"\xc2\xa0",
        b"\xe3\x80\x80",
        b"#",
        b"%",
        b"-",
        b"+",
        b"x",
        b"4294967296",
        b"\xff",
        b"\xc3",
    ];
    let mut rng = Pcg32::new(12);
    for _ in 0..300 {
        let mut input = Vec::new();
        for _ in 0..rng.below(12) {
            // Mostly well-formed lines, so failures land at varied depths.
            if rng.chance(0.7) {
                let (u, v) = (rng.below(50), rng.below(50));
                input.extend_from_slice(format!("{u} {v}").as_bytes());
            } else {
                for _ in 0..rng.below(6) {
                    input.extend_from_slice(FRAGMENTS[rng.below_usize(FRAGMENTS.len())]);
                }
            }
            input.extend_from_slice(if rng.chance(0.2) { b"\r\n" } else { b"\n" });
        }
        if rng.chance(0.3) {
            input.pop();
        }
        check_edge_list(&input);
    }
}

#[test]
fn dimacs_corpus_matches_oracle() {
    for input in [
        &b""[..],
        b"c road graph\np sp 4 3\na 1 2 10\na 2 3 5\na 3 2 5\n",
        b"c x\r\np sp 4 3\r\na 1 2 10\r\n\r\na\t3 4 1\n",
        b"p sp 4 1\na\xc2\xa01 2 1\n",
        b"p sp 4 1\na 1\xc2\xa02 1\n",
        b"p\tsp 4 1\n",
        b"p sp 4 1\nc \xff\n",
        b"p sp 3 1\na 1\n",
        b"p sp 3 1\na\n",
        b"p sp\n",
        b"p sp x 1\n",
        b"p sp 3 1\na one 2 1\n",
        b"p sp 3 1\na 0 2 1\n",
        b"p sp 3 1\na 1 4294967296 1\n",
        b"p sp 3 1\np sp 3 1\n",
        b"a 1 2 1\n",
        b"p sp 2 1\na 1 5 1\n",
        b"p sp 4000000000 5\n",
        b"p sp 3 1\nz 1 2\n",
        b"  c indented\np sp 2 1\n  a 1 2 1  \n",
    ] {
        assert_same(
            read_dimacs(input),
            oracle_dimacs(input),
            &format!("{input:?}"),
        );
    }
}

#[test]
fn matrix_market_corpus_matches_oracle() {
    for input in [
        &b""[..],
        b"\n",
        b"%%MatrixMarket matrix coordinate pattern symmetric\n% c\n3 3 3\n1 2\n2 3\n3 3\n",
        b"%%MatrixMarket m\r\n\r\n% c\r\n3 3 2\r\n1\t2\r\n% mid\r\n\r\n2 3 9.5\r\n",
        b"%%MatrixMarket m\n3\xc2\xa03 1\n1\xc2\xa02\n",
        b"%%MatrixMarket m\n% \xff\n3 3 1\n",
        b"%%MatrixMarket \xff\n3 3 1\n",
        b"%%MatrixMarket matrix\n",
        b"3 3 1\n1 2\n",
        b"%%MatrixMarket m\n3 4 0\n",
        b"%%MatrixMarket m\n3 3\n",
        b"%%MatrixMarket m\n3 3 1 1\n",
        b"%%MatrixMarket m\n3 x 1\n",
        b"%%MatrixMarket m\n3 3 1\n1 9\n",
        b"%%MatrixMarket m\n3 3 1\n1 2\n2 3\n",
        b"%%MatrixMarket m\n3 3 5\n\n% c\n1 2\n1\n",
        b"%%MatrixMarket m\n3 3 5\n1 2\n\n% c\n2 x\n",
        b"%%MatrixMarket m\n3 3 5\n0 1\n",
        b"%%MatrixMarket m\n4000000000 4000000000 1\n1 2\n",
        b"%%MatrixMarket m\n3 3 1000000000000000\n1 2\n",
    ] {
        assert_same(
            read_matrix_market(input),
            oracle_matrix_market(input),
            &format!("{input:?}"),
        );
    }
}
