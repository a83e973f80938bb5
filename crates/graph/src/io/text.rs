//! The byte-level line scanner shared by the text readers (edge list,
//! DIMACS, Matrix Market), and the block-parallel edge-list parser.
//!
//! Input is read in bounded blocks: each block is cut after its last
//! newline, and the partial last line carries over into the next one. A
//! line longer than a block grows the buffer to hold it.
//!
//! Lines, tokens and integers mean exactly what `BufRead::lines`,
//! `str::split_whitespace` and `str::parse` made of them in the
//! line-at-a-time readers this module replaced (kept as the test oracle
//! in `io::differential`):
//!
//! * lines end at `\n`; a `\r` before it is whitespace like any other;
//! * a line that is not valid UTF-8 fails with the same `InvalidData`
//!   error `lines()` returns, once every line before it has been handled;
//! * tokens are what `split_whitespace` yields and are parsed with
//!   `str::parse`. Only the edge list's fast path reads bytes itself, and
//!   only on lines where that gives the same answer: ASCII whitespace and
//!   IDs of at most nine digits, which cannot overflow a `u32`.

use super::{parse_err, vertex_id_over_limit, IoError, MAX_DECLARED_VERTICES};
use crate::{CsrGraph, Edge, GraphBuilder, Vertex};
use std::io::{self, Read};

/// Bytes per block. Large enough that a block splits into per-core
/// chunks worth a thread each; small enough that the block, plus the
/// chunk pair buffers it fills (8 bytes per ~13-byte line), stays within
/// a few MiB next to the edge array the builder grows anyway.
pub(crate) const BLOCK_BYTES: usize = 1 << 20;

/// Reads `r` block by block and calls `f(text, first)` for each run of
/// whole lines, where `first` counts the lines before `text`; `f` returns
/// the number of lines it consumed. The last call may lack a final
/// newline. On a read error, the whole lines already read are handed to
/// `f` first, so an earlier line's error still wins.
fn for_each_block(
    mut r: impl Read,
    block: usize,
    mut f: impl FnMut(&[u8], usize) -> Result<usize, IoError>,
) -> Result<(), IoError> {
    let mut buf = vec![0u8; block.max(1)];
    let (mut filled, mut lines) = (0usize, 0usize);
    loop {
        if filled == buf.len() {
            match buf.iter().rposition(|&b| b == b'\n') {
                // One line longer than the buffer: make room for it.
                None => buf.resize(2 * buf.len(), 0),
                Some(i) => {
                    lines += f(&buf[..=i], lines)?;
                    buf.copy_within(i + 1..filled, 0);
                    filled -= i + 1;
                }
            }
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled > 0 {
                    f(&buf[..filled], lines)?;
                }
                return Ok(());
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                if let Some(i) = buf[..filled].iter().rposition(|&b| b == b'\n') {
                    f(&buf[..=i], lines)?;
                }
                return Err(e.into());
            }
        }
    }
}

/// The longest prefix of `text` made of whole lines that are valid
/// UTF-8, and whether a line with invalid UTF-8 follows it.
fn utf8_lines(text: &[u8]) -> (&str, bool) {
    match std::str::from_utf8(text) {
        Ok(s) => (s, false),
        Err(e) => {
            let cut = text[..e.valid_up_to()]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let prefix = std::str::from_utf8(&text[..cut])
                .expect("the text before the first invalid byte is UTF-8");
            (prefix, true)
        }
    }
}

/// The error `BufRead::lines` returns for a line that is not UTF-8.
fn invalid_utf8() -> IoError {
    IoError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// Calls `f(lineno, line)` for each line of `text` (1-based numbers,
/// counting on from `first`) and returns how many lines there were.
fn scan_lines(
    text: &[u8],
    first: usize,
    f: &mut impl FnMut(usize, &str) -> Result<(), IoError>,
) -> Result<usize, IoError> {
    let (valid, invalid) = utf8_lines(text);
    let mut n = 0;
    for line in valid.split_terminator('\n') {
        n += 1;
        f(first + n, line)?;
    }
    if invalid {
        return Err(invalid_utf8());
    }
    Ok(n)
}

/// Streams `r` line by line into `f(lineno, line)`, 1-based.
pub(crate) fn for_each_line(
    r: impl Read,
    mut f: impl FnMut(usize, &str) -> Result<(), IoError>,
) -> Result<(), IoError> {
    for_each_block(r, BLOCK_BYTES, |text, first| {
        scan_lines(text, first, &mut f)
    })
}

/// Parses a vertex-ID token, with the readers' shared messages:
/// `"{at} {no}: missing {what}"` and `"{at} {no}: {parse error}"`.
#[inline]
pub(crate) fn vertex(
    tok: Option<&str>,
    at: &str,
    no: usize,
    what: &str,
) -> Result<Vertex, IoError> {
    let tok = tok.ok_or_else(|| parse_err(format!("{at} {no}: missing {what}")))?;
    tok.parse()
        .map_err(|e| parse_err(format!("{at} {no}: {e}")))
}

/// One edge-list line, by the token rules above: `None` for a blank or
/// comment line.
fn edge_line(no: usize, line: &str) -> Result<Option<Edge>, IoError> {
    let mut it = line.split_whitespace();
    let Some(tok) = it.next() else {
        return Ok(None);
    };
    if tok.starts_with(['#', '%']) {
        return Ok(None);
    }
    let u = vertex(Some(tok), "line", no, "source")?;
    let v = vertex(it.next(), "line", no, "target")?;
    Ok(Some((u, v)))
}

/// The ASCII characters `char::is_whitespace` accepts, but the newline.
/// VT (`\x0b`) is one, though `u8::is_ascii_whitespace` disagrees.
#[inline]
fn is_blank(b: u8) -> bool {
    matches!(b, b'\t' | b'\x0b' | b'\x0c' | b'\r' | b' ')
}

/// 1 to 9 ASCII digits at `b[i..]` not followed by a tenth: their value
/// and the index after them.
#[inline]
fn short_digits(b: &[u8], i: usize) -> Option<(u32, usize)> {
    let mut x = 0u32;
    let mut j = i;
    while j < b.len() && j - i < 9 && b[j].is_ascii_digit() {
        x = x * 10 + u32::from(b[j] - b'0');
        j += 1;
    }
    (j > i && !b.get(j).is_some_and(u8::is_ascii_digit)).then_some((x, j))
}

/// Index of the first newline at or after `i`, or the end of `b`.
#[inline]
fn line_end(b: &[u8], i: usize) -> usize {
    b[i..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(b.len(), |n| i + n)
}

/// The common edge-list lines without the general tokenizer: blank
/// lines, comments, and `u v` with 1–9-digit IDs separated by ASCII
/// whitespace, optionally followed by whitespace and anything. On these
/// [`edge_line`] gives the same verdict (the chunk is already known to be
/// UTF-8, so the ignored rest of a line needs no look). Returns the line's
/// edge, if any, and where the next line starts; `None` leaves the line to
/// [`edge_line`].
#[inline]
fn fast_edge_line(b: &[u8], start: usize) -> Option<(Option<Edge>, usize)> {
    // The end of the text ends the line like a newline.
    let at = |i: usize| b.get(i).copied().unwrap_or(b'\n');
    let mut i = start;
    while is_blank(at(i)) {
        i += 1;
    }
    match at(i) {
        b'\n' => return Some((None, i + 1)),
        b'#' | b'%' => return Some((None, line_end(b, i) + 1)),
        _ => {}
    }
    let (u, mut i) = short_digits(b, i)?;
    if !is_blank(at(i)) {
        return None;
    }
    while is_blank(at(i)) {
        i += 1;
    }
    let (v, i) = short_digits(b, i)?;
    let end = match at(i) {
        b'\n' => i,
        c if is_blank(c) => line_end(b, i),
        _ => return None,
    };
    Some((Some((u, v)), end + 1))
}

/// Parses one chunk of edge-list lines (1-based numbers counting on from
/// `first`) into canonical `(min, max)` pairs appended to `out`. Returns
/// one more than the largest endpoint seen, and the number of lines.
fn parse_edge_chunk(
    text: &[u8],
    first: usize,
    out: &mut Vec<Edge>,
) -> Result<(usize, usize), IoError> {
    let (valid, invalid) = utf8_lines(text);
    let b = valid.as_bytes();
    let (mut vertices, mut no, mut pos) = (0usize, first, 0usize);
    while pos < b.len() {
        no += 1;
        let (edge, next) = match fast_edge_line(b, pos) {
            Some(fast) => fast,
            None => {
                let end = line_end(b, pos);
                (edge_line(no, &valid[pos..end])?, end + 1)
            }
        };
        if let Some((u, v)) = edge {
            vertices = vertices.max(u.max(v) as usize + 1);
            out.push(if u <= v { (u, v) } else { (v, u) });
        }
        pos = next;
    }
    if invalid {
        return Err(invalid_utf8());
    }
    Ok((vertices, no - first))
}

/// Splits `text` at newlines into at most `pieces` non-empty chunks of
/// about equal size.
fn split_lines(mut text: &[u8], pieces: usize) -> Vec<&[u8]> {
    let mut out = Vec::with_capacity(pieces);
    for left in (1..=pieces).rev() {
        if text.is_empty() {
            break;
        }
        let target = text.len() / left;
        let cut = match text[target..].iter().position(|&b| b == b'\n') {
            Some(i) if left > 1 => target + i + 1,
            _ => text.len(),
        };
        let (chunk, rest) = text.split_at(cut);
        out.push(chunk);
        text = rest;
    }
    out
}

/// The edge-list reader behind [`super::read_edge_list`], with its
/// thread count and block size as parameters. Each block is split into
/// up to `threads` chunks that parse in parallel (the first on the
/// calling thread); their pairs are appended to the builder in file
/// order, so the builder sees exactly the sequence a line-at-a-time
/// reader would feed it. Of several failing chunks, the earliest one's
/// error is returned, which is the earliest failing line's.
pub(crate) fn read_edge_list_with(
    r: impl Read,
    threads: usize,
    block: usize,
) -> Result<CsrGraph, IoError> {
    let threads = threads.max(1);
    // A chunk is worth a thread once it is a full share of a block; a
    // smaller text (a short file, or the tail of one) uses fewer.
    let share = (block / threads).max(1);
    let mut builder = GraphBuilder::new(0);
    let mut over_limit = None;
    // One pair buffer per chunk, reused across blocks. They are allocated
    // here, so that their growth stays with the calling thread's
    // allocator arena instead of leaving memory in one per worker.
    let mut bufs: Vec<Vec<Edge>> = (0..threads)
        .map(|_| Vec::with_capacity(share / 16))
        .collect();
    for_each_block(r, block, |text, first| {
        let chunks = split_lines(text, threads.min(1 + text.len() / share));
        let (head, tail) = bufs.split_first_mut().expect("at least one buffer");
        // Chunks after the first count lines from their own start; a
        // failing one is parsed again below from its real first line, so
        // its message names the right line.
        let results: Vec<_> = std::thread::scope(|s| {
            let spawned: Vec<_> = chunks[1..]
                .iter()
                .zip(tail.iter_mut())
                .map(|(&chunk, out)| s.spawn(move || parse_edge_chunk(chunk, 0, out)))
                .collect();
            let mut results = vec![parse_edge_chunk(chunks[0], first, head)];
            results.extend(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("edge-list chunk parser panicked")),
            );
            results
        });
        let mut lines = 0;
        for ((k, res), out) in results.into_iter().enumerate().zip(&mut bufs) {
            let (vertices, n) = match res {
                Ok(parsed) => parsed,
                Err(_) if k > 0 => {
                    let again = parse_edge_chunk(chunks[k], first + lines, &mut Vec::new());
                    return Err(again.expect_err("a chunk fails the same way twice"));
                }
                Err(e) => return Err(e),
            };
            if over_limit.is_none() && vertices > MAX_DECLARED_VERTICES {
                over_limit = first_id_over_limit(chunks[k], first + lines);
            }
            builder.append_canonical(out, vertices);
            lines += n;
        }
        Ok(lines)
    })?;
    // Refused only once every line has parsed, so that a parse error
    // anywhere in the file keeps priority, as in a line-at-a-time read.
    if let Some((no, id)) = over_limit {
        return Err(vertex_id_over_limit(no, id));
    }
    // Freed before `build` allocates the CSR, the read's peak.
    drop(bufs);
    Ok(builder.build())
}

/// The first line of an already parsed chunk (numbered on from `first`)
/// that names a vertex ID at or above [`MAX_DECLARED_VERTICES`], with
/// that ID.
fn first_id_over_limit(chunk: &[u8], first: usize) -> Option<(usize, Vertex)> {
    let mut found = None;
    let _ = scan_lines(chunk, first, &mut |no, line| {
        if let (None, Ok(Some((u, v)))) = (found, edge_line(no, line)) {
            found = [u, v]
                .into_iter()
                .find(|&id| id as usize >= MAX_DECLARED_VERTICES)
                .map(|id| (no, id));
        }
        Ok(())
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_carry_partial_lines_and_grow_for_long_ones() {
        let text = b"ab\ncdefghij\n\nk";
        let count = |t: &[u8]| t.split(|&b| b == b'\n').count() - usize::from(t.ends_with(b"\n"));
        for block in [1, 2, 3, 5, 64] {
            let mut got = Vec::new();
            for_each_block(&text[..], block, |t, first| {
                got.push((first, t.to_vec()));
                Ok(count(t))
            })
            .unwrap();
            let joined: Vec<u8> = got.iter().flat_map(|(_, t)| t.clone()).collect();
            assert_eq!(joined, text, "block {block}");
            let mut lines = 0;
            for (first, t) in &got {
                assert_eq!(*first, lines, "block {block}");
                lines += count(t);
            }
            assert_eq!(lines, 4, "block {block}");
        }
    }

    #[test]
    fn blank_bytes_are_the_ascii_whitespace_of_split_whitespace() {
        for b in 0..128u8 {
            assert_eq!(
                is_blank(b),
                b != b'\n' && char::from(b).is_whitespace(),
                "{b:#x}"
            );
        }
    }

    #[test]
    fn split_lines_cuts_only_after_newlines() {
        let text = b"0 1\n22 33\n4 5\n666 777\n8";
        for pieces in 1..=8 {
            let chunks = split_lines(text, pieces);
            assert!(chunks.len() <= pieces && chunks.iter().all(|c| !c.is_empty()));
            assert_eq!(chunks.concat(), text);
            for c in &chunks[..chunks.len() - 1] {
                assert_eq!(c.last(), Some(&b'\n'));
            }
        }
        assert!(split_lines(b"", 3).is_empty());
    }
}
