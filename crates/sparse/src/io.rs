//! MatrixMarket coordinate-format I/O.
//!
//! The paper evaluates on the SuiteSparse Matrix Collection, which ships in
//! this format. The reproduction uses synthetic analogs by default, but all
//! harness binaries accept `.mtx` files so the real collection can be used
//! when it is on disk.
//!
//! Supported: `matrix coordinate (real|integer|pattern) (general|symmetric)`.
//! Pattern entries get value 1.0; symmetric files list only the lower
//! triangle (row >= column) and are expanded to general storage on read.
//!
//! Entry tokens are separated by ASCII whitespace only; any other byte,
//! non-ASCII whitespace such as U+00A0 included, is part of a token. A
//! value that is not finite (`nan`, `inf`, `infinity` in any case and with
//! either sign, or a literal that overflows `f64`) is a parse error at its
//! line. A coordinate listed more than once keeps every listing in the
//! COO result; converting it to CSR sums them in file order.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::Result;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use tsv_simt::{run_parts, setup_parts};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Reads a MatrixMarket file from disk.
pub fn read_matrix_market(path: &Path) -> Result<CooMatrix<f64>> {
    read_matrix_market_from(std::fs::File::open(path)?)
}

/// Largest entry count [`read_matrix_market_from`] reserves from the
/// header's declaration alone (2^24 entries).
const MAX_RESERVE: usize = 1 << 24;

/// Parses MatrixMarket data from any reader.
///
/// The size line is validated before anything is allocated: dimensions
/// must fit `u32` indices and the declared entry count must fit the
/// matrix, else the result is [`SparseError::Parse`]. The entries after it
/// are read in blocks and parsed in place, with no allocation per line.
///
/// A file that declares [`SETUP_SPLIT`](tsv_simt::SETUP_SPLIT) entries or
/// more is parsed in [`setup_parts`] parts of each block on host threads;
/// the result, and any error with its line, is the single-part one.
pub fn read_matrix_market_from<R: Read>(reader: R) -> Result<CooMatrix<f64>> {
    read_matrix_market_in_parts(reader, None)
}

/// [`read_matrix_market_from`] with each block cut into `parts` parts, or
/// into [`setup_parts`] of the declared entry count when `None`. Public
/// only so the workspace's tests can run the split at any part count.
#[doc(hidden)]
pub fn read_matrix_market_in_parts<R: Read>(
    reader: R,
    parts: Option<usize>,
) -> Result<CooMatrix<f64>> {
    read_in_blocks(reader, parts, None)
}

/// [`read_matrix_market_in_parts`] reading `block` bytes at a time, or
/// [`BLOCK`] ([`SPLIT_BLOCK`] in parts) when `None`.
fn read_in_blocks<R: Read>(
    reader: R,
    parts: Option<usize>,
    block: Option<usize>,
) -> Result<CooMatrix<f64>> {
    let mut reader = BufReader::new(reader);
    let mut lines = (&mut reader).lines();
    let mut lineno = 0usize;

    let header = loop {
        match lines.next() {
            Some(line) => {
                lineno += 1;
                let line = line?;
                if !line.trim().is_empty() {
                    break line;
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: lineno,
                    msg: "empty file".to_string(),
                })
            }
        }
    };

    let (field, symmetry) = parse_header(&header, lineno)?;

    // Skip comments, find the size line.
    let size_line = loop {
        match lines.next() {
            Some(line) => {
                lineno += 1;
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break line;
            }
            None => {
                return Err(SparseError::Parse {
                    line: lineno,
                    msg: "missing size line".to_string(),
                })
            }
        }
    };

    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("size line needs `rows cols nnz`, got {size_line:?}"),
        });
    }
    let nrows: usize = parse_num(dims[0], lineno)?;
    let ncols: usize = parse_num(dims[1], lineno)?;
    let nnz: usize = parse_num(dims[2], lineno)?;
    let bad_size = |msg: String| SparseError::Parse { line: lineno, msg };
    // `CsrMatrix` stores `u32` column indices, so larger dimensions cannot
    // be represented downstream.
    if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
        return Err(bad_size(format!(
            "dimensions {nrows} x {ncols} exceed the u32 index range"
        )));
    }
    if nrows.checked_mul(ncols).is_none_or(|cells| nnz > cells) {
        return Err(bad_size(format!(
            "header declares {nnz} entries for a {nrows} x {ncols} matrix"
        )));
    }
    let cap = if symmetry == Symmetry::Symmetric {
        nnz.checked_mul(2)
            .ok_or_else(|| bad_size(format!("symmetric entry count 2 x {nnz} overflows")))?
    } else {
        nnz
    };
    // The header is untrusted: reserve at most `MAX_RESERVE` entries up
    // front, so anything beyond grows from entries actually read.
    let coo = CooMatrix::with_capacity(nrows, ncols, cap.min(MAX_RESERVE));
    let parts = parts.unwrap_or_else(|| setup_parts(nnz)).max(1);
    let mut entries = Entries {
        field,
        symmetry,
        coo,
        spare: (1..parts)
            .map(|_| CooMatrix::with_capacity(nrows, ncols, cap.min(MAX_RESERVE) / parts))
            .collect(),
        lineno,
        seen: 0,
    };
    let block = block.unwrap_or(if parts > 1 { SPLIT_BLOCK } else { BLOCK });
    read_lines(&mut reader, block, |lines| entries.parse_block(lines))?;
    let Entries {
        coo, lineno, seen, ..
    } = entries;
    if seen != nnz {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("header declared {nnz} entries but file contains {seen}"),
        });
    }
    Ok(coo)
}

/// Reads `reader` to its end in blocks of `block` bytes and hands `parse`
/// the whole lines of each: a line cut by the end of a block moves to the
/// front of the next one, and the block grows only for a line longer than
/// itself. At the end of the input the rest is the last line, with or
/// without a final newline.
fn read_lines<R: Read>(
    reader: &mut R,
    block: usize,
    mut parse: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    let mut block = vec![0u8; block];
    let mut held = 0;
    loop {
        if held == block.len() {
            block.resize(2 * held, 0);
        }
        let end = held + fill(reader, &mut block[held..])?;
        // The held bytes hold no `\n`.
        let at_end = end < block.len();
        let cut = if at_end {
            end
        } else {
            block[held..end]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| held + i + 1)
        };
        parse(&block[..cut])?;
        if at_end {
            return Ok(());
        }
        block.copy_within(cut..end, 0);
        held = end - cut;
    }
}

/// Reads into `buf` until it is full or the input ends; returns the bytes
/// read, fewer than `buf.len()` only at the end of the input.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match reader.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// Hands `parse` the whole lines of `bytes` as text. A byte that is not
/// UTF-8 is an I/O error at its line, after the lines before it are
/// parsed: their errors win, as a line-at-a-time reader would report them.
fn utf8_lines<C>(bytes: &[u8], parse: impl FnOnce(&str) -> Result<C>) -> Result<C> {
    match std::str::from_utf8(bytes) {
        Ok(text) => parse(text),
        Err(e) => {
            // Lines end at `\n`, an ASCII byte, so the lines before the
            // one with the first bad byte are valid.
            let valid = bytes[..e.valid_up_to()]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            parse(std::str::from_utf8(&bytes[..valid]).expect("valid UTF-8 prefix"))?;
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
            .into())
        }
    }
}

/// Bytes [`read_matrix_market_from`] reads at a time after the size line.
const BLOCK: usize = 1 << 16;

/// Bytes it reads at a time when it parses each block in parts: a few
/// MiB, so that a split per block is paid once per ~10^5 lines.
const SPLIT_BLOCK: usize = 1 << 22;

/// The entry lines of a MatrixMarket file parsed so far.
struct Entries {
    field: Field,
    symmetry: Symmetry,
    /// The result: the first part of every block parses straight into it,
    /// and the other parts' entries are appended after each block.
    coo: CooMatrix<f64>,
    /// The entries of parts `1..` of the current block, one buffer each,
    /// kept across blocks.
    spare: Vec<CooMatrix<f64>>,
    /// Number of the last line parsed.
    lineno: usize,
    /// Entry lines seen, comments and blank lines excluded.
    seen: usize,
}

/// What one part of a block parsed: its lines and its entry lines.
struct PartCount {
    lines: usize,
    seen: usize,
}

impl Entries {
    /// Parses the whole lines of `block` (it ends at a line end or at the
    /// end of the input) in `1 + spare.len()` parts cut at line ends, and
    /// appends their entries in file order. A part numbers its lines from
    /// 0, so its error is moved by the lines of the block's parts before
    /// it; the first error in file order is the one returned.
    fn parse_block(&mut self, block: &[u8]) -> Result<()> {
        let (field, symmetry) = (self.field, self.symmetry);
        let cuts = line_cuts(block, 1 + self.spare.len());
        let texts = cuts.windows(2).map(|w| &block[w[0]..w[1]]);
        let sinks = std::iter::once(&mut self.coo).chain(&mut self.spare);
        let counts = run_parts(texts.zip(sinks), |(text, sink)| {
            utf8_lines(text, |text| parse_lines(text, field, symmetry, sink))
        });
        for count in counts {
            match count {
                Ok(c) => {
                    self.lineno += c.lines;
                    self.seen += c.seen;
                }
                Err(SparseError::Parse { line, msg }) => {
                    return Err(SparseError::Parse {
                        line: self.lineno + line,
                        msg,
                    })
                }
                Err(e) => return Err(e),
            }
        }
        for part in &mut self.spare {
            self.coo.append(part);
        }
        Ok(())
    }
}

/// The `parts + 1` offsets that cut `text` into `parts` runs of whole
/// lines of about equal bytes: each cut moves to just past the first `\n`
/// at or after its even share. Runs are empty where one line spans
/// several shares.
fn line_cuts(text: &[u8], parts: usize) -> Vec<usize> {
    let mut cuts = vec![0];
    for k in 1..parts {
        let at = (text.len() * k / parts).max(cuts[k - 1]);
        let cut = text[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(text.len(), |i| at + i + 1);
        cuts.push(cut);
    }
    cuts.push(text.len());
    cuts
}

/// Parses whole lines of entries, comments and blank lines into `coo`,
/// numbering them from 1.
fn parse_lines(
    text: &str,
    field: Field,
    symmetry: Symmetry,
    coo: &mut CooMatrix<f64>,
) -> Result<PartCount> {
    let mut parts = Cursor { text, pos: 0 };
    let mut count = PartCount { lines: 0, seen: 0 };
    while !parts.at_end() {
        count.lines += 1;
        let lineno = count.lines;
        let first = match parts.token() {
            Some(tok) if !tok.starts_with('%') => tok,
            _ => {
                parts.next_line();
                continue;
            }
        };
        let r = parse_index(first, lineno)?;
        let c = parse_index(
            parts.token().ok_or_else(|| SparseError::Parse {
                line: lineno,
                msg: "missing column index".to_string(),
            })?,
            lineno,
        )?;
        if r == 0 || c == 0 {
            return Err(SparseError::Parse {
                line: lineno,
                msg: "MatrixMarket indices are 1-based; found 0".to_string(),
            });
        }
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => {
                let tok = parts.token().ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    msg: "missing value".to_string(),
                })?;
                let v = tok.parse::<f64>().map_err(|e| SparseError::Parse {
                    line: lineno,
                    msg: format!("bad value {tok:?}: {e}"),
                })?;
                if !v.is_finite() {
                    return Err(SparseError::Parse {
                        line: lineno,
                        msg: format!("non-finite value {tok:?}"),
                    });
                }
                v
            }
        };
        if let Some(tok) = parts.token() {
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!("unexpected token {tok:?} after the entry"),
            });
        }
        let symmetric = symmetry == Symmetry::Symmetric;
        if symmetric && r < c {
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!(
                    "entry ({r}, {c}) lies above the diagonal; \
                     a symmetric file stores only the lower triangle"
                ),
            });
        }
        coo.try_push(r - 1, c - 1, v)?;
        if symmetric && r != c {
            coo.try_push(c - 1, r - 1, v)?;
        }
        count.seen += 1;
        parts.next_line();
    }
    Ok(count)
}

/// A cursor over the entry lines of a MatrixMarket text, which reads the
/// tokens of one line at a time. Tokens are separated by ASCII whitespace
/// (C's `isspace` set); a line ends at `\n` or at the end of the text.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn at_end(&self) -> bool {
        self.pos == self.text.len()
    }

    /// The next token of the current line, or `None` at its end.
    fn token(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let ends_token = |b: u8| b == b' ' || (b'\t'..=b'\r').contains(&b);
        while self.pos < bytes.len() && ends_token(bytes[self.pos]) && bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
        let start = self.pos;
        while self.pos < bytes.len() && !ends_token(bytes[self.pos]) {
            self.pos += 1;
        }
        (self.pos > start).then(|| &self.text[start..self.pos])
    }

    /// Moves to the start of the next line.
    fn next_line(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |k| k + 1);
    }
}

fn parse_header(header: &str, lineno: usize) -> Result<(Field, Symmetry)> {
    let toks: Vec<String> = header.split_whitespace().map(str::to_lowercase).collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("bad MatrixMarket banner: {header:?}"),
        });
    }
    if toks[2] != "coordinate" {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("only coordinate format is supported, got {:?}", toks[2]),
        });
    }
    let field = match toks[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!("unsupported field type {other:?}"),
            })
        }
    };
    let symmetry = match toks[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!("unsupported symmetry {other:?}"),
            })
        }
    };
    Ok((field, symmetry))
}

fn parse_num(tok: &str, lineno: usize) -> Result<usize> {
    // SuiteSparse files occasionally write integer fields as floats.
    if let Ok(v) = tok.parse::<usize>() {
        return Ok(v);
    }
    if let Ok(f) = tok.parse::<f64>() {
        if f >= 0.0 && f.fract() == 0.0 {
            return Ok(f as usize);
        }
    }
    Err(SparseError::Parse {
        line: lineno,
        msg: format!("expected a non-negative integer, got {tok:?}"),
    })
}

/// An index token: up to 19 ASCII digits are read from the bytes
/// directly; any other spelling goes through [`parse_num`], so the value
/// or the error is the same either way.
fn parse_index(tok: &str, lineno: usize) -> Result<usize> {
    let digits = tok.as_bytes();
    if digits.len() <= 19 && digits.iter().all(u8::is_ascii_digit) {
        let v = digits
            .iter()
            .fold(0u64, |v, &d| v * 10 + u64::from(d - b'0'));
        if let Ok(v) = usize::try_from(v) {
            return Ok(v);
        }
    }
    parse_num(tok, lineno)
}

/// Reads a SNAP-style edge list: one `u v` pair of 0-based vertex ids per
/// line, `#` comments ignored. The graph order is `max id + 1` (or the
/// explicit `n` when given, which also validates ids). `symmetric` adds
/// the reverse of every edge; self-loops are kept as-is; edge values are
/// 1.0. This is the distribution format of the SNAP collection the road
/// and social matrices of the paper originate from.
///
/// Lines are read and split as MatrixMarket entry lines are: tokens are
/// separated by ASCII whitespace only, and tokens after the pair (edge
/// weights) are ignored.
pub fn read_edge_list<R: Read>(
    mut reader: R,
    n: Option<usize>,
    symmetric: bool,
) -> Result<CooMatrix<f64>> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0u32;
    let mut lineno = 0usize;
    read_lines(&mut reader, BLOCK, |lines| {
        utf8_lines(lines, |text| {
            let mut line = Cursor { text, pos: 0 };
            while !line.at_end() {
                lineno += 1;
                // Vertex ids are stored as `u32`.
                let id = |tok: &str| {
                    u32::try_from(parse_index(tok, lineno)?).map_err(|_| SparseError::Parse {
                        line: lineno,
                        msg: format!("vertex id {tok:?} exceeds the u32 range"),
                    })
                };
                if let Some(first) = line.token().filter(|t| !t.starts_with(['#', '%'])) {
                    let u = id(first)?;
                    let second = line.token().ok_or_else(|| SparseError::Parse {
                        line: lineno,
                        msg: "missing target id".to_string(),
                    })?;
                    let v = id(second)?;
                    max_id = max_id.max(u).max(v);
                    edges.push((u, v));
                }
                line.next_line();
            }
            Ok(())
        })
    })?;
    let order = match n {
        Some(n) => {
            if !edges.is_empty() && max_id as usize >= n {
                return Err(SparseError::IndexOutOfBounds {
                    row: max_id as usize,
                    col: max_id as usize,
                    nrows: n,
                    ncols: n,
                });
            }
            n
        }
        None => {
            if edges.is_empty() {
                0
            } else {
                max_id as usize + 1
            }
        }
    };
    let mut coo =
        CooMatrix::with_capacity(order, order, edges.len() * if symmetric { 2 } else { 1 });
    for (u, v) in edges {
        coo.push(u as usize, v as usize, 1.0);
        if symmetric && u != v {
            coo.push(v as usize, u as usize, 1.0);
        }
    }
    coo.sum_duplicates();
    Ok(coo)
}

/// Writes a matrix as `matrix coordinate real general`.
pub fn write_matrix_market(path: &Path, m: &CooMatrix<f64>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_matrix_market_to(BufWriter::new(file), m)
}

/// Serializes into any writer.
pub fn write_matrix_market_to<W: Write>(mut w: W, m: &CooMatrix<f64>) -> Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {}", r + 1, c + 1, v)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<CooMatrix<f64>> {
        read_matrix_market_from(s.as_bytes())
    }

    fn parse_error_line(r: Result<CooMatrix<f64>>) -> usize {
        match r {
            Err(SparseError::Parse { line, .. }) => line,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn more_entries_than_cells_is_a_parse_error() {
        let r = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             3 3 4000000000000\n\
             1 1 1.0\n",
        );
        assert_eq!(parse_error_line(r), 2);
    }

    #[test]
    fn dimensions_beyond_u32_are_a_parse_error() {
        let r = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             5000000000 5000000000 1\n\
             1 1 1.0\n",
        );
        assert_eq!(parse_error_line(r), 2);
    }

    #[test]
    fn symmetric_entry_count_overflow_is_a_parse_error() {
        // Within the cell count of a `u32::MAX`-square matrix, but twice
        // the count overflows `usize`.
        let huge = usize::MAX / 2 + 1;
        let r = parse(&format!(
            "%%MatrixMarket matrix coordinate real symmetric\n{m} {m} {huge}\n",
            m = u32::MAX
        ));
        assert_eq!(parse_error_line(r), 2);
    }

    #[test]
    fn header_declared_capacity_is_capped() {
        // 2^40 entries fit a 2^20-square matrix, so the header passes
        // validation; reserving them up front would abort the process.
        // With the cap, the short file is reported instead.
        let r = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             1048576 1048576 1099511627776\n\
             1 1 1.0\n",
        );
        assert_eq!(parse_error_line(r), 3);
    }

    #[test]
    fn parses_general_real() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             % a comment\n\
             3 3 2\n\
             1 1 2.5\n\
             3 2 -1\n",
        )
        .unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 2);
        let t: Vec<_> = m.iter().collect();
        assert_eq!(t, vec![(0, 0, 2.5), (2, 1, -1.0)]);
    }

    #[test]
    fn expands_symmetric() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real symmetric\n\
             2 2 2\n\
             1 1 1.0\n\
             2 1 3.0\n",
        )
        .unwrap();
        // Off-diagonal mirrored, diagonal not duplicated.
        assert_eq!(m.nnz(), 3);
        let d = m.to_dense();
        assert_eq!(d, vec![1.0, 3.0, 3.0, 0.0]);
    }

    #[test]
    fn tokens_after_the_value_are_a_parse_error() {
        let r = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             2 2 2\n\
             1 1 1.0\n\
             2 2 1.0 junk\n",
        );
        assert_eq!(parse_error_line(r), 4);
        let r = parse(
            "%%MatrixMarket matrix coordinate pattern general\n\
             2 2 1\n\
             1 2 1.0\n",
        );
        assert_eq!(parse_error_line(r), 3);
    }

    #[test]
    fn symmetric_upper_triangle_entries_are_a_parse_error() {
        // Listing both (1,2) and (2,1) would double each mirrored value.
        let r = parse(
            "%%MatrixMarket matrix coordinate real symmetric\n\
             2 2 3\n\
             1 1 1.0\n\
             2 1 3.0\n\
             1 2 3.0\n",
        );
        assert_eq!(parse_error_line(r), 5);
    }

    #[test]
    fn pattern_entries_get_unit_value() {
        let m = parse(
            "%%MatrixMarket matrix coordinate pattern general\n\
             2 2 1\n\
             1 2\n",
        )
        .unwrap();
        assert_eq!(m.iter().next(), Some((0, 1, 1.0)));
    }

    #[test]
    fn rejects_bad_banner() {
        assert!(matches!(
            parse("%%NotMatrixMarket nope\n1 1 0\n"),
            Err(SparseError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_array_format() {
        assert!(parse("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n").is_err());
    }

    #[test]
    fn rejects_zero_based_indices() {
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5\n").is_err());
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let e = parse("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 5\n");
        assert!(matches!(e, Err(SparseError::Parse { .. })));
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let e = parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n9 1 5\n");
        assert!(e.is_err());
    }

    #[test]
    fn non_finite_values_are_a_parse_error() {
        for tok in [
            "nan",
            "NaN",
            "-nan",
            "+NAN",
            "inf",
            "-inf",
            "+Inf",
            "infinity",
            "-Infinity",
            "1e400",
        ] {
            let r = parse(&format!(
                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 {tok}\n"
            ));
            assert_eq!(parse_error_line(r), 4, "{tok}");
        }
        let r = parse("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 inf\n");
        assert_eq!(parse_error_line(r), 3);
    }

    #[test]
    fn crlf_endings_and_missing_final_newline_parse() {
        let want = vec![(0, 0, 2.5), (1, 1, -1.0)];
        for text in [
            "%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 2.5\r\n2 2 -1\r\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2.5\n2 2 -1",
            "%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 2.5\r\n2 2 -1",
        ] {
            let m = parse(text).unwrap();
            assert_eq!(m.iter().collect::<Vec<_>>(), want, "{text:?}");
        }
        // The error line of a short file counts its last, unterminated line.
        let r =
            parse("%%MatrixMarket matrix coordinate real general\r\n2 2 3\r\n1 1 2.5\r\n2 2 -1");
        assert_eq!(parse_error_line(r), 4);
    }

    #[test]
    fn comment_and_blank_lines_between_entries_keep_line_numbers() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % header comment\n\
                    \n\
                    3 3 3\n\
                    1 1 1.0\n\
                    \n\
                    % between entries\n\
                    \t \n\
                    2 2 2.0\n\
                    %\n";
        let m = parse(&format!("{text}3 3 3.0\n")).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(parse_error_line(parse(&format!("{text}3 x 3.0\n"))), 11);
        assert_eq!(parse_error_line(parse(&format!("{text}3 3\n"))), 11);
        // The count mismatch is reported at the last line read, blank
        // and comment lines included.
        assert_eq!(parse_error_line(parse(&format!("{text}\n% tail\n"))), 12);
    }

    #[test]
    fn non_utf8_entry_line_is_an_io_error() {
        let mut text = b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n".to_vec();
        text.extend_from_slice(b"2 2 \xff\n");
        match read_matrix_market_from(&text[..]) {
            Err(SparseError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected an I/O error, got {other:?}"),
        }
        // An earlier line's parse error is reported first.
        let mut text = b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 x 1.0\n".to_vec();
        text.extend_from_slice(b"2 2 \xff\n");
        assert_eq!(parse_error_line(read_matrix_market_from(&text[..])), 3);
    }

    #[test]
    fn non_ascii_whitespace_is_not_a_separator() {
        let r = parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u{a0}1 1.0\n");
        assert_eq!(parse_error_line(r), 3);
        // Every ASCII whitespace byte separates, vertical tab included.
        let m = parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1\x0B1\x0C\t1.0 \n")
            .unwrap();
        assert_eq!(m.iter().next(), Some((0, 0, 1.0)));
    }

    #[test]
    fn duplicate_coordinates_are_summed_in_file_order() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             2 2 3\n\
             1 1 1.0\n\
             1 1 2.0\n\
             2 2 1.0\n",
        )
        .unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), Some(3.0));
        // In file order the sum is 0.0; any other order gives 1.0.
        let m = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             2 2 4\n\
             2 1 1e16\n\
             1 2 7\n\
             2 1 1.0\n\
             2 1 -1e16\n",
        )
        .unwrap();
        assert_eq!(m.to_csr().get(1, 0), Some(0.0));
    }

    /// A reader that hands out at most `step` bytes per call, so lines
    /// straddle the reader's blocks.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn lines_split_across_reads_parse_the_same() {
        let mut text =
            "%%MatrixMarket matrix coordinate real general\r\n300 300 2000\r\n".to_string();
        // A comment line longer than a block makes the block grow.
        text.push_str(&format!("%{}\n", "x".repeat(3 * BLOCK)));
        for i in 0..2000 {
            text.push_str(&format!("{} {} {}.25\r\n", i % 300 + 1, i * 7 % 300 + 1, i));
            if i % 97 == 0 {
                text.push_str("% comment\n\n");
            }
        }
        let whole = parse(&text).unwrap();
        assert_eq!(whole.nnz(), 2000);
        for step in [1, 3, 4093, BLOCK - 1, BLOCK + 5] {
            let trickle = Trickle {
                data: text.as_bytes(),
                step,
            };
            assert_eq!(
                read_matrix_market_from(trickle).unwrap(),
                whole,
                "step {step}"
            );
        }
        // Error lines, the count mismatch at the unterminated last line
        // included, do not depend on where the reads end.
        let bad = format!("{text}1 x 1\n");
        let short = text.replacen("2000\r\n", "2001\r\n", 1);
        let short = short.trim_end();
        for step in [1, 4093, BLOCK] {
            let lines = |s: &str| {
                parse_error_line(read_matrix_market_from(Trickle {
                    data: s.as_bytes(),
                    step,
                }))
            };
            assert_eq!(lines(&bad), parse_error_line(parse(&bad)));
            assert_eq!(lines(short), parse_error_line(parse(short)));
        }
        let mut invalid = text.into_bytes();
        invalid.extend_from_slice(b"2 2 \xff\n");
        let trickle = Trickle {
            data: &invalid,
            step: 4093,
        };
        match read_matrix_market_from(trickle) {
            Err(SparseError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    /// A MatrixMarket file of `lines` after a `%%MatrixMarket` banner of
    /// `kind` and a size line declaring `nnz` entries of a `n × n` matrix.
    fn mtx(kind: &str, n: usize, nnz: usize, lines: &[String]) -> String {
        let mut text = format!("%%MatrixMarket matrix coordinate {kind}\n{n} {n} {nnz}\n");
        for l in lines {
            text.push_str(l);
        }
        text
    }

    /// 300 entry lines of a 50 × 50 matrix, lower triangle, with comments
    /// and blank lines between them; every line ends with `eol`.
    fn good_lines(eol: &str) -> Vec<String> {
        let mut lines = Vec::new();
        for i in 0..300usize {
            let (r, c) = (i * 7 % 50 + 1, i * 3 % 50 + 1);
            lines.push(format!("{} {} {}.5{eol}", r.max(c), r.min(c), i));
            if i % 37 == 0 {
                lines.push(format!("% note {i}{eol}"));
                lines.push(eol.to_string());
            }
        }
        lines
    }

    /// The part of a `parts`-way parse of `text` that byte `at` falls in.
    fn part_of(text: &[u8], parts: usize, at: usize) -> usize {
        // The body starts after the banner and the size line.
        let eols: Vec<usize> = text
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();
        let body = eols[1] + 1;
        let cuts = line_cuts(&text[body..], parts);
        cuts.windows(2)
            .position(|w| (w[0]..w[1]).contains(&(at - body)))
            .expect("inside the body")
    }

    /// `Debug` of a parse of `text` in `parts` parts, the error's variant,
    /// line and message included.
    fn parsed(text: &[u8], parts: usize) -> String {
        format!("{:?}", read_matrix_market_in_parts(text, Some(parts)))
    }

    #[test]
    fn a_bad_line_in_a_later_part_keeps_its_error_and_line() {
        let cases: [(&str, &[u8]); 5] = [
            ("bad value", b"3 2 1.2.3"),
            ("non-finite value", b"3 2 -inf"),
            ("zero index", b"0 2 1.0"),
            ("non-UTF-8 byte", b"3 2 \xff"),
            ("symmetric entry above the diagonal", b"2 3 1.0"),
        ];
        for eol in ["\n", "\r\n"] {
            let good = good_lines(eol);
            for (case, bad) in cases {
                for parts in 2..=4 {
                    // Into the second part, then into the last one.
                    for want in [1, parts - 1] {
                        let placed = (0..good.len()).find_map(|i| {
                            let mut text =
                                mtx("real symmetric", 50, good.len(), &good[..i]).into_bytes();
                            let at = text.len();
                            text.extend_from_slice(bad);
                            text.extend_from_slice(eol.as_bytes());
                            text.extend(good[i + 1..].iter().flat_map(|l| l.bytes()));
                            (part_of(&text, parts, at) == want).then_some(text)
                        });
                        let text = placed.expect("a line lands in that part");
                        let one = parsed(&text, 1);
                        assert!(one.starts_with("Err("), "{case}: {one}");
                        assert_eq!(
                            parsed(&text, parts),
                            one,
                            "{case} in part {want} of {parts} ({eol:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn split_parses_count_every_line_before_the_last() {
        for eol in ["\n", "\r\n"] {
            let good = good_lines(eol);
            let entries = good
                .iter()
                .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
                .count();
            let whole = mtx("real general", 50, entries, &good);
            // One entry too few declared, and one too many; a trailing
            // comment line without its end of line.
            for text in [
                mtx("real general", 50, entries + 1, &good),
                mtx("real general", 50, entries - 1, &good),
                format!("{}% tail", mtx("real general", 50, entries + 1, &good)),
            ] {
                let one = parsed(text.as_bytes(), 1);
                assert!(one.contains("Parse"), "{one}");
                for parts in 2..=4 {
                    assert_eq!(
                        parsed(text.as_bytes(), parts),
                        one,
                        "{parts} parts ({eol:?})"
                    );
                }
            }
            let one = read_matrix_market_in_parts(whole.as_bytes(), Some(1)).unwrap();
            assert_eq!(one.nnz(), entries);
            for parts in 2..=4 {
                assert_eq!(
                    read_matrix_market_in_parts(whole.as_bytes(), Some(parts)).unwrap(),
                    one
                );
            }
        }
    }

    #[test]
    fn split_blocks_keep_entries_lines_and_errors() {
        // Small blocks: lines straddle blocks, a long comment makes a block
        // grow, and every block is parsed in parts.
        let mut lines = good_lines("\n");
        lines.insert(100, format!("%{}\n", "x".repeat(3000)));
        let entries = 300;
        let text = mtx("real symmetric", 50, entries, &lines);
        let want = parse(&text).unwrap();
        let bad = mtx(
            "real symmetric",
            50,
            entries,
            &[&lines[..250], &["7 9 1\n".to_string()], &lines[250..]].concat(),
        );
        let want_err = format!("{:?}", parse(&bad));
        for parts in 1..=4 {
            for block in [64, 1000, 4096] {
                let got = read_in_blocks(text.as_bytes(), Some(parts), Some(block)).unwrap();
                assert_eq!(got, want, "{parts} parts, {block}-byte blocks");
                let err = format!(
                    "{:?}",
                    read_in_blocks(bad.as_bytes(), Some(parts), Some(block))
                );
                assert_eq!(err, want_err, "{parts} parts, {block}-byte blocks");
            }
        }
    }

    #[test]
    fn a_duplicate_across_a_part_boundary_is_summed_in_file_order() {
        // (2, 1) is listed in the first and the last part: 1e16 + 1.0 - 1e16
        // is 0.0 in file order and 1.0 in any other.
        let mut lines = vec!["2 1 1e16\n".to_string()];
        lines.extend((0..200).map(|i| format!("{} {} 1\n", i % 40 + 3, i % 7 + 1)));
        lines.push("2 1 1.0\n".to_string());
        lines.extend((0..200).map(|i| format!("{} {} 1\n", i % 40 + 3, i % 9 + 1)));
        lines.push("2 1 -1e16\n".to_string());
        let text = mtx("real general", 50, lines.len(), &lines);
        let last = text.rfind("2 1 -1e16").unwrap();
        for parts in 1..=4 {
            assert_eq!(part_of(text.as_bytes(), parts, last), parts - 1);
            let coo = read_matrix_market_in_parts(text.as_bytes(), Some(parts)).unwrap();
            assert_eq!(coo, parse(&text).unwrap());
            assert_eq!(coo.to_csr().get(1, 0), Some(0.0), "{parts} parts");
        }
    }

    #[test]
    fn index_tokens_parse_as_parse_num_does() {
        for tok in [
            "0",
            "7",
            "0007",
            "+2",
            "1.0e0",
            "3.0",
            "18446744073709551615",
            "9999999999999999999",
            "99999999999999999999999",
            "-1",
            "1.5",
            "x",
            "١",
        ] {
            assert_eq!(
                format!("{:?}", parse_index(tok, 9)),
                format!("{:?}", parse_num(tok, 9)),
                "{tok}"
            );
        }
    }

    #[test]
    fn index_spellings_beyond_plain_digits_are_accepted() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             3 3 2\n\
             +2 1.0e0 4\n\
             3.0 0003 5\n",
        )
        .unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(1, 0, 4.0), (2, 2, 5.0)]);
        let r = parse(
            "%%MatrixMarket matrix coordinate real general\n3 3 1\n99999999999999999999999 1 1\n",
        );
        assert!(r.is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = CooMatrix::new(3, 4);
        m.push(0, 3, 1.25);
        m.push(2, 0, -9.0);
        let mut buf = Vec::new();
        write_matrix_market_to(&mut buf, &m).unwrap();
        let back = read_matrix_market_from(&buf[..]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn edge_list_basic_and_symmetric() {
        let data = "# SNAP-ish comment\n0 1\n1 2\n2 0\n";
        let m = read_edge_list(data.as_bytes(), None, false).unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 3);

        let s = read_edge_list(data.as_bytes(), None, true).unwrap();
        assert_eq!(s.nnz(), 6);
        assert!(s.to_csr().is_symmetric());
    }

    #[test]
    fn edge_list_dedups_and_keeps_self_loops() {
        let data = "0 1\n0 1\n2 2\n";
        let m = read_edge_list(data.as_bytes(), None, true).unwrap();
        // (0,1) duplicated collapses; self-loop (2,2) stays single.
        let csr = m.to_csr();
        assert!(csr.get(0, 1).is_some());
        assert!(csr.get(2, 2).is_some());
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn edge_list_explicit_order_validates_ids() {
        let data = "0 9\n";
        assert!(read_edge_list(data.as_bytes(), Some(5), false).is_err());
        let ok = read_edge_list(data.as_bytes(), Some(20), false).unwrap();
        assert_eq!(ok.nrows(), 20);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        // An id past the u32 range is an error, not a wrapped id.
        let wide = read_edge_list(b"0 1\n4294967296 1\n".as_slice(), None, false);
        assert!(
            matches!(wide, Err(SparseError::Parse { line: 2, .. })),
            "{wide:?}"
        );
        assert!(read_edge_list(b"0\n".as_slice(), None, false).is_err());
        assert!(read_edge_list(b"a b\n".as_slice(), None, false).is_err());
        let empty = read_edge_list(b"# only comments\n".as_slice(), None, false).unwrap();
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn integer_field_and_float_sizes_accepted() {
        let m = parse(
            "%%MatrixMarket matrix coordinate integer general\n\
             2 2 1\n\
             2 2 7\n",
        )
        .unwrap();
        assert_eq!(m.iter().next(), Some((1, 1, 7.0)));
    }
}
