//! Bitmask tile storage for TileBFS (§3.2.3).
//!
//! BFS only needs the *pattern* of the adjacency matrix, so each non-empty
//! tile is compressed to machine words: in the CSR orientation (the paper's
//! `A2`) the word of intra-tile row `r` holds the columns of that row; in
//! the CSC orientation (`A1`) word `c` holds the rows of intra-tile column
//! `c`. Both orientations are materialized — Push-CSR walks `A2`, Push-CSC
//! and Pull-CSC walk `A1`. For an undirected graph the two orientations
//! hold the same information (the paper's "save about half of the storage"
//! remark); they are kept separate here because their tile orderings
//! differ.
//!
//! Each stored tile also carries one *occupancy word* per orientation: bit
//! `r` of a CSR tile's word is set when row `r` holds an entry, bit `c` of
//! a CSC tile's word when column `c` does. Kernels read the one streamed
//! occupancy word to skip the empty rows or columns of a tile instead of
//! testing every word of it. A CSC tile keeps all `nt` column words, so
//! Push-CSC and Pull-CSC index column `c`'s word directly. A CSR tile
//! keeps only its nonzero row words, in row order, and its occupancy
//! word indexes them: row `r` is word `popcount(occ & ((1 << r) - 1))`.
//! Push-CSR, the only reader of the CSR words, tests selected rows, and
//! the packed words keep those reads dense in memory.
//!
//! Tiles with at most `extract_threshold` entries are diverted to a plain
//! edge list traversed by a separate per-iteration pass (the hybrid scheme
//! that the paper delegates to GSwitch).

use super::bitvec::iter_bits;
use super::layout::{row_tile_rows, BandCounter};
use tsv_simt::{run_parts, setup_parts};
use tsv_sparse::csr::row_bands;
use tsv_sparse::{CsrMatrix, SparseError};

/// Which traversal orientation of the bit tiles to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// `A2`: row-compressed words, tile-level CSR.
    RowMajor,
    /// `A1`: column-compressed words, tile-level CSC.
    ColMajor,
}

/// The adjacency pattern of a square matrix in bitmask tiles, in both
/// orientations, plus the extracted very-sparse edge list.
#[derive(Debug, Clone)]
pub struct BitTileMatrix {
    n: usize,
    nt: usize,
    n_tiles: usize,
    // CSR orientation (A2).
    csr_ptr: Vec<usize>,
    csr_coltile: Vec<u32>,
    /// The nonzero row words of every tile, tile after tile; tile `t` owns
    /// `csr_words[csr_word_ptr[t]..csr_word_ptr[t + 1]]`.
    csr_word_ptr: Vec<usize>,
    csr_words: Vec<u64>,
    /// Per CSR tile: the rows holding at least one entry.
    csr_occ: Vec<u64>,
    // CSC orientation (A1).
    csc_ptr: Vec<usize>,
    csc_rowtile: Vec<u32>,
    csc_words: Vec<u64>,
    /// Per CSC tile: the columns holding at least one entry.
    csc_occ: Vec<u64>,
    /// Extracted entries indexed by source: `extra_src_ptr[c]..[c+1]`
    /// slices `extra_dst`, the rows reached from vertex `c` (matrix
    /// convention `y = A x`). Source-indexed so the per-iteration hybrid
    /// pass is frontier-driven, like the GSwitch traversal it stands for.
    extra_src_ptr: Vec<usize>,
    extra_dst: Vec<u32>,
    /// Entries held in tiles.
    tiled_nnz: usize,
}

/// Where pass 2 of [`BitTileMatrix::from_csr`] writes the entries of one
/// stored tile of the current row tile.
#[derive(Debug, Clone, Copy)]
struct BitDest {
    /// One past the CSR row word being filled, in the band's words.
    word_end: usize,
    /// Local row of that word (`usize::MAX` before the first entry).
    row: usize,
}

/// Pass 1 of [`BitTileMatrix::from_csr`] over one band of row tiles: the
/// band's stored tiles, with every offset counted from the band's start.
#[derive(Debug, Default)]
struct BitBand {
    /// Stored tiles before each row tile's end, after a leading 0.
    csr_ptr: Vec<usize>,
    csr_coltile: Vec<u32>,
    /// Row words before each tile's end, after a leading 0.
    csr_word_ptr: Vec<usize>,
    csr_occ: Vec<u64>,
    tiled_nnz: usize,
}

impl BitTileMatrix {
    /// Builds the bitmask structure from the pattern of a square matrix.
    ///
    /// `nt` must be 32 or 64 (one tile row/column per machine word); the
    /// paper picks 64 for orders above 10 000 and 32 otherwise
    /// ([`crate::tile::TileSize::for_bfs`]).
    ///
    /// Like [`crate::tile::TileMatrix::from_csr`], the build makes two
    /// passes over bands of row tiles, on host threads when the matrix
    /// holds [`SETUP_SPLIT`](tsv_simt::SETUP_SPLIT) entries or more: pass
    /// 1 counts each tile's entries and occupied rows, which fixes every
    /// offset of the CSR orientation; pass 2 ORs each entry into its final
    /// CSR row word and lists the extracted ones. The CSC orientation is
    /// then filled in ranges of its tiles from the CSR words, and the
    /// extracted edge list from the lists. Nothing depends on the band
    /// count.
    pub fn from_csr<T: Copy + Sync>(
        a: &CsrMatrix<T>,
        nt: usize,
        extract_threshold: usize,
    ) -> Result<Self, SparseError> {
        Self::from_csr_in_parts(a, nt, extract_threshold, setup_parts(a.nnz()))
    }

    /// [`from_csr`](Self::from_csr) in `parts` bands of row tiles.
    pub(crate) fn from_csr_in_parts<T: Copy + Sync>(
        a: &CsrMatrix<T>,
        nt: usize,
        extract_threshold: usize,
        parts: usize,
    ) -> Result<Self, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        assert!(nt == 32 || nt == 64, "bit tiles require nt of 32 or 64");
        let n = a.nrows();
        let n_tiles = n.div_ceil(nt);
        let bounds = row_bands(a.row_ptr(), parts, nt);

        // Pass 1 (count), band by band, then the bands' tiles in order.
        let bands = run_parts(bounds.windows(2), |w| {
            count_bit_band(a, nt, extract_threshold, w[0]..w[1])
        });
        // Every array is allocated at its exact length.
        let stored: usize = bands.iter().map(|b| b.csr_coltile.len()).sum();
        let mut csr_ptr = Vec::with_capacity(n_tiles + 1);
        let mut csr_word_ptr = Vec::with_capacity(stored + 1);
        csr_ptr.push(0);
        csr_word_ptr.push(0);
        let mut csr_coltile = Vec::with_capacity(stored);
        let mut csr_occ = Vec::with_capacity(stored);
        let mut tiled_nnz = 0;
        for band in &bands {
            let (tiles, words) = (csr_coltile.len(), *csr_word_ptr.last().expect("leading 0"));
            csr_ptr.extend(band.csr_ptr[1..].iter().map(|&p| p + tiles));
            csr_word_ptr.extend(band.csr_word_ptr[1..].iter().map(|&p| p + words));
            csr_coltile.extend_from_slice(&band.csr_coltile);
            csr_occ.extend_from_slice(&band.csr_occ);
            tiled_nnz += band.tiled_nnz;
        }
        drop(bands);
        let num_tiles = csr_coltile.len();

        // Pass 2 (fill): each band ORs its entries into its own slice of
        // the CSR row words, and lists its extracted `(row, column)`
        // entries by ascending row.
        let mut csr_words = vec![0u64; *csr_word_ptr.last().expect("leading 0")];
        let mut work = Vec::with_capacity(bounds.len() - 1);
        let mut rest = &mut csr_words[..];
        for w in bounds.windows(2) {
            let words = csr_word_ptr[csr_ptr[w[1]]] - csr_word_ptr[csr_ptr[w[0]]];
            let (band, tail) = rest.split_at_mut(words);
            rest = tail;
            work.push((w[0]..w[1], band));
        }
        let (ptr, word_ptr, coltile) = (&csr_ptr, &csr_word_ptr, &csr_coltile);
        let extras = run_parts(work, |(rts, words)| {
            fill_bit_band(a, nt, rts, ptr, word_ptr, coltile, words)
        });

        // The tile-level CSC index: each column tile lists its stored
        // tiles by ascending row tile.
        let mut csc_ptr = vec![0usize; n_tiles + 1];
        for &ct in &csr_coltile {
            csc_ptr[ct as usize + 1] += 1;
        }
        for i in 0..n_tiles {
            csc_ptr[i + 1] += csc_ptr[i];
        }
        let mut csc_rowtile = vec![0u32; num_tiles];
        // The CSR tile of each CSC tile.
        let mut csc_tile = vec![0u32; num_tiles];
        for rt in 0..n_tiles {
            for t in csr_ptr[rt]..csr_ptr[rt + 1] {
                let slot = &mut csc_ptr[csr_coltile[t] as usize];
                csc_rowtile[*slot] = rt as u32;
                csc_tile[*slot] = t as u32;
                *slot += 1;
            }
        }
        csc_ptr.copy_within(0..n_tiles, 1);
        csc_ptr[0] = 0;

        // The CSC words, in ranges of CSC tiles of about equal count: each
        // tile's column words are its CSR row words transposed.
        let mut csc_words = vec![0u64; num_tiles * nt];
        let mut csc_occ = vec![0u64; num_tiles];
        let parts = bounds.len() - 1;
        let mut work = Vec::with_capacity(parts);
        let (mut words_rest, mut occ_rest) = (&mut csc_words[..], &mut csc_occ[..]);
        for k in 0..parts {
            let tiles = num_tiles * k / parts..num_tiles * (k + 1) / parts;
            let (words, wtail) = words_rest.split_at_mut(tiles.len() * nt);
            let (occ, otail) = occ_rest.split_at_mut(tiles.len());
            (words_rest, occ_rest) = (wtail, otail);
            work.push((&csc_tile[tiles], words, occ));
        }
        let (csr_w, csr_o) = (&csr_words, &csr_occ);
        run_parts(work, |(tiles, words, occ)| {
            for (i, &t) in tiles.iter().enumerate() {
                let t = t as usize;
                let col_words = &mut words[i * nt..][..nt];
                let row_words = &csr_w[csr_word_ptr[t]..csr_word_ptr[t + 1]];
                for (lr, &w) in iter_bits(csr_o[t]).zip(row_words) {
                    occ[i] |= w;
                    for lc in iter_bits(w) {
                        col_words[lc] |= 1u64 << lr;
                    }
                }
            }
        });

        // The extracted edge list by source column: the bands' lists
        // arrive by ascending row, so a counting pass by column keeps rows
        // ascending inside each column.
        let mut extra_src_ptr = vec![0usize; n + 1];
        for &(_, c) in extras.iter().flatten() {
            extra_src_ptr[c as usize + 1] += 1;
        }
        for c in 0..n {
            extra_src_ptr[c + 1] += extra_src_ptr[c];
        }
        let mut extra_dst = vec![0u32; extra_src_ptr[n]];
        for &(r, c) in extras.iter().flatten() {
            let k = &mut extra_src_ptr[c as usize];
            extra_dst[*k] = r;
            *k += 1;
        }
        extra_src_ptr.copy_within(0..n, 1);
        extra_src_ptr[0] = 0;

        Ok(Self {
            n,
            nt,
            n_tiles,
            csr_ptr,
            csr_coltile,
            csr_word_ptr,
            csr_words,
            csr_occ,
            csc_ptr,
            csc_rowtile,
            csc_words,
            csc_occ,
            extra_src_ptr,
            extra_dst,
            tiled_nnz,
        })
    }

    /// Matrix order (vertex count).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile edge length (32 or 64).
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Number of tile rows/columns.
    pub fn n_tiles(&self) -> usize {
        self.n_tiles
    }

    /// Number of stored (non-extracted) tiles.
    pub fn num_tiles(&self) -> usize {
        self.csr_coltile.len()
    }

    /// Entries stored in tiles.
    pub fn tiled_nnz(&self) -> usize {
        self.tiled_nnz
    }

    /// Number of extracted entries.
    pub fn extra_nnz(&self) -> usize {
        self.extra_dst.len()
    }

    /// Rows reachable from vertex `c` through extracted entries.
    #[inline]
    pub fn extra_out(&self, c: usize) -> &[u32] {
        &self.extra_dst[self.extra_src_ptr[c]..self.extra_src_ptr[c + 1]]
    }

    /// Iterates the extracted entries as `(row, col)` pairs.
    pub fn extra_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n).flat_map(move |c| self.extra_out(c).iter().map(move |&r| (r, c as u32)))
    }

    /// Total entries (tiled + extracted).
    pub fn nnz(&self) -> usize {
        self.tiled_nnz + self.extra_dst.len()
    }

    /// Stored-tile index range of row tile `rt` (CSR orientation).
    #[inline]
    pub fn row_tile_range(&self, rt: usize) -> std::ops::Range<usize> {
        self.csr_ptr[rt]..self.csr_ptr[rt + 1]
    }

    /// Column-tile index of CSR-orientation tile `t`.
    #[inline]
    pub fn csr_col_tile(&self, t: usize) -> usize {
        self.csr_coltile[t] as usize
    }

    /// The nonzero row words of CSR-orientation tile `t`, in row order:
    /// the `i`-th belongs to the row of the `i`-th set bit of
    /// [`Self::csr_tile_occ`], and has bit `c` set when entry `(r, c)`
    /// exists in the tile.
    #[inline]
    pub fn csr_tile_words(&self, t: usize) -> &[u64] {
        &self.csr_words[self.csr_word_ptr[t]..self.csr_word_ptr[t + 1]]
    }

    /// Occupancy word of CSR-orientation tile `t`: bit `r` is set when row
    /// `r` holds an entry.
    #[inline]
    pub fn csr_tile_occ(&self, t: usize) -> u64 {
        self.csr_occ[t]
    }

    /// Row word `r` of CSR-orientation tile `t` (zero for an empty row).
    #[inline]
    pub fn csr_row_word(&self, t: usize, r: usize) -> u64 {
        let occ = self.csr_occ[t];
        if occ >> r & 1 == 0 {
            return 0;
        }
        self.csr_tile_words(t)[packed_index(occ, r)]
    }

    /// Stored-tile index range of column tile `ct` (CSC orientation).
    #[inline]
    pub fn col_tile_range(&self, ct: usize) -> std::ops::Range<usize> {
        self.csc_ptr[ct]..self.csc_ptr[ct + 1]
    }

    /// Row-tile index of CSC-orientation tile `t`.
    #[inline]
    pub fn csc_row_tile(&self, t: usize) -> usize {
        self.csc_rowtile[t] as usize
    }

    /// Column words of CSC-orientation tile `t`: word `c` has bit `r` set
    /// when entry `(r, c)` exists in the tile.
    #[inline]
    pub fn csc_tile_words(&self, t: usize) -> &[u64] {
        &self.csc_words[t * self.nt..(t + 1) * self.nt]
    }

    /// Occupancy word of CSC-orientation tile `t`: bit `c` is set when
    /// column word `c` is nonzero.
    #[inline]
    pub fn csc_tile_occ(&self, t: usize) -> u64 {
        self.csc_occ[t]
    }

    /// Bytes the format occupies, counting words at their physical width
    /// (`nt / 8` bytes per word, since `nt = 32` tiles store `u32`s).
    pub fn storage_bytes(&self) -> usize {
        let word_bytes = self.nt / 8;
        (self.csr_ptr.len() + self.csc_ptr.len() + self.csr_word_ptr.len()) * 8
            + (self.csr_coltile.len() + self.csc_rowtile.len()) * 4
            + (self.csr_words.len() + self.csc_words.len()) * word_bytes
            + (self.csr_occ.len() + self.csc_occ.len()) * word_bytes
            + self.extra_src_ptr.len() * 8
            + self.extra_dst.len() * 4
    }
}

/// Pass 1 of [`BitTileMatrix::from_csr`] over row tiles `rts`: counts
/// each column tile's entries and marks its occupied rows, per row tile. A
/// surviving tile gets its CSR slot and its packed row words.
fn count_bit_band<T: Copy>(
    a: &CsrMatrix<T>,
    nt: usize,
    extract_threshold: usize,
    rts: std::ops::Range<usize>,
) -> BitBand {
    let n = a.nrows();
    let n_tiles = n.div_ceil(nt);
    let shift = nt.trailing_zeros();
    let mut counter = BandCounter::new(n_tiles);
    let mut occ = vec![0u64; n_tiles];
    let mut band = BitBand {
        csr_ptr: vec![0],
        csr_word_ptr: vec![0],
        ..BitBand::default()
    };
    let mut n_words = 0;
    for rt in rts {
        let rows = row_tile_rows(rt, nt, n);
        for r in rows.clone() {
            let bit = 1u64 << (r - rows.start);
            for &c in a.row(r).0 {
                let ct = (c >> shift) as usize;
                counter.add(ct);
                occ[ct] |= bit;
            }
        }
        counter.sort();
        for &ct in counter.tiles() {
            let ct = ct as usize;
            let row_occ = std::mem::take(&mut occ[ct]);
            if counter.count(ct) <= extract_threshold {
                continue;
            }
            band.tiled_nnz += counter.count(ct);
            n_words += row_occ.count_ones() as usize;
            band.csr_coltile.push(ct as u32);
            band.csr_word_ptr.push(n_words);
            band.csr_occ.push(row_occ);
        }
        counter.clear();
        band.csr_ptr.push(band.csr_coltile.len());
    }
    band
}

/// Pass 2 of [`BitTileMatrix::from_csr`] over row tiles `rts`: ORs each
/// tiled entry into its CSR row word in `words`, the band's share of them,
/// and returns the extracted entries as `(row, column)` by ascending row.
/// A tile's row words are written in row order: its word cursor advances
/// on the first entry of each new row.
fn fill_bit_band<T: Copy>(
    a: &CsrMatrix<T>,
    nt: usize,
    rts: std::ops::Range<usize>,
    csr_ptr: &[usize],
    csr_word_ptr: &[usize],
    csr_coltile: &[u32],
    words: &mut [u64],
) -> Vec<(u32, u32)> {
    let shift = nt.trailing_zeros();
    let first_word = csr_word_ptr[csr_ptr[rts.start]];
    let mut dest: Vec<Option<BitDest>> = vec![None; csr_ptr.len() - 1];
    let mut extra = Vec::new();
    for rt in rts {
        let tiles = csr_ptr[rt]..csr_ptr[rt + 1];
        for t in tiles.clone() {
            dest[csr_coltile[t] as usize] = Some(BitDest {
                word_end: csr_word_ptr[t] - first_word,
                row: usize::MAX,
            });
        }
        for r in row_tile_rows(rt, nt, a.nrows()) {
            let lr = r - rt * nt;
            for &c in a.row(r).0 {
                if let Some(d) = &mut dest[(c >> shift) as usize] {
                    d.word_end += usize::from(d.row != lr);
                    d.row = lr;
                    words[d.word_end - 1] |= 1u64 << (c as usize & (nt - 1));
                } else {
                    extra.push((r as u32, c));
                }
            }
        }
        for t in tiles {
            dest[csr_coltile[t] as usize] = None;
        }
    }
    extra
}

/// Position of row `r`'s word among a packed CSR tile's words: the number of
/// occupied rows below `r`. Only meaningful when bit `r` of `occ` is set.
#[inline]
pub(crate) fn packed_index(occ: u64, r: usize) -> usize {
    (occ & ((1u64 << r) - 1)).count_ones() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsv_sparse::gen::{banded, rmat, RmatConfig};
    use tsv_sparse::CooMatrix;

    fn pattern_from_bit(m: &BitTileMatrix) -> Vec<(usize, usize)> {
        let nt = m.nt();
        let mut out = Vec::new();
        for rt in 0..m.n_tiles() {
            for t in m.row_tile_range(rt) {
                let ct = m.csr_col_tile(t);
                for lr in 0..nt {
                    for lc in crate::tile::bitvec::iter_bits(m.csr_row_word(t, lr)) {
                        out.push((rt * nt + lr, ct * nt + lc));
                    }
                }
            }
        }
        for (r, c) in m.extra_edges() {
            out.push((r as usize, c as usize));
        }
        out.sort_unstable();
        out
    }

    fn pattern_from_csc(m: &BitTileMatrix) -> Vec<(usize, usize)> {
        let nt = m.nt();
        let mut out = Vec::new();
        for ct in 0..m.n_tiles() {
            for t in m.col_tile_range(ct) {
                let rt = m.csc_row_tile(t);
                let words = m.csc_tile_words(t);
                for (lc, &w) in words.iter().enumerate() {
                    for lr in crate::tile::bitvec::iter_bits(w) {
                        out.push((rt * nt + lr, ct * nt + lc));
                    }
                }
            }
        }
        for (r, c) in m.extra_edges() {
            out.push((r as usize, c as usize));
        }
        out.sort_unstable();
        out
    }

    fn pattern_from_csr(a: &CsrMatrix<f64>) -> Vec<(usize, usize)> {
        let mut out: Vec<_> = a.iter().map(|(r, c, _)| (r, c)).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn both_orientations_reproduce_the_pattern() {
        let a = banded(90, 5, 0.7, 3).to_csr();
        for nt in [32, 64] {
            let m = BitTileMatrix::from_csr(&a, nt, 0).unwrap();
            assert_eq!(pattern_from_bit(&m), pattern_from_csr(&a), "csr nt={nt}");
            assert_eq!(pattern_from_csc(&m), pattern_from_csr(&a), "csc nt={nt}");
            assert_eq!(m.nnz(), a.nnz());
        }
    }

    #[test]
    fn extraction_shared_between_orientations() {
        let cfg = RmatConfig::new(9, 3);
        let a = rmat(cfg, 4).to_csr();
        let m = BitTileMatrix::from_csr(&a, 32, 2).unwrap();
        assert!(m.extra_nnz() > 0, "rmat should produce sparse tiles");
        assert_eq!(pattern_from_bit(&m), pattern_from_csr(&a));
        assert_eq!(pattern_from_csc(&m), pattern_from_csr(&a));
        assert_eq!(m.tiled_nnz() + m.extra_nnz(), a.nnz());
    }

    #[test]
    fn rejects_non_square() {
        let mut coo = CooMatrix::new(4, 6);
        coo.push(1, 5, 1.0);
        let a = coo.to_csr();
        assert!(matches!(
            BitTileMatrix::from_csr(&a, 32, 0),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn word_semantics_match_figure_5() {
        // The 16-vertex example of Fig. 5 uses 4x4 tiles; we use 32 here,
        // so build a small two-tile case instead: edge (0, 33) lands in
        // tile (0, 1) with lr=0, lc=1.
        let mut coo = CooMatrix::new(64, 64);
        coo.push(0, 33, 1.0);
        coo.push(0, 34, 1.0);
        coo.push(5, 33, 1.0);
        coo.push(40, 2, 1.0);
        let a = coo.to_csr();
        let m = BitTileMatrix::from_csr(&a, 32, 0).unwrap();
        assert_eq!(m.num_tiles(), 2);

        // CSR orientation, tile (0, 1): row word 0 has bits 1 and 2. Only
        // rows 0 and 5 are occupied, so only their two words are stored.
        let t01 = m.row_tile_range(0).next().unwrap();
        assert_eq!(m.csr_col_tile(t01), 1);
        assert_eq!(m.csr_tile_words(t01), &[0b110, 0b010]);
        assert_eq!(m.csr_row_word(t01, 0), 0b110);
        assert_eq!(m.csr_row_word(t01, 5), 0b010);
        assert_eq!(m.csr_row_word(t01, 3), 0);

        // CSC orientation of the same tile: column word 1 has bits 0 and 5.
        let t = m.col_tile_range(1).next().unwrap();
        assert_eq!(m.csc_row_tile(t), 0);
        let cwords = m.csc_tile_words(t);
        assert_eq!(cwords[1], 0b100001);
        assert_eq!(cwords[2], 0b000001);
    }

    #[test]
    fn ragged_order_handled() {
        let a = banded(70, 3, 1.0, 1).to_csr();
        let m = BitTileMatrix::from_csr(&a, 64, 0).unwrap();
        assert_eq!(m.n_tiles(), 2);
        assert_eq!(pattern_from_bit(&m), pattern_from_csr(&a));
    }

    #[test]
    fn storage_accounts_word_width() {
        let a = banded(128, 4, 1.0, 1).to_csr();
        let m32 = BitTileMatrix::from_csr(&a, 32, 0).unwrap();
        let m64 = BitTileMatrix::from_csr(&a, 64, 0).unwrap();
        assert!(m32.storage_bytes() > 0);
        assert!(m64.storage_bytes() > 0);
    }

    /// Bit `i` of every tile's occupancy word is set exactly when row or
    /// column `i` of that tile is nonzero, in both orientations, and a CSR
    /// tile stores one nonzero word per occupied row.
    fn assert_occupancy_invariant(m: &BitTileMatrix) {
        for t in 0..m.num_tiles() {
            let (row_occ, col_occ) = (m.csr_tile_occ(t), m.csc_tile_occ(t));
            for i in 0..m.nt() {
                assert_eq!(
                    row_occ >> i & 1 == 1,
                    m.csr_row_word(t, i) != 0,
                    "csr tile {t}"
                );
                assert_eq!(
                    col_occ >> i & 1 == 1,
                    m.csc_tile_words(t)[i] != 0,
                    "csc tile {t}"
                );
            }
            let words = m.csr_tile_words(t);
            assert_eq!(words.len(), row_occ.count_ones() as usize, "csr tile {t}");
            assert!(words.iter().all(|&w| w != 0), "csr tile {t}");
            assert_ne!(row_occ, 0, "stored tiles are nonempty");
        }
    }

    #[test]
    fn occupancy_words_mark_nonzero_words() {
        let banded_a = banded(150, 6, 0.6, 2).to_csr();
        let rmat_a = rmat(RmatConfig::new(9, 4), 8).to_csr();
        for a in [&banded_a, &rmat_a] {
            for nt in [32, 64] {
                for threshold in [0, 2] {
                    assert_occupancy_invariant(&BitTileMatrix::from_csr(a, nt, threshold).unwrap());
                }
            }
        }
        // Figure-5 style case: tile (0, 1) holds rows {0, 5}, columns {1, 2}.
        let mut coo = CooMatrix::new(64, 64);
        coo.push(0, 33, 1.0);
        coo.push(0, 34, 1.0);
        coo.push(5, 33, 1.0);
        let m = BitTileMatrix::from_csr(&coo.to_csr(), 32, 0).unwrap();
        assert_eq!(m.csr_tile_occ(0), 0b10_0001);
        assert_eq!(m.csc_tile_occ(0), 0b110);
    }

    #[test]
    fn undirected_graph_words_coincide_per_tile() {
        // For a symmetric matrix, the diagonal tile's row words equal its
        // column words — the storage-sharing observation of §3.2.3.
        let a = banded(32, 4, 0.8, 6).to_csr();
        let m = BitTileMatrix::from_csr(&a, 32, 0).unwrap();
        assert_eq!(m.num_tiles(), 1);
        let row_words: Vec<u64> = (0..32).map(|r| m.csr_row_word(0, r)).collect();
        assert_eq!(row_words, m.csc_tile_words(0));
    }

    /// A symmetric pattern over `n` vertices whose first row tile (at
    /// either tile size) holds one entry per column tile — every one
    /// extracted at threshold 2 — plus a banded block that skips
    /// vertices 100..104, whose rows and columns stay empty.
    fn edge_case_graph(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for c in (64..n).step_by(64) {
            coo.push(0, c, 1.0);
            coo.push(c, 0, 1.0);
        }
        for (r, c, v) in banded(n, 4, 0.7, 5).iter() {
            let keep = |v: usize| v >= 64 && !(100..104).contains(&v);
            if keep(r) && keep(c) {
                coo.push(r, c, v);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn conversion_edge_cases_agree_across_orientations() {
        let graphs = [100, 130, 257, 64, 1]
            .map(edge_case_graph)
            .into_iter()
            .chain([CsrMatrix::zeros(0, 0), CsrMatrix::zeros(40, 40)])
            // Scattered rows meet their column tiles out of order.
            .chain([rmat(RmatConfig::new(9, 4), 8).to_csr()]);
        for a in graphs {
            for nt in [32, 64] {
                for threshold in [0, 2, 10_000] {
                    let m = BitTileMatrix::from_csr(&a, nt, threshold).unwrap();
                    let what = format!("n={} nt={nt} threshold={threshold}", a.nrows());
                    assert_eq!(pattern_from_bit(&m), pattern_from_csr(&a), "{what}");
                    assert_eq!(pattern_from_csc(&m), pattern_from_csr(&a), "{what}");
                    assert_eq!(m.nnz(), a.nnz(), "{what}");
                    assert_occupancy_invariant(&m);
                    for i in 0..m.n_tiles() {
                        let row: Vec<_> = m.row_tile_range(i).map(|t| m.csr_col_tile(t)).collect();
                        let col: Vec<_> = m.col_tile_range(i).map(|t| m.csc_row_tile(t)).collect();
                        assert!(row.windows(2).all(|w| w[0] < w[1]), "{what}");
                        assert!(col.windows(2).all(|w| w[0] < w[1]), "{what}");
                    }
                    for c in 0..a.nrows() {
                        assert!(m.extra_out(c).windows(2).all(|w| w[0] < w[1]), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_tile_of_extracted_tiles_stores_none() {
        let a = edge_case_graph(257);
        for nt in [32, 64] {
            let m = BitTileMatrix::from_csr(&a, nt, 2).unwrap();
            assert!(m.row_tile_range(0).is_empty(), "nt={nt}");
            assert_eq!(m.extra_out(0).len(), 4, "nt={nt}");
            let m = BitTileMatrix::from_csr(&a, nt, 10_000).unwrap();
            assert_eq!((m.num_tiles(), m.extra_nnz()), (0, a.nnz()), "nt={nt}");
        }
    }
}
