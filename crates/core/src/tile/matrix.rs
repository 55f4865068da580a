//! The tiled sparse matrix (§3.2.1).
//!
//! The matrix is cut into `nt × nt` sparse tiles. Non-empty tiles are
//! treated as the "nonzeros" of a tile-level CSR: `tile_row_ptr` delimits
//! the non-empty tiles of each *row tile* (a band of `nt` consecutive
//! rows), `tile_col` gives each tile's column-tile index, and `tile_ptr`
//! locates its entries. Inside a tile, each entry stores its packed local
//! coordinate `lr * nt + lc` next to its value, in column-major order
//! (ascending column, rows ascending inside each column): the paper's
//! one-byte index at `nt = 16` (row in the high nibble, column in the low
//! one), a `u16` at `nt = 32` and `64` ([`EntryIndex`]). Each tile also
//! carries `nt + 1` column offsets into its entries and an `nt`-bit
//! column-occupancy word, the numeric twin of the bitmask tiles' words:
//! the kernels AND it with the vector tile's nonzero word and walk only
//! the columns both hold, or the whole strip once when most of them are.
//! Dense payloads are column-major too.
//!
//! Tiles holding no more than [`TileConfig::extract_threshold`] entries are
//! not worth their metadata: their entries are *extracted* into a side COO
//! matrix processed by a separate kernel pass, exactly the hybrid scheme of
//! §3.2.1/§3.4.
//!
//! The container is generic over the value type (default `f64`) so the
//! semiring-generic driver can tile boolean or numeric matrices alike.
//! `T::default()` plays the role of the *structural* zero: dense payloads
//! pad with it, and `to_csr` drops it on reconstruction.

use super::layout::{row_tile_rows, tiles_for, BandCounter, TileConfig, TileFormat};
use tsv_simt::{run_parts, setup_parts};
use tsv_sparse::csr::row_bands;
use tsv_sparse::sort::counting_sort;
use tsv_sparse::{CooMatrix, CsrMatrix, SparseError};

/// A sparse matrix in the paper's tiled format.
#[derive(Debug, Clone, PartialEq)]
pub struct TileMatrix<T = f64> {
    nrows: usize,
    ncols: usize,
    config: TileConfig,
    m_tiles: usize,
    n_tiles: usize,
    /// Tile-level CSR pointer: non-empty tiles of row tile `rt` are
    /// `tile_row_ptr[rt]..tile_row_ptr[rt + 1]`.
    tile_row_ptr: Vec<usize>,
    /// Column-tile index of each non-empty tile.
    tile_col: Vec<u32>,
    /// Entry offsets: tile `t` owns entries `tile_ptr[t]..tile_ptr[t + 1]`.
    tile_ptr: Vec<usize>,
    /// Packed local coordinate of each entry of the CSR-format tiles,
    /// parallel to `vals`: `idx8` at `nt = 16`, `idx16` otherwise (the
    /// other one stays empty).
    idx8: Vec<u8>,
    idx16: Vec<u16>,
    /// Entry values of CSR-format tiles, tile by tile in column-major
    /// order (dense tiles keep their payload in `dense_vals`).
    vals: Vec<T>,
    /// `nt + 1` column offsets per stored tile, relative to the tile's
    /// first entry: column `lc` owns entries `col_ptr[lc]..col_ptr[lc + 1]`
    /// of the tile (all zero for dense tiles, which own no entries).
    col_ptr: Vec<u16>,
    /// Column-occupancy word of each stored tile: bit `lc` is set when
    /// column `lc` holds an entry.
    col_word: Vec<u64>,
    /// Physical payload format of each stored tile.
    formats: Vec<TileFormat>,
    /// True nonzero count of each stored tile (dense tiles have no
    /// entries in `vals`).
    tile_nnz: Vec<u32>,
    /// Sum of `tile_nnz`: the entries held in tiles.
    tiled_nnz: usize,
    /// Column-major `nt²` payloads of dense tiles, in tile order.
    dense_vals: Vec<T>,
    /// Slot of each dense tile in `dense_vals`; a CSR tile holds
    /// [`CSR_SLOT`], or [`NON_FINITE_SLOT`] when it holds a value that a
    /// zero does not annihilate ([`non_finite`]), so no walk may meet it
    /// with `x`'s padding. The view reads the word it loads anyway.
    dense_slot: Vec<u32>,
    /// Row-tile index of each stored tile (inverse of `tile_row_ptr`).
    tile_row: Vec<u32>,
    /// Tile-level CSC *index*: `col_index_ptr[ct]..col_index_ptr[ct+1]`
    /// slices `col_index_tiles`, which lists the stored-tile ids of column
    /// tile `ct`. The vector-driven kernel walks tiles through this index
    /// without duplicating their contents.
    col_index_ptr: Vec<usize>,
    col_index_tiles: Vec<u32>,
    /// Entries of extracted very-sparse tiles, in global coordinates,
    /// sorted column-major so the vector-driven pass can skip columns with
    /// no `x` entry.
    extra: CooMatrix<T>,
    /// Column pointer over the (column-sorted) extracted entries:
    /// `extra_col_ptr[c]..extra_col_ptr[c+1]` are the entries of column `c`.
    extra_col_ptr: Vec<usize>,
}

/// The packed local coordinates `lr * nt + lc` of a tile's entries, in
/// column-major order (ascending column, then ascending row). At `nt = 16`
/// this is the paper's unsigned-char index (§3.2.1); 32×32 and 64×64
/// tiles need two bytes.
#[derive(Debug, Clone, Copy)]
pub enum EntryIndex<'a> {
    /// One byte per entry (`nt = 16`).
    U8(&'a [u8]),
    /// Two bytes per entry (`nt = 32` and `64`).
    U16(&'a [u16]),
}

impl EntryIndex<'_> {
    /// Packed coordinate of entry `k`.
    #[inline]
    fn get(&self, k: usize) -> usize {
        match self {
            Self::U8(v) => usize::from(v[k]),
            Self::U16(v) => usize::from(v[k]),
        }
    }
}

/// Read-only view of one stored tile.
#[derive(Debug, Clone, Copy)]
pub struct TileView<'a, T = f64> {
    /// Tile edge length.
    pub nt: usize,
    /// Column-tile index of this tile.
    pub col_tile: usize,
    /// True nonzero count of the tile.
    pub nnz: usize,
    /// Packed local coordinate of each entry, parallel to `vals` (empty
    /// for dense tiles).
    pub idx: EntryIndex<'a>,
    /// Entry values (empty for dense tiles).
    pub vals: &'a [T],
    /// The `nt + 1` column offsets into `idx`/`vals`: column `lc` owns
    /// entries `col_ptr[lc]..col_ptr[lc + 1]` (all zero for dense tiles).
    pub col_ptr: &'a [u16],
    /// Column-occupancy word: bit `lc` is set when column `lc` holds an
    /// entry (for dense tiles too).
    pub col_word: u64,
    /// Whether the entries hold a value that a zero does not annihilate
    /// (`±∞` or NaN), so a walk must not multiply them by `x`'s padding
    /// (always false for dense tiles).
    pub non_finite: bool,
    /// Column-major `nt × nt` payload when the tile is stored dense: value
    /// `(lr, lc)` at `lc * nt + lr`.
    pub dense: Option<&'a [T]>,
}

impl<'a, T> TileView<'a, T> {
    /// Number of nonzero entries in the tile.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The tile's payload format.
    pub fn format(&self) -> TileFormat {
        if self.dense.is_some() {
            TileFormat::Dense
        } else {
            TileFormat::Csr
        }
    }

    /// The `(local row, local column, value)` entries of a CSR tile in
    /// column-major order, rows ascending inside each column (empty for
    /// dense tiles — read `dense` instead). Each row still meets its
    /// entries in ascending column.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, T)> + 'a
    where
        T: Copy,
    {
        let (nt, idx) = (self.nt, self.idx);
        self.vals.iter().enumerate().map(move |(k, &v)| {
            let p = idx.get(k);
            (p / nt, p % nt, v)
        })
    }
}

/// Whether `v` is a value that a zero does not annihilate: an IEEE
/// float that is `±∞` or NaN (`∞ · 0` and `NaN · 0` are NaN, and so is
/// `-∞ + ∞` under `MinPlus`). Booleans and integers obey the semiring
/// laws exactly.
fn non_finite<T: 'static>(v: &T) -> bool {
    let v: &dyn std::any::Any = v;
    if let Some(f) = v.downcast_ref::<f64>() {
        !f.is_finite()
    } else if let Some(f) = v.downcast_ref::<f32>() {
        !f.is_finite()
    } else {
        false
    }
}

/// `dense_slot` of a CSR tile.
const CSR_SLOT: u32 = u32::MAX;
/// `dense_slot` of a CSR tile that holds a non-finite value.
const NON_FINITE_SLOT: u32 = u32::MAX - 1;

/// Where pass 2 of [`TileMatrix::from_csr`] writes the entries of one
/// column tile of the current row tile.
#[derive(Debug, Clone, Copy)]
enum Dest {
    /// The tile is extracted: entries go to the band's side list.
    Extra,
    /// CSR-format tile `t` (counted from the band's first tile) whose
    /// entries start at this slot of the band's entries; each column's next
    /// free entry, relative to it, is the column's cursor in `col_next`.
    Csr(usize, usize),
    /// Base of a dense tile's `nt²` payload in the band's payloads.
    Dense(usize),
}

/// Pass 1 of [`TileMatrix::from_csr`] over one band of row tiles: the
/// band's stored tiles, with every offset counted from the band's start.
#[derive(Debug, Default)]
struct BandTiles {
    /// Stored tiles before each row tile's end, after a leading 0.
    tile_row_ptr: Vec<usize>,
    tile_col: Vec<u32>,
    /// Tile-CSR entries before each tile's end, after a leading 0.
    tile_ptr: Vec<usize>,
    formats: Vec<TileFormat>,
    tile_nnz: Vec<u32>,
    /// Band-local dense slot, or [`CSR_SLOT`].
    dense_slot: Vec<u32>,
    col_ptr: Vec<u16>,
    col_word: Vec<u64>,
    n_dense: u32,
}

impl<T: Copy + PartialEq + Default> TileMatrix<T> {
    /// Builds the tiled format from a CSR matrix.
    ///
    /// This is the *format conversion* step whose cost Figure 11 reports.
    /// It makes two passes over the row tiles. Pass 1 counts each tile's
    /// entries per column, which fixes its format (extracted, CSR or
    /// dense), its column offsets and occupancy word, and its offsets in
    /// the final arrays; pass 2 walks the rows again and writes every
    /// tiled entry straight into its final, column-major slot, and lists
    /// the extracted ones, which then fill the column-major side COO.
    ///
    /// Both passes run over bands of whole row tiles, which touch disjoint
    /// tiles: a matrix of [`SETUP_SPLIT`](tsv_simt::SETUP_SPLIT) entries
    /// or more runs in [`setup_parts`] bands on host threads, and a prefix
    /// sum over the bands' counts places each band's tiles. The tiles do
    /// not depend on the band count.
    ///
    /// ```
    /// use tsv_core::tile::{TileConfig, TileMatrix};
    ///
    /// let a = tsv_sparse::gen::banded(128, 6, 0.8, 1).to_csr();
    /// let tiled = TileMatrix::from_csr(&a, TileConfig::default()).unwrap();
    /// assert_eq!(tiled.nnz(), a.nnz());
    /// assert_eq!(tiled.to_csr(), a); // lossless
    /// ```
    pub fn from_csr(a: &CsrMatrix<T>, config: TileConfig) -> Result<Self, SparseError>
    where
        T: Send + Sync + 'static,
    {
        Ok(Self::from_csr_in_parts(a, config, setup_parts(a.nnz())))
    }

    /// [`from_csr`](Self::from_csr) in `parts` bands of row tiles. Public
    /// only so the workspace's tests can run the split at any part count.
    #[doc(hidden)]
    pub fn from_csr_in_parts(a: &CsrMatrix<T>, config: TileConfig, parts: usize) -> Self
    where
        T: Send + Sync + 'static,
    {
        let nt = config.tile_size.nt();
        let nrows = a.nrows();
        let ncols = a.ncols();
        let m_tiles = tiles_for(nrows, nt);
        let n_tiles = tiles_for(ncols, nt);
        let bounds = row_bands(a.row_ptr(), parts, nt);

        // Pass 1 (count), band by band, then the bands' tiles in order.
        let bands = run_parts(bounds.windows(2), |w| {
            count_band(a, config, w[0]..w[1], n_tiles)
        });
        // Every array is allocated at its exact length.
        let stored: usize = bands.iter().map(|b| b.tile_col.len()).sum();
        let mut tile_row_ptr = Vec::with_capacity(m_tiles + 1);
        let mut tile_ptr = Vec::with_capacity(stored + 1);
        tile_row_ptr.push(0);
        tile_ptr.push(0);
        let mut tile_col = Vec::with_capacity(stored);
        let mut formats = Vec::with_capacity(stored);
        let mut tile_nnz = Vec::with_capacity(stored);
        let mut dense_slot = Vec::with_capacity(stored);
        let mut col_ptr = Vec::with_capacity(stored * (nt + 1));
        let mut col_word = Vec::with_capacity(stored);
        // Each band's first tile and first dense tile.
        let (mut first_tile, mut first_dense) = (vec![0usize], vec![0u32]);
        for band in &bands {
            let (tiles, dense) = (tile_col.len(), *first_dense.last().expect("one band"));
            let entries = *tile_ptr.last().expect("leading 0");
            tile_row_ptr.extend(band.tile_row_ptr[1..].iter().map(|&p| p + tiles));
            tile_ptr.extend(band.tile_ptr[1..].iter().map(|&p| p + entries));
            dense_slot.extend(band.dense_slot.iter().map(|&d| {
                if d == CSR_SLOT {
                    d
                } else {
                    d + dense
                }
            }));
            tile_col.extend_from_slice(&band.tile_col);
            formats.extend_from_slice(&band.formats);
            tile_nnz.extend_from_slice(&band.tile_nnz);
            col_ptr.extend_from_slice(&band.col_ptr);
            col_word.extend_from_slice(&band.col_word);
            first_tile.push(tile_col.len());
            first_dense.push(dense + band.n_dense);
        }
        let n_entries = *tile_ptr.last().expect("leading 0");
        let n_dense = *first_dense.last().expect("one band") as usize;

        // Pass 2 (fill): each band writes its tiles' entries and dense
        // payloads into its own slices of the final arrays, and lists its
        // extracted entries.
        let byte_index = nt == 16;
        let mut idx8 = vec![0u8; if byte_index { n_entries } else { 0 }];
        let mut idx16 = vec![0u16; if byte_index { 0 } else { n_entries }];
        let mut vals = vec![T::default(); n_entries];
        let mut dense_vals = vec![T::default(); n_dense * nt * nt];
        let mut work = Vec::with_capacity(bands.len());
        {
            let (mut i8s, mut i16s, mut vs) = (&mut idx8[..], &mut idx16[..], &mut vals[..]);
            let (mut ds, mut slots) = (&mut dense_vals[..], &mut dense_slot[..]);
            for k in 0..bands.len() {
                let tiles = first_tile[k]..first_tile[k + 1];
                let entries = tile_ptr[tiles.end] - tile_ptr[tiles.start];
                let (i8b, rest) = i8s.split_at_mut(if byte_index { entries } else { 0 });
                let (i16b, rest16) = i16s.split_at_mut(if byte_index { 0 } else { entries });
                let (vb, vrest) = vs.split_at_mut(entries);
                let dense = (first_dense[k + 1] - first_dense[k]) as usize * nt * nt;
                let (db, drest) = ds.split_at_mut(dense);
                let (sb, srest) = slots.split_at_mut(tiles.len());
                (i8s, i16s, vs, ds, slots) = (rest, rest16, vrest, drest, srest);
                let payload = Payload {
                    idx8: i8b,
                    idx16: i16b,
                    vals: vb,
                    dense_vals: db,
                    dense_slot: sb,
                };
                work.push((bounds[k]..bounds[k + 1], tiles, payload));
            }
        }
        drop(bands);
        let layout = Layout {
            nt,
            n_tiles,
            tile_row_ptr: &tile_row_ptr,
            tile_col: &tile_col,
            tile_ptr: &tile_ptr,
            formats: &formats,
            col_ptr: &col_ptr,
            first_dense: &first_dense,
        };
        let extras = run_parts(work.into_iter().enumerate(), |(k, (rts, tiles, p))| {
            fill_band(a, &layout, k, rts, tiles, p)
        });

        // The side COO, column-major: the bands' extracted entries arrive
        // by ascending row, so a counting pass by column orders them with
        // rows ascending inside each column.
        let mut extra_col_ptr = vec![0usize; ncols + 1];
        for &(_, c, _) in extras.iter().flatten() {
            extra_col_ptr[c as usize + 1] += 1;
        }
        for c in 0..ncols {
            extra_col_ptr[c + 1] += extra_col_ptr[c];
        }
        let n_extra = extra_col_ptr[ncols];
        let mut extra_rows = vec![0u32; n_extra];
        let mut extra_vals = vec![T::default(); n_extra];
        for &(r, c, v) in extras.iter().flatten() {
            let k = &mut extra_col_ptr[c as usize];
            extra_rows[*k] = r;
            extra_vals[*k] = v;
            *k += 1;
        }
        drop(extras);
        extra_col_ptr.copy_within(0..ncols, 1);
        extra_col_ptr[0] = 0;

        let mut extra_cols = Vec::with_capacity(n_extra);
        for c in 0..ncols {
            let len = extra_col_ptr[c + 1] - extra_col_ptr[c];
            extra_cols.extend(std::iter::repeat_n(c as u32, len));
        }
        let extra = CooMatrix::from_triplets(nrows, ncols, extra_rows, extra_cols, extra_vals)
            .expect("extracted entries lie inside the matrix");

        // Inverse row map and column-tile index for the vector-driven
        // kernel: tiles listed per column tile, ordered by row tile.
        let mut tile_row = vec![0u32; tile_col.len()];
        for rt in 0..m_tiles {
            tile_row[tile_row_ptr[rt]..tile_row_ptr[rt + 1]].fill(rt as u32);
        }
        let tile_ids: Vec<u32> = (0..tile_col.len() as u32).collect();
        let (col_index_tiles, col_index_ptr) =
            counting_sort(tile_ids, n_tiles, |&t| tile_col[t as usize] as usize);

        Self {
            nrows,
            ncols,
            config,
            m_tiles,
            n_tiles,
            tile_row_ptr,
            tile_col,
            tile_ptr,
            idx8,
            idx16,
            vals,
            col_ptr,
            col_word,
            formats,
            tiled_nnz: tile_nnz.iter().map(|&n| n as usize).sum(),
            tile_nnz,
            dense_vals,
            dense_slot,
            tile_row,
            col_index_ptr,
            col_index_tiles,
            extra,
            extra_col_ptr,
        }
    }

    /// Number of rows of the logical matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns of the logical matrix.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Construction parameters.
    pub fn config(&self) -> TileConfig {
        self.config
    }

    /// Tile edge length.
    pub fn nt(&self) -> usize {
        self.config.tile_size.nt()
    }

    /// Number of row tiles.
    pub fn m_tiles(&self) -> usize {
        self.m_tiles
    }

    /// Number of column tiles.
    pub fn n_tiles(&self) -> usize {
        self.n_tiles
    }

    /// Number of stored (non-extracted, non-empty) tiles.
    pub fn num_tiles(&self) -> usize {
        self.tile_col.len()
    }

    /// Entries held in tiles (excludes the extracted COO part).
    pub fn tiled_nnz(&self) -> usize {
        self.tiled_nnz
    }

    /// Total nonzeros including the extracted part.
    pub fn nnz(&self) -> usize {
        self.tiled_nnz() + self.extra.nnz()
    }

    /// Payload format of stored tile `t`.
    pub fn tile_format(&self, t: usize) -> TileFormat {
        self.formats[t]
    }

    /// Number of stored tiles using the dense payload format.
    pub fn dense_tiles(&self) -> usize {
        self.formats
            .iter()
            .filter(|&&f| f == TileFormat::Dense)
            .count()
    }

    /// The extracted very-sparse entries (column-sorted).
    pub fn extra(&self) -> &CooMatrix<T> {
        &self.extra
    }

    /// The extracted entries of column `c`, as `(rows, values)` — the
    /// vector-driven access path of the hybrid pass.
    #[inline]
    pub fn extra_col(&self, c: usize) -> (&[u32], &[T]) {
        let (s, e) = (self.extra_col_ptr[c], self.extra_col_ptr[c + 1]);
        (&self.extra.row_indices()[s..e], &self.extra.values()[s..e])
    }

    /// Tile-level CSR pointer (length `m_tiles + 1`).
    pub fn tile_row_ptr(&self) -> &[usize] {
        &self.tile_row_ptr
    }

    /// Column-tile index array, parallel to stored tiles.
    pub fn tile_col(&self) -> &[u32] {
        &self.tile_col
    }

    /// Column-occupancy word of stored tile `t`: bit `lc` is set when
    /// column `lc` holds an entry. The kernels AND it with the vector
    /// tile's nonzero word before opening the tile.
    #[inline]
    pub fn col_word(&self, t: usize) -> u64 {
        self.col_word[t]
    }

    /// View of stored tile `t`.
    #[inline]
    pub fn tile(&self, t: usize) -> TileView<'_, T> {
        let nt = self.nt();
        let (s, e) = (self.tile_ptr[t], self.tile_ptr[t + 1]);
        let slot = self.dense_slot[t];
        let dense = match slot {
            CSR_SLOT | NON_FINITE_SLOT => None,
            slot => {
                let base = slot as usize * nt * nt;
                Some(&self.dense_vals[base..base + nt * nt])
            }
        };
        TileView {
            nt,
            col_tile: self.tile_col[t] as usize,
            nnz: self.tile_nnz[t] as usize,
            idx: if nt == 16 {
                EntryIndex::U8(&self.idx8[s..e])
            } else {
                EntryIndex::U16(&self.idx16[s..e])
            },
            vals: &self.vals[s..e],
            col_ptr: &self.col_ptr[t * (nt + 1)..(t + 1) * (nt + 1)],
            col_word: self.col_word[t],
            non_finite: slot == NON_FINITE_SLOT,
            dense,
        }
    }

    /// Indices of the stored tiles of row tile `rt`.
    #[inline]
    pub fn row_tile_range(&self, rt: usize) -> std::ops::Range<usize> {
        self.tile_row_ptr[rt]..self.tile_row_ptr[rt + 1]
    }

    /// Row-tile index of stored tile `t`.
    #[inline]
    pub fn tile_row_of(&self, t: usize) -> usize {
        self.tile_row[t] as usize
    }

    /// Stored-tile ids of column tile `ct`, in row-tile order — the lookup
    /// path of the vector-driven (CSC-form) kernel.
    #[inline]
    pub fn col_tiles(&self, ct: usize) -> &[u32] {
        &self.col_index_tiles[self.col_index_ptr[ct]..self.col_index_ptr[ct + 1]]
    }

    /// Reconstructs the logical CSR matrix (tiles plus extracted part);
    /// used by tests to prove the conversion lossless.
    pub fn to_csr(&self) -> CsrMatrix<T>
    where
        T: std::ops::Add<Output = T> + Send + Sync,
    {
        let nt = self.nt();
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for rt in 0..self.m_tiles {
            for t in self.row_tile_range(rt) {
                let view = self.tile(t);
                let base_r = rt * nt;
                let base_c = view.col_tile * nt;
                match view.dense {
                    Some(d) => {
                        // Dense payloads reconstruct their nonzeros (any
                        // explicitly stored structural zeros are dropped by
                        // design).
                        for lc in 0..nt {
                            for lr in 0..nt {
                                let v = d[lc * nt + lr];
                                if v != T::default() {
                                    coo.push(base_r + lr, base_c + lc, v);
                                }
                            }
                        }
                    }
                    None => {
                        for (lr, lc, v) in view.entries() {
                            coo.push(base_r + lr, base_c + lc, v);
                        }
                    }
                }
            }
        }
        for (r, c, v) in self.extra.iter() {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    /// Bytes of storage used by the tiled structure (the space numbers the
    /// paper's storage discussion relies on): tile-level metadata (the
    /// column offsets and occupancy words included), one packed coordinate
    /// (one byte at `nt = 16`, two at 32 and 64) plus one value per
    /// tile-CSR entry, the dense payloads, and the side COO.
    pub fn storage_bytes(&self) -> usize {
        let vb = std::mem::size_of::<T>();
        self.tile_row_ptr.len() * 8
            + self.tile_col.len() * 4
            + self.tile_ptr.len() * 8
            + self.idx8.len()
            + self.idx16.len() * 2
            + self.vals.len() * vb
            + self.col_ptr.len() * 2
            + self.col_word.len() * 8
            + self.dense_vals.len() * vb
            + self.formats.len()
            + self.tile_nnz.len() * 4
            + self.dense_slot.len() * 4
            + self.tile_row.len() * 4
            + self.col_index_ptr.len() * 8
            + self.col_index_tiles.len() * 4
            + self.extra_col_ptr.len() * 8
            + self.extra.nnz() * (4 + 4 + vb)
    }
}

/// The tile-level arrays pass 2 of [`TileMatrix::from_csr`] reads,
/// shared by every band.
struct Layout<'a> {
    nt: usize,
    n_tiles: usize,
    tile_row_ptr: &'a [usize],
    tile_col: &'a [u32],
    tile_ptr: &'a [usize],
    formats: &'a [TileFormat],
    col_ptr: &'a [u16],
    /// Each band's first dense tile, and the total after the last band.
    first_dense: &'a [u32],
}

/// One band's slices of the arrays pass 2 fills.
struct Payload<'a, T> {
    idx8: &'a mut [u8],
    idx16: &'a mut [u16],
    vals: &'a mut [T],
    dense_vals: &'a mut [T],
    dense_slot: &'a mut [u32],
}

/// Pass 1 of [`TileMatrix::from_csr`] over row tiles `rts`: counts each
/// column tile's entries, and each column's, per row tile. The counts fix
/// every tile's format, column offsets and occupancy word, and its offsets
/// in the band's share of the final arrays.
fn count_band<T: Copy>(
    a: &CsrMatrix<T>,
    config: TileConfig,
    rts: std::ops::Range<usize>,
    n_tiles: usize,
) -> BandTiles {
    let nt = config.tile_size.nt();
    // Fill level at which the dense payload takes over.
    let dense_nnz = ((config.dense_threshold * (nt * nt) as f64).ceil() as usize).max(1);
    let shift = nt.trailing_zeros();
    let mut counter = BandCounter::new(n_tiles);
    // Entries per column within the current row tile (at most `nt`).
    let mut col_count = vec![0u8; n_tiles * nt];
    let mut band = BandTiles {
        tile_row_ptr: Vec::with_capacity(rts.len() + 1),
        tile_ptr: vec![0],
        ..BandTiles::default()
    };
    band.tile_row_ptr.push(0);
    let mut n_entries = 0usize;
    for rt in rts {
        let rows = row_tile_rows(rt, nt, a.nrows());
        let cols = &a.col_idx()[a.row_ptr()[rows.start]..a.row_ptr()[rows.end]];
        for &c in cols {
            counter.add((c >> shift) as usize);
            col_count[c as usize] += 1;
        }
        counter.sort();
        for &ct in counter.tiles() {
            let n = counter.count(ct as usize);
            if n <= config.extract_threshold {
                // Its column counts are zeroed for the next row tile.
                col_count[ct as usize * nt..][..nt].fill(0);
                continue;
            }
            band.tile_col.push(ct);
            band.tile_nnz.push(n as u32);
            let dense = n >= dense_nnz;
            if dense {
                band.formats.push(TileFormat::Dense);
                band.dense_slot.push(band.n_dense);
                band.n_dense += 1;
            } else {
                band.formats.push(TileFormat::Csr);
                band.dense_slot.push(CSR_SLOT);
                n_entries += n;
            }
            band.tile_ptr.push(n_entries);
            // The column counts give the occupancy word and, for a CSR
            // tile, the column offsets (a dense tile owns no entries);
            // they are zeroed for the next row tile as they are read.
            let mut word = 0u64;
            let mut end = 0u16;
            band.col_ptr.push(0);
            for (lc, k) in col_count[ct as usize * nt..][..nt].iter_mut().enumerate() {
                let k = std::mem::take(k);
                word |= u64::from(k != 0) << lc;
                end += u16::from(k) * u16::from(!dense);
                band.col_ptr.push(end);
            }
            band.col_word.push(word);
        }
        counter.clear();
        band.tile_row_ptr.push(band.tile_col.len());
    }
    band
}

/// Pass 2 of [`TileMatrix::from_csr`] over band `k`, row tiles `rts`
/// holding stored tiles `tiles`: each tiled entry goes straight to its
/// final slot in the band's `out`, and each extracted one to a list,
/// returned. A CSR tile's columns get one write cursor each, from
/// its column offsets, and rows are walked in order, so every column's
/// entries arrive by ascending row: the tile bodies come out column-major
/// with no sort, and `extra` comes out row-major.
fn fill_band<T: Copy + Default + 'static>(
    a: &CsrMatrix<T>,
    l: &Layout<'_>,
    k: usize,
    rts: std::ops::Range<usize>,
    tiles: std::ops::Range<usize>,
    out: Payload<'_, T>,
) -> Vec<(u32, u32, T)> {
    let (nt, n_tiles) = (l.nt, l.n_tiles);
    let shift = nt.trailing_zeros();
    let byte_index = nt == 16;
    let mut extra = Vec::new();
    let (first_entry, first_dense) = (l.tile_ptr[tiles.start], l.first_dense[k] as usize);
    let Payload {
        idx8,
        idx16,
        vals,
        dense_vals,
        dense_slot,
    } = out;
    let mut dest = vec![Dest::Extra; n_tiles];
    let mut col_next = vec![0u16; n_tiles * nt];
    for rt in rts {
        let stored = l.tile_row_ptr[rt]..l.tile_row_ptr[rt + 1];
        for t in stored.clone() {
            let ct = l.tile_col[t] as usize;
            dest[ct] = match l.formats[t] {
                TileFormat::Csr => {
                    col_next[ct * nt..][..nt].copy_from_slice(&l.col_ptr[t * (nt + 1)..][..nt]);
                    Dest::Csr(l.tile_ptr[t] - first_entry, t - tiles.start)
                }
                TileFormat::Dense => {
                    let slot = dense_slot[t - tiles.start] as usize - first_dense;
                    Dest::Dense(slot * nt * nt)
                }
            };
        }
        for r in row_tile_rows(rt, nt, a.nrows()) {
            let lr = r - rt * nt;
            let (cols, row_vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(row_vals) {
                let lc = c as usize & (nt - 1);
                match dest[(c >> shift) as usize] {
                    Dest::Csr(base, t) => {
                        let next = &mut col_next[c as usize];
                        let e = base + usize::from(*next);
                        *next += 1;
                        let p = lr * nt + lc;
                        if byte_index {
                            idx8[e] = p as u8;
                        } else {
                            idx16[e] = p as u16;
                        }
                        vals[e] = v;
                        if non_finite(&v) {
                            dense_slot[t] = NON_FINITE_SLOT;
                        }
                    }
                    Dest::Dense(base) => dense_vals[base + lc * nt + lr] = v,
                    Dest::Extra => extra.push((r as u32, c, v)),
                }
            }
        }
        for t in stored {
            dest[l.tile_col[t] as usize] = Dest::Extra;
        }
    }
    extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::layout::TileSize;
    // TileFormat is re-exported through super::*; TileConfig::default()
    // carries the 0.75 dense threshold used below.
    use tsv_sparse::gen::{banded, uniform_random};

    fn cfg(ts: TileSize, extract: usize) -> TileConfig {
        TileConfig {
            tile_size: ts,
            extract_threshold: extract,
            ..Default::default()
        }
    }

    #[test]
    fn roundtrip_banded_all_tile_sizes() {
        let a = banded(100, 6, 0.7, 3).to_csr();
        for ts in TileSize::all() {
            let tm = TileMatrix::from_csr(&a, cfg(ts, 0)).unwrap();
            assert_eq!(tm.to_csr(), a, "tile size {ts}");
            assert_eq!(tm.nnz(), a.nnz());
        }
    }

    #[test]
    fn roundtrip_with_extraction() {
        let a = uniform_random(200, 200, 900, 5).to_csr();
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 2)).unwrap();
        assert!(
            tm.extra().nnz() > 0,
            "uniform random should have sparse tiles"
        );
        assert_eq!(tm.to_csr(), a);
        assert_eq!(tm.tiled_nnz() + tm.extra().nnz(), a.nnz());
    }

    #[test]
    fn extraction_threshold_moves_small_tiles() {
        // A matrix whose tiles each hold exactly one entry.
        let mut coo = CooMatrix::new(64, 64);
        for t in 0..4 {
            coo.push(t * 16, t * 16, 1.0);
        }
        let a = coo.to_csr();
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 2)).unwrap();
        assert_eq!(tm.num_tiles(), 0);
        assert_eq!(tm.extra().nnz(), 4);

        let keep = TileMatrix::from_csr(&a, cfg(TileSize::S16, 0)).unwrap();
        assert_eq!(keep.num_tiles(), 4);
        assert_eq!(keep.extra().nnz(), 0);
    }

    #[test]
    fn tile_views_expose_column_major_entries() {
        // 2x2 tiles over a 4x4 matrix with nt = 2.
        // [1 2 | 0 0]
        // [0 3 | 0 0]
        // [0 0 | 0 4]
        // [5 0 | 6 0]
        let mut coo = CooMatrix::new(4, 4);
        for &(r, c, v) in &[
            (0, 0, 1.0),
            (0, 1, 2.0),
            (1, 1, 3.0),
            (2, 3, 4.0),
            (3, 0, 5.0),
            (3, 2, 6.0),
        ] {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        // nt=16 would make one tile; use S16 but a 4x4 matrix is one tile.
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 0)).unwrap();
        assert_eq!(tm.m_tiles(), 1);
        assert_eq!(tm.num_tiles(), 1);
        let view = tm.tile(0);
        assert_eq!(view.nnz(), 6);
        let entries: Vec<_> = view.entries().collect();
        assert_eq!(
            entries,
            [
                (0, 0, 1.0),
                (3, 0, 5.0),
                (0, 1, 2.0),
                (1, 1, 3.0),
                (3, 2, 6.0),
                (2, 3, 4.0)
            ]
        );
        assert_eq!(view.col_word, 0b1111);
        assert_eq!(view.col_ptr.len(), 17);
        assert_eq!(&view.col_ptr[..5], &[0, 2, 4, 5, 6]);
        assert!(view.col_ptr[5..].iter().all(|&o| o == 6));
    }

    #[test]
    fn packed_index_is_the_papers_byte_at_16() {
        // Row in the high nibble, column in the low one, column-major;
        // dense tiles store no index.
        let a = banded(80, 5, 0.6, 7).to_csr();
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 0)).unwrap();
        assert_eq!((tm.idx8.len(), tm.idx16.len()), (tm.vals.len(), 0));
        for t in (0..tm.num_tiles()).filter(|&t| tm.tile_format(t) == TileFormat::Csr) {
            let (rt, ct) = (tm.tile_row_of(t), tm.tile(t).col_tile);
            let mut entries: Vec<(usize, usize)> = a
                .iter()
                .filter(|&(r, c, _)| (r / 16, c / 16) == (rt, ct))
                .map(|(r, c, _)| (c % 16, r % 16))
                .collect();
            entries.sort_unstable();
            let want: Vec<u8> = entries.iter().map(|&(c, r)| ((r << 4) | c) as u8).collect();
            assert!(
                matches!(tm.tile(t).idx, EntryIndex::U8(b) if b == &want[..]),
                "tile {t}"
            );
        }
    }

    #[test]
    fn larger_tiles_pack_two_byte_indices() {
        let a = banded(200, 40, 0.3, 7).to_csr();
        for ts in [TileSize::S32, TileSize::S64] {
            let tm = TileMatrix::from_csr(&a, cfg(ts, 0)).unwrap();
            assert_eq!((tm.idx8.len(), tm.idx16.len()), (0, tm.vals.len()), "{ts}");
            assert_eq!(tm.to_csr(), a, "{ts}");
        }
    }

    #[test]
    fn ragged_edges_handled() {
        // 33x33 with nt = 16 → 3x3 tile grid with ragged last row/col.
        let a = banded(33, 3, 1.0, 1).to_csr();
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 0)).unwrap();
        assert_eq!(tm.m_tiles(), 3);
        assert_eq!(tm.n_tiles(), 3);
        assert_eq!(tm.to_csr(), a);
    }

    #[test]
    fn empty_matrix_has_no_tiles() {
        let a = CsrMatrix::<f64>::zeros(50, 50);
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 2)).unwrap();
        assert_eq!(tm.num_tiles(), 0);
        assert_eq!(tm.nnz(), 0);
        assert_eq!(tm.to_csr().nnz(), 0);
    }

    #[test]
    fn banded_matrix_tiles_hug_the_diagonal() {
        let a = banded(128, 4, 1.0, 1).to_csr();
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 0)).unwrap();
        for rt in 0..tm.m_tiles() {
            for t in tm.row_tile_range(rt) {
                let ct = tm.tile(t).col_tile;
                assert!(ct.abs_diff(rt) <= 1, "tile ({rt},{ct}) off the band");
            }
        }
    }

    #[test]
    fn column_index_lists_every_tile_once() {
        let a = uniform_random(150, 150, 3000, 8).to_csr();
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 0)).unwrap();
        let mut seen = vec![false; tm.num_tiles()];
        for ct in 0..tm.n_tiles() {
            let mut prev_rt = None;
            for &t in tm.col_tiles(ct) {
                let t = t as usize;
                assert!(!seen[t], "tile {t} listed twice");
                seen[t] = true;
                assert_eq!(tm.tile(t).col_tile, ct);
                // Within a column, tiles appear in increasing row-tile order.
                let rt = tm.tile_row_of(t);
                if let Some(p) = prev_rt {
                    assert!(rt > p);
                }
                prev_rt = Some(rt);
            }
        }
        assert!(seen.iter().all(|&s| s), "column index missed a tile");
    }

    #[test]
    fn tile_row_of_matches_row_ranges() {
        let a = banded(120, 5, 0.8, 2).to_csr();
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S32, 0)).unwrap();
        for rt in 0..tm.m_tiles() {
            for t in tm.row_tile_range(rt) {
                assert_eq!(tm.tile_row_of(t), rt);
            }
        }
    }

    #[test]
    fn dense_tiles_appear_on_full_bands() {
        // fill = 1.0 makes diagonal tiles completely full.
        let a = banded(96, 16, 1.0, 1).to_csr();
        let tm = TileMatrix::from_csr(&a, TileConfig::default()).unwrap();
        assert!(tm.dense_tiles() > 0, "full band should produce dense tiles");
        assert_eq!(tm.to_csr(), a, "dense roundtrip");
        // Every tile's reported format matches its view.
        for t in 0..tm.num_tiles() {
            assert_eq!(tm.tile(t).format(), tm.tile_format(t));
            if tm.tile_format(t) == TileFormat::Dense {
                let view = tm.tile(t);
                assert!(view.vals.is_empty());
                let d = view.dense.unwrap();
                assert_eq!(d.len(), 16 * 16);
                assert_eq!(
                    d.iter().filter(|&&v| v != 0.0).count(),
                    view.nnz(),
                    "dense payload nnz mismatch"
                );
            }
        }
    }

    #[test]
    fn dense_threshold_above_one_disables_dense_tiles() {
        let a = banded(96, 16, 1.0, 1).to_csr();
        let cfg = TileConfig {
            dense_threshold: 1.5,
            ..Default::default()
        };
        let tm = TileMatrix::from_csr(&a, cfg).unwrap();
        assert_eq!(tm.dense_tiles(), 0);
        assert_eq!(tm.to_csr(), a);
    }

    #[test]
    fn aggressive_dense_threshold_roundtrips() {
        // Threshold 0.1 turns most banded tiles dense.
        let a = banded(120, 8, 0.7, 9).to_csr();
        let cfg = TileConfig {
            dense_threshold: 0.1,
            ..Default::default()
        };
        let tm = TileMatrix::from_csr(&a, cfg).unwrap();
        assert!(tm.dense_tiles() * 2 > tm.num_tiles());
        assert_eq!(tm.to_csr(), a);
        assert_eq!(tm.nnz(), a.nnz());
    }

    #[test]
    fn mixed_formats_within_one_row_tile() {
        // A full tile next to a sparse one in the same row tile.
        let mut coo = CooMatrix::new(16, 48);
        for r in 0..16 {
            for c in 0..16 {
                coo.push(r, c, (r * 16 + c + 1) as f64);
            }
        }
        coo.push(3, 40, 7.0);
        coo.push(5, 41, 8.0);
        coo.push(9, 42, 9.0);
        coo.push(11, 43, 10.0);
        let a = coo.to_csr();
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 0)).unwrap();
        assert_eq!(tm.num_tiles(), 2);
        assert_eq!(tm.tile_format(0), TileFormat::Dense);
        assert_eq!(tm.tile_format(1), TileFormat::Csr);
        assert_eq!(tm.to_csr(), a);
    }

    #[test]
    fn storage_bytes_nonzero_and_sane() {
        let a = banded(100, 6, 0.7, 3).to_csr();
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 2)).unwrap();
        let bytes = tm.storage_bytes();
        assert!(bytes >= tm.tiled_nnz() * 9);
        assert!(bytes < a.nnz() * 64, "storage estimate implausibly large");
    }

    #[test]
    fn boolean_matrix_tiles_and_roundtrips() {
        // Pattern-only matrices (OrAnd semiring) tile with the same code;
        // `false` is the structural zero.
        let f = banded(40, 3, 1.0, 2).to_csr();
        let (rp, ci) = (f.row_ptr().to_vec(), f.col_idx().to_vec());
        let vals = vec![true; ci.len()];
        let a = CsrMatrix::from_parts(40, 40, rp, ci, vals).unwrap();
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 1)).unwrap();
        assert_eq!(tm.nnz(), a.nnz());
        // `to_csr` needs `T: Add`; reconstruct coordinates by hand instead.
        let nt = tm.nt();
        let mut got: Vec<(usize, usize)> = Vec::new();
        for rt in 0..tm.m_tiles() {
            for t in tm.row_tile_range(rt) {
                let view = tm.tile(t);
                if let Some(d) = view.dense {
                    for lr in 0..nt {
                        for lc in 0..nt {
                            if d[lr * nt + lc] {
                                got.push((rt * nt + lr, view.col_tile * nt + lc));
                            }
                        }
                    }
                } else {
                    for (lr, lc, _) in view.entries() {
                        got.push((rt * nt + lr, view.col_tile * nt + lc));
                    }
                }
            }
        }
        for (r, c, v) in tm.extra().iter() {
            assert!(v);
            got.push((r, c));
        }
        got.sort_unstable();
        let want: Vec<(usize, usize)> = a.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(got, want);
    }

    /// Row tile 0 holds one entry per column tile (every one of them
    /// extracted at threshold 2), the rest is a banded block; rows 20..24
    /// are empty.
    fn edge_case_matrix(nrows: usize, ncols: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(nrows, ncols);
        for c in (0..ncols).step_by(16) {
            coo.push(c % 16, c, 1.0 + c as f64);
        }
        for (r, c, v) in banded(nrows.min(ncols), 5, 0.8, 11).iter() {
            if r >= 16 && !(20..24).contains(&r) {
                coo.push(r, c, v);
            }
        }
        coo.to_csr()
    }

    /// The invariants both passes must establish: the tiled entries and
    /// the side COO reproduce `a`, each row tile lists its column tiles in
    /// ascending order, every tile body is column-major with rows
    /// ascending inside a column, its column offsets delimit exactly its
    /// columns' entries and its occupancy word marks exactly its occupied
    /// columns, dense payloads are column-major, and every column's
    /// extracted rows ascend.
    fn assert_conversion(a: &CsrMatrix<f64>, cfg: TileConfig) {
        let tm = TileMatrix::from_csr(a, cfg).unwrap();
        let what = format!("{}x{} {cfg:?}", a.nrows(), a.ncols());
        assert_eq!(tm.to_csr(), *a, "{what}");
        assert_eq!(tm.nnz(), a.nnz(), "{what}");
        for rt in 0..tm.m_tiles() {
            let cols = &tm.tile_col()[tm.row_tile_range(rt)];
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "{what}");
        }
        let nt = tm.nt();
        for t in 0..tm.num_tiles() {
            let view = tm.tile(t);
            let what = format!("{what} tile {t}");
            assert!(view.nnz() > cfg.extract_threshold, "{what}");
            assert_eq!(view.col_word, tm.col_word(t), "{what}");
            assert_eq!(view.col_ptr.len(), nt + 1, "{what}");
            // The tile's entries from `a`, column-major.
            let (r0, c0) = (tm.tile_row_of(t) * nt, view.col_tile * nt);
            let mut want: Vec<(usize, usize, f64)> = a
                .iter()
                .filter(|&(r, c, _)| (r / nt, c / nt) == (r0 / nt, c0 / nt))
                .map(|(r, c, v)| (c - c0, r - r0, v))
                .collect();
            want.sort_by_key(|&(lc, lr, _)| (lc, lr));
            let word = want.iter().fold(0u64, |w, &(lc, _, _)| w | 1 << lc);
            assert_eq!(view.col_word, word, "{what}");
            let non_finite = want.iter().any(|&(_, _, v)| !v.is_finite());
            assert_eq!(
                view.non_finite,
                non_finite && view.dense.is_none(),
                "{what}"
            );
            if let Some(d) = view.dense {
                assert_eq!(d.iter().filter(|&&v| v != 0.0).count(), view.nnz());
                assert!(view.col_ptr.iter().all(|&o| o == 0), "{what}");
                for &(lc, lr, v) in &want {
                    assert_eq!(d[lc * nt + lr], v, "{what}");
                }
            } else {
                assert_eq!(view.vals.len(), view.nnz(), "{what}");
                let got: Vec<_> = view.entries().map(|(lr, lc, v)| (lc, lr, v)).collect();
                assert_eq!(got, want, "{what}");
                for lc in 0..nt {
                    let (s, e) = (view.col_ptr[lc] as usize, view.col_ptr[lc + 1] as usize);
                    assert!(s <= e, "{what}");
                    assert!(got[s..e].iter().all(|&(c, _, _)| c == lc), "{what}");
                    assert_eq!(e > s, (view.col_word >> lc) & 1 == 1, "{what}");
                }
                assert_eq!(view.col_ptr[nt] as usize, view.nnz(), "{what}");
            }
        }
        for c in 0..a.ncols() {
            let (rows, _) = tm.extra_col(c);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "{what}");
        }
    }

    #[test]
    fn conversion_edge_cases_roundtrip() {
        let shapes = [(70, 70), (45, 130), (130, 45), (16, 16), (1, 1)];
        let matrices = shapes
            .iter()
            .map(|&(r, c)| edge_case_matrix(r, c))
            .chain([CsrMatrix::zeros(0, 0), CsrMatrix::zeros(50, 37)])
            // Scattered rows meet their column tiles out of order.
            .chain([uniform_random(90, 110, 1200, 3).to_csr()]);
        for a in matrices {
            for tile_size in TileSize::all() {
                for extract_threshold in [0, 2, 10_000] {
                    for dense_threshold in [1e-9, 0.3, 0.75, 1.5] {
                        let cfg = TileConfig {
                            tile_size,
                            extract_threshold,
                            dense_threshold,
                        };
                        assert_conversion(&a, cfg);
                    }
                }
            }
        }
    }

    /// `±∞` and NaN mark the CSR tiles holding them, at every tile size
    /// and in both formats (dense tiles are never marked: their walk never
    /// meets `x`'s padding).
    #[test]
    fn non_finite_values_mark_their_csr_tiles() {
        let mut coo = CooMatrix::new(130, 130);
        for (r, c, v) in banded(130, 5, 0.8, 11).iter() {
            coo.push(r, c, v);
        }
        for (k, v) in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN]
            .into_iter()
            .enumerate()
        {
            coo.push(3 + 40 * k, 100 - 40 * k, v);
        }
        let a = coo.to_csr();
        for tile_size in TileSize::all() {
            for dense_threshold in [1e-9, 0.75] {
                let cfg = TileConfig {
                    tile_size,
                    extract_threshold: 0,
                    dense_threshold,
                };
                let tm = TileMatrix::from_csr(&a, cfg).unwrap();
                let nt = tm.nt();
                let mut marked = 0;
                for t in 0..tm.num_tiles() {
                    let view = tm.tile(t);
                    let (r0, c0) = (tm.tile_row_of(t) * nt, view.col_tile * nt);
                    let holds = a
                        .iter()
                        .any(|(r, c, v)| (r / nt, c / nt) == (r0 / nt, c0 / nt) && !v.is_finite());
                    assert_eq!(view.non_finite, holds && view.dense.is_none(), "{cfg:?}");
                    marked += usize::from(view.non_finite);
                }
                assert_eq!(marked > 0, dense_threshold > 0.5, "{cfg:?}");
            }
        }
    }

    #[test]
    fn row_tile_of_extracted_tiles_stores_none() {
        let a = edge_case_matrix(70, 70);
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 2)).unwrap();
        assert!(tm.row_tile_range(0).is_empty());
        assert!(tm.extra().nnz() >= 5);
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 0)).unwrap();
        assert_eq!(tm.row_tile_range(0).len(), 5);
        assert_eq!(tm.extra().nnz(), 0);
    }

    #[test]
    fn threshold_extremes_pick_one_format() {
        let a = banded(70, 5, 0.8, 11).to_csr();
        let all_dense = TileConfig {
            dense_threshold: 1e-9,
            ..cfg(TileSize::S16, 0)
        };
        let tm = TileMatrix::from_csr(&a, all_dense).unwrap();
        assert_eq!(tm.dense_tiles(), tm.num_tiles());
        assert!(tm.num_tiles() > 0);
        let tm = TileMatrix::from_csr(&a, cfg(TileSize::S16, 10_000)).unwrap();
        assert_eq!(tm.num_tiles(), 0);
        assert_eq!(tm.extra().nnz(), a.nnz());
    }
}
