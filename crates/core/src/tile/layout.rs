//! Tile geometry: sizes, configuration and index math.

use std::ops::Range;

/// Supported tile edge lengths (§3.2.1: "nt is usually 16, 32 or 64").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileSize {
    /// 16×16 tiles; an entry's intra-tile coordinate packs into one byte.
    S16,
    /// 32×32 tiles; one `u32` bitmask word per tile row/column.
    S32,
    /// 64×64 tiles; one `u64` bitmask word per tile row/column.
    S64,
}

impl TileSize {
    /// Edge length `nt`.
    #[inline]
    pub fn nt(self) -> usize {
        match self {
            Self::S16 => 16,
            Self::S32 => 32,
            Self::S64 => 64,
        }
    }

    /// The paper's TileBFS rule (§3.4): matrices of order greater than
    /// 10 000 use 64×64 tiles, smaller ones 32×32.
    pub fn for_bfs(order: usize) -> Self {
        if order > 10_000 {
            Self::S64
        } else {
            Self::S32
        }
    }

    /// All supported sizes, in increasing order (Table 2 reports tile
    /// counts for each).
    pub fn all() -> [Self; 3] {
        [Self::S16, Self::S32, Self::S64]
    }
}

impl std::fmt::Display for TileSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.nt(), self.nt())
    }
}

/// Construction parameters for the tiled formats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileConfig {
    /// Tile edge length.
    pub tile_size: TileSize,
    /// Tiles with at most this many nonzeros are *extracted*: their entries
    /// move to a side COO matrix instead of paying per-tile metadata
    /// (§3.2.1). `0` disables extraction.
    pub extract_threshold: usize,
    /// Tiles whose fill fraction reaches this store their payload *dense*
    /// (`nt²` values, no intra-tile indices) — the adaptive per-tile format
    /// of the TileSpMV substrate the paper extends. Values above 1.0
    /// disable dense tiles. The default 0.75 sits near the byte-cost
    /// break-even between indexed and dense payloads.
    pub dense_threshold: f64,
}

impl Default for TileConfig {
    fn default() -> Self {
        Self {
            tile_size: TileSize::S16,
            extract_threshold: 2,
            dense_threshold: 0.75,
        }
    }
}

impl TileConfig {
    /// Config with a given tile size and the default thresholds.
    pub fn with_size(tile_size: TileSize) -> Self {
        Self {
            tile_size,
            ..Default::default()
        }
    }
}

/// Physical layout of one stored tile's payload. Either way the tile also
/// carries an `nt`-bit column-occupancy word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileFormat {
    /// Indexed entries: one packed `lr * nt + lc` coordinate per value
    /// (`u8` at `nt = 16`, `u16` at 32 and 64), in column-major order
    /// (rows ascending inside each column), delimited per column by
    /// `nt + 1` column offsets.
    Csr,
    /// Dense `nt × nt` payload in column-major order, zeros included; no
    /// index decode on the read path.
    Dense,
}

/// Number of tiles needed to cover `len` elements with tiles of `nt`.
#[inline]
pub fn tiles_for(len: usize, nt: usize) -> usize {
    len.div_ceil(nt)
}

/// The rows of row tile `rt`: `rt * nt ..`, clipped at the last row.
#[inline]
pub(crate) fn row_tile_rows(rt: usize, nt: usize, nrows: usize) -> Range<usize> {
    rt * nt..(rt * nt + nt).min(nrows)
}

/// Pass-1 scratch of the two-pass tile builds: the entry count of each
/// column tile within the current row tile, and the list of the column
/// tiles it touches. One counter is reused row tile after row tile.
pub(crate) struct BandCounter {
    count: Vec<usize>,
    /// The touched column tiles, `len` of them, plus one spare slot for
    /// the branch-free append.
    tiles: Vec<u32>,
    len: usize,
    /// Bitset over all column tiles, empty between calls to `sort`.
    bits: Vec<u64>,
}

impl BandCounter {
    pub(crate) fn new(n_tiles: usize) -> Self {
        Self {
            count: vec![0; n_tiles],
            tiles: vec![0; n_tiles + 1],
            len: 0,
            bits: vec![0; n_tiles.div_ceil(64)],
        }
    }

    /// Counts one entry of column tile `ct`.
    #[inline]
    pub(crate) fn add(&mut self, ct: usize) {
        self.tiles[self.len] = ct as u32;
        self.len += usize::from(self.count[ct] == 0);
        self.count[ct] += 1;
    }

    /// Entries counted in column tile `ct` since the last `clear`.
    #[inline]
    pub(crate) fn count(&self, ct: usize) -> usize {
        self.count[ct]
    }

    /// Puts the touched column tiles in ascending order. A list that is
    /// long next to the bitset is ordered by one scan of the bitset, in
    /// time linear in the list; a short one is sorted directly.
    pub(crate) fn sort(&mut self) {
        let tiles = &mut self.tiles[..self.len];
        if tiles.len() * 8 < self.bits.len() {
            tiles.sort_unstable();
            return;
        }
        for &ct in tiles.iter() {
            self.bits[ct as usize / 64] |= 1 << (ct % 64);
        }
        let mut k = 0;
        for (i, word) in self.bits.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                tiles[k] = (i * 64) as u32 + w.trailing_zeros();
                k += 1;
                w &= w - 1;
            }
        }
    }

    /// The touched column tiles (ascending after `sort`).
    pub(crate) fn tiles(&self) -> &[u32] {
        &self.tiles[..self.len]
    }

    /// Zeroes the counts for the next row tile.
    pub(crate) fn clear(&mut self) {
        for &ct in &self.tiles[..self.len] {
            self.count[ct as usize] = 0;
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nt_values() {
        assert_eq!(TileSize::S16.nt(), 16);
        assert_eq!(TileSize::S32.nt(), 32);
        assert_eq!(TileSize::S64.nt(), 64);
    }

    #[test]
    fn bfs_size_rule_matches_paper() {
        assert_eq!(TileSize::for_bfs(10_000), TileSize::S32);
        assert_eq!(TileSize::for_bfs(10_001), TileSize::S64);
        assert_eq!(TileSize::for_bfs(100), TileSize::S32);
    }

    #[test]
    fn tiles_for_rounds_up() {
        assert_eq!(tiles_for(0, 16), 0);
        assert_eq!(tiles_for(1, 16), 1);
        assert_eq!(tiles_for(16, 16), 1);
        assert_eq!(tiles_for(17, 16), 2);
    }

    #[test]
    fn display_prints_dimensions() {
        assert_eq!(TileSize::S32.to_string(), "32x32");
    }

    #[test]
    fn band_counter_orders_touched_tiles_both_ways() {
        // 10 000 column tiles are 157 bitset words: three touched tiles
        // take the direct sort, forty the bitset scan.
        let few = vec![9_999u32, 3, 500];
        let many: Vec<u32> = (0..40).rev().map(|i| i * 250).collect();
        let mut counter = BandCounter::new(10_000);
        for touched in [few, many] {
            for &ct in touched.iter().chain(&touched) {
                counter.add(ct as usize);
            }
            counter.sort();
            let mut want = touched.clone();
            want.sort_unstable();
            assert_eq!(counter.tiles(), want);
            assert!(want.iter().all(|&ct| counter.count(ct as usize) == 2));
            counter.clear();
            assert!(counter.tiles().is_empty());
            assert!(want.iter().all(|&ct| counter.count(ct as usize) == 0));
        }
    }

    #[test]
    fn default_config() {
        let c = TileConfig::default();
        assert_eq!(c.tile_size, TileSize::S16);
        assert_eq!(c.extract_threshold, 2);
        let c = TileConfig::with_size(TileSize::S64);
        assert_eq!(c.tile_size, TileSize::S64);
    }
}
