//! The numeric kernels, generic over the [`Semiring`].
//!
//! * [`row_kernel_semiring`] — the CSR form (Algorithm 4): one warp per row
//!   tile. For each stored tile the warp resolves the matching vector tile
//!   in O(1) via `x_ptr` and ANDs its nonzero word with the tile's
//!   column-occupancy word; only when they meet does it open the tile and
//!   accumulate the tile-local products of those columns into the row
//!   tile's private slice of `y`. A row tile owns its output rows, so no
//!   atomics are needed.
//! * [`col_kernel_semiring`] — the CSC form: one warp per *non-empty vector
//!   tile*, touching only the matrix tiles of the matching column tile, so
//!   very sparse `x` reaches a vanishing fraction of the matrix.
//! * [`coo_kernel_semiring`] — the hybrid pass over the extracted
//!   very-sparse entries (§3.2.1), driven by `x`'s nonzeros like the
//!   GSwitch traversal the paper delegates this part to.
//!
//! Every kernel exists once and writes a lane-major slab: slot `r * B + q`
//! for row `r` and query lane `q` of a `B`-lane batch. A single multiply is
//! the one-lane launch (`B = 1`, lane 0), where every slot index reduces to
//! the row itself, so the single-vector and batched engines run the same
//! kernels under the same launch labels. The row kernels pull a listed
//! subset of the slab's lanes at once; the column and COO kernels push one
//! lane per launch.
//!
//! Every tile body is driven by `x`: it walks only the tile column the
//! vector tile holds, or, once the vector tile holds [`FLAT_WALK`] of the
//! tile's columns, makes one flat pass over the column-major entries. A
//! tile that holds a non-finite value is always walked column by column,
//! so no such value meets `x`'s padding and turns a product into NaN.
//!
//! The row kernels read each stored tile entry once for a group of up to
//! [`LANE_GROUP`] active lanes: the value and its coordinate are loaded
//! once, then folded into every lane's accumulator (the vector block as the
//! innermost loop, as in a thin SpGEMM). Each lane folds its entries in the
//! same order as a one-lane walk, so `PlusTimes` bits do not depend on the
//! batch; a group of one runs the one-lane body itself, and a one-lane
//! launch keeps the plain tile walk. The batch charges each walked column
//! of a tile body once, while every lane pays its own words, vector values
//! and flops.
//!
//! Work counting matches the paper's accounting (value bytes scale with
//! `size_of::<S::T>()`, so the `f64` counts are byte for byte those of a
//! `(+, ×)` kernel). The output is written into a caller-owned padded
//! buffer, and each kernel marks the *row tiles* it wrote in a shared
//! bitset, so the driver's compaction and reset can visit only written
//! tiles (work proportional to `nnz(y)`, not `n`).
//!
//! The scatter kernels (column-push and the COO pass) buffer their
//! contributions per warp and merge them in warp order afterwards instead
//! of using atomic adds. The atomic/scattered-write counters are charged at
//! production time as an atomic merge would charge them, and the merge
//! order is deterministic — a strict refinement of scheduling-dependent
//! atomic ordering. Per slot, the column kernel folds the tile partials of
//! a row in column-tile order, exactly as the row kernel does, so under
//! `PlusTimes` push and pull give the same bits.

use crate::semiring::Semiring;
use crate::tile::bitvec::iter_bits;
use crate::tile::matrix::{EntryIndex, TileView};
use crate::tile::{TileMatrix, TiledVector};
use tsv_simt::atomic::AtomicWords;
use tsv_simt::backend::ExecCtx;
use tsv_simt::stats::KernelStats;
use tsv_simt::warp::{WarpCtx, WARP_SIZE};
use tsv_sparse::SparseVector;

/// Marks row tile `rt` of lane `q` in the shared touched bitset from a
/// row-tile warp, logging the atomic OR on the warp. Each lane owns `wpl`
/// consecutive words (lane `q` from word `q * wpl`), so a one-lane launch
/// marks bit `rt` itself and the driver compacts every lane over only the
/// row tiles it wrote.
#[inline]
fn mark_logged(touched: &AtomicWords, wpl: usize, q: usize, rt: usize, warp: &WarpCtx) {
    touched.fetch_or(q * wpl + rt / 64, 1 << (rt % 64));
    warp.rmw("touched", q * wpl + rt / 64, 0);
}

/// Shadow-logs the row-tile kernels' once-per-warp output-tile store: a
/// plain write to slot `(row0 + lr) * b + q` of every tile row `lr` and
/// pulled lane `q`. Guarded so an unwatched warp costs one branch for the
/// whole tile, not one per element.
#[inline]
fn log_tile_write(warp: &WarpCtx, row0: usize, nt: usize, b: usize, lanes: &[u32]) {
    if warp.sanitized() {
        for lr in 0..nt {
            for &q in lanes {
                let i = lr * b + q as usize;
                warp.write("y", row0 * b + i, i % WARP_SIZE);
            }
        }
    }
}

/// A tile body that `x` meets in at least `FLAT_WALK` of its columns takes
/// one flat pass over its column-major strip instead of walking only those
/// columns. Jumping column by column pays per column and per unpredictable
/// branch, while a flat pass streams the strip with no per-entry test:
/// from the second column on, the flat pass costs about the same on fem
/// tiles and less on web tiles (about four entries per column). DESIGN
/// §5 has the measurements.
pub const FLAT_WALK: u32 = 2;

/// Whether a walk over the tile columns `hit` makes one flat pass
/// ([`FLAT_WALK`]): clearing the lowest `FLAT_WALK - 1` set bits of `hit`
/// leaves one more.
#[inline]
fn flat_walk(hit: u64) -> bool {
    (1..FLAT_WALK).fold(hit, |h, _| h & h.wrapping_sub(1)) != 0
}

/// Folds one tile-CSR body for the `K` lanes of `xs` (each a vector tile
/// and the columns of this tile it holds) and hands each touched row's `K`
/// sums to `emit(stats, local_row, sums)` in ascending row order.
///
/// The entries are column-major. When the lanes meet at least
/// [`FLAT_WALK`] columns, it makes one flat pass over the strip that folds
/// every lane over every entry, so no per-entry test slows it; otherwise
/// each lane walks only its own columns through the column offsets.
/// Either way each row folds its entries in ascending column from
/// `S::zero()`.
///
/// In the flat pass a lane meets `x`'s padding (`S::zero()`) at the
/// columns it does not hold. For every finite value that product is ±0,
/// which leaves a `PlusTimes` sum's bits as they are (an accumulator that
/// starts at `+0` never reaches `-0`), so every `PlusTimes` bit is that of
/// a row-by-row walk over the entries `x` meets. A tile that holds a
/// non-finite value (`non_finite`), which would turn such a product into
/// NaN, is always walked column by column.
///
/// `loaded` holds the columns whose entries earlier groups of the same
/// tile already read; only the rest are charged, with one offset pair per
/// column a column walk reads. Each lane is charged two flops and half a
/// lane step per entry it steps through.
#[inline]
#[allow(clippy::too_many_arguments)]
fn csr_fold<S: Semiring, I: Copy + Into<usize>, const NT: usize, const K: usize>(
    idx: &[I],
    vals: &[S::T],
    col_ptr: &[u16],
    col_word: u64,
    non_finite: bool,
    xs: [(&[S::T], u64); K],
    loaded: &mut u64,
    stats: &mut KernelStats,
    mut emit: impl FnMut(&mut KernelStats, usize, &[S::T; K]),
) {
    let entry_bytes = std::mem::size_of::<I>() + std::mem::size_of::<S::T>();
    let x: [&[S::T; NT]; K] =
        xs.map(|(x, _)| x[..NT].try_into().expect("vector tiles hold nt values"));
    let hit = xs.iter().fold(0, |h, &(_, w)| h | w);
    let col_ptr = &col_ptr[..=NT];
    let col = |c: usize| usize::from(col_ptr[c])..usize::from(col_ptr[c + 1]);
    let mut acc = [[S::zero(); K]; NT];
    let occupied = if !non_finite && flat_walk(hit) {
        for (&p, &v) in idx.iter().zip(vals) {
            let p: usize = p.into();
            let (lr, lc) = (p / NT, p % NT);
            for (a, x) in acc[lr].iter_mut().zip(&x) {
                *a = S::add(*a, S::mul(v, x[lc]));
            }
        }
        let fresh = match *loaded {
            0 => vals.len(),
            done => iter_bits(col_word & !done).map(|c| col(c).len()).sum(),
        };
        stats.read(fresh * entry_bytes);
        *loaded |= col_word;
        stats.flop(2 * vals.len() * K);
        stats.lane_steps += vals.len().div_ceil(2) as u64 * K as u64;
        // A flat pass meets most rows: it hands on all of them (an
        // untouched row's sum is `S::zero()`) instead of tracking them.
        u64::MAX >> (64 - NT)
    } else {
        let mut occupied = 0u64;
        for (q, (x, &(_, w))) in x.iter().zip(&xs).enumerate() {
            // Every column index is under `NT`, which bounds the offsets.
            let mut n = 0;
            for c in iter_bits(w & (u64::MAX >> (64 - NT))) {
                let entries = col(c);
                let xv = x[c];
                for (&p, &v) in idx[entries.clone()].iter().zip(&vals[entries.clone()]) {
                    let lr = p.into() / NT;
                    occupied |= 1 << lr;
                    acc[lr][q] = S::add(acc[lr][q], S::mul(v, xv));
                }
                if (*loaded >> c) & 1 == 0 {
                    stats.read(entries.len() * entry_bytes + 2 * std::mem::size_of::<u16>());
                }
                *loaded |= 1 << c;
                n += entries.len();
            }
            stats.flop(2 * n);
            stats.lane_steps += n.div_ceil(2) as u64;
        }
        occupied
    };
    for lr in iter_bits(occupied) {
        emit(stats, lr, &acc[lr]);
    }
}

/// Folds one column-major dense payload for the `K` lanes of `xs`, each
/// lane walking only the columns it holds, and hands every row's `K` sums
/// to `emit(stats, local_row, sums)` in ascending row order. Each row
/// folds its columns in ascending order from `S::zero()`; a skipped column
/// would only have added products with `x`'s padding or with the
/// payload's structural zeros. Charges the payload columns `loaded` does
/// not hold yet, and per lane two flops per value of each column it
/// walks.
#[inline]
fn dense_fold<S: Semiring, const NT: usize, const K: usize>(
    d: &[S::T],
    xs: [(&[S::T], u64); K],
    loaded: &mut u64,
    stats: &mut KernelStats,
    mut emit: impl FnMut(&mut KernelStats, usize, &[S::T; K]),
) {
    let hit = xs.iter().fold(0, |h, &(_, w)| h | w);
    // Lane-major accumulators, so each column's update runs down `NT`
    // independent rows.
    let mut acc = [[S::zero(); NT]; K];
    for (a, &(x, w)) in acc.iter_mut().zip(&xs) {
        for c in iter_bits(w) {
            let col: &[S::T; NT] = d[c * NT..][..NT].try_into().expect("nt x nt payload");
            let xv = x[c];
            for (a, &v) in a.iter_mut().zip(col) {
                *a = S::add(*a, S::mul(v, xv));
            }
        }
    }
    stats.read((hit & !*loaded).count_ones() as usize * NT * std::mem::size_of::<S::T>());
    *loaded |= hit;
    for lr in 0..NT {
        emit(stats, lr, &std::array::from_fn(|q| acc[q][lr]));
    }
    for &(_, w) in &xs {
        let values = NT * w.count_ones() as usize;
        stats.flop(2 * values);
        stats.lane_steps += values.div_ceil(WARP_SIZE) as u64 * WARP_SIZE as u64;
    }
}

/// Folds one stored tile for the `K` lanes of `xs`: each lane's vector
/// tile with the columns of this tile it holds (never zero). Dispatches
/// on the payload format and the tile size, so every body runs with a
/// constant `nt`; see [`csr_fold`] and [`dense_fold`].
#[inline]
fn tile_body<S: Semiring, const K: usize>(
    view: &TileView<'_, S::T>,
    xs: [(&[S::T], u64); K],
    loaded: &mut u64,
    stats: &mut KernelStats,
    emit: impl FnMut(&mut KernelStats, usize, &[S::T; K]),
) {
    let (vals, col_ptr, word, nf) = (view.vals, view.col_ptr, view.col_word, view.non_finite);
    match (view.dense, view.idx) {
        (Some(d), _) => match view.nt {
            16 => dense_fold::<S, 16, K>(d, xs, loaded, stats, emit),
            32 => dense_fold::<S, 32, K>(d, xs, loaded, stats, emit),
            _ => dense_fold::<S, 64, K>(d, xs, loaded, stats, emit),
        },
        (None, EntryIndex::U8(idx)) => {
            csr_fold::<S, _, 16, K>(idx, vals, col_ptr, word, nf, xs, loaded, stats, emit);
        }
        (None, EntryIndex::U16(idx)) if view.nt == 32 => {
            csr_fold::<S, _, 32, K>(idx, vals, col_ptr, word, nf, xs, loaded, stats, emit);
        }
        (None, EntryIndex::U16(idx)) => {
            csr_fold::<S, _, 64, K>(idx, vals, col_ptr, word, nf, xs, loaded, stats, emit);
        }
    }
}

/// Computes the intra-tile row sums of one stored tile for one vector tile
/// that holds the tile columns `hit` (never zero), handing each to
/// `emit(stats, local_row, sum)`: rows are emitted once each, in ascending
/// order, and every per-row sum folds its entries in ascending-column
/// order, so each output slot receives at most one fold per tile, tiles
/// visited in tile order. See [`tile_body`].
#[inline]
fn tile_rows_semiring<S: Semiring, F: FnMut(&mut KernelStats, usize, S::T)>(
    view: &TileView<'_, S::T>,
    x_tile: &[S::T],
    hit: u64,
    loaded: &mut u64,
    stats: &mut KernelStats,
    mut emit: F,
) {
    tile_body::<S, 1>(view, [(x_tile, hit)], loaded, stats, |st, lr, &[sum]| {
        emit(st, lr, sum);
    });
}

/// Active lanes folded per pass over a stored tile body: each loaded entry
/// feeds up to four independent accumulator chains.
pub const LANE_GROUP: usize = 4;

/// One gathered lane: its slab lane, its vector tile, and the columns of
/// the current matrix tile that vector tile holds.
type Lane<'x, T> = (usize, &'x [T], u64);

/// The lane-blocked body: computes intra-tile row sums of one dense or
/// tile-CSR tile for the `K` lanes of `group`, handing each to
/// `emit(local_row, lane, sum)`. A flat pass loads each entry's value and
/// coordinate once and folds it into every lane's accumulator; per lane
/// the fold order is the one-lane body's ([`tile_rows_semiring`]), so
/// `PlusTimes` bits match it.
#[inline]
fn tile_rows_lanes<S: Semiring, const K: usize, F: FnMut(usize, usize, S::T)>(
    view: &TileView<'_, S::T>,
    group: &[Lane<'_, S::T>],
    loaded: &mut u64,
    stats: &mut KernelStats,
    emit: &mut F,
) {
    let lanes: [usize; K] = std::array::from_fn(|i| group[i].0);
    let xs: [(&[S::T], u64); K] = std::array::from_fn(|i| (group[i].1, group[i].2));
    tile_body::<S, K>(view, xs, loaded, stats, |_, lr, sums| {
        for (&q, &sum) in lanes.iter().zip(sums) {
            emit(lr, q, sum);
        }
    });
}

/// Folds one gathered lane group over a dense or tile-CSR tile body: a
/// group of one runs the one-lane body [`tile_rows_semiring`] unchanged,
/// wider groups the lane-blocked body.
#[inline]
fn fold_group<S: Semiring, F: FnMut(usize, usize, S::T)>(
    view: &TileView<'_, S::T>,
    group: &[Lane<'_, S::T>],
    loaded: &mut u64,
    stats: &mut KernelStats,
    emit: &mut F,
) {
    match *group {
        [(q, x_tile, hit)] => {
            tile_rows_semiring::<S, _>(view, x_tile, hit, loaded, stats, |_, lr, sum| {
                emit(lr, q, sum);
            });
        }
        [_, _] => tile_rows_lanes::<S, 2, F>(view, group, loaded, stats, emit),
        [_, _, _] => tile_rows_lanes::<S, 3, F>(view, group, loaded, stats, emit),
        _ => tile_rows_lanes::<S, LANE_GROUP, F>(view, group, loaded, stats, emit),
    }
}

/// Lane `q`'s vector tile of column tile `ct`, which meets the current
/// stored tile: the `x_ptr` probe and the vector tile load ("into shared
/// memory"). The callers charge the words that decided it.
#[inline]
fn load_x_tile<'x, T: Copy + PartialEq + Default>(
    xts: &'x [TiledVector<T>],
    q: usize,
    ct: usize,
    warp: &mut WarpCtx,
) -> &'x [T] {
    let x_tile = xts[q]
        .tile(ct)
        .expect("a vector tile with a nonzero word is stored");
    warp.stats.read_scattered(4);
    warp.stats.read(std::mem::size_of_val(x_tile));
    warp.read("x-tiles", ct, q % WARP_SIZE);
    x_tile
}

/// Walks one stored tile for every listed lane whose vector tile holds at
/// least one of the tile's occupied columns, calling `active(warp, lane)`
/// for each such lane and handing each intra-tile row sum to
/// `emit(local_row, lane, sum)`.
///
/// The active lanes are gathered in list order into groups of up to
/// [`LANE_GROUP`], each group folded by one walk over the tile body (see
/// [`csr_fold`]): a group that meets [`FLAT_WALK`] columns together
/// shares one flat pass, which charges every lane of it for every entry.
/// The tile is opened at the first group, and each column's entries are
/// charged once, at the first walk that reads them (the tile is resident
/// across lanes — the traversal amortization a batch buys), while each
/// lane pays its own words and vector tile. Per lane the fold order does
/// not depend on the batch, so `PlusTimes` results of a `B`-lane launch
/// are bit-identical to `B` one-lane launches. Kept out of line so the
/// one-lane walk of [`walk_row_tile`] stays small.
#[inline(never)]
fn tile_lane_groups<S: Semiring>(
    a: &TileMatrix<S::T>,
    t: usize,
    xts: &[TiledVector<S::T>],
    lanes: &[u32],
    warp: &mut WarpCtx,
    active: &mut impl FnMut(&WarpCtx, usize),
    emit: &mut impl FnMut(usize, usize, S::T),
) where
    S::T: Default,
{
    let ct = a.tile_col()[t] as usize;
    let col_word = a.col_word(t);
    let mut x_words = 0;
    let mut view = None;
    let mut loaded = 0;
    let mut fold = |group: &[Lane<'_, S::T>], stats: &mut KernelStats| {
        let view = view.get_or_insert_with(|| a.tile(t));
        fold_group::<S, _>(view, group, &mut loaded, stats, emit);
    };
    let mut group: [Lane<'_, S::T>; LANE_GROUP] = [(0, &[], 0); LANE_GROUP];
    let mut k = 0;
    for &q in lanes {
        let q = q as usize;
        let x_word = xts[q].word(ct);
        x_words |= x_word;
        let hit = x_word & col_word;
        if hit == 0 {
            continue;
        }
        let x_tile = load_x_tile(xts, q, ct, warp);
        active(warp, q);
        group[k] = (q, x_tile, hit);
        k += 1;
        if k == LANE_GROUP {
            fold(&group[..k], &mut warp.stats);
            k = 0;
        }
    }
    if k > 0 {
        fold(&group[..k], &mut warp.stats);
    }
    // Every lane's nonzero word, and the tile's column word once a lane
    // has a non-empty vector tile.
    warp.stats.read_scattered(8 * lanes.len());
    if x_words != 0 {
        warp.stats.read(8);
    }
}

/// One warp's pass over row tile `rt` when it owns the tile's whole
/// `nt * B` output slab: stored tiles in tile order, every pulled lane
/// folded in place, the pulled lanes' slots written once, and each lane
/// that wrote marked in its touched bitset.
///
/// Each stored tile costs its header (column-tile index and the vector
/// tile's nonzero word) and, when the vector tile is non-empty, the words
/// that decide whether a lane meets the tile at all; a tile no lane meets
/// is never opened.
///
/// Lanes are striped over the tile rows (two lanes per row at `nt = 16`);
/// on the CPU the warp walks its rows in order, each row reducing its
/// partial sums exactly as the `__shfl_down_sync` pair of Algorithm 4
/// would.
#[inline]
fn row_tile_in_place<S: Semiring>(
    a: &TileMatrix<S::T>,
    xts: &[TiledVector<S::T>],
    lanes: &[u32],
    rt: usize,
    warp: &mut WarpCtx,
    y_slab: &mut [S::T],
    touched: &AtomicWords,
) where
    S::T: Default,
{
    let nt = a.nt();
    let b = xts.len();
    let wpl = a.m_tiles().div_ceil(64);
    // The row tile writes its pulled lanes' outputs once.
    warp.stats
        .write(nt * lanes.len() * std::mem::size_of::<S::T>());
    log_tile_write(warp, rt * nt, nt, b, lanes);
    // Lanes below 64 collect in a register and are marked once, after the
    // row tile; wider batches mark their upper lanes as they go.
    let mut written = 0u64;
    let mut active = |warp: &WarpCtx, q: usize| match 1u64.checked_shl(q as u32) {
        Some(bit) => written |= bit,
        None => mark_logged(touched, wpl, q, rt, warp),
    };
    walk_row_tile::<S>(a, xts, lanes, rt, warp, y_slab, &mut active);
    for q in iter_bits(written) {
        mark_logged(touched, wpl, q, rt, warp);
    }
}

/// The stored tiles of row tile `rt` folded into the pulled lanes' slots,
/// calling `active(warp, lane)` for each lane a tile is folded for.
#[inline]
fn walk_row_tile<S: Semiring>(
    a: &TileMatrix<S::T>,
    xts: &[TiledVector<S::T>],
    lanes: &[u32],
    rt: usize,
    warp: &mut WarpCtx,
    y_slab: &mut [S::T],
    active: &mut impl FnMut(&WarpCtx, usize),
) where
    S::T: Default,
{
    let b = xts.len();
    // A one-lane launch (a single multiply) keeps the plain walk: read each
    // stored tile's words, and run the one-lane body over the columns they
    // share. Routed through the lane machinery below it runs measurably
    // slower.
    let [q] = *lanes else {
        return row_tile_lanes::<S>(a, xts, lanes, rt, warp, y_slab, active);
    };
    let q = q as usize;
    let mut dirty = false;
    let x = &xts[q];
    for t in a.row_tile_range(rt) {
        warp.stats.read(4); // A_tile_colid[tile_id] (streamed)
        let ct = a.tile_col()[t] as usize;
        let x_word = x.word(ct);
        warp.stats.read_scattered(8);
        if x_word == 0 {
            continue;
        }
        warp.stats.read(8); // the tile's column word
        let hit = x_word & a.col_word(t);
        if hit == 0 {
            continue;
        }
        let x_tile = load_x_tile(xts, q, ct, warp);
        let view = a.tile(t);
        tile_rows_semiring::<S, _>(&view, x_tile, hit, &mut 0, &mut warp.stats, |_, lr, sum| {
            let i = lr * b + q;
            y_slab[i] = S::add(y_slab[i], sum);
        });
        dirty = true;
    }
    if dirty {
        active(warp, q);
    }
}

/// The lane-blocked pass of [`walk_row_tile`] for two or more pulled
/// lanes: every stored tile walked once through [`tile_lane_groups`],
/// calling `active(warp, lane)` for each lane a tile is folded for.
#[inline(never)]
fn row_tile_lanes<S: Semiring>(
    a: &TileMatrix<S::T>,
    xts: &[TiledVector<S::T>],
    lanes: &[u32],
    rt: usize,
    warp: &mut WarpCtx,
    y_slab: &mut [S::T],
    active: &mut impl FnMut(&WarpCtx, usize),
) where
    S::T: Default,
{
    let b = xts.len();
    let mut emit = |lr: usize, q: usize, sum: S::T| {
        let i = lr * b + q;
        y_slab[i] = S::add(y_slab[i], sum);
    };
    for t in a.row_tile_range(rt) {
        warp.stats.read(4); // A_tile_colid[tile_id] (streamed)
        tile_lane_groups::<S>(a, t, xts, lanes, warp, active, &mut emit);
    }
}

/// CSR-form row-tile kernel over an arbitrary semiring (Algorithm 4),
/// launched through `ctx` for the `lanes` of a column-blocked batch of
/// `xts.len()` sparse vectors. A single multiply is the one-lane batch
/// (`lanes = [0]`).
///
/// One warp per row tile. For each stored tile the warp reads every
/// pulled lane's vector-tile word in O(1) and accumulates only the lanes
/// whose vector tile holds one of the tile's occupied columns. `y` is the
/// lane-major output slab, `m_tiles * nt * B` long (`B = xts.len()`, the
/// slab width) with the slot of (global row `r`, lane `q`) at `r * B + q`;
/// the listed lanes' slots must hold `S::zero()`. Only the slots of the
/// listed lanes are written, and only they are charged. `touched`
/// holds one row-tile bitset per slab lane (`m_tiles.div_ceil(64)` words
/// each, lane order), and every kernel marks the row tiles it wrote in the
/// bitset of the lane it wrote them for. Each warp
/// owns the `nt * B` slab of its row tile, so no atomics are needed and
/// write-disjointness across lanes is structural — the argument the
/// analyzer's chunked footprint proves at plan time.
pub fn row_kernel_semiring<S: Semiring>(
    ctx: &ExecCtx,
    a: &TileMatrix<S::T>,
    xts: &[TiledVector<S::T>],
    lanes: &[u32],
    y: &mut [S::T],
    touched: &AtomicWords,
) -> KernelStats
where
    S::T: Default,
{
    let nt = a.nt();
    let b = xts.len();
    debug_assert!(xts.iter().all(|xt| xt.nt() == nt), "batch tiled with nt");
    debug_assert!(
        lanes.iter().all(|&q| (q as usize) < b),
        "lane outside the slab"
    );
    debug_assert_eq!(y.len(), a.m_tiles() * nt * b, "lane-major slab sized wrong");
    debug_assert_eq!(
        touched.len(),
        a.m_tiles().div_ceil(64) * b,
        "one bitset per lane"
    );
    if b == 0 {
        return KernelStats::default();
    }
    let work = opened_entries(a, lanes.iter().map(|&q| &xts[q as usize]));
    ctx.launch_over_chunks("spmspv/row-tile", y, nt * b, work, |warp, y_slab| {
        let rt = warp.warp_id;
        row_tile_in_place::<S>(a, xts, lanes, rt, warp, y_slab, touched);
    })
}

/// CSC-form (vector-driven) kernel over an arbitrary semiring, pushing
/// lane `lane` of a `b`-lane slab (slot `r * b + lane`). A single multiply
/// is lane 0 of a one-lane slab.
///
/// One warp per non-empty vector tile, contributions buffered in
/// `contribs` (one bucket per warp, capacity kept across calls) and merged
/// into `y` in warp order after the launch. Lanes touch disjoint slab
/// slots, so a batched driver launches one push per push lane without
/// cross-lane interference, and per lane the push and merge order does not
/// depend on `b`.
#[allow(clippy::too_many_arguments)]
pub fn col_kernel_semiring<S: Semiring>(
    ctx: &ExecCtx,
    a: &TileMatrix<S::T>,
    x: &TiledVector<S::T>,
    lane: usize,
    b: usize,
    y: &mut [S::T],
    contribs: &mut Vec<Vec<(u32, S::T)>>,
    touched: &mut AtomicWords,
) -> KernelStats
where
    S::T: Default,
{
    let nt = a.nt();
    debug_assert_eq!(x.nt(), nt, "vector tiled with a different nt");
    debug_assert!(lane < b, "lane outside the slab");
    debug_assert_eq!(y.len(), a.m_tiles() * nt * b, "lane-major slab sized wrong");
    debug_assert_eq!(
        touched.len(),
        a.m_tiles().div_ceil(64) * b,
        "one bitset per lane"
    );
    let vb = std::mem::size_of::<S::T>();

    // The active column tiles: one warp each.
    let active = x.active_tiles();
    if contribs.len() < active.len() {
        contribs.resize_with(active.len(), Vec::new);
    }

    let stats = ctx.launch_over_chunks(
        "spmspv/col-tile",
        &mut contribs[..active.len()],
        1,
        opened_entries(a, [x]),
        |warp, chunk| {
            let bucket = &mut chunk[0];
            let wid = warp.warp_id;
            let ct = active[wid] as usize;
            let x_tile = x.tile(ct).expect("active tiles are non-empty");
            let x_word = x.word(ct);
            warp.stats.read(nt * vb + 8); // load the vector tile and its word once
            warp.read("x-tiles", ct, 0);

            for &t in a.col_tiles(ct) {
                let t = t as usize;
                warp.stats.read(4 + 8); // tile id + column word
                let hit = x_word & a.col_word(t);
                if hit == 0 {
                    continue;
                }
                let rt = a.tile_row_of(t);
                warp.stats.read(4); // row-tile id
                let base = rt * nt;
                let view = a.tile(t);
                let stats = &mut warp.stats;
                tile_rows_semiring::<S, _>(&view, x_tile, hit, &mut 0, stats, |st, lr, sum| {
                    if sum != S::zero() {
                        let slot = (base + lr) * b + lane;
                        bucket.push((slot as u32, sum));
                        st.atomic(1);
                        st.write_scattered(vb);
                    }
                });
            }
            // Each buffered partial is logged as the atomic add it stands
            // for, by the lane of its tile row.
            if warp.sanitized() {
                for &(slot, _) in bucket.iter() {
                    let lr = slot as usize / b % nt;
                    warp.rmw("y", slot as usize, lr % WARP_SIZE);
                }
            }
        },
    );

    merge_contribs::<S>(&mut contribs[..active.len()], y, nt, b, lane, touched);
    stats
}

/// Vector nonzeros per warp in the COO pass.
const CHUNK: usize = WARP_SIZE;

/// The hybrid pass over the extracted very-sparse entries (§3.2.1), over
/// an arbitrary semiring: accumulates `extra ⊗ x` into lane `lane`'s slots
/// of a `b`-lane lane-major slab (`r * b + lane`). A single multiply is
/// lane 0 of a one-lane slab.
///
/// Driven by `x`'s nonzeros, so untouched columns cost nothing. Lanes
/// touch disjoint slab slots, so a batched driver launches one pass per
/// active lane without cross-lane interference, and per lane the push and
/// merge order does not depend on `b`. Extra-column reads are per lane
/// (each lane walks its own frontier), so a batch does not amortize them.
/// The side COO is not small on every input: on a host-structured web
/// graph about a quarter of the nonzeros sit in near-empty tiles, and
/// every lane pays for its share of them here.
#[allow(clippy::too_many_arguments)]
pub fn coo_kernel_semiring<S: Semiring>(
    ctx: &ExecCtx,
    a: &TileMatrix<S::T>,
    x: &SparseVector<S::T>,
    lane: usize,
    b: usize,
    y: &mut [S::T],
    contribs: &mut Vec<Vec<(u32, S::T)>>,
    touched: &mut AtomicWords,
) -> KernelStats
where
    S::T: Default,
{
    if a.extra().nnz() == 0 || x.nnz() == 0 {
        return KernelStats::default();
    }
    let nt = a.nt();
    let vb = std::mem::size_of::<S::T>();
    let idx = x.indices();
    let vals = x.values();
    let n_warps = x.nnz().div_ceil(CHUNK);
    if contribs.len() < n_warps {
        contribs.resize_with(n_warps, Vec::new);
    }

    let stats = ctx.launch_over_chunks(
        "spmspv/coo-pass",
        &mut contribs[..n_warps],
        1,
        coo_pass_work(a, x),
        |warp, chunk| {
            let bucket = &mut chunk[0];
            let start = warp.warp_id * CHUNK;
            let end = (start + CHUNK).min(x.nnz());
            for k in start..end {
                let j = idx[k] as usize;
                let xj = vals[k];
                warp.stats.read(4 + vb); // the x entry (streamed)
                warp.stats.read_scattered(8); // extra_col_ptr[j]
                warp.read("x", j, k % WARP_SIZE);
                let (rows, evals) = a.extra_col(j);
                warp.stats.read(rows.len() * (4 + vb));
                for (&r, &v) in rows.iter().zip(evals) {
                    let slot = r as usize * b + lane;
                    bucket.push((slot as u32, S::mul(v, xj)));
                    warp.stats.flop(2);
                    warp.stats.atomic(1);
                    warp.stats.write_scattered(vb);
                    warp.rmw("y", slot, k % WARP_SIZE);
                }
                warp.stats.lane_steps += rows.len().div_ceil(WARP_SIZE) as u64 * WARP_SIZE as u64;
            }
        },
    );

    merge_contribs::<S>(&mut contribs[..n_warps], y, nt, b, lane, touched);
    stats
}

/// The work estimate of a side-COO pass of `x`, in the launch gate's
/// unit: the extracted entries of x's columns — x's nonzeros at the
/// average count per column, rounded up — at `COO_WEIGHT` (8) each.
/// Public only so the workspace's tests can check that an input crosses
/// the gate.
#[doc(hidden)]
pub fn coo_pass_work<T: Copy + PartialEq + Default>(
    a: &TileMatrix<T>,
    x: &SparseVector<T>,
) -> usize {
    COO_WEIGHT * x.nnz() * a.extra().nnz().div_ceil(a.ncols().max(1))
}

/// Tile entries' worth of work per extracted entry a COO pass visits: the
/// launch gate's unit is a tile entry the row kernel visits, and a
/// visited extracted entry costs far more — a column lookup, a read of
/// the extracted rows and a buffered push, each scattered, plus its share
/// of the merge. Timed cold (each multiply after a serial reference run)
/// on perfbench's 32 768-row web graph, a density-0.1 pass visits ~16 k
/// extracted entries in ~470 µs, 29 ns each, while that query's row
/// kernel takes ~1380 µs for ~416 k estimated entries, 3.3 ns each: 8.7
/// entries' worth, rounded down to 8. A density-0.1 lane's pass then
/// estimates ~131 k and splits, and a density-0.01 lane's (~13 k) stays on
/// the caller.
const COO_WEIGHT: usize = 8;

/// The work estimate of a tile-kernel launch over the lanes `xts`, in the
/// launch gate's unit: the entries of the column tiles that each lane's
/// nonzero vector tiles open, at the matrix's average entries per tile
/// (rounded up). It reads no tile, so it costs one multiply per lane.
/// Public only so the workspace's tests can check that an input crosses
/// the gate.
#[doc(hidden)]
pub fn opened_entries<'x, T: Copy + PartialEq + Default + 'x>(
    a: &TileMatrix<T>,
    xts: impl IntoIterator<Item = &'x TiledVector<T>>,
) -> usize {
    let per_tile = a.tiled_nnz().div_ceil(a.n_tiles().max(1));
    xts.into_iter()
        .map(|xt| xt.active_tiles().len() * per_tile)
        .sum()
}

/// Applies the buffered contributions of pushed lane `lane` to the
/// `b`-lane slab `y` in warp order, marking the row tile of each written
/// slot in that lane's touched bitset, and clears the buckets (keeping
/// their capacity). It runs on the driver thread after the launch, so the
/// marks are plain ORs.
fn merge_contribs<S: Semiring>(
    contribs: &mut [Vec<(u32, S::T)>],
    y: &mut [S::T],
    nt: usize,
    b: usize,
    lane: usize,
    touched: &mut AtomicWords,
) {
    let wpl = touched.len() / b;
    let per_tile = nt * b;
    for bucket in contribs.iter_mut() {
        for &(i, v) in bucket.iter() {
            let i = i as usize;
            y[i] = S::add(y[i], v);
            let rt = i / per_tile;
            touched.or_mut(lane * wpl + rt / 64, 1 << (rt % 64));
        }
        bucket.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinPlus, PlusTimes};
    use crate::tile::{TileConfig, TileSize};
    use std::sync::Arc;
    use tsv_simt::sanitize::Sanitizer;
    use tsv_sparse::gen::{banded, random_sparse_vector, uniform_random};
    use tsv_sparse::reference::spmspv_row;
    use tsv_sparse::CooMatrix;

    /// One single-vector `(+, ×)` row-kernel launch (a one-lane batch)
    /// into a fresh zeroed buffer padded to `m_tiles * nt`.
    fn run_row(a: &TileMatrix, x: &TiledVector) -> (Vec<f64>, KernelStats) {
        let mut y = vec![0.0f64; a.m_tiles() * a.nt()];
        let touched = AtomicWords::zeroed(a.m_tiles().div_ceil(64));
        let stats = row_kernel_semiring::<PlusTimes>(
            &ExecCtx::default(),
            a,
            std::slice::from_ref(x),
            &[0],
            &mut y,
            &touched,
        );
        (y, stats)
    }

    /// One `(+, ×)` column-kernel launch into a fresh zeroed padded buffer.
    fn run_col(a: &TileMatrix, x: &TiledVector) -> (Vec<f64>, KernelStats) {
        let mut y = vec![0.0f64; a.m_tiles() * a.nt()];
        let mut touched = AtomicWords::zeroed(a.m_tiles().div_ceil(64));
        let mut contribs = Vec::new();
        let stats = col_kernel_semiring::<PlusTimes>(
            &ExecCtx::default(),
            a,
            x,
            0,
            1,
            &mut y,
            &mut contribs,
            &mut touched,
        );
        (y, stats)
    }

    /// One single-vector `(+, ×)` COO pass (lane 0 of a one-lane slab)
    /// accumulating into the padded buffer `y`.
    fn run_coo(a: &TileMatrix, x: &SparseVector<f64>, mut y: Vec<f64>) -> (Vec<f64>, KernelStats) {
        let mut touched = AtomicWords::zeroed(a.m_tiles().div_ceil(64));
        let mut contribs = Vec::new();
        let stats = coo_kernel_semiring::<PlusTimes>(
            &ExecCtx::default(),
            a,
            x,
            0,
            1,
            &mut y,
            &mut contribs,
            &mut touched,
        );
        (y, stats)
    }

    #[test]
    fn row_kernel_matches_reference_padded() {
        let a = banded(100, 5, 0.8, 1).to_csr();
        let tm = TileMatrix::from_csr(&a, TileConfig::with_size(TileSize::S16)).unwrap();
        let x = random_sparse_vector(100, 0.2, 1);
        let xt = TiledVector::from_sparse(&x, 16);
        let (y, stats) = run_row(&tm, &xt);
        assert_eq!(y.len(), tm.m_tiles() * 16);
        let expect = spmspv_row(&a, &x).unwrap().to_dense();
        for i in 0..100 {
            assert!((y[i] - expect[i]).abs() < 1e-9, "row {i}");
        }
        // Padding stays zero.
        assert!(y[100..].iter().all(|&v| v == 0.0));
        assert_eq!(stats.warps as usize, tm.m_tiles());
    }

    /// Five of six slab lanes pulled (a group of four plus a group of
    /// one): each pulled lane is bit-identical to its one-lane launch and
    /// marked in its own bitset, the lane left out stays untouched, and
    /// only pulled slots are charged as writes. Flops and lane steps are
    /// exactly [`expected_lane_work`], for the batch and for each lane
    /// alone; when every lane holds every column the batch's are the sum
    /// of the lanes'.
    #[test]
    fn row_kernel_pulls_only_the_listed_lanes() {
        for density in [0.02, 0.3, 1.0] {
            pull_listed_lanes(density);
        }
    }

    fn pull_listed_lanes(density: f64) {
        let a = banded(200, 6, 0.9, 4).to_csr();
        let tm = TileMatrix::from_csr(&a, TileConfig::with_size(TileSize::S16)).unwrap();
        let xts: Vec<_> = (0..6)
            .map(|q| TiledVector::from_sparse(&random_sparse_vector(200, density, q), 16))
            .collect();
        let lanes = [0u32, 2, 3, 4, 5];
        let (b, slots, wpl) = (6, tm.m_tiles() * 16, tm.m_tiles().div_ceil(64));
        let mut y = vec![0.0f64; slots * b];
        let touched = AtomicWords::zeroed(wpl * b);
        let stats = row_kernel_semiring::<PlusTimes>(
            &ExecCtx::default(),
            &tm,
            &xts,
            &lanes,
            &mut y,
            &touched,
        );
        let (mut flops, mut lane_steps) = (0, 0);
        for (q, xt) in xts.iter().enumerate() {
            let pulled = lanes.contains(&(q as u32));
            let (y1, s1) = run_row(&tm, xt);
            for r in 0..slots {
                let want = if pulled { y1[r].to_bits() } else { 0 };
                assert_eq!(y[r * b + q].to_bits(), want, "lane {q} row {r}");
            }
            let marked = (0..wpl).any(|w| touched.load(q * wpl + w) != 0);
            assert_eq!(marked, pulled, "lane {q}");
            if pulled {
                let alone = expected_lane_work(&tm, &xts, &[q as u32]);
                assert_eq!((s1.flops, s1.lane_steps), alone, "lane {q}");
                flops += s1.flops;
                lane_steps += s1.lane_steps;
            }
        }
        let work = (stats.flops, stats.lane_steps);
        assert_eq!(
            work,
            expected_lane_work(&tm, &xts, &lanes),
            "density {density}"
        );
        if density == 1.0 {
            assert_eq!(work, (flops, lane_steps));
        }
        assert_eq!(stats.gmem_write_bytes, (slots * lanes.len() * 8) as u64);
    }

    /// The flops and lane steps of a row-kernel launch over `lanes`,
    /// counted from the layout alone: per stored tile, the lanes whose
    /// vector tile meets its columns, gathered in list order into groups
    /// of [`LANE_GROUP`]. A dense body charges each lane its own columns
    /// (two flops per value, lane steps in whole warps). A CSR body that a
    /// group meets in [`FLAT_WALK`] columns or more is walked flat: every
    /// lane of the group pays two flops and half a lane step per entry of
    /// the tile; otherwise each lane per entry of its own columns.
    fn expected_lane_work(tm: &TileMatrix, xts: &[TiledVector], lanes: &[u32]) -> (u64, u64) {
        let (mut flops, mut lane_steps) = (0u64, 0u64);
        for t in 0..tm.num_tiles() {
            let view = tm.tile(t);
            let hits: Vec<u64> = lanes
                .iter()
                .map(|&q| xts[q as usize].word(view.col_tile) & view.col_word)
                .filter(|&hit| hit != 0)
                .collect();
            for group in hits.chunks(LANE_GROUP) {
                let union = group.iter().fold(0, |u, &hit| u | hit);
                let flat = union.count_ones() >= FLAT_WALK && !view.non_finite;
                for &hit in group {
                    if view.dense.is_some() {
                        let n = 16 * u64::from(hit.count_ones());
                        flops += 2 * n;
                        lane_steps += n.div_ceil(32) * 32;
                        continue;
                    }
                    let n = if flat {
                        view.vals.len() as u64
                    } else {
                        iter_bits(hit)
                            .map(|c| u64::from(view.col_ptr[c + 1] - view.col_ptr[c]))
                            .sum()
                    };
                    flops += 2 * n;
                    lane_steps += n.div_ceil(2);
                }
            }
        }
        (flops, lane_steps)
    }

    #[test]
    fn row_kernel_skips_empty_x_tiles() {
        // x empty → every tile skipped → only header reads counted.
        let a = banded(160, 5, 0.8, 2).to_csr();
        let tm = TileMatrix::from_csr(&a, TileConfig::with_size(TileSize::S16)).unwrap();
        let empty = TiledVector::from_sparse(&SparseVector::zeros(160), 16);
        let (y, stats) = run_row(&tm, &empty);
        assert!(y.iter().all(|&v| v == 0.0));
        assert_eq!(stats.flops, 0);
        // 12 bytes of header per stored tile: its column-tile index and the
        // vector tile's nonzero word.
        assert_eq!(stats.gmem_read_bytes, 12 * tm.num_tiles() as u64);
    }

    /// A 32×32 matrix holding one 16×16 tile whose occupied columns are
    /// 0..4, with `v01` at (0, 1).
    fn one_tile(v01: f64) -> TileMatrix {
        let mut coo = CooMatrix::new(32, 32);
        for &(r, c, v) in &[
            (0, 0, 1.0),
            (0, 1, v01),
            (1, 0, 2.0),
            (1, 1, 3.0),
            (2, 2, 1.0),
            (3, 1, 1.0),
            (5, 3, 4.0),
        ] {
            coo.push(r, c, v);
        }
        let cfg = TileConfig {
            tile_size: TileSize::S16,
            extract_threshold: 0,
            ..Default::default()
        };
        TileMatrix::from_csr(&coo.to_csr(), cfg).unwrap()
    }

    /// A vector tile that holds none of a stored tile's occupied columns
    /// skips it like an empty one: no body is charged, nothing is written
    /// and the row tile is not marked.
    #[test]
    fn row_kernel_skips_tiles_whose_columns_x_misses() {
        let tm = one_tile(f64::INFINITY);
        assert_eq!((tm.num_tiles(), tm.col_word(0)), (1, 0b1111));
        let x = SparseVector::from_entries(32, vec![(9, 2.0), (15, 1.0)]).unwrap();
        let xt = TiledVector::from_sparse(&x, 16);
        let mut y = vec![0.0f64; 32];
        let touched = AtomicWords::zeroed(1);
        let stats = row_kernel_semiring::<PlusTimes>(
            &ExecCtx::default(),
            &tm,
            std::slice::from_ref(&xt),
            &[0],
            &mut y,
            &touched,
        );
        assert!(y.iter().all(|&v| v.to_bits() == 0));
        assert_eq!(touched.load(0), 0, "the row tile is not marked");
        assert_eq!((stats.flops, stats.lane_steps), (0, 0));
        // The header (column-tile index and the scattered x word) and the
        // tile's column word; no x_ptr probe, vector tile or entries.
        assert_eq!(stats.gmem_read_bytes, 4 + 8 + 8);
        assert_eq!(stats.gmem_scattered_bytes, 8);
    }

    /// Two lanes holding disjoint pairs of one tile's columns share one
    /// flat pass, in which each meets the other's columns only through its
    /// padding: each lane gets exactly its one-lane result. With `+∞` in
    /// lane 1's column the tile is walked column by column, so lane 0's
    /// rows stay finite.
    #[test]
    fn lane_group_with_disjoint_columns_matches_its_lanes() {
        for v01 in [5.0, f64::INFINITY] {
            let tm = one_tile(v01);
            assert_eq!(tm.tile(0).non_finite, v01.is_infinite());
            let xs = [
                SparseVector::from_entries(32, vec![(0, 1.0), (2, 0.5)]).unwrap(),
                SparseVector::from_entries(32, vec![(1, 3.0), (3, 2.0)]).unwrap(),
            ];
            let xts: Vec<_> = xs.iter().map(|x| TiledVector::from_sparse(x, 16)).collect();
            assert_eq!(xts[0].word(0) & xts[1].word(0), 0);
            let mut y = vec![0.0f64; 32 * 2];
            let touched = AtomicWords::zeroed(2);
            row_kernel_semiring::<PlusTimes>(
                &ExecCtx::default(),
                &tm,
                &xts,
                &[0, 1],
                &mut y,
                &touched,
            );
            let want = [
                [1.0, 2.0, 0.5, 0.0, 0.0, 0.0],
                [v01 * 3.0, 9.0, 0.0, 3.0, 0.0, 8.0],
            ];
            for (q, (xt, want)) in xts.iter().zip(want).enumerate() {
                let (y1, _) = run_row(&tm, xt);
                for r in 0..32 {
                    assert_eq!(y[r * 2 + q].to_bits(), y1[r].to_bits(), "lane {q} row {r}");
                }
                assert_eq!(&y1[..6], &want, "lane {q}");
                assert_eq!(touched.load(q), 1, "lane {q}");
            }
        }
    }

    /// A NaN from `x`'s padding: `+∞` at (0, 1) and `x = e0 + e2`, two
    /// columns, which a finite tile would walk flat, meeting `+∞` only
    /// against padding. Row 0 must read `1.0`, as the reference gives,
    /// from every kernel.
    #[test]
    fn padding_never_meets_a_non_finite_value() {
        let tm = one_tile(f64::INFINITY);
        let x = SparseVector::from_entries(32, vec![(0, 1.0), (2, 1.0)]).unwrap();
        let xt = TiledVector::from_sparse(&x, 16);
        for (y, _) in [run_row(&tm, &xt), run_col(&tm, &xt)] {
            assert_eq!(&y[..6], &[1.0, 2.0, 1.0, 0.0, 0.0, 0.0]);
        }
    }

    #[test]
    fn row_kernel_on_zero_sized_matrix() {
        let a = tsv_sparse::CsrMatrix::<f64>::zeros(0, 0);
        let tm = TileMatrix::from_csr(&a, TileConfig::default()).unwrap();
        let xt = TiledVector::zeros(0, 16);
        let (y, stats) = run_row(&tm, &xt);
        assert!(y.is_empty());
        assert_eq!(stats.warps, 0);
    }

    #[test]
    fn col_kernel_matches_reference() {
        let a = uniform_random(200, 200, 3000, 3).to_csr();
        let tm = TileMatrix::from_csr(&a, TileConfig::with_size(TileSize::S16)).unwrap();
        let x = random_sparse_vector(200, 0.05, 1);
        let xt = TiledVector::from_sparse(&x, 16);
        let (y, stats) = run_col(&tm, &xt);
        let expect = spmspv_row(&a, &x).unwrap().to_dense();
        for i in 0..200 {
            assert!((y[i] - expect[i]).abs() < 1e-9, "row {i}");
        }
        assert!(stats.atomics > 0, "merging must use atomics");
    }

    #[test]
    fn col_kernel_warps_scale_with_active_tiles() {
        let a = uniform_random(640, 640, 6000, 4).to_csr();
        let tm = TileMatrix::from_csr(&a, TileConfig::with_size(TileSize::S16)).unwrap();
        // One nonzero → one active vector tile → one warp.
        let x = SparseVector::from_entries(640, vec![(17, 1.0)]).unwrap();
        let xt = TiledVector::from_sparse(&x, 16);
        let (_, stats) = run_col(&tm, &xt);
        assert_eq!(stats.warps, 1);
    }

    #[test]
    fn col_kernel_untouched_columns_cost_nothing() {
        let a = uniform_random(320, 320, 2000, 9).to_csr();
        let tm = TileMatrix::from_csr(&a, TileConfig::with_size(TileSize::S16)).unwrap();
        let empty = TiledVector::from_sparse(&SparseVector::zeros(320), 16);
        let (y, stats) = run_col(&tm, &empty);
        assert!(y.iter().all(|&v| v == 0.0));
        assert_eq!(stats.gmem_bytes(), 0);
        assert_eq!(stats.warps, 0);
    }

    /// A matrix whose tiles all hold a single entry, so everything is
    /// extracted at threshold 2.
    fn all_extracted() -> TileMatrix {
        let mut coo = CooMatrix::new(64, 64);
        coo.push(1, 2, 3.0);
        coo.push(1, 20, 10.0);
        coo.push(40, 2, -1.0);
        let cfg = TileConfig {
            tile_size: TileSize::S16,
            extract_threshold: 2,
            ..Default::default()
        };
        TileMatrix::from_csr(&coo.to_csr(), cfg).unwrap()
    }

    #[test]
    fn coo_kernel_accumulates_products_into_existing_y() {
        let a = all_extracted();
        assert_eq!(a.extra().nnz(), 3);
        let x = SparseVector::from_entries(64, vec![(2, 2.0)]).unwrap();
        let (y, stats) = run_coo(&a, &x, vec![0.5; 64]);
        assert!((y[1] - (0.5 + 6.0)).abs() < 1e-12);
        assert!((y[40] - (0.5 - 2.0)).abs() < 1e-12);
        assert_eq!(y[0], 0.5);
        // Column 20 is never touched: only the two column-2 entries count.
        assert_eq!(stats.flops, 4);
        assert_eq!(stats.atomics, 2);
    }

    #[test]
    fn coo_kernel_untouched_columns_cost_nothing() {
        let a = all_extracted();
        let x = SparseVector::from_entries(64, vec![(50, 1.0)]).unwrap();
        let (y, stats) = run_coo(&a, &x, vec![0.0; 64]);
        assert!(y.iter().all(|&v| v == 0.0));
        assert_eq!(stats.flops, 0);
        // Only the per-nonzero probes, no entry traffic.
        assert_eq!(stats.gmem_read_bytes, 4 + 8 + 8);
    }

    #[test]
    fn coo_kernel_empty_inputs_are_free() {
        let a = all_extracted();
        let (y, stats) = run_coo(&a, &SparseVector::zeros(64), vec![1.0; 64]);
        assert_eq!(y, vec![1.0; 64]);
        assert_eq!(stats, KernelStats::default());
    }

    #[test]
    fn coo_kernel_splits_large_frontiers_across_warps() {
        let mut coo = CooMatrix::new(1000, 1000);
        for i in 0..1000 {
            coo.push(i, i, 1.0);
        }
        // A diagonal tile holds 16 entries; threshold 16 extracts them all.
        let cfg = TileConfig {
            tile_size: TileSize::S16,
            extract_threshold: 16,
            ..Default::default()
        };
        let a = TileMatrix::from_csr(&coo.to_csr(), cfg).unwrap();
        assert_eq!(a.extra().nnz(), 1000);
        let x = SparseVector::from_parts(1000, (0..1000).collect(), vec![2.0; 1000]).unwrap();
        let (y, stats) = run_coo(&a, &x, vec![0.0; 1008]);
        assert!(y[..1000].iter().all(|&v| v == 2.0));
        assert!(stats.warps > 1);
    }

    #[test]
    fn generic_row_kernel_matches_f64_kernel_bitwise() {
        let a = uniform_random(300, 300, 4000, 3).to_csr();
        let tm = TileMatrix::from_csr(&a, TileConfig::with_size(TileSize::S16)).unwrap();
        let x = random_sparse_vector(300, 0.05, 1);
        let xt = TiledVector::from_sparse(&x, 16);

        let mut y = vec![0.0f64; tm.m_tiles() * 16];
        let touched = AtomicWords::zeroed(tm.m_tiles().div_ceil(64));
        let stats = row_kernel_semiring::<PlusTimes>(
            &ExecCtx::default(),
            &tm,
            std::slice::from_ref(&xt),
            &[0],
            &mut y,
            &touched,
        );

        let expect = spmspv_row(&a, &x).unwrap().to_dense();
        for i in 0..300 {
            assert!((y[i] - expect[i]).abs() < 1e-9, "row {i}");
        }
        assert!(stats.flops > 0);
        // Touched tiles cover every nonzero output row.
        for (i, &v) in y.iter().enumerate() {
            if v != 0.0 {
                let rt = i / 16;
                assert!(
                    touched.load(rt / 64) & (1 << (rt % 64)) != 0,
                    "row tile {rt} missed"
                );
            }
        }
    }

    #[test]
    fn min_plus_col_kernel_relaxes() {
        // 0 -> 1 (w 2), 1 -> 2 (w 1) as A[dst][src]; one relaxation from
        // the source must reach vertex 1 with distance 2.
        let mut coo = tsv_sparse::CooMatrix::new(64, 64);
        coo.push(1, 0, 2.0);
        coo.push(2, 1, 1.0);
        let cfg = TileConfig {
            tile_size: TileSize::S16,
            extract_threshold: 0,
            dense_threshold: 2.0,
        };
        let tm = TileMatrix::from_csr(&coo.to_csr(), cfg).unwrap();
        let x = SparseVector::from_entries(64, vec![(0, 0.0)]).unwrap();
        let xt = TiledVector::from_sparse_filled(&x, 16, f64::INFINITY);

        let mut y = vec![f64::INFINITY; tm.m_tiles() * 16];
        let mut touched = AtomicWords::zeroed(1);
        let mut contribs = Vec::new();
        col_kernel_semiring::<MinPlus>(
            &ExecCtx::default(),
            &tm,
            &xt,
            0,
            1,
            &mut y,
            &mut contribs,
            &mut touched,
        );
        assert_eq!(y[1], 2.0);
        assert_eq!(y[2], f64::INFINITY, "vertex 2 not reached in one hop");
    }

    #[test]
    fn row_and_col_kernels_are_race_free_under_the_sanitizer() {
        let a = uniform_random(200, 200, 3000, 7).to_csr();
        let tm = TileMatrix::from_csr(&a, TileConfig::with_size(TileSize::S16)).unwrap();
        let x = random_sparse_vector(200, 0.1, 2);
        let xt = TiledVector::from_sparse(&x, 16);
        let san = Arc::new(Sanitizer::new());
        let ctx = ExecCtx {
            sanitizer: Some(Arc::clone(&san)),
            ..ExecCtx::default()
        };

        let mut y = vec![0.0f64; tm.m_tiles() * 16];
        let touched = AtomicWords::zeroed(tm.m_tiles().div_ceil(64));
        row_kernel_semiring::<PlusTimes>(
            &ctx,
            &tm,
            std::slice::from_ref(&xt),
            &[0],
            &mut y,
            &touched,
        );
        assert_eq!(san.violation_count(), 0, "{:?}", san.violations());

        let mut y2 = vec![0.0f64; tm.m_tiles() * 16];
        let mut touched2 = AtomicWords::zeroed(tm.m_tiles().div_ceil(64));
        let mut contribs = Vec::new();
        col_kernel_semiring::<PlusTimes>(
            &ctx,
            &tm,
            &xt,
            0,
            1,
            &mut y2,
            &mut contribs,
            &mut touched2,
        );
        assert_eq!(san.violation_count(), 0, "{:?}", san.violations());

        let s = san.summary();
        assert_eq!(s.launches, 2, "one epoch per launch");
        assert!(s.accesses > 0, "the shadow log saw the launches");
        assert!(s.atomics > 0, "the push logs its buffered partials");
        // Both kernels fold a row's tile partials in column-tile order, and
        // the push skips only zero partials, which cannot move a sum: they
        // agree bitwise.
        for (i, (&a, &b)) in y.iter().zip(&y2).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}: {a} vs {b}");
        }
    }
}
