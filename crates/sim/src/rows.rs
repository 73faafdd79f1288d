//! The row data plane: row storage and the chunked SIMD word kernels
//! every hot loop in the workspace runs on.
//!
//! The exhaustive spaces of the paper grow as `2^I`, so every node-major
//! table of the event-driven kernel — the good-value transpose, the
//! per-edge "other fanins" rows, the per-worker faulty rows — costs
//! `O(num_nodes × num_blocks)` words. At the widths the paper's analysis
//! targets (`I ≤ 14`) that is a few copies of the good-value table; near
//! the [`crate::MAX_EXHAUSTIVE_INPUTS`] ceiling it is gigabytes *per
//! table*, so circuits that wide are analysed per output cone instead.
//! This module makes the data plane explicit:
//!
//! * [`RowMatrix`] — dense row-major `rows × width` word storage with
//!   disjoint-borrow row access, the one layout used for the transpose,
//!   the `others` table, and simulation scratch rows alike.
//! * The chunked ops ([`and_into`], [`or_diff_into`], [`popcount`], …) —
//!   an explicit SIMD inner layer: fixed-lane (`u64x4`/`u64x8`) chunks
//!   that LLVM lowers to vector instructions, with a scalar tail and a
//!   scalar (`LANES = 1`) fallback. The `*_lanes` variants expose the
//!   lane count for the `rows` micro-benchmark; production entry points
//!   are pinned to [`LANES`].
//! * The bit-matrix transposes ([`transpose64`], [`transpose_sets`]) —
//!   a list of vector sets turned into one row per vector, so a loop
//!   over a vector's sets reads one row instead of probing every set.
//! * The popcounts ([`popcount`], [`and_popcount`]) — every row
//!   popcount in the workspace, `VectorSet::len` and
//!   `intersection_count` (the paper's `M(g,f)`) among them. They pick
//!   their kernel at run time. The baseline x86-64 target has no POPCNT
//!   instruction, so on x86-64 they check the CPU
//!   (`is_x86_feature_detected!`, a cached flag) and, when it has
//!   POPCNT, run a copy of the same `*_lanes::<LANES>` body compiled
//!   with `#[target_feature(enable = "popcnt")]`. Other CPUs and
//!   architectures run the portable fold. The binary stays portable,
//!   and no `-C target-cpu` setting is needed for hardware popcount.
//!   The private `dispatch` module at the end of this file holds that
//!   choice; it is the crate's only `unsafe` code (the crate root
//!   denies `unsafe_code` and this one module allows it).
//!
//! Hot modules are forbidden (by the `hot_path_lint` gate and a
//! `#![deny(clippy::disallowed_methods)]` opt-in) from allocating raw
//! `Vec<u64>` word buffers; [`zeroed_words`] and [`RowMatrix`] are the
//! sanctioned allocation points, so every word buffer in the system is
//! accounted to this data plane.

use crate::VectorSet;
use std::borrow::Borrow;

/// Lane count of the production chunked kernels (`u64x8` — one AVX-512
/// register, two AVX2 registers, four NEON registers; LLVM splits the
/// fixed-size chunk to whatever the target offers).
pub const LANES: usize = 8;

/// The cumulative data-plane allocation meter: every byte allocated
/// through the sanctioned points below, exposed as
/// `data_plane_bytes_allocated_total` in the global metrics registry.
fn allocated_bytes() -> &'static ndetect_obs::Counter {
    static CELL: std::sync::OnceLock<std::sync::Arc<ndetect_obs::Counter>> =
        std::sync::OnceLock::new();
    CELL.get_or_init(|| ndetect_obs::global().counter("data_plane_bytes_allocated_total"))
}

/// Allocates a zeroed word buffer — the **single sanctioned allocation
/// point** for simulation word buffers. Hot modules are denied raw
/// `vec![0u64; …]` allocation (see the `hot_path_lint` gate); routing
/// every word buffer through here keeps the whole data plane visible in
/// one place (and metered: see `data_plane_bytes_allocated_total`).
#[must_use]
#[allow(clippy::disallowed_methods)]
pub fn zeroed_words(len: usize) -> Vec<u64> {
    allocated_bytes().add(8 * len as u64);
    vec![0u64; len]
}

/// Allocates a zeroed `u32` counter buffer — the sanctioned allocation
/// point for per-vector counter rows (e.g. the generator's gain row),
/// the data plane's other bulk buffer shape. Same rationale as
/// [`zeroed_words`].
#[must_use]
#[allow(clippy::disallowed_methods)]
pub fn zeroed_counts(len: usize) -> Vec<u32> {
    allocated_bytes().add(4 * len as u64);
    vec![0u32; len]
}

/// Dense row-major `rows × width` word storage: the one layout under
/// the good-value transpose, the per-edge `others` table, and the
/// per-worker faulty-row arena.
///
/// `width` is a row width in 64-vector blocks; row `r`'s words are
/// contiguous, so kernels stream a node's values across the row with
/// unit stride.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowMatrix {
    words: Vec<u64>,
    rows: usize,
    width: usize,
}

impl RowMatrix {
    /// A zeroed `rows × width` matrix.
    #[must_use]
    pub fn zeroed(rows: usize, width: usize) -> Self {
        RowMatrix {
            words: zeroed_words(rows * width),
            rows,
            width,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Row width in words (one per 64-vector block).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `r` as a word slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.width..(r + 1) * self.width]
    }

    /// Row `r` as a mutable word slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.width..(r + 1) * self.width]
    }

    /// The same column window `cols` of two **distinct** rows: `src`
    /// read-only, `dst` mutable — the disjoint split the fused gate
    /// update needs (changed-fanin row in, gate row out).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either row/column range is out of
    /// bounds.
    #[inline]
    pub fn row_window_pair(
        &mut self,
        src: usize,
        dst: usize,
        cols: std::ops::Range<usize>,
    ) -> (&[u64], &mut [u64]) {
        assert_ne!(src, dst, "row windows alias");
        assert!(cols.end <= self.width, "column window out of range");
        let (s0, d0) = (src * self.width, dst * self.width);
        if s0 < d0 {
            let (a, b) = self.words.split_at_mut(d0);
            (
                &a[s0 + cols.start..s0 + cols.end],
                &mut b[cols.start..cols.end],
            )
        } else {
            let (a, b) = self.words.split_at_mut(s0);
            (
                &b[cols.start..cols.end],
                &mut a[d0 + cols.start..d0 + cols.end],
            )
        }
    }

    /// All backing words, row-major.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// All backing words, mutable.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

// ---------------------------------------------------------------------
// Chunked SIMD kernels.
//
// Each op processes `L`-word chunks through a fixed-size array, which
// LLVM lowers to `L`-lane vector instructions (u64x4 ≈ AVX2, u64x8 ≈
// AVX-512 / unrolled AVX2), then finishes the remainder with a scalar
// tail. `L = 1` is the pure-scalar fallback. Production entry points pin
// `L =` [`LANES`]; the `*_lanes` variants exist for the `rows`
// micro-benchmark and for targets where a narrower width wins. The two
// popcount bodies are `#[inline(always)]`: the POPCNT copies in
// `dispatch` only get the instruction if the body is compiled inside them.
// ---------------------------------------------------------------------

/// `dst[i] = f(dst[i], src[i])` in `L`-lane chunks.
#[inline(always)]
fn zip_with_lanes<const L: usize>(dst: &mut [u64], src: &[u64], f: impl Fn(u64, u64) -> u64) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    let split = dst.len() - dst.len() % L;
    let (dh, dt) = dst.split_at_mut(split);
    let (sh, st) = src.split_at(split);
    for (dc, sc) in dh.chunks_exact_mut(L).zip(sh.chunks_exact(L)) {
        for (d, &s) in dc.iter_mut().zip(sc) {
            *d = f(*d, s);
        }
    }
    for (d, &s) in dt.iter_mut().zip(st) {
        *d = f(*d, s);
    }
}

/// Lane-parameterized `dst &= src`.
#[inline]
pub fn and_into_lanes<const L: usize>(dst: &mut [u64], src: &[u64]) {
    zip_with_lanes::<L>(dst, src, |a, b| a & b);
}

/// Lane-parameterized `dst |= src`.
#[inline]
pub fn or_into_lanes<const L: usize>(dst: &mut [u64], src: &[u64]) {
    zip_with_lanes::<L>(dst, src, |a, b| a | b);
}

/// Lane-parameterized `dst ^= src`.
#[inline]
pub fn xor_into_lanes<const L: usize>(dst: &mut [u64], src: &[u64]) {
    zip_with_lanes::<L>(dst, src, |a, b| a ^ b);
}

/// Lane-parameterized popcount over a word row.
#[inline(always)]
#[must_use]
pub fn popcount_lanes<const L: usize>(row: &[u64]) -> u64 {
    let split = row.len() - row.len() % L;
    let (head, tail) = row.split_at(split);
    let mut lanes = [0u64; L];
    for chunk in head.chunks_exact(L) {
        for (acc, &w) in lanes.iter_mut().zip(chunk) {
            *acc += u64::from(w.count_ones());
        }
    }
    let mut sum: u64 = lanes.iter().sum();
    for &w in tail {
        sum += u64::from(w.count_ones());
    }
    sum
}

/// Lane-parameterized `popcount(a & b)` (the paper's `M(g,f)` inner
/// loop).
#[inline(always)]
#[must_use]
pub fn and_popcount_lanes<const L: usize>(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    let split = a.len() - a.len() % L;
    let mut lanes = [0u64; L];
    for (ca, cb) in a[..split].chunks_exact(L).zip(b[..split].chunks_exact(L)) {
        for ((acc, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *acc += u64::from((x & y).count_ones());
        }
    }
    let mut sum: u64 = lanes.iter().sum();
    for (&x, &y) in a[split..].iter().zip(&b[split..]) {
        sum += u64::from((x & y).count_ones());
    }
    sum
}

/// Lane-parameterized difference-accumulate: `det[i] |= a[i] ^ b[i]`,
/// returning the OR-fold of all differences (zero ⇒ the rows are
/// identical) — the detection/frontier primitive of the event kernel.
#[inline]
pub fn or_diff_into_lanes<const L: usize>(det: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    assert!(
        det.len() == a.len() && det.len() == b.len(),
        "row length mismatch"
    );
    let split = det.len() - det.len() % L;
    let (dh, dt) = det.split_at_mut(split);
    let mut lanes = [0u64; L];
    let chunks = dh
        .chunks_exact_mut(L)
        .zip(a[..split].chunks_exact(L))
        .zip(b[..split].chunks_exact(L));
    for ((dc, ca), cb) in chunks {
        for (((d, acc), &x), &y) in dc.iter_mut().zip(lanes.iter_mut()).zip(ca).zip(cb) {
            let diff = x ^ y;
            *acc |= diff;
            *d |= diff;
        }
    }
    let mut any = lanes.iter().fold(0, |acc, &l| acc | l);
    for ((d, &x), &y) in dt.iter_mut().zip(&a[split..]).zip(&b[split..]) {
        let diff = x ^ y;
        any |= diff;
        *d |= diff;
    }
    any
}

/// Lane-parameterized `OR-fold of a ^ b` without accumulation (the
/// "did anything change" probe).
#[inline]
#[must_use]
pub fn diff_any_lanes<const L: usize>(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    let split = a.len() - a.len() % L;
    let mut lanes = [0u64; L];
    for (ca, cb) in a[..split].chunks_exact(L).zip(b[..split].chunks_exact(L)) {
        for ((acc, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *acc |= x ^ y;
        }
    }
    let mut any = lanes.iter().fold(0, |acc, &l| acc | l);
    for (&x, &y) in a[split..].iter().zip(&b[split..]) {
        any |= x ^ y;
    }
    any
}

// Production entry points, pinned to `LANES`.

/// `dst &= src`.
#[inline]
pub fn and_into(dst: &mut [u64], src: &[u64]) {
    and_into_lanes::<LANES>(dst, src);
}

/// `dst |= src`.
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    or_into_lanes::<LANES>(dst, src);
}

/// `dst ^= src`.
#[inline]
pub fn xor_into(dst: &mut [u64], src: &[u64]) {
    xor_into_lanes::<LANES>(dst, src);
}

/// Popcount of a row (POPCNT when the CPU has it).
#[inline]
#[must_use]
pub fn popcount(row: &[u64]) -> u64 {
    dispatch::popcount(row)
}

/// `popcount(a & b)` (POPCNT when the CPU has it).
#[inline]
#[must_use]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    dispatch::and_popcount(a, b)
}

/// `det |= a ^ b`, returning the OR-fold of the differences.
#[inline]
pub fn or_diff_into(det: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    or_diff_into_lanes::<LANES>(det, a, b)
}

/// OR-fold of `a ^ b`.
#[inline]
#[must_use]
pub fn diff_any(a: &[u64], b: &[u64]) -> u64 {
    diff_any_lanes::<LANES>(a, b)
}

/// The fused single-pass gate update of the event kernel's fast path:
/// `dst[i] = op(others[i], changed[i])`, OR the difference against
/// `good` into `det` when observing, and return the OR-fold of all
/// differences (zero ⇒ the gate stays off the frontier). One streaming
/// pass over four rows instead of three.
#[inline]
pub fn fused_gate_update(
    others: &[u64],
    changed: &[u64],
    good: &[u64],
    dst: &mut [u64],
    det: Option<&mut [u64]>,
    op: impl Fn(u64, u64) -> u64,
) -> u64 {
    let mut any = 0u64;
    match det {
        Some(det) => {
            for i in 0..dst.len() {
                let out = op(others[i], changed[i]);
                let diff = out ^ good[i];
                any |= diff;
                det[i] |= diff;
                dst[i] = out;
            }
        }
        None => {
            for i in 0..dst.len() {
                let out = op(others[i], changed[i]);
                any |= out ^ good[i];
                dst[i] = out;
            }
        }
    }
    any
}

/// The vector-major transpose of `sets`, each a set over `num_patterns`
/// vectors: a `num_patterns × ⌈sets.len() / 64⌉` matrix whose row `v`
/// has bit `i % 64` of word `i / 64` set when `v ∈ sets[i]`. Each group
/// of 64 sets and block of 64 vectors is one [`transpose64`]: word `b`
/// of each set in, word `w` of each vector's row out.
///
/// # Panics
///
/// Panics if a set covers fewer than `num_patterns` vectors.
#[must_use]
pub fn transpose_sets<S: Borrow<VectorSet>>(sets: &[S], num_patterns: usize) -> RowMatrix {
    let width = sets.len().div_ceil(64);
    let mut matrix = RowMatrix::zeroed(num_patterns, width);
    let rows = matrix.words_mut();
    let mut tile = [0u64; 64];
    for (w, group) in sets.chunks(64).enumerate() {
        for b in 0..num_patterns.div_ceil(64) {
            tile.fill(0);
            for (word, set) in tile.iter_mut().zip(group) {
                *word = set.borrow().words()[b];
            }
            if tile.iter().all(|&word| word == 0) {
                continue;
            }
            transpose64(&mut tile);
            // Rows past `num_patterns` come from tail bits, which the
            // VectorSet invariant keeps zero.
            for (v, &word) in (64 * b..num_patterns).zip(&tile) {
                rows[v * width + w] = word;
            }
        }
    }
    matrix
}

/// Transposes a 64×64 bit matrix in place: bit `j` of word `i` moves to
/// bit `i` of word `j`. Six rounds swap ever smaller off-diagonal
/// blocks, 32×32 first.
pub fn transpose64(tile: &mut [u64; 64]) {
    swap_blocks::<32>(tile, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(tile, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(tile, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(tile, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(tile, 0x3333_3333_3333_3333);
    swap_blocks::<1>(tile, 0x5555_5555_5555_5555);
}

/// One round of [`transpose64`]: in every `2J × 2J` block, swaps the
/// upper-right `J × J` quarter (high bits of the first `J` words) with
/// the lower-left one (low bits of the last `J`). `low` selects the low
/// `J` bits of every `2J`-bit group.
fn swap_blocks<const J: usize>(tile: &mut [u64; 64], low: u64) {
    for start in (0..64).step_by(2 * J) {
        for i in start..start + J {
            let t = ((tile[i] >> J) ^ tile[i + J]) & low;
            tile[i] ^= t << J;
            tile[i + J] ^= t;
        }
    }
}

/// Runtime selection of the popcount kernels, and the crate's only
/// `unsafe` code.
///
/// The baseline x86-64 target has no POPCNT instruction, so the
/// portable folds compile `count_ones` to a shift-and-mask sequence.
/// On x86-64 each entry point asks `is_x86_feature_detected!("popcnt")`
/// (a cached flag after the first call) and, when the CPU has POPCNT,
/// calls [`popcnt`]'s copy of the same `*_lanes::<LANES>` body compiled
/// with `#[target_feature(enable = "popcnt")]`. Without POPCNT, and on
/// every other architecture, it runs the portable fold. Both paths
/// return the same count, so the choice never shows in any output.
#[allow(unsafe_code)]
mod dispatch {
    use super::{and_popcount_lanes, popcount_lanes, LANES};

    /// See [`super::popcount`].
    #[inline]
    pub(super) fn popcount(row: &[u64]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: `is_x86_feature_detected!` just found POPCNT on
            // this CPU, the one target feature the copy enables.
            return unsafe { popcnt::popcount(row) };
        }
        popcount_lanes::<LANES>(row)
    }

    /// See [`super::and_popcount`].
    #[inline]
    pub(super) fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: `is_x86_feature_detected!` just found POPCNT on
            // this CPU, the one target feature the copy enables.
            return unsafe { popcnt::and_popcount(a, b) };
        }
        and_popcount_lanes::<LANES>(a, b)
    }

    /// The POPCNT copies of the portable folds. Each compiles its
    /// `#[inline(always)]` `*_lanes` body with POPCNT enabled; with a
    /// plain `#[inline]` body a copy is only a jump to the portable fold.
    ///
    /// The copies are `unsafe fn` because a safe `#[target_feature]`
    /// function needs Rust 1.86.
    #[cfg(target_arch = "x86_64")]
    mod popcnt {
        use crate::rows::{and_popcount_lanes, popcount_lanes, LANES};

        /// [`popcount_lanes`] with POPCNT.
        ///
        /// # Safety
        ///
        /// The CPU must support POPCNT.
        #[target_feature(enable = "popcnt")]
        pub(super) unsafe fn popcount(row: &[u64]) -> u64 {
            popcount_lanes::<LANES>(row)
        }

        /// [`and_popcount_lanes`] with POPCNT.
        ///
        /// # Safety
        ///
        /// The CPU must support POPCNT.
        #[target_feature(enable = "popcnt")]
        pub(super) unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
            and_popcount_lanes::<LANES>(a, b)
        }
    }

    // Last in the module and in the file: the allocation scan of
    // `tests/hot_path_lint.rs` reads a file only up to its first
    // `#[cfg(test)]`.
    #[cfg(test)]
    mod tests {
        use super::*;
        use proptest::prelude::*;

        /// A row word of one of four shapes: dense, all ones, zero or
        /// sparse.
        fn word(x: u64, y: u64, shape: u8) -> u64 {
            match shape {
                0 => x,
                1 => u64::MAX,
                2 => 0,
                _ => x & y & y.rotate_left(17),
            }
        }

        proptest! {
            /// Both sides of the dispatch against the portable folds and
            /// a plain `count_ones` fold, on every prefix of up to
            /// `2 * LANES + 1` words (the empty row, rows shorter than
            /// `LANES`, every ragged tail) and on the whole row.
            #[test]
            fn dispatch_matches_the_portable_folds(
                words in prop::collection::vec(
                    (any::<u64>(), any::<u64>(), 0u8..4, 0u8..4),
                    0..=300,
                )
            ) {
                let a: Vec<u64> = words.iter().map(|&(x, y, s, _)| word(x, y, s)).collect();
                let b: Vec<u64> = words.iter().map(|&(x, y, _, s)| word(y, x, s)).collect();
                for len in (0..=a.len().min(2 * LANES + 1)).chain([a.len()]) {
                    let (a, b) = (&a[..len], &b[..len]);
                    let fold = |f: fn(u64, u64) -> u64| -> u64 {
                        a.iter().zip(b).map(|(&x, &y)| u64::from(f(x, y).count_ones())).sum()
                    };
                    let expect = (fold(|x, _| x), fold(|x, y| x & y));
                    let dispatched = (popcount(a), and_popcount(a, b));
                    let scalar = (popcount_lanes::<1>(a), and_popcount_lanes::<1>(a, b));
                    let portable = (popcount_lanes::<LANES>(a), and_popcount_lanes::<LANES>(a, b));
                    prop_assert_eq!(dispatched, expect, "dispatched, {} words", len);
                    prop_assert_eq!(scalar, expect, "L = 1, {} words", len);
                    prop_assert_eq!(portable, expect, "L = LANES, {} words", len);
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("popcnt") {
                        // SAFETY: `is_x86_feature_detected!` just found
                        // POPCNT on this CPU.
                        let copies = unsafe { (popcnt::popcount(a), popcnt::and_popcount(a, b)) };
                        prop_assert_eq!(copies, expect, "POPCNT copies, {} words", len);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn row_matrix_shapes_and_access() {
        let mut m = RowMatrix::zeroed(3, 4);
        assert_eq!((m.num_rows(), m.width()), (3, 4));
        m.row_mut(1).fill(7);
        assert_eq!(m.row(0), &[0; 4]);
        assert_eq!(m.row(1), &[7; 4]);
        let (src, dst) = m.row_window_pair(1, 2, 1..3);
        assert_eq!(src, &[7, 7]);
        dst.copy_from_slice(src);
        assert_eq!(m.row(2), &[0, 7, 7, 0]);
        // Reverse order split (src above dst).
        let (src, dst) = m.row_window_pair(2, 0, 0..4);
        dst.copy_from_slice(src);
        assert_eq!(m.row(0), &[0, 7, 7, 0]);
    }

    #[test]
    #[should_panic(expected = "alias")]
    fn row_window_pair_rejects_aliasing() {
        let mut m = RowMatrix::zeroed(2, 2);
        let _ = m.row_window_pair(1, 1, 0..2);
    }

    #[test]
    fn transpose64_moves_bit_c_of_row_r_to_bit_r_of_row_c() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rows = [0u64; 64];
        for row in &mut rows {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *row = x;
        }
        let before = rows;
        transpose64(&mut rows);
        for (r, &row) in before.iter().enumerate() {
            for (c, &col) in rows.iter().enumerate() {
                assert_eq!(row >> c & 1, col >> r & 1, "row {r} column {c}");
            }
        }
    }

    /// Every lane width must agree with the scalar reference on an
    /// awkward length (not a multiple of any lane count).
    #[test]
    fn all_lane_widths_agree_with_scalar() {
        fn pattern(n: usize, salt: u64) -> Vec<u64> {
            (0..n as u64)
                .map(|i| {
                    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt).wrapping_add(i.rotate_left(13))
                })
                .collect()
        }
        let n = 37;
        let a = pattern(n, 0xDEAD);
        let b = pattern(n, 0xBEEF);
        let c = pattern(n, 0x1234);

        macro_rules! check_zip {
            ($f:ident, $scalar:expr) => {{
                let reference: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| $scalar(x, y)).collect();
                let mut d1 = a.clone();
                $f::<1>(&mut d1, &b);
                let mut d4 = a.clone();
                $f::<4>(&mut d4, &b);
                let mut d8 = a.clone();
                $f::<8>(&mut d8, &b);
                assert_eq!(d1, reference, stringify!($f));
                assert_eq!(d4, reference, stringify!($f));
                assert_eq!(d8, reference, stringify!($f));
            }};
        }
        check_zip!(and_into_lanes, |x: u64, y: u64| x & y);
        check_zip!(or_into_lanes, |x: u64, y: u64| x | y);
        check_zip!(xor_into_lanes, |x: u64, y: u64| x ^ y);

        let pop_ref: u64 = a.iter().map(|w| u64::from(w.count_ones())).sum();
        assert_eq!(popcount_lanes::<1>(&a), pop_ref);
        assert_eq!(popcount_lanes::<4>(&a), pop_ref);
        assert_eq!(popcount_lanes::<8>(&a), pop_ref);

        let andpop_ref: u64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| u64::from((x & y).count_ones()))
            .sum();
        assert_eq!(and_popcount_lanes::<1>(&a, &b), andpop_ref);
        assert_eq!(and_popcount_lanes::<4>(&a, &b), andpop_ref);
        assert_eq!(and_popcount_lanes::<8>(&a, &b), andpop_ref);

        let any_ref = a.iter().zip(&b).fold(0u64, |acc, (&x, &y)| acc | (x ^ y));
        assert_eq!(diff_any_lanes::<1>(&a, &b), any_ref);
        assert_eq!(diff_any_lanes::<4>(&a, &b), any_ref);
        assert_eq!(diff_any_lanes::<8>(&a, &b), any_ref);

        for lanes in [1usize, 4, 8] {
            let mut det = c.clone();
            let any = match lanes {
                1 => or_diff_into_lanes::<1>(&mut det, &a, &b),
                4 => or_diff_into_lanes::<4>(&mut det, &a, &b),
                _ => or_diff_into_lanes::<8>(&mut det, &a, &b),
            };
            assert_eq!(any, any_ref, "or_diff lanes={lanes}");
            let det_ref: Vec<u64> = (0..n).map(|i| c[i] | (a[i] ^ b[i])).collect();
            assert_eq!(det, det_ref, "or_diff det lanes={lanes}");
        }
    }

    #[test]
    fn fused_gate_update_matches_naive() {
        let others = [0b1100u64, 0b1010, u64::MAX];
        let changed = [0b1010u64, 0b0110, 0];
        let good = [0b1000u64, 0b0010, 0];
        let mut dst = [0u64; 3];
        let mut det = [0u64; 3];
        let any = fused_gate_update(
            &others,
            &changed,
            &good,
            &mut dst,
            Some(&mut det),
            |e, v| e & v,
        );
        assert_eq!(dst, [0b1000, 0b0010, 0]);
        assert_eq!(det, [0, 0, 0]);
        assert_eq!(any, 0);
        // A differing case accumulates and reports.
        let any = fused_gate_update(
            &others,
            &changed,
            &good,
            &mut dst,
            Some(&mut det),
            |e, v| e | v,
        );
        assert_ne!(any, 0);
        assert_eq!(det[0], (0b1100 | 0b1010) ^ 0b1000);
        // Without a det row the fold result is the same.
        let any2 = fused_gate_update(&others, &changed, &good, &mut dst, None, |e, v| e | v);
        assert_eq!(any2, any);
    }

    #[test]
    fn zeroed_words_is_zeroed() {
        assert_eq!(zeroed_words(5), vec![0u64; 5]);
        assert!(zeroed_words(0).is_empty());
    }
}
