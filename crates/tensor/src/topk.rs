//! Top-k selection and threshold utilities.
//!
//! The paper selects strong attention connections two ways: *row-wise top-k*
//! over (estimated) attention scores (§2.2, §3.1), and *threshold
//! comparison* against a preset value in the hardware Detector (§4.3). Both
//! primitives live here, along with helpers to convert selections into the
//! binary masks the rest of the stack consumes, and the two rules that turn
//! a retention ratio into a number of kept keys.

use crate::lanes::Lanes;
use crate::Matrix;

/// Keys a query keeps of `n` candidates at `retention`: `round(r · n)`
/// (half away from zero), at least 1 and at most `n`; `n = 0` keeps 0.
///
/// Retention becomes a count by one of two rules, both here so that
/// choosing one is a one-line change:
/// - this one, the paper's detector budget: every query row keeps the same
///   number of keys, so token-parallel PE groups stay balanced (§4.3). The
///   detector (`DetectorConfig`, so the batch hook and the decode
///   selector), the A3 / ELSA / oracle / random baselines, the simulator's
///   sampled shapes, calibration and Table 1's mass analysis use it;
/// - [`window_count`], `ceil(r · t)`: the serving window, which never
///   rounds a partial position away, and the timeline audit of it.
#[inline]
pub fn keep_count(retention: f64, n: usize) -> usize {
    ((retention * n as f64).round() as usize).max(1).min(n)
}

/// Positions the serving window keeps of a `t`-position cache at
/// `retention`: `ceil(r · t)`, at least 1 and at most `t` (see
/// [`keep_count`]). Total over every `f64`, as the timeline audit passes a
/// retention read from a file: `t = 0` keeps 0, NaN keeps 1, `r ≥ 1` all.
#[inline]
pub fn window_count(retention: f64, t: usize) -> usize {
    ((retention * t as f64).ceil() as usize).max(1).min(t)
}

/// Position of `v` in descending order as a plain integer: a larger value
/// has a smaller rank, `-0.0` and `0.0` share one (they compare equal), and
/// NaN ranks after every number, so ranks are totally ordered where `f32`
/// is not.
pub fn descending_rank(v: f32) -> u32 {
    if v.is_nan() {
        return u32::MAX;
    }
    let bits = if v == 0.0 { 0 } else { v.to_bits() };
    // Negative floats already grow in bit pattern as they fall; positive
    // ones grow as they rise, so their magnitude bits are flipped.
    if bits >> 31 == 1 {
        bits
    } else {
        bits ^ 0x7fff_ffff
    }
}

/// Indices of the `k` largest values in `row`, in descending value order.
///
/// Ties are broken toward the lower index so that results are deterministic;
/// NaN counts as smaller than every number. If `k >= row.len()` every index
/// is returned.
///
/// # Panics
///
/// Panics if `row` has more than `u32::MAX` elements.
///
/// # Example
///
/// ```
/// use dota_tensor::topk::top_k_indices;
///
/// let idx = top_k_indices(&[0.1, 0.9, 0.5], 2);
/// assert_eq!(idx, vec![1, 2]);
/// ```
pub fn top_k_indices(row: &[f32], k: usize) -> Vec<usize> {
    top_k_with_scratch(row, k, &mut Vec::new())
}

/// [`top_k_indices`] on a caller-owned key buffer. Each element becomes one
/// `u64` — [`descending_rank`] above the index — so "value descending, then
/// index ascending" is plain ascending integer order: partition the `k`
/// smallest keys to the front in O(n), sort only those, read the indices
/// back out of the low halves.
fn top_k_with_scratch(row: &[f32], k: usize, keys: &mut Vec<u64>) -> Vec<usize> {
    assert!(
        u32::try_from(row.len()).is_ok(),
        "row of {} elements exceeds the 32-bit index of a packed key",
        row.len()
    );
    let k = k.min(row.len());
    keys.clear();
    keys.extend(
        row.iter()
            .enumerate()
            .map(|(i, &v)| u64::from(descending_rank(v)) << 32 | i as u64),
    );
    if 0 < k && k < keys.len() {
        keys.select_nth_unstable(k - 1);
    }
    let top = &mut keys[..k];
    top.sort_unstable();
    top.iter().map(|&key| key as u32 as usize).collect()
}

/// Row-wise top-k selection over a score matrix, producing one index set per
/// row. Every row keeps exactly `k` entries (the equal-`k` workload-balance
/// constraint of §4.3), so downstream token-parallel execution stays
/// synchronized across rows.
pub fn top_k_rows(scores: &Matrix, k: usize) -> Vec<Vec<usize>> {
    let mut keys = Vec::with_capacity(scores.cols());
    scores
        .rows_iter()
        .map(|row| top_k_with_scratch(row, k, &mut keys))
        .collect()
}

/// Top-k as a *set*: appends to `out`, in ascending index order, exactly
/// the indices [`top_k_indices`]`(row, k)` returns — what a consumer that
/// masks, gathers or schedules the kept keys wants, without the sort by
/// value it would throw away.
///
/// Each element becomes one signed key, [`descending_rank`] reversed (a
/// stronger value has a larger key), so the NaN and `±0` rules are the
/// ordered function's by construction; the keys land in `keys`, a scratch
/// buffer a caller selecting many rows passes again, and go through
/// [`top_k_set_keys`] on `lanes` between their own minimum and maximum.
///
/// # Panics
///
/// Panics if `row` has more than `u32::MAX` elements.
///
/// # Example
///
/// ```
/// use dota_tensor::lanes::Lanes;
/// use dota_tensor::topk::{top_k_indices, top_k_set};
///
/// let row = [0.1, 0.9, 0.5, 0.9];
/// let mut set = Vec::new();
/// top_k_set(Lanes::active(), &row, 3, &mut Vec::new(), &mut set);
/// assert_eq!(top_k_indices(&row, 3), vec![1, 3, 2]);
/// assert_eq!(set, vec![1, 2, 3]);
/// ```
pub fn top_k_set(lanes: Lanes, row: &[f32], k: usize, keys: &mut Vec<i32>, out: &mut Vec<u32>) {
    let (mut lo, mut hi) = (i32::MAX, i32::MIN);
    keys.clear();
    keys.extend(row.iter().map(|&v| {
        let key = (descending_rank(v) ^ 0x7fff_ffff) as i32;
        lo = lo.min(key);
        hi = hi.max(key);
        key
    }));
    top_k_set_keys(lanes, keys, k, lo, hi, out);
}

/// [`top_k_set`] on keys that are already ordered integers — a larger key
/// is stronger, ties go to the lower index: appends to `out`, ascending,
/// the indices of the `min(k, keys.len())` strongest keys. Nothing is
/// permuted and nothing allocated beyond `out`.
///
/// Every key must lie in `lo..=hi`. The k-th largest key `t` is found by
/// bisecting that *value* range, each step one pass counting `key >= mid`
/// — at most `⌈log₂(hi − lo + 1)⌉` passes, ten for the detector's INT4
/// rank-6 accumulators in `±384`, fewer whenever a step happens to count
/// exactly `k`. One more pass then takes every `key > t` and the first
/// `k − count(key > t)` positions of `key == t`, 64 keys at a time as two
/// bit masks whose set bits are read off by `trailing_zeros` — so rows are
/// born ascending and the tie rule costs nothing. Both passes run eight
/// keys per compare on the lanes (integer compares: the same answer on
/// either body).
///
/// # Panics
///
/// Panics if `keys` has more than `u32::MAX` elements.
pub fn top_k_set_keys(lanes: Lanes, keys: &[i32], k: usize, lo: i32, hi: i32, out: &mut Vec<u32>) {
    match lanes {
        Lanes::Plain => select_with(keys, k, lo, hi, out, count_ge, masks),
        // SAFETY: the token proves AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2(_) => unsafe { x86::select(keys, k, lo, hi, out) },
    }
}

/// How many keys are at least `t`.
fn count_ge(keys: &[i32], t: i32) -> usize {
    keys.iter().filter(|&&x| x >= t).count()
}

/// Bit `i` of the two masks: `block[i] > t`, `block[i] == t`, for a block
/// of at most 64 keys.
fn masks(block: &[i32], t: i32) -> (u64, u64) {
    block.iter().enumerate().fold((0, 0), |(gt, eq), (i, &x)| {
        (gt | u64::from(x > t) << i, eq | u64::from(x == t) << i)
    })
}

/// The threshold search and the compaction pass of [`top_k_set_keys`],
/// once, over whichever `count_ge` and `masks` the lanes supply (inlined
/// into each, so the lanes' copy is compiled with their features).
#[inline(always)]
fn select_with(
    keys: &[i32],
    k: usize,
    lo: i32,
    hi: i32,
    out: &mut Vec<u32>,
    count_ge: impl Fn(&[i32], i32) -> usize,
    masks: impl Fn(&[i32], i32) -> (u64, u64),
) {
    assert!(
        u32::try_from(keys.len()).is_ok(),
        "row of {} keys exceeds the 32-bit index of a selection",
        keys.len()
    );
    debug_assert!(
        keys.iter().all(|x| (lo..=hi).contains(x)),
        "key out of bounds"
    );
    if k >= keys.len() {
        out.extend(0..keys.len() as u32);
        return;
    }
    if k == 0 {
        return;
    }
    // Invariant: at least `k` keys reach `lo`, only `above < k` exceed `hi`
    // (in `i64`: the bounds may span all of `i32`).
    let (mut lo, mut hi, mut above) = (i64::from(lo), i64::from(hi), 0);
    while lo < hi {
        let mid = lo + (hi - lo + 1) / 2;
        let reach = count_ge(keys, mid as i32);
        if reach == k {
            // Exactly the set: nothing to ration among the ties at `mid`.
            (lo, above) = (mid, 0);
            break;
        }
        if reach > k {
            lo = mid;
        } else {
            (hi, above) = (mid - 1, reach);
        }
    }
    let t = lo as i32;
    let mut ties = k - above;
    out.reserve(k);
    for (b, block) in keys.chunks(64).enumerate() {
        let (gt, mut eq) = masks(block, t);
        if eq != 0 {
            let tied = eq.count_ones() as usize;
            if tied > ties {
                // The threshold's last block of ties: keep the lowest `ties`.
                let mut kept = 0;
                for _ in 0..ties {
                    kept |= eq & eq.wrapping_neg();
                    eq &= eq - 1;
                }
                eq = kept;
            }
            ties -= tied.min(ties);
        }
        push_set_bits(gt | eq, (b * 64) as u32, out);
    }
}

/// Appends `base + i` for every set bit `i` of `mask`, ascending.
#[inline(always)]
fn push_set_bits(mut mask: u64, base: u32, out: &mut Vec<u32>) {
    while mask != 0 {
        out.push(base + mask.trailing_zeros());
        mask &= mask - 1;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::lanes::{load_i32, store_i32};
    use std::arch::x86_64::*;

    /// [`super::select_with`] on the eight-lane passes below.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn select(keys: &[i32], k: usize, lo: i32, hi: i32, out: &mut Vec<u32>) {
        super::select_with(
            keys,
            k,
            lo,
            hi,
            out,
            |keys, t| count_ge(keys, t),
            |block, t| match <&[i32; 64]>::try_from(block) {
                Ok(block) => masks64(block, t),
                Err(_) => super::masks(block, t),
            },
        );
    }

    /// [`super::count_ge`]: `keys.len()` less the `t > key` compares, whose
    /// all-ones lanes subtract as −1.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn count_ge(keys: &[i32], t: i32) -> usize {
        let tv = _mm256_set1_epi32(t);
        let below = |chunk: &[i32; 8]| _mm256_cmpgt_epi32(tv, load_i32(chunk));
        let (chunks, rest) = keys.as_chunks::<8>();
        // Four independent counters, 32 keys a step; a lane counts at most
        // `len / 8 < 2^29` keys, so it cannot wrap.
        let mut acc = [_mm256_setzero_si256(); 4];
        let mut steps = chunks.chunks_exact(4);
        for step in &mut steps {
            for (a, chunk) in acc.iter_mut().zip(step) {
                *a = _mm256_sub_epi32(*a, below(chunk));
            }
        }
        for chunk in steps.remainder() {
            acc[0] = _mm256_sub_epi32(acc[0], below(chunk));
        }
        let sum = _mm256_add_epi32(
            _mm256_add_epi32(acc[0], acc[1]),
            _mm256_add_epi32(acc[2], acc[3]),
        );
        let mut lanes = [0i32; 8];
        store_i32(&mut lanes, sum);
        let below_t = lanes.iter().map(|&c| c as usize).sum::<usize>()
            + rest.iter().filter(|&&x| x < t).count();
        keys.len() - below_t
    }

    /// [`super::masks`] of a full block.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn masks64(block: &[i32; 64], t: i32) -> (u64, u64) {
        let tv = _mm256_set1_epi32(t);
        let (mut gt, mut eq) = (0u64, 0u64);
        let (groups, _) = block.as_chunks::<8>();
        for (g, group) in groups.iter().enumerate() {
            let keys = load_i32(group);
            // One sign bit per 32-bit lane, lane 0 lowest.
            let bits = |m: __m256i| u64::from(_mm256_movemask_ps(_mm256_castsi256_ps(m)) as u8);
            gt |= bits(_mm256_cmpgt_epi32(keys, tv)) << (8 * g);
            eq |= bits(_mm256_cmpeq_epi32(keys, tv)) << (8 * g);
        }
        (gt, eq)
    }
}

/// Converts per-row selected indices into a dense boolean mask with the given
/// number of columns.
///
/// # Panics
///
/// Panics if any index is `>= cols`.
pub fn indices_to_mask(selected: &[Vec<usize>], cols: usize) -> Vec<Vec<bool>> {
    selected
        .iter()
        .map(|row| {
            let mut mask = vec![false; cols];
            for &i in row {
                assert!(i < cols, "selected index {i} out of bounds ({cols})");
                mask[i] = true;
            }
            mask
        })
        .collect()
}

/// Per-row threshold selection: keep entry `(r, c)` when
/// `scores[(r, c)] >= threshold`. This models the hardware Detector's
/// comparator (§4.3), which compares estimated scores against a preset
/// threshold rather than sorting.
#[cfg(test)]
pub(crate) fn threshold_mask(scores: &Matrix, threshold: f32) -> Vec<Vec<bool>> {
    scores
        .rows_iter()
        .map(|row| row.iter().map(|&x| x >= threshold).collect())
        .collect()
}

/// Threshold selection of one row as a set: appends to `out`, ascending,
/// every index with `row[i] >= threshold` (never a NaN) — the hardware
/// Detector's comparator (§4.3) output as the key IDs the Scheduler
/// consumes, 64 compares to a bit mask.
pub fn threshold_set(row: &[f32], threshold: f32, out: &mut Vec<u32>) {
    for (b, block) in row.chunks(64).enumerate() {
        let pass = |(i, &v): (usize, &f32)| u64::from(v >= threshold) << i;
        let passed = block.iter().enumerate().map(pass).fold(0, |m, bit| m | bit);
        push_set_bits(passed, (b * 64) as u32, out);
    }
}

/// Finds, per row, the threshold that would keep exactly `k` entries; returns
/// the k-th largest value of each row. Used to calibrate hardware threshold
/// registers from a validation set (§3.1).
#[cfg(test)]
pub(crate) fn kth_value_rows(scores: &Matrix, k: usize) -> Vec<f32> {
    scores
        .rows_iter()
        .map(|row| {
            let idx = top_k_indices(row, k);
            idx.last().map(|&i| row[i]).unwrap_or(f32::NEG_INFINITY)
        })
        .collect()
}

/// Overlap between two per-row index selections: the mean fraction of
/// `reference` indices also present in `candidate`. This is the detection
/// *recall* metric used to evaluate detector quality against oracle top-k.
///
/// # Panics
///
/// Panics if the two selections have different row counts.
pub fn selection_recall(reference: &[Vec<usize>], candidate: &[Vec<usize>]) -> f64 {
    assert_eq!(reference.len(), candidate.len(), "row count mismatch");
    if reference.is_empty() {
        return 1.0;
    }
    let mut acc = 0.0;
    for (r, c) in reference.iter().zip(candidate) {
        if r.is_empty() {
            acc += 1.0;
            continue;
        }
        let cset: std::collections::HashSet<usize> = c.iter().copied().collect();
        let hit = r.iter().filter(|i| cset.contains(i)).count();
        acc += hit as f64 / r.len() as f64;
    }
    acc / reference.len() as f64
}

/// Number of entries each row keeps under `mask`.
#[cfg(test)]
pub(crate) fn row_counts(mask: &[Vec<bool>]) -> Vec<usize> {
    mask.iter()
        .map(|r| r.iter().filter(|&&b| b).count())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::bodies;
    use crate::rng::SeededRng;
    use proptest::prelude::*;

    /// The implementation `top_k_indices` replaced, kept as its oracle: a
    /// stable full sort of the indices by a comparator on the floats
    /// themselves (NaN after every number, `-0.0 == 0.0`), then truncate.
    fn top_k_indices_by_full_sort(row: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| {
            let by_value = match (row[a].is_nan(), row[b].is_nan()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => row[b].partial_cmp(&row[a]).expect("neither is NaN"),
            };
            by_value.then(a.cmp(&b))
        });
        idx.truncate(k.min(row.len()));
        idx
    }

    /// `top_k_set(row, k)` and each body of the core on the row's keys
    /// against `top_k_indices(row, k)`, sorted.
    fn check_set(row: &[f32], k: usize) {
        let mut expected: Vec<u32> = top_k_indices(row, k).iter().map(|&i| i as u32).collect();
        expected.sort_unstable();
        let (mut keys, mut got) = (vec![7; 3], Vec::new());
        top_k_set(Lanes::active(), row, k, &mut keys, &mut got);
        assert_eq!(got, expected, "k {k} of {}", row.len());
        let (lo, hi) = (keys.iter().min(), keys.iter().max());
        let (lo, hi) = (*lo.unwrap_or(&0), *hi.unwrap_or(&0));
        for lanes in bodies() {
            got.clear();
            top_k_set_keys(lanes, &keys, k, lo, hi, &mut got);
            assert_eq!(got, expected, "{lanes:?}, k {k} of {}", row.len());
        }
    }

    #[test]
    fn keep_count_rounds_and_clamps() {
        // round(2.5) = 3, half away from zero; round(0.4) = 0 still keeps
        // one key; never more keys than candidates, and none of none.
        let cases = [
            (0.1, 100, 10),
            (0.25, 10, 3),
            (0.1, 4, 1),
            (1.0, 7, 7),
            (1.5, 7, 7),
            (0.5, 0, 0),
        ];
        for (r, n, kept) in cases {
            assert_eq!(keep_count(r, n), kept, "r={r} n={n}");
        }
    }

    #[test]
    fn window_count_ceils_clamps_and_is_total() {
        // ceil(2.5) = 3; the bottom ladder rung keeps one position up to
        // t = 8 and two from t = 9, ceil(1.125).
        let cases = [
            (1.0, 5, 5),
            (0.5, 5, 3),
            (0.125, 1, 1),
            (0.125, 8, 1),
            (0.125, 9, 2),
        ];
        for (r, t, kept) in cases {
            assert_eq!(window_count(r, t), kept, "r={r} t={t}");
        }
        // Where the two rules part: ceil(1.2) = 2, round(1.2) = 1.
        assert_eq!((window_count(0.4, 3), keep_count(0.4, 3)), (2, 1));
        // Any retention: an empty cache keeps nothing, any other at least one.
        let rs = [f64::NAN, -1.0, f64::NEG_INFINITY, 0.0, 2.0, f64::INFINITY];
        assert_eq!(rs.map(|r| window_count(r, 0)), [0; 6]);
        assert_eq!(rs.map(|r| window_count(r, 5)), [1, 1, 1, 1, 5, 5]);
    }

    #[test]
    fn top_k_set_rations_ties_across_blocks() {
        // 130 equal keys under three stronger ones: the threshold's ties
        // run out inside the first, the second and the third 64-key block.
        let mut row = vec![1.0f32; 133];
        for strong in [5, 70, 131] {
            row[strong] = 2.0;
        }
        for k in [1, 3, 4, 40, 64, 65, 66, 100, 128, 129, 130, 132, 133] {
            check_set(&row, k);
        }
        let mut set = Vec::new();
        top_k_set(Lanes::active(), &row, 5, &mut Vec::new(), &mut set);
        assert_eq!(set, vec![0, 1, 5, 70, 131]);
    }

    const TIED_VALUES: [f32; 16] = [
        f32::NEG_INFINITY,
        f32::MIN,
        -1.5,
        -f32::MIN_POSITIVE,
        -1e-45,
        -0.0,
        0.0,
        1e-45,
        f32::MIN_POSITIVE,
        0.25,
        0.25,
        3.0,
        f32::MAX,
        f32::INFINITY,
        f32::NAN,
        -f32::NAN,
    ];

    proptest! {
        /// Selection agrees with the full sort on rows dense with ties,
        /// signed zeros, subnormals, infinities and NaNs of both signs, for
        /// every `k` from 0 past the row length.
        #[test]
        fn top_k_matches_full_sort_oracle(
            picks in proptest::collection::vec(0usize..16, 0..120),
            k in 0usize..130,
        ) {
            let row: Vec<f32> = picks.iter().map(|&p| TIED_VALUES[p]).collect();
            prop_assert_eq!(top_k_indices(&row, k), top_k_indices_by_full_sort(&row, k));
        }

        /// The same on rows long enough that `std` leaves insertion sort
        /// for its partitioning paths, where a non-total order used to
        /// panic; one scratch buffer serves every row, as in `top_k_rows`.
        #[test]
        fn top_k_rows_long_tied_rows_match_full_sort_oracle(
            picks in proptest::collection::vec(0usize..16, 1024..1400),
            k in 0usize..1500,
            seed in 0u64..1 << 32,
        ) {
            let cols = picks.len();
            let mut rng = SeededRng::new(seed);
            let mut data: Vec<f32> = picks.iter().map(|&p| TIED_VALUES[p]).collect();
            data.extend(rng.normal_matrix(1, cols, 1.0).as_slice());
            data.extend(picks.iter().rev().map(|&p| TIED_VALUES[p]));
            let scores = Matrix::from_vec(3, cols, data).unwrap();
            let expected: Vec<Vec<usize>> = scores
                .rows_iter()
                .map(|row| top_k_indices_by_full_sort(row, k))
                .collect();
            prop_assert_eq!(top_k_rows(&scores, k), expected);
        }

        /// The set primitive returns `top_k_indices`' set, ascending, on
        /// tie-, zero-, subnormal-, infinity- and NaN-laden rows on both
        /// sides of one 8-lane compare and of one and two 64-key blocks,
        /// for every `k` from 0 past the row length — through the `f32`
        /// front and through both bodies of the core.
        #[test]
        fn top_k_set_matches_top_k_indices_oracle(
            picks in proptest::collection::vec(0usize..16, 0..140),
        ) {
            let row: Vec<f32> = picks.iter().map(|&p| TIED_VALUES[p]).collect();
            for k in 0..row.len() + 2 {
                check_set(&row, k);
            }
        }

        /// The same on rows of 16 to 22 blocks: tied values only, tied
        /// values reversed, and distinct random ones (where bisection stops
        /// on an exact count long before its range is exhausted).
        #[test]
        fn top_k_set_long_tied_rows_match_oracle(
            picks in proptest::collection::vec(0usize..16, 1024..1400),
            k in 0usize..1500,
            seed in 0u64..1 << 32,
        ) {
            let tied: Vec<f32> = picks.iter().map(|&p| TIED_VALUES[p]).collect();
            check_set(&tied, k);
            check_set(&tied.iter().rev().copied().collect::<Vec<_>>(), k);
            let random = SeededRng::new(seed).normal_matrix(1, picks.len(), 1.0);
            check_set(random.as_slice(), k);
        }

        /// The integer core on small-range keys (the detector's
        /// accumulators: far more keys than values) agrees with a full sort
        /// whether its bounds are tight, loose or all of `i32`, and whether
        /// the keys sit at either end of `i32`.
        #[test]
        fn top_k_set_keys_small_range_matches_full_sort_oracle(
            picks in proptest::collection::vec(-384i32..=384, 1..300),
            spread in 1i32..=384,
            k in 0usize..310,
            shift in 0usize..3,
        ) {
            let offset = [0, i32::MIN + 384, i32::MAX - 384][shift];
            let keys: Vec<i32> = picks.iter().map(|&p| p % spread + offset).collect();
            let (min, max) = (*keys.iter().min().unwrap(), *keys.iter().max().unwrap());
            let mut by_sort: Vec<u32> = (0..keys.len() as u32).collect();
            by_sort.sort_by_key(|&i| (std::cmp::Reverse(keys[i as usize]), i));
            by_sort.truncate(k);
            by_sort.sort_unstable();
            let loose = (min.saturating_sub(1000), max.saturating_add(77));
            for (lo, hi) in [(min, max), loose, (i32::MIN, i32::MAX)] {
                for lanes in bodies() {
                    let mut got = vec![u32::MAX];
                    top_k_set_keys(lanes, &keys, k, lo, hi, &mut got);
                    prop_assert_eq!(got[0], u32::MAX, "appends, never clears");
                    prop_assert_eq!(&got[1..], &by_sort[..], "{:?} in {}..={}", lanes, lo, hi);
                }
            }
        }

        /// `descending_rank` orders any two floats the way the oracle's
        /// comparator does.
        #[test]
        fn descending_rank_matches_float_order(a in 0usize..16, b in 0usize..16, x in -4.0f32..4.0) {
            for (p, q) in [(TIED_VALUES[a], TIED_VALUES[b]), (TIED_VALUES[a], x), (x, x * 0.5)] {
                let expected = top_k_indices_by_full_sort(&[p, q], 2);
                let by_rank = if descending_rank(q) < descending_rank(p) { vec![1, 0] } else { vec![0, 1] };
                prop_assert_eq!(by_rank, expected, "{} vs {}", p, q);
            }
        }
    }

    #[test]
    fn nan_rows_of_any_length_return_k_indices() {
        // A few NaNs in a long random row sent the old comparator-based
        // sort into std's inconsistent-order panic.
        let mut rng = SeededRng::new(9);
        for len in [1usize, 17, 64, 1024, 4096] {
            let mut row = rng.normal_matrix(1, len, 1.0).as_slice().to_vec();
            for i in (0..len).step_by(7) {
                row[i] = f32::NAN;
            }
            for k in [1, len / 2, len] {
                let idx = top_k_indices(&row, k);
                assert_eq!(idx.len(), k);
                let numbers = row.iter().filter(|v| !v.is_nan()).count();
                assert!(idx.iter().take(numbers).all(|&i| !row[i].is_nan()));
                assert_eq!(idx, top_k_indices_by_full_sort(&row, k));
            }
        }
    }

    #[test]
    fn top_k_basic() {
        let row = [0.2, 0.8, 0.5, 0.9];
        assert_eq!(top_k_indices(&row, 2), vec![3, 1]);
        assert_eq!(top_k_indices(&row, 0), Vec::<usize>::new());
        assert_eq!(top_k_indices(&row, 10).len(), 4);
    }

    #[test]
    fn top_k_tie_break_deterministic() {
        let row = [1.0, 1.0, 1.0];
        assert_eq!(top_k_indices(&row, 2), vec![0, 1]);
    }

    #[test]
    fn top_k_rows_equal_k() {
        let mut rng = SeededRng::new(1);
        let m = rng.normal_matrix(8, 16, 1.0);
        let sel = top_k_rows(&m, 4);
        assert!(sel.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn indices_to_mask_round_trip() {
        let sel = vec![vec![0, 2], vec![1]];
        let mask = indices_to_mask(&sel, 3);
        assert_eq!(mask[0], vec![true, false, true]);
        assert_eq!(mask[1], vec![false, true, false]);
        assert_eq!(row_counts(&mask), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indices_to_mask_checks_bounds() {
        let _ = indices_to_mask(&[vec![5]], 3);
    }

    #[test]
    fn threshold_mask_matches_kth_value() {
        let m = Matrix::from_rows(&[&[0.1, 0.5, 0.9, 0.3]]).unwrap();
        let kth = kth_value_rows(&m, 2);
        let mask = threshold_mask(&m, kth[0]);
        assert_eq!(row_counts(&mask), vec![2]);
        assert!(mask[0][2] && mask[0][1]);
    }

    #[test]
    fn threshold_set_is_the_mask_as_indices() {
        let mut rng = SeededRng::new(4);
        let mut m = rng.normal_matrix(3, 150, 1.0);
        m[(1, 64)] = f32::NAN;
        m[(1, 149)] = f32::INFINITY;
        for threshold in [-0.3, 0.0, 1.1, f32::NEG_INFINITY, f32::NAN] {
            let mask = threshold_mask(&m, threshold);
            for (r, row) in m.rows_iter().enumerate() {
                let mut set = vec![9];
                threshold_set(row, threshold, &mut set);
                let want: Vec<u32> = (0..150).filter(|&j| mask[r][j as usize]).collect();
                assert_eq!(set[1..], want, "row {r} at {threshold}");
            }
        }
    }

    #[test]
    fn recall_perfect_and_disjoint() {
        let a = vec![vec![0, 1], vec![2, 3]];
        assert_eq!(selection_recall(&a, &a), 1.0);
        let b = vec![vec![4, 5], vec![6, 7]];
        assert_eq!(selection_recall(&a, &b), 0.0);
        let c = vec![vec![0, 5], vec![2, 7]];
        assert!((selection_recall(&a, &c) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn recall_of_topk_under_noise_degrades_gracefully() {
        let mut rng = SeededRng::new(2);
        let scores = rng.normal_matrix(16, 64, 1.0);
        let noisy = scores
            .add(&rng.normal_matrix(16, 64, 0.1))
            .expect("same shape");
        let exact = top_k_rows(&scores, 8);
        let approx = top_k_rows(&noisy, 8);
        let recall = selection_recall(&exact, &approx);
        assert!(recall > 0.7, "recall {recall}");
    }
}
