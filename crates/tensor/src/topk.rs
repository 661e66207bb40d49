//! Top-k selection and threshold utilities.
//!
//! The paper selects strong attention connections two ways: *row-wise top-k*
//! over (estimated) attention scores (§2.2, §3.1), and *threshold
//! comparison* against a preset value in the hardware Detector (§4.3). Both
//! primitives live here, along with helpers to convert selections into the
//! binary masks the rest of the stack consumes.

use crate::Matrix;

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
pub fn threshold_mask(scores: &Matrix, threshold: f32) -> Vec<Vec<bool>> {
    scores
        .rows_iter()
        .map(|row| row.iter().map(|&x| x >= threshold).collect())
        .collect()
}

/// Finds, per row, the threshold that would keep exactly `k` entries; returns
/// the k-th largest value of each row. Used to calibrate hardware threshold
/// registers from a validation set (§3.1).
pub fn kth_value_rows(scores: &Matrix, k: usize) -> Vec<f32> {
    scores
        .rows_iter()
        .map(|row| {
            let idx = top_k_indices(row, k);
            idx.last().map(|&i| row[i]).unwrap_or(f32::NEG_INFINITY)
        })
        .collect()
}

/// Fraction of `true` entries in a mask.
pub fn mask_density(mask: &[Vec<bool>]) -> f64 {
    let total: usize = mask.iter().map(|r| r.len()).sum();
    if total == 0 {
        return 0.0;
    }
    let kept: usize = mask.iter().map(|r| r.iter().filter(|&&b| b).count()).sum();
    kept as f64 / total as f64
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
pub fn row_counts(mask: &[Vec<bool>]) -> Vec<usize> {
    mask.iter()
        .map(|r| r.iter().filter(|&&b| b).count())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn mask_density_counts() {
        let mask = vec![vec![true, false], vec![false, false]];
        assert!((mask_density(&mask) - 0.25).abs() < 1e-9);
        assert_eq!(mask_density(&[]), 0.0);
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
