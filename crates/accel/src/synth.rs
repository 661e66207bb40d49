//! Synthetic sparse-attention selection generator with controllable
//! locality.
//!
//! Paper-scale simulations (4K-token sequences, 24-layer models) cannot be
//! driven by real trained-model traces here, so the memory-access model is
//! fed selections sampled with the two locality properties the paper
//! observes in real attention graphs (§4.3): *important tokens* that many
//! queries attend to (column reuse) and *windowed neighbors* (a query
//! attends near its own position).

use dota_tensor::rng::{Draws, SeededRng};

/// Parameters of the synthetic selection distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionProfile {
    /// Fraction of each row's budget spent on globally-important tokens
    /// (shared across queries — the source of K/V reuse).
    pub global_fraction: f64,
    /// Fraction spent on a local window around the query position.
    pub local_fraction: f64,
    /// Number of globally-important tokens in the sequence.
    pub n_important: usize,
    /// Half-width of the local window.
    pub window: usize,
}

impl Default for SelectionProfile {
    fn default() -> Self {
        Self {
            global_fraction: 0.4,
            local_fraction: 0.4,
            n_important: 32,
            window: 8,
        }
    }
}

impl SelectionProfile {
    /// A profile with no locality at all (uniform random selections) — the
    /// pessimistic bound for scheduler reuse.
    pub fn uniform() -> Self {
        Self {
            global_fraction: 0.0,
            local_fraction: 0.0,
            n_important: 0,
            window: 0,
        }
    }
}

/// Streams the rows of a balanced selection — `n` rows, exactly `k` keys
/// per row, drawn from the profile's mixture of global tokens, local window
/// and uniform background — one row at a time into the caller's buffer.
/// [`sample_selection`] is this, collected.
#[derive(Debug)]
pub struct SelectionSampler<'a> {
    n: usize,
    k: usize,
    window: usize,
    /// Keys a row takes from the global tokens, and its global + local
    /// budget.
    n_global: usize,
    n_global_local: usize,
    rng: &'a mut SeededRng,
    /// The globally-important tokens (the same set for every query).
    important: Vec<usize>,
    /// One bit per key the current row has chosen; all zero between rows.
    chosen: Vec<u64>,
    cands: Vec<usize>,
    /// The next row's query position.
    q: usize,
}

impl<'a> SelectionSampler<'a> {
    /// Draws the profile's important tokens from `rng` and readies row 0.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`, `n == 0` or `n` exceeds `u32` key IDs.
    pub fn new(n: usize, k: usize, profile: &SelectionProfile, rng: &'a mut SeededRng) -> Self {
        assert!(n > 0, "empty sequence");
        assert!(k <= n, "cannot keep {k} of {n} keys");
        assert!(
            u32::try_from(n).is_ok(),
            "sequence of {n} exceeds u32 key IDs"
        );
        let n_imp = profile.n_important.min(n);
        let important: Vec<usize> = if n_imp > 0 {
            rng.sample_indices(n, n_imp)
        } else {
            Vec::new()
        };
        let n_global = ((k as f64) * profile.global_fraction).round() as usize;
        let n_local = ((k as f64) * profile.local_fraction).round() as usize;
        Self {
            n,
            k,
            window: profile.window,
            n_global,
            n_global_local: n_global + n_local,
            rng,
            important,
            chosen: vec![0; n.div_ceil(64)],
            cands: Vec::with_capacity(2 * profile.window + 1),
            q: 0,
        }
    }

    /// Replaces `row` with the next query's keys, ascending and distinct.
    ///
    /// # Panics
    ///
    /// Panics after the `n`-th row.
    pub(crate) fn next_row(&mut self, row: &mut Vec<u32>) {
        let (n, k, q) = (self.n, self.k, self.q);
        assert!(q < n, "a selection over {n} tokens has {n} rows");
        self.q += 1;
        let chosen = &mut self.chosen;
        // Test-and-set: 1 if `t` is new to the row.
        let mut insert = |t: usize| {
            let bit = 1u64 << (t & 63);
            let new = chosen[t >> 6] & bit == 0;
            chosen[t >> 6] |= bit;
            usize::from(new)
        };
        let mut len = 0;

        // Global important tokens (same set for every query).
        for &t in self.important.iter().take(self.n_global) {
            len += insert(t);
        }
        let mut draws = self.rng.draws();
        // Local window around the query.
        if self.window > 0 {
            let lo = q.saturating_sub(self.window);
            let hi = (q + self.window).min(n - 1);
            self.cands.clear();
            self.cands.extend(lo..=hi);
            draws.shuffle(&mut self.cands);
            for &t in &self.cands {
                if len >= self.n_global_local || len >= k {
                    break;
                }
                len += insert(t);
            }
        }
        // Uniform background until the budget is filled.
        if n > 1 && n.is_power_of_two() {
            len = background_pow2(chosen, len, k, n.trailing_zeros(), &mut draws);
        } else {
            while len < k {
                len += insert(draws.below(n));
            }
        }
        drop(draws);

        // A word's keys land in `row[at..at + keys]`, eight slots written
        // at a time whatever the word holds: the slots past its keys are
        // the next word's to overwrite, or cut off at the end, so the loop
        // branches once a word rather than once a key.
        row.clear();
        row.resize(len + 8, 0);
        let mut at = 0;
        for (w, word) in chosen.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            let end = at + bits.count_ones() as usize;
            let mut slot = at;
            loop {
                for key in &mut row[slot..slot + 8] {
                    *key = (w as u32) << 6 | bits.trailing_zeros();
                    bits &= bits.wrapping_sub(1);
                }
                slot += 8;
                if slot >= end {
                    break;
                }
            }
            at = end;
        }
        row.truncate(len);
    }
}

/// The uniform background of a row over `n = 2^bits` keys (`bits ≥ 1`),
/// from `len` keys chosen until `k` (the count it returns):
/// `Draws::below(n)` per key, without a branch on the draw. rand's rule
/// accepts a draw `v` exactly when bit `63 − bits` is clear (the product
/// `v · n`'s low half is `v << bits`), and the key is the product's high
/// half, `v >> (64 − bits)`; a rejected draw sets no bit.
fn background_pow2(
    chosen: &mut [u64],
    mut len: usize,
    k: usize,
    bits: u32,
    draws: &mut Draws,
) -> usize {
    while len < k {
        let v = draws.next_u64();
        let key = (v >> (64 - bits)) as usize;
        let bit = (!v >> (63 - bits) & 1) << (key & 63);
        let word = &mut chosen[key >> 6];
        len += usize::from(bit & !*word != 0);
        *word |= bit;
    }
    len
}

/// Samples a balanced selection: `n` rows, exactly `k` keys per row, drawn
/// from the profile's mixture of global tokens, local window and uniform
/// background.
///
/// # Panics
///
/// Panics if `k > n`, `n == 0` or `n` exceeds `u32` key IDs.
pub fn sample_selection(
    n: usize,
    k: usize,
    profile: &SelectionProfile,
    rng: &mut SeededRng,
) -> Vec<Vec<u32>> {
    let mut sampler = SelectionSampler::new(n, k, profile, rng);
    (0..n)
        .map(|_| {
            let mut row = Vec::with_capacity(k);
            sampler.next_row(&mut row);
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched;

    /// The sampler as first written, kept as the streaming one's oracle:
    /// one `BTreeSet` per row.
    fn sample_selection_oracle(
        n: usize,
        k: usize,
        profile: &SelectionProfile,
        rng: &mut SeededRng,
    ) -> Vec<Vec<u32>> {
        let n_imp = profile.n_important.min(n);
        let important: Vec<usize> = if n_imp > 0 {
            rng.sample_indices(n, n_imp)
        } else {
            Vec::new()
        };
        (0..n)
            .map(|q| {
                let mut chosen = std::collections::BTreeSet::new();
                let n_global = ((k as f64) * profile.global_fraction).round() as usize;
                let n_local = ((k as f64) * profile.local_fraction).round() as usize;
                for &t in important.iter().take(n_global.min(important.len())) {
                    chosen.insert(t as u32);
                }
                if profile.window > 0 {
                    let lo = q.saturating_sub(profile.window);
                    let hi = (q + profile.window).min(n - 1);
                    let mut cands: Vec<usize> = (lo..=hi).collect();
                    rng.shuffle(&mut cands);
                    for t in cands {
                        if chosen.len() >= n_global + n_local || chosen.len() >= k {
                            break;
                        }
                        chosen.insert(t as u32);
                    }
                }
                while chosen.len() < k {
                    chosen.insert(rng.below(n) as u32);
                }
                chosen.into_iter().collect()
            })
            .collect()
    }

    proptest::proptest! {
        /// Same rows and the same RNG state afterwards (the next draw
        /// agrees) as the oracle, with locality, without, and with the
        /// global tokens alone — also at `k = 0`, `k = n` and around the
        /// bit map's word boundaries — and the rows streamed one at a time
        /// (the simulator's entry point) are the collected ones.
        #[test]
        fn sample_selection_matches_btreeset_oracle(
            n in 1usize..200,
            word_edge in 0usize..10,
            k_share in 0.0f64..1.0,
            k_edge in 0usize..6,
            seed in 0u64..1 << 32,
        ) {
            let n = [63, 64, 65, 128, 129].get(word_edge).copied().unwrap_or(n);
            let k = match k_edge {
                0 => 0,
                1 => n,
                _ => (k_share * (n + 1) as f64) as usize,
            };
            let no_window = SelectionProfile { window: 0, ..SelectionProfile::default() };
            for profile in [SelectionProfile::default(), SelectionProfile::uniform(), no_window] {
                let mut rng = SeededRng::new(seed);
                let mut oracle_rng = SeededRng::new(seed);
                let mut stream_rng = SeededRng::new(seed);
                let collected = sample_selection(n, k, &profile, &mut rng);
                proptest::prop_assert_eq!(
                    &collected,
                    &sample_selection_oracle(n, k, &profile, &mut oracle_rng)
                );
                let mut sampler = SelectionSampler::new(n, k, &profile, &mut stream_rng);
                let mut row = vec![u32::MAX; 3]; // stale contents are replaced
                for want in &collected {
                    sampler.next_row(&mut row);
                    proptest::prop_assert_eq!(&row, want);
                }
                let next = rng.below(1 << 30);
                proptest::prop_assert_eq!(next, oracle_rng.below(1 << 30));
                proptest::prop_assert_eq!(next, stream_rng.below(1 << 30));
            }
        }
    }

    #[test]
    fn balanced_rows_and_valid_indices() {
        let mut rng = SeededRng::new(1);
        let sel = sample_selection(128, 13, &SelectionProfile::default(), &mut rng);
        assert_eq!(sel.len(), 128);
        for row in &sel {
            assert_eq!(row.len(), 13);
            assert!(row.iter().all(|&j| (j as usize) < 128));
            let mut s = row.clone();
            s.dedup();
            assert_eq!(s.len(), 13, "duplicates in {row:?}");
        }
    }

    #[test]
    fn locality_profile_enables_more_reuse_than_uniform() {
        let mut rng = SeededRng::new(2);
        let n = 256;
        let k = 16;
        let local = sample_selection(n, k, &SelectionProfile::default(), &mut rng);
        let uniform = sample_selection(n, k, &SelectionProfile::uniform(), &mut rng);
        let loads_local = sched::matrix_loads(&local, 4, true).loads;
        let loads_uniform = sched::matrix_loads(&uniform, 4, true).loads;
        assert!(
            loads_local < loads_uniform,
            "locality {loads_local} should beat uniform {loads_uniform}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sample_selection(64, 8, &SelectionProfile::default(), &mut SeededRng::new(7));
        let b = sample_selection(64, 8, &SelectionProfile::default(), &mut SeededRng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot keep")]
    fn rejects_oversized_k() {
        let mut rng = SeededRng::new(1);
        let _ = sample_selection(4, 5, &SelectionProfile::default(), &mut rng);
    }
}
