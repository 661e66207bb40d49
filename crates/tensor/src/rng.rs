//! Seeded random-number helpers and random projection matrices.
//!
//! The detector (paper §3.1, Eq. 4) relies on an Achlioptas-style *sparse
//! random projection* `P ∈ sqrt(3/k)·{-1, 0, +1}^{d×k}` to reduce the input
//! feature dimension before the low-rank transformations. ELSA's baseline
//! uses dense *sign random projections*. Both are constructed here so that
//! every crate draws them from the same seeded source and experiments stay
//! reproducible.

use crate::cos::{cos_f32, cos_slice};
use crate::lanes::Lanes;
use crate::ln::{ln_f32, ln_slice};
use crate::Matrix;
use rand::rngs::StdRng;
use rand::{unit_f32, Rng, SeedableRng};
use std::f32::consts::TAU;

/// Draws per pass of the bulk Box–Muller: their words and two staging rows
/// live on the stack.
const DRAWS: usize = 512;

/// A deterministic RNG wrapper used throughout the workspace.
///
/// All experiments in this repository are seeded so that accuracy tables and
/// simulator traces are exactly reproducible run-to-run.
///
/// # Example
///
/// ```
/// use dota_tensor::rng::SeededRng;
///
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    inner: StdRng,
}

impl SeededRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// A uniform sample in `[lo, hi)`.
    pub(crate) fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        self.inner.gen_range(0..n)
    }

    /// A standard-normal sample via Box–Muller, `sqrt(−2·ln u1)·cos(2π·u2)`
    /// on two uniform draws, through the repo's own [`ln_f32`] and
    /// [`cos_f32`]: the same bits on every host.
    pub fn normal(&mut self) -> f32 {
        let u1: f32 = self.uniform().max(1e-12);
        let u2: f32 = self.uniform();
        (-2.0 * ln_f32(u1)).sqrt() * cos_f32(TAU * u2)
    }

    /// A `rows x cols` matrix of i.i.d. `N(0, std^2)` samples: row-major,
    /// each `normal() * std`, bit for bit, and the generator left where
    /// that loop would leave it.
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, std: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        self.fill_normal(Lanes::active(), m.as_mut_slice(), std);
        m
    }

    /// `normal() * std` into each element of `out` in order, in bulk:
    /// [`DRAWS`] draws' words at a time off the keystream
    /// ([`SeededRng::fill_words`]), `ln` of every radius and `cos` of every
    /// angle through the `lanes` kernels, then the same `f32` products as
    /// [`SeededRng::normal`].
    fn fill_normal(&mut self, lanes: Lanes, out: &mut [f32], std: f32) {
        let mut words = [0u32; 2 * DRAWS];
        let (mut radius, mut angle) = ([0.0f32; DRAWS], [0.0f32; DRAWS]);
        for chunk in out.chunks_mut(DRAWS) {
            let n = chunk.len();
            self.fill_words(lanes, &mut words[..2 * n]);
            let pairs = words.as_chunks::<2>().0.iter().take(n);
            for ((&[w1, w2], r), a) in pairs.zip(&mut radius).zip(&mut angle) {
                *r = unit_f32(w1).max(1e-12);
                *a = TAU * unit_f32(w2);
            }
            ln_slice(lanes, &mut radius[..n]);
            cos_slice(lanes, &mut angle[..n]);
            for ((x, &r), &a) in chunk.iter_mut().zip(&radius).zip(&angle) {
                *x = (-2.0 * r).sqrt() * a * std;
            }
        }
    }

    /// The next `dst.len()` raw words of the stream, in order: what as many
    /// [`SeededRng::uniform`] calls consume, and the generator left where
    /// they leave it. On the AVX2 `lanes` the keystream is computed eight
    /// ChaCha12 blocks at a time, on the plain ones four — the same words.
    pub fn fill_words(&mut self, lanes: Lanes, dst: &mut [u32]) {
        let wide: Option<&dyn rand::WideBlocks> = match &lanes {
            Lanes::Plain => None,
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2(token) => Some(token),
        };
        self.inner.fill_u32(dst, wide);
    }

    /// A `rows x cols` matrix of uniform samples in `[lo, hi)`.
    pub fn uniform_matrix(&mut self, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.uniform_range(lo, hi))
    }

    /// Xavier/Glorot-initialized weight matrix for a `fan_in -> fan_out`
    /// linear layer.
    pub fn xavier(&mut self, fan_in: usize, fan_out: usize) -> Matrix {
        let std = (2.0 / (fan_in + fan_out) as f32).sqrt();
        self.normal_matrix(fan_in, fan_out, std)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (reservoir-free, via shuffle
    /// of a prefix).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Achlioptas sparse random projection `P ∈ sqrt(3/k)·{-1,0,+1}^{d×k}`
    /// (paper Eq. 4, citing Achlioptas 2001).
    ///
    /// Entries are `+sqrt(3/k)` with probability 1/6, `-sqrt(3/k)` with
    /// probability 1/6 and `0` with probability 2/3, which preserves
    /// pairwise distances in expectation while being two-thirds zeros — the
    /// property the paper exploits for a cheap detector.
    pub fn achlioptas_projection(&mut self, d: usize, k: usize) -> Matrix {
        let scale = (3.0 / k.max(1) as f32).sqrt();
        Matrix::from_fn(d, k, |_, _| {
            let u = self.uniform();
            if u < 1.0 / 6.0 {
                scale
            } else if u < 2.0 / 6.0 {
                -scale
            } else {
                0.0
            }
        })
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::lanes::{load_i32, store_i32, Avx2};
    use rand::{WideBlocks, CHACHA_CONSTANTS};
    use std::arch::x86_64::*;

    /// The generator's refill eight blocks wide, on the lanes.
    impl WideBlocks for Avx2 {
        fn blocks8(&self, key: &[u32; 8], counter: u64, out: &mut [u32; 128]) {
            // SAFETY: the token proves AVX2 and FMA.
            unsafe { blocks8(key, counter, out) }
        }
    }

    /// `v` rotated left by `L` bits in every lane (`R` = `32 − L`).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn rotl<const L: i32, const R: i32>(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(v), _mm256_srli_epi32::<R>(v))
    }

    /// One ChaCha quarter round on state words `a b c d`, lane `i` of each
    /// being block `i`'s; the byte-aligned rotations are byte shuffles.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn quarter(x: &mut [__m256i; 16], [a, b, c, d]: [usize; 4]) {
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11,
            8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9,
            10, 15, 12, 13, 14,
        );
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Eight vectors of one word per block, transposed to one vector per
    /// block: element `b` holds lane `b` of every input.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn transpose(r: &[__m256i; 8]) -> [__m256i; 8] {
        let lo = |p: usize| _mm256_unpacklo_epi32(r[p], r[p + 1]);
        let hi = |p: usize| _mm256_unpackhi_epi32(r[p], r[p + 1]);
        let t = [lo(0), hi(0), lo(2), hi(2), lo(4), hi(4), lo(6), hi(6)];
        // u[j], j < 4: lane j of r0..r3 in the low half, lane j + 4 in the
        // high half; u[j + 4]: the same of r4..r7.
        let lo = |a: usize| _mm256_unpacklo_epi64(t[a], t[a + 2]);
        let hi = |a: usize| _mm256_unpackhi_epi64(t[a], t[a + 2]);
        let u = [lo(0), hi(0), lo(1), hi(1), lo(4), hi(4), lo(5), hi(5)];
        std::array::from_fn(|b| {
            let (p, q) = (u[b % 4], u[b % 4 + 4]);
            if b < 4 {
                _mm256_permute2x128_si256::<0x20>(p, q)
            } else {
                _mm256_permute2x128_si256::<0x31>(p, q)
            }
        })
    }

    /// [`WideBlocks::blocks8`]: the eight blocks side by side, lane `b` of
    /// every state word being block `counter + b`'s. Integer adds, xors and
    /// rotates only, so the words are the scalar block function's.
    #[target_feature(enable = "avx2,fma")]
    fn blocks8(key: &[u32; 8], counter: u64, out: &mut [u32; 128]) {
        let mut state = [_mm256_setzero_si256(); 16];
        for (s, &w) in state.iter_mut().zip(CHACHA_CONSTANTS.iter().chain(key)) {
            *s = _mm256_set1_epi32(w as i32);
        }
        let c: [u64; 8] = std::array::from_fn(|b| counter.wrapping_add(b as u64));
        state[12] = load_i32(&c.map(|c| c as i32));
        state[13] = load_i32(&c.map(|c| (c >> 32) as i32));
        let mut x = state;
        for _ in 0..6 {
            for q in [[0, 4, 8, 12], [1, 5, 9, 13], [2, 6, 10, 14], [3, 7, 11, 15]] {
                quarter(&mut x, q);
            }
            for q in [[0, 5, 10, 15], [1, 6, 11, 12], [2, 7, 8, 13], [3, 4, 9, 14]] {
                quarter(&mut x, q);
            }
        }
        for (xi, si) in x.iter_mut().zip(&state) {
            *xi = _mm256_add_epi32(*xi, *si);
        }
        // rows[2b + h]: words 8h..8h + 8 of block b.
        let mut rows = [[0i32; 8]; 16];
        for (h, words) in x.as_chunks::<8>().0.iter().enumerate() {
            for (b, v) in transpose(words).into_iter().enumerate() {
                store_i32(&mut rows[2 * b + h], v);
            }
        }
        for (o, &w) in out.iter_mut().zip(rows.as_flattened()) {
            *o = w as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::bodies;
    use proptest::prelude::*;

    /// What one step of an interleaving draws: `below` takes a `next_u64`,
    /// `uniform` a `next_u32`, the bulk calls `2·rows·cols` words (`Normal`
    /// on the body under test, `Xavier` through the public path).
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Below,
        Uniform,
        Normal(usize, usize),
        Xavier(usize, usize),
    }

    /// A step from `0..4 * 140 * 8`: its kind, then a `1..141 x 1..9` shape.
    fn step(code: usize) -> Step {
        let (rows, cols) = (1 + code / 4 % 140, 1 + code / 560);
        [
            Step::Below,
            Step::Uniform,
            Step::Normal(rows, cols),
            Step::Xavier(rows, cols),
        ][code % 4]
    }

    /// Runs `steps` on `rng` with the bulk path on `lanes`, and on `oracle`
    /// with a scalar `normal()` loop, asserting equal bits at every step.
    fn replay(rng: &mut SeededRng, oracle: &mut SeededRng, lanes: Lanes, steps: &[Step]) {
        for &s in steps {
            let (got, std) = match s {
                Step::Below => {
                    assert_eq!(rng.below(1 << 40), oracle.below(1 << 40));
                    continue;
                }
                Step::Uniform => {
                    assert_eq!(rng.uniform().to_bits(), oracle.uniform().to_bits());
                    continue;
                }
                Step::Normal(rows, cols) => {
                    let mut got = vec![0.0; rows * cols];
                    rng.fill_normal(lanes, &mut got, 0.02);
                    (got, 0.02)
                }
                Step::Xavier(rows, cols) => {
                    let got = rng.xavier(rows, cols).as_slice().to_vec();
                    (got, (2.0 / (rows + cols) as f32).sqrt())
                }
            };
            for (i, x) in got.iter().enumerate() {
                let want = oracle.normal() * std;
                assert_eq!(x.to_bits(), want.to_bits(), "{lanes:?} {s:?} at {i}");
            }
        }
        assert_eq!(rng.uniform().to_bits(), oracle.uniform().to_bits());
        assert_eq!(rng.below(1 << 40), oracle.below(1 << 40));
    }

    #[test]
    fn odd_shapes_match_the_scalar_loop() {
        for seed in 0..50 {
            for lanes in bodies() {
                let (mut rng, mut oracle) = (SeededRng::new(seed), SeededRng::new(seed));
                let steps = [
                    Step::Normal(1, 1),
                    Step::Xavier(3, 7),
                    Step::Uniform,
                    Step::Normal(129, 5),
                    Step::Below,
                    Step::Xavier(129, 5),
                ];
                replay(&mut rng, &mut oracle, lanes, &steps);
            }
        }
    }

    proptest! {
        /// The bulk Box–Muller on every body equals `normal() * std` drawn
        /// one at a time, bit for bit, interleaved with single draws of
        /// both widths, and leaves the generator where the loop does.
        #[test]
        fn normal_matrix_matches_scalar_loop_oracle(
            seed in 0u64..1 << 40,
            skip in 0usize..70,
            codes in proptest::collection::vec(0usize..4 * 140 * 8, 1..8),
        ) {
            let steps: Vec<Step> = codes.into_iter().map(step).collect();
            for lanes in bodies() {
                let (mut rng, mut oracle) = (SeededRng::new(seed), SeededRng::new(seed));
                for _ in 0..skip {
                    prop_assert_eq!(rng.uniform().to_bits(), oracle.uniform().to_bits());
                }
                replay(&mut rng, &mut oracle, lanes, &steps);
            }
        }
    }

    /// The lanes' eight-block keystream equals the generator's own refill,
    /// across the carry into the counter's high word and its wrap.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_keystream_matches_refill_oracle() {
        use rand::{Refill, WideBlocks};
        let Lanes::Avx2(token) = Lanes::host() else {
            return;
        };
        let mut rng = SeededRng::new(12);
        for counter in [0, 5, (1 << 32) - 4, (1 << 32) - 9, u64::MAX - 2] {
            let key: [u32; 8] = std::array::from_fn(|_| rng.below(1 << 32) as u32);
            let (mut lanes, mut refill) = ([0; 128], [0; 128]);
            token.blocks8(&key, counter, &mut lanes);
            Refill.blocks8(&key, counter, &mut refill);
            assert_eq!(lanes, refill, "counter {counter:#x}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_has_roughly_zero_mean_unit_var() {
        let mut rng = SeededRng::new(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn achlioptas_entry_distribution() {
        let mut rng = SeededRng::new(3);
        let p = rng.achlioptas_projection(100, 50);
        let scale = (3.0_f32 / 50.0).sqrt();
        let zeros = p.iter().filter(|&&x| x == 0.0).count();
        let pos = p.iter().filter(|&&x| (x - scale).abs() < 1e-6).count();
        let neg = p.iter().filter(|&&x| (x + scale).abs() < 1e-6).count();
        assert_eq!(zeros + pos + neg, p.len());
        let frac_zero = zeros as f32 / p.len() as f32;
        assert!(
            (frac_zero - 2.0 / 3.0).abs() < 0.05,
            "zero frac {frac_zero}"
        );
    }

    #[test]
    fn achlioptas_preserves_norms_in_expectation() {
        // JL-style property: ||x^T P||^2 ~ ||x||^2 on average.
        let mut rng = SeededRng::new(4);
        let d = 64;
        let k = 32;
        let mut ratio_sum = 0.0;
        let trials = 50;
        for _ in 0..trials {
            let p = rng.achlioptas_projection(d, k);
            let x = rng.normal_matrix(1, d, 1.0);
            let proj = x.matmul(&p).unwrap();
            let r = proj.frobenius_norm().powi(2) / x.frobenius_norm().powi(2);
            ratio_sum += r;
        }
        let avg = ratio_sum / trials as f32;
        assert!((avg - 1.0).abs() < 0.25, "norm ratio {avg}");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SeededRng::new(6);
        let idx = rng.sample_indices(100, 30);
        assert_eq!(idx.len(), 30);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SeededRng::new(8);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_n_panics() {
        let mut rng = SeededRng::new(9);
        let _ = rng.sample_indices(3, 5);
    }
}
