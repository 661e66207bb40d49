//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this crate provides the small subset of the rand 0.8 API the workspace
//! actually uses (`rngs::StdRng`, `SeedableRng::seed_from_u64`,
//! `Rng::gen::<f32>()`, `Rng::gen_range`) — **bit-compatible** with
//! upstream rand 0.8. `StdRng` is the same ChaCha12 generator (via the
//! same `rand_core` PCG-based `seed_from_u64` expansion and `BlockRng`
//! word-serving order), `gen::<f32>()` uses the same 24-bit multiply
//! conversion, and integer `gen_range` uses the same widening-multiply
//! rejection sampler. The recorded `results/*.json` were produced with
//! upstream rand; matching its streams exactly keeps every seeded
//! experiment reproducible against them.
//!
//! Beyond that API it serves seeded initialisation in bulk: the stream's
//! words straight into a slice ([`StdRng::fill_u32`]), the `f32`
//! conversion on its own ([`unit_f32`]), and a [`WideBlocks`] seam through
//! which a caller holding wider lanes computes the keystream eight blocks
//! at a time, this crate detecting no CPU feature of its own.

#![deny(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Re-exports of the concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    pub use crate::StdRng;
}

/// A generator seedable from a `u64`, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The low-level generator interface, mirroring `rand::RngCore`.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// High-level sampling helpers, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value of type `T` from its standard distribution
    /// (uniform in `[0, 1)` for floats, uniform over all values for
    /// integers and `bool`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Samples a `bool` that is `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        (self.next_u32() >> 11) as f64 / (1u64 << 21) as f64 > 1.0 - p
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable from the standard distribution via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one sample from `rng`.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        unit_f32(rng.next_u32())
    }
}

/// The `f32` that [`Rng::gen`] makes of one `u32` draw, for a caller that
/// drew its words in bulk ([`StdRng::fill_u32`]): rand 0.8's
/// multiply-based conversion, the top 24 bits giving an exact uniform grid
/// in `[0, 1)`.
#[inline]
pub fn unit_f32(word: u32) -> f32 {
    (word >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

impl Standard for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        // Sign test on one u32 draw, as in rand 0.8.
        (rng.next_u32() as i32) < 0
    }
}

macro_rules! int_standard_32 {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u32() as $t
            }
        }
    )*};
}
int_standard_32!(u8, u16, u32, i8, i16, i32);

macro_rules! int_standard_64 {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_standard_64!(u64, usize, i64, isize);

/// Ranges samplable via [`Rng::gen_range`].
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one sample from `rng`.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

// rand 0.8's `UniformInt::sample_single_inclusive`: widening multiply of
// one unsigned draw by the range, rejecting the biased low zone. Types up
// to 32 bits sample from `next_u32`; 64-bit types from `next_u64`.
macro_rules! int_range {
    ($($t:ty => $unsigned:ty, $next:ident, $wide:ty);* $(;)?) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                sample_inclusive_from(self.start, self.end - 1, rng)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                sample_inclusive_from(lo, hi, rng)
            }
        }
        impl SampleInclusive for $t {
            fn sample_inclusive<R: RngCore>(low: $t, high: $t, rng: &mut R) -> $t {
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned;
                if range == 0 {
                    // The full type range: every draw is acceptable.
                    return rng.$next() as $t;
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.$next() as $unsigned;
                    let m = (v as $wide) * (range as $wide);
                    let hi_part = (m >> (<$unsigned>::BITS)) as $unsigned;
                    let lo_part = m as $unsigned;
                    if lo_part <= zone {
                        return low.wrapping_add(hi_part as $t);
                    }
                }
            }
        }
    )*};
}

trait SampleInclusive: Sized {
    fn sample_inclusive<R: RngCore>(low: Self, high: Self, rng: &mut R) -> Self;
}

fn sample_inclusive_from<T: SampleInclusive, R: RngCore>(low: T, high: T, rng: &mut R) -> T {
    T::sample_inclusive(low, high, rng)
}

int_range! {
    u8 => u32, next_u32, u64;
    u16 => u32, next_u32, u64;
    u32 => u32, next_u32, u64;
    i8 => u32, next_u32, u64;
    i16 => u32, next_u32, u64;
    i32 => u32, next_u32, u64;
    u64 => u64, next_u64, u128;
    i64 => u64, next_u64, u128;
    usize => u64, next_u64, u128;
    isize => u64, next_u64, u128;
}

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let u: $t = Standard::sample_standard(rng);
                u * (self.end - self.start) + self.start
            }
        }
    )*};
}
float_range!(f32, f64);

const CHACHA_WORDS: usize = 64; // four 16-word blocks per refill

/// rand 0.8's `StdRng`: the ChaCha12 generator, reproduced bit-for-bit.
///
/// The buffer holds four ChaCha blocks (rand_chacha generates 256 bytes at
/// a time) and words are served in `rand_core::BlockRng` order — including
/// its behaviour when a `next_u64` straddles the refill boundary — so
/// mixed `next_u32`/`next_u64` call sequences match upstream exactly.
#[derive(Debug, Clone)]
pub struct StdRng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; CHACHA_WORDS],
    index: usize,
}

impl StdRng {
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        Self {
            key,
            counter: 0,
            buf: [0; CHACHA_WORDS],
            index: CHACHA_WORDS, // force a refill on first use
        }
    }

    /// The next `dst.len()` words of the stream, in order: what as many
    /// [`RngCore::next_u32`] calls return, leaving the generator to serve
    /// the words they would next (not part of rand's API). Whole 64-word
    /// buffers go straight into `dst`; with a `wide` body, everything past
    /// the buffered words is computed eight blocks at a time, the last
    /// eight through a local array whose group holding the final word
    /// becomes the buffer.
    pub fn fill_u32(&mut self, dst: &mut [u32], wide: Option<&dyn WideBlocks>) {
        let served = (CHACHA_WORDS - self.index).min(dst.len());
        let (head, rest) = dst.split_at_mut(served);
        head.copy_from_slice(&self.buf[self.index..][..served]);
        self.index += served;
        if let Some(wide) = wide {
            let (pairs, tail) = rest.as_chunks_mut::<{ 2 * CHACHA_WORDS }>();
            for words in pairs {
                wide.blocks8(&self.key, self.counter, words);
                self.counter = self.counter.wrapping_add(8);
            }
            if let Some(last) = tail.len().checked_sub(1) {
                let mut words = [0; 2 * CHACHA_WORDS];
                wide.blocks8(&self.key, self.counter, &mut words);
                tail.copy_from_slice(&words[..tail.len()]);
                let group = last / CHACHA_WORDS;
                self.buf
                    .copy_from_slice(&words[group * CHACHA_WORDS..][..CHACHA_WORDS]);
                self.index = tail.len() - group * CHACHA_WORDS;
                self.counter = self.counter.wrapping_add(4 * (group as u64 + 1));
            }
            return;
        }
        let (whole, tail) = rest.as_chunks_mut::<CHACHA_WORDS>();
        for words in whole {
            chacha12_blocks(&self.key, self.counter, words);
            self.counter = self.counter.wrapping_add(4);
        }
        if !tail.is_empty() {
            self.refill(tail.len());
            tail.copy_from_slice(&self.buf[..tail.len()]);
        }
    }

    /// One call per 64 words served: out of line, so that a draw inlines to
    /// a buffer read behind an index test.
    #[cold]
    fn refill(&mut self, offset: usize) {
        chacha12_blocks(&self.key, self.counter, &mut self.buf);
        self.counter = self.counter.wrapping_add(4);
        self.index = offset;
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(mut state: u64) -> Self {
        // rand_core's default expansion: a PCG32 stream fills the seed.
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        Self::from_seed(seed)
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= CHACHA_WORDS {
            self.refill(0);
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < CHACHA_WORDS - 1 {
            self.index += 2;
            (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
        } else if index >= CHACHA_WORDS {
            self.refill(2);
            (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
        } else {
            // One word left: it becomes the low half, the first word of the
            // next buffer the high half (BlockRng's boundary behaviour).
            let x = u64::from(self.buf[CHACHA_WORDS - 1]);
            self.refill(1);
            (u64::from(self.buf[0]) << 32) | x
        }
    }
}

/// The four consecutive ChaCha12 blocks `counter..counter + 4` (wrapping),
/// block `b` in `out[16 * b..16 * (b + 1)]`.
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
fn chacha12_blocks(key: &[u32; 8], counter: u64, out: &mut [u32; CHACHA_WORDS]) {
    for (b, words) in out.chunks_exact_mut(16).enumerate() {
        words.copy_from_slice(&chacha12_block(key, counter.wrapping_add(b as u64)));
    }
}

/// The four consecutive ChaCha12 blocks `counter..counter + 4` (wrapping),
/// block `b` in `out[16 * b..16 * (b + 1)]`: the four computed side by side,
/// lane `b` of every state word being block `counter + b`'s. Integer adds,
/// xors and rotates only, so the words are [`chacha12_block`]'s.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn chacha12_blocks(key: &[u32; 8], counter: u64, out: &mut [u32; CHACHA_WORDS]) {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32, _mm_setzero_si128,
        _mm_slli_epi32, _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32, _mm_unpackhi_epi64,
        _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    macro_rules! xor_rotl {
        ($a:expr, $b:expr, $n:literal) => {{
            let v = _mm_xor_si128($a, $b);
            _mm_or_si128(_mm_slli_epi32::<$n>(v), _mm_srli_epi32::<{ 32 - $n }>(v))
        }};
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter(x: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = xor_rotl!(x[d], x[a], 16);
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = xor_rotl!(x[b], x[c], 12);
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = xor_rotl!(x[d], x[a], 8);
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = xor_rotl!(x[b], x[c], 7);
    }

    #[target_feature(enable = "sse2")]
    fn blocks(key: &[u32; 8], counter: u64, out: &mut [u32; CHACHA_WORDS]) {
        let mut state = [_mm_setzero_si128(); 16];
        for (s, w) in state.iter_mut().zip(CHACHA_CONSTANTS.iter().chain(key)) {
            *s = _mm_set1_epi32(*w as i32);
        }
        let c: [u64; 4] = std::array::from_fn(|b| counter.wrapping_add(b as u64));
        let lanes = |w: [u64; 4]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
        state[12] = lanes(c);
        state[13] = lanes(c.map(|c| c >> 32));
        let mut x = state;
        for _ in 0..6 {
            quarter(&mut x, 0, 4, 8, 12);
            quarter(&mut x, 1, 5, 9, 13);
            quarter(&mut x, 2, 6, 10, 14);
            quarter(&mut x, 3, 7, 11, 15);
            quarter(&mut x, 0, 5, 10, 15);
            quarter(&mut x, 1, 6, 11, 12);
            quarter(&mut x, 2, 7, 8, 13);
            quarter(&mut x, 3, 4, 9, 14);
        }
        for i in (0..16).step_by(4) {
            // Transpose words `i..i + 4` from one vector per word (a lane
            // per block) to one vector per block.
            let row: [__m128i; 4] = std::array::from_fn(|j| _mm_add_epi32(x[i + j], state[i + j]));
            let (lo01, hi01) = (
                _mm_unpacklo_epi32(row[0], row[1]),
                _mm_unpackhi_epi32(row[0], row[1]),
            );
            let (lo23, hi23) = (
                _mm_unpacklo_epi32(row[2], row[3]),
                _mm_unpackhi_epi32(row[2], row[3]),
            );
            let per_block = [
                _mm_unpacklo_epi64(lo01, lo23),
                _mm_unpackhi_epi64(lo01, lo23),
                _mm_unpacklo_epi64(hi01, hi23),
                _mm_unpackhi_epi64(hi01, hi23),
            ];
            for (b, words) in per_block.into_iter().enumerate() {
                let dst = &mut out[16 * b + i..16 * b + i + 4];
                // SAFETY: `dst` is four `u32`s (the slice above is bounds
                // checked), exactly the 16 bytes the unaligned store writes.
                unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), words) };
            }
        }
    }

    // SAFETY: `blocks` needs SSE2, and this function is compiled only when
    // SSE2 is enabled for the whole build (the `cfg` above): any CPU the
    // binary may run on has it.
    unsafe { blocks(key, counter, out) }
}

/// The first four words of every ChaCha block ("expand 32-byte k").
pub const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A keystream body eight blocks wide, for a caller holding lanes this
/// crate does not detect on its own (not part of rand's API): see
/// [`StdRng::fill_u32`].
pub trait WideBlocks {
    /// The eight consecutive ChaCha12 blocks `counter..counter + 8`
    /// (wrapping) of `key`, block `b` in `out[16 * b..16 * (b + 1)]`: the
    /// words the generator's own refill computes four at a time.
    fn blocks8(&self, key: &[u32; 8], counter: u64, out: &mut [u32; 128]);
}

/// The generator's own refill as a [`WideBlocks`] body, four blocks at a
/// time: the oracle a lane body is held to.
#[derive(Debug, Clone, Copy)]
pub struct Refill;

impl WideBlocks for Refill {
    fn blocks8(&self, key: &[u32; 8], counter: u64, out: &mut [u32; 128]) {
        let (low, high) = out.split_at_mut(CHACHA_WORDS);
        chacha12_blocks(key, counter, low.try_into().expect("64 words"));
        let high = high.try_into().expect("64 words");
        chacha12_blocks(key, counter.wrapping_add(4), high);
    }
}

/// One ChaCha block with 12 rounds, 64-bit counter, zero nonce/stream: the
/// portable refill, and the lanes' oracle.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
fn chacha12_block(key: &[u32; 8], counter: u64) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CHACHA_CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    let mut x = state;
    for _ in 0..6 {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (xi, si) in x.iter_mut().zip(&state) {
        *xi = xi.wrapping_add(*si);
    }
    x
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
#[inline]
fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chacha20_reference_block() {
        // RFC 7539 §2.3.2 test vector adapted to 12 rounds is not published,
        // so pin the keystream structure instead: the 20-round variant of
        // the same block function must reproduce the RFC's first block.
        fn chacha_block_n(key: &[u32; 8], counter: u64, nonce: [u32; 2], dr: usize) -> [u32; 16] {
            let mut state = [0u32; 16];
            state[0] = 0x6170_7865;
            state[1] = 0x3320_646e;
            state[2] = 0x7962_2d32;
            state[3] = 0x6b20_6574;
            state[4..12].copy_from_slice(key);
            state[12] = counter as u32;
            state[13] = nonce[0];
            state[14] = nonce[1];
            state[15] = 0;
            let mut x = state;
            for _ in 0..dr {
                quarter(&mut x, 0, 4, 8, 12);
                quarter(&mut x, 1, 5, 9, 13);
                quarter(&mut x, 2, 6, 10, 14);
                quarter(&mut x, 3, 7, 11, 15);
                quarter(&mut x, 0, 5, 10, 15);
                quarter(&mut x, 1, 6, 11, 12);
                quarter(&mut x, 2, 7, 8, 13);
                quarter(&mut x, 3, 4, 9, 14);
            }
            for (xi, si) in x.iter_mut().zip(&state) {
                *xi = xi.wrapping_add(*si);
            }
            x
        }
        // RFC 7539 §2.3.2: key 00 01 .. 1f, counter 1, nonce 00:00:00:09:00:00:00:4a:00:00:00:00
        let key = [
            0x03020100, 0x07060504, 0x0b0a0908, 0x0f0e0d0c, 0x13121110, 0x17161514, 0x1b1a1918,
            0x1f1e1d1c,
        ];
        // RFC state layout puts the 32-bit counter in word 12 and the
        // 96-bit nonce in words 13..16; our helper models words 13,14 and
        // leaves 15 zero, matching the vector's trailing zero word... the
        // RFC nonce is 00000009 0000004a 00000000 big-endian bytes.
        let out = chacha_block_n(&key, 1, [0x0900_0000, 0x4a00_0000], 10);
        assert_eq!(out[0], 0xe4e7f110);
        assert_eq!(out[1], 0x15593bd1);
        assert_eq!(out[15], 0x4e3c50a2);
    }

    #[test]
    fn refill_blocks_match_scalar_block_oracle() {
        let key = StdRng::seed_from_u64(11).key;
        let carry = (1u64 << 32) - 3; // ..= 2^32: the carry into word 13
        for counter in [0, 1, carry, carry + 1, carry + 2, carry + 3, u64::MAX - 1] {
            let mut out = [0u32; CHACHA_WORDS];
            chacha12_blocks(&key, counter, &mut out);
            for (b, words) in out.chunks_exact(16).enumerate() {
                let block = chacha12_block(&key, counter.wrapping_add(b as u64));
                assert_eq!(words, &block[..], "block {b} from counter {counter:#x}");
            }
        }
    }

    /// The keystream as one flat word sequence off the scalar block
    /// function: what `BlockRng` serves, with no buffer to refill. A `u64`
    /// is two consecutive words, low half first, wherever they fall.
    struct FlatStream {
        key: [u32; 8],
        cursor: u64,
    }

    impl RngCore for FlatStream {
        fn next_u32(&mut self) -> u32 {
            let word = chacha12_block(&self.key, self.cursor / 16)[(self.cursor % 16) as usize];
            self.cursor += 1;
            word
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            u64::from(self.next_u32()) << 32 | lo
        }
    }

    #[test]
    fn mixed_draws_match_flat_stream_oracle() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut flat = FlatStream {
            key: rng.key,
            cursor: 0,
        };
        // One word left in the buffer, then a `u64`: the boundary case.
        for _ in 0..CHACHA_WORDS - 1 {
            assert_eq!(rng.next_u32(), flat.next_u32());
        }
        assert_eq!(rng.index, CHACHA_WORDS - 1);
        assert_eq!(rng.next_u64(), flat.next_u64());
        let mut straddles = 0;
        for draw in 0..10_000u32 {
            let kind = draw.wrapping_mul(2_654_435_761) >> 29;
            // Kinds 3.. draw `u64`s.
            straddles += u32::from(kind >= 3 && rng.index == CHACHA_WORDS - 1);
            match kind {
                0..=1 => assert_eq!(rng.next_u32(), flat.next_u32()),
                2 => assert_eq!(rng.gen_range(-5i32..=5), flat.gen_range(-5i32..=5)),
                3..=4 => assert_eq!(rng.next_u64(), flat.next_u64()),
                5 => assert_eq!(rng.gen_range(0..4096usize), flat.gen_range(0..4096usize)),
                _ => assert_eq!(rng.gen_range(0..17usize), flat.gen_range(0..17usize)),
            }
        }
        assert!(
            straddles > 20,
            "only {straddles} u64 draws began on the last word"
        );
    }

    /// `fill_u32` (plain, and through the [`Refill`] wide body) against
    /// `next_u32` from every kind of start — fresh, mid-buffer, one word
    /// left, just after a `next_u64` that straddled a refill — over lengths
    /// across one and two refills; then the next mixed draws agree.
    #[test]
    fn fill_u32_matches_next_u32_stream() {
        let wides: [Option<&dyn WideBlocks>; 2] = [None, Some(&Refill)];
        for (case, len) in [0, 1, 5, 63, 64, 65, 127, 128, 129, 191, 200, 300]
            .into_iter()
            .enumerate()
        {
            // Words to draw first, then whether a `next_u64` follows.
            let last = CHACHA_WORDS - 1;
            let starts = [
                (0, false),
                (1, false),
                (37, false),
                (last, false),
                (last, true),
            ];
            for (start, (words, straddle)) in starts.into_iter().enumerate() {
                for wide in wides {
                    let mut rng = StdRng::seed_from_u64(case as u64);
                    for _ in 0..words {
                        rng.next_u32();
                    }
                    if straddle {
                        rng.next_u64();
                    }
                    let mut oracle = rng.clone();
                    let mut got = vec![0; len];
                    rng.fill_u32(&mut got, wide);
                    let want: Vec<u32> = (0..len).map(|_| oracle.next_u32()).collect();
                    assert_eq!(got, want, "len {len} start {start}");
                    for draw in 0..150u32 {
                        if draw % 3 == 0 {
                            assert_eq!(rng.next_u32(), oracle.next_u32());
                        } else {
                            assert_eq!(rng.next_u64(), oracle.next_u64(), "len {len} at {draw}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f32 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f32_mean_near_half() {
        let mut r = StdRng::seed_from_u64(9);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.gen::<f32>() as f64).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = r.gen_range(0..17usize);
            assert!(x < 17);
            let y = r.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&y));
            let z = r.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&z));
        }
    }

    #[test]
    fn gen_range_covers_values() {
        let mut r = StdRng::seed_from_u64(4);
        let mut seen = [false; 8];
        for _ in 0..256 {
            seen[r.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
