//! One lane layer: which body a kernel runs, and the memory operations its
//! lane bodies need.
//!
//! Every kernel with lanes — GEMM tiles, `tanh`/GELU, `exp`/softmax, the
//! attention row, top-k selection, `dota-quant`'s integer products — comes
//! as a plain-Rust body, which every host runs and which is the lanes'
//! oracle, and a safe `#[target_feature(enable = "avx2,fma")] fn` with the
//! same bits. Which one runs is one value, [`Lanes`], decided once per
//! public entry ([`Lanes::active`]) and handed down to every row it serves.
//! AVX2 and FMA make one token, not two, because the `exp` lanes need both
//! and the AVX2 cores without FMA are rare (they run the plain bodies).
//! Other hosts, aarch64 included, run the plain bodies.
//!
//! The token also carries whether the host runs AVX-512F. Two GEMM
//! kernels use it (`simd`): the packed register tiles, and the one-row
//! pass of the row tile, which run on sixteen lanes there and on eight
//! elsewhere, with the same bits. Every other kernel runs its eight lanes
//! on either host.
//!
//! The decision is `DOTA_GEMM` ∈ {`auto`, `scalar`, `simd`}, read once per
//! process by one parser ([`parse_family`]): `scalar` is [`Lanes::Plain`],
//! `simd` the host's lanes, `auto` whichever the host has. A malformed
//! value, or `simd` on a host without the lanes, falls back to `auto` in
//! [`Lanes::active`], while front ends reject both up front. An in-process
//! choice is a scoped value on the calling thread, [`with_lanes`].
//!
//! Inside a `#[target_feature]` fn the value-only `std::arch` intrinsics
//! are safe; touching memory through a raw pointer is not. The loads, the
//! stores and the `exp` table gather below are the only such operations
//! the kernels perform, each wrapped here once over an array reference
//! whose type is the invariant: exactly the lanes it moves exist. (The
//! sixteen-lane tile moves its registers as two of these eight-lane
//! halves.) The one exception is [`KeyRows`], the attention kernel's
//! transposed read of eight key rows, whose windows are checked once when
//! it is built rather than at every read. So `unsafe` appears in these
//! wrappers and in the one token-bound call by which each kernel entry
//! enters its lanes.

use std::cell::Cell;
use std::sync::OnceLock;

/// Name of the environment variable selecting the lanes.
pub const GEMM_ENV: &str = "DOTA_GEMM";

/// Which body a lane kernel runs: the one kernel decision. Copy it down to
/// every row of a call rather than looking it up per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes {
    /// Plain Rust: `DOTA_GEMM=scalar`, every host without the lanes, and
    /// the oracle each lane kernel is held to.
    Plain,
    /// Eight AVX2+FMA lanes (sixteen in the packed GEMM tiles and the
    /// one-row GEMM pass where the token says AVX-512F).
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
}

/// Proof that this host runs AVX2 and FMA: built only by [`Lanes::host`],
/// after detecting both, so an entry holding one may call its
/// `#[target_feature(enable = "avx2,fma")]` body. It also records whether
/// the host runs AVX-512F, which `Avx2::avx512f` answers.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx2 {
    avx512f: bool,
}

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// Whether this host runs AVX-512F too, so an entry holding the token
    /// may call a `#[target_feature(enable = "avx512f")]` body.
    pub(crate) fn avx512f(self) -> bool {
        self.avx512f
    }
}

impl Lanes {
    /// The lanes this host runs, whatever `DOTA_GEMM` says: [`Lanes::Avx2`]
    /// on an x86-64 host with AVX2 and FMA, [`Lanes::Plain`] everywhere
    /// else. What `auto` selects.
    pub fn host() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            let avx512f = std::arch::is_x86_feature_detected!("avx512f");
            return Lanes::Avx2(Avx2 { avx512f });
        }
        Lanes::Plain
    }

    /// These lanes without AVX-512F: what an AVX2-only host runs, for
    /// holding the eight-lane tiles to the sixteen-lane ones (and the
    /// reference) on a host that has both.
    #[cfg(test)]
    pub(crate) fn narrow(self) -> Self {
        match self {
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2(_) => Lanes::Avx2(Avx2 { avx512f: false }),
            plain => plain,
        }
    }

    /// The lanes a kernel started on this thread runs: the innermost
    /// [`with_lanes`] scope's, else `DOTA_GEMM` (default `auto`) read once
    /// per process through [`parse_family`], silently `auto` where that is
    /// an error. A GEMM resolves it on the dispatching thread and hands it
    /// to its pool panels; a kernel started by a `dota_parallel::par_map`
    /// worker (the per-head attention fan-out) runs under the process
    /// setting. The decode forward reads it once and passes it to every
    /// product through [`crate::Matrix::gemm_into`].
    pub fn active() -> Self {
        static PROCESS: OnceLock<Lanes> = OnceLock::new();
        SCOPED.with(Cell::get).unwrap_or_else(|| {
            *PROCESS.get_or_init(|| {
                parse_family(&std::env::var(GEMM_ENV).unwrap_or_default())
                    .unwrap_or_else(|_| Lanes::host())
            })
        })
    }

    /// The `DOTA_GEMM` spelling of these lanes, `scalar` or `simd`: the one
    /// [`parse_family`] maps back to them, and the kernel provenance of run
    /// manifests and the benchmark.
    pub fn name(self) -> &'static str {
        match self {
            Lanes::Plain => "scalar",
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2(_) => "simd",
        }
    }
}

thread_local! {
    /// The lanes of the innermost [`with_lanes`] scope on this thread.
    static SCOPED: Cell<Option<Lanes>> = const { Cell::new(None) };
}

/// Runs `body` with kernels started on the calling thread on `lanes`, then
/// restores the previous choice — also when `body` panics. Scopes nest;
/// other threads, including threads `body` spawns itself, keep the process
/// setting.
pub fn with_lanes<R>(lanes: Lanes, body: impl FnOnce() -> R) -> R {
    struct Restore(Option<Lanes>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCOPED.with(|s| s.replace(Some(lanes))));
    body()
}

/// The lanes `DOTA_GEMM=value` selects on this host: the one parser of the
/// variable, behind [`Lanes::active`] and the front ends' up-front
/// validation, which reports what this returns instead of falling back — a
/// typo'd value would invalidate a benchmark.
///
/// # Errors
///
/// A description of the bad value when it is not one of
/// `auto`/`scalar`/`simd` (in any case, blanks around it ignored), or is
/// `simd` on a host without the lanes.
pub fn parse_family(value: &str) -> Result<Lanes, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "auto" => Ok(Lanes::host()),
        "scalar" => Ok(Lanes::Plain),
        "simd" if Lanes::host() == Lanes::Plain => Err(format!(
            "{GEMM_ENV}={value} requires SIMD lanes this CPU does not report \
             (detected: {})",
            crate::simd::cpu_features().join("+")
        )),
        "simd" => Ok(Lanes::host()),
        _ => Err(format!(
            "{GEMM_ENV} must be one of auto|scalar|simd, got `{value}`"
        )),
    }
}

#[cfg(target_arch = "x86_64")]
pub use avx2::*;

// Each wrapper's one precondition is its target features: a lane kernel
// calls it safely, and any other caller only under an `Avx2` token.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)]
mod avx2 {
    use std::arch::x86_64::*;
    use std::marker::PhantomData;

    /// Eight floats into a register.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn load(src: &[f32; 8]) -> __m256 {
        // SAFETY: `src` is eight readable floats; `loadu` takes any alignment.
        unsafe { _mm256_loadu_ps(src.as_ptr()) }
    }

    /// A register into eight floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn store(dst: &mut [f32; 8], v: __m256) {
        // SAFETY: `dst` is eight writable floats; `storeu` takes any alignment.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
    }

    /// Eight `i32`s into a register.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn load_i32(src: &[i32; 8]) -> __m256i {
        // SAFETY: `src` is 32 readable bytes; `loadu` takes any alignment.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    /// A register into eight `i32`s.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn store_i32(dst: &mut [i32; 8], v: __m256i) {
        // SAFETY: `dst` is 32 writable bytes; `storeu` takes any alignment.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    /// Sixteen `i8`s into a half register.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn load_i8(src: &[i8; 16]) -> __m128i {
        // SAFETY: `src` is 16 readable bytes; `loadu` takes any alignment.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    /// `table[i & 31]` for each of the four 64-bit lanes `i` of `index`:
    /// the mask keeps every read inside the table, whatever `index` holds.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn gather(table: &[u64; 32], index: __m256i) -> __m256i {
        let index = _mm256_and_si256(index, _mm256_set1_epi64x(31));
        // SAFETY: every index is in 0..32, the table's length; scale 8 is
        // the size of its entries.
        unsafe { _mm256_i64gather_epi64::<8>(table.as_ptr().cast(), index) }
    }

    /// Windows of eight rows of one row-major matrix, read four columns at
    /// a time and transposed: the attention row kernel's eight keys.
    pub struct KeyRows<'a> {
        /// Each points at `len` readable floats of the borrowed matrix.
        rows: [*const f32; 8],
        len: usize,
        matrix: PhantomData<&'a [f32]>,
    }

    impl<'a> KeyRows<'a> {
        /// Columns `c0..c0 + len` of the rows `rows` of `data`, `stride`
        /// floats per row.
        ///
        /// # Panics
        ///
        /// If a window leaves `data`.
        #[inline]
        pub fn new(data: &'a [f32], stride: usize, c0: usize, len: usize, rows: &[u32; 8]) -> Self {
            let data = &data[c0..];
            let last = data.len().checked_sub(len).expect("window past the matrix");
            // One compare per row (a loop: `array::map` does not inline here).
            let mut windows = [data.as_ptr(); 8];
            for (window, &r) in windows.iter_mut().zip(rows) {
                let start = r as usize * stride;
                assert!(start <= last, "row {r} past the matrix");
                *window = data.as_ptr().wrapping_add(start);
            }
            let (rows, matrix) = (windows, PhantomData);
            Self { rows, len, matrix }
        }

        /// Columns `4c..4c + 4` of the eight windows, transposed: element
        /// `j` holds column `4c + j`, lane `i` of it row `i`.
        ///
        /// # Panics
        ///
        /// If the block leaves the windows.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub fn columns(&self, c: usize) -> [__m256; 4] {
            assert!(c < self.len / 4, "column block {c} past the window");
            // SAFETY: every row points at `len >= 4c + 4` floats of the
            // matrix `new` borrowed; `loadu` takes any alignment.
            let load = |i: usize| unsafe { _mm_loadu_ps(self.rows[i].add(4 * c)) };
            // Rows i and i + 4 share a register, one per 128-bit half, so
            // the 4x4 transposes below never cross a half.
            let pair =
                |i: usize| _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(load(i)), load(i + 4));
            let (r0, r1, r2, r3) = (pair(0), pair(1), pair(2), pair(3));
            // Even/odd picks (0x88, 0xDD) at both stages rather than the
            // textbook unpack + movlh/movhl: those have no `unpck` spelling,
            // so they stay `vshufps`, which recent Intel cores issue on two
            // ports where `vunpck*` has one.
            let even01 = _mm256_shuffle_ps::<0x88>(r0, r1); // r0[0] r0[2] r1[0] r1[2]
            let odd01 = _mm256_shuffle_ps::<0xDD>(r0, r1); // r0[1] r0[3] r1[1] r1[3]
            let even23 = _mm256_shuffle_ps::<0x88>(r2, r3);
            let odd23 = _mm256_shuffle_ps::<0xDD>(r2, r3);
            [
                _mm256_shuffle_ps::<0x88>(even01, even23), // column 0 of r0 r1 r2 r3
                _mm256_shuffle_ps::<0x88>(odd01, odd23),   // column 1
                _mm256_shuffle_ps::<0xDD>(even01, even23), // column 2
                _mm256_shuffle_ps::<0xDD>(odd01, odd23),   // column 3
            ]
        }
    }
}

/// Every body of a lane kernel this host can run right now: the plain one,
/// then the active lanes if they are not plain.
#[cfg(test)]
pub(crate) fn bodies() -> Vec<Lanes> {
    let mut bodies = vec![Lanes::Plain];
    if Lanes::active() != Lanes::Plain {
        bodies.push(Lanes::active());
    }
    bodies
}

/// Bitwise equal, any NaN equal to any NaN.
#[cfg(test)]
pub(crate) fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// An element-wise kernel and the scalar function it computes.
#[cfg(test)]
type Kernel = fn(Lanes, &mut [f32]);
#[cfg(test)]
type Port = fn(f32) -> f32;

/// `kernel` on the active lanes equals `port` on every input of `bits`, and
/// `port` equals `host` (the host libm's function) where one is given.
#[cfg(test)]
pub(crate) fn assert_lanes_port_host_agree(
    bits: &[u32],
    kernel: Kernel,
    port: Port,
    host: Option<Port>,
) {
    let mut lanes: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
    kernel(Lanes::active(), &mut lanes);
    for (&b, &got) in bits.iter().zip(&lanes) {
        let (x, want) = (f32::from_bits(b), port(f32::from_bits(b)));
        assert!(
            same(got, want),
            "lanes {got:e} != port {want:e} at {b:#010x}"
        );
        if let Some(host) = host {
            assert!(
                same(want, host(x)),
                "port {want:e} != host {:e} at {b:#010x}",
                host(x)
            );
        }
    }
}

/// `kernel` on every body this host runs equals `port` element by element
/// on each window `offset..offset + len` of `base` (`len <= 17`, `offset <
/// 4`: every tail length at every misalignment), and writes nothing
/// outside it.
#[cfg(test)]
pub(crate) fn assert_windows_match_port(base: &[f32], kernel: Kernel, port: Port) {
    for lanes in bodies() {
        for len in 0..=17 {
            for offset in 0..4 {
                let mut buf = base.to_vec();
                kernel(lanes, &mut buf[offset..offset + len]);
                for (i, (&x, &y)) in base.iter().zip(&buf).enumerate() {
                    let inside = (offset..offset + len).contains(&i);
                    let want = if inside { port(x) } else { x };
                    assert!(same(y, want), "{lanes:?} len {len} offset {offset} at {i}");
                }
            }
        }
    }
}

/// All 2³² inputs through `kernel` on the active lanes, eight consecutive
/// bit patterns per group, against `port`: prints and returns the number
/// of mismatches (noting when the active lanes are the plain body).
#[cfg(test)]
pub(crate) fn exhaustive_mismatches(what: &str, kernel: Kernel, port: Port) -> u64 {
    let lanes = Lanes::active();
    if lanes == Lanes::Plain {
        eprintln!("note: no AVX2+FMA lanes active; compared the port loop with itself");
    }
    let mut buf = vec![0.0f32; 1 << 16];
    let mut mismatches = 0u64;
    for base in (0..1u64 << 32).step_by(buf.len()) {
        let input = |i: usize| f32::from_bits((base + i as u64) as u32);
        buf.iter_mut().enumerate().for_each(|(i, x)| *x = input(i));
        kernel(lanes, &mut buf);
        let wrong = buf
            .iter()
            .enumerate()
            .filter(|&(i, &got)| !same(got, port(input(i))));
        mismatches += wrong.count() as u64;
    }
    println!("{what} lanes vs port: {mismatches} mismatches over 2^32 inputs");
    mismatches
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::arch::x86_64::*;

    /// Every wrapper once: `f[13..21]` gets `f[3..11]`, and `i` the
    /// `i32`s of `ints[1..]`, then `bytes` widened, then the four gathered
    /// entries of `0..32` as `(low, high)` halves.
    #[target_feature(enable = "avx2,fma")]
    fn round_trips(f: &mut [f32; 24], i: &mut [[i32; 8]; 4], ints: &[i32; 9], bytes: &[i8; 16]) {
        let v = load(f[3..11].try_into().unwrap());
        store((&mut f[13..21]).try_into().unwrap(), v);
        store_i32(&mut i[0], load_i32(ints[1..].try_into().unwrap()));
        let b = load_i8(bytes);
        store_i32(&mut i[1], _mm256_cvtepi8_epi32(b));
        store_i32(&mut i[2], _mm256_cvtepi8_epi32(_mm_srli_si128::<8>(b)));
        let index = _mm256_setr_epi64x(31, 32, -1, i64::MIN + 3);
        store_i32(&mut i[3], gather(&std::array::from_fn(|t| t as u64), index));
    }

    /// Each wrapper moves exactly the lanes of the array it was handed, in
    /// order, and nothing beside them; the gather reads `table[i & 31]`
    /// for any index.
    #[test]
    fn wrappers_move_exactly_their_lanes() {
        if Lanes::host() == Lanes::Plain {
            return;
        }
        let mut f: [f32; 24] = std::array::from_fn(|k| k as f32);
        let mut i = [[0; 8]; 4];
        let ints: [i32; 9] = std::array::from_fn(|k| 100 + k as i32);
        let bytes: [i8; 16] = std::array::from_fn(|k| k as i8 * 8 - 60);
        // SAFETY: `Lanes::host` found AVX2 and FMA.
        unsafe { round_trips(&mut f, &mut i, &ints, &bytes) };
        let floats = (0..13).chain(3..11).chain(21..24).map(|k| k as f32);
        assert!(f.into_iter().eq(floats));
        assert_eq!(i[0][..], ints[1..]);
        assert_eq!(i[1..3].as_flattened(), bytes.map(i32::from));
        assert_eq!(i[3], [31, 0, 0, 0, 31, 0, 3, 0]);
    }

    /// Blocks 0 and 1 of the nine-float windows at column 2 of `rows`,
    /// each against the transposed columns of `data`, then block 2, which
    /// leaves the windows.
    #[target_feature(enable = "avx2,fma")]
    fn key_blocks(data: &[f32], rows: &[u32; 8]) {
        let keys = KeyRows::new(data, 11, 2, 9, rows);
        for c in 0..3 {
            for (j, column) in keys.columns(c).into_iter().enumerate() {
                let mut got = [0.0; 8];
                store(&mut got, column);
                assert_eq!(got, rows.map(|r| data[r as usize * 11 + 2 + 4 * c + j]));
            }
        }
    }

    /// `KeyRows` transposes the four-column blocks of its windows and
    /// refuses a row past the matrix and a block past the window.
    #[test]
    fn key_rows_transpose_their_windows_and_stop_at_the_edge() {
        if Lanes::host() == Lanes::Plain {
            return;
        }
        let data: Vec<f32> = (0..5 * 11).map(|k| k as f32).collect();
        let rows = [4, 0, 3, 1, 2, 4, 0, 1];
        // SAFETY: `Lanes::host` found AVX2 and FMA.
        let edge = std::panic::catch_unwind(|| unsafe { key_blocks(&data, &rows) });
        let message = edge.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("block 2 past the window"), "{message}");
        let past_the_matrix = [0, 0, 0, 0, 0, 0, 0, 5];
        assert!(
            std::panic::catch_unwind(|| KeyRows::new(&data, 11, 2, 9, &past_the_matrix)).is_err()
        );
    }
}
