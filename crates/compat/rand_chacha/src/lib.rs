//! Offline stand-in for `rand_chacha`: [`ChaCha8Rng`] on a genuine
//! ChaCha8 block function (Bernstein's design, 8 rounds, 64-bit block
//! counter).  Deterministic for a given seed and statistically strong —
//! though the word stream is not bit-identical to upstream rand_chacha,
//! which nothing in this workspace depends on.
//!
//! One block function body runs several blocks at once, one per lane of
//! a vector of `u32`s, each with its own key and counter.
//! [`chacha8_block4`] runs four on an SSE2 register on `x86_64` (SSE2 is
//! baseline there) and on a `[u32; 4]` elsewhere; [`ChaCha8Rng`] refills
//! four consecutive counters per call with it, as upstream does.
//! [`chacha8_block8`] and [`chacha8_block16`] run eight and sixteen for
//! callers with many keyed streams (the RMAT generator, one per edge): on
//! AVX2 or AVX-512 registers given an [`Avx2`] or [`Avx512`] token, which
//! only its `detect` makes, where it finds the features at run time, else
//! on 4-lane quarters, with the same words.

use rand::{RngCore, SeedableRng};

/// ChaCha8-based random number generator.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// Counter of the first block the next refill computes.
    counter: u64,
    /// Four consecutive blocks, word-major: word `w` of block `b` is
    /// `buf[w][b]`.
    buf: [[u32; 4]; 16],
    /// Next unread word in block order (`b * 16 + w`); 64 = empty.
    idx: usize,
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Words in the four-block buffer.
const BUF_WORDS: usize = 64;

/// One ChaCha state word across `N` blocks, one block per lane.
trait Lanes<const N: usize>: Copy {
    fn new(lanes: [u32; N]) -> Self;
    fn lanes(self) -> [u32; N];
    fn add(self, o: Self) -> Self;
    fn xor(self, o: Self) -> Self;
    /// Rotate each lane left by `L` bits; `R` is `32 - L` (see the tests).
    fn rotl<const L: i32, const R: i32>(self) -> Self;
}

/// `$name`: `$n` lanes in an x86_64 register `$reg`, on these intrinsics;
/// `$rot` rotates `$x` left by `L` (`R` is `32 - L`).
#[cfg(target_arch = "x86_64")]
macro_rules! x86_lanes {
    ($name:ident, $reg:ident, $n:literal, $add:ident, $xor:ident, |$x:ident| $rot:expr) => {
        #[derive(Clone, Copy)]
        struct $name(std::arch::x86_64::$reg);

        impl Lanes<$n> for $name {
            #[inline(always)]
            fn new(lanes: [u32; $n]) -> Self {
                // SAFETY: same-size plain integer data; any bits are valid.
                $name(unsafe { std::mem::transmute::<[u32; $n], std::arch::x86_64::$reg>(lanes) })
            }

            #[inline(always)]
            fn lanes(self) -> [u32; $n] {
                // SAFETY: as in `new`.
                unsafe { std::mem::transmute::<std::arch::x86_64::$reg, [u32; $n]>(self.0) }
            }

            #[inline(always)]
            fn add(self, o: Self) -> Self {
                // SAFETY: its instruction set is present (see each `x86_lanes!`).
                $name(unsafe { std::arch::x86_64::$add(self.0, o.0) })
            }

            #[inline(always)]
            fn xor(self, o: Self) -> Self {
                // SAFETY: as in `add`.
                $name(unsafe { std::arch::x86_64::$xor(self.0, o.0) })
            }

            #[inline(always)]
            fn rotl<const L: i32, const R: i32>(self) -> Self {
                use std::arch::x86_64::*;
                const { assert!(L + R == 32) };
                let $x = self.0;
                // SAFETY: as in `add`.
                $name(unsafe { $rot })
            }
        }
    };
}

// Four lanes in an SSE2 register: SSE2 is baseline on x86_64.
#[cfg(target_arch = "x86_64")]
x86_lanes! {
    U32x4, __m128i, 4, _mm_add_epi32, _mm_xor_si128,
    |x| _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x))
}

// Eight in an AVX2 register: only `chacha8_block8` given an `Avx2` has one.
#[cfg(target_arch = "x86_64")]
x86_lanes! {
    U32x8, __m256i, 8, _mm256_add_epi32, _mm256_xor_si256,
    |x| _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
}

// Sixteen in an AVX-512 register, rotated in one instruction: only
// `chacha8_block16` given an `Avx512` has one.
#[cfg(target_arch = "x86_64")]
x86_lanes! {
    U32x16, __m512i, 16, _mm512_add_epi32, _mm512_xor_si512, |x| _mm512_rol_epi32::<L>(x)
}

/// One ChaCha state word across four blocks.
#[cfg(not(target_arch = "x86_64"))]
type U32x4 = [u32; 4];

#[cfg(not(target_arch = "x86_64"))]
impl Lanes<4> for [u32; 4] {
    #[inline(always)]
    fn new(lanes: [u32; 4]) -> Self {
        lanes
    }

    #[inline(always)]
    fn lanes(self) -> [u32; 4] {
        self
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l].wrapping_add(o[l]))
    }

    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] ^ o[l])
    }

    #[inline(always)]
    fn rotl<const L: i32, const R: i32>(self) -> Self {
        const { assert!(L + R == 32) };
        self.map(|x| x.rotate_left(L as u32))
    }
}

#[inline(always)]
fn quarter_round<V: Lanes<N>, const N: usize>(s: &mut [V; 16], [a, b, c, d]: [usize; 4]) {
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor(s[a]).rotl::<16, 16>();
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor(s[c]).rotl::<12, 20>();
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor(s[a]).rotl::<8, 24>();
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor(s[c]).rotl::<7, 25>();
}

/// `N` ChaCha8 blocks side by side, one per lane (layout as in
/// [`chacha8_block4`]).
#[inline(always)]
fn block<V: Lanes<N>, const N: usize>(key: &[[u32; N]; 8], counter: [u64; N]) -> [[u32; N]; 16] {
    let zero = V::new([0; N]);
    let mut state = [zero; 16];
    for (s, sigma) in state.iter_mut().zip(SIGMA) {
        *s = V::new([sigma; N]);
    }
    for (s, k) in state[4..12].iter_mut().zip(key) {
        *s = V::new(*k);
    }
    state[12] = V::new(counter.map(|c| c as u32));
    state[13] = V::new(counter.map(|c| (c >> 32) as u32));
    // state[14..16] = nonce = 0
    let initial = state;
    for _ in 0..4 {
        // Column round.
        quarter_round(&mut state, [0, 4, 8, 12]);
        quarter_round(&mut state, [1, 5, 9, 13]);
        quarter_round(&mut state, [2, 6, 10, 14]);
        quarter_round(&mut state, [3, 7, 11, 15]);
        // Diagonal round.
        quarter_round(&mut state, [0, 5, 10, 15]);
        quarter_round(&mut state, [1, 6, 11, 12]);
        quarter_round(&mut state, [2, 7, 8, 13]);
        quarter_round(&mut state, [3, 4, 9, 14]);
    }
    // Not `array::from_fn`: its closure might run outside `target_feature`.
    let mut out = [[0; N]; 16];
    for ((o, s), i) in out.iter_mut().zip(state).zip(initial) {
        *o = s.add(i).lanes();
    }
    out
}

/// Four ChaCha8 blocks side by side, one per lane: lane `l` is the block
/// of key `key[..][l]` (key word `i` of lane `l` is `key[i][l]`) at
/// block counter `counter[l]`, nonce 0.  The result is word-major: word
/// `w` of lane `l`'s block is `out[w][l]`.
#[inline]
pub fn chacha8_block4(key: &[[u32; 4]; 8], counter: [u64; 4]) -> [[u32; 4]; 16] {
    block::<U32x4, 4>(key, counter)
}

/// Eight ChaCha8 blocks side by side, laid out as in [`chacha8_block4`],
/// on AVX2 given an [`Avx2`] token, else on two 4-lane halves: the same
/// words.  Inlined, so a caller compiled for AVX2 gets AVX2 instructions.
#[inline(always)]
pub fn chacha8_block8(avx2: Option<Avx2>, key: &[[u32; 8]; 8], ctr: [u64; 8]) -> [[u32; 8]; 16] {
    match avx2 {
        #[cfg(target_arch = "x86_64")]
        Some(_) => block::<U32x8, 8>(key, ctr),
        _ => by_fours(key, ctr),
    }
}

/// Sixteen ChaCha8 blocks side by side, laid out as in
/// [`chacha8_block4`], on AVX-512 given an [`Avx512`] token, else on four
/// 4-lane quarters: the same words.  Inlined, so a caller compiled for
/// AVX-512F gets AVX-512 instructions.
#[inline(always)]
pub fn chacha8_block16(
    avx512: Option<Avx512>,
    key: &[[u32; 16]; 8],
    ctr: [u64; 16],
) -> [[u32; 16]; 16] {
    match avx512 {
        #[cfg(target_arch = "x86_64")]
        Some(_) => block::<U32x16, 16>(key, ctr),
        _ => by_fours(key, ctr),
    }
}

/// `N` blocks as `N / 4` calls of the 4-lane body, one quarter after the
/// other: its sixteen state words already fill the sixteen SSE2 registers.
#[inline(always)]
fn by_fours<const N: usize>(key: &[[u32; N]; 8], ctr: [u64; N]) -> [[u32; N]; 16] {
    let mut out = [[0; N]; 16];
    for q in (0..N).step_by(4) {
        let key = key.map(|k| std::array::from_fn(|l| k[q + l]));
        let quarter = block::<U32x4, 4>(&key, std::array::from_fn(|l| ctr[q + l]));
        for (o, w) in out.iter_mut().zip(quarter) {
            o[q..q + 4].copy_from_slice(&w);
        }
    }
    out
}

/// Proof that the CPU has AVX2; only [`Avx2::detect`] makes one.
#[derive(Clone, Copy, Debug)]
pub struct Avx2(());

impl Avx2 {
    /// The token, where the CPU has AVX2 (at run time; never off x86_64).
    pub fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()));
        #[cfg(not(target_arch = "x86_64"))]
        None
    }
}

/// Proof that the CPU has AVX-512F, the one AVX-512 subset the 16-lane
/// body and its callers enable; only [`Avx512::detect`] makes one.
#[derive(Clone, Copy, Debug)]
pub struct Avx512(());

impl Avx512 {
    /// The token, where the CPU has AVX-512F (at run time; never off x86_64).
    pub fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("avx512f").then_some(Avx512(()));
        #[cfg(not(target_arch = "x86_64"))]
        None
    }
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let key = self.key.map(|k| [k; 4]);
        let c = self.counter;
        self.buf = chacha8_block4(
            &key,
            [c, c.wrapping_add(1), c.wrapping_add(2), c.wrapping_add(3)],
        );
        self.counter = c.wrapping_add(4);
        self.idx = 0;
    }

    /// Word `i` of the buffer in block order.
    #[inline(always)]
    fn word(&self, i: usize) -> u32 {
        self.buf[i % 16][i / 16]
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buf: [[0; 4]; 16],
            idx: BUF_WORDS,
        }
    }

    fn seed_from_u64(state: u64) -> Self {
        // SplitMix64 seed expansion, same approach as rand's default.
        let mut seed = [0u8; 32];
        let mut x = state;
        for chunk in seed.chunks_exact_mut(8) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            chunk.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        Self::from_seed(seed)
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        // A u64 never straddles two blocks: an odd word left at the end
        // of one is skipped.
        if self.idx % 16 == 15 {
            self.idx += 1;
        }
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let lo = self.word(self.idx) as u64;
        let hi = self.word(self.idx + 1) as u64;
        self.idx += 2;
        lo | (hi << 32)
    }

    fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.word(self.idx);
        self.idx += 1;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The one-block ChaCha8 of the original scalar stand-in.
    fn scalar_block(key: &[u32; 8], counter: u64) -> [u32; 16] {
        fn qr(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(key);
        state[12] = counter as u32;
        state[13] = (counter >> 32) as u32;
        let initial = state;
        for _ in 0..4 {
            qr(&mut state, 0, 4, 8, 12);
            qr(&mut state, 1, 5, 9, 13);
            qr(&mut state, 2, 6, 10, 14);
            qr(&mut state, 3, 7, 11, 15);
            qr(&mut state, 0, 5, 10, 15);
            qr(&mut state, 1, 6, 11, 12);
            qr(&mut state, 2, 7, 8, 13);
            qr(&mut state, 3, 4, 9, 14);
        }
        for (s, i) in state.iter_mut().zip(initial) {
            *s = s.wrapping_add(i);
        }
        state
    }

    /// The original one-block buffer: refill when a read would run past
    /// word 16, so a `next_u64` skips an odd last word.
    struct OneBlock {
        key: [u32; 8],
        counter: u64,
        buf: [u32; 16],
        idx: usize,
    }

    impl OneBlock {
        fn new(key: [u32; 8]) -> Self {
            OneBlock {
                key,
                counter: 0,
                buf: [0; 16],
                idx: 16,
            }
        }

        fn take(&mut self, words: usize) -> u64 {
            if self.idx + words > 16 {
                self.buf = scalar_block(&self.key, self.counter);
                self.counter += 1;
                self.idx = 0;
            }
            let lo = self.buf[self.idx] as u64;
            let hi = if words == 2 {
                self.buf[self.idx + 1] as u64
            } else {
                0
            };
            self.idx += words;
            lo | (hi << 32)
        }
    }

    #[test]
    fn each_lane_is_the_scalar_block_of_its_key_and_counter() {
        let keys: [[u32; 8]; 4] = std::array::from_fn(|l| {
            std::array::from_fn(|i| {
                (0x9E37_79B9u32.wrapping_mul((l * 8 + i + 1) as u32)) ^ l as u32
            })
        });
        let key: [[u32; 4]; 8] = std::array::from_fn(|i| std::array::from_fn(|l| keys[l][i]));
        for counters in [[0, 1, 2, 3], [7, 0, u32::MAX as u64, u64::MAX], [5; 4]] {
            let out = chacha8_block4(&key, counters);
            for l in 0..4 {
                let want = scalar_block(&keys[l], counters[l]);
                let got: [u32; 16] = std::array::from_fn(|w| out[w][l]);
                assert_eq!(got, want, "lane {l} at counter {}", counters[l]);
            }
        }
    }

    /// `wide(key, counters)`, `N` lanes, against `N / 4` `chacha8_block4`
    /// calls on lanes `4q..4q + 4`, word by word.
    fn assert_lanes_are_blocks4<const N: usize>(
        wide: impl Fn(&[[u32; N]; 8], [u64; N]) -> [[u32; N]; 16],
        name: &str,
    ) {
        let key: [[u32; N]; 8] = std::array::from_fn(|i| {
            std::array::from_fn(|l| 0x9E37_79B9u32.wrapping_mul((l * 8 + i + 1) as u32))
        });
        // Counters in order, and counters on both sides of 2^32 and of
        // `u64::MAX` in neighbouring lanes.
        let edges = [
            9,
            0,
            (1 << 32) - 1,
            1 << 32,
            u64::MAX - 1,
            u64::MAX,
            3,
            1 << 40,
        ];
        for c in [
            std::array::from_fn(|l| l as u64),
            std::array::from_fn(|l| edges[l % 8] ^ (l / 8) as u64),
        ] {
            let got = wide(&key, c);
            for q in (0..N).step_by(4) {
                let key = key.map(|k| std::array::from_fn(|l| k[q + l]));
                let want = chacha8_block4(&key, std::array::from_fn(|l| c[q + l]));
                for w in 0..16 {
                    assert_eq!(
                        got[w][q..q + 4],
                        want[w],
                        "{name}, word {w}, counters {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn eight_lanes_are_two_four_lane_blocks_on_either_token() {
        assert_lanes_are_blocks4(|k, c| chacha8_block8(None, k, c), "halves");
        match Avx2::detect() {
            Some(avx2) => assert_lanes_are_blocks4(|k, c| chacha8_block8(Some(avx2), k, c), "avx2"),
            None => eprintln!("no AVX2 on this CPU: the AVX2 lanes are not exercised"),
        }
    }

    #[test]
    fn sixteen_lanes_are_four_four_lane_blocks_on_either_token() {
        assert_lanes_are_blocks4(|k, c| chacha8_block16(None, k, c), "quarters");
        match Avx512::detect() {
            Some(t) => assert_lanes_are_blocks4(|k, c| chacha8_block16(Some(t), k, c), "avx512"),
            None => eprintln!("no AVX-512F on this CPU: the AVX-512 lanes are not exercised"),
        }
    }

    #[test]
    fn mixed_reads_give_the_one_block_word_stream() {
        // Patterns that put odd words at the end of 16-word blocks and of
        // the 64-word buffer, and u64s on both sides of each boundary.
        let patterns: [&[usize]; 4] = [&[1], &[2], &[1, 2, 2], &[2, 1, 1, 1, 2, 2, 2]];
        for (p, pattern) in patterns.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(p as u64 + 11);
            let mut reference = OneBlock::new(rng.key);
            for step in 0..1000 {
                let words = pattern[step % pattern.len()];
                let (got, want) = if words == 1 {
                    (rng.next_u32() as u64, reference.take(1))
                } else {
                    (rng.next_u64(), reference.take(2))
                };
                assert_eq!(got, want, "pattern {p}, read {step}");
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn from_seed_uses_all_key_bytes() {
        let mut s1 = [0u8; 32];
        let mut s2 = [0u8; 32];
        s2[31] = 1;
        let mut a = ChaCha8Rng::from_seed(s1);
        let mut b = ChaCha8Rng::from_seed(s2);
        assert_ne!(a.next_u64(), b.next_u64());
        s1[0] = 9;
        let mut c = ChaCha8Rng::from_seed(s1);
        let mut d = ChaCha8Rng::from_seed([0u8; 32]);
        assert_ne!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn works_through_rng_trait() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let v: u64 = rng.gen_range(0..1000);
        assert!(v < 1000);
        let f: f64 = rng.gen();
        assert!((0.0..1.0).contains(&f));
        let _ = rng.gen_bool(0.5);
    }
}
