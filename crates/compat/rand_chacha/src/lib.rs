//! Offline stand-in for `rand_chacha`: [`ChaCha8Rng`] on a genuine
//! ChaCha8 block function (Bernstein's design, 8 rounds, 64-bit block
//! counter).  Deterministic for a given seed and statistically strong —
//! though the word stream is not bit-identical to upstream rand_chacha,
//! which nothing in this workspace depends on.
//!
//! The block function computes four blocks at once, one per lane of a
//! 4 × `u32` vector ([`chacha8_block4`]); each lane has its own key and
//! counter.  On `x86_64` the lanes are an SSE2 register — SSE2 is part of
//! the baseline target, so there is no runtime detection — and elsewhere
//! a plain `[u32; 4]`.  [`ChaCha8Rng`] refills four consecutive counters
//! per call, as upstream does; callers that run several keyed streams
//! side by side (the RMAT generator, one stream per edge) call
//! [`chacha8_block4`] directly.

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

/// One ChaCha state word across four blocks.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct U32x4(std::arch::x86_64::__m128i);

#[cfg(target_arch = "x86_64")]
impl U32x4 {
    #[inline(always)]
    fn new(lanes: [u32; 4]) -> Self {
        // SAFETY: `__m128i` and `[u32; 4]` are 16 bytes of plain integer
        // data; every bit pattern is valid for both.
        U32x4(unsafe { std::mem::transmute::<[u32; 4], std::arch::x86_64::__m128i>(lanes) })
    }

    #[inline(always)]
    fn lanes(self) -> [u32; 4] {
        // SAFETY: as in `new`, the two types are the same plain bytes.
        unsafe { std::mem::transmute::<std::arch::x86_64::__m128i, [u32; 4]>(self.0) }
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: SSE2 is part of the x86_64 baseline target, so the
        // intrinsic's target feature is always present.
        U32x4(unsafe { std::arch::x86_64::_mm_add_epi32(self.0, o.0) })
    }

    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        // SAFETY: SSE2 is baseline on x86_64 (see `add`).
        U32x4(unsafe { std::arch::x86_64::_mm_xor_si128(self.0, o.0) })
    }

    /// Rotate each lane left by `L` bits; `R` is `32 - L` (SSE2 has no
    /// rotate, and a const generic cannot compute it).
    #[inline(always)]
    fn rotl<const L: i32, const R: i32>(self) -> Self {
        use std::arch::x86_64::{_mm_or_si128, _mm_slli_epi32, _mm_srli_epi32};
        const { assert!(L + R == 32) };
        // SAFETY: SSE2 is baseline on x86_64 (see `add`).
        U32x4(unsafe { _mm_or_si128(_mm_slli_epi32::<L>(self.0), _mm_srli_epi32::<R>(self.0)) })
    }
}

/// One ChaCha state word across four blocks.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy)]
struct U32x4([u32; 4]);

#[cfg(not(target_arch = "x86_64"))]
impl U32x4 {
    #[inline(always)]
    fn new(lanes: [u32; 4]) -> Self {
        U32x4(lanes)
    }

    #[inline(always)]
    fn lanes(self) -> [u32; 4] {
        self.0
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        U32x4(std::array::from_fn(|l| self.0[l].wrapping_add(o.0[l])))
    }

    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        U32x4(std::array::from_fn(|l| self.0[l] ^ o.0[l]))
    }

    /// Rotate each lane left by `L` bits (`R` = `32 - L`, as on x86_64).
    #[inline(always)]
    fn rotl<const L: i32, const R: i32>(self) -> Self {
        const { assert!(L + R == 32) };
        U32x4(self.0.map(|x| x.rotate_left(L as u32)))
    }
}

#[inline(always)]
fn quarter_round(s: &mut [U32x4; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor(s[a]).rotl::<16, 16>();
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor(s[c]).rotl::<12, 20>();
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor(s[a]).rotl::<8, 24>();
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor(s[c]).rotl::<7, 25>();
}

/// Four ChaCha8 blocks side by side, one per lane: lane `l` is the block
/// of key `key[..][l]` (key word `i` of lane `l` is `key[i][l]`) at
/// block counter `counter[l]`, nonce 0.  The result is word-major: word
/// `w` of lane `l`'s block is `out[w][l]`.
#[inline]
pub fn chacha8_block4(key: &[[u32; 4]; 8], counter: [u64; 4]) -> [[u32; 4]; 16] {
    let zero = U32x4::new([0; 4]);
    let mut state = [zero; 16];
    for (s, sigma) in state.iter_mut().zip(SIGMA) {
        *s = U32x4::new([sigma; 4]);
    }
    for (s, k) in state[4..12].iter_mut().zip(key) {
        *s = U32x4::new(*k);
    }
    state[12] = U32x4::new(counter.map(|c| c as u32));
    state[13] = U32x4::new(counter.map(|c| (c >> 32) as u32));
    // state[14..16] = nonce = 0
    let initial = state;
    for _ in 0..4 {
        // Column round.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    std::array::from_fn(|w| state[w].add(initial[w]).lanes())
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
