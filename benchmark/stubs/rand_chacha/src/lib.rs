//! Offline stand-in for `rand_chacha`: the ChaCha block function with a
//! 256-bit key, 64-bit block counter and zero stream id, read out as a
//! contiguous little-endian word stream (the layout rand_chacha uses).
//! ChaCha20 is checked against the RFC 7539 zero-key keystream in the
//! tests; equality with the real crate's streams is not claimed.

use rand::{RngCore, SeedableRng};

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// ChaCha generator with `ROUNDS` rounds.
#[derive(Clone, Debug)]
pub struct ChaChaRng<const ROUNDS: usize> {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    index: usize,
}

pub type ChaCha8Rng = ChaChaRng<8>;
pub type ChaCha20Rng = ChaChaRng<20>;

#[inline(always)]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl<const ROUNDS: usize> ChaChaRng<ROUNDS> {
    fn refill(&mut self) {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&SIGMA);
        init[4..12].copy_from_slice(&self.key);
        init[12] = self.counter as u32;
        init[13] = (self.counter >> 32) as u32;
        let mut s = init;
        for _ in 0..ROUNDS / 2 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (out, (a, b)) in self.block.iter_mut().zip(s.iter().zip(&init)) {
            *out = a.wrapping_add(*b);
        }
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

impl<const ROUNDS: usize> SeedableRng for ChaChaRng<ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        Self {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }
}

impl<const ROUNDS: usize> RngCore for ChaChaRng<ROUNDS> {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let v = self.block[self.index];
        self.index += 1;
        v
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha20_zero_key_matches_rfc7539_keystream() {
        let mut rng = ChaCha20Rng::from_seed([0; 32]);
        // Keystream bytes 76 b8 e0 ad a0 f1 3d 90 ...
        assert_eq!(rng.next_u32(), 0xade0_b876);
        assert_eq!(rng.next_u32(), 0x903d_f1a0);
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let mut c = ChaCha8Rng::seed_from_u64(8);
        let (xa, xb, xc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }
}
