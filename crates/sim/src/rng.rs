//! Deterministic, forkable RNG streams for reproducible experiments.
//!
//! Every stochastic experiment in this workspace takes a [`Seed`] and
//! derives per-trial / per-thread sub-streams with [`Seed::stream`], so
//! parallel Monte-Carlo runs produce the same numbers regardless of thread
//! scheduling.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A master seed from which independent named streams are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed(pub u64);

impl Seed {
    /// Derive the RNG for logical stream `index` (e.g. trial number).
    ///
    /// Uses ChaCha8 with the stream baked into the 256-bit key via
    /// SplitMix64 expansion, so distinct indices give statistically
    /// independent streams.
    pub fn stream(self, index: u64) -> ChaCha8Rng {
        let mut state = self.0 ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut key = [0u8; 32];
        for chunk in key.chunks_mut(8) {
            state = splitmix64(&mut state);
            chunk.copy_from_slice(&state.to_le_bytes());
        }
        ChaCha8Rng::from_seed(key)
    }

    /// The root RNG (stream 0).
    pub fn rng(self) -> ChaCha8Rng {
        self.stream(0)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    /// FNV-1a over the little-endian bytes of the first 2¹⁶ draws of
    /// `Seed(seed).stream(index)`. Every third draw is a `next_u32` and the
    /// rest are `next_u64`, so the word offset advances by 5 per 3 draws
    /// and some `u64` reads straddle each keystream refill.
    fn keystream_digest(seed: u64, index: u64) -> u64 {
        let mut rng = Seed(seed).stream(index);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for n in 0..1u32 << 16 {
            let draw = if n % 3 == 0 { u64::from(rng.next_u32()) } else { rng.next_u64() };
            for byte in draw.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// The keystream every experiment draws from, pinned to digests of the
    /// one-block-at-a-time generator: any drift in key expansion, block
    /// order, counter handling or `u64` assembly changes a digest.
    #[test]
    fn keystream_digests_are_pinned() {
        let cases: [(u64, u64, u64); 4] = [
            (0, 0, 0x0c81_dc7f_2dad_e601),
            (7, 3, 0xccd2_157d_590d_2a3b),
            (930, 64, 0x4a0b_ddc1_25ba_f143),
            (0xBEEF, 1 << 40, 0x20ef_9fe2_5531_734a),
        ];
        for (seed, index, want) in cases {
            let got = keystream_digest(seed, index);
            assert_eq!(got, want, "Seed({seed}).stream({index}) digest {got:#018x}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Seed(7).stream(3);
        let mut b = Seed(7).stream(3);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = Seed(7).stream(1);
        let mut b = Seed(7).stream(2);
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 2);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Seed(1).stream(0);
        let mut b = Seed(2).stream(0);
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 2);
    }

    #[test]
    fn root_rng_is_stream_zero() {
        let mut a = Seed(9).rng();
        let mut b = Seed(9).stream(0);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
