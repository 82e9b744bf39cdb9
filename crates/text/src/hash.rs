//! Deterministic seeded hashing.
//!
//! Everything random in this reproduction (min-hash coordinate functions,
//! data generation, error injection) derives from explicit `u64` seeds via
//! SplitMix64, so every experiment is exactly reproducible from its seed.

/// The SplitMix64 state increment.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 — a tiny, high-quality mixer used both as a seed expander and
/// as the finalizer of [`hash_bytes`].
///
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014. This is the exact standard constant set.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    let z = mix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    z
}

/// Mix a single `u64` to a well-distributed `u64`: the output of one
/// SplitMix64 step from state `x`. Pure, so the lookup path's hashing takes
/// no `&mut` state.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a byte string under a seed.
///
/// FNV-1a accumulation over the bytes followed by a SplitMix64 finalization
/// of `(acc, seed)`. This is not cryptographic; it only needs to be fast,
/// deterministic, and to behave like an independent uniform function for
/// every distinct `seed` — which is what the min-hash estimator of the paper
/// (§4.1, citing Broder and Cohen) requires of its hash family.
#[inline]
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut acc = FNV_OFFSET ^ seed.rotate_left(17);
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    mix64(acc ^ seed)
}

/// Hash a UTF-8 string under a seed. Convenience wrapper over [`hash_bytes`].
#[inline]
pub fn hash_str(seed: u64, s: &str) -> u64 {
    hash_bytes(seed, s.as_bytes())
}

/// Derive `n` independent sub-seeds from a master seed.
///
/// Used to give each min-hash coordinate its own hash function, and each
/// data-generation stream its own RNG.
pub fn derive_seeds(master: u64, n: usize) -> Vec<u64> {
    let mut state = master ^ 0xA076_1D64_78BD_642F;
    (0..n).map(|_| splitmix64(&mut state)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42;
        let mut b = 42;
        for _ in 0..8 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // First output of SplitMix64 seeded with 0 (widely published vector).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn hash_str_differs_across_seeds() {
        let h1 = hash_str(1, "boeing");
        let h2 = hash_str(2, "boeing");
        assert_ne!(h1, h2);
    }

    #[test]
    fn hash_str_differs_across_inputs() {
        assert_ne!(hash_str(7, "boeing"), hash_str(7, "beoing"));
        assert_ne!(hash_str(7, ""), hash_str(7, "a"));
    }

    #[test]
    fn hash_str_stable() {
        // Guard against accidental constant changes: the whole reproduction
        // depends on these values being stable across runs.
        assert_eq!(hash_str(0, "abc"), hash_str(0, "abc"));
        let reference = hash_str(123, "corporation");
        for _ in 0..4 {
            assert_eq!(hash_str(123, "corporation"), reference);
        }
    }

    #[test]
    fn derive_seeds_distinct() {
        let seeds = derive_seeds(99, 64);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "derived seeds must be distinct");
    }

    #[test]
    fn hash_distribution_rough_uniformity() {
        // Bucket 4096 token-like strings into 16 buckets; no bucket should be
        // wildly off 256 if the hash is healthy.
        let mut buckets = [0usize; 16];
        for i in 0..4096 {
            let s = format!("token-{i}");
            buckets[(hash_str(5, &s) % 16) as usize] += 1;
        }
        for &b in &buckets {
            assert!((150..400).contains(&b), "bucket count {b} out of range");
        }
    }
}
