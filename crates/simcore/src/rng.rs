//! Deterministic pseudo-random number generation for the simulation.
//!
//! The whole study must be reproducible from a single `u64` seed: the same
//! seed must yield the same attack population, the same observatory
//! verdicts and therefore the same figures. We use `xoshiro256**`
//! (public-domain, Blackman & Vigna) seeded through SplitMix64, the
//! combination recommended by the xoshiro authors. The generator supports
//! cheap *forking* into independent substreams so that independently
//! evolving model components (attack arrivals, target selection, per-
//! observatory noise) do not perturb each other when one component draws
//! a different number of variates.

/// SplitMix64 step. Used for seeding and for deriving fork seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic `xoshiro256**` PRNG.
///
/// Not cryptographically secure — this is a simulation generator. All
/// stochastic model components take a `&mut SimRng`; nothing in the
/// workspace draws from OS entropy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a seed. Any seed (including 0) is valid;
    /// SplitMix64 expansion guarantees a non-degenerate state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent substream labeled by `tag`.
    ///
    /// Forking hashes the current state together with the tag, so two
    /// forks with different tags are decorrelated, and forking does not
    /// advance the parent stream (call sites remain insensitive to the
    /// *order* in which sibling components are constructed).
    pub fn fork(&self, tag: u64) -> SimRng {
        let mut sm = self.s[0] ^ self.s[1].rotate_left(17) ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Fork with a string label; convenient for naming model components.
    pub fn fork_named(&self, name: &str) -> SimRng {
        self.fork(fnv1a64(name.as_bytes()))
    }

    /// Next raw 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in the half-open interval `[lo, hi)`.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Unbiased uniform integer in `[0, n)` via Lemire's method.
    /// `n` must be non-zero.
    #[inline]
    pub fn u64_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn u64_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.u64_below(hi - lo + 1)
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn usize_below(&mut self, n: usize) -> usize {
        self.u64_below(n as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Choose a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose on empty slice");
        &items[self.usize_below(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.usize_below(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices out of `[0, n)` (k <= n) using a
    /// partial Fisher–Yates over an index map; O(k) memory for small k.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        // For small k relative to n, rejection sampling on a set is
        // cheaper; for large k, do a full shuffle.
        if k * 4 <= n {
            let mut out = Vec::with_capacity(k);
            let mut seen = std::collections::HashSet::with_capacity(k * 2);
            while out.len() < k {
                let i = self.usize_below(n);
                if seen.insert(i) {
                    out.push(i);
                }
            }
            out
        } else {
            let mut idx: Vec<usize> = (0..n).collect();
            self.shuffle(&mut idx);
            idx.truncate(k);
            idx
        }
    }

    /// Weighted index selection proportional to `weights` (all finite,
    /// non-negative, not all zero).
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        self.weighted_index_of_total(weights, total)
    }

    /// [`SimRng::weighted_index`] with the weights' total computed once
    /// by the caller, for a draw repeated over the same weights. `total`
    /// must be `weights.iter().sum()`, summed in that order, so the draw
    /// sequence is bit-identical to [`SimRng::weighted_index`].
    pub fn weighted_index_of_total(&mut self, weights: &[f64], total: f64) -> usize {
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must sum to a positive finite value"
        );
        let mut target = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1 // numerical fallback
    }
}

/// FNV-1a 64-bit hash, used to derive fork tags from names.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = SimRng::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn fork_does_not_advance_parent() {
        let a = SimRng::new(7);
        let before = a.clone();
        let _child = a.fork(99);
        assert_eq!(a, before);
    }

    #[test]
    fn forks_with_different_tags_differ() {
        let r = SimRng::new(7);
        let mut c1 = r.fork(1);
        let mut c2 = r.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_named_matches_tagged_fork() {
        let r = SimRng::new(7);
        let mut by_name = r.fork_named("attacks");
        let mut by_tag = r.fork(fnv1a64(b"attacks"));
        assert_eq!(by_name.next_u64(), by_tag.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn u64_below_bounds_and_coverage() {
        let mut r = SimRng::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.u64_below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn u64_range_inclusive() {
        let mut r = SimRng::new(5);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..2000 {
            let x = r.u64_range(10, 12);
            assert!((10..=12).contains(&x));
            hit_lo |= x == 10;
            hit_hi |= x == 12;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_rate_close_to_p() {
        let mut r = SimRng::new(17);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = SimRng::new(13);
        for &(n, k) in &[(100usize, 5usize), (100, 80), (10, 10), (1, 1), (50, 0)] {
            let s = r.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "duplicates for n={n} k={k}");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::new(21);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "weights")]
    fn weighted_index_rejects_all_zero() {
        let mut r = SimRng::new(21);
        r.weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn fnv_known_value() {
        // FNV-1a("") is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
