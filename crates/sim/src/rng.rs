//! Deterministic random number generation.
//!
//! All stochastic elements of the simulation (request inter-arrival jitter,
//! file access patterns, leak magnitudes) draw from a [`SimRng`] seeded from
//! a single experiment seed, so every run is exactly reproducible.
//!
//! The generator is an **in-repo xoshiro256++** (Blackman & Vigna) — no
//! external crates — seeded by expanding the 64-bit experiment seed through
//! a [`splitmix64`] chain, the seeding scheme the xoshiro authors recommend.
//! The output stream is a **stability guarantee**: golden-value tests below
//! pin the first outputs for representative seeds, so any future change to
//! the generator (which would silently shift every calibrated experiment)
//! fails loudly. See DESIGN.md §"RNG substitution" for the rationale.
//!
//! The module also provides [`splitmix64`] itself, a tiny stateless mixer
//! used to derive per-frame memory content hashes and per-entity sub-seeds
//! without carrying RNG state around.

/// A seeded deterministic RNG (xoshiro256++).
///
/// The seeding scheme is fixed — a [`splitmix64`] chain expands the 64-bit
/// experiment seed into the 256-bit state — so simulation code never
/// accidentally seeds from entropy, and the same seed always produces the
/// same stream on every platform (the algorithm is pure integer
/// arithmetic; no floating-point or platform-dependent state).
///
/// # Examples
///
/// ```
/// use rh_sim::rng::SimRng;
///
/// let mut a = SimRng::from_seed(42);
/// let mut b = SimRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates an RNG from a 64-bit experiment seed.
    ///
    /// The 256-bit xoshiro state is filled from a [`splitmix64`] chain
    /// started at `seed`, which guarantees a never-all-zero state and
    /// well-separated states for adjacent seeds.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = [0u64; 4];
        let mut s = seed;
        for word in &mut state {
            s = splitmix64(s);
            *word = s;
        }
        SimRng { state, seed }
    }

    /// The seed this RNG was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child RNG for a named sub-entity.
    ///
    /// Ensures that adding RNG draws in one subsystem never perturbs the
    /// stream seen by another.
    pub fn fork(&self, label: u64) -> SimRng {
        SimRng::from_seed(splitmix64(self.seed ^ splitmix64(label)))
    }

    /// Splits this RNG into `n` independent streams (one [`fork`](Self::fork)
    /// per index).
    ///
    /// This is the seeding primitive for parallel experiment execution
    /// (`rh_bench::exec`): stream `i` depends only on the parent seed and
    /// `i` — not on how many streams were requested, not on how much of the
    /// parent stream has been consumed, and not on the order the streams
    /// are later exercised in — so a sweep point produces byte-identical
    /// results whether the sweep runs sequentially or across N workers.
    pub fn split(&self, n: usize) -> Vec<SimRng> {
        (0..n as u64).map(|i| self.fork(i)).collect()
    }

    /// Next raw 64-bit value (the xoshiro256++ core step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)`.
    ///
    /// Uses the top 53 bits of [`next_u64`](Self::next_u64), the standard
    /// full-precision double conversion.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// Unbiased: draws outside the largest multiple of `bound` are
    /// rejected and redrawn (at most one extra draw in expectation, and
    /// only for astronomically large bounds).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Largest value below which `% bound` is exactly uniform.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        loop {
            let v = lo + self.next_f64() * (hi - lo);
            // Rounding at huge spans can land exactly on `hi`; redraw to
            // keep the half-open contract.
            if v < hi {
                return v;
            }
        }
    }

    /// An exponentially distributed value with the given mean.
    ///
    /// Used for open-loop request inter-arrival times.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be positive, got {mean}"
        );
        // u in [0, 1) so 1 - u in (0, 1]: ln is finite and the result
        // non-negative.
        let u = self.next_f64();
        -mean * (1.0 - u).ln()
    }

    /// Bernoulli trial with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }
}

/// The splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
///
/// Stateless — ideal for deriving deterministic per-frame memory content
/// signatures (`splitmix64(domain_salt ^ pfn)`) that survive and verify a
/// warm reboot. Also the state-expansion function for [`SimRng::from_seed`].
pub const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Golden values: the first 8 outputs for seeds 0, 42 and u64::MAX,
    /// cross-checked against an independent implementation of
    /// splitmix64-seeded xoshiro256++. These pin the stream forever; a
    /// failure here means every calibrated experiment in EXPERIMENTS.md
    /// silently changed.
    #[test]
    fn golden_stream_seed_0() {
        let mut r = SimRng::from_seed(0);
        let got: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x4433_9B21_869F_763D,
                0x95CF_0253_EE16_7D21,
                0xB7A5_78BE_0561_B430,
                0xE4F6_DBDB_82CC_C59B,
                0xCFD1_57DB_F4B5_B12E,
                0xA649_AC60_3C89_6CDD,
                0xF723_3D31_DF94_9985,
                0xC168_7BDA_40DC_B4D1,
            ]
        );
    }

    #[test]
    fn golden_stream_seed_42() {
        let mut r = SimRng::from_seed(42);
        let got: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                0xC757_960B_442B_0AC3,
                0x4BB2_2A7F_77FF_8C6C,
                0x0495_0439_D3C5_EAFE,
                0xB769_FB44_902F_2DC2,
                0x50FA_EC90_F665_6078,
                0x0C9C_A018_8A6C_2AE3,
                0x7AE2_762F_FCA5_BEF2,
                0x446E_357C_605E_6979,
            ]
        );
    }

    #[test]
    fn golden_stream_seed_max() {
        let mut r = SimRng::from_seed(u64::MAX);
        let got: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x0C6C_C854_76D8_171C,
                0x1222_0CEE_019C_C195,
                0x8D0A_6405_A9DD_9DB7,
                0xA469_6EC9_6217_4311,
                0xBAD8_9380_A71B_66B3,
                0xC448_989F_9A52_AD27,
                0xDAC7_9895_AB31_9BD4,
                0x7593_329D_008C_643E,
            ]
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent_of_parent_consumption() {
        let parent = SimRng::from_seed(99);
        let mut child1 = parent.fork(5);
        let mut parent2 = SimRng::from_seed(99);
        let _ = parent2.next_u64(); // consuming the parent stream...
        let mut child2 = parent.fork(5); // ...must not change fork output
        assert_eq!(child1.next_u64(), child2.next_u64());
    }

    #[test]
    fn split_streams_are_fork_streams() {
        // split(n)[i] must equal fork(i): stream i depends only on the
        // parent seed and i, so executors can re-derive any point's stream
        // without materializing the others.
        let parent = SimRng::from_seed(1234);
        let streams = parent.split(5);
        assert_eq!(streams.len(), 5);
        for (i, s) in streams.iter().enumerate() {
            let mut a = s.clone();
            let mut b = parent.fork(i as u64);
            for _ in 0..16 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn split_is_independent_of_count() {
        // Asking for more streams must not change the earlier ones —
        // growing a sweep leaves existing points' results intact.
        let parent = SimRng::from_seed(77);
        let small = parent.split(3);
        let big = parent.split(11);
        for (mut a, mut b) in small.into_iter().zip(big) {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_labels_distinguish() {
        let parent = SimRng::from_seed(99);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_small_range_uniformly() {
        let mut r = SimRng::from_seed(8);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[r.below(4) as usize] += 1;
        }
        for c in counts {
            // Each bucket expects 10 000 ± a few hundred.
            assert!((c as i64 - 10_000).abs() < 500, "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn next_f64_is_half_open_unit() {
        let mut r = SimRng::from_seed(13);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn range_f64_stays_in_bounds() {
        let mut r = SimRng::from_seed(21);
        for _ in 0..1000 {
            let v = r.range_f64(-3.0, 7.5);
            assert!((-3.0..7.5).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::from_seed(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(2.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "observed mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = SimRng::from_seed(17);
        let hits = (0..20_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn splitmix_is_stable() {
        // Reference values from the public-domain splitmix64 implementation.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        SimRng::from_seed(0).below(0);
    }
}
