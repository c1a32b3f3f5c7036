//! SplitMix64: the benchmark's only randomness. Every workload input is a
//! pure function of `--seed` through this generator, so the program under
//! test receives generated inputs and never the seed itself.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for one workload: the salt keeps workloads that share a
    /// seed from sharing inputs.
    pub fn new(seed: u64, salt: u64) -> SplitMix64 {
        SplitMix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_salts_differ() {
        let mut a = SplitMix64::new(2014, 1);
        let mut b = SplitMix64::new(2014, 1);
        let mut c = SplitMix64::new(2014, 2);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = SplitMix64::new(7, 7);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            let v = r.range(0.3, 0.9);
            assert!((0.3..0.9).contains(&v));
        }
    }
}
