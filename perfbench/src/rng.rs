//! Deterministic randomness for input generation.
//!
//! The benchmark's inputs must be a pure function of `--seed`, independent
//! of any library's generator, so the stream generator owns its PRNG.

/// SplitMix64: tiny, fast, and good enough for workload sampling.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// A generator for one named sub-stream of `seed`, so adding a draw to
    /// one sub-stream never shifts another.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut base = SplitMix64(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        SplitMix64(base.draw())
    }

    /// The next 64 random bits.
    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.draw()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.draw() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut out: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            out.swap(i, j);
        }
        out
    }
}

impl rand::RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.draw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.draw()
    }
}

/// Zipf(s) over ranks `0..n`, sampled by inverting a precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution P(rank k) ∝ 1 / (k + 1)^s.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000, 0.9);
        let mut rng = SplitMix64::new(7);
        let mut head = 0;
        for _ in 0..10_000 {
            let k = zipf.sample(&mut rng);
            assert!(k < 1000);
            if k < 10 {
                head += 1;
            }
        }
        // The top 1 % of ranks draws far more than 1 % of samples.
        assert!(head > 1_000, "head drew {head}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut perm = SplitMix64::new(3).permutation(500);
        perm.sort_unstable();
        assert!(perm.iter().enumerate().all(|(i, &v)| v as usize == i));
    }
}
