//! The benchmark's own deterministic randomness: arrival ranks, Poisson
//! schedules and evidence values are drawn here, not through the program's
//! generators, so a change to the program cannot move the traffic.

/// SplitMix64: small, fast and fully specified.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Zipf(`exponent`) over ranks `0..n`: rank `r` has weight `1/(r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.at(rng.unit())
    }

    /// The rank at cumulative probability `u` in `[0, 1)`.
    pub fn at(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Due times (seconds from phase start) of `n` arrivals of a Poisson
/// process over `duration` seconds, conditioned on its count: the gaps
/// are exponential, rescaled so that `n + 1` of them span the duration.
/// Fixing the count keeps the sample size of a phase the same on every
/// run.
pub fn arrival_schedule(n: usize, duration: f64, rng: &mut Rng) -> Vec<f64> {
    let gaps: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let scale = duration / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            t += g * scale;
            t
        })
        .collect()
}

/// FNV-1a 64 over a byte stream, fed incrementally.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), Rng::new(7, 1).next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut r = Rng::new(3, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn schedule_has_its_count_within_the_duration() {
        let mut r = Rng::new(11, 0);
        let due = arrival_schedule(5_000, 10.0, &mut r);
        assert_eq!(due.len(), 5_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due[0] > 0.0 && due[4_999] < 10.0);
        // roughly uniform: about half the arrivals fall in the first half
        let first_half = due.iter().filter(|&&t| t < 5.0).count() as f64;
        assert!((first_half - 2_500.0).abs() < 200.0, "{first_half}");
    }
}
