//! The benchmark's own load generator: a seeded PRNG, a Zipf key
//! sampler and the two operation streams. Inputs depend only on the
//! seed and live here, so a change to the program cannot change them.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`; distinct streams do not overlap in
    /// practice.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
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

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over `[0, n)` (`n` a power of two) by the rejection-free
/// method of Gray et al. Ranks are scattered over the key space by an
/// odd multiplier, a bijection mod `n`, so hot keys are not adjacent.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n.is_power_of_two() && n >= 2, "zipf key space must be a power of two");
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Rank drawn from the distribution, `0` the most popular.
    fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    pub fn key(&self, rng: &mut Rng) -> u64 {
        self.rank(rng).wrapping_mul(0x9E37_79B9_7F4A_7C15) & (self.n - 1)
    }
}

/// htap-scan writer: half overwrites, half point reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WriterOp {
    Put(u64),
    Get(u64),
}

pub fn writer_op(rng: &mut Rng, zipf: &Zipf) -> WriterOp {
    let key = zipf.key(rng);
    if rng.below(2) == 0 {
        WriterOp::Put(key)
    } else {
        WriterOp::Get(key)
    }
}

/// kv-wire: one request's shape (values are stamped at send time).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum WireOp {
    Get(u64),
    Put(u64),
    Multi(Vec<u64>),
}

pub const MULTI_PUTS: usize = 8;

/// 80% GET, 18% PUT, 2% MULTI of 8 puts, Zipf keys.
pub fn wire_op(rng: &mut Rng, zipf: &Zipf) -> WireOp {
    match rng.below(100) {
        0..=79 => WireOp::Get(zipf.key(rng)),
        80..=97 => WireOp::Put(zipf.key(rng)),
        _ => WireOp::Multi((0..MULTI_PUTS).map(|_| zipf.key(rng)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// Hash of the first ops of every stream a workload draws for `seed`.
    fn stream_hash(seed: u64) -> u64 {
        let mut h = DefaultHasher::new();
        let zipf = Zipf::new(1 << 14, 0.99);
        for stream in 0..2 {
            let mut rng = Rng::new(seed, stream);
            for _ in 0..10_000 {
                writer_op(&mut rng, &zipf).hash(&mut h);
                wire_op(&mut rng, &zipf).hash(&mut h);
            }
        }
        h.finish()
    }

    #[test]
    fn op_stream_is_a_function_of_the_seed() {
        assert_eq!(stream_hash(1), stream_hash(1));
        assert_eq!(stream_hash(42), stream_hash(42));
        assert_ne!(stream_hash(1), stream_hash(2));
        assert_ne!(stream_hash(1), stream_hash(42));
    }

    #[test]
    fn mixes_have_the_stated_shares() {
        let mut rng = Rng::new(9, 0);
        let zipf = Zipf::new(1 << 16, 0.99);
        let (mut gets, mut puts, mut multis) = (0, 0, 0);
        for _ in 0..100_000 {
            match wire_op(&mut rng, &zipf) {
                WireOp::Get(_) => gets += 1,
                WireOp::Put(_) => puts += 1,
                WireOp::Multi(keys) => {
                    assert_eq!(keys.len(), MULTI_PUTS);
                    multis += 1
                }
            }
        }
        assert!((79_000..81_000).contains(&gets), "gets {gets}");
        assert!((17_200..18_800).contains(&puts), "puts {puts}");
        assert!((1_700..2_300).contains(&multis), "multis {multis}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let n = 1 << 14;
        let zipf = Zipf::new(n, 0.99);
        let mut rng = Rng::new(3, 0);
        let mut counts = vec![0u32; n as usize];
        for _ in 0..200_000 {
            counts[zipf.key(&mut rng) as usize] += 1;
        }
        let hottest = *counts.iter().max().expect("non-empty");
        // Rank 0 takes about 1/zeta(n) ≈ 9.5% of draws at s = 0.99.
        assert!(hottest > 15_000 && hottest < 25_000, "hottest {hottest}");
        assert!(counts.iter().filter(|c| **c > 0).count() > 4_000);
    }
}
