//! Seeded input generation. Everything a client will submit is drawn here,
//! before any timing starts; the engine only ever sees the drawn keys.

/// xoshiro256** seeded through SplitMix64 — the harness's own generator, so
/// inputs depend on nothing but `--seed`.
pub struct Rng([u64; 4]);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The generator for `stream` (a client index) under `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        Rng([splitmix(&mut s), splitmix(&mut s), splitmix(&mut s), splitmix(&mut s)])
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `r` is drawn with probability ∝ 1/(r+1)^s.
    pub fn new(n: u32, s: f64) -> Self {
        let mut cdf: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w;
            *w = acc;
        }
        for w in &mut cdf {
            *w /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of rank `r`.
    pub fn mass(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    /// Draw a rank.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1) as u32
    }
}

/// One client's pre-generated transactions: `stride` words each.
pub struct Inputs {
    stride: usize,
    words: Vec<u32>,
}

impl Inputs {
    /// Draw `txns` transactions of `stride` words with `draw`, which fills
    /// one transaction's slice.
    pub fn generate(txns: usize, stride: usize, mut draw: impl FnMut(&mut [u32])) -> Self {
        let mut words = vec![0u32; txns * stride];
        for txn in words.chunks_exact_mut(stride) {
            draw(txn);
        }
        Inputs { stride, words }
    }

    /// Number of transactions in the pool.
    pub fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// True iff the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Transaction `i`, wrapping around the pool.
    #[inline]
    pub fn get(&self, i: usize) -> &[u32] {
        let at = (i % self.len()) * self.stride;
        &self.words[at..at + self.stride]
    }

    /// The raw words (for determinism checks).
    pub fn words(&self) -> &[u32] {
        &self.words
    }
}
