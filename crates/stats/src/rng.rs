//! Deterministic RNG plumbing and jitter models.
//!
//! Every stochastic element of the simulator draws from an explicitly seeded
//! stream so that experiments reproduce bit-for-bit. Jitter is modeled as
//! a log-normal multiplier on service times: OS noise on the thesis' test
//! systems is strictly positive and heavy-tailed (§4.1, §5.6.3), which a
//! log-normal captures while keeping the median — the statistic the
//! benchmarks extract — equal to the noise-free value.
//!
//! Two delivery mechanisms exist:
//!
//! * [`JitterModel::draw`] over a `StdRng`, for call sites that draw
//!   occasionally as a program advances (BSPlib compute times, stencil
//!   compute). The Box-Muller transform produces two normals per uniform
//!   pair; `draw` caches the sine-branch output and serves it on the next
//!   call, so the scalar path costs one transcendental set per *two*
//!   draws.
//! * [`JitterBuf`] — the simulator's engine: a table of multipliers
//!   batch-filled from counter-based [`crate::stream::SplitMix64`]
//!   uniform streams through
//!   the tabulated quantile function
//!   ([`crate::stream::LognormalQuantileTable`]), consumed by cursor.
//!   This is the hot-path engine: the executor announces its exact draw
//!   count up front (`CompiledPattern::jitter_draws` in `hpm-core`), the
//!   buffer fills in one tight pass, and the inner simulation loop
//!   becomes pure indexed arithmetic.
//!   [`crate::stream::NormalSource`] keeps the exact (non-tabulated)
//!   composition as the reference the equivalence tests compare
//!   against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives an independent child RNG from a base seed and a stream label.
///
/// Mixing uses SplitMix64 so that nearby labels produce uncorrelated
/// streams; the same `(seed, label)` always yields the same stream.
pub fn derive_rng(seed: u64, label: u64) -> StdRng {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(label)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&next().to_le_bytes());
    }
    StdRng::from_seed(key)
}

/// Multiplicative log-normal jitter with median 1.
///
/// Copies are cheap and carry their own Box-Muller cache; equality
/// compares the configuration (`sigma`) only.
#[derive(Debug, Clone, Copy)]
pub struct JitterModel {
    /// Standard deviation of the underlying normal (log-space sigma).
    /// 0 disables jitter entirely.
    pub sigma: f64,
    /// Cached second Box-Muller output (the sine branch), served on the
    /// next call so a pair of draws costs one transcendental set.
    spare: Option<f64>,
}

impl PartialEq for JitterModel {
    fn eq(&self, other: &JitterModel) -> bool {
        self.sigma == other.sigma
    }
}

impl JitterModel {
    /// No jitter: every draw returns exactly 1.
    pub const NONE: JitterModel = JitterModel {
        sigma: 0.0,
        spare: None,
    };

    /// Creates a jitter model; `sigma` must be non-negative and finite.
    pub fn new(sigma: f64) -> JitterModel {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "jitter sigma must be finite and non-negative, got {sigma}"
        );
        JitterModel { sigma, spare: None }
    }

    /// Draws a multiplier with median 1 (log-normal, `exp(sigma·Z)`).
    ///
    /// Box-Muller from two uniforms (rand's StandardNormal would need the
    /// rand_distr crate, which we avoid), using *both* outputs: the
    /// cosine branch is returned immediately, the sine branch is cached
    /// and served on the next call without touching `rng`.
    pub fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let z = match self.spare.take() {
            Some(z) => z,
            None => {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen::<f64>();
                let r = (-2.0 * u1.ln()).sqrt();
                let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
                self.spare = Some(r * sin);
                r * cos
            }
        };
        (self.sigma * z).exp()
    }
}

/// A batch-filled table of jitter multipliers, consumed front to back.
///
/// The table holds `draws` *rows* of `lanes` multipliers in draw-major
/// (SoA) order: row `d` holds draw `d` of every lane contiguously, and
/// lane `l`'s multipliers come from the independent uniform stream
/// `(seed, label, first_rep + l)` pushed through the tabulated
/// log-normal quantile function
/// ([`crate::stream::LognormalQuantileTable`]) — so a repetition's
/// multiplier sequence depends only on its own coordinates, never on
/// how repetitions were grouped into lanes. With `sigma == 0` the buffer stays inactive:
/// nothing is filled, every row reads as ones and the cursor never moves,
/// mirroring the scalar path's `NONE` short-circuit (and keeping the
/// noiseless path bit-identical and RNG-free).
///
/// Consuming past the filled rows panics — the draw-count contract
/// between `CompiledPattern::jitter_draws` and the executors is enforced,
/// not assumed; [`JitterBuf::consumed`] lets tests audit the exact count.
#[derive(Debug, Clone)]
pub struct JitterBuf {
    mults: Vec<f64>,
    ones: Vec<f64>,
    lanes: usize,
    row: usize,
    active: bool,
    /// Tabulated `u ↦ exp(σ·Φ⁻¹(u))`, built on first active fill and
    /// reused while σ stays the same (it does, for a scratch lifetime).
    table: Option<crate::stream::LognormalQuantileTable>,
}

impl Default for JitterBuf {
    fn default() -> JitterBuf {
        JitterBuf::new()
    }
}

impl JitterBuf {
    /// An empty, inactive buffer; [`JitterBuf::fill`]/[`JitterBuf::fill_lanes`]
    /// size it. Buffers reuse their allocation across fills.
    pub fn new() -> JitterBuf {
        // No allocations here: hot paths `mem::take` their buffer out of
        // a scratch (leaving this default behind) once per run.
        JitterBuf {
            mults: Vec::new(),
            ones: Vec::new(),
            lanes: 1,
            row: 0,
            active: false,
            table: None,
        }
    }

    /// Fills a single-lane table of `draws` multipliers from the stream
    /// `(seed, label, rep)` and rewinds the cursor.
    pub fn fill(&mut self, sigma: f64, seed: u64, label: u64, rep: u64, draws: usize) {
        self.fill_lanes(sigma, seed, label, rep, 1, draws);
    }

    /// Fills a `draws × lanes` table, lane `l` from the stream
    /// `(seed, label, first_rep + l)`, and rewinds the cursor.
    pub fn fill_lanes(
        &mut self,
        sigma: f64,
        seed: u64,
        label: u64,
        first_rep: u64,
        lanes: usize,
        draws: usize,
    ) {
        assert!(lanes >= 1, "at least one lane");
        self.lanes = lanes;
        self.row = 0;
        self.active = sigma != 0.0;
        if !self.active {
            return;
        }
        if self.table.as_ref().is_none_or(|t| t.sigma() != sigma) {
            self.table = Some(crate::stream::LognormalQuantileTable::new(sigma));
        }
        let table = self.table.as_ref().expect("table built above");
        // Every slot is overwritten below, so `resize` only adjusts the
        // length (no clear: the allocation is reused across fills).
        self.mults.resize(draws * lanes, 0.0);
        for l in 0..lanes {
            let mut stream =
                crate::stream::SplitMix64::from_parts(seed, label, first_rep + l as u64);
            let mut idx = l;
            while idx < draws * lanes {
                self.mults[idx] = table.mult(stream.next_unit_open());
                idx += lanes;
            }
        }
    }

    /// Lane count of the current fill.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Rows consumed since the last fill (0 while inactive — the
    /// noiseless path draws nothing, exactly like the scalar
    /// short-circuit).
    pub fn consumed(&self) -> usize {
        self.row
    }

    /// The next multiplier of a single-lane fill (1.0 exactly while
    /// inactive, without advancing).
    #[inline]
    pub fn next_mult(&mut self) -> f64 {
        if !self.active {
            return 1.0;
        }
        // A hard assert, like the bounds check below it: consuming a
        // multi-lane fill element-wise would silently interleave lanes
        // into a wrong-but-plausible stream, and the engine's contract
        // is that plan/engine divergence cannot stay silent.
        assert_eq!(self.lanes, 1, "scalar consumption needs a 1-lane fill");
        let v = self.mults[self.row];
        self.row += 1;
        v
    }

    /// The next `k` rows (`k·lanes` multipliers, draw-major). While
    /// inactive, returns ones without advancing.
    #[inline]
    pub fn rows(&mut self, k: usize) -> &[f64] {
        let n = k * self.lanes;
        if !self.active {
            if self.ones.len() < n {
                self.ones.resize(n, 1.0);
            }
            return &self.ones[..n];
        }
        let start = self.row * self.lanes;
        self.row += k;
        &self.mults[start..start + n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::median;

    #[test]
    fn same_seed_same_stream() {
        let mut a = derive_rng(42, 7);
        let mut b = derive_rng(42, 7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = derive_rng(42, 7);
        let mut b = derive_rng(42, 8);
        let av: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut rng = derive_rng(1, 1);
        let mut none = JitterModel::NONE;
        for _ in 0..10 {
            assert_eq!(none.draw(&mut rng), 1.0);
        }
    }

    #[test]
    fn jitter_is_positive_with_median_near_one() {
        let mut jm = JitterModel::new(0.2);
        let mut rng = derive_rng(9, 3);
        let draws: Vec<f64> = (0..20_000).map(|_| jm.draw(&mut rng)).collect();
        assert!(draws.iter().all(|&x| x > 0.0));
        let med = median(&draws);
        assert!((med - 1.0).abs() < 0.02, "median {med}");
    }

    #[test]
    fn jitter_mean_exceeds_median() {
        // Log-normal is right-skewed: mean e^{σ²/2} > 1.
        let mut jm = JitterModel::new(0.5);
        let mut rng = derive_rng(5, 5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| jm.draw(&mut rng)).sum::<f64>() / n as f64;
        assert!(mean > 1.05, "mean {mean}");
    }

    /// The Box-Muller pair cache: two draws consume exactly one uniform
    /// pair, and the pair is the cosine/sine split of one radius.
    #[test]
    fn consecutive_draws_share_one_transcendental_pair() {
        let mut jm = JitterModel::new(0.3);
        let mut rng = derive_rng(1, 2);
        let d1 = jm.draw(&mut rng);
        let d2 = jm.draw(&mut rng);
        // Exactly two uniforms consumed for the two draws.
        let mut reference = derive_rng(1, 2);
        let _: f64 = reference.gen_range(f64::MIN_POSITIVE..1.0);
        let _: f64 = reference.gen();
        assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
        // cos²θ + sin²θ = 1: the two z's recombine into the radius.
        let (z1, z2) = (d1.ln() / 0.3, d2.ln() / 0.3);
        let r2 = z1 * z1 + z2 * z2;
        assert!(r2 > 0.0 && r2.is_finite());
    }

    /// Copying a model mid-pair duplicates the cache: both copies serve
    /// the same cached sine branch on their next draw. Copy a model
    /// *before* drawing from it if the streams must be independent.
    #[test]
    fn copies_duplicate_the_pair_cache() {
        let mut jm = JitterModel::new(0.3);
        let mut rng = derive_rng(4, 4);
        let _ = jm.draw(&mut rng);
        let mut copy = jm;
        let from_cache = jm.draw(&mut rng);
        let from_copy_cache = copy.draw(&mut rng);
        // Both serve the same cached sine branch without touching rng.
        assert_eq!(from_cache, from_copy_cache);
    }

    #[test]
    fn equality_ignores_the_cache() {
        let mut a = JitterModel::new(0.2);
        let b = JitterModel::new(0.2);
        let mut rng = derive_rng(6, 6);
        let _ = a.draw(&mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn jitter_buf_rows_match_per_lane_streams() {
        let mut buf = JitterBuf::new();
        buf.fill_lanes(0.05, 9, 3, 10, 4, 17);
        assert_eq!(buf.lanes(), 4);
        let mut flat: Vec<Vec<f64>> = (0..4)
            .map(|l| {
                let mut one = JitterBuf::new();
                one.fill(0.05, 9, 3, 10 + l as u64, 17);
                (0..17).map(|_| one.next_mult()).collect()
            })
            .collect();
        for d in 0..17 {
            let row = buf.rows(1).to_vec();
            for (l, lane) in flat.iter_mut().enumerate() {
                assert_eq!(row[l], lane[d], "draw {d} lane {l}");
            }
        }
        assert_eq!(buf.consumed(), 17);
    }

    #[test]
    fn inactive_buf_serves_ones_without_consuming() {
        let mut buf = JitterBuf::new();
        buf.fill_lanes(0.0, 1, 1, 0, 3, 100);
        assert!(buf.rows(4).iter().all(|&m| m == 1.0));
        assert_eq!(buf.consumed(), 0);
        assert_eq!(buf.next_mult(), 1.0);
    }

    #[test]
    #[should_panic]
    fn overconsuming_a_filled_buf_panics() {
        let mut buf = JitterBuf::new();
        buf.fill(0.1, 1, 1, 0, 2);
        let _ = buf.next_mult();
        let _ = buf.next_mult();
        let _ = buf.next_mult();
    }

    /// The scalar and batched streams describe the same distribution:
    /// their quantiles agree within sampling tolerance.
    #[test]
    fn batched_and_scalar_jitter_quantiles_agree() {
        use crate::quantile::quantile;
        let n = 60_000;
        let mut old_model = JitterModel::new(0.05);
        let mut rng = derive_rng(14, 0);
        let old: Vec<f64> = (0..n).map(|_| old_model.draw(&mut rng)).collect();
        let mut new = vec![0.0; n];
        crate::stream::NormalSource::new(14, 0, 0).fill_lognormal(0.05, &mut new);
        for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let a = quantile(&old, q);
            let b = quantile(&new, q);
            assert!(
                (a - b).abs() / a < 0.02,
                "quantile {q}: scalar {a} vs batched {b}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn negative_sigma_rejected() {
        JitterModel::new(-0.1);
    }
}
