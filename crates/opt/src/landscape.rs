//! Synthetic cost landscapes with the "big valley" structure observed in
//! physical-design optimization (Boese–Kahng–Muddu \[5\]).
//!
//! The big-valley hypothesis: local minima of iterative-optimization cost
//! functions are clustered, and better minima tend to lie nearer the best
//! one. [`BigValley`] realizes this by superimposing sinusoidal ruggedness
//! on a global quadratic bowl; [`NkLandscape`] is Kauffman's NK model for a
//! discrete counterpart with tunable epistasis.

use crate::Landscape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A rugged continuous landscape: quadratic bowl plus sinusoidal noise.
///
/// `cost(x) = Σᵢ (xᵢ - cᵢ)² + a Σᵢ sin²(ω xᵢ + φᵢ)`
///
/// With `a > 0` the landscape has ~`(ω·range/π)^dim` local minima whose
/// depths improve toward the bowl centre `c` — a textbook big valley.
#[derive(Debug, Clone)]
pub struct BigValley {
    dim: usize,
    center: Vec<f64>,
    phase: Vec<f64>,
    amplitude: f64,
    omega: f64,
    range: f64,
}

impl BigValley {
    /// Creates a landscape of dimension `dim` with ruggedness `amplitude`,
    /// deterministically from `seed` (which draws the hidden bowl centre
    /// and phases).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `amplitude < 0`.
    #[must_use]
    pub fn new(dim: usize, amplitude: f64, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        let range = 10.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let center: Vec<f64> = (0..dim)
            .map(|_| rng.gen_range(-range * 0.5..range * 0.5))
            .collect();
        let phase: Vec<f64> = (0..dim)
            .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
            .collect();
        Self {
            dim,
            center,
            phase,
            amplitude,
            omega: 3.0,
            range,
        }
    }

    /// Dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The global-bowl centre (for test oracles).
    #[must_use]
    pub fn center(&self) -> &[f64] {
        &self.center
    }
}

impl Landscape for BigValley {
    type State = Vec<f64>;

    fn random_state(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..self.dim)
            .map(|_| rng.gen_range(-self.range..self.range))
            .collect()
    }

    fn cost(&self, x: &Vec<f64>) -> f64 {
        x.iter()
            .zip(&self.center)
            .zip(&self.phase)
            .map(|((xi, ci), ph)| {
                let d = xi - ci;
                let s = (self.omega * xi + ph).sin();
                d * d + self.amplitude * s * s
            })
            .sum()
    }

    fn neighbor(&self, x: &Vec<f64>, rng: &mut StdRng) -> Vec<f64> {
        let mut y = x.clone();
        let i = rng.gen_range(0..self.dim);
        y[i] += rng.gen_range(-0.5..0.5);
        y[i] = y[i].clamp(-self.range, self.range);
        y
    }

    fn distance(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    /// Adaptive-multistart combination: a cost-weighted centroid of the
    /// pool, perturbed — the Boese–Kahng "start near the good minima" rule.
    fn combine(&self, pool: &[(Vec<f64>, f64)], rng: &mut StdRng) -> Vec<f64> {
        if pool.is_empty() {
            return self.random_state(rng);
        }
        let worst = pool
            .iter()
            .map(|(_, c)| *c)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut weights: Vec<f64> = pool.iter().map(|(_, c)| worst - c + 1e-9).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let mut centroid = vec![0.0; self.dim];
        for ((s, _), w) in pool.iter().zip(&weights) {
            for (c, v) in centroid.iter_mut().zip(s) {
                *c += w * v;
            }
        }
        for c in &mut centroid {
            *c += rng.gen_range(-0.8..0.8);
            *c = c.clamp(-self.range, self.range);
        }
        centroid
    }
}

/// Kauffman's NK landscape over binary strings of length `n`, where each
/// bit's fitness contribution depends on itself and `k` other bits.
/// Larger `k` ⇒ more rugged, less big-valley structure.
#[derive(Debug, Clone)]
pub struct NkLandscape {
    n: usize,
    /// `neighbors[i]` = the k other loci that bit i interacts with.
    neighbors: Vec<Vec<usize>>,
    /// Contribution tables: `tables[i][pattern]` for the (k+1)-bit pattern.
    tables: Vec<Vec<f64>>,
}

impl NkLandscape {
    /// Creates an NK landscape deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `k >= n`, or `k > 20`.
    #[must_use]
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(k < n, "k must be less than n");
        assert!(k <= 20, "k too large for table representation");
        let mut rng = StdRng::seed_from_u64(seed);
        let neighbors: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
                // Partial Fisher-Yates: take k random others.
                for t in 0..k {
                    let j = rng.gen_range(t..others.len());
                    others.swap(t, j);
                }
                others.truncate(k);
                others
            })
            .collect();
        let tables: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..(1usize << (k + 1)))
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect()
            })
            .collect();
        Self {
            n,
            neighbors,
            tables,
        }
    }
}

impl Landscape for NkLandscape {
    type State = Vec<bool>;

    fn random_state(&self, rng: &mut StdRng) -> Vec<bool> {
        (0..self.n).map(|_| rng.gen::<bool>()).collect()
    }

    fn cost(&self, s: &Vec<bool>) -> f64 {
        // Cost = -fitness so all strategies minimize.
        let mut fitness = 0.0;
        for i in 0..self.n {
            let mut pattern = usize::from(s[i]);
            for (bit, &j) in self.neighbors[i].iter().enumerate() {
                pattern |= usize::from(s[j]) << (bit + 1);
            }
            fitness += self.tables[i][pattern];
        }
        -fitness / self.n as f64
    }

    fn neighbor(&self, s: &Vec<bool>, rng: &mut StdRng) -> Vec<bool> {
        let mut t = s.clone();
        let i = rng.gen_range(0..self.n);
        t[i] = !t[i];
        t
    }

    fn distance(&self, a: &Vec<bool>, b: &Vec<bool>) -> f64 {
        a.iter().zip(b).filter(|(x, y)| x != y).count() as f64
    }

    /// Bitwise weighted majority vote over the pool, with mutation.
    fn combine(&self, pool: &[(Vec<bool>, f64)], rng: &mut StdRng) -> Vec<bool> {
        if pool.is_empty() {
            return self.random_state(rng);
        }
        let worst = pool
            .iter()
            .map(|(_, c)| *c)
            .fold(f64::NEG_INFINITY, f64::max);
        (0..self.n)
            .map(|i| {
                let mut vote = 0.0;
                let mut total = 0.0;
                for (s, c) in pool {
                    let w = worst - c + 1e-9;
                    total += w;
                    if s[i] {
                        vote += w;
                    }
                }
                if rng.gen::<f64>() < 0.05 {
                    rng.gen::<bool>() // mutation keeps diversity
                } else {
                    vote > total * 0.5
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_valley_center_is_near_optimal() {
        let l = BigValley::new(4, 0.5, 7);
        let c = l.center().to_vec();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = l.random_state(&mut rng);
            // The centre's cost is within the ruggedness amplitude of any
            // random state's cost.
            assert!(l.cost(&c) <= l.cost(&s) + 0.5 * 4.0);
        }
        // And the bowl term at the centre is zero, so cost <= a*dim.
        assert!(l.cost(&c) <= 0.5 * 4.0);
    }

    #[test]
    fn big_valley_is_deterministic_per_seed() {
        let a = BigValley::new(3, 1.0, 42);
        let b = BigValley::new(3, 1.0, 42);
        assert_eq!(a.center(), b.center());
        let s = vec![1.0, 2.0, 3.0];
        assert_eq!(a.cost(&s), b.cost(&s));
    }

    #[test]
    fn big_valley_neighbor_changes_one_coord() {
        let l = BigValley::new(5, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let s = l.random_state(&mut rng);
        let t = l.neighbor(&s, &mut rng);
        let diff = s.iter().zip(&t).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1);
        assert!(l.distance(&s, &t) <= 0.5 + 1e-12);
    }

    #[test]
    fn nk_cost_in_expected_range() {
        let l = NkLandscape::new(20, 3, 11);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let s = l.random_state(&mut rng);
            let c = l.cost(&s);
            assert!((-1.0..=0.0).contains(&c), "cost {c}");
        }
    }

    #[test]
    fn nk_zero_k_is_separable_and_easy() {
        // With k=0 each bit contributes independently: greedy per-bit flip
        // must reach the global optimum.
        let l = NkLandscape::new(16, 0, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = l.random_state(&mut rng);
        let mut improved = true;
        while improved {
            improved = false;
            for i in 0..16 {
                let mut t = s.clone();
                t[i] = !t[i];
                if l.cost(&t) < l.cost(&s) {
                    s = t;
                    improved = true;
                }
            }
        }
        // Optimal = per-bit best. Compute directly.
        let optimal: f64 = -(0..16)
            .map(|i| l.tables[i][0].max(l.tables[i][1]))
            .sum::<f64>()
            / 16.0;
        assert!((l.cost(&s) - optimal).abs() < 1e-12);
    }

    #[test]
    fn nk_distance_is_hamming() {
        let l = NkLandscape::new(8, 2, 1);
        let a = vec![true; 8];
        let mut b = vec![true; 8];
        b[0] = false;
        b[5] = false;
        assert_eq!(l.distance(&a, &b), 2.0);
    }

    #[test]
    fn combine_biases_toward_pool() {
        let l = BigValley::new(6, 0.0, 13);
        let mut rng = StdRng::seed_from_u64(4);
        let good = l.center().to_vec();
        let pool = vec![(good.clone(), l.cost(&good))];
        let mut sum_dist = 0.0;
        for _ in 0..50 {
            let s = l.combine(&pool, &mut rng);
            sum_dist += l.distance(&s, &good);
        }
        let mean_combined = sum_dist / 50.0;
        let mut sum_rand = 0.0;
        for _ in 0..50 {
            let s = l.random_state(&mut rng);
            sum_rand += l.distance(&s, &good);
        }
        let mean_random = sum_rand / 50.0;
        assert!(
            mean_combined < mean_random,
            "combined {mean_combined} vs random {mean_random}"
        );
    }

    #[test]
    #[should_panic(expected = "k must be less than n")]
    fn nk_rejects_k_ge_n() {
        let _ = NkLandscape::new(4, 4, 0);
    }
}
