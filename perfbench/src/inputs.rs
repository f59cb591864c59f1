//! Seeded inputs whose cost does not swing with the seed.
//!
//! `asj_workloads::gaussian_clusters` draws its cluster centres from the
//! seed, so two seeds can put two clusters on top of each other or a
//! whole map apart and change a join's cost fifty-fold. A benchmark
//! compares runs across seeds, so here the map is fixed — cluster centres
//! are constants, like districts of one city — and the seed draws the
//! points around them. `rail_fleet_live` keeps both of its datasets fixed,
//! like the one real rail dataset the paper uses; its seed drives the
//! updates and the faults.

use asj_geom::{Point, Rect, SpatialObject};
use asj_workloads::snap;

/// Cluster spread as a fraction of the space width, the generator's
/// default (250 units in the 10 000-unit space).
pub const SIGMA_FRACTION: f64 = 0.025;

/// Fixed centres, as fractions of the space, for the `k = 4` side.
pub const CENTRES_4: &[(f64, f64)] = &[(0.22, 0.26), (0.64, 0.31), (0.35, 0.72), (0.79, 0.77)];

/// Fixed centres for the `k = 8` side: four near the `k = 4` centres
/// (the joins have work to do there) and four far from them (pruning
/// pays there).
pub const CENTRES_8: &[(f64, f64)] = &[
    (0.25, 0.29),
    (0.61, 0.33),
    (0.38, 0.69),
    (0.76, 0.74),
    (0.12, 0.85),
    (0.90, 0.12),
    (0.50, 0.50),
    (0.08, 0.08),
];

/// The SplitMix64 output function: nearby inputs give unrelated outputs.
pub fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64's increment (2^64 / golden ratio).
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: a small, seedable generator for the benchmark's inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal pair (Box–Muller), truncated at 2.5 sigma like
    /// the repository's generator.
    fn normal_pair(&mut self) -> (f64, f64) {
        loop {
            let u1 = self.unit().max(f64::MIN_POSITIVE);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * self.unit();
            let (x, y) = (r * theta.cos(), r * theta.sin());
            if x * x + y * y <= 2.5 * 2.5 {
                return (x, y);
            }
        }
    }
}

/// `n` points around fixed `centres` (fractions of `space`), each point
/// picking a centre uniformly and a truncated Gaussian offset;
/// coordinates are clamped into the space and snapped through `f32` so
/// they survive the wire encoding exactly.
pub fn clustered(space: Rect, n: usize, centres: &[(f64, f64)], seed: u64) -> Vec<SpatialObject> {
    let mut rng = SplitMix(seed);
    let sigma = space.width() * SIGMA_FRACTION;
    let centres: Vec<Point> = centres
        .iter()
        .map(|&(fx, fy)| {
            Point::new(
                space.min.x + fx * space.width(),
                space.min.y + fy * space.height(),
            )
        })
        .collect();
    (0..n)
        .map(|i| {
            let c = centres[(rng.next_u64() % centres.len() as u64) as usize];
            let (gx, gy) = rng.normal_pair();
            let x = (c.x + gx * sigma).clamp(space.min.x, space.max.x);
            let y = (c.y + gy * sigma).clamp(space.min.y, space.max.y);
            SpatialObject::point(i as u32, snap(x), snap(y))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Rect {
        Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0)
    }

    #[test]
    fn same_seed_same_points_other_seed_other_points() {
        let a = clustered(space(), 500, CENTRES_4, 1);
        assert_eq!(a, clustered(space(), 500, CENTRES_4, 1));
        assert_ne!(a, clustered(space(), 500, CENTRES_4, 2));
    }

    #[test]
    fn points_stay_near_their_centres_inside_the_space() {
        let sigma = 10_000.0 * SIGMA_FRACTION;
        for o in clustered(space(), 2_000, CENTRES_8, 9) {
            let p = o.mbr.min;
            assert!(space().contains_half_open(&p) || p.x == 10_000.0 || p.y == 10_000.0);
            let near = CENTRES_8.iter().any(|&(fx, fy)| {
                let d = (p.x - fx * 10_000.0).hypot(p.y - fy * 10_000.0);
                d <= 2.5 * sigma + 1e-3
            });
            assert!(near, "{p:?} is farther than 2.5 sigma from every centre");
            assert_eq!(p.x, p.x as f32 as f64);
        }
    }
}
