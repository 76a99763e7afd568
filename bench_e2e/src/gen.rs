//! The benchmark's own seeded city generator.
//!
//! A `side × side` grid city with one RSU per intersection. Demand is a
//! gravity model over the intersections (hotspot masses, exponential
//! distance decay) scaled per period by a double-peaked diurnal profile.
//! Each period's real-valued O–D table is integerized by systematic
//! rounding: one seeded offset `u ∈ [0, 1)` per period, and cell `k`
//! gets `⌊C_k + u⌋ − ⌊C_{k−1} + u⌋` trips, where `C_k` is the running sum
//! of demand. Every cell receives the floor or the ceiling of its demand,
//! each cell's expectation is exact, and the period total is within one
//! vehicle of the demand total — no per-cell rounding threshold can starve
//! or inflate a period.
//!
//! Vehicles drive a Manhattan route (x then y, or y then x, by a seeded
//! coin) and pass the RSU of every intersection on it, so exact point
//! volumes and exact pair truth (vehicles passing both RSUs) follow
//! directly from the trips.
//!
//! The generator uses only `std` and `rand`: its output must not move
//! when the repository's own demand or assignment code changes.

use rand::{Rng, SeedableRng, StdRng};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct CitySpec {
    /// Grid side; the city has `side²` RSUs.
    pub side: usize,
    /// Periods in one day.
    pub periods: usize,
    /// Mean vehicles per period over the day.
    pub mean_vehicles: f64,
    /// Distance-decay length of the gravity model, in grid cells.
    pub decay_cells: f64,
    /// Secondary hotspots, on a ring around the central business district.
    pub hotspots: usize,
}

/// The metro-day city: 32 × 32 intersections (1024 RSUs), a day of 12
/// two-hour periods.
pub const METRO: CitySpec = CitySpec {
    side: 32,
    periods: 12,
    mean_vehicles: 40_000.0,
    decay_cells: 6.0,
    hotspots: 6,
};

/// The ingest-wal and live-queries city: 16 × 16 intersections (256
/// RSUs), a day of 24 hourly periods.
pub const DISTRICT: CitySpec = CitySpec {
    side: 16,
    periods: 24,
    mean_vehicles: 20_000.0,
    decay_cells: 4.0,
    hotspots: 3,
};

/// One vehicle trip: origin and destination intersections and which
/// axis the route follows first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trip {
    /// Origin intersection index (`y * side + x`).
    pub origin: u32,
    /// Destination intersection index.
    pub dest: u32,
    /// `true`: drive along x first, then y.
    pub x_first: bool,
}

/// A generated day.
#[derive(Debug, Clone)]
pub struct City {
    /// Grid side.
    pub side: usize,
    /// Real-valued demand total per period (before integerization).
    pub demand: Vec<f64>,
    /// The integerized trips of each period.
    pub trips: Vec<Vec<Trip>>,
}

/// Lowest and highest diurnal multipliers before renormalization: a
/// 2.52× swing between the night trough and the evening peak.
const PROFILE_LO: f64 = 0.568;
const PROFILE_HI: f64 = 1.432;

/// The diurnal multiplier for each of `periods` equal slices of a day:
/// morning and evening peaks over a midday shoulder, mapped onto
/// `[PROFILE_LO, PROFILE_HI]` and renormalized to mean 1 (which keeps
/// the max/min ratio).
#[must_use]
pub fn diurnal_profile(periods: usize) -> Vec<f64> {
    assert!(periods > 0, "a day needs at least one period");
    let bump = |t: f64, centre: f64, width: f64| (-0.5 * ((t - centre) / width).powi(2)).exp();
    let shape: Vec<f64> = (0..periods)
        .map(|p| {
            let t = (p as f64 + 0.5) * 24.0 / periods as f64;
            bump(t, 8.0, 1.6) + 0.85 * bump(t, 17.5, 2.0) + 0.3 * bump(t, 13.0, 3.0)
        })
        .collect();
    let lo = shape.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = shape.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let mapped: Vec<f64> = shape
        .iter()
        .map(|&s| PROFILE_LO + (PROFILE_HI - PROFILE_LO) * (s - lo) / span)
        .collect();
    let mean = mapped.iter().sum::<f64>() / periods as f64;
    mapped.iter().map(|m| m / mean).collect()
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal spread of each intersection's mass around its layout value.
const MASS_NOISE: f64 = 0.25;

/// Normalized gravity table `D[o * n + d]` (zero diagonal, sums to 1).
fn gravity_table(spec: &CitySpec, rng: &mut StdRng) -> Vec<f64> {
    let side = spec.side;
    let n = side * side;
    let s = side as f64;
    // The layout is fixed — a central business district and secondary
    // hotspots evenly spaced on a ring — so seeds vary the demand drawn
    // on the city, not the city's shape.
    let mut centres = vec![(s / 2.0, s / 2.0, 6.0, s / 8.0)];
    for h in 0..spec.hotspots {
        let angle = std::f64::consts::TAU * h as f64 / spec.hotspots as f64;
        let amplitude = if h % 2 == 0 { 2.0 } else { 1.5 };
        centres.push((
            s / 2.0 + 0.3 * s * angle.cos(),
            s / 2.0 + 0.3 * s * angle.sin(),
            amplitude,
            s / 12.0,
        ));
    }
    let mass: Vec<f64> = (0..n)
        .map(|i| {
            let (x, y) = ((i % side) as f64, (i / side) as f64);
            let pull: f64 = centres
                .iter()
                .map(|&(cx, cy, a, r)| {
                    let d2 = (x - cx).powi(2) + (y - cy).powi(2);
                    a * (-d2 / (2.0 * r * r)).exp()
                })
                .sum();
            (0.3 + pull) * (MASS_NOISE * standard_normal(rng)).exp()
        })
        .collect();
    let decay: Vec<f64> = (0..2 * side)
        .map(|d| (-(d as f64) / spec.decay_cells).exp())
        .collect();
    let mut table = vec![0.0; n * n];
    let mut total = 0.0;
    for o in 0..n {
        let (ox, oy) = (o % side, o / side);
        for d in 0..n {
            if d == o {
                continue;
            }
            let (dx, dy) = (d % side, d / side);
            let w = mass[o] * mass[d] * decay[ox.abs_diff(dx) + oy.abs_diff(dy)];
            table[o * n + d] = w;
            total += w;
        }
    }
    for w in &mut table {
        *w /= total;
    }
    table
}

/// Systematic rounding of `table * scale`: trips per cell, conserving
/// the total to within one and each cell's demand in expectation.
fn integerize(table: &[f64], scale: f64, offset: f64) -> Vec<(usize, u32)> {
    let mut cumulative = 0.0;
    let mut prev = offset.floor();
    let mut cells = Vec::new();
    for (k, &w) in table.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        cumulative += w * scale;
        let now = (cumulative + offset).floor();
        let count = now - prev;
        prev = now;
        if count > 0.0 {
            cells.push((k, count as u32));
        }
    }
    cells
}

impl City {
    /// Generates one day of trips, deterministically per `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.side < 2` or `spec.periods == 0`.
    #[must_use]
    pub fn generate(spec: &CitySpec, seed: u64) -> Self {
        assert!(spec.side >= 2, "a city needs at least a 2x2 grid");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6E0C_175E_ED00);
        let n = spec.side * spec.side;
        let table = gravity_table(spec, &mut rng);
        let profile = diurnal_profile(spec.periods);
        let demand: Vec<f64> = profile.iter().map(|f| f * spec.mean_vehicles).collect();
        let trips = demand
            .iter()
            .map(|&total| {
                let offset = rng.random::<f64>();
                let cells = integerize(&table, total, offset);
                let mut trips = Vec::new();
                for (k, count) in cells {
                    for _ in 0..count {
                        trips.push(Trip {
                            origin: (k / n) as u32,
                            dest: (k % n) as u32,
                            x_first: rng.random::<bool>(),
                        });
                    }
                }
                trips
            })
            .collect();
        Self {
            side: spec.side,
            demand,
            trips,
        }
    }

    /// Whether every period's vehicle count is within one of its demand.
    #[must_use]
    pub fn conserves_demand(&self) -> bool {
        self.trips
            .iter()
            .zip(&self.demand)
            .all(|(trips, &d)| (trips.len() as f64 - d).abs() <= 1.0)
    }

    /// Number of RSUs (intersections).
    #[must_use]
    pub fn rsu_count(&self) -> usize {
        self.side * self.side
    }

    /// Writes the intersections `trip` passes, in driving order, into
    /// `out` (cleared first). Origin and destination included.
    pub fn route_into(&self, trip: &Trip, out: &mut Vec<u32>) {
        out.clear();
        let side = self.side as i64;
        let (ox, oy) = (i64::from(trip.origin) % side, i64::from(trip.origin) / side);
        let (dx, dy) = (i64::from(trip.dest) % side, i64::from(trip.dest) / side);
        let node = |x: i64, y: i64| (y * side + x) as u32;
        let step = |from: i64, to: i64| if to >= from { 1 } else { -1 };
        let (mut x, mut y) = (ox, oy);
        out.push(node(x, y));
        let legs = if trip.x_first {
            [true, false]
        } else {
            [false, true]
        };
        for along_x in legs {
            if along_x {
                let s = step(x, dx);
                while x != dx {
                    x += s;
                    out.push(node(x, y));
                }
            } else {
                let s = step(y, dy);
                while y != dy {
                    y += s;
                    out.push(node(x, y));
                }
            }
        }
    }

    /// Exact point volumes of period `p`: vehicles passing each RSU.
    #[must_use]
    pub fn volumes(&self, p: usize) -> Vec<u64> {
        let mut volumes = vec![0u64; self.rsu_count()];
        let mut route = Vec::new();
        for trip in &self.trips[p] {
            self.route_into(trip, &mut route);
            for &node in &route {
                volumes[node as usize] += 1;
            }
        }
        volumes
    }

    /// Exact pair truth of period `p` over the upper triangle, in the
    /// row-major `(i, j), i < j` order of the daemon's O–D matrix:
    /// vehicles whose route passes both RSUs.
    #[must_use]
    pub fn pair_truth(&self, p: usize) -> Vec<u32> {
        let n = self.rsu_count();
        let mut truth = vec![0u32; n * (n - 1) / 2];
        let mut route = Vec::new();
        for trip in &self.trips[p] {
            self.route_into(trip, &mut route);
            route.sort_unstable();
            for (k, &a) in route.iter().enumerate() {
                for &b in &route[k + 1..] {
                    truth[triangle_index(n, a as usize, b as usize)] += 1;
                }
            }
        }
        truth
    }

    /// The `count` busiest corridors (RSU index pairs `a < b`) by exact
    /// pair truth in the day's busiest period, busiest first.
    #[must_use]
    pub fn corridors(&self, count: usize) -> Vec<(usize, usize)> {
        let n = self.rsu_count();
        let peak = (0..self.trips.len())
            .max_by_key(|&p| self.trips[p].len())
            .expect("at least one period");
        let truth = self.pair_truth(peak);
        let mut ranked = Vec::with_capacity(truth.len());
        for a in 0..n {
            for b in a + 1..n {
                ranked.push((truth[triangle_index(n, a, b)], a, b));
            }
        }
        ranked.sort_unstable_by(|x, y| y.0.cmp(&x.0).then((x.1, x.2).cmp(&(y.1, y.2))));
        let pairs: Vec<(usize, usize)> =
            ranked.iter().take(count).map(|&(_, a, b)| (a, b)).collect();
        pairs
    }
}

/// Index of pair `(i, j)`, `i < j`, in a row-major upper triangle over
/// `n` items.
#[must_use]
pub fn triangle_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(periods: usize) -> CitySpec {
        CitySpec {
            side: 12,
            periods,
            mean_vehicles: 6_000.0,
            decay_cells: 4.0,
            hotspots: 3,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = City::generate(&spec(6), 7);
        let b = City::generate(&spec(6), 7);
        let c = City::generate(&spec(6), 8);
        assert_eq!(a.trips, b.trips);
        assert_ne!(a.trips, c.trips);
    }

    #[test]
    fn integerization_conserves_demand() {
        let city = City::generate(&spec(12), 3);
        for (p, trips) in city.trips.iter().enumerate() {
            let got = trips.len() as f64;
            assert!(
                (got - city.demand[p]).abs() <= 1.0,
                "period {p}: {got} vehicles for demand {}",
                city.demand[p]
            );
        }
        assert!(city.conserves_demand());
    }

    #[test]
    fn period_ratio_tracks_the_diurnal_profile() {
        let city = City::generate(&spec(24), 11);
        let profile = diurnal_profile(24);
        let (lo, hi) = profile
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)));
        assert!((hi / lo - PROFILE_HI / PROFILE_LO).abs() < 1e-9);
        for p in 0..24 {
            for q in 0..24 {
                let got = city.trips[p].len() as f64 / city.trips[q].len() as f64;
                let want = profile[p] / profile[q];
                assert!(
                    (got / want - 1.0).abs() < 0.002,
                    "periods {p}/{q}: ratio {got} vs profile {want}"
                );
            }
        }
    }

    #[test]
    fn systematic_rounding_hits_floor_or_ceiling_per_cell() {
        let table = [0.1, 0.25, 0.05, 0.3, 0.2, 0.1];
        for offset in [0.13, 0.37, 0.99] {
            let cells = integerize(&table, 17.0, offset);
            let mut counts = [0u32; 6];
            for (k, c) in cells {
                counts[k] = c;
            }
            for (k, &w) in table.iter().enumerate() {
                let want = w * 17.0;
                let got = f64::from(counts[k]);
                assert!(got >= want.floor() && got <= want.ceil(), "cell {k}");
            }
            assert_eq!(counts.iter().sum::<u32>(), 17);
        }
    }

    #[test]
    fn routes_are_manhattan_paths() {
        let city = City::generate(&spec(1), 1);
        let mut route = Vec::new();
        for trip in city.trips[0].iter().take(200) {
            city.route_into(trip, &mut route);
            let side = city.side as u32;
            let dist = (trip.origin % side).abs_diff(trip.dest % side)
                + (trip.origin / side).abs_diff(trip.dest / side);
            assert_eq!(route.len() as u32, dist + 1);
            assert_eq!(route[0], trip.origin);
            assert_eq!(*route.last().unwrap(), trip.dest);
            let mut sorted = route.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), route.len(), "a route never revisits");
        }
    }

    #[test]
    fn pair_truth_counts_shared_passages() {
        let city = City::generate(&spec(1), 5);
        let n = city.rsu_count();
        let truth = city.pair_truth(0);
        let volumes = city.volumes(0);
        // Brute force on a few pairs.
        let mut route = Vec::new();
        for &(a, b) in &[(0usize, 1usize), (5, 17), (60, 61), (70, 82)] {
            let mut both = 0u32;
            for trip in &city.trips[0] {
                city.route_into(trip, &mut route);
                if route.contains(&(a as u32)) && route.contains(&(b as u32)) {
                    both += 1;
                }
            }
            assert_eq!(truth[triangle_index(n, a, b)], both);
            assert!(u64::from(both) <= volumes[a].min(volumes[b]));
        }
        // One period: the busiest period is period 0, so corridors rank
        // by this truth.
        let corridors = city.corridors(5);
        assert_eq!(corridors.len(), 5);
        for w in corridors.windows(2) {
            let t = |(a, b): (usize, usize)| truth[triangle_index(n, a, b)];
            assert!(t(w[0]) >= t(w[1]));
        }
    }
}
