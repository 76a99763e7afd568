//! The vehicles and RSUs of one period, driven in-process: every trip's
//! vehicle answers the query of each RSU on its route
//! (`SimVehicle::answer`) and the RSU records the report
//! (`SharedRsu::receive`).

use vcps_core::{RsuId, Scheme, VehicleIdentity};
use vcps_hash::splitmix64;
use vcps_sim::concurrent::SharedRsu;
use vcps_sim::pki::TrustedAuthority;
use vcps_sim::{BitReport, PeriodUpload, Query, SimVehicle};

use crate::gen::City;
use crate::trace::{SpanId, Tracer};

/// Trips answered before their reports are handed to the RSUs.
const CHUNK: usize = 4096;

/// The RSU id of grid intersection `j`.
#[must_use]
pub fn rsu_id(j: usize) -> RsuId {
    RsuId(j as u64 + 1)
}

/// What one period's fleet produced.
#[derive(Debug)]
pub struct FleetPeriod {
    /// The period's RSUs, holding their filled arrays.
    pub rsus: Vec<SharedRsu>,
    /// Reports answered and recorded.
    pub reports: u64,
    /// Failed answers or records.
    pub failed: u64,
}

/// Drives period `p` of `city` with RSU array sizes `sizes`, over
/// `threads` worker threads (the caller's thread is one of them).
///
/// # Panics
///
/// Panics if `sizes` does not hold one size ≥ 2 per RSU.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    city: &City,
    p: usize,
    sizes: &[usize],
    scheme: &Scheme,
    authority: &TrustedAuthority,
    threads: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> FleetPeriod {
    let n = city.rsu_count();
    assert_eq!(sizes.len(), n, "one array size per RSU");
    let rsus: Vec<SharedRsu> = (0..n)
        .map(|j| SharedRsu::new(rsu_id(j), sizes[j], authority).expect("array size >= 2"))
        .collect();
    let queries: Vec<Query> = rsus.iter().map(SharedRsu::query).collect();
    let m_o = sizes.iter().copied().max().expect("at least one RSU");
    let trips = &city.trips[p];
    let per_thread = trips.len().div_ceil(threads.max(1)).max(1);
    let work = |first: usize| -> (u64, u64) {
        let mut reports: Vec<(u32, BitReport)> = Vec::with_capacity(CHUNK * 16);
        let mut route = Vec::new();
        let (mut done, mut failed) = (0u64, 0u64);
        let end = (first + per_thread).min(trips.len());
        let mut k = first;
        while k < end {
            let stop = (k + CHUNK).min(end);
            reports.clear();
            let answering = tracer.open("vehicle.answer", parent, p as u64);
            for (offset, trip) in trips[k..stop].iter().enumerate() {
                let id = ((p as u64) << 32) | (k + offset) as u64;
                let mut vehicle = SimVehicle::new(
                    VehicleIdentity::from_raw(id, splitmix64(id ^ 0x5EED_CA75)),
                    splitmix64(id ^ 0xACE0_FBA5E),
                );
                city.route_into(trip, &mut route);
                for &node in &route {
                    match vehicle.answer(&queries[node as usize], scheme, authority, m_o) {
                        Ok(report) => reports.push((node, report)),
                        Err(_) => failed += 1,
                    }
                }
            }
            tracer.close(answering, reports.len() as u64);
            let receiving = tracer.open("rsu.receive", parent, p as u64);
            for (node, report) in &reports {
                match rsus[*node as usize].receive(report) {
                    Ok(()) => done += 1,
                    Err(_) => failed += 1,
                }
            }
            tracer.close(receiving, reports.len() as u64);
            k = stop;
        }
        (done, failed)
    };
    let (reports, failed) = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.max(1))
            .map(|t| {
                let work = &work;
                scope.spawn(move || work(t * per_thread))
            })
            .collect();
        let mut total = work(0);
        for h in helpers {
            let (d, f) = h.join().expect("fleet worker panicked");
            total.0 += d;
            total.1 += f;
        }
        total
    });
    FleetPeriod {
        rsus,
        reports,
        failed,
    }
}

/// Snapshots every RSU's upload (`SharedRsu::upload`), traced as one
/// `rsu.upload` span.
#[must_use]
pub fn uploads(rsus: &[SharedRsu], tracer: &Tracer, parent: SpanId, req: u64) -> Vec<PeriodUpload> {
    let span = tracer.open("rsu.upload", parent, req);
    let out: Vec<PeriodUpload> = rsus.iter().map(SharedRsu::upload).collect();
    tracer.close(span, out.len() as u64);
    out
}

/// Fill `n_x / m_x` of every upload.
#[must_use]
pub fn fills(uploads: &[PeriodUpload]) -> Vec<f64> {
    uploads
        .iter()
        .map(|u| u.counter as f64 / u.bits.len() as f64)
        .collect()
}

/// Array sizes for a period whose RSUs last saw `volumes` — the
/// scheme's public sizing rule, as the daemon applies it with
/// `alpha = 1`.
///
/// # Panics
///
/// Panics if the scheme cannot size a volume (not reachable for
/// variable sizing and finite volumes).
#[must_use]
pub fn sizes_for(scheme: &Scheme, volumes: &[u64]) -> Vec<usize> {
    volumes
        .iter()
        .map(|&v| scheme.array_size_for(v as f64).expect("sizeable volume"))
        .collect()
}

/// One generated day of RSU uploads: the fleet of every period runs with
/// arrays sized by the scheme's rule from the previous period's volumes
/// (the day's first period from its last, the previous night).
#[derive(Debug)]
pub struct Day {
    /// `[period][rsu]`.
    pub uploads: Vec<Vec<PeriodUpload>>,
    /// The sizes the daemon must answer when period `p` finishes (those
    /// of period `p + 1`), as `(rsu id, bits)`.
    pub next_sizes: Vec<Vec<(u64, u64)>>,
}

/// Runs every period of `city` through the fleet; see [`Day`].
#[must_use]
pub fn day(
    city: &City,
    scheme: &Scheme,
    authority: &TrustedAuthority,
    threads: usize,
    tracer: &Tracer,
) -> Day {
    let periods = city.trips.len();
    let mut sizes = sizes_for(scheme, &city.volumes(periods - 1));
    let mut uploads = Vec::with_capacity(periods);
    let mut next_sizes = Vec::with_capacity(periods);
    for p in 0..periods {
        let fleet = drive(
            city,
            p,
            &sizes,
            scheme,
            authority,
            threads,
            tracer,
            SpanId::NONE,
        );
        let period = self::uploads(&fleet.rsus, tracer, SpanId::NONE, p as u64);
        let counters: Vec<u64> = period.iter().map(|u| u.counter).collect();
        sizes = sizes_for(scheme, &counters);
        next_sizes.push(
            sizes
                .iter()
                .enumerate()
                .map(|(j, &m)| (rsu_id(j).0, m as u64))
                .collect(),
        );
        uploads.push(period);
    }
    Day {
        uploads,
        next_sizes,
    }
}
