//! Multi-period operation with adaptive array sizing.
//!
//! The paper's §IV-C loop: at the end of each measurement period the
//! central server folds the observed counters into the per-RSU history
//! average and recomputes next period's array sizes. This example runs a
//! week of periods through the full protocol while one RSU's traffic
//! grows 8x and another's collapses, and shows the arrays tracking.
//!
//! Run with: `cargo run --release --example multi_period`

use vcps::sim::pki::TrustedAuthority;
use vcps::sim::protocol::PeriodUpload;
use vcps::{RsuId, Scheme, ShardedServer, SimRsu, SimVehicle, VehicleIdentity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scheme = Scheme::variable(2, 3.0, 11)?;
    let authority = TrustedAuthority::new(99);
    let mut server = ShardedServer::new(scheme.clone(), 0.5, 1)?;

    // Day 0 history: both RSUs expect 10k vehicles.
    let growing = RsuId(1);
    let shrinking = RsuId(2);
    server.seed_history(growing, 10_000.0);
    server.seed_history(shrinking, 10_000.0);
    let mut sizes = server.finish_period()?;

    let mut rsus = vec![
        SimRsu::new(growing, sizes[&growing], &authority)?,
        SimRsu::new(shrinking, sizes[&shrinking], &authority)?,
    ];

    println!("day  n(growing)  m(growing)  load  |  n(shrinking)  m(shrinking)  load");
    let mut next_vehicle = 0u64;
    for day in 0..7u32 {
        // Traffic drifts: one RSU doubles every two days, the other halves.
        let n_grow = (10_000.0 * 2f64.powf(day as f64 / 2.0)) as u64;
        let n_shrink = (10_000.0 * 0.5f64.powf(day as f64 / 2.0)) as u64;

        let m_o = rsus.iter().map(|r| r.sketch().len()).max().unwrap();
        for (rsu, count) in rsus.iter_mut().zip([n_grow, n_shrink]) {
            let query = rsu.query();
            for _ in 0..count {
                next_vehicle += 1;
                let mut v = SimVehicle::new(
                    VehicleIdentity::from_raw(next_vehicle, next_vehicle ^ 0xFEED),
                    next_vehicle,
                );
                rsu.receive(&v.answer(&query, &scheme, &authority, m_o)?)?;
            }
        }

        println!(
            "{day:3}  {n_grow:10}  {:10}  {:4.1}  |  {n_shrink:12}  {:12}  {:4.1}",
            rsus[0].sketch().len(),
            rsus[0].sketch().load_factor(),
            rsus[1].sketch().len(),
            rsus[1].sketch().load_factor(),
        );

        // End of period: upload, update history, re-size.
        for rsu in &rsus {
            server.receive(PeriodUpload::decode(&rsu.upload().encode())?);
        }
        sizes = server.finish_period()?;
        for rsu in &mut rsus {
            rsu.start_period(Some(sizes[&rsu.id()]))?;
        }
    }

    println!("\nhistory averages after a week:");
    for (&rsu, m) in &sizes {
        let avg = server
            .history_average(rsu)
            .expect("sized RSUs have history");
        println!("  {rsu}: {avg:.0} vehicles/period -> next m = {m}");
    }
    println!("\n(arrays grow and shrink with traffic, keeping the load factor —");
    println!(" and hence both privacy and accuracy — stable at every RSU)");
    Ok(())
}
