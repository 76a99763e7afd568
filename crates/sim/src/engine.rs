//! A discrete-event engine driving vehicles along road-network routes.
//!
//! Table I's workload is "traffic generated according to the known
//! vehicle trip table under the Sioux Falls network". This module turns
//! per-vehicle routes ([`vcps_roadnet::VehicleTrip`]) into a time-ordered
//! stream of RSU arrivals (each arrival triggers one query/answer
//! exchange) and runs the paper's measurement loop over a whole network
//! with one driver, [`PeriodRun`]: every node hosts an RSU, every
//! arrival records one passage, every RSU uploads at period end, and
//! each period's counters size the next period's arrays. The server
//! shape — in-memory at any shard count, or write-ahead-logged — is a
//! [`ServerBackend`] type parameter, so every shape runs the same code.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use vcps_core::estimator::Estimate;
use vcps_core::{CoreError, PairEstimate, RsuId, Scheme, VehicleIdentity};
use vcps_hash::splitmix64;
use vcps_obs::{Obs, Phase};
use vcps_roadnet::{RoadNetwork, VehicleTrip};

use crate::concurrent::{self, SharedRsu};
use crate::durable::RecoveryReport;
use crate::faults::{self, Channel, FaultPlan, RetryPolicy, ServerCrash};
use crate::metrics::FaultMetrics;
use crate::metro::SlidingWindow;
use crate::pki::TrustedAuthority;
use crate::protocol::{BatchUpload, BitReport, Query, SequencedUpload, UploadFrameRef};
use crate::{OdMatrix, ReceiveOutcome, ShardedServer, SimError, SimVehicle};

/// One vehicle reaching one RSU site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Simulation time of the arrival.
    pub time: f64,
    /// Index of the vehicle in the input trip list.
    pub vehicle: usize,
    /// The node (RSU site) reached.
    pub node: usize,
}

/// Internal event: vehicle `vehicle` arrives at `route[hop]` at `time`.
#[derive(Debug, PartialEq)]
struct Event {
    time: f64,
    vehicle: usize,
    hop: usize,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on time; deterministic tie-break on (vehicle, hop).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.vehicle.cmp(&self.vehicle))
            .then_with(|| other.hop.cmp(&self.hop))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulates all trips and returns every RSU arrival in time order.
///
/// Each vehicle departs at `departures[i]` and advances along its route
/// with per-link travel times taken from `link_times` (indexed like
/// `net.links()`). Links missing from the route's node pairs fall back to
/// free-flow time — this cannot happen for routes produced by the
/// assignment module, but keeps hand-written routes usable.
///
/// # Panics
///
/// Panics if `departures.len() != trips.len()` or
/// `link_times.len() != net.link_count()`.
#[must_use]
pub fn simulate_arrivals(
    net: &RoadNetwork,
    link_times: &[f64],
    trips: &[VehicleTrip],
    departures: &[f64],
) -> Vec<Arrival> {
    assert_eq!(departures.len(), trips.len(), "one departure per trip");
    assert_eq!(
        link_times.len(),
        net.link_count(),
        "one travel time per link"
    );
    // (from, to) -> travel time lookup.
    let mut time_of: HashMap<(usize, usize), f64> = HashMap::with_capacity(net.link_count());
    for (i, link) in net.links().iter().enumerate() {
        time_of.insert((link.from, link.to), link_times[i]);
        // Keep the first (cheapest-index) entry on parallel links.
        time_of.entry((link.from, link.to)).or_insert(link_times[i]);
    }

    let mut heap = BinaryHeap::with_capacity(trips.len());
    for (i, _) in trips.iter().enumerate() {
        heap.push(Event {
            time: departures[i],
            vehicle: i,
            hop: 0,
        });
    }

    let mut arrivals = Vec::new();
    while let Some(Event { time, vehicle, hop }) = heap.pop() {
        let route = &trips[vehicle].route;
        if hop >= route.len() {
            continue;
        }
        arrivals.push(Arrival {
            time,
            vehicle,
            node: route[hop],
        });
        if hop + 1 < route.len() {
            let from = route[hop];
            let to = route[hop + 1];
            let hop_time = time_of.get(&(from, to)).copied().unwrap_or_else(|| {
                net.links()
                    .iter()
                    .find(|l| l.from == from && l.to == to)
                    .map_or(1.0, |l| l.free_flow_time)
            });
            heap.push(Event {
                time: time + hop_time,
                vehicle,
                hop: hop + 1,
            });
        }
    }
    arrivals
}

/// Timing and seeding for a [`PeriodRun`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodSettings {
    /// Departure window length for each period: vehicles depart
    /// uniformly at random within `[0, period_length)`.
    pub period_length: f64,
    /// Master seed (keys, departures, certificates).
    pub seed: u64,
}

impl Default for PeriodSettings {
    fn default() -> Self {
        Self {
            period_length: 3_600.0,
            seed: 0,
        }
    }
}

/// A server shape the [`PeriodRun`] loop can drive: the in-memory
/// [`ShardedServer`] (one shard for the monolithic server) or the
/// write-ahead-logged [`DurableServer`](crate::DurableServer).
///
/// Uploads reach every backend the same way, as wire frames through
/// [`ingest_wire`](Self::ingest_wire): an ideal-channel period sends its
/// one [`BatchUpload`] frame, a lossy one hands in each delivered copy
/// of every retried frame ([`faults::upload_with_retry`]). Everything
/// that feeds the backend — authority, sizes, departures, identities,
/// frames, sequence numbers, channel keys — is derived by the loop, not
/// the backend, so the shapes are bit-identical by construction.
pub trait ServerBackend: Sized {
    /// The scheme vehicles answer under and the server decodes with.
    fn scheme(&self) -> &Scheme;

    /// The observability handle the run loop and the retry path record
    /// through.
    fn obs(&self) -> &Obs;

    /// Validates one sequenced upload frame (tag 5 or 6, see
    /// [`UploadFrameRef::decode_sequenced_ref`]) and ingests it,
    /// returning one outcome per inner upload.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] for a frame the validator
    /// rejects (nothing is ingested) and, for the durable backend,
    /// [`SimError::Durability`] when the log fails.
    fn ingest_wire(&mut self, wire: &[u8]) -> Result<Vec<ReceiveOutcome>, SimError>;

    /// Seeds RSUs' volume histories before the first period, as one
    /// call (one log record on the durable backend).
    ///
    /// # Errors
    ///
    /// For the durable backend, [`SimError::Durability`] when the log
    /// fails.
    fn seed(&mut self, history: &[(RsuId, f64)]) -> Result<(), SimError>;

    /// Closes the open period (see [`ShardedServer::finish_period`]),
    /// returning each RSU's array size for the next one.
    ///
    /// # Errors
    ///
    /// Propagates sizing (and, for the durable backend, log) failures.
    fn finish(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError>;

    /// The open period's all-pairs O–D matrix on `threads` workers.
    ///
    /// # Errors
    ///
    /// Propagates decode failures.
    fn od(&self, threads: usize) -> Result<OdMatrix, SimError>;

    /// One pair's measured estimate, clamped at saturation (see
    /// [`ShardedServer::estimate_or_clamp`]).
    ///
    /// # Errors
    ///
    /// As [`ShardedServer::estimate_or_clamp`].
    fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError>;

    /// One pair's answer with the history-backed fallback (see
    /// [`ShardedServer::estimate_or_degraded`]).
    ///
    /// # Errors
    ///
    /// As [`ShardedServer::estimate_or_degraded`].
    fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError>;

    /// WAL records appended so far; `0` for backends without a log.
    fn records_logged(&self) -> u64 {
        0
    }

    /// Fires a [`ServerCrash`]: drops every in-memory structure and
    /// rebuilds the server from durable storage (see
    /// [`DurableServer::crash_and_recover`](crate::DurableServer::crash_and_recover)).
    ///
    /// # Errors
    ///
    /// Backends without durable storage have nothing to recover from
    /// and return [`SimError::Core`].
    fn crash_and_recover(self) -> Result<(Self, RecoveryReport), SimError> {
        Err(SimError::Core(CoreError::InvalidConfig {
            parameter: "crash",
            reason: "a ServerCrash needs a durable backend".to_string(),
        }))
    }
}

impl ServerBackend for ShardedServer {
    fn scheme(&self) -> &Scheme {
        ShardedServer::scheme(self)
    }

    fn seed(&mut self, history: &[(RsuId, f64)]) -> Result<(), SimError> {
        for &(rsu, average) in history {
            self.seed_history(rsu, average);
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError> {
        self.finish_period()
    }

    fn od(&self, threads: usize) -> Result<OdMatrix, SimError> {
        self.od_matrix_threads(threads)
    }

    fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        ShardedServer::estimate_or_clamp(self, a, b)
    }

    fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError> {
        ShardedServer::estimate_or_degraded(self, a, b)
    }

    fn obs(&self) -> &Obs {
        ShardedServer::obs(self)
    }

    fn ingest_wire(&mut self, wire: &[u8]) -> Result<Vec<ReceiveOutcome>, SimError> {
        Ok(self.apply(&UploadFrameRef::decode_sequenced_ref(wire)?))
    }
}

/// One run of the §IV-C measurement loop over a road network: an RSU at
/// every node (node `i` ↔ `RsuId(i)`), every trip driven through the
/// discrete-event engine, every period's counters folded into the
/// server's history to size the next period's arrays.
///
/// Every field is optional on top of [`Default`] (one thread, ideal
/// channels, no window, no crash):
///
/// ```
/// use vcps_core::{RsuId, Scheme};
/// use vcps_roadnet::{Link, RoadNetwork, VehicleTrip};
/// use vcps_sim::engine::{PeriodRun, PeriodSettings};
/// use vcps_sim::ShardedServer;
///
/// # fn main() -> Result<(), vcps_sim::SimError> {
/// let net = RoadNetwork::new(2, vec![Link::new(0, 1, 10.0, 2.0)]).unwrap();
/// let trips: Vec<VehicleTrip> = (0..100)
///     .map(|id| VehicleTrip { id, origin: 0, dest: 1, route: vec![0, 1] })
///     .collect();
/// let scheme = Scheme::variable(2, 3.0, 7)?;
/// let run = PeriodRun {
///     settings: PeriodSettings { period_length: 60.0, seed: 7 },
///     threads: 2,
///     ..PeriodRun::default()
/// }
/// .run(
///     ShardedServer::new(scheme, 1.0, 1)?,
///     &net,
///     &net.free_flow_times(),
///     &[&trips],
///     &[100.0, 100.0],
/// )?;
/// assert_eq!(run.exchanges_per_period, vec![200]);
/// let estimate = run.server.estimate(RsuId(0), RsuId(1))?;
/// assert_eq!(estimate.n_x, 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PeriodRun {
    /// Departure window and master seed.
    pub settings: PeriodSettings,
    /// Workers driving each period's exchanges (and O–D decodes). The
    /// outcome is bit-identical at every count: vehicles are partitioned
    /// across workers with each vehicle's arrivals handled in time order
    /// (so its one-time-MAC stream is unchanged), and the RSUs are
    /// lock-free [`SharedRsu`]s whose updates commute.
    pub threads: usize,
    /// Seeded fault injection: reports cross a lossy vehicle → RSU
    /// channel, crashes destroy RSU state windows, and uploads go
    /// through [`faults::upload_with_retry`] on a lossy RSU → server
    /// channel. Each period re-rolls its channels (the period index
    /// salts them) and crash windows recur every period. With
    /// [`FaultPlan::none`] the uploads and estimates are bit-identical
    /// to the ideal path's. `None`: ideal channels.
    pub faults: Option<(FaultPlan, RetryPolicy)>,
    /// Keep a [`SlidingWindow`] over the last `W` periods' O–D matrices
    /// (computed at the end of every period). `None`: no O–D decode.
    pub window: Option<usize>,
    /// Crash and recover a [`DurableServer`](crate::DurableServer) once,
    /// at the first ingest boundary where
    /// [`ServerBackend::records_logged`] has reached
    /// [`ServerCrash::at_record`] — before each upload session on the
    /// faulty path, before and after the period's batch on the ideal
    /// path — or at the end of the last period's ingest if the log
    /// never gets that far. The log holds the seeds and every close, so
    /// recovery needs nothing else from the run loop.
    pub crash: Option<ServerCrash>,
}

impl Default for PeriodRun {
    fn default() -> Self {
        Self {
            settings: PeriodSettings::default(),
            threads: 1,
            faults: None,
            window: None,
            crash: None,
        }
    }
}

/// What a [`PeriodRun`] produced. Per-period vectors are in period
/// order; the fault vectors are empty for ideal-channel runs.
#[derive(Debug, Clone)]
pub struct RunOutcome<S> {
    /// The server with the **last period still open**: its uploads stay
    /// held and queryable. Call `finish_period` for the closed state
    /// (history updated, sizes for the next period).
    pub server: S,
    /// The sliding O–D window, when [`PeriodRun::window`] was set.
    pub window: Option<SlidingWindow>,
    /// Array sizes in force during each period, per node.
    pub sizes_per_period: Vec<Vec<usize>>,
    /// Query/answer exchanges per period (loss happens after the
    /// exchange, in flight).
    pub exchanges_per_period: Vec<usize>,
    /// What the channels, crashes, and the retry loop did, per period.
    pub faults_per_period: Vec<FaultMetrics>,
    /// RSUs whose upload exhausted the retry budget, per period. Their
    /// history entry keeps its previous value, and
    /// `estimate_or_degraded` still answers their pairs.
    pub undelivered_per_period: Vec<Vec<RsuId>>,
    /// Upload frames delivered to the server across all periods.
    pub uploads_delivered: usize,
    /// Wall-clock nanoseconds spent ingesting uploads (all periods).
    pub ingest_ns: u128,
    /// Wall-clock nanoseconds spent computing window O–D matrices.
    pub od_ns: u128,
    /// What recovery found, when [`PeriodRun::crash`] fired.
    pub recovery: Option<RecoveryReport>,
}

impl PeriodRun {
    /// Drives `periods[p]` as period `p` through `server`. Period 0 is
    /// sized from `initial_history` (also seeded into the server); every
    /// later period from the server's history after closing the previous
    /// one. The loop records through the backend's observability handle
    /// ([`ServerBackend::obs`]): the exchange phase as
    /// [`Phase::Encode`], ideal ingestion as [`Phase::Receive`], fault
    /// counters as `faults.*`. Recording never influences control flow.
    ///
    /// Every derived stream — authority, departures, MACs, channel
    /// salts, upload sequence numbers — is keyed by the master seed and
    /// the period index, so a run is deterministic at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates sizing, protocol, and durability failures, invalid
    /// fault plans, and a crash requested of a non-durable backend.
    ///
    /// # Panics
    ///
    /// Panics if `periods` is empty, `initial_history.len() !=
    /// net.node_count()`, `threads == 0`, or `window == Some(0)`.
    pub fn run<S: ServerBackend, P: AsRef<[VehicleTrip]>>(
        &self,
        mut server: S,
        net: &RoadNetwork,
        link_times: &[f64],
        periods: &[P],
        initial_history: &[f64],
    ) -> Result<RunOutcome<S>, SimError> {
        let PeriodSettings {
            period_length,
            seed,
        } = self.settings;
        assert!(!periods.is_empty(), "need at least one period");
        assert_eq!(
            initial_history.len(),
            net.node_count(),
            "one history volume per node"
        );
        let faulting = match &self.faults {
            Some((plan, policy)) => {
                plan.validate()?;
                policy.validate()?;
                Some((plan, policy, plan.lost_windows(net.node_count())))
            }
            None => None,
        };
        let obs = server.obs().clone();
        let scheme = server.scheme().clone();
        let seeds: Vec<(RsuId, f64)> = initial_history
            .iter()
            .enumerate()
            .map(|(node, &avg)| (RsuId(node as u64), avg))
            .collect();
        server.seed(&seeds)?;
        let mut sizes = initial_history
            .iter()
            .map(|&avg| scheme.array_size_for(avg))
            .collect::<Result<Vec<_>, _>>()?;
        let mut crash = CrashPoint {
            at_record: self.crash.map(|c| c.at_record),
            report: None,
        };
        let mut window = self.window.map(SlidingWindow::new);
        let mut sizes_per_period = Vec::with_capacity(periods.len());
        let mut exchanges_per_period = Vec::with_capacity(periods.len());
        let mut faults_per_period = Vec::new();
        let mut undelivered_per_period = Vec::new();
        let mut uploads_delivered = 0usize;
        let mut ingest_ns = 0u128;
        let mut od_ns = 0u128;

        for (p, trips) in periods.iter().enumerate() {
            let trips = trips.as_ref();
            let last = p + 1 == periods.len();
            let authority = TrustedAuthority::new(seed ^ 0x0CA0_17E5 ^ p as u64);
            let rsus = sizes
                .iter()
                .enumerate()
                .map(|(node, &m)| SharedRsu::new(RsuId(node as u64), m, &authority))
                .collect::<Result<Vec<_>, _>>()?;
            let queries: Vec<Query> = rsus.iter().map(SharedRsu::query).collect();

            let mut rng = StdRng::seed_from_u64(seed ^ (p as u64) << 32);
            let departures: Vec<f64> = trips
                .iter()
                .map(|_| rng.random_range(0.0..period_length.max(f64::MIN_POSITIVE)))
                .collect();
            let arrivals = simulate_arrivals(net, link_times, trips, &departures);
            if let Some(arrival) = arrivals.last() {
                obs.set_sim_time(arrival.time);
            }
            let exchange = Exchange {
                scheme: &scheme,
                authority: &authority,
                rsus: &rsus,
                queries: &queries,
                trips,
                arrivals: &arrivals,
                m_o: sizes.iter().copied().fold(0, usize::max),
                threads: self.threads,
                seed,
                period: p as u64,
            };
            let (exchanges, period_faults) = {
                let _encode = obs.phase(Phase::Encode);
                match &faulting {
                    Some((plan, _, lost)) => {
                        let (exchanges, mut faults) =
                            drive_arrivals_faulty(&exchange, &plan.report_channel(p as u64), lost)?;
                        faults.crashes = plan.crashes.len() as u64;
                        (exchanges, Some(faults))
                    }
                    None => (drive_arrivals(&exchange)?, None),
                }
            };
            obs.add("engine.exchanges", exchanges as u64);
            sizes_per_period.push(queries.iter().map(|q| q.array_size as usize).collect());
            exchanges_per_period.push(exchanges);

            let ingest_started = Instant::now();
            match (&faulting, period_faults) {
                (Some((plan, policy, _)), Some(mut faults)) => {
                    let channel = plan.upload_channel(p as u64);
                    let mut undelivered = Vec::new();
                    for rsu in &rsus {
                        server = crash.boundary(server, false)?;
                        let upload = rsu.upload();
                        let delivery = faults::upload_with_retry(
                            &upload,
                            p as u64,
                            &channel,
                            &mut server,
                            policy,
                            &mut faults,
                        )?;
                        if delivery.delivered {
                            uploads_delivered += 1;
                        } else {
                            undelivered.push(upload.rsu);
                        }
                    }
                    server = crash.boundary(server, last)?;
                    faults.record_into(&obs);
                    obs.add("engine.undelivered", undelivered.len() as u64);
                    faults_per_period.push(faults);
                    undelivered_per_period.push(undelivered);
                }
                _ => {
                    let frames: Vec<SequencedUpload> = rsus
                        .iter()
                        .map(|rsu| SequencedUpload {
                            seq: p as u64,
                            upload: rsu.upload(),
                        })
                        .collect();
                    let _receive = obs.phase(Phase::Receive);
                    let wire = BatchUpload::new(frames)?.encode();
                    server = crash.boundary(server, false)?;
                    uploads_delivered += server.ingest_wire(&wire)?.len();
                    server = crash.boundary(server, last)?;
                }
            }
            ingest_ns += ingest_started.elapsed().as_nanos();

            if let Some(window) = &mut window {
                let od_started = Instant::now();
                window.push(server.od(self.threads)?);
                od_ns += od_started.elapsed().as_nanos();
                obs.inc("metro.periods");
                obs.add("metro.window.held", window.len() as u64);
            }
            if !last {
                let next = server.finish()?;
                sizes = (0..net.node_count())
                    .map(|node| next.get(&RsuId(node as u64)).copied().unwrap_or(2).max(2))
                    .collect();
            }
        }
        if window.is_some() {
            obs.add("metro.uploads.delivered", uploads_delivered as u64);
        }
        Ok(RunOutcome {
            server,
            window,
            sizes_per_period,
            exchanges_per_period,
            faults_per_period,
            undelivered_per_period,
            uploads_delivered,
            ingest_ns,
            od_ns,
            recovery: crash.report,
        })
    }
}

/// The armed [`ServerCrash`] of one run: fires once, at the first
/// ingest boundary where the log has reached `at_record` (or when
/// forced at the run's last boundary).
struct CrashPoint {
    at_record: Option<u64>,
    report: Option<RecoveryReport>,
}

impl CrashPoint {
    fn boundary<S: ServerBackend>(&mut self, server: S, force: bool) -> Result<S, SimError> {
        match self.at_record {
            Some(at) if self.report.is_none() && (force || server.records_logged() >= at) => {
                let (server, report) = server.crash_and_recover()?;
                self.report = Some(report);
                Ok(server)
            }
            _ => Ok(server),
        }
    }
}

/// One period's exchange phase: the RSUs and their queries, the
/// time-ordered arrivals, and what derives each vehicle's identity.
struct Exchange<'a> {
    scheme: &'a Scheme,
    authority: &'a TrustedAuthority,
    rsus: &'a [SharedRsu],
    queries: &'a [Query],
    trips: &'a [VehicleTrip],
    arrivals: &'a [Arrival],
    m_o: usize,
    threads: usize,
    seed: u64,
    period: u64,
}

impl Exchange<'_> {
    /// Trip `v`'s vehicle: a seed-keyed identity and a per-period
    /// one-time-MAC stream.
    fn vehicle(&self, v: usize) -> SimVehicle {
        let id = self.trips[v].id;
        SimVehicle::new(
            VehicleIdentity::from_raw(id, splitmix64(self.seed ^ id)),
            splitmix64(id ^ 0xACE0_FBA5E ^ self.period),
        )
    }
}

/// Runs every query/answer exchange of one period: vehicles are split
/// across worker threads, each worker walking its vehicles' arrivals in
/// time order and folding the reports straight into the lock-free RSUs.
/// Returns the exchange count.
fn drive_arrivals(ex: &Exchange<'_>) -> Result<usize, SimError> {
    // Arrivals are globally time-ordered, so each vehicle's subsequence
    // is in that vehicle's own time order — exactly the order the
    // sequential engine advances its MAC generator.
    let mut stops: Vec<Vec<usize>> = vec![Vec::new(); ex.trips.len()];
    for arrival in ex.arrivals {
        stops[arrival.vehicle].push(arrival.node);
    }
    let outcomes = concurrent::parallel_map_threads(
        (0..ex.trips.len()).collect(),
        ex.threads,
        |&v| -> Result<usize, SimError> {
            let mut vehicle = ex.vehicle(v);
            for &node in &stops[v] {
                let report = vehicle.answer(&ex.queries[node], ex.scheme, ex.authority, ex.m_o)?;
                ex.rsus[node].receive(&report)?;
            }
            Ok(stops[v].len())
        },
    );
    let mut exchanges = 0usize;
    for outcome in outcomes {
        exchanges += outcome?;
    }
    Ok(exchanges)
}

/// [`drive_arrivals`] with every report crossing a lossy channel (wire
/// encoded and decoded) and a crash-window filter in front of each RSU.
/// Returns the exchange count and the merged per-worker fault counters.
///
/// Fault decisions are keyed per (vehicle, stop), so the outcome is
/// independent of worker scheduling; counter merging is commutative.
fn drive_arrivals_faulty(
    ex: &Exchange<'_>,
    channel: &Channel,
    lost_windows: &[Vec<(f64, f64)>],
) -> Result<(usize, FaultMetrics), SimError> {
    let mut stops: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ex.trips.len()];
    for arrival in ex.arrivals {
        stops[arrival.vehicle].push((arrival.node, arrival.time));
    }
    let outcomes = concurrent::parallel_map_threads(
        (0..ex.trips.len()).collect(),
        ex.threads,
        |&v| -> Result<(usize, FaultMetrics), SimError> {
            let mut vehicle = ex.vehicle(v);
            let mut local = FaultMetrics::new();
            for (i, &(node, time)) in stops[v].iter().enumerate() {
                let report = vehicle.answer(&ex.queries[node], ex.scheme, ex.authority, ex.m_o)?;
                let key = splitmix64(ex.trips[v].id).wrapping_add(i as u64);
                let tx = channel.transmit(&report.encode(), key);
                tx.record(&mut local.report_link);
                for copy in &tx.delivered {
                    let Ok(decoded) = BitReport::decode(copy) else {
                        local.reports_undecodable += 1;
                        continue;
                    };
                    let crashed = lost_windows[node]
                        .iter()
                        .any(|&(w0, w1)| time >= w0 && time < w1);
                    if crashed {
                        // The RSU ingested this report but lost it with
                        // the state window destroyed by the crash.
                        local.reports_lost_to_crash += 1;
                    } else if ex.rsus[node].receive(&decoded).is_err() {
                        local.reports_rejected += 1;
                    }
                }
            }
            Ok((stops[v].len(), local))
        },
    );
    let mut exchanges = 0usize;
    let mut faults = FaultMetrics::new();
    for outcome in outcomes {
        let (n, local) = outcome?;
        exchanges += n;
        faults.merge(&local);
    }
    Ok((exchanges, faults))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcps_obs::Obs;
    use vcps_roadnet::{Link, RoadNetwork};

    fn line_net() -> RoadNetwork {
        RoadNetwork::new(
            3,
            vec![Link::new(0, 1, 10.0, 2.0), Link::new(1, 2, 10.0, 3.0)],
        )
        .unwrap()
    }

    fn trip(id: u64, route: Vec<usize>) -> VehicleTrip {
        VehicleTrip {
            id,
            origin: *route.first().unwrap(),
            dest: *route.last().unwrap(),
            route,
        }
    }

    /// A 60-second departure window under `seed`, at `threads` workers.
    fn config(seed: u64, threads: usize) -> PeriodRun {
        PeriodRun {
            settings: PeriodSettings {
                period_length: 60.0,
                seed,
            },
            threads,
            ..PeriodRun::default()
        }
    }

    /// [`config`] with fault injection under the default retry policy.
    fn faulty(seed: u64, threads: usize, plan: &FaultPlan) -> PeriodRun {
        PeriodRun {
            faults: Some((plan.clone(), RetryPolicy::default())),
            ..config(seed, threads)
        }
    }

    /// The monolithic reference: a one-shard server.
    fn central(scheme: &Scheme, alpha: f64) -> ShardedServer {
        ShardedServer::new(scheme.clone(), alpha, 1).unwrap()
    }

    /// Drives `periods` over the line network.
    fn drive<S: ServerBackend, P: AsRef<[VehicleTrip]>>(
        config: &PeriodRun,
        server: S,
        periods: &[P],
        history: &[f64],
    ) -> RunOutcome<S> {
        let net = line_net();
        config
            .run(server, &net, &net.free_flow_times(), periods, history)
            .unwrap()
    }

    #[test]
    fn arrivals_are_time_ordered_and_complete() {
        let net = line_net();
        let trips = vec![trip(0, vec![0, 1, 2]), trip(1, vec![1, 2])];
        let arrivals = simulate_arrivals(&net, &net.free_flow_times(), &trips, &[0.0, 1.0]);
        assert_eq!(arrivals.len(), 5);
        for w in arrivals.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Vehicle 0: nodes 0@0, 1@2, 2@5; vehicle 1: 1@1, 2@4.
        let v0: Vec<(f64, usize)> = arrivals
            .iter()
            .filter(|a| a.vehicle == 0)
            .map(|a| (a.time, a.node))
            .collect();
        assert_eq!(v0, vec![(0.0, 0), (2.0, 1), (5.0, 2)]);
    }

    #[test]
    fn congested_times_delay_arrivals() {
        let net = line_net();
        let trips = vec![trip(0, vec![0, 1, 2])];
        let slow = simulate_arrivals(&net, &[4.0, 6.0], &trips, &[0.0]);
        assert_eq!(slow.last().unwrap().time, 10.0);
    }

    #[test]
    fn full_network_period_counts_every_arrival() {
        let trips: Vec<VehicleTrip> = (0..200).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let run = drive(
            &config(4, 1),
            central(&scheme, 1.0),
            &[&trips],
            &[200.0, 200.0, 200.0],
        );
        assert_eq!(run.exchanges_per_period[0], 600);
        assert_eq!(run.server.upload_count(), 3);
        // All 200 vehicles pass every pair of nodes.
        let est = run.server.estimate(RsuId(0), RsuId(2)).unwrap();
        assert_eq!(est.n_x, 200);
        assert_eq!(est.n_y, 200);
        let rel = est.relative_error(200.0).unwrap();
        assert!(rel < 0.25, "estimate {} (rel {rel})", est.n_c);
    }

    #[test]
    fn multi_period_run_adapts_sizes_to_traffic() {
        // Traffic doubles each period; with alpha = 1 the history tracks
        // the last period exactly, so the arrays must grow.
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let periods: Vec<Vec<VehicleTrip>> = [100u64, 200, 400]
            .iter()
            .map(|&n| (0..n).map(|i| trip(i, vec![0, 1, 2])).collect())
            .collect();
        let mut run = drive(
            &config(5, 1),
            central(&scheme, 1.0),
            &periods,
            &[100.0, 100.0, 100.0],
        );
        assert_eq!(run.exchanges_per_period, vec![300, 600, 1200]);
        assert_eq!(run.sizes_per_period.len(), 3);
        // Period 0 sized for 100 vehicles (512 bits at f̄ = 3); period 2
        // sized from period 1's observed 200 vehicles.
        assert_eq!(run.sizes_per_period[0][0], 512);
        assert_eq!(run.sizes_per_period[1][0], 512); // sized from period 0's 100
        assert_eq!(run.sizes_per_period[2][0], 1024); // sized from period 1's 200
                                                      // Once closed, the history reflects the last period's 400 vehicles.
        run.server.finish_period().unwrap();
        assert_eq!(run.server.history_average(RsuId(0)), Some(400.0));
    }

    #[test]
    fn threaded_network_period_is_bit_identical_to_sequential() {
        let trips: Vec<VehicleTrip> = (0..300).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let history = [300.0, 300.0, 300.0];
        let seq = drive(&config(4, 1), central(&scheme, 1.0), &[&trips], &history);
        let seq_est = seq.server.estimate(RsuId(0), RsuId(2)).unwrap();
        for threads in [2, 4, crate::concurrent::default_threads()] {
            let par = drive(
                &config(4, threads),
                central(&scheme, 1.0),
                &[&trips],
                &history,
            );
            assert_eq!(
                par.exchanges_per_period, seq.exchanges_per_period,
                "threads = {threads}"
            );
            let par_est = par.server.estimate(RsuId(0), RsuId(2)).unwrap();
            assert_eq!(par_est, seq_est, "threads = {threads}");
        }
    }

    #[test]
    fn threaded_multi_period_matches_sequential() {
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let periods: Vec<Vec<VehicleTrip>> = [150u64, 250]
            .iter()
            .map(|&n| (0..n).map(|i| trip(i, vec![0, 1, 2])).collect())
            .collect();
        let history = [150.0, 150.0, 150.0];
        let mut seq = drive(&config(7, 1), central(&scheme, 0.5), &periods, &history);
        let mut par = drive(&config(7, 4), central(&scheme, 0.5), &periods, &history);
        assert_eq!(par.exchanges_per_period, seq.exchanges_per_period);
        assert_eq!(par.sizes_per_period, seq.sizes_per_period);
        // finish_period consumes the uploads, so compare the surviving
        // state: the EWMA history that will size the next period.
        seq.server.finish_period().unwrap();
        par.server.finish_period().unwrap();
        for node in 0..3 {
            assert_eq!(
                par.server.history_average(RsuId(node)),
                seq.server.history_average(RsuId(node)),
                "node {node}"
            );
        }
    }

    fn upload_bytes(server: &ShardedServer, nodes: usize) -> Vec<Option<Vec<u8>>> {
        (0..nodes)
            .map(|n| server.upload(RsuId(n as u64)).map(|u| u.encode().to_vec()))
            .collect()
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_the_ideal_path() {
        let trips: Vec<VehicleTrip> = (0..200).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let history = [200.0, 200.0, 200.0];
        let ideal = drive(&config(4, 1), central(&scheme, 1.0), &[&trips], &history);
        let faulty = drive(
            &faulty(4, 1, &FaultPlan::none()),
            central(&scheme, 1.0),
            &[&trips],
            &history,
        );
        assert_eq!(faulty.exchanges_per_period, ideal.exchanges_per_period);
        assert!(faulty.undelivered_per_period[0].is_empty());
        assert_eq!(
            upload_bytes(&faulty.server, 3),
            upload_bytes(&ideal.server, 3),
            "zero-rate wire path must reproduce the ideal uploads byte for byte"
        );
        assert_eq!(
            faulty.server.estimate(RsuId(0), RsuId(2)).unwrap(),
            ideal.server.estimate(RsuId(0), RsuId(2)).unwrap()
        );
        let f = &faulty.faults_per_period[0];
        assert_eq!(f.report_link.frames, ideal.exchanges_per_period[0] as u64);
        assert_eq!(f.report_link.delivered, f.report_link.frames);
        assert_eq!(f.report_link.dropped + f.report_link.late, 0);
        assert_eq!(f.upload_retries + f.uploads_abandoned, 0);
    }

    #[test]
    fn fault_injection_is_deterministic_and_thread_independent() {
        let trips: Vec<VehicleTrip> = (0..300).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let history = [300.0, 300.0, 300.0];
        let plan = FaultPlan::new(33)
            .with_report_link(
                crate::faults::LinkFaults::none()
                    .with_drop(0.2)
                    .with_duplicate(0.1)
                    .with_truncate(0.05)
                    .with_bit_flip(0.05),
            )
            .with_upload_link(crate::faults::LinkFaults::none().with_drop(0.3))
            .with_crash(crate::faults::RsuCrash {
                node: 1,
                at: 30.0,
                mode: crate::faults::CrashMode::Checkpoint { interval: 20.0 },
            });
        let mut runs = Vec::new();
        for threads in [1usize, 1, 4] {
            runs.push(drive(
                &faulty(4, threads, &plan),
                central(&scheme, 1.0),
                &[&trips],
                &history,
            ));
        }
        let base = &runs[0];
        assert!(
            base.faults_per_period[0].report_link.dropped > 0,
            "plan actually injects"
        );
        for other in &runs[1..] {
            assert_eq!(other.exchanges_per_period, base.exchanges_per_period);
            assert_eq!(
                other.faults_per_period, base.faults_per_period,
                "metrics are byte-identical"
            );
            assert_eq!(other.undelivered_per_period, base.undelivered_per_period);
            assert_eq!(
                upload_bytes(&other.server, 3),
                upload_bytes(&base.server, 3),
                "uploads are byte-identical"
            );
            for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
                assert_eq!(
                    other.server.estimate_or_degraded(RsuId(a), RsuId(b)),
                    base.server.estimate_or_degraded(RsuId(a), RsuId(b))
                );
            }
        }
    }

    #[test]
    fn heavy_upload_loss_still_answers_every_pair() {
        let trips: Vec<VehicleTrip> = (0..200).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let history = [200.0, 200.0, 200.0];
        // 50% upload loss with the default retry budget: everything
        // should still land, measured.
        let plan =
            FaultPlan::new(5).with_upload_link(crate::faults::LinkFaults::none().with_drop(0.5));
        let run = drive(
            &faulty(4, 1, &plan),
            central(&scheme, 1.0),
            &[&trips],
            &history,
        );
        assert!(
            run.faults_per_period[0].upload_retries > 0,
            "loss forced retries"
        );
        for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
            let est = run.server.estimate_or_degraded(RsuId(a), RsuId(b)).unwrap();
            assert!(est.n_c().is_finite());
        }
        // A dead link: every upload abandoned, every pair still answered
        // — degraded, from the seeded history.
        let dead =
            FaultPlan::new(5).with_upload_link(crate::faults::LinkFaults::none().with_drop(1.0));
        let run = drive(
            &faulty(4, 1, &dead),
            central(&scheme, 1.0),
            &[&trips],
            &history,
        );
        assert_eq!(run.undelivered_per_period[0].len(), 3);
        assert_eq!(run.faults_per_period[0].uploads_abandoned, 3);
        for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
            let est = run.server.estimate_or_degraded(RsuId(a), RsuId(b)).unwrap();
            assert!(est.is_degraded());
            assert!(est.n_c().is_finite());
        }
    }

    #[test]
    fn report_loss_biases_counters_down_and_crashes_lose_state() {
        let trips: Vec<VehicleTrip> = (0..400).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let history = [400.0, 400.0, 400.0];
        let lossy =
            FaultPlan::new(17).with_report_link(crate::faults::LinkFaults::none().with_drop(0.3));
        let run = drive(
            &faulty(4, 1, &lossy),
            central(&scheme, 1.0),
            &[&trips],
            &history,
        );
        let n0 = run.server.upload(RsuId(0)).unwrap().counter;
        assert!(
            n0 < 400 && n0 > 200,
            "30% report loss should show in the counter, got {n0}"
        );
        // A mid-period crash with no checkpointing wipes everything the
        // crashed RSU had seen before the crash.
        let crashing = FaultPlan::new(17).with_crash(crate::faults::RsuCrash {
            node: 1,
            at: 30.0,
            mode: crate::faults::CrashMode::LoseState,
        });
        let run = drive(
            &faulty(4, 1, &crashing),
            central(&scheme, 1.0),
            &[&trips],
            &history,
        );
        assert!(run.faults_per_period[0].reports_lost_to_crash > 0);
        let n1 = run.server.upload(RsuId(1)).unwrap().counter;
        assert!(n1 < 400, "crash must cost node 1 reports, got {n1}");
        assert_eq!(
            run.server.upload(RsuId(0)).unwrap().counter,
            400,
            "other nodes are untouched"
        );
    }

    #[test]
    fn faulty_multi_period_run_is_deterministic_and_survives_loss() {
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let periods: Vec<Vec<VehicleTrip>> = [150u64, 250]
            .iter()
            .map(|&n| (0..n).map(|i| trip(i, vec![0, 1, 2])).collect())
            .collect();
        let history = [150.0, 150.0, 150.0];
        let plan = FaultPlan::new(9)
            .with_report_link(crate::faults::LinkFaults::none().with_drop(0.2))
            .with_upload_link(crate::faults::LinkFaults::none().with_drop(0.4));
        let mut a = drive(
            &faulty(7, 1, &plan),
            central(&scheme, 0.5),
            &periods,
            &history,
        );
        let mut b = drive(
            &faulty(7, 4, &plan),
            central(&scheme, 0.5),
            &periods,
            &history,
        );
        assert_eq!(a.exchanges_per_period, b.exchanges_per_period);
        assert_eq!(a.faults_per_period, b.faults_per_period);
        assert_eq!(a.undelivered_per_period, b.undelivered_per_period);
        assert_eq!(a.sizes_per_period, b.sizes_per_period);
        a.server.finish_period().unwrap();
        b.server.finish_period().unwrap();
        for node in 0..3 {
            assert_eq!(
                a.server.history_average(RsuId(node)),
                b.server.history_average(RsuId(node)),
                "node {node}"
            );
        }
        // Period faults were actually re-rolled per period.
        assert_eq!(a.faults_per_period.len(), 2);
        assert!(a.faults_per_period[0].report_link.dropped > 0);
    }

    #[test]
    #[should_panic(expected = "one departure per trip")]
    fn departure_count_is_validated() {
        let net = line_net();
        let trips = vec![trip(0, vec![0, 1])];
        let _ = simulate_arrivals(&net, &net.free_flow_times(), &trips, &[]);
    }

    #[test]
    fn crash_needs_a_durable_backend() {
        let trips: Vec<VehicleTrip> = (0..20).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let net = line_net();
        let run = PeriodRun {
            crash: Some(ServerCrash { at_record: 0 }),
            ..config(4, 1)
        }
        .run(
            central(&scheme, 1.0),
            &net,
            &net.free_flow_times(),
            &[&trips],
            &[20.0, 20.0, 20.0],
        );
        assert!(matches!(run, Err(SimError::Core(_))));
    }

    #[test]
    fn observed_engine_run_is_bit_identical_to_plain() {
        let trips: Vec<VehicleTrip> = (0..200).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let history = [200.0, 200.0, 200.0];
        let plain = drive(&config(4, 1), central(&scheme, 1.0), &[&trips], &history);
        for threads in [1usize, 2, 4] {
            let obs = Obs::enabled(vcps_obs::Level::Trace);
            let observed = drive(
                &config(4, threads),
                central(&scheme, 1.0).with_obs(obs.clone()),
                &[&trips],
                &history,
            );
            assert_eq!(
                observed.exchanges_per_period, plain.exchanges_per_period,
                "threads = {threads}"
            );
            for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
                assert_eq!(
                    observed.server.estimate(RsuId(a), RsuId(b)).unwrap(),
                    plain.server.estimate(RsuId(a), RsuId(b)).unwrap(),
                    "pair ({a},{b}) at threads = {threads}"
                );
            }
            let snap = obs.snapshot();
            assert_eq!(
                snap.counters["engine.exchanges"],
                plain.exchanges_per_period[0] as u64
            );
            assert_eq!(snap.counters["server.receive.fresh"], 3);
        }
    }

    #[test]
    fn fault_run_registry_counters_are_thread_count_independent() {
        let trips: Vec<VehicleTrip> = (0..300).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let history = [300.0, 300.0, 300.0];
        let plan = FaultPlan::new(33)
            .with_report_link(
                crate::faults::LinkFaults::none()
                    .with_drop(0.2)
                    .with_duplicate(0.1)
                    .with_bit_flip(0.05),
            )
            .with_upload_link(crate::faults::LinkFaults::none().with_drop(0.3));
        let mut snapshots = Vec::new();
        for threads in [1usize, 2, 4] {
            let obs = Obs::enabled(vcps_obs::Level::Info);
            let run = drive(
                &faulty(4, threads, &plan),
                central(&scheme, 1.0).with_obs(obs.clone()),
                &[&trips],
                &history,
            );
            assert!(
                run.faults_per_period[0].report_link.dropped > 0,
                "plan actually injects"
            );
            snapshots.push(obs.snapshot());
        }
        // Wall-clock histograms (phase.*.ns) vary run to run, but every
        // registry *counter* recorded by the fault path is deterministic
        // and must not depend on the worker count.
        let base = &snapshots[0];
        assert!(base.counters["retry.attempts"] > 0);
        assert!(base.counters["faults.report_link.dropped"] > 0);
        for (i, other) in snapshots.iter().enumerate().skip(1) {
            assert_eq!(other.counters, base.counters, "thread config {i}");
        }
    }

    #[test]
    fn sharded_run_matches_monolithic_at_every_shard_count() {
        let trips: Vec<VehicleTrip> = (0..200).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let history = [200.0, 200.0, 200.0];
        let mono = drive(&config(4, 1), central(&scheme, 1.0), &[&trips], &history);
        for shards in [1usize, 2, 4, 8] {
            let sharded = drive(
                &config(4, 1),
                ShardedServer::new(scheme.clone(), 1.0, shards).unwrap(),
                &[&trips],
                &history,
            );
            assert_eq!(
                sharded.exchanges_per_period, mono.exchanges_per_period,
                "shards = {shards}"
            );
            assert_eq!(sharded.server.upload_count(), 3);
            for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
                assert_eq!(
                    sharded.server.estimate(RsuId(a), RsuId(b)).unwrap(),
                    mono.server.estimate(RsuId(a), RsuId(b)).unwrap(),
                    "pair ({a},{b}) at shards = {shards}"
                );
            }
            assert_eq!(
                sharded.server.od_matrix_threads(2).unwrap(),
                mono.server.od_matrix_threads(2).unwrap(),
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn faulty_sharded_run_replays_the_monolithic_fault_sequence() {
        let trips: Vec<VehicleTrip> = (0..300).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let history = [300.0, 300.0, 300.0];
        let plan = FaultPlan::new(33)
            .with_report_link(
                crate::faults::LinkFaults::none()
                    .with_drop(0.2)
                    .with_duplicate(0.1)
                    .with_bit_flip(0.05),
            )
            .with_upload_link(crate::faults::LinkFaults::none().with_drop(0.4));
        let mono = drive(
            &faulty(4, 1, &plan),
            central(&scheme, 1.0),
            &[&trips],
            &history,
        );
        assert!(
            mono.faults_per_period[0].report_link.dropped > 0,
            "plan actually injects"
        );
        for shards in [1usize, 2, 4, 8] {
            let sharded = drive(
                &faulty(4, 1, &plan),
                ShardedServer::new(scheme.clone(), 1.0, shards).unwrap(),
                &[&trips],
                &history,
            );
            assert_eq!(sharded.exchanges_per_period, mono.exchanges_per_period);
            assert_eq!(
                sharded.faults_per_period, mono.faults_per_period,
                "shards = {shards}"
            );
            assert_eq!(sharded.undelivered_per_period, mono.undelivered_per_period);
            for node in 0..3u64 {
                assert_eq!(
                    sharded.server.upload(RsuId(node)),
                    mono.server.upload(RsuId(node)),
                    "node {node} at shards = {shards}"
                );
            }
            for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
                assert_eq!(
                    sharded.server.estimate_or_degraded(RsuId(a), RsuId(b)),
                    mono.server.estimate_or_degraded(RsuId(a), RsuId(b)),
                    "pair ({a},{b}) at shards = {shards}"
                );
            }
        }
    }

    /// Counters minus the sharding layer's own `shard.*` / `batch.*`
    /// series, whose values depend on the shard count.
    fn strip_shard_series(obs: &Obs) -> BTreeMap<String, u64> {
        let mut counters = obs.snapshot().counters;
        counters.retain(|name, _| !name.starts_with("shard.") && !name.starts_with("batch."));
        counters
    }

    #[test]
    fn sharded_registry_counters_match_monolith_modulo_shard_series() {
        let trips: Vec<VehicleTrip> = (0..200).map(|i| trip(i, vec![0, 1, 2])).collect();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let history = [200.0, 200.0, 200.0];
        let mono_obs = Obs::enabled(vcps_obs::Level::Info);
        let mono = drive(
            &config(4, 2),
            central(&scheme, 1.0).with_obs(mono_obs.clone()),
            &[&trips],
            &history,
        );
        let _ = mono.server.od_matrix_threads(2).unwrap();
        for shards in [1usize, 4] {
            let obs = Obs::enabled(vcps_obs::Level::Info);
            let sharded = drive(
                &config(4, 2),
                ShardedServer::new(scheme.clone(), 1.0, shards)
                    .unwrap()
                    .with_obs(obs.clone()),
                &[&trips],
                &history,
            );
            let _ = sharded.server.od_matrix_threads(2).unwrap();
            assert_eq!(
                strip_shard_series(&obs),
                strip_shard_series(&mono_obs),
                "shards = {shards}"
            );
        }
    }
}
