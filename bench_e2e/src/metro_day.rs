//! `metro-day`: a 1024-RSU grid city over one diurnal day of periods,
//! against a volatile `vcpsd`.
//!
//! Each period: the vehicles answer the RSUs on their routes, the RSUs
//! upload as one `BatchUpload` frame per connection (RSU `j` on
//! connection `j % 2`), the client fetches the full O–D matrix and the
//! top-K corridor pairs, and `finish_period`'s sizes response sets the
//! next period's arrays. Whole days run back to back on one daemon until
//! the time budget is spent; every day replays the same generated trips.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vcps_core::{PairEstimate, Scheme};
use vcps_net::wire::{self, Response};
use vcps_obs::{Level, Obs};
use vcps_sim::pki::TrustedAuthority;
use vcps_sim::{
    BatchUpload, BatchUploadRef, OdMatrix, ReceiveOutcome, SequencedUpload, ShardedServer,
};

use crate::conn::Conn;
use crate::daemon::{Daemon, DaemonSpec, ALPHA, SHARDS};
use crate::fleet::{self, rsu_id};
use crate::gen::{self, City};
use crate::mirror::Mirror;
use crate::report::{self, digest_answer, Report};
use crate::stats::{self, Summary};
use crate::trace::{self, SpanId, Tracer};
use crate::Ctx;

/// Periods in the day.
const PERIODS: usize = gen::METRO.periods;
/// Corridor pairs queried after each O–D matrix.
const TOP_K: usize = 16;
/// Pairs with fewer true shared vehicles are left out of the
/// confidence-interval coverage.
const TRUTH_FLOOR: u32 = 50;

/// Request-id slots within a period (`seq << 8 | slot`).
const SLOT_OD: u64 = 2;
const SLOT_FINISH: u64 = 3;
const SLOT_PAIR: u64 = 16;

/// Names of the spans on the blocking path of a period.
const BLOCKING: &[&str] = &[
    "vehicle.answer",
    "rsu.receive",
    "rsu.upload",
    "protocol.encode",
    "net.ingest",
    "net.od",
    "net.pair",
    "net.finish",
];

/// What the generator hands the run.
struct Inputs {
    city: City,
    corridors: Vec<(usize, usize)>,
    /// Array sizes of the day's first period, from the previous night's
    /// volumes.
    first_sizes: Vec<usize>,
}

fn generate(ctx: &Ctx, scheme: &Scheme) -> Result<Inputs, String> {
    let city = City::generate(&gen::METRO, ctx.seed);
    if !city.conserves_demand() {
        return Err("the generator lost or invented demand".into());
    }
    let corridors = city.corridors(TOP_K);
    let first_sizes = fleet::sizes_for(scheme, &city.volumes(PERIODS - 1));
    Ok(Inputs {
        city,
        corridors,
        first_sizes,
    })
}

/// What the client saw in one period.
struct PeriodRecord {
    p: usize,
    seq: u64,
    frames: Vec<Vec<u8>>,
    od_digest: u64,
    topk: Vec<Vec<u64>>,
    sizes: Vec<(u64, u64)>,
    close: Duration,
    wall: Duration,
    fills: Vec<f64>,
}

struct Session<'a> {
    ctx: &'a Ctx,
    inputs: &'a Inputs,
    scheme: &'a Scheme,
    authority: &'a TrustedAuthority,
    tracer: &'a Tracer,
    conns: Vec<Conn>,
}

fn req(seq: u64, slot: u64) -> u64 {
    seq << 8 | slot
}

impl Session<'_> {
    /// One request/response on connection `c`, traced as `name`.
    fn call(
        &mut self,
        c: usize,
        payload: &[u8],
        name: &'static str,
        parent: SpanId,
        id: u64,
    ) -> Result<Response, String> {
        let start = Instant::now();
        let resp = self.conns[c].call(payload);
        self.tracer
            .record(name, parent, id, start, Instant::now(), 1);
        resp
    }

    fn run_day(
        &mut self,
        day: usize,
        records: &mut Vec<PeriodRecord>,
        report: &mut Report,
    ) -> Result<(), String> {
        let n = self.inputs.city.rsu_count();
        let mut sizes = self.inputs.first_sizes.clone();
        for p in 0..PERIODS {
            let seq = (day * PERIODS + p) as u64;
            let period_start = Instant::now();
            let root = self.tracer.open("period", SpanId::NONE, seq);
            let fleet_span = self.tracer.open("fleet", root, seq);
            let fleet = fleet::drive(
                &self.inputs.city,
                p,
                &sizes,
                self.scheme,
                self.authority,
                self.ctx.threads,
                self.tracer,
                fleet_span,
            );
            self.tracer.close(fleet_span, fleet.reports);
            report.attempted += fleet.reports + fleet.failed;
            if fleet.failed > 0 {
                report.fail(format!(
                    "period {seq}: {} vehicle reports failed",
                    fleet.failed
                ));
            }
            let uploads = fleet::uploads(&fleet.rsus, self.tracer, root, seq);
            let fills = fleet::fills(&uploads);

            let encoding = self.tracer.open("protocol.encode", root, seq);
            let mut parts: Vec<Vec<SequencedUpload>> = vec![Vec::new(), Vec::new()];
            for (j, upload) in uploads.into_iter().enumerate() {
                parts[j % 2].push(SequencedUpload { seq, upload });
            }
            let frames: Vec<Vec<u8>> = parts
                .into_iter()
                .map(|part| {
                    BatchUpload::new(part)
                        .map(|b| b.encode().to_vec())
                        .map_err(|e| format!("batch: {e}"))
                })
                .collect::<Result<_, _>>()?;
            self.tracer.close(encoding, n as u64);

            let close_start = Instant::now();
            let tracer = self.tracer;
            let acks: Vec<Result<Response, String>> = {
                let (first, second) = self.conns.split_at_mut(1);
                let send = |conn: &mut Conn, c: usize| {
                    let start = Instant::now();
                    let resp = conn.call(&frames[c]);
                    tracer.record(
                        "net.ingest",
                        root,
                        req(seq, c as u64),
                        start,
                        Instant::now(),
                        1,
                    );
                    resp
                };
                std::thread::scope(|scope| {
                    let other = scope.spawn(|| send(&mut second[0], 1));
                    let mine = send(&mut first[0], 0);
                    vec![mine, other.join().expect("upload thread panicked")]
                })
            };
            for (c, ack) in acks.into_iter().enumerate() {
                report.attempted += 1;
                let expected = (n / 2 + (n % 2) * usize::from(c == 0)) as u64;
                match ack {
                    Ok(Response::Ack(a)) if a.frames == expected && a.fresh == expected => {}
                    other => report.fail(format!("period {seq} upload {c}: {other:?}")),
                }
            }

            report.attempted += 1;
            let od_digest = match self.call(
                0,
                &wire::encode_od_query(0),
                "net.od",
                root,
                req(seq, SLOT_OD),
            )? {
                Response::Matrix(m) => {
                    let ids_ok = m.rsus.len() == n
                        && m.rsus.iter().enumerate().all(|(j, &id)| id == rsu_id(j).0);
                    report.check(ids_ok, || format!("period {seq}: O–D matrix RSU ids"));
                    m.entries
                        .iter()
                        .fold(0, |h, e| digest_answer(h, e.as_ref()))
                }
                other => {
                    report.fail(format!("period {seq}: O–D answered {other:?}"));
                    0
                }
            };
            let mut topk = Vec::with_capacity(TOP_K);
            for (i, &(a, b)) in self.inputs.corridors.iter().enumerate() {
                report.attempted += 1;
                let query = wire::encode_pair_query(rsu_id(a).0, rsu_id(b).0);
                match self.call(0, &query, "net.pair", root, req(seq, SLOT_PAIR + i as u64))? {
                    Response::Estimate(e) => topk.push(wire::estimate_bits(&e)),
                    other => report.fail(format!("period {seq}: pair answered {other:?}")),
                }
            }
            let close = close_start.elapsed();

            report.attempted += 1;
            let finish = [wire::REQ_FINISH_PERIOD];
            let sizes_resp =
                match self.call(0, &finish, "net.finish", root, req(seq, SLOT_FINISH))? {
                    Response::Sizes(s) => s,
                    other => return Err(format!("period {seq}: finish answered {other:?}")),
                };
            if sizes_resp.len() != n {
                return Err(format!("period {seq}: sizes for {} RSUs", sizes_resp.len()));
            }
            for &(rsu, bits) in &sizes_resp {
                let j = usize::try_from(rsu)
                    .ok()
                    .and_then(|r| r.checked_sub(1))
                    .filter(|&j| j < n);
                match (j, usize::try_from(bits)) {
                    (Some(j), Ok(m)) if m >= 2 => sizes[j] = m,
                    _ => return Err(format!("period {seq}: bad size entry ({rsu}, {bits})")),
                }
            }
            self.tracer.close(root, 1);
            records.push(PeriodRecord {
                p,
                seq,
                frames,
                od_digest,
                topk,
                sizes: sizes_resp,
                close,
                wall: period_start.elapsed(),
                fills,
            });
        }
        Ok(())
    }
}

/// `od_matrix_threads`, then (when `encode`) the daemon's response
/// encoding, traced as `od.decode` and `od.response_encode`; returns the
/// matrix and the response size (0 unencoded).
///
/// # Errors
///
/// Decode failures.
pub fn decode_od(
    server: &ShardedServer,
    threads: usize,
    tracer: &Tracer,
    id: u64,
    encode: bool,
) -> Result<(OdMatrix, usize), String> {
    let decoding = tracer.open("od.decode", SpanId::NONE, id);
    let matrix = server
        .od_matrix_threads(threads)
        .map_err(|e| format!("reference O–D: {e}"))?;
    tracer.close(decoding, 1);
    let mut bytes = 0;
    if encode {
        let encoding = tracer.open("od.response_encode", SpanId::NONE, id);
        bytes = wire::encode_matrix_response(&matrix).len();
        tracer.close(encoding, 1);
    }
    Ok((matrix, bytes))
}

/// What replaying the recorded bytes into the in-process reference
/// found, beyond the pass/fail checks.
#[derive(Default)]
struct Replay {
    outcomes: [u64; 3],
    od_pairs: u64,
    kernels: BTreeMap<String, u64>,
    response_bytes: u64,
    ci_inside: u64,
    ci_total: u64,
    degraded: u64,
    answers: u64,
}

fn kernel_counts(obs: &Obs) -> BTreeMap<String, u64> {
    obs.snapshot().counters_with_prefix("kernel.")
}

/// Feeds every recorded frame to an in-process `ShardedServer` and
/// checks each daemon answer bit for bit; traced spans time each layer
/// call from outside.
fn replay(
    ctx: &Ctx,
    inputs: &Inputs,
    scheme: &Scheme,
    records: &[PeriodRecord],
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Replay, String> {
    let obs = if tracer.enabled() {
        Obs::enabled(Level::Info)
    } else {
        Obs::disabled()
    };
    let mut reference = ShardedServer::new(scheme.clone(), ALPHA, SHARDS)
        .map_err(|e| format!("reference server: {e}"))?
        .with_obs(obs.clone());
    let n = inputs.city.rsu_count();
    let mut out = Replay::default();
    // The daemon here is volatile; the traced run still times the durable
    // layer on these frames through a mirror.
    let mut mirror = if tracer.enabled() {
        Some(Mirror::create("metro-day")?)
    } else {
        None
    };
    for rec in records {
        let seq = rec.seq;
        for (c, frame) in rec.frames.iter().enumerate() {
            let id = req(seq, c as u64);
            let decoding = tracer.open("protocol.decode", SpanId::NONE, id);
            let view =
                BatchUploadRef::decode_ref(frame).map_err(|e| format!("replay decode: {e}"))?;
            tracer.close(decoding, view.len() as u64);
            if let Some(mirror) = mirror.as_mut() {
                mirror.append(tracer, id, frame)?;
            }
            let applying = tracer.open("shard.apply", SpanId::NONE, id);
            let outcomes = reference.receive_batch_ref(&view);
            tracer.close(applying, outcomes.len() as u64);
            for o in outcomes {
                match o {
                    ReceiveOutcome::Fresh => out.outcomes[0] += 1,
                    ReceiveOutcome::Duplicate => out.outcomes[1] += 1,
                    _ => out.outcomes[2] += 1,
                }
            }
        }
        let before = kernel_counts(&obs);
        let (matrix, bytes) = decode_od(
            &reference,
            ctx.threads,
            tracer,
            req(seq, SLOT_OD),
            tracer.enabled(),
        )?;
        for (kind, count) in kernel_counts(&obs) {
            let delta = count - before.get(&kind).copied().unwrap_or(0);
            *out.kernels.entry(kind).or_default() += delta;
        }
        out.od_pairs += (n * (n - 1) / 2) as u64;
        out.response_bytes += bytes as u64;
        let mut digest = 0;
        for i in 0..n {
            for j in i + 1..n {
                digest = digest_answer(digest, matrix.at(i, j));
            }
        }
        report.check(digest == rec.od_digest, || {
            format!("period {seq}: O–D matrix differs from the reference")
        });
        // Calibration is a property of the inputs; every day replays the
        // same trips, so the first day covers it.
        if rec.seq < PERIODS as u64 {
            let truth = inputs.city.pair_truth(rec.p);
            for i in 0..n {
                for j in i + 1..n {
                    let t = truth[gen::triangle_index(n, i, j)];
                    if t < TRUTH_FLOOR {
                        continue;
                    }
                    out.ci_total += 1;
                    if let Some(PairEstimate::Measured(e)) = matrix.at(i, j) {
                        if let Ok((lo, hi)) = e.confidence_interval(crate::daemon::S, 0.95) {
                            out.ci_inside += u64::from(lo <= f64::from(t) && f64::from(t) <= hi);
                        }
                    }
                }
            }
        }
        drop(matrix);
        for (i, &(a, b)) in inputs.corridors.iter().enumerate() {
            let asking = tracer.open("query.pair", SpanId::NONE, req(seq, SLOT_PAIR + i as u64));
            let e = reference
                .estimate_or_degraded(rsu_id(a), rsu_id(b))
                .map_err(|e| format!("reference pair: {e}"))?;
            tracer.close(asking, 1);
            out.answers += 1;
            out.degraded += u64::from(matches!(e, PairEstimate::Degraded(_)));
            let same = rec.topk.get(i) == Some(&wire::estimate_bits(&e));
            report.check(same, || {
                format!("period {seq}: pair ({a}, {b}) differs from the reference")
            });
        }
        let finishing = tracer.open("period.finish", SpanId::NONE, req(seq, SLOT_FINISH));
        let sizes = reference
            .finish_period()
            .map_err(|e| format!("reference finish: {e}"))?;
        tracer.close(finishing, 1);
        if let Some(mirror) = mirror.as_mut() {
            mirror.checkpoint(tracer, req(seq, SLOT_FINISH), &reference)?;
        }
        let sizes: Vec<(u64, u64)> = sizes.into_iter().map(|(r, m)| (r.0, m as u64)).collect();
        report.check(sizes == rec.sizes, || {
            format!("period {seq}: sizes differ from the reference")
        });
    }
    if let Some(mirror) = mirror.as_mut() {
        mirror.recover(tracer, scheme.clone())?;
    }
    Ok(out)
}

/// Runs whole days on a fresh session — one, then another while the
/// mean day so far still fits in what is left of `budget` — returning
/// the records and each day's wall time.
fn run_days(
    session: &mut Session<'_>,
    budget: Duration,
    report: &mut Report,
) -> Result<(Vec<PeriodRecord>, Vec<Duration>), String> {
    let started = Instant::now();
    let mut records = Vec::new();
    let mut walls = Vec::new();
    while walls.is_empty()
        || started.elapsed() + walls.iter().sum::<Duration>() / walls.len() as u32 <= budget
    {
        let t = Instant::now();
        session.run_day(walls.len(), &mut records, report)?;
        walls.push(t.elapsed());
    }
    Ok((records, walls))
}

/// The `metro-day` workload.
///
/// # Errors
///
/// Set-up, transport and protocol failures that stop the run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    ctx.record_host(&mut report);
    let scheme = ctx.scheme();
    let authority = ctx.authority();
    let dspec = DaemonSpec {
        scheme_seed: ctx.scheme_seed(),
        od_threads: ctx.threads,
        wal: None,
    };

    let (inputs, daemon, setup) = ctx.set_up(
        &mut report,
        "metro-day",
        |_| Ok(dspec.clone()),
        || generate(ctx, &scheme),
        |a, b| a.city.trips == b.city.trips,
    )?;

    let untraced = Tracer::new(false);
    let connect = |d: &Daemon| -> Result<Vec<Conn>, String> {
        Ok(vec![Conn::new(d.connect()?), Conn::new(d.connect()?)])
    };
    let mut session = Session {
        ctx,
        inputs: &inputs,
        scheme: &scheme,
        authority: &authority,
        tracer: &untraced,
        conns: connect(&daemon)?,
    };
    // The traced run measures one untraced and one traced day, each on
    // a fresh daemon, so their walls differ only by the tracing.
    let budget = if ctx.trace {
        Duration::ZERO
    } else {
        ctx.seconds
    };
    let (records, walls) = run_days(&mut session, budget, &mut report)?;
    let rss_mb = daemon.peak_rss_mb()?;
    let frames_bytes: u64 = session.conns.iter().map(|c| c.bytes).sum();
    let frames_count: u64 = session.conns.iter().map(|c| c.frames).sum();
    drop(session);
    daemon.shutdown()?;

    let closes: Vec<f64> = records
        .iter()
        .map(|r| r.close.as_secs_f64() * 1e3)
        .collect();
    let days: Vec<f64> = walls.iter().map(Duration::as_secs_f64).collect();
    let close = Summary::of(&closes);
    let day = Summary::of(&days);
    report.meta_num("rsus", inputs.city.rsu_count() as f64);
    report.meta_num("periods_per_day", PERIODS as f64);
    report.meta_num("days", days.len() as f64);
    report.meta_num(
        "vehicles_per_day",
        inputs.city.trips.iter().map(Vec::len).sum::<usize>() as f64,
    );
    report.meta_summary("close_ms", &close);
    report.meta_summary("day_s", &day);
    report.meta_summary("setup_s", &setup);
    report.meta_num("client_frames", frames_count as f64);
    report.meta_num("client_bytes", frames_bytes as f64);

    if !ctx.trace {
        let replayed = replay(ctx, &inputs, &scheme, &records, &untraced, &mut report)?;
        let coverage = replayed.ci_inside as f64 / replayed.ci_total.max(1) as f64;
        report.meta_num("ci95_pairs", replayed.ci_total as f64);
        report.meta_num("ci95_gap", (coverage - 0.95).abs());
        let mut sorted = closes.clone();
        sorted.sort_by(f64::total_cmp);
        let walls: Vec<f64> = records.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
        report.meta_num("ci95_coverage", coverage);
        report.end_to_end(
            setup.p50,
            rss_mb,
            [close.p50, stats::percentile(&sorted, 90.0)],
            stats::median(&walls),
        );
        return Ok(report);
    }

    // Traced day on a fresh daemon, same inputs.
    let traced = Tracer::new(true);
    let daemon = Daemon::start(&ctx.bin, &dspec, "metro-day-traced")?;
    let mut session = Session {
        ctx,
        inputs: &inputs,
        scheme: &scheme,
        authority: &authority,
        tracer: &traced,
        conns: connect(&daemon)?,
    };
    let wall_start = Instant::now();
    let (traced_records, traced_walls) = run_days(&mut session, Duration::ZERO, &mut report)?;
    let wall_end = Instant::now();
    let net_frames: u64 = session.conns.iter().map(|c| c.frames).sum();
    let net_bytes: u64 = session.conns.iter().map(|c| c.bytes).sum();
    drop(session);
    daemon.shutdown()?;
    for (a, b) in records.iter().zip(&traced_records) {
        report.attempted += 1;
        report.check(
            a.od_digest == b.od_digest && a.topk == b.topk && a.sizes == b.sizes,
            || format!("period {}: traced and untraced days disagree", a.seq),
        );
    }
    let replayed = replay(ctx, &inputs, &scheme, &traced_records, &traced, &mut report)?;
    let spans = traced.spans();
    let fills: Vec<f64> = traced_records
        .iter()
        .flat_map(|r| r.fills.iter().copied())
        .collect();
    let mut layers = report::common_layers(&spans, &fills);
    layers.insert(
        "protocol.wire_bytes",
        traced_records
            .iter()
            .flat_map(|r| &r.frames)
            .map(Vec::len)
            .sum::<usize>() as f64,
    );
    layers.insert("shard.fresh", replayed.outcomes[0] as f64);
    layers.insert("shard.duplicate", replayed.outcomes[1] as f64);
    layers.insert("shard.stale", replayed.outcomes[2] as f64);
    layers.insert("od.pairs", replayed.od_pairs as f64);
    for (kind, count) in &replayed.kernels {
        let name = match kind.as_str() {
            "kernel.dense" => "od.kernel.dense",
            "kernel.sparse_sparse" => "od.kernel.sparse_sparse",
            "kernel.sparse_dense" => "od.kernel.sparse_dense",
            "kernel.dense_sparse" => "od.kernel.dense_sparse",
            _ => continue,
        };
        layers.insert(name, *count as f64);
    }
    layers.insert("od.response_bytes", replayed.response_bytes as f64);
    // Each corridor is asked once per period, after every upload: no
    // query repeats a pair since its last invalidation.
    layers.insert("query.repeat_share", 0.0);
    layers.insert(
        "query.degraded_share",
        replayed.degraded as f64 / replayed.answers.max(1) as f64,
    );
    layers.insert(
        "net.overhead_ns.ingest",
        trace::overhead_ns(&spans, "net.ingest", &["protocol.decode", "shard.apply"]),
    );
    layers.insert(
        "net.overhead_ns.pair",
        trace::overhead_ns(&spans, "net.pair", &["query.pair"]),
    );
    report.meta_num(
        "net_overhead_ns_od",
        trace::overhead_ns(&spans, "net.od", &["od.decode", "od.response_encode"]),
    );
    layers.insert("net.frames", net_frames as f64);
    layers.insert("net.bytes", net_bytes as f64);
    layers.insert(
        "trace.coverage",
        trace::coverage(&spans, BLOCKING, traced.at(wall_start), traced.at(wall_end)),
    );
    layers.insert(
        "trace.overhead",
        (traced_walls[0].as_secs_f64() - walls[0].as_secs_f64()) * 1e3,
    );
    report.layers(&layers);
    report.meta_num("untraced_day_s", walls[0].as_secs_f64());
    report.meta_num("traced_day_s", traced_walls[0].as_secs_f64());
    report.write_trace(ctx.seed, "metro-day", &spans);
    Ok(report)
}
