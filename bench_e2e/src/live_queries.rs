//! `live-queries`: an open loop of fixed-rate pair queries on one
//! connection while the same period's per-RSU uploads stream in at a
//! fixed rate on the other, against a volatile `vcpsd`.
//!
//! Queries pick corridors by a Zipf law over the generator's busiest
//! pairs; each query's latency runs from its due time, so a stall
//! charges every query due during it. Uploads take the daemon's write
//! lock and invalidate decode-memo entries while the reads run. When a
//! period's uploads are all acknowledged, the query connection sends
//! `finish_period` at its next slot, so every query falls in exactly one
//! period and its answer must be one of four admissible states: each of
//! the pair's two RSUs has uploaded this period or not.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng, StdRng};
use vcps_core::Scheme;
use vcps_net::wire::{self, Response};
use vcps_sim::{SequencedUpload, SequencedUploadRef, ShardedServer};

use crate::conn::Conn;
use crate::daemon::{Daemon, DaemonSpec, ALPHA, SHARDS};
use crate::fleet::{self, rsu_id};
use crate::gen::{self, City};
use crate::metro_day::decode_od;
use crate::mirror::Mirror;
use crate::report::{self, Report};
use crate::stats::{self, Schedule, Summary, Zipf};
use crate::trace::{self, SpanId, Tracer};
use crate::Ctx;

/// Periods in the generated day.
const PERIODS: usize = gen::DISTRICT.periods;
/// Pair queries per second.
const QUERY_RATE: f64 = 2_000.0;
/// Uploads per second (a 256-RSU period streams in over half a second).
const UPLOAD_RATE: f64 = 512.0;
/// Corridors the queries draw from, and the Zipf exponent over them.
const CORRIDORS: usize = 64;
const ZIPF_EXPONENT: f64 = 1.0;
/// A query whose round trip exceeds this is late: 0.1 ms is twice the
/// median loopback round trip of a pair query, so a late query waited on
/// something besides its own work — the write lock an upload or a
/// period close holds, or a decode behind an invalidated memo entry.
const LATE_MS: f64 = 0.1;
/// Both client threads busy-wait for due times closer than this (both
/// of their intervals are). A sleeping thread lets its processor go idle,
/// and on a small virtual machine the wake-up that follows (tens of
/// microseconds, varying with the host's load) would land in every
/// latency measured.
const SPIN: Duration = Duration::from_millis(5);
/// Unmeasured load before each pass.
const WARM_UP: Duration = Duration::from_secs(1);

struct Inputs {
    n: usize,
    day: fleet::Day,
    corridors: Vec<(usize, usize)>,
}

fn generate(ctx: &Ctx, scheme: &Scheme, tracer: &Tracer) -> Result<Inputs, String> {
    let city = City::generate(&gen::DISTRICT, ctx.seed);
    if !city.conserves_demand() {
        return Err("the generator lost or invented demand".into());
    }
    let day = fleet::day(&city, scheme, &ctx.authority(), ctx.threads, tracer);
    Ok(Inputs {
        n: city.rsu_count(),
        day,
        corridors: city.corridors(CORRIDORS),
    })
}

/// Measured periods start at 1; period 0 is the warm-up that gives every
/// RSU a history.
fn frame(inputs: &Inputs, k: u64, j: usize) -> Vec<u8> {
    SequencedUpload {
        seq: k,
        upload: inputs.day.uploads[k as usize % PERIODS][j].clone(),
    }
    .encode()
    .to_vec()
}

/// The order RSUs upload in during period `k`.
fn upload_order(seed: u64, n: usize, k: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

struct QueryRec {
    period: u64,
    pair: (usize, usize),
    due: Instant,
    sent: Instant,
    /// How late the generator sent it.
    late: Duration,
    done: Instant,
    answer: Result<Vec<u64>, String>,
}

struct UploadRec {
    period: u64,
    j: usize,
    done: Instant,
}

struct FinishRec {
    period: u64,
    done: Instant,
    sizes: Result<Vec<(u64, u64)>, String>,
}

struct Pass {
    queries: Vec<QueryRec>,
    /// When each period's uploads began.
    period_starts: Vec<(u64, Instant)>,
    uploads: Vec<UploadRec>,
    finishes: Vec<FinishRec>,
    upload_problems: Vec<String>,
    warmup_sizes: Vec<(u64, u64)>,
    rss_mb: f64,
    net_frames: u64,
    net_bytes: u64,
}

/// One open-loop pass of `budget` on a fresh daemon.
fn pass(
    ctx: &Ctx,
    inputs: &Inputs,
    daemon: Daemon,
    budget: Duration,
    tracer: &Tracer,
) -> Result<Pass, String> {
    let mut qconn = Conn::new(daemon.connect()?);
    let mut uconn = Conn::new(daemon.connect()?);
    // Warm-up period: every RSU uploads once and the period closes, so
    // each RSU has a history before the first query.
    for j in 0..inputs.n {
        match uconn.call(&frame(inputs, 0, j))? {
            Response::Ack(a) if a.fresh == 1 => {}
            other => return Err(format!("warm-up upload answered {other:?}")),
        }
    }
    let warmup_sizes = match uconn.call(&[wire::REQ_FINISH_PERIOD])? {
        Response::Sizes(s) => s,
        other => return Err(format!("warm-up finish answered {other:?}")),
    };

    // A second of back-to-back queries before the clock starts, so the
    // measured window does not open on idle, cold processors.
    let warm_until = Instant::now() + WARM_UP;
    for &(a, b) in inputs.corridors.iter().cycle() {
        if Instant::now() >= warm_until {
            break;
        }
        match qconn.call(&wire::encode_pair_query(rsu_id(a).0, rsu_id(b).0))? {
            Response::Estimate(_) => {}
            other => return Err(format!("warm-up query answered {other:?}")),
        }
    }

    let zipf = Zipf::new(inputs.corridors.len(), ZIPF_EXPONENT);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x2195_0000);
    let schedule = Schedule::per_second(QUERY_RATE);
    let upload_schedule = Schedule::per_second(UPLOAD_RATE);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + budget;
    let (finish_tx, finish_rx) = mpsc::channel::<u64>();
    let (done_tx, done_rx) = mpsc::channel::<()>();

    let uploads_conn = &mut uconn;
    let (queries, finishes, (uploads, upload_problems, period_starts)) =
        std::thread::scope(|scope| {
            let uploader = scope.spawn(move || {
                let mut recs = Vec::new();
                let mut problems = Vec::new();
                let mut starts = Vec::new();
                let mut period_start = start;
                for k in 1u64.. {
                    starts.push((k, period_start));
                    for (idx, j) in upload_order(ctx.seed, inputs.n, k).into_iter().enumerate() {
                        let due = period_start + upload_schedule.due(idx as u64);
                        if due >= end {
                            return (recs, problems, starts);
                        }
                        let id = 2 << 40 | k << 16 | idx as u64;
                        let encoding = tracer.open("protocol.encode", SpanId::NONE, id);
                        let bytes = frame(inputs, k, j);
                        tracer.close(encoding, 1);
                        wait_until(due);
                        let sent = Instant::now();
                        let resp = uploads_conn.call(&bytes);
                        let done = Instant::now();
                        tracer.record("net.ingest", SpanId::NONE, id, sent, done, 1);
                        match resp {
                            Ok(Response::Ack(a)) if a.frames == 1 && a.fresh == 1 => {}
                            other => problems.push(format!("period {k} upload {j}: {other:?}")),
                        }
                        recs.push(UploadRec { period: k, j, done });
                    }
                    if finish_tx.send(k).is_err() || done_rx.recv().is_err() {
                        return (recs, problems, starts);
                    }
                    period_start = Instant::now();
                }
                (recs, problems, starts)
            });

            let mut queries = Vec::new();
            let mut finishes = Vec::new();
            let mut period = 1u64;
            for i in 0u64.. {
                let due = start + schedule.due(i);
                if due >= end {
                    break;
                }
                if let Ok(k) = finish_rx.try_recv() {
                    let sent = Instant::now();
                    let resp = qconn.call(&[wire::REQ_FINISH_PERIOD]);
                    let done = Instant::now();
                    tracer.record("net.finish", SpanId::NONE, 3 << 40 | k, sent, done, 1);
                    let sizes = match resp {
                        Ok(Response::Sizes(s)) => Ok(s),
                        other => Err(format!("finish answered {other:?}")),
                    };
                    finishes.push(FinishRec {
                        period: k,
                        done,
                        sizes,
                    });
                    period = k + 1;
                    let _ = done_tx.send(());
                }
                let pair = inputs.corridors[zipf.sample(&mut rng)];
                let query = wire::encode_pair_query(rsu_id(pair.0).0, rsu_id(pair.1).0);
                wait_until(due);
                let sent = Instant::now();
                let resp = qconn.call(&query);
                let done = Instant::now();
                tracer.record("net.pair", SpanId::NONE, 1 << 40 | i, sent, done, 1);
                let answer = match resp {
                    Ok(Response::Estimate(e)) => Ok(wire::estimate_bits(&e)),
                    Ok(other) => Err(format!("pair answered {other:?}")),
                    Err(e) => Err(e),
                };
                let late = schedule.lateness(i, sent - start);
                queries.push(QueryRec {
                    period,
                    pair,
                    due,
                    sent,
                    late,
                    done,
                    answer,
                });
            }
            drop(finish_rx);
            drop(done_tx);
            let uploaded = uploader.join().expect("uploader panicked");
            (queries, finishes, uploaded)
        });
    let rss_mb = daemon.peak_rss_mb()?;
    let net_frames = qconn.frames + uconn.frames;
    let net_bytes = qconn.bytes + uconn.bytes;
    drop((qconn, uconn));
    daemon.shutdown()?;
    Ok(Pass {
        queries,
        period_starts,
        uploads,
        finishes,
        upload_problems,
        warmup_sizes,
        rss_mb,
        net_frames,
        net_bytes,
    })
}

/// Checks a pass against an in-process reference: warm-up and finish
/// sizes exactly, and every query answer against the four states its
/// pair can be in during its period.
fn verify(ctx: &Ctx, inputs: &Inputs, pass: &Pass, report: &mut Report) -> Result<(), String> {
    let mut reference = ShardedServer::new(ctx.scheme(), ALPHA, SHARDS)
        .map_err(|e| format!("reference server: {e}"))?;
    let receive = |server: &mut ShardedServer, k: u64, j: usize| -> Result<(), String> {
        let bytes = frame(inputs, k, j);
        let view =
            SequencedUploadRef::decode_ref(&bytes).map_err(|e| format!("replay decode: {e}"))?;
        server.receive_sequenced_ref(&view);
        Ok(())
    };
    let answer = |server: &ShardedServer, (a, b): (usize, usize)| -> Result<Vec<u64>, String> {
        server
            .estimate_or_degraded(rsu_id(a), rsu_id(b))
            .map(|e| wire::estimate_bits(&e))
            .map_err(|e| format!("reference pair: {e}"))
    };
    for j in 0..inputs.n {
        receive(&mut reference, 0, j)?;
    }
    let sizes: Vec<(u64, u64)> = reference
        .finish_period()
        .map_err(|e| format!("reference finish: {e}"))?
        .into_iter()
        .map(|(r, m)| (r.0, m as u64))
        .collect();
    report.attempted += 1;
    report.check(sizes == pass.warmup_sizes, || {
        "warm-up sizes differ from the reference".into()
    });

    let last = pass.queries.iter().map(|q| q.period).max().unwrap_or(1);
    for k in 1..=last {
        let in_period: Vec<&QueryRec> = pass.queries.iter().filter(|q| q.period == k).collect();
        let pairs: BTreeSet<(usize, usize)> = in_period.iter().map(|q| q.pair).collect();
        let mut admissible: BTreeMap<(usize, usize), Vec<Vec<u64>>> = BTreeMap::new();
        for &(a, b) in &pairs {
            let mut states = vec![answer(&reference, (a, b))?];
            for uploaded in [vec![a], vec![b], vec![a, b]] {
                let mut s = reference.clone();
                for j in uploaded {
                    receive(&mut s, k, j)?;
                }
                states.push(answer(&s, (a, b))?);
            }
            admissible.insert((a, b), states);
        }
        for q in in_period {
            report.attempted += 1;
            match &q.answer {
                Ok(bits) if admissible[&q.pair].contains(bits) => {}
                Ok(_) => report.fail(format!(
                    "period {k}: pair {:?} answer is not admissible",
                    q.pair
                )),
                Err(e) => report.fail(format!("period {k}: pair {:?} failed: {e}", q.pair)),
            }
        }
        for u in pass.uploads.iter().filter(|u| u.period == k) {
            receive(&mut reference, k, u.j)?;
        }
        if let Some(f) = pass.finishes.iter().find(|f| f.period == k) {
            let sizes: Vec<(u64, u64)> = reference
                .finish_period()
                .map_err(|e| format!("reference finish: {e}"))?
                .into_iter()
                .map(|(r, m)| (r.0, m as u64))
                .collect();
            report.attempted += 1;
            report.check(f.sizes.as_ref() == Ok(&sizes), || {
                format!("period {k}: sizes differ from the reference")
            });
        }
    }
    report.attempted += pass.uploads.len() as u64;
    for p in &pass.upload_problems {
        report.fail(p.clone());
    }
    Ok(())
}

/// Per-query latencies in ms: from due time to answer, and from send to
/// answer (the round trip). A failed query counts as infinitely late in
/// both.
fn latencies_ms(pass: &Pass) -> (Vec<f64>, Vec<f64>) {
    let ms = |q: &QueryRec, from: Instant| {
        if q.answer.is_ok() {
            (q.done - from).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    };
    pass.queries
        .iter()
        .map(|q| (ms(q, q.due), ms(q, q.sent)))
        .unzip()
}

/// What the traced replay counted.
struct Replayed {
    repeats: u64,
    degraded: u64,
    answered: u64,
}

/// Replays the pass's events in the order the client saw them complete
/// (uploads and finishes at their acknowledgement, queries at their
/// send) into an in-process server, timing each layer call.
fn replay_traced(
    ctx: &Ctx,
    inputs: &Inputs,
    pass: &Pass,
    tracer: &Tracer,
) -> Result<Replayed, String> {
    enum Event<'a> {
        Upload(&'a UploadRec, u64),
        Finish(&'a FinishRec),
        Query(&'a QueryRec, u64),
    }
    let mut events: Vec<(Instant, Event<'_>)> = Vec::new();
    let mut per_period: BTreeMap<u64, u64> = BTreeMap::new();
    for u in &pass.uploads {
        let idx = per_period.entry(u.period).or_default();
        events.push((u.done, Event::Upload(u, *idx)));
        *idx += 1;
    }
    events.extend(pass.finishes.iter().map(|f| (f.done, Event::Finish(f))));
    events.extend(
        pass.queries
            .iter()
            .enumerate()
            .map(|(i, q)| (q.sent, Event::Query(q, i as u64))),
    );
    events.sort_by_key(|(at, _)| *at);

    let mut server = ShardedServer::new(ctx.scheme(), ALPHA, SHARDS)
        .map_err(|e| format!("reference server: {e}"))?;
    for j in 0..inputs.n {
        let bytes = frame(inputs, 0, j);
        let view =
            SequencedUploadRef::decode_ref(&bytes).map_err(|e| format!("replay decode: {e}"))?;
        server.receive_sequenced_ref(&view);
    }
    server
        .finish_period()
        .map_err(|e| format!("replay finish: {e}"))?;
    // The daemon here is volatile and never decodes a whole matrix; the
    // traced run still times those layers on this workload's frames and
    // state, through a WAL mirror and one matrix per period close.
    let mut mirror = Mirror::create("live-queries")?;
    // A query repeats when its pair was asked since the last upload of
    // either RSU or the last period close.
    let mut asked: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut out = Replayed {
        repeats: 0,
        degraded: 0,
        answered: 0,
    };
    for (_, event) in events {
        match event {
            Event::Upload(u, idx) => {
                let id = 2 << 40 | u.period << 16 | idx;
                let bytes = frame(inputs, u.period, u.j);
                let decoding = tracer.open("protocol.decode", SpanId::NONE, id);
                let view = SequencedUploadRef::decode_ref(&bytes)
                    .map_err(|e| format!("replay decode: {e}"))?;
                tracer.close(decoding, 1);
                mirror.append(tracer, id, &bytes)?;
                let applying = tracer.open("shard.apply", SpanId::NONE, id);
                server.receive_sequenced_ref(&view);
                tracer.close(applying, 1);
                asked.retain(|&(a, b)| a != u.j && b != u.j);
            }
            Event::Finish(f) => {
                let id = 3 << 40 | f.period;
                decode_od(&server, ctx.threads, tracer, id, true)?;
                let finishing = tracer.open("period.finish", SpanId::NONE, id);
                server
                    .finish_period()
                    .map_err(|e| format!("replay finish: {e}"))?;
                tracer.close(finishing, 1);
                mirror.checkpoint(tracer, id, &server)?;
                asked.clear();
            }
            Event::Query(q, i) => {
                let asking = tracer.open("query.pair", SpanId::NONE, 1 << 40 | i);
                let e = server
                    .estimate_or_degraded(rsu_id(q.pair.0), rsu_id(q.pair.1))
                    .map_err(|e| format!("replay pair: {e}"))?;
                tracer.close(asking, 1);
                out.repeats += u64::from(!asked.insert(q.pair));
                out.answered += 1;
                out.degraded += u64::from(matches!(e, vcps_core::PairEstimate::Degraded(_)));
            }
        }
    }
    mirror.recover(tracer, ctx.scheme())?;
    Ok(out)
}

/// The `live-queries` workload.
///
/// # Errors
///
/// Set-up, transport and protocol failures that stop the run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    ctx.record_host(&mut report);
    let scheme = ctx.scheme();
    let untraced = Tracer::new(false);
    let dspec = DaemonSpec {
        scheme_seed: ctx.scheme_seed(),
        od_threads: ctx.threads,
        wal: None,
    };

    let (inputs, daemon, setup) = ctx.set_up(
        &mut report,
        "live-queries",
        |_| Ok(dspec.clone()),
        || generate(ctx, &scheme, &untraced),
        |a, b| a.day.uploads == b.day.uploads,
    )?;

    // The traced run splits its budget between an untraced and a traced
    // pass, each on a fresh daemon.
    let budget = if ctx.trace {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };
    let untraced_pass = pass(ctx, &inputs, daemon, budget, &untraced)?;
    verify(ctx, &inputs, &untraced_pass, &mut report)?;
    let (from_due, round_trip) = latencies_ms(&untraced_pass);
    let due = Summary::of(&from_due);
    let rtt = Summary::of(&round_trip);
    let mut sorted_due = from_due.clone();
    sorted_due.sort_by(f64::total_cmp);
    let late =
        round_trip.iter().filter(|&&l| l > LATE_MS).count() as f64 / round_trip.len().max(1) as f64;
    let lateness: Vec<f64> = untraced_pass
        .queries
        .iter()
        .map(|q| q.late.as_secs_f64() * 1e3)
        .collect();
    report.meta_num("rsus", inputs.n as f64);
    report.meta_num("query_rate", QUERY_RATE);
    report.meta_num("upload_rate", UPLOAD_RATE);
    report.meta_num("late_limit_ms", LATE_MS);
    report.meta_num("query_late_share", late);
    report.meta_num("queries", untraced_pass.queries.len() as f64);
    report.meta_num("uploads", untraced_pass.uploads.len() as f64);
    report.meta_num("periods_closed", untraced_pass.finishes.len() as f64);
    report.meta_summary("query_ms_from_due", &due);
    report.meta_summary("query_ms_round_trip", &rtt);
    report.meta_summary("generator_late_ms", &Summary::of(&lateness));
    report.meta_summary("setup_s", &setup);

    if !ctx.trace {
        // A period runs from its first paced upload to its close.
        let periods: Vec<f64> = untraced_pass
            .finishes
            .iter()
            .filter_map(|f| {
                let (_, begun) = untraced_pass
                    .period_starts
                    .iter()
                    .find(|(k, _)| *k == f.period)?;
                Some((f.done - *begun).as_secs_f64() * 1e3)
            })
            .collect();
        report.meta_summary("period_ms", &Summary::of(&periods));
        report.end_to_end(
            setup.p50,
            untraced_pass.rss_mb,
            [due.p50, stats::percentile(&sorted_due, 90.0)],
            stats::median(&periods),
        );
        return Ok(report);
    }

    let traced = Tracer::new(true);
    generate(ctx, &scheme, &traced)?;
    let daemon = Daemon::start(&ctx.bin, &dspec, "live-queries-traced")?;
    let traced_pass = pass(ctx, &inputs, daemon, budget, &traced)?;
    verify(ctx, &inputs, &traced_pass, &mut report)?;
    let replayed = replay_traced(ctx, &inputs, &traced_pass, &traced)?;
    let spans = traced.spans();
    let fills: Vec<f64> = inputs
        .day
        .uploads
        .iter()
        .flat_map(|p| fleet::fills(p))
        .collect();
    let (traced_due, traced_rtt) = latencies_ms(&traced_pass);
    let mut layers = report::common_layers(&spans, &fills);
    layers.insert(
        "protocol.wire_bytes",
        traced_pass
            .uploads
            .iter()
            .map(|u| frame(&inputs, u.period, u.j).len() as f64)
            .sum(),
    );
    layers.insert("shard.fresh", traced_pass.uploads.len() as f64);
    layers.insert(
        "query.repeat_share",
        replayed.repeats as f64 / replayed.answered.max(1) as f64,
    );
    layers.insert(
        "query.degraded_share",
        replayed.degraded as f64 / replayed.answered.max(1) as f64,
    );
    layers.insert(
        "net.overhead_ns.ingest",
        trace::overhead_ns(&spans, "net.ingest", &["protocol.decode", "shard.apply"]),
    );
    layers.insert(
        "net.overhead_ns.pair",
        trace::overhead_ns(&spans, "net.pair", &["query.pair"]),
    );
    layers.insert("net.frames", traced_pass.net_frames as f64);
    layers.insert("net.bytes", traced_pass.net_bytes as f64);
    // An open loop's wall is its schedule; what spans must explain is
    // each query's latency, from due time to answer.
    layers.insert(
        "trace.coverage",
        traced_rtt.iter().sum::<f64>() / traced_due.iter().sum::<f64>().max(f64::MIN_POSITIVE),
    );
    layers.insert("trace.overhead", stats::median(&traced_due) - due.p50);
    report.layers(&layers);
    report.meta_num("traced_query_ms_p50", stats::median(&traced_due));
    report.write_trace(ctx.seed, "live-queries", &spans);
    Ok(report)
}
