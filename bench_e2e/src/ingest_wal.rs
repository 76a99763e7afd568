//! `ingest-wal`: a closed loop of per-RSU `SequencedUpload` frames into
//! a durable `vcpsd` (`--wal-dir`, `--flush-every 64`).
//!
//! A round starts a daemon on a fresh WAL directory and drives four
//! days of periods over two connections (RSU `j` on connection `j % 2`), each
//! pipelining its frames with a bounded window. The frame plan mixes
//! fresh uploads with retransmissions (duplicates) and stragglers from
//! the previous period (stale), so dedup runs on the ingest path. After
//! each period's uploads come a handful of pair queries and
//! `finish_period`. After the last period the daemon shuts down in
//! order, restarts on the same directory, and must answer the probe
//! pairs exactly as before. Rounds repeat until the time budget is
//! spent; every round replays the same generated frames.

use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng, StdRng};
use vcps_core::Scheme;
use vcps_net::wire::{self, Response};
use vcps_sim::{PeriodUpload, ReceiveOutcome, SequencedUpload, ShardedServer};

use crate::conn::Conn;
use crate::daemon::{self, Daemon, DaemonSpec, ALPHA, SHARDS, WORK_DIR};
use crate::fleet::{self, rsu_id};
use crate::gen::{self, City};
use crate::mirror::{self, Mirror, FLUSH_EVERY};
use crate::report::{self, Report};
use crate::stats::{self, Summary};
use crate::trace::{self, SpanId, Tracer};
use crate::Ctx;

/// Periods in the generated day.
const PERIODS: usize = gen::DISTRICT.periods;
/// Days a round replays on one daemon before its restart.
const ROUND_DAYS: usize = 4;
/// Periods per round.
const ROUND_PERIODS: usize = ROUND_DAYS * PERIODS;
/// Frames in flight per connection.
const WINDOW: usize = 32;
/// Share of fresh frames re-sent at once (duplicates).
const DUPLICATE_SHARE: f64 = 0.03;
/// Share of RSUs re-sending last period's frame (stale).
const STALE_SHARE: f64 = 0.01;
/// Pair queries after each period's uploads.
const QUERIES: usize = 4;
/// Corridors the queries draw from.
const CORRIDORS: usize = 32;
/// Pairs checked before shutdown and after recovery.
const PROBES: usize = 8;

/// Spans on the blocking path of a round.
const BLOCKING: &[&str] = &["protocol.encode", "net.ingest", "net.pair", "net.finish"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Duplicate,
    Stale,
}

/// One planned frame: RSU `j`'s upload of period `period`.
#[derive(Debug, Clone, Copy)]
struct Send {
    j: usize,
    period: usize,
    kind: Kind,
}

struct Inputs {
    n: usize,
    /// `[period][rsu]`.
    uploads: Vec<Vec<PeriodUpload>>,
    /// Sizes the daemon must answer at the end of period `p` (those of
    /// period `p + 1`), as `(rsu id, bits)`.
    next_sizes: Vec<Vec<(u64, u64)>>,
    /// `[period][connection]`.
    plan: Vec<[Vec<Send>; 2]>,
    queries: Vec<Vec<(usize, usize)>>,
    probes: Vec<(usize, usize)>,
}

/// Generates the city, runs its fleet for every period with the
/// scheme's sizing rule, and lays out the frame and query plan.
fn generate(ctx: &Ctx, scheme: &Scheme, tracer: &Tracer) -> Result<Inputs, String> {
    let city = City::generate(&gen::DISTRICT, ctx.seed);
    if !city.conserves_demand() {
        return Err("the generator lost or invented demand".into());
    }
    let n = city.rsu_count();
    let fleet::Day {
        uploads,
        next_sizes,
    } = fleet::day(&city, scheme, &ctx.authority(), ctx.threads, tracer);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x1A9E_57A1);
    let plan = (0..PERIODS)
        .map(|p| {
            let mut conns: [Vec<Send>; 2] = [Vec::new(), Vec::new()];
            for (c, frames) in conns.iter_mut().enumerate() {
                let mine = (0..n).filter(|j| j % 2 == c);
                if p > 0 {
                    for j in mine.clone() {
                        if rng.random::<f64>() < STALE_SHARE {
                            frames.push(Send {
                                j,
                                period: p - 1,
                                kind: Kind::Stale,
                            });
                        }
                    }
                }
                for j in mine {
                    frames.push(Send {
                        j,
                        period: p,
                        kind: Kind::Fresh,
                    });
                    if rng.random::<f64>() < DUPLICATE_SHARE {
                        frames.push(Send {
                            j,
                            period: p,
                            kind: Kind::Duplicate,
                        });
                    }
                }
            }
            conns
        })
        .collect();
    let corridors = city.corridors(CORRIDORS);
    let queries = (0..PERIODS)
        .map(|_| {
            (0..QUERIES)
                .map(|_| corridors[rng.random_range(0..corridors.len())])
                .collect()
        })
        .collect();
    Ok(Inputs {
        n,
        uploads,
        next_sizes,
        plan,
        queries,
        probes: corridors[..PROBES].to_vec(),
    })
}

/// RSU `send.j`'s frame in the round's day that starts at period
/// `day_start` (sequence numbers keep rising across days).
fn frame_bytes(inputs: &Inputs, send: &Send, day_start: usize) -> Vec<u8> {
    SequencedUpload {
        seq: (day_start + send.period) as u64,
        upload: inputs.uploads[send.period][send.j].clone(),
    }
    .encode()
    .to_vec()
}

fn frame_req(p: usize, c: usize, k: usize) -> u64 {
    (p as u64) << 20 | (c as u64) << 19 | k as u64
}

fn query_req(p: usize, i: usize) -> u64 {
    (p as u64) << 20 | 1 << 18 | i as u64
}

fn finish_req(p: usize) -> u64 {
    (p as u64) << 20 | 1 << 17
}

/// One connection's share of a period, pipelined `WINDOW` deep.
struct Pushed {
    acks_ms: Vec<f64>,
    frames: u64,
    bytes: u64,
    problems: Vec<String>,
}

/// Connection `c`'s frames of round period `g`.
fn push(
    conn: &mut Conn,
    inputs: &Inputs,
    g: usize,
    c: usize,
    tracer: &Tracer,
) -> Result<Pushed, String> {
    let p = g % PERIODS;
    let plan = &inputs.plan[p][c];
    let encoding = tracer.open("protocol.encode", SpanId::NONE, frame_req(g, c, 0));
    let frames: Vec<Vec<u8>> = plan.iter().map(|s| frame_bytes(inputs, s, g - p)).collect();
    tracer.close(encoding, frames.len() as u64);
    let mut out = Pushed {
        acks_ms: Vec::with_capacity(frames.len()),
        frames: frames.len() as u64,
        bytes: frames.iter().map(|f| f.len() as u64).sum(),
        problems: Vec::new(),
    };
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut settle = |conn: &mut Conn, (k, sent): (usize, Instant)| -> Result<(), String> {
        let resp = conn.recv();
        let now = Instant::now();
        tracer.record("net.ingest", SpanId::NONE, frame_req(g, c, k), sent, now, 1);
        out.acks_ms.push((now - sent).as_secs_f64() * 1e3);
        let ok = match (resp?, plan[k].kind) {
            (Response::Ack(a), Kind::Fresh) => a.frames == 1 && a.fresh == 1,
            (Response::Ack(a), Kind::Duplicate) => a.frames == 1 && a.duplicate == 1,
            (Response::Ack(a), Kind::Stale) => a.frames == 1 && a.stale == 1,
            _ => false,
        };
        if !ok {
            out.problems
                .push(format!("period {g} conn {c} frame {k}: unexpected ack"));
        }
        Ok(())
    };
    for (k, frame) in frames.iter().enumerate() {
        if inflight.len() == WINDOW {
            settle(conn, inflight.pop_front().expect("window is full"))?;
        }
        let sent = Instant::now();
        conn.send(frame)?;
        inflight.push_back((k, sent));
    }
    while let Some(next) = inflight.pop_front() {
        settle(conn, next)?;
    }
    Ok(out)
}

/// What one round observed.
struct Round {
    acks_ms: Vec<f64>,
    periods_ms: Vec<f64>,
    frames: u64,
    bytes: u64,
    loop_s: f64,
    answers: Vec<Vec<u64>>,
    probes: Vec<Vec<u64>>,
    recover_s: f64,
    rss_mb: f64,
    net_frames: u64,
    net_bytes: u64,
    wall: (Instant, Instant),
}

fn pair(
    conn: &mut Conn,
    (a, b): (usize, usize),
    tracer: &Tracer,
    id: u64,
) -> Result<Vec<u64>, String> {
    let start = Instant::now();
    let resp = conn.call(&wire::encode_pair_query(rsu_id(a).0, rsu_id(b).0));
    tracer.record("net.pair", SpanId::NONE, id, start, Instant::now(), 1);
    match resp? {
        Response::Estimate(e) => Ok(wire::estimate_bits(&e)),
        other => Err(format!("pair answered {other:?}")),
    }
}

fn fresh_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = daemon::run_dir().join(format!("wal-{tag}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn dspec(ctx: &Ctx, dir: &Path) -> DaemonSpec {
    DaemonSpec {
        scheme_seed: ctx.scheme_seed(),
        od_threads: ctx.threads,
        wal: Some((dir.to_path_buf(), FLUSH_EVERY)),
    }
}

/// Drives one round on a fresh daemon in `dir`, then restarts it on the
/// same directory and times recovery.
fn round(
    ctx: &Ctx,
    inputs: &Inputs,
    dir: &Path,
    tag: &str,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Round, String> {
    let spec = dspec(ctx, dir);
    let daemon = Daemon::start(&ctx.bin, &spec, tag)?;
    let mut conns = vec![Conn::new(daemon.connect()?), Conn::new(daemon.connect()?)];
    let mut acks_ms = Vec::new();
    let (mut frames, mut bytes) = (0u64, 0u64);
    let mut answers = Vec::new();
    let mut periods_ms = Vec::with_capacity(ROUND_PERIODS);
    let wall_start = Instant::now();
    for g in 0..ROUND_PERIODS {
        let p = g % PERIODS;
        let period_start = Instant::now();
        let pushed: Vec<Result<Pushed, String>> = {
            let (first, second) = conns.split_at_mut(1);
            std::thread::scope(|scope| {
                let other = scope.spawn(|| push(&mut second[0], inputs, g, 1, tracer));
                let mine = push(&mut first[0], inputs, g, 0, tracer);
                vec![mine, other.join().expect("upload thread panicked")]
            })
        };
        for pushed in pushed {
            let pushed = pushed?;
            report.attempted += pushed.frames;
            for problem in pushed.problems {
                report.fail(problem);
            }
            acks_ms.extend(pushed.acks_ms);
            frames += pushed.frames;
            bytes += pushed.bytes;
        }
        for (i, &q) in inputs.queries[p].iter().enumerate() {
            report.attempted += 1;
            answers.push(pair(&mut conns[0], q, tracer, query_req(g, i))?);
        }
        if g + 1 < ROUND_PERIODS {
            report.attempted += 1;
            let start = Instant::now();
            let resp = conns[0].call(&[wire::REQ_FINISH_PERIOD]);
            tracer.record(
                "net.finish",
                SpanId::NONE,
                finish_req(g),
                start,
                Instant::now(),
                1,
            );
            match resp? {
                Response::Sizes(s) => report.check(s == inputs.next_sizes[p], || {
                    format!("period {g}: sizes differ from the sizing rule")
                }),
                other => report.fail(format!("period {g}: finish answered {other:?}")),
            }
        }
        periods_ms.push(period_start.elapsed().as_secs_f64() * 1e3);
    }
    let wall_end = Instant::now();
    let loop_s = (wall_end - wall_start).as_secs_f64();
    let mut probes = Vec::with_capacity(PROBES);
    for (i, &q) in inputs.probes.iter().enumerate() {
        report.attempted += 1;
        probes.push(pair(&mut conns[0], q, &Tracer::new(false), i as u64)?);
    }
    let rss_mb = daemon.peak_rss_mb()?;
    let net_frames = conns.iter().map(|c| c.frames).sum();
    let net_bytes = conns.iter().map(|c| c.bytes).sum();
    drop(conns);
    daemon.shutdown()?;

    // Restart on the same directory: recovery ends at the first probe
    // answer that matches the answer given before shutdown.
    let restarted = Instant::now();
    let daemon = Daemon::start(&ctx.bin, &spec, &format!("{tag}-recovered"))?;
    let mut conn = Conn::new(daemon.connect()?);
    let mut recover_s = 0.0;
    for (i, &q) in inputs.probes.iter().enumerate() {
        report.attempted += 1;
        let again = pair(&mut conn, q, &Tracer::new(false), i as u64)?;
        if i == 0 {
            recover_s = restarted.elapsed().as_secs_f64();
        }
        report.check(again == probes[i], || {
            format!("probe {i}: answer changed across recovery")
        });
    }
    drop(conn);
    daemon.shutdown()?;
    Ok(Round {
        acks_ms,
        periods_ms,
        frames,
        bytes,
        loop_s,
        answers,
        probes,
        recover_s,
        rss_mb,
        net_frames,
        net_bytes,
        wall: (wall_start, wall_end),
    })
}

/// What the in-process replay measured beyond its checks.
#[derive(Default)]
struct Replay {
    outcomes: [u64; 3],
    flushes: u64,
    degraded: u64,
    answers: u64,
}

/// Replays the frame plan into an in-process `ShardedServer` and checks
/// the round's answers against it. When traced, the frames also feed a
/// WAL mirror on the daemon's durable schedule, and each period's state
/// is decoded as an O–D matrix — a layer this workload's daemon never
/// runs, timed on this workload's state.
fn replay(
    ctx: &Ctx,
    inputs: &Inputs,
    round: &Round,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Replay, String> {
    let scheme = ctx.scheme();
    let mut reference =
        ShardedServer::new(scheme, ALPHA, SHARDS).map_err(|e| format!("reference server: {e}"))?;
    let mut mirror = if tracer.enabled() {
        Some(Mirror::create("ingest-wal")?)
    } else {
        None
    };
    let mut out = Replay::default();
    let mut answers = round.answers.iter();
    for g in 0..ROUND_PERIODS {
        let p = g % PERIODS;
        for c in 0..2 {
            for (k, send) in inputs.plan[p][c].iter().enumerate() {
                let id = frame_req(g, c, k);
                let bytes = frame_bytes(inputs, send, g - p);
                let decoding = tracer.open("protocol.decode", SpanId::NONE, id);
                let frame =
                    SequencedUpload::decode(&bytes).map_err(|e| format!("replay decode: {e}"))?;
                tracer.close(decoding, 1);
                if let Some(mirror) = mirror.as_mut() {
                    mirror.append(tracer, id, &bytes)?;
                }
                let applying = tracer.open("shard.apply", SpanId::NONE, id);
                let outcome = reference.receive_sequenced(frame);
                tracer.close(applying, 1);
                let (slot, want) = match outcome {
                    ReceiveOutcome::Fresh => (0, Kind::Fresh),
                    ReceiveOutcome::Duplicate => (1, Kind::Duplicate),
                    _ => (2, Kind::Stale),
                };
                out.outcomes[slot] += 1;
                report.check(want == send.kind, || {
                    format!("period {g}: reference outcome {outcome:?}")
                });
            }
        }
        for (i, &(a, b)) in inputs.queries[p].iter().enumerate() {
            let asking = tracer.open("query.pair", SpanId::NONE, query_req(g, i));
            let e = reference
                .estimate_or_degraded(rsu_id(a), rsu_id(b))
                .map_err(|e| format!("reference pair: {e}"))?;
            tracer.close(asking, 1);
            let bits = wire::estimate_bits(&e);
            out.answers += 1;
            out.degraded += u64::from(bits[0] == 1);
            report.check(answers.next() == Some(&bits), || {
                format!("period {g}: pair ({a}, {b}) differs from the reference")
            });
        }
        if tracer.enabled() {
            crate::metro_day::decode_od(&reference, ctx.threads, tracer, finish_req(g), true)?;
        }
        if g + 1 < ROUND_PERIODS {
            let finishing = tracer.open("period.finish", SpanId::NONE, finish_req(g));
            let sizes = reference
                .finish_period()
                .map_err(|e| format!("reference finish: {e}"))?;
            tracer.close(finishing, 1);
            if let Some(mirror) = mirror.as_mut() {
                mirror.checkpoint(tracer, finish_req(g), &reference)?;
            }
            let sizes: Vec<(u64, u64)> = sizes.into_iter().map(|(r, m)| (r.0, m as u64)).collect();
            report.check(sizes == inputs.next_sizes[p], || {
                format!("period {g}: reference sizes differ")
            });
        }
    }
    for (i, &(a, b)) in inputs.probes.iter().enumerate() {
        let e = reference
            .estimate_or_degraded(rsu_id(a), rsu_id(b))
            .map_err(|e| format!("reference probe: {e}"))?;
        report.check(round.probes[i] == wire::estimate_bits(&e), || {
            format!("probe {i} differs from the reference")
        });
    }
    if let Some(mirror) = mirror {
        out.flushes = mirror.flushes();
    }
    Ok(out)
}

/// The `ingest-wal` workload.
///
/// # Errors
///
/// Set-up, transport, protocol and file-system failures that stop the
/// run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let result = run_rounds(ctx);
    // The WAL directories are scratch: remove whatever a failure left.
    if let Ok(entries) = std::fs::read_dir(daemon::run_dir()) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with("wal-") {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    result
}

fn run_rounds(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    ctx.record_host(&mut report);
    let scheme = ctx.scheme();
    let untraced = Tracer::new(false);

    // The set-up daemons are durable, each on a fresh directory; the
    // rounds start their own.
    let (inputs, daemon, setup) = ctx.set_up(
        &mut report,
        "ingest-wal",
        |i| Ok(dspec(ctx, &fresh_dir(&format!("setup{i}"))?)),
        || generate(ctx, &scheme, &untraced),
        |a, b| a.uploads == b.uploads,
    )?;
    daemon.shutdown()?;
    report.meta_str("wal_fs", &daemon::fs_type(Path::new(WORK_DIR)));

    // One unmeasured round first, so the measured ones do not open on
    // idle, cold processors; it is checked like the rest.
    let warm_dir = fresh_dir("warm-up")?;
    let warm = round(
        ctx,
        &inputs,
        &warm_dir,
        "ingest-wal-warm-up",
        &untraced,
        &mut report,
    )?;
    let _ = std::fs::remove_dir_all(&warm_dir);

    let started = Instant::now();
    let mut rounds = Vec::new();
    let budget = if ctx.trace {
        Duration::ZERO
    } else {
        ctx.seconds
    };
    while rounds.is_empty() || started.elapsed() < budget {
        let tag = format!("round{}", rounds.len());
        let dir = fresh_dir(&tag)?;
        let r = round(
            ctx,
            &inputs,
            &dir,
            &format!("ingest-wal-{tag}"),
            &untraced,
            &mut report,
        )?;
        let _ = std::fs::remove_dir_all(&dir);
        rounds.push(r);
    }
    // Every round replays the same inputs on a fresh daemon: the warm-up
    // round is checked against the reference, the rest against it.
    replay(ctx, &inputs, &warm, &untraced, &mut report)?;
    for (i, r) in rounds.iter().enumerate() {
        report.check(r.answers == warm.answers && r.probes == warm.probes, || {
            format!("round {i} answers differ from the warm-up round")
        });
    }

    let acks: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.acks_ms.iter().copied())
        .collect();
    let rates: Vec<f64> = rounds.iter().map(|r| r.frames as f64 / r.loop_s).collect();
    let recovers: Vec<f64> = rounds.iter().map(|r| r.recover_s).collect();
    let ack = Summary::of(&acks);
    let mut sorted_acks = acks.clone();
    sorted_acks.sort_by(f64::total_cmp);
    let sizes: Vec<f64> = inputs
        .uploads
        .iter()
        .flatten()
        .map(|u| u.bits.len() as f64)
        .collect();
    let size_summary = Summary::of(&sizes);
    report.meta_num("rsus", inputs.n as f64);
    report.meta_num("periods_per_round", ROUND_PERIODS as f64);
    report.meta_num("rounds", rounds.len() as f64);
    report.meta_num("frames_per_round", rounds[0].frames as f64);
    report.meta_num("upload_bytes_per_round", rounds[0].bytes as f64);
    report.meta_num("flush_every", FLUSH_EVERY as f64);
    report.meta_num("window", WINDOW as f64);
    report.meta_summary("array_bits", &size_summary);
    report.meta_summary("ack_ms", &ack);
    report.meta_summary("uploads_per_s", &Summary::of(&rates));
    report.meta_summary("recover_s", &Summary::of(&recovers));
    report.meta_summary("setup_s", &setup);

    if !ctx.trace {
        let periods: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.periods_ms.iter().copied())
            .collect();
        report.meta_summary("period_ms", &Summary::of(&periods));
        report.end_to_end(
            setup.p50,
            rounds.iter().map(|r| r.rss_mb).fold(0.0, f64::max),
            [ack.p50, stats::percentile(&sorted_acks, 90.0)],
            stats::median(&periods),
        );
        return Ok(report);
    }

    // Traced round on a fresh directory, same inputs; its directory is
    // kept until the in-process recovery below has read it.
    let traced = Tracer::new(true);
    generate(ctx, &scheme, &traced)?;
    let dir = fresh_dir("traced")?;
    let t = round(
        ctx,
        &inputs,
        &dir,
        "ingest-wal-traced",
        &traced,
        &mut report,
    )?;
    report.check(
        t.answers == rounds[0].answers && t.probes == rounds[0].probes,
        || "traced round answers differ".to_string(),
    );
    let replayed = replay(ctx, &inputs, &t, &traced, &mut report)?;
    let replayed_records = mirror::recover_dir(&traced, ctx.scheme(), &dir)?;
    let wal_bytes = std::fs::metadata(dir.join("frames.wal")).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(&dir);

    let spans = traced.spans();
    let fills: Vec<f64> = inputs
        .uploads
        .iter()
        .flat_map(|p| fleet::fills(p))
        .collect();
    let asked: usize = inputs.queries.iter().map(Vec::len).sum();
    let repeats: usize = inputs
        .queries
        .iter()
        .map(|q| q.len() - q.iter().collect::<BTreeSet<_>>().len())
        .sum();
    let mut layers = report::common_layers(&spans, &fills);
    layers.insert("protocol.wire_bytes", t.bytes as f64);
    layers.insert("shard.fresh", replayed.outcomes[0] as f64);
    layers.insert("shard.duplicate", replayed.outcomes[1] as f64);
    layers.insert("shard.stale", replayed.outcomes[2] as f64);
    layers.insert("durable.flushes", replayed.flushes as f64);
    layers.insert("durable.wal_bytes", wal_bytes as f64);
    layers.insert("durable.replayed_records", replayed_records as f64);
    layers.insert("query.repeat_share", repeats as f64 / asked.max(1) as f64);
    layers.insert(
        "query.degraded_share",
        replayed.degraded as f64 / replayed.answers.max(1) as f64,
    );
    layers.insert(
        "net.overhead_ns.ingest",
        trace::overhead_ns(
            &spans,
            "net.ingest",
            &[
                "protocol.decode",
                "durable.append",
                "durable.flush",
                "shard.apply",
            ],
        ),
    );
    layers.insert(
        "net.overhead_ns.pair",
        trace::overhead_ns(&spans, "net.pair", &["query.pair"]),
    );
    layers.insert("net.frames", t.net_frames as f64);
    layers.insert("net.bytes", t.net_bytes as f64);
    layers.insert(
        "trace.coverage",
        trace::coverage(&spans, BLOCKING, traced.at(t.wall.0), traced.at(t.wall.1)),
    );
    layers.insert("trace.overhead", (t.loop_s - rounds[0].loop_s) * 1e3);
    report.layers(&layers);
    report.meta_num("untraced_loop_s", rounds[0].loop_s);
    report.meta_num("traced_loop_s", t.loop_s);
    report.write_trace(ctx.seed, "ingest-wal", &spans);
    Ok(report)
}
