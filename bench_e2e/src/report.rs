//! The result a run prints: metrics by name with units, the attempted
//! and failed operation counts, and a metadata line (host facts, sample
//! counts, quartiles, error rate) printed just before it.

use std::collections::BTreeMap;

use vcps_core::PairEstimate;
use vcps_hash::splitmix64;
use vcps_net::wire::estimate_bits;

use crate::stats::Summary;
use crate::trace::{self, Span};

/// The end-to-end metrics every workload reports, with their units.
/// What a user waits on differs per workload, so the names are generic
/// and each workload fills them with its own answer and period (see
/// the README): the workload-specific figures go to the metadata line.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("server_rss_mb", "MiB"),
    ("answer_ms_p50", "ms"),
    ("answer_ms_p90", "ms"),
    ("period_ms", "ms"),
];

/// Every per-layer metric the traced run reports, with its unit. A
/// layer the workload does not run reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("vehicle.reports", "count"),
    ("vehicle.answer_ns", "ns"),
    ("rsu.receive_ns", "ns"),
    ("rsu.upload_ns", "ns"),
    ("rsu.fill_p50", "ratio"),
    ("rsu.fill_max", "ratio"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("protocol.wire_bytes", "bytes"),
    ("shard.apply_ns", "ns"),
    ("shard.fresh", "count"),
    ("shard.duplicate", "count"),
    ("shard.stale", "count"),
    ("durable.append_ns", "ns"),
    ("durable.flush_ns", "ns"),
    ("durable.flushes", "count"),
    ("durable.wal_bytes", "bytes"),
    ("durable.recover_ns", "ns"),
    ("durable.replayed_records", "count"),
    ("period.finish_ns", "ns"),
    ("od.decode_ns", "ns"),
    ("od.pairs", "count"),
    ("od.kernel.dense", "count"),
    ("od.kernel.sparse_sparse", "count"),
    ("od.kernel.sparse_dense", "count"),
    ("od.kernel.dense_sparse", "count"),
    ("od.response_encode_ns", "ns"),
    ("od.response_bytes", "bytes"),
    ("query.pair_ns", "ns"),
    ("query.repeat_share", "share"),
    ("query.degraded_share", "share"),
    ("net.overhead_ns.ingest", "ns"),
    ("net.overhead_ns.pair", "ns"),
    ("net.frames", "count"),
    ("net.bytes", "bytes"),
    ("trace.coverage", "share"),
    ("trace.overhead", "ms"),
];

/// Per-layer metrics read straight off the spans: each `(metric, span)`
/// is the mean ns per call of the spans of that name.
const TIMED: &[(&str, &str)] = &[
    ("vehicle.answer_ns", "vehicle.answer"),
    ("rsu.receive_ns", "rsu.receive"),
    ("rsu.upload_ns", "rsu.upload"),
    ("protocol.encode_ns", "protocol.encode"),
    ("protocol.decode_ns", "protocol.decode"),
    ("shard.apply_ns", "shard.apply"),
    ("durable.append_ns", "durable.append"),
    ("durable.flush_ns", "durable.flush"),
    ("durable.recover_ns", "durable.recover"),
    ("period.finish_ns", "period.finish"),
    ("od.decode_ns", "od.decode"),
    ("od.response_encode_ns", "od.response_encode"),
    ("query.pair_ns", "query.pair"),
];

/// The per-layer metrics every workload derives the same way: the
/// span-timed layers, the fleet's report count, and the fill `n_x / m_x`
/// of the uploads in `fills`.
#[must_use]
pub fn common_layers(spans: &[Span], fills: &[f64]) -> BTreeMap<&'static str, f64> {
    let totals = trace::totals(spans);
    let mut layers: BTreeMap<&'static str, f64> = TIMED
        .iter()
        .map(|&(metric, span)| {
            (
                metric,
                totals.get(span).map_or(0.0, trace::Totals::ns_per_item),
            )
        })
        .collect();
    layers.insert(
        "vehicle.reports",
        totals.get("vehicle.answer").map_or(0, |t| t.items) as f64,
    );
    layers.insert("rsu.fill_p50", crate::stats::median(fills));
    layers.insert("rsu.fill_max", fills.iter().copied().fold(0.0, f64::max));
    layers
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    meta: Vec<(String, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or mismatched.
    pub failed: u64,
    problems: Vec<String>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn text(s: &str) -> String {
    format!("\"{}\"", vcps_obs::json_escape(s))
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Adds every end-to-end metric of [`END_TO_END`], in its order.
    pub fn end_to_end(&mut self, setup_s: f64, rss_mb: f64, answer_ms: [f64; 2], period_ms: f64) {
        let values = [setup_s, rss_mb, answer_ms[0], answer_ms[1], period_ms];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            self.metric(name, value, unit);
        }
    }

    /// Adds every per-layer metric of [`LAYERS`], taking values from
    /// `layers` and 0 for layers the workload did not run.
    ///
    /// # Panics
    ///
    /// Panics if `layers` names a metric missing from [`LAYERS`].
    pub fn layers(&mut self, layers: &BTreeMap<&'static str, f64>) {
        for name in layers.keys() {
            assert!(
                LAYERS.iter().any(|(n, _)| n == name),
                "undeclared layer metric {name}"
            );
        }
        for &(name, unit) in LAYERS {
            self.metric(name, layers.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    /// Adds a numeric metadata field.
    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), num(value)));
    }

    /// Adds a text metadata field.
    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), text(value)));
    }

    /// Adds a sample summary (count, median, top supported percentile,
    /// quartiles) as metadata.
    pub fn meta_summary(&mut self, key: &str, s: &Summary) {
        let top = s.top.map_or_else(
            || "null".to_string(),
            |(p, v)| format!("{{\"percentile\": {}, \"value\": {}}}", num(p), num(v)),
        );
        self.meta.push((
            key.to_string(),
            format!(
                "{{\"n\": {}, \"p50\": {}, \"top\": {top}, \"quartiles\": [{}, {}, {}]}}",
                s.n,
                num(s.p50),
                num(s.quartiles[0]),
                num(s.quartiles[1]),
                num(s.quartiles[2])
            ),
        ));
    }

    /// Counts one attempted operation that failed or mismatched.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what.into());
        }
    }

    /// Checks `ok`, counting a failure described by `what` when false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// `true` when nothing failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints problems to stderr, the metadata line and, last, the
    /// result line to stdout.
    pub fn print(&self) {
        for p in &self.problems {
            eprintln!("mismatch: {p}");
        }
        let error_rate = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let mut meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {v}", text(k)))
            .collect();
        meta.push(format!("\"error_rate\": {}", num(error_rate)));
        println!("{{\"meta\": {{{}}}}}", meta.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    text(name),
                    num(*v),
                    text(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

impl Report {
    /// Writes the traced run's spans under the work directory and notes
    /// the file and span count as metadata.
    pub fn write_trace(&mut self, seed: u64, workload: &str, spans: &[crate::trace::Span]) {
        let dir = std::path::Path::new(crate::daemon::WORK_DIR).join("traces");
        let path = dir.join(format!("{workload}-seed{seed}.tsv"));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| crate::trace::write_spans(&path, spans));
        match written {
            Ok(()) => self.meta_str("trace_file", &path.display().to_string()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        self.meta_num("trace_spans", spans.len() as f64);
    }
}

/// Folds one 64-bit word into a running digest.
fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h.rotate_left(17) ^ v)
}

/// Digest of a pair answer's canonical bit pattern
/// (`wire::estimate_bits`), or of an absent entry.
#[must_use]
pub fn digest_answer(h: u64, e: Option<&PairEstimate>) -> u64 {
    match e {
        None => mix(h, u64::MAX),
        Some(e) => estimate_bits(e).into_iter().fold(h, mix),
    }
}
