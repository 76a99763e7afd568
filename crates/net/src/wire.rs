//! Length-delimited framing and the daemon's request/response codec.
//!
//! The outer frame is a 4-byte big-endian length prefix followed by
//! exactly that many payload bytes. The prefix is validated against the
//! connection's [`max_frame_bytes`](crate::ConnectionLimits) cap
//! *before* the payload buffer is allocated, so a hostile prefix can
//! name four gigabytes without costing the daemon more than four bytes
//! of reads.
//!
//! Payloads are self-describing via their first byte. Tags 1–8 are the
//! simulator's existing wire protocol (uploads, batches, checkpoints);
//! the upload tags 3–6 pass through byte-for-byte — the daemon hands
//! them to the backend's one `receive_wire` entry point
//! ([`ShardedServer::receive_wire`](vcps_sim::ShardedServer::receive_wire)
//! or [`DurableServer::receive_wire`](vcps_sim::DurableServer::receive_wire))
//! without re-encoding. Tags 16–20 are daemon requests and
//! 32–37 daemon responses, defined here. All integers are big-endian;
//! floating-point fields travel as IEEE-754 bit patterns
//! (`f64::to_bits`), so an estimate survives the wire bit-identically —
//! the property the differential tests pin.

use std::io::{Read, Write};

use vcps_core::{DegradedEstimate, Estimate, PairEstimate};
use vcps_sim::ReceiveOutcome;

use crate::NetError;

/// Request: pair volume query — `[16][rsu_a u64][rsu_b u64]`.
pub const REQ_PAIR_QUERY: u8 = 16;
/// Request: full O–D matrix — `[17][threads u64]` (0 = server default).
pub const REQ_OD_QUERY: u8 = 17;
/// Request: end the measurement period — `[18]`.
pub const REQ_FINISH_PERIOD: u8 = 18;
/// Request: orderly daemon shutdown (drain, flush WAL, exit) — `[19]`.
pub const REQ_SHUTDOWN: u8 = 19;
/// Request: liveness probe — `[20]`.
pub const REQ_PING: u8 = 20;

/// Response: ingest acknowledgement with per-outcome counts.
pub const RESP_ACK: u8 = 32;
/// Response: one pair estimate.
pub const RESP_ESTIMATE: u8 = 33;
/// Response: the O–D matrix.
pub const RESP_MATRIX: u8 = 34;
/// Response: next-period array sizes.
pub const RESP_SIZES: u8 = 35;
/// Response: request failed; carries a human-readable reason.
pub const RESP_ERROR: u8 = 36;
/// Response: request succeeded with nothing to report.
pub const RESP_OK: u8 = 37;

/// Writes one length-delimited frame.
///
/// # Errors
///
/// Propagates transport failures; [`NetError::FrameTooLarge`] if the
/// payload itself exceeds the u32 prefix space.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    let len = u32::try_from(payload.len()).map_err(|_| NetError::FrameTooLarge {
        claimed: payload.len() as u64,
        limit: u64::from(u32::MAX),
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one length-delimited frame, capping the prefix at
/// `max_frame_bytes` **before** allocating the payload buffer.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] for an over-cap prefix,
/// [`NetError::Malformed`] for a zero-length frame,
/// [`NetError::UnexpectedEof`] if the peer disconnects mid-frame, and
/// [`NetError::Timeout`]/[`NetError::Io`] for transport failures.
pub fn read_frame(r: &mut impl Read, max_frame_bytes: u64) -> Result<Vec<u8>, NetError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u64::from(u32::from_be_bytes(prefix));
    if len == 0 {
        return Err(NetError::Malformed("zero-length frame"));
    }
    if len > max_frame_bytes {
        return Err(NetError::FrameTooLarge {
            claimed: len,
            limit: max_frame_bytes,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// A bounds-checked big-endian reader over a response payload.
#[derive(Debug)]
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, NetError> {
        let (&b, rest) = self
            .buf
            .split_first()
            .ok_or(NetError::Malformed("truncated payload"))?;
        self.buf = rest;
        Ok(b)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, NetError> {
        if self.buf.len() < 8 {
            return Err(NetError::Malformed("truncated payload"));
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Ok(u64::from_be_bytes(head.try_into().expect("eight bytes")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, NetError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.buf.len() < n {
            return Err(NetError::Malformed("truncated payload"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    pub(crate) fn finish(self) -> Result<(), NetError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(NetError::Malformed("trailing bytes in payload"))
        }
    }
}

/// Aggregated ingest outcomes for one upload frame (response tag 32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AckSummary {
    /// Inner frames carried by the acknowledged wire frame.
    pub frames: u64,
    /// Count of [`ReceiveOutcome::Fresh`].
    pub fresh: u64,
    /// Count of [`ReceiveOutcome::Duplicate`].
    pub duplicate: u64,
    /// Count of [`ReceiveOutcome::Conflicting`].
    pub conflicting: u64,
    /// Count of [`ReceiveOutcome::Stale`].
    pub stale: u64,
}

impl AckSummary {
    /// Tallies a batch's outcomes.
    #[must_use]
    pub fn from_outcomes(outcomes: &[ReceiveOutcome]) -> Self {
        let mut ack = Self {
            frames: outcomes.len() as u64,
            ..Self::default()
        };
        for o in outcomes {
            match o {
                ReceiveOutcome::Fresh => ack.fresh += 1,
                ReceiveOutcome::Duplicate => ack.duplicate += 1,
                ReceiveOutcome::Conflicting => ack.conflicting += 1,
                ReceiveOutcome::Stale => ack.stale += 1,
            }
        }
        ack
    }

    /// Encodes as a response payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + 8 * 5);
        buf.push(RESP_ACK);
        for v in [
            self.frames,
            self.fresh,
            self.duplicate,
            self.conflicting,
            self.stale,
        ] {
            buf.extend_from_slice(&v.to_be_bytes());
        }
        buf
    }

    fn decode_body(cur: &mut Cursor<'_>) -> Result<Self, NetError> {
        Ok(Self {
            frames: cur.u64()?,
            fresh: cur.u64()?,
            duplicate: cur.u64()?,
            conflicting: cur.u64()?,
            stale: cur.u64()?,
        })
    }

    /// Merges another summary into this one (for pipelined replays).
    pub fn merge(&mut self, other: &AckSummary) {
        self.frames += other.frames;
        self.fresh += other.fresh;
        self.duplicate += other.duplicate;
        self.conflicting += other.conflicting;
        self.stale += other.stale;
    }
}

/// The canonical bit pattern of a pair answer: every `f64` field as
/// raw IEEE-754 bits, prefixed with the arm. Two answers are equal
/// under the repo's bit-identity contract iff these vectors are equal —
/// stricter than `PartialEq` (which would also say sign-of-zero and
/// NaN-payload drifts are fine). The differential tests and the load
/// generator compare through this.
#[must_use]
pub fn estimate_bits(e: &PairEstimate) -> Vec<u64> {
    match e {
        PairEstimate::Measured(m) => vec![
            0,
            m.n_c.to_bits(),
            m.v_x.to_bits(),
            m.v_y.to_bits(),
            m.v_c.to_bits(),
            m.m_x as u64,
            m.m_y as u64,
            m.n_x,
            m.n_y,
            u64::from(m.clamped),
        ],
        PairEstimate::Degraded(d) => vec![
            1,
            d.n_c.to_bits(),
            d.lower.to_bits(),
            d.upper.to_bits(),
            d.volume_x.to_bits(),
            d.volume_y.to_bits(),
            u64::from(d.missing_x),
            u64::from(d.missing_y),
        ],
    }
}

const KIND_MEASURED: u8 = 0;
const KIND_DEGRADED: u8 = 1;
const KIND_ABSENT: u8 = 2;

fn put_pair_estimate(buf: &mut Vec<u8>, e: &PairEstimate) {
    match e {
        PairEstimate::Measured(m) => {
            buf.push(KIND_MEASURED);
            for v in [m.n_c, m.v_x, m.v_y, m.v_c] {
                buf.extend_from_slice(&v.to_bits().to_be_bytes());
            }
            for v in [m.m_x as u64, m.m_y as u64, m.n_x, m.n_y] {
                buf.extend_from_slice(&v.to_be_bytes());
            }
            buf.push(u8::from(m.clamped));
        }
        PairEstimate::Degraded(d) => {
            buf.push(KIND_DEGRADED);
            for v in [d.n_c, d.lower, d.upper, d.volume_x, d.volume_y] {
                buf.extend_from_slice(&v.to_bits().to_be_bytes());
            }
            buf.push(u8::from(d.missing_x));
            buf.push(u8::from(d.missing_y));
        }
    }
}

fn get_pair_estimate(cur: &mut Cursor<'_>) -> Result<Option<PairEstimate>, NetError> {
    match cur.u8()? {
        KIND_MEASURED => {
            let (n_c, v_x, v_y, v_c) = (cur.f64()?, cur.f64()?, cur.f64()?, cur.f64()?);
            let m_x = usize::try_from(cur.u64()?)
                .map_err(|_| NetError::Malformed("array size overflows usize"))?;
            let m_y = usize::try_from(cur.u64()?)
                .map_err(|_| NetError::Malformed("array size overflows usize"))?;
            let (n_x, n_y) = (cur.u64()?, cur.u64()?);
            let clamped = cur.u8()? != 0;
            Ok(Some(PairEstimate::Measured(Estimate {
                n_c,
                v_x,
                v_y,
                v_c,
                m_x,
                m_y,
                n_x,
                n_y,
                clamped,
            })))
        }
        KIND_DEGRADED => {
            let (n_c, lower, upper) = (cur.f64()?, cur.f64()?, cur.f64()?);
            let (volume_x, volume_y) = (cur.f64()?, cur.f64()?);
            let missing_x = cur.u8()? != 0;
            let missing_y = cur.u8()? != 0;
            Ok(Some(PairEstimate::Degraded(DegradedEstimate {
                n_c,
                lower,
                upper,
                volume_x,
                volume_y,
                missing_x,
                missing_y,
            })))
        }
        KIND_ABSENT => Ok(None),
        _ => Err(NetError::Malformed("unknown estimate kind")),
    }
}

/// Encodes a pair-estimate response (tag 33).
#[must_use]
pub fn encode_estimate_response(e: &PairEstimate) -> Vec<u8> {
    let mut buf = vec![RESP_ESTIMATE];
    put_pair_estimate(&mut buf, e);
    buf
}

/// An O–D matrix as decoded off the wire: RSU ids plus the strict upper
/// triangle of pair answers (the lower triangle is the transpose, as in
/// [`OdMatrix`](vcps_sim::OdMatrix)).
#[derive(Debug, Clone, PartialEq)]
pub struct WireMatrix {
    /// The RSU ids, ascending — row/column order of the triangle.
    pub rsus: Vec<u64>,
    /// Upper-triangle entries in `(i, j), i < j` row-major order.
    pub entries: Vec<Option<PairEstimate>>,
}

impl WireMatrix {
    /// The pair answer for `(i, j)`, `i != j`, honoring transposition.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `i == j` (the diagonal is
    /// not a pair).
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> Option<PairEstimate> {
        let n = self.rsus.len();
        assert!(i < n && j < n && i != j, "invalid pair ({i}, {j}) of {n}");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let idx = a * n - a * (a + 1) / 2 + (b - a - 1);
        let entry = self.entries[idx]?;
        Some(if i < j { entry } else { entry.transposed() })
    }
}

/// Encodes an O–D matrix response (tag 34) from the server's matrix.
#[must_use]
pub fn encode_matrix_response(matrix: &vcps_sim::OdMatrix) -> Vec<u8> {
    let n = matrix.len();
    let mut buf = vec![RESP_MATRIX];
    buf.extend_from_slice(&(n as u64).to_be_bytes());
    for rsu in matrix.rsus() {
        buf.extend_from_slice(&rsu.0.to_be_bytes());
    }
    for i in 0..n {
        for j in i + 1..n {
            match matrix.at(i, j) {
                Some(e) => put_pair_estimate(&mut buf, e),
                None => buf.push(KIND_ABSENT),
            }
        }
    }
    buf
}

/// Encodes a next-period sizes response (tag 35).
#[must_use]
pub fn encode_sizes_response(sizes: &[(u64, u64)]) -> Vec<u8> {
    let mut buf = vec![RESP_SIZES];
    buf.extend_from_slice(&(sizes.len() as u64).to_be_bytes());
    for &(rsu, size) in sizes {
        buf.extend_from_slice(&rsu.to_be_bytes());
        buf.extend_from_slice(&size.to_be_bytes());
    }
    buf
}

/// Encodes an error response (tag 36).
#[must_use]
pub fn encode_error_response(message: &str) -> Vec<u8> {
    let msg = message.as_bytes();
    let len = msg.len().min(u16::MAX as usize);
    let mut buf = Vec::with_capacity(3 + len);
    buf.push(RESP_ERROR);
    buf.extend_from_slice(&(len as u16).to_be_bytes());
    buf.extend_from_slice(&msg[..len]);
    buf
}

/// Everything a daemon can answer with, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Tag 32 — ingest acknowledged.
    Ack(AckSummary),
    /// Tag 33 — a pair estimate.
    Estimate(PairEstimate),
    /// Tag 34 — the O–D matrix.
    Matrix(WireMatrix),
    /// Tag 35 — next-period sizes as `(rsu, bits)` pairs.
    Sizes(Vec<(u64, u64)>),
    /// Tag 36 — the request failed.
    Error(String),
    /// Tag 37 — success, nothing to report.
    Ok,
}

impl Response {
    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] on truncation, trailing bytes, or an
    /// unknown response tag.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut cur = Cursor::new(payload);
        let resp = match cur.u8()? {
            RESP_ACK => Response::Ack(AckSummary::decode_body(&mut cur)?),
            RESP_ESTIMATE => {
                let e = get_pair_estimate(&mut cur)?
                    .ok_or(NetError::Malformed("estimate response without estimate"))?;
                Response::Estimate(e)
            }
            RESP_MATRIX => {
                let n = usize::try_from(cur.u64()?)
                    .map_err(|_| NetError::Malformed("matrix size overflows usize"))?;
                // n is bounded by the frame length: every RSU id costs 8
                // bytes, so an over-claimed n fails the reads below
                // rather than a giant reservation here.
                let mut rsus = Vec::new();
                for _ in 0..n {
                    rsus.push(cur.u64()?);
                }
                let mut entries = Vec::new();
                for _ in 0..n * (n.saturating_sub(1)) / 2 {
                    entries.push(get_pair_estimate(&mut cur)?);
                }
                Response::Matrix(WireMatrix { rsus, entries })
            }
            RESP_SIZES => {
                let n = usize::try_from(cur.u64()?)
                    .map_err(|_| NetError::Malformed("sizes count overflows usize"))?;
                let mut sizes = Vec::new();
                for _ in 0..n {
                    sizes.push((cur.u64()?, cur.u64()?));
                }
                Response::Sizes(sizes)
            }
            RESP_ERROR => {
                let len = usize::from(u16::from_be_bytes([cur.u8()?, cur.u8()?]));
                let msg = String::from_utf8_lossy(cur.bytes(len)?).into_owned();
                Response::Error(msg)
            }
            RESP_OK => Response::Ok,
            tag => return Err(NetError::UnknownTag(tag)),
        };
        cur.finish()?;
        Ok(resp)
    }
}

/// Builds a pair-query request payload.
#[must_use]
pub fn encode_pair_query(rsu_a: u64, rsu_b: u64) -> Vec<u8> {
    let mut buf = vec![REQ_PAIR_QUERY];
    buf.extend_from_slice(&rsu_a.to_be_bytes());
    buf.extend_from_slice(&rsu_b.to_be_bytes());
    buf
}

/// Builds an O–D query request payload (`threads == 0` means the
/// daemon's configured default).
#[must_use]
pub fn encode_od_query(threads: u64) -> Vec<u8> {
    let mut buf = vec![REQ_OD_QUERY];
    buf.extend_from_slice(&threads.to_be_bytes());
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        assert_eq!(wire.len(), 4 + 5);
        let got = read_frame(&mut wire.as_slice(), 1024).unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        match read_frame(&mut wire.as_slice(), 1 << 20) {
            Err(NetError::FrameTooLarge { claimed, limit }) => {
                assert_eq!(claimed, u64::from(u32::MAX));
                assert_eq!(limit, 1 << 20);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let wire = 0u32.to_be_bytes();
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 1024),
            Err(NetError::Malformed("zero-length frame"))
        ));
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&100u32.to_be_bytes());
        wire.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 1024),
            Err(NetError::UnexpectedEof)
        ));
    }

    #[test]
    fn estimate_roundtrip_is_bit_exact() {
        let measured = PairEstimate::Measured(Estimate {
            n_c: 123.456_789,
            v_x: 0.1,
            v_y: 0.2,
            v_c: 0.05,
            m_x: 1 << 10,
            m_y: 1 << 12,
            n_x: 500,
            n_y: 900,
            clamped: false,
        });
        let resp = Response::decode(&encode_estimate_response(&measured)).unwrap();
        match resp {
            Response::Estimate(PairEstimate::Measured(e)) => {
                assert_eq!(e.n_c.to_bits(), 123.456_789f64.to_bits());
                assert_eq!(e.m_y, 1 << 12);
            }
            other => panic!("unexpected {other:?}"),
        }

        let degraded =
            PairEstimate::Degraded(DegradedEstimate::from_volumes(10.0, 30.0, true, false));
        match Response::decode(&encode_estimate_response(&degraded)).unwrap() {
            Response::Estimate(d) => assert_eq!(d, degraded),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ack_roundtrip_and_merge() {
        use vcps_sim::ReceiveOutcome as O;
        let mut ack = AckSummary::from_outcomes(&[O::Fresh, O::Fresh, O::Duplicate, O::Stale]);
        assert_eq!(ack.frames, 4);
        assert_eq!(ack.fresh, 2);
        match Response::decode(&ack.encode()).unwrap() {
            Response::Ack(got) => assert_eq!(got, ack),
            other => panic!("unexpected {other:?}"),
        }
        ack.merge(&AckSummary::from_outcomes(&[O::Conflicting]));
        assert_eq!(ack.frames, 5);
        assert_eq!(ack.conflicting, 1);
    }

    #[test]
    fn error_response_roundtrip() {
        match Response::decode(&encode_error_response("nope")).unwrap() {
            Response::Error(msg) => assert_eq!(msg, "nope"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload = vec![RESP_OK];
        payload.push(0);
        assert!(matches!(
            Response::decode(&payload),
            Err(NetError::Malformed("trailing bytes in payload"))
        ));
    }
}
