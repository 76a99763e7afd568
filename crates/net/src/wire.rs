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
//!
//! The O–D response (tag 34, [`encode_matrix_response`]) ships the
//! matrix's sufficient statistics, not its answers: per-RSU sides
//! `(m, U, n)` or history, plus the `U_c` triangle in 4- or 8-byte
//! slots. [`Response::decode`] validates them through
//! [`OdMatrix::from_parts`] and rebuilds every pair answer with the
//! server's own function into a [`WireMatrix`].

use std::io::{Read, Write};

use vcps_core::{DegradedEstimate, Estimate, PairEstimate, RsuId};
use vcps_sim::{OdMatrix, OverlapSlots, ReceiveOutcome, RsuSide};

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

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
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

fn get_pair_estimate(cur: &mut Cursor<'_>) -> Result<PairEstimate, NetError> {
    match cur.u8()? {
        KIND_MEASURED => {
            let (n_c, v_x, v_y, v_c) = (cur.f64()?, cur.f64()?, cur.f64()?, cur.f64()?);
            let m_x = usize::try_from(cur.u64()?)
                .map_err(|_| NetError::Malformed("array size overflows usize"))?;
            let m_y = usize::try_from(cur.u64()?)
                .map_err(|_| NetError::Malformed("array size overflows usize"))?;
            let (n_x, n_y) = (cur.u64()?, cur.u64()?);
            let clamped = cur.u8()? != 0;
            Ok(PairEstimate::Measured(Estimate {
                n_c,
                v_x,
                v_y,
                v_c,
                m_x,
                m_y,
                n_x,
                n_y,
                clamped,
            }))
        }
        KIND_DEGRADED => {
            let (n_c, lower, upper) = (cur.f64()?, cur.f64()?, cur.f64()?);
            let (volume_x, volume_y) = (cur.f64()?, cur.f64()?);
            let missing_x = cur.u8()? != 0;
            let missing_y = cur.u8()? != 0;
            Ok(PairEstimate::Degraded(DegradedEstimate {
                n_c,
                lower,
                upper,
                volume_x,
                volume_y,
                missing_x,
                missing_y,
            }))
        }
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
/// [`OdMatrix`]).
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

impl From<&OdMatrix> for WireMatrix {
    /// Expands every upper-triangle answer from the matrix's statistics.
    fn from(matrix: &OdMatrix) -> Self {
        let n = matrix.len();
        Self {
            rsus: matrix.rsus().iter().map(|r| r.0).collect(),
            entries: (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| matrix.estimate(i, j)))
                .collect(),
        }
    }
}

const SIDE_UPLOAD: u8 = 0;
const SIDE_HISTORY: u8 = 1;
const SIDE_NONE: u8 = 2;

/// Encodes an O–D matrix response (tag 34) from the matrix's
/// statistics: `[34][n u64][s u64][width u8]`, then `n` RSU ids (`u64`),
/// `n` sides, and the `n(n−1)/2` `U_c` slots, `width` (4 or 8) bytes
/// each, all-ones meaning no decoded overlap. A side is
/// `[0][m u64][zeros u64][counter u64]` (an upload),
/// `[1][average f64 bits]` (history) or `[2]` (neither). No pair answer
/// is computed: the reader rebuilds them ([`Response::decode`]).
#[must_use]
pub fn encode_matrix_response(matrix: &OdMatrix) -> Vec<u8> {
    let n = matrix.len();
    let slots = matrix.slots();
    let mut buf = Vec::with_capacity(18 + n * 33 + slots.len() * slots.width());
    buf.push(RESP_MATRIX);
    buf.extend_from_slice(&(n as u64).to_be_bytes());
    buf.extend_from_slice(&(matrix.s() as u64).to_be_bytes());
    buf.push(slots.width() as u8);
    for rsu in matrix.rsus() {
        buf.extend_from_slice(&rsu.0.to_be_bytes());
    }
    for side in matrix.sides() {
        match *side {
            RsuSide::Upload { m, zeros, counter } => {
                buf.push(SIDE_UPLOAD);
                for v in [m as u64, zeros as u64, counter] {
                    buf.extend_from_slice(&v.to_be_bytes());
                }
            }
            RsuSide::History(Some(average)) => {
                buf.push(SIDE_HISTORY);
                buf.extend_from_slice(&average.to_bits().to_be_bytes());
            }
            RsuSide::History(None) => buf.push(SIDE_NONE),
        }
    }
    match slots {
        OverlapSlots::Narrow(v) => v
            .iter()
            .for_each(|x| buf.extend_from_slice(&x.to_be_bytes())),
        OverlapSlots::Wide(v) => v
            .iter()
            .for_each(|x| buf.extend_from_slice(&x.to_be_bytes())),
    }
    buf
}

/// Reads a tag-34 body (after the tag) and validates it through
/// [`OdMatrix::from_parts`]. Every count is checked against the bytes
/// actually left before anything is reserved, so an over-claimed `n`
/// costs nothing.
fn get_matrix(cur: &mut Cursor<'_>) -> Result<OdMatrix, NetError> {
    let to_usize = |v: u64| {
        usize::try_from(v).map_err(|_| NetError::Malformed("matrix field overflows usize"))
    };
    let n = to_usize(cur.u64()?)?;
    let s = to_usize(cur.u64()?)?;
    let width = usize::from(cur.u8()?);
    if width != 4 && width != 8 {
        return Err(NetError::Malformed("unknown matrix slot width"));
    }
    // Each RSU costs at least its 8-byte id and a 1-byte side.
    if n > cur.remaining() / 9 {
        return Err(NetError::Malformed("matrix RSU count exceeds the payload"));
    }
    let mut rsus = Vec::with_capacity(n);
    for _ in 0..n {
        rsus.push(RsuId(cur.u64()?));
    }
    let mut sides = Vec::with_capacity(n);
    for _ in 0..n {
        sides.push(match cur.u8()? {
            SIDE_UPLOAD => RsuSide::Upload {
                m: to_usize(cur.u64()?)?,
                zeros: to_usize(cur.u64()?)?,
                counter: cur.u64()?,
            },
            SIDE_HISTORY => RsuSide::History(Some(cur.f64()?)),
            SIDE_NONE => RsuSide::History(None),
            _ => return Err(NetError::Malformed("unknown matrix side kind")),
        });
    }
    let pairs = n * n.saturating_sub(1) / 2;
    if cur.remaining() / width < pairs {
        return Err(NetError::Malformed("truncated payload"));
    }
    let raw = cur.bytes(pairs * width)?;
    let slots = if width == 4 {
        OverlapSlots::Narrow(
            raw.chunks_exact(4)
                .map(|c| u32::from_be_bytes(c.try_into().expect("four bytes")))
                .collect(),
        )
    } else {
        OverlapSlots::Wide(
            raw.chunks_exact(8)
                .map(|c| u64::from_be_bytes(c.try_into().expect("eight bytes")))
                .collect(),
        )
    };
    OdMatrix::from_parts(rsus, s, sides, slots).map_err(NetError::from)
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
            RESP_ESTIMATE => Response::Estimate(get_pair_estimate(&mut cur)?),
            RESP_MATRIX => Response::Matrix(WireMatrix::from(&get_matrix(&mut cur)?)),
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

    /// Tag 34, frozen: five RSUs with `s = 2` and 4-byte slots. R1–R4
    /// uploaded (8, 16, 16 and 12 bits; R3 saturated), R5 is known only
    /// from history (7.5). Pair (R1, R2) is measured (`U_c = 7`), (R1,
    /// R3) and (R2, R3) clamped (`U_c = 0`), R4's 12 bits do not nest
    /// with 8 or 16 (no slot: degraded from counters), and every pair
    /// with R5 degrades on its history.
    const GOLDEN_MATRIX: &str = concat!(
        "2200000000000000050000000000000002040000000000000001000000000000",
        "0002000000000000000300000000000000040000000000000005000000000000",
        "0000080000000000000005000000000000000300000000000000001000000000",
        "0000000900000000000000060000000000000000100000000000000000000000",
        "000000005a00000000000000000c000000000000000600000000000000050140",
        "1e0000000000000000000700000000ffffffffffffffff00000000ffffffffff",
        "ffffffffffffffffffffffffffffff",
    );

    /// Tag 34, frozen: one RSU (R9) with neither upload nor history —
    /// legal because the matrix has no pair.
    const GOLDEN_LONE_MATRIX: &str = "220000000000000001000000000000000204000000000000000902";

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect()
    }

    fn golden_matrix() -> OdMatrix {
        let upload = |m, zeros, counter| RsuSide::Upload { m, zeros, counter };
        let none = u32::MAX;
        OdMatrix::from_parts(
            (1..=5).map(RsuId).collect(),
            2,
            vec![
                upload(8, 5, 3),
                upload(16, 9, 6),
                upload(16, 0, 90),
                upload(12, 6, 5),
                RsuSide::History(Some(7.5)),
            ],
            OverlapSlots::Narrow(vec![7, 0, none, none, 0, none, none, none, none, none]),
        )
        .expect("valid parts")
    }

    fn decode_matrix(payload: &[u8]) -> Result<WireMatrix, NetError> {
        match Response::decode(payload)? {
            Response::Matrix(m) => Ok(m),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn matrix_response_matches_golden_vector() {
        let golden = unhex(GOLDEN_MATRIX);
        assert_eq!(encode_matrix_response(&golden_matrix()), golden);
        let wire = decode_matrix(&golden).expect("golden decodes");
        assert_eq!(wire, WireMatrix::from(&golden_matrix()));
        assert_eq!(wire.rsus, vec![1, 2, 3, 4, 5]);

        let counts = vcps_core::estimator::PairCounts {
            m_x: 8,
            m_y: 16,
            u_x: 5,
            u_y: 9,
            u_c: 7,
            n_x: 3,
            n_y: 6,
        };
        let expected = vcps_core::estimator::estimate_from_counts_or_clamp(&counts, 2).unwrap();
        match wire.at(0, 1) {
            Some(PairEstimate::Measured(e)) => {
                assert_eq!(e.n_c.to_bits(), expected.n_c.to_bits());
                assert!(!e.clamped);
            }
            other => panic!("(R1, R2) should be measured: {other:?}"),
        }
        for (i, j) in [(0, 2), (1, 2)] {
            assert!(matches!(wire.at(i, j), Some(PairEstimate::Measured(e)) if e.clamped));
        }
        for j in 0..3 {
            match wire.at(j, 3) {
                Some(PairEstimate::Degraded(d)) => assert!(!d.missing_x && !d.missing_y),
                other => panic!("pair ({j}, 3) should degrade on counters: {other:?}"),
            }
            match wire.at(j, 4) {
                Some(PairEstimate::Degraded(d)) => {
                    assert!(d.missing_y && !d.missing_x);
                    assert_eq!(d.volume_y, 7.5);
                }
                other => panic!("pair ({j}, 4) should degrade on history: {other:?}"),
            }
        }

        let lone = OdMatrix::from_parts(
            vec![RsuId(9)],
            2,
            vec![RsuSide::History(None)],
            OverlapSlots::Narrow(Vec::new()),
        )
        .expect("a lone RSU needs no volume");
        let lone_golden = unhex(GOLDEN_LONE_MATRIX);
        assert_eq!(encode_matrix_response(&lone), lone_golden);
        let wire = decode_matrix(&lone_golden).expect("lone golden decodes");
        assert_eq!(wire.rsus, vec![9]);
        assert!(wire.entries.is_empty());
    }

    #[test]
    fn wide_matrix_response_roundtrips() {
        // A 2^32-bit array cannot use 4-byte slots; no array is built.
        let matrix = OdMatrix::from_parts(
            vec![RsuId(1), RsuId(2)],
            3,
            vec![
                RsuSide::Upload {
                    m: 1 << 31,
                    zeros: 1 << 30,
                    counter: 40,
                },
                RsuSide::Upload {
                    m: 1 << 32,
                    zeros: 1 << 31,
                    counter: 70,
                },
            ],
            OverlapSlots::Wide(vec![(1 << 31) - 5]),
        )
        .expect("valid wide parts");
        let payload = encode_matrix_response(&matrix);
        assert_eq!(payload[17], 8, "slot width byte");
        let wire = decode_matrix(&payload).expect("wide decodes");
        let expected = matrix.estimate(0, 1).expect("a pair");
        assert!(matches!(expected, PairEstimate::Measured(_)));
        assert_eq!(
            wire.at(0, 1).map(|e| estimate_bits(&e)),
            Some(estimate_bits(&expected))
        );
    }

    /// Applies `edit` to the golden frame and asserts it decodes to
    /// `Malformed` (with `reason`, when given).
    fn assert_malformed(reason: Option<&str>, edit: impl FnOnce(&mut Vec<u8>)) {
        let mut payload = unhex(GOLDEN_MATRIX);
        edit(&mut payload);
        match decode_matrix(&payload) {
            Err(NetError::Malformed(got)) => {
                if let Some(reason) = reason {
                    assert_eq!(got, reason);
                }
            }
            other => panic!("expected Malformed({reason:?}), got {other:?}"),
        }
    }

    fn put_u64(payload: &mut [u8], at: usize, v: u64) {
        payload[at..at + 8].copy_from_slice(&v.to_be_bytes());
    }

    // Golden frame offsets: n at 1, s at 9, width at 17, ids at 18,
    // sides from 58 (25 bytes per upload: R1 at 58, R2 at 83, R3 at 108,
    // R4 at 133; R5's history at 158), slots from 167.
    const SIDE_R1: usize = 58;
    const SIDE_R4: usize = 133;
    const SIDE_R5: usize = 158;
    const SLOTS: usize = 167;

    #[test]
    fn matrix_truncated_at_every_byte_is_malformed() {
        let golden = unhex(GOLDEN_MATRIX);
        for len in 0..golden.len() {
            assert!(
                matches!(decode_matrix(&golden[..len]), Err(NetError::Malformed(_))),
                "truncated to {len} bytes"
            );
        }
        assert_malformed(Some("trailing bytes in payload"), |p| p.push(0));
    }

    #[test]
    fn matrix_overclaimed_rsu_count_is_malformed_before_allocation() {
        // Reserving for any of these counts would abort the process.
        for n in [u64::MAX, 1 << 60, 1 << 40, 22] {
            assert_malformed(Some("matrix RSU count exceeds the payload"), |p| {
                put_u64(p, 1, n);
            });
        }
        // A count the payload could hold misaligns every later field.
        for n in [6, 7, 20] {
            assert_malformed(None, |p| put_u64(p, 1, n));
        }
    }

    #[test]
    fn matrix_hostile_fields_are_malformed() {
        let side = "O–D matrix side with m < 2 or zeros > m";
        assert_malformed(Some(side), |p| put_u64(p, SIDE_R1 + 9, 9));
        assert_malformed(Some(side), |p| {
            put_u64(p, SIDE_R4 + 1, 1);
            put_u64(p, SIDE_R4 + 9, 1);
        });
        assert_malformed(
            Some("O–D matrix overlap slot above the larger array size"),
            |p| p[SLOTS..SLOTS + 4].copy_from_slice(&17u32.to_be_bytes()),
        );
        assert_malformed(
            Some("O–D matrix overlap slot for a pair without two uploads"),
            |p| p[SLOTS + 12..SLOTS + 16].copy_from_slice(&0u32.to_be_bytes()),
        );
        assert_malformed(Some("unknown matrix side kind"), |p| p[SIDE_R1] = 3);
        for width in [0, 1, 5, 16, 255] {
            assert_malformed(Some("unknown matrix slot width"), |p| p[17] = width);
        }
        // Width 8 over 4-byte slots: the triangle no longer fits.
        assert_malformed(Some("truncated payload"), |p| p[17] = 8);
        assert_malformed(Some("O–D matrix RSU ids not strictly ascending"), |p| {
            put_u64(p, 18 + 8, 3);
            put_u64(p, 18 + 16, 2);
        });
        assert_malformed(Some("O–D matrix RSU ids not strictly ascending"), |p| {
            put_u64(p, 18 + 8, 1);
        });
        assert_malformed(
            Some("O–D matrix side with neither upload nor history"),
            |p| {
                p.splice(SIDE_R5..SLOTS, [2]);
            },
        );
        assert_malformed(
            Some("O–D matrix side with an invalid history average"),
            |p| put_u64(p, SIDE_R5 + 1, f64::NAN.to_bits()),
        );
        assert_malformed(Some("O–D matrix with s = 0"), |p| put_u64(p, 9, 0));
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
