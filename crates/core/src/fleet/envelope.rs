//! Serialized frame envelopes: the unit of transfer on a fleet link.
//!
//! A sender encodes one [`TickFrame`] per monitoring tick into a compact
//! little-endian byte payload (counters + per-frequency residency per
//! process, in the fleet-wide event slot layout), wraps it in a
//! [`FrameEnvelope`] carrying the host id, a per-host sequence number and
//! the sim-clock send timestamp, and hands it to the link. The payload
//! ends in a word-folded integrity sum ([`wire_sum`]) so in-flight
//! corruption is *detected* at the shard — a corrupt frame is counted and
//! retransmitted, never silently applied.

use crate::frame::{FrameBuilder, FramePool, TickFrame, NO_ROW};
use crate::telemetry::journal::Text;
use crate::telemetry::TraceId;
use os_sim::process::Pid;
use perf_sim::events::Event;
use simcpu::units::{MegaHertz, Nanos};
use std::fmt::Display;
use std::sync::Arc;

/// A fleet host identity (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host-{}", self.0)
    }
}

/// A journal subject naming the host, spelled when the journal is read.
impl From<HostId> for Text {
    fn from(host: HostId) -> Text {
        Text::Spelled(|&[h, _], f| HostId(h as u32).fmt(f), [u64::from(host.0), 0])
    }
}

/// One frame in flight: routing metadata plus the encoded payload.
///
/// The metadata travels "out of band" (it is what the transport itself
/// needs to route, dedupe and ack), so link corruption only ever mangles
/// the payload bytes — exactly like a checksummed UDP datagram whose
/// header survived.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameEnvelope {
    /// The sending host.
    pub host: HostId,
    /// Per-host monotone sequence number (0-based).
    pub seq: u64,
    /// Sim-clock timestamp of the *original* send (retransmits keep it,
    /// so end-to-end lag measures real data age).
    pub sent_at: Nanos,
    /// The origin tick trace stamped by the producing host. Retransmits
    /// and link-injected duplicates keep it, so every copy of a frame
    /// joins the same causal track in the Chrome-trace export. Metadata,
    /// not payload: link corruption never touches it and the payload
    /// byte layout is unchanged.
    pub trace: TraceId,
    /// Which transmission this copy is (0 = first send, 1.. =
    /// retransmits). Stamped by the sender at each send so the journey
    /// log can tell retransmit paths apart; excluded from dedupe — the
    /// (host, seq) pair still identifies the frame.
    pub attempt: u32,
    /// The encoded frame (see [`encode_frame`]).
    pub payload: Vec<u8>,
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload is shorter than its length fields claim.
    Truncated,
    /// The [`wire_sum`] trailer does not match the payload bytes.
    Checksum,
    /// A row's group index is neither `u32::MAX` (ungrouped) nor inside
    /// the payload's group table.
    GroupIndex,
    /// The payload's counter slot count differs from the receiver's
    /// event layout (the two ends disagree on the protocol).
    Layout,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Checksum => write!(f, "checksum mismatch"),
            WireError::GroupIndex => write!(f, "group index outside the group table"),
            WireError::Layout => write!(f, "event layout mismatch"),
        }
    }
}

/// A decoded payload: the interval's header scalars plus its frame
/// columns, not yet bound to an event layout — the wire carries only the
/// slot *count*; which event each slot holds is agreed out of band.
#[derive(Debug)]
pub struct DecodedFrame {
    timestamp: Nanos,
    interval: Nanos,
    n_events: usize,
    columns: FrameBuilder,
}

impl DecodedFrame {
    /// Seals the columns into a [`TickFrame`] under the receiver's slot
    /// layout. Every time row has an hpc row at the same index (the wire
    /// joins them, zeros for a process without counters); the corun and
    /// meter sections and RAPL do not travel.
    ///
    /// # Errors
    ///
    /// [`WireError::Layout`] when the payload's rows are not
    /// `events.len()` counters wide.
    pub fn seal(self, events: Arc<[Event]>) -> Result<TickFrame, WireError> {
        if events.len() != self.n_events {
            return Err(WireError::Layout);
        }
        Ok(self
            .columns
            .finish(self.timestamp, self.interval, events, None))
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte-serial FNV-1a: the frozen-vector digest
/// (`tests/proptest_frame.rs` fingerprints the pipeline's reports with
/// it) and a harness layer metric — not the wire trailer, which is
/// [`wire_sum`]. One dependent multiply per *byte* makes it a latency
/// chain of `len` multiplies, which is why it left the wire path.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Odd, so multiplying by it is a bijection of `u64` (2⁶⁴ / φ).
const FOLD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One fold step: a bijection of `h` for a fixed `w` and of `w` for a
/// fixed `h` (xor, xor-shift by half the width and an odd multiply each
/// are). The xor-shift brings the high half down before the multiply,
/// which only ever carries upwards — without it a flipped top bit would
/// stay a lone top bit that the same flip in the lane's next word cancels.
#[inline]
fn fold(h: u64, w: u64) -> u64 {
    let x = h ^ w;
    (x ^ (x >> 32)).wrapping_mul(FOLD_MUL)
}

/// The payload integrity trailer: the body folded eight bytes at a time.
///
/// The body's aligned little-endian 8-byte words go alternately to two
/// lanes, each a chain of steps
/// `fold(h, w) = ((h ^ w) ^ ((h ^ w) >> 32)) · K` (`K` odd, mod 2⁶⁴); the
/// 0–7 tail bytes, zero-padded, are the second lane's last word, and the
/// sum is `fold(fold(body.len(), a), b)` of the two lane states. Because
/// every step is a bijection of the state and injective in its word, two
/// bodies of one length that differ inside a single aligned word
/// **always** have different sums — the differing step separates that
/// lane's states and no later step, the closing two included, can rejoin
/// them — and so do a body and itself with zero bytes appended inside the
/// last word (the lanes agree, the lengths do not). A link fault flips
/// one byte, so it is always caught, in the body or in the trailer
/// itself; wider damage is left to 64 bits of mixing, as it was under
/// FNV-1a. A lane's multiply waits only for the same lane's previous one:
/// one per *word* is an eighth of FNV-1a's dependency chain, and two
/// independent chains halve it again.
pub fn wire_sum(body: &[u8]) -> u64 {
    let (mut a, mut b) = (FNV_OFFSET, FOLD_MUL);
    let mut pairs = body.chunks_exact(16);
    for p in &mut pairs {
        a = fold(a, le_u64(&p[..8]));
        b = fold(b, le_u64(&p[8..]));
    }
    let mut rest = pairs.remainder().chunks_exact(8);
    if let Some(w) = rest.next() {
        a = fold(a, le_u64(w));
    }
    let mut tail = [0u8; 8];
    tail[..rest.remainder().len()].copy_from_slice(rest.remainder());
    b = fold(b, u64::from_le_bytes(tail));
    fold(fold(body.len() as u64, a), b)
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes(b.try_into().expect("two bytes"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("four bytes"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("eight bytes"))
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        self.take(2).map(le_u16)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.take(4).map(le_u32)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.take(8).map(le_u64)
    }
}

/// Encodes a [`TickFrame`] into the wire payload (with checksum
/// trailer). Rows follow the frame's *time* section — every accounted
/// process travels — with the matching hpc counter row joined in by pid
/// (zeros when a process has no counter row, e.g. its slot was revoked).
pub fn encode_frame(frame: &TickFrame) -> Vec<u8> {
    let n_events = frame.events.len();
    let rows = frame.time_len();
    // The exact payload size, so the buffer is allocated once.
    let freq_pairs: usize = (0..rows).map(|i| frame.freq_slice(i).len()).sum();
    let mut len = 22 + rows * (14 + 8 * n_events) + 12 * freq_pairs + 8;
    if frame.has_groups() {
        let paths: usize = frame.group_table().iter().map(|p| 2 + p.len()).sum();
        len += 2 + paths + 4 * rows;
    }
    let mut out = Vec::with_capacity(len);
    put_u64(&mut out, frame.timestamp.as_u64());
    put_u64(&mut out, frame.interval.as_u64());
    put_u16(&mut out, n_events as u16);
    put_u32(&mut out, rows as u32);
    // Both pid columns are ascending, so a single forward cursor joins
    // hpc rows to time rows in one pass.
    let mut hpc_i = 0usize;
    for i in 0..rows {
        let pid = frame.time_pid(i);
        put_u32(&mut out, pid.0);
        put_u64(&mut out, frame.busy(i).as_u64());
        while hpc_i < frame.hpc_len() && frame.hpc_pid(hpc_i) < pid {
            hpc_i += 1;
        }
        if hpc_i < frame.hpc_len() && frame.hpc_pid(hpc_i) == pid {
            for &v in frame.hpc_row(hpc_i) {
                put_u64(&mut out, v);
            }
        } else {
            out.resize(out.len() + 8 * n_events, 0);
        }
        let freqs = frame.freq_slice(i);
        put_u16(&mut out, freqs.len() as u16);
        for &(mhz, ns) in freqs {
            put_u32(&mut out, mhz.0);
            put_u64(&mut out, ns.as_u64());
        }
    }
    // Optional cgroup section — only frames from cgrouped hosts carry
    // it, so legacy payloads stay byte-identical: the path table, then
    // the frame's own group-index column (`NO_ROW` is the wire's
    // `u32::MAX` "ungrouped").
    if frame.has_groups() {
        let table = frame.group_table();
        put_u16(&mut out, table.len() as u16);
        for path in table {
            let bytes = path.as_bytes();
            put_u16(&mut out, bytes.len() as u16);
            out.extend_from_slice(bytes);
        }
        for &idx in frame.group_indices() {
            put_u32(&mut out, idx);
        }
    }
    let sum = wire_sum(&out);
    put_u64(&mut out, sum);
    debug_assert_eq!(out.len(), len, "the size computed up front is exact");
    out
}

/// Splits off and verifies the trailer, so in-flight corruption never
/// reaches the parser.
fn verified_body(payload: &[u8]) -> Result<&[u8], WireError> {
    if payload.len() < 8 {
        return Err(WireError::Truncated);
    }
    let (body, trailer) = payload.split_at(payload.len() - 8);
    if wire_sum(body) != le_u64(trailer) {
        return Err(WireError::Checksum);
    }
    Ok(body)
}

/// Decodes a wire payload straight into fresh frame columns, verifying
/// the checksum *first* so in-flight corruption never reaches the parser.
/// The parser still trusts no length field: a checksummed payload can
/// come from a sender that disagrees on the format.
pub fn decode_frame(payload: &[u8]) -> Result<DecodedFrame, WireError> {
    parse(verified_body(payload)?, FrameBuilder::new(), |path| {
        Arc::from(path)
    })
}

/// Group paths a [`FrameDecoder`] remembers; a sender naming more pays
/// an allocation per further path per frame, the receiver's memory stays
/// bounded.
const INTERNED_PATHS: usize = 64;

/// A receiver's reusable decoder: [`decode_frame`] into columns recycled
/// through its own [`FramePool`] (a sealed frame returns them when it
/// drops) or taken straight from the receiver's last frame, and group
/// paths interned across frames, so once warm a frame decodes without
/// touching the allocator.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    pool: FramePool,
    paths: Vec<Arc<str>>,
}

impl FrameDecoder {
    /// A decoder with an empty pool.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// [`decode_frame`], into recycled columns. A payload refused by the
    /// checksum costs no storage block; one refused by the parser, or a
    /// [`DecodedFrame`] dropped unsealed, frees its block instead of
    /// recycling it (the pool never inherits a half-built frame).
    pub fn decode(&mut self, payload: &[u8]) -> Result<DecodedFrame, WireError> {
        self.decode_reusing(payload, None)
    }

    /// [`FrameDecoder::decode`], into the columns of `spent` — a frame
    /// the caller is done with and holds the only handle to — instead of
    /// a pool block: no pool lock, and the sealed result can be written
    /// back over `spent` where it lives. The trailer is verified before
    /// `spent` is touched, so a corrupt payload leaves it whole; a
    /// payload the parser refuses leaves it an empty husk whose next
    /// reuse starts from fresh columns.
    pub(crate) fn decode_reusing(
        &mut self,
        payload: &[u8],
        spent: Option<&mut TickFrame>,
    ) -> Result<DecodedFrame, WireError> {
        let body = verified_body(payload)?;
        let columns = match spent {
            Some(frame) => FrameBuilder::reopen(frame),
            None => FrameBuilder::pooled(&self.pool),
        };
        let paths = &mut self.paths;
        parse(body, columns, |path| {
            if let Some(known) = paths.iter().find(|p| &***p == path) {
                return known.clone();
            }
            let fresh: Arc<str> = Arc::from(path);
            if paths.len() < INTERNED_PATHS {
                paths.push(fresh.clone());
            }
            fresh
        })
    }
}

/// The one structural parser: a verified body into `columns`, group
/// paths through `intern`.
fn parse(
    body: &[u8],
    mut columns: FrameBuilder,
    mut intern: impl FnMut(&str) -> Arc<str>,
) -> Result<DecodedFrame, WireError> {
    let mut r = Reader { bytes: body, at: 0 };
    let timestamp = Nanos(r.u64()?);
    let interval = Nanos(r.u64()?);
    let n_events = r.u16()? as usize;
    let n_rows = r.u32()? as usize;
    // The fixed part of a row: pid, busy, the counters, the pair count. A
    // row count the body cannot hold is refused before it sizes anything.
    let row_len = 14 + 8 * n_events;
    let rest = body.len() - r.at;
    if n_rows > rest / row_len {
        return Err(WireError::Truncated);
    }
    // What the fixed parts leave bounds the frequency pairs, twelve
    // bytes each.
    columns.reserve_rows(n_rows, n_events, (rest - n_rows * row_len) / 12);
    for _ in 0..n_rows {
        // One bounds check for the fixed part, one for the pairs.
        let fixed = r.take(row_len)?;
        let (head, tail) = fixed.split_at(12);
        let (counters, n_pairs) = tail.split_at(8 * n_events);
        let pairs = r.take(12 * usize::from(le_u16(n_pairs)))?;
        columns.push_joined_row(
            Pid(le_u32(&head[..4])),
            Nanos(le_u64(&head[4..])),
            counters.chunks_exact(8).map(le_u64),
            pairs
                .chunks_exact(12)
                .map(|p| (MegaHertz(le_u32(&p[..4])), Nanos(le_u64(&p[4..])))),
        );
    }
    // Optional cgroup section (present only for cgrouped hosts): path
    // table then one u32 group index per row (`u32::MAX` = ungrouped).
    if r.at < body.len() {
        let n_groups = r.u16()? as usize;
        let (table, group_of) = columns.group_columns();
        for _ in 0..n_groups {
            let len = r.u16()? as usize;
            let path = std::str::from_utf8(r.take(len)?).map_err(|_| WireError::Truncated)?;
            table.push(intern(path));
        }
        group_of.reserve(n_rows);
        for _ in 0..n_rows {
            let idx = r.u32()?;
            if idx != NO_ROW && idx as usize >= n_groups {
                return Err(WireError::GroupIndex);
            }
            group_of.push(idx);
        }
    }
    Ok(DecodedFrame {
        timestamp,
        interval,
        n_events,
        columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::counters::HwCounter;

    fn sample_frame() -> TickFrame {
        let events: Arc<[Event]> = Arc::from([
            Event::Hardware(HwCounter::Instructions),
            Event::Hardware(HwCounter::CacheMisses),
        ]);
        let mut b = FrameBuilder::new();
        {
            let (pids, counters) = b.hpc_columns();
            pids.push(Pid(3));
            counters.extend([100, 7]);
            pids.push(Pid(9));
            counters.extend([250, 11]);
        }
        b.push_time_row(Pid(3), Nanos(500), |freqs| {
            freqs.push((MegaHertz(1600), Nanos(200)));
            freqs.push((MegaHertz(3300), Nanos(300)));
        });
        // Pid 5 has a time row but no counter row (revoked slot): the
        // wire carries zeros for it.
        b.push_time_row(Pid(5), Nanos(40), |_| {});
        b.push_time_row(Pid(9), Nanos(900), |freqs| {
            freqs.push((MegaHertz(3300), Nanos(900)));
        });
        b.finish(Nanos(10_000), Nanos(1_000), events, Some(1.5))
    }

    /// `body` (no trailer) with a freshly computed checksum, so a
    /// doctored payload reaches the structural parser.
    fn resealed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = wire_sum(&body);
        put_u64(&mut body, sum);
        body
    }

    #[test]
    fn seal_binds_the_layout_or_rejects_it() {
        let frame = sample_frame();
        let bytes = encode_frame(&frame);
        let sealed = decode_frame(&bytes)
            .and_then(|d| d.seal(frame.events.clone()))
            .expect("matching layout");
        assert_eq!(
            (sealed.timestamp, sealed.interval),
            (Nanos(10_000), Nanos(1_000))
        );
        assert_eq!((sealed.time_len(), sealed.hpc_len()), (3, 3));
        assert_eq!(sealed.hpc_row(0), [100, 7]);
        assert_eq!(sealed.freq_slice(0).len(), 2);
        assert_eq!((sealed.time_pid(1), sealed.hpc_pid(1)), (Pid(5), Pid(5)));
        assert_eq!(sealed.hpc_row(1), [0, 0], "no counter row travels as zeros");
        assert_eq!(sealed.busy(2), Nanos(900));
        // A receiver built with a different event list must not read the
        // counters against the wrong columns.
        for n in [0, 1, 3] {
            let other: Arc<[Event]> = vec![frame.events[0]; n].into();
            let refused = decode_frame(&bytes).and_then(|d| d.seal(other));
            assert_eq!(refused.err(), Some(WireError::Layout), "{n} events");
        }
    }

    /// Every single-byte damage a link can do — `corrupt_payload` flips
    /// one bit of one byte, anywhere in the payload, trailer included —
    /// is refused, and by the trailer rather than by the parser's luck.
    #[test]
    fn every_single_bit_flip_is_a_checksum_error() {
        for frame in [sample_frame(), grouped_frame()] {
            let bytes = encode_frame(&frame);
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[i] ^= 1 << bit;
                    assert_eq!(
                        decode_frame(&bad).err(),
                        Some(WireError::Checksum),
                        "bit {bit} of byte {i} went undetected"
                    );
                }
            }
        }
    }

    /// The guarantee `wire_sum` documents, swept rather than sampled:
    /// whatever replaces one aligned word of the body (or its short tail),
    /// the sum moves.
    #[test]
    fn any_substitution_inside_one_aligned_word_moves_the_sum() {
        let bytes = encode_frame(&grouped_frame());
        let body = &bytes[..bytes.len() - 8];
        let sum = wire_sum(body);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        // Sized for the optimized CI step; the debug run keeps a sample.
        let rounds = if cfg!(debug_assertions) { 64 } else { 16_384 };
        for (w, word) in body.chunks(8).enumerate() {
            for round in 0..rounds {
                // xorshift64: a different non-zero pattern every round,
                // plus the edge words.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let new = match round {
                    0 => 0u64,
                    1 => u64::MAX,
                    _ => x,
                }
                .to_le_bytes();
                if new[..word.len()] == *word {
                    continue;
                }
                let mut other = body.to_vec();
                other[8 * w..8 * w + word.len()].copy_from_slice(&new[..word.len()]);
                assert_ne!(wire_sum(&other), sum, "word {w}, round {round}");
            }
        }
    }

    /// The tail is zero-padded into a word, so the length has to be part
    /// of the sum: a body never shares one with itself plus zero bytes.
    #[test]
    fn trailing_zero_bytes_move_the_sum() {
        let bytes = encode_frame(&sample_frame());
        for len in [0, 1, 7, 8, 9, 15, 16, bytes.len() - 8] {
            let body = &bytes[..len];
            let mut longer = body.to_vec();
            for extra in 1..=24 {
                longer.push(0);
                assert_ne!(wire_sum(&longer), wire_sum(body), "{len} + {extra} zeros");
            }
        }
        assert_ne!(wire_sum(&[]), wire_sum(&[0]));
    }

    /// `fnv1a64` is off the wire path but still the digest of the frozen
    /// pipeline vectors: it stays byte-exact FNV-1a.
    #[test]
    fn fnv1a64_keeps_its_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// A decoder's recycled columns and interned paths hold nothing over
    /// from the frame before: every payload decodes to what fresh storage
    /// gives, whichever payload the block served last.
    #[test]
    fn pooled_decode_equals_fresh_decode() {
        let frames = [grouped_frame(), sample_frame(), grouped_frame()];
        let mut decoder = FrameDecoder::new();
        for frame in frames.iter().chain(frames.iter().rev()) {
            let bytes = encode_frame(frame);
            let pooled = decoder
                .decode(&bytes)
                .and_then(|d| d.seal(frame.events.clone()))
                .expect("pooled decode");
            let fresh = decode_frame(&bytes)
                .and_then(|d| d.seal(frame.events.clone()))
                .expect("fresh decode");
            pooled.debug_assert_consistent();
            assert_eq!(pooled, fresh);
            assert_eq!(encode_frame(&pooled), bytes);
        }
        assert_eq!(decoder.pool.pooled(), 1, "one block serves every frame");
        assert_eq!(decoder.paths.len(), 2, "each path interned once");
        // A refused payload takes no block out of circulation.
        assert_eq!(decoder.decode(&[0; 40]).err(), Some(WireError::Checksum));
        assert_eq!(decoder.pool.pooled(), 1);
    }

    /// Refilling the last frame's own columns gives what fresh storage
    /// gives, whichever payload the columns held before; a payload the
    /// trailer refuses leaves the frame as it was.
    #[test]
    fn decoding_into_a_spent_frame_equals_fresh_decode() {
        let frames = [grouped_frame(), sample_frame(), grouped_frame()];
        let mut decoder = FrameDecoder::new();
        let mut last: Option<TickFrame> = None;
        for frame in frames.iter().chain(frames.iter().rev()) {
            let bytes = encode_frame(frame);
            let refilled = decoder
                .decode_reusing(&bytes, last.as_mut())
                .and_then(|d| d.seal(frame.events.clone()))
                .expect("refilled decode");
            let fresh = decode_frame(&bytes)
                .and_then(|d| d.seal(frame.events.clone()))
                .expect("fresh decode");
            refilled.debug_assert_consistent();
            assert_eq!(refilled, fresh);
            last = Some(refilled);
        }
        assert_eq!(
            decoder.pool.pooled(),
            0,
            "the pool served the first frame only"
        );
        let before = last.clone();
        let mut damaged = encode_frame(&sample_frame());
        damaged[5] ^= 0x01;
        let refused = decoder.decode_reusing(&damaged, last.as_mut());
        assert_eq!(refused.err(), Some(WireError::Checksum));
        assert_eq!(
            last, before,
            "the trailer is checked before the columns are taken"
        );
    }

    /// A sender naming more paths than the decoder interns still decodes
    /// exactly; the decoder's memory stays bounded.
    #[test]
    fn interning_is_bounded() {
        let events: Arc<[Event]> = Arc::from([] as [Event; 0]);
        let mut decoder = FrameDecoder::new();
        for batch in 0..3u32 {
            let mut b = FrameBuilder::new();
            for row in 0..40u32 {
                b.push_time_row(Pid(row + 1), Nanos(1), |_| {});
                b.set_time_group(Some(&format!("tenant-{batch}/svc-{row}")));
            }
            let frame = b.finish(Nanos(1), Nanos(1), events.clone(), None);
            let bytes = encode_frame(&frame);
            let pooled = decoder
                .decode(&bytes)
                .and_then(|d| d.seal(events.clone()))
                .expect("decode");
            assert_eq!(encode_frame(&pooled), bytes);
            assert!(decoder.paths.len() <= INTERNED_PATHS);
        }
        assert_eq!(decoder.paths.len(), INTERNED_PATHS);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_frame(&sample_frame());
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_frame(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn host_id_displays_dense() {
        assert_eq!(HostId(17).to_string(), "host-17");
    }

    fn grouped_frame() -> TickFrame {
        let events: Arc<[Event]> = Arc::from([Event::Hardware(HwCounter::Instructions)]);
        let mut b = FrameBuilder::new();
        {
            let (pids, counters) = b.hpc_columns();
            pids.push(Pid(3));
            counters.push(100);
        }
        b.push_time_row(Pid(3), Nanos(500), |freqs| {
            freqs.push((MegaHertz(3300), Nanos(500)));
        });
        b.set_time_group(Some("tenant-a/svc-web"));
        b.push_time_row(Pid(5), Nanos(40), |_| {});
        b.set_time_group(None); // ungrouped row
        b.push_time_row(Pid(9), Nanos(900), |_| {});
        b.set_time_group(Some("tenant-b"));
        b.finish(Nanos(10_000), Nanos(1_000), events, None)
    }

    #[test]
    fn group_index_outside_the_table_is_rejected() {
        let frame = grouped_frame();
        let bytes = encode_frame(&frame);
        let body = &bytes[..bytes.len() - 8];
        // The body ends in one u32 group index per row; the table holds
        // two paths, so 2 is the first index outside it.
        let last = body.len() - 4;
        assert_eq!(body[last..], 1u32.to_le_bytes(), "row 2 is tenant-b");
        for (idx, expect) in [
            (2u32, Some(WireError::GroupIndex)),
            (u32::MAX - 1, Some(WireError::GroupIndex)),
            (u32::MAX, None),
            (0, None),
        ] {
            let mut doctored = body.to_vec();
            doctored[last..].copy_from_slice(&idx.to_le_bytes());
            let decoded = decode_frame(&resealed(doctored));
            assert_eq!(decoded.as_ref().err().copied(), expect, "index {idx}");
            if let Ok(d) = decoded {
                let sealed = d.seal(frame.events.clone()).expect("layout");
                let leaf = sealed.group_of_row(2).map(|g| &**g);
                assert_eq!(leaf, (idx == 0).then_some("tenant-a/svc-web"));
            }
        }
    }

    /// Every byte of a valid body — so every length field: `n_events`,
    /// `n_rows`, a row's `n_freq`, `n_groups`, a path length, a group
    /// index — overwritten with boundary values under a recomputed
    /// checksum: the structural parser, not the trailer, is what runs,
    /// and it answers `Err` or a consistent frame, never a panic — into
    /// fresh columns and into a decoder's recycled ones alike.
    #[test]
    fn doctored_length_fields_never_panic() {
        let (mut refused, mut accepted) = (0, 0);
        let mut decoder = FrameDecoder::new();
        for frame in [sample_frame(), grouped_frame()] {
            let bytes = encode_frame(&frame);
            let body = &bytes[..bytes.len() - 8];
            for at in 0..body.len() {
                for v in [
                    0x00,
                    0x01,
                    0x7f,
                    0x80,
                    0xff,
                    body[at] ^ 0x40,
                    body[at].wrapping_add(1),
                ] {
                    let mut doctored = body.to_vec();
                    doctored[at] = v;
                    let doctored = resealed(doctored);
                    match (decode_frame(&doctored), decoder.decode(&doctored)) {
                        (Err(fresh), Err(pooled)) => {
                            assert_eq!(fresh, pooled);
                            refused += 1;
                        }
                        (Ok(d), Ok(pooled)) => {
                            let events: Arc<[Event]> = vec![frame.events[0]; d.n_events].into();
                            let sealed =
                                d.seal(events.clone()).expect("layout sized to the payload");
                            sealed.debug_assert_consistent();
                            assert_eq!(sealed.hpc_len(), sealed.time_len());
                            assert_eq!(pooled.seal(events).as_ref(), Ok(&sealed));
                            accepted += 1;
                        }
                        (fresh, pooled) => panic!("byte {at} = {v}: {fresh:?} but {pooled:?}"),
                    }
                }
            }
        }
        assert!(refused > 100 && accepted > 100, "{refused} / {accepted}");
    }

    #[test]
    fn ungrouped_payload_bytes_are_unchanged() {
        // A frame with no group column must encode to the exact legacy
        // shape: header + rows + checksum, nothing else. This protects
        // golden traces recorded before the group section existed.
        let frame = sample_frame();
        assert!(!frame.has_groups());
        let bytes = encode_frame(&frame);
        let n_events = frame.events.len();
        let mut expect = 8 + 8 + 2 + 4; // header
        for i in 0..frame.time_len() {
            expect += 4 + 8 + 8 * n_events + 2 + 12 * frame.freq_slice(i).len();
        }
        expect += 8; // checksum trailer
        assert_eq!(bytes.len(), expect);
        let sealed = decode_frame(&bytes)
            .and_then(|d| d.seal(frame.events.clone()))
            .expect("decode");
        assert!(!sealed.has_groups());
        assert!(sealed.group_table().is_empty());
        assert_eq!(sealed.group_of_row(0), None);
    }
}
