//! Serialized frame envelopes: the unit of transfer on a fleet link.
//!
//! A sender encodes one [`TickFrame`] per monitoring tick into a compact
//! little-endian byte payload (counters + per-frequency residency per
//! process, in the fleet-wide event slot layout), wraps it in a
//! [`FrameEnvelope`] carrying the host id, a per-host sequence number and
//! the sim-clock send timestamp, and hands it to the link. The payload
//! ends in an FNV-1a checksum so in-flight corruption is *detected* at
//! the shard — a corrupt frame is counted and retransmitted, never
//! silently applied.

use crate::frame::{FrameBuilder, TickFrame, NO_ROW};
use crate::telemetry::TraceId;
use os_sim::process::Pid;
use perf_sim::events::Event;
use simcpu::units::{MegaHertz, Nanos};
use std::sync::Arc;

/// A fleet host identity (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host-{}", self.0)
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
    /// The FNV-1a trailer does not match the payload bytes.
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

/// FNV-1a over a byte slice (the payload integrity trailer).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
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
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Encodes a [`TickFrame`] into the wire payload (with checksum
/// trailer). Rows follow the frame's *time* section — every accounted
/// process travels — with the matching hpc counter row joined in by pid
/// (zeros when a process has no counter row, e.g. its slot was revoked).
pub fn encode_frame(frame: &TickFrame) -> Vec<u8> {
    let n_events = frame.events.len();
    let mut out = Vec::with_capacity(16 + frame.time_len() * (12 + 8 * n_events) + 8);
    put_u64(&mut out, frame.timestamp.as_u64());
    put_u64(&mut out, frame.interval.as_u64());
    put_u16(&mut out, n_events as u16);
    put_u32(&mut out, frame.time_len() as u32);
    // Both pid columns are ascending, so a single forward cursor joins
    // hpc rows to time rows in one pass.
    let mut hpc_i = 0usize;
    for i in 0..frame.time_len() {
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
            for _ in 0..n_events {
                put_u64(&mut out, 0);
            }
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
    let sum = fnv1a64(&out);
    put_u64(&mut out, sum);
    out
}

/// Decodes a wire payload straight into frame columns, verifying the
/// checksum *first* so in-flight corruption never reaches the parser.
/// The parser still trusts no length field: a checksummed payload can
/// come from a sender that disagrees on the format.
pub fn decode_frame(payload: &[u8]) -> Result<DecodedFrame, WireError> {
    if payload.len() < 8 {
        return Err(WireError::Truncated);
    }
    let (body, trailer) = payload.split_at(payload.len() - 8);
    let claimed = u64::from_le_bytes(trailer.try_into().unwrap());
    if fnv1a64(body) != claimed {
        return Err(WireError::Checksum);
    }
    let mut r = Reader { bytes: body, at: 0 };
    let timestamp = Nanos(r.u64()?);
    let interval = Nanos(r.u64()?);
    let n_events = r.u16()? as usize;
    let n_rows = r.u32()? as usize;
    let mut columns = FrameBuilder::new();
    for _ in 0..n_rows {
        let pid = Pid(r.u32()?);
        let busy = Nanos(r.u64()?);
        let (pids, counters) = columns.hpc_columns();
        pids.push(pid);
        for _ in 0..n_events {
            counters.push(r.u64()?);
        }
        let n_freq = r.u16()?;
        let mut residency: Result<(), WireError> = Ok(());
        columns.push_time_row(pid, busy, |freqs| {
            residency = (0..n_freq).try_for_each(|_| {
                freqs.push((MegaHertz(r.u32()?), Nanos(r.u64()?)));
                Ok(())
            });
        });
        residency?;
    }
    // Optional cgroup section (present only for cgrouped hosts): path
    // table then one u32 group index per row (`u32::MAX` = ungrouped).
    if r.at < body.len() {
        let n_groups = r.u16()? as usize;
        let (table, group_of) = columns.group_columns();
        for _ in 0..n_groups {
            let len = r.u16()? as usize;
            let path = std::str::from_utf8(r.take(len)?).map_err(|_| WireError::Truncated)?;
            table.push(Arc::from(path));
        }
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
        let sum = fnv1a64(&body);
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

    #[test]
    fn any_flipped_byte_is_detected() {
        let bytes = encode_frame(&sample_frame());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_frame(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
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
    /// and it answers `Err` or a consistent frame, never a panic.
    #[test]
    fn doctored_length_fields_never_panic() {
        let (mut refused, mut accepted) = (0, 0);
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
                    match decode_frame(&resealed(doctored)) {
                        Err(_) => refused += 1,
                        Ok(d) => {
                            let events: Arc<[Event]> = vec![frame.events[0]; d.n_events].into();
                            let sealed = d.seal(events).expect("layout sized to the payload");
                            sealed.debug_assert_consistent();
                            assert_eq!(sealed.hpc_len(), sealed.time_len());
                            accepted += 1;
                        }
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

    #[test]
    fn grouped_payload_corruption_is_detected() {
        let bytes = encode_frame(&grouped_frame());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_frame(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }
}
