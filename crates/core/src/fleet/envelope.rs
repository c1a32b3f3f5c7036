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

use crate::frame::TickFrame;
use crate::msg::SensorReport;
use crate::telemetry::TraceId;
use os_sim::process::Pid;
use perf_sim::events::Event;
use simcpu::units::{MegaHertz, Nanos};

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
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

/// One decoded per-process row.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// The observed process.
    pub pid: Pid,
    /// CPU time consumed over the interval.
    pub busy: Nanos,
    /// Scaled HPC deltas in the fleet-wide event slot order (zeros when
    /// the process had no counter row this tick).
    pub counters: Vec<u64>,
    /// Busy time split by core frequency.
    pub by_freq: Vec<(MegaHertz, Nanos)>,
}

/// A decoded payload: everything a shard formula needs to estimate the
/// host's processes for one interval.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrame {
    /// End of the monitoring interval.
    pub timestamp: Nanos,
    /// Interval length.
    pub interval: Nanos,
    /// Per-process rows, pid-ascending.
    pub rows: Vec<WireRow>,
    /// Distinct cgroup node paths (empty when the host has no cgroups —
    /// the legacy payload shape).
    pub groups: Vec<std::sync::Arc<str>>,
    /// Per-row index into `groups` (`u32::MAX` = ungrouped); empty when
    /// the payload carries no group section.
    pub group_of: Vec<u32>,
}

impl WireFrame {
    /// The cgroup node of row `i` (`None` for ungrouped rows and for
    /// group-less payloads).
    pub fn group_of(&self, i: usize) -> Option<&std::sync::Arc<str>> {
        let idx = *self.group_of.get(i)?;
        self.groups.get(idx as usize)
    }
    /// Materialises row `i` into a reusable scratch report in the shape
    /// shard formulas expect (HPC source, counters zipped with the
    /// fleet-wide slot layout).
    pub fn fill_report(&self, i: usize, events: &[Event], out: &mut SensorReport) {
        let row = &self.rows[i];
        out.timestamp = self.timestamp;
        out.interval = self.interval;
        out.pid = row.pid;
        out.counters.clear();
        out.counters
            .extend(events.iter().copied().zip(row.counters.iter().copied()));
        out.time.busy = row.busy;
        out.time.by_freq.clear();
        out.time.by_freq.extend_from_slice(&row.by_freq);
        out.corun = Default::default();
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
    // it, so legacy payloads stay byte-identical.
    if frame.has_groups() {
        let table = frame.group_table();
        put_u16(&mut out, table.len() as u16);
        for path in table {
            let bytes = path.as_bytes();
            put_u16(&mut out, bytes.len() as u16);
            out.extend_from_slice(bytes);
        }
        for i in 0..frame.time_len() {
            let idx = match frame.group_of_row(i) {
                Some(g) => table.iter().position(|t| t == g).expect("in table") as u32,
                None => u32::MAX,
            };
            put_u32(&mut out, idx);
        }
    }
    let sum = fnv1a64(&out);
    put_u64(&mut out, sum);
    out
}

/// Decodes a wire payload, verifying the checksum *first* so corrupted
/// length fields can never drive the parser out of bounds.
pub fn decode_frame(payload: &[u8]) -> Result<WireFrame, WireError> {
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
    let mut rows = Vec::with_capacity(n_rows.min(4096));
    for _ in 0..n_rows {
        let pid = Pid(r.u32()?);
        let busy = Nanos(r.u64()?);
        let mut counters = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            counters.push(r.u64()?);
        }
        let n_freq = r.u16()? as usize;
        let mut by_freq = Vec::with_capacity(n_freq);
        for _ in 0..n_freq {
            let mhz = MegaHertz(r.u32()?);
            let ns = Nanos(r.u64()?);
            by_freq.push((mhz, ns));
        }
        rows.push(WireRow {
            pid,
            busy,
            counters,
            by_freq,
        });
    }
    // Optional cgroup section (present only for cgrouped hosts): path
    // table then one u32 group index per row (`u32::MAX` = ungrouped).
    let mut groups = Vec::new();
    let mut group_of = Vec::new();
    if r.at < body.len() {
        let n_groups = r.u16()? as usize;
        groups.reserve(n_groups.min(4096));
        for _ in 0..n_groups {
            let len = r.u16()? as usize;
            let bytes = r.take(len)?;
            let path = std::str::from_utf8(bytes).map_err(|_| WireError::Truncated)?;
            groups.push(std::sync::Arc::<str>::from(path));
        }
        group_of.reserve(n_rows.min(4096));
        for _ in 0..n_rows {
            group_of.push(r.u32()?);
        }
    }
    Ok(WireFrame {
        timestamp,
        interval,
        rows,
        groups,
        group_of,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuilder;
    use simcpu::counters::HwCounter;
    use std::sync::Arc;

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

    #[test]
    fn encode_decode_round_trips() {
        let frame = sample_frame();
        let wire = decode_frame(&encode_frame(&frame)).expect("decode");
        assert_eq!(wire.timestamp, Nanos(10_000));
        assert_eq!(wire.interval, Nanos(1_000));
        assert_eq!(wire.rows.len(), 3);
        assert_eq!(wire.rows[0].pid, Pid(3));
        assert_eq!(wire.rows[0].counters, vec![100, 7]);
        assert_eq!(wire.rows[0].by_freq.len(), 2);
        assert_eq!(wire.rows[1].pid, Pid(5));
        assert_eq!(wire.rows[1].counters, vec![0, 0]);
        assert_eq!(wire.rows[2].busy, Nanos(900));
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
    fn fill_report_matches_row() {
        let frame = sample_frame();
        let events: Vec<Event> = frame.events.iter().copied().collect();
        let wire = decode_frame(&encode_frame(&frame)).expect("decode");
        let mut scratch = crate::formula::scratch_report();
        wire.fill_report(0, &events, &mut scratch);
        assert_eq!(scratch.pid, Pid(3));
        assert_eq!(scratch.counters, vec![(events[0], 100), (events[1], 7)]);
        assert_eq!(scratch.time.busy, Nanos(500));
        assert_eq!(scratch.time.by_freq.len(), 2);
        // Refilling with a smaller row must not leak the previous row.
        wire.fill_report(1, &events, &mut scratch);
        assert_eq!(scratch.pid, Pid(5));
        assert_eq!(scratch.counters, vec![(events[0], 0), (events[1], 0)]);
        assert!(scratch.time.by_freq.is_empty());
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
        b.push_time_row(Pid(3), Nanos(500), |_| {});
        b.set_time_group(Some("tenant-a/svc-web"));
        b.push_time_row(Pid(5), Nanos(40), |_| {});
        b.set_time_group(None); // ungrouped row
        b.push_time_row(Pid(9), Nanos(900), |_| {});
        b.set_time_group(Some("tenant-b"));
        b.finish(Nanos(10_000), Nanos(1_000), events, None)
    }

    #[test]
    fn group_section_round_trips() {
        let frame = grouped_frame();
        let wire = decode_frame(&encode_frame(&frame)).expect("decode");
        assert_eq!(wire.rows.len(), 3);
        assert_eq!(wire.group_of(0).map(|g| &**g), Some("tenant-a/svc-web"));
        assert_eq!(wire.group_of(1), None);
        assert_eq!(wire.group_of(2).map(|g| &**g), Some("tenant-b"));
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
        let wire = decode_frame(&bytes).expect("decode");
        assert!(wire.groups.is_empty());
        assert!(wire.group_of.is_empty());
        assert_eq!(wire.group_of(0), None);
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
