//! Reporter sinks. Timed repetitions write into a [`CountingSink`] that
//! only counts bytes and lines; the checked pass writes into a
//! [`DigestSink`] whose digest is order-insensitive, because Meter and
//! Rapl rows interleave with estimate rows in whatever order the reporter
//! thread happens to receive them. The digest never runs inside a timed
//! window: at about a nanosecond per byte it would add 10–15 % to the
//! reporter thread, the busiest pipeline stage.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a sink saw. Shared with the reporter thread that owns the sink;
/// read after `PowerApi::finish()` has joined that thread.
#[derive(Debug, Default)]
pub struct SinkTotals {
    bytes: AtomicU64,
    lines: AtomicU64,
    digest: AtomicU64,
}

impl SinkTotals {
    /// Bytes written.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Complete lines written.
    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Wrapping sum of per-line hashes (0 for a [`CountingSink`]).
    pub fn digest(&self) -> u64 {
        self.digest.load(Ordering::Relaxed)
    }
}

/// Counts bytes and newlines, nothing else. The counts stay in plain
/// fields while the reporter writes — `writeln!` calls `write` a dozen
/// times per row, and an atomic per call would tax the very thread being
/// measured — and are published when the reporter drops the sink, which
/// `PowerApi::finish()` waits for.
#[derive(Debug)]
pub struct CountingSink {
    totals: Arc<SinkTotals>,
    bytes: u64,
    lines: u64,
}

impl CountingSink {
    /// A sink and the handle its totals are read through.
    pub fn new() -> (CountingSink, Arc<SinkTotals>) {
        let totals = Arc::new(SinkTotals::default());
        let sink = CountingSink {
            totals: totals.clone(),
            bytes: 0,
            lines: 0,
        };
        (sink, totals)
    }
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        self.lines += buf.iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for CountingSink {
    fn drop(&mut self) {
        // Read only after the owning thread was joined: the join orders
        // these stores before the reads.
        self.totals.bytes.store(self.bytes, Ordering::Relaxed);
        self.totals.lines.store(self.lines, Ordering::Relaxed);
    }
}

/// The one hash behind every check the harness makes of outputs: the line
/// digest here, the fleet's tick-report stream, the twins' columns. It is
/// the harness's own, not the program's `fnv1a64`: a blessed digest must
/// not move when the program changes its checksum.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// FNV-1a, a byte at a time.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Fnv::PRIME);
        }
    }

    /// One round per 64-bit word, with a shift so that high bits reach
    /// the low ones.
    pub fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Fnv::PRIME);
        self.0 ^= self.0 >> 29;
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Hash of one line, finished with a multiply-xorshift so that lines
/// differing in one character do not hash to neighbouring sums.
pub fn line_hash(line: &[u8]) -> u64 {
    let mut fnv = Fnv::default();
    fnv.bytes(line);
    let mut h = fnv.value();
    h ^= h >> 32;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 29)
}

/// Counts like [`CountingSink`] and also folds every complete line into
/// an order-insensitive digest: the wrapping sum of [`line_hash`].
#[derive(Debug)]
pub struct DigestSink {
    totals: Arc<SinkTotals>,
    partial: Vec<u8>,
}

impl DigestSink {
    /// A sink and the handle its totals are read through.
    pub fn new() -> (DigestSink, Arc<SinkTotals>) {
        let totals = Arc::new(SinkTotals::default());
        let sink = DigestSink {
            totals: totals.clone(),
            partial: Vec::new(),
        };
        (sink, totals)
    }
}

impl Write for DigestSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.totals
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        // `writeln!` hands a row over in several pieces; a line is only
        // hashed once its newline has arrived.
        let mut rest = buf;
        while let Some(at) = rest.iter().position(|&b| b == b'\n') {
            self.partial.extend_from_slice(&rest[..at]);
            let h = line_hash(&self.partial);
            self.partial.clear();
            self.totals.lines.fetch_add(1, Ordering::Relaxed);
            self.totals.digest.fetch_add(h, Ordering::Relaxed);
            rest = &rest[at + 1..];
        }
        self.partial.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(chunks: &[&str]) -> (u64, u64, u64) {
        let (mut sink, totals) = DigestSink::new();
        for c in chunks {
            sink.write_all(c.as_bytes()).unwrap();
        }
        (totals.digest(), totals.lines(), totals.bytes())
    }

    #[test]
    fn digest_ignores_line_order_but_not_content() {
        let a = digest_of(&[
            "1.000,estimate,machine,40.1\n",
            "1.000,powerspy,machine,41.0\n",
        ]);
        let b = digest_of(&[
            "1.000,powerspy,machine,41.0\n",
            "1.000,estimate,machine,40.1\n",
        ]);
        let c = digest_of(&[
            "1.000,powerspy,machine,41.0\n",
            "1.000,estimate,machine,40.2\n",
        ]);
        assert_eq!(a, b);
        assert_ne!(a.0, c.0);
        assert_eq!(a.1, 2);
    }

    #[test]
    fn digest_ignores_how_a_line_is_chunked() {
        let whole = digest_of(&["time_s,kind\n", "1.000,rapl\n"]);
        let pieces = digest_of(&["time_s", ",kind", "\n1.0", "00,rapl", "\n"]);
        assert_eq!(whole, pieces);
    }

    #[test]
    fn duplicated_and_missing_lines_change_the_digest() {
        let once = digest_of(&["a\n", "b\n"]);
        let twice = digest_of(&["a\n", "b\n", "b\n"]);
        let missing = digest_of(&["a\n"]);
        assert_ne!(once.0, twice.0);
        assert_ne!(once.0, missing.0);
    }

    #[test]
    fn counting_sink_agrees_with_digest_sink_on_bytes_and_lines() {
        let (mut sink, totals) = CountingSink::new();
        for c in ["time_s", ",kind", "\n1.0", "00,rapl", "\n"] {
            sink.write_all(c.as_bytes()).unwrap();
        }
        assert_eq!(totals.bytes(), 0, "published when the sink is dropped");
        drop(sink);
        let d = digest_of(&["time_s,kind\n1.000,rapl\n"]);
        assert_eq!((totals.lines(), totals.bytes()), (d.1, d.2));
        assert_eq!(totals.digest(), 0);
    }
}
