//! The text reporter: flattens every message it receives into CSV rows
//! under one header row, schema `time_s,kind,scope,power_w,band_w,quality,trace`
//! — loadable straight into gnuplot/pandas for Figure-3-style plots — to
//! any `Write + Send` target (stdout, a file, a test's buffer). Meter and
//! RAPL rows carry band 0, `full` quality and trace 0 (measurements, not
//! traced estimates). `band_w` is the prediction-interval half-width —
//! feed the column to gnuplot's `errorbars`.
//!
//! A line is *head · scope · tail*, and only the scope differs between
//! most rows of a batch: a thousand-process tick reports some forty rows
//! that ran and nine hundred and sixty idle ones with the same time, 0 W,
//! band, quality and trace. Head and tail are therefore rendered once per
//! run of rows that share those fields and copied around each row's scope.

use crate::actor::{Actor, Context};
use crate::frame::PowerBatch;
use crate::msg::{AggregateReport, Message, Quality, Scope};
use crate::telemetry::TraceId;
use os_sim::process::Pid;
use simcpu::units::{Nanos, Watts};
use std::cmp::Ordering;
use std::io::Write;

/// What a row reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Estimate,
    PowerSpy,
    Rapl,
}

impl Kind {
    fn label(self) -> &'static [u8] {
        match self {
            Kind::Estimate => b"estimate",
            Kind::PowerSpy => b"powerspy",
            Kind::Rapl => b"rapl",
        }
    }
}

/// Everything a row reports but its scope — what head and tail are
/// rendered from. The watts compare as bit patterns: `-0.0` prints
/// differently from `0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fields {
    at: Nanos,
    kind: Kind,
    power: u64,
    band: u64,
    quality: Quality,
    trace: TraceId,
}

impl Fields {
    /// Row `i` of a forwarded power batch.
    fn of_row(rows: &PowerBatch, i: usize) -> Fields {
        Fields {
            at: rows.timestamp,
            kind: Kind::Estimate,
            power: rows.watts[i].as_f64().to_bits(),
            band: rows.band_w[i].as_f64().to_bits(),
            quality: rows.quality[i],
            trace: rows.trace,
        }
    }

    fn of_report(a: &AggregateReport) -> Fields {
        Fields {
            at: a.timestamp,
            kind: Kind::Estimate,
            power: a.power.as_f64().to_bits(),
            band: a.band_w.as_f64().to_bits(),
            quality: a.quality,
            trace: a.trace,
        }
    }

    /// A measurement: no band, full quality, untraced.
    fn measured(at: Nanos, kind: Kind, power: Watts) -> Fields {
        Fields {
            at,
            kind,
            power: power.as_f64().to_bits(),
            band: 0f64.to_bits(),
            quality: Quality::Full,
            trace: TraceId::NONE,
        }
    }
}

/// A row's scope, as it arrives.
#[derive(Debug, Clone, Copy)]
enum Label<'a> {
    Pid(Pid),
    Text(&'a [u8]),
}

impl Label<'_> {
    fn of(scope: &Scope) -> Label<'_> {
        match scope {
            Scope::Process(pid) => Label::Pid(*pid),
            Scope::Group(g) => Label::Text(g.as_bytes()),
            Scope::Machine => Label::Text(b"machine"),
        }
    }
}

const CSV_HEADER: &[u8] = b"time_s,kind,scope,power_w,band_w,quality,trace\n";

/// The smallest double the kernel hands to `core::fmt`: 2⁵³. As bit
/// patterns compare, everything with the sign bit set (negatives, `-0.0`),
/// the infinities and every NaN also sit at or above it.
const FALLBACK_BITS: u64 = 0x4340_0000_0000_0000;

/// The fraction field of a double's bit pattern.
const FRACTION: u64 = (1 << 52) - 1;

/// Appends `v` as `{v}` prints it.
fn push_u64(mut v: u64, buf: &mut Vec<u8>) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Appends `x` as `{x:.N$}` prints it: the exact decimal expansion of
/// the double, rounded half-to-even at `N` fractional digits. A double
/// below 2⁵³ is `m · 2^-shift` with `m < 2⁵³`, so `m · 10^N` fits a `u64`
/// and the shifted-out bits are the exact remainder the rounding decides
/// on. The few inputs outside that form go through `core::fmt`, which is
/// also what the tests hold the kernel to.
fn push_fixed<const N: usize>(x: f64, buf: &mut Vec<u8>) {
    const { assert!(N >= 1 && N <= 3, "2^53 * 10^N must fit a u64") };
    let bits = x.to_bits();
    if bits >= FALLBACK_BITS {
        let _ = write!(buf, "{x:.N$}");
        return;
    }
    let (exponent, fraction) = ((bits >> 52) as u32, bits & FRACTION);
    let (m, shift) = match exponent {
        0 => (fraction, 1074),
        e => (fraction | 1 << 52, 1075 - e),
    };
    let scaled = m * 10u64.pow(N as u32);
    // Past 63 bits the whole product is remainder, and below one half.
    let mut q = if shift >= 64 {
        0
    } else {
        let q = scaled >> shift;
        let remainder = scaled - (q << shift);
        match (remainder << 1).cmp(&(1 << shift)) {
            Ordering::Less => q,
            Ordering::Equal => q + (q & 1),
            Ordering::Greater => q + 1,
        }
    };
    // At most 19 digits (2⁵³ · 10³ < 10¹⁹) and the point.
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut put = |b| {
        i -= 1;
        digits[i] = b;
    };
    for _ in 0..N {
        put(b'0' + (q % 10) as u8);
        q /= 10;
    }
    put(b'.');
    loop {
        put(b'0' + (q % 10) as u8);
        q /= 10;
        if q == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// What follows the scope, through the newline:
/// `,power_w,band_w,quality,trace`.
fn push_tail(f: &Fields, buf: &mut Vec<u8>) {
    buf.push(b',');
    push_fixed::<3>(f64::from_bits(f.power), buf);
    buf.push(b',');
    push_fixed::<3>(f64::from_bits(f.band), buf);
    buf.push(b',');
    buf.extend_from_slice(f.quality.label().as_bytes());
    buf.push(b',');
    push_u64(f.trace.0, buf);
    buf.push(b'\n');
}

/// The lines of one message, and what consecutive rows reuse.
struct Lines {
    /// Whether the header row is still owed.
    header_due: bool,
    /// The lines of the message being handled, written out in one call.
    buf: Vec<u8>,
    /// The fields `head` and `tail` were rendered from, `time` from
    /// their timestamp — which changes once a tick, the others more often.
    shared: Option<Fields>,
    time: Vec<u8>,
    /// `time_s,kind,` — everything before the scope.
    head: Vec<u8>,
    tail: Vec<u8>,
    /// How many times the tail was rendered rather than copied.
    #[cfg(test)]
    tails_rendered: usize,
}

impl Lines {
    fn new() -> Lines {
        Lines {
            header_due: true,
            buf: Vec::new(),
            shared: None,
            time: Vec::new(),
            head: Vec::new(),
            tail: Vec::new(),
            #[cfg(test)]
            tails_rendered: 0,
        }
    }

    fn push_row(&mut self, fields: Fields, label: Label<'_>) {
        if std::mem::take(&mut self.header_due) {
            self.buf.extend_from_slice(CSV_HEADER);
        }
        if self.shared != Some(fields) {
            if self.shared.map(|f| f.at) != Some(fields.at) {
                self.time.clear();
                push_fixed::<3>(fields.at.as_secs_f64(), &mut self.time);
            }
            self.head.clear();
            self.head.extend_from_slice(&self.time);
            self.head.push(b',');
            self.head.extend_from_slice(fields.kind.label());
            self.head.push(b',');
            self.tail.clear();
            push_tail(&fields, &mut self.tail);
            self.shared = Some(fields);
            #[cfg(test)]
            {
                self.tails_rendered += 1;
            }
        }
        self.buf.extend_from_slice(&self.head);
        match label {
            Label::Pid(pid) => {
                self.buf.extend_from_slice(b"pid");
                push_u64(u64::from(pid.0), &mut self.buf);
            }
            Label::Text(text) => self.buf.extend_from_slice(text),
        }
        self.buf.extend_from_slice(&self.tail);
    }

    /// Renders `msg` into `buf`; `false` for a message the reporter does
    /// not print.
    fn render(&mut self, msg: &Message) -> bool {
        self.buf.clear();
        match msg {
            Message::AggregateBatch(b) => {
                for (run, report) in b.runs() {
                    // The forwarded rows are read as the columns they are.
                    if let Some(rows) = b.forwarded.as_deref() {
                        for i in run {
                            self.push_row(Fields::of_row(rows, i), Label::Pid(rows.pids[i]));
                        }
                    }
                    if let Some(a) = report {
                        self.push_row(Fields::of_report(a), Label::of(&a.scope));
                    }
                }
            }
            Message::Meter(at, w) => self.push_row(
                Fields::measured(*at, Kind::PowerSpy, *w),
                Label::Text(b"machine"),
            ),
            Message::Rapl(at, w) => self.push_row(
                Fields::measured(*at, Kind::Rapl, *w),
                Label::Text(b"package"),
            ),
            _ => return false,
        }
        true
    }
}

/// The reporter actor.
pub struct TextReporter<W: Write + Send> {
    out: W,
    lines: Lines,
}

impl<W: Write + Send> TextReporter<W> {
    /// Reports CSV rows to any writer.
    pub fn new(out: W) -> TextReporter<W> {
        TextReporter {
            out,
            lines: Lines::new(),
        }
    }
}

impl<W: Write + Send> Actor for TextReporter<W> {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        if self.lines.render(&msg) {
            let _ = self.out.write_all(&self.lines.buf);
        }
    }

    fn on_stop(&mut self, _ctx: &Context) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::fleet::fault::splitmix64;
    use crate::frame::AggregateBatch;
    use crate::msg::Topic;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// One reported value — the unit of the displaced per-row renderer,
    /// kept as the oracle the run renderer is held to (and itself held to
    /// `core::fmt` below).
    struct Row<'a> {
        at: Nanos,
        /// `estimate`, `powerspy` or `rapl`.
        kind: &'static str,
        scope: &'a [u8],
        power: Watts,
        band: Watts,
        quality: Quality,
        trace: TraceId,
    }

    impl Row<'_> {
        /// A measurement row: no band, full quality, untraced.
        fn measured(
            at: Nanos,
            kind: &'static str,
            scope: &'static [u8],
            power: Watts,
        ) -> Row<'static> {
            Row {
                at,
                kind,
                scope,
                power,
                band: Watts(0.0),
                quality: Quality::Full,
                trace: TraceId::NONE,
            }
        }
    }

    fn csv_line(time: &[u8], r: &Row<'_>, buf: &mut Vec<u8>) {
        buf.extend_from_slice(time);
        buf.push(b',');
        buf.extend_from_slice(r.kind.as_bytes());
        buf.push(b',');
        buf.extend_from_slice(r.scope);
        buf.push(b',');
        push_fixed::<3>(r.power.as_f64(), buf);
        buf.push(b',');
        push_fixed::<3>(r.band.as_f64(), buf);
        buf.push(b',');
        buf.extend_from_slice(r.quality.label().as_bytes());
        buf.push(b',');
        push_u64(r.trace.0, buf);
        buf.push(b'\n');
    }

    /// Renders an aggregate scope into a reused label buffer.
    fn label_scope(scope: &Scope, label: &mut Vec<u8>) {
        label.clear();
        match scope {
            Scope::Process(pid) => {
                label.extend_from_slice(b"pid");
                push_u64(u64::from(pid.0), label);
            }
            Scope::Group(g) => label.extend_from_slice(g.as_bytes()),
            Scope::Machine => label.extend_from_slice(b"machine"),
        }
    }

    /// The displaced actor body: every row of `msg` rendered on its own.
    fn render_by_row(header_due: &mut bool, msg: &Message) -> Vec<u8> {
        let (mut buf, mut label, mut time) = (Vec::new(), Vec::new(), Vec::new());
        let mut line = |row: &Row<'_>| {
            if std::mem::take(header_due) {
                buf.extend_from_slice(CSV_HEADER);
            }
            time.clear();
            push_fixed::<3>(row.at.as_secs_f64(), &mut time);
            csv_line(&time, row, &mut buf);
        };
        match msg {
            Message::AggregateBatch(b) => {
                for a in b.iter() {
                    label_scope(&a.scope, &mut label);
                    line(&Row {
                        at: a.timestamp,
                        kind: "estimate",
                        scope: &label,
                        power: a.power,
                        band: a.band_w,
                        quality: a.quality,
                        trace: a.trace,
                    });
                }
            }
            Message::Meter(at, w) => line(&Row::measured(*at, "powerspy", b"machine", *w)),
            Message::Rapl(at, w) => line(&Row::measured(*at, "rapl", b"package", *w)),
            _ => {}
        }
        buf
    }

    /// A Write target tests can read back from.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One aggregate batch, every report `(at, scope, watts, band, quality)`
    /// on `trace`.
    fn batch(trace: u64, reports: Vec<(Nanos, Scope, f64, f64, Quality)>) -> Message {
        let trace = TraceId(trace);
        let report = |(timestamp, scope, power, band, quality)| AggregateReport {
            timestamp,
            scope,
            power: Watts(power),
            band_w: Watts(band),
            quality,
            trace,
        };
        Message::aggregates(reports.into_iter().map(report).collect(), trace)
    }

    /// Every message shape, scope kind and quality, band shown and
    /// hidden, traced and untraced — and a frame, which is not printed.
    fn messages() -> Vec<Message> {
        use Quality::{Degraded, Full, Stale};
        let (t1, t2) = (Nanos::from_secs(1), Nanos::from_secs(2));
        let pid = |p| Scope::Process(Pid(p));
        let group = |g: &str| Scope::Group(Arc::from(g));
        let frame = crate::frame::FrameBuilder::new().finish(t2, t1, Arc::from([]), None);
        vec![
            batch(
                0,
                vec![
                    (t2, pid(42), 3.5, 0.0, Full),
                    (t2, Scope::Machine, 36.0, 1.25, Degraded),
                ],
            ),
            Message::Meter(t2, Watts(35.1)),
            Message::Rapl(t2, Watts(10.0)),
            batch(42, vec![(t1, pid(5), 2.25, 0.84, Degraded)]),
            Message::Meter(t1, Watts(33.0)),
            batch(
                9,
                vec![(Nanos::from_millis(1500), Scope::Machine, 36.48, 1.2, Full)],
            ),
            Message::Rapl(t2, Watts(9.0)),
            Message::Frame(Arc::new(frame)),
            batch(
                6,
                vec![
                    (t1, pid(42), 3.5, 0.7, Full),
                    (t1, group("vm-alpha"), 7.25, 0.0, Degraded),
                    (t1, group("vm-beta"), 1.0, 0.0, Stale),
                ],
            ),
            Message::Meter(t1, Watts(35.1)),
        ]
    }

    const CSV: &str = r#"time_s,kind,scope,power_w,band_w,quality,trace
2.000,estimate,pid42,3.500,0.000,full,0
2.000,estimate,machine,36.000,1.250,degraded,0
2.000,powerspy,machine,35.100,0.000,full,0
2.000,rapl,package,10.000,0.000,full,0
1.000,estimate,pid5,2.250,0.840,degraded,42
1.000,powerspy,machine,33.000,0.000,full,0
1.500,estimate,machine,36.480,1.200,full,9
2.000,rapl,package,9.000,0.000,full,0
1.000,estimate,pid42,3.500,0.700,full,6
1.000,estimate,vm-alpha,7.250,0.000,degraded,6
1.000,estimate,vm-beta,1.000,0.000,stale,6
1.000,powerspy,machine,35.100,0.000,full,0
"#;

    #[test]
    fn csv_is_written_byte_for_byte() {
        let buf = SharedBuf::default();
        let mut sys = ActorSystem::new();
        let r = sys.spawn("text", Box::new(TextReporter::new(buf.clone())));
        for topic in [Topic::Aggregate, Topic::Meter, Topic::Rapl, Topic::Tick] {
            sys.bus().subscribe(topic, &r);
        }
        for m in messages() {
            sys.bus().publish(m);
        }
        sys.shutdown();
        assert_eq!(String::from_utf8(buf.0.lock().clone()).unwrap(), CSV);
    }

    /// A row as `core::fmt` writes it — what every line the kernel builds
    /// must equal byte for byte.
    fn line_by_fmt(scope: &Scope, r: &Row<'_>) -> String {
        let (at, power, band) = (r.at.as_secs_f64(), r.power.as_f64(), r.band.as_f64());
        let (kind, quality, trace) = (r.kind, r.quality.label(), r.trace);
        let scope = match (scope, r.kind) {
            (_, "powerspy") => "machine".to_string(),
            (_, "rapl") => "package".to_string(),
            (Scope::Process(pid), _) => format!("pid{}", pid.0),
            (Scope::Group(g), _) => g.to_string(),
            (Scope::Machine, _) => "machine".to_string(),
        };
        format!("{at:.3},{kind},{scope},{power:.3},{band:.3},{quality},{trace}\n")
    }

    /// The next draw of the differential sweeps' seeded bit source.
    fn draw(state: &mut u64) -> u64 {
        *state = splitmix64(*state);
        *state
    }

    #[test]
    fn every_line_equals_core_fmt_on_seeded_rows() {
        use Quality::{Degraded, Full, Stale};
        let mut seed = 2014;
        let mut label = Vec::new();
        for i in 0..4_000 {
            let mut next = || draw(&mut seed);
            let scope = match next() % 4 {
                0 => Scope::Machine,
                1 => Scope::Group(Arc::from(["vm-alpha", "café", "/tenants/a/b/c"][i % 3])),
                _ => Scope::Process(Pid(next() as u32 >> (next() % 32))),
            };
            let (kind, scope_bytes): (_, Option<&'static [u8]>) = match next() % 8 {
                0 => ("powerspy", Some(b"machine")),
                1 => ("rapl", Some(b"package")),
                _ => ("estimate", None),
            };
            // Watts to the milliwatt and off it, idle rows, the odd
            // negative estimate; bands mostly absent.
            let watts = |r: u64| match r % 5 {
                0 => 0.0,
                1 => (r % 500_000) as f64 / 1000.0,
                2 => -((r % 9_000) as f64) / 16.0,
                _ => (r >> 11) as f64 / (1u64 << 45) as f64,
            };
            let (power, band) = (watts(next()), watts(next()).max(0.0));
            let at = Nanos(next() >> (next() % 40 + 8));
            label_scope(&scope, &mut label);
            let row = Row {
                at,
                kind,
                scope: scope_bytes.unwrap_or(&label),
                power: Watts(power),
                band: Watts(band),
                quality: [Full, Degraded, Stale][i % 3],
                trace: TraceId(next() >> (next() % 64)),
            };
            let (mut time, mut got) = (Vec::new(), Vec::new());
            push_fixed::<3>(at.as_secs_f64(), &mut time);
            csv_line(&time, &row, &mut got);
            let want = line_by_fmt(&scope, &row);
            assert_eq!(String::from_utf8_lossy(&got), want, "row {i}");
        }
    }

    /// Watts a batch can carry: a small palette, so neighbouring rows
    /// often share a tail — idle zeros, values the kernel rounds, and the
    /// ones it hands to `core::fmt`.
    fn palette(r: u64) -> f64 {
        const FEW: [f64; 10] = [
            0.0,
            0.0,
            0.0,
            3.5,
            0.0005,
            12.3456789,
            -0.0,
            -2.5,
            f64::NAN,
            9.1e15,
        ];
        match r % 16 {
            i @ 0..10 => FEW[i as usize],
            10 => f64::from_bits(FALLBACK_BITS),
            11 => f64::INFINITY,
            _ => (r >> 20) as f64 / 4096.0,
        }
    }

    /// One generated aggregate batch: forwarded rows or none, explicit
    /// machine, group and process reports folded in between them, some
    /// on another timestamp or trace than the rows around them.
    fn generated_batch(seed: &mut u64, at: Nanos) -> AggregateBatch {
        use Quality::{Degraded, Full, Stale};
        let mut next = || draw(seed);
        let trace = TraceId([0, 0, 7, next() >> (next() % 64)][(next() % 4) as usize]);
        let rows = [0, 0, 1, 2, 5, 40][(next() % 6) as usize];
        let mut power = PowerBatch::with_capacity(at, "generated", trace, rows);
        let (mut watts, mut band, mut quality) = (0.0, 0.0, Full);
        for i in 0..rows {
            // Mostly a repeat of the row before: runs of equal tails,
            // broken at seeded places.
            if next() % 4 == 0 {
                (watts, band) = (palette(next()), palette(next()).max(0.0));
                quality = [Full, Full, Degraded, Stale][(next() % 4) as usize];
            }
            let pid = Pid((next() as u32 >> (next() % 32)) + i as u32);
            power.push(pid, Watts(watts), Watts(band), quality);
        }
        let forwarded = next() % 4 != 0;
        let mut batch = match forwarded {
            true => AggregateBatch::forwarding(Arc::new(power)),
            false => AggregateBatch::explicit(Vec::new(), trace),
        };
        let mut folded = 0;
        for _ in 0..next() % 4 {
            folded = (folded + (next() % 3) as usize).min(if forwarded { rows } else { 0 });
            let scope = match next() % 3 {
                0 => Scope::Machine,
                1 => Scope::Group(Arc::from(["vm-alpha", "café"][(next() % 2) as usize])),
                _ => Scope::Process(Pid(next() as u32 % 100_000)),
            };
            // The window an aggregate closes is the tick before.
            let timestamp = match next() % 2 {
                0 => at,
                _ => Nanos(at.as_u64().saturating_sub(1_000_000_000)),
            };
            batch.push_after(
                folded,
                AggregateReport {
                    timestamp,
                    scope,
                    power: Watts(palette(next())),
                    band_w: Watts(palette(next()).max(0.0)),
                    quality: [Full, Degraded, Stale][(next() % 3) as usize],
                    trace: [trace, TraceId::NONE][(next() % 2) as usize],
                },
            );
        }
        batch
    }

    #[test]
    fn runs_render_what_every_row_rendered_alone_does() {
        let rounds = if cfg!(debug_assertions) { 400 } else { 20_000 };
        let mut seed = 2014;
        let mut lines = Lines::new();
        let mut header_due = true;
        let mut rows = 0;
        for round in 0..rounds {
            // Ticks mostly advance; sometimes two messages share one.
            let at = Nanos((round - round % 3) * 250_000_000 + draw(&mut seed) % 2);
            let msg = match draw(&mut seed) % 5 {
                0 => Message::Meter(at, Watts(palette(draw(&mut seed)))),
                1 => Message::Rapl(at, Watts(palette(draw(&mut seed)))),
                _ => Message::AggregateBatch(Arc::new(generated_batch(&mut seed, at))),
            };
            assert!(lines.render(&msg));
            let want = render_by_row(&mut header_due, &msg);
            assert_eq!(
                String::from_utf8_lossy(&lines.buf),
                String::from_utf8_lossy(&want),
                "round {round}: {msg:?}"
            );
            rows += want.iter().filter(|&&b| b == b'\n').count();
        }
        assert!(
            lines.tails_rendered * 4 < rows * 3,
            "{} tails for {rows} rows — the sweep must exercise reuse",
            lines.tails_rendered
        );
    }

    #[test]
    fn a_wide_tick_renders_one_tail_per_run() {
        // `host-wide`'s shape: 1 000 rows, the 40 that ran on top, the
        // machine aggregate of the tick before folded after the first.
        let at = Nanos::from_secs(7);
        let mut power = PowerBatch::with_capacity(at, "wide", TraceId(8), 1_000);
        for i in 0..1_000u32 {
            let watts = if i < 40 {
                1.0 + f64::from(i) / 8.0
            } else {
                0.0
            };
            power.push(Pid(100 + i), Watts(watts), Watts(0.7), Quality::Full);
        }
        let mut batch = AggregateBatch::forwarding(Arc::new(power));
        batch.push_after(
            1,
            AggregateReport {
                timestamp: Nanos::from_secs(6),
                scope: Scope::Machine,
                power: Watts(36.5),
                band_w: Watts(28.0),
                quality: Quality::Full,
                trace: TraceId(7),
            },
        );
        let msg = Message::AggregateBatch(Arc::new(batch));
        let mut lines = Lines::new();
        assert!(lines.render(&msg));
        assert_eq!(lines.buf, render_by_row(&mut true, &msg));
        assert!(
            lines.tails_rendered <= 42,
            "{} tails for 40 active rows, one idle run and one machine row",
            lines.tails_rendered
        );
    }

    /// `push_fixed::<N>(x)` against `format!("{x:.N$}")`.
    fn check<const N: usize>(x: f64) {
        let mut got = Vec::new();
        push_fixed::<N>(x, &mut got);
        assert_eq!(
            String::from_utf8_lossy(&got),
            format!("{x:.N$}"),
            "x = {x:e} (bits {:#018x}), N = {N}",
            x.to_bits()
        );
    }

    /// The CSV's three decimals, and two: the kernel takes any `N` up to
    /// three.
    fn check_all(x: f64) {
        check::<2>(x);
        check::<3>(x);
    }

    /// The sweep is sized for `cargo test --release -p powerapi
    /// reporter::text` (3 M comparisons); the debug build keeps a sample.
    #[test]
    fn kernel_equals_core_fmt_on_seeded_bit_patterns() {
        let rounds = if cfg!(debug_assertions) {
            8_000
        } else {
            250_000
        };
        let mut seed = 2014;
        for _ in 0..rounds {
            let r = draw(&mut seed);
            // Any pattern at all: both signs, NaNs, infinities, 1e±300.
            check_all(f64::from_bits(r));
            // Magnitudes a report carries, 2⁻²⁴ up to past the fallback.
            let exponent = 1023 - 24 + (r >> 52) % 80;
            check_all(f64::from_bits(exponent << 52 | r & FRACTION));
            check_all(f64::from_bits(r & FRACTION));
            // Half-steps of the last printed digit: exact ties where the
            // double holds them, a hair off where it cannot.
            check_all((r % 20_000_000_000) as f64 / 2000.0);
        }
    }

    #[test]
    fn kernel_equals_core_fmt_at_every_edge() {
        let two53 = f64::from_bits(FALLBACK_BITS);
        assert_eq!(two53, 9_007_199_254_740_992.0);
        let mut edges = vec![0.0, -0.0, 0.5, 0.05, 0.005, 0.0005, 0.00049999, 1.0, 35.1];
        // Zero, the subnormals, the smallest normal.
        edges.extend([1, FRACTION / 2, FRACTION, FRACTION + 1].map(f64::from_bits));
        // Ties: (2k+1)/16 is (2k+1)·62.5 thousandths, (2k+1)/8 is
        // (2k+1)·12.5 hundredths; k runs through both parities of the
        // digit before the tie.
        for k in 0..4_000 {
            edges.extend([f64::from(2 * k + 1) / 16.0, f64::from(2 * k + 1) / 8.0]);
        }
        edges.extend([0.0625, 0.1875, 1234.5625, 1234.4375, 0.125, 0.375]);
        // The carry into a new leading digit: 9.9995 → 10.000 or 9.999.
        for k in 0..=16 {
            let p = 10f64.powi(k);
            edges.extend([p, p - 0.0005, p - 0.005, p - 0.5, p + 0.9995]);
        }
        // The fallback boundary, from the last half-integers up.
        edges.extend([
            two53 / 2.0 - 0.5,
            two53 / 2.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
        ]);
        // What only the fallback arm sees.
        edges.extend([-1.5, -0.0005, -1234.5625, f64::MAX, f64::MIN, f64::NAN]);
        edges.extend([f64::INFINITY, f64::NEG_INFINITY]);
        for x in edges {
            // And the doubles either side of each: a hair off a tie
            // must round by the hair.
            for step in -3i64..=3 {
                check_all(f64::from_bits(x.to_bits().wrapping_add(step as u64)));
            }
        }
    }

    #[test]
    fn push_u64_equals_display() {
        let mut values = vec![0, 9, u64::from(u32::MAX), u64::MAX];
        for k in 1..20 {
            values.extend([10u64.pow(k) - 1, 10u64.pow(k)]);
        }
        for v in values {
            let mut got = Vec::new();
            push_u64(v, &mut got);
            assert_eq!(String::from_utf8_lossy(&got), v.to_string());
        }
    }
}
