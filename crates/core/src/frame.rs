//! Struct-of-arrays tick frames: the one shape a monitoring interval
//! travels the pipeline in.
//!
//! A [`TickFrame`] carries the whole interval as columns: one pid column
//! per section plus flat value columns (counters row-major,
//! per-frequency residency in CSR form), so each pipeline stage handles
//! **one** message per tick and walks cache-friendly arrays — at 1 000
//! monitored processes a tick is four bus messages, not one per process
//! per stage.
//!
//! Downstream stages keep the same shape: the sensors publish a
//! [`SensorBatch`] (row descriptors into the shared frame), formulas a
//! [`PowerBatch`] (watts columns), the aggregator an [`AggregateBatch`]
//! (the same watts columns, forwarded, plus the few aggregates it
//! computed).
//! Batches are ordinary bus messages carrying the tick's [`TraceId`], so
//! supervision, fault injection, quality tags, journal events, trace
//! spans and post-mortem dumps all ride along per frame.
//!
//! Frames are recycled through a [`FramePool`] free list: when the last
//! `Arc<TickFrame>` drops, the column storage returns to the pool and the
//! next tick reuses it — O(1) steady-state allocation per tick.

use crate::msg::{AggregateReport, CorunSplit, PowerReport, Quality, Scope, SensorReport};
use crate::telemetry::TraceId;
use os_sim::process::Pid;
use parking_lot::Mutex;
use perf_sim::events::Event;
use simcpu::units::{MegaHertz, Nanos, Watts};
use std::ops::Range;
use std::sync::Arc;

/// Sentinel for "this row has no entry in that section".
pub const NO_ROW: u32 = u32::MAX;

/// Recyclable column storage for one [`TickFrame`]. All vectors are
/// empty-but-capacitated between uses.
#[derive(Debug, Default)]
pub struct FrameStorage {
    hpc_pids: Vec<Pid>,
    counters: Vec<u64>,
    time_pids: Vec<Pid>,
    busy: Vec<Nanos>,
    freq_index: Vec<u32>,
    freqs: Vec<(MegaHertz, Nanos)>,
    corun_pids: Vec<Pid>,
    corun: Vec<CorunSplit>,
    meter: Vec<(Nanos, Watts)>,
    /// Distinct cgroup node paths referenced by `group_of` (empty on
    /// hosts without cgroups, which keeps their wire payload free of any
    /// group section).
    group_table: Vec<Arc<str>>,
    /// Per-*time*-row index into `group_table` ([`NO_ROW`] = ungrouped).
    /// Either empty (no groups) or exactly `time_pids.len()` entries.
    group_of: Vec<u32>,
}

impl FrameStorage {
    fn clear(&mut self) {
        self.hpc_pids.clear();
        self.counters.clear();
        self.time_pids.clear();
        self.busy.clear();
        self.freq_index.clear();
        self.freqs.clear();
        self.corun_pids.clear();
        self.corun.clear();
        self.meter.clear();
        self.group_table.clear();
        self.group_of.clear();
    }
}

/// Free list of [`FrameStorage`] blocks. Cloning shares the pool; a
/// [`TickFrame`] built from a pool returns its columns here on drop.
#[derive(Debug, Clone, Default)]
pub struct FramePool {
    free: Arc<Mutex<Vec<FrameStorage>>>,
}

impl FramePool {
    /// Creates an empty pool.
    pub fn new() -> FramePool {
        FramePool::default()
    }

    /// Takes a cleared storage block (fresh when the pool is dry).
    pub fn acquire(&self) -> FrameStorage {
        let mut s = self.free.lock().pop().unwrap_or_default();
        s.clear();
        s
    }

    /// Returns a storage block to the free list.
    pub fn release(&self, storage: FrameStorage) {
        self.free.lock().push(storage);
    }

    /// How many blocks are currently pooled (steady state: one per
    /// in-flight tick, usually 1–2).
    pub fn pooled(&self) -> usize {
        self.free.lock().len()
    }
}

/// One monitoring interval in struct-of-arrays form.
///
/// Sections (each a pid column plus value columns, pids ascending):
/// * **hpc** — `counters` is row-major with `events.len()` values per
///   pid, in `events` order (the fixed slot layout formulas resolve
///   their model events against once);
/// * **time** — `busy` per pid plus the per-frequency residency split in
///   CSR form: row `i` owns `freqs[freq_index[i]..freq_index[i+1]]`;
/// * **corun** — SMT co-run splits per pid.
#[derive(Debug)]
pub struct TickFrame {
    /// End of the monitoring interval.
    pub timestamp: Nanos,
    /// Interval length.
    pub interval: Nanos,
    /// The counter slot layout every hpc row follows.
    pub events: Arc<[Event]>,
    /// RAPL package energy over the interval, when supported.
    pub rapl_joules: Option<f64>,
    /// The origin tick trace, stamped by the producing host at snapshot
    /// time ([`TraceId::NONE`] on hosts running dark). Rides out-of-band
    /// — never serialised into the wire payload — so fleet envelopes,
    /// retransmits and journal events can join against the producing
    /// host's trace spans.
    trace: TraceId,
    storage: FrameStorage,
    pool: Option<FramePool>,
    /// Whether the searchable pid columns are ascending (the builder's
    /// invariant). When set, a binary-search miss in [`TickFrame::
    /// time_row`]/[`TickFrame::corun_row`] is a definitive absence; only
    /// hand-built unsorted frames pay the linear-scan fallback.
    sorted: bool,
}

impl TickFrame {
    /// Builds a frame around filled storage. `counters` must hold
    /// `hpc_pids.len() * events.len()` values; `freq_index` must be a
    /// valid CSR offset column for `time_pids`/`freqs`.
    pub fn from_storage(
        timestamp: Nanos,
        interval: Nanos,
        events: Arc<[Event]>,
        rapl_joules: Option<f64>,
        storage: FrameStorage,
        pool: Option<FramePool>,
    ) -> TickFrame {
        let sorted = storage.time_pids.windows(2).all(|w| w[0] <= w[1])
            && storage.corun_pids.windows(2).all(|w| w[0] <= w[1]);
        let frame = TickFrame {
            timestamp,
            interval,
            events,
            rapl_joules,
            trace: TraceId::NONE,
            storage,
            pool,
            sorted,
        };
        frame.debug_assert_consistent();
        frame
    }

    /// Stamps the frame with its origin tick trace (the producing host's
    /// per-tick id).
    pub fn set_trace(&mut self, trace: TraceId) {
        self.trace = trace;
    }

    /// The origin tick trace ([`TraceId::NONE`] when the producing host
    /// ran without telemetry).
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Number of hpc rows.
    pub fn hpc_len(&self) -> usize {
        self.storage.hpc_pids.len()
    }

    /// Pid of hpc row `i`.
    pub fn hpc_pid(&self, i: usize) -> Pid {
        self.storage.hpc_pids[i]
    }

    /// Counter column slice of hpc row `i`, in `events` order.
    pub fn hpc_row(&self, i: usize) -> &[u64] {
        let n = self.events.len();
        &self.storage.counters[i * n..(i + 1) * n]
    }

    /// Number of time rows.
    pub fn time_len(&self) -> usize {
        self.storage.time_pids.len()
    }

    /// Pid of time row `i`.
    pub fn time_pid(&self, i: usize) -> Pid {
        self.storage.time_pids[i]
    }

    /// Busy time of time row `i`.
    pub fn busy(&self, i: usize) -> Nanos {
        self.storage.busy[i]
    }

    /// Per-frequency residency slice of time row `i` (positive deltas,
    /// frequencies ascending).
    pub fn freq_slice(&self, i: usize) -> &[(MegaHertz, Nanos)] {
        let lo = self.storage.freq_index[i] as usize;
        let hi = self.storage.freq_index[i + 1] as usize;
        &self.storage.freqs[lo..hi]
    }

    /// Corun split of corun row `i`.
    pub fn corun_split(&self, i: usize) -> CorunSplit {
        self.storage.corun[i]
    }

    /// Meter samples completed during the interval.
    pub fn meter(&self) -> &[(Nanos, Watts)] {
        &self.storage.meter
    }

    /// Whether the frame carries cgroup attribution columns.
    pub fn has_groups(&self) -> bool {
        !self.storage.group_of.is_empty()
    }

    /// The distinct cgroup node paths referenced by the time rows.
    pub fn group_table(&self) -> &[Arc<str>] {
        &self.storage.group_table
    }

    /// The cgroup node of time row `i` (`None` for ungrouped rows and
    /// for frames without group columns).
    pub fn group_of_row(&self, i: usize) -> Option<&Arc<str>> {
        let idx = *self.storage.group_of.get(i)?;
        if idx == NO_ROW {
            None
        } else {
            Some(&self.storage.group_table[idx as usize])
        }
    }

    /// The cgroup node of `pid`'s time row (`None` for ungrouped and
    /// untracked pids, and for frames without group columns), trying row
    /// `hint` first. The one membership lookup: the host's hierarchy
    /// aggregator and the fleet's tenant books both attribute an
    /// estimate to the leaf its tick's frame names.
    pub fn group_of_pid(&self, pid: Pid, hint: usize) -> Option<&Arc<str>> {
        self.time_row(pid, hint).and_then(|i| self.group_of_row(i))
    }

    /// The per-time-row index into [`TickFrame::group_table`]
    /// ([`NO_ROW`] = ungrouped); empty for frames without group columns.
    pub(crate) fn group_indices(&self) -> &[u32] {
        &self.storage.group_of
    }

    /// Finds `pid`'s time row. `hint` is checked first: all sections are
    /// in ascending-pid order from the same tracked set, so a row's index
    /// in one section usually matches its index in another.
    pub fn time_row(&self, pid: Pid, hint: usize) -> Option<usize> {
        self.row_in(&self.storage.time_pids, pid, hint)
    }

    /// Finds `pid`'s corun row (hint-first, then binary search).
    pub fn corun_row(&self, pid: Pid, hint: usize) -> Option<usize> {
        self.row_in(&self.storage.corun_pids, pid, hint)
    }

    fn row_in(&self, pids: &[Pid], pid: Pid, hint: usize) -> Option<usize> {
        if pids.get(hint) == Some(&pid) {
            return Some(hint);
        }
        match pids.binary_search(&pid) {
            Ok(i) => Some(i),
            // On a sorted column a miss is a miss. Unsorted pid columns
            // only occur in hand-built frames; those fall back to a
            // linear scan rather than miss a row.
            Err(_) if self.sorted => None,
            Err(_) => pids.iter().position(|p| *p == pid),
        }
    }

    /// Debug-only structural invariants: every column pair that must stay
    /// length-consistent, and a monotone CSR offset column.
    pub fn debug_assert_consistent(&self) {
        debug_assert_eq!(
            self.storage.counters.len(),
            self.storage.hpc_pids.len() * self.events.len(),
            "counters must hold events.len() values per hpc pid"
        );
        debug_assert_eq!(self.storage.busy.len(), self.storage.time_pids.len());
        debug_assert_eq!(
            self.storage.freq_index.len(),
            self.storage.time_pids.len() + 1,
            "CSR offsets need one extra entry"
        );
        debug_assert_eq!(self.storage.freq_index.first().copied(), Some(0));
        debug_assert!(self
            .storage
            .freq_index
            .windows(2)
            .all(|w| w[0] <= w[1] && w[1] as usize <= self.storage.freqs.len()));
        debug_assert_eq!(self.storage.corun.len(), self.storage.corun_pids.len());
        debug_assert!(
            self.storage.group_of.is_empty()
                || self.storage.group_of.len() == self.storage.time_pids.len(),
            "group column is all-or-nothing over the time rows"
        );
        debug_assert!(self
            .storage
            .group_of
            .iter()
            .all(|&g| g == NO_ROW || (g as usize) < self.storage.group_table.len()));
    }
}

impl Drop for TickFrame {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.release(std::mem::take(&mut self.storage));
        }
    }
}

impl Clone for TickFrame {
    fn clone(&self) -> TickFrame {
        TickFrame {
            timestamp: self.timestamp,
            interval: self.interval,
            events: self.events.clone(),
            rapl_joules: self.rapl_joules,
            trace: self.trace,
            storage: FrameStorage {
                hpc_pids: self.storage.hpc_pids.clone(),
                counters: self.storage.counters.clone(),
                time_pids: self.storage.time_pids.clone(),
                busy: self.storage.busy.clone(),
                freq_index: self.storage.freq_index.clone(),
                freqs: self.storage.freqs.clone(),
                corun_pids: self.storage.corun_pids.clone(),
                corun: self.storage.corun.clone(),
                meter: self.storage.meter.clone(),
                group_table: self.storage.group_table.clone(),
                group_of: self.storage.group_of.clone(),
            },
            // A clone owns fresh storage; only the original recycles.
            pool: None,
            sorted: self.sorted,
        }
    }
}

impl PartialEq for TickFrame {
    fn eq(&self, other: &TickFrame) -> bool {
        // The pool is plumbing, not data.
        self.timestamp == other.timestamp
            && self.trace == other.trace
            && self.interval == other.interval
            && *self.events == *other.events
            && self.rapl_joules == other.rapl_joules
            && self.storage.hpc_pids == other.storage.hpc_pids
            && self.storage.counters == other.storage.counters
            && self.storage.time_pids == other.storage.time_pids
            && self.storage.busy == other.storage.busy
            && self.storage.freq_index == other.storage.freq_index
            && self.storage.freqs == other.storage.freqs
            && self.storage.corun_pids == other.storage.corun_pids
            && self.storage.corun == other.storage.corun
            && self.storage.meter == other.storage.meter
            && self.storage.group_table == other.storage.group_table
            && self.storage.group_of == other.storage.group_of
    }
}

/// A builder-side handle for filling a frame's sections in order. Keeps
/// the CSR bookkeeping in one place so the host cannot produce a
/// structurally invalid frame.
#[derive(Debug)]
pub struct FrameBuilder {
    storage: FrameStorage,
    pool: Option<FramePool>,
}

impl FrameBuilder {
    /// Starts a frame from pooled storage.
    pub fn pooled(pool: &FramePool) -> FrameBuilder {
        let mut storage = pool.acquire();
        storage.freq_index.push(0);
        FrameBuilder {
            storage,
            pool: Some(pool.clone()),
        }
    }

    /// Reopens a sealed frame's columns for refilling in place: the
    /// storage and its pool membership move into the builder, leaving
    /// `frame` an empty husk to be overwritten by the frame the builder
    /// seals. For a receiver that holds the only handle to the frame it
    /// applied last — it skips the pool's lock, and the sealed frame can
    /// go back into the same `Arc`.
    pub(crate) fn reopen(frame: &mut TickFrame) -> FrameBuilder {
        let mut storage = std::mem::take(&mut frame.storage);
        storage.clear();
        storage.freq_index.push(0);
        FrameBuilder {
            storage,
            pool: frame.pool.take(),
        }
    }

    /// Starts a frame with fresh storage (tests, one-shot conversions).
    pub fn new() -> FrameBuilder {
        let mut storage = FrameStorage::default();
        storage.freq_index.push(0);
        FrameBuilder {
            storage,
            pool: None,
        }
    }

    /// The hpc columns, for bulk filling (e.g. `ProcessMonitor::
    /// sample_into`). The counter column must receive exactly one row of
    /// `events.len()` values per pid pushed.
    pub fn hpc_columns(&mut self) -> (&mut Vec<Pid>, &mut Vec<u64>) {
        (&mut self.storage.hpc_pids, &mut self.storage.counters)
    }

    /// Sizes the hpc and time columns ahead of a bulk fill of `rows`
    /// rows in both sections, `counters` counters wide, holding at most
    /// `freq_pairs` residency entries between them — for a decoder that
    /// has read the row count, so fresh storage grows once per column
    /// and recycled storage not at all.
    pub(crate) fn reserve_rows(&mut self, rows: usize, counters: usize, freq_pairs: usize) {
        let s = &mut self.storage;
        s.hpc_pids.reserve(rows);
        s.counters.reserve(rows * counters);
        s.time_pids.reserve(rows);
        s.busy.reserve(rows);
        s.freq_index.reserve(rows);
        s.freqs.reserve(freq_pairs);
    }

    /// Appends one row to both the hpc and the time section: `pid`'s
    /// `counters` (one per event slot), its `busy` time and its
    /// residency entries `freqs` — for a decoder whose source joins the
    /// two sections row by row.
    #[inline]
    pub(crate) fn push_joined_row(
        &mut self,
        pid: Pid,
        busy: Nanos,
        counters: impl Iterator<Item = u64>,
        freqs: impl Iterator<Item = (MegaHertz, Nanos)>,
    ) {
        let s = &mut self.storage;
        s.hpc_pids.push(pid);
        s.counters.extend(counters);
        s.time_pids.push(pid);
        s.busy.push(busy);
        s.freqs.extend(freqs);
        s.freq_index.push(s.freqs.len() as u32);
    }

    /// Appends one time row; `fill` appends that row's per-frequency
    /// residency entries to the shared column.
    pub fn push_time_row(
        &mut self,
        pid: Pid,
        busy: Nanos,
        fill: impl FnOnce(&mut Vec<(MegaHertz, Nanos)>),
    ) {
        self.storage.time_pids.push(pid);
        self.storage.busy.push(busy);
        fill(&mut self.storage.freqs);
        self.storage
            .freq_index
            .push(self.storage.freqs.len() as u32);
    }

    /// Tags the most recently pushed time row with its cgroup node. The
    /// group column stays entirely absent (no group section on the wire)
    /// until the first `Some` path arrives; earlier and untagged rows
    /// count as ungrouped.
    pub fn set_time_group(&mut self, path: Option<&str>) {
        let row = self.storage.time_pids.len();
        debug_assert!(row > 0, "tag after push_time_row");
        if self.storage.group_of.is_empty() && path.is_none() {
            return;
        }
        let idx = match path {
            None => NO_ROW,
            Some(p) => match self.storage.group_table.iter().position(|g| &**g == p) {
                Some(i) => i as u32,
                None => {
                    self.storage.group_table.push(Arc::from(p));
                    (self.storage.group_table.len() - 1) as u32
                }
            },
        };
        while self.storage.group_of.len() < row - 1 {
            self.storage.group_of.push(NO_ROW);
        }
        self.storage.group_of.push(idx);
    }

    /// The group columns, for bulk filling by a decoder that already
    /// holds them in column form: the path table, and one table index
    /// per time row ([`NO_ROW`] = ungrouped; none at all for a frame
    /// without groups).
    pub(crate) fn group_columns(&mut self) -> (&mut Vec<Arc<str>>, &mut Vec<u32>) {
        (&mut self.storage.group_table, &mut self.storage.group_of)
    }

    /// The corun columns (pids ascending, their splits in step), for a
    /// host that accumulates the section in column form and swaps it in
    /// whole.
    pub fn corun_columns(&mut self) -> (&mut Vec<Pid>, &mut Vec<CorunSplit>) {
        (&mut self.storage.corun_pids, &mut self.storage.corun)
    }

    /// The meter column (drained from the host's buffer).
    pub fn meter_column(&mut self) -> &mut Vec<(Nanos, Watts)> {
        &mut self.storage.meter
    }

    /// Seals the frame.
    pub fn finish(
        mut self,
        timestamp: Nanos,
        interval: Nanos,
        events: Arc<[Event]>,
        rapl_joules: Option<f64>,
    ) -> TickFrame {
        if !self.storage.group_of.is_empty() {
            // Rows pushed after the last tag are ungrouped.
            self.storage
                .group_of
                .resize(self.storage.time_pids.len(), NO_ROW);
        }
        TickFrame::from_storage(
            timestamp,
            interval,
            events,
            rapl_joules,
            self.storage,
            self.pool,
        )
    }
}

impl Default for FrameBuilder {
    fn default() -> FrameBuilder {
        FrameBuilder::new()
    }
}

/// One sensor row: a pid plus its row indices into the frame sections
/// ([`NO_ROW`] when the section has no entry for the pid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorRow {
    /// The observed process.
    pub pid: Pid,
    /// Row in the frame's hpc section.
    pub hpc: u32,
    /// Row in the frame's time section.
    pub time: u32,
    /// Row in the frame's corun section.
    pub corun: u32,
}

/// A sensor's whole-tick observation: row descriptors over the shared
/// frame, one per published process.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorBatch {
    /// Which sensor produced the batch (formulas filter on this).
    pub source: &'static str,
    /// The tick frame the rows index into.
    pub frame: Arc<TickFrame>,
    /// One row per published process, in frame order.
    pub rows: Vec<SensorRow>,
    /// The tick trace, stamped by the sensor.
    pub trace: TraceId,
}

impl SensorBatch {
    /// End of the interval.
    pub fn timestamp(&self) -> Nanos {
        self.frame.timestamp
    }

    /// Interval length.
    pub fn interval(&self) -> Nanos {
        self.frame.interval
    }

    /// Materialises row `i` into a reusable [`SensorReport`] — what the
    /// default [`PowerFormula::estimate_batch`] feeds to
    /// [`PowerFormula::estimate`] row by row, and the reference the
    /// column-reading overrides are checked against.
    ///
    /// [`PowerFormula::estimate`]: crate::formula::PowerFormula::estimate
    /// [`PowerFormula::estimate_batch`]: crate::formula::PowerFormula::estimate_batch
    pub fn fill_report(&self, i: usize, out: &mut SensorReport) {
        let row = &self.rows[i];
        let frame = &*self.frame;
        out.timestamp = frame.timestamp;
        out.interval = frame.interval;
        out.pid = row.pid;
        out.counters.clear();
        if row.hpc != NO_ROW {
            out.counters.extend(
                frame
                    .events
                    .iter()
                    .zip(frame.hpc_row(row.hpc as usize))
                    .map(|(e, v)| (*e, *v)),
            );
        }
        out.time.busy = Nanos::ZERO;
        out.time.by_freq.clear();
        if row.time != NO_ROW {
            let t = row.time as usize;
            out.time.busy = frame.busy(t);
            out.time.by_freq.extend_from_slice(frame.freq_slice(t));
        }
        out.corun = if row.corun != NO_ROW {
            frame.corun_split(row.corun as usize)
        } else {
            CorunSplit::default()
        };
    }
}

/// A formula's whole-tick output: one watts/band/quality entry per
/// estimated process.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBatch {
    /// End of the interval.
    pub timestamp: Nanos,
    /// Name of the formula that produced the batch.
    pub formula: &'static str,
    /// Estimated processes.
    pub pids: Vec<Pid>,
    /// Estimated active power per pid.
    pub watts: Vec<Watts>,
    /// Prediction-interval half-width per pid.
    pub band_w: Vec<Watts>,
    /// Estimate quality per pid.
    pub quality: Vec<Quality>,
    /// The tick trace the batch descends from.
    pub trace: TraceId,
    /// The frame the rows were estimated from (`None` for rows no frame
    /// carries, such as the middleware's own): its cgroup columns are
    /// each row's membership at snapshot time.
    pub frame: Option<Arc<TickFrame>>,
}

impl PowerBatch {
    /// An empty batch with room for `capacity` rows.
    pub fn with_capacity(
        timestamp: Nanos,
        formula: &'static str,
        trace: TraceId,
        capacity: usize,
    ) -> PowerBatch {
        PowerBatch {
            timestamp,
            formula,
            pids: Vec::with_capacity(capacity),
            watts: Vec::with_capacity(capacity),
            band_w: Vec::with_capacity(capacity),
            quality: Vec::with_capacity(capacity),
            trace,
            frame: None,
        }
    }

    /// An empty batch for `formula`'s estimates of `batch`: its
    /// timestamp, trace and frame, room for every row.
    pub fn estimating(batch: &SensorBatch, formula: &'static str) -> PowerBatch {
        PowerBatch {
            frame: Some(batch.frame.clone()),
            ..PowerBatch::with_capacity(batch.timestamp(), formula, batch.trace, batch.rows.len())
        }
    }

    /// Appends one estimate.
    pub fn push(&mut self, pid: Pid, watts: Watts, band_w: Watts, quality: Quality) {
        self.pids.push(pid);
        self.watts.push(watts);
        self.band_w.push(band_w);
        self.quality.push(quality);
    }

    /// Number of estimates.
    pub fn len(&self) -> usize {
        self.pids.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.pids.is_empty()
    }

    /// Row `i` as a [`PowerReport`].
    pub fn report(&self, i: usize) -> PowerReport {
        PowerReport {
            timestamp: self.timestamp,
            pid: self.pids[i],
            power: self.watts[i],
            formula: self.formula,
            band_w: self.band_w[i],
            quality: self.quality[i],
            trace: self.trace,
        }
    }

    /// Row `i` as the per-process aggregate it is forwarded as.
    pub fn aggregate(&self, i: usize) -> AggregateReport {
        AggregateReport {
            timestamp: self.timestamp,
            scope: Scope::Process(self.pids[i]),
            power: self.watts[i],
            band_w: self.band_w[i],
            quality: self.quality[i],
            trace: self.trace,
        }
    }

    /// All rows as reports, in order.
    pub fn reports(&self) -> impl Iterator<Item = PowerReport> + '_ {
        (0..self.len()).map(|i| self.report(i))
    }
}

/// An aggregator's whole-tick output, in fold order. The per-process
/// estimates — all but a handful of a tick's rows — are not rebuilt: the
/// batch **forwards the formula's columns** as it was handed them, and
/// carries as structs only what the aggregator computed itself (the
/// machine flush, group sums), each with the position it was folded at.
/// [`AggregateBatch::iter`] reads both back as one sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateBatch {
    /// The per-process estimates, forwarded: row `i` reads as an
    /// aggregate of scope [`Scope::Process`]`(pids[i])` carrying the
    /// batch's timestamp and trace.
    pub forwarded: Option<Arc<PowerBatch>>,
    /// Every other aggregate, in fold order — where consumers of the
    /// machine and group scopes find them.
    pub reports: Vec<AggregateReport>,
    /// How many forwarded rows were folded before `reports[i]`; as long
    /// as `reports` and ascending.
    folded_at: Vec<u32>,
    /// The newest tick trace folded in.
    pub trace: TraceId,
}

impl AggregateBatch {
    /// A batch of `reports` alone.
    pub fn explicit(reports: Vec<AggregateReport>, trace: TraceId) -> AggregateBatch {
        AggregateBatch {
            forwarded: None,
            folded_at: vec![0; reports.len()],
            reports,
            trace,
        }
    }

    /// A batch forwarding every row of `batch` under its trace; what the
    /// aggregator folds out of the rows is added with
    /// [`AggregateBatch::push_after`].
    pub fn forwarding(batch: Arc<PowerBatch>) -> AggregateBatch {
        AggregateBatch {
            trace: batch.trace,
            forwarded: Some(batch),
            reports: Vec::new(),
            folded_at: Vec::new(),
        }
    }

    /// Appends `report` as folded once `rows` forwarded rows had been
    /// (no fewer than for the report before it).
    pub fn push_after(&mut self, rows: usize, report: AggregateReport) {
        debug_assert!(self.folded_at.last().is_none_or(|&at| at as usize <= rows));
        self.folded_at.push(rows as u32);
        self.reports.push(report);
    }

    fn forwarded_rows(&self) -> usize {
        self.forwarded.as_ref().map_or(0, |b| b.len())
    }

    /// Forwarded rows plus explicit reports.
    pub fn len(&self) -> usize {
        self.forwarded_rows() + self.reports.len()
    }

    /// Whether the batch reports nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The batch as alternating runs, in fold order: a range of
    /// forwarded rows (possibly empty), then the explicit report folded
    /// after them — `None` closing the last run.
    pub fn runs(&self) -> impl Iterator<Item = (Range<usize>, Option<&AggregateReport>)> + '_ {
        let rows = self.forwarded_rows();
        let mut explicit = self.reports.iter().zip(&self.folded_at);
        // Where the next run starts; `None` once the closing run is out.
        let mut next = Some(0);
        std::iter::from_fn(move || {
            let start = next?;
            Some(match explicit.next() {
                Some((report, &at)) => {
                    let end = (at as usize).clamp(start, rows);
                    next = Some(end);
                    (start..end, Some(report))
                }
                None => {
                    next = None;
                    (start..rows, None)
                }
            })
        })
    }

    /// Every aggregate, in fold order.
    pub fn iter(&self) -> impl Iterator<Item = AggregateReport> + '_ {
        self.runs().flat_map(move |(run, report)| {
            let forwarded = self.forwarded.as_deref();
            run.filter_map(move |i| forwarded.map(|b| b.aggregate(i)))
                .chain(report.cloned())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_sim::events::PAPER_EVENTS;
    use simcpu::counters::ExecDelta;

    /// Two hpc/time rows (pids 1 and 5), one corun row (pid 5), one
    /// meter sample, RAPL present.
    fn fill_sample(mut b: FrameBuilder) -> TickFrame {
        let (pids, counters) = b.hpc_columns();
        for (pid, v) in [(Pid(1), 10u64), (Pid(5), 20)] {
            pids.push(pid);
            counters.extend(PAPER_EVENTS.iter().map(|_| v));
        }
        b.push_time_row(Pid(1), Nanos(500), |f| {
            f.extend([(MegaHertz(1600), Nanos(200)), (MegaHertz(3300), Nanos(300))]);
        });
        b.push_time_row(Pid(5), Nanos(900), |f| {
            f.push((MegaHertz(3300), Nanos(900)));
        });
        let (corun_pids, corun) = b.corun_columns();
        corun_pids.push(Pid(5));
        corun.push(CorunSplit {
            solo: ExecDelta {
                instructions: 7,
                ..ExecDelta::zero()
            },
            corun: ExecDelta::zero(),
            solo_time: Nanos(900),
            corun_time: Nanos::ZERO,
        });
        b.meter_column().push((Nanos::from_secs(3), Watts(35.0)));
        b.finish(
            Nanos::from_secs(3),
            Nanos::from_secs(1),
            PAPER_EVENTS.iter().copied().collect(),
            Some(1.5),
        )
    }

    #[test]
    fn row_lookup_uses_hint_then_search() {
        let frame = fill_sample(FrameBuilder::new());
        assert_eq!(frame.time_row(Pid(1), 0), Some(0));
        assert_eq!(frame.time_row(Pid(5), 0), Some(1), "hint miss → search");
        assert_eq!(frame.time_row(Pid(9), 0), None);
        assert_eq!(frame.corun_row(Pid(5), 1), Some(0));
    }

    #[test]
    fn pool_recycles_storage_on_drop() {
        let pool = FramePool::new();
        let mut b = FrameBuilder::pooled(&pool);
        b.push_time_row(Pid(1), Nanos(10), |f| f.push((MegaHertz(1000), Nanos(10))));
        let frame = b.finish(Nanos(1), Nanos(1), Arc::from([] as [Event; 0]), None);
        assert_eq!(pool.pooled(), 0);
        drop(frame);
        assert_eq!(pool.pooled(), 1);
        // The recycled block comes back cleared.
        let b2 = FrameBuilder::pooled(&pool);
        assert_eq!(pool.pooled(), 0);
        let f2 = b2.finish(Nanos(2), Nanos(1), Arc::from([] as [Event; 0]), None);
        assert_eq!(f2.time_len(), 0);
    }

    #[test]
    fn clones_do_not_recycle() {
        let pool = FramePool::new();
        let b = FrameBuilder::pooled(&pool);
        let frame = b.finish(Nanos(1), Nanos(1), Arc::from([] as [Event; 0]), None);
        let copy = frame.clone();
        drop(copy);
        assert_eq!(pool.pooled(), 0, "clone owns fresh storage");
        drop(frame);
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn fill_report_materialises_rows() {
        let frame = Arc::new(fill_sample(FrameBuilder::new()));
        let batch = SensorBatch {
            source: "hpc",
            frame: frame.clone(),
            rows: vec![
                SensorRow {
                    pid: Pid(1),
                    hpc: 0,
                    time: 0,
                    corun: NO_ROW,
                },
                SensorRow {
                    pid: Pid(5),
                    hpc: 1,
                    time: 1,
                    corun: 0,
                },
            ],
            trace: TraceId(4),
        };
        let mut scratch = crate::formula::scratch_report();
        batch.fill_report(0, &mut scratch);
        assert_eq!(scratch.pid, Pid(1));
        assert_eq!(scratch.counters.len(), PAPER_EVENTS.len());
        assert_eq!(scratch.time.busy, Nanos(500));
        assert_eq!(scratch.corun, CorunSplit::default());
        batch.fill_report(1, &mut scratch);
        assert_eq!(scratch.pid, Pid(5));
        assert_eq!(scratch.counters[0].1, 20);
        assert_eq!(scratch.corun.solo.instructions, 7);
        assert_eq!(scratch.time.by_freq, vec![(MegaHertz(3300), Nanos(900))]);
    }

    #[test]
    fn power_batch_round_trips_reports() {
        let mut b = PowerBatch::with_capacity(Nanos(1), "f", TraceId(2), 2);
        assert!(b.is_empty());
        b.push(Pid(1), Watts(2.0), Watts(0.1), Quality::Full);
        b.push(Pid(2), Watts(3.0), Watts(0.0), Quality::Degraded);
        assert_eq!(b.len(), 2);
        let reports: Vec<PowerReport> = b.reports().collect();
        assert_eq!(reports[1].pid, Pid(2));
        assert_eq!(reports[1].quality, Quality::Degraded);
        let mut back = PowerBatch::with_capacity(Nanos(1), "f", TraceId(2), 2);
        for r in &reports {
            back.push(r.pid, r.power, r.band_w, r.quality);
        }
        assert_eq!(back, b);
    }

    #[test]
    fn aggregate_batch_reads_back_in_fold_order() {
        let machine = |secs| AggregateReport {
            timestamp: Nanos::from_secs(secs),
            scope: Scope::Machine,
            power: Watts(30.0 + secs as f64),
            band_w: Watts(0.0),
            quality: Quality::Full,
            trace: TraceId(secs),
        };
        let mut rows = PowerBatch::with_capacity(Nanos::from_secs(9), "f", TraceId(9), 4);
        for pid in 0..4 {
            rows.push(Pid(pid), Watts(1.0), Watts(0.1), Quality::Degraded);
        }
        let mut batch = AggregateBatch::forwarding(Arc::new(rows));
        assert_eq!((batch.len(), batch.trace), (4, TraceId(9)));
        for (after, secs) in [(0, 1), (2, 2), (2, 3), (4, 4)] {
            batch.push_after(after, machine(secs));
        }
        let order: Vec<_> = batch
            .iter()
            .map(|a| match a.scope {
                Scope::Process(pid) => {
                    assert_eq!((a.timestamp, a.trace), (Nanos::from_secs(9), TraceId(9)));
                    assert_eq!((a.band_w, a.quality), (Watts(0.1), Quality::Degraded));
                    format!("p{}", pid.0)
                }
                _ => format!("m{}", a.trace.0),
            })
            .collect();
        assert_eq!(order, ["m1", "p0", "p1", "m2", "m3", "p2", "p3", "m4"]);
        assert_eq!(batch.len(), 8);
        let runs: Vec<_> = batch.runs().map(|(run, r)| (run, r.is_some())).collect();
        let want = [(0..0, true), (0..2, true), (2..2, true), (2..4, true)];
        assert_eq!(runs[..4], want);
        assert_eq!(runs[4], (4..4, false));

        let explicit = AggregateBatch::explicit(vec![machine(1), machine(2)], TraceId(2));
        assert_eq!(explicit.iter().collect::<Vec<_>>(), explicit.reports);
        assert!(AggregateBatch::explicit(Vec::new(), TraceId::NONE).is_empty());
    }

    #[test]
    fn group_columns_are_all_or_nothing() {
        // No tags → no group column at all.
        let mut b = FrameBuilder::new();
        b.push_time_row(Pid(1), Nanos(10), |_| {});
        b.set_time_group(None);
        let f = b.finish(Nanos(1), Nanos(1), Arc::from([] as [Event; 0]), None);
        assert!(!f.has_groups());
        assert_eq!(f.group_of_row(0), None);

        // A single tagged row back-fills earlier rows as ungrouped and
        // forward-fills later ones at finish.
        let mut b = FrameBuilder::new();
        b.push_time_row(Pid(1), Nanos(10), |_| {});
        b.push_time_row(Pid(2), Nanos(10), |_| {});
        b.set_time_group(Some("tenant-a/svc-web"));
        b.push_time_row(Pid(3), Nanos(10), |_| {});
        b.set_time_group(Some("tenant-a/svc-web"));
        b.push_time_row(Pid(4), Nanos(10), |_| {});
        let f = b.finish(Nanos(1), Nanos(1), Arc::from([] as [Event; 0]), None);
        assert!(f.has_groups());
        assert_eq!(f.group_of_row(0), None);
        assert_eq!(f.group_of_row(1).map(|g| &**g), Some("tenant-a/svc-web"));
        assert_eq!(f.group_of_row(2).map(|g| &**g), Some("tenant-a/svc-web"));
        assert_eq!(f.group_of_row(3), None);
        assert_eq!(f.group_table().len(), 1, "paths are interned");
        f.debug_assert_consistent();
        // Clones and equality carry the columns.
        let copy = f.clone();
        assert_eq!(copy, f);
    }

    #[test]
    fn frame_equality_ignores_pool() {
        let pool = FramePool::new();
        let pooled = fill_sample(FrameBuilder::pooled(&pool));
        let plain = fill_sample(FrameBuilder::new());
        assert_eq!(pooled, plain);
        assert_eq!(pooled.clone(), plain, "clones carry every column");
    }
}
