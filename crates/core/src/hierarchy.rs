//! Hierarchical attribution: tenant → service → process, with an
//! auditable conservation ledger.
//!
//! `LeafCells` is the one attribution fold. It sums a tick's power rows,
//! in row order, into a total and into *leaf* cells: the node each row's
//! frame names ([`crate::frame::TickFrame::group_of_pid`]), or the
//! `__ungrouped__` catch-all. The host's
//! [`crate::aggregator::Aggregator`] reads its machine aggregate off the
//! total and, with a [`Hierarchy`] attached, hands each closed window's
//! leaves to it; the fleet shard keeps one per host as its tenant books.
//!
//! [`Hierarchy`] holds the declared cgroup topology and a per-tick
//! ledger of every flush. It keeps no membership: which node a pid
//! belongs to is a property of the tick, recorded in the frame's cgroup
//! columns when the host snapshots its counters. A flush rolls the leaf
//! cells up the tree — each parent is the exact sum of its children,
//! bands widen bottom-up, `Quality` min-folds — into one
//! [`AggregateReport`] per node per tick, root (`__root__` = idle floor +
//! everything) last.
//!
//! The energy-conservation law (after arXiv:1907.02805, and mirroring
//! `Fleet::conservation()`):
//!
//! 1. **child sums = parent** — bit-exact, for every interior node of
//!    every flush;
//! 2. **leaves + `__ungrouped__` = root − idle** — bit-exact, so no
//!    watt escapes the ledger;
//! 3. **root = machine aggregate** — per timestamp, against the machine
//!    scope the same aggregator emitted, to f64 round-off (the total
//!    sums rows in row order, the root sums the tree in path order).
//!
//! All three keep holding while fault windows degrade `Quality`: the
//! quality floor of the root must equal the machine aggregate's floor.

use crate::frame::{PowerBatch, TickFrame, NO_ROW};
use crate::msg::{AggregateReport, Quality, Scope};
use crate::telemetry::{EventKind, Telemetry, TraceId};
use os_sim::cgroup::is_under;
use parking_lot::Mutex;
use simcpu::units::{Nanos, Watts};
use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

/// Catch-all leaf for pids outside every declared node: their watts
/// still enter the ledger, so the root stays equal to the machine total.
pub const UNGROUPED: &str = "__ungrouped__";

/// The synthetic root node: idle floor + every top-level node.
pub const ROOT: &str = "__root__";

/// One node's value within one flushed tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeCell {
    /// Attributed power (W). For the root this includes the idle floor.
    pub power_w: f64,
    /// Uncertainty band (W), summed bottom-up.
    pub band_w: f64,
    /// Worst quality folded into this node (`None` until any input).
    pub quality: Option<Quality>,
    /// Number of `PowerReport`s folded into this subtree this flush.
    pub inputs: u32,
}

impl NodeCell {
    fn absorb(&mut self, other: &NodeCell) {
        self.power_w += other.power_w;
        self.band_w += other.band_w;
        self.quality = match (self.quality, other.quality) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.inputs += other.inputs;
    }

    /// Row `i` of `batch` as a one-input cell.
    fn row(batch: &PowerBatch, i: usize) -> NodeCell {
        NodeCell {
            power_w: batch.watts[i].as_f64(),
            band_w: batch.band_w[i].as_f64(),
            quality: Some(batch.quality[i]),
            inputs: 1,
        }
    }

    /// The quality this cell reports (empty nodes report `Full`).
    pub fn quality_or_full(&self) -> Quality {
        self.quality.unwrap_or(Quality::Full)
    }
}

/// The attribution fold: power rows summed, in row order, into a total
/// and into the leaf each row's frame names. It accumulates until
/// [`LeafCells::clear`], so the batches of one tick (the formula's and
/// the self-profiling one) fold into one set of cells, and a warm fold
/// reuses its buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeafCells {
    total: NodeCell,
    /// Leaf paths and cells, in the order rows first reached them.
    leaves: Vec<(Arc<str>, NodeCell)>,
    /// The batch being folded: its frame's `group_table` slot → index
    /// into `leaves` ([`NO_ROW`]: not reached yet); the last entry is
    /// the catch-all.
    slots: Vec<u32>,
}

/// The catch-all leaf's path, shared by every fold.
static UNGROUPED_LEAF: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from(UNGROUPED));

impl LeafCells {
    /// Empties the cells, keeping their buffers.
    pub fn clear(&mut self) {
        self.total = NodeCell::default();
        self.leaves.clear();
    }

    /// Adds every row of `batch` to the total only.
    pub fn fold_total(&mut self, batch: &PowerBatch) {
        for i in 0..batch.len() {
            self.total.absorb(&NodeCell::row(batch, i));
        }
    }

    /// Adds every row of `batch` to the total and to the leaf `frame`'s
    /// group column names for it (rows it names no node for, and every
    /// row without a frame, go to `__ungrouped__`). Leaves are indexed
    /// by the frame's group slot; a slot is matched by path only against
    /// the leaves earlier batches opened.
    pub fn fold(&mut self, batch: &PowerBatch, frame: Option<&TickFrame>) {
        let (table, groups) =
            frame.map_or((&[][..], &[][..]), |f| (f.group_table(), f.group_indices()));
        let opened = self.leaves.len();
        self.slots.clear();
        self.slots.resize(table.len() + 1, NO_ROW);
        for i in 0..batch.len() {
            let cell = NodeCell::row(batch, i);
            self.total.absorb(&cell);
            // Estimates come back in row order, minus the rows the
            // formula could not estimate, so row `i` is the first guess
            // for the estimate's time row.
            let slot = frame
                .and_then(|f| f.time_row(batch.pids[i], i))
                .and_then(|row| groups.get(row))
                .filter(|&&g| g != NO_ROW)
                .map_or(table.len(), |&g| g as usize);
            if self.slots[slot] == NO_ROW {
                let path = table.get(slot).unwrap_or(&UNGROUPED_LEAF);
                let earlier = self.leaves[..opened].iter().position(|(p, _)| p == path);
                let leaf = earlier.unwrap_or_else(|| {
                    self.leaves.push((path.clone(), NodeCell::default()));
                    self.leaves.len() - 1
                });
                self.slots[slot] = leaf as u32;
            }
            self.leaves[self.slots[slot] as usize].1.absorb(&cell);
        }
    }

    /// The sum of every row folded.
    pub fn total(&self) -> NodeCell {
        self.total
    }

    /// Every leaf reached, in the order rows first reached it.
    pub fn leaves(&self) -> impl Iterator<Item = &(Arc<str>, NodeCell)> {
        self.leaves.iter()
    }

    /// The sum of every leaf at or under `path`, in leaf order; `None`
    /// when no leaf is under it.
    pub fn under(&self, path: &str) -> Option<NodeCell> {
        let mut under = self
            .leaves
            .iter()
            .filter(|(leaf, _)| is_under(leaf, path))
            .peekable();
        under.peek()?;
        Some(under.fold(NodeCell::default(), |mut sum, (_, cell)| {
            sum.absorb(cell);
            sum
        }))
    }
}

/// One flushed tick in the ledger.
#[derive(Debug, Clone)]
pub struct HierarchyFlush {
    /// The tick timestamp.
    pub ts: Nanos,
    /// Leaf accumulation exactly as folded (node path → cell).
    pub leaves: BTreeMap<Arc<str>, NodeCell>,
    /// What was emitted: every declared node + `__ungrouped__` +
    /// `__root__`, path-keyed.
    pub nodes: BTreeMap<Arc<str>, NodeCell>,
}

#[derive(Debug, Default)]
struct Inner {
    /// The idle floor the aggregator flushes with, added once at the
    /// root.
    idle_w: f64,
    /// Declared nodes (ancestors always included).
    declared: BTreeMap<Arc<str>, ()>,
    ledger: Vec<HierarchyFlush>,
    telemetry: Option<Telemetry>,
}

/// Shared handle on the attribution hierarchy: the declared topology and
/// the conservation ledger. Clones observe the same state — hand one
/// clone to the builder and keep one for queries.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    inner: Arc<Mutex<Inner>>,
}

impl Hierarchy {
    /// Creates an empty hierarchy. Its root adds the idle floor of the
    /// aggregator it is attached to.
    pub fn new() -> Hierarchy {
        Hierarchy::default()
    }

    /// Attaches a telemetry hub: flushes bump
    /// `powerapi_hierarchy_flushes_total` /
    /// `powerapi_hierarchy_reports_total`, and failed conservation
    /// checks are journaled as [`EventKind::HierarchyViolation`].
    pub(crate) fn bind_telemetry(&self, telemetry: Telemetry) {
        self.inner.lock().telemetry = Some(telemetry);
    }

    /// Declares a node and all of its missing ancestors. A declared node
    /// reports every tick, with members or without; a node a frame names
    /// is declared when the first row under it is folded.
    pub fn declare(&self, path: &str) {
        let mut inner = self.inner.lock();
        Inner::declare(&mut inner.declared, path);
    }

    /// Number of flushed ticks in the ledger.
    pub fn ticks(&self) -> usize {
        self.inner.lock().ledger.len()
    }

    /// A copy of the ledger (tests and post-mortems).
    pub fn ledger(&self) -> Vec<HierarchyFlush> {
        self.inner.lock().ledger.clone()
    }

    /// Proves the internal conservation equations over the whole ledger:
    /// every interior node is the bit-exact sum of its children, and
    /// root − idle is the bit-exact sum of the top-level nodes (so
    /// leaves + `__ungrouped__` account for every watt). Mirrors
    /// `Fleet::conservation()`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated equation.
    pub fn conservation(&self) -> Result<(), String> {
        let inner = self.inner.lock();
        for (i, flush) in inner.ledger.iter().enumerate() {
            // Recompute the roll-up from the recorded leaves and demand
            // the emitted cells match bit-for-bit: any stale window,
            // dropped node or double count diverges here. The emitted
            // node set IS the declared topology at flush time (container
            // churn grows `declared` later; old flushes must replay
            // against the tree they were rolled up under).
            let declared: BTreeMap<Arc<str>, ()> = flush
                .nodes
                .keys()
                .filter(|p| &***p != ROOT)
                .map(|p| (p.clone(), ()))
                .collect();
            let expect = rollup(&declared, &flush.leaves, inner.idle_w);
            if expect.len() != flush.nodes.len() {
                return inner.violation(format!(
                    "flush {i} (ts {:?}): emitted {} nodes, roll-up expects {}",
                    flush.ts,
                    flush.nodes.len(),
                    expect.len()
                ));
            }
            for (path, cell) in &flush.nodes {
                let Some(want) = expect.get(path) else {
                    return inner.violation(format!(
                        "flush {i} (ts {:?}): unexpected node {path}",
                        flush.ts
                    ));
                };
                if cell.power_w.to_bits() != want.power_w.to_bits()
                    || cell.band_w.to_bits() != want.band_w.to_bits()
                    || cell.quality != want.quality
                    || cell.inputs != want.inputs
                {
                    return inner.violation(format!(
                        "flush {i} (ts {:?}): node {path} emitted {:?}, roll-up says {:?}",
                        flush.ts, cell, want
                    ));
                }
            }
            // Structural child-sum check on the emitted numbers
            // themselves (summing children in path order, the same order
            // the roll-up uses).
            let mut child_sums: BTreeMap<&Arc<str>, NodeCell> = BTreeMap::new();
            let mut tops = NodeCell::default();
            for (path, cell) in &flush.nodes {
                if &**path == ROOT {
                    continue;
                }
                match parent_in(&flush.nodes, path) {
                    Some(parent) => child_sums.entry(parent).or_default().absorb(cell),
                    None => tops.absorb(cell),
                }
            }
            for (parent, sum) in child_sums {
                let cell = &flush.nodes[parent];
                if cell.power_w.to_bits() != sum.power_w.to_bits()
                    || cell.band_w.to_bits() != sum.band_w.to_bits()
                {
                    return inner.violation(format!(
                        "flush {i} (ts {:?}): node {parent} = {} W but its children sum to {} W",
                        flush.ts, cell.power_w, sum.power_w
                    ));
                }
            }
            let root = &flush.nodes[ROOT];
            if root.power_w.to_bits() != (inner.idle_w + tops.power_w).to_bits() {
                return inner.violation(format!(
                    "flush {i} (ts {:?}): root = {} W but idle + top-level nodes = {} W",
                    flush.ts,
                    root.power_w,
                    inner.idle_w + tops.power_w
                ));
            }
        }
        Ok(())
    }

    /// Proves equation 3: per timestamp, the root flushes agree with the
    /// machine-scope aggregates in the same report stream — total power
    /// above idle (to f64 round-off: the summation orders differ),
    /// flush count, and worst quality.
    ///
    /// # Errors
    ///
    /// A description of the first timestamp that disagrees.
    pub fn reconcile(&self, reports: &[AggregateReport]) -> Result<(), String> {
        let inner = self.inner.lock();
        let idle = inner.idle_w;
        // A tick can legitimately split into several windows when faults
        // reorder the stream — both aggregators split identically, so
        // compare per-timestamp totals and counts.
        let mut machine: BTreeMap<Nanos, (f64, usize, Quality)> = BTreeMap::new();
        for r in reports {
            if r.scope == Scope::Machine {
                let e = machine
                    .entry(r.timestamp)
                    .or_insert((0.0, 0, Quality::Full));
                e.0 += r.power.as_f64() - idle;
                e.1 += 1;
                e.2 = e.2.min(r.quality);
            }
        }
        let mut root: BTreeMap<Nanos, (f64, usize, Quality)> = BTreeMap::new();
        for flush in &inner.ledger {
            let cell = &flush.nodes[ROOT];
            let e = root.entry(flush.ts).or_insert((0.0, 0, Quality::Full));
            e.0 += cell.power_w - idle;
            e.1 += 1;
            e.2 = e.2.min(cell.quality_or_full());
        }
        if machine.len() != root.len() {
            return inner.violation(format!(
                "machine aggregates cover {} timestamps, hierarchy covers {}",
                machine.len(),
                root.len()
            ));
        }
        for ((mts, m), (rts, r)) in machine.iter().zip(&root) {
            if mts != rts {
                return inner.violation(format!("timestamp mismatch: {mts:?} vs {rts:?}"));
            }
            let tol = 1e-9 * m.0.abs().max(1.0);
            if (m.0 - r.0).abs() > tol {
                return inner.violation(format!(
                    "ts {:?}: machine {} W above idle, hierarchy root {} W (Δ {:e})",
                    mts,
                    m.0,
                    r.0,
                    (m.0 - r.0).abs()
                ));
            }
            if m.1 != r.1 {
                return inner.violation(format!(
                    "ts {mts:?}: machine flushed {} windows, hierarchy {}",
                    m.1, r.1
                ));
            }
            if m.2 != r.2 {
                return inner.violation(format!(
                    "ts {:?}: machine quality floor {}, hierarchy {}",
                    mts,
                    m.2.label(),
                    r.2.label()
                ));
            }
        }
        Ok(())
    }

    /// Panics (with the violated equation) unless both
    /// [`Hierarchy::conservation`] and [`Hierarchy::reconcile`] hold.
    pub fn assert_conserved(&self, reports: &[AggregateReport]) {
        if let Err(e) = self.conservation() {
            panic!("hierarchy conservation violated: {e}");
        }
        if let Err(e) = self.reconcile(reports) {
            panic!("hierarchy/machine reconciliation failed: {e}");
        }
    }

    /// Declares the nodes `cells` names, rolls the cells up the tree
    /// over `idle_w`, records the flush in the ledger, and emits one
    /// report per node, path-ordered, root last.
    pub(crate) fn record_flush(
        &self,
        ts: Nanos,
        trace: TraceId,
        idle_w: f64,
        cells: &LeafCells,
        mut emit: impl FnMut(AggregateReport),
    ) {
        let mut inner = self.inner.lock();
        inner.idle_w = idle_w;
        // Leaves are interned among the declared nodes, so every flush
        // shares one allocation per path.
        let mut leaves = BTreeMap::new();
        for (path, cell) in cells.leaves() {
            Inner::declare(&mut inner.declared, path);
            let (leaf, _) = inner.declared.get_key_value(&**path).expect("declared");
            leaves.insert(leaf.clone(), *cell);
        }
        let nodes = rollup(&inner.declared, &leaves, idle_w);
        let root = nodes
            .get_key_value(ROOT)
            .expect("rollup always yields a root");
        let emitted = nodes.iter().filter(|(p, _)| &***p != ROOT).chain([root]);
        for (path, cell) in emitted {
            emit(AggregateReport {
                timestamp: ts,
                scope: Scope::Group(path.clone()),
                power: Watts(cell.power_w),
                band_w: Watts(cell.band_w),
                quality: cell.quality_or_full(),
                trace,
            });
        }
        if let Some(t) = &inner.telemetry {
            t.registry()
                .counter("powerapi_hierarchy_flushes_total")
                .inc();
            t.registry()
                .counter("powerapi_hierarchy_reports_total")
                .add(nodes.len() as u64);
        }
        inner.ledger.push(HierarchyFlush { ts, leaves, nodes });
    }
}

impl Inner {
    fn declare(declared: &mut BTreeMap<Arc<str>, ()>, path: &str) {
        for anc in os_sim::cgroup::ancestors(path) {
            if !declared.contains_key(anc) {
                declared.insert(Arc::from(anc), ());
            }
        }
    }

    /// Journals + returns a conservation violation.
    fn violation(&self, msg: String) -> Result<(), String> {
        if let Some(t) = &self.telemetry {
            t.journal().emit(
                EventKind::HierarchyViolation,
                "hierarchy",
                &*msg,
                TraceId::NONE,
            );
        }
        Err(msg)
    }
}

/// The parent of `path` among `nodes` (top-level paths and the
/// catch-all have none).
fn parent_in<'a, V>(nodes: &'a BTreeMap<Arc<str>, V>, path: &str) -> Option<&'a Arc<str>> {
    os_sim::cgroup::parent(path).and_then(|p| nodes.get_key_value(p).map(|(k, _)| k))
}

/// The pure roll-up: declared topology + leaf cells → one cell per node
/// (every declared node, `__ungrouped__`, and `__root__`). Children are
/// summed into parents in path order, deepest paths first, so the same
/// function re-run over the same leaves reproduces the emitted numbers
/// bit-for-bit.
fn rollup(
    declared: &BTreeMap<Arc<str>, ()>,
    leaves: &BTreeMap<Arc<str>, NodeCell>,
    idle_w: f64,
) -> BTreeMap<Arc<str>, NodeCell> {
    let mut values: BTreeMap<Arc<str>, NodeCell> = declared
        .keys()
        .map(|p| (p.clone(), NodeCell::default()))
        .collect();
    values.entry(Arc::from(UNGROUPED)).or_default();
    for (path, cell) in leaves {
        values.entry(path.clone()).or_default().absorb(cell);
    }
    // Children before parents: a child path always sorts after its
    // parent (it extends it), so walk the map backwards.
    let paths: Vec<Arc<str>> = values.keys().cloned().collect();
    for path in paths.iter().rev() {
        let Some(parent) = parent_in(&values, path).cloned() else {
            continue;
        };
        let cell = values[path];
        values
            .get_mut(&parent)
            .expect("ancestors declared")
            .absorb(&cell);
    }
    // Root: idle floor + every top-level node, summed in path order.
    // Built as `idle + Σ tops` (never re-associated) so the conservation
    // check can reproduce the exact bits.
    let mut tops = NodeCell::default();
    for (path, cell) in &values {
        if parent_in(&values, path).is_none() {
            tops.absorb(cell);
        }
    }
    values.insert(
        Arc::from(ROOT),
        NodeCell {
            power_w: idle_w + tops.power_w,
            band_w: tops.band_w,
            quality: tops.quality,
            inputs: tops.inputs,
        },
    );
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuilder;
    use os_sim::process::Pid;

    /// One tick's batch over a frame whose group column names each row's
    /// node: `(pid, node, watts, band, quality)` rows.
    fn batch(ts: u64, rows: &[(u32, Option<&str>, f64, f64, Quality)]) -> PowerBatch {
        let at = Nanos::from_secs(ts);
        let mut b = PowerBatch::with_capacity(at, "f", TraceId(ts), rows.len());
        let mut f = FrameBuilder::new();
        for &(pid, node, w, band, q) in rows {
            f.push_time_row(Pid(pid), Nanos::ZERO, |_| {});
            f.set_time_group(node);
            b.push(Pid(pid), Watts(w), Watts(band), q);
        }
        b.frame = Some(Arc::new(f.finish(at, at, Arc::from([]), None)));
        b
    }

    /// Folds `b` alone and flushes it into `h` over `idle_w`.
    fn flush(h: &Hierarchy, idle_w: f64, b: &PowerBatch) -> Vec<AggregateReport> {
        let mut cells = LeafCells::default();
        cells.fold(b, b.frame.as_deref());
        let mut out = Vec::new();
        h.record_flush(b.timestamp, b.trace, idle_w, &cells, |r| out.push(r));
        out
    }

    #[test]
    fn rollup_sums_children_into_parents() {
        let h = Hierarchy::new();
        h.declare("tenant-a/svc-web");
        h.declare("tenant-a/svc-db");
        h.declare("tenant-b/svc-batch");
        let b = batch(
            1,
            &[
                (1, Some("tenant-a/svc-web"), 4.0, 0.5, Quality::Full),
                (2, Some("tenant-a/svc-db"), 2.0, 0.25, Quality::Degraded),
                (3, None, 1.0, 0.0, Quality::Full),
            ],
        );
        let reports = flush(&h, 30.0, &b);
        let ledger = h.ledger();
        let get = |p: &str| ledger[0].nodes[p];

        let a = get("tenant-a");
        assert_eq!(a.power_w.to_bits(), 6.0f64.to_bits());
        assert_eq!(a.band_w.to_bits(), 0.75f64.to_bits());
        assert_eq!(a.quality, Some(Quality::Degraded), "min-folded");
        assert_eq!(a.inputs, 2);

        let b = get("tenant-b");
        assert_eq!(b.power_w, 0.0, "declared-but-idle node still reported");
        assert_eq!(b.quality, None);

        let root = get(ROOT);
        assert_eq!(root.power_w.to_bits(), 37.0f64.to_bits());
        assert_eq!(root.inputs, 3);
        assert_eq!(root.quality, Some(Quality::Degraded));
        assert_eq!(reports.len(), ledger[0].nodes.len(), "one report per node");
        let last = &reports.last().unwrap().scope;
        assert_eq!(*last, Scope::Group(Arc::from(ROOT)), "root emitted last");

        h.conservation().expect("ledger conserves");
    }

    #[test]
    fn conservation_detects_tampering() {
        let h = Hierarchy::new();
        flush(
            &h,
            0.0,
            &batch(1, &[(1, Some("t/s"), 5.0, 0.0, Quality::Full)]),
        );
        h.conservation().expect("clean ledger");
        // Corrupt the emitted parent cell and the check must name it.
        {
            let mut inner = h.inner.lock();
            let flush = inner.ledger.last_mut().unwrap();
            flush.nodes.get_mut("t").unwrap().power_w += 1.0;
        }
        let err = h.conservation().expect_err("tampered ledger");
        assert!(err.contains("node t"), "{err}");
    }

    #[test]
    fn membership_is_read_from_each_frame() {
        // Pid 1 is re-homed between ticks 1 and 2 and leaves its cgroup
        // before tick 3; tick 4's row comes with no frame at all.
        let h = Hierarchy::new();
        let mut cells = LeafCells::default();
        for (ts, node) in [(1, Some("t/a")), (2, Some("t/b")), (3, None), (4, None)] {
            let mut b = batch(ts, &[(1, node, 2.0, 0.0, Quality::Full)]);
            if ts == 4 {
                b.frame = None;
            }
            cells.clear();
            cells.fold(&b, b.frame.as_deref());
            h.record_flush(b.timestamp, b.trace, 0.0, &cells, |_| {});
        }

        let ledger = h.ledger();
        let leaves = |i: usize| -> Vec<&str> { ledger[i].leaves.keys().map(|k| &**k).collect() };
        assert_eq!(leaves(0), ["t/a"]);
        assert_eq!(leaves(1), ["t/b"], "each tick's frame names the leaf");
        assert_eq!(leaves(2), [UNGROUPED]);
        assert_eq!(leaves(3), [UNGROUPED]);
        // A node stays declared once a frame named it.
        let last: Vec<&str> = ledger[3].nodes.keys().map(|k| &**k).collect();
        assert_eq!(last, ["__root__", "__ungrouped__", "t", "t/a", "t/b"]);
        h.conservation().expect("ledger conserves");
    }

    #[test]
    fn the_batches_of_one_tick_fold_into_one_set_of_cells() {
        let full = Quality::Full;
        // The self-profiling row (no frame), then two frames whose group
        // tables list the same leaves in different slots.
        let mut own = batch(1, &[(0, None, 0.5, 0.0, full)]);
        own.frame = None;
        let first = batch(
            1,
            &[
                (1, Some("t/a"), 1.1, 0.1, full),
                (2, None, 2.2, 0.2, Quality::Degraded),
                (3, Some("t/b"), 3.3, 0.3, full),
                (4, Some("t/a"), 4.4, 0.4, full),
            ],
        );
        let second = batch(
            1,
            &[
                (5, Some("t/b"), 5.5, 0.5, full),
                (6, Some("t/a"), 6.6, 0.6, full),
            ],
        );
        let mut cells = LeafCells::default();
        for b in [&own, &first, &second] {
            cells.fold(b, b.frame.as_deref());
        }

        let sum = |ws: &[f64]| ws.iter().fold(0.0, |acc, w| acc + w).to_bits();
        let leaf = |p: &str| cells.under(p).map(|c| (c.power_w.to_bits(), c.inputs));
        let order: Vec<&str> = cells.leaves().map(|(p, _)| &**p).collect();
        assert_eq!(order, [UNGROUPED, "t/a", "t/b"], "first-reached order");
        assert_eq!(leaf(UNGROUPED), Some((sum(&[0.5, 2.2]), 2)));
        assert_eq!(leaf("t/a"), Some((sum(&[1.1, 4.4, 6.6]), 3)));
        assert_eq!(leaf("t/b"), Some((sum(&[3.3, 5.5]), 2)));
        let a_then_b = sum(&[sum(&[1.1, 4.4, 6.6]), sum(&[3.3, 5.5])].map(f64::from_bits));
        assert_eq!(leaf("t"), Some((a_then_b, 5)), "the subtree in leaf order");
        assert_eq!(leaf("t/"), None, "segment-aware");
        let total = cells.total();
        let rows = [0.5, 1.1, 2.2, 3.3, 4.4, 5.5, 6.6];
        assert_eq!(
            total.power_w.to_bits(),
            sum(&rows),
            "every row, in row order"
        );
        assert_eq!((total.quality, total.inputs), (Some(Quality::Degraded), 7));

        // The total alone folds the same rows without touching a leaf.
        let mut totals = LeafCells::default();
        for b in [&own, &first, &second] {
            totals.fold_total(b);
        }
        assert_eq!(totals.total(), total);
        assert_eq!(totals.leaves().count(), 0);
        cells.clear();
        assert_eq!(
            (cells.total(), cells.leaves().count()),
            (NodeCell::default(), 0)
        );
    }
}
