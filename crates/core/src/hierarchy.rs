//! Hierarchical attribution: tenant → service → process, with an
//! auditable conservation ledger.
//!
//! [`Hierarchy`] holds the declared cgroup topology and a per-tick
//! ledger of everything the [`HierarchyAggregator`] emitted. It keeps no
//! membership: which node a pid belongs to is a property of the tick,
//! recorded in the frame's cgroup columns when the host snapshots its
//! counters ([`crate::frame::TickFrame::group_of_pid`], the same lookup
//! the fleet's tenant books use). [`HierarchyAggregator`] folds every
//! power row of a timestamp into *leaf* cells (the node the row's frame
//! names, or the `__ungrouped__` catch-all), then rolls the cells up the
//! tree — each parent is the exact sum of its children, bands widen
//! bottom-up, `Quality` min-folds — and emits one [`AggregateReport`]
//! per node per tick, root (`__root__` = idle floor + everything) last.
//!
//! The energy-conservation law (after arXiv:1907.02805, and mirroring
//! PR 7's `Fleet::conservation()`):
//!
//! 1. **child sums = parent** — bit-exact, for every interior node of
//!    every flush;
//! 2. **leaves + `__ungrouped__` = root − idle** — bit-exact, so no
//!    watt escapes the ledger;
//! 3. **root = machine aggregate** — per timestamp, against the plain
//!    [`crate::aggregator::Aggregator`]'s machine scope, to f64
//!    round-off (the two fold the same stream in different summation
//!    orders).
//!
//! All three keep holding while fault windows degrade `Quality`: the
//! quality floor of the root must equal the machine aggregate's floor.
//! Like the plain aggregator, it flushes a tick when the next timestamp
//! arrives and relies on the [sensor stage's ordering
//! guarantee](crate::sensor) for exactly one flush per tick.

use crate::actor::{Actor, Context};
use crate::frame::PowerBatch;
use crate::msg::{AggregateReport, Message, Quality, Scope};
use crate::telemetry::{EventKind, Telemetry, TraceId};
use parking_lot::Mutex;
use simcpu::units::{Nanos, Watts};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Catch-all leaf for pids outside every declared node: their watts
/// still enter the ledger, so the root stays equal to the machine total.
pub const UNGROUPED: &str = "__ungrouped__";

/// The synthetic root node: idle floor + every top-level node.
pub const ROOT: &str = "__root__";

/// One node's value within one flushed tick.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    const ZERO: NodeCell = NodeCell {
        power_w: 0.0,
        band_w: 0.0,
        quality: None,
        inputs: 0,
    };

    fn absorb(&mut self, other: &NodeCell) {
        self.power_w += other.power_w;
        self.band_w += other.band_w;
        self.quality = match (self.quality, other.quality) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.inputs += other.inputs;
    }

    /// The quality this cell reports (empty nodes report `Full`).
    pub fn quality_or_full(&self) -> Quality {
        self.quality.unwrap_or(Quality::Full)
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
    /// Creates an empty hierarchy. `idle_w` is the machine idle floor
    /// added once at the root (use the same value as the machine
    /// [`crate::aggregator::Aggregator`] so equation 3 can hold).
    pub fn new(idle_w: f64) -> Hierarchy {
        Hierarchy {
            inner: Arc::new(Mutex::new(Inner {
                idle_w,
                ..Inner::default()
            })),
        }
    }

    /// Attaches a telemetry hub: flushes bump
    /// `powerapi_hierarchy_flushes_total` /
    /// `powerapi_hierarchy_reports_total`, and failed conservation
    /// checks are journaled as [`EventKind::HierarchyViolation`].
    pub fn bind_telemetry(&self, telemetry: Telemetry) {
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
            let mut tops = NodeCell::ZERO;
            for (path, cell) in &flush.nodes {
                if &**path == ROOT {
                    continue;
                }
                match parent_in(&flush.nodes, path) {
                    Some(parent) => child_sums
                        .entry(parent)
                        .or_insert(NodeCell::ZERO)
                        .absorb(cell),
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

    /// The interned leaf for a row's cgroup node (`None`: the catch-all),
    /// declaring it on first sight — the aggregator's hot-path helper.
    /// Leaves are interned among the declared nodes so every flush
    /// shares one allocation per path.
    fn leaf_of(&self, node: Option<&str>) -> Arc<str> {
        let path = node.unwrap_or(UNGROUPED);
        let mut inner = self.inner.lock();
        Inner::declare(&mut inner.declared, path);
        inner
            .declared
            .get_key_value(path)
            .map(|(k, _)| k.clone())
            .expect("declared above")
    }

    /// Rolls a finished window up the tree, records it in the ledger,
    /// and returns the path-ordered cells to emit (root last).
    fn record_flush(
        &self,
        ts: Nanos,
        leaves: BTreeMap<Arc<str>, NodeCell>,
    ) -> Vec<(Arc<str>, NodeCell)> {
        let mut inner = self.inner.lock();
        let nodes = rollup(&inner.declared, &leaves, inner.idle_w);
        let mut out: Vec<(Arc<str>, NodeCell)> = nodes
            .iter()
            .filter(|(p, _)| &***p != ROOT)
            .map(|(p, c)| (p.clone(), *c))
            .collect();
        let (root_key, root_cell) = nodes
            .get_key_value(ROOT)
            .expect("rollup always yields a root");
        out.push((root_key.clone(), *root_cell));
        if let Some(t) = &inner.telemetry {
            t.registry()
                .counter("powerapi_hierarchy_flushes_total")
                .inc();
            t.registry()
                .counter("powerapi_hierarchy_reports_total")
                .add(out.len() as u64);
        }
        inner.ledger.push(HierarchyFlush { ts, leaves, nodes });
        out
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
        .map(|p| (p.clone(), NodeCell::ZERO))
        .collect();
    values.entry(Arc::from(UNGROUPED)).or_insert(NodeCell::ZERO);
    for (path, cell) in leaves {
        values
            .entry(path.clone())
            .or_insert(NodeCell::ZERO)
            .absorb(cell);
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
    let mut tops = NodeCell::ZERO;
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

/// The group aggregator: one whole-tree window per timestamp, one report
/// per node per flush (a flat set of VMs is simply a depth-1 tree).
/// Subscribe it to [`crate::msg::Topic::Power`].
#[derive(Debug, Clone)]
pub struct HierarchyAggregator {
    hierarchy: Hierarchy,
    window: Option<Window>,
}

#[derive(Debug, Clone)]
struct Window {
    ts: Nanos,
    leaves: BTreeMap<Arc<str>, NodeCell>,
    trace: TraceId,
}

impl HierarchyAggregator {
    /// Creates the aggregator over a shared hierarchy handle.
    pub fn new(hierarchy: Hierarchy) -> HierarchyAggregator {
        HierarchyAggregator {
            hierarchy,
            window: None,
        }
    }

    /// Folds row `i` of `batch` into the leaf its frame names.
    fn fold(&mut self, batch: &PowerBatch, i: usize, emit: &mut impl FnMut(AggregateReport)) {
        let p = batch.report(i);
        let node = batch
            .frame
            .as_deref()
            .and_then(|f| f.group_of_pid(p.pid, i));
        let leaf = self.hierarchy.leaf_of(node.map(|g| &**g));
        let cell = NodeCell {
            power_w: p.power.as_f64(),
            band_w: p.band_w.as_f64(),
            quality: Some(p.quality),
            inputs: 1,
        };
        let same_tick = self.window.as_ref().is_some_and(|w| w.ts == p.timestamp);
        if same_tick {
            let w = self.window.as_mut().expect("checked above");
            w.leaves.entry(leaf).or_insert(NodeCell::ZERO).absorb(&cell);
            w.trace = w.trace.max(p.trace);
        } else {
            self.flush(emit);
            self.window = Some(Window {
                ts: p.timestamp,
                leaves: BTreeMap::from([(leaf, cell)]),
                trace: p.trace,
            });
        }
    }

    fn flush(&mut self, emit: &mut impl FnMut(AggregateReport)) {
        let Some(w) = self.window.take() else { return };
        for (path, cell) in self.hierarchy.record_flush(w.ts, w.leaves) {
            emit(AggregateReport {
                timestamp: w.ts,
                scope: Scope::Group(path),
                power: Watts(cell.power_w),
                band_w: Watts(cell.band_w),
                quality: cell.quality_or_full(),
                trace: w.trace,
            });
        }
    }
}

impl Actor for HierarchyAggregator {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::PowerBatch(b) = msg else { return };
        let mut reports = Vec::new();
        for i in 0..b.len() {
            self.fold(&b, i, &mut |a| reports.push(a));
        }
        if !reports.is_empty() {
            ctx.bus().publish(Message::aggregates(reports, b.trace));
        }
    }

    fn on_stop(&mut self, ctx: &Context) {
        let mut reports = Vec::new();
        self.flush(&mut |a| reports.push(a));
        if let Some(trace) = reports.last().map(|a| a.trace) {
            ctx.bus().publish(Message::aggregates(reports, trace));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(w: f64, band: f64, q: Quality) -> NodeCell {
        NodeCell {
            power_w: w,
            band_w: band,
            quality: Some(q),
            inputs: 1,
        }
    }

    #[test]
    fn rollup_sums_children_into_parents() {
        let h = Hierarchy::new(30.0);
        h.declare("tenant-a/svc-web");
        h.declare("tenant-a/svc-db");
        h.declare("tenant-b/svc-batch");
        let leaves = BTreeMap::from([
            (
                Arc::<str>::from("tenant-a/svc-web"),
                leaf(4.0, 0.5, Quality::Full),
            ),
            (
                Arc::<str>::from("tenant-a/svc-db"),
                leaf(2.0, 0.25, Quality::Degraded),
            ),
            (Arc::<str>::from(UNGROUPED), leaf(1.0, 0.0, Quality::Full)),
        ]);
        let cells = h.record_flush(Nanos::from_secs(1), leaves);
        let get = |p: &str| cells.iter().find(|(k, _)| &**k == p).map(|(_, c)| *c);

        let a = get("tenant-a").unwrap();
        assert_eq!(a.power_w.to_bits(), 6.0f64.to_bits());
        assert_eq!(a.band_w.to_bits(), 0.75f64.to_bits());
        assert_eq!(a.quality, Some(Quality::Degraded), "min-folded");
        assert_eq!(a.inputs, 2);

        let b = get("tenant-b").unwrap();
        assert_eq!(b.power_w, 0.0, "declared-but-idle node still reported");
        assert_eq!(b.quality, None);

        let root = get(ROOT).unwrap();
        assert_eq!(root.power_w.to_bits(), 37.0f64.to_bits());
        assert_eq!(root.inputs, 3);
        assert_eq!(root.quality, Some(Quality::Degraded));
        assert_eq!(cells.last().unwrap().0.as_ref(), ROOT, "root emitted last");

        h.conservation().expect("ledger conserves");
    }

    #[test]
    fn conservation_detects_tampering() {
        let h = Hierarchy::new(0.0);
        h.declare("t/s");
        let leaves = BTreeMap::from([(Arc::<str>::from("t/s"), leaf(5.0, 0.0, Quality::Full))]);
        h.record_flush(Nanos::from_secs(1), leaves);
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
        use crate::frame::FrameBuilder;
        use os_sim::process::Pid;
        use perf_sim::events::Event;

        // Pid 1 is re-homed between ticks 1 and 2 and leaves its cgroup
        // before tick 3; tick 4's row comes with no frame at all.
        let h = Hierarchy::new(0.0);
        let mut agg = HierarchyAggregator::new(h.clone());
        for (ts, node) in [(1, Some("t/a")), (2, Some("t/b")), (3, None), (4, None)] {
            let mut b = PowerBatch::with_capacity(Nanos::from_secs(ts), "f", TraceId::NONE, 1);
            b.push(Pid(1), Watts(2.0), Watts(0.0), Quality::Full);
            if ts < 4 {
                let mut f = FrameBuilder::new();
                f.push_time_row(Pid(1), Nanos::ZERO, |_| {});
                f.set_time_group(node);
                let no_events: Arc<[Event]> = Arc::from([]);
                b.frame = Some(Arc::new(f.finish(
                    b.timestamp,
                    b.timestamp,
                    no_events,
                    None,
                )));
            }
            agg.fold(&b, 0, &mut |_| {});
        }
        agg.flush(&mut |_| {});

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
}
