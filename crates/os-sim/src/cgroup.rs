//! Hierarchical control groups: tenant → service → process, the §5
//! attribution unit (a flat set of VMs is a depth-1 tree). Nodes are
//! named by slash-separated paths (`tenant-a/svc-web`); each node carries
//! a CFS-style `cpu.shares` value that scales the scheduling weight of
//! every thread below it, so a tenant with twice the shares wins twice
//! the CPU under contention — and therefore twice the attributed power.
//!
//! The tree is deliberately small-surface: it owns the path topology and
//! the pid memberships — the one membership record of the system — and
//! exposes the *weight multiplier* a path implies. The kernel applies
//! that multiplier to the scheduler; the middleware's host stamps each
//! pid's node into the tick frame it snapshots, so attribution and
//! scheduling agree on who owns which watt.

use crate::process::Pid;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The CFS default (`cpu.shares` of an unconfigured cgroup): a node at
/// this value leaves thread weights untouched.
pub const DEFAULT_SHARES: u64 = 1024;

/// The hierarchical pid → node registry.
#[derive(Debug, Clone, Default)]
pub struct CGroupTree {
    /// Declared nodes: full path → shares. Creating `a/b` also creates
    /// `a`, so every ancestor of a declared path is itself declared.
    shares: BTreeMap<Arc<str>, u64>,
    /// Leaf membership: a pid lives at exactly one node.
    membership: BTreeMap<Pid, Arc<str>>,
}

/// Yields `path`'s ancestor prefixes, shallowest first, including the
/// path itself: `a/b/c` → `a`, `a/b`, `a/b/c`.
pub fn ancestors(path: &str) -> impl Iterator<Item = &str> {
    path.char_indices()
        .filter_map(|(i, c)| (c == '/').then_some(&path[..i]))
        .chain(std::iter::once(path))
}

/// The parent path of a node (`a/b/c` → `a/b`; top-level nodes have
/// none).
pub fn parent(path: &str) -> Option<&str> {
    path.rfind('/').map(|i| &path[..i])
}

/// Whether `node` is `path` or below it, per path segment: `tenant-a`
/// holds `tenant-a/svc-web` but not `tenant-ab`.
pub fn is_under(node: &str, path: &str) -> bool {
    node.strip_prefix(path)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

impl CGroupTree {
    /// An empty tree.
    pub fn new() -> CGroupTree {
        CGroupTree::default()
    }

    /// Whether no nodes exist (a host without containers).
    pub fn is_empty(&self) -> bool {
        self.shares.is_empty()
    }

    /// Declares a node (and every missing ancestor at
    /// [`DEFAULT_SHARES`]), then sets its shares. Re-creating an existing
    /// node just updates its shares.
    pub fn create(&mut self, path: &str, shares: u64) {
        for anc in ancestors(path) {
            if !self.shares.contains_key(anc) {
                self.shares.insert(Arc::from(anc), DEFAULT_SHARES);
            }
        }
        self.shares.insert(Arc::from(path), shares.max(1));
    }

    /// Moves a pid to a node, declaring the node if needed. A pid lives
    /// at exactly one node; attaching again re-homes it.
    pub fn attach(&mut self, pid: Pid, path: &str) {
        if !self.shares.contains_key(path) {
            self.create(path, DEFAULT_SHARES);
        }
        let node = self
            .shares
            .get_key_value(path)
            .map(|(k, _)| k.clone())
            .expect("created above");
        self.membership.insert(pid, node);
    }

    /// Forgets a pid (process exit). The node stays declared — an empty
    /// service is still a service, and the aggregate must keep emitting
    /// its (zero-watt) report rather than silently dropping the node.
    pub fn detach(&mut self, pid: Pid) {
        self.membership.remove(&pid);
    }

    /// The node a pid lives at.
    pub fn node_of(&self, pid: Pid) -> Option<&Arc<str>> {
        self.membership.get(&pid)
    }

    /// Shares of a declared node.
    pub fn shares_of(&self, path: &str) -> Option<u64> {
        self.shares.get(path).copied()
    }

    /// Every declared node as `(path, shares)`, path-ordered.
    pub fn nodes(&self) -> impl Iterator<Item = (&Arc<str>, u64)> {
        self.shares.iter().map(|(p, s)| (p, *s))
    }

    /// Every `(pid, node)` membership, pid-ordered.
    pub fn memberships(&self) -> impl Iterator<Item = (Pid, &Arc<str>)> {
        self.membership.iter().map(|(p, n)| (*p, n))
    }

    /// Pids attached at `path` or any node below it.
    pub fn members(&self, path: &str) -> Vec<Pid> {
        self.membership
            .iter()
            .filter(|(_, node)| is_under(node, path))
            .map(|(pid, _)| *pid)
            .collect()
    }

    /// The scheduling-weight multiplier a node's path implies: the
    /// product of `shares / 1024` along every ancestor including the node
    /// itself. All-default paths multiply to exactly `1.0`, so a tree of
    /// unconfigured nodes schedules bit-identically to no tree at all.
    pub fn weight_multiplier(&self, path: &str) -> f64 {
        ancestors(path)
            .map(|anc| self.shares.get(anc).copied().unwrap_or(DEFAULT_SHARES))
            .map(|s| s as f64 / DEFAULT_SHARES as f64)
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ancestors_walk_shallowest_first() {
        let v: Vec<&str> = ancestors("a/b/c").collect();
        assert_eq!(v, vec!["a", "a/b", "a/b/c"]);
        assert_eq!(ancestors("solo").collect::<Vec<_>>(), vec!["solo"]);
    }

    #[test]
    fn parent_strips_last_segment() {
        assert_eq!(parent("a/b/c"), Some("a/b"));
        assert_eq!(parent("a"), None);
    }

    #[test]
    fn create_declares_ancestors() {
        let mut t = CGroupTree::new();
        t.create("tenant-a/svc-web", 2048);
        assert_eq!(t.shares_of("tenant-a"), Some(DEFAULT_SHARES));
        assert_eq!(t.shares_of("tenant-a/svc-web"), Some(2048));
        assert_eq!(t.shares_of("tenant-b"), None);
        assert!(!t.is_empty());
    }

    #[test]
    fn attach_detach_and_members() {
        let mut t = CGroupTree::new();
        t.attach(Pid(1), "tenant-a/svc-web");
        t.attach(Pid(2), "tenant-a/svc-db");
        t.attach(Pid(3), "tenant-b/svc-batch");
        assert_eq!(&**t.node_of(Pid(1)).unwrap(), "tenant-a/svc-web");
        assert_eq!(t.members("tenant-a"), vec![Pid(1), Pid(2)]);
        assert_eq!(t.members("tenant-a/svc-web"), vec![Pid(1)]);
        // Prefix matching is per path segment, not per byte.
        t.attach(Pid(4), "tenant-ab/svc-x");
        assert_eq!(t.members("tenant-a"), vec![Pid(1), Pid(2)]);
        t.detach(Pid(1));
        assert_eq!(t.members("tenant-a"), vec![Pid(2)]);
        assert!(t.node_of(Pid(1)).is_none());
        assert!(
            t.shares_of("tenant-a/svc-web").is_some(),
            "empty nodes stay declared"
        );
    }

    #[test]
    fn reattach_rehomes() {
        let mut t = CGroupTree::new();
        t.attach(Pid(7), "a/x");
        t.attach(Pid(7), "b/y");
        assert_eq!(&**t.node_of(Pid(7)).unwrap(), "b/y");
        assert!(t.members("a").is_empty());
    }

    #[test]
    fn weight_multiplier_composes_along_the_path() {
        let mut t = CGroupTree::new();
        t.create("gold", 2048);
        t.create("gold/web", 512);
        // 2048/1024 × 512/1024 = 2 × 0.5 = 1.
        assert!((t.weight_multiplier("gold/web") - 1.0).abs() < 1e-12);
        assert!((t.weight_multiplier("gold") - 2.0).abs() < 1e-12);
        // Undeclared nodes count as default shares.
        assert_eq!(t.weight_multiplier("gold/api").to_bits(), 2.0f64.to_bits());
        // An all-default path is *exactly* 1.0 — the bit-identical
        // guarantee the legacy scheduler path relies on.
        t.create("plain/svc", DEFAULT_SHARES);
        assert_eq!(t.weight_multiplier("plain/svc").to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn zero_shares_clamp_to_one() {
        let mut t = CGroupTree::new();
        t.create("starved", 0);
        assert_eq!(t.shares_of("starved"), Some(1));
        assert!(t.weight_multiplier("starved") > 0.0);
    }
}
