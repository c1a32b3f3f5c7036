//! The network-layer fault model: a deterministic, seeded plan that
//! extends PR 2's host fault taxonomy ([`simcpu::fault::FaultPlan`]) to
//! fleet links.
//!
//! Two mechanisms, both pure functions of the plan (no shared RNG state
//! between senders, links and shards, so replaying any subset of the
//! fleet reproduces the same decisions):
//!
//! * **windows** — partition and host-dark intervals placed once by a
//!   seeded RNG at plan generation, active purely as a function of the
//!   fleet tick (the same discipline as `FaultPlan::generate`);
//! * **per-frame decisions** — drop / duplicate / corrupt / reorder are
//!   Bernoulli draws keyed by a `splitmix64` hash of
//!   `(seed, host, seq, attempt, salt)`, so retransmits of the same
//!   frame reroll their fate while replays do not.

use super::envelope::HostId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The salt domain separating each per-frame decision.
const SALT_DROP: u64 = 1;
const SALT_DUP: u64 = 2;
const SALT_CORRUPT: u64 = 3;
const SALT_REORDER: u64 = 4;

/// Everything that can go wrong on a fleet link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkFaultKind {
    /// A frame vanishes in flight.
    Drop,
    /// A frame is delivered twice.
    Duplicate,
    /// A frame is delayed past later frames.
    Reorder,
    /// One payload bit is flipped in flight (always detected by the
    /// `wire_sum` trailer).
    Corrupt,
    /// A window during which a host range exchanges nothing with the
    /// estimator (both directions, acks included).
    Partition,
    /// A window during which one host produces but transmits nothing
    /// (sender-side outage: frames are lost before the link).
    HostDark,
}

impl LinkFaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [LinkFaultKind; 6] = [
        LinkFaultKind::Drop,
        LinkFaultKind::Duplicate,
        LinkFaultKind::Reorder,
        LinkFaultKind::Corrupt,
        LinkFaultKind::Partition,
        LinkFaultKind::HostDark,
    ];

    /// Stable kebab-case label (journal subjects, reports).
    pub fn label(self) -> &'static str {
        match self {
            LinkFaultKind::Drop => "drop",
            LinkFaultKind::Duplicate => "duplicate",
            LinkFaultKind::Reorder => "reorder",
            LinkFaultKind::Corrupt => "corrupt",
            LinkFaultKind::Partition => "partition",
            LinkFaultKind::HostDark => "host-dark",
        }
    }
}

impl std::fmt::Display for LinkFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A windowed fault over a host range. Ticks are half-open
/// `[start, end)`; hosts are half-open `[host_lo, host_hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkWindow {
    /// What happens during the window.
    pub kind: LinkFaultKind,
    /// First affected fleet tick.
    pub start: u64,
    /// First tick after the window.
    pub end: u64,
    /// First affected host.
    pub host_lo: u32,
    /// First host above the range.
    pub host_hi: u32,
}

impl LinkWindow {
    /// Whether the window covers a (tick, host) pair.
    pub fn covers(&self, tick: u64, host: HostId) -> bool {
        tick >= self.start && tick < self.end && host.0 >= self.host_lo && host.0 < self.host_hi
    }
}

/// Knobs for [`LinkFaultPlan::generate`]. Rates are per-transmission
/// probabilities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultConfig {
    /// Probability a transmission is lost in flight.
    pub drop_rate: f64,
    /// Probability a transmission is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a transmission is delayed extra ticks.
    pub reorder_rate: f64,
    /// Maximum extra delay a reordered frame picks up, in ticks.
    pub reorder_max_ticks: u64,
    /// Probability a transmission's payload is corrupted.
    pub corrupt_rate: f64,
    /// Number of partition windows to place.
    pub partitions: usize,
    /// Length of each partition window, in ticks.
    pub partition_ticks: u64,
    /// Hosts covered by each partition window.
    pub partition_hosts: u32,
    /// Number of single-host dark windows to place.
    pub dark_windows: usize,
    /// Length of each dark window, in ticks.
    pub dark_ticks: u64,
}

impl Default for LinkFaultConfig {
    fn default() -> LinkFaultConfig {
        LinkFaultConfig {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_max_ticks: 3,
            corrupt_rate: 0.0,
            partitions: 0,
            partition_ticks: 10,
            partition_hosts: 8,
            dark_windows: 0,
            dark_ticks: 5,
        }
    }
}

/// A fully determined network fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultPlan {
    seed: u64,
    drop_rate: f64,
    duplicate_rate: f64,
    reorder_rate: f64,
    reorder_max_ticks: u64,
    corrupt_rate: f64,
    windows: Vec<LinkWindow>,
}

impl LinkFaultPlan {
    /// A plan that injects nothing (the clean arm).
    pub fn none() -> LinkFaultPlan {
        LinkFaultPlan {
            seed: 0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_max_ticks: 0,
            corrupt_rate: 0.0,
            windows: Vec::new(),
        }
    }

    /// Generates a plan for a fleet of `hosts` over `ticks` fleet ticks.
    /// Window placement is drawn once from a seeded RNG; the per-frame
    /// rates are carried verbatim and resolved by hashing at decision
    /// time, so generation cost does not scale with traffic.
    pub fn generate(seed: u64, hosts: u32, ticks: u64, cfg: &LinkFaultConfig) -> LinkFaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11AC_F417_0F1E_E75Au64);
        let mut windows = Vec::new();
        let place = |rng: &mut StdRng, len: u64| -> (u64, u64) {
            let len = len.clamp(1, ticks.max(1));
            let latest = ticks.saturating_sub(len).max(1);
            let start = rng.gen_range(1..=latest);
            (start, start + len)
        };
        for _ in 0..cfg.partitions {
            let (start, end) = place(&mut rng, cfg.partition_ticks);
            let span = cfg.partition_hosts.clamp(1, hosts.max(1));
            let lo = rng.gen_range(0..=u64::from(hosts.saturating_sub(span))) as u32;
            windows.push(LinkWindow {
                kind: LinkFaultKind::Partition,
                start,
                end,
                host_lo: lo,
                host_hi: lo + span,
            });
        }
        for _ in 0..cfg.dark_windows {
            let (start, end) = place(&mut rng, cfg.dark_ticks);
            let host = rng.gen_range(0..u64::from(hosts.max(1))) as u32;
            windows.push(LinkWindow {
                kind: LinkFaultKind::HostDark,
                start,
                end,
                host_lo: host,
                host_hi: host + 1,
            });
        }
        windows.sort_by_key(|w| (w.start, w.host_lo));
        LinkFaultPlan {
            seed,
            drop_rate: cfg.drop_rate,
            duplicate_rate: cfg.duplicate_rate,
            reorder_rate: cfg.reorder_rate,
            reorder_max_ticks: cfg.reorder_max_ticks,
            corrupt_rate: cfg.corrupt_rate,
            windows,
        }
    }

    /// Builds a plan from explicit windows plus the config's rates
    /// (tests and scripted scenarios; mirrors `FaultPlan::from_windows`).
    pub fn from_parts(
        seed: u64,
        cfg: &LinkFaultConfig,
        mut windows: Vec<LinkWindow>,
    ) -> LinkFaultPlan {
        windows.sort_by_key(|w| (w.start, w.host_lo));
        LinkFaultPlan {
            seed,
            drop_rate: cfg.drop_rate,
            duplicate_rate: cfg.duplicate_rate,
            reorder_rate: cfg.reorder_rate,
            reorder_max_ticks: cfg.reorder_max_ticks,
            corrupt_rate: cfg.corrupt_rate,
            windows,
        }
    }

    /// The placed windows, sorted by start tick.
    pub fn windows(&self) -> &[LinkWindow] {
        &self.windows
    }

    /// A stateless 64-bit hash keyed to this plan, a frame identity and
    /// a salt — the source of every per-frame decision (links also use
    /// it for deterministic jitter).
    pub fn hash(&self, host: HostId, seq: u64, attempt: u32, salt: u64) -> u64 {
        let mut x = self.seed;
        for v in [u64::from(host.0), seq, u64::from(attempt), salt] {
            x = splitmix64(x ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        x
    }

    fn chance(&self, rate: f64, host: HostId, seq: u64, attempt: u32, salt: u64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let h = self.hash(host, seq, attempt, salt) >> 11;
        (h as f64) * (1.0 / (1u64 << 53) as f64) < rate
    }

    /// Whether this transmission is lost in flight.
    pub fn drops(&self, host: HostId, seq: u64, attempt: u32) -> bool {
        self.chance(self.drop_rate, host, seq, attempt, SALT_DROP)
    }

    /// Whether this transmission is delivered twice.
    pub fn duplicates(&self, host: HostId, seq: u64, attempt: u32) -> bool {
        self.chance(self.duplicate_rate, host, seq, attempt, SALT_DUP)
    }

    /// Whether this transmission's payload is corrupted in flight.
    pub fn corrupts(&self, host: HostId, seq: u64, attempt: u32) -> bool {
        self.chance(self.corrupt_rate, host, seq, attempt, SALT_CORRUPT)
    }

    /// Extra delivery delay (ticks) this transmission picks up from
    /// reordering; 0 for the common case.
    pub fn reorder_ticks(&self, host: HostId, seq: u64, attempt: u32) -> u64 {
        if self.reorder_max_ticks == 0
            || !self.chance(self.reorder_rate, host, seq, attempt, SALT_REORDER)
        {
            return 0;
        }
        1 + self.hash(host, seq, attempt, SALT_REORDER ^ 0xFF) % self.reorder_max_ticks
    }

    /// Whether a host sits inside a partition window at a tick.
    pub fn partitioned(&self, host: HostId, tick: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.kind == LinkFaultKind::Partition && w.covers(tick, host))
    }

    /// Whether a host sits inside a dark window at a tick.
    pub fn dark(&self, host: HostId, tick: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.kind == LinkFaultKind::HostDark && w.covers(tick, host))
    }
}

/// SplitMix64's output function: a bijective 64-bit mixer. Chained on
/// its own output it is also the crate's seeded test bit source.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_injects_nothing() {
        let p = LinkFaultPlan::none();
        for seq in 0..200 {
            assert!(!p.drops(HostId(1), seq, 0));
            assert!(!p.duplicates(HostId(1), seq, 0));
            assert!(!p.corrupts(HostId(1), seq, 0));
            assert_eq!(p.reorder_ticks(HostId(1), seq, 0), 0);
            assert!(!p.partitioned(HostId(1), seq));
            assert!(!p.dark(HostId(1), seq));
        }
    }

    #[test]
    fn generation_is_deterministic_and_windows_fit() {
        let cfg = LinkFaultConfig {
            drop_rate: 0.05,
            partitions: 2,
            partition_ticks: 10,
            partition_hosts: 8,
            dark_windows: 3,
            dark_ticks: 5,
            ..LinkFaultConfig::default()
        };
        let a = LinkFaultPlan::generate(42, 40, 100, &cfg);
        let b = LinkFaultPlan::generate(42, 40, 100, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.windows().len(), 5);
        for w in a.windows() {
            assert!(w.start >= 1 && w.end <= 101, "window {w:?} out of run");
            assert!(w.host_hi <= 40, "window {w:?} beyond fleet");
            assert!(w.end > w.start);
        }
        let c = LinkFaultPlan::generate(43, 40, 100, &cfg);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn decisions_are_stable_and_attempt_sensitive() {
        let cfg = LinkFaultConfig {
            drop_rate: 0.5,
            ..LinkFaultConfig::default()
        };
        let p = LinkFaultPlan::generate(7, 10, 50, &cfg);
        let first = p.drops(HostId(3), 12, 0);
        assert_eq!(first, p.drops(HostId(3), 12, 0), "replay must agree");
        // Across many frames, retransmits must sometimes fare differently
        // from the first attempt — a dropped frame is not doomed forever.
        let differs = (0..200).any(|seq| p.drops(HostId(3), seq, 0) != p.drops(HostId(3), seq, 1));
        assert!(differs);
    }

    #[test]
    fn rates_land_near_target() {
        let cfg = LinkFaultConfig {
            drop_rate: 0.05,
            ..LinkFaultConfig::default()
        };
        let p = LinkFaultPlan::generate(99, 1, 1, &cfg);
        let dropped = (0..20_000u64)
            .filter(|&seq| p.drops(HostId(0), seq, 0))
            .count();
        let rate = dropped as f64 / 20_000.0;
        assert!((0.03..0.07).contains(&rate), "5% target, got {rate}");
    }

    #[test]
    fn window_coverage_is_half_open() {
        let w = LinkWindow {
            kind: LinkFaultKind::Partition,
            start: 10,
            end: 20,
            host_lo: 4,
            host_hi: 8,
        };
        assert!(w.covers(10, HostId(4)));
        assert!(w.covers(19, HostId(7)));
        assert!(!w.covers(20, HostId(4)));
        assert!(!w.covers(9, HostId(4)));
        assert!(!w.covers(15, HostId(8)));
    }

    #[test]
    fn labels_are_kebab_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for k in LinkFaultKind::ALL {
            assert!(seen.insert(k.label()));
            assert!(!k.label().contains(' '));
        }
        assert_eq!(seen.len(), 6);
    }
}
