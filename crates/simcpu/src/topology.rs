//! CPU topology: packages → cores → SMT threads, with logical-CPU
//! enumeration matching the Linux convention (`cpu = core * smt + thread`
//! within a package).

use crate::units::CpuId;
use crate::{Error, Result};

/// Identifies a physical core (package-global index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl CoreId {
    /// Raw index.
    pub fn as_usize(self) -> usize {
        self.0
    }
}

/// Immutable description of a machine's CPU layout.
///
/// ```
/// use simcpu::topology::Topology;
///
/// # fn main() -> Result<(), simcpu::Error> {
/// // i3-2120: 1 package × 2 cores × 2 SMT threads = 4 logical CPUs.
/// let topo = Topology::new(1, 2, 2)?;
/// assert_eq!(topo.logical_cpus(), 4);
/// assert_eq!(topo.physical_cores(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    packages: usize,
    cores_per_package: usize,
    threads_per_core: usize,
}

impl Topology {
    /// Creates a topology.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when any dimension is zero or
    /// `threads_per_core` exceeds 2 (the SMT model covers 2-way
    /// HyperThreading, as on every machine in the paper).
    pub fn new(
        packages: usize,
        cores_per_package: usize,
        threads_per_core: usize,
    ) -> Result<Topology> {
        if packages == 0 || cores_per_package == 0 || threads_per_core == 0 {
            return Err(Error::InvalidConfig("topology dimensions must be non-zero"));
        }
        if threads_per_core > 2 {
            return Err(Error::InvalidConfig("threads_per_core must be 1 or 2"));
        }
        Ok(Topology {
            packages,
            cores_per_package,
            threads_per_core,
        })
    }

    /// Number of packages (sockets).
    pub fn packages(&self) -> usize {
        self.packages
    }

    /// Physical cores across all packages.
    pub fn physical_cores(&self) -> usize {
        self.packages * self.cores_per_package
    }

    /// SMT width (1 = no HyperThreading, 2 = HyperThreading).
    pub fn threads_per_core(&self) -> usize {
        self.threads_per_core
    }

    /// Whether the topology has SMT siblings.
    pub fn has_smt(&self) -> bool {
        self.threads_per_core > 1
    }

    /// Total logical CPUs (hardware threads).
    pub fn logical_cpus(&self) -> usize {
        self.physical_cores() * self.threads_per_core
    }

    /// The physical core a logical CPU belongs to.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCpu`] for out-of-range indices.
    pub fn core_of(&self, cpu: CpuId) -> Result<CoreId> {
        self.check(cpu)?;
        Ok(CoreId(cpu.0 / self.threads_per_core))
    }

    /// The logical CPUs on a core (the SMT sibling set): a contiguous
    /// range of ids, so asking costs nothing.
    ///
    /// # Panics
    ///
    /// Panics when `core` is out of range.
    pub fn threads_of(&self, core: CoreId) -> impl Iterator<Item = CpuId> + Clone {
        assert!(
            core.0 < self.physical_cores(),
            "core {} out of range ({})",
            core.0,
            self.physical_cores()
        );
        let first = core.0 * self.threads_per_core;
        (first..first + self.threads_per_core).map(CpuId)
    }

    /// The SMT sibling of a logical CPU (`None` without SMT).
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCpu`] for out-of-range indices.
    pub fn sibling_of(&self, cpu: CpuId) -> Result<Option<CpuId>> {
        self.check(cpu)?;
        if self.threads_per_core == 1 {
            return Ok(None);
        }
        let base = (cpu.0 / 2) * 2;
        Ok(Some(CpuId(base + (1 - (cpu.0 - base)))))
    }

    /// Iterates over every logical CPU id.
    pub fn cpus(&self) -> impl Iterator<Item = CpuId> {
        (0..self.logical_cpus()).map(CpuId)
    }

    /// Iterates over every physical core id.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.physical_cores()).map(CoreId)
    }

    fn check(&self, cpu: CpuId) -> Result<()> {
        if cpu.0 >= self.logical_cpus() {
            return Err(Error::NoSuchCpu {
                cpu,
                available: self.logical_cpus(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_configs() {
        assert!(Topology::new(0, 2, 2).is_err());
        assert!(Topology::new(1, 0, 2).is_err());
        assert!(Topology::new(1, 2, 0).is_err());
        assert!(Topology::new(1, 2, 4).is_err());
    }

    #[test]
    fn i3_layout() {
        let t = Topology::new(1, 2, 2).unwrap();
        assert_eq!(t.logical_cpus(), 4);
        assert_eq!(t.physical_cores(), 2);
        assert!(t.has_smt());
        assert_eq!(t.core_of(CpuId(0)).unwrap(), CoreId(0));
        assert_eq!(t.core_of(CpuId(1)).unwrap(), CoreId(0));
        assert_eq!(t.core_of(CpuId(2)).unwrap(), CoreId(1));
        assert_eq!(t.core_of(CpuId(3)).unwrap(), CoreId(1));
    }

    #[test]
    fn siblings_pair_up() {
        let t = Topology::new(1, 2, 2).unwrap();
        assert_eq!(t.sibling_of(CpuId(0)).unwrap(), Some(CpuId(1)));
        assert_eq!(t.sibling_of(CpuId(1)).unwrap(), Some(CpuId(0)));
        assert_eq!(t.sibling_of(CpuId(3)).unwrap(), Some(CpuId(2)));
        assert!(t.threads_of(CoreId(1)).eq([CpuId(2), CpuId(3)]));
    }

    #[test]
    fn no_smt_has_no_sibling() {
        let t = Topology::new(1, 2, 1).unwrap();
        assert!(!t.has_smt());
        assert_eq!(t.sibling_of(CpuId(0)).unwrap(), None);
        assert!(t.threads_of(CoreId(1)).eq([CpuId(1)]));
    }

    #[test]
    fn out_of_range_rejected() {
        let t = Topology::new(1, 2, 2).unwrap();
        assert!(matches!(t.core_of(CpuId(4)), Err(Error::NoSuchCpu { .. })));
        assert!(t.sibling_of(CpuId(99)).is_err());
    }

    #[test]
    fn multi_package_counts() {
        let t = Topology::new(2, 4, 2).unwrap();
        assert_eq!(t.logical_cpus(), 16);
        assert_eq!(t.physical_cores(), 8);
        assert_eq!(t.cpus().count(), 16);
        assert_eq!(t.cores().count(), 8);
    }
}
