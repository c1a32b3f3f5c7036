//! Workload descriptions as the CPU sees them: an instruction mix, a
//! memory footprint/locality pair and a duty cycle. The `workloads` crate
//! composes these into full applications (stress grids, SPECjbb-like
//! phases, …); `simcpu` only needs the per-slice characteristics.

use crate::{Error, Result};

/// The characteristics of the instruction stream a thread wants to run.
///
/// All `*_ratio` fields are fractions of retired instructions and must sum
/// to at most 1; the remainder is plain integer ALU work. Construct one
/// with [`WorkUnit::builder`] or a named preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkUnit {
    mem_ratio: f64,
    branch_ratio: f64,
    fp_ratio: f64,
    branch_miss_rate: f64,
    footprint_kb: f64,
    locality: f64,
    base_ipc: f64,
    intensity: f64,
}

/// Builder for [`WorkUnit`]. Defaults describe a tiny pure-ALU loop:
/// no memory/branch/FP instructions, 1 KB footprint, perfect locality,
/// IPC 1, full duty cycle. Validation happens in [`build`].
///
/// [`build`]: WorkUnitBuilder::build
#[derive(Debug, Clone, Copy)]
pub struct WorkUnitBuilder {
    mem_ratio: f64,
    branch_ratio: f64,
    fp_ratio: f64,
    branch_miss_rate: f64,
    footprint_kb: f64,
    locality: f64,
    base_ipc: f64,
    intensity: f64,
}

impl Default for WorkUnitBuilder {
    fn default() -> WorkUnitBuilder {
        WorkUnitBuilder {
            mem_ratio: 0.0,
            branch_ratio: 0.0,
            fp_ratio: 0.0,
            branch_miss_rate: 0.0,
            footprint_kb: 1.0,
            locality: 1.0,
            base_ipc: 1.0,
            intensity: 1.0,
        }
    }
}

impl WorkUnitBuilder {
    /// Fraction of instructions that touch memory.
    pub fn mem_ratio(mut self, v: f64) -> WorkUnitBuilder {
        self.mem_ratio = v;
        self
    }

    /// Fraction of instructions that are branches.
    pub fn branch_ratio(mut self, v: f64) -> WorkUnitBuilder {
        self.branch_ratio = v;
        self
    }

    /// Fraction of instructions that are floating-point.
    pub fn fp_ratio(mut self, v: f64) -> WorkUnitBuilder {
        self.fp_ratio = v;
        self
    }

    /// Misprediction rate among branches.
    pub fn branch_miss_rate(mut self, v: f64) -> WorkUnitBuilder {
        self.branch_miss_rate = v;
        self
    }

    /// Working-set size in KB.
    pub fn footprint_kb(mut self, v: f64) -> WorkUnitBuilder {
        self.footprint_kb = v;
        self
    }

    /// Temporal locality in `[0, 1]`.
    pub fn locality(mut self, v: f64) -> WorkUnitBuilder {
        self.locality = v;
        self
    }

    /// Ideal (stall-free, single-thread) instructions per cycle.
    pub fn base_ipc(mut self, v: f64) -> WorkUnitBuilder {
        self.base_ipc = v;
        self
    }

    /// Duty cycle in `[0, 1]`: fraction of the slice actually executing.
    pub fn intensity(mut self, v: f64) -> WorkUnitBuilder {
        self.intensity = v;
        self
    }

    /// Validates the accumulated parameters and produces the work unit.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when ratios are outside `[0, 1]`, their sum
    /// exceeds 1, `base_ipc` is non-positive, or `footprint_kb` is
    /// negative.
    pub fn build(self) -> Result<WorkUnit> {
        let WorkUnitBuilder {
            mem_ratio,
            branch_ratio,
            fp_ratio,
            branch_miss_rate,
            footprint_kb,
            locality,
            base_ipc,
            intensity,
        } = self;
        let in_unit = |v: f64| (0.0..=1.0).contains(&v) && v.is_finite();
        if !in_unit(mem_ratio) || !in_unit(branch_ratio) || !in_unit(fp_ratio) {
            return Err(Error::InvalidConfig(
                "instruction mix ratios must be in [0, 1]",
            ));
        }
        if mem_ratio + branch_ratio + fp_ratio > 1.0 + 1e-9 {
            return Err(Error::InvalidConfig(
                "instruction mix ratios must sum to <= 1",
            ));
        }
        if !in_unit(branch_miss_rate) {
            return Err(Error::InvalidConfig("branch miss rate must be in [0, 1]"));
        }
        if !in_unit(locality) {
            return Err(Error::InvalidConfig("locality must be in [0, 1]"));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must be rejected too
        if !(base_ipc > 0.0) || base_ipc > 8.0 {
            return Err(Error::InvalidConfig("base ipc must be in (0, 8]"));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must be rejected too
        if !(footprint_kb >= 0.0) || !footprint_kb.is_finite() {
            return Err(Error::InvalidConfig("footprint must be non-negative"));
        }
        if !in_unit(intensity) {
            return Err(Error::InvalidConfig("intensity must be in [0, 1]"));
        }
        Ok(WorkUnit {
            mem_ratio,
            branch_ratio,
            fp_ratio,
            branch_miss_rate,
            footprint_kb,
            locality,
            base_ipc,
            intensity,
        })
    }
}

impl WorkUnit {
    /// Every field's bit pattern: two units with equal bits execute alike.
    /// The destructuring keeps it complete when a field is added.
    #[inline]
    pub(crate) fn to_bits(self) -> [u64; 8] {
        let WorkUnit {
            mem_ratio,
            branch_ratio,
            fp_ratio,
            branch_miss_rate,
            footprint_kb,
            locality,
            base_ipc,
            intensity,
        } = self;
        [
            mem_ratio,
            branch_ratio,
            fp_ratio,
            branch_miss_rate,
            footprint_kb,
            locality,
            base_ipc,
            intensity,
        ]
        .map(f64::to_bits)
    }

    /// Starts a builder with pure-ALU defaults; see [`WorkUnitBuilder`].
    pub fn builder() -> WorkUnitBuilder {
        WorkUnitBuilder::default()
    }

    /// A compute-bound kernel: tiny footprint, high ILP, few memory ops.
    /// `intensity` is the duty cycle in `[0, 1]` (clamped).
    pub fn cpu_intensive(intensity: f64) -> WorkUnit {
        WorkUnit::builder()
            .mem_ratio(0.08)
            .branch_ratio(0.15)
            .fp_ratio(0.20)
            .branch_miss_rate(0.01)
            .footprint_kb(16.0)
            .locality(0.95)
            .base_ipc(2.6)
            .intensity(intensity.clamp(0.0, 1.0))
            .build()
            .expect("hardcoded parameters are valid")
    }

    /// A memory-streaming kernel: large footprint, low locality, lots of
    /// loads/stores. `footprint_kb` sets the working set.
    pub fn memory_intensive(footprint_kb: f64, intensity: f64) -> WorkUnit {
        WorkUnit::builder()
            .mem_ratio(0.45)
            .branch_ratio(0.10)
            .fp_ratio(0.05)
            .branch_miss_rate(0.02)
            .footprint_kb(footprint_kb.max(1.0))
            .locality(0.10)
            .base_ipc(1.8)
            .intensity(intensity.clamp(0.0, 1.0))
            .build()
            .expect("hardcoded parameters are valid")
    }

    /// A balanced mix between the two extremes; `mem_weight` in `[0, 1]`
    /// slides from compute-bound (0) to memory-bound (1).
    pub fn mixed(mem_weight: f64, footprint_kb: f64, intensity: f64) -> WorkUnit {
        let w = mem_weight.clamp(0.0, 1.0);
        WorkUnit::builder()
            .mem_ratio(0.08 + w * (0.45 - 0.08))
            .branch_ratio(0.15 - w * 0.05)
            .fp_ratio(0.20 - w * 0.15)
            .branch_miss_rate(0.01 + w * 0.01)
            .footprint_kb(footprint_kb.max(1.0))
            .locality(0.95 - w * 0.85)
            .base_ipc(2.6 - w * 0.8)
            .intensity(intensity.clamp(0.0, 1.0))
            .build()
            .expect("interpolated parameters are valid")
    }

    /// Fraction of instructions that touch memory.
    pub fn mem_ratio(&self) -> f64 {
        self.mem_ratio
    }

    /// Fraction of instructions that are branches.
    pub fn branch_ratio(&self) -> f64 {
        self.branch_ratio
    }

    /// Fraction of instructions that are floating-point.
    pub fn fp_ratio(&self) -> f64 {
        self.fp_ratio
    }

    /// Misprediction rate among branches.
    pub fn branch_miss_rate(&self) -> f64 {
        self.branch_miss_rate
    }

    /// Working-set size in KB.
    pub fn footprint_kb(&self) -> f64 {
        self.footprint_kb
    }

    /// Temporal locality in `[0, 1]`.
    pub fn locality(&self) -> f64 {
        self.locality
    }

    /// Ideal (stall-free, single-thread) instructions per cycle.
    pub fn base_ipc(&self) -> f64 {
        self.base_ipc
    }

    /// Duty cycle in `[0, 1]`: fraction of the slice actually executing.
    pub fn intensity(&self) -> f64 {
        self.intensity
    }

    /// Returns a copy with a different intensity (clamped to `[0, 1]`).
    pub fn with_intensity(mut self, intensity: f64) -> WorkUnit {
        self.intensity = intensity.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shorthand for the tests below: full positional spec through the
    /// builder, in the field order of [`WorkUnit`].
    fn unit(
        (m, b, f, bm, fp, loc, ipc, int): (f64, f64, f64, f64, f64, f64, f64, f64),
    ) -> Result<WorkUnit> {
        WorkUnit::builder()
            .mem_ratio(m)
            .branch_ratio(b)
            .fp_ratio(f)
            .branch_miss_rate(bm)
            .footprint_kb(fp)
            .locality(loc)
            .base_ipc(ipc)
            .intensity(int)
            .build()
    }

    #[test]
    fn validation_rejects_bad_mixes() {
        assert!(unit((0.6, 0.3, 0.3, 0.0, 1.0, 0.5, 1.0, 1.0)).is_err());
        assert!(unit((-0.1, 0.0, 0.0, 0.0, 1.0, 0.5, 1.0, 1.0)).is_err());
        assert!(unit((0.1, 0.1, 0.1, 1.5, 1.0, 0.5, 1.0, 1.0)).is_err());
        assert!(unit((0.1, 0.1, 0.1, 0.0, 1.0, 2.0, 1.0, 1.0)).is_err());
        assert!(unit((0.1, 0.1, 0.1, 0.0, 1.0, 0.5, 0.0, 1.0)).is_err());
        assert!(unit((0.1, 0.1, 0.1, 0.0, 1.0, 0.5, 9.0, 1.0)).is_err());
        assert!(unit((0.1, 0.1, 0.1, 0.0, -1.0, 0.5, 1.0, 1.0)).is_err());
        assert!(unit((0.1, 0.1, 0.1, 0.0, 1.0, 0.5, 1.0, 1.1)).is_err());
    }

    #[test]
    fn builder_defaults_are_a_valid_alu_loop() {
        let w = WorkUnit::builder().build().expect("defaults are valid");
        assert_eq!(w.mem_ratio(), 0.0);
        assert_eq!(w.branch_ratio(), 0.0);
        assert_eq!(w.fp_ratio(), 0.0);
        assert_eq!(w.footprint_kb(), 1.0);
        assert_eq!(w.locality(), 1.0);
        assert_eq!(w.base_ipc(), 1.0);
        assert_eq!(w.intensity(), 1.0);
    }

    #[test]
    fn builder_sets_each_field() {
        let w = unit((0.1, 0.2, 0.3, 0.05, 64.0, 0.7, 2.5, 0.5)).expect("valid");
        assert_eq!(w.mem_ratio(), 0.1);
        assert_eq!(w.branch_ratio(), 0.2);
        assert_eq!(w.fp_ratio(), 0.3);
        assert_eq!(w.branch_miss_rate(), 0.05);
        assert_eq!(w.footprint_kb(), 64.0);
        assert_eq!(w.locality(), 0.7);
        assert_eq!(w.base_ipc(), 2.5);
        assert_eq!(w.intensity(), 0.5);
    }

    #[test]
    fn presets_are_distinct() {
        let cpu = WorkUnit::cpu_intensive(1.0);
        let mem = WorkUnit::memory_intensive(65536.0, 1.0);
        assert!(cpu.mem_ratio() < mem.mem_ratio());
        assert!(cpu.locality() > mem.locality());
        assert!(cpu.base_ipc() > mem.base_ipc());
        assert!(cpu.footprint_kb() < mem.footprint_kb());
    }

    #[test]
    fn mixed_interpolates_monotonically() {
        let a = WorkUnit::mixed(0.0, 1024.0, 1.0);
        let b = WorkUnit::mixed(0.5, 1024.0, 1.0);
        let c = WorkUnit::mixed(1.0, 1024.0, 1.0);
        assert!(a.mem_ratio() < b.mem_ratio() && b.mem_ratio() < c.mem_ratio());
        assert!(a.locality() > b.locality() && b.locality() > c.locality());
        // End points line up with the named presets' mixes.
        assert!((a.mem_ratio() - WorkUnit::cpu_intensive(1.0).mem_ratio()).abs() < 1e-12);
        assert!((c.mem_ratio() - WorkUnit::memory_intensive(1.0, 1.0).mem_ratio()).abs() < 1e-12);
    }

    #[test]
    fn intensity_clamped() {
        assert_eq!(WorkUnit::cpu_intensive(7.0).intensity(), 1.0);
        assert_eq!(WorkUnit::cpu_intensive(-1.0).intensity(), 0.0);
        let w = WorkUnit::cpu_intensive(1.0).with_intensity(0.25);
        assert_eq!(w.intensity(), 0.25);
    }
}
