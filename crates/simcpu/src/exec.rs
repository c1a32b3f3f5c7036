//! The execution engine: turns (work unit, frequency, SMT contention,
//! slice duration) into retired-event counts. This is where the simulated
//! microarchitecture lives — IPC derivation, cache/branch stalls, the
//! memory wall, and HyperThread pipeline sharing.

use crate::cache::CacheHierarchy;
use crate::counters::ExecDelta;
use crate::freq::PState;
use crate::units::{MegaHertz, Nanos};
use crate::workunit::WorkUnit;

/// Fraction of memory latency hidden by out-of-order overlap.
const MEMORY_OVERLAP: f64 = 0.6;

/// Pipeline flush penalty for a mispredicted branch, in cycles.
const BRANCH_FLUSH_CYCLES: f64 = 15.0;

/// Per-thread base-IPC multiplier when the SMT sibling is also executing:
/// two threads share one pipeline, each getting ~62 % of its solo issue
/// bandwidth (≈1.24× combined — the classic HyperThreading figure).
const SMT_SHARE: f64 = 0.62;

/// Context for executing one slice on one hardware thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecContext {
    /// Operating point of the core (frequency + voltage).
    pub pstate: PState,
    /// Reference clock used by the `ref-cycles` counter.
    pub reference_clock: MegaHertz,
    /// Whether the SMT sibling thread is executing during this slice.
    pub sibling_active: bool,
}

/// Outcome of executing a slice: the retired events plus derived
/// quantities the power model needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOutcome {
    /// Retired hardware events for the slice.
    pub delta: ExecDelta,
    /// Fraction of the slice the thread was actually executing (C0-busy).
    pub busy_fraction: f64,
    /// Effective instructions per (busy) cycle achieved.
    pub achieved_ipc: f64,
}

/// Every field of every input of [`execute`] but the cache hierarchy, bit
/// for bit (`f64`s by `to_bits`, so `-0.0` and `0.0` differ and a NaN
/// equals itself). That is a superset of what `execute` reads (it never
/// reads the voltage). For a fixed hierarchy, calls with equal keys return
/// equal outcomes.
pub(crate) type ExecKey = [u64; 13];

/// The [`ExecKey`] of one call.
#[inline]
pub(crate) fn exec_key(work: &WorkUnit, ctx: &ExecContext, dt: Nanos) -> ExecKey {
    let ExecContext {
        pstate,
        reference_clock,
        sibling_active,
    } = *ctx;
    let [w0, w1, w2, w3, w4, w5, w6, w7] = work.to_bits();
    let [mhz, volts] = pstate.to_bits();
    [
        w0,
        w1,
        w2,
        w3,
        w4,
        w5,
        w6,
        w7,
        mhz,
        volts,
        u64::from(reference_clock.0),
        u64::from(sibling_active),
        dt.as_u64(),
    ]
}

/// Executes `work` for `dt` on a hardware thread and returns the retired
/// events.
///
/// The model:
/// 1. busy cycles = `intensity · f · dt`;
/// 2. CPI = 1/IPC_base′ + memory stalls + branch stalls, with IPC_base′
///    reduced by the SMT sharing factor when the sibling is active;
/// 3. retired instructions = busy cycles / CPI; event counts follow from
///    the instruction mix and the cache [`AccessProfile`].
///
/// [`AccessProfile`]: crate::cache::AccessProfile
pub fn execute(
    work: &WorkUnit,
    ctx: &ExecContext,
    caches: &CacheHierarchy,
    dt: Nanos,
) -> ExecOutcome {
    let intensity = work.intensity();
    if intensity <= 0.0 || dt == Nanos::ZERO {
        return ExecOutcome {
            delta: ExecDelta::zero(),
            busy_fraction: 0.0,
            achieved_ipc: 0.0,
        };
    }

    let freq = ctx.pstate.frequency();
    let ghz = freq.as_ghz();
    let total_cycles = freq.cycles_over(dt) as f64;
    let busy_cycles = total_cycles * intensity;

    // Cache behaviour of this working set. An active SMT sibling
    // effectively halves the private cache capacity available.
    let effective_footprint = if ctx.sibling_active {
        work.footprint_kb() * 1.35
    } else {
        work.footprint_kb()
    };
    let profile = caches.profile(effective_footprint, work.locality());

    // CPI decomposition.
    let base_ipc = if ctx.sibling_active {
        work.base_ipc() * SMT_SHARE
    } else {
        work.base_ipc()
    };
    let mem_stall_per_inst =
        work.mem_ratio() * profile.stall_cycles_per_access(caches, ghz, MEMORY_OVERLAP);
    let branch_stall_per_inst = work.branch_ratio() * work.branch_miss_rate() * BRANCH_FLUSH_CYCLES;
    let cpi = 1.0 / base_ipc + mem_stall_per_inst + branch_stall_per_inst;

    let instructions = busy_cycles / cpi;
    let mem_accesses = instructions * work.mem_ratio();
    let branches = instructions * work.branch_ratio();

    let delta = ExecDelta {
        cycles: busy_cycles as u64,
        ref_cycles: (ctx.reference_clock.cycles_over(dt) as f64 * intensity) as u64,
        instructions: instructions as u64,
        cache_references: (mem_accesses * profile.llc_reference_rate()) as u64,
        cache_misses: (mem_accesses * profile.llc_miss_rate()) as u64,
        branch_instructions: branches as u64,
        branch_misses: (branches * work.branch_miss_rate()) as u64,
        bus_cycles: (busy_cycles * 0.1) as u64,
        stalled_cycles_frontend: (instructions * branch_stall_per_inst) as u64,
        stalled_cycles_backend: (instructions * mem_stall_per_inst) as u64,
        l1d_accesses: mem_accesses as u64,
        l1d_misses: (mem_accesses * profile.l1_miss) as u64,
        fp_instructions: (instructions * work.fp_ratio()) as u64,
    };

    ExecOutcome {
        delta,
        busy_fraction: intensity,
        achieved_ipc: instructions / busy_cycles.max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::PState;

    fn caches() -> CacheHierarchy {
        CacheHierarchy::new(32, 256, 3072).unwrap()
    }

    fn ctx(mhz: u32, sibling: bool) -> ExecContext {
        ExecContext {
            pstate: PState::new(MegaHertz(mhz), 1.0).unwrap(),
            reference_clock: MegaHertz(3300),
            sibling_active: sibling,
        }
    }

    const MS: Nanos = Nanos(1_000_000);

    #[test]
    fn zero_intensity_and_zero_dt_do_nothing() {
        let w = WorkUnit::cpu_intensive(0.0);
        let out = execute(&w, &ctx(3300, false), &caches(), MS);
        assert!(out.delta.is_zero());
        assert_eq!(out.busy_fraction, 0.0);
        let w = WorkUnit::cpu_intensive(1.0);
        let out = execute(&w, &ctx(3300, false), &caches(), Nanos::ZERO);
        assert!(out.delta.is_zero());
    }

    #[test]
    fn cpu_bound_scales_with_frequency() {
        let w = WorkUnit::cpu_intensive(1.0);
        let slow = execute(&w, &ctx(1600, false), &caches(), MS);
        let fast = execute(&w, &ctx(3300, false), &caches(), MS);
        let ratio = fast.delta.instructions as f64 / slow.delta.instructions as f64;
        // Compute-bound: near-perfect frequency scaling (3300/1600 = 2.06).
        assert!((ratio - 3300.0 / 1600.0).abs() < 0.05, "ratio={ratio}");
    }

    #[test]
    fn memory_bound_scales_sublinearly() {
        let w = WorkUnit::memory_intensive(131_072.0, 1.0);
        let slow = execute(&w, &ctx(1600, false), &caches(), MS);
        let fast = execute(&w, &ctx(3300, false), &caches(), MS);
        let ratio = fast.delta.instructions as f64 / slow.delta.instructions as f64;
        assert!(
            ratio < 1.6,
            "memory wall limits frequency scaling, got {ratio}"
        );
        assert!(ratio > 1.0, "higher clock still helps a little");
    }

    #[test]
    fn counters_respect_mix_identities() {
        let w = WorkUnit::mixed(0.5, 4096.0, 1.0);
        let out = execute(&w, &ctx(3300, false), &caches(), MS).delta;
        let inst = out.instructions as f64;
        assert!(inst > 0.0);
        // Branches ≈ branch_ratio · instructions.
        let br = out.branch_instructions as f64 / inst;
        assert!((br - w.branch_ratio()).abs() < 0.01);
        // Chain: accesses ≥ L1 misses ≥ LLC refs ≥ LLC misses.
        assert!(out.l1d_accesses >= out.l1d_misses);
        assert!(out.l1d_misses >= out.cache_references);
        assert!(out.cache_references >= out.cache_misses);
        // Branch misses bounded by branches.
        assert!(out.branch_misses <= out.branch_instructions);
        // Cycles for the slice at 3.3 GHz over 1 ms.
        assert_eq!(out.cycles, 3_300_000);
    }

    #[test]
    fn memory_workload_produces_llc_traffic() {
        let w = WorkUnit::memory_intensive(65536.0, 1.0);
        let out = execute(&w, &ctx(3300, false), &caches(), MS).delta;
        assert!(out.cache_references > 0);
        assert!(out.cache_misses > 0);
        let cpu = WorkUnit::cpu_intensive(1.0);
        let cpu_out = execute(&cpu, &ctx(3300, false), &caches(), MS).delta;
        assert!(
            out.cache_misses > cpu_out.cache_misses * 10,
            "memory workload misses ({}) must dwarf compute workload misses ({})",
            out.cache_misses,
            cpu_out.cache_misses
        );
    }

    #[test]
    fn smt_sibling_lowers_per_thread_throughput() {
        let w = WorkUnit::cpu_intensive(1.0);
        let solo = execute(&w, &ctx(3300, false), &caches(), MS);
        let shared = execute(&w, &ctx(3300, true), &caches(), MS);
        let per_thread = shared.delta.instructions as f64 / solo.delta.instructions as f64;
        assert!(
            per_thread < 0.75,
            "sibling steals issue slots: {per_thread}"
        );
        // But combined throughput of two threads beats one.
        assert!(2.0 * per_thread > 1.1, "SMT still a net win: {per_thread}");
    }

    #[test]
    fn intensity_scales_events_linearly() {
        let full = execute(
            &WorkUnit::cpu_intensive(1.0),
            &ctx(3300, false),
            &caches(),
            MS,
        );
        let half = execute(
            &WorkUnit::cpu_intensive(0.5),
            &ctx(3300, false),
            &caches(),
            MS,
        );
        let r = half.delta.instructions as f64 / full.delta.instructions as f64;
        assert!((r - 0.5).abs() < 0.01, "r={r}");
        assert_eq!(half.busy_fraction, 0.5);
    }

    #[test]
    fn achieved_ipc_below_base() {
        let w = WorkUnit::memory_intensive(65536.0, 1.0);
        let out = execute(&w, &ctx(3300, false), &caches(), MS);
        assert!(out.achieved_ipc < w.base_ipc());
        assert!(out.achieved_ipc > 0.0);
    }
}
