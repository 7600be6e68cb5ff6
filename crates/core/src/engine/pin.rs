//! Core-pinning policies for shard threads (PARSIR-style per-CPU
//! worker binding).
//!
//! A [`PinPolicy`] maps shard indices to CPU cores; the sharded engines
//! pin each shard thread *before* constructing its `ShardCore`, so the
//! arena and port queues are first-touched — and therefore page-homed —
//! on the core that will run them. `ShardedEngine` runs its last shard
//! on the calling thread, which it pins for the run only: the caller's
//! previous mask is saved first and put back afterwards. Pinning uses
//! raw `sched_setaffinity`/`sched_getaffinity` syscalls on x86_64 Linux
//! (the workspace deliberately has no libc binding); everywhere else
//! the calls are no-ops and shards simply run unpinned.
//!
//! Policies degrade gracefully on small machines: `compact` and
//! `spread` wrap modulo the online core count, so a 2-core laptop runs
//! an 8-shard simulation with shards stacked 4-per-core rather than
//! failing. Only an [`PinPolicy::Explicit`] list naming a core the
//! machine does not have is rejected, with a structured
//! [`SimError::Config`].

use fault::SimError;

/// How shard threads are bound to CPU cores.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PinPolicy {
    /// No affinity calls; the OS scheduler places threads freely.
    #[default]
    None,
    /// Shard `i` → core `i % cores`: fill cores densely from 0, keeping
    /// communicating shards on neighbouring cores (same socket first).
    Compact,
    /// Shard `i` → core `(i * cores / shards) % cores`: space shards
    /// evenly across the online cores, spreading load (and memory
    /// bandwidth) across sockets.
    Spread,
    /// Shard `i` → `cores[i % cores.len()]`: an explicit core list, for
    /// machines where the right mapping is known (e.g. one core per
    /// NUMA node). Rejected at build time if any id is not online.
    Explicit(Vec<usize>),
}

impl PinPolicy {
    /// Parse a des-node config value: `none`, `compact`, `spread`, or a
    /// comma-separated core list like `0,2,4,6`.
    pub fn parse(s: &str) -> Result<PinPolicy, String> {
        match s.trim() {
            "none" => Ok(PinPolicy::None),
            "compact" => Ok(PinPolicy::Compact),
            "spread" => Ok(PinPolicy::Spread),
            list => {
                let cores: Result<Vec<usize>, _> =
                    list.split(',').map(|c| c.trim().parse::<usize>()).collect();
                match cores {
                    Ok(cores) if !cores.is_empty() => Ok(PinPolicy::Explicit(cores)),
                    _ => Err(format!(
                        "pin policy must be none|compact|spread|<core,list>, got '{s}'"
                    )),
                }
            }
        }
    }

    /// The config-file spelling of this policy (inverse of `parse`).
    pub fn label(&self) -> String {
        match self {
            PinPolicy::None => "none".into(),
            PinPolicy::Compact => "compact".into(),
            PinPolicy::Spread => "spread".into(),
            PinPolicy::Explicit(cores) => cores
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        }
    }

    /// Per-shard core assignment for `shards` shard threads, or a
    /// [`SimError::Config`] when an explicit list is empty or names an
    /// offline core. `None` entries mean "leave unpinned".
    pub fn plan(&self, shards: usize) -> Result<Vec<Option<usize>>, SimError> {
        let cores = online_cores();
        match self {
            PinPolicy::None => Ok(vec![None; shards]),
            PinPolicy::Compact => Ok((0..shards).map(|i| Some(i % cores)).collect()),
            PinPolicy::Spread => Ok((0..shards)
                .map(|i| Some(i * cores / shards.max(1) % cores))
                .collect()),
            PinPolicy::Explicit(list) => {
                if list.is_empty() {
                    return Err(SimError::config("pin: explicit core list is empty"));
                }
                if let Some(bad) = list.iter().find(|&&c| c >= cores) {
                    return Err(SimError::config(format!(
                        "pin: core {bad} requested but only {cores} cores online (valid ids 0..{})",
                        cores - 1
                    )));
                }
                Ok((0..shards).map(|i| Some(list[i % list.len()])).collect())
            }
        }
    }
}

/// Cores the scheduler will give us (≥ 1).
pub fn online_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Bind the calling thread to `core`. Returns the core actually pinned
/// to, or `None` when pinning is unsupported on this target or the
/// kernel refused (the run proceeds unpinned — placement is a
/// performance hint, never a correctness requirement).
pub fn pin_current_thread(core: usize) -> Option<usize> {
    if core >= 1024 {
        return None; // beyond our fixed-size cpu mask
    }
    let mut mask: CpuMask = [0; 16];
    mask[core / 64] = 1u64 << (core % 64);
    sched_setaffinity_self(&mask).then_some(core)
}

/// A thread's CPU affinity: `cpu_set_t` as a 1024-bit mask (the kernel
/// ABI size).
pub(crate) type CpuMask = [u64; 16];

/// `sched_setaffinity(0, …)` via a raw syscall: the workspace carries
/// no libc binding, and the two-instruction wrapper is cheaper than
/// growing one for two call sites. `false` when unsupported on this
/// target or the kernel refused.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) fn sched_setaffinity_self(mask: &CpuMask) -> bool {
    let ret: i64;
    // SAFETY: the kernel only reads `size_of_val(mask)` bytes from
    // `mask`, a live borrow of exactly that size; the syscall clobbers
    // only rax, rcx and r11 (all declared) and the asm pushes nothing.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret, // SYS_sched_setaffinity
            in("rdi") 0,                    // pid 0 = calling thread
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// `sched_getaffinity(0, …)`, the same way: the calling thread's mask,
/// for a thread that pins itself only for a while (the caller of
/// `ShardedEngine::try_run` runs the last shard) to put back with
/// [`sched_setaffinity_self`]. `None` when unsupported on this target or
/// the kernel refused. The raw syscall returns the number of mask bytes
/// the kernel wrote, not 0, on success.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) fn sched_getaffinity_self() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    let ret: i64;
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
    // `mask`, a local of exactly that size that outlives the call; the
    // syscall clobbers only rax, rcx and r11 (all declared) and the asm
    // pushes nothing.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 204i64 => ret, // SYS_sched_getaffinity
            in("rdi") 0,                    // pid 0 = calling thread
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    (ret > 0).then_some(mask)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub(crate) fn sched_setaffinity_self(_mask: &CpuMask) -> bool {
    false
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub(crate) fn sched_getaffinity_self() -> Option<CpuMask> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(PinPolicy::parse("none").unwrap(), PinPolicy::None);
        assert_eq!(PinPolicy::parse("compact").unwrap(), PinPolicy::Compact);
        assert_eq!(PinPolicy::parse(" spread ").unwrap(), PinPolicy::Spread);
        assert_eq!(
            PinPolicy::parse("0, 2,4").unwrap(),
            PinPolicy::Explicit(vec![0, 2, 4])
        );
        for p in ["none", "compact", "spread", "0,2,4"] {
            assert_eq!(PinPolicy::parse(p).unwrap().label(), p.replace(", ", ","));
        }
        assert!(PinPolicy::parse("sideways").is_err());
        assert!(PinPolicy::parse("").is_err());
        assert!(PinPolicy::parse("1,x").is_err());
    }

    #[test]
    fn compact_wraps_when_shards_exceed_cores() {
        // The fallback path: more shards than cores must still produce a
        // full assignment (wrapping), never an error — this is what a
        // laptop running a 8-shard config relies on.
        let plan = PinPolicy::Compact.plan(2 * online_cores() + 1).unwrap();
        assert_eq!(plan.len(), 2 * online_cores() + 1);
        for (i, core) in plan.iter().enumerate() {
            assert_eq!(*core, Some(i % online_cores()));
        }
    }

    #[test]
    fn spread_spaces_across_cores_and_wraps() {
        let cores = online_cores();
        let plan = PinPolicy::Spread.plan(cores + 1).unwrap();
        for core in &plan {
            assert!(core.unwrap() < cores);
        }
        let none = PinPolicy::None.plan(3).unwrap();
        assert_eq!(none, vec![None, None, None]);
    }

    #[test]
    fn explicit_list_validates_core_ids() {
        let bad = PinPolicy::Explicit(vec![0, 4096]).plan(2);
        match bad {
            Err(SimError::Config { context }) => {
                assert!(context.contains("core 4096"), "{context}");
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        assert!(matches!(
            PinPolicy::Explicit(vec![]).plan(1),
            Err(SimError::Config { .. })
        ));
        let ok = PinPolicy::Explicit(vec![0]).plan(3).unwrap();
        assert_eq!(ok, vec![Some(0), Some(0), Some(0)]);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pinning_to_core_zero_succeeds_on_linux() {
        // Core 0 is always online; the raw syscall must land. Pin a
        // throwaway thread, not the shared test-harness thread.
        std::thread::spawn(|| {
            let saved = sched_getaffinity_self().expect("sched_getaffinity");
            assert_eq!(pin_current_thread(0), Some(0));
            let mut core0: CpuMask = [0; 16];
            core0[0] = 1;
            assert_eq!(sched_getaffinity_self(), Some(core0));
            assert_eq!(pin_current_thread(100_000), None);
            assert!(sched_setaffinity_self(&saved));
            assert_eq!(sched_getaffinity_self(), Some(saved));
        })
        .join()
        .unwrap();
    }
}
