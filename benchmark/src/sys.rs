//! Host facts recorded with every result: peak resident memory, cores,
//! last-level cache, toolchain and revision. Read through system calls and
//! CPUID only, so a run reads no file outside its checkout.

/// Worker count the host offers (`available_parallelism`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(target_os = "linux")]
mod rusage {
    #[repr(C)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` of Linux (64-bit): two timevals and fourteen longs.
    #[repr(C)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// Peak resident set of this process so far, in MiB (`None` where
/// `getrusage` is unavailable).
pub fn peak_rss_mib() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let mut u = std::mem::MaybeUninit::<rusage::Rusage>::zeroed();
        // SAFETY: `Rusage` matches the C layout of `struct rusage` on 64-bit
        // Linux, the pointer is valid for writes of that size, and the
        // kernel fills the whole struct on success.
        let rc = unsafe { rusage::getrusage(rusage::RUSAGE_SELF, u.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        // SAFETY: zero-initialized and, on success, written by the kernel;
        // every field is a plain integer, valid for any bit pattern.
        let u = unsafe { u.assume_init() };
        Some(u.maxrss as f64 / 1024.0) // ru_maxrss is in KiB on Linux
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Size in bytes of the largest cache level CPUID describes (0 when CPUID
/// has no deterministic cache leaf).
pub fn llc_bytes() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        // Intel describes caches in leaf 4, AMD in 0x8000_001D; same format.
        let vendor_max = __cpuid_count(0, 0).eax;
        let ext_max = __cpuid_count(0x8000_0000, 0).eax;
        let leaf = if vendor_max >= 4 {
            4
        } else if ext_max >= 0x8000_001D {
            0x8000_001D
        } else {
            return 0;
        };
        let (mut best_level, mut best_size) = (0, 0u64);
        for sub in 0..16 {
            let r = __cpuid_count(leaf, sub);
            if r.eax & 0x1f == 0 {
                break; // no more cache descriptors
            }
            let level = (r.eax >> 5) & 0x7;
            let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
            let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
            let line = u64::from(r.ebx & 0xfff) + 1;
            let sets = u64::from(r.ecx) + 1;
            let size = ways * partitions * line * sets;
            if level > best_level || (level == best_level && size > best_size) {
                (best_level, best_size) = (level, size);
            }
        }
        best_size
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

/// Toolchain that built this binary.
pub const RUSTC_VERSION: &str = env!("BENCH_RUSTC_VERSION");
/// Source revision this binary was built from ("unknown" outside git).
pub const GIT_COMMIT: &str = env!("BENCH_GIT_COMMIT");
