//! What the process cost the machine: CPU time and context switches, read
//! through `getrusage(2)`, and the heap in use, read through `mallinfo2(3)`.
//!
//! `/proc/self/task/*` would lose the counts of threads that have already
//! exited; `RUSAGE_SELF` keeps them.

/// A reading of the process's resource usage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User-mode CPU seconds, all threads.
    pub user_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches, all threads.
    pub ctx_switches: u64,
}

impl Usage {
    /// The usage accrued since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    /// Two stretches of usage added up.
    pub fn plus(&self, other: &Usage) -> Usage {
        Usage {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
            ctx_switches: self.ctx_switches + other.ctx_switches,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// `struct mallinfo2` of glibc 2.33 and later: ten `size_t` fields.
#[repr(C)]
#[derive(Default)]
struct Mallinfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

/// Bytes the allocator has handed out and not got back, in all arenas and
/// in mappings of their own, MiB.
///
/// The resident set would be the natural figure, but for the same work it
/// differed by half from run to run: freed deployments linger in whichever
/// arenas their threads happened to allocate from, trimmed or not. What is
/// in use does not depend on that.
pub fn heap_in_use_mib() -> f64 {
    // SAFETY: `mallinfo2` takes no argument, returns its struct by value
    // (laid out as above since glibc 2.33) and only reads allocator state
    // under the allocator's own locks.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / (1024.0 * 1024.0)
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as 64-bit Linux lays it out: two timevals, fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallinfo2() -> Mallinfo2;
}

const RUSAGE_SELF: i32 = 0;

/// Read the process's usage so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `Rusage` whose layout matches the
    // kernel's `struct rusage` on 64-bit Linux (the only target this file
    // compiles for), and `getrusage` writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        ctx_switches: (ru.nvcsw + ru.nivcsw).max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work() {
        let before = usage();
        let mut buf = vec![0u8; 8 << 20];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31);
        }
        std::hint::black_box(&buf);
        let after = usage();
        assert!(heap_in_use_mib() >= 8.0, "`buf` is still alive");
        assert!(after.cpu_s() >= before.cpu_s());
        let delta = after.since(&before);
        assert!(delta.user_s >= 0.0 && delta.sys_s >= 0.0);
    }
}
