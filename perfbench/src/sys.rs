//! Peak resident memory of this process and of a child, from the
//! kernel's resource accounting (`getrusage`, `wait4`).

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set size of this process so far, in MB.
pub fn self_peak_rss_mb() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // kernel's 64-bit Linux layout; getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail for this process");
    usage.maxrss_kb as f64 / 1024.0
}

/// Waits for child `pid` to exit and returns `(exit status word, peak
/// resident set size in MB)`. The child must not be waited for by any
/// other means afterwards.
pub fn wait_peak_rss_mb(pid: u32) -> std::io::Result<(i32, f64)> {
    let mut usage = Rusage::default();
    let mut status = 0i32;
    let pid = i32::try_from(pid).map_err(|_| std::io::Error::other("pid out of range"))?;
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types wait4 expects; the call writes only within them.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((status, usage.maxrss_kb as f64 / 1024.0));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}
