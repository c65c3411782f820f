//! The few operating-system calls the generator needs that std lacks:
//! poll(2) over the client sockets and CPU placement, plus `VmRSS`.

use std::io;
use std::os::unix::io::RawFd;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// `cpu_set_t` is 1024 bits on Linux.
type CpuSet = [u64; 16];

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
}

/// Waits up to `timeout_ms` for any of `fds` to become readable (or hung
/// up). Returns one flag per fd; all false on timeout.
pub fn wait_readable(fds: &[RawFd], timeout_ms: i32) -> io::Result<Vec<bool>> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    loop {
        // SAFETY: `pfds` is a live, exclusively borrowed array of
        // `pfds.len()` `struct pollfd` values laid out per `repr(C)`.
        let n = unsafe { poll(pfds.as_mut_ptr(), pfds.len() as u64, timeout_ms) };
        if n >= 0 {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(pfds
        .iter()
        .map(|p| p.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0)
        .collect())
}

/// The CPUs this process may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its exact byte length.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return vec![0];
    }
    (0..1024)
        .filter(|&cpu| set[cpu / 64] & (1u64 << (cpu % 64)) != 0)
        .collect()
}

/// Pins the calling thread to one CPU. Threads and processes it creates
/// afterwards inherit the placement.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1u64 << (cpu % 64);
    // SAFETY: `set` is a valid `cpu_set_t`-sized buffer; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// `VmRSS` of a process in KiB (`pid` 0 means this process).
pub fn rss_kb(pid: u32) -> io::Result<u64> {
    let path = if pid == 0 {
        "/proc/self/status".to_string()
    } else {
        format!("/proc/{pid}/status")
    };
    let status = std::fs::read_to_string(path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmRSS line"))
}

/// User plus system CPU time of a process so far, in seconds (clock
/// ticks at the usual 100 Hz).
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|w| w.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => Ok((u + s) as f64 / 100.0),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "short /proc stat",
        )),
    }
}
