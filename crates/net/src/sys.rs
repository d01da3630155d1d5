//! The one `unsafe` corner of the workspace: thin `extern "C"`
//! declarations against the libc that `std` already links, covering
//! exactly the readiness surface the reactor needs — `epoll` (Linux),
//! a nonblocking pipe for the waker, socket buffer knobs, and the `RLIMIT_NOFILE` raise used by
//! the thousand-subscriber fan-out test.
//!
//! Everything else in `rms-net` is safe Rust; this module wraps each
//! call in a safe function that owns the invariant making it sound
//! (valid fd, correctly-sized out-buffer, null-terminated nothing —
//! these are all plain-old-data syscalls).
//!
//! Constants are the Linux generic ABI values (x86_64 and aarch64
//! agree on all of them); the workspace builds and runs on Linux only.
#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

// --- epoll ------------------------------------------------------------

/// `epoll_ctl` op: add a descriptor to the interest list.
pub const EPOLL_CTL_ADD: c_int = 1;
/// `epoll_ctl` op: remove a descriptor from the interest list.
pub const EPOLL_CTL_DEL: c_int = 2;
/// `epoll_ctl` op: change a registered descriptor's event mask.
pub const EPOLL_CTL_MOD: c_int = 3;
/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup: both directions closed (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Peer half-closed its write side (must be requested).
pub const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event`. The kernel ABI packs it on x86_64 (so the
/// 64-bit `data` field sits at offset 4); other architectures use
/// natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLL*`).
    pub events: u32,
    /// Caller-owned cookie; the reactor stores the connection token.
    pub data: u64,
}

// --- misc constants ---------------------------------------------------

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;
const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;
const RLIMIT_NOFILE: c_int = 7;
const EINTR: i32 = 4;

#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Converts an optional wait timeout to `epoll_wait`'s millisecond
/// argument: `None` blocks indefinitely, sub-ms
/// remainders round *up* so a timer never fires early.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis() + u128::from(d.subsec_nanos() % 1_000_000 != 0);
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        }
    }
}

/// Creates an epoll instance (close-on-exec).
pub fn epoll_create() -> io::Result<RawFd> {
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    // SAFETY: no pointers; the kernel returns a fresh fd or -1.
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Adds, modifies, or removes `fd` on the epoll set `epfd`.
pub fn epoll_control(epfd: RawFd, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    // SAFETY: `ev` is a live, correctly-laid-out epoll_event for the
    // duration of the call (DEL ignores it entirely).
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

/// Waits for readiness on `epfd`, filling `events` up to its capacity.
/// Returns the number of ready entries; retries `EINTR` internally.
pub fn epoll_wait_events(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout: Option<Duration>,
) -> io::Result<usize> {
    let max = c_int::try_from(events.len()).unwrap_or(c_int::MAX).max(1);
    loop {
        // SAFETY: `events` is a live buffer of `max` epoll_event slots.
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), max, timeout_ms(timeout)) };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.raw_os_error() == Some(EINTR) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Creates a pipe with both ends nonblocking — the reactor's waker.
/// Returns `(read_end, write_end)`.
pub fn nonblocking_pipe() -> io::Result<(RawFd, RawFd)> {
    let mut fds: [c_int; 2] = [-1, -1];
    // SAFETY: `fds` is a live 2-slot out-buffer.
    cvt(unsafe { pipe(fds.as_mut_ptr()) })?;
    for fd in fds {
        if let Err(e) = set_nonblocking(fd) {
            close_fd(fds[0]);
            close_fd(fds[1]);
            return Err(e);
        }
    }
    Ok((fds[0], fds[1]))
}

/// Puts `fd` into nonblocking mode via `fcntl`.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: plain fcntl on a caller-supplied fd; no pointers.
    let flags = cvt(unsafe { fcntl(fd, F_GETFL) })?;
    // SAFETY: as above.
    cvt(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) }).map(|_| ())
}

/// Closes `fd`, ignoring errors (the only caller-visible failure,
/// `EBADF`, would mean a double close we cannot recover anyway).
pub fn close_fd(fd: RawFd) {
    // SAFETY: closing a caller-owned fd.
    let _ = unsafe { close(fd) };
}

/// Reads up to `buf.len()` bytes from a raw fd (the waker pipe).
pub fn read_fd(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live out-buffer of the advertised length.
    let n = unsafe { read(fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        #[allow(clippy::cast_sign_loss)]
        Ok(n as usize)
    }
}

/// Writes up to `buf.len()` bytes to a raw fd (the waker pipe).
pub fn write_fd(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live in-buffer of the advertised length.
    let n = unsafe { write(fd, buf.as_ptr().cast::<c_void>(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        #[allow(clippy::cast_sign_loss)]
        Ok(n as usize)
    }
}

fn set_buffer(fd: RawFd, opt: c_int, bytes: usize) -> io::Result<()> {
    let val = c_int::try_from(bytes).unwrap_or(c_int::MAX);
    // SAFETY: `val` is a live c_int for the duration of the call and
    // optlen advertises exactly its size.
    cvt(unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            opt,
            std::ptr::addr_of!(val).cast::<c_void>(),
            std::mem::size_of::<c_int>() as u32,
        )
    })
    .map(|_| ())
}

/// Sets `SO_SNDBUF` on a socket (the kernel clamps to its minimum and
/// doubles for bookkeeping, per `socket(7)`). The reactor uses this to
/// bound how much a slow subscriber can hide in the kernel before the
/// userspace write queue — and its eviction policy — sees the pressure.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buffer(fd, SO_SNDBUF, bytes)
}

/// Sets `SO_RCVBUF` on a socket; see [`set_send_buffer`]. Test clients
/// shrink their receive window with this to provoke eviction quickly.
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buffer(fd, SO_RCVBUF, bytes)
}

/// Raises the soft `RLIMIT_NOFILE` toward `target`, capped at the hard
/// limit, and returns the resulting soft limit. The thousand-subscriber
/// fan-out test in `rms-serve` calls this before opening its sockets.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live out-buffer of the right layout.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    let want = target.min(lim.max);
    if want > lim.cur {
        let new = Rlimit {
            cur: want,
            max: lim.max,
        };
        // SAFETY: `new` is a live in-buffer of the right layout.
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &new) })?;
        return Ok(want);
    }
    Ok(lim.cur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_round_trip_and_nonblocking_empty_read() {
        let (r, w) = nonblocking_pipe().unwrap();
        let mut buf = [0u8; 8];
        // Empty nonblocking pipe: read must WouldBlock, not block.
        let err = read_fd(r, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(write_fd(w, b"x").unwrap(), 1);
        assert_eq!(read_fd(r, &mut buf).unwrap(), 1);
        assert_eq!(buf[0], b'x');
        close_fd(r);
        close_fd(w);
    }

    #[test]
    fn nofile_raise_reports_a_usable_limit() {
        let lim = raise_nofile_limit(1 << 20).unwrap();
        assert!(lim >= 256, "soft nofile limit suspiciously low: {lim}");
    }

    #[test]
    fn timeout_rounding_never_fires_early() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_millis(7))), 7);
        // 1.2 ms rounds up to 2 ms.
        assert_eq!(timeout_ms(Some(Duration::from_micros(1200))), 2);
    }
}
