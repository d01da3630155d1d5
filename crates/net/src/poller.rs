//! Readiness polling over the [`sys`](crate::sys) bindings: an epoll
//! backend (the default on Linux) and a `poll(2)` fallback sharing one
//! safe API, plus the pipe-based [`Waker`] other threads use to knock
//! a blocked [`Poller::wait`] loose.

use crate::sys;
use std::collections::BTreeMap;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::Arc;
use std::time::Duration;

/// Environment variable forcing the `poll(2)` fallback backend even
/// where epoll is available — set to a non-empty value other than `0`.
/// The loopback test suite runs once per backend through this switch:
/// CI runs the `rms-net` and `rms-serve` tests a second time with it set.
pub const FORCE_POLL_ENV: &str = "KRMS_NET_FORCE_POLL";

/// Identifies one registered descriptor across the poller and the
/// reactor's connection table. Tokens are never reused within a
/// reactor, so a stale readiness event can never alias a new
/// connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Which readiness directions a registration asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable.
    pub read: bool,
    /// Wake when the descriptor becomes writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };

    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The registration's token.
    pub token: Token,
    /// Readable (or peer half-closed — reads will observe EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup condition; the owner should read to the error
    /// and close.
    pub failed: bool,
}

enum Backend {
    Epoll {
        epfd: RawFd,
    },
    Poll {
        slots: BTreeMap<RawFd, (Token, Interest)>,
    },
}

/// A readiness poller: register descriptors with a token and an
/// interest set, then [`wait`](Poller::wait) for events.
pub struct Poller {
    backend: Backend,
    /// Scratch buffer for the epoll backend, reused across waits.
    epoll_buf: Vec<sys::EpollEvent>,
    /// Scratch buffer for the poll backend, reused across waits.
    poll_buf: Vec<sys::PollFd>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.backend {
            Backend::Epoll { epfd } => f.debug_struct("Poller").field("epoll", epfd).finish(),
            Backend::Poll { slots } => f
                .debug_struct("Poller")
                .field("poll_slots", &slots.len())
                .finish(),
        }
    }
}

fn epoll_bits(interest: Interest) -> u32 {
    // RDHUP rides along with read interest only: a half-closed peer on a
    // write-only registration (paused subscriber that has sent EOF) would
    // otherwise level-trigger a wakeup on every wait and spin the loop.
    let mut bits = 0;
    if interest.read {
        bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if interest.write {
        bits |= sys::EPOLLOUT;
    }
    bits
}

impl Poller {
    /// Creates a poller: epoll unless [`FORCE_POLL_ENV`] selects the
    /// `poll(2)` fallback (or epoll creation fails, e.g. on a kernel
    /// without it — the fallback then takes over silently).
    pub fn new() -> io::Result<Poller> {
        let force_poll =
            matches!(std::env::var(FORCE_POLL_ENV), Ok(v) if !v.is_empty() && v != "0");
        let backend = if force_poll {
            Backend::Poll {
                slots: BTreeMap::new(),
            }
        } else {
            match sys::epoll_create() {
                Ok(epfd) => Backend::Epoll { epfd },
                Err(_) => Backend::Poll {
                    slots: BTreeMap::new(),
                },
            }
        };
        Ok(Poller {
            backend,
            epoll_buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
            poll_buf: Vec::new(),
        })
    }

    /// Whether this poller runs on the `poll(2)` fallback.
    #[must_use]
    pub fn is_fallback(&self) -> bool {
        matches!(self.backend, Backend::Poll { .. })
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll { epfd } => sys::epoll_control(
                *epfd,
                sys::EPOLL_CTL_ADD,
                fd,
                epoll_bits(interest),
                token.0 as u64,
            ),
            Backend::Poll { slots } => {
                slots.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    /// Changes the interest set (and token) of a registered `fd`.
    pub fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll { epfd } => sys::epoll_control(
                *epfd,
                sys::EPOLL_CTL_MOD,
                fd,
                epoll_bits(interest),
                token.0 as u64,
            ),
            Backend::Poll { slots } => {
                slots.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    /// Removes `fd` from the poller. Must be called *before* the fd is
    /// closed (a closed fd auto-leaves epoll, but the fallback table
    /// would keep polling it and see `POLLNVAL`).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll { epfd } => sys::epoll_control(*epfd, sys::EPOLL_CTL_DEL, fd, 0, 0),
            Backend::Poll { slots } => {
                slots.remove(&fd);
                Ok(())
            }
        }
    }

    /// Blocks until readiness (or `timeout`), appending events to
    /// `out` (which is cleared first).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        match &mut self.backend {
            Backend::Epoll { epfd } => {
                let n = sys::epoll_wait_events(*epfd, &mut self.epoll_buf, timeout)?;
                for ev in &self.epoll_buf[..n] {
                    let events = ev.events;
                    out.push(Event {
                        token: Token(ev.data as usize),
                        readable: events & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                        writable: events & sys::EPOLLOUT != 0,
                        failed: events & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    });
                }
                Ok(())
            }
            Backend::Poll { slots } => {
                self.poll_buf.clear();
                self.poll_buf.extend(slots.iter().map(|(&fd, &(_, i))| {
                    let mut events = 0i16;
                    if i.read {
                        events |= sys::POLLIN;
                    }
                    if i.write {
                        events |= sys::POLLOUT;
                    }
                    sys::PollFd {
                        fd,
                        events,
                        revents: 0,
                    }
                }));
                let n = sys::poll_fds(&mut self.poll_buf, timeout)?;
                if n == 0 {
                    return Ok(());
                }
                for slot in &self.poll_buf {
                    if slot.revents == 0 {
                        continue;
                    }
                    if let Some(&(token, _)) = slots.get(&slot.fd) {
                        out.push(Event {
                            token,
                            readable: slot.revents & (sys::POLLIN | sys::POLLHUP) != 0,
                            writable: slot.revents & sys::POLLOUT != 0,
                            failed: slot.revents & (sys::POLLERR | sys::POLLHUP) != 0,
                        });
                    }
                }
                Ok(())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        if let Backend::Epoll { epfd } = self.backend {
            sys::close_fd(epfd);
        }
    }
}

#[derive(Debug)]
struct WakerInner {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Drop for WakerInner {
    fn drop(&mut self) {
        sys::close_fd(self.read_fd);
        sys::close_fd(self.write_fd);
    }
}

/// A self-pipe waker: any thread holding a clone can knock the
/// reactor's [`Poller::wait`] loose. Clones share the pipe; the fds
/// close when the last clone drops, so a late [`Waker::wake`] from a
/// lingering injector can never hit a recycled descriptor.
#[derive(Clone, Debug)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

impl Waker {
    /// Creates the pipe pair (both ends nonblocking).
    pub fn new() -> io::Result<Waker> {
        let (read_fd, write_fd) = sys::nonblocking_pipe()?;
        Ok(Waker {
            inner: Arc::new(WakerInner { read_fd, write_fd }),
        })
    }

    /// The fd to register with the poller (read interest).
    #[must_use]
    pub fn poll_fd(&self) -> RawFd {
        self.inner.read_fd
    }

    /// Signals the poller. A full pipe means a wake is already pending,
    /// which is exactly as good — the loop drains the pipe and then
    /// consumes every queued command, so coalesced wakes lose nothing.
    pub fn wake(&self) {
        let _ = sys::write_fd(self.inner.write_fd, b"w");
    }

    /// Drains pending wake bytes; called by the reactor when the waker
    /// token reports readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!(sys::read_fd(self.inner.read_fd, &mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn poller_pair() -> (Poller, TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (Poller::new().unwrap(), client, server)
    }

    #[test]
    fn readable_event_fires_on_data() {
        use std::os::unix::io::AsRawFd;
        let (mut poller, mut client, mut server) = poller_pair();
        poller
            .register(server.as_raw_fd(), Token(7), Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no data yet");
        client.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable);
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 2);
    }

    /// The backend follows [`FORCE_POLL_ENV`], so a test run with the
    /// variable set provably exercises the `poll(2)` fallback.
    #[test]
    fn backend_follows_force_poll_env() {
        let forced = std::env::var_os(FORCE_POLL_ENV).is_some_and(|v| !v.is_empty() && v != "0");
        assert_eq!(Poller::new().unwrap().is_fallback(), forced);
    }

    #[test]
    fn waker_knocks_wait_loose() {
        let (mut poller, _client, _server) = poller_pair();
        let waker = Waker::new().unwrap();
        poller
            .register(waker.poll_fd(), Token(0), Interest::READ)
            .unwrap();
        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(events.len(), 1);
        waker.drain();
        t.join().unwrap();
    }
}
