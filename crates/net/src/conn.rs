//! Per-connection state: a cursor-based line reader and a bounded
//! write queue of shared [`Arc<[u8]>`] segments.
//!
//! The write queue stores reference-counted buffers rather than copied
//! bytes, so a delta encoded once per publish costs each subscriber an
//! `Arc` clone plus queue bookkeeping — never a re-encode or a memcpy
//! (until the kernel actually accepts the bytes).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use crate::poller::Token;

/// Hard cap on a single inbound line. A peer that streams this many
/// bytes without a newline is not speaking the protocol; the reactor
/// closes the connection.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Bytes [`Conn::fill`] asks the socket for per `read`.
const READ_CHUNK: usize = 16 * 1024;

/// Outcome of pulling one line out of the read buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum LineStep {
    /// A complete line (without the trailing `\n`, `\r\n` trimmed).
    Line(String),
    /// No complete line buffered yet.
    Incomplete,
    /// The peer overran [`MAX_LINE_BYTES`] or sent invalid UTF-8.
    Malformed,
}

/// A bounded FIFO of shared write segments. `bytes` counts unwritten
/// bytes only — the front segment's already-flushed prefix is excluded.
#[derive(Debug, Default)]
pub struct WriteQueue {
    segments: VecDeque<(Arc<[u8]>, usize)>,
    bytes: usize,
}

impl WriteQueue {
    /// Unwritten bytes currently queued.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Appends a shared segment without any capacity check (the
    /// reactor enforces the cap so eviction notices can bypass it).
    pub fn enqueue(&mut self, segment: &Arc<[u8]>) {
        if segment.is_empty() {
            return;
        }
        self.bytes += segment.len();
        self.segments.push_back((Arc::clone(segment), 0));
    }

    /// Drops everything queued, returning how many bytes were pending.
    pub fn clear(&mut self) -> usize {
        self.segments.clear();
        std::mem::take(&mut self.bytes)
    }

    /// Writes as much as the socket accepts. Returns the number of
    /// bytes flushed; `WouldBlock` is success (partial flush).
    pub fn flush_into(&mut self, stream: &mut TcpStream) -> io::Result<usize> {
        let mut flushed = 0usize;
        while let Some((segment, offset)) = self.segments.front_mut() {
            match stream.write(&segment[*offset..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    flushed += n;
                    self.bytes -= n;
                    *offset += n;
                    if *offset == segment.len() {
                        self.segments.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(flushed)
    }
}

/// Lifecycle of a reactor-owned connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnPhase {
    /// Normal request/response (or streaming) service.
    Open,
    /// Queue overflow: reads stopped, a final `ERR` line is queued,
    /// and the connection closes once it flushes or the linger
    /// deadline passes.
    Evicted,
    /// Graceful close requested: flush the queue, then close.
    Closing,
}

/// One nonblocking connection: socket, read cursor, write queue, and
/// lifecycle flags. All I/O is driven by the reactor on readiness.
#[derive(Debug)]
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Poller token for this connection.
    pub token: Token,
    rbuf: Vec<u8>,
    rpos: usize,
    /// Pending outbound segments.
    pub queue: WriteQueue,
    /// Lifecycle phase.
    pub phase: ConnPhase,
    /// Reads intentionally paused by the handler (backpressure or
    /// push-mode subscriber).
    pub paused: bool,
    /// Peer sent EOF (half-close); no more lines will arrive.
    pub eof: bool,
    /// The handler's `on_eof` callback already fired for this
    /// connection (it fires at most once).
    pub eof_handled: bool,
    /// Deadline for force-closing an evicted/closing connection whose
    /// peer never drains the final bytes.
    pub linger_deadline: Option<Instant>,
    /// Interest currently registered with the poller: (read, write).
    pub registered: (bool, bool),
}

impl Conn {
    /// Wraps an already-nonblocking socket.
    #[must_use]
    pub fn new(stream: TcpStream, token: Token) -> Conn {
        Conn {
            stream,
            token,
            rbuf: Vec::new(),
            rpos: 0,
            queue: WriteQueue::default(),
            phase: ConnPhase::Open,
            paused: false,
            eof: false,
            eof_handled: false,
            linger_deadline: None,
            registered: (true, false),
        }
    }

    /// Whether this connection still wants read readiness events.
    #[must_use]
    pub fn wants_read(&self) -> bool {
        self.phase == ConnPhase::Open && !self.paused && !self.eof
    }

    /// Reads what is available into the buffer, until the socket would
    /// block or the unconsumed input exceeds [`MAX_LINE_BYTES`]: past
    /// that, [`Conn::take_line`] either finds lines in it or refuses the
    /// connection, and since readiness is level-triggered the rest is
    /// read on the next wakeup. So one call buffers at most
    /// `MAX_LINE_BYTES` plus one read chunk, however fast the peer
    /// sends. Returns `true` if the connection should be torn down
    /// (hard error). Sets [`Conn::eof`] on clean peer shutdown.
    pub fn fill(&mut self) -> bool {
        // Drop the consumed prefix first: a buffer that always ends
        // mid-line is never cleared by `take_line`.
        if self.rpos > 0 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        let mut chunk = [0u8; READ_CHUNK];
        while self.rbuf.len() <= MAX_LINE_BYTES {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return false;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        false
    }

    /// Extracts the next complete line, advancing the cursor. A line
    /// longer than [`MAX_LINE_BYTES`] is `Malformed` whether or not its
    /// newline has arrived, so the cap does not depend on how the peer
    /// split its writes. The buffer is compacted only once fully
    /// consumed, so a pump over many buffered lines is O(total bytes),
    /// not O(lines²).
    pub fn take_line(&mut self) -> LineStep {
        let pending = &self.rbuf[self.rpos..];
        match pending.iter().position(|&b| b == b'\n') {
            Some(nl) if nl > MAX_LINE_BYTES => LineStep::Malformed,
            Some(nl) => {
                let mut end = nl;
                if end > 0 && pending[end - 1] == b'\r' {
                    end -= 1;
                }
                let line = match std::str::from_utf8(&pending[..end]) {
                    Ok(s) => s.to_owned(),
                    Err(_) => return LineStep::Malformed,
                };
                self.rpos += nl + 1;
                if self.rpos == self.rbuf.len() {
                    self.rbuf.clear();
                    self.rpos = 0;
                }
                LineStep::Line(line)
            }
            None if pending.len() > MAX_LINE_BYTES => LineStep::Malformed,
            None => {
                if self.rpos > 0 && self.rpos == self.rbuf.len() {
                    self.rbuf.clear();
                    self.rpos = 0;
                }
                LineStep::Incomplete
            }
        }
    }

    /// Whether unconsumed inbound bytes remain buffered (a paused
    /// connection may hold complete lines the pump must revisit on
    /// resume without waiting for fresh readiness).
    #[must_use]
    pub fn has_buffered_input(&self) -> bool {
        self.rpos < self.rbuf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn sock_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn line_extraction_handles_partials_and_crlf() {
        let (mut client, server) = sock_pair();
        let mut conn = Conn::new(server, Token(1));
        client.write_all(b"QUERY\r\nSTA").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!conn.fill());
        assert_eq!(conn.take_line(), LineStep::Line("QUERY".into()));
        assert_eq!(conn.take_line(), LineStep::Incomplete);
        client.write_all(b"TS\n").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!conn.fill());
        assert_eq!(conn.take_line(), LineStep::Line("STATS".into()));
        assert!(!conn.has_buffered_input());
    }

    #[test]
    fn oversized_line_is_malformed() {
        let (mut client, server) = sock_pair();
        let mut conn = Conn::new(server, Token(1));
        let blob = vec![b'x'; MAX_LINE_BYTES + 2];
        client.write_all(&blob).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!conn.fill());
        assert_eq!(conn.take_line(), LineStep::Malformed);
    }

    /// Sends `len` bytes of `x` and a newline in one write, then takes
    /// the first step that is not `Incomplete`.
    fn one_write_line(len: usize) -> LineStep {
        let (mut client, server) = sock_pair();
        let mut conn = Conn::new(server, Token(1));
        let mut line = vec![b'x'; len];
        line.push(b'\n');
        client.write_all(&line).unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            assert!(!conn.fill());
            match conn.take_line() {
                LineStep::Incomplete if Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                step => return step,
            }
        }
    }

    /// The cap holds for a line whose newline arrives in the same write:
    /// one byte over is refused, exactly the cap is served.
    #[test]
    fn a_line_over_the_cap_is_malformed_with_its_newline() {
        assert_eq!(one_write_line(MAX_LINE_BYTES + 1), LineStep::Malformed);
        assert_eq!(
            one_write_line(MAX_LINE_BYTES),
            LineStep::Line("x".repeat(MAX_LINE_BYTES))
        );
    }

    /// A peer streaming without a newline cannot grow the buffer past
    /// the line cap plus one read chunk in one `fill`.
    #[test]
    fn one_fill_buffers_at_most_a_line_past_the_cap() {
        let (mut client, server) = sock_pair();
        let mut conn = Conn::new(server, Token(1));
        let writer = std::thread::spawn(move || {
            let blob = vec![b'x'; 1 << 20];
            // Runs until the reader's socket closes.
            while client.write_all(&blob).is_ok() {}
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!conn.fill());
        assert!(
            conn.rbuf.len() <= MAX_LINE_BYTES + READ_CHUNK,
            "one fill buffered {} bytes",
            conn.rbuf.len()
        );
        assert_eq!(conn.take_line(), LineStep::Malformed);
        drop(conn);
        writer.join().unwrap();
    }

    #[test]
    fn write_queue_tracks_partial_flush() {
        let (_client, server) = sock_pair();
        let mut queue = WriteQueue::default();
        let seg: Arc<[u8]> = Arc::from(&b"hello\n"[..]);
        queue.enqueue(&seg);
        queue.enqueue(&seg);
        assert_eq!(queue.bytes(), 12);
        let mut stream = server;
        let n = queue.flush_into(&mut stream).unwrap();
        assert_eq!(n, 12);
        assert!(queue.is_empty());
        assert_eq!(queue.bytes(), 0);
    }
}
