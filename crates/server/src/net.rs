//! The network layer: TCP and Unix-domain-socket listeners over
//! [`ServerCore`].
//!
//! Each accepted connection gets two threads:
//!
//! * a **reader** that owns the connection's [`Ingest`] staging buffer and
//!   [`FrameReader`], accumulates bytes under a short read timeout and
//!   feeds whole frames to [`ServerCore::ingest_frame`]. The timeout means
//!   the reader re-checks the server's stop flag every few tens of
//!   milliseconds, so a hung client — connected but never sending a whole
//!   frame — cannot wedge shutdown. Between frames it waits while
//!   `CONN_WINDOW` of the connection's accepted submissions are still
//!   executing, so a burst backs up into the socket rather than into the
//!   tenant's admission budget.
//! * a **writer** that drains the connection's completion queue and writes
//!   batched response frames (one frame per drain, any number of
//!   completions each).
//!
//! All sockets run with read *and* write timeouts; a peer that neither
//! reads nor writes stalls its own connection threads at most one timeout
//! interval per check, never the server.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::core::{Completion, ConnShared, Ingest, ServerConfig, ServerCore, ServerReport};
use crate::protocol::{frame_bytes, FrameReader, PROTOCOL_VERSION, RESPONSE_MAGIC};

/// Socket read/write timeout; bounds every blocking call in the
/// connection threads so stop-flag checks stay frequent.
const IO_TIMEOUT: Duration = Duration::from_millis(50);
/// Writer wake interval while its completion queue is empty.
const WRITER_WAIT: Duration = Duration::from_millis(50);
/// Accepted submissions a connection may have executing before its reader
/// stops taking frames off the socket. Ingest costs microseconds per frame
/// and an execution tens to hundreds, so without a window a burst on one
/// connection is admitted whole and runs into the tenant's shedding budget;
/// with it the burst waits in the socket and is served in order. Half of
/// `AdmissionMode::shed_default`'s per-tenant budget: one connection alone
/// never sheds at the defaults, several still can.
const CONN_WINDOW: usize = 32;

/// A byte stream over either transport.
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain-socket connection.
    Unix(UnixStream),
}

impl Stream {
    fn apply_timeouts(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(Some(IO_TIMEOUT))?;
                s.set_write_timeout(Some(IO_TIMEOUT))
            }
            Stream::Unix(s) => {
                s.set_read_timeout(Some(IO_TIMEOUT))?;
                s.set_write_timeout(Some(IO_TIMEOUT))
            }
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Is this I/O error one of the timeout kinds (platform-dependent)?
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Response frames are small and written back-to-back; with
                // Nagle on, the second write of a burst stalls behind the
                // peer's delayed ACK (~40ms) and sinks batched throughput.
                s.set_nodelay(true)?;
                Stream::Tcp(s)
            }
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
        })
    }
}

/// A running server: core + accept loop + connection threads.
pub struct Server {
    core: Arc<ServerCore>,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl Server {
    /// Binds a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral port)
    /// and starts serving.
    pub fn bind_tcp(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(Self::start(
            Listener::Tcp(listener),
            config,
            Some(local),
            None,
        ))
    }

    /// Binds a Unix-domain-socket listener (unlinking any stale socket
    /// file first) and starts serving.
    pub fn bind_uds<P: AsRef<Path>>(path: P, config: ServerConfig) -> io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Ok(Self::start(
            Listener::Unix(listener),
            config,
            None,
            Some(path),
        ))
    }

    fn start(
        listener: Listener,
        config: ServerConfig,
        tcp_addr: Option<SocketAddr>,
        uds_path: Option<PathBuf>,
    ) -> Server {
        let core = Arc::new(ServerCore::new(config));
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("wsf-accept".into())
                .spawn(move || accept_loop(listener, &core, &stop, &conn_threads))
                .expect("spawn accept loop")
        };
        Server {
            core,
            stop,
            accept: Mutex::new(Some(accept)),
            conn_threads,
            tcp_addr,
            uds_path,
        }
    }

    /// The bound TCP address, when serving TCP.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound socket path, when serving UDS.
    pub fn uds_path(&self) -> Option<&Path> {
        self.uds_path.as_deref()
    }

    /// The transport-independent core (tenant reports, queue depth).
    pub fn core(&self) -> &ServerCore {
        &self.core
    }

    /// Graceful shutdown: reject new submissions, drain accepted ones,
    /// stop executors and runtime, then stop the network threads. Hung
    /// connections (including clients that never send a full frame) are
    /// detached at the deadline rather than joined, so they cannot wedge
    /// the shutdown.
    pub fn shutdown(self, timeout: Duration) -> ServerReport {
        let deadline = Instant::now() + timeout;
        // Phase 1: drain + stop execution, on 3/4 of the budget so the
        // socket threads keep the rest. Writers keep flushing completions
        // while this runs.
        let report = self.core.shutdown(timeout.mul_f64(0.75));
        // Phase 2: stop the network threads.
        self.stop.store(true, Ordering::Release);
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        if let Some(h) = self.accept.lock().unwrap().take() {
            handles.push(h);
        }
        handles.append(&mut self.conn_threads.lock().unwrap());
        for h in handles {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if h.is_finished() {
                let _ = h.join();
            }
            // else: detached — a wedged socket thread cannot wedge us.
        }
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
        report
    }
}

fn accept_loop(
    listener: Listener,
    core: &Arc<ServerCore>,
    stop: &Arc<AtomicBool>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    if listener.set_nonblocking().is_err() {
        return;
    }
    let mut next_id = 0usize;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(stream) => {
                next_id += 1;
                if stream.apply_timeouts().is_err() {
                    continue;
                }
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                let (ingest, conn) = core.connection();
                let reader = {
                    let core = Arc::clone(core);
                    let stop = Arc::clone(stop);
                    let conn = Arc::clone(&conn);
                    std::thread::Builder::new()
                        .name(format!("wsf-read-{next_id}"))
                        .spawn(move || reader_loop(stream, &core, &stop, &conn, ingest))
                };
                let writer = {
                    let stop = Arc::clone(stop);
                    let conn = Arc::clone(&conn);
                    std::thread::Builder::new()
                        .name(format!("wsf-write-{next_id}"))
                        .spawn(move || writer_loop(write_half, &stop, &conn))
                };
                let mut guard = conn_threads.lock().unwrap();
                if let Ok(h) = reader {
                    guard.push(h);
                }
                if let Ok(h) = writer {
                    guard.push(h);
                }
            }
            Err(ref e) if is_timeout(e) => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => break,
        }
    }
}

fn reader_loop(
    mut stream: Stream,
    core: &ServerCore,
    stop: &AtomicBool,
    conn: &Arc<ConnShared>,
    mut ingest: Ingest,
) {
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 4096];
    'outer: while !stop.load(Ordering::Acquire) {
        match stream.read(&mut buf) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                frames.push_bytes(&buf[..n]);
                loop {
                    match frames.poll_frame() {
                        Ok(true) => {
                            while !conn.wait_for_window(CONN_WINDOW, IO_TIMEOUT) {
                                if stop.load(Ordering::Acquire) {
                                    break 'outer;
                                }
                            }
                            if core
                                .ingest_frame(&mut ingest, conn, frames.words())
                                .is_err()
                            {
                                break 'outer; // protocol error: connection fatal
                            }
                        }
                        Ok(false) => break,
                        Err(_) => break 'outer,
                    }
                }
            }
            Err(ref e) if is_timeout(e) => continue, // re-check stop flag
            Err(_) => break,
        }
    }
    conn.close();
}

fn writer_loop(mut stream: Stream, stop: &AtomicBool, conn: &Arc<ConnShared>) {
    let mut pending: Vec<Completion> = Vec::new();
    let mut words: Vec<u64> = Vec::new();
    let mut bytes: Vec<u8> = Vec::new();
    loop {
        pending.clear();
        let n = conn.drain_completions(&mut pending, WRITER_WAIT);
        if n > 0 {
            words.clear();
            words.push(RESPONSE_MAGIC);
            words.push(PROTOCOL_VERSION);
            words.push(pending.len() as u64);
            for c in &pending {
                words.extend_from_slice(&[
                    c.request_id,
                    c.status,
                    c.misses,
                    c.deviations,
                    c.footprint,
                    c.micros,
                ]);
            }
            frame_bytes(&words, &mut bytes);
            if write_all_with_timeouts(&mut stream, &bytes, stop).is_err() {
                conn.close();
                return;
            }
        } else if stop.load(Ordering::Acquire) || !conn.is_open() {
            return;
        }
    }
}

/// `write_all` that tolerates timeout errors (re-checking `stop`) so a
/// peer that stops reading can only stall its own writer until shutdown.
fn write_all_with_timeouts(
    stream: &mut Stream,
    mut bytes: &[u8],
    stop: &AtomicBool,
) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "write zero")),
            Ok(n) => bytes = &bytes[n..],
            Err(ref e) if is_timeout(e) => {
                if stop.load(Ordering::Acquire) {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "stopping"));
                }
            }
            Err(e) => return Err(e),
        }
    }
    stream
        .flush()
        .or_else(|e| if is_timeout(&e) { Ok(()) } else { Err(e) })
}
