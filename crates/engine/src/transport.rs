//! The daemon transports: socket listeners in front of the engine.
//!
//! Two listeners share one session implementation:
//!
//! * [`SocketServer`] — a Unix-domain-socket listener (`qld serve --socket
//!   PATH`), Unix only;
//! * [`TcpServer`] — a TCP listener (`qld serve --tcp ADDR`), available on
//!   every platform.
//!
//! Each accepted connection is one serve session: the client writes
//! wire-format request lines (see `docs/WIRE.md`) and reads JSON-lines
//! responses, with request IDs scoped **per connection** (every client's
//! first request is `id` 0).  All connections multiplex their requests onto
//! the engine's shared worker pool through the shared bounded queue, so a
//! flood on one connection backpressures rather than starving the others, and
//! all connections share one result cache.
//!
//! On Linux, [`SocketServer::run`] and [`TcpServer::run`] serve every
//! connection from **one** epoll readiness loop (`crate::readiness`):
//! sessions are non-blocking state machines, so thousands of idle
//! connections cost no threads and a slow reader never pins a worker behind
//! a blocking write.  Where epoll is unavailable the same calls fall back to
//! the thread-per-session accept loop ([`run_session_loop`]), where each
//! connection's [`Engine::serve_with`] drives the same session state
//! machine from a blocking reader.  That loop also remains the
//! engine-independent path behind `run_with` for front ends like the fleet
//! router.

use crate::engine::{Engine, ServeOptions, ServeSummary};
use crate::lock_ignoring_poison;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// Aggregate counters of one listener-run lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered across all connections.
    pub requests: u64,
    /// Requests that produced an error response.
    pub errors: u64,
    /// Session threads that panicked.  Worker panics are contained as
    /// `internal` error responses, so this counts bugs in the session I/O
    /// path itself; every session is joined (at reap time or at shutdown), so
    /// no panic is silently detached.
    pub panicked: u64,
}

/// The stream operations a session transport needs beyond `Read + Write`:
/// duplicating the handle (separate read and write sides) and half-closing.
/// Implemented by `UnixStream` and `TcpStream`; public so other front ends
/// (the `qld-front` fleet router) can reuse the accept-loop machinery with
/// their own per-connection handlers.
pub trait SessionStream: Read + Write + Send + Sized + 'static {
    /// Duplicates the handle so one side can read while the other writes.
    fn try_clone_stream(&self) -> std::io::Result<Self>;
    /// Half- or full-closes the stream (`shutdown(2)` semantics).
    fn shutdown_side(&self, how: Shutdown) -> std::io::Result<()>;
}

#[cfg(unix)]
impl SessionStream for UnixStream {
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn shutdown_side(&self, how: Shutdown) -> std::io::Result<()> {
        self.shutdown(how)
    }
}

impl SessionStream for TcpStream {
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn shutdown_side(&self, how: Shutdown) -> std::io::Result<()> {
        self.shutdown(how)
    }
}

/// The accept loop shared by both listeners, specialised to engine sessions:
/// every connection is handed to [`Engine::serve_with`] via
/// [`serve_connection`].
fn run_accept_loop<S: SessionStream>(
    engine: &Arc<Engine>,
    options: ServeOptions,
    stop: &Arc<AtomicBool>,
    accept: impl FnMut() -> std::io::Result<S>,
) -> std::io::Result<TransportSummary> {
    let engine = Arc::clone(engine);
    let handler = Arc::new(move |stream: S| serve_connection(&engine, stream, &options));
    run_session_loop(stop, accept, handler)
}

/// The generic accept loop behind both listeners (and, via
/// [`SocketServer::run_with`] / [`TcpServer::run_with`], behind non-engine
/// front ends such as the fleet router).
///
/// Accepts connections until `stop` is raised, serving each on its own thread
/// through `handler` (which returns that session's answered-request tally).
/// Per-connection I/O errors end that connection only (its answered-request
/// counts are still aggregated), and transient `accept` failures (fd
/// exhaustion, aborted handshakes) are retried with backoff — the loop gives
/// up, returning the error, only when `accept` fails many times in a row.  On
/// shutdown, live connections stop being read — their in-flight responses are
/// still written — and are joined before the aggregate counters are returned.
pub fn run_session_loop<S, H>(
    stop: &Arc<AtomicBool>,
    mut accept: impl FnMut() -> std::io::Result<S>,
    handler: Arc<H>,
) -> std::io::Result<TransportSummary>
where
    S: SessionStream,
    H: Fn(S) -> ServeSummary + Send + Sync + 'static,
{
    let totals = Arc::new(Mutex::new(TransportSummary::default()));
    // Each entry: the session thread plus a read-shutdown handle for it.
    let mut sessions: Vec<(JoinHandle<()>, Option<S>)> = Vec::new();
    let mut accept_error: Option<std::io::Error> = None;
    // Transient accept failures must not kill a persistent daemon: back off and
    // retry, and only give up after this many failures in a row.
    const MAX_CONSECUTIVE_ACCEPT_ERRORS: u32 = 100;
    let mut consecutive_errors: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        let stream = match accept() {
            Ok(stream) => {
                consecutive_errors = 0;
                stream
            }
            Err(e) => {
                consecutive_errors += 1;
                if consecutive_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                    accept_error = Some(e);
                    break;
                }
                thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            break; // the shutdown handle's wake-up connection
        }
        lock_ignoring_poison(&totals).connections += 1;
        let peer = stream.try_clone_stream().ok();
        let handler = Arc::clone(&handler);
        let session_totals = Arc::clone(&totals);
        let handle = thread::spawn(move || {
            let summary = handler(stream);
            let mut t = lock_ignoring_poison(&session_totals);
            t.requests += summary.requests;
            t.errors += summary.errors;
        });
        sessions.push((handle, peer));
        // Reap finished sessions so the handle list stays bounded on long
        // daemon runs.  Reaping joins: a session thread that panicked (after
        // its counters were or were not aggregated) is observed and counted,
        // not silently detached with its panic lost.
        let mut live = Vec::with_capacity(sessions.len());
        for (handle, peer) in sessions {
            if handle.is_finished() {
                if handle.join().is_err() {
                    lock_ignoring_poison(&totals).panicked += 1;
                }
            } else {
                live.push((handle, peer));
            }
        }
        sessions = live;
    }
    // Drain: half-close live connections so their sessions see input EOF
    // (blocked reads return immediately), then wait for them to finish
    // writing.
    for (handle, peer) in sessions {
        if let Some(peer) = peer {
            let _ = peer.shutdown_side(Shutdown::Read);
        }
        if handle.join().is_err() {
            lock_ignoring_poison(&totals).panicked += 1;
        }
    }
    let summary = *lock_ignoring_poison(&totals);
    match accept_error {
        Some(e) => Err(e),
        None => Ok(summary),
    }
}

/// Arms process signals to trip a server shutdown: installs counting handlers
/// for every signal in `signals` (via the offline `signal` shim — handlers
/// only bump an atomic, nothing unsafe runs in signal context) and spawns a
/// detached watcher thread that polls the delivery flags and calls `trip`
/// once, with the first signal observed, as soon as any of them arrives.
///
/// This is how `qld serve --socket/--tcp` turns `kill -TERM` (or Ctrl-C) into
/// a graceful drain: `trip` captures the listener's shutdown handle, whose
/// `shutdown()` raises the stop flag and pokes the accept loop awake, after
/// which live connections are half-closed, drained, and joined as usual.
///
/// **Escalation:** a *further* signal delivery after `trip` has fired exits
/// the process immediately (with the conventional `128 + signum` status),
/// skipping the drain and any shutdown-time cache snapshot — an operator
/// whose daemon is stuck behind a long-running request can always force it
/// down with a second Ctrl-C / `kill -TERM` instead of reaching for
/// `SIGKILL`.
///
/// Errors if a handler cannot be installed (e.g. an unsupported platform);
/// callers should degrade to running without signal-driven shutdown.  The
/// watcher thread sleeps in ~25 ms intervals for the daemon's remaining
/// lifetime; if no signal ever arrives it parks until process exit.
pub fn trip_on_signals(
    signals: &[signal::Signal],
    trip: impl FnOnce(signal::Signal) + Send + 'static,
) -> std::io::Result<()> {
    let flags: Vec<signal::SignalFlag> = signals
        .iter()
        .map(|&s| signal::install(s))
        .collect::<std::io::Result<_>>()?;
    thread::spawn(move || {
        let poll = std::time::Duration::from_millis(25);
        let raised = loop {
            if let Some(raised) = flags.iter().find(|f| f.is_raised()) {
                break raised.signal();
            }
            thread::sleep(poll);
        };
        // Snapshot the per-signal counts before tripping: deliveries beyond
        // these mean the operator asked again and wants out *now*.
        let seen: Vec<u64> = flags.iter().map(signal::SignalFlag::deliveries).collect();
        trip(raised);
        loop {
            if let Some(again) = flags
                .iter()
                .zip(&seen)
                .find(|(flag, &seen)| flag.deliveries() > seen)
                .map(|(flag, _)| flag.signal())
            {
                eprintln!(
                    "received {} again during shutdown; exiting immediately without draining",
                    again.name()
                );
                std::process::exit(128 + again.number());
            }
            thread::sleep(poll);
        }
    });
    Ok(())
}

/// Cooperative shutdown switch for a running [`SocketServer`].
#[cfg(unix)]
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    path: PathBuf,
}

#[cfg(unix)]
impl ShutdownHandle {
    /// Asks the accept loop to stop.  Live connections are half-closed on
    /// their read side — responses already in flight are still written — and
    /// joined before [`SocketServer::run`] returns.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the (blocking) accept call with a throwaway connection; the
        // accept loop re-checks the flag after every accept.
        let _ = UnixStream::connect(&self.path);
    }
}

/// A Unix-domain-socket front end serving wire-format sessions.
#[cfg(unix)]
#[derive(Debug)]
pub struct SocketServer {
    listener: UnixListener,
    path: PathBuf,
    stop: Arc<AtomicBool>,
}

#[cfg(unix)]
impl SocketServer {
    /// Binds the listener at `path`.
    ///
    /// A stale socket file left behind by a crashed daemon is removed and
    /// rebound; a socket another process is still listening on is reported as
    /// `AddrInUse` instead (probed by connecting to it).  The probe-then-bind
    /// is not atomic: two daemons racing for the same stale path can both
    /// pass the probe, and the last binder wins — give concurrent daemons
    /// distinct paths.
    pub fn bind(path: impl AsRef<Path>) -> std::io::Result<SocketServer> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            if UnixStream::connect(&path).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("{} is already being served", path.display()),
                ));
            }
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        Ok(SocketServer {
            listener,
            path,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The filesystem path the listener is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A switch that makes [`SocketServer::run`] return.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
            path: self.path.clone(),
        }
    }

    /// Serves sessions until shut down (epoll readiness loop where available,
    /// thread-per-session accept loop otherwise — see the module docs) and
    /// removes the socket file afterwards.
    pub fn run(
        self,
        engine: &Arc<Engine>,
        options: ServeOptions,
    ) -> std::io::Result<TransportSummary> {
        let result =
            match crate::readiness::serve_ready(&self.listener, &self.stop, engine, &options) {
                Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                    run_accept_loop(engine, options, &self.stop, || {
                        self.listener.accept().map(|(stream, _addr)| stream)
                    })
                }
                outcome => outcome,
            };
        drop(self.listener);
        let _ = std::fs::remove_file(&self.path);
        result
    }

    /// Runs the accept loop with a caller-supplied per-connection handler
    /// instead of an engine session — same lifecycle as [`SocketServer::run`]
    /// (backoff, drain on shutdown, socket-file cleanup), different payload.
    /// This is how the fleet router serves proxy sessions.
    pub fn run_with<H>(self, handler: Arc<H>) -> std::io::Result<TransportSummary>
    where
        H: Fn(UnixStream) -> ServeSummary + Send + Sync + 'static,
    {
        let result = run_session_loop(
            &self.stop,
            || self.listener.accept().map(|(stream, _addr)| stream),
            handler,
        );
        drop(self.listener);
        let _ = std::fs::remove_file(&self.path);
        result
    }
}

/// Cooperative shutdown switch for a running [`TcpServer`].
#[derive(Debug, Clone)]
pub struct TcpShutdownHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl TcpShutdownHandle {
    /// Asks the accept loop to stop (same drain semantics as
    /// [`ShutdownHandle::shutdown`]).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The wake-up connection must target a routable address: a listener
        // bound to a wildcard (0.0.0.0 / [::]) is not connectable by that
        // name on every platform, so aim at the matching loopback instead.
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(addr);
    }
}

/// A TCP front end serving wire-format sessions — a drop-in next to
/// [`SocketServer`] for network clients (`qld serve --tcp ADDR`).
///
/// The wire protocol carries no authentication: bind loopback addresses
/// unless the network path is otherwise protected.
#[derive(Debug)]
pub struct TcpServer {
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl TcpServer {
    /// Binds the listener at `addr` (e.g. `"127.0.0.1:7878"`; port `0` picks
    /// a free port, see [`TcpServer::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpServer {
            listener,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the listener is actually bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A switch that makes [`TcpServer::run`] return.
    pub fn shutdown_handle(&self) -> TcpShutdownHandle {
        TcpShutdownHandle {
            stop: Arc::clone(&self.stop),
            addr: self.addr,
        }
    }

    /// Serves sessions until shut down (same semantics as
    /// [`SocketServer::run`], minus the socket-file cleanup).
    pub fn run(
        self,
        engine: &Arc<Engine>,
        options: ServeOptions,
    ) -> std::io::Result<TransportSummary> {
        #[cfg(unix)]
        match crate::readiness::serve_ready(&self.listener, &self.stop, engine, &options) {
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {}
            outcome => return outcome,
        }
        run_accept_loop(engine, options, &self.stop, || {
            self.listener.accept().map(|(stream, _addr)| stream)
        })
    }

    /// Runs the accept loop with a caller-supplied per-connection handler
    /// (see [`SocketServer::run_with`]).
    pub fn run_with<H>(self, handler: Arc<H>) -> std::io::Result<TransportSummary>
    where
        H: Fn(TcpStream) -> ServeSummary + Send + Sync + 'static,
    {
        run_session_loop(
            &self.stop,
            || self.listener.accept().map(|(stream, _addr)| stream),
            handler,
        )
    }
}

/// One connection's session: line-buffered reads from the stream, writes back
/// onto it, then a write-side shutdown so the client sees EOF.  Sessions that
/// die on an I/O error still report the responses that made it onto the wire
/// (counted by [`CountingWriter`]).
fn serve_connection<S: SessionStream>(
    engine: &Engine,
    stream: S,
    options: &ServeOptions,
) -> ServeSummary {
    let _connection = engine.track_connection();
    let reader = match stream.try_clone_stream() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return ServeSummary::default(),
    };
    let mut writer = CountingWriter::new(stream);
    let result = engine.serve_with(reader, &mut writer, options);
    let _ = writer.inner.shutdown_side(Shutdown::Write);
    match result {
        Ok(summary) => summary,
        Err(_) => writer.summary(),
    }
}

/// Counts the complete response lines (and error responses among them)
/// actually written to a client, as a fallback tally for sessions whose
/// `serve_with` call ends in an I/O error.
struct CountingWriter<W> {
    inner: W,
    line: Vec<u8>,
    summary: ServeSummary,
}

impl<W> CountingWriter<W> {
    fn new(inner: W) -> Self {
        CountingWriter {
            inner,
            line: Vec::new(),
            summary: ServeSummary::default(),
        }
    }

    fn summary(&self) -> ServeSummary {
        self.summary
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let contains = |line: &[u8], needle: &[u8]| line.windows(needle.len()).any(|w| w == needle);
        let written = self.inner.write(buf)?;
        for &byte in &buf[..written] {
            if byte == b'\n' {
                // Chunk frames are pieces of one in-flight request, not
                // answered requests: only terminal lines are tallied.
                if !contains(&self.line, b"\"frame\":\"chunk\"") {
                    self.summary.requests += 1;
                    if contains(&self.line, b"\"ok\":false") {
                        self.summary.errors += 1;
                    }
                }
                self.line.clear();
            } else {
                self.line.push(byte);
            }
        }
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use std::io::{BufRead, Write};

    #[cfg(unix)]
    fn temp_socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qld-{}-{}.sock", tag, std::process::id()))
    }

    fn small_engine(workers: usize) -> Arc<Engine> {
        Arc::new(Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        }))
    }

    #[cfg(unix)]
    #[test]
    fn stale_socket_files_are_rebound() {
        let path = temp_socket_path("stale");
        let _ = std::fs::remove_file(&path);
        // Leave a stale file behind by binding and dropping without running.
        {
            let server = SocketServer::bind(&path).unwrap();
            drop(server);
        }
        assert!(path.exists(), "dropping a never-run server leaves the file");
        let server = SocketServer::bind(&path).unwrap();
        drop(server);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn live_sockets_are_not_stolen() {
        let path = temp_socket_path("live");
        let _ = std::fs::remove_file(&path);
        let engine = small_engine(1);
        let server = SocketServer::bind(&path).unwrap();
        let handle = server.shutdown_handle();
        let engine_ref = Arc::clone(&engine);
        let runner = thread::spawn(move || server.run(&engine_ref, ServeOptions::default()));
        // The listener is bound (connectable) from `bind` time, so a second
        // bind must refuse to steal the path.
        let err = SocketServer::bind(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        handle.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.requests, 0);
        assert!(!path.exists(), "run() removes the socket file on shutdown");
    }

    #[cfg(unix)]
    #[test]
    fn one_connection_round_trips() {
        let path = temp_socket_path("round");
        let _ = std::fs::remove_file(&path);
        let engine = small_engine(2);
        let server = SocketServer::bind(&path).unwrap();
        let handle = server.shutdown_handle();
        let engine_ref = Arc::clone(&engine);
        let runner = thread::spawn(move || server.run(&engine_ref, ServeOptions::default()));

        let mut stream = UnixStream::connect(&path).unwrap();
        stream
            .write_all(b"check 0,1;2,3 0,2;0,3;1,2;1,3 id=one\nstats\n")
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let reader = BufReader::new(stream);
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"dual\":true") && lines[0].contains("\"client_id\":\"one\""));
        assert!(lines[1].contains("\"kind\":\"stats\""));

        handle.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.errors, 0);
    }

    #[cfg(unix)]
    #[test]
    fn shutdown_drains_connections_that_stay_open() {
        let path = temp_socket_path("drain");
        let _ = std::fs::remove_file(&path);
        let engine = small_engine(2);
        let server = SocketServer::bind(&path).unwrap();
        let handle = server.shutdown_handle();
        let engine_ref = Arc::clone(&engine);
        let runner = thread::spawn(move || server.run(&engine_ref, ServeOptions::default()));

        // A client that answers one request and then just sits on the open
        // connection must not hang shutdown.
        let mut stream = UnixStream::connect(&path).unwrap();
        stream.write_all(b"check 0,1 0;1 id=live\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"client_id\":\"live\""), "{line}");

        handle.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.errors, 0);
        // The daemon half-closed the connection: the client now sees EOF.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    }

    #[test]
    fn tcp_connection_round_trips() {
        let engine = small_engine(2);
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let engine_ref = Arc::clone(&engine);
        let runner = thread::spawn(move || server.run(&engine_ref, ServeOptions::default()));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"check 0,1;2,3 0,2;0,3;1,2;1,3 id=tcp\nstats\n")
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let reader = BufReader::new(stream);
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"dual\":true") && lines[0].contains("\"client_id\":\"tcp\""));
        assert!(lines[1].contains("\"kind\":\"stats\""));

        handle.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn tcp_serves_concurrent_connections() {
        let engine = small_engine(2);
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let engine_ref = Arc::clone(&engine);
        let runner = thread::spawn(move || server.run(&engine_ref, ServeOptions::default()));

        let clients: Vec<_> = (0..3)
            .map(|c| {
                thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    writeln!(stream, "check 0,1 0;1 id=c{c}").unwrap();
                    stream.shutdown(Shutdown::Write).unwrap();
                    let mut lines = BufReader::new(stream).lines();
                    let line = lines.next().unwrap().unwrap();
                    assert!(line.contains(&format!("\"client_id\":\"c{c}\"")), "{line}");
                    assert!(line.contains("\"dual\":true"), "{line}");
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }

        handle.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.connections, 3);
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn tcp_shutdown_drains_open_connections() {
        let engine = small_engine(1);
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let engine_ref = Arc::clone(&engine);
        let runner = thread::spawn(move || server.run(&engine_ref, ServeOptions::default()));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"check 0,1 0;1 id=open\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"client_id\":\"open\""), "{line}");

        handle.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.requests, 1);
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "client sees EOF");
    }

    #[test]
    fn tcp_wildcard_bind_still_shuts_down() {
        let engine = small_engine(1);
        let server = TcpServer::bind("0.0.0.0:0").unwrap();
        let addr = server.local_addr();
        assert!(addr.ip().is_unspecified());
        let handle = server.shutdown_handle();
        let engine_ref = Arc::clone(&engine);
        let runner = thread::spawn(move || server.run(&engine_ref, ServeOptions::default()));
        handle.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.requests, 0);
    }

    #[test]
    fn panicked_sessions_are_joined_and_counted() {
        // A stream whose reads panic kills its session thread mid-flight; the
        // accept loop must join the corpse and count the panic instead of
        // detaching the handle and losing it.
        struct PanicStream;
        impl Read for PanicStream {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                panic!("session I/O blew up");
            }
        }
        impl Write for PanicStream {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        impl SessionStream for PanicStream {
            fn try_clone_stream(&self) -> std::io::Result<Self> {
                Ok(PanicStream)
            }
            fn shutdown_side(&self, _how: Shutdown) -> std::io::Result<()> {
                Ok(())
            }
        }

        let engine = small_engine(1);
        let stop = Arc::new(AtomicBool::new(false));
        let mut handed_out = false;
        let summary = {
            let stop_inner = Arc::clone(&stop);
            run_accept_loop(&engine, ServeOptions::default(), &stop, move || {
                if handed_out {
                    // One doomed connection is enough: stop the loop (the
                    // error is transient, so the loop re-checks the flag).
                    stop_inner.store(true, Ordering::SeqCst);
                    Err(std::io::Error::other("no more connections"))
                } else {
                    handed_out = true;
                    Ok(PanicStream)
                }
            })
            .unwrap()
        };
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.requests, 0);
        assert_eq!(summary.panicked, 1, "the session panic must be surfaced");
    }

    #[test]
    fn counting_writer_tallies_complete_lines_only() {
        let mut w = CountingWriter::new(Vec::new());
        w.write_all(b"{\"id\":0,\"ok\":true}\n").unwrap();
        w.write_all(b"{\"id\":1,\"ok\":false,\"code\":\"parse\"}\n")
            .unwrap();
        w.write_all(b"{\"id\":2,\"ok\":true").unwrap(); // incomplete line
        let summary = w.summary();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn errored_sessions_still_count_answered_requests() {
        // Fabricate the error path directly: a session whose read side fails
        // after one good request.  `serve_connection` is private, so exercise
        // the fallback through `CountingWriter` + `serve_with` the way it
        // does.
        struct FailAfterFirstLine {
            line: &'static [u8],
            sent: bool,
        }
        impl std::io::Read for FailAfterFirstLine {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.sent {
                    return Err(std::io::Error::other("peer reset"));
                }
                self.sent = true;
                buf[..self.line.len()].copy_from_slice(self.line);
                Ok(self.line.len())
            }
        }
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let mut writer = CountingWriter::new(Vec::new());
        let reader = BufReader::new(FailAfterFirstLine {
            line: b"check 0,1 0;1\nfrobnicate\n",
            sent: false,
        });
        let result = engine.serve_with(reader, &mut writer, &ServeOptions::default());
        assert!(result.is_err());
        // Both responses were written before the read error surfaced, and the
        // fallback tally sees them.
        assert_eq!(writer.summary().requests, 2);
        assert_eq!(writer.summary().errors, 1);
    }
}
