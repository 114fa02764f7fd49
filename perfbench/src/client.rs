//! Load generation over a line-oriented connection: one closed-loop client
//! per connection, with a fixed window of outstanding requests, correlating
//! answers by their echoed `id=` token.

use crate::gen::Item;
use crate::trace::{LayerSample, Recorder, Replayer};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// The measured window and, for a traced run, which parts of it are traced.
///
/// A traced run alternates untraced and traced quarters of the window, so
/// the gap between them (`trace.overhead_ratio`) is measured under the same
/// cache state and load.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub t0: Instant,
    pub t_end: Instant,
    pub trace: bool,
}

impl Clock {
    pub fn new(warmup: Duration, seconds: f64, trace: bool) -> Clock {
        let t0 = Instant::now() + warmup;
        Clock {
            t0,
            t_end: t0 + Duration::from_secs_f64(seconds),
            trace,
        }
    }

    pub fn seconds(&self) -> f64 {
        (self.t_end - self.t0).as_secs_f64()
    }

    pub fn measured(&self, t: Instant) -> bool {
        t >= self.t0 && t < self.t_end
    }

    /// Whether requests sent at `t` are traced: the 2nd and 4th quarters.
    pub fn traced(&self, t: Instant) -> bool {
        self.trace && self.measured(t) && {
            let quarter = (self.t_end - self.t0).as_nanos() / 4;
            ((t - self.t0).as_nanos() / quarter.max(1)) % 2 == 1
        }
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Obs {
    /// Index of the request in the workload's item list.
    pub item: usize,
    pub sent: Instant,
    pub first_chunk: Option<Instant>,
    /// When the terminal line arrived; `None` if it never did.
    pub done: Option<Instant>,
    /// The terminal response line.
    pub line: String,
    pub traced: bool,
    /// The replay of a traced request (boxed: most requests have none).
    pub layers: Option<Box<LayerSample>>,
}

impl Obs {
    pub fn new(item: usize, sent: Instant, traced: bool) -> Obs {
        Obs {
            item,
            sent,
            first_chunk: None,
            done: None,
            line: String::new(),
            traced,
            layers: None,
        }
    }

    pub fn latency_us(&self) -> Option<f64> {
        self.done.map(|d| (d - self.sent).as_secs_f64() * 1e6)
    }
}

/// The `client_id` token of a response line, found without parsing it.
pub fn token_of(line: &str) -> Option<u64> {
    let at = line.find("\"client_id\":\"")? + 13;
    let rest = &line[at..];
    rest[..rest.find('"')?].parse().ok()
}

/// Whether a response line is a mid-stream chunk frame (not terminal).
pub fn is_chunk(line: &str) -> bool {
    line.contains("\"frame\":\"chunk\"")
}

/// Requests each socket client keeps outstanding.
pub const WINDOW: usize = 4;

struct Pending {
    obs: Obs,
    root: Option<usize>,
}

/// A client connection with its outstanding requests.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    pending: HashMap<u64, Pending>,
    buf: String,
}

impl Conn {
    pub fn connect(socket: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            pending: HashMap::new(),
            buf: String::new(),
        })
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Sends `item` under correlation token `token`.  In a traced quarter
    /// the in-process `run_one` reference is timed first, so it does not
    /// delay reading answers; then the root span opens at the send, and the
    /// line is replayed through the layers while the request is in flight.
    pub fn send(
        &mut self,
        index: usize,
        item: &Item,
        token: u64,
        clock: &Clock,
        mut tracer: Option<(&Replayer, &mut Recorder)>,
    ) -> io::Result<()> {
        let wire = item.wire(token);
        let traced = clock.traced(Instant::now());
        let run_one_us = match tracer.as_mut() {
            Some((replayer, rec)) if traced => replayer.run_one(rec, token, &wire),
            _ => None,
        };
        self.writer.write_all(wire.as_bytes())?;
        let sent = Instant::now();
        let mut pending = Pending {
            obs: Obs::new(index, sent, traced),
            root: None,
        };
        if let (true, Some((replayer, rec))) = (traced, tracer) {
            let root = rec.open("request", token, None, sent);
            let mut layers = replayer.replay(rec, token, root, &wire);
            layers.run_one_us = run_one_us;
            pending.obs.layers = Some(Box::new(layers));
            pending.root = Some(root);
        }
        self.pending.insert(token, pending);
        Ok(())
    }

    /// Reads lines until one request completes, and returns it.
    pub fn recv(&mut self, rec: Option<&mut Recorder>) -> io::Result<Obs> {
        loop {
            self.buf.clear();
            if self.reader.read_line(&mut self.buf)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let now = Instant::now();
            let line = self.buf.trim_end();
            let token = token_of(line)
                .ok_or_else(|| io::Error::other(format!("uncorrelated response `{line}`")))?;
            let Some(p) = self.pending.get_mut(&token) else {
                return Err(io::Error::other(format!(
                    "response for unknown token {token}"
                )));
            };
            if is_chunk(line) {
                p.obs.first_chunk.get_or_insert(now);
                continue;
            }
            let mut p = self.pending.remove(&token).expect("present above");
            p.obs.done = Some(now);
            p.obs.line = line.to_string();
            if let (Some(root), Some(rec)) = (p.root, rec) {
                rec.close(root, now);
            }
            return Ok(p.obs);
        }
    }

    /// Requests still unanswered, as observations without an answer.
    pub fn abandon(&mut self) -> Vec<Obs> {
        self.pending.drain().map(|(_, p)| p.obs).collect()
    }
}

/// Sends every request of `order` on a new connection, `WINDOW`
/// outstanding, and returns the answers.  Nothing is measured: the clock's
/// window never starts.
pub fn send_all(socket: &Path, items: &[Item], order: &[usize]) -> io::Result<Vec<Obs>> {
    let clock = Clock::new(Duration::from_secs(86_400), 0.0, false);
    let mut conn = Conn::connect(socket)?;
    let mut out = Vec::with_capacity(order.len());
    for (n, &index) in order.iter().enumerate() {
        if conn.outstanding() == WINDOW {
            out.push(conn.recv(None)?);
        }
        conn.send(index, &items[index], n as u64, &clock, None)?;
    }
    while conn.outstanding() > 0 {
        out.push(conn.recv(None)?);
    }
    Ok(out)
}

/// Runs one closed-loop client with `WINDOW` requests outstanding until the
/// clock's window ends, then drains.  `order` yields item indices; tokens
/// are `token_base + n` for the n-th request sent.
pub fn run_window(
    socket: &Path,
    items: &[Item],
    order: &[usize],
    token_base: u64,
    clock: &Clock,
    replayer: Option<&Replayer>,
    rec: &mut Recorder,
) -> io::Result<Vec<Obs>> {
    let mut conn = Conn::connect(socket)?;
    let mut out = Vec::new();
    let mut sent = 0usize;
    loop {
        while conn.outstanding() < WINDOW && Instant::now() < clock.t_end {
            let index = order[sent % order.len()];
            let tracer = replayer.map(|r| (r, &mut *rec));
            conn.send(
                index,
                &items[index],
                token_base + sent as u64,
                clock,
                tracer,
            )?;
            sent += 1;
        }
        if conn.outstanding() == 0 {
            break;
        }
        match conn.recv(Some(rec)) {
            Ok(obs) => out.push(obs),
            Err(e) => {
                eprintln!("perfbench: connection ended early: {e}");
                break;
            }
        }
    }
    out.extend(conn.abandon());
    if sent > order.len() {
        eprintln!(
            "perfbench: warning: request list wrapped ({sent} sent, {} generated)",
            order.len()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_and_frames_are_found_without_parsing() {
        let chunk = r#"{"id":3,"client_id":"1000042","frame":"chunk","seq":0}"#;
        assert_eq!(token_of(chunk), Some(1_000_042));
        assert!(is_chunk(chunk));
        assert!(!is_chunk(
            r#"{"id":3,"client_id":"7","frame":"done","chunks":1}"#
        ));
        assert_eq!(token_of(r#"{"id":0,"ok":true}"#), None);
    }
}
