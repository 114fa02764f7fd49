//! The processes under test: launching `qld` daemons, probing them with the
//! `stats` wire request, reading their peak memory, and stopping them.

use crate::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to answer its first `stats` request.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// A launched daemon: the child, the socket it serves, and its collected
/// standard error.
pub struct Daemon {
    pub child: Child,
    pub socket: PathBuf,
    stderr: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Launches `qld <args…> --socket <socket>` and waits until a `stats`
    /// request on the socket is answered.  Returns the daemon and the time
    /// from launch to that answer.
    pub fn launch(qld: &Path, args: &[&str], socket: &Path) -> io::Result<(Daemon, f64)> {
        let start = Instant::now();
        let mut child = Command::new(qld)
            .args(args)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut pipe = child.stderr.take().expect("stderr is piped");
        let stderr = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = pipe.read_to_string(&mut text);
            text
        });
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
            stderr: Some(stderr),
        };
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                if stats_on(stream).is_ok() {
                    return Ok((daemon, start.elapsed().as_secs_f64()));
                }
            }
            if start.elapsed() > READY_TIMEOUT || daemon.child.try_wait()?.is_some() {
                let text = daemon.stop();
                return Err(io::Error::other(format!(
                    "qld {args:?} never answered stats: {text}"
                )));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the daemon gracefully (SIGTERM, then SIGKILL after a grace
    /// period), stops any children it left behind, and returns its standard
    /// error.
    pub fn stop(&mut self) -> String {
        let kids = children_of(self.child.id());
        stop_child(&mut self.child);
        // A front stops its shards itself; this only catches leftovers.
        for pid in kids {
            let alive = || Path::new(&format!("/proc/{pid}")).exists();
            if alive() {
                let _ = signal::kill(pid as i32, signal::Signal::Terminate);
                let deadline = Instant::now() + Duration::from_secs(10);
                while alive() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        let text = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        let _ = std::fs::remove_file(&self.socket);
        text
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            self.stop();
        }
    }
}

/// SIGTERM, wait up to 10 s, then SIGKILL; always reaps the child.
pub fn stop_child(child: &mut Child) {
    if let Ok(None) = child.try_wait() {
        let _ = signal::kill(child.id() as i32, signal::Signal::Terminate);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = child.kill();
    }
    let _ = child.wait();
}

/// Sends `stats` on a fresh connection and returns the parsed answer.
fn stats_on(mut stream: UnixStream) -> io::Result<Json> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(b"stats\n")?;
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line)?;
    Json::parse(line.trim()).map_err(io::Error::other)
}

/// One `stats` probe over a new connection to `socket`.
pub fn stats(socket: &Path) -> io::Result<Json> {
    stats_on(UnixStream::connect(socket)?)
}

/// Peak resident set size (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Live child processes of `pid`.
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|p| {
            std::fs::read_to_string(format!("/proc/{p}/stat"))
                .ok()
                .and_then(|s| {
                    // `pid (comm) state ppid …`; comm may contain spaces.
                    let rest = &s[s.rfind(')')? + 2..];
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(pid)
        })
        .collect();
    out.sort_unstable();
    out
}
