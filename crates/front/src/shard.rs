//! One supervised backend shard: a `qld serve` child process with its own
//! Unix socket and cache snapshot file.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::lock_ignoring_poison;

/// First pause of a wait on a shard child (readiness probes, exit checks);
/// each unmet check doubles it up to [`MAX_PROBE_PAUSE`].  A `qld serve`
/// binds its socket, and drains on SIGTERM, within a few milliseconds, so
/// the first checks are dense.
const FIRST_PROBE_PAUSE: Duration = Duration::from_micros(100);
/// Ceiling of the probe backoff (a shard that is slow to start or to exit is
/// checked at this rate).
const MAX_PROBE_PAUSE: Duration = Duration::from_millis(10);

/// Sleeps for `pause`, cut short at `deadline`, and doubles `pause` up to
/// [`MAX_PROBE_PAUSE`] for the next check.
fn back_off(pause: &mut Duration, deadline: Instant) {
    std::thread::sleep((*pause).min(deadline.saturating_duration_since(Instant::now())));
    *pause = (*pause * 2).min(MAX_PROBE_PAUSE);
}

/// How to spawn (and respawn) every shard of a fleet.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The `qld` binary to exec (`qld serve ...`).  Defaults to the front's
    /// own executable — the router and the shards are the same binary.
    pub binary: PathBuf,
    /// Directory holding every shard's socket (`shard-<i>.sock`) and cache
    /// snapshot (`shard-<i>.cache`).
    pub dir: PathBuf,
    /// Worker threads per shard (`--workers`); `None` keeps the serve
    /// default.
    pub workers: Option<usize>,
    /// How long a (re)spawned shard may take to accept connections before it
    /// is declared failed.
    pub ready_timeout: Duration,
}

impl ShardSpec {
    fn command(&self, shard: &Shard) -> Command {
        let mut cmd = Command::new(&self.binary);
        cmd.arg("serve")
            .arg("--socket")
            .arg(&shard.socket)
            .arg("--cache-file")
            .arg(&shard.cache_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(workers) = self.workers {
            cmd.arg("--workers").arg(workers.to_string());
        }
        cmd
    }
}

/// One shard slot: the current child process (if any) plus the routing state
/// the supervisor and the policies read.
#[derive(Debug)]
pub struct Shard {
    index: usize,
    socket: PathBuf,
    cache_file: PathBuf,
    child: Mutex<Option<Child>>,
    /// `true` while the shard accepts connections; policies must skip
    /// unavailable shards.
    available: AtomicBool,
    /// Guards availability changes so [`Shard::wait_available`] can sleep on
    /// `became_available` without missing a wake-up.
    availability: Mutex<()>,
    became_available: Condvar,
    /// In-flight jobs per the supervisor's last `stats` probe.
    load: AtomicU64,
    /// Bumped on every successful (re)spawn.
    generation: AtomicU64,
    /// Successful automatic respawns after a crash (not counting rolling
    /// restarts).
    respawns: AtomicU64,
    /// Consecutive failed health probes; three strikes force a restart.
    probe_strikes: AtomicU32,
    /// Monotonic probe ticket counter: every health probe takes a ticket
    /// before it talks to the shard.
    probe_seq: AtomicU64,
    /// The ticket of the newest load sample applied so far; a probe whose
    /// ticket is not newer lost a race (to a later probe, or to a respawn
    /// that reset the load) and its sample is discarded.
    last_applied_probe: AtomicU64,
}

impl Shard {
    /// Creates the (not yet spawned) slot for shard `index` under `dir`.
    pub(crate) fn new(index: usize, dir: &Path) -> Shard {
        Shard {
            index,
            socket: dir.join(format!("shard-{index}.sock")),
            cache_file: dir.join(format!("shard-{index}.cache")),
            child: Mutex::new(None),
            available: AtomicBool::new(false),
            availability: Mutex::new(()),
            became_available: Condvar::new(),
            load: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            probe_strikes: AtomicU32::new(0),
            probe_seq: AtomicU64::new(0),
            last_applied_probe: AtomicU64::new(0),
        }
    }

    /// This shard's index within the fleet.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard's Unix socket path (useful for querying it directly).
    pub fn socket_path(&self) -> &Path {
        &self.socket
    }

    /// The shard's cache snapshot path.
    pub fn cache_file(&self) -> &Path {
        &self.cache_file
    }

    /// Whether the shard currently accepts connections.
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::Acquire)
    }

    /// In-flight jobs per the last health probe (stale by one interval).
    pub fn load(&self) -> u64 {
        self.load.load(Ordering::Relaxed)
    }

    /// Spawn generation (0 = never spawned; bumped per successful spawn).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Successful crash respawns so far.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Connects to the shard's socket.
    pub fn connect(&self) -> io::Result<UnixStream> {
        UnixStream::connect(&self.socket)
    }

    pub(crate) fn set_available(&self, available: bool) {
        let _guard = lock_ignoring_poison(&self.availability);
        self.available.store(available, Ordering::Release);
        if available {
            self.became_available.notify_all();
        }
    }

    /// Blocks until the shard is available or `timeout` elapses, woken by
    /// the (re)spawn that marks it available; returns whether it is.
    pub(crate) fn wait_available(&self, timeout: Duration) -> bool {
        let guard = lock_ignoring_poison(&self.availability);
        let _guard = self
            .became_available
            .wait_timeout_while(guard, timeout, |_| !self.is_available())
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.is_available()
    }

    pub(crate) fn set_load(&self, load: u64) {
        self.load.store(load, Ordering::Relaxed);
    }

    /// Takes a monotonic ticket for one health probe.  The ticket is drawn
    /// *before* the probe's stats round trip, so two overlapping probes (a
    /// slow one straddling a supervision tick, or a probe racing a respawn)
    /// order by when they started, not by when they happened to finish.
    pub(crate) fn next_probe_seq(&self) -> u64 {
        self.probe_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Applies a probe's load sample unless a newer sample (or a respawn's
    /// load reset) already landed: `false` means the sample was stale and
    /// discarded, so the least-loaded policy never acts on an out-of-order
    /// reading.
    pub(crate) fn apply_load_sample(&self, seq: u64, load: u64) -> bool {
        let mut applied = self.last_applied_probe.load(Ordering::Acquire);
        loop {
            if seq <= applied {
                return false;
            }
            match self.last_applied_probe.compare_exchange_weak(
                applied,
                seq,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.set_load(load);
                    return true;
                }
                Err(current) => applied = current,
            }
        }
    }

    pub(crate) fn clear_strikes(&self) {
        self.probe_strikes.store(0, Ordering::Relaxed);
    }

    /// Records one failed probe; returns `true` when the strike budget is
    /// exhausted and the shard should be restarted.
    pub(crate) fn strike(&self) -> bool {
        self.probe_strikes.fetch_add(1, Ordering::Relaxed) + 1 >= 3
    }

    /// `true` when the child process has exited (or never ran).  Reaps the
    /// zombie as a side effect.
    pub(crate) fn reap_if_dead(&self) -> bool {
        let mut slot = lock_ignoring_poison(&self.child);
        match slot.as_mut() {
            None => true,
            Some(child) => match child.try_wait() {
                Ok(Some(_status)) => {
                    *slot = None;
                    true
                }
                Ok(None) => false,
                // try_wait errors are unexpected; treat the child as gone so
                // the supervisor respawns rather than wedges.
                Err(_) => {
                    *slot = None;
                    true
                }
            },
        }
    }

    /// Kills the child with SIGKILL immediately (no snapshot is written).
    /// The supervisor notices the dead child and respawns it.
    pub(crate) fn kill_now(&self) -> io::Result<()> {
        self.set_available(false);
        let mut slot = lock_ignoring_poison(&self.child);
        if let Some(child) = slot.as_mut() {
            child.kill()?;
            let _ = child.wait();
            *slot = None;
        }
        Ok(())
    }

    /// Gracefully terminates the child (SIGTERM, so the engine drains its
    /// sessions and writes its cache snapshot), escalating to SIGKILL after
    /// `grace`.  Returns soon after the child exits: the exit check backs
    /// off from 100 µs to 10 ms instead of polling on a fixed tick.
    pub(crate) fn terminate(&self, grace: Duration) {
        let deadline = self.send_terminate(grace);
        self.reap_by(deadline);
    }

    /// First half of [`Shard::terminate`]: marks the shard unavailable and
    /// SIGTERMs its child.  Returns the deadline (now + `grace`) after which
    /// [`Shard::reap_by`] escalates to SIGKILL.  Split so a fleet can signal
    /// every shard before waiting for any.
    pub(crate) fn send_terminate(&self, grace: Duration) -> Instant {
        self.set_available(false);
        if let Some(child) = lock_ignoring_poison(&self.child).as_ref() {
            let _ = signal::kill(child.id() as i32, signal::Signal::Terminate);
        }
        Instant::now() + grace
    }

    /// Second half of [`Shard::terminate`]: waits for the child to exit,
    /// SIGKILLs it if it is still running at `deadline`, and reaps it.
    pub(crate) fn reap_by(&self, deadline: Instant) {
        let mut pause = FIRST_PROBE_PAUSE;
        while !self.reap_if_dead() {
            if Instant::now() >= deadline {
                let _ = self.kill_now();
                return;
            }
            back_off(&mut pause, deadline);
        }
    }

    /// (Re)spawns the child and waits until its socket accepts connections.
    /// On success the shard is marked available and its generation bumped;
    /// `after_crash` also counts it in [`Shard::respawns`].  Used by crash
    /// respawn and rolling restart; fleet start calls the two halves.
    pub(crate) fn spawn(&self, spec: &ShardSpec, after_crash: bool) -> io::Result<()> {
        let launched = self.launch(spec)?;
        self.await_ready(spec, launched, after_crash)
    }

    /// First half of [`Shard::spawn`]: kills any previous child, starts a new
    /// one, and returns the launch instant.  Does not wait for the child, so
    /// a fleet can launch every shard before waiting for any.
    pub(crate) fn launch(&self, spec: &ShardSpec) -> io::Result<Instant> {
        let mut slot = lock_ignoring_poison(&self.child);
        if let Some(mut old) = slot.take() {
            let _ = old.kill();
            let _ = old.wait();
        }
        *slot = Some(spec.command(self).spawn()?);
        Ok(Instant::now())
    }

    /// Second half of [`Shard::spawn`]: waits until the child launched at
    /// `launched` accepts connections, within `spec.ready_timeout` of its
    /// launch.  The connect probe backs off from 100 µs to 10 ms, and a child
    /// found exited at a probe ends the wait with an error.  The respawn
    /// count and generation are updated before the shard is marked
    /// available, so a [`Shard::wait_available`] caller woken by it sees
    /// them.
    pub(crate) fn await_ready(
        &self,
        spec: &ShardSpec,
        launched: Instant,
        after_crash: bool,
    ) -> io::Result<()> {
        let deadline = launched + spec.ready_timeout;
        let mut pause = FIRST_PROBE_PAUSE;
        loop {
            if self.connect().is_ok() {
                self.clear_strikes();
                // The fresh child has zero in-flight jobs; claim a new probe
                // ticket for that reset so any probe still in flight against
                // the *previous* child reads as stale and cannot overwrite
                // it with the dead process's load.
                let reset_ticket = self.next_probe_seq();
                self.last_applied_probe
                    .fetch_max(reset_ticket, Ordering::AcqRel);
                self.set_load(0);
                self.generation.fetch_add(1, Ordering::Relaxed);
                if after_crash {
                    self.respawns.fetch_add(1, Ordering::Relaxed);
                }
                self.set_available(true);
                return Ok(());
            }
            if self.reap_if_dead() {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    format!("shard {} exited before accepting connections", self.index),
                ));
            }
            if Instant::now() >= deadline {
                let _ = self.kill_now();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "shard {} not ready within {:?}",
                        self.index, spec.ready_timeout
                    ),
                ));
            }
            back_off(&mut pause, deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_probe_samples_are_rejected() {
        let shard = Shard::new(0, Path::new("/tmp/qld-shard-test"));
        let first = shard.next_probe_seq();
        let second = shard.next_probe_seq();
        // The newer probe finishes first: its sample lands.
        assert!(shard.apply_load_sample(second, 5));
        assert_eq!(shard.load(), 5);
        // The older probe's late sample is discarded.
        assert!(!shard.apply_load_sample(first, 99));
        assert_eq!(shard.load(), 5);
        // Replaying an already-applied ticket is also stale.
        assert!(!shard.apply_load_sample(second, 99));
        assert_eq!(shard.load(), 5);
        // Probing continues normally afterwards.
        let third = shard.next_probe_seq();
        assert!(shard.apply_load_sample(third, 2));
        assert_eq!(shard.load(), 2);
    }

    #[test]
    fn probe_tickets_are_monotonic_and_start_at_one() {
        let shard = Shard::new(3, Path::new("/tmp/qld-shard-test"));
        assert_eq!(shard.next_probe_seq(), 1);
        assert_eq!(shard.next_probe_seq(), 2);
        // A zero-ticket sample (impossible in practice) is always stale.
        assert!(!shard.apply_load_sample(0, 7));
        assert_eq!(shard.load(), 0);
    }
}
