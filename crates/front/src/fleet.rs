//! The shard fleet: spawning, health probing, crash respawn, rolling
//! restarts, and graceful shutdown.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::lock_ignoring_poison;
use crate::shard::{Shard, ShardSpec};

/// Configuration of [`Fleet::start`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of backend shards to run.
    pub shards: usize,
    /// How to spawn each shard.
    pub spec: ShardSpec,
    /// Delay between supervisor ticks (health probes + crash respawn).
    pub probe_interval: Duration,
    /// How long a draining shard may take to exit on SIGTERM before the
    /// supervisor escalates to SIGKILL (rolling restarts, shutdown).
    pub drain_timeout: Duration,
}

impl FleetConfig {
    /// A config with default timings: 200 ms probes, 10 s ready/drain grace.
    pub fn new(shards: usize, binary: PathBuf, dir: PathBuf) -> FleetConfig {
        FleetConfig {
            shards,
            spec: ShardSpec {
                binary,
                dir,
                workers: None,
                ready_timeout: Duration::from_secs(10),
            },
            probe_interval: Duration::from_millis(200),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// A running fleet of supervised `qld serve` shards.
pub struct Fleet {
    shards: Vec<Arc<Shard>>,
    spec: ShardSpec,
    probe_interval: Duration,
    drain_timeout: Duration,
    /// Raised once by [`Fleet::shutdown`]; shared with the supervisor
    /// thread, which waits on it between ticks.
    stop: Arc<StopSignal>,
    /// Serializes fleet mutations (respawn, rolling restart, shutdown)
    /// against the supervisor tick.
    admin: Mutex<()>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

/// The fleet's stop flag and the condvar that wakes the supervisor out of
/// its probe-interval wait.  It lives apart from the [`Fleet`] so the
/// supervisor can wait on it without keeping the fleet alive.
#[derive(Default)]
struct StopSignal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl StopSignal {
    fn raise(&self) {
        *lock_ignoring_poison(&self.stopped) = true;
        self.wake.notify_all();
    }

    /// Whether [`Fleet::shutdown`] has begun.
    fn is_raised(&self) -> bool {
        *lock_ignoring_poison(&self.stopped)
    }

    /// Sleeps for `period` unless the signal is raised first; returns
    /// whether it is raised.
    fn pause(&self, period: Duration) -> bool {
        let stopped = lock_ignoring_poison(&self.stopped);
        let (stopped, _) = self
            .wake
            .wait_timeout_while(stopped, period, |stopped| !*stopped)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *stopped
    }
}

impl Fleet {
    /// Launches every shard, then waits until each accepts connections, and
    /// starts the supervisor thread.  The shards start concurrently: each
    /// readiness wait counts `ready_timeout` from that shard's own launch, so
    /// the fleet is up as soon as its slowest shard is.  On any launch or
    /// readiness failure every already-launched shard is torn down (SIGTERM
    /// to all, then each reaped) before the error is returned.
    pub fn start(config: FleetConfig) -> io::Result<Arc<Fleet>> {
        assert!(config.shards > 0, "a fleet needs at least one shard");
        std::fs::create_dir_all(&config.spec.dir)?;
        let shards: Vec<Arc<Shard>> = (0..config.shards)
            .map(|i| Arc::new(Shard::new(i, &config.spec.dir)))
            .collect();
        let started = shards
            .iter()
            .map(|shard| shard.launch(&config.spec))
            .collect::<io::Result<Vec<Instant>>>()
            .and_then(|launched| {
                shards
                    .iter()
                    .zip(launched)
                    .try_for_each(|(shard, at)| shard.await_ready(&config.spec, at, false))
            });
        if let Err(err) = started {
            terminate_all(&shards, Duration::from_millis(200));
            return Err(err);
        }
        let fleet = Arc::new(Fleet {
            shards,
            spec: config.spec,
            probe_interval: config.probe_interval,
            drain_timeout: config.drain_timeout,
            stop: Arc::default(),
            admin: Mutex::new(()),
            supervisor: Mutex::new(None),
        });
        let weak = Arc::downgrade(&fleet);
        let stop = Arc::clone(&fleet.stop);
        let period = fleet.probe_interval;
        let handle = std::thread::Builder::new()
            .name("fleet-supervisor".into())
            .spawn(move || supervise(&weak, &stop, period))
            .expect("spawn supervisor thread");
        *lock_ignoring_poison(&fleet.supervisor) = Some(handle);
        Ok(fleet)
    }

    /// Number of shards (fixed for the fleet's lifetime).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard slots, for direct inspection (tests, stats).
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Per-shard availability snapshot.
    pub fn availability(&self) -> Vec<bool> {
        self.shards.iter().map(|s| s.is_available()).collect()
    }

    /// Per-shard load snapshot (in-flight jobs at the last probe).
    pub fn loads(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.load()).collect()
    }

    /// Total successful crash respawns across the fleet.
    pub fn total_respawns(&self) -> u64 {
        self.shards.iter().map(|s| s.respawns()).sum()
    }

    /// Connects to shard `index`.
    pub fn connect(&self, index: usize) -> io::Result<UnixStream> {
        self.shards[index].connect()
    }

    /// SIGKILLs shard `index` (no snapshot write; simulates a crash).  The
    /// supervisor respawns it within a probe interval or two.
    pub fn kill_shard(&self, index: usize) -> io::Result<()> {
        let _guard = lock_ignoring_poison(&self.admin);
        self.shards[index].kill_now()
    }

    /// Restarts every shard, one at a time: marks it unavailable (routers
    /// stop picking it), SIGTERMs it so it drains and writes its cache
    /// snapshot, respawns it, and waits until it is ready before moving on.
    /// Both waits (the old child's exit, the new child's first accepted
    /// connection) check on a 100 µs → 10 ms backoff, not on a fixed tick.
    /// With ≥ 2 shards the fleet keeps serving throughout.
    pub fn rolling_restart(&self) -> io::Result<()> {
        for shard in &self.shards {
            if self.stop.is_raised() {
                break;
            }
            let _guard = lock_ignoring_poison(&self.admin);
            shard.terminate(self.drain_timeout);
            shard.spawn(&self.spec, false)?;
        }
        Ok(())
    }

    /// Blocks until shard `index` is available (respawned) or the timeout
    /// elapses; returns whether it became available.  The respawn that
    /// marks the shard available wakes the waiter.
    pub fn wait_available(&self, index: usize, timeout: Duration) -> bool {
        self.shards[index].wait_available(timeout)
    }

    /// Stops the supervisor and gracefully terminates every shard (SIGTERM →
    /// snapshot write → exit).  Every shard is signalled before any is
    /// waited for, so the shards drain concurrently; each is reaped within a
    /// backoff step (≤ 10 ms) of its exit, or SIGKILLed once its own
    /// `drain_timeout` has passed.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.stop.raise();
        let supervisor = lock_ignoring_poison(&self.supervisor).take();
        // A tick that drops the last `Arc<Fleet>` runs this on the
        // supervisor thread itself, which exits right after: no join.
        if let Some(handle) = supervisor {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        let _guard = lock_ignoring_poison(&self.admin);
        terminate_all(&self.shards, self.drain_timeout);
    }

    /// One supervisor tick: reap-and-respawn dead shards and health-probe
    /// the live ones (three failed probes in a row force a restart).
    fn tick(&self) {
        let _guard = lock_ignoring_poison(&self.admin);
        if self.stop.is_raised() {
            return;
        }
        for shard in &self.shards {
            if shard.reap_if_dead() {
                shard.set_available(false);
                // On failure the next tick tries again.
                let _ = shard.spawn(&self.spec, true);
                continue;
            }
            if !shard.is_available() {
                continue;
            }
            // Ticket drawn before the stats round trip: if the shard is
            // respawned while this probe is in flight, the sample loses to
            // the respawn's load reset instead of resurrecting the dead
            // child's reading.
            let ticket = shard.next_probe_seq();
            match probe_inflight(shard) {
                Some(load) => {
                    shard.apply_load_sample(ticket, load);
                    shard.clear_strikes();
                }
                None => {
                    if shard.strike() {
                        // Unresponsive: force a crash-restart.  The next
                        // tick reaps and respawns it.
                        let _ = shard.kill_now();
                    }
                }
            }
        }
    }
}

/// The supervisor loop: a [`Fleet::tick`] every `period` until the fleet
/// stops.  It holds the fleet only for the length of a tick, so dropping
/// the last outside `Arc<Fleet>` runs `Drop`, which shuts the shards down.
fn supervise(fleet: &Weak<Fleet>, stop: &StopSignal, period: Duration) {
    while !stop.pause(period) {
        match fleet.upgrade() {
            Some(fleet) => fleet.tick(),
            None => return,
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Gracefully stops `shards` concurrently: SIGTERMs every one first, then
/// reaps each as it exits, SIGKILLing any still running `grace` after its
/// own SIGTERM.
fn terminate_all(shards: &[Arc<Shard>], grace: Duration) {
    let deadlines: Vec<Instant> = shards.iter().map(|s| s.send_terminate(grace)).collect();
    for (shard, deadline) in shards.iter().zip(deadlines) {
        shard.reap_by(deadline);
    }
}

/// One health probe: a throwaway `stats` session against the shard's socket.
/// Returns the reported `inflight` count, or `None` when the shard does not
/// answer within a second.
fn probe_inflight(shard: &Shard) -> Option<u64> {
    let stream = shard.connect().ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(1))).ok()?;
    stream
        .set_write_timeout(Some(Duration::from_secs(1)))
        .ok()?;
    let mut writer = stream.try_clone().ok()?;
    writer.write_all(b"stats\n").ok()?;
    writer.flush().ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    parse_uint_field(&line, "\"inflight\":")
}

/// Extracts an unsigned JSON number field by textual scan (the probe avoids
/// pulling a JSON parser into the hot supervisor loop).
pub(crate) fn parse_uint_field(line: &str, marker: &str) -> Option<u64> {
    let start = line.find(marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_fields_parse_out_of_json_lines() {
        let line = r#"{"id":0,"ok":true,"kind":"stats","inflight":7,"sessions":2}"#;
        assert_eq!(parse_uint_field(line, "\"inflight\":"), Some(7));
        assert_eq!(parse_uint_field(line, "\"sessions\":"), Some(2));
        assert_eq!(parse_uint_field(line, "\"absent\":"), None);
        assert_eq!(parse_uint_field(r#"{"inflight":}"#, "\"inflight\":"), None);
    }
}
