//! The traced run: spans recorded by the benchmark around calls into each
//! layer's public functions, and the self-time arithmetic over them.
//!
//! Nothing here reaches inside the program.  While a request is in flight
//! through the entry point under test, the generator replays the same line
//! through the layers the entry point runs internally (`wire::parse_line`,
//! `Request::cache_key`, `QueryCache::get`/`insert` on a mirror cache,
//! `ops::execute` on a mirror miss, `Response::to_json_line`).  Each replayed
//! call is a child span of the request's root span, whose interval is the
//! client-observed latency.  A layer's self share is its spans' self time
//! over the summed root durations; what the replays do not cover is the
//! remainder (transport, queueing, session and worker hand-offs).

use qld_engine::cache::{CachedResult, QueryCache};
use qld_engine::wire::{self, Command};
use qld_engine::{
    ops, Engine, EngineError, FixedPolicy, RequestStats, Response, SizeThresholdPolicy,
    SolverPolicy,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    /// The request id shared by all spans of one request.
    pub req: u64,
}

/// An in-memory span log, one per generator thread.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting at `start`; [`Recorder::close`] sets its end.
    pub fn open(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        let start = self.ns(start);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize, end: Instant) {
        self.spans[span].end = self.ns(end);
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = self.open(name, req, Some(parent), start);
        self.close(span, end);
        (out, (end - start).as_secs_f64() * 1e6)
    }
}

/// What one replay measured, in microseconds and bytes.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    pub parse_us: f64,
    pub key_us: f64,
    pub key_bytes: f64,
    pub lookup_us: f64,
    /// `ops::execute` time; `None` on a mirror-cache hit.
    pub solve_us: Option<f64>,
    pub render_us: f64,
    /// In-process `Engine::run_one` latency for the same request (one-shot
    /// requests only, when the replayer has an engine), timed before the
    /// request is sent.
    pub run_one_us: Option<f64>,
}

/// Replays request lines through the layers, against a mirror of the
/// program's cache.
pub struct Replayer {
    cache: QueryCache,
    policy: SizeThresholdPolicy,
    /// An in-process engine for the transport comparison of `serve-small`;
    /// `None` for the other workloads.
    engine: Option<Engine>,
}

impl Replayer {
    pub fn new(with_engine: bool) -> Replayer {
        Replayer {
            cache: QueryCache::new(),
            policy: SizeThresholdPolicy::default(),
            engine: with_engine.then(Engine::with_defaults),
        }
    }

    /// Replays `line` (as sent, envelope included) as children of `root`.
    pub fn replay(&self, rec: &mut Recorder, req: u64, root: usize, line: &str) -> LayerSample {
        let mut s = LayerSample::default();
        let (parsed, us) = rec.time("wire.parse", req, root, || {
            wire::parse_line(line.trim_end())
        });
        s.parse_us = us;
        let Ok(parsed) = parsed else {
            return s;
        };
        let Command::Query(request) = parsed.command else {
            return s;
        };
        let (key, us) = rec.time("request.key_render", req, root, || {
            let mut key = request.cache_key();
            if let Some(kind) = parsed.solver {
                key.push_str(" solver=");
                key.push_str(kind.name());
            }
            key
        });
        s.key_us = us;
        s.key_bytes = key.len() as f64;
        let (hit, us) = rec.time("cache.lookup", req, root, || self.cache.get(&key));
        s.lookup_us = us;
        let cached = match hit {
            Some(cached) => cached.as_ref().clone(),
            None => {
                let forced = parsed.solver.map(FixedPolicy);
                let policy: &dyn SolverPolicy = match &forced {
                    Some(p) => p,
                    None => &self.policy,
                };
                let ((outcome, info), us) =
                    rec.time("ops.execute", req, root, || ops::execute(&request, policy));
                s.solve_us = Some(us);
                let result = CachedResult {
                    outcome: outcome.map_err(EngineError::execute),
                    info,
                };
                rec.time("cache.insert", req, root, || {
                    self.cache.insert(key, result.clone())
                });
                result
            }
        };
        let response = Response {
            id: req,
            client_id: parsed.id.clone(),
            outcome: cached.outcome,
            halted: None,
            chunks: parsed.stream.then_some(0),
            stats: RequestStats {
                micros: s.solve_us.unwrap_or(0.0) as u128,
                peak_bits: cached.info.peak_bits,
                solver: cached.info.solver,
                duality_calls: cached.info.duality_calls,
                cache_hit: s.solve_us.is_none(),
                worker: 0,
            },
        };
        let (_, us) = rec.time("response.render", req, root, || response.to_json_line());
        s.render_us = us;
        s
    }

    /// Times `Engine::run_one` on the in-process engine for a one-shot
    /// `line`, as a root span of its own.  `None` without an engine, and for
    /// streamed or unparsable lines.
    pub fn run_one(&self, rec: &mut Recorder, req: u64, line: &str) -> Option<f64> {
        let engine = self.engine.as_ref()?;
        let parsed = wire::parse_line(line.trim_end()).ok()?;
        let Command::Query(request) = parsed.command else {
            return None;
        };
        if parsed.stream {
            return None;
        }
        let start = Instant::now();
        let _ = engine.run_one(request);
        let end = Instant::now();
        let span = rec.open("inproc.run_one", req, None, start);
        rec.close(span, end);
        Some((end - start).as_secs_f64() * 1e6)
    }
}

/// Per-layer self time over the `request` trees of all recorders.
pub struct SelfTimes {
    /// Summed self time per layer (the span name's prefix before the first
    /// `.`), in nanoseconds; the roots' own self time is under `remainder`.
    pub by_layer: BTreeMap<&'static str, u64>,
    pub root_total_ns: u64,
    pub roots: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(recorders: &[Recorder]) -> SelfTimes {
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut root_total_ns, mut roots) = (0, 0);
    for rec in recorders {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); rec.spans.len()];
        for (i, s) in rec.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        for (i, s) in rec.spans.iter().enumerate() {
            let in_request_tree = match s.parent {
                None => s.name == "request",
                Some(p) => rec.spans[p].name == "request",
            };
            if !in_request_tree {
                continue;
            }
            let mut cover: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (rec.spans[c].start.max(s.start), rec.spans[c].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let self_ns = (s.end - s.start).saturating_sub(covered);
            let layer = if s.parent.is_none() {
                root_total_ns += s.end - s.start;
                roots += 1;
                "remainder"
            } else {
                s.name.split('.').next().unwrap_or(s.name)
            };
            *by_layer.entry(layer).or_default() += self_ns;
        }
    }
    SelfTimes {
        by_layer,
        root_total_ns,
        roots,
    }
}

/// Most spans the run writes out; a traced run can record millions.
const SPAN_FILE_CAP: usize = 50_000;

/// Writes the first spans of every recorder as JSON lines, when the run ends.
pub fn write_spans(path: &Path, recorders: &[Recorder]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let per = SPAN_FILE_CAP / recorders.len().max(1);
    for (thread, rec) in recorders.iter().enumerate() {
        for s in rec.spans.iter().take(per) {
            writeln!(
                out,
                "{{\"thread\":{thread},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name,
                s.req,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )?;
        }
    }
    out.into_inner().map_err(|e| e.into_error())?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut rec = Recorder::new(epoch);
        let root = rec.open("request", 1, None, at(0));
        rec.close(root, at(100));
        for (name, a, b) in [
            ("wire.parse", 10, 30),
            ("ops.execute", 20, 50),
            ("response.render", 90, 130),
        ] {
            let c = rec.open(name, 1, Some(root), at(a));
            rec.close(c, at(b));
        }
        let t = self_times(&[rec]);
        assert_eq!(t.roots, 1);
        assert_eq!(t.root_total_ns, 100_000);
        // Children cover [10,50) and [90,100): 50 us of the root's 100.
        assert_eq!(t.by_layer["remainder"], 50_000);
        assert_eq!(t.by_layer["wire"], 20_000);
        assert_eq!(t.by_layer["ops"], 30_000);
        assert_eq!(t.by_layer["response"], 40_000);
    }

    #[test]
    fn replay_mirrors_cache_hits_and_renders() {
        let replayer = Replayer::new(false);
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("request", 0, None, Instant::now());
        let line = "check 0,1;2,3 0,2;0,3;1,2;1,3 id=7";
        let first = replayer.replay(&mut rec, 0, root, line);
        let second = replayer.replay(&mut rec, 0, root, "check 2,3;0,1 1,3;0,2;0,3;1,2");
        assert!(first.solve_us.is_some());
        assert!(
            second.solve_us.is_none(),
            "a permuted duplicate hits the mirror cache"
        );
        assert!(first.key_bytes > 0.0);
    }
}
