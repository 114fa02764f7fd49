//! `perfbench` — the repository's benchmark: one seeded closed-loop workload
//! per entry point of the `qld` system, with every answer checked.
//!
//! ```text
//! perfbench --qld PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output reports the end-to-end
//! metrics; with `--trace 1` it reports the per-layer metrics of a traced run
//! (see `trace.rs`).  The line before it carries the run's provenance.
//! `perfbench/README.md` defines every metric and counter.

mod client;
mod gen;
mod json;
mod proc;
mod stats;
mod trace;
mod workloads;

use client::{Clock, Obs};
use gen::{Base, Item, Verdict};
use json::{num, quote, Json};
use stats::{mean, median, quantile, ratio};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Recorder;

/// Command-line settings of one run.
pub struct Ctx {
    pub qld: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for sockets and shard files, inside the checkout.
    pub run_dir: PathBuf,
}

/// Engine counters from a `stats` answer (or the in-process accessors).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub hits: f64,
    pub misses: f64,
    pub evictions: f64,
    pub flights: f64,
    pub coalesced: f64,
    pub subtasks: f64,
    pub stolen: f64,
}

impl Counters {
    pub fn from_stats(stats: &Json) -> Counters {
        let cache = stats.get("cache").cloned().unwrap_or(Json::Null);
        Counters {
            hits: cache.u64_at("hits") as f64,
            misses: cache.u64_at("misses") as f64,
            evictions: cache.u64_at("evictions") as f64,
            flights: stats.u64_at("flights") as f64,
            coalesced: stats.u64_at("coalesced") as f64,
            subtasks: stats.u64_at("subtasks") as f64,
            stolen: stats.u64_at("subtasks_stolen") as f64,
        }
    }

    pub fn minus(&self, o: &Counters) -> Counters {
        Counters {
            hits: self.hits - o.hits,
            misses: self.misses - o.misses,
            evictions: self.evictions - o.evictions,
            flights: self.flights - o.flights,
            coalesced: self.coalesced - o.coalesced,
            subtasks: self.subtasks - o.subtasks,
            stolen: self.stolen - o.stolen,
        }
    }

    pub fn plus(&self, o: &Counters) -> Counters {
        Counters {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            evictions: self.evictions + o.evictions,
            flights: self.flights + o.flights,
            coalesced: self.coalesced + o.coalesced,
            subtasks: self.subtasks + o.subtasks,
            stolen: self.stolen + o.stolen,
        }
    }

    /// Solver executions.  With coalescing on (the default), every cache miss
    /// that runs the solver leads a flight, so executions are `flights`.
    /// `misses − coalesced` undercounts them: a duplicate that joins a flight
    /// at submission never reaches the cache, so it is in `coalesced` but not
    /// in `misses`, and the difference goes negative under bursts.
    pub fn executions(&self) -> f64 {
        self.flights
    }
}

/// What a workload hands back for checking and reporting.
pub struct Run {
    pub bases: Vec<Base>,
    pub items: Vec<Item>,
    pub obs: Vec<Obs>,
    pub clock: Clock,
    pub setup_s: Vec<f64>,
    pub peak_rss_mib: f64,
    /// Which processes `peak_rss_mib` summed.
    pub rss_processes: String,
    /// Counter deltas over the measured window, summed over engines.
    pub counters: Counters,
    /// Requests sent between the two counter snapshots.
    pub counted_requests: f64,
    /// Workload-specific per-layer metrics (the `front.*` group).
    pub extra: Vec<(&'static str, f64)>,
    pub recorders: Vec<Recorder>,
    /// Workload parameters as a JSON object, for the provenance line.
    pub params: String,
}

/// The end-to-end metrics: name, unit, which direction is better.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("req_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("first_item_p50_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("space_ratio_max", "ratio", "lower"),
];

/// The per-layer metrics of a traced run.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("wire.parse_us_p50", "us", "lower"),
    ("request.key_render_us_p50", "us", "lower"),
    ("request.key_bytes_mean", "bytes", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.lookup_us_p50", "us", "lower"),
    ("response.render_us_p50", "us", "lower"),
    ("response.bytes_mean", "bytes", "lower"),
    ("transport.overhead_us_p50", "us", "lower"),
    ("engine.wait_us_p50", "us", "lower"),
    ("engine.wait_us_p99", "us", "lower"),
    ("ops.solve_us_p50", "us", "lower"),
    ("ops.solve_us_p99", "us", "lower"),
    ("ops.duality_calls_mean", "count", "lower"),
    ("policy.quadlog_share", "ratio", "lower"),
    ("core.peak_bits_max", "bits", "lower"),
    ("subtask.spawned", "count", "lower"),
    ("subtask.stolen_ratio", "ratio", "higher"),
    ("stream.chunks_mean", "count", "higher"),
    ("stream.first_to_done_ratio", "ratio", "lower"),
    ("flight.coalesced_ratio", "ratio", "higher"),
    ("flight.executions_per_request", "ratio", "lower"),
    ("front.hop_us_p50", "us", "lower"),
    ("front.coalesced_ratio", "ratio", "higher"),
    ("front.shard_executions", "count", "lower"),
    ("front.imbalance", "ratio", "lower"),
    ("front.respawns", "count", "lower"),
    ("wire.self_share", "ratio", "lower"),
    ("request.self_share", "ratio", "lower"),
    ("cache.self_share", "ratio", "lower"),
    ("ops.self_share", "ratio", "lower"),
    ("response.self_share", "ratio", "lower"),
    ("trace.remainder_share", "ratio", "lower"),
    ("wire.self_us_per_req", "us", "lower"),
    ("request.self_us_per_req", "us", "lower"),
    ("cache.self_us_per_req", "us", "lower"),
    ("ops.self_us_per_req", "us", "lower"),
    ("response.self_us_per_req", "us", "lower"),
    ("trace.remainder_us_per_req", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.requests", "count", "higher"),
    ("counter.requests", "count", "higher"),
    ("counter.executions", "count", "lower"),
];

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut qld, mut workload, mut seed, mut seconds, mut trace) = (None, None, 1u64, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--qld" => qld = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload: String = workload.ok_or("--workload NAME is required")?;
    Ok(Ctx {
        qld: qld.ok_or("--qld PATH is required")?,
        run_dir: PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id())),
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !ctx.qld.is_file() {
        eprintln!("perfbench: no qld binary at {}", ctx.qld.display());
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.run_dir) {
        eprintln!("perfbench: {}: {e}", ctx.run_dir.display());
        return ExitCode::from(2);
    }
    let result = match ctx.workload.as_str() {
        "serve-small" => workloads::serve_small(&ctx),
        "solve-heavy" => workloads::solve_heavy(&ctx),
        "stdin-batch" => workloads::stdin_batch(&ctx),
        "fleet-burst" => workloads::fleet_burst(&ctx),
        other => Err(std::io::Error::other(format!("unknown workload `{other}`"))),
    };
    let code = match result {
        Ok(run) => report(&ctx, &run),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    code
}

/// Answer accounting over the measured window.
#[derive(Default)]
struct Tally {
    refused: u64,
    missing: u64,
    wrong: u64,
    /// Wrong answers to requests outside the window (warm-up, probes): they
    /// fail the run but are not part of `attempted`.
    wrong_outside: u64,
    first_wrong: Option<String>,
}

/// Checks every answer, computes the metrics, and prints the provenance
/// and result lines.  Exits non-zero on any wrong answer.
fn report(ctx: &Ctx, run: &Run) -> ExitCode {
    let clock = &run.clock;
    let mut tally = Tally::default();
    let mut answers: Vec<Option<Answer>> = Vec::with_capacity(run.obs.len());
    for o in &run.obs {
        let measured = clock.measured(o.sent);
        let item = &run.items[o.item];
        let parsed = o.done.map(|_| Json::parse(&o.line));
        let verdict = match &parsed {
            None => None,
            Some(Err(e)) => Some(Verdict::Wrong(format!("unparsable response: {e}"))),
            Some(Ok(answer)) => Some(gen::verify(
                &run.bases[item.base].expect,
                &item.relabel(&run.bases),
                answer,
            )),
        };
        match verdict {
            None => tally.missing += u64::from(measured),
            Some(Verdict::Correct) => {}
            Some(Verdict::Refused(why)) => {
                tally.refused += u64::from(measured);
                eprintln!("perfbench: refused `{}`: {why}", item.line);
            }
            Some(Verdict::Wrong(why)) => {
                if measured {
                    tally.wrong += 1;
                } else {
                    tally.wrong_outside += 1;
                }
                tally.first_wrong.get_or_insert(format!(
                    "{why}: `{}{}` -> {}",
                    item.line, item.envelope, o.line
                ));
            }
        }
        answers.push(parsed.and_then(Result::ok).as_ref().and_then(Answer::of));
    }
    let measured: Vec<usize> = (0..run.obs.len())
        .filter(|&i| clock.measured(run.obs[i].sent))
        .collect();
    let attempted = measured.len() as u64;
    let failed = tally.refused + tally.missing + tally.wrong;
    let correct = tally.wrong + tally.wrong_outside == 0 && attempted > 0;
    let metrics = if ctx.trace {
        per_layer(run, &measured, &answers)
    } else {
        end_to_end(run, &measured, &answers)
    };
    let table: &[(&str, &str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    if ctx.trace {
        let path =
            Path::new(".bench_run").join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
        if let Err(e) = trace::write_spans(&path, &run.recorders) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    let (commit, digest) = provenance_commit();
    let units: Vec<String> = table
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "{}:{{\"unit\":{},\"better\":{}}}",
                quote(name),
                quote(unit),
                quote(better)
            )
        })
        .collect();
    println!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"commit\":{},\"source_fnv1a\":{},\"params\":{},\"peak_rss_processes\":{},\"setup_samples\":{},\"refused\":{},\"missing\":{},\"wrong\":{},\"wrong_outside_window\":{},\"fail_ratio\":{},\"metrics\":{{{}}}}}}}",
        quote(&ctx.workload),
        ctx.seed,
        num(ctx.seconds),
        ctx.trace,
        std::thread::available_parallelism().map_or(1, usize::from),
        quote(&commit),
        quote(&digest),
        run.params,
        quote(&run.rss_processes),
        run.setup_s.len(),
        tally.refused,
        tally.missing,
        tally.wrong,
        tally.wrong_outside,
        num(ratio(failed as f64, attempted as f64)),
        units.join(",")
    );
    if let Some(why) = &tally.first_wrong {
        eprintln!("perfbench: WRONG ANSWER {why}");
    }
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit, _)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                num(value),
                quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the metrics read from one answer with a `stats` object, kept in
/// place of its parsed JSON (a run checks up to a million answers).
#[derive(Debug, Clone, Copy)]
struct Answer {
    micros: f64,
    peak_bits: f64,
    duality_calls: f64,
    cache_hit: bool,
    /// Whether a quadlog solver served it.
    quadlog: bool,
    /// `chunks` of a streamed `done` frame.
    chunks: f64,
}

impl Answer {
    fn of(answer: &Json) -> Option<Answer> {
        let stats = answer.get("stats")?;
        Some(Answer {
            micros: stats.u64_at("micros") as f64,
            peak_bits: stats.u64_at("peak_bits") as f64,
            duality_calls: stats.u64_at("duality_calls") as f64,
            cache_hit: stats.get("cache_hit").and_then(Json::as_bool) == Some(true),
            quadlog: stats
                .get("solver")
                .and_then(Json::as_str)
                .is_some_and(|s| s.contains("quadlog")),
            chunks: answer.u64_at("chunks") as f64,
        })
    }
}

/// `peak_bits / log2²(8 · request-line bytes)` of quadlog-served answers.
fn space_ratios(run: &Run, measured: &[usize], answers: &[Option<Answer>]) -> Vec<f64> {
    measured
        .iter()
        .filter_map(|&i| {
            let a = answers[i]?;
            let bytes = run.items[run.obs[i].item].line.len() as f64;
            (a.quadlog && a.peak_bits > 0.0).then(|| a.peak_bits / (8.0 * bytes).log2().powi(2))
        })
        .collect()
}

/// Sub-windows of a run for the timing metrics.  A timing is computed in
/// each sub-window and the median of those is reported, so a stretch of the
/// run disturbed by other load on the machine does not move it.
const SLICES: usize = 20;

/// `stat` over each of up to `SLICES` equal sub-windows of the window (by
/// send time), each holding at least `min_samples` samples; and the median of
/// those.
fn sliced(
    clock: &Clock,
    samples: &[(std::time::Instant, f64)],
    min_samples: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> (f64, Vec<f64>) {
    let k = (samples.len() / min_samples.max(1)).clamp(1, SLICES);
    let mut slices = vec![Vec::new(); k];
    let width = clock.seconds() / k as f64;
    for &(sent, value) in samples {
        let at = ((sent - clock.t0).as_secs_f64() / width) as usize;
        slices[at.min(k - 1)].push(value);
    }
    let per: Vec<f64> = slices.iter().map(|s| stat(s)).collect();
    (median(&per), per)
}

/// The typical latency of a mix: each base instance's median (sliced as
/// above, sub-windows of at least `min_samples`), then the geometric mean
/// over the bases.  A median over the whole mix would sit where one kind
/// of request gives way to the next, and jump between them when the
/// machine's speed changes a little; each base's own median moves only in
/// proportion.  Returns the figure and each base's median.
fn per_base_p50(
    clock: &Clock,
    samples: &[(usize, std::time::Instant, f64)],
    min_samples: usize,
) -> (f64, BTreeMap<usize, f64>) {
    let mut by_base: BTreeMap<usize, Vec<(std::time::Instant, f64)>> = BTreeMap::new();
    for &(base, sent, value) in samples {
        by_base.entry(base).or_default().push((sent, value));
    }
    let medians: BTreeMap<usize, f64> = by_base
        .iter()
        .map(|(&base, s)| (base, sliced(clock, s, min_samples, median).0))
        .filter(|&(_, m)| m > 0.0)
        .collect();
    let logs: Vec<f64> = medians.values().map(|m| m.ln()).collect();
    let figure = if logs.is_empty() {
        0.0
    } else {
        mean(&logs).exp()
    };
    (figure, medians)
}

fn end_to_end(
    run: &Run,
    measured: &[usize],
    answers: &[Option<Answer>],
) -> BTreeMap<&'static str, f64> {
    let clock = &run.clock;
    let base = |i: usize| run.items[run.obs[i].item].base;
    let by_base: Vec<_> = measured
        .iter()
        .filter_map(|&i| Some((base(i), run.obs[i].sent, run.obs[i].latency_us()? / 1e3)))
        .collect();
    let latencies: Vec<_> = by_base.iter().map(|&(_, sent, l)| (sent, l)).collect();
    let first_items: Vec<_> = measured
        .iter()
        .filter_map(|&i| {
            let o = &run.obs[i];
            o.first_chunk
                .map(|f| (base(i), o.sent, (f - o.sent).as_secs_f64() * 1e3))
        })
        .collect();
    let completed = run
        .obs
        .iter()
        .filter(|o| o.done.is_some_and(|d| clock.measured(d)))
        .count();
    // Throughput is the median of the completions in each whole second.
    let mut per_second = vec![0usize; clock.seconds().ceil() as usize];
    for d in run
        .obs
        .iter()
        .filter_map(|o| o.done)
        .filter(|&d| clock.measured(d))
    {
        per_second[(d - clock.t0).as_secs() as usize] += 1;
    }
    per_second.truncate(clock.seconds().floor() as usize);
    let req_per_s = if per_second.is_empty() {
        completed as f64 / clock.seconds()
    } else {
        median(&per_second.iter().map(|&n| n as f64).collect::<Vec<_>>())
    };
    // A p99 needs ten samples beyond it in every sub-window.
    let (p50, p50s) = per_base_p50(clock, &by_base, 100);
    let (p99, p99s) = sliced(clock, &latencies, 1000, |v| quantile(v, 0.99));
    let (first, firsts) = per_base_p50(clock, &first_items, 100);
    eprintln!(
        "perfbench: {} latency samples, {} first-item samples, {} completions in {:.1} s; per second {per_second:?}; p50 per base {p50s:.4?}; p99 per sub-window {p99s:.4?}; first item per base {firsts:.4?}",
        latencies.len(),
        first_items.len(),
        completed,
        clock.seconds()
    );
    let space = space_ratios(run, measured, answers);
    BTreeMap::from([
        ("setup_s", median(&run.setup_s)),
        ("req_per_s", req_per_s),
        ("latency_p50_ms", p50),
        ("latency_p99_ms", p99),
        ("first_item_p50_ms", first),
        ("peak_rss_mib", run.peak_rss_mib),
        ("space_ratio_max", space.iter().copied().fold(0.0, f64::max)),
    ])
}

fn per_layer(
    run: &Run,
    measured: &[usize],
    answers: &[Option<Answer>],
) -> BTreeMap<&'static str, f64> {
    let obs = |i: &usize| &run.obs[*i];
    let traced: Vec<usize> = measured.iter().copied().filter(|i| obs(i).traced).collect();
    let untraced: Vec<usize> = measured
        .iter()
        .copied()
        .filter(|i| !obs(i).traced)
        .collect();
    let layer = |f: &dyn Fn(&trace::LayerSample) -> Option<f64>| -> Vec<f64> {
        traced
            .iter()
            .filter_map(|i| obs(i).layers.as_deref().and_then(f))
            .collect()
    };
    let solve = layer(&|l| l.solve_us);
    // Untraced latency against the traced in-process reference, as medians
    // over the same one-shot mix: a traced request's own latency is inflated
    // by the replay that ran while it was in flight.
    let run_one = layer(&|l| l.run_one_us);
    let one_shot_latency: Vec<f64> = untraced
        .iter()
        .filter(|i| !run.items[obs(i).item].stream)
        .filter_map(|i| obs(i).latency_us())
        .collect();
    let transport = if run_one.is_empty() {
        0.0
    } else {
        median(&one_shot_latency) - median(&run_one)
    };
    let answer = |i: &usize| answers[*i];
    let wait: Vec<f64> = untraced
        .iter()
        .filter_map(|i| Some(obs(i).latency_us()? - answer(i)?.micros))
        .collect();
    let executed: Vec<Answer> = measured
        .iter()
        .filter_map(answer)
        .filter(|a| !a.cache_hit)
        .collect();
    let quadlog = executed.iter().filter(|a| a.quadlog).count();
    let streamed: Vec<usize> = measured
        .iter()
        .copied()
        .filter(|i| run.items[obs(i).item].stream)
        .collect();
    let chunks: Vec<f64> = streamed
        .iter()
        .filter_map(|i| Some(answer(i)?.chunks))
        .collect();
    let first_to_done: Vec<f64> = streamed
        .iter()
        .filter(|i| !obs(i).traced)
        .filter_map(|i| {
            let o = obs(i);
            Some((o.first_chunk? - o.sent).as_secs_f64() / (o.done? - o.sent).as_secs_f64())
        })
        .collect();
    let c = &run.counters;
    let self_times = trace::self_times(&run.recorders);
    let root_ns = self_times.root_total_ns as f64;
    let roots = self_times.roots as f64;
    let mut m = BTreeMap::from([
        ("wire.parse_us_p50", median(&layer(&|l| Some(l.parse_us)))),
        (
            "request.key_render_us_p50",
            median(&layer(&|l| Some(l.key_us))),
        ),
        (
            "request.key_bytes_mean",
            mean(&layer(&|l| Some(l.key_bytes))),
        ),
        ("cache.hit_ratio", ratio(c.hits, c.hits + c.misses)),
        ("cache.evictions", c.evictions),
        (
            "cache.lookup_us_p50",
            median(&layer(&|l| Some(l.lookup_us))),
        ),
        (
            "response.render_us_p50",
            median(&layer(&|l| Some(l.render_us))),
        ),
        (
            "response.bytes_mean",
            mean(
                &measured
                    .iter()
                    .filter(|i| obs(i).done.is_some())
                    .map(|i| obs(i).line.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("transport.overhead_us_p50", transport),
        ("engine.wait_us_p50", median(&wait)),
        ("engine.wait_us_p99", quantile(&wait, 0.99)),
        ("ops.solve_us_p50", median(&solve)),
        ("ops.solve_us_p99", quantile(&solve, 0.99)),
        (
            "ops.duality_calls_mean",
            mean(&executed.iter().map(|a| a.duality_calls).collect::<Vec<_>>()),
        ),
        (
            "policy.quadlog_share",
            ratio(quadlog as f64, executed.len() as f64),
        ),
        (
            "core.peak_bits_max",
            measured
                .iter()
                .filter_map(answer)
                .map(|a| a.peak_bits)
                .fold(0.0, f64::max),
        ),
        ("subtask.spawned", c.subtasks),
        ("subtask.stolen_ratio", ratio(c.stolen, c.subtasks)),
        ("stream.chunks_mean", mean(&chunks)),
        ("stream.first_to_done_ratio", median(&first_to_done)),
        (
            "flight.coalesced_ratio",
            ratio(c.coalesced, run.counted_requests),
        ),
        (
            "flight.executions_per_request",
            ratio(c.executions(), run.counted_requests),
        ),
        (
            "trace.remainder_share",
            ratio(
                self_times.by_layer.get("remainder").copied().unwrap_or(0) as f64,
                root_ns,
            ),
        ),
        (
            "trace.remainder_us_per_req",
            ratio(
                self_times.by_layer.get("remainder").copied().unwrap_or(0) as f64 / 1e3,
                roots,
            ),
        ),
        (
            "trace.overhead_ratio",
            ratio(untraced.len() as f64, traced.len() as f64),
        ),
        (
            "trace.spans",
            run.recorders.iter().map(|r| r.spans.len()).sum::<usize>() as f64,
        ),
        ("trace.requests", traced.len() as f64),
        ("counter.requests", run.counted_requests),
        ("counter.executions", c.executions()),
    ]);
    for (name, layer) in [
        ("wire", ["wire.self_share", "wire.self_us_per_req"]),
        ("request", ["request.self_share", "request.self_us_per_req"]),
        ("cache", ["cache.self_share", "cache.self_us_per_req"]),
        ("ops", ["ops.self_share", "ops.self_us_per_req"]),
        (
            "response",
            ["response.self_share", "response.self_us_per_req"],
        ),
    ] {
        let ns = self_times.by_layer.get(name).copied().unwrap_or(0) as f64;
        m.insert(layer[0], ratio(ns, root_ns));
        m.insert(layer[1], ratio(ns / 1e3, roots));
    }
    m.extend(run.extra.iter().copied());
    m
}

/// The commit under test: `git rev-parse HEAD` in a git checkout, else
/// "unknown"; plus an FNV-1a digest of the sources, which identifies the
/// code even where there is no git metadata.
fn provenance_commit() -> (String, String) {
    let commit = if Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench/src"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(PathBuf::from));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        for byte in file
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&file).unwrap_or_default())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (
        commit.unwrap_or_else(|| "unknown".to_string()),
        format!("{hash:016x}"),
    )
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
