//! The four workloads, one per entry point (see `perfbench/README.md` for why
//! each exists).  Every workload is closed-loop: a client sends its next
//! request only when an earlier one has been answered.

use crate::client::{self, Clock, Conn, Obs, WINDOW};
use crate::gen::{Base, Item};
use crate::json::Json;
use crate::proc::{self, Daemon};
use crate::stats::{key_seed, median, Rng, Zipf};
use crate::trace::{Recorder, Replayer};
use crate::{Counters, Ctx, Run};
use qld_datamining::generators::random_relation;
use qld_engine::wire;
use qld_engine::{Engine, EngineConfig, SolverKind, StreamEvent, StreamRunOptions};
use qld_harness::workloads as corpus;
use qld_hypergraph::generators::{self as hg, Perturbation};
use qld_keys::generators::random_instance;
use std::io::{self, BufRead, BufReader, Cursor, Write};
use std::path::Path;
use std::process::{Command as Process, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Launches per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Generator threads (and connections) per workload: the machine has 2 CPUs.
const CLIENTS: usize = 2;

/// Launches a socket daemon `SETUPS` times, keeping the last one.
fn launch_daemon(ctx: &Ctx, args: &[&str], name: &str) -> io::Result<(Daemon, Vec<f64>)> {
    let mut setup = Vec::new();
    for i in 0..SETUPS {
        // A fresh directory per launch: a front's shards restore cache
        // snapshots from their directory, and set-up must start cold.
        let dir = ctx.run_dir.join(format!("{name}{i}"));
        std::fs::create_dir_all(&dir)?;
        let dir_arg = dir.join("shards").to_string_lossy().into_owned();
        let mut full: Vec<&str> = args.to_vec();
        if args.first() == Some(&"front") {
            full.extend(["--dir", &dir_arg]);
        }
        let (mut daemon, secs) = Daemon::launch(&ctx.qld, &full, &dir.join("s.sock"))?;
        setup.push(secs);
        if i + 1 == SETUPS {
            return Ok((daemon, setup));
        }
        daemon.stop();
    }
    unreachable!("SETUPS > 0")
}

/// Pushes `base` onto `bases` with `weight` slots in the key-to-base map.
fn add(
    bases: &mut Vec<Base>,
    envelopes: &mut Vec<&'static str>,
    slots: &mut Vec<usize>,
    base: Base,
    envelope: &'static str,
    weight: usize,
) {
    bases.push(base);
    envelopes.push(envelope);
    slots.extend(std::iter::repeat_n(bases.len() - 1, weight));
}

/// `count` base indices: whole shuffled copies of `slots` back to back, so
/// every stretch of the sequence has the workload's mix, whatever the seed.
fn stratified(slots: &[usize], count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut out = Vec::with_capacity(count + slots.len());
    while out.len() < count {
        let mut round = slots.to_vec();
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out.truncate(count);
    out
}

/// The dual pair and its `DropDualEdge` perturbation.
fn both(li: hg::LabelledInstance, which: usize) -> Vec<hg::LabelledInstance> {
    let perturbed = hg::perturb(&li, Perturbation::DropDualEdge, which);
    std::iter::once(li).chain(perturbed).collect()
}

/// Draws requests whose canonical cache keys (with their envelopes) are all
/// distinct.  Relabellings of a symmetric instance can coincide, and a
/// repeated key would be answered from the cache.
struct Fresh {
    seed: u64,
    draws: u64,
    seen: std::collections::HashSet<String>,
}

impl Fresh {
    fn new(seed: u64) -> Fresh {
        Fresh {
            seed,
            draws: 0,
            seen: std::collections::HashSet::new(),
        }
    }

    /// A relabelling of `base` with a new key, and that key; `None` if 100
    /// draws found none.
    fn draw(
        &mut self,
        bases: &[Base],
        base: usize,
        pad: usize,
        envelope: &'static str,
        rng: &mut Rng,
    ) -> io::Result<Option<(Item, String)>> {
        for _ in 0..100 {
            self.draws += 1;
            let key = key_seed(self.seed, self.draws);
            let item = Item::new(bases, base, key, pad, envelope, rng);
            let request = wire::parse_request(&item.line).map_err(io::Error::other)?;
            let key = request.cache_key();
            if self.seen.insert(format!("{key}{envelope}")) {
                return Ok(Some((item, key)));
            }
        }
        Ok(None)
    }
}

/// Per-engine counters from a `stats` probe, or zeros if it failed.
fn counters_at(socket: &Path) -> Counters {
    proc::stats(socket)
        .map(|s| Counters::from_stats(&s))
        .unwrap_or_default()
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

// ---------------------------------------------------------------- serve-small

/// Distinct keys of `serve-small`.  Over a run, Zipf(0.9) draws from this
/// universe touch about twice the default 65,536 cache entries, so the cache
/// keeps evicting through the measured window.
const SMALL_UNIVERSE: usize = 1 << 20;
const SMALL_ZIPF_S: f64 = 0.9;
const SMALL_PAD: usize = 8;
/// The most popular keys are sent before the run, as many as the default
/// cache holds, so the window starts from a full cache as on a long-running
/// daemon, and the daemon's memory does not depend on how fast the window
/// would have filled it.
const SMALL_PREFILL: usize = 65_536;
/// Requests generated per client per second of run: above the highest rate
/// seen, so the request list does not wrap.
const SMALL_RATE_CAP: f64 = 30_000.0;

/// Small requests at standard-corpus sizes: solver time 2–50 µs.
fn small_bases() -> (Vec<Base>, Vec<&'static str>, Vec<usize>) {
    let (mut bases, mut env, mut slots) = (Vec::new(), Vec::new(), Vec::new());
    let small = |li: &&hg::LabelledInstance| {
        li.g.num_vertices() <= 8 && li.g.num_edges() + li.h.num_edges() <= 20
    };
    for li in hg::standard_corpus().iter().filter(small) {
        add(&mut bases, &mut env, &mut slots, Base::check(li), "", 4);
        // Small instances route to bm-tree; a forced slice keeps the space
        // ratio measured.
        add(
            &mut bases,
            &mut env,
            &mut slots,
            Base::check(li),
            " solver=quadlog-chain",
            1,
        );
    }
    for (i, li) in corpus::dual_instances()
        .iter()
        .filter(|li| li.g.num_vertices() <= 8)
        .enumerate()
    {
        let limit = 2 + i % 3;
        add(
            &mut bases,
            &mut env,
            &mut slots,
            Base::enumerate(&li.name, &li.g, Some(limit)),
            "",
            3,
        );
        add(
            &mut bases,
            &mut env,
            &mut slots,
            Base::enumerate(&li.name, &li.g, Some(limit)),
            " stream=1",
            1,
        );
    }
    for seed in 0..6u64 {
        let rows = 10 + 2 * seed as usize;
        let relation = random_relation(6, rows, 0.5, 100 + seed);
        for drop in [0, 1] {
            add(
                &mut bases,
                &mut env,
                &mut slots,
                Base::mine(&format!("rand6x{rows}"), &relation, rows / 4, drop),
                "",
                3,
            );
        }
    }
    for seed in 0..6u64 {
        let instance = random_instance(4 + seed as usize % 2, 6 + seed as usize, 3, 200 + seed);
        add(
            &mut bases,
            &mut env,
            &mut slots,
            Base::keys(&format!("rand{seed}"), &instance),
            "",
            4,
        );
    }
    (bases, env, slots)
}

/// `serve-small`: a `qld serve --socket` daemon with default flags, two
/// connections with 4 requests outstanding each, Zipf-popular small keys.
pub fn serve_small(ctx: &Ctx) -> io::Result<Run> {
    let warmup = Duration::from_millis(1500);
    let (bases, envelopes, slots) = small_bases();
    let zipf = Zipf::new(SMALL_UNIVERSE, SMALL_ZIPF_S);
    let mut rng = Rng::new(ctx.seed);
    let per_client = (SMALL_RATE_CAP * (ctx.seconds + warmup.as_secs_f64())) as usize;
    let gen_start = Instant::now();
    let mut items = Vec::with_capacity(per_client * CLIENTS);
    for _ in 0..per_client * CLIENTS {
        let key = key_seed(ctx.seed, zipf.sample(&mut rng) as u64);
        let base = slots[(key % slots.len() as u64) as usize];
        items.push(Item::new(
            &bases,
            base,
            key,
            SMALL_PAD,
            envelopes[base],
            &mut rng,
        ));
    }
    // The most popular keys, sent before the run.
    for rank in 0..SMALL_PREFILL as u64 {
        let key = key_seed(ctx.seed, rank);
        let base = slots[(key % slots.len() as u64) as usize];
        items.push(Item::new(
            &bases,
            base,
            key,
            SMALL_PAD,
            envelopes[base],
            &mut rng,
        ));
    }
    eprintln!(
        "perfbench: generated {} requests in {:.2} s",
        items.len(),
        gen_start.elapsed().as_secs_f64()
    );
    let orders: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| (c * per_client..(c + 1) * per_client).collect())
        .collect();
    let prefill: Vec<usize> = (per_client * CLIENTS..items.len()).collect();

    let (mut daemon, setup_s) = launch_daemon(ctx, &["serve"], "serve")?;
    let mut obs = std::thread::scope(|s| {
        let handles: Vec<_> = prefill
            .chunks(prefill.len().div_ceil(CLIENTS))
            .map(|part| s.spawn(|| client::send_all(&daemon.socket, &items, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefill thread"))
            .collect::<io::Result<Vec<_>>>()
    })?
    .concat();
    let replayer = ctx.trace.then(|| Replayer::new(true));
    let clock = Clock::new(warmup, ctx.seconds, ctx.trace);
    let epoch = Instant::now();
    let socket = daemon.socket.clone();
    let (results, before, after) = std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(c, order)| {
                let (items, socket, replayer) = (&items, &socket, replayer.as_ref());
                s.spawn(move || {
                    let mut rec = Recorder::new(epoch);
                    let obs = client::run_window(
                        socket,
                        items,
                        order,
                        (c as u64) << 40,
                        &clock,
                        replayer,
                        &mut rec,
                    );
                    (obs, rec)
                })
            })
            .collect();
        sleep_until(clock.t0);
        let before = counters_at(&socket);
        sleep_until(clock.t_end);
        let after = counters_at(&socket);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (results, before, after)
    });
    let peak_rss_mib = proc::peak_rss_mib(daemon.pid());
    daemon.stop();
    let mut recorders = Vec::new();
    for (o, rec) in results {
        obs.extend(o?);
        recorders.push(rec);
    }
    let counted_requests = obs.iter().filter(|o| clock.measured(o.sent)).count() as f64;
    Ok(Run {
        params: format!(
            "{{\"entry\":\"qld serve --socket\",\"connections\":{CLIENTS},\"window\":{WINDOW},\"prefill\":{SMALL_PREFILL},\"key_universe\":{SMALL_UNIVERSE},\"zipf_s\":{SMALL_ZIPF_S},\"universe_pad\":{SMALL_PAD},\"bases\":{},\"generated\":{},\"warmup_s\":{}}}",
            bases.len(),
            items.len(),
            warmup.as_secs_f64()
        ),
        bases,
        items,
        obs,
        clock,
        setup_s,
        peak_rss_mib,
        rss_processes: "qld serve --socket (1 process)".to_string(),
        counters: after.minus(&before),
        counted_requests,
        extra: Vec::new(),
        recorders,
    })
}

// ---------------------------------------------------------------- solve-heavy

/// One check in this many goes through `run_streaming` with the solver forced
/// to `quadlog-chain`, so the space ratio is always measured.
const HEAVY_FORCED_EVERY: usize = 8;

/// Heavy requests: 0.5–20 ms checks (half of them `DropDualEdge`
/// perturbations), streamed full enumerations and full border mining.
fn heavy_bases() -> (Vec<Base>, Vec<&'static str>, Vec<usize>) {
    let (mut bases, mut env, mut slots) = (Vec::new(), Vec::new(), Vec::new());
    let mut checks = Vec::new();
    for (i, li) in [
        hg::matching_instance(6),
        hg::matching_instance(7),
        hg::threshold_instance(9, 4),
        hg::threshold_instance(10, 4),
        hg::self_dual_instance(4),
        hg::graph_cover_instance("C11", hg::cycle_graph(11)),
        hg::random_dual_instance(12, 10, 4, 1),
        hg::random_dual_instance(12, 10, 4, 2),
    ]
    .into_iter()
    .enumerate()
    {
        checks.extend(both(li, i));
    }
    for li in &checks {
        add(&mut bases, &mut env, &mut slots, Base::check(li), "", 4);
    }
    for li in [hg::matching_instance(5), hg::threshold_instance(8, 3)] {
        add(
            &mut bases,
            &mut env,
            &mut slots,
            Base::enumerate(&li.name, &li.g, None),
            " stream=1",
            4,
        );
    }
    let relation = corpus::border_stress_relation(5);
    add(
        &mut bases,
        &mut env,
        &mut slots,
        Base::mine_full("pairs5", &relation, 0),
        " stream=1",
        4,
    );
    // The E7 relations whose full borders take a millisecond or more.
    let relations = corpus::datamining_workloads();
    for (name, relation, z) in [2, 3, 5].map(|i| &relations[i]) {
        add(
            &mut bases,
            &mut env,
            &mut slots,
            Base::mine_full(name, relation, *z),
            " stream=1",
            2,
        );
    }
    (bases, env, slots)
}

/// One in-process call: `run_streaming` for streamed and forced requests,
/// `run_one` otherwise.  Returns (first chunk, terminal time, terminal line).
fn call_engine(engine: &Engine, item: &Item) -> (Option<Instant>, Instant, String) {
    let request = wire::parse_request(&item.line).expect("generated lines parse");
    if item.envelope.is_empty() {
        let response = engine.run_one(request);
        return (None, Instant::now(), response.to_json_line());
    }
    let options = StreamRunOptions {
        solver: item
            .envelope
            .contains("solver=")
            .then_some(SolverKind::QuadChain),
        ..StreamRunOptions::default()
    };
    let handle = engine.run_streaming(request, options);
    let mut first = None;
    for event in &handle {
        match event {
            StreamEvent::Chunk(_) => {
                first.get_or_insert_with(Instant::now);
            }
            StreamEvent::Done(response) => return (first, Instant::now(), response.to_json_line()),
        }
    }
    (first, Instant::now(), String::new())
}

/// Engine counters read through the in-process accessors.
fn engine_counters(engine: &Engine) -> Counters {
    let cache = engine.cache_stats();
    let (flights, coalesced) = engine.coalesce_stats();
    let (subtasks, stolen) = engine.subtask_stats();
    Counters {
        hits: cache.hits as f64,
        misses: cache.misses as f64,
        evictions: cache.evictions as f64,
        flights: flights as f64,
        coalesced: coalesced as f64,
        subtasks: subtasks as f64,
        stolen: stolen as f64,
    }
}

/// `solve-heavy`: an in-process `Engine` with defaults, two caller threads,
/// unique heavy requests.
pub fn solve_heavy(ctx: &Ctx) -> io::Result<Run> {
    let warmup = Duration::from_millis(1000);
    let (bases, envelopes, slots) = heavy_bases();
    let mut rng = Rng::new(ctx.seed);
    // Unique requests: every key is new, so the cache sees writes only.
    let per_client = (400.0 * (ctx.seconds + warmup.as_secs_f64())) as usize;
    let mut items = Vec::new();
    let mut fresh = Fresh::new(ctx.seed);
    let mut checks = 0usize;
    for base in stratified(&slots, per_client * CLIENTS, &mut rng) {
        let mut envelope = envelopes[base];
        if envelope.is_empty() {
            checks += 1;
            if checks.is_multiple_of(HEAVY_FORCED_EVERY) {
                envelope = " solver=quadlog-chain";
            }
        }
        if let Some((item, _)) = fresh.draw(&bases, base, 8, envelope, &mut rng)? {
            items.push(item);
        }
    }
    let per_client = items.len() / CLIENTS;
    // Set-up: construct the engine and answer its first `stats` request.
    // Construction takes well under a millisecond, so take many samples.
    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..101 {
        drop(engine.take());
        let start = Instant::now();
        let e = Engine::new(EngineConfig::default());
        let mut out = Vec::new();
        e.serve(Cursor::new("stats\n"), &mut out)?;
        setup_s.push(start.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("constructed above");
    let replayer = ctx.trace.then(|| Replayer::new(false));
    let clock = Clock::new(warmup, ctx.seconds, ctx.trace);
    let epoch = Instant::now();
    let (results, before, after) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (items, engine, replayer) = (&items, &engine, replayer.as_ref());
                s.spawn(move || {
                    let mut rec = Recorder::new(epoch);
                    let mut obs = Vec::new();
                    for (index, item) in items
                        .iter()
                        .enumerate()
                        .skip(c * per_client)
                        .take(per_client)
                    {
                        if Instant::now() >= clock.t_end {
                            break;
                        }
                        let sent = Instant::now();
                        let mut o = Obs::new(index, sent, clock.traced(sent));
                        let (first, done, line) = match (o.traced, replayer) {
                            (true, Some(replayer)) => {
                                let token = index as u64;
                                let root = rec.open("request", token, None, sent);
                                let (answer, layers) = std::thread::scope(|t| {
                                    let call = t.spawn(|| call_engine(engine, item));
                                    let layers =
                                        replayer.replay(&mut rec, token, root, &item.wire(token));
                                    (call.join().expect("engine call"), layers)
                                });
                                rec.close(root, answer.1);
                                o.layers = Some(Box::new(layers));
                                answer
                            }
                            _ => call_engine(engine, item),
                        };
                        o.first_chunk = first;
                        o.done = Some(done);
                        o.line = line;
                        obs.push(o);
                    }
                    (obs, rec)
                })
            })
            .collect();
        sleep_until(clock.t0);
        let before = engine_counters(&engine);
        sleep_until(clock.t_end);
        let after = engine_counters(&engine);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect();
        (results, before, after)
    });
    let mut obs = Vec::new();
    let mut recorders = Vec::new();
    for (o, rec) in results {
        obs.extend(o);
        recorders.push(rec);
    }
    let counted_requests = obs.iter().filter(|o| clock.measured(o.sent)).count() as f64;
    Ok(Run {
        params: format!(
            "{{\"entry\":\"in-process Engine::run_one/run_streaming\",\"callers\":{CLIENTS},\"unique_requests\":true,\"forced_quadlog_every_nth_check\":{HEAVY_FORCED_EVERY},\"bases\":{},\"generated\":{},\"warmup_s\":{}}}",
            bases.len(),
            items.len(),
            warmup.as_secs_f64()
        ),
        bases,
        items,
        obs,
        clock,
        setup_s,
        peak_rss_mib: proc::peak_rss_mib(std::process::id()),
        rss_processes: "the benchmark process itself (engine in-process, generator included)".to_string(),
        counters: after.minus(&before),
        counted_requests,
        extra: Vec::new(),
        recorders,
    })
}

// ---------------------------------------------------------------- stdin-batch

/// Medium requests: E7/E8-sized `mine`/`keys`, mid-size checks, and streamed
/// full border mining.
fn medium_bases() -> (Vec<Base>, Vec<&'static str>, Vec<usize>) {
    let (mut bases, mut env, mut slots) = (Vec::new(), Vec::new(), Vec::new());
    for (name, relation, z) in corpus::datamining_workloads() {
        for drop in [0, 1] {
            add(
                &mut bases,
                &mut env,
                &mut slots,
                Base::mine(&name, &relation, z, drop),
                "",
                2,
            );
        }
        add(
            &mut bases,
            &mut env,
            &mut slots,
            Base::mine_full(&name, &relation, z),
            " stream=1",
            1,
        );
    }
    for (name, instance) in corpus::key_workloads() {
        add(
            &mut bases,
            &mut env,
            &mut slots,
            Base::keys(&name, &instance),
            "",
            3,
        );
    }
    for (i, li) in [
        hg::matching_instance(4),
        hg::matching_instance(5),
        hg::threshold_instance(7, 3),
        hg::threshold_instance(8, 3),
        hg::random_dual_instance(9, 8, 4, 2),
        hg::graph_cover_instance("C9", hg::cycle_graph(9)),
    ]
    .into_iter()
    .enumerate()
    {
        for li in both(li, i) {
            add(&mut bases, &mut env, &mut slots, Base::check(&li), "", 2);
        }
    }
    (bases, env, slots)
}

/// One request in this many re-asks a recent key.
const BATCH_REPEAT_EVERY: u64 = 10;
/// Requests generated per second of run: well above the highest rate seen,
/// so the writer never runs out before the window ends.
const BATCH_RATE_CAP: f64 = 12_000.0;
/// Result-cache bound of the child.  Re-asks reach back at most 50 requests,
/// so they still hit; the cache is full before the window opens, so the
/// child's memory does not depend on how fast the window would fill it.
const BATCH_CACHE: &str = "4096";

/// `stdin-batch`: a `qld serve` child on piped stdin/stdout; one writer
/// thread pushes as fast as backpressure allows, one reader thread
/// timestamps the answers.
pub fn stdin_batch(ctx: &Ctx) -> io::Result<Run> {
    let warmup = Duration::from_millis(2000);
    let (bases, envelopes, slots) = medium_bases();
    let mut rng = Rng::new(ctx.seed);
    let total = (BATCH_RATE_CAP * (ctx.seconds + warmup.as_secs_f64())) as usize;
    let mut items: Vec<Item> = Vec::with_capacity(total);
    let order = stratified(&slots, total, &mut rng);
    for n in 0..total as u64 {
        let item = if n % BATCH_REPEAT_EVERY == BATCH_REPEAT_EVERY - 1 {
            items[items.len() - 1 - rng.below(items.len().min(50))].reshuffled(&bases, &mut rng)
        } else {
            let base = order[n as usize];
            Item::new(
                &bases,
                base,
                key_seed(ctx.seed, n),
                8,
                envelopes[base],
                &mut rng,
            )
        };
        items.push(item);
    }

    let mut setup_s = Vec::new();
    let mut child = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let mut c = Process::new(&ctx.qld)
            .args(["serve", "--cache-capacity", BATCH_CACHE])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdin = c.stdin.take().expect("piped");
        let mut stdout = BufReader::new(c.stdout.take().expect("piped"));
        stdin.write_all(b"stats\n")?;
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Json::parse(line.trim()).map_err(io::Error::other)?;
        if i + 1 == SETUPS {
            child = Some((c, stdin, stdout));
        } else {
            drop(stdin);
            c.wait()?;
        }
    }
    let (mut child, stdin, stdout) = child.expect("launched above");
    let pid = child.id();
    // No in-process `run_one` replay here: the writer must keep the queue
    // standing, and this workload's layer of interest is the engine's wait.
    let replayer = ctx.trace.then(|| Replayer::new(false));
    let clock = Clock::new(warmup, ctx.seconds, ctx.trace);
    let epoch = Instant::now();
    // Send times by token, in ns since `epoch` plus one (0 = not yet sent).
    let sent_at: Vec<AtomicU64> = (0..items.len()).map(|_| AtomicU64::new(0)).collect();
    let stats_lines: Mutex<Vec<(String, Json)>> = Mutex::new(Vec::new());
    let (sent_count, in_window, writer_rec, mut obs, peak_rss_mib) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut stdin = stdin;
            let mut rec = Recorder::new(epoch);
            let (mut n, mut stats_sent, mut in_window) = (0usize, 0, 0u64);
            let mut roots = Vec::new();
            while n < items.len() {
                let now = Instant::now();
                if stats_sent == 0 && now >= clock.t0 {
                    let _ = stdin.write_all(b"stats id=s0\n");
                    stats_sent = 1;
                }
                if now >= clock.t_end {
                    break;
                }
                let wire = items[n].wire(n as u64);
                if stdin.write_all(wire.as_bytes()).is_err() {
                    break;
                }
                let sent = Instant::now();
                sent_at[n].store(rec.ns(sent) + 1, Ordering::Release);
                in_window += u64::from(stats_sent == 1);
                if let (true, Some(replayer)) = (clock.traced(sent), replayer.as_ref()) {
                    let root = rec.open("request", n as u64, None, sent);
                    roots.push((n, root, replayer.replay(&mut rec, n as u64, root, &wire)));
                }
                n += 1;
            }
            if n == items.len() {
                eprintln!(
                    "perfbench: warning: all {n} generated requests sent before the window ended"
                );
            }
            let _ = stdin.write_all(b"stats id=s1\n");
            // Returned open: the child exits once its input closes, and its
            // peak memory is read first.
            (n, in_window, rec, roots, stdin)
        });
        let reader = s.spawn(|| {
            let mut stdout = stdout;
            let mut pending: std::collections::HashMap<u64, Obs> = std::collections::HashMap::new();
            let mut done = Vec::new();
            let mut line = String::new();
            loop {
                line.clear();
                match stdout.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let now = Instant::now();
                let text = line.trim_end();
                if text.contains("\"client_id\":\"s") {
                    if let Ok(stats) = Json::parse(text) {
                        let id = stats
                            .get("client_id")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string();
                        stats_lines.lock().expect("stats lock").push((id, stats));
                    }
                    continue;
                }
                let Some(token) = client::token_of(text) else {
                    continue;
                };
                let o = pending.entry(token).or_insert_with(|| {
                    let ns = loop {
                        let ns = sent_at[token as usize].load(Ordering::Acquire);
                        if ns > 0 {
                            break ns - 1;
                        }
                        std::hint::spin_loop();
                    };
                    let sent = epoch + Duration::from_nanos(ns);
                    Obs::new(token as usize, sent, clock.traced(sent))
                });
                if client::is_chunk(text) {
                    o.first_chunk.get_or_insert(now);
                    continue;
                }
                let mut o = pending.remove(&token).expect("inserted above");
                o.done = Some(now);
                o.line = text.to_string();
                done.push(o);
            }
            done.extend(pending.into_values());
            done
        });
        let (n, in_window, rec, roots, stdin) = writer.join().expect("writer thread");
        let peak_rss_mib = proc::peak_rss_mib(pid);
        drop(stdin);
        let mut obs = reader.join().expect("reader thread");
        let mut rec = rec;
        // Close each traced root at its answer, and attach its replay.
        let mut by_item: std::collections::HashMap<usize, usize> =
            obs.iter().enumerate().map(|(i, o)| (o.item, i)).collect();
        for (item, root, layers) in roots {
            if let Some(i) = by_item.remove(&item) {
                if let Some(done) = obs[i].done {
                    rec.close(root, done);
                }
                obs[i].layers = Some(Box::new(layers));
            }
        }
        (n, in_window, rec, obs, peak_rss_mib)
    });
    child.wait()?;
    // Requests the writer sent but never saw answered are missing.
    let answered: std::collections::HashSet<usize> = obs.iter().map(|o| o.item).collect();
    for (n, at) in sent_at.iter().enumerate().take(sent_count) {
        if !answered.contains(&n) {
            let ns = at.load(Ordering::Acquire).saturating_sub(1);
            obs.push(Obs::new(n, epoch + Duration::from_nanos(ns), false));
        }
    }
    let stats = stats_lines.into_inner().expect("stats lock");
    let at = |id: &str| {
        stats
            .iter()
            .find(|(i, _)| i == id)
            .map(|(_, s)| Counters::from_stats(s))
            .unwrap_or_default()
    };
    Ok(Run {
        params: format!(
            "{{\"entry\":\"qld serve --cache-capacity {BATCH_CACHE} (stdin/stdout pipes)\",\"writer_threads\":1,\"reader_threads\":1,\"repeat_every\":{BATCH_REPEAT_EVERY},\"cache_capacity\":{BATCH_CACHE},\"bases\":{},\"generated\":{},\"sent\":{sent_count},\"warmup_s\":{}}}",
            bases.len(),
            items.len(),
            warmup.as_secs_f64()
        ),
        bases,
        items,
        obs,
        clock,
        setup_s,
        peak_rss_mib,
        rss_processes: "qld serve (1 process)".to_string(),
        counters: at("s1").minus(&at("s0")),
        counted_requests: in_window as f64,
        extra: Vec::new(),
        recorders: vec![writer_rec],
    })
}

// ---------------------------------------------------------------- fleet-burst

/// Duplicates per instance: one window's worth on each connection.
const BURST: usize = WINDOW * CLIENTS;
/// Shards behind the front.
const SHARDS: usize = 2;

/// Unused labels a `fleet-burst` hypergraph may be padded with: enough that
/// even the fully symmetric threshold instance has tens of thousands of
/// distinct relabellings, so every instance of a run can be fresh.
const BURST_PAD: usize = 8;

/// Instances that take milliseconds, every fourth a streamed full border
/// mining of an E7 relation.  Random relations have next to no symmetry, so
/// their relabellings are fresh keys too.
fn burst_bases() -> (Vec<Base>, Vec<&'static str>, Vec<usize>) {
    let (mut bases, mut env, mut slots) = (Vec::new(), Vec::new(), Vec::new());
    // Perturbations that a solver refutes in microseconds would be answered
    // before their duplicates arrive; keep only the slow ones.
    let slow_non_dual = [
        (hg::random_dual_instance(12, 10, 4, 1), 6),
        (hg::graph_cover_instance("C11", hg::cycle_graph(11)), 5),
    ]
    .into_iter()
    .filter_map(|(li, which)| hg::perturb(&li, Perturbation::DropDualEdge, which));
    for li in [
        hg::matching_instance(6),
        hg::threshold_instance(9, 4),
        hg::self_dual_instance(4),
        hg::random_dual_instance(11, 9, 4, 3),
    ]
    .into_iter()
    .chain(slow_non_dual)
    {
        add(&mut bases, &mut env, &mut slots, Base::check(&li), "", 3);
    }
    let relations = corpus::datamining_workloads();
    for (name, relation, z) in [2, 3, 5].map(|i| &relations[i]) {
        add(
            &mut bases,
            &mut env,
            &mut slots,
            Base::mine_full(name, relation, *z),
            " stream=1",
            2,
        );
    }
    (bases, env, slots)
}

/// One hop probe of a traced `fleet-burst` run: the same cached request via
/// the front and straight to its owning shard, and the in-process
/// `Engine::run_one` latency of a cache hit on it.
struct Probe {
    via: Obs,
    direct: Obs,
    inproc_us: f64,
}

/// `fleet-burst`: `qld front --shards 2` (hash policy), two connections;
/// each fresh instance is asked as a burst of permuted duplicates spanning
/// both connections' windows.
pub fn fleet_burst(ctx: &Ctx) -> io::Result<Run> {
    let warmup = Duration::from_millis(1500);
    let (bases, envelopes, slots) = burst_bases();
    let mut rng = Rng::new(ctx.seed);
    let instances = (600.0 * (ctx.seconds + warmup.as_secs_f64())) as usize;
    let mut items = Vec::with_capacity(instances * (BURST + 1));
    let ring = qld_front::HashRing::new(SHARDS);
    let mut owners = Vec::with_capacity(instances);
    let mut fresh = Fresh::new(ctx.seed);
    for base in stratified(&slots, instances, &mut rng) {
        let Some((first, key)) = fresh.draw(&bases, base, BURST_PAD, envelopes[base], &mut rng)?
        else {
            continue;
        };
        owners.push(ring.route(&key));
        // BURST duplicates, then one hop probe (traced runs only).
        for _ in 0..BURST {
            items.push(first.reshuffled(&bases, &mut rng));
        }
        items.push(first.reshuffled(&bases, &mut rng));
    }
    let (mut daemon, setup_s) = launch_daemon(ctx, &["front", "--shards", "2"], "front")?;
    let shard_dir = daemon
        .socket
        .parent()
        .expect("socket has a directory")
        .join("shards");
    let shard_sockets: Vec<_> = (0..SHARDS)
        .map(|i| shard_dir.join(format!("shard-{i}.sock")))
        .collect();
    let replayer = ctx.trace.then(|| Replayer::new(false));
    // The in-process reference for the hop probes.
    let inproc = ctx.trace.then(Engine::with_defaults);
    let clock = Clock::new(warmup, ctx.seconds, ctx.trace);
    let epoch = Instant::now();
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let snapshot =
        |sockets: &[std::path::PathBuf], front: &Path| -> (Vec<Counters>, Option<Json>) {
            (
                sockets.iter().map(|s| counters_at(s)).collect(),
                proc::stats(front).ok(),
            )
        };
    let socket = daemon.socket.clone();
    let (results, before, after) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (items, socket, replayer, inproc, barrier, stop, owners, shard_sockets) = (
                    &items,
                    &socket,
                    replayer.as_ref(),
                    inproc.as_ref(),
                    &barrier,
                    &stop,
                    &owners,
                    &shard_sockets,
                );
                s.spawn(move || -> io::Result<(Vec<Obs>, Recorder, Vec<Probe>)> {
                    let mut rec = Recorder::new(epoch);
                    let mut conn = Conn::connect(socket)?;
                    let mut direct: Vec<Conn> = if c == 0 {
                        shard_sockets
                            .iter()
                            .map(|p| Conn::connect(p))
                            .collect::<io::Result<_>>()?
                    } else {
                        Vec::new()
                    };
                    let (mut obs, mut probes) = (Vec::new(), Vec::new());
                    for i in 0..owners.len() {
                        for j in 0..WINDOW {
                            let index = i * (BURST + 1) + c * WINDOW + j;
                            let tracer = replayer.map(|r| (r, &mut rec));
                            conn.send(index, &items[index], index as u64, &clock, tracer)?;
                        }
                        while conn.outstanding() > 0 {
                            obs.push(conn.recv(Some(&mut rec))?);
                        }
                        barrier.wait();
                        if c == 0 {
                            // Hop probe: the same cached key via the front,
                            // then directly to the shard that owns it, then
                            // in-process (twice: the second is a cache hit
                            // like the other two).
                            let probe = i * (BURST + 1) + BURST;
                            if let (true, false, Some(engine)) =
                                (clock.traced(Instant::now()), items[probe].stream, inproc)
                            {
                                let tok = probe as u64;
                                conn.send(probe, &items[probe], tok, &clock, None)?;
                                let via = conn.recv(None)?;
                                let shard = &mut direct[owners[i]];
                                shard.send(probe, &items[probe], tok, &clock, None)?;
                                let direct = shard.recv(None)?;
                                let request = || wire::parse_request(&items[probe].line);
                                let _ = engine.run_one(request().map_err(io::Error::other)?);
                                let request = request().map_err(io::Error::other)?;
                                let start = Instant::now();
                                let _ = engine.run_one(request);
                                let inproc_us = start.elapsed().as_secs_f64() * 1e6;
                                probes.push(Probe {
                                    via,
                                    direct,
                                    inproc_us,
                                });
                            }
                            stop.store(Instant::now() >= clock.t_end, Ordering::Release);
                        }
                        barrier.wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    Ok((obs, rec, probes))
                })
            })
            .collect();
        sleep_until(clock.t0);
        let before = snapshot(&shard_sockets, &socket);
        sleep_until(clock.t_end);
        let after = snapshot(&shard_sockets, &socket);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (results, before, after)
    });
    let mut pids = vec![daemon.pid()];
    pids.extend(proc::children_of(daemon.pid()));
    let peak_rss_mib: f64 = pids.iter().map(|&p| proc::peak_rss_mib(p)).sum();
    let stderr = daemon.stop();
    let respawns = stderr
        .lines()
        .filter_map(|l| {
            l.split(" shard respawn(s)")
                .next()?
                .rsplit(' ')
                .next()?
                .parse::<f64>()
                .ok()
        })
        .next_back()
        .unwrap_or(0.0);
    let mut obs = Vec::new();
    let mut recorders = Vec::new();
    let (mut hops, mut transport) = (Vec::new(), Vec::new());
    for r in results {
        let (o, rec, probes) = r?;
        obs.extend(o);
        recorders.push(rec);
        for p in probes {
            if let (Some(v), Some(d)) = (p.via.latency_us(), p.direct.latency_us()) {
                hops.push(v - d);
                transport.push(v - p.inproc_us);
            }
            // Probe answers are checked like every other.
            obs.extend([p.via, p.direct]);
        }
    }
    let counted_requests = obs
        .iter()
        .filter(|o| clock.measured(o.sent) && o.item % (BURST + 1) != BURST)
        .count() as f64;
    let shard_deltas: Vec<Counters> = after
        .0
        .iter()
        .zip(&before.0)
        .map(|(a, b)| a.minus(b))
        .collect();
    let total = shard_deltas
        .iter()
        .fold(Counters::default(), |acc, d| acc.plus(d));
    let executions: Vec<f64> = shard_deltas.iter().map(Counters::executions).collect();
    let front_coalesced = |s: &Option<Json>| {
        s.as_ref()
            .and_then(|s| s.get("front"))
            .map_or(0.0, |f| f.u64_at("coalesced") as f64)
    };
    let mean_exec = executions.iter().sum::<f64>() / executions.len() as f64;
    Ok(Run {
        params: format!(
            "{{\"entry\":\"qld front --shards {SHARDS} (hash policy)\",\"connections\":{CLIENTS},\"window\":{WINDOW},\"burst\":{BURST},\"universe_pad\":{BURST_PAD},\"fresh_keys\":true,\"bases\":{},\"instances\":{},\"warmup_s\":{}}}",
            bases.len(),
            owners.len(),
            warmup.as_secs_f64()
        ),
        bases,
        items,
        obs,
        clock,
        setup_s,
        peak_rss_mib,
        rss_processes: format!("qld front + {} shard(s): pids {pids:?}", pids.len() - 1),
        counters: total,
        counted_requests,
        extra: vec![
            ("front.hop_us_p50", median(&hops)),
            ("transport.overhead_us_p50", median(&transport)),
            ("front.coalesced_ratio", (front_coalesced(&after.1) - front_coalesced(&before.1)) / counted_requests.max(1.0)),
            ("front.shard_executions", executions.iter().sum()),
            ("front.imbalance", if mean_exec > 0.0 { executions.iter().copied().fold(0.0, f64::max) / mean_exec } else { 0.0 }),
            ("front.respawns", respawns),
        ],
        recorders,
    })
}
