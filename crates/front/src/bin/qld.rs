//! `qld` — command-line front end of the batch query engine.
//!
//! ```text
//! qld check <G.qld> <H.qld>            decide duality of two hypergraph files
//! qld enumerate <G.qld> [--limit K]    enumerate minimal transversals
//! qld mine <REL.qld> --threshold Z     itemset-border identification
//!          [--g G.qld] [--h H.qld]
//! qld keys <TABLE.txt>                 enumerate minimal keys of a table
//! qld serve [--workers N] [...]        stream wire-format requests (stdin,
//!                                      --input FILE, or a --socket/--tcp
//!                                      daemon) to JSON-lines responses
//! qld front --shards N [...]           route wire requests across a
//!                                      supervised fleet of serve shards
//! ```
//!
//! All subcommands answer with JSON lines on stdout.  Common options:
//! `--workers N`, `--queue CAP`, `--no-cache`, `--cache-capacity N`,
//! `--cache-ttl SECS`, `--solver auto|bm|quadlog|quadlog-recompute`.  File
//! arguments use the line-oriented `.qld` syntax of `qld_hypergraph::format`
//! (relations: one row per line; key tables: one row of integer attribute
//! values per line); `-` reads the operand from stdin.  The wire protocol is
//! specified in `docs/WIRE.md`.

use qld_engine::{
    wire, Engine, EngineConfig, FixedPolicy, OrderMode, Request, ServeOptions, SizeThresholdPolicy,
    SolverKind, SolverPolicy, StreamEvent, StreamRunOptions,
};
use qld_hypergraph::{format, Hypergraph};
use std::io::{BufReader, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
qld — batch query engine over the quadratic-logspace duality solvers

USAGE:
  qld check <G.qld> <H.qld> [options]       decide whether G and H are dual
  qld enumerate <G.qld> [--limit K] [--stream] [opts]
                                            enumerate minimal transversals of G
  qld mine <REL.qld> --threshold Z [--g G.qld] [--h H.qld] [--full] [--stream]
                                            frequent-itemset border identification
                                            (--full: run the whole
                                            dualize-and-advance loop)
  qld keys <TABLE.txt> [options]            enumerate minimal keys of a relation
  qld serve [--input FILE | --socket PATH | --tcp ADDR] [options]
                                            serve wire-format request lines
  qld front (--socket PATH | --tcp ADDR) [--shards N] [options]
                                            shard-fleet router: spawn and
                                            supervise N `qld serve` backends
                                            and route wire requests to them by
                                            consistent-hashed cache key

OPTIONS:
  --workers N          worker threads (default: available parallelism, cap 8)
  --local-threshold N  answer a one-shot check request inline on its session
                       thread (no pool round-trip, no cache) when its work
                       size |V|*(|G|+|H|) is below N (default 0 = disabled)
  --queue CAP          bounded submission queue capacity (default 256)
  --no-cache           disable the result cache (also disables single-flight
                       request coalescing, which keys on cache keys)
  --no-coalesce        disable single-flight coalescing of concurrent
                       identical requests (each duplicate runs the solver)
  --cache-capacity N   LRU result-cache entry bound (default 65536)
  --cache-ttl SECS     expire cache entries SECS seconds after insertion
                       (0 = no TTL, the default)
  --cache-file PATH    persist the result cache across restarts: restore it
                       from PATH at startup (if the snapshot exists) and, for
                       `serve`, write it back on graceful shutdown
  --solver S           auto | bm | quadlog | quadlog-recompute  (default auto)
  --limit K            (enumerate) stop after K transversals
  --stream             (enumerate, mine --full) stream each result the moment
                       it is found: chunk frames, then a done frame; Ctrl-C
                       cancels the in-flight job at its next yield boundary
                       and still prints the done frame with the partial result
  --threshold Z        (mine) frequency threshold: frequent iff freq > Z
  --full               (mine) run the full dualize-and-advance loop: compute
                       both complete borders instead of one identification step
  --g FILE             (mine) known minimal infrequent itemsets
  --h FILE             (mine) known maximal frequent itemsets
  --input FILE         (serve) read request lines from FILE instead of stdin
  --socket PATH        (serve) run as a daemon on a Unix socket at PATH
  --tcp ADDR           (serve) run as a daemon on a TCP address, e.g.
                       127.0.0.1:7878 (the protocol is unauthenticated:
                       bind loopback unless the network is trusted)
  --order MODE         (serve) input (default: responses in request order) or
                       arrival (stream responses as they complete)
  --max-inflight N     (serve) per-session quota: reject (error code `quota`)
                       any request arriving while N of the session's requests
                       are still unanswered
  --max-items N        (serve) per-session quota: any single request stops
                       after yielding N result items (halted: max-items)
  --user-rate RATE     (serve, front) per-user admission quota: requests
                       carrying auth=<user> are admitted at RATE requests
                       per second per user (token bucket; may be fractional)
                       and rejected with a `quota` error beyond it
  --user-burst N       (serve, front) token-bucket burst: how many requests
                       a user may issue at once before the rate applies
                       (default: RATE rounded up, at least 1)
  --shards N           (front) number of backend serve shards (default 2)
  --dir DIR            (front) directory for the shard sockets and cache
                       snapshots (default: <socket>.shards; required with
                       --tcp)
  --policy P           (front) shard routing policy: hash (consistent-hash
                       cache affinity, the default) | least-loaded | sticky
  --shard-workers N    (front) worker threads per shard
  --shard-bin PATH     (front) qld binary to spawn shards from (default:
                       this executable)
  --probe-ms MS        (front) supervisor health-probe interval (default 200)
  --no-retry           (front) answer requests lost to a dying shard with an
                       `internal` error instead of retrying them once on a
                       surviving shard

A `--socket`/`--tcp` daemon shuts down gracefully on SIGINT or SIGTERM:
in-flight responses are drained, the cache snapshot is written (with
--cache-file), and the process exits 0 after printing a final summary.

A `front` daemon additionally treats SIGUSR1 as a rolling-restart request:
shards are drained and respawned one at a time (each writes its cache
snapshot on the way down, so it restarts hot), and with 2+ shards the fleet
keeps answering throughout.  SIGINT/SIGTERM stop the router and gracefully
terminate every shard.  Crashed shards are respawned automatically.

WIRE FORMAT (one request per line, for `serve`; full spec in docs/WIRE.md):
  check <G> <H>           e.g.  check 0,1;2,3 0,2;0,3;1,2;1,3
  enumerate <G> [limit=K]
  mine <REL> z=<Z> [g=<G>] [h=<H>] [full=true]
  keys <TABLE>            e.g.  keys 1,2;1,3
  stats                   engine/cache counters snapshot
  cancel id=<N>           stop the in-flight request with sequence number N
Every line also accepts id=<TOKEN> (echoed back as client_id),
order=input|arrival, solver=<NAME>, and stream=true (incremental chunk
frames + a done frame).  Inline families: edges `;`-separated, vertices
`,`-separated, optional `n=N:` prefix; `-` = no edges, `.` = the empty
edge.  Responses are JSON lines.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("qld: {message}");
            ExitCode::from(2)
        }
    }
}

/// Options shared by all subcommands.
struct Options {
    workers: Option<usize>,
    local_threshold: Option<usize>,
    queue: usize,
    cache: bool,
    coalesce: bool,
    cache_capacity: Option<usize>,
    cache_ttl: Option<Duration>,
    cache_file: Option<String>,
    solver: Option<SolverKind>,
    limit: Option<usize>,
    stream: bool,
    threshold: Option<usize>,
    full: bool,
    g_file: Option<String>,
    h_file: Option<String>,
    input: Option<String>,
    socket: Option<String>,
    tcp: Option<String>,
    order: OrderMode,
    max_inflight: Option<usize>,
    max_items: Option<u64>,
    user_rate: Option<f64>,
    user_burst: Option<f64>,
    shards: Option<usize>,
    dir: Option<String>,
    shard_policy: Option<String>,
    shard_workers: Option<usize>,
    shard_bin: Option<String>,
    probe_ms: Option<u64>,
    no_retry: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workers: None,
        local_threshold: None,
        queue: 256,
        cache: true,
        coalesce: true,
        cache_capacity: None,
        cache_ttl: None,
        cache_file: None,
        solver: None,
        limit: None,
        stream: false,
        threshold: None,
        full: false,
        g_file: None,
        h_file: None,
        input: None,
        socket: None,
        tcp: None,
        order: OrderMode::Input,
        max_inflight: None,
        max_items: None,
        user_rate: None,
        user_burst: None,
        shards: None,
        dir: None,
        shard_policy: None,
        shard_workers: None,
        shard_bin: None,
        probe_ms: None,
        no_retry: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} requires a value"))
                .map(str::to_string)
        };
        match arg.as_str() {
            "--workers" => opts.workers = Some(parse_num(&value_of("--workers")?, "--workers")?),
            "--local-threshold" => {
                opts.local_threshold = Some(parse_num(
                    &value_of("--local-threshold")?,
                    "--local-threshold",
                )?)
            }
            "--queue" => opts.queue = parse_num(&value_of("--queue")?, "--queue")?,
            "--no-cache" => opts.cache = false,
            "--no-coalesce" => opts.coalesce = false,
            "--cache-capacity" => {
                opts.cache_capacity = Some(parse_num(
                    &value_of("--cache-capacity")?,
                    "--cache-capacity",
                )?)
            }
            "--cache-ttl" => {
                let secs = parse_num(&value_of("--cache-ttl")?, "--cache-ttl")?;
                // 0 means "no TTL", not "everything already expired".
                opts.cache_ttl = (secs > 0).then(|| Duration::from_secs(secs as u64));
            }
            "--cache-file" => opts.cache_file = Some(value_of("--cache-file")?),
            "--socket" => opts.socket = Some(value_of("--socket")?),
            "--tcp" => opts.tcp = Some(value_of("--tcp")?),
            "--order" => {
                let name = value_of("--order")?;
                opts.order = OrderMode::from_name(&name)
                    .ok_or_else(|| format!("--order: unknown mode `{name}`"))?;
            }
            "--solver" => {
                let name = value_of("--solver")?;
                opts.solver = match name.as_str() {
                    "auto" => None,
                    other => Some(
                        SolverKind::from_name(other)
                            .ok_or_else(|| format!("unknown solver `{other}`"))?,
                    ),
                };
            }
            "--limit" => opts.limit = Some(parse_num(&value_of("--limit")?, "--limit")?),
            "--stream" => opts.stream = true,
            "--full" => opts.full = true,
            "--threshold" => {
                opts.threshold = Some(parse_num(&value_of("--threshold")?, "--threshold")?)
            }
            "--max-inflight" => {
                opts.max_inflight = Some(parse_num(&value_of("--max-inflight")?, "--max-inflight")?)
            }
            "--max-items" => {
                opts.max_items = Some(parse_num(&value_of("--max-items")?, "--max-items")? as u64)
            }
            "--user-rate" => {
                opts.user_rate = Some(parse_rate(&value_of("--user-rate")?, "--user-rate")?)
            }
            "--user-burst" => {
                opts.user_burst = Some(parse_rate(&value_of("--user-burst")?, "--user-burst")?)
            }
            "--shards" => opts.shards = Some(parse_num(&value_of("--shards")?, "--shards")?),
            "--dir" => opts.dir = Some(value_of("--dir")?),
            "--policy" => opts.shard_policy = Some(value_of("--policy")?),
            "--shard-workers" => {
                opts.shard_workers =
                    Some(parse_num(&value_of("--shard-workers")?, "--shard-workers")?)
            }
            "--shard-bin" => opts.shard_bin = Some(value_of("--shard-bin")?),
            "--probe-ms" => {
                opts.probe_ms = Some(parse_num(&value_of("--probe-ms")?, "--probe-ms")? as u64)
            }
            "--no-retry" => opts.no_retry = true,
            "--g" => opts.g_file = Some(value_of("--g")?),
            "--h" => opts.h_file = Some(value_of("--h")?),
            "--input" => opts.input = Some(value_of("--input")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => opts.positional.push(other.to_string()),
        }
    }
    Ok(opts)
}

fn parse_num(value: &str, flag: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid number `{value}`"))
}

fn parse_rate(value: &str, flag: &str) -> Result<f64, String> {
    let parsed: f64 = value
        .parse()
        .map_err(|_| format!("{flag}: invalid number `{value}`"))?;
    if parsed.is_finite() && parsed > 0.0 {
        Ok(parsed)
    } else {
        Err(format!("{flag}: must be a positive number, got `{value}`"))
    }
}

/// Builds the shared per-user admission buckets from `--user-rate` /
/// `--user-burst`.  `--user-burst` alone is rejected: a burst without a
/// refill rate would silently never throttle anyone.
fn user_quota_from(opts: &Options) -> Result<Option<Arc<qld_engine::UserBuckets>>, String> {
    match (opts.user_rate, opts.user_burst) {
        (Some(rate), burst) => {
            let burst = burst.unwrap_or_else(|| rate.ceil().max(1.0));
            Ok(Some(Arc::new(qld_engine::UserBuckets::new(rate, burst))))
        }
        (None, Some(_)) => Err("--user-burst requires --user-rate".to_string()),
        (None, None) => Ok(None),
    }
}

fn engine_from(opts: &Options) -> Engine {
    let policy: Arc<dyn SolverPolicy> = match opts.solver {
        Some(kind) => Arc::new(FixedPolicy(kind)),
        None => Arc::new(SizeThresholdPolicy::default()),
    };
    let defaults = EngineConfig::default();
    Engine::new(EngineConfig {
        workers: opts.workers.unwrap_or(defaults.workers),
        queue_capacity: opts.queue,
        cache: opts.cache,
        coalesce: opts.coalesce,
        cache_capacity: opts.cache_capacity.unwrap_or(defaults.cache_capacity),
        cache_ttl: opts.cache_ttl,
        policy,
        cache_file: opts.cache_file.as_ref().map(std::path::PathBuf::from),
        local_threshold: opts.local_threshold.unwrap_or(defaults.local_threshold),
    })
}

fn read_operand(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

fn load_hypergraph(path: &str) -> Result<Hypergraph, String> {
    let text = read_operand(path)?;
    format::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_relation(path: &str) -> Result<qld_datamining::BooleanRelation, String> {
    // Relations reuse the `.qld` line syntax, but rows are a multiset: parse
    // line by line instead of going through the simple-hypergraph parser.
    let text = read_operand(path)?;
    let mut inline = String::new();
    let mut declared_n = None;
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            for token in rest.split_whitespace() {
                if let Some(v) = token.strip_prefix("n=") {
                    declared_n = v.parse::<usize>().ok();
                }
            }
            continue;
        }
        if !inline.is_empty() {
            inline.push(';');
        }
        inline.push_str(&line.split_whitespace().collect::<Vec<_>>().join(","));
    }
    let token = match declared_n {
        Some(n) => format!("n={n}:{}", if inline.is_empty() { "-" } else { &inline }),
        None if inline.is_empty() => "-".to_string(),
        None => inline,
    };
    wire::parse_relation(&token).map_err(|e| format!("{path}: {e}"))
}

fn load_key_table(path: &str) -> Result<qld_keys::RelationInstance, String> {
    let text = read_operand(path)?;
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut row = Vec::new();
        for field in line.split_whitespace() {
            row.push(
                field
                    .parse::<u32>()
                    .map_err(|_| format!("{path}:{}: invalid value `{field}`", lineno + 1))?,
            );
        }
        rows.push(row);
    }
    let width = rows.first().map_or(0, Vec::len);
    if rows.iter().any(|r| r.len() != width) {
        return Err(format!("{path}: ragged table (rows must have equal width)"));
    }
    Ok(qld_keys::RelationInstance::from_rows(width, rows))
}

fn emit_one(engine: &Engine, request: Request) -> ExitCode {
    let response = engine.run_one(request);
    println!("{}", response.to_json_line());
    if response.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one request in streaming mode: chunk frames are printed the moment
/// the job yields them, the done frame last.  Ctrl-C (SIGINT) cancels the
/// in-flight job cooperatively — the job stops at its next yield boundary
/// and the done frame still arrives, carrying the partial result with
/// `halted:"cancelled"` (a second Ctrl-C force-exits).
fn emit_streaming(engine: &Engine, request: Request) -> ExitCode {
    let handle = engine.run_streaming(request, StreamRunOptions::default());
    let cancel = handle.cancel_token();
    let armed = qld_engine::trip_on_signals(&[signal::Signal::Interrupt], move |_| {
        eprintln!("qld: cancelling the in-flight job (next yield boundary)");
        cancel.cancel();
    });
    if let Err(e) = armed {
        eprintln!("qld: warning: Ctrl-C cancellation unavailable: {e}");
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut ok = false;
    while let Some(event) = handle.next_event() {
        let (line, done_ok) = match &event {
            StreamEvent::Chunk(frame) => (frame.to_json_line(), None),
            StreamEvent::Done(response) => (response.to_json_line(), Some(response.is_ok())),
        };
        if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
            return ExitCode::from(1);
        }
        if let Some(done_ok) = done_ok {
            ok = done_ok;
            break;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first().map(String::as_str) else {
        print!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let opts = parse_options(&args[1..])?;
    if command == "front" {
        // The router spawns the shard engines as child processes; it never
        // builds an in-process engine of its own.
        return run_front(&opts);
    }
    if command == "serve" {
        // Fail fast on an unwritable snapshot location: a daemon that only
        // discovers the problem at shutdown has already lost its cache.
        if let Some(path) = &opts.cache_file {
            qld_engine::probe_writable(path)
                .map_err(|e| format!("--cache-file {path}: not writable: {e}"))?;
        }
    }
    let engine = engine_from(&opts);
    report_cache_restore(&engine);
    match command {
        "check" => {
            let [g, h] = two_positional(&opts, "check <G.qld> <H.qld>")?;
            let request = Request::DecideDuality {
                g: load_hypergraph(&g)?,
                h: load_hypergraph(&h)?,
            };
            Ok(emit_one(&engine, request))
        }
        "enumerate" => {
            let g = one_positional(&opts, "enumerate <G.qld>")?;
            let request = Request::EnumerateTransversals {
                g: load_hypergraph(&g)?,
                limit: opts.limit,
            };
            Ok(if opts.stream {
                emit_streaming(&engine, request)
            } else {
                emit_one(&engine, request)
            })
        }
        "mine" => {
            let rel = one_positional(&opts, "mine <REL.qld> --threshold Z")?;
            let relation = load_relation(&rel)?;
            let threshold = opts
                .threshold
                .ok_or_else(|| "mine requires --threshold Z".to_string())?;
            let n = relation.num_items();
            let minimal_infrequent = match &opts.g_file {
                Some(path) => load_hypergraph(path)?,
                None => Hypergraph::new(n),
            };
            let maximal_frequent = match &opts.h_file {
                Some(path) => load_hypergraph(path)?,
                None => Hypergraph::new(n),
            };
            let request = if opts.full {
                Request::MineBorders {
                    relation,
                    threshold,
                    minimal_infrequent,
                    maximal_frequent,
                }
            } else {
                Request::IdentifyItemsetBorders {
                    relation,
                    threshold,
                    minimal_infrequent,
                    maximal_frequent,
                }
            };
            Ok(if opts.stream {
                emit_streaming(&engine, request)
            } else {
                emit_one(&engine, request)
            })
        }
        "keys" => {
            let table = one_positional(&opts, "keys <TABLE.txt>")?;
            let request = Request::FindMinimalKeys {
                instance: load_key_table(&table)?,
            };
            Ok(emit_one(&engine, request))
        }
        "serve" => {
            if !opts.positional.is_empty() {
                return Err(
                    "serve takes no positional arguments (use --input FILE, --socket PATH, or --tcp ADDR)"
                        .to_string(),
                );
            }
            let serve_options = ServeOptions {
                order: opts.order,
                max_inflight: opts.max_inflight,
                max_items: opts.max_items,
                user_quota: user_quota_from(&opts)?,
                ..ServeOptions::default()
            };
            let daemon_modes = [
                opts.socket.is_some(),
                opts.tcp.is_some(),
                opts.input.is_some(),
            ];
            if daemon_modes.iter().filter(|&&m| m).count() > 1 {
                return Err("--socket, --tcp, and --input are mutually exclusive".to_string());
            }
            if let Some(socket) = &opts.socket {
                return serve_socket(engine, socket, serve_options);
            }
            if let Some(addr) = &opts.tcp {
                return serve_tcp(engine, addr, serve_options);
            }
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            let summary = match &opts.input {
                Some(path) if path != "-" => {
                    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
                    engine
                        .serve_with(BufReader::new(file), &mut out, &serve_options)
                        .map_err(|e| format!("serve: {e}"))?
                }
                _ => engine
                    .serve_with(BufReader::new(std::io::stdin()), &mut out, &serve_options)
                    .map_err(|e| format!("serve: {e}"))?,
            };
            out.flush().map_err(|e| format!("serve: {e}"))?;
            let cache = engine.cache_stats();
            eprintln!(
                "qld serve: {} request(s), {} error(s), cache {} hit(s) / {} miss(es) / {} eviction(s), {} worker(s)",
                summary.requests,
                summary.errors,
                cache.hits,
                cache.misses,
                cache.evictions,
                engine.config().workers
            );
            save_cache_snapshot(&engine);
            Ok(ExitCode::SUCCESS)
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{other}` (see `qld --help`)")),
    }
}

/// Reports entries restored from the configured cache snapshot — or the
/// reason a configured warm start failed (the command still runs, cold).
/// Called for every subcommand: a corrupt `--cache-file` must never be
/// silently ignored, whichever way the engine was started.
fn report_cache_restore(engine: &Engine) {
    if let Some(reason) = engine.cache_restore_error() {
        eprintln!("qld: warning: cache snapshot not restored: {reason}");
    } else if engine.cache_restored() > 0 {
        eprintln!(
            "qld: restored {} cache entry(ies) from the snapshot",
            engine.cache_restored()
        );
    }
}

/// Writes the configured cache snapshot (if `--cache-file` was given).  A
/// failed write is reported but does not turn a clean shutdown into a failed
/// exit — the responses already served stay valid.
fn save_cache_snapshot(engine: &Engine) {
    match engine.save_configured_cache_snapshot() {
        Ok(Some(written)) => {
            eprintln!("qld serve: wrote cache snapshot ({written} entry(ies))");
        }
        Ok(None) => {}
        Err(e) => eprintln!("qld serve: warning: cache snapshot not written: {e}"),
    }
}

/// Arms SIGINT/SIGTERM to trip `shutdown` (a captured server shutdown
/// handle), so `kill -TERM` or Ctrl-C drains the daemon instead of killing it
/// mid-response.  On platforms without the signal shim backend the daemon
/// still runs; it just cannot be stopped gracefully from outside.
fn arm_shutdown_signals(shutdown: impl FnOnce() + Send + 'static) {
    use signal::Signal;
    let armed = qld_engine::trip_on_signals(&[Signal::Interrupt, Signal::Terminate], move |sig| {
        eprintln!(
            "qld serve: received {}, draining connections and shutting down",
            sig.name()
        );
        shutdown();
    });
    match armed {
        Ok(()) => eprintln!("qld serve: SIGINT/SIGTERM will drain connections and exit cleanly"),
        Err(e) => eprintln!("qld serve: warning: signal-driven shutdown unavailable: {e}"),
    }
}

/// Prints the final daemon summary and writes the cache snapshot.
fn finish_daemon(engine: &Engine, summary: qld_engine::TransportSummary) {
    eprintln!(
        "qld serve: {} connection(s), {} request(s), {} error(s), {} panicked session(s)",
        summary.connections, summary.requests, summary.errors, summary.panicked
    );
    save_cache_snapshot(engine);
}

/// Runs the persistent daemon: bind the Unix socket and serve connections
/// until a SIGINT/SIGTERM (or the shutdown handle) drains the accept loop.
#[cfg(unix)]
fn serve_socket(engine: Engine, socket: &str, options: ServeOptions) -> Result<ExitCode, String> {
    let engine = Arc::new(engine);
    let server = qld_engine::SocketServer::bind(socket).map_err(|e| format!("{socket}: {e}"))?;
    eprintln!(
        "qld serve: listening on {} ({} worker(s), order={})",
        server.path().display(),
        engine.config().workers,
        options.order.name()
    );
    let handle = server.shutdown_handle();
    arm_shutdown_signals(move || handle.shutdown());
    let summary = server
        .run(&engine, options)
        .map_err(|e| format!("serve: {e}"))?;
    finish_daemon(&engine, summary);
    Ok(ExitCode::SUCCESS)
}

#[cfg(not(unix))]
fn serve_socket(
    _engine: Engine,
    _socket: &str,
    _options: ServeOptions,
) -> Result<ExitCode, String> {
    Err("--socket requires a Unix platform (use --tcp ADDR instead)".to_string())
}

/// Runs the persistent TCP daemon: bind the address and serve connections
/// until a SIGINT/SIGTERM (or the shutdown handle) drains the accept loop.
fn serve_tcp(engine: Engine, addr: &str, options: ServeOptions) -> Result<ExitCode, String> {
    let engine = Arc::new(engine);
    let server = qld_engine::TcpServer::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
    eprintln!(
        "qld serve: listening on tcp://{} ({} worker(s), order={})",
        server.local_addr(),
        engine.config().workers,
        options.order.name()
    );
    let handle = server.shutdown_handle();
    arm_shutdown_signals(move || handle.shutdown());
    let summary = server
        .run(&engine, options)
        .map_err(|e| format!("serve: {e}"))?;
    finish_daemon(&engine, summary);
    Ok(ExitCode::SUCCESS)
}

/// Runs the fleet router daemon: spawn and supervise the shards, then serve
/// the router's own socket until SIGINT/SIGTERM drains it.  SIGUSR1 rolls
/// the fleet (drain + respawn one shard at a time).
#[cfg(unix)]
fn run_front(opts: &Options) -> Result<ExitCode, String> {
    use qld_front::{policy_from_name, Fleet, FleetConfig, Router};

    if !opts.positional.is_empty() {
        return Err("front takes no positional arguments".to_string());
    }
    if opts.socket.is_some() && opts.tcp.is_some() {
        return Err("--socket and --tcp are mutually exclusive".to_string());
    }
    if opts.socket.is_none() && opts.tcp.is_none() {
        return Err("front requires --socket PATH or --tcp ADDR".to_string());
    }
    let shards = opts.shards.unwrap_or(2);
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let dir = match (&opts.dir, &opts.socket) {
        (Some(dir), _) => std::path::PathBuf::from(dir),
        (None, Some(socket)) => std::path::PathBuf::from(format!("{socket}.shards")),
        (None, None) => {
            return Err("front --tcp requires --dir DIR for the shard sockets".to_string())
        }
    };
    let binary = match &opts.shard_bin {
        Some(path) => std::path::PathBuf::from(path),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate the qld binary for shard spawning: {e}"))?,
    };
    let policy_name = opts.shard_policy.as_deref().unwrap_or("hash");
    let policy = policy_from_name(policy_name, shards).ok_or_else(|| {
        format!("--policy: unknown policy `{policy_name}` (hash | least-loaded | sticky)")
    })?;
    let mut config = FleetConfig::new(shards, binary, dir.clone());
    config.spec.workers = opts.shard_workers;
    if let Some(ms) = opts.probe_ms {
        config.probe_interval = Duration::from_millis(ms.max(10));
    }
    let fleet = Fleet::start(config).map_err(|e| format!("front: {e}"))?;
    eprintln!(
        "qld front: supervising {} shard(s) under {} (policy={}, retry={})",
        shards,
        dir.display(),
        policy.name(),
        !opts.no_retry
    );
    let user_quota = user_quota_from(opts)?;
    if let Some(quota) = &user_quota {
        eprintln!(
            "qld front: per-user admission at {} req/s (burst {})",
            quota.rate_per_sec(),
            quota.burst()
        );
    }
    let router = Router::with_user_quota(Arc::clone(&fleet), policy, !opts.no_retry, user_quota);
    arm_rolling_restart(&fleet);
    let summary = if let Some(socket) = &opts.socket {
        let server =
            qld_engine::SocketServer::bind(socket).map_err(|e| format!("{socket}: {e}"))?;
        eprintln!("qld front: listening on {}", server.path().display());
        let handle = server.shutdown_handle();
        arm_shutdown_signals(move || handle.shutdown());
        server
            .run_with(Arc::new(qld_front::session_handler(router)))
            .map_err(|e| format!("front: {e}"))?
    } else {
        let addr = opts.tcp.as_deref().expect("checked above");
        let server = qld_engine::TcpServer::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
        eprintln!("qld front: listening on tcp://{}", server.local_addr());
        let handle = server.shutdown_handle();
        arm_shutdown_signals(move || handle.shutdown());
        server
            .run_with(Arc::new(qld_front::session_handler(router)))
            .map_err(|e| format!("front: {e}"))?
    };
    eprintln!(
        "qld front: {} connection(s), {} request(s), {} error(s), {} panicked session(s), {} shard respawn(s)",
        summary.connections, summary.requests, summary.errors, summary.panicked,
        fleet.total_respawns()
    );
    fleet.shutdown();
    Ok(ExitCode::SUCCESS)
}

#[cfg(not(unix))]
fn run_front(_opts: &Options) -> Result<ExitCode, String> {
    Err("front requires a Unix platform (shards are supervised child processes)".to_string())
}

/// Arms SIGUSR1 to trigger a rolling restart of the fleet: each delivery
/// drains and respawns the shards one at a time.  Unlike the shutdown
/// signals, repeated deliveries are welcome — every one rolls the fleet
/// again.
#[cfg(unix)]
fn arm_rolling_restart(fleet: &Arc<qld_front::Fleet>) {
    let flag = match signal::install(signal::Signal::User1) {
        Ok(flag) => flag,
        Err(e) => {
            eprintln!("qld front: warning: SIGUSR1 rolling restart unavailable: {e}");
            return;
        }
    };
    eprintln!("qld front: SIGUSR1 triggers a rolling restart of the shards");
    let fleet = Arc::clone(fleet);
    std::thread::spawn(move || {
        let mut seen = 0u64;
        loop {
            let deliveries = flag.deliveries();
            if deliveries > seen {
                seen = deliveries;
                eprintln!("qld front: SIGUSR1 received, rolling the shards");
                match fleet.rolling_restart() {
                    Ok(()) => eprintln!("qld front: rolling restart complete"),
                    Err(e) => eprintln!("qld front: rolling restart failed: {e}"),
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
}

fn one_positional(opts: &Options, usage: &str) -> Result<String, String> {
    match opts.positional.as_slice() {
        [one] => Ok(one.clone()),
        _ => Err(format!("usage: qld {usage}")),
    }
}

fn two_positional(opts: &Options, usage: &str) -> Result<[String; 2], String> {
    match opts.positional.as_slice() {
        [a, b] => Ok([a.clone(), b.clone()]),
        _ => Err(format!("usage: qld {usage}")),
    }
}
