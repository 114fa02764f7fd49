//! Property-based model tests for the per-user token bucket
//! (`qld_engine::fairness`) plus end-to-end `auth=` admission through a
//! serve session: refill arithmetic, the burst cap, backwards-clock
//! regressions, per-user isolation, and the `throttled` stats counter.

use proptest::prelude::*;
use qld_engine::{Bucket, Engine, EngineConfig, ServeOptions, UserBuckets};
use std::sync::Arc;

const NANOS_PER_SEC: f64 = 1_000_000_000.0;

/// Drives one bucket through `times` (absolute nanos, in the given order) and
/// returns how many requests were admitted.
fn admitted(bucket: &mut Bucket, times: &[u64], rate: f64, burst: f64) -> usize {
    times
        .iter()
        .filter(|&&t| bucket.try_admit(t, rate, burst))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A fresh bucket floods exactly `burst` admissions at one instant, no
    /// matter the rate: the burst is a hard cap, not a refill artifact.
    #[test]
    fn a_flood_at_one_instant_admits_exactly_the_burst(
        n in 0..40usize,
        burst in 1..=10u32,
        rate in 0..1000u32,
    ) {
        let burst = f64::from(burst);
        let mut bucket = Bucket::full(burst, 0);
        let times = vec![7u64; n];
        let got = admitted(&mut bucket, &times, f64::from(rate), burst);
        prop_assert_eq!(got, n.min(burst as usize));
    }

    /// Requests spaced at least two refill periods apart are all admitted:
    /// the bucket regains a full token (with slack for float rounding)
    /// between any two of them.
    #[test]
    fn requests_slower_than_the_rate_are_never_throttled(
        rate in 1..=1000u32,
        k in 1..40u64,
    ) {
        let rate = f64::from(rate);
        let period = (2.0 * NANOS_PER_SEC / rate).ceil() as u64 + 1;
        let mut bucket = Bucket::full(1.0, 0);
        for i in 0..k {
            prop_assert!(
                bucket.try_admit(i * period, rate, 1.0),
                "request {i} of {k} at rate {rate}/s was throttled"
            );
        }
    }

    /// Conservation: over any (sorted) schedule, total admissions never
    /// exceed the initial burst plus what the elapsed time can mint.
    #[test]
    fn admissions_never_exceed_burst_plus_minted_tokens(
        deltas in prop::collection::vec(0..200_000_000u64, 1..60usize),
        burst in 1..=5u32,
        rate in 1..=50u32,
    ) {
        let burst = f64::from(burst);
        let rate = f64::from(rate);
        let mut times = Vec::with_capacity(deltas.len());
        let mut now = 0u64;
        for d in &deltas {
            now += d;
            times.push(now);
        }
        let elapsed = *times.last().unwrap();
        let mut bucket = Bucket::full(burst, 0);
        let got = admitted(&mut bucket, &times, rate, burst) as f64;
        // +1.0 slack: a token minted mid-interval may legitimately be spent
        // before the interval's end.
        let ceiling = burst + (elapsed as f64) * rate / NANOS_PER_SEC + 1.0;
        prop_assert!(
            got <= ceiling,
            "{got} admissions > burst {burst} + minted ceiling {ceiling}"
        );
    }

    /// A clock running backwards mints nothing: replaying the same (or an
    /// earlier) timestamp admits at most the burst in total, exactly as if
    /// time had stood still.  Regression guard for non-monotonic clocks.
    #[test]
    fn a_backwards_clock_mints_no_tokens(
        times in prop::collection::vec(0..1_000_000u64, 2..40usize),
        burst in 1..=6u32,
    ) {
        let burst = f64::from(burst);
        let mut descending = times.clone();
        descending.sort_unstable_by(|a, b| b.cmp(a));
        let mut bucket = Bucket::full(burst, *descending.first().unwrap());
        let got = admitted(&mut bucket, &descending, 1000.0, burst);
        prop_assert!(
            got <= burst as usize,
            "{got} admissions on a non-advancing clock > burst {burst}"
        );
    }

    /// Users never share tokens: whatever one user's flood does, another
    /// user's first request is admitted with a full burst.
    #[test]
    fn one_users_flood_cannot_starve_another(
        flood in 1..200usize,
        burst in 1..=4u32,
    ) {
        let quota = UserBuckets::new(5.0, f64::from(burst));
        let mut flooded = 0;
        for _ in 0..flood {
            if quota.admit_at("alice", 50) {
                flooded += 1;
            }
        }
        prop_assert_eq!(flooded, flood.min(burst as usize));
        prop_assert!(quota.admit_at("bob", 50), "bob was starved by alice");
    }
}

/// End to end: `auth=` on the wire maps requests to user buckets, rejections
/// are `quota` errors that consume their `id` slot, anonymous requests are
/// never throttled, and `stats` reports the `throttled` counter.
#[test]
fn serve_sessions_enforce_user_admission_and_report_throttled() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    // Effectively no refill within the test: 2 admissions per user, period.
    let quota = Arc::new(UserBuckets::new(0.000_001, 2.0));
    let options = ServeOptions {
        user_quota: Some(Arc::clone(&quota)),
        ..ServeOptions::default()
    };
    let mut input = String::new();
    for i in 0..5 {
        input.push_str(&format!("check 0,1 0;1 auth=alice id=a{i}\n"));
    }
    input.push_str("check 0,1 0;1 auth=bob id=b0\n");
    input.push_str("check 0,1 0;1 id=anon\n");
    input.push_str("stats id=final\n");

    let mut out = Vec::new();
    let summary = engine
        .serve_with(input.as_bytes(), &mut out, &options)
        .unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8, "{text}");

    // alice: burst of 2 admitted, the next 3 rejected at admission.
    for (i, line) in lines[..5].iter().enumerate() {
        assert!(line.contains(&format!("\"client_id\":\"a{i}\"")), "{line}");
        if i < 2 {
            assert!(line.contains("\"dual\":true"), "{line}");
        } else {
            assert!(
                line.contains("\"code\":\"quota\"") && line.contains("`alice`"),
                "{line}"
            );
        }
    }
    // bob and the anonymous client are untouched by alice's flood.
    assert!(lines[5].contains("\"dual\":true"), "{}", lines[5]);
    assert!(lines[6].contains("\"dual\":true"), "{}", lines[6]);
    // The stats snapshot counts the three rejections.
    assert!(lines[7].contains("\"throttled\":3"), "{}", lines[7]);
    assert_eq!(summary.requests, 8);
    assert_eq!(summary.errors, 3);
    assert_eq!(quota.tracked_users(), 2);
}

/// `auth=` is additive: a session with no configured quota accepts the
/// keyword and never throttles anyone.
#[test]
fn auth_without_a_configured_quota_is_a_no_op() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let input: String = (0..10)
        .map(|i| format!("check 0,1 0;1 auth=alice id=q{i}\n"))
        .collect();
    let mut out = Vec::new();
    let summary = engine
        .serve_with(input.as_bytes(), &mut out, &ServeOptions::default())
        .unwrap();
    assert_eq!(summary.requests, 10);
    assert_eq!(summary.errors, 0);
}

/// A policy that sleeps before solving instances of at least
/// `volume_threshold`, so a few such checks keep one worker and a
/// one-slot queue full for a known stretch.
struct SleepOnBig {
    volume_threshold: usize,
    delay: std::time::Duration,
}

impl qld_engine::SolverPolicy for SleepOnBig {
    fn choose(
        &self,
        g: &qld_hypergraph::Hypergraph,
        h: &qld_hypergraph::Hypergraph,
    ) -> qld_engine::SolverKind {
        if g.volume() + h.volume() >= self.volume_threshold {
            std::thread::sleep(self.delay);
        }
        qld_engine::SolverKind::BmTree
    }

    fn name(&self) -> &'static str {
        "sleep-on-big"
    }
}

/// One worker, a one-slot queue, no cache (so identical slow checks neither
/// hit nor coalesce), and alice limited to a burst of 2 with no refill.
fn stalling_engine_and_options() -> (Engine, ServeOptions) {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        queue_capacity: 1,
        cache: false,
        policy: Arc::new(SleepOnBig {
            volume_threshold: 8,
            delay: std::time::Duration::from_millis(60),
        }),
        ..EngineConfig::default()
    });
    let options = ServeOptions {
        user_quota: Some(Arc::new(UserBuckets::new(0.001, 2.0))),
        ..ServeOptions::default()
    };
    (engine, options)
}

/// Three slow checks fill the worker and the queue, so alice's single
/// request waits for a queue slot.  Waiting is not asking again: her line is
/// charged once, however often the session retries it.
const STALLED_AUTH_INPUT: &str = "\
check 0,1;2,3 0,2;0,3;1,2;1,3 id=slow0
check 0,1;2,3 0,2;0,3;1,2;1,3 id=slow1
check 0,1;2,3 0,2;0,3;1,2;1,3 id=slow2
check 0,1 0;1 auth=alice id=alice
";

fn assert_alice_answered(text: &str) {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    let alice = lines
        .iter()
        .find(|l| l.contains("\"client_id\":\"alice\""))
        .unwrap_or_else(|| panic!("alice unanswered: {text}"));
    assert!(alice.contains("\"ok\":true"), "{alice}");
    assert!(alice.contains("\"dual\":true"), "{alice}");
}

#[test]
fn a_stalled_auth_line_is_charged_once_over_pipe_and_socket() {
    let (engine, options) = stalling_engine_and_options();
    let mut out = Vec::new();
    engine
        .serve_with(STALLED_AUTH_INPUT.as_bytes(), &mut out, &options)
        .unwrap();
    assert_alice_answered(&String::from_utf8(out).unwrap());

    #[cfg(unix)]
    {
        use std::io::{Read, Write};
        let (engine, options) = stalling_engine_and_options();
        let engine = Arc::new(engine);
        let path =
            std::env::temp_dir().join(format!("qld-fairness-stalled-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let server = qld_engine::SocketServer::bind(&path).unwrap();
        let handle = server.shutdown_handle();
        let runner = std::thread::spawn(move || server.run(&engine, options));
        let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
        stream.write_all(STALLED_AUTH_INPUT.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        handle.shutdown();
        runner.join().unwrap().unwrap();
        assert_alice_answered(&text);
    }
}

/// The session's in-flight cap is checked before the user's bucket: a line
/// refused because the session already has a request running does not spend
/// one of the user's tokens.  alice has a burst of 2: her slow `a1` takes
/// one, `a2` is refused for the session cap while `a1` runs, and `a3`, sent
/// after `a1` is answered, gets the second token.
#[cfg(unix)]
#[test]
fn a_line_refused_for_the_session_cap_spends_no_user_tokens() {
    use std::io::{BufRead, BufReader, Write};
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        cache: false,
        policy: Arc::new(SleepOnBig {
            volume_threshold: 8,
            delay: std::time::Duration::from_millis(200),
        }),
        ..EngineConfig::default()
    }));
    let options = ServeOptions {
        max_inflight: Some(1),
        user_quota: Some(Arc::new(UserBuckets::new(0.001, 2.0))),
        ..ServeOptions::default()
    };
    let path = std::env::temp_dir().join(format!("qld-fairness-cap-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = qld_engine::SocketServer::bind(&path).unwrap();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run(&engine, options));

    let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream
        .write_all(
            b"check 0,1;2,3 0,2;0,3;1,2;1,3 auth=alice id=a1\ncheck 0,1 0;1 auth=alice id=a2\n",
        )
        .unwrap();
    let mut first = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        first.push(line);
    }
    let find = |lines: &[String], tag: &str| -> String {
        lines
            .iter()
            .find(|l| l.contains(&format!("\"client_id\":\"{tag}\"")))
            .unwrap_or_else(|| panic!("no answer for {tag}: {lines:#?}"))
            .clone()
    };
    let a1 = find(&first, "a1");
    assert!(
        a1.contains("\"ok\":true") && a1.contains("\"dual\":true"),
        "{a1}"
    );
    let a2 = find(&first, "a2");
    assert!(
        a2.contains("\"code\":\"quota\"") && a2.contains("session in-flight quota exceeded"),
        "{a2}"
    );

    stream
        .write_all(b"check 0,1 0;1 auth=alice id=a3\n")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let rest: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(rest.len(), 1, "{rest:#?}");
    let a3 = find(&rest, "a3");
    assert!(a3.contains("\"ok\":true"), "{a3}");

    handle.shutdown();
    runner.join().unwrap().unwrap();
}
