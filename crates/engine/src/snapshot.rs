//! Version-stamped persistence of the result cache (`qld serve --cache-file`).
//!
//! A snapshot is a plain-text file reproducing a [`QueryCache`]'s canonical-key
//! → outcome entries across a daemon restart:
//!
//! ```text
//! qldcache <version> <entry-count> <written-at-unix-ms>
//! <age_ms>\t<key>\t<outcome>\t<solver>\t<peak_bits>\t<duality_calls>
//! ...                                      (exactly <entry-count> lines)
//! ```
//!
//! * The header stamps the snapshot format version ([`SNAPSHOT_VERSION`]), the
//!   exact entry count — a truncated file fails to load rather than silently
//!   restoring a prefix — and the wall-clock write time.
//! * Entries are ordered least-recently-used → most-recently-used, so loading
//!   them in file order reproduces the cache's eviction order, not just its
//!   contents.
//! * `age_ms` is how long before the snapshot the entry was stored.  On load
//!   the entry is backdated by that age **plus** the downtime since the
//!   snapshot was written (from the header's wall clock, clamped at zero
//!   against clock skew), so a configured TTL keeps counting down across the
//!   restart — entries that died while the daemon was down are dropped.
//! * The `key`, `outcome`, and `solver` fields are escaped (`\t`, `\n`, `\r`,
//!   `\\`) so the tab-separated, line-oriented framing is unambiguous for any
//!   content.
//! * `outcome` is a compact text encoding of the cached
//!   [`Outcome`] (or [`EngineError`]), documented in
//!   `docs/WIRE.md` § "Cache snapshots"; index sets reuse the wire protocol's
//!   inline conventions (`,`-separated indices, `;`-separated sets, `.` for
//!   the empty set, `-` for the empty family).
//!
//! Loading is transactional: the whole file is parsed before anything is
//! inserted, so a corrupt or version-mismatched snapshot leaves the cache
//! exactly as it was (the daemon starts cold instead of half-warm).

use crate::cache::{CachedResult, QueryCache, SnapshotEntry};
use crate::ops::ExecInfo;
use crate::response::{BordersOutcome, EngineError, ErrorCode, Outcome, WitnessSummary};
use std::io::{self, BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

/// Version of the snapshot format; bumped on any incompatible change.
/// A snapshot stamped with a different version is rejected at load time.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file is not a well-formed snapshot (bad header, wrong version,
    /// truncation, or an undecodable entry).  Nothing was restored.
    Malformed {
        /// 1-based line of the first problem (0 for a missing header).
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot read failed: {e}"),
            SnapshotError::Malformed { line, reason } => {
                write!(f, "malformed cache snapshot (line {line}): {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// What a snapshot load did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Entries admitted into the cache.
    pub restored: u64,
    /// Well-formed entries dropped by cache policy (TTL already expired at
    /// load time, or a zero-capacity cache).
    pub dropped: u64,
}

/// Verifies that a snapshot could be written at `path`, without touching an
/// existing snapshot.  `qld serve --cache-file` calls this at startup so a
/// misspelled directory or a permission problem fails fast instead of
/// surfacing only at graceful-shutdown snapshot time (when the cache it was
/// supposed to persist is lost).
///
/// An existing file is probed by opening it for append (no truncation, no
/// write); a missing one by create-and-unlinking a `.probe.<pid>` sibling —
/// never the target path itself, so an ill-timed crash cannot leave an empty
/// file where [`read_snapshot`] would later look for a real snapshot.
pub fn probe_writable(path: impl AsRef<std::path::Path>) -> io::Result<()> {
    let path = path.as_ref();
    match std::fs::OpenOptions::new().append(true).open(path) {
        Ok(_) => return Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let mut probe = path.as_os_str().to_os_string();
    probe.push(format!(".probe.{}", std::process::id()));
    let probe = std::path::PathBuf::from(probe);
    let result = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&probe)
        .map(|_| ());
    let _ = std::fs::remove_file(&probe);
    result
}

/// Writes a snapshot of `cache`'s live entries to `out`, returning how many
/// entries it contains.  Entries whose outcome cannot be encoded (none exist
/// today — only query results are cached) are skipped rather than poisoning
/// the file.
pub fn write_snapshot(cache: &QueryCache, out: &mut dyn Write) -> io::Result<u64> {
    let mut lines = Vec::new();
    for entry in cache.export_entries() {
        let Some(outcome) = encode_outcome(&entry.result.outcome) else {
            continue;
        };
        lines.push(format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            entry.age.as_millis(),
            escape(&entry.key),
            escape(&outcome),
            escape(&entry.result.info.solver),
            entry.result.info.peak_bits,
            entry.result.info.duality_calls,
        ));
    }
    let written_at_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    writeln!(
        out,
        "qldcache {} {} {}",
        SNAPSHOT_VERSION,
        lines.len(),
        written_at_ms
    )?;
    for line in &lines {
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    Ok(lines.len() as u64)
}

/// Loads a snapshot from `input` into `cache`.  Transactional: the file is
/// fully parsed before the first entry is inserted, so an error restores
/// nothing.
pub fn read_snapshot(
    cache: &QueryCache,
    input: impl BufRead,
) -> Result<RestoreStats, SnapshotError> {
    let malformed = |line: usize, reason: String| SnapshotError::Malformed { line, reason };
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| malformed(0, "empty file (missing header)".to_string()))??;
    let (expected, written_at_ms) = parse_header(&header).map_err(|reason| malformed(1, reason))?;
    // Downtime between snapshot write and this load, charged against every
    // entry's TTL below (clamped: a clock that moved backwards charges 0).
    let downtime = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .and_then(|now| now.checked_sub(Duration::from_millis(written_at_ms)))
        .unwrap_or(Duration::ZERO);
    let mut entries: Vec<SnapshotEntry> = Vec::with_capacity(expected.min(1 << 16));
    for (index, line) in lines.enumerate() {
        let line = line?;
        if entries.len() == expected {
            return Err(malformed(
                index + 2,
                format!("trailing data after the {expected} declared entries"),
            ));
        }
        let entry = parse_entry(&line).map_err(|reason| malformed(index + 2, reason))?;
        entries.push(entry);
    }
    if entries.len() != expected {
        return Err(malformed(
            entries.len() + 1,
            format!(
                "truncated snapshot: header declares {expected} entries, found {}",
                entries.len()
            ),
        ));
    }
    let mut stats = RestoreStats::default();
    for mut entry in entries {
        entry.age = entry.age.saturating_add(downtime);
        if cache.import_entry(entry) {
            stats.restored += 1;
        } else {
            stats.dropped += 1;
        }
    }
    Ok(stats)
}

/// Parses the `qldcache <version> <count> <written-at-unix-ms>` header,
/// returning the entry count and the write-time wall clock.
fn parse_header(header: &str) -> Result<(usize, u64), String> {
    let mut tokens = header.split_ascii_whitespace();
    if tokens.next() != Some("qldcache") {
        return Err("not a qldcache snapshot".to_string());
    }
    let version: u32 = tokens
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "missing or invalid version stamp".to_string())?;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {version} is not the supported version {SNAPSHOT_VERSION}"
        ));
    }
    let count: usize = tokens
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "missing or invalid entry count".to_string())?;
    let written_at_ms: u64 = tokens
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "missing or invalid write timestamp".to_string())?;
    if tokens.next().is_some() {
        return Err("trailing tokens after the header fields".to_string());
    }
    Ok((count, written_at_ms))
}

/// Parses one tab-separated entry line.
fn parse_entry(line: &str) -> Result<SnapshotEntry, String> {
    let fields: Vec<&str> = line.split('\t').collect();
    let [age_ms, key, outcome, solver, peak_bits, duality_calls] = fields.as_slice() else {
        return Err(format!(
            "expected 6 tab-separated fields, got {}",
            fields.len()
        ));
    };
    let age_ms: u64 = age_ms
        .parse()
        .map_err(|_| format!("invalid age `{age_ms}`"))?;
    let key = unescape(key)?;
    if key.is_empty() {
        return Err("empty cache key".to_string());
    }
    let outcome = decode_outcome(&unescape(outcome)?)?;
    let solver = unescape(solver)?;
    let peak_bits: u64 = peak_bits
        .parse()
        .map_err(|_| format!("invalid peak_bits `{peak_bits}`"))?;
    let duality_calls: u64 = duality_calls
        .parse()
        .map_err(|_| format!("invalid duality_calls `{duality_calls}`"))?;
    Ok(SnapshotEntry {
        key,
        age: Duration::from_millis(age_ms),
        result: Arc::new(CachedResult {
            outcome,
            info: ExecInfo {
                solver,
                peak_bits,
                duality_calls,
            },
        }),
    })
}

/// Escapes the framing characters (`\t`, `\n`, `\r`, `\\`) of one field.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => return Err(format!("invalid escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

/// `.` for the empty index set, else comma-joined indices.
fn encode_set(xs: &[usize]) -> String {
    if xs.is_empty() {
        ".".to_string()
    } else {
        xs.iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn decode_set(token: &str) -> Result<Vec<usize>, String> {
    if token == "." {
        return Ok(Vec::new());
    }
    token
        .split(',')
        .map(|t| t.parse().map_err(|_| format!("invalid index `{t}`")))
        .collect()
}

/// `-` for the empty family, else `;`-joined [`encode_set`] tokens.
fn encode_family(xss: &[Vec<usize>]) -> String {
    if xss.is_empty() {
        "-".to_string()
    } else {
        xss.iter()
            .map(|xs| encode_set(xs))
            .collect::<Vec<_>>()
            .join(";")
    }
}

fn decode_family(token: &str) -> Result<Vec<Vec<usize>>, String> {
    if token == "-" {
        return Ok(Vec::new());
    }
    token.split(';').map(decode_set).collect()
}

/// Encodes a cached outcome as one space-separated token sequence, or `None`
/// for outcomes that are never cached (`stats` snapshots).
fn encode_outcome(outcome: &Result<Outcome, EngineError>) -> Option<String> {
    Some(match outcome {
        Err(e) => format!("err {} {}", e.code.as_str(), e.message),
        Ok(Outcome::Duality { dual, witness }) => match (dual, witness) {
            (true, _) => "ok check dual".to_string(),
            (false, None) => "ok check nondual none".to_string(),
            (false, Some(WitnessSummary::NewTransversalOfG(t))) => {
                format!("ok check nondual tg {}", encode_set(t))
            }
            (false, Some(WitnessSummary::NewTransversalOfH(t))) => {
                format!("ok check nondual th {}", encode_set(t))
            }
            (false, Some(WitnessSummary::DisjointEdges { g_edge, h_edge })) => {
                format!(
                    "ok check nondual de {} {}",
                    encode_set(g_edge),
                    encode_set(h_edge)
                )
            }
        },
        Ok(Outcome::Transversals {
            transversals,
            complete,
        }) => format!(
            "ok enumerate {} {}",
            u8::from(*complete),
            encode_family(transversals)
        ),
        Ok(Outcome::Borders(b)) => match b {
            BordersOutcome::Complete => "ok mine complete".to_string(),
            BordersOutcome::NewMaximalFrequent(s) => {
                format!("ok mine new-max {}", encode_set(s))
            }
            BordersOutcome::NewMinimalInfrequent(s) => {
                format!("ok mine new-min {}", encode_set(s))
            }
            BordersOutcome::InvalidMaximalFrequent(s) => {
                format!("ok mine invalid-max {}", encode_set(s))
            }
            BordersOutcome::InvalidMinimalInfrequent(s) => {
                format!("ok mine invalid-min {}", encode_set(s))
            }
        },
        Ok(Outcome::FullBorders {
            maximal_frequent,
            minimal_infrequent,
            identification_calls,
            complete,
        }) => format!(
            "ok mine-full {} {} {} {}",
            u8::from(*complete),
            identification_calls,
            encode_family(maximal_frequent),
            encode_family(minimal_infrequent)
        ),
        Ok(Outcome::Keys {
            keys,
            duality_calls,
        }) => format!("ok keys {} {}", duality_calls, encode_family(keys)),
        // Control snapshots (`stats`) and cancel acknowledgements never
        // reach the cache.
        Ok(Outcome::Stats { .. }) | Ok(Outcome::Cancel { .. }) => return None,
    })
}

/// Inverse of [`encode_outcome`].
fn decode_outcome(text: &str) -> Result<Result<Outcome, EngineError>, String> {
    let (status, rest) = text
        .split_once(' ')
        .ok_or_else(|| format!("truncated outcome `{text}`"))?;
    match status {
        "err" => {
            let (code, message) = rest
                .split_once(' ')
                .ok_or_else(|| format!("truncated error outcome `{text}`"))?;
            let code = match code {
                "parse" => ErrorCode::Parse,
                "execute" => ErrorCode::Execute,
                "internal" => ErrorCode::Internal,
                "cancelled" => ErrorCode::Cancelled,
                "quota" => ErrorCode::Quota,
                other => return Err(format!("unknown error code `{other}`")),
            };
            Ok(Err(EngineError {
                code,
                message: message.to_string(),
            }))
        }
        "ok" => decode_ok_outcome(rest).map(Ok),
        other => Err(format!("unknown outcome status `{other}`")),
    }
}

fn decode_ok_outcome(rest: &str) -> Result<Outcome, String> {
    let mut tokens = rest.split(' ');
    let mut next = |what: &str| {
        tokens
            .next()
            .ok_or_else(|| format!("missing {what} in outcome `{rest}`"))
    };
    let kind = next("kind")?;
    let outcome = match kind {
        "check" => match next("duality tag")? {
            "dual" => Outcome::Duality {
                dual: true,
                witness: None,
            },
            "nondual" => {
                let witness = match next("witness tag")? {
                    "none" => None,
                    "tg" => Some(WitnessSummary::NewTransversalOfG(decode_set(next(
                        "witness set",
                    )?)?)),
                    "th" => Some(WitnessSummary::NewTransversalOfH(decode_set(next(
                        "witness set",
                    )?)?)),
                    "de" => Some(WitnessSummary::DisjointEdges {
                        g_edge: decode_set(next("g edge")?)?,
                        h_edge: decode_set(next("h edge")?)?,
                    }),
                    other => return Err(format!("unknown witness tag `{other}`")),
                };
                Outcome::Duality {
                    dual: false,
                    witness,
                }
            }
            other => return Err(format!("unknown duality tag `{other}`")),
        },
        "enumerate" => {
            let complete = match next("completeness bit")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("invalid completeness bit `{other}`")),
            };
            Outcome::Transversals {
                transversals: decode_family(next("transversal family")?)?,
                complete,
            }
        }
        "mine" => Outcome::Borders(match next("borders tag")? {
            "complete" => BordersOutcome::Complete,
            "new-max" => BordersOutcome::NewMaximalFrequent(decode_set(next("itemset")?)?),
            "new-min" => BordersOutcome::NewMinimalInfrequent(decode_set(next("itemset")?)?),
            "invalid-max" => BordersOutcome::InvalidMaximalFrequent(decode_set(next("itemset")?)?),
            "invalid-min" => {
                BordersOutcome::InvalidMinimalInfrequent(decode_set(next("itemset")?)?)
            }
            other => return Err(format!("unknown borders tag `{other}`")),
        }),
        "mine-full" => {
            let complete = match next("completeness bit")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("invalid completeness bit `{other}`")),
            };
            let identification_calls: u64 = next("identification calls")?
                .parse()
                .map_err(|_| "invalid identification-call count".to_string())?;
            Outcome::FullBorders {
                maximal_frequent: decode_family(next("maximal border")?)?,
                minimal_infrequent: decode_family(next("minimal border")?)?,
                identification_calls,
                complete,
            }
        }
        "keys" => {
            let duality_calls: usize = next("duality calls")?
                .parse()
                .map_err(|_| "invalid duality-call count".to_string())?;
            Outcome::Keys {
                keys: decode_family(next("key family")?)?,
                duality_calls,
            }
        }
        other => return Err(format!("unknown outcome kind `{other}`")),
    };
    if let Some(extra) = tokens.next() {
        return Err(format!("trailing token `{extra}` in outcome `{rest}`"));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedResult;

    #[test]
    fn probe_writable_accepts_missing_and_existing_files() {
        let dir = std::env::temp_dir();
        let fresh = dir.join(format!("qld-probe-fresh-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&fresh);
        probe_writable(&fresh).expect("fresh path in a writable directory");
        assert!(!fresh.exists(), "the probe must not create the target");

        let existing = dir.join(format!("qld-probe-existing-{}.snap", std::process::id()));
        std::fs::write(&existing, "qldcache 1 0 0\n").unwrap();
        probe_writable(&existing).expect("existing writable file");
        assert_eq!(
            std::fs::read_to_string(&existing).unwrap(),
            "qldcache 1 0 0\n",
            "probing must not modify an existing snapshot"
        );
        let _ = std::fs::remove_file(&existing);
    }

    #[test]
    fn probe_writable_rejects_an_unwritable_location() {
        let missing_dir = std::env::temp_dir()
            .join(format!("qld-no-such-dir-{}", std::process::id()))
            .join("cache.snap");
        assert!(probe_writable(&missing_dir).is_err());
    }

    fn cached(outcome: Result<Outcome, EngineError>) -> CachedResult {
        CachedResult {
            outcome,
            info: ExecInfo {
                solver: "bm-tree".into(),
                peak_bits: 12,
                duality_calls: 3,
            },
        }
    }

    fn all_outcomes() -> Vec<Result<Outcome, EngineError>> {
        vec![
            Ok(Outcome::Duality {
                dual: true,
                witness: None,
            }),
            Ok(Outcome::Duality {
                dual: false,
                witness: Some(WitnessSummary::NewTransversalOfG(vec![0, 2])),
            }),
            Ok(Outcome::Duality {
                dual: false,
                witness: Some(WitnessSummary::NewTransversalOfH(vec![])),
            }),
            Ok(Outcome::Duality {
                dual: false,
                witness: Some(WitnessSummary::DisjointEdges {
                    g_edge: vec![0, 1],
                    h_edge: vec![2],
                }),
            }),
            Ok(Outcome::Transversals {
                transversals: vec![vec![0], vec![1, 2], vec![]],
                complete: false,
            }),
            Ok(Outcome::Transversals {
                transversals: vec![],
                complete: true,
            }),
            Ok(Outcome::Borders(BordersOutcome::Complete)),
            Ok(Outcome::Borders(BordersOutcome::NewMaximalFrequent(vec![
                1, 3,
            ]))),
            Ok(Outcome::Borders(BordersOutcome::NewMinimalInfrequent(
                vec![],
            ))),
            Ok(Outcome::Borders(BordersOutcome::InvalidMaximalFrequent(
                vec![2],
            ))),
            Ok(Outcome::Borders(BordersOutcome::InvalidMinimalInfrequent(
                vec![0, 1, 2],
            ))),
            Ok(Outcome::FullBorders {
                maximal_frequent: vec![vec![0, 1], vec![2]],
                minimal_infrequent: vec![vec![0, 2], vec![]],
                identification_calls: 5,
                complete: true,
            }),
            Ok(Outcome::FullBorders {
                maximal_frequent: vec![],
                minimal_infrequent: vec![],
                identification_calls: 1,
                complete: false,
            }),
            Ok(Outcome::Keys {
                keys: vec![vec![0, 1], vec![2]],
                duality_calls: 4,
            }),
            Err(EngineError::execute("border family `g` mentions item 9")),
            Err(EngineError::internal("worker panicked: tab\there")),
        ]
    }

    #[test]
    fn every_cacheable_outcome_round_trips() {
        for outcome in all_outcomes() {
            let encoded = encode_outcome(&outcome).expect("cacheable outcome");
            let decoded = decode_outcome(&encoded).unwrap_or_else(|e| {
                panic!("`{encoded}` failed to decode: {e}");
            });
            assert_eq!(decoded, outcome, "`{encoded}`");
        }
    }

    #[test]
    fn control_outcomes_are_never_written() {
        let outcome = Ok(Outcome::Stats {
            cache: crate::cache::CacheStats::default(),
            workers: 2,
            protocol: 1,
            uptime_ms: 0,
            cache_restored: false,
            inflight: 0,
            sessions: 0,
            connections: 0,
            throttled: 0,
            flights: 0,
            coalesced: 0,
        });
        assert!(encode_outcome(&outcome).is_none());
        let outcome = Ok(Outcome::Cancel {
            target: 3,
            cancelled: true,
        });
        assert!(encode_outcome(&outcome).is_none());
    }

    #[test]
    fn snapshot_file_round_trips_through_a_cache() {
        let cache = QueryCache::with_capacity(16);
        for (i, outcome) in all_outcomes().into_iter().enumerate() {
            cache.insert(format!("check key-{i} with spaces"), cached(outcome));
        }
        let mut file = Vec::new();
        let written = write_snapshot(&cache, &mut file).unwrap();
        assert_eq!(written, 16);

        let restored = QueryCache::with_capacity(16);
        let stats = read_snapshot(&restored, file.as_slice()).unwrap();
        assert_eq!(stats.restored, 16);
        assert_eq!(stats.dropped, 0);
        for (i, outcome) in all_outcomes().into_iter().enumerate() {
            let hit = restored
                .get(&format!("check key-{i} with spaces"))
                .unwrap_or_else(|| panic!("key {i} missing after restore"));
            assert_eq!(hit.outcome, outcome);
            assert_eq!(hit.info.solver, "bm-tree");
            assert_eq!(hit.info.peak_bits, 12);
            assert_eq!(hit.info.duality_calls, 3);
        }
    }

    #[test]
    fn malformed_snapshots_are_rejected_without_restoring_anything() {
        let cases: &[&str] = &[
            "",
            "not-a-snapshot\n",
            "qldcache 99 0 0\n",                              // wrong version
            "qldcache 1\n",                                   // missing count
            "qldcache 1 0\n",                                 // missing timestamp
            "qldcache 1 0 0 extra\n",                         // trailing header token
            "qldcache 1 2 0\n0\tk\tok check dual\t-\t0\t0\n", // truncated
            "qldcache 1 0 0\n0\tk\tok check dual\t-\t0\t0\n", // trailing
            "qldcache 1 1 0\n0\tk\tok check dual\t-\t0\n",    // missing field
            "qldcache 1 1 0\nx\tk\tok check dual\t-\t0\t0\n", // bad age
            "qldcache 1 1 0\n0\tk\tok frobnicate\t-\t0\t0\n", // bad outcome
            "qldcache 1 1 0\n0\tk\tok check dual extra\t-\t0\t0\n", // trailing token
            "qldcache 1 1 0\n0\tk\tok enumerate 2 -\t-\t0\t0\n", // bad bit
            "qldcache 1 1 0\n0\t\tok check dual\t-\t0\t0\n",  // empty key
            "qldcache 1 1 0\n0\tk\\q\tok check dual\t-\t0\t0\n", // bad escape
        ];
        for case in cases {
            let cache = QueryCache::with_capacity(8);
            let result = read_snapshot(&cache, case.as_bytes());
            assert!(result.is_err(), "accepted: {case:?}");
            assert_eq!(cache.stats().entries, 0, "partial restore from {case:?}");
        }
    }

    #[test]
    fn escaping_round_trips_framing_characters() {
        for s in ["plain", "tab\there", "line\nbreak", "back\\slash\r", ""] {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "{s:?}");
            assert!(!escape(s).contains(['\t', '\n', '\r']), "{s:?}");
        }
        assert!(unescape("dangling\\").is_err());
    }
}
