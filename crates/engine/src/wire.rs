//! The engine's canonical text wire format (see `docs/WIRE.md` for the full
//! specification).
//!
//! One request per line, whitespace-separated tokens, first token the request
//! kind:
//!
//! ```text
//! check <G> <H>
//! enumerate <G> [limit=K]
//! mine <REL> z=<Z> [g=<G>] [h=<H>] [full=BOOL]
//! keys <TABLE>
//! stats
//! cancel id=<N>
//! ```
//!
//! Every request line additionally accepts the **envelope keywords**
//! `id=<TOKEN>` (an opaque correlation token echoed back as `client_id`),
//! `order=input|arrival` (per-request override of the session's response
//! ordering, see [`crate::engine::Engine::serve_with`]),
//! `solver=<NAME>` (force a concrete solver for this request's duality calls,
//! any name accepted by [`crate::policy::SolverKind::from_name`]), and
//! `stream=BOOL` (answer with incremental `chunk` frames followed by a `done`
//! frame instead of one response line — protocol version 2, see
//! `docs/WIRE.md`), and `auth=<USER>` (the user id this request is accounted
//! to for per-user token-bucket admission; anonymous requests are never
//! throttled).  `mine … full=true` runs the full `dualize_and_advance`
//! identification loop server-side; `cancel id=<N>` asks the session to stop
//! the in-flight request whose sequence number is `N` (on a `cancel` line the
//! `id=` keyword names the *target*, so cancel requests carry no correlation
//! token of their own).
//!
//! Hypergraphs (`<G>`, `<H>`) and relations (`<REL>`) are written **inline**:
//! edges (rows) separated by `;`, vertex indices inside an edge separated by
//! `,`, with an optional `n=<N>:` prefix fixing the universe size.  The token
//! `-` denotes "no edges" and `.` denotes the empty edge, so `n=3:-` is the
//! edgeless hypergraph over three vertices and `n=3:.` is `{∅}` (the constant-
//! true DNF).  Key tables (`<TABLE>`) use the same row/field separators with
//! arbitrary `u32` attribute values per field.
//!
//! The inline edge list is the one-line form of the multi-line `.qld` file
//! syntax of [`qld_hypergraph::format`], and parsing is delegated to it: the
//! inline text is rewritten to the line-oriented form (`;` → newline, `,` →
//! space, `n=N:` → `# n=N` header) and handed to
//! [`qld_hypergraph::format::from_text`].
//!
//! Blank lines and lines starting with `#` are ignored by the request reader.

use crate::policy::SolverKind;
use crate::request::Request;
use qld_datamining::BooleanRelation;
use qld_hypergraph::{format, Hypergraph, VertexSet};
use qld_keys::RelationInstance;

/// Version of the wire protocol this engine speaks.  Reported by the `stats`
/// request; bumped only on breaking changes (see the versioning rules in
/// `docs/WIRE.md`).  Version 2 adds streaming (`stream=` requests answered as
/// `chunk`/`done` frames), the `cancel` control request, the `mine … full=`
/// full-border loop, and per-session quotas; version-1 one-shot traffic is
/// served unchanged.
pub const PROTOCOL_VERSION: u32 = 2;

/// Response emission discipline of a serve session (the `order=` keyword).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderMode {
    /// Responses are emitted in request order; a reorder buffer holds results
    /// that finish early.
    #[default]
    Input,
    /// Responses are emitted the moment they complete, possibly out of order;
    /// clients correlate via the `id` / `client_id` fields.
    Arrival,
}

impl OrderMode {
    /// The wire name of this mode.
    pub fn name(&self) -> &'static str {
        match self {
            OrderMode::Input => "input",
            OrderMode::Arrival => "arrival",
        }
    }

    /// Parses a wire/CLI mode name.
    pub fn from_name(name: &str) -> Option<OrderMode> {
        match name {
            "input" => Some(OrderMode::Input),
            "arrival" => Some(OrderMode::Arrival),
            _ => None,
        }
    }
}

/// The command part of a parsed wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// One of the typed solver queries.
    Query(Request),
    /// The `stats` control request: a snapshot of the engine counters.
    Stats,
    /// The `cancel id=N` control request: stop the in-flight request whose
    /// session sequence number is `N`.
    Cancel {
        /// The target request's sequence number (the `id` field of its
        /// responses).
        target: u64,
    },
}

/// One fully parsed wire line: the command plus its envelope options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedLine {
    /// The query or control command.
    pub command: Command,
    /// Client-supplied correlation token (`id=`), echoed in the response.
    pub id: Option<String>,
    /// Per-request response-ordering override (`order=`).
    pub order: Option<OrderMode>,
    /// Per-request solver override (`solver=`) applied to every duality call
    /// the request makes.
    pub solver: Option<SolverKind>,
    /// Whether the request asked for a streamed answer (`stream=` keyword):
    /// incremental `chunk` frames followed by a `done` frame.
    pub stream: bool,
    /// The user id this request is accounted to (`auth=` keyword) for
    /// per-user token-bucket admission; `None` means anonymous (never
    /// throttled).
    pub auth: Option<String>,
}

/// Splits an optional `n=<N>:` prefix off an inline family, returning the
/// declared universe size (if any) and the remaining body.
fn split_universe_prefix(token: &str) -> Result<(Option<usize>, &str), String> {
    if let Some(rest) = token.strip_prefix("n=") {
        let Some((num, body)) = rest.split_once(':') else {
            return Err(format!(
                "malformed universe prefix in `{token}` (expected `n=<N>:...`)"
            ));
        };
        let n: usize = num
            .parse()
            .map_err(|_| format!("invalid universe size `{num}` in `{token}`"))?;
        Ok((Some(n), body))
    } else {
        Ok((None, token))
    }
}

/// Parses an inline hypergraph token (see module docs for the syntax).
pub fn parse_hypergraph(token: &str) -> Result<Hypergraph, String> {
    let (declared_n, body) = split_universe_prefix(token)?;
    // Rewrite the inline form into the `.qld` line-oriented syntax and let
    // `qld_hypergraph::format` do the actual parsing; only empty edges (`.`)
    // need handling here, because a blank line is skipped by the file format.
    let mut text = String::new();
    if let Some(n) = declared_n {
        text.push_str(&format!("# n={n}\n"));
    }
    let mut empty_edges = 0usize;
    if !(body.is_empty() || body == "-") {
        for edge in body.split(';') {
            if edge == "." {
                empty_edges += 1;
                continue;
            }
            if edge.is_empty() {
                return Err(format!(
                    "empty edge in `{token}` (use `.` for the empty edge)"
                ));
            }
            text.push_str(&edge.replace(',', " "));
            text.push('\n');
        }
    }
    let mut hg =
        format::from_text(&text).map_err(|e| format!("invalid hypergraph `{token}`: {e}"))?;
    for _ in 0..empty_edges {
        hg.add_edge(VertexSet::empty(hg.num_vertices()));
    }
    Ok(hg)
}

/// Renders a hypergraph in the inline syntax (with universe prefix), the exact
/// inverse of [`parse_hypergraph`].
pub fn to_inline(h: &Hypergraph) -> String {
    let mut out = format!("n={}:", h.num_vertices());
    if h.is_empty() {
        out.push('-');
        return out;
    }
    for (i, e) in h.edges().iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        if e.is_empty() {
            out.push('.');
        } else {
            let idx: Vec<String> = e.to_indices().iter().map(|v| v.to_string()).collect();
            out.push_str(&idx.join(","));
        }
    }
    out
}

/// Parses an inline Boolean relation: same syntax as hypergraphs, but rows may
/// repeat (a relation is a multiset of rows), so this does not go through the
/// simple-hypergraph representation.
pub fn parse_relation(token: &str) -> Result<BooleanRelation, String> {
    let (declared_n, body) = split_universe_prefix(token)?;
    let mut rows: Vec<Vec<usize>> = Vec::new();
    if !(body.is_empty() || body == "-") {
        for row in body.split(';') {
            if row == "." {
                rows.push(Vec::new());
                continue;
            }
            if row.is_empty() {
                return Err(format!(
                    "empty row in `{token}` (use `.` for the empty row)"
                ));
            }
            let mut parsed = Vec::new();
            for field in row.split(',') {
                let idx: usize = field
                    .parse()
                    .map_err(|_| format!("invalid item index `{field}` in `{token}`"))?;
                parsed.push(idx);
            }
            rows.push(parsed);
        }
    }
    let needed_n = rows.iter().flatten().map(|&i| i + 1).max().unwrap_or(0);
    let n = match declared_n {
        Some(n) if n >= needed_n => n,
        Some(n) => {
            return Err(format!(
                "item index {} out of range for declared universe {n} in `{token}`",
                needed_n - 1
            ))
        }
        None => needed_n,
    };
    Ok(BooleanRelation::from_rows(
        n,
        rows.into_iter().map(|r| VertexSet::from_indices(n, r)),
    ))
}

/// Renders a relation in the inline syntax.
pub fn relation_to_inline(m: &BooleanRelation) -> String {
    let mut out = format!("n={}:", m.num_items());
    if m.rows().is_empty() {
        out.push('-');
        return out;
    }
    for (i, row) in m.rows().iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        if row.is_empty() {
            out.push('.');
        } else {
            let idx: Vec<String> = row.to_indices().iter().map(|v| v.to_string()).collect();
            out.push_str(&idx.join(","));
        }
    }
    out
}

/// Parses an inline key table: rows separated by `;`, `u32` attribute values
/// separated by `,`.  All rows must have the same width.
pub fn parse_key_table(token: &str) -> Result<RelationInstance, String> {
    let mut rows: Vec<Vec<u32>> = Vec::new();
    if !(token.is_empty() || token == "-") {
        for row in token.split(';') {
            let mut parsed = Vec::new();
            for field in row.split(',') {
                let v: u32 = field
                    .parse()
                    .map_err(|_| format!("invalid attribute value `{field}` in `{token}`"))?;
                parsed.push(v);
            }
            rows.push(parsed);
        }
    }
    let width = rows.first().map_or(0, Vec::len);
    if rows.iter().any(|r| r.len() != width) {
        return Err(format!(
            "ragged key table `{token}`: all rows must have the same width"
        ));
    }
    Ok(RelationInstance::from_rows(width, rows))
}

/// Renders a key table in the inline syntax.
pub fn key_table_to_inline(r: &RelationInstance) -> String {
    if r.rows().is_empty() {
        return "-".to_string();
    }
    r.rows()
        .iter()
        .map(|row| row.iter().map(u32::to_string).collect::<Vec<_>>().join(","))
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses one wire-format line into its command and envelope options (see the
/// module docs and `docs/WIRE.md`).
pub fn parse_line(line: &str) -> Result<ParsedLine, String> {
    let mut tokens = line.split_whitespace();
    let kind = tokens
        .next()
        .ok_or_else(|| "empty request line".to_string())?;
    // Peel the envelope keywords off before kind-specific parsing; they are
    // valid on every request line.
    let mut id: Option<String> = None;
    let mut order: Option<OrderMode> = None;
    let mut solver: Option<SolverKind> = None;
    let mut stream = false;
    let mut auth: Option<String> = None;
    let mut rest: Vec<&str> = Vec::new();
    for t in tokens {
        if let Some(v) = t.strip_prefix("id=") {
            if v.is_empty() {
                return Err("empty correlation token in `id=`".to_string());
            }
            id = Some(v.to_string());
        } else if let Some(v) = t.strip_prefix("order=") {
            order = Some(
                OrderMode::from_name(v)
                    .ok_or_else(|| format!("unknown order `{v}` (expected input|arrival)"))?,
            );
        } else if let Some(v) = t.strip_prefix("solver=") {
            solver = Some(SolverKind::from_name(v).ok_or_else(|| format!("unknown solver `{v}`"))?);
        } else if let Some(v) = t.strip_prefix("auth=") {
            if v.is_empty() {
                return Err("empty user id in `auth=`".to_string());
            }
            auth = Some(v.to_string());
        } else if let Some(v) = t.strip_prefix("stream=") {
            stream = match v {
                "chunks" => true,
                other => parse_bool(other).ok_or_else(|| {
                    format!("invalid stream flag `{v}` (expected true|false|1|0|chunks)")
                })?,
            };
        } else {
            rest.push(t);
        }
    }
    let command = match kind {
        "check" => {
            let [g, h] = positional::<2>("check", &rest, &[])?;
            Command::Query(Request::DecideDuality {
                g: parse_hypergraph(g)?,
                h: parse_hypergraph(h)?,
            })
        }
        "enumerate" => {
            let [g] = positional::<1>("enumerate", &rest, &["limit"])?;
            let limit = match keyword(&rest, "limit") {
                Some(v) => Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid limit `{v}`"))?,
                ),
                None => None,
            };
            Command::Query(Request::EnumerateTransversals {
                g: parse_hypergraph(g)?,
                limit,
            })
        }
        "mine" => {
            let [rel] = positional::<1>("mine", &rest, &["z", "g", "h", "full"])?;
            let relation = parse_relation(rel)?;
            let z = keyword(&rest, "z").ok_or_else(|| "mine requires z=<threshold>".to_string())?;
            let threshold: usize = z.parse().map_err(|_| format!("invalid threshold `{z}`"))?;
            let full = match keyword(&rest, "full") {
                Some(v) => parse_bool(v)
                    .ok_or_else(|| format!("invalid full flag `{v}` (expected true|false|1|0)"))?,
                None => false,
            };
            let n = relation.num_items();
            let minimal_infrequent = match keyword(&rest, "g") {
                Some(v) => parse_hypergraph(v)?,
                None => Hypergraph::new(n),
            };
            let maximal_frequent = match keyword(&rest, "h") {
                Some(v) => parse_hypergraph(v)?,
                None => Hypergraph::new(n),
            };
            Command::Query(if full {
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
            })
        }
        "keys" => {
            let [table] = positional::<1>("keys", &rest, &[])?;
            Command::Query(Request::FindMinimalKeys {
                instance: parse_key_table(table)?,
            })
        }
        "stats" => {
            let [] = positional::<0>("stats", &rest, &[])?;
            Command::Stats
        }
        "cancel" => {
            let [] = positional::<0>("cancel", &rest, &[])?;
            // On a `cancel` line the `id=` keyword names the *target* request
            // (the session sequence number of its responses), so it is taken
            // out of the envelope rather than echoed as a correlation token.
            let target = id
                .take()
                .ok_or_else(|| "cancel requires id=<request-number>".to_string())?;
            let target: u64 = target
                .parse()
                .map_err(|_| format!("invalid cancel target `{target}` (expected a number)"))?;
            Command::Cancel { target }
        }
        other => {
            return Err(format!(
                "unknown request kind `{other}` (expected check|enumerate|mine|keys|stats|cancel)"
            ))
        }
    };
    Ok(ParsedLine {
        command,
        id,
        order,
        solver,
        stream,
        auth,
    })
}

/// Parses a wire boolean flag value (`stream=`, `full=`).
fn parse_bool(v: &str) -> Option<bool> {
    match v {
        "true" | "1" => Some(true),
        "false" | "0" => Some(false),
        _ => None,
    }
}

/// Best-effort recovery of the `id=` correlation token from a line that
/// failed to parse, so even error responses stay correlatable (essential for
/// `order=arrival` sessions, where clients match answers by id alone).
///
/// Duplicate `id=` tokens resolve exactly as [`parse_line`] resolves them —
/// the **last** one wins — so a malformed line's error response carries the
/// same `client_id` the line would have echoed had it parsed (empty `id=`
/// tokens, which [`parse_line`] rejects outright, are skipped here).
pub fn salvage_client_id(line: &str) -> Option<String> {
    line.split_whitespace()
        .filter_map(|t| t.strip_prefix("id="))
        .rfind(|v| !v.is_empty())
        .map(String::from)
}

/// Parses one wire-format line into a typed [`Request`], rejecting control
/// commands.  Envelope options (`id=`, `order=`, `solver=`) are accepted and
/// discarded; use [`parse_line`] to observe them.
pub fn parse_request(line: &str) -> Result<Request, String> {
    match parse_line(line)?.command {
        Command::Query(request) => Ok(request),
        Command::Stats => Err("`stats` is a control command, not a typed request".to_string()),
        Command::Cancel { .. } => {
            Err("`cancel` is a control command, not a typed request".to_string())
        }
    }
}

/// Renders a typed request as one wire line, the inverse of [`parse_request`]:
/// `parse_request(&render_request(r)) == Ok(r)` for every request.
pub fn render_request(request: &Request) -> String {
    match request {
        Request::DecideDuality { g, h } => {
            format!("check {} {}", to_inline(g), to_inline(h))
        }
        Request::EnumerateTransversals { g, limit } => match limit {
            Some(l) => format!("enumerate {} limit={l}", to_inline(g)),
            None => format!("enumerate {}", to_inline(g)),
        },
        Request::IdentifyItemsetBorders {
            relation,
            threshold,
            minimal_infrequent,
            maximal_frequent,
        } => format!(
            "mine {} z={} g={} h={}",
            relation_to_inline(relation),
            threshold,
            to_inline(minimal_infrequent),
            to_inline(maximal_frequent)
        ),
        Request::MineBorders {
            relation,
            threshold,
            minimal_infrequent,
            maximal_frequent,
        } => format!(
            "mine {} z={} g={} h={} full=true",
            relation_to_inline(relation),
            threshold,
            to_inline(minimal_infrequent),
            to_inline(maximal_frequent)
        ),
        Request::FindMinimalKeys { instance } => {
            format!("keys {}", key_table_to_inline(instance))
        }
    }
}

/// Extracts the `key=value` token for `key`, if present.
fn keyword<'a>(tokens: &[&'a str], key: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// Collects exactly `N` positional (non-`key=value`) tokens, rejecting
/// unknown keywords.
fn positional<'a, const N: usize>(
    kind: &str,
    tokens: &[&'a str],
    allowed_keys: &[&str],
) -> Result<[&'a str; N], String> {
    let mut positional = Vec::new();
    for t in tokens {
        if let Some((key, _)) = t.split_once('=') {
            // `n=4:...` inline prefixes are positional, not keywords.
            let is_keyword = allowed_keys.contains(&key);
            let is_inline = key == "n" && t.contains(':');
            if is_keyword {
                continue;
            }
            if !is_inline {
                return Err(format!("unknown option `{t}` for `{kind}`"));
            }
        }
        positional.push(*t);
    }
    <[&str; N]>::try_from(positional).map_err(|v: Vec<&str>| {
        format!(
            "`{kind}` expects {N} positional argument(s), got {}",
            v.len()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hypergraph_round_trip() {
        for s in ["0,1;2,3", "n=6:0,1;2,3", "n=3:-", "n=3:.", "n=4:.;0,1"] {
            let h = parse_hypergraph(s).unwrap();
            let back = parse_hypergraph(&to_inline(&h)).unwrap();
            assert!(h.same_edge_set(&back), "{s}");
            assert_eq!(h.num_vertices(), back.num_vertices(), "{s}");
        }
        let h = parse_hypergraph("0,1;2,3").unwrap();
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn hypergraph_errors() {
        assert!(parse_hypergraph("0,x").is_err());
        assert!(parse_hypergraph("n=2:0,5").is_err());
        assert!(parse_hypergraph("0,1;;2").is_err());
        assert!(parse_hypergraph("n=z:0").is_err());
    }

    #[test]
    fn relation_keeps_duplicate_rows() {
        let m = parse_relation("0,1;0,1;2").unwrap();
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_items(), 3);
        let back = parse_relation(&relation_to_inline(&m)).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn key_table_round_trip() {
        let r = parse_key_table("1,2,3;1,2,4").unwrap();
        assert_eq!(r.num_attributes(), 3);
        assert_eq!(r.num_rows(), 2);
        let back = parse_key_table(&key_table_to_inline(&r)).unwrap();
        assert_eq!(r, back);
        assert!(parse_key_table("1,2;3").is_err());
    }

    #[test]
    fn request_lines_parse() {
        assert!(matches!(
            parse_request("check 0,1;2,3 0,2;0,3;1,2;1,3").unwrap(),
            Request::DecideDuality { .. }
        ));
        match parse_request("enumerate n=4:0,1;2,3 limit=3").unwrap() {
            Request::EnumerateTransversals { limit, .. } => assert_eq!(limit, Some(3)),
            other => panic!("{other:?}"),
        }
        match parse_request("mine 0,1;0,1;1,2 z=1 h=n=3:0,1").unwrap() {
            Request::IdentifyItemsetBorders {
                threshold,
                maximal_frequent,
                ..
            } => {
                assert_eq!(threshold, 1);
                assert_eq!(maximal_frequent.num_edges(), 1);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request("keys 1,2;1,3").unwrap(),
            Request::FindMinimalKeys { .. }
        ));
        assert!(parse_request("frobnicate 1").is_err());
        assert!(parse_request("check 0,1").is_err());
        assert!(parse_request("enumerate 0,1 limit=x").is_err());
        assert!(parse_request("mine 0,1 z=1 bogus=2").is_err());
    }

    #[test]
    fn envelope_keywords_parse_on_every_kind() {
        let pl = parse_line("check 0,1 0;1 id=req-1 order=arrival solver=tree").unwrap();
        assert_eq!(pl.id.as_deref(), Some("req-1"));
        assert_eq!(pl.order, Some(OrderMode::Arrival));
        assert_eq!(pl.solver, Some(SolverKind::BmTree));
        assert!(!pl.stream);
        assert!(matches!(pl.command, Command::Query(_)));

        let pl = parse_line("enumerate 0,1;2,3 limit=2 solver=quadlog").unwrap();
        assert_eq!(pl.solver, Some(SolverKind::QuadChain));
        assert_eq!(pl.order, None);

        let pl = parse_line("stats id=s0").unwrap();
        assert_eq!(pl.command, Command::Stats);
        assert_eq!(pl.id.as_deref(), Some("s0"));

        assert!(parse_line("check 0,1 0;1 order=sideways").is_err());
        assert!(parse_line("check 0,1 0;1 solver=nope").is_err());
        assert!(parse_line("check 0,1 0;1 id=").is_err());
        assert!(parse_line("stats 0,1").is_err());
        assert!(parse_request("stats").is_err());
    }

    #[test]
    fn stream_flag_parses_on_every_kind() {
        for value in ["1", "true", "chunks"] {
            let pl = parse_line(&format!("enumerate 0,1;2,3 stream={value}")).unwrap();
            assert!(pl.stream, "stream={value}");
        }
        for value in ["0", "false"] {
            let pl = parse_line(&format!("enumerate 0,1;2,3 stream={value}")).unwrap();
            assert!(!pl.stream, "stream={value}");
        }
        let pl = parse_line("check 0,1 0;1 stream=1 id=x").unwrap();
        assert!(pl.stream);
        assert_eq!(pl.id.as_deref(), Some("x"));
        assert!(parse_line("enumerate 0,1 stream=sideways").is_err());
    }

    #[test]
    fn auth_keyword_parses_on_every_kind() {
        let pl = parse_line("check 0,1 0;1 auth=alice id=x").unwrap();
        assert_eq!(pl.auth.as_deref(), Some("alice"));
        assert_eq!(pl.id.as_deref(), Some("x"));
        let pl = parse_line("enumerate 0,1;2,3 stream=1 auth=bob").unwrap();
        assert_eq!(pl.auth.as_deref(), Some("bob"));
        assert!(pl.stream);
        let pl = parse_line("stats auth=carol").unwrap();
        assert_eq!(pl.auth.as_deref(), Some("carol"));
        // Absent auth means anonymous; empty auth is rejected outright.
        assert_eq!(parse_line("check 0,1 0;1").unwrap().auth, None);
        assert!(parse_line("check 0,1 0;1 auth=").is_err());
    }

    #[test]
    fn mine_full_parses_to_the_border_loop_request() {
        match parse_request("mine 0,1;0,1;1,2 z=1 full=true").unwrap() {
            Request::MineBorders {
                threshold,
                minimal_infrequent,
                maximal_frequent,
                ..
            } => {
                assert_eq!(threshold, 1);
                assert!(minimal_infrequent.is_empty());
                assert!(maximal_frequent.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // full=false (and absence) keeps the one-shot identification kind.
        assert!(matches!(
            parse_request("mine 0,1;0,1;1,2 z=1 full=false").unwrap(),
            Request::IdentifyItemsetBorders { .. }
        ));
        // Seeds ride along in full mode.
        match parse_request("mine n=3:0,1;1,2 z=0 h=n=3:0,1 full=1").unwrap() {
            Request::MineBorders {
                maximal_frequent, ..
            } => assert_eq!(maximal_frequent.num_edges(), 1),
            other => panic!("{other:?}"),
        }
        assert!(parse_request("mine 0,1 z=1 full=maybe").is_err());
    }

    #[test]
    fn cancel_lines_parse_the_target_out_of_the_id_keyword() {
        let pl = parse_line("cancel id=7").unwrap();
        assert_eq!(pl.command, Command::Cancel { target: 7 });
        // The id= keyword named the target, not a correlation token.
        assert_eq!(pl.id, None);

        assert!(parse_line("cancel").is_err(), "missing target");
        assert!(parse_line("cancel id=abc").is_err(), "non-numeric target");
        assert!(parse_line("cancel 3").is_err(), "positional target");
        assert!(parse_request("cancel id=3").is_err(), "not a typed request");
    }

    #[test]
    fn client_ids_are_salvaged_from_malformed_lines() {
        assert_eq!(
            salvage_client_id("check bogus-( id=req-9").as_deref(),
            Some("req-9")
        );
        assert_eq!(salvage_client_id("frobnicate id=x").as_deref(), Some("x"));
        assert_eq!(salvage_client_id("check 0,1 0;1 id="), None);
        assert_eq!(salvage_client_id("check 0,1 0;1"), None);
    }

    #[test]
    fn duplicate_ids_resolve_last_wins_on_both_paths() {
        // Regression: `parse_line` let the last `id=` win while the salvage
        // path returned the first, so a malformed line's error response could
        // carry a different `client_id` than the same line would echo on
        // success.  Both paths must agree: last wins.
        let parsed = parse_line("check 0,1 0;1 id=first id=last").unwrap();
        assert_eq!(parsed.id.as_deref(), Some("last"));
        assert_eq!(
            salvage_client_id("check 0,1 0;1 id=first id=last").as_deref(),
            Some("last")
        );
        // The same duplicate envelope on a line that fails to parse salvages
        // the identical token.
        assert_eq!(
            salvage_client_id("check bogus-( id=first id=last").as_deref(),
            Some("last")
        );
        // An empty trailing `id=` is rejected by the parser and skipped by
        // the salvage (it can never be echoed as a client_id).
        assert!(parse_line("check 0,1 0;1 id=real id=").is_err());
        assert_eq!(
            salvage_client_id("check bogus-( id=real id=").as_deref(),
            Some("real")
        );
    }

    #[test]
    fn render_request_round_trips() {
        for line in [
            "check n=4:0,1;2,3 n=4:0,2;0,3;1,2;1,3",
            "enumerate n=4:0,1;2,3 limit=3",
            "enumerate n=3:.;0,1",
            "mine n=3:0,1;0,1;1,2 z=1 g=n=3:- h=n=3:0,1",
            "mine n=3:0,1;0,1;1,2 z=1 g=n=3:2 h=n=3:0,1",
            "mine n=3:0,1;0,1;1,2 z=1 g=n=3:- h=n=3:- full=true",
            "keys 1,2;1,3",
            "keys -",
        ] {
            let request = parse_request(line).unwrap();
            let rendered = render_request(&request);
            assert_eq!(
                parse_request(&rendered).unwrap(),
                request,
                "render of `{line}` = `{rendered}` did not round-trip"
            );
        }
    }

    /// Strategy: arbitrary short strings over a wire-flavored alphabet (the
    /// interesting separators and keywords plus raw noise), for fuzzing the
    /// parser.
    fn arb_wire_noise() -> impl Strategy<Value = String> {
        prop::collection::vec(0u32..96, 0usize..=40).prop_map(|codes| {
            const ALPHABET: &[u8] = b"0123456789,;:=.- \tchecknumratmiskyzghidorvlwqp#\\\"";
            codes
                .into_iter()
                .map(|c| {
                    let i = c as usize;
                    if i < ALPHABET.len() {
                        ALPHABET[i] as char
                    } else {
                        // Sprinkle in raw control/unicode noise.
                        char::from_u32(c).unwrap_or('\u{fffd}')
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The parser must never panic: every input is either parsed or
        /// rejected with an error message.
        #[test]
        fn malformed_frames_never_panic(noise in arb_wire_noise()) {
            let _ = parse_line(&noise);
            let _ = parse_line(&format!("check {noise}"));
            let _ = parse_line(&format!("mine {noise} z=1"));
            let _ = parse_hypergraph(&noise);
            let _ = parse_relation(&noise);
            let _ = parse_key_table(&noise);
        }

        /// Truncating or corrupting a valid frame must yield a clean error or
        /// a clean parse, never a panic.
        #[test]
        fn corrupted_valid_frames_never_panic(
            cut in 0usize..64,
            junk in 0u32..128,
        ) {
            for line in [
                "check n=4:0,1;2,3 n=4:0,2;0,3;1,2;1,3 id=x order=arrival solver=tree",
                "enumerate n=4:0,1;2,3 limit=3",
                "mine n=3:0,1;0,1;1,2 z=1 g=n=3:- h=n=3:0,1",
                "mine n=3:0,1;0,1;1,2 z=1 full=true stream=chunks",
                "keys 1,2;1,3",
                "stats",
                "cancel id=3",
            ] {
                let cut = cut.min(line.len());
                let _ = parse_line(&line[..cut]);
                let mut corrupted = String::with_capacity(line.len());
                corrupted.push_str(&line[..cut]);
                if let Some(c) = char::from_u32(junk) {
                    corrupted.push(c);
                }
                corrupted.push_str(&line[cut..]);
                let _ = parse_line(&corrupted);
            }
        }
    }
}
