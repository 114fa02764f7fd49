//! Seeded request generation and answer verification.
//!
//! A workload draws from a few dozen *base* instances whose answers are known
//! in advance: generator labels for `check`, `minimal_transversals` for
//! `enumerate`, `borders_exact` for `mine`, and brute-force keys for `keys`.
//! Each request is a base instance under a random relabelling (vertices, items
//! or columns renamed, and the universe optionally padded) and a random
//! reordering of its edges or rows.  Reordering keeps the engine's canonical
//! cache key, so a re-ask with a fresh shuffle is a cache hit; relabelling
//! changes it, so relabellings multiply the distinct-key universe.  Answers
//! are mapped back through the relabelling and compared with the base
//! instance's reference.

use crate::json::Json;
use crate::stats::Rng;
use qld_datamining::BooleanRelation;
use qld_hypergraph::generators::LabelledInstance;
use qld_hypergraph::Hypergraph;
use qld_keys::RelationInstance;
use std::collections::HashSet;
use std::fmt::Write as _;

/// An index set in sorted order.
pub type Set = Vec<usize>;

fn sets_of(h: &Hypergraph) -> Vec<Set> {
    h.edges().iter().map(|e| e.to_indices()).collect()
}

/// The reference answer of a base instance, in the base instance's labels.
#[derive(Debug)]
pub enum Expect {
    Check {
        dual: bool,
    },
    Enumerate {
        tr: HashSet<Set>,
        limit: Option<usize>,
    },
    Mine {
        max_freq: HashSet<Set>,
        min_infreq: HashSet<Set>,
        given_max: HashSet<Set>,
        given_min: HashSet<Set>,
    },
    MineFull {
        max_freq: HashSet<Set>,
        min_infreq: HashSet<Set>,
    },
    Keys {
        keys: HashSet<Set>,
    },
}

/// The request a base instance stands for, in its own labels.
#[derive(Debug)]
enum Shape {
    Check {
        n: usize,
        g: Vec<Set>,
        h: Vec<Set>,
    },
    Enumerate {
        n: usize,
        g: Vec<Set>,
        limit: Option<usize>,
    },
    Mine {
        n: usize,
        rows: Vec<Set>,
        z: usize,
        g: Vec<Set>,
        h: Vec<Set>,
        full: bool,
    },
    Keys {
        rows: Vec<Vec<u32>>,
    },
}

/// One base instance: its request shape and reference answer.
#[derive(Debug)]
pub struct Base {
    pub name: String,
    shape: Shape,
    pub expect: Expect,
}

impl Base {
    pub fn check(li: &LabelledInstance) -> Base {
        let n = li.g.num_vertices().max(li.h.num_vertices());
        Base {
            name: format!("check {}", li.name),
            shape: Shape::Check {
                n,
                g: sets_of(&li.g),
                h: sets_of(&li.h),
            },
            expect: Expect::Check { dual: li.dual },
        }
    }

    pub fn enumerate(name: &str, g: &Hypergraph, limit: Option<usize>) -> Base {
        let tr = qld_hypergraph::transversal::minimal_transversals(&g.minimize());
        Base {
            name: format!("enumerate {name} limit={limit:?}"),
            shape: Shape::Enumerate {
                n: g.num_vertices(),
                g: sets_of(g),
                limit,
            },
            expect: Expect::Enumerate {
                tr: sets_of(&tr).into_iter().collect(),
                limit,
            },
        }
    }

    /// A one-step identification: the exact borders, with `drop` elements of
    /// the maximal-frequent side withheld (0 = the complete borders).
    pub fn mine(name: &str, relation: &BooleanRelation, z: usize, drop: usize) -> Base {
        let borders = qld_datamining::borders_exact(relation, z);
        let max_freq = sets_of(&borders.maximal_frequent);
        let min_infreq = sets_of(&borders.minimal_infrequent);
        let given_max: Vec<Set> = max_freq.iter().skip(drop).cloned().collect();
        Base {
            name: format!("mine {name} z={z} drop={drop}"),
            shape: Shape::Mine {
                n: relation.num_items(),
                rows: relation.rows().iter().map(|r| r.to_indices()).collect(),
                z,
                g: min_infreq.clone(),
                h: given_max.clone(),
                full: false,
            },
            expect: Expect::Mine {
                given_max: given_max.into_iter().collect(),
                given_min: min_infreq.iter().cloned().collect(),
                max_freq: max_freq.into_iter().collect(),
                min_infreq: min_infreq.into_iter().collect(),
            },
        }
    }

    /// The server-side full border loop (`mine … full=true`).
    pub fn mine_full(name: &str, relation: &BooleanRelation, z: usize) -> Base {
        let borders = qld_datamining::borders_exact(relation, z);
        Base {
            name: format!("mine-full {name} z={z}"),
            shape: Shape::Mine {
                n: relation.num_items(),
                rows: relation.rows().iter().map(|r| r.to_indices()).collect(),
                z,
                g: Vec::new(),
                h: Vec::new(),
                full: true,
            },
            expect: Expect::MineFull {
                max_freq: sets_of(&borders.maximal_frequent).into_iter().collect(),
                min_infreq: sets_of(&borders.minimal_infrequent).into_iter().collect(),
            },
        }
    }

    pub fn keys(name: &str, instance: &RelationInstance) -> Base {
        let keys = qld_keys::minimal_keys_brute(instance);
        Base {
            name: format!("keys {name}"),
            shape: Shape::Keys {
                rows: instance.rows().to_vec(),
            },
            expect: Expect::Keys {
                keys: sets_of(&keys).into_iter().collect(),
            },
        }
    }

    /// Number of labels a relabelling of this instance permutes.
    fn width(&self) -> usize {
        match &self.shape {
            Shape::Check { n, .. } | Shape::Enumerate { n, .. } | Shape::Mine { n, .. } => *n,
            Shape::Keys { rows } => rows.first().map_or(0, Vec::len),
        }
    }

    /// Whether extra, unused labels leave the answer unchanged.  They do for
    /// hypergraphs; an item no row contains would join the minimal
    /// infrequent border, and a key table has no universe to pad.
    fn paddable(&self) -> bool {
        matches!(self.shape, Shape::Check { .. } | Shape::Enumerate { .. })
    }

    /// Renders the wire line of this instance under `relabel`, with edge and
    /// row order shuffled by `rng`.  Envelope keywords are not included.
    pub fn render(&self, relabel: &Relabel, rng: &mut Rng) -> String {
        let mut out = String::with_capacity(128);
        match &self.shape {
            Shape::Check { g, h, .. } => {
                out.push_str("check ");
                family(&mut out, relabel, g, rng);
                out.push(' ');
                family(&mut out, relabel, h, rng);
            }
            Shape::Enumerate { g, limit, .. } => {
                out.push_str("enumerate ");
                family(&mut out, relabel, g, rng);
                if let Some(l) = limit {
                    let _ = write!(out, " limit={l}");
                }
            }
            Shape::Mine {
                rows,
                z,
                g,
                h,
                full,
                ..
            } => {
                out.push_str("mine ");
                family(&mut out, relabel, rows, rng);
                let _ = write!(out, " z={z}");
                if *full {
                    out.push_str(" full=true");
                } else {
                    out.push_str(" g=");
                    family(&mut out, relabel, g, rng);
                    out.push_str(" h=");
                    family(&mut out, relabel, h, rng);
                }
            }
            Shape::Keys { rows } => {
                out.push_str("keys ");
                let mut order: Vec<usize> = (0..rows.len()).collect();
                rng.shuffle(&mut order);
                for (i, &r) in order.iter().enumerate() {
                    if i > 0 {
                        out.push(';');
                    }
                    for new_col in 0..relabel.inv.len() {
                        if new_col > 0 {
                            out.push(',');
                        }
                        let old = relabel.inv[new_col] as usize;
                        let _ = write!(out, "{}", rows[r][old] + relabel.offsets[new_col]);
                    }
                }
            }
        }
        out
    }
}

/// Appends `n=N:e;e;…` for `sets` mapped through `relabel`, in random order.
fn family(out: &mut String, relabel: &Relabel, sets: &[Set], rng: &mut Rng) {
    let _ = write!(out, "n={}:", relabel.inv.len());
    if sets.is_empty() {
        out.push('-');
        return;
    }
    let mut order: Vec<usize> = (0..sets.len()).collect();
    rng.shuffle(&mut order);
    for (i, &s) in order.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        if sets[s].is_empty() {
            out.push('.');
            continue;
        }
        for (j, &v) in sets[s].iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", relabel.fwd[v]);
        }
    }
}

/// Marks a padding label in [`Relabel::inv`].
const PADDING: u32 = u32::MAX;

/// A renaming of a base instance's labels: an injection of its `width`
/// labels into a universe of `inv.len()` labels, plus per-column value
/// offsets for key tables (which rename values without changing which rows
/// agree).
#[derive(Debug, Clone)]
pub struct Relabel {
    fwd: Vec<usize>,
    inv: Vec<u32>,
    offsets: Vec<u32>,
}

impl Relabel {
    /// A random relabelling of `base`, padding paddable universes with up to
    /// `pad` unused labels.
    pub fn random(base: &Base, pad: usize, rng: &mut Rng) -> Relabel {
        let width = base.width();
        let universe = if base.paddable() && pad > 0 {
            width + rng.below(pad + 1)
        } else {
            width
        };
        let mut slots: Vec<usize> = (0..universe).collect();
        rng.shuffle(&mut slots);
        let fwd: Vec<usize> = slots[..width].to_vec();
        let mut inv = vec![PADDING; universe];
        for (old, &new) in fwd.iter().enumerate() {
            inv[new] = old as u32;
        }
        let offsets = match base.shape {
            Shape::Keys { .. } => (0..universe).map(|_| rng.below(1000) as u32).collect(),
            _ => vec![0; universe],
        };
        Relabel { fwd, inv, offsets }
    }

    /// Maps an answer set back to base labels (sorted); `None` when it names
    /// a label outside the universe or a padding label.
    fn back(&self, set: &[usize]) -> Option<Set> {
        let mut out = Vec::with_capacity(set.len());
        for &v in set {
            match self.inv.get(v) {
                Some(&old) if old != PADDING => out.push(old as usize),
                _ => return None,
            }
        }
        out.sort_unstable();
        Some(out)
    }

    fn back_all(&self, sets: &[Set]) -> Option<Vec<Set>> {
        sets.iter().map(|s| self.back(s)).collect()
    }
}

/// How one answer compares with the reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Correct,
    /// `ok:false` (an error or a `quota` refusal): counted as failed.
    Refused(String),
    /// A successful answer that disagrees with the reference.
    Wrong(String),
}

fn set_eq(got: Option<Vec<Set>>, want: &HashSet<Set>) -> bool {
    match got {
        Some(sets) => {
            let n = sets.len();
            let unique: HashSet<Set> = sets.into_iter().collect();
            unique.len() == n && &unique == want
        }
        None => false,
    }
}

/// Checks one terminal response against the reference of its base instance.
pub fn verify(expect: &Expect, relabel: &Relabel, answer: &Json) -> Verdict {
    if answer.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = answer.get("code").and_then(Json::as_str).unwrap_or("?");
        let message = answer.get("error").and_then(Json::as_str).unwrap_or("");
        return Verdict::Refused(format!("{code}: {message}"));
    }
    let field = |k: &str| answer.get(k);
    let sets = |k: &str| {
        field(k)
            .and_then(Json::as_sets)
            .and_then(|s| relabel.back_all(&s))
    };
    let ok = match expect {
        Expect::Check { dual } => field("dual").and_then(Json::as_bool) == Some(*dual),
        Expect::Enumerate { tr, limit } => {
            let want_count = limit.map_or(tr.len(), |l| l.min(tr.len()));
            let want_complete = limit.is_none_or(|l| l > tr.len());
            match sets("transversals") {
                Some(found) => {
                    let unique: HashSet<&Set> = found.iter().collect();
                    found.len() == want_count
                        && unique.len() == found.len()
                        && found.iter().all(|t| tr.contains(t))
                        && field("complete").and_then(Json::as_bool) == Some(want_complete)
                }
                None => false,
            }
        }
        Expect::Mine {
            max_freq,
            min_infreq,
            given_max,
            given_min,
        } => {
            let status = field("status").and_then(Json::as_str);
            if given_max.len() == max_freq.len() && given_min.len() == min_infreq.len() {
                status == Some("complete")
            } else {
                let item = field("itemset")
                    .and_then(Json::as_set)
                    .and_then(|s| relabel.back(&s));
                match (status, field("new_border").and_then(Json::as_str), item) {
                    (Some("incomplete"), Some("maximal_frequent"), Some(s)) => {
                        max_freq.contains(&s) && !given_max.contains(&s)
                    }
                    (Some("incomplete"), Some("minimal_infrequent"), Some(s)) => {
                        min_infreq.contains(&s) && !given_min.contains(&s)
                    }
                    _ => false,
                }
            }
        }
        Expect::MineFull {
            max_freq,
            min_infreq,
        } => {
            field("complete").and_then(Json::as_bool) == Some(true)
                && set_eq(sets("maximal_frequent"), max_freq)
                && set_eq(sets("minimal_infrequent"), min_infreq)
        }
        Expect::Keys { keys } => set_eq(sets("keys"), keys),
    };
    if ok {
        Verdict::Correct
    } else {
        Verdict::Wrong("answer disagrees with the reference".to_string())
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Item {
    /// The wire request without envelope keywords; its length is the
    /// request-line size in the space ratio.
    pub line: String,
    /// Extra envelope keywords sent with the line (`stream=1`, `solver=…`).
    pub envelope: &'static str,
    pub stream: bool,
    /// Index of the base instance in the workload's base list.
    pub base: usize,
    /// The distinct key the request was drawn for, already mixed with the
    /// run seed.  It seeds the relabelling, so equal keys give equal labels.
    pub key: u64,
    /// Most unused labels the relabelling may add.
    pub pad: usize,
}

impl Item {
    pub fn new(
        bases: &[Base],
        base: usize,
        key: u64,
        pad: usize,
        envelope: &'static str,
        rng: &mut Rng,
    ) -> Item {
        let item = Item {
            line: String::new(),
            envelope,
            stream: envelope.contains("stream="),
            base,
            key,
            pad,
        };
        item.reshuffled(bases, rng)
    }

    /// The relabelling of this request (recomputed from its key, so items
    /// stay small).
    pub fn relabel(&self, bases: &[Base]) -> Relabel {
        Relabel::random(&bases[self.base], self.pad, &mut Rng::new(self.key))
    }

    /// The same instance under the same labels, with a fresh edge order: a
    /// permuted duplicate that shares the canonical cache key.
    pub fn reshuffled(&self, bases: &[Base], rng: &mut Rng) -> Item {
        Item {
            line: bases[self.base].render(&self.relabel(bases), rng),
            ..self.clone()
        }
    }

    /// The full line as sent, with its correlation token.
    pub fn wire(&self, token: u64) -> String {
        format!("{}{} id={token}\n", self.line, self.envelope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_hypergraph::generators;

    fn answer(line: &str) -> Json {
        let engine = qld_engine::Engine::with_defaults();
        let request = qld_engine::wire::parse_request(line).expect("generated lines parse");
        Json::parse(&engine.run_one(request).to_json_line()).expect("responses are JSON")
    }

    #[test]
    fn relabelled_answers_verify_against_the_base_reference() {
        let relation = qld_datamining::generators::random_relation(6, 14, 0.5, 3);
        let table = qld_keys::generators::random_instance(5, 9, 3, 4);
        let g = generators::matching_hypergraph(3);
        let bases = vec![
            Base::check(&generators::matching_instance(3)),
            Base::check(
                &generators::perturb(
                    &generators::threshold_instance(5, 2),
                    generators::Perturbation::DropDualEdge,
                    1,
                )
                .expect("perturbable"),
            ),
            Base::enumerate("M3", &g, Some(3)),
            Base::enumerate("M3", &g, None),
            Base::mine("r", &relation, 3, 0),
            Base::mine("r", &relation, 3, 1),
            Base::mine_full("r", &relation, 3),
            Base::keys("t", &table),
        ];
        let mut rng = Rng::new(11);
        for (i, base) in bases.iter().enumerate() {
            for key in 0..4 {
                let item = Item::new(&bases, i, key, 4, "", &mut rng);
                let verdict = verify(&base.expect, &item.relabel(&bases), &answer(&item.line));
                assert_eq!(
                    verdict,
                    Verdict::Correct,
                    "{} as `{}`",
                    base.name,
                    item.line
                );
            }
        }
    }

    #[test]
    fn a_wrong_verdict_is_caught() {
        let base = Base::check(&generators::matching_instance(2));
        let mut rng = Rng::new(1);
        let relabel = Relabel::random(&base, 0, &mut rng);
        let lie = Json::parse(r#"{"ok":true,"kind":"check","dual":false}"#).unwrap();
        assert!(matches!(
            verify(&base.expect, &relabel, &lie),
            Verdict::Wrong(_)
        ));
        let refused = Json::parse(r#"{"ok":false,"code":"quota","error":"x"}"#).unwrap();
        assert!(matches!(
            verify(&base.expect, &relabel, &refused),
            Verdict::Refused(_)
        ));
    }
}
