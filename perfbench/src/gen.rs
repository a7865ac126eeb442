//! Seeded workload generation. Every input is a pure function of the
//! seed and the size table, and the program under test only ever sees
//! the generated KB text and requests.

use crate::util::unit;
use dl::name::{ConceptName, IndividualName};
use dl::Concept;
use ontogen::hardness_mix::{hardness_mix, HardnessMixParams, HardnessShape};
use ontogen::horn::{horn_kb4, HornParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use shoin4::{print_kb4, Axiom4, InclusionKind, KnowledgeBase4};
use std::collections::BTreeSet;

/// Workload sizes. `full` is what the benchmark runs; `smoke` is a
/// reduced table for the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `horn_kb4` scale for `horn_read`: `2n` concepts, `n` individuals.
    pub horn_n: usize,
    /// Requests per `horn_read` pass.
    pub horn_ops: usize,
    /// `hardness_mix` KBs per residue shape.
    pub residue_per_shape: usize,
    /// Largest disjunctive chain / `∃` tower in `residue_search`.
    pub residue_max_size: usize,
    /// `horn_kb4` KBs with material and disjunctive residue.
    pub residue_horn_kbs: usize,
    /// `horn_kb4` scale of those KBs.
    pub residue_horn_n: usize,
    /// Requests per residue `horn_kb4` KB.
    pub residue_horn_ops: usize,
    /// add/retract pairs per in-process pass.
    pub mutation_pairs: usize,
    /// Tenants in the `serve_churn` fleet.
    pub tenants: usize,
    /// One `serve_churn` query in this many is checked against a
    /// rebuilt reasoner.
    pub oracle_every: usize,
    /// Requests per caller thread in one `serve_churn` window, both to
    /// warm it and timed.
    pub window_ops: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            horn_n: 16,
            horn_ops: 768,
            residue_per_shape: 12,
            residue_max_size: 6,
            residue_horn_kbs: 8,
            residue_horn_n: 5,
            residue_horn_ops: 130,
            mutation_pairs: 512,
            tenants: 64,
            oracle_every: 1024,
            window_ops: 15_000,
        }
    }

    /// Reduced sizes for tests.
    pub fn smoke() -> Sizes {
        Sizes {
            horn_n: 8,
            horn_ops: 300,
            residue_per_shape: 3,
            residue_max_size: 4,
            residue_horn_kbs: 2,
            residue_horn_n: 4,
            residue_horn_ops: 16,
            mutation_pairs: 8,
            tenants: 8,
            oracle_every: 16,
            window_ops: 300,
        }
    }
}

/// One in-process request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `Reasoner4::query(a, C)`.
    Query(IndividualName, Concept),
    /// `Reasoner4::entails(axiom)` for an atomic internal or strong
    /// inclusion.
    Entails(Axiom4),
}

/// One KB, as text, with its request stream.
#[derive(Debug, Clone)]
pub struct Case {
    /// Stable label (`horn`, `disj3/chain5`, `resid2`, ...).
    pub id: String,
    /// The KB in parser4 syntax.
    pub text: String,
    /// Requests, in order.
    pub ops: Vec<Op>,
}

/// A fresh assertion that one in-process pass adds and then retracts
/// through a `Session`.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// The [`Case::id`] of the KB it mutates.
    pub case: String,
    /// The individual asserted.
    pub ind: IndividualName,
    /// The atomic concept asserted.
    pub concept: ConceptName,
}

impl Mutation {
    /// The axiom `ind : concept`.
    pub fn axiom(&self) -> Axiom4 {
        Axiom4::ConceptAssertion(self.ind.clone(), Concept::Atomic(self.concept.clone()))
    }
}

/// An in-process workload: the KBs of one pass and the mutations.
#[derive(Debug, Clone)]
pub struct InProc {
    pub cases: Vec<Case>,
    pub mutations: Vec<Mutation>,
}

/// A skewed rank in `0..n`: low ranks are drawn far more often, so a
/// stream revisits its hot requests and the caches see repeats.
fn skewed(rng: &mut StdRng, n: usize) -> usize {
    ((n as f64 * unit(rng).powi(3)) as usize).min(n - 1)
}

fn atom(prefix: &str, i: usize) -> Concept {
    Concept::atomic(format!("{prefix}{i}"))
}

fn inclusion(kind: InclusionKind, sub: Concept, sup: Concept) -> Op {
    Op::Entails(Axiom4::ConceptInclusion(kind, sub, sup))
}

/// Inclusions asked per concept: `H_a ⊏ H_(a+d)` for `d` in `1..=4`.
const ENTAIL_SPAN: usize = 4;

/// The request universe of a `horn_kb4` KB: every `(h_i, H_j)`
/// membership query and the internal and strong inclusions between
/// each concept and its next [`ENTAIL_SPAN`] concepts, shuffled.
fn horn_universe(rng: &mut StdRng, p: &HornParams) -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..p.n_individuals {
        for j in 0..p.n_concepts {
            ops.push(Op::Query(
                IndividualName::new(format!("h{i}")),
                atom("H", j),
            ));
        }
    }
    for a in 0..p.n_concepts {
        for d in 1..=ENTAIL_SPAN.min(p.n_concepts - 1) {
            let b = (a + d) % p.n_concepts;
            for kind in [InclusionKind::Internal, InclusionKind::Strong] {
                ops.push(inclusion(kind, atom("H", a), atom("H", b)));
            }
        }
    }
    ops.shuffle(rng);
    ops
}

/// A request stream over a `horn_kb4` universe. When `len` covers the
/// universe, every request appears once and the rest are skewed repeats,
/// so the set of distinct requests (and so the work) is the same for
/// every seed; shorter streams draw skewed from the universe.
fn horn_stream(rng: &mut StdRng, p: &HornParams, len: usize) -> Vec<Op> {
    let universe = horn_universe(rng, p);
    let mut ops: Vec<Op> = if len >= universe.len() {
        universe.clone()
    } else {
        Vec::new()
    };
    while ops.len() < len {
        ops.push(universe[skewed(rng, universe.len())].clone());
    }
    ops.shuffle(rng);
    ops
}

/// `count` fresh assertions `h_i : H_j` that the KB does not contain,
/// spread evenly over all such pairs (the same set for every seed; the
/// seed only orders them), so the invalidation work per pass is fixed.
fn fresh_assertions(
    rng: &mut StdRng,
    kb: &KnowledgeBase4,
    p: &HornParams,
    case: &str,
    count: usize,
) -> Vec<Mutation> {
    let present: BTreeSet<&Axiom4> = kb.axioms().iter().collect();
    let candidates: Vec<Mutation> = (0..p.n_individuals)
        .flat_map(|i| (0..p.n_concepts).map(move |j| (i, j)))
        .map(|(i, j)| Mutation {
            case: case.to_string(),
            ind: IndividualName::new(format!("h{i}")),
            concept: ConceptName::new(format!("H{j}")),
        })
        .filter(|m| !present.contains(&m.axiom()))
        .collect();
    let mut out: Vec<Mutation> = (0..count)
        .map(|k| candidates[k * candidates.len() / count % candidates.len()].clone())
        .collect();
    out.shuffle(rng);
    out
}

fn horn_params(n: usize, seed: u64) -> HornParams {
    HornParams {
        n_concepts: 2 * n,
        n_roles: 3,
        n_individuals: n,
        n_tbox: 4 * n,
        n_abox: 2 * n,
        strong_rate: 0.3,
        material_rate: 0.0,
        disjunction_rate: 0.0,
        seed,
    }
}

/// The KB as text with its axiom lines in a seeded order.
pub(crate) fn shuffled_text(kb: &KnowledgeBase4, rng: &mut StdRng) -> String {
    let text = print_kb4(kb);
    let (mut decls, mut lines): (Vec<&str>, Vec<&str>) =
        text.lines().partition(|l| l.starts_with("DataRole:"));
    lines.shuffle(rng);
    decls.extend(lines);
    decls.join("\n")
}

/// Structure seed of the generated KBs and fleets. A KB's cost depends
/// strongly on its random structure, so one KB drawn per run seed would
/// move the figures more between seeds than any change to the program.
/// The run seed draws the request stream, the fresh assertions and the
/// axiom order instead.
pub(crate) const STRUCTURE_SEED: u64 = 7;

/// `horn_read`: one connected Horn KB, loaded [`HORN_STREAMS`] times
/// per pass, each time with its own axiom order and request stream.
/// Horn memoization makes a stream's cost depend on its order, so one
/// order per pass would move the figures between seeds.
pub fn horn_read(seed: u64, sizes: &Sizes) -> InProc {
    let p = horn_params(sizes.horn_n, STRUCTURE_SEED);
    let kb = horn_kb4(&p);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f72_6561_645f_6862);
    let cases = (0..HORN_STREAMS)
        .map(|k| Case {
            id: format!("horn{k}"),
            ops: horn_stream(&mut rng, &p, sizes.horn_ops),
            text: shuffled_text(&kb, &mut rng),
        })
        .collect();
    // The mutations are shared out over the streams, so they are spread
    // over the pass like the requests.
    let mut mutations = fresh_assertions(&mut rng, &kb, &p, "", sizes.mutation_pairs);
    for (i, m) in mutations.iter_mut().enumerate() {
        m.case = format!("horn{}", i % HORN_STREAMS);
    }
    InProc { cases, mutations }
}

/// Streams (fresh reasoners) per `horn_read` pass.
const HORN_STREAMS: usize = 4;

/// `residue_search`: `hardness_mix` disjunctive and `∃`-deep islands
/// plus `horn_kb4` KBs with material and disjunctive residue.
pub fn residue_search(seed: u64, sizes: &Sizes) -> InProc {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_7369_6475_6531);
    let mut cases = Vec::new();
    let mix = hardness_mix(&HardnessMixParams {
        seed,
        per_shape: sizes.residue_per_shape,
        min_size: 2,
        max_size: sizes.residue_max_size,
    });
    for l in mix
        .into_iter()
        .filter(|l| l.shape != HardnessShape::HornChain)
    {
        // Queries over every island concept for the island's one
        // individual, plus chain inclusions; the planted probe first.
        let prefix = l.probe.0.as_str().trim_end_matches("x0").to_string();
        let names: Vec<&str> = match l.shape {
            HardnessShape::ExistsDeep => vec!["E"],
            _ => vec!["C", "D"],
        };
        let mut ops = vec![Op::Query(l.probe.0.clone(), l.probe.1.clone())];
        for name in &names {
            for j in 0..=l.size {
                ops.push(Op::Query(
                    l.probe.0.clone(),
                    Concept::atomic(format!("{prefix}{name}{j}")),
                ));
            }
        }
        let head = names[0];
        for j in 0..l.size {
            ops.push(inclusion(
                InclusionKind::Internal,
                Concept::atomic(format!("{prefix}{head}{j}")),
                Concept::atomic(format!("{prefix}{head}{}", j + 1)),
            ));
        }
        ops[1..].shuffle(&mut rng);
        cases.push(Case {
            id: l.id,
            text: shuffled_text(&l.kb, &mut rng),
            ops,
        });
    }
    let mut mutations = Vec::new();
    for i in 0..sizes.residue_horn_kbs {
        let p = HornParams {
            n_roles: 2,
            material_rate: 0.1,
            disjunction_rate: 0.1,
            ..horn_params(sizes.residue_horn_n, STRUCTURE_SEED + i as u64)
        };
        let kb = horn_kb4(&p);
        let ops = horn_stream(&mut rng, &p, sizes.residue_horn_ops);
        let id = format!("resid{i}");
        let per_kb = sizes.mutation_pairs.div_ceil(sizes.residue_horn_kbs);
        mutations.extend(fresh_assertions(&mut rng, &kb, &p, &id, per_kb));
        cases.push(Case {
            id,
            text: shuffled_text(&kb, &mut rng),
            ops,
        });
    }
    mutations.truncate(sizes.mutation_pairs);
    cases.shuffle(&mut rng);
    InProc { cases, mutations }
}
