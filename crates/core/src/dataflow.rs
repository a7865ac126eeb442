//! Signature dataflow over a SHOIN(D)4 KB: polarity-aware signature
//! atoms, the axiom dependency graph, and syntactic **module
//! extraction** — the static pass that bounds what a query can depend
//! on, so the tableau never has to touch the rest of the KB.
//!
//! # Signature atoms
//!
//! A four-valued name does not occur in an axiom as a monolith: the
//! Definitions 5–7 reduction splits every atomic concept `A` into `A⁺`
//! (positive information) and `A⁻` (negative information), and every
//! role `R` into `R⁺` and `R⁼`. Which half an axiom touches depends on
//! the *polarity* of the occurrence and on the *kind* of inclusion
//! (§3.1): an internal `C ⊏ D` mentions only the `⁺`-halves of `C` and
//! `D`; a material `C ↦ D` mentions the `⁻`-half of `C` (its image is
//! `¬(¬C̄) ⊑ D̄`, which quantifies over everything not provably `¬C`);
//! a strong `C → D` mentions all four halves (it contraposes). The
//! [`SigAtom`] of an occurrence is exactly the split half it reaches in
//! the classical image, so the dependency analysis distinguishes the
//! three inclusion kinds for free — by construction, not by special
//! cases.
//!
//! # Module extraction and its soundness
//!
//! [`ModuleExtractor::extract`] computes, for a seed signature `Σ₀`, a
//! subset `M` of the axioms such that **no four-valued verdict over
//! `Σ₀` changes when the rest of the KB is dropped**. The argument is
//! `⊤`-locality over the induced classical KB `K̄`:
//!
//! An axiom is *`⊤`-local* w.r.t. a signature `Σ` if it is satisfied by
//! every interpretation that maps each out-of-`Σ` concept half to the
//! full domain `Δ`, each out-of-`Σ` role half to `Δ × Δ`, and each
//! out-of-`Σ` individual to one arbitrary fixed element — regardless of
//! how the in-`Σ` symbols are interpreted. The extractor grows `M` to a
//! fixpoint: whenever an axiom fails the locality test against the
//! current `Σ`, it joins `M` and its atoms join `Σ`. At the fixpoint
//! every omitted axiom is `⊤`-local w.r.t. the final `Σ ⊇ Σ₀ ∪ sig(M)`.
//!
//! * `M ⊨ φ ⟹ K ⊨ φ` because `M ⊆ K` (entailment is monotone).
//! * `K ⊨ φ ⟹ M ⊨ φ` for any `φ` over `Σ₀`: a model `I` of `M̄`
//!   expands to `I'` by interpreting every out-of-`Σ` symbol as above;
//!   `I'` still satisfies `M̄` (which only uses `Σ`-symbols), satisfies
//!   every omitted axiom (that is what `⊤`-locality says), and agrees
//!   with `I` on `φ` (which only uses `Σ₀`-symbols) — so a
//!   counter-model for `φ` under `M` is one under `K`.
//!
//! The locality test itself is the usual sound structural
//! approximation: per-concept `top`/`bot` predicates that only claim
//! "definitely full"/"definitely empty" when it holds under *every*
//! interpretation of the in-`Σ` symbols. Nominals are never `top` nor
//! `bot` (their extension is a fixed finite set), `≠`-declarations are
//! never local (the fixed-element mapping could merge their sides), and
//! datatype restrictions are treated conservatively. Each admission
//! records the `Σ`-atoms that forced it ([`Admission::via`]) — the
//! per-edge soundness witness: drop any of those atoms from `Σ` and the
//! locality failure it certifies disappears.
//!
//! Because every `∉ Σ` test in the locality predicates is
//! anti-monotone in `Σ`, the extracted module is **monotone in the
//! seed**: `Σ₀ ⊆ Σ₀' ⟹ M(Σ₀) ⊆ M(Σ₀')` (property-tested in
//! `tests/module_parity.rs`).

use crate::inclusion::InclusionKind;
use crate::kb4::{Axiom4, KnowledgeBase4};
use crate::transform::{self, Transformer};
use dl::axiom::{Axiom, RoleExpr};
use dl::kb::KnowledgeBase;
use dl::name::{ConceptName, DataRoleName, IndividualName, RoleName};
use dl::Concept;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// One split half of the four-valued signature — the unit of the
/// dataflow analysis. Atoms are *polarity-aware*: `x : ¬A` touches
/// [`SigAtom::ConceptNeg`]`(A)` but not the positive half, so an axiom
/// about `¬A` and an axiom about `A` are only coupled when some third
/// axiom (a strong or material inclusion) bridges the two halves.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SigAtom {
    /// `A⁺` — positive information about the atomic concept `A`.
    ConceptPos(ConceptName),
    /// `A⁻` — negative information about `A`.
    ConceptNeg(ConceptName),
    /// `R⁺` — the asserted pairs of the role `R`.
    RolePos(RoleName),
    /// `R⁼` — the complement of `R`'s negative extension.
    RoleEq(RoleName),
    /// `U⁺` for a datatype role.
    DataRolePos(DataRoleName),
    /// `U⁼` for a datatype role.
    DataRoleEq(DataRoleName),
    /// A named individual (in an assertion or a nominal).
    Individual(IndividualName),
}

impl fmt::Display for SigAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigAtom::ConceptPos(a) => write!(f, "{a}+"),
            SigAtom::ConceptNeg(a) => write!(f, "{a}-"),
            SigAtom::RolePos(r) => write!(f, "{r}+"),
            SigAtom::RoleEq(r) => write!(f, "{r}="),
            SigAtom::DataRolePos(u) => write!(f, "{u}+"),
            SigAtom::DataRoleEq(u) => write!(f, "{u}="),
            SigAtom::Individual(a) => write!(f, "{a}"),
        }
    }
}

/// Map a classical (split-image) concept name back to its atom. Names
/// produced by [`crate::transform`] always carry a suffix; a bare name
/// (possible only for hand-built classical input, which the transform's
/// unsplit-signature precondition excludes) is read as its own positive
/// half.
fn concept_atom(name: &ConceptName) -> SigAtom {
    let s = name.as_str();
    if let Some(base) = s.strip_suffix(transform::POS_SUFFIX) {
        SigAtom::ConceptPos(ConceptName::new(base))
    } else if let Some(base) = s.strip_suffix(transform::NEG_SUFFIX) {
        SigAtom::ConceptNeg(ConceptName::new(base))
    } else {
        SigAtom::ConceptPos(name.clone())
    }
}

fn role_atom(name: &RoleName) -> SigAtom {
    let s = name.as_str();
    if let Some(base) = s.strip_suffix(transform::POS_SUFFIX) {
        SigAtom::RolePos(RoleName::new(base))
    } else if let Some(base) = s.strip_suffix(transform::EQ_SUFFIX) {
        SigAtom::RoleEq(RoleName::new(base))
    } else {
        SigAtom::RolePos(name.clone())
    }
}

fn data_role_atom(name: &DataRoleName) -> SigAtom {
    let s = name.as_str();
    if let Some(base) = s.strip_suffix(transform::POS_SUFFIX) {
        SigAtom::DataRolePos(DataRoleName::new(base))
    } else if let Some(base) = s.strip_suffix(transform::EQ_SUFFIX) {
        SigAtom::DataRoleEq(DataRoleName::new(base))
    } else {
        SigAtom::DataRolePos(name.clone())
    }
}

/// Collect the atoms of a classical (split-image) concept.
pub fn classical_concept_atoms(c: &Concept, out: &mut BTreeSet<SigAtom>) {
    c.for_each_subconcept(&mut |sub| match sub {
        Concept::Atomic(a) => {
            out.insert(concept_atom(a));
        }
        Concept::Some(r, _)
        | Concept::All(r, _)
        | Concept::AtLeast(_, r)
        | Concept::AtMost(_, r) => {
            out.insert(role_atom(r.name()));
        }
        Concept::DataSome(u, _)
        | Concept::DataAll(u, _)
        | Concept::DataAtLeast(_, u)
        | Concept::DataAtMost(_, u) => {
            out.insert(data_role_atom(u));
        }
        Concept::OneOf(os) => {
            for o in os {
                out.insert(SigAtom::Individual(o.clone()));
            }
        }
        _ => {}
    });
}

/// Collect the atoms of a classical axiom.
pub fn classical_axiom_atoms(ax: &Axiom, out: &mut BTreeSet<SigAtom>) {
    match ax {
        Axiom::ConceptInclusion(c, d) => {
            classical_concept_atoms(c, out);
            classical_concept_atoms(d, out);
        }
        Axiom::RoleInclusion(r, s) => {
            out.insert(role_atom(r.name()));
            out.insert(role_atom(s.name()));
        }
        Axiom::Transitive(r) => {
            out.insert(role_atom(r));
        }
        Axiom::DataRoleInclusion(u, v) => {
            out.insert(data_role_atom(u));
            out.insert(data_role_atom(v));
        }
        Axiom::ConceptAssertion(a, c) => {
            out.insert(SigAtom::Individual(a.clone()));
            classical_concept_atoms(c, out);
        }
        Axiom::RoleAssertion(r, a, b) => {
            out.insert(role_atom(r));
            out.insert(SigAtom::Individual(a.clone()));
            out.insert(SigAtom::Individual(b.clone()));
        }
        Axiom::DataAssertion(u, a, _) => {
            out.insert(data_role_atom(u));
            out.insert(SigAtom::Individual(a.clone()));
        }
        Axiom::SameIndividual(a, b) | Axiom::DifferentIndividuals(a, b) => {
            out.insert(SigAtom::Individual(a.clone()));
            out.insert(SigAtom::Individual(b.clone()));
        }
    }
}

/// The atoms a four-valued query concept can depend on: both
/// transformation polarities (`π(C)` and `π(¬C)` — a four-valued query
/// always asks both).
pub fn concept_seed(c: &Concept) -> BTreeSet<SigAtom> {
    let mut tr = Transformer::new();
    let mut out = BTreeSet::new();
    classical_concept_atoms(&tr.concept(c), &mut out);
    classical_concept_atoms(&tr.neg_concept(c), &mut out);
    out
}

/// How an axiom couples its atoms — the edge label of the dependency
/// graph. Inclusions keep their §3.1 kind (they propagate differently:
/// internal couples `⁺`-halves only, material reaches through the
/// `⁻`-half of its left side, strong couples all four).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxiomKind {
    /// An inclusion axiom of the given kind.
    Inclusion(InclusionKind),
    /// Any fact axiom (assertions, equality, transitivity).
    Fact,
}

/// The signature-dependency graph: per-axiom atom sets plus the reverse
/// index. Two axioms are *adjacent* when they share an atom — the
/// syntactic condition for one to influence the other's consequences.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// `atoms[i]` — the atoms of axiom `i` (over its classical images).
    pub atoms: Vec<BTreeSet<SigAtom>>,
    /// Reverse index: atom → indices of the axioms mentioning it.
    pub by_atom: BTreeMap<SigAtom, Vec<usize>>,
    /// Edge label per axiom.
    pub kinds: Vec<AxiomKind>,
}

impl DepGraph {
    /// Build the graph for a four-valued KB.
    pub fn build(kb: &KnowledgeBase4) -> Self {
        let mut tr = Transformer::memoized();
        let mut atoms = Vec::with_capacity(kb.len());
        let mut by_atom: BTreeMap<SigAtom, Vec<usize>> = BTreeMap::new();
        let mut kinds = Vec::with_capacity(kb.len());
        for (i, ax) in kb.axioms().iter().enumerate() {
            let mut set = BTreeSet::new();
            for image in tr.axiom(ax) {
                classical_axiom_atoms(&image, &mut set);
            }
            for atom in &set {
                by_atom.entry(atom.clone()).or_default().push(i);
            }
            atoms.push(set);
            kinds.push(match ax {
                Axiom4::ConceptInclusion(k, ..)
                | Axiom4::RoleInclusion(k, ..)
                | Axiom4::DataRoleInclusion(k, ..) => AxiomKind::Inclusion(*k),
                _ => AxiomKind::Fact,
            });
        }
        DepGraph {
            atoms,
            by_atom,
            kinds,
        }
    }

    /// Number of axioms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Append a slot with the given atoms and kind; returns its index.
    fn push_slot(&mut self, set: BTreeSet<SigAtom>, kind: AxiomKind) -> usize {
        let i = self.atoms.len();
        for atom in &set {
            self.by_atom.entry(atom.clone()).or_default().push(i);
        }
        self.atoms.push(set);
        self.kinds.push(kind);
        i
    }

    /// Tombstone slot `i`: clear its atoms and unlink it from the
    /// reverse index. The slot keeps its index so module keys built
    /// from slot-id sets stay meaningful across retractions.
    fn clear_slot(&mut self, i: usize) {
        let atoms = std::mem::take(&mut self.atoms[i]);
        for atom in &atoms {
            if let Some(users) = self.by_atom.get_mut(atom) {
                users.retain(|&j| j != i);
                if users.is_empty() {
                    self.by_atom.remove(atom);
                }
            }
        }
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Connected components of the atom-sharing relation, each sorted,
    /// largest first (ties broken by smallest member). Axioms in
    /// different components cannot influence each other's verdicts
    /// through any chain of shared names.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            while let Some(i) = queue.pop_front() {
                comp.push(i);
                for atom in &self.atoms[i] {
                    for &j in &self.by_atom[atom] {
                        if !seen[j] {
                            seen[j] = true;
                            queue.push_back(j);
                        }
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        out
    }
}

/// Why a module member was admitted: the extraction round and the
/// `Σ`-atoms its locality failure depended on — the recorded soundness
/// witness for the dependency edge (empty `via` means the axiom is
/// non-local against *any* signature, e.g. `≠`-declarations and
/// nominal assertions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    /// The admitted axiom (index into `kb.axioms()`).
    pub axiom: usize,
    /// Fixpoint round (0 = forced by the seed alone).
    pub round: usize,
    /// The axiom's atoms that were already in `Σ` at admission.
    pub via: Vec<SigAtom>,
}

/// An extracted module: the axiom subset whose omission cannot change
/// any four-valued verdict over the seed signature.
#[derive(Debug, Clone)]
pub struct Module {
    /// Member axiom indices (into `kb.axioms()`).
    pub axioms: BTreeSet<usize>,
    /// The closed signature `Σ ⊇ seed ∪ sig(M)`.
    pub signature: BTreeSet<SigAtom>,
    /// Fixpoint rounds until closure.
    pub rounds: usize,
    /// Per-member admission records, in admission order.
    pub admissions: Vec<Admission>,
}

/// Reusable module-extraction state for one KB: the dependency graph
/// plus the classical images (computed once, shared by every query).
#[derive(Debug)]
pub struct ModuleExtractor {
    graph: DepGraph,
    images: Vec<Vec<Axiom>>,
}

impl ModuleExtractor {
    /// Preprocess a KB for module extraction.
    pub fn new(kb: &KnowledgeBase4) -> Self {
        let mut tr = Transformer::memoized();
        let images: Vec<Vec<Axiom>> = kb.axioms().iter().map(|ax| tr.axiom(ax)).collect();
        ModuleExtractor {
            graph: DepGraph::build(kb),
            images,
        }
    }

    /// The underlying dependency graph.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The classical images of axiom `i` (Definition 6).
    pub fn images(&self, i: usize) -> &[Axiom] {
        &self.images[i]
    }

    /// The classical induced KB of a module, given by its member axiom
    /// ids — what a module's tableau engine loads.
    pub fn induced_module_kb(&self, axioms: &BTreeSet<usize>) -> KnowledgeBase {
        KnowledgeBase::from_axioms(axioms.iter().flat_map(|&i| self.images[i].iter().cloned()))
    }

    /// Extract the module for a seed signature (the `⊤`-locality
    /// fixpoint described in the module docs). Deterministic: the result
    /// is the least fixpoint, independent of worklist order.
    pub fn extract(&self, seed: &BTreeSet<SigAtom>) -> Module {
        let n = self.graph.len();
        let mut sigma = seed.clone();
        let mut in_module = vec![false; n];
        let mut admissions = Vec::new();
        let mut rounds = 0usize;
        // Round 0 checks everything; later rounds only re-check axioms
        // that gained a Σ-atom (locality depends only on Σ ∩ atoms(i)).
        let mut pending: BTreeSet<usize> = (0..n).collect();
        while !pending.is_empty() {
            let mut fresh_atoms: BTreeSet<SigAtom> = BTreeSet::new();
            for i in std::mem::take(&mut pending) {
                if in_module[i] {
                    continue;
                }
                let local = self.images[i].iter().all(|ax| axiom_local(ax, &sigma));
                if local {
                    continue;
                }
                in_module[i] = true;
                admissions.push(Admission {
                    axiom: i,
                    round: rounds,
                    via: self.graph.atoms[i]
                        .iter()
                        .filter(|a| sigma.contains(a))
                        .cloned()
                        .collect(),
                });
                for atom in &self.graph.atoms[i] {
                    if sigma.insert(atom.clone()) {
                        fresh_atoms.insert(atom.clone());
                    }
                }
            }
            for atom in &fresh_atoms {
                if let Some(users) = self.graph.by_atom.get(atom) {
                    pending.extend(users.iter().copied().filter(|&j| !in_module[j]));
                }
            }
            rounds += 1;
        }
        Module {
            axioms: admissions.iter().map(|a| a.axiom).collect(),
            signature: sigma,
            rounds,
            admissions,
        }
    }

    /// The seed for a four-valued instance query `a : C`: both
    /// transformation polarities of `C` plus the individual.
    pub fn instance_seed(&self, a: &IndividualName, c: &Concept) -> BTreeSet<SigAtom> {
        let mut seed = concept_seed(c);
        seed.insert(SigAtom::Individual(a.clone()));
        seed
    }

    /// Append a new axiom as a fresh slot, returning its index —
    /// incremental maintenance for [`crate::incremental::Session`].
    /// The new slot participates in every later [`Self::extract`] call
    /// exactly as if the extractor had been built from the extended KB.
    pub fn push_axiom(&mut self, ax: &Axiom4) -> usize {
        let mut tr = Transformer::memoized();
        let images = tr.axiom(ax);
        let mut set = BTreeSet::new();
        for image in &images {
            classical_axiom_atoms(image, &mut set);
        }
        let kind = match ax {
            Axiom4::ConceptInclusion(k, ..)
            | Axiom4::RoleInclusion(k, ..)
            | Axiom4::DataRoleInclusion(k, ..) => AxiomKind::Inclusion(*k),
            _ => AxiomKind::Fact,
        };
        let i = self.graph.push_slot(set, kind);
        debug_assert_eq!(i, self.images.len());
        self.images.push(images);
        i
    }

    /// Tombstone slot `i`: its images and atoms become empty, so it is
    /// vacuously `⊤`-local w.r.t. every signature and can never again
    /// be admitted into a module. Indices of the surviving slots do not
    /// shift, which keeps cached module keys (slot-id sets) valid.
    pub fn remove_axiom(&mut self, i: usize) {
        self.images[i].clear();
        self.graph.clear_slot(i);
    }

    /// Does slot `i` still hold a live axiom?
    pub fn is_live(&self, i: usize) -> bool {
        !self.images[i].is_empty()
    }
}

/// Every atom the KB's own (unsplit) signature can seed: both halves of
/// every concept, role and datatype role, plus every individual. By
/// module monotonicity, the module of *any* query over the KB's
/// signature is contained in the module of this seed — an axiom outside
/// it is dead for every such query.
pub fn full_signature_seed(kb: &KnowledgeBase4) -> BTreeSet<SigAtom> {
    let sig = kb.signature();
    let mut out = BTreeSet::new();
    for a in &sig.concepts {
        out.insert(SigAtom::ConceptPos(a.clone()));
        out.insert(SigAtom::ConceptNeg(a.clone()));
    }
    for r in &sig.roles {
        out.insert(SigAtom::RolePos(r.clone()));
        out.insert(SigAtom::RoleEq(r.clone()));
    }
    for u in &sig.data_roles {
        out.insert(SigAtom::DataRolePos(u.clone()));
        out.insert(SigAtom::DataRoleEq(u.clone()));
    }
    for i in &sig.individuals {
        out.insert(SigAtom::Individual(i.clone()));
    }
    out
}

/// Is the concept's extension guaranteed to be the full domain under
/// the `⊤`-locality interpretation (out-of-`Σ` symbols full), for every
/// interpretation of the in-`Σ` symbols?
fn concept_top(c: &Concept, sigma: &BTreeSet<SigAtom>) -> bool {
    match c {
        Concept::Top => true,
        Concept::Bottom => false,
        Concept::Atomic(a) => !sigma.contains(&concept_atom(a)),
        Concept::Not(inner) => concept_bot(inner, sigma),
        Concept::And(l, r) => concept_top(l, sigma) && concept_top(r, sigma),
        Concept::Or(l, r) => concept_top(l, sigma) || concept_top(r, sigma),
        // A nominal's extension is a fixed finite set — never all of Δ.
        Concept::OneOf(_) => false,
        // R full and C full ⟹ every x reaches itself through R into C.
        Concept::Some(r, f) => role_out(r, sigma) && concept_top(f, sigma),
        Concept::All(_, f) => concept_top(f, sigma),
        Concept::AtLeast(n, r) => *n == 0 || (*n == 1 && role_out(r, sigma)),
        // A full role gives |Δ| successors, which no finite bound caps.
        Concept::AtMost(..) => false,
        // Datatype ranges are handled conservatively: never top/bot.
        Concept::DataSome(..)
        | Concept::DataAll(..)
        | Concept::DataAtLeast(..)
        | Concept::DataAtMost(..) => false,
    }
}

/// Is the concept's extension guaranteed empty under the `⊤`-locality
/// interpretation?
fn concept_bot(c: &Concept, sigma: &BTreeSet<SigAtom>) -> bool {
    match c {
        Concept::Bottom => true,
        Concept::Not(inner) => concept_top(inner, sigma),
        Concept::And(l, r) => concept_bot(l, sigma) || concept_bot(r, sigma),
        Concept::Or(l, r) => concept_bot(l, sigma) && concept_bot(r, sigma),
        Concept::Some(_, f) => concept_bot(f, sigma),
        // R full forces a successor outside the (empty) filler.
        Concept::All(r, f) => role_out(r, sigma) && concept_bot(f, sigma),
        _ => false,
    }
}

fn role_out(r: &RoleExpr, sigma: &BTreeSet<SigAtom>) -> bool {
    !sigma.contains(&role_atom(r.name()))
}

/// Is the classical axiom `⊤`-local w.r.t. `Σ`? (Satisfied under the
/// out-of-`Σ`-is-full interpretation whatever the in-`Σ` symbols mean.)
pub fn axiom_local(ax: &Axiom, sigma: &BTreeSet<SigAtom>) -> bool {
    match ax {
        Axiom::ConceptInclusion(c, d) => concept_bot(c, sigma) || concept_top(d, sigma),
        // R ⊑ S holds when S is full.
        Axiom::RoleInclusion(_, s) => role_out(s, sigma),
        // The full relation is transitive.
        Axiom::Transitive(r) => !sigma.contains(&role_atom(r)),
        Axiom::DataRoleInclusion(_, v) => !sigma.contains(&data_role_atom(v)),
        Axiom::ConceptAssertion(_, c) => concept_top(c, sigma),
        Axiom::RoleAssertion(r, ..) => !sigma.contains(&role_atom(r)),
        Axiom::DataAssertion(u, ..) => !sigma.contains(&data_role_atom(u)),
        // Both out of Σ ⟹ both map to the same fixed element.
        Axiom::SameIndividual(a, b) => {
            a == b
                || (!sigma.contains(&SigAtom::Individual(a.clone()))
                    && !sigma.contains(&SigAtom::Individual(b.clone())))
        }
        // The fixed-element mapping could merge the two sides, so a
        // distinctness declaration is never droppable.
        Axiom::DifferentIndividuals(..) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_kb4;

    fn kb(src: &str) -> KnowledgeBase4 {
        parse_kb4(src).unwrap()
    }

    fn seed_of(names: &[&str]) -> BTreeSet<SigAtom> {
        let mut out = BTreeSet::new();
        for n in names {
            out.extend(concept_seed(&Concept::atomic(*n)));
        }
        out
    }

    #[test]
    fn atoms_are_polarity_aware() {
        let kb = kb("A SubClassOf B
             C MaterialSubClassOf D
             E StrongSubClassOf F");
        let g = DepGraph::build(&kb);
        // Internal: only the ⁺-halves.
        assert_eq!(
            g.atoms[0],
            BTreeSet::from([
                SigAtom::ConceptPos(ConceptName::new("A")),
                SigAtom::ConceptPos(ConceptName::new("B")),
            ])
        );
        // Material: the LHS appears through its ⁻-half (¬(¬C̄) ⊑ D̄).
        assert_eq!(
            g.atoms[1],
            BTreeSet::from([
                SigAtom::ConceptNeg(ConceptName::new("C")),
                SigAtom::ConceptPos(ConceptName::new("D")),
            ])
        );
        // Strong: all four halves (both directions).
        assert_eq!(g.atoms[2].len(), 4);
        assert_eq!(g.kinds[0], AxiomKind::Inclusion(InclusionKind::Internal));
        assert_eq!(g.kinds[1], AxiomKind::Inclusion(InclusionKind::Material));
    }

    #[test]
    fn components_split_disjoint_islands() {
        let kb = kb("A SubClassOf B
             x : A
             C SubClassOf D
             y : C");
        let comps = DepGraph::build(&kb).components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn module_keeps_the_relevant_island_only() {
        let kb = kb("A SubClassOf B
             x : A
             C SubClassOf D
             y : C
             y : not D");
        let ex = ModuleExtractor::new(&kb);
        let m = ex.extract(&seed_of(&["A", "B"]));
        assert_eq!(m.axioms, BTreeSet::from([0, 1]));
        // The other island's module ignores the first — and a query
        // about C also drops the inclusion *out of* C and the D⁻ fact:
        // neither can force information into C (⊤-locality).
        let m = ex.extract(&seed_of(&["C"]));
        assert_eq!(m.axioms, BTreeSet::from([3]));
        // A query about D pulls in the whole island: the inclusion can
        // push C-facts into D⁺, and `y : not D` feeds D⁻.
        let m = ex.extract(&seed_of(&["D"]));
        assert_eq!(m.axioms, BTreeSet::from([2, 3, 4]));
    }

    #[test]
    fn internal_inclusions_do_not_couple_negative_halves() {
        // A ⊏ B touches A⁺/B⁺ only: a query about ¬A (the A⁻ half)
        // cannot depend on it.
        let kb1 = kb("A SubClassOf B
             x : not A");
        let ex = ModuleExtractor::new(&kb1);
        let mut seed = BTreeSet::from([SigAtom::ConceptNeg(ConceptName::new("A"))]);
        seed.insert(SigAtom::Individual(IndividualName::new("x")));
        let m = ex.extract(&seed);
        assert_eq!(m.axioms, BTreeSet::from([1]));
        // A strong inclusion DOES couple them (contraposition).
        let kb2 = kb("A StrongSubClassOf B
             x : not A");
        let ex = ModuleExtractor::new(&kb2);
        let m = ex.extract(&seed);
        assert_eq!(m.axioms, BTreeSet::from([0, 1]));
    }

    #[test]
    fn never_local_axioms_are_in_every_module() {
        let kb = kb("a != b
             a : {c}
             not r(d, e)
             x : A");
        let ex = ModuleExtractor::new(&kb);
        let m = ex.extract(&BTreeSet::new());
        // ≠, nominal assertions and negative role assertions are never
        // ⊤-local; the plain membership assertion is.
        assert_eq!(m.axioms, BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn admissions_record_rounds_and_witnesses() {
        let kb = kb("A SubClassOf B
             B SubClassOf C
             x : A");
        let ex = ModuleExtractor::new(&kb);
        // Information flows *toward* the seed: a query about C needs
        // the whole chain (each link can push facts one step up).
        let m = ex.extract(&seed_of(&["C"]));
        assert_eq!(m.axioms, BTreeSet::from([0, 1, 2]));
        let by_axiom: BTreeMap<usize, &Admission> =
            m.admissions.iter().map(|a| (a.axiom, a)).collect();
        // B ⊑ C is forced by the seed; A ⊑ B only once B⁺ flowed in.
        assert_eq!(by_axiom[&1].round, 0);
        assert!(by_axiom[&0].round > 0);
        assert!(by_axiom[&0]
            .via
            .contains(&SigAtom::ConceptPos(ConceptName::new("B"))));
    }

    #[test]
    fn module_is_monotone_in_the_seed() {
        let kb = kb("A SubClassOf B
             B SubClassOf C
             C MaterialSubClassOf D
             x : A
             y : not D
             r(x, y)");
        let ex = ModuleExtractor::new(&kb);
        let small = ex.extract(&seed_of(&["A"]));
        let mut big_seed = seed_of(&["A", "D"]);
        big_seed.insert(SigAtom::Individual(IndividualName::new("y")));
        let big = ex.extract(&big_seed);
        assert!(small.axioms.is_subset(&big.axioms));
        assert!(small.signature.is_subset(&big.signature));
    }

    #[test]
    fn full_signature_seed_covers_every_query_module() {
        let kb = kb("A SubClassOf B
             x : A
             r(x, y)
             u(x, \"v\")");
        let ex = ModuleExtractor::new(&kb);
        let full = ex.extract(&full_signature_seed(&kb));
        for c in ["A", "B"] {
            for i in ["x", "y"] {
                let seed = ex.instance_seed(&IndividualName::new(i), &Concept::atomic(c));
                assert!(ex.extract(&seed).axioms.is_subset(&full.axioms));
            }
        }
    }

    #[test]
    fn induced_module_kb_matches_member_images() {
        let kb = kb("A SubClassOf B
             x : A
             y : C");
        let ex = ModuleExtractor::new(&kb);
        let m = ex.extract(&seed_of(&["B"]));
        let induced = ex.induced_module_kb(&m.axioms);
        assert_eq!(induced.len(), 2);
        let printed = dl::printer::print_kb(&induced);
        assert!(printed.contains("A+ SubClassOf B+"), "{printed}");
        assert!(!printed.contains("C+"), "{printed}");
    }

    #[test]
    fn incremental_push_matches_fresh_build() {
        let base = kb("A SubClassOf B
             x : A");
        let mut ex = ModuleExtractor::new(&base);
        let added = parse_kb4("B SubClassOf C\ny : not C").unwrap();
        for ax in added.axioms() {
            ex.push_axiom(ax);
        }
        let full = kb("A SubClassOf B
             x : A
             B SubClassOf C
             y : not C");
        let fresh = ModuleExtractor::new(&full);
        for names in [&["A"][..], &["B"], &["C"], &["A", "C"]] {
            let seed = seed_of(names);
            let inc = ex.extract(&seed);
            let ref_m = fresh.extract(&seed);
            assert_eq!(inc.axioms, ref_m.axioms, "module differs for {names:?}");
            assert_eq!(inc.signature, ref_m.signature);
        }
    }

    #[test]
    fn tombstoned_slot_leaves_every_module() {
        let full = kb("A SubClassOf B
             B SubClassOf C
             x : A");
        let mut ex = ModuleExtractor::new(&full);
        assert!(ex.is_live(1));
        ex.remove_axiom(1);
        assert!(!ex.is_live(1));
        // Slot ids of survivors are unchanged; the dead slot never
        // appears again, matching a fresh extractor over the shrunken KB.
        let shrunk = kb("A SubClassOf B
             x : A");
        let fresh = ModuleExtractor::new(&shrunk);
        // Survivor slot ids: 0 stays 0, 2 maps to 1 in the fresh build.
        let remap = |i: usize| if i == 0 { 0 } else { 1 };
        for names in [&["A"][..], &["B"], &["C"]] {
            let seed = seed_of(names);
            let inc = ex.extract(&seed);
            let ref_m = fresh.extract(&seed);
            assert!(!inc.axioms.contains(&1));
            assert_eq!(
                inc.axioms
                    .iter()
                    .map(|&i| remap(i))
                    .collect::<BTreeSet<_>>(),
                ref_m.axioms,
                "module differs for {names:?}"
            );
        }
    }

    #[test]
    fn empty_seed_module_decides_consistency_axioms_only() {
        // The ∅-seeded module is exactly the never-local core — the part
        // that can make the KB unsatisfiable.
        let kb = kb("A SubClassOf B
             x : A
             a : {b}
             a != b");
        let ex = ModuleExtractor::new(&kb);
        let m = ex.extract(&BTreeSet::new());
        assert_eq!(m.axioms, BTreeSet::from([2, 3]));
    }
}
