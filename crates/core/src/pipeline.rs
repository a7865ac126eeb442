//! The one query pipeline behind [`crate::Reasoner4`] and
//! [`crate::Session`]: every four-valued service reduces to classical
//! probes over the induced KB `K̄` (Theorem 6, Corollary 7), and every
//! probe is routed the same way:
//!
//! 1. **told index** — a syntactically-certain verdict from
//!    [`ToldIndex`] answers `true` without any search (soundness is
//!    argued in that module's docs);
//! 2. **memoized transform** — `C ↦ C̄` (Definitions 5–7) is computed
//!    once per distinct concept;
//! 3. **entailment cache** — exact instance verdicts keyed by
//!    `(individual, C̄)`, each tagged with the module that answered it;
//! 4. **module extraction** — the `⊤`-locality module of the probe's
//!    signature ([`crate::dataflow`]), cached with everything built
//!    over it;
//! 5. **Horn program** — atomic goals, `P ⊓ ¬Q` subsumption probes and
//!    consistency over a Horn module are answered by saturation
//!    ([`crate::horn`]);
//! 6. **tableau engine** — everything else.
//!
//! The fronts differ only in choices fixed when the pipeline is built:
//! whether steps 1 and 3 run ([`QueryOptions`]), whether the tableau
//! fallback is one whole-KB engine or the per-seed module's engine, and
//! whether a cross-tenant [`SharedModuleCache`] is wired in. Under the
//! whole-KB fallback only the Horn route extracts modules, and those
//! extractions are not counted as scoped queries.

use crate::cache::{lock_mutex, recover, ShardedMap};
use crate::dataflow::{self, axiom_local, ModuleExtractor, SigAtom};
use crate::hardness;
use crate::horn::{self, HornAnswer, HornProgram};
use crate::inclusion::InclusionKind;
use crate::kb4::{Axiom4, KnowledgeBase4};
use crate::reasoner4::QueryOptions;
use crate::serve::{self, SharedModuleCache};
use crate::told::ToldIndex;
use crate::transform::{self, Transformer};
use dl::axiom::{Axiom, RoleExpr};
use dl::kb::KnowledgeBase;
use dl::name::{ConceptName, IndividualName, RoleName};
use dl::Concept;
use fourval::TruthValue;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use tableau::{Config, QueryEngine, ReasonerError, Stats};

/// A module's member slot ids: the module cache key, shared with the
/// entailment cache's per-entry tags.
type ModuleKey = Arc<BTreeSet<usize>>;

/// One cached module: the engine and Horn program are built lazily
/// (a module answered purely by saturation never pays for a tableau
/// engine, and vice versa) and die together when the module is
/// invalidated.
struct ModuleEntry {
    key: ModuleKey,
    /// Content address of the module's classical image
    /// ([`serve::structural_key`]), computed lazily — only pipelines
    /// wired to a [`SharedModuleCache`] ever ask for it.
    skey: OnceLock<Arc<str>>,
    /// The engine plus whether it was *adopted* from the shared cache
    /// (an adopted engine's search counters belong to the building
    /// tenant, so [`Pipeline::stats`] skips them).
    engine: OnceLock<(Arc<QueryEngine>, bool)>,
    horn: OnceLock<Option<Arc<HornProgram>>>,
    /// Static [`crate::hardness`] score of the module's classical
    /// image. Dies with the entry on invalidation, so the delta
    /// machinery keeps predictions as fresh as every other artifact.
    hardness: OnceLock<f64>,
}

/// The map slot around a [`ModuleEntry`]: distinct seeds can extract
/// the *same* axiom set (the empty module most of all) and share the
/// entry, so the signature the add-side dirty test checks must be the
/// **union** of every contributing extraction's closed signature. That
/// stays sound by anti-monotonicity — an axiom `⊤`-local w.r.t. the
/// union is local w.r.t. each contributing signature, hence w.r.t.
/// every intermediate signature of each seed's re-extraction — and
/// errs only toward extra invalidation, never staleness.
struct ModuleSlot {
    signature: BTreeSet<SigAtom>,
    entry: Arc<ModuleEntry>,
}

/// What the entailment cache remembers per `(a, C̄)` probe: the
/// classical verdict plus the key of the module that answered it
/// (`None` for the whole-KB engine). The entry dies with that module.
type CachedVerdict = (bool, Option<ModuleKey>);

/// Which side of a mutation an invalidation pass is running for.
#[derive(Clone, Copy)]
pub(crate) enum Delta {
    Add(usize),
    Retract(usize),
}

/// One classical question over `K̄`, as the router sees it.
enum Probe<'a> {
    /// `K̄ ⊨ a : C̄`.
    Instance(&'a IndividualName, &'a Concept),
    /// Is the test concept satisfiable w.r.t. `K̄`?
    ConceptSat(&'a Concept),
    /// `K̄ ⊨ α` for a classical axiom.
    Entails(&'a Axiom),
    /// Is `K̄` consistent?
    Consistent,
}

/// What a Horn-routable probe asks the Horn engine.
enum HornGoal<'a> {
    Instance(&'a IndividualName, &'a ConceptName),
    /// `P ⊓ ¬Q` is satisfiable w.r.t. a Horn module iff the module does
    /// *not* derive `Q` from `{P}`.
    NotSubsumed(&'a ConceptName, &'a ConceptName),
    /// A Horn module is always consistent: the fragment excludes every
    /// construct with classical bite (`⊥`, nominals, counting, equality).
    Consistent,
}

impl HornGoal<'_> {
    fn answer(&self, program: &HornProgram) -> HornAnswer {
        match *self {
            HornGoal::Instance(a, goal) => program.is_instance(a, goal),
            HornGoal::NotSubsumed(sub, sup) => {
                let answer = program.subsumes(sub, sup);
                HornAnswer {
                    holds: !answer.holds,
                    ..answer
                }
            }
            HornGoal::Consistent => HornAnswer {
                holds: true,
                rounds: 0,
            },
        }
    }
}

impl Probe<'_> {
    /// The extraction seed: the probe's classical signature. Sound in
    /// both directions — a module model expands to a full-KB model
    /// preserving every seed-signature extension (`crate::dataflow`).
    /// The empty seed extracts the never-`⊤`-local core, the only
    /// axioms that can make a SHOIN(D)4 KB unsatisfiable.
    fn seed(&self) -> BTreeSet<SigAtom> {
        let mut seed = BTreeSet::new();
        match self {
            Probe::Instance(a, c) => {
                dataflow::classical_concept_atoms(c, &mut seed);
                seed.insert(SigAtom::Individual((*a).clone()));
            }
            Probe::ConceptSat(c) => dataflow::classical_concept_atoms(c, &mut seed),
            Probe::Entails(ax) => dataflow::classical_axiom_atoms(ax, &mut seed),
            Probe::Consistent => {}
        }
        seed
    }

    /// The probe's row in the cross-tenant verdict cache; consistency
    /// checks are not shared.
    fn row(&self) -> Option<String> {
        match self {
            Probe::Instance(a, c) => Some(format!("i\u{1}{a:?}\u{1}{c:?}")),
            Probe::ConceptSat(c) => Some(format!("s\u{1}{c:?}")),
            Probe::Entails(ax) => Some(format!("e\u{1}{ax:?}")),
            Probe::Consistent => None,
        }
    }

    /// The Horn question, for the shapes the Horn engine answers.
    /// Material subsumption probes have the shape `¬C⁻' ⊓ ¬Q` and never
    /// match — they stay on the tableau, mirroring the told index.
    fn horn_goal(&self) -> Option<HornGoal<'_>> {
        match self {
            Probe::Instance(a, Concept::Atomic(goal)) => Some(HornGoal::Instance(a, goal)),
            Probe::ConceptSat(test) => {
                subsumption_probe(test).map(|(sub, sup)| HornGoal::NotSubsumed(sub, sup))
            }
            Probe::Consistent => Some(HornGoal::Consistent),
            _ => None,
        }
    }

    fn run(&self, engine: &QueryEngine) -> Result<bool, ReasonerError> {
        match self {
            Probe::Instance(a, c) => engine.is_instance_of(a, c),
            Probe::ConceptSat(c) => engine.is_concept_satisfiable(c),
            Probe::Entails(ax) => engine.entails(ax),
            Probe::Consistent => engine.is_consistent(),
        }
    }
}

/// Does this classical test concept have the shape `P ⊓ ¬Q` for atomic
/// `P`, `Q` — the (un)satisfiability probe [`Pipeline::entails`] builds
/// for atomic internal/strong inclusions?
fn subsumption_probe(test: &Concept) -> Option<(&ConceptName, &ConceptName)> {
    let Concept::And(lhs, rhs) = test else {
        return None;
    };
    let (Concept::Atomic(sub), Concept::Not(negated)) = (&**lhs, &**rhs) else {
        return None;
    };
    let Concept::Atomic(sup) = &**negated else {
        return None;
    };
    Some((sub, sup))
}

/// The classical probe of one side of a role query: `K̄ ⊨ R⁺(a,b)`
/// (positive) or `K̄ ⊨ a : ∀R⁼.¬{b}`, i.e. `(a,b) ∉ R⁼ = proj⁻(R)`.
fn role_probe(r: &RoleName, a: &IndividualName, b: &IndividualName, positive: bool) -> Axiom {
    if positive {
        Axiom::RoleAssertion(r.with_suffix(transform::POS_SUFFIX), a.clone(), b.clone())
    } else {
        Axiom::ConceptAssertion(
            a.clone(),
            Concept::all(
                RoleExpr::named(r.with_suffix(transform::EQ_SUFFIX)),
                Concept::one_of([b.clone()]).not(),
            ),
        )
    }
}

/// The told → transform → entailment cache → module → Horn → tableau
/// router (see the module docs). All query methods take `&self`.
pub(crate) struct Pipeline {
    extractor: ModuleExtractor,
    told: Option<ToldIndex>,
    transformer: Mutex<Transformer>,
    modules: Mutex<HashMap<BTreeSet<usize>, ModuleSlot>>,
    /// `(a, C̄) → (verdict, answering module key)`. Sharded so batch
    /// workers don't serialize on one cache lock.
    instance_cache: Option<ShardedMap<(IndividualName, Concept), CachedVerdict>>,
    /// The whole-KB tableau fallback; `None` runs the tableau on each
    /// probe's extracted module instead.
    whole: Option<QueryEngine>,
    horn_path: bool,
    /// The configuration with scoping off — what module engines run.
    sub_config: Config,
    /// Counters accumulated outside the engines (extraction, Horn,
    /// sharing, mutations) plus the stats of every engine retired by
    /// invalidation, so nothing is lost when a module dies.
    stats: Mutex<Stats>,
    shared: Option<Arc<SharedModuleCache>>,
}

impl Pipeline {
    /// Build over `kb`. `whole` is the induced KB to run one whole-KB
    /// tableau engine over, or `None` for per-seed module engines.
    pub(crate) fn new(
        kb: &KnowledgeBase4,
        config: Config,
        opts: &QueryOptions,
        whole: Option<&KnowledgeBase>,
        shared: Option<Arc<SharedModuleCache>>,
    ) -> Pipeline {
        let whole = whole.map(|induced| QueryEngine::with_config(induced, config.clone()));
        // Only per-seed engines and the Horn route ever extract modules.
        let empty = KnowledgeBase4::new();
        let extracted = if whole.is_none() || config.horn_path {
            kb
        } else {
            &empty
        };
        Pipeline {
            extractor: ModuleExtractor::new(extracted),
            told: opts.told_fast_path.then(|| ToldIndex::build(kb)),
            transformer: Mutex::new(Transformer::memoized()),
            modules: Mutex::new(HashMap::new()),
            instance_cache: opts.entailment_cache.then(ShardedMap::new),
            whole,
            horn_path: config.horn_path,
            sub_config: Config {
                module_scoping: false,
                ..config
            },
            stats: Mutex::new(Stats::default()),
            shared,
        }
    }

    /// Accumulated statistics: the pipeline's own counters plus the
    /// whole-KB engine, every live module engine built here and the
    /// entailment-cache counters.
    pub(crate) fn stats(&self) -> Stats {
        let mut s = *lock_mutex(&self.stats);
        if let Some(whole) = &self.whole {
            s.absorb(&whole.stats());
        }
        for slot in lock_mutex(&self.modules).values() {
            if let Some((engine, adopted)) = slot.entry.engine.get() {
                // Search counters of a shared engine are attributed to
                // the tenant that built it; adopters report their
                // adoption through `shared_module_hits` instead.
                if !adopted {
                    s.absorb(&engine.stats());
                }
            }
        }
        if let Some(cache) = &self.instance_cache {
            s.entailment_cache_hits += cache.hits();
            s.entailment_cache_misses += cache.misses();
        }
        s
    }

    /// Number of distinct modules currently cached.
    pub(crate) fn cached_modules(&self) -> usize {
        lock_mutex(&self.modules).len()
    }

    /// The told-index verdict `(certain positive, certain negative)`
    /// for `(a, c)`, if the told index is on.
    pub(crate) fn told_verdict(&self, a: &IndividualName, c: &ConceptName) -> Option<(bool, bool)> {
        self.told.as_ref().map(|t| t.verdict(a, c))
    }

    fn record(&self, s: &Stats) {
        lock_mutex(&self.stats).absorb(s);
    }

    // ------------------------------------------------------------------
    // Module cache
    // ------------------------------------------------------------------

    fn module_entry(&self, seed: &BTreeSet<SigAtom>) -> Arc<ModuleEntry> {
        let t0 = Instant::now();
        let module = self.extractor.extract(seed);
        let mut s = Stats {
            scoped_queries: 1,
            module_axioms: module.axioms.len() as u64,
            module_extraction_ns: t0.elapsed().as_nanos() as u64,
            ..Stats::default()
        };
        let mut modules = lock_mutex(&self.modules);
        let entry = match modules.get_mut(&module.axioms) {
            Some(slot) => {
                s.engine_cache_hits = 1;
                // Same axiom set reached from a different seed: widen the
                // dirty-test signature to the union (see `ModuleSlot`).
                // Only per-seed pipelines are ever mutated (`apply`).
                if self.whole.is_none() {
                    slot.signature.extend(module.signature);
                }
                Arc::clone(&slot.entry)
            }
            None => {
                s.engine_cache_misses = 1;
                let entry = Arc::new(ModuleEntry {
                    key: Arc::new(module.axioms.clone()),
                    skey: OnceLock::new(),
                    engine: OnceLock::new(),
                    horn: OnceLock::new(),
                    hardness: OnceLock::new(),
                });
                modules.insert(
                    module.axioms,
                    ModuleSlot {
                        signature: module.signature,
                        entry: Arc::clone(&entry),
                    },
                );
                entry
            }
        };
        drop(modules);
        // Extractions count as scoped queries only when the tableau runs
        // per seed: behind a whole-KB engine no query is module-scoped.
        if self.whole.is_none() {
            self.record(&s);
        }
        entry
    }

    /// The classical images of the module's members.
    fn images<'a>(&'a self, entry: &'a ModuleEntry) -> impl Iterator<Item = &'a Axiom> {
        entry.key.iter().flat_map(|&i| self.extractor.images(i))
    }

    /// The module's structural key (content address), computed once.
    fn structural_key(&self, entry: &ModuleEntry) -> Arc<str> {
        Arc::clone(
            entry
                .skey
                .get_or_init(|| serve::structural_key(self.images(entry))),
        )
    }

    fn engine_of(&self, entry: &ModuleEntry) -> Arc<QueryEngine> {
        let (engine, _adopted) = entry.engine.get_or_init(|| {
            let build = |config: &Config| {
                let kb = self.extractor.induced_module_kb(&entry.key);
                Arc::new(QueryEngine::with_config(&kb, config.clone()))
            };
            let Some(shared) = &self.shared else {
                return (build(&self.sub_config), false);
            };
            let key = self.structural_key(entry);
            let mut s = Stats::default();
            let slot = match shared.engine(&key) {
                Some(engine) => {
                    s.shared_module_hits = 1;
                    (engine, true)
                }
                None => {
                    // Build with the cache's *neutral* config so a
                    // per-tenant cancellation token never rides along
                    // into another tenant's queries.
                    s.shared_module_misses = 1;
                    let engine = build(shared.build_config());
                    shared.publish_engine(key, Arc::clone(&engine));
                    (engine, false)
                }
            };
            self.record(&s);
            slot
        });
        Arc::clone(engine)
    }

    /// The module's Horn program (compiled once per entry), or `None`
    /// with a recorded fallback when its image leaves the Horn fragment.
    fn horn_of(&self, entry: &ModuleEntry) -> Option<Arc<HornProgram>> {
        let compile = || horn::compile(self.images(entry)).map(Arc::new);
        let mut built = false;
        let program = entry.horn.get_or_init(|| {
            built = true;
            let Some(shared) = &self.shared else {
                return compile();
            };
            let key = self.structural_key(entry);
            let mut s = Stats::default();
            let program = match shared.horn(&key) {
                Some(hit) => {
                    s.shared_module_hits = 1;
                    hit
                }
                None => {
                    s.shared_module_misses = 1;
                    let program = compile();
                    shared.publish_horn(key, program.clone());
                    program
                }
            };
            self.record(&s);
            program
        });
        let mut s = Stats::default();
        if built {
            s.horn_cache_misses = 1;
            s.horn_clauses = program.as_ref().map_or(0, |p| p.clause_count());
        } else {
            s.horn_cache_hits = 1;
        }
        if program.is_none() {
            s.horn_fallbacks = 1;
        }
        self.record(&s);
        program.clone()
    }

    /// The module's static hardness score ([`crate::hardness`]),
    /// computed once per entry and shared cross-tenant under the
    /// structural key. Pure analysis — no engine is built and no search
    /// runs — so admission control can afford it on every request.
    fn hardness_of(&self, entry: &ModuleEntry) -> f64 {
        let analyze = || hardness::analyze_images(self.images(entry)).score;
        *entry.hardness.get_or_init(|| match &self.shared {
            Some(shared) => {
                let key = self.structural_key(entry);
                shared.score(&key).unwrap_or_else(|| {
                    let score = analyze();
                    shared.publish_score(key, score);
                    score
                })
            }
            None => analyze(),
        })
    }

    /// Cross-tenant verdict row lookup under the module's structural
    /// key; `None` when no shared cache is wired, the probe is not
    /// shared, or the row is cold.
    fn shared_row(&self, entry: &ModuleEntry, probe: &Probe<'_>) -> Option<bool> {
        let shared = self.shared.as_ref()?;
        let row = probe.row()?;
        let hit = shared.row(&(self.structural_key(entry), row));
        let mut s = Stats::default();
        match hit {
            Some(_) => s.shared_row_hits = 1,
            None => s.shared_row_misses = 1,
        }
        self.record(&s);
        hit
    }

    /// Publish a computed verdict row for identical modules elsewhere.
    fn publish_row(&self, entry: &ModuleEntry, probe: &Probe<'_>, verdict: bool) {
        if let (Some(shared), Some(row)) = (&self.shared, probe.row()) {
            shared.publish_row((self.structural_key(entry), row), verdict);
        }
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Answer one classical probe: shared row → Horn program → tableau.
    /// Returns the verdict and the key of the module that answered it
    /// (`None` for the whole-KB engine).
    fn route(&self, probe: Probe<'_>) -> Result<CachedVerdict, ReasonerError> {
        let goal = probe.horn_goal().filter(|_| self.horn_path);
        let entry =
            (self.whole.is_none() || goal.is_some()).then(|| self.module_entry(&probe.seed()));
        if let Some(entry) = &entry {
            let key = || Some(Arc::clone(&entry.key));
            if let Some(hit) = self.shared_row(entry, &probe) {
                return Ok((hit, key()));
            }
            if let Some(goal) = &goal {
                if let Some(program) = self.horn_of(entry) {
                    let answer = goal.answer(&program);
                    self.record(&Stats {
                        horn_queries: 1,
                        saturation_rounds: answer.rounds,
                        ..Stats::default()
                    });
                    self.publish_row(entry, &probe, answer.holds);
                    return Ok((answer.holds, key()));
                }
            }
        }
        if let Some(whole) = &self.whole {
            return Ok((probe.run(whole)?, None));
        }
        let entry = entry.expect("per-seed routing extracts every probe");
        let verdict = probe.run(&self.engine_of(&entry))?;
        self.publish_row(&entry, &probe, verdict);
        Ok((verdict, Some(Arc::clone(&entry.key))))
    }

    // ------------------------------------------------------------------
    // Four-valued services (Theorem 6, Corollary 7)
    // ------------------------------------------------------------------

    /// Is the four-valued KB satisfiable? (Theorem 6: iff `K̄` is.)
    pub(crate) fn is_satisfiable(&self) -> Result<bool, ReasonerError> {
        Ok(self.route(Probe::Consistent)?.0)
    }

    /// Is there information supporting (`positive`: `K̄ ⊨ ā : C̄`) or
    /// against (`K̄ ⊨ ā : ¬C̄`, the transformed negation) `a : C`?
    pub(crate) fn has_info(
        &self,
        a: &IndividualName,
        c: &Concept,
        positive: bool,
    ) -> Result<bool, ReasonerError> {
        if let (Some(told), Concept::Atomic(name)) = (&self.told, c) {
            let (pos, neg) = told.verdict(a, name);
            if (positive && pos) || (!positive && neg) {
                return Ok(true);
            }
        }
        let tc = {
            let mut tr = lock_mutex(&self.transformer);
            if positive {
                tr.concept(c)
            } else {
                tr.neg_concept(c)
            }
        };
        let Some(cache) = &self.instance_cache else {
            return Ok(self.route(Probe::Instance(a, &tc))?.0);
        };
        let key = (a.clone(), tc);
        if let Some((hit, _)) = cache.get(&key) {
            return Ok(hit);
        }
        let answer = self.route(Probe::Instance(a, &key.1))?;
        let verdict = answer.0;
        cache.insert(key, answer);
        Ok(verdict)
    }

    /// The four-valued answer to "what does the KB know about `a : C`?".
    pub(crate) fn query(
        &self,
        a: &IndividualName,
        c: &Concept,
    ) -> Result<TruthValue, ReasonerError> {
        Ok(TruthValue::from_bits(
            self.has_info(a, c, true)?,
            self.has_info(a, c, false)?,
        ))
    }

    /// Is there information supporting (`positive`) or against `R(a, b)`?
    pub(crate) fn has_role_info(
        &self,
        r: &RoleName,
        a: &IndividualName,
        b: &IndividualName,
        positive: bool,
    ) -> Result<bool, ReasonerError> {
        Ok(self
            .route(Probe::Entails(&role_probe(r, a, b, positive)))?
            .0)
    }

    /// The four-valued answer about a role membership.
    pub(crate) fn query_role(
        &self,
        r: &RoleName,
        a: &IndividualName,
        b: &IndividualName,
    ) -> Result<TruthValue, ReasonerError> {
        Ok(TruthValue::from_bits(
            self.has_role_info(r, a, b, true)?,
            self.has_role_info(r, a, b, false)?,
        ))
    }

    /// Is the test concept unsatisfiable w.r.t. `K̄`?
    fn unsat(&self, test: &Concept) -> Result<bool, ReasonerError> {
        Ok(!self.route(Probe::ConceptSat(test))?.0)
    }

    /// Does the KB four-valued-entail the axiom? Inclusion axioms go
    /// through Corollary 7; everything else reduces to entailment of
    /// every classical image over `K̄`.
    pub(crate) fn entails(&self, ax: &Axiom4) -> Result<bool, ReasonerError> {
        let Axiom4::ConceptInclusion(kind, c, d) = ax else {
            let images = lock_mutex(&self.transformer).axiom(ax);
            for image in &images {
                if !self.route(Probe::Entails(image))?.0 {
                    return Ok(false);
                }
            }
            return Ok(true);
        };
        // Told fast path: a non-material atomic chain certifies the
        // *internal* inclusion (`proj⁺` flows along every edge). It does
        // NOT certify the material reading — `↦` quantifies over
        // `Δ∖proj⁻(C)`, a superset of `proj⁺(C)` — nor the strong one
        // (no contraposition evidence).
        if let (InclusionKind::Internal, Some(told), Concept::Atomic(a), Concept::Atomic(b)) =
            (kind, &self.told, c, d)
        {
            if told.told_subsumes(a, b) {
                return Ok(true);
            }
        }
        let (cbar, neg_cbar, dbar, neg_dbar) = {
            let mut tr = lock_mutex(&self.transformer);
            (
                tr.concept(c),
                tr.neg_concept(c),
                tr.concept(d),
                tr.neg_concept(d),
            )
        };
        match kind {
            // C ↦ D iff ¬(¬C̄) ⊓ ¬D̄ unsatisfiable in K̄.
            InclusionKind::Material => self.unsat(&neg_cbar.not().and(dbar.not())),
            // C ⊏ D iff C̄ ⊓ ¬D̄ unsatisfiable.
            InclusionKind::Internal => self.unsat(&cbar.and(dbar.not())),
            // C → D iff additionally ¬D̄ ⊓ ¬(¬C̄) unsatisfiable — i.e.
            // ¬D̄ ⊑ ¬C̄ also holds.
            InclusionKind::Strong => {
                Ok(self.unsat(&cbar.and(dbar.not()))?
                    && self.unsat(&neg_dbar.and(neg_cbar.not()))?)
            }
        }
    }

    // ------------------------------------------------------------------
    // Admission predictions
    // ------------------------------------------------------------------

    fn seed_hardness(&self, seed: &BTreeSet<SigAtom>) -> f64 {
        self.hardness_of(&self.module_entry(seed))
    }

    /// Predicted hardness of [`Pipeline::query`]: the maximum score
    /// over the modules the positive and negative probes extract.
    pub(crate) fn predicted_hardness(&self, a: &IndividualName, c: &Concept) -> f64 {
        let (tc, ntc) = {
            let mut tr = lock_mutex(&self.transformer);
            (tr.concept(c), tr.neg_concept(c))
        };
        [tc, ntc].iter().fold(0.0f64, |score, t| {
            score.max(self.seed_hardness(&Probe::Instance(a, t).seed()))
        })
    }

    /// Predicted hardness of [`Pipeline::query_role`] — the maximum over
    /// its two entailment probes' modules.
    pub(crate) fn predicted_hardness_role(
        &self,
        r: &RoleName,
        a: &IndividualName,
        b: &IndividualName,
    ) -> f64 {
        [true, false].iter().fold(0.0f64, |score, &positive| {
            let probe = role_probe(r, a, b, positive);
            score.max(self.seed_hardness(&Probe::Entails(&probe).seed()))
        })
    }

    /// Predicted hardness of [`Pipeline::entails`]: the module seeded by
    /// the union of the axiom's classical-image atoms — a superset of
    /// every per-probe seed `entails` uses, so the prediction can only
    /// err toward classifying heavy.
    pub(crate) fn predicted_hardness_axiom(&self, ax: &Axiom4) -> f64 {
        let images = lock_mutex(&self.transformer).axiom(ax);
        let mut seed = BTreeSet::new();
        for im in &images {
            dataflow::classical_axiom_atoms(im, &mut seed);
        }
        self.seed_hardness(&seed)
    }

    /// Predicted hardness of [`Pipeline::is_satisfiable`] (the ∅-seed
    /// module — the whole non-`⊤`-local part of the KB).
    pub(crate) fn predicted_hardness_check(&self) -> f64 {
        self.seed_hardness(&Probe::Consistent.seed())
    }

    // ------------------------------------------------------------------
    // Mutation (sessions only)
    // ------------------------------------------------------------------

    /// Apply one mutation of the session's slot store (`slots` as it
    /// stands *after* the mutation) and run the delta-driven
    /// invalidation pass (soundness in the [`crate::incremental`] docs):
    /// drop dirty modules (folding their engines' stats into the
    /// accumulator), the entailment-cache entries they answered, and
    /// the told-index rows the axiom touches.
    pub(crate) fn apply(&mut self, delta: Delta, ax: &Axiom4, slots: &[Option<Axiom4>]) {
        debug_assert!(
            self.whole.is_none(),
            "a whole-KB engine cannot follow mutations"
        );
        let id = match delta {
            Delta::Add(id) => {
                let pushed = self.extractor.push_axiom(ax);
                debug_assert_eq!(pushed, id);
                id
            }
            Delta::Retract(id) => {
                self.extractor.remove_axiom(id);
                id
            }
        };
        let mut s = Stats {
            mutations: 1,
            ..Stats::default()
        };
        let extractor = &self.extractor;
        let mut dirty: HashSet<ModuleKey> = HashSet::new();
        recover(self.modules.get_mut()).retain(|_, slot| {
            let is_dirty = match delta {
                Delta::Add(id) => !extractor
                    .images(id)
                    .iter()
                    .all(|im| axiom_local(im, &slot.signature)),
                Delta::Retract(id) => slot.entry.key.contains(&id),
            };
            if is_dirty {
                if let Some((engine, adopted)) = slot.entry.engine.get() {
                    if !adopted {
                        s.absorb(&engine.stats());
                    }
                }
                dirty.insert(Arc::clone(&slot.entry.key));
            }
            !is_dirty
        });
        s.invalidated_modules += dirty.len() as u64;
        if !dirty.is_empty() {
            if let Some(cache) = &self.instance_cache {
                let removed =
                    cache.retain(|_, (_, key)| !key.as_ref().is_some_and(|k| dirty.contains(k)));
                s.invalidated_entailments += removed as u64;
            }
        }
        if let Some(told) = &mut self.told {
            let noted = match delta {
                Delta::Add(_) => told.note_added(id, ax),
                Delta::Retract(_) => told.note_retracted(id, ax),
            };
            match noted {
                Some(rows) => s.invalidated_told_rows += rows as u64,
                None => {
                    // An equality merge moved the class partition itself:
                    // rebuild the index over the live slots (ids preserved).
                    s.invalidated_told_rows += told.memoized_rows() as u64;
                    *told = ToldIndex::build_indexed(
                        slots
                            .iter()
                            .enumerate()
                            .filter_map(|(i, slot)| slot.as_ref().map(|ax| (i, ax))),
                    );
                }
            }
        }
        recover(self.stats.get_mut()).absorb(&s);
    }
}
