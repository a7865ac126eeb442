//! The in-process workloads (`horn_read`, `residue_search`): one caller
//! thread, closed loop, against `Reasoner4::new` defaults, each KB's
//! requests followed by add/retract pairs on a `Session` over it.

use crate::gen::{Case, InProc, Mutation, Op};
use crate::report::{Outcome, RunClock};
use crate::util::{middle_mean, peak_rss_mb, quantile, ratio, us};
use dl::name::IndividualName;
use dl::Concept;
use fourval::TruthValue;
use shoin4::reasoner4::QueryOptions;
use shoin4::{parse_kb4, Axiom4, InclusionKind, KnowledgeBase4, Reasoner4, Session};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use tableau::{Config, ReasonerError, Stats};

/// Warm-up requests replayed on each mutated session, so every
/// mutation has cached modules and entailments to invalidate.
const SESSION_WARM_OPS: usize = 16;

/// What one request answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Truth(TruthValue),
    Holds(bool),
    Error(String),
}

impl Answer {
    fn is_error(&self) -> bool {
        matches!(self, Answer::Error(_))
    }
}

fn answer<T>(r: Result<T, ReasonerError>, wrap: impl FnOnce(T) -> Answer) -> Answer {
    match r {
        Ok(v) => wrap(v),
        Err(e) => Answer::Error(e.to_string()),
    }
}

/// Run one request on a reasoner.
pub fn ask(r: &Reasoner4, op: &Op) -> Answer {
    match op {
        Op::Query(a, c) => answer(r.query(a, c), Answer::Truth),
        Op::Entails(ax) => answer(r.entails(ax), Answer::Holds),
    }
}

/// Run one request on a session.
pub fn ask_session(s: &Session, op: &Op) -> Answer {
    match op {
        Op::Query(a, c) => answer(s.query(a, c), Answer::Truth),
        Op::Entails(ax) => answer(s.entails(ax), Answer::Holds),
    }
}

/// Parse a case's KB text; generated text always parses.
pub fn parse(case: &Case) -> KnowledgeBase4 {
    parse_kb4(&case.text).expect("generated KB text parses")
}

/// One pass over every case: set-up, the request stream, then the
/// case's mutations.
#[derive(Debug, Default)]
pub struct Pass {
    /// Parse + `Reasoner4::new`, summed over cases.
    pub setup_s: f64,
    /// Wall time of the requests alone.
    pub query_s: f64,
    /// Wall time of the timed mutations alone.
    pub mutation_s: f64,
    pub query_us: Vec<f64>,
    pub mutation_us: Vec<f64>,
    /// Answers, in stream order over all cases.
    pub answers: Vec<Answer>,
    /// `Reasoner4::stats`, summed over cases.
    pub stats: Stats,
    /// `Session::stats`, summed over mutated sessions.
    pub session_stats: Stats,
    /// Mutation-phase checks that failed (an added fact not visible, a
    /// retract that found nothing, a re-warmed answer that changed).
    pub mutation_failures: u64,
    /// Requests and mutations attempted.
    pub attempted: u64,
}

/// Measure one pass. Each KB's mutations follow its requests, so the
/// mutation samples, like the requests, are spread over the pass.
pub fn run_pass(w: &InProc) -> Pass {
    let mut pass = Pass::default();
    for case in &w.cases {
        let t0 = Instant::now();
        let kb = parse_kb4(black_box(&case.text)).expect("generated KB text parses");
        let r = Reasoner4::new(&kb);
        pass.setup_s += t0.elapsed().as_secs_f64();
        let q0 = Instant::now();
        let mut answers = Vec::with_capacity(case.ops.len());
        for op in &case.ops {
            let t = Instant::now();
            let a = ask(&r, black_box(op));
            pass.query_us.push(us(t.elapsed()));
            answers.push(a);
        }
        pass.query_s += q0.elapsed().as_secs_f64();
        pass.stats.absorb(&r.stats());
        pass.attempted += case.ops.len() as u64;
        let muts: Vec<&Mutation> = w.mutations.iter().filter(|m| m.case == case.id).collect();
        if !muts.is_empty() {
            let (s, fails) = mutate(
                case,
                &muts,
                &answers,
                &mut pass.mutation_us,
                &mut pass.mutation_s,
            );
            pass.mutation_failures += fails;
            pass.attempted += 2 * muts.len() as u64;
            pass.session_stats.absorb(&s.stats());
        }
        pass.answers.extend(answers);
    }
    pass
}

/// The mutation phase on one KB: warm a session with the case's first
/// requests, then per fresh assertion `add` (timed), check it is
/// visible, `retract` (timed) and replay one warm request, which must
/// answer as the reasoner did.
fn mutate(
    case: &Case,
    muts: &[&Mutation],
    expected: &[Answer],
    lat: &mut Vec<f64>,
    wall: &mut f64,
) -> (Session, u64) {
    let mut s = Session::new(&parse(case), Config::default());
    let warm = SESSION_WARM_OPS.min(case.ops.len());
    let mut fails = 0;
    for (op, want) in case.ops[..warm].iter().zip(expected) {
        fails += u64::from(ask_session(&s, op) != *want);
    }
    for (k, m) in muts.iter().enumerate() {
        let ax = m.axiom();
        let t = Instant::now();
        let added = s.add_axiom(ax.clone());
        let d = t.elapsed();
        lat.push(us(d));
        *wall += d.as_secs_f64();
        let visible = s.has_positive_info(&m.ind, &Concept::Atomic(m.concept.clone()));
        fails += u64::from(added.is_err() || visible != Ok(true));
        let t = Instant::now();
        let removed = s.retract_axiom(&ax);
        let d = t.elapsed();
        lat.push(us(d));
        *wall += d.as_secs_f64();
        fails += u64::from(!matches!(removed, Ok(true)));
        if warm > 0 {
            let i = k % warm;
            fails += u64::from(ask_session(&s, &case.ops[i]) != expected[i]);
        }
    }
    (s, fails)
}

/// The independent reference: the unscoped, Horn-off tableau with every
/// pipeline shortcut disabled (`QueryOptions::baseline`), as the parity
/// suites use it.
pub fn oracle(kb: &KnowledgeBase4) -> Reasoner4 {
    let config = Config {
        horn_path: false,
        ..Config::default()
    };
    Reasoner4::with_options(kb, config, QueryOptions::baseline())
}

/// The reference answers for one KB. Membership queries go straight to
/// the [`oracle`]. An atomic inclusion is checked as membership of a
/// fresh individual instead of by the reasoner's own concept probes:
/// `C ⊏ D` holds iff `K ∪ {z : C}` has positive information for
/// `z : D`, and `C → D` additionally iff `K ∪ {w : ¬D}` has positive
/// information for `w : ¬C` (Corollary 7 with the classical
/// fresh-individual reduction). On these KBs the probes are the
/// unscoped tableau's slowest requests, and the reduction is an
/// independent route to the same verdict.
///
/// All fresh individuals of one KB share one extended KB, so the
/// oracle's cached base model serves every inclusion. That is sound
/// when the KB has no nominals (nothing can link an unconnected fresh
/// individual to another) and the extension stays satisfiable; else
/// each inclusion gets an extension of its own.
pub struct Reference {
    kb: KnowledgeBase4,
    base: Reasoner4,
    /// The shared extension and its fresh individuals, by assertion.
    shared: Option<(Reasoner4, HashMap<String, IndividualName>)>,
    memo: HashMap<String, Answer>,
}

/// The fresh-individual assertions an inclusion needs.
fn fresh_assertions(op: &Op) -> Vec<Concept> {
    match op {
        Op::Entails(Axiom4::ConceptInclusion(InclusionKind::Internal, c, _)) => vec![c.clone()],
        Op::Entails(Axiom4::ConceptInclusion(InclusionKind::Strong, c, d)) => {
            vec![c.clone(), d.clone().not()]
        }
        _ => Vec::new(),
    }
}

impl Reference {
    pub fn new(kb: KnowledgeBase4, ops: &[Op]) -> Reference {
        let base = oracle(&kb);
        let mut fresh: HashMap<String, IndividualName> = HashMap::new();
        let mut extended = kb.clone();
        for c in ops.iter().flat_map(fresh_assertions) {
            let next = fresh.len();
            fresh.entry(format!("{c:?}")).or_insert_with(|| {
                let z = IndividualName::new(format!("zFresh{next}"));
                extended.add(Axiom4::ConceptAssertion(z.clone(), c));
                z
            });
        }
        let nominal_free = !format!("{:?}", kb.axioms()).contains("OneOf");
        let shared = (!fresh.is_empty() && nominal_free)
            .then(|| oracle(&extended))
            .filter(|r| r.is_satisfiable() == Ok(true))
            .map(|r| (r, fresh));
        Reference {
            kb,
            base,
            shared,
            memo: HashMap::new(),
        }
    }

    /// The reference answer to `op` (memoized).
    pub fn answer(&mut self, op: &Op) -> Answer {
        let key = format!("{op:?}");
        if let Some(a) = self.memo.get(&key) {
            return a.clone();
        }
        let a = match op {
            Op::Entails(Axiom4::ConceptInclusion(
                kind @ (InclusionKind::Internal | InclusionKind::Strong),
                c,
                d,
            )) => {
                let fwd = self.fresh_entails(c, d);
                match (kind, fwd) {
                    (InclusionKind::Strong, Ok(true)) => answer(
                        self.fresh_entails(&d.clone().not(), &c.clone().not()),
                        Answer::Holds,
                    ),
                    (_, fwd) => answer(fwd, Answer::Holds),
                }
            }
            _ => ask(&self.base, op),
        };
        self.memo.insert(key, a.clone());
        a
    }

    /// Does `K ∪ {z : c}` have positive information for `z : d`?
    fn fresh_entails(&self, c: &Concept, d: &Concept) -> Result<bool, ReasonerError> {
        if let Some((r, fresh)) = &self.shared {
            if let Some(z) = fresh.get(&format!("{c:?}")) {
                return r.has_positive_info(z, d);
            }
        }
        let z = IndividualName::new("zFresh");
        let mut extended = self.kb.clone();
        extended.add(Axiom4::ConceptAssertion(z.clone(), c.clone()));
        oracle(&extended).has_positive_info(&z, d)
    }
}

/// Check every answer of a pass against the [`Reference`]. Returns the
/// number of mismatching answers (reference errors count as
/// mismatches: the answer could not be confirmed).
pub fn check_against_oracle(w: &InProc, answers: &[Answer]) -> u64 {
    let mut mismatches = 0;
    let mut at = 0;
    // Cases that load one KB in different axiom orders share a reference.
    let mut references: HashMap<Vec<&str>, Reference> = HashMap::new();
    for case in &w.cases {
        let mut lines: Vec<&str> = case.text.lines().collect();
        lines.sort_unstable();
        let reference = references.entry(lines).or_insert_with(|| {
            let all_ops: Vec<Op> = w
                .cases
                .iter()
                .filter(|c| c.text.len() == case.text.len())
                .flat_map(|c| c.ops.iter().cloned())
                .collect();
            Reference::new(parse(case), &all_ops)
        });
        for op in &case.ops {
            let want = reference.answer(op);
            let got = &answers[at];
            at += 1;
            if got.is_error() {
                continue; // counted as a failure already
            }
            if want.is_error() || *got != want {
                mismatches += 1;
            }
        }
    }
    mismatches
}

/// Pass-level counters that must repeat exactly at one seed.
pub fn counts(stats: &Stats, session: &Stats) -> Vec<(&'static str, u64)> {
    vec![
        ("rule_applications", stats.rule_applications),
        ("nodes_created", stats.nodes_created),
        ("branches", stats.branches),
        ("backjumps", stats.backjumps),
        ("horn_queries", stats.horn_queries),
        ("horn_fallbacks", stats.horn_fallbacks),
        ("horn_clauses", stats.horn_clauses),
        ("saturation_rounds", stats.saturation_rounds),
        ("entailment_cache_hits", stats.entailment_cache_hits),
        ("entailment_cache_misses", stats.entailment_cache_misses),
        ("horn_cache_hits", stats.horn_cache_hits),
        ("horn_cache_misses", stats.horn_cache_misses),
        ("session_invalidated_modules", session.invalidated_modules),
        (
            "session_invalidated_entailments",
            session.invalidated_entailments,
        ),
    ]
}

/// The figures of one pass; the pass itself is dropped once they are
/// taken, so memory does not grow with the number of passes.
struct Figures {
    setup_s: f64,
    queries_per_s: f64,
    query_p50_us: f64,
    query_p99_us: f64,
    mutation_p50_us: f64,
    mutation_p99_us: f64,
    max_rate_rps: f64,
    queries: usize,
    mutations: usize,
}

impl Figures {
    fn of(p: &Pass) -> Figures {
        Figures {
            setup_s: p.setup_s,
            queries_per_s: p.query_us.len() as f64 / p.query_s,
            query_p50_us: quantile(&p.query_us, 0.5),
            query_p99_us: quantile(&p.query_us, 0.99),
            mutation_p50_us: quantile(&p.mutation_us, 0.5),
            mutation_p99_us: quantile(&p.mutation_us, 0.99),
            max_rate_rps: (p.query_us.len() + p.mutation_us.len()) as f64
                / (p.query_s + p.mutation_s),
            queries: p.query_us.len(),
            mutations: p.mutation_us.len(),
        }
    }
}

/// The untraced end-to-end run.
pub fn run(w: &InProc, clock: &RunClock) -> Outcome {
    let first = run_pass(w);
    let mut figures = vec![Figures::of(&first)];
    let mut attempted = first.attempted;
    let mut failed =
        first.answers.iter().filter(|a| a.is_error()).count() as u64 + first.mutation_failures;
    let mut unstable = 0;
    while figures.len() < 2 || !clock.done() {
        let p = run_pass(w);
        attempted += p.attempted;
        failed += p.answers.iter().filter(|a| a.is_error()).count() as u64;
        failed += p.mutation_failures;
        // Every pass runs the same requests on fresh state: answers and
        // counters must repeat exactly.
        failed += p
            .answers
            .iter()
            .zip(&first.answers)
            .filter(|(a, b)| a != b)
            .count() as u64;
        unstable += u64::from(
            counts(&p.stats, &p.session_stats) != counts(&first.stats, &first.session_stats),
        );
        figures.push(Figures::of(&p));
    }
    let rss = peak_rss_mb();
    let mismatches = check_against_oracle(w, &first.answers);
    failed += mismatches * figures.len() as u64;

    let per_pass =
        |f: &dyn Fn(&Figures) -> f64| middle_mean(&figures.iter().map(f).collect::<Vec<_>>());
    let query_samples: usize = figures.iter().map(|f| f.queries).sum();
    let mutation_samples: usize = figures.iter().map(|f| f.mutations).sum();
    let mut out = Outcome::new(attempted, failed, mismatches == 0);
    out.metric("setup_s", per_pass(&|f| f.setup_s));
    out.metric("queries_per_s", per_pass(&|f| f.queries_per_s));
    out.metric("query_p50_us", per_pass(&|f| f.query_p50_us));
    out.metric("query_p99_us", per_pass(&|f| f.query_p99_us));
    out.metric("mutation_p50_us", per_pass(&|f| f.mutation_p50_us));
    out.metric("mutation_p99_us", per_pass(&|f| f.mutation_p99_us));
    out.metric("max_rate_rps", per_pass(&|f| f.max_rate_rps));
    out.metric("success_ratio", 1.0 - ratio(failed, attempted));
    out.metric("peak_rss_mb", rss);
    out.record("passes", figures.len().into());
    out.record("query_samples", query_samples.into());
    out.record("mutation_samples", mutation_samples.into());
    out.record("oracle_mismatches", (mismatches as i64).into());
    out.record("count_unstable_passes", (unstable as i64).into());
    for (name, v) in counts(&first.stats, &first.session_stats) {
        out.record(name, (v as i64).into());
    }
    out
}
