//! The traced run (`--trace 1`): replay each workload's requests
//! through the layers' public functions, with a span around every call,
//! and read the program's own counters at the same boundaries.
//!
//! The in-process replay follows `Reasoner4`'s default routing step by
//! step — told index, memoized transform, entailment cache, module
//! extraction, Horn compile/saturate, tableau — and its answers must
//! equal the untraced reasoner's. The `serve_churn` replay sends the
//! requests of a TCP phase through `serve::execute` (queries) and
//! `Session::{add_axiom, retract_axiom}` (mutations).
//!
//! Spans are kept in memory; the first traced pass's spans are written
//! out at the end. A span's self time is its duration minus the time
//! its children cover. Tracing overhead is the traced replay's wall
//! time against the same replay with span recording off.

use crate::churn::{self, Kind, Req, Script};
use crate::gen::{InProc, Op};
use crate::inproc::{self, Answer};
use crate::report::{Outcome, RunClock};
use crate::util::{median, peak_rss_mb, quantile, ratio};
use dl::name::{ConceptName, IndividualName};
use dl::Concept;
use jsonio::Value;
use shoin4::dataflow::{self, ModuleExtractor, SigAtom};
use shoin4::horn::{self, HornProgram};
use shoin4::serve::{execute, Registry, Request};
use shoin4::told::ToldIndex;
use shoin4::transform::Transformer;
use shoin4::{parse_kb4, transform_kb, Axiom4, InclusionKind, KnowledgeBase4, Session};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;
use tableau::{Config, QueryEngine, ReasonerError, Stats};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span recorder; when off, `enter`/`exit` record nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Start a new request: later spans carry its id.
    pub fn request(&mut self) {
        self.request += 1;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span (a child of the innermost open span).
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Durations (µs) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Total time (ms) of the spans with any of these names.
    pub fn busy_ms(&self, names: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.us() / 1e3)
            .sum()
    }

    /// Self time (µs) of every span with this name.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.us() - child_us[i])
            .collect()
    }

    /// The spans as JSON lines.
    pub fn json_lines(&self) -> Vec<String> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::object([
                    ("id", i.into()),
                    ("name", s.name.into()),
                    ("start_ns", (s.start_ns as i64).into()),
                    ("end_ns", (s.end_ns as i64).into()),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                    ("request", (s.request as i64).into()),
                ])
                .to_string()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// In-process replay
// ---------------------------------------------------------------------

/// Replay counters the spans do not carry.
#[derive(Debug, Default, Clone)]
struct Counts {
    /// Entailment checks (positive/negative sides, inclusion tests).
    checks: u64,
    /// Checks the told index decided.
    told: u64,
    extracts: u64,
    module_axioms: u64,
    four_valued_axioms: u64,
    classical_axioms: u64,
    /// The program counters the replay's routing implies, summed over
    /// cases: its engines' tableau counters plus the Horn and
    /// entailment-cache counts `Reasoner4` keeps. They must equal the
    /// untraced reasoner's `Stats`, so the replay cannot drift from
    /// `Reasoner4`'s routing unnoticed.
    work: Stats,
    /// add/retract round trips that failed.
    mutation_failures: u64,
}

/// `Reasoner4::new` defaults, rebuilt from the layers' public parts.
struct Replay {
    told: ToldIndex,
    extractor: ModuleExtractor,
    engine: QueryEngine,
    transformer: Transformer,
    cache: HashMap<(IndividualName, Concept), bool>,
    programs: HashMap<BTreeSet<usize>, Option<Arc<HornProgram>>>,
    /// Horn and entailment-cache counters, as `Reasoner4` counts them.
    work: Stats,
}

/// `P ⊓ ¬Q` over atoms: the probes the Horn path answers.
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

impl Replay {
    fn new(text: &str, tr: &mut Tracer, n: &mut Counts) -> Replay {
        let kb = tr.span("parser4.parse_kb4", || {
            parse_kb4(text).expect("generated KB parses")
        });
        let induced = tr.span("transform.transform_kb", || transform_kb(&kb));
        n.four_valued_axioms += kb.len() as u64;
        n.classical_axioms += induced.len() as u64;
        let engine = tr.span("tableau.QueryEngine::with_config", || {
            QueryEngine::with_config(&induced, Config::default())
        });
        let told = tr.span("told.ToldIndex::build", || ToldIndex::build(&kb));
        let extractor = tr.span("dataflow.ModuleExtractor::new", || {
            ModuleExtractor::new(&kb)
        });
        Replay {
            told,
            extractor,
            engine,
            transformer: Transformer::memoized(),
            cache: HashMap::new(),
            programs: HashMap::new(),
            work: Stats::default(),
        }
    }

    /// Extract the module of `seed` and fetch (or compile) its program.
    fn program(
        &mut self,
        seed: &BTreeSet<SigAtom>,
        tr: &mut Tracer,
        n: &mut Counts,
    ) -> Option<Arc<HornProgram>> {
        let module = tr.span("dataflow.extract", || self.extractor.extract(seed));
        n.extracts += 1;
        n.module_axioms += module.axioms.len() as u64;
        let program = if let Some(p) = self.programs.get(&module.axioms) {
            self.work.horn_cache_hits += 1;
            p.clone()
        } else {
            let extractor = &self.extractor;
            let program = tr.span("horn.compile", || {
                horn::compile(module.axioms.iter().flat_map(|&i| extractor.images(i))).map(Arc::new)
            });
            self.work.horn_cache_misses += 1;
            self.work.horn_clauses += program.as_ref().map_or(0, |p| p.clause_count());
            self.programs.insert(module.axioms, program.clone());
            program
        };
        self.work.horn_fallbacks += u64::from(program.is_none());
        program
    }

    /// Count one Horn answer.
    fn answered(&mut self, rounds: u64) {
        self.work.horn_queries += 1;
        self.work.saturation_rounds += rounds;
    }

    fn instance(
        &mut self,
        a: &IndividualName,
        tc: &Concept,
        tr: &mut Tracer,
        n: &mut Counts,
    ) -> Result<bool, ReasonerError> {
        if let Concept::Atomic(goal) = tc {
            let mut seed = BTreeSet::new();
            dataflow::classical_concept_atoms(tc, &mut seed);
            seed.insert(SigAtom::Individual(a.clone()));
            if let Some(p) = self.program(&seed, tr, n) {
                let answer = tr.span("horn.is_instance", || p.is_instance(a, goal));
                self.answered(answer.rounds);
                return Ok(answer.holds);
            }
        }
        let engine = &self.engine;
        tr.span("tableau.is_instance_of", || engine.is_instance_of(a, tc))
    }

    fn concept_sat(
        &mut self,
        test: &Concept,
        tr: &mut Tracer,
        n: &mut Counts,
    ) -> Result<bool, ReasonerError> {
        if let Some((sub, sup)) = subsumption_probe(test) {
            let mut seed = BTreeSet::new();
            dataflow::classical_concept_atoms(test, &mut seed);
            if let Some(p) = self.program(&seed, tr, n) {
                let answer = tr.span("horn.subsumes", || p.subsumes(sub, sup));
                self.answered(answer.rounds);
                return Ok(!answer.holds);
            }
        }
        let engine = &self.engine;
        tr.span("tableau.is_concept_satisfiable", || {
            engine.is_concept_satisfiable(test)
        })
    }

    /// `has_positive_info` / `has_negative_info`.
    fn info(
        &mut self,
        a: &IndividualName,
        c: &Concept,
        positive: bool,
        tr: &mut Tracer,
        n: &mut Counts,
    ) -> Result<bool, ReasonerError> {
        n.checks += 1;
        if let Concept::Atomic(name) = c {
            let told = &self.told;
            let (pos, neg) = tr.span("told.verdict", || told.verdict(a, name));
            if (positive && pos) || (!positive && neg) {
                n.told += 1;
                return Ok(true);
            }
        }
        let tc = if positive {
            self.transformer.concept(c)
        } else {
            self.transformer.neg_concept(c)
        };
        let key = (a.clone(), tc);
        if let Some(&hit) = self.cache.get(&key) {
            self.work.entailment_cache_hits += 1;
            return Ok(hit);
        }
        self.work.entailment_cache_misses += 1;
        let answer = self.instance(a, &key.1, tr, n)?;
        self.cache.insert(key, answer);
        Ok(answer)
    }

    fn entails(
        &mut self,
        ax: &Axiom4,
        tr: &mut Tracer,
        n: &mut Counts,
    ) -> Result<bool, ReasonerError> {
        let Axiom4::ConceptInclusion(kind, c, d) = ax else {
            unreachable!("the workloads only ask concept inclusions");
        };
        n.checks += 1;
        if let (InclusionKind::Internal, Concept::Atomic(a), Concept::Atomic(b)) = (kind, c, d) {
            let told = &self.told;
            if tr.span("told.told_subsumes", || told.told_subsumes(a, b)) {
                n.told += 1;
                return Ok(true);
            }
        }
        let t = &mut self.transformer;
        let (cbar, neg_cbar, dbar, neg_dbar) = (
            t.concept(c),
            t.neg_concept(c),
            t.concept(d),
            t.neg_concept(d),
        );
        match kind {
            InclusionKind::Material => {
                Ok(!self.concept_sat(&neg_cbar.not().and(dbar.not()), tr, n)?)
            }
            InclusionKind::Internal => Ok(!self.concept_sat(&cbar.and(dbar.not()), tr, n)?),
            InclusionKind::Strong => Ok(!self.concept_sat(&cbar.and(dbar.not()), tr, n)?
                && !self.concept_sat(&neg_dbar.and(neg_cbar.not()), tr, n)?),
        }
    }

    fn ask(&mut self, op: &Op, tr: &mut Tracer, n: &mut Counts) -> Answer {
        tr.request();
        tr.enter("reasoner4.request");
        let a = match op {
            Op::Query(a, c) => self
                .info(a, c, true, tr, n)
                .and_then(|pos| {
                    Ok(fourval::TruthValue::from_bits(
                        pos,
                        self.info(a, c, false, tr, n)?,
                    ))
                })
                .map_or_else(|e| Answer::Error(e.to_string()), Answer::Truth),
            Op::Entails(ax) => self
                .entails(ax, tr, n)
                .map_or_else(|e| Answer::Error(e.to_string()), Answer::Holds),
        };
        tr.exit();
        a
    }
}

/// One replay pass; returns the answers, the wall time and the counts.
fn replay_pass(w: &InProc, tr: &mut Tracer) -> (Vec<Answer>, f64, Counts) {
    let mut n = Counts::default();
    let mut answers = Vec::new();
    let t0 = Instant::now();
    for case in &w.cases {
        let mut r = Replay::new(&case.text, tr, &mut n);
        for op in &case.ops {
            answers.push(r.ask(op, tr, &mut n));
        }
        let mut work = r.engine.stats();
        work.absorb(&r.work);
        n.work.absorb(&work);
        let muts: Vec<_> = w.mutations.iter().filter(|m| m.case == case.id).collect();
        if muts.is_empty() {
            continue;
        }
        let mut s = Session::new(&inproc::parse(case), Config::default());
        for m in muts {
            let ax = m.axiom();
            tr.request();
            let added = tr.span("incremental.add_axiom", || s.add_axiom(ax.clone()));
            tr.request();
            let removed = tr.span("incremental.retract_axiom", || s.retract_axiom(&ax));
            n.mutation_failures += u64::from(added.is_err() || !matches!(removed, Ok(true)));
        }
    }
    (answers, t0.elapsed().as_secs_f64(), n)
}

/// Layer metrics that are not measured on a workload read 0.
fn zero_fill(out: &mut Outcome) {
    for (name, _) in crate::report::per_layer() {
        out.metrics.entry(name.clone()).or_insert(0.0);
    }
}

/// Metrics common to both traced runs, from the program's counters.
fn counter_metrics(out: &mut Outcome, s: &Stats) {
    out.metric("horn.queries", s.horn_queries as f64);
    out.metric("horn.fallbacks", s.horn_fallbacks as f64);
    out.metric(
        "horn.fallback_ratio",
        ratio(s.horn_fallbacks, s.horn_queries + s.horn_fallbacks),
    );
    out.metric("horn.saturation_rounds", s.saturation_rounds as f64);
    out.metric("horn.clauses", s.horn_clauses as f64);
    out.metric("tableau.rule_applications", s.rule_applications as f64);
    out.metric("tableau.peak_graph_size", s.peak_graph_size as f64);
    out.metric("tableau.nodes_created", s.nodes_created as f64);
    out.metric("tableau.branches", s.branches as f64);
    out.metric("tableau.backjumps", s.backjumps as f64);
    out.metric(
        "cache.entailment_hit_ratio",
        ratio(
            s.entailment_cache_hits,
            s.entailment_cache_hits + s.entailment_cache_misses,
        ),
    );
    out.metric(
        "cache.engine_hit_ratio",
        ratio(
            s.engine_cache_hits,
            s.engine_cache_hits + s.engine_cache_misses,
        ),
    );
    out.metric(
        "cache.horn_hit_ratio",
        ratio(s.horn_cache_hits, s.horn_cache_hits + s.horn_cache_misses),
    );
}

/// The traced run of an in-process workload.
pub fn run_inproc(w: &InProc, clock: &RunClock) -> Outcome {
    // The program's own counters, from one untraced pass.
    let reference = inproc::run_pass(w);
    let mut failed = reference
        .answers
        .iter()
        .filter(|a| matches!(a, Answer::Error(_)))
        .count() as u64;
    failed += reference.mutation_failures;
    let mut attempted = reference.attempted;

    // Alternate untraced and traced replays until the window closes.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut traced: Option<(Tracer, Counts)> = None;
    let mut mismatches = 0;
    // Replay passes whose work counters differ from the reasoner's.
    let mut diverged = 0;
    while on.is_empty() || !clock.done() {
        let mut quiet = Tracer::new(false);
        let (_, wall, quiet_n) = replay_pass(w, &mut quiet);
        off.push(wall);
        let mut tr = Tracer::new(true);
        let (answers, wall, n) = replay_pass(w, &mut tr);
        on.push(wall);
        attempted += answers.len() as u64;
        failed += n.mutation_failures;
        mismatches += answers
            .iter()
            .zip(&reference.answers)
            .filter(|(a, b)| a != b)
            .count() as u64;
        diverged +=
            u64::from(quiet_n.work != reference.stats) + u64::from(n.work != reference.stats);
        traced.get_or_insert((tr, n));
    }
    mismatches += diverged;
    let rss = peak_rss_mb();
    let (tr, n) = traced.expect("at least one traced pass");
    // The reasoner's own answers still meet the reference.
    let oracle_mismatches = inproc::check_against_oracle(w, &reference.answers);
    failed += mismatches + oracle_mismatches;

    let setup_names = [
        "parser4.parse_kb4",
        "transform.transform_kb",
        "tableau.QueryEngine::with_config",
        "told.ToldIndex::build",
        "dataflow.ModuleExtractor::new",
    ];
    let tableau_names = ["tableau.is_instance_of", "tableau.is_concept_satisfiable"];
    let s = &reference.stats;
    let session = &reference.session_stats;
    let search_ms = tr.busy_ms(&tableau_names);

    let mut out = Outcome::new(attempted, failed, mismatches + oracle_mismatches == 0);
    out.metric("parser4.busy_ms", tr.busy_ms(&["parser4.parse_kb4"]));
    out.metric("transform.busy_ms", tr.busy_ms(&["transform.transform_kb"]));
    out.metric(
        "transform.share_of_setup",
        tr.busy_ms(&["transform.transform_kb"]) / tr.busy_ms(&setup_names),
    );
    out.metric(
        "transform.image_ratio",
        ratio(n.classical_axioms, n.four_valued_axioms),
    );
    out.metric(
        "dataflow.build_ms",
        tr.busy_ms(&["dataflow.ModuleExtractor::new"]),
    );
    out.metric(
        "dataflow.extract_us_p50",
        quantile(&tr.durations("dataflow.extract"), 0.5),
    );
    out.metric(
        "dataflow.module_axioms_mean",
        ratio(n.module_axioms, n.extracts),
    );
    out.metric("told.answer_ratio", ratio(n.told, n.checks));
    out.metric("horn.compile_ms", tr.busy_ms(&["horn.compile"]));
    let mut horn_us = tr.durations("horn.is_instance");
    horn_us.extend(tr.durations("horn.subsumes"));
    out.metric("horn.query_us_p50", quantile(&horn_us, 0.5));
    out.metric(
        "tableau.build_ms",
        tr.busy_ms(&["tableau.QueryEngine::with_config"]),
    );
    out.metric("tableau.search_ms", search_ms);
    out.metric(
        "tableau.us_per_rule",
        if n.work.rule_applications == 0 {
            0.0
        } else {
            search_ms * 1e3 / n.work.rule_applications as f64
        },
    );
    counter_metrics(&mut out, s);
    out.metric(
        "cache.engine_hit_ratio",
        ratio(
            session.engine_cache_hits,
            session.engine_cache_hits + session.engine_cache_misses,
        ),
    );
    out.metric(
        "reasoner4.self_us_p50",
        quantile(&tr.self_times("reasoner4.request"), 0.5),
    );
    out.metric(
        "incremental.add_us_p50",
        quantile(&tr.durations("incremental.add_axiom"), 0.5),
    );
    out.metric(
        "incremental.retract_us_p50",
        quantile(&tr.durations("incremental.retract_axiom"), 0.5),
    );
    out.metric(
        "incremental.invalidated_modules_per_mutation",
        ratio(session.invalidated_modules, session.mutations),
    );
    out.metric(
        "incremental.invalidated_entailments_per_mutation",
        ratio(session.invalidated_entailments, session.mutations),
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&on) / median(&off) - 1.0),
    );
    out.record("spans", tr.spans.len().into());
    zero_fill(&mut out);
    out.record("traced_passes", on.len().into());
    out.record("replay_wall_s", median(&on).into());
    out.record("untraced_replay_wall_s", median(&off).into());
    out.record(
        "reasoner4_wall_s",
        (reference.setup_s + reference.query_s + reference.mutation_s).into(),
    );
    out.record("replay_mismatches", (mismatches as i64).into());
    out.record("replay_diverged_passes", (diverged as i64).into());
    out.record("oracle_mismatches", (oracle_mismatches as i64).into());
    out.record("peak_rss_mb", rss.into());
    out.spans = tr.json_lines();
    out
}

// ---------------------------------------------------------------------
// serve_churn replay
// ---------------------------------------------------------------------

/// Set up a registry, with the layers a session builds internally also
/// called on their own so their cost shows.
fn churn_setup(script: &Script, tr: &mut Tracer, n: &mut Counts) -> Registry {
    let registry = Registry::new(Config::default());
    for t in &script.tenants {
        tr.request();
        let kb: KnowledgeBase4 =
            tr.span("parser4.parse_kb4", || parse_kb4(&t.text).expect("parses"));
        let induced = tr.span("transform.transform_kb", || transform_kb(&kb));
        n.four_valued_axioms += kb.len() as u64;
        n.classical_axioms += induced.len() as u64;
        tr.span("dataflow.ModuleExtractor::new", || {
            ModuleExtractor::new(&kb)
        });
        tr.span("told.ToldIndex::build", || ToldIndex::build(&kb));
        tr.span("incremental.register", || registry.register(&t.id, &kb));
    }
    registry
}

/// Replay a phase's requests in order; returns the wall time, the
/// requests that failed and each query's verdict.
fn churn_replay(
    registry: &Registry,
    reqs: &[Req],
    tr: &mut Tracer,
) -> (f64, u64, Vec<Option<String>>) {
    let t0 = Instant::now();
    let mut failed = 0;
    let mut verdicts = vec![None; reqs.len()];
    for (i, req) in reqs.iter().enumerate() {
        tr.request();
        let tenant = format!("tenant{}", req.tenant);
        match req.kind {
            Kind::Query => {
                let r = Request {
                    tenant,
                    line: req.line.clone(),
                    data_roles: BTreeSet::new(),
                };
                let reply = tr.span("serve.execute", || execute(registry, &r));
                failed += u64::from(reply.is_err());
                verdicts[i] = reply
                    .ok()
                    .and_then(|v| v.get("verdict").and_then(Value::as_str).map(String::from));
            }
            Kind::Add | Kind::Retract => {
                let (_, stmt) = req.line.split_once(' ').expect("verb and axiom");
                let kb = tr.span("parser4.parse_kb4", || parse_kb4(stmt).expect("parses"));
                let ax = kb.axioms()[0].clone();
                let done = if req.kind == Kind::Add {
                    tr.span("incremental.add_axiom", || {
                        registry.write(&tenant, |s| s.add_axiom(ax).is_ok())
                    })
                } else {
                    tr.span("incremental.retract_axiom", || {
                        registry.write(&tenant, |s| matches!(s.retract_axiom(&ax), Ok(true)))
                    })
                };
                failed += u64::from(done != Some(true));
            }
        }
    }
    (t0.elapsed().as_secs_f64(), failed, verdicts)
}

/// Sum of every tenant's session counters.
fn tenant_stats(registry: &Registry) -> Stats {
    let mut s = Stats::default();
    for id in registry.tenant_ids() {
        if let Some(t) = registry.read(&id, Session::stats) {
            s.absorb(&t);
        }
    }
    s
}

/// The traced run of `serve_churn`.
pub fn run_churn(script: &Script, clock: &RunClock) -> Outcome {
    let mut live = script.clone();
    let registry = churn::registry(&live);
    let (server, mut conns) = churn::serve(&registry);
    let (reqs, logs, wall) = churn::phase(
        &mut conns,
        &mut live,
        churn::FIXED_RATE,
        clock.window().mul_f64(0.5),
    );
    let client_q = churn::latencies(&reqs, &logs, Kind::Query);
    let lateness: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.lateness_us.iter().copied())
        .collect();
    let stats = server.stats();
    let queue_wait_peak = stats
        .peak_queue_wait_us
        .load(std::sync::atomic::Ordering::Relaxed);
    let shed = stats.shed.load(std::sync::atomic::Ordering::Relaxed);
    let server_failed = stats.failed.load(std::sync::atomic::Ordering::Relaxed);
    let shared = registry.shared().stats();
    let failed = churn::failures(&logs);
    churn::tear_down(conns, server);
    drop(registry);

    let mut quiet = Tracer::new(false);
    let quiet_registry = churn_setup(script, &mut quiet, &mut Counts::default());
    let (off, quiet_failed, _) = churn_replay(&quiet_registry, &reqs, &mut quiet);
    drop(quiet_registry);
    let mut tr = Tracer::new(true);
    let mut n = Counts::default();
    let registry = churn_setup(script, &mut tr, &mut n);
    let parse_ms = tr.busy_ms(&["parser4.parse_kb4"]);
    let transform_ms = tr.busy_ms(&["transform.transform_kb"]);
    let dataflow_ms = tr.busy_ms(&["dataflow.ModuleExtractor::new"]);
    let setup_total = tr.busy_ms(&[
        "parser4.parse_kb4",
        "transform.transform_kb",
        "dataflow.ModuleExtractor::new",
        "told.ToldIndex::build",
        "incremental.register",
    ]);
    let (on, traced_failed, replayed) = churn_replay(&registry, &reqs, &mut tr);
    // The replay must answer as the server did, and sampled server
    // answers must meet a rebuilt reasoner.
    let replay_mismatches = logs
        .iter()
        .flat_map(|l| &l.done)
        .filter(|d| {
            let served = d.reply.get("verdict").and_then(Value::as_str);
            served.is_some() && served != replayed[d.req].as_deref()
        })
        .count() as u64;
    let (checked, oracle_mismatches) = churn::check_probes(&reqs, &logs);
    let rss = peak_rss_mb();
    let s = tenant_stats(&registry);

    let attempted = reqs.len() as u64 * 3;
    let mismatches = replay_mismatches + oracle_mismatches;
    let failed = failed + quiet_failed + traced_failed + mismatches;
    let mut out = Outcome::new(attempted, failed, mismatches == 0);
    out.metric("parser4.busy_ms", parse_ms);
    out.metric("transform.busy_ms", transform_ms);
    out.metric("transform.share_of_setup", transform_ms / setup_total);
    out.metric(
        "transform.image_ratio",
        ratio(n.classical_axioms, n.four_valued_axioms),
    );
    out.metric("dataflow.build_ms", dataflow_ms);
    // Sessions extract modules internally: the program's own timer gives
    // the mean per scoped query.
    out.metric(
        "dataflow.extract_us_p50",
        ratio(s.module_extraction_ns, s.scoped_queries) / 1e3,
    );
    out.metric(
        "dataflow.module_axioms_mean",
        ratio(s.module_axioms, s.scoped_queries),
    );
    counter_metrics(&mut out, &s);
    out.metric(
        "cache.shared_hit_ratio",
        registry.shared().stats().hit_ratio(),
    );
    let exec_us = tr.durations("serve.execute");
    out.metric(
        "serve.overhead_us_p50",
        quantile(&client_q, 0.5) - quantile(&exec_us, 0.5),
    );
    out.metric("serve.queue_wait_us_peak", queue_wait_peak as f64);
    out.metric("serve.shed", shed as f64);
    out.metric("serve.failed", server_failed as f64);
    out.metric(
        "incremental.add_us_p50",
        quantile(&tr.durations("incremental.add_axiom"), 0.5),
    );
    out.metric(
        "incremental.retract_us_p50",
        quantile(&tr.durations("incremental.retract_axiom"), 0.5),
    );
    out.metric(
        "incremental.invalidated_modules_per_mutation",
        ratio(s.invalidated_modules, s.mutations),
    );
    out.metric(
        "incremental.invalidated_entailments_per_mutation",
        ratio(s.invalidated_entailments, s.mutations),
    );
    out.metric("trace.overhead_pct", 100.0 * (on / off - 1.0));
    out.record("spans", tr.spans.len().into());
    zero_fill(&mut out);
    // The generator fell behind when its sends left late as a rule, or
    // the answers trailed the phase by more than a second.
    let behind = quantile(&lateness, 0.5) > 1000.0
        || wall > clock.window().mul_f64(0.5) + std::time::Duration::from_secs(1);
    if behind {
        out.invalid = Some(format!(
            "load generator fell behind: send lateness p50 {:.0} us, phase {:.2} s",
            quantile(&lateness, 0.5),
            wall.as_secs_f64()
        ));
    }
    out.record("offered_rate", churn::FIXED_RATE.into());
    out.record("tcp_phase_s", wall.as_secs_f64().into());
    out.record("generator_lateness_us_p50", quantile(&lateness, 0.5).into());
    out.record(
        "generator_lateness_us_p99",
        quantile(&lateness, 0.99).into(),
    );
    out.record("client_query_p99_us", quantile(&client_q, 0.99).into());
    out.record("client_query_p50_us", quantile(&client_q, 0.5).into());
    out.record("execute_query_p50_us", quantile(&exec_us, 0.5).into());
    out.record("replayed_requests", reqs.len().into());
    out.record("replay_mismatches", (replay_mismatches as i64).into());
    out.record("oracle_checked", (checked as i64).into());
    out.record("oracle_mismatches", (oracle_mismatches as i64).into());
    out.record("shared_hit_ratio_tcp", shared.hit_ratio().into());
    out.record("peak_rss_mb", rss.into());
    out.spans = tr.json_lines();
    out
}
