//! `serve_churn`: the multi-tenant serving stack over a `tenant_fleet`
//! (half the tenants share a core island), with reads beside writes:
//! about 70% of operations are queries (told atomic, compound, negated)
//! and 30% are add/retract pairs of fresh assertions.
//!
//! The end-to-end run drives `serve::execute` on a `Registry` from two
//! caller threads, closed loop, each owning the tenants of one
//! connection — the registry, sessions, shared module cache and
//! incremental invalidation, timed per request. The TCP front end
//! (`serve::Server` with `ServeOptions::default()`: line protocol,
//! admission queue, worker hand-off, reply write) is measured by the
//! traced run, open loop at seeded Poisson arrival times over two
//! connections, against the same requests. On a 2-vCPU shared host the
//! TCP latency tail is set by thread wake-up delay: the spread of query
//! p99 over five runs of the same code (interquartile range over median)
//! was 0.8–0.9, several times that of the in-process figures.

use crate::gen::Sizes;
use crate::report::{Outcome, RunClock};
use crate::util::{middle_mean, peak_rss_mb, quantile, ratio, unit, us};
use dl::name::IndividualName;
use dl::Concept;
use jsonio::Value;
use ontogen::tenant::{tenant_fleet, TenantFleetParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use shoin4::serve::{execute, truth_token, Registry, Request, ServeOptions, Server};
use shoin4::{parse_kb4, Axiom4, KnowledgeBase4, Reasoner4};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tableau::Config;

/// Connections (and caller threads); tenant `t` belongs to `t % 2`.
pub const CONNECTIONS: usize = 2;
/// Offered rate of the traced run's TCP phase, operations per second.
pub const FIXED_RATE: f64 = 3000.0;
/// Share of operations that are add/retract.
const MUTATION_SHARE: f64 = 0.3;

/// What a request line does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Add,
    Retract,
}

/// One scripted request.
#[derive(Debug, Clone)]
pub struct Req {
    pub tenant: usize,
    pub line: String,
    pub kind: Kind,
    /// For queries: the tenant's axioms when the query runs, plus the
    /// query itself, so a reference can be rebuilt afterwards.
    pub probe: Option<(Arc<Vec<Axiom4>>, IndividualName, Concept)>,
}

/// One tenant of the fleet.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub id: String,
    pub text: String,
    individuals: Vec<IndividualName>,
    concepts: Vec<Concept>,
    told: Vec<(IndividualName, Concept)>,
    /// The fresh assertions this tenant's writes toggle.
    fresh: Vec<Axiom4>,
}

/// Fresh assertions per tenant. Writes toggle facts from a small pool,
/// so the modules they create — and the engines the shared cache keeps
/// for them — stay bounded as the run goes on.
const FRESH_PER_TENANT: usize = 4;

/// The fleet and a seeded, unbounded request generator over it.
#[derive(Clone)]
pub struct Script {
    pub tenants: Vec<Tenant>,
    rng: StdRng,
    /// Each tenant's live axioms, as the server holds them.
    axioms: Vec<Arc<Vec<Axiom4>>>,
    /// A tenant's added-but-not-yet-retracted fresh assertion.
    pending: Vec<Option<Axiom4>>,
    /// The tenants requests are drawn from.
    active: Vec<usize>,
    /// One query in this many is sampled for the reference check.
    oracle_every: usize,
    /// Requests per caller in one window of the end-to-end run.
    window_ops: usize,
}

/// Build the `serve_churn` fleet and generator for `seed`.
pub fn script(seed: u64, sizes: &Sizes) -> Script {
    let fleet = tenant_fleet(&TenantFleetParams {
        seed: crate::gen::STRUCTURE_SEED,
        tenants: sizes.tenants,
        shared_core_rate: 0.5,
        core_tbox: 8,
        core_abox: 12,
        private_islands: 2,
        island_tbox: 6,
        island_abox: 8,
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_7572_6e5f_7331);
    let mut tenants = Vec::new();
    let mut axioms = Vec::new();
    for (i, (id, kb)) in fleet.tenants.iter().enumerate() {
        // The load generator selects tenants by index.
        assert_eq!(*id, format!("tenant{i}"));
        let sig = kb.signature();
        let told = kb
            .axioms()
            .iter()
            .filter_map(|ax| match ax {
                Axiom4::ConceptAssertion(a, c @ Concept::Atomic(_)) => Some((a.clone(), c.clone())),
                _ => None,
            })
            .collect();
        let mut tenant = Tenant {
            id: id.clone(),
            text: crate::gen::shuffled_text(kb, &mut rng),
            individuals: sig.individuals.iter().cloned().collect(),
            concepts: sig
                .concepts
                .iter()
                .map(|c| Concept::Atomic(c.clone()))
                .collect(),
            told,
            fresh: Vec::new(),
        };
        while tenant.fresh.len() < FRESH_PER_TENANT {
            let a = tenant
                .individuals
                .choose(&mut rng)
                .expect("inhabited")
                .clone();
            let c = same_island(&tenant, &mut rng, island(a.as_str()));
            let ax = Axiom4::ConceptAssertion(a, c);
            if !kb.axioms().contains(&ax) && !tenant.fresh.contains(&ax) {
                tenant.fresh.push(ax);
            }
        }
        tenants.push(tenant);
        axioms.push(Arc::new(kb.axioms().to_vec()));
    }
    Script {
        active: (0..tenants.len()).collect(),
        oracle_every: sizes.oracle_every,
        window_ops: sizes.window_ops,
        pending: vec![None; tenants.len()],
        tenants,
        rng,
        axioms,
    }
}

impl Script {
    /// The generator for the tenants of connection `c` alone in window
    /// `k`, seeded apart from the other connections and windows.
    pub fn partition(&self, c: usize, k: u64) -> Script {
        let mut part = self.clone();
        part.active.retain(|&t| conn_of(t) == c);
        let base = self.rng.clone().next_u64();
        let salt = (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (k + 1).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        part.rng = StdRng::seed_from_u64(base ^ salt);
        part
    }

    /// The next request. When `probe` is set, one query in
    /// `Sizes::oracle_every` carries its reference inputs.
    pub fn next(&mut self, probe: bool) -> Req {
        let t = *self.active.choose(&mut self.rng).expect("tenants");
        let tenant = &self.tenants[t];
        if unit(&mut self.rng) < MUTATION_SHARE {
            if let Some(ax) = self.pending[t].take() {
                let axioms = Arc::make_mut(&mut self.axioms[t]);
                let at = axioms
                    .iter()
                    .rposition(|x| *x == ax)
                    .expect("pending axiom is live");
                axioms.remove(at);
                return Req {
                    tenant: t,
                    line: format!("retract {}", shoin4::printer4::print_axiom4(&ax)),
                    kind: Kind::Retract,
                    probe: None,
                };
            }
            let ax = tenant
                .fresh
                .choose(&mut self.rng)
                .expect("fresh pool")
                .clone();
            Arc::make_mut(&mut self.axioms[t]).push(ax.clone());
            self.pending[t] = Some(ax.clone());
            return Req {
                tenant: t,
                line: format!("add {}", shoin4::printer4::print_axiom4(&ax)),
                kind: Kind::Add,
                probe: None,
            };
        }
        let (a, c) = match self.rng.gen_range(0..3u32) {
            0 => tenant
                .told
                .choose(&mut self.rng)
                .expect("told facts")
                .clone(),
            1 => {
                let a = tenant
                    .individuals
                    .choose(&mut self.rng)
                    .expect("inhabited")
                    .clone();
                let c = same_island(tenant, &mut self.rng, island(a.as_str()));
                let d = same_island(tenant, &mut self.rng, island(a.as_str()));
                (a, c.and(d))
            }
            _ => {
                let a = tenant.individuals.choose(&mut self.rng).expect("inhabited");
                let c = tenant.concepts.choose(&mut self.rng).expect("concepts");
                (a.clone(), c.clone().not())
            }
        };
        let sampled = self.rng.gen_range(0..self.oracle_every) == 0;
        Req {
            tenant: t,
            line: format!("query {a} {c}"),
            kind: Kind::Query,
            probe: (probe && sampled).then(|| (Arc::clone(&self.axioms[t]), a, c)),
        }
    }
}

/// The island prefix of a fleet name (`T3I1x2` → `T3I1`, `CoreC4` →
/// `Core`).
fn island(name: &str) -> &str {
    let cut = name.rfind(['x', 'C']).unwrap_or(name.len());
    &name[..cut]
}

/// A concept of the tenant's island `prefix`. Requests stay within one
/// island, so the modules they touch — and the engines the shared cache
/// keeps for them — stay bounded as the run goes on.
fn same_island(tenant: &Tenant, rng: &mut StdRng, prefix: &str) -> Concept {
    let pool: Vec<&Concept> = tenant
        .concepts
        .iter()
        .filter(|c| matches!(c, Concept::Atomic(n) if island(n.as_str()) == prefix))
        .collect();
    (*pool.choose(rng).expect("every island has concepts")).clone()
}

/// Which connection serves a tenant.
pub fn conn_of(tenant: usize) -> usize {
    tenant % CONNECTIONS
}

/// A client connection and the tenant it has selected.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    tenant: Option<usize>,
    partial: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            tenant: None,
            partial: String::new(),
        })
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("server accepts requests");
    }

    /// Read one reply, waiting at most `wait`. `None` on timeout.
    fn recv(&mut self, wait: Duration) -> Option<Value> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(wait.max(Duration::from_micros(50))))
            .expect("read timeout");
        match self.reader.read_line(&mut self.partial) {
            Ok(0) => panic!("server closed the connection"),
            Ok(_) if self.partial.ends_with('\n') => {
                let line = std::mem::take(&mut self.partial);
                Some(Value::parse(&line).expect("replies are JSON"))
            }
            Ok(_) => None,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
            Err(e) => panic!("reading a reply: {e}"),
        }
    }
}

/// One answered request of a phase.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index into the phase's request list.
    pub req: usize,
    /// Scheduled send time, from the start of the phase.
    pub due: Duration,
    /// From the send to the reply. The generator never waits for the
    /// server before sending, so a server stall cannot postpone a send
    /// (no coordinated omission); how late the generator's own thread
    /// woke for a send is recorded apart, as its lateness.
    pub latency_us: f64,
    pub reply: Value,
}

/// What one connection saw during a phase.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub done: Vec<Done>,
    /// How late each send left against its schedule.
    pub lateness_us: Vec<f64>,
}

/// Drive one connection through its share of an open-loop phase: send
/// each request at its scheduled offset, read replies in between.
fn drive(conn: &mut Conn, reqs: &[(usize, &Req, Duration)], t0: Instant) -> ConnLog {
    enum Expect {
        Switch,
        Reply(usize, Duration, Instant),
    }
    let mut log = ConnLog::default();
    let mut pending = std::collections::VecDeque::new();
    let mut next = 0;
    while next < reqs.len() || !pending.is_empty() {
        let now = Instant::now();
        while next < reqs.len() && t0 + reqs[next].2 <= now {
            let (idx, req, offset) = reqs[next];
            let due = t0 + offset;
            if conn.tenant != Some(req.tenant) {
                conn.send(&format!("tenant tenant{}", req.tenant));
                pending.push_back(Expect::Switch);
                conn.tenant = Some(req.tenant);
            }
            let sent = Instant::now();
            conn.send(&req.line);
            log.lateness_us
                .push(us(sent.saturating_duration_since(due)));
            pending.push_back(Expect::Reply(idx, due.saturating_duration_since(t0), sent));
            next += 1;
        }
        let wait = if next < reqs.len() {
            (t0 + reqs[next].2).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(200)
        };
        if pending.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        if let Some(reply) = conn.recv(wait) {
            match pending.pop_front().expect("a reply was expected") {
                Expect::Switch => {}
                Expect::Reply(req, due, sent) => log.done.push(Done {
                    req,
                    due,
                    latency_us: us(sent.elapsed()),
                    reply,
                }),
            }
        }
    }
    log
}

/// Run an open-loop phase over the connections: seeded Poisson arrivals
/// at `rate` for `duration`. Returns the requests, the per-connection
/// logs and the wall time.
pub fn phase(
    conns: &mut [Conn],
    script: &mut Script,
    rate: f64,
    duration: Duration,
) -> (Vec<Req>, Vec<ConnLog>, Duration) {
    let mut reqs = Vec::new();
    let mut offsets = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - unit(&mut script.rng)).ln() / rate;
        if t >= duration.as_secs_f64() {
            break;
        }
        offsets.push(Duration::from_secs_f64(t));
        reqs.push(script.next(true));
    }
    let per_conn: Vec<Vec<(usize, &Req, Duration)>> = (0..conns.len())
        .map(|c| {
            reqs.iter()
                .zip(&offsets)
                .enumerate()
                .filter(|(_, (r, _))| conn_of(r.tenant) == c)
                .map(|(i, (r, o))| (i, r, *o))
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&per_conn)
            .map(|(conn, mine)| s.spawn(move || drive(conn, mine, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect::<Vec<_>>()
    });
    (reqs, logs, t0.elapsed())
}

/// Latencies of one kind of request in a phase.
pub fn latencies(reqs: &[Req], logs: &[ConnLog], kind: Kind) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| &l.done)
        .filter(|d| reqs[d.req].kind == kind)
        .map(|d| d.latency_us)
        .collect()
}

/// Replies that are not `ok`.
pub fn failures(logs: &[ConnLog]) -> u64 {
    logs.iter()
        .flat_map(|l| &l.done)
        .filter(|d| d.reply.get("ok").and_then(Value::as_bool) != Some(true))
        .count() as u64
}

/// Check the probed queries of a phase against a `Reasoner4` rebuilt
/// over the tenant's axioms at that point. Returns (checked, mismatches).
pub fn check_probes(reqs: &[Req], logs: &[ConnLog]) -> (u64, u64) {
    let mut checked = 0;
    let mut mismatches = 0;
    for d in logs.iter().flat_map(|l| &l.done) {
        let Some((axioms, a, c)) = &reqs[d.req].probe else {
            continue;
        };
        checked += 1;
        let kb = KnowledgeBase4::from_axioms(axioms.iter().cloned());
        let want = Reasoner4::new(&kb).query(a, c).map(truth_token);
        let got = d.reply.get("verdict").and_then(Value::as_str);
        if want.ok() != got {
            mismatches += 1;
        }
    }
    (checked, mismatches)
}

/// Parse every tenant and register it: the set-up `setup_s` times.
pub fn registry(script: &Script) -> Arc<Registry> {
    let registry = Arc::new(Registry::new(Config::default()));
    for t in &script.tenants {
        let kb = parse_kb4(&t.text).expect("generated KB text parses");
        assert!(registry.register(&t.id, &kb), "tenant ids are unique");
    }
    registry
}

/// Bind a TCP server with `ServeOptions::default()` over `registry` and
/// open the load generator's connections.
pub fn serve(registry: &Arc<Registry>) -> (Server, Vec<Conn>) {
    let server = Server::bind("127.0.0.1:0", Arc::clone(registry), ServeOptions::default())
        .expect("bind a loopback port");
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(server.local_addr()).expect("connect to the server"))
        .collect();
    (server, conns)
}

/// Close the connections and stop the server, waiting for its threads.
pub fn tear_down(mut conns: Vec<Conn>, server: Server) {
    for c in &mut conns {
        c.send("quit");
        while c.recv(Duration::from_millis(200)).is_none() {}
    }
    drop(conns);
    server.shutdown();
}

/// Sampled queries kept per caller for the reference check.
const MAX_PROBES: usize = 128;

/// One caller's samples in one window.
#[derive(Default)]
struct Window {
    queries: Vec<f64>,
    mutations: Vec<f64>,
    /// Wall time of the timed requests, seconds.
    wall_s: f64,
}

/// The figures of one window; its samples are dropped once they are
/// taken, so memory does not grow with the number of windows.
struct Figures {
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
    /// The figures of the callers' windows together; each rate is a
    /// caller's over its own timed span, summed over callers.
    fn of(parts: Vec<Window>) -> Figures {
        let (mut queries, mut mutations) = (Vec::new(), Vec::new());
        let (mut queries_per_s, mut max_rate_rps) = (0.0, 0.0);
        for p in parts {
            queries_per_s += p.queries.len() as f64 / p.wall_s;
            max_rate_rps += (p.queries.len() + p.mutations.len()) as f64 / p.wall_s;
            queries.extend(p.queries);
            mutations.extend(p.mutations);
        }
        Figures {
            queries_per_s,
            query_p50_us: quantile(&queries, 0.5),
            query_p99_us: quantile(&queries, 0.99),
            mutation_p50_us: quantile(&mutations, 0.5),
            mutation_p99_us: quantile(&mutations, 0.99),
            max_rate_rps,
            queries: queries.len(),
            mutations: mutations.len(),
        }
    }
}

/// A sampled query and the verdict it got, checked after the run.
struct Probe {
    axioms: Arc<Vec<Axiom4>>,
    ind: IndividualName,
    concept: Concept,
    verdict: Option<String>,
}

/// What one caller thread keeps across windows. Replies are dropped as
/// soon as they are counted: only latencies and a bounded sample of
/// queries outlive their request.
#[derive(Default)]
struct Caller {
    attempted: u64,
    failed: u64,
    probes: Vec<Probe>,
}

impl Caller {
    /// Call `serve::execute` on `script`'s next `ops` requests, closed
    /// loop; push each latency into `w`, if given.
    fn call(
        &mut self,
        registry: &Registry,
        script: &mut Script,
        ops: usize,
        mut w: Option<&mut Window>,
    ) {
        for _ in 0..ops {
            let req = script.next(self.probes.len() < MAX_PROBES);
            let request = Request {
                tenant: script.tenants[req.tenant].id.clone(),
                line: req.line,
                data_roles: BTreeSet::new(),
            };
            let start = Instant::now();
            let reply = execute(registry, &request);
            let latency_us = us(start.elapsed());
            match (&mut w, req.kind) {
                (None, _) => {}
                (Some(w), Kind::Query) => w.queries.push(latency_us),
                (Some(w), Kind::Add | Kind::Retract) => w.mutations.push(latency_us),
            }
            self.attempted += 1;
            let reply = match reply {
                Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => v,
                _ => {
                    self.failed += 1;
                    continue;
                }
            };
            if let Some((axioms, ind, concept)) = req.probe {
                let verdict = reply
                    .get("verdict")
                    .and_then(Value::as_str)
                    .map(String::from);
                self.probes.push(Probe {
                    axioms,
                    ind,
                    concept,
                    verdict,
                });
            }
        }
    }
}

/// The untraced end-to-end run, in windows until the run's time is up
/// (at least two). Each window times the set-up of a fresh registry,
/// then serves requests on it from [`CONNECTIONS`] caller threads,
/// closed loop: a fixed number to warm its caches, then the same number
/// again, timed. The program's state grows with the requests served
/// (its caches, and the extractor slots each mutation leaves behind), so
/// windows of fixed work on fresh state keep what a window measures —
/// its latencies and the process's peak memory — from depending on how
/// many requests the program got through.
pub fn run(script: &Script, clock: &RunClock) -> Outcome {
    let mut callers: Vec<Caller> = (0..CONNECTIONS).map(|_| Caller::default()).collect();
    let mut setups = Vec::new();
    let mut windows: Vec<Figures> = Vec::new();
    let mut live: Option<Arc<Registry>> = None;
    while windows.len() < 2 || !clock.done() {
        drop(live.take());
        let t = Instant::now();
        let fresh = registry(script);
        setups.push(t.elapsed().as_secs_f64());
        let k = windows.len() as u64;
        let parts: Vec<Window> = std::thread::scope(|s| {
            let handles: Vec<_> = callers
                .iter_mut()
                .enumerate()
                .map(|(c, caller)| {
                    let (fresh, mut part) = (&fresh, script.partition(c, k));
                    s.spawn(move || {
                        let mut w = Window::default();
                        caller.call(fresh, &mut part, script.window_ops, None);
                        let t0 = Instant::now();
                        caller.call(fresh, &mut part, script.window_ops, Some(&mut w));
                        w.wall_s = t0.elapsed().as_secs_f64();
                        w
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        windows.push(Figures::of(parts));
        live = Some(fresh);
    }
    let rss = peak_rss_mb();
    let shared = live.expect("at least one window").shared().stats();

    let (mut attempted, mut failed, mut checked, mut mismatches) = (0u64, 0u64, 0u64, 0u64);
    for caller in &callers {
        attempted += caller.attempted;
        failed += caller.failed;
        for p in &caller.probes {
            checked += 1;
            let kb = KnowledgeBase4::from_axioms(p.axioms.iter().cloned());
            let want = Reasoner4::new(&kb)
                .query(&p.ind, &p.concept)
                .map(truth_token);
            mismatches += u64::from(want.ok() != p.verdict.as_deref());
        }
    }
    failed += mismatches;

    let per = |f: &dyn Fn(&Figures) -> f64| middle_mean(&windows.iter().map(f).collect::<Vec<_>>());
    let queries: usize = windows.iter().map(|w| w.queries).sum();
    let mutations: usize = windows.iter().map(|w| w.mutations).sum();
    let mut out = Outcome::new(attempted, failed, mismatches == 0);
    out.metric("setup_s", middle_mean(&setups));
    out.metric("queries_per_s", per(&|w| w.queries_per_s));
    out.metric("query_p50_us", per(&|w| w.query_p50_us));
    out.metric("query_p99_us", per(&|w| w.query_p99_us));
    out.metric("mutation_p50_us", per(&|w| w.mutation_p50_us));
    out.metric("mutation_p99_us", per(&|w| w.mutation_p99_us));
    out.metric("max_rate_rps", per(&|w| w.max_rate_rps));
    out.metric("success_ratio", 1.0 - ratio(failed, attempted));
    out.metric("peak_rss_mb", rss);
    out.record("query_samples", queries.into());
    out.record("mutation_samples", mutations.into());
    out.record("windows", windows.len().into());
    out.record(
        "timed_ops_per_window",
        (script.window_ops * CONNECTIONS).into(),
    );
    out.record("caller_threads", CONNECTIONS.into());
    out.record("oracle_checked", (checked as i64).into());
    out.record("oracle_mismatches", (mismatches as i64).into());
    out.record("shared_hit_ratio", shared.hit_ratio().into());
    out.record("shared_engines", shared.engines.into());
    out
}
