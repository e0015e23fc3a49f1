//! `evidence-sessions`: evidence-pinned sessions on the Andes stand-in,
//! whose calibrated slab is larger than a core's L2. Each session pins
//! three variables with `open_session`, then streams uniform targets.
//! Sessions bypass the answer cache, deduplication and shortcuts, so the
//! work is evidence restriction, plain message passing and the `pgm`
//! kernels: kernel and propagation gains show here, cache and shortcut
//! gains do not.

use crate::common::*;
use crate::rng::Fnv;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Report;
use peanut_core::{Materialization, ServeRequest};
use peanut_datasets::dataset;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::{BayesianNetwork, Potential};
use peanut_serving::{ServingConfig, ServingEngine};
use peanut_workload::{
    evidence_contexts, uniform_queries, DriftSchedule, QuerySpec, Session, SessionStream,
};
use std::sync::Arc;
use std::time::Instant;

const DATASET: &str = "Andes";
const EVIDENCE_VARS: usize = 3;
const TARGETS_PER_SESSION: usize = 8;
const CONTEXTS: usize = 512;
const TARGET_POOL: usize = 4_096;
/// Target sizes: one or two variables. With the paper's 1–5, an answer
/// took 8.6 ms at the median and 60 ms at p99, a run served only a few
/// hundred sessions, and its figures moved by up to a third from seed to
/// seed.
const TARGET_SPEC: QuerySpec = QuerySpec {
    min_vars: 1,
    max_vars: 2,
};
/// Sessions generated; the load loops wrap around them.
const SESSIONS: usize = 2_048;
/// Every this-many-th session is checked against the plain tree.
const SAMPLE_EVERY: usize = 17;
const SAMPLE_CAP: usize = 8;
/// Sessions replayed through the lower layers.
const REPLAY_CAP: usize = 24;

fn inputs(tree: &JunctionTree, seed: u64) -> Vec<Session> {
    let domain = tree.domain();
    let contexts = evidence_contexts(domain, CONTEXTS, EVIDENCE_VARS, sub_seed(WORKLOAD_SEED, 1));
    let targets = uniform_queries(domain, TARGET_POOL, TARGET_SPEC, sub_seed(WORKLOAD_SEED, 2));
    SessionStream::new(
        &contexts,
        &contexts,
        &targets,
        TARGETS_PER_SESSION,
        DriftSchedule::Constant(1.0),
        sub_seed(seed, 3),
    )
    .take(SESSIONS)
    .collect()
}

fn fingerprint(tree: &JunctionTree, slab: usize, seed: u64) -> Fingerprint {
    let mut h = Fnv::new();
    for s in inputs(tree, seed) {
        for r in s.requests() {
            hash_request(&mut h, &r);
        }
    }
    Fingerprint {
        structure: structure(tree, slab),
        stream_hash: h.finish(),
    }
}

#[derive(Default)]
struct Setup {
    total_s: f64,
    calibrate_ms: f64,
}

/// Builds the model and leaks it: the serving engine borrows the tree for
/// the rest of the process.
fn model() -> Result<&'static (BayesianNetwork, JunctionTree), String> {
    let bn = dataset(DATASET)
        .ok_or("dataset missing")?
        .build()
        .map_err(|e| e.to_string())?;
    let tree = build_junction_tree(&bn).map_err(|e| e.to_string())?;
    Ok(Box::leak(Box::new((bn, tree))))
}

/// One full set-up: network generation, junction tree, calibration and
/// engine construction (no materialization: sessions answer without
/// shortcuts).
fn setup() -> Result<(ServingEngine<'static>, Setup), String> {
    let start = Instant::now();
    let (bn, tree) = model()?;
    let t = Instant::now();
    let engine = QueryEngine::numeric(tree, bn).map_err(|e| e.to_string())?;
    let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;
    let cfg = ServingConfig::default().with_workers(WORKERS);
    let serving = ServingEngine::new(engine, Materialization::default(), cfg);
    serving.warm_pool();
    Ok((
        serving,
        Setup {
            total_s: start.elapsed().as_secs_f64(),
            calibrate_ms,
        },
    ))
}

struct SessionLoad<'a> {
    serving: &'a ServingEngine<'static>,
    sessions: &'a [Session],
    gate: Gate,
    counters: Counters,
    open_ms: Vec<f64>,
    answer_us: Vec<f64>,
    /// Sampled sessions' answers, copied so the check keeps no served
    /// buffer alive.
    samples: Vec<(usize, Vec<Potential>)>,
}

impl Load for SessionLoad<'_> {
    fn requests_in(&self, unit: usize) -> usize {
        self.sessions[unit % self.sessions.len()].targets.len()
    }

    fn mean_requests(&self) -> f64 {
        TARGETS_PER_SESSION as f64
    }

    fn dispatch(&mut self, units: &[usize], tr: &mut Tracer, done: &mut Vec<Instant>) {
        let serving = self.serving;
        for &u in units {
            let k = u % self.sessions.len();
            let s = &self.sessions[k];
            let t = Instant::now();
            let opened = tr.call("open_session", u as u64, || {
                serving.open_session(s.evidence.clone())
            });
            self.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let session = match opened {
                Ok(session) => session,
                Err(e) => {
                    let what = format!("session {k}: open failed: {e}");
                    self.gate.unserved(s.targets.len() as u64, what);
                    done.push(Instant::now());
                    continue;
                }
            };
            let (outcomes, stats) = tr.call("session.serve_batch", u as u64, || {
                session.serve_batch(&s.targets)
            });
            done.push(Instant::now());
            drop(session);
            self.counters.add_batch(
                stats.queries,
                stats.unique,
                stats.cache_hits,
                stats.stale_hits,
                stats.wall,
            );
            let mut answers = Vec::new();
            for (i, o) in outcomes.iter().enumerate() {
                if let Some(a) = self.gate.outcome(o, || format!("session {k} target {i}")) {
                    self.answer_us.push(a.service_time.as_secs_f64() * 1e6);
                    answers.push(Arc::clone(&a.answer));
                }
            }
            self.counters.add_compute(answers.iter());
            if u % SAMPLE_EVERY == 0
                && self.samples.len() < SAMPLE_CAP
                && answers.len() == s.targets.len()
            {
                self.samples
                    .push((k, answers.iter().map(|a| a.potential.clone()).collect()));
            }
        }
    }

    fn take_counters(&mut self) -> Counters {
        std::mem::take(&mut self.counters)
    }

    fn pool_parks(&self) -> u64 {
        self.serving.pool_stats().map_or(0, |s| s.parks)
    }
}

pub fn run(p: &Params) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..p.setup_reps.max(1) {
        drop(kept.take());
        let (serving, s) = setup()?;
        setups.push(s);
        kept = Some(serving);
    }
    let serving = kept.expect("at least one set-up");
    let setup_rss_mb = peak_rss_mb();
    let tree = serving.engine().tree();
    let slab = slab_len(serving.engine());
    if p.fingerprint_only {
        return Ok(Report::fingerprint(fingerprint(tree, slab, p.seed)));
    }
    check_guard(&p.guard, |s| fingerprint(tree, slab, s))?;
    let sessions = inputs(tree, p.seed);

    let mut tr = Tracer::new(p.trace);
    let mut load = SessionLoad {
        serving: &serving,
        sessions: &sessions,
        gate: Gate::default(),
        counters: Counters::default(),
        open_ms: Vec::new(),
        answer_us: Vec::new(),
        samples: Vec::new(),
    };
    let d = drive(&mut load, p, &mut tr);
    let mut gate = std::mem::take(&mut load.gate);
    gate.abandoned(d.abandoned());
    for (k, answers) in &load.samples {
        let s = &sessions[*k];
        for (r, a) in s.requests().iter().zip(answers) {
            gate.reference(a, reference(serving.engine(), r), || {
                format!("session {k}: P({} | {:?})", r.targets, r.evidence)
            });
        }
    }

    let mut m = Metrics::default();
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    if !p.trace {
        end_to_end(&mut m, p, &setup_s, setup_rss_mb, &d, &gate);
    } else {
        let engine = serving.engine();
        kernel_layer(
            &mut m,
            tree,
            engine.numeric_state().expect("numeric engine"),
        );
        let calibrate: Vec<f64> = setups.iter().map(|s| s.calibrate_ms).collect();
        m.put(
            "junction.calibrate_ms",
            median(&calibrate),
            "ms",
            calibrate.len() as u64,
        );
        // replay the first sessions on evidence-restricted plain engines
        let mut restrict_ms = Vec::new();
        let (mut plain, mut online) = (Vec::new(), Vec::new());
        let unmaterialized = Materialization::default();
        for s in sessions.iter().take(REPLAY_CAP) {
            let t = Instant::now();
            let restricted = engine
                .restricted_to_evidence(&s.evidence)
                .map_err(|e| format!("restricting to {:?}: {e}", s.evidence))?;
            restrict_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let reqs: Vec<ServeRequest> = s
                .targets
                .iter()
                .cloned()
                .map(ServeRequest::marginal)
                .collect();
            plain.extend(replay_plain(&restricted, &reqs));
            online.extend(replay_online(&restricted, &unmaterialized, &reqs));
        }
        junction_answer_layer(&mut m, &plain);
        let n = restrict_ms.len() as u64;
        m.put("junction.restrict_ms", median(&restrict_ms), "ms", n);
        let opens = load.open_ms.len() as u64;
        m.put(
            "session.open_ms_p50",
            quantile(&load.open_ms, 0.5),
            "ms",
            opens,
        );
        m.put(
            "session.open_ms_p99",
            quantile(&load.open_ms, 0.99),
            "ms",
            opens,
        );
        let answers = load.answer_us.len() as u64;
        m.put(
            "session.answer_us_p50",
            quantile(&load.answer_us, 0.5),
            "us",
            answers,
        );
        m.put("core.select_ms", 0.0, "ms", 0);
        m.put("core.materialized_entries", 0.0, "entries", 0);
        core_answer_layer(&mut m, &online);
        serving_layer(&mut m, &d);
        let dir = TempDir::new(p, "store")?;
        let mut st = StoreTimes::default();
        tr.enter("replay.store", 0);
        store_replay(
            &mut st,
            tree,
            engine,
            &serving.materialization(),
            &dir.0,
            0,
            &mut tr,
        )?;
        tr.exit();
        store_layer(&mut m, &st);
        absent(&mut m, FLEET_METRICS);
    }
    Ok(Report::new(p, m, gate, &d, tr))
}
