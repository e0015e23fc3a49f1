//! `skewed-zipf`: the paper's setting (Def. 3.3's finite query pool) on
//! the HeparII stand-in. A pool of distinct marginal queries from the
//! paper's skewed sampler, larger than the engine's default answer cache,
//! arrives Zipf(1.0)-distributed and is served through a PEANUT+
//! materialization trained on a separate draw of the same distribution.
//! This is the workload where the answer cache, in-batch deduplication
//! and shortcut reuse do most of the work.

use crate::common::*;
use crate::rng::{Fnv, Rng, Zipf};
use crate::trace::Tracer;
use crate::Report;
use peanut_core::{OfflineContext, Peanut, PeanutConfig, ServeRequest, Workload};
use peanut_datasets::dataset;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine, RootedTree};
use peanut_pgm::{BayesianNetwork, Potential, Scope};
use peanut_serving::{ServingConfig, ServingEngine};
use peanut_workload::{skewed_queries, QuerySpec};
use std::time::Instant;

const DATASET: &str = "HeparII";
/// Skewed draws deduplicated into the pool (about 13k distinct).
const POOL_DRAWS: usize = 20_000;
const TRAINING_DRAWS: usize = 5_000;
/// Budget of the materialization, in multiples of `b_T`.
const BUDGET_MULTIPLE: u64 = 10;
/// Arrival stream length; the load loops wrap around it.
const STREAM_LEN: usize = 1 << 17;
/// Every this-many-th arrival is checked against the plain tree.
const SAMPLE_EVERY: usize = 53;
const SAMPLE_CAP: usize = 400;
/// Distinct computed requests replayed through the lower layers.
const REPLAY_CAP: usize = 2_000;

struct Inputs {
    pool: Vec<ServeRequest>,
    /// Pool index of each arrival.
    stream: Vec<u32>,
    training: Vec<Scope>,
}

fn inputs(tree: &JunctionTree, seed: u64) -> Inputs {
    let rooted = RootedTree::new(tree);
    let spec = QuerySpec::default();
    let draws = skewed_queries(tree, &rooted, POOL_DRAWS, spec, sub_seed(WORKLOAD_SEED, 1));
    let pool: Vec<ServeRequest> = dedup_scopes(draws)
        .into_iter()
        .map(ServeRequest::marginal)
        .collect();
    // Zipf ranks are assigned to the pool in a fixed random order
    let mut by_rank: Vec<u32> = (0..pool.len() as u32).collect();
    Rng::new(WORKLOAD_SEED, 2).shuffle(&mut by_rank);
    let zipf = Zipf::new(pool.len(), 1.0);
    let mut rng = Rng::new(seed, 2);
    let stream = (0..STREAM_LEN)
        .map(|_| by_rank[zipf.sample(&mut rng)])
        .collect();
    let training = skewed_queries(
        tree,
        &rooted,
        TRAINING_DRAWS,
        spec,
        sub_seed(WORKLOAD_SEED, 3),
    );
    Inputs {
        pool,
        stream,
        training,
    }
}

fn fingerprint(tree: &JunctionTree, slab: usize, seed: u64) -> Fingerprint {
    let inp = inputs(tree, seed);
    let mut h = Fnv::new();
    for r in &inp.pool {
        hash_request(&mut h, r);
    }
    for &i in &inp.stream {
        h.u64(u64::from(i));
    }
    for s in inp.training {
        hash_request(&mut h, &ServeRequest::marginal(s));
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
    select_ms: f64,
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

/// One full set-up: network generation, junction tree, calibration,
/// selection DP and engine construction. Input generation (the pool, the
/// stream and the training draw) is not timed.
fn setup(seed: u64, inp: &mut Option<Inputs>) -> Result<(ServingEngine<'static>, Setup), String> {
    let start = Instant::now();
    let (bn, tree) = model()?;
    let gen = Instant::now();
    let training = &inp.get_or_insert_with(|| inputs(tree, seed)).training;
    let gen = gen.elapsed();
    let t = Instant::now();
    let engine = QueryEngine::numeric(tree, bn).map_err(|e| e.to_string())?;
    let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let wl = Workload::from_queries(training.iter().cloned());
    let ctx = OfflineContext::new(tree, &wl).map_err(|e| e.to_string())?;
    let cfg = PeanutConfig::plus(BUDGET_MULTIPLE * tree.total_separator_size());
    let ns = engine.numeric_state().expect("numeric engine");
    let (mat, _) = Peanut::offline_numeric(&ctx, &cfg, ns).map_err(|e| e.to_string())?;
    let select_ms = t.elapsed().as_secs_f64() * 1e3;
    let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(WORKERS));
    serving.warm_pool();
    let total_s = (start.elapsed() - gen).as_secs_f64();
    Ok((
        serving,
        Setup {
            total_s,
            calibrate_ms,
            select_ms,
        },
    ))
}

struct SkewedLoad<'a> {
    serving: &'a ServingEngine<'static>,
    inp: &'a Inputs,
    gate: Gate,
    counters: Counters,
    /// Sampled answers, copied so the check keeps no served buffer alive.
    samples: Vec<(u32, Potential)>,
    /// Pool indices in the order they were first computed.
    computed: Vec<u32>,
    seen: Vec<bool>,
    batches: u64,
}

impl Load for SkewedLoad<'_> {
    fn requests_in(&self, _: usize) -> usize {
        1
    }

    fn mean_requests(&self) -> f64 {
        1.0
    }

    fn dispatch(&mut self, units: &[usize], tr: &mut Tracer, done: &mut Vec<Instant>) {
        let ids: Vec<u32> = units
            .iter()
            .map(|&u| self.inp.stream[u % self.inp.stream.len()])
            .collect();
        let batch: Vec<ServeRequest> = ids
            .iter()
            .map(|&i| self.inp.pool[i as usize].clone())
            .collect();
        let serving = self.serving;
        let (outcomes, stats) =
            tr.call("serve_batch", self.batches, || serving.serve_batch(&batch));
        done.resize(done.len() + units.len(), Instant::now());
        self.batches += 1;
        self.counters.add_batch(
            stats.queries,
            stats.unique,
            stats.cache_hits,
            stats.stale_hits,
            stats.wall,
        );
        let mut fresh = Vec::new();
        for ((&u, &id), o) in units.iter().zip(&ids).zip(&outcomes) {
            let Some(s) = self.gate.outcome(o, || format!("skewed-zipf request {id}")) else {
                continue;
            };
            if !s.from_cache {
                fresh.push(&s.answer);
                if !std::mem::replace(&mut self.seen[id as usize], true) {
                    self.computed.push(id);
                }
            }
            if u % SAMPLE_EVERY == 0 && self.samples.len() < SAMPLE_CAP {
                self.samples.push((id, s.potential.clone()));
            }
        }
        self.counters.add_compute(fresh.into_iter());
    }

    fn take_counters(&mut self) -> Counters {
        std::mem::take(&mut self.counters)
    }

    fn pool_parks(&self) -> u64 {
        self.serving.pool_stats().map_or(0, |s| s.parks)
    }
}

pub fn run(p: &Params) -> Result<Report, String> {
    let mut inp = None;
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..p.setup_reps.max(1) {
        drop(kept.take());
        let (serving, s) = setup(p.seed, &mut inp)?;
        setups.push(s);
        kept = Some(serving);
    }
    let serving = kept.expect("at least one set-up");
    let setup_rss_mb = peak_rss_mb();
    let inp = inp.expect("inputs generated during set-up");
    let tree = serving.engine().tree();
    let slab = slab_len(serving.engine());
    if p.fingerprint_only {
        return Ok(Report::fingerprint(fingerprint(tree, slab, p.seed)));
    }
    check_guard(&p.guard, |s| fingerprint(tree, slab, s))?;

    let mut tr = Tracer::new(p.trace);
    let mut load = SkewedLoad {
        serving: &serving,
        inp: &inp,
        gate: Gate::default(),
        counters: Counters::default(),
        samples: Vec::new(),
        computed: Vec::new(),
        seen: vec![false; inp.pool.len()],
        batches: 0,
    };
    let d = drive(&mut load, p, &mut tr);
    let mut gate = std::mem::take(&mut load.gate);
    gate.abandoned(d.abandoned());
    for (id, a) in &load.samples {
        let r = &inp.pool[*id as usize];
        gate.reference(a, reference(serving.engine(), r), || {
            format!("skewed-zipf request {id} ({})", r.targets)
        });
    }

    let mut m = Metrics::default();
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    if !p.trace {
        end_to_end(&mut m, p, &setup_s, setup_rss_mb, &d, &gate);
    } else {
        let mat = serving.materialization();
        let reqs: Vec<ServeRequest> = load
            .computed
            .iter()
            .take(REPLAY_CAP)
            .map(|&i| inp.pool[i as usize].clone())
            .collect();
        let ns = serving.engine().numeric_state().expect("numeric engine");
        kernel_layer(&mut m, tree, ns);
        let calibrate: Vec<f64> = setups.iter().map(|s| s.calibrate_ms).collect();
        m.put(
            "junction.calibrate_ms",
            crate::stats::median(&calibrate),
            "ms",
            calibrate.len() as u64,
        );
        junction_answer_layer(&mut m, &replay_plain(serving.engine(), &reqs));
        let select: Vec<f64> = setups.iter().map(|s| s.select_ms).collect();
        m.put(
            "core.select_ms",
            crate::stats::median(&select),
            "ms",
            select.len() as u64,
        );
        m.put(
            "core.materialized_entries",
            mat.total_size() as f64,
            "entries",
            mat.len() as u64,
        );
        core_answer_layer(&mut m, &replay_online(serving.engine(), &mat, &reqs));
        serving_layer(&mut m, &d);
        let dir = TempDir::new(p, "store")?;
        let mut st = StoreTimes::default();
        tr.enter("replay.store", 0);
        store_replay(&mut st, tree, serving.engine(), &mat, &dir.0, 0, &mut tr)?;
        tr.exit();
        store_layer(&mut m, &st);
        absent(&mut m, SESSION_METRICS);
        absent(&mut m, FLEET_METRICS);
    }
    Ok(Report::new(p, m, gate, &d, tr))
}
