//! `fleet-drift`: a multi-tenant fleet of Child and HeparII stand-ins
//! (varied generator seeds) behind one sharded engine with a store and
//! fewer resident slots than tenants, so tenants page out and fault back
//! in. Tenant traffic is Zipf-weighted and the ranking flips
//! halfway through the nominal-rate phase; requests are Zipf-distributed
//! over each tenant's pool; a quarter of the pool is per-query
//! conditionals; the fleet controller ticks every fixed number of
//! arrivals. This is the workload where the store, shard paging and the
//! lifecycle work, and where re-selection, publish and persist write
//! beside the reads.

use crate::common::*;
use crate::rng::{Fnv, Rng, Zipf};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Report;
use peanut_core::{Materialization, OfflineContext, Peanut, PeanutConfig, ServeRequest, Workload};
use peanut_datasets::dataset;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine, RootedTree};
use peanut_pgm::generate::generate_network;
use peanut_pgm::{BayesianNetwork, Potential, Scope, Var};
use peanut_serving::{
    FleetConfig, FleetController, ShardConfig, ShardedServingEngine, StoreConfig, TenantId,
};
use peanut_workload::{skewed_queries, QuerySpec};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Tenant networks, alternating. Hailfinder is left out: its 11-state
/// variables make multi-megabyte intermediate tables, answers keep such
/// recycled buffers alive in the answer cache, and the fleet's peak
/// memory then varied 600–1060 MB from run to run. The same retention
/// stays measured by `skewed-zipf`'s `peak_rss_mb`.
const KINDS: [&str; 2] = ["Child", "HeparII"];
const TENANTS: usize = 8;
/// Resident slots, below the tenant count.
const MAX_RESIDENT: usize = 6;
/// Skewed draws per tenant, deduplicated into its pool.
const POOL_DRAWS: usize = 150;
/// Query sizes. Smaller than the paper's 1–5 variables, so a fleet that
/// pages whole tenants in and out still serves hundreds of requests per
/// second from one generating thread.
const SPEC: QuerySpec = QuerySpec {
    min_vars: 1,
    max_vars: 2,
};
/// Share of each pool turned into per-query conditionals.
const CONDITIONAL_SHARE: f64 = 0.25;
const TRAINING_DRAWS: usize = 2_000;
/// Budget divisor: each tenant starts with a PEANUT+ materialization at
/// its `b_T` over this, and the fleet's global budget is the tenants'
/// summed `b_T` over it. A tight budget the knapsack must split keeps one
/// rebalance near 50 ms on the reference host (at the summed `b_T` it
/// takes seconds); starting every tenant at its share of that budget keeps
/// a tenant the controller has not yet rebalanced from serving a far
/// larger materialization than the others.
const BUDGET_DIVISOR: u64 = 512;
/// Arrivals between controller ticks, and the controller's window.
const TICK_EVERY: usize = 2048;
const MIN_WINDOW: u64 = 512;
/// Share shift that triggers a rebalance: zero, so every tick with a full
/// window re-selects and publishes. The writes then come at a fixed
/// cadence instead of whenever the resident set happens to shift.
const SHARE_DRIFT: f64 = 0.0;
/// Arrival stream length; the load loops wrap around it.
const STREAM_LEN: usize = 1 << 15;
const SAMPLE_EVERY: usize = 37;
const SAMPLE_CAP: usize = 400;
const REPLAY_CAP: usize = 1_500;

type Model = (BayesianNetwork, JunctionTree);

struct Inputs {
    pools: Vec<Vec<ServeRequest>>,
    training: Vec<Vec<Scope>>,
    /// Tenants by Zipf rank before and after the ranking flip.
    ranking: [Vec<u8>; 2],
    /// Zipf(1.0) over each tenant's pool, in pool order.
    pool_zipf: Vec<Zipf>,
    /// `(tenant Zipf rank, uniform draw)` of each arrival: the tenant is
    /// the rank's holder in the ranking in force, the request the pool
    /// entry at the draw's cumulative Zipf probability.
    stream: Vec<(u8, u32)>,
}

impl Inputs {
    fn arrival(&self, unit: usize, flipped: bool) -> (u8, u32) {
        let (rank, draw) = self.stream[unit % self.stream.len()];
        let t = self.ranking[usize::from(flipped)][rank as usize];
        let u = f64::from(draw) / (f64::from(u32::MAX) + 1.0);
        (t, self.pool_zipf[t as usize].at(u) as u32)
    }
}

fn pool(tree: &JunctionTree, tenant: u64) -> Vec<ServeRequest> {
    let rooted = RootedTree::new(tree);
    let draws = skewed_queries(
        tree,
        &rooted,
        POOL_DRAWS,
        SPEC,
        sub_seed(WORKLOAD_SEED, 10 + tenant),
    );
    let mut rng = Rng::new(WORKLOAD_SEED, 100 + tenant);
    let n = tree.domain().len();
    dedup_scopes(draws)
        .into_iter()
        .map(|s| {
            if rng.unit() >= CONDITIONAL_SHARE || s.len() == n {
                return ServeRequest::marginal(s);
            }
            let v = loop {
                let v = Var(rng.below(n) as u32);
                if !s.contains(v) {
                    break v;
                }
            };
            let x = rng.below(tree.domain().card(v) as usize) as u32;
            ServeRequest::new(s, vec![(v, x)])
        })
        .collect()
}

fn inputs(models: &[Model], seed: u64) -> Inputs {
    let pools: Vec<Vec<ServeRequest>> = models
        .iter()
        .enumerate()
        .map(|(i, (_, tree))| pool(tree, i as u64))
        .collect();
    let training = models
        .iter()
        .enumerate()
        .map(|(i, (_, tree))| {
            let rooted = RootedTree::new(tree);
            skewed_queries(
                tree,
                &rooted,
                TRAINING_DRAWS,
                SPEC,
                sub_seed(WORKLOAD_SEED, 30 + i as u64),
            )
        })
        .collect();
    let mut before: Vec<u8> = (0..TENANTS as u8).collect();
    Rng::new(WORKLOAD_SEED, 2).shuffle(&mut before);
    // at the flip the hottest tenants become the coldest
    let after: Vec<u8> = before.iter().rev().copied().collect();
    let zipf = Zipf::new(TENANTS, 1.0);
    let mut rng = Rng::new(seed, 2);
    let stream = (0..STREAM_LEN)
        .map(|_| (zipf.sample(&mut rng) as u8, rng.next_u64() as u32))
        .collect();
    Inputs {
        pool_zipf: pools.iter().map(|p| Zipf::new(p.len(), 1.0)).collect(),
        pools,
        training,
        ranking: [before, after],
        stream,
    }
}

fn fingerprint(models: &[Model], slabs: &[usize], seed: u64) -> Fingerprint {
    let inp = inputs(models, seed);
    let mut h = Fnv::new();
    for r in inp.pools.iter().flatten() {
        hash_request(&mut h, r);
    }
    for s in inp.training.iter().flatten() {
        hash_request(&mut h, &ServeRequest::marginal(s.clone()));
    }
    for u in 0..inp.stream.len() {
        for flipped in [false, true] {
            let (t, q) = inp.arrival(u, flipped);
            h.u64(u64::from(t));
            h.u64(u64::from(q));
        }
    }
    let structure: Vec<String> = models
        .iter()
        .zip(slabs)
        .map(|((_, tree), &slab)| structure(tree, slab))
        .collect();
    Fingerprint {
        structure: structure.join(","),
        stream_hash: h.finish(),
    }
}

/// Builds the tenants' models and leaks them: the fleet borrows the trees
/// for the rest of the process.
fn models() -> Result<&'static [Model], String> {
    let mut out = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let spec = dataset(KINDS[i % KINDS.len()]).ok_or("dataset missing")?;
        let bn = generate_network(&spec.config, spec.seed + i as u64).map_err(|e| e.to_string())?;
        let tree = build_junction_tree(&bn).map_err(|e| e.to_string())?;
        out.push((bn, tree));
    }
    Ok(Box::leak(out.into_boxed_slice()))
}

#[derive(Default)]
struct Setup {
    total_s: f64,
    calibrate_ms: f64,
    select_ms: f64,
}

struct Fleet {
    fleet: ShardedServingEngine<'static>,
    models: &'static [Model],
    slabs: Vec<usize>,
    /// Declared after the fleet so the store outlives it.
    _store: TempDir,
}

/// One full set-up: every tenant's network, junction tree, calibration
/// and selection DP, then the fleet with its store, each tenant's initial
/// persist, and paging down to the resident cap. Input generation is not
/// timed.
fn setup(p: &Params, rep: usize, inp: &mut Option<Inputs>) -> Result<(Fleet, Setup), String> {
    let start = Instant::now();
    let models = models()?;
    let gen = Instant::now();
    let training = &inp.get_or_insert_with(|| inputs(models, p.seed)).training;
    let gen = gen.elapsed();
    let mut s = Setup::default();
    let store = TempDir::new(p, &format!("store{rep}"))?;
    let cfg = ShardConfig::default()
        .with_workers(WORKERS)
        .with_max_resident(MAX_RESIDENT);
    let mut fleet = ShardedServingEngine::new(cfg);
    fleet.set_store(StoreConfig::new(&store.0));
    let mut slabs = Vec::new();
    for (i, ((bn, tree), training)) in models.iter().zip(training).enumerate() {
        let t = Instant::now();
        let engine = QueryEngine::numeric(tree, bn).map_err(|e| e.to_string())?;
        s.calibrate_ms += t.elapsed().as_secs_f64() * 1e3;
        slabs.push(slab_len(&engine));
        let t = Instant::now();
        let wl = Workload::from_queries(training.iter().cloned());
        let ctx = OfflineContext::new(tree, &wl).map_err(|e| e.to_string())?;
        let cfg = PeanutConfig::plus(tree.total_separator_size() / BUDGET_DIVISOR);
        let ns = engine.numeric_state().expect("numeric engine");
        let (mat, _) = Peanut::offline_numeric(&ctx, &cfg, ns).map_err(|e| e.to_string())?;
        s.select_ms += t.elapsed().as_secs_f64() * 1e3;
        fleet
            .register(TenantId(i as u32), engine, mat)
            .map_err(|e| e.to_string())?;
    }
    fleet.enforce_residency();
    fleet.warm_pool();
    s.total_s = (start.elapsed() - gen).as_secs_f64();
    Ok((
        Fleet {
            fleet,
            models,
            slabs,
            _store: store,
        },
        s,
    ))
}

struct FleetLoad<'a> {
    fleet: &'a ShardedServingEngine<'static>,
    ctl: FleetController<'a, 'static>,
    inp: &'a Inputs,
    /// Units from here on are served under the flipped ranking.
    flip_at: usize,
    gate: Gate,
    counters: Counters,
    batches: u64,
    arrivals: u64,
    faults: u64,
    page_outs: u64,
    fault_ms: Vec<f64>,
    since_tick: usize,
    tick_ms: Vec<f64>,
    rebalances: u64,
    /// Sampled answers, copied so the check keeps no served buffer alive.
    samples: Vec<(u8, u32, Potential)>,
    computed: Vec<(u8, u32)>,
    seen: HashSet<(u8, u32)>,
}

impl Load for FleetLoad<'_> {
    fn requests_in(&self, _: usize) -> usize {
        1
    }

    fn mean_requests(&self) -> f64 {
        1.0
    }

    fn dispatch(&mut self, units: &[usize], tr: &mut Tracer, done: &mut Vec<Instant>) {
        let items: Vec<(u8, u32)> = units
            .iter()
            .map(|&u| self.inp.arrival(u, u >= self.flip_at))
            .collect();
        let batch: Vec<(TenantId, ServeRequest)> = items
            .iter()
            .map(|&(t, q)| {
                (
                    TenantId(u32::from(t)),
                    self.inp.pools[t as usize][q as usize].clone(),
                )
            })
            .collect();
        let fleet = self.fleet;
        let (outcomes, ms) = tr.call("serve_mixed", self.batches, || fleet.serve_mixed(&batch));
        done.resize(done.len() + units.len(), Instant::now());
        self.batches += 1;
        self.arrivals += units.len() as u64;
        self.counters.add_batch(
            ms.arrivals,
            ms.unique,
            ms.cache_hits,
            ms.stale_hits,
            ms.wall,
        );
        self.faults += ms.faults as u64;
        self.page_outs += ms.page_outs as u64;
        if ms.faults > 0 {
            self.fault_ms
                .push(ms.fault_wall.as_secs_f64() * 1e3 / ms.faults as f64);
        }
        let mut fresh = Vec::new();
        for ((&u, &(t, q)), o) in units.iter().zip(&items).zip(&outcomes) {
            let Some(s) = self
                .gate
                .outcome(o, || format!("fleet-drift tenant {t} request {q}"))
            else {
                continue;
            };
            if !s.from_cache {
                fresh.push(&s.answer);
                if self.seen.insert((t, q)) {
                    self.computed.push((t, q));
                }
            }
            if u % SAMPLE_EVERY == 0 && self.samples.len() < SAMPLE_CAP {
                self.samples.push((t, q, s.potential.clone()));
            }
        }
        self.counters.add_compute(fresh.into_iter());

        self.since_tick += units.len();
        if self.since_tick >= TICK_EVERY {
            self.since_tick = 0;
            let ctl = &mut self.ctl;
            let t = Instant::now();
            let ticked = tr.call("tick", self.batches, || ctl.tick().map(|r| r.is_some()));
            self.tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match ticked {
                Ok(rebalanced) => self.rebalances += u64::from(rebalanced),
                Err(e) => self.gate.fail(format!("fleet controller tick failed: {e}")),
            }
        }
    }

    fn take_counters(&mut self) -> Counters {
        std::mem::take(&mut self.counters)
    }

    fn pool_parks(&self) -> u64 {
        self.fleet.pool_stats().map_or(0, |s| s.parks)
    }

    /// The tenant ranking flips once per run, halfway through the
    /// nominal-rate phase: the closed loop runs before the flip, the
    /// ladder after it.
    fn begin_phase(&mut self, phase: &'static str, first_unit: usize, units: Option<usize>) {
        self.flip_at = match (phase, units) {
            ("nominal", Some(n)) => first_unit + n / 2,
            ("closed", _) => usize::MAX,
            _ => 0,
        };
    }
}

pub fn run(p: &Params) -> Result<Report, String> {
    let mut inp = None;
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..p.setup_reps.max(1) {
        drop(kept.take());
        let (fleet, s) = setup(p, rep, &mut inp)?;
        setups.push(s);
        kept = Some(fleet);
    }
    let f = kept.expect("at least one set-up");
    let setup_rss_mb = peak_rss_mb();
    let inp = inp.expect("inputs generated during set-up");
    if p.fingerprint_only {
        return Ok(Report::fingerprint(fingerprint(f.models, &f.slabs, p.seed)));
    }
    check_guard(&p.guard, |s| fingerprint(f.models, &f.slabs, s))?;
    let budget: u64 = f
        .models
        .iter()
        .map(|(_, tree)| tree.total_separator_size() / BUDGET_DIVISOR)
        .sum();
    let cfg = FleetConfig::new(budget)
        .with_min_window(MIN_WINDOW)
        .with_share_drift(SHARE_DRIFT);
    let ctl = FleetController::new(&f.fleet, cfg);

    let mut tr = Tracer::new(p.trace);
    let mut load = FleetLoad {
        fleet: &f.fleet,
        ctl,
        inp: &inp,
        flip_at: usize::MAX,
        gate: Gate::default(),
        counters: Counters::default(),
        batches: 0,
        arrivals: 0,
        faults: 0,
        page_outs: 0,
        fault_ms: Vec::new(),
        since_tick: 0,
        tick_ms: Vec::new(),
        rebalances: 0,
        samples: Vec::new(),
        computed: Vec::new(),
        seen: HashSet::new(),
    };
    let d = drive(&mut load, p, &mut tr);
    let mut gate = std::mem::take(&mut load.gate);
    gate.abandoned(d.abandoned());
    // plain per-tenant reference engines, independent of the fleet
    let mut plain: Vec<QueryEngine<'static>> = Vec::new();
    for (bn, tree) in f.models {
        plain.push(QueryEngine::numeric(tree, bn).map_err(|e| e.to_string())?);
    }
    for (t, q, a) in &load.samples {
        let r = &inp.pools[*t as usize][*q as usize];
        gate.reference(a, reference(&plain[*t as usize], r), || {
            format!(
                "fleet-drift tenant {t}: P({} | {:?})",
                r.targets, r.evidence
            )
        });
    }

    let mut m = Metrics::default();
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    if !p.trace {
        end_to_end(&mut m, p, &setup_s, setup_rss_mb, &d, &gate);
    } else {
        let largest = (0..TENANTS).max_by_key(|&i| f.slabs[i]).expect("tenants");
        let ns = plain[largest].numeric_state().expect("numeric engine");
        kernel_layer(&mut m, &f.models[largest].1, ns);
        let calibrate: Vec<f64> = setups.iter().map(|s| s.calibrate_ms).collect();
        m.put(
            "junction.calibrate_ms",
            median(&calibrate),
            "ms",
            calibrate.len() as u64,
        );
        // current materializations (faults paged-out tenants back in)
        let mut mats: Vec<Arc<Materialization>> = Vec::new();
        for t in 0..TENANTS {
            let engine = f
                .fleet
                .tenant(TenantId(t as u32))
                .ok_or_else(|| format!("tenant {t} did not fault in"))?;
            mats.push(engine.materialization());
        }
        let (mut plain_r, mut online_r) = (Vec::new(), Vec::new());
        for t in 0..TENANTS {
            let reqs: Vec<ServeRequest> = load
                .computed
                .iter()
                .take(REPLAY_CAP)
                .filter(|&&(tt, _)| tt as usize == t)
                .map(|&(_, q)| inp.pools[t][q as usize].clone())
                .collect();
            plain_r.extend(replay_plain(&plain[t], &reqs));
            online_r.extend(replay_online(&plain[t], &mats[t], &reqs));
        }
        junction_answer_layer(&mut m, &plain_r);
        let select: Vec<f64> = setups.iter().map(|s| s.select_ms).collect();
        m.put("core.select_ms", median(&select), "ms", select.len() as u64);
        let entries: u64 = mats.iter().map(|m| m.total_size()).sum();
        m.put(
            "core.materialized_entries",
            entries as f64,
            "entries",
            TENANTS as u64,
        );
        core_answer_layer(&mut m, &online_r);
        serving_layer(&mut m, &d);
        let per_1k = 1e3 / load.arrivals.max(1) as f64;
        m.put(
            "shard.faults_per_1k",
            load.faults as f64 * per_1k,
            "count",
            load.arrivals,
        );
        m.put(
            "shard.page_outs_per_1k",
            load.page_outs as f64 * per_1k,
            "count",
            load.arrivals,
        );
        m.put(
            "shard.fault_ms_p99",
            quantile(&load.fault_ms, 0.99),
            "ms",
            load.fault_ms.len() as u64,
        );
        let dir = TempDir::new(p, "replay")?;
        let mut st = StoreTimes::default();
        tr.enter("replay.store", 0);
        for (t, (_, tree)) in f.models.iter().enumerate() {
            store_replay(
                &mut st, tree, &plain[t], &mats[t], &dir.0, t as u32, &mut tr,
            )?;
        }
        tr.exit();
        store_layer(&mut m, &st);
        let ticks = load.tick_ms.len() as u64;
        m.put(
            "lifecycle.tick_ms_p50",
            quantile(&load.tick_ms, 0.5),
            "ms",
            ticks,
        );
        m.put(
            "lifecycle.tick_ms_max",
            quantile(&load.tick_ms, 1.0),
            "ms",
            ticks,
        );
        m.put(
            "lifecycle.rebalances",
            load.rebalances as f64,
            "count",
            ticks,
        );
        absent(&mut m, SESSION_METRICS);
    }
    Ok(Report::new(p, m, gate, &d, tr))
}
