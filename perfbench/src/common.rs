//! What the three workloads share: run parameters, the two load loops,
//! the correctness gate, serving counters, and the lower-layer replays
//! that give the traced run its per-layer split.

use crate::json::J;
use crate::rng::{arrival_schedule, Fnv, Rng};
use crate::stats::{median, pearson, quantile};
use crate::trace::Tracer;
use peanut_core::{FlatMaterialization, Materialization, OnlineEngine, ServeRequest};
use peanut_junction::query::conditional_from_joint;
use peanut_junction::{JunctionTree, NumericState, QueryEngine};
use peanut_pgm::{Potential, Scope, Scratch};
use peanut_serving::{Answer, ServeOutcome, Served};
use peanut_store::{rehydrate_engine, StoreConfig, StoredEpoch};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of every engine and fleet: pinned to the 2-core host
/// rather than left to the per-core default.
pub const WORKERS: usize = 2;

/// Share of `--seconds` given to the closed loop and the nominal-rate open
/// loop; the rate ladder gets the rest, split evenly over its rungs.
const CLOSED_SHARE: f64 = 0.35;
const NOMINAL_SHARE: f64 = 0.5;

/// How far the answers may stray from the reference and from summing to 1.
pub const TOLERANCE: f64 = 1e-9;

/// Everything a run is told from outside.
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Nominal open-loop rate, requests per second.
    pub rate: f64,
    /// Offered rates of the ladder, requests per second, ascending.
    pub ladder: Vec<f64>,
    /// Open-loop latency limit a ladder rung must meet at p99.
    pub limit_ms: f64,
    /// Closed-loop batch: stream units per dispatch.
    pub batch: usize,
    /// Closed-loop units served before timing starts.
    pub warmup: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Directory for spans and store files (inside the checkout).
    pub out_dir: PathBuf,
    pub guard: Option<Guard>,
    /// Print the input fingerprint for `seed` and stop.
    pub fingerprint_only: bool,
}

/// The recorded input fingerprint a run must reproduce before measuring.
pub struct Guard {
    pub seed: u64,
    pub structure: String,
    pub stream_hash: String,
}

/// A workload's generated inputs, reduced to what the guard compares.
pub struct Fingerprint {
    pub structure: String,
    pub stream_hash: u64,
}

impl Fingerprint {
    pub fn json(&self) -> J {
        J::obj([
            ("structure", J::str(&self.structure)),
            ("stream_hash", J::str(format!("{:016x}", self.stream_hash))),
        ])
    }
}

/// Checks the inputs generated for the guard seed against the record;
/// `Err` means the generators changed and the run must not measure.
pub fn check_guard(
    guard: &Option<Guard>,
    fp: impl FnOnce(u64) -> Fingerprint,
) -> Result<(), String> {
    let Some(g) = guard else { return Ok(()) };
    let got = fp(g.seed);
    let hash = format!("{:016x}", got.stream_hash);
    if got.structure != g.structure || hash != g.stream_hash {
        return Err(format!(
            "input fingerprint changed for guard seed {}: structure {:?} (recorded {:?}), \
             stream hash {hash} (recorded {})",
            g.seed, got.structure, g.structure, g.stream_hash
        ));
    }
    Ok(())
}

/// Structure of one calibrated model: cliques, treewidth, slab entries.
pub fn structure(tree: &JunctionTree, slab_entries: usize) -> String {
    format!("{}/{}/{}", tree.n_cliques(), tree.treewidth(), slab_entries)
}

pub fn slab_len(engine: &QueryEngine<'_>) -> usize {
    engine
        .numeric_state()
        .expect("benchmark engines are numeric")
        .arena()
        .slab()
        .len()
}

pub fn hash_request(h: &mut Fnv, r: &ServeRequest) {
    h.u64(r.targets.len() as u64);
    for v in r.targets.iter() {
        h.u64(u64::from(v.0));
    }
    h.u64(r.evidence.len() as u64);
    for &(v, x) in &r.evidence {
        h.u64(u64::from(v.0));
        h.u64(u64::from(x));
    }
}

/// Seed of everything that defines a workload's distribution: its query
/// pools, Zipf rank order, training draw and evidence contexts. The run
/// seed only draws the traffic realization (arrival sequence and
/// schedule), so runs with different seeds measure the same workload.
pub const WORKLOAD_SEED: u64 = 0x5EED_2022;

/// Seed for one of the program's own generators, derived from a seed and
/// a per-use tag.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    Rng::new(seed, tag).next_u64()
}

pub fn dedup_scopes(scopes: Vec<Scope>) -> Vec<Scope> {
    let mut seen = HashSet::new();
    scopes
        .into_iter()
        .filter(|s| seen.insert(s.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// Load loops

/// A workload as the load loops see it: a stream of units (a request, or a
/// session of several), indexed without bound and wrapped by the workload.
pub trait Load {
    fn requests_in(&self, unit: usize) -> usize;
    /// Mean requests per unit, to turn request rates into unit rates.
    fn mean_requests(&self) -> f64;
    /// Serves `units` as one dispatch and pushes each unit's completion
    /// instant to `done`, in order.
    fn dispatch(&mut self, units: &[usize], tr: &mut Tracer, done: &mut Vec<Instant>);
    /// Serving counters accumulated since the last call.
    fn take_counters(&mut self) -> Counters;
    /// Cumulative worker-pool parks.
    fn pool_parks(&self) -> u64;
    /// Called before each phase with its first unit and unit count
    /// (`None` for the time-bounded closed loop).
    fn begin_phase(&mut self, _phase: &'static str, _first_unit: usize, _units: Option<usize>) {}
}

pub struct Closed {
    pub requests: u64,
    pub wall: Duration,
    /// Requests and seconds of each block of batches, in order.
    pub blocks: Vec<(u64, f64)>,
    /// Serving counters of the timed part.
    pub counters: Counters,
    pub parks: u64,
    /// Traced run only: time per request with spans on, over time per
    /// request with spans off, minus one.
    pub trace_overhead: f64,
}

impl Closed {
    /// Requests per second within each of nine consecutive runs of
    /// blocks, and the median over them: a short stall of the shared host
    /// moves one window, not the figure.
    pub fn windowed_qps(&self) -> f64 {
        median(&self.window_qps())
    }

    /// Requests per second within each of (up to) nine consecutive runs
    /// of blocks.
    pub fn window_qps(&self) -> Vec<f64> {
        let n = self.blocks.len();
        let windows = n.clamp(1, 9);
        (0..windows)
            .map(|w| {
                let part = &self.blocks[w * n / windows..(w + 1) * n / windows];
                let r: u64 = part.iter().map(|b| b.0).sum();
                r as f64 / part.iter().map(|b| b.1).sum::<f64>().max(1e-12)
            })
            .collect()
    }
}

/// Closed loop from unit 0: the next batch is sent when the previous one
/// returns.
pub fn closed_loop(load: &mut dyn Load, p: &Params, budget: Duration, tr: &mut Tracer) -> Closed {
    load.begin_phase("closed", 0, None);
    let mut done = Vec::new();
    let mut next = 0usize;
    let mut batch = |load: &mut dyn Load, next: &mut usize, tr: &mut Tracer| -> u64 {
        let units: Vec<usize> = (*next..*next + p.batch).collect();
        *next += p.batch;
        done.clear();
        load.dispatch(&units, tr, &mut done);
        units.iter().map(|&u| load.requests_in(u) as u64).sum()
    };
    while next < p.warmup {
        batch(load, &mut next, tr);
    }
    load.take_counters();
    let parks0 = load.pool_parks();
    // In the traced run, blocks of batches alternate between recording
    // and not, so the tracing overhead is measured on the same traffic
    // (as the ratio of the blocks' median time per request, which a rare
    // slow block cannot skew). An unrecorded block still gets one span of
    // its own, so the loop's wall time stays covered.
    const BLOCK: u64 = 8;
    let traced = tr.enabled();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut requests = 0u64;
    let mut blocks = Vec::new();
    let start = Instant::now();
    let mut block = 0u64;
    while start.elapsed() < budget {
        let recording = !traced || block % 2 == 0;
        let t = Instant::now();
        if !recording {
            tr.enter("closed.unrecorded_block", block);
            tr.set_recording(false);
        }
        let mut r = 0;
        for _ in 0..BLOCK {
            r += batch(load, &mut next, tr);
            if start.elapsed() >= budget {
                break;
            }
        }
        if !recording {
            tr.set_recording(true);
            tr.exit();
        }
        let per_request = t.elapsed().as_secs_f64() / r.max(1) as f64;
        blocks.push((r, t.elapsed().as_secs_f64()));
        if recording { &mut on } else { &mut off }.push(per_request);
        requests += r;
        block += 1;
    }
    let wall = start.elapsed();
    let counters = load.take_counters();
    let parks = load.pool_parks() - parks0;
    let trace_overhead = if traced && !off.is_empty() {
        median(&on) / median(&off) - 1.0
    } else {
        0.0
    };
    Closed {
        requests,
        wall,
        blocks,
        counters,
        parks,
        trace_overhead,
    }
}

#[derive(Default)]
pub struct Open {
    /// Offered rate, requests per second.
    pub offered: f64,
    pub requests: u64,
    /// Phase start to last completion.
    pub wall: Duration,
    /// Due time to completion, per request.
    pub latency_ms: Vec<f64>,
    /// Due time to dispatch, per request.
    pub queue_wait_ms: Vec<f64>,
    /// How late the generator woke for an arrival after idling.
    pub lag_ms: Vec<f64>,
    /// Most requests waiting at one dispatch.
    pub peak_backlog: usize,
    /// Mean queue wait over the last quarter of arrivals: a backlog that
    /// keeps growing shows here.
    pub tail_wait_ms: f64,
    /// Arrivals the generator gave up on after the phase overran badly.
    pub abandoned: u64,
}

impl Open {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    /// The `q`-quantile of latency within each of up to nine consecutive
    /// windows of at least 3000 requests, and the median over the
    /// windows: short stalls of the shared host move one window, not the
    /// figure. Returns the figure and the window count.
    pub fn windowed(&self, q: f64) -> (f64, usize) {
        let n = self.latency_ms.len();
        let windows = (n / 3000).clamp(1, 9);
        let per: Vec<f64> = (0..windows)
            .map(|w| quantile(&self.latency_ms[w * n / windows..(w + 1) * n / windows], q))
            .collect();
        (median(&per), windows)
    }

    /// Achieved rate: requests served per second of phase wall time.
    pub fn achieved(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// p99 within `limit_ms`, no growing backlog, nothing abandoned.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.requests > 0
            && self.abandoned == 0
            && self.p(0.99) <= limit_ms
            && self.tail_wait_ms <= limit_ms
    }
}

/// How long before a due time the open loop stops sleeping and spins, so
/// the host's timer wake-up delay does not land in the measured latency.
const SPIN: Duration = Duration::from_micros(500);

/// Blocks until `due` seconds after `t0`: a sleep, then a short spin.
fn wait_until(t0: Instant, due: f64) {
    let due = t0 + Duration::from_secs_f64(due);
    if let Some(rest) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(rest);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Open loop: Poisson arrivals at `rate` requests per second for
/// `duration`; every arrival due when the generator is free goes out as one
/// dispatch. Latency runs from each arrival's due time.
pub fn open_loop(
    load: &mut dyn Load,
    phase: &'static str,
    first_unit: usize,
    rate: f64,
    duration: Duration,
    rng: &mut Rng,
    tr: &mut Tracer,
) -> Open {
    let n = (rate / load.mean_requests() * duration.as_secs_f64())
        .round()
        .max(1.0) as usize;
    load.begin_phase(phase, first_unit, Some(n));
    let due = arrival_schedule(n, duration.as_secs_f64(), rng);
    let give_up = duration.as_secs_f64() * 3.0 + 5.0;
    let mut rep = Open {
        offered: rate,
        ..Open::default()
    };
    let mut wait_by_arrival = Vec::with_capacity(due.len());
    let mut done = Vec::new();
    let t0 = Instant::now();
    let mut last_done = t0;
    let mut i = 0;
    while i < due.len() {
        let mut now = t0.elapsed().as_secs_f64();
        if due[i] > now {
            tr.call("idle", i as u64, || wait_until(t0, due[i]));
            now = t0.elapsed().as_secs_f64();
            rep.lag_ms.push((now - due[i]) * 1e3);
        }
        if now > give_up {
            rep.abandoned = (i..due.len())
                .map(|k| load.requests_in(first_unit + k) as u64)
                .sum();
            break;
        }
        let j = i + due[i..].partition_point(|&d| d <= now);
        let units: Vec<usize> = (first_unit + i..first_unit + j).collect();
        let backlog: usize = units.iter().map(|&u| load.requests_in(u)).sum();
        rep.peak_backlog = rep.peak_backlog.max(backlog);
        done.clear();
        load.dispatch(&units, tr, &mut done);
        for (k, (&u, &d)) in units.iter().zip(&done).enumerate() {
            let due_at = due[i + k];
            let n = load.requests_in(u);
            let lat = (d - t0).as_secs_f64() - due_at;
            let wait = now - due_at;
            for _ in 0..n {
                rep.latency_ms.push(lat * 1e3);
                rep.queue_wait_ms.push(wait * 1e3);
            }
            wait_by_arrival.push(wait * 1e3);
            rep.requests += n as u64;
            last_done = last_done.max(d);
        }
        i = j;
    }
    rep.wall = last_done - t0;
    let tail = &wait_by_arrival[wait_by_arrival.len() * 3 / 4..];
    rep.tail_wait_ms = crate::stats::mean(tail);
    rep
}

/// The untraced or traced measurement of one workload: a closed loop, an
/// open loop at the nominal rate, then the rate ladder.
pub struct Drive {
    pub closed: Closed,
    pub nominal: Open,
    pub rungs: Vec<Open>,
}

impl Drive {
    /// Highest ladder rung that meets the limit, as its achieved rate.
    pub fn max_rate(&self, limit_ms: f64) -> (f64, u64) {
        self.rungs
            .iter()
            .rev()
            .find(|r| r.meets(limit_ms))
            .map_or((0.0, 0), |r| (r.achieved(), r.requests))
    }

    pub fn abandoned(&self) -> u64 {
        self.nominal.abandoned + self.rungs.iter().map(|r| r.abandoned).sum::<u64>()
    }
}

/// Stream offset between phases: each phase starts at its own fixed unit,
/// so its inputs do not depend on how far an earlier phase got.
const PHASE_STRIDE: usize = 1_000_003;

/// Runs the three phases.
pub fn drive(load: &mut dyn Load, p: &Params, tr: &mut Tracer) -> Drive {
    let s = p.seconds;
    tr.enter("phase.closed", 0);
    let closed = closed_loop(load, p, Duration::from_secs_f64(s * CLOSED_SHARE), tr);
    tr.exit();
    tr.enter("phase.nominal", 0);
    let nominal_s = Duration::from_secs_f64(s * NOMINAL_SHARE);
    let mut rng = Rng::new(p.seed, 0xA11);
    let nominal = open_loop(
        load,
        "nominal",
        PHASE_STRIDE,
        p.rate,
        nominal_s,
        &mut rng,
        tr,
    );
    tr.exit();
    let rung_s =
        Duration::from_secs_f64(s * (1.0 - CLOSED_SHARE - NOMINAL_SHARE) / p.ladder.len() as f64);
    let mut rungs = Vec::new();
    for (k, &rate) in p.ladder.iter().enumerate() {
        tr.enter("phase.ladder", k as u64);
        let mut rng = Rng::new(p.seed, 0xA12 + k as u64);
        let first = (k + 2) * PHASE_STRIDE;
        rungs.push(open_loop(load, "ladder", first, rate, rung_s, &mut rng, tr));
        tr.exit();
    }
    Drive {
        closed,
        nominal,
        rungs,
    }
}

// ---------------------------------------------------------------------------
// Correctness gate

/// Counts attempts and failures, and holds the first violation seen.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub first_violation: Option<String>,
    pub checked_against_reference: u64,
}

impl Gate {
    /// Records a failure; the first one is kept for the report.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_violation.is_none() {
            self.first_violation = Some(what);
        }
    }

    /// Accounts one outcome; returns the answer when it was served and is
    /// a finite distribution summing to 1. Cache hits repeat an answer
    /// already checked when it was computed.
    pub fn outcome<'o>(
        &mut self,
        o: &'o ServeOutcome,
        what: impl FnOnce() -> String,
    ) -> Option<&'o Served> {
        self.attempted += 1;
        let Some(served) = o.served() else {
            let why = match (o.failure(), o.shed_reason()) {
                (Some(e), _) => format!("failed: {e}"),
                (None, Some(r)) => format!("shed: {r:?}"),
                _ => "not served".to_string(),
            };
            self.fail(format!("{}: {why}", what()));
            return None;
        };
        if !served.from_cache {
            if let Err(e) = distribution_error(&served.potential) {
                self.fail(format!("{}: {e}", what()));
                return None;
            }
        }
        Some(served)
    }

    /// Compares a sampled served answer with its reference.
    pub fn reference(
        &mut self,
        got: &Potential,
        want: Result<Potential, String>,
        what: impl FnOnce() -> String,
    ) {
        self.checked_against_reference += 1;
        match want.and_then(|w| got.max_abs_diff(&w).map_err(|e| e.to_string())) {
            Ok(d) if d <= TOLERANCE => {}
            Ok(d) => self.fail(format!("{}: differs from the reference by {d:e}", what())),
            Err(e) => self.fail(format!("{}: no reference: {e}", what())),
        }
    }

    /// `n` requests that could not be served at all.
    pub fn unserved(&mut self, n: u64, what: String) {
        self.attempted += n;
        self.failed += n.saturating_sub(1);
        self.fail(what);
    }

    /// Arrivals the generator abandoned are attempted and failed.
    pub fn abandoned(&mut self, n: u64) {
        if n > 0 {
            self.unserved(
                n,
                format!("{n} arrivals abandoned by the open-loop generator"),
            );
        }
    }
}

fn distribution_error(p: &Potential) -> Result<(), String> {
    if p.values().iter().any(|x| !x.is_finite()) {
        return Err("answer has a non-finite entry".into());
    }
    let s = p.sum();
    if (s - 1.0).abs() > TOLERANCE {
        return Err(format!("answer sums to {s}"));
    }
    Ok(())
}

/// Reference answer on the plain junction tree: the marginal, or the
/// joint over targets and evidence restricted and normalized.
pub fn reference(engine: &QueryEngine<'_>, r: &ServeRequest) -> Result<Potential, String> {
    let mut scratch = Scratch::new();
    let out = if r.is_marginal() {
        engine.answer_in(&r.targets, &mut scratch)
    } else {
        conditional_from_joint(&r.targets, &r.evidence, &mut scratch, |q, s| {
            engine.answer_in(q, s)
        })
    };
    out.map(|(p, _)| p).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Serving counters

/// Per-phase serving telemetry summed from the batch statistics.
#[derive(Default)]
pub struct Counters {
    pub batches: u64,
    pub queries: u64,
    pub unique: u64,
    pub cache_hits: u64,
    pub stale_hits: u64,
    pub batch_ms: Vec<f64>,
    pub wall_s: f64,
    /// Summed service time of the answers computed (once per answer).
    pub compute_s: f64,
}

impl Counters {
    pub fn add_batch(
        &mut self,
        queries: usize,
        unique: usize,
        hits: usize,
        stale: usize,
        wall: Duration,
    ) {
        self.batches += 1;
        self.queries += queries as u64;
        self.unique += unique as u64;
        self.cache_hits += hits as u64;
        self.stale_hits += stale as u64;
        self.batch_ms.push(wall.as_secs_f64() * 1e3);
        self.wall_s += wall.as_secs_f64();
    }

    /// Adds the service time of each freshly computed answer once, however
    /// many arrivals of the batch share it.
    pub fn add_compute<'a>(&mut self, answers: impl Iterator<Item = &'a Arc<Answer>>) {
        let mut seen: HashSet<*const Answer> = HashSet::new();
        for a in answers {
            if seen.insert(Arc::as_ptr(a)) {
                self.compute_s += a.service_time.as_secs_f64();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn json(&self) -> J {
        J::Obj(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        J::obj([
                            ("value", J::Num(m.value)),
                            ("unit", J::str(m.unit)),
                            ("samples", J::Int(m.samples)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload reports under the same names.
/// `setup_s` holds the time of each set-up, `setup_rss_mb` the peak
/// resident set when they were done.
pub fn end_to_end(
    m: &mut Metrics,
    p: &Params,
    setup_s: &[f64],
    setup_rss_mb: f64,
    d: &Drive,
    gate: &Gate,
) {
    m.put("setup_s", median(setup_s), "s", setup_s.len() as u64);
    m.put("setup_rss_mb", setup_rss_mb, "MB", 1);
    m.put(
        "throughput_qps",
        d.closed.windowed_qps(),
        "req/s",
        d.closed.requests,
    );
    let n = d.nominal.latency_ms.len() as u64;
    m.put("latency_p50_ms", d.nominal.windowed(0.5).0, "ms", n);
    m.put("latency_p99_ms", d.nominal.windowed(0.99).0, "ms", n);
    let (rate, rung_n) = d.max_rate(p.limit_ms);
    m.put("max_rate_qps", rate, "req/s", rung_n);
    m.put(
        "failed_frac",
        gate.failed as f64 / gate.attempted.max(1) as f64,
        "fraction",
        gate.attempted,
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

/// Serving-layer and queueing metrics of a run.
pub fn serving_layer(m: &mut Metrics, d: &Drive) {
    let c = &d.closed.counters;
    let parks = d.closed.parks;
    m.put(
        "serving.dedup_frac",
        1.0 - c.unique as f64 / c.queries.max(1) as f64,
        "fraction",
        c.queries,
    );
    m.put(
        "serving.cache_hit_frac",
        c.cache_hits as f64 / c.unique.max(1) as f64,
        "fraction",
        c.unique,
    );
    m.put(
        "serving.batch_ms_p50",
        quantile(&c.batch_ms, 0.5),
        "ms",
        c.batches,
    );
    m.put(
        "serving.batch_ms_p99",
        quantile(&c.batch_ms, 0.99),
        "ms",
        c.batches,
    );
    m.put(
        "serving.compute_frac",
        c.compute_s / (c.wall_s * WORKERS as f64).max(1e-12),
        "fraction",
        c.batches,
    );
    m.put(
        "serving.pool_parks_per_batch",
        parks as f64 / c.batches.max(1) as f64,
        "count",
        c.batches,
    );
    m.put(
        "serving.stale_frac",
        c.stale_hits as f64 / c.unique.max(1) as f64,
        "fraction",
        c.unique,
    );
    let o = &d.nominal;
    let n = o.queue_wait_ms.len() as u64;
    m.put(
        "serving.queue_wait_ms_p50",
        quantile(&o.queue_wait_ms, 0.5),
        "ms",
        n,
    );
    m.put(
        "serving.queue_wait_ms_p99",
        quantile(&o.queue_wait_ms, 0.99),
        "ms",
        n,
    );
    m.put("serving.peak_backlog", o.peak_backlog as f64, "count", n);
    m.put(
        "serving.generator_lag_ms_p99",
        quantile(&o.lag_ms, 0.99),
        "ms",
        o.lag_ms.len() as u64,
    );
}

/// Session-path metrics, absent outside `evidence-sessions`.
pub const SESSION_METRICS: &[(&str, &str)] = &[
    ("junction.restrict_ms", "ms"),
    ("session.open_ms_p50", "ms"),
    ("session.open_ms_p99", "ms"),
    ("session.answer_us_p50", "us"),
];

/// Paging and lifecycle metrics, absent outside `fleet-drift`.
pub const FLEET_METRICS: &[(&str, &str)] = &[
    ("shard.faults_per_1k", "count"),
    ("shard.page_outs_per_1k", "count"),
    ("shard.fault_ms_p99", "ms"),
    ("lifecycle.tick_ms_p50", "ms"),
    ("lifecycle.tick_ms_max", "ms"),
    ("lifecycle.rebalances", "count"),
];

/// Metrics a workload has no layer for are reported as zero with no
/// samples, so every traced run carries the same names.
pub fn absent(m: &mut Metrics, names: &[(&'static str, &'static str)]) {
    for &(name, unit) in names {
        m.put(name, 0.0, unit, 0);
    }
}

// ---------------------------------------------------------------------------
// Lower-layer replays (traced run only)

/// Repeats `f` until `min` has passed, five times, and returns the median
/// seconds per call.
fn time_per_call(min: Duration, mut f: impl FnMut()) -> f64 {
    let mut rounds = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut n = 0u64;
        while start.elapsed() < min {
            f();
            n += 1;
        }
        rounds.push(start.elapsed().as_secs_f64() / n as f64);
    }
    median(&rounds)
}

/// `pgm` kernels on the largest clique table and its largest separator:
/// product and marginalization ns per clique entry, and their combined
/// bytes per second over a memcpy of the clique table.
pub fn kernel_layer(m: &mut Metrics, tree: &JunctionTree, ns: &NumericState) {
    let u = (0..tree.n_cliques())
        .max_by_key(|&u| tree.clique_size(u))
        .expect("trees have cliques");
    let e = tree
        .neighbors(u)
        .iter()
        .map(|&(_, e)| e)
        .max_by_key(|&e| tree.separator_size(e))
        .expect("the largest clique has a separator");
    let clique = ns.clique_table(u).to_potential();
    let sep = ns.separator_table(e).to_potential();
    let (n, s) = (clique.len() as f64, sep.len() as f64);
    let mut scratch = Scratch::new();
    let min = Duration::from_millis(20);
    let product = time_per_call(min, || {
        let out = clique
            .product_in(black_box(&sep), &mut scratch)
            .expect("scopes fit");
        scratch.recycle(black_box(out));
    });
    let marginalize = time_per_call(min, || {
        let out = clique
            .marginalize_in(black_box(sep.scope()), &mut scratch)
            .expect("subscope");
        scratch.recycle(black_box(out));
    });
    let src = clique.values().to_vec();
    let mut dst = vec![0.0f64; src.len()];
    let memcpy = time_per_call(min, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    let kernel_bytes = 8.0 * ((2.0 * n + s) + (n + s));
    let memcpy_bytes_per_s = 16.0 * n / memcpy;
    m.put("pgm.product_ns_per_entry", product * 1e9 / n, "ns", 5);
    m.put(
        "pgm.marginalize_ns_per_entry",
        marginalize * 1e9 / n,
        "ns",
        5,
    );
    m.put(
        "pgm.memcpy_frac",
        kernel_bytes / (product + marginalize) / memcpy_bytes_per_s,
        "fraction",
        5,
    );
}

/// One replayed request: time and operation counts.
pub struct Replayed {
    pub us: f64,
    pub ops: f64,
    pub baseline_ops: f64,
    pub shortcuts: usize,
}

/// Replays requests on the plain tree of `engine` (no shortcuts); a
/// request the plain tree cannot answer is left out.
pub fn replay_plain(engine: &QueryEngine<'_>, reqs: &[ServeRequest]) -> Vec<Replayed> {
    let mut scratch = Scratch::new();
    reqs.iter()
        .filter_map(|r| {
            let t = Instant::now();
            let out = if r.is_marginal() {
                engine.answer_in(&r.targets, &mut scratch)
            } else {
                conditional_from_joint(&r.targets, &r.evidence, &mut scratch, |q, s| {
                    engine.answer_in(q, s)
                })
            };
            let (pot, cost) = out.ok()?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            scratch.recycle(black_box(pot));
            Some(Replayed {
                us,
                ops: cost.ops as f64,
                baseline_ops: cost.ops as f64,
                shortcuts: 0,
            })
        })
        .collect()
}

/// Replays requests through the shortcut-aware online engine; a request
/// it cannot answer is left out.
pub fn replay_online(
    engine: &QueryEngine<'_>,
    mat: &Materialization,
    reqs: &[ServeRequest],
) -> Vec<Replayed> {
    let online = OnlineEngine::new(engine, mat);
    let mut scratch = Scratch::new();
    reqs.iter()
        .filter_map(|r| {
            let t = Instant::now();
            let out = if r.is_marginal() {
                online.answer_traced_in(&r.targets, &mut scratch)
            } else {
                online.conditional_traced_in(&r.targets, &r.evidence, &mut scratch)
            };
            let a = out.ok()?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            let r = Replayed {
                us,
                ops: a.cost.ops as f64,
                baseline_ops: a.baseline_ops as f64,
                shortcuts: a.cost.shortcuts_used,
            };
            scratch.recycle(black_box(a.potential));
            Some(r)
        })
        .collect()
}

fn ns_per_op(r: &[Replayed]) -> f64 {
    let us: f64 = r.iter().map(|x| x.us).sum();
    let ops: f64 = r.iter().map(|x| x.ops).sum();
    us * 1e3 / ops.max(1.0)
}

pub fn junction_answer_layer(m: &mut Metrics, plain: &[Replayed]) {
    let us: Vec<f64> = plain.iter().map(|r| r.us).collect();
    let n = plain.len() as u64;
    m.put("junction.answer_us_p50", quantile(&us, 0.5), "us", n);
    m.put("junction.answer_us_p99", quantile(&us, 0.99), "us", n);
    m.put(
        "junction.ops_per_query",
        plain.iter().map(|r| r.ops).sum::<f64>() / n.max(1) as f64,
        "ops",
        n,
    );
    m.put("junction.ns_per_op", ns_per_op(plain), "ns", n);
}

pub fn core_answer_layer(m: &mut Metrics, online: &[Replayed]) {
    let us: Vec<f64> = online.iter().map(|r| r.us).collect();
    let ops: Vec<f64> = online.iter().map(|r| r.ops).collect();
    let n = online.len() as u64;
    let base: f64 = online.iter().map(|r| r.baseline_ops).sum();
    m.put("core.answer_us_p50", quantile(&us, 0.5), "us", n);
    m.put("core.ns_per_op", ns_per_op(online), "ns", n);
    m.put(
        "core.ops_saved_frac",
        1.0 - ops.iter().sum::<f64>() / base.max(1.0),
        "fraction",
        n,
    );
    m.put(
        "core.shortcut_use_frac",
        online.iter().filter(|r| r.shortcuts > 0).count() as f64 / n.max(1) as f64,
        "fraction",
        n,
    );
    m.put("core.ops_ns_pearson", pearson(&ops, &us), "ratio", n);
}

/// Median times of the store calls for one epoch, over a few rounds:
/// persist, open (validated), and rehydrate into a serving engine.
#[derive(Default)]
pub struct StoreTimes {
    pub persist_ms: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub rehydrate_ms: Vec<f64>,
    pub epoch_mb: Vec<f64>,
}

pub fn store_replay(
    times: &mut StoreTimes,
    tree: &JunctionTree,
    engine: &QueryEngine<'_>,
    mat: &Materialization,
    dir: &Path,
    tenant: u32,
    tr: &mut Tracer,
) -> Result<(), String> {
    let cfg = StoreConfig::new(dir);
    let flat = FlatMaterialization::pack(mat);
    let slab = engine
        .numeric_state()
        .expect("benchmark engines are numeric")
        .arena()
        .slab();
    for round in 0..5u64 {
        let t = Instant::now();
        let path = tr
            .call("store.save_epoch", round, || {
                cfg.save_epoch(tenant, mat, &flat, slab)
            })
            .map_err(|e| e.to_string())?;
        times.persist_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let stored = tr
            .call("store.open", round, || StoredEpoch::open(&path, true))
            .map_err(|e| e.to_string())?;
        times.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let (eng, m) = tr
            .call("store.rehydrate_engine", round, || {
                rehydrate_engine(tree, &stored)
            })
            .map_err(|e| e.to_string())?;
        times.rehydrate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        black_box((eng, m));
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        times.epoch_mb.push(bytes as f64 / (1024.0 * 1024.0));
    }
    Ok(())
}

pub fn store_layer(m: &mut Metrics, t: &StoreTimes) {
    let n = t.open_ms.len() as u64;
    m.put("store.open_ms", median(&t.open_ms), "ms", n);
    m.put("store.rehydrate_ms", median(&t.rehydrate_ms), "ms", n);
    m.put("store.persist_ms", median(&t.persist_ms), "ms", n);
    m.put("store.epoch_mb", median(&t.epoch_mb), "MB", n);
}

/// A scratch directory of this run under the output directory, removed
/// on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(p: &Params, tag: &str) -> Result<Self, String> {
        let dir = p
            .out_dir
            .join(format!("tmp-{}-{}-{tag}", p.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
