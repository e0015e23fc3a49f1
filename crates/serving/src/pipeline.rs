//! The one batch pipeline behind every serving surface.
//!
//! [`ServingEngine::serve_batch`](crate::ServingEngine::serve_batch),
//! [`ShardedServingEngine::serve_mixed`](crate::ShardedServingEngine::serve_mixed)
//! and [`EvidenceSession::serve_batch`](crate::EvidenceSession::serve_batch)
//! all run [`serve`], which is the paper's online phase (§4.5–4.6) at batch
//! granularity:
//!
//! 1. **route** — every arrival names the [`Shard`] it belongs to (or
//!    carries the error its caller already resolved it to);
//! 2. **dedup** — duplicate requests coalesce *per shard* and are computed
//!    once (workloads sample finite pools with replacement, Def. 3.3); two
//!    shards asking the same request are different computations over
//!    different models;
//! 3. **probe** — each shard's unique requests probe its epoch-tagged
//!    answer cache under one lock scope; entries from an older epoch drop
//!    lazily;
//! 4. **fan out** — the remaining work of *all* shards is flattened into
//!    one list and run by [`PoolCell::fan_out`], each task answering on its
//!    shard's Steiner subtree with the shard's materialized shortcuts;
//! 5. **admit** — fresh answers enter their shard's cache, zero-copy;
//! 6. **account** — each shard's [`WorkloadStats`] weighs *arrivals*, not
//!    computations: a fresh computation recorded itself once, duplicates
//!    and cache hits top up here, and evidence contexts count per arrival;
//! 7. **assemble** — outcomes come back in arrival order as zero-copy
//!    [`Served`] handles.

use crate::engine::{Answer, AnswerCache, BatchStats, CacheLookup, Served};
use crate::overload::ServeOutcome;
use crate::pool::PoolCell;
use peanut_core::sync::{Arc, Mutex};
use peanut_core::{Materialization, OnlineEngine, ServeRequest, WorkloadStats};
use peanut_junction::QueryEngine;
use peanut_pgm::{PgmError, Scope, Scratch};
use std::collections::HashMap;
use std::time::Instant;

/// One shard of a batch: a borrowed view of a model under one epoch
/// snapshot.
pub(crate) struct Shard<'a, 't> {
    /// The calibrated engine answers are computed on.
    pub(crate) engine: &'a QueryEngine<'t>,
    /// The materialization whose shortcuts the answers reuse.
    pub(crate) mat: &'a Materialization,
    /// The epoch's observation accumulator.
    pub(crate) stats: &'a WorkloadStats,
    /// The epoch every answer is tagged with.
    pub(crate) epoch: u64,
    /// The answer cache and its capacity; `None` disables caching.
    pub(crate) cache: Option<(&'a Mutex<AnswerCache>, usize)>,
    /// The scope of evidence already absorbed into `engine` (evidence
    /// sessions): answers are normalized into `P(targets | e)` and every
    /// served arrival records this evidence context.
    pub(crate) pinned: Option<&'a Scope>,
}

/// Where a unique request's answer comes from.
enum Slot {
    /// A current-epoch cache hit.
    Cached(Arc<Answer>),
    /// An index into the batch's flattened work list.
    Work(usize),
}

/// One shard's side of a batch.
struct Run<'q> {
    uniques: Vec<&'q ServeRequest>,
    /// Arrivals per unique request.
    uses: Vec<u64>,
    slots: Vec<Slot>,
    stats: BatchStats,
}

/// Serves a batch routed over `shards`. Each arrival is `Ok((shard,
/// request))` or the error it resolves to. Returns one outcome per
/// arrival, in order, and one [`BatchStats`] per shard (`wall` is left to
/// the caller).
pub(crate) fn serve<'q>(
    shards: &[Shard<'_, '_>],
    arrivals: impl IntoIterator<Item = Result<(usize, &'q ServeRequest), PgmError>>,
    dedup: bool,
    pool: &PoolCell,
) -> (Vec<ServeOutcome>, Vec<BatchStats>) {
    let mut runs: Vec<Run<'q>> = shards
        .iter()
        .map(|s| Run {
            uniques: Vec::new(),
            uses: Vec::new(),
            slots: Vec::new(),
            stats: BatchStats {
                epoch: s.epoch,
                ..BatchStats::default()
            },
        })
        .collect();

    // route + per-shard dedup: routed[i] = (shard, unique index)
    let arrivals = arrivals.into_iter();
    // sized to a shard's even share of the batch, so dedup rarely rehashes
    let share = if dedup {
        arrivals.size_hint().0 / shards.len().max(1)
    } else {
        0
    };
    let mut first_of: Vec<HashMap<&'q ServeRequest, usize>> = (0..shards.len())
        .map(|_| HashMap::with_capacity(share))
        .collect();
    let routed: Vec<Result<(usize, usize), PgmError>> = arrivals
        .map(|arrival| {
            let (k, q) = arrival?;
            let run = &mut runs[k];
            let fresh = run.uniques.len();
            let u = if dedup {
                *first_of[k].entry(q).or_insert(fresh)
            } else {
                fresh
            };
            if u == fresh {
                run.uniques.push(q);
                run.uses.push(0);
            }
            run.uses[u] += 1;
            run.stats.queries += 1;
            Ok((k, u))
        })
        .collect();

    // cache probe (one lock scope per shard; only Arc clones inside)
    let mut work: Vec<(usize, usize)> = Vec::new();
    for (k, (shard, run)) in shards.iter().zip(&mut runs).enumerate() {
        run.stats.unique = run.uniques.len();
        let mut cache = match shard.cache {
            Some((cache, _)) if !run.uniques.is_empty() => Some(cache.lock()),
            _ => None,
        };
        for (u, q) in run.uniques.iter().enumerate() {
            let slot = match cache.as_mut().map(|c| c.lookup(q, shard.epoch)) {
                Some(CacheLookup::Hit(hit)) => {
                    run.stats.cache_hits += 1;
                    Slot::Cached(hit)
                }
                lookup => {
                    if matches!(lookup, Some(CacheLookup::StaleDropped)) {
                        run.stats.stale_hits += 1;
                    }
                    work.push((k, u));
                    Slot::Work(work.len() - 1)
                }
            };
            run.slots.push(slot);
        }
    }

    let fresh: Vec<Result<Arc<Answer>, PgmError>> = pool.fan_out(work.len(), &|w, scratch| {
        let (k, u) = work[w];
        answer_one(&shards[k], runs[k].uniques[u], scratch).map(Arc::new)
    });

    for (shard, run) in shards.iter().zip(&mut runs) {
        let mut admit: Vec<(ServeRequest, Arc<Answer>)> = Vec::new();
        for ((q, slot), &uses) in run.uniques.iter().zip(&run.slots).zip(&run.uses) {
            let (a, extra) = match slot {
                Slot::Cached(a) => (a, uses),
                Slot::Work(w) => match &fresh[*w] {
                    Ok(a) => {
                        run.stats.total_ops = run.stats.total_ops.saturating_add(a.cost.ops);
                        run.stats.shortcuts_used += a.cost.shortcuts_used;
                        if shard.cache.is_some() {
                            admit.push(((*q).clone(), Arc::clone(a)));
                        }
                        // the computing OnlineEngine recorded one arrival
                        (a, uses - 1)
                    }
                    Err(_) => continue,
                },
            };
            if extra > 0 {
                shard
                    .stats
                    .record_n(&q.stat_scope(), &a.cost, a.baseline_ops, extra);
            }
            // the OnlineEngine records scopes, never evidence
            if !q.is_marginal() {
                shard.stats.record_evidence(&q.evidence_scope(), uses);
            }
            if let Some(pinned) = shard.pinned {
                shard.stats.record_evidence(pinned, uses);
            }
        }
        // zero-copy admission (the cache shares the batch's Arc), one
        // lock scope per shard
        if let Some((cache, capacity)) = shard.cache.filter(|_| !admit.is_empty()) {
            let mut cache = cache.lock();
            for (q, a) in admit {
                cache.insert(capacity, q, a);
            }
        }
    }

    // every arrival gets a zero-copy handle on its shared answer (errors
    // are cloned; they carry no tables)
    let outcomes = routed
        .into_iter()
        .map(|r| {
            let (k, u) = match r {
                Ok(ku) => ku,
                Err(e) => return ServeOutcome::Failed(e),
            };
            let (answer, from_cache) = match &runs[k].slots[u] {
                Slot::Cached(a) => (a, true),
                Slot::Work(w) => match &fresh[*w] {
                    Ok(a) => (a, false),
                    Err(e) => return ServeOutcome::Failed(e.clone()),
                },
            };
            ServeOutcome::Served(Served {
                answer: Arc::clone(answer),
                from_cache,
            })
        })
        .collect();
    (outcomes, runs.into_iter().map(|r| r.stats).collect())
}

/// [`serve`] over a single shard: every request routes to it.
pub(crate) fn serve_one_shard(
    shard: &Shard<'_, '_>,
    requests: &[ServeRequest],
    dedup: bool,
    pool: &PoolCell,
) -> (Vec<ServeOutcome>, BatchStats) {
    let arrivals = requests.iter().map(|q| Ok((0, q)));
    let (outcomes, mut stats) = serve(std::slice::from_ref(shard), arrivals, dedup, pool);
    (outcomes, stats.swap_remove(0))
}

/// Answers one request on its shard: the shortcut-aware online engine
/// over the shard's materialization, recording the computation into the
/// shard's stats.
fn answer_one(
    shard: &Shard<'_, '_>,
    req: &ServeRequest,
    scratch: &mut Scratch,
) -> Result<Answer, PgmError> {
    let t = Instant::now();
    let online = OnlineEngine::with_stats(shard.engine, shard.mat, shard.stats);
    let traced = if req.is_marginal() {
        online.answer_traced_in(&req.targets, scratch)?
    } else {
        online.conditional_traced_in(&req.targets, &req.evidence, scratch)?
    };
    let mut potential = traced.potential;
    if shard.pinned.is_some() {
        // restricted tables hold P(·, e); normalizing yields P(· | e).
        // Contradictory evidence leaves an all-zero table (sum 0), which
        // normalize passes through untouched.
        potential.normalize();
    }
    Ok(Answer {
        potential,
        cost: traced.cost,
        baseline_ops: traced.baseline_ops,
        epoch: shard.epoch,
        service_time: t.elapsed(),
    })
}
