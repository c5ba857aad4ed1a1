//! The sharded serving event loop: one OS thread per NVLink clique.
//!
//! [`crate::engine`]'s sequential loop interleaves every GPU's events
//! in one thread. At [`ServeConfig::shards`](crate::ServeConfig::shards)
//! `> 1` the loop re-shards: workers are partitioned clique-by-clique
//! across `min(shards, cliques)` threads, each owning its workers'
//! admission queues, batcher state, RNG streams and scratch outright.
//! Shared meters (counters, histograms, the server's PCM / traffic
//! matrices) accumulate through commuting integer adds, flushed
//! batch-wise by [`run_worker_batch`] — no per-request atomics on the
//! steady-state path.
//!
//! Two regimes:
//!
//! * **Round-robin routing** ([`run_roundrobin_sharded`]): a request's
//!   destination is `id % num_gpus` — independent of any queue state —
//!   so each shard free-runs its arrivals and launches to completion
//!   with no coordination at all. Because every worker's event sequence
//!   depends only on its own arrivals, queue, RNG and busy horizon, and
//!   every shared-meter mutation commutes, the run is **byte-identical**
//!   to the sequential loop.
//! * **Residency routing** ([`run_residency_sharded`]): the dispatcher
//!   reads *all* queue depths per decision, which would couple every
//!   arrival to every shard. Instead a coordinator steps simulated time
//!   in quanta of [`SHARD_QUANTUM`] simulated seconds: it routes the quantum's arrivals against *projected* depths (last
//!   reported at the previous boundary, incremented per placement),
//!   parks spilled requests in a [`SpillPool`], and drains the pool to
//!   the least-loaded GPU at the next boundary — work stealing, metered
//!   as `serve.route.steals`. Shards report queue depths and committed
//!   plan versions at each boundary, so the residency index — like the
//!   plan double-buffer it mirrors — only ever changes between batches,
//!   never mid-batch. Runs are deterministic for a fixed seed and shard
//!   count, but *not* byte-identical to the sequential loop: projected
//!   depths lag true depths by up to one quantum.
//!
//! Per-shard totals land in `serve.shard{s}.batches` /
//! `serve.shard{s}.completed`, registered only when sharding is active
//! so `shards == 1` snapshots stay byte-identical to the pre-sharding
//! engine.

use std::sync::mpsc;
use std::thread;

use legion_graph::VertexId;
use legion_hw::GpuId;
use legion_partition::detect_cliques;
use legion_router::SpillPool;
use legion_telemetry::Counter;

use crate::engine::{offer_request, run_worker_batch, RouterState, ServeContext, Worker};
use crate::workload::Request;

/// Coordination quantum of the sharded residency-routed loop, simulated
/// seconds: the coordinator routes arrivals and drains the steal pool
/// once per quantum.
const SHARD_QUANTUM: f64 = 1e-3;

/// One arrival event queued for a shard: the request plus the simulated
/// time it is offered (its true arrival, or the quantum boundary for a
/// stolen spill) and the shard-local index of its destination worker.
pub(crate) struct ShardArrival {
    pub(crate) offer_at: f64,
    pub(crate) wi: usize,
    pub(crate) req: Request,
}

/// Coordinator → shard: one quantum of work, or the end of the stream.
enum Down {
    /// Process `work` (sorted by `offer_at`) and every launch inside
    /// `[start, end)`, then report back.
    Quantum {
        start: f64,
        end: f64,
        work: Vec<ShardArrival>,
    },
    /// No further arrivals anywhere: drain unboundedly and exit.
    Finish,
}

/// Shard → coordinator, once per quantum: the shard's true queue depths
/// and any plan commits since the last boundary (new residency sets for
/// the dispatcher).
struct Up {
    queue_lens: Vec<(GpuId, usize)>,
    plan_updates: Vec<(GpuId, u64, Vec<VertexId>)>,
}

/// How many shard threads a request for `shards` actually yields: one
/// per NVLink clique at most, and never zero.
pub(crate) fn effective_shards(server: &legion_hw::MultiGpuServer, shards: usize) -> usize {
    shards.min(detect_cliques(server.nvlink()).len()).max(1)
}

/// GPU → shard assignment: clique `c` lands on shard `c % eff`, so
/// clique members always share a thread (their pooled caches and NVLink
/// reads stay shard-local).
fn shard_map(server: &legion_hw::MultiGpuServer, eff: usize) -> Vec<usize> {
    let mut map = vec![0usize; server.num_gpus()];
    for (ci, clique) in detect_cliques(server.nvlink()).iter().enumerate() {
        for &g in clique {
            map[g] = ci % eff;
        }
    }
    map
}

/// One shard's event loop over its own workers: identical event rules
/// to the sequential loop (an arrival strictly earlier than the best
/// launch wins; launch ties go to the lowest local index), restricted
/// to launches strictly before `horizon` when one is set.
///
/// Launch times are clamped to `start`: a stolen spill is offered at a
/// quantum boundary, but its queued `arrival` and the worker's idle
/// `free_at` both predate that boundary — without the clamp the batch
/// would launch *in the past*, before the request had even been handed
/// to the shard. The clamp pins the pool's deferral into the timeline
/// (and into the request's measured latency). `start == 0.0` for the
/// free-running paths, where no event can predate its offer.
///
/// Returns `(batches, completed)` — the totals for the shard meters.
fn run_shard_loop(
    ctx: &ServeContext<'_>,
    workers: &mut [Worker],
    arrivals: &[ShardArrival],
    start: f64,
    horizon: Option<f64>,
    route_shed: Option<&[Counter]>,
) -> (u64, u64) {
    let mut next = 0usize;
    let mut batches = 0u64;
    let mut completed = 0u64;
    loop {
        let mut launch: Option<(f64, usize)> = None;
        for (wi, w) in workers.iter().enumerate() {
            if let Some(t) = ctx.batch_policy.launch_time(&w.queue, w.free_at) {
                let t = t.max(start);
                if horizon.is_none_or(|h| t < h) && launch.is_none_or(|(bt, _)| t < bt) {
                    launch = Some((t, wi));
                }
            }
        }
        match (arrivals.get(next), launch) {
            (Some(a), l) if l.is_none_or(|(t, _)| a.offer_at < t) => {
                next += 1;
                offer_request(ctx, &mut workers[a.wi], a.req, route_shed.map(|s| &s[a.wi]));
            }
            (_, Some((at, wi))) => {
                completed += run_worker_batch(ctx, &mut workers[wi], at) as u64;
                batches += 1;
            }
            _ => break,
        }
    }
    (batches, completed)
}

/// Splits `workers` into per-shard ownership lists, recording each
/// GPU's shard-local index in `local_index`.
fn partition_workers(
    workers: &mut Vec<Worker>,
    map: &[usize],
    eff: usize,
    local_index: &mut [usize],
) -> Vec<Vec<Worker>> {
    let mut per_shard: Vec<Vec<Worker>> = (0..eff).map(|_| Vec::new()).collect();
    for w in workers.drain(..) {
        let si = map[w.gpu];
        local_index[w.gpu] = per_shard[si].len();
        per_shard[si].push(w);
    }
    per_shard
}

/// Reassembles the shards' workers back into GPU order.
fn reassemble(workers: &mut Vec<Worker>, mut done: Vec<(usize, Vec<Worker>)>) {
    done.sort_by_key(|(si, _)| *si);
    let mut all: Vec<Worker> = done.into_iter().flat_map(|(_, ws)| ws).collect();
    all.sort_by_key(|w| w.gpu);
    *workers = all;
}

/// Per-shard `serve.shard{s}.{batches,completed}` counters — registered
/// only by sharded runs.
fn shard_meters(ctx: &ServeContext<'_>, eff: usize) -> Vec<(Counter, Counter)> {
    (0..eff)
        .map(|si| {
            (
                ctx.registry.counter(&format!("serve.shard{si}.batches")),
                ctx.registry.counter(&format!("serve.shard{si}.completed")),
            )
        })
        .collect()
}

/// The free-running sharded loop for round-robin routing: arrivals are
/// pre-partitioned by destination (`id % num_gpus`, a pure function of
/// the request), and every shard runs to completion with no
/// coordination. Byte-identical to the sequential loop.
pub(crate) fn run_roundrobin_sharded(
    ctx: &ServeContext<'_>,
    workers: &mut Vec<Worker>,
    requests: &[Request],
    eff: usize,
) {
    let num_gpus = workers.len();
    let map = shard_map(ctx.server, eff);
    let mut local_index = vec![0usize; num_gpus];
    let per_shard = partition_workers(workers, &map, eff, &mut local_index);
    let mut arrivals: Vec<Vec<ShardArrival>> = (0..eff).map(|_| Vec::new()).collect();
    for r in requests {
        let gpu = (r.id % num_gpus as u64) as usize;
        arrivals[map[gpu]].push(ShardArrival {
            offer_at: r.arrival,
            wi: local_index[gpu],
            req: *r,
        });
    }
    let meters = shard_meters(ctx, eff);
    let done: Vec<(usize, Vec<Worker>)> = thread::scope(|scope| {
        let handles: Vec<_> = per_shard
            .into_iter()
            .zip(arrivals)
            .enumerate()
            .map(|(si, (mut ws, arr))| {
                let (batches, completed) = meters[si].clone();
                scope.spawn(move || {
                    let (b, c) = run_shard_loop(ctx, &mut ws, &arr, 0.0, None, None);
                    batches.add(b);
                    completed.add(c);
                    (si, ws)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    reassemble(workers, done);
}

/// The quantum-stepped sharded loop for residency routing: the
/// coordinator owns the dispatcher and the spill pool, shards own their
/// workers, and the two meet only at quantum boundaries.
pub(crate) fn run_residency_sharded(
    ctx: &ServeContext<'_>,
    workers: &mut Vec<Worker>,
    rs: &mut RouterState,
    requests: &[Request],
    eff: usize,
) {
    let num_gpus = workers.len();
    let map = shard_map(ctx.server, eff);
    let mut local_index = vec![0usize; num_gpus];
    let per_shard = partition_workers(workers, &map, eff, &mut local_index);
    // Each shard sheds against its own clones of the per-clique shed
    // counters (one per local worker) — clones share the atomic, and
    // shed adds commute.
    let route_shed: Vec<Vec<Counter>> = per_shard
        .iter()
        .map(|ws| {
            ws.iter()
                .map(|w| rs.shed[rs.dispatcher.group_of(w.gpu)].clone())
                .collect()
        })
        .collect();
    let meters = shard_meters(ctx, eff);
    let steals = ctx.registry.counter("serve.route.steals");
    let (up_tx, up_rx) = mpsc::channel::<Up>();
    let (down_txs, down_rxs): (Vec<_>, Vec<_>) = (0..eff).map(|_| mpsc::channel::<Down>()).unzip();

    let done: Vec<(usize, Vec<Worker>)> = thread::scope(|scope| {
        let mut handles = Vec::new();
        for (si, ((mut ws, rx), shed)) in per_shard
            .into_iter()
            .zip(down_rxs)
            .zip(route_shed)
            .enumerate()
        {
            let up_tx = up_tx.clone();
            let (batch_meter, completed_meter) = meters[si].clone();
            handles.push(scope.spawn(move || {
                let mut batches = 0u64;
                let mut completed = 0u64;
                let mut last_end = 0.0f64;
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Down::Quantum { start, end, work } => {
                            last_end = end;
                            let (b, c) =
                                run_shard_loop(ctx, &mut ws, &work, start, Some(end), Some(&shed));
                            batches += b;
                            completed += c;
                            let queue_lens = ws.iter().map(|w| (w.gpu, w.queue.len())).collect();
                            let plan_updates = ws
                                .iter_mut()
                                .filter_map(|w| {
                                    let Worker {
                                        gpu,
                                        policy,
                                        last_plan_version,
                                        ..
                                    } = w;
                                    if let Some((version, feat)) = policy.plan_residency() {
                                        if version != *last_plan_version {
                                            *last_plan_version = version;
                                            return Some((*gpu, version, feat.to_vec()));
                                        }
                                    }
                                    None
                                })
                                .collect();
                            up_tx
                                .send(Up {
                                    queue_lens,
                                    plan_updates,
                                })
                                .expect("coordinator alive");
                        }
                        Down::Finish => break,
                    }
                }
                // End-of-stream drain: whatever is still queued launches
                // with no horizon, but never before the last boundary.
                let (b, c) = run_shard_loop(ctx, &mut ws, &[], last_end, None, Some(&shed));
                batches += b;
                completed += c;
                batch_meter.add(batches);
                completed_meter.add(completed);
                (si, ws)
            }));
        }
        drop(up_tx);

        // The coordinator: per quantum, steal first (parked spills to
        // the least-loaded GPU under projected depths), then route the
        // quantum's arrivals, then hand each shard its work and collect
        // depth / plan reports at the boundary.
        let mut reported = vec![0usize; num_gpus];
        let mut pool: SpillPool<Request> = SpillPool::new();
        let mut next_req = 0usize;
        let mut qstart = 0.0f64;
        loop {
            let qend = qstart + SHARD_QUANTUM;
            let mut work: Vec<Vec<ShardArrival>> = (0..eff).map(|_| Vec::new()).collect();
            let mut proj = reported.clone();
            pool.drain_to(&mut proj, |r, gpu| {
                steals.inc();
                work[map[gpu]].push(ShardArrival {
                    offer_at: qstart,
                    wi: local_index[gpu],
                    req: r,
                });
            });
            while let Some(r) = requests.get(next_req) {
                if r.arrival >= qend {
                    break;
                }
                next_req += 1;
                let dec = rs.decide(ctx.graph, &proj, r);
                if dec.spilled {
                    rs.spilled[dec.group].inc();
                    pool.park(*r);
                } else {
                    rs.routed[dec.group].inc();
                    proj[dec.gpu] += 1;
                    work[map[dec.gpu]].push(ShardArrival {
                        offer_at: r.arrival,
                        wi: local_index[dec.gpu],
                        req: *r,
                    });
                }
            }
            let idle = next_req >= requests.len()
                && pool.is_empty()
                && reported.iter().all(|&l| l == 0)
                && work.iter().all(Vec::is_empty);
            if idle {
                for tx in &down_txs {
                    tx.send(Down::Finish).expect("shard alive");
                }
                break;
            }
            for (tx, w) in down_txs.iter().zip(work) {
                tx.send(Down::Quantum {
                    start: qstart,
                    end: qend,
                    work: w,
                })
                .expect("shard alive");
            }
            // Boundary: collect every shard's report. Updates are keyed
            // by GPU and applied in GPU order, so the nondeterministic
            // channel arrival order cannot leak into the run.
            let mut plan_updates: Vec<(GpuId, u64, Vec<VertexId>)> = Vec::new();
            for _ in 0..eff {
                let up = up_rx.recv().expect("shard reports");
                for (gpu, len) in up.queue_lens {
                    reported[gpu] = len;
                }
                plan_updates.extend(up.plan_updates);
            }
            plan_updates.sort_by_key(|&(gpu, _, _)| gpu);
            for (gpu, _version, feat) in plan_updates {
                let g = rs.dispatcher.group_of(gpu);
                rs.dispatcher.refresh_group(g, &feat);
            }
            qstart = qend;
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    reassemble(workers, done);
}
