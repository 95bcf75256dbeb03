//! `serve`: one closed-loop client against a 2-shard `Service`. The client
//! submits a burst of mixed requests, flushes once, and redeems them all;
//! then it submits the next burst. Kernels are small, so the fingerprint
//! memo, plan-cache lookups, coalescing, DRR drain, pool dispatch and the
//! result store do most of the work. Value writes (`submit_update`) and a
//! few pattern edits (`submit_delta`) ride along, so a read-path gain that
//! costs the write path shows as a loss.
//!
//! Targets are Zipf-weighted over two dozen registered matrices of
//! 5k–50k nonzeros (banded, power-law, stencil, uniform). Each round holds
//! the exact Zipf and op-kind counts in a seeded order, so rounds differ
//! in order and values, never in mix.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mps_core::{apply_delta_reference, CsrDelta};
use mps_engine::{
    Engine, EngineConfig, EngineError, EngineOutput, MatrixHandle, Service, ServiceConfig,
    ServiceStats, ServiceTicket, TenantId,
};
use mps_simt::Device;
use mps_sparse::{gen, CsrMatrix, DenseBlock};

use crate::report::{
    first_bit_mismatch, median, metric, ratio, shuffled_multiset, sim_ms_exact, stratified, Metric,
    Recorder, Rng,
};
use crate::{Opts, Workload};

const TENANT: TenantId = TenantId(1);
const SHARDS: usize = 2;
/// Requests per burst (one flush each).
const BURST: usize = 16;
const BURSTS_PER_ROUND: usize = 64;
const TINY_BURSTS_PER_ROUND: usize = 4;
/// Operand width of the SpMM requests.
const SPMM_K: usize = 4;
/// Distinct operands (and value sets) per matrix.
const SLOTS: usize = 4;
/// Op mix: SpMV, SpMM, value update, pattern delta.
const KIND_WEIGHTS: [f64; 4] = [0.84, 0.10, 0.05, 0.01];
const MATRICES: usize = 24;
/// Coprime with both matrix counts.
const ZIPF_STRIDE: usize = 7;
const TINY_MATRICES: usize = 8;
/// Every `DELTA_EVERY`-th matrix accepts pattern edits.
const DELTA_EVERY: usize = 6;
/// 4 rounds × 1024 ops: p99 has 40 samples beyond it.
const MIN_ROUNDS: u64 = 4;
const TINY_ROUNDS: u64 = 2;

#[derive(Clone, Copy)]
enum Kind {
    Spmv,
    Spmm,
    Update,
    Delta,
}

const KINDS: [Kind; 4] = [Kind::Spmv, Kind::Spmm, Kind::Update, Kind::Delta];

struct Target {
    handle: MatrixHandle,
    /// The client's current snapshot, submitted with every request.
    snap: Arc<CsrMatrix>,
    /// Entry a pattern edit toggles in and out (delta targets only).
    toggle: Option<(u32, u32)>,
    toggled: bool,
    /// Seeded operands and value sets the requests draw from, so staging a
    /// burst is a copy rather than fresh random draws.
    xs: Vec<Vec<f64>>,
    blocks: Vec<DenseBlock>,
    /// One value per nonzero of the edited pattern; an update on the
    /// unedited pattern uses the prefix it needs.
    value_sets: Vec<Vec<f64>>,
}

/// One request of a burst with its inputs, prepared before the timed span.
/// Reads name their operand slot for the reference check.
enum Item {
    Spmv(usize, usize, Vec<f64>),
    Spmm(usize, usize, DenseBlock),
    Update(usize, Vec<f64>),
    Delta(usize, CsrDelta),
}

/// The seeded draw of one target that lands on its planned shard.
pub struct Choice {
    /// Generator draw (earlier draws route to the other shard).
    attempt: usize,
    /// Entry a pattern edit toggles (delta targets only).
    toggle: Option<(u32, u32)>,
}

/// A submitted read and what the reference check needs.
struct Pending {
    ticket: ServiceTicket,
    start: Instant,
    a: Arc<CsrMatrix>,
    key: RefKey,
    target: usize,
    work: f64,
}

/// A reference result's identity: snapshot allocation, operand slot, and
/// whether the read was an SpMM.
type RefKey = (usize, usize, bool);

pub struct Serve {
    svc: Service,
    /// Single-engine reference the service's results must equal bitwise.
    reference: Engine,
    targets: Vec<Target>,
    zipf_counts: Vec<usize>,
    kind_counts: Vec<usize>,
    delta_targets: Vec<usize>,
    bursts_per_round: usize,
    seed: u64,
    min_rounds: u64,
    setup_plan_build_sim_ms: f64,
    sim_seen_ms: f64,
    /// Reference results of live snapshots, each computed once; the
    /// snapshot is held so its address stays unique while cached.
    ref_memo: HashMap<RefKey, (Arc<CsrMatrix>, Vec<f64>)>,
    /// Counters at the end of the deterministic prefix, so they repeat
    /// exactly for a seed.
    prefix_stats: ServiceStats,
}

/// Nonzeros target `i` of `n` aims at: geometric from 5k to 50k.
fn target_nnz(i: usize, n: usize, tiny: bool) -> f64 {
    let lo = if tiny { 500.0 } else { 5_000.0 };
    lo * 10f64.powf(i as f64 / (n - 1) as f64)
}

/// Zipf rank of target `i`: a fixed coprime stride, so hot matrices span
/// every size and family.
fn zipf_rank(i: usize, n: usize) -> usize {
    (i * ZIPF_STRIDE) % n
}

/// Target `i` of `n`; the pattern family cycles banded → power-law →
/// stencil → uniform. `attempt` redraws the pattern (a stencil grows by
/// one row of cells) when the first draw routes to the wrong shard.
fn generate(i: usize, n: usize, seed: u64, tiny: bool, attempt: usize) -> CsrMatrix {
    let nnz = target_nnz(i, n, tiny);
    let s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i + n * attempt) as u64;
    match i % 4 {
        0 => gen::banded((nnz / 16.0) as usize, 16.0, 4.0, 64, s),
        1 => {
            let rows = (nnz / 5.3) as usize;
            gen::power_law(rows, rows, 2, 1.6, (rows / 10).max(64), s)
        }
        2 => {
            let side = (nnz / 5.0).sqrt() as usize;
            gen::stencil_5pt(side, side + attempt)
        }
        _ => {
            let rows = (nnz / 8.0) as usize;
            gen::random_uniform(rows, rows, 8.0, 3.0, s)
        }
    }
}

/// The shard each target must live on: greedy by expected load (Zipf
/// weight × nnz), so every seed splits the work between the shards the
/// same way instead of as its fingerprints happen to fall.
fn planned_shards(n: usize, tiny: bool) -> Vec<usize> {
    let mut by_rank: Vec<usize> = (0..n).collect();
    by_rank.sort_by_key(|&i| zipf_rank(i, n));
    let mut load = [0.0f64; SHARDS];
    let mut shard = vec![0; n];
    for i in by_rank {
        let s = (0..SHARDS)
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            .expect("at least one shard");
        load[s] += target_nnz(i, n, tiny) / (zipf_rank(i, n) + 1) as f64;
        shard[i] = s;
    }
    shard
}

fn matrix_count(opts: &Opts) -> usize {
    if opts.tiny {
        TINY_MATRICES
    } else {
        MATRICES
    }
}

/// An entry absent from `a` whose insertion keeps the pattern on `shard`,
/// so the edited pattern is served by the same warm shard.
fn toggle_entry(svc: &Service, a: &CsrMatrix, shard: usize, rng: &mut Rng) -> (u32, u32) {
    loop {
        let r = rng.below(a.num_rows);
        let c = rng.below(a.num_cols) as u32;
        if a.row_cols(r).binary_search(&c).is_ok() {
            continue;
        }
        let mut on = CsrDelta::new();
        on.upsert(r as u32, c, 1.0);
        let edited = apply_delta_reference(a, &on).expect("in-bounds delta");
        if svc.shard_of(edited.pattern_fingerprint()) == shard {
            return (r as u32, c);
        }
    }
}

/// Widest coalesced traversal a flush can form, hence the SpMM plan
/// widths the rounds need.
fn max_width() -> usize {
    EngineConfig::default().max_batch().max(SPMM_K)
}

/// Default engine, with room for one plan per pattern and traversal
/// width, so every plan the rounds use stays cached.
fn engine_config(patterns: usize) -> EngineConfig {
    EngineConfig::builder()
        .plan_capacity(patterns * max_width())
        .build()
        .expect("valid engine config")
}

impl Serve {
    /// Stage the inputs of one burst, tracking the pattern edits it makes
    /// so value updates carry the nnz they will meet.
    fn prepare(
        &self,
        kinds: &[usize],
        targets: &[usize],
        delta_rr: &mut usize,
        rng: &mut Rng,
    ) -> Vec<Item> {
        let mut toggled: Vec<bool> = self.targets.iter().map(|t| t.toggled).collect();
        kinds
            .iter()
            .zip(targets)
            .map(|(&k, &t)| {
                let target = &self.targets[t];
                let slot = rng.below(SLOTS);
                match KINDS[k] {
                    Kind::Spmv => Item::Spmv(t, slot, target.xs[slot].clone()),
                    Kind::Spmm => Item::Spmm(t, slot, target.blocks[slot].clone()),
                    Kind::Update => {
                        let base = target.snap.nnz() - target.toggled as usize;
                        let values = &target.value_sets[slot][..base + toggled[t] as usize];
                        Item::Update(t, values.to_vec())
                    }
                    Kind::Delta => {
                        let d = self.delta_targets[*delta_rr % self.delta_targets.len()];
                        *delta_rr += 1;
                        let (r, c) = self.targets[d].toggle.expect("delta target");
                        let mut delta = CsrDelta::new();
                        if toggled[d] {
                            delta.remove(r, c);
                        } else {
                            delta.upsert(r, c, 1.0);
                        }
                        toggled[d] = !toggled[d];
                        Item::Delta(d, delta)
                    }
                }
            })
            .collect()
    }

    /// Compare each redeemed result bitwise with the reference engine
    /// serving the same snapshot and operand. References are computed
    /// once per live snapshot and operand slot.
    fn check(
        &mut self,
        pending: Vec<Pending>,
        got: Vec<Result<EngineOutput, EngineError>>,
        rec: &mut Recorder,
    ) {
        let mut missing: Vec<(RefKey, Arc<CsrMatrix>, _)> = Vec::new();
        for p in &pending {
            if self.ref_memo.contains_key(&p.key) || missing.iter().any(|m| m.0 == p.key) {
                continue;
            }
            let (_, slot, spmm) = p.key;
            let target = &self.targets[p.target];
            let ticket = if spmm {
                let b = target.blocks[slot].clone();
                self.reference.submit_spmm(&p.a, b, None)
            } else {
                self.reference
                    .submit_spmv(&p.a, target.xs[slot].clone(), None)
            };
            missing.push((p.key, Arc::clone(&p.a), ticket));
        }
        self.reference.flush();
        for (key, a, ticket) in missing {
            match ticket.and_then(|t| self.reference.take_result(t)) {
                Ok(EngineOutput::Vector(v)) => {
                    self.ref_memo.insert(key, (a, v));
                }
                Ok(EngineOutput::Block(b)) => {
                    self.ref_memo.insert(key, (a, b.data));
                }
                other => rec.fail(format!("serve: reference engine: {:?}", other.err())),
            }
        }
        for (p, g) in pending.iter().zip(got) {
            let want = self.ref_memo.get(&p.key).map_or(&[][..], |(_, w)| &w[..]);
            let mismatch = match g {
                Ok(EngineOutput::Vector(g)) if !p.key.2 => first_bit_mismatch(&g, want),
                Ok(EngineOutput::Block(g)) if p.key.2 => first_bit_mismatch(&g.data, want),
                other => {
                    rec.fail(format!("serve: unexpected result {:?}", other.err()));
                    continue;
                }
            };
            if let Some(at) = mismatch {
                rec.fail(format!(
                    "serve: result differs from the reference engine at {at}"
                ));
            }
        }
        // Forget snapshots the client has moved past.
        let targets = &self.targets;
        self.ref_memo
            .retain(|_, (a, _)| targets.iter().any(|t| Arc::ptr_eq(&t.snap, a)));
    }

    fn sim_total_ms(&self) -> f64 {
        sim_ms_exact(self.svc.stats().aggregate().phases.total_ms())
    }
}

impl Workload for Serve {
    type Choices = Vec<Choice>;
    const TAIL_PERCENTILE: f64 = 99.0;
    /// A round holds the whole op mix.
    const WINDOW_ROUNDS: u64 = 1;

    /// Which draw of each matrix, and which toggled entry, lands on the
    /// planned shard. The number of rejected draws depends on the seed, so
    /// the search is not part of the timed set-up.
    fn choose(opts: &Opts) -> Vec<Choice> {
        let n = matrix_count(opts);
        let cfg = ServiceConfig::builder()
            .shards(SHARDS)
            .build()
            .expect("valid service config");
        let svc = Service::with_config(&Device::titan(), cfg);
        let mut rng = Rng::new(opts.seed).fork(0x70);
        planned_shards(n, opts.tiny)
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let (attempt, a) = (0..)
                    .map(|attempt| (attempt, generate(i, n, opts.seed, opts.tiny, attempt)))
                    .find(|(_, a)| svc.shard_of(a.pattern_fingerprint()) == shard)
                    .expect("some draw lands on the planned shard");
                Choice {
                    attempt,
                    toggle: (i % DELTA_EVERY == 1).then(|| toggle_entry(&svc, &a, shard, &mut rng)),
                }
            })
            .collect()
    }

    fn setup(opts: &Opts, choices: &Vec<Choice>) -> Serve {
        let device = Device::titan();
        let n = matrix_count(opts);
        let patterns = n + n.div_ceil(DELTA_EVERY);
        let cfg = ServiceConfig::builder()
            .shards(SHARDS)
            .engine(engine_config(patterns))
            .build()
            .expect("valid service config");
        let svc = Service::with_config(&device, cfg);
        let mut rng = Rng::new(opts.seed).fork(0x5E);
        let mut targets: Vec<Target> = choices
            .iter()
            .enumerate()
            .map(|(i, choice)| {
                let mut a = generate(i, n, opts.seed, opts.tiny, choice.attempt);
                a.values = rng.vec(a.nnz(), 0.5, 1.5);
                let toggle = choice.toggle;
                let xs = (0..SLOTS).map(|_| rng.vec(a.num_cols, -1.0, 1.0)).collect();
                let blocks = (0..SLOTS)
                    .map(|_| DenseBlock::from_fn(a.num_cols, SPMM_K, |_, _| rng.unit() * 2.0 - 1.0))
                    .collect();
                let value_sets = (0..SLOTS).map(|_| rng.vec(a.nnz() + 1, 0.5, 1.5)).collect();
                let snap = Arc::new(a);
                Target {
                    handle: svc.register(TENANT, &snap),
                    snap,
                    toggle,
                    toggled: false,
                    xs,
                    blocks,
                    value_sets,
                }
            })
            .collect();
        // Warm every plan the rounds use: SpMV and SpMM at each traversal
        // width on each pattern, including the edited pattern of each
        // delta target, on the shard that owns it. One request of each
        // kind warms the workspace pool and the result store.
        let warm = |a: &Arc<CsrMatrix>| {
            let engine = svc.shard_engine(svc.shard_of(a.pattern_fingerprint()));
            engine.spmv_plan(a);
            for k in 2..=max_width() {
                engine.spmm_plan(a, k);
            }
            let x = vec![0.0; a.num_cols];
            let b = DenseBlock::zeros(a.num_cols, SPMM_K);
            let t1 = svc.submit_spmv(TENANT, a, x, None).expect("warm submit");
            let t2 = svc.submit_spmm(TENANT, a, b, None).expect("warm submit");
            svc.flush();
            svc.take_result(t1).expect("warm result");
            svc.take_result(t2).expect("warm result");
        };
        for t in &mut targets {
            warm(&t.snap);
            if let Some((r, c)) = t.toggle {
                let mut on = CsrDelta::new();
                on.upsert(r, c, 1.0);
                svc.submit_delta(TENANT, t.handle, &on).expect("warm delta");
                warm(&svc.matrix(t.handle).expect("registered"));
                let mut off = CsrDelta::new();
                off.remove(r, c);
                svc.submit_delta(TENANT, t.handle, &off)
                    .expect("warm delta");
                t.snap = svc.matrix(t.handle).expect("registered");
            }
        }
        let setup_plan_build_sim_ms = sim_ms_exact(svc.stats().aggregate().plan_build_sim_ms);
        svc.reset_stats();

        let weights: Vec<f64> = (0..n).map(|i| 1.0 / (zipf_rank(i, n) + 1) as f64).collect();
        let bursts_per_round = if opts.tiny {
            TINY_BURSTS_PER_ROUND
        } else {
            BURSTS_PER_ROUND
        };
        let slots = bursts_per_round * BURST;
        Serve {
            svc,
            reference: Engine::with_config(&device, engine_config(patterns)),
            delta_targets: (0..n).filter(|i| i % DELTA_EVERY == 1).collect(),
            targets,
            zipf_counts: stratified(&weights, slots),
            kind_counts: stratified(&KIND_WEIGHTS, slots),
            bursts_per_round,
            seed: opts.seed,
            min_rounds: if opts.tiny { TINY_ROUNDS } else { MIN_ROUNDS },
            setup_plan_build_sim_ms,
            sim_seen_ms: 0.0,
            ref_memo: HashMap::new(),
            prefix_stats: ServiceStats::default(),
        }
    }

    fn min_rounds(&self) -> u64 {
        self.min_rounds
    }

    fn round(&mut self, round: u64, traced: bool, rec: &mut Recorder) -> f64 {
        let mut rng = Rng::new(self.seed).fork(round + 1);
        let targets = shuffled_multiset(&self.zipf_counts, &mut rng);
        let kinds = shuffled_multiset(&self.kind_counts, &mut rng);
        let mut delta_rr = round as usize * self.kind_counts[3];
        let trace = |rec: &mut Recorder, name, d: Duration| {
            if traced {
                rec.span(name, d);
            }
        };
        for burst in 0..self.bursts_per_round {
            let span = burst * BURST..(burst + 1) * BURST;
            let items = self.prepare(
                &kinds[span.clone()],
                &targets[span],
                &mut delta_rr,
                &mut rng,
            );
            let mut pending: Vec<Pending> = Vec::with_capacity(BURST);

            let t_burst = Instant::now();
            for item in items {
                let start = Instant::now();
                match item {
                    Item::Spmv(t, slot, x) => {
                        let a = Arc::clone(&self.targets[t].snap);
                        let work = a.nnz() as f64;
                        match self.svc.submit_spmv(TENANT, &a, x, None) {
                            Ok(ticket) => pending.push(Pending {
                                ticket,
                                start,
                                key: (Arc::as_ptr(&a) as usize, slot, false),
                                a,
                                target: t,
                                work,
                            }),
                            Err(e) => rec.fail(format!("serve: submit_spmv: {e}")),
                        }
                        trace(rec, "service.submit", start.elapsed());
                    }
                    Item::Spmm(t, slot, b) => {
                        let a = Arc::clone(&self.targets[t].snap);
                        let work = (a.nnz() * SPMM_K) as f64;
                        match self.svc.submit_spmm(TENANT, &a, b, None) {
                            Ok(ticket) => pending.push(Pending {
                                ticket,
                                start,
                                key: (Arc::as_ptr(&a) as usize, slot, true),
                                a,
                                target: t,
                                work,
                            }),
                            Err(e) => rec.fail(format!("serve: submit_spmm: {e}")),
                        }
                        trace(rec, "service.submit", start.elapsed());
                    }
                    Item::Update(t, values) => {
                        let target = &mut self.targets[t];
                        match self.svc.submit_update(TENANT, target.handle, values) {
                            Ok(snap) => target.snap = snap,
                            Err(e) => rec.fail(format!("serve: submit_update: {e}")),
                        }
                        let d = start.elapsed();
                        rec.op(d, 0.0);
                        trace(rec, "service.update", d);
                    }
                    Item::Delta(t, delta) => {
                        let target = &mut self.targets[t];
                        let next = self
                            .svc
                            .submit_delta(TENANT, target.handle, &delta)
                            .and_then(|_| self.svc.matrix(target.handle));
                        match next {
                            Ok(snap) => {
                                target.snap = snap;
                                target.toggled = !target.toggled;
                            }
                            Err(e) => rec.fail(format!("serve: submit_delta: {e}")),
                        }
                        let d = start.elapsed();
                        rec.op(d, 0.0);
                        trace(rec, "service.delta", d);
                    }
                }
            }
            let t_flush = Instant::now();
            self.svc.flush();
            trace(rec, "service.flush", t_flush.elapsed());
            let mut got = Vec::with_capacity(pending.len());
            for p in &pending {
                let t_take = Instant::now();
                got.push(self.svc.take_result(p.ticket));
                let end = Instant::now();
                rec.op(end - p.start, p.work);
                trace(rec, "service.take", end - t_take);
            }
            let burst_span = t_burst.elapsed();
            rec.busy_s += burst_span.as_secs_f64();
            trace(rec, "burst", burst_span);

            self.check(pending, got, rec);
        }
        let total = self.sim_total_ms();
        let sim = total - self.sim_seen_ms;
        self.sim_seen_ms = total;
        if round + 1 == self.min_rounds {
            self.prefix_stats = self.svc.stats();
        }
        sim
    }

    fn layers(&mut self, t: &Recorder) -> Vec<Metric> {
        let stats = &self.prefix_stats;
        let agg = stats.aggregate();
        let us = |name: &str| median(t.get(name)) / 1e3;
        let covered: f64 = [
            "service.submit",
            "service.update",
            "service.delta",
            "service.flush",
            "service.take",
        ]
        .iter()
        .map(|n| t.total(n))
        .sum();
        vec![
            metric("service.submit_us", "us", us("service.submit")),
            metric("service.flush_us", "us", us("service.flush")),
            metric("service.take_us", "us", us("service.take")),
            metric("service.update_us", "us", us("service.update")),
            metric("engine.cache_hit_rate", "ratio", agg.cache_hit_rate()),
            metric("engine.batch_mean", "count", agg.mean_batch_size()),
            metric(
                "engine.plan_build_sim_ms",
                "ms",
                self.setup_plan_build_sim_ms + sim_ms_exact(agg.plan_build_sim_ms),
            ),
            metric("engine.pool_reuse_rate", "ratio", agg.pool_reuse_rate()),
            metric(
                "engine.rejections",
                "count",
                (agg.rejected_overload + agg.rejected_deadline + stats.quota_rejections()) as f64,
            ),
            metric(
                "trace.uncovered_share",
                "ratio",
                1.0 - ratio(covered, t.total("burst")),
            ),
        ]
    }

    fn working_set_bytes(&self) -> usize {
        self.targets
            .iter()
            .map(|t| {
                let a = &t.snap;
                a.nnz() * 12 + (a.num_rows + 1) * 8 + (a.num_cols + a.num_rows) * 8 * (1 + SPMM_K)
            })
            .sum()
    }

    fn input_digest(&self) -> u64 {
        self.targets.iter().fold(0xCBF2_9CE4_8422_2325, |h, t| {
            let v0 = t.snap.values.first().map_or(0, |v| v.to_bits());
            (h ^ t.snap.pattern_fingerprint() ^ v0).wrapping_mul(0x0100_0000_01B3)
        })
    }
}
