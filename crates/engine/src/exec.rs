//! The queue-less executor behind [`Engine::flush`] and every
//! [`crate::Service`] shard drain.
//!
//! The executor owns no queue. Its caller admits requests — the one
//! expiry site ([`Executor::expire`]) and the forced-rejection draw
//! ([`Executor::forced_reject`]) live here, so every admission decision
//! is drawn from the engine's chaos stream and counted in its stats — and
//! then hands the admitted requests, in order, to [`Executor::run`], which
//! resolves each into the caller's completion store.

use std::collections::{HashMap, VecDeque};
use std::mem;
use std::sync::{Arc, MutexGuard};
use std::time::Instant;

use mps_core::{SpmmPlan, SpmvPlan, Workspace};
use mps_simt::Device;
use mps_sparse::{CsrMatrix, DenseBlock};

use crate::batch::{Completions, Op, QueueKey, Request};
use crate::error::{EngineError, TenantId};
use crate::{
    charge_spgemm_exec, charge_spmm_exec, charge_spmv_exec, spgemm_plan_locked, spmm_plan_locked,
    spmv_plan_locked, Engine, EngineConfig, EngineOutput, Inner,
};

/// An engine's execution state, locked for one flush or drain.
pub(crate) struct Executor<'a> {
    device: &'a Device,
    cfg: &'a EngineConfig,
    inner: MutexGuard<'a, Inner>,
}

impl Engine {
    /// Lock the executor state (plan cache, workspace pool, stats, chaos
    /// stream) for one admission-and-execute pass.
    pub(crate) fn executor(&self) -> Executor<'_> {
        Executor {
            device: &self.device,
            cfg: &self.cfg,
            inner: self.inner.lock(),
        }
    }
}

impl Executor<'_> {
    /// Count a refused admission and build its [`EngineError::Overloaded`].
    pub fn overloaded(&mut self, req: &Request, queue_depth: usize, limit: usize) -> EngineError {
        self.inner.stats.rejected_overload += 1;
        if let Some(t) = req.tenant {
            self.inner.stats.tenants.record_overload(t);
        }
        EngineError::Overloaded {
            fingerprint: req.fp,
            queue_depth,
            limit,
            tenant: req.tenant,
        }
    }

    /// The admission-rejection draw: with probability
    /// [`crate::ChaosConfig::reject_submit_p`] the request is refused with
    /// [`EngineError::Overloaded`] whatever its queue depth.
    pub fn forced_reject(
        &mut self,
        req: &Request,
        queue_depth: usize,
        limit: usize,
    ) -> Result<(), EngineError> {
        if !self.inner.chaos.roll(self.cfg.chaos.reject_submit_p) {
            return Ok(());
        }
        self.inner.stats.chaos.forced_rejections += 1;
        Err(self.overloaded(req, queue_depth, limit))
    }

    /// The one expiry site. A deadline-carrying request expires when the
    /// clock has passed its deadline, or forcibly under the chaos schedule
    /// ([`crate::ChaosConfig::deadline_expiry_p`]); the draw is consumed
    /// either way, so the fault stream replays independent of wall-clock
    /// timing. Requests without a deadline draw nothing.
    pub fn expire(&mut self, req: &Request, now: Instant) -> Result<(), EngineError> {
        let Some(deadline) = req.deadline else {
            return Ok(());
        };
        let inner = &mut *self.inner;
        let forced = inner.chaos.roll(self.cfg.chaos.deadline_expiry_p);
        if forced {
            inner.stats.chaos.forced_deadline_expiries += 1;
        }
        if now < deadline && !forced {
            return Ok(());
        }
        inner.stats.rejected_deadline += 1;
        if let Some(t) = req.tenant {
            inner.stats.tenants.record_deadline_miss(t);
        }
        Err(EngineError::DeadlineExceeded { tenant: req.tenant })
    }

    /// Execute admitted requests and resolve each into `done`, then close
    /// `done`'s flush epoch (aging out unclaimed results). Returns the
    /// number of requests executed.
    ///
    /// SpMV/SpMM requests group by matrix in first-seen order and pack,
    /// FIFO within a matrix, into column-tiled traversals of up to
    /// [`EngineConfig::max_batch`] output columns; an oversized request
    /// still runs, alone. Every group is *prepared* in that order — plan
    /// lookup (the cache-storm draw) and workspace checkout (the
    /// pool-exhaustion draw) — and then executes through
    /// [`execute_pipelined`]. SpGEMM requests run after, in arrival order,
    /// each a numeric-only replay of the cached symbolic plan. No step
    /// depends on hash order, so a seeded fault schedule replays exactly.
    pub fn run(&mut self, requests: Vec<Request>, done: &mut Completions) -> usize {
        let executed = requests.len();
        let (device, cfg) = (self.device, self.cfg);
        let inner = &mut *self.inner;
        let mut groups: Vec<Vec<Request>> = Vec::new();
        let mut slot: HashMap<QueueKey, usize> = HashMap::new();
        let mut gemms: Vec<Request> = Vec::new();
        for req in requests {
            if let Op::Gemm { .. } = req.op {
                gemms.push(req);
                continue;
            }
            let i = *slot.entry(QueueKey::of(req.fp, &req.a)).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[i].push(req);
        }
        let mut prepared: Vec<PreparedGroup> = Vec::new();
        for group in groups {
            let mut pack: Vec<Request> = Vec::new();
            let mut cols = 0usize;
            for req in group {
                if !pack.is_empty() && cols + req.cols() > cfg.max_batch {
                    prepared.push(prepare_group(device, cfg, inner, mem::take(&mut pack)));
                    cols = 0;
                }
                cols += req.cols();
                pack.push(req);
            }
            prepared.push(prepare_group(device, cfg, inner, pack));
        }
        execute_pipelined(inner, prepared, done);
        for req in gemms {
            let Op::Gemm { b, fp_b } = &req.op else {
                unreachable!("only SpGEMM requests are set aside");
            };
            let hits_before = inner.stats.cache_hits;
            let plan = spgemm_plan_locked(device, cfg, inner, req.fp, *fp_b, &req.a, b);
            let t0 = Instant::now();
            let c = plan.execute_matrix(&req.a, b);
            inner.stats.requests += 1;
            if let Some(t) = req.tenant {
                let hit = inner.stats.cache_hits > hits_before;
                inner.stats.tenants.record_request(t, hit);
            }
            charge_spgemm_exec(&mut inner.stats, &plan, t0.elapsed());
            done.complete(req.ticket, Ok(EngineOutput::Matrix(c)));
        }
        inner.stats.results_evicted += done.end_flush(cfg.result_ttl_flushes);
        executed
    }
}

/// A group with every admission decision already made: chaos draws
/// consumed, plan resolved from the cache, workspace checked out. What
/// remains — operand assembly and the numeric replay — is draw-free,
/// which is what lets [`execute_pipelined`] overlap groups without
/// perturbing the seeded fault stream.
enum PreparedExec {
    /// A single one-column request (lone vector, or a degenerate
    /// one-column block) dispatched straight through the cached
    /// [`SpmvPlan`]: a k=1 "SpMM" never pays column-tiling overhead, and
    /// since the tiled SpMM computes each column in the SpMV reduction
    /// order, the bits are identical.
    /// `as_block` records the submission kind for the output variant.
    Spmv {
        plan: Arc<SpmvPlan>,
        ticket: u64,
        x: Vec<f64>,
        as_block: bool,
    },
    /// A coalesced group executing as one column-tiled SpMM traversal.
    Spmm {
        plan: Arc<SpmmPlan>,
        group: Vec<Request>,
        k: usize,
    },
}

struct PreparedGroup {
    matrix: Arc<CsrMatrix>,
    ws: Workspace,
    exec: PreparedExec,
}

/// Prepare one same-matrix group: consume its chaos draws (cache storm at
/// plan lookup, pool exhaustion at checkout), resolve the plan, and check
/// out a workspace.
fn prepare_group(
    device: &Device,
    cfg: &EngineConfig,
    inner: &mut Inner,
    mut group: Vec<Request>,
) -> PreparedGroup {
    inner.stats.record_batch(group.len());
    inner.stats.requests += group.len() as u64;
    let matrix = Arc::clone(&group[0].a);
    let fp = group[0].fp;
    let tenants: Vec<TenantId> = group.iter().filter_map(|r| r.tenant).collect();
    let hits_before = inner.stats.cache_hits;
    let exec = if group.len() == 1 && group[0].cols() == 1 {
        let plan = spmv_plan_locked(device, cfg, inner, fp, &matrix);
        let req = group.pop().expect("group of one");
        let (x, as_block) = match req.op {
            Op::Vector(x) => (x, false),
            Op::Block(b) => (b.column(0), true),
            Op::Gemm { .. } => unreachable!("SpGEMM requests never join a group"),
        };
        PreparedExec::Spmv {
            plan,
            ticket: req.ticket,
            x,
            as_block,
        }
    } else {
        let k: usize = group.iter().map(Request::cols).sum();
        let plan = spmm_plan_locked(device, cfg, inner, fp, &matrix, k);
        PreparedExec::Spmm { plan, group, k }
    };
    // One plan lookup served the whole group; every tenant-tagged request
    // in it shares that lookup's hit/miss outcome.
    let hit = inner.stats.cache_hits > hits_before;
    for t in tenants {
        inner.stats.tenants.record_request(t, hit);
    }
    let ws = inner.checkout_ws(&cfg.chaos);
    PreparedGroup { matrix, ws, exec }
}

/// Interleave an SpMM group's operands — vectors as single columns,
/// blocks as row-major column runs — into `buf`. A no-op for SpMV groups
/// (they read their operand vector directly).
fn assemble_operand(g: &PreparedGroup, buf: &mut DenseBlock) {
    let PreparedExec::Spmm { group, k, .. } = &g.exec else {
        return;
    };
    let k = *k;
    buf.reset(g.matrix.num_cols, k);
    let mut c = 0usize;
    for req in group {
        match &req.op {
            Op::Vector(x) => buf.set_column(c, x),
            Op::Block(b) => {
                for r in 0..b.rows {
                    let src = &b.data[r * b.cols..(r + 1) * b.cols];
                    buf.data[r * k + c..r * k + c + b.cols].copy_from_slice(src);
                }
            }
            Op::Gemm { .. } => unreachable!("SpGEMM requests never join a group"),
        }
        c += req.cols();
    }
}

/// Run the prepared groups through a one-stage software pipeline: while
/// group *i*'s numeric replay executes, group *i+1*'s operand columns are
/// assembled into the spare scratch block on the worker pool
/// ([`rayon::join`]), then the buffers swap roles. Execution order — and
/// therefore every output bit — matches a sequential loop exactly; only
/// the assembly cost moves off the critical path. The scratch blocks
/// double-buffer through [`Inner`] so steady-state flushes stay
/// zero-alloc.
fn execute_pipelined(inner: &mut Inner, prepared: Vec<PreparedGroup>, done: &mut Completions) {
    if prepared.is_empty() {
        return;
    }
    let mut cur_x = mem::replace(&mut inner.scratch_x, DenseBlock::zeros(0, 0));
    let mut next_x = mem::replace(&mut inner.scratch_x2, DenseBlock::zeros(0, 0));
    let mut y_blk = mem::replace(&mut inner.scratch_y, DenseBlock::zeros(0, 0));
    let mut queue: VecDeque<PreparedGroup> = prepared.into();
    if let Some(front) = queue.front() {
        assemble_operand(front, &mut cur_x);
    }
    while let Some(mut g) = queue.pop_front() {
        let next = queue.front();
        let matrix = &g.matrix;
        let ws = &mut g.ws;
        let exec = &g.exec;
        let ((ms, spmv_y), ()) = rayon::join(
            || match exec {
                PreparedExec::Spmv { plan, x, .. } => {
                    let mut y = Vec::new();
                    let ms = plan.execute_into(matrix, x, &mut y, ws);
                    (ms, Some(y))
                }
                PreparedExec::Spmm { plan, .. } => {
                    let ms = plan.execute_into(matrix, &cur_x, &mut y_blk, ws);
                    (ms, None)
                }
            },
            || {
                if let Some(n) = next {
                    assemble_operand(n, &mut next_x);
                }
            },
        );
        inner.pool.give_back(g.ws);
        inner.stats.exec_sim_ms += ms;
        match g.exec {
            PreparedExec::Spmv {
                plan,
                ticket,
                as_block,
                ..
            } => {
                charge_spmv_exec(&mut inner.stats, &plan);
                let y = spmv_y.expect("SpMV dispatch produced a vector");
                let out = if as_block {
                    EngineOutput::Block(DenseBlock {
                        rows: y.len(),
                        cols: 1,
                        data: y,
                    })
                } else {
                    EngineOutput::Vector(y)
                };
                done.complete(ticket, Ok(out));
            }
            PreparedExec::Spmm { plan, group, .. } => {
                charge_spmm_exec(&mut inner.stats, &plan);
                let mut c = 0usize;
                for req in group {
                    let w = req.cols();
                    let out = match req.op {
                        Op::Vector(_) => EngineOutput::Vector(y_blk.column(c)),
                        Op::Block(_) => {
                            let y = &y_blk;
                            EngineOutput::Block(DenseBlock::from_fn(y.rows, w, |r, j| {
                                y.get(r, c + j)
                            }))
                        }
                        Op::Gemm { .. } => unreachable!("SpGEMM requests never join a group"),
                    };
                    done.complete(req.ticket, Ok(out));
                    c += w;
                }
            }
        }
        mem::swap(&mut cur_x, &mut next_x);
    }
    inner.scratch_x = cur_x;
    inner.scratch_x2 = next_x;
    inner.scratch_y = y_blk;
}
