//! Sharded multi-tenant serving service.
//!
//! The [`crate::Engine`] is one mutex-guarded submit/flush object; this
//! module scales it across threads and tenants:
//!
//! * **Shards** — N independent engines, each with its own plan cache,
//!   workspace pool, and chaos stream (seeds derived per shard, so fault
//!   schedules stay replayable), used as queue-less executors. A
//!   submission routes to the shard owning its matrix's pattern
//!   fingerprint, so one pattern's plans are built exactly once
//!   service-wide and same-pattern requests keep coalescing into shared
//!   traversals.
//! * **Thread-safe submission** — `submit_*` methods take `&self` and
//!   touch only the target shard's injector mutex (fingerprints come from
//!   the lock-free-read [`FingerprintCache`]), so submitters on different
//!   shards never contend and submitters on one shard serialize briefly.
//! * **QoS** — per-tenant pending quotas at submission
//!   ([`EngineError::Overloaded`] with tenant attribution) and
//!   deficit-round-robin draining under overload: each flush spends a
//!   bounded drain budget across backlogged tenants in proportion to
//!   their [`TenantSpec::weight`]. The quota is the only queue limit a
//!   service request meets: once `submit_*` returns `Ok`, the request
//!   waits in its shard's injector and nowhere else.
//! * **Concurrent flush** — [`Service::flush`] drains ready shards in
//!   parallel on the persistent worker pool. Each shard's drain DRR-selects
//!   requests, admits each once (expiry check and forced-rejection draw on
//!   the shard's chaos stream), and hands the admitted ones straight to the
//!   shard engine's executor — the same executor [`Engine::flush`] uses —
//!   so every result is bitwise identical to the single-threaded engine
//!   serving the same requests, and chaos draws are consumed in
//!   deterministic per-shard order.
//!
//! ```
//! use std::sync::Arc;
//! use mps_engine::{Service, TenantId};
//! use mps_simt::Device;
//! use mps_sparse::CsrMatrix;
//!
//! let svc = Service::new(&Device::titan());
//! let a = Arc::new(CsrMatrix::identity(64));
//! let t = svc
//!     .submit_spmv(TenantId(0), &a, vec![1.0; 64], None)
//!     .unwrap();
//! svc.flush();
//! assert_eq!(svc.take_result(t).unwrap().into_vector(), vec![1.0; 64]);
//! ```

mod qos;
mod stats;

pub use qos::TenantSpec;
pub use stats::ServiceStats;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rayon::prelude::*;

use mps_core::{CsrDelta, PlanError};
use mps_simt::Device;
use mps_sparse::{CsrMatrix, DenseBlock};

use crate::batch::{Op, Request};
use crate::error::{EngineError, TenantId};
use crate::fingerprint::FingerprintCache;
use crate::{DeltaOutcome, Engine, EngineConfig, EngineOutput, MatrixHandle};

use qos::ShardState;

/// Shards are packed into the low bits of a [`ServiceTicket`].
const SHARD_BITS: u32 = 16;
const MAX_SHARDS: usize = 1 << SHARD_BITS;

/// Handle to a request submitted through the [`Service`]; redeem with
/// [`Service::take_result`] after a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceTicket(u64);

impl ServiceTicket {
    pub(crate) fn new(seq: u64, shard: usize) -> ServiceTicket {
        ServiceTicket((seq << SHARD_BITS) | shard as u64)
    }

    fn shard(self) -> usize {
        (self.0 & (MAX_SHARDS as u64 - 1)) as usize
    }

    fn raw(self) -> u64 {
        self.0
    }
}

/// Service tuning: shard count, the engine template every shard is built
/// from, per-tenant QoS specs, and the drain budget that bounds how much
/// work one flush admits per shard.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub(crate) shards: usize,
    pub(crate) engine: EngineConfig,
    pub(crate) tenants: BTreeMap<TenantId, TenantSpec>,
    pub(crate) default_spec: TenantSpec,
    pub(crate) drain_budget: usize,
    pub(crate) drain_quantum: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            engine: EngineConfig::default(),
            tenants: BTreeMap::new(),
            default_spec: TenantSpec::default(),
            drain_budget: 256,
            drain_quantum: 1,
        }
    }
}

impl ServiceConfig {
    /// Start a validating builder seeded with the defaults (the only
    /// construction path, like [`EngineConfig::builder`]).
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            cfg: ServiceConfig::default(),
        }
    }

    /// Engine shards the service routes across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The engine template shards are built from (each shard derives its
    /// own chaos seed from this template's).
    pub fn engine(&self) -> &EngineConfig {
        &self.engine
    }

    /// Requests one flush admits to each shard's executor before the rest
    /// of the backlog waits for the next flush.
    pub fn drain_budget(&self) -> usize {
        self.drain_budget
    }

    /// Credits a weight-1 tenant earns per DRR round.
    pub fn drain_quantum(&self) -> u32 {
        self.drain_quantum
    }

    /// The QoS spec for `tenant` (the default spec when unregistered).
    pub fn spec(&self, tenant: TenantId) -> TenantSpec {
        self.tenants
            .get(&tenant)
            .copied()
            .unwrap_or(self.default_spec)
    }

    /// Check the invariants [`Service`] construction relies on.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return Err(EngineError::InvalidConfig(
                "shards must be between 1 and 65536",
            ));
        }
        if self.drain_budget == 0 {
            return Err(EngineError::InvalidConfig(
                "drain_budget must be at least 1",
            ));
        }
        if self.drain_quantum == 0 {
            return Err(EngineError::InvalidConfig(
                "drain_quantum must be at least 1",
            ));
        }
        for spec in self
            .tenants
            .values()
            .chain(std::iter::once(&self.default_spec))
        {
            if spec.weight == 0 {
                return Err(EngineError::InvalidConfig(
                    "tenant weight must be at least 1",
                ));
            }
            if spec.max_pending == 0 {
                return Err(EngineError::InvalidConfig(
                    "tenant max_pending must be at least 1",
                ));
            }
        }
        self.engine.validate()
    }
}

/// Validating builder for [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Engine shards ([`ServiceConfig::shards`]).
    pub fn shards(mut self, n: usize) -> Self {
        self.cfg.shards = n;
        self
    }

    /// Engine template every shard is built from.
    pub fn engine(mut self, cfg: EngineConfig) -> Self {
        self.cfg.engine = cfg;
        self
    }

    /// Register a tenant's QoS spec (weight and pending quota).
    pub fn tenant(mut self, tenant: TenantId, spec: TenantSpec) -> Self {
        self.cfg.tenants.insert(tenant, spec);
        self
    }

    /// QoS spec applied to tenants without a registered one.
    pub fn default_tenant(mut self, spec: TenantSpec) -> Self {
        self.cfg.default_spec = spec;
        self
    }

    /// Per-shard, per-flush admission budget
    /// ([`ServiceConfig::drain_budget`]).
    pub fn drain_budget(mut self, n: usize) -> Self {
        self.cfg.drain_budget = n;
        self
    }

    /// Credits a weight-1 tenant earns per DRR round
    /// ([`ServiceConfig::drain_quantum`]).
    pub fn drain_quantum(mut self, n: u32) -> Self {
        self.cfg.drain_quantum = n;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServiceConfig, EngineError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

struct Shard {
    engine: Engine,
    state: Mutex<ShardState>,
}

/// The sharded serving layer. Shareable across threads (`&Service` is
/// `Sync`): submissions lock only their target shard's injector, flushes
/// drain shards concurrently on the worker pool.
pub struct Service {
    cfg: ServiceConfig,
    shards: Vec<Shard>,
    /// Fingerprint memo for routing and plan keying; requests carry the
    /// memoized value to the shard executors.
    fp: FingerprintCache,
    /// Tenant-scoped handles to registered matrices, mutable through
    /// [`Service::submit_update`] / [`Service::submit_delta`]. The
    /// registry lives above the shards: value mutation preserves the
    /// pattern fingerprint (so the handle keeps routing to the shard
    /// whose caches are warm), while a pattern-changing delta simply
    /// re-routes future submissions by the new fingerprint.
    registry: Mutex<HashMap<u64, (TenantId, Arc<CsrMatrix>)>>,
    next_handle: AtomicU64,
    next_seq: AtomicU64,
    flushes: AtomicU64,
}

impl Service {
    pub fn new(device: &Device) -> Service {
        Service::with_config(device, ServiceConfig::default())
    }

    /// Like [`Service::try_with_config`], but panics on an invalid config.
    pub fn with_config(device: &Device, cfg: ServiceConfig) -> Service {
        Service::try_with_config(device, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct a service, rejecting invalid configs with
    /// [`EngineError::InvalidConfig`].
    pub fn try_with_config(device: &Device, cfg: ServiceConfig) -> Result<Service, EngineError> {
        cfg.validate()?;
        let shards = (0..cfg.shards)
            .map(|i| {
                // Each shard draws faults from its own SplitMix64 stream:
                // the template seed offset by a per-shard golden-ratio
                // stride, so schedules are decorrelated across shards yet
                // replay exactly for a fixed (template seed, shard) pair.
                let mut ec = cfg.engine.clone();
                ec.chaos.seed = ec
                    .chaos
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Ok(Shard {
                    engine: Engine::try_with_config(device, ec)?,
                    state: Mutex::new(ShardState::default()),
                })
            })
            .collect::<Result<Vec<_>, EngineError>>()?;
        Ok(Service {
            cfg,
            shards,
            fp: FingerprintCache::new(),
            registry: Mutex::new(HashMap::new()),
            next_handle: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        })
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a pattern fingerprint routes to.
    pub fn shard_of(&self, fingerprint: u64) -> usize {
        (fingerprint % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard's engine (diagnostics and tests).
    pub fn shard_engine(&self, shard: usize) -> &Engine {
        &self.shards[shard].engine
    }

    /// Requests waiting across all shard injectors.
    pub fn pending_requests(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().total_pending())
            .sum()
    }

    /// Queue an SpMV request for `tenant`. Routed to the shard owning
    /// `a`'s pattern fingerprint; refused with a tenant-attributed
    /// [`EngineError::Overloaded`] when the tenant's pending quota on
    /// that shard ([`TenantSpec::max_pending`]) is full, and with
    /// [`EngineError::Plan`] when `x.len() != a.num_cols`.
    pub fn submit_spmv(
        &self,
        tenant: TenantId,
        a: &Arc<CsrMatrix>,
        x: Vec<f64>,
        deadline: Option<Duration>,
    ) -> Result<ServiceTicket, EngineError> {
        self.submit(tenant, a, Op::Vector(x), deadline)
    }

    /// Queue an SpMM request (dense multi-vector operand) for `tenant`.
    /// Semantics match [`Service::submit_spmv`]; `x` must have
    /// `a.num_cols` rows and at least one column.
    pub fn submit_spmm(
        &self,
        tenant: TenantId,
        a: &Arc<CsrMatrix>,
        x: DenseBlock,
        deadline: Option<Duration>,
    ) -> Result<ServiceTicket, EngineError> {
        self.submit(tenant, a, Op::Block(x), deadline)
    }

    /// Queue an SpGEMM request `a · b` for `tenant`, routed by `a`'s
    /// pattern fingerprint. Semantics match [`Service::submit_spmv`]; `b`
    /// must have `a.num_cols` rows.
    pub fn submit_spgemm(
        &self,
        tenant: TenantId,
        a: &Arc<CsrMatrix>,
        b: &Arc<CsrMatrix>,
        deadline: Option<Duration>,
    ) -> Result<ServiceTicket, EngineError> {
        let op = Op::Gemm {
            b: Arc::clone(b),
            fp_b: self.fp.get(b),
        };
        self.submit(tenant, a, op, deadline)
    }

    /// Register `a` for in-place mutation on behalf of `tenant` and get
    /// a [`MatrixHandle`]. The handle names the evolving matrix:
    /// [`Service::submit_update`] / [`Service::submit_delta`] advance
    /// it, [`Service::matrix`] reads the current snapshot to submit
    /// with. Handles are tenant-scoped — mutations by any other tenant
    /// are refused with [`EngineError::UnknownHandle`].
    pub fn register(&self, tenant: TenantId, a: &Arc<CsrMatrix>) -> MatrixHandle {
        let h = self.next_handle.fetch_add(1, Ordering::Relaxed) + 1;
        self.registry.lock().insert(h, (tenant, Arc::clone(a)));
        MatrixHandle(h)
    }

    /// Current snapshot of a registered matrix (any tenant may read).
    pub fn matrix(&self, h: MatrixHandle) -> Result<Arc<CsrMatrix>, EngineError> {
        self.registry
            .lock()
            .get(&h.0)
            .map(|(_, a)| Arc::clone(a))
            .ok_or(EngineError::UnknownHandle(h.0))
    }

    /// Swap the registered matrix's numeric values in place (one value
    /// per nonzero, CSR order). The pattern fingerprint is preserved, so
    /// the handle keeps routing to the same shard and every plan cached
    /// there replays numeric-only — repeat rounds are value-swap + submit
    /// across all shards with zero rebuilds. Returns the updated
    /// snapshot, ready to submit.
    pub fn submit_update(
        &self,
        tenant: TenantId,
        h: MatrixHandle,
        values: Vec<f64>,
    ) -> Result<Arc<CsrMatrix>, EngineError> {
        let snapshot = {
            let mut reg = self.registry.lock();
            let (owner, arc) = reg.get_mut(&h.0).ok_or(EngineError::UnknownHandle(h.0))?;
            if *owner != tenant {
                return Err(EngineError::UnknownHandle(h.0));
            }
            if values.len() != arc.nnz() {
                return Err(PlanError::ValueLengthMismatch {
                    expected: arc.nnz(),
                    got: values.len(),
                }
                .into());
            }
            Arc::make_mut(arc).values = values;
            Arc::clone(arc)
        };
        let fp = self.fp.get(&snapshot);
        self.shards[self.shard_of(fp)].engine.record_value_update();
        Ok(snapshot)
    }

    /// Apply a [`CsrDelta`] to the registered matrix through the shard
    /// that owns its current fingerprint (union patch below the
    /// engine-config threshold, full rebuild above it — see
    /// [`Engine::submit_delta`]). A pattern-changing delta moves the
    /// handle to a new fingerprint, and future submissions re-route
    /// accordingly; the apply itself is charged to the shard that owned
    /// the pre-delta pattern.
    pub fn submit_delta(
        &self,
        tenant: TenantId,
        h: MatrixHandle,
        delta: &CsrDelta,
    ) -> Result<DeltaOutcome, EngineError> {
        let arc = {
            let reg = self.registry.lock();
            let (owner, arc) = reg.get(&h.0).ok_or(EngineError::UnknownHandle(h.0))?;
            if *owner != tenant {
                return Err(EngineError::UnknownHandle(h.0));
            }
            Arc::clone(arc)
        };
        let fp = self.fp.get(&arc);
        let shard = &self.shards[self.shard_of(fp)];
        let (next, outcome) = shard.engine.apply_delta_snapshot(&arc, delta)?;
        let mut reg = self.registry.lock();
        match reg.get_mut(&h.0) {
            Some((owner, slot)) if *owner == tenant => *slot = next,
            _ => return Err(EngineError::UnknownHandle(h.0)),
        }
        Ok(outcome)
    }

    /// The service's one admission site: the operand-shape check, then
    /// the tenant's quota on the owning shard. A request admitted here is
    /// never refused for queue depth later.
    fn submit(
        &self,
        tenant: TenantId,
        a: &Arc<CsrMatrix>,
        op: Op,
        deadline: Option<Duration>,
    ) -> Result<ServiceTicket, EngineError> {
        let deadline = deadline.map(|d| Instant::now() + d);
        let fp = self.fp.get(a);
        let mut req = Request::new(a, fp, op, deadline, Some(tenant))?;
        let shard_idx = self.shard_of(fp);
        let spec = self.cfg.spec(tenant);
        let mut st = self.shards[shard_idx].state.lock();
        let depth = st.pending_for(tenant);
        if depth >= spec.max_pending {
            st.ledger.record_overload(tenant);
            return Err(EngineError::Overloaded {
                fingerprint: fp,
                queue_depth: depth,
                limit: spec.max_pending,
                tenant: Some(tenant),
            });
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let ticket = ServiceTicket::new(seq, shard_idx);
        req.ticket = ticket.raw();
        st.push(tenant, req);
        Ok(ticket)
    }

    /// Drain every shard — concurrently on the worker pool when it has
    /// threads — and resolve the admitted requests. Returns the number of
    /// requests resolved (results, deadline expiries, and forced
    /// rejections all become redeemable via [`Service::take_result`]).
    pub fn flush(&self) -> usize {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        let n = self.shards.len();
        if n == 1 {
            return self.drain_shard(0);
        }
        let counts: Vec<usize> = (0..n)
            .into_par_iter()
            .with_item_work(rayon::WORK_CUTOFF)
            .map(|i| self.drain_shard(i))
            .collect();
        counts.into_iter().sum()
    }

    /// Drain one shard: DRR-select up to [`ServiceConfig::drain_budget`]
    /// requests across backlogged tenants (weighted by spec), admit each
    /// once — the expiry check, then the forced-rejection draw — and hand
    /// the admitted requests straight to the shard engine's executor,
    /// which resolves them into the shard's completion store. Expired
    /// requests cost neither credit nor budget.
    fn drain_shard(&self, idx: usize) -> usize {
        let shard = &self.shards[idx];
        let mut st = shard.state.lock();
        let mut ex = shard.engine.executor();
        let now = Instant::now();
        let mut budget = self.cfg.drain_budget;
        let mut admitted: Vec<Request> = Vec::new();
        let mut refused = 0usize;
        let tenant_ids = st.tenant_ids();
        loop {
            let mut progressed = false;
            for &tn in &tenant_ids {
                if budget == 0 {
                    break;
                }
                let spec = self.cfg.spec(tn);
                let credit = u64::from(spec.weight) * u64::from(self.cfg.drain_quantum);
                if !st.refill(tn, credit) {
                    continue;
                }
                while budget > 0 {
                    let Some(req) = st.pop(tn) else {
                        break;
                    };
                    progressed = true;
                    let admission = match ex.expire(&req, now) {
                        Err(e) => Err(e),
                        Ok(()) => {
                            st.spend(tn);
                            budget -= 1;
                            ex.forced_reject(&req, st.pending_for(tn), spec.max_pending)
                        }
                    };
                    match admission {
                        Ok(()) => admitted.push(req),
                        Err(e) => {
                            st.done.complete(req.ticket, Err(e));
                            refused += 1;
                        }
                    }
                }
            }
            if !progressed || budget == 0 {
                break;
            }
        }
        st.drained += admitted.len() as u64;
        st.prune();
        refused + ex.run(admitted, &mut st.done)
    }

    /// Redeem a service ticket. Each ticket is redeemable once, after the
    /// flush that resolved it; a ticket still waiting in the injector
    /// returns [`EngineError::NotReady`].
    pub fn take_result(&self, ticket: ServiceTicket) -> Result<EngineOutput, EngineError> {
        let shard = self
            .shards
            .get(ticket.shard())
            .ok_or(EngineError::UnknownTicket(ticket.raw()))?;
        shard.state.lock().redeem(ticket.raw())
    }

    /// Snapshot of the aggregated serving telemetry (per-shard engine
    /// stats plus the service-level quota ledger).
    pub fn stats(&self) -> ServiceStats {
        let mut out = ServiceStats {
            flushes: self.flushes.load(Ordering::Relaxed),
            ..ServiceStats::default()
        };
        for shard in &self.shards {
            let st = shard.state.lock();
            out.service_tenants.merge(&st.ledger);
            out.injected += st.injected;
            out.drained += st.drained;
            out.shards.push(shard.engine.stats());
        }
        out
    }

    /// Zero every shard's telemetry and the service ledgers (e.g. after a
    /// warm-up phase).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.engine.reset_stats();
            let mut st = shard.state.lock();
            st.ledger = crate::stats::TenantTable::default();
            st.injected = 0;
            st.drained = 0;
        }
        self.flushes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;

    fn device() -> Device {
        Device::titan()
    }

    fn operand(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed).wrapping_add(11) % 1000) as f64 / 999.0 - 0.5)
            .collect()
    }

    #[test]
    fn service_results_match_engine_bitwise() {
        let svc = Service::new(&device());
        let engine = Engine::new(&device());
        let mats: Vec<Arc<CsrMatrix>> = (0..6)
            .map(|s| Arc::new(gen::random_uniform(200, 200, 6.0, 2.0, 50 + s)))
            .collect();
        let tenant = TenantId(0);
        let mut pairs = Vec::new();
        for (i, m) in mats.iter().enumerate() {
            let x = operand(m.num_cols, i as u64);
            let want = engine.spmv(m, &x);
            let t = svc.submit_spmv(tenant, m, x, None).expect("admitted");
            pairs.push((t, want));
        }
        assert_eq!(svc.flush(), 6);
        for (t, want) in pairs {
            let got = svc.take_result(t).expect("completed").into_vector();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&got), bits(&want));
        }
        // Six distinct patterns spread across the default four shards.
        let s = svc.stats();
        assert_eq!(s.aggregate().requests, 6);
        assert!(s.shards.iter().filter(|s| s.requests > 0).count() > 1);
    }

    #[test]
    fn quota_rejections_carry_the_tenant() {
        let cfg = ServiceConfig::builder()
            .shards(1)
            .tenant(TenantId(7), TenantSpec::new(1, 2))
            .build()
            .expect("valid");
        let svc = Service::with_config(&device(), cfg);
        let a = Arc::new(gen::random_uniform(100, 100, 4.0, 1.0, 3));
        let x = operand(a.num_cols, 1);
        for _ in 0..2 {
            svc.submit_spmv(TenantId(7), &a, x.clone(), None)
                .expect("within quota");
        }
        match svc.submit_spmv(TenantId(7), &a, x.clone(), None) {
            Err(
                e @ EngineError::Overloaded {
                    queue_depth, limit, ..
                },
            ) => {
                assert_eq!((queue_depth, limit), (2, 2));
                assert_eq!(e.tenant(), Some(TenantId(7)));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Another tenant is unaffected by tenant 7's full quota.
        svc.submit_spmv(TenantId(8), &a, x, None)
            .expect("separate quota");
        // A wrong-length operand is a typed error, not a panic, and never
        // reaches the injector.
        let err = svc
            .submit_spmv(TenantId(8), &a, vec![0.0; a.num_cols + 1], None)
            .expect_err("wrong length");
        assert!(
            matches!(err, EngineError::Plan(PlanError::ShapeMismatch { .. })),
            "{err:?}"
        );
        assert!(err.to_string().contains("operand rejected"), "{err}");
        assert_eq!(svc.pending_requests(), 3);
        assert_eq!(svc.stats().quota_rejections(), 1);
        svc.flush();
        assert_eq!(svc.pending_requests(), 0);
    }

    #[test]
    fn drr_drain_respects_weights_under_overload() {
        // Two tenants, weights 3:1, a drain budget of 8 per flush, and 16
        // pending requests each (2x oversubscription of the budget). The
        // first flush must admit 6 vs 2.
        let cfg = ServiceConfig::builder()
            .shards(1)
            .tenant(TenantId(1), TenantSpec::new(3, 64))
            .tenant(TenantId(2), TenantSpec::new(1, 64))
            .drain_budget(8)
            .build()
            .expect("valid");
        let svc = Service::with_config(&device(), cfg);
        let a = Arc::new(gen::random_uniform(120, 120, 5.0, 2.0, 9));
        let mut tickets: BTreeMap<TenantId, Vec<ServiceTicket>> = BTreeMap::new();
        for tn in [TenantId(1), TenantId(2)] {
            for s in 0..16 {
                let t = svc
                    .submit_spmv(tn, &a, operand(a.num_cols, s), None)
                    .expect("admitted");
                tickets.entry(tn).or_default().push(t);
            }
        }
        assert_eq!(svc.flush(), 8);
        let completed = |tn: TenantId| {
            tickets[&tn]
                .iter()
                .filter(|t| svc.take_result(**t).is_ok())
                .count()
        };
        assert_eq!(completed(TenantId(1)), 6, "weight-3 tenant share");
        assert_eq!(completed(TenantId(2)), 2, "weight-1 tenant share");
        // The rest stay queued for later flushes.
        assert_eq!(svc.pending_requests(), 24);
    }

    #[test]
    fn injector_deadlines_expire_with_attribution() {
        let cfg = ServiceConfig::builder().shards(2).build().expect("valid");
        let svc = Service::with_config(&device(), cfg);
        let a = Arc::new(gen::random_uniform(80, 80, 4.0, 1.0, 5));
        let tn = TenantId(3);
        let t = svc
            .submit_spmv(tn, &a, operand(a.num_cols, 1), Some(Duration::ZERO))
            .expect("admitted");
        assert_eq!(
            svc.take_result(t),
            Err(EngineError::NotReady(t.raw())),
            "queued until a flush"
        );
        assert_eq!(svc.flush(), 1);
        assert_eq!(
            svc.take_result(t),
            Err(EngineError::DeadlineExceeded { tenant: Some(tn) })
        );
        assert_eq!(
            svc.take_result(t),
            Err(EngineError::UnknownTicket(t.raw())),
            "redeemable once"
        );
        // Drain-time expiries are counted by the shard engine, which
        // drew for them; the service ledger holds quota rejections only.
        let s = svc.stats();
        assert_eq!(s.aggregate().tenants.get(tn).deadline_misses, 1);
        assert_eq!(s.service_tenants.get(tn).deadline_misses, 0);
        assert!(s.render().contains("tenant#3"), "{}", s.render());
    }

    #[test]
    fn spgemm_and_spmm_route_through_the_service() {
        let svc = Service::new(&device());
        let engine = Engine::new(&device());
        let a = Arc::new(gen::random_uniform(150, 150, 5.0, 2.0, 11));
        let b = Arc::new(gen::random_uniform(150, 150, 4.0, 2.0, 12));
        let blk = DenseBlock::from_fn(a.num_cols, 3, |r, c| (r * 3 + c) as f64 / 7.0);
        let want_mm = engine.spmm(&a, &blk);
        let want_gm = engine.spgemm(&a, &b);
        let tn = TenantId(0);
        let t_mm = svc
            .submit_spmm(tn, &a, blk.clone(), None)
            .expect("admitted");
        let t_gm = svc.submit_spgemm(tn, &a, &b, None).expect("admitted");
        assert_eq!(svc.flush(), 2);
        assert_eq!(svc.take_result(t_mm).expect("block").into_block(), want_mm);
        assert_eq!(
            svc.take_result(t_gm).expect("matrix").into_matrix(),
            want_gm.c
        );
    }

    #[test]
    fn per_shard_chaos_is_seed_deterministic() {
        let chaos = crate::ChaosConfig {
            seed: 77,
            reject_submit_p: 0.3,
            ..crate::ChaosConfig::default()
        };
        let engine_cfg = EngineConfig::builder().chaos(chaos).build().expect("valid");
        let run = || {
            let cfg = ServiceConfig::builder()
                .shards(2)
                .engine(engine_cfg.clone())
                .build()
                .expect("valid");
            let svc = Service::with_config(&device(), cfg);
            let mats: Vec<Arc<CsrMatrix>> = (0..4)
                .map(|s| Arc::new(gen::random_uniform(90, 90, 4.0, 1.0, 30 + s)))
                .collect();
            let mut outcomes = Vec::new();
            for round in 0..10u64 {
                let m = &mats[(round % 4) as usize];
                let t = svc
                    .submit_spmv(TenantId(0), m, operand(m.num_cols, round), None)
                    .expect("quota admits");
                svc.flush();
                outcomes.push(svc.take_result(t).is_ok());
            }
            outcomes
        };
        assert_eq!(run(), run(), "same seeds must replay the same schedule");
    }

    #[test]
    fn handles_are_tenant_scoped() {
        let svc = Service::new(&device());
        let owner = TenantId(1);
        let intruder = TenantId(2);
        let a = Arc::new(gen::random_uniform(90, 90, 4.0, 1.0, 21));
        let h = svc.register(owner, &a);
        let vals = vec![1.0; a.nnz()];
        assert_eq!(
            svc.submit_update(intruder, h, vals.clone())
                .expect_err("not the owner"),
            EngineError::UnknownHandle(h.raw()),
            "ownership failures must not leak handle existence"
        );
        let mut d = CsrDelta::new();
        d.upsert(0, 0, 1.0);
        assert_eq!(
            svc.submit_delta(intruder, h, &d)
                .expect_err("not the owner"),
            EngineError::UnknownHandle(h.raw())
        );
        // Reads are open; the owner mutates freely.
        assert!(Arc::ptr_eq(&svc.matrix(h).expect("readable"), &a));
        svc.submit_update(owner, h, vals).expect("owner may update");
        svc.submit_delta(owner, h, &d).expect("owner may delta");
    }

    #[test]
    fn value_updates_keep_every_shard_numeric_only() {
        let svc = Service::new(&device());
        let tn = TenantId(0);
        // Enough distinct patterns to exercise more than one shard.
        let handles: Vec<(MatrixHandle, Arc<CsrMatrix>)> = (0..6)
            .map(|s| {
                let a = Arc::new(gen::random_uniform(160, 160, 5.0, 2.0, 70 + s));
                (svc.register(tn, &a), a)
            })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        // Warm-up round builds every plan.
        let mut tickets = Vec::new();
        for (h, a) in &handles {
            let m = svc.matrix(*h).expect("registered");
            tickets.push(
                svc.submit_spmv(tn, &m, operand(a.num_cols, 1), None)
                    .expect("admitted"),
            );
        }
        svc.flush();
        for t in tickets.drain(..) {
            svc.take_result(t).expect("completed");
        }
        svc.reset_stats();
        // Mutation rounds: swap values, resubmit, check against a fresh
        // engine planning the mutated matrix from scratch.
        for round in 2..4u64 {
            let reference = Engine::new(&device());
            let mut expected = Vec::new();
            for (h, a) in &handles {
                let vals: Vec<f64> = (0..a.nnz())
                    .map(|i| (i as f64).mul_add(0.5, round as f64))
                    .collect();
                let snap = svc.submit_update(tn, *h, vals).expect("owner update");
                let x = operand(a.num_cols, round);
                expected.push(reference.spmv(&snap, &x));
                tickets.push(svc.submit_spmv(tn, &snap, x, None).expect("admitted"));
            }
            svc.flush();
            for (t, want) in tickets.drain(..).zip(expected) {
                let got = svc.take_result(t).expect("completed").into_vector();
                assert_eq!(bits(&got), bits(&want));
            }
        }
        let s = svc.stats();
        let agg = s.aggregate();
        assert_eq!(agg.cache_misses, 0, "steady state must be all hits");
        assert_eq!(agg.cache_hits, 12);
        assert_eq!(agg.value_updates, 12);
        assert!(s.shards.iter().filter(|s| s.value_updates > 0).count() > 1);
    }

    #[test]
    fn pattern_changing_deltas_reroute_future_submissions() {
        let svc = Service::new(&device());
        let tn = TenantId(0);
        let a = Arc::new(gen::random_uniform(120, 120, 5.0, 2.0, 31));
        let h = svc.register(tn, &a);
        let mut d = CsrDelta::new();
        // Insert a short dense diagonal: pattern changes, fingerprint moves.
        for i in 0..8u32 {
            d.upsert(i, i, 1.0);
        }
        let out = svc.submit_delta(tn, h, &d).expect("in bounds");
        assert!(out.pattern_changed);
        let got = svc.matrix(h).expect("advanced");
        let want = mps_core::apply_delta_reference(&a, &d).expect("reference");
        assert_eq!(*got, want);
        // The mutated matrix submits and routes by its new fingerprint.
        let t = svc
            .submit_spmv(tn, &got, operand(got.num_cols, 3), None)
            .expect("admitted");
        svc.flush();
        svc.take_result(t).expect("completed");
        let s = svc.stats();
        assert_eq!(s.aggregate().requests, 1);
        let mutated = s.shards.iter().filter(|s| s.delta_applies > 0).count()
            + s.shards.iter().filter(|s| s.delta_fallbacks > 0).count();
        assert_eq!(mutated, 1, "the apply is charged to exactly one shard");
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        for (built, what) in [
            (ServiceConfig::builder().shards(0).build(), "shards"),
            (
                ServiceConfig::builder().drain_budget(0).build(),
                "drain_budget",
            ),
            (
                ServiceConfig::builder().drain_quantum(0).build(),
                "drain_quantum",
            ),
            (
                ServiceConfig::builder()
                    .tenant(TenantId(1), TenantSpec::new(0, 4))
                    .build(),
                "weight",
            ),
            (
                ServiceConfig::builder()
                    .default_tenant(TenantSpec::new(1, 0))
                    .build(),
                "max_pending",
            ),
        ] {
            match built {
                Err(EngineError::InvalidConfig(msg)) => {
                    assert!(msg.contains(what), "{msg} should mention {what}")
                }
                other => panic!("expected InvalidConfig for {what}, got {other:?}"),
            }
        }
    }
}
