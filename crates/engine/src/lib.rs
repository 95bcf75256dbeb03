//! # mps-engine — serving layer over the merge-path plan kernels
//!
//! The plan/execute split in [`mps_core`] makes every structure-dependent
//! phase a one-time cost, but each caller still owns its own plans and
//! workspaces and executes alone. This crate adds the layer a serving
//! system needs on top:
//!
//! * **Plan cache** — a bounded LRU keyed by
//!   [`CsrMatrix::pattern_fingerprint`] (plus operand width for SpMM),
//!   so repeated requests on one sparsity pattern reuse built
//!   `SpmvPlan`/`SpmmPlan`/`SpAddPlan`/`SpgemmPlan` instances instead of
//!   re-partitioning.
//! * **Workspace pool** — checked-out [`Workspace`] arenas, prewarmed to
//!   the pool's recorded high-water marks, keeping steady-state serving
//!   zero-alloc.
//! * **Batching** — concurrent SpMV *and* SpMM submissions on the same
//!   matrix (pattern fingerprint plus `Arc` identity, so same-pattern
//!   matrices with different values never share a traversal) are
//!   coalesced at flush, up to [`EngineConfig::max_batch`] output columns
//!   at a time, into a single column-tiled [`SpmmPlan`] traversal; the
//!   result columns are split back to the submitters as typed
//!   [`EngineOutput`]s. Because the tiled SpMM computes each output
//!   column in exactly the SpMV reduction order (per-column
//!   equivalence), the batched results are **bitwise identical** to
//!   running every request alone. The grouping lives in a queue-less
//!   executor shared with every [`Service`] shard, so a request is queued
//!   once — in the engine's own queue or in a service injector — and
//!   never both.
//! * **Admission control + stats** — bounded per-matrix queue depth
//!   ([`EngineError::Overloaded`]), per-request deadlines
//!   ([`EngineError::DeadlineExceeded`]), typed operand-shape errors
//!   ([`EngineError::Plan`]), and an [`EngineStats`] snapshot covering
//!   cache hit rate, batch-size histogram, pool reuse, simt counters, and
//!   a per-phase ledger of everything the engine simulated.
//!
//! ```
//! use std::sync::Arc;
//! use mps_engine::Engine;
//! use mps_simt::Device;
//! use mps_sparse::CsrMatrix;
//!
//! let engine = Engine::new(&Device::titan());
//! let a = Arc::new(CsrMatrix::identity(64));
//! let x = vec![1.0; 64];
//!
//! // Direct path: plan cached under the pattern fingerprint.
//! let y = engine.spmv(&a, &x);
//! assert_eq!(y, x);
//!
//! // Batched path: submissions coalesce into one SpMM traversal and
//! // redeem as typed outputs.
//! let t0 = engine.submit_spmv(&a, x.clone(), None).unwrap();
//! let t1 = engine.submit_spmv(&a, x.clone(), None).unwrap();
//! engine.flush();
//! assert_eq!(engine.take_result(t0).unwrap().into_vector(), y);
//! assert_eq!(engine.take_result(t1).unwrap().into_vector(), y);
//! ```
//!
//! Configuration goes through a validating builder (the only
//! construction path — fields are private, so every config in the
//! program has passed validation):
//!
//! ```
//! use mps_engine::EngineConfig;
//!
//! let cfg = EngineConfig::builder()
//!     .queue_capacity(128)
//!     .result_ttl_flushes(64)
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.max_queue_depth(), 128);
//! assert!(EngineConfig::builder().queue_capacity(0).build().is_err());
//! ```
//!
//! For multi-threaded serving across many tenants, see [`Service`]: N
//! engine shards keyed by pattern fingerprint, per-tenant quotas, and
//! weighted fair draining under overload.

pub mod advisor;
mod batch;
mod cache;
mod chaos;
mod error;
mod exec;
mod fingerprint;
mod pool;
mod service;
mod stats;

pub use advisor::{AdvisedSpmvPlan, FormatAdvisor, FormatChoice, FormatDecision};
pub use batch::Ticket;
pub use cache::{CachedPlan, PlanKey, PlanKind};
pub use chaos::{ChaosConfig, ChaosCounters};
pub use error::{EngineError, TenantId};
pub use fingerprint::FingerprintCache;
pub use service::{
    Service, ServiceConfig, ServiceConfigBuilder, ServiceStats, ServiceTicket, TenantSpec,
};
pub use stats::{EngineStats, TenantCounters, TenantTable};

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mps_core::{
    apply_delta, apply_delta_reference, CsrDelta, DeltaApplied, PlanError, SpAddConfig, SpAddPlan,
    SpAddResult, SpgemmConfig, SpgemmPlan, SpgemmResult, SpmmConfig, SpmmPlan, SpmvConfig,
    SpmvPlan, Workspace,
};
use mps_simt::{Device, Phase};
use mps_sparse::{CsrMatrix, DenseBlock};

use batch::{Op, Queue, QueueKey, Request};
use cache::PlanCache;
use chaos::ChaosState;
use pool::WorkspacePool;

/// Typed result redeemed from a ticket: vector submissions
/// ([`Engine::submit_spmv`]) resolve to `Vector`, block submissions
/// ([`Engine::submit_spmm`]) to `Block` — regardless of how the flush
/// grouped them into traversals — and SpGEMM submissions
/// ([`Engine::submit_spgemm`]) to `Matrix`.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineOutput {
    Vector(Vec<f64>),
    Block(DenseBlock),
    Matrix(CsrMatrix),
}

impl EngineOutput {
    /// Unwrap a vector result.
    ///
    /// # Panics
    /// Panics if the output is a dense block or a sparse matrix.
    pub fn into_vector(self) -> Vec<f64> {
        match self {
            EngineOutput::Vector(v) => v,
            EngineOutput::Block(b) => panic!(
                "engine output is a {}-column dense block, not a vector",
                b.cols
            ),
            EngineOutput::Matrix(_) => panic!("engine output is a sparse matrix, not a vector"),
        }
    }

    /// Unwrap a dense-block result.
    ///
    /// # Panics
    /// Panics if the output is a vector or a sparse matrix.
    pub fn into_block(self) -> DenseBlock {
        match self {
            EngineOutput::Block(b) => b,
            EngineOutput::Vector(_) => panic!("engine output is a vector, not a dense block"),
            EngineOutput::Matrix(_) => {
                panic!("engine output is a sparse matrix, not a dense block")
            }
        }
    }

    /// Unwrap a sparse-matrix result ([`Engine::submit_spgemm`]).
    ///
    /// # Panics
    /// Panics if the output is a vector or a dense block.
    pub fn into_matrix(self) -> CsrMatrix {
        match self {
            EngineOutput::Matrix(m) => m,
            EngineOutput::Vector(_) => panic!("engine output is a vector, not a sparse matrix"),
            EngineOutput::Block(_) => {
                panic!("engine output is a dense block, not a sparse matrix")
            }
        }
    }
}

/// Per-submission options for the unified `submit_*` surface: tenant
/// attribution, a relative deadline, and a priority slot reserved for
/// priority-aware draining. Build one with the chained setters, or lean
/// on the `From` conversions that keep the historical call shapes
/// compiling unchanged:
///
/// ```
/// use std::time::Duration;
/// use mps_engine::{SubmitOptions, TenantId};
///
/// // The historical third argument still works verbatim:
/// let _: SubmitOptions = None.into();
/// let _: SubmitOptions = Some(Duration::from_millis(5)).into();
/// // The builder adds tenant attribution on the same surface:
/// let o = SubmitOptions::new()
///     .tenant(TenantId(3))
///     .deadline(Duration::from_millis(5));
/// assert_eq!(o.tenant, Some(TenantId(3)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Tenant the request is attributed to in the per-tenant ledger and
    /// in overload/deadline errors. `None` submits unattributed.
    pub tenant: Option<TenantId>,
    /// Relative deadline: a request still queued this long after
    /// submission resolves to [`EngineError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Reserved: recorded but not yet consulted by the flush. Present
    /// so the builder surface is stable when priority-aware draining
    /// lands (higher is more urgent).
    pub priority: u8,
}

impl SubmitOptions {
    pub fn new() -> SubmitOptions {
        SubmitOptions::default()
    }

    /// Attribute the request to `tenant` ([`SubmitOptions::tenant`]).
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Give the request a relative deadline ([`SubmitOptions::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the reserved priority slot ([`SubmitOptions::priority`]).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// The historical `deadline: Option<Duration>` third argument converts
/// directly, so `engine.submit_spmv(&a, x, None)` and
/// `engine.submit_spmv(&a, x, Some(d))` keep compiling.
impl From<Option<Duration>> for SubmitOptions {
    fn from(deadline: Option<Duration>) -> SubmitOptions {
        SubmitOptions {
            deadline,
            ..SubmitOptions::default()
        }
    }
}

impl From<Duration> for SubmitOptions {
    fn from(deadline: Duration) -> SubmitOptions {
        SubmitOptions {
            deadline: Some(deadline),
            ..SubmitOptions::default()
        }
    }
}

/// Typed handle to a matrix registered with [`Engine::register`] (or
/// [`Service::register`]). Streaming callers mutate the registered
/// matrix in place through [`Engine::submit_update`] /
/// [`Engine::submit_delta`] and keep submitting by the current snapshot,
/// so repeat rounds on a fixed pattern are numeric-only: the pattern
/// fingerprint — and with it every cached plan — survives value
/// mutation. Handles are engine-scoped; redeeming one against a
/// different engine returns [`EngineError::UnknownHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixHandle(u64);

impl MatrixHandle {
    /// The raw handle id (diagnostics; handles are engine-scoped).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What [`Engine::submit_delta`] did to the registered matrix. The
/// per-entry counts are tracked only on the union-patch path; a
/// fallback rebuild reports them as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Entries that created a new nonzero.
    pub inserted: usize,
    /// Entries that overwrote an existing nonzero's value.
    pub updated: usize,
    /// Entries that removed an existing nonzero.
    pub removed: usize,
    /// Whether the sparsity pattern changed (any insert or remove). A
    /// value-only delta keeps the pattern fingerprint, so every cached
    /// plan for the pattern stays valid; a pattern change moves the
    /// matrix to a new fingerprint and plans rebuild on next use.
    pub pattern_changed: bool,
    /// Whether the delta exceeded
    /// [`EngineConfig::delta_replan_threshold`] and was applied as a
    /// full COO rebuild instead of a balanced-path union patch.
    pub fallback: bool,
}

/// Engine tuning. The kernel configs must agree on merge granularity
/// (`nv = block_threads * items_per_thread`) between SpMV and SpMM —
/// that shared granularity is what makes a batched SpMM column bitwise
/// equal to the standalone SpMV it replaces.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Plans kept live in the LRU cache.
    pub(crate) plan_capacity: usize,
    /// Pending submissions allowed per matrix in a standalone engine's
    /// queue before [`EngineError::Overloaded`]. Service shards never
    /// consult it: their one admission limit is the tenant quota.
    pub(crate) max_queue_depth: usize,
    /// Output-column budget per coalesced traversal: a flushed group's
    /// payloads (one column per SpMV submission, `x.cols` per SpMM
    /// submission) are packed until the next request would exceed this
    /// many columns. Defaults to the SpMM column tile width, so a full
    /// batch is exactly one reduction+update launch pair. A single
    /// request wider than the budget still runs (alone).
    pub(crate) max_batch: usize,
    /// Unclaimed results (and deadline expiries) are dropped from the
    /// completion store once this many flushes have run after the one
    /// that resolved them, counted in [`EngineStats::results_evicted`].
    /// Bounds the store's growth when callers drop tickets without
    /// redeeming them.
    pub(crate) result_ttl_flushes: u64,
    /// Pattern-delta size cutoff for [`Engine::submit_delta`], as a
    /// fraction of the target matrix's nonzeros. A delta with more
    /// entries than `ceil(threshold * nnz)` skips the balanced-path
    /// union patch and falls back to a full COO rebuild (and therefore a
    /// full replan on next use) — past that size the union walk no
    /// longer beats rebuilding outright.
    pub(crate) delta_replan_threshold: f64,
    /// Seeded deterministic fault injection (disabled by default). See
    /// [`ChaosConfig`] for the injection points and their replay
    /// guarantees.
    pub(crate) chaos: ChaosConfig,
    pub(crate) spmv: SpmvConfig,
    pub(crate) spmm: SpmmConfig,
    pub(crate) spadd: SpAddConfig,
    pub(crate) spgemm: SpgemmConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let spmm = SpmmConfig::default();
        EngineConfig {
            plan_capacity: 32,
            max_queue_depth: 64,
            max_batch: spmm.tile(),
            result_ttl_flushes: 1024,
            delta_replan_threshold: 0.25,
            chaos: ChaosConfig::default(),
            spmv: SpmvConfig::default(),
            spmm,
            spadd: SpAddConfig::default(),
            spgemm: SpgemmConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Start a validating builder seeded with the defaults. This is the
    /// only way to construct a config: fields are private, so every
    /// [`EngineConfig`] in the program has passed [`validate`].
    ///
    /// [`validate`]: EngineConfig::validate
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }

    /// Plans kept live in the LRU cache.
    pub fn plan_capacity(&self) -> usize {
        self.plan_capacity
    }

    /// Pending submissions allowed per matrix in a standalone engine's
    /// queue before [`EngineError::Overloaded`] (unused by [`Service`]
    /// shards, whose admission limit is [`TenantSpec::max_pending`]).
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Output-column budget per coalesced traversal.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Flushes an unclaimed result survives before aging out.
    pub fn result_ttl_flushes(&self) -> u64 {
        self.result_ttl_flushes
    }

    /// Delta-size fraction past which [`Engine::submit_delta`] rebuilds
    /// instead of patching.
    pub fn delta_replan_threshold(&self) -> f64 {
        self.delta_replan_threshold
    }

    /// Seeded deterministic fault injection.
    pub fn chaos(&self) -> &ChaosConfig {
        &self.chaos
    }

    pub fn spmv(&self) -> &SpmvConfig {
        &self.spmv
    }

    pub fn spmm(&self) -> &SpmmConfig {
        &self.spmm
    }

    pub fn spadd(&self) -> &SpAddConfig {
        &self.spadd
    }

    pub fn spgemm(&self) -> &SpgemmConfig {
        &self.spgemm
    }

    /// Check the invariants [`Engine`] construction relies on.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.plan_capacity == 0 {
            return Err(EngineError::InvalidConfig(
                "plan_capacity must be at least 1",
            ));
        }
        if self.max_queue_depth == 0 {
            return Err(EngineError::InvalidConfig(
                "max_queue_depth must be at least 1",
            ));
        }
        if self.max_batch == 0 {
            return Err(EngineError::InvalidConfig("max_batch must be at least 1"));
        }
        if self.result_ttl_flushes == 0 {
            return Err(EngineError::InvalidConfig(
                "result_ttl_flushes must be at least 1",
            ));
        }
        if !self.delta_replan_threshold.is_finite() || self.delta_replan_threshold <= 0.0 {
            return Err(EngineError::InvalidConfig(
                "delta_replan_threshold must be a finite fraction above zero",
            ));
        }
        if !self.chaos.is_valid() {
            return Err(EngineError::InvalidConfig(
                "chaos probabilities must be finite and within [0, 1]",
            ));
        }
        if self.spmv.nv() != self.spmm.nv() {
            return Err(EngineError::InvalidConfig(
                "SpMV and SpMM must share merge granularity for batching equivalence",
            ));
        }
        Ok(())
    }
}

/// Validating builder for [`EngineConfig`]. Prefer this over filling the
/// struct by hand: [`EngineConfigBuilder::build`] rejects zero capacities
/// and mismatched merge granularities with a typed
/// [`EngineError::InvalidConfig`] instead of panicking later at engine
/// construction.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Plans kept live in the LRU cache.
    pub fn plan_capacity(mut self, n: usize) -> Self {
        self.cfg.plan_capacity = n;
        self
    }

    /// Pending submissions allowed per matrix in a standalone engine's
    /// queue ([`EngineConfig::max_queue_depth`]).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.cfg.max_queue_depth = n;
        self
    }

    /// Output-column budget per coalesced traversal
    /// ([`EngineConfig::max_batch`]).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.cfg.max_batch = n;
        self
    }

    /// Flushes an unclaimed result survives before aging out.
    pub fn result_ttl_flushes(mut self, n: u64) -> Self {
        self.cfg.result_ttl_flushes = n;
        self
    }

    /// Delta-size fraction past which [`Engine::submit_delta`] falls back
    /// to a full rebuild ([`EngineConfig::delta_replan_threshold`]).
    pub fn delta_replan_threshold(mut self, f: f64) -> Self {
        self.cfg.delta_replan_threshold = f;
        self
    }

    /// Seeded deterministic fault injection ([`EngineConfig::chaos`]).
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.cfg.chaos = chaos;
        self
    }

    pub fn spmv(mut self, cfg: SpmvConfig) -> Self {
        self.cfg.spmv = cfg;
        self
    }

    pub fn spmm(mut self, cfg: SpmmConfig) -> Self {
        self.cfg.spmm = cfg;
        self
    }

    pub fn spadd(mut self, cfg: SpAddConfig) -> Self {
        self.cfg.spadd = cfg;
        self
    }

    pub fn spgemm(mut self, cfg: SpgemmConfig) -> Self {
        self.cfg.spgemm = cfg;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<EngineConfig, EngineError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

struct Inner {
    cache: PlanCache,
    pool: WorkspacePool,
    stats: EngineStats,
    /// Reusable operand/result blocks for batched flushes (capacity
    /// survives between batches). `scratch_x`/`scratch_x2` double-buffer
    /// the operand so a flush can assemble the next group's columns while
    /// the current group executes.
    scratch_x: DenseBlock,
    scratch_x2: DenseBlock,
    scratch_y: DenseBlock,
    /// Fault-decision stream for [`EngineConfig::chaos`].
    chaos: ChaosState,
    /// Registered matrices mutable through [`MatrixHandle`]s
    /// ([`Engine::register`]): handle id → current snapshot.
    handles: HashMap<u64, Arc<CsrMatrix>>,
    next_handle: u64,
}

impl Inner {
    fn checkout_ws(&mut self, chaos_cfg: &ChaosConfig) -> Workspace {
        if self.chaos.roll(chaos_cfg.pool_exhaust_p) {
            self.pool.exhaust();
            self.stats.chaos.pool_exhaustions += 1;
        }
        let before = self.pool.reuses;
        let ws = self.pool.checkout();
        self.stats.pool_checkouts += 1;
        if self.pool.reuses > before {
            self.stats.pool_reuses += 1;
        }
        ws
    }

    /// Chaos hook run before every plan-cache lookup: with probability
    /// [`ChaosConfig::cache_storm_p`], every cached plan is dropped and
    /// the lookup proceeds against an empty cache. Storm drops count as
    /// cache evictions (that is what callers observe).
    fn maybe_cache_storm(&mut self, chaos_cfg: &ChaosConfig) {
        if self.chaos.roll(chaos_cfg.cache_storm_p) {
            let dropped = self.cache.clear();
            self.stats.cache_evictions += dropped as u64;
            self.stats.chaos.cache_storms += 1;
        }
    }
}

/// The serving engine: one per [`Device`]. Shareable across threads
/// (`&Engine` is `Sync`); all mutable state sits behind one mutex, while
/// kernel executions themselves run outside it on `Arc`-shared plans.
pub struct Engine {
    device: Device,
    cfg: EngineConfig,
    /// Memoized fingerprints of matrices seen on the submit path. Lives
    /// outside the engine mutex (it is internally synchronized) so
    /// concurrent submitters fingerprint without serializing on `inner`.
    fp: FingerprintCache,
    /// Executor state: plan cache, workspace pool, stats, chaos stream.
    inner: Mutex<Inner>,
    /// Requests submitted through [`Engine::submit_spmv`] and friends,
    /// and their results. Locked before `inner` whenever both are held.
    queue: Mutex<Queue>,
}

impl Engine {
    pub fn new(device: &Device) -> Engine {
        Engine::with_config(device, EngineConfig::default())
    }

    /// Like [`Engine::try_with_config`], but panics on an invalid config
    /// (the historical behaviour; the panic message is the
    /// [`EngineError::InvalidConfig`] display text).
    pub fn with_config(device: &Device, cfg: EngineConfig) -> Engine {
        Engine::try_with_config(device, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct an engine, rejecting invalid configs with
    /// [`EngineError::InvalidConfig`] instead of panicking.
    pub fn try_with_config(device: &Device, cfg: EngineConfig) -> Result<Engine, EngineError> {
        cfg.validate()?;
        Ok(Engine {
            device: device.clone(),
            fp: FingerprintCache::new(),
            inner: Mutex::new(Inner {
                cache: PlanCache::new(cfg.plan_capacity),
                pool: WorkspacePool::new(),
                stats: EngineStats::default(),
                scratch_x: DenseBlock::zeros(0, 0),
                scratch_x2: DenseBlock::zeros(0, 0),
                scratch_y: DenseBlock::zeros(0, 0),
                chaos: ChaosState::new(cfg.chaos.seed),
                handles: HashMap::new(),
                next_handle: 0,
            }),
            queue: Mutex::new(Queue::default()),
            cfg,
        })
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Snapshot of the accumulated serving telemetry.
    pub fn stats(&self) -> EngineStats {
        self.inner.lock().stats.clone()
    }

    /// Zero the telemetry (e.g. after a warm-up phase, so steady-state
    /// rates are not diluted by cold misses).
    pub fn reset_stats(&self) {
        self.inner.lock().stats = EngineStats::default();
    }

    /// Check out a workspace arena from the pool (for callers driving
    /// plans themselves, e.g. solvers). Return it with
    /// [`Engine::return_workspace`] so its capacity keeps serving.
    pub fn checkout_workspace(&self) -> Workspace {
        self.inner.lock().checkout_ws(&self.cfg.chaos)
    }

    pub fn return_workspace(&self, ws: Workspace) {
        self.inner.lock().pool.give_back(ws);
    }

    /// Plans currently held live by the LRU cache.
    pub fn cached_plans(&self) -> usize {
        self.inner.lock().cache.len()
    }

    /// Byte footprint a fresh pooled workspace is prewarmed to (the
    /// high-water marks recorded across returned arenas).
    pub fn pool_high_water_bytes(&self) -> usize {
        self.inner.lock().pool.high_water_bytes()
    }

    // ---- plan cache -----------------------------------------------------

    /// Cached SpMV plan for `a`'s sparsity pattern.
    pub fn spmv_plan(&self, a: &CsrMatrix) -> Arc<SpmvPlan> {
        let fp = a.pattern_fingerprint();
        spmv_plan_locked(&self.device, &self.cfg, &mut self.inner.lock(), fp, a)
    }

    /// Cached format-advised SpMV plan for `a`'s sparsity pattern: the
    /// first lookup runs the [`FormatAdvisor`] and builds the chosen
    /// format's plan; every later lookup reuses both decision and plan
    /// from the LRU (no re-advisal).
    pub fn spmv_advised_plan(&self, a: &CsrMatrix) -> Arc<AdvisedSpmvPlan> {
        let fp = a.pattern_fingerprint();
        advised_plan_locked(&self.device, &self.cfg, &mut self.inner.lock(), fp, a)
    }

    /// The advisor's verdict for `a`'s pattern (building and caching the
    /// advised plan if it isn't cached yet).
    pub fn spmv_advice(&self, a: &CsrMatrix) -> FormatDecision {
        self.spmv_advised_plan(a).decision().clone()
    }

    /// Cached SpMM plan for `a`'s pattern at operand width `k`.
    pub fn spmm_plan(&self, a: &CsrMatrix, k: usize) -> Arc<SpmmPlan> {
        let fp = a.pattern_fingerprint();
        spmm_plan_locked(&self.device, &self.cfg, &mut self.inner.lock(), fp, a, k)
    }

    /// Cached SpAdd plan for the pattern pair `(a, b)`.
    pub fn spadd_plan(&self, a: &CsrMatrix, b: &CsrMatrix) -> Arc<SpAddPlan> {
        let key = PlanKey::SpAdd {
            a: a.pattern_fingerprint(),
            b: b.pattern_fingerprint(),
        };
        cached_plan_locked(&self.cfg, &mut self.inner.lock(), key, || {
            CachedPlan::SpAdd(Arc::new(SpAddPlan::new(
                &self.device,
                a,
                b,
                &self.cfg.spadd,
            )))
        })
        .expect_spadd()
    }

    /// Cached SpGEMM plan for the pattern pair `(a, b)`. A miss builds
    /// (and charges) the symbolic half only; numeric replay cost is
    /// charged per execution.
    pub fn spgemm_plan(&self, a: &CsrMatrix, b: &CsrMatrix) -> Arc<SpgemmPlan> {
        let fp_a = a.pattern_fingerprint();
        let fp_b = b.pattern_fingerprint();
        spgemm_plan_locked(
            &self.device,
            &self.cfg,
            &mut self.inner.lock(),
            fp_a,
            fp_b,
            a,
            b,
        )
    }

    // ---- direct (unbatched) execution -----------------------------------

    /// Execute `a · x` through the cached plan and a pooled workspace.
    pub fn spmv(&self, a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let plan = self.spmv_plan(a);
        let mut ws = self.checkout_workspace();
        let mut y = Vec::new();
        let ms = plan.execute_into(a, x, &mut y, &mut ws);
        let mut inner = self.inner.lock();
        inner.pool.give_back(ws);
        inner.stats.requests += 1;
        inner.stats.exec_sim_ms += ms;
        charge_spmv_exec(&mut inner.stats, &plan);
        y
    }

    /// Execute `a · x` through the format-advised cached plan: the
    /// advisor picks merge-path CSR, CMRS, or SELL-C-σ per pattern; the
    /// decision and the chosen plan ride the same LRU entry.
    pub fn spmv_advised(&self, a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let plan = self.spmv_advised_plan(a);
        let mut ws = self.checkout_workspace();
        let mut y = Vec::new();
        let ms = plan.execute_into(a, x, &mut y, &mut ws);
        let mut inner = self.inner.lock();
        inner.pool.give_back(ws);
        inner.stats.requests += 1;
        inner.stats.exec_sim_ms += ms;
        plan.charge_exec(&mut inner.stats);
        y
    }

    /// Execute `a · x` (dense multi-vector operand) through the cached
    /// column-tiled plan.
    pub fn spmm(&self, a: &CsrMatrix, x: &DenseBlock) -> DenseBlock {
        let plan = self.spmm_plan(a, x.cols);
        let mut ws = self.checkout_workspace();
        let mut y = DenseBlock::zeros(0, 0);
        let ms = plan.execute_into(a, x, &mut y, &mut ws);
        let mut inner = self.inner.lock();
        inner.pool.give_back(ws);
        inner.stats.requests += 1;
        inner.stats.exec_sim_ms += ms;
        charge_spmm_exec(&mut inner.stats, &plan);
        y
    }

    /// Execute `a + b` through the cached balanced-path plan.
    pub fn spadd(&self, a: &CsrMatrix, b: &CsrMatrix) -> SpAddResult {
        let plan = self.spadd_plan(a, b);
        let result = plan.execute(&self.device, a, b);
        let mut inner = self.inner.lock();
        inner.stats.requests += 1;
        inner.stats.exec_sim_ms += result.sim_ms();
        inner.stats.totals.add(&result.expand.totals);
        inner.stats.totals.add(&result.union.totals);
        charge_spadd_phases(&mut inner.stats, &plan);
        result
    }

    /// Execute `a · b` through the cached symbolic plan: the first call on
    /// a pattern pair builds (and charges) the symbolic half, every call
    /// pays only the bin-adaptive numeric replay. (Callers that want the
    /// zero-alloc value-only replay should pair [`Engine::spgemm_plan`]
    /// with `execute_numeric` themselves; this convenience path assembles
    /// a full result matrix.)
    pub fn spgemm(&self, a: &CsrMatrix, b: &CsrMatrix) -> SpgemmResult {
        let plan = self.spgemm_plan(a, b);
        let t0 = Instant::now();
        let result = plan.execute(&self.device, a, b);
        let host = t0.elapsed();
        let mut inner = self.inner.lock();
        inner.stats.requests += 1;
        charge_spgemm_exec(&mut inner.stats, &plan, host);
        result
    }

    // ---- batched submission ---------------------------------------------

    /// Queue an SpMV request on `a` for the next [`Engine::flush`].
    ///
    /// Requests on one matrix coalesce at flush — the pattern fingerprint
    /// picks the cached plan, and the `Arc` identity keeps two matrices
    /// sharing a sparsity pattern with different values out of one
    /// traversal.
    ///
    /// `opts` is anything convertible to [`SubmitOptions`]: the
    /// historical `deadline: Option<Duration>` third argument still
    /// works, and the builder adds tenant attribution (overload and
    /// deadline errors carry the tenant, and the request is counted in
    /// the per-tenant ledger, [`EngineStats::tenants`]). A request whose
    /// deadline has passed at flush resolves to
    /// [`EngineError::DeadlineExceeded`] instead of a result; submissions
    /// beyond [`EngineConfig::max_queue_depth`] on one matrix are refused
    /// with [`EngineError::Overloaded`], and an `x` whose length is not
    /// `a.num_cols` with [`EngineError::Plan`].
    pub fn submit_spmv(
        &self,
        a: &Arc<CsrMatrix>,
        x: Vec<f64>,
        opts: impl Into<SubmitOptions>,
    ) -> Result<Ticket, EngineError> {
        self.submit(a, Op::Vector(x), opts.into())
    }

    /// Queue an SpMM request (dense multi-vector operand) on `a` for the
    /// next [`Engine::flush`]. The block's columns coalesce into the same
    /// column-tiled traversal as any vector submissions on `a` queued
    /// around it, and the result redeems as [`EngineOutput::Block`];
    /// because each output column is computed in exactly the standalone
    /// reduction order, the grouping never changes the bits.
    ///
    /// Options and backpressure semantics match [`Engine::submit_spmv`];
    /// `x` must have `a.num_cols` rows and at least one column.
    pub fn submit_spmm(
        &self,
        a: &Arc<CsrMatrix>,
        x: DenseBlock,
        opts: impl Into<SubmitOptions>,
    ) -> Result<Ticket, EngineError> {
        self.submit(a, Op::Block(x), opts.into())
    }

    /// Queue an SpGEMM request `a · b` for the next [`Engine::flush`].
    ///
    /// Requests queue per `(A, B)` matrix pair — the pattern-fingerprint
    /// pair picks the cached symbolic plan ([`PlanKey::Spgemm`]). In a
    /// repeated-pattern steady state (AMG-style re-multiplication after
    /// value updates) every flush serves the request as a numeric-only
    /// replay of the cached symbolic plan; the result redeems as
    /// [`EngineOutput::Matrix`].
    ///
    /// Options and backpressure semantics match [`Engine::submit_spmv`];
    /// `b` must have `a.num_cols` rows.
    pub fn submit_spgemm(
        &self,
        a: &Arc<CsrMatrix>,
        b: &Arc<CsrMatrix>,
        opts: impl Into<SubmitOptions>,
    ) -> Result<Ticket, EngineError> {
        let op = Op::Gemm {
            b: Arc::clone(b),
            fp_b: self.fp.get(b),
        };
        self.submit(a, op, opts.into())
    }

    /// Admission for the standalone queue: the operand-shape check, the
    /// forced-rejection draw, then the per-queue depth limit.
    fn submit(
        &self,
        a: &Arc<CsrMatrix>,
        op: Op,
        opts: SubmitOptions,
    ) -> Result<Ticket, EngineError> {
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        let req = Request::new(a, self.fp.get(a), op, deadline, opts.tenant)?;
        let mut queue = self.queue.lock();
        let depth = queue.depth(req.queue_key());
        let limit = self.cfg.max_queue_depth;
        let mut ex = self.executor();
        ex.forced_reject(&req, depth, limit)?;
        if depth >= limit {
            return Err(ex.overloaded(&req, depth, limit));
        }
        Ok(queue.push(req))
    }

    /// Memoized pattern fingerprint of `a` (thread-safe; see
    /// [`FingerprintCache`]).
    pub fn fingerprint(&self, a: &Arc<CsrMatrix>) -> u64 {
        self.fp.get(a)
    }

    /// SpGEMM requests currently queued behind one `(A, B)` pair.
    pub fn spgemm_queue_depth(&self, a: &Arc<CsrMatrix>, b: &Arc<CsrMatrix>) -> usize {
        let key = (
            QueueKey::of(self.fp.get(a), a),
            Some(QueueKey::of(self.fp.get(b), b)),
        );
        self.queue.lock().depth(key)
    }

    /// Requests currently queued (all matrices).
    pub fn pending_requests(&self) -> usize {
        self.queue.lock().len()
    }

    /// SpMV/SpMM requests currently queued behind one matrix.
    pub fn queue_depth(&self, a: &Arc<CsrMatrix>) -> usize {
        let key = (QueueKey::of(self.fp.get(a), a), None);
        self.queue.lock().depth(key)
    }

    /// Resolve every queued request. Admission runs first, in submission
    /// order: each deadline-carrying request takes its expiry check (the
    /// clock, plus one [`ChaosConfig::deadline_expiry_p`] draw). The
    /// admitted requests then go to the executor, which groups SpMV/SpMM
    /// requests by matrix in first-seen order and coalesces each matrix's
    /// requests — vectors and blocks alike — into column-tiled SpMM
    /// traversals of up to [`EngineConfig::max_batch`] output columns. A
    /// single one-column request dispatches straight through the cached
    /// SpMV plan instead, so it never pays column-tiling overhead.
    /// Groups are prepared in that order (the cache-storm draw at plan
    /// lookup, the pool-exhaustion draw at workspace checkout), then run
    /// through a one-stage software pipeline that assembles group *i+1*'s
    /// operand while group *i* executes. SpGEMM requests run last, each a
    /// numeric-only replay of the cached symbolic plan. Nothing in the
    /// flush depends on hash order, so a `(seed, probabilities)` pair
    /// replays the same fault stream and the same fates.
    ///
    /// Returns the number of requests resolved — results and deadline
    /// expirations both become redeemable via [`Engine::take_result`].
    pub fn flush(&self) -> usize {
        let mut queue = self.queue.lock();
        let mut ex = self.executor();
        let now = Instant::now();
        let mut admitted = Vec::with_capacity(queue.len());
        let mut expired = 0usize;
        for req in queue.take_all() {
            match ex.expire(&req, now) {
                Ok(()) => admitted.push(req),
                Err(e) => {
                    queue.done.complete(req.ticket, Err(e));
                    expired += 1;
                }
            }
        }
        expired + ex.run(admitted, &mut queue.done)
    }

    /// Redeem a ticket issued by one of the `submit_*` methods. Each
    /// ticket is redeemable once, after the flush that resolved it; a
    /// ticket still waiting for a flush returns [`EngineError::NotReady`].
    /// The output variant matches the submission kind: vectors redeem as
    /// [`EngineOutput::Vector`], blocks as [`EngineOutput::Block`],
    /// SpGEMM products as [`EngineOutput::Matrix`].
    pub fn take_result(&self, ticket: Ticket) -> Result<EngineOutput, EngineError> {
        self.queue.lock().redeem(ticket.0)
    }

    // ---- registered matrices & streaming mutation -----------------------

    /// Register `a` for in-place mutation and get a [`MatrixHandle`].
    /// The handle names the *evolving* matrix: [`Engine::submit_update`]
    /// and [`Engine::submit_delta`] advance it, [`Engine::matrix`] reads
    /// the current snapshot for submission. Registering the same `Arc`
    /// twice issues two independent handles.
    pub fn register(&self, a: &Arc<CsrMatrix>) -> MatrixHandle {
        let mut inner = self.inner.lock();
        inner.next_handle += 1;
        let h = inner.next_handle;
        inner.handles.insert(h, Arc::clone(a));
        MatrixHandle(h)
    }

    /// Current snapshot of a registered matrix. Submissions pin the
    /// snapshot by `Arc`, so requests queued before a mutation still
    /// compute against the values they were submitted with.
    pub fn matrix(&self, h: MatrixHandle) -> Result<Arc<CsrMatrix>, EngineError> {
        self.inner
            .lock()
            .handles
            .get(&h.0)
            .cloned()
            .ok_or(EngineError::UnknownHandle(h.0))
    }

    /// Swap the registered matrix's numeric values in place, one value
    /// per existing nonzero in CSR order. The sparsity pattern — and
    /// therefore the pattern fingerprint and every cached plan keyed on
    /// it — is untouched, so the next submission on the handle replays
    /// cached plans numeric-only. Returns the updated snapshot, ready to
    /// submit. Rejected updates ([`EngineError::Plan`]) leave the
    /// registered matrix unchanged.
    pub fn submit_update(
        &self,
        h: MatrixHandle,
        values: Vec<f64>,
    ) -> Result<Arc<CsrMatrix>, EngineError> {
        let mut inner = self.inner.lock();
        let arc = inner
            .handles
            .get_mut(&h.0)
            .ok_or(EngineError::UnknownHandle(h.0))?;
        if values.len() != arc.nnz() {
            return Err(PlanError::ValueLengthMismatch {
                expected: arc.nnz(),
                got: values.len(),
            }
            .into());
        }
        // Clone-on-shared: if queued requests (or the caller) still hold
        // the old snapshot, they keep its values; a uniquely held
        // registration mutates in place with no copy.
        Arc::make_mut(arc).values = values;
        let snapshot = Arc::clone(arc);
        inner.stats.value_updates += 1;
        Ok(snapshot)
    }

    /// Apply a [`CsrDelta`] to the registered matrix. Small deltas (at
    /// most `ceil(`[`EngineConfig::delta_replan_threshold`]` * nnz)`
    /// entries) patch through one balanced-path union pass; larger ones
    /// fall back to a full COO rebuild. Either way the handle advances
    /// to the mutated snapshot (fetch it with [`Engine::matrix`]). A
    /// value-only delta preserves the pattern fingerprint, so cached
    /// plans keep serving; inserts or removes move the handle to a new
    /// fingerprint and plans rebuild on next use. Consumes no chaos
    /// draws, so fault schedules of submit/flush workloads replay
    /// unchanged around mutations.
    pub fn submit_delta(
        &self,
        h: MatrixHandle,
        delta: &CsrDelta,
    ) -> Result<DeltaOutcome, EngineError> {
        let arc = self.matrix(h)?;
        let (next, outcome) = self.apply_delta_snapshot(&arc, delta)?;
        // Last write wins under concurrent mutation of one handle, like
        // submit_update.
        self.inner.lock().handles.insert(h.0, next);
        Ok(outcome)
    }

    /// Delta-apply a snapshot without touching the handle registry,
    /// charging this engine's stats. Shared with the [`Service`], whose
    /// registry lives above the shards.
    pub(crate) fn apply_delta_snapshot(
        &self,
        arc: &Arc<CsrMatrix>,
        delta: &CsrDelta,
    ) -> Result<(Arc<CsrMatrix>, DeltaOutcome), EngineError> {
        let limit = (self.cfg.delta_replan_threshold * arc.nnz() as f64).ceil() as usize;
        if delta.len() > limit {
            let c = apply_delta_reference(arc, delta)?;
            let pattern_changed = c.pattern_fingerprint() != arc.pattern_fingerprint();
            self.inner.lock().stats.delta_fallbacks += 1;
            return Ok((
                Arc::new(c),
                DeltaOutcome {
                    pattern_changed,
                    fallback: true,
                    ..DeltaOutcome::default()
                },
            ));
        }
        let applied = apply_delta(&self.device, arc, delta, &self.cfg.spadd)?;
        let mut inner = self.inner.lock();
        inner.stats.delta_applies += 1;
        charge_delta_apply(&mut inner.stats, &applied);
        drop(inner);
        let outcome = DeltaOutcome {
            inserted: applied.inserted,
            updated: applied.updated,
            removed: applied.removed,
            pattern_changed: applied.pattern_changed(),
            fallback: false,
        };
        Ok((Arc::new(applied.c), outcome))
    }

    /// Count one value update against this engine's stats (the service
    /// path, whose handle registry lives above the shards).
    pub(crate) fn record_value_update(&self) {
        self.inner.lock().stats.value_updates += 1;
    }
}

fn record_lookup(stats: &mut EngineStats, hit: bool, evicted: bool) {
    if hit {
        stats.cache_hits += 1;
    } else {
        stats.cache_misses += 1;
    }
    if evicted {
        stats.cache_evictions += 1;
    }
}

/// Accumulate one executed SpMV replay into totals and the phase ledger.
pub(crate) fn charge_spmv_exec(stats: &mut EngineStats, plan: &SpmvPlan) {
    let r = plan.reduction_stats();
    let u = plan.update_stats();
    stats.totals.add(&r.totals);
    stats.totals.add(&u.totals);
    stats
        .phases
        .charge(Phase::Reduction, r.sim_ms, r.totals.dram_bytes());
    stats
        .phases
        .charge(Phase::Update, u.sim_ms, u.totals.dram_bytes());
}

/// Accumulate one executed SpMM replay into totals and the phase ledger.
/// Both launches of the column-tiled traversal are charged to the SpMM
/// tile-traversal phase.
fn charge_spmm_exec(stats: &mut EngineStats, plan: &SpmmPlan) {
    let r = plan.reduction_stats();
    let u = plan.update_stats();
    stats.totals.add(&r.totals);
    stats.totals.add(&u.totals);
    stats
        .phases
        .charge(Phase::TileTraversal, r.sim_ms, r.totals.dram_bytes());
    stats
        .phases
        .charge(Phase::TileTraversal, u.sim_ms, u.totals.dram_bytes());
}

/// Charge an SpAdd plan's phases (expand, then the balanced-path
/// partition/count/fill of the union) to the ledger. Used at build and —
/// because execution replays exactly these launches — per execution.
fn charge_spadd_phases(stats: &mut EngineStats, plan: &SpAddPlan) {
    let e = plan.expand_stats();
    stats
        .phases
        .charge(Phase::Expand, e.sim_ms, e.totals.dram_bytes());
    let u = plan.union_stats();
    stats.phases.charge(
        Phase::Partition,
        u.partition.sim_ms,
        u.partition.totals.dram_bytes(),
    );
    stats
        .phases
        .charge(Phase::Count, u.count.sim_ms, u.count.totals.dram_bytes());
    stats
        .phases
        .charge(Phase::Fill, u.fill.sim_ms, u.fill.totals.dram_bytes());
}

/// Charge one balanced-path delta apply ([`Engine::submit_delta`]'s
/// union patch) — the same expand/partition/count/fill launches an
/// SpAdd execution pays, with the delta's resolved entries as the second
/// operand.
fn charge_delta_apply(stats: &mut EngineStats, d: &DeltaApplied) {
    stats.exec_sim_ms += d.sim_ms();
    stats
        .phases
        .charge(Phase::Expand, d.expand.sim_ms, d.expand.totals.dram_bytes());
    stats.totals.add(&d.expand.totals);
    let u = &d.union;
    stats.phases.charge(
        Phase::Partition,
        u.partition.sim_ms,
        u.partition.totals.dram_bytes(),
    );
    stats
        .phases
        .charge(Phase::Count, u.count.sim_ms, u.count.totals.dram_bytes());
    stats
        .phases
        .charge(Phase::Fill, u.fill.sim_ms, u.fill.totals.dram_bytes());
    stats.totals.add(&u.partition.totals);
    stats.totals.add(&u.count.totals);
    stats.totals.add(&u.fill.totals);
}

/// Accumulate one executed SpGEMM numeric replay (a value-only pass over
/// a cached symbolic plan) into the split counters, totals, and ledger.
fn charge_spgemm_exec(stats: &mut EngineStats, plan: &SpgemmPlan, host: Duration) {
    let ms = plan.numeric_ms();
    stats.exec_sim_ms += ms;
    stats.spgemm_numeric_execs += 1;
    stats.spgemm_numeric_sim_ms += ms;
    stats.spgemm_numeric_host_ms += host.as_secs_f64() * 1e3;
    stats.totals.add(&plan.numeric_launch_stats().totals);
    stats.phases.merge(plan.numeric_ledger());
}

/// Generic plan-cache lookup under the engine lock: one cache-storm
/// draw, one recency-tracked lookup, and — on a miss — one call into
/// [`CachedPlan::charge_build`], which knows what every plan kind pays
/// at build time. The typed wrappers below only choose the key and the
/// build closure; none of them match on plan variants anymore.
fn cached_plan_locked(
    cfg: &EngineConfig,
    inner: &mut Inner,
    key: PlanKey,
    build: impl FnOnce() -> CachedPlan,
) -> CachedPlan {
    inner.maybe_cache_storm(&cfg.chaos);
    let t0 = Instant::now();
    let l = inner.cache.get_or_insert_with(key, build);
    record_lookup(&mut inner.stats, l.hit, l.evicted);
    if !l.hit {
        l.plan.charge_build(&mut inner.stats, t0.elapsed());
    }
    l.plan
}

/// Cache lookup for an SpGEMM symbolic plan keyed on the pattern-
/// fingerprint pair. A miss builds the plan (host wall-clock timed) and
/// charges only the symbolic half — setup, block sort, global sort, CSR
/// assembly — to `plan_build_sim_ms` and the ledger; the numeric side is
/// charged per execution by [`charge_spgemm_exec`].
fn spgemm_plan_locked(
    device: &Device,
    cfg: &EngineConfig,
    inner: &mut Inner,
    fp_a: u64,
    fp_b: u64,
    a: &CsrMatrix,
    b: &CsrMatrix,
) -> Arc<SpgemmPlan> {
    cached_plan_locked(cfg, inner, PlanKey::Spgemm { a: fp_a, b: fp_b }, || {
        CachedPlan::Spgemm(Arc::new(SpgemmPlan::new(device, a, b, &cfg.spgemm)))
    })
    .expect_spgemm()
}

fn spmv_plan_locked(
    device: &Device,
    cfg: &EngineConfig,
    inner: &mut Inner,
    fp: u64,
    a: &CsrMatrix,
) -> Arc<SpmvPlan> {
    cached_plan_locked(cfg, inner, PlanKey::Spmv { pattern: fp }, || {
        CachedPlan::Spmv(Arc::new(SpmvPlan::new(device, a, &cfg.spmv)))
    })
    .expect_spmv()
}

/// Advised-plan lookup under the engine lock. Mirrors
/// [`cached_plan_locked`] but keeps the hit/miss split visible so cached
/// re-uses count as `advice_hits` — the "0 re-advisals at steady state"
/// signal the format bench gates on.
fn advised_plan_locked(
    device: &Device,
    cfg: &EngineConfig,
    inner: &mut Inner,
    fp: u64,
    a: &CsrMatrix,
) -> Arc<AdvisedSpmvPlan> {
    inner.maybe_cache_storm(&cfg.chaos);
    let l = inner
        .cache
        .get_or_insert_with(PlanKey::AdvisedSpmv { pattern: fp }, || {
            CachedPlan::Advised(Arc::new(AdvisedSpmvPlan::new(
                device,
                a,
                &cfg.spmv,
                &FormatAdvisor::default(),
            )))
        });
    record_lookup(&mut inner.stats, l.hit, l.evicted);
    if l.hit {
        inner.stats.advice_hits += 1;
    } else {
        l.plan.charge_build(&mut inner.stats, Duration::ZERO);
    }
    l.plan.expect_advised()
}

fn spmm_plan_locked(
    device: &Device,
    cfg: &EngineConfig,
    inner: &mut Inner,
    fp: u64,
    a: &CsrMatrix,
    k: usize,
) -> Arc<SpmmPlan> {
    cached_plan_locked(cfg, inner, PlanKey::Spmm { pattern: fp, k }, || {
        CachedPlan::Spmm(Arc::new(SpmmPlan::new(device, a, k, &cfg.spmm)))
    })
    .expect_spmm()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;

    fn device() -> Device {
        Device::titan()
    }

    fn matrix() -> Arc<CsrMatrix> {
        Arc::new(gen::random_uniform(300, 300, 9.0, 3.0, 7))
    }

    fn operand(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed).wrapping_add(11) % 1000) as f64 / 999.0 - 0.5)
            .collect()
    }

    #[test]
    fn direct_spmv_hits_cache_on_repeat() {
        let e = Engine::new(&device());
        let a = matrix();
        let x = operand(a.num_cols, 3);
        let y1 = e.spmv(&a, &x);
        let y2 = e.spmv(&a, &x);
        assert_eq!(y1, y2);
        let s = e.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(s.pool_checkouts, 2);
        assert_eq!(s.pool_reuses, 1);
        assert_eq!(s.requests, 2);
        assert!(s.exec_sim_ms > 0.0);
        assert!(s.plan_build_sim_ms > 0.0);
        assert_eq!(e.cached_plans(), 1);
        assert!(
            e.pool_high_water_bytes() > 0,
            "returned arena recorded marks"
        );
    }

    #[test]
    fn batched_results_are_bitwise_equal_to_sequential() {
        let e = Engine::new(&device());
        let a = matrix();
        let sequential: Vec<Vec<f64>> = (0..5)
            .map(|s| e.spmv(&a, &operand(a.num_cols, s)))
            .collect();
        let tickets: Vec<Ticket> = (0..5)
            .map(|s| {
                e.submit_spmv(&a, operand(a.num_cols, s), None)
                    .expect("admitted")
            })
            .collect();
        assert_eq!(e.pending_requests(), 5);
        assert_eq!(e.flush(), 5);
        assert_eq!(e.pending_requests(), 0);
        for (t, want) in tickets.into_iter().zip(&sequential) {
            let got = e.take_result(t).expect("completed").into_vector();
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits);
        }
        let s = e.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_requests, 5);
        assert!(s.totals.dram_wide_bytes > 0, "batched path is column-tiled");
    }

    #[test]
    fn oversized_waves_split_into_max_batch_groups() {
        let cfg = EngineConfig::builder()
            .max_batch(4)
            .build()
            .expect("valid config");
        let e = Engine::with_config(&device(), cfg);
        let a = matrix();
        let tickets: Vec<Ticket> = (0..9)
            .map(|s| {
                e.submit_spmv(&a, operand(a.num_cols, s), None)
                    .expect("admitted")
            })
            .collect();
        assert_eq!(e.flush(), 9);
        for t in tickets {
            e.take_result(t).expect("completed");
        }
        let s = e.stats();
        assert_eq!(s.batches, 3);
        assert_eq!(s.batch_histogram, vec![0, 1, 0, 0, 2]); // 4 + 4 + 1
    }

    #[test]
    fn queue_depth_backpressure_rejects_with_overloaded() {
        let cfg = EngineConfig::builder()
            .queue_capacity(2)
            .build()
            .expect("valid config");
        let e = Engine::with_config(&device(), cfg);
        let a = matrix();
        let x = operand(a.num_cols, 1);
        e.submit_spmv(&a, x.clone(), None).expect("admitted");
        e.submit_spmv(&a, x.clone(), None).expect("admitted");
        assert_eq!(e.queue_depth(&a), 2);
        match e.submit_spmv(&a, x.clone(), None) {
            Err(EngineError::Overloaded {
                queue_depth, limit, ..
            }) => assert_eq!((queue_depth, limit), (2, 2)),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(e.stats().rejected_overload, 1);
        // Operands that do not fit the matrix are a typed error, not a
        // panic, and never reach the queue.
        let short = e.submit_spmv(&a, vec![1.0; a.num_cols - 1], None);
        assert!(
            matches!(
                short,
                Err(EngineError::Plan(PlanError::ShapeMismatch { .. }))
            ),
            "{short:?}"
        );
        let empty = e.submit_spmm(&a, DenseBlock::zeros(a.num_cols, 0), None);
        assert!(matches!(empty, Err(EngineError::Plan(_))), "{empty:?}");
        let b = Arc::new(gen::random_uniform(a.num_cols + 1, 4, 2.0, 1.0, 5));
        let inner = e.submit_spgemm(&a, &b, None);
        assert!(matches!(inner, Err(EngineError::Plan(_))), "{inner:?}");
        assert_eq!(e.pending_requests(), 2);
        assert_eq!(e.stats().rejected_overload, 1);
        // Flushing drains the queue and readmits.
        e.flush();
        e.submit_spmv(&a, x, None).expect("admitted after flush");
    }

    #[test]
    fn expired_deadline_resolves_to_typed_error() {
        let e = Engine::new(&device());
        let a = matrix();
        let t_expired = e
            .submit_spmv(&a, operand(a.num_cols, 1), Some(Duration::ZERO))
            .expect("admitted");
        let t_live = e
            .submit_spmv(&a, operand(a.num_cols, 2), Some(Duration::from_secs(3600)))
            .expect("admitted");
        assert_eq!(e.flush(), 2);
        assert_eq!(
            e.take_result(t_expired),
            Err(EngineError::DeadlineExceeded { tenant: None })
        );
        assert!(e.take_result(t_live).is_ok());
        assert_eq!(e.stats().rejected_deadline, 1);
    }

    #[test]
    fn tickets_redeem_once_and_unknown_tickets_error() {
        let e = Engine::new(&device());
        let a = matrix();
        let t = e
            .submit_spmv(&a, operand(a.num_cols, 1), None)
            .expect("admitted");
        e.flush();
        assert!(e.take_result(t).is_ok());
        assert_eq!(e.take_result(t), Err(EngineError::UnknownTicket(t.0)));
    }

    #[test]
    fn same_pattern_different_values_never_share_a_batch() {
        // Reviewer repro: identity(4) and 2*identity(4) share a sparsity
        // pattern (and a cached plan) but must not share a queue, or the
        // second submission computes with the first matrix's values.
        let e = Engine::new(&device());
        let a = Arc::new(CsrMatrix::identity(4));
        let mut doubled = CsrMatrix::identity(4);
        doubled.values = vec![2.0; 4];
        let b = Arc::new(doubled);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let ta = e.submit_spmv(&a, x.clone(), None).expect("admitted");
        let tb = e.submit_spmv(&b, x.clone(), None).expect("admitted");
        assert_eq!(e.queue_depth(&a), 1);
        assert_eq!(e.queue_depth(&b), 1);
        assert_eq!(e.flush(), 2);
        assert_eq!(e.take_result(ta).expect("a result").into_vector(), x);
        assert_eq!(
            e.take_result(tb).expect("b result").into_vector(),
            vec![2.0, 4.0, 6.0, 8.0]
        );
        // Distinct queues → two single-request batches, one shared plan.
        let s = e.stats();
        assert_eq!(s.batches, 2);
        assert_eq!((s.cache_misses, s.cache_hits), (1, 1));
    }

    #[test]
    fn pending_ticket_is_not_ready_until_flushed() {
        let e = Engine::new(&device());
        let a = matrix();
        let t = e
            .submit_spmv(&a, operand(a.num_cols, 1), None)
            .expect("admitted");
        assert_eq!(e.take_result(t), Err(EngineError::NotReady(t.0)));
        e.flush();
        assert!(e.take_result(t).is_ok());
    }

    #[test]
    fn unclaimed_results_age_out_of_completion_store() {
        let cfg = EngineConfig::builder()
            .result_ttl_flushes(2)
            .build()
            .expect("valid config");
        let e = Engine::with_config(&device(), cfg);
        let a = matrix();
        let t = e
            .submit_spmv(&a, operand(a.num_cols, 1), None)
            .expect("admitted");
        assert_eq!(e.flush(), 1);
        // The unclaimed result stays redeemable until `result_ttl_flushes`
        // further flushes have completed…
        e.flush();
        assert_eq!(e.stats().results_evicted, 0);
        // …then ages out.
        e.flush();
        assert_eq!(e.stats().results_evicted, 1);
        assert_eq!(e.take_result(t), Err(EngineError::UnknownTicket(t.0)));
    }

    #[test]
    fn fingerprint_memo_avoids_rehash_but_not_correctness() {
        let e = Engine::new(&device());
        let a = matrix();
        let b = Arc::new(gen::random_uniform(200, 300, 5.0, 2.0, 13));
        let ta = e
            .submit_spmv(&a, operand(a.num_cols, 1), None)
            .expect("admitted");
        let tb = e
            .submit_spmv(&b, operand(b.num_cols, 2), None)
            .expect("admitted");
        e.flush();
        assert_eq!(
            e.take_result(ta).expect("a result").into_vector().len(),
            a.num_rows
        );
        assert_eq!(
            e.take_result(tb).expect("b result").into_vector().len(),
            b.num_rows
        );
        // Separate queues → separate single-request batches.
        assert_eq!(e.stats().batches, 2);
    }

    #[test]
    fn spmm_spadd_spgemm_share_the_cache() {
        let e = Engine::new(&device());
        let a = gen::random_uniform(120, 120, 6.0, 2.0, 3);
        let b = gen::random_uniform(120, 120, 6.0, 2.0, 4);
        let x = DenseBlock::from_fn(120, 3, |r, c| (r * 3 + c) as f64);
        let y1 = e.spmm(&a, &x);
        let y2 = e.spmm(&a, &x);
        assert_eq!(y1, y2);
        let c1 = e.spadd(&a, &b);
        let c2 = e.spadd(&a, &b);
        assert_eq!(c1.c, c2.c);
        let g1 = e.spgemm(&a, &b);
        let g2 = e.spgemm(&a, &b);
        assert_eq!(g1.c, g2.c);
        let s = e.stats();
        assert_eq!(s.cache_misses, 3);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.requests, 6);
    }

    #[test]
    fn builder_validates_and_builds() {
        let cfg = EngineConfig::builder()
            .plan_capacity(8)
            .queue_capacity(16)
            .max_batch(4)
            .result_ttl_flushes(7)
            .build()
            .expect("valid config");
        assert_eq!(cfg.plan_capacity(), 8);
        assert_eq!(cfg.max_queue_depth(), 16);
        assert_eq!(cfg.max_batch(), 4);
        assert_eq!(cfg.result_ttl_flushes(), 7);

        for (built, what) in [
            (
                EngineConfig::builder().plan_capacity(0).build(),
                "plan_capacity",
            ),
            (
                EngineConfig::builder().queue_capacity(0).build(),
                "max_queue_depth",
            ),
            (EngineConfig::builder().max_batch(0).build(), "max_batch"),
            (
                EngineConfig::builder().result_ttl_flushes(0).build(),
                "result_ttl_flushes",
            ),
        ] {
            match built {
                Err(EngineError::InvalidConfig(msg)) => {
                    assert!(msg.contains(what), "{msg} should mention {what}")
                }
                other => panic!("expected InvalidConfig for {what}, got {other:?}"),
            }
        }
        // Construction re-validates too (defense in depth — the struct
        // literal is only reachable inside this crate).
        assert!(Engine::try_with_config(
            &device(),
            EngineConfig {
                max_batch: 0,
                ..EngineConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn submit_spmm_coalesces_with_vectors_bitwise_identically() {
        let e = Engine::new(&device());
        let a = matrix();
        let block =
            DenseBlock::from_fn(a.num_cols, 3, |r, c| operand(a.num_cols, 20 + c as u64)[r]);
        let xv = operand(a.num_cols, 5);
        // Standalone references (and plan warm-up) first.
        let want_block = e.spmm(&a, &block);
        let want_vec = e.spmv(&a, &xv);
        let tb = e.submit_spmm(&a, block.clone(), None).expect("admitted");
        let tv = e.submit_spmv(&a, xv.clone(), None).expect("admitted");
        assert_eq!(e.flush(), 2);
        let got_block = e.take_result(tb).expect("block result").into_block();
        let got_vec = e.take_result(tv).expect("vector result").into_vector();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&got_block.data), bits(&want_block.data));
        assert_eq!(bits(&got_vec), bits(&want_vec));
        // One coalesced traversal of 4 output columns, two requests.
        let s = e.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_requests, 2);
    }

    #[test]
    fn column_budget_packs_blocks_and_vectors() {
        let cfg = EngineConfig::builder()
            .max_batch(4)
            .build()
            .expect("valid config");
        let e = Engine::with_config(&device(), cfg);
        let a = matrix();
        let block = DenseBlock::from_fn(a.num_cols, 3, |r, _| r as f64 / 7.0);
        let t0 = e.submit_spmm(&a, block, None).expect("admitted");
        let t1 = e
            .submit_spmv(&a, operand(a.num_cols, 1), None)
            .expect("admitted");
        let t2 = e
            .submit_spmv(&a, operand(a.num_cols, 2), None)
            .expect("admitted");
        assert_eq!(e.flush(), 3);
        for t in [t0, t1, t2] {
            e.take_result(t).expect("completed");
        }
        // Budget of 4 columns: [block(3) + vector(1)] then [vector(1)].
        let s = e.stats();
        assert_eq!(s.batches, 2);
        assert_eq!(s.batch_histogram, vec![0, 1, 1]);
    }

    #[test]
    fn oversized_block_request_still_runs_alone() {
        let cfg = EngineConfig::builder()
            .max_batch(2)
            .build()
            .expect("valid config");
        let e = Engine::with_config(&device(), cfg);
        let a = matrix();
        let block = DenseBlock::from_fn(a.num_cols, 5, |r, c| (r + c) as f64 / 11.0);
        let want = e.spmm(&a, &block);
        let t = e.submit_spmm(&a, block, None).expect("admitted");
        assert_eq!(e.flush(), 1);
        assert_eq!(e.take_result(t).expect("completed").into_block(), want);
        assert_eq!(e.stats().batches, 1);
    }

    #[test]
    fn phase_ledger_reconciles_with_sim_time_totals() {
        let e = Engine::new(&device());
        let a = matrix();
        let b = Arc::new(gen::random_uniform(300, 300, 7.0, 2.0, 19));
        e.spmv(&a, &operand(a.num_cols, 1));
        e.spmm(&a, &DenseBlock::from_fn(a.num_cols, 2, |r, _| r as f64));
        e.spadd(&a, &b);
        e.spgemm(&a, &b);
        for s in 0..3 {
            e.submit_spmv(&a, operand(a.num_cols, s), None)
                .expect("admitted");
        }
        e.submit_spgemm(&a, &b, None).expect("admitted");
        e.flush();
        let s = e.stats();
        let ledger_ms = s.phases.total_ms();
        let sim_ms = s.plan_build_sim_ms + s.exec_sim_ms;
        assert!(
            (ledger_ms - sim_ms).abs() < 1e-9,
            "phase ledger {ledger_ms} vs sim totals {sim_ms}"
        );
        assert!(s.phases.phase_ms(Phase::Partition) > 0.0);
        assert!(s.phases.phase_ms(Phase::Reduction) > 0.0);
        assert!(s.phases.phase_ms(Phase::TileTraversal) > 0.0);
        // These ~20-product rows land in the mid (hash) bin, so the
        // numeric SpGEMM time shows up there rather than in the heavy
        // two-pass phases.
        assert!(s.phases.phase_ms(Phase::NumericMid) > 0.0);
        assert!(s.phases.phase_ms(Phase::Setup) > 0.0);
        assert!(s.render().contains("% of total"));
    }

    #[test]
    fn submit_spgemm_matches_direct_bitwise() {
        let e = Engine::new(&device());
        let a = matrix();
        let b = Arc::new(gen::random_uniform(300, 280, 6.0, 2.0, 23));
        let want = e.spgemm(&a, &b);
        let t = e.submit_spgemm(&a, &b, None).expect("admitted");
        assert_eq!(e.spgemm_queue_depth(&a, &b), 1);
        assert_eq!(e.take_result(t), Err(EngineError::NotReady(t.0)));
        assert_eq!(e.flush(), 1);
        let got = e.take_result(t).expect("completed").into_matrix();
        assert_eq!(got, want.c, "flushed SpGEMM must be bitwise identical");
        let s = e.stats();
        assert_eq!(s.spgemm_symbolic_builds, 1, "one symbolic build shared");
        assert_eq!(s.spgemm_numeric_execs, 2);
        assert_eq!((s.cache_misses, s.cache_hits), (1, 1));
    }

    #[test]
    fn repeated_pattern_spgemm_reaches_full_cache_hit_rate() {
        // AMG-style serving loop: the pattern pair is fixed, the values
        // change every round. After warm-up the engine must serve every
        // round as a numeric-only replay — 100% symbolic-cache hit rate,
        // zero symbolic builds — and say so in the rendered stats.
        let e = Engine::new(&device());
        let a0 = gen::random_uniform(200, 200, 6.0, 2.0, 31);
        let b0 = gen::random_uniform(200, 200, 5.0, 2.0, 32);
        let warm = e
            .submit_spgemm(&Arc::new(a0.clone()), &Arc::new(b0.clone()), None)
            .expect("admitted");
        e.flush();
        e.take_result(warm).expect("warmed");
        e.reset_stats();

        let rounds = 5;
        for round in 0..rounds {
            let mut a = a0.clone();
            for (i, v) in a.values.iter_mut().enumerate() {
                *v = 0.5 + ((i + round) % 9) as f64;
            }
            let (a, b) = (Arc::new(a), Arc::new(b0.clone()));
            let t = e.submit_spgemm(&a, &b, None).expect("admitted");
            assert_eq!(e.flush(), 1);
            let got = e.take_result(t).expect("completed").into_matrix();
            let fresh = mps_core::merge_spgemm(&device(), &a, &b, e.config().spgemm());
            assert_eq!(got, fresh.c, "replay must match a fresh one-shot");
        }

        let s = e.stats();
        assert_eq!(s.cache_misses, 0, "steady state never rebuilds");
        assert_eq!(s.cache_hits, rounds as u64);
        assert!((s.cache_hit_rate() - 1.0).abs() < 1e-15);
        assert_eq!(s.spgemm_symbolic_builds, 0);
        assert_eq!(s.spgemm_numeric_execs, rounds as u64);
        assert!(s.spgemm_numeric_sim_ms > 0.0);
        assert_eq!(s.spgemm_symbolic_sim_ms, 0.0);
        let r = s.render();
        assert!(r.contains("100.0% hit rate"), "{r}");
        assert!(r.contains("0 symbolic builds / 5 numeric execs"), "{r}");
    }

    #[test]
    fn spgemm_deadline_expires_to_typed_error() {
        let e = Engine::new(&device());
        let a = matrix();
        let b = Arc::new(gen::random_uniform(300, 300, 5.0, 2.0, 37));
        let t_expired = e
            .submit_spgemm(&a, &b, Some(Duration::ZERO))
            .expect("admitted");
        let t_live = e
            .submit_spgemm(&a, &b, Some(Duration::from_secs(3600)))
            .expect("admitted");
        assert_eq!(e.flush(), 2);
        assert_eq!(
            e.take_result(t_expired),
            Err(EngineError::DeadlineExceeded { tenant: None })
        );
        assert!(e.take_result(t_live).is_ok());
        assert_eq!(e.stats().rejected_deadline, 1);
    }

    #[test]
    fn spgemm_queue_backpressure_rejects_with_overloaded() {
        let cfg = EngineConfig::builder()
            .queue_capacity(2)
            .build()
            .expect("valid config");
        let e = Engine::with_config(&device(), cfg);
        let a = matrix();
        let b = Arc::new(gen::random_uniform(300, 300, 5.0, 2.0, 41));
        e.submit_spgemm(&a, &b, None).expect("admitted");
        e.submit_spgemm(&a, &b, None).expect("admitted");
        match e.submit_spgemm(&a, &b, None) {
            Err(EngineError::Overloaded {
                queue_depth, limit, ..
            }) => assert_eq!((queue_depth, limit), (2, 2)),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(e.stats().rejected_overload, 1);
        assert_eq!(e.pending_requests(), 2);
        e.flush();
        e.submit_spgemm(&a, &b, None).expect("admitted after flush");
    }

    #[test]
    fn tenant_tagged_submissions_populate_the_ledger() {
        let e = Engine::new(&device());
        let a = matrix();
        let alice = TenantId(1);
        let bob = TenantId(2);
        // Two rounds for alice: the first misses the plan cache, the
        // second hits it.
        for seed in [1, 2] {
            let t = e
                .submit_spmv(
                    &a,
                    operand(a.num_cols, seed),
                    SubmitOptions::new().tenant(alice),
                )
                .expect("admitted");
            e.flush();
            e.take_result(t).expect("completed");
        }
        // An expired deadline for bob carries his identity.
        let t = e
            .submit_spmv(
                &a,
                operand(a.num_cols, 3),
                SubmitOptions::new().tenant(bob).deadline(Duration::ZERO),
            )
            .expect("admitted");
        e.flush();
        let err = e.take_result(t).expect_err("expired");
        assert_eq!(err, EngineError::DeadlineExceeded { tenant: Some(bob) });
        assert_eq!(err.tenant(), Some(bob));
        let s = e.stats();
        let ca = s.tenants.get(alice);
        assert_eq!((ca.requests, ca.hits), (2, 1));
        let cb = s.tenants.get(bob);
        assert_eq!((cb.requests, cb.deadline_misses), (0, 1));
        assert!(s.render().contains("tenant#1"), "{}", s.render());
        // Untagged submissions stay out of the ledger.
        let t = e
            .submit_spmv(&a, operand(a.num_cols, 4), None)
            .expect("admitted");
        e.flush();
        e.take_result(t).expect("completed");
        assert_eq!(e.stats().tenants.total_requests(), 2);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn value_update_reuses_cached_plans_and_matches_a_fresh_plan_bitwise() {
        let e = Engine::new(&device());
        let a = matrix();
        let h = e.register(&a);
        let x = operand(a.num_cols, 5);
        let y0 = e.spmv(&a, &x);
        let misses = e.stats().cache_misses;
        let vals: Vec<f64> = (0..a.nnz())
            .map(|i| (i as f64).mul_add(0.25, -3.0))
            .collect();
        let snap = e.submit_update(h, vals.clone()).expect("valid update");
        assert!(Arc::ptr_eq(&snap, &e.matrix(h).expect("registered")));
        // Reference: a fresh engine plans the mutated matrix from scratch.
        let mut fresh = (*a).clone();
        fresh.values = vals;
        let want = Engine::new(&device()).spmv(&fresh, &x);
        let got = e.spmv(&snap, &x);
        assert_eq!(bits(&got), bits(&want), "numeric-only round must be exact");
        let s = e.stats();
        assert_eq!(s.cache_misses, misses, "value swap must not replan");
        assert_eq!(s.value_updates, 1);
        assert!(s.render().contains("1 value updates"), "{}", s.render());
        // The caller's pre-update snapshot still holds the old values.
        assert_eq!(bits(&e.spmv(&a, &x)), bits(&y0));
    }

    #[test]
    fn rejected_mutations_leave_the_registered_matrix_untouched() {
        let e = Engine::new(&device());
        let a = matrix();
        let h = e.register(&a);
        let err = e.submit_update(h, vec![1.0; 3]).expect_err("wrong length");
        assert!(matches!(err, EngineError::Plan(_)), "{err}");
        assert!(err.to_string().contains("mutation rejected"), "{err}");
        assert!(Arc::ptr_eq(&e.matrix(h).expect("still registered"), &a));
        let bogus = MatrixHandle(9999);
        assert_eq!(
            e.submit_update(bogus, vec![]).expect_err("never issued"),
            EngineError::UnknownHandle(9999)
        );
        assert_eq!(
            e.matrix(bogus).expect_err("never issued"),
            EngineError::UnknownHandle(9999)
        );
        let mut oob = CsrDelta::new();
        oob.upsert(a.num_rows as u32, 0, 1.0);
        let err = e.submit_delta(h, &oob).expect_err("row out of bounds");
        assert!(matches!(err, EngineError::Plan(_)), "{err}");
        assert_eq!(e.stats().value_updates, 0);
        assert_eq!(e.stats().delta_applies, 0);
    }

    #[test]
    fn small_deltas_patch_and_large_deltas_fall_back_both_matching_reference() {
        let e = Engine::new(&device());
        let a = matrix();
        let h = e.register(&a);
        // Small delta: one insert at a guaranteed-empty spot is impossible
        // to know a priori, so upsert twice (one likely-new, one value
        // tweak on the first stored entry) and remove one existing entry.
        let (r0, c0) = {
            let r = (0..a.num_rows)
                .find(|&r| a.row_offsets[r + 1] > a.row_offsets[r])
                .expect("nonempty matrix");
            (r as u32, a.col_idx[a.row_offsets[r]])
        };
        let mut d = CsrDelta::new();
        d.upsert(0, 0, 2.5).remove(r0, c0);
        let out = e.submit_delta(h, &d).expect("in bounds");
        assert!(!out.fallback);
        assert!(
            out.pattern_changed,
            "an insert or remove changes the pattern"
        );
        assert_eq!(out.removed, 1);
        let want = apply_delta_reference(&a, &d).expect("reference applies");
        let got = e.matrix(h).expect("advanced");
        assert_eq!(*got, want, "patched matrix must equal the COO rebuild");
        assert_eq!(bits(&got.values), bits(&want.values));
        // Large delta: more than ceil(threshold * nnz) entries falls back.
        let limit = (e.config().delta_replan_threshold() * got.nnz() as f64).ceil() as usize;
        let mut big = CsrDelta::new();
        for i in 0..=limit as u32 {
            big.upsert(
                i % got.num_rows as u32,
                i / got.num_rows as u32,
                0.125 * i as f64,
            );
        }
        let want = apply_delta_reference(&got, &big).expect("reference applies");
        let out = e.submit_delta(h, &big).expect("in bounds");
        assert!(out.fallback);
        let after = e.matrix(h).expect("advanced");
        assert_eq!(*after, want);
        let s = e.stats();
        assert_eq!((s.delta_applies, s.delta_fallbacks), (1, 1));
        assert!(s.render().contains("1 deltas applied"), "{}", s.render());
    }

    #[test]
    fn value_only_delta_preserves_the_pattern_fingerprint() {
        let e = Engine::new(&device());
        let a = matrix();
        let h = e.register(&a);
        let (r0, c0) = (0u32, a.col_idx[a.row_offsets[0]]);
        let mut d = CsrDelta::new();
        d.upsert(r0, c0, 42.0);
        let out = e.submit_delta(h, &d).expect("in bounds");
        assert!(!out.pattern_changed);
        assert_eq!((out.inserted, out.updated, out.removed), (0, 1, 0));
        let got = e.matrix(h).expect("advanced");
        assert_eq!(got.pattern_fingerprint(), a.pattern_fingerprint());
        // Same fingerprint → the plan built pre-mutation keeps serving.
        e.spmv(&a, &operand(a.num_cols, 1));
        let misses = e.stats().cache_misses;
        e.spmv(&got, &operand(a.num_cols, 1));
        assert_eq!(e.stats().cache_misses, misses);
    }

    #[test]
    fn advised_spmv_advises_once_and_serves_from_cache() {
        // The decision is keyed by pattern fingerprint: one build, then
        // every repeat is a cache hit with zero re-advisals.
        let e = Engine::new(&device());
        let a = gen::stencil_5pt(96, 64);
        let x = operand(a.num_cols, 5);
        let first = e.spmv_advised(&a, &x);
        for _ in 0..4 {
            assert_eq!(e.spmv_advised(&a, &x), first);
        }
        let s = e.stats();
        assert_eq!(s.advice_builds, 1, "one advisal for one pattern");
        assert_eq!(s.advice_hits, 4, "steady state re-uses the decision");
        assert_eq!(s.advice_cmrs, 1, "a stencil routes to the strip kernel");
        assert_eq!((s.cache_hits, s.cache_misses), (4, 1));
        assert_eq!(s.requests, 5);
        assert_eq!(e.cached_plans(), 1);
        let mut want = vec![0.0; a.num_rows];
        mps_core::spmv_rowwise(&a, &x, &mut want);
        assert_eq!(first, want, "cmrs numerics are the row-wise dot");
        assert!(s.render().contains("advisor"));
    }

    #[test]
    fn advised_merge_choice_is_bitwise_the_plain_spmv_path() {
        // Heavy skew keeps the advisor on merge; the advised entry point
        // must then produce exactly what the direct merge path produces.
        let mut coo = mps_sparse::CooMatrix::new(2048, 2048);
        for r in 0..2048u32 {
            let len = if r % 256 == 0 { 2000usize } else { 2 };
            for k in 0..len {
                coo.push(r, ((r as usize * 17 + k * 29) % 2048) as u32, 0.5);
            }
        }
        let a = coo.to_csr();
        let x = operand(a.num_cols, 9);
        let e = Engine::new(&device());
        let advised = e.spmv_advised(&a, &x);
        assert_eq!(e.stats().advice_merge, 1);
        let direct = Engine::new(&device()).spmv(&a, &x);
        assert_eq!(advised, direct);
    }

    #[test]
    fn lru_eviction_keeps_cache_bounded() {
        let cfg = EngineConfig::builder()
            .plan_capacity(2)
            .build()
            .expect("valid config");
        let e = Engine::with_config(&device(), cfg);
        let mats: Vec<CsrMatrix> = (0..4)
            .map(|s| gen::random_uniform(80, 80, 4.0, 1.5, 100 + s))
            .collect();
        for m in &mats {
            e.spmv_plan(m);
        }
        let s = e.stats();
        assert_eq!(s.cache_misses, 4);
        assert_eq!(s.cache_evictions, 2);
    }
}
