//! Per-shard injector queues and deficit-round-robin credit mechanics.
//!
//! Each shard holds one [`ShardState`]: a per-tenant FIFO of requests not
//! yet drained — the only queue a service request ever waits in — the
//! completion store for resolved service tickets, and a service-level
//! [`TenantTable`] ledger of quota rejections at submit.
//!
//! Draining uses deficit round-robin: every round each backlogged tenant
//! earns `weight × quantum` credits, and one credit admits one request to
//! the shard's executor. Under overload (drain budget smaller than the
//! backlog) completed-request shares therefore converge to quota-weight
//! shares, which is the fairness property `tests/service_serving.rs` pins.

use std::collections::{BTreeMap, VecDeque};

use crate::batch::{Completions, Request};
use crate::error::{EngineError, TenantId};
use crate::stats::TenantTable;
use crate::EngineOutput;

/// Per-tenant QoS parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Relative drain weight: under overload a tenant's share of the
    /// per-flush drain budget is proportional to this.
    pub weight: u32,
    /// Requests the tenant may have waiting in one shard's injector;
    /// submissions beyond it are refused with
    /// [`crate::EngineError::Overloaded`] carrying the tenant. A request
    /// admitted within the quota is never refused for queue depth later.
    pub max_pending: usize,
}

impl TenantSpec {
    pub fn new(weight: u32, max_pending: usize) -> TenantSpec {
        TenantSpec {
            weight,
            max_pending,
        }
    }
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            weight: 1,
            max_pending: 64,
        }
    }
}

struct TenantQueue {
    pending: VecDeque<Request>,
    /// Unspent DRR credits. Reset when the queue empties (a tenant cannot
    /// bank credit while idle).
    deficit: u64,
}

/// Everything one shard guards behind its injector mutex.
#[derive(Default)]
pub(crate) struct ShardState {
    tenants: BTreeMap<TenantId, TenantQueue>,
    /// Resolved service tickets, redeemable until aged out.
    pub done: Completions,
    /// Quota rejections at submit. Every drain-time outcome is counted
    /// by the shard engine's stats; [`super::ServiceStats`] merges both.
    pub ledger: TenantTable,
    /// Requests accepted into this shard's injector.
    pub injected: u64,
    /// Requests the drains handed to the shard's executor.
    pub drained: u64,
}

impl ShardState {
    /// Requests `tenant` has waiting in this injector.
    pub fn pending_for(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant).map_or(0, |q| q.pending.len())
    }

    /// Requests waiting across all tenants.
    pub fn total_pending(&self) -> usize {
        self.tenants.values().map(|q| q.pending.len()).sum()
    }

    /// Tenants in deterministic (id) drain order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.keys().copied().collect()
    }

    pub fn push(&mut self, tenant: TenantId, req: Request) {
        self.injected += 1;
        self.tenants
            .entry(tenant)
            .or_insert_with(|| TenantQueue {
                pending: VecDeque::new(),
                deficit: 0,
            })
            .pending
            .push_back(req);
    }

    /// Grant one DRR round's credits. Returns `false` (and resets the
    /// deficit) when the tenant has nothing queued.
    pub fn refill(&mut self, tenant: TenantId, credit: u64) -> bool {
        let Some(q) = self.tenants.get_mut(&tenant) else {
            return false;
        };
        if q.pending.is_empty() {
            q.deficit = 0;
            return false;
        }
        q.deficit += credit;
        true
    }

    /// Pop the tenant's front request if it holds a credit to pay for
    /// it. The credit is only spent ([`ShardState::spend`]) once the
    /// request survives its expiry check, so expiries drain for free.
    pub fn pop(&mut self, tenant: TenantId) -> Option<Request> {
        let q = self.tenants.get_mut(&tenant)?;
        if q.deficit == 0 {
            return None;
        }
        q.pending.pop_front()
    }

    pub fn spend(&mut self, tenant: TenantId) {
        if let Some(q) = self.tenants.get_mut(&tenant) {
            q.deficit -= 1;
        }
    }

    /// Redeem a service ticket against the completion store.
    pub fn redeem(&mut self, ticket: u64) -> Result<EngineOutput, EngineError> {
        let tenants = &self.tenants;
        self.done.redeem(ticket, || {
            tenants
                .values()
                .any(|q| q.pending.iter().any(|r| r.ticket == ticket))
        })
    }

    /// Forget tenants whose queues a drain emptied.
    pub fn prune(&mut self) {
        self.tenants.retain(|_, q| !q.pending.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Op;
    use mps_sparse::CsrMatrix;
    use std::sync::Arc;

    fn req(ticket: u64) -> Request {
        let a = Arc::new(CsrMatrix::identity(2));
        let mut r = Request::new(&a, 0, Op::Vector(vec![1.0, 2.0]), None, None).expect("fits");
        r.ticket = ticket;
        r
    }

    #[test]
    fn drr_pops_only_with_credit_and_spends_on_admission() {
        let mut st = ShardState::default();
        let t = TenantId(5);
        for k in 1..=3 {
            st.push(t, req(k));
        }
        assert_eq!(st.pending_for(t), 3);
        assert!(st.pop(t).is_none(), "no credit before the first refill");
        assert!(st.refill(t, 1));
        // An unspent pop (an expiry) leaves the credit for the next one…
        assert_eq!(st.pop(t).map(|r| r.ticket), Some(1));
        assert_eq!(st.pop(t).map(|r| r.ticket), Some(2));
        st.spend(t);
        // …and once it is spent the third blocks until the next refill.
        assert!(st.pop(t).is_none());
        assert_eq!(st.redeem(3), Err(EngineError::NotReady(3)));
        assert!(st.refill(t, 1));
        assert_eq!(st.pop(t).map(|r| r.ticket), Some(3));
        st.spend(t);
        // Empty queue: refill refuses and zeroes any banked deficit.
        assert!(!st.refill(t, 10));
        st.prune();
        assert_eq!(st.tenant_ids(), Vec::<TenantId>::new());
    }
}
