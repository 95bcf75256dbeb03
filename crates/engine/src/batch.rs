//! The request record, the standalone engine's queue, and the completion
//! store.
//!
//! Every request — submitted to a standalone [`crate::Engine`] or to a
//! [`crate::Service`] shard — is one [`Request`]: the matrix with its
//! memoized fingerprint, the operand, and its deadline and tenant. It
//! waits in exactly one queue (the engine's [`Queue`] or a shard's
//! per-tenant injector), is admitted once, handed to the queue-less
//! executor ([`crate::exec`]), and resolves into exactly one
//! [`Completions`] store.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mps_core::PlanError;
use mps_sparse::{CsrMatrix, DenseBlock};

use crate::error::{EngineError, TenantId};
use crate::EngineOutput;

/// Handle to a submitted request; redeem with
/// [`crate::Engine::take_result`] after a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(pub(crate) u64);

/// Matrix identity: the pattern fingerprint plus the address of the
/// matrix allocation. Two matrices can share a sparsity pattern (and
/// therefore a cached plan) while holding different values, so batching
/// them into one traversal — which pins a single matrix — would compute
/// with the wrong values. The address disambiguates: while a request holds
/// its `Arc`, the allocation cannot be freed, so equal addresses mean the
/// same matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct QueueKey {
    fingerprint: u64,
    ptr: usize,
}

impl QueueKey {
    pub fn of(fingerprint: u64, matrix: &Arc<CsrMatrix>) -> QueueKey {
        QueueKey {
            fingerprint,
            ptr: Arc::as_ptr(matrix) as usize,
        }
    }
}

/// What a request multiplies `a` by: one vector (SpMV) or a dense block
/// (SpMM) — both coalesce into the same column-tiled traversal, and the
/// kind decides the [`EngineOutput`] variant — or a second sparse matrix
/// (SpGEMM), replayed numeric-only against the cached symbolic plan.
pub(crate) enum Op {
    Vector(Vec<f64>),
    Block(DenseBlock),
    Gemm { b: Arc<CsrMatrix>, fp_b: u64 },
}

pub(crate) struct Request {
    /// Raw engine [`Ticket`] or [`crate::ServiceTicket`] value.
    pub ticket: u64,
    pub a: Arc<CsrMatrix>,
    /// Memoized pattern fingerprint of `a`: picks the cached plan.
    pub fp: u64,
    pub op: Op,
    /// Absolute expiry; `None` means no deadline.
    pub deadline: Option<Instant>,
    /// Tenant attribution for errors and the per-tenant ledger; `None`
    /// for plain (untagged) engine submissions.
    pub tenant: Option<TenantId>,
}

impl Request {
    /// Build a request, rejecting operands whose shape does not fit `a`
    /// with [`PlanError::ShapeMismatch`] (SpGEMM: `b` must have
    /// `a.num_cols` rows). This is the only operand-shape check on the
    /// submission paths; the ticket is assigned on admission.
    pub fn new(
        a: &Arc<CsrMatrix>,
        fp: u64,
        op: Op,
        deadline: Option<Instant>,
        tenant: Option<TenantId>,
    ) -> Result<Request, EngineError> {
        // (rows, cols) of the right-hand operand, and the fewest columns
        // it may have: a dense operand needs at least one.
        let (got, min_cols) = match &op {
            Op::Vector(x) => ((x.len(), 1), 1),
            Op::Block(x) => ((x.rows, x.cols), 1),
            Op::Gemm { b, .. } => ((b.num_rows, b.num_cols), 0),
        };
        if got.0 != a.num_cols || got.1 < min_cols {
            return Err(PlanError::ShapeMismatch {
                left: (a.num_cols, got.1.max(min_cols)),
                right: got,
            }
            .into());
        }
        Ok(Request {
            ticket: 0,
            a: Arc::clone(a),
            fp,
            op,
            deadline,
            tenant,
        })
    }

    /// Output columns this request contributes to a coalesced traversal
    /// (SpGEMM requests never join one).
    pub fn cols(&self) -> usize {
        match &self.op {
            Op::Vector(_) => 1,
            Op::Block(b) => b.cols,
            Op::Gemm { .. } => 0,
        }
    }

    /// The standalone queue this request waits in: one per matrix for
    /// SpMV/SpMM, one per `(A, B)` pair for SpGEMM.
    pub fn queue_key(&self) -> (QueueKey, Option<QueueKey>) {
        let b = match &self.op {
            Op::Gemm { b, fp_b } => Some(QueueKey::of(*fp_b, b)),
            _ => None,
        };
        (QueueKey::of(self.fp, &self.a), b)
    }
}

/// Resolved requests, each stamped with the flush epoch that resolved it
/// so unclaimed results age out.
#[derive(Default)]
pub(crate) struct Completions {
    done: HashMap<u64, (u64, Result<EngineOutput, EngineError>)>,
    /// Completed flushes (or service drains); the age unit.
    epoch: u64,
}

impl Completions {
    pub fn complete(&mut self, ticket: u64, result: Result<EngineOutput, EngineError>) {
        self.done.insert(ticket, (self.epoch, result));
    }

    /// Remove and return a resolved request's outcome; a ticket with no
    /// outcome is [`EngineError::NotReady`] while `pending` says it is
    /// still queued, [`EngineError::UnknownTicket`] otherwise.
    pub fn redeem(
        &mut self,
        ticket: u64,
        pending: impl FnOnce() -> bool,
    ) -> Result<EngineOutput, EngineError> {
        match self.done.remove(&ticket) {
            Some((_, result)) => result,
            None if pending() => Err(EngineError::NotReady(ticket)),
            None => Err(EngineError::UnknownTicket(ticket)),
        }
    }

    /// Close out a flush: advance the epoch and drop unclaimed results
    /// older than `ttl_flushes` flushes, so tickets that are never
    /// redeemed (dropped by the caller, abandoned waves) cannot grow the
    /// store without bound. Returns the number evicted.
    pub fn end_flush(&mut self, ttl_flushes: u64) -> u64 {
        self.epoch += 1;
        let cutoff = self.epoch.saturating_sub(ttl_flushes);
        let before = self.done.len();
        self.done.retain(|_, (epoch, _)| *epoch >= cutoff);
        (before - self.done.len()) as u64
    }
}

/// A standalone engine's submission queue: requests in submission order
/// plus per-queue depth counts, which
/// [`crate::EngineConfig::max_queue_depth`] bounds.
#[derive(Default)]
pub(crate) struct Queue {
    pending: Vec<Request>,
    depth: HashMap<(QueueKey, Option<QueueKey>), usize>,
    pub done: Completions,
    next_ticket: u64,
}

impl Queue {
    /// Requests waiting on one queue ([`Request::queue_key`]).
    pub fn depth(&self, key: (QueueKey, Option<QueueKey>)) -> usize {
        self.depth.get(&key).copied().unwrap_or(0)
    }

    /// Enqueue an admitted request and issue its ticket.
    pub fn push(&mut self, mut req: Request) -> Ticket {
        self.next_ticket += 1;
        req.ticket = self.next_ticket;
        *self.depth.entry(req.queue_key()).or_insert(0) += 1;
        self.pending.push(req);
        Ticket(self.next_ticket)
    }

    /// Take every waiting request, in submission order.
    pub fn take_all(&mut self) -> Vec<Request> {
        self.depth.clear();
        std::mem::take(&mut self.pending)
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Redeem a ticket against the completion store.
    pub fn redeem(&mut self, ticket: u64) -> Result<EngineOutput, EngineError> {
        let pending = &self.pending;
        self.done
            .redeem(ticket, || pending.iter().any(|r| r.ticket == ticket))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_store_ages_out() {
        let mut done = Completions::default();
        done.complete(9, Err(EngineError::UnknownTicket(0)));
        assert_eq!(done.end_flush(2), 0);
        let resolved = done.redeem(9, || unreachable!("resolved tickets skip the scan"));
        assert_eq!(resolved, Err(EngineError::UnknownTicket(0)));
        assert_eq!(done.redeem(9, || true), Err(EngineError::NotReady(9)));
        done.complete(10, Err(EngineError::UnknownTicket(0)));
        done.end_flush(1);
        assert_eq!(done.end_flush(1), 1, "aged out past ttl");
        assert_eq!(
            done.redeem(10, || false),
            Err(EngineError::UnknownTicket(10))
        );
    }
}
