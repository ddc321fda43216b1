//! Fault-injection hooks for the chaos harness (`chaos-hooks` feature).
//!
//! The engine exposes a tiny, deterministic decision surface that a test
//! harness (the `rnt-chaos` crate) can implement to perturb executions at
//! the exact points the paper's adversary controls:
//!
//! * [`Injector::before_access`] runs on every lock-acquiring operation —
//!   returning [`AccessFault::Die`] simulates a deadlock-policy victim
//!   kill, [`AccessFault::Timeout`] a lock-wait expiry;
//! * [`Injector::fail_begin_child`] makes subtransaction creation fail,
//!   exercising the caller's recovery path.
//!
//! The hooks are pull-based and synchronous: the engine consults the
//! installed injector from the requesting thread, so a single-threaded
//! driver that controls its scheduler and its injector observes a fully
//! deterministic execution. With no injector installed the hooks are
//! no-ops, so enabling the feature does not change engine behavior.

use crate::registry::TxnId;

/// The decision an [`Injector`] makes before a lock-acquiring operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AccessFault {
    /// No fault: run the operation normally.
    #[default]
    Proceed,
    /// Fail the operation with [`crate::TxnError::Die`] (a synthetic
    /// deadlock-policy victim kill; retryable).
    Die,
    /// Fail the operation with [`crate::TxnError::Timeout`] (a synthetic
    /// lock-wait expiry carrying the [`crate::DeadlockPolicy::Timeout`]
    /// bound, zero under the other policies; retryable).
    Timeout,
}

/// A fault source the engine consults at its injection points.
///
/// Implementations must be cheap and deterministic given their own state:
/// the engine calls them while holding a shard lock.
pub trait Injector: Send + Sync {
    /// Consulted before every read/write/rmw lock acquisition by
    /// transaction `t` on the given lock-table shard.
    fn before_access(&self, t: TxnId, shard: usize) -> AccessFault {
        let _ = (t, shard);
        AccessFault::Proceed
    }

    /// Consulted when `parent` begins a subtransaction; returning `true`
    /// fails the begin with a retryable [`crate::TxnError::Die`].
    fn fail_begin_child(&self, parent: TxnId) -> bool {
        let _ = parent;
        false
    }
}
