//! The project's one audited lock-poison recovery point.
//!
//! Policy: every shared structure in the serving layer (the ingestion
//! queue with its write-ahead log, snapshot cell, watcher registry) is
//! left in a consistent state at each lock-release boundary — writers
//! stage work outside the critical section and publish it with a
//! handful of moves, so a panic while a guard is held cannot expose a
//! torn value. Under that invariant, recovering from a poisoned lock by
//! taking the inner value is sound, and strictly better for an
//! availability-oriented server than propagating the panic to every
//! other thread.
//!
//! Ad-hoc recovery (`.lock().unwrap()`, inline
//! `.unwrap_or_else(PoisonError::into_inner)`) is rejected by
//! `rms-analyze` rule `lock-poison-policy`; route all lock results
//! through [`recover_poisoned`] so the policy stays greppable and this
//! comment stays the single place that argues its soundness.

use std::sync::PoisonError;

/// Unwraps a `lock()`/`read()`/`write()` result, recovering the guard
/// from a poisoned lock. See the module docs for why recovery is sound
/// in this codebase.
pub fn recover_poisoned<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}
