//! Poison-recovering lock helpers for state shared across worker threads: the
//! evaluation caches and prediction tables, the result stores, the supervisors.
//!
//! Poisoning only means another thread panicked while holding the guard; every
//! critical section guarded through these helpers leaves its data consistent at
//! every step (whole-entry inserts, whole-batch appends, counter bumps, single
//! queue pops), so the protected state is still usable — and a panic cascade here
//! would turn one failed evaluation into a failed search or campaign.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquire a read guard, recovering from poisoning instead of panicking.
pub fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a write guard, recovering from poisoning (see [`read_lock`]).
pub fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a mutex guard, recovering from poisoning (see [`read_lock`]).
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
