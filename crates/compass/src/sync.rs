//! Alias module for the worker pool's concurrency primitives.
//!
//! Production builds alias straight to `std`; under `--cfg tn_check`
//! everything routes through the `tn-check` shims so the pool's
//! generation/barrier handshake can be model-checked. Funnelling all
//! imports through this module also lets `tn-check lint` (TN025)
//! catch accidental bypasses back to `std::sync`.

#[cfg(not(tn_check))]
pub(crate) use std::sync::{Arc, Barrier, Condvar, Mutex};
#[cfg(not(tn_check))]
pub(crate) use std::thread;
#[cfg(tn_check)]
pub(crate) use tn_check::sync::{Arc, Barrier, Condvar, Mutex};
#[cfg(tn_check)]
pub(crate) use tn_check::thread;

pub(crate) mod atomic {
    pub(crate) use std::sync::atomic::Ordering;

    #[cfg(not(tn_check))]
    pub(crate) use std::sync::atomic::AtomicUsize;
    #[cfg(tn_check)]
    pub(crate) use tn_check::sync::atomic::AtomicUsize;
}
