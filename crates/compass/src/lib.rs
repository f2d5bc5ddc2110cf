//! # tn-compass — the software expression of the neurosynaptic kernel
//!
//! Compass is "a highly-optimized function-level simulator for large-scale
//! networks of spiking neurons organized as neurosynaptic cores" (paper
//! Section III-B). This crate is its Rust counterpart, executing the exact
//! blueprint semantics of [`tn_core`]:
//!
//! * [`reference::ReferenceSim`] — a single-threaded, obviously-correct
//!   simulator used as the ground truth of the 1:1 equivalence
//!   regressions, and
//! * [`parallel::ParallelSim`] — the multithreaded simulator mirroring the
//!   Compass design: cores partitioned across threads with load balancing,
//!   the semi-synchronous Synapse → Neuron → Network phase loop, pairwise
//!   spike aggregation between thread pairs, and a two-step barrier
//!   synchronization per tick.
//!
//! Both run the shared tick pipeline of [`tn_core::tick`] around an
//! [`shell::EngineShell`], as the chip simulator in `tn-chip` does, and
//! produce bit-identical network state for identical
//! (configuration, seed, input) triples — the property paper Section VI-A
//! verifies between Compass and the TrueNorth silicon with 413,333
//! regressions.

pub mod output;
pub mod parallel;
pub mod partition;
pub mod reference;
pub mod session;
pub mod shell;
pub(crate) mod sync;
pub mod trace;

pub use output::{OutputEvent, SpikeRecord};
pub use parallel::{AggregationMode, ParallelSim, PoolMode};
pub use partition::{owner_of, split_cores, weighted_split_points};
pub use reference::ReferenceSim;
pub use session::{publish_common, KernelSession};
#[doc(hidden)]
pub use shell::__deps;
pub use shell::EngineShell;
pub use trace::SpikeTrace;
