//! Foundational utilities shared by every jet-rs crate.
//!
//! This crate deliberately has no knowledge of the streaming engine. It
//! provides the low-level building blocks the paper's design leans on:
//!
//! * [`clock`] — a pluggable nanosecond clock. The engine is written against
//!   [`clock::Clock`] so the same code runs on the wall clock (threaded
//!   executor) and on a manually advanced clock (the virtual-time cluster
//!   simulator used to reproduce the paper's experiments).
//! * [`histogram`] — an HDR-style log-linear histogram used for every latency
//!   measurement in the evaluation (the paper reports 99.99th percentiles,
//!   which require a histogram with bounded relative error, not sampling).
//! * [`json`] — the one JSON writer, value type and parser every
//!   machine-readable artifact goes through.
//! * [`idle`] — the progressive backoff idle strategy cooperative worker
//!   threads use when none of their tasklets made progress.
//! * [`progress`] — the `MadeProgress`/`NoProgress`/`Done` tri-state that
//!   tasklets report to their worker loop.
//! * [`seq`] — deterministic 64-bit mixing/hash helpers (partition hashing
//!   must be stable across nodes and runs).

pub mod backoff;
pub mod clock;
pub mod codec;
pub mod histogram;
pub mod idle;
pub mod json;
pub mod progress;
pub mod rng;
pub mod seq;
pub mod sync;

pub use clock::{Clock, ManualClock, SharedClock, SystemClock};
pub use codec::{ByteReader, ByteWriter, DecodeError};
pub use histogram::Histogram;
pub use idle::BackoffIdle;
pub use progress::Progress;
pub use rng::SimRng;
