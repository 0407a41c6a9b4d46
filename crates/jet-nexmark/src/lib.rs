//! # jet-nexmark — the NEXMark benchmark \[35\] on jet-rs
//!
//! The paper's evaluation workload (§7.1): an auction house generating
//! persons, auctions, and bids, and a set of standard queries over them.
//! This crate provides the deterministic rate-controlled generator and
//! queries Q1–Q8 and Q13 built on the typed Pipeline API.

pub mod generator;
pub mod model;
pub mod queries;

pub use generator::NexmarkConfig;
pub use model::{Auction, Bid, Event, Person};
