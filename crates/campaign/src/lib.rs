//! Crash-safe sharded campaign runner — the "million scenario points
//! overnight" plane (ROADMAP item 2).
//!
//! A *campaign* is the full cross-product of scenario axes — offered
//! load × burstiness × fault plan × topology × seed replica — declared
//! by a [`CampaignSpec`]. The spec is pure data with an exact JSON
//! round trip, every scenario point decodes O(1) from its global index
//! (mixed-radix, never materialized), and each point's engine seed is a
//! pure function of the campaign seed and that index — so any subset of
//! the campaign can be recomputed anywhere, any time, bit-identically.
//!
//! Execution is split across three layers:
//!
//! * [`spec`] — the scenario space: axes, point decode, seeds, keys.
//! * [`shard`] — one shard: points `index % shards == shard`, run in
//!   index order under an append-only [`osmosis_sim::CheckpointLog`]
//!   (one line per completed point; a kill mid-append costs at most the
//!   torn line), folded into a shard summary + telemetry JSONL.
//! * [`runner`] — the campaign: every shard in this process on
//!   [`osmosis_sim::sweep::parallel_sweep`], the summaries folded in
//!   shard order into one campaign summary.
//!
//! Finished work is never lost: a run killed at any point, or resumed
//! over a corrupted checkpoint log, reproduces the uninterrupted
//! campaign fingerprint bit for bit on the next run.

#![deny(missing_docs)]

pub mod runner;
pub mod shard;
pub mod spec;

pub use runner::{run_campaign, CampaignReport};
pub use shard::{run_shard, ShardSummary};
pub use spec::{BufferSpec, CampaignSpec, FaultSpec, ScenarioPoint};

/// Errors of the campaign plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// Filesystem trouble reading or writing campaign state.
    Io {
        /// What failed, with the path.
        message: String,
    },
    /// A malformed or mismatched campaign spec (bad axes, an undecodable
    /// `spec.json`, or `--resume` against a different campaign's
    /// directory).
    Spec {
        /// What is wrong with the spec.
        message: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io { message } => write!(f, "i/o failure: {message}"),
            CampaignError::Spec { message } => write!(f, "campaign spec: {message}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// FNV-1a fold over `u64` words — the campaign's fingerprint primitive,
/// shared by spec keys, shard folds, and the campaign-level fold.
pub(crate) fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over raw bytes (for hashing serialized specs).
pub(crate) fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
