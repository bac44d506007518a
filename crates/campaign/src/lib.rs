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
//! * [`shard`] — one worker's share: points `index % shards == shard`,
//!   run in index order under an append-only [`osmosis_sim::CheckpointLog`]
//!   (one line per completed point; a SIGKILL mid-append costs at most
//!   the torn line), folded into a shard summary + telemetry JSONL.
//! * [`runner`] — the supervisor: spawns one worker **process** per
//!   shard (a panic, abort, or OOM kill loses one shard attempt, never
//!   the campaign), watches heartbeats via checkpoint growth, retries
//!   with seeded backoff, quarantines shards that fail every attempt,
//!   and folds finished shard registries into one campaign summary with
//!   bounded memory — one shard summary resident at a time.
//!
//! Graceful degradation is the contract: a campaign always terminates
//! with a manifest naming exactly which shards completed and which were
//! quarantined (and why); finished work is never lost; and `--resume`
//! after any interruption — including SIGKILL and a corrupted
//! checkpoint file — reproduces the uninterrupted campaign fingerprint
//! bit for bit.

#![deny(missing_docs)]

pub mod runner;
pub mod shard;
pub mod spec;

pub use runner::{run_campaign, CampaignOptions, CampaignReport, QuarantinedShard, WorkerRequest};
pub use shard::{run_shard, ShardSummary};
pub use spec::{BufferSpec, CampaignSpec, FaultSpec, ScenarioPoint};

/// Errors of the campaign plane. Worker-side scenario failures are not
/// here: a worker that cannot produce its summary simply exits nonzero,
/// and the supervisor retries or quarantines the shard.
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
    /// The shard is on the spec's poison list — the deliberate-failure
    /// hook campaigns use to test their own quarantine path end to end.
    Poisoned {
        /// The poisoned shard index.
        shard: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io { message } => write!(f, "i/o failure: {message}"),
            CampaignError::Spec { message } => write!(f, "campaign spec: {message}"),
            CampaignError::Poisoned { shard } => {
                write!(f, "shard {shard} is poisoned (deliberate test failure)")
            }
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
