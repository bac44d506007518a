//! Helpers shared by the pin suites.

use osmosis::sim::TraceEvent;

/// Every trace event of a run — slot, kind, operands — folded in
/// emission order into one FNV-1a digest, so the order of a fabric's
/// observer calls is pinned and not only what they add up to.
pub fn trace_digest<'a>(events: impl Iterator<Item = &'a (u64, TraceEvent)>) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for b in word.to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for &(slot, event) in events {
        fold(slot);
        match event {
            TraceEvent::Inject { src, dst } => [1, src as u64, dst as u64],
            TraceEvent::Deliver {
                output,
                delay_slots,
            } => [2, output as u64, delay_slots],
            TraceEvent::CreditStall { node, port } => [3, node as u64, port as u64],
            TraceEvent::Drop { port } => [4, port as u64, 0],
            TraceEvent::Retransmit { port } => [5, port as u64, 0],
            #[expect(clippy::panic, reason = "a test helper fails its test by panicking")]
            other => panic!("a fabric emitted {other:?}"),
        }
        .into_iter()
        .for_each(&mut fold);
    }
    digest
}
