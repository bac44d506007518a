// Fixture: allocation inside a null-plane impl — the "zero-cost when
// disabled" claim would silently become false.
pub struct NoAudit;

impl Auditor for NoAudit {
    fn flow_regressed(&mut self, slot: u64, src: usize, dst: usize, seq: u64, last_seq: u64) {
        let mut log = Vec::new();
        log.push((slot, src, dst, seq, last_seq));
        let _line = format!("{slot}");
    }
}
