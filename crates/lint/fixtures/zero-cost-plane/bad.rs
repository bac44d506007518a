// Fixture: allocation inside a null-plane impl — the "zero-cost when
// disabled" claim would silently become false.
pub struct NullFaults;

impl FaultView for NullFaults {
    fn begin_slot(&mut self, slot: u64) {
        let mut log = Vec::new();
        log.push(slot);
        let _line = format!("{slot}");
    }
}
