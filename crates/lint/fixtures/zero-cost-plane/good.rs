// Fixture: the null impl stays empty; a *real* plane may allocate freely.
pub struct NullFaults;

impl FaultView for NullFaults {}

pub struct RecordingFaults {
    slots: Vec<u64>,
}

impl FaultView for RecordingFaults {
    fn begin_slot(&mut self, slot: u64) {
        self.slots.push(slot);
    }
}
