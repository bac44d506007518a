// Fixture: the null impl stays empty; a *real* plane may allocate freely.
pub struct NoAudit;

impl Auditor for NoAudit {}

pub struct RecordingAudit {
    events: Vec<(u64, usize)>,
}

impl Auditor for RecordingAudit {
    fn flow_regressed(&mut self, slot: u64, src: usize, _dst: usize, _seq: u64, _last_seq: u64) {
        self.events.push((slot, src));
    }
}
