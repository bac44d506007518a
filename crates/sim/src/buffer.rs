//! Why an emulated optical buffer lost a cell.
//!
//! The fiber-delay-line queues that lose cells live in `osmosis-fdl`;
//! [`BufferLossReason`] lives in the simulation kernel, beside the audit
//! plane's [`DropReason`](crate::audit::DropReason), because the
//! telemetry stream's `fdl_drop` record names it.

/// Why an emulated optical buffer lost a cell it was asked to store.
///
/// Electronic buffers never lose cells (credit flow control upstream of
/// them guarantees space); these reasons exist for emulated optical
/// buffers, where storage is a bank of fixed-length delay lines and a
/// cell that cannot be scheduled onto any legal line has nowhere
/// physical to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferLossReason {
    /// The arrival was refused because the queue already holds its
    /// guaranteed capacity (the provable emulation bound).
    AdmissionFull,
    /// A stored cell emerged from its delay line, was not served, and no
    /// alive delay line of legal length could accept it this slot.
    NoFeasibleLine,
    /// As [`NoFeasibleLine`](BufferLossReason::NoFeasibleLine), but a
    /// currently *dead* line would have been legal — the loss is
    /// attributable to the delay-line fault.
    DeadLine,
}

impl BufferLossReason {
    /// Short stable label (telemetry record field, report extras).
    pub fn name(self) -> &'static str {
        match self {
            BufferLossReason::AdmissionFull => "admission_full",
            BufferLossReason::NoFeasibleLine => "no_feasible_line",
            BufferLossReason::DeadLine => "dead_line",
        }
    }

    /// The reason labelled `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        [Self::AdmissionFull, Self::NoFeasibleLine, Self::DeadLine]
            .into_iter()
            .find(|r| r.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_reason_names_are_stable() {
        for (reason, name) in [
            (BufferLossReason::AdmissionFull, "admission_full"),
            (BufferLossReason::NoFeasibleLine, "no_feasible_line"),
            (BufferLossReason::DeadLine, "dead_line"),
        ] {
            assert_eq!(reason.name(), name);
            assert_eq!(BufferLossReason::from_name(name), Some(reason));
        }
        assert_eq!(BufferLossReason::from_name("full"), None);
    }
}
