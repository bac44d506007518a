//! The model-specific metrics an [`EngineReport`](crate::EngineReport)
//! carries next to its fixed fields, one [`Extra`] variant each.
//!
//! A report holds them as `(Extra, f64)` pairs in the order the run set
//! them, and [`EngineReport::fingerprint`](crate::EngineReport::fingerprint)
//! folds each pair as the bytes of [`Extra::name`] followed by the
//! value's bits. The names are therefore part of every pinned digest and
//! of every checkpoint record: rename a variant freely, never its name.

macro_rules! extras {
    ($($(#[doc = $doc:literal])+ $variant:ident => $name:literal,)+) => {
        /// One model-specific report metric.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Extra {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Extra {
            /// Every variant, in declaration order.
            pub const ALL: &'static [Extra] = &[$(Extra::$variant),+];

            /// The metric's stable name: what the fingerprint folds and a
            /// checkpoint record stores.
            pub fn name(self) -> &'static str {
                match self {
                    $(Extra::$variant => $name,)+
                }
            }
        }
    };
}

extras! {
    /// Switch hops on the longest minimal route of a compiled fabric
    /// (the §VI.C stage count; set on `rg = 0` fabrics only).
    Stages => "stages",
    /// Switches in a compiled fabric (set on `rg = 0` fabrics only).
    Switches => "switches",
    /// Cells the fabric's FDL buffer planes lost, every reason together.
    FdlDropsTotal => "fdl_drops_total",
    /// FDL losses at admission: every delay line of the queue was busy.
    FdlDropsAdmission => "fdl_drops_admission",
    /// FDL losses to delay lines a fault killed.
    FdlDropsDeadLine => "fdl_drops_dead_line",
    /// Cells that emerged from a delay line unserved and re-entered one.
    FdlRecirculations => "fdl_recirculations",
    /// Grants that found their cell still in the fiber.
    FdlUnderflowStalls => "fdl_underflow_stalls",
    /// Fault activations the injector applied.
    FaultsInjected => "faults_injected",
    /// Fault activations that healed inside the run.
    FaultsHealed => "faults_healed",
    /// Slots with at least one fault active.
    FaultActiveSlots => "fault_active_slots",
    /// Repair time summed over every healed fault.
    FaultRepairSlotsTotal => "fault_repair_slots_total",
    /// Grants a `GrantLoss` fault destroyed.
    FaultGrantsLost => "fault_grants_lost",
    /// Credit returns a `CreditDrop` fault destroyed.
    FaultCreditsDropped => "fault_credits_dropped",
    /// Cells a `LinkBerBurst` fault corrupted on the wire.
    FaultCellsCorrupted => "fault_cells_corrupted",
    /// Cells a fault destroyed outright (see ROADMAP item 5(a)).
    FaultCellsLost => "fault_cells_lost",
    /// Hop-by-hop retransmissions the engine saw on a faulted run.
    FaultRetransmits => "fault_retransmits",
    /// Share of busy slots a CIOQ output idled while work for it waited.
    ViolationFraction => "violation_fraction",
    /// Multicast copies delivered (a fanout-k cell counts k).
    CopiesDelivered => "copies_delivered",
    /// Mean crossbar transmissions per completed multicast cell.
    MeanTransmissions => "mean_transmissions",
    /// Invariant violations the audit battery found (set only when > 0).
    AuditViolations => "audit_violations",
    /// Median cell delay, in slots.
    DelayP50 => "delay_p50",
    /// 95th-percentile cell delay, in slots.
    DelayP95 => "delay_p95",
    /// 99th-percentile cell delay, in slots.
    DelayP99 => "delay_p99",
    /// 99.9th-percentile cell delay, in slots.
    DelayP999 => "delay_p999",
    /// Cells a model refused at admission (set only when > 0).
    DropsRejected => "drops_rejected",
    /// Cells dropped on a full buffer (set only when > 0).
    DropsBufferFull => "drops_buffer_full",
    /// Cells offered to a reliable link.
    LinkOffered => "link_offered",
    /// Arrivals with a block the FEC detected but could not correct.
    LinkCorruptedArrivals => "link_corrupted_arrivals",
    /// Cells the link's go-back-N resent.
    LinkRetransmissions => "link_retransmissions",
    /// Cells whose errors the link's FEC corrected.
    LinkFecCorrectedCells => "link_fec_corrected_cells",
    /// Corrupted cells delivered as good: the integrity claim is zero.
    LinkUndetectedCorruptions => "link_undetected_corruptions",
    /// Circuit-scheduler epochs.
    OcsEpochs => "ocs_epochs",
    /// Epochs that reconfigured at least one circuit.
    OcsReconfigurations => "ocs_reconfigurations",
    /// Circuits changed, summed over every reconfiguration.
    OcsChangedCircuits => "ocs_changed_circuits",
    /// Guard slots paid for reconfigurations.
    OcsGuardSlotsPaid => "ocs_guard_slots_paid",
    /// Permutations the BvN decompositions produced.
    OcsBvnTerms => "ocs_bvn_terms",
    /// BvN decompositions of the demand matrix.
    OcsDecompositions => "ocs_decompositions",
    /// Round-robin rotor frames scheduled.
    OcsRotorFrames => "ocs_rotor_frames",
    /// Cells moved over circuits.
    OcsTransfers => "ocs_transfers",
    /// Mean circuit utilization over the epochs.
    OcsMeanUtilization => "ocs_mean_utilization",
}

impl Extra {
    /// The variant named `name`, if any.
    pub(crate) fn from_name(name: &str) -> Option<Extra> {
        Extra::ALL.iter().copied().find(|e| e.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_round_trip() {
        for (i, e) in Extra::ALL.iter().enumerate() {
            assert_eq!(Extra::from_name(e.name()), Some(*e));
            assert!(Extra::ALL[..i].iter().all(|o| o.name() != e.name()));
        }
        assert_eq!(Extra::from_name("no_such_extra"), None);
    }
}
