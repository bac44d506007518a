//! The §VII scaling outlook, as checkable arithmetic.
//!
//! "Given the signaling speed, pin limits and the current CMOS technology
//! limits, we consider 6–8 Tb/s aggregate switch bandwidth around the
//! maximum single-stage electronic limit. The OSMOSIS architecture can
//! scale to at least 50 Tb/s aggregate per stage. [...] Thus 256 ports at
//! 200 Gb/s per port are feasible, in a single stage. The FLPPR scheduler
//! can exploit higher parallelism to perform the required additional
//! iterations in the same time."

/// A single-stage OSMOSIS configuration: WDM wavelengths × fibers gives
/// the port count; per-port rate is bounded by the per-wavelength
/// bandwidth the SOA gates pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageConfig {
    /// WDM wavelengths per fiber.
    pub wavelengths: u32,
    /// Broadcast fibers.
    pub fibers: u32,
    /// Per-port line rate in Gb/s.
    pub port_gbps: f64,
}

impl StageConfig {
    /// The demonstrator: 8 × 8 × 40 Gb/s.
    pub fn demonstrator() -> Self {
        StageConfig {
            wavelengths: 8,
            fibers: 8,
            port_gbps: 40.0,
        }
    }

    /// The §VII outlook point: 256 ports at 200 Gb/s.
    pub fn outlook_256x200() -> Self {
        StageConfig {
            wavelengths: 16,
            fibers: 16,
            port_gbps: 200.0,
        }
    }

    /// Ports = wavelengths × fibers.
    pub fn ports(&self) -> u32 {
        self.wavelengths * self.fibers
    }

    /// Aggregate stage bandwidth in Tb/s.
    pub fn aggregate_tbps(&self) -> f64 {
        self.ports() as f64 * self.port_gbps / 1_000.0
    }
}

/// Physical envelope the optics must respect.
#[derive(Debug, Clone, Copy)]
pub struct OpticalEnvelope {
    /// Usable amplified band per fiber in GHz (C-band ≈ 4.4 THz, keep
    /// margin).
    pub band_ghz: f64,
    /// Spectral efficiency in b/s/Hz the modulation achieves end to end.
    pub spectral_efficiency: f64,
    /// Maximum fibers the broadcast stage can split/amplify.
    pub max_fibers: u32,
}

impl OpticalEnvelope {
    /// Mid-2000s WDM practice: 4 THz band, 0.8 b/s/Hz net (NRZ/DPSK with
    /// guard bands), up to 32 fibers.
    pub fn circa_2005() -> Self {
        OpticalEnvelope {
            band_ghz: 4_000.0,
            spectral_efficiency: 0.8,
            max_fibers: 32,
        }
    }

    /// Per-fiber capacity in Gb/s.
    pub fn fiber_capacity_gbps(&self) -> f64 {
        self.band_ghz * self.spectral_efficiency
    }

    /// Does a stage configuration fit the envelope?
    pub fn admits(&self, cfg: StageConfig) -> bool {
        cfg.fibers <= self.max_fibers
            && cfg.wavelengths as f64 * cfg.port_gbps <= self.fiber_capacity_gbps()
    }

    /// The maximum aggregate bandwidth the envelope supports.
    pub fn max_aggregate_tbps(&self) -> f64 {
        self.fiber_capacity_gbps() * self.max_fibers as f64 / 1_000.0
    }
}

/// §VII's electronic ceiling: 6–8 Tb/s aggregate for a single stage.
pub const ELECTRONIC_SINGLE_STAGE_TBPS: f64 = 8.0;

/// FLPPR parallelism check: an N-port switch needs log₂N iterations per
/// matching (ref. \[17\]); with one iteration per cell cycle, the scheduler
/// needs `depth = log₂N` parallel sub-schedulers. Returns the depth.
pub fn flppr_depth_for(ports: u32) -> u32 {
    (ports.max(2) as f64).log2().ceil() as u32
}

/// Cell time in nanoseconds for a cell size and port rate.
pub fn cell_time_ns(cell_bytes: u32, port_gbps: f64) -> f64 {
    cell_bytes as f64 * 8.0 / port_gbps
}

/// §VII trade: an ASIC scheduler ≥4× faster than the FPGA one can spend
/// the gain on smaller cells or faster ports. Given a baseline (cell,
/// rate) whose scheduling fits, check whether a new (cell, rate) still
/// fits when the scheduler is `speedup`× faster: the iteration time must
/// not exceed the new cell time.
pub fn asic_tradeoff_fits(
    base_cell_bytes: u32,
    base_gbps: f64,
    new_cell_bytes: u32,
    new_gbps: f64,
    speedup: f64,
) -> bool {
    let base_iteration_ns = cell_time_ns(base_cell_bytes, base_gbps);
    let new_iteration_ns = base_iteration_ns / speedup;
    new_iteration_ns <= cell_time_ns(new_cell_bytes, new_gbps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demonstrator_aggregate() {
        let d = StageConfig::demonstrator();
        assert_eq!(d.ports(), 64);
        assert!((d.aggregate_tbps() - 2.56).abs() < 1e-9);
    }

    #[test]
    fn paper_claim_50_tbps_per_stage() {
        // "The OSMOSIS architecture can scale to at least 50 Tb/s
        // aggregate per stage."
        let env = OpticalEnvelope::circa_2005();
        let big = StageConfig::outlook_256x200();
        assert!(env.admits(big), "256×200G must fit the optical envelope");
        assert!(
            big.aggregate_tbps() >= 50.0,
            "aggregate {}",
            big.aggregate_tbps()
        );
        assert!(env.max_aggregate_tbps() >= 50.0);
    }

    #[test]
    fn paper_claim_electronic_ceiling() {
        // OSMOSIS's scalable aggregate sits far above the 6–8 Tb/s
        // electronic single-stage ceiling.
        let big = StageConfig::outlook_256x200();
        assert!(big.aggregate_tbps() > 5.0 * ELECTRONIC_SINGLE_STAGE_TBPS);
        // ...and even the demonstrator is below it, as expected for a
        // 64×40G prototype.
        assert!(StageConfig::demonstrator().aggregate_tbps() < ELECTRONIC_SINGLE_STAGE_TBPS);
    }

    #[test]
    fn envelope_rejects_overcommitted_fibers() {
        let env = OpticalEnvelope::circa_2005();
        // 64 wavelengths at 100 Gb/s = 6.4 Tb/s per fiber > 3.2 Tb/s cap.
        let bad = StageConfig {
            wavelengths: 64,
            fibers: 8,
            port_gbps: 100.0,
        };
        assert!(!env.admits(bad));
        let too_many_fibers = StageConfig {
            wavelengths: 8,
            fibers: 64,
            port_gbps: 40.0,
        };
        assert!(!env.admits(too_many_fibers));
    }

    #[test]
    fn flppr_depth_grows_logarithmically() {
        assert_eq!(flppr_depth_for(64), 6);
        assert_eq!(
            flppr_depth_for(256),
            8,
            "two more sub-schedulers for 4× ports"
        );
        assert_eq!(flppr_depth_for(2048), 11);
    }

    #[test]
    fn cell_time_matches_demonstrator() {
        assert!((cell_time_ns(256, 40.0) - 51.2).abs() < 1e-12);
    }

    #[test]
    fn asic_speedup_buys_smaller_cells_or_faster_ports() {
        // §VII: "a straightforward mapping of the scheduler logic to ASIC
        // will speed up the scheduler by at least a factor of four. This
        // can be invested in making the fixed-size packet shorter and the
        // port bandwidth higher at the same size, or a combination."
        // 4×: 64-byte cells at 40 Gb/s (12.8 ns) fit:
        assert!(asic_tradeoff_fits(256, 40.0, 64, 40.0, 4.0));
        // or 256-byte cells at 160 Gb/s:
        assert!(asic_tradeoff_fits(256, 40.0, 256, 160.0, 4.0));
        // or the combination 128 bytes at 80 Gb/s:
        assert!(asic_tradeoff_fits(256, 40.0, 128, 80.0, 4.0));
        // but not both maxed out:
        assert!(!asic_tradeoff_fits(256, 40.0, 64, 160.0, 4.0));
        // and nothing improves without the speedup:
        assert!(!asic_tradeoff_fits(256, 40.0, 64, 40.0, 1.0));
    }
}
