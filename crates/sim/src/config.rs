//! TPU v2-class machine configuration.

/// Parameters of the simulated accelerator.
///
/// Defaults approximate a single TPU v2 core: a 128×128 systolic matrix
/// unit, an 8-sublane × 128-lane vector unit, a software-managed scratchpad
/// (VMEM) instead of caches, and HBM reached via explicit DMA. The chip has
/// no out-of-order execution, hardware caching, or multi-threading (§3.3 of
/// the paper), which is what makes kernel-sum program timing valid.
///
/// # Example
///
/// ```
/// use tpu_sim::TpuConfig;
/// let cfg = TpuConfig::default();
/// assert_eq!(cfg.mxu_dim, 128);
/// assert!(cfg.peak_matmul_flops() > 1e12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TpuConfig {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Matrix unit dimension (square systolic array).
    pub mxu_dim: usize,
    /// Vector unit sublanes (second-minor dimension of 2D registers).
    pub vpu_sublanes: usize,
    /// Vector unit lanes (minor dimension of 2D registers).
    pub vpu_lanes: usize,
    /// Scratchpad (VMEM) capacity in bytes.
    pub vmem_bytes: u64,
    /// HBM bandwidth in GiB/s.
    pub hbm_gibps: f64,
    /// Fixed DMA setup latency per tile transfer, ns.
    pub dma_latency_ns: f64,
    /// Fixed kernel launch overhead, ns.
    pub kernel_launch_ns: f64,
    /// Loop bookkeeping overhead per output tile, ns.
    pub tile_loop_ns: f64,
    /// Fraction of DMA hidden behind compute by double buffering when the
    /// working set fits twice in VMEM; 0 disables overlap.
    pub overlap: f64,
    /// Systolic array fill depth in cycles (pipeline latency per pass).
    pub mxu_fill_cycles: f64,
    /// Lognormal run-to-run noise sigma. §5 observes ≤4% variation between
    /// runs; sigma 0.015 keeps min-of-3 well inside that.
    pub noise_sigma: f64,
    /// Per-configuration evaluation overhead charged against a device-time
    /// budget (compile + load + harness), ns. The paper's autotuner spends
    /// "most of its time compiling and executing programs on the TPU".
    pub eval_overhead_ns: f64,
}

impl Default for TpuConfig {
    fn default() -> Self {
        TpuConfig {
            clock_ghz: 0.7,
            mxu_dim: 128,
            vpu_sublanes: 8,
            vpu_lanes: 128,
            vmem_bytes: 16 * 1024 * 1024,
            hbm_gibps: 650.0,
            dma_latency_ns: 500.0,
            kernel_launch_ns: 2_000.0,
            tile_loop_ns: 30.0,
            overlap: 0.85,
            mxu_fill_cycles: 128.0,
            noise_sigma: 0.012,
            eval_overhead_ns: 1.5e9,
        }
    }
}

impl TpuConfig {
    /// A TPU-v3-class configuration: faster clock, twice the MXU capacity
    /// (modeled as a deeper pipeline with the same array), more VMEM, and
    /// ~1.4× HBM bandwidth. Used by the retargeting experiment: the
    /// learned model adapts by retraining, the hand-written analytical
    /// model would need re-engineering.
    pub fn v3_like() -> TpuConfig {
        TpuConfig {
            clock_ghz: 0.94,
            vmem_bytes: 32 * 1024 * 1024,
            hbm_gibps: 900.0,
            mxu_fill_cycles: 96.0,
            dma_latency_ns: 350.0,
            kernel_launch_ns: 1_500.0,
            eval_overhead_ns: 1.2e9,
            ..TpuConfig::default()
        }
    }

    /// Vector lanes available per cycle.
    pub fn vpu_width(&self) -> f64 {
        (self.vpu_sublanes * self.vpu_lanes) as f64
    }

    /// Peak matmul throughput in FLOP/s (2 flops per MAC).
    pub fn peak_matmul_flops(&self) -> f64 {
        2.0 * (self.mxu_dim * self.mxu_dim) as f64 * self.clock_ghz * 1e9
    }

    /// HBM bandwidth in bytes per nanosecond.
    pub fn hbm_bytes_per_ns(&self) -> f64 {
        self.hbm_gibps * (1024.0 * 1024.0 * 1024.0) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_tpu_v2_like() {
        let c = TpuConfig::default();
        assert_eq!(c.vpu_width(), 1024.0);
        // ~23 TFLOP/s matmul peak at 0.7 GHz.
        assert!(c.peak_matmul_flops() > 20e12 && c.peak_matmul_flops() < 25e12);
        assert!(c.hbm_bytes_per_ns() > 500.0);
    }

    #[test]
    fn v3_is_faster() {
        let v2 = TpuConfig::default();
        let v3 = TpuConfig::v3_like();
        assert!(v3.peak_matmul_flops() > v2.peak_matmul_flops());
        assert!(v3.hbm_bytes_per_ns() > v2.hbm_bytes_per_ns());
        assert!(v3.vmem_bytes > v2.vmem_bytes);
    }
}
