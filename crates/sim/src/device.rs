//! The simulated device: noisy execution with device-time accounting.

use crate::config::TpuConfig;
use crate::kernel_exec::kernel_time_ns;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::{Cell, RefCell};
use tpu_hlo::{FusedProgram, Kernel};
use tpu_obs::{Counter, Gauge, Histogram, Registry};

/// `tpu-obs` handles for the device-time meter (`sim.device.*`).
///
/// All handles default to no-ops; [`TpuDevice::observed`] swaps in live
/// ones. The histograms record **simulated** nanoseconds (the metered
/// device time), not wall time.
#[derive(Debug, Default)]
struct DeviceObs {
    kernel_execs: Counter,
    eval_overheads: Counter,
    exec_ns: Histogram,
    time_used_ns: Gauge,
}

impl DeviceObs {
    fn new(registry: &Registry) -> DeviceObs {
        DeviceObs {
            kernel_execs: registry.counter("sim.device.kernel_execs"),
            eval_overheads: registry.counter("sim.device.eval_overheads"),
            exec_ns: registry.histogram("sim.device.exec_ns"),
            time_used_ns: registry.gauge("sim.device.time_used_ns"),
        }
    }
}

/// A simulated TPU device.
///
/// Plays the role of the scarce "real hardware" in the paper's autotuning
/// experiments (§6.3): every execution — and the per-configuration
/// compile/load overhead — is charged against [`TpuDevice::device_time_used`],
/// so a harness can enforce a wall-clock hardware budget.
///
/// Runtimes are the noiseless simulator time perturbed by lognormal
/// measurement noise; §5's protocol ("execute each kernel 3 times, then
/// interpret the minimum runtime as our targets") is provided by
/// [`TpuDevice::measure_kernel`].
///
/// # Example
///
/// ```
/// use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
/// use tpu_sim::TpuDevice;
///
/// let mut b = GraphBuilder::new("k");
/// let x = b.parameter("x", Shape::matrix(128, 128), DType::F32);
/// let t = b.tanh(x);
/// let kernel = Kernel::new(b.finish(t));
///
/// let device = TpuDevice::new(42);
/// let ns = device.measure_kernel(&kernel, 3);
/// assert!(ns > 0.0);
/// assert!(device.device_time_used() > 0.0);
/// ```
#[derive(Debug)]
pub struct TpuDevice {
    cfg: TpuConfig,
    rng: RefCell<ChaCha8Rng>,
    used_ns: Cell<f64>,
    obs: DeviceObs,
    registry: Registry,
}

impl TpuDevice {
    /// Create a device with the default configuration and an RNG seed for
    /// the measurement noise.
    pub fn new(seed: u64) -> TpuDevice {
        TpuDevice::with_config(TpuConfig::default(), seed)
    }

    /// Create a device with a custom configuration.
    pub fn with_config(cfg: TpuConfig, seed: u64) -> TpuDevice {
        TpuDevice {
            cfg,
            rng: RefCell::new(ChaCha8Rng::seed_from_u64(seed)),
            used_ns: Cell::new(0.0),
            obs: DeviceObs::default(),
            registry: Registry::noop(),
        }
    }

    /// Record `sim.device.*` metrics into `registry`: kernel executions
    /// and eval overheads as counters, per-execution **simulated** ns as a
    /// histogram, and the running device-time meter as a gauge.
    /// Instrumentation never feeds back into timing or noise, so observed
    /// and unobserved devices produce bit-identical measurements.
    ///
    /// The device *carries* the registry: whatever runs on it — a
    /// hardware objective, an autotuning run — records into
    /// [`TpuDevice::registry`] without being handed one.
    pub fn observed(mut self, registry: &Registry) -> TpuDevice {
        self.obs = DeviceObs::new(registry);
        self.registry = registry.clone();
        self
    }

    /// The registry this device was [`observed`](TpuDevice::observed)
    /// with (the no-op registry otherwise).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The device configuration.
    pub fn config(&self) -> &TpuConfig {
        &self.cfg
    }

    /// Total device time consumed so far, ns (executions + per-eval
    /// overheads charged via [`TpuDevice::charge_eval_overhead`]).
    pub fn device_time_used(&self) -> f64 {
        self.used_ns.get()
    }

    /// Reset the device-time meter (e.g. between autotuning runs).
    pub fn reset_time_used(&self) {
        self.used_ns.set(0.0);
        self.obs.time_used_ns.set(0.0);
    }

    /// Charge one configuration-evaluation overhead (compile + load)
    /// against the budget and return the overhead charged, ns.
    pub fn charge_eval_overhead(&self) -> f64 {
        self.used_ns
            .set(self.used_ns.get() + self.cfg.eval_overhead_ns);
        self.obs.eval_overheads.inc();
        self.obs.time_used_ns.set(self.used_ns.get());
        self.cfg.eval_overhead_ns
    }

    fn noise(&self) -> f64 {
        // Lognormal multiplicative noise; runtimes "differ by no more than
        // 4% between runs" (§5), so clamp the tail.
        let mut rng = self.rng.borrow_mut();
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
        (self.cfg.noise_sigma * z).exp().clamp(0.96, 1.04)
    }

    /// Execute a kernel once: one noise draw, charged against the meter.
    fn execute(&self, k: &Kernel) -> f64 {
        let t = kernel_time_ns(k, &self.cfg) * self.noise();
        self.used_ns.set(self.used_ns.get() + t);
        self.obs.kernel_execs.inc();
        self.obs.exec_ns.observe(t as u64);
        self.obs.time_used_ns.set(self.used_ns.get());
        t
    }

    /// Execute a kernel `runs` times and return the minimum (§5's
    /// protocol), charging device time.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn measure_kernel(&self, k: &Kernel, runs: usize) -> f64 {
        assert!(runs > 0, "need at least one run");
        (0..runs)
            .map(|_| self.execute(k))
            .fold(f64::INFINITY, f64::min)
    }

    /// Execute a program's kernels once, in order, wherever the caller
    /// keeps them (§3.3: "one kernel is executed at a time"), and return
    /// the total, charging device time.
    pub fn execute_kernels<'k>(&self, kernels: impl IntoIterator<Item = &'k Kernel>) -> f64 {
        kernels
            .into_iter()
            .fold(0.0, |total, k| total + self.execute(k))
    }

    /// Program runtime as the min of `runs` executions, charging device
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn measure_program(&self, p: &FusedProgram, runs: usize) -> f64 {
        assert!(runs > 0, "need at least one run");
        (0..runs)
            .map(|_| self.execute_kernels(&p.kernels))
            .fold(f64::INFINITY, f64::min)
    }

    /// Noiseless ground-truth kernel time (no device-time charge); used for
    /// reporting true speedups.
    pub fn true_kernel_time(&self, k: &Kernel) -> f64 {
        kernel_time_ns(k, &self.cfg)
    }

    /// Noiseless ground-truth program time (no device-time charge).
    pub fn true_program_time(&self, p: &FusedProgram) -> f64 {
        self.true_kernels_time(&p.kernels)
    }

    /// [`TpuDevice::true_program_time`] over a program's kernels, in order,
    /// wherever the caller keeps them.
    pub fn true_kernels_time<'k>(&self, kernels: impl IntoIterator<Item = &'k Kernel>) -> f64 {
        kernels.into_iter().map(|k| self.true_kernel_time(k)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn kernel() -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(512, 512), DType::F32);
        let t = b.tanh(x);
        Kernel::new(b.finish(t))
    }

    #[test]
    fn noise_stays_within_four_percent() {
        let d = TpuDevice::new(7);
        let k = kernel();
        let truth = d.true_kernel_time(&k);
        for _ in 0..200 {
            let t = d.measure_kernel(&k, 1);
            assert!((t / truth - 1.0).abs() <= 0.04 + 1e-9);
        }
    }

    #[test]
    fn min_of_three_below_mean() {
        let d = TpuDevice::new(7);
        let k = kernel();
        let m3: f64 = d.measure_kernel(&k, 3);
        let one_run_avg: f64 = (0..50).map(|_| d.measure_kernel(&k, 1)).sum::<f64>() / 50.0;
        assert!(m3 <= one_run_avg * 1.01);
    }

    #[test]
    fn device_time_accumulates() {
        let d = TpuDevice::new(1);
        assert_eq!(d.device_time_used(), 0.0);
        let k = kernel();
        let t = d.measure_kernel(&k, 1);
        assert!((d.device_time_used() - t).abs() < 1e-9);
        let overhead = d.charge_eval_overhead();
        assert!((d.device_time_used() - t - overhead).abs() < 1e-6);
        d.reset_time_used();
        assert_eq!(d.device_time_used(), 0.0);
    }

    #[test]
    fn program_time_is_sum_of_kernels() {
        let d = TpuDevice::new(1);
        let p = FusedProgram::new("p", vec![kernel(), kernel(), kernel()]);
        let truth = d.true_program_time(&p);
        let single = d.true_kernel_time(&kernel());
        assert!((truth - 3.0 * single).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let k = kernel();
        let a = TpuDevice::new(99).measure_kernel(&k, 1);
        let b = TpuDevice::new(99).measure_kernel(&k, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn observed_device_meters_into_registry() {
        let registry = Registry::enabled();
        let d = TpuDevice::new(3).observed(&registry);
        assert!(
            d.registry().is_enabled(),
            "an observed device carries its registry"
        );
        assert!(!TpuDevice::new(3).registry().is_enabled());
        let k = kernel();
        let t1 = d.measure_kernel(&k, 1);
        let t2 = d.measure_kernel(&k, 1);
        let overhead = d.charge_eval_overhead();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim.device.kernel_execs"), Some(2));
        assert_eq!(snap.counter("sim.device.eval_overheads"), Some(1));
        let h = snap
            .histogram("sim.device.exec_ns")
            .expect("exec histogram");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, t1 as u64 + t2 as u64);
        let used = snap.gauge("sim.device.time_used_ns").expect("gauge");
        assert!((used - (t1 + t2 + overhead)).abs() < 1e-6);
        assert_eq!(used, d.device_time_used());

        d.reset_time_used();
        assert_eq!(
            registry.snapshot().gauge("sim.device.time_used_ns"),
            Some(0.0)
        );
    }

    #[test]
    fn observed_device_is_bit_identical_to_plain() {
        let k = kernel();
        let plain = TpuDevice::new(99).measure_kernel(&k, 1);
        let registry = Registry::enabled();
        let observed = TpuDevice::new(99).observed(&registry).measure_kernel(&k, 1);
        assert_eq!(plain.to_bits(), observed.to_bits());
    }

    #[test]
    fn a_program_run_is_its_kernels_run_once_in_order() {
        let mut b = GraphBuilder::new("k1");
        let x = b.parameter("x", Shape::matrix(256, 1024), DType::F32);
        let e = b.exp(x);
        let program = [kernel(), Kernel::new(b.finish(e)), kernel()];
        let whole = TpuDevice::new(4);
        let single = TpuDevice::new(4);
        let total = whole.execute_kernels(&program);
        let sum = program
            .iter()
            .fold(0.0, |sum, k| sum + single.measure_kernel(k, 1));
        assert_eq!(total.to_bits(), sum.to_bits());
        assert_eq!(
            whole.device_time_used().to_bits(),
            single.device_time_used().to_bits()
        );
    }
}
