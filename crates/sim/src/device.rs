//! The simulated device: noisy execution with device-time accounting.

use crate::config::TpuConfig;
use crate::fault::{DeviceError, Fault, FaultPlan};
use crate::kernel_exec::kernel_time_ns;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::{Cell, RefCell};
use tpu_hlo::{FusedProgram, Kernel};
use tpu_obs::{Counter, Gauge, Histogram, Registry};

/// `tpu-obs` handles for the device-time meter (`sim.device.*`) and the
/// fault injector (`sim.fault.*`).
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
    fault_transients: Counter,
    fault_preemptions: Counter,
    fault_spikes: Counter,
    fault_lost_ns: Histogram,
}

impl DeviceObs {
    fn new(registry: &Registry) -> DeviceObs {
        DeviceObs {
            kernel_execs: registry.counter("sim.device.kernel_execs"),
            eval_overheads: registry.counter("sim.device.eval_overheads"),
            exec_ns: registry.histogram("sim.device.exec_ns"),
            time_used_ns: registry.gauge("sim.device.time_used_ns"),
            fault_transients: registry.counter("sim.fault.transients"),
            fault_preemptions: registry.counter("sim.fault.preemptions"),
            fault_spikes: registry.counter("sim.fault.spikes"),
            fault_lost_ns: registry.histogram("sim.fault.lost_ns"),
        }
    }
}

/// Per-device fault tallies (monotonic; not reset by
/// [`TpuDevice::reset_time_used`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient failures injected so far.
    pub transients: u64,
    /// Preemptions injected so far.
    pub preemptions: u64,
    /// Tail-latency spikes injected so far.
    pub spikes: u64,
}

impl FaultCounts {
    /// Total injected faults (spikes included: the run succeeded, but the
    /// measurement is an outlier).
    pub fn total(&self) -> u64 {
        self.transients + self.preemptions + self.spikes
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
    /// Execution-event counter driving the fault schedule: one event per
    /// kernel-execution attempt, fallible or not. Under `FaultPlan::none()`
    /// this counter is the only extra state and never changes behavior.
    fault_event: Cell<u64>,
    faults: Cell<FaultCounts>,
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
            fault_event: Cell::new(0),
            faults: Cell::new(FaultCounts::default()),
            obs: DeviceObs::default(),
            registry: Registry::noop(),
        }
    }

    /// Replace the device's fault schedule (builder-style).
    pub fn with_faults(mut self, plan: FaultPlan) -> TpuDevice {
        self.cfg.fault = plan;
        self
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

    /// Fault counts injected so far on this device.
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.get()
    }

    /// Execute a kernel once, returning a noisy runtime in ns, or a
    /// [`DeviceError`] if the fault schedule injects a failure at this
    /// execution event.
    ///
    /// Fault semantics:
    /// - **transient**: fails before launch; no device time charged.
    /// - **preemption**: the run executes (full noisy runtime charged
    ///   against the budget) but the result is lost.
    /// - **spike**: the run succeeds but its measured — and charged — time
    ///   is scaled beyond the 4% noise clamp.
    ///
    /// One measurement-noise draw is consumed per attempt regardless of
    /// outcome, so the noise stream stays aligned with the event counter
    /// and a [`FaultPlan::none`] device is bit-identical to the fault-free
    /// simulator.
    pub fn try_execute_kernel(&self, k: &Kernel) -> Result<f64, DeviceError> {
        let event = self.fault_event.get();
        self.fault_event.set(event + 1);
        let t = kernel_time_ns(k, &self.cfg) * self.noise();
        match self.cfg.fault.fault_at(event) {
            None => {
                self.used_ns.set(self.used_ns.get() + t);
                self.obs.kernel_execs.inc();
                self.obs.exec_ns.observe(t as u64);
                self.obs.time_used_ns.set(self.used_ns.get());
                Ok(t)
            }
            Some(Fault::Spike(scale)) => {
                let t = t * scale;
                self.used_ns.set(self.used_ns.get() + t);
                let mut f = self.faults.get();
                f.spikes += 1;
                self.faults.set(f);
                self.obs.kernel_execs.inc();
                self.obs.exec_ns.observe(t as u64);
                self.obs.fault_spikes.inc();
                self.obs.time_used_ns.set(self.used_ns.get());
                Ok(t)
            }
            Some(Fault::Transient) => {
                let mut f = self.faults.get();
                f.transients += 1;
                self.faults.set(f);
                self.obs.fault_transients.inc();
                Err(DeviceError::Transient { event })
            }
            Some(Fault::Preempt) => {
                self.used_ns.set(self.used_ns.get() + t);
                let mut f = self.faults.get();
                f.preemptions += 1;
                self.faults.set(f);
                self.obs.fault_preemptions.inc();
                self.obs.fault_lost_ns.observe(t as u64);
                self.obs.time_used_ns.set(self.used_ns.get());
                Err(DeviceError::Preempted {
                    event,
                    charged_ns: t,
                })
            }
        }
    }

    /// Fallible min-of-`runs` measurement (§5's protocol under faults):
    /// failed runs are skipped; errors only if *every* run fails, returning
    /// the last error. Device time is charged per the per-run fault
    /// semantics either way.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn try_measure_kernel(&self, k: &Kernel, runs: usize) -> Result<f64, DeviceError> {
        assert!(runs > 0, "need at least one run");
        let mut best = f64::INFINITY;
        let mut last_err = None;
        for _ in 0..runs {
            match self.try_execute_kernel(k) {
                Ok(t) => best = best.min(t),
                Err(e) => last_err = Some(e),
            }
        }
        if best.is_finite() {
            Ok(best)
        } else {
            // INVARIANT: zero successful runs (runs >= 1) implies at least
            // one recorded error.
            Err(last_err.expect("no successful run implies an error"))
        }
    }

    /// Execute a kernel `runs` times and return the minimum (§5's
    /// protocol), charging device time.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`, or if the configured [`FaultPlan`] injects a
    /// failure — the infallible entries are for fault-free devices; use
    /// [`TpuDevice::try_measure_kernel`] under a fault plan. Under
    /// [`FaultPlan::none`] (the default) this never panics and is
    /// bit-identical to the pre-fault-injection device.
    pub fn measure_kernel(&self, k: &Kernel, runs: usize) -> f64 {
        assert!(runs > 0, "need at least one run");
        (0..runs)
            .map(|_| {
                self.try_execute_kernel(k)
                    .expect("infallible device API hit an injected fault; use try_measure_kernel")
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Execute a program's kernels once, in order, wherever the caller
    /// keeps them (§3.3: "one kernel is executed at a time"), or fail at
    /// the first faulted kernel. The prefix executed so far stays charged,
    /// like a crashed run on real hardware.
    pub fn try_execute_kernels<'k>(
        &self,
        kernels: impl IntoIterator<Item = &'k Kernel>,
    ) -> Result<f64, DeviceError> {
        let mut total = 0.0;
        for k in kernels {
            total += self.try_execute_kernel(k)?;
        }
        Ok(total)
    }

    /// Program runtime as the min of `runs` executions, charging device
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`, or if the fault plan injects a failure (see
    /// [`TpuDevice::measure_kernel`]); under a fault plan, use
    /// [`TpuDevice::try_execute_kernels`].
    pub fn measure_program(&self, p: &FusedProgram, runs: usize) -> f64 {
        assert!(runs > 0, "need at least one run");
        (0..runs)
            .map(|_| {
                self.try_execute_kernels(&p.kernels)
                    .expect("infallible device API hit an injected fault; use try_execute_kernels")
            })
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
    fn none_plan_try_api_matches_infallible_api() {
        let k = kernel();
        let a = TpuDevice::new(99);
        let b = TpuDevice::new(99);
        for _ in 0..32 {
            let ta = a.measure_kernel(&k, 1);
            let tb = b.try_execute_kernel(&k).expect("no faults under none()");
            assert_eq!(ta.to_bits(), tb.to_bits());
        }
        assert_eq!(
            a.device_time_used().to_bits(),
            b.device_time_used().to_bits()
        );
        assert_eq!(b.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn chaos_device_is_deterministic_and_counts_faults() {
        let k = kernel();
        let run = || {
            let d = TpuDevice::new(5).with_faults(FaultPlan::chaos(11));
            let results: Vec<Result<u64, DeviceError>> = (0..200)
                .map(|_| d.try_execute_kernel(&k).map(|t| t.to_bits()))
                .collect();
            (results, d.fault_counts(), d.device_time_used().to_bits())
        };
        let (ra, fa, ua) = run();
        let (rb, fb, ub) = run();
        assert_eq!(ra, rb);
        assert_eq!(fa, fb);
        assert_eq!(ua, ub);
        assert!(fa.total() > 0, "chaos plan injected no faults in 200 runs");
        assert!(fa.transients > 0 && fa.preemptions > 0 && fa.spikes > 0);
    }

    #[test]
    fn preemption_charges_device_time_and_transient_does_not() {
        let k = kernel();
        // Force each fault kind in isolation via a plan with one prob = 1.
        let preempt_only = FaultPlan {
            preempt_prob: 1.0,
            ..FaultPlan::none()
        };
        let d = TpuDevice::new(1).with_faults(preempt_only);
        let err = d.try_execute_kernel(&k).expect_err("must preempt");
        match err {
            DeviceError::Preempted { charged_ns, .. } => {
                assert!(charged_ns > 0.0);
                assert!((d.device_time_used() - charged_ns).abs() < 1e-9);
            }
            other => panic!("expected preemption, got {other:?}"),
        }

        let transient_only = FaultPlan {
            transient_prob: 1.0,
            ..FaultPlan::none()
        };
        let d = TpuDevice::new(1).with_faults(transient_only);
        let err = d.try_execute_kernel(&k).expect_err("must fail");
        assert!(matches!(err, DeviceError::Transient { .. }));
        assert_eq!(d.device_time_used(), 0.0);
    }

    #[test]
    fn spikes_escape_the_noise_clamp() {
        let k = kernel();
        let spike_only = FaultPlan {
            spike_prob: 1.0,
            spike_scale_min: 1.5,
            spike_scale_max: 3.0,
            ..FaultPlan::none()
        };
        let d = TpuDevice::new(7).with_faults(spike_only);
        let truth = d.true_kernel_time(&k);
        for _ in 0..20 {
            let t = d.try_execute_kernel(&k).expect("spikes still succeed");
            assert!(t / truth > 1.04, "spike {t} did not escape the clamp");
        }
        assert_eq!(d.fault_counts().spikes, 20);
    }

    #[test]
    fn try_measure_kernel_skips_failed_runs() {
        let k = kernel();
        // Moderate fault rate: with 6 runs it is overwhelmingly likely at
        // least one completes for this seed (pinned below).
        let d = TpuDevice::new(3).with_faults(FaultPlan::chaos(2));
        let t = d
            .try_measure_kernel(&k, 6)
            .expect("at least one clean run with this seed pair");
        assert!(t > 0.0);

        let all_fail = FaultPlan {
            transient_prob: 1.0,
            ..FaultPlan::none()
        };
        let d = TpuDevice::new(3).with_faults(all_fail);
        assert!(d.try_measure_kernel(&k, 3).is_err());
    }

    /// The first chaos fault seed whose schedule lets event 0 through (no
    /// fault, or a spike) and then fails event 1: with a preemption if
    /// `preempt`, else with a transient failure.
    fn seed_failing_event_one(preempt: bool) -> u64 {
        (0..10_000)
            .find(|&seed| {
                let plan = FaultPlan::chaos(seed);
                let passes = matches!(plan.fault_at(0), None | Some(Fault::Spike(_)));
                let fails = match plan.fault_at(1) {
                    Some(Fault::Preempt) => preempt,
                    Some(Fault::Transient) => !preempt,
                    _ => false,
                };
                passes && fails
            })
            .expect("some seed fails event 1")
    }

    #[test]
    fn a_failed_program_run_charges_the_prefix_it_executed() {
        let mut b = GraphBuilder::new("k1");
        let x = b.parameter("x", Shape::matrix(256, 1024), DType::F32);
        let e = b.exp(x);
        let program = [kernel(), Kernel::new(b.finish(e)), kernel()];
        for (noise_seed, preempt) in [(4, false), (8, true)] {
            let plan = FaultPlan::chaos(seed_failing_event_one(preempt));
            let d = TpuDevice::new(noise_seed).with_faults(plan.clone());
            let err = d.try_execute_kernels(&program).expect_err("event 1 faults");
            assert_eq!(err.event(), 1);
            // The same seeds replay event 0 alone: the first kernel's charge.
            let first = TpuDevice::new(noise_seed)
                .with_faults(plan)
                .try_execute_kernel(&program[0])
                .expect("event 0 passes");
            let lost = match err {
                DeviceError::Transient { .. } => {
                    assert!(!preempt);
                    0.0
                }
                DeviceError::Preempted { charged_ns, .. } => {
                    assert!(preempt && charged_ns > 0.0);
                    charged_ns
                }
            };
            // Kernel 2 never ran: the meter holds kernel 0 and the lost run.
            assert_eq!(d.device_time_used().to_bits(), (first + lost).to_bits());
        }
    }

    #[test]
    fn observed_chaos_device_records_fault_metrics() {
        let registry = Registry::enabled();
        let k = kernel();
        let d = TpuDevice::new(5)
            .with_faults(FaultPlan::chaos(11))
            .observed(&registry);
        for _ in 0..200 {
            let _ = d.try_execute_kernel(&k);
        }
        let counts = d.fault_counts();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("sim.fault.transients"),
            Some(counts.transients)
        );
        assert_eq!(
            snap.counter("sim.fault.preemptions"),
            Some(counts.preemptions)
        );
        assert_eq!(snap.counter("sim.fault.spikes"), Some(counts.spikes));
        let lost = snap.histogram("sim.fault.lost_ns").expect("lost histogram");
        assert_eq!(lost.count, counts.preemptions);
    }
}
