//! Deterministic fault injection for the simulated device.
//!
//! Real measurement fleets are flaky: runs fail transiently, jobs get
//! preempted after burning device time, and tail-latency spikes escape the
//! §5 noise envelope. [`FaultPlan`] reproduces those failure modes inside
//! the simulator so every layer above it (harness retries, training
//! checkpoints, serving fallbacks) can be exercised under chaos — and,
//! crucially, *reproducibly*: every injected fault is a pure function of
//! `(fault seed, event index)`, where the event index is the device's count
//! of execution attempts. Faults never draw from the device's measurement
//! noise RNG, so a [`FaultPlan::none`] device is bit-identical to a device
//! built before this module existed, and chaos runs are bit-identical
//! across thread counts.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned by the fallible device API (`try_execute_kernel` and
/// friends): a plain enum implementing [`std::error::Error`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceError {
    /// The run failed before launching (measurement-infrastructure
    /// hiccup); no device time was charged.
    Transient {
        /// Device execution-event index at which the fault fired.
        event: u64,
    },
    /// The run was preempted: the kernel executed (device time charged in
    /// full) but the measurement was lost.
    Preempted {
        /// Device execution-event index at which the fault fired.
        event: u64,
        /// Device time charged for the lost run, ns.
        charged_ns: f64,
    },
}

impl DeviceError {
    /// The execution-event index at which the fault fired.
    pub fn event(&self) -> u64 {
        match self {
            DeviceError::Transient { event } => *event,
            DeviceError::Preempted { event, .. } => *event,
        }
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Transient { event } => {
                write!(f, "transient measurement failure at device event {event}")
            }
            DeviceError::Preempted { event, charged_ns } => write!(
                f,
                "preempted at device event {event} ({charged_ns:.0} ns charged, result lost)"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Outcome of the fault draw for one execution event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Fail fast; no useful work done.
    Transient,
    /// Execute (and charge) the run, then lose the result.
    Preempt,
    /// The run completes but its measured time is multiplied by `scale`
    /// (> the 4% noise clamp): a tail-latency outlier.
    Spike(f64),
}

/// A seeded schedule of injected device faults.
///
/// The decision for execution event `i` is `fault_at(i)`, a pure function
/// of `(self.seed, i)` built on a splitmix64-style hash — no RNG state is
/// carried between events and the device's noise stream is never touched.
///
/// The default plan is [`FaultPlan::none`] (all probabilities zero), under
/// which the device behaves exactly as the fault-free simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed mixed into every per-event fault draw.
    pub seed: u64,
    /// Probability of a transient failure per execution event.
    pub transient_prob: f64,
    /// Probability of a preemption per execution event.
    pub preempt_prob: f64,
    /// Probability of a tail-latency spike per execution event.
    pub spike_prob: f64,
    /// Spike multiplier range: a spiked run is scaled by a factor drawn
    /// deterministically from `[spike_scale_min, spike_scale_max)`.
    pub spike_scale_min: f64,
    /// Upper end of the spike multiplier range.
    pub spike_scale_max: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No faults; the device is bit-identical to the fault-free simulator.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            transient_prob: 0.0,
            preempt_prob: 0.0,
            spike_prob: 0.0,
            spike_scale_min: 1.0,
            spike_scale_max: 1.0,
        }
    }

    /// The default chaos plan used by `--faults <seed>`: 6% transient
    /// failures, 4% preemptions, 6% spikes of 1.5–3× — roughly one event in
    /// six goes wrong, which is hostile enough to exercise every retry
    /// path while leaving a budgeted search able to converge.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient_prob: 0.06,
            preempt_prob: 0.04,
            spike_prob: 0.06,
            spike_scale_min: 1.5,
            spike_scale_max: 3.0,
        }
    }

    /// True when no fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.transient_prob <= 0.0 && self.preempt_prob <= 0.0 && self.spike_prob <= 0.0
    }

    /// The fault (if any) injected at execution event `event`. Pure in
    /// `(self.seed, event)`.
    pub(crate) fn fault_at(&self, event: u64) -> Option<Fault> {
        if self.is_none() {
            return None;
        }
        let u = unit_hash(self.seed, event, 0);
        if u < self.transient_prob {
            return Some(Fault::Transient);
        }
        if u < self.transient_prob + self.preempt_prob {
            return Some(Fault::Preempt);
        }
        if u < self.transient_prob + self.preempt_prob + self.spike_prob {
            let f = unit_hash(self.seed, event, 1);
            let scale = self.spike_scale_min + f * (self.spike_scale_max - self.spike_scale_min);
            return Some(Fault::Spike(scale.max(1.0)));
        }
        None
    }
}

/// splitmix64 finalizer over `(seed, event, lane)`, mapped to `[0, 1)`.
fn unit_hash(seed: u64, event: u64, lane: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(event)
        .wrapping_add(lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // 53 high bits -> uniform double in [0, 1).
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_faults() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for e in 0..10_000 {
            assert_eq!(plan.fault_at(e), None);
        }
    }

    #[test]
    fn fault_draw_is_pure_in_seed_and_event() {
        let a = FaultPlan::chaos(7);
        let b = FaultPlan::chaos(7);
        for e in 0..5_000 {
            assert_eq!(a.fault_at(e), b.fault_at(e));
        }
        // And repeated queries of the same event agree (no hidden state).
        assert_eq!(a.fault_at(123), a.fault_at(123));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let differs = (0..1_000).any(|e| a.fault_at(e) != b.fault_at(e));
        assert!(differs, "seeds 1 and 2 produced identical fault schedules");
    }

    #[test]
    fn chaos_rates_are_roughly_as_configured() {
        let plan = FaultPlan::chaos(42);
        let n = 100_000u64;
        let (mut t, mut p, mut s) = (0u64, 0u64, 0u64);
        for e in 0..n {
            match plan.fault_at(e) {
                Some(Fault::Transient) => t += 1,
                Some(Fault::Preempt) => p += 1,
                Some(Fault::Spike(scale)) => {
                    assert!((1.5..3.0).contains(&scale), "spike scale {scale}");
                    s += 1;
                }
                None => {}
            }
        }
        let rate = |c: u64| c as f64 / n as f64;
        assert!((rate(t) - 0.06).abs() < 0.01, "transient rate {}", rate(t));
        assert!((rate(p) - 0.04).abs() < 0.01, "preempt rate {}", rate(p));
        assert!((rate(s) - 0.06).abs() < 0.01, "spike rate {}", rate(s));
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::chaos(9);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn default_is_none() {
        assert_eq!(FaultPlan::default(), FaultPlan::none());
        // A config JSON without a `fault` field must deserialize to none.
        let legacy = r#"{"seed":0,"transient_prob":0.0,"preempt_prob":0.0,"spike_prob":0.0,"spike_scale_min":1.0,"spike_scale_max":1.0}"#;
        let parsed: FaultPlan = serde_json::from_str(legacy).expect("parse");
        assert!(parsed.is_none());
    }

    #[test]
    fn display_and_error_impls() {
        let t = DeviceError::Transient { event: 5 };
        let p = DeviceError::Preempted {
            event: 9,
            charged_ns: 1234.0,
        };
        assert!(t.to_string().contains("event 5"));
        assert!(p.to_string().contains("event 9"));
        assert_eq!(t.event(), 5);
        assert_eq!(p.event(), 9);
        let dyn_err: &dyn std::error::Error = &t;
        assert!(dyn_err.source().is_none());
    }
}
