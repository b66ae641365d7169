//! What one search remembers about the plans and kernels of its program.
//!
//! A fused kernel is a pure function of `(program, root, members)` — a
//! [`FusionGroup`] — and successive candidates of a search share almost all
//! of their groups: a candidate differs from one scored a batch earlier in
//! one to four decisions, and a flipped decision changes the groups of the
//! fused region it touches and no others (DESIGN.md, "Fusion planning is
//! local"). So whoever scores configurations hands each batch to a
//! [`Planner`], which
//!
//! - remembers the previous batch's configurations with their resolved
//!   plans, and plans each incoming configuration as a delta
//!   ([`FusionPlanner::replan`]) from the nearest of them: the groups the
//!   flips cannot have touched come back with the `Arc` they already had;
//! - resolves only the re-planned groups through a map from group to its
//!   kernel, which extracts and hashes a group's kernel the first time it is
//!   asked and hands out the same `Arc` afterwards;
//! - plans from scratch when nothing near is remembered (the first batch,
//!   or a jump of more than [`MAX_DELTA_FLIPS`] decisions).
//!
//! Which base a configuration is planned from decides how much work the
//! plan costs and nothing else: a re-plan equals the plan from scratch
//! group for group, so every value, in order, is the same either way.
//! Everything runs sequentially under `&mut`, in candidate order. A planner
//! belongs to one search over one program and dies with it: no capacity,
//! no eviction (a program of N nodes has at most a few N distinct groups
//! in play).

use std::collections::HashMap;
use std::sync::Arc;
use tpu_fusion::{materialize, FusionConfig, FusionGroup, FusionPlanner, FusionSpace, Planned};
use tpu_hlo::{HashedKernel, NodeId, Program};
use tpu_obs::{Counter, Registry};

/// A configuration further than this many decisions from every remembered
/// one is planned from scratch. Where the touched regions are small a
/// re-plan costs about 0.7–1.2 µs for one flipped decision and 0.6–1 µs
/// for each further one, against 6–20 µs for the full plan, and passes it
/// between 12 and 32 flips; where one fused region spans most of the
/// graph it never wins (CHANGES.md, PR 19, has the table per program). The
/// searchers stay within 4.
const MAX_DELTA_FLIPS: usize = 8;

/// One configuration's plan, resolved: per group, in emission order, its
/// kernel with its canonical hash.
pub(crate) struct Plan {
    config: FusionConfig,
    roots: Vec<NodeId>,
    kernels: Vec<Arc<HashedKernel>>,
}

impl Plan {
    /// The kernel of each group of the plan, in emission order.
    pub(crate) fn kernels(&self) -> &[Arc<HashedKernel>] {
        &self.kernels
    }
}

/// `tpu-obs` handles of a planner (`autotuner.plan.*`): how many
/// configurations were planned as a delta and how many from scratch, and
/// how many of their groups were planned again against handed back.
struct PlanObs {
    delta: Counter,
    full: Counter,
    groups_fresh: Counter,
    groups_kept: Counter,
}

/// Per-search planner: from a batch of configurations to the hashed kernel
/// of each of their fusion groups.
pub(crate) struct Planner<'a> {
    program: &'a Program,
    fusion: FusionPlanner<'a>,
    built: HashMap<FusionGroup, Arc<HashedKernel>>,
    /// The last non-empty batch, the bases of the next one.
    previous: Vec<Plan>,
    obs: PlanObs,
}

/// The decisions in which two configurations of one space differ.
fn differing<'c>(a: &'c FusionConfig, b: &'c FusionConfig) -> impl Iterator<Item = usize> + 'c {
    a.decisions
        .iter()
        .zip(&b.decisions)
        .enumerate()
        .filter_map(|(i, (x, y))| (x != y).then_some(i))
}

impl<'a> Planner<'a> {
    /// A planner for one search over `program`, recording
    /// `autotuner.plan.*` into `registry`.
    pub(crate) fn new(
        program: &'a Program,
        space: &'a FusionSpace,
        registry: &Registry,
    ) -> Planner<'a> {
        Planner {
            program,
            fusion: FusionPlanner::new(program, space),
            built: HashMap::new(),
            previous: Vec::new(),
            obs: PlanObs {
                delta: registry.counter("autotuner.plan.delta"),
                full: registry.counter("autotuner.plan.full"),
                groups_fresh: registry.counter("autotuner.plan.groups_fresh"),
                groups_kept: registry.counter("autotuner.plan.groups_kept"),
            },
        }
    }

    /// The resolved plan of every configuration, in order; a group met for
    /// the first time in this search has its kernel extracted and hashed.
    pub(crate) fn plan_batch<'c>(
        &mut self,
        configs: impl IntoIterator<Item = &'c FusionConfig>,
    ) -> &[Plan] {
        let (program, built) = (self.program, &mut self.built);
        let mut resolve = |group: FusionGroup| {
            let root = group.root();
            let kernel = built
                .entry(group)
                .or_insert_with_key(|g| Arc::new(HashedKernel::new(materialize(program, g))));
            (root, Arc::clone(kernel))
        };
        let mut batch: Vec<Plan> = Vec::new();
        let mut flipped: Vec<usize> = Vec::new();
        for config in configs {
            let base = self
                .previous
                .iter()
                .map(|base| (differing(&base.config, config).count(), base))
                .min_by_key(|&(distance, _)| distance)
                .filter(|&(distance, _)| distance <= MAX_DELTA_FLIPS);
            let (roots, kernels): (Vec<NodeId>, Vec<Arc<HashedKernel>>) = match base {
                Some((_, base)) => {
                    flipped.clear();
                    flipped.extend(differing(&base.config, config));
                    let planned = self.fusion.replan(&base.roots, config, &flipped);
                    let mut kept = 0u64;
                    let plan: (Vec<NodeId>, Vec<Arc<HashedKernel>>) = planned
                        .into_iter()
                        .map(|group| match group {
                            Planned::Kept(i) => {
                                kept += 1;
                                (base.roots[i], Arc::clone(&base.kernels[i]))
                            }
                            Planned::Fresh(group) => resolve(group),
                        })
                        .unzip();
                    self.obs.delta.inc();
                    self.obs.groups_kept.add(kept);
                    self.obs.groups_fresh.add(plan.0.len() as u64 - kept);
                    plan
                }
                None => {
                    let groups = self.fusion.plan(config);
                    self.obs.full.inc();
                    self.obs.groups_fresh.add(groups.len() as u64);
                    groups.into_iter().map(&mut resolve).unzip()
                }
            };
            batch.push(Plan {
                config: config.clone(),
                roots,
                kernels,
            });
        }
        if batch.is_empty() {
            return &[];
        }
        self.previous = batch;
        &self.previous
    }

    /// Distinct groups built so far.
    #[cfg(test)]
    pub(crate) fn built(&self) -> usize {
        self.built.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_fusion::apply_fusion;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    /// Two independent chains joined at the end: flipping a decision in one
    /// chain leaves the other chain's groups untouched.
    fn two_chains() -> Program {
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(64, 64), DType::F32);
        let y = b.parameter("y", Shape::matrix(64, 64), DType::F32);
        let a1 = b.tanh(x);
        let a2 = b.exp(a1);
        let b1 = b.abs(y);
        let b2 = b.logistic(b1);
        let sum = b.add(a2, b2);
        Program::new("two-chains", b.finish(sum))
    }

    fn kernels(planner: &mut Planner<'_>, configs: &[FusionConfig]) -> Vec<Vec<Arc<HashedKernel>>> {
        planner
            .plan_batch(configs)
            .iter()
            .map(|plan| plan.kernels().to_vec())
            .collect()
    }

    #[test]
    fn a_flip_in_one_chain_hands_back_the_other_chains_arcs() {
        let p = two_chains();
        let space = FusionSpace::new(&p.computation);
        let none = space.none();
        let mut flipped = none.clone();
        flipped.decisions[space.edge_index(NodeId(2), NodeId(3)).unwrap()] = true;

        let registry = Registry::enabled();
        let mut planner = Planner::new(&p, &space, &registry);
        let first = kernels(&mut planner, std::slice::from_ref(&none)).remove(0);
        let second = kernels(&mut planner, std::slice::from_ref(&flipped)).remove(0);
        // none: {a1} {a2} {b1} {b2} {sum}; flipped: {a1,a2} {b1} {b2} {sum}.
        assert_eq!((first.len(), second.len()), (5, 4));
        let shared = second
            .iter()
            .filter(|k| first.iter().any(|f| Arc::ptr_eq(f, k)))
            .count();
        assert_eq!(shared, 3, "b1, b2 and sum are the same Arcs");
        assert_eq!(
            planner.built(),
            6,
            "one new kernel for the flipped decision"
        );

        // The first config had no base; the second was a delta that kept
        // the other chain and the join without asking the map for them.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("autotuner.plan.full"), Some(1));
        assert_eq!(snap.counter("autotuner.plan.delta"), Some(1));
        assert_eq!(snap.counter("autotuner.plan.groups_kept"), Some(3));
        assert_eq!(snap.counter("autotuner.plan.groups_fresh"), Some(5 + 1));

        // And what the planner hands out is what the pass emits.
        for (cfg, resolved) in [(&none, &first), (&flipped, &second)] {
            let fused = apply_fusion(&p, &space, cfg);
            assert_eq!(fused.kernels.len(), resolved.len());
            for (k, r) in fused.kernels.iter().zip(resolved) {
                assert_eq!(k, r.kernel());
            }
        }
    }

    /// Which base a config is planned from — none, a near one, one of
    /// several, one too far for a delta — never shows in its plan.
    #[test]
    fn the_base_never_changes_a_plan() {
        let p = two_chains();
        let space = FusionSpace::new(&p.computation);
        let registry = Registry::noop();
        let hashes = |plans: Vec<Vec<Arc<HashedKernel>>>| -> Vec<Vec<u64>> {
            plans
                .iter()
                .map(|plan| plan.iter().map(|k| k.hash()).collect())
                .collect()
        };
        let configs: Vec<FusionConfig> = (0..1u32 << space.num_edges())
            .map(|bits| FusionConfig {
                decisions: (0..space.num_edges()).map(|i| bits >> i & 1 == 1).collect(),
            })
            .collect();
        let from_scratch: Vec<Vec<u64>> = configs
            .iter()
            .map(|c| {
                let mut fresh = Planner::new(&p, &space, &registry);
                hashes(kernels(&mut fresh, std::slice::from_ref(c))).remove(0)
            })
            .collect();
        // One config at a time (each the base of the next, Gray-code near
        // or far), then all of them as one batch over the last base.
        let mut planner = Planner::new(&p, &space, &registry);
        for (c, expected) in configs.iter().zip(&from_scratch) {
            let got = hashes(kernels(&mut planner, std::slice::from_ref(c))).remove(0);
            assert_eq!(&got, expected);
        }
        assert_eq!(hashes(kernels(&mut planner, &configs)), from_scratch);
        // An empty batch forgets nothing and plans nothing.
        assert!(kernels(&mut planner, &[]).is_empty());
        assert_eq!(
            hashes(kernels(&mut planner, &configs[..2])),
            from_scratch[..2]
        );
    }
}
