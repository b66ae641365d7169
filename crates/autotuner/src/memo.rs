//! What one tuning run remembers about the plans and kernels of its program.
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
//!   flips cannot have touched come back with the slot they already had;
//! - resolves only the re-planned groups through a map from group to its
//!   [`SlotId`]: a group met for the first time gets a slot holding its
//!   cache key, written in place by
//!   [`Computation::subgraph_kernel_hash`](tpu_hlo::Computation::subgraph_kernel_hash)
//!   without building the kernel;
//! - plans from scratch when nothing near is remembered (the first batch,
//!   or a jump of more than [`MAX_DELTA_FLIPS`] decisions).
//!
//! A plan is its slots' keys, which is all a search reads of it: the
//! beam's transposition keys fold them, and the prediction cache answers
//! almost every one. A slot builds its kernel ([`materialize`]) only when
//! something needs the kernel itself — a prediction-cache miss, a hardware
//! measurement, a tuned configuration's true time — and keeps it for the
//! rest of the run (`autotuner.plan.built` counts the kernels built).
//!
//! Which base a configuration is planned from decides how much work the
//! plan costs and nothing else: a re-plan equals the plan from scratch
//! group for group, so every value, in order, is the same either way.
//! Everything runs sequentially under `&mut`, in candidate order. A planner
//! belongs to one tuning run over one program and dies with it: no
//! capacity, no eviction (a program of N nodes has at most a few N distinct
//! groups in play). Within a run it is [`SharedPlanner`]: the beam's
//! transposition keys, the model objective and the hardware re-rank all
//! plan through the one planner, so a group any of them met is never keyed
//! again, and a kernel any of them built is never built again.

use std::cell::{OnceCell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;
use tpu_fusion::{materialize, FusionConfig, FusionGroup, FusionPlanner, FusionSpace, Planned};
use tpu_hlo::{Kernel, NodeId, Program};
use tpu_obs::{Counter, Registry};

/// A configuration further than this many decisions from every remembered
/// one is planned from scratch. Where the touched regions are small a
/// re-plan costs about 0.7–1.2 µs for one flipped decision and 0.6–1 µs
/// for each further one, against 6–20 µs for the full plan, and passes it
/// between 12 and 32 flips; where one fused region spans most of the
/// graph it never wins (CHANGES.md, PR 19, has the table per program). The
/// searchers stay within 4.
const MAX_DELTA_FLIPS: usize = 8;

/// One distinct fusion group of a run: its index among the run's [`Slots`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotId(usize);

/// A distinct fusion group, its cache key, and its kernel once something
/// has needed it.
struct Slot {
    group: FusionGroup,
    key: u64,
    kernel: OnceCell<Kernel>,
}

/// The distinct fusion groups of a run, each keyed when first met.
pub(crate) struct Slots<'a> {
    program: &'a Program,
    slots: Vec<Slot>,
    built: Counter,
}

impl Slots<'_> {
    /// The cache key of a slot's kernel: its `canonical_kernel_hash`.
    pub(crate) fn key(&self, id: SlotId) -> u64 {
        self.slots[id.0].key
    }

    /// A slot's kernel, built the first time it is asked for.
    pub(crate) fn kernel(&self, id: SlotId) -> &Kernel {
        let slot = &self.slots[id.0];
        slot.kernel.get_or_init(|| {
            self.built.inc();
            materialize(self.program, &slot.group)
        })
    }
}

/// One configuration's plan, resolved: per group, in emission order, its
/// slot.
pub(crate) struct Plan {
    config: FusionConfig,
    roots: Vec<NodeId>,
    slots: Vec<SlotId>,
}

impl Plan {
    /// The slot of each group of the plan, in emission order.
    pub(crate) fn slots(&self) -> &[SlotId] {
        &self.slots
    }
}

/// `tpu-obs` handles of a planner (`autotuner.plan.*`): how many
/// configurations were planned as a delta and how many from scratch, and
/// how many of their groups were planned again against handed back.
/// (`autotuner.plan.built`, the kernels built, is counted by [`Slots`].)
struct PlanObs {
    delta: Counter,
    full: Counter,
    groups_fresh: Counter,
    groups_kept: Counter,
}

/// Per-run planner: from a batch of configurations to the slot of each of
/// their fusion groups.
pub(crate) struct Planner<'a> {
    fusion: FusionPlanner<'a>,
    ids: HashMap<FusionGroup, SlotId>,
    slots: Slots<'a>,
    /// The last non-empty batch, the bases of the next one.
    previous: Vec<Plan>,
    obs: PlanObs,
}

/// The one planner of a tuning run, handed to each of its users in turn
/// (they run one after another on one thread, so no borrow overlaps).
pub(crate) type SharedPlanner<'a> = Rc<RefCell<Planner<'a>>>;

/// The decisions in which two configurations of one space differ.
fn differing<'c>(a: &'c FusionConfig, b: &'c FusionConfig) -> impl Iterator<Item = usize> + 'c {
    a.decisions
        .iter()
        .zip(&b.decisions)
        .enumerate()
        .filter_map(|(i, (x, y))| (x != y).then_some(i))
}

impl<'a> Planner<'a> {
    /// A planner for one tuning run over `program`, recording
    /// `autotuner.plan.*` into `registry`.
    pub(crate) fn new(
        program: &'a Program,
        space: &'a FusionSpace,
        registry: &Registry,
    ) -> Planner<'a> {
        Planner {
            fusion: FusionPlanner::new(program, space),
            ids: HashMap::new(),
            slots: Slots {
                program,
                slots: Vec::new(),
                built: registry.counter("autotuner.plan.built"),
            },
            previous: Vec::new(),
            obs: PlanObs {
                delta: registry.counter("autotuner.plan.delta"),
                full: registry.counter("autotuner.plan.full"),
                groups_fresh: registry.counter("autotuner.plan.groups_fresh"),
                groups_kept: registry.counter("autotuner.plan.groups_kept"),
            },
        }
    }

    /// [`Planner::new`], ready to be handed to every user of one run.
    pub(crate) fn shared(
        program: &'a Program,
        space: &'a FusionSpace,
        registry: &Registry,
    ) -> SharedPlanner<'a> {
        Rc::new(RefCell::new(Planner::new(program, space, registry)))
    }

    /// The resolved plan of every configuration, in order, with the slots
    /// their ids index; a group met for the first time in this run is
    /// keyed.
    pub(crate) fn plan_batch<'c>(
        &mut self,
        configs: impl IntoIterator<Item = &'c FusionConfig>,
    ) -> (&[Plan], &Slots<'a>) {
        let (ids, slots) = (&mut self.ids, &mut self.slots);
        let mut resolve = |group: FusionGroup| {
            let root = group.root();
            let id = match ids.entry(group) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => {
                    let id = SlotId(slots.slots.len());
                    slots.slots.push(Slot {
                        key: slots
                            .program
                            .computation
                            .subgraph_kernel_hash(entry.key().members(), entry.key().root()),
                        group: entry.key().clone(),
                        kernel: OnceCell::new(),
                    });
                    *entry.insert(id)
                }
            };
            (root, id)
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
            let (roots, slots): (Vec<NodeId>, Vec<SlotId>) = match base {
                Some((_, base)) => {
                    flipped.clear();
                    flipped.extend(differing(&base.config, config));
                    let planned = self.fusion.replan(&base.roots, config, &flipped);
                    let mut kept = 0u64;
                    let plan: (Vec<NodeId>, Vec<SlotId>) = planned
                        .into_iter()
                        .map(|group| match group {
                            Planned::Kept(i) => {
                                kept += 1;
                                (base.roots[i], base.slots[i])
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
                slots,
            });
        }
        if batch.is_empty() {
            return (&[], &self.slots);
        }
        self.previous = batch;
        (&self.previous, &self.slots)
    }

    /// The resolved plan of one configuration: a batch of one.
    pub(crate) fn plan(&mut self, config: &FusionConfig) -> (&Plan, &Slots<'a>) {
        let (plans, slots) = self.plan_batch(std::slice::from_ref(config));
        (&plans[0], slots)
    }

    /// Distinct groups met so far.
    #[cfg(test)]
    pub(crate) fn distinct(&self) -> usize {
        self.slots.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_fusion::apply_fusion;
    use tpu_hlo::{canonical_kernel_hash, DType, GraphBuilder, Shape};

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

    fn slot_ids(planner: &mut Planner<'_>, configs: &[FusionConfig]) -> Vec<Vec<SlotId>> {
        let (plans, _) = planner.plan_batch(configs);
        plans.iter().map(|plan| plan.slots().to_vec()).collect()
    }

    fn keys(planner: &mut Planner<'_>, configs: &[FusionConfig]) -> Vec<Vec<u64>> {
        let (plans, slots) = planner.plan_batch(configs);
        plans
            .iter()
            .map(|plan| plan.slots().iter().map(|&id| slots.key(id)).collect())
            .collect()
    }

    #[test]
    fn a_flip_in_one_chain_hands_back_the_other_chains_slots() {
        let p = two_chains();
        let space = FusionSpace::new(&p.computation);
        let none = space.none();
        let mut flipped = none.clone();
        flipped.decisions[space.edge_index(NodeId(2), NodeId(3)).unwrap()] = true;

        let registry = Registry::enabled();
        let mut planner = Planner::new(&p, &space, &registry);
        let first = slot_ids(&mut planner, std::slice::from_ref(&none)).remove(0);
        let second = slot_ids(&mut planner, std::slice::from_ref(&flipped)).remove(0);
        // none: {a1} {a2} {b1} {b2} {sum}; flipped: {a1,a2} {b1} {b2} {sum}.
        assert_eq!((first.len(), second.len()), (5, 4));
        let shared = second.iter().filter(|id| first.contains(id)).count();
        assert_eq!(shared, 3, "b1, b2 and sum keep their slots");
        assert_eq!(
            planner.distinct(),
            6,
            "one new slot for the flipped decision"
        );

        // The first config had no base; the second was a delta that kept
        // the other chain and the join without asking the map for them.
        // Planning keyed every group and built no kernel.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("autotuner.plan.full"), Some(1));
        assert_eq!(snap.counter("autotuner.plan.delta"), Some(1));
        assert_eq!(snap.counter("autotuner.plan.groups_kept"), Some(3));
        assert_eq!(snap.counter("autotuner.plan.groups_fresh"), Some(5 + 1));
        assert_eq!(snap.counter("autotuner.plan.built"), Some(0));

        // And what the planner hands out is what the pass emits, keyed as
        // the canonical hash keys it; each slot's kernel is built once.
        for (cfg, resolved) in [(&none, &first), (&flipped, &second)] {
            let (_, slots) = planner.plan(cfg);
            let fused = apply_fusion(&p, &space, cfg);
            assert_eq!(fused.kernels.len(), resolved.len());
            for (k, &id) in fused.kernels.iter().zip(resolved) {
                assert_eq!(k, slots.kernel(id));
                assert_eq!(canonical_kernel_hash(k), slots.key(id));
            }
        }
        assert_eq!(registry.snapshot().counter("autotuner.plan.built"), Some(6));
    }

    /// Which base a config is planned from — none, a near one, one of
    /// several, one too far for a delta — never shows in its plan.
    #[test]
    fn the_base_never_changes_a_plan() {
        let p = two_chains();
        let space = FusionSpace::new(&p.computation);
        let registry = Registry::noop();
        let configs: Vec<FusionConfig> = (0..1u32 << space.num_edges())
            .map(|bits| FusionConfig {
                decisions: (0..space.num_edges()).map(|i| bits >> i & 1 == 1).collect(),
            })
            .collect();
        let from_scratch: Vec<Vec<u64>> = configs
            .iter()
            .map(|c| {
                let mut fresh = Planner::new(&p, &space, &registry);
                keys(&mut fresh, std::slice::from_ref(c)).remove(0)
            })
            .collect();
        // One config at a time (each the base of the next, Gray-code near
        // or far), then all of them as one batch over the last base.
        let mut planner = Planner::new(&p, &space, &registry);
        for (c, expected) in configs.iter().zip(&from_scratch) {
            let got = keys(&mut planner, std::slice::from_ref(c)).remove(0);
            assert_eq!(&got, expected);
        }
        assert_eq!(keys(&mut planner, &configs), from_scratch);
        // An empty batch forgets nothing and plans nothing.
        assert!(keys(&mut planner, &[]).is_empty());
        assert_eq!(keys(&mut planner, &configs[..2]), from_scratch[..2]);
    }
}
