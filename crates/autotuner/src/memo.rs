//! What one tuning run remembers about the plans and kernels of its program.
//!
//! A fused kernel is a pure function of `(program, root, members)` — a
//! [`FusionGroup`](tpu_fusion::FusionGroup) — and successive candidates of
//! a search share almost all of their groups: a candidate differs from one
//! scored a batch earlier in one to four decisions, and a flipped decision
//! changes the groups of the fused region it touches and no others
//! (DESIGN.md "Fusion planning is local"). So whoever scores
//! configurations hands each batch to a [`Planner`], which
//!
//! - remembers the previous batch's plans, each with its configuration's
//!   decisions packed 64 to a word, and plans each incoming configuration
//!   as a delta ([`FusionPlanner::replan`]) from the nearest of them (XOR
//!   and popcount over the words): the groups the flips cannot have
//!   touched come back with the id they already had;
//! - plans from scratch when nothing near is remembered (the first batch,
//!   or a jump of more than [`MAX_DELTA_FLIPS`] decisions).
//!
//! The [`FusionPlanner`] interns its groups, so a plan is a list of
//! [`GroupId`]s and a slot of the run *is* a group id: a group met for the
//! first time takes the next id, and the run keys it there, in place, with
//! [`Computation::subgraph_kernel_hash`](tpu_hlo::Computation::subgraph_kernel_hash)
//! and without building the kernel. A plan is its slots' keys, which is all
//! a search reads of it: the beam's transposition keys fold them, and the
//! prediction cache answers almost every one. A slot builds its kernel
//! ([`materialize`]) only when something needs the kernel itself — a
//! prediction-cache miss, a hardware measurement, a tuned configuration's
//! true time — and keeps it for the rest of the run
//! (`autotuner.plan.built` counts the kernels built). A batch reuses the
//! buffers of the batch before the last, so once a run's groups are known
//! planning allocates nothing.
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
use std::rc::Rc;
use tpu_fusion::{materialize, FusionConfig, FusionPlanner, FusionSpace, GroupId, Planned};
use tpu_hlo::{Kernel, KeyScratch, Program};
use tpu_obs::{Counter, Registry};

/// A configuration further than this many decisions from every remembered
/// one is planned from scratch. Measured on the interned planner from each
/// `search_tune` program's default configuration, every group known
/// (`results/search_intern.log`): where the touched regions are small a
/// re-plan costs about 0.7–1.9 µs for one flipped decision and 0.3–0.9 µs
/// for each further one, against 7–20 µs for the full plan, and passes it
/// at about 9 (ConvDRAW), 18 (WaveRNN) and 28 (Translate) flips; where one
/// fused region spans most of the graph it passes it at 2 (NMT Model) or
/// never (RNN). No single cut suits every program, and the searchers stay
/// within 4, so the cut stays at 8.
const MAX_DELTA_FLIPS: usize = 8;

/// The distinct fusion groups of a run — the planner's table, indexed by
/// [`GroupId`] — each with its cache key, and its kernel once something
/// has needed it.
pub(crate) struct Slots<'a> {
    program: &'a Program,
    fusion: FusionPlanner<'a>,
    keys: Vec<u64>,
    /// The buffers every group is keyed and built in.
    key_scratch: RefCell<KeyScratch>,
    kernels: Vec<OnceCell<Kernel>>,
    built: Counter,
}

impl Slots<'_> {
    /// The cache key of a group's kernel: its `canonical_kernel_hash`.
    pub(crate) fn key(&self, id: GroupId) -> u64 {
        self.keys[id.index()]
    }

    /// A group's kernel, built the first time it is asked for.
    pub(crate) fn kernel(&self, id: GroupId) -> &Kernel {
        self.kernels[id.index()].get_or_init(|| {
            self.built.inc();
            let scratch = &mut self.key_scratch.borrow_mut();
            materialize(self.program, &self.fusion.groups()[id.index()], scratch)
        })
    }

    /// Key every group the planner has met since the last call.
    fn key_new_groups(&mut self) {
        let c = &self.program.computation;
        let scratch = self.key_scratch.get_mut();
        for group in &self.fusion.groups()[self.keys.len()..] {
            let key = c.subgraph_kernel_hash(group.members(), group.root(), scratch);
            self.keys.push(key);
            self.kernels.push(OnceCell::new());
        }
    }
}

/// One configuration's plan: its decisions, 64 to a word, and per group,
/// in emission order, its id.
#[derive(Default)]
pub(crate) struct Plan {
    words: Vec<u64>,
    slots: Vec<GroupId>,
}

impl Plan {
    /// The id of each group of the plan, in emission order.
    pub(crate) fn slots(&self) -> &[GroupId] {
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

/// Per-run planner: from a batch of configurations to the id of each of
/// their fusion groups.
pub(crate) struct Planner<'a> {
    slots: Slots<'a>,
    /// The last non-empty batch, the bases of the next one.
    previous: Vec<Plan>,
    /// The batch before it, kept for its buffers.
    spare: Vec<Plan>,
    flipped: Vec<usize>,
    planned: Vec<Planned>,
    obs: PlanObs,
}

/// The one planner of a tuning run, handed to each of its users in turn
/// (they run one after another on one thread, so no borrow overlaps).
pub(crate) type SharedPlanner<'a> = Rc<RefCell<Planner<'a>>>;

impl<'a> Planner<'a> {
    /// A planner for one tuning run over `program`, recording
    /// `autotuner.plan.*` into `registry`.
    pub(crate) fn new(
        program: &'a Program,
        space: &'a FusionSpace,
        registry: &Registry,
    ) -> Planner<'a> {
        Planner {
            slots: Slots {
                program,
                fusion: FusionPlanner::new(program, space),
                keys: Vec::new(),
                key_scratch: RefCell::default(),
                kernels: Vec::new(),
                built: registry.counter("autotuner.plan.built"),
            },
            previous: Vec::new(),
            spare: Vec::new(),
            flipped: Vec::new(),
            planned: Vec::new(),
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

    /// The plan of every configuration, in order, with the slots their
    /// ids index; a group met for the first time in this run is keyed.
    pub(crate) fn plan_batch<'c>(
        &mut self,
        configs: impl IntoIterator<Item = &'c FusionConfig>,
    ) -> (&[Plan], &Slots<'a>) {
        let mut batch = std::mem::take(&mut self.spare);
        let mut len = 0;
        for config in configs {
            if len == batch.len() {
                batch.push(Plan::default());
            }
            let plan = &mut batch[len];
            len += 1;
            plan.words.clear();
            plan.words.extend(config.words());
            let distance = |base: &Plan| -> u32 {
                base.words
                    .iter()
                    .zip(&plan.words)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum()
            };
            let base = self
                .previous
                .iter()
                .map(|base| (distance(base), base))
                .min_by_key(|&(distance, _)| distance)
                .filter(|&(distance, _)| distance as usize <= MAX_DELTA_FLIPS);
            plan.slots.clear();
            match base {
                Some((_, base)) => {
                    self.flipped.clear();
                    for (w, (a, b)) in base.words.iter().zip(&plan.words).enumerate() {
                        let mut diff = a ^ b;
                        while diff != 0 {
                            self.flipped.push(64 * w + diff.trailing_zeros() as usize);
                            diff &= diff - 1;
                        }
                    }
                    self.slots
                        .fusion
                        .replan(&base.slots, config, &self.flipped, &mut self.planned);
                    let mut kept = 0u64;
                    plan.slots
                        .extend(self.planned.iter().map(|&group| match group {
                            Planned::Kept(i) => {
                                kept += 1;
                                base.slots[i]
                            }
                            Planned::Fresh(id) => id,
                        }));
                    self.obs.delta.inc();
                    self.obs.groups_kept.add(kept);
                    self.obs.groups_fresh.add(plan.slots.len() as u64 - kept);
                }
                None => {
                    self.slots.fusion.plan(config, &mut plan.slots);
                    self.obs.full.inc();
                    self.obs.groups_fresh.add(plan.slots.len() as u64);
                }
            }
            self.slots.key_new_groups();
        }
        if len == 0 {
            self.spare = batch;
            return (&[], &self.slots);
        }
        batch.truncate(len);
        self.spare = std::mem::replace(&mut self.previous, batch);
        (&self.previous, &self.slots)
    }

    /// The plan of one configuration: a batch of one.
    pub(crate) fn plan(&mut self, config: &FusionConfig) -> (&Plan, &Slots<'a>) {
        let (plans, slots) = self.plan_batch(std::slice::from_ref(config));
        (&plans[0], slots)
    }

    /// Distinct groups met so far.
    #[cfg(test)]
    pub(crate) fn distinct(&self) -> usize {
        self.slots.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_fusion::apply_fusion;
    use tpu_hlo::{canonical_kernel_hash, DType, GraphBuilder, NodeId, Shape};

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

    fn slot_ids(planner: &mut Planner<'_>, configs: &[FusionConfig]) -> Vec<Vec<GroupId>> {
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
