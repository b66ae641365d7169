//! How many heap allocations re-planning makes once every group it meets
//! is known, counted — not estimated — by a global allocator that tallies
//! the calling thread's `alloc` calls. Its own test binary, so the counter
//! sees nothing else.
//!
//! A planner interns its groups: a group's member list is allocated once,
//! the first time any plan makes it, and a plan is a list of ids written
//! into a buffer the caller owns. So after a warm-up over the same
//! configurations, a re-plan allocates nothing, and a search's batch of
//! re-plans allocates no group and no vector per plan. A new group is
//! keyed in place, in buffers the run keeps (`KeyScratch`), so keying it
//! allocates nothing either once they have grown; and a group's kernel is
//! built in those buffers too, so building it allocates only what the
//! kernel owns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tpu_repro::autotuner::{BatchObjective, ModelObjective};
use tpu_repro::dataset::{Corpus, CorpusScale};
use tpu_repro::fusion::{
    default_space_and_config, fusion_groups, materialize, FusionConfig, FusionPlanner, FusionSpace,
    Planned,
};
use tpu_repro::hlo::{KeyScratch, Program};
use tpu_repro::learned::{AtomicCache, Predictor, SimOracle};
use tpu_repro::obs::Registry;
use tpu_repro::sim::TpuConfig;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the tally is a
// const-initialized `Cell<usize>` thread-local, which neither allocates
// nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = std::hint::black_box(f());
    (out, ALLOCS.with(Cell::get) - before)
}

/// The largest of the benchmark's `search_tune` programs.
fn nmt_model() -> Program {
    let corpus = Corpus::build(CorpusScale::Full);
    let i = corpus
        .index_of("NMT Model")
        .expect("the full corpus holds it");
    corpus.entries[i].program.clone()
}

/// `config` with 1-4 random decisions flipped, and which ones (ascending).
fn flip(
    space: &FusionSpace,
    config: &FusionConfig,
    rng: &mut proptest::TestRng,
) -> (FusionConfig, Vec<usize>) {
    let mut next = config.clone();
    let mut flipped = Vec::new();
    for _ in 0..1 + rng.below(4) {
        let i = rng.below(space.num_edges() as u64) as usize;
        if !flipped.contains(&i) {
            flipped.push(i);
            next.decisions[i] = !next.decisions[i];
        }
    }
    flipped.sort_unstable();
    (next, flipped)
}

#[test]
fn a_replan_over_known_groups_allocates_nothing() {
    let program = nmt_model();
    let (space, default) = default_space_and_config(&program.computation);
    let mut rng = proptest::TestRng::new(7);
    let mut walk = vec![(default, Vec::new())];
    for _ in 0..64 {
        let step = flip(&space, &walk.last().expect("a start").0, &mut rng);
        walk.push(step);
    }

    let mut planner = FusionPlanner::new(&program, &space);
    let (mut plan, mut next, mut planned) = (Vec::new(), Vec::new(), Vec::new());
    let mut replay = |planner: &mut FusionPlanner<'_>| {
        planner.plan(&walk[0].0, &mut plan);
        let mut fresh = 0;
        for (config, flipped) in &walk[1..] {
            planner.replan(&plan, config, flipped, &mut planned);
            next.clear();
            next.extend(planned.iter().map(|&p| match p {
                Planned::Kept(i) => plan[i],
                Planned::Fresh(id) => {
                    fresh += 1;
                    id
                }
            }));
            std::mem::swap(&mut plan, &mut next);
        }
        fresh
    };
    // The first pass meets every group and sizes every buffer.
    let ((), warm_up) = allocations_of(|| {
        replay(&mut planner);
    });
    let groups = planner.groups().len();
    assert!(warm_up >= groups, "each new group allocates its members");

    let (fresh, allocs) = allocations_of(|| replay(&mut planner));
    assert!(fresh > 0, "the walk re-plans groups");
    assert_eq!(planner.groups().len(), groups, "no group is new");
    assert_eq!(allocs, 0, "{fresh} re-planned groups, all known");
}

#[test]
fn keying_a_group_in_place_allocates_nothing_once_its_scratch_has_grown() {
    let program = nmt_model();
    let c = &program.computation;
    let (space, default) = default_space_and_config(c);
    let mut rng = proptest::TestRng::new(5);
    let mut planner = FusionPlanner::new(&program, &space);
    let mut plan = Vec::new();
    planner.plan(&default, &mut plan);
    for _ in 0..16 {
        planner.plan(&flip(&space, &default, &mut rng).0, &mut plan);
    }
    let groups = planner.groups();
    assert!(groups.len() > 100, "only {} groups", groups.len());

    // Each group is new to the scratch, as a run's new groups are: only
    // the largest group so far grows its buffers.
    let mut scratch = KeyScratch::default();
    let key_all = |scratch: &mut KeyScratch| {
        groups.iter().fold(0u64, |acc, g| {
            acc ^ c.subgraph_kernel_hash(g.members(), g.root(), scratch)
        })
    };
    let (keys, growth) = allocations_of(|| key_all(&mut scratch));
    assert!(
        growth < 32,
        "{growth} allocations keying {} groups",
        groups.len()
    );
    let (again, allocs) = allocations_of(|| key_all(&mut scratch));
    assert_eq!(again, keys);
    assert_eq!(allocs, 0, "{} groups keyed", groups.len());
}

#[test]
fn materializing_a_group_allocates_only_what_its_kernel_owns_once_its_scratch_has_grown() {
    let program = nmt_model();
    let (space, default) = default_space_and_config(&program.computation);
    let mut groups = fusion_groups(&program, &space, &default);
    groups.extend(fusion_groups(&program, &space, &space.none()));
    let mut scratch = KeyScratch::default();
    for group in &groups {
        materialize(&program, group, &mut scratch);
    }
    for group in &groups {
        let (kernel, allocs) = allocations_of(|| materialize(&program, group, &mut scratch));
        // What the kernel owns: its node list and name, and per node its
        // operand list, its name and its attributes' lists, when it has
        // them — what cloning it allocates.
        let c = &kernel.computation;
        let owned = 2 + c
            .nodes()
            .iter()
            .map(|n| {
                let lists = allocations_of(|| n.attrs.clone()).1;
                usize::from(!n.operands.is_empty()) + usize::from(!n.name.is_empty()) + lists
            })
            .sum::<usize>();
        assert_eq!(allocations_of(|| kernel.clone()).1, owned);
        assert_eq!(allocs, owned, "group rooted at {}", group.root());
    }
}

#[test]
fn a_search_batch_over_known_groups_allocates_less_than_a_vector_per_plan() {
    let program = nmt_model();
    let (space, default) = default_space_and_config(&program.computation);
    let model = SimOracle::new(TpuConfig::default());
    let registry = Registry::enabled();
    let predictor =
        Predictor::with_cache(&model, Arc::new(AtomicCache::serving_default())).observed(&registry);
    let mut objective = ModelObjective::new(&program, &space, &predictor);

    // Two batches a flip apart, as a search's successive layers are: each
    // configuration of one is planned as a delta from its twin in the
    // other.
    let mut rng = proptest::TestRng::new(11);
    let ones: Vec<FusionConfig> = (0..16)
        .map(|_| flip(&space, &default, &mut rng).0)
        .collect();
    let twins: Vec<FusionConfig> = ones.iter().map(|c| flip(&space, c, &mut rng).0).collect();
    let costs = objective.evaluate(&ones);
    objective.evaluate(&twins);
    objective.evaluate(&ones);
    let counter = |name: &str| registry.snapshot().counter(name).unwrap_or(0);
    let (delta, fresh) = (
        counter("autotuner.plan.delta"),
        counter("autotuner.plan.groups_fresh"),
    );
    let model_evals = counter("core.engine.model_evals");

    // Every group of the next batch is known, and every key is cached.
    let (again, allocs) = allocations_of(|| objective.evaluate(&twins));
    assert_eq!(counter("autotuner.plan.delta") - delta, twins.len() as u64);
    assert!(counter("autotuner.plan.groups_fresh") > fresh);
    assert_eq!(counter("core.engine.model_evals"), model_evals);
    assert!(
        allocs < twins.len(),
        "{allocs} allocations for a batch of {} plans",
        twins.len()
    );
    assert_eq!(objective.evaluate(&ones), costs);
    assert_eq!(again.len(), twins.len());
}
