//! A re-plan is the plan from scratch, and an interned id is its group.
//!
//! [`FusionPlanner::replan`] plans a configuration from the plan of one
//! that differs from it in a few decisions, by planning again only the
//! components of fused edges those decisions touch. The property here is
//! the whole contract: spliced into the plan it started from, a re-plan
//! equals [`fusion_groups`] of the new configuration, group for group and
//! in order, after every step of any sequence of simultaneous flips.
//!
//! A planner hands out its groups as [`GroupId`]s into a table of its own.
//! So the walks also check the table: every id of a plan or a re-plan
//! resolves to the group [`fusion_groups`] has at its position, and two
//! ids are equal exactly when their groups are.
//!
//! The generated programs hold what makes planning non-local in
//! appearance: dots and reductions that share consumers (forced
//! materialization, hero conflicts), elementwise nodes with several
//! consumers (duplication), small constants (decisions whose producer
//! never joins a kernel), and dots with two consumers or parameters
//! (edges that are not decisions). The corpus-wide form of the same check
//! is `tests/fusion_plan.rs` at the workspace root.

use proptest::prelude::*;
use std::collections::HashMap;
use tpu_fusion::{
    fusion_groups, FusionConfig, FusionGroup, FusionPlanner, FusionSpace, GroupId, Planned,
};
use tpu_hlo::{DType, GraphBuilder, NodeId, Program, Shape};

/// One generated op: what it is and which earlier values it reads.
type OpSpec = (u8, usize, usize);

/// Every value is a 16x16 matrix, so any op composes with any operands.
fn build(ops: &[OpSpec]) -> Program {
    let square = || Shape::matrix(16, 16);
    let mut b = GraphBuilder::new("main");
    let mut values = vec![
        b.parameter("x", square(), DType::F32),
        b.parameter("w", square(), DType::F32),
    ];
    for &(kind, i, j) in ops {
        // Operands come from the last few values, so chains form and
        // values get several consumers.
        let pick = |k: usize| values[values.len() - 1 - k % values.len().min(5)];
        let (a, c) = (pick(i), pick(j));
        let value = match kind {
            0 => b.tanh(a),
            1 => b.exp(a),
            2 => b.add(a, c),
            3 => b.multiply(a, c),
            4 => b.dot(a, c),
            5 => {
                let reduced = b.reduce(a, vec![1]);
                b.broadcast(reduced, square(), vec![0])
            }
            6 => b.constant(square(), DType::F32),
            _ => b.add(a, a),
        };
        values.push(value);
    }
    let root = *values.last().expect("two parameters at least");
    Program::new("generated", b.finish(root))
}

/// The groups a plan's ids name in the planner's table.
fn resolve(planner: &FusionPlanner<'_>, plan: &[GroupId]) -> Vec<FusionGroup> {
    plan.iter()
        .map(|id| planner.groups()[id.index()].clone())
        .collect()
}

fn roots(planner: &FusionPlanner<'_>, plan: &[GroupId]) -> Vec<NodeId> {
    plan.iter()
        .map(|id| planner.groups()[id.index()].root())
        .collect()
}

/// A re-plan applied to the plan it was made from.
fn splice(old: &[GroupId], planned: &[Planned]) -> Vec<GroupId> {
    planned
        .iter()
        .map(|&p| match p {
            Planned::Kept(i) => old[i],
            Planned::Fresh(id) => id,
        })
        .collect()
}

/// A random start configuration of `space` and a flip sequence, each flip
/// an index taken modulo the decision count, deduplicated per step.
fn walk(
    space: &FusionSpace,
    start: &[bool],
    steps: &[Vec<usize>],
) -> (FusionConfig, Vec<Vec<usize>>) {
    let edges = space.num_edges();
    let config = FusionConfig {
        decisions: (0..edges).map(|i| start[i % start.len()]).collect(),
    };
    let steps = steps
        .iter()
        .map(|step| {
            let mut flipped: Vec<usize> = step.iter().map(|i| i % edges).collect();
            flipped.sort_unstable();
            flipped.dedup();
            flipped
        })
        .collect();
    (config, steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The inputs are a program, a start configuration and a flip
    /// sequence, so a failure shrinks to (and reports) the flips that
    /// reach it.
    #[test]
    fn a_replan_equals_the_plan_from_scratch_after_every_step(
        ops in prop::collection::vec((0u8..8, 0usize..64, 0usize..64), 3..40),
        start in prop::collection::vec(any::<bool>(), 1..64),
        steps in prop::collection::vec(prop::collection::vec(0usize..4096, 1..5), 1..16),
    ) {
        let program = build(&ops);
        let space = FusionSpace::new(&program.computation);
        if space.num_edges() == 0 {
            return;
        }
        let (mut config, steps) = walk(&space, &start, &steps);
        let mut planner = FusionPlanner::new(&program, &space);
        let mut plan = Vec::new();
        planner.plan(&config, &mut plan);
        prop_assert_eq!(resolve(&planner, &plan), fusion_groups(&program, &space, &config));
        let mut planned = Vec::new();
        for (at, flipped) in steps.iter().enumerate() {
            for &i in flipped {
                config.decisions[i] = !config.decisions[i];
            }
            planner.replan(&plan, &config, flipped, &mut planned);
            let next = splice(&plan, &planned);
            prop_assert_eq!(
                resolve(&planner, &next),
                fusion_groups(&program, &space, &config),
                "after step {} of {:?} over {:?}",
                at,
                &steps[..=at],
                space.edges()
            );
            plan = next;
        }
    }

    /// Along a walk of re-plans, each followed by the plan of the same
    /// configuration from scratch on the same planner: every id resolves
    /// to `fusion_groups`' group at its position, the full plan hands back
    /// the very ids the re-plan did, and no group is stored twice — so one
    /// id per group, and one group per id.
    #[test]
    fn an_interned_id_names_exactly_one_group(
        ops in prop::collection::vec((0u8..8, 0usize..64, 0usize..64), 3..40),
        start in prop::collection::vec(any::<bool>(), 1..64),
        steps in prop::collection::vec(prop::collection::vec(0usize..4096, 1..5), 1..16),
    ) {
        let program = build(&ops);
        let space = FusionSpace::new(&program.computation);
        if space.num_edges() == 0 {
            return;
        }
        let (mut config, steps) = walk(&space, &start, &steps);
        let mut planner = FusionPlanner::new(&program, &space);
        let mut id_of: HashMap<FusionGroup, GroupId> = HashMap::new();
        let mut check = |planner: &FusionPlanner<'_>, plan: &[GroupId], config: &FusionConfig| {
            let expected = fusion_groups(&program, &space, config);
            assert_eq!(resolve(planner, plan), expected);
            for (group, &id) in expected.into_iter().zip(plan) {
                assert_eq!(*id_of.entry(group).or_insert(id), id, "one group, two ids");
            }
            assert_eq!(id_of.len(), planner.groups().len(), "a group stored twice");
        };
        let (mut plan, mut full, mut planned) = (Vec::new(), Vec::new(), Vec::new());
        planner.plan(&config, &mut plan);
        check(&planner, &plan, &config);
        for flipped in &steps {
            for &i in flipped {
                config.decisions[i] = !config.decisions[i];
            }
            planner.replan(&plan, &config, flipped, &mut planned);
            plan = splice(&plan, &planned);
            check(&planner, &plan, &config);
            planner.plan(&config, &mut full);
            prop_assert_eq!(&full, &plan);
        }
    }
}

/// Two independent chains joined at the end: a flip in one chain hands the
/// other chain's groups, and the join, back as kept.
#[test]
fn a_flip_in_one_chain_keeps_the_other_chains_groups() {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(64, 64), DType::F32);
    let y = b.parameter("y", Shape::matrix(64, 64), DType::F32);
    let a1 = b.tanh(x);
    let a2 = b.exp(a1);
    let b1 = b.abs(y);
    let b2 = b.logistic(b1);
    let sum = b.add(a2, b2);
    let program = Program::new("two-chains", b.finish(sum));
    let space = FusionSpace::new(&program.computation);

    let mut planner = FusionPlanner::new(&program, &space);
    let mut config = space.none();
    let (mut plan, mut planned) = (Vec::new(), Vec::new());
    planner.plan(&config, &mut plan);
    assert_eq!(roots(&planner, &plan), [a1, a2, b1, b2, sum]);

    let flip = space.edge_index(a1, a2).expect("a1 -> a2 is a decision");
    config.decisions[flip] = true;
    planner.replan(&plan, &config, &[flip], &mut planned);
    // {a1, a2} is planned again; b1, b2 and sum keep their old indices.
    assert!(matches!(
        planned[..],
        [
            Planned::Fresh(_),
            Planned::Kept(2),
            Planned::Kept(3),
            Planned::Kept(4)
        ]
    ));
    let fused = splice(&plan, &planned);
    assert_eq!(
        resolve(&planner, &fused),
        fusion_groups(&program, &space, &config)
    );
    assert_eq!(roots(&planner, &fused), [a2, b1, b2, sum]);

    // Unfusing it again re-plans a1 and a2 alone, and finds them in the
    // table: the plan is the first one, id for id.
    config.decisions[flip] = false;
    planner.replan(&fused, &config, &[flip], &mut planned);
    assert!(matches!(
        planned[..],
        [
            Planned::Fresh(_),
            Planned::Fresh(_),
            Planned::Kept(1),
            Planned::Kept(2),
            Planned::Kept(3)
        ]
    ));
    assert_eq!(splice(&fused, &planned), plan);
}

/// A flip whose producer materializes whatever the flipped edge says
/// (another consumer edge of it is unfused) changes no group: everything
/// is kept.
#[test]
fn a_flip_under_a_producer_that_materializes_anyway_keeps_every_group() {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(8, 8), DType::F32);
    let t = b.tanh(x);
    let e = b.exp(t);
    let a = b.abs(t);
    let m = b.add(e, a);
    let program = Program::new("diamond", b.finish(m));
    let space = FusionSpace::new(&program.computation);
    let mut planner = FusionPlanner::new(&program, &space);
    let mut config = space.none();
    let (mut plan, mut planned) = (Vec::new(), Vec::new());
    planner.plan(&config, &mut plan);

    let flip = space.edge_index(t, e).expect("t -> e is a decision");
    config.decisions[flip] = true;
    planner.replan(&plan, &config, &[flip], &mut planned);
    let kept: Vec<Planned> = (0..plan.len()).map(Planned::Kept).collect();
    assert_eq!(planned, kept);
    assert_eq!(
        resolve(&planner, &plan),
        fusion_groups(&program, &space, &config)
    );
}
