//! A re-plan is the plan from scratch.
//!
//! [`FusionPlanner::replan`] plans a configuration from the plan of one
//! that differs from it in a few decisions, by planning again only the
//! components of fused edges those decisions touch. The property here is
//! the whole contract: spliced into the plan it started from, a re-plan
//! equals [`fusion_groups`] of the new configuration, group for group and
//! in order, after every step of any sequence of simultaneous flips.
//!
//! The generated programs hold what makes planning non-local in
//! appearance: dots and reductions that share consumers (forced
//! materialization, hero conflicts), elementwise nodes with several
//! consumers (duplication), small constants (decisions whose producer
//! never joins a kernel), and dots with two consumers or parameters
//! (edges that are not decisions). The corpus-wide form of the same check
//! is `tests/fusion_plan.rs` at the workspace root.

use proptest::prelude::*;
use tpu_fusion::{fusion_groups, FusionConfig, FusionGroup, FusionPlanner, FusionSpace, Planned};
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

fn roots(plan: &[FusionGroup]) -> Vec<NodeId> {
    plan.iter().map(FusionGroup::root).collect()
}

/// A re-plan applied to the plan it was made from.
fn splice(old: &[FusionGroup], planned: Vec<Planned>) -> Vec<FusionGroup> {
    planned
        .into_iter()
        .map(|p| match p {
            Planned::Kept(i) => old[i].clone(),
            Planned::Fresh(group) => group,
        })
        .collect()
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
        let edges = space.num_edges();
        if edges == 0 {
            return;
        }
        let mut config = FusionConfig {
            decisions: (0..edges).map(|i| start[i % start.len()]).collect(),
        };
        let mut planner = FusionPlanner::new(&program, &space);
        let mut plan = planner.plan(&config);
        prop_assert_eq!(&plan, &fusion_groups(&program, &space, &config));
        for (at, step) in steps.iter().enumerate() {
            let mut flipped: Vec<usize> = step.iter().map(|i| i % edges).collect();
            flipped.sort_unstable();
            flipped.dedup();
            for &i in &flipped {
                config.decisions[i] = !config.decisions[i];
            }
            let planned = planner.replan(&roots(&plan), &config, &flipped);
            let next = splice(&plan, planned);
            prop_assert_eq!(
                &next,
                &fusion_groups(&program, &space, &config),
                "after step {} of {:?} over {:?}",
                at,
                &steps[..=at],
                space.edges()
            );
            plan = next;
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
    let plan = planner.plan(&config);
    assert_eq!(roots(&plan), [a1, a2, b1, b2, sum]);

    let flip = space.edge_index(a1, a2).expect("a1 -> a2 is a decision");
    config.decisions[flip] = true;
    let planned = planner.replan(&roots(&plan), &config, &[flip]);
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
    assert_eq!(
        splice(&plan, planned),
        fusion_groups(&program, &space, &config)
    );

    // Unfusing it again re-plans a1 and a2 alone.
    config.decisions[flip] = false;
    let fused_roots = [a2, b1, b2, sum];
    let planned = planner.replan(&fused_roots, &config, &[flip]);
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
    let plan = planner.plan(&config);

    let flip = space.edge_index(t, e).expect("t -> e is a decision");
    config.decisions[flip] = true;
    let planned = planner.replan(&roots(&plan), &config, &[flip]);
    let kept: Vec<Planned> = (0..plan.len()).map(Planned::Kept).collect();
    assert_eq!(planned, kept);
    assert_eq!(plan, fusion_groups(&program, &space, &config));
}
