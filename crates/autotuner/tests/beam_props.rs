//! Property-based tests for the beam search — the three contracts that
//! make transposition-table reuse and margin pruning sound:
//!
//! 1. the TT key is faithful: configurations with equal
//!    [`fused_structure_hash`] produce bit-equal objective values, so a
//!    TT hit returns exactly what a fresh model eval would have (pinned
//!    directly by replaying a search against its own warm table);
//! 2. the TT is an optimization, not a behavior change: a TT-disabled
//!    search returns the same best configuration and bit-equal cost as a
//!    TT-enabled one;
//! 3. margin pruning is safe: [`reduce_layer`] never drops a candidate
//!    inside the margin window unless the width bound forces it, and its
//!    accounting always adds up;
//! 4. the key the beam files a cost under — folded from the kernel hashes
//!    of a delta plan (kept from the layer before, or memoized), or
//!    inherited from the parent state — is the public
//!    [`fused_structure_hash`] of the configuration
//!    (`tests/plan_history.rs` at the workspace root checks the same along
//!    a beam trajectory over a `search_tune` program).

use proptest::prelude::*;
use tpu_autotuner::{
    beam_search, beam_search_with_tt, fused_structure_hash, margin_cut, reduce_layer, SearchParams,
};
use tpu_fusion::{apply_fusion, FusionConfig, FusionSpace};
use tpu_hlo::{DType, GraphBuilder, Program, Shape};
use tpu_learned_cost::AtomicCache;
use tpu_sim::{kernel_time_ns, TpuConfig};

/// A small program whose fusion space still has enough decisions for the
/// beam to explore (and for distinct decision vectors to collapse to the
/// same fused structure).
fn program() -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(64, 64), DType::F32);
    let w = b.parameter("w", Shape::matrix(64, 64), DType::F32);
    let t = b.tanh(x);
    let e = b.exp(t);
    let s = b.add(t, e);
    let d = b.dot(s, w);
    let r = b.reduce(d, vec![1]);
    let z = b.tanh(r);
    Program::new("beam-props", b.finish(z))
}

/// The deterministic oracle objective: true simulator kernel times summed
/// over the fused program. A pure function of the fused structure — the
/// property the TT key relies on.
fn oracle_cost(program: &Program, space: &FusionSpace, config: &FusionConfig) -> f64 {
    let cfg = TpuConfig::default();
    apply_fusion(program, space, config)
        .kernels
        .iter()
        .map(|k| kernel_time_ns(k, &cfg))
        .sum()
}

/// A random decision vector of the right length for `space`.
fn arb_config(num_edges: usize) -> impl Strategy<Value = FusionConfig> {
    prop::collection::vec(any::<bool>(), num_edges).prop_map(|decisions| FusionConfig { decisions })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equal fused-structure hash implies bit-equal objective value: the
    /// invariant that makes serving a TT hit in place of a fresh eval
    /// sound. Pairs of random decision vectors frequently collapse to the
    /// same kernel set here because the fusion pass forces
    /// materializations.
    #[test]
    fn equal_structure_hash_implies_bit_equal_cost(
        configs in prop::collection::vec(arb_config(program_edges()), 2..8)
    ) {
        let p = program();
        let space = FusionSpace::new(&p.computation);
        let scored: Vec<(u64, f64)> = configs
            .iter()
            .map(|c| (fused_structure_hash(&p, &space, c), oracle_cost(&p, &space, c)))
            .collect();
        for (i, &(ha, ca)) in scored.iter().enumerate() {
            for &(hb, cb) in &scored[i + 1..] {
                if ha == hb {
                    prop_assert_eq!(
                        ca.to_bits(),
                        cb.to_bits(),
                        "same fused-structure hash, different cost"
                    );
                }
            }
        }
    }

    /// Replaying a search against its own warm TT returns a bit-equal
    /// best cost while spending zero fresh objective evaluations — every
    /// hit served exactly what the fresh eval produced.
    #[test]
    fn warm_tt_replay_is_bit_equal_and_free(
        width in 1usize..6,
        margin in 0.0f64..0.8,
    ) {
        let p = program();
        let space = FusionSpace::new(&p.computation);
        let params = SearchParams {
            beam_width: width,
            prune_margin: margin,
            ..Default::default()
        };
        let tt = AtomicCache::with_capacity(1 << 12);
        let objective = |c: &FusionConfig| oracle_cost(&p, &space, c);
        let cold = beam_search_with_tt(&p, &space, space.none(), objective, &params, &tt);
        let warm = beam_search_with_tt(&p, &space, space.none(), objective, &params, &tt);
        prop_assert_eq!(&cold.best_config, &warm.best_config);
        prop_assert_eq!(cold.best_cost.to_bits(), warm.best_cost.to_bits());
        prop_assert_eq!(warm.evals, 0, "warm TT replay spent fresh evals");
        prop_assert!(warm.stats.tt_hits > 0);
    }

    /// The beam never calls [`fused_structure_hash`]: it folds the hashes
    /// of kernels resolved through its per-search planner, and the child that
    /// keeps its parent's decision inherits the parent's key outright. Both
    /// shortcuts must land on the public key: after a search from a drawn
    /// start, every configuration it ranked sits in the table under
    /// `fused_structure_hash`, with the bit-equal cost.
    #[test]
    fn beam_files_costs_under_fused_structure_hash(
        start in arb_config(program_edges()),
        width in 1usize..6,
    ) {
        let p = program();
        let space = FusionSpace::new(&p.computation);
        let params = SearchParams {
            beam_width: width,
            top_k: 64,
            ..Default::default()
        };
        let tt = AtomicCache::with_capacity(1 << 16);
        let objective = |c: &FusionConfig| oracle_cost(&p, &space, c);
        let result = beam_search_with_tt(&p, &space, start, objective, &params, &tt);
        prop_assert!(!result.top.is_empty());
        for (config, cost) in &result.top {
            let filed = tt.lookup_hash(fused_structure_hash(&p, &space, config));
            prop_assert_eq!(
                filed.flatten().map(f64::to_bits),
                Some(cost.to_bits()),
                "a ranked configuration is not in the table under its public key"
            );
        }
    }

    /// Disabling the TT changes accounting, never the answer: same best
    /// configuration, bit-equal best cost.
    #[test]
    fn tt_disabled_search_matches_enabled(
        width in 1usize..6,
        margin in 0.0f64..0.8,
    ) {
        let p = program();
        let space = FusionSpace::new(&p.computation);
        let objective = |c: &FusionConfig| oracle_cost(&p, &space, c);
        let base = SearchParams {
            beam_width: width,
            prune_margin: margin,
            ..Default::default()
        };
        let with_tt = beam_search(&p, &space, space.none(), objective, &base);
        let without = beam_search(
            &p,
            &space,
            space.none(),
            objective,
            &SearchParams { tt_slots: 0, ..base },
        );
        prop_assert_eq!(&with_tt.best_config, &without.best_config);
        prop_assert_eq!(with_tt.best_cost.to_bits(), without.best_cost.to_bits());
        prop_assert_eq!(without.stats.tt_hits, 0, "TT-disabled search recorded TT hits");
    }

    /// `reduce_layer` only margin-prunes candidates strictly outside the
    /// margin window, keeps every in-window candidate the width bound
    /// allows (ascending by cost), and its accounting is exact.
    #[test]
    fn reduce_layer_margin_pruning_is_safe(
        costs in prop::collection::vec(1.0f64..1e9, 1..40),
        incumbent_finite in any::<bool>(),
        incumbent_val in 1.0f64..1e9,
        width in 1usize..10,
        margin in 0.0f64..1.0,
    ) {
        let incumbent = if incumbent_finite { incumbent_val } else { f64::INFINITY };
        let layer: Vec<(FusionConfig, f64)> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                // Distinct configs so kept entries are identifiable.
                let decisions = (0..8).map(|b| (i >> b) & 1 == 1).collect();
                (FusionConfig { decisions }, c)
            })
            .collect();
        let (kept, margin_pruned, width_pruned) =
            reduce_layer(&layer, incumbent, width, margin);

        prop_assert_eq!(
            kept.len() as u64 + margin_pruned + width_pruned,
            layer.len() as u64,
            "reduce_layer accounting does not add up"
        );
        prop_assert!(kept.len() <= width.max(1));
        prop_assert!(
            kept.windows(2).all(|w| w[0].1 <= w[1].1),
            "kept layer is not ascending by cost"
        );

        let cut = margin_cut(incumbent, margin);
        // The width.max(1) cheapest in-window candidates must all survive:
        // margin pruning alone never drops a candidate inside the window.
        let mut in_window: Vec<f64> =
            costs.iter().copied().filter(|&c| c <= cut).collect();
        in_window.sort_by(f64::total_cmp);
        let must_keep = in_window.len().min(width.max(1));
        prop_assert_eq!(
            kept.len(),
            must_keep,
            "an in-window candidate was dropped without a width excuse"
        );
        for (i, &(_, kept_cost)) in kept.iter().enumerate() {
            prop_assert_eq!(
                kept_cost.to_bits(),
                in_window[i].to_bits(),
                "kept layer diverges from the cheapest in-window candidates"
            );
            prop_assert!(kept_cost <= cut, "kept a candidate outside the margin window");
        }
    }
}

/// Number of fusion decisions in [`program`]'s space (proptest strategies
/// need it before the test body runs).
fn program_edges() -> usize {
    let p = program();
    FusionSpace::new(&p.computation).num_edges()
}
