//! What one search remembers about the kernels of its program.
//!
//! A fused kernel is a pure function of `(program, root, members)` — a
//! [`FusionGroup`] — and successive candidates of a search share almost all
//! of their groups: one flipped decision changes one to three of them. So
//! whoever scores configurations plans each candidate (cheap, pure, done in
//! parallel) and then resolves the plan's groups through a [`GroupMemo`],
//! which builds a group's value the first time it is asked and hands out
//! the same `Arc` afterwards.
//!
//! Resolution is sequential, in candidate order, under `&mut`: which group
//! is built when — and so every result — is independent of
//! `RAYON_NUM_THREADS`. A memo belongs to one search over one program and
//! dies with it: no capacity, no eviction (a program of N nodes has at most
//! a few N distinct groups in play).

use std::collections::HashMap;
use std::sync::Arc;
use tpu_fusion::{materialize, FusionGroup};
use tpu_hlo::{HashedKernel, Program};

/// Per-search memo from a fusion group to what was built from it.
pub(crate) struct GroupMemo<T> {
    built: HashMap<FusionGroup, Arc<T>>,
}

impl<T> Default for GroupMemo<T> {
    fn default() -> Self {
        GroupMemo {
            built: HashMap::new(),
        }
    }
}

impl<T> GroupMemo<T> {
    /// The value for `group`, built with `build` on first sight.
    pub(crate) fn resolve(
        &mut self,
        group: FusionGroup,
        build: impl FnOnce(&FusionGroup) -> T,
    ) -> &Arc<T> {
        self.built
            .entry(group)
            .or_insert_with_key(|g| Arc::new(build(g)))
    }

    /// Distinct groups built so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.built.len()
    }
}

/// The memo of the fusion-only scorers: each group's kernel with its
/// canonical hash.
pub(crate) type KernelMemo = GroupMemo<HashedKernel>;

impl KernelMemo {
    /// The kernel of `group`, materialized and hashed on first sight.
    pub(crate) fn kernel(&mut self, program: &Program, group: FusionGroup) -> &Arc<HashedKernel> {
        self.resolve(group, |g| HashedKernel::new(materialize(program, g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_fusion::{apply_fusion, fusion_groups, FusionSpace};
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

    #[test]
    fn configs_that_share_a_group_materialize_it_once() {
        let p = two_chains();
        let space = FusionSpace::new(&p.computation);
        let none = space.none();
        let mut flipped = none.clone();
        flipped.decisions[space.edge_index(tpu_hlo::NodeId(2), tpu_hlo::NodeId(3)).unwrap()] = true;

        let mut memo = KernelMemo::default();
        let mut resolve = |cfg| -> Vec<Arc<HashedKernel>> {
            fusion_groups(&p, &space, cfg)
                .into_iter()
                .map(|g| Arc::clone(memo.kernel(&p, g)))
                .collect()
        };
        let first = resolve(&none);
        let second = resolve(&flipped);
        // none: {a1} {a2} {b1} {b2} {sum}; flipped: {a1,a2} {b1} {b2} {sum}.
        assert_eq!((first.len(), second.len()), (5, 4));
        let shared = second
            .iter()
            .filter(|k| first.iter().any(|f| Arc::ptr_eq(f, k)))
            .count();
        assert_eq!(shared, 3, "b1, b2 and sum are the same Arcs");
        assert_eq!(memo.len(), 6, "one new kernel for the flipped decision");

        // And what the memo hands out is what the pass emits.
        for (cfg, resolved) in [(&none, &first), (&flipped, &second)] {
            let fused = apply_fusion(&p, &space, cfg);
            assert_eq!(fused.kernels.len(), resolved.len());
            for (k, r) in fused.kernels.iter().zip(resolved) {
                assert_eq!(k, r.kernel());
            }
        }
    }
}
