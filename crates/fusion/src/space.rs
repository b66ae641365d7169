//! The fusion search space and configurations over it.

use crate::legality::fusible_edges;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tpu_hlo::{Computation, NodeId};

/// The set of legal fusion decisions for a program: one boolean per fusible
/// edge. A [`FusionConfig`] assigns those booleans.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionSpace {
    edges: Vec<(NodeId, NodeId)>,
    index: HashMap<(NodeId, NodeId), usize>,
    /// Per node and consumer (each consumer once), the decision index of
    /// the `(node, consumer)` edge; `None` marks an edge that is not a
    /// decision and therefore never fused.
    user_edges: Vec<Vec<Option<usize>>>,
}

impl FusionSpace {
    /// Build the space for a computation.
    ///
    /// Besides the edge list this tabulates, per node, which decision
    /// governs each of its consumer edges, so the fusion plan
    /// ([`FusionPlanner`](crate::FusionPlanner)) answers "does this node
    /// materialize" with array reads.
    pub fn new(c: &Computation) -> FusionSpace {
        let edges = fusible_edges(c);
        let index: HashMap<(NodeId, NodeId), usize> =
            edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        let user_edges = c
            .all_users()
            .into_iter()
            .enumerate()
            .map(|(p, users)| {
                users
                    .into_iter()
                    .map(|u| index.get(&(NodeId(p as u32), u)).copied())
                    .collect()
            })
            .collect();
        FusionSpace {
            edges,
            index,
            user_edges,
        }
    }

    /// Decision index per consumer of `node`.
    pub(crate) fn user_edges(&self, node: NodeId) -> &[Option<usize>] {
        &self.user_edges[node.index()]
    }

    /// Number of nodes of the computation the space was built for.
    pub(crate) fn num_nodes(&self) -> usize {
        self.user_edges.len()
    }

    /// The fusible edges, in decision order.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Number of decisions (`log2` of the configuration count).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Decision index of an edge, if it is in the space.
    pub fn edge_index(&self, producer: NodeId, consumer: NodeId) -> Option<usize> {
        self.index.get(&(producer, consumer)).copied()
    }

    /// The all-unfused configuration.
    pub fn none(&self) -> FusionConfig {
        FusionConfig {
            decisions: vec![false; self.edges.len()],
        }
    }

    /// The all-fused configuration.
    pub fn all(&self) -> FusionConfig {
        FusionConfig {
            decisions: vec![true; self.edges.len()],
        }
    }

    /// A uniformly random configuration with independent per-edge fusion
    /// probability `p_fuse` (the paper's random search strategy, §5).
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R, p_fuse: f64) -> FusionConfig {
        FusionConfig {
            decisions: (0..self.edges.len())
                .map(|_| rng.gen_bool(p_fuse))
                .collect(),
        }
    }

    /// Flip `flips` random decisions of `config` (the simulated-annealing
    /// neighbour move).
    ///
    /// # Panics
    ///
    /// Panics if the config does not belong to this space.
    pub fn perturb<R: Rng + ?Sized>(
        &self,
        config: &FusionConfig,
        rng: &mut R,
        flips: usize,
    ) -> FusionConfig {
        assert_eq!(config.decisions.len(), self.edges.len());
        let mut out = config.clone();
        if self.edges.is_empty() {
            return out;
        }
        for _ in 0..flips.max(1) {
            let i = rng.gen_range(0..self.edges.len());
            out.decisions[i] = !out.decisions[i];
        }
        out
    }
}

/// One point of the fusion search space: a boolean decision per fusible
/// edge of the corresponding [`FusionSpace`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FusionConfig {
    /// Per-edge decisions, indexed like [`FusionSpace::edges`].
    pub decisions: Vec<bool>,
}

impl FusionConfig {
    /// Number of fused edges.
    pub fn num_fused(&self) -> usize {
        self.decisions.iter().filter(|&&d| d).count()
    }

    /// Whether decision `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fused(&self, i: usize) -> bool {
        self.decisions[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn chain() -> Computation {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(8, 8), DType::F32);
        let a = b.tanh(x);
        let c2 = b.exp(a);
        let d = b.abs(c2);
        b.finish(d)
    }

    #[test]
    fn space_enumerates_chain_edges() {
        let c = chain();
        let s = FusionSpace::new(&c);
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.none().num_fused(), 0);
        assert_eq!(s.all().num_fused(), 2);
    }

    #[test]
    fn edge_index_lookup() {
        let c = chain();
        let s = FusionSpace::new(&c);
        let (p, q) = s.edges()[1];
        assert_eq!(s.edge_index(p, q), Some(1));
        assert_eq!(s.edge_index(q, p), None);
    }

    #[test]
    fn random_respects_probability() {
        let c = chain();
        let s = FusionSpace::new(&c);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut total = 0;
        for _ in 0..500 {
            total += s.random(&mut rng, 0.8).num_fused();
        }
        let frac = total as f64 / (500.0 * 2.0);
        assert!((frac - 0.8).abs() < 0.06, "frac={frac}");
    }

    #[test]
    fn perturb_flips() {
        let c = chain();
        let s = FusionSpace::new(&c);
        let base = s.none();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = s.perturb(&base, &mut rng, 1);
        assert_eq!(p.num_fused(), 1);
    }
}
