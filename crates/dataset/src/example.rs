//! The one example type and container of both §5 pipelines: a kernel, its
//! min-of-3 runtime, its ranking group and its source program.

use crate::corpus::Split;
use std::collections::HashSet;
use tpu_hlo::Kernel;
use tpu_learned_cost::Sample;

/// One dataset example: a kernel (with its tile attached) and its measured
/// runtime.
#[derive(Debug, Clone)]
pub struct KernelExample {
    /// The kernel with its tile attached: the compiler-default tile in the
    /// fusion dataset (the learned model's node features include the tile
    /// sub-vector), the candidate tile in the tile-size dataset.
    pub kernel: Kernel,
    /// min-of-`runs` measured runtime, ns.
    pub runtime_ns: f64,
    /// The group Eq. 2's rank loss compares within (§4.2): in the tile-size
    /// dataset the id of the kernel this tile belongs to; in the fusion
    /// dataset `usize::MAX`, every example its own group.
    pub group: usize,
    /// Index of the source program in the corpus.
    pub program_idx: usize,
}

impl KernelExample {
    /// The training sample of this example.
    pub fn sample(&self) -> Sample {
        Sample::grouped(self.kernel.clone(), self.runtime_ns, self.group)
    }
}

/// The examples one pipeline generated from one corpus, tagged by program.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// The measured examples, in generation order.
    pub examples: Vec<KernelExample>,
    /// Number of distinct kernels (each fusion example is one; the
    /// tile-size dataset measures several tiles of each).
    pub kernels: usize,
}

impl Dataset {
    /// Examples whose program index is in the given split subset.
    pub fn subset(&self, idxs: &[usize]) -> Vec<&KernelExample> {
        let set: HashSet<usize> = idxs.iter().copied().collect();
        self.examples
            .iter()
            .filter(|ex| set.contains(&ex.program_idx))
            .collect()
    }

    /// Split the dataset by program sets: (train, val, test) example refs.
    pub fn split(
        &self,
        split: &Split,
    ) -> (
        Vec<&KernelExample>,
        Vec<&KernelExample>,
        Vec<&KernelExample>,
    ) {
        (
            self.subset(&split.train),
            self.subset(&split.val),
            self.subset(&split.test),
        )
    }
}
