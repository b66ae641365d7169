//! Model-guided beam search over the fusion configuration space: a
//! learned-model-guided tree search beside SA.
//!
//! The searcher walks the fusion decisions in edge order: a *state* at
//! depth `d` is a complete [`FusionConfig`] whose first `d` decisions are
//! committed and whose remaining bits keep the start configuration's
//! values — so every state is a full configuration the cost model can
//! score, and depth `E` states are fully decided. Each depth expands every
//! beam state into its two children (decision `d` = unfused / fused),
//! dedups them, and scores the whole layer through **one**
//! [`BatchObjective::evaluate`] call — the same batch-first contract the
//! annealer uses, so a model-backed objective turns a layer into a single
//! packed forward over all candidates' cache misses.
//!
//! # Transposition table
//!
//! Distinct fusion configurations frequently decompose into *structurally
//! identical* fused programs (the fusion pass forces materializations, so
//! many decision vectors collapse to one kernel set). The search keys a
//! transposition table by [`fused_structure_hash`] — the canonical kernel
//! hashes of the fused program, folded in emission order — and reuses the
//! lock-free [`AtomicCache`] for storage: torn or foreign entries verify
//! as misses, lossy replacement, zero locks. A TT hit returns the exact
//! bits a fresh evaluation would (objectives are deterministic functions
//! of the fused structure) and costs zero model evaluations, which is what
//! lets the beam cover more of the space than its eval budget alone would
//! allow. A zero-capacity table (`AtomicCache::with_capacity(0)` passed
//! to [`beam_search_with_tt`]) disables reuse without changing any scored
//! cost.
//!
//! # Pruning
//!
//! After a layer is scored, the incumbent is the best predicted cost seen
//! anywhere in the search. A candidate is **margin-pruned** only when its
//! cost exceeds `incumbent * (1 + prune_margin)` — pruning never drops a
//! candidate whose predicted cost is within the margin of (or beats) the
//! incumbent; those can only fall to beam-width truncation, which keeps
//! strictly better-ranked candidates. The margin is a
//! [`SearchParams`] hyperparameter.
//!
//! # Determinism
//!
//! The search contains no randomness: candidates are generated in beam
//! order (previous layer sorted ascending by predicted cost — the
//! model-guided ordering) with the unfused child before the fused one,
//! layers are reduced with a stable sort keyed by `f64::total_cmp`, and
//! the layer is planned sequentially, in candidate order, by the search's
//! planner: each candidate as a delta from the nearest candidate of the
//! layer before, which decides what the plan costs and never what it is.
//! The objective's batch evaluation answers positionally. A run repeats
//! bit for bit for any beam width and any TT pre-warmth (a warm TT
//! changes how many evals are *spent*, never a scored cost).

use crate::memo::{Planner, SharedPlanner};
use crate::sa::{push_top, BatchObjective};
use std::collections::{HashMap, HashSet};
use tpu_fusion::{fusion_groups, materialize, FusionConfig, FusionSpace};
use tpu_hlo::{canonical_kernel_hash, KeyScratch, Program};
use tpu_learned_cost::AtomicCache;
use tpu_obs::{Counter, Gauge, Histogram, Registry};

/// Hyperparameters of the beam search: `prune_margin` and `beam_width`
/// shape the search; the rest plumb budgets and reuse policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchParams {
    /// States kept per depth after pruning (>= 1).
    pub beam_width: usize,
    /// Relative prune margin: a candidate survives margin pruning iff its
    /// cost is `<= incumbent * (1 + prune_margin)`.
    pub prune_margin: f64,
    /// Model-eval budget: configurations scored through the objective
    /// during the layer loop (the shared start evaluation is free,
    /// mirroring how SA's `steps` excludes the start). TT hits and
    /// intra-layer duplicates spend nothing.
    pub max_evals: usize,
    /// Keep the best `top_k` distinct configs seen (for the §6.3 hardware
    /// re-rank).
    pub top_k: usize,
    /// Seed for the random start mode. The beam itself is deterministic
    /// and never draws from it.
    pub seed: u64,
}

/// Slots of the transposition table a search creates for itself (when the
/// caller does not pass one).
pub(crate) const TT_SLOTS: usize = 1 << 16;

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            beam_width: 8,
            prune_margin: 0.25,
            max_evals: usize::MAX >> 1,
            top_k: 16,
            seed: 7,
        }
    }
}

/// Search accounting, bit-comparable across runs (the determinism suite
/// asserts equality of the whole struct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BeamStats {
    /// Candidate states generated (post-dedup) across all layers.
    pub expanded: u64,
    /// Configurations scored through the objective (including the start).
    pub scored: u64,
    /// Layer candidates answered by the transposition table.
    pub tt_hits: u64,
    /// Costs written into the transposition table.
    pub tt_stores: u64,
    /// Candidates dropped because their cost exceeded the margin cut.
    pub margin_pruned: u64,
    /// Candidates dropped by beam-width truncation.
    pub width_pruned: u64,
    /// Batched objective calls.
    pub batches: u64,
    /// Layers fully processed.
    pub depths: u64,
}

/// Result of a beam run.
#[derive(Debug, Clone)]
pub struct BeamResult {
    /// Best configuration found (ties broken toward generation order).
    pub best_config: FusionConfig,
    /// Its objective value.
    pub best_cost: f64,
    /// Configurations scored through the objective (including the start).
    pub evals: usize,
    /// The best `top_k` distinct configurations, ascending by cost.
    pub top: Vec<(FusionConfig, f64)>,
    /// Search accounting.
    pub stats: BeamStats,
}

/// `tpu-obs` handles for the beam (`autotuner.beam.*`), resolved once per
/// search. Instrumentation is read-only: the trajectory is bit-identical
/// whether or not the registry is enabled.
#[derive(Default)]
struct BeamObs {
    expanded: Counter,
    scored: Counter,
    tt_hits: Counter,
    tt_stores: Counter,
    margin_pruned: Counter,
    width_pruned: Counter,
    batches: Counter,
    batch_eval_ns: Histogram,
    batch_size: Histogram,
    depth: Gauge,
    best_cost: Gauge,
}

impl BeamObs {
    fn new(registry: &Registry) -> BeamObs {
        BeamObs {
            expanded: registry.counter("autotuner.beam.expanded"),
            scored: registry.counter("autotuner.beam.scored"),
            tt_hits: registry.counter("autotuner.beam.tt_hits"),
            tt_stores: registry.counter("autotuner.beam.tt_stores"),
            margin_pruned: registry.counter("autotuner.beam.margin_pruned"),
            width_pruned: registry.counter("autotuner.beam.width_pruned"),
            batches: registry.counter("autotuner.beam.batches"),
            batch_eval_ns: registry.histogram("autotuner.beam.batch_eval_ns"),
            batch_size: registry.histogram("autotuner.beam.batch_size"),
            depth: registry.gauge("autotuner.beam.depth"),
            best_cost: registry.gauge("autotuner.beam.best_cost"),
        }
    }
}

/// The transposition-table key of a configuration: the canonical kernel
/// hashes of its fused program, folded in emission order. Two configs with
/// the same key decompose into structurally identical kernel sets, so any
/// deterministic objective gives them bit-equal costs — which is what
/// makes a TT hit exactly substitutable for a fresh evaluation.
///
/// This is the materializing reference: it plans from scratch, builds
/// every kernel and hashes it. The beam itself no longer runs it; it folds
/// the keys its planner wrote in place for each interned group, which the
/// tests pin to this function's value.
pub fn fused_structure_hash(program: &Program, space: &FusionSpace, config: &FusionConfig) -> u64 {
    let groups = fusion_groups(program, space, config);
    let scratch = &mut KeyScratch::default();
    fold_structure_key(
        groups
            .iter()
            .map(|g| canonical_kernel_hash(&materialize(program, g, scratch))),
    )
}

/// Fold per-kernel canonical hashes, in emission order, into the
/// transposition-table key of a fused program: SipHash over the count as
/// a `usize`, then each hash, native-endian — the stream `len().hash()`
/// and `hash()` per kernel would write. The words are gathered on the
/// stack and written a chunk at a time: SipHash's digest depends only on
/// the stream, and a few long writes hash it faster than a write a word.
fn fold_structure_key(kernel_hashes: impl ExactSizeIterator<Item = u64>) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut chunk = [0u8; 8 * 64];
    chunk[..8].copy_from_slice(&kernel_hashes.len().to_ne_bytes());
    let mut len = 8;
    for k in kernel_hashes {
        if len == chunk.len() {
            h.write(&chunk);
            len = 0;
        }
        chunk[len..len + 8].copy_from_slice(&k.to_ne_bytes());
        len += 8;
    }
    h.write(&chunk[..len]);
    h.finish()
}

/// The margin cut: costs strictly above it are prunable. Infinite
/// incumbents (nothing scoreable yet) disable margin pruning.
pub fn margin_cut(incumbent: f64, margin: f64) -> f64 {
    if incumbent.is_finite() {
        incumbent * (1.0 + margin.max(0.0))
    } else {
        f64::INFINITY
    }
}

/// Reduce one scored layer to the next beam: margin-prune against the
/// incumbent, stable-sort ascending by cost (ties keep generation order),
/// truncate to the beam width. Pure and deterministic — the proptest suite
/// drives it directly. `layer` must contain no NaN costs.
///
/// Returns `(kept, margin_pruned, width_pruned)`.
pub fn reduce_layer(
    layer: &[(FusionConfig, f64)],
    incumbent: f64,
    width: usize,
    margin: f64,
) -> (Vec<(FusionConfig, f64)>, u64, u64) {
    let costs: Vec<f64> = layer.iter().map(|(_, c)| *c).collect();
    let (kept, margin_pruned, width_pruned) = reduce_costs(&costs, incumbent, width, margin);
    let kept = kept.into_iter().map(|i| layer[i].clone()).collect();
    (kept, margin_pruned, width_pruned)
}

/// [`reduce_layer`] over the costs alone: the positions that survive, in
/// their new order.
fn reduce_costs(
    costs: &[f64],
    incumbent: f64,
    width: usize,
    margin: f64,
) -> (Vec<usize>, u64, u64) {
    let cut = margin_cut(incumbent, margin);
    let mut kept: Vec<usize> = (0..costs.len()).filter(|&i| costs[i] <= cut).collect();
    let margin_pruned = (costs.len() - kept.len()) as u64;
    kept.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
    let width_pruned = kept.len().saturating_sub(width.max(1)) as u64;
    kept.truncate(width.max(1));
    (kept, margin_pruned, width_pruned)
}

/// One beam state: a configuration, its predicted cost, and its
/// transposition-table key (carried so that the child that keeps the
/// parent's decision, which *is* the parent, is not planned again).
#[derive(Clone)]
struct BeamEntry {
    config: FusionConfig,
    cost: f64,
    key: u64,
}

/// Outcome of scoring one candidate layer.
struct LayerScore {
    /// Cost per candidate, positionally. NaN marks "not evaluated"
    /// (budget exhausted before this candidate's miss was admitted).
    costs: Vec<f64>,
    /// Transposition-table key per candidate, positionally.
    keys: Vec<u64>,
    /// Objective evaluations consumed (unique, non-NaN-scored misses).
    spent: usize,
    /// The search must stop after consuming this layer.
    exhausted: bool,
}

/// What a search owns besides its beam: the objective, the transposition
/// table, the planner its keys are computed through (each group's key,
/// written in place without building its kernel), and the accounting.
struct Scorer<'t, 'p, O> {
    objective: O,
    tt: &'t AtomicCache,
    planner: SharedPlanner<'p>,
    stats: BeamStats,
    obs: BeamObs,
}

impl<O: BatchObjective> Scorer<'_, '_, O> {
    /// The transposition-table key of every candidate: the inherited one
    /// where the caller knows it, otherwise [`fused_structure_hash`]
    /// computed through the planner, which plans only the candidates
    /// without a key.
    fn structure_keys(&mut self, cands: &[FusionConfig], inherited: &[Option<u64>]) -> Vec<u64> {
        let unknown = cands.iter().zip(inherited).filter(|(_, key)| key.is_none());
        let mut planner = self.planner.borrow_mut();
        let (plans, slots) = planner.plan_batch(unknown.map(|(c, _)| c));
        let mut plans = plans.iter();
        inherited
            .iter()
            .map(|known| {
                known.unwrap_or_else(|| {
                    let plan = plans.next().expect("one plan per candidate without a key");
                    fold_structure_key(plan.slots().iter().map(|&id| slots.key(id)))
                })
            })
            .collect()
    }
}

/// Score `cands` through the TT and at most `remaining` objective
/// evaluations: TT hits and intra-layer duplicates are free, the unique
/// misses go to the objective as one batch in candidate order (so when the
/// budget truncates the batch, it is the best-ordered candidates that get
/// scored).
fn score_candidates<O: BatchObjective>(
    scorer: &mut Scorer<'_, '_, O>,
    cands: &[FusionConfig],
    inherited: &[Option<u64>],
    remaining: usize,
) -> LayerScore {
    let n = cands.len();
    let hashes = scorer.structure_keys(cands, inherited);
    let Scorer {
        objective,
        tt,
        stats,
        obs,
        ..
    } = scorer;
    // A zero-capacity table is "no reuse": skip its probes and stores.
    let reuse = tt.capacity() > 0;
    let mut costs = vec![f64::NAN; n];
    let mut resolved = vec![false; n];
    if reuse {
        for i in 0..n {
            if let Some(Some(c)) = tt.lookup_hash(hashes[i]) {
                costs[i] = c;
                resolved[i] = true;
                stats.tt_hits += 1;
                obs.tt_hits.inc();
            }
        }
    }

    // Unique misses, first occurrence wins, candidate order preserved.
    let mut miss_pos = vec![usize::MAX; n];
    let mut miss_cands: Vec<FusionConfig> = Vec::new();
    let mut miss_hashes: Vec<u64> = Vec::new();
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for i in 0..n {
        if resolved[i] {
            continue;
        }
        let pos = *seen.entry(hashes[i]).or_insert_with(|| {
            miss_cands.push(cands[i].clone());
            miss_hashes.push(hashes[i]);
            miss_cands.len() - 1
        });
        miss_pos[i] = pos;
    }

    let admitted = miss_cands.len().min(remaining);
    let budget_exhausted = miss_cands.len() > remaining;
    let mut miss_costs = vec![f64::NAN; miss_cands.len()];
    let mut objective_exhausted = false;
    if admitted > 0 {
        let timer = obs.batch_eval_ns.start_timer();
        let evals = objective.evaluate(&miss_cands[..admitted]);
        timer.stop();
        stats.batches += 1;
        obs.batches.inc();
        obs.batch_size.observe(admitted as u64);
        for (j, cost) in evals.into_iter().enumerate() {
            if cost.is_nan() {
                // Budget-exhausted sentinel: every later position is NaN
                // too (the BatchObjective contract) — stop consuming.
                objective_exhausted = true;
                break;
            }
            miss_costs[j] = cost;
            stats.scored += 1;
            obs.scored.inc();
            if reuse {
                tt.insert_hash(miss_hashes[j], Some(cost));
                stats.tt_stores += 1;
                obs.tt_stores.inc();
            }
        }
    }
    let spent = miss_costs.iter().filter(|c| !c.is_nan()).count();
    for i in 0..n {
        if miss_pos[i] != usize::MAX {
            costs[i] = miss_costs[miss_pos[i]];
        }
    }
    LayerScore {
        costs,
        keys: hashes,
        spent,
        exhausted: budget_exhausted || objective_exhausted,
    }
}

/// [`beam_search_with_tt`] with a fresh transposition table of 2¹⁶ slots.
pub fn beam_search<O: BatchObjective>(
    program: &Program,
    space: &FusionSpace,
    start: FusionConfig,
    objective: O,
    params: &SearchParams,
) -> BeamResult {
    let tt = AtomicCache::with_capacity(TT_SLOTS);
    beam_search_with_tt(program, space, start, objective, params, &tt)
}

/// Run the beam search, sharing `tt` with the caller — pass the same table
/// across runs on the same program (and objective) to carry predictions
/// over, exactly like the prediction cache carries kernel costs.
///
/// The search stops when the decision depth is exhausted, the beam empties
/// (everything margin-pruned), `params.max_evals` objective evaluations
/// are spent, or the objective signals budget exhaustion with `f64::NAN`.
///
/// `autotuner.beam.*` metrics go to [`BatchObjective::registry`].
pub fn beam_search_with_tt<O: BatchObjective>(
    program: &Program,
    space: &FusionSpace,
    start: FusionConfig,
    objective: O,
    params: &SearchParams,
    tt: &AtomicCache,
) -> BeamResult {
    let planner = Planner::shared(program, space, &objective.registry());
    beam_search_with_planner(space, start, objective, params, tt, planner)
}

/// The beam search, computing its transposition keys through `planner` —
/// the tuning run's one planner, which its model objective plans through
/// too, so a candidate keyed here is not planned again when it is scored.
pub(crate) fn beam_search_with_planner<O: BatchObjective>(
    space: &FusionSpace,
    start: FusionConfig,
    objective: O,
    params: &SearchParams,
    tt: &AtomicCache,
    planner: SharedPlanner<'_>,
) -> BeamResult {
    let width = params.beam_width.max(1);
    let registry = objective.registry();
    let mut scorer = Scorer {
        tt,
        planner,
        stats: BeamStats::default(),
        obs: BeamObs::new(&registry),
        objective,
    };

    // The start evaluation is shared and budget-free, mirroring SA.
    let sc = score_candidates(
        &mut scorer,
        std::slice::from_ref(&start),
        &[None],
        usize::MAX,
    );
    let start_cost = sc.costs[0];
    if start_cost.is_nan() {
        // Budget exhausted on the very first evaluation.
        return BeamResult {
            best_config: start,
            best_cost: f64::INFINITY,
            evals: scorer.stats.scored as usize,
            top: Vec::new(),
            stats: scorer.stats,
        };
    }
    let mut top: Vec<(FusionConfig, f64)> = Vec::new();
    push_top(&start, start_cost, params.top_k, &mut top);
    let mut best = start.clone();
    let mut best_cost = start_cost;
    let mut beam = vec![BeamEntry {
        config: start,
        cost: start_cost,
        key: sc.keys[0],
    }];
    let mut spent = 0usize;
    let mut exhausted = false;

    for depth in 0..space.num_edges() {
        if exhausted || beam.is_empty() || spent >= params.max_evals {
            break;
        }
        // Expand in beam order (ascending predicted cost), unfused child
        // first. The child that keeps the parent's decision is the parent:
        // it inherits the parent's key.
        let mut children: Vec<(FusionConfig, Option<u64>)> = Vec::with_capacity(beam.len() * 2);
        for parent in &beam {
            for bit in [false, true] {
                let mut child = parent.config.clone();
                child.decisions[depth] = bit;
                let key = (parent.config.decisions[depth] == bit).then_some(parent.key);
                children.push((child, key));
            }
        }
        // Dedup by configuration, first occurrence wins.
        let first: Vec<bool> = {
            let mut seen: HashSet<&FusionConfig> = HashSet::with_capacity(children.len());
            children.iter().map(|(c, _)| seen.insert(c)).collect()
        };
        let (cands, inherited): (Vec<FusionConfig>, Vec<Option<u64>>) = children
            .into_iter()
            .zip(first)
            .filter_map(|(child, first)| first.then_some(child))
            .unzip();
        scorer.stats.expanded += cands.len() as u64;
        scorer.obs.expanded.add(cands.len() as u64);

        let ls = score_candidates(&mut scorer, &cands, &inherited, params.max_evals - spent);
        spent += ls.spent;
        exhausted = ls.exhausted;

        let layer: Vec<BeamEntry> = cands
            .into_iter()
            .zip(ls.costs)
            .zip(ls.keys)
            .filter(|((_, cost), _)| !cost.is_nan())
            .map(|((config, cost), key)| BeamEntry { config, cost, key })
            .collect();
        for entry in &layer {
            if entry.cost.is_finite() {
                push_top(&entry.config, entry.cost, params.top_k, &mut top);
                if entry.cost < best_cost {
                    best = entry.config.clone();
                    best_cost = entry.cost;
                }
            }
        }
        let costs: Vec<f64> = layer.iter().map(|e| e.cost).collect();
        let (kept, margin_pruned, width_pruned) =
            reduce_costs(&costs, best_cost, width, params.prune_margin);
        scorer.stats.margin_pruned += margin_pruned;
        scorer.stats.width_pruned += width_pruned;
        scorer.obs.margin_pruned.add(margin_pruned);
        scorer.obs.width_pruned.add(width_pruned);
        beam = kept.into_iter().map(|i| layer[i].clone()).collect();
        scorer.stats.depths += 1;
        scorer.obs.depth.set((depth + 1) as f64);
    }

    scorer.obs.best_cost.set(best_cost);
    BeamResult {
        best_config: best,
        best_cost,
        evals: scorer.stats.scored as usize,
        top,
        stats: scorer.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn chain_program(n: usize) -> Program {
        let mut b = GraphBuilder::new("main");
        let mut v = b.parameter("x", Shape::matrix(256, 256), DType::F32);
        for i in 0..n {
            v = if i % 2 == 0 { b.tanh(v) } else { b.exp(v) };
        }
        Program::new("chain", b.finish(v))
    }

    /// Number of unfused edges — optimum is the all-fused config.
    fn unfused_edges(c: &FusionConfig) -> f64 {
        (c.decisions.len() - c.num_fused()) as f64
    }

    #[test]
    fn beam_finds_all_fused_optimum() {
        let p = chain_program(10);
        let space = FusionSpace::new(&p.computation);
        let result = beam_search(
            &p,
            &space,
            space.none(),
            |c: &FusionConfig| unfused_edges(c),
            &SearchParams::default(),
        );
        assert_eq!(result.best_cost, 0.0, "should find the all-fused config");
        assert_eq!(result.best_config, space.all());
        assert_eq!(result.stats.depths, space.num_edges() as u64);
    }

    #[test]
    fn width_one_is_greedy_descent() {
        let p = chain_program(8);
        let space = FusionSpace::new(&p.computation);
        let result = beam_search(
            &p,
            &space,
            space.none(),
            |c: &FusionConfig| unfused_edges(c),
            &SearchParams {
                beam_width: 1,
                ..Default::default()
            },
        );
        // Greedy on a separable objective still reaches the optimum.
        assert_eq!(result.best_cost, 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = chain_program(10);
        let space = FusionSpace::new(&p.computation);
        let run = || {
            beam_search(
                &p,
                &space,
                space.none(),
                |c: &FusionConfig| unfused_edges(c) * 3.25 + 1.0,
                &SearchParams {
                    beam_width: 4,
                    ..Default::default()
                },
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn tt_disabled_matches_enabled() {
        let p = chain_program(10);
        let space = FusionSpace::new(&p.computation);
        let run = |tt_slots| {
            beam_search_with_tt(
                &p,
                &space,
                space.none(),
                |c: &FusionConfig| unfused_edges(c) + 0.125,
                &SearchParams::default(),
                &AtomicCache::with_capacity(tt_slots),
            )
        };
        let with_tt = run(TT_SLOTS);
        let without = run(0);
        assert_eq!(with_tt.best_config, without.best_config);
        assert_eq!(with_tt.best_cost.to_bits(), without.best_cost.to_bits());
        assert!(with_tt.stats.tt_hits > 0, "chains alias: TT must hit");
        assert_eq!(without.stats.tt_hits, 0);
        assert!(
            with_tt.evals < without.evals,
            "TT hits must save evals: {} vs {}",
            with_tt.evals,
            without.evals
        );
    }

    #[test]
    fn warm_tt_spends_zero_evals() {
        let p = chain_program(8);
        let space = FusionSpace::new(&p.computation);
        let params = SearchParams::default();
        let tt = AtomicCache::with_capacity(1 << 12);
        let objective = |c: &FusionConfig| unfused_edges(c);
        let cold = beam_search_with_tt(&p, &space, space.none(), objective, &params, &tt);
        assert!(cold.evals > 0);
        let warm = beam_search_with_tt(&p, &space, space.none(), objective, &params, &tt);
        assert_eq!(warm.evals, 0, "fully warm TT answers every candidate");
        assert_eq!(warm.best_config, cold.best_config);
        assert_eq!(warm.best_cost.to_bits(), cold.best_cost.to_bits());
    }

    #[test]
    fn max_evals_budget_is_respected() {
        let p = chain_program(12);
        let space = FusionSpace::new(&p.computation);
        let mut calls = 0usize;
        let result = beam_search_with_tt(
            &p,
            &space,
            space.none(),
            |c: &FusionConfig| {
                calls += 1;
                unfused_edges(c)
            },
            &SearchParams {
                max_evals: 7,
                ..Default::default()
            },
            &AtomicCache::with_capacity(0),
        );
        // Start is free; the loop spends at most max_evals.
        assert!(result.evals <= 8, "evals={}", result.evals);
        assert_eq!(calls, result.evals);
    }

    #[test]
    fn nan_objective_is_terminal() {
        let p = chain_program(10);
        let space = FusionSpace::new(&p.computation);
        let mut budget = 5usize;
        let result = beam_search_with_tt(
            &p,
            &space,
            space.none(),
            |c: &FusionConfig| {
                if budget == 0 {
                    return f64::NAN;
                }
                budget -= 1;
                unfused_edges(c)
            },
            &SearchParams::default(),
            &AtomicCache::with_capacity(0),
        );
        assert!(result.evals <= 5, "evals={}", result.evals);
        assert!(result.best_cost.is_finite());
    }

    #[test]
    fn zero_margin_still_keeps_improving_candidates() {
        let p = chain_program(10);
        let space = FusionSpace::new(&p.computation);
        let result = beam_search(
            &p,
            &space,
            space.none(),
            |c: &FusionConfig| unfused_edges(c),
            &SearchParams {
                prune_margin: 0.0,
                ..Default::default()
            },
        );
        // margin 0 prunes everything above the incumbent, but the
        // monotone improving path survives to the optimum.
        assert_eq!(result.best_cost, 0.0);
        assert!(result.stats.margin_pruned > 0);
    }

    #[test]
    fn reduce_layer_margin_and_width_semantics() {
        let space = FusionSpace::new(&chain_program(4).computation);
        let cfg = space.none();
        let layer: Vec<(FusionConfig, f64)> = [3.0, 1.0, 1.05, 2.0, f64::INFINITY]
            .iter()
            .map(|&c| (cfg.clone(), c))
            .collect();
        // incumbent 1.0, margin 10%: cut at 1.1 — keeps 1.0 and 1.05.
        let (kept, margin_pruned, width_pruned) = reduce_layer(&layer, 1.0, 8, 0.10);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].1, 1.0);
        assert_eq!(kept[1].1, 1.05);
        assert_eq!(margin_pruned, 3);
        assert_eq!(width_pruned, 0);
        // Width 1 drops the margin survivor ranked second.
        let (kept, _, width_pruned) = reduce_layer(&layer, 1.0, 1, 0.10);
        assert_eq!(kept.len(), 1);
        assert_eq!(width_pruned, 1);
        // Infinite incumbent disables margin pruning entirely.
        let (kept, margin_pruned, _) = reduce_layer(&layer, f64::INFINITY, 8, 0.10);
        assert_eq!(kept.len(), layer.len());
        assert_eq!(margin_pruned, 0);
    }

    #[test]
    fn beam_records_into_the_objective_registry_and_matches_plain() {
        /// The toy objective, handing on a registry like the
        /// predictor-backed objectives do.
        struct Carrying(Registry);
        impl BatchObjective for Carrying {
            fn evaluate(&mut self, configs: &[FusionConfig]) -> Vec<f64> {
                configs.iter().map(|c| unfused_edges(c) + 0.5).collect()
            }
            fn registry(&self) -> Registry {
                self.0.clone()
            }
        }
        let p = chain_program(10);
        let space = FusionSpace::new(&p.computation);
        let params = SearchParams {
            beam_width: 4,
            ..Default::default()
        };
        let plain = beam_search(
            &p,
            &space,
            space.none(),
            Carrying(Registry::noop()),
            &params,
        );
        let registry = Registry::enabled();
        let observed = beam_search(
            &p,
            &space,
            space.none(),
            Carrying(registry.clone()),
            &params,
        );
        assert_eq!(plain.best_config, observed.best_config);
        assert_eq!(plain.best_cost.to_bits(), observed.best_cost.to_bits());
        assert_eq!(plain.stats, observed.stats);

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("autotuner.beam.scored"),
            Some(observed.stats.scored)
        );
        assert_eq!(
            snap.counter("autotuner.beam.expanded"),
            Some(observed.stats.expanded)
        );
        assert_eq!(
            snap.counter("autotuner.beam.tt_hits"),
            Some(observed.stats.tt_hits)
        );
        assert_eq!(
            snap.counter("autotuner.beam.margin_pruned"),
            Some(observed.stats.margin_pruned)
        );
        assert_eq!(
            snap.counter("autotuner.beam.batches"),
            Some(observed.stats.batches)
        );
        assert_eq!(
            snap.gauge("autotuner.beam.best_cost"),
            Some(observed.best_cost)
        );
        assert_eq!(
            snap.gauge("autotuner.beam.depth"),
            Some(observed.stats.depths as f64)
        );
    }

    #[test]
    fn top_k_is_sorted_and_distinct() {
        let p = chain_program(8);
        let space = FusionSpace::new(&p.computation);
        let result = beam_search(
            &p,
            &space,
            space.none(),
            |c: &FusionConfig| unfused_edges(c),
            &SearchParams {
                top_k: 5,
                ..Default::default()
            },
        );
        assert!(!result.top.is_empty() && result.top.len() <= 5);
        for w in result.top.windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert_ne!(w[0].0, w[1].0);
        }
    }

    #[test]
    fn memoized_keys_equal_the_public_hash_and_inherited_keys_skip_the_plan() {
        let p = chain_program(6);
        let space = FusionSpace::new(&p.computation);
        let tt = AtomicCache::with_capacity(0);
        let mut scorer = Scorer {
            objective: |c: &FusionConfig| unfused_edges(c),
            tt: &tt,
            planner: Planner::shared(&p, &space, &Registry::noop()),
            stats: BeamStats::default(),
            obs: BeamObs::default(),
        };
        let mut half = space.none();
        half.decisions[2] = true;
        let cands = [space.none(), half, space.all()];
        let keys = scorer.structure_keys(&cands, &[None, None, None]);
        for (c, k) in cands.iter().zip(&keys) {
            assert_eq!(*k, fused_structure_hash(&p, &space, c));
        }
        // An inherited key is taken as is: nothing is planned or resolved.
        let distinct = scorer.planner.borrow().distinct();
        let keys = scorer.structure_keys(&cands[..1], &[Some(42)]);
        assert_eq!(keys, [42]);
        assert_eq!(scorer.planner.borrow().distinct(), distinct);
    }

    #[test]
    fn fused_structure_hash_collapses_equivalent_configs() {
        // In a chain with a forced materialization boundary, flipping a
        // decision the pass ignores must not change the hash, while real
        // structural changes must.
        let p = chain_program(6);
        let space = FusionSpace::new(&p.computation);
        let a = fused_structure_hash(&p, &space, &space.none());
        let b = fused_structure_hash(&p, &space, &space.none());
        assert_eq!(a, b);
        assert_ne!(a, fused_structure_hash(&p, &space, &space.all()));
    }

    #[test]
    fn structure_key_is_the_per_field_fold() {
        // The chunked key must stay the key `Hash` gives field by field:
        // the transposition table and every recorded search depend on it.
        // 63 hashes fill the first chunk exactly; 64 and 200 spill over.
        use std::hash::{Hash, Hasher};
        let long = |n: u64| {
            (0..n)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect()
        };
        for hashes in [
            vec![],
            vec![7],
            vec![u64::MAX, 0, 0x9e37_79b9_7f4a_7c15],
            long(63),
            long(64),
            long(200),
        ] {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            hashes.len().hash(&mut h);
            for k in &hashes {
                k.hash(&mut h);
            }
            assert_eq!(fold_structure_key(hashes.iter().copied()), h.finish());
        }
    }
}
