//! The fusion pass, pinned against the pass as it was before it was split
//! into plan + materialize, and the two halves checked against the whole.
//!
//! `fusion_golden.json` records, for the five `search_tune` programs under
//! the all-unfused, all-fused, default and two seeded random
//! configurations, how many kernels `apply_fusion` emits, each kernel's
//! canonical hash in emission order, and a digest of the `FusedProgram`:
//! its name and, per kernel, the text `dump_computation` writes (which
//! round-trips every node field, names included), kind, tile and
//! `source_root` — what the canonical hash leaves out. It
//! was generated by the single-function pass and must keep passing
//! unchanged, so "the split emits byte-identical kernels" is checked
//! against the old code and not against itself. If a change to the pass's
//! *output* is intentional, regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test fusion_plan
//! ```
//!
//! and commit the updated `fusion_golden.json` together with the change.

use std::fmt::Write;
use std::hash::{Hash, Hasher};
use tpu_repro::autotuner::{fused_structure_hash, random_configs};
use tpu_repro::dataset::{Corpus, CorpusScale};
use tpu_repro::fusion::{
    apply_fusion, default_space_and_config, fusion_groups, materialize, FusionConfig, FusionGroup,
    FusionPlanner, FusionSpace, GroupId, Planned,
};
use tpu_repro::hlo::{
    canonical_kernel_hash, dump_computation, KeyScratch, NodeId, OpCategory, Opcode, Program,
};

/// The held-out programs with at least 100 fusion decisions (the
/// benchmark's `search_tune` set).
const PROGRAMS: [&str; 5] = ["ConvDRAW", "WaveRNN", "NMT Model", "RNN", "Translate"];

/// The pinned configurations of one program, labelled.
fn configs(space: &FusionSpace, default: FusionConfig) -> Vec<(String, FusionConfig)> {
    let mut out = vec![
        ("none".to_string(), space.none()),
        ("all".to_string(), space.all()),
        ("default".to_string(), default),
    ];
    for (i, config) in random_configs(space, 2, 1).into_iter().enumerate() {
        out.push((format!("random{i}"), config));
    }
    out
}

fn search_tune_programs() -> Vec<Program> {
    let corpus = Corpus::build(CorpusScale::Full);
    PROGRAMS
        .iter()
        .map(|name| {
            let i = corpus
                .index_of(name)
                .unwrap_or_else(|| panic!("the full corpus holds {name}"));
            corpus.entries[i].program.clone()
        })
        .collect()
}

fn render() -> String {
    let mut out = String::from("{\n");
    let programs = search_tune_programs();
    for (pi, program) in programs.iter().enumerate() {
        let (space, default) = default_space_and_config(&program.computation);
        writeln!(out, "  \"{}\": {{", program.name).expect("write to string");
        let configs = configs(&space, default);
        for (ci, (label, config)) in configs.iter().enumerate() {
            let fused = apply_fusion(program, &space, config);
            let mut digest = std::collections::hash_map::DefaultHasher::new();
            fused.name.hash(&mut digest);
            for k in &fused.kernels {
                dump_computation(&k.computation).hash(&mut digest);
                k.kind.index().hash(&mut digest);
                k.tile.as_ref().map(|t| t.dims()).hash(&mut digest);
                k.source_root.map(NodeId::index).hash(&mut digest);
            }
            let hashes: Vec<String> = fused
                .kernels
                .iter()
                .map(|k| format!("\"{:016x}\"", canonical_kernel_hash(k)))
                .collect();
            writeln!(
                out,
                "    \"{label}\": {{ \"kernels\": {}, \"debug_digest\": \"{:016x}\", \"hashes\": [{}] }}{}",
                fused.kernels.len(),
                digest.finish(),
                hashes.join(", "),
                if ci + 1 < configs.len() { "," } else { "" }
            )
            .expect("write to string");
        }
        out.push_str(if pi + 1 < programs.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    out.push_str("}\n");
    out
}

#[test]
fn apply_fusion_matches_the_pre_split_pass() {
    let rendered = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fusion_golden.json");

    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write fusion golden");
        println!("regenerated {}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run REGEN_GOLDEN=1 cargo test --test fusion_plan",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "apply_fusion's output drifted from tests/fusion_golden.json; if intentional, \
         regenerate with REGEN_GOLDEN=1 and commit the diff"
    );
}

#[test]
fn plan_and_materialize_are_the_pass() {
    let mut programs = search_tune_programs();
    programs.extend(
        Corpus::build(CorpusScale::Tiny)
            .entries
            .into_iter()
            .map(|e| e.program),
    );
    let scratch = &mut KeyScratch::default();
    for program in &programs {
        let c = &program.computation;
        let (space, default) = default_space_and_config(c);
        let mut configs = configs(&space, default);
        for (i, config) in random_configs(&space, 6, 11).into_iter().enumerate() {
            configs.push((format!("extra{i}"), config));
        }
        let is_heavy = |id: NodeId| {
            matches!(
                c.node(id).opcode.category(),
                OpCategory::Dot | OpCategory::Convolution | OpCategory::Reduction
            )
        };
        for (label, config) in &configs {
            let at = format!("{} / {label}", program.name);
            let groups = fusion_groups(program, &space, config);
            let fused = apply_fusion(program, &space, config);
            assert_eq!(groups.len(), fused.kernels.len(), "{at}");
            assert!(
                groups.windows(2).all(|w| w[0].root() < w[1].root()),
                "{at}: groups not in ascending root order"
            );
            let mut heavy_home = vec![None; c.num_nodes()];
            for (group, kernel) in groups.iter().zip(&fused.kernels) {
                let members = group.members();
                assert!(
                    members.windows(2).all(|w| w[0] < w[1]),
                    "{at}: members of {} not sorted and duplicate-free",
                    group.root()
                );
                assert_eq!(members.last(), Some(&group.root()), "{at}");
                assert!(
                    members.iter().all(|&m| !matches!(
                        c.node(m).opcode,
                        Opcode::Parameter | Opcode::Constant
                    )),
                    "{at}: a parameter or constant inside {}",
                    group.root()
                );
                let heavies: Vec<NodeId> =
                    members.iter().copied().filter(|&m| is_heavy(m)).collect();
                assert!(heavies.len() <= 1, "{at}: two heroes in {}", group.root());
                for h in heavies {
                    assert_eq!(
                        heavy_home[h.index()].replace(group.root()),
                        None,
                        "{at}: heavy {h} duplicated into {}",
                        group.root()
                    );
                }
                assert_eq!(&materialize(program, group, scratch), kernel, "{at}");
            }
        }
    }
}

/// A planner keys each group in place (`subgraph_kernel_hash` over its
/// members) and builds its kernel
/// only when something needs it, so the in-place key must be the canonical
/// hash of the kernel `materialize` would build — for every group the
/// planner makes on the five `search_tune` programs — and the keys folded
/// in emission order must be the beam's materializing reference,
/// `fused_structure_hash`.
#[test]
fn a_group_key_is_the_hash_of_its_materialized_kernel() {
    for program in &search_tune_programs() {
        let c = &program.computation;
        let (space, default) = default_space_and_config(c);
        let mut configs: Vec<FusionConfig> = configs(&space, default)
            .into_iter()
            .map(|(_, config)| config)
            .collect();
        configs.extend(random_configs(&space, 24, 29));
        let mut planner = FusionPlanner::new(program, &space);
        let mut plan = Vec::new();
        let mut scratch = KeyScratch::default();
        let mut groups_keyed = 0;
        for (i, config) in configs.iter().enumerate() {
            planner.plan(config, &mut plan);
            let groups: Vec<&FusionGroup> = plan
                .iter()
                .map(|id| &planner.groups()[id.index()])
                .collect();
            let keys: Vec<u64> = groups
                .iter()
                .map(|g| c.subgraph_kernel_hash(g.members(), g.root(), &mut scratch))
                .collect();
            for (group, &key) in groups.iter().zip(&keys) {
                assert_eq!(
                    key,
                    canonical_kernel_hash(&materialize(program, group, &mut scratch)),
                    "{} / config {i}: group rooted at {}",
                    program.name,
                    group.root()
                );
            }
            // The fold of the keys, field by field: the count, then each
            // key (the beam's streamed fold is pinned to this stream).
            let mut folded = std::collections::hash_map::DefaultHasher::new();
            keys.len().hash(&mut folded);
            for key in &keys {
                key.hash(&mut folded);
            }
            assert_eq!(
                folded.finish(),
                fused_structure_hash(program, &space, config),
                "{} / config {i}",
                program.name
            );
            groups_keyed += groups.len();
        }
        assert!(groups_keyed > 0, "{}", program.name);
    }
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

/// The groups a plan's ids name in the planner's table.
fn resolve(planner: &FusionPlanner<'_>, plan: &[GroupId]) -> Vec<FusionGroup> {
    plan.iter()
        .map(|id| planner.groups()[id.index()].clone())
        .collect()
}

/// Random walks of 1-4 simultaneous flips over every program of the full
/// corpus, from the default, all-unfused, all-fused and a random
/// configuration: after every step the re-plan, spliced into the plan of
/// the step before, is the plan from scratch, group for group.
#[test]
fn a_replan_equals_the_plan_from_scratch_across_the_full_corpus() {
    const STEPS: usize = 40;
    let corpus = Corpus::build(CorpusScale::Full);
    let (mut flips, mut kept, mut fresh) = (0usize, 0usize, 0usize);
    for (pi, entry) in corpus.entries.iter().enumerate() {
        let program = &entry.program;
        let (space, default) = default_space_and_config(&program.computation);
        if space.num_edges() == 0 {
            continue;
        }
        let mut rng = proptest::TestRng::new(pi as u64);
        let random = random_configs(&space, 1, pi as u64).remove(0);
        let mut planner = FusionPlanner::new(program, &space);
        let (mut plan, mut planned) = (Vec::new(), Vec::new());
        for (si, start) in [default, space.none(), space.all(), random]
            .into_iter()
            .enumerate()
        {
            let mut config = start;
            planner.plan(&config, &mut plan);
            assert_eq!(
                resolve(&planner, &plan),
                fusion_groups(program, &space, &config),
                "{}",
                program.name
            );
            for step in 0..STEPS {
                let mut flipped: Vec<usize> = Vec::new();
                for _ in 0..1 + rng.below(4) {
                    let i = rng.below(space.num_edges() as u64) as usize;
                    if !flipped.contains(&i) {
                        flipped.push(i);
                        config.decisions[i] = !config.decisions[i];
                    }
                }
                planner.replan(&plan, &config, &flipped, &mut planned);
                flips += flipped.len();
                kept += planned
                    .iter()
                    .filter(|p| matches!(p, Planned::Kept(_)))
                    .count();
                fresh += planned
                    .iter()
                    .filter(|p| matches!(p, Planned::Fresh(_)))
                    .count();
                let next = splice(&plan, &planned);
                assert_eq!(
                    resolve(&planner, &next),
                    fusion_groups(program, &space, &config),
                    "{} / start {si} / step {step}: flipped {flipped:?}",
                    program.name
                );
                plan = next;
            }
        }
    }
    assert!(flips > 30_000, "only {flips} flips checked");
    assert!(
        kept > 4 * fresh,
        "re-plans kept {kept} groups and planned {fresh} again: the delta is not local"
    );
}
