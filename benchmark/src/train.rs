//! `train_stream`: generate the streamed dataset, train the GNN from the
//! file one batch at a time, freeze the result. Serve, cache and inference
//! do nothing here: this is the bypass workload for serving optimisations.

use crate::report::{Composed, Outcome};
use crate::seams::SourceSeam;
use crate::setup::{accuracy_vs_oracle, gnn_config, train_config, Setup, MODEL_SEED};
use crate::sizes::{Rounds, Sizes};
use crate::stats;
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use tpu_dataset::{
    stream_corpus, DatasetReader, DatasetWriter, FusionDatasetConfig, StreamGenConfig,
};
use tpu_infer::{freeze_gnn, FrozenModel};
use tpu_learned_cost::{train_stream, BatchSource, CostModel, GnnModel, StreamConfig};

pub fn stream_gen_config(sizes: &Sizes) -> StreamGenConfig {
    StreamGenConfig {
        fusion: FusionDatasetConfig {
            configs_per_program: sizes.train_configs_per_program,
            runs: 3,
            seed: MODEL_SEED,
            ..Default::default()
        },
        ..Default::default()
    }
}

struct Round {
    wall_s: f64,
    generate_s: f64,
    train_s: f64,
    records: usize,
    file_bytes: u64,
    samples: usize,
    step_us: Vec<f64>,
    losses: Vec<f64>,
    frozen: FrozenModel,
}

fn run_round(
    setup: &Setup,
    sizes: &Sizes,
    path: &std::path::Path,
    tracer: Option<&Arc<Tracer>>,
    round: u64,
) -> Result<Round, String> {
    if let Some(t) = tracer {
        t.begin_root("train.round", round);
    }
    let started = Instant::now();
    let mut writer = DatasetWriter::create(path).map_err(|e| e.to_string())?;
    stream_corpus(&setup.corpus, &stream_gen_config(sizes), &mut writer)
        .map_err(|e| e.to_string())?;
    let records = writer.finish().map_err(|e| e.to_string())?;
    let generate_s = started.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();

    let reader = DatasetReader::open(path).map_err(|e| e.to_string())?;
    // Train on the training programs only, so the pool stays held out.
    let of = |programs: &[usize]| -> Vec<usize> {
        (0..reader.len())
            .filter(|&i| programs.contains(&reader.program_id(i)))
            .collect()
    };
    let val_idxs: Vec<usize> = of(&setup.split.val)
        .into_iter()
        .take(sizes.train_val_records)
        .collect();
    let val_set = reader.load(&val_idxs)?;
    let source = SourceSeam::new(&reader, of(&setup.split.train), tracer.cloned());

    let mut model = GnnModel::new(gnn_config(sizes));
    let cfg = train_config(sizes, sizes.train_epochs, sizes.train_batches);
    let train_started = Instant::now();
    let report = train_stream(
        &mut model,
        &source,
        &val_set,
        &cfg,
        &StreamConfig::default(),
    )?;
    let train_ended = Instant::now();
    let train_s = train_ended.duration_since(train_started).as_secs_f64();
    let frozen =
        FrozenModel::Gnn(freeze_gnn(&model, &setup.calibration).map_err(|e| e.to_string())?);
    let wall_s = started.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.end_root();
    }

    let loads = source.loads.into_inner().expect("training has ended");
    let starts: Vec<Instant> = loads.iter().map(|(at, _)| *at).collect();
    let step_us: Vec<f64> = starts
        .iter()
        .zip(starts.iter().skip(1).chain(std::iter::once(&train_ended)))
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e6)
        .collect();
    Ok(Round {
        wall_s,
        generate_s,
        train_s,
        records,
        file_bytes,
        samples: loads.iter().map(|(_, n)| n).sum(),
        step_us,
        losses: report.train_loss,
        frozen,
    })
}

pub fn run(setup: &Setup, sizes: &Sizes, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::new(setup.accuracy);
    let path = crate::out_dir().join(format!("train-{}.tpu-ds", std::process::id()));
    let mut schedule = Rounds::new(sizes, tracer.is_some(), seconds);
    let mut baseline_wall = Vec::new();
    let mut measured: Vec<Round> = Vec::new();
    let mut first_losses: Option<Vec<f64>> = None;
    while let Some(is_baseline) = schedule.next_is_baseline() {
        let round = run_round(
            setup,
            sizes,
            &path,
            if is_baseline { None } else { tracer },
            schedule.handed_out() as u64 - 1,
        );
        let verdict = round.as_ref().map_err(String::clone).and_then(|r| {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let reference = first_losses.get_or_insert_with(|| r.losses.clone());
            if bits(reference) == bits(&r.losses) {
                Ok(())
            } else {
                Err(format!(
                    "training losses differ between rounds: {:?} vs {:?}",
                    reference, r.losses
                ))
            }
        });
        out.check.op(verdict);
        let Ok(round) = round else { continue };
        if is_baseline {
            baseline_wall.push(round.wall_s);
            continue;
        }
        out.push_round(
            round.wall_s,
            round.samples as f64 / round.train_s,
            &round.step_us,
        );
        measured.push(round);
    }
    let _ = std::fs::remove_file(&path);

    if let Some(last) = measured.last() {
        out.note(format!(
            "latency: one training step (load + forward + backward + Adam), observed at BatchSource::load; {} rounds of {} steps; {} steps beyond a round's p99",
            measured.len(),
            last.step_us.len(),
            last.step_us.len() - (0.99 * last.step_us.len() as f64).ceil() as usize,
        ));
        // The model this workload trained, scored on the held-out pool.
        let predicted: Vec<f64> = setup
            .pool
            .iter()
            .map(|k| {
                last.frozen
                    .predict_kernel_ns(k)
                    .expect("frozen GNN scores any kernel")
            })
            .collect();
        out.accuracy = accuracy_vs_oracle(&predicted, &setup.oracle_ns);

        // Training is bit-identical across rounds (checked above), so step i
        // does the same work in every round, and the host's slow phases are
        // shorter than a round as often as not: each step, like generation
        // and the freeze, is reported as its own fastest over rounds, and the
        // round as their sum.
        let low_of =
            |f: &dyn Fn(&Round) -> f64| stats::low(&measured.iter().map(f).collect::<Vec<f64>>());
        let steps = measured.iter().map(|r| r.step_us.len()).min().unwrap_or(0);
        let step_low_us: Vec<f64> = (0..steps).map(|i| low_of(&|r| r.step_us[i])).collect();
        // `train_stream` before its first load: planning the epoch.
        let train_low_s = step_low_us.iter().sum::<f64>() / 1e6
            + low_of(&|r| r.train_s - r.step_us.iter().sum::<f64>() / 1e6);
        out.composed = Some(Composed {
            wall_s: low_of(&|r| r.generate_s)
                + train_low_s
                + low_of(&|r| r.wall_s - r.generate_s - r.train_s),
            ops_per_s: last.samples as f64 / train_low_s,
            latency_p50_us: stats::percentile(&step_low_us, 50.0),
        });
        out.note(format!(
            "timings: generation, each of the {steps} steps and the freeze at their fastest over {} rounds; wall_s is their sum, ops_per_s the samples over the summed steps, latency the median step",
            measured.len()
        ));

        let median_of = |f: &dyn Fn(&Round) -> f64| {
            stats::median(&measured.iter().map(f).collect::<Vec<f64>>())
        };
        let layer = &mut out.layer;
        layer.insert(
            "dataset.generate_records_per_s",
            stats::high(
                &measured
                    .iter()
                    .map(|r| r.records as f64 / r.generate_s)
                    .collect::<Vec<f64>>(),
            ),
        );
        layer.insert("dataset.records", last.records as f64);
        layer.insert(
            "dataset.bytes_per_record",
            last.file_bytes as f64 / last.records.max(1) as f64,
        );
        out.note(format!(
            "per round: generate {:.3} s, train_stream {:.3} s, {} records, {} samples",
            median_of(&|r| r.generate_s),
            median_of(&|r| r.train_s),
            last.records,
            last.samples
        ));
    }
    out.baseline_wall_s = baseline_wall;
    out
}
