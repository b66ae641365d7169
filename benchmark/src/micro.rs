//! Stage micro-timings: after the traced phase, the same inputs are replayed
//! through each layer's public functions, one function at a time. Every
//! number is a median over `sizes.micro_calls` calls unless its comment
//! states another count. Sub-microsecond calls are timed in chunks, since a
//! clock read costs as much as the call.

use crate::serve::{drive, start_engine};
use crate::setup::{gnn_config, train_config, Setup};
use crate::sizes::Sizes;
use crate::stats;
use crate::train::stream_gen_config;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;
use tpu_autotuner::{
    fused_structure_hash, random_configs, BatchObjective, HardwareObjective, ModelObjective,
};
use tpu_dataset::{stream_corpus, Corpus, CorpusScale, DatasetReader, DatasetWriter};
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::{canonical_kernel_hash, parse_computation, Kernel};
use tpu_infer::{freeze_gnn, FrozenModel};
use tpu_learned_cost::metrics::kendall_tau;
use tpu_learned_cost::{
    forward_log_ns, train_step, AtomicCache, CostModel, GnnModel, GraphBatch, Predictor, Prepared,
};
use tpu_nn::{Adam, Tensor};
use tpu_obs::Registry;
use tpu_serve::protocol::{parse_request, predict_reply, simple_request_line};
use tpu_serve::{serve_ndjson, serve_tcp, AnalyticalCost, Request};
use tpu_sim::{kernel_time_ns, TpuConfig, TpuDevice};

/// Median time per call in ns: `samples` samples of `chunk` calls each.
fn median_ns(samples: usize, chunk: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..samples.max(1))
        .map(|s| {
            let t0 = Instant::now();
            for c in 0..chunk {
                f(s * chunk + c);
            }
            t0.elapsed().as_nanos() as f64 / chunk as f64
        })
        .collect();
    stats::median(&per_call)
}

/// The micro-timings, and notes stating the counts that differ from
/// `sizes.micro_calls`.
pub struct Micro {
    pub layer: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

/// `kernels` indexes the pool: the workload's own kernels and lines.
pub fn run(setup: &Setup, sizes: &Sizes, kernels: &[u32], seed: u64) -> Micro {
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();
    let calls = sizes.micro_calls;
    let pool = &setup.pool;
    let pick = |i: usize| kernels[i % kernels.len()] as usize;
    let kernel = |i: usize| &pool[pick(i)];
    let cfg = TpuConfig::default();

    // --- serve: the client-thread stages of one request ---
    let texts: Vec<&str> = kernels
        .iter()
        .map(|&i| {
            std::str::from_utf8(&setup.lines[i as usize])
                .expect("lines are JSON")
                .trim_end()
        })
        .collect();
    let line = |i: usize| texts[i % texts.len()];
    let parse_us = median_ns(calls, 1, |i| {
        black_box(parse_request(black_box(line(i))).expect("generated lines parse"));
    }) / 1e3;
    let specs: Vec<_> = texts
        .iter()
        .map(|l| match parse_request(l) {
            Ok(Request::Predict { spec, .. }) => spec,
            _ => unreachable!("every generated line is a predict request"),
        })
        .collect();
    let to_kernel_us = median_ns(calls, 1, |i| {
        black_box(
            black_box(&specs[i % specs.len()])
                .to_kernel()
                .expect("generated HLO parses"),
        );
    }) / 1e3;
    let render_us = median_ns(calls, 16, |i| {
        black_box(predict_reply(
            i as u64,
            Some(setup.reference_ns[pick(i)]),
            false,
        ));
    }) / 1e3;
    layer.insert("serve.parse_request_us", parse_us);
    layer.insert("serve.to_kernel_us", to_kernel_us);
    layer.insert("serve.render_reply_us", render_us);

    // --- hlo ---
    layer.insert(
        "hlo.parse_computation_us",
        median_ns(calls, 1, |i| {
            black_box(parse_computation(black_box(&specs[i % specs.len()].text)).expect("parses"));
        }) / 1e3,
    );
    let hash_us = median_ns(calls, 16, |i| {
        black_box(canonical_kernel_hash(black_box(kernel(i))));
    }) / 1e3;
    layer.insert("hlo.canonical_hash_us", hash_us);
    layer.insert(
        "hlo.nodes_per_kernel_mean",
        stats::mean(
            &kernels
                .iter()
                .map(|&i| pool[i as usize].computation.num_nodes() as f64)
                .collect::<Vec<f64>>(),
        ),
    );

    // --- core: cache ---
    let key_us = median_ns(calls, 16, |i| {
        black_box(AtomicCache::key(black_box(kernel(i))));
    }) / 1e3;
    layer.insert("core.cache_key_us", key_us);
    let hashes: Vec<u64> = kernels
        .iter()
        .map(|&i| AtomicCache::key(&pool[i as usize]))
        .collect();
    let resident = AtomicCache::serving_default();
    for (&h, &i) in hashes.iter().zip(kernels) {
        resident.insert_hash(h, Some(setup.reference_ns[i as usize]));
    }
    let lookup_ns = median_ns(calls, 64, |i| {
        black_box(resident.lookup_hash(black_box(hashes[i % hashes.len()])));
    });
    layer.insert("core.cache_lookup_ns", lookup_ns);
    // Inserts at full capacity: every one evicts.
    let full = AtomicCache::with_capacity(sizes.cold_cache_slots);
    let fresh_key = |i: usize| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in 0..4 * sizes.cold_cache_slots {
        full.insert_hash(fresh_key(i), Some(1.0));
    }
    layer.insert(
        "core.cache_insert_ns",
        median_ns(calls, 64, |i| {
            full.insert_hash(black_box(fresh_key(i + 1_000_000)), Some(1.0));
        }),
    );

    // --- core / infer: featurize and the forwards ---
    layer.insert(
        "core.featurize_us",
        median_ns(calls, 1, |i| {
            black_box(Prepared::from_kernel(black_box(kernel(i))));
        }) / 1e3,
    );
    let prepared: Vec<Prepared> = kernels
        .iter()
        .map(|&i| {
            let mut p = Prepared::from_kernel(&pool[i as usize]);
            p.runtime_ns = setup.oracle_ns[i as usize];
            p
        })
        .collect();
    layer.insert(
        "infer.frozen_forward_us",
        median_ns(calls, 1, |i| {
            black_box(
                setup
                    .frozen
                    .predict_log_ns(black_box(&prepared[i % prepared.len()])),
            );
        }) / 1e3,
    );
    layer.insert(
        "infer.frozen_predict_us",
        median_ns(calls, 1, |i| {
            black_box(setup.frozen.predict_kernel_ns(black_box(kernel(i))));
        }) / 1e3,
    );
    layer.insert(
        "core.gnn_forward_us_per_kernel",
        median_ns(calls, 1, |i| {
            black_box(setup.gnn.predict_kernel_ns(black_box(kernel(i))));
        }) / 1e3,
    );

    // Predictor over batches of 256, all resident / never cached.
    let batch: Vec<&Kernel> = (0..256).map(kernel).collect();
    let warm = Predictor::with_cache(&setup.frozen, Arc::new(AtomicCache::serving_default()));
    warm.predict_ns_refs(&batch);
    layer.insert(
        "core.predictor_hit_ns_per_kernel",
        // 64 batches of 256 kernels.
        median_ns(64, 1, |_| {
            black_box(warm.predict_ns_refs(black_box(&batch)));
        }) / 256.0,
    );
    let uncached = Predictor::uncached(&setup.frozen);
    layer.insert(
        "core.predictor_miss_us_per_kernel",
        // 8 batches of 256 kernels.
        median_ns(8, 1, |_| {
            black_box(uncached.predict_ns_refs(black_box(&batch)));
        }) / 256.0
            / 1e3,
    );

    // --- core: one training step on fixed 24-kernel batches ---
    let batches: Vec<Vec<usize>> = (0..prepared.len())
        .collect::<Vec<usize>>()
        .chunks_exact(sizes.batch_size)
        .map(<[usize]>::to_vec)
        .collect();
    let refs_of = |b: &[usize]| b.iter().map(|&i| &prepared[i]).collect::<Vec<&Prepared>>();
    layer.insert(
        "core.batch_pack_us",
        median_ns(calls, 1, |i| {
            black_box(GraphBatch::pack(black_box(&refs_of(
                &batches[i % batches.len()],
            ))));
        }) / 1e3,
    );
    let steps = sizes.micro_train_steps;
    layer.insert(
        "core.forward_only_ms",
        median_ns(steps, 1, |i| {
            black_box(forward_log_ns(
                &setup.gnn,
                &refs_of(&batches[i % batches.len()]),
            ));
        }) / 1e6,
    );
    {
        let mut model = GnnModel::new(gnn_config(sizes));
        let tcfg = train_config(sizes, 1, steps);
        let mut opt = Adam::new(tcfg.lr);
        let mut tapes = Vec::new();
        layer.insert(
            "core.train_step_ms",
            median_ns(steps, 1, |i| {
                black_box(train_step(
                    &mut model,
                    &prepared,
                    &batches[i % batches.len()],
                    &tcfg,
                    &mut opt,
                    &mut tapes,
                ));
            }) / 1e6,
        );
        notes.push(format!(
            "core.train_step_ms / core.forward_only_ms: medians over {steps} steps of {} kernels",
            sizes.batch_size
        ));
    }

    // --- infer: freeze, blob, quantisation fidelity ---
    layer.insert(
        "infer.freeze_ms",
        // 5 freezes.
        median_ns(5, 1, |_| {
            black_box(freeze_gnn(&setup.gnn, &setup.calibration).expect("freezes"));
        }) / 1e6,
    );
    let blob = setup.frozen.to_bytes();
    layer.insert("infer.blob_bytes", blob.len() as f64);
    layer.insert(
        "infer.from_bytes_us",
        // 200 parses.
        median_ns(200, 1, |_| {
            black_box(FrozenModel::from_bytes(black_box(&blob)).expect("own blob parses"));
        }) / 1e3,
    );
    let f32_ns: Vec<f64> = pool
        .iter()
        .map(|k| {
            setup
                .gnn
                .predict_kernel_ns(k)
                .expect("GNN scores any kernel")
        })
        .collect();
    layer.insert(
        "infer.tau_frozen_vs_f32",
        kendall_tau(&setup.reference_ns, &f32_ns),
    );

    // --- nn ---
    {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::uniform(256, 256, 1.0, &mut rng);
        let b = Tensor::uniform(256, 256, 1.0, &mut rng);
        // 30 products of 256^3.
        let ns = median_ns(30, 1, |_| {
            black_box(black_box(&a).matmul(black_box(&b)));
        });
        layer.insert("nn.matmul_gflops", 2.0 * 256f64.powi(3) / ns);
    }

    // --- sim / analytical / tile ---
    let device = TpuDevice::new(seed);
    layer.insert(
        "sim.kernel_time_us",
        median_ns(calls, 1, |i| {
            black_box(kernel_time_ns(black_box(kernel(i)), &cfg));
        }) / 1e3,
    );
    layer.insert(
        "sim.measure_kernel_us",
        median_ns(calls, 1, |i| {
            black_box(device.measure_kernel(black_box(kernel(i)), 3));
        }) / 1e3,
    );
    let analytical = AnalyticalCost::new(cfg.clone());
    layer.insert(
        "analytical.predict_us",
        median_ns(calls, 1, |i| {
            black_box(analytical.predict_kernel_ns(black_box(kernel(i))));
        }) / 1e3,
    );
    layer.insert(
        "tile.valid_tile_sizes_us",
        median_ns(calls, 1, |i| {
            black_box(tpu_tile::valid_tile_sizes(black_box(kernel(i)), &cfg, 64));
        }) / 1e3,
    );

    // --- fusion / autotuner: the search loop's inner calls, on the five
    // search programs under random configurations ---
    {
        let programs = crate::search::programs(setup);
        let spaces: Vec<_> = programs
            .iter()
            .map(|p| default_space_and_config(&p.computation))
            .collect();
        layer.insert(
            "fusion.decisions_mean",
            stats::mean(
                &spaces
                    .iter()
                    .map(|(s, _)| s.num_edges() as f64)
                    .collect::<Vec<f64>>(),
            ),
        );
        let configs: Vec<Vec<_>> = spaces
            .iter()
            .map(|(space, _)| random_configs(space, 64, seed))
            .collect();
        let at = |i: usize| {
            let p = i % programs.len();
            (
                programs[p],
                &spaces[p].0,
                &configs[p][(i / programs.len()) % configs[p].len()],
            )
        };
        let n = sizes.micro_program_calls;
        layer.insert(
            "fusion.apply_fusion_us",
            median_ns(n, 1, |i| {
                let (program, space, config) = at(i);
                black_box(apply_fusion(program, space, black_box(config)));
            }) / 1e3,
        );
        layer.insert(
            "autotuner.structure_hash_us",
            median_ns(n, 1, |i| {
                let (program, space, config) = at(i);
                black_box(fused_structure_hash(program, space, black_box(config)));
            }) / 1e3,
        );
        let fused: Vec<_> = programs
            .iter()
            .zip(&spaces)
            .map(|(p, (space, default))| apply_fusion(p, space, default))
            .collect();
        layer.insert(
            "sim.true_program_time_us",
            median_ns(n, 1, |i| {
                black_box(device.true_program_time(black_box(&fused[i % fused.len()])));
            }) / 1e3,
        );
        // `BatchObjective::evaluate` per configuration, in the batches of
        // four the annealer's chains make, on a cache that has seen them.
        let mut per_config = Vec::new();
        for (pi, program) in programs.iter().enumerate() {
            let predictor =
                Predictor::with_cache(&setup.frozen, Arc::new(AtomicCache::serving_default()));
            let mut objective = ModelObjective::new(program, &spaces[pi].0, &predictor);
            objective.evaluate(&configs[pi]);
            for quad in configs[pi].chunks_exact(4) {
                let t0 = Instant::now();
                black_box(objective.evaluate(black_box(quad)));
                per_config.push(t0.elapsed().as_nanos() as f64 / 4.0);
            }
        }
        layer.insert(
            "autotuner.evaluate_batch_us",
            stats::median(&per_config) / 1e3,
        );
        // Simulated device seconds one re-rank evaluation is charged (exact).
        let charged: Vec<f64> = programs
            .iter()
            .zip(&spaces)
            .map(|(program, (space, default))| {
                let device = TpuDevice::new(seed);
                let mut hw = HardwareObjective::new(program, space, &device, f64::INFINITY);
                hw.measure(default)
                    .expect("an unbounded budget admits the measurement");
                device.device_time_used() / 1e9
            })
            .collect();
        layer.insert("sim.hw_eval_device_s", stats::mean(&charged));
        notes.push(format!(
            "fusion.apply_fusion_us, autotuner.structure_hash_us, sim.true_program_time_us: medians over {n} calls; autotuner.evaluate_batch_us over {} configurations",
            per_config.len() * 4
        ));
    }

    // --- dataset ---
    layer.insert(
        "dataset.corpus_build_ms",
        // 5 builds.
        median_ns(5, 1, |_| {
            black_box(Corpus::build(CorpusScale::Full));
        }) / 1e6,
    );
    {
        let path = crate::out_dir().join(format!("micro-{}.tpu-ds", std::process::id()));
        let mut writer = DatasetWriter::create(&path).expect("create the micro dataset");
        stream_corpus(
            &Corpus::build(CorpusScale::Tiny),
            &stream_gen_config(sizes),
            &mut writer,
        )
        .expect("stream the tiny corpus");
        writer.finish().expect("finish the micro dataset");
        let reader = DatasetReader::open(&path).expect("open the micro dataset");
        layer.insert(
            "dataset.reader_get_us",
            median_ns(calls, 1, |i| {
                black_box(reader.get(i % reader.len()).expect("own record reads back"));
            }) / 1e3,
        );
        drop(reader);
        let _ = std::fs::remove_file(&path);
    }

    // --- serve: the hand-off to the worker and back (client and worker on
    // one CPU, like the whole run) ---
    let everything: Vec<u32> = kernels.to_vec();
    let rtt = |cache: AtomicCache, prefill: bool, over: &[u32]| {
        let engine = start_engine(setup, cache, None, &Registry::noop());
        if prefill {
            drive(&engine, &setup.lines, &everything, None);
        }
        let mut samples = Vec::with_capacity(calls);
        for i in 0..calls {
            let k = pool[over[i % over.len()] as usize].clone();
            let t0 = Instant::now();
            black_box(engine.submit_with_deadline(k, None).expect("accepted"));
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        engine.shutdown();
        stats::median(&samples) / 1e3
    };
    let submit_rtt_warm_us = rtt(AtomicCache::serving_default(), true, kernels);
    // Non-resident: the whole pool cycled through the small cache.
    let submit_rtt_cold_us = rtt(
        AtomicCache::with_capacity(sizes.cold_cache_slots),
        false,
        &(0..pool.len() as u32).collect::<Vec<u32>>(),
    );
    layer.insert("serve.submit_rtt_warm_us", submit_rtt_warm_us);
    layer.insert("serve.submit_rtt_cold_us", submit_rtt_cold_us);
    layer.insert(
        "serve.handoff_us",
        submit_rtt_warm_us - key_us - lookup_ns / 1e3,
    );

    // One loopback connection to an in-process `serve_tcp`, warm.
    {
        let engine = Arc::new(start_engine(
            setup,
            AtomicCache::serving_default(),
            None,
            &Registry::noop(),
        ));
        drive(&engine, &setup.lines, &everything, None);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let server = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || serve_tcp(&engine, listener))
        };
        let stream = TcpStream::connect(addr).expect("connect to the in-process daemon");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        let mut writer = stream;
        let mut reply = String::new();
        let mut samples = Vec::with_capacity(calls);
        for i in 0..calls {
            let line = &setup.lines[pick(i)];
            let t0 = Instant::now();
            writer.write_all(line).expect("send the request");
            reply.clear();
            reader.read_line(&mut reply).expect("read the reply");
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        writer
            .write_all(format!("{}\n", simple_request_line("shutdown", 0)).as_bytes())
            .expect("send shutdown");
        reply.clear();
        reader
            .read_line(&mut reply)
            .expect("read the shutdown reply");
        drop((reader, writer));
        server
            .join()
            .expect("the TCP frontend thread panicked")
            .expect("serve_tcp failed");
        layer.insert(
            "serve.tcp_rtt_p50_us",
            stats::percentile(&samples, 50.0) / 1e3,
        );
    }

    // Two clients, each in its own `serve_ndjson`: the only place batches
    // form. Three threads on two cores, so a diagnostic only.
    {
        let engine = start_engine(
            setup,
            AtomicCache::serving_default(),
            None,
            &Registry::noop(),
        );
        drive(&engine, &setup.lines, &everything, None);
        let before = engine.stats();
        let per_client = sizes.micro_serve_requests;
        let order: Vec<u32> = (0..per_client)
            .map(|i| kernels[i % kernels.len()])
            .collect();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let input: Vec<u8> = order
                        .iter()
                        .flat_map(|&i| setup.lines[i as usize].iter().copied())
                        .collect();
                    serve_ndjson(&engine, input.as_slice(), std::io::sink())
                        .expect("in-memory streams cannot fail");
                });
            }
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let after = engine.stats();
        engine.shutdown();
        layer.insert("serve.req_per_s_c2", 2.0 * per_client as f64 / elapsed);
        layer.insert(
            "serve.mean_batch_size_c2",
            (after.predict.kernels - before.predict.kernels) as f64
                / (after.batches - before.batches).max(1) as f64,
        );
    }

    // `Registry::enabled()` against the no-op registry, alternating short
    // warm rounds so drift hits both alike.
    {
        let order: Vec<u32> = (0..sizes.micro_serve_requests)
            .map(|i| kernels[i % kernels.len()])
            .collect();
        let engines = [Registry::noop(), Registry::enabled()]
            .map(|r| start_engine(setup, AtomicCache::serving_default(), None, &r));
        let mut wall = [Vec::new(), Vec::new()];
        for engine in &engines {
            drive(engine, &setup.lines, &everything, None);
        }
        let rounds = sizes.min_rounds.max(2);
        for _ in 0..rounds {
            for (engine, wall) in engines.iter().zip(wall.iter_mut()) {
                wall.push(drive(engine, &setup.lines, &order, None).wall_s);
            }
        }
        for engine in &engines {
            engine.shutdown();
        }
        let noop = stats::median(&wall[0]);
        layer.insert(
            "obs.enabled_overhead_share",
            (stats::median(&wall[1]) - noop) / noop,
        );
        notes.push(format!(
            "obs.enabled_overhead_share: {} rounds of {} warm requests each; no-op rounds spread (q3-q1)/median = {:.4}",
            rounds,
            order.len(),
            stats::spread(&wall[0])
        ));
    }

    Micro { layer, notes }
}
