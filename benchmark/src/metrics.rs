//! The catalogue of metric names and units. `BENCHMARK.json` declares the
//! same names (plus direction and bound); `tpu-perf smoke` checks that the
//! two agree both ways.

#[derive(Debug, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by an untraced run, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("ops_per_s", "1/s"),
    m("latency_p50_us", "us"),
    m("peak_rss_mib", "MiB"),
    m("tau_vs_oracle", "tau"),
    m("mape_vs_oracle", "%"),
];

/// Printed by a traced run, on every workload; layer = crate name. Counts
/// are per round. A layer the workload never enters reports 0 for its
/// phase-level numbers.
pub const PER_LAYER: &[Metric] = &[
    m("serve.parse_request_us", "us"),
    m("serve.to_kernel_us", "us"),
    m("serve.render_reply_us", "us"),
    m("serve.submit_rtt_warm_us", "us"),
    m("serve.submit_rtt_cold_us", "us"),
    m("serve.handoff_us", "us"),
    m("serve.line_io_us", "us"),
    m("serve.explained_share", "share"),
    m("serve.batches", "count"),
    m("serve.mean_batch_size", "count"),
    m("serve.latency_p99_us", "us"),
    m("serve.latency_p999_us", "us"),
    m("serve.request_bytes_mean", "B"),
    m("serve.tcp_rtt_p50_us", "us"),
    m("serve.req_per_s_c2", "1/s"),
    m("serve.mean_batch_size_c2", "count"),
    m("hlo.parse_computation_us", "us"),
    m("hlo.canonical_hash_us", "us"),
    m("hlo.nodes_per_kernel_mean", "count"),
    m("core.cache_key_us", "us"),
    m("core.cache_lookup_ns", "ns"),
    m("core.cache_insert_ns", "ns"),
    m("core.cache_hit_rate", "share"),
    m("core.cache_evictions", "count"),
    m("core.featurize_us", "us"),
    m("core.predictor_hit_ns_per_kernel", "ns"),
    m("core.predictor_miss_us_per_kernel", "us"),
    m("core.model_evals", "count"),
    m("core.model_batches", "count"),
    m("core.mean_miss_batch_size", "count"),
    m("core.gnn_forward_us_per_kernel", "us"),
    m("core.train_step_ms", "ms"),
    m("core.forward_only_ms", "ms"),
    m("core.batch_pack_us", "us"),
    m("infer.frozen_forward_us", "us"),
    m("infer.frozen_predict_us", "us"),
    m("infer.predict_batch_busy_s", "s"),
    m("infer.freeze_ms", "ms"),
    m("infer.blob_bytes", "B"),
    m("infer.from_bytes_us", "us"),
    m("infer.tau_frozen_vs_f32", "tau"),
    m("nn.matmul_gflops", "GFLOP/s"),
    m("sim.kernel_time_us", "us"),
    m("sim.measure_kernel_us", "us"),
    m("sim.true_program_time_us", "us"),
    m("sim.hw_eval_device_s", "s"),
    m("analytical.predict_us", "us"),
    m("fusion.apply_fusion_us", "us"),
    m("fusion.decisions_mean", "count"),
    m("tile.valid_tile_sizes_us", "us"),
    m("dataset.corpus_build_ms", "ms"),
    m("dataset.generate_records_per_s", "1/s"),
    m("dataset.records", "count"),
    m("dataset.bytes_per_record", "B"),
    m("dataset.reader_get_us", "us"),
    m("dataset.load_wait_s", "s"),
    m("autotuner.beam_wall_s", "s"),
    m("autotuner.sa_wall_s", "s"),
    m("autotuner.tuned_speedup", "x"),
    m("autotuner.beam_search_s", "s"),
    m("autotuner.sa_search_s", "s"),
    m("autotuner.rerank_s", "s"),
    m("autotuner.structure_hash_us", "us"),
    m("autotuner.evaluate_batch_us", "us"),
    m("autotuner.beam_model_evals", "count"),
    m("autotuner.sa_model_evals", "count"),
    m("autotuner.beam_cache_hits", "count"),
    m("autotuner.sa_cache_hits", "count"),
    m("autotuner.hw_evals", "count"),
    m("autotuner.beam_speedup", "x"),
    m("autotuner.sa_speedup", "x"),
    m("autotuner.hw_over_model_cost_ratio", "x"),
    m("obs.enabled_overhead_share", "share"),
    m("trace.overhead_share", "share"),
    m("trace.spans", "count"),
];

pub const WORKLOADS: &[&str] = &["serve_warm", "serve_cold", "search_tune", "train_stream"];
