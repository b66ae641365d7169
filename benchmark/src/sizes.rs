//! Every size of the benchmark in one place. Changing a number here changes
//! what the benchmark measures: treat it as a benchmark edit.

#[derive(Debug, Clone)]
pub struct Sizes {
    /// Rounds of the timed phase a run measures at least; it goes on until
    /// `--seconds` have passed. Every reported time is the fastest over rounds
    /// (`stats::low`).
    pub min_rounds: usize,
    /// Traced rounds a traced run measures at least; it alternates them with
    /// as many untraced ones, to know its overhead.
    pub traced_rounds: usize,
    /// Set-ups an untraced run performs; `setup_s` is the sum of their parts,
    /// each at its fastest.
    pub setup_repeats: usize,

    // The model: GnnModel { hidden }, batches of `batch_size` kernels.
    pub hidden: usize,
    pub batch_size: usize,
    // Set-up: build_fusion_dataset(configs_per_program), then
    // `setup_epochs` x `setup_batches` training steps.
    pub setup_configs_per_program: usize,
    pub setup_epochs: usize,
    pub setup_batches: usize,

    // serve_warm / serve_cold.
    pub warm_kernels: usize,
    pub cold_cache_slots: usize,
    /// Requests per round, both serve workloads (cold: rounded down to whole
    /// cycles of the pool).
    pub serve_requests: usize,
    /// Requests per separately reported chunk of a round (≈ 10 ms).
    pub serve_chunk: usize,

    // search_tune: Budgets { model_steps, ..default }.
    pub model_steps: usize,
    /// Share of per-kernel predictions the cache must serve.
    pub search_hit_rate_floor: f64,

    // train_stream: stream_corpus(configs_per_program, runs 3), then
    // `train_epochs` x `train_batches` steps with 4 shards.
    pub train_configs_per_program: usize,
    pub train_epochs: usize,
    pub train_batches: usize,
    pub train_val_records: usize,

    /// `tau_vs_oracle` below this fails the run.
    pub tau_floor: f64,

    // Micro-timings of the traced run.
    pub micro_calls: usize,
    pub micro_train_steps: usize,
    pub micro_program_calls: usize,
    pub micro_serve_requests: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            min_rounds: 5,
            traced_rounds: 2,
            setup_repeats: 3,
            hidden: 64,
            batch_size: 24,
            setup_configs_per_program: 8,
            setup_epochs: 4,
            setup_batches: 200,
            warm_kernels: 256,
            cold_cache_slots: 64,
            serve_requests: 5120,
            serve_chunk: 128,
            model_steps: 400,
            search_hit_rate_floor: 0.99,
            train_configs_per_program: 8,
            train_epochs: 4,
            train_batches: 200,
            train_val_records: 256,
            tau_floor: 0.70,
            micro_calls: 2000,
            micro_train_steps: 200,
            micro_program_calls: 500,
            micro_serve_requests: 2048,
        }
    }

    /// 1/50 of the full sizes, one round: checks that every metric is
    /// produced, not what it reads. The floors are off, since a model trained
    /// for a handful of steps meets none.
    pub fn smoke() -> Sizes {
        Sizes {
            min_rounds: 1,
            traced_rounds: 1,
            setup_repeats: 1,
            setup_configs_per_program: 1,
            setup_epochs: 1,
            setup_batches: 16,
            // One cycle of the smoke pool (372 kernels) must flush the cache:
            // a slot survives n inserts with probability (1 - 1/slots)^n.
            cold_cache_slots: 8,
            serve_requests: 102,
            model_steps: 8,
            search_hit_rate_floor: 0.0,
            train_configs_per_program: 1,
            train_epochs: 1,
            train_batches: 6,
            train_val_records: 24,
            tau_floor: -1.0,
            micro_calls: 40,
            micro_train_steps: 4,
            micro_program_calls: 10,
            micro_serve_requests: 40,
            ..Sizes::full()
        }
    }
}

/// Hands out the rounds of one run: at least `min_rounds` measured rounds
/// (`traced_rounds` in a traced run), then more until `seconds` have passed.
/// A traced run alternates untraced and traced rounds, starting untraced, so
/// that both sample the same phases of the host and their difference is the
/// tracing overhead; the untraced ones are its baseline and are not reported.
pub struct Rounds {
    traced: bool,
    min_measured: usize,
    seconds: f64,
    started: std::time::Instant,
    handed_out: usize,
    measured: usize,
}

impl Rounds {
    pub fn new(sizes: &Sizes, traced: bool, seconds: f64) -> Rounds {
        Rounds {
            traced,
            min_measured: if traced {
                sizes.traced_rounds
            } else {
                sizes.min_rounds
            },
            seconds,
            started: std::time::Instant::now(),
            handed_out: 0,
            measured: 0,
        }
    }

    /// `Some(is_baseline)` for the next round to run, `None` when done.
    pub fn next_is_baseline(&mut self) -> Option<bool> {
        let pair_open = self.traced && !self.handed_out.is_multiple_of(2);
        if !pair_open
            && self.measured >= self.min_measured
            && self.started.elapsed().as_secs_f64() >= self.seconds
        {
            return None;
        }
        let is_baseline = self.traced && self.handed_out.is_multiple_of(2);
        self.handed_out += 1;
        if !is_baseline {
            self.measured += 1;
        }
        Some(is_baseline)
    }

    /// Rounds handed out so far, baseline ones included.
    pub fn handed_out(&self) -> usize {
        self.handed_out
    }
}
