//! `tpu-bench <experiment> [--quick] [flags]`: run one of
//! [`tpu_bench::EXPERIMENTS`].

use tpu_bench::{Args, USAGE};

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("tpu-bench: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    (args.experiment.run)(&args);
}
