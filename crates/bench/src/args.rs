//! `tpu-bench`'s command line: the table of experiments and the one strict
//! parser in front of them.

use crate::{
    ablations, feature_importance, fig4, program_total, retarget, table1, table2, table3, tune,
    Scale,
};
use std::path::PathBuf;
use tpu_autotuner::StartMode;
use tpu_obs::{Registry, RunReport};

/// What [`Args::parse`] rejects is printed with this.
pub const USAGE: &str = "\
usage: tpu-bench <experiment> [--quick] [flags]
  table1 | table3 | ablations | retarget | program_total | feature_importance
  table2 [--checkpoint PATH] [--report PATH]
  fig4   [default|random] [--report PATH]
  tune   [--search sa|beam] [--checkpoint PATH] [--report PATH]";

/// Which model-guided searcher drives the autotuning demo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchAlgo {
    /// Multi-chain simulated annealing (the default).
    Sa,
    /// Transposition-table-backed beam search.
    Beam,
}

/// One experiment of the driver.
#[derive(Debug)]
pub struct Experiment {
    /// Its name on the command line and in its run report.
    pub name: &'static str,
    /// The arguments it reads beside `--quick`, which every experiment
    /// takes. Anything else on its command line is a usage error.
    pub flags: &'static [&'static str],
    /// `(train_cap, val_cap)`: the most prepared examples it trains and
    /// validates on, at [`Scale::Quick`] and at [`Scale::Full`].
    pub caps: [(usize, usize); 2],
    /// Its entry point.
    pub run: fn(&Args),
}

/// Every experiment `tpu-bench` runs.
pub const EXPERIMENTS: [Experiment; 9] = [
    // Table 1 trains nothing.
    Experiment {
        name: "table1",
        flags: &[],
        caps: [(0, 0), (0, 0)],
        run: table1::run,
    },
    Experiment {
        name: "table2",
        flags: &["--checkpoint", "--report"],
        caps: [(800, 300), (14_000, 2_500)],
        run: table2::run,
    },
    Experiment {
        name: "table3",
        flags: &[],
        caps: [(700, 250), (12_000, 2_000)],
        run: table3::run,
    },
    Experiment {
        name: "fig4",
        flags: &["default", "random", "--report"],
        caps: [(800, 250), (12_000, 2_000)],
        run: fig4::run,
    },
    Experiment {
        name: "ablations",
        flags: &[],
        caps: [(600, 250), (8_000, 1_500)],
        run: ablations::run,
    },
    Experiment {
        name: "tune",
        flags: &["--search", "--checkpoint", "--report"],
        caps: [(800, 300), (14_000, 2_500)],
        run: tune::run,
    },
    Experiment {
        name: "retarget",
        flags: &[],
        caps: [(700, 250), (10_000, 1_500)],
        run: retarget::run,
    },
    Experiment {
        name: "program_total",
        flags: &[],
        caps: [(700, 250), (12_000, 2_000)],
        run: program_total::run,
    },
    Experiment {
        name: "feature_importance",
        flags: &[],
        // Its permuted evaluation set has a cap of its own.
        caps: [(700, 1_000), (12_000, 1_000)],
        run: feature_importance::run,
    },
];

/// A parsed `tpu-bench` command line.
#[derive(Debug)]
pub struct Args {
    /// The experiment to run.
    pub experiment: &'static Experiment,
    /// [`Scale::Quick`] with `--quick`, else [`Scale::Full`].
    pub scale: Scale,
    /// `fig4 default|random`: where the autotuner starts (default: default).
    pub start: StartMode,
    /// `--report <path>`: write a [`RunReport`] there on exit.
    pub report: Option<PathBuf>,
    /// What the run records into: enabled iff `--report` will write it out
    /// (results are bit-identical either way).
    pub registry: Registry,
    /// `--checkpoint <path>`: a stem for per-model checkpoint files, for
    /// `sweeps/ckpt.json` and a model tagged `v0` `sweeps/ckpt.v0.json`. A
    /// run resumes any checkpoints it finds and rewrites them after every
    /// epoch, so an interrupted run loses at most its current epoch.
    pub checkpoint: Option<PathBuf>,
    /// `--search sa|beam` (default: sa).
    pub search: SearchAlgo,
}

impl Args {
    /// Parse the arguments after the program name. An unknown experiment,
    /// an argument the experiment does not read, a flag without its value
    /// and a malformed value are errors, to be printed with [`USAGE`].
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut argv = argv.into_iter();
        let name = argv.next().ok_or("no experiment named")?;
        let experiment = EXPERIMENTS
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("unknown experiment {name:?}"))?;
        let mut args = Args {
            experiment,
            scale: Scale::Full,
            start: StartMode::Default,
            report: None,
            registry: Registry::noop(),
            checkpoint: None,
            search: SearchAlgo::Sa,
        };
        while let Some(arg) = argv.next() {
            if arg != "--quick" && !experiment.flags.contains(&arg.as_str()) {
                return Err(format!("{name} does not take {arg:?}"));
            }
            let mut value = || argv.next().ok_or_else(|| format!("{arg} requires a value"));
            match arg.as_str() {
                "--quick" => args.scale = Scale::Quick,
                "default" => args.start = StartMode::Default,
                "random" => args.start = StartMode::Random,
                "--report" => {
                    args.report = Some(value()?.into());
                    args.registry = Registry::enabled();
                }
                "--checkpoint" => args.checkpoint = Some(value()?.into()),
                "--search" => {
                    args.search = match value()?.as_str() {
                        "sa" => SearchAlgo::Sa,
                        "beam" => SearchAlgo::Beam,
                        other => return Err(format!("--search takes sa or beam, got {other:?}")),
                    }
                }
                other => unreachable!("{other} is in a flag table and has no parser"),
            }
        }
        Ok(args)
    }

    /// The experiment's `(train_cap, val_cap)` at this run's scale.
    pub(crate) fn caps(&self) -> (usize, usize) {
        let [quick, full] = self.experiment.caps;
        match self.scale {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// With `--report`: write what the run recorded, under the experiment's
    /// name and with the scale and `context`, and say where it went.
    pub(crate) fn write_report(&self, context: &[(&str, String)]) {
        let Some(path) = &self.report else { return };
        let mut report = RunReport::new(self.experiment.name, &self.registry)
            .with_context("scale", format!("{:?}", self.scale));
        for (key, value) in context {
            report = report.with_context(*key, value);
        }
        match report.write(path) {
            Ok(()) => println!("\nrun report written to {}", path.display()),
            Err(e) => eprintln!("\nfailed to write run report to {}: {e}", path.display()),
        }
    }

    /// The checkpoint file of the model trained under `tag`, if the run
    /// checkpoints. An experiment that trains several models gives each a
    /// distinct tag so the files never collide.
    pub(crate) fn checkpoint_for(&self, tag: &str) -> Option<PathBuf> {
        let stem = self.checkpoint.as_deref()?;
        let base = stem
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("checkpoint");
        Some(stem.with_file_name(format!("{base}.{tag}.json")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn every_flag_in_a_table_parses_and_is_in_the_usage_text() {
        for e in &EXPERIMENTS {
            assert!(
                USAGE.contains(e.name),
                "{} missing from the usage text",
                e.name
            );
            for flag in e.flags {
                assert!(USAGE.contains(flag), "{flag} missing from the usage text");
                let value = match *flag {
                    "--search" => "beam",
                    valued if valued.starts_with("--") => "7",
                    _positional => "",
                };
                let args = parse(&format!("{} --quick {flag} {value}", e.name));
                assert!(args.is_ok(), "{} {flag}: {args:?}", e.name);
            }
        }
    }

    #[test]
    fn parsed_values_land_in_their_fields() {
        let args = parse("tune --search beam --checkpoint d/ckpt.json --report r.json")
            .expect("a valid command line");
        assert_eq!(args.experiment.name, "tune");
        assert_eq!((args.scale, args.search), (Scale::Full, SearchAlgo::Beam));
        assert_eq!(args.caps(), (14_000, 2_500));
        assert_eq!(args.report, Some(PathBuf::from("r.json")));
        assert!(args.registry.is_enabled());
        assert_eq!(
            args.checkpoint_for("v0"),
            Some(PathBuf::from("d/ckpt.v0.json"))
        );
        let args = parse("fig4 random --quick").expect("a valid command line");
        assert_eq!((args.scale, args.start), (Scale::Quick, StartMode::Random));
        assert_eq!(args.caps(), (800, 250));
        assert_eq!(args.checkpoint_for("v0"), None);
    }
}
