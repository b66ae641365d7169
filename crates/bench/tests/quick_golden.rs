//! Golden snapshots of every experiment's `--quick` stdout.
//!
//! The experiments print the paper's tables; nothing else pins what they
//! print across a refactor of the harness around them (argument
//! handling, corpus → dataset → split → capped train/val plumbing,
//! per-program evaluation loops, table rendering). These snapshots do: one
//! text file per run under `tests/golden/`, compared with the run's stdout
//! after its wall-clock timings — `[<Duration>]` and `done in <Duration>`
//! — are replaced by a fixed token. Everything else a run prints is
//! deterministic across runs.
//!
//! The files were recorded from the ten per-experiment binaries *before*
//! they were folded into one driver and must keep passing unchanged. If a
//! change to what an experiment prints is *intentional*, regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p tpu-bench --test quick_golden
//! ```
//!
//! and commit the updated text files together with the change.

use std::path::PathBuf;
use std::process::Command;

/// Golden file stem and the `tpu-bench` arguments that produce it.
const RUNS: [(&str, &[&str]); 11] = [
    ("table1", &["table1", "--quick"]),
    ("table2", &["table2", "--quick"]),
    ("table3", &["table3", "--quick"]),
    ("ablations", &["ablations", "--quick"]),
    ("retarget", &["retarget", "--quick"]),
    ("program_total", &["program_total", "--quick"]),
    ("feature_importance", &["feature_importance", "--quick"]),
    ("fig4_default", &["fig4", "default", "--quick"]),
    ("fig4_random", &["fig4", "random", "--quick"]),
    ("tune", &["tune", "--quick"]),
    ("tune_beam", &["tune", "--quick", "--search", "beam"]),
];

/// True for the `Debug` rendering of a `std::time::Duration`.
fn is_duration(s: &str) -> bool {
    ["ns", "µs", "ms", "s"].iter().any(|unit| {
        s.strip_suffix(unit).is_some_and(|n| {
            n.starts_with(|c: char| c.is_ascii_digit())
                && n.chars().all(|c| c.is_ascii_digit() || c == '.')
        })
    })
}

/// `line` with its wall-clock timing, if it ends in one, replaced by `_`.
fn scrub_line(line: &str) -> String {
    if let Some(at) = line.rfind("done in ") {
        let at = at + "done in ".len();
        if is_duration(&line[at..]) {
            return format!("{}_", &line[..at]);
        }
    }
    if let (Some(open), Some(inner)) = (line.rfind('['), line.strip_suffix(']')) {
        if is_duration(&inner[open + 1..]) {
            return format!("{}_]", &line[..=open]);
        }
    }
    line.to_string()
}

fn scrub(stdout: &str) -> String {
    stdout.lines().map(|l| scrub_line(l) + "\n").collect()
}

#[test]
fn scrubbing_replaces_timings_and_nothing_else() {
    assert_eq!(
        scrub_line("gnn h48 k2 sum: done in 129.961645ms"),
        "gnn h48 k2 sum: done in _"
    );
    assert_eq!(
        scrub_line("[manual] lstm selected [1.099832657s]"),
        "[manual] lstm selected [_]"
    );
    assert_eq!(
        scrub_line("tile dataset: 5 examples  [9.4µs]"),
        "tile dataset: 5 examples  [_]"
    );
    for untouched in [
        "[random] examples: train=163",
        "Median  47.3  0.62",
        "done in a while",
    ] {
        assert_eq!(scrub_line(untouched), untouched);
    }
}

#[test]
fn quick_runs_match_their_goldens() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut mismatched = Vec::new();
    for (stem, args) in RUNS {
        let out = Command::new(env!("CARGO_BIN_EXE_tpu-bench"))
            .args(args)
            .output()
            .expect("tpu-bench runs");
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = scrub(&String::from_utf8(out.stdout).expect("utf-8 stdout"));
        let path = dir.join(format!("{stem}.txt"));
        if std::env::var_os("REGEN_GOLDEN").is_some() {
            std::fs::write(&path, &got).expect("write golden");
        } else if std::fs::read_to_string(&path).ok().as_deref() != Some(got.as_str()) {
            mismatched.push(format!("{}\n--- got ---\n{got}", path.display()));
        }
    }
    assert!(
        mismatched.is_empty(),
        "stdout differs from the golden for:\n{}",
        mismatched.join("\n")
    );
}
