//! `tpu-bench`'s command line: an argument the chosen experiment does not
//! read is a usage error naming it, never a full-scale run (minutes) of
//! something other than what was asked for.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpu-bench"))
        .args(args)
        .output()
        .expect("tpu-bench runs")
}

#[test]
fn bad_command_lines_exit_2_with_the_usage_text_and_run_nothing() {
    for (args, offender) in [
        (&[][..], "no experiment"),
        (&["tabel2"][..], "\"tabel2\""),
        // A misspelt `--quick` used to start the 12-minute full-scale run.
        (&["table2", "--quik"][..], "\"--quik\""),
        // A flag the experiment does not read used to be accepted and
        // dropped: no report was ever written.
        (&["table3", "--report", "r.json"][..], "\"--report\""),
        (&["tune", "--search"][..], "--search requires a value"),
        (&["tune", "--search", "dfs"][..], "\"dfs\""),
        (&["tune", "--quick", "--faults", "seven"][..], "\"seven\""),
        // Anything but `random` used to run Figure 4a.
        (&["fig4", "sideways", "--quick"][..], "\"sideways\""),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(offender), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: tpu-bench"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn a_valid_command_line_runs_its_experiment() {
    let out = run(&["table1", "--quick"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1: programs and examples"));
}
