//! `tpu-serve`'s command line: an argument the daemon does not understand
//! is a usage error naming it, never a daemon quietly serving something
//! other than what was asked for.

use std::process::{Command, Stdio};

/// Run `tpu-serve` with `args` and an empty stdin; its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tpu-serve"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("tpu-serve runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_command_lines_exit_2_naming_the_offender() {
    for (args, offender) in [
        // A misspelt flag used to leave the simulator oracle serving.
        (&["--modle", "frozen", "--bundle", "m.blob"][..], "--modle"),
        (&["frozen"][..], "\"frozen\""),
        // A valued flag given last used to fall back to its default.
        (&["--tcp"][..], "--tcp requires a value"),
        (
            &["--model", "sim", "--cache-slots"][..],
            "--cache-slots requires a value",
        ),
        (
            &["drive", "127.0.0.1:1", "--clients"][..],
            "--clients requires a value",
        ),
        (&["drive", "127.0.0.1:1", "--tcp", "x"][..], "--tcp"),
        // The tape model is not served: only its frozen blob is.
        (
            &["--model", "gnn", "--bundle", "m.json"][..],
            "unknown model \"gnn\"",
        ),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(offender), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: tpu-serve"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_valid_command_line_serves_stdin_to_its_end() {
    let (code, stderr) = run(&[
        "--model",
        "analytical",
        "--no-breaker",
        "--cache-slots",
        "64",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
}
