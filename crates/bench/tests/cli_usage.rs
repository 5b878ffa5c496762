//! Every binary answers an argument it cannot honour — an unknown label, an
//! unknown flag, a retired mode — with its usage text and exit status 2,
//! never with a silent default.

use std::process::Command;

fn exit_status(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unhonourable_arguments_print_usage_and_exit_2() {
    let cases: [(&str, &[&str]); 4] = [
        // An unknown adversary label used to run the default adversary.
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--alg", "alg1-log", "--adversary", "nope"],
        ),
        // An unknown `--flag` used to be dropped and every table printed.
        (env!("CARGO_BIN_EXE_tables"), &["e1", "--cvs"]),
        // Retired surfaces: the measuring modes and the `auto` backend.
        (env!("CARGO_BIN_EXE_chaos"), &["--bench", "x.json"]),
        (env!("CARGO_BIN_EXE_service"), &["--backend", "auto"]),
    ];
    for (bin, args) in cases {
        let (code, stderr) = exit_status(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    }
}
