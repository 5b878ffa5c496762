//! Every binary answers an argument it cannot honour — an unknown label, an
//! unknown flag, a retired mode, a repro file no run can be built from —
//! with a message saying why and exit status 2, never with a silent default
//! or a hang.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin args`, killing it if it has not exited after 10 s.
fn exit_status(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        match child.try_wait().expect("child is waitable") {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                child.kill().expect("child is killable");
                break child.wait().expect("killed child is reaped");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("stderr is piped");
    pipe.read_to_string(&mut stderr).expect("stderr is utf-8");
    (status.code(), stderr)
}

#[test]
fn unhonourable_arguments_say_why_and_exit_2() {
    // A captured repro edited to claim more Byzantine processes than
    // processes (n = 9): replaying it used to spin on `n - byzantine`.
    let repro = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/chaos-repro.json"
    );
    let hostile = std::fs::read_to_string(repro)
        .expect("committed repro file")
        .replace("\"byzantine\": 3", "\"byzantine\": 12");
    let hostile_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/byzantine-exceeds-n.json");
    std::fs::write(hostile_path, hostile).expect("tmpdir is writable");

    let cases: [(&str, &[&str], &str); 5] = [
        // An unknown adversary label used to run the default adversary.
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--alg", "alg1-log", "--adversary", "nope"],
            "usage:",
        ),
        // An unknown `--flag` used to be dropped and every table printed.
        (env!("CARGO_BIN_EXE_tables"), &["e1", "--cvs"], "usage:"),
        // Retired surfaces: the measuring modes and the `auto` backend.
        (
            env!("CARGO_BIN_EXE_chaos"),
            &["--bench", "x.json"],
            "usage:",
        ),
        (
            env!("CARGO_BIN_EXE_service"),
            &["--backend", "auto"],
            "usage:",
        ),
        (
            env!("CARGO_BIN_EXE_chaos"),
            &["--repro", hostile_path],
            "byzantine exceeds n (12 > 9)",
        ),
    ];
    for (bin, args, needle) in cases {
        let (code, stderr) = exit_status(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
    }
}
