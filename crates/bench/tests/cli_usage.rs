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
    let committed = std::fs::read_to_string(repro).expect("committed repro file");
    let edited = |name: &str, from: &str, to: &str| {
        let text = committed.replace(from, to);
        assert_ne!(text, committed, "{from} is in the committed repro");
        let path = format!("{}/{name}.json", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&path, text).expect("tmpdir is writable");
        path
    };
    let hostile_path = &edited(
        "byzantine-exceeds-n",
        "\"byzantine\": 3",
        "\"byzantine\": 12",
    );
    // Schedules no run can replay: a round-0 crash used to panic (exit
    // 101), an out-of-range sender was silently ignored and the replay
    // "reproduced", and n = 3·10⁹ aborted on a 24 GB allocation.
    let no_events = "\"events\": []";
    let hostile_schedules = [
        (
            edited(
                "round-zero",
                no_events,
                r#""events": [{"kind": "crash", "sender": 0, "from": 0}]"#,
            ),
            "event 0: field 'from' is not a 1-based round",
        ),
        (
            edited(
                "sender-out-of-range",
                no_events,
                r#""events": [{"kind": "crash", "sender": 999, "from": 1}]"#,
            ),
            "event 0: field 'sender' is 999, not below n = 9",
        ),
        (
            edited("huge-n", "\"n\": 9,", "\"n\": 3000000000,"),
            "field 'n' exceeds 1024 (3000000000)",
        ),
    ];
    // A service repro whose spec has no shards: replaying it used to fail
    // as a protocol run (exit 1) instead of being refused at load time.
    let zero_shards_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/zero-shards.json");
    std::fs::write(
        zero_shards_path,
        r#"{"version": 2, "campaign_seed": 0, "run_index": 0, "jobs": 1,
            "service": {"shards": 0, "n": 7, "t": 2, "regime": "log-time",
                        "byzantine": 2, "adversary": "silent",
                        "queue_capacity": 64, "shard_span": 64, "seed": 1},
            "workload": {"clients": 40, "epochs": 3, "arrivals_per_epoch": 4,
                         "max_hold": 3, "seed": 7}}"#,
    )
    .expect("tmpdir is writable");
    // Where a failing service run would write its repro; a refused spec
    // must leave nothing behind.
    let repro_out = concat!(env!("CARGO_TARGET_TMPDIR"), "/refused-service-repro.json");
    let _ = std::fs::remove_file(repro_out);

    let cases: [(&str, &[&str], &str); 13] = [
        // An unknown adversary label used to run the default adversary.
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--alg", "alg1-log", "--adversary", "nope"],
            "usage:",
        ),
        // An unknown `--flag` used to be dropped and every table printed.
        (env!("CARGO_BIN_EXE_tables"), &["e1", "--cvs"], "usage:"),
        // Retired surfaces: the measuring modes.
        (
            env!("CARGO_BIN_EXE_chaos"),
            &["--bench", "x.json"],
            "usage:",
        ),
        // Retired modes: `service` is the one service driver, and the
        // shrink→repro self-test lives in `tests/chaos_campaign.rs`.
        (env!("CARGO_BIN_EXE_chaos"), &["--service"], "usage:"),
        (
            env!("CARGO_BIN_EXE_chaos"),
            &["--service", "--repro", zero_shards_path],
            "usage:",
        ),
        (env!("CARGO_BIN_EXE_chaos"), &["--self-test"], "usage:"),
        // The guided adversary search is gone; so are its flags.
        (env!("CARGO_BIN_EXE_chaos"), &["--search"], "usage:"),
        (
            env!("CARGO_BIN_EXE_chaos"),
            &["--fitness", "margin"],
            "usage:",
        ),
        (env!("CARGO_BIN_EXE_chaos"), &["--baseline"], "usage:"),
        (
            env!("CARGO_BIN_EXE_chaos"),
            &["--repro", hostile_path],
            "byzantine exceeds n (12 > 9)",
        ),
        // A service spec that fails `ServiceConfig::validate` is a usage
        // error, not a protocol failure: no flight dump, no repro file.
        (
            env!("CARGO_BIN_EXE_service"),
            &["--shards", "0", "--epochs", "3", "--repro-out", repro_out],
            "service needs at least one shard",
        ),
        (
            env!("CARGO_BIN_EXE_service"),
            &["--soak", "--shards", "0", "--repro-out", repro_out],
            "service needs at least one shard",
        ),
        (
            env!("CARGO_BIN_EXE_service"),
            &["--repro", zero_shards_path, "--repro-out", repro_out],
            "service needs at least one shard",
        ),
    ];
    let refused = |bin: &str, args: &[&str], needle: &str| {
        let (code, stderr) = exit_status(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
        assert!(
            !std::path::Path::new(repro_out).exists(),
            "{bin} {args:?} wrote a repro for a spec it refused"
        );
    };
    for (bin, args, needle) in cases {
        refused(bin, args, needle);
    }
    // Both loaders of protocol repros refuse the hostile schedules.
    for (path, needle) in &hostile_schedules {
        for mode in ["--repro", "explain"] {
            refused(env!("CARGO_BIN_EXE_chaos"), &[mode, path], needle);
        }
    }
}

/// `service --repro` judges what the replay shows, as `chaos --repro` does:
/// a spec that runs oracle-clean and matches its `jobs = 1` twin is not
/// a reproduced failure, so the replay exits 1.
#[test]
fn service_repro_of_a_clean_spec_exits_1() {
    let clean_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/clean-service-repro.json");
    std::fs::write(
        clean_path,
        r#"{"version": 2, "campaign_seed": 0, "run_index": 0, "jobs": 2,
            "service": {"shards": 2, "n": 7, "t": 2, "regime": "log-time",
                        "byzantine": 2, "adversary": "silent",
                        "queue_capacity": 64, "shard_span": 64, "seed": 1},
            "workload": {"clients": 40, "epochs": 3, "arrivals_per_epoch": 4,
                         "max_hold": 3, "seed": 7}}"#,
    )
    .expect("tmpdir is writable");
    let (code, stderr) = exit_status(env!("CARGO_BIN_EXE_service"), &["--repro", clean_path]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("did NOT reproduce"), "{stderr}");
}
