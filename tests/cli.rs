//! Integration tests for the `optrules` CLI binary: generate → info →
//! mine → avg round trips through real process invocations.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_optrules"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("optrules-cli-{}-{name}.rel", std::process::id()))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "command {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn gen_info_mine_roundtrip() {
    let path = tmp("bank");
    let path_s = path.to_str().unwrap();

    let out = run_ok(&["gen", "bank", path_s, "--rows", "20000", "--seed", "3"]);
    assert!(out.contains("wrote 20000 rows"), "{out}");

    let out = run_ok(&["info", path_s]);
    assert!(out.contains("rows     : 20000"), "{out}");
    assert!(out.contains("Balance"), "{out}");
    assert!(out.contains("CardLoan"), "{out}");

    let out = run_ok(&[
        "mine",
        path_s,
        "--attr",
        "Balance",
        "--target",
        "CardLoan",
        "--buckets",
        "100",
        "--min-support",
        "10",
        "--min-confidence",
        "60",
    ]);
    assert!(out.contains("optimized-support"), "{out}");
    assert!(out.contains("optimized-confidence"), "{out}");
    assert!(out.contains("Balance in ["), "{out}");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mine_with_given_conjunct() {
    let path = tmp("retail");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "retail", path_s, "--rows", "30000"]);
    let out = run_ok(&[
        "mine",
        path_s,
        "--attr",
        "Amount",
        "--target",
        "Potato",
        "--given",
        "Pizza=yes",
        "--buckets",
        "100",
        "--min-support",
        "2",
        "--min-confidence",
        "65",
    ]);
    assert!(out.contains("| (Pizza = yes)"), "{out}");
    assert!(out.contains("Amount in ["), "{out}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn avg_command() {
    let path = tmp("avg");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "20000"]);
    let out = run_ok(&[
        "avg",
        path_s,
        "--attr",
        "CheckingAccount",
        "--target",
        "SavingAccount",
        "--min-support",
        "10",
        "--min-avg",
        "14000",
        "--buckets",
        "200",
    ]);
    assert!(out.contains("max-average range"), "{out}");
    assert!(out.contains("max-support range"), "{out}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn errors_exit_nonzero_with_usage() {
    let out = bin().args(["mine", "/nonexistent.rel"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");

    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing command"));

    let out = bin().args(["gen", "nope", "/tmp/x.rel"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown generator"));
}

#[test]
fn trailing_flag_without_value_is_an_error_naming_the_flag() {
    let out = bin()
        .args(["info", "/tmp/x.rel", "--rows"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--rows expects a value"), "{err}");
    assert!(err.contains("usage:"), "{err}");

    // A flag directly followed by another flag must not swallow it.
    let out = bin()
        .args(["mine", "/tmp/x.rel", "--attr", "--target", "CardLoan"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--attr expects a value, got \"--target\""),
        "{err}"
    );
}

#[test]
fn unknown_flag_is_an_error_naming_the_flag() {
    let path = tmp("unknown-flag");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "1000"]);

    let out = bin()
        .args([
            "mine", path_s, "--attr", "Balance", "--target", "CardLoan", "--bucket", "10",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --bucket"), "{err}");
    // The error lists what *is* accepted.
    assert!(err.contains("--buckets"), "{err}");

    let out = bin()
        .args(["gen", "bank", path_s, "--min-support", "10"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --min-support"), "{err}");

    // A subcommand with no flags at all says so instead of listing "".
    let out = bin()
        .args(["info", path_s, "--rows", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown flag --rows (this subcommand takes no flags)"),
        "{err}"
    );

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mine_all_threaded_output_is_identical_to_sequential() {
    let path = tmp("mt-determinism");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "20000", "--seed", "5"]);
    let args = |threads: &'static str| {
        vec![
            "mine-all",
            path_s,
            "--buckets",
            "100",
            "--min-support",
            "5",
            "--min-confidence",
            "55",
            "--threads",
            threads,
        ]
    };
    // Results are reassembled in numeric-major pair order and sorted
    // stably before printing, so the fan-out width must not change a
    // single byte of output.
    let sequential = run_ok(&args("1"));
    assert!(
        sequential.contains("12 attribute pairs mined"),
        "{sequential}"
    );
    for threads in ["2", "8"] {
        let fanned = run_ok(&args(threads));
        assert_eq!(fanned, sequential, "--threads {threads} changed the output");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mine_all_pairs_cli() {
    let path = tmp("allpairs");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "planted", path_s, "--rows", "10000"]);
    let out = run_ok(&[
        "mine-all",
        path_s,
        "--buckets",
        "50",
        "--min-support",
        "10",
        "--min-confidence",
        "60",
    ]);
    assert!(out.contains("1 attribute pairs mined"), "{out}");
    std::fs::remove_file(&path).unwrap();
}

/// Runs the binary with `input` piped to stdin, asserting success.
fn run_ok_stdin(args: &[&str], input: &str) -> String {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("binary runs");
    assert!(
        out.status.success(),
        "command {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The checked-in golden pair: piping `tests/data/batch_specs.ndjson`
/// through `optrules batch` over the standard bank relation
/// (20k rows, gen seed 3, engine flags below) must reproduce
/// `tests/data/batch_expected.ndjson` byte for byte, at every
/// `--threads` value. CI runs the same diff as a shell step.
#[test]
fn batch_golden_output_is_stable() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let specs = std::fs::read_to_string(dir.join("batch_specs.ndjson")).unwrap();
    let expected = std::fs::read_to_string(dir.join("batch_expected.ndjson")).unwrap();
    let path = tmp("batch-golden");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "20000", "--seed", "3"]);
    for threads in ["1", "4"] {
        let out = run_ok_stdin(
            &[
                "batch",
                path_s,
                "--buckets",
                "100",
                "--min-support",
                "10",
                "--min-confidence",
                "60",
                "--seed",
                "7",
                "--threads",
                threads,
            ],
            &specs,
        );
        assert_eq!(out, expected, "--threads {threads} diverged from golden");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn batch_responses_parse_and_line_up_with_requests() {
    let path = tmp("batch-proto");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "5000", "--seed", "3"]);
    let requests = concat!(
        r#"{"attr":"Balance","objective":{"bool":"CardLoan"},"buckets":50}"#,
        "\n\n", // blank lines are skipped, not answered
        r#"{"attr":"Balance","objective":{"bool":"NoSuchBool"},"buckets":50}"#,
        "\ngarbage\n",
    );
    let out = run_ok_stdin(&["batch", path_s], requests);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "{out}");
    // Every response line is valid JSON by our own decoder's parser,
    // with the ok/error envelope in request order.
    use optrules::core::json::Json;
    for line in &lines {
        Json::parse(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"));
    }
    assert!(lines[0].starts_with(r#"{"ok":{"attr":"Balance""#), "{out}");
    assert!(lines[1].starts_with(r#"{"error":"#), "{out}");
    assert!(lines[2].starts_with(r#"{"error":"bad request"#), "{out}");
    std::fs::remove_file(&path).unwrap();
}

/// The live-relation golden pair: piping `tests/data/live_specs.ndjson`
/// (specs interleaved with append/stats control frames, plus every
/// malformed-row shape) through `optrules batch` over the standard
/// bank relation must reproduce `tests/data/live_expected.ndjson` byte
/// for byte, at every `--threads` value. Pins the append ack bytes,
/// the generation/row-count stats fields, and the error envelopes for
/// wrong arity, non-numeric cells, and oversized frames. CI runs the
/// same diff as a shell step (and once more over TCP through
/// `optrules serve` — see `tests/serve.rs`).
#[test]
fn live_golden_output_is_stable() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let specs = std::fs::read_to_string(dir.join("live_specs.ndjson")).unwrap();
    let expected = std::fs::read_to_string(dir.join("live_expected.ndjson")).unwrap();
    let path = tmp("live-golden");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "20000", "--seed", "3"]);
    for threads in ["1", "4"] {
        let out = run_ok_stdin(
            &[
                "batch",
                path_s,
                "--buckets",
                "100",
                "--min-support",
                "10",
                "--min-confidence",
                "60",
                "--seed",
                "7",
                "--cache-shards",
                "1",
                "--threads",
                threads,
            ],
            &specs,
        );
        assert_eq!(
            out, expected,
            "--threads {threads} diverged from live golden"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// `--cache-mb` / `--cache-shards` validate strictly and never change
/// output (caching is semantically invisible, only faster).
#[test]
fn cache_flags_validate_and_leave_output_unchanged() {
    let path = tmp("cache-flags");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "5000", "--seed", "3"]);
    let request = "{\"attr\":\"Balance\",\"objective\":{\"bool\":\"CardLoan\"},\"buckets\":50}\n";

    let default_out = run_ok_stdin(&["batch", path_s], request);
    // Sized way down (1 MiB, 2 shards) and with caching disabled
    // entirely: byte-identical responses.
    for sizing in [
        &["--cache-mb", "1", "--cache-shards", "2"][..],
        &["--cache-mb", "0"][..],
    ] {
        let mut args = vec!["batch", path_s];
        args.extend_from_slice(sizing);
        assert_eq!(run_ok_stdin(&args, request), default_out, "{sizing:?}");
    }

    // Invalid values are errors naming the flag, for batch and serve.
    for (args, needle) in [
        (
            vec!["batch", path_s, "--cache-mb", "lots"],
            "--cache-mb expects a number",
        ),
        (
            vec!["batch", path_s, "--cache-shards", "0"],
            "--cache-shards must be at least 1",
        ),
        (
            vec!["serve", path_s, "--cache-shards", "zero"],
            "--cache-shards expects a number",
        ),
        (
            vec!["serve", path_s, "--workers", "0"],
            "--workers must be at least 1",
        ),
        (
            vec!["serve", path_s, "--max-inflight", "0"],
            "--max-inflight must be at least 1",
        ),
        (
            vec!["serve", path_s, "--write-timeout-secs", "0"],
            "--write-timeout-secs must be at least 1",
        ),
        (
            vec!["serve", path_s, "--write-timeout-secs", "soon"],
            "--write-timeout-secs expects a number",
        ),
        (
            vec!["batch", path_s, "--write-timeout-secs", "30"],
            "unknown flag --write-timeout-secs",
        ),
        (
            vec!["serve", path_s, "--addr", "not-an-address"],
            "binding not-an-address",
        ),
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn format_json_emits_decodable_results_and_text_stays_default() {
    use optrules::core::json;
    let path = tmp("format");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "5000", "--seed", "3"]);
    let mine_args = |extra: &[&'static str]| -> Vec<&str> {
        let mut v = vec![
            "mine",
            path_s,
            "--attr",
            "Balance",
            "--target",
            "CardLoan",
            "--buckets",
            "50",
        ];
        v.extend_from_slice(extra);
        v
    };
    // Default output is byte-identical to an explicit --format text.
    assert_eq!(
        run_ok(&mine_args(&[])),
        run_ok(&mine_args(&["--format", "text"]))
    );
    let out = run_ok(&mine_args(&["--format", "json"]));
    let rules = json::decode_rule_set(out.trim()).expect("mine --format json decodes");
    assert_eq!(rules.attr_name, "Balance");

    let out = run_ok(&[
        "avg",
        path_s,
        "--attr",
        "CheckingAccount",
        "--target",
        "SavingAccount",
        "--buckets",
        "50",
        "--format",
        "json",
    ]);
    let rules = json::decode_rule_set(out.trim()).expect("avg --format json decodes");
    assert!(rules.objective_desc.contains("avg(SavingAccount)"));

    // mine-all: one decodable line per pair (4 numeric × 3 boolean).
    let out = run_ok(&["mine-all", path_s, "--buckets", "50", "--format", "json"]);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 12, "{out}");
    for line in lines {
        json::decode_rule_set(line).expect("mine-all --format json decodes");
    }

    let out = bin()
        .args(mine_args(&["--format", "yaml"]))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--format expects text or json"),
        "bad format must name the flag"
    );
    std::fs::remove_file(&path).unwrap();
}

/// `--data-dir` turns on durability; its companion flags validate
/// strictly and are rejected without it.
#[test]
fn durability_flags_validate() {
    let path = tmp("durability-flags");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "1000", "--seed", "3"]);
    let dir = std::env::temp_dir().join(format!("optrules-cli-dflags-{}", std::process::id()));
    let dir_s = dir.to_str().unwrap().to_string();
    for (args, needle) in [
        (
            vec!["batch", path_s, "--wal-sync", "always"],
            "--wal-sync requires --data-dir",
        ),
        (
            vec!["serve", path_s, "--spill-rows", "100"],
            "--spill-rows requires --data-dir",
        ),
        (
            vec![
                "batch",
                path_s,
                "--data-dir",
                dir_s.as_str(),
                "--wal-sync",
                "sometimes",
            ],
            "--wal-sync expects always, batch, or off",
        ),
        (
            vec![
                "batch",
                path_s,
                "--data-dir",
                dir_s.as_str(),
                "--spill-rows",
                "0",
            ],
            "--spill-rows must be at least 1",
        ),
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::remove_file(&path).unwrap();
}

/// Appends acknowledged by one `batch --data-dir` run are visible to
/// the next run over the same directory: the WAL/checkpoint round
/// trip preserves rows and the generation counter, `stats` reports
/// the durability counters, and `flush` acks with the generation.
#[test]
fn batch_data_dir_persists_appends_across_runs() {
    let path = tmp("batch-durable");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "1000", "--seed", "3"]);
    let dir = std::env::temp_dir().join(format!("optrules-cli-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let requests = concat!(
        r#"{"cmd":"append","rows":[[3100.5,41,1200,15000,true,false,true],[9000,22,800,500,false,false,true]]}"#,
        "\n",
        r#"{"cmd":"flush"}"#,
        "\n",
        r#"{"cmd":"stats"}"#,
        "\n",
    );
    let out = run_ok_stdin(&["batch", path_s, "--data-dir", dir_s], requests);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "{out}");
    assert_eq!(
        lines[0],
        r#"{"ok":{"appended":2,"generation":1,"rows":1002}}"#
    );
    assert_eq!(lines[1], r#"{"ok":{"flushed":true,"generation":1}}"#);
    assert!(lines[2].contains(r#""rows":1002"#), "{out}");
    assert!(lines[2].contains(r#""durability":{"wal_bytes":8"#), "{out}");
    assert!(
        lines[2].contains(r#""last_checkpoint_generation":1"#),
        "{out}"
    );

    // Second run over the same directory: the appended rows and the
    // generation counter survived the process exit.
    let out = run_ok_stdin(
        &["batch", path_s, "--data-dir", dir_s],
        "{\"cmd\":\"stats\"}\n",
    );
    assert!(out.contains(r#""generation":1"#), "{out}");
    assert!(out.contains(r#""rows":1002"#), "{out}");

    // Without --data-dir the same relation file still reports its
    // original row count — durability never mutates the base file.
    let out = run_ok_stdin(&["batch", path_s], "{\"cmd\":\"stats\"}\n");
    assert!(out.contains(r#""rows":1000"#), "{out}");
    assert!(!out.contains("durability"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
    std::fs::remove_file(&path).unwrap();
}

/// The mining subcommands' stdout, byte for byte. Each case in
/// `tests/data/cli_mining_expected.txt` is a `$ optrules …` line —
/// `{bank}` is the standard bank relation (20k rows, gen seed 3) and
/// `{retail}` a 30k-row retail relation at the default gen seed —
/// followed by exactly what that command prints: `mine` (text and
/// json, with and without `--given`), `avg` (text and json) and
/// `mine-all` (text).
#[test]
fn mining_output_matches_golden_transcript() {
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/cli_mining_expected.txt");
    let expected = std::fs::read_to_string(golden).unwrap();
    let bank = tmp("golden-bank");
    let retail = tmp("golden-retail");
    let (bank_s, retail_s) = (bank.to_str().unwrap(), retail.to_str().unwrap());
    run_ok(&["gen", "bank", bank_s, "--rows", "20000", "--seed", "3"]);
    run_ok(&["gen", "retail", retail_s, "--rows", "30000"]);

    let mut transcript = String::new();
    for line in expected.lines() {
        let Some(command) = line.strip_prefix("$ optrules ") else {
            continue;
        };
        let args: Vec<&str> = command
            .split(' ')
            .map(|arg| match arg {
                "{bank}" => bank_s,
                "{retail}" => retail_s,
                other => other,
            })
            .collect();
        transcript.push_str(line);
        transcript.push('\n');
        transcript.push_str(&run_ok(&args));
    }
    assert_eq!(transcript, expected);
    std::fs::remove_file(&bank).unwrap();
    std::fs::remove_file(&retail).unwrap();
}

#[test]
fn repeated_flag_is_an_error_naming_the_flag() {
    let path = tmp("repeated-flag");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "retail", path_s, "--rows", "1000"]);
    let mine = ["mine", path_s, "--attr", "Amount", "--target", "Potato"];
    for (flag, first, second) in [
        ("--given", "Pizza=yes", "Coke=yes"),
        ("--buckets", "10", "20"),
    ] {
        let out = bin()
            .args(mine)
            .args([flag, first, flag, second])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} twice must be a usage error"
        );
        assert!(out.stdout.is_empty(), "{flag} twice must not mine");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("flag {flag} given more than once")),
            "{err}"
        );
        assert!(err.contains("usage:"), "{err}");
    }
    std::fs::remove_file(&path).unwrap();
}

/// `mine --format json` and `avg --format json` print exactly the
/// result `batch` answers for the same spec under the same session
/// flags — one query path, two front ends.
#[test]
fn mine_and_avg_json_equal_batch_answers() {
    let path = tmp("mine-vs-batch");
    let path_s = path.to_str().unwrap();
    run_ok(&["gen", "bank", path_s, "--rows", "20000", "--seed", "3"]);
    let cases: [(&[&str], &[&str], &str); 2] = [
        (
            &[
                "mine",
                "--attr",
                "Balance",
                "--target",
                "CardLoan",
                "--given",
                "AutoWithdraw=yes",
            ],
            &[
                "--buckets",
                "100",
                "--min-support",
                "10",
                "--min-confidence",
                "60",
            ],
            concat!(
                r#"{"attr":"Balance","objective":{"bool":"CardLoan"},"#,
                r#""given":[{"bool":"AutoWithdraw","is":true}],"scan_all_booleans":false}"#,
            ),
        ),
        (
            &[
                "avg",
                "--attr",
                "CheckingAccount",
                "--target",
                "SavingAccount",
                "--min-avg",
                "14000",
            ],
            &["--buckets", "200", "--min-support", "10"],
            r#"{"attr":"CheckingAccount","objective":{"average":"SavingAccount"},"min_average":14000}"#,
        ),
    ];
    for (command, session, spec) in cases {
        let mut cli = vec![command[0], path_s];
        cli.extend(&command[1..]);
        cli.extend(["--format", "json"]);
        cli.extend(session);
        let mined = run_ok(&cli);
        let mut batch = vec!["batch", path_s];
        batch.extend(session);
        let answered = run_ok_stdin(&batch, &format!("{spec}\n"));
        assert_eq!(
            answered,
            format!("{{\"ok\":{}}}\n", mined.trim_end()),
            "{spec}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}
