//! Fault injection for the sharded topology: three real `optrules
//! serve` shard processes behind a real `optrules coord` process,
//! SIGKILL one shard mid-batch, and assert the coordinator degrades —
//! warm specs still answer byte-identically, cold specs that need the
//! dead shard fail with the structured `{"error":{"shard":i,…}}`
//! envelope, the coordinator never goes down, and it recovers the
//! moment the shard is restarted on its old address. Finally the
//! coordinator's shutdown must drain the surviving shards even though
//! one backend is (again) already dead.
//!
//! A second case restarts a shard at the *same generation* over a file
//! with a different row count: the pin's row check must catch it and
//! say "row count", not "generation".

mod common;

use common::{bin, roundtrip, shutdown, spawn_listening, Server};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "optrules-coord-fault-{}-{name}.rel",
        std::process::id()
    ))
}

fn spawn_shard(path: &str, addr: &str) -> Server {
    spawn_listening(bin().args([
        "serve",
        path,
        "--addr",
        addr,
        "--buckets",
        "80",
        "--min-support",
        "10",
        "--min-confidence",
        "60",
        "--seed",
        "7",
    ]))
}

const WARM_SPEC: &str = "{\"attr\":\"Balance\",\"objective\":{\"bool\":\"CardLoan\"}}\n";
const COLD_SPEC: &str =
    "{\"attr\":\"CheckingAccount\",\"objective\":{\"bool\":\"AutoWithdraw\"}}\n";

/// Generates a 6000-row bank relation at `tmp("{tag}-full")` and slices
/// each `(start, end)` row range of it into its own file.
fn gen_and_slice(tag: &str, ranges: &[(u64, u64)]) -> (PathBuf, Vec<PathBuf>) {
    let full = tmp(&format!("{tag}-full"));
    let full_s = full.to_str().unwrap();
    let gen = bin()
        .args(["gen", "bank", full_s, "--rows", "6000", "--seed", "3"])
        .output()
        .expect("gen runs");
    assert!(gen.status.success());
    let mut slices = Vec::new();
    for (i, (start, end)) in ranges.iter().enumerate() {
        let path = tmp(&format!("{tag}-slice{i}"));
        let out = bin()
            .args([
                "slice",
                full_s,
                path.to_str().unwrap(),
                "--start",
                &start.to_string(),
                "--end",
                &end.to_string(),
            ])
            .output()
            .expect("slice runs");
        assert!(out.status.success(), "{out:?}");
        slices.push(path);
    }
    (full, slices)
}

fn spawn_coord(shard_list: &str) -> Server {
    spawn_listening(bin().args([
        "coord",
        "--addr",
        "127.0.0.1:0",
        "--shards",
        shard_list,
        "--buckets",
        "80",
        "--min-support",
        "10",
        "--min-confidence",
        "60",
        "--seed",
        "7",
        "--retry-backoff-ms",
        "10",
    ]))
}

#[test]
fn killing_a_shard_degrades_gracefully_and_recovers() {
    // One bank relation, sliced into three shard files whose
    // concatenation is the original (also exercising `optrules slice`).
    let (full, shard_paths) = gen_and_slice("kill", &[(0, 2000), (2000, 4000), (4000, 6000)]);
    let full_s = full.to_str().unwrap();

    // The single-node oracle over the unsliced rows.
    let single = spawn_shard(full_s, "127.0.0.1:0");
    let warm_expected = roundtrip(&single.addr, WARM_SPEC);
    let cold_expected = roundtrip(&single.addr, COLD_SPEC);

    let mut shards: Vec<Server> = shard_paths
        .iter()
        .map(|p| spawn_shard(p.to_str().unwrap(), "127.0.0.1:0"))
        .collect();
    let shard_list = shards
        .iter()
        .map(|s| s.addr.clone())
        .collect::<Vec<_>>()
        .join(",");
    let mut coord = spawn_coord(&shard_list);

    // Warm up, verifying byte-identity against the single node.
    assert_eq!(roundtrip(&coord.addr, WARM_SPEC), warm_expected);

    // SIGKILL the middle shard, then send one pipelined batch mixing a
    // warm spec and a cold one that needs the dead shard.
    shards[1].child.kill().expect("kill -9 shard 1");
    shards[1].child.wait().expect("reap shard 1");
    let mixed = roundtrip(&coord.addr, &format!("{WARM_SPEC}{COLD_SPEC}"));
    assert_eq!(mixed.len(), 2, "{mixed:?}");
    assert_eq!(
        mixed[0], warm_expected[0],
        "warm spec must survive the dead shard byte-identically"
    );
    assert!(
        mixed[1].starts_with("{\"error\":{\"shard\":1,"),
        "cold spec must fail with the structured shard error: {}",
        mixed[1]
    );

    // Zero downtime: the coordinator keeps answering, and its stats
    // frame names the dead shard in the same structured form.
    assert_eq!(roundtrip(&coord.addr, WARM_SPEC), warm_expected);
    let stats = roundtrip(&coord.addr, "{\"cmd\":\"stats\"}\n");
    assert!(
        stats[0].starts_with("{\"error\":{\"shard\":1,"),
        "stats must report the dead shard: {}",
        stats[0]
    );

    // Restart the shard on its old address: the cold spec now succeeds
    // and matches the single-node answer exactly.
    shards[1] = spawn_shard(shard_paths[1].to_str().unwrap(), &shards[1].addr);
    assert_eq!(
        roundtrip(&coord.addr, COLD_SPEC),
        cold_expected,
        "recovered shard must restore byte-identity"
    );
    let stats = roundtrip(&coord.addr, "{\"cmd\":\"stats\"}\n");
    assert!(stats[0].starts_with("{\"ok\":"), "{stats:?}");
    assert!(stats[0].contains("\"shard_errors\":"), "{stats:?}");

    // Kill a different shard and shut the coordinator down: the drain
    // must tolerate the dead backend (in parallel) and still stop the
    // survivors.
    shards[0].child.kill().expect("kill shard 0");
    shards[0].child.wait().expect("reap shard 0");
    let bye = roundtrip(&coord.addr, "{\"cmd\":\"shutdown\"}\n");
    assert_eq!(bye, ["{\"ok\":\"shutdown\"}"]);
    assert!(
        coord.child.wait().expect("coordinator exits").success(),
        "graceful coordinator shutdown must exit 0 with a dead shard"
    );
    assert!(shards[1].child.wait().expect("shard 1 exits").success());
    assert!(shards[2].child.wait().expect("shard 2 exits").success());

    shutdown(single);

    std::fs::remove_file(&full).unwrap();
    for path in shard_paths {
        std::fs::remove_file(path).unwrap();
    }
}

/// A shard that comes back at the **same generation** over a file with
/// a different row count passes the generation check; the row check
/// must fail the query — naming the row counts as row counts — and
/// resync, so the next segment pins the new view and answers what a
/// single node over the new concatenation answers.
#[test]
fn a_shard_restarted_over_different_rows_fails_with_a_row_count_error() {
    // Slices 0 and 1 are the original shards; slice 2 replaces shard 1
    // with more rows; slice 3 is the concatenation after the swap.
    let ranges = [(0, 2000), (2000, 4000), (2000, 5000), (0, 5000)];
    let (full, slices) = gen_and_slice("rows", &ranges);
    let path = |i: usize| slices[i].to_str().unwrap();

    let mut shards = vec![
        spawn_shard(path(0), "127.0.0.1:0"),
        spawn_shard(path(1), "127.0.0.1:0"),
    ];
    let coord = spawn_coord(&format!("{},{}", shards[0].addr, shards[1].addr));
    assert!(roundtrip(&coord.addr, WARM_SPEC)[0].starts_with("{\"ok\":"));

    shards[1].child.kill().expect("kill -9 shard 1");
    shards[1].child.wait().expect("reap shard 1");
    shards[1] = spawn_shard(path(2), &shards[1].addr);

    // The sampled indices still fall inside the (longer) new file and
    // the generation is 0 again, so only the count reply's row total
    // gives the swap away.
    let stale = roundtrip(&coord.addr, COLD_SPEC);
    assert_eq!(
        stale,
        [
            "{\"error\":{\"shard\":1,\"message\":\"row count changed under the pinned \
          snapshot (pinned 2000, now 3000)\"}}"
        ]
    );

    // The failure resynced the view: the same spec now matches a single
    // node over the new concatenation.
    let single = spawn_shard(path(3), "127.0.0.1:0");
    assert_eq!(
        roundtrip(&coord.addr, COLD_SPEC),
        roundtrip(&single.addr, COLD_SPEC)
    );

    shutdown(coord);
    for mut shard in shards {
        assert!(shard.child.wait().expect("shard exits").success());
    }
    shutdown(single);
    std::fs::remove_file(&full).unwrap();
    for path in slices {
        std::fs::remove_file(path).unwrap();
    }
}
