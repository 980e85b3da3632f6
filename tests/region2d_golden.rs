//! Golden transcript for two-attribute rectangle mining on the wire:
//! the checked-in `tests/data/region2d_specs.ndjson` must produce
//! exactly `tests/data/region2d_expected.ndjson` from a single
//! `optrules serve` node — and from a coordinator over two sliced
//! shards — at several worker counts. The transcript mixes rectangle
//! specs (plain, task/threshold/bucket overrides, generalized,
//! conjunction objectives), a 1-D spec, two failing specs (unknown
//! second attribute, average objective with `attr2`), a schema probe,
//! an append, and a post-append rectangle re-run, so the 2-D wire
//! encoding, grid scatter-gather, and error envelopes are all pinned
//! byte-for-byte.
//!
//! Unlike the 1-D coordinator golden, rectangle specs are safe on
//! arbitrary-float bank data: grid cells are integer counts and the
//! observed value ranges are min/max folds, so the merged grid — and
//! every byte derived from it — is independent of the shard split.

mod common;

use common::{bin, roundtrip, shutdown, spawn_listening, Server};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "optrules-region2d-golden-{}-{name}.rel",
        std::process::id()
    ))
}

fn data(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

const FLAGS: [&str; 8] = [
    "--buckets",
    "100",
    "--min-support",
    "10",
    "--min-confidence",
    "60",
    "--seed",
    "7",
];

fn spawn_serve(path: &str, workers: &str) -> Server {
    let mut args = vec!["serve", path, "--addr", "127.0.0.1:0", "--workers", workers];
    args.extend_from_slice(&FLAGS);
    spawn_listening(bin().args(&args))
}

#[test]
fn rectangle_transcript_matches_on_single_node_and_coordinator() {
    let specs = data("region2d_specs.ndjson");
    let golden = data("region2d_expected.ndjson");
    let expected: Vec<&str> = golden.lines().collect();
    assert_eq!(
        expected.len(),
        specs.lines().count(),
        "one response line per request line"
    );
    assert!(
        expected[0].contains("\"kind\":\"rect_support\""),
        "the transcript must pin rectangle rules: {:?}",
        expected[0]
    );

    let full = tmp("full");
    let full_s = full.to_str().unwrap();
    let gen = bin()
        .args(["gen", "bank", full_s, "--rows", "20000", "--seed", "3"])
        .output()
        .expect("gen runs");
    assert!(gen.status.success(), "{gen:?}");

    // An uneven split: shard 0 gets 8000 rows, shard 1 the other 12000.
    let mut shard_paths = Vec::new();
    for (i, (start, end)) in [("0", "8000"), ("8000", "20000")].iter().enumerate() {
        let path = tmp(&format!("shard{i}"));
        let out = bin()
            .args([
                "slice",
                full_s,
                path.to_str().unwrap(),
                "--start",
                start,
                "--end",
                end,
            ])
            .output()
            .expect("slice runs");
        assert!(out.status.success(), "{out:?}");
        shard_paths.push(path);
    }

    for workers in ["1", "4"] {
        // The golden must be exactly what a single node answers…
        let single = spawn_serve(full_s, workers);
        assert_eq!(
            roundtrip(&single.addr, &specs),
            expected,
            "single node diverged from the golden at --workers {workers}"
        );
        shutdown(single);

        // …and exactly what the coordinator answers over two shards:
        // per-shard raw grids merged in shard order, optimized centrally.
        let shards: Vec<Server> = shard_paths
            .iter()
            .map(|p| spawn_serve(p.to_str().unwrap(), workers))
            .collect();
        let shard_list = shards
            .iter()
            .map(|s| s.addr.clone())
            .collect::<Vec<_>>()
            .join(",");
        let mut args = vec!["coord", "--addr", "127.0.0.1:0", "--shards", &shard_list];
        args.extend_from_slice(&FLAGS);
        let coord = spawn_listening(bin().args(&args));
        assert_eq!(
            roundtrip(&coord.addr, &specs),
            expected,
            "coordinator diverged from the golden at --workers {workers}"
        );

        // Warm path: the first rectangle spec re-runs against the
        // post-append snapshot, whose answer the transcript already
        // pinned — served from the coordinator's merged-grid cache.
        let first_spec = specs.lines().next().unwrap();
        let rpcs_before = stat_field(&coord.addr, "shard_rpcs");
        let warm = roundtrip(&coord.addr, &format!("{first_spec}\n"));
        assert_eq!(
            warm,
            [expected[10]],
            "warm re-run must hit the pinned post-append answer"
        );
        assert_eq!(
            stat_field(&coord.addr, "shard_rpcs"),
            rpcs_before,
            "a warm rectangle query must not touch the shards"
        );

        // Coordinator shutdown drains both shards.
        shutdown(coord);
        for mut shard in shards {
            assert!(shard.child.wait().expect("shard exits").success());
        }
    }

    std::fs::remove_file(&full).unwrap();
    for path in shard_paths {
        std::fs::remove_file(path).unwrap();
    }
}

/// Pulls a numeric field out of the coordinator's stats reply.
fn stat_field(addr: &str, field: &str) -> u64 {
    let lines = roundtrip(addr, "{\"cmd\":\"stats\"}\n");
    let line = &lines[0];
    let needle = format!("\"{field}\":");
    let at = line
        .find(&needle)
        .unwrap_or_else(|| panic!("{field} missing in {line}"));
    line[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric stats field")
}
