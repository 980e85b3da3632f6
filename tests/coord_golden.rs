//! Golden transcript for the sharded topology: the checked-in
//! `tests/data/coord_specs.ndjson` must produce exactly
//! `tests/data/coord_expected.ndjson` from a coordinator over two
//! `optrules serve` shards — and from a single-node server over the
//! unsliced relation — at several worker counts. The transcript mixes
//! mining specs (plain, generalized, per-spec bucket overrides, an
//! unknown attribute), appends (including malformed ones), a schema
//! probe, and a flush, so append routing, epoch generations, and error
//! envelopes are all pinned byte-for-byte.
//!
//! Average specs are deliberately absent: bank-generated floats make
//! per-shard partial sums depend on addition order, and the golden
//! pins exact bytes. Integer-data average identity is covered by
//! `tests/coord.rs`.

mod common;

use common::{bin, roundtrip, shutdown, spawn_listening, Server};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "optrules-coord-golden-{}-{name}.rel",
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
fn coordinator_and_single_node_match_the_golden_transcript() {
    let specs = data("coord_specs.ndjson");
    let golden = data("coord_expected.ndjson");
    let expected: Vec<&str> = golden.lines().collect();
    assert!(
        !expected.is_empty(),
        "golden expected file must not be empty"
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

        // …and exactly what the coordinator answers over two shards.
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

        // Warm path: the first spec re-runs against the post-append
        // snapshot, whose answer the transcript already pinned.
        let first_spec = specs.lines().next().unwrap();
        let warm = roundtrip(&coord.addr, &format!("{first_spec}\n"));
        assert_eq!(
            warm,
            [expected[9]],
            "warm re-run must hit the pinned post-append answer"
        );
        let stats = roundtrip(&coord.addr, "{\"cmd\":\"stats\"}\n");
        assert!(stats[0].starts_with("{\"ok\":"), "{stats:?}");
        assert!(stats[0].contains("\"scan_cache_hits\":"), "{stats:?}");

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
