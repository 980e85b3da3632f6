//! The scatter-gather coordinator (`optrules::coord`): byte-identity
//! against a single-node engine over the concatenated relation, the
//! generation-vector consistency model for live appends, warm-path
//! shard-RPC dedup, shard-internal frame rejection, and shutdown
//! propagation to the backends.
//!
//! Specs that touch f64 *sums* (the average operator) are exercised on
//! integer-valued data: float addition is not associative, so only
//! exactly-representable sums are guaranteed byte-identical across the
//! shard partitioning (the documented caveat). Boolean specs are exact
//! on any data — their counts are integers.

use optrules::core::json::{self, Json, Num};
use optrules::core::server::{serve, serve_service, ServerConfig, ServerHandle};
use optrules::prelude::*;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;

fn config() -> EngineConfig {
    EngineConfig {
        buckets: 60,
        seed: 7,
        min_support: Ratio::percent(10),
        min_confidence: Ratio::percent(60),
        ..EngineConfig::default()
    }
}

/// Copies rows `range` of `rel` into a fresh in-memory relation.
fn slice_rel(rel: &Relation, range: std::ops::Range<u64>) -> Relation {
    let mut part = Relation::new(TupleScan::schema(rel).clone());
    rel.for_each_row_in(range, &mut |_, nums, bools| {
        part.push_row(nums, bools).expect("same schema");
    })
    .expect("in-memory scan cannot fail");
    part
}

/// Starts one shard server per split of `rel` at the given row cuts
/// (plus both ends) and returns the handles with their addresses.
fn shard_servers(rel: &Relation, cuts: &[u64]) -> (Vec<ServerHandle>, Vec<String>) {
    let mut bounds = vec![0u64];
    bounds.extend_from_slice(cuts);
    bounds.push(rel.len());
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for pair in bounds.windows(2) {
        let part = slice_rel(rel, pair[0]..pair[1]);
        let engine = SharedEngine::with_config(part, config());
        let handle = serve(Arc::new(engine), "127.0.0.1:0", ServerConfig::default())
            .expect("bind shard server");
        addrs.push(handle.addr().to_string());
        handles.push(handle);
    }
    (handles, addrs)
}

fn coordinator(addrs: &[String]) -> Coordinator {
    Coordinator::connect(
        addrs,
        config(),
        CacheConfig::default(),
        CoordConfig::default(),
    )
    .expect("connect to shards")
}

/// One-shot client against an arbitrary address: write, half-close,
/// read to EOF.
fn rt(addr: SocketAddr, input: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(input.as_bytes()).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|line| line.expect("read"))
        .collect()
}

/// Pulls a `u64` field out of a `{"ok": {...}}` response line.
fn ok_field(line: &str, field: &str) -> u64 {
    let Ok(Json::Obj(envelope)) = Json::parse(line) else {
        panic!("unparseable response {line:?}");
    };
    let Some((_, Json::Obj(body))) = envelope.iter().find(|(key, _)| key == "ok") else {
        panic!("response is not ok: {line:?}");
    };
    match body.iter().find(|(key, _)| key == field) {
        Some((_, Json::Num(Num::UInt(value)))) => *value,
        other => panic!("field {field:?} missing or non-integer: {other:?}"),
    }
}

fn encode_lines(specs: &[QuerySpec]) -> String {
    let mut out = String::new();
    for spec in specs {
        out.push_str(&json::encode_spec(spec));
        out.push('\n');
    }
    out
}

/// A mixed bank-data batch: simple boolean specs, a generalized spec
/// with a presumptive conjunct, and a failing spec. No average specs —
/// bank values are arbitrary floats, so their sums are not partition-
/// stable; integer-data tests below cover the average operator.
fn bank_batch() -> Vec<QuerySpec> {
    let mut generalized = QuerySpec::boolean("Balance", "CardLoan");
    generalized.given = vec![CondSpec::BoolIs {
        attr: "OnlineBanking".into(),
        value: true,
    }];
    vec![
        QuerySpec::boolean("Balance", "CardLoan"),
        QuerySpec::boolean("Balance", "AutoWithdraw"),
        QuerySpec::boolean("CheckingAccount", "OnlineBanking"),
        generalized,
        QuerySpec::boolean("NoSuchAttr", "CardLoan"),
    ]
}

/// A deterministic integer-valued relation: sums over any partition
/// are exact, so even average rules are byte-identical.
fn integer_relation(rows: u64) -> Relation {
    let schema = Schema::builder()
        .numeric("A")
        .numeric("T")
        .boolean("C")
        .build();
    let mut rel = Relation::with_capacity(schema, rows as usize);
    for i in 0..rows {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        let a = (h % 1_000) as f64;
        let t = ((h >> 10) % 500) as f64;
        let c = (h >> 20) % 10 < 4;
        rel.push_row(&[a, t], &[c]).expect("schema matches");
    }
    rel
}

/// The acceptance core: over two shards, the coordinator's TCP
/// responses are byte-identical to a single-node server over the
/// concatenated rows — cold and warm, at 1 and 4 workers/batch
/// threads — and the warm repeat costs zero additional shard RPCs.
#[test]
fn coordinator_matches_single_node_cold_and_warm() {
    let full = BankGenerator::default().to_relation(8_000, 23);
    let requests = encode_lines(&bank_batch());

    for (workers, batch_threads) in [(1, 1), (4, 4)] {
        let server_config = ServerConfig {
            workers,
            batch_threads,
            ..ServerConfig::default()
        };
        let single = serve(
            Arc::new(SharedEngine::with_config(
                slice_rel(&full, 0..full.len()),
                config(),
            )),
            "127.0.0.1:0",
            server_config,
        )
        .expect("bind single-node server");
        let reference = rt(single.addr(), &requests);
        assert!(reference[0].starts_with("{\"ok\":"), "{reference:?}");
        assert!(reference[4].starts_with("{\"error\":"), "{reference:?}");

        let (shards, addrs) = shard_servers(&full, &[3_000]);
        let coord = serve_service(Arc::new(coordinator(&addrs)), "127.0.0.1:0", server_config)
            .expect("bind coordinator");

        let cold = rt(coord.addr(), &requests);
        assert_eq!(cold, reference, "workers={workers} cold != single-node");

        let stats_cold = rt(coord.addr(), "{\"cmd\":\"stats\"}\n");
        let rpcs_cold = ok_field(&stats_cold[0], "shard_rpcs");
        assert!(rpcs_cold > 0);
        assert!(ok_field(&stats_cold[0], "merged_nodes") > 0);
        assert!(stats_cold[0].contains("\"shards\":["), "{stats_cold:?}");

        let warm = rt(coord.addr(), &requests);
        assert_eq!(warm, reference, "workers={workers} warm != single-node");
        let stats_warm = rt(coord.addr(), "{\"cmd\":\"stats\"}\n");
        assert_eq!(
            ok_field(&stats_warm[0], "shard_rpcs"),
            rpcs_cold,
            "a fully warm batch must not touch the shards"
        );
        assert!(
            ok_field(&stats_warm[0], "scan_cache_hits")
                > ok_field(&stats_cold[0], "scan_cache_hits"),
            "warm batch must hit the coordinator cache"
        );

        // Shutting the coordinator down drains the shards: their
        // handles join without being shut down directly.
        coord.shutdown();
        coord.join();
        for shard in shards {
            shard.join();
        }
        single.shutdown();
        single.join();
    }
}

/// The average operator over three shards (one deliberately empty) on
/// integer-valued data: sums are exact, so responses — including the
/// §5 average rules — are byte-identical to the single-node engine.
#[test]
fn average_specs_match_on_integer_data_with_an_empty_shard() {
    let full = integer_relation(5_000);
    let mut avg = QuerySpec::average("A", "T");
    avg.min_average = Some(Real(240.0));
    let specs = vec![
        avg,
        QuerySpec::boolean("A", "C"),
        QuerySpec::average("T", "A"),
    ];
    let requests = encode_lines(&specs);

    let single = serve(
        Arc::new(SharedEngine::with_config(
            slice_rel(&full, 0..full.len()),
            config(),
        )),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind single-node server");
    let reference = rt(single.addr(), &requests);
    assert!(
        reference.iter().all(|l| l.starts_with("{\"ok\":")),
        "{reference:?}"
    );

    // Middle shard holds rows 2_000..2_000: empty. The coordinator must
    // skip it in the data pass instead of tripping EmptyRelation.
    let (shards, addrs) = shard_servers(&full, &[2_000, 2_000]);
    let coord = coordinator(&addrs);
    assert_eq!(coord.shard_count(), 3);
    let got: Vec<String> = coord
        .run_segment(&specs, 1)
        .into_iter()
        .map(|v| v.encode())
        .collect();
    assert_eq!(got, reference);

    single.shutdown();
    single.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }
}

/// Live appends: the coordinator routes rows to the last shard, speaks
/// epoch generations on the wire, and post-append queries match the
/// single-node engine over the same (appended) rows — byte for byte,
/// including the malformed-rows error path.
#[test]
fn appends_route_to_last_shard_and_stay_byte_identical() {
    let full = integer_relation(3_000);
    let spec_line = json::encode_spec(&QuerySpec::average("A", "T"));
    let input = format!(
        concat!(
            "{spec}\n",
            "{{\"cmd\":\"append\",\"rows\":[[250,100,true],[750,200,false]]}}\n",
            "{spec}\n",
            "{{\"cmd\":\"append\",\"rows\":[[1,true]]}}\n",
            "{{\"cmd\":\"schema\"}}\n",
            "{{\"cmd\":\"flush\"}}\n",
        ),
        spec = spec_line
    );

    let single = serve(
        Arc::new(SharedEngine::with_config(
            slice_rel(&full, 0..full.len()),
            config(),
        )),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind single-node server");
    let reference = rt(single.addr(), &input);

    let (shards, addrs) = shard_servers(&full, &[1_000]);
    let coord = serve_service(
        Arc::new(coordinator(&addrs)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind coordinator");
    let got = rt(coord.addr(), &input);
    assert_eq!(got, reference);
    assert_eq!(
        got[1], "{\"ok\":{\"appended\":2,\"generation\":1,\"rows\":3002}}",
        "append ack speaks epoch generations"
    );
    assert!(got[3].contains("row 0 has 2 cells"), "{got:?}");

    // The appended rows landed on the *last* shard only.
    let shard_stats = rt(shards[1].addr(), "{\"cmd\":\"stats\"}\n");
    assert_eq!(ok_field(&shard_stats[0], "rows"), 2_002);
    assert_eq!(ok_field(&shard_stats[0], "generation"), 1);
    let first_stats = rt(shards[0].addr(), "{\"cmd\":\"stats\"}\n");
    assert_eq!(ok_field(&first_stats[0], "rows"), 1_000);
    assert_eq!(ok_field(&first_stats[0], "generation"), 0);

    coord.shutdown();
    coord.join();
    for shard in shards {
        shard.join();
    }
    single.shutdown();
    single.join();
}

/// The coordinator runs the same singleflight as a single node: eight
/// threads missing on one cold spec together fan out to the shards
/// once, and everyone gets the same answer.
#[test]
fn concurrent_cold_segments_coalesce_onto_one_scatter_gather() {
    let full = BankGenerator::default().to_relation(20_000, 5);
    let (shards, addrs) = shard_servers(&full, &[7_000, 14_000]);
    let coord = coordinator(&addrs);
    let spec = [QuerySpec::boolean("Balance", "CardLoan")];
    let barrier = std::sync::Barrier::new(8);
    let answers: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    coord.run_segment(&spec, 1)[0].encode()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(answers[0].starts_with("{\"ok\":"), "{}", answers[0]);
    assert!(answers.iter().all(|a| *a == answers[0]));

    let stats = coord.stats(None).encode();
    assert_eq!(ok_field(&stats, "scans"), 1, "{stats}");
    assert_eq!(ok_field(&stats, "bucketizations"), 1, "{stats}");
    // Each segment looks its scan up twice — once as a plan node, once
    // to assemble — and only the leader's first lookup computed.
    assert_eq!(ok_field(&stats, "scan_cache_hits"), 15, "{stats}");
    // One merged partial per shard, for the one scan that ran.
    assert_eq!(ok_field(&stats, "merged_nodes"), 3, "{stats}");

    coord.drain_shards();
    for shard in shards {
        shard.join();
    }
}

/// The shard-internal frames are not part of the coordinator's public
/// surface: a client sending them gets an error, not a fan-out.
#[test]
fn shard_internal_frames_are_rejected_at_the_coordinator() {
    let full = integer_relation(200);
    let (shards, addrs) = shard_servers(&full, &[100]);
    let coord = serve_service(
        Arc::new(coordinator(&addrs)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind coordinator");

    let lines = rt(
        coord.addr(),
        concat!(
            "{\"cmd\":\"values\",\"attr\":\"A\",\"indices\":[0]}\n",
            "{\"cmd\":\"count\",\"attr\":\"A\",\"cuts\":[],\"threads\":1,\"all_booleans\":true}\n",
        ),
    );
    assert_eq!(
        lines[0],
        "{\"error\":\"bad request: \\\"values\\\" is a shard-internal frame\"}"
    );
    assert_eq!(
        lines[1],
        "{\"error\":\"bad request: \\\"count\\\" is a shard-internal frame\"}"
    );

    coord.shutdown();
    coord.join();
    for shard in shards {
        shard.join();
    }
}

/// Connecting to shards that disagree on the schema must fail up
/// front, not at query time.
#[test]
fn mismatched_shard_schemas_are_rejected_at_connect() {
    let a = serve(
        Arc::new(SharedEngine::with_config(integer_relation(50), config())),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let b = serve(
        Arc::new(SharedEngine::with_config(
            BankGenerator::default().to_relation(50, 1),
            config(),
        )),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let err = Coordinator::connect(
        &[a.addr().to_string(), b.addr().to_string()],
        config(),
        CacheConfig::default(),
        CoordConfig::default(),
    )
    .err()
    .expect("schema mismatch must fail");
    assert!(
        err.to_string().contains("different schema"),
        "unexpected error: {err}"
    );
    for handle in [a, b] {
        handle.shutdown();
        handle.join();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Property: for any integer-valued relation, any split point, and
    /// any spec parameters, the coordinator over two shards answers
    /// exactly like the flat-relation oracle — at several fan-out
    /// widths.
    #[test]
    fn coordinator_equals_flat_oracle(
        rows in 60u64..400,
        cut_ppm in 0u32..=1_000,
        buckets in 5usize..40,
        min_support in 5u64..30,
        min_confidence in 40u64..80,
        min_average in 0u32..400,
    ) {
        let cut = rows * u64::from(cut_ppm) / 1_000;
        let full = integer_relation(rows);
        let mut avg = QuerySpec::average("A", "T");
        avg.min_average = Some(Real(f64::from(min_average)));
        avg.buckets = Some(buckets);
        let mut boolean = QuerySpec::boolean("A", "C");
        boolean.buckets = Some(buckets);
        boolean.min_support = Some(Ratio::percent(min_support));
        boolean.min_confidence = Some(Ratio::percent(min_confidence));
        let mut given = QuerySpec::boolean("T", "C");
        given.given = vec![CondSpec::NumInRange {
            attr: "A".into(),
            lo: Real(100.0),
            hi: Real(800.0),
        }];
        let specs = vec![avg, boolean, given];

        let oracle = SharedEngine::with_config(slice_rel(&full, 0..full.len()), config());
        let expected: Vec<String> = specs
            .iter()
            .map(|spec| match oracle.run_spec(spec) {
                Ok(rules) => json::ok_envelope(json::rule_set_to_value(&rules)).encode(),
                Err(e) => json::error_envelope(e.to_string()).encode(),
            })
            .collect();

        let (shards, addrs) = shard_servers(&full, &[cut]);
        let coord = coordinator(&addrs);
        for threads in [1usize, 4] {
            let got: Vec<String> = coord
                .run_segment(&specs, threads)
                .into_iter()
                .map(|v| v.encode())
                .collect();
            prop_assert_eq!(&got, &expected, "threads={}", threads);
        }
        for shard in shards {
            shard.shutdown();
            shard.join();
        }
    }
}
