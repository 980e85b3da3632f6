//! The ledger's names: every workload and metric it can print. The
//! root `BENCHMARK.json` must list exactly these (a unit test parses
//! it and fails on drift); `bench/README.md` is the glossary.

/// One traffic mix. `why` is the one-liner `BENCHMARK.json` carries.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "warm_serve",
        why: "1M rows, 2 connections, 240 pooled 1-D specs all cached: codecs, plan, cache hit and O(M) optimizers do the work, scans none",
    },
    Workload {
        name: "cold_scan",
        why: "1M rows, 1 connection, 1 MiB cache, every request a unique seed: sampling, file decode and counting kernels do ~90% of the work",
    },
    Workload {
        name: "append_requery",
        why: "200k rows, durable data-dir, fsync per 100-row append then a requery that is cold because the generation moved: writes beside reads",
    },
    Workload {
        name: "rect2d",
        why: "200k rows, 2 connections, 72 pooled 48x48 rectangle specs over 9 cached grids: the O(nx^2 ny) region2d sweeps do all the work",
    },
    Workload {
        name: "coord_cold",
        why: "200k rows sliced over 2 serve shards behind coord on one CPU, the cold cycle at 384 buckets, 0-20 ms think time: shard RPC, number-heavy JSON, merge and one delayed-ACK timer dominate a small scan",
    },
];

/// One end-to-end metric: what a client of the server sees. `bound` is
/// the share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "lat_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "append_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "server_cpu_ms_per_req",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "server_rss_peak_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// One per-layer metric. Layers are the repository's modules; the
/// prefix of the name is the module it measures.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// The direction `BENCHMARK.json` declares; only the drift guard
    /// reads it (per-layer metrics have no bound to apply it to).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

pub const PER_LAYER: [Layer; 78] = [
    // relation
    layer("relation.file.open_ms", "ms", "lower"),
    layer("relation.file.block_decode_ns_per_row", "ns", "lower"),
    layer("relation.file.random_read_us_per_k", "us", "lower"),
    layer("relation.chunked.append_us_per_frame", "us", "lower"),
    layer("relation.durable.append_us_per_frame", "us", "lower"),
    layer("relation.durable.fsyncs_per_frame", "count", "lower"),
    layer("relation.durable.checkpoints", "count", "lower"),
    layer("relation.durable.checkpoint_ms_mean", "ms", "lower"),
    layer("relation.durable.disk_bytes_per_row", "B", "lower"),
    layer("relation.durable.recover_ms", "ms", "lower"),
    // bucketing
    layer("bucketing.equidepth.cuts_ms", "ms", "lower"),
    layer("bucketing.sampling.fetch_ms", "ms", "lower"),
    layer("bucketing.boundaries.sort_cut_ms", "ms", "lower"),
    layer("bucketing.kernel.scan_ns_per_row", "ns", "lower"),
    layer("bucketing.kernel.scan_mem_ns_per_row", "ns", "lower"),
    layer("bucketing.kernel.scan_given_ns_per_row", "ns", "lower"),
    layer("bucketing.parallel.scan_t2_ns_per_row", "ns", "lower"),
    // core: codecs and plan
    layer("core.json.parse_request_us", "us", "lower"),
    layer("core.json.encode_response_us", "us", "lower"),
    layer("core.json.append_decode_us_per_frame", "us", "lower"),
    layer("core.json.counts_codec_us", "us", "lower"),
    layer("core.json.values_codec_us", "us", "lower"),
    layer("core.plan.resolve_us", "us", "lower"),
    layer("core.plan.compile_us", "us", "lower"),
    layer("core.plan.scan_nodes_per_spec", "count", "lower"),
    layer("core.plan.assemble_us", "us", "lower"),
    // core: optimizers, geometry
    layer("core.confidence.optimize_us", "us", "lower"),
    layer("core.support.optimize_us", "us", "lower"),
    layer("core.average.optimize_us", "us", "lower"),
    layer("geometry.max_slope_us", "us", "lower"),
    layer("core.region2d.sweep_ms", "ms", "lower"),
    layer("core.region2d.grid_scan_ns_per_row", "ns", "lower"),
    // core: engine, cache, server
    layer("core.shared.run_spec_warm_us", "us", "lower"),
    layer("core.shared.run_spec_cold_ms", "ms", "lower"),
    layer("core.cache.lookup_us", "us", "lower"),
    layer("core.shared.append_us_per_frame", "us", "lower"),
    layer("core.cache.hit_ratio", "ratio", "higher"),
    layer("core.cache.evictions_per_req", "count", "lower"),
    layer("core.cache.coalesced_waits", "count", "lower"),
    layer("core.engine.kernel_scans_per_req", "count", "lower"),
    layer("core.engine.fallback_scans", "count", "lower"),
    layer("core.engine.bucketize_ms_per_req", "ms", "lower"),
    layer("core.engine.kernel_scan_ms_per_req", "ms", "lower"),
    layer("core.engine.optimize_us_per_req", "us", "lower"),
    layer("core.server.queue_wait_us", "us", "lower"),
    layer("core.server.batch_execute_ms_per_req", "ms", "lower"),
    layer("core.server.response_write_us_per_req", "us", "lower"),
    layer("core.server.rtt_floor_us", "us", "lower"),
    // coord
    layer("coord.run_segment_cold_ms", "ms", "lower"),
    layer("coord.shardset.values_rpc_ms_per_req", "ms", "lower"),
    layer("coord.shardset.count_rpc_ms_per_req", "ms", "lower"),
    layer("coord.merge_us_per_req", "us", "lower"),
    layer("coord.optimize_us_per_req", "us", "lower"),
    layer("coord.shard_rpcs_per_req", "count", "lower"),
    layer("coord.shard_retries", "count", "lower"),
    layer("coord.shard_errors", "count", "lower"),
    layer("coord.cold_overhead_ratio", "ratio", "lower"),
    // the client's own view and the ledger's bookkeeping
    layer("client.lat_samples", "count", "higher"),
    layer("client.lat_tail_pct", "%", "higher"),
    layer("client.lat_tail_ms", "ms", "lower"),
    layer("client.append_samples", "count", "higher"),
    layer("client.append_p90_ms", "ms", "lower"),
    layer("client.window_append_p50_ms", "ms", "lower"),
    layer("trace.requests", "count", "higher"),
    layer("trace.spans", "count", "higher"),
    layer("trace.request_p50_ms", "ms", "lower"),
    layer("trace.self.json_ms", "ms", "lower"),
    layer("trace.self.plan_ms", "ms", "lower"),
    layer("trace.self.bucketize_ms", "ms", "lower"),
    layer("trace.self.scan_ms", "ms", "lower"),
    layer("trace.self.optimize_ms", "ms", "lower"),
    layer("trace.self.append_ms", "ms", "lower"),
    layer("trace.self.glue_ms", "ms", "lower"),
    layer("e2e.data_pass_share_pct", "%", "lower"),
    layer("e2e.optimize_share_pct", "%", "lower"),
    layer("e2e.unattributed_ms", "ms", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.oracle_checked", "count", "higher"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrules_core::json::{Json, Num};

    /// The contract's rule for a workload or metric name.
    fn legal_name(name: &str) -> bool {
        matches!(name.chars().next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn field<'a>(value: &'a Json, key: &str) -> &'a Json {
        crate::scrape::at(value, &[key]).unwrap_or_else(|| panic!("BENCHMARK.json lacks {key:?}"))
    }

    fn text(value: &Json, key: &str) -> String {
        match field(value, key) {
            Json::Str(s) => s.clone(),
            other => panic!("{key:?} is not a string: {other:?}"),
        }
    }

    fn items<'a>(value: &'a Json, key: &str) -> &'a [Json] {
        match field(value, key) {
            Json::Arr(items) => items,
            other => panic!("{key:?} is not an array: {other:?}"),
        }
    }

    /// The drift guard: the committed `BENCHMARK.json` and this
    /// registry name the same workloads and metrics, with the same
    /// units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("root BENCHMARK.json is readable");
        let doc = Json::parse(&raw).expect("BENCHMARK.json is JSON");

        // The frame around the names: one directory, one command, and
        // the window `ledger all` uses by default.
        assert_eq!(items(&doc, "paths"), [Json::Str("bench".into())]);
        assert_eq!(
            items(&doc, "command"),
            [Json::Str("bash".into()), Json::Str("bench/run.sh".into())]
        );
        assert_eq!(
            field(&doc, "run_seconds"),
            &Json::Num(Num::UInt(crate::DEFAULT_SECONDS as u64))
        );

        let workloads: Vec<(String, String)> = items(&doc, "workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(String, String, String, f64)> = items(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = match field(m, "bound") {
                    Json::Num(Num::Float(x)) => *x,
                    Json::Num(Num::UInt(u)) => *u as f64,
                    other => panic!("bound is not a number: {other:?}"),
                };
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = items(&doc, "per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn every_name_is_legal_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(legal_name(name), "illegal name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(
            !legal_name(".hidden")
                && !legal_name("a b")
                && !legal_name("1/s")
                && legal_name("9.a_b-c")
        );
    }
}
