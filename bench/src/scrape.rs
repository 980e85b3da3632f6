//! Source **B** of the per-layer metrics: the server's own
//! `{"cmd":"stats"}` and `{"cmd":"metrics"}` frames, scraped once
//! before and once after the window (never inside it) and subtracted.

use crate::loadgen::Conn;
use optrules_core::json::{Json, Num};

/// The value at `path` inside nested objects (array steps are decimal
/// indices), if every step exists.
pub fn at<'a>(value: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(value, |v, key| match v {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        Json::Arr(items) => key.parse::<usize>().ok().and_then(|i| items.get(i)),
        _ => None,
    })
}

/// The number at `path`, if there is one.
pub fn number(value: &Json, path: &[&str]) -> Option<f64> {
    match at(value, path)? {
        Json::Num(Num::UInt(u)) => Some(*u as f64),
        Json::Num(Num::Int(i)) => Some(*i as f64),
        Json::Num(Num::Float(x)) => Some(*x),
        _ => None,
    }
}

/// The counter at `path`; absent counters read as zero (a single-node
/// snapshot has no `shard_rpcs`, a coordinator's has no `evictions`).
pub fn num(value: &Json, path: &[&str]) -> f64 {
    number(value, path).unwrap_or(0.0)
}

/// One control frame, unwrapped from its `{"ok":…}` envelope.
pub fn control(conn: &mut Conn, cmd: &str) -> Result<Json, String> {
    let line = format!("{{\"cmd\":\"{cmd}\"}}");
    let (_, reply) = conn
        .roundtrip(&line)
        .map_err(|e| format!("{cmd} frame: {e}"))?;
    let value = Json::parse(reply).map_err(|e| format!("{cmd} frame: unparseable reply: {e}"))?;
    match at(&value, &["ok"]) {
        Some(payload) => Ok(payload.clone()),
        None => Err(format!("{cmd} frame answered {reply}")),
    }
}

/// Both frames at one instant.
pub struct Snapshot {
    pub stats: Json,
    pub metrics: Json,
}

impl Snapshot {
    pub fn take(conn: &mut Conn) -> Result<Snapshot, String> {
        Ok(Snapshot {
            stats: control(conn, "stats")?,
            metrics: control(conn, "metrics")?,
        })
    }
}

/// `after − before`, over both frames.
pub struct Delta<'a> {
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

impl Delta<'_> {
    /// Growth of a `stats` counter.
    pub fn stat(&self, path: &[&str]) -> f64 {
        num(&self.after.stats, path) - num(&self.before.stats, path)
    }

    /// Growth of a `metrics` histogram: `(count, sum_ns)`.
    pub fn hist(&self, path: &[&str]) -> (f64, f64) {
        let field = |snap: &Snapshot, leaf: &str| {
            let mut full = path.to_vec();
            full.push(leaf);
            num(&snap.metrics, &full)
        };
        (
            field(self.after, "count") - field(self.before, "count"),
            field(self.after, "sum_ns") - field(self.before, "sum_ns"),
        )
    }

    /// How many backend shards a coordinator's metrics frame lists.
    pub fn coord_shards(&self) -> usize {
        match at(&self.after.metrics, &["coord", "shards"]) {
            Some(Json::Arr(items)) => items.len(),
            _ => 0,
        }
    }
}

/// `a / b`, or zero when the layer saw no work at all.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(stats: &str, metrics: &str) -> Snapshot {
        Snapshot {
            stats: Json::parse(stats).unwrap(),
            metrics: Json::parse(metrics).unwrap(),
        }
    }

    #[test]
    fn deltas_subtract_counters_and_histograms() {
        let before = snap(
            r#"{"scans":4,"rows":1000}"#,
            r#"{"engine":{"kernel_scan":{"count":4,"sum_ns":4000}},"coord":{"shards":[{"values":{"count":1,"sum_ns":10}}]}}"#,
        );
        let after = snap(
            r#"{"scans":9,"rows":1000,"evictions":2}"#,
            r#"{"engine":{"kernel_scan":{"count":9,"sum_ns":10500}},"coord":{"shards":[{"values":{"count":3,"sum_ns":70}}]}}"#,
        );
        let d = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.stat(&["scans"]), 5.0);
        assert_eq!(d.stat(&["evictions"]), 2.0);
        assert_eq!(d.stat(&["shard_rpcs"]), 0.0);
        assert_eq!(d.hist(&["engine", "kernel_scan"]), (5.0, 6500.0));
        assert_eq!(d.hist(&["coord", "shards", "0", "values"]), (2.0, 60.0));
        assert_eq!(d.hist(&["durability", "checkpoint"]), (0.0, 0.0));
        assert_eq!(d.coord_shards(), 1);
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(ratio(6.0, 0.0), 0.0);
    }
}
