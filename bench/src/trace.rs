//! In-memory span recorder for the traced replay.
//!
//! A span is `(id, parent, name, request, start, end)`; spans of one
//! request share its index. Spans stay in memory and are written out
//! once, when the run ends. A span's *self time* is its duration minus
//! the part its child spans cover, so a request's self times sum to the
//! request span's duration exactly.

use optrules_core::json::{Json, Num};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. Disabled, it calls straight
/// through — the same pipeline runs with and without it, which is how
/// the ledger prices its own tracing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    open: Vec<usize>,
    request: usize,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            open: Vec::new(),
            request: 0,
            spans: Vec::new(),
        }
    }

    /// Spans recorded from now on belong to request `index`.
    pub fn set_request(&mut self, index: usize) {
        self.request = index;
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open on this recorder.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            request: self.request,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }
}

/// Self time of every span: duration minus its direct children's
/// durations (children never overlap on a single-threaded recorder).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Per span name: how many spans, their summed self time, and the
/// median over requests of the self time that name took in a request
/// (requests in which the name never ran count as zero).
#[derive(Debug, Clone, PartialEq)]
pub struct NameRow {
    pub name: &'static str,
    pub spans: usize,
    pub self_total_ns: u64,
    pub self_per_request_p50_ns: u64,
    pub dur_p50_ns: u64,
}

pub fn median(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[(values.len() - 1) / 2]
}

pub fn table(spans: &[Span]) -> Vec<NameRow> {
    let own = self_times(spans);
    let requests: Vec<usize> = {
        let mut r: Vec<usize> = spans.iter().map(|s| s.request).collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    let mut by_name: BTreeMap<&'static str, BTreeMap<usize, u64>> = BTreeMap::new();
    let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for span in spans {
        *by_name
            .entry(span.name)
            .or_default()
            .entry(span.request)
            .or_default() += own[span.id];
        durs.entry(span.name).or_default().push(span.dur_ns());
    }
    by_name
        .into_iter()
        .map(|(name, per_request)| {
            let mut per: Vec<u64> = requests
                .iter()
                .map(|r| per_request.get(r).copied().unwrap_or(0))
                .collect();
            let durs = durs.get_mut(name).expect("every name has durations");
            NameRow {
                name,
                spans: durs.len(),
                self_total_ns: per_request.values().sum(),
                self_per_request_p50_ns: median(&mut per),
                dur_p50_ns: median(durs),
            }
        })
        .collect()
}

/// The trace document: every span plus the per-name self-time table.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let num = |n: u64| Json::Num(Num::UInt(n));
    let span_values = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("id".into(), num(s.id as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| num(p as u64)),
                ),
                ("name".into(), Json::Str(s.name.into())),
                ("workload".into(), Json::Str(workload.into())),
                ("request".into(), num(s.request as u64)),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
            ])
        })
        .collect();
    let rows = table(spans)
        .into_iter()
        .map(|row| {
            Json::Obj(vec![
                ("name".into(), Json::Str(row.name.into())),
                ("spans".into(), num(row.spans as u64)),
                ("self_total_ns".into(), num(row.self_total_ns)),
                (
                    "self_per_request_p50_ns".into(),
                    num(row.self_per_request_p50_ns),
                ),
                ("dur_p50_ns".into(), num(row.dur_p50_ns)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("self_time_table".into(), Json::Arr(rows)),
        ("spans".into(), Json::Arr(span_values)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        request: usize,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            request,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        let spans = vec![
            span(0, None, "request", 0, 0, 100),
            span(1, Some(0), "parse", 0, 5, 15),
            span(2, Some(0), "scan", 0, 20, 90),
            span(3, Some(2), "decode", 0, 30, 70),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 10, 30, 40]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn table_takes_the_median_over_requests_counting_absent_names_as_zero() {
        let spans = vec![
            span(0, None, "request", 0, 0, 50),
            span(1, Some(0), "scan", 0, 10, 40),
            span(2, None, "request", 1, 100, 110),
            span(3, None, "request", 2, 200, 260),
            span(4, Some(3), "scan", 2, 210, 250),
        ];
        let rows = table(&spans);
        let scan = rows.iter().find(|r| r.name == "scan").unwrap();
        // Per request: 30, 0 (absent), 40 → median 30.
        assert_eq!(
            (scan.spans, scan.self_total_ns, scan.self_per_request_p50_ns),
            (2, 70, 30)
        );
        let request = rows.iter().find(|r| r.name == "request").unwrap();
        assert_eq!(request.self_per_request_p50_ns, 20);
        assert_eq!(request.dur_p50_ns, 50);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.set_request(7);
        let out = rec.span("outer", |rec| rec.span("inner", |_| 42));
        assert_eq!(out, 42);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].request, 7);
        assert!(rec.spans[0].start_ns <= rec.spans[1].start_ns);
        assert!(rec.spans[1].end_ns <= rec.spans[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |rec| rec.span("inner", |_| 1)), 1);
        assert!(off.spans.is_empty());

        let doc = to_json("w", &rec.spans).encode();
        assert!(doc.contains("\"self_time_table\"") && doc.contains("\"parent\":0"));
    }
}
