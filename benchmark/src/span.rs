//! Driver-side spans: where a round's host time went.
//!
//! The benchmark records a span around each call it makes into the
//! program; nothing here runs inside the program. A span is a name, a
//! start, an end and the span that was open when it started. Spans are
//! aggregated per name (count, total, self time, log₂ histogram) as they
//! close, one reference in [`RAW_EVERY`] keeps its spans raw, and
//! everything stays in memory until the run ends.
//!
//! Self time is a span's duration minus the part its direct children
//! cover. Reading the clock is not free, so [`Spans::calibrate`] measures
//! what one reading and one leaf record cost, and [`Spans::report`]
//! subtracts them. Every interval between two readings holds about one
//! reading: a leaf's own, and on the parent's time the one that starts
//! each reference's group of leaves. The leaf records are written on the
//! parent's time too.

use std::time::Instant;

use serde_json::{json, Map, Value};

/// One reference in this many keeps its per-reference spans raw.
pub const RAW_EVERY: u64 = 1_024;

/// The per-reference leaf spans, by index into the name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    AccessHit = 0,
    AccessFaultNoIo = 1,
    AccessFaultIo = 2,
    AccessErr = 3,
    Charge = 4,
    Pump = 5,
}

const LEAF_NAMES: [&str; 6] = [
    "access.hit",
    "access.fault_noio",
    "access.fault_io",
    "access.err",
    "charge",
    "pump",
];

/// What the replay loop is written against. [`Off`] compiles to nothing,
/// so the timed rounds run the same loop with no probe in it.
pub trait Probe {
    /// The clock, ns since the recorder was made.
    fn now(&mut self) -> u64;
    /// Opens a span as a child of the innermost open span.
    fn open(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn close(&mut self);
    /// Records a finished span `[start, end]` under the innermost open one.
    fn leaf(&mut self, leaf: Leaf, start: u64, end: u64);
    /// Marks the start of the next reference (raw-span sampling).
    fn next_ref(&mut self);
}

/// Tracing off.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn now(&mut self) -> u64 {
        0
    }
    #[inline(always)]
    fn open(&mut self, _: &'static str) {}
    #[inline(always)]
    fn close(&mut self) {}
    #[inline(always)]
    fn leaf(&mut self, _: Leaf, _: u64, _: u64) {}
    #[inline(always)]
    fn next_ref(&mut self) {}
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Agg {
    count: u64,
    total_ns: u64,
    /// Σ over closes of (duration − direct children's durations).
    self_ns: u64,
    /// Leaf records written, and references started, while a span of this
    /// name was innermost.
    leaf_records: u64,
    refs: u64,
    /// `log2[i]` counts durations in `[2^(i-1), 2^i)` ns; `log2[0]` is 0 ns.
    log2: Vec<u64>,
}

impl Agg {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        let bucket = (u64::BITS - ns.leading_zeros()) as usize;
        if self.log2.len() <= bucket {
            self.log2.resize(bucket + 1, 0);
        }
        self.log2[bucket] += 1;
    }
}

struct Open {
    name: usize,
    raw_id: u32,
    start: u64,
    child_ns: u64,
    leaf_records: u64,
    refs: u64,
}

struct Raw {
    id: u32,
    parent: u32,
    name: usize,
    start: u64,
    end: u64,
}

/// Per-name totals with the measurement's own cost taken out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanReport {
    pub name: &'static str,
    pub count: u64,
    /// Σ durations, minus one clock reading per span.
    pub total_ns: f64,
    /// Σ self times, minus one clock reading per span and per reference
    /// started under it, and one leaf record per leaf written under it.
    pub self_ns: f64,
}

/// The span recorder of a traced round.
pub struct Spans {
    epoch: Instant,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    stack: Vec<Open>,
    raws: Vec<Raw>,
    next_raw_id: u32,
    refs_seen: u64,
    keep_ref: bool,
    /// Host ns per clock reading and per leaf record (see `calibrate`).
    pub timer_ns: f64,
    pub leaf_record_ns: f64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            names: LEAF_NAMES.to_vec(),
            aggs: vec![Agg::default(); LEAF_NAMES.len()],
            stack: Vec::new(),
            raws: Vec::new(),
            next_raw_id: 1,
            refs_seen: 0,
            keep_ref: false,
            timer_ns: 0.0,
            leaf_record_ns: 0.0,
        }
    }

    /// Measures the cost of one clock reading and of one leaf record on a
    /// scratch recorder: the fastest of 16 batches of each.
    pub fn calibrate(&mut self) {
        const N: u64 = 4_096;
        let mut scratch = Spans::new();
        scratch.open_at("calibrate", 0);
        let per_op = |f: &mut dyn FnMut()| -> f64 {
            (0..16)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_nanos() as f64 / N as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        self.timer_ns = per_op(&mut || {
            for _ in 0..N {
                std::hint::black_box(scratch.now());
            }
        });
        self.leaf_record_ns = per_op(&mut || {
            for i in 0..N {
                scratch.next_ref();
                scratch.leaf(Leaf::Charge, i, i + std::hint::black_box(40));
            }
        });
    }

    fn name_id(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return i;
        }
        self.names.push(name);
        self.aggs.push(Agg::default());
        self.names.len() - 1
    }

    fn open_at(&mut self, name: &'static str, start: u64) {
        let name = self.name_id(name);
        let raw_id = self.next_raw_id;
        self.next_raw_id += 1;
        self.stack.push(Open {
            name,
            raw_id,
            start,
            child_ns: 0,
            leaf_records: 0,
            refs: 0,
        });
    }

    fn close_at(&mut self, end: u64) {
        let open = self.stack.pop().expect("close without open");
        let ns = end.saturating_sub(open.start);
        let agg = &mut self.aggs[open.name];
        agg.record(ns);
        agg.self_ns += ns.saturating_sub(open.child_ns);
        agg.leaf_records += open.leaf_records;
        agg.refs += open.refs;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += ns;
                p.raw_id
            }
            None => 0,
        };
        self.raws.push(Raw {
            id: open.raw_id,
            parent,
            name: open.name,
            start: open.start,
            end,
        });
    }

    /// Per-name totals, corrected for the calibrated measurement cost.
    pub fn report(&self) -> Vec<SpanReport> {
        self.names
            .iter()
            .zip(&self.aggs)
            .map(|(&name, a)| {
                let own = a.count as f64 * self.timer_ns;
                let under =
                    a.refs as f64 * self.timer_ns + a.leaf_records as f64 * self.leaf_record_ns;
                SpanReport {
                    name,
                    count: a.count,
                    total_ns: (a.total_ns as f64 - own).max(0.0),
                    self_ns: (a.self_ns as f64 - own - under).max(0.0),
                }
            })
            .collect()
    }

    /// The whole recording: calibration, per-name aggregates (measured and
    /// corrected) and the raw parented spans.
    pub fn to_json(&self) -> Value {
        let mut spans = Map::new();
        for (r, a) in self.report().iter().zip(&self.aggs) {
            if a.count == 0 {
                continue;
            }
            spans.insert(
                r.name.to_string(),
                json!({
                    "count": a.count,
                    "measured_total_ns": a.total_ns,
                    "measured_self_ns": a.self_ns,
                    "total_ns": r.total_ns,
                    "self_ns": r.self_ns,
                    "log2_hist": a.log2.clone(),
                }),
            );
        }
        let raw: Vec<Value> = self
            .raws
            .iter()
            .map(|r| {
                json!({
                    "id": r.id,
                    "parent": r.parent,
                    "name": self.names[r.name],
                    "start_ns": r.start,
                    "end_ns": r.end,
                })
            })
            .collect();
        json!({
            "timer_ns": self.timer_ns,
            "leaf_record_ns": self.leaf_record_ns,
            "raw_every": RAW_EVERY,
            "spans": Value::Object(spans),
            "raw": raw,
        })
    }
}

impl Probe for Spans {
    #[inline]
    fn now(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let start = self.now();
        self.open_at(name, start);
    }

    fn close(&mut self) {
        let end = self.now();
        self.close_at(end);
    }

    #[inline]
    fn leaf(&mut self, leaf: Leaf, start: u64, end: u64) {
        let ns = end.saturating_sub(start);
        let agg = &mut self.aggs[leaf as usize];
        agg.record(ns);
        agg.self_ns += ns;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += ns;
                p.leaf_records += 1;
                p.raw_id
            }
            None => 0,
        };
        if self.keep_ref {
            let id = self.next_raw_id;
            self.next_raw_id += 1;
            self.raws.push(Raw {
                id,
                parent,
                name: leaf as usize,
                start,
                end,
            });
        }
    }

    #[inline]
    fn next_ref(&mut self) {
        self.keep_ref = self.refs_seen.is_multiple_of(RAW_EVERY);
        self.refs_seen += 1;
        if let Some(p) = self.stack.last_mut() {
            p.refs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_name<'a>(report: &'a [SpanReport], name: &str) -> &'a SpanReport {
        report.iter().find(|r| r.name == name).expect(name)
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let mut s = Spans::new();
        s.open_at("round", 0);
        s.open_at("replay", 100);
        s.leaf(Leaf::AccessHit, 110, 150);
        s.leaf(Leaf::Pump, 150, 170);
        s.close_at(200);
        s.open_at("teardown", 200);
        s.close_at(230);
        s.close_at(1_000);
        let r = s.report();
        // replay: 100 long, leaves cover 60.
        assert_eq!(by_name(&r, "replay").total_ns, 100.0);
        assert_eq!(by_name(&r, "replay").self_ns, 40.0);
        // round: 1000 long; its direct children (replay, teardown) cover
        // 130 — the leaves are grandchildren and must not count twice.
        assert_eq!(by_name(&r, "round").self_ns, 870.0);
        assert_eq!(by_name(&r, "access.hit").total_ns, 40.0);
        assert_eq!(by_name(&r, "access.hit").self_ns, 40.0);
        assert_eq!(by_name(&r, "pump").count, 1);
    }

    #[test]
    fn same_name_spans_aggregate_and_fill_the_log2_histogram() {
        let mut s = Spans::new();
        s.open_at("replay", 0);
        for (start, end) in [(0, 0), (0, 1), (1, 4), (4, 7), (7, 1_031)] {
            s.leaf(Leaf::Charge, start, end);
        }
        s.close_at(1_031);
        let agg = &s.aggs[Leaf::Charge as usize];
        assert_eq!(agg.count, 5);
        assert_eq!(agg.total_ns, 1_031);
        // 0 ns → bucket 0, 1 → 1, 3 → 2 (twice), 1024 → 11.
        assert_eq!(agg.log2, vec![1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn calibrated_costs_are_subtracted_and_never_go_negative() {
        let mut s = Spans::new();
        s.timer_ns = 10.0;
        s.leaf_record_ns = 5.0;
        s.open_at("replay", 0);
        s.next_ref();
        s.leaf(Leaf::AccessHit, 0, 50);
        s.leaf(Leaf::AccessHit, 50, 58);
        s.close_at(100);
        let r = s.report();
        // Two hits of 50 and 8 ns, one reading each: 58 − 20.
        assert_eq!(by_name(&r, "access.hit").total_ns, 38.0);
        // replay self: 100 − 58 children − its own reading − the reading
        // that started the reference − 2 leaf records.
        assert_eq!(by_name(&r, "replay").self_ns, 12.0);
        // A cost larger than the measurement clamps at zero.
        s.timer_ns = 1_000.0;
        assert_eq!(by_name(&s.report(), "access.hit").total_ns, 0.0);
    }

    #[test]
    fn calibration_measures_a_plausible_clock() {
        let mut s = Spans::new();
        s.calibrate();
        assert!(s.timer_ns > 0.0 && s.timer_ns < 10_000.0, "{}", s.timer_ns);
        assert!(
            s.leaf_record_ns > 0.0 && s.leaf_record_ns < 10_000.0,
            "{}",
            s.leaf_record_ns
        );
    }

    #[test]
    fn one_reference_in_1024_keeps_its_leaves_raw_with_their_parent() {
        let mut s = Spans::new();
        s.open_at("replay", 0);
        for i in 0..2_048u64 {
            s.next_ref();
            s.leaf(Leaf::AccessHit, i, i + 1);
            s.leaf(Leaf::Pump, i + 1, i + 2);
        }
        s.close_at(5_000);
        let json = s.to_json();
        let raw = json
            .as_object()
            .and_then(|o| o.get("raw"))
            .and_then(Value::as_array)
            .expect("raw");
        // References 0 and 1024 keep two leaves each, plus the replay span.
        assert_eq!(raw.len(), 5);
        let parent_of = |v: &Value| v.as_object().unwrap().get("parent").unwrap().as_u64();
        let replay_id = raw[4].as_object().unwrap().get("id").unwrap().as_u64();
        assert_eq!(parent_of(&raw[0]), replay_id);
        assert_eq!(parent_of(&raw[4]), Some(0));
    }
}
