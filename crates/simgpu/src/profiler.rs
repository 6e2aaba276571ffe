//! Per-operation profiling in the style of the paper's Tables I and II.
//!
//! Every device operation (kernel launch, H2D transfer, D2H transfer, host
//! fallback step) is recorded under a name. [`Profiler::table`] renders a
//! grouped report with the exact columns of the paper:
//!
//! ```text
//! Operation            #calls   GPU time(usec)   GPU time(%)
//! H. Filter (3 kernels)   300           844185         29.51
//! ...
//! Total                     -          2.86sec        100.00
//! ```
//!
//! # Charging
//!
//! Every operation name is interned once per profiler: its `Arc<str>` is
//! the key of the name table and the name of its [`Record`]. The records
//! live in a vector of *slots*, and the name table maps each name to one
//! slot per [`OpClass`]. Charging an operation is therefore two steps:
//! [`Profiler::slot`] finds (or, the first time, creates) the slot of a
//! `(name, class)` by a borrowed `&str` lookup, and [`Profiler::charge`]
//! adds one call to that slot and pushes a 24-byte span record — start,
//! duration, slot index and stream, no name of its own. The device resolves
//! and charges in one go for every operation it runs; a timing replay
//! resolves each distinct operation of its witness once and then charges
//! slots only, so a replayed span costs neither an allocation, a search
//! nor a refcount. [`Profiler::spans`] rebuilds each [`Span`] as a borrowed
//! view from its slot's record. [`Profiler::records`] walks the name table,
//! so records come out by name and then by class whatever order their
//! slots were created in.

use std::collections::BTreeMap;
use std::sync::Arc;

/// What kind of operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// A kernel launch.
    Kernel,
    /// Host-to-device transfer (`memcpyHtoDasync` in the paper's tables).
    H2D,
    /// Device-to-host transfer (`memcpyDtoHasync`).
    D2H,
    /// Work that fell back to the host CPU (e.g. the generic output tiler).
    Host,
}

/// Accumulated measurements for one named operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Operation name (kernel name or transfer label), interned.
    pub name: Arc<str>,
    /// Operation kind.
    pub class: OpClass,
    /// Number of invocations recorded.
    pub calls: u64,
    /// Total simulated time, µs.
    pub total_us: f64,
}

/// A named aggregation over records, used to render table rows like
/// "H. Filter (3 kernels)".
#[derive(Debug, Clone)]
pub struct Group {
    /// Row label prefix; kernel count is appended automatically for kernels.
    pub label: String,
    /// Records are included when their name starts with any of these prefixes.
    pub prefixes: Vec<String>,
    /// Restrict matching to this class, if set.
    pub class: Option<OpClass>,
}

impl Group {
    /// Group kernels whose names start with `prefix`.
    pub fn kernels(label: impl Into<String>, prefix: impl Into<String>) -> Self {
        Group { label: label.into(), prefixes: vec![prefix.into()], class: Some(OpClass::Kernel) }
    }

    /// Group all operations of a class regardless of name.
    pub fn class(label: impl Into<String>, class: OpClass) -> Self {
        Group { label: label.into(), prefixes: vec![String::new()], class: Some(class) }
    }
}

/// One rendered table row.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Row label, e.g. `H. Filter (3 kernels)`.
    pub label: String,
    /// Calls per distinct operation in the group (the paper counts a group of
    /// three per-channel kernels launched 300 times each as "300 calls").
    pub calls: u64,
    /// Total simulated time of the group, µs.
    pub time_us: f64,
    /// Percentage of the grand total.
    pub percent: f64,
}

/// One scheduled interval on the device timeline: operation `name` occupied
/// its engine from `start_us` to `end_us`, enqueued on `stream`. A view of
/// one of the profiler's stored span records, borrowing its name from the
/// record of the span's slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span<'p> {
    /// Operation name (kernel name or transfer label), borrowed from the
    /// profiler's record of it.
    pub name: &'p str,
    /// Operation kind, which determines the engine it occupied.
    pub class: OpClass,
    /// Index of the stream the operation was enqueued on.
    pub stream: usize,
    /// Simulated start time, µs.
    pub start_us: f64,
    /// Simulated duration, µs. Stored directly (rather than an end time) so
    /// the exact charged cost survives — `end − start` can differ from the
    /// charge by an ulp, which would make timing replay inexact.
    pub dur_us: f64,
}

impl Span<'_> {
    /// Span duration, µs.
    pub fn duration_us(&self) -> f64 {
        self.dur_us
    }

    /// Simulated completion time, µs.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// What a [`Profiler`] stores per charged span: the times, the index of the
/// slot whose record names it, and the stream.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    start_us: f64,
    dur_us: f64,
    slot: u32,
    stream: u32,
}

const _: () = assert!(std::mem::size_of::<SpanRecord>() == 24);

/// The spans of a [`Profiler`] in enqueue order, as returned by
/// [`Profiler::spans`]. `count`, `nth` (and so `skip`) and `len` are O(1).
#[derive(Debug, Clone)]
pub struct Spans<'p> {
    slots: &'p [Record],
    spans: std::slice::Iter<'p, SpanRecord>,
}

impl<'p> Spans<'p> {
    fn view(&self, s: &SpanRecord) -> Span<'p> {
        let r = &self.slots[s.slot as usize];
        Span {
            name: &r.name,
            class: r.class,
            stream: s.stream as usize,
            start_us: s.start_us,
            dur_us: s.dur_us,
        }
    }
}

impl<'p> Iterator for Spans<'p> {
    type Item = Span<'p>;

    fn next(&mut self) -> Option<Span<'p>> {
        self.spans.next().map(|s| self.view(s))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.spans.size_hint()
    }

    fn count(self) -> usize {
        self.spans.len()
    }

    fn nth(&mut self, n: usize) -> Option<Span<'p>> {
        self.spans.nth(n).map(|s| self.view(s))
    }
}

impl ExactSizeIterator for Spans<'_> {}

/// Device-memory allocation counters for one run.
///
/// The device updates these on every `malloc`/`free`; [`Profiler::reset`]
/// clears them for a fresh run without touching the device's own allocation
/// accounting (memory stays allocated across a stat reset — only the
/// observation window restarts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AllocStats {
    /// Allocations that reached the (simulated) driver: naive mallocs plus
    /// pool misses. Pool hits are *not* counted here.
    pub mallocs: u64,
    /// Buffer releases: driver frees plus returns to the pool.
    pub frees: u64,
    /// Allocation requests served from the pool cache.
    pub pool_hits: u64,
    /// Allocation requests the pool could not serve (fell through to the
    /// driver). Zero when pooling is disabled — misses only count against an
    /// active pool.
    pub pool_misses: u64,
    /// Pool-cached blocks evicted back to the driver under memory pressure.
    pub evictions: u64,
    /// Device footprint (live + pool-cached bytes) after the last event.
    pub current_bytes: usize,
    /// High-water footprint over the observation window.
    pub peak_bytes: usize,
}

impl AllocStats {
    /// Pool hit rate in percent (0 when no pooled request was seen).
    pub fn hit_rate_percent(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64 * 100.0
        }
    }
}

/// The record of one `(name, class)` in a [`Profiler`]'s table, as
/// returned by [`Profiler::slot`]. A slot belongs to the profiler that
/// resolved it and stays valid until that profiler's next
/// [`Profiler::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    index: u32,
    class: OpClass,
}

impl Slot {
    /// Operation kind of the slot's record.
    pub(crate) fn class(self) -> OpClass {
        self.class
    }
}

/// Collects operation records for one experiment run.
///
/// Records are kept per `(name, class)` so an operation name reused across
/// classes yields two visible entries instead of silently merging into the
/// class of whichever record came first.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// Records in order of first charge.
    slots: Vec<Record>,
    /// Interned name → slot of each [`OpClass`] (indexed by discriminant).
    names: BTreeMap<Arc<str>, [Option<u32>; 4]>,
    /// Charged spans in enqueue order, each naming its record by slot.
    spans: Vec<SpanRecord>,
    /// Allocation counters for the current run (see [`AllocStats`]).
    pub alloc: AllocStats,
    notes: Vec<String>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `(name, class)`, creating an empty record (and interning
    /// `name`) the first time either is seen.
    pub fn slot(&mut self, name: &str, class: OpClass) -> Slot {
        let c = class as usize;
        if let Some(index) = self.names.get(name).and_then(|slots| slots[c]) {
            return Slot { index, class };
        }
        let name = match self.names.get_key_value(name) {
            Some((interned, _)) => interned.clone(),
            None => Arc::from(name),
        };
        let index = u32::try_from(self.slots.len()).expect("profiler slot table overflow");
        self.slots.push(Record { name: name.clone(), class, calls: 0, total_us: 0.0 });
        self.names.entry(name).or_default()[c] = Some(index);
        Slot { index, class }
    }

    /// Charge one invocation of `slot`'s operation: a call and `dur_us`
    /// simulated microseconds on its record, and a timeline span on
    /// `stream` starting at `start_us`.
    pub fn charge(&mut self, slot: Slot, stream: usize, start_us: f64, dur_us: f64) {
        let r = &mut self.slots[slot.index as usize];
        r.calls += 1;
        r.total_us += dur_us;
        let stream = u32::try_from(stream).expect("stream index overflow");
        self.spans.push(SpanRecord { start_us, dur_us, slot: slot.index, stream });
    }

    /// All records, sorted by name (then class, for colliding names).
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.names
            .values()
            .flat_map(|slots| slots.iter().flatten().map(|&i| &self.slots[i as usize]))
    }

    /// All timeline spans in enqueue order (empty unless the device's
    /// stream-aware entry points were used).
    pub fn spans(&self) -> Spans<'_> {
        Spans { slots: &self.slots, spans: self.spans.iter() }
    }

    /// Total simulated time across all records, µs.
    pub fn total_us(&self) -> f64 {
        self.records().map(|r| r.total_us).sum()
    }

    /// Total time of records matching a class, µs.
    pub fn class_total_us(&self, class: OpClass) -> f64 {
        self.records().filter(|r| r.class == class).map(|r| r.total_us).sum()
    }

    /// Total call count of records matching a class — e.g. the number of
    /// kernel launches a run performed, the metric fusion ablations compare.
    pub fn class_calls(&self, class: OpClass) -> u64 {
        self.records().filter(|r| r.class == class).map(|r| r.calls).sum()
    }

    /// Attach a free-form observation to the run (a degraded transfer, an
    /// OOM retry). Notes are part of the run's report, not of its timing:
    /// recording one never changes any simulated clock or record.
    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// Notes recorded this run, in order.
    pub fn notes(&self) -> impl Iterator<Item = &str> {
        self.notes.iter().map(String::as_str)
    }

    /// Forget everything (records, spans, allocation stats, notes) — the
    /// per-run stat reset.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.names.clear();
        self.spans.clear();
        self.alloc = AllocStats::default();
        self.notes.clear();
    }

    /// Multiply every record's call count and time by `factor` — used to
    /// extrapolate a single simulated frame to an N-frame run (per-frame cost
    /// is content-independent under the cost model, so this is exact for
    /// *serialized* runs). Allocation event counters scale the same way;
    /// byte watermarks do not (the footprint of one frame is the footprint
    /// of N). Timeline spans are left untouched: extrapolating an overlapped
    /// timeline requires rescheduling, not scaling — use the executors'
    /// replay support for that.
    pub fn scale(&mut self, factor: u64) {
        for r in &mut self.slots {
            r.calls *= factor;
            r.total_us *= factor as f64;
        }
        self.alloc.mallocs *= factor;
        self.alloc.frees *= factor;
        self.alloc.pool_hits *= factor;
        self.alloc.pool_misses *= factor;
        self.alloc.evictions *= factor;
    }

    /// Fold another profiler's observations into this one — the fleet-level
    /// roll-up: records merge by `(name, class)` (calls and times sum), spans
    /// and notes are appended, and allocation counters add up (byte
    /// watermarks sum too: each device's footprint is independent memory, so
    /// the fleet's peak is the sum of per-device peaks at worst).
    ///
    /// Merged *span* times keep each contributor's own clock (every device
    /// starts at 0), so per-engine busy sums stay meaningful across the
    /// merge while [`Profiler::makespan_us`] of a merged profiler is the
    /// slowest device's makespan, not a wall-clock union.
    pub fn merge(&mut self, other: &Profiler) {
        // `other`'s slot index → this profiler's slot of the same
        // `(name, class)`. Slots are made in `other`'s name order, so a
        // merge into an empty profiler creates them as `records` lists them.
        let mut remap = vec![0; other.slots.len()];
        for slots in other.names.values() {
            for &i in slots.iter().flatten() {
                let r = &other.slots[i as usize];
                let slot = self.slot(&r.name, r.class);
                let e = &mut self.slots[slot.index as usize];
                e.calls += r.calls;
                e.total_us += r.total_us;
                remap[i as usize] = slot.index;
            }
        }
        self.spans
            .extend(other.spans.iter().map(|s| SpanRecord { slot: remap[s.slot as usize], ..*s }));
        self.notes.extend(other.notes.iter().cloned());
        self.alloc.mallocs += other.alloc.mallocs;
        self.alloc.frees += other.alloc.frees;
        self.alloc.pool_hits += other.alloc.pool_hits;
        self.alloc.pool_misses += other.alloc.pool_misses;
        self.alloc.evictions += other.alloc.evictions;
        self.alloc.current_bytes += other.alloc.current_bytes;
        self.alloc.peak_bytes += other.alloc.peak_bytes;
    }

    /// Timeline makespan: the latest span completion time, µs (0 when no
    /// spans were recorded).
    pub fn makespan_us(&self) -> f64 {
        self.spans.iter().map(|s| s.start_us + s.dur_us).fold(0.0, f64::max)
    }

    /// Busy time of the engine serving `class` — the summed duration of its
    /// spans, µs. Engines never run two spans at once, so this is also its
    /// occupied wall-clock.
    pub fn engine_busy_us(&self, class: OpClass) -> f64 {
        // fold from +0.0: `Sum for f64` starts at -0.0, which renders as "-0".
        self.spans().filter(|s| s.class == class).map(|s| s.duration_us()).fold(0.0, |a, b| a + b)
    }

    /// How much engine busy time the timeline hid by overlapping, percent:
    /// `100·(Σ durations − makespan)/Σ durations`. A fully serialized
    /// timeline scores 0; perfect three-way overlap approaches 66.7.
    pub fn overlap_percent(&self) -> f64 {
        let total: f64 = self.spans.iter().map(|s| s.dur_us).sum();
        if total <= 0.0 {
            return 0.0;
        }
        ((total - self.makespan_us()) / total * 100.0).max(0.0)
    }

    /// The chain of spans that determines the makespan: starting from the
    /// last span to finish, repeatedly steps to a span finishing exactly when
    /// the current one starts (same stream preferred, then same engine) until
    /// no predecessor abuts. Returned in execution order.
    pub fn critical_path(&self) -> Vec<Span<'_>> {
        const EPS: f64 = 1e-9;
        let spans: Vec<Span> = self.spans().collect();
        let Some(mut cur) =
            (0..spans.len()).max_by(|&a, &b| spans[a].end_us().total_cmp(&spans[b].end_us()))
        else {
            return Vec::new();
        };
        let mut chain = vec![cur];
        loop {
            let c = spans[cur];
            let abuts = |&j: &usize| {
                (spans[j].end_us() - c.start_us).abs() < EPS && spans[j].dur_us >= 0.0 && j != cur
            };
            let pred = (0..spans.len())
                .filter(abuts)
                .max_by_key(|&j| (spans[j].stream == c.stream, spans[j].class == c.class));
            match pred {
                Some(p) => {
                    chain.push(p);
                    cur = p;
                }
                None => break,
            }
        }
        chain.iter().rev().map(|&i| spans[i]).collect()
    }

    /// Render the timeline summary: per-engine busy time and utilisation,
    /// overlap percentage, and the critical path.
    pub fn timeline_table(&self) -> String {
        let makespan = self.makespan_us();
        let mut out = String::new();
        out.push_str(&format!("{:<10} {:>14} {:>10}\n", "Engine", "busy(usec)", "busy(%)"));
        for (label, class) in [
            ("H2D", OpClass::H2D),
            ("Compute", OpClass::Kernel),
            ("D2H", OpClass::D2H),
            ("Host", OpClass::Host),
        ] {
            let busy = self.engine_busy_us(class);
            let pct = if makespan > 0.0 { busy / makespan * 100.0 } else { 0.0 };
            out.push_str(&format!("{label:<10} {busy:>14.0} {pct:>10.2}\n"));
        }
        out.push_str(&format!(
            "makespan {:.0} usec, overlap {:.2}%\n",
            makespan,
            self.overlap_percent()
        ));
        if self.alloc.mallocs + self.alloc.pool_hits > 0 {
            out.push_str(&format!(
                "alloc: {} mallocs, pool hit {:.1}%, peak {} B\n",
                self.alloc.mallocs,
                self.alloc.hit_rate_percent(),
                self.alloc.peak_bytes
            ));
        }
        let path = self.critical_path();
        if !path.is_empty() {
            out.push_str(&format!("critical path ({} ops): ", path.len()));
            let mut names: Vec<String> =
                path.iter().map(|s| format!("{}@s{}", s.name, s.stream)).collect();
            if names.len() > 8 {
                let tail = names.split_off(names.len() - 3);
                names.truncate(3);
                names.push("...".into());
                names.extend(tail);
            }
            out.push_str(&names.join(" -> "));
            out.push('\n');
        }
        out
    }

    /// Aggregate records into the given groups.
    ///
    /// Each group row reports `calls` as *launches per distinct operation*
    /// (matching the paper's convention) and its share of the profiler total.
    pub fn rows(&self, groups: &[Group]) -> Vec<TableRow> {
        let total = self.total_us();
        groups
            .iter()
            .map(|g| {
                let members: Vec<&Record> = self
                    .records()
                    .filter(|r| {
                        g.class.is_none_or(|c| r.class == c)
                            && g.prefixes.iter().any(|p| r.name.starts_with(p.as_str()))
                    })
                    .collect();
                let time_us: f64 = members.iter().map(|r| r.total_us).sum();
                let calls_total: u64 = members.iter().map(|r| r.calls).sum();
                let distinct = members.len().max(1) as u64;
                let label = if g.class == Some(OpClass::Kernel) && !members.is_empty() {
                    format!("{} ({} kernels)", g.label, members.len())
                } else {
                    g.label.clone()
                };
                TableRow {
                    label,
                    // Round, don't truncate: groups whose members were called
                    // unevenly report the nearest per-op count.
                    calls: (calls_total as f64 / distinct as f64).round() as u64,
                    time_us,
                    percent: if total > 0.0 { time_us / total * 100.0 } else { 0.0 },
                }
            })
            .collect()
    }

    /// Render the grouped report as a formatted table (paper Tables I/II).
    pub fn table(&self, groups: &[Group]) -> String {
        let rows = self.rows(groups);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>8} {:>16} {:>12}\n",
            "Operation", "#calls", "GPU time(usec)", "GPU time(%)"
        ));
        for r in &rows {
            out.push_str(&format!(
                "{:<28} {:>8} {:>16.0} {:>12.2}\n",
                r.label, r.calls, r.time_us, r.percent
            ));
        }
        out.push_str(&format!(
            "{:<28} {:>8} {:>15.2}s {:>12.2}\n",
            "Total",
            "-",
            self.total_us() / 1e6,
            100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Charge one call of `(name, class)` through its slot.
    fn charge(p: &mut Profiler, name: &str, class: OpClass, stream: usize, start: f64, us: f64) {
        let slot = p.slot(name, class);
        p.charge(slot, stream, start, us);
    }

    /// Charge one call of `(name, class)` at time 0 on stream 0.
    fn call(p: &mut Profiler, name: &str, class: OpClass, us: f64) {
        charge(p, name, class, 0, 0.0, us);
    }

    fn sample() -> Profiler {
        let mut p = Profiler::new();
        for _ in 0..300 {
            call(&mut p, "hf_r", OpClass::Kernel, 900.0);
            call(&mut p, "hf_g", OpClass::Kernel, 900.0);
            call(&mut p, "hf_b", OpClass::Kernel, 1000.0);
            for _ in 0..3 {
                call(&mut p, "memcpyHtoDasync", OpClass::H2D, 1500.0);
            }
        }
        p
    }

    #[test]
    fn totals_accumulate() {
        let p = sample();
        assert!((p.total_us() - 300.0 * (2800.0 + 4500.0)).abs() < 1e-6);
        assert!((p.class_total_us(OpClass::H2D) - 900.0 * 1500.0).abs() < 1e-6);
    }

    #[test]
    fn class_calls_count_launches() {
        let p = sample();
        assert_eq!(p.class_calls(OpClass::Kernel), 900);
        assert_eq!(p.class_calls(OpClass::H2D), 900);
        assert_eq!(p.class_calls(OpClass::D2H), 0);
    }

    #[test]
    fn kernel_groups_report_per_kernel_calls_and_counts() {
        let p = sample();
        let rows = p.rows(&[
            Group::kernels("H. Filter", "hf_"),
            Group::class("memcpyHtoDasync", OpClass::H2D),
        ]);
        assert_eq!(rows[0].label, "H. Filter (3 kernels)");
        assert_eq!(rows[0].calls, 300);
        assert!((rows[0].time_us - 300.0 * 2800.0).abs() < 1e-6);
        assert_eq!(rows[1].calls, 900);
        let pct_sum = rows[0].percent + rows[1].percent;
        assert!((pct_sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_paper_columns() {
        let p = sample();
        let t = p.table(&[Group::kernels("H. Filter", "hf_")]);
        assert!(t.contains("Operation"), "{t}");
        assert!(t.contains("GPU time(usec)"), "{t}");
        assert!(t.contains("H. Filter (3 kernels)"), "{t}");
        assert!(t.contains("Total"), "{t}");
    }

    #[test]
    fn reset_clears_records() {
        let mut p = sample();
        p.reset();
        assert_eq!(p.total_us(), 0.0);
        assert_eq!(p.records().count(), 0);
    }

    #[test]
    fn empty_profiler_renders_zero_total() {
        let p = Profiler::new();
        let rows = p.rows(&[Group::kernels("X", "x_")]);
        assert_eq!(rows[0].time_us, 0.0);
        assert_eq!(rows[0].percent, 0.0);
    }

    #[test]
    fn name_reused_across_classes_keeps_both_records() {
        let mut p = Profiler::new();
        call(&mut p, "tiler", OpClass::Kernel, 10.0);
        call(&mut p, "tiler", OpClass::Host, 90.0);
        let recs: Vec<&Record> = p.records().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(p.class_total_us(OpClass::Kernel), 10.0);
        assert_eq!(p.class_total_us(OpClass::Host), 90.0);
        // Both records share the one interned name, which both spans borrow.
        assert!(Arc::ptr_eq(&recs[0].name, &recs[1].name));
        assert!(p.spans().all(|s| std::ptr::eq(s.name, &*recs[0].name)));
        let classes: Vec<OpClass> = p.spans().map(|s| s.class).collect();
        assert_eq!(classes, vec![OpClass::Kernel, OpClass::Host]);
    }

    #[test]
    fn a_resolved_slot_is_charged_without_a_lookup() {
        let mut p = Profiler::new();
        let z = p.slot("z", OpClass::Kernel);
        let a = p.slot("a", OpClass::Kernel);
        assert_eq!(p.slot("z", OpClass::Kernel), z);
        assert_ne!(p.slot("z", OpClass::Host), z);
        p.charge(z, 1, 5.0, 2.0);
        p.charge(a, 0, 0.0, 3.0);
        p.charge(z, 1, 7.0, 2.0);
        // Records come out by name whatever order their slots were made in;
        // the resolved-but-never-charged `("z", Host)` is an empty record.
        let recs: Vec<_> = p.records().map(|r| (&*r.name, r.class, r.calls, r.total_us)).collect();
        assert_eq!(
            recs,
            vec![
                ("a", OpClass::Kernel, 1, 3.0),
                ("z", OpClass::Kernel, 2, 4.0),
                ("z", OpClass::Host, 0, 0.0)
            ]
        );
        let spans: Vec<_> = p.spans().map(|s| (s.name, s.stream, s.start_us)).collect();
        assert_eq!(spans, vec![("z", 1, 5.0), ("a", 0, 0.0), ("z", 1, 7.0)]);
    }

    #[test]
    fn uneven_group_calls_round_to_nearest() {
        // Two kernels called 2 and 3 times: 5/2 = 2.5 rounds to 3 (the old
        // code truncated to 2).
        let mut p = Profiler::new();
        call(&mut p, "k_a", OpClass::Kernel, 1.0);
        call(&mut p, "k_a", OpClass::Kernel, 1.0);
        for _ in 0..3 {
            call(&mut p, "k_b", OpClass::Kernel, 1.0);
        }
        let rows = p.rows(&[Group::kernels("K", "k_")]);
        assert_eq!(rows[0].calls, 3);
    }

    fn timeline() -> Profiler {
        let mut p = Profiler::new();
        // Two-stream double buffer: uploads on the H2D engine back-to-back,
        // kernels overlap the next upload.
        charge(&mut p, "up0", OpClass::H2D, 0, 0.0, 100.0);
        charge(&mut p, "k0", OpClass::Kernel, 0, 100.0, 150.0);
        charge(&mut p, "up1", OpClass::H2D, 1, 100.0, 100.0);
        charge(&mut p, "k1", OpClass::Kernel, 1, 250.0, 150.0);
        charge(&mut p, "down1", OpClass::D2H, 1, 400.0, 80.0);
        p
    }

    #[test]
    fn timeline_metrics_reflect_overlap() {
        let p = timeline();
        assert_eq!(p.makespan_us(), 480.0);
        assert_eq!(p.engine_busy_us(OpClass::H2D), 200.0);
        assert_eq!(p.engine_busy_us(OpClass::Kernel), 300.0);
        // Σ durations = 580, makespan 480 ⇒ 100·100/580 ≈ 17.24 % hidden.
        assert!((p.overlap_percent() - 100.0 * 100.0 / 580.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_follows_abutting_spans() {
        let p = timeline();
        let names: Vec<&str> = p.critical_path().iter().map(|s| s.name).collect();
        // down1 starts when k1 ends, k1 when k0 ends, k0 when up0 ends.
        assert_eq!(names, vec!["up0", "k0", "k1", "down1"]);
    }

    #[test]
    fn timeline_table_renders_engines_and_path() {
        let p = timeline();
        let t = p.timeline_table();
        assert!(t.contains("Engine"), "{t}");
        assert!(t.contains("makespan 480 usec"), "{t}");
        assert!(t.contains("critical path (4 ops): up0@s0 -> k0@s0 -> k1@s1 -> down1@s1"), "{t}");
    }

    #[test]
    fn scale_multiplies_records_but_not_spans() {
        let mut p = timeline();
        p.scale(10);
        assert_eq!(p.total_us(), 5800.0);
        assert_eq!(p.class_calls(OpClass::H2D), 20);
        assert_eq!(p.spans().count(), 5);
        assert_eq!(p.makespan_us(), 480.0);
    }

    #[test]
    fn alloc_stats_scale_and_reset() {
        let mut p = Profiler::new();
        p.alloc = AllocStats {
            mallocs: 3,
            frees: 3,
            pool_hits: 6,
            pool_misses: 2,
            evictions: 1,
            current_bytes: 4096,
            peak_bytes: 8192,
        };
        assert!((p.alloc.hit_rate_percent() - 75.0).abs() < 1e-12);
        p.scale(10);
        assert_eq!(p.alloc.mallocs, 30);
        assert_eq!(p.alloc.pool_hits, 60);
        // Byte watermarks are footprints, not event counts.
        assert_eq!(p.alloc.peak_bytes, 8192);
        p.note("degraded");
        p.reset();
        assert_eq!(p.alloc, AllocStats::default());
        assert_eq!(p.notes().count(), 0);
    }

    #[test]
    fn empty_alloc_stats_have_zero_hit_rate() {
        assert_eq!(AllocStats::default().hit_rate_percent(), 0.0);
    }

    #[test]
    fn merge_folds_records_spans_notes_and_alloc() {
        let mut a = Profiler::new();
        call(&mut a, "k", OpClass::Kernel, 10.0);
        a.note("from a");
        a.alloc.mallocs = 2;
        a.alloc.peak_bytes = 100;

        let mut b = Profiler::new();
        call(&mut b, "k", OpClass::Kernel, 5.0);
        call(&mut b, "up", OpClass::H2D, 7.0);
        b.note("from b");
        b.alloc.mallocs = 3;
        b.alloc.peak_bytes = 50;

        a.merge(&b);
        let k = a.records().find(|r| &*r.name == "k").unwrap();
        assert_eq!((k.calls, k.total_us), (2, 15.0));
        assert_eq!(a.class_total_us(OpClass::H2D), 7.0);
        assert_eq!(a.spans().count(), 3);
        assert_eq!(a.notes().collect::<Vec<_>>(), vec!["from a", "from b"]);
        assert_eq!(a.alloc.mallocs, 5);
        assert_eq!(a.alloc.peak_bytes, 150);
        // The merged-into profiler changed; the source is untouched.
        assert_eq!(b.records().count(), 2);
    }

    /// The record table as the profiler kept it before slots: one map keyed
    /// by `(String, OpClass)`, accumulated in the same order.
    #[derive(Default)]
    struct Reference {
        records: BTreeMap<(String, OpClass), (u64, f64)>,
        spans: Vec<(String, OpClass, usize, f64, f64)>,
    }

    impl Reference {
        fn charge(&mut self, name: &str, class: OpClass, stream: usize, start: f64, us: f64) {
            let e = self.records.entry((name.to_string(), class)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += us;
            self.spans.push((name.to_string(), class, stream, start, us));
        }

        fn merge(&mut self, other: &Reference) {
            for (key, &(calls, us)) in &other.records {
                let e = self.records.entry(key.clone()).or_insert((0, 0.0));
                e.0 += calls;
                e.1 += us;
            }
            self.spans.extend(other.spans.iter().cloned());
        }

        fn scale(&mut self, factor: u64) {
            for e in self.records.values_mut() {
                e.0 *= factor;
                e.1 *= factor as f64;
            }
        }

        fn reset(&mut self) {
            self.records.clear();
            self.spans.clear();
        }

        fn matches(&self, p: &Profiler) -> bool {
            let got =
                p.records().map(|r| (r.name.to_string(), r.class, r.calls, r.total_us.to_bits()));
            let want = self
                .records
                .iter()
                .map(|((n, c), &(calls, us))| (n.clone(), *c, calls, us.to_bits()));
            let spans = p.spans().map(|s| {
                (s.name.to_string(), s.class, s.stream, s.start_us.to_bits(), s.dur_us.to_bits())
            });
            let want_spans = self
                .spans
                .iter()
                .map(|(n, c, st, a, d)| (n.clone(), *c, *st, a.to_bits(), d.to_bits()));
            got.eq(want)
                && spans.eq(want_spans)
                && p.total_us().to_bits()
                    == self.records.values().map(|e| e.1).sum::<f64>().to_bits()
        }
    }

    const NAMES: [&str; 5] = ["k_b", "memcpy", "k_a", "a", "k_ab"];
    const CLASSES: [OpClass; 4] = [OpClass::Kernel, OpClass::H2D, OpClass::D2H, OpClass::Host];

    proptest! {
        /// Random charge sequences on two profilers, with `merge` in both
        /// directions, `scale` and `reset` interleaved, keep the slot table
        /// equal to the `(String, OpClass)`-keyed reference: same order,
        /// calls and `total_us` bits, and the same spans.
        #[test]
        fn slot_table_matches_name_keyed_reference(
            ops in proptest::collection::vec((0u8..38, 0u8..5, 0u8..4, any::<u16>()), 1..80),
        ) {
            let mut p = [Profiler::new(), Profiler::new()];
            let mut r = [Reference::default(), Reference::default()];
            for (i, &(op, name, class, dur)) in ops.iter().enumerate() {
                let t = usize::from(op & 1);
                match op {
                    0..=31 => {
                        let (name, class) = (NAMES[usize::from(name)], CLASSES[usize::from(class)]);
                        let stream = usize::from(op >> 1) % 3;
                        let (start, us) = (i as f64 * 0.1, f64::from(dur) / 7.0);
                        charge(&mut p[t], name, class, stream, start, us);
                        r[t].charge(name, class, stream, start, us);
                    }
                    32..=33 => {
                        let [a, b] = &mut p;
                        let [ra, rb] = &mut r;
                        if t == 0 {
                            a.merge(b);
                            ra.merge(rb);
                        } else {
                            b.merge(a);
                            rb.merge(ra);
                        }
                    }
                    34..=35 => {
                        let factor = u64::from(name % 4);
                        p[t].scale(factor);
                        r[t].scale(factor);
                    }
                    _ => {
                        p[t].reset();
                        r[t].reset();
                    }
                }
                prop_assert!(r[0].matches(&p[0]), "profiler 0 diverged after op {i} of {ops:?}");
                prop_assert!(r[1].matches(&p[1]), "profiler 1 diverged after op {i} of {ops:?}");
            }
        }

        /// Two profilers that resolved the same operations' slots in
        /// different orders merge, in either direction, into the reference's
        /// records and spans: every merged span keeps its name, class,
        /// stream and time bits, in order. Sorting the `(name, class)` pairs
        /// by `keys` gives the order in which the second profiler resolves
        /// its slots before charging.
        #[test]
        fn merge_remaps_slots_made_in_different_orders(
            ops in proptest::collection::vec((0u8..5, 0u8..4, 0u8..3, any::<u16>()), 2..60),
            split in 0usize..61,
            keys in proptest::collection::vec(any::<u32>(), NAMES.len() * CLASSES.len()),
        ) {
            let k = split % (ops.len() + 1);
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by_key(|&pair| keys[pair]);
            let op = |&(name, class, stream, dur): &(u8, u8, u8, u16), i: usize| {
                let (name, class) = (NAMES[usize::from(name)], CLASSES[usize::from(class)]);
                (name, class, usize::from(stream), i as f64 * 0.1, f64::from(dur) / 7.0)
            };
            let (mut a, mut b) = (Profiler::new(), Profiler::new());
            let (mut ra, mut rb) = (Reference::default(), Reference::default());
            // `b` resolves every slot it will charge up front, in `order`,
            // which is generally not `a`'s order of first charge.
            for pair in order {
                let (name, class) = (NAMES[pair / CLASSES.len()], CLASSES[pair % CLASSES.len()]);
                if ops[k..].iter().any(|o| NAMES[usize::from(o.0)] == name
                    && CLASSES[usize::from(o.1)] == class)
                {
                    b.slot(name, class);
                }
            }
            for (i, o) in ops.iter().enumerate() {
                let (name, class, stream, start, us) = op(o, i);
                let (p, r) = if i < k { (&mut a, &mut ra) } else { (&mut b, &mut rb) };
                charge(p, name, class, stream, start, us);
                r.charge(name, class, stream, start, us);
            }
            let (mut ab, mut rab) = (a.clone(), Reference::default());
            ab.merge(&b);
            rab.merge(&ra);
            rab.merge(&rb);
            prop_assert!(rab.matches(&ab), "a.merge(b) diverged for {ops:?} split at {k}");
            let (mut ba, mut rba) = (b.clone(), Reference::default());
            ba.merge(&a);
            rba.merge(&rb);
            rba.merge(&ra);
            prop_assert!(rba.matches(&ba), "b.merge(a) diverged for {ops:?} split at {k}");
            // The span view's O(1) `count` and `nth` agree with walking it.
            let walked: Vec<Span> = ab.spans().collect();
            prop_assert_eq!(ab.spans().count(), walked.len());
            prop_assert_eq!(ab.spans().skip(k).collect::<Vec<_>>(), walked[k..].to_vec());
        }
    }
}
