//! Zero-dependency superstep tracing.
//!
//! The paper's central artifacts are *per-superstep* measurements
//! (Fig. 1: CC time per iteration, Fig. 2: BFS time per level), so the
//! runtime needs a way to record what each superstep cost — wall-clock
//! split into scan/compute/exchange phases, message counters from the
//! transport, active-set sizes, and halt votes — without perturbing the
//! hot path it is measuring.
//!
//! Both programming models emit these records (labels e.g. `"cc/bsp"`
//! and `"cc/graphct"`).  *Cost predictions* are simulated XMT cycles —
//! the recorder's department, not this crate's; every
//! [`SuperstepTrace`] here is host wall-clock, whichever schedule the
//! run's loops were cut with.
//!
//! The design is compile-time gating, not runtime indirection: the
//! whole sink is behind the `enabled` cargo feature (forwarded as
//! `trace` by dependents).  [`ENABLED`] is a `const`, so a caller's
//! `if xmt_trace::ENABLED && ... { record() }` folds away entirely in
//! feature-off builds, and [`Stopwatch`] carries its `Instant` field
//! only under the feature, so disabled builds make no clock calls at
//! all.  The record types ([`SuperstepTrace`], [`JobTrace`]) are always
//! compiled so wire formats and APIs do not change shape between
//! configurations — feature-off builds simply never produce any.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

/// Whether the tracing feature is compiled in.
///
/// A `const`, so `if ENABLED { ... }` blocks are stripped by constant
/// folding when the feature is off — the hot path is provably unchanged.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Process-global allocation-counter hook.
///
/// The runtime wants to report *heap allocations per superstep* next to
/// its wall-clock laps, but the counting `#[global_allocator]` lives in
/// the top-of-stack binary (`xmt-bench`), which this crate must not
/// depend on.  The binary registers its counter here once at startup;
/// [`alloc_count`] then exposes it to the runtime.  Unregistered (the
/// normal case outside allocation benchmarks) the count reads 0 and
/// traced runs report `allocs = 0`.
static ALLOC_COUNTER: std::sync::OnceLock<fn() -> u64> = std::sync::OnceLock::new();

/// Register the process's allocation counter (a monotonic total of heap
/// allocations).  First registration wins; later calls are ignored.
pub fn set_alloc_counter(counter: fn() -> u64) {
    let _ = ALLOC_COUNTER.set(counter);
}

/// The process's monotonic allocation count, or 0 when no counter has
/// been registered via [`set_alloc_counter`].
pub fn alloc_count() -> u64 {
    ALLOC_COUNTER.get().map_or(0, |f| f())
}

/// The process's minor page faults so far (`getrusage`'s `ru_minflt` on
/// 64-bit Linux, a fraction of a microsecond; 0 on other targets), and
/// always 0 with the feature off, when the compiler strips the call.
pub fn minor_faults() -> u64 {
    if !ENABLED {
        return 0;
    }
    rusage::minor_faults()
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s from `ru_maxrss` on.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;
    /// `ru_minflt` follows `ru_maxrss`, `ru_ixrss`, `ru_idrss`, `ru_isrss`.
    const MINFLT: usize = 4;

    pub(super) fn minor_faults() -> u64 {
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a live, writable `struct rusage` of this
        // target's layout, the only memory `getrusage` writes.
        let ok = unsafe { getrusage(RUSAGE_SELF, &mut usage) } == 0;
        if ok {
            usage.longs[MINFLT] as u64
        } else {
            0
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod rusage {
    pub(super) fn minor_faults() -> u64 {
        0
    }
}

/// One superstep's (or kernel iteration's) worth of observations.
///
/// `superstep` is the *absolute* superstep number: a run resumed from a
/// checkpoint at superstep `k` records its first entry as `k`, so a
/// job's trace series stays contiguous across resume cuts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuperstepTrace {
    /// Absolute superstep (BSP) or level/iteration (kernel) number.
    pub superstep: u64,
    /// Active vertices entering the compute phase.
    pub active: u64,
    /// Messages shipped through the exchange this superstep (0 when the
    /// next superstep pulls instead).
    pub messages_sent: u64,
    /// Messages compute produced (equal to `messages_sent` unless the
    /// next superstep pulled and they were discarded).
    pub messages_generated: u64,
    /// Messages delivered into this superstep's compute phase.
    pub messages_delivered: u64,
    /// Vertices that voted to halt during compute.
    pub halt_votes: u64,
    /// Whether this superstep read messages in pull mode.
    pub pulled: bool,
    /// Edge probes performed by pull-mode delivery.
    pub pull_probes: u64,
    /// Bytes compute's sends occupy in the exchange's lane encoding:
    /// message pairs, run headers and run payloads (0 for kernels without
    /// an exchange).  Neighbor broadcasts recorded once per sender count
    /// as the `(dst, msg)` pairs they stand for, one per arc, whatever
    /// the exchange did with them: a gathered superstep, or one whose
    /// successor pulls, reports those pair bytes though its lanes stay
    /// empty (the record holds one message per sender instead).
    pub bytes_deposited: u64,
    /// Heap allocations performed during the superstep's scan, compute
    /// and exchange phases (0 unless the process registered a counting
    /// allocator via [`set_alloc_counter`]).  Steady-state supersteps of
    /// a frame-reusing run report 0.
    pub allocs: u64,
    /// Minor page faults the whole process took from the start of the
    /// superstep's scan to the end of its exchange (other threads'
    /// faults included); 0 without the `enabled` feature.
    pub minor_faults: u64,
    /// Wall-clock nanoseconds spent building the active set.
    pub scan_ns: u64,
    /// Wall-clock nanoseconds in the parallel compute phase.
    pub compute_ns: u64,
    /// Wall-clock nanoseconds collecting and delivering messages.
    pub exchange_ns: u64,
    /// Wall-clock nanoseconds for the whole superstep.
    pub total_ns: u64,
}

/// A finished job's superstep series plus a label for reporting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobTrace {
    /// Human-readable label, e.g. `"cc/bsp"`.
    pub label: String,
    /// Per-superstep records in execution order.
    pub supersteps: Vec<SuperstepTrace>,
}

impl JobTrace {
    /// Header row matching [`JobTrace::csv_rows`].
    pub const CSV_HEADER: &'static str =
        "label,superstep,seconds,active,messages_sent,messages_delivered,halt_votes,pulled,allocs";

    /// Fig. 1/Fig. 2-shaped CSV rows (one per superstep, no header).
    pub fn csv_rows(&self) -> Vec<String> {
        self.supersteps
            .iter()
            .map(|s| {
                format!(
                    "{},{},{:.9},{},{},{},{},{},{}",
                    self.label,
                    s.superstep,
                    s.total_ns as f64 / 1e9,
                    s.active,
                    s.messages_sent,
                    s.messages_delivered,
                    s.halt_votes,
                    u8::from(s.pulled),
                    s.allocs,
                )
            })
            .collect()
    }

    /// Total wall-clock seconds across the series.
    pub fn total_seconds(&self) -> f64 {
        self.supersteps.iter().map(|s| s.total_ns).sum::<u64>() as f64 / 1e9
    }
}

/// One applied update batch on a streaming (dynamic) graph.
///
/// The streaming counterpart of [`SuperstepTrace`]: where a BSP run's
/// series is one record per superstep, a dynamic graph's series is one
/// record per *batch* — how many edges landed, what epoch the batch
/// created, and what the apply cost.  Always compiled (like the other
/// record types) so the wire shape is configuration-independent;
/// feature-off builds simply never accumulate any.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateRecord {
    /// The snapshot epoch this batch created (monotonic per graph; a
    /// no-op batch keeps the previous epoch).
    pub epoch: u64,
    /// Edges actually inserted by the batch.
    pub inserted: u64,
    /// Edges actually deleted by the batch.
    pub deleted: u64,
    /// Undirected edge count after the batch.
    pub edges_after: u64,
    /// Registry bytes charged for the graph after the batch.
    pub bytes_after: u64,
    /// Wall-clock nanoseconds spent applying the batch (incremental
    /// label/triangle maintenance included).
    pub apply_ns: u64,
}

/// A dynamic graph's applied-batch series plus its registry name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateTrace {
    /// The graph's registry name.
    pub graph: String,
    /// Per-batch records in application order (bounded: the producer
    /// keeps a recent window, not the full history).
    pub updates: Vec<UpdateRecord>,
}

impl UpdateTrace {
    /// Header row matching [`UpdateTrace::csv_rows`].
    pub const CSV_HEADER: &'static str =
        "graph,epoch,inserted,deleted,edges_after,bytes_after,seconds";

    /// One CSV row per applied batch (no header).
    pub fn csv_rows(&self) -> Vec<String> {
        self.updates
            .iter()
            .map(|u| {
                format!(
                    "{},{},{},{},{},{},{:.9}",
                    self.graph,
                    u.epoch,
                    u.inserted,
                    u.deleted,
                    u.edges_after,
                    u.bytes_after,
                    u.apply_ns as f64 / 1e9,
                )
            })
            .collect()
    }
}

/// Collects [`SuperstepTrace`] records for one job run.
///
/// With the `enabled` feature off this is a zero-sized type and
/// [`TraceSink::record`] is a no-op; callers additionally guard with
/// [`ENABLED`] so record *construction* is stripped too.
#[derive(Debug, Default)]
pub struct TraceSink {
    #[cfg(feature = "enabled")]
    records: Vec<SuperstepTrace>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Append one superstep record.  No-op when the feature is off.
    #[cfg_attr(
        not(feature = "enabled"),
        expect(unused_variables, reason = "the body compiles out with the feature")
    )]
    pub fn record(&mut self, record: SuperstepTrace) {
        #[cfg(feature = "enabled")]
        self.records.push(record);
    }

    /// The number of records collected so far.
    pub fn len(&self) -> usize {
        #[cfg(feature = "enabled")]
        {
            self.records.len()
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }

    /// Whether no records have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the sink, yielding the records in insertion order.
    pub fn finish(self) -> Vec<SuperstepTrace> {
        #[cfg(feature = "enabled")]
        {
            self.records
        }
        #[cfg(not(feature = "enabled"))]
        {
            Vec::new()
        }
    }
}

/// A wall-clock stopwatch that compiles to nothing when tracing is off.
///
/// The `Instant` field only exists under the feature, so feature-off
/// builds never call `Instant::now()` — the struct is zero-sized and
/// every method is an empty inlinable body.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    #[cfg(feature = "enabled")]
    started: std::time::Instant,
}

impl Stopwatch {
    /// Start (reads the clock only when the feature is on).
    pub fn start() -> Self {
        Stopwatch {
            #[cfg(feature = "enabled")]
            started: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since start (saturating; 0 when the feature is off).
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }

    /// Nanoseconds since start, then restart.  Gives back-to-back phase
    /// timings without double-reading the clock at each boundary.
    pub fn lap_ns(&mut self) -> u64 {
        let ns = self.elapsed_ns();
        *self = Stopwatch::start();
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minor_faults_count_fresh_pages_only_with_the_feature() {
        let before = minor_faults();
        let pages = vec![1u8; 8 << 20];
        std::hint::black_box(&pages);
        let after = minor_faults();
        if !ENABLED || !cfg!(target_os = "linux") {
            assert_eq!((before, after), (0, 0));
        } else {
            assert!(after > before, "{before} -> {after} after touching 8 MiB");
        }
    }

    fn step(superstep: u64, total_ns: u64) -> SuperstepTrace {
        SuperstepTrace {
            superstep,
            active: 5,
            messages_sent: 4,
            messages_delivered: 4,
            total_ns,
            ..SuperstepTrace::default()
        }
    }

    #[test]
    fn sink_round_trips_records_when_enabled() {
        let mut sink = TraceSink::new();
        assert!(sink.is_empty());
        sink.record(step(0, 10));
        sink.record(step(1, 20));
        let records = sink.finish();
        if ENABLED {
            assert_eq!(records.len(), 2);
            assert_eq!(records[0].superstep, 0);
            assert_eq!(records[1].superstep, 1);
        } else {
            assert!(records.is_empty());
        }
    }

    #[test]
    fn csv_rows_are_fig_shaped() {
        let trace = JobTrace {
            label: "cc/bsp".to_string(),
            supersteps: vec![step(0, 1_500_000_000), step(1, 500_000_000)],
        };
        let rows = trace.csv_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("cc/bsp,0,1.5"));
        assert!(rows[1].starts_with("cc/bsp,1,0.5"));
        assert_eq!(JobTrace::CSV_HEADER.split(',').count(), 9);
        assert_eq!(rows[0].split(',').count(), 9);
        assert!((trace.total_seconds() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn update_csv_rows_match_header() {
        let trace = UpdateTrace {
            graph: "g".to_string(),
            updates: vec![UpdateRecord {
                epoch: 3,
                inserted: 10,
                deleted: 2,
                edges_after: 108,
                bytes_after: 4096,
                apply_ns: 1_500_000_000,
            }],
        };
        let rows = trace.csv_rows();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].starts_with("g,3,10,2,108,4096,1.5"));
        assert_eq!(
            UpdateTrace::CSV_HEADER.split(',').count(),
            rows[0].split(',').count()
        );
    }

    #[test]
    fn stopwatch_monotonic_and_lap_restarts() {
        let mut sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        if ENABLED {
            assert!(b >= a);
        } else {
            assert_eq!(a, 0);
            assert_eq!(b, 0);
        }
        let lap = sw.lap_ns();
        if ENABLED {
            assert!(lap >= b);
        } else {
            assert_eq!(lap, 0);
        }
    }

    #[test]
    fn enabled_const_matches_feature() {
        assert_eq!(ENABLED, cfg!(feature = "enabled"));
    }

    #[test]
    fn alloc_counter_registers_once() {
        // Unregistered reads are 0; this test is the only registrar in
        // this test binary, so it owns the process-global slot.
        assert_eq!(alloc_count(), 0);
        set_alloc_counter(|| 7);
        assert_eq!(alloc_count(), 7);
        set_alloc_counter(|| 42); // ignored: first registration wins
        assert_eq!(alloc_count(), 7);
    }
}
