//! Offline stand-in for `criterion`.
//!
//! Same macro/API surface (`criterion_group!`, `criterion_main!`,
//! `benchmark_group`, `Bencher::iter`, `Throughput`, `BenchmarkId`,
//! `black_box`) but a much simpler engine: each benchmark is timed over
//! `sample_size` samples after a short warm-up, and the median sample
//! time with its quartiles and sample count (plus derived throughput) is
//! printed to stdout.  No other statistics, plots, or saved baselines.
//! One addition criterion does not have: [`BenchmarkGroup::bench_alternating`]
//! times a set of routines in interleaved rounds, for comparisons that a
//! drifting host or a warming allocator would otherwise decide.

use std::fmt;
use std::time::{Duration, Instant};

/// Opaque identifier printed as `function/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Identifier combining a function name and a parameter value.
    pub fn new<P: fmt::Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId(format!("{function_name}/{parameter}"))
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Conversions accepted wherever criterion takes a benchmark name.
pub trait IntoBenchmarkId {
    /// The display name.
    fn into_name(self) -> String;
}

impl IntoBenchmarkId for &str {
    fn into_name(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_name(self) -> String {
        self
    }
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_name(self) -> String {
        self.0
    }
}

/// Throughput annotation for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Prevent the optimizer from discarding `value`.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Timing context passed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine`, running it enough times to get a stable sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// The benchmark harness entry point.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Honor `cargo bench -- <filter>`; ignore criterion's own flags.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "--bench");
        Criterion { filter }
    }
}

impl Criterion {
    /// Begin a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: 10,
            throughput: None,
        }
    }

    /// Run a standalone benchmark (no group).
    pub fn bench_function<I, F>(&mut self, id: I, f: F)
    where
        I: IntoBenchmarkId,
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("");
        group.bench_function(id, f);
        group.finish();
    }
}

/// One named routine of a [`BenchmarkGroup::bench_alternating`] set.
pub struct Routine<'a> {
    name: String,
    call: Box<dyn FnMut() + 'a>,
    samples: Vec<Duration>,
}

impl<'a> Routine<'a> {
    /// `call`, reported as `name`.
    pub fn new(name: impl Into<String>, call: impl FnMut() + 'a) -> Self {
        Routine {
            name: name.into(),
            call: Box::new(call),
            samples: Vec::new(),
        }
    }
}

/// A group of benchmarks sharing sample-size and throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl<'a> BenchmarkGroup<'a> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Annotate per-iteration throughput for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Time `f` and print the median sample, the quartiles around it and
    /// how many samples they are of.
    pub fn bench_function<I, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        I: IntoBenchmarkId,
        F: FnMut(&mut Bencher),
    {
        let name = id.into_name();
        let full = if self.name.is_empty() {
            name
        } else {
            format!("{}/{}", self.name, name)
        };
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }

        // Warm up and pick an iteration count targeting ~50ms per sample.
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per_iter = b.elapsed.max(Duration::from_nanos(1));
        let iters =
            (Duration::from_millis(50).as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

        let samples = (0..self.sample_size)
            .map(|_| {
                let mut b = Bencher {
                    iters,
                    elapsed: Duration::ZERO,
                };
                f(&mut b);
                b.elapsed / iters as u32
            })
            .collect();
        self.report(&full, samples);
        self
    }

    /// Time every routine once per round for `sample_size` rounds, odd
    /// rounds in reverse order, after one untimed call of each — so
    /// whatever the host or the allocator does over the minutes a group
    /// takes lands on all routines alike, and no routine always runs
    /// behind the same neighbour.  One line per routine, as
    /// [`bench_function`](Self::bench_function) prints it.  Routines
    /// should take milliseconds or more: a sample is one call.
    pub fn bench_alternating(&mut self, routines: &mut [Routine<'_>]) -> &mut Self {
        let filter = self.criterion.filter.as_deref();
        let full = |r: &Routine<'_>| format!("{}/{}", self.name, r.name);
        let mut live: Vec<&mut Routine<'_>> = routines
            .iter_mut()
            .filter(|r| filter.is_none_or(|flt| full(r).contains(flt)))
            .collect();
        for routine in &mut live {
            (routine.call)();
        }
        for round in 0..self.sample_size {
            let once = |routine: &mut &mut Routine<'_>| {
                let start = Instant::now();
                (routine.call)();
                routine.samples.push(start.elapsed());
            };
            if round % 2 == 0 {
                live.iter_mut().for_each(once);
            } else {
                live.iter_mut().rev().for_each(once);
            }
        }
        for routine in live {
            self.report(&full(routine), std::mem::take(&mut routine.samples));
        }
        self
    }

    /// Print one benchmark's median, quartiles, sample count and rate.
    fn report(&self, full: &str, mut samples: Vec<Duration>) {
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        let (q1, q3) = (samples[samples.len() / 4], samples[samples.len() * 3 / 4]);

        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if median > Duration::ZERO => {
                format!("  ({:.3} Melem/s)", n as f64 / median.as_secs_f64() / 1e6)
            }
            Some(Throughput::Bytes(n)) if median > Duration::ZERO => {
                format!(
                    "  ({:.3} MiB/s)",
                    n as f64 / median.as_secs_f64() / (1 << 20) as f64
                )
            }
            _ => String::new(),
        };
        println!(
            "{full:<48} {median:>12.3?}/iter  [{q1:.3?} .. {q3:.3?}, n={}]{rate}",
            samples.len()
        );
    }

    /// End the group (reporting already happened per-benchmark).
    pub fn finish(&mut self) {}
}

/// Declare a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare the bench `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) {
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        group.throughput(Throughput::Elements(1000));
        group.bench_function("sum_1k", |b| b.iter(|| (0..1000u64).sum::<u64>()));
        group.bench_function(BenchmarkId::new("sum", 1000), |b| {
            b.iter(|| (0..1000u64).sum::<u64>())
        });
        let (mut a, mut b) = (0u32, 0u32);
        group.bench_alternating(&mut [Routine::new("a", || a += 1), Routine::new("b", || b += 1)]);
        // One warm-up call and one per round, for each.
        assert_eq!((a, b), (4, 4));
        group.finish();
    }

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion { filter: None };
        quick(&mut c);
    }
}
