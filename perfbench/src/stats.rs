//! The benchmark's own bookkeeping: in-memory spans, self time, and
//! percentiles that report their sample counts.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval around a call into a layer's public API.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to; spans of one repetition share it.
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory while enabled; a disabled tracer runs the
/// closure and records nothing, so untraced repetitions pay no
/// bookkeeping.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts repetition `run`, traced or not.
    pub fn begin_run(&mut self, run: u32, enabled: bool) {
        assert!(self.stack.is_empty(), "a span is still open");
        self.run = run;
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of the spans named `name` in repetition `run`.
    pub fn durations_s(&self, run: u32, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// The spans as JSON lines: name, start, end, parent and run id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.run, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Self time of `spans[idx]`: its duration minus the part of its
/// interval that its direct children cover. Overlapping children are
/// counted once.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut total = 0;
    let mut cursor = parent.start_ns;
    for (a, b) in covered {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    parent.duration_ns() - total
}

/// Words in the two calibration tables: 32 KiB, inside L1, and 4 MiB,
/// twice a 2 MiB per-core L2.
const CALIBRATION_WORDS: [usize; 2] = [1 << 12, 1 << 19];
/// Table updates per walk, so that each walk takes about 40 ms on the
/// 2-core Xeon host the benchmark was tuned on.
const CALIBRATION_STEPS: [u64; 2] = [15_000_000, 10_000_000];

/// A fixed kernel owned by the benchmark, so no change to the program
/// under test can speed it up or slow it down: xorshift walks of
/// read-modify-writes over a table inside L1 and one larger than L2.
/// The geometric mean of the two walks' times tracks the host's speed at
/// the moment they run, which on a shared machine drifts by tens of
/// percent over minutes; neither walk alone tracked both the
/// cache-resident DDR pricing and the memory-heavier functional kernels.
pub struct Calibration {
    tables: [Vec<u64>; 2],
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            tables: CALIBRATION_WORDS.map(|n| (0..n as u64).collect()),
        }
    }

    /// Runs both walks once; the geometric mean of their wall seconds.
    pub fn sample(&mut self) -> f64 {
        let mut product = 1.0;
        for (table, steps) in self.tables.iter_mut().zip(CALIBRATION_STEPS) {
            let start = Instant::now();
            let mask = table.len() - 1;
            let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
            for _ in 0..steps {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = x as usize & mask;
                acc = acc.wrapping_add(table[i]).rotate_left(5);
                table[i] = acc;
            }
            std::hint::black_box(acc);
            product *= start.elapsed().as_secs_f64();
        }
        product.sqrt()
    }
}

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// A nearest-rank percentile with its sample count. `value` is `None`
/// when there are no samples, or when the percentile is a tail (above
/// the median) with fewer than [`TAIL_SAMPLES`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub q: f64,
    pub value: Option<f64>,
    pub samples: usize,
    pub beyond: usize,
}

impl Percentile {
    /// Human-readable form, e.g. `12.5 (n=130)` or `refused (n=40, 4 beyond p90)`.
    pub fn describe(&self, decimals: usize) -> String {
        match self.value {
            Some(v) => format!("{v:.decimals$} (n={})", self.samples),
            None => format!(
                "refused (n={}, {} beyond p{:.0})",
                self.samples,
                self.beyond,
                self.q * 100.0
            ),
        }
    }
}

pub fn percentile(samples: &[f64], q: f64) -> Percentile {
    assert!((0.0..=1.0).contains(&q), "percentile must lie in [0, 1]");
    let n = samples.len();
    if n == 0 {
        return Percentile {
            q,
            value: None,
            samples: 0,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank, 1-based.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    let refused = q > 0.5 && beyond < TAIL_SAMPLES;
    Percentile {
        q,
        value: (!refused).then(|| sorted[rank - 1]),
        samples: n,
        beyond,
    }
}

/// Median of a non-empty sample (the mean of the middle pair for even
/// counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_child_time() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the shared 20..30 is covered once.
            span("b", 20, 50, Some(0)),
            span("c", 70, 80, Some(0)),
            // A grandchild is covered by its parent `c`, not by `rep`.
            span("d", 72, 75, Some(3)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 3), 10 - 3);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 5);
    }

    #[test]
    fn tracer_records_nesting_and_runs() {
        let mut t = Tracer::new();
        t.begin_run(3, true);
        t.span("outer", |t| t.span("inner", |_| ()));
        t.begin_run(4, false);
        t.span("ignored", |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn percentiles_report_sample_counts() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p50 = percentile(&xs, 0.5);
        assert_eq!(p50.value, Some(100.0));
        assert_eq!(p50.samples, 200);
        let p90 = percentile(&xs, 0.9);
        assert_eq!(p90.value, Some(180.0));
        assert_eq!(p90.beyond, 20);
        assert_eq!(p90.describe(0), "180 (n=200)");
        assert_eq!(percentile(&[], 0.5).value, None);
    }

    #[test]
    fn tail_percentile_is_refused_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        let p90 = percentile(&xs, 0.9);
        assert_eq!(p90.value, None);
        assert_eq!((p90.samples, p90.beyond), (99, 9));
        assert_eq!(p90.describe(1), "refused (n=99, 9 beyond p90)");
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9).beyond, 10);
        assert!(percentile(&xs, 0.9).value.is_some());
        // The median is never refused.
        assert_eq!(percentile(&[4.0, 1.0, 9.0], 0.5).value, Some(4.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
