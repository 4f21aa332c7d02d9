//! Timing statistics, the metric report, spans, and peak memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted samples;
/// NaN when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Time per call of a run: the mean of the calls after dropping the
/// fastest and slowest 10%; NaN when there are none.
///
/// Not the median: on a shared 2-core host, short parallel kernels run
/// at one of two speeds about 2x apart for seconds at a time, so a
/// run's median jumps to whichever mode held more than half the run.
/// The trimmed mean moves in proportion to the time spent in each mode
/// and still ignores the odd stalled call.
pub fn call_time(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 10;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// Heap bytes live now, and the most ever live at once.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes.  The peak is the
/// program's own memory demand; the resident set also holds what the
/// allocator keeps cached, and on a 2-vCPU Xeon VM it read 150 or 217 MiB for
/// the same `paper-rmat` run.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    // Relaxed: statistics only; no other data is published through them.
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards the caller's layout contract unchanged to
// `System` and only adds counter updates after a successful call.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `layout` is forwarded.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `layout` is forwarded.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        // Relaxed: statistics only.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `ptr`, `layout` and
        // `new_size` is forwarded.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                // Relaxed: statistics only.
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Most heap bytes live at once since the start or the last
/// [`reset_peak_heap`], in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Restart the peak from the bytes live now.
pub fn reset_peak_heap() {
    // Relaxed: statistics only.
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for a single measurement or a count).
    pub samples: usize,
}

/// The run's outcome: metrics plus the correctness tally.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for each failed check (first few kept).
    pub errors: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Count one attempted operation; `Err` marks it failed.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Record a failed check that is not an attempted operation of its
    /// own (e.g. a cross-check between two results).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Add another report's tally (not its metrics).
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human table on stdout, then the one-line JSON result as the last
    /// line.
    pub fn print(&self) {
        let mut out = std::io::stdout().lock();
        for m in &self.metrics {
            let n = if m.samples > 0 {
                format!("  (n={})", m.samples)
            } else {
                String::new()
            };
            let _ = writeln!(out, "{:<42} {:>16.6} {}{}", m.name, m.value, m.unit, n);
        }
        for e in &self.errors {
            let _ = writeln!(out, "FAILED: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, m.name, v, m.unit)
            })
            .collect();
        let _ = writeln!(
            out,
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        let _ = out.flush();
    }
}

/// One span: a call the benchmark made into a layer.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span recorder for one thread.  Disabled tracers record
/// nothing, so the untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, request);
        let r = f();
        self.exit();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer: each span's duration minus its children's,
/// summed by the layer prefix of its name (`bsp.cc` -> `bsp`).
pub fn self_seconds_by_layer(spans: &[Span]) -> Vec<(String, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut layers: Vec<(String, f64)> = Vec::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let own = (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e9;
        match layers.iter_mut().find(|(l, _)| l == layer) {
            Some((_, t)) => *t += own,
            None => layers.push((layer.to_string(), own)),
        }
    }
    layers
}

/// Write spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `request`; `parent` indexes the same file's lines, thread-major).
pub fn write_spans(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0usize;
    for (t, spans) in threads.iter().enumerate() {
        for s in spans {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (base + p).to_string());
            writeln!(
                w,
                r#"{{"thread": {t}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "request": {}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        base += spans.len();
    }
    w.flush()
}

/// SplitMix64: the benchmark's own seeded generator for job mixes and
/// sources (the program only sees the generated inputs).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn call_time_trims_a_tenth_each_side() {
        let mut s: Vec<f64> = (1..=10).map(f64::from).collect();
        s[9] = 1000.0;
        assert_eq!(call_time(&s), 5.5);
        assert_eq!(call_time(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "job",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 1,
            },
            Span {
                name: "wire.submit",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "wire.result",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                request: 1,
            },
        ];
        let by = self_seconds_by_layer(&spans);
        let ns: Vec<(&str, u64)> = by
            .iter()
            .map(|(l, s)| (l.as_str(), (s * 1e9).round() as u64))
            .collect();
        assert_eq!(ns, vec![("job", 30), ("wire", 70)]);
    }
}
