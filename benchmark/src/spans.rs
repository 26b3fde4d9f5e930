//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written out at exit as a Chrome trace-event timeline.

use std::io::Write;
use std::time::{Duration, Instant};

/// One timed call: which layer entry point (`kind`), on what (`label`,
/// e.g. a loop or chain name), and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span<'p> {
    pub kind: &'static str,
    pub label: &'p str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the parent span within the same run.
    pub parent: Option<usize>,
    /// 0 for the benchmark's main thread, `1 + rank` for rank threads.
    pub tid: u32,
}

impl Span<'_> {
    pub fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// A per-thread span stack: `open` nests under the innermost open span.
pub struct SpanLog<'p> {
    pub spans: Vec<Span<'p>>,
    stack: Vec<usize>,
    tid: u32,
}

impl<'p> SpanLog<'p> {
    pub fn new(tid: u32) -> Self {
        SpanLog {
            spans: Vec::new(),
            stack: Vec::new(),
            tid,
        }
    }

    /// Open a span and return its index.
    pub fn open(&mut self, kind: &'static str, label: &'p str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            kind,
            label,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            tid: self.tid,
        });
        let i = self.spans.len() - 1;
        self.stack.push(i);
        i
    }

    pub fn close(&mut self) {
        let i = self.stack.pop().expect("close matches an open span");
        self.spans[i].end = Instant::now();
    }

    /// Append another thread's log under span `parent` of this one (its
    /// root spans become `parent`'s children).
    pub fn adopt(&mut self, other: Vec<Span<'p>>, parent: usize) {
        let offset = self.spans.len();
        self.spans.extend(other.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + offset));
            s
        }));
    }
}

/// Every span of one configuration run.
pub struct RunSpans<'p> {
    pub run: u32,
    pub config: &'static str,
    pub spans: Vec<Span<'p>>,
}

impl RunSpans<'_> {
    /// Per span, the part of its interval its children cover.
    pub fn child_coverage(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(parent, kids)| {
                let mut iv: Vec<(Instant, Instant)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(parent.start), c.end.min(parent.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = Duration::ZERO;
                let mut cur: Option<(Instant, Instant)> = None;
                for (a, b) in iv {
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                covered
            })
            .collect()
    }

    /// Self time per span: duration minus child coverage.
    pub fn self_times(&self) -> Vec<Duration> {
        self.spans
            .iter()
            .zip(self.child_coverage())
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write `runs` as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete event per span, the run id as the process id,
/// the thread as the thread id; parent index and self time in `args`.
pub fn write_chrome_trace(
    path: &std::path::Path,
    epoch: Instant,
    runs: &[&RunSpans<'_>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"traceEvents\":[")?;
    let mut first = true;
    for run in runs {
        let selfs = run.self_times();
        for (i, (s, self_t)) in run.spans.iter().zip(selfs).enumerate() {
            let ts = s.start.saturating_duration_since(epoch).as_secs_f64() * 1e6;
            let name = if s.label.is_empty() {
                s.kind.to_string()
            } else {
                format!("{} {}", s.kind, s.label)
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            if !first {
                writeln!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"run\":{},\"config\":{},\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                json_str(&name),
                json_str(s.kind),
                ts,
                s.dur().as_secs_f64() * 1e6,
                run.run,
                s.tid,
                run.run,
                json_str(run.config),
                i,
                parent,
                self_t.as_secs_f64() * 1e6
            )?;
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_child_coverage() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let span = |start, end, parent| Span {
            kind: "k",
            label: "",
            start: at(start),
            end: at(end),
            parent,
            tid: 0,
        };
        let run = RunSpans {
            run: 0,
            config: "c",
            // Parent 0..100 with overlapping children 10..40 and 30..50,
            // and one that sticks out past the parent (90..120).
            spans: vec![
                span(0, 100, None),
                span(10, 40, Some(0)),
                span(30, 50, Some(0)),
                span(90, 120, Some(0)),
            ],
        };
        let cov = run.child_coverage();
        assert_eq!(cov[0], Duration::from_millis(50));
        assert_eq!(run.self_times()[0], Duration::from_millis(50));
        assert_eq!(run.self_times()[1], Duration::from_millis(30));
    }
}
