//! Span recording for the traced mode.
//!
//! Spans are recorded by the benchmark itself around each call into a
//! layer's public functions (the library has no timers of its own here):
//! name, start, end, parent span and the workload step (run id) they
//! belong to. They stay in memory and are written out once, at exit, as a
//! Chrome-trace document (`chrome://tracing`, Perfetto) through the
//! repository's own [`prft_sim::ChromeTrace`] builder.

use prft_sim::{ChromeTrace, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The workload step this span belongs to.
    pub run: u32,
}

/// An in-memory span log. When disabled every call is a no-op, so the
/// untraced steps pay nothing but the `Instant` reads the benchmark makes
/// anyway to time its steps.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            enabled: false,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a finished span; returns its index for use as a parent
    /// (`None` when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run: u32,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            run,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a parent span whose end is set by [`Tracer::close`]; children
    /// recorded in between name it as their parent.
    pub fn open(&mut self, name: &'static str, run: u32) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, None, run)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = Instant::now();
        }
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part of it its children cover, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_cover = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += secs(s.start, s.end);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (secs(s.start, s.end) - child_cover[i]).max(0.0);
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// Total duration per span name, in seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += secs(s.start, s.end);
            e.1 += 1;
        }
        out
    }

    /// Renders the spans as a Chrome-trace document: one track per
    /// workload step, timestamps in microseconds since the benchmark
    /// started, and `span`/`parent`/`run` ids as event args.
    pub fn chrome_trace(&self) -> String {
        let mut ct = ChromeTrace::new();
        let mut runs: Vec<u32> = self.spans.iter().map(|s| s.run).collect();
        runs.dedup();
        for run in runs {
            ct.thread_name(0, run, &format!("step {run}"));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![("span", i as u64), ("run", u64::from(s.run))];
            if let Some(p) = s.parent {
                args.push(("parent", p as u64));
            }
            ct.complete(
                s.name,
                "layer",
                0,
                s.run,
                self.micros(s.start),
                self.micros(s.end),
                &args,
            );
        }
        ct.render()
    }

    fn micros(&self, t: Instant) -> SimTime {
        SimTime(t.saturating_duration_since(self.origin).as_micros() as u64)
    }
}

fn secs(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        assert_eq!(tr.record("x", t0, t0, None, 0), None);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        tr.set_enabled(true);
        let ms = |k: u64| t0 + Duration::from_millis(k);
        let root = tr.record("step", ms(0), ms(100), None, 0);
        tr.record("lab.build", ms(0), ms(30), root, 0);
        tr.record("lab.execute", ms(30), ms(90), root, 0);
        let st = tr.self_times();
        assert!((st["step"] - 0.010).abs() < 1e-9);
        assert!((st["lab.build"] - 0.030).abs() < 1e-9);
        assert!((st["lab.execute"] - 0.060).abs() < 1e-9);
        let doc = tr.chrome_trace();
        assert!(doc.contains("\"name\":\"lab.execute\""));
        assert!(doc.contains("\"parent\":0"));
    }
}
