//! Driver-side spans around every call into `core`, kept in memory and
//! written as Chrome `trace_event` JSON when the run ends.
//!
//! The program itself is not instrumented: a span here is the host time one
//! public call took, seen from outside. Spans nest (phase → call); a span's
//! self time is its duration minus the part its children cover. Totals per
//! span name cover every call; the individual records stop at a fixed
//! capacity (a closed loop polls `run_for` hundreds of thousands of times),
//! so the buffer never grows inside a measured call.

use std::fmt::Write as _;
use std::time::Instant;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
    /// Index of the span that caused this one (`u32::MAX`: none).
    pub parent: u32,
    /// The op the call submitted or reaped (0: none).
    pub op: u64,
}

/// Duration, self time and call count of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub dur_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    start_ns: u64,
    record: u32,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: (record index, children's time so far).
    stack: Vec<(u32, u64)>,
    totals: Vec<(&'static str, Total)>,
}

impl Tracer {
    /// A tracer that records nothing: `enter`/`exit` are one branch each,
    /// so the timed repetitions can share the traced repetition's code.
    pub fn off() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// A recording tracer that keeps the first `capacity` span records
    /// (and totals for all of them).
    pub fn on(capacity: usize) -> Self {
        Tracer {
            on: true,
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            totals: Vec::with_capacity(16),
        }
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open {
                name,
                start_ns: 0,
                record: NONE,
            };
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let record = if self.spans.len() < self.spans.capacity() {
            let parent = self
                .stack
                .iter()
                .rev()
                .map(|&(r, _)| r)
                .find(|&r| r != NONE)
                .unwrap_or(NONE);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                self_ns: 0,
                parent,
                op: 0,
            });
            self.spans.len() as u32 - 1
        } else {
            NONE
        };
        self.stack.push((record, 0));
        Open {
            name,
            start_ns,
            record,
        }
    }

    pub fn exit(&mut self, open: Open) {
        self.exit_op(open, 0);
    }

    pub fn exit_op(&mut self, open: Open, op: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let (record, children_ns) = self.stack.pop().expect("exit without enter");
        debug_assert_eq!(record, open.record, "spans must close innermost first");
        let dur_ns = end_ns - open.start_ns;
        let self_ns = dur_ns.saturating_sub(children_ns);
        if let Some((_, siblings_ns)) = self.stack.last_mut() {
            *siblings_ns += dur_ns;
        }
        if record != NONE {
            let span = &mut self.spans[record as usize];
            span.end_ns = end_ns;
            span.self_ns = self_ns;
            span.op = op;
        }
        let slot = match self.totals.iter().position(|(n, _)| *n == open.name) {
            Some(i) => i,
            None => {
                self.totals.push((open.name, Total::default()));
                self.totals.len() - 1
            }
        };
        let total = &mut self.totals[slot].1;
        total.dur_ns += dur_ns;
        total.self_ns += self_ns;
        total.calls += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals over every span named `name`, recorded or not.
    pub fn total(&self, name: &str) -> Total {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Total::default, |(_, t)| *t)
    }

    /// Chrome `trace_event` JSON (complete events, microsecond
    /// timestamps), loadable in `chrome://tracing` or Perfetto. Totals per
    /// span name ride along under `"totals"`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 130 + 1024);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"totals\":{");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\":{{\"dur_ns\":{},\"self_ns\":{},\"calls\":{}}}",
                if i > 0 { "," } else { "" },
                t.dur_ns,
                t.self_ns,
                t.calls
            );
        }
        out.push_str("},\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"driver\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\
                 \"self_ns\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                if s.parent == NONE {
                    -1
                } else {
                    i64::from(s.parent)
                },
                s.op,
                s.self_ns,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::on(4);
        let outer = t.enter("measure");
        let a = t.enter("run_for");
        t.exit(a);
        let b = t.enter("take_report");
        t.exit_op(b, 7);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].op, 7);
        let dur = |s: &Span| s.end_ns - s.start_ns;
        assert_eq!(
            spans[0].self_ns,
            dur(&spans[0]) - dur(&spans[1]) - dur(&spans[2])
        );
        assert_eq!(t.total("run_for").calls, 1);
        assert_eq!(t.total("measure").self_ns, spans[0].self_ns);
        assert!(t.chrome_json().contains("\"name\":\"take_report\""));
    }

    #[test]
    fn totals_cover_calls_beyond_the_record_capacity() {
        let mut t = Tracer::on(2);
        let outer = t.enter("measure");
        for _ in 0..5 {
            let s = t.enter("run_for");
            t.exit(s);
        }
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.total("run_for").calls, 5);
        let measure = t.total("measure");
        assert_eq!(measure.self_ns, measure.dur_ns - t.total("run_for").dur_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.enter("x");
        t.exit(s);
        assert!(t.spans().is_empty());
        assert_eq!(t.total("x").calls, 0);
    }
}
