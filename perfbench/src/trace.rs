//! The program's own trace-v1 progress stream, as a client receives it:
//! a writer that stamps each line on arrival, and a parser for the
//! counters each line carries.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use clre::methodology::ClrEarly;
use clre_exec::{Executor, RunTelemetry, TelemetrySink};

/// One trace-v1 line: when it arrived and what it reports.
#[derive(Debug, Clone, Default)]
pub struct TraceLine {
    /// Seconds since the campaign was requested.
    pub at_s: f64,
    pub batch: u64,
    pub eval_us: u64,
    pub selection_us: u64,
    pub sort_us: u64,
    pub truncate_us: u64,
    pub dist_us: u64,
}

impl TraceLine {
    /// Parses a `trace-v1 phase=… step=…` line; `None` for anything else.
    pub fn parse(line: &str, at_s: f64) -> Option<TraceLine> {
        let body = line.strip_prefix("trace-v1 ")?;
        if !body.starts_with("phase=") {
            return None;
        }
        let mut rec = TraceLine {
            at_s,
            ..TraceLine::default()
        };
        for token in body.split_whitespace() {
            let Some((key, value)) = token.split_once('=') else {
                continue;
            };
            let slot = match key {
                "batch" => &mut rec.batch,
                "eval_us" => &mut rec.eval_us,
                "selection_us" => &mut rec.selection_us,
                "sort_us" => &mut rec.sort_us,
                "truncate_us" => &mut rec.truncate_us,
                "dist_us" => &mut rec.dist_us,
                _ => continue,
            };
            *slot = value.parse().ok()?;
        }
        Some(rec)
    }
}

/// Per-campaign sums over its trace lines.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceSums {
    pub evaluations: u64,
    pub eval_us: u64,
    pub selection_us: u64,
    pub sort_us: u64,
    pub truncate_us: u64,
    pub dist_us: u64,
}

impl TraceSums {
    pub fn of(lines: &[TraceLine]) -> TraceSums {
        let mut s = TraceSums::default();
        for l in lines {
            s.evaluations += l.batch;
            s.eval_us += l.eval_us;
            s.selection_us += l.selection_us;
            s.sort_us += l.sort_us;
            s.truncate_us += l.truncate_us;
            s.dist_us += l.dist_us;
        }
        s
    }
}

/// Time between consecutive lines not spent evaluating or selecting —
/// what the campaign waited for (the fair gate, checkpoint writes, the
/// wire) between two generations, in ms.
pub fn gaps_ms(lines: &[TraceLine]) -> Vec<f64> {
    lines
        .windows(2)
        .filter(|w| w[0].at_s.is_finite() && w[1].at_s.is_finite())
        .map(|w| {
            let gap = (w[1].at_s - w[0].at_s) * 1e3;
            (gap - (w[1].eval_us + w[1].selection_us) as f64 / 1e3).max(0.0)
        })
        .collect()
}

/// A `Write` sink that stamps every complete line it receives.
#[derive(Clone)]
pub struct LineTap {
    inner: Arc<Mutex<TapState>>,
}

struct TapState {
    start: Instant,
    partial: Vec<u8>,
    lines: Vec<TraceLine>,
}

impl LineTap {
    pub fn new(start: Instant) -> LineTap {
        LineTap {
            inner: Arc::new(Mutex::new(TapState {
                start,
                partial: Vec::new(),
                lines: Vec::new(),
            })),
        }
    }

    /// The lines received so far.
    pub fn lines(&self) -> Vec<TraceLine> {
        self.inner.lock().expect("tap poisoned").lines.clone()
    }
}

impl io::Write for LineTap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let mut state = self.inner.lock().expect("tap poisoned");
        state.partial.extend_from_slice(buf);
        while let Some(pos) = state.partial.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = state.partial.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&raw[..pos]).into_owned();
            let at_s = now.duration_since(state.start).as_secs_f64();
            if let Some(rec) = TraceLine::parse(&text, at_s) {
                state.lines.push(rec);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A user's view of one in-process campaign: the program's live trace
/// stream, and the telemetry store behind it.
pub struct Watch {
    tap: LineTap,
    sink: TelemetrySink,
}

/// Attaches a fresh serial executor whose progress stream feeds a tap
/// stamped from `start`.
pub fn watched(dse: ClrEarly<'_>, start: Instant) -> (ClrEarly<'_>, Watch) {
    let tap = LineTap::new(start);
    let sink = RunTelemetry::sink();
    sink.lock()
        .expect("telemetry sink poisoned")
        .stream_to(Box::new(tap.clone()));
    let dse = dse.with_executor(Executor::serial().with_telemetry(Arc::clone(&sink)));
    (dse, Watch { tap, sink })
}

impl Watch {
    /// The campaign's trace lines and the time its first line reached
    /// the stream. Lines the program recorded but never streamed carry
    /// no arrival time; a campaign that streamed nothing showed its user
    /// nothing before the front, at `wall_s`.
    pub fn finish(&self, wall_s: f64) -> (Vec<TraceLine>, f64) {
        let streamed = self.tap.lines();
        let recorded: Vec<TraceLine> = self
            .sink
            .lock()
            .expect("telemetry sink poisoned")
            .records()
            .iter()
            .filter_map(|r| TraceLine::parse(&r.line(), f64::NAN))
            .collect();
        let first = streamed.first().map_or(wall_s, |l| l.at_s);
        if streamed.len() == recorded.len() {
            (streamed, first)
        } else {
            (recorded, first)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn tap_splits_and_parses_lines() {
        let mut tap = LineTap::new(Instant::now());
        tap.write_all(b"trace-v1 phase=a step=0 batch=8 eval_us=10 workers=1 selection_us=3 sort_us=1 truncate_us=0 dist_us=2\ntrace-v1 pha")
            .unwrap();
        tap.write_all(
            b"se=a step=1 batch=8 eval_us=20 selection_us=4\ntrace-v1 totals records=2\n",
        )
        .unwrap();
        let lines = tap.lines();
        assert_eq!(lines.len(), 2);
        let sums = TraceSums::of(&lines);
        assert_eq!(sums.evaluations, 16);
        assert_eq!(sums.eval_us, 30);
        assert_eq!(sums.selection_us, 7);
        assert_eq!(sums.dist_us, 2);
        assert_eq!(gaps_ms(&lines).len(), 1);
    }
}
