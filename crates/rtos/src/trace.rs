//! Storage of the co-simulation trace.
//!
//! Every emission is stored as a 32-byte record of ids. Records fill
//! fixed-size segments, so appending never copies earlier records, and a
//! long run allocates many equal blocks instead of one ever-doubling
//! buffer. Names are resolved from the simulator's signal and machine
//! tables only when the trace is read.

use std::fmt;
use std::iter::Flatten;
use std::slice;

/// Records per segment: 2,048 × 32 bytes = 64 KiB.
const SEGMENT: usize = 2048;

struct Record {
    time: u64,
    value: Option<i64>,
    signal: u32,
    by: u32,
}

const _: () = assert!(std::mem::size_of::<Record>() == 32);

/// The stored trace: records in emission order.
#[derive(Default)]
pub(crate) struct TraceLog {
    /// Full segments, then the one being filled; each holds `SEGMENT`
    /// records of capacity.
    segments: Vec<Vec<Record>>,
}

impl TraceLog {
    /// Appends the emission of signal id `signal` by task `by`.
    pub(crate) fn push(&mut self, time: u64, signal: usize, value: Option<i64>, by: usize) {
        let record = Record {
            time,
            value,
            signal: u32::try_from(signal).expect("signal ids fit in u32"),
            by: u32::try_from(by).expect("task indices fit in u32"),
        };
        match self.segments.last_mut() {
            Some(seg) if seg.len() < SEGMENT => seg.push(record),
            _ => {
                let mut seg = Vec::with_capacity(SEGMENT);
                seg.push(record);
                self.segments.push(seg);
            }
        }
    }

    fn len(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |last| (self.segments.len() - 1) * SEGMENT + last.len())
    }
}

/// One emission observed during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry<'a> {
    /// Completion time of the emitting reaction.
    pub time: u64,
    /// Signal name.
    pub signal: &'a str,
    /// Carried value.
    pub value: Option<i64>,
    /// Emitting machine name.
    pub by: &'a str,
}

/// A read-only view of a simulator's emission trace, in emission order
/// (see [`crate::Simulator::trace`]).
#[derive(Clone, Copy)]
pub struct Trace<'a> {
    log: &'a TraceLog,
    /// Signal name per signal id.
    signals: &'a [String],
    /// Machine name per task index.
    machines: &'a [String],
}

impl<'a> Trace<'a> {
    pub(crate) fn new(log: &'a TraceLog, signals: &'a [String], machines: &'a [String]) -> Self {
        Trace {
            log,
            signals,
            machines,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// `true` when nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.log.segments.is_empty()
    }

    /// The `i`-th entry, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<TraceEntry<'a>> {
        let record = self.log.segments.get(i / SEGMENT)?.get(i % SEGMENT)?;
        Some(self.resolve(record))
    }

    /// The entries in emission order.
    pub fn iter(&self) -> TraceIter<'a> {
        TraceIter {
            records: self.log.segments.iter().flatten(),
            trace: *self,
        }
    }

    fn resolve(&self, r: &Record) -> TraceEntry<'a> {
        TraceEntry {
            time: r.time,
            signal: &self.signals[r.signal as usize],
            value: r.value,
            by: &self.machines[r.by as usize],
        }
    }
}

impl fmt::Debug for Trace<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Trace<'a> {
    type Item = TraceEntry<'a>;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Trace`], in emission order.
pub struct TraceIter<'a> {
    records: Flatten<slice::Iter<'a, Vec<Record>>>,
    trace: Trace<'a>,
}

impl<'a> Iterator for TraceIter<'a> {
    type Item = TraceEntry<'a>;

    fn next(&mut self) -> Option<TraceEntry<'a>> {
        self.records.next().map(|r| self.trace.resolve(r))
    }
}
