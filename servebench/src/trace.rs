//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing is recorded when tracing is off;
//! spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Trace`]; [`NO_PARENT`] marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Request the span belongs to (`0` outside request handling).
    pub request: u64,
    /// Probes (or, for ingest spans, events) the call handled.
    pub work: u64,
}

pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool, epoch: Instant) -> Trace {
        Trace {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty trace for another thread, sharing this one's clock.
    pub fn fork(&self) -> Trace {
        Trace::new(self.on, self.epoch)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, layer: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            request: 0,
            work: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId, work: u64) {
        if !self.on || id == NO_PARENT {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.work = work;
    }

    /// Records a span the caller timed itself.
    pub fn record(
        &mut self,
        layer: &'static str,
        parent: SpanId,
        (start, end): (Instant, Instant),
        request: u64,
        work: u64,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            work,
        };
        self.spans.push(span);
    }

    /// Moves another thread's spans in; its roots become children of
    /// `parent`.
    pub fn absorb(&mut self, other: Trace, parent: SpanId) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per layer: calls, total time, self time (duration minus the part
    /// covered by child spans) and work, in first-seen order.
    pub fn layers(&self) -> Vec<LayerTime> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push(i as u32);
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut rows: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let mut cover: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c as usize];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let row = rows.entry(s.layer).or_insert_with(|| {
                order.push(s.layer);
                LayerTime {
                    layer: s.layer,
                    ..LayerTime::default()
                }
            });
            row.calls += 1;
            row.total_ns += dur;
            row.self_ns += dur - covered.min(dur);
            row.work += s.work;
        }
        order.into_iter().map(|l| rows[l]).collect()
    }

    /// The spans as JSON: `[layer, start_ns, end_ns, parent, request, work]`
    /// rows, parent `-1` for roots.
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "[\"{}\",{},{},{},{},{}]",
                s.layer, s.start_ns, s.end_ns, parent, s.request, s.work
            );
        }
        out.push(']');
        out
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub layer: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}
