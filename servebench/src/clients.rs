//! Load generation: closed-loop clients over the probe pool, and the
//! live-ingest feeder that interleaves event chunks with probe requests.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use wfp_model::io::RunEvent;
use wfp_skl::{
    LiveRun, Probe, RegistryError, RunId, ServeHandle, ServiceRegistry, ShardPlan, ShardedServer,
    Ticket,
};
use wfp_speclabel::SpecScheme;

use crate::gen::{Inputs, RunRef, CHUNK_EVENTS};
use crate::setup::ShardInfo;
use crate::trace::{SpanId, Trace, NO_PARENT};

/// When a client stops submitting.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Instant),
    /// After one pass over the pool, shared among the clients.
    OnePass,
}

/// One client's record of a drive.
pub struct ClientLog {
    /// Pool index of each request, in submission order.
    pub reqs: Vec<u32>,
    /// False where the request came back with an error.
    pub ok: Vec<bool>,
    /// Answers of every request, concatenated in submission order.
    pub answers: Vec<bool>,
    /// Submit→reply latency per request, ns.
    pub latency_ns: Vec<u64>,
    /// Reply time per request, ns after the drive began.
    pub done_ns: Vec<u64>,
}

pub struct Drive {
    pub clients: Vec<ClientLog>,
}

impl Drive {
    pub fn requests(&self) -> u64 {
        self.clients.iter().map(|c| c.reqs.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.ok.iter().filter(|&&ok| !ok).count() as u64)
            .sum()
    }

    pub fn latencies_ns(&self) -> Vec<u64> {
        self.clients
            .iter()
            .flat_map(|c| c.latency_ns.iter().copied())
            .collect()
    }

    /// Probes answered per second in each of `windows` equal slices of
    /// `[0, span_s)`: the probes of the replies after a slice's first
    /// reply, over the time from its first reply to its last.
    pub fn window_rates(&self, per_request: usize, span_s: f64, windows: usize) -> Vec<f64> {
        let width_ns = span_s * 1e9 / windows as f64;
        let mut replies: Vec<Vec<u64>> = vec![Vec::new(); windows];
        for c in &self.clients {
            for (&t, &ok) in c.done_ns.iter().zip(&c.ok) {
                let w = (t as f64 / width_ns) as usize;
                if ok && w < windows {
                    replies[w].push(t);
                }
            }
        }
        replies
            .into_iter()
            .filter(|r| r.len() >= 2)
            .map(|r| {
                let (lo, hi) = (r.iter().min().unwrap(), r.iter().max().unwrap());
                ((r.len() - 1) * per_request) as f64 / ((hi - lo) as f64 / 1e9)
            })
            .collect()
    }

    /// Compares every answered request with `expected` (pool order);
    /// returns the number of requests whose answers differ.
    pub fn mismatches(&self, expected: &[bool], per_request: usize) -> usize {
        let mut bad = 0;
        for c in &self.clients {
            for (k, (&r, &ok)) in c.reqs.iter().zip(&c.ok).enumerate() {
                let got = &c.answers[k * per_request..(k + 1) * per_request];
                let want = &expected[r as usize * per_request..(r as usize + 1) * per_request];
                if ok && got != want {
                    bad += 1;
                }
            }
        }
        bad
    }
}

/// Drives the pool through `handle` from `clients` closed-loop client
/// threads, each keeping `depth` requests in flight. Request spans go to
/// `trace` under `parent` when tracing is on.
pub fn drive_pool(
    handle: &ServeHandle,
    inputs: &Inputs,
    clients: usize,
    depth: usize,
    stop: Stop,
    trace: &mut Trace,
    parent: SpanId,
) -> Drive {
    let started = Instant::now();
    let per = inputs.per_request;
    let pool_len = inputs.requests();
    let results: Vec<(ClientLog, Trace)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let handle = handle.clone();
                let mut ctrace = trace.fork();
                scope.spawn(move || {
                    let span = ctrace.open("client", NO_PARENT);
                    let mut log = ClientLog {
                        reqs: Vec::new(),
                        ok: Vec::new(),
                        answers: Vec::new(),
                        latency_ns: Vec::new(),
                        done_ns: Vec::new(),
                    };
                    let mut inflight: VecDeque<(usize, Instant, Option<Ticket>)> =
                        VecDeque::with_capacity(depth);
                    let mut buf = Vec::with_capacity(per);
                    let mut finish = |log: &mut ClientLog,
                                      ctrace: &mut Trace,
                                      (r, t0, ticket): (usize, Instant, Option<Ticket>)| {
                        let ok = match ticket {
                            Some(mut t) => t.wait_into(&mut buf).is_ok(),
                            None => false,
                        };
                        let t1 = Instant::now();
                        if !ok {
                            buf.clear();
                            buf.resize(per, false);
                        }
                        log.reqs.push((r % pool_len) as u32);
                        log.ok.push(ok);
                        log.answers.extend_from_slice(&buf);
                        log.latency_ns.push((t1 - t0).as_nanos() as u64);
                        log.done_ns.push((t1 - started).as_nanos() as u64);
                        ctrace.record("request", span, (t0, t1), ((c as u64) << 32) | r as u64, per as u64);
                    };
                    let mut r = c;
                    loop {
                        let more = match stop {
                            Stop::At(t) => Instant::now() < t,
                            Stop::OnePass => r < pool_len,
                        };
                        if !more {
                            break;
                        }
                        if inflight.len() == depth {
                            let front = inflight.pop_front().expect("depth >= 1");
                            finish(&mut log, &mut ctrace, front);
                        }
                        let t0 = Instant::now();
                        let ticket = handle.submit(inputs.request(r).to_vec()).ok();
                        inflight.push_back((r, t0, ticket));
                        r += clients;
                    }
                    while let Some(front) = inflight.pop_front() {
                        finish(&mut log, &mut ctrace, front);
                    }
                    let n = log.reqs.len() as u64;
                    ctrace.close(span, n * per as u64);
                    (log, ctrace)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let mut logs = Vec::with_capacity(results.len());
    for (log, ctrace) in results {
        trace.absorb(ctrace, parent);
        logs.push(log);
    }
    Drive { clients: logs }
}

/// Feeds `events` into a live run; the first rejected event is the error.
pub fn replay(live: &mut LiveRun<'_, SpecScheme>, events: &[RunEvent]) -> Result<(), String> {
    for ev in events {
        let r = match *ev {
            RunEvent::BeginGroup(sg) => live.begin_group(sg),
            RunEvent::BeginCopy => live.begin_copy(),
            RunEvent::Exec(m) => live.exec(m).map(|_| ()),
            RunEvent::EndCopy => live.end_copy(),
            RunEvent::EndGroup => live.end_group(),
        };
        r.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Per-run ingest counters read from the live run just before it froze.
#[derive(Clone, Copy, Default)]
pub struct LiveCounts {
    pub events: u64,
    pub tag_repairs: u64,
}

/// One live-ingest cycle's record.
#[derive(Default)]
pub struct Cycle {
    pub events: u64,
    pub probes: u64,
    /// Time inside begin/chunk/freeze control calls, s.
    pub ingest_s: f64,
    /// Time inside probe requests, s.
    pub probe_s: f64,
    pub chunk_ns: Vec<u64>,
    pub freeze_ns: Vec<u64>,
    pub request_ns: Vec<u64>,
    pub counts: LiveCounts,
    pub attempted: u64,
    pub failed: u64,
    /// Requests whose answers differ from `expected`.
    pub mismatches: u64,
}

/// Runs one live-ingest cycle through the control plane of `server`:
/// every live log begins a new run; chunks go out round-robin over the
/// logs, each followed by its probe request; a run freezes after its last
/// chunk. Served answers are compared with `expected` (per log, per chunk).
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
pub fn live_cycle(
    server: &ShardedServer<ShardInfo>,
    handle: &ServeHandle,
    inputs: &Inputs,
    logs: &[Arc<[RunEvent]>],
    plan: &ShardPlan,
    expected: &[Vec<Vec<bool>>],
    trace: &mut Trace,
    parent: SpanId,
) -> Cycle {
    let shards = server.shards();
    let mut cy = Cycle::default();
    let home = |spec: usize| plan.shard_of(inputs.ids[spec], shards);
    let timed = |cy: &mut Cycle, trace: &mut Trace, layer, t0: Instant, work: u64| {
        let t1 = Instant::now();
        cy.ingest_s += (t1 - t0).as_secs_f64();
        trace.record(layer, parent, (t0, t1), 0, work);
        (t1 - t0).as_nanos() as u64
    };

    let mut runs: Vec<Option<RunId>> = Vec::with_capacity(inputs.live.len());
    for log in &inputs.live {
        let (id, spec) = (inputs.ids[log.spec], inputs.specs[log.spec]);
        let t0 = Instant::now();
        let got = server.control_shard(home(log.spec), move |reg| reg.begin_live(id, spec));
        timed(&mut cy, trace, "begin_live", t0, 0);
        cy.attempted += 1;
        match got {
            Ok(Ok(run)) => runs.push(Some(run)),
            _ => {
                cy.failed += 1;
                runs.push(None);
            }
        }
    }

    let steps = inputs
        .live
        .iter()
        .map(|l| l.chunks.len())
        .max()
        .unwrap_or(0);
    let mut buf = Vec::new();
    for k in 0..steps {
        for (l, log) in inputs.live.iter().enumerate() {
            let Some(run) = runs[l] else { continue };
            if k >= log.chunks.len() {
                continue;
            }
            let id = inputs.ids[log.spec];
            let shard = home(log.spec);
            let (a, b) = log.chunks[k];
            let events = Arc::clone(&logs[l]);
            let t0 = Instant::now();
            let got = server.control_shard(shard, move |reg| {
                let live = reg.live_mut(id, run).map_err(|e| e.to_string())?;
                replay(live, &events[a..b])
            });
            let ns = timed(&mut cy, trace, "append_chunk", t0, (b - a) as u64);
            cy.chunk_ns.push(ns);
            cy.attempted += 1;
            if !matches!(got, Ok(Ok(()))) {
                cy.failed += 1;
                runs[l] = None;
                continue;
            }
            cy.events += (b - a) as u64;

            let probes: Vec<Probe> = log.requests[k]
                .iter()
                .map(|&(spec, r, u, v)| {
                    let r = match r {
                        RunRef::Frozen(r) => r,
                        RunRef::Live(_) => run,
                    };
                    (spec, r, u, v)
                })
                .collect();
            let n = probes.len() as u64;
            let t0 = Instant::now();
            let got = handle
                .submit(probes)
                .and_then(|mut t| t.wait_into(&mut buf));
            let t1 = Instant::now();
            trace.record(
                "request",
                parent,
                (t0, t1),
                ((l as u64) << 32) | k as u64,
                n,
            );
            cy.probe_s += (t1 - t0).as_secs_f64();
            cy.request_ns.push((t1 - t0).as_nanos() as u64);
            cy.attempted += 1;
            match got {
                Ok(()) => {
                    cy.probes += n;
                    if buf != expected[l][k] {
                        cy.mismatches += 1;
                    }
                }
                Err(_) => cy.failed += 1,
            }

            if k + 1 == log.chunks.len() {
                let t0 = Instant::now();
                let got = server.control_shard(shard, move |reg| {
                    let st = reg.live_mut(id, run)?.stats();
                    reg.freeze_run(id, run)?;
                    Ok::<_, RegistryError>(LiveCounts {
                        events: st.events,
                        tag_repairs: st.tag_repairs,
                    })
                });
                let ns = timed(&mut cy, trace, "freeze_run", t0, 0);
                cy.freeze_ns.push(ns);
                cy.attempted += 1;
                match got {
                    Ok(Ok(c)) => {
                        cy.counts.events += c.events;
                        cy.counts.tag_repairs += c.tag_repairs;
                    }
                    _ => cy.failed += 1,
                }
            }
        }
    }
    cy
}

/// One offline ingest pass on the benchmark thread: every replay log
/// becomes a live run of `reg` (through its live API), fed in fixed
/// chunks, then frozen. `reg` must already serve every spec.
pub fn replay_pass(
    reg: &mut ServiceRegistry<'static>,
    inputs: &Inputs,
    trace: &mut Trace,
    parent: SpanId,
) -> Cycle {
    let mut cy = Cycle::default();
    for &(s, ref events) in &inputs.replay {
        let id = inputs.ids[s];
        let t0 = Instant::now();
        let begun = reg.begin_live(id, inputs.specs[s]);
        let t1 = Instant::now();
        cy.ingest_s += (t1 - t0).as_secs_f64();
        trace.record("begin_live", parent, (t0, t1), 0, 0);
        cy.attempted += 1;
        let Ok(run) = begun else {
            cy.failed += 1;
            continue;
        };
        let mut alive = true;
        for chunk in events.chunks(CHUNK_EVENTS) {
            let t0 = Instant::now();
            let got = reg
                .live_mut(id, run)
                .map_err(|e| e.to_string())
                .and_then(|live| replay(live, chunk));
            let t1 = Instant::now();
            cy.ingest_s += (t1 - t0).as_secs_f64();
            cy.chunk_ns.push((t1 - t0).as_nanos() as u64);
            trace.record("append_chunk", parent, (t0, t1), 0, chunk.len() as u64);
            cy.attempted += 1;
            if got.is_err() {
                cy.failed += 1;
                alive = false;
                break;
            }
            cy.events += chunk.len() as u64;
        }
        if !alive {
            continue;
        }
        let st = reg.live_mut(id, run).map(|l| l.stats());
        let t0 = Instant::now();
        let frozen = reg.freeze_run(id, run);
        let t1 = Instant::now();
        cy.ingest_s += (t1 - t0).as_secs_f64();
        cy.freeze_ns.push((t1 - t0).as_nanos() as u64);
        trace.record("freeze_run", parent, (t0, t1), 0, 0);
        cy.attempted += 1;
        match (st, frozen) {
            (Ok(st), Ok(())) => {
                cy.counts.events += st.events;
                cy.counts.tag_repairs += st.tag_repairs;
            }
            _ => cy.failed += 1,
        }
    }
    cy
}
