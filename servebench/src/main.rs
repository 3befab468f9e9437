//! `servebench` — one benchmark for the skeleton-label serving stack.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the named workload from the seed, sets it up, serves it for
//! about `S` seconds and checks every answer against a transitive-closure
//! oracle. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans and waterfall to `.bench_out/`. See README.md.

mod clients;
mod gen;
mod idle;
mod layers;
mod oracle;
mod setup;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use wfp_model::io::RunEvent;
use wfp_skl::{
    FleetStats, Probe, RegistryStats, RunId, ServeConfig, ServeStats, ServiceRegistry, ShardPlan,
};

use clients::{drive_pool, live_cycle, replay_pass, Cycle, Drive, Stop};
use gen::{Inputs, RunRef, Shape, Tier, WORKLOADS};
use layers::{passes, registry_pass, secs};
use setup::{dir_bytes, full_registry, start_sharded, start_single, Setup};
use trace::{SpanId, Trace, NO_PARENT};

/// Where runs leave their output: snapshot scratch directories (removed
/// at exit) and traces.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A per-process scratch root, `.bench_out/scratch-<pid>`, handing out
/// fresh numbered directories; removed with everything in it on drop.
struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let root = Path::new(OUT_DIR).join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    fn fresh(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(n.to_string())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What a run prints as its last line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("servebench: check failed: {what}");
            self.correct = false;
        }
    }

    fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// Everything a workload needs besides its set-up.
struct Bench<'a> {
    shape: &'a Shape,
    inputs: &'a Inputs,
    config: ServeConfig,
    plan: ShardPlan,
    scratch: &'a Scratch,
    seconds: f64,
    /// Oracle answers of the pool, and of each live request.
    expected: Vec<bool>,
    expected_live: Vec<Vec<Vec<bool>>>,
    live_logs: Vec<Arc<[RunEvent]>>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "servebench: {e}\nusage: servebench --workload <{}> --seed N \
                 [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(shape) = Shape::named(&args.workload) else {
        eprintln!(
            "servebench: unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# host nproc={nproc} cpu={:?} rustc={:?}",
        env!("SERVEBENCH_CPU"),
        env!("SERVEBENCH_RUSTC")
    );
    println!(
        "# workload={} seed={} seconds={} trace={}",
        shape.name, args.seed, args.seconds, args.trace as u8
    );
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("servebench: cannot create {OUT_DIR}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pollers = idle::IdlePollers::start(nproc);
    let report = run(&shape, &args, &scratch);
    drop(pollers);
    drop(scratch);
    println!("{}", report.json());
    ExitCode::SUCCESS
}

fn run(shape: &Shape, args: &Args, scratch: &Scratch) -> Report {
    let config = ServeConfig::default();
    let t0 = Instant::now();
    let inputs = gen::generate(shape, args.seed, config.max_batch);
    let t1 = Instant::now();
    let bench = Bench {
        shape,
        inputs: &inputs,
        config,
        plan: ShardPlan::new(),
        scratch,
        seconds: args.seconds,
        expected: oracle::frozen_pool(&inputs),
        expected_live: oracle::live_requests(&inputs),
        live_logs: inputs
            .live
            .iter()
            .map(|l| Arc::from(&l.events[..]))
            .collect(),
    };
    eprintln!(
        "servebench: inputs generated in {:.2} s, oracle built in {:.2} s",
        (t1 - t0).as_secs_f64(),
        t1.elapsed().as_secs_f64()
    );
    eprintln!(
        "servebench: {} specs, {} frozen runs ({} vertices), {} live runs ({} vertices, {} events), \
         pool {} requests x {} probes",
        inputs.specs.len(),
        inputs.runs.iter().map(Vec::len).sum::<usize>(),
        inputs.frozen_vertices(),
        inputs.live.len(),
        inputs.live_vertices(),
        inputs.live_events(),
        inputs.requests(),
        inputs.per_request
    );
    let mut rep = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    if args.trace {
        traced(&bench, args.seed, &mut rep);
    } else {
        untraced(&bench, &mut rep);
    }
    rep
}

impl Bench<'_> {
    fn live(&self) -> bool {
        !self.inputs.live.is_empty()
    }

    fn vertices(&self) -> f64 {
        (self.inputs.frozen_vertices() + self.inputs.live_vertices()) as f64
    }

    fn setup(&self, trace: &mut Trace, parent: SpanId) -> Setup {
        setup::setup(
            self.shape,
            self.inputs,
            self.config,
            &self.plan,
            || self.scratch.fresh(),
            trace,
            parent,
        )
        .expect("set-up of generated inputs")
    }

    /// The registry the direct `answer_batch` path drives on the benchmark
    /// thread: the same content as the server, in one registry.
    fn direct_registry(&self, setup: &Setup, rep: &mut Report) -> ServiceRegistry<'static> {
        let mut off = Trace::new(false, Instant::now());
        match (&self.shape.tier, &setup.dir) {
            (Tier::PackedDir { .. }, Some(dir)) => {
                ServiceRegistry::open_dir(dir, setup.budget).expect("snapshot dir opens")
            }
            _ => {
                let mut reg = full_registry(self.inputs, &setup.labels, false, &mut off, NO_PARENT)
                    .expect("registry of generated inputs");
                if self.live() {
                    // the live runs, ingested and frozen in the order the
                    // server's first cycle begins them, so their RunIds match
                    let cy = replay_pass(&mut reg, self.inputs, &mut off, NO_PARENT);
                    rep.ops(cy.attempted, cy.failed);
                }
                reg
            }
        }
    }

    /// The probe set of the direct call: the pool, or on `live-ingest` the
    /// live requests with the RunIds the direct registry gave the live runs.
    fn direct_probes(&self) -> Vec<Probe> {
        if !self.live() {
            return self.inputs.pool.clone();
        }
        let frozen = self.shape.frozen_runs as u32;
        let mut rank = vec![0u32; self.inputs.specs.len()];
        let mut live_id = Vec::with_capacity(self.inputs.live.len());
        for log in &self.inputs.live {
            live_id.push(RunId(frozen + rank[log.spec]));
            rank[log.spec] += 1;
        }
        self.inputs
            .live
            .iter()
            .flat_map(|log| log.requests.iter().flatten())
            .map(|&(spec, run, u, v)| match run {
                RunRef::Frozen(r) => (spec, r, u, v),
                RunRef::Live(l) => (spec, live_id[l], u, v),
            })
            .collect()
    }

    fn expected_direct(&self) -> Vec<bool> {
        if self.live() {
            self.expected_live
                .iter()
                .flatten()
                .flatten()
                .copied()
                .collect()
        } else {
            self.expected.clone()
        }
    }

    /// `expected_live` re-cut from a flat answer vector in request order.
    fn per_request(&self, flat: &[bool]) -> Vec<Vec<Vec<bool>>> {
        let mut at = 0;
        self.inputs
            .live
            .iter()
            .map(|log| {
                log.requests
                    .iter()
                    .map(|r| {
                        at += r.len();
                        flat[at - r.len()..at].to_vec()
                    })
                    .collect()
            })
            .collect()
    }

    /// Checks the direct path: oracle answers, and `(u, u)` reachable.
    fn check_direct(&self, reg: &mut ServiceRegistry<'static>, answers: &[bool], rep: &mut Report) {
        rep.check(
            "direct answer_batch equals the transitive-closure oracle",
            answers == self.expected_direct(),
        );
        let refl = oracle::reflexive_probes(self.inputs, 16);
        let got = reg.answer_batch(&refl);
        rep.ops(1, got.is_err() as u64);
        rep.check(
            "(u, u) is reachable on every run",
            got.is_ok_and(|a| a.iter().all(|&x| x)),
        );
    }

    /// Timed direct passes of `probes` until `slice_s` is spent (at least
    /// one); returns each pass's probes per second.
    /// Checks and counts a served drive of the pool.
    fn check_drive(&self, drive: &Drive, direct: Option<&[bool]>, rep: &mut Report) {
        rep.ops(drive.requests(), drive.failed());
        let per = self.inputs.per_request;
        rep.check(
            "served answers equal the transitive-closure oracle",
            drive.mismatches(&self.expected, per) == 0,
        );
        if let Some(direct) = direct {
            rep.check(
                "served answers equal direct answer_batch bit for bit",
                drive.mismatches(direct, per) == 0,
            );
        }
    }

    /// Live-ingest cycles through the server until `slice_s` is spent,
    /// whole cycles only (at least `min`). Served answers are checked
    /// against the direct answers, which were checked against the oracle.
    #[allow(clippy::too_many_arguments)]
    fn cycles(
        &self,
        setup: &Setup,
        expected: &[Vec<Vec<bool>>],
        slice_s: f64,
        min: usize,
        trace: &mut Trace,
        parent: SpanId,
        rep: &mut Report,
    ) -> Vec<Cycle> {
        let handle = setup.server.handle();
        let until = Instant::now() + secs(slice_s);
        let mut out = Vec::new();
        while out.len() < min || Instant::now() < until {
            let span = trace.open("cycle", parent);
            let cy = live_cycle(
                &setup.server,
                &handle,
                self.inputs,
                &self.live_logs,
                &self.plan,
                expected,
                trace,
                span,
            );
            trace.close(span, cy.events);
            rep.ops(cy.attempted, cy.failed);
            rep.check(
                "served live answers equal direct answer_batch and the oracle",
                cy.mismatches == 0,
            );
            out.push(cy);
        }
        out
    }

    /// One offline ingest pass of the replay logs on the benchmark thread,
    /// into a fresh registry.
    fn replay(&self, trace: &mut Trace, parent: SpanId, rep: &mut Report) -> Cycle {
        let mut reg: ServiceRegistry<'static> = ServiceRegistry::new();
        for (spec, &kind) in self.inputs.specs.iter().zip(&self.inputs.kinds) {
            reg.register_spec(spec, kind)
                .expect("distinct catalogue specs");
        }
        let span = trace.open("replay", parent);
        let cy = replay_pass(&mut reg, self.inputs, trace, span);
        trace.close(span, cy.events);
        rep.ops(cy.attempted, cy.failed);
        cy
    }

    /// Retires a set-up: stops its server and removes its snapshot.
    fn retire(&self, setup: Setup, rep: &mut Report) {
        rep.ops(1, setup.server.shutdown().is_err() as u64);
        if let Some(dir) = &setup.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Run-label bytes and spec bytes of every fleet, all resident.
    fn fleet_bytes(&self, setup: &Setup, direct: &ServiceRegistry<'static>) -> FleetStats {
        let reg = setup.full.as_ref().unwrap_or(direct);
        let mut sum = FleetStats::default();
        for id in reg.spec_ids() {
            let st = reg.fleet(id).expect("every fleet resident").stats();
            sum.run_bytes += st.run_bytes;
            sum.spec_bytes += st.spec_bytes;
        }
        sum
    }

    /// Bytes `save_dir` writes for the workload: the set-up's snapshot on
    /// packed tiers, else a save of the direct registry.
    fn snapshot_bytes(&self, setup: &Setup, direct: &ServiceRegistry<'static>) -> u64 {
        match &setup.dir {
            Some(dir) => dir_bytes(dir),
            None => {
                let dir = self.scratch.fresh();
                direct
                    .save_dir(&dir)
                    .expect("save_dir of the direct registry");
                let bytes = dir_bytes(&dir);
                let _ = std::fs::remove_dir_all(&dir);
                bytes
            }
        }
    }
}

/// Rounds per untraced run. Each round takes one more set-up and one
/// served slice. A metric is its median within each round, which drops a
/// window that another tenant of the host preempted, then the mean over
/// the rounds without the highest and the lowest: the host's speed
/// switches between two levels for seconds at a time, and a mean follows
/// the share of time spent at each level where a median over rounds jumps
/// from one level to the other.
const ROUNDS: usize = 12;

/// Mean without the highest and the lowest value.
fn trimmed_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let kept = if s.len() > 2 {
        &s[1..s.len() - 1]
    } else {
        &s[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Untraced and traced served slices a traced run alternates.
const ALTERNATIONS: usize = 4;

/// Windows per served slice of an untraced run (94 ms at 25 s runs).
const WINDOWS: usize = 20;

fn untraced(b: &Bench<'_>, rep: &mut Report) {
    let mut off = Trace::new(false, Instant::now());
    let s = b.seconds;

    let setup = b.setup(&mut off, NO_PARENT);

    let mut direct = b.direct_registry(&setup, rep);
    let direct_probes = b.direct_probes();
    let (first, _, failed) = registry_pass(
        &mut direct,
        &direct_probes,
        b.config.max_batch,
        &mut off,
        NO_PARENT,
    );
    rep.ops(
        direct_probes.len().div_ceil(b.config.max_batch) as u64,
        failed,
    );
    b.check_direct(&mut direct, &first, rep);

    let (clients, depth) = (b.shape.clients, b.shape.depth);
    let handle = setup.server.handle();
    let live_expected = b.live().then(|| b.per_request(&first));
    if !b.live() {
        let warm = drive_pool(
            &handle,
            b.inputs,
            clients,
            depth,
            Stop::At(Instant::now() + secs(0.05 * s)),
            &mut off,
            NO_PARENT,
        );
        b.check_drive(&warm, Some(&first), rep);
    }

    let per_round = s / ROUNDS as f64;
    let mut rounds: Vec<[f64; 3]> = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let extra = b.setup(&mut off, NO_PARENT);
        let setup_round = t0.elapsed().as_secs_f64();
        b.retire(extra, rep);

        let (served, latencies_ns) = match &live_expected {
            Some(expected) => {
                let cycles = b.cycles(
                    &setup,
                    expected,
                    0.9 * per_round,
                    1,
                    &mut off,
                    NO_PARENT,
                    rep,
                );
                let rates: Vec<f64> = cycles.iter().map(|c| c.probes as f64 / c.probe_s).collect();
                let lat: Vec<u64> = cycles
                    .iter()
                    .flat_map(|c| c.request_ns.iter().copied())
                    .collect();
                (rates, lat)
            }
            None => {
                let span_s = 0.9 * per_round;
                let drive = drive_pool(
                    &handle,
                    b.inputs,
                    clients,
                    depth,
                    Stop::At(Instant::now() + secs(span_s)),
                    &mut off,
                    NO_PARENT,
                );
                b.check_drive(&drive, Some(&first), rep);
                (
                    drive.window_rates(b.inputs.per_request, span_s, WINDOWS),
                    drive.latencies_ns(),
                )
            }
        };
        rounds.push([
            setup_round,
            median(&served),
            quantile(&us(&latencies_ns), 0.5),
        ]);
    }
    let across = |i: usize| trimmed_mean(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>());

    rep.metric("setup_s", across(0), "s");
    rep.metric("probes_per_s", across(1), "probes/s");
    rep.metric("request_p50_us", across(2), "us");
    let fleet = b.fleet_bytes(&setup, &direct);
    rep.metric(
        "label_bytes_per_vertex",
        fleet.run_bytes as f64 / b.vertices(),
        "B/vertex",
    );
    let snap = b.snapshot_bytes(&setup, &direct);
    rep.metric(
        "snapshot_bytes_per_vertex",
        snap as f64 / b.vertices(),
        "B/vertex",
    );
    b.retire(setup, rep);
}

/// Sums per-shard registry counters.
fn sum_registry(stats: &[RegistryStats]) -> RegistryStats {
    let mut t = RegistryStats::default();
    for s in stats {
        t.lazy_loads += s.lazy_loads;
        t.zero_copy_loads += s.zero_copy_loads;
        t.evictions += s.evictions;
        t.reload_bytes += s.reload_bytes;
        t.decode_ms += s.decode_ms;
        t.resident_bytes += s.resident_bytes;
    }
    t
}

fn span_ns(trace: &Trace, layer: &str) -> (u64, u64) {
    trace
        .layers()
        .iter()
        .filter(|l| l.layer == layer)
        .fold((0, 0), |(t, w), l| (t + l.total_ns, w + l.work))
}

fn traced(b: &Bench<'_>, seed: u64, rep: &mut Report) {
    let s = b.seconds;
    let epoch = Instant::now();
    let mut trace = Trace::new(true, epoch);
    let mut off = Trace::new(false, epoch);
    let root = trace.open("run", NO_PARENT);

    let span = trace.open("setup", root);
    let setup = b.setup(&mut trace, span);
    trace.close(span, 0);
    let mut direct = b.direct_registry(&setup, rep);

    // snapshot layer: the set-up's own save/open on packed tiers, else a
    // save of the direct registry reopened on the benchmark thread
    if setup.dir.is_none() {
        let span = trace.open("snapshot", root);
        let dir = b.scratch.fresh();
        let t0 = Instant::now();
        direct
            .save_dir(&dir)
            .expect("save_dir of the direct registry");
        let t1 = Instant::now();
        trace.record("save_dir", span, (t0, t1), 0, 0);
        let mut reg: ServiceRegistry<'static> =
            ServiceRegistry::open_dir(&dir, None).expect("saved dir opens");
        let t2 = Instant::now();
        trace.record("open_dir", span, (t1, t2), 0, 0);
        let ids: Vec<_> = reg.spec_ids().collect();
        for id in ids {
            reg.ensure_resident(id).expect("saved fleet loads");
        }
        trace.record("first_touch", span, (t2, Instant::now()), 0, 0);
        trace.close(span, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // served throughput with tracing off and on, alternating slices on
    // the same server; the tail latency comes from the untraced slices
    let served = trace.open("served", root);
    let mut plain_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut plain_latency = Vec::new();
    let mut live_cycles = Vec::new();
    let slice_s = 0.15 * s / ALTERNATIONS as f64;
    if b.live() {
        let direct_answers = registry_pass(
            &mut direct,
            &b.direct_probes(),
            b.config.max_batch,
            &mut off,
            NO_PARENT,
        )
        .0;
        let expected = b.per_request(&direct_answers);
        for _ in 0..ALTERNATIONS {
            for c in b.cycles(&setup, &expected, slice_s, 1, &mut off, NO_PARENT, rep) {
                plain_rates.push(c.probes as f64 / c.probe_s);
                plain_latency.extend_from_slice(&c.request_ns);
            }
            for c in b.cycles(&setup, &expected, slice_s, 1, &mut trace, served, rep) {
                traced_rates.push(c.probes as f64 / c.probe_s);
                live_cycles.push(c);
            }
        }
    } else {
        let (clients, depth) = (b.shape.clients, b.shape.depth);
        let handle = setup.server.handle();
        let warm = drive_pool(
            &handle,
            b.inputs,
            clients,
            depth,
            Stop::At(Instant::now() + secs(0.05 * s)),
            &mut off,
            NO_PARENT,
        );
        b.check_drive(&warm, None, rep);
        let per = b.inputs.per_request;
        let windows = ((slice_s / 0.075).round() as usize).max(1);
        for _ in 0..ALTERNATIONS {
            let plain = drive_pool(
                &handle,
                b.inputs,
                clients,
                depth,
                Stop::At(Instant::now() + secs(slice_s)),
                &mut off,
                NO_PARENT,
            );
            b.check_drive(&plain, None, rep);
            plain_rates.extend(plain.window_rates(per, slice_s, windows));
            plain_latency.extend(plain.latencies_ns());
            let traced = drive_pool(
                &handle,
                b.inputs,
                clients,
                depth,
                Stop::At(Instant::now() + secs(slice_s)),
                &mut trace,
                served,
            );
            b.check_drive(&traced, None, rep);
            traced_rates.extend(traced.window_rates(per, slice_s, windows));
        }
    }
    trace.close(served, 0);
    let (untraced_rate, traced_rate) = (median(&plain_rates), median(&traced_rates));

    // the waterfall: the same pool through every layer
    let wf = trace.open("waterfall", root);
    let pool = b.inputs.pool.len() as f64;
    let eng = layers::engines(b.inputs, &setup.labels, 0.05 * s, &mut trace, wf);
    rep.check(
        "QueryEngine answers equal the oracle",
        eng.engine_answers == b.expected,
    );
    rep.check(
        "PackedEngine answers equal the oracle",
        eng.packed_answers == b.expected,
    );
    rep.check(
        "repeated QueryEngine and PackedEngine passes agree",
        eng.repeats_agree,
    );
    let fleet =
        layers::fleets(&mut direct, b.inputs, 0.05 * s, &mut trace, wf).expect("fleet layer");
    rep.check(
        "FleetEngine answers equal the oracle",
        fleet.answers == b.expected && fleet.repeats_agree,
    );
    let span = trace.open("registry", wf);
    let mut reg_first: Option<Vec<bool>> = None;
    let mut reg_agree = true;
    let reg_s = passes(3, Instant::now() + secs(0.05 * s), || {
        let (a, t, failed) = registry_pass(
            &mut direct,
            &b.inputs.pool,
            b.config.max_batch,
            &mut trace,
            span,
        );
        rep.ops(
            b.inputs.pool.len().div_ceil(b.config.max_batch) as u64,
            failed,
        );
        match &reg_first {
            None => reg_first = Some(a),
            Some(f) => reg_agree &= *f == a,
        }
        t
    });
    trace.close(span, (pool * reg_s.len() as f64) as u64);
    rep.check(
        "ServiceRegistry answers equal the oracle",
        reg_first.as_deref() == Some(&b.expected[..]) && reg_agree,
    );

    let (clients, depth) = (b.shape.clients, b.shape.depth);
    let single = start_single(b.config, Arc::new(setup.source.single())).expect("one-shard server");
    let span = trace.open("serve1", wf);
    let mut s1 = Vec::new();
    let t0 = Instant::now();
    while s1.is_empty() || t0.elapsed().as_secs_f64() < 0.1 * s {
        s1.push(drive_pool(
            &single.handle(),
            b.inputs,
            clients,
            depth,
            Stop::OnePass,
            &mut trace,
            span,
        ));
    }
    let serve1_s = t0.elapsed().as_secs_f64();
    trace.close(span, 0);
    for d in &s1 {
        b.check_drive(d, reg_first.as_deref(), rep);
    }
    rep.ops(1, single.shutdown().is_err() as u64);

    let sharded = start_sharded(b.config, gen::SHARDS, &b.plan, Arc::clone(&setup.source))
        .expect("sharded server");
    let span = trace.open("serveN", wf);
    let mut sn = Vec::new();
    let t0 = Instant::now();
    while sn.is_empty() || t0.elapsed().as_secs_f64() < 0.1 * s {
        sn.push(drive_pool(
            &sharded.handle(),
            b.inputs,
            clients,
            depth,
            Stop::OnePass,
            &mut trace,
            span,
        ));
    }
    let serve_n_s = t0.elapsed().as_secs_f64();
    trace.close(span, 0);
    for d in &sn {
        b.check_drive(d, reg_first.as_deref(), rep);
    }
    let regs = sharded.control(|reg| reg.stats());
    rep.ops(1, regs.is_err() as u64);
    let regs = sum_registry(&regs.unwrap_or_default());
    let stats = sharded.shutdown();
    rep.ops(1, stats.is_err() as u64);
    trace.close(wf, 0);

    // ingest: the traced live cycles, or one offline replay pass
    let ingest = if b.live() {
        live_cycles
    } else {
        vec![b.replay(&mut trace, root, rep)]
    };
    trace.close(root, 0);

    // ---- per-layer metrics ----
    let ns_per = |secs: &[f64]| median(secs) * 1e9 / pool;
    let (label_ns, label_v) = span_ns(&trace, "label_run");
    rep.metric(
        "label.ns_per_vertex",
        label_ns as f64 / label_v.max(1) as f64,
        "ns/vertex",
    );
    let bound = paper_bound_bits(b.inputs, &setup.n_plus);
    rep.metric("label.paper_bound_bits_per_vertex", bound, "bit/vertex");
    rep.metric(
        "snapshot.save_ms",
        span_ns(&trace, "save_dir").0 as f64 / 1e6,
        "ms",
    );
    let open = span_ns(&trace, "open_dir").0 + span_ns(&trace, "first_touch").0;
    rep.metric("snapshot.open_ms", open as f64 / 1e6, "ms");
    let engine = ns_per(&eng.engine_s);
    let packed = ns_per(&eng.packed_s);
    let fleet_ns = ns_per(&fleet.times);
    let registry = ns_per(&reg_s);
    let serve1 = serve1_s * 1e9 / (pool * s1.len() as f64);
    let serve_n = serve_n_s * 1e9 / (pool * sn.len() as f64);
    rep.metric("engine.ns_per_probe", engine, "ns/probe");
    rep.metric("packed.ns_per_probe", packed, "ns/probe");
    rep.metric("fleet.ns_per_probe", fleet_ns, "ns/probe");
    rep.metric("registry.ns_per_probe", registry, "ns/probe");
    rep.metric("serve1.ns_per_probe", serve1, "ns/probe");
    rep.metric("serveN.ns_per_probe", serve_n, "ns/probe");
    let c = eng.counts;
    rep.metric("engine.context_only", c.context_only as f64, "count");
    rep.metric("engine.skeleton", c.skeleton as f64, "count");
    rep.metric(
        "speclabel.skeleton_probes",
        c.skeleton_probes as f64,
        "count",
    );
    rep.metric("speclabel.memo_hits", c.memo_hits as f64, "count");

    let (merged, per_shard) = match &stats {
        Ok(st) => (st.merged.clone(), st.per_shard.clone()),
        Err(_) => (ServeStats::default(), Vec::new()),
    };
    rep.metric("serve.batches", merged.batches as f64, "count");
    rep.metric("serve.batches_full", merged.batches_full as f64, "count");
    rep.metric("serve.batches_timer", merged.batches_timer as f64, "count");
    let p50 = merged.batch_probes.quantile(0.5).unwrap_or(0);
    rep.metric("serve.batch_probes_p50", p50 as f64, "probes");
    let loads: Vec<f64> = per_shard.iter().map(|s| s.probes_answered as f64).collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    let skew = loads.iter().copied().fold(0.0, f64::max) / mean;
    rep.metric("serve.shard_skew", skew, "ratio");
    rep.metric("registry.lazy_loads", regs.lazy_loads as f64, "count");
    rep.metric(
        "registry.zero_copy_loads",
        regs.zero_copy_loads as f64,
        "count",
    );
    rep.metric("registry.evictions", regs.evictions as f64, "count");
    rep.metric("registry.reload_bytes", regs.reload_bytes as f64, "B");
    rep.metric("registry.decode_ms", regs.decode_ms, "ms");
    rep.metric("registry.resident_bytes", regs.resident_bytes as f64, "B");

    let events: u64 = ingest.iter().map(|c| c.counts.events).sum();
    let repairs: u64 = ingest.iter().map(|c| c.counts.tag_repairs).sum();
    let chunk_us: Vec<u64> = ingest
        .iter()
        .flat_map(|c| c.chunk_ns.iter().copied())
        .collect();
    let freeze: Vec<f64> = ingest
        .iter()
        .flat_map(|c| c.freeze_ns.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let cycles = ingest.len().max(1) as f64;
    let ingest_s: f64 = ingest.iter().map(|c| c.ingest_s).sum();
    rep.metric("live.events_per_s", events as f64 / ingest_s, "events/s");
    rep.metric("live.events", events as f64 / cycles, "count");
    rep.metric("live.tag_repairs", repairs as f64 / cycles, "count");
    rep.metric("live.append_us_p50", median(&us(&chunk_us)), "us");
    rep.metric("live.freeze_ms", median(&freeze), "ms");

    let fb = b.fleet_bytes(&setup, &direct);
    rep.metric("fleet.run_bytes", fb.run_bytes as f64, "B");
    rep.metric("fleet.spec_bytes", fb.spec_bytes as f64, "B");
    let overhead = (untraced_rate - traced_rate) / untraced_rate * 100.0;
    let plain_us = us(&plain_latency);
    rep.check(
        "at least ten latency samples beyond the p99",
        plain_us.len() >= 1000,
    );
    rep.metric("serve.request_p99_us", quantile(&plain_us, 0.99), "us");
    rep.metric("trace.overhead_pct", overhead, "%");
    b.retire(setup, rep);

    let waterfall = [
        ("QueryEngine", engine),
        ("PackedEngine", packed),
        ("FleetEngine", fleet_ns),
        ("ServiceRegistry", registry),
        ("serve (1 shard)", serve1),
        ("serve_sharded", serve_n),
    ];
    write_trace(b, seed, &trace, &waterfall, untraced_rate, traced_rate);
}

/// The paper's label length bound `3·log n⁺ + log n_G` in bits, averaged
/// over the frozen runs (`n⁺` is the run's plan size as the labeler
/// reports it, `n_G` the spec's module count).
fn paper_bound_bits(inputs: &Inputs, n_plus: &[Vec<u32>]) -> f64 {
    let lg = |x: f64| x.max(2.0).log2().ceil();
    let bits: Vec<f64> = inputs
        .specs
        .iter()
        .zip(n_plus)
        .flat_map(|(spec, runs)| {
            runs.iter()
                .map(|&n| 3.0 * lg(n as f64) + lg(spec.module_count() as f64))
        })
        .collect();
    bits.iter().sum::<f64>() / bits.len().max(1) as f64
}

fn write_trace(
    b: &Bench<'_>,
    seed: u64,
    trace: &Trace,
    waterfall: &[(&str, f64)],
    untraced_rate: f64,
    traced_rate: f64,
) {
    let mut table = String::new();
    let _ = writeln!(
        table,
        "waterfall ({}, seed {seed}): ns/probe over the same {} probes",
        b.shape.name,
        b.inputs.pool.len()
    );
    let mut prev = None;
    for (layer, ns) in waterfall {
        let delta = prev.map_or(String::new(), |p: f64| format!("{:+.1}", ns - p));
        let _ = writeln!(table, "  {layer:<18} {ns:>10.1} {delta:>10}");
        prev = Some(*ns);
    }
    let _ = writeln!(table, "spans: layer calls total_ms self_ms work");
    for l in trace.layers() {
        let _ = writeln!(
            table,
            "  {:<30} {:>8} {:>10.2} {:>10.2} {:>12}",
            l.layer,
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.work
        );
    }
    let _ = writeln!(
        table,
        "tracing overhead: served {untraced_rate:.0} probes/s untraced, {traced_rate:.0} traced"
    );
    eprint!("{table}");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"waterfall\": [",
        b.shape.name
    );
    for (i, (layer, ns)) in waterfall.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            json,
            "{sep}{{\"layer\": \"{layer}\", \"ns_per_probe\": {ns:?}}}"
        );
    }
    let _ = write!(json, "], \"layers\": [");
    for (i, l) in trace.layers().iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            json,
            "{sep}{{\"layer\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"work\": {}}}",
            l.layer, l.calls, l.total_ns, l.self_ns, l.work
        );
    }
    let _ = writeln!(json, "], \"spans\": {}}}", trace.spans_json());
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{seed}.json", b.shape.name));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("servebench: cannot write {}: {e}", path.display());
    } else {
        eprintln!(
            "servebench: {} spans written to {}",
            trace.len(),
            path.display()
        );
    }
}
