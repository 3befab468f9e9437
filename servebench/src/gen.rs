//! Workload shapes and the input generator. Everything here runs before
//! any timed phase; the program under test only ever sees the specs, runs,
//! event logs and probes built here.

use wfp_gen::{generate_fleet, generate_registry, SpecMix};
use wfp_graph::Xoshiro256;
use wfp_model::io::{plan_to_events, RunEvent};
use wfp_model::{Run, RunVertexId, Specification};
use wfp_skl::{Probe, RunId, SpecId};
use wfp_speclabel::SchemeKind;

/// Seed of the catalogue: the specs and their runs, the same for every
/// `--seed`. Spec structure decides `SpecId`, and the `SpecId` hash
/// decides each spec's home shard, so every run sees the same placement
/// (4 of the first 6 specs on one of 2 shards). Run structure decides how
/// often the live labeler retags its order lists, which made offline
/// ingest on `serve-bulk-packed` differ by half between seeds. `--seed`
/// draws the probes and the order of the requests.
pub const CATALOGUE_SEED: u64 = 0x5E21;

/// How the frozen runs of a workload are held.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tier {
    /// Raw label columns registered straight into each shard.
    Raw,
    /// Sealed packed, written with `save_dir`, reopened zero-copy per
    /// shard with `open_dir_filtered`; `budget_div` = `Some(d)` gives each
    /// shard a byte budget of its resident total over `d`.
    PackedDir { budget_div: Option<usize> },
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub specs: usize,
    pub frozen_runs: usize,
    pub live_runs: usize,
    /// Target vertex count of every generated run.
    pub target: usize,
    pub tier: Tier,
    pub clients: usize,
    pub depth: usize,
    /// Probes per request; `None` = the server's `max_batch`.
    pub per_request: Option<usize>,
    pub mix: SpecMix,
    /// Requests in the pre-generated probe pool the clients cycle through.
    pub pool_requests: usize,
}

/// Shards of every served workload.
pub const SHARDS: usize = 2;

/// Events per chunk of a live run, through `control_shard` or offline.
pub const CHUNK_EVENTS: usize = 256;

pub const WORKLOADS: [&str; 4] = [
    "serve-small",
    "serve-bulk-packed",
    "churn-dir",
    "live-ingest",
];

impl Shape {
    pub fn named(name: &str) -> Option<Shape> {
        let base = Shape {
            name: "",
            specs: SchemeKind::ALL.len(),
            frozen_runs: 4,
            live_runs: 0,
            target: 3_200,
            tier: Tier::Raw,
            clients: 2,
            depth: 1,
            per_request: Some(64),
            mix: SpecMix::Uniform,
            pool_requests: 4_096,
        };
        Some(match name {
            "serve-small" => Shape {
                name: "serve-small",
                ..base
            },
            "serve-bulk-packed" => Shape {
                name: "serve-bulk-packed",
                target: 32_000,
                tier: Tier::PackedDir { budget_div: None },
                clients: 1,
                depth: 2,
                per_request: None,
                mix: SpecMix::Zipf { skew: 1.0 },
                pool_requests: 64,
                ..base
            },
            "churn-dir" => Shape {
                name: "churn-dir",
                specs: 4 * SchemeKind::ALL.len(),
                tier: Tier::PackedDir {
                    budget_div: Some(3),
                },
                depth: 4,
                mix: SpecMix::Zipf { skew: 1.0 },
                ..base
            },
            "live-ingest" => Shape {
                name: "live-ingest",
                frozen_runs: 2,
                live_runs: 2,
                clients: 1,
                ..base
            },
            _ => return None,
        })
    }

    pub fn scheme(&self, spec: usize) -> SchemeKind {
        SchemeKind::ALL[spec % SchemeKind::ALL.len()]
    }
}

/// A probe template whose run is either a frozen run (its `RunId` is
/// fixed at registration) or the live run of one log, whose `RunId` is
/// only known once the log's run has begun.
#[derive(Clone, Copy, Debug)]
pub enum RunRef {
    Frozen(RunId),
    Live(usize),
}

/// One live run's generated event log, cut into fixed chunks, with one
/// probe request per chunk over the prefix executed so far.
pub struct LiveLog {
    pub spec: usize,
    pub events: Vec<RunEvent>,
    /// `(start, end)` event ranges of the chunks, in order.
    pub chunks: Vec<(usize, usize)>,
    /// The probe request sent after each chunk: probes over the live
    /// run's executed prefix and over the frozen runs of the same spec.
    pub requests: Vec<Vec<(SpecId, RunRef, RunVertexId, RunVertexId)>>,
    /// Run vertex of the `i`-th execution (from `plan_to_events`).
    pub mapping: Vec<RunVertexId>,
    /// Final run graph, for the oracle.
    pub run: Run,
}

pub struct Inputs {
    /// Leaked so that `'static` registries and live runs can borrow them.
    pub specs: Vec<&'static Specification>,
    pub kinds: Vec<SchemeKind>,
    pub ids: Vec<SpecId>,
    /// Frozen runs per spec; run `j` of spec `s` is `RunId(j)`.
    pub runs: Vec<Vec<Run>>,
    pub live: Vec<LiveLog>,
    /// Event logs replayed into live runs on the benchmark thread: frozen
    /// runs (see [`REPLAY_VERTICES`]), or the live logs on `live-ingest`.
    pub replay: Vec<(usize, Vec<RunEvent>)>,
    /// Probes per pool request.
    pub per_request: usize,
    /// The frozen-run probe pool: request `r` is
    /// `pool[r * per_request..(r + 1) * per_request]`.
    pub pool: Vec<Probe>,
}

impl Inputs {
    pub fn request(&self, r: usize) -> &[Probe] {
        let r = r % self.requests();
        &self.pool[r * self.per_request..(r + 1) * self.per_request]
    }

    pub fn requests(&self) -> usize {
        self.pool.len() / self.per_request
    }

    pub fn frozen_vertices(&self) -> usize {
        self.runs.iter().flatten().map(Run::vertex_count).sum()
    }

    pub fn live_vertices(&self) -> usize {
        self.live.iter().map(|l| l.mapping.len()).sum()
    }

    pub fn live_events(&self) -> usize {
        self.live.iter().map(|l| l.events.len()).sum()
    }

    /// Index of the spec with id `id`.
    pub fn spec_index(&self, id: SpecId) -> usize {
        self.ids
            .iter()
            .position(|&s| s == id)
            .expect("generated spec")
    }
}

/// Vertex cap of one offline ingest pass.
const REPLAY_VERTICES: usize = 200_000;

fn mix_seed(seed: u64, salt: u64) -> u64 {
    // splitmix64 finalizer over the pair
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The spec each of `requests` requests targets: every spec gets exactly
/// its share of `mix` (largest remainder), in a seeded order. Drawn one
/// request at a time, the share would be the seed's: over
/// `serve-bulk-packed`'s 64 requests the hottest spec (26% under zipf:1.0)
/// would get anywhere from about 10 to 24 of them.
fn stratified_mix(mix: SpecMix, specs: usize, requests: usize, rng: &mut Xoshiro256) -> Vec<usize> {
    let weights: Vec<f64> = (0..specs)
        .map(|r| match mix {
            SpecMix::Uniform => 1.0,
            SpecMix::Zipf { skew } => 1.0 / ((r + 1) as f64).powf(skew),
        })
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights
        .iter()
        .map(|w| w / total * requests as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..specs).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let missing = requests - counts.iter().sum::<usize>();
    for &s in by_remainder.iter().take(missing) {
        counts[s] += 1;
    }
    let mut out: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(s, &c)| std::iter::repeat(s).take(c))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_usize(i + 1));
    }
    out
}

fn vertex(rng: &mut Xoshiro256, n: usize) -> RunVertexId {
    RunVertexId(rng.gen_usize(n) as u32)
}

/// Builds every input of `shape` from `seed`.
pub fn generate(shape: &Shape, seed: u64, max_batch: usize) -> Inputs {
    let catalogue = generate_registry(CATALOGUE_SEED, shape.specs, 0, shape.target);
    let specs: Vec<&'static Specification> = catalogue
        .specs
        .into_iter()
        .map(|s| &*Box::leak(Box::new(s)))
        .collect();
    let kinds: Vec<SchemeKind> = (0..specs.len()).map(|i| shape.scheme(i)).collect();
    let ids: Vec<SpecId> = specs
        .iter()
        .zip(&kinds)
        .map(|(s, &k)| SpecId::of(k, s.graph()))
        .collect();

    let mut runs = Vec::with_capacity(specs.len());
    let mut plans = Vec::with_capacity(specs.len());
    let mut live = Vec::new();
    let mut replay = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let total = shape.frozen_runs + shape.live_runs;
        let mut fleet = generate_fleet(
            spec,
            mix_seed(CATALOGUE_SEED, i as u64),
            total,
            shape.target,
        );
        let live_gens = fleet.split_off(shape.frozen_runs);
        let (frozen, frozen_plans): (Vec<_>, Vec<_>) =
            fleet.into_iter().map(|g| (g.run, g.plan)).unzip();
        runs.push(frozen);
        plans.push(frozen_plans);
        for g in live_gens {
            let (events, mapping) = plan_to_events(&g.run, &g.plan);
            replay.push((i, events.clone()));
            live.push(LiveLog {
                spec: i,
                events,
                chunks: Vec::new(),
                requests: Vec::new(),
                mapping,
                run: g.run,
            });
        }
    }

    if live.is_empty() {
        // whole rounds of "run j of every spec" while the pass stays under
        // REPLAY_VERTICES, so every spec is replayed equally
        let mut vertices = 0;
        for j in 0..shape.frozen_runs {
            let round: usize = runs.iter().map(|r| r[j].vertex_count()).sum();
            if j > 0 && vertices + round > REPLAY_VERTICES {
                break;
            }
            vertices += round;
            for (i, (r, p)) in runs.iter().zip(&plans).enumerate() {
                replay.push((i, plan_to_events(&r[j], &p[j]).0));
            }
        }
    }

    let per_request = shape.per_request.unwrap_or(max_batch);
    let mut rng = Xoshiro256::seed_from_u64(mix_seed(seed, 0xB0B));
    let targets = stratified_mix(shape.mix, specs.len(), shape.pool_requests, &mut rng);
    let mut pool = Vec::with_capacity(shape.pool_requests * per_request);
    for &s in &targets {
        for _ in 0..per_request {
            let j = rng.gen_usize(runs[s].len());
            let n = runs[s][j].vertex_count();
            pool.push((
                ids[s],
                RunId(j as u32),
                vertex(&mut rng, n),
                vertex(&mut rng, n),
            ));
        }
    }

    // live logs: fixed chunks, one request per chunk, half of its probes
    // over the live prefix and half over the spec's frozen runs
    let half = per_request / 2;
    for (l, log) in live.iter_mut().enumerate() {
        let mut executed = 0usize;
        let mut start = 0usize;
        while start < log.events.len() {
            let end = (start + CHUNK_EVENTS).min(log.events.len());
            executed += log.events[start..end]
                .iter()
                .filter(|e| matches!(e, RunEvent::Exec(_)))
                .count();
            let mut req = Vec::with_capacity(per_request);
            for k in 0..per_request {
                if k < half && executed > 0 {
                    req.push((
                        ids[log.spec],
                        RunRef::Live(l),
                        vertex(&mut rng, executed),
                        vertex(&mut rng, executed),
                    ));
                } else {
                    let j = rng.gen_usize(runs[log.spec].len());
                    let n = runs[log.spec][j].vertex_count();
                    req.push((
                        ids[log.spec],
                        RunRef::Frozen(RunId(j as u32)),
                        vertex(&mut rng, n),
                        vertex(&mut rng, n),
                    ));
                }
            }
            log.chunks.push((start, end));
            log.requests.push(req);
            start = end;
        }
    }

    Inputs {
        specs,
        kinds,
        ids,
        runs,
        live,
        replay,
        per_request,
        pool,
    }
}
