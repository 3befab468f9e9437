//! Set-up: labeling, snapshot directories, registries and servers.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use wfp_model::Specification;
use wfp_skl::{
    label_run, serve, serve_sharded, RegistryError, RunLabel, ServeConfig, Server, ServiceRegistry,
    ShardPlan, ShardedServer, SpecId,
};
use wfp_speclabel::SchemeKind;

use crate::gen::{Inputs, Shape, Tier, SHARDS};
use crate::trace::{SpanId, Trace};

/// Offline labels of every frozen run, per spec.
pub type Labels = Vec<Vec<Vec<RunLabel>>>;

/// Where a shard's registry comes from.
pub enum Source {
    /// Register every spec routed to the shard and its raw labels.
    Labels {
        specs: Vec<&'static Specification>,
        kinds: Vec<SchemeKind>,
        labels: Arc<Labels>,
    },
    /// Open the shard's part of a snapshot directory, then touch every
    /// spec once.
    Dir {
        dir: PathBuf,
        /// Byte budget per shard (for a one-shard server: the total).
        budgets: Vec<Option<usize>>,
    },
}

impl Source {
    /// The same registry content for a one-shard server.
    pub fn single(&self) -> Source {
        match self {
            Source::Labels {
                specs,
                kinds,
                labels,
            } => Source::Labels {
                specs: specs.clone(),
                kinds: kinds.clone(),
                labels: Arc::clone(labels),
            },
            Source::Dir { dir, budgets } => Source::Dir {
                dir: dir.clone(),
                budgets: vec![budgets.iter().try_fold(0, |sum, b| b.map(|b| sum + b))],
            },
        }
    }
}

/// What a shard builder reports back: when it opened its directory and
/// when its first touch of every spec ended.
#[derive(Clone, Copy, Debug)]
pub struct ShardInfo {
    pub open: Option<(Instant, Instant)>,
    pub touch: Option<(Instant, Instant)>,
}

/// Builds the registry of `shard` out of `shards`.
pub fn build_shard(
    source: &Source,
    plan: &ShardPlan,
    shard: usize,
    shards: usize,
) -> Result<(ServiceRegistry<'static>, ShardInfo), RegistryError> {
    let mine = |id: SpecId| plan.shard_of(id, shards) == shard;
    match source {
        Source::Labels {
            specs,
            kinds,
            labels,
        } => {
            let mut reg = ServiceRegistry::new();
            for ((spec, &kind), runs) in specs.iter().zip(kinds).zip(labels.iter()) {
                if !mine(SpecId::of(kind, spec.graph())) {
                    continue;
                }
                let id = reg.register_spec(spec, kind)?;
                for l in runs {
                    reg.register_labels(id, l)?;
                }
            }
            Ok((
                reg,
                ShardInfo {
                    open: None,
                    touch: None,
                },
            ))
        }
        Source::Dir { dir, budgets } => {
            let t0 = Instant::now();
            let mut reg = ServiceRegistry::open_dir_filtered(dir, budgets[shard], mine)?;
            let t1 = Instant::now();
            let ids: Vec<SpecId> = reg.spec_ids().collect();
            for id in ids {
                reg.ensure_resident(id)?;
            }
            let t2 = Instant::now();
            Ok((
                reg,
                ShardInfo {
                    open: Some((t0, t1)),
                    touch: Some((t1, t2)),
                },
            ))
        }
    }
}

/// Starts the sharded server over `source`.
pub fn start_sharded(
    config: ServeConfig,
    shards: usize,
    plan: &ShardPlan,
    source: Arc<Source>,
) -> Result<ShardedServer<ShardInfo>, RegistryError> {
    let p = plan.clone();
    serve_sharded(config, shards, plan.clone(), move |shard, shards| {
        build_shard(&source, &p, shard, shards)
    })
}

/// Starts the one-shard server over `source`.
pub fn start_single(
    config: ServeConfig,
    source: Arc<Source>,
) -> Result<Server<ShardInfo>, RegistryError> {
    serve(config, move || {
        build_shard(&source, &ShardPlan::new(), 0, 1)
    })
}

/// Labels every frozen run, one span per run; also returns each run's
/// plan size `n⁺` as the labeler reports it, in the same order.
pub fn label_all(inputs: &Inputs, trace: &mut Trace, parent: SpanId) -> (Labels, Vec<Vec<u32>>) {
    inputs
        .specs
        .iter()
        .zip(&inputs.runs)
        .map(|(spec, runs)| {
            runs.iter()
                .map(|run| {
                    let t0 = Instant::now();
                    let labeled = label_run(spec, run).expect("generated runs label");
                    trace.record(
                        "label_run",
                        parent,
                        (t0, Instant::now()),
                        0,
                        run.vertex_count() as u64,
                    );
                    labeled
                })
                .unzip::<_, _, Vec<_>, Vec<_>>()
        })
        .unzip()
}

/// A registry holding every spec and frozen run, fleets resident: sealed
/// packed on packed tiers.
pub fn full_registry(
    inputs: &Inputs,
    labels: &Labels,
    packed: bool,
    trace: &mut Trace,
    parent: SpanId,
) -> Result<ServiceRegistry<'static>, RegistryError> {
    let mut reg = ServiceRegistry::new();
    for (s, spec) in inputs.specs.iter().enumerate() {
        let id = reg.register_spec(spec, inputs.kinds[s])?;
        for l in &labels[s] {
            reg.register_labels(id, l)?;
        }
        if packed {
            let t0 = Instant::now();
            reg.seal_packed(id)?;
            trace.record("seal_packed", parent, (t0, Instant::now()), 0, 0);
        }
    }
    Ok(reg)
}

/// Resident bytes (spec + run) per shard of every fleet of `reg`.
pub fn shard_bytes(reg: &ServiceRegistry<'_>, plan: &ShardPlan, shards: usize) -> Vec<usize> {
    let mut out = vec![0; shards];
    for id in reg.spec_ids() {
        let st = reg.fleet(id).expect("resident").stats();
        out[plan.shard_of(id, shards)] += st.spec_bytes + st.run_bytes;
    }
    out
}

/// Bytes of every file in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("snapshot dir readable")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum()
}

/// One set-up of `shape`: everything from generated inputs to a running
/// server.
pub struct Setup {
    pub server: ShardedServer<ShardInfo>,
    pub source: Arc<Source>,
    pub labels: Arc<Labels>,
    /// Plan size `n⁺` of every frozen run, per spec.
    pub n_plus: Vec<Vec<u32>>,
    /// The snapshot directory the shards opened (packed tiers).
    pub dir: Option<PathBuf>,
    /// Every fleet resident: the registry the snapshot was saved from on
    /// packed tiers.
    pub full: Option<ServiceRegistry<'static>>,
    /// Total byte budget across shards.
    pub budget: Option<usize>,
}

pub fn setup(
    shape: &Shape,
    inputs: &Inputs,
    config: ServeConfig,
    plan: &ShardPlan,
    dir: impl FnOnce() -> PathBuf,
    trace: &mut Trace,
    parent: SpanId,
) -> Result<Setup, RegistryError> {
    let span = trace.open("label", parent);
    let (labels, n_plus) = label_all(inputs, trace, span);
    let labels = Arc::new(labels);
    trace.close(span, inputs.frozen_vertices() as u64);
    let (source, dir, full, budget) = match shape.tier {
        Tier::Raw => (
            Source::Labels {
                specs: inputs.specs.clone(),
                kinds: inputs.kinds.clone(),
                labels: Arc::clone(&labels),
            },
            None,
            None,
            None,
        ),
        Tier::PackedDir { budget_div } => {
            let span = trace.open("seal", parent);
            let full = full_registry(inputs, &labels, true, trace, span)?;
            trace.close(span, 0);
            let budgets: Vec<Option<usize>> = shard_bytes(&full, plan, SHARDS)
                .into_iter()
                .map(|b| budget_div.map(|d| b / d))
                .collect();
            let budget = budget_div.map(|_| budgets.iter().map(|b| b.unwrap_or(0)).sum());
            let dir = dir();
            let span = trace.open("save_dir", parent);
            full.save_dir(&dir)?;
            trace.close(span, 0);
            (
                Source::Dir {
                    dir: dir.clone(),
                    budgets,
                },
                Some(dir),
                Some(full),
                budget,
            )
        }
    };
    let span = trace.open("server_start", parent);
    let source = Arc::new(source);
    let server = start_sharded(config, SHARDS, plan, Arc::clone(&source))?;
    for info in server.contexts() {
        if let Some(open) = info.open {
            trace.record("open_dir", span, open, 0, 0);
        }
        if let Some(touch) = info.touch {
            trace.record("first_touch", span, touch, 0, 0);
        }
    }
    trace.close(span, 0);
    Ok(Setup {
        server,
        source,
        labels,
        n_plus,
        dir,
        full,
        budget,
    })
}
