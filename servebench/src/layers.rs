//! The kernel-side half of the waterfall: the probe pool through
//! `QueryEngine`, `PackedEngine`, `FleetEngine` and `ServiceRegistry`, each
//! called directly on the benchmark thread over the same probes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use wfp_model::RunVertexId;
use wfp_skl::{
    EngineStats, PackedEngine, Probe, QueryEngine, RegistryError, RunHandle, RunId,
    ServiceRegistry, SpecContext,
};
use wfp_speclabel::SpecScheme;

use crate::gen::Inputs;
use crate::setup::Labels;
use crate::trace::{SpanId, Trace};

/// Repeats `pass` (which returns the seconds it spent in the measured
/// calls) at least `min` times and until `until`; returns every pass time.
pub fn passes(min: usize, until: Instant, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let mut out = Vec::new();
    while out.len() < min || Instant::now() < until {
        out.push(pass());
    }
    out
}

/// One pass of `probes` through `ServiceRegistry::answer_batch` in
/// batches of `batch`: the answers (pool order), seconds in the calls and
/// calls that failed.
pub fn registry_pass(
    reg: &mut ServiceRegistry<'static>,
    probes: &[Probe],
    batch: usize,
    trace: &mut Trace,
    parent: SpanId,
) -> (Vec<bool>, f64, u64) {
    let mut answers = Vec::with_capacity(probes.len());
    let mut secs = 0.0;
    let mut failed = 0;
    for chunk in probes.chunks(batch) {
        let t0 = Instant::now();
        let got = reg.answer_batch(chunk);
        let t1 = Instant::now();
        secs += (t1 - t0).as_secs_f64();
        trace.record(
            "ServiceRegistry::answer_batch",
            parent,
            (t0, t1),
            0,
            chunk.len() as u64,
        );
        match got {
            Ok(a) => answers.extend_from_slice(&a),
            Err(_) => {
                failed += 1;
                answers.resize(answers.len() + chunk.len(), false);
            }
        }
    }
    (answers, secs, failed)
}

/// The pool's probes grouped by `(spec, run)`, with their pool positions.
struct Group {
    spec: usize,
    run: usize,
    pairs: Vec<(RunVertexId, RunVertexId)>,
    positions: Vec<usize>,
}

fn group_by_run(inputs: &Inputs) -> Vec<Group> {
    let mut slot: Vec<Vec<Option<usize>>> =
        inputs.runs.iter().map(|r| vec![None; r.len()]).collect();
    let mut groups: Vec<Group> = Vec::new();
    for (i, &(spec, run, u, v)) in inputs.pool.iter().enumerate() {
        let s = inputs.spec_index(spec);
        let g = *slot[s][run.index()].get_or_insert_with(|| {
            groups.push(Group {
                spec: s,
                run: run.index(),
                pairs: Vec::new(),
                positions: Vec::new(),
            });
            groups.len() - 1
        });
        groups[g].pairs.push((u, v));
        groups[g].positions.push(i);
    }
    groups
}

pub struct EngineLayers {
    pub engine_s: Vec<f64>,
    pub packed_s: Vec<f64>,
    /// Decision counts of one cold pass of the pool.
    pub counts: EngineStats,
    pub engine_answers: Vec<bool>,
    pub packed_answers: Vec<bool>,
    /// Every timed pass answered like the first.
    pub repeats_agree: bool,
}

/// Raw and packed engines per run over fresh per-spec contexts. The first
/// pass runs on cold memos and gives the decision counts; later passes
/// are timed for `slice_s` each.
pub fn engines(
    inputs: &Inputs,
    labels: &Labels,
    slice_s: f64,
    trace: &mut Trace,
    parent: SpanId,
) -> EngineLayers {
    let groups = group_by_run(inputs);
    let ctxs: Vec<Arc<SpecContext<SpecScheme>>> = inputs
        .specs
        .iter()
        .zip(&inputs.kinds)
        .map(|(spec, &kind)| {
            SpecContext::for_spec(spec, SpecScheme::build(kind, spec.graph())).shared()
        })
        .collect();
    let raw: Vec<QueryEngine<SpecScheme>> = groups
        .iter()
        .map(|g| {
            QueryEngine::from_parts(
                Arc::clone(&ctxs[g.spec]),
                RunHandle::from_labels(&labels[g.spec][g.run]),
            )
        })
        .collect();

    let mut engine_answers = vec![false; inputs.pool.len()];
    for (g, e) in groups.iter().zip(&raw) {
        for (&i, a) in g.positions.iter().zip(e.answer_batch(&g.pairs)) {
            engine_answers[i] = a;
        }
    }
    let mut stats = EngineStats::default();
    for e in &raw {
        let s = e.stats();
        stats.context_only += s.context_only;
        stats.skeleton += s.skeleton;
    }
    for ctx in &ctxs {
        stats.skeleton_probes += ctx.memo().probes();
        stats.memo_hits += ctx.memo().hits();
    }

    let mut repeats_agree = true;
    let span = trace.open("engine", parent);
    let engine_s = passes(3, Instant::now() + secs(slice_s), || {
        let mut t = 0.0;
        let mut answers = vec![false; inputs.pool.len()];
        for (g, e) in groups.iter().zip(&raw) {
            let t0 = Instant::now();
            let got = e.answer_batch(black_box(&g.pairs));
            let t1 = Instant::now();
            t += (t1 - t0).as_secs_f64();
            for (&i, a) in g.positions.iter().zip(got) {
                answers[i] = a;
            }
            trace.record(
                "QueryEngine::answer_batch",
                span,
                (t0, t1),
                0,
                g.pairs.len() as u64,
            );
        }
        repeats_agree &= answers == engine_answers;
        t
    });
    trace.close(span, inputs.pool.len() as u64 * engine_s.len() as u64);

    let packed: Vec<PackedEngine<SpecScheme>> = raw.iter().map(QueryEngine::seal_packed).collect();
    let mut packed_answers = vec![false; inputs.pool.len()];
    for (g, e) in groups.iter().zip(&packed) {
        for (&i, a) in g.positions.iter().zip(e.answer_batch(&g.pairs)) {
            packed_answers[i] = a;
        }
    }
    let span = trace.open("packed", parent);
    let packed_s = passes(3, Instant::now() + secs(slice_s), || {
        let mut t = 0.0;
        let mut answers = vec![false; inputs.pool.len()];
        for (g, e) in groups.iter().zip(&packed) {
            let t0 = Instant::now();
            let got = e.answer_batch(black_box(&g.pairs));
            let t1 = Instant::now();
            t += (t1 - t0).as_secs_f64();
            for (&i, a) in g.positions.iter().zip(got) {
                answers[i] = a;
            }
            trace.record(
                "PackedEngine::answer_batch",
                span,
                (t0, t1),
                0,
                g.pairs.len() as u64,
            );
        }
        repeats_agree &= answers == packed_answers;
        t
    });
    trace.close(span, inputs.pool.len() as u64 * packed_s.len() as u64);

    EngineLayers {
        engine_s,
        packed_s,
        counts: stats,
        engine_answers,
        packed_answers,
        repeats_agree,
    }
}

pub struct FleetLayer {
    pub times: Vec<f64>,
    /// Answers of the first pass, in pool order.
    pub answers: Vec<bool>,
    /// Every later pass answered like the first.
    pub repeats_agree: bool,
}

/// The pool through each spec's `FleetEngine::answer_batch`, one call per
/// spec per pass. A fleet offloaded under a budget is made resident first,
/// outside the timed call.
pub fn fleets(
    reg: &mut ServiceRegistry<'static>,
    inputs: &Inputs,
    slice_s: f64,
    trace: &mut Trace,
    parent: SpanId,
) -> Result<FleetLayer, RegistryError> {
    // per spec: its probes as fleet probes, and their pool positions
    type SpecGroup = (Vec<(RunId, RunVertexId, RunVertexId)>, Vec<usize>);
    let mut by_spec: Vec<SpecGroup> = vec![(Vec::new(), Vec::new()); inputs.specs.len()];
    for (i, &(spec, run, u, v)) in inputs.pool.iter().enumerate() {
        let (sub, pos) = &mut by_spec[inputs.spec_index(spec)];
        sub.push((run, u, v));
        pos.push(i);
    }
    let mut first: Option<Vec<bool>> = None;
    let mut repeats_agree = true;
    let mut failure = None;
    let span = trace.open("fleet", parent);
    let times = passes(3, Instant::now() + secs(slice_s), || {
        let mut t = 0.0;
        let mut answers = vec![false; inputs.pool.len()];
        for (s, (sub, pos)) in by_spec.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let id = inputs.ids[s];
            if let Err(e) = reg.ensure_resident(id) {
                failure.get_or_insert(e);
                continue;
            }
            let fleet = reg.fleet(id).expect("made resident above");
            let t0 = Instant::now();
            let got = fleet.answer_batch(black_box(sub));
            let t1 = Instant::now();
            t += (t1 - t0).as_secs_f64();
            trace.record(
                "FleetEngine::answer_batch",
                span,
                (t0, t1),
                0,
                sub.len() as u64,
            );
            match got {
                Ok(a) => {
                    for (&i, a) in pos.iter().zip(a) {
                        answers[i] = a;
                    }
                }
                Err(error) => {
                    failure.get_or_insert(RegistryError::Fleet { spec: id, error });
                }
            }
        }
        match &first {
            None => first = Some(answers),
            Some(f) => repeats_agree &= *f == answers,
        }
        t
    });
    trace.close(span, inputs.pool.len() as u64 * times.len() as u64);
    match failure {
        Some(e) => Err(e),
        None => Ok(FleetLayer {
            times,
            answers: first.expect("at least one pass"),
            repeats_agree,
        }),
    }
}

pub fn secs(s: f64) -> std::time::Duration {
    std::time::Duration::from_secs_f64(s)
}
