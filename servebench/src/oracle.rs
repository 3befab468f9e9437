//! The correctness oracle: reachability from the transitive closure of
//! each generated run graph, taken with `wfp_graph` alone — no label, no
//! skeleton and no engine of `wfp-skl` is involved.

use wfp_graph::TransitiveClosure;
use wfp_model::RunVertexId;
use wfp_skl::Probe;

use crate::gen::{Inputs, LiveLog, RunRef};

/// Expected answers of the frozen-run probe pool, in pool order. Probes
/// are grouped by run so that only one closure is held at a time.
pub fn frozen_pool(inputs: &Inputs) -> Vec<bool> {
    let mut out = vec![false; inputs.pool.len()];
    let mut by_run: Vec<Vec<Vec<usize>>> = inputs
        .runs
        .iter()
        .map(|runs| vec![Vec::new(); runs.len()])
        .collect();
    for (i, &(spec, run, _, _)) in inputs.pool.iter().enumerate() {
        by_run[inputs.spec_index(spec)][run.index()].push(i);
    }
    for (s, runs) in by_run.iter().enumerate() {
        for (j, idxs) in runs.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let tc = TransitiveClosure::build(inputs.runs[s][j].graph());
            for &i in idxs {
                let (_, _, u, v) = inputs.pool[i];
                out[i] = tc.reaches(u.raw(), v.raw());
            }
        }
    }
    out
}

/// Expected answers of every live log's chunk requests. A live run numbers
/// its vertices in execution order, so execution `i` is run vertex
/// `mapping[i]`; the run graph is a DAG executed in topological order, so
/// the closure of the final graph answers every prefix.
pub fn live_requests(inputs: &Inputs) -> Vec<Vec<Vec<bool>>> {
    let mut frozen: Vec<Vec<Option<TransitiveClosure>>> = inputs
        .runs
        .iter()
        .map(|runs| runs.iter().map(|_| None).collect())
        .collect();
    inputs
        .live
        .iter()
        .map(|log: &LiveLog| {
            let tc = TransitiveClosure::build(log.run.graph());
            let at = |v: RunVertexId| log.mapping[v.index()].raw();
            log.requests
                .iter()
                .map(|req| {
                    req.iter()
                        .map(|&(_, run, u, v)| match run {
                            RunRef::Live(_) => tc.reaches(at(u), at(v)),
                            RunRef::Frozen(id) => frozen[log.spec][id.index()]
                                .get_or_insert_with(|| {
                                    TransitiveClosure::build(
                                        inputs.runs[log.spec][id.index()].graph(),
                                    )
                                })
                                .reaches(u.raw(), v.raw()),
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Reflexive probes `(u, u)` over the first vertices of every frozen run
/// — each must come back `true` from every path that answers them.
pub fn reflexive_probes(inputs: &Inputs, per_run: usize) -> Vec<Probe> {
    let mut out = Vec::new();
    for (s, runs) in inputs.runs.iter().enumerate() {
        for (j, run) in runs.iter().enumerate() {
            let n = run.vertex_count();
            for k in 0..per_run {
                let u = RunVertexId((k * n / per_run).min(n - 1) as u32);
                out.push((inputs.ids[s], wfp_skl::RunId(j as u32), u, u));
            }
        }
    }
    out
}
