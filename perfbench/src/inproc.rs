//! In-process workloads: the paper's BSP-vs-GraphCT kernel suite on one
//! graph (`paper-rmat` on RMAT, `grid-deep` on a high-diameter grid).
//! No wire is involved.
//!
//! A run is a sequence of rounds; a round ("job") calls each BSP kernel
//! once and, after each BSP call, each GraphCT kernel `ct_reps` times,
//! checking every result.  Each round then times `build_reps` CSR builds.
//!
//! The graph is fixed per workload, so every seed does the same work;
//! the seed orders the kernels within each round.

use std::time::Instant;

use crate::check::{self, PagerankForm, Reference};
use crate::measure::{
    call_time, median, peak_heap_mb, quantile, reset_peak_heap, secs, timed, Report, Rng, Tracer,
};
use crate::sut::{
    self, Csr, EdgeList, Kernel, Output, Recorder, SuperstepTrace, TraceSink, VertexId,
};
use crate::Args;

/// Graph of an in-process workload.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Rmat { scale: u32, edge_factor: u64 },
    Grid { rows: u64, cols: u64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub shape: Shape,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// CSR builds per round, timed for the edge-update metrics.
    pub build_reps: usize,
    /// GraphCT calls per kernel after each BSP call (they are 20-300x
    /// faster than BSP, so they get more samples at little cost, taken at
    /// four points of each round).
    pub ct_reps: usize,
    /// Repeats per kernel of the traced run's extra measurements.
    pub extra_reps: usize,
}

/// Generator seed of the RMAT structure.
pub const GRAPH_SEED: u64 = 1;

/// PageRank tolerance of both models' default kernels.
const PAGERANK_TOLERANCE: f64 = 1e-9;

struct Setup {
    g: Csr,
    source: VertexId,
    setup_s: Vec<f64>,
    el: EdgeList,
}

fn setup(p: &Params) -> Setup {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..p.setup_reps.max(1) {
        let t = Instant::now();
        let el = match p.shape {
            Shape::Rmat { scale, edge_factor } => sut::rmat_edges(scale, edge_factor, GRAPH_SEED),
            Shape::Grid { rows, cols } => sut::grid_edges(rows, cols),
        };
        let g = sut::build(&el);
        let source = sut::pick_bfs_source(&g);
        setup_s.push(secs(t));
        last = Some((g, source, el));
    }
    let (g, source, el) = last.expect("at least one set-up");
    Setup {
        g,
        source,
        setup_s,
        el,
    }
}

/// Samples of one measured phase.
#[derive(Default)]
struct Phase {
    bsp_s: [Vec<f64>; 4],
    ct_s: [Vec<f64>; 4],
    round_s: Vec<f64>,
    /// Peak heap of each round, in MiB.
    heap_mb: Vec<f64>,
    /// CSR builds from the edge list, back to back after each round.
    build_s: Vec<f64>,
    /// Per BSP call: (supersteps, generated, sent) from `superstep_stats`.
    counts: [Vec<(u64, u64, u64)>; 4],
    /// Traced phase only: runtime trace records and model predictions.
    records: [Vec<SuperstepTrace>; 4],
    predicted_s: [Vec<f64>; 4],
}

impl Phase {
    /// Sum of the per-kernel call times of both models.
    fn kernel_total(&self) -> f64 {
        (0..4)
            .map(|i| call_time(&self.bsp_s[i]) + call_time(&self.ct_s[i]))
            .sum()
    }
}

struct Run<'a> {
    g: &'a Csr,
    el: &'a EdgeList,
    source: VertexId,
    refs: Vec<Reference>,
    ct_reps: usize,
    build_reps: usize,
    inject: bool,
    order: Rng,
}

impl Run<'_> {
    fn gate(&self, rep: &mut Report, k: Kernel, out: &Output, form: PagerankForm) {
        let r = &self.refs[k as usize];
        rep.attempt(check::check(
            self.g,
            k,
            self.source,
            out,
            r,
            (form, PAGERANK_TOLERANCE),
        ));
    }

    /// Rounds until `seconds` have passed (at least one).
    fn phase(&mut self, seconds: f64, rep: &mut Report, tr: &mut Tracer) -> Phase {
        let mut ph = Phase::default();
        let start = Instant::now();
        let mut round = 0u64;
        while round == 0 || secs(start) < seconds {
            reset_peak_heap();
            tr.enter("round", round);
            let mut round_s = 0.0;
            let mut bsp_tc = None;
            let mut ct_tc = None;
            let mut kernels = Kernel::ALL;
            self.order.shuffle(&mut kernels);
            for k in kernels {
                let i = k as usize;
                let mut rec = Recorder::new();
                let ((mut out, stats), t) = if tr.enabled() {
                    let mut sink = TraceSink::new();
                    let (r, t) = tr.span(bsp_span(k), round, || {
                        timed(|| {
                            sut::bsp_exec(
                                self.g,
                                k,
                                self.source,
                                Some(&mut rec),
                                Some(&mut sink),
                                &sut::default_executor(),
                            )
                        })
                    });
                    ph.records[i].extend(sut::trace_records(sink));
                    ph.predicted_s[i].push(sut::predicted_seconds(&rec));
                    (r, t)
                } else {
                    timed(|| sut::bsp(self.g, k, self.source, Some(&mut rec)))
                };
                ph.bsp_s[i].push(t);
                round_s += t;
                ph.counts[i].push((
                    stats.len() as u64,
                    stats.iter().map(|s| s.messages_generated).sum(),
                    stats.iter().map(|s| s.messages_sent).sum(),
                ));
                if self.inject && k == Kernel::Cc {
                    check::corrupt(&mut out);
                    self.inject = false;
                }
                if let Output::Triangles(t) = out {
                    bsp_tc = Some(t);
                }
                tr.span("check", round, || {
                    self.gate(rep, k, &out, PagerankForm::Bsp)
                });
                // Every GraphCT kernel after every BSP call, so each is
                // timed at four points of the round.  Back to back, checked
                // after the batch: a check between calls would let the
                // pool's workers go idle, and every parallel loop of the
                // next call would pay their wake-up.
                let mut cts = Kernel::ALL;
                self.order.shuffle(&mut cts);
                let mut outs = Vec::with_capacity(cts.len() * self.ct_reps);
                for c in cts {
                    for _ in 0..self.ct_reps {
                        let (out, t) = tr.span(ct_span(c), round, || {
                            timed(|| sut::graphct(self.g, c, self.source))
                        });
                        ph.ct_s[c as usize].push(t);
                        round_s += t;
                        outs.push((c, out));
                    }
                }
                for (c, out) in outs {
                    tr.span("check", round, || {
                        self.gate(rep, c, &out, PagerankForm::GraphCt)
                    });
                    if let Output::Triangles(t) = out {
                        ct_tc = Some(t);
                    }
                }
            }
            if bsp_tc != ct_tc {
                rep.fail(format!("tc: BSP {bsp_tc:?} != GraphCT {ct_tc:?}"));
            }
            tr.exit();
            ph.round_s.push(round_s);
            ph.heap_mb.push(peak_heap_mb());
            // The CSR builds, outside the round's span and time.
            for _ in 0..self.build_reps {
                let (built, t) = timed(|| sut::build(self.el));
                ph.build_s.push(t);
                rep.attempt(if built == *self.g {
                    Ok(())
                } else {
                    Err("CSR build differs from the set-up graph".into())
                });
            }
            round += 1;
        }
        ph
    }
}

fn bsp_span(k: Kernel) -> &'static str {
    match k {
        Kernel::Cc => "bsp.cc",
        Kernel::Bfs => "bsp.bfs",
        Kernel::Pagerank => "bsp.pagerank",
        Kernel::Tc => "bsp.tc",
    }
}

fn ct_span(k: Kernel) -> &'static str {
    match k {
        Kernel::Cc => "graphct.cc",
        Kernel::Bfs => "graphct.bfs",
        Kernel::Pagerank => "graphct.pagerank",
        Kernel::Tc => "graphct.tc",
    }
}

pub fn run(p: &Params, args: &Args) -> (Report, Vec<Vec<crate::measure::Span>>) {
    let mut rep = Report::default();
    let s = setup(p);
    let g = &s.g;
    let refs = Kernel::ALL
        .iter()
        .map(|&k| check::reference(g, k, s.source))
        .collect();
    let mut run = Run {
        g,
        el: &s.el,
        source: s.source,
        refs,
        ct_reps: p.ct_reps,
        build_reps: p.build_reps,
        inject: args.inject_fault,
        order: Rng::new(args.seed),
    };
    let epoch = Instant::now();

    if !args.trace {
        let mut tr = Tracer::new(false, epoch);
        let ph = run.phase(args.seconds, &mut rep, &mut tr);
        end_to_end(&mut rep, &s, &ph);
        return (rep, Vec::new());
    }

    // Traced run: an untraced half for the overhead baseline, then the
    // traced half, then the extra per-layer measurements.
    let mut off = Tracer::new(false, epoch);
    let base = run.phase(args.seconds / 2.0, &mut rep, &mut off);
    let mut tr = Tracer::new(true, epoch);
    let ph = run.phase(args.seconds / 2.0, &mut rep, &mut tr);
    per_layer(&mut rep, &run, &base, &ph, p.extra_reps, &mut tr);
    (rep, vec![tr.into_spans()])
}

fn end_to_end(rep: &mut Report, s: &Setup, ph: &Phase) {
    rep.put("setup_s", median(&s.setup_s), "s", s.setup_s.len());
    // The median round's peak.  The most heap a round holds at once
    // depends on how the pool's workers interleave: on RMAT 14 most
    // rounds peaked at 399 MiB and some at 368, 468 or 508 MiB, so a
    // whole run's peak read 399 or 508 MiB, run to run.
    let n = ph.heap_mb.len();
    rep.put("peak_heap_mb", median(&ph.heap_mb), "MiB", n);
    for k in Kernel::ALL {
        let i = k as usize;
        rep.put(
            format!("bsp_{}_s", k.name()),
            call_time(&ph.bsp_s[i]),
            "s",
            ph.bsp_s[i].len(),
        );
    }
    // A job is one round of the suite.
    let n = ph.round_s.len();
    let total: f64 = ph.round_s.iter().sum();
    rep.put("jobs_per_s", n as f64 / total, "1/s", n);
    rep.put("job_p50_ms", median(&ph.round_s) * 1e3, "ms", n);
    rep.put("job_p90_ms", quantile(&ph.round_s, 0.9) * 1e3, "ms", n);
    // A static CSR takes new edges only by a rebuild: the edge-update
    // path of this workload is the CSR build.
    let b = &ph.build_s;
    let edges = s.el.edges.len() as f64;
    rep.put("edge_ops_per_s", edges / median(b), "1/s", b.len());
    rep.put("update_p90_ms", quantile(b, 0.9) * 1e3, "ms", b.len());
}

/// Report the `bsp.<k>.*` metrics of one kernel's runs on a graph of `n`
/// vertices, from their runtime trace records and, per run, the
/// supersteps and the messages generated and sent.
pub fn put_bsp_layer(
    rep: &mut Report,
    k: Kernel,
    records: &[SuperstepTrace],
    counts: &[(u64, u64, u64)],
    n: u64,
) {
    let sum = |f: fn(&SuperstepTrace) -> u64| records.iter().map(f).sum::<u64>() as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let col = |f: fn(&(u64, u64, u64)) -> u64| {
        median(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let fixed: Vec<f64> = records
        .iter()
        .filter(|r| r.active * 100 < n)
        .map(|r| r.total_ns as f64 / 1e3)
        .collect();
    let (generated, sent) = (col(|c| c.1), col(|c| c.2));
    let name = k.name();
    let runs = counts.len();
    rep.put(
        format!("bsp.{name}.supersteps"),
        col(|c| c.0),
        "count",
        runs,
    );
    rep.put(
        format!("bsp.{name}.messages_generated"),
        generated,
        "count",
        runs,
    );
    rep.put(format!("bsp.{name}.messages_sent"), sent, "count", runs);
    rep.put(
        format!("bsp.{name}.combine_ratio"),
        per(sent, generated),
        "ratio",
        runs,
    );
    let compute = per(sum(|r| r.compute_ns), sum(|r| r.messages_generated));
    rep.put(
        format!("bsp.{name}.compute_ns_per_msg"),
        compute,
        "ns/msg",
        runs,
    );
    let exchange = per(sum(|r| r.exchange_ns), sum(|r| r.messages_sent));
    rep.put(
        format!("bsp.{name}.exchange_ns_per_msg"),
        exchange,
        "ns/msg",
        runs,
    );
    let scan = per(sum(|r| r.scan_ns), records.len() as f64 * n as f64);
    rep.put(
        format!("bsp.{name}.scan_ns_per_vertex"),
        scan,
        "ns/vertex",
        runs,
    );
    let fixed_us = if fixed.is_empty() {
        0.0
    } else {
        median(&fixed)
    };
    rep.put(
        format!("bsp.{name}.superstep_fixed_us"),
        fixed_us,
        "us",
        runs,
    );
}

fn per_layer(
    rep: &mut Report,
    run: &Run,
    base: &Phase,
    ph: &Phase,
    extra_reps: usize,
    tr: &mut Tracer,
) {
    let g = run.g;
    let n = g.num_vertices();
    let arcs = g.num_arcs() as f64;
    rep.put("graph.build_s", median(&ph.build_s), "s", ph.build_s.len());

    // Extra measurements, outside the traced window: the GraphCT kernels
    // under the model's recorder, each BSP kernel without a recorder,
    // and on private 1- and 2-worker pools.
    let one = sut::executor(1);
    let two = sut::executor(2);
    let mut charge_s = 0.0;
    let mut ct_model = [0.0f64; 4];
    let mut tc_reads = 0u64;
    let mut speedup = [0.0f64; 4];
    for k in Kernel::ALL {
        let i = k as usize;
        let mut rec = Recorder::new();
        if tr
            .span("model", 0, || {
                sut::graphct_recorded(g, k, run.source, &mut rec)
            })
            .is_some()
        {
            ct_model[i] = sut::predicted_seconds(&rec);
            if k == Kernel::Tc {
                tc_reads = sut::recorded_reads(&rec);
            }
        }
        let mut with = Vec::new();
        let mut without = Vec::new();
        let mut w1 = Vec::new();
        let mut w2 = Vec::new();
        for _ in 0..extra_reps {
            let mut rec = Recorder::new();
            with.push(timed(|| sut::bsp(g, k, run.source, Some(&mut rec))).1);
            without.push(timed(|| sut::bsp(g, k, run.source, None)).1);
            w1.push(timed(|| sut::bsp_exec(g, k, run.source, None, None, &one)).1);
            w2.push(timed(|| sut::bsp_exec(g, k, run.source, None, None, &two)).1);
        }
        charge_s += median(&with) - median(&without);
        speedup[i] = median(&w1) / median(&w2);
    }

    for k in Kernel::ALL {
        let i = k as usize;
        put_bsp_layer(rep, k, &ph.records[i], &ph.counts[i], n);
    }
    for k in Kernel::ALL {
        let i = k as usize;
        let name = k.name();
        rep.put(
            format!("bsp.{name}.host_s"),
            call_time(&ph.bsp_s[i]),
            "s",
            ph.bsp_s[i].len(),
        );
        rep.put(
            format!("graphct.{name}.host_s"),
            call_time(&ph.ct_s[i]),
            "s",
            ph.ct_s[i].len(),
        );
        rep.put(
            format!("model.{name}.predicted_xmt_s"),
            median(&ph.predicted_s[i]),
            "s",
            ph.predicted_s[i].len(),
        );
        rep.put(
            format!("graphct.{name}.ns_per_arc"),
            call_time(&ph.ct_s[i]) * 1e9 / arcs,
            "ns/arc",
            ph.ct_s[i].len(),
        );
        rep.put(
            format!("par.{name}.speedup_2v1"),
            speedup[i],
            "x",
            extra_reps,
        );
        rep.put(
            format!("ratio.{name}.bsp_over_graphct_host"),
            call_time(&ph.bsp_s[i]) / call_time(&ph.ct_s[i]),
            "ratio",
            0,
        );
        if k != Kernel::Pagerank {
            rep.put(
                format!("ratio.{name}.bsp_over_graphct_model"),
                median(&ph.predicted_s[i]) / ct_model[i],
                "ratio",
                0,
            );
        }
    }
    rep.put("model.charge_s", charge_s, "s", extra_reps);
    rep.put("graphct.tc.adjacency_reads", tc_reads as f64, "count", 1);
    rep.put(
        "trace.overhead_pct",
        (ph.kernel_total() / base.kernel_total() - 1.0) * 100.0,
        "%",
        0,
    );
}
