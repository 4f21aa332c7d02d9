//! Wire workloads against an in-process server on a loopback port.
//!
//! * `service-mix`: a static RMAT graph; two closed-loop clients submit
//!   jobs drawn from {cc, bfs, pagerank, triangles} x {bsp, native,
//!   graphct} and wait for each result; then one client runs BSP jobs
//!   alone.
//! * `stream-rw`: a dynamic RMAT graph; one closed-loop connection sends
//!   update batches while a second submits analytics against the moving
//!   graph; then the writer pauses and the reader runs BSP jobs alone.
//!
//! The graph's structure and the `stream-rw` update pool are fixed per
//! workload; the seed draws the job sequence and the BFS sources.
//!
//! Every result is checked against a reference computed in-process at
//! set-up.  The `stream-rw` update stream cycles through a fixed pool of
//! batches, so the graph only ever takes one of `pool_batches` states
//! and each state's reference is made once.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use serde::Content;

use crate::check::{self, PagerankForm, Reference};
use crate::inproc::{put_bsp_layer, GRAPH_SEED};
use crate::measure::{
    call_time, median, peak_heap_mb, quantile, secs, timed, Report, Rng, Span, Tracer,
};
use crate::sut::{self, Conn, Csr, Kernel, Output, Service, SuperstepTrace, VertexId};
use crate::Args;

/// Default wire PageRank tolerance (`tolerance` omitted from `submit`).
const WIRE_PAGERANK_TOLERANCE: f64 = 1e-7;
/// Upper bound a client waits for one result.
const RESULT_WAIT_MS: u64 = 120_000;
const GRAPH: &str = "g";
/// Batches between two reads of the graph's update trace in the traced
/// run; the server keeps the last 1024, so every batch is read once
/// without fetching the whole window after each one.
const UPDATE_TRACE_EVERY: u64 = 256;
const ENGINES: [&str; 3] = ["bsp", "native", "graphct"];
/// Share of a `service-mix` run under the two-client mixed load, and of
/// a `stream-rw` run under the update stream; the rest is the
/// one-client quiet phase that gives the per-kernel latencies.
const MIXED_SHARE: f64 = 0.6;

#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub scale: u32,
    pub edge_factor: u64,
    pub setup_reps: usize,
    /// BFS sources drawn from the seed (each has a reference).
    pub sources: usize,
    /// `stream-rw`: edges inserted (and, once warm, deleted) per batch.
    pub batch_edges: usize,
    /// `stream-rw`: batches in the cycling pool; half of them are live
    /// at any time.
    pub pool_batches: usize,
}

/// One job kind: a kernel on an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Kind {
    k: Kernel,
    engine: &'static str,
}

impl Kind {
    fn form(self) -> PagerankForm {
        if self.engine == "graphct" {
            PagerankForm::GraphCt
        } else {
            PagerankForm::Bsp
        }
    }
}

fn all_kinds(engines: &[&'static str]) -> Vec<Kind> {
    Kernel::ALL
        .iter()
        .flat_map(|&k| engines.iter().map(move |&engine| Kind { k, engine }))
        .collect()
}

/// Kinds in seeded shuffled blocks, so every kind gets an equal share of
/// any run.
struct Mix {
    kinds: Vec<Kind>,
    block: Vec<usize>,
    rng: Rng,
}

impl Mix {
    fn new(kinds: Vec<Kind>, rng: Rng) -> Mix {
        Mix {
            kinds,
            block: Vec::new(),
            rng,
        }
    }

    fn next(&mut self) -> Kind {
        if self.block.is_empty() {
            self.block = (0..self.kinds.len()).collect();
            self.rng.shuffle(&mut self.block);
        }
        self.kinds[self.block.pop().expect("block refilled above")]
    }
}

/// One finished job as a client saw it.
struct JobSample {
    kind: Kind,
    latency_s: f64,
    submit_s: f64,
    /// `(queued_ms, running_ms)` from `status` (traced phase only).
    status: Option<(u64, u64)>,
}

/// What the clients of one phase saw.
#[derive(Default)]
struct Seen {
    jobs: Vec<JobSample>,
    /// BSP-engine jobs' runtime records and per-job counts, per kernel
    /// (traced phase only).
    records: [Vec<SuperstepTrace>; 4],
    counts: [Vec<(u64, u64, u64)>; 4],
    spans: Vec<Vec<Span>>,
    wall: f64,
}

impl Seen {
    fn merge(&mut self, mut other: Seen) {
        self.jobs.append(&mut other.jobs);
        for i in 0..4 {
            self.records[i].append(&mut other.records[i]);
            self.counts[i].append(&mut other.counts[i]);
        }
        self.spans.append(&mut other.spans);
        self.wall = self.wall.max(other.wall);
    }

    fn latencies(&self, keep: impl Fn(Kind) -> bool, scale: f64) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| keep(j.kind))
            .map(|j| j.latency_s * scale)
            .collect()
    }

    fn put_bsp_layers(&self, rep: &mut Report, n: u64) {
        for k in Kernel::ALL {
            let i = k as usize;
            put_bsp_layer(rep, k, &self.records[i], &self.counts[i], n);
        }
    }
}

fn submit_line(kind: Kind, source: VertexId) -> String {
    format!(
        r#"{{"op":"submit","graph":"{GRAPH}","algorithm":"{}","engine":"{}","source":{source}}}"#,
        kind.k.wire_name(),
        kind.engine
    )
}

/// Submit one job and wait for its result; `Ok` carries the output.
/// The traced run also fetches the job's `status`, and for BSP jobs its
/// runtime `trace`.
fn run_job(
    conn: &mut Conn,
    tr: &mut Tracer,
    seen: &mut Seen,
    kind: Kind,
    source: VertexId,
    request: u64,
) -> Result<Output, String> {
    let t = Instant::now();
    let line = submit_line(kind, source);
    let (resp, submit_s) = tr.span("wire.submit", request, || timed(|| conn.call(&line)));
    let id = sut::field_u64(&resp?, "job_id").ok_or("submit: no job_id")?;
    let result = format!(r#"{{"op":"result","job_id":{id},"wait_ms":{RESULT_WAIT_MS}}}"#);
    let resp = tr.span("wire.result", request, || conn.call(&result))?;
    let latency_s = secs(t);
    let out = sut::field(&resp, "result")
        .and_then(sut::wire_output)
        .ok_or_else(|| format!("job {id}: no result"))?;
    let mut status = None;
    if tr.enabled() {
        let line = format!(r#"{{"op":"status","job_id":{id}}}"#);
        let resp = tr.span("wire.status", request, || conn.call(&line))?;
        let job = sut::field(&resp, "job").ok_or("status: no job")?;
        let ms = |name| sut::field_u64(job, name).unwrap_or(0);
        status = Some((ms("queued_ms"), ms("running_ms")));
        if kind.engine == "bsp" {
            let line = format!(r#"{{"op":"trace","job_id":{id}}}"#);
            let resp = tr.span("wire.trace", request, || conn.call(&line))?;
            let recs = sut::wire_trace(&resp);
            let i = kind.k as usize;
            seen.counts[i].push((
                recs.len() as u64,
                recs.iter().map(|r| r.messages_generated).sum(),
                recs.iter().map(|r| r.messages_sent).sum(),
            ));
            seen.records[i].extend(recs);
        }
    }
    seen.jobs.push(JobSample {
        kind,
        latency_s,
        submit_s,
        status,
    });
    Ok(out)
}

/// One closed-loop client: until `seconds` after `start` (at least one
/// job), take the next `(kind, source index)`, run it and check it.
/// `mark` is read before each submit and handed to `check` with the
/// output.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    svc: &Service,
    traced: bool,
    epoch: Instant,
    start: Instant,
    seconds: f64,
    sources: &[VertexId],
    rep: &mut Report,
    inject: &AtomicBool,
    mut next: impl FnMut() -> (Kind, usize),
    mark: impl Fn() -> usize,
    check: impl Fn(Kind, usize, &Output, usize) -> Result<(), String>,
) -> Seen {
    let mut conn = svc.connect();
    let mut tr = Tracer::new(traced, epoch);
    let mut seen = Seen::default();
    let mut request = 0u64;
    while request == 0 || secs(start) < seconds {
        let (kind, src) = next();
        request += 1;
        let before = mark();
        tr.enter("job", request);
        let res = run_job(&mut conn, &mut tr, &mut seen, kind, sources[src], request);
        let res = res.and_then(|mut out| {
            if kind.k == Kernel::Cc && inject.swap(false, Ordering::SeqCst) {
                check::corrupt(&mut out);
            }
            tr.span("check", request, || check(kind, src, &out, before))
        });
        tr.exit();
        rep.attempt(res);
    }
    seen.spans.push(tr.into_spans());
    seen.wall = secs(start);
    seen
}

fn register_line(p: &Params, dynamic: bool) -> String {
    format!(
        r#"{{"op":"register_graph","name":"{GRAPH}","kind":"rmat","scale":{},"edge_factor":{},"seed":{GRAPH_SEED},"dynamic":{dynamic}}}"#,
        p.scale, p.edge_factor
    )
}

struct Setup {
    svc: Service,
    setup_s: Vec<f64>,
    register_s: Vec<f64>,
    edges: u64,
}

/// Start a server and register the workload graph, `setup_reps` times;
/// the last server is kept.
fn setup(p: &Params, dynamic: bool) -> Setup {
    let mut setup_s = Vec::new();
    let mut register_s = Vec::new();
    let mut kept = None;
    let line = register_line(p, dynamic);
    for _ in 0..p.setup_reps.max(1) {
        if let Some((svc, _)) = kept.take() {
            Service::stop(svc);
        }
        let t = Instant::now();
        let svc = Service::start();
        let mut conn = svc.connect();
        let (resp, r) = timed(|| conn.call(&line));
        setup_s.push(secs(t));
        register_s.push(r);
        let resp = resp.expect("register_graph succeeds on a fresh server");
        let edges = sut::field(&resp, "graph")
            .and_then(|g| sut::field_u64(g, "edges"))
            .expect("register_graph reports the edge count");
        kept = Some((svc, edges));
    }
    let (svc, edges) = kept.expect("at least one set-up");
    Setup {
        svc,
        setup_s,
        register_s,
        edges,
    }
}

/// `count` distinct BFS sources of positive degree, drawn from the seed.
fn pick_sources(g: &Csr, count: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    while out.len() < count {
        let v = rng.below(g.num_vertices());
        if g.degree(v) > 0 && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// References of one graph state: per-kernel, BFS per source.
struct Refs {
    g: Csr,
    cc: Reference,
    tc: Reference,
    bfs: Vec<Reference>,
}

impl Refs {
    fn new(g: Csr, sources: &[VertexId]) -> Refs {
        Refs {
            cc: check::reference(&g, Kernel::Cc, 0),
            tc: check::reference(&g, Kernel::Tc, 0),
            bfs: sources
                .iter()
                .map(|&s| check::reference(&g, Kernel::Bfs, s))
                .collect(),
            g,
        }
    }

    fn check(
        &self,
        kind: Kind,
        src: usize,
        sources: &[VertexId],
        out: &Output,
    ) -> Result<(), String> {
        let r = match kind.k {
            Kernel::Cc => &self.cc,
            Kernel::Tc => &self.tc,
            Kernel::Bfs => &self.bfs[src],
            Kernel::Pagerank => &Reference::Pagerank,
        };
        check::check(
            &self.g,
            kind.k,
            sources[src],
            out,
            r,
            (kind.form(), WIRE_PAGERANK_TOLERANCE),
        )
        .map_err(|e| format!("{} job: {e}", kind.engine))
    }
}

// ------------------------------------------------------------ service-mix

pub fn service_mix(p: &Params, args: &Args) -> (Report, Vec<Vec<Span>>) {
    let mut rep = Report::default();
    let s = setup(p, false);
    let g = sut::build(&sut::rmat_edges(p.scale, p.edge_factor, GRAPH_SEED));
    let sources = pick_sources(&g, p.sources, args.seed);
    let refs = Refs::new(g, &sources);
    let epoch = Instant::now();
    let inject = AtomicBool::new(args.inject_fault);

    // `clients` closed-loop clients, each drawing its own seeded job
    // sequence over `engines`.
    let phase = |rep: &mut Report,
                 seconds: f64,
                 traced: bool,
                 salt: u64,
                 clients: u64,
                 engines: &[&'static str]| {
        let start = Instant::now();
        let per_client: Vec<(Report, Seen)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (sources, refs, inject, svc) = (&sources, &refs, &inject, &s.svc);
                    let kinds = all_kinds(engines);
                    scope.spawn(move || {
                        let mut rng = Rng::new(args.seed ^ (salt * 2 + c + 1) << 32);
                        let mut mix = Mix::new(kinds, Rng::new(rng.next_u64()));
                        let mut rep = Report::default();
                        let next = || (mix.next(), rng.below(sources.len() as u64) as usize);
                        let seen = client_loop(
                            svc,
                            traced,
                            epoch,
                            start,
                            seconds,
                            sources,
                            &mut rep,
                            inject,
                            next,
                            || 0,
                            |kind, src, out, _| refs.check(kind, src, sources, out),
                        );
                        (rep, seen)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut seen = Seen::default();
        for (r, s) in per_client {
            rep.absorb(r);
            seen.merge(s);
        }
        seen
    };

    if !args.trace {
        // The mixed load gives the job metrics; a quiet phase after it,
        // one client running one job at a time, gives the per-kernel
        // latencies without the other client's job sharing the cores.
        let mixed = phase(&mut rep, args.seconds * MIXED_SHARE, false, 0, 2, &ENGINES);
        let quiet = phase(
            &mut rep,
            args.seconds * (1.0 - MIXED_SHARE),
            false,
            2,
            1,
            &["bsp"],
        );
        rep.put("setup_s", median(&s.setup_s), "s", s.setup_s.len());
        rep.put("peak_heap_mb", peak_heap_mb(), "MiB", 0);
        kernel_metrics(&mut rep, &quiet);
        job_metrics(&mut rep, &mixed);
        // A static graph takes new edges only by registering it again:
        // the edge-update path of this workload is `register_graph`.
        let r = &s.register_s;
        rep.put("edge_ops_per_s", s.edges as f64 / median(r), "1/s", r.len());
        rep.put("update_p90_ms", quantile(r, 0.9) * 1e3, "ms", r.len());
        s.svc.stop();
        return (rep, Vec::new());
    }

    let base = phase(&mut rep, args.seconds / 2.0, false, 0, 2, &ENGINES);
    let traced = phase(&mut rep, args.seconds / 2.0, true, 1, 2, &ENGINES);
    traced.put_bsp_layers(&mut rep, refs.g.num_vertices());
    service_layers(&mut rep, &traced, refs.g.num_arcs());
    protocol_layer(&mut rep, &refs, &sources);
    server_layer(&mut rep, &mut s.svc.connect());
    overhead(&mut rep, &base, &traced);
    s.svc.stop();
    (rep, traced.spans)
}

/// `bsp_<k>_s`: client latency of BSP-engine jobs.
fn kernel_metrics(rep: &mut Report, seen: &Seen) {
    for k in Kernel::ALL {
        let l = seen.latencies(|j| j.k == k && j.engine == "bsp", 1.0);
        rep.put(format!("bsp_{}_s", k.name()), call_time(&l), "s", l.len());
    }
}

fn job_metrics(rep: &mut Report, seen: &Seen) {
    let l = seen.latencies(|_| true, 1e3);
    rep.put("jobs_per_s", l.len() as f64 / seen.wall, "1/s", l.len());
    rep.put("job_p50_ms", median(&l), "ms", l.len());
    rep.put("job_p90_ms", quantile(&l, 0.9), "ms", l.len());
}

/// Scheduler and engine metrics from the traced jobs' `status`.
fn service_layers(rep: &mut Report, seen: &Seen, arcs: u64) {
    let jobs = &seen.jobs;
    let queued: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.status)
        .map(|s| s.0 as f64)
        .collect();
    rep.put(
        "scheduler.queue_wait_p50_ms",
        median(&queued),
        "ms",
        queued.len(),
    );
    rep.put(
        "scheduler.queue_wait_p90_ms",
        quantile(&queued, 0.9),
        "ms",
        queued.len(),
    );
    let wire: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.status.map(|(q, r)| j.latency_s * 1e3 - (q + r) as f64))
        .collect();
    rep.put("server.wire_ms", median(&wire), "ms", wire.len());
    for k in Kernel::ALL {
        let mut host = [0.0; 2];
        for engine in ENGINES {
            let run: Vec<f64> = jobs
                .iter()
                .filter(|j| j.kind.k == k && j.kind.engine == engine)
                .filter_map(|j| j.status)
                .map(|s| s.1 as f64)
                .collect();
            if run.is_empty() {
                continue;
            }
            let ms = median(&run);
            rep.put(
                format!("engine.{}.{engine}.run_ms", k.wire_name()),
                ms,
                "ms",
                run.len(),
            );
            match engine {
                "bsp" => {
                    host[0] = ms / 1e3;
                    rep.put(format!("bsp.{}.host_s", k.name()), ms / 1e3, "s", run.len());
                }
                "graphct" => {
                    host[1] = ms / 1e3;
                    rep.put(
                        format!("graphct.{}.host_s", k.name()),
                        ms / 1e3,
                        "s",
                        run.len(),
                    );
                    rep.put(
                        format!("graphct.{}.ns_per_arc", k.name()),
                        ms * 1e6 / arcs as f64,
                        "ns/arc",
                        run.len(),
                    );
                }
                _ => {}
            }
        }
        if host[0] > 0.0 && host[1] > 0.0 {
            rep.put(
                format!("ratio.{}.bsp_over_graphct_host", k.name()),
                host[0] / host[1],
                "ratio",
                0,
            );
        }
    }
}

/// Parse and encode cost of this workload's own request and result
/// lines, timed in-process.
fn protocol_layer(rep: &mut Report, refs: &Refs, sources: &[VertexId]) {
    const REPS: usize = 20;
    let mut parse = Vec::new();
    for kind in all_kinds(&ENGINES) {
        let line = submit_line(kind, sources[0]);
        for _ in 0..REPS {
            let (ok, t) = timed(|| sut::parse_request_line(&line));
            assert!(ok, "the benchmark's own request line parses");
            parse.push(t * 1e6);
        }
    }
    rep.put("protocol.parse_us", median(&parse), "us", parse.len());
    let mut encode = Vec::new();
    let mut bytes = Vec::new();
    for k in Kernel::ALL {
        let out = sut::graphct(&refs.g, k, sources[0]);
        for _ in 0..REPS {
            let (line, t) = timed(|| sut::encode_result_line(1, 7, &out));
            encode.push(t * 1e6);
            bytes.push(line.len() as f64);
        }
    }
    rep.put("protocol.encode_us", median(&encode), "us", encode.len());
    rep.put("protocol.result_bytes", median(&bytes), "B", bytes.len());
}

/// A counter of the `stats` op: `path` walks nested objects.
fn stat(conn: &mut Conn, path: &[&str]) -> u64 {
    let resp = conn.call(r#"{"op":"stats"}"#).ok();
    let mut node = resp.as_ref().and_then(|r| sut::field(r, "stats"));
    let (last, inner) = path.split_last().expect("a non-empty path");
    for name in inner {
        node = node.and_then(|n| sut::field(n, name));
    }
    node.and_then(|n| sut::field_u64(n, last)).unwrap_or(0)
}

fn server_layer(rep: &mut Report, conn: &mut Conn) {
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let (r, t) = timed(|| conn.call(r#"{"op":"ping"}"#));
        if r.is_ok() {
            rtt.push(t * 1e6);
        }
    }
    rep.put("server.ping_rtt_us", median(&rtt), "us", rtt.len());
    rep.put(
        "scheduler.rejected",
        stat(conn, &["rejected"]) as f64,
        "count",
        0,
    );
}

/// Tracing overhead: median job latency of the traced half against the
/// untraced half of the same run.
fn overhead(rep: &mut Report, base: &Seen, traced: &Seen) {
    let m = |s: &Seen| median(&s.latencies(|_| true, 1.0));
    rep.put(
        "trace.overhead_pct",
        (m(traced) / m(base) - 1.0) * 100.0,
        "%",
        0,
    );
}

// -------------------------------------------------------------- stream-rw

/// The update pool: `pool_batches` batches of `batch_edges` RMAT-skewed
/// edges, distinct from each other and absent from the base graph.  It is
/// the same for every run seed, so every run's graph takes the same
/// states.
fn update_pool(p: &Params, base: &Csr) -> Vec<Vec<(u64, u64)>> {
    let n = base.num_vertices();
    let want = p.batch_edges * p.pool_batches;
    let mut seen = HashSet::new();
    let mut edges = Vec::with_capacity(want);
    let mut salt = 0;
    while edges.len() < want {
        salt += 1;
        let el = sut::rmat_edges(p.scale, 4, GRAPH_SEED.wrapping_mul(31).wrapping_add(salt));
        for &(u, v) in &el.edges {
            let e = (u.min(v), u.max(v));
            if u != v && e.1 < n && !base.neighbors(e.0).contains(&e.1) && seen.insert(e) {
                edges.push(e);
                if edges.len() == want {
                    break;
                }
            }
        }
    }
    edges.chunks(p.batch_edges).map(|c| c.to_vec()).collect()
}

fn pairs(edges: &[(u64, u64)]) -> String {
    let v: Vec<String> = edges.iter().map(|(u, w)| format!("[{u},{w}]")).collect();
    v.join(",")
}

/// The `c`-th batch of the cycle: insert batch `c mod P`, and once
/// `c >= P/2`, delete batch `(c - P/2) mod P`.  After `c >= P/2` batches
/// the graph is the base plus the last `P/2` inserted batches, so its
/// state depends only on `c mod P` and its edge count is stationary.
fn batch_line(pool: &[Vec<(u64, u64)>], c: usize) -> String {
    let p = pool.len();
    let live = p / 2;
    let delete = if c >= live {
        pairs(&pool[(c - live) % p])
    } else {
        String::new()
    };
    format!(
        r#"{{"op":"update","graph":"{GRAPH}","insert":[{}],"delete":[{delete}]}}"#,
        pairs(&pool[c % p])
    )
}

/// The graph after `c >= P/2` batches, for each `c mod P`.
fn pool_states(base_edges: &sut::EdgeList, pool: &[Vec<(u64, u64)>]) -> Vec<Csr> {
    let p = pool.len();
    let live = p / 2;
    (0..p)
        .map(|s| {
            let mut el = base_edges.clone();
            for j in 1..=live {
                el.edges.extend_from_slice(&pool[(s + p - j) % p]);
            }
            sut::build(&el)
        })
        .collect()
}

/// What the update connection of one phase saw.
#[derive(Default)]
struct Writes {
    /// Ack latency of each applied batch.
    ack_ms: Vec<f64>,
    /// `apply_ns` per edge of each batch (traced phase only).
    apply_us_per_edge: Vec<f64>,
    edge_ops: u64,
    spans: Vec<Span>,
}

/// Closed-loop update batches until `done`, each checked against its
/// exact insert and delete count; `applied` counts batches applied so far.
fn write_loop(
    writer: &mut Conn,
    pool: &[Vec<(u64, u64)>],
    applied: &AtomicU64,
    done: &AtomicBool,
    mut tr: Tracer,
    rep: &mut Report,
) -> Writes {
    let batch = pool[0].len() as u64;
    let mut w = Writes::default();
    let mut seen_epoch = 0;
    let mut batches = 0u64;
    while !done.load(Ordering::SeqCst) || batches == 0 {
        let c = applied.load(Ordering::SeqCst) as usize;
        let line = batch_line(pool, c);
        tr.enter("batch", c as u64);
        let (resp, t) = tr.span("wire.update", c as u64, || timed(|| writer.call(&line)));
        batches += 1;
        let outcome = resp.and_then(|r| {
            w.edge_ops += check_ack(&r, c, batch)?;
            w.ack_ms.push(t * 1e3);
            applied.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let ok = outcome.is_ok();
        rep.attempt(outcome);
        if ok && tr.enabled() && batches.is_multiple_of(UPDATE_TRACE_EVERY) {
            tr.span("wire.update_trace", c as u64, || {
                read_update_trace(writer, &mut seen_epoch, &mut w.apply_us_per_edge)
            });
        }
        tr.exit();
    }
    if tr.enabled() {
        read_update_trace(writer, &mut seen_epoch, &mut w.apply_us_per_edge);
    }
    w.spans = tr.into_spans();
    w
}

/// Check the ack of update batch `c` (of `batch` inserts and as many
/// deletes); `Ok` carries the edges it inserted plus deleted.
fn check_ack(resp: &Content, c: usize, batch: u64) -> Result<u64, String> {
    let u = sut::field(resp, "update").ok_or("update: no outcome")?;
    let ins = sut::field_u64(u, "inserted").unwrap_or(0);
    let del = sut::field_u64(u, "deleted").unwrap_or(0);
    if ins != batch || del != batch {
        return Err(format!(
            "batch {c}: +{ins}/-{del}, expected +{batch}/-{batch}"
        ));
    }
    Ok(ins + del)
}

/// Append `apply_ns` per edge of every batch in the graph's update trace
/// newer than `seen_epoch`.
fn read_update_trace(conn: &mut Conn, seen_epoch: &mut u64, per_edge: &mut Vec<f64>) {
    let line = format!(r#"{{"op":"trace","graph":"{GRAPH}"}}"#);
    let resp = conn.call(&line).ok();
    let Some(Content::Seq(updates)) = resp
        .as_ref()
        .and_then(|r| sut::field(r, "trace"))
        .and_then(|t| sut::field(t, "updates"))
    else {
        return;
    };
    let newest = *seen_epoch;
    for u in updates {
        let get = |name| sut::field_u64(u, name).unwrap_or(0);
        let edges = get("inserted") + get("deleted");
        if get("epoch") > newest && edges > 0 {
            per_edge.push(get("apply_ns") as f64 / 1e3 / edges as f64);
            *seen_epoch = (*seen_epoch).max(get("epoch"));
        }
    }
}

/// Edge count of the registered graph, from `list_graphs`.
fn edges_now(conn: &mut Conn) -> f64 {
    let resp = conn.call(r#"{"op":"list_graphs"}"#).ok();
    let edges = match resp.as_ref().and_then(|r| sut::field(r, "graphs")) {
        Some(Content::Seq(gs)) => gs.first().and_then(|g| sut::field_u64(g, "edges")),
        _ => None,
    };
    edges.unwrap_or(0) as f64
}

/// The reads of `stream-rw` alternate between these, in turn, and a full
/// recompute on a fresh snapshot drawn from {cc, bfs, pagerank,
/// triangles} x {bsp, graphct}.
const STREAM_READS: [Kind; 3] = [
    Kind {
        k: Kernel::Cc,
        engine: "incremental",
    },
    Kind {
        k: Kernel::Cc,
        engine: "native",
    },
    Kind {
        k: Kernel::Tc,
        engine: "incremental",
    },
];

pub fn stream_rw(p: &Params, args: &Args) -> (Report, Vec<Vec<Span>>) {
    let mut rep = Report::default();
    let s = setup(p, true);
    let base_edges = sut::rmat_edges(p.scale, p.edge_factor, GRAPH_SEED);
    let base = sut::build(&base_edges);
    let pool = update_pool(p, &base);
    let sources = pick_sources(&base, p.sources, args.seed);
    let states: Vec<Refs> = pool_states(&base_edges, &pool)
        .into_iter()
        .map(|g| Refs::new(g, &sources))
        .collect();

    // Warm up: the first P/2 batches only insert.
    let live = pool.len() / 2;
    let mut writer = s.svc.connect();
    for c in 0..live {
        writer
            .call(&batch_line(&pool, c))
            .expect("warm-up batch applies");
    }
    let applied = AtomicU64::new(live as u64);
    let epoch = Instant::now();
    let inject = AtomicBool::new(args.inject_fault);

    // With `quiet`, the writer pauses and the reader submits BSP jobs
    // only.
    let phase = |rep: &mut Report,
                 writer: &mut Conn,
                 seconds: f64,
                 traced: bool,
                 salt: u64,
                 quiet: bool| {
        let start = Instant::now();
        let done = AtomicBool::new(false);
        let (reads, read_rep, writes) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut rng = Rng::new(args.seed ^ (salt + 1) << 40);
                let engines: &[&str] = if quiet { &["bsp"] } else { &["bsp", "graphct"] };
                let mut full = Mix::new(all_kinds(engines), Rng::new(rng.next_u64()));
                let mut i = 0;
                let next = || {
                    let kind = if i % 2 == 0 && !quiet {
                        STREAM_READS[i / 2 % STREAM_READS.len()]
                    } else {
                        full.next()
                    };
                    i += 1;
                    (kind, rng.below(sources.len() as u64) as usize)
                };
                // The job saw the graph after some batch count from just
                // before its submit to one past its result (one batch is
                // in flight at a time).
                let check = |kind, src, out: &Output, lo: usize| {
                    let hi = applied.load(Ordering::SeqCst) as usize + 1;
                    let mut last = Ok(());
                    for c in lo..=hi {
                        last = states[c % states.len()].check(kind, src, &sources, out);
                        if last.is_ok() {
                            break;
                        }
                    }
                    last
                };
                let mark = || applied.load(Ordering::SeqCst) as usize;
                let mut rep = Report::default();
                let seen = client_loop(
                    &s.svc, traced, epoch, start, seconds, &sources, &mut rep, &inject, next, mark,
                    check,
                );
                done.store(true, Ordering::SeqCst);
                (seen, rep)
            });
            let mut write_rep = Report::default();
            let writes = if quiet {
                Writes::default()
            } else {
                let tr = Tracer::new(traced, epoch);
                write_loop(writer, &pool, &applied, &done, tr, &mut write_rep)
            };
            let (seen, mut read_rep) = reader.join().expect("reader thread panicked");
            read_rep.absorb(write_rep);
            (seen, read_rep, writes)
        });
        rep.absorb(read_rep);
        (reads, writes, secs(start))
    };

    if !args.trace {
        // As in `service-mix`: the reads beside the update stream give the
        // job and update metrics; a quiet phase after it, with the writer
        // paused, gives the per-kernel latencies without a batch sharing
        // the cores.
        let (reads, writes, wall) = phase(
            &mut rep,
            &mut writer,
            args.seconds * MIXED_SHARE,
            false,
            0,
            false,
        );
        // The quiet phase always reads the same graph state: the one after
        // a whole number of pool cycles.  (PageRank's convergence, and so
        // its time, differs between states by up to 2x.)
        let batch = pool[0].len() as u64;
        loop {
            let c = applied.load(Ordering::SeqCst) as usize;
            if c.is_multiple_of(pool.len()) {
                break;
            }
            let ack = writer.call(&batch_line(&pool, c));
            rep.attempt(ack.and_then(|r| check_ack(&r, c, batch)).map(|_| ()));
            applied.fetch_add(1, Ordering::SeqCst);
        }
        let seconds = args.seconds * (1.0 - MIXED_SHARE);
        let (quiet, _, _) = phase(&mut rep, &mut writer, seconds, false, 2, true);
        rep.put("setup_s", median(&s.setup_s), "s", s.setup_s.len());
        // The heap grows with the jobs the scheduler keeps, so this is the
        // peak of the whole run.
        rep.put("peak_heap_mb", peak_heap_mb(), "MiB", 0);
        kernel_metrics(&mut rep, &quiet);
        job_metrics(&mut rep, &reads);
        let acks = &writes.ack_ms;
        rep.put(
            "edge_ops_per_s",
            writes.edge_ops as f64 / wall,
            "1/s",
            acks.len(),
        );
        rep.put("update_p90_ms", quantile(acks, 0.9), "ms", acks.len());
        drop(writer);
        s.svc.stop();
        return (rep, Vec::new());
    }

    let half = args.seconds / 2.0;
    let (base_reads, _, _) = phase(&mut rep, &mut writer, half, false, 0, false);
    let edges_before = edges_now(&mut writer);
    let (mut reads, writes, _) = phase(&mut rep, &mut writer, half, true, 1, false);
    let edges_after = edges_now(&mut writer);

    reads.put_bsp_layers(&mut rep, base.num_vertices());
    service_layers(&mut rep, &reads, states[0].g.num_arcs());
    protocol_layer(&mut rep, &states[0], &sources);
    let per_edge = &writes.apply_us_per_edge;
    rep.put(
        "registry.apply_us_per_edge",
        median(per_edge),
        "us",
        per_edge.len(),
    );
    let admit: Vec<f64> = reads
        .jobs
        .iter()
        .filter(|j| j.kind.engine != "incremental")
        .map(|j| j.submit_s * 1e3)
        .collect();
    rep.put("registry.admit_ms", median(&admit), "ms", admit.len());
    let drift = (edges_after - edges_before) / edges_before * 100.0;
    rep.put("registry.edges_drift_pct", drift, "%", 0);
    let live_epochs = stat(&mut writer, &["registry", "snapshot_epochs_live"]);
    rep.put(
        "registry.snapshot_epochs_live",
        live_epochs as f64,
        "count",
        0,
    );
    let inc = reads.latencies(|j| j.engine == "incremental", 1e3);
    rep.put("streaming.incremental_ms", median(&inc), "ms", inc.len());
    let cc =
        |engine: &str| median(&reads.latencies(|j| j.k == Kernel::Cc && j.engine == engine, 1.0));
    let ratio = cc("native") / cc("incremental");
    rep.put("ratio.native_cc_over_incremental_cc", ratio, "ratio", 0);
    server_layer(&mut rep, &mut writer);
    overhead(&mut rep, &base_reads, &reads);
    drop(writer);
    s.svc.stop();
    reads.spans.push(writes.spans);
    (rep, reads.spans)
}
