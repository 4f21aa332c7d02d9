//! The system under test: every call the benchmark makes into the
//! repository goes through this module.
//!
//! Each function is a thin pass-through to the least-wrapped public entry
//! point of one layer, so a change to the program's API touches only this
//! file.  The rest of the benchmark sees plain vectors and numbers.

use std::sync::Arc;
use std::thread::JoinHandle;

use serde::Content;
use xmt_bsp::algorithms::bfs::BfsProgram;
use xmt_bsp::algorithms::components::CcProgram;
use xmt_bsp::algorithms::pagerank::PagerankProgram;
use xmt_bsp::algorithms::triangles::TcProgram;
use xmt_bsp::algorithms::{
    bsp_bfs_with_config, bsp_connected_components_with_config, bsp_count_triangles_with_config,
};
use xmt_bsp::runtime::SuperstepStats;
use xmt_bsp::{run_bsp_slice_exec, BspConfig, BspResult, SuperstepFrame, VertexProgram};
use xmt_par::pool::Pool;
use xmt_par::Executor;

pub use xmt_graph::{Csr, EdgeList, VertexId};
pub use xmt_model::Recorder;
pub use xmt_trace::{SuperstepTrace, TraceSink};

/// Processor count the model predictions are made for (the paper's
/// headline machine).
pub const MODEL_PROCS: usize = 128;

/// Superstep cap for BSP PageRank, as the paper artifact bins run it.
const PAGERANK_MAX_SUPERSTEPS: u64 = 500;

/// The four kernels of the paper suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Cc,
    Bfs,
    Pagerank,
    Tc,
}

impl Kernel {
    pub const ALL: [Kernel; 4] = [Kernel::Cc, Kernel::Bfs, Kernel::Pagerank, Kernel::Tc];

    /// Short name used in metric names (`bsp_<k>_s`, `bsp.<k>.*`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Cc => "cc",
            Kernel::Bfs => "bfs",
            Kernel::Pagerank => "pagerank",
            Kernel::Tc => "tc",
        }
    }

    /// The algorithm's name on the wire.
    pub fn wire_name(self) -> &'static str {
        match self {
            Kernel::Tc => "triangles",
            other => other.name(),
        }
    }
}

/// A kernel's result, in the shape the checks need.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    Labels(Vec<VertexId>),
    Bfs {
        dist: Vec<u64>,
        parent: Vec<VertexId>,
    },
    Ranks(Vec<f64>),
    Triangles(u64),
}

// ---------------------------------------------------------------- graph

/// Graph500 RMAT edges (a/b/c/d = 0.57/0.19/0.19/0.05).
pub fn rmat_edges(scale: u32, edge_factor: u64, seed: u64) -> EdgeList {
    let params = xmt_graph::gen::rmat::RmatParams {
        edge_factor,
        ..xmt_graph::gen::rmat::RmatParams::graph500(scale)
    };
    xmt_graph::gen::rmat::rmat_edges(&params, seed)
}

/// A `rows` x `cols` 4-neighbour grid.
pub fn grid_edges(rows: u64, cols: u64) -> EdgeList {
    xmt_graph::gen::structured::grid(rows, cols)
}

/// Undirected simple CSR (dedup, no self loops, sorted adjacency).
pub fn build(edges: &EdgeList) -> Csr {
    xmt_graph::builder::build_undirected(edges)
}

/// The paper's BFS source: a low-degree vertex of the giant component.
pub fn pick_bfs_source(g: &Csr) -> VertexId {
    xmt_bench::pick_bfs_source(g)
}

// ------------------------------------------------------------- validate

/// Graph500-style BFS tree check.
pub fn validate_bfs(
    g: &Csr,
    source: VertexId,
    dist: &[u64],
    parent: &[VertexId],
) -> Result<(), String> {
    xmt_graph::validate::validate_bfs(g, source, dist, parent).map_err(|e| e.to_string())
}

/// Component-labelling check.
pub fn validate_components(g: &Csr, labels: &[VertexId]) -> Result<(), String> {
    xmt_graph::validate::validate_components(g, labels).map_err(|e| e.to_string())
}

/// Serial reference labels (smallest vertex id per component).
pub fn reference_components(g: &Csr) -> Vec<VertexId> {
    xmt_graph::validate::reference_components(g)
}

/// Serial reference BFS distances.
pub fn reference_bfs(g: &Csr, source: VertexId) -> Vec<u64> {
    xmt_graph::validate::reference_bfs(g, source).0
}

/// Serial reference triangle count.
pub fn reference_triangles(g: &Csr) -> u64 {
    xmt_graph::validate::reference_triangles(g)
}

// ------------------------------------------------------------------ bsp

fn stats_of<S>(r: &BspResult<S>) -> Vec<SuperstepStats> {
    r.superstep_stats.clone()
}

/// A BSP kernel through its plain `*_with_config` entry point on the
/// default config and the fixed executor, charging `rec` when given.
pub fn bsp(
    g: &Csr,
    k: Kernel,
    source: VertexId,
    rec: Option<&mut Recorder>,
) -> (Output, Vec<SuperstepStats>) {
    let config = BspConfig::default();
    match k {
        Kernel::Cc => {
            let r = bsp_connected_components_with_config(g, config, rec);
            (Output::Labels(r.states.clone()), stats_of(&r))
        }
        Kernel::Bfs => {
            let out = bsp_bfs_with_config(g, source, config, rec);
            let o = Output::Bfs {
                dist: out.dist(),
                parent: out.parent(),
            };
            (o, stats_of(&out.result))
        }
        Kernel::Pagerank => {
            let r = xmt_bsp::algorithms::pagerank::bsp_pagerank_with_config(
                g,
                PagerankProgram::default(),
                PAGERANK_MAX_SUPERSTEPS,
                config,
                rec,
            );
            let stats = stats_of(&r);
            (Output::Ranks(r.states), stats)
        }
        Kernel::Tc => {
            let r = bsp_count_triangles_with_config(g, config, rec);
            (Output::Triangles(r.states.iter().sum()), stats_of(&r))
        }
    }
}

/// An executor over a private pool of `workers` threads, fixed chunks.
pub fn executor(workers: usize) -> Executor {
    Executor::fixed_on(Arc::new(Pool::new(workers)))
}

/// The global-pool fixed executor the plain entry points use.
pub fn default_executor() -> Executor {
    Executor::fixed()
}

/// The same BSP kernel through the one runtime entry point that takes a
/// trace sink and an explicit executor.  With `Executor::fixed()` and the
/// default config this is exactly what [`bsp`] runs.
pub fn bsp_exec(
    g: &Csr,
    k: Kernel,
    source: VertexId,
    rec: Option<&mut Recorder>,
    sink: Option<&mut TraceSink>,
    exec: &Executor,
) -> (Output, Vec<SuperstepStats>) {
    fn go<P: VertexProgram>(
        g: &Csr,
        p: &P,
        config: BspConfig,
        rec: Option<&mut Recorder>,
        sink: Option<&mut TraceSink>,
        exec: &Executor,
    ) -> BspResult<P::State> {
        let mut frame = SuperstepFrame::new();
        run_bsp_slice_exec(g, p, config, rec, None, None, sink, &mut frame, exec)
            .expect("a fresh run takes no checkpoint, so it cannot be rejected")
            .result
    }
    let config = BspConfig::default();
    match k {
        Kernel::Cc => {
            let r = go(g, &CcProgram, config, rec, sink, exec);
            (Output::Labels(r.states.clone()), stats_of(&r))
        }
        Kernel::Bfs => {
            let r = go(g, &BfsProgram { source }, config, rec, sink, exec);
            let o = Output::Bfs {
                dist: r.states.iter().map(|s| s.dist).collect(),
                parent: r.states.iter().map(|s| s.parent).collect(),
            };
            (o, stats_of(&r))
        }
        Kernel::Pagerank => {
            let config = BspConfig {
                max_supersteps: PAGERANK_MAX_SUPERSTEPS,
                ..config
            };
            let r = go(g, &PagerankProgram::default(), config, rec, sink, exec);
            let stats = stats_of(&r);
            (Output::Ranks(r.states), stats)
        }
        Kernel::Tc => {
            let r = go(g, &TcProgram, config, rec, sink, exec);
            (Output::Triangles(r.states.iter().sum()), stats_of(&r))
        }
    }
}

/// Finished trace records of a sink.
pub fn trace_records(sink: TraceSink) -> Vec<SuperstepTrace> {
    sink.finish()
}

/// The model's predicted seconds for a recorded run on the paper's
/// 128-processor machine (pinned default parameters).
pub fn predicted_seconds(rec: &Recorder) -> f64 {
    xmt_model::predict_total_seconds(rec, &xmt_model::ModelParams::default(), MODEL_PROCS)
}

/// Memory reads a recorded run charged.
pub fn recorded_reads(rec: &Recorder) -> u64 {
    rec.total().reads
}

// -------------------------------------------------------------- graphct

/// A GraphCT kernel (the default, uninstrumented entry points).
pub fn graphct(g: &Csr, k: Kernel, source: VertexId) -> Output {
    match k {
        Kernel::Cc => Output::Labels(graphct::connected_components(g)),
        Kernel::Bfs => {
            let r = graphct::bfs(g, source);
            Output::Bfs {
                dist: r.dist,
                parent: r.parent,
            }
        }
        Kernel::Pagerank => Output::Ranks(graphct::pagerank(g, Default::default())),
        Kernel::Tc => Output::Triangles(graphct::count_triangles(g)),
    }
}

/// A GraphCT kernel charging `rec`; PageRank has no instrumented form,
/// so it returns `None`.
pub fn graphct_recorded(
    g: &Csr,
    k: Kernel,
    source: VertexId,
    rec: &mut Recorder,
) -> Option<Output> {
    match k {
        Kernel::Cc => Some(Output::Labels(graphct::connected_components_instrumented(
            g, rec,
        ))),
        Kernel::Bfs => {
            let r = graphct::bfs_instrumented(g, source, rec);
            Some(Output::Bfs {
                dist: r.dist,
                parent: r.parent,
            })
        }
        Kernel::Pagerank => None,
        Kernel::Tc => Some(Output::Triangles(graphct::count_triangles_instrumented(
            g, rec,
        ))),
    }
}

// -------------------------------------------------------------- service

/// A server on an ephemeral loopback port, with the default sizing.
pub struct Service {
    addr: String,
    handle: Option<JoinHandle<()>>,
}

impl Service {
    pub fn start() -> Service {
        let server =
            xmt_service::Server::bind("127.0.0.1:0", xmt_service::ServiceConfig::default())
                .expect("bind a loopback port");
        let addr = server.local_addr().to_string();
        Service {
            addr,
            handle: Some(server.spawn()),
        }
    }

    pub fn connect(&self) -> Conn {
        Conn(xmt_service::Client::connect(&self.addr).expect("connect to the local server"))
    }

    /// Send `shutdown` and join the accept thread, which joins every
    /// connection thread and the scheduler's workers.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(h) = self.handle.take() {
            if let Ok(mut c) = xmt_service::Client::connect(&self.addr) {
                let _ = c.request_line(r#"{"op":"shutdown"}"#);
            }
            h.join().expect("server thread panicked");
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// One client connection.
pub struct Conn(xmt_service::Client);

impl Conn {
    /// Send one request line; `Ok` is the response tree of an `ok`
    /// response, `Err` the error code (or transport failure).
    pub fn call(&mut self, line: &str) -> Result<Content, String> {
        let resp = self
            .0
            .request_line(line)
            .map_err(|e| format!("transport: {e}"))?;
        match xmt_service::client::field_str(&resp, "status") {
            Some("ok") => Ok(resp),
            _ => Err(xmt_service::client::field_str(&resp, "code")
                .unwrap_or("no_status")
                .to_string()),
        }
    }
}

/// A response field.
pub fn field<'a>(tree: &'a Content, name: &str) -> Option<&'a Content> {
    xmt_service::client::field(tree, name)
}

/// An unsigned response field.
pub fn field_u64(tree: &Content, name: &str) -> Option<u64> {
    xmt_service::client::field_u64(tree, name)
}

/// A job's result tree (`result` field of a completed `result` response)
/// as an [`Output`].
pub fn wire_output(result: &Content) -> Option<Output> {
    fn u64s(c: &Content) -> Option<Vec<u64>> {
        match c {
            Content::Seq(items) => items
                .iter()
                .map(|x| match x {
                    Content::U64(v) => Some(*v),
                    Content::I64(v) if *v >= 0 => Some(*v as u64),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }
    fn f64s(c: &Content) -> Option<Vec<f64>> {
        match c {
            Content::Seq(items) => items
                .iter()
                .map(|x| match x {
                    Content::F64(v) => Some(*v),
                    Content::U64(v) => Some(*v as f64),
                    Content::I64(v) => Some(*v as f64),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }
    if let Some(l) = field(result, "labels") {
        return u64s(l).map(Output::Labels);
    }
    if let (Some(d), Some(p)) = (field(result, "dist"), field(result, "parent")) {
        return Some(Output::Bfs {
            dist: u64s(d)?,
            parent: u64s(p)?,
        });
    }
    if let Some(r) = field(result, "ranks") {
        return f64s(r).map(Output::Ranks);
    }
    field_u64(result, "triangles").map(Output::Triangles)
}

/// The per-superstep records of a wire `trace` response.
pub fn wire_trace(resp: &Content) -> Vec<SuperstepTrace> {
    let steps = match field(resp, "trace").and_then(|t| field(t, "supersteps")) {
        Some(Content::Seq(s)) => s,
        _ => return Vec::new(),
    };
    steps
        .iter()
        .map(|s| {
            let u = |name| field_u64(s, name).unwrap_or(0);
            SuperstepTrace {
                superstep: u("superstep"),
                active: u("active"),
                messages_sent: u("messages_sent"),
                messages_generated: u("messages_generated"),
                messages_delivered: u("messages_delivered"),
                scan_ns: u("scan_ns"),
                compute_ns: u("compute_ns"),
                exchange_ns: u("exchange_ns"),
                total_ns: u("total_ns"),
                ..SuperstepTrace::default()
            }
        })
        .collect()
}

/// Parse one request line in-process, as the server's connection thread
/// does (JSON decode, then request validation).
pub fn parse_request_line(line: &str) -> bool {
    serde_json::from_str::<Content>(line)
        .ok()
        .map(|tree| xmt_service::parse_request(&tree).is_ok())
        .unwrap_or(false)
}

/// Encode a result response line in-process, as the server does for a
/// completed job; returns the line.
pub fn encode_result_line(job_id: u64, supersteps: u64, out: &Output) -> String {
    use xmt_service::protocol::{ok, output_content};
    let output = match out {
        Output::Labels(l) => xmt_service::JobOutput::Labels(l.clone()),
        Output::Bfs { dist, parent } => xmt_service::JobOutput::Bfs {
            dist: dist.clone(),
            parent: parent.clone(),
        },
        Output::Ranks(r) => xmt_service::JobOutput::Ranks(r.clone()),
        Output::Triangles(t) => xmt_service::JobOutput::Triangles(*t),
    };
    let tree = ok()
        .put("job_id", Content::U64(job_id))
        .put("timed_out", Content::Bool(false))
        .put("supersteps", Content::U64(supersteps))
        .put("result", output_content(&output))
        .done();
    serde_json::to_string(&tree).expect("a response tree always serializes")
}
