//! The untyped pipeline graph and its compiler to a Core-API [`Dag`].
//!
//! The typed stage handles in [`crate::stages`] record nodes here; `compile`
//! then performs the planning the paper describes in §3.1:
//!
//! * **operator fusion** (Fig. 2): a run of stateless transforms joins the
//!   vertex that feeds it — source, window, join or any other — when the
//!   edge is forward, the producer has no other consumer and both have the
//!   same parallelism. The run becomes a typed chain on that vertex's
//!   outbox ([`Dag::fuse`]), which keeps the producer's name: no tasklet and
//!   no queue of its own. A run that cannot fuse (its producer has several
//!   consumers, or the parallelism differs) gets a pass-through
//!   [`TransformP`] host to ride on;
//! * **fan-out** costs no vertex: a processor's output goes to every one of
//!   its out-edges, so a stage with several consumers gets one edge to
//!   each;
//! * **edge selection**: keyed stages get partitioned edges, join build
//!   sides get broadcast high-priority edges, everything else forwards
//!   locally (unicast);
//! * **tenancy**: a vertex whose inputs all share one job is in that job,
//!   so a source put in a job (`StreamStage::in_job`) carries its whole
//!   pipeline there. A vertex fed by several jobs stays in job 0.

use jet_core::dag::{Dag, Edge, KeyHashFn, Kind, Vertex, VertexId};
use jet_core::processor::ProcessorSupplier;
use jet_core::processors::transform::{Link, TransformP};
use jet_core::supplier;
use std::sync::Arc;

/// Factory producing a vertex's processor supplier once the vertex's
/// parallelism is known (sources need it to split their input).
pub type NodeFactory = Arc<dyn Fn(usize) -> ProcessorSupplier + Send + Sync>;

/// How an input edge of a node must be wired.
#[derive(Clone)]
pub enum EdgeSpec {
    /// Local unicast (round-robin) — the default.
    Forward,
    /// Isolated: producer instance i → consumer instance i.
    Isolated,
    /// Partition by key hash (keyed aggregation input).
    Partitioned(KeyHashFn),
    /// Broadcast with an edge priority (hash-join build side: priority -1).
    Broadcast { priority: i32 },
}

pub(crate) struct PInput {
    pub from: usize,
    pub spec: EdgeSpec,
}

pub(crate) enum Op {
    /// A fusable run of stateless stages.
    Transform(Arc<dyn Link>),
    /// Anything else: source, window, join, sink, stateful map.
    Opaque(NodeFactory),
}

pub(crate) struct PNode {
    pub name: String,
    pub op: Op,
    pub kind: Kind,
    /// The job a source is put in; other nodes take their inputs' job.
    pub job: u32,
    pub inputs: Vec<PInput>,
    pub local_parallelism: Option<usize>,
}

/// The mutable pipeline under construction. Typed stage handles share it.
#[derive(Default)]
pub struct PipelineGraph {
    pub(crate) nodes: Vec<PNode>,
}

impl PipelineGraph {
    pub(crate) fn add_node(
        &mut self,
        name: String,
        op: Op,
        inputs: Vec<PInput>,
        kind: Kind,
    ) -> usize {
        self.nodes.push(PNode {
            name,
            op,
            kind,
            job: 0,
            inputs,
            local_parallelism: None,
        });
        self.nodes.len() - 1
    }

    fn consumers_of(&self, node: usize) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&n| self.nodes[n].inputs.iter().any(|i| i.from == node))
            .collect()
    }

    /// Compile to a Core DAG. `default_lp` is the parallelism used where a
    /// stage didn't pin one (sources capture it to split their data).
    pub fn compile(&self, default_lp: usize) -> Result<Dag, String> {
        assert!(default_lp > 0);
        // 1. Fusion: a transform whose one input is a forward edge from a
        //    node with no other consumer and the same parallelism joins the
        //    vertex that node belongs to (its head).
        let n = self.nodes.len();
        let mut head: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let node = &self.nodes[i];
            if let (Op::Transform(_), [input]) = (&node.op, &node.inputs[..]) {
                let up = input.from;
                if matches!(input.spec, EdgeSpec::Forward)
                    && self.consumers_of(up).len() == 1
                    && self.nodes[up].local_parallelism == node.local_parallelism
                {
                    head[i] = head[up];
                }
            }
        }
        // 2. One vertex per head, keeping the head's name, kind and job; the
        //    transforms fused into it ride on its outbox in pipeline order
        //    (an input always has a smaller index than its consumer). A
        //    transform that heads its own vertex gets a pass-through host.
        let mut dag = Dag::new();
        let mut vertex_of: Vec<VertexId> = Vec::with_capacity(n);
        let mut job: Vec<u32> = Vec::with_capacity(n);
        for (i, node) in self.nodes.iter().enumerate() {
            let mut input_jobs = node.inputs.iter().map(|input| job[input.from]);
            job.push(match input_jobs.next() {
                None => node.job,
                Some(j) if input_jobs.all(|k| k == j) => j,
                Some(_) => 0,
            });
            let v = if head[i] == i {
                let lp = node.local_parallelism.unwrap_or(default_lp);
                dag.push(Vertex {
                    name: node.name.clone(),
                    kind: node.kind,
                    job: job[i],
                    local_parallelism: Some(lp),
                    supplier: match &node.op {
                        Op::Opaque(factory) => factory(lp),
                        Op::Transform(_) => supplier(|_| Box::new(TransformP)),
                    },
                    fused: Vec::new(),
                })
            } else {
                vertex_of[head[i]]
            };
            if let Op::Transform(run) = &node.op {
                dag.fuse(v, run.clone());
            }
            vertex_of.push(v);
        }
        // 3. The edges between heads: a fused node's own input is the queue
        //    fusion removed. A vertex's output goes to every one of its
        //    edges, so a stage with several consumers needs nothing more.
        for (i, node) in self.nodes.iter().enumerate() {
            if head[i] == i {
                for (ordinal, input) in node.inputs.iter().enumerate() {
                    let e = Edge::between(vertex_of[input.from], vertex_of[i]).to_ordinal(ordinal);
                    dag.edge(match &input.spec {
                        EdgeSpec::Forward => e,
                        EdgeSpec::Isolated => e.isolated(),
                        EdgeSpec::Partitioned(f) => e.partitioned_raw(f.clone()),
                        EdgeSpec::Broadcast { priority } => e.broadcast().priority(*priority),
                    });
                }
            }
        }
        dag.validate()?;
        Ok(dag)
    }
}
