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
//!   locally (unicast).

use jet_core::dag::{Dag, Edge, KeyHashFn, VertexId};
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

pub(crate) enum PNodeKind {
    /// A fusable run of stateless stages.
    Transform(Arc<dyn Link>),
    /// Anything else: source, window, join, sink, stateful map.
    Opaque(NodeFactory),
}

pub(crate) struct PNode {
    pub name: String,
    pub kind: PNodeKind,
    pub inputs: Vec<PInput>,
    pub local_parallelism: Option<usize>,
    /// Set for streaming sources (diagnostics only).
    pub is_source: bool,
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
        kind: PNodeKind,
        inputs: Vec<PInput>,
        is_source: bool,
    ) -> usize {
        // Tenant tagging is by vertex-name prefix (`job<N>-`, see
        // jet-core::fairness). Users tag the source; downstream stages
        // carry hardcoded names ("window-accumulate", ...), so inherit the
        // tag here — when every input belongs to the same tenant, the new
        // node does too. Multi-tenant joins stay in the shared pool.
        let name = if jet_core::job_tag(&name).is_none() {
            let tags: Vec<Option<&str>> = inputs
                .iter()
                .map(|i| {
                    let from = &self.nodes[i.from].name;
                    jet_core::job_tag(from).map(|(_, len)| &from[..len])
                })
                .collect();
            match tags.split_first() {
                Some((Some(tag), rest)) if rest.iter().all(|t| *t == Some(tag)) => {
                    format!("{tag}{name}")
                }
                _ => name,
            }
        } else {
            name
        };
        self.nodes.push(PNode {
            name,
            kind,
            inputs,
            local_parallelism: None,
            is_source,
        });
        self.nodes.len() - 1
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of source stages (diagnostics).
    pub fn source_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_source).count()
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
            if let (PNodeKind::Transform(_), [input]) = (&node.kind, &node.inputs[..]) {
                let up = input.from;
                if matches!(input.spec, EdgeSpec::Forward)
                    && self.consumers_of(up).len() == 1
                    && self.nodes[up].local_parallelism == node.local_parallelism
                {
                    head[i] = head[up];
                }
            }
        }
        // 2. One vertex per head, keeping the head's name; the transforms
        //    fused into it ride on its outbox in pipeline order (an input
        //    always has a smaller index than its consumer). A transform
        //    that heads its own vertex gets a pass-through host.
        let mut dag = Dag::new();
        let mut vertex_of: Vec<VertexId> = Vec::with_capacity(n);
        for (i, node) in self.nodes.iter().enumerate() {
            let v = if head[i] == i {
                let lp = node.local_parallelism.unwrap_or(default_lp);
                let sup: ProcessorSupplier = match &node.kind {
                    PNodeKind::Opaque(factory) => factory(lp),
                    PNodeKind::Transform(_) => supplier(|_| Box::new(TransformP)),
                };
                dag.vertex_with_parallelism(node.name.clone(), lp, sup)
            } else {
                vertex_of[head[i]]
            };
            if let PNodeKind::Transform(run) = &node.kind {
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
