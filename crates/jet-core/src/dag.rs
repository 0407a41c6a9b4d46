//! The Core API's DAG: vertices (operators) connected by edges with
//! explicit routing, priority and queue sizing (paper §2.2).

use crate::object::Object;
use crate::processor::{Chain, ProcessorSupplier};
use crate::processors::transform::Link;
use std::sync::Arc;

/// Index of a vertex within its DAG.
pub type VertexId = usize;

/// Key-hash extractor for partitioned edges: maps an event payload to the
/// stable hash of its partitioning key.
pub type KeyHashFn = Arc<dyn Fn(&dyn Object) -> u64 + Send + Sync>;

/// How events on an edge are routed to the consumer's parallel instances
/// (§3.1).
#[derive(Clone)]
pub enum Routing {
    /// Any instance may get any item; the engine round-robins for balance.
    Unicast,
    /// Producer instance i feeds exactly consumer instance i (requires equal
    /// parallelism). This is what operator fusion degenerates to when the
    /// planner cannot fuse but wants no reshuffling.
    Isolated,
    /// Route by key hash so all events of one key hit one instance. The
    /// partition space is IMDG's (271 partitions), aligning processing with
    /// state placement (§4.1).
    Partitioned(KeyHashFn),
    /// Every instance receives every item (cloned).
    Broadcast,
}

impl std::fmt::Debug for Routing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Routing::Unicast => write!(f, "Unicast"),
            Routing::Isolated => write!(f, "Isolated"),
            Routing::Partitioned(_) => write!(f, "Partitioned"),
            Routing::Broadcast => write!(f, "Broadcast"),
        }
    }
}

/// Default SPSC queue capacity between two tasklets (Jet's default is 1024).
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// An edge between two vertices.
#[derive(Clone, Debug)]
pub struct Edge {
    pub from: VertexId,
    pub to: VertexId,
    /// Input ordinal at the consumer.
    pub to_ordinal: usize,
    pub routing: Routing,
    /// Lower value = consumed earlier. A vertex finishes all higher-priority
    /// inputs before draining lower-priority ones — how the hash join
    /// consumes its build side before probing (Listing 2).
    pub priority: i32,
    pub queue_capacity: usize,
}

impl Edge {
    /// Unicast edge `from:0 -> to:0`.
    pub fn between(from: VertexId, to: VertexId) -> Edge {
        Edge {
            from,
            to,
            to_ordinal: 0,
            routing: Routing::Unicast,
            priority: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        }
    }

    pub fn to_ordinal(mut self, o: usize) -> Edge {
        self.to_ordinal = o;
        self
    }

    pub fn isolated(mut self) -> Edge {
        self.routing = Routing::Isolated;
        self
    }

    pub fn broadcast(mut self) -> Edge {
        self.routing = Routing::Broadcast;
        self
    }

    /// Partition by a key extracted from the concrete payload type `T`.
    pub fn partitioned_by<T, K, F>(mut self, key_fn: F) -> Edge
    where
        T: 'static,
        K: std::hash::Hash,
        F: Fn(&T) -> K + Send + Sync + 'static,
    {
        self.routing = Routing::Partitioned(Arc::new(move |obj: &dyn Object| {
            let t = crate::object::downcast_ref::<T>(obj);
            jet_util::seq::hash_of(&key_fn(t))
        }));
        self
    }

    /// Partition by an already-computed hash function over the payload.
    pub fn partitioned_raw(mut self, f: KeyHashFn) -> Edge {
        self.routing = Routing::Partitioned(f);
        self
    }

    pub fn priority(mut self, p: i32) -> Edge {
        self.priority = p;
        self
    }

    pub fn queue_capacity(mut self, cap: usize) -> Edge {
        self.queue_capacity = cap;
        self
    }
}

/// What a vertex does, as far as anything but its processor needs to know.
/// The simulator's cost model charges by it; the name is only a label.
/// `Sender` and `Receiver` are the network tasklets of a distributed edge
/// (§3.3), which have no vertex of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kind {
    Source,
    WindowAccumulate,
    WindowCombine,
    WindowSingle,
    Sink,
    Sender,
    Receiver,
    #[default]
    Other,
}

impl Kind {
    /// Number of kinds, for tables indexed by `kind as usize`.
    pub const COUNT: usize = Kind::Other as usize + 1;
}

/// A vertex: name + kind + tenant job + parallelism + processor factory,
/// and the stateless stages fused onto its outbox.
#[derive(Clone)]
pub struct Vertex {
    /// A label for metrics, traces and dumps, and the key its snapshot
    /// state is stored under; unique within a DAG ([`Dag::push`]). Nothing
    /// decides behaviour or cost by it.
    pub name: String,
    pub kind: Kind,
    /// Tenant job for per-job scheduling quotas (§7.7); 0 is the shared
    /// pool.
    pub job: u32,
    /// Parallel instances per member; `None` = one per cooperative thread
    /// (Jet's default — "deploys the complete dataflow graph on every
    /// available CPU core", §3.1).
    pub local_parallelism: Option<usize>,
    pub supplier: ProcessorSupplier,
    /// Operator fusion (§3.1, Fig. 2): runs of stateless stages, in order,
    /// that every event the processor emits goes through inside its outbox
    /// — they cost no tasklet and no queue of their own.
    pub fused: Vec<Arc<dyn Link>>,
}

impl Vertex {
    /// A fresh chain of the fused runs for one processor instance.
    pub fn chain(&self) -> Option<Chain> {
        crate::processors::transform::splice(&self.fused)
    }
}

/// The dataflow graph handed to the execution planner.
#[derive(Default, Clone)]
pub struct Dag {
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
}

impl Dag {
    pub fn new() -> Dag {
        Dag {
            vertices: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add a vertex of kind `Other` in job 0; returns its id.
    pub fn vertex(&mut self, name: impl Into<String>, supplier: ProcessorSupplier) -> VertexId {
        self.push(Vertex {
            name: name.into(),
            kind: Kind::Other,
            job: 0,
            local_parallelism: None,
            supplier,
            fused: Vec::new(),
        })
    }

    /// Add a vertex of kind `Other` in job 0 with explicit local
    /// parallelism.
    pub fn vertex_with_parallelism(
        &mut self,
        name: impl Into<String>,
        local_parallelism: usize,
        supplier: ProcessorSupplier,
    ) -> VertexId {
        assert!(local_parallelism > 0);
        let v = self.vertex(name, supplier);
        self.vertices[v].local_parallelism = Some(local_parallelism);
        v
    }

    /// Add a fully described vertex; returns its id. Names label metrics
    /// and traces and key snapshot state, so a name already taken gets the
    /// first free `-2`, `-3`, … suffix, as Jet's planner does.
    pub fn push(&mut self, mut vertex: Vertex) -> VertexId {
        let taken = |name: &str| self.vertices.iter().any(|v| v.name == name);
        if taken(&vertex.name) {
            let mut free = (2..).map(|n| format!("{}-{n}", vertex.name));
            vertex.name = free.find(|name| !taken(name)).expect("unbounded");
        }
        self.vertices.push(vertex);
        self.vertices.len() - 1
    }

    /// Fuse `run` onto the outbox of vertex `v`, behind the runs fused there
    /// before (see [`Vertex::fused`]).
    pub fn fuse(&mut self, v: VertexId, run: Arc<dyn Link>) {
        self.vertices[v].fused.push(run);
    }

    pub fn edge(&mut self, e: Edge) {
        assert!(e.from < self.vertices.len(), "edge.from out of range");
        assert!(e.to < self.vertices.len(), "edge.to out of range");
        self.edges.push(e);
    }

    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Input edges of `v`, sorted by input ordinal.
    pub fn in_edges(&self, v: VertexId) -> Vec<&Edge> {
        let mut es: Vec<&Edge> = self.edges.iter().filter(|e| e.to == v).collect();
        es.sort_by_key(|e| e.to_ordinal);
        es
    }

    /// Output edges of `v`, in the order they were added. A processor's
    /// output goes to all of them; the tasklet's outbox has one buffer per
    /// edge, in this order.
    pub fn out_edges(&self, v: VertexId) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.from == v).collect()
    }

    /// Validate the graph: acyclic, dense input ordinals, isolated-edge
    /// parallelism compatibility. Returns a topological order.
    pub fn validate(&self) -> Result<Vec<VertexId>, String> {
        // Input ordinal density per vertex.
        for v in 0..self.vertices.len() {
            for (i, e) in self.in_edges(v).iter().enumerate() {
                if e.to_ordinal != i {
                    return Err(format!(
                        "vertex '{}': input ordinals not dense (missing ordinal {i})",
                        self.vertices[v].name
                    ));
                }
            }
        }
        // Isolated edges need equal parallelism (when both set explicitly).
        for e in &self.edges {
            if matches!(e.routing, Routing::Isolated) {
                let (a, b) = (
                    self.vertices[e.from].local_parallelism,
                    self.vertices[e.to].local_parallelism,
                );
                if let (Some(a), Some(b)) = (a, b) {
                    if a != b {
                        return Err(format!(
                            "isolated edge '{}'->'{}' requires equal parallelism ({a} != {b})",
                            self.vertices[e.from].name, self.vertices[e.to].name
                        ));
                    }
                }
            }
        }
        // Kahn's algorithm for cycle detection.
        let n = self.vertices.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.to] += 1;
        }
        let mut queue: Vec<VertexId> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for e in &self.edges {
                if e.from == v {
                    indegree[e.to] -= 1;
                    if indegree[e.to] == 0 {
                        queue.push(e.to);
                    }
                }
            }
        }
        if order.len() != n {
            return Err("DAG contains a cycle".into());
        }
        Ok(order)
    }
}

impl std::fmt::Debug for Dag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Dag {{")?;
        for (i, v) in self.vertices.iter().enumerate() {
            writeln!(f, "  [{i}] {} (lp={:?})", v.name, v.local_parallelism)?;
        }
        for e in &self.edges {
            writeln!(
                f,
                "  {} -> {}:{} {:?}{}",
                self.vertices[e.from].name,
                self.vertices[e.to].name,
                e.to_ordinal,
                e.routing,
                if e.priority != 0 {
                    format!(" prio={}", e.priority)
                } else {
                    String::new()
                },
            )?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::{supplier, Inbox, Outbox, Processor, ProcessorContext};

    struct Nop;
    impl Processor for Nop {
        fn process(&mut self, _: usize, _: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {}
    }

    fn nop() -> ProcessorSupplier {
        supplier(|_| Box::new(Nop))
    }

    #[test]
    fn build_linear_dag_and_validate() {
        let mut dag = Dag::new();
        let a = dag.vertex("src", nop());
        let b = dag.vertex("map", nop());
        let c = dag.vertex("sink", nop());
        dag.edge(Edge::between(a, b));
        dag.edge(Edge::between(b, c));
        let order = dag.validate().unwrap();
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn a_taken_name_gets_the_first_free_suffix() {
        let mut dag = Dag::new();
        for name in ["w", "w", "w-2", "w"] {
            dag.vertex(name, nop());
        }
        let names: Vec<&str> = dag.vertices().iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["w", "w-2", "w-2-2", "w-3"]);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut dag = Dag::new();
        let a = dag.vertex("a", nop());
        let b = dag.vertex("b", nop());
        dag.edge(Edge::between(a, b));
        dag.edge(Edge::between(b, a));
        assert!(dag.validate().unwrap_err().contains("cycle"));
    }

    #[test]
    fn sparse_ordinals_rejected() {
        let mut dag = Dag::new();
        let a = dag.vertex("a", nop());
        let b = dag.vertex("b", nop());
        dag.edge(Edge::between(a, b).to_ordinal(1));
        assert!(dag.validate().unwrap_err().contains("ordinals"));
    }

    #[test]
    fn isolated_edge_parallelism_mismatch_rejected() {
        let mut dag = Dag::new();
        let a = dag.vertex_with_parallelism("a", 2, nop());
        let b = dag.vertex_with_parallelism("b", 3, nop());
        dag.edge(Edge::between(a, b).isolated());
        assert!(dag.validate().unwrap_err().contains("isolated"));
    }

    #[test]
    fn in_out_edges_sorted_by_ordinal() {
        let mut dag = Dag::new();
        let a = dag.vertex("a", nop());
        let b = dag.vertex("b", nop());
        let j = dag.vertex("join", nop());
        dag.edge(Edge::between(b, j).to_ordinal(1).priority(-1));
        dag.edge(Edge::between(a, j).to_ordinal(0));
        let ins = dag.in_edges(j);
        assert_eq!(ins[0].from, a);
        assert_eq!(ins[1].from, b);
        assert_eq!(ins[1].priority, -1);
        dag.validate().unwrap();
    }

    #[test]
    fn partitioned_edge_hashes_by_key() {
        let e = Edge::between(0, 0).partitioned_by::<(u64, String), _, _>(|t| t.0);
        match e.routing {
            Routing::Partitioned(f) => {
                let a = f(crate::object::boxed((5u64, "x".to_string())).as_ref());
                let b = f(crate::object::boxed((5u64, "y".to_string())).as_ref());
                let c = f(crate::object::boxed((6u64, "x".to_string())).as_ref());
                assert_eq!(a, b, "same key must hash equal");
                assert_ne!(a, c);
            }
            _ => panic!("expected partitioned routing"),
        }
    }
}
