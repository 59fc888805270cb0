//! Dataflow job graphs: the workload description every profile —
//! Fixpoint's and each baseline's — is simulated over.
//!
//! A [`JobGraph`] is the simulator-level analog of a Fix computation:
//! content-addressed **objects** (with sizes and initial locations) and
//! **tasks** (pure functions of objects and other tasks' outputs, with
//! explicit CPU/RAM demands — the paper's resource limits — and output
//! sizes, optionally hinted to the scheduler).
//!
//! Workload generators in `fix-workloads` produce graphs; profiles
//! differ only in *how* they place, fetch, and bind — which is exactly
//! the paper's comparison.

use fix_netsim::{NodeId, Time};
use std::collections::HashMap;

/// Identifies a data object in a job graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

/// Identifies a task in a job graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// A data object: size plus (for job inputs) where it initially lives.
#[derive(Debug, Clone)]
pub struct ObjectSpec {
    /// Size in bytes (drives transfer costs and RAM footprints).
    pub size: u64,
    /// Nodes that hold the object before the job starts. Task outputs
    /// start empty and materialize where the task ran.
    pub initial_locations: Vec<NodeId>,
}

/// A task: a deterministic procedure with an explicit footprint.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Objects whose *data* must be at the execution node (the minimum
    /// repository, minus dependency outputs).
    pub inputs: Vec<ObjectId>,
    /// Tasks whose outputs this task consumes (strict encodes).
    pub deps: Vec<TaskId>,
    /// Pure compute time once everything is local.
    pub compute_us: Time,
    /// Cores required while running.
    pub cores: u32,
    /// RAM required while running.
    pub ram: u64,
    /// Actual output size in bytes.
    pub output_size: u64,
    /// Output-size hint visible to the scheduler *before* running
    /// (paper §4.2.2); `None` means unhinted.
    pub output_hint: Option<u64>,
    /// Which function this task invokes. Fixpoint's profile ignores this
    /// (codelets are just data); baseline profiles use it for per-node
    /// cold starts and binary loads.
    pub func: u32,
}

/// A complete workload: objects, tasks, and the task-output objects.
#[derive(Debug, Clone, Default)]
pub struct JobGraph {
    /// All object specs, indexed by [`ObjectId`].
    pub objects: Vec<ObjectSpec>,
    /// All task specs, indexed by [`TaskId`].
    pub tasks: Vec<TaskSpec>,
    /// The output object of each task (same index as `tasks`).
    pub outputs: Vec<ObjectId>,
}

impl JobGraph {
    /// The object produced by `task`.
    pub fn output_of(&self, task: TaskId) -> ObjectId {
        self.outputs[task.0 as usize]
    }

    /// The spec of `task`.
    pub fn task(&self, task: TaskId) -> &TaskSpec {
        &self.tasks[task.0 as usize]
    }

    /// The spec of `object`.
    pub fn object(&self, object: ObjectId) -> &ObjectSpec {
        &self.objects[object.0 as usize]
    }

    /// Tasks with no dependents (the job's results).
    pub fn sinks(&self) -> Vec<TaskId> {
        let mut has_dependent = vec![false; self.tasks.len()];
        for t in &self.tasks {
            for d in &t.deps {
                has_dependent[d.0 as usize] = true;
            }
        }
        (0..self.tasks.len())
            .filter(|i| !has_dependent[*i])
            .map(|i| TaskId(i as u64))
            .collect()
    }

    /// Validates structural sanity: ids in range, every input placed
    /// somewhere (another task's output is a dependency, not an input),
    /// deps acyclic (topological order exists).
    pub fn validate(&self) -> Result<(), String> {
        for (i, t) in self.tasks.iter().enumerate() {
            for o in &t.inputs {
                let Some(spec) = self.objects.get(o.0 as usize) else {
                    return Err(format!("task {i}: input object {} out of range", o.0));
                };
                if spec.initial_locations.is_empty() {
                    return Err(format!("task {i}: input object {} has no location", o.0));
                }
            }
            for d in &t.deps {
                if d.0 as usize >= self.tasks.len() {
                    return Err(format!("task {i}: dep task {} out of range", d.0));
                }
            }
        }
        if self.outputs.len() != self.tasks.len() {
            return Err("outputs/tasks length mismatch".into());
        }
        // Kahn's algorithm for cycle detection.
        let mut indeg = vec![0usize; self.tasks.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            indeg[i] = t.deps.len();
            for d in &t.deps {
                dependents[d.0 as usize].push(i);
            }
        }
        let mut queue: Vec<usize> = (0..self.tasks.len()).filter(|i| indeg[*i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &j in &dependents[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if seen != self.tasks.len() {
            return Err("dependency cycle detected".into());
        }
        Ok(())
    }

    /// Total bytes of all initially-placed input objects.
    pub fn total_input_bytes(&self) -> u64 {
        self.objects
            .iter()
            .filter(|o| !o.initial_locations.is_empty())
            .map(|o| o.size)
            .sum()
    }
}

/// Incrementally builds a [`JobGraph`].
#[derive(Debug, Default)]
pub struct JobGraphBuilder {
    graph: JobGraph,
    /// Dedup of identical input objects by (size, location) label.
    interned: HashMap<(u64, String), ObjectId>,
}

impl JobGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> JobGraphBuilder {
        JobGraphBuilder::default()
    }

    /// Adds an input object resident at `locations`.
    pub fn object_at(&mut self, size: u64, locations: &[NodeId]) -> ObjectId {
        let id = ObjectId(self.graph.objects.len() as u64);
        self.graph.objects.push(ObjectSpec {
            size,
            initial_locations: locations.to_vec(),
        });
        id
    }

    /// Adds (or reuses) a shared input object identified by a label —
    /// models content addressing: the same named datum is one object.
    pub fn shared_object(&mut self, size: u64, label: &str, locations: &[NodeId]) -> ObjectId {
        if let Some(&id) = self.interned.get(&(size, label.to_string())) {
            return id;
        }
        let id = self.object_at(size, locations);
        self.interned.insert((size, label.to_string()), id);
        id
    }

    /// Adds a task, returning its id. The output object is created
    /// automatically with the task's `output_size`.
    pub fn task(&mut self, spec: TaskSpec) -> TaskId {
        let tid = TaskId(self.graph.tasks.len() as u64);
        let out = ObjectId(self.graph.objects.len() as u64);
        self.graph.objects.push(ObjectSpec {
            size: spec.output_size,
            initial_locations: Vec::new(),
        });
        self.graph.tasks.push(spec);
        self.graph.outputs.push(out);
        tid
    }

    /// Finishes the graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph fails validation — builders are programming
    /// errors, not runtime conditions.
    pub fn build(self) -> JobGraph {
        // invariant: the documented contract — a malformed graph panics.
        self.graph.validate().expect("valid job graph");
        self.graph
    }
}

/// Convenience constructor for a [`TaskSpec`] with 1 core and small RAM.
pub fn small_task(compute_us: Time, output_size: u64) -> TaskSpec {
    TaskSpec {
        inputs: Vec::new(),
        deps: Vec::new(),
        compute_us,
        cores: 1,
        ram: 64 << 20,
        output_size,
        output_hint: None,
        func: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_ids_and_outputs() {
        let mut b = JobGraphBuilder::new();
        let o = b.object_at(100, &[NodeId(0)]);
        let mut spec = small_task(10, 8);
        spec.inputs.push(o);
        let t = b.task(spec);
        let g = b.build();
        assert_eq!(g.tasks.len(), 1);
        assert_eq!(g.objects.len(), 2);
        assert_eq!(g.output_of(t).0, 1);
        assert_eq!(g.object(g.output_of(t)).size, 8);
        assert_eq!(g.sinks(), vec![t]);
    }

    #[test]
    fn shared_objects_are_interned() {
        let mut b = JobGraphBuilder::new();
        let a = b.shared_object(100, "libc", &[NodeId(0)]);
        let c = b.shared_object(100, "libc", &[NodeId(0)]);
        let d = b.shared_object(100, "libm", &[NodeId(0)]);
        assert_eq!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn cycles_are_rejected() {
        // Hand-build a cyclic graph (builder can't make one).
        let g = JobGraph {
            objects: vec![
                ObjectSpec {
                    size: 1,
                    initial_locations: vec![],
                },
                ObjectSpec {
                    size: 1,
                    initial_locations: vec![],
                },
            ],
            tasks: vec![
                TaskSpec {
                    deps: vec![TaskId(1)],
                    ..small_task(1, 1)
                },
                TaskSpec {
                    deps: vec![TaskId(0)],
                    ..small_task(1, 1)
                },
            ],
            outputs: vec![ObjectId(0), ObjectId(1)],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn out_of_range_ids_rejected() {
        let g = JobGraph {
            objects: vec![],
            tasks: vec![TaskSpec {
                inputs: vec![ObjectId(5)],
                ..small_task(1, 1)
            }],
            outputs: vec![ObjectId(0)],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn sinks_of_reduction_tree() {
        let mut b = JobGraphBuilder::new();
        let leaves: Vec<TaskId> = (0..4).map(|_| b.task(small_task(1, 8))).collect();
        let m1 = b.task(TaskSpec {
            deps: vec![leaves[0], leaves[1]],
            ..small_task(1, 8)
        });
        let m2 = b.task(TaskSpec {
            deps: vec![leaves[2], leaves[3]],
            ..small_task(1, 8)
        });
        let root = b.task(TaskSpec {
            deps: vec![m1, m2],
            ..small_task(1, 8)
        });
        let g = b.build();
        assert_eq!(g.sinks(), vec![root]);
    }
}
