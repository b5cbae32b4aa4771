//! Sweep specifications: the unit a client submits.
//!
//! A [`SweepSpec`] names an instance by *generator reference* (the
//! service rebuilds the instance and derives its content identity — a
//! wrong reference cannot alias a cached result, because the
//! [`vc_engine::SweepId`] digests the rebuilt instance's full content),
//! an algorithm from a small closed registry ([`AlgorithmRef`]), and the
//! run configuration fields that [`vc_model::run::RunConfig`] folds into
//! the sweep identity. [`Priority`] is deliberately *excluded* from the
//! identity: the same sweep submitted interactively must hit the cache
//! entry a batch run produced.

use std::fmt;
use std::path::Path;

use vc_engine::{sweep_identity, CheckpointReport, Engine, EngineError, SweepIdentity};
use vc_graph::{gen, Instance};
use vc_json::{obj, Json, Value};
use vc_model::run::RunConfig;
use vc_model::run::StartSelection;
use vc_model::{Budget, RandomTape};

/// A generator reference resolving to one labeled instance.
///
/// References are *recipes*, not identities: the service rebuilds the
/// instance and lets the content digest speak. Two distinct recipes that
/// build the same labeled graph share a cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceRef {
    /// [`gen::random_full_binary_tree`] — `n` target nodes, seeded.
    FullBinaryTree {
        /// Target node count (rounded to a full binary tree size).
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// [`gen::pseudo_tree`] — a cycle with hanging trees.
    PseudoTree {
        /// Target node count.
        n: usize,
        /// Cycle length.
        cycle: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl InstanceRef {
    /// Builds the referenced instance.
    pub fn build(&self) -> Instance {
        match *self {
            InstanceRef::FullBinaryTree { n, seed } => gen::random_full_binary_tree(n, seed),
            InstanceRef::PseudoTree { n, cycle, seed } => gen::pseudo_tree(n, cycle, seed),
        }
    }
}

/// One algorithm from the service's closed registry.
///
/// The enum erases the solver's output type: everything the service
/// needs — identity folding and checkpointed execution — goes through
/// the engine's type-erased checkpoint path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmRef {
    /// `leaf-coloring/distance`: the deterministic distance solver.
    LeafDistance,
    /// `leaf-coloring/rw-to-leaf`: the randomized walk with the given
    /// step factor (the registry default is the solver default).
    LeafRandomWalk {
        /// Walk step budget factor (see `RwToLeaf`).
        step_factor: u32,
    },
}

impl AlgorithmRef {
    /// The registry name (`"leaf-coloring/distance"` etc.).
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmRef::LeafDistance => "leaf-coloring/distance",
            AlgorithmRef::LeafRandomWalk { .. } => "leaf-coloring/rw-to-leaf",
        }
    }

    /// Computes the sweep identity this algorithm yields on `inst` with
    /// `config` and the resolved `starts`.
    pub fn identity(&self, inst: &Instance, config: &RunConfig, starts: &[usize]) -> SweepIdentity {
        match *self {
            AlgorithmRef::LeafDistance => sweep_identity(
                inst,
                &vc_core::problems::leaf_coloring::DistanceSolver,
                config,
                starts,
            ),
            AlgorithmRef::LeafRandomWalk { step_factor } => sweep_identity(
                inst,
                &vc_core::problems::leaf_coloring::RwToLeaf { step_factor },
                config,
                starts,
            ),
        }
    }

    /// Runs the sweep through the engine's checkpoint path.
    pub fn run_checkpointed(
        &self,
        engine: &Engine,
        inst: &Instance,
        config: &RunConfig,
        path: &Path,
    ) -> Result<CheckpointReport, EngineError> {
        let starts = config.starts.starts(inst.n())?;
        let identity = self.identity(inst, config, &starts);
        self.run_as(engine, inst, config, identity, path)
    }

    /// [`AlgorithmRef::run_checkpointed`] on its [`AlgorithmRef::identity`].
    pub(crate) fn run_as(
        &self,
        engine: &Engine,
        inst: &Instance,
        config: &RunConfig,
        identity: SweepIdentity,
        path: &Path,
    ) -> Result<CheckpointReport, EngineError> {
        match *self {
            AlgorithmRef::LeafDistance => engine.run_recorded_as(
                inst,
                &vc_core::problems::leaf_coloring::DistanceSolver,
                config,
                identity,
                path,
            ),
            AlgorithmRef::LeafRandomWalk { step_factor } => engine.run_recorded_as(
                inst,
                &vc_core::problems::leaf_coloring::RwToLeaf { step_factor },
                config,
                identity,
                path,
            ),
        }
    }
}

/// Scheduling priority. Not part of the sweep identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Default: runs in submission order behind other batch jobs.
    Batch,
    /// Jumps the queue and preempts a running batch job between its
    /// starts.
    Interactive,
}

/// One submittable sweep: instance recipe, algorithm, run configuration
/// and scheduling priority.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// Instance recipe.
    pub instance: InstanceRef,
    /// Algorithm registry entry.
    pub algorithm: AlgorithmRef,
    /// Private randomness tape seed (`None` = deterministic run).
    pub tape_seed: Option<u64>,
    /// Volume budget.
    pub max_volume: Option<usize>,
    /// Distance budget.
    pub max_distance: Option<u32>,
    /// Query budget.
    pub max_queries: Option<u64>,
    /// Whether executions compute the exact distance cost.
    pub exact_distance: bool,
    /// Start-set selection.
    pub starts: StartSelection,
    /// Scheduling priority (excluded from the sweep identity).
    pub priority: Priority,
}

impl SweepSpec {
    /// A batch-priority spec with the default run configuration.
    pub fn new(instance: InstanceRef, algorithm: AlgorithmRef) -> Self {
        let defaults = RunConfig::default();
        Self {
            instance,
            algorithm,
            tape_seed: None,
            max_volume: None,
            max_distance: None,
            max_queries: None,
            exact_distance: defaults.exact_distance,
            starts: StartSelection::All,
            priority: Priority::Batch,
        }
    }

    /// The [`RunConfig`] this spec denotes.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            tape: self.tape_seed.map(RandomTape::private),
            budget: Budget {
                max_volume: self.max_volume,
                max_distance: self.max_distance,
                max_queries: self.max_queries,
            },
            starts: self.starts,
            exact_distance: self.exact_distance,
        }
    }

    /// Encodes the spec as one line of JSON (the wire form).
    pub fn to_json_line(&self) -> String {
        let instance = match self.instance {
            InstanceRef::FullBinaryTree { n, seed } => {
                obj! { "kind": "full-binary-tree", "n": n, "seed": seed }
            }
            InstanceRef::PseudoTree { n, cycle, seed } => {
                obj! { "kind": "pseudo-tree", "n": n, "cycle": cycle, "seed": seed }
            }
        };
        let name = self.algorithm.name();
        let algorithm = match self.algorithm {
            AlgorithmRef::LeafDistance => obj! { "name": name },
            AlgorithmRef::LeafRandomWalk { step_factor } => {
                obj! { "name": name, "step_factor": step_factor }
            }
        };
        let mut spec = obj! { "instance": instance, "algorithm": algorithm };
        // Unset budgets and tape seeds are left out, not written as null.
        for (key, v) in [
            ("tape_seed", self.tape_seed.map(Json::from)),
            ("max_volume", self.max_volume.map(Json::from)),
            ("max_distance", self.max_distance.map(Json::from)),
            ("max_queries", self.max_queries.map(Json::from)),
        ] {
            if let Some(v) = v {
                spec = spec.with(key, v);
            }
        }
        let starts = match self.starts {
            StartSelection::All => Json::from("all"),
            StartSelection::Sample { count, seed } => obj! { "count": count, "seed": seed },
        };
        let priority = match self.priority {
            Priority::Batch => "batch",
            Priority::Interactive => "interactive",
        };
        let spec = spec.with("exact_distance", self.exact_distance);
        vc_json::line(&spec.with("starts", starts).with("priority", priority))
    }

    /// Decodes a spec from its parsed wire form.
    pub fn from_json(v: &Value) -> Result<Self, SpecError> {
        let malformed = |what: &str| SpecError::Malformed(what.to_string());
        let inst = v.get("instance").ok_or_else(|| malformed("instance"))?;
        let kind = inst
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed("instance.kind"))?;
        let num = |obj: &Value, key: &str| -> Result<u64, SpecError> {
            obj.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| SpecError::Malformed(key.to_string()))
        };
        let instance = match kind {
            "full-binary-tree" => InstanceRef::FullBinaryTree {
                n: usize::try_from(num(inst, "n")?).map_err(|_| malformed("instance.n"))?,
                seed: num(inst, "seed")?,
            },
            "pseudo-tree" => InstanceRef::PseudoTree {
                n: usize::try_from(num(inst, "n")?).map_err(|_| malformed("instance.n"))?,
                cycle: usize::try_from(num(inst, "cycle")?)
                    .map_err(|_| malformed("instance.cycle"))?,
                seed: num(inst, "seed")?,
            },
            other => return Err(SpecError::UnknownInstance(other.to_string())),
        };
        let algo = v.get("algorithm").ok_or_else(|| malformed("algorithm"))?;
        let name = algo
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed("algorithm.name"))?;
        let algorithm = match name {
            "leaf-coloring/distance" => AlgorithmRef::LeafDistance,
            "leaf-coloring/rw-to-leaf" => {
                let default_factor =
                    u64::from(vc_core::problems::leaf_coloring::RwToLeaf::default().step_factor);
                let step_factor = match algo.get("step_factor") {
                    Some(sf) => sf
                        .as_u64()
                        .ok_or_else(|| malformed("algorithm.step_factor"))?,
                    None => default_factor,
                };
                AlgorithmRef::LeafRandomWalk {
                    step_factor: u32::try_from(step_factor)
                        .map_err(|_| malformed("algorithm.step_factor"))?,
                }
            }
            other => return Err(SpecError::UnknownAlgorithm(other.to_string())),
        };
        let opt_num = |key: &str| -> Result<Option<u64>, SpecError> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| SpecError::Malformed(key.to_string())),
            }
        };
        let starts = match v.get("starts") {
            None => StartSelection::All,
            Some(Value::Str(s)) if s == "all" => StartSelection::All,
            Some(sample @ Value::Obj(_)) => StartSelection::Sample {
                count: usize::try_from(num(sample, "count")?)
                    .map_err(|_| malformed("starts.count"))?,
                seed: num(sample, "seed")?,
            },
            Some(_) => return Err(malformed("starts")),
        };
        let priority = match v.get("priority").and_then(Value::as_str) {
            None | Some("batch") => Priority::Batch,
            Some("interactive") => Priority::Interactive,
            Some(_) => return Err(malformed("priority")),
        };
        Ok(Self {
            instance,
            algorithm,
            tape_seed: opt_num("tape_seed")?,
            max_volume: opt_num("max_volume")?
                .map(usize::try_from)
                .transpose()
                .map_err(|_| malformed("max_volume"))?,
            max_distance: opt_num("max_distance")?
                .map(u32::try_from)
                .transpose()
                .map_err(|_| malformed("max_distance"))?,
            max_queries: opt_num("max_queries")?,
            exact_distance: match v.get("exact_distance") {
                None => RunConfig::default().exact_distance,
                Some(b) => b.as_bool().ok_or_else(|| malformed("exact_distance"))?,
            },
            starts,
            priority,
        })
    }
}

/// Why a wire spec could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A required field is missing or has the wrong shape.
    Malformed(String),
    /// The algorithm name is not in the registry.
    UnknownAlgorithm(String),
    /// The instance kind is not in the registry.
    UnknownInstance(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Malformed(what) => write!(f, "malformed spec field: {what}"),
            SpecError::UnknownAlgorithm(name) => write!(f, "unknown algorithm: {name}"),
            SpecError::UnknownInstance(kind) => write!(f, "unknown instance kind: {kind}"),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> SweepSpec {
        SweepSpec {
            tape_seed: Some(11),
            max_volume: Some(500),
            starts: StartSelection::Sample { count: 64, seed: 9 },
            priority: Priority::Interactive,
            ..SweepSpec::new(
                InstanceRef::FullBinaryTree { n: 255, seed: 3 },
                AlgorithmRef::LeafRandomWalk { step_factor: 16 },
            )
        }
    }

    #[test]
    fn wire_form_round_trips() {
        let pseudo = SweepSpec::new(
            InstanceRef::PseudoTree {
                n: 100,
                cycle: 8,
                seed: 1,
            },
            AlgorithmRef::LeafDistance,
        );
        let budgeted = SweepSpec {
            max_distance: Some(7),
            max_queries: Some(9),
            exact_distance: false,
            ..pseudo
        };
        let specs = [sample_spec(), pseudo, budgeted];
        let lines = specs.map(|spec| spec.to_json_line());
        let wire = r#"{"instance":{"kind":"full-binary-tree","n":255,"seed":3},"algorithm":{"name":"leaf-coloring/rw-to-leaf","step_factor":16},"tape_seed":11,"max_volume":500,"exact_distance":true,"starts":{"count":64,"seed":9},"priority":"interactive"}
{"instance":{"kind":"pseudo-tree","n":100,"cycle":8,"seed":1},"algorithm":{"name":"leaf-coloring/distance"},"exact_distance":true,"starts":"all","priority":"batch"}
{"instance":{"kind":"pseudo-tree","n":100,"cycle":8,"seed":1},"algorithm":{"name":"leaf-coloring/distance"},"max_distance":7,"max_queries":9,"exact_distance":false,"starts":"all","priority":"batch"}"#;
        assert_eq!(lines.join("\n"), wire);
        for (spec, line) in specs.into_iter().zip(&lines) {
            let parsed = vc_json::parse(line).expect("wire form parses");
            assert_eq!(SweepSpec::from_json(&parsed), Ok(spec));
        }
    }

    #[test]
    fn priority_is_not_part_of_the_identity() {
        let batch = SweepSpec::new(
            InstanceRef::FullBinaryTree { n: 63, seed: 5 },
            AlgorithmRef::LeafDistance,
        );
        let interactive = SweepSpec {
            priority: Priority::Interactive,
            ..batch
        };
        let inst = batch.instance.build();
        let starts: Vec<usize> = (0..inst.n()).collect();
        let a = batch
            .algorithm
            .identity(&inst, &batch.run_config(), &starts);
        let b = interactive
            .algorithm
            .identity(&inst, &interactive.run_config(), &starts);
        assert_eq!(a.sweep_id, b.sweep_id);
    }

    #[test]
    fn seeds_past_2_pow_53_resolve_to_distinct_sweeps() {
        // Read through an f64, 2^53 + 1 used to collapse onto 2^53 and be
        // answered from that sweep's stored result.
        let ids: Vec<vc_engine::SweepId> = [1u64 << 53, (1 << 53) + 1]
            .into_iter()
            .map(|seed| {
                let line = format!(
                    "{{\"instance\":{{\"kind\":\"full-binary-tree\",\"n\":31,\"seed\":{seed}}},\
                     \"algorithm\":{{\"name\":\"leaf-coloring/distance\"}}}}"
                );
                let parsed = vc_json::parse(&line).expect("spec parses");
                let spec = SweepSpec::from_json(&parsed).expect("decodes");
                assert_eq!(spec.instance, InstanceRef::FullBinaryTree { n: 31, seed });
                let inst = spec.instance.build();
                let config = spec.run_config();
                let starts = config.starts.starts(inst.n()).expect("all starts");
                spec.algorithm.identity(&inst, &config, &starts).sweep_id
            })
            .collect();
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn registry_rejects_unknown_names() {
        let line = sample_spec()
            .to_json_line()
            .replace("leaf-coloring/rw-to-leaf", "no-such-algo");
        let parsed = vc_json::parse(&line).expect("still valid json");
        assert_eq!(
            SweepSpec::from_json(&parsed),
            Err(SpecError::UnknownAlgorithm("no-such-algo".to_string()))
        );
        let line = sample_spec()
            .to_json_line()
            .replace("full-binary-tree", "no-such-kind");
        let parsed = vc_json::parse(&line).expect("still valid json");
        assert_eq!(
            SweepSpec::from_json(&parsed),
            Err(SpecError::UnknownInstance("no-such-kind".to_string()))
        );
    }

    #[test]
    fn missing_defaults_fill_in() {
        let parsed = vc_json::parse(
            "{\"instance\":{\"kind\":\"full-binary-tree\",\"n\":31,\"seed\":1},\
             \"algorithm\":{\"name\":\"leaf-coloring/distance\"}}",
        )
        .expect("minimal spec parses");
        let spec = SweepSpec::from_json(&parsed).expect("decodes");
        assert_eq!(spec.priority, Priority::Batch);
        assert_eq!(spec.starts, StartSelection::All);
        assert_eq!(spec.exact_distance, RunConfig::default().exact_distance);
        assert_eq!(spec.tape_seed, None);
    }
}
