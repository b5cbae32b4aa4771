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
//! entry a batch run produced. [`InstanceRef::check`] bounds a recipe
//! before anything is built from it.

use std::fmt;
use std::path::Path;

use vc_engine::{sweep_identity, Engine, EngineError, EngineReport, SweepIdentity};
use vc_graph::{gen, Color, Instance};
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

/// The most nodes a spec may make the service build: 16× the largest
/// spec any test, drill or benchmark submits (65,535). The generators grow
/// node by node up to their target, so without a bound one request line
/// could grow the daemon until the host runs out of memory.
pub const MAX_NODES: usize = 1 << 20;

impl InstanceRef {
    /// Builds the referenced instance. A recipe [`InstanceRef::check`]
    /// refuses may panic or exhaust memory.
    pub fn build(&self) -> Instance {
        match *self {
            InstanceRef::FullBinaryTree { n, seed } => gen::random_full_binary_tree(n, seed),
            InstanceRef::PseudoTree { n, cycle, seed } => gen::pseudo_tree(n, cycle, seed),
        }
    }

    /// Refuses a recipe that [`InstanceRef::build`] would panic on or
    /// grow past [`MAX_NODES`]: a pseudo-tree cycle shorter than 3, an `n`
    /// above the bound, or a cycle longer than a third of it (a
    /// pseudo-tree grows to at least `3·cycle` nodes).
    pub fn check(&self) -> Result<(), SpecError> {
        let within = |field: &'static str, value: usize, min: usize, max: usize| {
            if (min..=max).contains(&value) {
                Ok(())
            } else {
                Err(SpecError::OutOfRange {
                    field,
                    value,
                    min,
                    max,
                })
            }
        };
        match *self {
            InstanceRef::FullBinaryTree { n, .. } => within("instance.n", n, 0, MAX_NODES),
            InstanceRef::PseudoTree { n, cycle, .. } => {
                within("instance.n", n, 0, MAX_NODES)?;
                within("instance.cycle", cycle, 3, MAX_NODES / 3)
            }
        }
    }
}

/// One algorithm from the service's closed registry.
///
/// Both registry solvers output a [`Color`], so everything the service
/// needs — identity folding and the checkpointed run — is one dispatch
/// over the enum.
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

    /// Runs the sweep on `engine`, checkpointed to `path`: the registry's
    /// one run dispatch. An engine that carries the sweep's identity
    /// ([`Engine::with_identity`]) skips the fold over the instance.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_all_traced`].
    pub fn run_checkpointed(
        &self,
        engine: &Engine,
        inst: &Instance,
        config: &RunConfig,
        path: &Path,
    ) -> Result<EngineReport<Color>, EngineError> {
        let engine = engine.clone().with_checkpoint(path);
        match *self {
            AlgorithmRef::LeafDistance => engine.run_all(
                inst,
                &vc_core::problems::leaf_coloring::DistanceSolver,
                config,
            ),
            AlgorithmRef::LeafRandomWalk { step_factor } => engine.run_all(
                inst,
                &vc_core::problems::leaf_coloring::RwToLeaf { step_factor },
                config,
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
    /// A size field lies outside what the service builds
    /// ([`InstanceRef::check`]).
    OutOfRange {
        /// The field's wire name, e.g. `instance.cycle`.
        field: &'static str,
        /// The value the spec carries.
        value: usize,
        /// The least value accepted.
        min: usize,
        /// The greatest value accepted.
        max: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Malformed(what) => write!(f, "malformed spec field: {what}"),
            SpecError::UnknownAlgorithm(name) => write!(f, "unknown algorithm: {name}"),
            SpecError::UnknownInstance(kind) => write!(f, "unknown instance kind: {kind}"),
            SpecError::OutOfRange {
                field,
                value,
                min,
                max,
            } => write!(f, "{field} = {value} is outside {min}..={max}"),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire form of the three specs `wire_form_round_trips` encodes.
    const WIRE: &str = r#"{"instance":{"kind":"full-binary-tree","n":255,"seed":3},"algorithm":{"name":"leaf-coloring/rw-to-leaf","step_factor":16},"tape_seed":11,"max_volume":500,"exact_distance":true,"starts":{"count":64,"seed":9},"priority":"interactive"}
{"instance":{"kind":"pseudo-tree","n":100,"cycle":8,"seed":1},"algorithm":{"name":"leaf-coloring/distance"},"exact_distance":true,"starts":"all","priority":"batch"}
{"instance":{"kind":"pseudo-tree","n":100,"cycle":8,"seed":1},"algorithm":{"name":"leaf-coloring/distance"},"max_distance":7,"max_queries":9,"exact_distance":false,"starts":"all","priority":"batch"}"#;

    /// Specs that decode but that [`InstanceRef::check`] refuses: a cycle
    /// `gen::pseudo_tree` asserts against, and a node count past the bound.
    const REFUSED: [&str; 2] = [
        r#"{"instance":{"kind":"pseudo-tree","n":10,"cycle":2,"seed":1},"algorithm":{"name":"leaf-coloring/distance"}}"#,
        r#"{"instance":{"kind":"full-binary-tree","n":1048577,"seed":1},"algorithm":{"name":"leaf-coloring/distance"}}"#,
    ];

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
        assert_eq!(lines.join("\n"), WIRE);
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

    #[test]
    fn recipes_the_generators_cannot_build_are_refused() {
        let out_of_range = |field, value, min, max| {
            Err(SpecError::OutOfRange {
                field,
                value,
                min,
                max,
            })
        };
        let cycle = |n, cycle| InstanceRef::PseudoTree { n, cycle, seed: 1 };
        let tree = |n| InstanceRef::FullBinaryTree { n, seed: 1 };
        let max_cycle = MAX_NODES / 3;
        for (recipe, want) in [
            (
                cycle(10, 2),
                out_of_range("instance.cycle", 2, 3, max_cycle),
            ),
            (
                cycle(10, 0),
                out_of_range("instance.cycle", 0, 3, max_cycle),
            ),
            (
                cycle(10, max_cycle + 1),
                out_of_range("instance.cycle", max_cycle + 1, 3, max_cycle),
            ),
            (
                cycle(MAX_NODES + 1, 3),
                out_of_range("instance.n", MAX_NODES + 1, 0, MAX_NODES),
            ),
            (
                tree(MAX_NODES + 1),
                out_of_range("instance.n", MAX_NODES + 1, 0, MAX_NODES),
            ),
            (tree(MAX_NODES), Ok(())),
            (cycle(MAX_NODES, max_cycle), Ok(())),
            (cycle(0, 3), Ok(())),
        ] {
            assert_eq!(recipe.check(), want, "{recipe:?}");
        }
        assert_eq!(
            cycle(10, 2).check().map_err(|e| e.to_string()),
            Err("instance.cycle = 2 is outside 3..=349525".to_string())
        );
        for line in REFUSED {
            let spec =
                SweepSpec::from_json(&vc_json::parse(line).expect("parses")).expect("decodes");
            assert!(spec.instance.check().is_err(), "{line}");
        }
    }

    /// Seeded truncations, bit flips and splices of the wire lines above
    /// and of the two refused specs. Each mutant is refused with a typed
    /// error by the parser, the decoder or [`InstanceRef::check`], or it
    /// decodes to a spec in bounds; such a spec of at most 4,095 nodes is
    /// built. Nothing panics.
    #[test]
    fn mutated_spec_lines_are_refused_or_build() {
        let lines: Vec<&str> = WIRE.lines().chain(REFUSED).collect();
        let mut state = 0x5eed_0028_u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            usize::try_from(state % n as u64).expect("below a usize")
        };
        let (mut unparsed, mut undecoded, mut unchecked, mut built) = (0, 0, 0, 0);
        for i in 0..2_000 {
            let mut m = lines[i % lines.len()].as_bytes().to_vec();
            match below(3) {
                0 => m.truncate(below(m.len())),
                1 => {
                    // The lines are ASCII; flipping one of the low seven
                    // bits keeps them so, as the daemon refuses a line that
                    // is not UTF-8 before any decoder sees it.
                    let at = below(m.len());
                    m[at] ^= 1 << below(7);
                }
                _ => {
                    let from = below(m.len());
                    let to = (from + 1 + below(24)).min(m.len());
                    let slice = m[from..to].to_vec();
                    let at = below(m.len() + 1);
                    m.splice(at..at, slice);
                }
            }
            let m = String::from_utf8(m).expect("ASCII mutations stay UTF-8");
            let Ok(value) = vc_json::parse(&m) else {
                unparsed += 1;
                continue;
            };
            let Ok(spec) = SweepSpec::from_json(&value) else {
                undecoded += 1;
                continue;
            };
            if spec.instance.check().is_err() {
                unchecked += 1;
                continue;
            }
            let nodes = match spec.instance {
                InstanceRef::FullBinaryTree { n, .. } => n,
                InstanceRef::PseudoTree { n, cycle, .. } => n.max(3 * cycle),
            };
            if nodes <= 4_095 {
                spec.instance.build();
                built += 1;
            }
        }
        for (count, what) in [
            (unparsed, "unparsed"),
            (undecoded, "undecoded"),
            (unchecked, "out of range"),
            (built, "built"),
        ] {
            assert!(count > 0, "no mutant {what}");
        }
    }
}
