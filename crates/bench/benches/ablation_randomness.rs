//! Experiment A2 — the randomness models of §7.4, ablated on the randomized
//! Table 1 algorithm: private vs public vs secret random strings.
//!
//! * `RWtoLeaf` under *private* randomness is the paper's algorithm;
//! * under *public* randomness every node shares one string, so the walk
//!   still works (public simulates private in the other direction only,
//!   but for this algorithm a shared string means correlated turns — the
//!   walk degrades into a biased comb yet stays valid on trees);
//! * under *secret* randomness the walk cannot steer by other nodes'
//!   coins: the coupling of Algorithm 1 is impossible, executions truncate.
//!
//! The §7.4 *promise* observation is also reproduced: when all leaves are
//! promised the same color, a secret-coins walker that steers by its *own*
//! string solves the promise version of LeafColoring with `O(log n)`
//! volume — secret randomness does help for promise problems.
//!
//! Run with `cargo bench --bench ablation_randomness`.

use vc_bench::{print_header, print_heading, print_row};
use vc_core::lcl::count_violations;
use vc_core::problems::leaf_coloring::{LeafColoring, RwToLeaf};
use vc_graph::{gen, Color};
use vc_model::oracle::{follow, Oracle, QueryError};
use vc_model::run::{run_all, QueryAlgorithm, RunConfig};
use vc_model::{RandomTape, SolverScratch};

/// The §7.4 promise-version walker: steers every step by the *initiator's*
/// own secret string (no coupling needed, because under the promise any
/// leaf has the right color).
struct PromiseWalker;

impl QueryAlgorithm for PromiseWalker {
    type Output = Color;

    fn name(&self) -> &'static str {
        "promise-walker/secret"
    }

    fn fallback(&self) -> Color {
        Color::R
    }

    fn run(&self, oracle: &mut dyn Oracle, _: &mut SolverScratch) -> Result<Color, QueryError> {
        let v0 = oracle.root();
        let mut cur = v0;
        for _ in 0..64 * 20 {
            // Leaf or inconsistent: report its color.
            let lc = follow(oracle, &cur, cur.label.left_child)?;
            let rc = follow(oracle, &cur, cur.label.right_child)?;
            match (lc, rc) {
                (Some(l), Some(r)) => {
                    // Steer by own coins only (secret-compatible).
                    cur = if oracle.rand_bit(v0.node)? { r } else { l };
                }
                _ => return Ok(cur.label.color.unwrap_or(Color::R)),
            }
        }
        Ok(self.fallback())
    }
}

fn main() {
    println!("# Ablation A2 — randomness models (§7.4)");
    let problem = LeafColoring;
    let inst = gen::random_full_binary_tree(1200, 5);

    print_heading("RWtoLeaf under the three randomness models (n = 1200)");
    print_header(&["model", "max volume", "truncated runs", "violations"]);
    for (name, tape) in [
        ("private", RandomTape::private(9)),
        ("public", RandomTape::public(9)),
        ("secret", RandomTape::secret(9)),
    ] {
        let report = run_all(
            &inst,
            &RwToLeaf::default(),
            &RunConfig {
                tape: Some(tape),
                ..RunConfig::default()
            },
        )
        .unwrap();
        let outputs = report.complete_outputs().unwrap();
        let violations = count_violations(&problem, &inst, &outputs);
        print_row(&[
            name.to_string(),
            report.summary().max_volume.to_string(),
            report.truncated().to_string(),
            violations.to_string(),
        ]);
        match name {
            "private" | "public" => assert_eq!(violations, 0, "{name} must stay valid"),
            _ => assert!(report.truncated() > 0, "secret coins break the coupling"),
        }
    }

    print_heading("Promise-LeafColoring with secret coins (§7.4's example)");
    print_header(&["depth", "n", "max volume", "all correct"]);
    for depth in [6u32, 8, 10, 12] {
        // Promise: all leaves share χ₀.
        let inst = gen::complete_binary_tree(depth, Color::R, Color::B);
        let report = run_all(
            &inst,
            &PromiseWalker,
            &RunConfig {
                tape: Some(RandomTape::secret(depth.into())),
                ..RunConfig::default()
            },
        )
        .unwrap();
        let outputs = report.complete_outputs().unwrap();
        // Under the promise, every node must report the leaf color B.
        let leaves_start = (1usize << depth) - 1;
        let correct = outputs
            .iter()
            .enumerate()
            .all(|(v, &c)| c == Color::B || (v < leaves_start && c == Color::R));
        // Internal nodes walk to some leaf: all-B expected everywhere.
        let all_b = outputs.iter().all(|&c| c == Color::B);
        print_row(&[
            depth.to_string(),
            inst.n().to_string(),
            report.summary().max_volume.to_string(),
            all_b.to_string(),
        ]);
        assert!(
            correct && all_b,
            "promise walker must solve the promise version"
        );
        assert!(report.summary().max_volume <= 3 * (depth as usize + 2) + 4);
    }
    println!("\nSecret randomness suffices for the promise problem (volume");
    println!("O(log n)), but not for full LeafColoring — exactly the §7.4 gap.");
}
