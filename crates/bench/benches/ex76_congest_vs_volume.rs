//! Experiment E76 — regenerates **Example 7.6** and **Observations
//! 7.4–7.5** (§7.3): the relative power of the volume model and CONGEST.
//!
//! * Example 7.6: on the two-tree gadget, the query model solves the
//!   bit-transfer problem with `O(log n)` volume, while CONGEST needs
//!   `Ω(n/B)` rounds — the entire bit vector crosses one edge.
//! * Observation 7.4: BalancedTree — query volume `Ω(n)` — is solved in
//!   `O(log n)` CONGEST rounds with `B = O(log n)`-bit messages, so the
//!   `∆^{O(T)}` simulation bound is tight in the other direction.
//!
//! Run with `cargo bench --bench ex76_congest_vs_volume`.

use vc_bench::{print_header, print_heading, print_row};
use vc_core::congest::{BitTransferWithBandwidth, BtFlood, GadgetQuery};
use vc_core::lcl::check_solution;
use vc_core::problems::balanced_tree::{BalancedTree, DistanceSolver};
use vc_graph::gen;
use vc_model::congest::run_congest;
use vc_model::run::{run_all, QueryAlgorithm, RunConfig};
use vc_model::{Budget, Execution, Oracle, SolverScratch, StartSelection};
use vc_stats::fit_complexity;

fn main() {
    println!("# Example 7.6 / Observation 7.4 — CONGEST vs volume");

    print_heading("Example 7.6: bit transfer across the bridge");
    print_header(&[
        "n",
        "B (bits)",
        "CONGEST rounds",
        "≈ n/B",
        "query volume (max)",
    ]);
    let mut rounds_series = Vec::new();
    let mut volume_series = Vec::new();
    for depth in 3..=8u32 {
        let leaves = 1usize << depth;
        let bits: Vec<bool> = (0..leaves).map(|i| (i * 7) % 3 == 0).collect();
        let (inst, meta) = gen::two_tree_gadget(depth, &bits);
        // Narrow bandwidth: one 33-bit packet per edge per round.
        let congest = run_congest::<BitTransferWithBandwidth<35>>(&inst, 35, 100_000)
            .expect("bit transfer terminates");
        for (i, &u) in meta.u_leaves.iter().enumerate() {
            assert_eq!(congest.outputs[u], Some(bits[i]));
        }
        // Query model: sample all output leaves.
        let report = run_all(
            &inst,
            &GadgetQuery,
            &RunConfig {
                starts: StartSelection::All,
                ..RunConfig::default()
            },
        )
        .unwrap();
        let outs = report.complete_outputs().unwrap();
        for (i, &u) in meta.u_leaves.iter().enumerate() {
            assert_eq!(outs[u], Some(bits[i]));
        }
        let maxvol = report.summary().max_volume;
        rounds_series.push((inst.n() as f64, congest.rounds as f64));
        volume_series.push((inst.n() as f64, maxvol as f64));
        print_row(&[
            inst.n().to_string(),
            "35".into(),
            congest.rounds.to_string(),
            (inst.n() / 35).to_string(),
            maxvol.to_string(),
        ]);
    }
    println!(
        "\nCONGEST rounds fitted as: {}   (expected Θ(n/B) = linear in n for fixed B)",
        fit_complexity(&rounds_series)
    );
    println!(
        "Query volume fitted as:   {}   (expected Θ(log n))",
        fit_complexity(&volume_series)
    );

    print_heading("Observation 7.5 check: wider links help proportionally");
    print_header(&["B (bits)", "CONGEST rounds"]);
    let bits: Vec<bool> = (0..256).map(|i| i % 2 == 0).collect();
    let (inst, _) = gen::two_tree_gadget(8, &bits);
    let narrow = run_congest::<BitTransferWithBandwidth<35>>(&inst, 35, 100_000).unwrap();
    let medium = run_congest::<BitTransferWithBandwidth<140>>(&inst, 140, 100_000).unwrap();
    let wide = run_congest::<BitTransferWithBandwidth<560>>(&inst, 560, 100_000).unwrap();
    for (b, r) in [
        (35, narrow.rounds),
        (140, medium.rounds),
        (560, wide.rounds),
    ] {
        print_row(&[b.to_string(), r.to_string()]);
    }
    assert!(narrow.rounds > medium.rounds && medium.rounds > wide.rounds);

    print_heading("Observation 7.4: BalancedTree in O(log n) CONGEST rounds");
    print_header(&["n", "CONGEST rounds", "valid", "query volume at root"]);
    let mut bt_rounds = Vec::new();
    for depth in 3..=9u32 {
        let (inst, meta) = gen::balanced_tree_compatible(depth);
        let report = run_congest::<BtFlood>(&inst, 160, 10_000).expect("flooding terminates");
        let valid = check_solution(&BalancedTree, &inst, &report.outputs).is_ok();
        assert!(valid);
        // Query-model volume of the reference solver at the root: Θ(n).
        let mut exec = Execution::new(&inst, meta.root, None, Budget::unlimited());
        let _ = DistanceSolver.run(&mut exec, &mut SolverScratch::new());
        let vol = exec.stats().volume;
        bt_rounds.push((inst.n() as f64, report.rounds as f64));
        print_row(&[
            inst.n().to_string(),
            report.rounds.to_string(),
            valid.to_string(),
            vol.to_string(),
        ]);
    }
    println!(
        "\nBalancedTree CONGEST rounds fitted as: {}   (expected Θ(log n));",
        fit_complexity(&bt_rounds)
    );
    println!("its query volume is Θ(n) (Table 1) — the promised exponential gap");
    println!("in the other direction.");
}
