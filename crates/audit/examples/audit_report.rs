//! Demonstrates the audit layer end to end: a Table 1 solver running clean
//! under [`AuditedOracle`], followed by a deliberately mis-accounting oracle
//! whose violation is rendered as a structured diagnostic.
//!
//! Run with `cargo run -p vc-audit --example audit_report`.

use vc_audit::AuditedOracle;
use vc_core::problems::leaf_coloring::DistanceSolver;
use vc_graph::{gen, Color, Port};
use vc_model::oracle::{NodeView, Oracle, OracleStats, QueryError};
use vc_model::{Budget, Execution, QueryAlgorithm, SolverScratch};

/// An oracle that answers honestly but under-reports its volume by one —
/// the kind of accounting bug the auditor exists to catch.
struct Undercount<'a>(Execution<'a>);

impl Oracle for Undercount<'_> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn root(&self) -> NodeView {
        self.0.root()
    }
    fn query(&mut self, from: usize, port: Port) -> Result<NodeView, QueryError> {
        self.0.query(from, port)
    }
    fn rand_bit(&mut self, node: usize) -> Result<bool, QueryError> {
        self.0.rand_bit(node)
    }
    fn stats(&self) -> OracleStats {
        let s = self.0.stats();
        OracleStats {
            volume: s.volume.saturating_sub(1),
            ..s
        }
    }
}

fn main() {
    let inst = gen::complete_binary_tree(5, Color::R, Color::B);

    // 1. An honest run: the deterministic LeafColoring solver, audited.
    let ex = Execution::new(&inst, 0, None, Budget::unlimited());
    let mut audited = AuditedOracle::new(ex).expect_deterministic();
    match DistanceSolver.run(&mut audited, &mut SolverScratch::new()) {
        Ok(out) => println!("solver output at root: {out:?}"),
        Err(e) => println!("solver refused: {e}"),
    }
    let (_, report) = audited.finish();
    println!("honest execution audit: {report}");

    // 2. The same solver over a volume-under-counting oracle.
    let ex = Execution::new(&inst, 0, None, Budget::unlimited());
    let mut audited = AuditedOracle::new(Undercount(ex)).expect_deterministic();
    if let Err(e) = DistanceSolver.run(&mut audited, &mut SolverScratch::new()) {
        println!("solver refused: {e}");
    }
    let (_, report) = audited.finish();
    println!("mis-accounting oracle audit:\n{report}");
}
