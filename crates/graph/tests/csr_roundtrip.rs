//! Property-style CSR construction coverage: for every instance family in
//! [`vc_graph::gen`], the flat CSR adjacency must agree with the builder
//! contract on every `(node, port)` pair — rebuilding the graph through
//! `GraphBuilder` from the CSR's own answers reproduces it exactly.
//!
//! Deliberately runnable without the `proptest` feature: the "property" is
//! exercised over a deterministic grid of generator parameters and seeds.

use vc_graph::{gen, Color, Graph, GraphBuilder, Instance, Port};

/// Round-trips `g` through [`GraphBuilder`] twice, once using only the
/// public CSR accessors (`neighbor`, `port_to`, `id`) and once through
/// [`GraphBuilder::append`], and checks each rebuilt graph is identical,
/// then cross-checks every per-port accessor against the row iterators.
fn assert_csr_roundtrip(g: &Graph) {
    // 1. Rebuild via the builder from (node, port) -> neighbor answers.
    let mut b = GraphBuilder::new();
    for v in 0..g.n() {
        b.add_node_with_id(g.id(v));
    }
    for v in 0..g.n() {
        for p in 1..=g.degree(v) as u8 {
            let w = g
                .neighbor(v, Port::new(p))
                .expect("every port 1..=deg(v) resolves");
            if v < w {
                let back = g.port_to(w, v).expect("edges are symmetric");
                b.connect(v, p, w, back.number()).expect("rebuild connects");
            }
        }
    }
    let mut copied = GraphBuilder::new();
    assert_eq!(copied.append(g, 0), 0);
    for b in [b, copied] {
        let rebuilt = b.build().expect("rebuild validates");
        assert_eq!(&rebuilt, g, "builder round-trip must reproduce the CSR");
    }

    // 2. Per-(node, port) agreement between all flat-array accessors.
    let mut directed = 0usize;
    for v in 0..g.n() {
        let row: Vec<usize> = g.neighbors(v).collect();
        assert_eq!(row.len(), g.degree(v));
        assert!(g.degree(v) <= g.max_degree());
        for (i, &w) in row.iter().enumerate() {
            let p = Port::from_index(i);
            assert_eq!(g.neighbor(v, p), Some(w), "row iterator matches lookup");
            assert_ne!(v, w, "no self-loops");
            // The mirror port walks straight back.
            let back = g.reverse_port(v, p).expect("in-range mirror port");
            assert_eq!(g.neighbor(w, back), Some(v), "reverse port returns");
            assert_eq!(g.reverse_port(w, back), Some(p), "mirror is an involution");
            directed += 1;
        }
        // One past the degree is out of range for every accessor.
        let over = Port::from_index(g.degree(v));
        assert_eq!(g.neighbor(v, over), None);
        assert_eq!(g.reverse_port(v, over), None);
    }
    assert_eq!(g.m() * 2, directed, "edge count matches flat slot count");
    assert!(g.validate().is_ok(), "generator output validates");
}

fn check(inst: &Instance) {
    assert_csr_roundtrip(&inst.graph);
}

#[test]
fn complete_binary_trees_roundtrip() {
    for depth in 1..=6 {
        check(&gen::complete_binary_tree(depth, Color::R, Color::B));
    }
}

#[test]
fn random_full_binary_trees_roundtrip() {
    for (n, seed) in [(3, 1), (31, 2), (100, 3), (257, 4), (500, 5)] {
        check(&gen::random_full_binary_tree(n, seed));
    }
}

#[test]
fn pseudo_trees_roundtrip() {
    for (n, cycle, seed) in [(20, 4, 1), (60, 8, 2), (120, 16, 3)] {
        check(&gen::pseudo_tree(n, cycle, seed));
    }
}

#[test]
fn balanced_and_unbalanced_trees_roundtrip() {
    for depth in 2..=5 {
        check(&gen::balanced_tree_compatible(depth).0);
        check(&gen::unbalanced_tree(depth).0);
    }
}

#[test]
fn disjointness_embeddings_roundtrip() {
    let a = [true, false, true, true, false, false, true, false];
    let b = [false, false, true, false, true, true, false, true];
    check(&gen::disjointness_embedding(&a, &b).0);
}

#[test]
fn hierarchical_and_hybrid_roundtrip() {
    for k in 2..=3 {
        check(&gen::hierarchical_for_size(k, 150, 7));
        check(&gen::hybrid_for_size(k, 150, 7));
        check(&gen::hybrid_with_one_heavy(k, 150, 7));
    }
    check(&gen::hh(2, 3, 200, 11));
}

#[test]
fn cycles_and_gadgets_roundtrip() {
    for n in [3, 10, 64] {
        check(&gen::directed_cycle(n, 5));
    }
    let bits = [true, false, true, true];
    check(&gen::two_tree_gadget(2, &bits).0);
}
