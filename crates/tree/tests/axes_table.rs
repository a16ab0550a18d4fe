//! Table-driven axis tests (rstest-style, expressed with a local macro since
//! the build environment has no crates.io access).
//!
//! Every case names an axis, a start node and the exact expected target
//! sequence — including order, which is document order for forward axes and
//! reverse document order for upward/backward axes. The fixture tree is
//! built by hand with [`TreeBuilder`], one distinct label per node:
//!
//! ```text
//! r
//! ├── a
//! │   ├── d
//! │   ├── e
//! │   │   └── g
//! │   └── f
//! └── b
//! └── c
//!     └── h
//! ```
//!
//! (`r` has children `a`, `b`, `c`; `a` has `d`, `e`, `f`; `e` has `g`;
//! `c` has `h`.)

use xpath_tree::{Axis, NodeId, Tree, TreeBuilder};

fn fixture() -> Tree {
    let mut b = TreeBuilder::new();
    b.open("r");
    {
        b.open("a");
        b.leaf("d");
        b.open("e");
        b.leaf("g");
        b.close();
        b.leaf("f");
        b.close();
    }
    b.leaf("b");
    {
        b.open("c");
        b.leaf("h");
        b.close();
    }
    b.close();
    b.finish().expect("fixture is balanced")
}

fn by_label(t: &Tree, label: &str) -> NodeId {
    let nodes = t.nodes_with_label_str(label);
    assert_eq!(nodes.len(), 1, "fixture labels are unique ({label})");
    nodes[0]
}

fn labels(t: &Tree, nodes: &[NodeId]) -> Vec<String> {
    nodes.iter().map(|&n| t.label_str(n).to_string()).collect()
}

/// `case_name: axis, start_label => [expected labels in axis order];`
macro_rules! axis_cases {
    ($($name:ident: $axis:expr, $start:literal => [$($expect:literal),* $(,)?];)*) => {
        $(
            #[test]
            fn $name() {
                let t = fixture();
                let start = by_label(&t, $start);
                let got = labels(&t, &t.axis_nodes($axis, start));
                let want: Vec<&str> = vec![$($expect),*];
                assert_eq!(got, want, "{} from {:?}", $axis, $start);
            }
        )*
    };
}

axis_cases! {
    // self: the identity on inner, leaf and root nodes.
    self_on_root:            Axis::SelfAxis, "r" => ["r"];
    self_on_inner:           Axis::SelfAxis, "e" => ["e"];
    self_on_leaf:            Axis::SelfAxis, "g" => ["g"];

    // child: multiple children in document order; none on leaves.
    child_of_root:           Axis::Child, "r" => ["a", "b", "c"];
    child_of_inner:          Axis::Child, "a" => ["d", "e", "f"];
    child_of_unary:          Axis::Child, "e" => ["g"];
    child_of_leaf:           Axis::Child, "g" => [];

    // parent: exactly one for non-roots, empty at the root.
    parent_of_root:          Axis::Parent, "r" => [];
    parent_of_mid:           Axis::Parent, "e" => ["a"];
    parent_of_deep_leaf:     Axis::Parent, "g" => ["e"];

    // descendant (strict): full subtree in document order, without self.
    descendant_of_root:      Axis::Descendant, "r" => ["a", "d", "e", "g", "f", "b", "c", "h"];
    descendant_of_inner:     Axis::Descendant, "a" => ["d", "e", "g", "f"];
    descendant_of_leaf:      Axis::Descendant, "b" => [];

    // descendant-or-self: adds the start node first.
    descendant_or_self_inner: Axis::DescendantOrSelf, "a" => ["a", "d", "e", "g", "f"];
    descendant_or_self_leaf:  Axis::DescendantOrSelf, "h" => ["h"];

    // ancestor (strict): path to the root, nearest first.
    ancestor_of_deep_leaf:   Axis::Ancestor, "g" => ["e", "a", "r"];
    ancestor_of_child:       Axis::Ancestor, "b" => ["r"];
    ancestor_of_root:        Axis::Ancestor, "r" => [];

    // ancestor-or-self: starts with the node itself.
    ancestor_or_self_deep:   Axis::AncestorOrSelf, "g" => ["g", "e", "a", "r"];
    ancestor_or_self_root:   Axis::AncestorOrSelf, "r" => ["r"];

    // following-sibling (strict): document order, empty on the last sibling.
    following_sibling_first: Axis::FollowingSibling, "a" => ["b", "c"];
    following_sibling_mid:   Axis::FollowingSibling, "e" => ["f"];
    following_sibling_last:  Axis::FollowingSibling, "c" => [];
    following_sibling_only:  Axis::FollowingSibling, "g" => [];

    // following-sibling-or-self.
    following_or_self_first: Axis::FollowingSiblingOrSelf, "d" => ["d", "e", "f"];
    following_or_self_last:  Axis::FollowingSiblingOrSelf, "f" => ["f"];

    // preceding-sibling (strict): reverse document order (nearest first).
    preceding_sibling_last:  Axis::PrecedingSibling, "c" => ["b", "a"];
    preceding_sibling_mid:   Axis::PrecedingSibling, "e" => ["d"];
    preceding_sibling_first: Axis::PrecedingSibling, "a" => [];

    // preceding-sibling-or-self.
    preceding_or_self_last:  Axis::PrecedingSiblingOrSelf, "f" => ["f", "e", "d"];
    preceding_or_self_first: Axis::PrecedingSiblingOrSelf, "d" => ["d"];
}

/// Exhaustive coverage guard: the table above must exercise every axis of
/// the paper's surface syntax plus the four `-or-self` closures (the ten
/// axes of the evaluation algorithms).
#[test]
fn table_covers_all_query_axes() {
    let covered = [
        Axis::SelfAxis,
        Axis::Child,
        Axis::Parent,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::FollowingSibling,
        Axis::FollowingSiblingOrSelf,
        Axis::PrecedingSibling,
        Axis::PrecedingSiblingOrSelf,
    ];
    for axis in xpath_tree::axes::SURFACE_AXES {
        assert!(covered.contains(&axis), "{axis} missing from the table");
    }
}

/// Cross-check of the whole table at once: for every (axis, start) pair the
/// iterator, the O(1) `relates` predicate and the set-based
/// `axis_successors` must agree on membership.
#[test]
fn iterators_relates_and_successor_sets_agree_on_fixture() {
    use xpath_tree::NodeSet;
    let t = fixture();
    for axis in xpath_tree::axes::ALL_AXES {
        for u in t.nodes() {
            let listed: Vec<NodeId> = t.axis_nodes(axis, u);
            let member: std::collections::BTreeSet<NodeId> = listed.iter().copied().collect();
            assert_eq!(member.len(), listed.len(), "{axis} duplicates from {u}");
            let mut start = NodeSet::empty(t.len());
            start.insert(u);
            let succ = t.axis_successors(axis, &start);
            for v in t.nodes() {
                assert_eq!(
                    axis.relates(&t, u, v),
                    member.contains(&v),
                    "{axis} ({u},{v})"
                );
                assert_eq!(succ.contains(v), member.contains(&v), "{axis} S({u})∋{v}");
            }
        }
    }
}
