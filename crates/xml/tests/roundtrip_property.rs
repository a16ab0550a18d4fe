//! Serializer ↔ parser round-trip property: `parse_with(to_xml_with_text(t),
//! text_labels) == t` on random trees — including text leaves that need
//! `&amp;`/`&lt;` escaping and numeric character references, adjacent text
//! runs, and multi-byte UTF-8 content.

use proptest::prelude::*;
use xpath_tree::{NodeId, Tree, TreeBuilder};
use xpath_xml::{parse, parse_with, to_xml, to_xml_pretty, to_xml_with_text, ParseOptions};

/// A generated document node: element with children, or a text leaf.
#[derive(Debug, Clone)]
enum GenNode {
    Element(String, Vec<GenNode>),
    Text(String),
}

/// Strategy for valid element names (ASCII letter head, name tail).
fn name_strategy() -> impl Strategy<Value = String> {
    (0usize..26, prop::collection::vec(0usize..39, 0..6)).prop_map(|(head, tail)| {
        const TAIL: &[u8; 39] = b"abcdefghijklmnopqrstuvwxyz0123456789_-.";
        let mut name = String::new();
        name.push((b'a' + head as u8) as char);
        for i in tail {
            name.push(TAIL[i] as char);
        }
        name
    })
}

/// Strategy for text content: first character non-whitespace (whitespace-only
/// runs are dropped by the parser), then a mix of plain characters, markup
/// characters needing escaping, whitespace, and non-ASCII code points.
fn text_strategy() -> impl Strategy<Value = String> {
    let any_char = prop_oneof![
        (0usize..26).prop_map(|i| (b'a' + i as u8) as char),
        prop_oneof![
            Just('&'),
            Just('<'),
            Just('>'),
            Just('"'),
            Just('\''),
            Just(' '),
            Just('\n'),
            Just('\t'),
            Just('é'),
            Just('λ'),
            Just('❤'),
            Just(';'),
            Just('#'),
        ],
    ];
    let head = prop_oneof![
        (0usize..26).prop_map(|i| (b'a' + i as u8) as char),
        prop_oneof![Just('&'), Just('<'), Just('é'), Just('#')],
    ];
    (head, prop::collection::vec(any_char, 0..8)).prop_map(|(head, tail)| {
        let mut text = String::new();
        text.push(head);
        text.extend(tail);
        text
    })
}

/// Strategy for document subtrees of bounded depth.
fn node_strategy() -> BoxedStrategy<GenNode> {
    let leaf = prop_oneof![
        name_strategy().prop_map(|n| GenNode::Element(n, Vec::new())),
        text_strategy().prop_map(GenNode::Text),
    ];
    leaf.boxed().prop_recursive(3, 24, 4, |inner| {
        (name_strategy(), prop::collection::vec(inner, 0..4))
            .prop_map(|(name, children)| GenNode::Element(name, children))
    })
}

/// Strategy for whole documents: the root must be an element.
fn doc_strategy() -> impl Strategy<Value = GenNode> {
    (
        name_strategy(),
        prop::collection::vec(node_strategy(), 0..4),
    )
        .prop_map(|(name, children)| GenNode::Element(name, children))
}

fn build(node: &GenNode, builder: &mut TreeBuilder) {
    match node {
        GenNode::Element(name, children) if children.is_empty() => {
            builder.leaf(name);
        }
        GenNode::Element(name, children) => {
            builder.open(name);
            for child in children {
                build(child, builder);
            }
            builder.close();
        }
        GenNode::Text(text) => {
            builder.leaf(text);
        }
    }
}

fn to_tree(doc: &GenNode) -> Tree {
    let mut builder = TreeBuilder::new();
    build(doc, &mut builder);
    builder.finish().expect("generated documents have a root")
}

/// Structural equality of trees as (parent-preorder, label) sequences.
fn shape(tree: &Tree) -> Vec<(Option<u32>, String)> {
    fn walk(tree: &Tree, node: NodeId, parent: Option<u32>, out: &mut Vec<(Option<u32>, String)>) {
        out.push((parent, tree.label_str(node).to_string()));
        let me = tree.preorder(node);
        for child in tree.children(node) {
            walk(tree, child, Some(me), out);
        }
    }
    let mut out = Vec::new();
    walk(tree, tree.root(), None, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline property: serialize with text escaping, parse with
    /// text labels, and get the identical tree back.
    #[test]
    fn serialize_parse_identity_with_text(doc in doc_strategy()) {
        let tree = to_tree(&doc);
        let xml = to_xml_with_text(&tree);
        let opts = ParseOptions { text_labels: true, ..Default::default() };
        let back = parse_with(&xml, &opts)
            .unwrap_or_else(|e| panic!("serialized XML must reparse: {e}\n  xml: {xml}"));
        prop_assert_eq!(shape(&back), shape(&tree), "xml: {}", xml);
    }

    /// Element-only trees round trip through the plain serializer too, in
    /// both compact and pretty form.
    #[test]
    fn element_only_round_trip(doc in doc_strategy()) {
        let tree = to_tree(&doc);
        // Keep only what the serializer emits as *elements*: real elements,
        // plus text leaves whose label happens to be a valid name (those
        // serialize as `<name/>` and survive default parsing).
        fn strip(node: &GenNode, builder: &mut TreeBuilder) {
            match node {
                GenNode::Element(name, children) => {
                    if children.is_empty() {
                        builder.leaf(name);
                    } else {
                        builder.open(name);
                        for child in children {
                            strip(child, builder);
                        }
                        builder.close();
                    }
                }
                GenNode::Text(text) if xpath_xml::is_valid_name(text) => {
                    builder.leaf(text);
                }
                GenNode::Text(_) => {}
            }
        }
        let mut builder = TreeBuilder::new();
        strip(&doc, &mut builder);
        let skeleton = builder.finish().expect("root is an element");
        let compact = parse(&to_xml(&skeleton)).unwrap();
        prop_assert_eq!(shape(&compact), shape(&skeleton));
        let pretty = parse(&to_xml_pretty(&skeleton)).unwrap();
        prop_assert_eq!(shape(&pretty), shape(&skeleton));
        // The full tree's text leaves never leak into default parsing.
        let stripped = parse(&to_xml_with_text(&tree)).unwrap();
        prop_assert_eq!(shape(&stripped), shape(&skeleton));
    }
}
