//! Serialization of trees back to XML.
//!
//! Three renderers are provided:
//!
//! * [`to_xml`] / [`to_xml_pretty`] — elements only; labels that are not
//!   valid XML names are *sanitised* (lossy but always well-formed);
//! * [`to_xml_with_text`] — leaves whose label is not a valid XML name are
//!   emitted as **escaped character data** instead (`&` → `&amp;`, `<` →
//!   `&lt;`, control and non-ASCII characters as numeric character
//!   references), so that parsing with
//!   [`ParseOptions::text_labels`](crate::parser::ParseOptions) is the
//!   exact inverse: `parse_with(to_xml_with_text(t)) == t` for every tree
//!   whose internal nodes carry valid names (property-tested in
//!   `tests/roundtrip_property.rs`).

use xpath_tree::{NodeId, Tree};

/// Serialize a tree as a compact, single-line XML document.
///
/// Leaf elements are emitted as self-closing tags.  Labels are emitted
/// verbatim (tree labels originating from the XML parser are valid names;
/// labels containing characters that are not valid in XML names — e.g. the
/// `#text` pseudo-label or `@attr` pseudo-elements — are prefixed with `x-`
/// and sanitised so the output is always well-formed).
pub fn to_xml(tree: &Tree) -> String {
    let mut out = String::new();
    write_node(tree, tree.root(), &mut out, None);
    out
}

/// Serialize a tree as indented XML, one element per line.
pub fn to_xml_pretty(tree: &Tree) -> String {
    let mut out = String::new();
    write_node(tree, tree.root(), &mut out, Some(0));
    out
}

/// Serialize a tree as a single line of XML where non-name leaf labels
/// become escaped text content (see the module docs for the round-trip
/// contract with `ParseOptions::text_labels`).
///
/// The root is always emitted as an *element* — XML has no document-level
/// character data — so a single-node tree whose label is not a valid name
/// falls back to the sanitised element form (the one shape the identity
/// cannot cover; every tree whose root label is a valid name round-trips).
pub fn to_xml_with_text(tree: &Tree) -> String {
    let mut out = String::new();
    let root = tree.root();
    if tree.is_leaf(root) {
        let name = sanitize_name(tree.label_str(root));
        out.push('<');
        out.push_str(&name);
        out.push_str("/>");
        return out;
    }
    write_node_with_text(tree, root, &mut out, false);
    out
}

/// Is `label` serialisable as an XML element name by our parser?
/// Conservative: ASCII alphanumerics plus `_ - . :`, not starting with a
/// digit, `-`, `.` or `:`.
pub fn is_valid_name(label: &str) -> bool {
    let mut chars = label.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !(first.is_ascii_alphabetic() || first == '_') {
        return false;
    }
    label
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
}

/// Escape arbitrary text as XML character data: markup characters become
/// entity references, control characters and non-ASCII become numeric
/// character references (the parser decodes both exactly).
fn escape_text(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            c if c.is_ascii() && !c.is_ascii_control() => out.push(c),
            c => {
                // Numeric character reference: covers control characters,
                // DEL and every non-ASCII code point in one rule.
                out.push_str(&format!("&#x{:X};", c as u32));
            }
        }
    }
}

fn write_node_with_text(tree: &Tree, node: NodeId, out: &mut String, prev_was_text: bool) {
    let label = tree.label_str(node);
    if tree.is_leaf(node) && !is_valid_name(label) {
        // Adjacent text leaves would merge into one character-data run on
        // re-parse; a comment keeps them apart (the parser skips it but it
        // terminates the run).
        if prev_was_text {
            out.push_str("<!--|-->");
        }
        escape_text(label, out);
        return;
    }
    let name = sanitize_name(label);
    if tree.is_leaf(node) {
        out.push('<');
        out.push_str(&name);
        out.push_str("/>");
        return;
    }
    out.push('<');
    out.push_str(&name);
    out.push('>');
    let mut prev_text = false;
    for c in tree.children(node) {
        let is_text = tree.is_leaf(c) && !is_valid_name(tree.label_str(c));
        write_node_with_text(tree, c, out, prev_text && is_text);
        prev_text = is_text;
    }
    out.push_str("</");
    out.push_str(&name);
    out.push('>');
}

fn sanitize_name(label: &str) -> String {
    let mut name: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                c
            } else {
                '-'
            }
        })
        .collect();
    let needs_prefix = name
        .chars()
        .next()
        .map(|c| c.is_ascii_digit() || c == '-' || c == '.' || c == ':')
        .unwrap_or(true);
    if needs_prefix {
        name = format!("x-{name}");
    }
    name
}

fn write_node(tree: &Tree, node: NodeId, out: &mut String, indent: Option<usize>) {
    let name = sanitize_name(tree.label_str(node));
    let pad = |out: &mut String, level: usize| {
        for _ in 0..level {
            out.push_str("  ");
        }
    };
    if let Some(level) = indent {
        pad(out, level);
    }
    if tree.is_leaf(node) {
        out.push('<');
        out.push_str(&name);
        out.push_str("/>");
        if indent.is_some() {
            out.push('\n');
        }
        return;
    }
    out.push('<');
    out.push_str(&name);
    out.push('>');
    if indent.is_some() {
        out.push('\n');
    }
    for c in tree.children(node) {
        write_node(tree, c, out, indent.map(|l| l + 1));
    }
    if let Some(level) = indent {
        pad(out, level);
    }
    out.push_str("</");
    out.push_str(&name);
    out.push('>');
    if indent.is_some() {
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compact_serialization() {
        let t = Tree::from_terms("a(b,c(d))").unwrap();
        assert_eq!(to_xml(&t), "<a><b/><c><d/></c></a>");
    }

    #[test]
    fn pretty_serialization_is_indented() {
        let t = Tree::from_terms("a(b,c(d))").unwrap();
        let xml = to_xml_pretty(&t);
        assert!(xml.contains("\n  <b/>\n"));
        assert!(xml.contains("\n    <d/>\n"));
        // Pretty output parses back to the same tree.
        assert_eq!(parse(&xml).unwrap().to_terms(), "a(b,c(d))");
    }

    #[test]
    fn invalid_labels_are_sanitized() {
        let t = Tree::from_terms("a(b)").unwrap();
        // Build a tree with odd labels through the builder.
        let mut b = xpath_tree::TreeBuilder::new();
        b.open("2root");
        b.leaf("#text");
        b.close();
        let odd = b.finish().unwrap();
        let xml = to_xml(&odd);
        assert!(xml.starts_with("<x-2root>"));
        assert!(xml.contains("<x--text/>"));
        // Sanitized output is parseable.
        parse(&xml).unwrap();
        // Sanity: normal labels are untouched.
        assert_eq!(to_xml(&t), "<a><b/></a>");
    }

    #[test]
    fn parse_serialize_round_trip_on_generated_shapes() {
        for terms in ["a", "a(b)", "root(x(y,z),w(v(u)))"] {
            let t = Tree::from_terms(terms).unwrap();
            let back = parse(&to_xml(&t)).unwrap();
            assert_eq!(back.to_terms(), terms);
        }
    }

    #[test]
    fn name_validity_is_conservative() {
        for good in ["a", "x:doc", "a-b.c", "_x", "A9"] {
            assert!(is_valid_name(good), "{good}");
        }
        for bad in ["", "9a", "-a", ".a", ":a", "#text", "a b", "a&b", "héllo"] {
            assert!(!is_valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn text_leaves_are_escaped_and_round_trip() {
        use crate::parser::{parse_with, ParseOptions};
        let mut b = xpath_tree::TreeBuilder::new();
        b.open("doc");
        b.leaf("T & A < B > C");
        b.leaf("elem");
        b.leaf("héllo ❤");
        b.close();
        let t = b.finish().unwrap();
        let xml = to_xml_with_text(&t);
        assert!(xml.contains("T &amp; A &lt; B &gt; C"), "{xml}");
        assert!(xml.contains("<elem/>"), "{xml}");
        assert!(
            xml.contains("&#xE9;"),
            "non-ASCII must use numeric refs: {xml}"
        );
        assert!(xml.contains("&#x2764;"), "{xml}");
        let opts = ParseOptions {
            text_labels: true,
            ..Default::default()
        };
        let back = parse_with(&xml, &opts).unwrap();
        let labels: Vec<&str> = back
            .children(back.root())
            .map(|c| back.label_str(c))
            .collect();
        assert_eq!(labels, vec!["T & A < B > C", "elem", "héllo ❤"]);
    }

    #[test]
    fn adjacent_text_leaves_stay_separate() {
        use crate::parser::{parse_with, ParseOptions};
        let mut b = xpath_tree::TreeBuilder::new();
        b.open("doc");
        b.leaf("first text");
        b.leaf("second text");
        b.close();
        let t = b.finish().unwrap();
        let xml = to_xml_with_text(&t);
        assert!(
            xml.contains("<!--|-->"),
            "a separator must split the run: {xml}"
        );
        let back = parse_with(
            &xml,
            &ParseOptions {
                text_labels: true,
                ..Default::default()
            },
        )
        .unwrap();
        let labels: Vec<&str> = back
            .children(back.root())
            .map(|c| back.label_str(c))
            .collect();
        assert_eq!(labels, vec!["first text", "second text"]);
    }

    #[test]
    fn text_only_root_degrades_to_a_sanitised_element() {
        // XML has no document-level character data, so a single text node
        // cannot round trip; it must still serialize to a well-formed doc.
        let mut b = xpath_tree::TreeBuilder::new();
        b.open("hello world");
        b.close();
        let t = b.finish().unwrap();
        let xml = to_xml_with_text(&t);
        assert_eq!(xml, "<hello-world/>");
        crate::parser::parse(&xml).unwrap();
    }

    #[test]
    fn control_characters_round_trip_via_numeric_refs() {
        use crate::parser::{parse_with, ParseOptions};
        let mut b = xpath_tree::TreeBuilder::new();
        b.open("doc");
        b.leaf("line\nbreak\ttab");
        b.close();
        let t = b.finish().unwrap();
        let xml = to_xml_with_text(&t);
        assert!(xml.contains("&#xA;"), "{xml}");
        assert!(xml.contains("&#x9;"), "{xml}");
        assert!(
            !xml.contains('\n'),
            "escaped output must stay one line: {xml}"
        );
        let back = parse_with(
            &xml,
            &ParseOptions {
                text_labels: true,
                ..Default::default()
            },
        )
        .unwrap();
        let text = back.children(back.root()).next().unwrap();
        assert_eq!(back.label_str(text), "line\nbreak\ttab");
    }
}
