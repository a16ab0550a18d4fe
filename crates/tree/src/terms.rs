//! Compact term syntax `a(b,c(d,e))` for trees.
//!
//! This is the notation the paper uses for unranked trees (`t = a(t1 … tn)`).
//! It is convenient for tests, documentation examples and golden files.
//!
//! Grammar:
//!
//! ```text
//! tree  ::= label ( '(' tree (',' tree)* ')' )?
//! label ::= [A-Za-z0-9_.:-]+
//! ```
//!
//! Whitespace is allowed around labels and punctuation.

use crate::builder::TreeBuilder;
use crate::tree::{NodeId, Tree};
use crate::TreeError;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: &str) -> TreeError {
        TreeError::TermSyntax {
            position: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn label(&mut self) -> Result<String, TreeError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() {
            let c = self.input[self.pos];
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b':' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a label"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .expect("label bytes are ASCII")
            .to_string())
    }

    /// One term.  `open` counts the terms whose child list is still open,
    /// so nesting depth is bounded by memory, not by the call stack.
    fn tree(&mut self, b: &mut TreeBuilder) -> Result<(), TreeError> {
        let mut open = 0usize;
        loop {
            let label = self.label()?;
            b.open(&label);
            self.skip_ws();
            if self.peek() == Some(b'(') {
                self.pos += 1;
                open += 1;
                continue;
            }
            b.close();
            // A term is complete: close the lists it ends, up to the next
            // sibling term.
            loop {
                if open == 0 {
                    return Ok(());
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        break;
                    }
                    Some(b')') => {
                        self.pos += 1;
                        b.close();
                        open -= 1;
                    }
                    _ => return Err(self.err("expected ',' or ')'")),
                }
            }
        }
    }
}

/// Parse the compact term syntax into a [`Tree`].
pub fn parse_terms(input: &str) -> Result<Tree, TreeError> {
    let mut p = Parser::new(input);
    let mut b = TreeBuilder::new();
    p.tree(&mut b)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input after the root term"));
    }
    b.finish()
}

/// Render a tree into the compact term syntax.
pub fn to_terms(tree: &Tree) -> String {
    let mut out = String::new();
    write_node(tree, tree.root(), &mut out);
    out
}

fn write_node(tree: &Tree, node: NodeId, out: &mut String) {
    out.push_str(tree.label_str(node));
    let mut children = tree.children(node).peekable();
    if children.peek().is_some() {
        out.push('(');
        let mut first = true;
        for c in children {
            if !first {
                out.push(',');
            }
            first = false;
            write_node(tree, c, out);
        }
        out.push(')');
    }
}

/// Render a tree as an indented outline, one node per line — handy for
/// debugging larger documents.
pub fn to_outline(tree: &Tree) -> String {
    let mut out = String::new();
    for n in tree.descendants_or_self(tree.root()) {
        for _ in 0..tree.depth(n) {
            out.push_str("  ");
        }
        out.push_str(tree.label_str(n));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_print_round_trip() {
        for s in [
            "a",
            "a(b)",
            "a(b,c)",
            "a(b(c,d),e(f))",
            "bib(book(author,title),book(author,title))",
            "x(y(z(w(v))))",
        ] {
            let t = parse_terms(s).unwrap();
            assert_eq!(to_terms(&t), s);
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let t = parse_terms("  a ( b , c ( d ) ) ").unwrap();
        assert_eq!(to_terms(&t), "a(b,c(d))");
    }

    /// Nesting is bounded by memory, not by the stack: a chain 10⁵ deep
    /// parses, and `subtree` copies it.
    #[test]
    fn chains_nested_a_hundred_thousand_deep_parse_and_copy() {
        let depth = 100_000;
        let src = format!("{}a{}", "a(".repeat(depth - 1), ")".repeat(depth - 1));
        let t = parse_terms(&src).unwrap();
        assert_eq!((t.len(), t.height()), (depth, depth - 1));
        let sub = t.subtree(NodeId(1));
        assert_eq!((sub.len(), sub.height()), (depth - 1, depth - 2));
        sub.check_invariants().unwrap();
        assert!(parse_terms(&src[..src.len() - 1]).is_err());
    }

    #[test]
    fn labels_with_punctuation() {
        let t = parse_terms("ns:doc(item-1,item_2,item.3)").unwrap();
        assert_eq!(t.nodes_with_label_str("item-1").len(), 1);
        assert_eq!(t.nodes_with_label_str("ns:doc").len(), 1);
    }

    #[test]
    fn syntax_errors_carry_positions() {
        for bad in ["", "(a)", "a(", "a(b", "a(b,)", "a)b", "a(b))", "a b"] {
            let err = parse_terms(bad).unwrap_err();
            match err {
                TreeError::TermSyntax { .. } => {}
                other => panic!("expected syntax error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn outline_has_one_line_per_node() {
        let t = parse_terms("a(b(c),d)").unwrap();
        let outline = to_outline(&t);
        assert_eq!(outline.lines().count(), t.len());
        assert!(outline.starts_with("a\n"));
        assert!(outline.contains("    c"));
    }
}
