//! Parser for the concrete syntax of Core XPath 2.0 (Fig. 1 of the paper).
//!
//! The grammar follows the paper's notation, with two common conveniences:
//!
//! * a bare name `book` abbreviates `child::book`, and a bare `*`
//!   abbreviates `child::*`;
//! * parentheses may be used freely around path and test expressions.
//!
//! Operator precedence, from loosest to tightest:
//! `for … return …`  <  `union`  <  `intersect` / `except`  <  `/`  <  `[…]`.
//! Test expressions: `or`  <  `and`  <  `not`  <  atoms.
//!
//! Queries deeper than [`MAX_QUERY_DEPTH`] are refused with a "query too
//! deep" error ([`ParseError::is_too_deep`]) instead of overflowing a
//! thread's stack.

use crate::expr::{NameTest, NodeRef, PathExpr, TestExpr, Var};
use std::fmt;
use xpath_tree::Axis;

/// Parse error with a byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest query the parser accepts.  It bounds both the nesting of
/// the parser's own descent (parentheses, filters, `not`, `for`) and the
/// height of the tree it builds, which left-deep `/`, `union`,
/// `intersect`/`except` and `and`/`or` chains grow without any nesting.
/// Every later walk over a query — the Definition 1 check, Fig. 7,
/// Lemma 3, printing, compilation, `Drop` — recurses over that tree, so
/// this one constant keeps all of them within a thread's stack.
pub const MAX_QUERY_DEPTH: usize = 128;

const TOO_DEEP: &str = "query too deep";

impl ParseError {
    /// True if the input nests deeper than [`MAX_QUERY_DEPTH`].
    pub fn is_too_deep(&self) -> bool {
        self.message == TOO_DEEP
    }
}

/// A parsed node and its height (a leaf has height 1).
type Parsed<T> = Result<(T, usize), ParseError>;

/// Parse a Core XPath 2.0 path expression.
pub fn parse_path(input: &str) -> Result<PathExpr, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(tokens);
    let (expr, _) = p.path()?;
    p.expect_eof()?;
    Ok(expr)
}

/// Parse a Core XPath 2.0 test expression (the part between `[` and `]`).
pub fn parse_test(input: &str) -> Result<TestExpr, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(tokens);
    let (expr, _) = p.test()?;
    p.expect_eof()?;
    Ok(expr)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Var(String),
    Dot,
    Slash,
    DoubleColon,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Star,
    Eof,
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    position: usize,
}

/// Split `input` into tokens.  Brackets nested past [`MAX_QUERY_DEPTH`]
/// stop the scan at once: the parser would refuse them anyway, and a long
/// line of them would otherwise be tokenized whole first.
fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut open = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let position = i;
        match c {
            b'(' | b'[' => open += 1,
            b')' | b']' => open = open.saturating_sub(1),
            _ => {}
        }
        if open > MAX_QUERY_DEPTH {
            return Err(ParseError {
                position,
                message: TOO_DEEP.into(),
            });
        }
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'.' => {
                out.push(Token {
                    tok: Tok::Dot,
                    position,
                });
                i += 1;
            }
            b'/' => {
                out.push(Token {
                    tok: Tok::Slash,
                    position,
                });
                i += 1;
            }
            b'[' => {
                out.push(Token {
                    tok: Tok::LBracket,
                    position,
                });
                i += 1;
            }
            b']' => {
                out.push(Token {
                    tok: Tok::RBracket,
                    position,
                });
                i += 1;
            }
            b'(' => {
                out.push(Token {
                    tok: Tok::LParen,
                    position,
                });
                i += 1;
            }
            b')' => {
                out.push(Token {
                    tok: Tok::RParen,
                    position,
                });
                i += 1;
            }
            b'*' => {
                out.push(Token {
                    tok: Tok::Star,
                    position,
                });
                i += 1;
            }
            b':' => {
                if bytes.get(i + 1) == Some(&b':') {
                    out.push(Token {
                        tok: Tok::DoubleColon,
                        position,
                    });
                    i += 2;
                } else {
                    return Err(ParseError {
                        position,
                        message: "single ':' is not a valid token (did you mean '::'?)".into(),
                    });
                }
            }
            b'$' => {
                i += 1;
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                if i == start {
                    return Err(ParseError {
                        position,
                        message: "expected a variable name after '$'".into(),
                    });
                }
                out.push(Token {
                    tok: Tok::Var(input[start..i].to_string()),
                    position,
                });
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || matches!(bytes[i], b'_' | b'-' | b'.'))
                {
                    // A '.' inside a name is only allowed when followed by a
                    // name character; otherwise it terminates the name so
                    // that `a.b` parses as one name but `a.` does not eat the
                    // context-node dot.
                    if bytes[i] == b'.'
                        && !(i + 1 < bytes.len()
                            && (bytes[i + 1].is_ascii_alphanumeric() || bytes[i + 1] == b'_'))
                    {
                        break;
                    }
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(input[start..i].to_string()),
                    position,
                });
            }
            _ => {
                return Err(ParseError {
                    position,
                    message: format!("unexpected character {:?}", c as char),
                })
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        position: bytes.len(),
    });
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting of the descent (see [`Parser::nested`]).
    depth: usize,
    /// A parenthesised path already read (as a test) that the next
    /// [`Parser::primary`] returns instead of reading tokens: see
    /// [`Parser::unary_test`].
    resumed: Option<(PathExpr, usize)>,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            resumed: None,
        }
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].position
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.peek_pos(),
            message: message.into(),
        }
    }

    /// Run `f` one level deeper in the descent, refusing past the bound.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Parser) -> Parsed<T>) -> Parsed<T> {
        if self.depth >= MAX_QUERY_DEPTH {
            return Err(self.err(TOO_DEEP));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// The height of a new node whose tallest child has height `below`,
    /// refusing past the bound.
    fn above(&self, below: usize) -> Result<usize, ParseError> {
        if below >= MAX_QUERY_DEPTH {
            return Err(self.err(TOO_DEEP));
        }
        Ok(below + 1)
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword '{kw}'")))
        }
    }

    fn expect_tok(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            Err(self.err("unexpected trailing input"))
        }
    }

    // path := 'for' $x 'in' path 'return' path | union_expr
    fn path(&mut self) -> Parsed<PathExpr> {
        self.nested(|p| {
            if !p.at_keyword("for") {
                return p.union_expr();
            }
            p.bump();
            let var = match p.bump() {
                Tok::Var(name) => Var::new(&name),
                _ => return Err(p.err("expected a variable after 'for'")),
            };
            p.expect_keyword("in")?;
            let (p1, h1) = p.path()?;
            p.expect_keyword("return")?;
            let (p2, h2) = p.path()?;
            let h = p.above(h1.max(h2))?;
            Ok((PathExpr::For(var, Box::new(p1), Box::new(p2)), h))
        })
    }

    fn union_expr(&mut self) -> Parsed<PathExpr> {
        let (mut left, mut h) = self.intersect_expr()?;
        while self.at_keyword("union") {
            self.bump();
            let (right, hr) = self.intersect_expr()?;
            h = self.above(h.max(hr))?;
            left = PathExpr::Union(Box::new(left), Box::new(right));
        }
        Ok((left, h))
    }

    fn intersect_expr(&mut self) -> Parsed<PathExpr> {
        let (mut left, mut h) = self.seq_expr()?;
        loop {
            let intersect = if self.at_keyword("intersect") {
                true
            } else if self.at_keyword("except") {
                false
            } else {
                break;
            };
            self.bump();
            let (right, hr) = self.seq_expr()?;
            h = self.above(h.max(hr))?;
            let (l, r) = (Box::new(left), Box::new(right));
            left = if intersect {
                PathExpr::Intersect(l, r)
            } else {
                PathExpr::Except(l, r)
            };
        }
        Ok((left, h))
    }

    fn seq_expr(&mut self) -> Parsed<PathExpr> {
        let (mut left, mut h) = self.postfix()?;
        while *self.peek() == Tok::Slash {
            self.bump();
            let (right, hr) = self.postfix()?;
            h = self.above(h.max(hr))?;
            left = PathExpr::Seq(Box::new(left), Box::new(right));
        }
        Ok((left, h))
    }

    fn postfix(&mut self) -> Parsed<PathExpr> {
        let (mut base, mut h) = self.primary()?;
        while *self.peek() == Tok::LBracket {
            self.bump();
            let (test, ht) = self.test()?;
            self.expect_tok(Tok::RBracket, "']' to close the filter")?;
            h = self.above(h.max(ht))?;
            base = PathExpr::Filter(Box::new(base), Box::new(test));
        }
        Ok((base, h))
    }

    fn primary(&mut self) -> Parsed<PathExpr> {
        if let Some(resumed) = self.resumed.take() {
            return Ok(resumed);
        }
        let leaf = match self.peek().clone() {
            Tok::LParen => {
                self.bump();
                let inner = self.path()?;
                self.expect_tok(Tok::RParen, "')'")?;
                return Ok(inner);
            }
            Tok::Dot => {
                self.bump();
                PathExpr::NodeRef(NodeRef::Dot)
            }
            Tok::Var(name) => {
                self.bump();
                PathExpr::NodeRef(NodeRef::Var(Var::new(&name)))
            }
            Tok::Star => {
                self.bump();
                PathExpr::Step(Axis::Child, NameTest::Wildcard)
            }
            Tok::Ident(name) => {
                // Keywords never start a primary.
                if matches!(
                    name.as_str(),
                    "union"
                        | "intersect"
                        | "except"
                        | "and"
                        | "or"
                        | "not"
                        | "is"
                        | "in"
                        | "return"
                        | "for"
                ) {
                    return Err(self.err(format!("unexpected keyword '{name}'")));
                }
                self.bump();
                if *self.peek() == Tok::DoubleColon {
                    self.bump();
                    let axis = Axis::parse(&name)
                        .ok_or_else(|| self.err(format!("unknown axis '{name}'")))?;
                    let test = match self.bump() {
                        Tok::Star => NameTest::Wildcard,
                        Tok::Ident(n) => NameTest::Name(n),
                        _ => return Err(self.err("expected a name test after '::'")),
                    };
                    PathExpr::Step(axis, test)
                } else {
                    // Bare name abbreviation: `book` ≡ `child::book`.
                    PathExpr::Step(Axis::Child, NameTest::Name(name))
                }
            }
            other => return Err(self.err(format!("unexpected token {other:?} in path expression"))),
        };
        Ok((leaf, 1))
    }

    // test := or_test
    fn test(&mut self) -> Parsed<TestExpr> {
        self.nested(Parser::or_test)
    }

    fn or_test(&mut self) -> Parsed<TestExpr> {
        let (mut left, mut h) = self.and_test()?;
        while self.at_keyword("or") {
            self.bump();
            let (right, hr) = self.and_test()?;
            h = self.above(h.max(hr))?;
            left = TestExpr::Or(Box::new(left), Box::new(right));
        }
        Ok((left, h))
    }

    fn and_test(&mut self) -> Parsed<TestExpr> {
        let (mut left, mut h) = self.unary_test()?;
        while self.at_keyword("and") {
            self.bump();
            let (right, hr) = self.unary_test()?;
            h = self.above(h.max(hr))?;
            left = TestExpr::And(Box::new(left), Box::new(right));
        }
        Ok((left, h))
    }

    fn unary_test(&mut self) -> Parsed<TestExpr> {
        if self.at_keyword("not") {
            self.bump();
            let (inner, h) = self.nested(Parser::unary_test)?;
            let h = self.above(h)?;
            return Ok((TestExpr::Not(Box::new(inner)), h));
        }
        if *self.peek() == Tok::LParen {
            // Could be a parenthesised test or a parenthesised path; try the
            // test reading first and fall back to a path on failure.
            let save = self.pos;
            self.bump();
            if let Ok((inner, h)) = self.test() {
                if *self.peek() == Tok::RParen {
                    self.bump();
                    // Only accept the test reading if what follows cannot
                    // extend a path (e.g. `(...)/child::a` must be a path).
                    if !matches!(self.peek(), Tok::Slash | Tok::LBracket)
                        && !self.at_keyword("union")
                        && !self.at_keyword("intersect")
                        && !self.at_keyword("except")
                        && !self.at_keyword("is")
                    {
                        return Ok((inner, h));
                    }
                    // A path read as a test is the same path: continue it
                    // from here instead of reading it again, which would
                    // double the work per level of such nesting.
                    if let TestExpr::Path(path) = inner {
                        // `comp_or_path` put the test node above the path.
                        self.resumed = Some((path, h - 1));
                        return self.comp_or_path();
                    }
                }
            }
            self.pos = save;
        }
        self.comp_or_path()
    }

    fn comp_or_path(&mut self) -> Parsed<TestExpr> {
        let (path, h) = self.union_expr()?;
        if self.at_keyword("is") {
            self.bump();
            let left = path_to_noderef(&path)
                .ok_or_else(|| self.err("the left operand of 'is' must be '.' or a variable"))?;
            let right = match self.bump() {
                Tok::Dot => NodeRef::Dot,
                Tok::Var(name) => NodeRef::Var(Var::new(&name)),
                _ => return Err(self.err("the right operand of 'is' must be '.' or a variable")),
            };
            return Ok((TestExpr::Comp(left, right), 1));
        }
        let h = self.above(h)?;
        Ok((TestExpr::Path(path), h))
    }
}

fn path_to_noderef(p: &PathExpr) -> Option<NodeRef> {
    match p {
        PathExpr::NodeRef(r) => Some(r.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(src: &str) -> String {
        parse_path(src).unwrap().to_string()
    }

    #[test]
    fn steps_and_abbreviations() {
        assert_eq!(round_trip("child::book"), "child::book");
        assert_eq!(round_trip("book"), "child::book");
        assert_eq!(round_trip("*"), "child::*");
        assert_eq!(round_trip("descendant::*"), "descendant::*");
        assert_eq!(round_trip("following_sibling::a"), "following_sibling::a");
        assert_eq!(round_trip("following-sibling::a"), "following_sibling::a");
    }

    #[test]
    fn composition_union_intersect_except() {
        assert_eq!(round_trip("child::a/child::b"), "child::a/child::b");
        assert_eq!(
            round_trip("child::a union child::b"),
            "child::a union child::b"
        );
        assert_eq!(
            round_trip("child::a intersect child::b"),
            "child::a intersect child::b"
        );
        assert_eq!(
            round_trip("child::a except child::b"),
            "child::a except child::b"
        );
        // precedence: / binds tighter than intersect which binds tighter than union
        assert_eq!(
            round_trip("child::a union child::b intersect child::c/child::d"),
            "child::a union child::b intersect child::c/child::d"
        );
        let p = parse_path("child::a union child::b intersect child::c").unwrap();
        assert!(matches!(p, PathExpr::Union(_, _)));
    }

    #[test]
    fn parentheses_override_precedence() {
        let p = parse_path("(child::a union child::b)/child::c").unwrap();
        assert!(matches!(p, PathExpr::Seq(_, _)));
        assert_eq!(p.to_string(), "(child::a union child::b)/child::c");
    }

    #[test]
    fn variables_and_dots() {
        assert_eq!(round_trip("$x"), "$x");
        assert_eq!(round_trip("."), ".");
        assert_eq!(round_trip("$x/child::a"), "$x/child::a");
    }

    #[test]
    fn filters_and_tests() {
        assert_eq!(
            round_trip("child::book[child::author]"),
            "child::book[child::author]"
        );
        assert_eq!(
            round_trip("child::book[child::author and child::title]"),
            "child::book[child::author and child::title]"
        );
        assert_eq!(
            round_trip("child::book[not(child::author) or child::title]"),
            "child::book[not(child::author) or child::title]"
        );
        assert_eq!(round_trip("child::a[. is $x]"), "child::a[. is $x]");
        assert_eq!(round_trip("child::a[$x is $y]"), "child::a[$x is $y]");
        assert_eq!(round_trip("child::a[. is .]"), "child::a[. is .]");
        assert_eq!(
            round_trip(".[. is $x and not(parent::*)]"),
            ".[. is $x and not(parent::*)]"
        );
    }

    #[test]
    fn nested_filters_and_chained_filters() {
        assert_eq!(
            round_trip("child::a[child::b[child::c]]"),
            "child::a[child::b[child::c]]"
        );
        assert_eq!(
            round_trip("child::a[child::b][child::c]"),
            "child::a[child::b][child::c]"
        );
    }

    #[test]
    fn for_loops() {
        let src = "for $x in descendant::book return child::author[. is $x]";
        assert_eq!(round_trip(src), src);
        // Nested loops
        let nested = "for $x in child::a return for $y in child::b return $x";
        assert_eq!(round_trip(nested), nested);
    }

    #[test]
    fn paper_introduction_example() {
        let src = "descendant::book[child::author[. is $y] and child::title[. is $z]]";
        assert_eq!(round_trip(src), src);
    }

    #[test]
    fn parenthesised_test_expressions() {
        let p = parse_path("child::a[(child::b and child::c) or child::d]").unwrap();
        match &p {
            PathExpr::Filter(_, t) => assert!(matches!(**t, TestExpr::Or(_, _))),
            other => panic!("expected filter, got {other:?}"),
        }
        // A parenthesised path followed by '/' inside a test stays a path.
        let q = parse_path("child::a[(child::b union child::c)/child::d]").unwrap();
        match &q {
            PathExpr::Filter(_, t) => assert!(matches!(**t, TestExpr::Path(PathExpr::Seq(_, _)))),
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn errors_are_reported_with_positions() {
        for bad in [
            "",
            "child::",
            "child:a",
            "bogusaxis::a",
            "child::a[",
            "child::a]",
            "child::a union",
            "for $x return child::a",
            "for x in child::a return child::b",
            "child::a child::b",
            "$",
            "child::a[child::b is $x]",
            "(child::a",
            "child::a[not]",
        ] {
            let err = parse_path(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad:?}");
            assert!(err.to_string().contains("parse error"), "{bad:?}");
        }
    }

    #[test]
    fn keywords_cannot_start_a_path() {
        assert!(parse_path("union").is_err());
        assert!(parse_path("not").is_err());
        // ...but they are fine as name tests after an axis.
        assert_eq!(round_trip("child::union"), "child::union");
        assert_eq!(round_trip("child::not"), "child::not");
    }

    #[test]
    fn parse_test_entry_point() {
        let t = parse_test("child::a and . is $x").unwrap();
        assert!(matches!(t, TestExpr::And(_, _)));
        assert!(parse_test("child::a and").is_err());
    }

    #[test]
    fn queries_past_the_depth_bound_are_refused() {
        type Shape = fn(usize) -> String;
        let shapes: [(&str, Shape); 6] = [
            ("parentheses", |n| {
                format!("{}a{}", "(".repeat(n), ")".repeat(n))
            }),
            ("filters", |n| {
                format!("{}a{}", "a[".repeat(n), "]".repeat(n))
            }),
            ("slash chain", |n| vec!["a"; n].join("/")),
            ("except chain", |n| vec!["a"; n].join(" except ")),
            ("or chain", |n| format!(".[{}]", vec!["a"; n].join(" or "))),
            ("for", |n| {
                let fors: String = (0..n).map(|i| format!("for $x{i} in a return ")).collect();
                format!("{fors}.")
            }),
        ];
        for (name, shape) in shapes {
            let at_bound = (1..=MAX_QUERY_DEPTH + 1)
                .take_while(|&n| parse_path(&shape(n)).is_ok())
                .last()
                .unwrap();
            assert!(at_bound >= MAX_QUERY_DEPTH / 2 - 1, "{name}: {at_bound}");
            let err = parse_path(&shape(at_bound + 1)).unwrap_err();
            assert!(err.is_too_deep(), "{name}: {err}");
            // Far past the bound the refusal is the same, and immediate.
            assert!(
                parse_path(&shape(100_000)).unwrap_err().is_too_deep(),
                "{name}"
            );
        }
        assert!(!parse_path("child::(").unwrap_err().is_too_deep());
    }

    /// A parenthesised path inside a filter is read once: as a test, then
    /// continued as a path.  Re-reading it doubled the work per level, so
    /// 40 levels of this shape never finished.
    #[test]
    fn parenthesised_paths_in_filters_are_read_once() {
        let nest = |open: &str, close: &str, levels: usize| {
            let mut q = String::from("child::a");
            for _ in 0..levels {
                q = format!("{open}child::a[{q}]{close}/child::a");
            }
            format!("self::*[{q}]")
        };
        let doubled = parse_path(&nest("((", "))", 40)).unwrap();
        assert_eq!(doubled, parse_path(&nest("", "", 40)).unwrap());
        assert_eq!(
            round_trip("self::*[(child::a)/child::b]"),
            "self::*[child::a/child::b]"
        );
        assert_eq!(round_trip("self::*[(. ) is $x]"), "self::*[. is $x]");
        assert_eq!(
            round_trip("self::*[(a) union b]"),
            "self::*[child::a union child::b]"
        );
        assert_eq!(
            round_trip("self::*[(a)[b] and (c)]"),
            "self::*[child::a[child::b] and child::c]"
        );
        assert_eq!(
            round_trip("self::*[(a or b)]"),
            "self::*[child::a or child::b]"
        );
        assert!(parse_path("self::*[(a or b)/c]").is_err());
    }

    #[test]
    fn deeply_nested_expression_parses() {
        let mut src = String::from("child::a");
        for _ in 0..100 {
            src = format!("({src})[child::b]");
        }
        let p = parse_path(&src).unwrap();
        assert!(p.size() > 100);
    }
}
