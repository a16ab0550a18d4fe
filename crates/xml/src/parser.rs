//! Hand-written recursive-descent parser for a practical XML subset.

use xpath_tree::{Tree, TreeBuilder, TreeError};

/// A source location: 1-based line and column (column counts bytes within
/// the line, so multi-byte UTF-8 text advances it per byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column within the line.
    pub column: usize,
    /// Raw byte offset in the input.
    pub position: usize,
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Compute the [`Location`] of a byte offset in `input`.
pub fn locate(input: &str, position: usize) -> Location {
    let upto = position.min(input.len());
    let bytes = input.as_bytes();
    let mut line = 1;
    let mut line_start = 0;
    for (i, &b) in bytes[..upto].iter().enumerate() {
        if b == b'\n' {
            line += 1;
            line_start = i + 1;
        }
    }
    Location {
        line,
        column: upto - line_start + 1,
        position,
    }
}

/// Errors reported by the XML parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Unexpected end of input.
    UnexpectedEof { context: &'static str },
    /// A syntactic problem at a source location.
    Syntax { location: Location, message: String },
    /// Closing tag does not match the open element.
    MismatchedTag {
        location: Location,
        expected: String,
        found: String,
    },
    /// The document contains no root element.
    NoRootElement,
    /// Content found after the root element closed.
    TrailingContent { location: Location },
    /// The underlying tree construction failed.
    Tree(TreeError),
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while parsing {context}")
            }
            XmlError::Syntax { location, message } => {
                write!(f, "XML syntax error at {location}: {message}")
            }
            XmlError::MismatchedTag {
                location,
                expected,
                found,
            } => write!(
                f,
                "mismatched closing tag at {location}: expected </{expected}>, found </{found}>"
            ),
            XmlError::NoRootElement => write!(f, "document has no root element"),
            XmlError::TrailingContent { location } => {
                write!(f, "content after the root element at {location}")
            }
            XmlError::Tree(e) => write!(f, "tree construction failed: {e}"),
        }
    }
}

impl std::error::Error for XmlError {}

impl From<TreeError> for XmlError {
    fn from(e: TreeError) -> XmlError {
        XmlError::Tree(e)
    }
}

/// Options controlling how XML documents are mapped to trees.
#[derive(Debug, Clone, Default)]
pub struct ParseOptions {
    /// Keep non-whitespace character data as `#text`-labelled leaves.
    /// Default: `false` (the paper's data model ignores data values).
    pub keep_text: bool,
    /// Map each attribute `name="…"` to a child element labelled
    /// `@name`.  Default: `false`.
    pub attributes_as_children: bool,
    /// Label text leaves with their decoded character data instead of
    /// `#text` (implies keeping text).  With
    /// [`crate::serializer::to_xml_with_text`] this makes
    /// parse ∘ serialize the identity on trees with text leaves.
    /// Default: `false`.
    pub text_labels: bool,
}

/// Label given to text leaves when [`ParseOptions::keep_text`] is enabled.
pub const TEXT_LABEL: &str = "#text";

/// Parse an XML document with default options (elements only).
pub fn parse(input: &str) -> Result<Tree, XmlError> {
    parse_with(input, &ParseOptions::default())
}

/// Parse an XML document with explicit [`ParseOptions`].
pub fn parse_with(input: &str, options: &ParseOptions) -> Result<Tree, XmlError> {
    let mut p = Parser {
        source: input,
        input: input.as_bytes(),
        pos: 0,
        options: options.clone(),
        builder: TreeBuilder::new(),
        open_names: Vec::new(),
        seen_root: false,
    };
    p.document()?;
    Ok(p.builder.finish()?)
}

struct Parser<'a> {
    source: &'a str,
    input: &'a [u8],
    pos: usize,
    options: ParseOptions,
    builder: TreeBuilder,
    open_names: Vec<String>,
    seen_root: bool,
}

impl<'a> Parser<'a> {
    fn location(&self) -> Location {
        locate(self.source, self.pos)
    }

    fn syntax(&self, message: impl Into<String>) -> XmlError {
        XmlError::Syntax {
            location: self.location(),
            message: message.into(),
        }
    }

    fn eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_whitespace(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, s: &str, context: &'static str) -> Result<(), XmlError> {
        if self.starts_with(s) {
            self.advance(s.len());
            Ok(())
        } else if self.eof() {
            Err(XmlError::UnexpectedEof { context })
        } else {
            Err(self.syntax(format!("expected `{s}` while parsing {context}")))
        }
    }

    fn skip_until(&mut self, terminator: &str, context: &'static str) -> Result<(), XmlError> {
        match find_subslice(&self.input[self.pos..], terminator.as_bytes()) {
            Some(offset) => {
                self.pos += offset + terminator.len();
                Ok(())
            }
            None => Err(XmlError::UnexpectedEof { context }),
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if ok {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.syntax("expected a name"));
        }
        let name = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.syntax("name is not valid UTF-8"))?;
        if name.as_bytes()[0].is_ascii_digit() {
            return Err(self.syntax("names must not start with a digit"));
        }
        Ok(name.to_string())
    }

    fn document(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace();
            if self.eof() {
                break;
            }
            if self.starts_with("<?") {
                self.skip_until("?>", "processing instruction")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->", "comment")?;
            } else if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                self.skip_doctype()?;
            } else if self.starts_with("<") {
                if self.seen_root {
                    return Err(XmlError::TrailingContent {
                        location: self.location(),
                    });
                }
                self.element()?;
                self.seen_root = true;
            } else {
                // Character data outside the root element: only whitespace is
                // allowed, and whitespace was already skipped.
                return Err(if self.seen_root {
                    XmlError::TrailingContent {
                        location: self.location(),
                    }
                } else {
                    self.syntax("character data before the root element")
                });
            }
        }
        if !self.seen_root {
            return Err(XmlError::NoRootElement);
        }
        Ok(())
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        // Skip to the matching `>` taking a possible internal subset
        // `[...]` into account.
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            match c {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(XmlError::UnexpectedEof { context: "DOCTYPE" })
    }

    /// One element and its content.  Open elements live on `open_names`,
    /// not on the call stack, so nesting depth is bounded by memory only.
    fn element(&mut self) -> Result<(), XmlError> {
        let outer = self.open_names.len();
        self.start_tag()?;
        while self.open_names.len() > outer {
            if self.eof() {
                return Err(XmlError::UnexpectedEof {
                    context: "element content",
                });
            }
            if self.starts_with("</") {
                self.advance(2);
                let close = self.name()?;
                self.skip_whitespace();
                self.expect(">", "closing tag")?;
                let open = self.open_names.pop().expect("open element on the stack");
                if open != close {
                    return Err(XmlError::MismatchedTag {
                        location: self.location(),
                        expected: open,
                        found: close,
                    });
                }
                self.builder.close();
            } else if self.starts_with("<!--") {
                self.skip_until("-->", "comment")?;
            } else if self.starts_with("<![CDATA[") {
                let start = self.pos + "<![CDATA[".len();
                let end_rel = find_subslice(&self.input[start..], b"]]>")
                    .ok_or(XmlError::UnexpectedEof { context: "CDATA" })?;
                let text = std::str::from_utf8(&self.input[start..start + end_rel])
                    .map_err(|_| self.syntax("CDATA is not valid UTF-8"))?
                    .to_string();
                self.pos = start + end_rel + 3;
                self.text_node(&text);
            } else if self.starts_with("<?") {
                self.skip_until("?>", "processing instruction")?;
            } else if self.starts_with("<") {
                self.start_tag()?;
            } else {
                let text = self.char_data()?;
                self.text_node(&text);
            }
        }
        Ok(())
    }

    /// A start tag and its attributes.  A self-closing element is opened
    /// and closed at once; any other stays open on `open_names`.
    fn start_tag(&mut self) -> Result<(), XmlError> {
        self.expect("<", "element start tag")?;
        let name = self.name()?;
        self.builder.open(&name);
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.advance(1);
                    self.open_names.push(name);
                    return Ok(());
                }
                Some(b'/') => {
                    self.expect("/>", "self-closing tag")?;
                    self.builder.close();
                    return Ok(());
                }
                Some(_) => {
                    let (attr, _value) = self.attribute()?;
                    if self.options.attributes_as_children {
                        self.builder.leaf(&format!("@{attr}"));
                    }
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        context: "start tag",
                    })
                }
            }
        }
    }

    fn text_node(&mut self, text: &str) {
        if text.trim().is_empty() {
            return;
        }
        if self.options.text_labels {
            self.builder.leaf(text);
        } else if self.options.keep_text {
            self.builder.leaf(TEXT_LABEL);
        }
    }

    fn char_data(&mut self) -> Result<String, XmlError> {
        let mut out = String::new();
        loop {
            // Take a maximal run of plain bytes in one go: `<` and `&` are
            // ASCII, so a run boundary can never split a UTF-8 code point.
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'<' || c == b'&' {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| self.syntax("character data is not valid UTF-8"))?,
                );
            }
            match self.peek() {
                Some(b'&') => out.push(self.entity()?),
                _ => break,
            }
        }
        Ok(out)
    }

    fn entity(&mut self) -> Result<char, XmlError> {
        self.expect("&", "entity reference")?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b';' {
                break;
            }
            self.pos += 1;
        }
        if self.eof() {
            return Err(XmlError::UnexpectedEof {
                context: "entity reference",
            });
        }
        let body = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.syntax("entity is not valid UTF-8"))?
            .to_string();
        self.advance(1); // the ';'
        let ch = match body.as_str() {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "apos" => '\'',
            "quot" => '"',
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                let code = u32::from_str_radix(&body[2..], 16)
                    .map_err(|_| self.syntax(format!("invalid character reference &{body};")))?;
                char::from_u32(code)
                    .ok_or_else(|| self.syntax(format!("invalid code point in &{body};")))?
            }
            _ if body.starts_with('#') => {
                let code = body[1..]
                    .parse::<u32>()
                    .map_err(|_| self.syntax(format!("invalid character reference &{body};")))?;
                char::from_u32(code)
                    .ok_or_else(|| self.syntax(format!("invalid code point in &{body};")))?
            }
            _ => return Err(self.syntax(format!("unknown entity &{body};"))),
        };
        Ok(ch)
    }

    fn attribute(&mut self) -> Result<(String, String), XmlError> {
        let name = self.name()?;
        self.skip_whitespace();
        self.expect("=", "attribute")?;
        self.skip_whitespace();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.syntax("attribute value must be quoted")),
        };
        self.advance(1);
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                break;
            }
            self.pos += 1;
        }
        if self.eof() {
            return Err(XmlError::UnexpectedEof {
                context: "attribute value",
            });
        }
        let value = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.syntax("attribute value is not valid UTF-8"))?
            .to_string();
        self.advance(1);
        Ok((name, value))
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (0..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_only() {
        let t = parse("<bib><book><author/><title/></book></bib>").unwrap();
        assert_eq!(t.to_terms(), "bib(book(author,title))");
    }

    #[test]
    fn self_closing_and_nested() {
        let t = parse("<a><b/><c><d/></c></a>").unwrap();
        assert_eq!(t.to_terms(), "a(b,c(d))");
    }

    #[test]
    fn declaration_comments_doctype_are_skipped() {
        let src = r#"<?xml version="1.0" encoding="UTF-8"?>
            <!DOCTYPE bib [ <!ELEMENT bib (book*)> ]>
            <!-- a bibliography -->
            <bib><!-- inner --><book/></bib>"#;
        let t = parse(src).unwrap();
        assert_eq!(t.to_terms(), "bib(book)");
    }

    #[test]
    fn text_is_dropped_by_default_and_kept_on_request() {
        let src = "<book><title>T &amp; A</title></book>";
        let t = parse(src).unwrap();
        assert_eq!(t.to_terms(), "book(title)");
        let t2 = parse_with(
            src,
            &ParseOptions {
                keep_text: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(t2.to_terms(), "book(title(#text))");
    }

    #[test]
    fn attributes_are_validated_and_optionally_mapped() {
        let src = r#"<book isbn="123" lang='en'><title/></book>"#;
        let t = parse(src).unwrap();
        assert_eq!(t.to_terms(), "book(title)");
        let t2 = parse_with(
            src,
            &ParseOptions {
                attributes_as_children: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(t2.to_terms(), "book(@isbn,@lang,title)");
    }

    #[test]
    fn cdata_and_char_refs() {
        let src = "<a><![CDATA[ <raw> ]]>&#65;&#x42;</a>";
        let t = parse_with(
            src,
            &ParseOptions {
                keep_text: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(t.to_terms(), "a(#text,#text)");
        // Default options drop the text entirely.
        assert_eq!(parse(src).unwrap().to_terms(), "a");
    }

    #[test]
    fn whitespace_only_text_never_creates_nodes() {
        let t = parse_with(
            "<a>\n   <b/>   \n</a>",
            &ParseOptions {
                keep_text: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(t.to_terms(), "a(b)");
    }

    #[test]
    fn mismatched_tags_are_reported() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::MismatchedTag { .. }));
        let msg = err.to_string();
        assert!(msg.contains("</b>") || msg.contains("expected"));
    }

    #[test]
    fn structural_errors() {
        assert!(matches!(parse(""), Err(XmlError::NoRootElement)));
        assert!(matches!(parse("   \n "), Err(XmlError::NoRootElement)));
        assert!(matches!(
            parse("<a/><b/>"),
            Err(XmlError::TrailingContent { .. })
        ));
        assert!(matches!(parse("<a>"), Err(XmlError::UnexpectedEof { .. })));
        assert!(matches!(parse("<a"), Err(XmlError::UnexpectedEof { .. })));
        assert!(matches!(parse("hello"), Err(XmlError::Syntax { .. })));
        assert!(matches!(parse("<1a/>"), Err(XmlError::Syntax { .. })));
        assert!(matches!(
            parse("<a attr=unquoted/>"),
            Err(XmlError::Syntax { .. })
        ));
        assert!(matches!(
            parse("<a>&bogus;</a>"),
            Err(XmlError::Syntax { .. })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = parse("<a>&bogus;</a>").unwrap_err();
        assert!(e.to_string().contains("bogus"));
        let e = parse("<a/><b/>").unwrap_err();
        assert!(e.to_string().contains("after the root"));
    }

    #[test]
    fn locate_reports_one_based_lines_and_columns() {
        let src = "ab\ncde\n\nf";
        assert_eq!(
            locate(src, 0),
            Location {
                line: 1,
                column: 1,
                position: 0
            }
        );
        assert_eq!(
            locate(src, 2),
            Location {
                line: 1,
                column: 3,
                position: 2
            }
        );
        assert_eq!(
            locate(src, 3),
            Location {
                line: 2,
                column: 1,
                position: 3
            }
        );
        assert_eq!(
            locate(src, 6),
            Location {
                line: 2,
                column: 4,
                position: 6
            }
        );
        assert_eq!(
            locate(src, 7),
            Location {
                line: 3,
                column: 1,
                position: 7
            }
        );
        assert_eq!(
            locate(src, 8),
            Location {
                line: 4,
                column: 1,
                position: 8
            }
        );
        // Past-the-end offsets clamp to the final location.
        assert_eq!(locate(src, 999).line, 4);
        assert_eq!(format!("{}", locate(src, 3)), "2:1");
    }

    #[test]
    fn syntax_errors_report_line_and_column_on_multi_line_input() {
        // The bogus entity sits on line 3; the error points just past its
        // closing `;` (column 15 of `  <bad>&bogus;`).
        let src = "<doc>\n  <ok/>\n  <bad>&bogus;</bad>\n</doc>";
        let err = parse(src).unwrap_err();
        match &err {
            XmlError::Syntax { location, .. } => {
                assert_eq!(location.line, 3, "{err}");
                assert_eq!(location.column, 15, "{err}");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
        assert!(err.to_string().contains("at 3:15"), "{err}");

        // Mismatched closing tags report the line of the close tag.
        let src = "<doc>\n  <open>\n</doc>";
        let err = parse(src).unwrap_err();
        match &err {
            XmlError::MismatchedTag { location, .. } => assert_eq!(location.line, 3, "{err}"),
            other => panic!("expected a mismatched tag error, got {other:?}"),
        }
        assert!(err.to_string().contains("3:"), "{err}");

        // Trailing content reports where the second root starts.
        let src = "<doc/>\n\n<oops/>";
        let err = parse(src).unwrap_err();
        match &err {
            XmlError::TrailingContent { location } => {
                assert_eq!((location.line, location.column), (3, 1), "{err}")
            }
            other => panic!("expected trailing content, got {other:?}"),
        }
        assert!(err.to_string().contains("3:1"), "{err}");

        // Single-line input degenerates to line 1 / byte column.
        let err = parse("<a attr=unquoted/>").unwrap_err();
        match err {
            XmlError::Syntax { location, .. } => {
                assert_eq!(location.line, 1);
                assert_eq!(location.column, location.position + 1);
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    #[test]
    fn multibyte_text_survives_parsing() {
        let t = parse_with(
            "<a>héllo wörld ❤</a>",
            &ParseOptions {
                text_labels: true,
                ..Default::default()
            },
        )
        .unwrap();
        let text = t.children(t.root()).next().unwrap();
        assert_eq!(t.label_str(text), "héllo wörld ❤");
    }

    #[test]
    fn text_labels_keep_decoded_content_as_labels() {
        let src = "<book><title>T &amp; A</title><!-- split -->tail</book>";
        let t = parse_with(
            src,
            &ParseOptions {
                text_labels: true,
                ..Default::default()
            },
        )
        .unwrap();
        let kids: Vec<&str> = t.children(t.root()).map(|c| t.label_str(c)).collect();
        assert_eq!(kids, vec!["title", "tail"]);
        let title = t.children(t.root()).next().unwrap();
        let inner: Vec<&str> = t.children(title).map(|c| t.label_str(c)).collect();
        assert_eq!(inner, vec!["T & A"]);
    }

    #[test]
    fn deeply_nested_document() {
        // Deeper than any call stack allows one frame per level.
        let depth = 100_000;
        let src = format!("{}<leaf/>{}", "<d>".repeat(depth), "</d>".repeat(depth));
        let t = parse(&src).unwrap();
        assert_eq!(t.len(), depth + 1);
        assert_eq!(t.height(), depth);
        assert!(matches!(
            parse(&src[..src.len() - 4]),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn namespaced_names_are_plain_labels() {
        let t = parse("<x:doc><x:item/></x:doc>").unwrap();
        assert_eq!(t.to_terms(), "x:doc(x:item)");
    }
}
