//! Concrete syntax for FO formulas.
//!
//! Grammar (case-sensitive keywords, whitespace insensitive):
//!
//! ```text
//! formula := 'exists' name '.' formula
//!          | 'forall' name '.' formula
//!          | or_formula
//! or_formula  := and_formula ('or' and_formula)*
//! and_formula := unary ('and' unary)*
//! unary   := 'not' unary | atom | '(' formula ')'
//! atom    := 'chstar' '(' name ',' name ')'
//!          | 'nsstar' '(' name ',' name ')'
//!          | 'lab' '(' name ',' name ')'            (label, variable)
//!          | name '=' name
//! ```

use crate::formula::Formula;
use std::fmt;

/// Parse error with position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoParseError {
    /// Byte offset of the error.
    pub position: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for FoParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FO parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for FoParseError {}

/// Parse an FO formula from its concrete syntax.
pub fn parse_formula(input: &str) -> Result<Formula, FoParseError> {
    let mut p = P {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let f = p.formula()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input"));
    }
    Ok(f)
}

struct P<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> P<'a> {
    fn err(&self, message: impl Into<String>) -> FoParseError {
        FoParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek_word(&mut self) -> Option<String> {
        self.ws();
        let start = self.pos;
        let mut end = start;
        while end < self.bytes.len()
            && (self.bytes[end].is_ascii_alphanumeric() || self.bytes[end] == b'_')
        {
            end += 1;
        }
        if end == start {
            None
        } else {
            Some(
                std::str::from_utf8(&self.bytes[start..end])
                    .unwrap()
                    .to_string(),
            )
        }
    }

    fn eat_word(&mut self, w: &str) -> bool {
        let save = self.pos;
        if self.peek_word().as_deref() == Some(w) {
            self.pos += w.len();
            true
        } else {
            self.pos = save;
            false
        }
    }

    fn name(&mut self) -> Result<String, FoParseError> {
        match self.peek_word() {
            Some(w) => {
                self.pos += w.len();
                Ok(w)
            }
            None => Err(self.err("expected a name")),
        }
    }

    fn eat_char(&mut self, c: u8) -> bool {
        self.ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == c {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, c: u8) -> Result<(), FoParseError> {
        if self.eat_char(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn formula(&mut self) -> Result<Formula, FoParseError> {
        if self.eat_word("exists") {
            let x = self.name()?;
            self.expect_char(b'.')?;
            let body = self.formula()?;
            return Ok(Formula::Exists(xpath_ast::Var::new(&x), Box::new(body)));
        }
        if self.eat_word("forall") {
            let x = self.name()?;
            self.expect_char(b'.')?;
            let body = self.formula()?;
            return Ok(Formula::forall(&x, body));
        }
        self.or_formula()
    }

    fn or_formula(&mut self) -> Result<Formula, FoParseError> {
        let mut left = self.and_formula()?;
        while self.eat_word("or") {
            let right = self.and_formula()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and_formula(&mut self) -> Result<Formula, FoParseError> {
        let mut left = self.unary()?;
        while self.eat_word("and") {
            let right = self.unary()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Formula, FoParseError> {
        if self.eat_word("not") {
            return Ok(self.unary()?.negate());
        }
        if self.eat_char(b'(') {
            let inner = self.formula()?;
            self.expect_char(b')')?;
            return Ok(inner);
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Formula, FoParseError> {
        let word = self.name()?;
        match word.as_str() {
            "chstar" | "nsstar" => {
                self.expect_char(b'(')?;
                let x = self.name()?;
                self.expect_char(b',')?;
                let y = self.name()?;
                self.expect_char(b')')?;
                Ok(if word == "chstar" {
                    Formula::ch_star(&x, &y)
                } else {
                    Formula::ns_star(&x, &y)
                })
            }
            "lab" => {
                self.expect_char(b'(')?;
                let label = self.name()?;
                self.expect_char(b',')?;
                let x = self.name()?;
                self.expect_char(b')')?;
                Ok(Formula::label(&label, &x))
            }
            other => {
                // equality atom `x = y`
                if self.eat_char(b'=') {
                    let y = self.name()?;
                    Ok(Formula::eq(other, &y))
                } else {
                    Err(self.err(format!("unknown predicate or missing '=' after '{other}'")))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_atoms_and_connectives() {
        let f = parse_formula("chstar(x, y) and lab(book, x)").unwrap();
        assert_eq!(
            f,
            Formula::ch_star("x", "y").and(Formula::label("book", "x"))
        );
        let g = parse_formula("nsstar(a,b) or not lab(t, a)").unwrap();
        assert_eq!(g.free_vars().len(), 2);
    }

    #[test]
    fn parse_quantifiers() {
        let f = parse_formula("exists z. chstar(x, z) and chstar(z, y)").unwrap();
        assert_eq!(f.quantifier_rank(), 1);
        assert_eq!(f.free_vars().len(), 2);
        let g = parse_formula("forall x. lab(a, x)").unwrap();
        assert!(matches!(g, Formula::Not(_)));
    }

    #[test]
    fn parse_equality_and_parens() {
        let f = parse_formula("(x = y) and lab(a, x)").unwrap();
        assert_eq!(f.free_vars().len(), 2);
        let nested = parse_formula("not (lab(a,x) or lab(b,x))").unwrap();
        assert!(matches!(nested, Formula::Not(_)));
    }

    #[test]
    fn errors_have_positions() {
        for bad in [
            "",
            "chstar(x)",
            "lab(a x)",
            "exists . lab(a,x)",
            "unknownpred(x, y)",
            "lab(a,x) and",
            "(lab(a,x)",
            "lab(a,x) lab(b,y)",
        ] {
            let err = parse_formula(bad).unwrap_err();
            assert!(err.to_string().contains("FO parse error"), "{bad:?}");
        }
    }
}
