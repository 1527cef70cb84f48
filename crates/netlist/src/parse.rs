//! Parser for the contest's structural Verilog subset.
//!
//! Supported grammar (whitespace/newline insensitive, `//` and `/* */`
//! comments):
//!
//! ```text
//! module <ident> ( <ident> {, <ident>} ) ;
//! { input  <ident> {, <ident>} ;
//! | output <ident> {, <ident>} ;
//! | wire   <ident> {, <ident>} ;
//! | assign <ident> = <netref> ;
//! | <gate-kw> [<ident>] ( <ident> , <netref> {, <netref>} ) ; }
//! endmodule
//! ```
//!
//! `assign y = x;` desugars to a `buf` gate; `1'b0`/`1'b1` are constant
//! net references. Escaped identifiers (`\foo[3] `) are accepted.

use std::error::Error;
use std::fmt;

use crate::ast::{Gate, GateKind, NetRef, Netlist};

/// Error produced when netlist text cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetlistError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseNetlistError {}

/// A token. Identifiers borrow from the source text: only the names a
/// [`Netlist`] keeps are copied, when the parser stores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Const(bool),
    LParen,
    RParen,
    Comma,
    Semi,
    Eq,
}

/// A token with its 1-based line.
type Lexed<'a> = (Tok<'a>, usize);

/// A character after the first of a plain identifier.
fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '$' | '[' | ']' | '.')
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseNetlistError {
        ParseNetlistError {
            line: self.line,
            message: message.into(),
        }
    }

    /// The character at the cursor. ASCII bytes are taken as they are;
    /// only other bytes are decoded as UTF-8.
    #[inline]
    fn peek(&self) -> Option<char> {
        match *self.src.as_bytes().get(self.pos)? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.src[self.pos..].chars().next(),
        }
    }

    /// Advances over the characters `keep` accepts and returns them.
    /// `keep` never accepts a newline, so the line does not change.
    #[inline]
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek().filter(|&c| keep(c)) {
            debug_assert_ne!(c, '\n');
            self.pos += c.len_utf8();
        }
        &self.src[start..self.pos]
    }

    /// Moves the cursor to `end`, counting the newlines passed.
    fn skip_to(&mut self, end: usize) {
        let passed = &self.src.as_bytes()[self.pos..end];
        self.line += passed.iter().filter(|&&b| b == b'\n').count();
        self.pos = end;
    }

    fn skip_trivia(&mut self) -> Result<(), ParseNetlistError> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match (b, bytes.get(self.pos + 1)) {
                (b'\n', _) => {
                    self.pos += 1;
                    self.line += 1;
                }
                (b'/', Some(b'/')) => {
                    let end = bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |i| self.pos + i + 1);
                    self.skip_to(end);
                }
                (b'/', Some(b'*')) => match self.src[self.pos + 2..].find("*/") {
                    Some(i) => self.skip_to(self.pos + 2 + i + 2),
                    None => {
                        self.skip_to(bytes.len());
                        return Err(self.error("unterminated block comment"));
                    }
                },
                _ => match self.peek() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => break,
                },
            }
        }
        Ok(())
    }

    /// `1'b0` / `1'b1` (also written `1'h0` / `1'h1`).
    fn literal(&mut self) -> Result<Tok<'a>, ParseNetlistError> {
        match self.take_while(|c| c.is_alphanumeric() || c == '\'') {
            "1'b0" | "1'h0" => Ok(Tok::Const(false)),
            "1'b1" | "1'h1" => Ok(Tok::Const(true)),
            other => Err(self.error(format!("unsupported literal `{other}`"))),
        }
    }

    /// Consumes a one-byte punctuation token.
    fn punct(&mut self, tok: Tok<'a>) -> Tok<'a> {
        self.pos += 1;
        tok
    }

    /// The next token, or `None` at the end of the text. After an error
    /// the lexer stands at the end, so each error is reported once.
    fn next_tok(&mut self) -> Result<Option<Lexed<'a>>, ParseNetlistError> {
        let tok = self.lex();
        if tok.is_err() {
            self.pos = self.src.len();
        }
        tok
    }

    fn lex(&mut self) -> Result<Option<Lexed<'a>>, ParseNetlistError> {
        self.skip_trivia()?;
        let line = self.line;
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = match c {
            '(' => self.punct(Tok::LParen),
            ')' => self.punct(Tok::RParen),
            ',' => self.punct(Tok::Comma),
            ';' => self.punct(Tok::Semi),
            '=' => self.punct(Tok::Eq),
            '\\' => {
                // Escaped identifier: up to whitespace.
                self.pos += 1;
                Tok::Ident(self.take_while(|c| !c.is_whitespace()))
            }
            c if c.is_ascii_digit() => self.literal()?,
            c if c.is_alphanumeric() || c == '_' => Tok::Ident(self.take_while(is_ident_char)),
            c => return Err(self.error(format!("unexpected character `{c}`"))),
        };
        Ok(Some((tok, line)))
    }
}

/// Recursive-descent parser over a one-token lookahead: tokens are lexed
/// as the grammar asks for them, and none is copied or kept past its use.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token, lexed but not yet consumed.
    ahead: Option<Lexed<'a>>,
    /// Line of the last token lexed (0 before the first): an error past
    /// the last token reports that token's line.
    last_line: usize,
}

impl<'a> Parser<'a> {
    fn peek_lexed(&mut self) -> Result<Option<Lexed<'a>>, ParseNetlistError> {
        if self.ahead.is_none() {
            self.ahead = self.lexer.next_tok()?;
            if let Some((_, line)) = self.ahead {
                self.last_line = line;
            }
        }
        Ok(self.ahead)
    }

    fn peek(&mut self) -> Result<Option<Tok<'a>>, ParseNetlistError> {
        Ok(self.peek_lexed()?.map(|t| t.0))
    }

    fn next(&mut self) -> Result<Lexed<'a>, ParseNetlistError> {
        self.peek_lexed()?;
        self.ahead.take().ok_or_else(|| ParseNetlistError {
            line: self.last_line,
            message: "unexpected end of input".into(),
        })
    }

    /// An error at the next token (or at the last one, at the end of the
    /// text). A lexical error in that next token takes its place.
    fn error_ahead(&mut self, message: impl Into<String>) -> ParseNetlistError {
        match self.peek_lexed() {
            Ok(_) => ParseNetlistError {
                line: self.last_line,
                message: message.into(),
            },
            Err(e) => e,
        }
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<(), ParseNetlistError> {
        match self.next()? {
            (got, _) if got == want => Ok(()),
            (got, line) => Err(ParseNetlistError {
                line,
                message: format!("expected {want:?}, found {got:?}"),
            }),
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseNetlistError> {
        match self.next()? {
            (Tok::Ident(s), _) => Ok(s),
            (other, line) => Err(ParseNetlistError {
                line,
                message: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    /// `<ident> {, <ident>} ;`, appended to `out`.
    fn ident_list(&mut self, out: &mut Vec<String>) -> Result<(), ParseNetlistError> {
        out.push(self.ident()?.to_owned());
        while self.peek()? == Some(Tok::Comma) {
            self.next()?;
            out.push(self.ident()?.to_owned());
        }
        self.expect(Tok::Semi)
    }

    fn netref(&mut self) -> Result<NetRef, ParseNetlistError> {
        match self.next()? {
            (Tok::Ident(s), _) => Ok(NetRef::Named(s.to_owned())),
            (Tok::Const(b), _) => Ok(NetRef::Const(b)),
            (other, line) => Err(ParseNetlistError {
                line,
                message: format!("expected net, found {other:?}"),
            }),
        }
    }

    fn module(&mut self) -> Result<Netlist, ParseNetlistError> {
        if self.ident()? != "module" {
            return Err(self.error_ahead("expected `module`"));
        }
        let mut nl = Netlist::new(self.ident()?);
        // Port list (names only; direction comes from declarations).
        self.expect(Tok::LParen)?;
        if self.peek()? != Some(Tok::RParen) {
            self.ident()?;
            while self.peek()? == Some(Tok::Comma) {
                self.next()?;
                self.ident()?;
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Semi)?;

        loop {
            match self.ident()? {
                "endmodule" => return Ok(nl),
                "input" => self.ident_list(&mut nl.inputs)?,
                "output" => self.ident_list(&mut nl.outputs)?,
                "wire" => self.ident_list(&mut nl.wires)?,
                "assign" => {
                    let output = self.ident()?.to_owned();
                    self.expect(Tok::Eq)?;
                    let rhs = self.netref()?;
                    self.expect(Tok::Semi)?;
                    nl.gates.push(Gate {
                        kind: GateKind::Buf,
                        name: None,
                        output,
                        inputs: vec![rhs],
                    });
                }
                gate_kw => {
                    let Some(kind) = GateKind::from_keyword(gate_kw) else {
                        return Err(self.error_ahead(format!("unknown primitive `{gate_kw}`")));
                    };
                    // Optional instance name before '('.
                    let name = match self.peek()? {
                        Some(Tok::Ident(_)) => Some(self.ident()?.to_owned()),
                        _ => None,
                    };
                    self.expect(Tok::LParen)?;
                    let output = self.ident()?.to_owned();
                    let mut inputs = Vec::new();
                    while self.peek()? == Some(Tok::Comma) {
                        self.next()?;
                        inputs.push(self.netref()?);
                    }
                    self.expect(Tok::RParen)?;
                    self.expect(Tok::Semi)?;
                    if inputs.is_empty() {
                        return Err(
                            self.error_ahead(format!("gate `{gate_kw}` needs at least one input"))
                        );
                    }
                    if matches!(kind, GateKind::Buf | GateKind::Not) && inputs.len() != 1 {
                        return Err(
                            self.error_ahead(format!("`{gate_kw}` takes exactly one input"))
                        );
                    }
                    nl.gates.push(Gate {
                        kind,
                        name,
                        output,
                        inputs,
                    });
                }
            }
        }
    }
}

/// Parses one module of the structural Verilog subset.
///
/// The text is read in one pass. The whole text must lex, also past
/// `endmodule`, and a lexical error anywhere outranks a grammar error.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on lexical errors, grammar violations,
/// unknown primitives, or gates with missing operands.
///
/// # Examples
///
/// ```
/// let src = "module m (a, b, y); input a, b; output y; and g1 (y, a, b); endmodule";
/// let n = eco_netlist::parse_verilog(src)?;
/// assert_eq!(n.name, "m");
/// assert_eq!(n.num_gates(), 1);
/// # Ok::<(), eco_netlist::ParseNetlistError>(())
/// ```
pub fn parse_verilog(src: &str) -> Result<Netlist, ParseNetlistError> {
    let mut p = Parser {
        lexer: Lexer::new(src),
        ahead: None,
        last_line: 0,
    };
    let parsed = p.module();
    while p.lexer.next_tok()?.is_some() {}
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
// sample circuit
module top (a, b, c, y, z);
input a, b;
input c;
output y, z;
wire w1, w2;
and g1 (w1, a, b);
xor g2 (w2, w1, c);
buf g3 (y, w2);
nor (z, a, 1'b0, c); /* unnamed gate with a constant */
endmodule
"#;

    #[test]
    fn parses_sample() {
        let n = parse_verilog(SAMPLE).expect("parse");
        assert_eq!(n.name, "top");
        assert_eq!(n.inputs, vec!["a", "b", "c"]);
        assert_eq!(n.outputs, vec!["y", "z"]);
        assert_eq!(n.wires, vec!["w1", "w2"]);
        assert_eq!(n.num_gates(), 4);
        assert_eq!(n.gates[3].kind, GateKind::Nor);
        assert_eq!(n.gates[3].inputs[1], NetRef::Const(false));
        assert_eq!(n.gates[0].name.as_deref(), Some("g1"));
        assert_eq!(n.gates[3].name, None);
    }

    #[test]
    fn assign_desugars_to_buf() {
        let n = parse_verilog("module m (a, y); input a; output y; assign y = a; endmodule")
            .expect("parse");
        assert_eq!(n.gates[0].kind, GateKind::Buf);
        assert_eq!(n.gates[0].output, "y");
        assert_eq!(n.gates[0].inputs, vec![NetRef::named("a")]);
    }

    #[test]
    fn assign_constant() {
        let n = parse_verilog("module m (y); output y; assign y = 1'b1; endmodule").expect("parse");
        assert_eq!(n.gates[0].inputs, vec![NetRef::Const(true)]);
    }

    #[test]
    fn escaped_identifiers() {
        let n = parse_verilog(
            "module m (\\a[0] , y); input \\a[0] ; output y; buf (y, \\a[0] ); endmodule",
        )
        .expect("parse");
        assert_eq!(n.inputs, vec!["a[0]"]);
    }

    #[test]
    fn error_reports_line() {
        let err = parse_verilog("module m (y);\noutput y;\nfoo (y, a);\nendmodule").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("unknown primitive"));
    }

    #[test]
    fn rejects_bad_literals_and_arity() {
        assert!(parse_verilog("module m (y); output y; and g (y, 2'b10); endmodule").is_err());
        assert!(parse_verilog("module m (y); output y; not g (y, a, b); endmodule").is_err());
        assert!(parse_verilog("module m (y); output y; and g (y); endmodule").is_err());
        assert!(parse_verilog("modul m (y); endmodule").is_err());
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(parse_verilog("module m (y); /* oops").is_err());
    }

    #[test]
    fn empty_port_list() {
        let n = parse_verilog("module m (); endmodule").expect("parse");
        assert_eq!(n.num_gates(), 0);
    }

    #[test]
    fn non_ascii_identifiers_and_comments() {
        let n = parse_verilog(
            "// ☃ comment\nmodule m (é, y); /* ¬\n */ input é; output y; buf g (y, é); endmodule",
        )
        .expect("parse");
        assert_eq!(n.inputs, vec!["é"]);
        let err = parse_verilog("module m (y);\noutput y; ☃").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unexpected character `☃`");
    }

    #[test]
    fn crlf_line_endings_count_lines() {
        let src = "module m (a, y);\r\ninput a;\r\noutput y;\r\nfoo (y, a);\r\nendmodule\r\n";
        assert_eq!(parse_verilog(src).unwrap_err().line, 4);
    }

    #[test]
    fn escaped_identifier_at_end_of_input() {
        let err = parse_verilog("module m (y); output y; assign y = \\ab").unwrap_err();
        assert_eq!(err.to_string(), "line 1: unexpected end of input");
        let err = parse_verilog("module m (y);\noutput y; assign y =\n\\").unwrap_err();
        assert_eq!(err.to_string(), "line 3: unexpected end of input");
    }

    /// A lexical error anywhere outranks a grammar error earlier in the
    /// text, and text after `endmodule` must still lex.
    #[test]
    fn lexical_errors_outrank_grammar_errors() {
        let err = parse_verilog("module m (y) output y;\n@").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unexpected character `@`");
        let err = parse_verilog("module m (y) output y;\n/* open").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unterminated block comment");
        let err = parse_verilog("module m (); endmodule\n\n#").unwrap_err();
        assert_eq!(err.to_string(), "line 3: unexpected character `#`");
        let err = parse_verilog("module m (y) output y;").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1: expected Semi, found Ident(\"output\")"
        );
    }
}
