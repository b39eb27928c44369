//! Recursive-descent parser for Scenic.
//!
//! Implements the grammar of Fig. 5 with the operator table of Fig. 7 and
//! the specifiers of Tables 3 & 4. Most geometric keywords (`left`, `of`,
//! `by`, `facing`, …) are *contextual*: they lex as identifiers and the
//! parser recognizes them by spelling, mirroring how the paper's syntax
//! reads as natural language.
//!
//! Operator precedence, loosest to tightest:
//!
//! 1. `a if c else b`
//! 2. `or`
//! 3. `and`
//! 4. `not`
//! 5. comparisons, `can see`, `is in`
//! 6. geometric infix: `relative to`, `offset by`, `offset along … by`,
//!    `at` (field evaluation), `visible from`
//! 7. `@` (vector construction, non-associative)
//! 8. `+` `-`
//! 9. `*` `/` `%`
//! 10. unary `-` and the word-prefix operators (`visible R`,
//!     `front of O`, `distance to`, `angle to`, `follow`, …)
//! 11. call, attribute, index, postfix `deg`

use crate::ast::*;
use crate::error::{ParseError, ParseResult};
use crate::lexer::lex;
use crate::token::{Pos, Span, Token, TokenKind};
use std::sync::Arc;

/// Parsed call arguments: positional then keyword.
type CallArgs = (Vec<Expr>, Vec<(String, Expr)>);

/// Parses a complete Scenic program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Example
///
/// ```
/// let program = scenic_lang::parse("ego = Car\nCar offset by 0 @ 10\n")?;
/// assert_eq!(program.statements.len(), 2);
/// # Ok::<(), scenic_lang::ParseError>(())
/// ```
pub fn parse(source: &str) -> ParseResult<Program> {
    let tokens = lex(source)?;
    Parser::new(tokens).parse_program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// One past the end of the last non-layout token consumed; statement
    /// spans close here (so trailing newlines/dedents are not covered).
    last_end: Pos,
}

/// Identifiers that can begin a specifier (plus the reserved `in`).
const SPECIFIER_STARTS: &[&str] = &[
    "with",
    "at",
    "offset",
    "left",
    "right",
    "ahead",
    "behind",
    "beyond",
    "visible",
    "on",
    "following",
    "facing",
    "apparently",
    "using",
];

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            last_end: Pos { line: 1, col: 1 },
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn here(&self) -> Pos {
        self.tokens[self.pos.min(self.tokens.len() - 1)].pos
    }

    fn bump(&mut self) -> TokenKind {
        let tok = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        let t = tok.kind.clone();
        let width = tok.kind.source_len();
        if width > 0 {
            self.last_end = Pos {
                line: tok.pos.line,
                col: tok.pos.col + width,
            };
        }
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> ParseResult<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected {kind}, found {}", self.peek()),
                self.here(),
            ))
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if self.peek().is_ident(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident_word(&mut self, word: &str) -> ParseResult<()> {
        if self.eat_ident(word) {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected `{word}`, found {}", self.peek()),
                self.here(),
            ))
        }
    }

    fn expect_name(&mut self) -> ParseResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(ParseError::new(
                format!("expected identifier, found {other}"),
                self.here(),
            )),
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), TokenKind::Newline) {
            self.bump();
        }
    }

    fn expect_newline(&mut self) -> ParseResult<()> {
        match self.peek() {
            TokenKind::Newline => {
                self.bump();
                Ok(())
            }
            TokenKind::Eof | TokenKind::Dedent => Ok(()),
            other => Err(ParseError::new(
                format!("expected end of line, found {other}"),
                self.here(),
            )),
        }
    }

    // ---------------------------------------------------------------
    // Statements
    // ---------------------------------------------------------------

    fn parse_program(mut self) -> ParseResult<Program> {
        let mut statements = Vec::new();
        self.skip_newlines();
        while !matches!(self.peek(), TokenKind::Eof) {
            statements.push(self.parse_stmt()?);
            self.skip_newlines();
        }
        Ok(Program { statements })
    }

    fn parse_stmt(&mut self) -> ParseResult<Stmt> {
        let start = self.here();
        let kind = match self.peek().clone() {
            TokenKind::Import => self.parse_import()?,
            TokenKind::Param => self.parse_param()?,
            TokenKind::Class => self.parse_class()?,
            TokenKind::Require => self.parse_require()?,
            TokenKind::Mutate => self.parse_mutate()?,
            TokenKind::Def => self.parse_def()?,
            TokenKind::Return => self.parse_return()?,
            TokenKind::If => self.parse_if()?,
            TokenKind::For => self.parse_for()?,
            TokenKind::While => self.parse_while()?,
            TokenKind::Pass => {
                self.bump();
                self.expect_newline()?;
                StmtKind::Pass
            }
            // `specifier` is a *contextual* keyword: it introduces a
            // definition only when followed by `name(`, so programs that
            // use `specifier` as a variable still parse.
            TokenKind::Ident(w)
                if w == "specifier"
                    && matches!(self.peek_at(1), TokenKind::Ident(_))
                    && matches!(self.peek_at(2), TokenKind::LParen) =>
            {
                self.parse_specifier_def()?
            }
            TokenKind::Ident(name) if matches!(self.peek_at(1), TokenKind::Assign) => {
                self.bump();
                self.bump();
                let value = self.parse_expr()?;
                self.expect_newline()?;
                StmtKind::Assign { name, value }
            }
            _ => {
                let expr = self.parse_expr()?;
                self.expect_newline()?;
                StmtKind::Expr(expr)
            }
        };
        Ok(Stmt {
            kind,
            span: Span::new(start, self.last_end),
        })
    }

    fn parse_import(&mut self) -> ParseResult<StmtKind> {
        self.expect(&TokenKind::Import)?;
        let mut path = self.expect_name()?;
        while self.eat(&TokenKind::Dot) {
            path.push('.');
            path.push_str(&self.expect_name()?);
        }
        self.expect_newline()?;
        Ok(StmtKind::Import(path))
    }

    fn parse_param(&mut self) -> ParseResult<StmtKind> {
        self.expect(&TokenKind::Param)?;
        let mut params = Vec::new();
        loop {
            let name = self.expect_name()?;
            self.expect(&TokenKind::Assign)?;
            let value = self.parse_expr()?;
            params.push((name, value));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_newline()?;
        Ok(StmtKind::Param(params))
    }

    fn parse_class(&mut self) -> ParseResult<StmtKind> {
        self.expect(&TokenKind::Class)?;
        let name = self.expect_name()?;
        let superclass = if self.eat(&TokenKind::LParen) {
            let s = self.expect_name()?;
            self.expect(&TokenKind::RParen)?;
            Some(s)
        } else {
            None
        };
        self.expect(&TokenKind::Colon)?;
        self.expect(&TokenKind::Newline)?;
        self.expect(&TokenKind::Indent)?;
        let mut properties = Vec::new();
        loop {
            self.skip_newlines();
            match self.peek().clone() {
                TokenKind::Dedent => {
                    self.bump();
                    break;
                }
                TokenKind::Pass => {
                    self.bump();
                    self.expect_newline()?;
                }
                TokenKind::Ident(prop) => {
                    self.bump();
                    self.expect(&TokenKind::Colon)?;
                    let value = self.parse_expr()?;
                    properties.push((prop, value));
                    self.expect_newline()?;
                }
                other => {
                    return Err(ParseError::new(
                        format!("expected property definition, found {other}"),
                        self.here(),
                    ));
                }
            }
        }
        Ok(StmtKind::ClassDef(ClassDef {
            name,
            superclass,
            properties,
        }))
    }

    fn parse_require(&mut self) -> ParseResult<StmtKind> {
        self.expect(&TokenKind::Require)?;
        let prob = if self.eat(&TokenKind::LBracket) {
            let p = self.parse_expr()?;
            self.expect(&TokenKind::RBracket)?;
            Some(p)
        } else {
            None
        };
        let cond = self.parse_expr()?;
        self.expect_newline()?;
        Ok(StmtKind::Require { prob, cond })
    }

    fn parse_mutate(&mut self) -> ParseResult<StmtKind> {
        self.expect(&TokenKind::Mutate)?;
        let mut targets = Vec::new();
        let mut scale = None;
        loop {
            match self.peek().clone() {
                TokenKind::Ident(word)
                    if word == "by" && !starts_expr_stmt_end(self.peek_at(1)) =>
                {
                    // `mutate [targets] by N`
                    self.bump();
                    scale = Some(self.parse_expr()?);
                    break;
                }
                TokenKind::Ident(name) => {
                    self.bump();
                    targets.push(name);
                    if !self.eat(&TokenKind::Comma) {
                        if self.eat_ident("by") {
                            scale = Some(self.parse_expr()?);
                        }
                        break;
                    }
                }
                _ => break,
            }
        }
        self.expect_newline()?;
        Ok(StmtKind::Mutate { targets, scale })
    }

    fn parse_def(&mut self) -> ParseResult<StmtKind> {
        self.expect(&TokenKind::Def)?;
        let name = self.expect_name()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let pname = self.expect_name()?;
                let default = if self.eat(&TokenKind::Assign) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                params.push((pname, default));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect(&TokenKind::Colon)?;
        let body = self.parse_block()?;
        Ok(StmtKind::FuncDef(Arc::new(FuncDef { name, params, body })))
    }

    /// `specifier name(params) specifies p, … [optionally q, …]
    /// [requires d, …]: body`.
    ///
    /// `specifies`, `optionally`, and `requires` are contextual keywords
    /// inside this header only.
    fn parse_specifier_def(&mut self) -> ParseResult<StmtKind> {
        self.bump(); // the contextual keyword `specifier`
        let name = self.expect_name()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let pname = self.expect_name()?;
                let default = if self.eat(&TokenKind::Assign) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                params.push((pname, default));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect_ident_word("specifies")?;
        let specifies = self.parse_name_list()?;
        let optional = if self.eat_ident("optionally") {
            self.parse_name_list()?
        } else {
            Vec::new()
        };
        let requires = if self.eat_ident("requires") {
            self.parse_name_list()?
        } else {
            Vec::new()
        };
        self.expect(&TokenKind::Colon)?;
        let body = self.parse_block()?;
        Ok(StmtKind::SpecifierDef(Arc::new(SpecifierDef {
            name,
            params,
            specifies,
            optional,
            requires,
            body,
        })))
    }

    /// A comma-separated list of identifiers (property names).
    fn parse_name_list(&mut self) -> ParseResult<Vec<String>> {
        let mut names = vec![self.expect_name()?];
        while self.eat(&TokenKind::Comma) {
            names.push(self.expect_name()?);
        }
        Ok(names)
    }

    fn parse_return(&mut self) -> ParseResult<StmtKind> {
        self.expect(&TokenKind::Return)?;
        let value = if matches!(self.peek(), TokenKind::Newline | TokenKind::Eof) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_newline()?;
        Ok(StmtKind::Return(value))
    }

    fn parse_if(&mut self) -> ParseResult<StmtKind> {
        self.expect(&TokenKind::If)?;
        let mut branches = Vec::new();
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::Colon)?;
        branches.push((cond, self.parse_block()?));
        let mut else_body = Vec::new();
        loop {
            self.skip_newlines();
            if self.eat(&TokenKind::Elif) {
                let cond = self.parse_expr()?;
                self.expect(&TokenKind::Colon)?;
                branches.push((cond, self.parse_block()?));
            } else if self.eat(&TokenKind::Else) {
                self.expect(&TokenKind::Colon)?;
                else_body = self.parse_block()?;
                break;
            } else {
                break;
            }
        }
        Ok(StmtKind::If {
            branches,
            else_body,
        })
    }

    fn parse_for(&mut self) -> ParseResult<StmtKind> {
        self.expect(&TokenKind::For)?;
        let var = self.expect_name()?;
        self.expect(&TokenKind::In)?;
        let iter = self.parse_expr()?;
        self.expect(&TokenKind::Colon)?;
        let body = self.parse_block()?;
        Ok(StmtKind::For { var, iter, body })
    }

    fn parse_while(&mut self) -> ParseResult<StmtKind> {
        self.expect(&TokenKind::While)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::Colon)?;
        let body = self.parse_block()?;
        Ok(StmtKind::While { cond, body })
    }

    fn parse_block(&mut self) -> ParseResult<Vec<Stmt>> {
        self.expect(&TokenKind::Newline)?;
        self.expect(&TokenKind::Indent)?;
        let mut body = Vec::new();
        loop {
            self.skip_newlines();
            if self.eat(&TokenKind::Dedent) {
                break;
            }
            if matches!(self.peek(), TokenKind::Eof) {
                break;
            }
            body.push(self.parse_stmt()?);
        }
        Ok(body)
    }

    // ---------------------------------------------------------------
    // Expressions
    // ---------------------------------------------------------------

    fn parse_expr(&mut self) -> ParseResult<Expr> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> ParseResult<Expr> {
        let then = self.parse_or()?;
        if self.eat(&TokenKind::If) {
            let cond = self.parse_or()?;
            self.expect(&TokenKind::Else)?;
            let otherwise = self.parse_ternary()?;
            Ok(Expr::IfElse {
                cond: Box::new(cond),
                then: Box::new(then),
                otherwise: Box::new(otherwise),
            })
        } else {
            Ok(then)
        }
    }

    fn parse_or(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat(&TokenKind::Or) {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat(&TokenKind::And) {
            let rhs = self.parse_not()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> ParseResult<Expr> {
        if self.eat(&TokenKind::Not) {
            Ok(Expr::NotOp(Box::new(self.parse_not()?)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> ParseResult<Expr> {
        let lhs = self.parse_geo_infix()?;
        let op = match self.peek() {
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Ne => Some(CmpOp::Ne),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_geo_infix()?;
            return Ok(Expr::Compare {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        // `X can see Y`
        if self.peek().is_ident("can") && self.peek_at(1).is_ident("see") {
            self.bump();
            self.bump();
            let rhs = self.parse_geo_infix()?;
            return Ok(Expr::CanSee(Box::new(lhs), Box::new(rhs)));
        }
        // `X is in R`, `X is None`, `X is not None`
        if self.eat(&TokenKind::Is) {
            if self.eat(&TokenKind::In) {
                let rhs = self.parse_geo_infix()?;
                return Ok(Expr::IsIn(Box::new(lhs), Box::new(rhs)));
            }
            let op = if self.eat(&TokenKind::Not) {
                CmpOp::IsNot
            } else {
                CmpOp::Is
            };
            let rhs = self.parse_geo_infix()?;
            return Ok(Expr::Compare {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        // Bare `X in R` (membership test).
        if self.eat(&TokenKind::In) {
            let rhs = self.parse_geo_infix()?;
            return Ok(Expr::IsIn(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    /// Level 6: geometric infix operators.
    fn parse_geo_infix(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.parse_vector()?;
        loop {
            if self.peek().is_ident("relative") && self.peek_at(1).is_ident("to") {
                self.bump();
                self.bump();
                let rhs = self.parse_vector()?;
                lhs = Expr::RelativeTo(Box::new(lhs), Box::new(rhs));
            } else if self.peek().is_ident("offset")
                && (self.peek_at(1).is_ident("by") || self.peek_at(1).is_ident("along"))
            {
                self.bump();
                if self.eat_ident("by") {
                    let rhs = self.parse_vector()?;
                    lhs = Expr::OffsetBy(Box::new(lhs), Box::new(rhs));
                } else {
                    self.expect_ident_word("along")?;
                    let direction = self.parse_vector()?;
                    self.expect_ident_word("by")?;
                    let offset = self.parse_vector()?;
                    lhs = Expr::OffsetAlong {
                        base: Box::new(lhs),
                        direction: Box::new(direction),
                        offset: Box::new(offset),
                    };
                }
            } else if self.peek().is_ident("at") {
                self.bump();
                let rhs = self.parse_vector()?;
                lhs = Expr::FieldAt(Box::new(lhs), Box::new(rhs));
            } else if self.peek().is_ident("visible") && self.peek_at(1).is_ident("from") {
                self.bump();
                self.bump();
                let rhs = self.parse_vector()?;
                lhs = Expr::VisibleFrom(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    /// Level 7: `X @ Y` (non-associative).
    fn parse_vector(&mut self) -> ParseResult<Expr> {
        let lhs = self.parse_additive()?;
        if self.eat(&TokenKind::AtSign) {
            let rhs = self.parse_additive()?;
            Ok(Expr::Vector(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_additive(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn parse_multiplicative(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    /// Level 10: unary minus and word-prefix geometric operators.
    fn parse_unary(&mut self) -> ParseResult<Expr> {
        if self.eat(&TokenKind::Minus) {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        // `visible R` (but not `visible from`, which is infix-postfix).
        if self.peek().is_ident("visible")
            && !self.peek_at(1).is_ident("from")
            && starts_expression(self.peek_at(1))
        {
            self.bump();
            let region = self.parse_unary()?;
            return Ok(Expr::Visible(Box::new(region)));
        }
        // `follow F [from V] for S`
        if self.peek().is_ident("follow") && starts_expression(self.peek_at(1)) {
            self.bump();
            let field = self.parse_vector_no_geo()?;
            let from = if self.eat_ident("from") {
                Some(Box::new(self.parse_vector_no_geo()?))
            } else {
                None
            };
            self.expect(&TokenKind::For)?;
            let distance = self.parse_vector()?;
            return Ok(Expr::Follow {
                field: Box::new(field),
                from,
                distance: Box::new(distance),
            });
        }
        // `front of`, `back of`, `front left of`, …, `left of`, `right of`
        if let Some(which) = self.try_box_point() {
            let obj = self.parse_unary()?;
            return Ok(Expr::BoxPointOf {
                which,
                obj: Box::new(obj),
            });
        }
        // `distance [from X] to Y`
        if self.peek().is_ident("distance")
            && (self.peek_at(1).is_ident("from") || self.peek_at(1).is_ident("to"))
        {
            self.bump();
            let from = if self.eat_ident("from") {
                Some(Box::new(self.parse_vector_no_geo()?))
            } else {
                None
            };
            self.expect_ident_word("to")?;
            let to = self.parse_vector()?;
            return Ok(Expr::DistanceTo {
                from,
                to: Box::new(to),
            });
        }
        // `angle [from X] to Y`
        if self.peek().is_ident("angle")
            && (self.peek_at(1).is_ident("from") || self.peek_at(1).is_ident("to"))
        {
            self.bump();
            let from = if self.eat_ident("from") {
                Some(Box::new(self.parse_vector_no_geo()?))
            } else {
                None
            };
            self.expect_ident_word("to")?;
            let to = self.parse_vector()?;
            return Ok(Expr::AngleTo {
                from,
                to: Box::new(to),
            });
        }
        // `relative heading of H [from H2]`
        if self.peek().is_ident("relative") && self.peek_at(1).is_ident("heading") {
            self.bump();
            self.bump();
            self.expect_ident_word("of")?;
            let of = self.parse_vector_no_geo()?;
            let from = if self.eat_ident("from") {
                Some(Box::new(self.parse_vector()?))
            } else {
                None
            };
            return Ok(Expr::RelativeHeadingOf {
                of: Box::new(of),
                from,
            });
        }
        // `apparent heading of OP [from V]`
        if self.peek().is_ident("apparent") && self.peek_at(1).is_ident("heading") {
            self.bump();
            self.bump();
            self.expect_ident_word("of")?;
            let of = self.parse_vector_no_geo()?;
            let from = if self.eat_ident("from") {
                Some(Box::new(self.parse_vector()?))
            } else {
                None
            };
            return Ok(Expr::ApparentHeadingOf {
                of: Box::new(of),
                from,
            });
        }
        self.parse_postfix()
    }

    /// Parses a sub-operand for word operators: full vector level but
    /// *without* consuming trailing geometric infixes, so that e.g.
    /// `follow F from x for d` does not swallow `from`/`for`.
    fn parse_vector_no_geo(&mut self) -> ParseResult<Expr> {
        // `@` still allowed (e.g. `follow f from 1 @ 2 for 5`).
        let lhs = self.parse_additive()?;
        if self.eat(&TokenKind::AtSign) {
            let rhs = self.parse_additive()?;
            Ok(Expr::Vector(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn try_box_point(&mut self) -> Option<BoxPoint> {
        let which = match self.peek() {
            k if k.is_ident("front") => {
                if self.peek_at(1).is_ident("of") {
                    self.bump();
                    BoxPoint::Front
                } else if self.peek_at(1).is_ident("left") && self.peek_at(2).is_ident("of") {
                    self.bump();
                    self.bump();
                    BoxPoint::FrontLeft
                } else if self.peek_at(1).is_ident("right") && self.peek_at(2).is_ident("of") {
                    self.bump();
                    self.bump();
                    BoxPoint::FrontRight
                } else {
                    return None;
                }
            }
            k if k.is_ident("back") => {
                if self.peek_at(1).is_ident("of") {
                    self.bump();
                    BoxPoint::Back
                } else if self.peek_at(1).is_ident("left") && self.peek_at(2).is_ident("of") {
                    self.bump();
                    self.bump();
                    BoxPoint::BackLeft
                } else if self.peek_at(1).is_ident("right") && self.peek_at(2).is_ident("of") {
                    self.bump();
                    self.bump();
                    BoxPoint::BackRight
                } else {
                    return None;
                }
            }
            k if k.is_ident("left") && self.peek_at(1).is_ident("of") => {
                self.bump();
                BoxPoint::Left
            }
            k if k.is_ident("right") && self.peek_at(1).is_ident("of") => {
                self.bump();
                BoxPoint::Right
            }
            _ => return None,
        };
        // consume the `of`
        self.bump();
        Some(which)
    }

    /// Level 11: calls, attributes, indexing, `deg`.
    fn parse_postfix(&mut self) -> ParseResult<Expr> {
        let mut expr = self.parse_primary()?;
        loop {
            match self.peek().clone() {
                TokenKind::LParen => {
                    self.bump();
                    let (args, kwargs) = self.parse_call_args()?;
                    expr = Expr::Call {
                        func: Box::new(expr),
                        args,
                        kwargs,
                    };
                }
                TokenKind::Dot => {
                    self.bump();
                    let name = self.expect_name()?;
                    expr = Expr::Attribute {
                        obj: Box::new(expr),
                        name,
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let key = self.parse_expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    expr = Expr::Index {
                        obj: Box::new(expr),
                        key: Box::new(key),
                    };
                }
                TokenKind::Ident(w) if w == "deg" => {
                    self.bump();
                    expr = Expr::Deg(Box::new(expr));
                }
                _ => return Ok(expr),
            }
        }
    }

    fn parse_call_args(&mut self) -> ParseResult<CallArgs> {
        let mut args = Vec::new();
        let mut kwargs = Vec::new();
        if self.eat(&TokenKind::RParen) {
            return Ok((args, kwargs));
        }
        loop {
            if let TokenKind::Ident(name) = self.peek().clone() {
                if matches!(self.peek_at(1), TokenKind::Assign) {
                    self.bump();
                    self.bump();
                    let value = self.parse_expr()?;
                    kwargs.push((name, value));
                    if self.eat(&TokenKind::Comma) {
                        continue;
                    }
                    break;
                }
            }
            args.push(self.parse_expr()?);
            if self.eat(&TokenKind::Comma) {
                continue;
            }
            break;
        }
        self.expect(&TokenKind::RParen)?;
        Ok((args, kwargs))
    }

    fn parse_primary(&mut self) -> ParseResult<Expr> {
        let pos = self.here();
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.bump();
                Ok(Expr::Number(n))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            TokenKind::NoneKw => {
                self.bump();
                Ok(Expr::None)
            }
            TokenKind::LParen => {
                self.bump();
                let first = self.parse_expr()?;
                if self.eat(&TokenKind::Comma) {
                    let second = self.parse_expr()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Interval(Box::new(first), Box::new(second)))
                } else {
                    self.expect(&TokenKind::RParen)?;
                    Ok(first)
                }
            }
            TokenKind::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if !self.eat(&TokenKind::RBracket) {
                    loop {
                        items.push(self.parse_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        if matches!(self.peek(), TokenKind::RBracket) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RBracket)?;
                }
                Ok(Expr::List(items))
            }
            TokenKind::LBrace => {
                self.bump();
                let mut items = Vec::new();
                if !self.eat(&TokenKind::RBrace) {
                    loop {
                        let key = self.parse_expr()?;
                        self.expect(&TokenKind::Colon)?;
                        let value = self.parse_expr()?;
                        items.push((key, value));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        if matches!(self.peek(), TokenKind::RBrace) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RBrace)?;
                }
                Ok(Expr::Dict(items))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if is_class_name(&name) && self.ctor_follows() {
                    let specifiers = self.parse_specifier_list()?;
                    Ok(Expr::Ctor {
                        class: name,
                        specifiers,
                    })
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => Err(ParseError::new(
                format!("expected expression, found {other}"),
                pos,
            )),
        }
    }

    /// After an uppercase identifier: does an object construction follow?
    ///
    /// True when the next token begins a specifier or plainly terminates
    /// the expression (so `ego = Car` constructs). False before `(`,
    /// `.`, `[`, and ordinary operators, so `CarModel.defaultModel()` and
    /// arithmetic on uppercase variables still parse.
    fn ctor_follows(&self) -> bool {
        match self.peek() {
            TokenKind::Ident(w) => SPECIFIER_STARTS.contains(&w.as_str()),
            TokenKind::In => true,
            TokenKind::Newline
            | TokenKind::Eof
            | TokenKind::Comma
            | TokenKind::RParen
            | TokenKind::RBracket
            | TokenKind::RBrace
            | TokenKind::Dedent
            | TokenKind::Colon => true,
            TokenKind::If | TokenKind::Else => true,
            _ => false,
        }
    }

    fn parse_specifier_list(&mut self) -> ParseResult<Vec<Specifier>> {
        let mut specifiers = Vec::new();
        if !self.specifier_starts_here() {
            return Ok(specifiers);
        }
        loop {
            specifiers.push(self.parse_specifier()?);
            // A comma continues the list only if a specifier follows;
            // otherwise it belongs to an enclosing context (call
            // arguments, intervals).
            if matches!(self.peek(), TokenKind::Comma) {
                let save = self.pos;
                self.bump();
                if self.specifier_starts_here() {
                    continue;
                }
                self.pos = save;
            }
            return Ok(specifiers);
        }
    }

    fn specifier_starts_here(&self) -> bool {
        match self.peek() {
            TokenKind::In => true,
            TokenKind::Ident(w) if SPECIFIER_STARTS.contains(&w.as_str()) => {
                // `offset` must be `offset by` / `offset along`; `left`,
                // `right`, `ahead` must be `… of`; `visible` may stand
                // alone; the rest are unambiguous.
                match w.as_str() {
                    "offset" => self.peek_at(1).is_ident("by") || self.peek_at(1).is_ident("along"),
                    "left" | "right" | "ahead" => self.peek_at(1).is_ident("of"),
                    "apparently" => self.peek_at(1).is_ident("facing"),
                    // `using` must be `using name(` — a user-defined
                    // specifier application.
                    "using" => {
                        matches!(self.peek_at(1), TokenKind::Ident(_))
                            && matches!(self.peek_at(2), TokenKind::LParen)
                    }
                    _ => true,
                }
            }
            _ => false,
        }
    }

    fn parse_specifier(&mut self) -> ParseResult<Specifier> {
        let pos = self.here();
        if self.eat(&TokenKind::In) {
            let region = self.parse_spec_arg()?;
            return Ok(Specifier::InRegion(region));
        }
        let word = match self.peek().clone() {
            TokenKind::Ident(w) => w,
            other => {
                return Err(ParseError::new(
                    format!("expected specifier, found {other}"),
                    pos,
                ));
            }
        };
        self.bump();
        match word.as_str() {
            "with" => {
                let prop = self.expect_name()?;
                let value = self.parse_spec_arg()?;
                Ok(Specifier::With(prop, value))
            }
            "using" => {
                let name = self.expect_name()?;
                self.expect(&TokenKind::LParen)?;
                let (args, kwargs) = self.parse_call_args()?;
                Ok(Specifier::Using { name, args, kwargs })
            }
            "at" => Ok(Specifier::At(self.parse_spec_arg()?)),
            "offset" => {
                if self.eat_ident("by") {
                    Ok(Specifier::OffsetBy(self.parse_spec_arg()?))
                } else {
                    self.expect_ident_word("along")?;
                    let direction = self.parse_vector_no_geo()?;
                    self.expect_ident_word("by")?;
                    let offset = self.parse_spec_arg()?;
                    Ok(Specifier::OffsetAlong(direction, offset))
                }
            }
            "left" | "right" | "ahead" => {
                self.expect_ident_word("of")?;
                let side = match word.as_str() {
                    "left" => Side::Left,
                    "right" => Side::Right,
                    _ => Side::Ahead,
                };
                let target = self.parse_spec_arg()?;
                let by = if self.eat_ident("by") {
                    Some(self.parse_spec_arg()?)
                } else {
                    None
                };
                Ok(Specifier::Beside { side, target, by })
            }
            "behind" => {
                let target = self.parse_spec_arg()?;
                let by = if self.eat_ident("by") {
                    Some(self.parse_spec_arg()?)
                } else {
                    None
                };
                Ok(Specifier::Beside {
                    side: Side::Behind,
                    target,
                    by,
                })
            }
            "beyond" => {
                let target = self.parse_spec_arg()?;
                self.expect_ident_word("by")?;
                let offset = self.parse_spec_arg()?;
                let from = if self.eat_ident("from") {
                    Some(self.parse_spec_arg()?)
                } else {
                    None
                };
                Ok(Specifier::Beyond {
                    target,
                    offset,
                    from,
                })
            }
            "visible" => {
                let from = if self.eat_ident("from") {
                    Some(self.parse_spec_arg()?)
                } else {
                    None
                };
                Ok(Specifier::Visible(from))
            }
            "on" => Ok(Specifier::InRegion(self.parse_spec_arg()?)),
            "following" => {
                let field = self.parse_vector_no_geo()?;
                let from = if self.eat_ident("from") {
                    Some(self.parse_vector_no_geo()?)
                } else {
                    None
                };
                self.expect(&TokenKind::For)?;
                let distance = self.parse_spec_arg()?;
                Ok(Specifier::Following {
                    field,
                    from,
                    distance,
                })
            }
            "facing" => {
                if self.eat_ident("toward") {
                    Ok(Specifier::FacingToward(self.parse_spec_arg()?))
                } else if self.peek().is_ident("away") {
                    self.bump();
                    self.expect_ident_word("from")?;
                    Ok(Specifier::FacingAwayFrom(self.parse_spec_arg()?))
                } else {
                    Ok(Specifier::Facing(self.parse_spec_arg()?))
                }
            }
            "apparently" => {
                self.expect_ident_word("facing")?;
                let heading = self.parse_vector_no_geo()?;
                let from = if self.eat_ident("from") {
                    Some(self.parse_spec_arg()?)
                } else {
                    None
                };
                Ok(Specifier::ApparentlyFacing { heading, from })
            }
            other => Err(ParseError::new(format!("unknown specifier `{other}`"), pos)),
        }
    }

    /// A specifier argument: a geometric-infix-level expression (so
    /// `facing 30 deg relative to roadDirection` works) that stops at
    /// commas and specifier keywords.
    fn parse_spec_arg(&mut self) -> ParseResult<Expr> {
        self.parse_geo_infix()
    }
}

fn is_class_name(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_uppercase())
}

/// Whether a token can begin an expression.
fn starts_expression(kind: &TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::Number(_)
            | TokenKind::Str(_)
            | TokenKind::Ident(_)
            | TokenKind::True
            | TokenKind::False
            | TokenKind::NoneKw
            | TokenKind::LParen
            | TokenKind::LBracket
            | TokenKind::LBrace
            | TokenKind::Minus
            | TokenKind::Not
    )
}

/// Whether a token terminates a statement-ish position (used by `mutate`
/// to decide if `by` is a target name or the scale marker).
fn starts_expr_stmt_end(kind: &TokenKind) -> bool {
    matches!(kind, TokenKind::Comma | TokenKind::Newline | TokenKind::Eof)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(e) => panic!("parse failed for {src:?}: {e}"),
        }
    }

    fn first_expr(src: &str) -> Expr {
        let p = parse_ok(src);
        match &p.statements[0].kind {
            StmtKind::Expr(e) => e.clone(),
            StmtKind::Assign { value, .. } => value.clone(),
            other => panic!("expected expression statement, got {other:?}"),
        }
    }

    #[test]
    fn simplest_scenario() {
        let p = parse_ok("ego = Car\nCar\n");
        assert_eq!(p.statements.len(), 2);
        assert!(matches!(
            &p.statements[0].kind,
            StmtKind::Assign { name, value: Expr::Ctor { class, .. } }
                if name == "ego" && class == "Car"
        ));
    }

    #[test]
    fn ctor_with_offset_and_vector() {
        let e = first_expr("Car offset by (-10, 10) @ (20, 40)\n");
        let Expr::Ctor { class, specifiers } = e else {
            panic!("not a ctor");
        };
        assert_eq!(class, "Car");
        assert_eq!(specifiers.len(), 1);
        let Specifier::OffsetBy(Expr::Vector(lo, _hi)) = &specifiers[0] else {
            panic!("expected offset by vector, got {specifiers:?}");
        };
        assert!(matches!(**lo, Expr::Interval(_, _)));
    }

    #[test]
    fn multiple_specifiers_across_commas() {
        let e = first_expr("Car offset by 0 @ 5, facing (-5, 5) deg, with viewAngle 30 deg\n");
        let Expr::Ctor { specifiers, .. } = e else {
            panic!("not a ctor");
        };
        assert_eq!(specifiers.len(), 3);
        assert!(matches!(specifiers[1], Specifier::Facing(Expr::Deg(_))));
        assert!(matches!(specifiers[2], Specifier::With(ref p, _) if p == "viewAngle"));
    }

    #[test]
    fn facing_relative_to_field() {
        let e = first_expr("Car facing (-5, 5) deg relative to roadDirection\n");
        let Expr::Ctor { specifiers, .. } = e else {
            panic!();
        };
        assert!(matches!(
            &specifiers[0],
            Specifier::Facing(Expr::RelativeTo(_, _))
        ));
    }

    #[test]
    fn left_of_by() {
        let e = first_expr("Car left of spot by 0.25\n");
        let Expr::Ctor { specifiers, .. } = e else {
            panic!();
        };
        assert!(matches!(
            &specifiers[0],
            Specifier::Beside {
                side: Side::Left,
                by: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn on_visible_curb() {
        let e = first_expr("spot = OrientedPoint on visible curb\n");
        let Expr::Ctor { class, specifiers } = e else {
            panic!();
        };
        assert_eq!(class, "OrientedPoint");
        assert!(matches!(
            &specifiers[0],
            Specifier::InRegion(Expr::Visible(_))
        ));
    }

    #[test]
    fn beyond_with_vector_offset() {
        let e = first_expr("Car beyond c by leftRight @ (4, 10), with roadDeviation w\n");
        let Expr::Ctor { specifiers, .. } = e else {
            panic!();
        };
        assert_eq!(specifiers.len(), 2);
        assert!(matches!(
            &specifiers[0],
            Specifier::Beyond {
                from: None,
                offset: Expr::Vector(_, _),
                ..
            }
        ));
    }

    #[test]
    fn require_statements() {
        let p = parse_ok("require car2 can see ego\nrequire[0.5] x > 3\n");
        assert!(matches!(
            &p.statements[0].kind,
            StmtKind::Require {
                prob: None,
                cond: Expr::CanSee(_, _)
            }
        ));
        assert!(matches!(
            &p.statements[1].kind,
            StmtKind::Require {
                prob: Some(Expr::Number(_)),
                ..
            }
        ));
    }

    #[test]
    fn param_statement() {
        let p = parse_ok("param time = 12 * 60, weather = 'RAIN'\n");
        let StmtKind::Param(params) = &p.statements[0].kind else {
            panic!();
        };
        assert_eq!(params.len(), 2);
        assert_eq!(params[1].0, "weather");
    }

    #[test]
    fn class_definition_with_self() {
        let src = "class Car:\n    position: Point on road\n    heading: roadDirection at self.position\n";
        let p = parse_ok(src);
        let StmtKind::ClassDef(cd) = &p.statements[0].kind else {
            panic!();
        };
        assert_eq!(cd.name, "Car");
        assert_eq!(cd.properties.len(), 2);
        assert!(matches!(
            &cd.properties[1].1,
            Expr::FieldAt(_, attr) if matches!(&**attr, Expr::Attribute { .. })
        ));
    }

    #[test]
    fn class_with_superclass() {
        let src = "class EgoCar(Car):\n    model: 4\n";
        let p = parse_ok(src);
        let StmtKind::ClassDef(cd) = &p.statements[0].kind else {
            panic!();
        };
        assert_eq!(cd.superclass.as_deref(), Some("Car"));
    }

    #[test]
    fn mutate_variants() {
        let p = parse_ok("mutate\nmutate taxi\nmutate taxi, limo by 2\nmutate by 3\n");
        assert!(matches!(
            &p.statements[0].kind,
            StmtKind::Mutate { targets, scale: None } if targets.is_empty()
        ));
        assert!(matches!(
            &p.statements[1].kind,
            StmtKind::Mutate { targets, scale: None } if targets.len() == 1
        ));
        assert!(matches!(
            &p.statements[2].kind,
            StmtKind::Mutate { targets, scale: Some(_) } if targets.len() == 2
        ));
        assert!(matches!(
            &p.statements[3].kind,
            StmtKind::Mutate { targets, scale: Some(_) } if targets.is_empty()
        ));
    }

    #[test]
    fn function_def_with_defaults_and_call() {
        let src = "\
def carAheadOfCar(car, gap, offsetX=0, wiggle=0):
    pos = OrientedPoint at (front of car) offset by (offsetX @ gap)
    return Car ahead of pos

c = carAheadOfCar(ego, 5, offsetX=-3.5)
";
        let p = parse_ok(src);
        let StmtKind::FuncDef(fd) = &p.statements[0].kind else {
            panic!();
        };
        assert_eq!(fd.params.len(), 4);
        assert!(fd.params[2].1.is_some());
        assert_eq!(fd.body.len(), 2);
        let StmtKind::Assign { value, .. } = &p.statements[1].kind else {
            panic!();
        };
        let Expr::Call { kwargs, .. } = value else {
            panic!();
        };
        assert_eq!(kwargs[0].0, "offsetX");
    }

    #[test]
    fn at_offset_by_expression() {
        // The `at` specifier argument uses the `offset by` infix.
        let e = first_expr("OrientedPoint at (front of car) offset by (x @ gap)\n");
        let Expr::Ctor { specifiers, .. } = e else {
            panic!();
        };
        assert!(matches!(
            &specifiers[0],
            Specifier::At(Expr::OffsetBy(_, _))
        ));
    }

    #[test]
    fn for_loop_and_if() {
        let src = "\
for i in range(4):
    if i > 2:
        Car
    else:
        pass
";
        let p = parse_ok(src);
        let StmtKind::For { var, body, .. } = &p.statements[0].kind else {
            panic!();
        };
        assert_eq!(var, "i");
        assert!(matches!(&body[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn ternary_and_is_none() {
        let e = first_expr("x = car.model if model is None else resample(model)\n");
        let Expr::IfElse { cond, .. } = e else {
            panic!("expected ternary, got {e:?}");
        };
        assert!(matches!(*cond, Expr::Compare { op: CmpOp::Is, .. }));
    }

    #[test]
    fn angle_and_distance_operators() {
        let p = parse_ok("require abs((angle to goal) - (angle to bn)) <= 10 deg\n");
        let StmtKind::Require { cond, .. } = &p.statements[0].kind else {
            panic!();
        };
        assert!(matches!(cond, Expr::Compare { op: CmpOp::Le, .. }));
        let e = first_expr("d = distance from spot to 1 @ 2\n");
        assert!(matches!(e, Expr::DistanceTo { from: Some(_), .. }));
    }

    #[test]
    fn follow_field_expression() {
        let e = first_expr(
            "center = follow roadDirection from (front of lastCar) for resample(dist)\n",
        );
        let Expr::Follow { from, .. } = e else {
            panic!("expected follow, got {e:?}");
        };
        assert!(from.is_some());
    }

    #[test]
    fn box_points() {
        assert!(matches!(
            first_expr("p = front of lastCar\n"),
            Expr::BoxPointOf {
                which: BoxPoint::Front,
                ..
            }
        ));
        assert!(matches!(
            first_expr("p = back right of ego\n"),
            Expr::BoxPointOf {
                which: BoxPoint::BackRight,
                ..
            }
        ));
    }

    #[test]
    fn relative_and_apparent_heading() {
        assert!(matches!(
            first_expr("h = relative heading of c1 from c2\n"),
            Expr::RelativeHeadingOf { from: Some(_), .. }
        ));
        assert!(matches!(
            first_expr("h = apparent heading of P\n"),
            Expr::ApparentHeadingOf { from: None, .. }
        ));
    }

    #[test]
    fn is_in_operator() {
        assert!(matches!(
            first_expr("b = taxi is in road\n"),
            Expr::IsIn(_, _)
        ));
    }

    #[test]
    fn dict_and_index() {
        let e = first_expr("m = CarModel.models['DOMINATOR']\n");
        assert!(matches!(e, Expr::Index { .. }));
        let e = first_expr("d = Discrete({1: 0.5, 2: 0.5})\n");
        let Expr::Call { args, .. } = e else {
            panic!();
        };
        assert!(matches!(&args[0], Expr::Dict(items) if items.len() == 2));
    }

    #[test]
    fn uniform_times_interval_deg() {
        // `Uniform(1.0, -1.0) * (10, 20) deg` — deg binds to the interval.
        let e = first_expr("badAngle = Uniform(1.0, -1.0) * (10, 20) deg\n");
        let Expr::Binary {
            op: BinOp::Mul,
            rhs,
            ..
        } = e
        else {
            panic!("expected multiplication, got {e:?}");
        };
        assert!(matches!(*rhs, Expr::Deg(_)));
    }

    #[test]
    fn ctor_inside_call_args_without_specifiers() {
        let e = first_expr("x = Uniform(Car, Car)\n");
        let Expr::Call { args, .. } = e else {
            panic!();
        };
        assert_eq!(args.len(), 2);
        assert!(args
            .iter()
            .all(|a| matches!(a, Expr::Ctor { specifiers, .. } if specifiers.is_empty())));
    }

    #[test]
    fn uppercase_attribute_is_not_ctor() {
        let e = first_expr("m = CarModel.defaultModel()\n");
        assert!(matches!(e, Expr::Call { .. }));
    }

    #[test]
    fn platoon_example_parses() {
        let src = "\
def createPlatoonAt(car, numCars, model=None, dist=(2, 8), shift=(-0.5, 0.5), wiggle=0):
    lastCar = car
    for i in range(numCars-1):
        center = follow roadDirection from (front of lastCar) for resample(dist)
        pos = OrientedPoint right of center by shift, facing resample(wiggle) relative to roadDirection
        lastCar = Car ahead of pos, with model (car.model if model is None else resample(model))

param time = (8, 20) * 60
ego = Car with visibleDistance 60
c2 = Car visible
platoon = createPlatoonAt(c2, 5, dist=(2, 8))
";
        let p = parse_ok(src);
        assert_eq!(p.statements.len(), 5);
    }

    #[test]
    fn bumper_to_bumper_scenario_parses() {
        let src = "\
depth = 4
laneGap = 3.5
carGap = (1, 3)
laneShift = (-2, 2)
wiggle = (-5 deg, 5 deg)

def createLaneAt(car):
    createPlatoonAt(car, depth, dist=carGap, wiggle=wiggle, model=modelDist)

ego = Car with visibleDistance 60
leftCar = carAheadOfCar(ego, laneShift + carGap, offsetX=-laneGap, wiggle=wiggle)
createLaneAt(leftCar)
";
        parse_ok(src);
    }

    #[test]
    fn mars_scenario_parses() {
        let src = "\
ego = Rover at 0 @ -2
goal = Goal at (-2, 2) @ (2, 2.5)
halfGapWidth = (1.2 * ego.width) / 2
bottleneck = OrientedPoint offset by (-1.5, 1.5) @ (0.5, 1.5), facing (-30, 30) deg
require abs((angle to goal) - (angle to bottleneck)) <= 10 deg
BigRock at bottleneck
leftEnd = OrientedPoint left of bottleneck by halfGapWidth, facing (60, 120) deg relative to bottleneck
Pipe ahead of leftEnd, with height (1, 2)
BigRock beyond bottleneck by (-0.5, 0.5) @ (0.5, 1)
Pipe
Rock
";
        let p = parse_ok(src);
        assert_eq!(p.statements.len(), 11);
    }

    #[test]
    fn badly_parked_car_parses() {
        let src = "\
ego = Car
spot = OrientedPoint on visible curb
badAngle = Uniform(1.0, -1.0) * (10, 20) deg
Car left of spot by 0.5, facing badAngle relative to roadDirection
";
        parse_ok(src);
    }

    #[test]
    fn noise_scenario_parses() {
        let src = "\
param time = 12 * 60 # noon
param weather = 'EXTRASUNNY'

ego = EgoCar at -628.7878 @ -540.6067, facing -359.1691 deg

Car at -625.4444 @ -530.7654, facing 8.2872 deg, with model CarModel.models['DOMINATOR'], with color CarColor.byteToReal([187, 162, 157])

mutate
";
        parse_ok(src);
    }

    #[test]
    fn error_positions_reported() {
        let err = parse("x = (1,\n").unwrap_err();
        assert!(err.pos.line >= 1);
        let err2 = parse("class :\n").unwrap_err();
        assert_eq!(err2.pos.line, 1);
    }

    #[test]
    fn while_loop_parses() {
        let src = "\
n = 0
while n < 3:
    Car
";
        let p = parse_ok(src);
        assert!(matches!(&p.statements[1].kind, StmtKind::While { .. }));
    }

    #[test]
    fn specifier_definition_parses() {
        let src = "\
specifier slot(gap, y=1) specifies position, color optionally heading requires width, height:
    return {'position': gap @ y}
";
        let p = parse_ok(src);
        let StmtKind::SpecifierDef(sd) = &p.statements[0].kind else {
            panic!("expected specifier definition, got {:?}", p.statements[0]);
        };
        assert_eq!(sd.name, "slot");
        assert_eq!(sd.params.len(), 2);
        assert!(sd.params[0].1.is_none());
        assert!(sd.params[1].1.is_some());
        assert_eq!(sd.specifies, vec!["position", "color"]);
        assert_eq!(sd.optional, vec!["heading"]);
        assert_eq!(sd.requires, vec!["width", "height"]);
        assert_eq!(sd.body.len(), 1);
    }

    #[test]
    fn specifier_definition_minimal_header() {
        let p = parse_ok("specifier o() specifies position:\n    return {'position': 0 @ 0}\n");
        let StmtKind::SpecifierDef(sd) = &p.statements[0].kind else {
            panic!();
        };
        assert!(sd.params.is_empty());
        assert!(sd.optional.is_empty());
        assert!(sd.requires.is_empty());
    }

    #[test]
    fn using_specifier_parses_in_ctor() {
        let p = parse_ok("ego = Car using slot(curb, gap=0.5), with model m\n");
        let StmtKind::Assign { value, .. } = &p.statements[0].kind else {
            panic!();
        };
        let Expr::Ctor { class, specifiers } = value else {
            panic!("expected ctor, got {value:?}");
        };
        assert_eq!(class, "Car");
        assert_eq!(specifiers.len(), 2);
        let Specifier::Using { name, args, kwargs } = &specifiers[0] else {
            panic!("expected using, got {:?}", specifiers[0]);
        };
        assert_eq!(name, "slot");
        assert_eq!(args.len(), 1);
        assert_eq!(kwargs.len(), 1);
        assert_eq!(kwargs[0].0, "gap");
    }

    #[test]
    fn specifier_as_plain_identifier_still_parses() {
        // `specifier` only introduces a definition before `name(`.
        let p = parse_ok("specifier = 3\nx = specifier + 1\n");
        assert!(matches!(&p.statements[0].kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn using_requires_parenthesized_arguments() {
        // A bare `using` identifier is not a specifier application, so
        // `Car using` must fail to parse as a specifier list.
        assert!(parse("ego = Car using slot\n").is_err());
    }

    #[test]
    fn specifier_definition_missing_specifies_errors() {
        let err = parse("specifier s():\n    return {}\n").unwrap_err();
        assert!(err.message.contains("specifies"), "{}", err.message);
    }
}
