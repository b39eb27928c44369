//! Compact binary codec for parsed [`Program`]s.
//!
//! The on-disk artifact store (`scenic_core::store`) persists compiled
//! scenarios so a warm process can skip parsing entirely. That only
//! works if the AST itself round-trips: this module encodes every
//! statement, expression, and specifier variant to a deterministic byte
//! stream and decodes it back structurally equal (spans included).
//!
//! Format notes:
//!
//! - one `u8` tag per enum variant, in declaration order — adding or
//!   reordering a variant is a store-format break and must bump
//!   `scenic_core::store::STORE_FORMAT_VERSION`;
//! - integers little-endian; lengths as `u32`; floats via
//!   [`f64::to_bits`] so every value (±0.0, subnormals) survives;
//! - strings UTF-8 with a `u32` byte-length prefix;
//! - no framing, versioning, or checksums here — the store wraps the
//!   payload in its own checked envelope.
//!
//! The decoder never panics on malformed input: every read is
//! bounds-checked and returns [`CodecError`], because the store treats
//! any decode failure as a corrupt entry to rebuild.

use crate::ast::{
    BinOp, BoxPoint, ClassDef, CmpOp, Expr, FuncDef, Program, Side, Specifier, SpecifierDef, Stmt,
    StmtKind,
};
use crate::token::{Pos, Span};
use std::fmt;
use std::sync::Arc;

/// A malformed byte stream: truncation, an unknown tag, or invalid
/// UTF-8. Carries a short human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

/// Append-only little-endian byte sink shared by the AST codec and the
/// artifact store's region/plan codec.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` via its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a collection length prefix.
    pub fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return err(format!(
                "truncated: need {n} byte(s) at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32` little-endian.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64` little-endian.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => err(format!("invalid bool byte {b}")),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => err("invalid UTF-8 in string"),
        }
    }

    /// Read a collection length prefix, rejecting lengths that cannot
    /// fit in the remaining input (each element needs ≥ 1 byte).
    // `len` here is a decode operation, not a container length, so an
    // `is_empty` counterpart would be meaningless.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return err(format!("length {n} exceeds remaining {}", self.remaining()));
        }
        Ok(n)
    }
}

/// Encode a program to bytes. Deterministic: equal programs (including
/// spans) produce equal bytes.
pub fn encode_program(program: &Program) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.len(program.statements.len());
    for stmt in &program.statements {
        stmt_enc(&mut w, stmt);
    }
    w.into_bytes()
}

/// Decode a program previously produced by [`encode_program`]. The
/// whole input must be consumed; trailing bytes are malformed.
pub fn decode_program(bytes: &[u8]) -> Result<Program, CodecError> {
    let mut r = ByteReader::new(bytes);
    let n = r.len()?;
    let mut statements = Vec::with_capacity(n);
    for _ in 0..n {
        statements.push(stmt_dec(&mut r)?);
    }
    if r.remaining() != 0 {
        return err(format!("{} trailing byte(s)", r.remaining()));
    }
    Ok(Program { statements })
}

fn span_enc(w: &mut ByteWriter, span: &Span) {
    w.u32(span.start.line);
    w.u32(span.start.col);
    w.u32(span.end.line);
    w.u32(span.end.col);
}

fn span_dec(r: &mut ByteReader) -> Result<Span, CodecError> {
    let start = Pos {
        line: r.u32()?,
        col: r.u32()?,
    };
    let end = Pos {
        line: r.u32()?,
        col: r.u32()?,
    };
    Ok(Span { start, end })
}

fn body_enc(w: &mut ByteWriter, body: &[Stmt]) {
    w.len(body.len());
    for stmt in body {
        stmt_enc(w, stmt);
    }
}

fn body_dec(r: &mut ByteReader) -> Result<Vec<Stmt>, CodecError> {
    let n = r.len()?;
    let mut body = Vec::with_capacity(n);
    for _ in 0..n {
        body.push(stmt_dec(r)?);
    }
    Ok(body)
}

fn opt_expr_enc(w: &mut ByteWriter, e: &Option<Expr>) {
    match e {
        None => w.u8(0),
        Some(e) => {
            w.u8(1);
            expr_enc(w, e);
        }
    }
}

fn opt_expr_dec(r: &mut ByteReader) -> Result<Option<Expr>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(expr_dec(r)?)),
        b => err(format!("invalid option tag {b}")),
    }
}

fn opt_box_enc(w: &mut ByteWriter, e: &Option<Box<Expr>>) {
    match e {
        None => w.u8(0),
        Some(e) => {
            w.u8(1);
            expr_enc(w, e);
        }
    }
}

fn opt_box_dec(r: &mut ByteReader) -> Result<Option<Box<Expr>>, CodecError> {
    Ok(opt_expr_dec(r)?.map(Box::new))
}

fn named_exprs_enc(w: &mut ByteWriter, pairs: &[(String, Expr)]) {
    w.len(pairs.len());
    for (name, e) in pairs {
        w.str(name);
        expr_enc(w, e);
    }
}

fn named_exprs_dec(r: &mut ByteReader) -> Result<Vec<(String, Expr)>, CodecError> {
    let n = r.len()?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let e = expr_dec(r)?;
        pairs.push((name, e));
    }
    Ok(pairs)
}

fn params_enc(w: &mut ByteWriter, params: &[(String, Option<Expr>)]) {
    w.len(params.len());
    for (name, default) in params {
        w.str(name);
        opt_expr_enc(w, default);
    }
}

fn params_dec(r: &mut ByteReader) -> Result<Vec<(String, Option<Expr>)>, CodecError> {
    let n = r.len()?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let default = opt_expr_dec(r)?;
        params.push((name, default));
    }
    Ok(params)
}

fn strings_enc(w: &mut ByteWriter, items: &[String]) {
    w.len(items.len());
    for s in items {
        w.str(s);
    }
}

fn strings_dec(r: &mut ByteReader) -> Result<Vec<String>, CodecError> {
    let n = r.len()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(r.str()?);
    }
    Ok(items)
}

fn stmt_enc(w: &mut ByteWriter, stmt: &Stmt) {
    span_enc(w, &stmt.span);
    match &stmt.kind {
        StmtKind::Import(path) => {
            w.u8(0);
            w.str(path);
        }
        StmtKind::Assign { name, value } => {
            w.u8(1);
            w.str(name);
            expr_enc(w, value);
        }
        StmtKind::Param(pairs) => {
            w.u8(2);
            named_exprs_enc(w, pairs);
        }
        StmtKind::ClassDef(def) => {
            w.u8(3);
            w.str(&def.name);
            match &def.superclass {
                None => w.u8(0),
                Some(s) => {
                    w.u8(1);
                    w.str(s);
                }
            }
            named_exprs_enc(w, &def.properties);
        }
        StmtKind::Expr(e) => {
            w.u8(4);
            expr_enc(w, e);
        }
        StmtKind::Require { prob, cond } => {
            w.u8(5);
            opt_expr_enc(w, prob);
            expr_enc(w, cond);
        }
        StmtKind::Mutate { targets, scale } => {
            w.u8(6);
            strings_enc(w, targets);
            opt_expr_enc(w, scale);
        }
        StmtKind::FuncDef(def) => {
            w.u8(7);
            w.str(&def.name);
            params_enc(w, &def.params);
            body_enc(w, &def.body);
        }
        StmtKind::SpecifierDef(def) => {
            w.u8(8);
            w.str(&def.name);
            params_enc(w, &def.params);
            strings_enc(w, &def.specifies);
            strings_enc(w, &def.optional);
            strings_enc(w, &def.requires);
            body_enc(w, &def.body);
        }
        StmtKind::Return(e) => {
            w.u8(9);
            opt_expr_enc(w, e);
        }
        StmtKind::If {
            branches,
            else_body,
        } => {
            w.u8(10);
            w.len(branches.len());
            for (cond, body) in branches {
                expr_enc(w, cond);
                body_enc(w, body);
            }
            body_enc(w, else_body);
        }
        StmtKind::For { var, iter, body } => {
            w.u8(11);
            w.str(var);
            expr_enc(w, iter);
            body_enc(w, body);
        }
        StmtKind::While { cond, body } => {
            w.u8(12);
            expr_enc(w, cond);
            body_enc(w, body);
        }
        StmtKind::Pass => w.u8(13),
    }
}

fn stmt_dec(r: &mut ByteReader) -> Result<Stmt, CodecError> {
    let span = span_dec(r)?;
    let tag = r.u8()?;
    let kind = match tag {
        0 => StmtKind::Import(r.str()?),
        1 => {
            let name = r.str()?;
            let value = expr_dec(r)?;
            StmtKind::Assign { name, value }
        }
        2 => StmtKind::Param(named_exprs_dec(r)?),
        3 => {
            let name = r.str()?;
            let superclass = match r.u8()? {
                0 => None,
                1 => Some(r.str()?),
                b => return err(format!("invalid option tag {b}")),
            };
            let properties = named_exprs_dec(r)?;
            StmtKind::ClassDef(ClassDef {
                name,
                superclass,
                properties,
            })
        }
        4 => StmtKind::Expr(expr_dec(r)?),
        5 => {
            let prob = opt_expr_dec(r)?;
            let cond = expr_dec(r)?;
            StmtKind::Require { prob, cond }
        }
        6 => {
            let targets = strings_dec(r)?;
            let scale = opt_expr_dec(r)?;
            StmtKind::Mutate { targets, scale }
        }
        7 => {
            let name = r.str()?;
            let params = params_dec(r)?;
            let body = body_dec(r)?;
            StmtKind::FuncDef(Arc::new(FuncDef { name, params, body }))
        }
        8 => {
            let name = r.str()?;
            let params = params_dec(r)?;
            let specifies = strings_dec(r)?;
            let optional = strings_dec(r)?;
            let requires = strings_dec(r)?;
            let body = body_dec(r)?;
            StmtKind::SpecifierDef(Arc::new(SpecifierDef {
                name,
                params,
                specifies,
                optional,
                requires,
                body,
            }))
        }
        9 => StmtKind::Return(opt_expr_dec(r)?),
        10 => {
            let n = r.len()?;
            let mut branches = Vec::with_capacity(n);
            for _ in 0..n {
                let cond = expr_dec(r)?;
                let body = body_dec(r)?;
                branches.push((cond, body));
            }
            let else_body = body_dec(r)?;
            StmtKind::If {
                branches,
                else_body,
            }
        }
        11 => {
            let var = r.str()?;
            let iter = expr_dec(r)?;
            let body = body_dec(r)?;
            StmtKind::For { var, iter, body }
        }
        12 => {
            let cond = expr_dec(r)?;
            let body = body_dec(r)?;
            StmtKind::While { cond, body }
        }
        13 => StmtKind::Pass,
        t => return err(format!("unknown statement tag {t}")),
    };
    Ok(Stmt { kind, span })
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
    }
}

fn binop_dec(tag: u8) -> Result<BinOp, CodecError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::And,
        6 => BinOp::Or,
        t => return err(format!("unknown binary operator tag {t}")),
    })
}

fn cmpop_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
        CmpOp::Is => 6,
        CmpOp::IsNot => 7,
    }
}

fn cmpop_dec(tag: u8) -> Result<CmpOp, CodecError> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        6 => CmpOp::Is,
        7 => CmpOp::IsNot,
        t => return err(format!("unknown comparison operator tag {t}")),
    })
}

fn side_tag(side: Side) -> u8 {
    match side {
        Side::Left => 0,
        Side::Right => 1,
        Side::Ahead => 2,
        Side::Behind => 3,
    }
}

fn side_dec(tag: u8) -> Result<Side, CodecError> {
    Ok(match tag {
        0 => Side::Left,
        1 => Side::Right,
        2 => Side::Ahead,
        3 => Side::Behind,
        t => return err(format!("unknown side tag {t}")),
    })
}

fn boxpoint_tag(p: BoxPoint) -> u8 {
    match p {
        BoxPoint::Front => 0,
        BoxPoint::Back => 1,
        BoxPoint::Left => 2,
        BoxPoint::Right => 3,
        BoxPoint::FrontLeft => 4,
        BoxPoint::FrontRight => 5,
        BoxPoint::BackLeft => 6,
        BoxPoint::BackRight => 7,
    }
}

fn boxpoint_dec(tag: u8) -> Result<BoxPoint, CodecError> {
    Ok(match tag {
        0 => BoxPoint::Front,
        1 => BoxPoint::Back,
        2 => BoxPoint::Left,
        3 => BoxPoint::Right,
        4 => BoxPoint::FrontLeft,
        5 => BoxPoint::FrontRight,
        6 => BoxPoint::BackLeft,
        7 => BoxPoint::BackRight,
        t => return err(format!("unknown box-point tag {t}")),
    })
}

fn expr_enc(w: &mut ByteWriter, e: &Expr) {
    match e {
        Expr::Number(v) => {
            w.u8(0);
            w.f64(*v);
        }
        Expr::Bool(v) => {
            w.u8(1);
            w.bool(*v);
        }
        Expr::Str(s) => {
            w.u8(2);
            w.str(s);
        }
        Expr::None => w.u8(3),
        Expr::Ident(name) => {
            w.u8(4);
            w.str(name);
        }
        Expr::Vector(x, y) => {
            w.u8(5);
            expr_enc(w, x);
            expr_enc(w, y);
        }
        Expr::Interval(lo, hi) => {
            w.u8(6);
            expr_enc(w, lo);
            expr_enc(w, hi);
        }
        Expr::Call { func, args, kwargs } => {
            w.u8(7);
            expr_enc(w, func);
            w.len(args.len());
            for a in args {
                expr_enc(w, a);
            }
            named_exprs_enc(w, kwargs);
        }
        Expr::Attribute { obj, name } => {
            w.u8(8);
            expr_enc(w, obj);
            w.str(name);
        }
        Expr::Index { obj, key } => {
            w.u8(9);
            expr_enc(w, obj);
            expr_enc(w, key);
        }
        Expr::List(items) => {
            w.u8(10);
            w.len(items.len());
            for item in items {
                expr_enc(w, item);
            }
        }
        Expr::Dict(pairs) => {
            w.u8(11);
            w.len(pairs.len());
            for (k, v) in pairs {
                expr_enc(w, k);
                expr_enc(w, v);
            }
        }
        Expr::Neg(inner) => {
            w.u8(12);
            expr_enc(w, inner);
        }
        Expr::NotOp(inner) => {
            w.u8(13);
            expr_enc(w, inner);
        }
        Expr::Binary { op, lhs, rhs } => {
            w.u8(14);
            w.u8(binop_tag(*op));
            expr_enc(w, lhs);
            expr_enc(w, rhs);
        }
        Expr::Compare { op, lhs, rhs } => {
            w.u8(15);
            w.u8(cmpop_tag(*op));
            expr_enc(w, lhs);
            expr_enc(w, rhs);
        }
        Expr::IfElse {
            cond,
            then,
            otherwise,
        } => {
            w.u8(16);
            expr_enc(w, cond);
            expr_enc(w, then);
            expr_enc(w, otherwise);
        }
        Expr::Deg(inner) => {
            w.u8(17);
            expr_enc(w, inner);
        }
        Expr::RelativeTo(a, b) => {
            w.u8(18);
            expr_enc(w, a);
            expr_enc(w, b);
        }
        Expr::OffsetBy(a, b) => {
            w.u8(19);
            expr_enc(w, a);
            expr_enc(w, b);
        }
        Expr::OffsetAlong {
            base,
            direction,
            offset,
        } => {
            w.u8(20);
            expr_enc(w, base);
            expr_enc(w, direction);
            expr_enc(w, offset);
        }
        Expr::FieldAt(f, v) => {
            w.u8(21);
            expr_enc(w, f);
            expr_enc(w, v);
        }
        Expr::CanSee(a, b) => {
            w.u8(22);
            expr_enc(w, a);
            expr_enc(w, b);
        }
        Expr::IsIn(a, b) => {
            w.u8(23);
            expr_enc(w, a);
            expr_enc(w, b);
        }
        Expr::DistanceTo { from, to } => {
            w.u8(24);
            opt_box_enc(w, from);
            expr_enc(w, to);
        }
        Expr::AngleTo { from, to } => {
            w.u8(25);
            opt_box_enc(w, from);
            expr_enc(w, to);
        }
        Expr::RelativeHeadingOf { of, from } => {
            w.u8(26);
            expr_enc(w, of);
            opt_box_enc(w, from);
        }
        Expr::ApparentHeadingOf { of, from } => {
            w.u8(27);
            expr_enc(w, of);
            opt_box_enc(w, from);
        }
        Expr::Visible(inner) => {
            w.u8(28);
            expr_enc(w, inner);
        }
        Expr::VisibleFrom(a, b) => {
            w.u8(29);
            expr_enc(w, a);
            expr_enc(w, b);
        }
        Expr::Follow {
            field,
            from,
            distance,
        } => {
            w.u8(30);
            expr_enc(w, field);
            opt_box_enc(w, from);
            expr_enc(w, distance);
        }
        Expr::BoxPointOf { which, obj } => {
            w.u8(31);
            w.u8(boxpoint_tag(*which));
            expr_enc(w, obj);
        }
        Expr::Ctor { class, specifiers } => {
            w.u8(32);
            w.str(class);
            w.len(specifiers.len());
            for spec in specifiers {
                spec_enc(w, spec);
            }
        }
    }
}

fn expr_dec(r: &mut ByteReader) -> Result<Expr, CodecError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => Expr::Number(r.f64()?),
        1 => Expr::Bool(r.bool()?),
        2 => Expr::Str(r.str()?),
        3 => Expr::None,
        4 => Expr::Ident(r.str()?),
        5 => {
            let x = expr_dec(r)?;
            let y = expr_dec(r)?;
            Expr::Vector(Box::new(x), Box::new(y))
        }
        6 => {
            let lo = expr_dec(r)?;
            let hi = expr_dec(r)?;
            Expr::Interval(Box::new(lo), Box::new(hi))
        }
        7 => {
            let func = Box::new(expr_dec(r)?);
            let n = r.len()?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(expr_dec(r)?);
            }
            let kwargs = named_exprs_dec(r)?;
            Expr::Call { func, args, kwargs }
        }
        8 => {
            let obj = Box::new(expr_dec(r)?);
            let name = r.str()?;
            Expr::Attribute { obj, name }
        }
        9 => {
            let obj = Box::new(expr_dec(r)?);
            let key = Box::new(expr_dec(r)?);
            Expr::Index { obj, key }
        }
        10 => {
            let n = r.len()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(expr_dec(r)?);
            }
            Expr::List(items)
        }
        11 => {
            let n = r.len()?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let k = expr_dec(r)?;
                let v = expr_dec(r)?;
                pairs.push((k, v));
            }
            Expr::Dict(pairs)
        }
        12 => Expr::Neg(Box::new(expr_dec(r)?)),
        13 => Expr::NotOp(Box::new(expr_dec(r)?)),
        14 => {
            let op = binop_dec(r.u8()?)?;
            let lhs = Box::new(expr_dec(r)?);
            let rhs = Box::new(expr_dec(r)?);
            Expr::Binary { op, lhs, rhs }
        }
        15 => {
            let op = cmpop_dec(r.u8()?)?;
            let lhs = Box::new(expr_dec(r)?);
            let rhs = Box::new(expr_dec(r)?);
            Expr::Compare { op, lhs, rhs }
        }
        16 => {
            let cond = Box::new(expr_dec(r)?);
            let then = Box::new(expr_dec(r)?);
            let otherwise = Box::new(expr_dec(r)?);
            Expr::IfElse {
                cond,
                then,
                otherwise,
            }
        }
        17 => Expr::Deg(Box::new(expr_dec(r)?)),
        18 => {
            let a = Box::new(expr_dec(r)?);
            let b = Box::new(expr_dec(r)?);
            Expr::RelativeTo(a, b)
        }
        19 => {
            let a = Box::new(expr_dec(r)?);
            let b = Box::new(expr_dec(r)?);
            Expr::OffsetBy(a, b)
        }
        20 => {
            let base = Box::new(expr_dec(r)?);
            let direction = Box::new(expr_dec(r)?);
            let offset = Box::new(expr_dec(r)?);
            Expr::OffsetAlong {
                base,
                direction,
                offset,
            }
        }
        21 => {
            let f = Box::new(expr_dec(r)?);
            let v = Box::new(expr_dec(r)?);
            Expr::FieldAt(f, v)
        }
        22 => {
            let a = Box::new(expr_dec(r)?);
            let b = Box::new(expr_dec(r)?);
            Expr::CanSee(a, b)
        }
        23 => {
            let a = Box::new(expr_dec(r)?);
            let b = Box::new(expr_dec(r)?);
            Expr::IsIn(a, b)
        }
        24 => {
            let from = opt_box_dec(r)?;
            let to = Box::new(expr_dec(r)?);
            Expr::DistanceTo { from, to }
        }
        25 => {
            let from = opt_box_dec(r)?;
            let to = Box::new(expr_dec(r)?);
            Expr::AngleTo { from, to }
        }
        26 => {
            let of = Box::new(expr_dec(r)?);
            let from = opt_box_dec(r)?;
            Expr::RelativeHeadingOf { of, from }
        }
        27 => {
            let of = Box::new(expr_dec(r)?);
            let from = opt_box_dec(r)?;
            Expr::ApparentHeadingOf { of, from }
        }
        28 => Expr::Visible(Box::new(expr_dec(r)?)),
        29 => {
            let a = Box::new(expr_dec(r)?);
            let b = Box::new(expr_dec(r)?);
            Expr::VisibleFrom(a, b)
        }
        30 => {
            let field = Box::new(expr_dec(r)?);
            let from = opt_box_dec(r)?;
            let distance = Box::new(expr_dec(r)?);
            Expr::Follow {
                field,
                from,
                distance,
            }
        }
        31 => {
            let which = boxpoint_dec(r.u8()?)?;
            let obj = Box::new(expr_dec(r)?);
            Expr::BoxPointOf { which, obj }
        }
        32 => {
            let class = r.str()?;
            let n = r.len()?;
            let mut specifiers = Vec::with_capacity(n);
            for _ in 0..n {
                specifiers.push(spec_dec(r)?);
            }
            Expr::Ctor { class, specifiers }
        }
        t => return err(format!("unknown expression tag {t}")),
    })
}

fn spec_enc(w: &mut ByteWriter, spec: &Specifier) {
    match spec {
        Specifier::With(prop, e) => {
            w.u8(0);
            w.str(prop);
            expr_enc(w, e);
        }
        Specifier::At(e) => {
            w.u8(1);
            expr_enc(w, e);
        }
        Specifier::OffsetBy(e) => {
            w.u8(2);
            expr_enc(w, e);
        }
        Specifier::OffsetAlong(d, v) => {
            w.u8(3);
            expr_enc(w, d);
            expr_enc(w, v);
        }
        Specifier::Beside { side, target, by } => {
            w.u8(4);
            w.u8(side_tag(*side));
            expr_enc(w, target);
            opt_expr_enc(w, by);
        }
        Specifier::Beyond {
            target,
            offset,
            from,
        } => {
            w.u8(5);
            expr_enc(w, target);
            expr_enc(w, offset);
            opt_expr_enc(w, from);
        }
        Specifier::Visible(from) => {
            w.u8(6);
            opt_expr_enc(w, from);
        }
        Specifier::InRegion(e) => {
            w.u8(7);
            expr_enc(w, e);
        }
        Specifier::Following {
            field,
            from,
            distance,
        } => {
            w.u8(8);
            expr_enc(w, field);
            opt_expr_enc(w, from);
            expr_enc(w, distance);
        }
        Specifier::Facing(e) => {
            w.u8(9);
            expr_enc(w, e);
        }
        Specifier::FacingToward(e) => {
            w.u8(10);
            expr_enc(w, e);
        }
        Specifier::FacingAwayFrom(e) => {
            w.u8(11);
            expr_enc(w, e);
        }
        Specifier::ApparentlyFacing { heading, from } => {
            w.u8(12);
            expr_enc(w, heading);
            opt_expr_enc(w, from);
        }
        Specifier::Using { name, args, kwargs } => {
            w.u8(13);
            w.str(name);
            w.len(args.len());
            for a in args {
                expr_enc(w, a);
            }
            named_exprs_enc(w, kwargs);
        }
    }
}

fn spec_dec(r: &mut ByteReader) -> Result<Specifier, CodecError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => {
            let prop = r.str()?;
            let e = expr_dec(r)?;
            Specifier::With(prop, e)
        }
        1 => Specifier::At(expr_dec(r)?),
        2 => Specifier::OffsetBy(expr_dec(r)?),
        3 => {
            let d = expr_dec(r)?;
            let v = expr_dec(r)?;
            Specifier::OffsetAlong(d, v)
        }
        4 => {
            let side = side_dec(r.u8()?)?;
            let target = expr_dec(r)?;
            let by = opt_expr_dec(r)?;
            Specifier::Beside { side, target, by }
        }
        5 => {
            let target = expr_dec(r)?;
            let offset = expr_dec(r)?;
            let from = opt_expr_dec(r)?;
            Specifier::Beyond {
                target,
                offset,
                from,
            }
        }
        6 => Specifier::Visible(opt_expr_dec(r)?),
        7 => Specifier::InRegion(expr_dec(r)?),
        8 => {
            let field = expr_dec(r)?;
            let from = opt_expr_dec(r)?;
            let distance = expr_dec(r)?;
            Specifier::Following {
                field,
                from,
                distance,
            }
        }
        9 => Specifier::Facing(expr_dec(r)?),
        10 => Specifier::FacingToward(expr_dec(r)?),
        11 => Specifier::FacingAwayFrom(expr_dec(r)?),
        12 => {
            let heading = expr_dec(r)?;
            let from = opt_expr_dec(r)?;
            Specifier::ApparentlyFacing { heading, from }
        }
        13 => {
            let name = r.str()?;
            let n = r.len()?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(expr_dec(r)?);
            }
            let kwargs = named_exprs_dec(r)?;
            Specifier::Using { name, args, kwargs }
        }
        t => return err(format!("unknown specifier tag {t}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Structural equality on `Stmt` ignores spans, so spell out a
    /// deep span-sensitive comparison for the round-trip tests.
    fn assert_spans_equal(a: &Program, b: &Program) {
        fn stmts(a: &[Stmt], b: &[Stmt]) {
            assert_eq!(a.len(), b.len());
            for (sa, sb) in a.iter().zip(b) {
                assert_eq!(sa.span, sb.span);
                match (&sa.kind, &sb.kind) {
                    (StmtKind::FuncDef(fa), StmtKind::FuncDef(fb)) => stmts(&fa.body, &fb.body),
                    (StmtKind::SpecifierDef(da), StmtKind::SpecifierDef(db)) => {
                        stmts(&da.body, &db.body)
                    }
                    (
                        StmtKind::If {
                            branches: ba,
                            else_body: ea,
                        },
                        StmtKind::If {
                            branches: bb,
                            else_body: eb,
                        },
                    ) => {
                        for ((_, xa), (_, xb)) in ba.iter().zip(bb) {
                            stmts(xa, xb);
                        }
                        stmts(ea, eb);
                    }
                    (StmtKind::For { body: xa, .. }, StmtKind::For { body: xb, .. }) => {
                        stmts(xa, xb)
                    }
                    (StmtKind::While { body: xa, .. }, StmtKind::While { body: xb, .. }) => {
                        stmts(xa, xb)
                    }
                    _ => {}
                }
            }
        }
        stmts(&a.statements, &b.statements);
    }

    fn roundtrip(source: &str) {
        let program = parse(source).expect("parses");
        let bytes = encode_program(&program);
        let decoded = decode_program(&bytes).expect("decodes");
        assert_eq!(program, decoded, "structural mismatch for {source:?}");
        assert_spans_equal(&program, &decoded);
        // Determinism: re-encoding the decoded program is byte-identical.
        assert_eq!(bytes, encode_program(&decoded));
    }

    #[test]
    fn roundtrip_simple_statements() {
        roundtrip("ego = Object at 0 @ 0\nObject at 0 @ (5, 10)\n");
        roundtrip("import gtaLib\nparam time = (0, 24), weather = 'sunny'\npass\n");
        roundtrip("require ego can see 0 @ 7\nrequire[0.5] ego.x > 3\nmutate\nmutate a, b by 2\n");
    }

    #[test]
    fn roundtrip_expressions() {
        roundtrip(
            "x = -3.25 % 2 + 4 * (1, 2) / 7\n\
             y = x if x > 0 and x != 1 else not False\n\
             z = [1, 'two', None, {1: 2}][0]\n\
             w = sin(x, key=y).real\n\
             h = 30 deg relative to x\n\
             v = (0 @ 1 offset by 1 @ 0) offset along 90 deg by 0 @ 2\n\
             d = distance from x to y\n\
             a = angle to 1 @ 2\n\
             r = relative heading of 0 from 1\n\
             p = apparent heading of x\n",
        );
    }

    #[test]
    fn roundtrip_specifiers_and_classes() {
        roundtrip(
            "class Car(Object):\n    width: 2\n    height: (4, 5)\n\
             ego = Car at 0 @ 0, facing 30 deg, with viewAngle 90 deg\n\
             Car left of ego by 2, facing toward 0 @ 0\n\
             Car beyond 1 @ 2 by 0 @ 3 from 4 @ 5, visible\n\
             Car offset along 0 by 1 @ 0, apparently facing 10 deg from 0 @ 0\n",
        );
    }

    #[test]
    fn roundtrip_control_flow_and_defs() {
        roundtrip(
            "def f(a, b=2):\n    if a > b:\n        return a\n    elif a == b:\n        pass\n    else:\n        return b\n\
             for i in range(3):\n        x = i\n\
             while False:\n        pass\n",
        );
        roundtrip(
            "specifier slotted(i, gap=2) specifies position optionally heading requires width:\n    return {'position': i @ gap, 'heading': 0}\n\
             ego = Object using slotted(1, gap=3)\n",
        );
    }

    #[test]
    fn decode_rejects_malformed_input() {
        let program = parse("ego = Object at 0 @ 0\n").unwrap();
        let bytes = encode_program(&program);
        // Truncation at every prefix either fails or never panics.
        for cut in 0..bytes.len() {
            assert!(decode_program(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        // Trailing garbage is rejected.
        let mut extended = bytes.clone();
        extended.push(0xff);
        assert!(decode_program(&extended).is_err());
        // Flipping tag bytes must never panic (errors are fine).
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xa5;
            let _ = decode_program(&corrupted);
        }
        assert!(decode_program(&[]).is_err());
    }
}
