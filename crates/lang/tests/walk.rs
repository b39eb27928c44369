//! Pins the AST child walker (`Expr::for_each_child`,
//! `Specifier::for_each_expr`, `Stmt::for_each_child`): for every
//! variant, a node whose leaves are distinct identifiers, named in
//! alphabetical order of their position in the source, must yield each
//! leaf exactly once, in source order. Every syntactic pass in
//! `scenic_core` enumerates children through this walker, so a variant
//! it misses is missed by all of them — the exhaustive matches below
//! stop compiling when a variant is added, until it gets a case here.

use scenic_lang::ast::{Expr, Specifier, Stmt, StmtChild, StmtKind};
use scenic_lang::parse;
use std::collections::BTreeSet;

fn parse_stmt(src: &str) -> Stmt {
    let mut program = parse(src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
    assert_eq!(program.statements.len(), 1, "{src:?}");
    program.statements.remove(0)
}

fn parse_expr(src: &str) -> Expr {
    match parse_stmt(&format!("x = {src}\n")).kind {
        StmtKind::Assign { value, .. } => value,
        other => panic!("{src:?} parsed as {other:?}"),
    }
}

fn leaf(e: &Expr) -> String {
    match e {
        Expr::Ident(name) => name.clone(),
        other => panic!("child is not a leaf: {other:?}"),
    }
}

fn expr_children(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    e.for_each_child(|c| out.push(leaf(c)));
    out
}

fn expected(n: usize) -> Vec<String> {
    (b'a'..).take(n).map(|c| (c as char).to_string()).collect()
}

fn expr_variant(e: &Expr) -> &'static str {
    match e {
        Expr::Number(_) => "Number",
        Expr::Bool(_) => "Bool",
        Expr::Str(_) => "Str",
        Expr::None => "None",
        Expr::Ident(_) => "Ident",
        Expr::Vector(..) => "Vector",
        Expr::Interval(..) => "Interval",
        Expr::Call { .. } => "Call",
        Expr::Attribute { .. } => "Attribute",
        Expr::Index { .. } => "Index",
        Expr::List(_) => "List",
        Expr::Dict(_) => "Dict",
        Expr::Neg(_) => "Neg",
        Expr::NotOp(_) => "NotOp",
        Expr::Binary { .. } => "Binary",
        Expr::Compare { .. } => "Compare",
        Expr::IfElse { .. } => "IfElse",
        Expr::Deg(_) => "Deg",
        Expr::RelativeTo(..) => "RelativeTo",
        Expr::OffsetBy(..) => "OffsetBy",
        Expr::OffsetAlong { .. } => "OffsetAlong",
        Expr::FieldAt(..) => "FieldAt",
        Expr::CanSee(..) => "CanSee",
        Expr::IsIn(..) => "IsIn",
        Expr::DistanceTo { .. } => "DistanceTo",
        Expr::AngleTo { .. } => "AngleTo",
        Expr::RelativeHeadingOf { .. } => "RelativeHeadingOf",
        Expr::ApparentHeadingOf { .. } => "ApparentHeadingOf",
        Expr::Visible(_) => "Visible",
        Expr::VisibleFrom(..) => "VisibleFrom",
        Expr::Follow { .. } => "Follow",
        Expr::BoxPointOf { .. } => "BoxPointOf",
        Expr::Ctor { .. } => "Ctor",
    }
}

fn specifier_variant(s: &Specifier) -> &'static str {
    match s {
        Specifier::With(..) => "With",
        Specifier::At(_) => "At",
        Specifier::OffsetBy(_) => "OffsetBy",
        Specifier::OffsetAlong(..) => "OffsetAlong",
        Specifier::Beside { .. } => "Beside",
        Specifier::Beyond { .. } => "Beyond",
        Specifier::Visible(_) => "Visible",
        Specifier::InRegion(_) => "InRegion",
        Specifier::Following { .. } => "Following",
        Specifier::Facing(_) => "Facing",
        Specifier::FacingToward(_) => "FacingToward",
        Specifier::FacingAwayFrom(_) => "FacingAwayFrom",
        Specifier::ApparentlyFacing { .. } => "ApparentlyFacing",
        Specifier::Using { .. } => "Using",
    }
}

fn stmt_variant(s: &Stmt) -> &'static str {
    match &s.kind {
        StmtKind::Import(_) => "Import",
        StmtKind::Assign { .. } => "Assign",
        StmtKind::Param(_) => "Param",
        StmtKind::ClassDef(_) => "ClassDef",
        StmtKind::Expr(_) => "Expr",
        StmtKind::Require { .. } => "Require",
        StmtKind::Mutate { .. } => "Mutate",
        StmtKind::FuncDef(_) => "FuncDef",
        StmtKind::SpecifierDef(_) => "SpecifierDef",
        StmtKind::Return(_) => "Return",
        StmtKind::If { .. } => "If",
        StmtKind::For { .. } => "For",
        StmtKind::While { .. } => "While",
        StmtKind::Pass => "Pass",
    }
}

#[test]
fn expr_children_are_each_leaf_once_in_source_order() {
    let cases = [
        ("1", 0),
        ("True", 0),
        ("'s'", 0),
        ("None", 0),
        ("a", 0),
        ("a @ b", 2),
        ("(a, b)", 2),
        ("a(b, c, k=d)", 4),
        ("a.name", 1),
        ("a[b]", 2),
        ("[a, b, c]", 3),
        ("{a: b, c: d}", 4),
        ("-a", 1),
        ("not a", 1),
        ("a + b", 2),
        ("a < b", 2),
        ("a if b else c", 3),
        ("a deg", 1),
        ("a relative to b", 2),
        ("a offset by b", 2),
        ("a offset along b by c", 3),
        ("a at b", 2),
        ("a can see b", 2),
        ("a is in b", 2),
        ("distance from a to b", 2),
        ("angle from a to b", 2),
        ("relative heading of a from b", 2),
        ("apparent heading of a from b", 2),
        ("visible a", 1),
        ("a visible from b", 2),
        ("follow a from b for c", 3),
        ("back left of a", 1),
        ("Car at a, facing b", 2),
    ];
    let mut seen = BTreeSet::new();
    for (src, n) in cases {
        let e = parse_expr(src);
        seen.insert(expr_variant(&e));
        assert_eq!(expr_children(&e), expected(n), "{src:?} → {e:?}");
    }
    assert_eq!(seen.len(), 33, "an Expr variant has no case: {seen:?}");
}

#[test]
fn specifier_exprs_are_each_leaf_once_in_source_order() {
    let cases = [
        ("with prop a", 1),
        ("at a", 1),
        ("offset by a", 1),
        ("offset along a by b", 2),
        ("left of a by b", 2),
        ("beyond a by b from c", 3),
        ("visible from a", 1),
        ("visible", 0),
        ("on a", 1),
        ("following a from b for c", 3),
        ("facing a", 1),
        ("facing toward a", 1),
        ("facing away from a", 1),
        ("apparently facing a from b", 2),
        ("using name(a, k=b)", 2),
    ];
    let mut seen = BTreeSet::new();
    for (src, n) in cases {
        let ctor = parse_expr(&format!("Car {src}"));
        let Expr::Ctor { specifiers, .. } = &ctor else {
            panic!("{src:?} → {ctor:?}");
        };
        assert_eq!(specifiers.len(), 1, "{src:?}");
        seen.insert(specifier_variant(&specifiers[0]));
        let mut exprs = Vec::new();
        specifiers[0].for_each_expr(|e| exprs.push(leaf(e)));
        assert_eq!(exprs, expected(n), "{src:?}");
        // A constructor's children are its specifiers' expressions.
        assert_eq!(expr_children(&ctor), expected(n), "{src:?}");
    }
    assert_eq!(seen.len(), 14, "a Specifier variant has no case: {seen:?}");
}

/// A statement's children: an expression as its leaf name, a body as
/// its statements' leaf names in braces.
fn stmt_children(s: &Stmt) -> Vec<String> {
    let mut out = Vec::new();
    s.for_each_child(|child| match child {
        StmtChild::Expr(e) => out.push(leaf(e)),
        StmtChild::Body(body) => {
            let names: Vec<String> = body
                .iter()
                .map(|s| match &s.kind {
                    StmtKind::Expr(e) => leaf(e),
                    other => panic!("body statement is not a leaf: {other:?}"),
                })
                .collect();
            out.push(format!("{{{}}}", names.join(" ")));
        }
    });
    out
}

#[test]
fn stmt_children_are_each_expr_and_body_once_in_source_order() {
    let cases: [(&str, &[&str]); 14] = [
        ("import lib\n", &[]),
        ("x = a\n", &["a"]),
        ("param p = a, q = b\n", &["a", "b"]),
        ("class C(D):\n    p: a\n    q: b\n", &["a", "b"]),
        ("a\n", &["a"]),
        ("require[a] b\n", &["a", "b"]),
        ("mutate x by a\n", &["a"]),
        ("def f(p=a, q=b):\n    c\n", &["a", "b", "{c}"]),
        (
            "specifier s(p=a) specifies position:\n    b\n",
            &["a", "{b}"],
        ),
        ("return a\n", &["a"]),
        (
            "if a:\n    b\nelif c:\n    d\nelse:\n    e\n",
            &["a", "{b}", "c", "{d}", "{e}"],
        ),
        ("for x in a:\n    b\n", &["a", "{b}"]),
        ("while a:\n    b\n    c\n", &["a", "{b c}"]),
        ("pass\n", &[]),
    ];
    let mut seen = BTreeSet::new();
    for (src, want) in cases {
        // `return` only parses inside a def; test the body statement.
        let stmt = if src.starts_with("return") {
            let def = parse_stmt(&format!("def f():\n    {src}"));
            let StmtKind::FuncDef(fd) = def.kind else {
                unreachable!()
            };
            fd.body[0].clone()
        } else {
            parse_stmt(src)
        };
        seen.insert(stmt_variant(&stmt));
        assert_eq!(stmt_children(&stmt), want, "{src:?}");
        let mut bodies = Vec::new();
        stmt.for_each_body(|b| bodies.push(b.len()));
        assert_eq!(
            bodies.len(),
            want.iter().filter(|c| c.starts_with('{')).count(),
            "{src:?}"
        );
    }
    assert_eq!(seen.len(), 14, "a StmtKind variant has no case: {seen:?}");
}
