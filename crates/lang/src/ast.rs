//! Abstract syntax tree for Scenic.
//!
//! Mirrors the grammar of Fig. 5 in the paper: statements (Table 5),
//! expressions/operators (Fig. 7), and specifiers (Tables 3 & 4).

use crate::token::Span;
use std::fmt;
use std::sync::Arc;

/// A parsed Scenic scenario: a sequence of imports followed by
/// statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level statements in source order.
    pub statements: Vec<Stmt>,
}

/// A statement, tagged with the source range it covers.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// What the statement does.
    pub kind: StmtKind,
    /// Source range of the statement (for a block statement, the whole
    /// block including its body).
    pub span: Span,
}

/// Structural equality: two statements are equal when they do the same
/// thing, wherever they sit in the source (so a pretty-print/re-parse
/// round trip compares equal even though the layout moved).
impl PartialEq for Stmt {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl Stmt {
    /// The 1-based source line where the statement starts.
    pub fn line(&self) -> u32 {
        self.span.start.line
    }

    /// Calls `f` on each direct child of the statement, in source order:
    /// the expressions it evaluates itself (a class's property defaults,
    /// a `def`'s parameter defaults, conditions, values) and its nested
    /// bodies (`def`/`specifier` bodies, each `if`/`elif` body after its
    /// condition, then the `else` body, and `for`/`while` bodies).
    /// Names that are not expressions (assignment targets, superclass
    /// names, `mutate` targets) are not children.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(StmtChild<'a>)) {
        use StmtChild::{Body, Expr as E};
        match &self.kind {
            StmtKind::Import(_) | StmtKind::Pass => {}
            StmtKind::Assign { value, .. } => f(E(value)),
            StmtKind::Param(params) => params.iter().for_each(|(_, e)| f(E(e))),
            StmtKind::ClassDef(cd) => cd.properties.iter().for_each(|(_, e)| f(E(e))),
            StmtKind::Expr(e) => f(E(e)),
            StmtKind::Require { prob, cond } => {
                prob.iter().for_each(|e| f(E(e)));
                f(E(cond));
            }
            StmtKind::Mutate { scale, .. } => scale.iter().for_each(|e| f(E(e))),
            StmtKind::FuncDef(fd) => {
                fd.params.iter().flat_map(|(_, d)| d).for_each(|e| f(E(e)));
                f(Body(&fd.body));
            }
            StmtKind::SpecifierDef(sd) => {
                sd.params.iter().flat_map(|(_, d)| d).for_each(|e| f(E(e)));
                f(Body(&sd.body));
            }
            StmtKind::Return(value) => value.iter().for_each(|e| f(E(e))),
            StmtKind::If {
                branches,
                else_body,
            } => {
                for (cond, body) in branches {
                    f(E(cond));
                    f(Body(body));
                }
                f(Body(else_body));
            }
            StmtKind::For { iter, body, .. } => {
                f(E(iter));
                f(Body(body));
            }
            StmtKind::While { cond, body } => {
                f(E(cond));
                f(Body(body));
            }
        }
    }

    /// Calls `f` on each nested body of the statement, in source order
    /// (the [`StmtChild::Body`] children of [`Stmt::for_each_child`]).
    pub fn for_each_body<'a>(&'a self, mut f: impl FnMut(&'a [Stmt])) {
        self.for_each_child(|child| {
            if let StmtChild::Body(body) = child {
                f(body);
            }
        });
    }
}

/// A direct child of a statement (see [`Stmt::for_each_child`]).
#[derive(Debug, Clone, Copy)]
pub enum StmtChild<'a> {
    /// An expression the statement evaluates itself.
    Expr(&'a Expr),
    /// A nested block of statements.
    Body(&'a [Stmt]),
}

/// Statement kinds (Table 5, plus the Python-inherited control flow the
/// paper mentions in §4: conditionals, loops, functions, methods).
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `import file`
    Import(String),
    /// `identifier = value`
    Assign {
        /// Assignment target.
        name: String,
        /// Right-hand side.
        value: Expr,
    },
    /// `param identifier = value, ...`
    Param(Vec<(String, Expr)>),
    /// `class Name[(Superclass)]: property: default ...`
    ClassDef(ClassDef),
    /// A bare expression (usually an object definition).
    Expr(Expr),
    /// `require B` / `require[p] B`
    Require {
        /// Soft-requirement probability (hard requirement when `None`).
        prob: Option<Expr>,
        /// The condition that must hold.
        cond: Expr,
    },
    /// `mutate x, y by n` (empty target list = every object).
    Mutate {
        /// Objects to mutate (all objects when empty).
        targets: Vec<String>,
        /// Noise scale (default 1).
        scale: Option<Expr>,
    },
    /// `def name(params): body` — shared, so executing the definition
    /// captures it without copying the body.
    FuncDef(Arc<FuncDef>),
    /// `specifier name(params) specifies props …: body` — a user-defined
    /// specifier (the extension named in §8 of the paper).
    SpecifierDef(Arc<SpecifierDef>),
    /// `return [expr]`
    Return(Option<Expr>),
    /// `if/elif/else`
    If {
        /// `(condition, body)` pairs for `if` and each `elif`.
        branches: Vec<(Expr, Vec<Stmt>)>,
        /// The `else` body (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `for var in iterable: body`
    For {
        /// Loop variable.
        var: String,
        /// Iterated expression (e.g. `range(n)` or a list).
        iter: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `while cond: body` (condition must be non-random, §4).
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `pass`
    Pass,
}

/// A class definition with per-property default-value expressions
/// (evaluated per instance, §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Optional superclass (defaults to `Object` at runtime).
    pub superclass: Option<String>,
    /// `property: defaultValueExpr` pairs in declaration order.
    pub properties: Vec<(String, Expr)>,
}

/// A user-defined specifier definition:
///
/// ```text
/// specifier name(params) specifies p1, p2 [optionally q1, …] [requires d1, …]:
///     body ending in `return {"p1": …, "p2": …}`
/// ```
///
/// At a construction site it is applied with `using name(args)`. The
/// body runs with `self` bound to the object under construction (the
/// `requires` properties are guaranteed to be assigned already, exactly
/// like the dependencies of built-in specifiers in Algorithm 1) and must
/// return a dictionary mapping each specified property name to its
/// value. Optional properties may be omitted from the result and are
/// overridden by any other specifier that targets them.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecifierDef {
    /// Specifier name.
    pub name: String,
    /// Parameters with optional default expressions.
    pub params: Vec<(String, Option<Expr>)>,
    /// Properties specified non-optionally.
    pub specifies: Vec<String>,
    /// Properties specified optionally (other specifiers may override).
    pub optional: Vec<String>,
    /// Properties the body reads from `self` (its dependencies).
    pub requires: Vec<String>,
    /// Body statements (must `return` a dict of property values).
    pub body: Vec<Stmt>,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Parameters with optional default expressions.
    pub params: Vec<(String, Option<Expr>)>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// Binary arithmetic/logic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `and`
    And,
    /// `or`
    Or,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `is` (identity; used for `is None`)
    Is,
    /// `is not`
    IsNot,
}

/// Sides for the positional operators/specifiers (`left of`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `left of`
    Left,
    /// `right of`
    Right,
    /// `ahead of`
    Ahead,
    /// `behind`
    Behind,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Left => write!(f, "left of"),
            Side::Right => write!(f, "right of"),
            Side::Ahead => write!(f, "ahead of"),
            Side::Behind => write!(f, "behind"),
        }
    }
}

/// Corners/edges for `front of`, `back left of`, … (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxPoint {
    /// `front of`
    Front,
    /// `back of`
    Back,
    /// `left of`
    Left,
    /// `right of`
    Right,
    /// `front left of`
    FrontLeft,
    /// `front right of`
    FrontRight,
    /// `back left of`
    BackLeft,
    /// `back right of`
    BackRight,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// `None`.
    None,
    /// Variable reference.
    Ident(String),
    /// `X @ Y` vector construction.
    Vector(Box<Expr>, Box<Expr>),
    /// `(low, high)` uniform-interval distribution.
    Interval(Box<Expr>, Box<Expr>),
    /// `f(args, kw=...)`
    Call {
        /// Callee expression.
        func: Box<Expr>,
        /// Positional arguments.
        args: Vec<Expr>,
        /// Keyword arguments.
        kwargs: Vec<(String, Expr)>,
    },
    /// `obj.attr`
    Attribute {
        /// Receiver.
        obj: Box<Expr>,
        /// Attribute name.
        name: String,
    },
    /// `obj[key]`
    Index {
        /// Receiver.
        obj: Box<Expr>,
        /// Key expression.
        key: Box<Expr>,
    },
    /// `[a, b, ...]`
    List(Vec<Expr>),
    /// `{k: v, ...}`
    Dict(Vec<(Expr, Expr)>),
    /// Unary negation `-x`.
    Neg(Box<Expr>),
    /// `not x`.
    NotOp(Box<Expr>),
    /// Binary operator application.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Comparison.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `a if cond else b` (Python conditional expression).
    IfElse {
        /// Condition (must be non-random, §4).
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        otherwise: Box<Expr>,
    },
    /// `X deg` — degrees-to-radians conversion.
    Deg(Box<Expr>),
    /// `X relative to Y` (headings, vectors, or fields).
    RelativeTo(Box<Expr>, Box<Expr>),
    /// `V offset by V`.
    OffsetBy(Box<Expr>, Box<Expr>),
    /// `V offset along D by V`.
    OffsetAlong {
        /// Base vector.
        base: Box<Expr>,
        /// Direction (heading or vector field).
        direction: Box<Expr>,
        /// Offset vector.
        offset: Box<Expr>,
    },
    /// `F at V` — vector field evaluation.
    FieldAt(Box<Expr>, Box<Expr>),
    /// `X can see Y`.
    CanSee(Box<Expr>, Box<Expr>),
    /// `X is in R` (also `X in R` in require conditions).
    IsIn(Box<Expr>, Box<Expr>),
    /// `distance [from X] to Y`.
    DistanceTo {
        /// Origin (`ego` when omitted).
        from: Option<Box<Expr>>,
        /// Target vector.
        to: Box<Expr>,
    },
    /// `angle [from X] to Y`.
    AngleTo {
        /// Origin (`ego` when omitted).
        from: Option<Box<Expr>>,
        /// Target vector.
        to: Box<Expr>,
    },
    /// `relative heading of H [from H2]`.
    RelativeHeadingOf {
        /// Subject heading.
        of: Box<Expr>,
        /// Reference (`ego.heading` when omitted).
        from: Option<Box<Expr>>,
    },
    /// `apparent heading of OP [from V]`.
    ApparentHeadingOf {
        /// Subject oriented point.
        of: Box<Expr>,
        /// Viewpoint (`ego.position` when omitted).
        from: Option<Box<Expr>>,
    },
    /// `visible R` — region visible from ego.
    Visible(Box<Expr>),
    /// `R visible from P`.
    VisibleFrom(Box<Expr>, Box<Expr>),
    /// `follow F [from V] for S` — oriented point along a field.
    Follow {
        /// Field to follow.
        field: Box<Expr>,
        /// Start (`ego.position` when omitted).
        from: Option<Box<Expr>>,
        /// Distance.
        distance: Box<Expr>,
    },
    /// `front of O`, `back left of O`, … — box-edge oriented points.
    BoxPointOf {
        /// Which point of the box.
        which: BoxPoint,
        /// The object.
        obj: Box<Expr>,
    },
    /// Object construction: `Class specifier, specifier, ...`
    Ctor {
        /// Class name.
        class: String,
        /// Specifier list (possibly empty).
        specifiers: Vec<Specifier>,
    },
}

impl Expr {
    /// Calls `f` on each direct child expression, in source order —
    /// including the expressions inside a constructor's specifiers (see
    /// [`Specifier::for_each_expr`]). Names that are not expressions
    /// (attribute names, keyword names, a constructor's class, a `using`
    /// specifier's name) are not children.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        use Expr::*;
        match self {
            Number(_) | Bool(_) | Str(_) | None | Ident(_) => {}
            Vector(a, b)
            | Interval(a, b)
            | RelativeTo(a, b)
            | OffsetBy(a, b)
            | FieldAt(a, b)
            | CanSee(a, b)
            | IsIn(a, b)
            | VisibleFrom(a, b)
            | Index { obj: a, key: b }
            | Binary { lhs: a, rhs: b, .. }
            | Compare { lhs: a, rhs: b, .. } => {
                f(a);
                f(b);
            }
            Call { func, args, kwargs } => {
                f(func);
                args.iter().for_each(&mut f);
                kwargs.iter().for_each(|(_, e)| f(e));
            }
            Attribute { obj: e, .. }
            | Neg(e)
            | NotOp(e)
            | Deg(e)
            | Visible(e)
            | BoxPointOf { obj: e, .. } => f(e),
            List(items) => items.iter().for_each(f),
            Dict(pairs) => pairs.iter().for_each(|(k, v)| {
                f(k);
                f(v);
            }),
            // `then if cond else otherwise`.
            IfElse {
                cond,
                then,
                otherwise,
            } => {
                f(then);
                f(cond);
                f(otherwise);
            }
            OffsetAlong {
                base,
                direction,
                offset,
            } => {
                f(base);
                f(direction);
                f(offset);
            }
            DistanceTo { from, to } | AngleTo { from, to } => {
                from.iter().for_each(|e| f(e));
                f(to);
            }
            RelativeHeadingOf { of, from } | ApparentHeadingOf { of, from } => {
                f(of);
                from.iter().for_each(|e| f(e));
            }
            Follow {
                field,
                from,
                distance,
            } => {
                f(field);
                from.iter().for_each(|e| f(e));
                f(distance);
            }
            Ctor { specifiers, .. } => specifiers.iter().for_each(|s| s.for_each_expr(&mut f)),
        }
    }
}

/// Specifiers for object construction (Tables 3 & 4).
#[derive(Debug, Clone, PartialEq)]
pub enum Specifier {
    /// `with property value` — any property.
    With(String, Expr),
    /// `at vector`.
    At(Expr),
    /// `offset by vector`.
    OffsetBy(Expr),
    /// `offset along direction by vector`.
    OffsetAlong(Expr, Expr),
    /// `left of / right of / ahead of / behind X [by scalar]` — `X` may
    /// be a vector, `OrientedPoint`, or `Object` (disambiguated at
    /// runtime, per Table 3's two groups).
    Beside {
        /// Which side.
        side: Side,
        /// The reference.
        target: Expr,
        /// Optional gap.
        by: Option<Expr>,
    },
    /// `beyond vector by vector [from vector]`.
    Beyond {
        /// Sighted target.
        target: Expr,
        /// Offset in the line-of-sight frame.
        offset: Expr,
        /// Viewpoint (`ego` when omitted).
        from: Option<Expr>,
    },
    /// `visible [from Point/OrientedPoint]`.
    Visible(Option<Expr>),
    /// `in region` / `on region` (also optionally specifies heading).
    InRegion(Expr),
    /// `following vectorField [from vector] for scalar`.
    Following {
        /// Field to follow.
        field: Expr,
        /// Start (`ego` when omitted).
        from: Option<Expr>,
        /// Distance along the field.
        distance: Expr,
    },
    /// `facing heading` or `facing vectorField` (disambiguated at
    /// runtime).
    Facing(Expr),
    /// `facing toward vector`.
    FacingToward(Expr),
    /// `facing away from vector`.
    FacingAwayFrom(Expr),
    /// `apparently facing heading [from vector]`.
    ApparentlyFacing {
        /// Apparent heading w.r.t. the line of sight.
        heading: Expr,
        /// Viewpoint (`ego` when omitted).
        from: Option<Expr>,
    },
    /// `using name(args)` — application of a user-defined specifier.
    Using {
        /// The specifier's name (looked up at runtime).
        name: String,
        /// Positional arguments.
        args: Vec<Expr>,
        /// Keyword arguments.
        kwargs: Vec<(String, Expr)>,
    },
}

impl Specifier {
    /// A short human-readable name for diagnostics.
    pub fn name(&self) -> String {
        match self {
            Specifier::With(p, _) => format!("with {p}"),
            Specifier::At(_) => "at".into(),
            Specifier::OffsetBy(_) => "offset by".into(),
            Specifier::OffsetAlong(..) => "offset along".into(),
            Specifier::Beside { side, .. } => side.to_string(),
            Specifier::Beyond { .. } => "beyond".into(),
            Specifier::Visible(_) => "visible".into(),
            Specifier::InRegion(_) => "in/on region".into(),
            Specifier::Following { .. } => "following".into(),
            Specifier::Facing(_) => "facing".into(),
            Specifier::FacingToward(_) => "facing toward".into(),
            Specifier::FacingAwayFrom(_) => "facing away from".into(),
            Specifier::ApparentlyFacing { .. } => "apparently facing".into(),
            Specifier::Using { name, .. } => format!("using {name}"),
        }
    }

    /// Calls `f` on each expression inside the specifier, in source
    /// order. The property of `with` and the name of `using` are not
    /// expressions.
    pub fn for_each_expr<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        use Specifier::*;
        match self {
            With(_, e)
            | At(e)
            | OffsetBy(e)
            | InRegion(e)
            | Facing(e)
            | FacingToward(e)
            | FacingAwayFrom(e) => f(e),
            OffsetAlong(a, b) => {
                f(a);
                f(b);
            }
            Beside { target, by, .. } => {
                f(target);
                by.iter().for_each(f);
            }
            Beyond {
                target,
                offset,
                from,
            } => {
                f(target);
                f(offset);
                from.iter().for_each(f);
            }
            Visible(from) => from.iter().for_each(f),
            Following {
                field,
                from,
                distance,
            } => {
                f(field);
                from.iter().for_each(&mut f);
                f(distance);
            }
            ApparentlyFacing { heading, from } => {
                f(heading);
                from.iter().for_each(f);
            }
            Using { args, kwargs, .. } => {
                args.iter().for_each(&mut f);
                kwargs.iter().for_each(|(_, e)| f(e));
            }
        }
    }
}
