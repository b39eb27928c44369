//! Compiled draw-path evaluation: a lowering pass that flattens the
//! per-candidate work of rejection sampling.
//!
//! The reference tree-walking interpreter ([`crate::Interpreter`])
//! re-executes, for *every* rejection-sampling candidate: the builtin
//! installation, the prelude (the `Point`/`OrientedPoint`/`Object`
//! class definitions), and every auto-imported library module — plus,
//! per object construction, a deep clone of every class default
//! expression, a `self`-dependency walk over each of them, and a fresh
//! topological sort of the specifier graph (Algorithm 1). None of that
//! depends on the candidate's random draws, so the lowering pass stages
//! it once per scenario:
//!
//! - **Constant folding** rewrites the user program, the prelude, and
//!   the module libraries with literal arithmetic pre-evaluated
//!   (`-30 deg`, `5 / 2`, `2 < 3`, branches of `a if True else b`).
//!   Folding never touches `(low, high)` intervals or calls — anything
//!   that draws, or could draw, from the RNG — and never folds an
//!   expression whose evaluation would error (division by zero stays in
//!   the tree), so the folded program consumes the random stream
//!   byte-for-byte like the original and fails exactly where it would.
//! - **Prefix hoisting** executes the deterministic prefix (builtins,
//!   `workspace`, prelude, auto-imports) once per thread into a shared
//!   *base environment*; each candidate then runs only the user program
//!   in a fresh child scope of that base.
//! - **Construction staging** caches, per library class, the staged
//!   default-value specifiers (an `Rc` clone per candidate instead of a
//!   deep expression clone plus dependency walk) and, per construction
//!   *site*, the specifier metadata rows plus their Algorithm 1
//!   resolution (`CtorStage`) — revalidated each candidate by a cheap
//!   per-entry shape tag, since metadata depends only on the specifier
//!   syntax and that classification, never on the values drawn.
//!
//! # Why the RNG stream is identical
//!
//! The sampler's determinism contract is that engine choice never
//! changes a drawn scene, so every transformation here must preserve
//! the exact sequence of RNG draws:
//!
//! - Folding only rewrites expressions built from literals, which never
//!   draw; intervals, calls, and anything containing them are rebuilt
//!   untouched. A folded `if`-expression arm is only selected when the
//!   condition is a literal, mirroring the interpreter's eager branch
//!   pick on non-random conditions.
//! - The hoisted prefix is *verified* to draw nothing: the base build
//!   runs it against a scratch RNG and compares the generator state
//!   before and after (the vendored [`StdRng`] is `PartialEq`). A
//!   prefix that consumed randomness — or created objects, parameters,
//!   or requirements — disqualifies hoisting.
//! - Construction staging caches pure metadata only; evaluation of the
//!   staged expressions still happens per candidate, in the same order
//!   the interpreter would evaluate them.
//!
//! # Fallback
//!
//! Hoisting is verified, not assumed. If any static or dynamic check
//! fails (see [`CompiledProgram::hoisted`]), the compiled engine runs
//! candidates through [`crate::Scenario::generate_pruned`] on the
//! folded program — the reference path — so results stay correct, just
//! without the speedup.

use crate::analysis;
use crate::env::{clear, own_vars, EnvRef, Scope};
use crate::error::RunResult;
use crate::interp::{Interpreter, Scenario};
use crate::prune::PrunePlan;
use crate::scene::Scene;
use crate::specifier::{ResolvedOrder, SpecMeta};
use crate::value::{DistSpec, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenic_lang::ast::{
    BinOp, ClassDef, CmpOp, Expr, FuncDef, Program, Specifier, SpecifierDef, Stmt, StmtKind,
};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which evaluation engine executes sampling candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The reference tree-walking interpreter.
    Ast,
    /// The lowered draw path ([`CompiledProgram`]): scene-for-scene and
    /// byte-for-byte identical to [`Engine::Ast`], including the RNG
    /// stream, but with the candidate-invariant work hoisted out.
    #[default]
    Compiled,
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ast" => Ok(Engine::Ast),
            "compiled" => Ok(Engine::Compiled),
            other => Err(format!(
                "unknown engine `{other}` (expected `ast` or `compiled`)"
            )),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Ast => write!(f, "ast"),
            Engine::Compiled => write!(f, "compiled"),
        }
    }
}

/// A scenario lowered for fast per-candidate evaluation: the
/// constant-folded programs plus the static hoist-safety verdict.
///
/// Built once per [`Scenario`] (cached behind the scenario's
/// `OnceLock`, like the prune plan) and shared across batch worker
/// threads; the hoisted base environment itself is interior-mutable
/// interpreter state and therefore lives in a per-thread cache keyed by
/// this program's identity.
#[derive(Debug)]
pub struct CompiledProgram {
    /// Process-unique identity for the per-thread base cache.
    id: u64,
    /// The constant-folded scenario (same world, shared prune plan).
    folded: Scenario,
    /// Static hoist-safety verdict; `false` forces the fallback path.
    hoistable: bool,
    /// Names a candidate might `assign`. If any of them names a base
    /// variable, assignment would write the shared base scope and leak
    /// state across candidates — checked against the built base.
    mutable_names: HashSet<String>,
}

/// Source of `CompiledProgram::id` values.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Per-thread cap on cached base environments (cleared wholesale when
/// exceeded; scenarios are few, this is a leak guard, not an LRU).
const MAX_CACHED_BASES: usize = 32;

thread_local! {
    /// Hoisted bases by `CompiledProgram::id`. `None` records a failed
    /// dynamic check so fallback runs don't rebuild the base each
    /// candidate.
    static BASES: RefCell<HashMap<u64, Option<Rc<HoistedBase>>>> =
        RefCell::new(HashMap::new());
}

/// The once-per-thread result of executing a scenario's deterministic
/// prefix: the shared base scope, the modules it imported, and the
/// construction caches every candidate on this thread reuses.
struct HoistedBase {
    globals: EnvRef,
    imported: HashSet<String>,
    cache: Rc<ExecCache>,
}

impl Drop for HoistedBase {
    /// The prelude's classes close over the base scope that holds them;
    /// clearing it frees the scope once `BASES` lets go of the base.
    fn drop(&mut self) {
        clear(&self.globals);
    }
}

/// Per-thread construction caches handed to each candidate's
/// interpreter: staged class defaults and memoized specifier
/// resolution. Keyed to one base environment — entries are only valid
/// (and only looked up) for classes whose defining scope *is* that
/// base.
pub(crate) struct ExecCache {
    /// The base scope the cached classes live in.
    pub(crate) base_env: EnvRef,
    /// Staged defaults keyed by class pointer identity.
    pub(crate) defaults: RefCell<HashMap<usize, Rc<Vec<CachedDefault>>>>,
    /// Staged construction sites keyed by `(specifier-list pointer,
    /// class pointer)`. Both pointers are stable for the cache's
    /// lifetime: the specifier list lives in the folded program this
    /// cache was built for (a site in a `def` body too, as a definition
    /// shares its body rather than copying it), and only classes living
    /// in `base_env` (which this cache keeps alive) are staged.
    pub(crate) ctors: RefCell<HashMap<(usize, usize), Rc<CtorStage>>>,
}

/// One staged construction site: the specifier metadata (explicit
/// entries first, then class defaults) and the Algorithm 1 resolution
/// over it, built on the first construction and reused by every later
/// candidate whose per-run specifier classification matches.
pub(crate) struct CtorStage {
    /// Per-entry classification fingerprint validating reuse — the only
    /// run-to-run variability in a site's metadata (see
    /// [`crate::interp::ActionShape`]).
    pub(crate) shapes: Vec<crate::interp::ActionShape>,
    /// Specifier metadata rows, aligned with the prepared actions.
    pub(crate) metas: Vec<SpecMeta>,
    /// The resolved specifier order over `metas`.
    pub(crate) order: ResolvedOrder,
}

/// One staged class-default specifier: precomputed metadata plus the
/// shared default expression.
pub(crate) struct CachedDefault {
    /// Specifier metadata (name, specified property, `self` deps).
    pub(crate) meta: SpecMeta,
    /// The property the default assigns.
    pub(crate) prop: String,
    /// The default expression, shared instead of deep-cloned.
    pub(crate) expr: Rc<Expr>,
}

/// Lowers a scenario: constant-folds every program and computes the
/// static hoist-safety analysis. Cheap enough to run eagerly; the
/// per-thread base build (and its dynamic verification) happens on
/// first generation.
pub(crate) fn lower(scenario: &Scenario) -> CompiledProgram {
    let folded = Scenario {
        program: Arc::new(fold_program(&scenario.program)),
        world: scenario.world.clone(),
        prelude: Arc::new(fold_program(&scenario.prelude)),
        module_programs: scenario
            .module_programs
            .iter()
            .map(|(name, p)| (name.clone(), Arc::new(fold_program(p))))
            .collect(),
        prune: Arc::clone(&scenario.prune),
        compiled: Arc::new(std::sync::OnceLock::new()),
    };

    // Static hoist-safety. Library code (prelude + modules) runs in, or
    // closes over, the shared base scope; its lookups must never be
    // able to land on a name the user program (re)defines, because in
    // single-scope AST evaluation those user definitions *would* be
    // visible to, e.g., a library class default evaluated later.
    let mut user_defined = HashSet::new();
    defined_names(&folded.program.statements, &mut user_defined);
    let mut library_refs = HashSet::new();
    referenced_idents(&folded.prelude.statements, &mut library_refs);
    for program in folded.module_programs.values() {
        referenced_idents(&program.statements, &mut library_refs);
    }
    // `self` in a class default is bound by the interpreter before the
    // expression evaluates, in both engines — never a free reference.
    library_refs.remove("self");
    let hoistable = user_defined.is_disjoint(&library_refs);

    // Assignment targets that can execute during a candidate: the whole
    // user program, function/specifier bodies anywhere (they only run
    // when called), and the full body of any module that is *not*
    // auto-imported (an `import` in the user program executes it per
    // candidate).
    let mut mutable_names = HashSet::new();
    assigns_all(&folded.program.statements, &mut mutable_names);
    assigns_in_defs(&folded.prelude.statements, &mut mutable_names);
    for (name, program) in &folded.module_programs {
        if folded.world.auto_imports.iter().any(|m| m == name) {
            assigns_in_defs(&program.statements, &mut mutable_names);
        } else {
            assigns_all(&program.statements, &mut mutable_names);
        }
    }

    CompiledProgram {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        folded,
        hoistable,
        mutable_names,
    }
}

impl CompiledProgram {
    /// Executes one candidate. On the fast path the deterministic
    /// prefix comes from this thread's hoisted base and only the user
    /// program runs; otherwise the folded program runs end-to-end on
    /// the reference path.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::generate_pruned`].
    pub fn generate<'a>(
        &'a self,
        rng: &mut StdRng,
        plan: Option<&'a PrunePlan>,
    ) -> RunResult<Scene> {
        match self.base() {
            Some(base) => {
                let globals = Scope::child(&base.globals);
                let mut interp = Interpreter::with_base(
                    &self.folded,
                    rng,
                    globals,
                    base.imported.clone(),
                    Rc::clone(&base.cache),
                    plan,
                );
                interp.run_main()
            }
            None => self.folded.generate_pruned(rng, plan),
        }
    }

    /// Whether candidates on this thread run on the hoisted fast path
    /// (building and verifying the base on first call). `false` means
    /// every candidate takes the reference fallback.
    pub fn hoisted(&self) -> bool {
        self.base().is_some()
    }

    /// The constant-folded scenario this program executes.
    pub fn folded(&self) -> &Scenario {
        &self.folded
    }

    fn base(&self) -> Option<Rc<HoistedBase>> {
        if !self.hoistable {
            return None;
        }
        if let Some(cached) = BASES.with(|b| b.borrow().get(&self.id).cloned()) {
            return cached;
        }
        let built = self.build_base().map(Rc::new);
        BASES.with(|b| {
            let mut map = b.borrow_mut();
            if map.len() >= MAX_CACHED_BASES && !map.contains_key(&self.id) {
                map.clear();
            }
            map.insert(self.id, built.clone());
        });
        built
    }

    /// Runs the deterministic prefix once and verifies, at runtime,
    /// everything the static analysis could not: the prefix draws no
    /// randomness, allocates no per-candidate state, and leaves no
    /// value in the base scope that a candidate could mutate in place.
    fn build_base(&self) -> Option<HoistedBase> {
        let mut rng = StdRng::seed_from_u64(0);
        let snapshot = rng.clone();
        let (globals, imported, clean) = {
            let mut interp = Interpreter::new(&self.folded, &mut rng);
            let ran = interp.run_prefix();
            let (globals, imported) = interp.base_snapshot();
            (globals, imported, ran.is_ok() && interp.prefix_is_clean())
        };
        // Owned by a base from here on, so a rejected base is cleared
        // on drop like any other.
        let base = HoistedBase {
            cache: Rc::new(ExecCache {
                base_env: globals.clone(),
                defaults: RefCell::new(HashMap::new()),
                ctors: RefCell::new(HashMap::new()),
            }),
            globals,
            imported,
        };
        if rng != snapshot || !clean {
            return None;
        }
        for (name, value) in own_vars(&base.globals) {
            if self.mutable_names.contains(&name) {
                return None;
            }
            if !value_is_hoist_safe(&value, &base.globals) {
                return None;
            }
        }
        Some(base)
    }
}

/// Whether a base-scope value can safely be shared by every candidate:
/// no `Object` anywhere inside it (candidates can `mutate` objects in
/// place), and any closure or class must close over the base scope
/// itself, not some other mutable environment.
fn value_is_hoist_safe(value: &Value, base: &EnvRef) -> bool {
    match value {
        Value::Object(_) => false,
        Value::List(items) => items.iter().all(|v| value_is_hoist_safe(v, base)),
        Value::Dict(d) => d
            .borrow()
            .iter()
            .all(|(k, v)| value_is_hoist_safe(k, base) && value_is_hoist_safe(v, base)),
        Value::Sample(s) => {
            value_is_hoist_safe(&s.value, base)
                && match s.spec.as_ref() {
                    DistSpec::UniformOf(vs) => vs.iter().all(|v| value_is_hoist_safe(v, base)),
                    DistSpec::Discrete(vs) => vs.iter().all(|(v, _)| value_is_hoist_safe(v, base)),
                    _ => true,
                }
        }
        Value::Function(f) => Rc::ptr_eq(&f.closure, base),
        Value::Specifier(s) => Rc::ptr_eq(&s.closure, base),
        Value::Class(c) => Rc::ptr_eq(&c.env, base),
        _ => true,
    }
}

// ---------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------

/// Folds every statement of a program.
fn fold_program(program: &Program) -> Program {
    Program {
        statements: fold_block(&program.statements),
    }
}

fn fold_block(stmts: &[Stmt]) -> Vec<Stmt> {
    stmts.iter().map(fold_stmt).collect()
}

fn fold_stmt(stmt: &Stmt) -> Stmt {
    let kind = match &stmt.kind {
        StmtKind::Import(name) => StmtKind::Import(name.clone()),
        StmtKind::Assign { name, value } => StmtKind::Assign {
            name: name.clone(),
            value: fold_expr(value),
        },
        StmtKind::Param(params) => StmtKind::Param(
            params
                .iter()
                .map(|(n, e)| (n.clone(), fold_expr(e)))
                .collect(),
        ),
        StmtKind::ClassDef(cd) => StmtKind::ClassDef(ClassDef {
            name: cd.name.clone(),
            superclass: cd.superclass.clone(),
            properties: cd
                .properties
                .iter()
                .map(|(p, e)| (p.clone(), fold_expr(e)))
                .collect(),
        }),
        StmtKind::Expr(e) => StmtKind::Expr(fold_expr(e)),
        StmtKind::Require { prob, cond } => StmtKind::Require {
            prob: prob.as_ref().map(fold_expr),
            cond: fold_expr(cond),
        },
        StmtKind::Mutate { targets, scale } => StmtKind::Mutate {
            targets: targets.clone(),
            scale: scale.as_ref().map(fold_expr),
        },
        StmtKind::FuncDef(fd) => StmtKind::FuncDef(Arc::new(FuncDef {
            name: fd.name.clone(),
            params: fold_params(&fd.params),
            body: fold_block(&fd.body),
        })),
        StmtKind::SpecifierDef(sd) => StmtKind::SpecifierDef(Arc::new(SpecifierDef {
            name: sd.name.clone(),
            params: fold_params(&sd.params),
            specifies: sd.specifies.clone(),
            optional: sd.optional.clone(),
            requires: sd.requires.clone(),
            body: fold_block(&sd.body),
        })),
        StmtKind::Return(e) => StmtKind::Return(e.as_ref().map(fold_expr)),
        StmtKind::If {
            branches,
            else_body,
        } => StmtKind::If {
            branches: branches
                .iter()
                .map(|(c, b)| (fold_expr(c), fold_block(b)))
                .collect(),
            else_body: fold_block(else_body),
        },
        StmtKind::For { var, iter, body } => StmtKind::For {
            var: var.clone(),
            iter: fold_expr(iter),
            body: fold_block(body),
        },
        StmtKind::While { cond, body } => StmtKind::While {
            cond: fold_expr(cond),
            body: fold_block(body),
        },
        StmtKind::Pass => StmtKind::Pass,
    };
    Stmt {
        kind,
        span: stmt.span,
    }
}

fn fold_params(params: &[(String, Option<Expr>)]) -> Vec<(String, Option<Expr>)> {
    params
        .iter()
        .map(|(n, d)| (n.clone(), d.as_ref().map(fold_expr)))
        .collect()
}

/// Folds one expression bottom-up. Conservative by construction: only
/// rewrites applications over *literals*, never distributions
/// (`Interval` draws from the RNG when evaluated) or calls, and never
/// folds anything whose evaluation the interpreter would reject
/// (division by zero, boolean coercion of a number).
fn fold_expr(expr: &Expr) -> Expr {
    let bf = |e: &Expr| Box::new(fold_expr(e));
    let of = |e: &Option<Box<Expr>>| e.as_ref().map(|e| Box::new(fold_expr(e)));
    match expr {
        Expr::Number(_) | Expr::Bool(_) | Expr::Str(_) | Expr::None | Expr::Ident(_) => {
            expr.clone()
        }
        Expr::Vector(x, y) => Expr::Vector(bf(x), bf(y)),
        // Evaluating an interval draws: fold the bounds, keep the node.
        Expr::Interval(lo, hi) => Expr::Interval(bf(lo), bf(hi)),
        Expr::Call { func, args, kwargs } => Expr::Call {
            func: bf(func),
            args: args.iter().map(fold_expr).collect(),
            kwargs: kwargs
                .iter()
                .map(|(k, v)| (k.clone(), fold_expr(v)))
                .collect(),
        },
        Expr::Attribute { obj, name } => Expr::Attribute {
            obj: bf(obj),
            name: name.clone(),
        },
        Expr::Index { obj, key } => Expr::Index {
            obj: bf(obj),
            key: bf(key),
        },
        Expr::List(items) => Expr::List(items.iter().map(fold_expr).collect()),
        Expr::Dict(pairs) => Expr::Dict(
            pairs
                .iter()
                .map(|(k, v)| (fold_expr(k), fold_expr(v)))
                .collect(),
        ),
        Expr::Neg(e) => match fold_expr(e) {
            Expr::Number(n) => Expr::Number(-n),
            other => Expr::Neg(Box::new(other)),
        },
        Expr::NotOp(e) => match fold_expr(e) {
            Expr::Bool(b) => Expr::Bool(!b),
            other => Expr::NotOp(Box::new(other)),
        },
        Expr::Binary { op, lhs, rhs } => fold_binary(*op, fold_expr(lhs), fold_expr(rhs)),
        Expr::Compare { op, lhs, rhs } => fold_compare(*op, fold_expr(lhs), fold_expr(rhs)),
        Expr::IfElse {
            cond,
            then,
            otherwise,
        } => match fold_expr(cond) {
            // The interpreter picks the branch eagerly on a non-random
            // condition; a literal condition makes that pick static.
            Expr::Bool(true) => fold_expr(then),
            Expr::Bool(false) => fold_expr(otherwise),
            cond => Expr::IfElse {
                cond: Box::new(cond),
                then: bf(then),
                otherwise: bf(otherwise),
            },
        },
        Expr::Deg(e) => match fold_expr(e) {
            Expr::Number(n) => Expr::Number(n.to_radians()),
            other => Expr::Deg(Box::new(other)),
        },
        Expr::RelativeTo(a, b) => Expr::RelativeTo(bf(a), bf(b)),
        Expr::OffsetBy(a, b) => Expr::OffsetBy(bf(a), bf(b)),
        Expr::OffsetAlong {
            base,
            direction,
            offset,
        } => Expr::OffsetAlong {
            base: bf(base),
            direction: bf(direction),
            offset: bf(offset),
        },
        Expr::FieldAt(f, v) => Expr::FieldAt(bf(f), bf(v)),
        Expr::CanSee(a, b) => Expr::CanSee(bf(a), bf(b)),
        Expr::IsIn(a, b) => Expr::IsIn(bf(a), bf(b)),
        Expr::DistanceTo { from, to } => Expr::DistanceTo {
            from: of(from),
            to: bf(to),
        },
        Expr::AngleTo { from, to } => Expr::AngleTo {
            from: of(from),
            to: bf(to),
        },
        Expr::RelativeHeadingOf { of: subj, from } => Expr::RelativeHeadingOf {
            of: bf(subj),
            from: of(from),
        },
        Expr::ApparentHeadingOf { of: subj, from } => Expr::ApparentHeadingOf {
            of: bf(subj),
            from: of(from),
        },
        Expr::Visible(r) => Expr::Visible(bf(r)),
        Expr::VisibleFrom(r, p) => Expr::VisibleFrom(bf(r), bf(p)),
        Expr::Follow {
            field,
            from,
            distance,
        } => Expr::Follow {
            field: bf(field),
            from: of(from),
            distance: bf(distance),
        },
        Expr::BoxPointOf { which, obj } => Expr::BoxPointOf {
            which: *which,
            obj: bf(obj),
        },
        Expr::Ctor { class, specifiers } => Expr::Ctor {
            class: class.clone(),
            specifiers: specifiers.iter().map(fold_specifier).collect(),
        },
    }
}

fn fold_specifier(spec: &Specifier) -> Specifier {
    let f = fold_expr;
    let opt = |e: &Option<Expr>| e.as_ref().map(fold_expr);
    match spec {
        Specifier::With(p, e) => Specifier::With(p.clone(), f(e)),
        Specifier::At(e) => Specifier::At(f(e)),
        Specifier::OffsetBy(e) => Specifier::OffsetBy(f(e)),
        Specifier::OffsetAlong(a, b) => Specifier::OffsetAlong(f(a), f(b)),
        Specifier::Beside { side, target, by } => Specifier::Beside {
            side: *side,
            target: f(target),
            by: opt(by),
        },
        Specifier::Beyond {
            target,
            offset,
            from,
        } => Specifier::Beyond {
            target: f(target),
            offset: f(offset),
            from: opt(from),
        },
        Specifier::Visible(from) => Specifier::Visible(opt(from)),
        Specifier::InRegion(e) => Specifier::InRegion(f(e)),
        Specifier::Following {
            field,
            from,
            distance,
        } => Specifier::Following {
            field: f(field),
            from: opt(from),
            distance: f(distance),
        },
        Specifier::Facing(e) => Specifier::Facing(f(e)),
        Specifier::FacingToward(e) => Specifier::FacingToward(f(e)),
        Specifier::FacingAwayFrom(e) => Specifier::FacingAwayFrom(f(e)),
        Specifier::ApparentlyFacing { heading, from } => Specifier::ApparentlyFacing {
            heading: f(heading),
            from: opt(from),
        },
        Specifier::Using { name, args, kwargs } => Specifier::Using {
            name: name.clone(),
            args: args.iter().map(fold_expr).collect(),
            kwargs: kwargs
                .iter()
                .map(|(k, v)| (k.clone(), fold_expr(v)))
                .collect(),
        },
    }
}

/// Folds a binary application over literal operands, mirroring the
/// interpreter's numeric/string cases exactly. Short-circuit folds for
/// `and`/`or` only fire where the interpreter provably never evaluates
/// the right operand.
fn fold_binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    match (op, &lhs, &rhs) {
        (BinOp::Add, Expr::Number(a), Expr::Number(b)) => Expr::Number(a + b),
        (BinOp::Sub, Expr::Number(a), Expr::Number(b)) => Expr::Number(a - b),
        (BinOp::Mul, Expr::Number(a), Expr::Number(b)) => Expr::Number(a * b),
        // Division/modulo by literal zero is a runtime error; leave the
        // node so the error (and its source line) survive.
        (BinOp::Div, Expr::Number(a), Expr::Number(b)) if *b != 0.0 => Expr::Number(a / b),
        (BinOp::Mod, Expr::Number(a), Expr::Number(b)) if *b != 0.0 => {
            Expr::Number(a.rem_euclid(*b))
        }
        (BinOp::Add, Expr::Str(a), Expr::Str(b)) => Expr::Str(format!("{a}{b}")),
        (BinOp::And, Expr::Bool(false), _) => Expr::Bool(false),
        (BinOp::Or, Expr::Bool(true), _) => Expr::Bool(true),
        (BinOp::And, Expr::Bool(true), Expr::Bool(b)) => Expr::Bool(*b),
        (BinOp::Or, Expr::Bool(false), Expr::Bool(b)) => Expr::Bool(*b),
        _ => Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        },
    }
}

/// Folds a comparison over same-kind literals (numbers order and
/// compare; strings and booleans compare for equality/identity only),
/// mirroring [`Value::equals`].
fn fold_compare(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
    let eq = match (&lhs, &rhs) {
        (Expr::Number(a), Expr::Number(b)) => {
            if let Some(b) = match op {
                CmpOp::Lt => Some(a < b),
                CmpOp::Le => Some(a <= b),
                CmpOp::Gt => Some(a > b),
                CmpOp::Ge => Some(a >= b),
                _ => None,
            } {
                return Expr::Bool(b);
            }
            Some(a == b)
        }
        (Expr::Str(a), Expr::Str(b)) => Some(a == b),
        (Expr::Bool(a), Expr::Bool(b)) => Some(a == b),
        _ => None,
    };
    match (op, eq) {
        (CmpOp::Eq | CmpOp::Is, Some(eq)) => Expr::Bool(eq),
        (CmpOp::Ne | CmpOp::IsNot, Some(eq)) => Expr::Bool(!eq),
        _ => Expr::Compare {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        },
    }
}

// ---------------------------------------------------------------------
// Static hoist-safety analysis
// ---------------------------------------------------------------------

/// `assign` targets at every nesting depth.
fn assigns_all(stmts: &[Stmt], out: &mut HashSet<String>) {
    for stmt in stmts {
        if let StmtKind::Assign { name, .. } = &stmt.kind {
            out.insert(name.clone());
        }
        stmt.for_each_body(|body| assigns_all(body, out));
    }
}

/// `assign` targets inside function/specifier bodies only — the
/// statements of a library that run *per candidate* (when called)
/// rather than once during the prefix.
fn assigns_in_defs(stmts: &[Stmt], out: &mut HashSet<String>) {
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::FuncDef(_) | StmtKind::SpecifierDef(_) => {
                stmt.for_each_body(|body| assigns_all(body, out))
            }
            _ => stmt.for_each_body(|body| assigns_in_defs(body, out)),
        }
    }
}

/// Every name the statements bind: assignments, class/function/
/// specifier definitions, and loop variables, at every depth.
fn defined_names(stmts: &[Stmt], out: &mut HashSet<String>) {
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::Assign { name, .. } | StmtKind::For { var: name, .. } => {
                out.insert(name.clone());
            }
            StmtKind::ClassDef(cd) => {
                out.insert(cd.name.clone());
            }
            StmtKind::FuncDef(fd) => {
                out.insert(fd.name.clone());
            }
            StmtKind::SpecifierDef(sd) => {
                out.insert(sd.name.clone());
            }
            _ => {}
        }
        stmt.for_each_body(|body| defined_names(body, out));
    }
}

/// Every identifier the statements might look up *in their defining
/// scope* ([`analysis::stmt_reads`] at every depth, including
/// default-value and parameter-default expressions). References inside
/// a function or specifier body to that def's own parameters are *not*
/// free — parameters are bound in the local scope at call entry, before
/// any body statement runs, so they can never resolve to an outer name
/// in either engine. Locally-assigned names are NOT subtracted: our
/// scoping is dynamic, so a body can read a name before its own
/// assignment reaches it (`x = x + 1` reads the outer `x`).
fn referenced_idents(stmts: &[Stmt], out: &mut HashSet<String>) {
    for stmt in stmts {
        let params = match &stmt.kind {
            StmtKind::FuncDef(fd) => &fd.params,
            StmtKind::SpecifierDef(sd) => &sd.params,
            _ => {
                analysis::stmt_reads(stmt, out, &mut referenced_idents);
                continue;
            }
        };
        // Parameter defaults evaluate in the defining scope (always
        // free); body references to a parameter, or to `self` (which the
        // interpreter binds before evaluating any specifier or default),
        // are not.
        let mut body_refs = HashSet::new();
        analysis::stmt_reads(stmt, out, &mut |body, _| {
            referenced_idents(body, &mut body_refs)
        });
        for (name, _) in params {
            body_refs.remove(name);
        }
        body_refs.remove("self");
        out.extend(body_refs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenic_lang::parse;

    fn fold_source(src: &str) -> Program {
        fold_program(&parse(src).unwrap())
    }

    fn first_assign_value(p: &Program) -> &Expr {
        match &p.statements[0].kind {
            StmtKind::Assign { value, .. } => value,
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn folds_literal_arithmetic() {
        let p = fold_source("x = 1 + 2 * 3 - 4 / 2\n");
        assert_eq!(*first_assign_value(&p), Expr::Number(5.0));
    }

    #[test]
    fn folds_deg_and_neg() {
        let p = fold_source("x = -30 deg\n");
        let Expr::Number(n) = first_assign_value(&p) else {
            panic!("not folded: {p:?}");
        };
        assert!((n - (-30f64).to_radians()).abs() < 1e-12);
    }

    #[test]
    fn keeps_division_by_zero() {
        let p = fold_source("x = 1 / 0\n");
        assert!(matches!(first_assign_value(&p), Expr::Binary { .. }));
    }

    #[test]
    fn never_folds_intervals() {
        // The interval itself must survive (it draws), but its literal
        // bounds fold.
        let p = fold_source("x = (1 + 1, 2 * 3)\n");
        let Expr::Interval(lo, hi) = first_assign_value(&p) else {
            panic!("interval folded away");
        };
        assert_eq!(**lo, Expr::Number(2.0));
        assert_eq!(**hi, Expr::Number(6.0));
    }

    #[test]
    fn folds_literal_conditionals() {
        let p = fold_source("x = 1 if 2 < 3 else 2\n");
        assert_eq!(*first_assign_value(&p), Expr::Number(1.0));
    }

    #[test]
    fn short_circuit_folds_respect_evaluation_order() {
        // `False and <draw>` never evaluates the draw — foldable.
        let p = fold_source("x = False and (0, 1)\n");
        assert_eq!(*first_assign_value(&p), Expr::Bool(false));
        // `True and <draw>` evaluates the draw — must not fold.
        let p = fold_source("x = True and (0, 1)\n");
        assert!(matches!(first_assign_value(&p), Expr::Binary { .. }));
    }

    #[test]
    fn static_analysis_sees_through_nesting() {
        let src = "def f(a):\n    b = a\n    return b\nc = 1\nfor i in [1]:\n    d = i\n";
        let program = parse(src).unwrap();
        let mut assigns = HashSet::new();
        assigns_all(&program.statements, &mut assigns);
        assert!(assigns.contains("b") && assigns.contains("c") && assigns.contains("d"));
        let mut nested = HashSet::new();
        assigns_in_defs(&program.statements, &mut nested);
        assert!(nested.contains("b") && !nested.contains("c"));
        let mut defined = HashSet::new();
        defined_names(&program.statements, &mut defined);
        for name in ["f", "b", "c", "i", "d"] {
            assert!(defined.contains(name), "missing {name}");
        }
    }

    #[test]
    fn compiled_run_frees_a_candidate_scope_holding_a_def() {
        let scenario = crate::compile("def f():\n    return 1\nego = Object at f() @ 0\n").unwrap();
        let program = scenario.compiled();
        let base = program.base().expect("prefix hoists");
        // What `generate` does, keeping a handle on the candidate scope.
        let globals = Scope::child(&base.globals);
        let scope = Rc::downgrade(&globals);
        let mut rng = StdRng::seed_from_u64(0);
        Interpreter::with_base(
            &program.folded,
            &mut rng,
            globals,
            base.imported.clone(),
            Rc::clone(&base.cache),
            None,
        )
        .run_main()
        .unwrap();
        assert!(scope.upgrade().is_none(), "the candidate scope leaked");
    }

    #[test]
    fn def_body_sites_stage_once() {
        // A `def` shares its body with the program, so a construction
        // site inside it keeps one address — one staging key — across
        // candidates, even though each candidate's `def` is freed.
        let scenario =
            crate::compile("def make(x):\n    return Object at x @ 0\nego = make(0)\n").unwrap();
        let program = scenario.compiled();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..3 {
            program.generate(&mut rng, None).unwrap();
        }
        let base = program.base().expect("prefix hoists");
        assert_eq!(base.cache.ctors.borrow().len(), 1);
    }

    #[test]
    fn dropped_base_frees_its_scope() {
        let scenario = crate::compile("ego = Object at 0 @ 0\n").unwrap();
        let base = scenario.compiled().build_base().expect("prefix hoists");
        let scope = Rc::downgrade(&base.globals);
        drop(base);
        assert!(scope.upgrade().is_none(), "the base scope leaked");
    }

    #[test]
    fn referenced_idents_cover_ctors_and_superclasses() {
        let src = "class Car(Vehicle):\n    width: carWidth\nego = Car at spot\n";
        let program = parse(src).unwrap();
        let mut refs = HashSet::new();
        referenced_idents(&program.statements, &mut refs);
        for name in ["Vehicle", "carWidth", "Car", "spot"] {
            assert!(refs.contains(name), "missing {name}");
        }
    }
}
