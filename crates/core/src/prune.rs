//! Domain-specific sample-space pruning (§5.2, Algorithms 2 & 3).
//!
//! Scenic's lack of random control flow plus the geometric structure of
//! its constraints allow restricting the regions objects are sampled
//! from *before* rejection sampling, borrowing configuration-space ideas
//! from robotic path planning:
//!
//! - **containment**: an object uniform in `R` that must fit inside `C`
//!   can only be centered in `R ∩ erode(C, minRadius)`;
//! - **orientation** (Algorithm 2): with bounded relative heading and a
//!   maximum distance `M` between objects aligned to a polygonal vector
//!   field, each cell `P` shrinks to `P ∩ dilate(Q_i, M)` over the cells
//!   `Q_i` satisfying the heading constraint;
//! - **size** (Algorithm 3): cells too narrow to hold the whole
//!   configuration shrink to their parts within `M` of other cells.
//!
//! All three produce a smaller region for *position sampling only*; the
//! original vector field still supplies orientations, and the default
//! requirements are still checked afterwards, so pruning never changes
//! which scenes are accepted — only how often the sampler wastes a run.
//!
//! # Two ways to apply a pruned region
//!
//! - **Guard mode** (what [`crate::sampler::Sampler::with_pruning`]
//!   runs): positions are still drawn from the *original* region — the
//!   RNG stream is byte-identical to unpruned sampling — but every draw
//!   is checked against the pruned region, and a miss rejects the run
//!   immediately ([`crate::Rejection::Pruned`]), skipping the rest of
//!   the interpretation and the requirement checks. Accepted scenes are
//!   byte-identical with pruning on or off; the per-pruner rejection
//!   counters in [`crate::SamplerStats`] record how many candidate runs
//!   each pruner killed early, which is exactly the iteration count a
//!   sampler drawing directly from the pruned region would have saved —
//!   so one guarded run yields both columns of the paper's Appendix D
//!   comparison.
//! - **Restrict mode** ([`prune_region`], used by
//!   `scenic_gta::World::pruned`): the world's region is *replaced* by
//!   the pruned one, so the sampler never draws a pruned-away position
//!   at all. Fastest wall-clock, same conditioned distribution, but the
//!   RNG stream shifts — output is not byte-identical to unpruned runs.
//!
//! Guards are built once per compiled scenario by [`plan_for_world`]
//! (cached on [`crate::Scenario`], so `ScenarioCache` hits skip
//! re-pruning) with parameters derived from the parsed sources by
//! [`derive_params`] where a sound derivation exists.

use crate::error::RunResult;
use crate::world::{NativeValue, World};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenic_geom::clip::{dilate_convex, restrict_to_dilation};
use scenic_geom::field::FieldCell;
use scenic_geom::region::PolygonRegion;
use scenic_geom::{Heading, Polygon, Region, Vec2, VectorField};
use scenic_lang::ast::{ClassDef, Expr, Program, Specifier, Stmt, StmtChild, StmtKind};
use std::collections::HashMap;
use std::sync::Arc;

pub use crate::error::Pruner;

/// Parameters for the §5.2 pruning techniques.
#[derive(Debug, Clone, Copy)]
pub struct PruneParams {
    /// Lower bound on the distance from an object's center to its
    /// bounding box (containment pruning); 0 disables.
    pub min_radius: f64,
    /// Allowed relative-heading interval `A` between objects, in
    /// radians (orientation pruning); `None` disables.
    pub relative_heading: Option<(f64, f64)>,
    /// Maximum distance `M` between related objects.
    pub max_distance: f64,
    /// Bound `δ` on the deviation between an object's heading and the
    /// field at its position.
    pub heading_tolerance: f64,
    /// Minimum width of the whole configuration (size pruning); `None`
    /// disables.
    pub min_width: Option<f64>,
}

impl Default for PruneParams {
    fn default() -> Self {
        PruneParams {
            min_radius: 0.0,
            relative_heading: None,
            max_distance: 50.0,
            heading_tolerance: 0.0,
            min_width: None,
        }
    }
}

/// Algorithm 2: pruning based on orientation.
///
/// Keeps, for each cell `P`, the parts within `M` of some cell `Q` whose
/// relative heading (up to `±2δ` perturbation) lies in `A`.
pub fn prune_by_heading(
    cells: &[FieldCell],
    allowed: (f64, f64),
    max_distance: f64,
    delta: f64,
) -> Vec<Polygon> {
    let mut out = Vec::new();
    for p in cells {
        for q in cells {
            let rel = Heading(q.heading.radians() - p.heading.radians())
                .normalized()
                .radians();
            // The interval rel ± 2δ must intersect A.
            let lo = rel - 2.0 * delta;
            let hi = rel + 2.0 * delta;
            if hi < allowed.0 || lo > allowed.1 {
                continue;
            }
            if let Some(piece) = restrict_to_dilation(&p.polygon, &q.polygon, max_distance) {
                out.push(piece);
            }
        }
    }
    dedup_pieces(out)
}

/// Algorithm 3: pruning based on size.
///
/// Cells narrower than `min_width` (measured across the traffic
/// direction) cannot hold the whole configuration; they shrink to their
/// parts within `M` of *other* cells.
pub fn prune_by_width(cells: &[FieldCell], max_distance: f64, min_width: f64) -> Vec<Polygon> {
    let mut out = Vec::new();
    for (i, p) in cells.iter().enumerate() {
        if p.polygon.extent_across(p.heading) >= min_width {
            out.push(p.polygon.clone());
            continue;
        }
        for (j, q) in cells.iter().enumerate() {
            if i == j {
                continue;
            }
            if let Some(piece) = restrict_to_dilation(&p.polygon, &q.polygon, max_distance) {
                out.push(piece);
            }
        }
    }
    dedup_pieces(out)
}

/// Drops pieces entirely contained in an earlier piece (cheap
/// near-deduplication; exact polygon union is unnecessary because the
/// sampler re-checks requirements).
fn dedup_pieces(pieces: Vec<Polygon>) -> Vec<Polygon> {
    let mut kept: Vec<Polygon> = Vec::with_capacity(pieces.len());
    'outer: for piece in pieces {
        for existing in &kept {
            let near_duplicate = (piece.area() - existing.area()).abs()
                < 0.02 * existing.area().max(1.0)
                && piece.centroid().approx_eq(existing.centroid(), 0.5);
            if near_duplicate || piece.vertices().iter().all(|&v| existing.contains(v)) {
                continue 'outer;
            }
        }
        kept.push(piece);
    }
    kept
}

/// Area instrumentation for one pruner applied to one region: how much
/// position-sampling area entered the stage and how much survived it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunerEffect {
    /// Which pruner this effect measures.
    pub pruner: Pruner,
    /// Region area entering the stage, m².
    pub area_before: f64,
    /// Region area surviving the stage, m².
    pub area_after: f64,
}

impl PrunerEffect {
    /// Fraction of the incoming area the stage kept (1.0 when the stage
    /// saw no area).
    pub fn kept_fraction(&self) -> f64 {
        if self.area_before <= 0.0 {
            1.0
        } else {
            (self.area_after / self.area_before).clamp(0.0, 1.0)
        }
    }
}

/// One stage of [`prune_stages`]: the polygons surviving a pruner,
/// which become the next stage's input.
#[derive(Debug, Clone)]
pub struct PruneStage {
    /// Which pruner this stage applied.
    pub pruner: Pruner,
    /// The surviving polygons.
    pub polygons: Vec<Polygon>,
    /// Area before/after this stage.
    pub effect: PrunerEffect,
}

/// Applies the enabled cell-level pruners — orientation (Algorithm 2),
/// then size (Algorithm 3) — in sequence, returning each stage's
/// surviving polygons with its area effect. Containment pruning is not
/// a cell-level stage: restrict-mode callers erode the combined region
/// ([`prune_region`]); guard-mode callers erode the workspace
/// ([`plan_for_world`]).
pub fn prune_stages(cells: &[FieldCell], params: &PruneParams) -> Vec<PruneStage> {
    let mut stages: Vec<PruneStage> = Vec::new();
    let mut area: f64 = cells.iter().map(|c| c.polygon.area()).sum();
    // Union-area probes: pruned pieces may overlap (one piece per
    // qualifying cell pair), so summing piece areas over-counts; a
    // fixed-seed quadrature against the original cells measures the
    // union deterministically. Only paid when a stage actually runs.
    let probes: Vec<Vec2> = if params.relative_heading.is_some() || params.min_width.is_some() {
        probe_points(&PolygonRegion::new(
            cells.iter().map(|c| c.polygon.clone()).collect(),
            None,
        ))
    } else {
        Vec::new()
    };
    let union_area = |polys: &[Polygon]| -> f64 {
        if probes.is_empty() {
            return 0.0;
        }
        let cells_area: f64 = cells.iter().map(|c| c.polygon.area()).sum();
        let hits = probes
            .iter()
            .filter(|p| polys.iter().any(|poly| poly.contains(**p)))
            .count();
        cells_area * hits as f64 / probes.len() as f64
    };
    if let Some(allowed) = params.relative_heading {
        let polys = prune_by_heading(
            cells,
            allowed,
            params.max_distance,
            params.heading_tolerance,
        );
        let after = union_area(&polys);
        stages.push(PruneStage {
            pruner: Pruner::Orientation,
            polygons: polys,
            effect: PrunerEffect {
                pruner: Pruner::Orientation,
                area_before: area,
                area_after: after,
            },
        });
        area = after;
    }
    if let Some(min_width) = params.min_width {
        // Re-wrap the current polygons with their original headings for
        // the width measurement: use the heading of the source cell that
        // contains each piece's centroid.
        let field_heading = |poly: &Polygon| {
            let c = poly.centroid();
            cells
                .iter()
                .find(|cell| cell.polygon.contains(c))
                .map(|cell| cell.heading)
                .unwrap_or(Heading::NORTH)
        };
        let current: Vec<Polygon> = match stages.last() {
            Some(stage) => stage.polygons.clone(),
            None => cells.iter().map(|c| c.polygon.clone()).collect(),
        };
        let pieces: Vec<FieldCell> = current
            .iter()
            .map(|p| FieldCell {
                polygon: p.clone(),
                heading: field_heading(p),
            })
            .collect();
        let polys = prune_by_width(&pieces, params.max_distance, min_width);
        let after = union_area(&polys);
        stages.push(PruneStage {
            pruner: Pruner::Size,
            polygons: polys,
            effect: PrunerEffect {
                pruner: Pruner::Size,
                area_before: area,
                area_after: after,
            },
        });
    }
    stages
}

/// Combined pruning of a polygonal-cell road map, returning the pruned
/// position-sampling region (orientations still come from the original
/// field). Equivalent to the last stage of [`prune_stages`], or the
/// original cell polygons when no cell-level pruner is enabled.
pub fn prune_cells(cells: &[FieldCell], params: &PruneParams) -> Vec<Polygon> {
    match prune_stages(cells, params).pop() {
        Some(stage) => stage.polygons,
        None => cells.iter().map(|c| c.polygon.clone()).collect(),
    }
}

/// The restrict-mode product of [`prune_region`]: a replacement
/// position-sampling region with its per-pruner area effects.
#[derive(Debug, Clone)]
pub struct PrunedRegion {
    /// The pruned region, oriented by the caller's field and eroded by
    /// `min_radius` when containment pruning is enabled.
    pub region: Region,
    /// Per-pruner area effects, in application order.
    pub effects: Vec<PrunerEffect>,
}

/// Restrict-mode pruning — what `scenic_gta::World::pruned` substitutes
/// for the `road` region: applies the cell-level pruners and erodes the
/// result by `min_radius`. Unlike guard mode this *replaces* the region
/// the sampler draws from, so it changes the RNG stream: output is
/// distribution- but not byte-identical to unpruned sampling. The
/// `orientation` field supplies the result's preferred orientations
/// (§5.2: pruning restricts positions only).
pub fn prune_region(
    cells: &[FieldCell],
    orientation: VectorField,
    params: &PruneParams,
) -> PrunedRegion {
    let stages = prune_stages(cells, params);
    let mut effects: Vec<PrunerEffect> = stages.iter().map(|s| s.effect).collect();
    let polys = match stages.into_iter().last() {
        Some(stage) => stage.polygons,
        None => cells.iter().map(|c| c.polygon.clone()).collect(),
    };
    let mut region = Region::polygons_with_orientation(polys, orientation);
    if params.min_radius > 0.0 {
        let before = match effects.last() {
            Some(e) => e.area_after,
            None => cells.iter().map(|c| c.polygon.area()).sum(),
        };
        region = region.eroded(params.min_radius);
        // First-order erosion estimate: a boundary strip of width
        // `min_radius` disappears.
        let after = region.as_polygons().map_or(before, |pr| {
            (before - params.min_radius * pr.boundary_length()).max(0.0)
        });
        effects.push(PrunerEffect {
            pruner: Pruner::Containment,
            area_before: before,
            area_after: after,
        });
    }
    PrunedRegion { region, effects }
}

/// Containment pruning of an arbitrary region (the `erode` technique).
pub fn prune_containment(region: &Region, min_radius: f64) -> Region {
    if min_radius <= 0.0 {
        return region.clone();
    }
    region.eroded(min_radius)
}

/// Over-approximate dilated footprint of a set of cells (used by callers
/// to bound where related objects can be).
pub fn dilated_footprint(cells: &[FieldCell], margin: f64) -> Vec<Polygon> {
    cells
        .iter()
        .map(|c| dilate_convex(&c.polygon, margin))
        .collect()
}

// ---------------------------------------------------------------------
// Guard mode: check draws from the original regions against the pruned
// ones, rejecting doomed runs early without touching the RNG stream.
// ---------------------------------------------------------------------

/// A §5.2 guard for one world-native region: the staged pruned regions
/// a position drawn from the original region must fall inside. Stages
/// are checked in order (containment, orientation, size); the first
/// stage excluding a point names the pruner the rejection is charged
/// to.
#[derive(Debug, Clone)]
pub struct RegionGuard {
    /// Module the native region came from.
    pub module: String,
    /// The native's name within its module.
    pub name: String,
    original: Arc<Region>,
    stages: Vec<(Pruner, Region)>,
    /// Per-pruner area effects, in check order.
    pub effects: Vec<PrunerEffect>,
}

impl RegionGuard {
    /// Whether this guard watches `region`. Identity, not equality: the
    /// guard applies exactly to draws from the world's own native
    /// region value (derived regions like `visible road` are new values
    /// and sample unguarded — conservative and sound).
    pub fn guards(&self, region: &Arc<Region>) -> bool {
        Arc::ptr_eq(&self.original, region)
    }

    /// The first pruner whose restriction excludes `p`, if any.
    pub fn rejects(&self, p: Vec2) -> Option<Pruner> {
        self.stages
            .iter()
            .find(|(_, region)| !region.contains(p))
            .map(|(pruner, _)| *pruner)
    }

    /// The pruners active on this region, in check order.
    pub fn pruners(&self) -> impl Iterator<Item = Pruner> + '_ {
        self.stages.iter().map(|(pruner, _)| *pruner)
    }

    /// The staged pruned regions, in check order — read by the on-disk
    /// artifact store's plan codec.
    pub(crate) fn stages(&self) -> &[(Pruner, Region)] {
        &self.stages
    }

    /// Reassembles a guard from its serialized parts. `original` must
    /// be the world's *own* native region `Arc` (guard matching is by
    /// identity), which is why the store relinks it from the live
    /// [`World`] instead of deserializing a region value.
    pub(crate) fn from_parts(
        module: String,
        name: String,
        original: Arc<Region>,
        stages: Vec<(Pruner, Region)>,
        effects: Vec<PrunerEffect>,
    ) -> Self {
        RegionGuard {
            module,
            name,
            original,
            stages,
            effects,
        }
    }
}

/// The product of the prune prepare step: one guard per prunable
/// world-native region. Built once per compiled scenario (see
/// `Scenario::prune_plan`) and shared across sampler workers.
#[derive(Debug, Clone, Default)]
pub struct PrunePlan {
    /// The parameters the plan was built with.
    pub params: PruneParams,
    /// Guards, one per pruned native region.
    pub guards: Vec<RegionGuard>,
}

impl PrunePlan {
    /// Whether the plan restricts anything at all (an empty plan makes
    /// guarded sampling literally identical to unguarded sampling).
    pub fn is_empty(&self) -> bool {
        self.guards.is_empty()
    }

    /// Checks a position drawn from `region` against the plan: the
    /// pruner that excludes it, or `None` when the draw survives (or no
    /// guard watches the region).
    pub fn check(&self, region: &Arc<Region>, p: Vec2) -> Option<Pruner> {
        self.guards
            .iter()
            .find(|g| g.guards(region))
            .and_then(|g| g.rejects(p))
    }
}

/// Deterministic quadrature points drawn uniformly from `pr` — the one
/// fixed-seed probe source behind every area estimate here, so guard
/// and restrict instrumentation stay comparable run-to-run.
fn probe_points(pr: &PolygonRegion) -> Vec<Vec2> {
    const POINTS: usize = 2048;
    let mut rng = StdRng::seed_from_u64(0x5EED_50C5);
    (0..POINTS).filter_map(|_| pr.sample(&mut rng)).collect()
}

/// Deterministic Monte-Carlo estimate of the fraction of `pr`'s area
/// lying inside `within` (via [`probe_points`]).
fn contained_fraction(pr: &PolygonRegion, within: &Region) -> f64 {
    let probes = probe_points(pr);
    if probes.is_empty() {
        return 0.0;
    }
    let hits = probes.iter().filter(|p| within.contains(**p)).count();
    hits as f64 / probes.len() as f64
}

/// Builds the guard for one native region, or `None` when no pruner
/// applies to it (non-polygonal region, or every pruner disabled).
fn build_guard(
    module: &str,
    name: &str,
    region: &Arc<Region>,
    workspace: &Region,
    params: &PruneParams,
) -> Option<RegionGuard> {
    let pr = region.as_polygons()?;
    let mut stages = Vec::new();
    let mut effects = Vec::new();

    // Containment: an accepted object's bounding box lies inside the
    // workspace, so its center keeps at least the minimum object
    // in-radius of clearance from the workspace boundary. That
    // implication needs a *convex* workspace (a box inside an L-shape
    // can hug the reflex corner), so the stage only applies to
    // single-convex-polygon workspaces — which covers the bundled
    // rectangle worlds. Note the difference from restrict mode, which
    // erodes the *region* itself (assuming objects must fit inside
    // it): eroding a convex workspace is sound for any scenario,
    // eroding the region is not.
    if params.min_radius > 0.0 {
        if let Region::Polygons(wpr) = workspace {
            if matches!(wpr.polygons(), [p] if p.is_convex()) {
                let eroded = Region::Polygons(wpr.eroded(params.min_radius));
                let before = pr.area();
                effects.push(PrunerEffect {
                    pruner: Pruner::Containment,
                    area_before: before,
                    area_after: before * contained_fraction(pr, &eroded),
                });
                stages.push((Pruner::Containment, eroded));
            }
        }
    }

    // Orientation and size pruning need the cell structure of the
    // region's orientation field.
    if let Some(cells) = pr.orientation().and_then(VectorField::cells) {
        for stage in prune_stages(cells, params) {
            effects.push(stage.effect);
            stages.push((
                stage.pruner,
                Region::Polygons(PolygonRegion::new(stage.polygons, None)),
            ));
        }
    }

    (!stages.is_empty()).then(|| RegionGuard {
        module: module.to_string(),
        name: name.to_string(),
        original: Arc::clone(region),
        stages,
        effects,
    })
}

/// The §5.2 prepare step: builds a guard for every prunable
/// module-native region of `world` (each distinct region value once,
/// even when shared under several names, like gta's `road`/`fullRoad`).
/// Modules are visited in name order, so the plan is deterministic.
pub fn plan_for_world(world: &World, params: &PruneParams) -> PrunePlan {
    let mut guards = Vec::new();
    let mut seen: Vec<*const Region> = Vec::new();
    let mut modules: Vec<(&String, &crate::world::Module)> = world.modules.iter().collect();
    modules.sort_by(|a, b| a.0.cmp(b.0));
    for (module_name, module) in modules {
        for (name, value) in &module.natives {
            let NativeValue::Region(region) = value else {
                continue;
            };
            if seen.contains(&Arc::as_ptr(region)) {
                continue;
            }
            seen.push(Arc::as_ptr(region));
            if let Some(guard) = build_guard(module_name, name, region, &world.workspace, params) {
                guards.push(guard);
            }
        }
    }
    PrunePlan {
        params: *params,
        guards,
    }
}

/// Hints extracted syntactically from a scenario for automatic pruning.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PruneHints {
    /// Largest `roadDeviation`-style wiggle (radians) seen on any
    /// object, bounding `δ`.
    pub heading_wiggle: Option<f64>,
    /// Smallest explicit `visibleDistance` (meters), bounding `M`.
    pub visible_distance: Option<f64>,
    /// Number of objects constructed (including inside function and
    /// loop bodies).
    pub object_count: usize,
    /// A `mutate` statement appears: post-sampling noise moves objects
    /// after their positions were drawn, which breaks every pruner's
    /// soundness argument — derivation disables pruning.
    pub has_mutation: bool,
    /// A non-physical helper (`Point`/`OrientedPoint`-like) is
    /// constructed `on` a region outside a class `position:` default.
    /// Its draw is not the final position of a physical object (e.g. a
    /// parking `spot` the car sits *beside*), so guarding region draws
    /// with containment erosion would be unsound — derivation disables
    /// containment pruning.
    pub helper_on_region: bool,
    /// Smallest constant `with width`/`with height` override seen
    /// (lower-bounds the overridden object's dimension).
    pub min_dim_override: Option<f64>,
    /// A non-constant `with width`/`with height` override appears, so
    /// no sound minimum object radius exists — derivation disables
    /// containment pruning.
    pub unknown_dim_override: bool,
}

impl PruneHints {
    fn note_wiggle(&mut self, bound: f64) {
        self.heading_wiggle = Some(self.heading_wiggle.map_or(bound, |w| w.max(bound)));
    }

    fn note_dim_override(&mut self, value: &Expr) {
        match dim_lower_bound(value) {
            Some(v) => {
                self.min_dim_override = Some(self.min_dim_override.map_or(v, |m| m.min(v)));
            }
            None => self.unknown_dim_override = true,
        }
    }
}

/// Scans a parsed program for pruning hints: `with roadDeviation (a, b)`
/// wiggles (bounding the field-relative heading deviation δ),
/// `facing (a, b) deg relative to <field>` specifiers, explicit
/// `with visibleDistance N` overrides (bounding the max distance M),
/// plus the soundness blockers [`derive_params`] checks (`mutate`
/// statements, helper points drawn `on` regions, non-constant dimension
/// overrides). The scan recurses into function, loop, and specifier
/// bodies.
pub fn hints_from_program(program: &Program) -> PruneHints {
    hints_from_programs(&[program])
}

/// [`hints_from_program`] over several sources scanned as one scenario
/// (user program + prelude + module libraries); class physicality is
/// resolved across all of them.
pub fn hints_from_programs(programs: &[&Program]) -> PruneHints {
    let classes = ClassTable::build(programs);
    let mut hints = PruneHints::default();
    for program in programs {
        scan_stmts(&program.statements, &mut hints, &classes);
    }
    hints
}

fn scan_stmts(stmts: &[Stmt], hints: &mut PruneHints, classes: &ClassTable) {
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::ClassDef(cd) => {
                for (prop, default) in &cd.properties {
                    // `position: Point on region` class defaults are the
                    // one place a Point-on-region draw *is* the final
                    // object position (the gtaLib/marsLib idiom) — but
                    // only when the class being defined is physical; a
                    // non-physical helper class's position is not an
                    // object center.
                    let allow = prop == "position" && classes.is_physical(&cd.name);
                    scan_expr(default, hints, classes, allow);
                }
                continue;
            }
            StmtKind::Mutate { .. } => hints.has_mutation = true,
            _ => {}
        }
        let is_def = matches!(stmt.kind, StmtKind::FuncDef(_) | StmtKind::SpecifierDef(_));
        stmt.for_each_child(|child| match child {
            // A def's parameter defaults are not scanned.
            StmtChild::Expr(_) if is_def => {}
            StmtChild::Expr(e) => scan_expr(e, hints, classes, false),
            StmtChild::Body(body) => scan_stmts(body, hints, classes),
        });
    }
}

/// Recursive expression scan. `allow_point_on_region` applies only to a
/// `Ctor` at the top of `expr` (a class `position:` default); nested
/// constructors are always helpers.
fn scan_expr(
    expr: &Expr,
    hints: &mut PruneHints,
    classes: &ClassTable,
    allow_point_on_region: bool,
) {
    if let Expr::Ctor { class, specifiers } = expr {
        hints.object_count += 1;
        for spec in specifiers {
            if matches!(spec, Specifier::InRegion(_))
                && !allow_point_on_region
                && !classes.is_physical(class)
            {
                hints.helper_on_region = true;
            }
            match spec {
                Specifier::With(prop, value) if prop == "roadDeviation" => {
                    if let Some(b) = interval_bound(value) {
                        hints.note_wiggle(b);
                    }
                }
                Specifier::With(prop, value) if prop == "visibleDistance" => {
                    if let Some(d) = const_scalar(value) {
                        hints.visible_distance =
                            Some(hints.visible_distance.map_or(d, |m: f64| m.min(d)));
                    }
                }
                Specifier::With(prop, value) if prop == "width" || prop == "height" => {
                    hints.note_dim_override(value);
                }
                Specifier::Facing(Expr::RelativeTo(lhs, _)) => {
                    if let Some(b) = interval_bound(lhs) {
                        hints.note_wiggle(b);
                    }
                }
                _ => {}
            }
        }
    }
    expr.for_each_child(|e| scan_expr(e, hints, classes, false));
}

/// A constant lower bound of a dimension expression: the value itself
/// when constant, the interval's lower endpoint for `(a, b)` draws,
/// `None` when no sound bound exists.
fn dim_lower_bound(expr: &Expr) -> Option<f64> {
    match expr {
        Expr::Interval(lo, _) => const_scalar(lo),
        other => const_scalar(other),
    }
}

/// A dimension default as declared on a class: constant (or
/// interval-lower-bounded), inherited, or unboundable.
#[derive(Debug, Clone, Copy)]
enum Dim {
    Inherit,
    Known(f64),
    Unknown,
}

/// The class hierarchy as parsed, with constant width/height bounds —
/// what [`derive_params`] needs to lower-bound object in-radii and to
/// tell physical classes from helper points.
struct ClassTable {
    /// name → (superclass, width bound, height bound). `None`
    /// superclass marks a root class (`Point`).
    classes: HashMap<String, (Option<String>, Dim, Dim)>,
}

impl ClassTable {
    fn build(programs: &[&Program]) -> ClassTable {
        let mut classes = HashMap::new();
        for program in programs {
            collect_classes(&program.statements, &mut classes);
        }
        ClassTable { classes }
    }

    /// Whether instances of `name` are physical objects (subject to the
    /// default containment/collision/visibility requirements). Mirrors
    /// the interpreter's rule: physical means the lineage reaches
    /// `Object`. Classes not in the table are treated as physical — the
    /// conservative direction for every caller here.
    fn is_physical(&self, name: &str) -> bool {
        let mut current = name;
        for _ in 0..64 {
            if current == "Object" {
                return true;
            }
            match self.classes.get(current) {
                Some((Some(superclass), ..)) => current = superclass,
                Some((None, ..)) => return false,
                None => return true,
            }
        }
        true
    }

    /// Resolves a class dimension through its superclass chain.
    fn resolve_dim(&self, name: &str, which: fn(&(Option<String>, Dim, Dim)) -> Dim) -> Dim {
        let mut current = name;
        for _ in 0..64 {
            let Some(entry) = self.classes.get(current) else {
                return Dim::Unknown;
            };
            match which(entry) {
                Dim::Inherit => match &entry.0 {
                    Some(superclass) => current = superclass,
                    None => return Dim::Unknown,
                },
                dim => return dim,
            }
        }
        Dim::Unknown
    }

    /// The smallest in-radius (half the smaller dimension) any physical
    /// class can produce, or `None` when some physical class has a
    /// dimension no constant lower-bounds (then no sound containment
    /// margin exists).
    fn min_physical_half_extent(&self) -> Option<f64> {
        let mut best = f64::INFINITY;
        for name in self.classes.keys() {
            if !self.is_physical(name) {
                continue;
            }
            let width = self.resolve_dim(name, |e| e.1);
            let height = self.resolve_dim(name, |e| e.2);
            match (width, height) {
                (Dim::Known(w), Dim::Known(h)) if w > 0.0 && h > 0.0 => {
                    best = best.min(w.min(h) / 2.0);
                }
                _ => return Option::None,
            }
        }
        best.is_finite().then_some(best)
    }
}

fn collect_classes(stmts: &[Stmt], out: &mut HashMap<String, (Option<String>, Dim, Dim)>) {
    for stmt in stmts {
        if let StmtKind::ClassDef(cd) = &stmt.kind {
            out.insert(cd.name.clone(), class_entry(cd));
        }
        stmt.for_each_body(|body| collect_classes(body, out));
    }
}

fn class_entry(cd: &ClassDef) -> (Option<String>, Dim, Dim) {
    // Mirror the interpreter's superclass rule: an explicit superclass,
    // else `Object` — except `Point`, the hierarchy root.
    let superclass = match &cd.superclass {
        Some(s) => Some(s.clone()),
        None if cd.name == "Point" => None,
        None => Some("Object".to_string()),
    };
    let dim = |prop: &str| {
        cd.properties
            .iter()
            .find(|(name, _)| name == prop)
            .map_or(Dim::Inherit, |(_, e)| match dim_lower_bound(e) {
                Some(v) => Dim::Known(v),
                None => Dim::Unknown,
            })
    };
    (superclass, dim("width"), dim("height"))
}

/// Best-effort derivation of *sound* [`PruneParams`] from the parsed
/// sources of a scenario (user program + prelude + module libraries):
///
/// - `min_radius` (containment) is the smallest in-radius any physical
///   class can produce, further lowered by constant `with
///   width`/`height` overrides — and 0 (disabled) whenever the sources
///   defeat the soundness argument: a `mutate` statement, a
///   non-constant dimension, or a non-physical helper point drawn `on`
///   a region;
/// - `heading_tolerance` (δ) is the largest `roadDeviation`-style
///   wiggle seen;
/// - `max_distance` (M) is the smallest explicit `visibleDistance`;
/// - `relative_heading` and `min_width` stay disabled: no syntactic
///   analysis can soundly bound them, so the orientation and size
///   pruners only run with caller-supplied parameters.
///
/// Guard-mode sampling with these parameters is acceptance-invariant:
/// it accepts exactly the scenes unpruned sampling accepts, byte for
/// byte (pinned by `tests/determinism.rs`).
pub fn derive_params(programs: &[&Program]) -> PruneParams {
    derive_params_explained(programs).0
}

/// Why [`derive_params_explained`] enabled or disabled one pruner.
///
/// Surfaced to users as `I201 pruner-disabled` / `I202 pruner-enabled`
/// diagnostics (see [`crate::diag`]), so Appendix D runs are
/// self-explaining.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneDecision {
    /// The pruner the decision is about.
    pub pruner: Pruner,
    /// Whether the derivation turned it on.
    pub enabled: bool,
    /// Human-readable justification (the soundness blocker for a
    /// disabled pruner, the derived bound for an enabled one).
    pub reason: String,
}

/// [`derive_params`] plus a per-pruner record of why each §5.2 pruner
/// was enabled or disabled, in `Containment`, `Orientation`, `Size`
/// order.
pub fn derive_params_explained(programs: &[&Program]) -> (PruneParams, Vec<PruneDecision>) {
    let classes = ClassTable::build(programs);
    let mut hints = PruneHints::default();
    for program in programs {
        scan_stmts(&program.statements, &mut hints, &classes);
    }
    let mut decisions = Vec::new();
    let mut min_radius = 0.0;
    let containment_reason = if hints.has_mutation {
        "a `mutate` statement moves objects after their positions are drawn, \
         so no erosion margin is sound"
            .to_string()
    } else if hints.helper_on_region {
        "a helper point is drawn `on` a region outside a class `position:` default; \
         its draw is not a physical object's final position, so erosion would be unsound"
            .to_string()
    } else if hints.unknown_dim_override {
        "a non-constant `with width`/`with height` override defeats the \
         minimum-object-radius bound"
            .to_string()
    } else {
        match classes.min_physical_half_extent() {
            Some(bound) => {
                min_radius = match hints.min_dim_override {
                    Some(v) if v > 0.0 => bound.min(v / 2.0),
                    Some(_) => 0.0,
                    Option::None => bound,
                };
                if min_radius > 0.0 {
                    format!(
                        "every physical object keeps at least {min_radius} m of clearance \
                         (smallest class half-extent, lowered by constant dimension overrides)"
                    )
                } else {
                    "a dimension override of 0 leaves no sound erosion margin".to_string()
                }
            }
            Option::None => "no physical class with statically known dimensions".to_string(),
        }
    };
    decisions.push(PruneDecision {
        pruner: Pruner::Containment,
        enabled: min_radius > 0.0,
        reason: containment_reason,
    });
    decisions.push(PruneDecision {
        pruner: Pruner::Orientation,
        enabled: false,
        reason: "no syntactic analysis soundly bounds relative headings; \
                 pass `--heading LO,HI` to prune-report to enable it"
            .to_string(),
    });
    decisions.push(PruneDecision {
        pruner: Pruner::Size,
        enabled: false,
        reason: "no syntactic analysis soundly bounds the configuration's minimum width; \
                 pass `--min-width W` to prune-report to enable it"
            .to_string(),
    });
    let params = PruneParams {
        min_radius,
        relative_heading: None,
        max_distance: hints.visible_distance.unwrap_or(50.0),
        heading_tolerance: hints.heading_wiggle.unwrap_or(0.0),
        min_width: None,
    };
    (params, decisions)
}

/// Bound of an interval-like expression `(a, b)` / `(a, b) deg` /
/// `resample(x)` (conservative `None` when unknown).
fn interval_bound(expr: &Expr) -> Option<f64> {
    match expr {
        Expr::Interval(lo, hi) => {
            let lo = const_scalar(lo)?;
            let hi = const_scalar(hi)?;
            Some(lo.abs().max(hi.abs()))
        }
        Expr::Deg(inner) => interval_bound(inner).map(f64::to_radians),
        Expr::Number(n) => Some(n.abs()),
        Expr::Neg(inner) => interval_bound(inner),
        _ => None,
    }
}

fn const_scalar(expr: &Expr) -> Option<f64> {
    match expr {
        Expr::Number(n) => Some(*n),
        Expr::Neg(e) => const_scalar(e).map(|n| -n),
        Expr::Deg(e) => const_scalar(e).map(f64::to_radians),
        _ => None,
    }
}

/// Returns a copy of `world` with a module-native region replaced by a
/// pruned version (e.g. substituting a pruned `road` for position
/// sampling).
///
/// # Errors
///
/// Returns a runtime error if the module or native name is absent.
pub fn world_with_region(
    world: &World,
    module: &str,
    name: &str,
    region: Region,
) -> RunResult<World> {
    let mut new_world = world.clone();
    let m = new_world
        .modules
        .get_mut(module)
        .ok_or_else(|| crate::error::ScenicError::runtime(format!("no module `{module}`")))?;
    let slot = m
        .natives
        .iter_mut()
        .find(|(n, _)| n == name)
        .ok_or_else(|| {
            crate::error::ScenicError::runtime(format!("no native `{name}` in `{module}`"))
        })?;
    slot.1 = NativeValue::Region(Arc::new(region));
    Ok(new_world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenic_geom::Vec2;

    /// Two northbound lanes, a nearby southbound lane, and a remote
    /// northbound lane.
    fn lanes() -> Vec<FieldCell> {
        vec![
            FieldCell {
                polygon: Polygon::rectangle(Vec2::new(0.0, 0.0), 6.0, 200.0),
                heading: Heading::NORTH,
            },
            FieldCell {
                polygon: Polygon::rectangle(Vec2::new(12.0, 0.0), 6.0, 200.0),
                heading: Heading::NORTH,
            },
            FieldCell {
                polygon: Polygon::rectangle(Vec2::new(24.0, 0.0), 6.0, 200.0),
                heading: Heading::from_degrees(180.0),
            },
            FieldCell {
                polygon: Polygon::rectangle(Vec2::new(500.0, 0.0), 6.0, 200.0),
                heading: Heading::NORTH,
            },
        ]
    }

    #[test]
    fn heading_pruning_oncoming_constraint() {
        // An oncoming-car constraint (relative heading ~180°): only
        // cells with an opposing cell within M survive, so the remote
        // northbound lane at x = 500 disappears entirely.
        let pi = std::f64::consts::PI;
        let pruned = prune_by_heading(&lanes(), (pi - 0.2, pi + 0.2), 50.0, 0.0);
        assert!(!pruned.is_empty());
        assert!(
            pruned.iter().all(|p| p.centroid().x < 100.0),
            "remote aligned lane survived"
        );
        // The nearby opposing pair survives on both sides.
        let total: f64 = pruned.iter().map(Polygon::area).sum();
        assert!(total >= 3.0 * 6.0 * 200.0 * 0.95, "kept area {total}");
    }

    #[test]
    fn heading_pruning_keeps_everything_when_unconstrained() {
        let pruned = prune_by_heading(
            &lanes(),
            (-std::f64::consts::PI, std::f64::consts::PI),
            1000.0,
            0.0,
        );
        let total: f64 = pruned.iter().map(Polygon::area).sum();
        assert!(total >= 4.0 * 6.0 * 200.0 * 0.99);
    }

    #[test]
    fn heading_pruning_same_direction_keeps_self() {
        // A ∋ 0 means every cell relates to itself, so nothing longer
        // than M disappears, but the remote lane keeps only what is
        // within M of *some* qualifying cell — itself, i.e. everything.
        let pruned = prune_by_heading(&lanes(), (-0.175, 0.175), 50.0, 0.0);
        let total: f64 = pruned.iter().map(Polygon::area).sum();
        assert!(total >= 3.0 * 6.0 * 200.0 * 0.99, "kept {total}");
    }

    #[test]
    fn width_pruning_restricts_narrow_cells() {
        // Configuration needs 10m of width; each 6m lane is too narrow,
        // so lanes survive only where another lane is within M.
        let cells = lanes();
        let pruned = prune_by_width(&cells, 10.0, 10.0);
        // Lanes 0/1/2 are 12m apart (6m gap edge-to-edge): within M=10,
        // so they survive (as clipped pieces); the remote lane has no
        // neighbor within 10m and vanishes.
        assert!(!pruned.is_empty());
        assert!(pruned.iter().all(|p| p.centroid().x < 100.0));
    }

    #[test]
    fn width_pruning_keeps_wide_cells() {
        let wide = vec![FieldCell {
            polygon: Polygon::rectangle(Vec2::ZERO, 50.0, 50.0),
            heading: Heading::NORTH,
        }];
        let pruned = prune_by_width(&wide, 10.0, 20.0);
        assert_eq!(pruned.len(), 1);
        assert!((pruned[0].area() - 2500.0).abs() < 1e-6);
    }

    #[test]
    fn containment_pruning_erodes() {
        let region = Region::rectangle(Vec2::ZERO, 20.0, 20.0);
        let pruned = prune_containment(&region, 2.0);
        assert!(pruned.contains(Vec2::ZERO));
        assert!(!pruned.contains(Vec2::new(9.5, 0.0)));
        assert!(region.contains(Vec2::new(9.5, 0.0)));
    }

    #[test]
    fn prune_stages_record_area_effects() {
        let pi = std::f64::consts::PI;
        let params = PruneParams {
            min_radius: 0.0,
            relative_heading: Some((pi - 0.2, pi + 0.2)),
            max_distance: 50.0,
            heading_tolerance: 0.0,
            min_width: Some(10.0),
        };
        let stages = prune_stages(&lanes(), &params);
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].pruner, Pruner::Orientation);
        assert_eq!(stages[1].pruner, Pruner::Size);
        for stage in &stages {
            // Areas are union estimates (pieces may overlap): bounded
            // by the multiplicity-counted sum and never growing.
            let piece_sum: f64 = stage.polygons.iter().map(Polygon::area).sum();
            assert!(stage.effect.area_after <= piece_sum * 1.05 + 1e-6);
            assert!(stage.effect.area_after <= stage.effect.area_before + 1e-6);
            assert!(stage.effect.kept_fraction() <= 1.0);
        }
        // Staging agrees with the combined helper.
        let combined: f64 = prune_cells(&lanes(), &params)
            .iter()
            .map(Polygon::area)
            .sum();
        let last: f64 = stages[1].polygons.iter().map(Polygon::area).sum();
        assert!((combined - last).abs() < 1e-9);
    }

    #[test]
    fn guard_plan_for_bounded_world() {
        use crate::world::{Module, World};
        let mut world = World::with_workspace(Region::rectangle(Vec2::ZERO, 8.0, 8.0));
        world.add_module(
            "lib",
            Module {
                natives: vec![(
                    "ground".into(),
                    NativeValue::Region(Arc::new(Region::rectangle(Vec2::ZERO, 8.0, 8.0))),
                )],
                source: None,
            },
        );
        let params = PruneParams {
            min_radius: 0.5,
            ..PruneParams::default()
        };
        let plan = plan_for_world(&world, &params);
        assert_eq!(plan.guards.len(), 1);
        let guard = &plan.guards[0];
        assert_eq!(
            (guard.module.as_str(), guard.name.as_str()),
            ("lib", "ground")
        );
        let NativeValue::Region(native) = &world.module("lib").unwrap().natives[0].1 else {
            panic!("not a region");
        };
        // Interior points survive; points within min_radius of the
        // workspace boundary are charged to containment pruning.
        assert_eq!(plan.check(native, Vec2::ZERO), None);
        assert_eq!(
            plan.check(native, Vec2::new(3.8, 0.0)),
            Some(Pruner::Containment)
        );
        // Identity, not equality: an equal but distinct region value is
        // not guarded.
        let other = Arc::new(Region::rectangle(Vec2::ZERO, 8.0, 8.0));
        assert_eq!(plan.check(&other, Vec2::new(3.8, 0.0)), None);
        // Effects estimate the surviving area (exact: 49 of 64 m²).
        let effect = &guard.effects[0];
        assert!((effect.area_before - 64.0).abs() < 1e-9);
        assert!(
            effect.area_after > 40.0 && effect.area_after < 55.0,
            "area_after {}",
            effect.area_after
        );
    }

    #[test]
    fn empty_plan_for_unbounded_world() {
        let params = PruneParams {
            min_radius: 1.0,
            ..PruneParams::default()
        };
        assert!(plan_for_world(&World::bare(), &params).is_empty());
    }

    fn prelude() -> Program {
        scenic_lang::parse(crate::class::PRELUDE).unwrap()
    }

    #[test]
    fn derive_params_bounds_min_radius_from_class_dims() {
        let prelude = prelude();
        let lib = scenic_lang::parse(
            "class Rock:\n    width: 0.35\n    height: 0.35\n\
             class Pipe:\n    width: 0.2\n    height: (1, 2)\n",
        )
        .unwrap();
        let program = scenic_lang::parse("ego = Rock at 0 @ 0\nPipe\n").unwrap();
        let params = derive_params(&[&prelude, &lib, &program]);
        // Pipe's in-radius lower bound: min(0.2, interval lo 1)/2.
        assert!(
            (params.min_radius - 0.1).abs() < 1e-12,
            "{}",
            params.min_radius
        );
    }

    #[test]
    fn derive_params_disables_when_soundness_breaks() {
        let prelude = prelude();
        let mutated = scenic_lang::parse("ego = Object at 0 @ 0\nmutate\n").unwrap();
        assert_eq!(derive_params(&[&prelude, &mutated]).min_radius, 0.0);
        // A helper point drawn on a region is not an object position.
        let helper = scenic_lang::parse(
            "ego = Object at 0 @ 0\nspot = OrientedPoint on ground\nObject left of spot by 0.5\n",
        )
        .unwrap();
        assert_eq!(derive_params(&[&prelude, &helper]).min_radius, 0.0);
        let unknown =
            scenic_lang::parse("ego = Object at 0 @ 0, with width Uniform(1, 2)\n").unwrap();
        assert_eq!(derive_params(&[&prelude, &unknown]).min_radius, 0.0);
        // The sound cases: plain objects, constant overrides.
        let plain = scenic_lang::parse("ego = Object at 0 @ 0\n").unwrap();
        assert_eq!(derive_params(&[&prelude, &plain]).min_radius, 0.5);
        let small = scenic_lang::parse("ego = Object at 0 @ 0, with width 0.2\n").unwrap();
        assert_eq!(derive_params(&[&prelude, &small]).min_radius, 0.1);
    }

    #[test]
    fn non_physical_position_defaults_disable_containment() {
        // A helper class deriving from `Point`: its `position:` default
        // draw is not an object center, so it must trip the blocker
        // even though it sits in a position default.
        let prelude = prelude();
        let lib = scenic_lang::parse("class Spot(Point):\n    position: Point on road\n").unwrap();
        let program = scenic_lang::parse("ego = Object at 0 @ 0\n").unwrap();
        assert_eq!(derive_params(&[&prelude, &lib, &program]).min_radius, 0.0);
    }

    #[test]
    fn non_convex_workspace_gets_no_containment_guard() {
        use crate::world::{Module, World};
        // L-shaped workspace: a bounding box inside the L can hug the
        // reflex corner, so center clearance is not implied — the
        // containment stage must stay off.
        let l_shape = Polygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(10.0, 0.0),
            Vec2::new(10.0, 4.0),
            Vec2::new(4.0, 4.0),
            Vec2::new(4.0, 10.0),
            Vec2::new(0.0, 10.0),
        ]);
        let mut world = World::with_workspace(Region::from(l_shape.clone()));
        world.add_module(
            "lib",
            Module {
                natives: vec![(
                    "ground".into(),
                    NativeValue::Region(Arc::new(Region::from(l_shape))),
                )],
                source: None,
            },
        );
        let params = PruneParams {
            min_radius: 0.5,
            ..PruneParams::default()
        };
        assert!(plan_for_world(&world, &params).is_empty());
    }

    #[test]
    fn position_defaults_may_draw_points_on_regions() {
        // `position: Point on region` class defaults are the idiomatic
        // way positions are drawn (gtaLib/marsLib); they must not trip
        // the helper-point blocker.
        let prelude = prelude();
        let lib = scenic_lang::parse("class Car:\n    position: Point on road\n").unwrap();
        let params = derive_params(&[&prelude, &lib]);
        assert_eq!(params.min_radius, 0.5);
    }

    #[test]
    fn hints_extracted_from_program() {
        let program = scenic_lang::parse(
            "wiggle = (-10 deg, 10 deg)\n\
             ego = Car with roadDeviation (-10 deg, 10 deg)\n\
             Car visible, with roadDeviation (-5 deg, 5 deg)\n\
             Car with visibleDistance 30\n",
        )
        .unwrap();
        let hints = hints_from_program(&program);
        assert_eq!(hints.object_count, 3);
        let w = hints.heading_wiggle.unwrap();
        assert!((w - 10f64.to_radians()).abs() < 1e-9, "wiggle {w}");
        assert_eq!(hints.visible_distance, Some(30.0));
    }

    #[test]
    fn facing_relative_to_hint() {
        let program =
            scenic_lang::parse("ego = Car\nCar facing (-5, 5) deg relative to roadDirection\n")
                .unwrap();
        let hints = hints_from_program(&program);
        let w = hints.heading_wiggle.unwrap();
        assert!((w - 5f64.to_radians()).abs() < 1e-9);
    }
}
