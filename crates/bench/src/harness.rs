//! The `scenic exp` harness: runs the paper's experiments end-to-end
//! and packages each one as a typed [`ExperimentReport`].
//!
//! One entry per artifact of §6 / Appendix D. Every runner drives the
//! same pipeline — sample (deterministic batch path) → render → train
//! the surrogate detector → evaluate — at sizes scaled by
//! [`ExpConfig::scale`], records the work performed in
//! [`crate::experiments::Counters`], and reduces the paper's
//! qualitative claims to named [`ShapeCheck`] verdicts. The
//! `scenic exp` CLI drives [`run_experiment`] and renders through
//! [`crate::report`].

use crate::experiments::{self, Counters};
use crate::report::{ExperimentReport, Row, ShapeCheck, Table};
use crate::scaled;
use scenic_core::ScenicError;
use scenic_gta::World;

/// Canonical experiment ids, in `all` execution order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "fig36",
    "conditions",
    "pruning",
    "ablation",
];

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Dataset scale factor (1.0 = paper-proportional counts / 4).
    pub scale: f64,
    /// Root seed override. `None` runs each experiment at its
    /// published default seed; `Some(s)` derives per-experiment seeds
    /// as `s + index` so streams stay decorrelated.
    pub seed: Option<u64>,
    /// Sampler worker threads. Results are byte-identical for any
    /// value (the batch path derives per-scene streams by index).
    pub jobs: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 1.0,
            seed: None,
            jobs: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl ExpConfig {
    fn seed_for(&self, default: u64, index: u64) -> u64 {
        match self.seed {
            Some(s) => s + index,
            None => default,
        }
    }
}

/// Typed harness failures.
#[derive(Debug)]
pub enum ExpError {
    /// Not one of [`EXPERIMENT_IDS`] (or `all`).
    UnknownExperiment(String),
    /// Scale must be strictly positive and finite.
    InvalidScale(f64),
    /// A driver returned fewer rows than the experiment's table needs
    /// (e.g. `matrix_mixture` must produce the 100/0 and 95/5 rows).
    MissingRows {
        /// Experiment id.
        experiment: &'static str,
        /// Rows the table layout requires.
        expected: usize,
        /// Rows the driver returned.
        got: usize,
    },
    /// Compile/sampling failure from the pipeline.
    Run(ScenicError),
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpError::UnknownExperiment(name) => write!(
                f,
                "unknown experiment `{name}` (expected one of {}, or `all`)",
                EXPERIMENT_IDS.join(", ")
            ),
            ExpError::InvalidScale(s) => {
                write!(f, "invalid scale {s}: must be a positive number")
            }
            ExpError::MissingRows {
                experiment,
                expected,
                got,
            } => write!(
                f,
                "experiment `{experiment}` produced {got} rows, needs {expected}"
            ),
            ExpError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<ScenicError> for ExpError {
    fn from(e: ScenicError) -> Self {
        ExpError::Run(e)
    }
}

/// Expands an experiment name to the ids to run (`all` → every id).
///
/// # Errors
///
/// [`ExpError::UnknownExperiment`] for anything else.
pub fn expand(name: &str) -> Result<Vec<&'static str>, ExpError> {
    if name == "all" {
        return Ok(EXPERIMENT_IDS.to_vec());
    }
    EXPERIMENT_IDS
        .iter()
        .find(|id| **id == name)
        .map(|id| vec![*id])
        .ok_or_else(|| ExpError::UnknownExperiment(name.to_string()))
}

/// Runs one experiment by id against a world, recording wall-clock.
///
/// # Errors
///
/// [`ExpError::UnknownExperiment`], [`ExpError::InvalidScale`], or a
/// propagated pipeline failure.
pub fn run_experiment(
    id: &str,
    world: &World,
    cfg: &ExpConfig,
) -> Result<ExperimentReport, ExpError> {
    if !(cfg.scale.is_finite() && cfg.scale > 0.0) {
        return Err(ExpError::InvalidScale(cfg.scale));
    }
    let start = std::time::Instant::now();
    let mut report = match id {
        "table6" => table6(world, cfg),
        "table7" => table7(world, cfg),
        "table8" => table8(world, cfg),
        "table9" => table9(world, cfg),
        "table10" => table10(world, cfg),
        "fig36" => fig36(world, cfg),
        "conditions" => conditions(world, cfg),
        "pruning" => pruning(world, cfg),
        "ablation" => ablation(world, cfg),
        other => Err(ExpError::UnknownExperiment(other.to_string())),
    }?;
    report.wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Ok(report)
}

fn pm(v: (f64, f64)) -> String {
    format!("{:.1} ± {:.1}", v.0, v.1)
}

fn p1(v: f64) -> String {
    format!("{v:.1}")
}

/// The 100/0-vs-95/5 mixture rows shared by Tables 6 and 9.
fn mixture_rows(
    world: &World,
    cfg: &ExpConfig,
    seed: u64,
    counters: &mut Counters,
    experiment: &'static str,
) -> Result<Vec<experiments::MixtureRow>, ExpError> {
    let train = scaled(1250, cfg.scale);
    let test = scaled(100, cfg.scale);
    let runs = scaled(8, cfg.scale.min(1.0)).min(8);
    let rows = experiments::matrix_mixture(world, train, test, runs, seed, cfg.jobs, counters)?;
    if rows.len() < 2 {
        return Err(ExpError::MissingRows {
            experiment,
            expected: 2,
            got: rows.len(),
        });
    }
    Ok(rows)
}

fn table6(world: &World, cfg: &ExpConfig) -> Result<ExperimentReport, ExpError> {
    let mut counters = Counters::default();
    let seed = cfg.seed_for(2024, 0);
    let rows = mixture_rows(world, cfg, seed, &mut counters, "table6")?;
    let base = &rows[0];
    let mixed = &rows[1];

    let mut table = Table {
        title: "Precision / recall by training mixture".to_string(),
        columns: ["T_matrix P", "T_matrix R", "T_overlap P", "T_overlap R"]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        rows: vec![
            Row::paper(
                "100 / 0",
                &["72.9 ± 3.7", "37.1 ± 2.1", "62.8 ± 6.1", "65.7 ± 4.0"],
            ),
            Row::paper(
                "95 / 5",
                &["73.1 ± 2.3", "37.0 ± 1.6", "68.9 ± 3.2", "67.3 ± 2.4"],
            ),
        ],
    };
    for row in &rows {
        table.rows.push(Row::measured(
            row.label.clone(),
            vec![
                pm(row.precision_a),
                pm(row.recall_a),
                pm(row.precision_b),
                pm(row.recall_b),
            ],
        ));
    }

    let base_score = base.precision_b.0 + base.recall_b.0;
    let mixed_score = mixed.precision_b.0 + mixed.recall_b.0;
    let drift = (mixed.precision_a.0 - base.precision_a.0).abs();
    Ok(ExperimentReport {
        id: "table6".to_string(),
        title: "Training on rare events (Table 6)".to_string(),
        paper_ref: "§6.3 Table 6".to_string(),
        counters,
        wall_ms: 0.0,
        tables: vec![table],
        checks: vec![
            ShapeCheck::new(
                "overlap_gain",
                mixed_score > base_score - 0.5,
                format!("overlap P+R {base_score:.1} -> {mixed_score:.1} with the 5% mixture"),
            ),
            ShapeCheck::new(
                "matrix_stable",
                drift < 8.0,
                format!("matrix precision drift {drift:.1} points < 8"),
            ),
        ],
    })
}

fn table9(world: &World, cfg: &ExpConfig) -> Result<ExperimentReport, ExpError> {
    let mut counters = Counters::default();
    let seed = cfg.seed_for(2024, 3);
    let rows = mixture_rows(world, cfg, seed, &mut counters, "table9")?;
    let base = &rows[0];
    let mixed = &rows[1];

    let mut table = Table {
        title: "Average precision by training mixture".to_string(),
        columns: ["AP on T_matrix", "AP on T_overlap"]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        rows: vec![
            Row::paper("100 / 0", &["36.1 ± 1.1", "61.7 ± 2.2"]),
            Row::paper("95 / 5", &["36.0 ± 1.0", "65.8 ± 1.2"]),
        ],
    };
    for row in &rows {
        table.rows.push(Row::measured(
            row.label.clone(),
            vec![pm(row.ap_a), pm(row.ap_b)],
        ));
    }

    let gain = mixed.ap_b.0 - base.ap_b.0;
    let drift = (mixed.ap_a.0 - base.ap_a.0).abs();
    Ok(ExperimentReport {
        id: "table9".to_string(),
        title: "Table 6 under the AP metric (Table 9)".to_string(),
        paper_ref: "Appendix D Table 9".to_string(),
        counters,
        wall_ms: 0.0,
        tables: vec![table],
        checks: vec![
            ShapeCheck::new(
                "overlap_ap_gain",
                gain > -0.5,
                format!("overlap AP moves {gain:+.1} with the 5% mixture"),
            ),
            ShapeCheck::new(
                "matrix_ap_stable",
                drift < 8.0,
                format!("matrix AP drift {drift:.1} points < 8"),
            ),
        ],
    })
}

const TABLE7_PAPER: [(&str, f64); 10] = [
    ("(0) the seed scene itself", 33.3),
    ("(1) varying model and color", 80.3),
    ("(2) varying background", 50.5),
    ("(3) varying local position, orientation", 62.8),
    ("(4) varying position but staying close", 53.1),
    ("(5) any position, same apparent angle", 58.9),
    ("(6) any position and angle", 67.5),
    ("(7) varying background, model, color", 61.3),
    ("(8) staying close, same apparent angle", 52.4),
    ("(9) staying close, varying model", 58.6),
];

fn table7(world: &World, cfg: &ExpConfig) -> Result<ExperimentReport, ExpError> {
    let mut counters = Counters::default();
    let seed = cfg.seed_for(7, 1);
    let train = scaled(250, cfg.scale);
    let images = scaled(150, cfg.scale);
    let results =
        experiments::debugging_variants(world, train, images, seed, cfg.jobs, &mut counters)?;
    if results.len() < 10 {
        return Err(ExpError::MissingRows {
            experiment: "table7",
            expected: 10,
            got: results.len(),
        });
    }

    let mut table = Table {
        title: "Precision per variant scenario".to_string(),
        columns: vec!["precision".to_string(), "recall".to_string()],
        rows: Vec::new(),
    };
    for (name, paper_p) in &TABLE7_PAPER {
        table.rows.push(Row::paper(*name, &[&p1(*paper_p), "~100"]));
    }
    for (name, metrics) in &results {
        table.rows.push(Row::measured(
            name.clone(),
            vec![p1(metrics.precision), p1(metrics.recall)],
        ));
    }

    let get = |prefix: &str| {
        results
            .iter()
            .find(|(n, _)| n.starts_with(prefix))
            .map(|(_, m)| m.precision)
            .unwrap_or(f64::NAN)
    };
    let close_bad = f64::midpoint(get("(4)"), get("(8)"));
    let freed_good = f64::midpoint(get("(1)"), get("(6)"));
    Ok(ExperimentReport {
        id: "table7".to_string(),
        title: "Debugging failures via variant scenarios (Table 7)".to_string(),
        paper_ref: "§6.4 Table 7".to_string(),
        counters,
        wall_ms: 0.0,
        tables: vec![table],
        checks: vec![ShapeCheck::new(
            "close_variants_stay_bad",
            close_bad < freed_good,
            format!(
                "close variants (4),(8) mean precision {close_bad:.1} < freed variants (1),(6) mean {freed_good:.1}"
            ),
        )],
    })
}

fn table8(world: &World, cfg: &ExpConfig) -> Result<ExperimentReport, ExpError> {
    let mut counters = Counters::default();
    let seed = cfg.seed_for(99, 2);
    // Retraining compares three close variants of one detector, so it
    // needs enough data for sub-point precision gaps to be meaningful
    // even in smoke runs; floor the sizes above scaled()'s minimum.
    let train = scaled(250, cfg.scale).max(60);
    let test = scaled(400, cfg.scale).max(100);
    let rows = experiments::retraining(world, train, test, seed, cfg.jobs, &mut counters)?;
    if rows.len() < 4 {
        return Err(ExpError::MissingRows {
            experiment: "table8",
            expected: 4,
            got: rows.len(),
        });
    }

    let paper = [
        ("Original (no replacement)", "82.9", "92.7"),
        ("Classical augmentation", "78.7", "92.1"),
        ("Close car", "87.4", "91.6"),
        ("Close car at shallow angle", "84.0", "92.1"),
    ];
    let mut table = Table {
        title: "Retraining with 10% of the training set replaced".to_string(),
        columns: vec!["precision".to_string(), "recall".to_string()],
        rows: paper
            .iter()
            .map(|(name, p, r)| Row::paper(*name, &[p, r]))
            .collect(),
    };
    for (name, metrics) in &rows {
        table.rows.push(Row::measured(
            name.clone(),
            vec![p1(metrics.precision), p1(metrics.recall)],
        ));
    }

    let orig = rows[0].1.precision;
    let aug = rows[1].1.precision;
    let close = rows[2].1.precision;
    Ok(ExperimentReport {
        id: "table8".to_string(),
        title: "Retraining with generalized failure scenarios (Table 8)".to_string(),
        paper_ref: "§6.4 Table 8".to_string(),
        counters,
        wall_ms: 0.0,
        tables: vec![table],
        checks: vec![
            ShapeCheck::new(
                "augmentation_no_better",
                aug <= orig + 1.0,
                format!("classical augmentation {aug:.1} ≤ original {orig:.1} + 1"),
            ),
            ShapeCheck::new(
                "close_car_helps",
                close > orig - 1.0,
                format!("close-car retraining {close:.1} vs original {orig:.1}"),
            ),
        ],
    })
}

fn table10(world: &World, cfg: &ExpConfig) -> Result<ExperimentReport, ExpError> {
    let mut counters = Counters::default();
    let seed = cfg.seed_for(10, 4);
    let train = scaled(500, cfg.scale);
    let test = scaled(150, cfg.scale);
    let runs = scaled(8, cfg.scale.min(1.0)).min(8);
    let rows =
        experiments::two_car_mixtures(world, train, test, runs, seed, cfg.jobs, &mut counters)?;
    if rows.len() < 2 {
        return Err(ExpError::MissingRows {
            experiment: "table10",
            expected: 2,
            got: rows.len(),
        });
    }

    let paper = [
        (
            "100/0",
            ["96.5 ± 1.0", "95.7 ± 0.5", "94.6 ± 1.1", "82.1 ± 1.4"],
        ),
        (
            "90/10",
            ["95.3 ± 2.1", "96.2 ± 0.5", "93.9 ± 2.5", "86.9 ± 1.7"],
        ),
        (
            "80/20",
            ["96.5 ± 0.7", "96.0 ± 0.6", "96.2 ± 0.5", "89.7 ± 1.4"],
        ),
        (
            "70/30",
            ["96.5 ± 0.9", "96.5 ± 0.6", "96.0 ± 1.6", "90.1 ± 1.8"],
        ),
    ];
    let mut table = Table {
        title: "Two-car vs overlapping training mixtures".to_string(),
        columns: ["T_twocar P", "T_twocar R", "T_overlap P", "T_overlap R"]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        rows: paper
            .iter()
            .map(|(label, cells)| Row::paper(*label, &[cells[0], cells[1], cells[2], cells[3]]))
            .collect(),
    };
    for row in &rows {
        table.rows.push(Row::measured(
            row.label.clone(),
            vec![
                pm(row.precision_a),
                pm(row.recall_a),
                pm(row.precision_b),
                pm(row.recall_b),
            ],
        ));
    }

    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    let rise = last.recall_b.0 - first.recall_b.0;
    let drift = (last.recall_a.0 - first.recall_a.0).abs();
    Ok(ExperimentReport {
        id: "table10".to_string(),
        title: "Two-car vs overlapping mixtures (Table 10)".to_string(),
        paper_ref: "Appendix D Table 10".to_string(),
        counters,
        wall_ms: 0.0,
        tables: vec![table],
        checks: vec![
            ShapeCheck::new(
                "overlap_recall_rises",
                rise > -0.5,
                format!("overlap recall moves {rise:+.1} from 100/0 to 70/30"),
            ),
            ShapeCheck::new(
                "twocar_stable",
                drift < 8.0,
                format!("two-car recall drift {drift:.1} points < 8"),
            ),
        ],
    })
}

fn fig36(world: &World, cfg: &ExpConfig) -> Result<ExperimentReport, ExpError> {
    let mut counters = Counters::default();
    let seed = cfg.seed_for(36, 5);
    let images = scaled(500, cfg.scale);
    let h = experiments::iou_histogram(world, images, seed, cfg.jobs, &mut counters)?;

    let mut table = Table {
        title: "Pairwise ground-truth IoU histogram".to_string(),
        columns: vec!["X_twocar".to_string(), "X_overlap".to_string()],
        rows: Vec::new(),
    };
    for i in 0..h.edges.len() {
        let lo = h.edges[i];
        table.rows.push(Row::measured(
            format!("{:.2}–{:.2}", lo, lo + 0.05),
            vec![h.twocar[i].to_string(), h.overlap[i].to_string()],
        ));
    }

    let two_tail: usize = h.twocar.iter().skip(2).sum();
    let ovl_tail: usize = h.overlap.iter().skip(2).sum();
    Ok(ExperimentReport {
        id: "fig36".to_string(),
        title: "IoU distribution of training sets (Fig. 36)".to_string(),
        paper_ref: "Appendix D Fig. 36".to_string(),
        counters,
        wall_ms: 0.0,
        tables: vec![table],
        checks: vec![ShapeCheck::new(
            "overlap_mass_dominates_tail",
            ovl_tail > 2 * two_tail,
            format!("mass at IoU ≥ 0.10: overlap {ovl_tail} > 2 × twocar {two_tail}"),
        )],
    })
}

fn conditions(world: &World, cfg: &ExpConfig) -> Result<ExperimentReport, ExpError> {
    let mut counters = Counters::default();
    let seed = cfg.seed_for(42, 6);
    let train = scaled(250, cfg.scale);
    let test = scaled(60, cfg.scale);
    let r = experiments::conditions(world, train, test, seed, cfg.jobs, &mut counters)?;

    let table = Table {
        title: "M_generic under different test conditions".to_string(),
        columns: vec!["precision".to_string(), "recall".to_string()],
        rows: vec![
            Row::paper("T_generic", &["83.1", "92.6"]),
            Row::paper("T_good", &["85.7", "94.3"]),
            Row::paper("T_bad", &["72.8", "92.8"]),
            Row::measured(
                "T_generic",
                vec![p1(r.generic.precision), p1(r.generic.recall)],
            ),
            Row::measured("T_good", vec![p1(r.good.precision), p1(r.good.recall)]),
            Row::measured("T_bad", vec![p1(r.bad.precision), p1(r.bad.recall)]),
        ],
    };

    let worst = r.bad.precision < r.good.precision && r.bad.precision < r.generic.precision;
    Ok(ExperimentReport {
        id: "conditions".to_string(),
        title: "Testing under different conditions (§6.2)".to_string(),
        paper_ref: "§6.2 (precision 83.1/85.7/72.8, recall 92.6/94.3/92.8)".to_string(),
        counters,
        wall_ms: 0.0,
        tables: vec![table],
        checks: vec![ShapeCheck::new(
            "bad_conditions_worst",
            worst,
            format!(
                "bad-conditions precision {:.1} below good {:.1} and generic {:.1}",
                r.bad.precision, r.good.precision, r.generic.precision
            ),
        )],
    })
}

fn pruning(world: &World, cfg: &ExpConfig) -> Result<ExperimentReport, ExpError> {
    let mut counters = Counters::default();
    let seed = cfg.seed_for(17, 7);
    let scenes = scaled(40, cfg.scale);
    let rows = experiments::pruning_comparison(world, scenes, seed, &mut counters)?;

    // Wall-clock columns are deliberately dropped here: tables feed the
    // byte-stable artifact, so only the iteration counts appear.
    let mut table = Table {
        title: "Rejection iterations per accepted scene".to_string(),
        columns: ["unpruned", "pruned", "factor"]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        rows: vec![Row::paper(
            "any scenario",
            &["—", "—", "≥ 3 (\"factor of 3 or more\")"],
        )],
    };
    for row in &rows {
        table.rows.push(Row::measured(
            row.scenario.clone(),
            vec![
                p1(row.unpruned_iters),
                p1(row.pruned_iters),
                format!("{:.2}x", row.iteration_factor()),
            ],
        ));
    }

    let best = rows
        .iter()
        .map(experiments::PruningRow::iteration_factor)
        .fold(0.0, f64::max);
    Ok(ExperimentReport {
        id: "pruning".to_string(),
        title: "Sample-space pruning effectiveness (Appendix D)".to_string(),
        paper_ref: "§5.2 / Appendix D".to_string(),
        counters,
        wall_ms: 0.0,
        tables: vec![table],
        checks: vec![ShapeCheck::new(
            "factor_three_reached",
            best >= 3.0,
            format!("best iteration-reduction factor {best:.2}x vs the paper's ≥3x claim"),
        )],
    })
}

fn ablation(world: &World, cfg: &ExpConfig) -> Result<ExperimentReport, ExpError> {
    let mut counters = Counters::default();
    // Gap measurements need enough images for stable statistics even in
    // smoke runs, so the ablation floors its sizes well above scaled()'s
    // minimum of 4.
    let n_train = scaled(400, cfg.scale).max(100);
    let n_test = scaled(150, cfg.scale).max(40);
    let rows = experiments::ablation(world, n_train, n_test, cfg.jobs, &mut counters)?;

    let mut table = Table {
        title: "Feature-family ablations (gap in points, full vs masked)".to_string(),
        columns: ["gap measured", "full", "masked"]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        rows: Vec::new(),
    };
    let mut checks = Vec::new();
    for row in &rows {
        table.rows.push(Row::measured(
            row.feature.clone(),
            vec![row.metric.clone(), p1(row.full), p1(row.masked)],
        ));
        checks.push(ShapeCheck::new(
            format!("{}_carries_effect", row.feature),
            row.confirmed(),
            format!(
                "masking {} moves the gap {:.1} -> {:.1} points",
                row.feature, row.full, row.masked
            ),
        ));
    }

    Ok(ExperimentReport {
        id: "ablation".to_string(),
        title: "Which detector features carry each effect".to_string(),
        paper_ref: "DESIGN.md §4 (design-choice ablations)".to_string(),
        counters,
        wall_ms: 0.0,
        tables: vec![table],
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_world;

    #[test]
    fn expand_knows_every_id_and_rejects_junk() {
        assert_eq!(expand("all").unwrap().len(), EXPERIMENT_IDS.len());
        assert_eq!(expand("fig36").unwrap(), vec!["fig36"]);
        assert!(matches!(
            expand("table99"),
            Err(ExpError::UnknownExperiment(_))
        ));
    }

    #[test]
    fn invalid_scale_is_typed() {
        let world = standard_world();
        let cfg = ExpConfig {
            scale: 0.0,
            ..ExpConfig::default()
        };
        assert!(matches!(
            run_experiment("fig36", &world, &cfg),
            Err(ExpError::InvalidScale(_))
        ));
    }

    #[test]
    fn fig36_report_is_jobs_invariant() {
        let world = standard_world();
        let base = ExpConfig {
            scale: 0.02,
            seed: Some(5),
            jobs: 1,
        };
        let a = run_experiment("fig36", &world, &base).unwrap();
        let b = run_experiment("fig36", &world, &ExpConfig { jobs: 4, ..base }).unwrap();
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.counters, b.counters);
    }
}
