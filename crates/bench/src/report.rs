//! Typed experiment reports and their renderers.
//!
//! Every experiment driver's results are packaged as an
//! [`ExperimentReport`]: titled tables whose rows are either the
//! paper's reference values or our measurements, plus the shape-check
//! verdicts and work counters. Reports render three ways — paper-style
//! text for the terminal, a markdown document, and the machine-readable
//! JSON artifact (schema `scenic-exp/v1`, committed as
//! `EXPERIMENTS.json`).
//!
//! Everything rendered here is deterministic: wall-clock timings live
//! in [`ExperimentReport::wall_ms`] for the harness to report on stderr
//! but never enter a table, the JSON, or the markdown, so artifacts are
//! byte-identical across runs and worker counts. Per the vendored-serde
//! convention, u64 seeds appear in JSON as decimal strings.

use crate::experiments::Counters;
use scenic_core::json_escape;
use std::fmt::Write as _;

/// Where a table row's numbers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSource {
    /// The paper's reported values.
    Paper,
    /// Values measured by this run.
    Measured,
}

impl RowSource {
    fn as_str(self) -> &'static str {
        match self {
            RowSource::Paper => "paper",
            RowSource::Measured => "measured",
        }
    }
}

/// One table row: a label plus pre-formatted cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// Paper reference or our measurement.
    pub source: RowSource,
    /// Row label (mixture name, scenario, test set, …).
    pub label: String,
    /// Pre-formatted cell values, aligned with the table's columns.
    pub cells: Vec<String>,
}

impl Row {
    /// A paper-reference row.
    pub fn paper(label: impl Into<String>, cells: &[&str]) -> Row {
        Row {
            source: RowSource::Paper,
            label: label.into(),
            cells: cells.iter().map(|c| (*c).to_string()).collect(),
        }
    }

    /// A measured row.
    pub fn measured(label: impl Into<String>, cells: Vec<String>) -> Row {
        Row {
            source: RowSource::Measured,
            label: label.into(),
            cells,
        }
    }
}

/// One titled table of an experiment.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers (excluding the implicit source/label columns).
    pub columns: Vec<String>,
    /// Rows, paper references first by convention.
    pub rows: Vec<Row>,
}

/// One shape-check verdict: a qualitative property of the paper the
/// run either reproduces or not.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Stable snake_case name (greppable in the artifact).
    pub name: String,
    /// Whether the property held in this run.
    pub holds: bool,
    /// Human-readable evidence, e.g. the two numbers compared.
    pub detail: String,
}

impl ShapeCheck {
    /// Builds a verdict.
    pub fn new(name: impl Into<String>, holds: bool, detail: impl Into<String>) -> ShapeCheck {
        ShapeCheck {
            name: name.into(),
            holds,
            detail: detail.into(),
        }
    }
}

/// Everything one experiment produced.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Harness id (`table6`, `fig36`, …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Paper reference (section / table / figure).
    pub paper_ref: String,
    /// Sampling/rendering work performed (deterministic).
    pub counters: Counters,
    /// Wall-clock of the whole experiment, ms. **Not** rendered into
    /// artifacts — stderr reporting only.
    pub wall_ms: f64,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Shape-check verdicts.
    pub checks: Vec<ShapeCheck>,
}

impl ExperimentReport {
    /// Whether every shape check held.
    pub fn all_hold(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }

    /// Renders the paper-style terminal text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "================================================================"
        );
        let _ = writeln!(out, "{} [{}]", self.title, self.id);
        let _ = writeln!(out, "paper reference: {}", self.paper_ref);
        let _ = writeln!(
            out,
            "================================================================"
        );
        for table in &self.tables {
            let _ = writeln!(out);
            let _ = writeln!(out, "  {}", table.title);
            let label_w = table
                .rows
                .iter()
                .map(|r| r.label.chars().count())
                .chain(std::iter::once(8))
                .max()
                .unwrap_or(8);
            let cell_w: Vec<usize> = table
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    table
                        .rows
                        .iter()
                        .filter_map(|r| r.cells.get(i))
                        .map(|c| c.chars().count())
                        .chain(std::iter::once(c.chars().count()))
                        .max()
                        .unwrap_or(4)
                })
                .collect();
            let pad = |s: &str, w: usize| {
                let mut s = s.to_string();
                while s.chars().count() < w {
                    s.push(' ');
                }
                s
            };
            let header: Vec<String> = table
                .columns
                .iter()
                .zip(&cell_w)
                .map(|(c, w)| pad(c, *w))
                .collect();
            let _ = writeln!(
                out,
                "  {:9} {}  {}",
                "source",
                pad("", label_w),
                header.join("  ")
            );
            for row in &table.rows {
                let cells: Vec<String> = row
                    .cells
                    .iter()
                    .zip(&cell_w)
                    .map(|(c, w)| pad(c, *w))
                    .collect();
                let _ = writeln!(
                    out,
                    "  {:9} {}  {}",
                    row.source.as_str(),
                    pad(&row.label, label_w),
                    cells.join("  ")
                );
            }
        }
        let _ = writeln!(out);
        for check in &self.checks {
            let _ = writeln!(
                out,
                "shape check {}: {} ({})",
                check.name,
                if check.holds { "HOLDS" } else { "VIOLATED" },
                check.detail
            );
        }
        out
    }
}

fn json_str_list(items: &[String]) -> String {
    let cells: Vec<String> = items
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect();
    format!("[{}]", cells.join(", "))
}

/// The run configuration recorded in artifacts. Deliberately excludes
/// the worker count: artifacts are byte-identical for any `--jobs`.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Dataset scale factor (1.0 = paper-proportional counts / 4).
    pub scale: f64,
    /// Root seed override; `None` = per-experiment defaults.
    pub seed: Option<u64>,
}

/// Renders a run's reports as the `scenic-exp/v1` JSON artifact.
pub fn to_json(reports: &[ExperimentReport], config: &RunConfig) -> String {
    let mut out = String::from("{\n  \"schema\": \"scenic-exp/v1\",\n");
    let _ = writeln!(out, "  \"config\": {{");
    let _ = writeln!(out, "    \"scale\": {},", config.scale);
    match config.seed {
        // u64 seeds as decimal strings: the vendored serde models all
        // numbers as f64, which cannot hold every u64 exactly.
        Some(seed) => {
            let _ = writeln!(out, "    \"seed\": \"{seed}\"");
        }
        None => {
            let _ = writeln!(out, "    \"seed\": null");
        }
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"all_hold\": {},",
        reports.iter().all(ExperimentReport::all_hold)
    );
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, report) in reports.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"id\": \"{}\",", json_escape(&report.id));
        let _ = writeln!(out, "      \"title\": \"{}\",", json_escape(&report.title));
        let _ = writeln!(
            out,
            "      \"paper_ref\": \"{}\",",
            json_escape(&report.paper_ref)
        );
        let _ = writeln!(
            out,
            "      \"counters\": {{\"scenes\": {}, \"images\": {}, \"iterations\": {}}},",
            report.counters.scenes, report.counters.images, report.counters.iterations
        );
        let _ = writeln!(out, "      \"tables\": [");
        for (t, table) in report.tables.iter().enumerate() {
            let _ = writeln!(out, "        {{");
            let _ = writeln!(
                out,
                "          \"title\": \"{}\",",
                json_escape(&table.title)
            );
            let _ = writeln!(
                out,
                "          \"columns\": {},",
                json_str_list(&table.columns)
            );
            let _ = writeln!(out, "          \"rows\": [");
            for (r, row) in table.rows.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "            {{\"source\": \"{}\", \"label\": \"{}\", \"cells\": {}}}{}",
                    row.source.as_str(),
                    json_escape(&row.label),
                    json_str_list(&row.cells),
                    if r + 1 < table.rows.len() { "," } else { "" }
                );
            }
            let _ = writeln!(out, "          ]");
            let _ = writeln!(
                out,
                "        }}{}",
                if t + 1 < report.tables.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"checks\": [");
        for (c, check) in report.checks.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"name\": \"{}\", \"holds\": {}, \"detail\": \"{}\"}}{}",
                json_escape(&check.name),
                check.holds,
                json_escape(&check.detail),
                if c + 1 < report.checks.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a run's reports as a markdown document.
pub fn to_markdown(reports: &[ExperimentReport], config: &RunConfig) -> String {
    let mut out = String::from("# Scenic experiment reproduction\n\n");
    let _ = write!(
        out,
        "Artifact schema `scenic-exp/v1`; scale {}",
        config.scale
    );
    match config.seed {
        Some(seed) => {
            let _ = writeln!(out, ", seed {seed}.");
        }
        None => {
            let _ = writeln!(out, ", per-experiment default seeds.");
        }
    }
    for report in reports {
        let _ = writeln!(out);
        let _ = writeln!(out, "## {} ({})", report.title, report.paper_ref);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Work: {} scenes sampled, {} images rendered, {} sampler iterations.",
            report.counters.scenes, report.counters.images, report.counters.iterations
        );
        for table in &report.tables {
            let _ = writeln!(out);
            let _ = writeln!(out, "### {}", table.title);
            let _ = writeln!(out);
            let header: Vec<&str> = std::iter::once("source")
                .chain(std::iter::once("label"))
                .chain(table.columns.iter().map(String::as_str))
                .collect();
            let _ = writeln!(out, "| {} |", header.join(" | "));
            let _ = writeln!(out, "|{}|", vec!["---"; header.len()].join("|"));
            for row in &table.rows {
                let cells: Vec<&str> = std::iter::once(row.source.as_str())
                    .chain(std::iter::once(row.label.as_str()))
                    .chain(row.cells.iter().map(String::as_str))
                    .collect();
                let _ = writeln!(out, "| {} |", cells.join(" | "));
            }
        }
        let _ = writeln!(out);
        for check in &report.checks {
            let _ = writeln!(
                out,
                "- shape check `{}`: **{}** — {}",
                check.name,
                if check.holds { "HOLDS" } else { "VIOLATED" },
                check.detail
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ExperimentReport {
        ExperimentReport {
            id: "table6".to_string(),
            title: "Training on rare events".to_string(),
            paper_ref: "§6.3 Table 6".to_string(),
            counters: Counters {
                scenes: 10,
                images: 10,
                iterations: 25,
            },
            wall_ms: 12.5,
            tables: vec![Table {
                title: "P / R".to_string(),
                columns: vec!["P".to_string(), "R".to_string()],
                rows: vec![
                    Row::paper("100 / 0", &["72.9 ± 3.7", "37.1 ± 2.1"]),
                    Row::measured(
                        "100 / 0",
                        vec!["70.0 ± 1.0".to_string(), "40.0 ± 1.0".to_string()],
                    ),
                ],
            }],
            checks: vec![ShapeCheck::new("overlap_gain", true, "1.0 > 0.0")],
        }
    }

    #[test]
    fn json_has_schema_and_no_wall_clock() {
        let json = to_json(
            &[sample_report()],
            &RunConfig {
                scale: 0.05,
                seed: Some(2024),
            },
        );
        assert!(json.contains("\"schema\": \"scenic-exp/v1\""));
        assert!(json.contains("\"seed\": \"2024\""));
        assert!(json.contains("\"holds\": true"));
        assert!(!json.contains("wall"), "wall-clock leaked into artifact");
        // The vendored serde_json can parse it back.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let top = value.as_object().expect("artifact is a JSON object");
        assert_eq!(
            top.get("schema").and_then(serde_json::Value::as_str),
            Some("scenic-exp/v1")
        );
    }

    #[test]
    fn escaping_handles_quotes_and_newlines() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn text_and_markdown_mention_every_check() {
        let report = sample_report();
        let text = report.to_text();
        assert!(text.contains("shape check overlap_gain: HOLDS"));
        let md = to_markdown(
            &[report],
            &RunConfig {
                scale: 1.0,
                seed: None,
            },
        );
        assert!(md.contains("`overlap_gain`: **HOLDS**"));
        assert!(md.contains("| paper | 100 / 0 |"));
    }
}
