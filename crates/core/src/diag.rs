//! Typed diagnostics with stable codes and a rustc-style renderer.
//!
//! Every user-facing message from the static analyzer ([`crate::analysis`])
//! and the compile/runtime error paths is a [`Diagnostic`]: a stable
//! [`Code`], a [`Severity`], an optional source [`Span`], a message, and
//! an optional help line. The text renderer prints `file:line:col`
//! headers with caret underlines; the JSON renderer emits one object per
//! diagnostic for tooling.
//!
//! Code ranges:
//!
//! - `E0xx` — front-end and runtime errors (parse, type, undefined
//!   names, specifier conflicts, …), unified from [`ScenicError`];
//! - `E1xx` — static-analysis errors (a scenario that can never sample);
//! - `W0xx`/`W1xx` — lints (dead code, vacuous constraints);
//! - `I2xx` — informational notes from the §5.2 pruning derivation.

use crate::error::ScenicError;
use crate::json_escape;
use scenic_lang::{ParseError, Pos, Span};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory note (never affects exit status).
    Info,
    /// Suspicious but not fatal (fails `--deny warnings`).
    Warning,
    /// The scenario is broken.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric part never changes meaning;
/// retired codes are not reused. `docs/DIAGNOSTICS.md` catalogues each
/// one with a triggering example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::upper_case_acronyms)]
pub enum Code {
    /// E001 — the source failed to parse.
    ParseError,
    /// E002 — a type mismatch (e.g. a region where a vector is needed).
    TypeError,
    /// E003 — reference to an undefined variable, property, or class.
    UndefinedName,
    /// E004 — an ill-formed specifier combination (Algorithm 1).
    InvalidSpecifiers,
    /// E005 — control flow depended on a random value (§4).
    RandomControlFlow,
    /// E006 — the scenario never defined `ego` but needed it (§3).
    EgoUndefined,
    /// E007 — any other runtime error.
    RuntimeError,
    /// E008 — the sampler exhausted its iteration budget.
    SamplingExhausted,
    /// E101 — a hard requirement is statically unsatisfiable.
    UnsatisfiableRequirement,
    /// W001 — a definition is never used.
    UnusedDefinition,
    /// W002 — a binding shadows an earlier one that was never read.
    ShadowedBinding,
    /// W103 — an object's possible positions never intersect the
    /// workspace (every sample would be rejected by containment).
    ObjectOutsideWorkspace,
    /// W104 — a requirement is statically always true.
    VacuousRequirement,
    /// I201 — a §5.2 pruner was disabled by `derive_params`.
    PrunerDisabled,
    /// I202 — a §5.2 pruner was enabled by `derive_params`.
    PrunerEnabled,
    /// I203 — a requirement implies a tighter pruning bound than the
    /// derivation could prove; `prune-report` flags would exploit it.
    PruningOpportunity,
    /// E301 — a fresh sampling run diverged from the digest the
    /// artifact-store ledger pinned for the same key.
    StoreDigestDivergence,
}

impl Code {
    /// The stable code string, e.g. `"E101"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::ParseError => "E001",
            Code::TypeError => "E002",
            Code::UndefinedName => "E003",
            Code::InvalidSpecifiers => "E004",
            Code::RandomControlFlow => "E005",
            Code::EgoUndefined => "E006",
            Code::RuntimeError => "E007",
            Code::SamplingExhausted => "E008",
            Code::UnsatisfiableRequirement => "E101",
            Code::UnusedDefinition => "W001",
            Code::ShadowedBinding => "W002",
            Code::ObjectOutsideWorkspace => "W103",
            Code::VacuousRequirement => "W104",
            Code::PrunerDisabled => "I201",
            Code::PrunerEnabled => "I202",
            Code::PruningOpportunity => "I203",
            Code::StoreDigestDivergence => "E301",
        }
    }

    /// The kebab-case name, e.g. `"statically-unsatisfiable-requirement"`.
    pub fn name(self) -> &'static str {
        match self {
            Code::ParseError => "parse-error",
            Code::TypeError => "type-error",
            Code::UndefinedName => "undefined-name",
            Code::InvalidSpecifiers => "invalid-specifiers",
            Code::RandomControlFlow => "random-control-flow",
            Code::EgoUndefined => "ego-undefined",
            Code::RuntimeError => "runtime-error",
            Code::SamplingExhausted => "sampling-exhausted",
            Code::UnsatisfiableRequirement => "statically-unsatisfiable-requirement",
            Code::UnusedDefinition => "unused-definition",
            Code::ShadowedBinding => "shadowed-binding",
            Code::ObjectOutsideWorkspace => "object-outside-workspace",
            Code::VacuousRequirement => "vacuous-requirement",
            Code::PrunerDisabled => "pruner-disabled",
            Code::PrunerEnabled => "pruner-enabled",
            Code::PruningOpportunity => "pruning-opportunity",
            Code::StoreDigestDivergence => "store-digest-divergence",
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self.as_str().as_bytes()[0] {
            b'E' => Severity::Error,
            b'W' => Severity::Warning,
            _ => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One typed diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (also fixes the severity).
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Source range the diagnostic points at, when known. Whole-program
    /// diagnostics (the `I2xx` pruning notes) have no span.
    pub span: Option<Span>,
    /// What is wrong, in one sentence.
    pub message: String,
    /// How to fix or silence it, when there is something to say.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A spanned diagnostic.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span: Some(span),
            message: message.into(),
            help: None,
        }
    }

    /// A diagnostic about the scenario as a whole (no source location).
    pub fn global(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span: None,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a help line.
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Converts a compile/runtime error into the unified diagnostic
    /// shape (satisfying the "every user-facing error carries a code
    /// and position" contract). Errors that only know a line get a
    /// zero-width span at column 1.
    pub fn from_error(err: &ScenicError) -> Diagnostic {
        let at_line = |line: u32| {
            Span::point(Pos {
                line: line.max(1),
                col: 1,
            })
        };
        match err {
            ScenicError::Parse(p) => Diagnostic::new(
                Code::ParseError,
                Span::point(p.pos),
                format!("parse error: {}", p.message),
            ),
            ScenicError::Type { message, line } => {
                Diagnostic::new(Code::TypeError, at_line(*line), message.clone())
            }
            ScenicError::Undefined { name, line } => Diagnostic::new(
                Code::UndefinedName,
                at_line(*line),
                format!("`{name}` is not defined"),
            ),
            ScenicError::Specifier { message, class } => Diagnostic::global(
                Code::InvalidSpecifiers,
                format!("invalid specifiers for `{class}`: {message}"),
            ),
            ScenicError::RandomControlFlow { line } => Diagnostic::new(
                Code::RandomControlFlow,
                at_line(*line),
                "control flow depends on a random value",
            )
            .with_help("§4: conditions of `if`/`while` must be non-random"),
            ScenicError::EgoUndefined => {
                Diagnostic::global(Code::EgoUndefined, "the scenario never defines `ego`")
                    .with_help("add an `ego = ...` assignment (§3 requires one)")
            }
            ScenicError::MaxIterationsExceeded { limit } => Diagnostic::global(
                Code::SamplingExhausted,
                format!("no accepted scene within {limit} iterations"),
            )
            .with_help("the requirements may be (nearly) unsatisfiable; try `scenic lint`"),
            ScenicError::Runtime { message, line } => {
                Diagnostic::new(Code::RuntimeError, at_line(*line), message.clone())
            }
            other => Diagnostic::global(Code::RuntimeError, other.to_string()),
        }
    }

    /// Converts a bare parse error (same mapping as
    /// [`Diagnostic::from_error`]).
    pub fn from_parse_error(err: &ParseError) -> Diagnostic {
        Diagnostic::from_error(&ScenicError::Parse(err.clone()))
    }
}

/// Renders diagnostics rustc-style against the source text:
///
/// ```text
/// warning[W001]: unused-definition: `spot` is never used
///   --> demo.scenic:2:1
///    |
///  2 | spot = OrientedPoint on curb
///    | ^^^^
///    = help: remove the definition or use it
/// ```
pub fn render_text(diags: &[Diagnostic], file: &str, source: &str) -> String {
    let lines: Vec<&str> = source.lines().collect();
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}[{}]: {}: {}\n",
            d.severity,
            d.code,
            d.code.name(),
            d.message
        ));
        match d.span {
            Some(span) => {
                out.push_str(&format!(
                    "  --> {file}:{}:{}\n",
                    span.start.line, span.start.col
                ));
                if let Some(text) = lines.get(span.start.line as usize - 1) {
                    let n = span.start.line;
                    let gutter = n.to_string().len().max(2);
                    out.push_str(&format!("{:gutter$} |\n", ""));
                    out.push_str(&format!("{n:gutter$} | {text}\n"));
                    let col = (span.start.col as usize).max(1);
                    let width = if span.end.line == span.start.line && span.end.col > span.start.col
                    {
                        (span.end.col - span.start.col) as usize
                    } else {
                        // Span runs past this line (or is a point):
                        // underline to the end of the trimmed line.
                        text.trim_end().len().saturating_sub(col - 1).max(1)
                    };
                    out.push_str(&format!(
                        "{:gutter$} | {:pad$}{}\n",
                        "",
                        "",
                        "^".repeat(width.max(1)),
                        pad = col - 1
                    ));
                }
            }
            None => out.push_str(&format!("  --> {file}\n")),
        }
        if let Some(help) = &d.help {
            out.push_str(&format!("   = help: {help}\n"));
        }
    }
    out
}

/// One-line rendering (for `--stats` footers and logs):
/// `info[I201]: pruner-disabled: …`.
pub fn render_line(d: &Diagnostic) -> String {
    let mut s = format!(
        "{}[{}]: {}: {}",
        d.severity,
        d.code,
        d.code.name(),
        d.message
    );
    if let Some(span) = d.span {
        s.push_str(&format!(" (at {}:{})", span.start.line, span.start.col));
    }
    s
}

/// Renders diagnostics as a JSON array (one object per diagnostic,
/// `span` null when absent). Hand-formatted: the repo builds without a
/// JSON dependency.
pub fn render_json(diags: &[Diagnostic], file: &str) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"code\": \"{}\", \"name\": \"{}\", \"severity\": \"{}\", ",
            json_escape(file),
            d.code,
            d.code.name(),
            d.severity
        ));
        match d.span {
            Some(span) => out.push_str(&format!(
                "\"span\": {{\"line\": {}, \"col\": {}, \"end_line\": {}, \"end_col\": {}}}, ",
                span.start.line, span.start.col, span.end.line, span.end.col
            )),
            None => out.push_str("\"span\": null, "),
        }
        out.push_str(&format!("\"message\": \"{}\", ", json_escape(&d.message)));
        match &d.help {
            Some(h) => out.push_str(&format!("\"help\": \"{}\"}}", json_escape(h))),
            None => out.push_str("\"help\": null}"),
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(line: u32, col: u32) -> Pos {
        Pos { line, col }
    }

    #[test]
    fn codes_are_stable_and_typed() {
        assert_eq!(Code::UnsatisfiableRequirement.as_str(), "E101");
        assert_eq!(Code::UnusedDefinition.as_str(), "W001");
        assert_eq!(Code::PrunerDisabled.as_str(), "I201");
        assert_eq!(Code::UnsatisfiableRequirement.severity(), Severity::Error);
        assert_eq!(Code::UnusedDefinition.severity(), Severity::Warning);
        assert_eq!(Code::PrunerDisabled.severity(), Severity::Info);
    }

    #[test]
    fn text_rendering_underlines_the_span() {
        let d = Diagnostic::new(
            Code::UnusedDefinition,
            Span::new(pos(2, 1), pos(2, 5)),
            "`spot` is never used",
        )
        .with_help("remove it");
        let text = render_text(&[d], "demo.scenic", "ego = Car\nspot = Car\n");
        assert!(text.contains("warning[W001]: unused-definition"), "{text}");
        assert!(text.contains("--> demo.scenic:2:1"), "{text}");
        assert!(text.contains(" 2 | spot = Car"), "{text}");
        assert!(text.contains("^^^^"), "{text}");
        assert!(text.contains("= help: remove it"), "{text}");
    }

    #[test]
    fn error_conversion_keeps_positions() {
        let err = ScenicError::Undefined {
            name: "Car".into(),
            line: 3,
        };
        let d = Diagnostic::from_error(&err);
        assert_eq!(d.code, Code::UndefinedName);
        assert_eq!(d.span.unwrap().start.line, 3);
    }

    #[test]
    fn json_rendering_escapes_and_nulls() {
        let d = Diagnostic::global(Code::EgoUndefined, "no \"ego\"");
        let json = render_json(&[d], "a.scenic");
        assert!(json.contains("\"span\": null"), "{json}");
        assert!(json.contains("no \\\"ego\\\""), "{json}");
        assert!(json.contains("\"code\": \"E006\""), "{json}");
    }
}
