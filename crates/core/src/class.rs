//! Runtime classes and the built-in class hierarchy (Table 2).

use crate::env::EnvRef;
use scenic_lang::ast::Expr;
use std::rc::Rc;

/// A class at runtime: its own default-value expressions plus a link to
/// its superclass. Default values are *expressions* evaluated per
/// instance (§4.1), so `weight: (1, 5)` draws independently for every
/// object.
pub struct RuntimeClass {
    /// Class name.
    pub name: String,
    /// Superclass (`None` only for `Point`).
    pub superclass: Option<Rc<RuntimeClass>>,
    /// Own `property: defaultValueExpr` pairs in declaration order.
    pub properties: Vec<(String, Expr)>,
    /// Environment the class was defined in (default-value expressions
    /// evaluate here, with `self` bound per instance).
    pub env: EnvRef,
}

impl std::fmt::Debug for RuntimeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<class {}>", self.name)
    }
}

impl RuntimeClass {
    /// Names from this class up to the root, most-derived first.
    pub fn lineage(self: &Rc<Self>) -> Vec<String> {
        let mut names = Vec::new();
        let mut cur = Some(Rc::clone(self));
        while let Some(c) = cur {
            names.push(c.name.clone());
            cur = c.superclass.clone();
        }
        names
    }

    /// Whether this class descends from `name` (inclusive).
    pub fn descends_from(self: &Rc<Self>, name: &str) -> bool {
        let mut cur = Some(Rc::clone(self));
        while let Some(c) = cur {
            if c.name == name {
                return true;
            }
            cur = c.superclass.clone();
        }
        false
    }

    /// The *most-derived* default expression for each property across
    /// the hierarchy, in stable order (base-class properties first, so
    /// `position` precedes user-added ones).
    pub fn defaults(self: &Rc<Self>) -> Vec<(String, Expr)> {
        let mut chain = Vec::new();
        let mut cur = Some(Rc::clone(self));
        while let Some(c) = cur {
            chain.push(Rc::clone(&c));
            cur = c.superclass.clone();
        }
        // Walk base-first; later (more-derived) definitions override.
        let mut order: Vec<String> = Vec::new();
        let mut map: std::collections::HashMap<String, Expr> = std::collections::HashMap::new();
        for class in chain.iter().rev() {
            for (prop, expr) in &class.properties {
                if !map.contains_key(prop) {
                    order.push(prop.clone());
                }
                map.insert(prop.clone(), expr.clone());
            }
        }
        order
            .into_iter()
            .map(|p| {
                let e = map.remove(&p).expect("present");
                (p, e)
            })
            .collect()
    }
}

/// The built-in class prelude, written in Scenic itself. Defaults follow
/// Table 2 of the paper. (`Point` is the unique root class.)
pub const PRELUDE: &str = "\
class Point:
    position: 0 @ 0
    width: 0
    height: 0
    viewDistance: 50
    mutationScale: 0
    positionStdDev: 1

class OrientedPoint(Point):
    heading: 0
    viewAngle: 360 deg
    headingStdDev: 5 deg

class Object(OrientedPoint):
    width: 1
    height: 1
    allowCollisions: False
    requireVisible: True
";

/// Collects the properties an expression reads off `self` — the
/// dependencies of a default-value specifier (§4.1: "Default values may
/// use the special syntax `self.property` … which is then a dependency
/// of this default value").
pub fn self_dependencies(expr: &Expr) -> Vec<String> {
    let mut deps = Vec::new();
    collect_self_deps(expr, &mut deps);
    deps.sort();
    deps.dedup();
    deps
}

fn collect_self_deps(expr: &Expr, out: &mut Vec<String>) {
    if let Expr::Attribute { obj, name } = expr {
        if matches!(&**obj, Expr::Ident(id) if id == "self") {
            out.push(name.clone());
        }
    }
    expr.for_each_child(|e| collect_self_deps(e, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenic_lang::parse;

    fn class_chain() -> (Rc<RuntimeClass>, Rc<RuntimeClass>) {
        let env = crate::env::Scope::root();
        let base = Rc::new(RuntimeClass {
            name: "Object".into(),
            superclass: None,
            properties: vec![
                ("width".into(), Expr::Number(1.0)),
                ("height".into(), Expr::Number(1.0)),
            ],
            env: env.clone(),
        });
        let car = Rc::new(RuntimeClass {
            name: "Car".into(),
            superclass: Some(Rc::clone(&base)),
            properties: vec![("width".into(), Expr::Number(2.0))],
            env,
        });
        (base, car)
    }

    #[test]
    fn lineage_and_descent() {
        let (base, car) = class_chain();
        assert_eq!(car.lineage(), vec!["Car".to_string(), "Object".to_string()]);
        assert!(car.descends_from("Object"));
        assert!(!base.descends_from("Car"));
    }

    #[test]
    fn defaults_are_overridden_by_derived() {
        let (_, car) = class_chain();
        let defaults = car.defaults();
        let width = defaults.iter().find(|(p, _)| p == "width").unwrap();
        assert_eq!(width.1, Expr::Number(2.0));
        assert_eq!(defaults.len(), 2);
        // Base-first ordering.
        assert_eq!(defaults[0].0, "width");
        assert_eq!(defaults[1].0, "height");
    }

    #[test]
    fn prelude_parses() {
        let p = parse(PRELUDE).unwrap();
        assert_eq!(p.statements.len(), 3);
    }

    #[test]
    fn self_dependency_extraction() {
        let program = parse(
            "class C:\n    heading: roadDirection at self.position\n    width: self.model.width\n",
        )
        .unwrap();
        let scenic_lang::StmtKind::ClassDef(cd) = &program.statements[0].kind else {
            panic!();
        };
        assert_eq!(self_dependencies(&cd.properties[0].1), vec!["position"]);
        assert_eq!(self_dependencies(&cd.properties[1].1), vec!["model"]);
    }

    #[test]
    fn self_dependency_in_sum() {
        let program =
            parse("class C:\n    heading: (roadDirection at self.position) + self.roadDeviation\n")
                .unwrap();
        let scenic_lang::StmtKind::ClassDef(cd) = &program.statements[0].kind else {
            panic!();
        };
        assert_eq!(
            self_dependencies(&cd.properties[0].1),
            vec!["position", "roadDeviation"]
        );
    }
}
