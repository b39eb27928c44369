//! Scenes: the output of a Scenic program.
//!
//! §5.1: "The output of a Scenic program is a scene consisting of the
//! assignment to all the properties of each `Object` defined in the
//! scenario, plus any global parameters defined with `param`." Scenes
//! serialize to JSON — this is the interface layer format consumed by the
//! simulator crates.

use crate::cache::{fnv1a, FNV_OFFSET};
use crate::object::ObjRef;
use crate::value::Value;
use scenic_geom::{Heading, OrientedBox, Vec2};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A property value in serialized form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum PropValue {
    /// Null / `None`.
    Null(Option<()>),
    /// Boolean.
    Bool(bool),
    /// Scalar.
    Number(f64),
    /// String.
    Str(String),
    /// Vector `[x, y]`.
    Vector([f64; 2]),
    /// List of values.
    List(Vec<PropValue>),
    /// String-keyed map (non-string keys are stringified).
    Map(BTreeMap<String, PropValue>),
}

impl PropValue {
    /// Converts a runtime value; opaque values (regions, fields,
    /// functions, classes) become descriptive strings, object references
    /// become their positions.
    pub fn from_value(v: &Value) -> PropValue {
        match v.unwrap_sample() {
            Value::None => PropValue::Null(None),
            Value::Bool(b) => PropValue::Bool(*b),
            Value::Number(n) => PropValue::Number(*n),
            Value::Str(s) => PropValue::Str(s.to_string()),
            Value::Vector(v) => PropValue::Vector([v.x, v.y]),
            Value::List(items) => {
                PropValue::List(items.iter().map(PropValue::from_value).collect())
            }
            Value::Dict(d) => PropValue::Map(
                d.borrow()
                    .iter()
                    .map(|(k, v)| (k.to_string(), PropValue::from_value(v)))
                    .collect(),
            ),
            Value::Object(o) => {
                let pos = o.borrow().position().unwrap_or(Vec2::ZERO);
                PropValue::Vector([pos.x, pos.y])
            }
            other => PropValue::Str(format!("<{}>", other.type_name())),
        }
    }

    /// Scalar accessor.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            PropValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PropValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One physical object in a scene.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SceneObject {
    /// Creation index within the scenario run.
    pub id: usize,
    /// Most-derived class name.
    pub class: String,
    /// Whether this object is the ego.
    pub is_ego: bool,
    /// Position in global coordinates (meters).
    pub position: [f64; 2],
    /// Heading in radians (anticlockwise from North).
    pub heading: f64,
    /// Bounding-box width (meters).
    pub width: f64,
    /// Bounding-box height (meters).
    pub height: f64,
    /// All remaining properties.
    pub properties: BTreeMap<String, PropValue>,
}

impl SceneObject {
    /// Builds from a runtime object.
    pub fn from_object(obj: &ObjRef, is_ego: bool) -> Self {
        let data = obj.borrow();
        let position = data.position().unwrap_or(Vec2::ZERO);
        let mut properties = BTreeMap::new();
        for (k, v) in &data.properties {
            if k == "position" || k == "heading" || k == "width" || k == "height" {
                continue;
            }
            properties.insert(k.clone(), PropValue::from_value(v));
        }
        SceneObject {
            id: data.id,
            class: data.class_name.clone(),
            is_ego,
            position: [position.x, position.y],
            heading: data.heading().unwrap_or(0.0),
            width: data.scalar_or("width", 1.0),
            height: data.scalar_or("height", 1.0),
            properties,
        }
    }

    /// Position as a vector.
    pub fn position_vec(&self) -> Vec2 {
        Vec2::new(self.position[0], self.position[1])
    }

    /// Bounding box of the object.
    pub fn bounding_box(&self) -> OrientedBox {
        OrientedBox::new(
            self.position_vec(),
            Heading(self.heading),
            self.width,
            self.height,
        )
    }

    /// Named property accessor.
    pub fn property(&self, name: &str) -> Option<&PropValue> {
        self.properties.get(name)
    }
}

/// A generated scene.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scene {
    /// Global parameters (`param` statements), e.g. `time`, `weather`.
    pub params: BTreeMap<String, PropValue>,
    /// All physical objects, in creation order; the ego is flagged.
    pub objects: Vec<SceneObject>,
}

impl Scene {
    /// The ego object.
    ///
    /// # Panics
    ///
    /// Never panics for scenes produced by the sampler (ego is a default
    /// requirement); panics for hand-built scenes without an ego.
    pub fn ego(&self) -> &SceneObject {
        self.objects
            .iter()
            .find(|o| o.is_ego)
            .expect("scene has an ego object")
    }

    /// Objects other than the ego.
    pub fn non_ego_objects(&self) -> impl Iterator<Item = &SceneObject> {
        self.objects.iter().filter(|o| !o.is_ego)
    }

    /// A named global parameter.
    pub fn param(&self, name: &str) -> Option<&PropValue> {
        self.params.get(name)
    }

    /// Serializes to JSON (the simulator interface format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scene serializes")
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error message on malformed
    /// input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

/// FNV-1a (64-bit) over the scene's canonical JSON — the digest family
/// `tests/determinism.rs` pins and the store ledger records. Stable
/// across platforms and worker counts; any change here is a breaking
/// change to the determinism contract.
#[must_use]
pub fn scene_digest(scene: &Scene) -> u64 {
    fnv1a(FNV_OFFSET, scene.to_json().as_bytes())
}

/// FNV-1a over the concatenated canonical JSON of a whole batch, in
/// scene order. Equals [`scene_digest`] folded across the batch, so it
/// is invariant under `--jobs` (batch order is pinned by scene index).
#[must_use]
pub fn batch_digest(scenes: &[Scene]) -> u64 {
    scenes.iter().fold(FNV_OFFSET, |hash, scene| {
        fnv1a(hash, scene.to_json().as_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_scene() -> Scene {
        let mut params = BTreeMap::new();
        params.insert("time".into(), PropValue::Number(720.0));
        params.insert("weather".into(), PropValue::Str("RAIN".into()));
        Scene {
            params,
            objects: vec![
                SceneObject {
                    id: 0,
                    class: "Car".into(),
                    is_ego: true,
                    position: [0.0, 0.0],
                    heading: 0.0,
                    width: 2.0,
                    height: 4.5,
                    properties: BTreeMap::new(),
                },
                SceneObject {
                    id: 1,
                    class: "Car".into(),
                    is_ego: false,
                    position: [1.0, 20.0],
                    heading: 0.1,
                    width: 2.0,
                    height: 4.5,
                    properties: BTreeMap::new(),
                },
            ],
        }
    }

    #[test]
    fn ego_lookup() {
        let s = demo_scene();
        assert_eq!(s.ego().id, 0);
        assert_eq!(s.non_ego_objects().count(), 1);
    }

    #[test]
    fn json_round_trip() {
        let s = demo_scene();
        let json = s.to_json();
        let back = Scene::from_json(&json).unwrap();
        assert_eq!(back.objects.len(), 2);
        assert_eq!(back.param("weather").unwrap().as_str(), Some("RAIN"));
        assert_eq!(back.ego().position, [0.0, 0.0]);
    }

    #[test]
    fn bounding_box_derived() {
        let s = demo_scene();
        let bb = s.objects[1].bounding_box();
        assert_eq!(bb.center, Vec2::new(1.0, 20.0));
        assert_eq!(bb.height, 4.5);
    }

    #[test]
    fn prop_value_conversion() {
        assert_eq!(
            PropValue::from_value(&Value::Number(2.0)).as_number(),
            Some(2.0)
        );
        assert_eq!(
            PropValue::from_value(&Value::Vector(Vec2::new(1.0, 2.0))),
            PropValue::Vector([1.0, 2.0])
        );
        assert_eq!(PropValue::from_value(&Value::None), PropValue::Null(None));
    }
}
