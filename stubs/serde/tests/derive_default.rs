//! `#[serde(default)]` / `#[serde(default = "path")]` in the stand-in
//! derive: real-serde syntax and semantics (missing keys take the
//! fallback), so the spec types that rely on it survive the crate swap.

use serde::{Deserialize, Serialize, Value};

fn obj(pairs: &[(&str, Value)]) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
struct Tuning {
    budget: usize,
    cap: Option<u32>,
    #[serde(default = "seven")]
    lanes: u32,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            budget: 8,
            cap: Some(3),
            lanes: 1,
        }
    }
}

fn seven() -> u32 {
    7
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Plane {
    Sync,
    Overlap {
        latency: u32,
        #[serde(default = "yes")]
        supersede: bool,
        #[serde(default)]
        bias: f64,
    },
}

fn yes() -> bool {
    true
}

#[test]
fn container_default_fills_missing_keys_from_the_structs_default() {
    // A field's own fallback (`lanes`) outranks the container's.
    let stock = Tuning {
        lanes: 7,
        ..Tuning::default()
    };
    assert_eq!(Tuning::from_value(&obj(&[])).unwrap(), stock);
    let some = obj(&[("budget", Value::Int(2)), ("lanes", Value::Int(4))]);
    let want = Tuning {
        budget: 2,
        lanes: 4,
        ..stock
    };
    assert_eq!(Tuning::from_value(&some).unwrap(), want);
    // An explicit null is a value where the type can hold one: it must
    // not become the default `Some(3)` (or `None` could never
    // round-trip). Where it cannot, it reads as an omission.
    let nulled = Tuning { cap: None, ..want };
    assert_eq!(Tuning::from_value(&nulled.to_value()).unwrap(), nulled);
    let nulls = obj(&[("budget", Value::Null), ("lanes", Value::Null)]);
    assert_eq!(Tuning::from_value(&nulls).unwrap(), stock);
    // A present key of the wrong type still errors, as does a non-object.
    assert!(Tuning::from_value(&obj(&[("budget", Value::Bool(true))])).is_err());
    assert!(Tuning::from_value(&Value::Int(1)).is_err());
}

#[test]
fn field_defaults_work_inside_an_enum_struct_variant() {
    let v = obj(&[("Overlap", obj(&[("latency", Value::Int(1))]))]);
    let want = Plane::Overlap {
        latency: 1,
        supersede: true, // default = "path"
        bias: 0.0,       // default
    };
    assert_eq!(Plane::from_value(&v).unwrap(), want);
    let full = Plane::Overlap {
        latency: 2,
        supersede: false,
        bias: 1.5,
    };
    assert_eq!(Plane::from_value(&full.to_value()).unwrap(), full);
    assert_eq!(
        Plane::from_value(&Value::Str("Sync".into())).unwrap(),
        Plane::Sync
    );
    // `latency` carries no default: still required.
    assert!(Plane::from_value(&obj(&[("Overlap", obj(&[]))])).is_err());
}

#[test]
fn unknown_variant_still_errors() {
    let e = Plane::from_value(&Value::Str("Async".into())).unwrap_err();
    assert!(e.to_string().contains("unknown variant Async"), "{e}");
    let e = Plane::from_value(&obj(&[("Sticky", obj(&[]))])).unwrap_err();
    assert!(e.to_string().contains("unknown variant Sticky"), "{e}");
}
