//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no network access, so this workspace ships a
//! minimal serialization framework under the `serde` name. It implements a
//! value-tree data model (`Value`) rather than serde's visitor machinery:
//! `Serialize` lowers a type to a [`Value`], `Deserialize` raises it back.
//! The `serde_json` stand-in then renders/parses `Value` as JSON.
//!
//! Supported surface (everything the slaq workspace uses):
//! `#[derive(Serialize, Deserialize)]` on named structs, tuple structs and
//! enums (unit / newtype / tuple / struct variants), `#[serde(transparent)]`,
//! `#[serde(default)]` / `#[serde(default = "path")]`,
//! primitives, `String`, `Option`, `Vec`, arrays-as-vecs, tuples up to 4,
//! and `BTreeMap` with integer-like or string keys.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;

/// A JSON-shaped value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Integral number (rendered without a decimal point).
    Int(i128),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

/// Deserialization error: a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

impl DeError {
    /// Build an error from anything displayable.
    pub fn msg(m: impl std::fmt::Display) -> Self {
        DeError(m.to_string())
    }
}

static NULL: Value = Value::Null;

/// Look up a key in an object value; missing keys read as `null` so that
/// `Option` fields tolerate omission (matching serde's common configs).
pub fn obj_get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, DeError> {
    match v {
        Value::Obj(pairs) => Ok(pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or(&NULL)),
        other => Err(DeError(format!("expected object, got {other:?}"))),
    }
}

/// The lookup behind `#[serde(default)]`: raise `key` of object `v`, or
/// take `fallback()` when the key is missing (real serde's rule). An
/// explicit `null` stays a value where the type accepts one (`Option`
/// fields keep round-tripping `None`) and counts as an omission
/// otherwise — this stand-in has always read the two alike.
pub fn field_or<T: Deserialize>(
    v: &Value,
    key: &str,
    fallback: impl FnOnce() -> T,
) -> Result<T, DeError> {
    match v {
        Value::Obj(pairs) => match pairs.iter().find(|(k, _)| k == key) {
            None => Ok(fallback()),
            Some((_, Value::Null)) => Ok(T::from_value(&NULL).unwrap_or_else(|_| fallback())),
            Some((_, present)) => T::from_value(present),
        },
        other => Err(DeError(format!("expected object, got {other:?}"))),
    }
}

/// Types that can lower themselves to a [`Value`].
pub trait Serialize {
    /// Lower to a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be raised back from a [`Value`].
pub trait Deserialize: Sized {
    /// Raise from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

// `Value` round-trips through itself, so callers can parse arbitrary
// JSON (e.g. a generated trace file) into the value tree and inspect it
// structurally without declaring a matching type.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| DeError(format!("{i} out of range for {}", stringify!($t)))),
                    other => Err(DeError(format!(
                        "expected integer for {}, got {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

int_impl!(i8, i16, i32, i64, i128, u8, u16, u32, u64, usize, isize);

impl Serialize for u128 {
    fn to_value(&self) -> Value {
        // i128 covers every value this workspace serializes (wall-clock
        // micros, counters); saturate rather than panic on the rest.
        Value::Int((*self).min(i128::MAX as u128) as i128)
    }
}

impl Deserialize for u128 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Int(i) if *i >= 0 => Ok(*i as u128),
            other => Err(DeError(format!("expected unsigned integer, got {other:?}"))),
        }
    }
}

macro_rules! float_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    other => Err(DeError(format!("expected number, got {other:?}"))),
                }
            }
        }
    )*};
}

float_impl!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! tuple_impl {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Arr(items) => {
                        let mut it = items.iter();
                        Ok(($({
                            let _ = $n; // positional
                            $t::from_value(
                                it.next().ok_or_else(|| DeError("tuple too short".into()))?,
                            )?
                        },)+))
                    }
                    other => Err(DeError(format!("expected tuple array, got {other:?}"))),
                }
            }
        }
    )*};
}

tuple_impl! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Render a map key: JSON object keys must be strings, so integer-like
/// keys (ids with `#[serde(transparent)]`) are stringified.
fn key_to_string(v: &Value) -> Result<String, DeError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        Value::Int(i) => Ok(i.to_string()),
        other => Err(DeError(format!("unsupported map key {other:?}"))),
    }
}

fn key_from_string<K: Deserialize>(s: &str) -> Result<K, DeError> {
    if let Ok(i) = s.parse::<i128>() {
        if let Ok(k) = K::from_value(&Value::Int(i)) {
            return Ok(k);
        }
    }
    K::from_value(&Value::Str(s.to_string()))
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(k, v)| {
                    (
                        key_to_string(&k.to_value()).expect("map key must be string-like"),
                        v.to_value(),
                    )
                })
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((key_from_string::<K>(k)?, V::from_value(v)?)))
                .collect(),
            other => Err(DeError(format!("expected object, got {other:?}"))),
        }
    }
}
