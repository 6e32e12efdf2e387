//! Offline stand-in for `serde` 1.
//!
//! See `../rand/src/lib.rs` for why these stand-ins exist. This one keeps
//! the two trait names and the derive, but not serde's visitor data model:
//! a type serializes *to* and deserializes *from* a JSON [`Value`] tree.
//! The encoding follows serde's defaults (structs as objects, newtypes
//! transparent, enums externally tagged, `Option` as null-or-value), so
//! text written here reads like real `serde_json` output, and integers and
//! floats round-trip exactly — the fleet protocol ships a `ScenarioConfig`
//! as JSON and verifies a digest of it on the far side.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// A JSON document. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

/// The read accessors of `serde_json::Value` that the workspace uses.
impl Value {
    /// The member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            _ => None,
        }
    }
    /// The number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }
    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
    /// The members in insertion order, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// `null` when the member is absent, as in `serde_json`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

macro_rules! eq_ints {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                match self {
                    Value::U64(n) => i128::from(*n) == *other as i128,
                    Value::I64(n) => i128::from(*n) == *other as i128,
                    _ => false,
                }
            }
        }
    )*};
}
eq_ints!(u32, u64, usize);

/// A (de)serialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can be turned into a [`Value`].
pub trait Serialize {
    /// The value tree for `self`.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self`, or says what did not fit.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// What a struct field of this type becomes when its key is absent
    /// (`Option` fields default to `None`, as in serde).
    fn missing(field: &str) -> Result<Self, Error> {
        Err(Error(format!("missing field `{field}`")))
    }
}

/// Mirror of `serde::de`.
pub mod de {
    /// Owned deserialization; every stand-in `Deserialize` is owned.
    pub trait DeserializeOwned: super::Deserialize {}
    impl<T: super::Deserialize> DeserializeOwned for T {}
}

/// Support code the derive expands to; not part of the stand-in's API.
#[doc(hidden)]
pub mod __private {
    use super::{Deserialize, Error, Value};

    pub fn field<T: Deserialize>(v: &Value, ty: &str, name: &str) -> Result<T, Error> {
        match v {
            Value::Object(_) => match v.get(name) {
                Some(inner) => {
                    T::from_value(inner).map_err(|e| Error(format!("{ty}.{name}: {}", e.0)))
                }
                None => T::missing(name),
            },
            other => Err(Error(format!("{ty}: expected an object, found {other:?}"))),
        }
    }

    pub fn element<T: Deserialize>(
        v: &Value,
        ty: &str,
        index: usize,
        len: usize,
    ) -> Result<T, Error> {
        match v {
            Value::Array(items) if items.len() == len => {
                T::from_value(&items[index]).map_err(|e| Error(format!("{ty}.{index}: {}", e.0)))
            }
            other => Err(Error(format!("{ty}: expected an array of {len}, found {other:?}"))),
        }
    }

    /// Splits an externally tagged enum value into `(variant, payload)`.
    pub fn variant<'a>(v: &'a Value, ty: &str) -> Result<(&'a str, Option<&'a Value>), Error> {
        match v {
            Value::String(name) => Ok((name, None)),
            Value::Object(entries) if entries.len() == 1 => {
                Ok((entries[0].0.as_str(), Some(&entries[0].1)))
            }
            other => Err(Error(format!("{ty}: expected a variant, found {other:?}"))),
        }
    }

    pub fn payload<'a>(p: Option<&'a Value>, ty: &str, variant: &str) -> Result<&'a Value, Error> {
        p.ok_or_else(|| Error(format!("{ty}::{variant}: variant needs a payload")))
    }

    pub fn unknown_variant<T>(ty: &str, name: &str) -> Result<T, Error> {
        Err(Error(format!("{ty}: unknown variant `{name}`")))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected a bool, found {other:?}"))),
        }
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error(format!("{n} does not fit {}", stringify!($t)))),
                    other => Err(Error(format!(
                        "expected {}, found {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

impl Serialize for u128 {
    fn to_value(&self) -> Value {
        match u64::try_from(*self) {
            Ok(n) => Value::U64(n),
            Err(_) => Value::String(self.to_string()),
        }
    }
}

impl Deserialize for u128 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::U64(n) => Ok(u128::from(*n)),
            Value::String(s) => s.parse().map_err(|_| Error(format!("`{s}` is not a u128"))),
            other => Err(Error(format!("expected u128, found {other:?}"))),
        }
    }
}

macro_rules! floats {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                // JSON has no NaN or infinity; serde_json writes null.
                if self.is_finite() { Value::F64(f64::from(*self)) } else { Value::Null }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::F64(x) => Ok(*x as $t),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => Ok(*n as $t),
                    other => Err(Error(format!(
                        "expected {}, found {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}
floats!(f64);

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error(format!("expected a string, found {other:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn missing(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected an array, found {other:?}"))),
        }
    }
}

macro_rules! tuples {
    ($(($len:expr; $($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                Ok(($(__private::element::<$name>(v, "tuple", $idx, $len)?,)+))
            }
        }
    )*};
}
tuples! {
    (2; A 0, B 1)
}
