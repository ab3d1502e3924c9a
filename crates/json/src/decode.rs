//! Typed decoding: [`FromJson`], the inverse of [`ToJson`](crate::ToJson).
//!
//! Every decoder in the workspace reports failures as one [`DecodeError`]
//! whose `path` names the offending key, outermost first
//! (`core.mem.l1d.ways`), so a rejected store payload or request says
//! exactly which field was wrong.

use crate::Json;
use std::collections::BTreeMap;

/// JSON that does not describe the typed value it was decoded as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Dotted path of the offending key (array elements by index); empty
    /// when the value itself was wrong.
    pub path: String,
    pub message: String,
}

impl DecodeError {
    pub fn new(message: impl Into<String>) -> DecodeError {
        DecodeError {
            path: String::new(),
            message: message.into(),
        }
    }

    /// A value of the wrong JSON kind: `want` names what was expected.
    pub fn expected(want: &str, got: &Json) -> DecodeError {
        let kind = match got {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::U64(_) | Json::I64(_) | Json::F64(_) => "a number",
            Json::Str(_) => "a string",
            Json::Array(_) => "an array",
            Json::Object(_) => "an object",
        };
        DecodeError::new(format!("expected {want}, got {kind}"))
    }

    /// A value outside a `json_enum!` table of `names`.
    pub fn unknown(got: &Json, names: &[&str]) -> DecodeError {
        match got.as_str() {
            Some(s) => DecodeError::new(format!(
                "unknown value '{s}' (expected one of: {})",
                names.join(", ")
            )),
            None => DecodeError::expected("a string", got),
        }
    }

    /// Prefixes `key` onto the path as the error leaves a field.
    pub fn at(mut self, key: &str) -> DecodeError {
        self.path = if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{key}.{}", self.path)
        };
        self
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            write!(f, "malformed JSON: {}", self.message)
        } else {
            write!(f, "malformed JSON at '{}': {}", self.path, self.message)
        }
    }
}

impl std::error::Error for DecodeError {}

/// Conversion from a [`Json`] value — the crate's stand-in for
/// `serde::Deserialize`. For every type with both impls,
/// `T::from_json(&t.to_json())` reproduces `t`, so re-encoding a decoded
/// value yields the original bytes.
pub trait FromJson: Sized {
    fn from_json(j: &Json) -> Result<Self, DecodeError>;
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<bool, DecodeError> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => Err(DecodeError::expected("a boolean", other)),
        }
    }
}

macro_rules! decode_unsigned {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<$t, DecodeError> {
                let n = j
                    .as_u64()
                    .ok_or_else(|| DecodeError::expected("an unsigned integer", j))?;
                <$t>::try_from(n)
                    .map_err(|_| DecodeError::new(format!("{n} exceeds {}", stringify!($t))))
            }
        }
    )*};
}
decode_unsigned!(u8, u16, u32, u64, usize);

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<f64, DecodeError> {
        j.as_f64()
            .ok_or_else(|| DecodeError::expected("a number", j))
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<String, DecodeError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| DecodeError::expected("a string", j))
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Vec<T>, DecodeError> {
        let items = j
            .as_array()
            .ok_or_else(|| DecodeError::expected("an array", j))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.at(&i.to_string())))
            .collect()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(j: &Json) -> Result<[T; N], DecodeError> {
        Vec::<T>::from_json(j)?.try_into().map_err(|v: Vec<T>| {
            DecodeError::new(format!("expected {N} elements, got {}", v.len()))
        })
    }
}

/// `null` decodes to `None`, anything else to `Some`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Option<T>, DecodeError> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Keyed access to the fields of one object being decoded.
pub struct Fields<'a> {
    pairs: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    /// The fields of `j`, which must be an object.
    pub fn of(j: &'a Json) -> Result<Fields<'a>, DecodeError> {
        match j {
            Json::Object(pairs) => Ok(Fields { pairs }),
            other => Err(DecodeError::expected("an object", other)),
        }
    }

    /// Every `(key, value)` pair, for objects with an open key set.
    pub fn pairs(&self) -> &'a [(String, Json)] {
        self.pairs
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Decodes the required `key` with `decode`.
    pub fn with<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Json) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let v = self
            .get(key)
            .ok_or_else(|| DecodeError::new("missing key").at(key))?;
        decode(v).map_err(|e| e.at(key))
    }

    /// Decodes the required `key`.
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T, DecodeError> {
        self.with(key, T::from_json)
    }

    /// Decodes a key that is omitted when `None`: absent (or `null`) is
    /// `None`.
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, DecodeError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => Option::<T>::from_json(v).map_err(|e| e.at(key)),
        }
    }
}

/// `with` codec (see [`json_struct!`](crate::json_struct)) for an open set
/// of named values kept as `Vec<(String, T)>`: one object whose keys keep
/// the vector's order.
pub mod entries {
    use super::{DecodeError, FromJson, Json};
    use crate::ToJson;

    pub fn to_json<T: ToJson>(entries: &[(String, T)]) -> Json {
        Json::obj(entries.iter().map(|(k, v)| (k.clone(), v.to_json())))
    }

    pub fn from_json<T: FromJson>(j: &Json) -> Result<Vec<(String, T)>, DecodeError> {
        super::Fields::of(j)?
            .pairs()
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_json(v).map_err(|e| e.at(k))?)))
            .collect()
    }
}

/// `with` codec for per-load-PC maps: an array, in PC order, of each
/// value's object with a leading `"pc"` key.
pub mod pc_map {
    use super::{BTreeMap, DecodeError, FromJson, Json};
    use crate::ToJson;

    pub fn to_json<T: ToJson>(map: &BTreeMap<u64, T>) -> Json {
        Json::Array(
            map.iter()
                .map(|(pc, v)| {
                    let mut obj = vec![("pc".to_string(), pc.to_json())];
                    if let Json::Object(fields) = v.to_json() {
                        obj.extend(fields);
                    }
                    Json::Object(obj)
                })
                .collect(),
        )
    }

    pub fn from_json<T: FromJson>(j: &Json) -> Result<BTreeMap<u64, T>, DecodeError> {
        let entries = j
            .as_array()
            .ok_or_else(|| DecodeError::expected("an array", j))?;
        entries
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let decode = || Ok((super::Fields::of(entry)?.req("pc")?, T::from_json(entry)?));
                decode().map_err(|e: DecodeError| e.at(&i.to_string()))
            })
            .collect()
    }
}

/// Declares a struct's JSON format once, generating [`ToJson`](crate::ToJson)
/// and [`FromJson`] from one field list. Each key is the field's name and
/// keys are written in list order. A field is one of:
///
/// - `name` — a required key, encoded by the field type's own codec;
/// - `?name` — an `Option` whose key is omitted when `None` and which
///   decodes to `None` when the key is absent;
/// - `name with path` — a field encoded by `path::to_json(&field)` and
///   decoded by `path::from_json(&Json)`, for shapes that are not a plain
///   value (keyed arrays, open maps, types from crates without JSON).
///
/// ```
/// use lvp_json::{json_struct, FromJson, Json, ToJson};
/// #[derive(Debug, PartialEq)]
/// struct Run { cycles: u64, label: String, sample: Option<u64> }
/// json_struct!(Run { cycles, label, ?sample });
/// let r = Run { cycles: 7, label: "x".into(), sample: None };
/// assert_eq!(r.to_json().compact(), r#"{"cycles":7,"label":"x"}"#);
/// assert_eq!(Run::from_json(&r.to_json()).unwrap(), r);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($fields:tt)* }) => {
        impl $crate::ToJson for $ty {
            // One push per listed field, expanded by the munching arms below.
            #[allow(clippy::vec_init_then_push)]
            fn to_json(&self) -> $crate::Json {
                let mut pairs: ::std::vec::Vec<(::std::string::String, $crate::Json)> =
                    ::std::vec::Vec::new();
                $crate::json_struct!(@encode self pairs $($fields)*);
                $crate::Json::Object(pairs)
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(j: &$crate::Json) -> ::std::result::Result<$ty, $crate::DecodeError> {
                let fields = $crate::Fields::of(j)?;
                $crate::json_struct!(@decode fields $ty [] $($fields)*)
            }
        }
    };

    (@encode $s:ident $p:ident) => {};
    (@encode $s:ident $p:ident ? $f:ident $(, $($rest:tt)*)?) => {
        if let ::std::option::Option::Some(v) = &$s.$f {
            $p.push((stringify!($f).to_string(), $crate::ToJson::to_json(v)));
        }
        $crate::json_struct!(@encode $s $p $($($rest)*)?);
    };
    (@encode $s:ident $p:ident $f:ident with $($w:ident)::+ $(, $($rest:tt)*)?) => {
        $p.push((stringify!($f).to_string(), $($w)::+::to_json(&$s.$f)));
        $crate::json_struct!(@encode $s $p $($($rest)*)?);
    };
    (@encode $s:ident $p:ident $f:ident $(, $($rest:tt)*)?) => {
        $p.push((stringify!($f).to_string(), $crate::ToJson::to_json(&$s.$f)));
        $crate::json_struct!(@encode $s $p $($($rest)*)?);
    };

    (@decode $r:ident $ty:ident [$($done:tt)*]) => {
        ::std::result::Result::Ok($ty { $($done)* })
    };
    (@decode $r:ident $ty:ident [$($done:tt)*] ? $f:ident $(, $($rest:tt)*)?) => {
        $crate::json_struct!(@decode $r $ty [$($done)* $f: $r.opt(stringify!($f))?,]
            $($($rest)*)?)
    };
    (@decode $r:ident $ty:ident [$($done:tt)*] $f:ident with $($w:ident)::+
        $(, $($rest:tt)*)?) => {
        $crate::json_struct!(@decode $r $ty
            [$($done)* $f: $r.with(stringify!($f), $($w)::+::from_json)?,] $($($rest)*)?)
    };
    (@decode $r:ident $ty:ident [$($done:tt)*] $f:ident $(, $($rest:tt)*)?) => {
        $crate::json_struct!(@decode $r $ty [$($done)* $f: $r.req(stringify!($f))?,]
            $($($rest)*)?)
    };
}

/// Declares a unit enum's JSON format once: each variant is the string
/// listed for it, generating [`ToJson`](crate::ToJson) and [`FromJson`].
///
/// ```
/// use lvp_json::{json_enum, FromJson, Json, ToJson};
/// #[derive(Debug, PartialEq)]
/// enum Mode { Flush, Replay }
/// json_enum!(Mode { Flush => "flush", Replay => "replay" });
/// assert_eq!(Mode::Replay.to_json(), Json::Str("replay".into()));
/// assert!(Mode::from_json(&Json::Str("other".into())).is_err());
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident => $name:literal),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Str(match self { $($ty::$variant => $name,)* }.to_string())
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(j: &$crate::Json) -> ::std::result::Result<$ty, $crate::DecodeError> {
                match j.as_str() {
                    $(::std::option::Option::Some($name) => ::std::result::Result::Ok($ty::$variant),)*
                    _ => ::std::result::Result::Err($crate::DecodeError::unknown(j, &[$($name),*])),
                }
            }
        }
    };
}
