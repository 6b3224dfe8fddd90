//! Offline stand-in for `serde`.
//!
//! Instead of serde's visitor-based data model, values serialize into a
//! small [`Content`] tree that `serde_json` (the companion stand-in)
//! renders and parses.  The derive macros from `serde_derive` are
//! re-exported so `#[derive(Serialize, Deserialize)]` and
//! `use serde::{Serialize, Deserialize}` work exactly as with upstream.

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model all values pass through.
#[derive(Clone, Debug, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    /// Field order is preserved (insertion order), unlike a map type.
    Map(Vec<(String, Content)>),
}

/// Deserialization error: a human-readable message.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialize error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// A type that can render itself into the [`Content`] data model.
pub trait Serialize {
    /// Convert `self` into a content tree.
    fn to_content(&self) -> Content;

    /// The tree a writer renders.  The default builds one; [`Content`]
    /// lends itself instead of copying node by node.
    fn as_content(&self) -> std::borrow::Cow<'_, Content> {
        std::borrow::Cow::Owned(self.to_content())
    }
}

/// A type reconstructible from the [`Content`] data model.
pub trait Deserialize: Sized {
    /// Build `Self` from a content tree.
    fn from_content(c: &Content) -> Result<Self, DeError>;

    /// Build `Self` from a tree the caller is done with (a parser's
    /// output).  The default borrows; [`Content`] keeps the tree instead
    /// of copying it node by node.
    fn from_owned_content(c: Content) -> Result<Self, DeError> {
        Self::from_content(&c)
    }
}

/// Look up `name` in a [`Content::Map`] and deserialize it.
///
/// Used by the generated `Deserialize` impls; missing fields are an
/// error (the stand-in has no `#[serde(default)]`).
pub fn get_field<T: Deserialize>(c: &Content, name: &str) -> Result<T, DeError> {
    match c {
        Content::Map(entries) => match entries.iter().find(|(k, _)| k == name) {
            Some((_, v)) => T::from_content(v),
            None => Err(DeError(format!("missing field `{name}`"))),
        },
        other => Err(DeError(format!(
            "expected map with field `{name}`, found {other:?}"
        ))),
    }
}

fn expect_u64(c: &Content) -> Result<u64, DeError> {
    match c {
        Content::U64(v) => Ok(*v),
        Content::I64(v) if *v >= 0 => Ok(*v as u64),
        Content::F64(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= u64::MAX as f64 => Ok(*v as u64),
        other => Err(DeError(format!(
            "expected unsigned integer, found {other:?}"
        ))),
    }
}

fn expect_i64(c: &Content) -> Result<i64, DeError> {
    match c {
        Content::I64(v) => Ok(*v),
        Content::U64(v) if *v <= i64::MAX as u64 => Ok(*v as i64),
        Content::F64(v) if v.fract() == 0.0 => Ok(*v as i64),
        other => Err(DeError(format!("expected integer, found {other:?}"))),
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v = expect_u64(c)?;
                <$t>::try_from(v).map_err(|_| {
                    DeError(format!("{v} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v = expect_i64(c)?;
                <$t>::try_from(v).map_err(|_| {
                    DeError(format!("{v} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::F64(v) => Ok(*v),
            Content::U64(v) => Ok(*v as f64),
            Content::I64(v) => Ok(*v as f64),
            other => Err(DeError(format!("expected number, found {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        f64::from_content(c).map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Bool(v) => Ok(*v),
            other => Err(DeError(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            other => Err(DeError(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(DeError(format!("expected array, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

// `Content` round-trips as itself, so protocol code can parse a message
// into a raw tree, dispatch on one field, and deserialize the rest
// leniently (schemaless fields, optional keys).
impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }

    fn as_content(&self) -> std::borrow::Cow<'_, Content> {
        std::borrow::Cow::Borrowed(self)
    }
}

impl Deserialize for Content {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(c.clone())
    }

    fn from_owned_content(c: Content) -> Result<Self, DeError> {
        Ok(c)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                match c {
                    Content::Seq(items) => {
                        let mut it = items.iter();
                        let out = ($(
                            $name::from_content(it.next().ok_or_else(|| {
                                DeError("tuple too short".into())
                            })?)?,
                        )+);
                        if it.next().is_some() {
                            return Err(DeError("tuple too long".into()));
                        }
                        Ok(out)
                    }
                    other => Err(DeError(format!("expected array, found {other:?}"))),
                }
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_content(&42u64.to_content()).unwrap(), 42);
        assert_eq!(i32::from_content(&(-3i32).to_content()).unwrap(), -3);
        assert_eq!(f64::from_content(&1.5f64.to_content()).unwrap(), 1.5);
        assert!(bool::from_content(&true.to_content()).unwrap());
        let s = "hi".to_string();
        assert_eq!(String::from_content(&s.to_content()).unwrap(), "hi");
    }

    #[test]
    fn integers_cross_deserialize() {
        // JSON parsing yields U64 for non-negative literals; signed targets
        // must accept that.
        assert_eq!(i32::from_content(&Content::U64(7)).unwrap(), 7);
        assert_eq!(u64::from_content(&Content::I64(7)).unwrap(), 7);
        assert!(u64::from_content(&Content::I64(-1)).is_err());
    }

    #[test]
    fn vec_option_tuple_round_trip() {
        let v = vec![(1u64, 2.5f64), (3, 4.5)];
        let c = v.to_content();
        assert_eq!(Vec::<(u64, f64)>::from_content(&c).unwrap(), v);
        let o: Option<u64> = None;
        assert_eq!(Option::<u64>::from_content(&o.to_content()).unwrap(), None);
        assert_eq!(
            Option::<u64>::from_content(&Some(9u64).to_content()).unwrap(),
            Some(9)
        );
    }

    #[test]
    fn missing_field_is_an_error() {
        let m = Content::Map(vec![("a".into(), Content::U64(1))]);
        assert_eq!(get_field::<u64>(&m, "a").unwrap(), 1);
        assert!(get_field::<u64>(&m, "b").is_err());
    }
}
