//! Minimal recursive-descent JSON parser and the one JSON writer of the
//! workspace (the vendored serde is a no-op stand-in). [`validate`]
//! checks well-formedness; [`parse`] additionally builds a [`Value`] tree
//! for `compare-bench`; [`escape`] and [`escape_into`] encode a Rust
//! string for embedding in JSON text.
//!
//! Every report, reply and spec line is a [`Json`] tree written by one of
//! two functions with no options: [`document`] lays out a file, a member
//! a line and the objects of a member's array a line each, and [`line()`]
//! writes the same value as one compact protocol line. Keys and strings
//! go through [`escape_into`]; numbers are written as the caller formats
//! them. Two writers stay outside it on purpose: the checkpoint encoder
//! (`vc-engine`) and vc-serve's `result` reply, which escapes its payload
//! straight into one exact-size line.
//!
//! Strings move run by run: the decoder allocates each string once, at
//! its escaped length, and both directions copy the runs of bytes between
//! escapes in one step. A caller wrapping an escaped string in fixed text
//! sizes its buffer with [`escaped_len`]. Per RFC 8259 §7 a `\u` escape
//! takes exactly four hex digits, and a raw control byte in a string is
//! refused; [`escape`] escapes every such byte. Arrays and objects nest at
//! most [`MAX_DEPTH`] deep: the parser recurses once per level, so a
//! deeper input is refused with an error rather than let it overflow the
//! stack of the thread parsing it.
//!
//! Columnar lines have a fast path both ways: [`parse_columns`] scans an
//! object whose arrays hold plain integers without building a [`Value`]
//! per number, and [`push_uint`] formats an integer without `write!`.
//!
//! This is a leaf crate on purpose: `vc-engine` decodes sweep checkpoint
//! files (`vc-engine-checkpoint/v4`) with it, and `xtask` both lints the
//! workspace *and* merges partial checkpoints through `vc-engine`, so the
//! shared codec must sit below both to keep the dependency graph acyclic.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// A parsed JSON value. Object keys keep document order. A plain
/// non-negative integer literal that fits a `u64` keeps its exact value
/// ([`Value::Int`]); every other number is an `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A plain non-negative integer literal (`42`), exact.
    Int(u64),
    /// Any other number: signed, fractional, exponent or beyond `u64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if any (an [`Value::Int`] rounds to nearest).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if any.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The exact value of a plain non-negative integer literal, the form
    /// every counter, id and seed the schemas emit takes. Fraction,
    /// exponent and signed forms (`42.0`, `1e3`, `-0`) and literals past
    /// `u64::MAX` are refused rather than rounded.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
}

/// Encodes `s` as the *contents* of a JSON string (no surrounding
/// quotes): the writer-side dual of the escape decoding in [`parse`].
pub fn escape(s: &str) -> String {
    let mut out = String::new();
    escape_into(&mut out, s);
    out
}

/// Appends [`escape`]`(s)` to `out`: reserves [`escaped_len`]`(s)` bytes
/// (a no-op when the caller sized `out` for them), then copies each run
/// of bytes that need no escape in one step.
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(escaped_len(s));
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(k) = bytes[run..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
    {
        // An escaped byte is ASCII, so both ends of the run are char
        // boundaries.
        let i = run + k;
        out.push_str(&s[run..i]);
        match bytes[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// The byte length of [`escape`]`(s)`. A caller embedding an escaped
/// string between fixed text sizes its buffer once with it.
pub fn escaped_len(s: &str) -> usize {
    // Summed in `u16` per 8 KiB chunk (at most 5 · 8192 < 2^16) so the
    // compiler vectorizes the count.
    let extra = |b: u8| match b {
        b'"' | b'\\' | b'\n' | b'\t' | b'\r' => 1,
        0..=0x1f => 5,
        _ => 0u16,
    };
    let chunks = s.as_bytes().chunks(8192);
    s.len()
        + chunks
            .map(|c| usize::from(c.iter().map(|&b| extra(b)).sum::<u16>()))
            .sum::<usize>()
}

/// A value for [`document`] or [`line()`] to write. Objects are built with
/// [`obj!`] (and grown with [`Json::with`]), arrays with [`Json::arr`];
/// strings convert into [`Json::Str`], integers and booleans into their
/// literal and `None` into `null`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// JSON text written as it is: a number in the caller's format, or a
    /// value that is already encoded.
    Raw(String),
    /// A string, escaped when written.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its members in order.
    Obj(Vec<(&'static str, Json)>),
}

/// A [`Json::Obj`] of `"key": value` members, in order, each value
/// converted by `Json::from`:
/// `obj! { "n": 3, "name": "x", "none": None::<u64> }`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($key, $crate::Json::from($value))),*])
    };
}

impl Json {
    /// This object with `key: value` appended (any other value is
    /// returned as it is).
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        if let Json::Obj(members) = &mut self {
            members.push((key, value.into()));
        }
        self
    }

    /// An array of `items`.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or_else(|| Json::Raw("null".to_string()), Into::into)
    }
}

/// `From` impls writing a value's `Display` text as a string or as raw
/// JSON.
macro_rules! from_display {
    ($variant:ident: $($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::$variant(v.to_string())
            }
        }
    )*};
}

from_display!(Str: &str, String, &String);
from_display!(Raw: bool, u32, u64, u128, usize);

/// Writes `value` as a file. Each member of a top-level object goes on
/// its own line, indented two spaces, and a member holding an array of
/// objects puts one object a line, indented four; everything deeper stays
/// inline, with `", "` and `": "`. The file ends with a newline.
pub fn document(value: &Json) -> String {
    let mut out = String::new();
    write(&mut out, value, Some(0));
    out.push('\n');
    out
}

/// Writes `value` as one protocol line: inline, with `","` and `":"`, and
/// no newline.
pub fn line(value: &Json) -> String {
    let mut out = String::new();
    write(&mut out, value, None);
    out
}

/// Appends `value`, which sits `depth` levels deep in a [`document`]
/// (`None` on a [`line`]).
fn write(out: &mut String, value: &Json, depth: Option<usize>) {
    match value {
        Json::Raw(text) => out.push_str(text),
        Json::Str(s) => quote(out, s),
        Json::Arr(items) => {
            let objects = !items.is_empty() && items.iter().all(|v| matches!(v, Json::Obj(_)));
            let lines = (objects && depth == Some(1)).then_some(("\n    ", "\n  "));
            let items = items.iter().map(|v| (None, v));
            seq(out, ['[', ']'], items, depth, lines);
        }
        Json::Obj(members) => {
            let lines = (depth == Some(0)).then_some(("\n  ", "\n"));
            let members = members.iter().map(|(k, v)| (Some(*k), v));
            seq(out, ['{', '}'], members, depth, lines);
        }
    }
}

/// Appends the items of an array or the members of an object. With
/// `lines`, each item follows a line break and its indent, and the
/// closing bracket follows the second string.
fn seq<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    depth: Option<usize>,
    lines: Option<(&str, &str)>,
) {
    let (comma, colon) = match (depth, lines) {
        (None, _) => (",", ":"),
        (Some(_), None) => (", ", ": "),
        (Some(_), Some(_)) => (",", ": "),
    };
    out.push(open);
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push_str(comma);
        }
        if let Some((indent, _)) = lines {
            out.push_str(indent);
        }
        if let Some(key) = key {
            quote(out, key);
            out.push_str(colon);
        }
        write(out, value, depth.map(|d| d + 1));
    }
    if let Some((_, end)) = lines {
        out.push_str(end);
    }
    out.push(close);
}

fn quote(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends the decimal digits of `n`.
pub fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        // A remainder below ten always fits.
        digits[at] = b'0' + u8::try_from(n % 10).unwrap_or(0);
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// A member value of a columnar line (see [`parse_columns`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    /// A string, number, boolean or `null`, as [`parse`] reads it.
    Scalar(Value),
    /// An array of plain non-negative integers and `null`s.
    Ints(Vec<Option<u64>>),
}

/// Parses one JSON object whose members are scalars or flat arrays of
/// integers, in document order, with no [`Value`] per array element.
///
/// # Errors
///
/// The first malformation, nested object, or array element that is not
/// `null` or a plain non-negative integer within `u64`: signs, fractions,
/// exponents and larger literals are refused, not rounded.
pub fn parse_columns(src: &str) -> Result<Vec<(String, Column)>, String> {
    whole(src, |src, i| match src.as_bytes().get(i) {
        Some(b'{') => members(src, i, column),
        _ => Err(format!("expected '{{' at byte {i}")),
    })
}

fn column(src: &str, i: usize) -> Parsed<Column> {
    match src.as_bytes().get(i) {
        Some(b'[') => items(src, i, int_or_null).map(|(v, n)| (Column::Ints(v), n)),
        Some(b'{') => Err(format!("nested object at byte {i}")),
        _ => value(src, i, 1).map(|(v, n)| (Column::Scalar(v), n)),
    }
}

fn int_or_null(src: &str, mut i: usize) -> Parsed<Option<u64>> {
    let (b, start) = (src.as_bytes(), i);
    match b.get(i) {
        Some(b'n') => literal(b, i, b"null").map(|n| (None, n)),
        Some(c) if c.is_ascii_digit() => {
            let mut n = 0u64;
            while let Some(&c) = b.get(i).filter(|c| c.is_ascii_digit()) {
                n = n
                    .checked_mul(10)
                    .and_then(|n| n.checked_add(u64::from(c - b'0')))
                    .ok_or_else(|| format!("integer past u64 at byte {start}"))?;
                i += 1;
            }
            match b.get(i) {
                Some(b'.' | b'e' | b'E') => Err(format!("non-integer number at byte {start}")),
                _ => Ok((Some(n), i)),
            }
        }
        Some(b'-') => Err(format!("signed number at byte {i}")),
        Some(c) => Err(format!("unexpected byte {c:#x} in integer array at {i}")),
        None => Err("unexpected end of input".to_string()),
    }
}

/// Checks that `src` is exactly one valid JSON value (with surrounding
/// whitespace allowed).
///
/// # Errors
///
/// A human-readable description of the first malformation.
pub fn validate(src: &str) -> Result<(), String> {
    parse(src).map(|_| ())
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so [`parse`] refuses a deeper container, naming its byte,
/// instead of overflowing the stack. The deepest document the workspace
/// writes, the Table 1 report, nests 9 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses `src` into a [`Value`]; rejects trailing data and nesting past
/// [`MAX_DEPTH`].
///
/// # Errors
///
/// A human-readable description of the first malformation.
pub fn parse(src: &str) -> Result<Value, String> {
    whole(src, |src, i| value(src, i, 0))
}

/// Reads one value with `read`, surrounded by whitespace only.
fn whole<V>(src: &str, read: impl Fn(&str, usize) -> Parsed<V>) -> Result<V, String> {
    let bytes = src.as_bytes();
    let (v, pos) = read(src, skip_ws(bytes, 0))?;
    let pos = skip_ws(bytes, pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// A value read from a document and the byte after it.
type Parsed<V> = Result<(V, usize), String>;

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

/// The value at byte `i`, inside `depth` open arrays and objects.
fn value(src: &str, i: usize, depth: usize) -> Parsed<Value> {
    let b = src.as_bytes();
    let inner = |src: &str, i| value(src, i, depth + 1);
    match b.get(i) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {i}"))
        }
        Some(b'{') => members(src, i, inner).map(|(m, n)| (Value::Obj(m), n)),
        Some(b'[') => items(src, i, inner).map(|(v, n)| (Value::Arr(v), n)),
        Some(b'"') => {
            let (s, next) = string(src, i)?;
            Ok((Value::Str(s), next))
        }
        Some(b't') => literal(b, i, b"true").map(|n| (Value::Bool(true), n)),
        Some(b'f') => literal(b, i, b"false").map(|n| (Value::Bool(false), n)),
        Some(b'n') => literal(b, i, b"null").map(|n| (Value::Null, n)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {c:#x} at {i}")),
        None => Err("unexpected end of input".to_string()),
    }
}

/// The members of the object whose `{` is at byte `i`, in order, each
/// value read by `read`.
fn members<V>(
    src: &str,
    mut i: usize,
    read: impl Fn(&str, usize) -> Parsed<V>,
) -> Parsed<Vec<(String, V)>> {
    let b = src.as_bytes();
    let mut members = Vec::new();
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b'}') {
        return Ok((members, i + 1));
    }
    loop {
        let (key, next) = string(src, skip_ws(b, i))?;
        i = skip_ws(b, next);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}"));
        }
        let (v, next) = read(src, skip_ws(b, i + 1))?;
        members.push((key, v));
        i = skip_ws(b, next);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Ok((members, i + 1)),
            _ => return Err(format!("expected ',' or '}}' at byte {i}")),
        }
    }
}

/// The items of the array whose `[` is at byte `i`, each read by `read`.
fn items<V>(src: &str, mut i: usize, read: impl Fn(&str, usize) -> Parsed<V>) -> Parsed<Vec<V>> {
    let b = src.as_bytes();
    let mut items = Vec::new();
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b']') {
        return Ok((items, i + 1));
    }
    loop {
        let (v, next) = read(src, skip_ws(b, i))?;
        items.push(v);
        i = skip_ws(b, next);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b']') => return Ok((items, i + 1)),
            _ => return Err(format!("expected ',' or ']' at byte {i}")),
        }
    }
}

/// Decodes the string whose opening quote is at byte `i`; returns it and
/// the byte after its closing quote.
fn string(src: &str, i: usize) -> Result<(String, usize), String> {
    let b = src.as_bytes();
    if b.get(i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    // The closing quote is the first `"` that does not follow a `\`
    // opening an escape.
    let mut end = i + 1;
    loop {
        match b.get(end) {
            Some(b'"') => break,
            Some(b'\\') => end += 2,
            Some(_) => end += 1,
            None => return Err(format!("unterminated string starting at byte {i}")),
        }
    }
    let mut out = String::with_capacity(end - i - 1);
    let mut j = i + 1;
    while j < end {
        // A run ends at an ASCII byte and starts after one (or after the
        // opening quote), so it is whole characters of `src`.
        let run = b[j..end]
            .iter()
            .position(|&c| c == b'\\' || c < 0x20)
            .map_or(end, |k| j + k);
        out.push_str(&src[j..run]);
        j = run;
        if j == end {
            break;
        }
        let c = b[j];
        if c != b'\\' {
            return Err(format!("raw control byte {c:#04x} in string at byte {j}"));
        }
        let (decoded, len) = match b.get(j + 1) {
            Some(b'"') => ('"', 2),
            Some(b'\\') => ('\\', 2),
            Some(b'/') => ('/', 2),
            Some(b'n') => ('\n', 2),
            Some(b't') => ('\t', 2),
            Some(b'r') => ('\r', 2),
            Some(b'b') => ('\u{8}', 2),
            Some(b'f') => ('\u{c}', 2),
            Some(b'u') => {
                // Exactly four ASCII hex digits before the closing quote.
                let cp = b[..end]
                    .get(j + 2..j + 6)
                    .and_then(|hex| {
                        hex.iter()
                            .try_fold(0, |cp, &h| Some(cp << 4 | char::from(h).to_digit(16)?))
                    })
                    .ok_or_else(|| format!("malformed \\u escape at byte {j}"))?;
                // Surrogates (emitted in pairs by strict encoders) are
                // replaced; the baselines never contain non-ASCII anyway.
                (char::from_u32(cp).unwrap_or('\u{FFFD}'), 6)
            }
            _ => return Err(format!("unknown escape at byte {j}")),
        };
        out.push(decoded);
        j += len;
    }
    Ok((out, end + 1))
}

fn number(b: &[u8], mut i: usize) -> Result<(Value, usize), String> {
    let start = i;
    let signed = b.get(i) == Some(&b'-');
    if signed {
        i += 1;
    }
    let digits = |b: &[u8], mut i: usize| {
        let s = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        (i, i > s)
    };
    // The integer part, scanned once: its exact value is kept while it
    // fits a u64.
    let int_start = i;
    let mut int = Some(0u64);
    while let Some(&c) = b.get(i).filter(|c| c.is_ascii_digit()) {
        int = int.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(c - b'0')));
        i += 1;
    }
    if i == int_start {
        return Err(format!("malformed number at byte {start}"));
    }
    let plain = !signed && !matches!(b.get(i), Some(b'.' | b'e' | b'E'));
    if let (true, Some(n)) = (plain, int) {
        return Ok((Value::Int(n), i));
    }
    if b.get(i) == Some(&b'.') {
        let (next, ok) = digits(b, i + 1);
        if !ok {
            return Err(format!("malformed fraction at byte {start}"));
        }
        i = next;
    }
    if matches!(b.get(i), Some(b'e') | Some(b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+') | Some(b'-')) {
            i += 1;
        }
        let (next, ok) = digits(b, i);
        if !ok {
            return Err(format!("malformed exponent at byte {start}"));
        }
        i = next;
    }
    let text = std::str::from_utf8(&b[start..i]).map_err(|_| "numbers are ASCII".to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("unrepresentable number at byte {start}"))?;
    Ok((Value::Num(n), i))
}

fn literal(b: &[u8], i: usize, lit: &[u8]) -> Result<usize, String> {
    if b.len() >= i + lit.len() && &b[i..i + lit.len()] == lit {
        Ok(i + lit.len())
    } else {
        Err(format!("malformed literal at byte {i}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(src: &str) -> Option<u64> {
        parse(src).expect("valid JSON").as_u64()
    }

    #[test]
    fn as_u64_accepts_exact_integers_only() {
        assert_eq!(int("42"), Some(42));
        assert_eq!(int("0"), Some(0));
        assert_eq!(int("-1"), None);
        assert_eq!(int("1.5"), None);
        assert_eq!(int("\"42\""), None);
    }

    #[test]
    fn integers_past_2_pow_53_round_trip_exactly() {
        for n in [(1u64 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            assert_eq!(int(&n.to_string()), Some(n));
        }
        // Beside 2^53 itself, 2^53+1 no longer collapses onto it.
        assert_ne!(int("9007199254740993"), int("9007199254740992"));
        assert_eq!(parse("[7]"), Ok(Value::Arr(vec![Value::Int(7)])));
    }

    #[test]
    fn non_plain_integer_forms_are_refused() {
        for src in ["1e3", "42.0", "-0", "18446744073709551616", "1E3", "2e+0"] {
            let v = parse(src).expect("valid JSON number");
            assert_eq!(v.as_u64(), None, "{src}");
            assert!(v.as_f64().is_some(), "{src} is still a number");
        }
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("12").unwrap().as_f64(), Some(12.0));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        for s in [
            "plain",
            "with \"quotes\"",
            "line\nbreak\ttab",
            "back\\slash",
        ] {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(parse(&doc), Ok(Value::Str(s.to_string())), "{s:?}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u00e9\u20AC""#), Ok(Value::Str("é€".to_string())));
        // `u32::from_str_radix` alone takes a leading `+`.
        for src in [
            r#""\u+fff""#,
            r#""\u-fff""#,
            r#""\u fff""#,
            r#""\u0x1f""#,
            r#""\u12""#,
            r#""\u12"#,
        ] {
            assert!(parse(src).is_err(), "{src} must be refused");
        }
    }

    #[test]
    fn raw_control_bytes_in_strings_are_refused() {
        for c in (0u8..0x20).map(char::from) {
            let err = parse(&format!("\"a{c}b\"")).expect_err("RFC 8259 §7");
            assert!(err.contains("raw control byte"), "{c:?}: {err}");
            // Escaped, the same character is fine, and whitespace between
            // tokens stays whitespace.
            let escaped = format!("\"a{}b\"", escape(&c.to_string()));
            assert_eq!(parse(&escaped), Ok(Value::Str(format!("a{c}b"))));
        }
        assert!(parse("[\n\t1 ,\r\n2 ]").is_ok());
        // DEL is not a control character in JSON's sense.
        assert_eq!(parse("\"\u{7f}\""), Ok(Value::Str("\u{7f}".to_string())));
    }

    /// The per-character codec this crate had before it copied runs, kept
    /// as the reference the current one is held to: the same escaped
    /// bytes, and the same parse of every input except the signed `\u`
    /// escapes and raw control bytes the current decoder refuses.
    mod reference {
        use super::super::{literal, number, skip_ws, Value};

        pub fn escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if u32::from(c) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", u32::from(c)));
                    }
                    c => out.push(c),
                }
            }
            out
        }

        pub fn parse(src: &str) -> Result<Value, String> {
            let bytes = src.as_bytes();
            let (v, mut pos) = value(bytes, skip_ws(bytes, 0))?;
            pos = skip_ws(bytes, pos);
            if pos != bytes.len() {
                return Err(format!("trailing data at byte {pos}"));
            }
            Ok(v)
        }

        fn value(b: &[u8], i: usize) -> Result<(Value, usize), String> {
            match b.get(i) {
                Some(b'{') => object(b, i),
                Some(b'[') => array(b, i),
                Some(b'"') => {
                    let (s, next) = string(b, i)?;
                    Ok((Value::Str(s), next))
                }
                Some(b't') => literal(b, i, b"true").map(|n| (Value::Bool(true), n)),
                Some(b'f') => literal(b, i, b"false").map(|n| (Value::Bool(false), n)),
                Some(b'n') => literal(b, i, b"null").map(|n| (Value::Null, n)),
                Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
                Some(c) => Err(format!("unexpected byte {c:#x} at {i}")),
                None => Err("unexpected end of input".to_string()),
            }
        }

        fn object(b: &[u8], mut i: usize) -> Result<(Value, usize), String> {
            let mut members = Vec::new();
            i = skip_ws(b, i + 1);
            if b.get(i) == Some(&b'}') {
                return Ok((Value::Obj(members), i + 1));
            }
            loop {
                let (key, next) = string(b, skip_ws(b, i))?;
                i = skip_ws(b, next);
                if b.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                let (v, next) = value(b, skip_ws(b, i + 1))?;
                members.push((key, v));
                i = skip_ws(b, next);
                match b.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => return Ok((Value::Obj(members), i + 1)),
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }

        fn array(b: &[u8], mut i: usize) -> Result<(Value, usize), String> {
            let mut items = Vec::new();
            i = skip_ws(b, i + 1);
            if b.get(i) == Some(&b']') {
                return Ok((Value::Arr(items), i + 1));
            }
            loop {
                let (v, next) = value(b, skip_ws(b, i))?;
                items.push(v);
                i = skip_ws(b, next);
                match b.get(i) {
                    Some(b',') => i += 1,
                    Some(b']') => return Ok((Value::Arr(items), i + 1)),
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }

        fn string(b: &[u8], i: usize) -> Result<(String, usize), String> {
            if b.get(i) != Some(&b'"') {
                return Err(format!("expected string at byte {i}"));
            }
            let mut out = String::new();
            let mut j = i + 1;
            while j < b.len() {
                match b[j] {
                    b'"' => return Ok((out, j + 1)),
                    b'\\' => {
                        let esc = b
                            .get(j + 1)
                            .ok_or_else(|| format!("dangling escape at byte {j}"))?;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = b
                                    .get(j + 2..j + 6)
                                    .ok_or_else(|| format!("truncated \\u escape at byte {j}"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| format!("non-ASCII \\u escape at byte {j}"))?;
                                let cp = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("malformed \\u escape at byte {j}"))?;
                                out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                                j += 6;
                                continue;
                            }
                            _ => return Err(format!("unknown escape at byte {j}")),
                        }
                        j += 2;
                    }
                    c => {
                        let len = match c {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let chunk = b
                            .get(j..j + len)
                            .ok_or_else(|| format!("truncated UTF-8 at byte {j}"))?;
                        out.push_str(
                            std::str::from_utf8(chunk)
                                .map_err(|_| format!("invalid UTF-8 at byte {j}"))?,
                        );
                        j += len;
                    }
                }
            }
            Err(format!("unterminated string starting at byte {i}"))
        }
    }

    /// A seeded xorshift64 stream for the differential tests.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            let n = u64::try_from(n).expect("usize fits u64");
            usize::try_from(self.next() % n).expect("below a usize")
        }
    }

    /// Every character class the escaper treats differently: the two
    /// escaped printables, `/` (decoded but never escaped), every control
    /// character, DEL, plain ASCII and 2-, 3- and 4-byte characters.
    fn random_string(rng: &mut XorShift) -> String {
        let others: Vec<char> = "\"\\/\u{7f}aZ é\u{7ff}€\u{fffd}😀\u{10ffff}"
            .chars()
            .collect();
        let len = rng.below(40);
        (0..len)
            .map(|_| {
                if rng.below(3) == 0 {
                    char::from(u8::try_from(rng.below(0x20)).expect("below 0x20"))
                } else {
                    others[rng.below(others.len())]
                }
            })
            .collect()
    }

    #[test]
    fn escape_matches_the_per_character_reference() {
        let mut rng = XorShift(0x5eed_0001);
        for _ in 0..2_000 {
            let s = random_string(&mut rng);
            let want = reference::escape(&s);
            assert_eq!(escape(&s), want, "{s:?}");
            assert_eq!(escaped_len(&s), want.len(), "{s:?}");
            let mut buf = String::from("{\"already\": \"");
            escape_into(&mut buf, &s);
            assert_eq!(buf, format!("{{\"already\": \"{want}"), "{s:?}");
            let quoted = format!("\"{want}\"");
            assert_eq!(parse(&quoted), Ok(Value::Str(s.clone())), "{s:?}");
            assert_eq!(parse(&quoted), reference::parse(&quoted), "{s:?}");
        }
    }

    /// `src` without what the current decoder newly refuses: raw control
    /// bytes become spaces and `\u+` escapes lose their sign.
    fn repaired(src: &str) -> String {
        src.replace("\\u+", "\\u0")
            .chars()
            .map(|c| if c < ' ' { ' ' } else { c })
            .collect()
    }

    /// What [`parse_columns`] must return for `src`, read off [`parse`]'s
    /// tree: an object whose arrays hold only integers and `null`s.
    fn columns_of(src: &str) -> Option<Vec<(String, Column)>> {
        let Ok(Value::Obj(members)) = parse(src) else {
            return None;
        };
        let column = |v: Value| match v {
            Value::Arr(items) => items
                .into_iter()
                .map(|x| match x {
                    Value::Int(n) => Some(Some(n)),
                    Value::Null => Some(None),
                    _ => None,
                })
                .collect::<Option<_>>()
                .map(Column::Ints),
            Value::Obj(_) => None,
            v => Some(Column::Scalar(v)),
        };
        members
            .into_iter()
            .map(|(k, v)| Some((k, column(v)?)))
            .collect()
    }

    #[test]
    fn mutated_documents_parse_as_the_reference_does() {
        // The `result` reply line vc-serve writes for the full
        // LeafColoring distance sweep of a 255-node full binary tree: its
        // payload, escaped, is the sweep's `vc-engine-checkpoint/v4` file.
        // That payload is one JSON document per line, so its header and
        // its first chunk line are mutated on their own. Every mutant also
        // goes through the column scan.
        let stored = include_str!("../tests/data/result_reply.json");
        let checkpoint = parse(stored)
            .expect("the reply parses")
            .get("payload")
            .and_then(Value::as_str)
            .expect("the reply has a payload")
            .to_string();
        let lines: Vec<&str> = checkpoint.lines().collect();
        assert!(lines[1].contains('['), "line 1 holds a chunk's columns");
        let mut rng = XorShift(0x5eed_0002);
        let (mut agreed, mut refused, mut columnar) = (0, 0, 0);
        for doc in [stored, lines[0], lines[1]] {
            assert_eq!(parse(doc), reference::parse(doc));
            assert_eq!(parse_columns(doc).ok(), columns_of(doc));
            let bytes = doc.as_bytes();
            for _ in 0..300 {
                let mut m = bytes.to_vec();
                match rng.below(3) {
                    0 => m.truncate(rng.below(m.len())),
                    1 => {
                        // The documents are ASCII; flipping one of the low
                        // seven bits keeps them so.
                        let at = rng.below(m.len());
                        m[at] ^= 1 << rng.below(7);
                    }
                    _ => {
                        let from = rng.below(m.len());
                        let to = (from + 1 + rng.below(24)).min(m.len());
                        let slice = m[from..to].to_vec();
                        let at = rng.below(m.len());
                        m.splice(at..at, slice);
                    }
                }
                let m = String::from_utf8(m).expect("ASCII mutations stay UTF-8");
                let got = parse_columns(&m);
                assert_eq!(got.as_ref().ok(), columns_of(&m).as_ref(), "{m}");
                columnar += usize::from(got.is_ok());
                let (got, want) = (parse(&m), reference::parse(&m));
                match (&got, &want) {
                    (Ok(g), Ok(w)) => assert_eq!(g, w),
                    (Err(_), Err(_)) => {}
                    (Err(e), Ok(_)) => {
                        // Refused only for a raw control byte or a signed
                        // `\u` escape: repaired, both parsers accept it.
                        let r = repaired(&m);
                        assert!(parse(&r).is_ok(), "refused a valid document: {e}");
                        assert_eq!(parse(&r), reference::parse(&r));
                        refused += 1;
                        continue;
                    }
                    (Ok(_), Err(e)) => panic!("accepted what the reference refuses: {e}"),
                }
                agreed += 1;
            }
        }
        assert!(agreed > refused, "{agreed} agreed, {refused} newly refused");
        assert!(columnar > 0, "no mutated line scanned as columns");
    }

    #[test]
    fn integer_columns_refuse_what_they_cannot_hold_exactly() {
        let cols =
            parse_columns(r#"{"k": "v", "n": 7, "c": [0, 18446744073709551615,null ], "e": []}"#);
        assert_eq!(
            cols,
            Ok(vec![
                ("k".to_string(), Column::Scalar(Value::Str("v".to_string()))),
                ("n".to_string(), Column::Scalar(Value::Int(7))),
                (
                    "c".to_string(),
                    Column::Ints(vec![Some(0), Some(u64::MAX), None])
                ),
                ("e".to_string(), Column::Ints(vec![])),
            ])
        );
        for (src, why) in [
            (r#"{"c": [1, -2]}"#, "signed"),
            (r#"{"c": [1.5]}"#, "non-integer"),
            (r#"{"c": [1e3]}"#, "non-integer"),
            (r#"{"c": [18446744073709551616]}"#, "past u64"),
            (r#"{"c": [[1]]}"#, "unexpected byte"),
            (r#"{"c": {"d": 1}}"#, "nested object"),
            (r#"{"c": [1 2]}"#, "expected ','"),
            (r#"{"c": [1,]}"#, "unexpected byte"),
            (r#"{"c": [1]} x"#, "trailing data"),
            (r#"[1]"#, "expected '{'"),
        ] {
            let err = parse_columns(src).expect_err(src);
            assert!(err.contains(why), "{src}: {err}");
        }
    }

    #[test]
    fn documents_and_lines_lay_out_the_same_value() {
        let row = |n: u32| obj! { "n": n, "pair": Json::arr([n, n]) };
        let value = obj! {
            "k\"ey": "a\"b\\c\nd\u{1}", "rate": Json::Raw(format!("{:.1}", 2.25)),
            "none": None::<u64>, "ints": Json::arr([1u64, 2]),
            "rows": Json::arr([row(1), row(2)]), "empty": Json::arr(Vec::<Json>::new()),
            "inner": obj! { "rows": Json::arr([row(3)]) },
        }
        .with("raw", Json::Raw("{\"x\": [1]}".to_string()));
        let document = document(&value);
        assert_eq!(
            document,
            r#"{
  "k\"ey": "a\"b\\c\nd\u0001",
  "rate": 2.2,
  "none": null,
  "ints": [1, 2],
  "rows": [
    {"n": 1, "pair": [1, 1]},
    {"n": 2, "pair": [2, 2]}
  ],
  "empty": [],
  "inner": {"rows": [{"n": 3, "pair": [3, 3]}]},
  "raw": {"x": [1]}
}
"#
        );
        let line = line(&value);
        let compact = r#"{"k\"ey":"a\"b\\c\nd\u0001","rate":2.2,"none":null,"ints":[1,2],"#;
        let rows = r#""rows":[{"n":1,"pair":[1,1]},{"n":2,"pair":[2,2]}],"empty":[],"#;
        let rest = r#""inner":{"rows":[{"n":3,"pair":[3,3]}]},"raw":{"x": [1]}}"#;
        assert_eq!(line, format!("{compact}{rows}{rest}"));
        assert_eq!(parse(&line), parse(&document));
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_an_abort() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects)
            .expect_err("objects count too")
            .contains("nesting"));
        // A spawned thread has the smallest stack a parse runs on.
        let deep = std::thread::spawn(|| parse(&"[".repeat(100_000)));
        let err = deep
            .join()
            .expect("no stack overflow")
            .expect_err("refused");
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn push_uint_writes_what_parse_reads() {
        for n in [0, 7, 10, 99, 1 << 53, u64::MAX] {
            let mut out = String::from("x");
            push_uint(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }
}
