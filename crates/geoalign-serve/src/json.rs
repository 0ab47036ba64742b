//! A minimal JSON value type with a recursive-descent parser and a
//! serializer — just enough for the service's request and response bodies.
//! No external dependencies; numbers are `f64` (like JavaScript), objects
//! preserve insertion order.
//!
//! The parser is depth-limited ([`MAX_DEPTH`]): recursion tracks the
//! nesting level, so a hostile body of 100k `[` characters is rejected
//! with [`JsonErrorKind::TooDeep`] instead of overflowing the worker
//! thread's stack.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Number(v) => write_number(out, *v),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Object(pairs) => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_string(out, k)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Renders the value as compact JSON text (so `.to_string()` works too),
/// straight into the formatter.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Number(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::String(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::String(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Writes `v` as a JSON number; a value JSON cannot hold becomes `null`.
pub(crate) fn write_number<W: fmt::Write>(out: &mut W, v: f64) -> fmt::Result {
    if v.is_finite() {
        // `{}` on f64 round-trips and never emits exponent-less `inf`.
        write!(out, "{v}")
    } else {
        // JSON has no Inf/NaN; null is the conventional degradation.
        out.write_str("null")
    }
}

/// Writes `s` as a JSON string literal, escaping what JSON requires.
pub(crate) fn write_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // Unescaped runs go out whole; only the bytes that need an escape
    // (all ASCII, so `i` is always a char boundary) are written singly.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match escape {
            Some(escape) => out.write_str(escape)?,
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Maximum container nesting the parser accepts. Every `[` or `{` costs
/// one level; deeper documents are rejected before the recursion can
/// threaten the stack.
pub const MAX_DEPTH: usize = 128;

/// Classification of a [`JsonError`], so callers can count depth-limit
/// rejections separately from plain syntax errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Malformed input.
    Syntax,
    /// Structurally valid prefix, but nested past [`MAX_DEPTH`].
    TooDeep,
}

/// A JSON parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
    /// Whether this was a syntax error or a depth-limit rejection.
    pub kind: JsonErrorKind,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error. Nesting past [`MAX_DEPTH`] is rejected.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    document(text, |bytes, pos| parse_value(bytes, pos, MAX_DEPTH))
}

/// Runs `value` over the one value of `text`, then rejects anything but
/// whitespace after it.
fn document<T>(
    text: &str,
    value: impl FnOnce(&[u8], &mut usize) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing content after document", pos));
    }
    Ok(value)
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.to_owned(),
        offset,
        kind: JsonErrorKind::Syntax,
    }
}

fn too_deep(offset: usize) -> JsonError {
    JsonError {
        message: format!("nesting exceeds the depth limit of {MAX_DEPTH}"),
        offset,
        kind: JsonErrorKind::TooDeep,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected '{}'", b as char), *pos))
    }
}

/// `depth` is the remaining nesting allowance; containers recurse with
/// one less and reject when it runs out.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(_) => parse_number(bytes, pos).map(Json::Number),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(&format!("expected '{lit}'"), *pos))
    }
}

/// Consumes an optional `-` and then the whole run of number bytes
/// after it, and converts the run. A run of 1 to 15 digits with no `.`,
/// `e`, `E`, `+` or `-` after them converts as an exact integer: it stays
/// below 2^53, so `as f64` is exact, which is also what the correctly
/// rounded `f64::from_str` gives (leading zeros and `-0` included).
/// Every other run goes through `f64::from_str`. The run is looser than
/// the JSON grammar (`.5`, `+1`, `007` parse), and whatever `from_str`
/// refuses is an error at its start.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    let negative = bytes.get(start) == Some(&b'-');
    let digits = start + usize::from(negative);
    let mut end = digits;
    let mut n = 0u64;
    while let Some(d) = bytes.get(end).filter(|d| d.is_ascii_digit()) {
        n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        end += 1;
    }
    if (1..=15).contains(&(end - digits))
        && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos = end;
        let v = n as f64;
        return Ok(if negative { -v } else { v });
    }
    while end < bytes.len() && matches!(bytes[end], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        end += 1;
    }
    *pos = end;
    let text = std::str::from_utf8(&bytes[start..end]).expect("ascii digits");
    text.parse::<f64>()
        .map_err(|_| err(&format!("bad number '{text}'"), start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(err("unterminated string", *pos));
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(err("unterminated escape", *pos));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let code = parse_hex4(bytes, pos)?;
                        // Surrogate pairs: a high surrogate must be
                        // followed by \uDC00..\uDFFF.
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                (0xDC00..0xE000)
                                    .contains(&low)
                                    .then(|| 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                                    .and_then(char::from_u32)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(code)
                        };
                        match ch {
                            Some(c) => out.push(c),
                            None => return Err(err("invalid unicode escape", *pos)),
                        }
                    }
                    _ => return Err(err("invalid escape", *pos - 1)),
                }
            }
            _ if b < 0x20 => return Err(err("raw control character in string", *pos - 1)),
            _ => {
                // Re-walk the UTF-8 sequence starting at this byte.
                let start = *pos - 1;
                let len = utf8_len(b);
                let end = start + len;
                let Some(slice) = bytes.get(start..end) else {
                    return Err(err("truncated UTF-8", start));
                };
                let s = std::str::from_utf8(slice).map_err(|_| err("invalid UTF-8", start))?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let Some(slice) = bytes.get(*pos..*pos + 4) else {
        return Err(err("truncated \\u escape", *pos));
    };
    let mut code = 0;
    for &b in slice {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| err("bad \\u escape", *pos))?;
        code = (code << 4) | digit;
    }
    *pos += 4;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let mut items = Vec::new();
    array_items(bytes, pos, depth, |pos, depth| {
        items.push(parse_value(bytes, pos, depth)?);
        Ok(())
    })?;
    Ok(Json::Array(items))
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let mut pairs = Vec::new();
    object_members(bytes, pos, depth, |key, pos, depth| {
        pairs.push((key, parse_value(bytes, pos, depth)?));
        Ok(())
    })?;
    Ok(Json::Object(pairs))
}

/// Walks the array at `*pos`, calling `item(pos, depth)` at the start of
/// each element (before its whitespace); `item` must consume exactly one
/// value, with `depth` the nesting allowance left for it. Every consumer
/// of arrays goes through here, so the grammar, the depth accounting and
/// the error messages and offsets are the same for all of them.
fn array_items(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    mut item: impl FnMut(&mut usize, usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    if depth == 0 {
        return Err(too_deep(*pos));
    }
    expect(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        item(pos, depth - 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

/// Walks the object at `*pos` like [`array_items`], calling
/// `member(key, pos, depth)` once per member with `*pos` just past its
/// `:`.
fn object_members(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    mut member: impl FnMut(String, &mut usize, usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    if depth == 0 {
        return Err(too_deep(*pos));
    }
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        member(key, pos, depth - 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

/// One field of a decoded body, as [`Json::get`] finds it: the value of
/// the *first* pair with its key. A wrong type is recorded, not raised,
/// so the caller can check fields in its own order.
#[derive(Debug, PartialEq)]
pub(crate) enum Field<T> {
    /// No pair has the key, or the enclosing value is not an object.
    Absent,
    /// The first pair's value has another type.
    Wrong,
    /// The first pair's value.
    Val(T),
}

/// The fields `POST /crosswalk` reads from its body.
#[derive(Debug, PartialEq)]
pub(crate) struct CrosswalkBody {
    /// `source`, a string.
    pub source: Field<String>,
    /// `target`, a string.
    pub target: Field<String>,
    /// `attributes`, an array; every element is decoded, objects or not.
    pub attributes: Field<Vec<CrosswalkAttribute>>,
}

/// One element of a [`CrosswalkBody`]'s `attributes`.
#[derive(Debug, PartialEq)]
pub(crate) struct CrosswalkAttribute {
    /// `name`, a string.
    pub name: Field<String>,
    /// `values`, an array: `Val(Some(..))` when every element is a
    /// number, `Val(None)` when one is not.
    pub values: Field<Option<Vec<f64>>>,
}

/// Decodes a `/crosswalk` body straight into its typed fields, with no
/// [`Json`] tree: numbers in `values` land in a `Vec<f64>` directly.
///
/// The walk is [`parse`]'s own (the same walkers, string and number
/// parsers), and every other key and element is parsed in full, so `text`
/// fails here exactly when, where and how [`parse`] fails. When it
/// succeeds, each field equals what [`Json::get`] and the `as_*`
/// accessors read from `parse(text)`.
pub(crate) fn decode_crosswalk(text: &str) -> Result<CrosswalkBody, JsonError> {
    document(text, |bytes, pos| {
        let mut body = CrosswalkBody {
            source: Field::Absent,
            target: Field::Absent,
            attributes: Field::Absent,
        };
        decode_object(bytes, pos, MAX_DEPTH, |key, pos, depth| {
            match key.as_str() {
                "source" if body.source == Field::Absent => {
                    body.source = decode_string(bytes, pos, depth)?;
                }
                "target" if body.target == Field::Absent => {
                    body.target = decode_string(bytes, pos, depth)?;
                }
                "attributes" if body.attributes == Field::Absent => {
                    let mut attributes = Vec::new();
                    let is_array = decode_array(bytes, pos, depth, |pos, depth| {
                        attributes.push(decode_attribute(bytes, pos, depth)?);
                        Ok(())
                    })?;
                    body.attributes = if is_array {
                        Field::Val(attributes)
                    } else {
                        Field::Wrong
                    };
                }
                _ => {
                    parse_value(bytes, pos, depth)?;
                }
            }
            Ok(())
        })?;
        Ok(body)
    })
}

fn decode_attribute(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<CrosswalkAttribute, JsonError> {
    let mut attr = CrosswalkAttribute {
        name: Field::Absent,
        values: Field::Absent,
    };
    decode_object(bytes, pos, depth, |key, pos, depth| {
        match key.as_str() {
            "name" if attr.name == Field::Absent => {
                attr.name = decode_string(bytes, pos, depth)?;
            }
            "values" if attr.values == Field::Absent => {
                // Numbers go straight into the vector; the first
                // non-number drops it, but the rest is still parsed.
                let mut numbers = Some(Vec::new());
                let is_array = decode_array(bytes, pos, depth, |pos, depth| {
                    skip_ws(bytes, pos);
                    // `parse_value`'s dispatch: anything else is a number.
                    match bytes.get(*pos) {
                        None | Some(b'n' | b't' | b'f' | b'"' | b'[' | b'{') => {
                            parse_value(bytes, pos, depth)?;
                            numbers = None;
                        }
                        Some(_) => {
                            let v = parse_number(bytes, pos)?;
                            if let Some(numbers) = &mut numbers {
                                numbers.push(v);
                            }
                        }
                    }
                    Ok(())
                })?;
                attr.values = if is_array {
                    Field::Val(numbers)
                } else {
                    Field::Wrong
                };
            }
            _ => {
                parse_value(bytes, pos, depth)?;
            }
        }
        Ok(())
    })?;
    Ok(attr)
}

/// Walks the object at `*pos` through `member`; any other value is
/// parsed and dropped, leaving every field [`Field::Absent`].
fn decode_object(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    member: impl FnMut(String, &mut usize, usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'{') {
        object_members(bytes, pos, depth, member)
    } else {
        parse_value(bytes, pos, depth).map(drop)
    }
}

fn decode_string(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Field<String>, JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'"') {
        parse_string(bytes, pos).map(Field::Val)
    } else {
        parse_value(bytes, pos, depth).map(|_| Field::Wrong)
    }
}

/// Walks the array at `*pos` through `item` and returns `true`; any other
/// value is parsed and dropped, and the result is `false`.
fn decode_array(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    item: impl FnMut(&mut usize, usize) -> Result<(), JsonError>,
) -> Result<bool, JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'[') {
        array_items(bytes, pos, depth, item).map(|()| true)
    } else {
        parse_value(bytes, pos, depth).map(|_| false)
    }
}

/// Reads the string values of `keys` from the top-level object of `text`
/// without building a document: one pass over the bytes that skips
/// strings and nested values by depth and allocates nothing. Routing a
/// large body by two of its fields costs this scan, not a [`parse`].
///
/// `Some(values)` is a guarantee: [`parse`] accepts `text`, and for each
/// key, `parse(text)?.get(key)?.as_str()` — the *first* pair with that
/// key, as [`Json::get`] takes it — is `Some(values[i])`. `None` means
/// undecided, and the caller falls back to [`parse`]. The scan accepts a
/// strict subset of what [`parse`] does and stays undecided on anything
/// outside it: malformed or truncated text, a top level that is not an
/// object, a missing key, a first value that is not a string, an escape
/// inside a top-level key or a wanted value, a `\u` escape anywhere, a
/// number outside the JSON grammar, or nesting past [`MAX_DEPTH`].
pub fn scan_str_fields<'a, const N: usize>(text: &'a str, keys: [&str; N]) -> Option<[&'a str; N]> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return None;
    }
    let mut found: [Option<&'a str>; N] = [None; N];
    // `is_object[d]` says whether open container `d` is an object.
    let mut is_object = [false; MAX_DEPTH];
    let mut depth = 0;
    // Whether a value starts at `pos` (else one just ended there).
    let mut want_value = true;
    loop {
        skip_ws(bytes, &mut pos);
        if want_value {
            want_value = false;
            match bytes.get(pos) {
                Some(&open @ (b'{' | b'[')) => {
                    if depth == MAX_DEPTH {
                        return None;
                    }
                    let object = open == b'{';
                    is_object[depth] = object;
                    depth += 1;
                    pos += 1;
                    skip_ws(bytes, &mut pos);
                    if bytes.get(pos) == Some(if object { &b'}' } else { &b']' }) {
                        pos += 1;
                        depth -= 1;
                    } else if object {
                        want_value = !scan_member(text, &mut pos, depth, keys, &mut found)?;
                    } else {
                        want_value = true;
                    }
                }
                Some(b'"') => {
                    scan_string(text, &mut pos)?;
                }
                Some(b't') => scan_literal(bytes, &mut pos, b"true")?,
                Some(b'f') => scan_literal(bytes, &mut pos, b"false")?,
                Some(b'n') => scan_literal(bytes, &mut pos, b"null")?,
                _ => scan_number(bytes, &mut pos)?,
            }
            continue;
        }
        if depth == 0 {
            if pos != bytes.len() {
                return None;
            }
            let mut values = [""; N];
            for (value, slot) in values.iter_mut().zip(found) {
                *value = slot?;
            }
            return Some(values);
        }
        let object = is_object[depth - 1];
        match bytes.get(pos) {
            Some(b',') if object => {
                pos += 1;
                want_value = !scan_member(text, &mut pos, depth, keys, &mut found)?;
            }
            Some(b',') => {
                pos += 1;
                want_value = true;
            }
            Some(b'}') if object => {
                pos += 1;
                depth -= 1;
            }
            Some(b']') if !object => {
                pos += 1;
                depth -= 1;
            }
            _ => return None,
        }
    }
}

/// Scans one object member's key and `:`. In the top-level object
/// (`depth == 1`), the first occurrence of a wanted key also consumes
/// its string value into `found` and returns `true`; otherwise the value
/// is left for the caller and the result is `false`.
fn scan_member<'a, const N: usize>(
    text: &'a str,
    pos: &mut usize,
    depth: usize,
    keys: [&str; N],
    found: &mut [Option<&'a str>; N],
) -> Option<bool> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let (key, key_escaped) = scan_string(text, pos)?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b':') {
        return None;
    }
    *pos += 1;
    if depth != 1 {
        return Some(false);
    }
    // An escaped top-level key might decode to a wanted one.
    if key_escaped {
        return None;
    }
    let Some(slot) = keys
        .iter()
        .position(|k| *k == key)
        .map(|i| &mut found[i])
        .filter(|slot| slot.is_none())
    else {
        return Some(false);
    };
    skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    match scan_string(text, pos)? {
        (value, false) => {
            *slot = Some(value);
            Some(true)
        }
        (_, true) => None,
    }
}

/// Skips the string starting at `*pos` (which must be `"`), returning
/// its raw contents and whether they hold an escape. Accepts only what
/// [`parse`] decodes the same way: no raw control characters and no
/// `\u` escapes.
fn scan_string<'a>(text: &'a str, pos: &mut usize) -> Option<(&'a str, bool)> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    let start = *pos + 1;
    let mut i = start;
    let mut escaped = false;
    loop {
        match *bytes.get(i)? {
            b'"' => {
                *pos = i + 1;
                return Some((&text[start..i], escaped));
            }
            b'\\' => {
                if !matches!(
                    bytes.get(i + 1)?,
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't'
                ) {
                    return None;
                }
                escaped = true;
                i += 2;
            }
            b if b < 0x20 => return None,
            _ => i += 1,
        }
    }
}

fn scan_literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Option<()> {
    if !bytes[*pos..].starts_with(lit) {
        return None;
    }
    *pos += lit.len();
    Some(())
}

/// Skips a number in the strict JSON grammar
/// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`) that is also the
/// whole run [`parse_number`] would consume, so `f64::from_str` accepts
/// it there.
fn scan_number(bytes: &[u8], pos: &mut usize) -> Option<()> {
    let digits = |p: &mut usize| {
        let start = *p;
        while bytes.get(*p).is_some_and(u8::is_ascii_digit) {
            *p += 1;
        }
        (*p > start).then_some(())
    };
    let mut p = *pos;
    if bytes.get(p) == Some(&b'-') {
        p += 1;
    }
    match bytes.get(p) {
        Some(b'0') => p += 1,
        Some(b'1'..=b'9') => digits(&mut p)?,
        _ => return None,
    }
    if bytes.get(p) == Some(&b'.') {
        p += 1;
        digits(&mut p)?;
    }
    if matches!(bytes.get(p), Some(b'e' | b'E')) {
        p += 1;
        if matches!(bytes.get(p), Some(b'+' | b'-')) {
            p += 1;
        }
        digits(&mut p)?;
    }
    if matches!(
        bytes.get(p),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        return None;
    }
    *pos = p;
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_bodies::BodyGen;
    use proptest::prelude::*;

    #[test]
    fn round_trips_documents() {
        let text = r#"{"name":"zip","units":["z1","z2"],"n":3,"ok":true,"none":null,"nested":[[1,2.5],[-3e2]]}"#;
        let doc = parse(text).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("zip"));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("units").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn string_escapes() {
        let doc = parse(r#""a\"b\\c\n\t\u0041\u00e9""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\n\tAé"));
        // Surrogate pair (😀 U+1F600).
        let doc = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(doc.as_str(), Some("😀"));
        // Serializer escapes what it must.
        let j = Json::String("a\"b\n".to_owned());
        assert_eq!(j.to_string(), r#""a\"b\n""#);
        assert_eq!(parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn unicode_escapes_are_strict() {
        // Valid pairs, at both ends of the supplementary planes.
        assert_eq!(
            parse(r#""\ud834\udd1e""#).unwrap().as_str(),
            Some("\u{1D11E}")
        );
        assert_eq!(
            parse(r#""\ud800\udc00\udbff\udfff""#).unwrap().as_str(),
            Some("\u{10000}\u{10FFFF}")
        );
        for bad in [
            // A high surrogate followed by an escape that is no low one.
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\ud800\ue000""#,
            // A lone low surrogate.
            r#""\udc00""#,
            r#""x\udfffy""#,
            // Truncated pairs.
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\ud800\u00""#,
            r#""\ud800\"#,
            // Exactly four hex digits: no sign, space or prefix.
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u0x41""#,
            r#""\u004g""#,
        ] {
            let e = parse(bad).expect_err(bad);
            assert_eq!(e.kind, JsonErrorKind::Syntax, "{bad}");
        }
    }

    #[test]
    fn utf8_pass_through() {
        let doc = parse(r#""héllo — 世界""#).unwrap();
        assert_eq!(doc.as_str(), Some("héllo — 世界"));
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\":}",
            "nul",
            "1 2",
            "[1,]",
            "{,}",
            "\"\\q\"",
            "01a",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting_without_overflow() {
        // 100k open brackets: the seed parser recursed once per bracket
        // until the thread stack blew; now it's a TooDeep error.
        let hostile = "[".repeat(100_000);
        let e = parse(&hostile).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
        assert!(e.message.contains("depth limit"), "{e}");

        // Same for objects.
        let hostile = r#"{"a":"#.repeat(100_000);
        let e = parse(&hostile).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);

        // Exactly at the limit parses; one past it does not.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&deep).unwrap_err().kind, JsonErrorKind::TooDeep);

        // Ordinary syntax errors keep the Syntax kind.
        assert_eq!(parse("[1,").unwrap_err().kind, JsonErrorKind::Syntax);
    }

    #[test]
    fn scan_reads_top_level_strings_like_get() {
        let keys = ["source", "target"];
        for (text, want) in [
            (r#"{"source":"zip","target":"county"}"#, ["zip", "county"]),
            // Key order, whitespace, nested values ahead of the keys.
            (
                " {\n\t\"attributes\" : [{\"name\":\"a\\n\",\"values\":[1,-2.5e3,0.0]}],\r\n \"target\":\"c\" , \"source\": \"s\" } ",
                ["s", "c"],
            ),
            // Nested "source" keys are not top-level; the first
            // top-level duplicate wins, as with `Json::get`.
            (
                r#"{"x":{"source":"inner"},"source":"a","target":"b","source":"later"}"#,
                ["a", "b"],
            ),
            (r#"{"source":"é世","target":"","n":[true,false,null,{}]}"#, ["é世", ""]),
        ] {
            assert_eq!(scan_str_fields(text, keys), Some(want), "{text}");
            let doc = parse(text).unwrap();
            for (k, v) in keys.iter().zip(want) {
                assert_eq!(doc.get(k).and_then(Json::as_str), Some(v));
            }
        }
    }

    #[test]
    fn scan_is_undecided_where_it_cannot_vouch_for_parse() {
        let keys = ["source", "target"];
        for text in [
            // Malformed or truncated bodies: `parse` rejects them.
            r#"{"source":"a","target":"b""#,
            r#"{"source":"a","target":"b"} x"#,
            r#"{"source":"a","target":"b","v":[1,]}"#,
            r#"{"source":"a","target":"b","v":01}"#,
            r#"{"source":"a","target":"b","v":"\q"}"#,
            r#"{"source":"a","target":"b",}"#,
            "{\"source\":\"a\",\"target\":\"b\",\"v\":\"\u{1}\"}",
            // Escapes the scan does not decode.
            r#"{"sour\u0063e":"z","source":"a","target":"b"}"#,
            r#"{"sour\/ce":"z","source":"a","target":"b"}"#,
            r#"{"source":"a\/","target":"b"}"#,
            r#"{"source":"a","target":"b","v":"\u0041"}"#,
            // Numbers `parse` accepts outside the JSON grammar.
            r#"{"source":"a","target":"b","v":.5}"#,
            r#"{"source":"a","target":"b","v":+1}"#,
            // Missing key, non-string first value, non-object document.
            r#"{"source":"a"}"#,
            r#"{"source":1,"source":"a","target":"b"}"#,
            r#"[{"source":"a","target":"b"}]"#,
            "",
        ] {
            assert_eq!(scan_str_fields(text, keys), None, "{text}");
        }
        // Nesting at the parser's limit is scanned; one past it is not.
        let nest = |d: usize| {
            format!(
                r#"{{"source":"a","target":"b","v":{}1{}}}"#,
                "[".repeat(d),
                "]".repeat(d)
            )
        };
        assert!(parse(&nest(MAX_DEPTH - 1)).is_ok());
        assert_eq!(
            scan_str_fields(&nest(MAX_DEPTH - 1), keys),
            Some(["a", "b"])
        );
        assert!(parse(&nest(MAX_DEPTH)).is_err());
        assert_eq!(scan_str_fields(&nest(MAX_DEPTH), keys), None);
        // Simple escapes in values the scan skips are fine.
        let text = r#"{"a":"x\"y\\z\/\b\f\n\r\t","source":"s","target":"t"}"#;
        assert_eq!(scan_str_fields(text, keys), Some(["s", "t"]));
    }

    #[test]
    fn numbers_round_trip() {
        for v in [0.0, -1.5, 1e300, 123456.789, -0.001] {
            let j = Json::Number(v);
            let back = parse(&j.to_string()).unwrap();
            assert_eq!(back.as_f64(), Some(v));
        }
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
    }

    /// What a handler reading `doc` with [`Json::get`] and the `as_*`
    /// accessors sees: the reference [`decode_crosswalk`] must match.
    fn fields_by_get(doc: &Json) -> CrosswalkBody {
        fn string(value: Option<&Json>) -> Field<String> {
            match value {
                None => Field::Absent,
                Some(Json::String(s)) => Field::Val(s.clone()),
                Some(_) => Field::Wrong,
            }
        }
        let attributes = match doc.get("attributes") {
            None => Field::Absent,
            Some(Json::Array(items)) => Field::Val(
                items
                    .iter()
                    .map(|attr| CrosswalkAttribute {
                        name: string(attr.get("name")),
                        values: match attr.get("values") {
                            None => Field::Absent,
                            Some(Json::Array(values)) => {
                                Field::Val(values.iter().map(Json::as_f64).collect())
                            }
                            Some(_) => Field::Wrong,
                        },
                    })
                    .collect(),
            ),
            Some(_) => Field::Wrong,
        };
        CrosswalkBody {
            source: string(doc.get("source")),
            target: string(doc.get("target")),
            attributes,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]
        #[test]
        fn decode_crosswalk_agrees_with_parse_and_get(seed in 0u64..u64::MAX) {
            let body = BodyGen::new(seed).body();
            let decoded = decode_crosswalk(&body);
            let expected = parse(&body).map(|doc| fields_by_get(&doc));
            // Debug prints each f64 in its shortest round-trip form, so
            // equal text means equal bits, `-0.0` and infinities included;
            // errors compare by message, offset and kind.
            let (decoded, expected) = (format!("{decoded:?}"), format!("{expected:?}"));
            prop_assert!(decoded == expected, "{body}\n decoded: {decoded}\nexpected: {expected}");
        }
    }

    #[test]
    fn crosswalk_body_generator_covers_every_outcome() {
        // The property above is only as good as its bodies: each way a
        // body can decode or fail must come up often.
        let (mut complete, mut not_numbers, mut wrong, mut syntax, mut too_deep) = (0, 0, 0, 0, 0);
        let mut at_limit = 0;
        for seed in 0..4000 {
            let body = BodyGen::new(seed).body();
            match decode_crosswalk(&body) {
                Ok(fields) => {
                    at_limit += usize::from(body.contains(&"[".repeat(MAX_DEPTH - 4)));
                    let attrs = match &fields.attributes {
                        Field::Val(attrs) => attrs.as_slice(),
                        _ => &[],
                    };
                    if matches!(fields.source, Field::Wrong)
                        || attrs.iter().any(|a| matches!(a.values, Field::Wrong))
                    {
                        wrong += 1;
                    }
                    if attrs.iter().any(|a| a.values == Field::Val(None)) {
                        not_numbers += 1;
                    }
                    if matches!(
                        (&fields.source, &fields.target),
                        (Field::Val(_), Field::Val(_))
                    ) && !attrs.is_empty()
                        && attrs.iter().all(|a| {
                            matches!((&a.name, &a.values), (Field::Val(_), Field::Val(Some(_))))
                        })
                    {
                        complete += 1;
                    }
                }
                Err(e) if e.kind == JsonErrorKind::TooDeep => too_deep += 1,
                Err(_) => syntax += 1,
            }
        }
        let counts = [complete, not_numbers, wrong, syntax, too_deep, at_limit];
        assert!(counts.iter().all(|&n| n >= 100), "{counts:?}");
    }

    /// `parse_number` over all of `run`, as bits.
    fn number_bits(run: &str) -> Option<u64> {
        let mut pos = 0;
        let v = parse_number(run.as_bytes(), &mut pos).ok()?;
        assert_eq!(pos, run.len(), "{run}");
        Some(v.to_bits())
    }

    #[test]
    fn exact_integers_match_from_str_bit_for_bit() {
        let mut rng = BodyGen::new(17);
        let mut runs: Vec<String> = Vec::new();
        for len in 1..=15 {
            runs.push("9".repeat(len));
            runs.push("0".repeat(len));
            runs.push(format!("1{}", "0".repeat(len - 1)));
            runs.push(format!("{}1", "0".repeat(len - 1)));
            for _ in 0..200 {
                runs.push(
                    (0..len)
                        .map(|_| char::from(b'0' + rng.below(10) as u8))
                        .collect(),
                );
            }
        }
        for digits in &runs {
            for run in [digits.clone(), format!("-{digits}")] {
                let want = run.parse::<f64>().unwrap().to_bits();
                assert_eq!(number_bits(&run), Some(want), "{run}");
            }
        }
        assert_eq!(number_bits("-0"), Some((-0.0f64).to_bits()));
        // Past 15 digits (where the integer would round or wrap), and
        // with a fraction, an exponent or anything off the digit grammar
        // after the digits, `f64::from_str` decides alone.
        for run in [
            "1234567890123456",
            "9007199254740993",
            "-9999999999999999",
            "0000000000000000",
            "12345678901234567890123",
            "-99999999999999999999999999",
            "1.5",
            "1.",
            ".5",
            "1e5",
            "1E5",
            "-1e-5",
            "1e400",
            "123456789012345e-3",
            "+1",
            "-",
            "",
            "--1",
            "1-",
            "1+",
            "1-2",
        ] {
            let want = run.parse::<f64>().ok().map(f64::to_bits);
            let mut pos = 0;
            let got = parse_number(run.as_bytes(), &mut pos)
                .map(f64::to_bits)
                .ok();
            assert_eq!(got, want, "{run}");
            assert_eq!(pos, run.len(), "{run}");
        }
    }

    /// `doc` after one trip through text: JSON has no infinities, so they
    /// come back as `null`.
    fn finite_or_null(doc: &Json) -> Json {
        match doc {
            Json::Number(v) if !v.is_finite() => Json::Null,
            Json::Array(items) => Json::Array(items.iter().map(finite_or_null).collect()),
            Json::Object(pairs) => Json::Object(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), finite_or_null(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]
        #[test]
        fn parse_never_panics_and_errors_or_round_trips(seed in 0u64..u64::MAX) {
            let mut gen = BodyGen::new(seed);
            let mut text = gen.body();
            // A second edit: a token spliced in at a random char boundary.
            if gen.below(2) == 0 {
                let mut at = gen.below(text.len() + 1);
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                let token = [
                    "\\u", "\\ud83d", "\u{1}", "é", "\"", "]", "}", "1e", "-", "[[", "{\"a\":",
                ][gen.below(11)];
                text.insert_str(at, token);
            }
            if let Ok(doc) = parse(&text) {
                let rendered = doc.to_string();
                prop_assert!(
                    parse(&rendered) == Ok(finite_or_null(&doc)),
                    "{text} rendered as {rendered}"
                );
            }
        }
    }

    #[test]
    fn write_string_escapes_like_a_char_walk() {
        // The escaping rules, one char at a time: the byte-for-byte
        // reference for the run-at-a-time writer.
        fn char_walk(s: &str) -> String {
            let mut out = String::from('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let parts = [
            "ab", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{1f}", "\u{7f}", "é", "😀", "",
        ];
        let mut gen = BodyGen::new(3);
        for _ in 0..2000 {
            let s: String = (0..gen.below(6))
                .map(|_| parts[gen.below(parts.len())])
                .collect();
            let mut out = String::new();
            write_string(&mut out, &s).unwrap();
            assert_eq!(out, char_walk(&s), "{s:?}");
        }
    }
}
