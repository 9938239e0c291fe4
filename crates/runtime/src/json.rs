//! The workspace's one JSON value: every report is built as a [`Json`],
//! written by [`Json::render`] and read back by [`parse`] (std only).
//! DESIGN §8 has the rules in prose: a node's [`Layout`] is fixed by the
//! code that builds it, never by the caller that renders it; numbers
//! print exactly as `format!` printed them before this module existed;
//! the reader is strict RFC 8259, its errors carry the byte offset they
//! were found at, and it never panics.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// How a node separates its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"a":1,"b":2}` — what the library types emit and digests hash.
    Compact,
    /// `{"a": 1, "b": 2}` — one report cell on one line.
    Line,
    /// One child per line, two spaces per level — a report's envelope.
    Block,
}

/// An object key: borrowed where code names the field, owned where the
/// reader met it.
pub type Key = Cow<'static, str>;

/// Deepest nesting [`parse`] follows (the reader recurses per level).
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Equality is by content: layout is ignored and numbers
/// compare by value whichever variant holds them, so
/// `parse(&v.render()) == Ok(v)` for every finite `v` whose `Fixed`
/// numbers have no digits past their precision.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A counter, exact over all of `u64`.
    U64(u64),
    /// A float printed as `{}` prints it.
    F64(f64),
    /// A float printed at a fixed number of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A string (escaped on the way out, decoded on the way in).
    Str(String),
    /// An array.
    Array(Layout, Vec<Json>),
    /// An object; keys keep the order they were given in.
    Object(Layout, Vec<(Key, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::U64(a), Json::U64(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Array(_, a), Json::Array(_, b)) => a == b,
            (Json::Object(_, a), Json::Object(_, b)) => a == b,
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                _ => false,
            },
        }
    }
}

macro_rules! json_from {
    ($($t:ty => $make:expr),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                $make(v)
            }
        }
    )*};
}
json_from!(bool => Json::Bool, f64 => Json::F64, u64 => Json::U64);
json_from!(u32 => |n| Json::U64(u64::from(n)), usize => |n| Json::U64(n as u64));
json_from!(&str => |s: &str| Json::Str(s.to_string()));

impl Json {
    /// An object of `fields`, in that order.
    pub fn object<K: Into<Key>>(
        layout: Layout,
        fields: impl IntoIterator<Item = (K, Json)>,
    ) -> Json {
        let fields = fields.into_iter().map(|(k, v)| (k.into(), v));
        Json::Object(layout, fields.collect())
    }

    /// `items` as a compact array of strings (violation and failure text).
    pub fn strings(items: &[String]) -> Json {
        let items = items.iter().map(|s| Json::Str(s.clone()));
        Json::Array(Layout::Compact, items.collect())
    }

    /// The fields of an object, in order.
    pub fn fields(&self) -> Option<&[(Key, Json)]> {
        match self {
            Json::Object(_, fields) => Some(fields),
            _ => None,
        }
    }

    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let (_, value) = self.fields()?.iter().find(|(k, _)| k == key)?;
        Some(value)
    }

    /// The items of an array.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Array(_, items) => Some(items),
            _ => None,
        }
    }

    /// The value of an unsigned integer that was written without a sign,
    /// fraction or exponent.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            _ => None,
        }
    }

    /// The value of any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::F64(x) | Json::Fixed(x, _) => Some(x),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The document as text, every node in its own layout (no trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    // `write!` into a `String` cannot fail.
    fn write(&self, out: &mut String, depth: usize) {
        let _ = match self {
            Json::Bool(b) => write!(out, "{b}"),
            Json::U64(n) => write!(out, "{n}"),
            Json::F64(x) if x.is_finite() => write!(out, "{x}"),
            Json::Fixed(x, decimals) if x.is_finite() => write!(out, "{:.*}", *decimals, x),
            Json::Null | Json::F64(_) | Json::Fixed(..) => write!(out, "null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(layout, items) => write_children(
                out,
                *layout,
                depth,
                ['[', ']'],
                items.iter().map(|v| (None, v)),
            ),
            Json::Object(layout, fields) => {
                let children = fields.iter().map(|(k, v)| (Some(k), v));
                write_children(out, *layout, depth, ['{', '}'], children)
            }
        };
    }
}

/// The children of one array or object (keyed or not) between `brackets`,
/// separated as `layout` says.
fn write_children<'a>(
    out: &mut String,
    layout: Layout,
    depth: usize,
    brackets: [char; 2],
    children: impl Iterator<Item = (Option<&'a Key>, &'a Json)>,
) -> fmt::Result {
    out.push(brackets[0]);
    let mut empty = true;
    for (key, value) in children {
        if !empty {
            out.push(',');
        }
        match layout {
            Layout::Block => write!(out, "\n{:1$}", "", 2 * (depth + 1))?,
            Layout::Line if !empty => out.push(' '),
            _ => {}
        }
        empty = false;
        if let Some(key) = key {
            write_str(out, key)?;
            out.push_str(if layout == Layout::Compact { ":" } else { ": " });
        }
        value.write(out, depth + 1);
    }
    if layout == Layout::Block && !empty {
        write!(out, "\n{:1$}", "", 2 * depth)?;
    }
    out.push(brackets[1]);
    Ok(())
}

/// The one escaper: `s` as a JSON string literal.
fn write_str(out: &mut String, s: &str) -> fmt::Result {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.push(c),
        }
    }
    out.push('"');
    Ok(())
}

/// Why [`parse`] refused its input, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input (at most its length).
    pub offset: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

/// Read one JSON document (every node comes back `Compact`).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    reader.skip_ws();
    if reader.pos < text.len() {
        return reader.err("trailing input");
    }
    Ok(value)
}

/// `pos` only ever stops on ASCII bytes or at the end, so it is always a
/// `char` boundary of `text`.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err<T>(&self, what: &'static str) -> Result<T, ParseError> {
        let offset = self.pos;
        Err(ParseError { offset, what })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return self.err("nested too deep");
        }
        match self.peek() {
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let words = [
                    ("null", Json::Null),
                    ("true", true.into()),
                    ("false", false.into()),
                ];
                for (word, value) in words {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                self.err("expected a value")
            }
        }
    }

    /// The comma-separated `item`s (each shown those before it) between
    /// the bracket at `pos` and `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self, &[T]) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.pos += 1;
        let mut items = Vec::new();
        let mut more = !self.eat(close);
        while more {
            let next = item(self, &items)?;
            items.push(next);
            more = self.eat(b',');
            if !more && !self.eat(close) {
                return self.err("expected `,` or the closing bracket");
            }
        }
        Ok(items)
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        let items = self.list(b']', |r, _| r.value(depth + 1))?;
        Ok(Json::Array(Layout::Compact, items))
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        let fields = self.list(b'}', |r, seen: &[(Key, Json)]| {
            r.skip_ws();
            let at = r.pos;
            if r.peek() != Some(b'"') {
                return r.err("expected a string key");
            }
            let key = r.string()?;
            if seen.iter().any(|(k, _)| *k == key) {
                r.pos = at;
                return r.err("duplicate key");
            }
            if !r.eat(b':') {
                return r.err("expected `:`");
            }
            Ok((key.into(), r.value(depth + 1)?))
        })?;
        Ok(Json::Object(Layout::Compact, fields))
    }

    /// The string whose opening quote is at `pos`, decoded.
    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return self.err("raw control byte in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The character the backslash at `pos` introduces.
    fn escape(&mut self) -> Result<char, ParseError> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return self.err("unpaired surrogate (ends here)");
                    }
                    code = 0x10000 + ((code & 0x3FF) << 10) + (low & 0x3FF);
                }
                return match char::from_u32(code) {
                    Some(c) => Ok(c),
                    None => self.err("unpaired surrogate (ends here)"),
                };
            }
            _ => return self.err("unknown escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let digits = digits.filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        match digits.and_then(|d| u32::from_str_radix(d, 16).ok()) {
            Some(code) => {
                self.pos += 4;
                Ok(code)
            }
            None => self.err("expected four hex digits"),
        }
    }

    fn digits(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return self.err("expected a digit");
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let mut integer = !self.eat(b'-');
        let first = self.pos;
        self.digits()?;
        if self.text[first..].starts_with('0') && self.pos > first + 1 {
            self.pos = first;
            return self.err("leading zero");
        }
        if self.peek() == Some(b'.') {
            integer = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        if let (true, Ok(n)) = (integer, text.parse()) {
            return Ok(Json::U64(n));
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::F64(x)),
            _ => {
                self.pos = start;
                self.err("number out of range")
            }
        }
    }
}
