//! The workspace's one JSON codec, used by every artifact it reads or
//! writes: traces, telemetry, flight dumps, anomaly digests, provenance
//! records, profiles, metrics, corpus documents, `BENCH_*.json`, and the
//! daemon's wire protocol.
//!
//! The workspace builds offline (no serde), so it carries its own small
//! codec, and it round-trips: [`Json::parse`] accepts everything
//! [`Json`]'s `Display` produces (and standard JSON generally).
//! `Display` is compact (no spaces), keeps object keys in insertion
//! order, and escapes `"`, `\` and every control character, so encoders
//! that build a [`Json`] value get canonical bytes for free.
//! Non-negative integer literals parse into [`Json::UInt`], so `u64`
//! payloads — RNG seeds, guard limits — survive exactly, never through
//! an `f64`.
//!
//! Decoders read fields through the `req_*` helpers, whose errors name
//! the offending key; JSONL formats read lines through a `JsonlReader`,
//! which checks the header line's type tag and schema version.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// A parse failure at a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was expected or found.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An empty object builder.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object (panics on non-objects — builder misuse).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on non-object"),
        }
        self
    }

    /// Adds a field only when `value` is `Some`: optional fields are
    /// omitted, not written as `null`.
    #[must_use]
    pub fn field_opt(self, key: &str, value: Option<impl Into<Json>>) -> Json {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Member of an object by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact unsigned payload ([`Json::UInt`] or an integral `Num`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < 1.8446744073709552e19 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// Numeric payload as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Boolean payload.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Optional member `key`: `None` when absent or `null`, otherwise
    /// read with `read` (one of the `req_*` helpers), e.g.
    /// `doc.opt("parent", Json::req_uint)`.
    ///
    /// # Errors
    ///
    /// Whatever `read` reports for a present member.
    pub fn opt<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(_) => read(self, key).map(Some),
        }
    }

    /// Member `key`, or an error naming it.
    ///
    /// # Errors
    ///
    /// `missing field "<key>"`.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// String member `key`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not a string.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field {key:?}"))
    }

    /// Unsigned integer member `key`, converted to `T` (`u64`, `u32`,
    /// `usize`, ...) with a range check — never a silent truncation.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent, not an unsigned integer, or out
    /// of `T`'s range.
    pub fn req_uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let v = self
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing integer field {key:?}"))?;
        T::try_from(v).map_err(|_| {
            format!(
                "field {key:?} = {v} does not fit {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// Numeric member `key` as `f64`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not a number.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field {key:?}"))
    }

    /// Boolean member `key`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not a boolean.
    pub fn req_bool(&self, key: &str) -> Result<bool, String> {
        self.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("missing bool field {key:?}"))
    }

    /// Array member `key`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not an array.
    pub fn req_arr(&self, key: &str) -> Result<&[Json], String> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array field {key:?}"))
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns the first [`JsonError`] with its byte offset.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(u64::from(v))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(v) => write!(f, "{v}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n:?}")
                }
            }
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Renders records as JSONL: one compact document per line, each
/// newline-terminated.
pub(crate) fn jsonl(records: impl IntoIterator<Item = Json>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for record in records {
        let _ = writeln!(out, "{record}");
    }
    out
}

/// Reads a JSONL document record by record: blank lines are skipped,
/// every other line must be one JSON document, and errors carry the
/// format name and 1-based line number (`"trace line 3: ..."`).
pub(crate) struct JsonlReader<'a> {
    what: &'static str,
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    read: usize,
}

impl<'a> JsonlReader<'a> {
    /// A reader over `text`, naming the format `what` in errors.
    pub(crate) fn new(what: &'static str, text: &'a str) -> JsonlReader<'a> {
        JsonlReader {
            what,
            lines: text.lines().enumerate(),
            read: 0,
        }
    }

    /// `e` prefixed with the format name and line number.
    pub(crate) fn at(&self, lineno: usize, e: impl fmt::Display) -> String {
        format!("{} line {lineno}: {e}", self.what)
    }

    /// The next record and its line number; `None` at end of input.
    pub(crate) fn record(&mut self) -> Option<Result<(usize, Json), String>> {
        let (idx, line) = self.lines.find(|(_, l)| !l.trim().is_empty())?;
        self.read += 1;
        Some(
            Json::parse(line)
                .map(|v| (idx + 1, v))
                .map_err(|e| self.at(idx + 1, e)),
        )
    }

    /// Reads the header record `{"type":<tag>,"v":<version>,...}` and
    /// decodes its remaining fields with `decode`.
    pub(crate) fn header<T>(
        &mut self,
        tag: &str,
        version: u64,
        decode: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<T, String> {
        let what = self.what;
        let Some(record) = self.record() else {
            return Err(if self.read == 0 {
                format!("{what}: empty input (missing header line)")
            } else {
                format!("{what}: input ends before the {tag:?} header line")
            });
        };
        let (lineno, head) = record?;
        if head.get("type").and_then(Json::as_str) != Some(tag) {
            return Err(self.at(
                lineno,
                format!("expected the header {{\"type\":\"{tag}\",...}}"),
            ));
        }
        match head.get("v").and_then(Json::as_u64) {
            Some(v) if v == version => decode(&head).map_err(|e| self.at(lineno, e)),
            Some(v) => Err(format!(
                "{what}: unsupported schema version {v} (expected {version})"
            )),
            None => Err(format!("{what}: header missing integer field \"v\"")),
        }
    }

    /// Feeds every remaining record to `decode`, prefixing its errors
    /// with the record's line.
    pub(crate) fn each(
        &mut self,
        mut decode: impl FnMut(&Json) -> Result<(), String>,
    ) -> Result<(), String> {
        while let Some(record) = self.record() {
            let (lineno, obj) = record?;
            decode(&obj).map_err(|e| self.at(lineno, e))?;
        }
        Ok(())
    }
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so an unbounded depth would let a hostile line such as
/// `[[[[...` overflow the stack; no format this codec reads nests
/// anywhere near this deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            at: self.pos,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain UTF-8 up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v << 4 | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number chars are ascii");
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError {
                at: start,
                reason: format!("invalid number {text:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_structures() {
        let doc = Json::obj()
            .field("name", "a\"b\\c\nd")
            .field("big", 0xFFFF_FFFF_FFFF_FFFFu64)
            .field("frac", 1.5f64)
            .field("neg", -3.0f64)
            .field("ok", true)
            .field("none", Json::Null)
            .field("list", vec![1u64, 2, 3])
            .field("nested", Json::obj().field("k", "v"));
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.to_string(), text, "printing is canonical");
    }

    #[test]
    fn u64_values_survive_exactly() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v, Json::UInt(u64::MAX));
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn accepts_standard_json_flourishes() {
        let v =
            Json::parse("  { \"a\" : [ 1 , 2.5e1 , -4 ] , \"s\" : \"x\\u0041\\ud83d\\ude00/\" }  ")
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(25.0)
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("xA😀/"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "nul",
            "{",
            "[1,",
            "{\"a\":}",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "--1",
            "\"\\q\"",
            "01e",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Nesting is capped (an error, not a stack overflow); documents
        // at the cap still parse.
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&"[{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.at, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
