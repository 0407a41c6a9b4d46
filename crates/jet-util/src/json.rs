//! One JSON module: a streaming [`Writer`], a [`Json`] value type and a
//! strict [`parse`]r.
//!
//! The workspace carries no serde. Every machine-readable file the benches
//! write goes through [`Writer`], so all of them share one layout:
//!
//! * `", "` between members and elements, `": "` after a key;
//! * the root object, and every array whose elements are objects, put one
//!   member or element per line, indented two spaces per such level;
//!   everything else stays on its line;
//! * integers print exactly; a float prints its shortest round-trip digits,
//!   as an integer when it holds one below 2^53, and `null` when it is not
//!   finite;
//! * strings escape `"`, `\` and the control characters.
//!
//! The writer streams into a `String`, so a 100 MB Chrome trace is never a
//! value tree. [`Json`] and [`parse`] read a document back (tests check
//! artifacts with them); `Display for Json` goes through the writer, so
//! there is one layout code path.

use std::fmt::{self, Write as _};
use std::ops::Index;

/// A value that writes itself as exactly one JSON value.
pub trait ToJson {
    fn write_json(&self, w: &mut Writer<'_>);
}

/// `v` as a document: its layout plus a final newline.
pub fn render(v: impl ToJson) -> String {
    document(|w| {
        w.item(v);
    })
}

/// The one value `f` writes, as a document with a final newline.
pub fn document(f: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    f(&mut Writer {
        out: &mut out,
        open: Vec::new(),
    });
    out.push('\n');
    out
}

/// Every integer below this magnitude is exact as an `f64`.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Streams one JSON value into a `String`, placing separators, line breaks
/// and escapes. Containers are written by closures, so they always close.
pub struct Writer<'a> {
    out: &'a mut String,
    /// The containers around the cursor, innermost last.
    open: Vec<Open>,
}

struct Open {
    object: bool,
    /// One member or element per line.
    multiline: bool,
    /// Members or elements written so far.
    len: usize,
}

impl Writer<'_> {
    /// An object whose members `f` writes with [`Writer::field`] or
    /// [`Writer::key`].
    pub fn obj(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.begin_value(true);
        let multiline = self.open.is_empty();
        self.nest(['{', '}'], true, multiline, f)
    }

    /// An array whose elements `f` writes with [`Writer::item`].
    pub fn arr(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.begin_value(false);
        self.nest(['[', ']'], false, false, f)
    }

    /// An array of `items`.
    pub fn items<T: ToJson>(&mut self, items: impl IntoIterator<Item = T>) -> &mut Self {
        self.arr(|w| {
            for v in items {
                w.item(v);
            }
        })
    }

    /// An object of `(key, value)` pairs, in order.
    pub fn pairs<'p, K, V>(&mut self, pairs: impl IntoIterator<Item = &'p (K, V)>) -> &mut Self
    where
        K: AsRef<str> + 'p,
        V: ToJson + 'p,
    {
        self.obj(|w| {
            for (k, v) in pairs {
                w.field(k.as_ref(), v);
            }
        })
    }

    /// Starts a member of the enclosing object; the next value written is
    /// its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        let top = self.open.last_mut().expect("a key outside any object");
        assert!(top.object, "a key inside an array");
        top.len += 1;
        let (first, multiline) = (top.len == 1, top.multiline);
        self.separate(first, multiline);
        self.string(key);
        self.out.push_str(": ");
        self
    }

    /// One member: `key` and its value.
    pub fn field(&mut self, key: &str, v: impl ToJson) -> &mut Self {
        self.key(key).item(v)
    }

    /// One value: an array element, or the value of the last key.
    pub fn item(&mut self, v: impl ToJson) -> &mut Self {
        v.write_json(self);
        self
    }

    /// A container `f` fills; its closing bracket goes on a line of its own
    /// when its entries did.
    fn nest(
        &mut self,
        [open, close]: [char; 2],
        object: bool,
        multiline: bool,
        f: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.out.push(open);
        self.open.push(Open {
            object,
            multiline,
            len: 0,
        });
        f(self);
        let top = self.open.pop().expect("pushed above");
        if top.multiline && top.len > 0 {
            self.newline();
        }
        self.out.push(close);
        self
    }

    /// Places the separator before a value. Inside an object `key` already
    /// did; an array turns multi-line when its first element is an object.
    fn begin_value(&mut self, object: bool) {
        let Some(top) = self.open.last_mut().filter(|top| !top.object) else {
            return;
        };
        if top.len == 0 {
            top.multiline = object;
        }
        top.len += 1;
        let (first, multiline) = (top.len == 1, top.multiline);
        self.separate(first, multiline);
    }

    fn separate(&mut self, first: bool, multiline: bool) {
        if !first {
            self.out.push(',');
        }
        if multiline {
            self.newline();
        } else if !first {
            self.out.push(' ');
        }
    }

    /// A line break, indented two spaces per open multi-line container.
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in self.open.iter().filter(|o| o.multiline) {
            self.out.push_str("  ");
        }
    }

    fn raw(&mut self, text: fmt::Arguments<'_>) {
        self.begin_value(false);
        let _ = self.out.write_fmt(text);
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[start..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.begin_value(false);
        w.string(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer<'_>) {
        self.as_str().write_json(w);
    }
}

/// Types whose `Display` text is already their JSON text.
macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer<'_>) {
                w.raw(format_args!("{self}"));
            }
        }
    )*};
}
display_to_json!(bool, u32, u64, usize, i64, i128);

impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer<'_>) {
        let v = *self;
        if !v.is_finite() {
            w.raw(format_args!("null"));
        } else if v.fract() == 0.0 && v.abs() < EXACT_INT {
            w.raw(format_args!("{}", v as i64));
        } else {
            // `{:?}` is the shortest repr that parses back to `v`, with an
            // exponent where plain digits would run long: valid JSON.
            w.raw(format_args!("{v:?}"));
        }
    }
}

/// `None` writes `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer<'_>) {
        match self {
            Some(v) => v.write_json(w),
            None => w.raw(format_args!("null")),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.items(self);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.items(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer<'_>) {
        (**self).write_json(w);
    }
}

// ------------------------------------------------------------------ value

/// A parsed JSON document. Objects keep their members in document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Any integer in `i64::MIN..=u64::MAX`, exactly.
    Int(i128),
    /// A number with a fraction or an exponent, or outside the `Int` range.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Any number, as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// `doc["key"]`: the member, or `Null` when there is none.
impl Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        let member = self.as_obj().and_then(|m| m.iter().find(|(k, _)| k == key));
        member.map_or(&NULL, |(_, v)| v)
    }
}

/// `doc[i]`: the element, or `Null` when there is none.
impl Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        self.as_arr().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl ToJson for Json {
    fn write_json(&self, w: &mut Writer<'_>) {
        match self {
            Json::Null => w.item(None::<bool>),
            Json::Bool(b) => w.item(b),
            Json::Int(i) => w.item(i),
            Json::Float(f) => w.item(f),
            Json::Str(s) => w.item(s),
            Json::Arr(items) => w.items(items),
            Json::Obj(members) => w.pairs(members),
        };
    }
}

/// The writer's layout, without the document's final newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(render(self).trim_end_matches('\n'))
    }
}

// ----------------------------------------------------------------- parser

/// Where and why a document failed to parse.
#[derive(Debug, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    pub message: &'static str,
}

/// Parses one RFC 8259 document: no leading zeros, no bare `.`, no raw
/// control characters in strings, surrogate pairs decoded and lone
/// surrogates rejected, nothing after the value but whitespace.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing data after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        let (word, v) = match self.peek() {
            Some(b'{') => return self.list(b'}', Self::member).map(Json::Obj),
            Some(b'[') => return self.list(b']', Self::value).map(Json::Arr),
            Some(b'"') => return self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b't') => ("true", Json::Bool(true)),
            Some(b'f') => ("false", Json::Bool(false)),
            _ => ("null", Json::Null),
        };
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.err("expected a value"));
        }
        self.pos += word.len();
        Ok(v)
    }

    /// The comma-separated entries of an array or an object, each read by
    /// `entry`, through the `close` bracket.
    fn list<T>(
        &mut self,
        close: u8,
        entry: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(entries);
        }
        loop {
            entries.push(entry(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(entries);
            }
            self.expect(b',', "expected ',' or a closing bracket")?;
        }
    }

    fn member(&mut self) -> Result<(String, Json), ParseError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':', "expected ':'")?;
        Ok((key, self.value()?))
    }

    /// One or more digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        // Only a token without a fraction or an exponent parses as an i128.
        let token = &self.text[start..self.pos];
        match (token.parse::<i128>(), token.parse::<f64>()) {
            (Ok(i), _) if (i64::MIN as i128..=u64::MAX as i128).contains(&i) => Ok(Json::Int(i)),
            (_, Ok(f)) if f.is_finite() => Ok(Json::Float(f)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            // Every byte that ends a run is ASCII, so it is a char boundary.
            let rest = &self.text.as_bytes()[self.pos..];
            let Some(run) = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            match rest[run] {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => return Err(self.err("control character in a string")),
            }
        }
    }

    /// The character of one escape, its backslash already consumed.
    fn escape(&mut self) -> Result<char, ParseError> {
        let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                // A surrogate still here was not half of a pair.
                char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))?
            }
            _ => return Err(self.err("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("malformed \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn layout_breaks_the_root_and_arrays_of_objects_only() {
        let doc = document(|w| {
            w.obj(|w| {
                w.field("name", "a\"b\\c\n\u{1}")
                    .field("ticks", [1u64, 2, 3].as_slice())
                    .key("empty")
                    .arr(|_| {})
                    .key("runs")
                    .arr(|w| {
                        w.obj(|w| {
                            w.field("x", 1.5)
                                .field("y", Some(2u32))
                                .key("rows")
                                .arr(|w| {
                                    w.obj(|w| {
                                        w.field("z", None::<u64>);
                                    });
                                });
                        });
                        w.obj(|_| {});
                    });
            });
        });
        let want = "{\n  \"name\": \"a\\\"b\\\\c\\n\\u0001\",\n  \"ticks\": [1, 2, 3],\n  \
                    \"empty\": [],\n  \"runs\": [\n    {\"x\": 1.5, \"y\": 2, \"rows\": [\n      \
                    {\"z\": null}\n    ]},\n    {}\n  ]\n}\n";
        assert_eq!(doc, want);
        assert_eq!(render(Json::Obj(Vec::new())), "{}\n");
    }

    #[test]
    fn floats_print_shortest_and_integral_ones_as_integers() {
        let shown = |v: f64| Json::Float(v).to_string();
        assert_eq!(shown(0.1), "0.1");
        assert_eq!(shown(2.0), "2");
        assert_eq!(shown(-0.0), "0");
        assert_eq!(shown(1e300), "1e300");
        assert_eq!(shown(1.5e-7), "1.5e-7");
        assert_eq!(shown(9_007_199_254_740_992.0), "9007199254740992.0");
    }

    #[test]
    fn non_finite_floats_write_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(render(f64::INFINITY), "null\n");
        let row = Json::Arr(vec![Json::Float(f64::NEG_INFINITY), Json::Int(1)]);
        assert_eq!(row.to_string(), "[null, 1]");
    }

    #[test]
    fn integers_round_trip_exactly_at_the_extremes() {
        for v in [Json::Int(u64::MAX as i128), Json::Int(i64::MIN as i128)] {
            assert_eq!(parse(&v.to_string()), Ok(v.clone()));
        }
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        // One past u64::MAX no longer fits an integer.
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Json::Float(18_446_744_073_709_551_616.0))
        );
    }

    #[test]
    fn parser_reads_documents_and_indexes_them() {
        let doc =
            parse(r#" {"a": [1, -2.5, 1e3], "b": "x\"\\\nA\/", "c": null, "d": true} "#).unwrap();
        assert_eq!(doc["a"][2], Json::Float(1000.0));
        assert_eq!(doc["a"][1].as_f64(), Some(-2.5));
        assert_eq!(doc["b"].as_str(), Some("x\"\\\nA/"));
        assert_eq!(doc["c"], Json::Null);
        assert_eq!(doc["d"], Json::Bool(true));
        assert_eq!(doc["missing"][7], Json::Null);
        assert_eq!(parse("[[], {}, false]").unwrap()[2], Json::Bool(false));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "tru",
            "nul",
            "{} trailing",
            "\"open",
            "[01]",
            "[1.]",
            "[-.5]",
            "[-]",
            "[+1]",
            "[1e]",
            "[1e400]",
            "\"raw\ncontrol\"",
            "\"\\x\"",
            "\"\\u+abc\"",
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Json::Str("😀".into())));
        assert_eq!(parse(r#""\u00e9\u4e2d""#), Ok(Json::Str("é中".into())));
    }

    /// Random JSON trees, at most `depth` containers deep.
    struct Trees {
        depth: u32,
    }

    impl Strategy for Trees {
        type Value = Json;
        fn gen_value(&self, rng: &mut TestRng) -> Json {
            tree(rng, self.depth)
        }
    }

    fn tree(rng: &mut TestRng, depth: u32) -> Json {
        let kinds = if depth == 0 { 6 } else { 8 };
        match rng.next_below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::Int(match rng.next_below(4) {
                0 => u64::MAX as i128,
                1 => i64::MIN as i128,
                2 => rng.next_u64() as i128,
                _ => rng.next_u64() as i64 as i128,
            }),
            3 => loop {
                let f = match rng.next_below(2) {
                    0 => f64::from_bits(rng.next_u64()),
                    _ => (rng.next_f64() - 0.5) * 1e6,
                };
                // The writer prints an integral float below 2^53 as an
                // integer, which parses back as `Int`.
                if f.fract() == 0.0 && f.abs() < EXACT_INT {
                    break Json::Int(f as i128);
                } else if f.is_finite() {
                    break Json::Float(f);
                }
            },
            4 | 5 => Json::Str(text(rng)),
            6 => Json::Arr(
                (0..rng.next_below(4))
                    .map(|_| tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.next_below(4))
                    .map(|_| (text(rng), tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn text(rng: &mut TestRng) -> String {
        const POOL: [char; 14] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '中', '😀',
        ];
        (0..rng.next_below(8))
            .map(|_| POOL[rng.next_below(POOL.len() as u64) as usize])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn written_documents_parse_back_to_the_same_value(v in Trees { depth: 4 }) {
            prop_assert_eq!(parse(&v.to_string()), Ok(v.clone()));
            prop_assert_eq!(parse(&render(&v)), Ok(v));
        }
    }
}
