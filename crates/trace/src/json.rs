//! A minimal JSON renderer and parser.
//!
//! No JSON library is available offline, so traces and manifests are
//! rendered by hand and validated with this parser. It supports the full
//! JSON value grammar minus exotic number forms (good enough to
//! round-trip everything this crate emits); it is not a general-purpose
//! JSON library.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also produced for non-finite floats on the render side).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order (keys may repeat; first wins in
    /// [`Value::get`]).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Append `x` to `out` as a JSON number. Non-finite values (which JSON
/// cannot represent) render as `null`.
pub fn push_f64(out: &mut String, x: f64) {
    use std::fmt::Write as _;
    if x.is_finite() {
        // Rust's shortest-roundtrip Display is deterministic, but bare
        // integers ("3") are also valid JSON numbers, so nothing extra
        // is needed.
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Append `s` to `out` with JSON string escaping (no surrounding quotes).
pub(crate) fn escape_into(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render `s` as a quoted, escaped JSON string.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// A parse failure: byte offset plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub(crate) at: usize,
    /// What went wrong.
    pub(crate) msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let a hostile document
/// overflow the stack; every document this workspace writes nests a few
/// levels deep.
pub(crate) const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign (`\u+abc`).
                            let mut code = 0;
                            for &h in hex {
                                let digit = (h as char)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("bad \\u hex"))?;
                                code = code * 16 + digit;
                            }
                            self.pos += 4;
                            // Surrogate pairs are not emitted by this
                            // crate; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Skip a run of decimal digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number as RFC 8259 §6 defines it:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. A leading
    /// zero ends the integer part, so `01` leaves a stray `1` behind.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("bad number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("bad number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("bad number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        match text.parse::<f64>() {
            // JSON has no infinity: a literal past `f64`'s range (`1e309`)
            // would otherwise parse as one and render back as `null`.
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let doc = open.repeat(200_000);
            let err = parse(&doc).expect_err("200 000 levels must be rejected");
            assert_eq!(err.msg, "nesting too deep");
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past).is_err());
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":"x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
        assert_eq!(parse("1e309").unwrap_err().msg, "number out of range");
        assert_eq!(parse("[-1e999]").unwrap_err().msg, "number out of range");
        assert_eq!(parse("1.7976931348623157e308"), Ok(Value::Number(f64::MAX)));
    }

    #[test]
    fn numbers_and_escapes_follow_rfc_8259() {
        for bad in [
            "01", "-01", "00", "1.", "-.5", ".5", "1.e5", "1e", "1e+", "+1", "-", "--1", "0x10",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
            assert!(
                parse(&format!("[{bad}]")).is_err(),
                "`[{bad}]` must not parse"
            );
        }
        for (good, v) in [
            ("0", 0.0),
            ("-0.0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-1.25e-2", -0.0125),
            ("2E+3", 2000.0),
            ("7e0", 7.0),
        ] {
            assert_eq!(parse(good), Ok(Value::Number(v)), "{good}");
        }
        for bad in [r#""\u+abc""#, r#""\u-abc""#, r#""\u 123""#, r#""\u12g4""#] {
            assert_eq!(parse(bad).unwrap_err().msg, "bad \\u hex", "{bad}");
        }
        assert_eq!(parse(r#""\u00e9\u00C9""#), Ok(Value::String("éÉ".into())));
    }

    #[test]
    fn quote_round_trips_through_parse() {
        let original = "weird \"stuff\"\t\\ \u{1} ok";
        let quoted = quote(original);
        let v = parse(&quoted).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut s = String::new();
        push_f64(&mut s, f64::NAN);
        s.push(' ');
        push_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "null null");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// `v` rendered with the crate's writers (`quote`, `push_f64`).
        fn write(v: &Value, out: &mut String) {
            match v {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Number(n) => push_f64(out, *n),
                Value::String(s) => out.push_str(&quote(s)),
                Value::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write(item, out);
                    }
                    out.push(']');
                }
                Value::Object(fields) => {
                    out.push('{');
                    for (i, (k, item)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&quote(k));
                        out.push(':');
                        write(item, out);
                    }
                    out.push('}');
                }
            }
        }

        /// Either an error, or a value that the writers render into a
        /// document parsing back to the same value.
        fn fails_or_round_trips(text: &str) {
            if let Ok(v) = parse(text) {
                let mut written = String::new();
                write(&v, &mut written);
                prop_assert_eq!(parse(&written), Ok(v), "{:?} wrote {:?}", text, written);
            }
        }

        /// Scalars of JSON's own alphabet: literals, numbers at the edges
        /// of `f64`, strings with every escape form.
        const SCALARS: &[&str] = &[
            "null",
            "true",
            "false",
            "0",
            "-0",
            "7.25",
            "1e5",
            "-0.5E+3",
            "5e-324",
            "1.7976931348623157e308",
            r#""""#,
            r#""k""#,
            r#""\n\t\"\\\/""#,
            r#""é\u0001""#,
            r#""\ud800""#,
            "\"é\u{1}\"",
        ];
        /// Strays that break the grammar: one past `f64`'s range, cut
        /// literals and escapes, unbalanced structure.
        const STRAYS: &[&str] = &[
            "1e309",
            "-1e999",
            "nul",
            "1e",
            "-",
            ".5",
            "01",
            "1.",
            "-.5",
            "1.e5",
            r#""\u+abc""#,
            r#""\q""#,
            r#""\u12""#,
            "\"",
            "{",
            "]",
            ",",
            ":",
            "x",
        ];

        /// A document built from `choices`: arrays and objects up to four
        /// deep around scalars, with a stray now and then, and
        /// whitespace between tokens.
        fn document(choices: &[u8]) -> String {
            fn value(it: &mut std::slice::Iter<'_, u8>, depth: usize, out: &mut String) {
                let c = it.next().copied().unwrap_or(2);
                let n = it.next().copied().unwrap_or(0) as usize;
                match c % 32 {
                    0..=5 if depth < 4 => {
                        let object = c % 2 == 1;
                        out.push(if object { '{' } else { '[' });
                        for i in 0..n % 4 {
                            if i > 0 {
                                out.push_str([",", " ,\n", ", "][n % 3]);
                            }
                            if object {
                                out.push_str(SCALARS[10 + n % 3]);
                                out.push(':');
                            }
                            value(it, depth + 1, out);
                        }
                        out.push(if object { '}' } else { ']' });
                    }
                    6 => out.push_str(STRAYS[n % STRAYS.len()]),
                    _ => out.push_str(SCALARS[n % SCALARS.len()]),
                }
            }
            let mut out = String::new();
            value(&mut choices.iter(), 0, &mut out);
            out
        }

        /// Pieces of a number, each with whether RFC 8259 allows it in
        /// its place: sign, integer part, fraction, exponent.
        const SIGNS: &[(&str, bool)] = &[("", true), ("-", true), ("+", false), ("--", false)];
        const INTS: &[(&str, bool)] = &[
            ("0", true),
            ("7", true),
            ("120", true),
            ("", false),
            ("00", false),
            ("01", false),
        ];
        const FRACS: &[(&str, bool)] = &[
            ("", true),
            (".5", true),
            (".05", true),
            (".", false),
            ("..5", false),
        ];
        const EXPS: &[(&str, bool)] = &[
            ("", true),
            ("e3", true),
            ("E+12", true),
            ("e-0", true),
            ("e", false),
            ("e+", false),
            ("E3.5", false),
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            /// A number built from pieces parses exactly when every piece
            /// is one the grammar allows, to the value `f64` reads from
            /// the same text.
            #[test]
            fn numbers_parse_exactly_when_the_grammar_allows(
                pick in prop::collection::vec(any::<u8>(), 4..5),
            ) {
                let parts = [SIGNS, INTS, FRACS, EXPS]
                    .iter()
                    .zip(&pick)
                    .map(|(set, &p)| set[p as usize % set.len()]);
                let (mut text, mut valid) = (String::new(), true);
                for (piece, ok) in parts {
                    text.push_str(piece);
                    valid &= ok;
                }
                match parse(&text) {
                    Ok(v) => {
                        prop_assert!(valid, "{:?} parsed to {:?}", text, v);
                        prop_assert_eq!(v, Value::Number(text.parse().unwrap()));
                    }
                    Err(e) => prop_assert!(!valid, "{:?} rejected: {}", text, e.msg),
                }
            }

            /// A `\u` escape parses exactly when its four characters are
            /// hex digits.
            #[test]
            fn unicode_escapes_need_four_hex_digits(
                pick in prop::collection::vec(any::<u8>(), 4..5),
            ) {
                const ALPHABET: &[u8] = b"09afAFg+- x";
                let hex: String = pick
                    .iter()
                    .map(|&p| ALPHABET[p as usize % ALPHABET.len()] as char)
                    .collect();
                let valid = hex.chars().all(|c| c.is_ascii_hexdigit());
                let parsed = parse(&format!("\"\\u{hex}\""));
                prop_assert_eq!(parsed.is_ok(), valid, "\\u{}: {:?}", hex, parsed);
                if let Ok(Value::String(s)) = parsed {
                    let code = u32::from_str_radix(&hex, 16).unwrap();
                    prop_assert_eq!(s.chars().next(), Some(char::from_u32(code).unwrap_or('\u{fffd}')));
                }
            }

            #[test]
            fn arbitrary_bytes_fail_or_round_trip(
                bytes in prop::collection::vec(any::<u8>(), 0..48),
            ) {
                fails_or_round_trips(&String::from_utf8_lossy(&bytes));
            }

            #[test]
            fn grammar_shaped_documents_fail_or_round_trip(
                choices in prop::collection::vec(any::<u8>(), 1..64),
            ) {
                fails_or_round_trips(&document(&choices));
            }
        }
    }
}
