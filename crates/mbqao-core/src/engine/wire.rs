//! Minimal JSON wire format for shard jobs and results.
//!
//! The build environment is offline (no serde); this module implements
//! exactly the JSON subset the shard protocol needs: objects, arrays,
//! strings, integers, booleans and null. Two deliberate departures from
//! general-purpose JSON keep the protocol **bit-for-bit** across
//! process boundaries:
//!
//! * floats are never written as decimal literals — [`Value::f64_bits`]
//!   encodes the IEEE-754 bit pattern as a tagged hex string
//!   (`"f64:3fe0000000000000"`), so a value survives the round trip
//!   exactly (including `-0.0`, subnormals, and NaN payloads), and
//! * object keys keep their insertion order, so re-serialization of a
//!   parsed value is byte-identical and results can be compared as
//!   strings.
//!
//! The parser rejects decimal float literals outright: a truncated or
//! hand-edited payload fails loudly instead of silently rounding. It
//! also rejects arrays and objects nested deeper than [`MAX_DEPTH`], so
//! a hostile frame cannot overflow the reading thread's stack.
//!
//! For long-lived connections (the `mbqao-serve` orchestrator), values
//! travel as **newline-delimited frames**: one compact JSON document
//! per line ([`write_frame`] / [`read_frame`]). Compact serialization
//! never emits a raw newline (control characters are escaped), so the
//! framing is unambiguous; blank lines are ignored as keep-alives.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// A JSON value (see module docs for the deliberate restrictions).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the only numeric literal the protocol uses).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered (not sorted, not deduplicated).
    Obj(Vec<(String, Value)>),
}

/// Errors from [`Value::parse`] or the typed accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// The deepest nesting of arrays and objects [`Value::parse`] accepts.
/// The protocol's own frames nest about 4 levels; the parser recurses
/// once per level, and this bound keeps that recursion far inside any
/// thread's stack.
pub const MAX_DEPTH: usize = 128;

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

impl Value {
    /// Encodes an `f64` as its exact bit pattern (tagged hex string).
    pub fn f64_bits(x: f64) -> Value {
        Value::Str(format!("f64:{:016x}", x.to_bits()))
    }

    /// Encodes a `usize` (fits: the protocol never exceeds `i64`).
    ///
    /// # Panics
    /// Panics if `x` exceeds `i64::MAX` (impossible for the index
    /// spaces the shard layer partitions).
    pub fn uint(x: usize) -> Value {
        Value::Int(i64::try_from(x).expect("index space exceeds i64"))
    }

    /// Builds an object from entries (order preserved).
    pub fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Decodes a [`Value::f64_bits`] string.
    pub fn as_f64_bits(&self) -> Result<f64, WireError> {
        match self {
            Value::Str(s) => match s.strip_prefix("f64:") {
                Some(hex) if hex.len() == 16 => u64::from_str_radix(hex, 16)
                    .map(f64::from_bits)
                    .map_err(|e| WireError(format!("bad f64 bits {s:?}: {e}"))),
                _ => err(format!("expected \"f64:<16 hex digits>\", got {s:?}")),
            },
            other => err(format!("expected f64-bits string, got {other:?}")),
        }
    }

    /// The value as an integer.
    pub fn as_int(&self) -> Result<i64, WireError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => err(format!("expected integer, got {other:?}")),
        }
    }

    /// The value as a `usize`.
    pub fn as_uint(&self) -> Result<usize, WireError> {
        usize::try_from(self.as_int()?).map_err(|_| WireError("negative index".into()))
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, WireError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {other:?}")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, WireError> {
        match self {
            Value::Str(s) => Ok(s),
            other => err(format!("expected string, got {other:?}")),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Value], WireError> {
        match self {
            Value::Arr(a) => Ok(a),
            other => err(format!("expected array, got {other:?}")),
        }
    }

    /// Looks up a required object field.
    pub fn field(&self, key: &str) -> Result<&Value, WireError> {
        match self {
            Value::Obj(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| WireError(format!("missing field {key:?}"))),
            other => err(format!("expected object with field {key:?}, got {other:?}")),
        }
    }

    /// Encodes a `&[f64]` bit-exactly.
    pub fn f64_array(xs: &[f64]) -> Value {
        Value::Arr(xs.iter().map(|&x| Value::f64_bits(x)).collect())
    }

    /// Decodes an array of [`Value::f64_bits`] entries.
    pub fn as_f64_array(&self) -> Result<Vec<f64>, WireError> {
        self.as_arr()?.iter().map(Value::as_f64_bits).collect()
    }

    /// Serializes to compact JSON (no whitespace, keys in insertion
    /// order — re-serializing a parsed value is byte-identical).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing garbage is an error —
    /// a truncated stream therefore never parses as a shorter value).
    pub fn parse(input: &str) -> Result<Value, WireError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Writes `v` as one newline-delimited frame and flushes, so a peer
/// reading line-by-line sees the frame immediately (streamed partial
/// results must not sit in a BufWriter).
pub fn write_frame<W: Write>(w: &mut W, v: &Value) -> std::io::Result<()> {
    let mut line = v.to_json();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Reads the next newline-delimited frame: `None` at EOF, otherwise
/// the parsed [`Value`] (or the parse/IO error, as a [`WireError`]).
/// Blank lines are skipped.
pub fn read_frame<R: BufRead>(r: &mut R) -> Option<Result<Value, WireError>> {
    loop {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Err(e) => return Some(Err(WireError(format!("reading frame: {e}")))),
            Ok(0) => return None,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue; // keep-alive / stray blank line
                }
                return Some(Value::parse(trimmed));
            }
        }
    }
}

// ------------------------------------------------- persistent-worker frames

/// One frame of the persistent-worker protocol spoken between the
/// supervisor ([`super::shard::WorkerPool`]) and a long-lived worker
/// process serving many jobs over stdio.
///
/// Every frame carries the worker's **generation** — the monotonic
/// counter the supervisor assigns at spawn time (and passes to the
/// worker via `--gen`). A frame whose generation does not match the
/// slot's current generation is from a killed predecessor and is
/// discarded, so late output from a zombie can never be attributed to
/// the worker that replaced it (and never reaches the merger).
///
/// Job and result bodies travel as **strings** (the raw job/result
/// JSON), not nested objects: the supervisor stays payload-agnostic,
/// and a worker that emits a truncated or corrupt body surfaces as a
/// decode failure at the orchestration layer naming the shard.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolFrame {
    /// Supervisor → worker: run this job (the body is one job JSON).
    Job {
        /// The worker generation this job is addressed to.
        gen: u64,
        /// The job description (one job JSON).
        body: String,
    },
    /// Worker → supervisor: periodic liveness beat, emitted by a
    /// dedicated thread even while the main thread computes — a worker
    /// that stops beating is sick (hung, deadlocked, stopped) and gets
    /// killed at the liveness deadline; a *busy* worker that still
    /// beats is merely slow (straggler policy applies instead).
    Heartbeat {
        /// The worker's generation.
        gen: u64,
        /// Whether a job is currently being computed.
        busy: bool,
    },
    /// Worker → supervisor: a completed job (the body is the result
    /// JSON).
    Result {
        /// The worker's generation.
        gen: u64,
        /// The raw result JSON.
        body: String,
    },
}

/// Generations are small monotonic counters; they travel as `Int`.
fn gen_to_wire(gen: u64) -> Value {
    Value::Int(gen as i64)
}

impl PoolFrame {
    /// Wire encoding (one line on the worker's stdio).
    pub fn to_wire(&self) -> Value {
        match self {
            PoolFrame::Job { gen, body } => Value::obj(vec![
                ("type", Value::Str("job".into())),
                ("gen", gen_to_wire(*gen)),
                ("body", Value::Str(body.clone())),
            ]),
            PoolFrame::Heartbeat { gen, busy } => Value::obj(vec![
                ("type", Value::Str("hb".into())),
                ("gen", gen_to_wire(*gen)),
                ("busy", Value::Bool(*busy)),
            ]),
            PoolFrame::Result { gen, body } => Value::obj(vec![
                ("type", Value::Str("result".into())),
                ("gen", gen_to_wire(*gen)),
                ("body", Value::Str(body.clone())),
            ]),
        }
    }

    /// Wire decoding.
    pub fn from_wire(v: &Value) -> Result<PoolFrame, WireError> {
        let gen = v.field("gen")?.as_int()? as u64;
        match v.field("type")?.as_str()? {
            "job" => Ok(PoolFrame::Job {
                gen,
                body: v.field("body")?.as_str()?.to_string(),
            }),
            "hb" => Ok(PoolFrame::Heartbeat {
                gen,
                busy: v.field("busy")?.as_bool()?,
            }),
            "result" => Ok(PoolFrame::Result {
                gen,
                body: v.field("body")?.as_str()?.to_string(),
            }),
            other => Err(WireError(format!("unknown pool frame type {other:?}"))),
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected {:?} at byte {} (input truncated?)",
                b as char, self.pos
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, WireError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.integer(),
            Some(other) => err(format!(
                "unexpected byte {:?} at {}",
                other as char, self.pos
            )),
            None => err("unexpected end of input (truncated?)"),
        }
    }

    /// Parses one array or object one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, WireError>,
    ) -> Result<Value, WireError> {
        if self.depth == MAX_DEPTH {
            return err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn integer(&mut self) -> Result<Value, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        // Decimal floats are not part of the protocol (module docs).
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return err(format!(
                "float literal at byte {start} — the wire encodes floats as f64-bits strings"
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<i64>()
            .map(Value::Int)
            .map_err(|e| WireError(format!("bad integer {text:?}: {e}")))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string (truncated?)"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| WireError("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| WireError("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| WireError("bad \\u escape".into()))?;
                            // The writer only emits \u for control chars
                            // (< 0x20); surrogate pairs never occur.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| WireError("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or
                    // escape with one UTF-8 check, so parsing stays
                    // linear in the string's length.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    s.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| WireError("invalid UTF-8".into()))?,
                    );
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, WireError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, WireError> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Value)> = Vec::new();
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_frames_round_trip_with_generations() {
        for frame in [
            PoolFrame::Job {
                gen: 3,
                body: "{\"kind\":\"landscape\"}".into(),
            },
            PoolFrame::Heartbeat { gen: 9, busy: true },
            PoolFrame::Heartbeat {
                gen: 0,
                busy: false,
            },
            PoolFrame::Result {
                gen: 3,
                body: "truncated or not, it travels verbatim".into(),
            },
        ] {
            let json = frame.to_wire().to_json();
            let back =
                PoolFrame::from_wire(&Value::parse(&json).expect("parses")).expect("decodes");
            assert_eq!(back, frame);
        }
        let bad = Value::parse("{\"type\":\"nope\",\"gen\":1}").expect("parses");
        assert!(
            PoolFrame::from_wire(&bad).is_err(),
            "unknown frame type is rejected"
        );
    }

    #[test]
    fn round_trips_structures() {
        let v = Value::obj(vec![
            ("name", Value::Str("shard \"7\"\nof 9".into())),
            ("index", Value::Int(-3)),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            (
                "values",
                Value::f64_array(&[0.1, -0.0, f64::INFINITY, 1.0 / 3.0]),
            ),
        ]);
        let json = v.to_json();
        let back = Value::parse(&json).expect("parses");
        assert_eq!(back, v);
        assert_eq!(back.to_json(), json, "re-serialization is byte-identical");
    }

    #[test]
    fn f64_bits_are_exact() {
        for x in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::NEG_INFINITY,
            f64::NAN,
            -123.456e-78,
        ] {
            let v = Value::f64_bits(x);
            let y = Value::parse(&v.to_json()).unwrap().as_f64_bits().unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x} must round-trip exactly");
        }
    }

    #[test]
    fn truncated_inputs_fail_loudly() {
        let json = Value::obj(vec![("values", Value::f64_array(&[1.5, 2.5]))]).to_json();
        for cut in 1..json.len() {
            assert!(
                Value::parse(&json[..cut]).is_err(),
                "prefix of length {cut} must not parse"
            );
        }
    }

    #[test]
    fn decimal_floats_are_rejected() {
        assert!(Value::parse("1.5").is_err());
        assert!(Value::parse("[1e3]").is_err());
        assert!(Value::parse("42").is_ok());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        let at_limit = "{\"a\":".repeat(MAX_DEPTH) + "null" + &"}".repeat(MAX_DEPTH);
        assert!(Value::parse(&at_limit).is_ok());
        assert!(Value::parse(&nest(MAX_DEPTH + 1)).is_err());
        let deep = Value::parse(&nest(100_000)).unwrap_err();
        assert!(deep.0.contains("nesting"), "{deep}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        assert!(Value::parse("{\"a\":1,\"a\":2}").is_err());
    }

    #[test]
    fn frames_round_trip_including_embedded_newlines() {
        let frames = [
            Value::obj(vec![("type", Value::Str("ping".into()))]),
            Value::obj(vec![
                ("text", Value::Str("line one\nline two".into())),
                ("x", Value::f64_bits(-0.0)),
            ]),
            Value::Arr(vec![Value::Int(1), Value::Null]),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        buf.extend_from_slice(b"\n\n"); // keep-alive blank lines
        write_frame(&mut buf, &frames[0]).unwrap();
        let mut reader = std::io::BufReader::new(buf.as_slice());
        for expect in frames.iter().chain([&frames[0]]) {
            let got = read_frame(&mut reader).expect("frame present").unwrap();
            assert_eq!(&got, expect);
        }
        assert!(read_frame(&mut reader).is_none(), "EOF after last frame");
    }

    #[test]
    fn torn_frame_fails_loudly() {
        let mut reader = std::io::BufReader::new(&b"{\"a\":1,\"b\""[..]);
        let got = read_frame(&mut reader).expect("a line is present");
        assert!(got.is_err(), "torn frame must not parse");
    }
}
