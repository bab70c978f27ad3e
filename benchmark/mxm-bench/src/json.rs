//! A small JSON value, parser and serializer — enough to read `mxm`
//! response lines, `BENCHMARK.json` and result files, and to write the
//! latter. Kept separate from the repo's `serve::json` on purpose: the
//! end-to-end generator links nothing it measures.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, so written files diff cleanly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integral, non-negative numbers only (counts are exact below 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// One-line serialization. Finite numbers print with Rust's shortest
    /// round-trip form; non-finite ones (never produced by a healthy
    /// run) become `null`.
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => write!(out, "{n}").unwrap(),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting cap: responses are at most four levels deep; anything far
/// beyond that is not a protocol line.
const MAX_DEPTH: usize = 64;

/// Parse one complete JSON document (surrounding whitespace allowed).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: input.as_bytes(),
        at: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.at != p.s.len() {
        return Err(format!("trailing bytes at {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.s.len() && matches!(self.s[self.at], b' ' | b'\t' | b'\n' | b'\r') {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.s.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.ws();
        match self.s.get(self.at) {
            None => Err("unexpected end of input".into()),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut arr = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(arr));
                }
                loop {
                    arr.push(self.value(depth + 1)?);
                    self.ws();
                    if self.s.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.expect(b']')?;
                        return Ok(Json::Arr(arr));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut obj = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(obj));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.expect(b':')?;
                    obj.push((key, self.value(depth + 1)?));
                    self.ws();
                    if self.s.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.expect(b'}')?;
                        return Ok(Json::Obj(obj));
                    }
                }
            }
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = self.at;
                while self.at < self.s.len()
                    && matches!(
                        self.s[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).unwrap();
                text.parse()
                    .map(Json::Num)
                    .map_err(|e| format!("number '{text}': {e}"))
            }
            Some(c) => Err(format!("unexpected '{}' at byte {}", *c as char, self.at)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            while self.at < self.s.len() && !matches!(self.s[self.at], b'"' | b'\\') {
                self.at += 1;
            }
            out.push_str(std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?);
            match self.s.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.at += 1;
                    let esc = *self.s.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
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
                            let hex = self
                                .s
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("short \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.at += 4;
                            // Surrogate pairs never occur in mxm's output;
                            // a lone surrogate maps to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_real_response_line() {
        let line = r#"{"ok":true,"op":"mxm","seconds":0.0002046,"nnz":134,"fingerprint":"ee08195915c25cff","schedule":null,"pool":{"hits":1,"misses":1,"warm":false}}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("nnz").and_then(Json::as_u64), Some(134));
        assert_eq!(
            v.get("fingerprint").and_then(Json::as_str),
            Some("ee08195915c25cff")
        );
        assert_eq!(v.get("schedule"), Some(&Json::Null));
        assert_eq!(
            v.get("pool")
                .and_then(|p| p.get("warm"))
                .and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(parse(&v.to_line()).unwrap(), v, "serializer round-trips");
    }

    #[test]
    fn parses_escapes_arrays_and_exponents() {
        let v = parse(r#" {"a":[1,-2.5e3,[]],"s":"q\"\\\nA","e":{}} "#).unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[1].as_u64(), None, "negative is not a count");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("q\"\\\nA"));
        assert_eq!(parse(&v.to_line()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1}x", "\"open", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(parse(&"[".repeat(100)).is_err(), "depth cap");
    }
}
