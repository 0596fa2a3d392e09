//! The line codec behind [`TelemetryEvent::to_json`] and
//! [`parse_line`]: one [`Field`] impl per field type, and a strict
//! reader for the flat JSON objects the encoder writes.
//!
//! The reader holds a line to the pinned schema: a line whose kind is
//! unknown, whose fields are missing, reordered or extra, or whose
//! values have the wrong type is an error, not a shrug — replay must
//! fail loudly when the capture and the binary disagree about the
//! schema, because a silent skip would quietly desynchronize a
//! replayed metrics summary from the live one.
//!
//! `&'static str` fields (verdicts, policies, benchmark names, reject
//! reasons, fault kinds) come back through an [`Interner`], which
//! leaks each distinct string once and caches it — captures are finite
//! and the vocabulary is small, so the leak is bounded and replay keeps
//! the exact event type the live path uses.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::str::FromStr;

use super::TelemetryEvent;

/// How one field type is written after its key, and read back.
pub(super) trait Field: Sized {
    /// Appends the JSON value.
    fn encode(&self, out: &mut String);
    /// Reads the value at the reader's cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, String>;
}

macro_rules! integer_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
                number(r, stringify!($t))
            }
        }
    )*};
}

integer_fields!(u64, usize, i64);

/// Every float shares one encoding: Rust's shortest round-trip form
/// (`{:?}`, which keeps the decimal point) when finite, `null`
/// otherwise, since bare `inf` is not JSON. `null` reads back as
/// +infinity, the only non-finite value the runtime emits.
impl Field for f64 {
    fn encode(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        if r.peek() == Some(b'n') {
            return match r.token() {
                "null" => Ok(f64::INFINITY),
                other => Err(format!("expected float, got {other:?}")),
            };
        }
        number(r, "float")
    }
}

impl Field for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        match r.token() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }
}

/// Strings escape exactly what [`Reader::string`] decodes: `"`, `\`,
/// newline and tab.
impl Field for &'static str {
    fn encode(&self, out: &mut String) {
        out.push('"');
        let mut rest = *self;
        while let Some(i) = rest.find(['"', '\\', '\n', '\t']) {
            out.push_str(&rest[..i]);
            out.push('\\');
            out.push(match rest.as_bytes()[i] {
                b'\n' => 'n',
                b'\t' => 't',
                quote_or_backslash => quote_or_backslash as char,
            });
            rest = &rest[i + 1..];
        }
        out.push_str(rest);
        out.push('"');
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let s = r.string()?;
        Ok(r.interner.intern(&s))
    }
}

/// Parses the next token as a `what`. A leading sign or digit is
/// required, so `+1`, `inf` and `NaN` are errors.
fn number<T: FromStr>(r: &mut Reader<'_>, what: &str) -> Result<T, String> {
    let raw = r.token();
    match raw.as_bytes().first() {
        Some(b'-' | b'0'..=b'9') => raw
            .parse()
            .map_err(|_| format!("expected {what}, got {raw}")),
        _ => Err(format!("expected {what}, got {raw:?}")),
    }
}

/// A cursor over one capture line.
pub(super) struct Reader<'a> {
    line: &'a str,
    pos: usize,
    interner: &'a mut Interner,
}

impl<'a> Reader<'a> {
    /// The next non-whitespace byte, left unconsumed.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.line.as_bytes();
        while bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            got => Err(format!(
                "expected {:?}, got {}",
                want as char,
                describe(got)
            )),
        }
    }

    /// The raw text up to the next `,`, `}` or whitespace: a number,
    /// `true`, `false` or `null`.
    fn token(&mut self) -> &'a str {
        self.peek();
        let rest = &self.line[self.pos..];
        let len = rest
            .find(|c: char| c == ',' || c == '}' || c.is_ascii_whitespace())
            .unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    /// A quoted string, with `\"`, `\\`, `\n` and `\t` decoded.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned = String::new();
        loop {
            let rest = &self.line[self.pos..];
            let i = rest
                .find(['"', '\\'])
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += i + 1;
            if rest.as_bytes()[i] == b'"' {
                // Every escape pushes a char, so an empty buffer means
                // the string had none and can be borrowed.
                if owned.is_empty() {
                    return Ok(Cow::Borrowed(&rest[..i]));
                }
                owned.push_str(&rest[..i]);
                return Ok(Cow::Owned(owned));
            }
            owned.push_str(&rest[..i]);
            owned.push(match rest.as_bytes().get(i + 1) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                got => return Err(format!("unsupported escape {}", describe(got.copied()))),
            });
            self.pos += 1;
        }
    }

    /// Reads the next field, which must be `key`.
    pub(super) fn field<T: Field>(&mut self, key: &str) -> Result<T, String> {
        if self.peek() != Some(b',') {
            return Err(format!("missing field {key:?}"));
        }
        self.pos += 1;
        let got = self.string()?;
        if got != key {
            return Err(format!("expected field {key:?}, got {got:?}"));
        }
        self.expect(b':')?;
        T::decode(self).map_err(|e| format!("field {key}: {e}"))
    }
}

fn describe(byte: Option<u8>) -> String {
    match byte {
        Some(b) => format!("{:?}", b as char),
        None => "end of line".to_string(),
    }
}

/// A parse failure, with enough context to locate the bad line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 when unknown at this layer).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Resolves parsed strings to `&'static str`: each distinct string is
/// leaked once, then served from the cache.
#[derive(Debug, Default)]
pub struct Interner {
    leaked: HashSet<&'static str>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical `&'static str` for `s`.
    pub fn intern(&mut self, s: &str) -> &'static str {
        if let Some(k) = self.leaked.get(s) {
            return k;
        }
        let leaked: &'static str = Box::leak(s.into());
        self.leaked.insert(leaked);
        leaked
    }
}

/// Parses one capture line against the pinned schema.
pub fn parse_line(interner: &mut Interner, line: &str) -> Result<TelemetryEvent, String> {
    let mut r = Reader {
        line,
        pos: 0,
        interner,
    };
    r.expect(b'{')?;
    if r.string()? != "event" {
        return Err("first field must be \"event\"".to_string());
    }
    r.expect(b':')?;
    let kind = r.string()?;
    let event = TelemetryEvent::decode(&kind, &mut r)?;
    if r.peek() == Some(b',') {
        return Err(format!("{kind}: fields beyond the schema"));
    }
    r.expect(b'}')?;
    match r.peek() {
        None => Ok(event),
        Some(_) => Err(format!(
            "trailing content after object: {:?}",
            &line[r.pos..]
        )),
    }
}

/// Parses a whole capture (one JSON object per non-empty line),
/// failing on the first bad line with its 1-based number.
pub fn parse_capture(text: &str) -> Result<Vec<TelemetryEvent>, ParseError> {
    let mut interner = Interner::new();
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| {
            parse_line(&mut interner, line).map_err(|message| ParseError {
                line: idx + 1,
                message,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: &TelemetryEvent) {
        let parsed = parse_line(&mut Interner::new(), &ev.to_json()).expect("parses");
        assert_eq!(&parsed, ev, "{}", ev.to_json());
    }

    #[test]
    fn rejected_placement_null_score_round_trips_to_infinity() {
        roundtrip(&TelemetryEvent::Placement {
            t_ns: 1,
            tenant: 0,
            board: u64::MAX,
            score: f64::INFINITY,
        });
    }

    #[test]
    fn unknown_kind_and_field_drift_are_errors() {
        let mut i = Interner::new();
        assert!(parse_line(&mut i, "{\"event\":\"nope\",\"t_ns\":1}").is_err());
        // Missing field.
        assert!(parse_line(&mut i, "{\"event\":\"config_applied\",\"t_ns\":1}").is_err());
        // Extra field.
        assert!(parse_line(
            &mut i,
            "{\"event\":\"config_applied\",\"t_ns\":1,\"version\":2,\"x\":3}"
        )
        .is_err());
        // Reordered fields.
        assert!(parse_line(
            &mut i,
            "{\"event\":\"config_applied\",\"version\":2,\"t_ns\":1}"
        )
        .is_err());
        // Wrong type.
        assert!(parse_line(
            &mut i,
            "{\"event\":\"config_applied\",\"t_ns\":1,\"version\":\"2\"}"
        )
        .is_err());
        // Not led by the kind; trailing content; unknown escape.
        assert!(parse_line(&mut i, "{\"t_ns\":1,\"event\":\"config_applied\"}").is_err());
        assert!(parse_line(
            &mut i,
            "{\"event\":\"config_applied\",\"t_ns\":1,\"version\":2} x"
        )
        .is_err());
        assert!(parse_line(
            &mut i,
            "{\"event\":\"admission_swapped\",\"t_ns\":1,\"policy\":\"\\u0041\"}"
        )
        .is_err());
        // Whitespace between tokens is tolerated.
        assert_eq!(
            parse_line(
                &mut i,
                " { \"event\" : \"config_applied\" , \"t_ns\" : 1 , \"version\" : 2 } "
            ),
            Ok(TelemetryEvent::ConfigApplied {
                t_ns: 1,
                version: 2
            })
        );
    }

    #[test]
    fn interner_caches_novel_strings() {
        let mut i = Interner::new();
        let novel_a = i.intern("some-new-bench");
        let novel_b = i.intern("some-new-bench");
        assert!(std::ptr::eq(novel_a, novel_b), "leaked once, cached after");
    }

    #[test]
    fn capture_errors_carry_line_numbers() {
        let text = "{\"event\":\"config_applied\",\"t_ns\":1,\"version\":2}\n\nnot json\n";
        let err = parse_capture(text).unwrap_err();
        assert_eq!(err.line, 3);
    }
}
