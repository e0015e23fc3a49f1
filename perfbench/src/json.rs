//! A minimal JSON value and writer for the result record.

use std::fmt::{self, Write};

pub enum J {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<const N: usize>(fields: [(&str, J); N]) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Null => f.write_str("null"),
            J::Bool(b) => write!(f, "{b}"),
            J::Int(i) => write!(f, "{i}"),
            // shortest round-trip form: every measured digit is kept
            J::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            J::Num(_) => f.write_str("null"),
            J::Str(s) => escape(s, f),
            J::Arr(v) => {
                f.write_char('[')?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_char(']')
            }
            J::Obj(v) => {
                f.write_char('{')?;
                for (i, (k, x)) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    escape(k, f)?;
                    write!(f, ":{x}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values() {
        let j = J::obj([
            ("a", J::Int(1)),
            ("b", J::Arr(vec![J::Num(0.5), J::Null, J::Bool(true)])),
            ("c\"", J::str("x\ny")),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a":1,"b":[0.5,null,true],"c\"":"x\u000ay"}"#
        );
    }
}
