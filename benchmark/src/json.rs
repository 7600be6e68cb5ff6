//! JSON writing for the benchmark's outputs. Parsing is the program's own
//! `obs::json::parse`; this adds the rendering half over the same
//! [`Json`] value and a few builders.

use std::fmt::Write as _;

use obs::json::{escape, Json};

/// Render on one line (the driver reads the result as the last line of
/// standard output).
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(out, *n),
        Json::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": ", escape(key));
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Whole numbers print without a fraction, everything else with all the
/// digits `f64` needs to round-trip; JSON has no NaN or infinity, so a
/// value that is not finite (a ratio with an empty base) prints as null.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

pub fn num(n: f64) -> Json {
    Json::Num(n)
}

pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

/// The members of an object, or none for any other value.
pub fn members(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Obj(members) => members,
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips_through_the_parser() {
        let value = obj([
            ("name", text("a \"quoted\"\nline")),
            ("whole", num(1_091_732.0)),
            ("fraction", num(0.1 + 0.2)),
            ("list", nums(&[1.5, -2.0])),
            ("none", Json::Null),
            ("flag", Json::Bool(true)),
        ]);
        let line = render(&value);
        assert!(!line.contains('\n'));
        assert!(line.contains("\"whole\": 1091732,"));
        assert_eq!(obs::json::parse(&line).expect("valid"), value);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(render(&num(f64::NAN)), "null");
        assert_eq!(render(&num(f64::INFINITY)), "null");
    }
}
